"""Parsing, precedence, rendering, desugaring, indexing, symbol usage."""

import random

import pytest

from hstl.checkers import Algorithm, make_config
from hstl.core import Direction, State, Trace, apply_path, make_grid
from hstl.errors import ParseError, ValidationError
from hstl.evaluator import evaluate
from hstl.formula import (
    AllDir,
    And,
    At,
    Bind,
    Eventually,
    Globally,
    Iff,
    Implies,
    Next,
    Nom,
    Not,
    Or,
    Prop,
    SomeDir,
    Spatial,
    Top,
    Until,
    WeakNext,
    children,
    desugar,
    index_nodes,
    is_core,
    parse,
    render,
    size,
    symbols,
)
from hstl.idioms import AssumptionSet

F, B, L, R = Direction.FRONT, Direction.BACK, Direction.LEFT, Direction.RIGHT

PROPS = frozenset({"h", "q"})
NOMS = frozenset({"z", "z0", "z1", "SV", "POV"})


def p(text: str):
    return parse(text, PROPS, NOMS)


class TestParse:
    def test_sideways_commutation_string(self):
        got = p("G(Left(Right(z)) <-> Right(Left(z)))")
        want = Globally(
            Iff(
                Spatial(L, Spatial(R, Nom("z"))),
                Spatial(R, Spatial(L, Nom("z"))),
            )
        )
        assert got == want

    def test_constants(self):
        assert p("1") == Top()
        assert p("0") == Not(Top())

    def test_binder_introduces_nominal(self):
        got = p("G (@z1 ↓z2 ((! X 1) | X @z1 (z2 | Back z2)))")
        inner = Or(Not(Next(Top())), Next(At("z1", Or(Nom("z2"), Spatial(B, Nom("z2"))))))
        assert got == Globally(At("z1", Bind("z2", inner)))

    def test_ascii_binder_alias(self):
        assert p("down z2 z2") == p("↓z2 z2")
        # A keyword is a whole word: "Fr" is a name, not F applied to r.
        assert parse("F Fr", {"Fr"}, set()) == Eventually(Prop("Fr"))

    def test_bounded_modalities(self):
        assert p("<Front:3> h") == SomeDir(F, 3, Prop("h"))
        assert p("[Left] h") == AllDir(L, None, Prop("h"))

    @pytest.mark.parametrize(
        "text,want",
        [
            ("h & q | z", "(h & q) | z"),
            ("h | q U z", "(h | q) U z"),
            ("h U q -> z", "(h U q) -> z"),
            ("h -> q -> z", "h -> (q -> z)"),
            ("h U q U z", "h U (q U z)"),
            ("h -> q <-> z", "(h -> q) <-> z"),
            ("@z0 z1 & h", "(@z0 z1) & h"),
            ("! X 1 | h", "(! X 1) | h"),
        ],
    )
    def test_precedence(self, text, want):
        assert p(text) == p(want)

    def test_deep_parentheses(self):
        # One parser frame per operand, not one per precedence level.
        assert parse("(" * 200 + "h" + ")" * 200, {"h"}, set()) == Prop("h")

    def test_prefix_chain(self):
        assert p("! X 1") == Not(Next(Top()))
        assert p("Front Back h") == Spatial(F, Spatial(B, Prop("h")))

    def test_errors(self):
        with pytest.raises(ParseError):
            p("unknown_name")
        with pytest.raises(ParseError):
            p("@h z")  # proposition after @
        with pytest.raises(ParseError) as info:
            p("(h &")
        assert info.value.position == 4
        with pytest.raises(ParseError, match=r"found '12' \(at offset 0\)"):
            p("12abc")  # the integer 12, then the name abc
        with pytest.raises(ParseError, match=r"trailing input 'abc' \(at offset 1\)"):
            p("1abc")
        with pytest.raises(ParseError, match=r"unexpected character '\$' \(at offset 2\)"):
            p("h $ q")
        with pytest.raises(ParseError, match=r"unexpected character 'é' \(at offset 0\)"):
            p("é")
        with pytest.raises(ParseError):
            p("h h")  # trailing input
        with pytest.raises(ValidationError):
            parse("h", frozenset({"h"}), frozenset({"h"}))  # name clash
        with pytest.raises(ValidationError):
            parse("1", frozenset({"Front"}), frozenset())  # reserved keyword
        with pytest.raises(ValidationError):
            parse("1", frozenset(), frozenset({"_z"}))  # reserved prefix
        with pytest.raises(ParseError):
            p("z2")  # binder-only nominal used free


class TestRender:
    def test_examples(self):
        assert render(Top()) == "1"
        assert render(And(Prop("h"), Nom("z"))) == "(h & z)"

    def test_round_trip_random(self):
        rng = random.Random(2024)
        for _ in range(1000):
            f = _random_sugar_formula(rng, budget=rng.randint(1, 14))
            assert parse(render(f), PROPS, NOMS) == f


def _random_sugar_formula(rng, budget, scope=()):
    noms = sorted(NOMS) + list(scope)
    if budget <= 1:
        pick = rng.random()
        if pick < 0.3:
            return Top()
        if pick < 0.6:
            return Prop(rng.choice(sorted(PROPS)))
        return Nom(rng.choice(noms))
    unary = [Not, Next, WeakNext, Eventually, Globally]
    kind = rng.choice(["unary", "binary", "spatial", "at", "bind", "bounded", "leaf"])
    if kind == "leaf":
        return _random_sugar_formula(rng, 1, scope)
    if kind == "unary":
        return rng.choice(unary)(_random_sugar_formula(rng, budget - 1, scope))
    if kind == "spatial":
        d = rng.choice(list(Direction))
        return Spatial(d, _random_sugar_formula(rng, budget - 1, scope))
    if kind == "at":
        return At(rng.choice(noms), _random_sugar_formula(rng, budget - 1, scope))
    if kind == "bind":
        name = rng.choice(["v", "u"])
        return Bind(name, _random_sugar_formula(rng, budget - 1, scope + (name,)))
    if kind == "bounded":
        d = rng.choice(list(Direction))
        bound = rng.choice([None, 1, 2, 3])
        node = rng.choice([SomeDir, AllDir])
        return node(d, bound, _random_sugar_formula(rng, budget - 1, scope))
    split = rng.randint(1, budget - 2) if budget > 2 else 1
    left = _random_sugar_formula(rng, split, scope)
    right = _random_sugar_formula(rng, budget - 1 - split, scope)
    return rng.choice([And, Or, Implies, Iff, Until])(left, right)


class TestDesugar:
    def test_eventually(self):
        g = make_grid(2, 2)
        out = desugar(Eventually(Prop("h")), g)
        assert out == Until(Top(), Prop("h"))
        assert size(out) == 3

    def test_weak_next(self):
        g = make_grid(2, 2)
        out = desugar(WeakNext(Prop("h")), g)
        assert out == Not(And(Next(Top()), Not(Next(Prop("h")))))
        assert size(out) == 7

    def test_some_dir_expansion(self):
        g = make_grid(3, 3)
        out = desugar(SomeDir(F, 2, Prop("h")), g)
        h = Prop("h")
        assert out == Spatial(F, Not(And(Not(h), Not(Spatial(F, h)))))
        assert size(out) == 8

    def test_all_dir_expansion_size(self):
        g = make_grid(3, 3)
        out = desugar(AllDir(F, 2, Prop("h")), g)
        assert size(out) == 15
        assert is_core(out)

    def test_bounded_expansions_match_definition(self):
        # <D:n>f: some cell 1..n steps along D exists and satisfies f;
        # [D:n]f: every such cell that exists satisfies f.
        g = make_grid(4, 3)
        rng = random.Random(11)
        child = Or(Prop("h"), Next(Prop("h")))
        core_child = desugar(child, g)
        cells = list(g.positions())
        for _ in range(5):
            t = Trace(
                [State(g, {"h": rng.sample(cells, rng.randint(0, len(cells)))}, {}) for _ in range(2)]
            )
            for d in Direction:
                for n in range(1, 6):
                    some, every = desugar(SomeDir(d, n, child), g), desugar(AllDir(d, n, child), g)
                    for p in cells:
                        reached = [apply_path(g, p, (d,) * i) for i in range(1, n + 1)]
                        holds = [evaluate(g, t, q, core_child) for q in reached if q is not None]
                        assert evaluate(g, t, p, some) == any(holds)
                        assert evaluate(g, t, p, every) == all(holds)

    def test_bounds_past_the_edge_are_capped(self):
        # No cell lies more than rows-1 steps along Front, so bound 120 on a
        # 40-row grid desugars as bound 39 and evaluates without overflow.
        g = make_grid(40, 1)
        h = Prop("h")
        assert desugar(SomeDir(F, 120, h), g) == desugar(SomeDir(F, 39, h), g)
        assert desugar(AllDir(F, 120, h), g) == desugar(AllDir(F, 39, h), g)
        cells = list(g.positions())
        bottom, top = cells[0], cells[-1]
        everywhere = Trace([State(g, {"h": cells}, {})])
        top_only = Trace([State(g, {"h": [top]}, {})])
        assert evaluate(g, everywhere, bottom, desugar(AllDir(F, 120, h), g))
        assert evaluate(g, top_only, bottom, desugar(SomeDir(F, 120, h), g))
        assert not evaluate(g, top_only, bottom, desugar(AllDir(F, 120, h), g))
        assert not evaluate(g, top_only, top, desugar(SomeDir(F, 120, h), g))

    def test_default_bounds_from_grid(self):
        g = make_grid(3, 2)
        front = desugar(SomeDir(F, None, Prop("h")), g)
        left = desugar(SomeDir(L, None, Prop("h")), g)
        assert front == desugar(SomeDir(F, 3, Prop("h")), g)
        assert left == desugar(SomeDir(L, 2, Prop("h")), g)

    def test_zero_bound_rejected(self):
        with pytest.raises(ValidationError):
            desugar(SomeDir(F, 0, Prop("h")), make_grid(2, 2))

    def test_idempotent_and_core(self):
        g = make_grid(2, 3)
        rng = random.Random(5)
        for _ in range(200):
            f = _random_sugar_formula(rng, budget=rng.randint(1, 12))
            once = desugar(f, g)
            assert is_core(once)
            assert desugar(once, g) == once


class TestIndexNodes:
    def test_identical_twins_get_distinct_ids(self):
        rows = index_nodes(And(Top(), Top()))
        assert len(rows) == 3
        ids = [i for i, (node, _) in enumerate(rows) if node == Top()]
        assert len(ids) == 2 and ids[0] != ids[1]
        assert rows[0][1] == tuple(ids)

    def test_single_atom(self):
        assert index_nodes(Prop("h")) == [(Prop("h"), ())]

    def test_count_matches_structural_size(self):
        for f in _random_core_formulas():
            assert len(index_nodes(f)) == size(f)

    def test_requires_core(self):
        with pytest.raises(ValidationError):
            index_nodes(Eventually(Top()))

    def test_rows_form_a_preorder_tree(self):
        twins = desugar(parse("(h & q) U (h & q)", PROPS, NOMS), make_grid(2, 2))
        for f in [twins, *_random_core_formulas()]:
            rows = index_nodes(f)
            assert rows[0][0] is f
            child_ids = sorted(k for _, kids in rows for k in kids)
            assert child_ids == list(range(1, len(rows)))  # each non-root has one parent
            for i, (node, kids) in enumerate(rows):
                assert all(k > i for k in kids)
                assert tuple(rows[k][0] for k in kids) == children(node)


def _random_core_formulas() -> list:
    rng = random.Random(9)
    g = make_grid(2, 2)
    return [desugar(_random_sugar_formula(rng, budget=rng.randint(1, 12)), g) for _ in range(100)]


class TestSymbols:
    def test_at_start_constraint(self):
        usage = symbols(p("@z0 !(Back 1)"))
        assert usage.props == frozenset()
        assert usage.noms == frozenset({"z0"})
        assert usage.bound == frozenset()

    def test_follow_assumption(self):
        usage = symbols(p("G (@z1 ↓z2 ((! X 1) | X @z1 (z2 | Back z2)))"))
        assert usage.noms == frozenset({"z1"})
        assert usage.bound == frozenset({"z2"})

    def test_hazard_style_formula(self):
        text = (
            "@z0 (((Right z1) & <Front> (G h)) & "
            "((@z0 ↓z2 X @z0 ((Back z2) & (G ! h))) U "
            "(@z0 ↓z2 X @z0 ((Left z2) & <Front> z1 & [Front] (G ! h)))))"
        )
        usage = symbols(p(text))
        assert usage.props == frozenset({"h"})
        assert usage.noms == frozenset({"z0", "z1"})
        assert usage.bound == frozenset({"z2"})

    def test_deep_formula_past_the_recursion_limit(self):
        # symbols walks its own stack, so make_config accepts a bounded
        # box as deep as a long road makes it.
        g = make_grid(400, 1)
        f = desugar(parse("[Front] h", PROPS, NOMS), g)
        assert symbols(f) == symbols(Prop("h"))
        cfg = make_config(g, ["h"], [], AssumptionSet(), f, 1, Algorithm.BASELINE)
        assert cfg.spec is f
