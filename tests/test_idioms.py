"""Assumption lowering, structural validation, and lowering/semantics agreement."""

import itertools
import random

import pytest

from conftest import random_assumption_set, random_trace
from hstl.checkers import Algorithm, generate_traces_motion, make_config
from hstl.core import Direction, State, Trace, apply_path, make_grid
from hstl.errors import ValidationError
from hstl.evaluator import evaluate
from hstl.formula import At, Bind, Globally, Nom, Top, desugar, parse
from hstl.idioms import (
    FRESH_NOMINAL,
    AssumptionSet,
    FixedMotion,
    GlobalState,
    Initial,
    Raw,
    RelativeMotion,
    StaticCar,
    lower,
    validate,
)

F, B, L, R = Direction.FRONT, Direction.BACK, Direction.LEFT, Direction.RIGHT


def motion_stream(g, props, noms, aset, max_len=2):
    """The motion generator's traces up to ``max_len``, in stream order."""
    return list(generate_traces_motion(make_config(g, props, noms, aset, Top(), max_len, Algorithm.MOTION)))


def nominal_cells(g, noms, aset):
    """The motion stream at length 2, each trace as its states' nominal cells."""
    return [[tuple(s.noms[v] for v in noms) for s in t.states] for t in motion_stream(g, [], noms, aset)]


class TestLowering:
    def test_static_car_shape(self):
        got = lower(StaticCar("z1"))
        want = At("z1", Bind(FRESH_NOMINAL, Globally(At("z1", Nom(FRESH_NOMINAL)))))
        assert got == want

    def test_relative_motion_shape(self):
        got = lower(RelativeMotion("z0", "z1", (F, F)))
        assert got == parse("G (@z0 Front Front z1)", frozenset(), frozenset({"z0", "z1"}))

    def test_fixed_motion_matches_conditional_movement_formula(self):
        # Stay-or-advance as a structured move set must agree with the
        # spelled-out next-step formula on every tiny model.
        g = make_grid(3, 1)
        noms = ("z0", "z1")
        lowered = desugar(lower(FixedMotion("z1", frozenset({(), (B,)}))), g)
        spelled = desugar(
            parse(
                "G (@z1 ↓z2 ((! X 1) | X @z1 (z2 | Back z2)))",
                frozenset(),
                frozenset(noms),
            ),
            g,
        )
        cells = list(g.positions())
        states = [
            State(g, {}, {"z0": a, "z1": b}) for a in cells for b in cells
        ]
        rng = random.Random(0)
        for length in (1, 2, 3):
            for _ in range(120):
                t = Trace([rng.choice(states) for _ in range(length)])
                for p in cells:
                    assert evaluate(g, t, p, lowered) == evaluate(g, t, p, spelled)

    def test_initial_and_raw_pass_through(self):
        f = parse("@z0 !(Back 1)", frozenset(), frozenset({"z0"}))
        assert lower(Initial(f)) == f
        assert lower(Raw(f)) == f

    def test_global_state_viewpoint_independent(self):
        rng = random.Random(8)
        g = make_grid(2, 2)
        for _ in range(60):
            aset = random_assumption_set(rng, g, ["q"], ["z0", "z1"])
            t = random_trace(rng, g, ["q"], ["z0", "z1"], 3)
            for a in aset.global_states:
                f = desugar(lower(a), g)
                answers = {evaluate(g, t, p, f) for p in g.positions()}
                assert len(answers) == 1


class TestConstructionChecks:
    def test_global_state_rejects_temporal(self):
        x_inside = parse("X z1", frozenset(), frozenset({"z1"}))
        with pytest.raises(ValidationError):
            GlobalState("z0", x_inside)
        g_inside = parse("G z1", frozenset(), frozenset({"z1"}))
        GlobalState("z0", g_inside)  # G alone is tolerated

    def test_initial_rejects_any_temporal(self):
        with pytest.raises(ValidationError):
            Initial(parse("G z1", frozenset(), frozenset({"z1"})))

    def test_fixed_motion_needs_moves(self):
        with pytest.raises(ValidationError):
            FixedMotion("z0", frozenset())

    def test_self_dependency_rejected(self):
        with pytest.raises(ValidationError):
            RelativeMotion("z0", "z0", (F,))


class TestValidate:
    def test_conflicting_roles(self):
        aset = AssumptionSet([StaticCar("z0"), FixedMotion("z0", frozenset({(F,)}))])
        with pytest.raises(ValidationError, match="conflicting"):
            validate(aset)

    def test_dependee_and_dependent(self):
        aset = AssumptionSet(
            [RelativeMotion("z0", "z1", (F,)), RelativeMotion("z1", "z2", (F,))]
        )
        with pytest.raises(ValidationError, match="dependee and dependent"):
            validate(aset)

    def test_dependent_in_two_assumptions(self):
        aset = AssumptionSet(
            [RelativeMotion("z0", "z1", (F,)), RelativeMotion("z2", "z1", (B,))]
        )
        with pytest.raises(ValidationError, match="more than one relative motion"):
            validate(aset)

    def test_empty_set_leaves_everything_free(self):
        g = make_grid(2, 2)
        placements = list(itertools.product(g.positions(), repeat=2))
        # Every placement, each first state followed by all its successors.
        expected = [trace for a in placements for trace in [[a]] + [[a, b] for b in placements]]
        assert nominal_cells(g, ["z0", "z1"], AssumptionSet()) == expected

    def test_roles_assigned(self):
        g = make_grid(3, 2)
        aset = AssumptionSet(
            [
                StaticCar("z0"),
                FixedMotion("z1", frozenset({(B,)})),
                RelativeMotion("z2", "z3", (F,)),
            ]
        )
        traces = nominal_cells(g, ["z0", "z1", "z2", "z3"], aset)
        cells = list(g.positions())
        feasible = [p for p in cells if apply_path(g, p, (F,)) is not None]
        firsts = [t[0] for t in traces if len(t) == 1]
        steps = [t for t in traces if len(t) == 2]
        # The dependee is kept feasible and the dependent completed in every state.
        assert all(s[2] in feasible and s[3] == apply_path(g, s[2], (F,)) for t in traces for s in t)
        assert len(firsts) == len(cells) ** 2 * len(feasible)
        # The static nominal keeps its cell; the fixed one follows its move.
        assert all(new[0] == old[0] and apply_path(g, new[1], (B,)) == old[1] for old, new in steps)
        followers = {old: [q for q in cells if apply_path(g, q, (B,)) == old] for old in cells}
        assert len(steps) == sum(len(followers[s[1]]) * len(feasible) for s in firsts)
        assert {new[2] for _, new in steps} == set(feasible)

    def test_exact_duplicates_are_tolerated(self):
        g = make_grid(2, 2)
        single = nominal_cells(g, ["z0", "z1"], AssumptionSet([StaticCar("z0")]))
        assert nominal_cells(g, ["z0", "z1"], AssumptionSet([StaticCar("z0"), StaticCar("z0")])) == single

    def test_static_dependee_rejected(self):
        aset = AssumptionSet([StaticCar("z0"), RelativeMotion("z0", "z1", (F,))])
        with pytest.raises(ValidationError):
            validate(aset)

    @pytest.mark.parametrize(
        "assumptions, accepted",
        [
            ([StaticCar("z0"), FixedMotion("z0", frozenset({(F,)}))], False),
            ([FixedMotion("z0", frozenset({(F,)})), FixedMotion("z0", frozenset({(B,)}))], False),
            ([RelativeMotion("z0", "z1", (F,)), RelativeMotion("z1", "z2", (F,))], False),
            ([RelativeMotion("z0", "z1", (F,)), RelativeMotion("z2", "z1", (B,))], False),
            ([StaticCar("z0"), RelativeMotion("z0", "z1", (F,))], False),
            ([FixedMotion("z0", frozenset({(F,)})), RelativeMotion("z0", "z1", (F,))], False),
            ([RelativeMotion("z0", "z1", (F,)), RelativeMotion("z0", "z2", (B,))], True),
            ([StaticCar("z0"), StaticCar("z0")], True),
            ([FixedMotion("z0", frozenset({(F,)})), FixedMotion("z0", frozenset({(F,)}))], True),
            ([RelativeMotion("z0", "z1", (F,)), RelativeMotion("z0", "z1", (F,))], True),
        ],
        ids=[
            "static_and_fixed",
            "fixed_twice_different_moves",
            "dependee_also_dependent",
            "dependent_of_two",
            "static_dependee",
            "fixed_dependee",
            "dependee_of_two",
            "duplicate_static",
            "duplicate_fixed",
            "duplicate_relative",
        ],
    )
    def test_motion_roles_through_make_config(self, assumptions, accepted):
        # Each nominal holds one role: static, fixed, the dependent of one
        # relative motion, or the dependee of any number of them.
        for algorithm in Algorithm:
            build = lambda: make_config(
                make_grid(3, 1), [], ["z0", "z1", "z2"], AssumptionSet(assumptions), Top(), 2, algorithm
            )
            if accepted:
                build()
            else:
                with pytest.raises(ValidationError):
                    build()

    def test_undeclared_nominal_reported(self):
        with pytest.raises(ValidationError, match="undeclared"):
            make_config(make_grid(2, 1), [], ["z0"], AssumptionSet([StaticCar("ghost")]), Top(), 1, Algorithm.MOTION)

    def test_order_independent(self):
        rng = random.Random(13)
        g = make_grid(2, 2)
        for _ in range(40):
            aset = random_assumption_set(rng, g, ["q"], ["z0", "z1"])
            base = motion_stream(g, ["q"], ["z0", "z1"], aset)
            for perm in itertools.islice(itertools.permutations(aset.assumptions), 1, 6):
                assert motion_stream(g, ["q"], ["z0", "z1"], AssumptionSet(perm)) == base
