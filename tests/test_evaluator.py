"""Satisfaction semantics: fixtures, the naive-oracle differential, memo bounds."""

import gc
import pickle
import random
import tracemalloc

import pytest

from conftest import (
    random_core_formula,
    random_exactness_instance,
    random_hybrid_nesting,
    random_trace,
    safe_follow_model,
)
from hstl.checkers import Algorithm, generate_traces_baseline, generate_traces_motion, generate_traces_optimized, make_config
from hstl.core import Direction, Position, State, Trace, make_grid, substitute
from hstl.idioms import lower
from hstl.errors import ValidationError
from hstl import evaluator
from hstl.evaluator import CompiledFormula, EvalStats, compile_formula, evaluate, evaluate_naive, sat_points
from hstl.formula import And, At, Bind, Nom, Prop, Top, desugar, index_nodes, parse

F, B, L, R = Direction.FRONT, Direction.BACK, Direction.LEFT, Direction.RIGHT


def prepared(text, props, noms, g):
    return desugar(parse(text, frozenset(props), frozenset(noms)), g)


class TestSemanticsFixtures:
    def test_top_everywhere(self):
        g = make_grid(2, 2)
        t = Trace([State(g, {}, {"z": Position(1, 1)})])
        for p in g.positions():
            assert evaluate(g, t, p, Top())
            assert evaluate_naive(g, t, p, Top())

    def test_vehicle_stays_put(self):
        g = make_grid(2, 2)
        staying = Trace(
            [
                State(g, {}, {"SV": Position(1, 1)}),
                State(g, {}, {"SV": Position(1, 1)}),
            ]
        )
        moving = Trace(
            [
                State(g, {}, {"SV": Position(1, 1)}),
                State(g, {}, {"SV": Position(2, 1)}),
            ]
        )
        f = prepared("@SV ↓v X @SV v", [], ["SV"], g)
        for p in g.positions():
            assert evaluate(g, staying, p, f)
            assert not evaluate(g, moving, p, f)
            assert evaluate_naive(g, staying, p, f) == evaluate(g, staying, p, f)

    def test_safe_follow_trace(self):
        g, trace, text = safe_follow_model()
        f = prepared(text, [], ["SV", "POV"], g)
        start = trace.states[0].noms["SV"]
        assert evaluate(g, trace, start, f)
        assert evaluate_naive(g, trace, start, f)
        # Breaking the follow rule falsifies it: the subject jumps two cells.
        broken = Trace(
            [trace.states[0], State(g, {}, {"SV": Position(3, 2), "POV": Position(4, 2)})]
        )
        assert not evaluate(g, broken, start, f)

    def test_at_is_time_sensitive_fixture(self):
        # q holds at the vehicle's cell now but not after it moves away.
        g = make_grid(2, 1)
        p1, p2 = Position(1, 1), Position(2, 1)
        t = Trace(
            [
                State(g, {"q": [p1]}, {"v": p1}),
                State(g, {"q": [p1]}, {"v": p2}),
            ]
        )
        f = prepared("@v q -> X @v q", ["q"], ["v"], g)
        assert not evaluate(g, t, p1, f)
        assert not evaluate_naive(g, t, p1, f)

    def test_next_false_weak_next_true_at_last_step(self):
        g = make_grid(2, 2)
        t = Trace([State(g, {}, {"z": Position(1, 1)})])
        strict = prepared("X 1", [], ["z"], g)
        weak = prepared("WX 0", [], ["z"], g)  # vacuously true with no next step
        for p in g.positions():
            assert not evaluate(g, t, p, strict)
            assert evaluate(g, t, p, weak)


class TestDifferential:
    def test_eval_matches_naive_on_random_instances(self):
        rng = random.Random(20240810)
        for i in range(300):
            g = make_grid(rng.randint(1, 3), rng.randint(1, 3))
            t = random_trace(rng, g, ["q"], ["z0", "z1"], 4)
            f = random_core_formula(rng, ["q"], ["z0", "z1"], rng.randint(1, 12))
            p = Position(rng.randint(1, g.rows), rng.randint(1, g.cols))
            assert evaluate(g, t, p, f) == evaluate_naive(g, t, p, f), (i, f, t)

    def test_memo_entries_bounded(self):
        rng = random.Random(99)
        for _ in range(200):
            g = make_grid(rng.randint(1, 3), rng.randint(1, 3))
            t = random_trace(rng, g, ["q"], ["z0"], 4)
            f = random_core_formula(rng, ["q"], ["z0"], rng.randint(1, 12))
            p = Position(rng.randint(1, g.rows), rng.randint(1, g.cols))
            stats = EvalStats()
            evaluate(g, t, p, f, stats)
            assert stats.memo_entries <= len(t) * len(index_nodes(f))

    def test_jump_target_reread_inside_until(self):
        # A node below @ inside an until is visited at one timestep with
        # several viewpoints when the jump target moves, so the memo key
        # must carry the viewpoint cell.  Regression for a former
        # collision; the entry count may then exceed |t|*nodes but stays
        # within |t|*nodes*cells.
        g = make_grid(3, 1)
        t = Trace(
            [
                State(g, {"q": []}, {"z0": Position(2, 1), "z1": Position(2, 1)}),
                State(g, {"q": [Position(3, 1)]}, {"z0": Position(3, 1), "z1": Position(3, 1)}),
            ]
        )
        f = prepared("Back (z1 U ((1 & 1) U @z0 (1 U q)))", ["q"], ["z0", "z1"], g)
        assert evaluate(g, t, Position(3, 1), f)
        assert evaluate_naive(g, t, Position(3, 1), f)

        wander = make_grid(2, 2)
        cells = [Position(1, 1), Position(1, 2), Position(2, 2), Position(2, 1)]
        trace = Trace([State(wander, {"q": []}, {"z0": c}) for c in cells])
        chased = prepared("1 U @z0 (1 U q)", ["q"], ["z0"], wander)
        stats = EvalStats()
        assert not evaluate(wander, trace, Position(1, 1), chased, stats)
        assert stats.memo_entries > len(trace) * len(index_nodes(chased))  # the documented excess
        assert stats.memo_entries <= len(trace) * len(index_nodes(chased)) * 4

    def test_orthogonal_moves_commute_on_random_models(self):
        rng = random.Random(4)
        g = make_grid(3, 3)
        f = prepared("Front Right q <-> Right Front q", ["q"], [], g)
        for _ in range(40):
            t = random_trace(rng, g, ["q"], [], 3)
            for p in g.positions():
                assert evaluate_naive(g, t, p, f)


class TestCaptureKey:
    """A node below a binder is memoized with the captures it reads, so an
    ``@`` jump after a ``↓`` never reuses another capture's answer."""

    def test_jump_after_bind_reads_the_capture(self):
        # Every start shares one memo: the cell captured at (2,1) must not
        # reuse the answer computed for the capture at (1,1).
        g = make_grid(2, 1)
        t = Trace([State(g, {}, {"z": Position(1, 1)})])
        f = prepared("↓v @z v", [], ["z"], g)
        assert sat_points(g, t, f) == frozenset({Position(1, 1)})
        for p in g.positions():
            assert evaluate(g, t, p, f) == evaluate_naive(g, t, p, f) == (p == Position(1, 1))

    def test_capture_read_at_a_later_step(self):
        # The binder runs at both steps, capturing (1,1) then (2,1); the
        # inner jump to w reads each capture at the second step.
        g = make_grid(2, 1)
        cells = [(Position(1, 1), Position(2, 1)), (Position(2, 1), Position(2, 1))]
        t = Trace([State(g, {}, {"z": z, "w": w}) for z, w in cells])
        f = prepared("F @z ↓v F @w v", [], ["z", "w"], g)
        for p in g.positions():
            assert evaluate_naive(g, t, p, f)
            assert evaluate(g, t, p, f)
        assert sat_points(g, t, f) == frozenset(g.positions())

    def test_captures_of_different_widths_never_share_a_key(self):
        # ``@a b`` reads two captures and ``a`` below ``X`` one; at the
        # first step their (node, cell, captures) keys differ only in
        # width, and ``X a`` is false on one state, so the formula is
        # ``↓a ↓b @a b``, true everywhere.
        for g in (make_grid(2, 1), make_grid(1, 2)):
            t = Trace([State(g, {}, {})])
            f = prepared("↓a ↓b (@a b & ! Front X a)", [], [], g)
            assert sat_points(g, t, f) == frozenset(g.positions())
            for p in g.positions():
                assert evaluate(g, t, p, f) and evaluate_naive(g, t, p, f)

    def test_jump_below_two_binders_next_to_a_spatial_step(self):
        g = make_grid(2, 1)
        t = Trace([State(g, {"h": frozenset({Position(2, 1)})}, {})])
        f = prepared("↓u (↓v @u (v & h) & Front u)", ["h"], [], g)
        assert sat_points(g, t, f) == frozenset()
        for p in g.positions():
            assert not evaluate(g, t, p, f) and not evaluate_naive(g, t, p, f)

    def test_a_jump_never_reads_the_viewpoint(self):
        g = make_grid(2, 1)
        f = prepared("↓u (h & @u (Front u & h))", ["h"], [], g)
        reads, captured = CompiledFormula(f, g, ("h",), ()).tables()
        jump = next(i for i, (node, _) in enumerate(index_nodes(f)) if isinstance(node, At))
        assert reads == (True, True, True, False, True, True, True, True)
        assert not reads[jump] and captured[jump] == (0,)

    def test_hybrid_nestings_agree_with_the_oracle(self):
        rng = random.Random(0x1A)
        mismatches = 0
        for _ in range(3000):  # two-cell grids most, where distinct keys lie closest
            g = make_grid(*rng.choice([(2, 1), (1, 2), (2, 1), (1, 2), (2, 2), (3, 1)]))
            t = random_trace(rng, g, ["h"], ["z", "w"], 3)
            f = random_hybrid_nesting(rng, ["h"], ["z", "w"], rng.randint(2, 10))
            naive = frozenset(p for p in g.positions() if evaluate_naive(g, t, p, f))
            pointwise = frozenset(p for p in g.positions() if evaluate(g, t, p, f))
            mismatches += naive != pointwise or naive != sat_points(g, t, f)
        assert mismatches == 0


def fresh_encoding(s, g):
    """The encoding of ``s`` over ``g``, read off the row-major cell list."""
    cells = list(g.positions())
    props, noms = tuple(sorted(s.props)), tuple(sorted(s.noms))
    masks = tuple(sum(1 << i for i, c in enumerate(cells) if c in s.props[a]) for a in props)
    return props, noms, (masks, tuple(cells.index(s.noms[v]) for v in noms))


class TestEncodeOnce:
    """Each state is encoded once, on first use, and every call reads it."""

    def test_generated_states_encode_freshly(self):
        rng = random.Random(0xE4C)
        generators = (generate_traces_baseline, generate_traces_optimized, generate_traces_motion)
        for _ in range(12):
            g, props, noms, aset, max_len = random_exactness_instance(rng)
            lowered = [desugar(lower(a), g) for a in aset.pruning_assumptions()]
            for algorithm, generate in zip((Algorithm.BASELINE, Algorithm.OPTIMIZED, Algorithm.MOTION), generators):
                seen = {}
                for i, t in enumerate(generate(make_config(g, props, noms, aset, Top(), max_len, algorithm))):
                    if i % 97 == 0:  # evaluation fills the slot it then reads
                        p = g.position_at(rng.randrange(g.position_count))
                        for f in lowered:
                            assert evaluate(g, t, p, f) == evaluate_naive(g, t, p, f)
                    for s in t.states:
                        seen[id(s)] = s
                for s in seen.values():
                    assert s.encoded() == fresh_encoding(s, g)
                    for v in s.noms:
                        moved = s.with_nominal(v, g.position_at(rng.randrange(g.position_count)))
                        assert moved.encoded() == fresh_encoding(moved, g)

    def test_substituted_states_encode_freshly(self):
        rng = random.Random(0x5B)
        for _ in range(100):
            g = make_grid(rng.randint(1, 3), rng.randint(1, 3))
            t = random_trace(rng, g, ["h"], ["z0", "z1"], 4)
            for s in t.states:
                s.encoded()
            v, p = rng.choice(["z0", "z1"]), g.position_at(rng.randrange(g.position_count))
            out = substitute(t, v, p, rng.randrange(len(t)))
            for s in out.states:
                assert s.encoded() == fresh_encoding(s, g)

    def test_equal_grid_that_is_another_object(self):
        rng = random.Random(0x6D)
        for _ in range(150):
            g = make_grid(rng.randint(1, 3), rng.randint(1, 3))
            other = make_grid(g.rows, g.cols)
            assert other == g and other is not g
            t = random_trace(rng, other, ["q"], ["z0", "z1"], 3)
            f = random_core_formula(rng, ["q"], ["z0", "z1"], rng.randint(1, 10))
            naive = frozenset(p for p in g.positions() if evaluate_naive(g, t, p, f))
            assert frozenset(p for p in g.positions() if evaluate(g, t, p, f)) == naive
            assert sat_points(g, t, f) == naive
            assert all(s.encoded() == fresh_encoding(s, g) for s in t.states)

    def test_unpickled_trace_evaluates_the_same(self):
        rng = random.Random(0x9C)
        for _ in range(100):
            g = make_grid(rng.randint(1, 3), rng.randint(1, 3))
            t = random_trace(rng, g, ["q"], ["z0", "z1"], 3)
            f = random_core_formula(rng, ["q"], ["z0", "z1"], rng.randint(1, 10))
            before = sat_points(g, t, f)
            copy = pickle.loads(pickle.dumps(t))
            assert copy == t and sat_points(g, copy, f) == before
            assert all(evaluate(g, copy, p, f) == (p in before) for p in g.positions())


class TestLongTraces:
    """Until scans forward over time, so trace length never bounds the depth."""

    @pytest.mark.parametrize("length", [500, 1000, 3000])
    def test_until_past_the_recursion_limit(self, length):
        g = make_grid(1, 1)
        here = Position(1, 1)
        gap = length - 2  # the one step where h does not hold
        t = Trace([State(g, {"h": [] if k == gap else [here]}, {"z": here}) for k in range(length)])
        cases = {
            "G (z | Front z)": True,
            "G (h | Front h)": False,
            "F !h": True,
            "h U (!h & X h)": True,
            "G F h": True,
            "F G !h": False,
        }
        for text, want in cases.items():
            f = prepared(text, ["h"], ["z"], g)
            assert evaluate(g, t, here, f) is want, text
            assert sat_points(g, t, f) == (frozenset({here}) if want else frozenset()), text


class TestCompileCache:
    """The compile cache is keyed on the formula object, never its value."""

    def test_deep_formula_is_never_hashed(self):
        # Hashing this tree recurses once per node and overflows; keying
        # on the object leaves the depth to the evaluator.
        g = make_grid(150, 1)
        f = prepared("[Front] h", ["h"], [], g)
        t = Trace([State(g, {"h": list(g.positions())}, {})])
        assert evaluate(g, t, Position(1, 1), f)
        assert sat_points(g, t, f) == frozenset(g.positions())

    def test_equal_formulas_that_are_other_objects(self):
        rng = random.Random(0x1D)
        for _ in range(100):
            g = make_grid(rng.randint(1, 3), rng.randint(1, 3))
            t = random_trace(rng, g, ["q"], ["z0", "z1"], 3)
            f = random_core_formula(rng, ["q"], ["z0", "z1"], rng.randint(1, 10))
            twin = pickle.loads(pickle.dumps(f))
            assert twin == f and twin is not f
            assert sat_points(g, t, twin) == sat_points(g, t, f)
            assert all(evaluate(g, t, p, twin) == evaluate(g, t, p, f) for p in g.positions())

    def test_rebuilt_formulas_never_reuse_a_stale_compile(self, monkeypatch):
        # A small cache evicts constantly, so a dropped formula's id is
        # soon handed to a new, different formula.
        monkeypatch.setattr(evaluator, "_COMPILE_CACHE_SIZE", 4)
        compile_formula.cache_clear()
        rng = random.Random(0x1E)
        g = make_grid(2, 2)
        ids = set()
        for _ in range(300):
            t = random_trace(rng, g, ["q"], ["z0", "z1"], 3)
            f = random_core_formula(rng, ["q"], ["z0", "z1"], rng.randint(1, 10))
            ids.add(id(f))
            for p in g.positions():
                assert evaluate(g, t, p, f) == evaluate_naive(g, t, p, f)
            assert compile_formula.cache_info().currsize <= 4
            del f
        assert len(ids) < 300  # ids were reused

    def test_clear_empties_and_misses_count_compiles(self):
        g = make_grid(2, 2)
        t = Trace([State(g, {"h": [Position(1, 1)]}, {"z": Position(2, 1)})])
        f = prepared("h | @z Front h", ["h"], ["z"], g)

        def counts():
            info = compile_formula.cache_info()
            return info.misses, info.currsize

        compile_formula.cache_clear()
        assert counts() == (0, 0)
        for p in g.positions():
            evaluate(g, t, p, f)
        sat_points(g, t, f)
        assert counts() == (1, 1)
        evaluate(g, t, Position(1, 1), prepared("h | @z Front h", ["h"], ["z"], g))
        assert counts() == (2, 2)
        compile_formula.cache_clear()
        assert counts() == (0, 0)


class TestSatPoints:
    def test_nominal_denotation(self):
        g = make_grid(2, 2)
        t = Trace([State(g, {}, {"z": Position(2, 1)})])
        assert sat_points(g, t, Nom("z")) == frozenset({Position(2, 1)})

    def test_top_is_everywhere(self):
        g = make_grid(2, 3)
        t = Trace([State(g, {}, {"z": Position(1, 1)})])
        assert sat_points(g, t, Top()) == frozenset(g.positions())

    def test_viewpoint_independent_formula_is_all_or_nothing(self):
        g = make_grid(2, 2)
        f = prepared("@z0 !z1", [], ["z0", "z1"], g)
        everything = frozenset(g.positions())
        seen = set()
        for a in g.positions():
            for b in g.positions():
                t = Trace([State(g, {}, {"z0": a, "z1": b})])
                points = sat_points(g, t, f)
                assert points in (frozenset(), everything)
                seen.add(bool(points))
        assert seen == {True, False}

    def test_matches_pointwise_evaluation(self):
        rng = random.Random(17)
        for _ in range(150):
            g = make_grid(rng.randint(1, 3), rng.randint(1, 3))
            t = random_trace(rng, g, ["q"], ["z0", "z1"], 3)
            f = random_core_formula(rng, ["q"], ["z0", "z1"], rng.randint(1, 10))
            expected = frozenset(p for p in g.positions() if evaluate(g, t, p, f))
            assert sat_points(g, t, f) == expected

    def test_memo_is_freed_on_return(self):
        # Each call's memo must die with the call, not wait for the cyclic
        # collector: with the collector off, nothing of it may stay behind.
        g = make_grid(6, 6)
        text = "G (h -> F (<Front> h | ↓v X (k U @v Back h))) & (k U (h & X !k))"
        compiled = CompiledFormula(prepared(text, ["h", "k"], [], g), g, ("h", "k"), ())
        rng = random.Random(3)
        states = [((rng.getrandbits(36), rng.getrandbits(36)), ()) for _ in range(40)]
        memo_bytes = 8 * len(states) * compiled.n_nodes * g.position_count
        gc.disable()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for _ in range(5):
                compiled.sat_point_indices(states)
            compiled.holds_everywhere(states)
            compiled.evaluate(states, 0)
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
            gc.enable()
        assert retained < memo_bytes // 10


class TestValidation:
    def test_undeclared_symbols_raise(self):
        g = make_grid(2, 2)
        t = Trace([State(g, {}, {"z": Position(1, 1)})])
        with pytest.raises(ValidationError):
            evaluate(g, t, Position(1, 1), Prop("q"))
        with pytest.raises(ValidationError):
            evaluate(g, t, Position(1, 1), Nom("y"))
        with pytest.raises(ValidationError):
            evaluate_naive(g, t, Position(1, 1), Nom("y"))

    def test_undeclared_nominal_both_free_and_bound_raises(self):
        # The binder gives ``z`` a slot, but its free occurrence reads an
        # undeclared nominal; a check per compiled slot would let it pass.
        from hstl.checkers import Algorithm, make_config
        from hstl.idioms import AssumptionSet

        g = make_grid(2, 1)
        t = Trace([State(g, {}, {"y": Position(1, 1)})])
        f = And(Nom("z"), Bind("z", Nom("z")))
        with pytest.raises(ValidationError):
            evaluate(g, t, Position(1, 1), f)
        with pytest.raises(ValidationError):
            sat_points(g, t, f)
        with pytest.raises(ValidationError):
            evaluate_naive(g, t, Position(1, 1), f)
        for algorithm in Algorithm:
            with pytest.raises(ValidationError):
                make_config(g, [], ["y"], AssumptionSet(), f, 1, algorithm)

    def test_sugar_rejected(self):
        from hstl.formula import Eventually

        g = make_grid(2, 2)
        t = Trace([State(g, {}, {"z": Position(1, 1)})])
        with pytest.raises(ValidationError):
            evaluate(g, t, Position(1, 1), Eventually(Top()))

    def test_grid_mismatch(self):
        g = make_grid(2, 2)
        t = Trace([State(g, {}, {"z": Position(1, 1)})])
        with pytest.raises(ValidationError):
            evaluate(make_grid(3, 3), t, Position(1, 1), Top())

    def test_point_outside_grid(self):
        g = make_grid(2, 2)
        t = Trace([State(g, {}, {"z": Position(1, 1)})])
        with pytest.raises(ValidationError):
            evaluate(g, t, Position(3, 3), Top())

    def test_bound_nominal_needs_no_declaration(self):
        g = make_grid(2, 2)
        t = Trace([State(g, {}, {"z": Position(1, 1)})])
        f = Bind("fresh", And(Nom("fresh"), Top()))
        for p in g.positions():
            assert evaluate(g, t, p, f)
            assert evaluate_naive(g, t, p, f)
