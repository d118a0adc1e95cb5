"""Trace generation: counts, orders, exactness against brute force, bounds."""

import copy
import itertools
import pickle
import random
import tracemalloc
from collections import Counter

import pytest

from conftest import (
    random_core_formula,
    random_exactness_instance,
    random_hybrid_nesting,
    random_state_local_formula,
)
from hstl.checkers import (
    Algorithm,
    _Context,
    _iter_encoded,
    baseline_trace_count,
    checked_formula,
    conjoin,
    generate_traces_baseline,
    generate_traces_motion,
    generate_traces_optimized,
    make_config,
    sat_traces,
    state_count,
    unenforced_assumptions,
)
from hstl.core import DIRECTIONS, Direction, Position, State, Trace, make_grid
from hstl.errors import ValidationError
from hstl.evaluator import CompiledFormula, compile_formula, evaluate, evaluate_naive, sat_points
from hstl.formula import And, At, Bind, Globally, Nom, Not, Or, Prop, Spatial, Top, desugar, parse
from hstl.idioms import (
    AssumptionSet,
    FixedMotion,
    GlobalState,
    Initial,
    Raw,
    RelativeMotion,
    StaticCar,
    lower,
)
from hstl.harness import build_config
from hstl.scenarios import compile_assumption_set, passing, platoon
from test_acceptance import GATED_SCENARIOS

F, B, L, R = Direction.FRONT, Direction.BACK, Direction.LEFT, Direction.RIGHT

TOP = Top()


def cfg_of(g, props, noms, aset, max_len, algorithm, spec=TOP):
    return make_config(g, props, noms, aset, spec, max_len, algorithm)


def every_point_satisfies(g, t, formulas):
    return all(evaluate(g, t, p, f) for f in formulas for p in g.positions())


def one_state_stream(generator, g, props, noms, aset, algorithm):
    """The states of a generator's length-1 traces, in stream order."""
    return [t.states[0] for t in generator(cfg_of(g, props, noms, aset, 1, algorithm))]


def all_states(g, props, noms):
    return one_state_stream(generate_traces_baseline, g, props, noms, AssumptionSet(), Algorithm.BASELINE)


def first_states(g, aset, props, noms):
    return one_state_stream(generate_traces_motion, g, props, noms, aset, Algorithm.MOTION)


def brute_force_filter(g, props, noms, aset, max_len, assumptions):
    """Baseline traces on which every lowered assumption holds everywhere."""
    lowered = [desugar(lower(a), g) for a in assumptions]
    base = cfg_of(g, props, noms, AssumptionSet(), max_len, Algorithm.BASELINE)
    return [t for t in generate_traces_baseline(base) if every_point_satisfies(g, t, lowered)]


class TestEnumerateStates:
    def test_counts(self):
        assert sum(1 for _ in all_states(make_grid(2, 2), ["h"], ["z0", "z1"])) == 256
        assert state_count(make_grid(2, 2), 1, 2) == 256
        assert sum(1 for _ in all_states(make_grid(3, 3), [], ["z"])) == 9
        assert sum(1 for _ in all_states(make_grid(3, 1), [], ["z0", "z1"])) == 9

    def test_order_is_documented(self):
        g = make_grid(2, 1)
        states = list(all_states(g, ["h"], ["z0", "z1"]))
        # Propositions vary outermost: the first block has h empty everywhere.
        assert states[0].props["h"] == frozenset()
        assert states[0].noms == {"z0": Position(1, 1), "z1": Position(1, 1)}
        # The last nominal varies fastest, row-major cells.
        assert states[1].noms == {"z0": Position(1, 1), "z1": Position(2, 1)}
        assert states[2].noms == {"z0": Position(2, 1), "z1": Position(1, 1)}
        # After all placements the first proposition mask advances.
        assert states[4].props["h"] == frozenset({Position(1, 1)})

    def test_distinct(self):
        states = list(all_states(make_grid(2, 2), ["h"], ["z"]))
        assert len(states) == len(set(states)) == 64


class TestBaseline:
    def test_closed_form_and_stream_agree(self):
        g = make_grid(3, 3)
        cfg = cfg_of(g, [], ["z"], AssumptionSet(), 3, Algorithm.BASELINE)
        assert baseline_trace_count(g, 0, 1, 3) == 819
        assert sum(1 for _ in generate_traces_baseline(cfg)) == 819

    def test_single_state_space(self):
        g = make_grid(1, 1)
        cfg = cfg_of(g, [], ["z"], AssumptionSet(), 3, Algorithm.BASELINE)
        traces = list(generate_traces_baseline(cfg))
        assert len(traces) == 3
        assert sorted(len(t) for t in traces) == [1, 2, 3]

    def test_shorter_traces_come_first(self):
        g = make_grid(2, 1)
        cfg = cfg_of(g, [], ["z"], AssumptionSet(), 3, Algorithm.BASELINE)
        lengths = [len(t) for t in generate_traces_baseline(cfg)]
        assert lengths == sorted(lengths)

    def test_lazy_prefix_consumption(self):
        g = make_grid(3, 3)
        cfg = cfg_of(g, ["h"], ["z0", "z1"], AssumptionSet(), 3, Algorithm.BASELINE)
        head = list(itertools.islice(generate_traces_baseline(cfg), 5))
        assert len(head) == 5  # astronomically many remain ungenerated

    def test_counters_track_consumption(self):
        g = make_grid(2, 2)
        cfg = cfg_of(g, [], ["z0", "z1"], AssumptionSet(), 2, Algorithm.BASELINE)
        result = sat_traces(cfg)  # spec Top: every trace is emitted
        list(itertools.islice(result, 5))
        assert result.traces_generated == 5
        assert result.traces_satisfying == 5


class TestOptimized:
    def test_no_assumptions_identical_to_baseline(self):
        g = make_grid(2, 1)
        base = cfg_of(g, ["h"], ["z"], AssumptionSet(), 2, Algorithm.BASELINE)
        opt = cfg_of(g, ["h"], ["z"], AssumptionSet(), 2, Algorithm.OPTIMIZED)
        assert list(generate_traces_baseline(base)) == list(generate_traces_optimized(opt))

    def test_colocation_assumption_prunes(self):
        g = make_grid(3, 3)
        aset = AssumptionSet([GlobalState("z", Nom("z1"))])
        cfg = cfg_of(g, [], ["z", "z1"], aset, 3, Algorithm.OPTIMIZED)
        assert sum(1 for _ in generate_traces_optimized(cfg)) == 819

    def test_initial_assumption_restricts_first_state_only(self):
        g = make_grid(3, 1)
        rear = parse("@z0 !(Back 1)", frozenset(), frozenset({"z0"}))
        aset = AssumptionSet([Initial(rear)])
        cfg = cfg_of(g, [], ["z0"], aset, 2, Algorithm.OPTIMIZED)
        traces = list(generate_traces_optimized(cfg))
        # 1 admissible first state, 3 arbitrary second states.
        assert len(traces) == 1 + 3
        assert all(t.states[0].noms["z0"] == Position(1, 1) for t in traces)

    def test_matches_brute_force_filter(self):
        rng = random.Random(31)
        for _ in range(20):
            g, props, noms, aset, n = random_exactness_instance(rng)
            cfg = cfg_of(g, props, noms, aset, n, Algorithm.OPTIMIZED)
            got = set(generate_traces_optimized(cfg))
            want = set(
                brute_force_filter(
                    g, props, noms, aset, n, aset.global_states + aset.initials
                )
            )
            assert got == want


class TestInitialStates:
    def test_unconstrained(self):
        g = make_grid(2, 2)
        states = list(first_states(g, AssumptionSet(), [], ["z0", "z1"]))
        assert len(states) == 16

    def test_relative_motion_pins_dependent(self):
        g = make_grid(3, 1)
        aset = AssumptionSet([RelativeMotion("z0", "z1", (F,))])
        got = set(first_states(g, aset, [], ["z0", "z1"]))
        lowered = desugar(lower(aset.relative_motions[0]), g)
        want = {
            s
            for s in all_states(g, [], ["z0", "z1"])
            if every_point_satisfies(g, Trace([s]), [lowered])
        }
        assert got == want
        assert len(got) == 2

    def test_initial_formula_filters(self):
        g = make_grid(3, 1)
        rear = parse("@z0 !(Back 1)", frozenset(), frozenset({"z0", "z1"}))
        aset = AssumptionSet([Initial(rear)])
        states = list(first_states(g, aset, [], ["z0", "z1"]))
        assert len(states) == 3
        assert all(s.noms["z0"] == Position(1, 1) for s in states)

    def test_unanchored_initial_is_checked_at_every_cell(self):
        g = make_grid(1, 2)
        aset = AssumptionSet([Initial(parse("q", frozenset({"q"}), frozenset()))])
        states = list(first_states(g, aset, ["q"], ["z"]))
        # Only the assignment making q true everywhere survives.
        assert len(states) == 2
        assert all(s.props["q"] == frozenset(g.positions()) for s in states)


class TestHelpers:
    """Per-state tables, read off the streams at max_len 1."""

    def test_dependee_cells_keep_dependents_on_grid(self):
        g = make_grid(3, 1)
        rel = AssumptionSet([RelativeMotion("z0", "z1", (F,))])
        assert {s.noms["z0"] for s in first_states(g, rel, [], ["z0", "z1"])} == {
            Position(1, 1),
            Position(2, 1),
        }
        assert {s.noms["z0"] for s in first_states(g, AssumptionSet(), [], ["z0"])} == set(
            g.positions()
        )
        both = AssumptionSet([RelativeMotion("z0", "z1", (F,)), RelativeMotion("z0", "z2", (B,))])
        assert {s.noms["z0"] for s in first_states(g, both, [], ["z0", "z1", "z2"])} == {
            Position(2, 1)
        }

    def test_first_states_keep_every_prop_mask(self):
        g = make_grid(2, 2)
        assert [s.props for s in first_states(g, AssumptionSet(), [], [])] == [{}]
        assert len({s.props["h"] for s in first_states(g, AssumptionSet(), ["h"], ["z0"])}) == 16
        nominal_only = AssumptionSet([GlobalState("z0", Not(Nom("z1")))])
        assert len({s.props["h"] for s in first_states(g, nominal_only, ["h"], ["z0", "z1"])}) == 16

    def test_prop_only_global_filters_assignments(self):
        g = make_grid(2, 2)
        hazard_somewhere = AssumptionSet([GlobalState("z0", parse("h", frozenset({"h"}), frozenset()))])
        kept = {s.props["h"] for s in first_states(g, hazard_somewhere, ["h"], ["z0"])}
        # The all-empty assignment can never satisfy "h at the viewpoint car".
        assert len(kept) == 15
        assert frozenset() not in kept

    def test_dependents_are_completed(self):
        g = make_grid(3, 1)
        rel = AssumptionSet([RelativeMotion("z0", "z1", (F,))])
        placed = {s.noms["z0"]: s.noms["z1"] for s in first_states(g, rel, [], ["z0", "z1"])}
        # A dependee on the front row would push z1 off-grid: no state.
        assert placed == {Position(1, 1): Position(2, 1), Position(2, 1): Position(3, 1)}
        bare = first_states(g, AssumptionSet(), [], ["z0"])
        assert {"z0": Position(2, 1)} in [s.noms for s in bare]

    def test_two_dependents_cross_check(self):
        g = make_grid(3, 2)
        rel = [
            RelativeMotion("z0", "z1", (F,)),
            RelativeMotion("z0", "z2", (R,)),
        ]
        lowered = [desugar(lower(a), g) for a in rel]
        expected = {
            s
            for s in all_states(g, [], ["z0", "z1", "z2"])
            if every_point_satisfies(g, Trace([s]), lowered)
        }
        built = set(first_states(g, AssumptionSet(rel), [], ["z0", "z1", "z2"]))
        assert built == expected

    def test_optimized_filter_checks_global_assumptions(self):
        g = make_grid(2, 2)
        apart = State(g, {}, {"z0": Position(1, 1), "z1": Position(2, 2)})
        together = State(g, {}, {"z0": Position(1, 1), "z1": Position(1, 1)})
        no_collide = AssumptionSet([GlobalState("z0", Not(Nom("z1")))])

        def passing(aset):
            return one_state_stream(
                generate_traces_optimized, g, [], ["z0", "z1"], aset, Algorithm.OPTIMIZED
            )

        assert apart in passing(AssumptionSet())
        assert apart in passing(no_collide)
        assert together not in passing(no_collide)


class TestMotion:
    def test_no_assumptions_matches_baseline_count(self):
        g = make_grid(2, 2)
        base = cfg_of(g, [], ["z0", "z1"], AssumptionSet(), 2, Algorithm.BASELINE)
        mot = cfg_of(g, [], ["z0", "z1"], AssumptionSet(), 2, Algorithm.MOTION)
        n_base = sum(1 for _ in generate_traces_baseline(base))
        n_mot = sum(1 for _ in generate_traces_motion(mot))
        assert n_base == n_mot == 272

    def test_static_car(self):
        g = make_grid(2, 2)
        aset = AssumptionSet([StaticCar("z")])
        cfg = cfg_of(g, [], ["z"], aset, 3, Algorithm.MOTION)
        traces = list(generate_traces_motion(cfg))
        assert len(traces) == 4 * 3  # 4 anchor cells, lengths 1..3
        for t in traces:
            assert len({s.noms["z"] for s in t.states}) == 1

    def test_static_car_streams_like_fixed_stay_move(self):
        # StaticCar(v) and FixedMotion(v, {()}) denote the same constraint:
        # equal motion streams and equal motion emissions (baseline and
        # optimized enforce neither, so theirs are equal trivially).
        rng = random.Random(1717)
        stay = frozenset({()})
        for rows, cols in ((1, 1), (1, 2), (2, 1), (2, 2), (3, 1), (3, 2)):
            g = make_grid(rows, cols)
            for props, noms in ((), ("z",)), (("h",), ("z",)), ((), ("z", "z1")), (("h",), ("z", "z1")):
                s = state_count(g, len(props), len(noms))
                n = 3 if s <= 64 else 2 if s <= 512 else 1
                static = AssumptionSet([StaticCar("z")])
                fixed = AssumptionSet([FixedMotion("z", stay)])
                stream = list(generate_traces_motion(cfg_of(g, props, noms, static, n, Algorithm.MOTION)))
                assert stream == list(generate_traces_motion(cfg_of(g, props, noms, fixed, n, Algorithm.MOTION)))
                assert len(stream) == sum(s * (s // g.position_count) ** k for k in range(n))
                spec = random_core_formula(rng, props, noms, 6)
                emitted = [
                    list(sat_traces(cfg_of(g, props, noms, aset, n, Algorithm.MOTION, spec=spec)))
                    for aset in (static, fixed)
                ]
                assert emitted[0] == emitted[1], (g, props, noms, spec)

    def test_fixed_motion_follows_move_paths(self):
        # One car that must advance one row per step on a 3x1 road.
        g = make_grid(3, 1)
        aset = AssumptionSet([FixedMotion("z", frozenset({(B,)}))])
        cfg = cfg_of(g, [], ["z"], aset, 3, Algorithm.MOTION)
        traces = list(generate_traces_motion(cfg))
        for t in traces:
            rows = [s.noms["z"].i for s in t.states]
            assert rows == list(range(rows[0], rows[0] + len(rows)))
        # 3 starts, 2 can extend once, 1 can extend twice.
        assert len(traces) == 3 + 2 + 1

    def test_enumeration_order_is_documented(self):
        # z0 advances one row per step, z1 is free: first states vary the
        # placements fastest, successor steps vary the masks fastest, and
        # every prefix comes before its extensions (depth-first).
        g = make_grid(2, 1)
        aset = AssumptionSet([FixedMotion("z0", frozenset({(B,)}))])
        cfg = cfg_of(g, ["h"], ["z0", "z1"], aset, 2, Algorithm.MOTION)
        p1, p2 = Position(1, 1), Position(2, 1)

        def rows(t):
            return [(s.props["h"], s.noms["z0"], s.noms["z1"]) for s in t.states]

        head = [rows(t) for t in itertools.islice(generate_traces_motion(cfg), 11)]
        first = (set(), p1, p1)
        assert head[0] == [first]
        assert head[1:5] == [
            [first, (set(), p2, p1)],
            [first, ({p1}, p2, p1)],
            [first, ({p2}, p2, p1)],
            [first, ({p1, p2}, p2, p1)],
        ]
        assert head[5] == [first, (set(), p2, p2)]
        assert head[9] == [(set(), p1, p2)]
        assert head[10] == [(set(), p1, p2), (set(), p2, p1)]
        firsts = [rows(t)[0] for t in generate_traces_motion(cfg) if len(t) == 1]
        assert firsts[:5] == [
            (set(), p1, p1),
            (set(), p1, p2),
            (set(), p2, p1),
            (set(), p2, p2),
            ({p1}, p1, p1),
        ]

    def test_exactness_against_brute_force(self):
        rng = random.Random(77)
        for _ in range(25):
            g, props, noms, aset, n = random_exactness_instance(rng)
            cfg = cfg_of(g, props, noms, aset, n, Algorithm.MOTION)
            got = set(generate_traces_motion(cfg))
            want = set(
                brute_force_filter(g, props, noms, aset, n, aset.pruning_assumptions())
            )
            assert got == want, (g, aset)

    def test_outputs_are_subsets_of_baseline(self):
        rng = random.Random(5150)
        for _ in range(10):
            g, props, noms, aset, n = random_exactness_instance(rng)
            base = set(
                generate_traces_baseline(
                    cfg_of(g, props, noms, AssumptionSet(), n, Algorithm.BASELINE)
                )
            )
            for algorithm, generator in (
                (Algorithm.OPTIMIZED, generate_traces_optimized),
                (Algorithm.MOTION, generate_traces_motion),
            ):
                out = list(generator(cfg_of(g, props, noms, aset, n, algorithm)))
                assert len(out) == len(set(out))  # no duplicates either
                assert set(out) <= base

    def test_invalid_assumptions_rejected_before_generation(self):
        g = make_grid(2, 2)
        aset = AssumptionSet([StaticCar("z"), FixedMotion("z", frozenset({(F,)}))])
        with pytest.raises(ValidationError):
            cfg_of(g, [], ["z"], aset, 2, Algorithm.MOTION)

    def test_undeclared_assumption_symbols_rejected_under_every_algorithm(self):
        # Baseline enforces no assumption, yet rejects what the others
        # cannot compile: make_config checks every assumption formula.
        g = make_grid(2, 1)
        for wrap in (lambda f: GlobalState("z", f), Initial, Raw):
            for atom, kind in ((Prop("k"), "propositions"), (Nom("y"), "nominals")):
                for algorithm in Algorithm:
                    with pytest.raises(ValidationError, match=f"undeclared {kind}"):
                        cfg_of(g, ["h"], ["z"], AssumptionSet([wrap(atom)]), 2, algorithm)
        # A motion assumption or a viewpoint naming an undeclared vehicle
        # fails the same symbol check.
        for a in (
            StaticCar("y"),
            FixedMotion("y", frozenset({(F,)})),
            RelativeMotion("y", "z", (F,)),
            RelativeMotion("z", "y", (F,)),
            GlobalState("y", Top()),
        ):
            for algorithm in Algorithm:
                with pytest.raises(ValidationError, match=r"undeclared nominals \['y'\]"):
                    cfg_of(g, ["h"], ["z"], AssumptionSet([a]), 2, algorithm)

    @pytest.mark.parametrize("algorithm", list(Algorithm))
    def test_name_declared_as_proposition_and_nominal_rejected(self, algorithm):
        with pytest.raises(ValidationError, match="both proposition and nominal"):
            make_config(make_grid(2, 1), ["z"], ["z"], AssumptionSet(), Top(), 1, algorithm)

    @pytest.mark.parametrize("algorithm", list(Algorithm))
    def test_reserved_name_rejected_when_no_formula_mentions_it(self, algorithm):
        # lower(StaticCar("_w")) binds the internal fresh nominal over its own
        # vehicle, which makes the assumption vacuous; the name is refused first.
        g = make_grid(2, 1)
        with pytest.raises(ValidationError, match="reserved '_' prefix"):
            make_config(g, [], ["_w"], AssumptionSet([StaticCar("_w")]), Top(), 2, algorithm)
        with pytest.raises(ValidationError, match="reserved keyword"):
            make_config(g, [], ["Front"], AssumptionSet([StaticCar("Front")]), Top(), 2, algorithm)


class TestSatTraces:
    def test_emitted_points_match_sat_points(self):
        rng = random.Random(41)
        for _ in range(15):
            g, props, noms, aset, n = random_exactness_instance(rng)
            spec = random_core_formula(rng, props, noms, 6)
            cfg = cfg_of(g, props, noms, aset, min(n, 2), Algorithm.MOTION, spec=spec)
            checked = checked_formula(cfg)
            for trace, points in sat_traces(cfg):
                assert points == sat_points(g, trace, checked)
                assert points  # only nonempty sets are emitted

    def test_unsatisfiable_spec_emits_nothing(self):
        g = make_grid(2, 2)
        cfg = cfg_of(g, [], ["z"], AssumptionSet(), 2, Algorithm.BASELINE, spec=Not(Top()))
        result = sat_traces(cfg)
        assert list(result) == []
        assert result.traces_generated == 20
        assert result.traces_satisfying == 0

    @pytest.mark.parametrize("algorithm", list(Algorithm))
    def test_trace_longer_than_the_recursion_limit(self, algorithm):
        # Every generator walks its own stack, whatever the trace length.
        cfg = cfg_of(make_grid(1, 1), [], ["z"], AssumptionSet([StaticCar("z")]), 1100, algorithm)
        assert sum(1 for _ in sat_traces(cfg)) == 1100

    def test_baseline_run_lists_no_proposition_assignments(self):
        # Only motion lists the per-step proposition assignments; baseline
        # streams them.  On a 5x4 grid there are 2^20 per proposition.
        g = make_grid(5, 4)
        for props in (["h"], ["h", "k"]):
            cfg = cfg_of(g, props, ["z"], AssumptionSet(), 2, Algorithm.BASELINE)
            calls = itertools.count()
            tracemalloc.start()
            try:
                result = sat_traces(cfg, stop=lambda: next(calls) >= 1000)
                assert list(result) == []
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert result.interrupted
            assert peak < 4 * 2**20, props

    def test_algorithm_agreement_on_random_instances(self):
        rng = random.Random(4242)
        for _ in range(12):
            g, props, noms, aset, n = random_exactness_instance(rng)
            spec = random_core_formula(rng, props, noms, 5)
            emissions = {}
            for algorithm in Algorithm:
                cfg = cfg_of(g, props, noms, aset, min(n, 2), algorithm, spec=spec)
                emissions[algorithm] = Counter(
                    (trace, points) for trace, points in sat_traces(cfg)
                )
            assert emissions[Algorithm.BASELINE] == emissions[Algorithm.OPTIMIZED]
            assert emissions[Algorithm.BASELINE] == emissions[Algorithm.MOTION]


GENERATORS = {
    Algorithm.BASELINE: generate_traces_baseline,
    Algorithm.OPTIMIZED: generate_traces_optimized,
    Algorithm.MOTION: generate_traces_motion,
}


def oracle_emissions(cfg):
    """The configured generator's stream filtered by ``evaluate_naive`` at
    every cell: what ``sat_traces`` must emit, in order."""
    out, checked = [], checked_formula(cfg)
    for trace in GENERATORS[cfg.algorithm](cfg):
        points = frozenset(p for p in cfg.grid.positions() if evaluate_naive(cfg.grid, trace, p, checked))
        if points:
            out.append((trace, points))
    return out


class TestProgression:
    """``sat_traces`` progresses the specification along the stream; the
    naive oracle, run on every trace from scratch, must agree."""

    CAPTURE_SHAPES = ("↓v @z0 v", "F @z0 ↓v F @z1 v")

    def test_emissions_match_the_oracle_on_random_models(self):
        rng = random.Random(0x9E0)
        for i in range(60):
            g, props, noms, aset, n = random_exactness_instance(rng)
            if i % 2:
                spec = random_core_formula(rng, props, noms, rng.randint(4, 10))
            else:
                spec = random_hybrid_nesting(rng, props, noms, rng.randint(2, 5))
            for algorithm in Algorithm:
                cfg = cfg_of(g, props, noms, aset, min(n, 2), algorithm, spec=spec)
                result = sat_traces(cfg)
                assert list(result) == oracle_emissions(cfg), (g, aset, spec, algorithm)
                assert result.traces_generated == sum(1 for _ in GENERATORS[algorithm](cfg))
                assert not result.interrupted

    @pytest.mark.parametrize("text", CAPTURE_SHAPES)
    def test_capture_shapes_on_every_algorithm(self, text):
        g = make_grid(2, 1)
        spec = parse(text, frozenset(), frozenset({"z0", "z1"}))
        aset = AssumptionSet([StaticCar("z1")])
        for algorithm in Algorithm:
            cfg = cfg_of(g, [], ["z0", "z1"], aset, 3, algorithm, spec=spec)
            emitted = list(sat_traces(cfg))
            assert emitted and emitted == oracle_emissions(cfg)

    def test_baseline_products_rewind_the_prefix_stack(self):
        # Length-3 products change their middle and then their first state
        # between consecutive traces, so the stack pops back one and two
        # positions as well as one.
        g = make_grid(2, 1)
        spec = parse(self.CAPTURE_SHAPES[1], frozenset(), frozenset({"z0", "z1"}))
        cfg = cfg_of(g, [], ["z0", "z1"], AssumptionSet(), 3, Algorithm.BASELINE, spec=spec)
        stream = list(generate_traces_baseline(cfg))
        first_change = {
            next(i for i in range(3) if a.states[i] != b.states[i])
            for a, b in zip(stream, stream[1:])
            if len(a) == len(b) == 3
        }
        assert first_change == {0, 1, 2}
        assert list(sat_traces(cfg)) == oracle_emissions(cfg)

    def test_stop_mid_stream_leaves_partial_counters(self):
        g = make_grid(2, 1)
        spec = parse(self.CAPTURE_SHAPES[1], frozenset(), frozenset({"z0", "z1"}))
        for algorithm in Algorithm:
            cfg = cfg_of(g, [], ["z0", "z1"], AssumptionSet(), 3, algorithm, spec=spec)
            full = oracle_emissions(cfg)
            total = sum(1 for _ in GENERATORS[algorithm](cfg))
            calls = itertools.count()
            result = sat_traces(cfg, stop=lambda: next(calls) >= 40)
            emitted = list(result)
            assert result.interrupted
            assert 0 < result.traces_generated < total
            assert 0 < result.traces_satisfying == len(emitted) < len(full)
            assert emitted == full[: len(emitted)]


def reference_decode(cfg, enc_trace) -> Trace:
    """The trace of ``enc_trace``, each state built and checked from its
    encoding alone."""
    g = cfg.grid

    def cells_of(mask):
        return [g.position_at(i) for i in range(g.position_count) if mask >> i & 1]

    return Trace(
        [
            State(g, dict(zip(cfg.props, map(cells_of, masks))), {v: g.position_at(c) for v, c in zip(cfg.noms, cells)})
            for masks, cells in enc_trace
        ]
    )


GATED = tuple(factory(*args) for factory, args, _ in GATED_SCENARIOS)


class TestSharedPrefix:
    """The walk yields each trace with the number of leading states it
    shares with the previous yield; progression and decoding start there."""

    @staticmethod
    def check_walk(cfg, limit=20_000):
        previous = ()
        for trace, shared in itertools.islice(_iter_encoded(_Context(cfg)), limit):
            common = next(
                (i for i, (a, b) in enumerate(zip(previous, trace)) if a != b), min(len(previous), len(trace))
            )
            assert trace[:shared] == previous[:shared]
            if cfg.algorithm is Algorithm.MOTION:
                assert shared == len(trace) - 1 == common
            elif len(trace) != len(previous):  # the first yield of a length pass
                assert shared == 0
            else:
                assert shared == common
            previous = trace

    @pytest.mark.parametrize("scenario", GATED, ids=lambda s: s.name)
    def test_gated_scenarios(self, scenario):
        # Baseline and optimized stop at length 2, so the walk crosses a
        # pass within the limit.
        for algorithm in Algorithm:
            n = scenario.max_trace_length if algorithm is Algorithm.MOTION else min(scenario.max_trace_length, 2)
            self.check_walk(build_config(scenario, algorithm, n))

    def test_random_models(self):
        rng = random.Random(0x5A7)
        for _ in range(12):
            g, props, noms, aset, n = random_exactness_instance(rng)
            for algorithm in Algorithm:
                self.check_walk(cfg_of(g, props, noms, aset, n, algorithm))

    def test_decoded_traces_match_a_fresh_decoding(self):
        # A satisfying trace is decoded from the prefix it shares with the
        # last one emitted, which unsatisfying traces in between may cut.
        rng = random.Random(0x5A8)
        for _ in range(12):
            g, props, noms, aset, n = random_exactness_instance(rng)
            spec = random_core_formula(rng, props, noms, rng.randint(3, 8))
            for algorithm in Algorithm:
                cfg = cfg_of(g, props, noms, aset, min(n, 2), algorithm, spec=spec)
                fresh = [reference_decode(cfg, enc) for enc, _ in _iter_encoded(_Context(cfg))]
                assert list(GENERATORS[algorithm](cfg)) == fresh
                checked = checked_formula(cfg)
                expected = [(t, points) for t in fresh if (points := sat_points(g, t, checked))]
                assert list(sat_traces(cfg)) == expected, (g, aset, spec, algorithm)

    @pytest.mark.parametrize("scenario", GATED, ids=lambda s: s.name)
    def test_gated_emissions_match_a_fresh_decoding(self, scenario):
        cfg = build_config(scenario, Algorithm.MOTION)
        checked = checked_formula(cfg)
        fresh = (reference_decode(cfg, enc) for enc, _ in _iter_encoded(_Context(cfg)))
        expected = [(t, points) for t in fresh if (points := sat_points(cfg.grid, t, checked))]
        assert list(sat_traces(cfg)) == expected


class TestDecodedTraces:
    """The decoder builds traces without re-checking their states; they
    must behave exactly like checked ones."""

    @staticmethod
    def decoded(algorithm=Algorithm.MOTION):
        g = make_grid(2, 1)
        cfg = cfg_of(g, ["h"], ["z0", "z1"], AssumptionSet([StaticCar("z1")]), 3, algorithm)
        return list(GENERATORS[algorithm](cfg))

    def test_equal_to_checked_traces(self):
        for algorithm in Algorithm:
            for t in self.decoded(algorithm):
                checked = Trace(list(t.states))
                assert t == checked and hash(t) == hash(checked) == hash(t.states)
                assert repr(t) == repr(checked)
                assert t.grid == checked.grid and t.prop_names == ("h",) and t.nominal_names == ("z0", "z1")

    def test_hash_survives_pickle_and_deepcopy(self):
        for t in self.decoded()[::7]:
            for clone in (lambda x: pickle.loads(pickle.dumps(x)), copy.deepcopy):
                before = clone(t)  # copied before the hash is computed
                assert before == t and hash(before) == hash(t)
                after = clone(t)  # copied once it is kept
                assert after == t and hash(after) == hash(t)

    def test_sets_mix_checked_and_decoded_traces(self):
        decoded = self.decoded()
        checked = [Trace(list(t.states)) for t in decoded]
        assert len(set(decoded)) == len(decoded)
        assert set(decoded) == set(checked) == set(decoded[::2] + checked[1::2])
        assert all(c in set(decoded) for c in checked)
        assert Counter(decoded + checked) == Counter({t: 2 for t in decoded})


class TestCheckedFormula:
    """``make_config`` + ``sat_traces`` count the same under every algorithm:
    the checker conjoins the assumptions its generator does not enforce."""

    @pytest.mark.parametrize("algorithm", list(Algorithm))
    def test_assumptions_are_checked_without_a_conjoined_spec(self, algorithm):
        # Two cells, length 2, a Top spec: 6 traces before any assumption.
        g = make_grid(2, 1)
        raw = Raw(parse("@z !(Back 1)", set(), {"z"}))
        for assumption, want in ((StaticCar("z"), 4), (raw, 3)):
            cfg = cfg_of(g, [], ["z"], AssumptionSet([assumption]), 2, algorithm)
            assert sum(1 for _ in sat_traces(cfg)) == want, assumption

    @pytest.mark.parametrize("algorithm", list(Algorithm))
    def test_unanchored_initial_holds_at_every_cell(self, algorithm):
        # No first state has z0 at both cells, so nothing satisfies.
        cfg = cfg_of(make_grid(2, 1), [], ["z0"], AssumptionSet([Initial(Nom("z0"))]), 2, algorithm)
        result = sat_traces(cfg)
        assert list(result) == []
        assert result.traces_generated == (6 if algorithm is Algorithm.BASELINE else 0)

    def test_anchored_initials_and_constants_are_conjoined_as_they_are(self):
        g = make_grid(2, 1)
        for body in (parse("@z0 !(Back 1)", set(), {"z0"}), Top(), Not(Top())):
            cfg = cfg_of(g, [], ["z0"], AssumptionSet([Initial(body)]), 2, Algorithm.BASELINE)
            assert checked_formula(cfg) == desugar(And(body, TOP), g)

    def test_algorithms_agree_with_unanchored_initials(self):
        # An implication between two random bodies holds at every cell
        # often enough for the counts to be nonzero.
        rng = random.Random(1515)
        reads_start = reads_start_and_satisfied = 0
        for _ in range(60):
            g, props, noms, aset, n = random_exactness_instance(rng)
            initial = Or(
                Not(random_state_local_formula(rng, props, noms, budget=2)),
                random_state_local_formula(rng, props, noms, budget=3),
            )
            aset = AssumptionSet(aset.assumptions + (Initial(initial),))
            spec = random_core_formula(rng, props, noms, 5)
            emissions = [
                Counter(sat_traces(cfg_of(g, props, noms, aset, min(n, 2), algorithm, spec=spec)))
                for algorithm in Algorithm
            ]
            assert emissions[0] == emissions[1] == emissions[2], (g, aset, spec)
            if compile_formula(desugar(initial, g), g, tuple(props), tuple(noms)).tables()[0][0]:
                reads_start += 1
                reads_start_and_satisfied += bool(emissions[0])
        assert reads_start >= 30 and reads_start_and_satisfied >= 8, (reads_start, reads_start_and_satisfied)


class TestUnenforcedAssumptions:
    def test_rule_per_algorithm(self):
        nested = GlobalState("z0", Globally(parse("h", {"h"}, set())))
        local = GlobalState("z0", parse("h", {"h"}, set()))
        init, static = Initial(parse("@z0 h", {"h"}, {"z0"})), StaticCar("z1")
        fixed, relative = FixedMotion("z2", frozenset({()})), RelativeMotion("z3", "z4", (F,))
        aset = AssumptionSet([relative, fixed, static, nested, local, init, Raw(Top())])
        assert unenforced_assumptions(aset, Algorithm.BASELINE) == (
            init, nested, local, static, fixed, relative
        )
        assert unenforced_assumptions(aset, Algorithm.OPTIMIZED) == (nested, static, fixed, relative)
        assert unenforced_assumptions(aset, Algorithm.MOTION) == (nested,)

    def test_residual_spec_emits_what_the_full_conjunction_emits(self):
        # Each dropped conjunct holds at every cell of every generated
        # trace, so both specs emit the same ordered (trace, points) list.
        rng = random.Random(2718)
        nested = 0
        for _ in range(100):
            g, props, noms, aset, n = random_exactness_instance(rng)
            extra = [Raw(random_core_formula(rng, props, noms, 4))]
            if rng.random() < 0.4:
                body = Globally(random_state_local_formula(rng, props, noms, budget=3))
                side = random_state_local_formula(rng, props, noms, budget=2)
                extra.append(GlobalState(rng.choice(noms), rng.choice([body, Not(body), And(side, body)])))
                nested += 1
            aset = AssumptionSet(aset.assumptions + tuple(extra))
            tail = [a.formula for a in aset.raws] + [random_core_formula(rng, props, noms, 5)]

            def emitted(assumptions, algorithm):
                spec = desugar(conjoin([lower(a) for a in assumptions] + tail), g)
                cfg = cfg_of(g, props, noms, aset, n, algorithm, spec=spec)
                return list(sat_traces(cfg))

            for algorithm in (Algorithm.OPTIMIZED, Algorithm.MOTION):
                full = emitted(aset.pruning_assumptions(), algorithm)
                residual = emitted(unenforced_assumptions(aset, algorithm), algorithm)
                assert residual == full, (g, aset, algorithm)
        assert nested >= 25


def count_filter_calls(monkeypatch) -> Counter:
    """Count ``CompiledFormula.holds_everywhere`` calls under ``calls["n"]``."""
    calls = Counter()
    original = CompiledFormula.holds_everywhere

    def counted(self, states):
        calls["n"] += 1
        return original(self, states)

    monkeypatch.setattr(CompiledFormula, "holds_everywhere", counted)
    return calls


class TestStateFilter:
    """The per-state filter decides each check once per distinct value of
    the proposition and nominal slots the check reads."""

    def test_streams_match_brute_force_with_binders_and_jumps(self):
        rng = random.Random(1618)
        kept = 0
        for _ in range(60):
            g, props, noms, aset, _ = random_exactness_instance(rng)
            if g.position_count <= 4 and rng.random() < 0.5:
                props = ["q"]  # so that the extra formulas read a proposition more often
            extra = []
            for _ in range(rng.randint(1, 2)):
                z, w, d = rng.choice(noms), rng.choice(noms), rng.choice(DIRECTIONS)
                others = [v for v in noms if v != w]
                body = random_state_local_formula(rng, props, others, budget=3)
                shape = rng.choice(
                    [
                        Bind(w, Or(At(z, Spatial(d, Nom(w))), body)),  # re-binds a declared nominal
                        Or(At(w, Spatial(d, Top())), body),  # the only read of w is a jump
                        Bind("y", At(z, Or(Nom("y"), Spatial(d, Nom("y"))))),  # binder-only nominal
                    ]
                )
                extra.append(GlobalState(rng.choice(noms), shape))
            aset = AssumptionSet(aset.assumptions + tuple(extra))
            n = max(k for k in (1, 2) if baseline_trace_count(g, len(props), len(noms), k) <= 2_000)
            for algorithm, generator, checked in (
                (Algorithm.OPTIMIZED, generate_traces_optimized, aset.global_states + aset.initials),
                (Algorithm.MOTION, generate_traces_motion, aset.pruning_assumptions()),
            ):
                got = list(generator(cfg_of(g, props, noms, aset, n, algorithm)))
                want = set(brute_force_filter(g, props, noms, aset, n, checked))
                assert len(got) == len(set(got)), (g, aset, algorithm)
                assert set(got) == want, (g, aset, algorithm)
                kept += bool(want)
        assert kept >= 50, kept

    def test_nominal_read_only_under_its_binder_is_not_a_slot(self, monkeypatch):
        # `@z0 ↓z1 (z1 & Front 1)`: z1 is written before it is read, so the
        # verdict depends on z0's cell alone.
        g = make_grid(3, 2)
        a = GlobalState("z0", parse("↓z1 (z1 & Front 1)", set(), {"z0", "z1"}))
        assert compile_formula(desugar(lower(a), g), g, (), ("z0", "z1")).nom_slots == (0,)
        calls = count_filter_calls(monkeypatch)
        assert len(first_states(g, AssumptionSet([a]), [], ["z0", "z1"])) == 4 * 6
        assert calls["n"] == 6  # one per cell of z0; 36 if z1 were a slot

    def test_scenario_filters_run_once_per_slot_value(self, monkeypatch):
        # One call per candidate state would make 117,700 and 88,576.
        calls = count_filter_calls(monkeypatch)
        for scenario, traces, most in ((platoon(3), 34_650, 30), (passing(4), 88_544, 8)):
            calls.clear()
            cfg = cfg_of(
                scenario.grid,
                scenario.propositions,
                scenario.nominals,
                compile_assumption_set(scenario),
                scenario.max_trace_length,
                Algorithm.MOTION,
            )
            assert sum(1 for _ in generate_traces_motion(cfg)) == traces
            assert calls["n"] <= most, scenario.name

