"""Timed runs, table emission, trace rendering, the law-suite surface."""

import importlib.util
from pathlib import Path

import pytest
from conftest import safe_follow_model
from hstl.checkers import Algorithm, checked_formula, conjoin, unenforced_assumptions
from hstl.core import Position, State, Trace, make_grid
from hstl.errors import ValidationError
from hstl.formula import desugar, index_nodes, is_core
from hstl.harness import RunReport, build_config, emit_table, render_trace, run, validity_suite
from hstl.idioms import lower
from hstl.scenarios import (
    Scenario,
    ScenarioAssumption,
    bench_suite,
    builtin_scenarios,
    compile_assumption_set,
    left_right,
    one_lane_follow,
    parse_specification,
    platoon,
    same_name,
)


class TestRun:
    def test_left_right_all_algorithms(self):
        for algorithm in Algorithm:
            report = run(left_right(), algorithm, timeout=60)
            assert report.sat_count == 819
            assert report.trace_count == 819
            assert not report.timed_out

    def test_same_name_optimized(self):
        report = run(same_name(), Algorithm.OPTIMIZED, timeout=60)
        assert (report.trace_count, report.sat_count) == (819, 819)

    def test_zero_timeout_reports_partial(self):
        report = run(one_lane_follow(3), Algorithm.BASELINE, timeout=0.0)
        assert report.timed_out
        assert report.trace_count == 0
        assert report.sat_count == 0

    def test_mid_run_timeout_keeps_progress(self):
        report = run(platoon(2), Algorithm.BASELINE, timeout=0.5)
        assert report.timed_out
        assert 0 < report.trace_count

    def test_max_len_override(self):
        report = run(one_lane_follow(3), Algorithm.BASELINE, timeout=60, max_len=1)
        assert report.trace_count == 9
        assert report.max_len == 1

    def test_nested_globally_stays_in_the_checked_formula(self):
        # One state cannot decide `G h`, so no generator filters by it and
        # only the checked formula rejects the traces where h fails later.
        nested = ScenarioAssumption("global", nominal="z", formula="G h")
        scenario = Scenario("nested_g", make_grid(2, 1), ("h",), ("z",), (nested,), ("1",), 2)
        for algorithm in Algorithm:
            assert run(scenario, algorithm, timeout=60).sat_count == 16, algorithm

    def test_negated_globally_counts_alike(self):
        # Read over one state, `!G h` would reject every state with h and
        # lose the trace (h, no h), which satisfies it.
        negated = ScenarioAssumption("global", nominal="z", formula="!G h")
        scenario = Scenario("negated_g", make_grid(1, 1), ("h",), ("z",), (negated,), ("1",), 2)
        for algorithm in Algorithm:
            assert run(scenario, algorithm, timeout=60).sat_count == 3, algorithm


def _reports_for_table():
    return [
        RunReport("intersection(2)", "baseline", 6, 272, 0.0216, False, (2, 2), 2, 2),
        RunReport("intersection(2)", "optimized", 6, 156, 0.0066, False, (2, 2), 2, 2),
        RunReport("intersection(2)", "motion", 6, 48, 0.0042, False, (2, 2), 2, 2),
        RunReport("platoon(2)", "baseline", 0, 166645, 600.0, True, (5, 2), 3, 3),
        RunReport("platoon(2)", "motion", 260, 10850, 1.75, False, (5, 2), 3, 3),
    ]


class TestEmitTable:
    def test_count_columns(self):
        text, csv_text = emit_table(_reports_for_table())
        row = next(line for line in text.splitlines() if line.startswith("intersection(2)"))
        cells = row.split()
        assert cells[4:8] == ["6", "272", "156", "48"]

    def test_timeouts_render_as_dash(self):
        import csv
        import io

        text, csv_text = emit_table(_reports_for_table())
        rows = list(csv.reader(io.StringIO(csv_text)))
        platoon_row = next(r for r in rows if r[0] == "platoon(2)")
        assert platoon_row[5] == "-" and platoon_row[8] == "-"  # baseline count, time
        assert platoon_row[6] == "" and platoon_row[7] == "10850"  # optimized absent
        assert platoon_row[4] == "260"  # #Sat from the completed run

    def test_empty_reports_give_header_only(self):
        text, csv_text = emit_table([])
        assert csv_text.splitlines() == [
            "Test,Noms,Grid,Len,#Sat,#Trace1,#Trace2,#Trace3,Time1,Time2,Time3"
        ]
        assert len(text.splitlines()) == 2  # header + rule

    def test_csv_deterministic_except_times(self):
        reports = _reports_for_table()
        _, first = emit_table(reports)
        _, second = emit_table(reports)
        assert first == second
        jittered = [
            RunReport(
                r.scenario,
                r.algorithm,
                r.sat_count,
                r.trace_count,
                r.wall_time + 0.5,
                r.timed_out,
                r.grid,
                r.nominal_count,
                r.max_len,
            )
            for r in reports
        ]
        _, third = emit_table(jittered)
        for left, right in zip(first.splitlines(), third.splitlines()):
            assert left.split(",")[:8] == right.split(",")[:8]


class TestRenderTrace:
    def test_single_state_golden(self):
        g = make_grid(2, 2)
        t = Trace([State(g, {}, {"z0": Position(1, 1)})])
        assert render_trace(g, t) == "t=0\n.   .\nz0  .\n"

    def test_colliding_nominals_share_a_cell(self):
        g = make_grid(2, 2)
        t = Trace([State(g, {}, {"z0": Position(1, 2), "z1": Position(1, 2)})])
        assert render_trace(g, t) == "t=0\n.      .\n.      z0,z1\n"

    def test_propositions_rendered(self):
        g = make_grid(1, 2)
        t = Trace([State(g, {"h": [Position(1, 1)]}, {"z": Position(1, 1)})])
        assert render_trace(g, t) == "t=0\nz,h  .\n"

    def test_follow_model_renders_three_frames(self):
        g, trace, _ = safe_follow_model()
        out = render_trace(g, trace)
        frames = out.strip().split("\n\n")
        assert len(frames) == 3
        assert frames[0].splitlines()[0] == "t=0"
        # Row 1 is printed last; the subject starts there, mid lane.
        assert frames[0].splitlines()[-1].split() == [".", "SV", "."]
        assert frames[1].splitlines()[-2].split() == [".", "SV", "."]

    def test_grid_mismatch_is_a_validation_error(self):
        t = Trace([State(make_grid(2, 1), {}, {"z0": Position(1, 1)})])
        with pytest.raises(ValidationError, match="different grid"):
            render_trace(make_grid(3, 3), t)


class TestBuildConfig:
    def test_conjunction_is_core_and_validated(self):
        for scenario in (left_right(), same_name(), platoon(2)):
            cfg = build_config(scenario, Algorithm.MOTION)
            assert is_core(cfg.spec)
            assert cfg.max_len == scenario.max_trace_length

    def test_checked_spec_leaves_out_enforced_conjuncts(self):
        # Baseline checks the full conjunction; optimized drops the initial
        # and state-local global conjuncts, motion also the motion ones.
        sizes = {a: len(index_nodes(checked_formula(build_config(platoon(2), a)))) for a in Algorithm}
        assert sizes == {Algorithm.BASELINE: 108, Algorithm.OPTIMIZED: 90, Algorithm.MOTION: 58}

    def test_checked_formula_is_the_scenario_conjunction(self):
        # The unenforced assumptions, the raw formulas, then the
        # specification formulas, left-nested in that order and desugared.
        for scenario in builtin_scenarios() + list(bench_suite().values()):
            aset = compile_assumption_set(scenario)
            for algorithm in Algorithm:
                parts = [lower(a) for a in unenforced_assumptions(aset, algorithm)]
                parts += [a.formula for a in aset.raws] + list(parse_specification(scenario))
                want = desugar(conjoin(parts), scenario.grid)
                assert checked_formula(build_config(scenario, algorithm)) == want, (scenario.name, algorithm)


class TestValiditySurface:
    def test_small_bounds(self):
        # Two rows so Front neighbors exist: the spatial schemes need one.
        report = validity_suite(2, 1, 2)
        assert all(v.holds for v in report.validities)
        assert all(s.countermodel is not None for s in report.non_validities)
        assert report.all_pass
        assert "pass" in report.summary()

    def test_minimal_bounds_vacuous_loops(self):
        report = validity_suite(1, 1, 1)
        assert all(v.holds for v in report.validities)
        # The spatial refutations need a second cell, so no countermodel yet.
        spatial = [s for s in report.non_validities if "spatial" in s.name]
        assert all(s.countermodel is None for s in spatial)


class TestBenchmarkProbes:
    def test_every_probe_resolves(self, monkeypatch):
        # The benchmark measures each layer by wrapping named functions; a
        # rename that drops one would silently unmeasure its metric.
        bench = Path(__file__).resolve().parent.parent / "perfbench"
        monkeypatch.syspath_prepend(str(bench))
        spec = importlib.util.spec_from_file_location("perfbench_run", bench / "run.py")
        run_module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(run_module)
        import tracer

        probes = tracer.Tracer(run_module._probes(), run_module.FRAMES)
        probes.install()
        try:
            assert probes.unmeasured == []
        finally:
            probes.uninstall()
