"""End-to-end runs of every subcommand."""

import hashlib
import json
import sys
from pathlib import Path

import pytest

from hstl.checkers import make_config
from hstl.cli import main
from hstl.core import Position, State, Trace, make_grid, trace_to_json_dict
from hstl.formula import parse
from hstl.scenarios import Scenario, ScenarioAssumption, intersection, save_scenario, scenario_to_json_dict


@pytest.fixture
def trace_file(tmp_path):
    g = make_grid(2, 2)
    t = Trace(
        [
            State(g, {"h": [Position(2, 1)]}, {"z0": Position(1, 1), "z1": Position(2, 2)}),
            State(g, {"h": [Position(2, 1)]}, {"z0": Position(2, 1), "z1": Position(2, 2)}),
        ]
    )
    path = tmp_path / "trace.json"
    path.write_text(json.dumps(trace_to_json_dict(t)), encoding="utf-8")
    return path


@pytest.fixture
def scenario_file(tmp_path):
    path = tmp_path / "intersection.json"
    save_scenario(intersection(2), path)
    return path


class TestEval:
    def test_true_exits_zero(self, trace_file, capsys):
        code = main(
            ["eval", "--grid", "2x2", "--formula", "F @z0 h", "--trace", str(trace_file), "--point", "1,1"]
        )
        assert code == 0
        assert capsys.readouterr().out.strip() == "true"

    def test_false_exits_one(self, trace_file, capsys):
        code = main(
            ["eval", "--grid", "2x2", "--formula", "h", "--trace", str(trace_file), "--point", "1,1"]
        )
        assert code == 1
        assert capsys.readouterr().out.strip() == "false"

    def test_error_exits_two(self, trace_file, capsys):
        code = main(
            ["eval", "--grid", "2x2", "--formula", "nope", "--trace", str(trace_file), "--point", "1,1"]
        )
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_recursion_overflow_is_an_error(self, trace_file, capsys):
        # The formula's depth, not the trace's length, bounds the recursion.
        code = main(
            ["eval", "--grid", "2x2", "--formula", "X " * 5000 + "1", "--trace", str(trace_file), "--point", "1,1"]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    def test_until_over_a_long_trace(self, tmp_path, capsys):
        # Until scans forward over time, so a trace longer than the
        # recursion limit is evaluated, not overflowed.
        g = make_grid(2, 1)
        t = Trace([State(g, {}, {"z": Position(1, 1)})] * 1000)
        path = tmp_path / "long.json"
        path.write_text(json.dumps(trace_to_json_dict(t)), encoding="utf-8")
        for point, code, verdict in (("1,1", 0, "true"), ("2,1", 1, "false")):
            args = ["eval", "--grid", "2x1", "--formula", "G (z | Front z)", "--trace", str(path), "--point", point]
            assert main(args) == code
            assert capsys.readouterr().out == verdict + "\n"

    def test_grid_mismatch_is_an_error(self, trace_file):
        code = main(
            ["eval", "--grid", "3x3", "--formula", "1", "--trace", str(trace_file), "--point", "1,1"]
        )
        assert code == 2


class TestCheck:
    def test_table_output(self, scenario_file, capsys):
        code = main(["check", "--scenario", str(scenario_file), "--algorithm", "motion"])
        assert code == 0
        out = capsys.readouterr().out
        assert "intersection(2)" in out
        assert "48" in out and "6" in out

    def test_csv_to_file(self, scenario_file, tmp_path):
        out = tmp_path / "result.csv"
        code = main(
            [
                "check",
                "--scenario",
                str(scenario_file),
                "--algorithm",
                "baseline",
                "--emit",
                "csv",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        header, row = out.read_text(encoding="utf-8").splitlines()
        assert header.startswith("Test,Noms,Grid,Len,#Sat")
        assert row.split(",")[0] == "intersection(2)"

    @pytest.mark.parametrize("algorithm", ["baseline", "optimized", "motion"])
    def test_reserved_name_that_no_formula_mentions(self, algorithm, tmp_path, capsys):
        doc = {
            "name": "static_only",
            "grid": {"rows": 2, "cols": 1},
            "propositions": [],
            "nominals": ["_w"],
            "assumptions": [{"kind": "static", "nominal": "_w"}],
            "specification": [],
            "max_trace_length": 2,
        }
        path = tmp_path / "static_only.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["check", "--scenario", str(path), "--algorithm", algorithm]) == 2
        assert "reserved" in capsys.readouterr().err

    def test_trace_longer_than_the_recursion_limit(self, tmp_path, capsys):
        # The motion walk keeps its own stack, so the length is not bounded
        # by the interpreter's recursion limit.
        path = tmp_path / "long.json"
        scenario = Scenario(
            name="long",
            grid=make_grid(1, 1),
            propositions=(),
            nominals=("z",),
            assumptions=(ScenarioAssumption(kind="static", nominal="z"),),
            specification=("1",),
            max_trace_length=1100,
        )
        save_scenario(scenario, path)
        code = main(["check", "--scenario", str(path), "--algorithm", "motion", "--emit", "csv"])
        assert code == 0
        header, row = capsys.readouterr().out.splitlines()
        assert dict(zip(header.split(","), row.split(",")))["#Sat"] == "1100"

    def test_traces_emission(self, scenario_file, capsys):
        code = main(
            ["check", "--scenario", str(scenario_file), "--algorithm", "motion", "--emit", "traces"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert out.count("satisfied at:") == 6
        assert "complete: 6 satisfying of 48 generated" in out

    def test_max_len_override(self, scenario_file, capsys):
        code = main(
            ["check", "--scenario", str(scenario_file), "--algorithm", "motion", "--max-len", "1"]
        )
        assert code == 0
        assert "16" in capsys.readouterr().out  # one-step candidates only

    def test_max_len_override_does_not_excuse_the_files_own_bound(self, tmp_path, capsys):
        path = tmp_path / "zero.json"
        path.write_text(json.dumps(_scenario_doc(lambda d: d.update(max_trace_length=0))), encoding="utf-8")
        code = main(["check", "--scenario", str(path), "--algorithm", "motion", "--max-len", "1"])
        assert code == 2
        assert capsys.readouterr().err == "error: scenario 'intersection(2)': max trace length must be >= 1, got 0\n"

    @pytest.mark.parametrize("emit", ["table", "traces"])
    def test_each_formula_is_parsed_once_and_configured_once(self, emit, scenario_file, monkeypatch, capsys):
        parses = _count_calls(monkeypatch, parse)
        configs = _count_calls(monkeypatch, make_config)
        assert main(["check", "--scenario", str(scenario_file), "--algorithm", "motion", "--emit", emit]) == 0
        scenario = intersection(2)
        formulas = [a.formula for a in scenario.assumptions if a.formula is not None] + list(scenario.specification)
        assert (len(parses), len(configs)) == (len(formulas), 1)

    @pytest.mark.parametrize("algorithm", ["baseline", "optimized", "motion"])
    @pytest.mark.parametrize("name", ["hazard_2", "intersection_2", "one_lane_follow_3", "passing_2"])
    def test_emitted_traces_are_pinned(self, name, algorithm, capsys):
        # These specifications use binders and bounded spatial operators; the
        # golden files pin every emitted trace and satisfying cell.
        root = Path(__file__).parent
        scenario = root.parent / "scenarios" / f"{name}.json"
        golden = root / "golden" / f"check_{name}_{algorithm}.txt"
        code = main(["check", "--scenario", str(scenario), "--algorithm", algorithm, "--emit", "traces"])
        assert code == 0
        assert capsys.readouterr().out == golden.read_text(encoding="utf-8")

    @pytest.mark.parametrize(
        "name, algorithm, digest",
        [
            ("left_right", "baseline", "6f55a4b383c10cfee8402582e40608e3fcef65fd83ad1ad02042647bdc5d0895"),
            ("left_right", "optimized", "6f55a4b383c10cfee8402582e40608e3fcef65fd83ad1ad02042647bdc5d0895"),
            ("left_right", "motion", "9a24da9c07e6664da8d9b4fbdfebabb4f8777d72e9fdaea4f21e619039454013"),
            ("same_name", "optimized", "d6f0cb670bd44d8b598a976986ed3253001618a8d5149a7c989933d54633115e"),
            ("same_name", "motion", "b6d8907a92abd422d17ab8a750ee9aa36c1ed04b77b8c28c134ff5b96f9b8974"),
            ("platoon_2", "motion", "07abb15c9d04a4dc97bd456e90f459dd17d330622463a440493b8853761198d8"),
        ],
    )
    def test_emitted_trace_digests_are_pinned(self, name, algorithm, digest, capsys):
        # The remaining scenario files' outputs are too large to keep as
        # golden files; their sha256 digests pin them byte for byte.
        scenario = Path(__file__).parent.parent / "scenarios" / f"{name}.json"
        code = main(["check", "--scenario", str(scenario), "--algorithm", algorithm, "--emit", "traces"])
        assert code == 0
        assert hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest() == digest


class TestRender:
    def test_renders_frames(self, trace_file, capsys):
        assert main(["render", "--trace", str(trace_file)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("t=0")
        assert "t=1" in out
        assert "z1" in out and "h" in out


def _count_calls(monkeypatch, fn) -> list:
    """Route every ``hstl`` module's binding of ``fn`` through a counter;
    the returned list grows by one per call."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.partition(".")[0] == "hstl" and getattr(module, fn.__name__, None) is fn:
            monkeypatch.setattr(module, fn.__name__, counted)
    return calls


def _trace_doc(edit):
    g = make_grid(2, 1)
    doc = trace_to_json_dict(Trace([State(g, {"h": [Position(2, 1)]}, {"z": Position(1, 1)})]))
    return edit(doc) or doc  # an edit may return a replacement document


def _scenario_doc(edit):
    doc = scenario_to_json_dict(intersection(2))
    edit(doc)
    return doc


# Each malformed document, and the field its error message must name.
_MALFORMED_TRACES = {
    "states_not_objects": (lambda d: d.update(states=[5]), "state 0"),
    "cells_not_a_list": (lambda d: d["states"][0]["props"].update(h=5), "'h'"),
    "propositions_not_a_list": (lambda d: d.update(propositions=5), "'propositions'"),
    "nominals_a_string": (lambda d: d.update(nominals="z"), "'nominals'"),
    "document_a_list": (lambda d: [d], "'grid'"),
    "proposition_not_a_string": (lambda d: d.update(propositions=[["h"]]), "'propositions'"),
    "rows_a_bool": (lambda d: d["grid"].update(rows=True), "'rows'"),
    "nominal_cell_bools": (lambda d: d["states"][0]["noms"].update(z=[True, True]), "nominal 'z'"),
    "proposition_cell_bools": (lambda d: d["states"][0]["props"].update(h=[[True, True]]), "proposition 'h'"),
}
_MALFORMED_SCENARIOS = {
    "assumptions_not_a_list": (lambda d: d.update(assumptions=5), "'assumptions'"),
    "relative_path_not_a_list": (
        lambda d: d.update(assumptions=[{"kind": "relative", "dependee": "z0", "dependent": "z1", "path": 5}]),
        "'path'",
    ),
    "fixed_move_not_a_list": (
        lambda d: d.update(assumptions=[{"kind": "fixed", "nominal": "z1", "moves": [5]}]),
        "'moves'",
    ),
    "formula_not_a_string": (lambda d: d.update(assumptions=[{"kind": "raw", "formula": 5}]), "formula"),
    "max_trace_length_not_a_number": (lambda d: d.update(max_trace_length="x"), "max_trace_length"),
    "max_trace_length_a_fraction": (lambda d: d.update(max_trace_length=2.9), "'max_trace_length'"),
    "max_trace_length_a_bool": (lambda d: d.update(max_trace_length=True), "'max_trace_length'"),
    "max_trace_length_a_numeric_string": (lambda d: d.update(max_trace_length="2"), "'max_trace_length'"),
    "rows_a_bool": (lambda d: d["grid"].update(rows=True), "'rows'"),
    "propositions_a_string": (lambda d: d.update(propositions="h"), "'propositions'"),
    "nominal_not_a_string": (
        lambda d: d.update(assumptions=[{"kind": "fixed", "nominal": [1], "moves": [[]]}]),
        "'nominal'",
    ),
    "specification_not_strings": (lambda d: d.update(specification=[5]), "'specification'"),
}


class TestMalformedInput:
    """Valid JSON of the wrong shape is an error (exit 2), not a traceback."""

    @pytest.mark.parametrize("command", ["render", "eval"])
    @pytest.mark.parametrize("name", sorted(_MALFORMED_TRACES))
    def test_trace_file(self, command, name, tmp_path, capsys):
        path = tmp_path / "trace.json"
        edit, field = _MALFORMED_TRACES[name]
        path.write_text(json.dumps(_trace_doc(edit)), encoding="utf-8")
        args = ["--trace", str(path)]
        if command == "eval":
            args += ["--grid", "2x1", "--formula", "h", "--point", "1,1"]
        assert main([command] + args) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err and field in err

    @pytest.mark.parametrize("command", ["check", "render", "eval"])
    def test_file_that_is_not_utf8(self, command, tmp_path, capsys):
        path = tmp_path / "input.json"
        path.write_bytes(b"\xff\xfe\x00")
        args = {
            "check": ["--scenario", str(path), "--algorithm", "motion"],
            "render": ["--trace", str(path)],
            "eval": ["--trace", str(path), "--grid", "2x1", "--formula", "h", "--point", "1,1"],
        }[command]
        assert main([command] + args) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: not valid JSON: ") and "Traceback" not in err

    @pytest.mark.parametrize("name", sorted(_MALFORMED_SCENARIOS))
    def test_scenario_file(self, name, tmp_path, capsys):
        path = tmp_path / "scenario.json"
        edit, field = _MALFORMED_SCENARIOS[name]
        path.write_text(json.dumps(_scenario_doc(edit)), encoding="utf-8")
        assert main(["check", "--scenario", str(path), "--algorithm", "motion"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err and field in err


class TestValidities:
    def test_passes_on_small_bounds(self, capsys):
        assert main(["validities", "--max-rows", "2", "--max-cols", "1", "--max-len", "2"]) == 0
        out = capsys.readouterr().out
        assert "validity" in out and "FAIL" not in out

    def test_small_bounds_output_is_pinned(self, capsys):
        # Which countermodel is found (not only that it is genuine) depends on
        # the baseline enumeration order; the golden file pins it.
        golden = Path(__file__).with_name("golden") / "validities_2x1x2.txt"
        assert main(["validities", "--max-rows", "2", "--max-cols", "1", "--max-len", "2"]) == 0
        assert capsys.readouterr().out == golden.read_text(encoding="utf-8")


class TestBench:
    def test_single_test_all_algorithms(self, capsys, tmp_path):
        out = tmp_path / "bench.csv"
        code = main(["bench", "--tests", "1", "--timeout", "60", "--out", str(out)])
        assert code == 0
        captured = capsys.readouterr()
        assert "left_right" in captured.out
        assert out.read_text(encoding="utf-8").count("left_right") == 1

    def test_unknown_test_number(self, capsys):
        assert main(["bench", "--tests", "99"]) == 2
        assert "unknown test" in capsys.readouterr().err
