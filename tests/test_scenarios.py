"""Scenario schema, round trips, validation errors, built-in parameterization."""

import json

import pytest

from hstl.checkers import Algorithm
from hstl.errors import ParseError, ValidationError
from hstl.harness import build_config
from hstl.scenarios import (
    bench_suite,
    builtin_scenarios,
    compile_assumption_set,
    hazard,
    intersection,
    left_right,
    load_scenario,
    one_lane_follow,
    passing,
    platoon,
    same_name,
    save_scenario,
    scenario_from_json_dict,
    scenario_to_json_dict,
)


def _build_under_every_algorithm(scenario):
    for algorithm in Algorithm:
        build_config(scenario, algorithm)


class TestRoundTrip:
    def test_all_builtins_round_trip(self):
        for scenario in builtin_scenarios():
            doc = scenario_to_json_dict(scenario)
            again = scenario_from_json_dict(json.loads(json.dumps(doc)))
            assert again == scenario
            _build_under_every_algorithm(again)

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "intersection.json"
        save_scenario(intersection(2), path)
        loaded = load_scenario(path)
        assert loaded == intersection(2)
        assert loaded.grid.rows == 2 and loaded.grid.cols == 2
        assert loaded.nominals == ("z0", "z1")
        assert loaded.specification == ("G(!(@z0 z1))",)


class TestLoadErrors:
    def _write(self, tmp_path, doc):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        return path

    def test_not_json(self, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text("{nope", encoding="utf-8")
        with pytest.raises(ValidationError, match="not valid JSON"):
            load_scenario(path)

    def test_missing_key(self, tmp_path):
        doc = scenario_to_json_dict(left_right())
        del doc["grid"]
        with pytest.raises(ValidationError, match="grid"):
            load_scenario(self._write(tmp_path, doc))

    def test_nominal_used_as_proposition(self, tmp_path):
        doc = scenario_to_json_dict(left_right())
        doc["specification"] = ["G(z & h)"]  # h undeclared
        scenario = load_scenario(self._write(tmp_path, doc))  # the schema holds
        for algorithm in Algorithm:
            with pytest.raises(ParseError, match="^scenario 'left_right': undeclared"):
                build_config(scenario, algorithm)

    def test_unknown_assumption_kind(self, tmp_path):
        doc = scenario_to_json_dict(left_right())
        doc["assumptions"] = [{"kind": "magic"}]
        with pytest.raises(ValidationError, match="kind"):
            load_scenario(self._write(tmp_path, doc))

    def test_role_conflict_detected_when_built(self, tmp_path):
        doc = scenario_to_json_dict(one_lane_follow(3))
        doc["assumptions"].append({"kind": "static", "nominal": "z1"})
        scenario = load_scenario(self._write(tmp_path, doc))
        for algorithm in Algorithm:
            with pytest.raises(ValidationError, match=r"^scenario 'one_lane_follow\(3\)': .*conflicting"):
                build_config(scenario, algorithm)

    def test_unknown_direction(self, tmp_path):
        doc = scenario_to_json_dict(one_lane_follow(3))
        doc["assumptions"][1]["moves"] = [["Sideways"]]
        scenario = load_scenario(self._write(tmp_path, doc))
        for algorithm in Algorithm:
            with pytest.raises(ValidationError, match=r"^scenario 'one_lane_follow\(3\)': .*direction"):
                build_config(scenario, algorithm)


class TestBuiltins:
    def test_one_lane_follow_shape(self):
        s = one_lane_follow(3)
        assert (s.grid.rows, s.grid.cols) == (3, 1)
        assert s.specification == ("G(!(@z0 z1))",)
        kinds = [a.kind for a in s.assumptions]
        assert kinds == ["initial", "fixed", "raw"]

    def test_platoon_nominals(self):
        assert platoon(3).nominals == ("z0", "z1", "z2", "z3")
        with pytest.raises(ValidationError):
            platoon(1)

    def test_hazard_shape(self):
        s = hazard(2)
        assert s.propositions == ("h",)
        assert (s.grid.rows, s.grid.cols) == (2, 2)
        assert s.max_trace_length == 2

    def test_same_name_classifies_colocation_globally(self):
        aset = compile_assumption_set(same_name())
        assert len(aset.global_states) == 1
        assert aset.global_states[0].viewpoint == "z"

    def test_intersection_scales_with_size(self):
        s = intersection(3)
        assert (s.grid.rows, s.grid.cols, s.max_trace_length) == (3, 3, 3)

    def test_passing_duration(self):
        assert passing(4).max_trace_length == 4

    def test_all_builtins_validate(self):
        for s in builtin_scenarios():
            _build_under_every_algorithm(s)


class TestBenchSuite:
    def test_numbering(self):
        suite = bench_suite()
        assert sorted(suite) == list(range(1, 22))
        assert suite[1].name == "left_right"
        assert suite[2].name == "same_name"
        assert suite[3].name == "one_lane_follow(3)"
        assert suite[8].name == "one_lane_follow(18)"
        assert suite[9].name == "hazard(2)"
        assert suite[11].name == "intersection(2)"
        assert suite[14].name == "passing(2)"
        assert suite[18].name == "platoon(2)"
        assert suite[21].name == "platoon(5)"
