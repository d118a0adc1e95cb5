"""Grid geometry, states, traces, surgery, and the interchange format."""

import copy
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_trace
from hstl.core import (
    DIRECTIONS,
    Direction,
    Position,
    State,
    Trace,
    apply_path,
    make_grid,
    neighbor,
    substitute,
    suffix,
    trace_from_json_dict,
    trace_to_json_dict,
)
from hstl.errors import SuffixUndefinedError, ValidationError

F, B, L, R = Direction.FRONT, Direction.BACK, Direction.LEFT, Direction.RIGHT


class TestGrid:
    def test_position_counts(self):
        assert make_grid(3, 4).position_count == 12
        assert make_grid(3, 3).position_count == 9

    def test_minimal_grid_has_no_neighbors(self):
        g = make_grid(1, 1)
        assert g.position_count == 1
        assert all(neighbor(g, Position(1, 1), d) is None for d in DIRECTIONS)

    @pytest.mark.parametrize("rows,cols", [(0, 3), (3, 0), (-1, 2)])
    def test_bad_dimensions_rejected(self, rows, cols):
        with pytest.raises(ValidationError):
            make_grid(rows, cols)

    def test_neighbor_examples(self):
        g = make_grid(3, 3)
        assert neighbor(g, Position(1, 1), F) == Position(2, 1)
        assert neighbor(g, Position(3, 3), F) is None
        assert neighbor(g, Position(2, 2), L) == Position(2, 1)

    def test_neighbor_opposite_roundtrip_exhaustive(self):
        # Whenever both steps stay on-grid they cancel; grids up to 4x4.
        for rows in range(1, 5):
            for cols in range(1, 5):
                g = make_grid(rows, cols)
                for p in g.positions():
                    for d in DIRECTIONS:
                        q = neighbor(g, p, d)
                        if q is not None:
                            assert neighbor(g, q, d.opposite) == p

    def test_apply_path_examples(self):
        g = make_grid(3, 3)
        assert apply_path(g, Position(1, 1), [F, R]) == Position(2, 2)
        assert apply_path(g, Position(1, 1), []) == Position(1, 1)
        # First move exits the grid, so the fold is already absent.
        assert apply_path(g, Position(1, 3), [R, F]) is None

    def test_apply_path_is_a_monoid_action(self):
        g = make_grid(3, 3)
        paths = [()] + [(d,) for d in DIRECTIONS] + [(a, b) for a in DIRECTIONS for b in DIRECTIONS]
        for p in g.positions():
            for first in paths:
                for second in paths:
                    combined = apply_path(g, p, first + second)
                    mid = apply_path(g, p, first)
                    lifted = None if mid is None else apply_path(g, mid, second)
                    assert combined == lifted


class TestStateAndTrace:
    def test_state_validates_positions(self):
        g = make_grid(2, 2)
        with pytest.raises(ValidationError):
            State(g, {"h": [Position(3, 1)]}, {"z": Position(1, 1)})
        with pytest.raises(ValidationError):
            State(g, {}, {"z": Position(1, 3)})

    def test_nominals_may_collide(self):
        g = make_grid(2, 2)
        s = State(g, {}, {"z0": Position(1, 1), "z1": Position(1, 1)})
        assert s.noms["z0"] == s.noms["z1"]

    def test_empty_trace_unrepresentable(self):
        with pytest.raises(ValidationError):
            Trace([])

    def test_trace_rejects_mixed_symbol_sets(self):
        g = make_grid(2, 2)
        a = State(g, {}, {"z": Position(1, 1)})
        b = State(g, {}, {"z": Position(1, 1), "y": Position(2, 2)})
        with pytest.raises(ValidationError):
            Trace([a, b])

    def test_suffix_examples(self):
        rng = random.Random(7)
        t = random_trace(rng, make_grid(2, 2), ["h"], ["z"], 3)
        while len(t) != 3:
            t = random_trace(rng, make_grid(2, 2), ["h"], ["z"], 3)
        assert suffix(t, 0) == t
        assert suffix(t, 2).states == (t.states[2],)
        with pytest.raises(SuffixUndefinedError):
            suffix(t, 3)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10_000), a=st.integers(0, 3), b=st.integers(0, 3))
    def test_suffix_composes(self, seed, a, b):
        t = random_trace(random.Random(seed), make_grid(2, 2), ["h"], ["z"], 5)
        if a + b < len(t):
            assert suffix(suffix(t, a), b) == suffix(t, a + b)

    def test_substitute_everywhere(self):
        g = make_grid(2, 2)
        t = random_trace(random.Random(1), g, [], ["z"], 3)
        out = substitute(t, "z", Position(2, 2), 0)
        assert all(s.noms["z"] == Position(2, 2) for s in out.states)

    def test_substitute_with_existing_positions_is_identity(self):
        g = make_grid(2, 2)
        s = State(g, {}, {"z": Position(1, 2)})
        t = Trace([s, s])
        assert substitute(t, "z", Position(1, 2), 0) == t

    def test_substitute_from_index(self):
        g = make_grid(3, 1)
        mk = lambda i: State(g, {"h": [Position(2, 1)]}, {"z": Position(i, 1)})
        t = Trace([mk(1), mk(2), mk(3)])
        out = substitute(t, "z", Position(1, 1), 1)
        expected = Trace([mk(1), mk(1), mk(1)])
        assert out.states[0] == t.states[0]
        assert out == expected

    def test_substitute_is_persistent(self):
        g = make_grid(2, 2)
        t = random_trace(random.Random(3), g, [], ["z"], 3)
        before = tuple(s.noms["z"] for s in t.states)
        substitute(t, "z", Position(2, 1), 0)
        assert tuple(s.noms["z"] for s in t.states) == before

    def test_substitute_rejects_undeclared(self):
        g = make_grid(2, 2)
        t = Trace([State(g, {}, {"z": Position(1, 1)})])
        with pytest.raises(ValidationError):
            substitute(t, "y", Position(1, 1), 0)

    def test_suffix_and_substitute_equal_checked_traces(self):
        # Both build their result unchecked from the states of a valid trace.
        g = make_grid(2, 2)
        rng = random.Random(5)
        for _ in range(20):
            t = random_trace(rng, g, ["h"], ["y", "z"], 4)
            for k in range(len(t)):
                for out in (suffix(t, k), substitute(t, "z", Position(2, 1), k)):
                    checked = Trace(list(out.states))
                    assert out == checked and hash(out) == hash(checked) == hash(out.states)
                    assert repr(out) == repr(checked) and out.grid == g
        with pytest.raises(ValidationError):
            substitute(t, "z", Position(3, 1), 0)

    def test_pickle_and_deepcopy_round_trip(self):
        g = make_grid(1, 1)
        s = State(g, {"h": [Position(1, 1)]}, {"z": Position(1, 1)})
        t = Trace([s, State(g, {"h": []}, {"z": Position(1, 1)})])
        s.encoded()  # a filled encoding is rebuilt on the copy, not carried
        for clone in (lambda x: pickle.loads(pickle.dumps(x)), copy.deepcopy):
            s2, t2 = clone(s), clone(t)
            assert s2 == s and hash(s2) == hash(s) and s2.encoded() == s.encoded()
            assert t2 == t and hash(t2) == hash(t) and t2.prop_names == ("h",)
            with pytest.raises(AttributeError):
                s2.props = {}

    def test_encoding_is_sorted_and_kept(self):
        g = make_grid(2, 2)
        s = State(g, {"k": [Position(2, 2)], "h": [Position(1, 1), Position(2, 1)]}, {"z": Position(1, 2), "y": Position(2, 1)})
        assert s.encoded() == (("h", "k"), ("y", "z"), ((0b0101, 0b1000), (2, 1)))
        assert s.encoded() is s.encoded()
        assert Trace([s]).prop_names == ("h", "k") and Trace([s]).nominal_names == ("y", "z")


class TestTraceJson:
    def test_round_trip(self):
        rng = random.Random(11)
        for _ in range(25):
            t = random_trace(rng, make_grid(3, 2), ["h"], ["z0", "z1"], 4)
            assert trace_from_json_dict(trace_to_json_dict(t)) == t

    def test_schema_errors(self):
        g = {"rows": 2, "cols": 2}
        base = {
            "grid": g,
            "propositions": ["h"],
            "nominals": ["z"],
            "states": [{"props": {"h": []}, "noms": {"z": [1, 1]}}],
        }
        ok = trace_from_json_dict(base)
        assert len(ok) == 1
        bad = dict(base, states=[{"props": {}, "noms": {}}])
        with pytest.raises(ValidationError):
            trace_from_json_dict(bad)
        bad = dict(base, states=[{"props": {}, "noms": {"z": [3, 1]}}])
        with pytest.raises(ValidationError):
            trace_from_json_dict(bad)
        bad = dict(base, propositions=["h"], nominals=["h"])
        with pytest.raises(ValidationError):
            trace_from_json_dict(bad)
        with pytest.raises(ValidationError):
            trace_from_json_dict({"grid": g})
