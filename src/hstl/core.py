"""Grid-graph geometry, states, traces, and trace surgery.

Positions live on an m x n grid with four-directional adjacency.  The
convention is fixed: Front increments the row index, Back decrements it,
Right increments the column index, Left decrements it.  Row 1 is the
"rear" of the road and rows grow in the direction of travel.

States pair a proposition valuation (name -> set of positions) with a
nominal valuation (name -> exactly one position).  The nominal map is
total but deliberately NOT injective: two nominals may share a cell,
which is what makes collision specifications meaningful.

All types here are immutable values, safe to share between workers.
:func:`read_field` is the one field reader of the trace and scenario loaders.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import SuffixUndefinedError, ValidationError

#: Encoded state: (per-proposition position bitmasks, per-nominal cell indices).
EncodedState = tuple[tuple[int, ...], tuple[int, ...]]


class Direction(enum.Enum):
    """One of the four grid moves. Front = +row, Right = +column."""

    FRONT = "Front"
    BACK = "Back"
    LEFT = "Left"
    RIGHT = "Right"

    @property
    def delta(self) -> tuple[int, int]:
        return _DELTAS[self]

    @property
    def opposite(self) -> "Direction":
        return _OPPOSITES[self]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return self.value


_DELTAS = {
    Direction.FRONT: (1, 0),
    Direction.BACK: (-1, 0),
    Direction.RIGHT: (0, 1),
    Direction.LEFT: (0, -1),
}

_OPPOSITES = {
    Direction.FRONT: Direction.BACK,
    Direction.BACK: Direction.FRONT,
    Direction.LEFT: Direction.RIGHT,
    Direction.RIGHT: Direction.LEFT,
}

#: All directions in a fixed, documented order.
DIRECTIONS = (Direction.FRONT, Direction.BACK, Direction.LEFT, Direction.RIGHT)


@dataclass(frozen=True)
class Position:
    """A 1-based grid cell. ``i`` is the row (travel axis), ``j`` the column."""

    i: int
    j: int

    def __post_init__(self):
        if self.i < 1 or self.j < 1:
            raise ValidationError(f"position indices are 1-based, got ({self.i}, {self.j})")

    def __repr__(self) -> str:
        return f"p({self.i},{self.j})"


@dataclass(frozen=True)
class GridGraph:
    """An m x n grid of positions; adjacency is derived, never stored."""

    rows: int
    cols: int

    def __post_init__(self):
        if self.rows < 1 or self.cols < 1:
            raise ValidationError(f"grid dimensions must be >= 1, got {self.rows}x{self.cols}")

    @property
    def position_count(self) -> int:
        return self.rows * self.cols

    def contains(self, p: Position) -> bool:
        return 1 <= p.i <= self.rows and 1 <= p.j <= self.cols

    def position(self, i: int, j: int) -> Position:
        p = Position(i, j)
        if not self.contains(p):
            raise ValidationError(f"{p} is outside the {self.rows}x{self.cols} grid")
        return p

    def positions(self) -> Iterator[Position]:
        """All positions in row-major order: (1,1), (1,2), ..., (rows,cols)."""
        for i in range(1, self.rows + 1):
            for j in range(1, self.cols + 1):
                yield Position(i, j)

    def index(self, p: Position) -> int:
        """Row-major 0-based index of ``p``; used by the fast evaluator."""
        return (p.i - 1) * self.cols + (p.j - 1)

    def position_at(self, index: int) -> Position:
        return Position(index // self.cols + 1, index % self.cols + 1)


def make_grid(rows: int, cols: int) -> GridGraph:
    """Build a grid, rejecting non-positive dimensions."""
    if not isinstance(rows, int) or not isinstance(cols, int):
        raise ValidationError("grid dimensions must be integers")
    return GridGraph(rows, cols)


def neighbor(g: GridGraph, p: Position, d: Direction) -> Position | None:
    """The cell one step from ``p`` in direction ``d``, or None off-grid.

    Absence is a value, not an error: a spatial move to a nonexistent
    cell makes the corresponding modality false.
    """
    if not g.contains(p):
        raise ValidationError(f"{p} is outside the {g.rows}x{g.cols} grid")
    di, dj = d.delta
    i, j = p.i + di, p.j + dj
    if 1 <= i <= g.rows and 1 <= j <= g.cols:
        return Position(i, j)
    return None


def apply_path(g: GridGraph, p: Position, path: Sequence[Direction]) -> Position | None:
    """Fold ``neighbor`` over ``path``; None if any intermediate step exits.

    The empty path is the identity.
    """
    cur: Position | None = p
    if not g.contains(p):
        raise ValidationError(f"{p} is outside the {g.rows}x{g.cols} grid")
    for d in path:
        cur = neighbor(g, cur, d)
        if cur is None:
            return None
    return cur


class State:
    """One timestep: a proposition valuation and a total nominal valuation.

    The declared proposition and nominal sets are exactly the keys of
    the two maps; every declared nominal must be placed somewhere.  The
    constructor encodes the state (:meth:`encoded`), and two states are
    equal when their grids and encodings are.
    """

    __slots__ = ("grid", "props", "noms", "_hash", "_encoded")

    def __init__(
        self,
        grid: GridGraph,
        props: Mapping[str, Iterable[Position]],
        noms: Mapping[str, Position],
    ):
        frozen_props = {name: frozenset(cells) for name, cells in props.items()}
        frozen_noms = dict(noms)
        for name, cells in frozen_props.items():
            for c in cells:
                if not grid.contains(c):
                    raise ValidationError(f"proposition {name!r} holds at {c}, outside the grid")
        for name, c in frozen_noms.items():
            if not isinstance(c, Position):
                raise ValidationError(f"nominal {name!r} must map to a single Position")
            if not grid.contains(c):
                raise ValidationError(f"nominal {name!r} placed at {c}, outside the grid")
        index = grid.index
        prop_names, nom_names = tuple(sorted(frozen_props)), tuple(sorted(frozen_noms))
        masks = tuple(sum(1 << index(c) for c in frozen_props[a]) for a in prop_names)  # distinct bits: sum is or
        encoded = prop_names, nom_names, (masks, tuple(index(frozen_noms[v]) for v in nom_names))
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "props", frozen_props)
        object.__setattr__(self, "noms", frozen_noms)
        object.__setattr__(self, "_encoded", encoded)
        object.__setattr__(self, "_hash", hash((grid, encoded)))

    def __setattr__(self, name, value):  # immutability guard
        raise AttributeError("State is immutable")

    def __reduce__(self):  # the encoding is not state: it is rebuilt by the constructor
        return State, (self.grid, self.props, self.noms)

    def encoded(self) -> tuple[tuple[str, ...], tuple[str, ...], EncodedState]:
        """The proposition and nominal names, sorted, and the state over
        them: per proposition the bitmask of its cells' row-major indices,
        per nominal its cell's index.  Built by the constructor."""
        return self._encoded

    def with_nominal(self, name: str, p: Position) -> "State":
        """A copy of this state with one nominal repositioned (or added)."""
        noms = dict(self.noms)
        noms[name] = p
        return State(self.grid, self.props, noms)

    def __eq__(self, other) -> bool:
        return isinstance(other, State) and self._encoded == other._encoded and self.grid == other.grid

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        noms = ", ".join(f"{n}={p}" for n, p in sorted(self.noms.items()))
        props = ", ".join(
            f"{a}={{{','.join(map(str, sorted(cells, key=lambda c: (c.i, c.j))))}}}"
            for a, cells in sorted(self.props.items())
        )
        body = "; ".join(part for part in (noms, props) if part)
        return f"State({body})"


class Trace:
    """A nonempty finite sequence of states over one grid and symbol set.

    The hash is ``hash(states)``, computed on the first ``__hash__`` call
    and kept.  :meth:`_trusted` builds a trace without the checks, for
    states known to share one grid and symbol set: those of the decoder
    and of :func:`suffix` and :func:`substitute`.
    """

    __slots__ = ("states", "grid", "_hash")

    def __init__(self, states: Sequence[State]):
        states = tuple(states)
        if not states:
            raise ValidationError("a trace must contain at least one state")
        first = states[0]
        grid, prop_names, nom_names = first.grid, first.props.keys(), first.noms.keys()
        for s in states[1:]:
            if s is first:
                continue
            if s.grid is not grid and s.grid != grid:
                raise ValidationError("all states in a trace must share one grid")
            if s.props.keys() != prop_names or s.noms.keys() != nom_names:
                raise ValidationError("all states in a trace must declare the same symbols")
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "grid", grid)

    @classmethod
    def _trusted(cls, states: tuple[State, ...]) -> "Trace":
        """The trace of ``states``, a nonempty tuple over one grid and
        symbol set, unchecked."""
        t = object.__new__(cls)
        _set_states(t, states)
        _set_grid(t, states[0].grid)
        return t

    def __setattr__(self, name, value):
        raise AttributeError("Trace is immutable")

    def __reduce__(self):
        return Trace, (self.states,)

    def __len__(self) -> int:
        return len(self.states)

    def __eq__(self, other) -> bool:
        return isinstance(other, Trace) and self.states == other.states

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            h = hash(self.states)
            object.__setattr__(self, "_hash", h)
            return h

    @property
    def prop_names(self) -> tuple[str, ...]:
        return self.states[0].encoded()[0]

    @property
    def nominal_names(self) -> tuple[str, ...]:
        return self.states[0].encoded()[1]

    def __repr__(self) -> str:
        return f"Trace({list(self.states)!r})"


_set_states, _set_grid = Trace.states.__set__, Trace.grid.__set__  # the slots, past the immutability guard


def suffix(t: Trace, k: int) -> Trace:
    """The suffix starting at index ``k``; raises when k >= len(t)."""
    if k < 0:
        raise ValidationError(f"suffix index must be nonnegative, got {k}")
    if k >= len(t):
        raise SuffixUndefinedError(f"suffix {k} of a length-{len(t)} trace is undefined")
    if k == 0:
        return t
    return Trace._trusted(t.states[k:])


def substitute(t: Trace, v: str, p: Position, from_k: int = 0) -> Trace:
    """Reposition nominal ``v`` to ``p`` in every state from ``from_k`` on.

    Returns a structurally shared copy; the input trace is untouched.
    """
    if v not in t.states[0].noms:
        raise ValidationError(f"nominal {v!r} is not declared in this trace")
    if not t.grid.contains(p):
        raise ValidationError(f"{p} is outside the trace's grid")
    if not 0 <= from_k < len(t):
        raise ValidationError(f"substitution start {from_k} out of range for length {len(t)}")
    head = t.states[:from_k]
    tail = tuple(s.with_nominal(v, p) for s in t.states[from_k:])
    return Trace._trusted(head + tail)


# ---------------------------------------------------------------------------
# Trace interchange format (JSON, 1-based indices)
# ---------------------------------------------------------------------------


def trace_to_json_dict(t: Trace) -> dict:
    """Serialize a trace to the interchange schema used by the CLI."""
    return {
        "grid": {"rows": t.grid.rows, "cols": t.grid.cols},
        "propositions": list(t.prop_names),
        "nominals": list(t.nominal_names),
        "states": [
            {
                "props": {
                    a: sorted([[c.i, c.j] for c in cells])
                    for a, cells in sorted(s.props.items())
                },
                "noms": {n: [c.i, c.j] for n, c in sorted(s.noms.items())},
            }
            for s in t.states
        ],
    }


def _position_from_pair(g: GridGraph, pair, what: str) -> Position:
    if not isinstance(pair, (list, tuple)) or len(pair) != 2:
        raise ValidationError(f"{what}: expected an [i, j] pair, got {pair!r}")
    p = Position(read_field(pair, 0, what, int), read_field(pair, 1, what, int))
    if not g.contains(p):
        raise ValidationError(f"{what}: {p} is outside the {g.rows}x{g.cols} grid")
    return p


def read_json(path):
    """The document in the UTF-8 JSON file at ``path``, or a ValidationError naming the path."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ValidationError(f"{path}: not valid JSON: {exc}") from exc


def read_field(doc, key, what: str, kind: type | tuple[type, ...] = (list, tuple)):
    """``doc[key]`` (an object's key or a list's index) if present and a
    ``kind``: by default a list, or a tuple from a Python caller, never a
    string; a bool is not an int.  Otherwise a ValidationError naming the
    field as missing or mistyped."""
    try:
        value = doc[key]
    except (KeyError, IndexError, TypeError):
        raise ValidationError(f"{what}: missing {key!r}") from None
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        expected = {dict: "an object", int: "an integer", str: "a string"}.get(kind, "a list")
        raise ValidationError(f"{what}: {key!r} must be {expected}, got {value!r}")
    return value


def read_strings(doc, key, what: str) -> tuple[str, ...]:
    """``doc[key]`` read by :func:`read_field` as a list of strings."""
    items = read_field(doc, key, what)
    return tuple(read_field(items, i, f"{what}: {key!r}", str) for i in range(len(items)))


def trace_from_json_dict(doc: Mapping) -> Trace:
    """Parse the interchange schema; raises ValidationError with context."""
    what = "malformed trace document"
    grid_doc = read_field(doc, "grid", what, dict)
    g = make_grid(read_field(grid_doc, "rows", "'grid'", int), read_field(grid_doc, "cols", "'grid'", int))
    props = read_strings(doc, "propositions", what)
    noms = read_strings(doc, "nominals", what)
    state_docs = read_field(doc, "states", what)
    if len(set(props)) != len(props) or len(set(noms)) != len(noms):
        raise ValidationError("duplicate names in propositions/nominals")
    if set(props) & set(noms):
        raise ValidationError("propositions and nominals must be disjoint")
    if not state_docs:
        raise ValidationError("a trace needs a nonempty list of states")
    states = []
    for idx, sdoc in enumerate(state_docs):
        if not isinstance(sdoc, dict) or not all(isinstance(sdoc.get(k, {}), dict) for k in ("props", "noms")):
            raise ValidationError(f'state {idx}: expected {{"props": {{...}}, "noms": {{...}}}}, got {sdoc!r}')
        sprops, snoms = sdoc.get("props", {}), sdoc.get("noms", {})
        if set(sprops) - set(props):
            raise ValidationError(f"state {idx}: undeclared propositions {set(sprops) - set(props)}")
        if set(snoms) != set(noms):
            raise ValidationError(f"state {idx}: nominal map must cover exactly {sorted(noms)}")
        prop_map = {
            a: frozenset(
                _position_from_pair(g, pair, f"state {idx}, proposition {a!r}")
                for pair in (read_field(sprops, a, f"state {idx}") if a in sprops else ())
            )
            for a in props
        }
        nom_map = {
            n: _position_from_pair(g, snoms[n], f"state {idx}, nominal {n!r}") for n in noms
        }
        states.append(State(g, prop_map, nom_map))
    return Trace(states)
