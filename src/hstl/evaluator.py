"""Satisfaction checking on finite traces.

Two routes are provided on purpose and kept independent:

* :func:`evaluate` — the production path.  Formulas are compiled to flat
  integer arrays, traces to bitmask/tuple form, and results are memoized
  on ``(timestep, occurrence id, viewpoint cell)``.  Distinct
  occurrences of identical subformulas use distinct memo keys.  The
  viewpoint cell must be part of the key: the target of an ``@`` jump is
  read at the current timestep, so a node below an ``@`` inside an
  until can be reached at one (timestep, occurrence) pair with several
  viewpoints.  A binder ``↓v`` writes the current cell into ``v``'s
  capture slot, which the recursion carries to every node below it (a
  freeze quantifier writing a register); nominal reads and ``@`` jumps
  prefer a captured cell to the state's.  The memo key does not include
  the captures, so once an ``@`` jump follows a binder a node can be
  reached at one key with different captures and reuse a wrong answer
  (ROADMAP.md, item 1a).
* :func:`evaluate_naive` — a direct recursive transcription of the
  semantics built on the trace-surgery operations of :mod:`hstl.core`.
  No memo, no compilation; it exists as an oracle.

Moving off the grid makes a spatial modality false rather than raising.
A memo table is private to one evaluation call; concurrent evaluations
on shared immutable inputs are independent.  :func:`sat_points` runs all
start positions against one shared table, with the same caveat on
captures.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterable

from .core import (
    DIRECTIONS,
    GridGraph,
    Position,
    State,
    Trace,
    neighbor,
    substitute,
    suffix,
)
from .errors import ValidationError
from .formula import (
    And,
    At,
    Bind,
    Formula,
    Next,
    Nom,
    Not,
    Prop,
    Spatial,
    SymbolUsage,
    Top,
    Until,
    index_nodes,
    is_core,
    symbols,
)

# Compiled node kinds.
_TOP, _PROP, _NOM, _NOT, _AND, _NEXT, _UNTIL, _SPATIAL, _AT, _BIND = range(10)

_DIR_INDEX = {d: i for i, d in enumerate(DIRECTIONS)}

#: Encoded state: (per-proposition position bitmasks, per-nominal cell indices).
EncodedState = tuple[tuple[int, ...], tuple[int, ...]]


@functools.lru_cache(maxsize=None)
def neighbor_tables(g: GridGraph) -> tuple[tuple[int, ...], ...]:
    """Per direction, the row-major successor index of each cell (-1 off-grid)."""
    tables = []
    for d in DIRECTIONS:
        row = []
        for p in g.positions():
            q = neighbor(g, p, d)
            row.append(-1 if q is None else g.index(q))
        tables.append(tuple(row))
    return tuple(tables)


@dataclass
class EvalStats:
    """Instrumentation filled in by :func:`evaluate` when supplied."""

    memo_entries: int = 0
    node_count: int = 0
    trace_length: int = 0


class CompiledFormula:
    """A core formula flattened for fast evaluation over one grid.

    Compiling checks the names once: free propositions and nominals must
    be declared in ``props``/``noms``.  ``prop_slots`` and ``nom_slots``
    are the indices, into ``props`` and ``noms``, of those the formula
    reads freely; on a one-state trace nothing else of the state can
    change its truth value (a nominal read only under its own binder is
    written before it is read).  A nominal that only a binder
    introduces gets a capture slot after the declared ones, which the
    binder writes before anything reads it, so callers encode states
    over ``noms`` only.

    The memo can hold at most trace-length * node-count * cell-count
    entries.  Unless a temporal operator sits below an ``@`` whose
    target moves between steps, each occurrence is only ever visited at
    one viewpoint per step, so at most trace-length * node-count entries
    are actually written.
    """

    __slots__ = (
        "grid", "free_env", "prop_slots", "nom_slots", "n_nodes", "kinds", "args", "args2", "aux", "nbr"
    )

    def __init__(self, f: Formula, g: GridGraph, props: tuple[str, ...], noms: tuple[str, ...]):
        usage, extras = _check_symbols(f, props, noms)
        prop_index = {name: i for i, name in enumerate(props)}
        nom_index = {name: i for i, name in enumerate(noms + extras)}
        table = index_nodes(f)
        n = len(table)
        kinds, args, args2, aux = [0] * n, [0] * n, [0] * n, [0] * n
        for nid, entry in table.entries.items():
            node = entry.formula
            kids = entry.children
            if isinstance(node, Top):
                kinds[nid] = _TOP
            elif isinstance(node, Prop):
                kinds[nid], aux[nid] = _PROP, prop_index[node.name]
            elif isinstance(node, Nom):
                kinds[nid], aux[nid] = _NOM, nom_index[node.name]
            elif isinstance(node, Not):
                kinds[nid], args[nid] = _NOT, kids[0]
            elif isinstance(node, And):
                kinds[nid], args[nid], args2[nid] = _AND, kids[0], kids[1]
            elif isinstance(node, Next):
                kinds[nid], args[nid] = _NEXT, kids[0]
            elif isinstance(node, Until):
                kinds[nid], args[nid], args2[nid] = _UNTIL, kids[0], kids[1]
            elif isinstance(node, Spatial):
                kinds[nid], args[nid], aux[nid] = _SPATIAL, kids[0], _DIR_INDEX[node.direction]
            elif isinstance(node, At):
                kinds[nid], args[nid], aux[nid] = _AT, kids[0], nom_index[node.nominal]
            else:  # Bind
                kinds[nid], args[nid], aux[nid] = _BIND, kids[0], nom_index[node.nominal]
        self.grid = g
        self.free_env = (None,) * len(nom_index)
        self.prop_slots = tuple(sorted(prop_index[name] for name in usage.props))
        self.nom_slots = tuple(sorted(nom_index[name] for name in usage.noms))
        self.n_nodes = n
        self.kinds = tuple(kinds)
        self.args = tuple(args)
        self.args2 = tuple(args2)
        self.aux = tuple(aux)
        self.nbr = neighbor_tables(g)

    def _run(self, states: list[EncodedState], memo: list[bool | None], use):
        """``use(holds)``, where ``holds(p)`` runs the memoized recursion
        ``ev(node, k, p, env)`` from cell ``p``; every start shares the memo.
        ``env`` holds per nominal slot the cell its innermost enclosing binder
        captured, or None to read the state.  ``ev`` refers to itself through
        its closure; dropping it on return frees the memo with the call."""
        n_nodes = self.n_nodes
        n_pos = self.grid.position_count
        kinds, args, args2, aux, nbr = self.kinds, self.args, self.args2, self.aux, self.nbr
        last = len(states) - 1

        def ev(node: int, k: int, p: int, env: tuple[int | None, ...]) -> bool:
            key = (k * n_nodes + node) * n_pos + p
            hit = memo[key]
            if hit is not None:
                return hit
            kind = kinds[node]
            if kind == _TOP:
                res = True
            elif kind == _PROP:
                res = bool(states[k][0][aux[node]] >> p & 1)
            elif kind == _NOM:
                cell = env[aux[node]]
                res = (states[k][1][aux[node]] if cell is None else cell) == p
            elif kind == _NOT:
                res = not ev(args[node], k, p, env)
            elif kind == _AND:
                res = ev(args[node], k, p, env) and ev(args2[node], k, p, env)
            elif kind == _NEXT:
                res = k < last and ev(args[node], k + 1, p, env)
            elif kind == _UNTIL:
                if ev(args2[node], k, p, env):
                    res = True
                elif k < last:
                    res = ev(args[node], k, p, env) and ev(node, k + 1, p, env)
                else:
                    res = False
            elif kind == _SPATIAL:
                q = nbr[aux[node]][p]
                res = q >= 0 and ev(args[node], k, q, env)
            elif kind == _AT:
                cell = env[aux[node]]
                res = ev(args[node], k, states[k][1][aux[node]] if cell is None else cell, env)
            else:  # _BIND
                ni = aux[node]
                res = ev(args[node], k, p, env[:ni] + (p,) + env[ni + 1 :])
            memo[key] = res
            return res

        free = self.free_env
        try:
            return use(lambda p: ev(0, 0, p, free))
        finally:
            del ev

    def _fresh_memo(self, states: list[EncodedState]) -> list[bool | None]:
        return [None] * (len(states) * self.n_nodes * self.grid.position_count)

    def evaluate(self, states: list[EncodedState], p: int, stats: EvalStats | None = None) -> bool:
        memo = self._fresh_memo(states)
        result = self._run(states, memo, lambda holds: holds(p))
        if stats is not None:
            stats.memo_entries = sum(1 for v in memo if v is not None)
            stats.node_count = self.n_nodes
            stats.trace_length = len(states)
        return result

    def sat_point_indices(self, states: list[EncodedState]) -> list[int]:
        """Start cells (row-major indices) at which the formula holds."""
        starts = range(self.grid.position_count)
        memo = self._fresh_memo(states)
        return self._run(states, memo, lambda holds: [p for p in starts if holds(p)])

    def holds_everywhere(self, states: list[EncodedState]) -> bool:
        """True iff the formula holds at every start cell; stops at the first miss."""
        starts = range(self.grid.position_count)
        memo = self._fresh_memo(states)
        return self._run(states, memo, lambda holds: all(map(holds, starts)))


@functools.lru_cache(maxsize=4096)
def compile_formula(
    f: Formula, g: GridGraph, props: tuple[str, ...], noms: tuple[str, ...]
) -> CompiledFormula:
    """Compile (cached) over the declared names; raises on undeclared free
    symbols.  Binder-only nominals need no declaration."""
    return CompiledFormula(f, g, props, noms)


def encode_state(s: State, g: GridGraph, prop_order: tuple[str, ...]) -> EncodedState:
    """Pack a state into bitmask/index form over its declared nominals."""
    bits = []
    for name in prop_order:
        mask = 0
        for c in s.props[name]:
            mask |= 1 << g.index(c)
        bits.append(mask)
    noms = tuple(g.index(s.noms[name]) for name in sorted(s.noms))
    return tuple(bits), noms


def _check_symbols(
    f: Formula, props: Iterable[str], noms: Iterable[str]
) -> tuple[SymbolUsage, tuple[str, ...]]:
    """Raise on undeclared free propositions or nominals; return the
    formula's symbols and its binder-introduced nominals, sorted (they
    need no declaration)."""
    usage = symbols(f)
    missing = usage.props.difference(props)
    if missing:
        raise ValidationError(f"formula uses undeclared propositions {sorted(missing)}")
    missing = usage.noms.difference(noms)
    if missing:
        raise ValidationError(f"formula uses undeclared nominals {sorted(missing)}")
    return usage, tuple(sorted(usage.bound.difference(noms)))


def _check_inputs(g: GridGraph, t: Trace, p: Position | None = None) -> None:
    """The one check that the trace is over ``g`` and the start point on it."""
    if t.grid != g:
        raise ValidationError(f"trace is over a {t.grid.rows}x{t.grid.cols} grid, not {g.rows}x{g.cols}")
    if p is not None and not g.contains(p):
        raise ValidationError(f"start point {p} is outside the {g.rows}x{g.cols} grid")


def _prepare(
    g: GridGraph, t: Trace, f: Formula, p: Position | None = None
) -> tuple[CompiledFormula, list[EncodedState]]:
    _check_inputs(g, t, p)
    compiled = compile_formula(f, g, t.prop_names, t.nominal_names)
    states = [encode_state(s, g, t.prop_names) for s in t.states]
    return compiled, states


def evaluate(g: GridGraph, t: Trace, p: Position, f: Formula, stats: EvalStats | None = None) -> bool:
    """Does the formula hold on trace ``t`` viewed from ``p``?

    ``f`` must be core-only (run :func:`hstl.formula.desugar` first).
    Undeclared symbols raise; they are never silently false.
    """
    compiled, states = _prepare(g, t, f, p)
    return compiled.evaluate(states, g.index(p), stats)


def sat_points(g: GridGraph, t: Trace, f: Formula) -> frozenset[Position]:
    """Exactly the start positions at which :func:`evaluate` returns True."""
    compiled, states = _prepare(g, t, f)
    return frozenset(g.position_at(i) for i in compiled.sat_point_indices(states))


# ---------------------------------------------------------------------------
# Reference oracle
# ---------------------------------------------------------------------------


def evaluate_naive(g: GridGraph, t: Trace, p: Position, f: Formula) -> bool:
    """Direct recursive reading of the semantics; quadratic and proud of it."""
    _check_inputs(g, t, p)
    if not is_core(f):
        raise ValidationError("formula must be desugared before evaluation")
    _, extras = _check_symbols(f, t.prop_names, t.nominal_names)
    if extras:
        placeholder = Position(1, 1)
        t = Trace([_state_with_extras(s, extras, placeholder) for s in t.states])
    return _naive(g, t, p, f)


def _state_with_extras(s: State, extras: tuple[str, ...], placeholder: Position) -> State:
    noms = dict(s.noms)
    for name in extras:
        noms[name] = placeholder
    return State(s.grid, s.props, noms)


def _naive(g: GridGraph, t: Trace, p: Position, f: Formula) -> bool:
    if isinstance(f, Top):
        return True
    if isinstance(f, Prop):
        return p in t.states[0].props[f.name]
    if isinstance(f, Nom):
        return p == t.states[0].noms[f.name]
    if isinstance(f, Not):
        return not _naive(g, t, p, f.child)
    if isinstance(f, And):
        return _naive(g, t, p, f.left) and _naive(g, t, p, f.right)
    if isinstance(f, Next):
        return len(t) > 1 and _naive(g, suffix(t, 1), p, f.child)
    if isinstance(f, Until):
        for k in range(len(t)):
            if _naive(g, suffix(t, k), p, f.right) and all(
                _naive(g, suffix(t, l), p, f.left) for l in range(k)
            ):
                return True
        return False
    if isinstance(f, Spatial):
        q = neighbor(g, p, f.direction)
        return q is not None and _naive(g, t, q, f.child)
    if isinstance(f, At):
        return _naive(g, t, t.states[0].noms[f.nominal], f.child)
    if isinstance(f, Bind):
        return _naive(g, substitute(t, f.nominal, p, 0), p, f.child)
    raise ValidationError(f"unexpected node {type(f).__name__}")
