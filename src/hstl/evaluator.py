"""Satisfaction checking on finite traces.

Three routes are provided on purpose and kept independent:

* :func:`evaluate` — the per-call path.  Formulas are compiled to flat
  integer arrays, cached on the formula object rather than its value
  (:func:`compile_formula`), so a caller that evaluates one formula many
  times desugars it once and passes the same object to every call.  Each
  state is encoded once, to bitmask/tuple form, on first use
  (:meth:`hstl.core.State.encoded`) and every later call reads that
  encoding.  Results are memoized on ``(timestep, occurrence id,
  viewpoint cell)``: the target of an ``@`` jump is read at the current
  timestep, so a node below an ``@`` inside an until can be reached at
  one (timestep, occurrence) with several viewpoints.  An until scans
  forward over time, so the recursion's depth is the formula's, not the
  trace's.  A binder ``↓v`` writes the current cell into
  ``v``'s capture slot, which the recursion carries below it (a freeze
  quantifier writing a register); nominal reads and ``@`` jumps prefer
  a captured cell to the state's.  A node that reads a captured slot is
  keyed instead on the timestep, the node, the cell if it reads it and
  the captures it reads (:meth:`CompiledFormula.tables`).
* :class:`Progression` — the same semantics stepped one state at a time
  (formula progression, Bacchus & Kabanza 2000, on finite traces as in
  De Giacomo & Vardi 2013), for streams of traces that share prefixes.
* :func:`evaluate_naive` — a direct recursive transcription of the
  semantics built on the trace-surgery operations of :mod:`hstl.core`.
  No memo, no compilation; it exists as an oracle.

Moving off the grid makes a spatial modality false rather than raising.
A memo table is private to one evaluation call, and a progression to its
owner; concurrent evaluations on shared immutable inputs are
independent.  :func:`sat_points` runs all start positions against one
shared table.
"""

from __future__ import annotations

import functools
import threading
from operator import itemgetter
from dataclasses import dataclass
from typing import Iterable, NamedTuple

from .core import (
    DIRECTIONS,
    EncodedState,
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

# Compiled node kinds, in the order of the core constructors they compile.
_TOP, _PROP, _NOM, _NOT, _AND, _NEXT, _UNTIL, _SPATIAL, _AT, _BIND = range(10)
_KINDS = {t: kind for kind, t in enumerate((Top, Prop, Nom, Not, And, Next, Until, Spatial, At, Bind))}

_DIR_INDEX = {d: i for i, d in enumerate(DIRECTIONS)}
_LEAF = 1 << 62  # the variable of a BDD terminal, after every obligation


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

    Node ``i`` is row ``i`` of :func:`~hstl.formula.index_nodes`; its
    kind, child ids (``args``, ``args2``) and slot or direction (``aux``)
    sit at index ``i`` of the parallel tuples.

    Compiling checks the names once: free propositions and nominals must
    be declared in ``props``/``noms``.  ``prop_slots`` and ``nom_slots``
    are the indices, into ``props`` and ``noms``, of those the formula
    reads freely; on a one-state trace nothing else of the state can
    change its truth value (a nominal read only under its own binder is
    written before it is read).  A nominal that only a binder
    introduces gets a capture slot after the declared ones, which the
    binder writes before anything reads it, so callers encode states
    over ``noms`` only.

    The flat memo holds at most trace-length * node-count * cell-count
    entries, and a node that reads a captured slot adds one per capture.
    Unless a temporal operator sits below an ``@`` whose target moves, or
    below a binder, each occurrence is visited at one viewpoint per
    step, so at most trace-length * node-count entries are written.
    """

    __slots__ = (
        "grid", "free_env", "prop_slots", "nom_slots", "n_nodes", "kinds", "args", "args2", "aux", "nbr", "_tables", "_pick"
    )

    def __init__(self, f: Formula, g: GridGraph, props: tuple[str, ...], noms: tuple[str, ...]):
        usage, extras = _check_symbols(f, props, noms)
        prop_index = {name: i for i, name in enumerate(props)}
        nom_index = {name: i for i, name in enumerate(noms + extras)}
        rows = index_nodes(f)
        n = len(rows)
        kinds, args, args2, aux = [0] * n, [0] * n, [0] * n, [0] * n
        for nid, (node, kids) in enumerate(rows):
            kinds[nid] = kind = _KINDS[type(node)]
            args[nid], args2[nid] = (*kids, 0, 0)[:2]  # 0 where the node has fewer children
            if kind == _PROP:
                aux[nid] = prop_index[node.name]
            elif kind == _NOM:
                aux[nid] = nom_index[node.name]
            elif kind == _SPATIAL:
                aux[nid] = _DIR_INDEX[node.direction]
            elif kind in (_AT, _BIND):
                aux[nid] = nom_index[node.nominal]
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
        self._tables = None
        self._pick = None if _BIND in kinds else (None,) * n  # no binder, no captures to key on

    def tables(self) -> tuple[tuple[bool, ...], tuple[tuple[int, ...] | None, ...]]:
        """Per node, built on first use: whether its truth value reads the
        viewpoint cell, and the capture slots (those an enclosing binder
        writes) that it reads freely, or None when there are none.  Also
        sets ``_pick``: per node, an ``itemgetter`` of those slots, or None."""
        if self._tables is None:
            kinds, args, args2, aux, n = self.kinds, self.args, self.args2, self.aux, self.n_nodes
            kids = [
                (args[i], args2[i]) if k in (_AND, _UNTIL) else (args[i],) * (k >= _NOT) for i, k in enumerate(kinds)
            ]
            reads, free = [False] * n, [0] * n  # free: bitmask of the slots read freely below
            for node in reversed(range(n)):  # preorder ids: children after parents
                kind, bit, below = kinds[node], 1 << aux[node], 0
                for k in kids[node]:
                    below |= free[k]
                if kind == _AT:  # the viewpoint becomes the target's cell
                    free[node] = below | bit
                elif kind == _BIND:
                    free[node] = below & ~bit
                    reads[node] = below & bit > 0 or any(reads[k] for k in kids[node])
                else:
                    free[node] = below | bit if kind == _NOM else below
                    reads[node] = kind in (_PROP, _NOM, _SPATIAL) or any(reads[k] for k in kids[node])
            bound, captured = [0] * n, [None] * n  # bound: the slots an enclosing binder writes
            for node in range(n):
                for k in kids[node]:
                    bound[k] = bound[node] | (1 << aux[node] if kinds[node] == _BIND else 0)
                if mask := free[node] & bound[node]:
                    captured[node] = tuple(i for i in range(mask.bit_length()) if mask >> i & 1)
            self._tables = (tuple(reads), tuple(captured))
            self._pick = tuple(None if slots is None else itemgetter(*slots) for slots in captured)
        return self._tables

    def _run(self, states: list[EncodedState], memo: tuple[list[bool | None], dict], use):
        """``use(holds)``, where ``holds(p)`` runs the memoized recursion
        ``ev(node, k, p, env)`` from cell ``p``; every start shares the memo.
        ``env`` holds per nominal slot the cell its innermost enclosing binder
        captured, or None to read the state.  ``ev`` refers to itself through
        its closure; dropping it on return frees the memo with the call."""
        n_nodes = self.n_nodes
        n_pos = self.grid.position_count
        stride = n_nodes * n_pos  # between one node's keys at consecutive steps
        kinds, args, args2, aux, nbr = self.kinds, self.args, self.args2, self.aux, self.nbr
        if self._pick is None:  # a binder: build the tables, which set the keys
            self.tables()
        pick, reads = self._pick, self._tables and self._tables[0]
        last = len(states) - 1
        memo, side = memo  # flat entries; those of the nodes that read a captured slot

        def ev(node: int, k: int, p: int, env: tuple[int | None, ...]) -> bool:
            captures = pick[node]
            if captures is None:
                key = (k * n_nodes + node) * n_pos + p
                hit = memo[key]
            else:  # within one node the captures are all a cell or all a tuple
                key = ((k * n_nodes + node) * n_pos + (p if reads[node] else 0), captures(env))
                hit = side.get(key)
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
            elif kind == _UNTIL:  # scan forward: each step passed shares the answer of the step that decides
                j, res = k, None
                while res is None:
                    if ev(args2[node], j, p, env):
                        res = True
                    elif j == last or not ev(args[node], j, p, env):
                        res = False
                    else:
                        j += 1
                        shift = (j - k) * stride
                        res = memo[key + shift] if captures is None else side.get((key[0] + shift, key[1]))
                for shift in range(stride, (j - k + 1) * stride, stride):  # steps k+1..j; step k below
                    if captures is None:
                        memo[key + shift] = res
                    else:
                        side[(key[0] + shift, key[1])] = res
            elif kind == _SPATIAL:
                q = nbr[aux[node]][p]
                res = q >= 0 and ev(args[node], k, q, env)
            elif kind == _AT:
                cell = env[aux[node]]
                res = ev(args[node], k, states[k][1][aux[node]] if cell is None else cell, env)
            else:  # _BIND
                ni = aux[node]
                res = ev(args[node], k, p, env[:ni] + (p,) + env[ni + 1 :])
            if captures is None:
                memo[key] = res
            else:
                side[key] = res
            return res

        free = self.free_env
        try:
            return use(lambda p: ev(0, 0, p, free))
        finally:
            del ev

    def _fresh_memo(self, states: list[EncodedState]) -> tuple[list[bool | None], dict]:
        return [None] * (len(states) * self.n_nodes * self.grid.position_count), {}

    def evaluate(self, states: list[EncodedState], p: int, stats: EvalStats | None = None) -> bool:
        memo = self._fresh_memo(states)
        result = self._run(states, memo, lambda holds: holds(p))
        if stats is not None:
            stats.memo_entries = sum(1 for v in memo[0] if v is not None) + len(memo[1])
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


class CacheInfo(NamedTuple):
    misses: int  # compiles since the last clear
    maxsize: int
    currsize: int


_COMPILE_CACHE_SIZE = 4096
_compiled: dict[tuple, tuple[Formula, CompiledFormula]] = {}  # (id(f), g, props, noms) -> (f, compiled)
_compile_misses = 0
_compile_lock = threading.Lock()


def compile_formula(
    f: Formula, g: GridGraph, props: tuple[str, ...], noms: tuple[str, ...]
) -> CompiledFormula:
    """Compile (cached) over the declared names; raises on undeclared free
    symbols.  Binder-only nominals need no declaration.

    The cache is keyed on the formula object, not its value, so a caller
    that evaluates one formula many times desugars it once and passes the
    same object; no formula tree is hashed or compared.  An entry holds
    its formula, so that ``id`` is not reused while the entry lives; when
    the cache is full the oldest entry is dropped."""
    global _compile_misses
    key = (id(f), g, props, noms)
    hit = _compiled.get(key)
    if hit is not None and hit[0] is f:
        return hit[1]
    with _compile_lock:
        _compile_misses += 1
        compiled = CompiledFormula(f, g, props, noms)
        if len(_compiled) >= _COMPILE_CACHE_SIZE:
            del _compiled[next(iter(_compiled))]
        _compiled[key] = (f, compiled)
    return compiled


def _compile_cache_clear() -> None:
    global _compile_misses
    with _compile_lock:
        _compiled.clear()
        _compile_misses = 0


compile_formula.cache_clear = _compile_cache_clear
compile_formula.cache_info = lambda: CacheInfo(_compile_misses, _COMPILE_CACHE_SIZE, len(_compiled))


class Progression:
    """One compiled formula progressed along a stream of encoded traces.

    An obligation (node, cell, captures) asks that ``node`` hold at the
    next state read, with the cell only if the node reads it and the
    captures of the slots it reads (:meth:`CompiledFormula.tables`).  A
    residual is a reduced ordered BDD over obligations (nodes 0 and 1 are
    false and true).  Expanding an obligation at a state leaves a
    residual over the next state's obligations; ending the trace makes
    them all false, so a strong ``X`` is false at the last state.  A
    vector, interned to an id, holds one residual per start cell;
    ``accepted[id]`` are the cells satisfied if the trace ends there.
    :meth:`step` is memoized on (vector, state) for the object's life.
    """

    def __init__(self, compiled: CompiledFormula):
        self.compiled = compiled
        self.reads, captured = compiled.tables()
        self.slots = tuple(s or () for s in captured)
        self.var, self.lo, self.hi, self.accepts = [_LEAF, _LEAF], [0, 1], [0, 1], [False, True]
        self.nodes, self.ite_memo = {}, {}  # (variable, low, high) -> node; (f, g, h) -> ite
        self.obligations, self.obligation_ids = [], {}  # (node, cell, captures) and their ids
        self.vectors, self.vector_ids = [], {}  # one residual per start cell, and their ids
        self.accepted: list[frozenset[Position]] = []
        self.steps: list[dict[EncodedState, int]] = []  # per vector: state -> next vector
        free = compiled.free_env
        self.initial = self._vector(tuple(self._obligation(0, p, free) for p in range(compiled.grid.position_count)))

    def step(self, vector: int, state: EncodedState) -> int:
        """The vector after reading ``state``."""
        table = self.steps[vector]
        hit = table.get(state)
        if hit is None:
            hit = table[state] = self._progress(vector, state)
        return hit

    def _mk(self, v: int, lo: int, hi: int) -> int:
        if lo == hi:
            return lo
        u = self.nodes.setdefault((v, lo, hi), len(self.var))
        if u == len(self.var):
            self.var.append(v)
            self.lo.append(lo)
            self.hi.append(hi)
            self.accepts.append(self.accepts[lo])
        return u

    def _ite(self, f: int, g: int, h: int) -> int:
        """If ``f`` then ``g`` else ``h``, which covers not, and, or."""
        if f < 2 or g == h:
            return g if f == 1 or g == h else h
        if g == 1 and h == 0:
            return f
        u = self.ite_memo.get((f, g, h))
        if u is None:
            var, lo, hi = self.var, self.lo, self.hi
            v = min(var[f], var[g], var[h])
            f0, f1 = (lo[f], hi[f]) if var[f] == v else (f, f)
            g0, g1 = (lo[g], hi[g]) if var[g] == v else (g, g)
            h0, h1 = (lo[h], hi[h]) if var[h] == v else (h, h)
            u = self.ite_memo[(f, g, h)] = self._mk(v, self._ite(f0, g0, h0), self._ite(f1, g1, h1))
        return u

    def _obligation(self, node: int, p: int, env: tuple[int | None, ...]) -> int:
        """The residual of the one canonical obligation."""
        key = (node, p if self.reads[node] else -1, tuple([env[i] for i in self.slots[node]]))
        return self._mk(_intern(self.obligation_ids, self.obligations, key), 0, 1)

    def _vector(self, residuals: tuple[int, ...]) -> int:
        i = _intern(self.vector_ids, self.vectors, residuals)
        if i == len(self.steps):
            self.steps.append({})
            position_at = self.compiled.grid.position_at
            self.accepted.append(frozenset(position_at(p) for p, u in enumerate(residuals) if self.accepts[u]))
        return i

    def _progress(self, vector: int, state: EncodedState) -> int:
        c = self.compiled
        kinds, args, args2, aux, nbr = c.kinds, c.args, c.args2, c.aux, c.nbr
        ite, obligation, var, slots = self._ite, self._obligation, self.var, self.slots
        masks, cells = state

        def expand(node: int, p: int, env: tuple[int | None, ...]) -> int:
            kind = kinds[node]
            if kind == _TOP:
                return 1
            if kind == _PROP:
                return masks[aux[node]] >> p & 1
            if kind == _NOM:
                cell = env[aux[node]]
                return int((cells[aux[node]] if cell is None else cell) == p)
            if kind == _NOT:
                return ite(expand(args[node], p, env), 0, 1)
            if kind == _AND:
                return ite(expand(args[node], p, env), expand(args2[node], p, env), 0)
            if kind == _NEXT:
                return obligation(args[node], p, env)
            if kind == _UNTIL:  # ψ ∨ (φ ∧ X(φ U ψ))
                return ite(expand(args2[node], p, env), 1, ite(expand(args[node], p, env), obligation(node, p, env), 0))
            if kind == _SPATIAL:
                q = nbr[aux[node]][p]
                return expand(args[node], q, env) if q >= 0 else 0
            if kind == _AT:
                cell = env[aux[node]]
                return expand(args[node], cells[aux[node]] if cell is None else cell, env)
            ni = aux[node]  # _BIND
            return expand(args[node], p, env[:ni] + (p,) + env[ni + 1 :])

        expansions: dict[int, int] = {}  # obligation -> its expansion at this state
        progressed: dict[int, int] = {}  # residual node -> its progression

        def progress(u: int) -> int:
            if u < 2:
                return u
            r = progressed.get(u)
            if r is None:
                now = expansions.get(var[u])
                if now is None:
                    node, p, captures = self.obligations[var[u]]
                    env = list(c.free_env)
                    for i, cell in zip(slots[node], captures):
                        env[i] = cell
                    now = expansions[var[u]] = expand(node, p, tuple(env))
                r = progressed[u] = ite(now, progress(self.hi[u]), progress(self.lo[u]))
            return r

        try:
            return self._vector(tuple(map(progress, self.vectors[vector])))
        finally:
            del expand, progress  # each refers to itself through its closure


def _intern(ids: dict, items: list, key) -> int:
    """The index of ``key`` in ``items``, appended when new."""
    i = ids.setdefault(key, len(items))
    if i == len(items):
        items.append(key)
    return i


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
    if t.grid is not g and t.grid != g:
        raise ValidationError(f"trace is over a {t.grid.rows}x{t.grid.cols} grid, not {g.rows}x{g.cols}")
    if p is not None and not g.contains(p):
        raise ValidationError(f"start point {p} is outside the {g.rows}x{g.cols} grid")


def _prepare(
    g: GridGraph, t: Trace, f: Formula, p: Position | None = None
) -> tuple[CompiledFormula, list[EncodedState]]:
    _check_inputs(g, t, p)
    props, noms, _ = t.states[0].encoded()
    return compile_formula(f, g, props, noms), [s.encoded()[2] for s in t.states]


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
