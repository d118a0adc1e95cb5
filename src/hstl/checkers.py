"""Bounded trace generation and satisfaction search.

Three generators of increasing selectivity produce every trace of length
1..max_len compatible with the assumptions each enforces: the pruning
assumptions that :func:`unenforced_assumptions` does not name.  A trace
starts at a state of :meth:`_Context.iter_states` (the proposition
assignments and nominal placements that pass the enforced global-state
assumptions, those whose formula has no G) that passes the initial
checks, and :func:`_iter_encoded` walks the one transition relation,
:meth:`_Context.successors`, on an explicit stack.  A check's verdict on
one state depends only on the slots its formula reads freely, so the
filter evaluates it once per distinct value of those slots.

* baseline    — the full product space; it enforces no assumption, so
  the filter passes every state;
* optimized   — every state that passes the global-state assumptions
  may follow any state (the first state additionally passes the initial
  assumptions);
* motion      — successors through per-slot successor tables built from the enforced static, fixed and relative motion assumptions:
  a fixed-motion nominal moves to the cells from which some move path
  leads back to its previous cell (a static nominal is one whose only
  move is to stay), any other nominal ranges over every cell; dependents
  are placed by path completion, and a placement that pushes one
  off-grid is skipped.  Every proposition assignment is a candidate;
  candidate states are filtered by the global-state assumptions.

Raw assumptions never influence generation, and neither do global-state
formulas with a nested G, which one state cannot decide (see
:class:`~hstl.idioms.GlobalState`).  The motion generator yields exactly
the traces satisfying the other non-raw assumptions (checked at every
start position), which the test suite verifies against the baseline
stream by brute force.  :func:`unenforced_assumptions` names, per
algorithm, the assumptions :func:`checked_formula` must still carry.

Enumeration order is fully deterministic and documented.  Within one
state, proposition assignments take the propositions in name order,
each subset an ascending bitmask over row-major cells, and nominal
placements take the nominals in name order, last nominal fastest, cells
row-major.  First states, and every successor under baseline and
optimized, vary the assignments outermost and the placements innermost;
those two make one pass per length, shorter traces first.  Motion's
successors vary the placements outermost and the assignments innermost,
and its one pass yields each prefix before it is extended.

The walk yields each trace with the number of leading states it shares
with the previous one.  :class:`CheckResult` progresses the checked
formula along the stream (:class:`~hstl.evaluator.Progression`) from
that prefix, and :meth:`_Context.decode_trace` reuses the states of the
last trace it decoded up to the prefix they share, so it decodes only
the states past it: one per trace under motion.  Every algorithm emits
the same (trace, points) pairs.

Every configuration passes :func:`make_config`, the one check of its
names and motion roles.  Generators are lazy single-consumer streams;
distinct runs may execute on parallel workers, and all shared inputs are
immutable.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, replace
from functools import cached_property, reduce
from typing import Callable, Iterable, Iterator, Sequence

from .core import Direction, GridGraph, Position, State, Trace, apply_path
from .errors import ValidationError
from .evaluator import EncodedState, Progression, _check_symbols, compile_formula
from .formula import AllDir, And, Formula, Top, desugar, is_core, validate_declarations
from .idioms import Assumption, AssumptionSet, Initial, lower, validate

StopCheck = Callable[[], bool] | None


class Algorithm(enum.Enum):
    BASELINE = "baseline"
    OPTIMIZED = "optimized"
    MOTION = "motion"


@dataclass(frozen=True)
class CheckerConfig:
    """Everything one checking run needs; build via :func:`make_config`."""

    grid: GridGraph
    props: tuple[str, ...]
    noms: tuple[str, ...]
    assumptions: AssumptionSet
    spec: Formula  # core constructors only
    max_len: int
    algorithm: Algorithm


def make_config(
    grid: GridGraph,
    props: Iterable[str],
    noms: Iterable[str],
    assumptions: AssumptionSet,
    spec: Formula,
    max_len: int,
    algorithm: Algorithm,
) -> CheckerConfig:
    """The one check of a configuration's names and roles; desugars the
    specification.  Rejects a length below 1, the declarations
    :func:`~hstl.formula.validate_declarations` rejects, an undeclared free
    symbol of the specification or of any assumption's lowering (a motion
    assumption's vehicles included), and the motion roles
    :func:`~hstl.idioms.validate` rejects."""
    props = tuple(sorted(set(props)))
    noms = tuple(sorted(set(noms)))
    if max_len < 1:
        raise ValidationError(f"max trace length must be >= 1, got {max_len}")
    validate_declarations(props, noms)
    for a in assumptions.assumptions:
        _check_symbols(lower(a), props, noms)
    validate(assumptions)
    core_spec = spec if is_core(spec) else desugar(spec, grid)
    _check_symbols(core_spec, props, noms)
    return CheckerConfig(grid, props, noms, assumptions, core_spec, max_len, algorithm)


# ---------------------------------------------------------------------------
# Compiled run context
# ---------------------------------------------------------------------------


def _all_prop_masks(n_pos: int, n_props: int) -> Iterator[tuple[int, ...]]:
    """Every proposition assignment, streamed in the order of
    ``itertools.product(range(1 << n_pos), repeat=n_props)`` (which would
    copy its masks up front)."""
    if n_props == 0:
        yield ()
        return
    masks = range(1 << n_pos)
    for head in _all_prop_masks(n_pos, n_props - 1):
        for m in masks:
            yield head + (m,)


def _fixed_successor_table(grid: GridGraph, moves) -> tuple[tuple[int, ...], ...]:
    """cell -> successor cells from which some move path reaches it.

    A move path points from the new cell back to the old one, so the
    successors of ``old`` are the cells reached by walking each path in
    reverse (which stays on-grid exactly when the forward walk does).
    """
    table = []
    for p in grid.positions():
        succ = set()
        for path in moves:
            inverse = tuple(d.opposite for d in reversed(path))
            q = apply_path(grid, p, inverse)
            if q is not None:
                succ.add(grid.index(q))
        table.append(tuple(sorted(succ)))
    return tuple(table)


class _Context:
    """Precomputed tables shared by the generators for one configuration."""

    def __init__(self, cfg: CheckerConfig):
        grid, props, noms = cfg.grid, cfg.props, cfg.noms
        self.cfg = cfg
        self.grid = grid
        self.P = grid.position_count
        self.props = props
        self.noms = noms
        self.nom_index = {n: i for i, n in enumerate(noms)}
        # Built from the assumptions this algorithm's generator enforces,
        # which :func:`make_config` has validated.
        unenforced = unenforced_assumptions(cfg.assumptions, cfg.algorithm)
        aset = AssumptionSet(a for a in cfg.assumptions.pruning_assumptions() if a not in unenforced)

        # Each check is (compiled formula, the slots it reads, its verdict
        # per value of those slots).
        self.global_checks = [self._state_check(a) for a in aset.global_states]
        self.initial_checks = [self._state_check(a) for a in aset.initials]

        # Motion tables: per non-dependent slot, the cells of the next state
        # per cell of the previous one.  A static nominal is a fixed one
        # whose only move is to stay; any other ranges over every cell.
        moves = {a.nominal: ((),) for a in aset.static_cars}
        moves.update((a.nominal, a.moves) for a in aset.fixed_motions)
        chained = {a.dependent: a for a in aset.relative_motions}
        every = tuple(range(self.P))
        self.non_dependent: list[int] = []
        self.next_cells: list[tuple[tuple[int, ...], ...]] = []
        self.dependents: list[tuple[int, int, tuple[int, ...]]] = []  # (slot, dependee slot, path table)
        for name, idx in self.nom_index.items():
            if name in chained:
                a = chained[name]
                table = tuple(
                    -1 if (q := apply_path(grid, p, a.path)) is None else grid.index(q)
                    for p in grid.positions()
                )
                self.dependents.append((idx, self.nom_index[a.dependee], table))
            else:
                self.non_dependent.append(idx)
                self.next_cells.append(
                    _fixed_successor_table(grid, moves[name]) if name in moves else (every,) * self.P
                )

        self._decoded: dict[EncodedState, State] = {}

    # -- state-level checks ---------------------------------------------------

    def _state_check(self, a: Assumption):
        compiled = compile_formula(desugar(lower(a), self.grid), self.grid, self.props, self.noms)
        return compiled, compiled.prop_slots, compiled.nom_slots, {}

    @staticmethod
    def _passes(checks, enc: EncodedState) -> bool:
        """Every check holds everywhere on the one-state trace ``enc``; each
        verdict is computed once per value of the slots its check reads."""
        masks, cells = enc
        for compiled, prop_slots, nom_slots, verdicts in checks:
            key = (tuple([masks[i] for i in prop_slots]), tuple([cells[i] for i in nom_slots]))
            verdict = verdicts.get(key)
            if verdict is None:
                verdict = verdicts[key] = compiled.holds_everywhere([enc])
            if not verdict:
                return False
        return True

    def passes_global(self, enc: EncodedState) -> bool:
        return self._passes(self.global_checks, enc)

    def passes_initial(self, enc: EncodedState) -> bool:
        return self._passes(self.initial_checks, enc)

    # -- encoding / decoding ----------------------------------------------------

    def decode(self, enc: EncodedState) -> State:
        cached = self._decoded.get(enc)
        if cached is None:
            masks, nom_cells = enc
            props = {
                name: frozenset(
                    self.grid.position_at(i) for i in range(self.P) if masks[k] >> i & 1
                )
                for k, name in enumerate(self.props)
            }
            noms = {name: self.grid.position_at(nom_cells[k]) for k, name in enumerate(self.noms)}
            cached = State(self.grid, props, noms)
            self._decoded[enc] = cached
        return cached

    _last: tuple[State, ...] = ()  # the states of the trace decoded last

    def decode_trace(self, enc_trace: Sequence[EncodedState], shared: int) -> Trace:
        """The trace of ``enc_trace``, whose first ``shared`` states are
        those of the trace this context decoded last: they are reused, and
        only the rest are decoded."""
        states = self._last[:shared] + tuple(map(self.decode, enc_trace[shared:]))
        self._last = states
        return Trace._trusted(states)

    # -- state enumeration --------------------------------------------------------

    def placements(self, choice_lists: Sequence[Sequence[int]]) -> Iterator[tuple[int, ...]]:
        """Nominal cells for each choice of the non-dependent slots, in
        product order, with the dependents completed; a choice pushing a
        dependent off-grid is skipped."""
        cells = [-1] * len(self.noms)
        for placement in itertools.product(*choice_lists):
            for idx, cell in zip(self.non_dependent, placement):
                cells[idx] = cell
            for dep, dependee, table in self.dependents:
                cells[dep] = table[cells[dependee]]
                if cells[dep] < 0:
                    break
            else:
                yield tuple(cells)

    def iter_states(self, stop: StopCheck = None) -> Iterator[EncodedState]:
        """Every state passing the global checks: proposition assignments
        outermost, then the placements over every cell with the dependents
        completed."""
        every = [range(self.P)] * len(self.non_dependent)
        for masks in _all_prop_masks(self.P, len(self.props)):
            for nom_cells in self.placements(every):
                if stop is not None and stop():
                    return
                enc = (masks, nom_cells)
                if self.passes_global(enc):
                    yield enc

    _states: list[EncodedState] | None = None  # every state passing the global checks, once listed

    def successors(self, state: EncodedState | None, stop: StopCheck = None) -> Iterable[EncodedState]:
        """The states that may follow ``state``, or start a trace if it is
        None (before the initial checks).  Under motion, the first states
        stream from :meth:`iter_states`, and a state's successors are the
        placements the successor tables allow from its cells (outermost, the
        stop check once each) times every proposition assignment, filtered
        by the global checks.  Otherwise every state :meth:`iter_states`
        yields, listed once, follows any state."""
        if self.cfg.algorithm is not Algorithm.MOTION:
            if self._states is None:
                self._states = list(self.iter_states(stop))
            return self._states
        return self.iter_states(stop) if state is None else self._moves(state[1], stop)

    @cached_property
    def _prop_masks(self) -> list[tuple[int, ...]]:
        return list(_all_prop_masks(self.P, len(self.props)))

    def _moves(self, cells: tuple[int, ...], stop: StopCheck) -> Iterator[EncodedState]:
        prop_masks = self._prop_masks
        filtered = bool(self.global_checks)  # with no check every candidate passes
        for nom_cells in self.placements([table[cells[i]] for i, table in zip(self.non_dependent, self.next_cells)]):
            if stop is not None and stop():
                return
            for masks in prop_masks:
                enc = (masks, nom_cells)
                if not filtered or self.passes_global(enc):
                    yield enc


# ---------------------------------------------------------------------------
# Closed forms
# ---------------------------------------------------------------------------


def state_count(g: GridGraph, n_props: int, n_noms: int) -> int:
    """|states| = 2^(cells * props) * cells^noms."""
    return (1 << (g.position_count * n_props)) * g.position_count**n_noms


def baseline_trace_count(g: GridGraph, n_props: int, n_noms: int, max_len: int) -> int:
    """Closed form for the baseline stream: sum of S^k for k = 1..max_len."""
    s = state_count(g, n_props, n_noms)
    return sum(s**k for k in range(1, max_len + 1))


# ---------------------------------------------------------------------------
# Trace generators
# ---------------------------------------------------------------------------


def _iter_encoded(ctx: _Context, stop: StopCheck = None) -> Iterator[tuple[tuple[EncodedState, ...], int]]:
    """The one walk: depth-first over :meth:`_Context.successors` from the
    first states, on an explicit stack.  Motion makes one pass to
    ``max_len`` and yields each prefix before its extensions; the others
    make one pass per length and yield the traces of that length only.

    Each yield is ``(trace, shared)``: the first ``shared`` states of
    ``trace`` are those of the previous yield.  Between two yields the
    walk pops and then pushes, so ``shared`` is the trace's length after
    the last pop: ``len(trace) - 1`` under motion, and 0 at the first
    yield of each pass."""
    n = ctx.cfg.max_len
    every_prefix = ctx.cfg.algorithm is Algorithm.MOTION
    for k in (n,) if every_prefix else range(1, n + 1):
        trace: list[EncodedState] = []
        shared = 0
        stack = [filter(ctx.passes_initial, ctx.successors(None, stop))]  # per position, its states left
        while stack:
            for state in stack[-1]:
                trace.append(state)
                if every_prefix or len(trace) == k:
                    yield tuple(trace), shared
                    shared = len(trace)
                if len(trace) < k:
                    stack.append(iter(ctx.successors(state, stop)))
                    break
                trace.pop()
                shared = len(trace)
            else:
                stack.pop()
                if trace:
                    trace.pop()
                    shared = len(trace)


def _traces(cfg: CheckerConfig) -> Iterator[Trace]:
    ctx = _Context(cfg)
    return (ctx.decode_trace(enc_trace, shared) for enc_trace, shared in _iter_encoded(ctx))


def generate_traces_baseline(cfg: CheckerConfig) -> Iterator[Trace]:
    """All state sequences of length 1..max_len, shorter first; the
    assumptions are ignored whatever ``cfg.algorithm`` says."""
    return _traces(replace(cfg, algorithm=Algorithm.BASELINE))


def generate_traces_optimized(cfg: CheckerConfig) -> Iterator[Trace]:
    """Baseline restricted to states passing the global (and, for the first
    state, initial) assumptions."""
    return _traces(replace(cfg, algorithm=Algorithm.OPTIMIZED))


def generate_traces_motion(cfg: CheckerConfig) -> Iterator[Trace]:
    """Depth-first extension guided by the motion assumptions; yields exactly
    the traces of length 1..max_len satisfying every non-raw assumption
    except the global-state formulas with a nested G, which it leaves to
    the checked formula (see :class:`~hstl.idioms.GlobalState`)."""
    return _traces(replace(cfg, algorithm=Algorithm.MOTION))


def unenforced_assumptions(aset: AssumptionSet, algorithm: Algorithm) -> tuple[Assumption, ...]:
    """The pruning assumptions, in canonical order, that ``algorithm``'s
    generator does not make hold at every cell of every trace it yields:
    all for baseline, all but the initial and state-local global ones for
    optimized, and for motion only the global ones with a nested G, which
    the per-state filter leaves out."""
    if algorithm is Algorithm.BASELINE:
        return aset.pruning_assumptions()
    nested = tuple(a for a in aset.global_states if not a.state_local)
    if algorithm is Algorithm.MOTION:
        return nested
    return nested + aset.static_cars + aset.fixed_motions + aset.relative_motions


def conjoin(parts: Sequence[Formula]) -> Formula:
    """``parts`` joined by left-nested ``And``; ``Top()`` when empty."""
    return reduce(And, parts) if parts else Top()


def checked_formula(cfg: CheckerConfig) -> Formula:
    """The formula :class:`CheckResult` checks, desugared: the lowered
    :func:`unenforced_assumptions`, every raw formula, then ``cfg.spec``.

    Each conjunct left out holds at every cell of every trace the
    generator yields, so ``A & S`` holds at a cell exactly when ``S``
    does, and every algorithm emits the (trace, points) pairs of the full
    conjunction.  An initial assumption ``A`` is filtered at every start
    cell, so where its truth reads the start cell the conjunct is "``A``
    at every cell": ``R & [Back] R & [Front] R`` with
    ``R = A & [Left] A & [Right] A``."""
    grid, parts = cfg.grid, []
    for a in unenforced_assumptions(cfg.assumptions, cfg.algorithm):
        f = desugar(lower(a), grid)
        if isinstance(a, Initial) and compile_formula(f, grid, cfg.props, cfg.noms).tables()[0][0]:
            row = And(And(f, AllDir(Direction.LEFT, None, f)), AllDir(Direction.RIGHT, None, f))
            f = desugar(And(And(row, AllDir(Direction.BACK, None, row)), AllDir(Direction.FRONT, None, row)), grid)
        parts.append(f)
    parts += [desugar(a.formula, grid) for a in cfg.assumptions.raws]
    return conjoin(parts + [cfg.spec])


# ---------------------------------------------------------------------------
# Satisfaction search
# ---------------------------------------------------------------------------


class CheckResult:
    """Lazy stream of (trace, satisfying start cells of
    :func:`checked_formula`) with live counters.

    Each trace is progressed from the prefix the walk reports it shares
    with the previous one (one new state under motion), with steps
    memoized for the life of the result.  A satisfying trace is decoded
    past the prefix it shares with the last one emitted: the smallest
    shared prefix reported since then.  ``traces_generated`` counts
    every candidate the generator yielded (prefixes included);
    ``traces_satisfying`` counts emissions.
    Both are valid snapshots at any point during consumption and final
    once the stream is exhausted.  ``interrupted`` is set when a stop
    check cut the run short.
    """

    def __init__(self, cfg: CheckerConfig, stop: StopCheck = None):
        self.cfg = cfg
        self.traces_generated = 0
        self.traces_satisfying = 0
        self.interrupted = False
        self._ctx = _Context(cfg)
        self._compiled = compile_formula(checked_formula(cfg), cfg.grid, cfg.props, cfg.noms)
        self._stop = stop
        self._iter = self._run()

    def __iter__(self) -> Iterator[tuple[Trace, frozenset[Position]]]:
        return self._iter

    def _run(self):
        ctx = self._ctx
        raw_stop = self._stop
        if raw_stop is None:
            stop = None
        else:

            def stop() -> bool:  # records that the cut actually happened
                if raw_stop():
                    self.interrupted = True
                    return True
                return False

        progression = Progression(self._compiled)
        stack = [progression.initial]  # per prefix length of the previous trace, the vector after it
        decoded = 0  # leading states shared with the last trace decoded
        for enc_trace, shared in _iter_encoded(ctx, stop):
            if stop is not None and stop():
                return
            self.traces_generated += 1
            del stack[shared + 1 :]
            for state in enc_trace[shared:]:
                stack.append(progression.step(stack[-1], state))
            if shared < decoded:
                decoded = shared
            points = progression.accepted[stack[-1]]
            if points:
                self.traces_satisfying += 1
                yield ctx.decode_trace(enc_trace, decoded), points
                decoded = len(enc_trace)


def sat_traces(cfg: CheckerConfig, stop: StopCheck = None) -> CheckResult:
    """Run the configured generator and emit traces whose checked formula
    holds somewhere, paired with exactly those start positions."""
    return CheckResult(cfg, stop)

