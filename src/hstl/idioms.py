"""Structured motion-modeling assumptions and their formula lowerings.

Six assumption kinds are supported.  Four of them drive search-space
pruning in the checkers:

* global state — a per-state constraint, held at all times,
* static car — a nominal that never moves,
* relative motion — a nominal chained to another by a fixed move path,
* fixed motion — a nominal whose per-step moves come from a fixed set.

Two more route constraints that the pruning machinery cannot exploit:

* initial — a temporal-operator-free constraint on the first state,
* raw — an arbitrary formula conjoined into the checked specification
  and never used for pruning.

A fixed-motion move path is read from the nominal's *new* position back
to its old one, mirroring the lowered formula: ``()`` means "stay" and
``(Back,)`` means "the new cell's Back neighbor is the old cell", i.e.
the car advanced one row.

Internally generated nominals use the reserved ``_`` prefix, which the
parser bars from user names, so capture is impossible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .core import Direction
from .errors import ValidationError
from .formula import (
    At,
    Bind,
    Eventually,
    Formula,
    Globally,
    Next,
    Nom,
    Or,
    Spatial,
    Until,
    WeakNext,
    children,
)

FRESH_NOMINAL = "_w"

MovePath = tuple[Direction, ...]


def _contains_temporal(f: Formula, allow_globally: bool) -> bool:
    if isinstance(f, (Next, Until, Eventually, WeakNext)):
        return True
    if isinstance(f, Globally) and not allow_globally:
        return True
    return any(_contains_temporal(c, allow_globally) for c in children(f))


def _check_path(path: Iterable[Direction], what: str) -> MovePath:
    path = tuple(path)
    for step in path:
        if not isinstance(step, Direction):
            raise ValidationError(f"{what}: move paths may contain only directions, got {step!r}")
    return path


@dataclass(frozen=True)
class GlobalState:
    """``viewpoint``'s constraint ``formula`` holds in every state.

    The constraint is evaluated from the viewpoint nominal's own cell,
    which makes its truth value independent of where evaluation starts.
    ``formula`` may use G but no other temporal operator.  When
    ``formula`` has no G (:attr:`state_local`), each state decides it
    alone, and the optimized and motion checkers filter it one state at a
    time.  One state cannot decide a nested G, so such a formula is never
    filtered: the checked formula keeps it under every algorithm.
    """

    viewpoint: str
    formula: Formula

    def __post_init__(self):
        if _contains_temporal(self.formula, allow_globally=True):
            raise ValidationError(
                f"global state assumption on {self.viewpoint!r}: "
                "only G is allowed among temporal operators"
            )

    @property
    def state_local(self) -> bool:
        """Whether ``formula`` has no G, so each state decides it alone."""
        return not _contains_temporal(self.formula, allow_globally=False)


@dataclass(frozen=True)
class StaticCar:
    """``nominal`` occupies the same cell in every state."""

    nominal: str


@dataclass(frozen=True)
class RelativeMotion:
    """``dependent`` always sits at ``path`` applied to ``dependee``'s cell."""

    dependee: str
    dependent: str
    path: MovePath

    def __post_init__(self):
        object.__setattr__(self, "path", _check_path(self.path, "relative motion"))
        if self.dependee == self.dependent:
            raise ValidationError(f"nominal {self.dependee!r} cannot depend on itself")


@dataclass(frozen=True)
class FixedMotion:
    """Each step, ``nominal``'s new cell reaches its old cell by some path in ``moves``."""

    nominal: str
    moves: frozenset[MovePath]

    def __post_init__(self):
        moves = frozenset(_check_path(m, "fixed motion") for m in self.moves)
        if not moves:
            raise ValidationError(f"fixed motion for {self.nominal!r} needs at least one move")
        object.__setattr__(self, "moves", moves)

    def sorted_moves(self) -> tuple[MovePath, ...]:
        return tuple(sorted(self.moves, key=lambda m: (len(m), [d.value for d in m])))


@dataclass(frozen=True)
class Initial:
    """A temporal-operator-free constraint on the first state, which must
    hold at every cell of it.

    The optimized and motion generators filter first states at every
    cell, and baseline checks "``formula`` at every cell" where its truth
    reads the start cell (see :func:`~hstl.checkers.checked_formula`).
    Anchored at a nominal (``@v ...``), it reads no start cell.
    """

    formula: Formula

    def __post_init__(self):
        if _contains_temporal(self.formula, allow_globally=False):
            raise ValidationError("initial assumptions must not contain temporal operators")


@dataclass(frozen=True)
class Raw:
    """Conjoined into the checked specification; never prunes generation."""

    formula: Formula


Assumption = GlobalState | StaticCar | RelativeMotion | FixedMotion | Initial | Raw


@dataclass(frozen=True)
class AssumptionSet:
    """Assumptions partitioned by kind, in declaration order within kinds."""

    assumptions: tuple[Assumption, ...]

    def __init__(self, assumptions: Iterable[Assumption] = ()):
        object.__setattr__(self, "assumptions", tuple(assumptions))

    def _of(self, kind) -> tuple:
        return tuple(a for a in self.assumptions if isinstance(a, kind))

    @property
    def global_states(self) -> tuple[GlobalState, ...]:
        return self._of(GlobalState)

    @property
    def static_cars(self) -> tuple[StaticCar, ...]:
        return self._of(StaticCar)

    @property
    def relative_motions(self) -> tuple[RelativeMotion, ...]:
        return self._of(RelativeMotion)

    @property
    def fixed_motions(self) -> tuple[FixedMotion, ...]:
        return self._of(FixedMotion)

    @property
    def initials(self) -> tuple[Initial, ...]:
        return self._of(Initial)

    @property
    def raws(self) -> tuple[Raw, ...]:
        return self._of(Raw)

    def pruning_assumptions(self) -> tuple[Assumption, ...]:
        """Everything except Raw, in the canonical lowering order."""
        return (
            self.initials
            + self.global_states
            + self.static_cars
            + self.fixed_motions
            + self.relative_motions
        )


# ---------------------------------------------------------------------------
# Lowering to formulas
# ---------------------------------------------------------------------------


def _spatial_chain(path: MovePath, inner: Formula) -> Formula:
    for d in reversed(path):
        inner = Spatial(d, inner)
    return inner


def lower(a: Assumption) -> Formula:
    """The formula an assumption denotes.  May contain sugar; desugar before eval."""
    if isinstance(a, GlobalState):
        return Globally(At(a.viewpoint, a.formula))
    if isinstance(a, StaticCar):
        v = a.nominal
        return At(v, Bind(FRESH_NOMINAL, Globally(At(v, Nom(FRESH_NOMINAL)))))
    if isinstance(a, RelativeMotion):
        return Globally(At(a.dependee, _spatial_chain(a.path, Nom(a.dependent))))
    if isinstance(a, FixedMotion):
        moves = a.sorted_moves()
        disjunction: Formula = _spatial_chain(moves[0], Nom(FRESH_NOMINAL))
        for m in moves[1:]:
            disjunction = Or(disjunction, _spatial_chain(m, Nom(FRESH_NOMINAL)))
        v = a.nominal
        return Globally(At(v, Bind(FRESH_NOMINAL, WeakNext(At(v, disjunction)))))
    if isinstance(a, (Initial, Raw)):
        return a.formula
    raise ValidationError(f"unknown assumption kind {type(a).__name__}")


# ---------------------------------------------------------------------------
# Role validation (the motion checker's preconditions)
# ---------------------------------------------------------------------------


_ROLES = {StaticCar: "static", FixedMotion: "fixed", RelativeMotion: "dependent"}


def validate(aset: AssumptionSet) -> None:
    """Check the motion roles the motion checker relies on: each nominal is
    static, fixed, or the dependent of one relative motion, or else the
    dependee of any number of them; exact duplicates are harmless.  Purely
    structural and independent of assumption order: unsatisfiable
    combinations simply generate no traces.  Names are checked by
    :func:`~hstl.checkers.make_config`."""
    held: dict[str, set[Assumption]] = {}  # nominal -> the assumptions giving it a role
    for a in aset.static_cars + aset.fixed_motions + aset.relative_motions:
        held.setdefault(a.dependent if isinstance(a, RelativeMotion) else a.nominal, set()).add(a)
    dependees = {a.dependee for a in aset.relative_motions}
    problems = []
    for name, claims in sorted(held.items()):
        roles = sorted({_ROLES[type(a)] for a in claims} | ({"dependee"} if name in dependees else set()))
        if roles == ["dependent"] and len(claims) > 1:
            problems.append(f"nominal {name!r} appears as dependent in more than one relative motion assumption")
        elif len(roles) > 1 or len(claims) > 1:
            pairs = " and ".join(roles) if len(roles) > 1 else f"{roles[0]} (twice)"
            problems.append(f"nominal {name!r} is assigned conflicting motion roles: {pairs}")
    if problems:
        raise ValidationError("inconsistent assumption set: " + "; ".join(problems))
