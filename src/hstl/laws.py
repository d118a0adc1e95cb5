"""Exhaustive checking of the logic's validities and non-validities.

The validities cover four groups: orthogonal spatial moves commute,
unit-square loops return to the start, temporal operators commute with
(and until distributes over) each spatial move, and the hybrid laws for
``@`` and the binder.  Each law is a concrete formula over one
proposition ``q`` and two nominals ``a`` and ``b``; a law holds on a
model when it is true at every start cell.  The suite checks every
model within the given bounds: all grids up to max_rows x max_cols and
all traces up to max_len over the full state space.

The non-validities are refutable schemes — ``@`` is time-sensitive and
neither ``@`` nor the binder commutes with the future or spatial
modalities.

Every law goes through the same search: the baseline satisfaction
stream of its negation, grid by grid, stopping at the first emission.
That trace and its lowest-index satisfying cell are the countermodel;
a validity holds when the search finds none.
"""

from __future__ import annotations

from dataclasses import dataclass

from .checkers import Algorithm, make_config, sat_traces
from .core import GridGraph, Position, Trace, make_grid
from .errors import ValidationError
from .formula import Not, parse
from .idioms import AssumptionSet

_PROPS = frozenset({"q"})
_NOMS = frozenset({"a", "b"})


def validity_laws() -> list[tuple[str, str]]:
    """Name/formula pairs that must hold on every model."""
    laws = [
        ("commute_front_right", "Front Right q <-> Right Front q"),
        ("commute_front_left", "Front Left q <-> Left Front q"),
        ("commute_back_right", "Back Right q <-> Right Back q"),
        ("commute_back_left", "Back Left q <-> Left Back q"),
        ("loop_frbl", "Front Right Back Left q -> q"),
        ("loop_rflb", "Right Front Left Back q -> q"),
        ("loop_flbr", "Front Left Back Right q -> q"),
        ("loop_brfl", "Back Right Front Left q -> q"),
    ]
    for d in ("Front", "Back", "Left", "Right"):
        laws.append((f"next_commutes_{d.lower()}", f"X {d} q <-> {d} X q"))
        laws.append((f"future_commutes_{d.lower()}", f"F {d} q <-> {d} F q"))
        laws.append((f"always_commutes_{d.lower()}", f"G {d} q <-> {d} G q"))
        laws.append((f"until_distributes_{d.lower()}", f"{d} (q U b) <-> (({d} q) U ({d} b))"))
    laws += [
        ("bind_here", "↓a a"),
        ("at_self", "@a a"),
        ("at_symmetry", "@a b -> @b a"),
        ("at_transfer", "(@a b & @a q) -> @b q"),
        ("bind_at_intro", "↓a (q | a) <-> ↓a @a (q | a)"),
        ("bind_commutes_next", "↓a X (q | a) <-> X ↓a (q | a)"),
        ("bind_commutes_future", "↓a F (q | a) <-> F ↓a (q | a)"),
        ("bind_commutes_always", "↓a G (q | a) <-> G ↓a (q | a)"),
        ("bind_distributes_until", "↓a ((q | a) U (b | a)) <-> ((↓a (q | a)) U (↓a (b | a)))"),
    ]
    return laws


def non_validity_laws() -> list[tuple[str, str]]:
    """Refutable schemes; a countermodel must exist within small bounds."""
    return [
        ("at_is_time_sensitive", "@a q -> X @a q"),
        ("at_future_no_commute", "@a F q <-> F @a q"),
        ("at_spatial_no_commute", "@a Front q <-> Front @a q"),
        ("bind_spatial_no_commute", "↓a Front a <-> Front ↓a a"),
    ]


@dataclass(frozen=True)
class Countermodel:
    grid: GridGraph
    trace: Trace
    position: Position


@dataclass(frozen=True)
class LawOutcome:
    """A law and the first model falsifying it, if the search found one."""

    name: str
    countermodel: Countermodel | None

    @property
    def holds(self) -> bool:
        return self.countermodel is None


@dataclass(frozen=True)
class ValidityReport:
    validities: tuple[LawOutcome, ...]
    non_validities: tuple[LawOutcome, ...]

    @property
    def all_pass(self) -> bool:
        return all(v.holds for v in self.validities) and not any(s.holds for s in self.non_validities)

    def summary(self) -> str:
        lines = []
        for v in self.validities:
            lines.append(f"{'pass' if v.holds else 'FAIL'}  validity      {v.name}")
            if not v.holds:
                lines.append(f"      counterexample: {v.countermodel}")
        for s in self.non_validities:
            lines.append(f"{'FAIL' if s.holds else 'pass'}  non-validity  {s.name}")
            if not s.holds:
                c = s.countermodel
                lines.append(
                    f"      falsified on {c.grid.rows}x{c.grid.cols} at {c.position}: {c.trace}"
                )
        return "\n".join(lines)


def _grids(max_rows: int, max_cols: int):
    for rows in range(1, max_rows + 1):
        for cols in range(1, max_cols + 1):
            yield make_grid(rows, cols)


def _countermodel(text: str, max_rows: int, max_cols: int, max_len: int) -> Countermodel | None:
    """The first model, grid by grid in baseline order, on which the law
    fails at some cell; None when it holds on every model."""
    refutation = Not(parse(text, _PROPS, _NOMS))
    for g in _grids(max_rows, max_cols):
        cfg = make_config(g, _PROPS, _NOMS, AssumptionSet(), refutation, max_len, Algorithm.BASELINE)
        for trace, points in sat_traces(cfg):
            return Countermodel(g, trace, min(points, key=g.index))
    return None


def validity_suite(max_rows: int, max_cols: int, max_len: int) -> ValidityReport:
    """Check every validity and search every non-validity within bounds."""
    if max_rows < 1 or max_cols < 1 or max_len < 1:
        raise ValidationError("validity suite bounds must all be >= 1")

    def search(laws):
        return tuple(LawOutcome(name, _countermodel(text, max_rows, max_cols, max_len)) for name, text in laws)

    return ValidityReport(validities=search(validity_laws()), non_validities=search(non_validity_laws()))
