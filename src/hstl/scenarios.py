"""Scenario definitions: file schema and the built-in suite.

A scenario bundles a grid, declared symbols, a set of assumptions (each
tagged with the pruning kind the checkers should use for it), the
specification formulas, and a maximum trace length.  Everything the
checkers consume is derived from this one structure, and every built-in
scenario is value-identical to its JSON serialization.  This module checks
a file's schema only: :func:`~hstl.harness.build_config` parses the formulas
and checks names and roles through :func:`~hstl.checkers.make_config`.

Classification notes.  The built-in scenarios pin down, per scenario,
which of their constraint formulas are handed to the pruning machinery
as structured idioms and which ride along as raw conjuncts.  The rule
of thumb applied throughout: an unconditional per-step movement pattern
becomes a fixed-motion assumption; an always-on lane constraint becomes
a global-state assumption; conditional movement rules (behavior that
depends on where the other cars are) and one-shot start constraints
stay raw unless noted otherwise.  Raw conjuncts never prune, so this
classification trades generator selectivity for fidelity, and the
satisfying-trace counts are unaffected either way.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from .core import Direction, GridGraph, make_grid, read_field, read_json, read_strings
from .errors import ValidationError
from .formula import Formula, parse
from .idioms import (
    Assumption,
    AssumptionSet,
    FixedMotion,
    GlobalState,
    Initial,
    Raw,
    RelativeMotion,
    StaticCar,
)

KINDS = ("global", "static", "relative", "fixed", "initial", "raw")


@dataclass(frozen=True)
class ScenarioAssumption:
    """One assumption as it appears in a scenario file.

    ``kind`` selects which fields are meaningful: ``nominal`` +
    ``formula`` for global, ``nominal`` for static, ``dependee`` /
    ``dependent`` / ``path`` for relative, ``nominal`` + ``moves`` for
    fixed, and ``formula`` alone for initial and raw.  Move paths and
    the relative path use direction names; the empty path means "stay".
    """

    kind: str
    nominal: str | None = None
    formula: str | None = None
    dependee: str | None = None
    dependent: str | None = None
    path: tuple[str, ...] | None = None
    moves: tuple[tuple[str, ...], ...] | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValidationError(f"unknown assumption kind {self.kind!r}; expected one of {KINDS}")


@dataclass(frozen=True)
class Scenario:
    name: str
    grid: GridGraph
    propositions: tuple[str, ...]
    nominals: tuple[str, ...]
    assumptions: tuple[ScenarioAssumption, ...]
    specification: tuple[str, ...]
    max_trace_length: int

    def __post_init__(self):
        if self.max_trace_length < 1:
            raise ValidationError(f"scenario {self.name!r}: max trace length must be >= 1, got {self.max_trace_length}")


def _parse_path(names, what: str) -> tuple[Direction, ...]:
    try:
        return tuple(Direction(n) for n in names)
    except ValueError as exc:
        raise ValidationError(f"{what}: unknown direction in {list(names)!r}") from exc


def to_assumption(sa: ScenarioAssumption, props: tuple[str, ...], noms: tuple[str, ...]) -> Assumption:
    """Turn a file-form assumption into its structured counterpart."""

    def need(attr: str):
        value = getattr(sa, attr)
        if value is None:
            raise ValidationError(f"{sa.kind!r} assumption needs a {attr!r} field")
        return value

    def need_formula() -> Formula:
        return parse(need("formula"), props, noms)

    if sa.kind == "global":
        return GlobalState(need("nominal"), need_formula())
    if sa.kind == "static":
        return StaticCar(need("nominal"))
    if sa.kind == "relative":
        return RelativeMotion(
            need("dependee"),
            need("dependent"),
            _parse_path(need("path"), "relative motion path"),
        )
    if sa.kind == "fixed":
        moves = frozenset(_parse_path(m, "fixed motion move") for m in need("moves"))
        return FixedMotion(need("nominal"), moves)
    if sa.kind == "initial":
        return Initial(need_formula())
    return Raw(need_formula())


def compile_assumption_set(s: Scenario) -> AssumptionSet:
    return AssumptionSet(to_assumption(sa, s.propositions, s.nominals) for sa in s.assumptions)


def parse_specification(s: Scenario) -> tuple[Formula, ...]:
    return tuple(parse(text, s.propositions, s.nominals) for text in s.specification)


# ---------------------------------------------------------------------------
# JSON round trip
# ---------------------------------------------------------------------------


def scenario_to_json_dict(s: Scenario) -> dict:
    assumptions = []
    for sa in s.assumptions:
        entry: dict = {"kind": sa.kind}
        if sa.nominal is not None:
            entry["nominal"] = sa.nominal
        if sa.formula is not None:
            entry["formula"] = sa.formula
        if sa.dependee is not None:
            entry["dependee"] = sa.dependee
            entry["dependent"] = sa.dependent
            entry["path"] = list(sa.path)
        if sa.moves is not None:
            entry["moves"] = [list(m) for m in sa.moves]
        assumptions.append(entry)
    return {
        "name": s.name,
        "grid": {"rows": s.grid.rows, "cols": s.grid.cols},
        "propositions": list(s.propositions),
        "nominals": list(s.nominals),
        "assumptions": assumptions,
        "specification": list(s.specification),
        "max_trace_length": s.max_trace_length,
    }


def scenario_from_json_dict(doc: dict) -> Scenario:
    what = "scenario document"
    grid_doc = read_field(doc, "grid", what, dict)
    assumptions = []
    for i, entry in enumerate(read_field(doc, "assumptions", what)):
        where = f"assumption {i}"
        if not isinstance(entry, dict) or "kind" not in entry:
            raise ValidationError(f"{where}: each assumption needs a 'kind'")
        stray = set(entry) - {"kind", "nominal", "formula", "dependee", "dependent", "path", "moves"}
        if stray:
            raise ValidationError(f"{where}: unknown fields {sorted(stray)}")
        names = {k: read_field(entry, k, where, str) for k in ("nominal", "dependee", "dependent") if k in entry}
        path = tuple(read_field(entry, "path", where)) if "path" in entry else None
        moves = read_field(entry, "moves", where) if "moves" in entry else None
        if moves is not None:
            moves = tuple(tuple(read_field(moves, k, f"{where}: 'moves'")) for k in range(len(moves)))
        try:
            assumptions.append(
                ScenarioAssumption(
                    kind=entry["kind"],
                    formula=entry.get("formula"),
                    path=path,
                    moves=moves,
                    **names,
                )
            )
        except ValidationError as exc:
            raise ValidationError(f"{where}: {exc}") from exc
    return Scenario(
        name=str(read_field(doc, "name", what, object)),
        grid=make_grid(read_field(grid_doc, "rows", "'grid'", int), read_field(grid_doc, "cols", "'grid'", int)),
        propositions=read_strings(doc, "propositions", what),
        nominals=read_strings(doc, "nominals", what),
        assumptions=tuple(assumptions),
        specification=read_strings(doc, "specification", what),
        max_trace_length=read_field(doc, "max_trace_length", what, int),
    )


def load_scenario(path) -> Scenario:
    """Read a scenario file and check its schema; its formulas, names and
    roles are checked by :func:`~hstl.harness.build_config`."""
    return scenario_from_json_dict(read_json(path))


def save_scenario(s: Scenario, path) -> None:
    Path(path).write_text(
        json.dumps(scenario_to_json_dict(s), indent=2, ensure_ascii=False) + "\n",
        encoding="utf-8",
    )


# ---------------------------------------------------------------------------
# Built-in scenarios
# ---------------------------------------------------------------------------

# The conditional "advance when the cell ahead is free, otherwise wait
# behind the blocker" rule shared by the follow and crossing scenarios.
# It constrains the move *conditionally* on the other car, so it cannot
# be a fixed-motion idiom and stays a raw conjunct.
_CONDITIONAL_ADVANCE = "G (@z0 ↓z2 ((! X 1) | X (@z0 ((!z1 & Back z2) | (z2 & Front z1)))))"


def left_right() -> Scenario:
    """A plain spatial sanity formula: sideways moves commute.

    No assumptions; every generated trace satisfies the specification at
    every cell, so all three algorithms emit the whole space.
    """
    return Scenario(
        name="left_right",
        grid=make_grid(3, 3),
        propositions=(),
        nominals=("z",),
        assumptions=(),
        specification=("G(Left(Right(z)) <-> Right(Left(z)))",),
        max_trace_length=3,
    )


def same_name() -> Scenario:
    """Two nominals forced to share a cell at all times.

    The co-location constraint is a textbook global-state assumption
    (per-state, viewpoint-independent), so it doubles as one: the
    specification keeps the formula for readability and the assumption
    lets the pruning algorithms restrict to co-located states.
    """
    return Scenario(
        name="same_name",
        grid=make_grid(3, 3),
        propositions=(),
        nominals=("z", "z1"),
        assumptions=(ScenarioAssumption(kind="global", nominal="z", formula="z1"),),
        specification=("G (@z z1)",),
        max_trace_length=3,
    )


def one_lane_follow(road_length: int = 3, duration: int = 3) -> Scenario:
    """Follow a lead car down a single-lane road without collisions.

    Classification: the lead car's stay-or-advance rule is a fixed
    motion assumption ((), (Back,)); the subject's start cell is an
    initial assumption, so it prunes the initial states; the subject's
    conditional advance rule stays raw.
    """
    if road_length < 1:
        raise ValidationError("one_lane_follow needs road_length >= 1")
    return Scenario(
        name=f"one_lane_follow({road_length})",
        grid=make_grid(road_length, 1),
        propositions=(),
        nominals=("z0", "z1"),
        assumptions=(
            ScenarioAssumption(kind="initial", formula="@z0 !(Back 1)"),
            ScenarioAssumption(kind="fixed", nominal="z1", moves=((), ("Back",))),
            ScenarioAssumption(kind="raw", formula=_CONDITIONAL_ADVANCE),
        ),
        specification=("G(!(@z0 z1))",),
        max_trace_length=duration,
    )


def hazard(duration: int = 2) -> Scenario:
    """Swerve around a static road hazard while another car sits nearby.

    Everything lives in one specification formula over a 2x2 grid with
    the hazard proposition ``h``; there are no assumptions, so this
    scenario deliberately offers the pruning algorithms nothing to work
    with and stresses raw proposition enumeration.
    """
    ahead_blocked = "<Front> (G h)"  # hazard somewhere ahead, for good
    advance_clear = "(@z0 ↓z2 X @z0 ((Back z2) & (G ! h)))"
    merge_right = "(@z0 ↓z2 X @z0 ((Left z2) & <Front> z1 & [Front] (G ! h)))"
    spec = f"@z0 (((Right z1) & {ahead_blocked}) & (({advance_clear}) U ({merge_right})))"
    return Scenario(
        name=f"hazard({duration})",
        grid=make_grid(2, 2),
        propositions=("h",),
        nominals=("z0", "z1"),
        assumptions=(),
        specification=(spec,),
        max_trace_length=duration,
    )


def intersection(size: int = 2) -> Scenario:
    """Cross an intersection where left-to-right traffic has priority.

    Grid size and crossing time scale in unison.  Classification: the
    cross car's always-advance rule is a fixed motion assumption
    ((Left,): its new cell's Left neighbor is its old cell); both start
    constraints and the subject's conditional advance rule stay raw, so
    the motion generator prunes on the cross car's movement alone.
    """
    if size < 1:
        raise ValidationError("intersection needs size >= 1")
    return Scenario(
        name=f"intersection({size})",
        grid=make_grid(size, size),
        propositions=(),
        nominals=("z0", "z1"),
        assumptions=(
            ScenarioAssumption(kind="raw", formula="@z1 !(Left 1)"),
            ScenarioAssumption(kind="raw", formula="@z0 !(Back 1)"),
            ScenarioAssumption(kind="fixed", nominal="z1", moves=(("Left",),)),
            ScenarioAssumption(kind="raw", formula=_CONDITIONAL_ADVANCE),
        ),
        specification=("G(!(@z0 z1))",),
        max_trace_length=size,
    )


def passing(duration: int = 2) -> Scenario:
    """Overtake a slower car: pull out, accelerate, merge back.

    Classification: the other car's lane discipline is a global-state
    assumption and its stay-or-advance rule a fixed motion assumption;
    the subject's start cells and its staged passing maneuver (an
    until-chain) stay raw.
    """
    forward = "(@z0 ↓z2 ((! X 1) | X @z0 (Back z2)))"
    dodge_left = "(@z0 ↓z2 ((Front z1) & ((! X 1) | X (@z0 (Back (Right z2))))))"
    fast_forward = "(@z0 ↓z2 ((! X 1) | X @z0 (Back (Back z2))))"
    dodge_right = "(@z0 ↓z2 ((! X 1) | X @z0 (Back (Left z2))))"
    maneuver = (
        f"({forward} U ({dodge_left} & ((! X 1) | X ({fast_forward} & ((! X 1) | X "
        f"({fast_forward} U ({dodge_right} & ((! X 1) | X G ({forward})))))))))"
    )
    return Scenario(
        name=f"passing({duration})",
        grid=make_grid(4, 2),
        propositions=(),
        nominals=("z0", "z1"),
        assumptions=(
            ScenarioAssumption(kind="global", nominal="z1", formula="!(Right 1)"),
            ScenarioAssumption(kind="raw", formula="@z0 !(Right 1)"),
            ScenarioAssumption(kind="raw", formula="@z0 !(Back 1)"),
            ScenarioAssumption(kind="fixed", nominal="z1", moves=((), ("Back",))),
            ScenarioAssumption(kind="raw", formula=maneuver),
        ),
        specification=("G(!(@z0 z1))",),
        max_trace_length=duration,
    )


def platoon(size: int = 2, road_length: int = 5, duration: int = 3) -> Scenario:
    """Join a platoon of vehicles cruising in the neighboring lane.

    ``size`` counts the platoon vehicles z1..z{size}; z0 is the joining
    car.  Classification: each platoon vehicle gets a fixed motion
    assumption (always advance) and a global-state lane constraint; the
    joining car's start cell and its conditional join rule stay raw.
    """
    if size < 2:
        raise ValidationError("platoon needs at least 2 vehicles")
    members = [f"z{i + 1}" for i in range(size)]
    no_collide = "!(" + "|".join(members) + ")"
    some_front = "|".join(f"Front {n}" for n in members)
    join_rule = (
        f"G(@z0 ↓z ((! X 1) | (X @z0 ((Back z) | (({some_front}) & (Right z) & ({no_collide}))))))"
    )
    per_member: list[ScenarioAssumption] = []
    for n in members:
        per_member.append(ScenarioAssumption(kind="fixed", nominal=n, moves=(("Back",),)))
        per_member.append(ScenarioAssumption(kind="global", nominal=n, formula="!(Left 1)"))
    return Scenario(
        name=f"platoon({size})",
        grid=make_grid(road_length, 2),
        propositions=(),
        nominals=("z0", *members),
        assumptions=(
            ScenarioAssumption(kind="raw", formula="@z0 !(Right 1)"),
            ScenarioAssumption(kind="raw", formula=join_rule),
            *per_member,
        ),
        specification=(f"G(@z0 ({no_collide}))",),
        max_trace_length=duration,
    )


def builtin_scenarios() -> list[Scenario]:
    """The seven scenario families at their default parameters."""
    return [
        left_right(),
        same_name(),
        one_lane_follow(),
        hazard(),
        intersection(),
        passing(),
        platoon(),
    ]


def bench_suite() -> dict[int, Scenario]:
    """The numbered benchmark parameterization driven by ``hstl bench``."""
    suite = {
        1: left_right(),
        2: same_name(),
        9: hazard(2),
        10: hazard(3),
    }
    for idx, length in zip(range(3, 9), (3, 6, 9, 12, 15, 18)):
        suite[idx] = one_lane_follow(length)
    for idx, size in zip(range(11, 14), (2, 3, 4)):
        suite[idx] = intersection(size)
    for idx, duration in zip(range(14, 18), (2, 3, 4, 5)):
        suite[idx] = passing(duration)
    for idx, size in zip(range(18, 22), (2, 3, 4, 5)):
        suite[idx] = platoon(size)
    return dict(sorted(suite.items()))
