"""Timed scenario runs, result tables, and trace rendering.

A run drives :func:`hstl.checkers.sat_traces` over one scenario with
one algorithm under a wall-clock budget (monotonic clock).  On timeout
it stops cleanly between candidates and reports the progress counters
marked as partial.
"""

from __future__ import annotations

import csv
import io
import time
from dataclasses import dataclass
from typing import Iterable

from .checkers import Algorithm, CheckerConfig, CheckResult, conjoin, make_config, sat_traces
from .core import GridGraph, Trace
from .errors import ParseError, ValidationError
from .formula import desugar
from .laws import ValidityReport, validity_suite  # re-exported: part of this surface
from .scenarios import Scenario, compile_assumption_set, parse_specification

__all__ = [
    "RunReport",
    "build_config",
    "run",
    "emit_table",
    "render_trace",
    "validity_suite",
    "ValidityReport",
]

DEFAULT_TIMEOUT = 600.0  # seconds of wall clock per run


@dataclass(frozen=True)
class RunReport:
    """One scenario/algorithm outcome, one table cell group.

    When ``timed_out`` is set the counters reflect progress at the
    moment of interruption and are partial.
    """

    scenario: str
    algorithm: str
    sat_count: int
    trace_count: int
    wall_time: float
    timed_out: bool
    grid: tuple[int, int] = (0, 0)
    nominal_count: int = 0
    max_len: int = 0


def build_config(
    scenario: Scenario, algorithm: Algorithm, max_len: int | None = None
) -> CheckerConfig:
    """Compile a scenario into a checker configuration whose specification
    is the conjunction of the scenario's specification formulas: the one
    path from a :class:`Scenario` to a configuration.  It parses each
    formula once and checks names and roles through :func:`make_config`;
    its errors name the scenario."""
    try:
        return make_config(
            scenario.grid,
            scenario.propositions,
            scenario.nominals,
            compile_assumption_set(scenario),
            desugar(conjoin(parse_specification(scenario)), scenario.grid),
            scenario.max_trace_length if max_len is None else max_len,
            algorithm,
        )
    except (ParseError, ValidationError) as exc:
        raise type(exc)(f"scenario {scenario.name!r}: {exc}") from exc


def timed_sat_traces(
    scenario: Scenario,
    algorithm: Algorithm,
    timeout: float = DEFAULT_TIMEOUT,
    max_len: int | None = None,
) -> tuple[CheckResult, float]:
    """A satisfaction stream wired to a wall-clock budget, plus its start time."""
    cfg = build_config(scenario, algorithm, max_len)
    start = time.perf_counter()
    deadline = start + timeout
    result = sat_traces(cfg, stop=lambda: time.perf_counter() >= deadline)
    return result, start


def run(
    scenario: Scenario,
    algorithm: Algorithm,
    timeout: float = DEFAULT_TIMEOUT,
    max_len: int | None = None,
) -> RunReport:
    """Execute one scenario under one algorithm and summarize it."""
    result, start = timed_sat_traces(scenario, algorithm, timeout, max_len)
    for _ in result:
        pass
    wall = time.perf_counter() - start
    return RunReport(
        scenario=scenario.name,
        algorithm=algorithm.value,
        sat_count=result.traces_satisfying,
        trace_count=result.traces_generated,
        wall_time=wall,
        timed_out=result.interrupted,
        grid=(scenario.grid.rows, scenario.grid.cols),
        nominal_count=len(scenario.nominals),
        max_len=result.cfg.max_len,
    )


# ---------------------------------------------------------------------------
# Result tables
# ---------------------------------------------------------------------------

_ALGO_ORDER = (Algorithm.BASELINE.value, Algorithm.OPTIMIZED.value, Algorithm.MOTION.value)

_HEADER = (
    "Test",
    "Noms",
    "Grid",
    "Len",
    "#Sat",
    "#Trace1",
    "#Trace2",
    "#Trace3",
    "Time1",
    "Time2",
    "Time3",
)


def _table_rows(reports: Iterable[RunReport]) -> list[tuple[str, ...]]:
    grouped: dict[str, tuple[RunReport, dict[str, RunReport]]] = {}  # name -> (first report, by algorithm)
    for report in reports:
        _, by_algo = grouped.setdefault(report.scenario, (report, {}))
        by_algo[report.algorithm] = report

    rows = []
    for name, (first, by_algo) in grouped.items():
        sat, cells = "-", []  # cells: one (count, time) pair per algorithm
        for algo in _ALGO_ORDER:
            r = by_algo.get(algo)
            if r is None:
                cells.append(("", ""))
            elif r.timed_out:
                cells.append(("-", "-"))
            else:
                if sat == "-":
                    sat = str(r.sat_count)
                cells.append((str(r.trace_count), f"{r.wall_time:.3f}"))
        counts, times = zip(*cells)
        rows.append(
            (
                name,
                str(first.nominal_count),
                f"({first.grid[0]},{first.grid[1]})",
                str(first.max_len),
                sat,
                *counts,
                *times,
            )
        )
    return rows


def emit_table(reports: Iterable[RunReport]) -> tuple[str, str]:
    """Render reports as an aligned text table and as CSV.

    One row per scenario; count and time columns follow the algorithm
    order baseline, optimized, motion.  Timed-out cells render as "-".
    Given identical reports the output is byte-identical.
    """
    rows = _table_rows(reports)
    widths = [len(h) for h in _HEADER]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = [
        "  ".join(h.ljust(widths[i]) for i, h in enumerate(_HEADER)).rstrip(),
        "  ".join("-" * w for w in widths),
    ]
    for row in rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip())
    text = "\n".join(lines) + "\n"

    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(_HEADER)
    writer.writerows(rows)
    return text, buffer.getvalue()


# ---------------------------------------------------------------------------
# Trace rendering
# ---------------------------------------------------------------------------


def render_trace(g: GridGraph, t: Trace) -> str:
    """One text frame per timestep; row 1 at the bottom, Front points up.

    Each cell lists its nominals then its true propositions, sorted and
    comma-joined; empty cells show a dot.  Co-located markers stack into
    one cell.  Output is deterministic.
    """
    if t.grid != g:
        raise ValidationError("trace is over a different grid")
    frames: list[list[list[str]]] = []
    for s in t.states:
        cells = [["." for _ in range(g.cols)] for _ in range(g.rows)]
        for i in range(1, g.rows + 1):
            for j in range(1, g.cols + 1):
                here = [n for n in sorted(s.noms) if s.noms[n] == g.position(i, j)]
                here += [a for a in sorted(s.props) if g.position(i, j) in s.props[a]]
                if here:
                    cells[i - 1][j - 1] = ",".join(here)
        frames.append(cells)
    width = max(
        (len(cell) for cells in frames for row in cells for cell in row),
        default=1,
    )
    blocks = []
    for k, cells in enumerate(frames):
        lines = [f"t={k}"]
        for i in range(g.rows, 0, -1):  # top row printed first
            lines.append("  ".join(cell.ljust(width) for cell in cells[i - 1]).rstrip())
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + "\n"
