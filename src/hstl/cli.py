"""Command-line interface.

Subcommands:

* ``check``      — run one scenario file under one algorithm
* ``eval``       — evaluate a formula on a trace file at a point
                   (exit 0 when true, 1 when false, 2 on error)
* ``bench``      — run the numbered built-in benchmark suite
* ``render``     — pretty-print a trace file
* ``validities`` — exhaustively check the logic's laws on small models
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .checkers import Algorithm
from .core import make_grid, read_json, trace_from_json_dict
from .errors import HstlError
from .evaluator import evaluate
from .formula import desugar, parse
from .harness import DEFAULT_TIMEOUT, RunReport, emit_table, render_trace, run, timed_sat_traces, validity_suite
from .scenarios import bench_suite, load_scenario

# Desk-scale default: one representative parameterization per family.
DEFAULT_BENCH_TESTS = (1, 2, 3, 4, 9, 11, 14, 18)


def _write_output(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8")


def _cmd_check(args: argparse.Namespace) -> int:
    scenario = load_scenario(args.scenario)
    algorithm = Algorithm(args.algorithm)
    if args.emit == "traces":
        result, _ = timed_sat_traces(scenario, algorithm, args.timeout, args.max_len)
        chunks = []
        for trace, points in result:
            cells = ", ".join(str(p) for p in sorted(points, key=lambda p: (p.i, p.j)))
            chunks.append(f"satisfied at: {cells}\n{render_trace(scenario.grid, trace)}")
        status = "timed out" if result.interrupted else "complete"
        chunks.append(
            f"{status}: {result.traces_satisfying} satisfying "
            f"of {result.traces_generated} generated\n"
        )
        _write_output("\n".join(chunks), args.out)
        return 0
    report = run(scenario, algorithm, args.timeout, args.max_len)
    text, csv_text = emit_table([report])
    _write_output(csv_text if args.emit == "csv" else text, args.out)
    return 0


def _cmd_eval(args: argparse.Namespace) -> int:
    try:
        rows, cols = (int(part) for part in args.grid.lower().split("x"))
    except ValueError:
        raise HstlError(f"--grid expects RxC, got {args.grid!r}")
    grid = make_grid(rows, cols)
    trace = trace_from_json_dict(read_json(args.trace))
    try:
        i, j = (int(part) for part in args.point.split(","))
    except ValueError:
        raise HstlError(f"--point expects I,J, got {args.point!r}")
    point = grid.position(i, j)
    formula = desugar(parse(args.formula, trace.prop_names, trace.nominal_names), grid)
    verdict = evaluate(grid, trace, point, formula)
    print("true" if verdict else "false")
    return 0 if verdict else 1


def _cmd_bench(args: argparse.Namespace) -> int:
    suite = bench_suite()
    if args.tests is None:
        selected = list(DEFAULT_BENCH_TESTS)
    else:
        try:
            selected = [int(part) for part in args.tests.split(",") if part.strip()]
        except ValueError:
            raise HstlError(f"--tests expects comma-separated integers, got {args.tests!r}")
    unknown = [t for t in selected if t not in suite]
    if unknown:
        raise HstlError(f"unknown test numbers {unknown}; available: {sorted(suite)}")
    reports: list[RunReport] = []
    for test in selected:
        scenario = suite[test]
        for algorithm in (Algorithm.BASELINE, Algorithm.OPTIMIZED, Algorithm.MOTION):
            report = run(scenario, algorithm, args.timeout)
            reports.append(report)
            state = "timeout" if report.timed_out else f"{report.wall_time:.3f}s"
            print(
                f"test {test} {scenario.name} {algorithm.value}: "
                f"sat={report.sat_count} traces={report.trace_count} ({state})",
                file=sys.stderr,
            )
    text, csv_text = emit_table(reports)
    sys.stdout.write(text)
    if args.out is not None:
        Path(args.out).write_text(csv_text, encoding="utf-8")
    return 0


def _cmd_render(args: argparse.Namespace) -> int:
    trace = trace_from_json_dict(read_json(args.trace))
    sys.stdout.write(render_trace(trace.grid, trace))
    return 0


def _cmd_validities(args: argparse.Namespace) -> int:
    report = validity_suite(args.max_rows, args.max_cols, args.max_len)
    print(report.summary())
    return 0 if report.all_pass else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hstl",
        description="Bounded model checking of hybrid spatiotemporal specifications on grid roads.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="run one scenario file")
    check.add_argument("--scenario", required=True, help="scenario JSON file")
    check.add_argument(
        "--algorithm", required=True, choices=[a.value for a in Algorithm]
    )
    check.add_argument("--max-len", type=int, default=None, help="override the scenario's bound")
    check.add_argument("--timeout", type=float, default=DEFAULT_TIMEOUT, help="seconds of wall clock")
    check.add_argument("--emit", choices=("table", "csv", "traces"), default="table")
    check.add_argument("--out", default=None, help="write output to a file instead of stdout")
    check.set_defaults(func=_cmd_check)

    ev = sub.add_parser("eval", help="evaluate a formula on a trace at a point")
    ev.add_argument("--grid", required=True, help="RxC, e.g. 3x3")
    ev.add_argument("--formula", required=True)
    ev.add_argument("--trace", required=True, help="trace JSON file")
    ev.add_argument("--point", required=True, help="I,J (1-based row,column)")
    ev.set_defaults(func=_cmd_eval)

    bench = sub.add_parser("bench", help="run the numbered benchmark suite")
    bench.add_argument("--suite", choices=("builtin",), default="builtin")
    bench.add_argument(
        "--tests",
        default=None,
        help=f"comma-separated test numbers (default: {','.join(map(str, DEFAULT_BENCH_TESTS))})",
    )
    bench.add_argument("--timeout", type=float, default=DEFAULT_TIMEOUT)
    bench.add_argument("--out", default=None, help="also write CSV here")
    bench.set_defaults(func=_cmd_bench)

    render = sub.add_parser("render", help="pretty-print a trace file")
    render.add_argument("--trace", required=True)
    render.set_defaults(func=_cmd_render)

    val = sub.add_parser("validities", help="check the logic's laws on small models")
    val.add_argument("--max-rows", type=int, required=True)
    val.add_argument("--max-cols", type=int, required=True)
    val.add_argument("--max-len", type=int, required=True)
    val.set_defaults(func=_cmd_validities)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (HstlError, OSError, RecursionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
