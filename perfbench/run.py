#!/usr/bin/env python3
"""The hstl benchmark: one workload, one seed, one process, one thread.

Usage, from the root of a checkout of the repository:

    python3 perfbench/run.py --workload check-motion --seed 1 --seconds 30 --trace 0

Workloads: ``check-motion``, ``enumerate-motion``, ``oneshot-eval`` (see
``perfbench/README.md`` for what each one exercises and why).

``--trace 0`` is the timed run.  It runs whole passes over the workload
for about ``--seconds`` seconds (at least ``MIN_PASSES``), measures the
cold set-up ``SETUP_PER_PASS`` times before each pass, and reports the
end-to-end metrics: ``wall_s``, ``setup_s``, ``traces_per_s`` and
``peak_rss_mb``.  ``fail_ratio`` is printed with them and carried by the
``attempted``/``failed`` fields of the result line.

``--trace 1`` is the traced run.  It alternates untraced and traced
passes and reports the per-layer metrics, the tracing overhead (traced
minus untraced wall time) and the share of the traced wall time that
the layers account for.

Every output is checked against a known answer (``expected.json``) or,
for ``oneshot-eval``, against a brute-force oracle.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  A full record, including the
run environment and the traced run's spans, is written to
``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

#: Cold set-ups measured before each timed pass; ``setup_s`` is the median of all of them.
SETUP_PER_PASS = 10
#: Passes a timed run makes even when ``--seconds`` is shorter than that.
MIN_PASSES = 3


def _plain_frame(name, fn, *args):
    return fn(*args)


# ---------------------------------------------------------------------------
# Passes
# ---------------------------------------------------------------------------


class Runner:
    """Runs one workload's items, cold: the lru caches are cleared per item."""

    def __init__(self, workload, caches):
        self.workload = workload
        self.caches = caches

    def clear_caches(self):
        for cache in self.caches:
            cache.cache_clear()

    def item(self, item, frame):
        """(set-up seconds, consume seconds, Outcome) for one item."""
        self.clear_caches()
        start = perf_counter()
        state = self.workload.setup(item, frame)
        ready = perf_counter()
        outcome = self.workload.consume(item, state, frame)
        return ready - start, perf_counter() - ready, outcome

    def cold_setup(self) -> float:
        """Summed set-up time of every item, each from cleared caches."""
        total = 0.0
        for item in self.workload.items:
            self.clear_caches()
            start = perf_counter()
            try:
                self.workload.setup(item, _plain_frame)
            except Exception:  # the pass reports the failure with its input
                pass
            total += perf_counter() - start
        return total

    def run_pass(self, run_item=None):
        """(wall seconds, one record per item).  ``run_item`` defaults to :meth:`item`."""
        run_item = run_item or (lambda item: self.item(item, _plain_frame))
        records = []
        gc.collect()
        start = perf_counter()
        for item in self.workload.items:
            t0 = perf_counter()
            try:
                setup_s, consume_s, outcome = run_item(item)
                error = outcome.error
            except Exception as exc:  # reported as a failed item, the run goes on
                setup_s = consume_s = float("nan")
                outcome, error = None, f"raised {type(exc).__name__}: {exc}"
            records.append(
                {
                    "item": item,
                    "label": self.workload.label(item),
                    "start_s": t0 - start,
                    "setup_s": setup_s,
                    "consume_s": consume_s,
                    "outcome": outcome,
                    "error": error,
                }
            )
        return perf_counter() - start, records


def _generated(records) -> int:
    return sum(r["outcome"].generated for r in records if r["outcome"] is not None)


def _satisfying(records) -> int:
    return sum(r["outcome"].satisfying for r in records if r["outcome"] is not None)


def timed_run(runner: Runner, seconds: float) -> dict:
    setup_samples, passes = [], []
    start = perf_counter()
    while True:
        # Set-up samples are spread over the run so that a slow spell of
        # the machine does not land on all of them.  Collecting first keeps
        # the previous pass's garbage out of them.
        gc.collect()
        setup_samples += [runner.cold_setup() for _ in range(SETUP_PER_PASS)]
        passes.append(runner.run_pass())
        walls = [w for w, _ in passes]
        if len(passes) >= MIN_PASSES and perf_counter() - start + statistics.median(walls) > seconds:
            break
    wall = statistics.median(walls)
    records = [r for _, recs in passes for r in recs]
    generated = _generated(passes[0][1])
    metrics = {
        "wall_s": (wall, "s"),
        "setup_s": (statistics.median(setup_samples), "s"),
        "traces_per_s": (generated / wall, "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    return {
        "metrics": metrics,
        "records": records,
        "walls": walls,
        "setup_samples": setup_samples,
        "counts": [(_generated(recs), _satisfying(recs)) for _, recs in passes],
    }


# ---------------------------------------------------------------------------
# Traced run
# ---------------------------------------------------------------------------


def _probes():
    from tracer import Probe

    def filter_count(stats, args, result):
        stats.add("passed", 1 if result else 0)

    def spec_count(stats, args, result):
        compiled, states = args[0], args[1]
        stats.add("memo_slots", len(states) * compiled.n_nodes * compiled.grid.position_count)

    return [
        Probe("formula.parse", (("hstl.scenarios", "parse"),)),
        Probe("formula.desugar", (("hstl.harness", "desugar"), ("hstl.checkers", "desugar"))),
        Probe("harness.build_config", (("hstl.harness", "build_config"),)),
        Probe("harness.make_config", (("hstl.checkers", "make_config"), ("hstl.harness", "make_config"))),
        Probe(
            "scenarios.compile_assumption_set",
            (("hstl.scenarios", "compile_assumption_set"), ("hstl.harness", "compile_assumption_set")),
        ),
        Probe(
            "evaluator.compile",
            (("hstl.checkers", "compile_formula"), ("hstl.evaluator", "compile_formula")),
            skip_under="evaluator.evaluate",
        ),
        Probe("checkers.sat_traces", (("hstl.checkers", "sat_traces"),)),
        Probe("checkers.generate_traces_motion", (("hstl.checkers", "generate_traces_motion"),)),
        Probe("checkers.generate_traces_baseline", (("hstl.checkers", "generate_traces_baseline"),)),
        Probe("checkers.filter", (("hstl.evaluator", "CompiledFormula.holds_everywhere"),), count=filter_count),
        Probe("evaluator.spec_eval", (("hstl.evaluator", "CompiledFormula.sat_point_indices"),), count=spec_count),
        Probe("checkers.decode", (("hstl.checkers", "_Context.decode_trace"),)),
        Probe("evaluator.evaluate", (("hstl.evaluator", "evaluate"),)),
        Probe(
            "evaluator.core_eval",
            (("hstl.evaluator", "CompiledFormula.evaluate"),),
            only_under="evaluator.evaluate",
        ),
    ]


#: Frames the workloads open themselves: the stream being drained, the
#: oneshot set comparison, and one frame around each item.
FRAMES = ("checkers.stream", "bench.compare", "bench.item")
CONFIG_PROBES = ("harness.build_config", "harness.make_config", "scenarios.compile_assumption_set")
CONTEXT_PROBES = ("checkers.sat_traces", "checkers.generate_traces_motion", "checkers.generate_traces_baseline")
STREAM_CHILDREN = ("checkers.filter", "evaluator.spec_eval", "checkers.decode")


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(stats, records, compile_misses, wall) -> dict:
    """Per-layer metrics of one traced pass: name -> (value, unit, probes it needs)."""
    from hstl.formula import index_nodes

    def t(name):
        return stats[name].time

    def n(name):
        return stats[name].calls

    generated = _generated(records)
    attributed = sum(s.self_time for name, s in stats.items() if name != "bench.item")
    return {
        "evaluator.spec_eval_s": (t("evaluator.spec_eval"), "s", ("evaluator.spec_eval",)),
        "evaluator.spec_eval_calls": (n("evaluator.spec_eval"), "count", ("evaluator.spec_eval",)),
        "evaluator.memo_slots": (
            stats["evaluator.spec_eval"].counters.get("memo_slots", 0), "count", ("evaluator.spec_eval",)
        ),
        "formula.spec_nodes": (
            sum(
                len(index_nodes(cfg.spec))
                for r in records
                if r["outcome"] is not None
                for cfg in r["outcome"].configs
            ),
            "count",
            (),
        ),
        "checkers.filter_s": (t("checkers.filter"), "s", ("checkers.filter",)),
        "checkers.filter_calls": (n("checkers.filter"), "count", ("checkers.filter",)),
        "checkers.filter_pass_ratio": (
            _ratio(stats["checkers.filter"].counters.get("passed", 0), n("checkers.filter")),
            "ratio",
            ("checkers.filter",),
        ),
        "checkers.decode_s": (t("checkers.decode"), "s", ("checkers.decode",)),
        "checkers.decode_calls": (n("checkers.decode"), "count", ("checkers.decode",)),
        "checkers.extend_s": (stats["checkers.stream"].self_time, "s", STREAM_CHILDREN),
        "checkers.context_s": (
            sum(stats[p].self_time for p in CONTEXT_PROBES),
            "s",
            CONTEXT_PROBES + ("evaluator.compile", "formula.desugar"),
        ),
        "harness.config_s": (
            sum(stats[p].self_time for p in CONFIG_PROBES),
            "s",
            CONFIG_PROBES + ("formula.parse", "formula.desugar"),
        ),
        "checkers.traces_generated": (generated, "count", ()),
        "checkers.sat_ratio": (_ratio(_satisfying(records), generated), "ratio", ()),
        "evaluator.evaluate_s": (t("evaluator.evaluate"), "s", ("evaluator.evaluate",)),
        "evaluator.evaluate_calls": (n("evaluator.evaluate"), "count", ("evaluator.evaluate",)),
        "evaluator.core_eval_s": (t("evaluator.core_eval"), "s", ("evaluator.core_eval",)),
        "evaluator.prepare_s": (
            t("evaluator.evaluate") - t("evaluator.core_eval"),
            "s",
            ("evaluator.evaluate", "evaluator.core_eval"),
        ),
        "formula.parse_s": (t("formula.parse"), "s", ("formula.parse",)),
        "formula.desugar_s": (t("formula.desugar"), "s", ("formula.desugar",)),
        "evaluator.compile_s": (t("evaluator.compile"), "s", ("evaluator.compile",)),
        "evaluator.compile_misses": (compile_misses, "count", ()),
        "trace.accounted_share": (_ratio(attributed, wall), "ratio", ()),
    }


def _traced_pass(runner: Runner, tracer, compile_cache):
    """(wall seconds, records, per-layer metrics, span) of one pass with the probes in."""

    def frame(name, fn, *args):
        return tracer.call(name, fn, args)

    items, misses = [], 0

    def run_item(item):
        nonlocal misses
        before = {k: s.self_time for k, s in tracer.stats.items()}
        start = perf_counter()
        result = tracer.call("bench.item", runner.item, (item, frame))
        # Clearing the caches at the start of an item also reset their statistics.
        if compile_cache is not None:
            misses += compile_cache.cache_info().misses
        items.append(
            {
                "item": runner.workload.label(item),
                "duration_s": perf_counter() - start,
                "self_s": {
                    k: s.self_time - before[k] for k, s in tracer.stats.items() if s.self_time != before[k]
                },
            }
        )
        return result

    tracer.reset()
    tracer.install()
    try:
        wall, records = runner.run_pass(run_item)
    finally:
        tracer.uninstall()
    layers = layer_metrics(tracer.stats, records, misses if compile_cache else None, wall)
    return wall, records, layers, {"wall_s": wall, "items": items}


def traced_run(runner: Runner, seconds: float, compile_cache) -> dict:
    from tracer import Tracer

    tracer = Tracer(_probes(), FRAMES)
    untraced, traced = [], []
    start = perf_counter()
    while True:
        pair_start = perf_counter()
        untraced.append(runner.run_pass()[0])
        traced.append(_traced_pass(runner, tracer, compile_cache))
        if perf_counter() - start + (perf_counter() - pair_start) > seconds:
            break

    unmeasured = set(tracer.unmeasured)
    metrics, unstable = {}, []
    for name, (_, unit, needs) in traced[-1][2].items():
        values = [layers[name][0] for _, _, layers, _ in traced]
        if unmeasured.intersection(needs) or None in values:
            metrics[name] = (None, unit)
            continue
        if unit == "count":  # counts must repeat exactly from pass to pass
            if len(set(values)) != 1:
                unstable.append(f"{name} {values}")
            metrics[name] = (values[-1], unit)
        else:
            metrics[name] = (statistics.median(values), unit)
    traced_wall = statistics.median(t[0] for t in traced)
    untraced_wall = statistics.median(untraced)
    metrics["trace.wall_s"] = (traced_wall, "s")
    metrics["trace.untraced_wall_s"] = (untraced_wall, "s")
    metrics["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
    return {
        "metrics": metrics,
        "records": [r for t in traced for r in t[1]],
        "walls": [t[0] for t in traced],
        "untraced_walls": untraced,
        "unmeasured": sorted(unmeasured),
        "unstable_counts": unstable,
        "spans": [dict(t[3], **{"pass": i}) for i, t in enumerate(traced)],
        "counts": [(_generated(t[1]), _satisfying(t[1])) for t in traced],
    }


# ---------------------------------------------------------------------------
# Environment and output
# ---------------------------------------------------------------------------


def _commit() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def _environment() -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "commit": _commit(),
        "loadavg_start": list(os.getloadavg()),
    }


def _failures(workload, records) -> list[dict]:
    seen, out = set(), []
    for r in records:
        if r["error"] is None or r["label"] in seen:
            continue
        seen.add(r["label"])
        out.append({"item": r["label"], "error": r["error"], "input": workload.describe(r["item"])})
    return out


def _item_table(records) -> list[dict]:
    by_label: dict[str, list] = {}
    for r in records:
        by_label.setdefault(r["label"], []).append(r)
    rows = []
    for label, rs in by_label.items():
        done = [r for r in rs if r["outcome"] is not None]
        rows.append(
            {
                "item": label,
                "runs": len(rs),
                "setup_s": statistics.median(r["setup_s"] for r in done) if done else None,
                "consume_s": statistics.median(r["consume_s"] for r in done) if done else None,
                "generated": done[-1]["outcome"].generated if done else None,
                "satisfying": done[-1]["outcome"].satisfying if done else None,
            }
        )
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "hstl" / "__init__.py").is_file():
        print(f"perfbench: no hstl sources at {ROOT / 'src' / 'hstl'}; run from a repository checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]
    from hstl import evaluator
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    env = _environment()
    workload = WORKLOADS[args.workload](args.seed)
    # The lru caches every CLI invocation starts without; a later refactor may drop either.
    caches = [getattr(evaluator, n, None) for n in ("compile_formula", "neighbor_tables")]
    caches = [c for c in caches if hasattr(c, "cache_clear")]
    compile_cache = getattr(evaluator, "compile_formula", None)
    if not hasattr(compile_cache, "cache_info"):
        compile_cache = None
    runner = Runner(workload, caches)
    if args.trace:
        result = traced_run(runner, args.seconds, compile_cache)
    else:
        result = timed_run(runner, args.seconds)
    env["loadavg_end"] = list(os.getloadavg())

    records = result["records"]
    failures = _failures(workload, records)
    attempted = len(records)
    failed = sum(1 for r in records if r["error"] is not None)
    counts_repeat = len(set(result["counts"])) == 1
    correct = failed == 0 and counts_repeat
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()}

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("env: " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"items per pass: {len(workload.items)}; passes: {len(result['walls'])}")
    rows = _item_table(records)
    for row in rows if len(rows) <= 10 else ():
        print(
            f"  {row['item']:<22} setup {row['setup_s'] or 0:.4f} s  consume {row['consume_s'] or 0:.4f} s"
            f"  generated {row['generated']}  satisfying {row['satisfying']}"
        )
    for name, (value, unit) in result["metrics"].items():
        shown = "unmeasured" if value is None else f"{value:.6g}"
        print(f"  {name:<28} {shown:>14} {unit}")
    print(f"  {'fail_ratio':<28} {failed / attempted:>14.6g} ratio  ({failed} of {attempted} item runs failed)")
    if args.trace:
        print(
            f"  tracing overhead: {result['metrics']['trace.overhead_s'][0]:+.4f} s per pass "
            f"(traced {result['metrics']['trace.wall_s'][0]:.4f} s, untraced "
            f"{result['metrics']['trace.untraced_wall_s'][0]:.4f} s)"
        )
        for name in result["unmeasured"]:
            print(f"  unmeasured layer: {name} (its entry point is gone)")
        for line in result["unstable_counts"]:
            print(f"  WARNING count differs between passes: {line}")
    if not counts_repeat:
        print(f"  FAIL counts differ between passes: {sorted(set(result['counts']))}")
    for f in failures:
        print(f"  FAIL {f['item']}: {f['error']}\n       input: {f['input']}")

    out_dir = BENCH_DIR / "results"
    out_dir.mkdir(exist_ok=True)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env,
        "metrics": metrics,
        "fail_ratio": failed / attempted,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "pass_walls_s": result["walls"],
        "items": rows,
    }
    for key in ("setup_samples", "untraced_walls", "unmeasured", "spans"):
        if key in result:
            record[key] = result[key]
    path = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")

    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
