"""Compare two checkouts with perfbench in alternating pairs.

    python3 tools/bench_pairs.py PARENT_DIR CHANGE_DIR --seeds 1401-1410 \
        --trace-seed 1411 --seconds 20 --out BENCH_14.json

Each directory is a clean export of one commit (``git archive REV | tar
-x -C DIR``).  For every workload and seed, ``perfbench/run.py`` runs
once in each directory, one run at a time; the side that runs first
alternates with the seed.  Then one ``--trace 1`` run per side, on the
trace seed, gives the per-layer metrics.  ``--workloads`` runs a subset
(comma-separated; all three by default).  The output holds every run's
end-to-end metrics and, per metric, the medians and quartiles of both
sides, the parent's quartile spread, how many seeds the change won and
a verdict.  A table of the verdicts, one per workload, goes to stdout.

The verdict reads the bounds of the parent's ``BENCHMARK.json``:

* ``gain``: the change won at least nine tenths of the pairs (ties count
  for neither side) and its median is better by more than the parent's
  quartile spread;
* ``over bound``: the change's median is worse than the parent's by more
  than the metric's bound;
* ``unresolved``: the parent's quartile spread exceeds the bound, and not
  every change run beats every parent run;
* ``within bound`` otherwise.

A run that is not correct or has a failed item is listed under
``flagged``, and a metric over its bound under ``over_bound``; either
goes to stderr as well, and the tool then exits 1.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

WORKLOADS = ("check-motion", "enumerate-motion", "oneshot-eval")


def run(directory: str, workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed)]
    cmd += ["--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=directory, capture_output=True, text=True, check=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    return dict(correct=result["correct"], failed=result["failed"], attempted=result["attempted"], **metrics)


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def end_to_end(directory: str) -> dict:
    """The end-to-end metrics of a checkout's ``BENCHMARK.json``: name -> its entry."""
    with open(os.path.join(directory, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m for m in json.load(fh)["end_to_end"]}


def verdict(parent: list[float], change: list[float], p: dict, c: dict, wins: int, better: str, bound: float) -> str:
    """The verdict on one metric; see the module docstring."""
    sign = 1 if better == "lower" else -1
    gain = sign * (p["median"] - c["median"])  # > 0 when the change is better
    if wins >= 0.9 * len(parent) and gain > p["q3"] - p["q1"]:
        return "gain"
    if -gain > bound * abs(p["median"]):
        return "over bound"
    if p["q3"] - p["q1"] > bound * abs(p["median"]) and max(sign * x for x in change) >= min(sign * x for x in parent):
        return "unresolved"
    return "within bound"


def summarize(runs: list[dict], seeds: list[int], metrics: dict) -> dict:
    by = {(r["side"], r["seed"]): r for r in runs}
    out = {}
    for name, m in metrics.items():
        parent = [by["parent", s][name] for s in seeds]
        change = [by["change", s][name] for s in seeds]
        p, c = quartiles(parent), quartiles(change)
        wins = sum((b < a) if m["better"] == "lower" else (b > a) for a, b in zip(parent, change))
        out[name] = {
            "parent": p,
            "change": c,
            "change_minus_parent_over_parent_median": round((c["median"] - p["median"]) / p["median"], 4),
            "parent_iqr": p["q3"] - p["q1"],
            "change_wins": f"{wins}/{len(seeds)}",
            "bound": m["bound"],
            "verdict": verdict(parent, change, p, c, wins, m["better"], m["bound"]),
        }
    return out


def print_table(workload: str, summary: dict) -> None:
    print(f"{workload}:")
    head = ("metric", "parent median [q1, q3]", "change median", "change", "parent IQR", "wins", "verdict")
    rows = [head]
    for name, s in summary.items():
        p = s["parent"]
        rows.append(
            (
                name,
                f"{p['median']:.4g} [{p['q1']:.4g}, {p['q3']:.4g}]",
                f"{s['change']['median']:.4g}",
                f"{s['change_minus_parent_over_parent_median']:+.1%}",
                f"{s['parent_iqr']:.3g}",
                s["change_wins"],
                s["verdict"] + (f" (bound {s['bound']:.0%})" if s["verdict"] == "over bound" else ""),
            )
        )
    widths = [max(len(r[i]) for r in rows) for i in range(len(head))]
    for r in rows:
        print("  " + "  ".join(cell.ljust(w) for cell, w in zip(r, widths)).rstrip())


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--seeds", required=True, help="FIRST-LAST")
    parser.add_argument("--trace-seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--workloads", default=",".join(WORKLOADS), help="comma-separated subset")
    args = parser.parse_args()
    workloads = args.workloads.split(",")
    unknown = sorted(set(workloads).difference(WORKLOADS))
    if unknown:
        parser.error(f"unknown workloads {unknown}; choose from {list(WORKLOADS)}")
    first, last = map(int, args.seeds.split("-"))
    seeds = list(range(first, last + 1))
    if len(seeds) < 2:
        parser.error("--seeds needs at least two seeds, for quartiles")
    sides = {"parent": args.parent, "change": args.change}
    metrics = end_to_end(args.parent)
    doc = {"command": " ".join(["python3", "tools/bench_pairs.py"] + sys.argv[1:]), "seeds": seeds}
    doc.update(workloads={}, traced={}, flagged=[], over_bound=[])
    for workload in workloads:
        runs = []
        for i, seed in enumerate(seeds):
            for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
                runs.append(dict(side=side, seed=seed, **run(sides[side], workload, seed, args.seconds, 0)))
                print(workload, runs[-1], file=sys.stderr)
        summary = summarize(runs, seeds, metrics)
        doc["workloads"][workload] = {"metrics": summary, "runs": runs}
        for name, s in summary.items():
            if s["verdict"] == "over bound":
                doc["over_bound"].append(dict(workload=workload, metric=name))
                print("OVER BOUND", doc["over_bound"][-1], file=sys.stderr)
        traced = {side: run(path, workload, args.trace_seed, args.seconds, 1) for side, path in sides.items()}
        doc["traced"][workload] = traced
        for r in runs + [dict(side=side, seed=args.trace_seed, trace=1, **r) for side, r in traced.items()]:
            if not r["correct"] or r["failed"] > 0:
                flag = dict(workload=workload, side=r["side"], seed=r["seed"], trace=r.get("trace", 0))
                doc["flagged"].append(dict(flag, correct=r["correct"], failed=r["failed"]))
                print("FLAGGED", doc["flagged"][-1], file=sys.stderr)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    for workload in workloads:
        print_table(workload, doc["workloads"][workload]["metrics"])
    return 1 if doc["flagged"] or doc["over_bound"] else 0


if __name__ == "__main__":
    sys.exit(main())
