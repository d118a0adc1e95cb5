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
sides, the parent's quartile spread and how many seeds the change won.
A run that is not correct or has a failed item is listed under
``flagged`` and on stderr, and the tool then exits 1.
"""

import argparse
import json
import statistics
import subprocess
import sys

WORKLOADS = ("check-motion", "enumerate-motion", "oneshot-eval")
END_TO_END = {"wall_s": "lower", "setup_s": "lower", "traces_per_s": "higher", "peak_rss_mb": "lower"}


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


def summarize(runs: list[dict], seeds: list[int]) -> dict:
    by = {(r["side"], r["seed"]): r for r in runs}
    out = {}
    for name, better in END_TO_END.items():
        parent = [by["parent", s][name] for s in seeds]
        change = [by["change", s][name] for s in seeds]
        p, c = quartiles(parent), quartiles(change)
        wins = sum((b < a) if better == "lower" else (b > a) for a, b in zip(parent, change))
        out[name] = {
            "parent": p,
            "change": c,
            "change_minus_parent_over_parent_median": round((c["median"] - p["median"]) / p["median"], 4),
            "parent_iqr": p["q3"] - p["q1"],
            "change_wins": f"{wins}/{len(seeds)}",
        }
    return out


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
    doc = {"command": " ".join(["python3", "tools/bench_pairs.py"] + sys.argv[1:]), "seeds": seeds}
    doc.update(workloads={}, traced={}, flagged=[])
    for workload in workloads:
        runs = []
        for i, seed in enumerate(seeds):
            for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
                runs.append(dict(side=side, seed=seed, **run(sides[side], workload, seed, args.seconds, 0)))
                print(workload, runs[-1], file=sys.stderr)
        doc["workloads"][workload] = {"metrics": summarize(runs, seeds), "runs": runs}
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
    return 1 if doc["flagged"] else 0


if __name__ == "__main__":
    sys.exit(main())
