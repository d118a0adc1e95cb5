"""Compare ``hstl check``, ``hstl validities`` and ``hstl eval`` between two checkouts.

    python3 tools/cli_diff.py PARENT_DIR CHANGE_DIR

Each directory is a checkout (for example a clean export, ``git archive
REV | tar -x -C DIR``).  For every ``scenarios/*.json`` file and every
algorithm, the tool runs ``hstl check --scenario scenarios/FILE
--algorithm ALGO --emit traces`` in each directory, against that
directory's own ``src``, and compares stdout, stderr and the exit code.
``platoon_2`` is skipped under baseline and optimized, where it only
times out.  It also runs ``hstl validities --max-rows 2 --max-cols 2
--max-len 2``, whose countermodels are each law's first baseline
emission, so a reordered walk shows there.  Last it writes a few seeded
trace files (at most 3x3, proposition ``q``, nominals ``z0`` and ``z1``,
at most 4 states) to a temporary directory and runs ``hstl eval --grid
--formula --trace --point`` on each with every formula of ``FORMULAS``
at up to two seeded points; the last formula names an undeclared nominal, so
it exits 2.  For every run it compares stdout, stderr and the exit code
(for ``eval``: 0 true, 1 false, 2 error).  Each difference is printed
as a unified diff; the tool exits 1 if there is one and 0 otherwise.
"""

import argparse
import difflib
import json
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

ALGORITHMS = ("baseline", "optimized", "motion")
SKIPPED = {("platoon_2", "baseline"), ("platoon_2", "optimized")}
#: Until, next, a jump, a capture read after a jump, spatial moves, a
#: bounded box, and an undeclared nominal (exit 2).
FORMULAS = (
    "q U z0",
    "X (q | z1) & !X X q",
    "@z1 (q | Back z0)",
    "↓v F @z0 (v | Right v)",
    "Front Right q <-> Right Front q",
    "[Front:2] !z1",
    "q U w",
)


def eval_runs(directory: Path) -> list[tuple[str, tuple[str, ...]]]:
    """Write three seeded trace files into ``directory``; one ``hstl eval``
    run per trace, formula and one of up to two seeded points."""
    rng = random.Random(7)
    runs = []
    for n in range(3):
        rows, cols = rng.randint(1, 3), rng.randint(1, 3)
        cells = [[i, j] for i in range(1, rows + 1) for j in range(1, cols + 1)]
        states = [
            {"props": {"q": rng.sample(cells, rng.randint(0, len(cells)))}, "noms": {"z0": rng.choice(cells), "z1": rng.choice(cells)}}
            for _ in range(rng.randint(1, 4))
        ]
        doc = {"grid": {"rows": rows, "cols": cols}, "propositions": ["q"], "nominals": ["z0", "z1"], "states": states}
        path = directory / f"trace_{n}.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        for i, j in rng.sample(cells, min(2, len(cells))):
            for formula in FORMULAS:
                cmd = ("eval", "--grid", f"{rows}x{cols}", "--formula", formula, "--trace", str(path), "--point", f"{i},{j}")
                runs.append((f"eval trace_{n} {i},{j} {formula}", cmd))
    return runs


def hstl(directory: Path, args: tuple[str, ...]) -> tuple[str, str, str]:
    """stdout, stderr and the exit code of one ``hstl`` run in ``directory``."""
    env = dict(os.environ, PYTHONPATH=str(directory / "src"))
    cmd = [sys.executable, "-m", "hstl.cli", *args]
    done = subprocess.run(cmd, cwd=directory, env=env, capture_output=True, text=True)
    return done.stdout, done.stderr, f"{done.returncode}\n"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args()
    scenarios = sorted({p.stem for d in (args.parent, args.change) for p in (d / "scenarios").glob("*.json")})
    runs = [
        (
            f"{scenario} {algorithm}",
            ("check", "--scenario", f"scenarios/{scenario}.json", "--algorithm", algorithm, "--emit", "traces"),
        )
        for scenario in scenarios
        for algorithm in ALGORITHMS
        if (scenario, algorithm) not in SKIPPED
    ]
    runs.append(("validities 2x2x2", ("validities", "--max-rows", "2", "--max-cols", "2", "--max-len", "2")))
    differing = 0
    with tempfile.TemporaryDirectory() as traces:
        runs += eval_runs(Path(traces))
        for name, cmd in runs:
            before = hstl(args.parent, cmd)
            after = hstl(args.change, cmd)
            for stream, old, new in zip(("stdout", "stderr", "exit code"), before, after):
                if old != new:
                    differing += 1
                    label = f"{name} {stream}"
                    old_lines, new_lines = old.splitlines(keepends=True), new.splitlines(keepends=True)
                    sys.stdout.writelines(difflib.unified_diff(old_lines, new_lines, f"parent: {label}", f"change: {label}"))
            print(f"{name}: {'same' if before == after else 'DIFFERENT'}", file=sys.stderr)
    print(f"{len(runs)} runs, {differing} differing streams")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
