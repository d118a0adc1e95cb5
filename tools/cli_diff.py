"""Compare ``hstl check --emit traces`` and ``hstl validities`` between two checkouts.

    python3 tools/cli_diff.py PARENT_DIR CHANGE_DIR

Each directory is a checkout (for example a clean export, ``git archive
REV | tar -x -C DIR``).  For every ``scenarios/*.json`` file and every
algorithm, the tool runs ``hstl check --scenario scenarios/FILE
--algorithm ALGO --emit traces`` in each directory, against that
directory's own ``src``, and compares stdout, stderr and the exit code.
``platoon_2`` is skipped under baseline and optimized, where it only
times out.  It also runs ``hstl validities --max-rows 2 --max-cols 2
--max-len 2``, whose countermodels are each law's first baseline
emission, so a reordered walk shows there.  Each difference is printed
as a unified diff; the tool exits 1 if there is one and 0 otherwise.
"""

import argparse
import difflib
import os
import subprocess
import sys
from pathlib import Path

ALGORITHMS = ("baseline", "optimized", "motion")
SKIPPED = {("platoon_2", "baseline"), ("platoon_2", "optimized")}


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
