"""Compare ``hstl check --emit traces`` between two checkouts.

    python3 tools/cli_diff.py PARENT_DIR CHANGE_DIR

Each directory is a checkout (for example a clean export, ``git archive
REV | tar -x -C DIR``).  For every ``scenarios/*.json`` file and every
algorithm, the tool runs ``hstl check --scenario scenarios/FILE
--algorithm ALGO --emit traces`` in each directory, against that
directory's own ``src``, and compares stdout, stderr and the exit code.
``platoon_2`` is skipped under baseline and optimized, where it only
times out.  Each difference is printed as a unified diff; the tool exits
1 if there is one and 0 otherwise.
"""

import argparse
import difflib
import os
import subprocess
import sys
from pathlib import Path

ALGORITHMS = ("baseline", "optimized", "motion")
SKIPPED = {("platoon_2", "baseline"), ("platoon_2", "optimized")}


def check(directory: Path, scenario: str, algorithm: str) -> tuple[str, str, str]:
    """stdout, stderr and the exit code of one ``hstl check`` run in ``directory``."""
    cmd = [sys.executable, "-m", "hstl.cli", "check", "--scenario", f"scenarios/{scenario}.json"]
    cmd += ["--algorithm", algorithm, "--emit", "traces"]
    env = dict(os.environ, PYTHONPATH=str(directory / "src"))
    done = subprocess.run(cmd, cwd=directory, env=env, capture_output=True, text=True)
    return done.stdout, done.stderr, f"{done.returncode}\n"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args()
    scenarios = sorted({p.stem for d in (args.parent, args.change) for p in (d / "scenarios").glob("*.json")})
    runs = differing = 0
    for scenario in scenarios:
        for algorithm in ALGORITHMS:
            if (scenario, algorithm) in SKIPPED:
                continue
            runs += 1
            before = check(args.parent, scenario, algorithm)
            after = check(args.change, scenario, algorithm)
            for stream, old, new in zip(("stdout", "stderr", "exit code"), before, after):
                if old != new:
                    differing += 1
                    label = f"{scenario} {algorithm} {stream}"
                    old_lines, new_lines = old.splitlines(keepends=True), new.splitlines(keepends=True)
                    sys.stdout.writelines(difflib.unified_diff(old_lines, new_lines, f"parent: {label}", f"change: {label}"))
            print(f"{scenario} {algorithm}: {'same' if before == after else 'DIFFERENT'}", file=sys.stderr)
    print(f"{runs} runs, {differing} differing streams")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
