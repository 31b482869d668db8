"""Check that every perfbench workload's output digest is the same under
each given Python interpreter.

    python3 scripts/digests_across_pythons.py [--seed N] PYTHON [PYTHON ...]

Run from the root of a source checkout, for example with ``python3.10
python3.11 python3.12 python3.13``.  Each interpreter runs one short
``perfbench/run.py`` of ``grid``, ``score`` and ``prep``; the digest hashes
the first cycle's outputs, so the run length does not change it.  Prints
one line per workload and interpreter, and exits 1 if any workload's
digests differ.  A run that exits non-zero or fails an operation ends
the check with one line naming the interpreter, the workload and the
run's last line of stderr, and exit 2.  It needs no test framework, so
it runs under an interpreter without pytest.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("grid", "score", "prep")


class RunFailed(Exception):
    """A run that could not start, exited non-zero or failed an operation."""


def digest(python: str, workload: str, seed: int) -> str:
    """The output digest of one short run, from the detail line before the
    result line; a run that exits non-zero or fails an operation raises
    ``RunFailed``."""
    try:
        run = subprocess.run(
            [python, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
             "--seconds", "1", "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True,
        )
    except OSError as exc:
        raise RunFailed(f"{python} {workload}: {exc}") from None
    lines = run.stdout.splitlines()
    if run.returncode or json.loads(lines[-1])["failed"]:
        last = (run.stderr.strip().splitlines() or [f"exit status {run.returncode}"])[-1]
        raise RunFailed(f"{python} {workload}: {last}")
    return json.loads(lines[-2])["digest"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=8)
    parser.add_argument("pythons", nargs="+")
    args = parser.parse_args(argv)
    differ = False
    for workload in WORKLOADS:
        try:
            seen = {python: digest(python, workload, args.seed) for python in args.pythons}
        except RunFailed as exc:
            print(f"run failed: {exc}", file=sys.stderr)
            return 2
        for python, value in seen.items():
            print(f"{workload:5s} seed {args.seed} {python}: {value}")
        differ |= len(set(seen.values())) > 1
    print("digests differ" if differ else "digests equal")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
