"""Check that every perfbench workload's output digest is the same under
each given Python interpreter.

    python3 scripts/digests_across_pythons.py [--seed N] PYTHON [PYTHON ...]

Run from the root of a source checkout, for example with ``python3.10
python3.11 python3.12 python3.13``.  Each interpreter runs one short
``perfbench/run.py`` of ``grid``, ``score`` and ``prep``; the digest hashes
the first cycle's outputs, so the run length does not change it.  Prints
one line per workload and interpreter, and exits 1 if any workload's
digests differ.  It needs no test framework, so it runs under an
interpreter without pytest.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("grid", "score", "prep")


def digest(python: str, workload: str, seed: int) -> str:
    """The output digest of one short run, from the detail line before the
    result line."""
    out = subprocess.run(
        [python, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, check=True,
    ).stdout.splitlines()
    return json.loads(out[-2])["digest"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=8)
    parser.add_argument("pythons", nargs="+")
    args = parser.parse_args(argv)
    differ = False
    for workload in WORKLOADS:
        seen = {python: digest(python, workload, args.seed) for python in args.pythons}
        for python, value in seen.items():
            print(f"{workload:5s} seed {args.seed} {python}: {value}")
        differ |= len(set(seen.values())) > 1
    print("digests differ" if differ else "digests equal")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
