"""Record output digests from benchmark runs into ``digests.json``.

    python3 perfbench/run.py --workload grid --seed 4 | python3 perfbench/record_digests.py

Reads run output (tracing off) on stdin and stores the digest of each
detail line under its workload and seed, together with the workload's
sizes.  A run at other sizes replaces that workload's record.  Later runs
report ``digest_match`` against what is recorded here, so record only at a
commit whose outputs are the reference.
"""

from __future__ import annotations

import json
import sys

from run import DIGESTS


def main() -> int:
    record = json.loads(DIGESTS.read_text(encoding="utf-8"))
    for line in sys.stdin:
        detail = json.loads(line)
        if "digest" not in detail:
            continue
        name = detail["workload"]
        if detail["digest"] is None:
            print(f"{name} seed {detail['seed']}: no digest, a pass failed", file=sys.stderr)
            return 1
        if record["sizes"].get(name) != detail["size"]:
            record["sizes"][name] = detail["size"]
            record["digests"][name] = {}
        record["digests"].setdefault(name, {})[str(detail["seed"])] = detail["digest"]
    DIGESTS.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
