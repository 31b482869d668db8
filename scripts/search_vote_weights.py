"""Vote-weight search over the {1, 2} grid for the ensemble approaches.

Evaluates all eight weight assignments by cross-validated accuracy and
prints the winner for each ensemble approach and data variant:

    python3 scripts/search_vote_weights.py --data runs/grid/pre --algorithm ripper
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from fusemine.cli import CliError, _Parser, check_k, load_bundle
from fusemine.ensemble import INPUT_SOURCES, weight_search
from fusemine.errors import FusemineError
from fusemine.evaluation import stable_seed
from fusemine.learners import ALGORITHMS


def run(argv) -> int:
    parser = _Parser(description=__doc__)
    parser.add_argument("--data", required=True, help="preprocess output directory")
    parser.add_argument("--algorithm", choices=ALGORITHMS, default="ripper")
    parser.add_argument("--k", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    try:
        search(args)
    except (CliError, FusemineError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    return 0


def search(args) -> None:
    for variant in ("numeric", "discretized"):
        directory = Path(args.data) / variant
        if not directory.is_dir():
            print(f"skipping {variant}: {directory} not found")
            continue
        bundle = load_bundle(directory)
        check_k(args.k, bundle)
        for approach in ("ensemble", "ensemble-select"):
            weights = weight_search(
                bundle,
                args.algorithm,
                k=args.k,
                seed=stable_seed(args.seed, "weights", variant, approach),
                approach=approach,
            )
            ordered = ",".join(f"{weights[s]:g}" for s in INPUT_SOURCES)
            print(f"{variant:>12} {approach:>16}: theory,practice,online = {ordered}")


if __name__ == "__main__":
    sys.exit(run(sys.argv[1:]))
