"""White-box learners: three decision trees and three rule inducers.

Every learner is deterministic given ``(dataset, seed)``.  Each runs at
one fixed setting, a reconstruction of the usual toolkit default, kept
in ``PARAMS``.
"""

from __future__ import annotations

from ..errors import InvalidParamsError
from ..tabular import DataTable
from .encode import Encoded, encode_table
from .model import (
    Condition,
    DecisionTree,
    ExemplarSet,
    Leaf,
    Model,
    Rule,
    RuleList,
    fired_rule_index,
    majority,
    model_from_json,
    model_to_json,
    predict,
    predict_label,
    row_path,
    tree_paths,
)
from .nnge import build_nnge
from .render import parse_rules, render_rules, rule_head
from .rules import build_part_rules, build_ripper_rules
from .trees import build_c45, build_randomtree, build_reptree, class_counts

ALGORITHMS = ("c45", "reptree", "randomtree", "ripper", "part", "nnge")


#: The one fixed setting of each learner.  Keys are the builders' keyword
#: names, and every model records its entry under ``metadata["params"]``.
#: RIPPER's ``optimize_passes`` only records the one optimization pass
#: that ``build_ripper_rules`` always makes.
PARAMS = {
    "c45": {"confidence": 0.25, "min_leaf": 2},
    "reptree": {"min_leaf": 2, "holdout_folds": 3},
    "randomtree": {"min_leaf": 1},
    "ripper": {"holdout_folds": 3, "dl_slack": 64.0, "optimize_passes": 1},
    "part": {"confidence": 0.25, "min_leaf": 2},
    "nnge": {},
}


def train(algorithm: str, data: DataTable | Encoded, seed: int = 0) -> Model:
    """Train one model; structure type follows the algorithm tag.

    ``data`` is a table or its ``encode_table`` encoding.  Learners that
    train on one encoding only read it, so the same model comes back
    whichever ran first; C4.5 and PART share its pruned tree of all rows.
    """
    if algorithm not in ALGORITHMS:
        raise InvalidParamsError(f"unknown algorithm {algorithm!r}")
    params = PARAMS[algorithm]
    enc = data if isinstance(data, Encoded) else encode_table(data)
    idx = list(range(enc.n_rows))
    counts = class_counts(enc, idx)
    metadata = {
        "seed": seed,
        "params": dict(params),
        "numeric_fill": dict(enc.numeric_fill),
    }
    if algorithm == "nnge":
        metadata["order_sensitive"] = True

    # Every builder makes a single-class dataset a model of that class
    # alone; the flag tells prediction and rendering so.
    if sum(1 for c in counts if c > 0) <= 1:
        metadata["degenerate"] = True
        metadata["constant_class"] = enc.class_labels[majority(counts)]

    if algorithm == "c45":
        structure = DecisionTree(build_c45(enc, idx, **params))
    elif algorithm == "reptree":
        structure = DecisionTree(build_reptree(enc, idx, seed=seed, **params))
    elif algorithm == "randomtree":
        structure = DecisionTree(build_randomtree(enc, idx, seed=seed, **params))
    elif algorithm == "ripper":
        structure = build_ripper_rules(
            enc, idx, seed, params["holdout_folds"], params["dl_slack"]
        )
    elif algorithm == "part":
        structure = build_part_rules(enc, idx, **params)
    else:
        structure = build_nnge(enc, idx)
    return Model(algorithm, enc.specs, enc.class_labels, structure, metadata)


__all__ = [
    "ALGORITHMS",
    "Condition",
    "DecisionTree",
    "ExemplarSet",
    "Model",
    "PARAMS",
    "Rule",
    "RuleList",
    "fired_rule_index",
    "model_from_json",
    "model_to_json",
    "parse_rules",
    "predict",
    "predict_label",
    "render_rules",
    "row_path",
    "rule_head",
    "train",
    "tree_paths",
]
