"""The four data-fusion approaches and the weighted vote combiner.

Two early approaches merge fused per-source attributes into one table
(optionally reduced to the best attributes); the two late approaches
train one base model per input source and combine their class
probability distributions by a weighted average.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import product
from typing import Mapping, Sequence

from .errors import InvalidParamsError, SchemaMismatchError
from .learners import Model, predict, train
from .selection import reduce_to, select_best_attributes
from .tabular import DataTable, SourceBundle, join_on_id

APPROACHES = ("merge", "select", "ensemble", "ensemble-select")

#: Sources carrying input attributes (the exam only contributes the class).
INPUT_SOURCES = ("theory", "practice", "online")

#: The vote weights ``weight_search`` tries for each source.
WEIGHT_GRID = (1.0, 2.0)


@dataclass(frozen=True)
class FusionConfig:
    approach: str = "merge"
    weights: Mapping[str, float] = field(
        default_factory=lambda: {name: 1.0 for name in INPUT_SOURCES}
    )

    def __post_init__(self):
        if self.approach not in APPROACHES:
            raise InvalidParamsError(f"unknown approach {self.approach!r}")
        weights = dict(self.weights)
        if set(weights) != set(INPUT_SOURCES):
            raise InvalidParamsError(
                f"weights must cover exactly the input sources {INPUT_SOURCES}"
            )
        check_vote_weights(weights)
        object.__setattr__(self, "weights", weights)


def check_vote_weights(weights: Mapping[str, float]) -> None:
    """Reject any vote weight that is not a positive, finite number."""
    for name, w in weights.items():
        if not (w > 0 and math.isfinite(w)):
            raise InvalidParamsError(
                f"vote weight for {name!r} must be positive and finite, got {w!r}"
            )


@dataclass
class VoteModel:
    """One base model per source plus its vote weight."""

    models: dict[str, Model]
    weights: dict[str, float]

    def __post_init__(self):
        if not self.models:
            raise InvalidParamsError("a vote needs at least one base model")
        if set(self.weights) != set(self.models):
            raise InvalidParamsError(
                f"vote weights {sorted(self.weights)} do not match the base models "
                f"{sorted(self.models)}"
            )
        if len({model.class_labels for model in self.models.values()}) != 1:
            raise InvalidParamsError("base models disagree on class labels")
        check_vote_weights(self.weights)

    @property
    def class_labels(self) -> tuple[str, ...]:
        return next(iter(self.models.values())).class_labels


def _decimal(x: float) -> tuple[int, int]:
    """``(m, e)`` with ``m * 10**e`` the decimal that ``repr(float(x))`` denotes."""
    digits, _, exponent = repr(float(x)).partition("e")
    whole, _, fraction = digits.partition(".")
    return int(whole + fraction), int(exponent or 0) - len(fraction)


def vote_predict(vote_model: VoteModel, rows_by_source: Mapping[str, Sequence]) -> tuple[float, ...]:
    """Weighted average of the base models' class distributions.

    Weights and probabilities are read as the decimal numbers their
    shortest float representation denotes and averaged exactly, so the
    textbook example lands on its decimal answer and scaling all weights
    by a representable constant leaves the output bit-for-bit unchanged.

    Each decimal is held as an integer mantissa and a power-of-ten
    exponent.  Every weighted sum, and the total weight, is brought to
    the smallest exponent among its terms and summed as a plain integer;
    each output is then one ``int / int`` true division.  CPython rounds
    that division correctly, so it returns the float nearest the exact
    rational mean: the same float an exact ``Fraction`` average would.
    """
    missing = set(vote_model.models) - set(rows_by_source)
    if missing:
        raise SchemaMismatchError(f"instance lacks parts for sources {sorted(missing)}")
    labels = vote_model.class_labels
    weight_terms = []
    prob_terms = [[] for _ in labels]
    for name in sorted(vote_model.models):
        model = vote_model.models[name]
        if model.class_labels != labels:
            raise SchemaMismatchError("base models disagree on class labels")
        w_m, w_e = _decimal(vote_model.weights[name])
        weight_terms.append((w_m, w_e))
        dist = predict(model, rows_by_source[name])
        for terms, p in zip(prob_terms, dist):
            p_m, p_e = _decimal(p)
            terms.append((w_m * p_m, w_e + p_e))
    low = min(e for terms in (weight_terms, *prob_terms) for _, e in terms)
    total = sum(m * 10 ** (e - low) for m, e in weight_terms)
    return tuple(sum(m * 10 ** (e - low) for m, e in terms) / total for terms in prob_terms)


def vote_predict_label(vote_model: VoteModel, rows_by_source) -> str:
    dist = vote_predict(vote_model, rows_by_source)
    best = max(range(len(dist)), key=lambda i: (dist[i], -i))
    return vote_model.class_labels[best]


@dataclass
class PreparedData:
    """Datasets an approach trains on, plus what selection kept."""

    kind: str  # 'merged' | 'per_source'
    merged: DataTable | None = None
    per_source: dict[str, DataTable] = field(default_factory=dict)
    selected: dict[str, list[str]] = field(default_factory=dict)


def _source_with_class(bundle: SourceBundle, name: str) -> DataTable:
    pair = SourceBundle({name: bundle[name], "exam": bundle["exam"]})
    return join_on_id(pair, drop_id=False)


def prepare_approach(config: FusionConfig, bundle: SourceBundle) -> PreparedData:
    """Build the training dataset(s) for one preprocessed bundle."""
    if "exam" not in bundle.sources:
        raise SchemaMismatchError("bundle lacks the exam (class) source")
    if config.approach in ("merge", "select"):
        merged = join_on_id(bundle, drop_id=True)
        selected: dict[str, list[str]] = {}
        if config.approach == "select":
            names = select_best_attributes(merged)
            selected["merged"] = names
            merged = reduce_to(merged, names)
        return PreparedData(kind="merged", merged=merged, selected=selected)
    per_source = {}
    selected = {}
    for name in INPUT_SOURCES:
        if name not in bundle.sources:
            raise SchemaMismatchError(f"bundle lacks input source {name!r}")
        table = _source_with_class(bundle, name)
        if config.approach == "ensemble-select":
            names = select_best_attributes(table)
            selected[name] = names
            table = reduce_to(table, names)
        per_source[name] = table
    return PreparedData(kind="per_source", per_source=per_source, selected=selected)


def train_prepared(
    prepared: PreparedData,
    config: FusionConfig,
    algorithm: str,
    seed: int = 0,
    row_filter: Sequence[int] | None = None,
):
    """Train the approach's model(s); ``row_filter`` selects row positions."""

    def rows_of(table: DataTable) -> DataTable:
        if row_filter is None:
            return table
        return table.take(row_filter)

    if prepared.kind == "merged":
        return train(algorithm, rows_of(prepared.merged), seed=seed)
    models = {
        name: train(algorithm, rows_of(table), seed=seed)
        for name, table in prepared.per_source.items()
    }
    return VoteModel(models=models, weights=dict(config.weights))


def run_approach(
    config: FusionConfig,
    bundle: SourceBundle,
    algorithm: str,
    seed: int = 0,
) -> tuple[Model | VoteModel, PreparedData]:
    """Prepare the configured approach on a bundle and train on all rows."""
    prepared = prepare_approach(config, bundle)
    model = train_prepared(prepared, config, algorithm, seed=seed)
    return model, prepared


def weight_search(
    bundle: SourceBundle,
    algorithm: str,
    k: int = 10,
    seed: int = 0,
    approach: str = "ensemble",
) -> dict[str, float]:
    """Exhaustive vote-weight search over ``WEIGHT_GRID`` by CV accuracy.

    Ties break toward the all-ones assignment, then lexicographically in
    canonical source order.
    """
    from .evaluation import cross_validate  # deferred: evaluation imports ensemble

    if approach not in ("ensemble", "ensemble-select"):
        raise InvalidParamsError("weight search applies to the ensemble approaches")
    # Preparation depends only on the approach, so every weighting shares one.
    prepared = prepare_approach(FusionConfig(approach=approach), bundle)
    candidates = []
    for combo in product(WEIGHT_GRID, repeat=len(INPUT_SOURCES)):
        weights = dict(zip(INPUT_SOURCES, combo))
        config = FusionConfig(approach=approach, weights=weights)
        result = cross_validate(config, algorithm, bundle, k=k, seed=seed, prepared=prepared)
        all_ones = all(w == 1.0 for w in combo)
        candidates.append((-result.accuracy_pct, 0 if all_ones else 1, combo, weights))
    candidates.sort(key=lambda entry: entry[:3])
    return candidates[0][3]
