"""The four data-fusion approaches and the weighted vote combiner.

Two early approaches merge fused per-source attributes into one table
(optionally reduced to the best attributes); the two late approaches
train one base model per input source and combine their class
probability distributions by a weighted average.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import product
from typing import Mapping, Sequence

from .errors import InvalidParamsError, SchemaMismatchError
from .learners import Model, encode_table, majority, predict, train
from .learners.encode import Encoded
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
        if not set(self.models) <= set(INPUT_SOURCES):
            raise InvalidParamsError(
                f"vote base models {sorted(self.models)} are not all input sources {INPUT_SOURCES}"
            )
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


#: The exponent that ``_weighted_decimals`` brings every part down to at
#: least, so that the parts of one vote mostly share it and add without
#: rescaling.  A weight with one decimal place times a probability of at
#: least 1e-12 lies above it.
_LOW = -30


def _decimal(x: float) -> tuple[int, int]:
    """``(m, e)`` with ``m * 10**e`` the decimal that ``repr(x)`` denotes."""
    digits, _, exponent = repr(x).partition("e")
    whole, _, fraction = digits.partition(".")
    return int(whole + fraction), int(exponent or 0) - len(fraction)


@lru_cache(maxsize=512)
def _weighted_decimals(weight: float, dist: tuple) -> tuple[int, tuple[int, ...], int]:
    """``(w, ms, e)`` with ``w * 10**e`` the decimal of ``repr(weight)``
    and ``ms[i] * 10**e`` that decimal times the decimal of
    ``repr(float(dist[i]))``, at one exponent ``e`` no higher than ``_LOW``.

    Each distinct (weight, distribution) pair is parsed once while it
    stays cached.  The cache is bounded: tree and rule leaves repeat
    their distributions, but exemplar sets rarely do."""
    w_m, w_e = _decimal(weight)
    parts = [_decimal(float(p)) for p in dist]
    low = min(_LOW, w_e, *(w_e + e for _, e in parts))
    return (
        w_m * 10 ** (w_e - low),
        tuple(w_m * m * 10 ** (w_e + e - low) for m, e in parts),
        low,
    )


def combine_votes(
    dists_by_source: Mapping[str, Sequence[float]], weights: Mapping[str, float]
) -> tuple[float, ...]:
    """Weighted average of per-source class distributions.

    Weights and probabilities are read as the decimal numbers their
    shortest float representation denotes and averaged exactly, so the
    textbook example lands on its decimal answer and scaling all weights
    by a representable constant leaves the output bit-for-bit unchanged.

    ``_weighted_decimals`` gives each source's weight and weighted
    probabilities as integer mantissas at one power-of-ten exponent.  The
    sources are brought to the smallest exponent among them, and each
    weighted sum, and the total weight, is summed as a plain integer;
    each output is then one ``int / int`` true division.  CPython rounds
    that division correctly, so it returns the float nearest the exact
    rational mean: the same float an exact ``Fraction`` average would.
    """
    parts = [
        _weighted_decimals(float(weights[name]), tuple(dists_by_source[name]))
        for name in sorted(dists_by_source)
    ]
    low = min(e for _, _, e in parts)
    total = 0
    sums = None
    for w, ms, e in parts:
        if e != low:
            scale = 10 ** (e - low)
            w *= scale
            ms = [m * scale for m in ms]
        total += w
        sums = ms if sums is None else [s + m for s, m in zip(sums, ms)]
    return tuple(s / total for s in sums)


def vote_predict(vote_model: VoteModel, rows_by_source: Mapping[str, Sequence]) -> tuple[float, ...]:
    """Each base model's class distribution for its source's row, combined
    by ``combine_votes`` with the model's weights."""
    missing = set(vote_model.models) - set(rows_by_source)
    if missing:
        raise SchemaMismatchError(f"instance lacks parts for sources {sorted(missing)}")
    dists = {name: predict(m, rows_by_source[name]) for name, m in vote_model.models.items()}
    return combine_votes(dists, vote_model.weights)


@dataclass
class PreparedData:
    """Datasets an approach trains on, plus what selection kept.

    ``encodings`` keeps the encoding of each (source, training rows) that
    ``train_prepared`` trained on, so the cells that share this
    preparation encode each fold once."""

    kind: str  # 'merged' | 'per_source'
    merged: DataTable | None = None
    per_source: dict[str, DataTable] = field(default_factory=dict)
    selected: dict[str, list[str]] = field(default_factory=dict)
    encodings: dict[tuple, Encoded] = field(default_factory=dict, compare=False, repr=False)


def source_with_class(bundle: SourceBundle, name: str) -> DataTable:
    pair = SourceBundle({name: bundle[name], "exam": bundle["exam"]})
    return join_on_id(pair, drop_id=False)


def check_sources(approach: str, bundle: SourceBundle) -> None:
    """Raise ``SchemaMismatchError`` unless the bundle holds the exam and,
    for the ensemble approaches, every input source."""
    if "exam" not in bundle.sources:
        raise SchemaMismatchError("bundle lacks the exam (class) source")
    missing = [name for name in INPUT_SOURCES if name not in bundle.sources]
    if missing and approach in ("ensemble", "ensemble-select"):
        raise SchemaMismatchError(f"bundle lacks input source {missing[0]!r}")


def prepare_approach(
    config: FusionConfig, bundle: SourceBundle, fit_rows: Sequence[int] | None = None
) -> PreparedData:
    """Build the training dataset(s) for one preprocessed bundle.

    The selection approaches fit CFS on the joined rows at positions
    ``fit_rows`` (every row by default) and keep what it chose on all rows.
    """
    check_sources(config.approach, bundle)
    selected: dict[str, list[str]] = {}

    def fitted(name: str, table: DataTable) -> DataTable:
        if config.approach not in ("select", "ensemble-select"):
            return table
        names = select_best_attributes(table if fit_rows is None else table.take(fit_rows))
        selected[name] = names
        return reduce_to(table, names)

    if config.approach in ("merge", "select"):
        merged = fitted("merged", join_on_id(bundle, drop_id=True))
        return PreparedData(kind="merged", merged=merged, selected=selected)
    per_source = {
        name: fitted(name, source_with_class(bundle, name)) for name in INPUT_SOURCES
    }
    return PreparedData(kind="per_source", per_source=per_source, selected=selected)


def train_prepared(
    prepared: PreparedData,
    config: FusionConfig,
    algorithm: str,
    seed: int = 0,
    row_filter: Sequence[int] | None = None,
):
    """Train the approach's model(s); ``row_filter`` selects row positions,
    whose encodings ``prepared`` keeps."""

    def data_of(name: str, table: DataTable) -> DataTable | Encoded:
        if row_filter is None:
            return table
        key = (name, tuple(row_filter))
        if key not in prepared.encodings:
            prepared.encodings[key] = encode_table(table.take(row_filter))
        return prepared.encodings[key]

    if prepared.kind == "merged":
        return train(algorithm, data_of("merged", prepared.merged), seed=seed)
    models = {
        name: train(algorithm, data_of(name, table), seed=seed)
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

    One pass of ``cross_validate``'s fold loop trains each fold's base
    models once; ``combine_votes`` then scores every assignment on the
    held-out rows.  Ties break toward the all-ones assignment, then
    lexicographically in canonical source order.
    """
    from .evaluation import accuracy, held_out_distributions  # evaluation imports ensemble

    if approach not in ("ensemble", "ensemble-select"):
        raise InvalidParamsError("weight search applies to the ensemble approaches")
    held_out = held_out_distributions(
        FusionConfig(approach=approach), algorithm, bundle, k=k, seed=seed
    )
    candidates = []
    for combo in product(WEIGHT_GRID, repeat=len(INPUT_SOURCES)):
        weights = dict(zip(INPUT_SOURCES, combo))
        predictions = [majority(combine_votes(parts, weights)) for parts in held_out.dists]
        accuracy_pct = accuracy(predictions, held_out.y)
        all_ones = all(w == 1.0 for w in combo)
        candidates.append((-accuracy_pct, 0 if all_ones else 1, combo, weights))
    candidates.sort(key=lambda entry: entry[:3])
    return candidates[0][3]
