"""Data preparation: anonymization, rescaling, binning, class labeling,
and per-session fusion.

The pipeline produces two parallel variants of every bundle: a numeric one
with all inputs rescaled to [0, 1] and a categorical one with all inputs
discretized into equal-width bins.  Fitting happens once, on the full
dataset, before any cross-validation split.
"""

from __future__ import annotations

import json
import math
import re
from collections import Counter
from dataclasses import dataclass, field, replace
from typing import Sequence

import random

from .errors import (
    EmptyColumnError,
    InvalidParamsError,
    MixedKindGroupError,
    OutOfRangeScoreError,
    SchemaMismatchError,
)
from .tabular import (
    ROLE_CLASS,
    ROLE_ID,
    ROLE_INPUT,
    AttributeSpec,
    DataTable,
    SourceBundle,
)

DEFAULT_BIN_LABELS = ("Low", "Medium", "High")
DEFAULT_CLASS_LABELS = ("Pass", "Fail", "Dropout")

_SESSION_RE = re.compile(r"^(?P<base>.+)\.s(?P<index>\d+)$")


@dataclass(frozen=True)
class NormalizationParams:
    """Fitted per-column rescaling bounds."""

    minimum: float
    maximum: float

    def __post_init__(self):
        if self.minimum > self.maximum:
            raise SchemaMismatchError("normalization needs minimum <= maximum")

    def apply(self, value: float | None) -> float | None:
        if value is None:
            return None
        span = self.maximum - self.minimum
        if span == 0.0:
            return 0.0
        return (value - self.minimum) / span


@dataclass(frozen=True)
class BinningParams:
    """Fitted per-column equal-width binning grid."""

    n_bins: int = 3
    labels: tuple[str, ...] = DEFAULT_BIN_LABELS
    minimum: float = 0.0
    maximum: float = 1.0

    def __post_init__(self):
        if self.n_bins < 2:
            raise SchemaMismatchError("need at least two bins")
        if len(self.labels) != self.n_bins:
            raise SchemaMismatchError("label count must equal bin count")
        if self.minimum > self.maximum:
            raise SchemaMismatchError("binning needs minimum <= maximum")

    def bin_of(self, value: float | None) -> int | None:
        if value is None:
            return None
        span = self.maximum - self.minimum
        if span == 0.0:
            return 0
        width = span / self.n_bins
        index = math.floor((value - self.minimum) / width)
        return max(0, min(self.n_bins - 1, index))

    def boundaries(self) -> list[float]:
        width = (self.maximum - self.minimum) / self.n_bins
        return [self.minimum + i * width for i in range(self.n_bins + 1)]


@dataclass(frozen=True)
class ClassRule:
    """Cut-off rule mapping an exam score to the final academic status."""

    pass_threshold: float = 5.0
    labels: tuple[str, str, str] = DEFAULT_CLASS_LABELS  # (pass, fail, dropout)

    def __post_init__(self):
        if not 0.0 <= self.pass_threshold <= 10.0:
            raise SchemaMismatchError("pass threshold must lie in [0, 10]")


@dataclass(frozen=True)
class PreprocessConfig:
    n_bins: int = 3
    bin_labels: tuple[str, ...] = DEFAULT_BIN_LABELS
    pass_threshold: float = 5.0
    seed: int = 0

    def __post_init__(self):
        for name, kinds, what in (
            ("n_bins", int, "an integer"),
            ("pass_threshold", (int, float), "a number"),
            ("seed", int, "an integer"),
        ):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, kinds):
                raise InvalidParamsError(
                    f"preprocess config {name!r} must be {what}, got {value!r}"
                )
        labels = self.bin_labels
        if not (isinstance(labels, tuple) and all(isinstance(label, str) for label in labels)):
            raise InvalidParamsError(
                f"preprocess config 'bin_labels' must be a list of strings, got {labels!r}"
            )
        BinningParams(n_bins=self.n_bins, labels=self.bin_labels)
        self.class_rule()

    @classmethod
    def from_json(cls, text: str) -> "PreprocessConfig":
        raw = json.loads(text)
        if not isinstance(raw, dict):
            raise InvalidParamsError("preprocess config must be a JSON object")
        unknown = set(raw) - set(cls.__dataclass_fields__)
        if unknown:
            raise SchemaMismatchError(f"unknown preprocess config keys: {sorted(unknown)}")
        if isinstance(raw.get("bin_labels"), list):
            raw["bin_labels"] = tuple(raw["bin_labels"])
        return cls(**raw)

    def to_json(self) -> str:
        payload = {
            "n_bins": self.n_bins,
            "bin_labels": list(self.bin_labels),
            "pass_threshold": self.pass_threshold,
            "seed": self.seed,
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"

    def class_rule(self) -> ClassRule:
        return ClassRule(pass_threshold=self.pass_threshold)


def anonymize(bundle: SourceBundle, seed: int) -> tuple[SourceBundle, dict]:
    """Replace every id with a collision-free pseudorandom numeric id.

    The same student receives the same new id in all tables; the mapping
    from original to new id is returned separately so it can be stored
    out of band.
    """
    names = bundle.ordered_names()
    if not names:
        return bundle, {}
    first = bundle[names[0]]
    id_spec = first.specs[first.id_index]
    originals = sorted(set(first.id_values()), key=lambda v: str(v))
    rng = random.Random(seed)
    fresh = rng.sample(range(10_000_000, 100_000_000), len(originals))
    mapping = {orig: float(new) for orig, new in zip(originals, fresh)}

    new_sources = {}
    for name in names:
        table = bundle[name]
        idx = table.id_index
        specs = list(table.specs)
        specs[idx] = AttributeSpec.numeric(specs[idx].name, role=ROLE_ID)
        rows = []
        for row in table.rows:
            row = list(row)
            row[idx] = mapping[row[idx]]
            rows.append(tuple(row))
        new_sources[name] = DataTable(specs, rows)
    return SourceBundle(new_sources), mapping


def min_max_normalize(
    column: Sequence[float | None], params: NormalizationParams | None = None
) -> tuple[list[float | None], NormalizationParams]:
    """Rescale a numeric column to [0, 1]; a constant column maps to zeros.

    Values outside fitted ``params`` clamp to the nearer end.
    """
    if params is None:
        present = [v for v in column if v is not None]
        if not present:
            raise EmptyColumnError("cannot normalize a column with no values")
        params = NormalizationParams(min(present), max(present))
    rescaled = []
    for v in column:
        out = params.apply(v)
        if out is not None:
            out = max(0.0, min(1.0, out))
        rescaled.append(out)
    return rescaled, params


def equal_width_discretize(
    column: Sequence[float | None], params: BinningParams | None = None
) -> tuple[list[int | None], BinningParams]:
    """Map a numeric column onto equal-width bins.

    Boundary values belong to the upper bin except the global maximum,
    which clamps into the top bin.  A constant column lands entirely in
    the first bin.
    """
    if params is None:
        present = [v for v in column if v is not None]
        if not present:
            raise EmptyColumnError("cannot discretize a column with no values")
        params = BinningParams(minimum=min(present), maximum=max(present))
    return [params.bin_of(v) for v in column], params


def label_class(exam_score: float | None, rule: ClassRule | None = None) -> str:
    """Map an exam score (or its absence) to Pass / Fail / Dropout."""
    rule = rule or ClassRule()
    passed, failed, dropout = rule.labels
    if exam_score is None:
        return dropout
    if not 0.0 <= exam_score <= 10.0:
        raise OutOfRangeScoreError(f"score {exam_score} outside [0, 10]")
    return passed if exam_score >= rule.pass_threshold else failed


def _session_groups(table: DataTable):
    """Yield output column plan: ('plain', idx) or ('group', base, [idx...])."""
    seen_groups: dict[str, list[int]] = {}
    plan = []
    for i, spec in enumerate(table.specs):
        match = _SESSION_RE.match(spec.name)
        if match is None or spec.role != ROLE_INPUT:
            plan.append(("plain", i))
            continue
        base = match.group("base")
        if base not in seen_groups:
            seen_groups[base] = []
            plan.append(("group", base, seen_groups[base]))
        seen_groups[base].append(i)
    return plan


def fuse_sessions(table: DataTable) -> DataTable:
    """Collapse per-session columns to one value per base attribute.

    Numeric groups fuse to the arithmetic mean; nominal groups fuse to
    the most frequent label, ties breaking to the smallest label index.
    Columns without a session suffix pass through unchanged.
    """
    plan = _session_groups(table)
    specs = []
    for entry in plan:
        if entry[0] == "plain":
            specs.append(table.specs[entry[1]])
            continue
        _, base, members = entry
        kinds = {table.specs[i].kind for i in members}
        label_sets = {table.specs[i].labels for i in members}
        if len(kinds) != 1 or len(label_sets) != 1:
            raise MixedKindGroupError(f"session columns of {base!r} disagree on kind")
        proto = table.specs[members[0]]
        specs.append(replace(proto, name=base))

    rows = []
    for row in table.rows:
        out = []
        for entry in plan:
            if entry[0] == "plain":
                out.append(row[entry[1]])
                continue
            _, base, members = entry
            values = [row[i] for i in members if row[i] is not None]
            if not values:
                out.append(None)
            elif table.specs[members[0]].is_numeric:
                out.append(sum(values) / len(values))
            else:
                counts = Counter(values)
                top = max(counts.values())
                out.append(min(v for v, c in counts.items() if c == top))
        rows.append(tuple(out))
    return DataTable(specs, rows)


def _class_table(exam: DataTable, rule: ClassRule) -> DataTable:
    score_cols = [i for i in range(len(exam.specs)) if exam.specs[i].role != ROLE_ID]
    if len(score_cols) != 1 or not exam.specs[score_cols[0]].is_numeric:
        raise SchemaMismatchError("exam table must have exactly one numeric score column")
    score_idx = score_cols[0]
    id_idx = exam.id_index
    specs = [exam.specs[id_idx], AttributeSpec.nominal("Status", rule.labels, role=ROLE_CLASS)]
    class_spec = specs[1]
    rows = [
        (row[id_idx], class_spec.label_index(label_class(row[score_idx], rule)))
        for row in exam.rows
    ]
    return DataTable(specs, rows)


def fuse_bundle(bundle: SourceBundle, rule: ClassRule) -> SourceBundle:
    """Session-fuse every input source and convert the exam to class labels."""
    sources = {}
    for name in bundle.ordered_names():
        if name == "exam":
            sources[name] = _class_table(fuse_sessions(bundle[name]), rule)
        else:
            sources[name] = fuse_sessions(bundle[name])
    return SourceBundle(sources)


@dataclass(frozen=True)
class PreprocessResult:
    numeric: SourceBundle
    discretized: SourceBundle
    normalization: dict[str, NormalizationParams] = field(default_factory=dict)
    binning: dict[str, BinningParams] = field(default_factory=dict)
    class_rule: ClassRule = ClassRule()

    def params_json(self) -> str:
        payload = {
            "normalization": {
                name: {"min": p.minimum, "max": p.maximum}
                for name, p in self.normalization.items()
            },
            "binning": {
                name: {
                    "n_bins": p.n_bins,
                    "labels": list(p.labels),
                    "min": p.minimum,
                    "max": p.maximum,
                }
                for name, p in self.binning.items()
            },
            "pass_threshold": self.class_rule.pass_threshold,
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def transform_fused(
    fused: SourceBundle,
    normalization: dict[str, NormalizationParams],
    binning: dict[str, BinningParams],
) -> tuple[SourceBundle, SourceBundle]:
    """Apply fitted per-column parameters to a fused bundle."""
    numeric_sources = {}
    discrete_sources = {}
    for name in fused.ordered_names():
        table = fused[name]
        if name == "exam":
            numeric_sources[name] = table
            discrete_sources[name] = table
            continue
        num_specs, num_cols = [], []
        dis_specs, dis_cols = [], []
        for i, spec in enumerate(table.specs):
            column = [row[i] for row in table.rows]
            if spec.role == ROLE_INPUT and spec.is_numeric:
                bins = binning[spec.name]
                num_specs.append(spec)
                num_cols.append(min_max_normalize(column, normalization[spec.name])[0])
                dis_specs.append(AttributeSpec.nominal(spec.name, bins.labels, role=ROLE_INPUT))
                dis_cols.append(equal_width_discretize(column, bins)[0])
            else:
                num_specs.append(spec)
                num_cols.append(column)
                dis_specs.append(spec)
                dis_cols.append(column)
        numeric_sources[name] = DataTable(num_specs, list(zip(*num_cols)) if num_cols else [])
        discrete_sources[name] = DataTable(dis_specs, list(zip(*dis_cols)) if dis_cols else [])
    return SourceBundle(numeric_sources), SourceBundle(discrete_sources)


def fit_params(
    fused: SourceBundle, config: PreprocessConfig
) -> tuple[dict[str, NormalizationParams], dict[str, BinningParams]]:
    normalization: dict[str, NormalizationParams] = {}
    binning: dict[str, BinningParams] = {}
    for name in fused.ordered_names():
        if name == "exam":
            continue
        table = fused[name]
        for i, spec in enumerate(table.specs):
            if spec.role != ROLE_INPUT or not spec.is_numeric:
                continue
            column = [row[i] for row in table.rows]
            present = [v for v in column if v is not None]
            if not present:
                raise EmptyColumnError(f"column {spec.name!r} has no values")
            lo, hi = min(present), max(present)
            normalization[spec.name] = NormalizationParams(lo, hi)
            binning[spec.name] = BinningParams(
                n_bins=config.n_bins, labels=config.bin_labels, minimum=lo, maximum=hi
            )
    return normalization, binning


def preprocess_bundle(
    bundle: SourceBundle, config: PreprocessConfig | None = None
) -> PreprocessResult:
    """Run the full preparation stage on a raw bundle.

    Sessions are fused first; the fused inputs are then rescaled for the
    numeric variant and equal-width binned for the categorical variant.
    The exam source becomes the shared class table of both variants.
    """
    config = config or PreprocessConfig()
    rule = config.class_rule()
    fused = fuse_bundle(bundle, rule)
    normalization, binning = fit_params(fused, config)
    numeric, discretized = transform_fused(fused, normalization, binning)
    return PreprocessResult(
        numeric=numeric,
        discretized=discretized,
        normalization=normalization,
        binning=binning,
        class_rule=rule,
    )
