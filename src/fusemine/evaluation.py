"""Stratified cross-validation, accuracy, multiclass ranking quality,
and the experiment grid over approaches, variants, and algorithms.

Every grid cell derives its own seed from the master seed and the cell
coordinates, so no cell's result depends on which cells ran before it.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from .ensemble import (
    APPROACHES,
    FusionConfig,
    PreparedData,
    combine_votes,
    prepare_approach,
    train_prepared,
)
from .errors import (
    LengthMismatchError,
    SchemaMismatchError,
    SingleClassTruthError,
    TooFewRowsError,
)
from .learners import majority, predict
from .tabular import DataTable, SourceBundle, left_sum

#: Row order used by the report tables.
DEFAULT_ALGORITHM_ORDER = ("ripper", "nnge", "part", "c45", "reptree", "randomtree")

VARIANTS = ("numeric", "discretized")

APPROACH_TITLES = {
    "merge": "Merging all attributes",
    "select": "Selecting the best attributes",
    "ensemble": "Using ensembles",
    "ensemble-select": "Using ensembles and selection of the best attributes",
}

VARIANT_TITLES = {"numeric": "NUMERICAL DATA", "discretized": "DISCRETIZED DATA"}


def stable_seed(*parts) -> int:
    """Platform-stable seed derived from arbitrary coordinate parts."""
    text = "\x1f".join(str(p) for p in parts)
    return zlib.crc32(text.encode("utf-8"))


@dataclass(frozen=True)
class FoldPlan:
    folds: tuple[tuple[int, ...], ...]

    def train_indices(self, fold: int) -> list[int]:
        return [i for f, members in enumerate(self.folds) for i in members if f != fold]


def _stratified_folds(y: Sequence[int], n_classes: int, k: int, seed: int) -> FoldPlan:
    n = len(y)
    if k < 2 or k > n:
        raise TooFewRowsError(f"cannot build {k} folds from {n} rows")
    by_class: dict[int, list[int]] = {c: [] for c in range(n_classes)}
    for i, cls in enumerate(y):
        by_class[cls].append(i)
    for cls, members in by_class.items():
        if not members:
            raise TooFewRowsError(f"class index {cls} has no instances")
    rng = random.Random(seed)
    folds: list[list[int]] = [[] for _ in range(k)]
    position = 0
    # The fold pointer continues across classes so sizes stay within one.
    for cls in range(n_classes):
        members = list(by_class[cls])
        rng.shuffle(members)
        for i in members:
            folds[position % k].append(i)
            position += 1
    return FoldPlan(tuple(tuple(f) for f in folds))


def stratified_kfold(dataset: DataTable, k: int, seed: int) -> FoldPlan:
    """Seeded within-class shuffle, then round-robin fold assignment."""
    class_idx = dataset.class_index
    if class_idx is None:
        raise SchemaMismatchError("dataset needs a class attribute")
    y = [row[class_idx] for row in dataset.rows]
    n_classes = len(dataset.specs[class_idx].labels)
    return _stratified_folds(y, n_classes, k, seed)


def accuracy(predictions: Sequence, truth: Sequence) -> float:
    if len(predictions) != len(truth):
        raise LengthMismatchError(
            f"{len(predictions)} predictions for {len(truth)} truths"
        )
    if not truth:
        raise LengthMismatchError("cannot score an empty prediction list")
    correct = sum(1 for p, t in zip(predictions, truth) if p == t)
    return 100.0 * correct / len(truth)


def _binary_auc(scores: Sequence[float], positives: Sequence[bool]) -> float:
    """Rank-statistic area with midrank tie handling."""
    order = sorted(range(len(scores)), key=lambda i: scores[i])
    ranks = [0.0] * len(scores)
    pos = 0
    while pos < len(order):
        end = pos
        while end + 1 < len(order) and scores[order[end + 1]] == scores[order[pos]]:
            end += 1
        midrank = (pos + end) / 2.0 + 1.0
        for j in range(pos, end + 1):
            ranks[order[j]] = midrank
        pos = end + 1
    n_pos = sum(1 for flag in positives if flag)
    n_neg = len(positives) - n_pos
    rank_sum = sum(r for r, flag in zip(ranks, positives) if flag)
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def auc_weighted(
    distributions: Sequence[Sequence[float]], truth: Sequence[int], n_classes: int
) -> tuple[float, dict[int, float]]:
    """Prevalence-weighted one-vs-rest area under the ranking curve.

    Classes that lack positives or negatives are undefined and excluded
    from the weighted mean; when every class is undefined the truth is
    single-class and an error is raised.
    """
    if len(distributions) != len(truth):
        raise LengthMismatchError("distributions and truth differ in length")
    per_class: dict[int, float] = {}
    weighted = 0.0
    weight_total = 0
    for cls in range(n_classes):
        positives = [t == cls for t in truth]
        n_pos = sum(positives)
        if n_pos == 0 or n_pos == len(truth):
            continue
        scores = [d[cls] for d in distributions]
        value = _binary_auc(scores, positives)
        per_class[cls] = value
        weighted += n_pos * value
        weight_total += n_pos
    if not per_class:
        raise SingleClassTruthError("every class is single-sided; ranking undefined")
    return weighted / weight_total, per_class


@dataclass
class FoldDetail:
    fold: int
    test_indices: tuple[int, ...]
    accuracy_pct: float
    selected: dict[str, list[str]] = field(default_factory=dict)


@dataclass
class CvResult:
    algorithm: str
    approach: str
    accuracy_pct: float
    auc: float
    per_class_auc: dict[str, float]
    confusion: list[list[int]]
    folds: list[FoldDetail]
    n_rows: int


def class_vector(bundle: SourceBundle) -> tuple[list[int], tuple[str, ...]]:
    """Every student's class index, in id order, and the class labels."""
    if "exam" not in bundle.sources:
        raise SchemaMismatchError("bundle lacks the exam (class) source")
    exam = bundle["exam"].sorted_by_id()
    class_idx = exam.class_index
    if class_idx is None:
        raise SchemaMismatchError("exam source carries no class column")
    y = [row[class_idx] for row in exam.rows]
    if None in y:
        raise SchemaMismatchError("class column must not contain missing values")
    return y, exam.specs[class_idx].labels


@dataclass
class HeldOut:
    """Row ``i``'s held-out class distribution ``dists[i]``, or its
    ``{source: distribution}`` for the ensemble approaches; each fold's
    held-out rows and what selection kept for it."""

    y: list[int]
    labels: tuple[str, ...]
    per_source: bool
    dists: list
    folds: list[tuple[tuple[int, ...], dict[str, list[str]]]]


def held_out_distributions(
    config: FusionConfig,
    algorithm: str,
    bundle: SourceBundle,
    k: int = 10,
    seed: int = 0,
    plan_seed: int | None = None,
    fold_local_select: bool = False,
    prepared: PreparedData | None = None,
) -> HeldOut:
    """The fold loop: plan the folds, train each fold once, predict its
    held-out rows.  The vote weights of ``config`` are not read; see
    ``cross_validate`` for the other arguments."""
    y, labels = class_vector(bundle)
    plan = _stratified_folds(
        y, len(labels), k, stable_seed(seed, "folds") if plan_seed is None else plan_seed
    )
    if prepared is None and not fold_local_select:
        prepared = prepare_approach(config, bundle)
    dists: list = [None] * len(y)
    folds = []
    for fold_no, test_rows in enumerate(plan.folds):
        train_rows = plan.train_indices(fold_no)
        fold_data = prepare_approach(config, bundle, train_rows) if fold_local_select else prepared
        train_seed = stable_seed(seed, config.approach, algorithm, fold_no)
        model = train_prepared(
            fold_data, config, algorithm, seed=train_seed, row_filter=train_rows
        )
        per_source = fold_data.kind == "per_source"
        for i in test_rows:
            dists[i] = {
                name: predict(base, fold_data.per_source[name].rows[i])
                for name, base in model.models.items()
            } if per_source else predict(model, fold_data.merged.rows[i])
        folds.append((test_rows, fold_data.selected))
    return HeldOut(y, labels, per_source, dists, folds)


def cross_validate(
    config: FusionConfig,
    algorithm: str,
    bundle: SourceBundle,
    k: int = 10,
    seed: int = 0,
    plan_seed: int | None = None,
    fold_local_select: bool = False,
    prepared: PreparedData | None = None,
) -> CvResult:
    """K-fold evaluation of one (approach, algorithm) cell.

    Accuracy pools every held-out prediction (micro average); the
    ensemble approaches combine each row's per-source distributions with
    ``config.weights``.  With ``fold_local_select`` the selection
    approaches choose attributes on each fold's training rows; every fold
    records what it kept.  ``prepared``, when given, must be what
    ``prepare_approach`` returns for this approach and bundle; cells that
    share them pass it in so the bundle is prepared once.  It is not read
    with ``fold_local_select``.
    """
    held_out = held_out_distributions(
        config, algorithm, bundle, k, seed, plan_seed, fold_local_select, prepared
    )
    y, labels = held_out.y, held_out.labels
    pooled = held_out.dists
    if held_out.per_source:
        pooled = [combine_votes(parts, config.weights) for parts in pooled]
    predictions = [majority(dist) for dist in pooled]
    folds_detail = []
    for fold_no, (test_rows, selected) in enumerate(held_out.folds):
        pct = 100.0 * sum(predictions[i] == y[i] for i in test_rows) / len(test_rows)
        folds_detail.append(FoldDetail(fold_no, test_rows, pct, selected))
    auc, per_class = auc_weighted(pooled, y, len(labels))
    confusion = [[0] * len(labels) for _ in labels]
    for truth_cls, predicted in zip(y, predictions):
        confusion[truth_cls][predicted] += 1
    return CvResult(
        algorithm=algorithm,
        approach=config.approach,
        accuracy_pct=accuracy(predictions, y),
        auc=auc,
        per_class_auc={labels[c]: v for c, v in per_class.items()},
        confusion=confusion,
        folds=folds_detail,
        n_rows=len(y),
    )


@dataclass
class EvaluationReport:
    approach: str
    variant: str
    rows: list[CvResult]
    k: int
    seed: int

    def averages(self) -> tuple[float, float]:
        acc = left_sum(r.accuracy_pct for r in self.rows) / len(self.rows)
        auc = left_sum(r.auc for r in self.rows) / len(self.rows)
        return acc, auc


@dataclass
class GridResult:
    reports: dict[tuple[str, str], EvaluationReport]
    k: int
    seed: int

    def best_cell(self) -> tuple[str, str, str, float, float]:
        """(algorithm, approach, variant, accuracy, auc) of the top cell."""
        best = None
        for (approach, variant), report in sorted(self.reports.items()):
            for row in report.rows:
                key = (row.accuracy_pct, row.auc)
                if best is None or key > (best[3], best[4]):
                    best = (row.algorithm, approach, variant, row.accuracy_pct, row.auc)
        return best


def run_experiment_grid(
    variants: Mapping[str, SourceBundle],
    algorithms: Sequence[str] = DEFAULT_ALGORITHM_ORDER,
    approaches: Sequence[str] = APPROACHES,
    k: int = 10,
    seed: int = 0,
    weights: Mapping[tuple[str, str], Mapping[str, float]] | None = None,
) -> GridResult:
    """Evaluate every (approach, variant, algorithm) cell in enumeration order.

    Each cell is one ``cross_validate`` call with its own derived seed.
    ``weights`` maps each (approach, variant) to its vote weights; without
    it every source weighs 1.
    """
    for approach in approaches:
        if approach not in APPROACHES:
            raise SchemaMismatchError(f"unknown approach {approach!r}")
    reports: dict[tuple[str, str], EvaluationReport] = {}
    for approach in approaches:
        for variant, bundle in variants.items():
            config = (
                FusionConfig(approach, weights[(approach, variant)])
                if weights else FusionConfig(approach)
            )
            # The algorithms of one (approach, variant) train on the same
            # data, so it is prepared once and the cells only read it.
            prepared = prepare_approach(config, bundle)
            report = EvaluationReport(approach=approach, variant=variant, rows=[], k=k, seed=seed)
            for algorithm in algorithms:
                report.rows.append(
                    cross_validate(
                        config,
                        algorithm,
                        bundle,
                        k=k,
                        seed=stable_seed(seed, approach, variant, algorithm),
                        plan_seed=stable_seed(seed, "folds", variant),
                        prepared=prepared,
                    )
                )
            reports[(approach, variant)] = report
    return GridResult(reports=reports, k=k, seed=seed)


# --- report rendering -------------------------------------------------------


def report_csv_rows(grid: GridResult) -> str:
    lines = ["approach,variant,algorithm,accuracy_pct,auc"]
    for (approach, variant) in sorted(grid.reports):
        report = grid.reports[(approach, variant)]
        for row in report.rows:
            lines.append(
                f"{approach},{variant},{row.algorithm},{row.accuracy_pct:.4f},{row.auc:.4f}"
            )
    return "\n".join(lines) + "\n"


def render_report_text(report: EvaluationReport) -> str:
    title = f"{APPROACH_TITLES[report.approach]} ({VARIANT_TITLES[report.variant]})"
    lines = [title, ""]
    lines.append(f"{'':<14}{'% Accuracy':>12}  {'AUC':>8}")
    for row in report.rows:
        lines.append(f"{row.algorithm:<14}{row.accuracy_pct:>12.4f}  {row.auc:>8.4f}")
    acc, auc = report.averages()
    lines.append(f"{'Avg.':<14}{acc:>12.4f}  {auc:>8.4f}")
    return "\n".join(lines) + "\n"


def render_summary_text(grid: GridResult) -> str:
    """Average accuracy/AUC per approach and variant (the closing table)."""
    lines = ["Average results of the four data fusion approaches", ""]
    header = f"{'Approach':<54}"
    for variant in VARIANTS:
        header += f"{VARIANT_TITLES[variant]:>26}"
    lines.append(header)
    sub = f"{'':<54}" + f"{'% Accuracy':>14}{'AUC':>12}" * 2
    lines.append(sub)
    approaches = []
    for (approach, _variant) in sorted(grid.reports):
        if approach not in approaches:
            approaches.append(approach)
    for approach in APPROACHES:
        if approach not in approaches:
            continue
        line = f"{APPROACH_TITLES[approach]:<54}"
        for variant in VARIANTS:
            report = grid.reports.get((approach, variant))
            if report is None:
                line += f"{'-':>14}{'-':>12}"
            else:
                acc, auc = report.averages()
                line += f"{acc:>14.4f}{auc:>12.4f}"
        lines.append(line)
    return "\n".join(lines) + "\n"
