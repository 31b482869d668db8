"""Acceptance suite: one test per exit criterion, each with its stated
tolerance and runtime budget.  The terminal summary prints one PASS/FAIL
line per criterion (see conftest)."""

import math
import random
import time
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from fusemine.cli import main as cli_main, save_model
from fusemine.ensemble import FusionConfig, VoteModel, vote_predict, weight_search
from fusemine.evaluation import (
    _stratified_folds,
    auc_weighted,
    cross_validate,
    render_report_text,
    report_csv_rows,
    render_summary_text,
    run_experiment_grid,
    stable_seed,
)
from fusemine.learners import (
    Model,
    parse_rules,
    predict_label,
    render_rules,
    train,
    tree_paths,
)
from fusemine.learners.encode import encode_row
from fusemine.learners.model import DecisionTree, Leaf, RuleList, condition_matches
from fusemine.preprocess import (
    ClassRule,
    equal_width_discretize,
    fuse_sessions,
    label_class,
    min_max_normalize,
    preprocess_bundle,
)
from fusemine.selection import SuTable, select_best_attributes
from fusemine.synth import CohortSpec, generate
from fusemine.tabular import AttributeSpec, DataTable, SourceBundle, join_on_id

CRITERIA = {
    1: "preprocessing exactness (min-max, bin grid, class labeling)",
    2: "session-fusion brute-force oracle (mean/mode)",
    3: "CFS best-first equals exhaustive subset search",
    4: "AUC rank statistic equals pairwise brute force",
    5: "stratified folds sized 5-6 with balanced classes",
    6: "planted-rule recovery at >=95% CV accuracy and AUC",
    7: "vote arithmetic, scale invariance, weight search",
    8: "experiment grid shape and byte-identical reruns",
    9: "render/parse round trip preserves predictions",
    10: "planted decision-list text reproduced verbatim",
}

GRADE = ("Low", "Medium", "High")
STATUS = ("Pass", "Fail", "Dropout")

SCALED = CohortSpec(n_students=570, class_counts=(190, 170, 210), seed=8)


@pytest.fixture(scope="module")
def scaled_cohort():
    bundle, truth = generate(SCALED)
    return preprocess_bundle(bundle), truth


def test_criterion_01_preprocessing_exactness():
    start = time.perf_counter()
    rng = random.Random(101)
    for _ in range(1000):
        n = rng.randint(2, 40)
        column = [rng.uniform(-1000, 1000) for _ in range(n)]
        rescaled, params = min_max_normalize(column)
        lo, hi = min(column), max(column)
        assert rescaled[column.index(lo)] == 0.0
        if hi > lo:
            assert rescaled[column.index(hi)] == 1.0
        order = sorted(range(n), key=column.__getitem__)
        for a, b in zip(order, order[1:]):
            assert rescaled[a] <= rescaled[b]

    for _ in range(200):
        lo = rng.uniform(-50, 50)
        hi = lo + rng.uniform(0.1, 100)
        _, params = equal_width_discretize([lo, hi])
        for i, boundary in enumerate(params.boundaries()):
            assert abs(boundary - (lo + i * (hi - lo) / 3)) <= 1e-12

    rule = ClassRule()
    assert label_class(None, rule) == "Dropout"
    assert label_class(5.0, rule) == "Pass"
    assert label_class(4.99, rule) == "Fail"
    for _ in range(500):
        score = rng.uniform(0, 10)
        label = label_class(score, rule)
        assert label in rule.labels
        assert label == ("Pass" if score >= 5.0 else "Fail")
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"criterion 1 took {elapsed:.2f}s"


def test_criterion_02_fusion_oracle():
    start = time.perf_counter()
    rng = random.Random(202)
    for trial in range(1000):
        n_rows = rng.randint(1, 5)
        n_sessions = rng.randint(1, 6)
        numeric = trial % 2 == 0
        specs = [AttributeSpec.numeric("id", role="id")]
        for s in range(1, n_sessions + 1):
            name = f"A.s{s}"
            specs.append(
                AttributeSpec.numeric(name)
                if numeric
                else AttributeSpec.nominal(name, GRADE)
            )
        rows = []
        for i in range(n_rows):
            if numeric:
                cells = [rng.uniform(-100, 100) for _ in range(n_sessions)]
            else:
                cells = [rng.randrange(3) for _ in range(n_sessions)]
            rows.append((float(i),) + tuple(cells))
        fused = fuse_sessions(DataTable(specs, rows))
        for row_in, row_out in zip(rows, fused.rows):
            cells = row_in[1:]
            if numeric:
                expected = math.fsum(cells) / len(cells)
                assert abs(row_out[1] - expected) <= 1e-12
            else:
                counts = Counter(cells)
                top = max(counts.values())
                expected = min(v for v, c in counts.items() if c == top)
                assert row_out[1] == expected
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"criterion 2 took {elapsed:.2f}s"


def _random_selection_dataset(rng: random.Random) -> DataTable:
    n_attrs = rng.randint(2, 10)
    n_rows = rng.randint(30, 120)
    n_classes = rng.choice([2, 3])
    cards = [rng.randint(2, 4) for _ in range(n_attrs)]
    signal = set(rng.sample(range(n_attrs), rng.randint(0, min(3, n_attrs))))
    specs = [
        AttributeSpec.nominal(f"a{i}", tuple(f"v{j}" for j in range(cards[i])))
        for i in range(n_attrs)
    ]
    specs.append(
        AttributeSpec.nominal("y", tuple(f"c{i}" for i in range(n_classes)), role="class")
    )
    rows = []
    for _ in range(n_rows):
        cls = rng.randrange(n_classes)
        row = [
            (cls % cards[i]) if i in signal and rng.random() < 0.7 else rng.randrange(cards[i])
            for i in range(n_attrs)
        ]
        rows.append(tuple(row) + (cls,))
    return DataTable(specs, rows)


def test_criterion_03_cfs_oracle_equivalence():
    start = time.perf_counter()
    for seed in range(200):
        rng = random.Random(30_000 + seed)
        table = SuTable(_random_selection_dataset(rng))
        names = select_best_attributes(table)
        chosen = [table.names.index(n) for n in names]
        found = table.merit(chosen) if chosen else 0.0
        best = 0.0
        n = table.n_inputs
        for mask in range(1, 1 << n):
            members = [i for i in range(n) if mask >> i & 1]
            best = max(best, table.merit(members))
        assert abs(found - best) <= 1e-9
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"criterion 3 took {elapsed:.2f}s"


def test_criterion_04_auc_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(404)
    for trial in range(500):
        n = int(rng.integers(8, 120))
        n_classes = int(rng.integers(2, 4))
        truth = rng.integers(0, n_classes, size=n).tolist()
        while len(set(truth)) < 2:
            truth = rng.integers(0, n_classes, size=n).tolist()
        # Coarse score grid guarantees plenty of ties.
        raw = rng.choice([0.0, 0.2, 0.4, 0.6, 0.8, 1.0], size=(n, n_classes))
        dists = [tuple(map(float, row)) for row in raw]
        _auc, per_class = auc_weighted(dists, truth, n_classes)
        for cls, value in per_class.items():
            pos_scores = [d[cls] for d, t in zip(dists, truth) if t == cls]
            neg_scores = [d[cls] for d, t in zip(dists, truth) if t != cls]
            wins = 0.0
            for p in pos_scores:
                for q in neg_scores:
                    wins += 1.0 if p > q else (0.5 if p == q else 0.0)
            oracle = wins / (len(pos_scores) * len(neg_scores))
            assert abs(value - oracle) <= 1e-9
    # Edge shapes: perfect separation and total ties.
    perfect = [(0.9, 0.1), (0.8, 0.2), (0.1, 0.9), (0.2, 0.8)]
    auc, _ = auc_weighted(perfect, [0, 0, 1, 1], 2)
    assert auc == 1.0
    flat, _ = auc_weighted([(0.5, 0.5)] * 8, [0, 1] * 4, 2)
    assert flat == 0.5
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"criterion 4 took {elapsed:.2f}s"


def test_criterion_05_stratification():
    start = time.perf_counter()
    counts = (19, 17, 21)
    y = [cls for cls, c in enumerate(counts) for _ in range(c)]
    for seed in range(100):
        plan = _stratified_folds(y, 3, 10, seed)
        seen = sorted(i for fold in plan.folds for i in fold)
        assert seen == list(range(57))
        for fold in plan.folds:
            assert 5 <= len(fold) <= 6
            for cls, n_cls in enumerate(counts):
                in_fold = sum(1 for i in fold if y[i] == cls)
                assert abs(in_fold - n_cls / 10) <= 1.0
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"criterion 5 took {elapsed:.2f}s"


def _planted_consistency(model: Model, merged: DataTable, planted: list[int]) -> float:
    """Fraction of instances whose fired antecedent carries the planted class."""
    hits = 0
    if isinstance(model.structure, RuleList):
        reparsed = parse_rules(render_rules(model), model.specs)
        for row, cls in zip(merged.rows, planted):
            if predict_label(reparsed, row) == STATUS[cls]:
                hits += 1
    else:
        paths = tree_paths(model)
        for row, cls in zip(merged.rows, planted):
            enc = encode_row(
                model.specs, model.input_indices,
                model.metadata.get("numeric_fill", {}), row,
            )
            for conditions, leaf in paths:
                if all(condition_matches(model, c, enc) for c in conditions):
                    if model.class_labels[leaf.cls] == STATUS[cls]:
                        hits += 1
                    break
    return hits / merged.n_rows


def test_criterion_06_planted_rule_recovery(scaled_cohort):
    start = time.perf_counter()
    result, truth = scaled_cohort
    merged = join_on_id(result.discretized, drop_id=False)
    planted = [row[1] for row in truth.sorted_by_id().rows]
    for algorithm in ("c45", "ripper", "part"):
        cv = cross_validate(
            FusionConfig(approach="merge"), algorithm, result.discretized,
            k=10, seed=stable_seed(6, algorithm),
        )
        assert cv.accuracy_pct >= 95.0, f"{algorithm}: {cv.accuracy_pct:.2f}%"
        assert cv.auc >= 0.95, f"{algorithm}: AUC {cv.auc:.3f}"
        model = train(algorithm, merged, seed=stable_seed(6, algorithm, "full"))
        coverage = _planted_consistency(model, merged, planted)
        assert coverage >= 0.95, f"{algorithm}: antecedent coverage {coverage:.3f}"
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"criterion 6 took {elapsed:.2f}s"


def _leaf_model(counts) -> Model:
    specs = (
        AttributeSpec.nominal("x", GRADE),
        AttributeSpec.nominal("Status", STATUS, role="class"),
    )
    cls = max(range(3), key=lambda i: counts[i])
    return Model(
        algorithm="c45",
        specs=specs,
        class_labels=STATUS,
        structure=DecisionTree(Leaf(tuple(float(c) for c in counts), cls)),
        metadata={},
    )


def test_criterion_07_ensemble_properties():
    start = time.perf_counter()
    # Laplace over these leaf counts yields exactly the textbook
    # distributions (0.6,0.3,0.1), (0.3,0.4,0.3), (0.2,0.2,0.6).
    models = {
        "theory": _leaf_model((5, 2, 0)),
        "practice": _leaf_model((2, 3, 2)),
        "online": _leaf_model((1, 1, 5)),
    }
    row = {name: (0, None) for name in models}
    vm = VoteModel(models=models, weights={"theory": 1.0, "practice": 1.0, "online": 2.0})
    assert vote_predict(vm, row) == (0.325, 0.275, 0.400)

    for c in (2.0, 3.0, 0.5, 10.0, 7.0):
        scaled = VoteModel(
            models=models,
            weights={"theory": c, "practice": c, "online": 2.0 * c},
        )
        assert vote_predict(scaled, row) == (0.325, 0.275, 0.400)

    # Planted-signal bundle: only the online source predicts the class;
    # the two noise sources carry enough attributes that their overfit
    # base models corrupt an equally weighted vote, so doubling the
    # signal source strictly raises CV accuracy.
    rng = random.Random(0)
    ids = [float(i + 1) for i in range(60)]
    id_spec = AttributeSpec.numeric("id", role="id")
    labels, quiz = [], []
    for _ in ids:
        q = rng.randrange(3)
        quiz.append(q)
        labels.append(q)

    def noise_table(prefix):
        specs = [id_spec] + [
            AttributeSpec.nominal(f"{prefix}.N{j}", GRADE) for j in range(4)
        ]
        return DataTable(
            specs, [(i, *[rng.randrange(3) for _ in range(4)]) for i in ids]
        )

    bundle = SourceBundle(
        {
            "theory": noise_table("Theory"),
            "practice": noise_table("Practice"),
            "online": DataTable(
                [id_spec, AttributeSpec.nominal("Moodle.Quiz", GRADE)],
                [(i, quiz[n]) for n, i in enumerate(ids)],
            ),
            "exam": DataTable(
                [id_spec, AttributeSpec.nominal("Status", STATUS, role="class")],
                [(i, labels[n]) for n, i in enumerate(ids)],
            ),
        }
    )
    weights = weight_search(bundle, "c45", k=5, seed=1)
    assert weights["online"] == max(weights.values())
    assert weights["online"] == 2.0
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"criterion 7 took {elapsed:.2f}s"


def test_criterion_08_experiment_grid_shape(scaled_cohort):
    result, _truth = scaled_cohort
    variants = {"numeric": result.numeric, "discretized": result.discretized}

    start = time.perf_counter()
    grid = run_experiment_grid(variants, k=10, seed=3)
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0, f"grid run took {elapsed:.1f}s"

    assert len(grid.reports) == 8  # 4 approaches x 2 variants
    for report in grid.reports.values():
        assert len(report.rows) == 6
        acc, auc = report.averages()
        assert abs(acc - sum(r.accuracy_pct for r in report.rows) / 6) <= 1e-9
        assert abs(auc - sum(r.auc for r in report.rows) / 6) <= 1e-9

    start = time.perf_counter()
    rerun = run_experiment_grid(variants, k=10, seed=3)
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0, f"grid rerun took {elapsed:.1f}s"

    assert report_csv_rows(rerun) == report_csv_rows(grid)
    assert render_summary_text(rerun) == render_summary_text(grid)
    for key in grid.reports:
        assert render_report_text(rerun.reports[key]) == render_report_text(
            grid.reports[key]
        )


def test_criterion_09_render_parse_round_trip(scaled_cohort):
    result, _truth = scaled_cohort
    merged = join_on_id(result.discretized, drop_id=False)
    y, labels = (
        [row[merged.class_index] for row in merged.rows],
        merged.class_spec.labels,
    )
    plan = _stratified_folds(y, len(labels), 10, stable_seed(6, "folds"))
    for algorithm in ("ripper", "part"):
        fold_models = [
            train(
                algorithm,
                merged.with_rows([merged.rows[i] for i in plan.train_indices(f)]),
                seed=stable_seed(6, algorithm, f),
            )
            for f in range(10)
        ]
        fold_models.append(train(algorithm, merged, seed=stable_seed(6, algorithm)))
        for model in fold_models:
            reparsed = parse_rules(render_rules(model), model.specs)
            for row in merged.rows:
                assert predict_label(reparsed, row) == predict_label(model, row)


PLANTED_LIST_LINES = [
    "IF Moodle.Quiz = High THEN Pass",
    "IF Moodle.Quiz = Medium AND Theory.Attention = Medium THEN Pass",
    "IF Moodle.Quiz = Low THEN Fail",
    "IF Theory.Attention = Low AND Moodle.Forum = Low THEN Dropout",
    "ELSE Pass",
    "Number of Rules : 5",
]


def test_criterion_10_documentary_fidelity(tmp_path, capsys):
    # Cohort whose canonical decision list IS the planted one: the rule
    # mix keeps the two explicit Pass profiles dominant and the value
    # bias keeps high attention common where the rules leave it free.
    spec = CohortSpec(
        n_students=461,
        class_counts=(286, 95, 80),
        seed=42,
        rule_mix={"Pass": {0: 120.0, 1: 100.0, 4: 66.0}},
        value_bias={"Theory.Attention": {"High": 3.0}},
    )
    bundle, _truth = generate(spec)
    result = preprocess_bundle(bundle)
    merged = join_on_id(result.discretized, drop_id=True)
    model = train("part", merged, seed=0)
    model_path = tmp_path / "model.json"
    save_model(model, model_path)
    assert cli_main(["explain", "--model", str(model_path)]) == 0
    printed = capsys.readouterr().out
    assert sorted(printed.strip().splitlines()) == sorted(PLANTED_LIST_LINES)
    assert "Number of Rules : 5" in printed
