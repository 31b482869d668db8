import random

import numpy as np
import pytest

from fusemine import ensemble, evaluation
from fusemine.ensemble import APPROACHES, FusionConfig, prepare_approach, weight_search
from fusemine.errors import LengthMismatchError, SingleClassTruthError, TooFewRowsError
from fusemine.evaluation import (
    DEFAULT_ALGORITHM_ORDER,
    EvaluationReport,
    GridResult,
    accuracy,
    auc_weighted,
    cross_validate,
    render_report_text,
    render_summary_text,
    report_csv_rows,
    run_experiment_grid,
    stable_seed,
    stratified_kfold,
)
from fusemine.preprocess import preprocess_bundle
from fusemine.selection import select_best_attributes
from fusemine.synth import CohortSpec, generate
from fusemine.tabular import AttributeSpec, DataTable, SourceBundle

from helpers import GRADE, STATUS, planted_label


def status_table(class_counts, k_labels=STATUS):
    rows = []
    ids = 1
    for cls, count in enumerate(class_counts):
        for _ in range(count):
            rows.append((float(ids), 0.5, cls))
            ids += 1
    specs = [
        AttributeSpec.numeric("id", role="id"),
        AttributeSpec.numeric("x"),
        AttributeSpec.nominal("Status", k_labels, role="class"),
    ]
    return DataTable(specs, rows)


class TestStratifiedKfold:
    def test_cohort_fold_sizes_and_class_balance(self):
        table = status_table((19, 17, 21))
        for seed in range(30):
            plan = stratified_kfold(table, 10, seed)
            all_rows = sorted(i for fold in plan.folds for i in fold)
            assert all_rows == list(range(57))
            y = [row[2] for row in table.rows]
            for fold in plan.folds:
                assert 5 <= len(fold) <= 6
                for cls, n_cls in ((0, 19), (1, 17), (2, 21)):
                    count = sum(1 for i in fold if y[i] == cls)
                    assert abs(count - n_cls / 10) <= 1

    def test_leave_one_out(self):
        table = status_table((3, 3, 3))
        plan = stratified_kfold(table, 9, seed=0)
        assert all(len(fold) == 1 for fold in plan.folds)

    def test_empty_class_rejected(self):
        table = status_table((5, 5, 0))
        with pytest.raises(TooFewRowsError):
            stratified_kfold(table, 2, seed=0)

    def test_more_folds_than_rows_rejected(self):
        table = status_table((2, 2, 2))
        with pytest.raises(TooFewRowsError):
            stratified_kfold(table, 10, seed=0)

    def test_deterministic(self):
        table = status_table((19, 17, 21))
        assert stratified_kfold(table, 10, 5) == stratified_kfold(table, 10, 5)


class TestAccuracy:
    def test_paper_style_fraction(self):
        predictions = [0] * 46 + [1] * 11
        truth = [0] * 46 + [0] * 11
        assert round(accuracy(predictions, truth), 4) == 80.7018

    def test_all_correct(self):
        assert accuracy([1, 2, 0], [1, 2, 0]) == 100.0

    def test_random_predictions_near_chance(self):
        rng = random.Random(0)
        truth = [rng.randrange(3) for _ in range(30000)]
        predictions = [rng.randrange(3) for _ in range(30000)]
        assert accuracy(predictions, truth) == pytest.approx(33.33, abs=1.5)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatchError):
            accuracy([0], [0, 1])


def brute_force_auc(scores, positives):
    """O(n^2) pairwise oracle with half-credit ties."""
    pos = [s for s, flag in zip(scores, positives) if flag]
    neg = [s for s, flag in zip(scores, positives) if not flag]
    total = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                total += 1.0
            elif p == q:
                total += 0.5
    return total / (len(pos) * len(neg))


class TestAuc:
    def test_perfect_separation(self):
        dists = [(0.9, 0.1), (0.8, 0.2), (0.1, 0.9), (0.2, 0.8)]
        truth = [0, 0, 1, 1]
        auc, per_class = auc_weighted(dists, truth, 2)
        assert auc == 1.0
        assert per_class == {0: 1.0, 1: 1.0}

    def test_all_tied_scores(self):
        dists = [(0.5, 0.5)] * 6
        truth = [0, 0, 0, 1, 1, 1]
        auc, per_class = auc_weighted(dists, truth, 2)
        assert auc == 0.5
        assert set(per_class.values()) == {0.5}

    def test_single_class_truth_rejected(self):
        with pytest.raises(SingleClassTruthError):
            auc_weighted([(1.0, 0.0)] * 4, [0, 0, 0, 0], 2)

    def test_absent_class_excluded_from_mean(self):
        dists = [(0.9, 0.1, 0.0), (0.1, 0.9, 0.0), (0.8, 0.2, 0.0), (0.2, 0.8, 0.0)]
        truth = [0, 1, 0, 1]
        auc, per_class = auc_weighted(dists, truth, 3)
        assert 2 not in per_class
        assert auc == 1.0

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(7)
        for trial in range(40):
            n = int(rng.integers(10, 120))
            n_classes = int(rng.integers(2, 4))
            truth = rng.integers(0, n_classes, size=n)
            while len(set(truth.tolist())) < 2:
                truth = rng.integers(0, n_classes, size=n)
            raw = rng.choice([0.0, 0.25, 0.5, 0.75, 1.0], size=(n, n_classes))
            dists = [tuple(map(float, row)) for row in raw]
            auc, per_class = auc_weighted(dists, truth.tolist(), n_classes)
            expected_sum = 0.0
            weight = 0
            for cls, value in per_class.items():
                positives = [t == cls for t in truth.tolist()]
                scores = [d[cls] for d in dists]
                oracle = brute_force_auc(scores, positives)
                assert value == pytest.approx(oracle, abs=1e-9)
                expected_sum += sum(positives) * oracle
                weight += sum(positives)
            assert auc == pytest.approx(expected_sum / weight, abs=1e-9)

    def test_random_scores_near_half(self):
        rng = np.random.default_rng(3)
        truth = rng.integers(0, 2, size=2000).tolist()
        dists = [(float(v), float(1 - v)) for v in rng.random(2000)]
        auc, _ = auc_weighted(dists, truth, 2)
        assert auc == pytest.approx(0.5, abs=0.03)


def planted_cv_bundle(n=120, seed=0):
    rng = random.Random(seed)
    ids = [float(i + 1) for i in range(n)]
    id_spec = AttributeSpec.numeric("id", role="id")
    quiz, att, forum, labels = [], [], [], []
    for _ in range(n):
        q, a, f = (rng.randrange(3) for _ in range(3))
        quiz.append(q)
        att.append(a)
        forum.append(f)
        labels.append(planted_label(q, a, f))
    theory = DataTable(
        [id_spec, AttributeSpec.nominal("Theory.Attention", GRADE)],
        [(key, att[i]) for i, key in enumerate(ids)],
    )
    practice = DataTable(
        [id_spec, AttributeSpec.nominal("Practice.Score", GRADE)],
        [(key, rng.randrange(3)) for i, key in enumerate(ids)],
    )
    online = DataTable(
        [
            id_spec,
            AttributeSpec.nominal("Moodle.Quiz", GRADE),
            AttributeSpec.nominal("Moodle.Forum", GRADE),
        ],
        [(key, quiz[i], forum[i]) for i, key in enumerate(ids)],
    )
    exam = DataTable(
        [id_spec, AttributeSpec.nominal("Status", STATUS, role="class")],
        [(key, labels[i]) for i, key in enumerate(ids)],
    )
    return SourceBundle(
        {"theory": theory, "practice": practice, "online": online, "exam": exam}
    )


class TestCrossValidate:
    def test_planted_concept_recovered(self):
        bundle = planted_cv_bundle(n=240, seed=1)
        result = cross_validate(FusionConfig(approach="merge"), "c45", bundle, k=10, seed=0)
        assert result.accuracy_pct >= 95.0
        assert result.auc >= 0.95

    def test_uninformative_inputs_score_majority_rate(self):
        # Constant inputs force constant majority models.
        ids = [float(i + 1) for i in range(60)]
        id_spec = AttributeSpec.numeric("id", role="id")
        theory = DataTable(
            [id_spec, AttributeSpec.nominal("Theory.A", GRADE)],
            [(i, 0) for i in ids],
        )
        practice = DataTable(
            [id_spec, AttributeSpec.nominal("Practice.A", GRADE)],
            [(i, 0) for i in ids],
        )
        online = DataTable(
            [id_spec, AttributeSpec.nominal("Moodle.A", GRADE)],
            [(i, 0) for i in ids],
        )
        exam = DataTable(
            [id_spec, AttributeSpec.nominal("Status", STATUS, role="class")],
            [(i, 0 if n < 30 else (1 if n < 50 else 2)) for n, i in enumerate(ids)],
        )
        bundle = SourceBundle(
            {"theory": theory, "practice": practice, "online": online, "exam": exam}
        )
        result = cross_validate(FusionConfig(approach="merge"), "c45", bundle, k=5, seed=0)
        assert result.accuracy_pct == pytest.approx(50.0, abs=1e-9)

    def test_same_call_twice_identical(self):
        bundle = planted_cv_bundle(n=90, seed=2)
        config = FusionConfig(approach="ensemble")
        first = cross_validate(config, "ripper", bundle, k=5, seed=3)
        second = cross_validate(config, "ripper", bundle, k=5, seed=3)
        assert first == second

    def test_confusion_matrix_sums_to_n(self):
        bundle = planted_cv_bundle(n=90, seed=3)
        result = cross_validate(FusionConfig(approach="merge"), "part", bundle, k=5, seed=0)
        assert sum(map(sum, result.confusion)) == 90

    def test_fold_local_select_runs(self):
        bundle = planted_cv_bundle(n=90, seed=4)
        result = cross_validate(
            FusionConfig(approach="select"), "c45", bundle, k=5, seed=0,
            fold_local_select=True,
        )
        assert result.accuracy_pct > 60.0


class TestFoldSelection:
    @pytest.fixture(scope="class")
    def cohort(self):
        raw, _ = generate(CohortSpec(n_students=60, class_counts=(20, 18, 22), seed=4))
        return preprocess_bundle(raw).discretized

    @pytest.mark.parametrize("approach, unselected", [
        ("select", "merge"), ("ensemble-select", "ensemble"),
    ])
    def test_each_fold_records_its_own_selection(self, cohort, approach, unselected):
        result = cross_validate(
            FusionConfig(approach=approach), "c45", cohort, k=5, seed=1,
            fold_local_select=True,
        )
        prepared = prepare_approach(FusionConfig(approach=unselected), cohort)
        tables = {"merged": prepared.merged} if prepared.kind == "merged" else prepared.per_source
        for fold in result.folds:
            train = [i for i in range(result.n_rows) if i not in fold.test_indices]
            assert fold.selected == {
                name: select_best_attributes(table.with_rows([table.rows[i] for i in train]))
                for name, table in tables.items()
            }

    def test_full_data_selection_recorded_on_every_fold(self, cohort):
        config = FusionConfig(approach="select")
        result = cross_validate(config, "c45", cohort, k=5, seed=1)
        expected = prepare_approach(config, cohort).selected
        assert [fold.selected for fold in result.folds] == [expected] * 5


@pytest.fixture(scope="module")
def grid():
    bundle = planted_cv_bundle(n=90, seed=5)
    variants = {"numeric": bundle, "discretized": bundle}
    return run_experiment_grid(variants, algorithms=("c45", "ripper"), k=5, seed=11)


class TestExperimentGrid:

    def test_shape(self, grid):
        assert len(grid.reports) == 8
        for report in grid.reports.values():
            assert [row.algorithm for row in report.rows] == ["c45", "ripper"]

    def test_averages_match_rows(self, grid):
        for report in grid.reports.values():
            acc, auc = report.averages()
            assert acc == pytest.approx(
                sum(r.accuracy_pct for r in report.rows) / len(report.rows), abs=1e-9
            )
            assert auc == pytest.approx(
                sum(r.auc for r in report.rows) / len(report.rows), abs=1e-9
            )

    def test_renderings_are_deterministic(self, grid):
        bundle = planted_cv_bundle(n=90, seed=5)
        variants = {"numeric": bundle, "discretized": bundle}
        again = run_experiment_grid(variants, algorithms=("c45", "ripper"), k=5, seed=11)
        assert report_csv_rows(again) == report_csv_rows(grid)
        for key in grid.reports:
            assert render_report_text(again.reports[key]) == render_report_text(
                grid.reports[key]
            )
        assert render_summary_text(again) == render_summary_text(grid)

    def test_csv_layout(self, grid):
        lines = report_csv_rows(grid).splitlines()
        assert lines[0] == "approach,variant,algorithm,accuracy_pct,auc"
        assert len(lines) == 1 + 8 * 2
        cells = lines[1].split(",")
        assert len(cells) == 5
        float(cells[3]), float(cells[4])

    def test_best_cell_reported(self, grid):
        algorithm, approach, variant, acc, auc = grid.best_cell()
        assert algorithm in ("c45", "ripper")
        assert 0 <= acc <= 100 and 0 <= auc <= 1

    def test_report_text_mirrors_table_layout(self, grid):
        text = render_report_text(grid.reports[("merge", "numeric")])
        assert "% Accuracy" in text and "AUC" in text
        assert text.rstrip().splitlines()[-1].startswith("Avg.")


class TestStableSeed:
    def test_distinct_cells_get_distinct_seeds(self):
        seeds = {
            stable_seed(1, approach, variant, algorithm)
            for approach in ("merge", "select")
            for variant in ("numeric", "discretized")
            for algorithm in DEFAULT_ALGORITHM_ORDER
        }
        assert len(seeds) == 2 * 2 * len(DEFAULT_ALGORITHM_ORDER)

    def test_stable_across_calls(self):
        assert stable_seed("a", 1) == stable_seed("a", 1)


class TestSharedPreparation:
    @pytest.fixture(scope="class")
    def variants(self):
        raw, _ = generate(CohortSpec(n_students=45, class_counts=(15, 14, 16), seed=9))
        pre = preprocess_bundle(raw)
        return {"numeric": pre.numeric, "discretized": pre.discretized}

    @pytest.fixture
    def calls(self, monkeypatch):
        """Counts of ``cross_validate`` and ``prepare_approach`` calls, wherever made."""
        counts = {"cross_validate": 0, "prepare_approach": 0}
        cross_validate, prepare = evaluation.cross_validate, ensemble.prepare_approach

        def counted_cross_validate(*args, **kwargs):
            counts["cross_validate"] += 1
            return cross_validate(*args, **kwargs)

        def counted_prepare(*args, **kwargs):
            counts["prepare_approach"] += 1
            return prepare(*args, **kwargs)

        monkeypatch.setattr(evaluation, "cross_validate", counted_cross_validate)
        for module in (ensemble, evaluation):
            monkeypatch.setattr(module, "prepare_approach", counted_prepare)
        return counts

    def test_grid_prepares_once_per_approach_and_variant(self, variants, calls):
        grid = run_experiment_grid(variants, k=3, seed=2)
        assert calls == {"cross_validate": 48, "prepare_approach": 8}
        reports = {}
        for approach in APPROACHES:
            for variant, bundle in variants.items():
                rows = [
                    cross_validate(
                        FusionConfig(approach=approach), algorithm, bundle, k=3,
                        seed=stable_seed(2, approach, variant, algorithm),
                        plan_seed=stable_seed(2, "folds", variant),
                    )
                    for algorithm in DEFAULT_ALGORITHM_ORDER
                ]
                reports[(approach, variant)] = EvaluationReport(approach, variant, rows, 3, 2)
        assert calls["prepare_approach"] == 8 + 48
        assert report_csv_rows(GridResult(reports, k=3, seed=2)) == report_csv_rows(grid)

    def test_weight_search_prepares_once(self, variants, calls):
        weight_search(variants["discretized"], "c45", k=3, seed=1)
        assert calls == {"cross_validate": 8, "prepare_approach": 1}
