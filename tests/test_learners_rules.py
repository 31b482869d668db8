import random

import pytest

from fusemine.errors import SchemaMismatchError
from fusemine.learners import (
    RuleList,
    fired_rule_index,
    predict,
    predict_label,
    render_rules,
    train,
)
from fusemine.tabular import AttributeSpec, DataTable

from helpers import GRADE, STATUS, planted_dataset


def training_accuracy(model, table):
    class_idx = table.class_index
    labels = table.specs[class_idx].labels
    hits = sum(
        1 for row in table.rows if predict_label(model, row) == labels[row[class_idx]]
    )
    return hits / table.n_rows


@pytest.mark.parametrize("algorithm", ["part", "ripper"])
class TestRuleInducers:
    def test_planted_rules_fit_exactly(self, algorithm):
        table = planted_dataset(n=300, seed=1)
        model = train(algorithm, table, seed=4)
        assert isinstance(model.structure, RuleList)
        assert training_accuracy(model, table) == 1.0

    def test_rule_list_ends_with_default(self, algorithm):
        table = planted_dataset(n=200, seed=2, noise=0.1)
        model = train(algorithm, table, seed=4)
        rules = model.structure.rules
        assert rules[-1].is_default
        assert all(not r.is_default for r in rules[:-1])

    def test_every_instance_is_covered(self, algorithm):
        table = planted_dataset(n=150, seed=3, noise=0.2)
        model = train(algorithm, table, seed=4)
        rng = random.Random(0)
        for _ in range(50):
            row = tuple(rng.randrange(3) for _ in range(5)) + (None,)
            assert fired_rule_index(model, row) >= 0

    def test_deterministic(self, algorithm):
        table = planted_dataset(n=150, seed=4, noise=0.1)
        assert render_rules(train(algorithm, table, seed=9)) == render_rules(
            train(algorithm, table, seed=9)
        )

    def test_row_permutation_invariant(self, algorithm):
        table = planted_dataset(n=150, seed=5, noise=0.15)
        rows = list(table.rows)
        random.Random(7).shuffle(rows)
        permuted = table.with_rows(rows)
        assert render_rules(train(algorithm, table, seed=6)) == render_rules(
            train(algorithm, permuted, seed=6)
        )

    def test_numeric_conditions_fit(self, algorithm):
        table = planted_dataset(n=300, seed=6, numeric=True)
        model = train(algorithm, table, seed=2)
        assert training_accuracy(model, table) >= 0.95

    def test_distributions_valid(self, algorithm):
        table = planted_dataset(n=120, seed=7, noise=0.25)
        model = train(algorithm, table, seed=3)
        rng = random.Random(1)
        for _ in range(60):
            row = tuple(rng.randrange(3) for _ in range(5)) + (None,)
            dist = predict(model, row)
            assert sum(dist) == pytest.approx(1.0, abs=1e-9)
            assert all(0.0 <= p <= 1.0 for p in dist)


class TestRuleSemantics:
    def test_matched_rule_counts_drive_argmax(self):
        # An instance matching a rule covering (0 Pass, 5 Fail, 0 Dropout)
        # must be predicted Fail.
        specs = [
            AttributeSpec.nominal("a", GRADE),
            AttributeSpec.nominal("Status", STATUS, role="class"),
        ]
        rows = [(0, 1)] * 5 + [(2, 0)] * 7
        model = train("ripper", DataTable(specs, rows), seed=0)
        assert predict_label(model, (0, None)) == "Fail"
        dist = predict(model, (0, None))
        assert dist[1] == max(dist)

    def test_first_matching_rule_fires(self):
        table = planted_dataset(n=300, seed=8)
        model = train("part", table, seed=0)
        rules = model.structure.rules
        fired = fired_rule_index(model, table.rows[0])
        for earlier in range(fired):
            conds = rules[earlier].conditions
            from fusemine.learners.model import condition_matches
            from fusemine.learners.encode import encode_row

            enc = encode_row(
                model.specs, model.input_indices,
                model.metadata.get("numeric_fill", {}), table.rows[0],
            )
            assert not all(condition_matches(model, c, enc) for c in conds)

    def test_attr_index_by_name(self):
        model = train("part", planted_dataset(n=60, seed=8), seed=0)
        for i, spec in enumerate(model.specs):
            assert model.attr_index(spec.name) == i
        with pytest.raises(SchemaMismatchError):
            model.attr_index("NoSuchAttribute")


class TestRipperSpecifics:
    def test_default_rule_is_most_frequent_class(self):
        table = planted_dataset(n=300, seed=9)
        model = train("ripper", table, seed=0)
        labels = [model.class_labels[row[-1]] for row in table.rows]
        most_frequent = max(set(labels), key=labels.count)
        assert model.structure.rules[-1].cls == most_frequent

    def test_optimize_passes_recorded(self):
        table = planted_dataset(n=100, seed=10)
        model = train("ripper", table, seed=0)
        assert model.metadata["params"]["optimize_passes"] == 1

    def test_noise_prunes_rule_count(self):
        clean = train("ripper", planted_dataset(n=300, seed=11), seed=0)
        noisy = train("ripper", planted_dataset(n=300, seed=11, noise=0.35), seed=0)
        assert len(noisy.structure.rules) <= len(clean.structure.rules) + 2
