import random

import pytest

from fusemine.learners import ExemplarSet, Model, predict, predict_label, render_rules, train
from fusemine.learners.encode import encode_row
from fusemine.learners.model import Exemplar, exemplar_distance
from fusemine.tabular import AttributeSpec

from helpers import GRADE, STATUS, planted_dataset


def training_accuracy(model, table):
    class_idx = table.class_index
    labels = table.specs[class_idx].labels
    hits = sum(
        1 for row in table.rows if predict_label(model, row) == labels[row[class_idx]]
    )
    return hits / table.n_rows


class TestNnge:
    def test_memorizes_training_data(self):
        table = planted_dataset(n=200, seed=1)
        model = train("nnge", table)
        assert isinstance(model.structure, ExemplarSet)
        assert training_accuracy(model, table) == 1.0

    def test_numeric_memorization(self):
        table = planted_dataset(n=150, seed=2, numeric=True)
        model = train("nnge", table)
        assert training_accuracy(model, table) >= 0.99

    def test_generalizes_into_rectangles(self):
        table = planted_dataset(n=200, seed=3)
        model = train("nnge", table)
        assert len(model.structure.exemplars) < table.n_rows

    def test_order_sensitivity_documented(self):
        table = planted_dataset(n=100, seed=4)
        model = train("nnge", table)
        assert model.metadata["order_sensitive"] is True

    def test_deterministic(self):
        table = planted_dataset(n=120, seed=5, noise=0.1)
        assert render_rules(train("nnge", table)) == render_rules(train("nnge", table))

    def test_no_wrong_class_rectangle_covers_a_clean_instance(self):
        table = planted_dataset(n=200, seed=6)
        model = train("nnge", table)
        structure = model.structure
        for row in table.rows[:50]:
            label = row[-1]
            enc = encode_row(
                model.specs, model.input_indices,
                model.metadata.get("numeric_fill", {}), row,
            )
            for ex in structure.exemplars:
                if ex.cls != label:
                    d = exemplar_distance(model, ex, structure.ranges, enc)
                    assert d > 0.0

    def test_distributions_valid(self):
        table = planted_dataset(n=120, seed=7, noise=0.2)
        model = train("nnge", table)
        rng = random.Random(2)
        for _ in range(60):
            row = tuple(rng.randrange(3) for _ in range(5)) + (None,)
            dist = predict(model, row)
            assert sum(dist) == pytest.approx(1.0, abs=1e-9)
            assert all(0.0 <= p <= 1.0 for p in dist)

    def test_render_lists_exemplars(self):
        table = planted_dataset(n=60, seed=8)
        text = render_rules(train("nnge", table))
        assert text.strip().splitlines()[-1].startswith("Number of Exemplars : ")
        assert text.startswith("IF ")


def reference_distance(model, ex, ranges, enc_values):
    """Per-exemplar distance loop, kept as the reference for the row plan."""
    total = 0.0
    for i in model.input_indices:
        spec = model.specs[i]
        v = enc_values[i]
        if spec.is_numeric:
            lo = ex.lo.get(i, 0.0)
            hi = ex.hi.get(i, 0.0)
            r_lo, r_hi = ranges.get(i, (0.0, 1.0))
            span = r_hi - r_lo
            if v < lo:
                d = (lo - v) / span if span > 0 else 1.0
            elif v > hi:
                d = (v - hi) / span if span > 0 else 1.0
            else:
                d = 0.0
        else:
            d = 0.0 if v in ex.label_sets.get(i, frozenset()) else 1.0
        total += d * d
    return total ** 0.5


def mixed_exemplar_model(rng):
    """Interleaved numeric and nominal inputs; exemplars and ranges miss keys."""
    specs = (
        AttributeSpec.numeric("a"),
        AttributeSpec.nominal("b", GRADE),
        AttributeSpec.numeric("c"),
        AttributeSpec.nominal("d", GRADE),
        AttributeSpec.numeric("e"),
        AttributeSpec.nominal("Status", STATUS, role="class"),
    )
    exemplars = []
    for _ in range(40):
        lo, hi, label_sets = {}, {}, {}
        for a in (0, 2, 4):
            x, y = sorted(rng.uniform(-0.2, 1.2) for _ in range(2))
            if rng.random() < 0.8:
                lo[a] = x
            if rng.random() < 0.8:
                hi[a] = y
        for a in (1, 3):
            if rng.random() < 0.8:
                label_sets[a] = frozenset(rng.sample(range(4), rng.randrange(1, 3)))
        exemplars.append(Exemplar(rng.randrange(3), lo, hi, label_sets))
    ranges = {0: (0.0, 1.0), 2: (0.5, 0.5)}  # "c" has zero span, "e" no range
    return Model(
        algorithm="nnge",
        specs=specs,
        class_labels=STATUS,
        structure=ExemplarSet(exemplars, ranges),
        metadata={"numeric_fill": {"a": 0.5, "c": 0.5, "e": 0.5}},
    )


def test_predict_matches_brute_force_on_mixed_inputs():
    rng = random.Random(11)
    model = mixed_exemplar_model(rng)
    structure = model.structure
    for _ in range(200):
        row = tuple(
            None if rng.random() < 0.1 else
            (rng.uniform(-0.5, 1.5) if spec.is_numeric else rng.randrange(3))
            for spec in model.specs[:-1]
        ) + (None,)
        enc = encode_row(
            model.specs, model.input_indices, model.metadata["numeric_fill"], row,
        )
        best = [None] * 3
        for ex in structure.exemplars:
            d = reference_distance(model, ex, structure.ranges, enc)
            assert exemplar_distance(model, ex, structure.ranges, enc) == d
            if best[ex.cls] is None or d < best[ex.cls]:
                best[ex.cls] = d
        weights = [0.0 if d is None else 1.0 / (d + 1e-9) for d in best]
        assert predict(model, row) == tuple(w / sum(weights) for w in weights)
