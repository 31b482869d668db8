import contextlib
import math
import random
import signal

import pytest
from hypothesis import given, settings, strategies as st

from fusemine.errors import InvalidParamsError
from fusemine.learners import (
    ALGORITHMS,
    DecisionTree,
    Model,
    RuleList,
    predict,
    predict_label,
    render_rules,
    train,
)
from fusemine.learners.encode import encode_table
from fusemine.learners.model import encoded_paths
from fusemine.learners.trees import (
    _EPS,
    _numeric_split,
    add_errs,
    build_c45,
    class_counts,
    cut_between,
    entropy,
)
from fusemine.tabular import AttributeSpec, DataTable

from helpers import GRADE, STATUS, planted_dataset


def training_accuracy(model, table):
    class_idx = table.class_index
    labels = table.specs[class_idx].labels
    hits = sum(
        1
        for row in table.rows
        if predict_label(model, row) == labels[row[class_idx]]
    )
    return hits / table.n_rows


def c45_at(table, confidence, min_leaf=2):
    """A C4.5 model grown at a chosen setting; ``train`` uses the fixed one."""
    enc = encode_table(table)
    tree = build_c45(enc, range(enc.n_rows), confidence, min_leaf)
    metadata = {"numeric_fill": dict(enc.numeric_fill)}
    return Model("c45", enc.specs, enc.class_labels, DecisionTree(tree), metadata)


class TestC45:
    def test_planted_rules_fit_exactly(self):
        table = planted_dataset(n=300, seed=1)
        model = train("c45", table)
        assert training_accuracy(model, table) == 1.0

    def test_numeric_thresholds_fit(self):
        table = planted_dataset(n=300, seed=2, numeric=True)
        model = train("c45", table)
        assert training_accuracy(model, table) >= 0.98

    def test_row_permutation_leaves_model_unchanged(self):
        table = planted_dataset(n=150, seed=3, noise=0.1)
        shuffled_rows = list(table.rows)
        random.Random(9).shuffle(shuffled_rows)
        permuted = table.with_rows(shuffled_rows)
        assert render_rules(train("c45", table)) == render_rules(train("c45", permuted))

    def test_pruning_never_beats_unpruned_on_training_data(self):
        for seed in range(5):
            table = planted_dataset(n=120, seed=seed, noise=0.3)
            pruned = c45_at(table, confidence=0.25)
            unpruned = c45_at(table, confidence=0.5)
            assert isinstance(pruned.structure, DecisionTree)
            assert pruned.structure.n_leaves() <= unpruned.structure.n_leaves()
            assert training_accuracy(pruned, table) <= training_accuracy(
                unpruned, table
            ) + 1e-12

    def test_single_class_gives_constant_model(self):
        specs = [
            AttributeSpec.nominal("a", GRADE),
            AttributeSpec.nominal("Status", STATUS, role="class"),
        ]
        table = DataTable(specs, [(0, 1), (1, 1), (2, 1)])
        model = train("c45", table)
        assert model.metadata["degenerate"] is True
        assert predict(model, (0, None)) == (0.0, 1.0, 0.0)
        assert render_rules(model) == "ELSE Fail\nNumber of Rules : 1\n"

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(InvalidParamsError):
            train("cart", planted_dataset(30))


class TestLaplaceSmoothing:
    def test_leaf_counts_smoothed(self):
        # A pure nominal branch with counts (8, 0, 0) must emit (9/11, 1/11, 1/11).
        specs = [
            AttributeSpec.nominal("a", ("x", "y")),
            AttributeSpec.nominal("Status", STATUS, role="class"),
        ]
        rows = [(0, 0)] * 8 + [(1, 1)] * 8
        model = train("c45", DataTable(specs, rows))
        dist = predict(model, (0, None))
        assert dist == pytest.approx((9 / 11, 1 / 11, 1 / 11))

    def test_distribution_is_probability_vector(self):
        rng = random.Random(4)
        table = planted_dataset(n=100, seed=5, noise=0.2)
        for algorithm in ("c45", "reptree", "randomtree"):
            model = train(algorithm, table, seed=11)
            for _ in range(60):
                row = tuple(rng.randrange(3) for _ in range(5)) + (None,)
                dist = predict(model, row)
                assert all(0.0 <= p <= 1.0 for p in dist)
                assert sum(dist) == pytest.approx(1.0, abs=1e-9)


class TestRepTree:
    def test_planted_rules_fit(self):
        table = planted_dataset(n=400, seed=6)
        model = train("reptree", table, seed=1)
        assert training_accuracy(model, table) >= 0.95

    def test_deterministic_given_seed(self):
        table = planted_dataset(n=150, seed=7, noise=0.1)
        a = render_rules(train("reptree", table, seed=3))
        b = render_rules(train("reptree", table, seed=3))
        assert a == b

    def test_row_permutation_invariant(self):
        table = planted_dataset(n=150, seed=8, noise=0.15)
        shuffled_rows = list(table.rows)
        random.Random(2).shuffle(shuffled_rows)
        permuted = table.with_rows(shuffled_rows)
        assert render_rules(train("reptree", table, seed=5)) == render_rules(
            train("reptree", permuted, seed=5)
        )

    def test_pruning_reacts_to_noise(self):
        table = planted_dataset(n=200, seed=9, noise=0.35)
        model = train("reptree", table, seed=1)
        full = c45_at(table, confidence=0.5, min_leaf=1)
        assert model.structure.n_leaves() <= full.structure.n_leaves()


class TestRandomTree:
    def test_same_seed_same_tree(self):
        table = planted_dataset(n=200, seed=10)
        a = render_rules(train("randomtree", table, seed=21))
        b = render_rules(train("randomtree", table, seed=21))
        assert a == b

    def test_different_seeds_usually_differ(self):
        table = planted_dataset(n=200, seed=11, noise=0.1)
        renders = {render_rules(train("randomtree", table, seed=s)) for s in range(6)}
        assert len(renders) > 1

    def test_fits_planted_concept(self):
        table = planted_dataset(n=400, seed=12)
        model = train("randomtree", table, seed=2)
        assert training_accuracy(model, table) >= 0.95


class TestPessimisticErrors:
    def test_zero_error_base_case(self):
        # No observed errors still yields a positive pessimistic estimate.
        assert add_errs(100, 0, 0.25) == pytest.approx(100 * (1 - 0.25 ** 0.01))

    def test_monotone_in_errors(self):
        values = [add_errs(50, e, 0.25) + e for e in range(0, 20)]
        assert all(b >= a for a, b in zip(values, values[1:]))


class TestTreeRender:
    def test_two_leaf_stump_size(self):
        specs = [
            AttributeSpec.nominal("a", ("x", "y")),
            AttributeSpec.nominal("Status", STATUS, role="class"),
        ]
        rows = [(0, 0)] * 5 + [(1, 1)] * 5
        model = train("c45", DataTable(specs, rows))
        text = render_rules(model)
        assert "Size of the tree : 3" in text
        assert "Number of Leaves: 2" in text
        assert text.splitlines()[0] == "IF a = x THEN Pass"
        assert text.splitlines()[1] == "ELSE IF a = y THEN Fail"

    def test_deep_branches_use_pipes(self):
        table = planted_dataset(n=300, seed=13)
        text = render_rules(train("c45", table))
        assert any(line.startswith("| ") for line in text.splitlines())


class TestPathInvariants:
    def test_nominal_attribute_tested_at_most_once_per_path(self):
        from fusemine.learners import tree_paths

        table = planted_dataset(n=200, seed=14, noise=0.2)
        for algorithm in ("c45", "reptree", "randomtree"):
            model = train(algorithm, table, seed=3)
            for conditions, _leaf in tree_paths(model):
                nominal_attrs = [c.attr for c in conditions if c.op == "="]
                assert len(nominal_attrs) == len(set(nominal_attrs))


class TestMissingValueRobustness:
    def test_training_with_missing_cells(self):
        # Missing nominal values act as their own category; missing
        # numeric values take the training median.
        rng = random.Random(15)
        base = planted_dataset(n=160, seed=15)
        rows = []
        for row in base.rows:
            row = list(row)
            if rng.random() < 0.15:
                row[rng.randrange(5)] = None
            rows.append(tuple(row))
        holed = base.with_rows(rows)
        for algorithm in ("c45", "reptree", "ripper", "part", "nnge"):
            model = train(algorithm, holed, seed=1)
            dist = predict(model, (None, None, None, None, None, None))
            assert sum(dist) == pytest.approx(1.0, abs=1e-9)
            text = render_rules(model)
            assert text  # renders without errors, "?" allowed in branches

    def test_numeric_missing_uses_median(self):
        specs = [
            AttributeSpec.numeric("x"),
            AttributeSpec.nominal("Status", STATUS, role="class"),
        ]
        rows = [(0.0, 0), (1.0, 0), (2.0, 0), (None, 1), (9.0, 1), (10.0, 1), (11.0, 1)]
        model = train("c45", DataTable(specs, rows))
        assert model.metadata["numeric_fill"]["x"] == 5.5  # median of present values


def reference_numeric_split(enc, idx, attr, parent_h, min_leaf, use_ratio):
    """The threshold scan as first written, one ``entropy`` call per side.

    The cut between two neighbouring values comes from ``cut_between``,
    which ``TestCutBetween`` pins."""
    col = enc.cols[attr]
    y = enc.y
    n = len(idx)
    if n < 2 * min_leaf:
        return None
    order = sorted(idx, key=lambda i: col[i])
    left = [0.0] * enc.n_classes
    right = class_counts(enc, order)
    best = None
    n_left = 0
    for pos in range(n - 1):
        i = order[pos]
        left[y[i]] += 1.0
        right[y[i]] -= 1.0
        n_left += 1
        if col[i] == col[order[pos + 1]]:
            continue
        n_right = n - n_left
        if n_left < min_leaf or n_right < min_leaf:
            continue
        weighted = (
            n_left / n * entropy(left, n_left) + n_right / n * entropy(right, n_right)
        )
        gain = parent_h - weighted
        if gain <= _EPS:
            continue
        if use_ratio:
            p = n_left / n
            split_info = -(p * math.log2(p) + (1 - p) * math.log2(1 - p))
            if split_info <= _EPS:
                continue
            score = gain / split_info
        else:
            score = gain
        threshold = cut_between(col[i], col[order[pos + 1]])
        if best is None or score > best[0] + _EPS:
            best = (score, threshold)
    return best


#: Few distinct values, so that ties are common; the signed zeros tie too.
TIED_VALUES = st.sampled_from([-0.0, 0.0, 0.25, 0.5, 1.0, 1.0 / 3.0, 7.5])


class TestNumericSplitScan:
    @settings(max_examples=400, deadline=None)
    @given(data=st.data())
    def test_matches_reference_bit_for_bit(self, data):
        n_classes = data.draw(st.integers(2, 3))
        n = data.draw(st.integers(1, 30))
        values = data.draw(st.lists(
            TIED_VALUES | st.floats(-5, 5, allow_nan=False), min_size=n, max_size=n,
        ))
        classes = data.draw(st.lists(st.integers(0, n_classes - 1), min_size=n, max_size=n))
        specs = [
            AttributeSpec.numeric("x"),
            AttributeSpec.nominal("Status", STATUS[:n_classes], role="class"),
        ]
        enc = encode_table(DataTable(specs, list(zip(values, classes))))
        idx = data.draw(st.permutations(range(n)))[: data.draw(st.integers(1, n))]
        parent_h = entropy(class_counts(enc, idx), len(idx))
        min_leaf = data.draw(st.integers(1, 3))
        use_ratio = data.draw(st.booleans())
        args = (enc, idx, 0, parent_h, min_leaf, use_ratio)
        assert repr(_numeric_split(*args)) == repr(reference_numeric_split(*args))


class TestCutBetween:
    def test_midpoint_when_it_falls_between(self):
        assert cut_between(0.25, 0.5) == 0.375
        assert cut_between(-1.0, 1.0) == 0.0
        assert cut_between(5e-324, 1.5e-323) == 1e-323

    @pytest.mark.parametrize("lo, hi", [
        (0.9999999999999999, 1.0),  # the midpoint rounds onto 1.0
        (5e-324, 1e-323),  # the same, between the two smallest subnormals
        (-5e-324, 0.0),  # the midpoint rounds to -0.0, which equals 0.0
        (1e308, 1.5e308),  # the sum overflows, so the midpoint is inf
    ])
    def test_lower_value_when_the_midpoint_does_not_part_them(self, lo, hi):
        assert not lo <= (lo + hi) / 2.0 < hi
        assert cut_between(lo, hi) == lo


#: Two-class numeric columns in which some neighbouring values have no
#: midpoint strictly below the upper value.
UNPARTED_COLUMNS = {
    "adjacent-floats": [(0.5, 0)] * 4 + [(0.9999999999999999, 1)] * 6 + [(1.0, 0)] * 6,
    "overflowing-midpoint": [(1e308, 0)] * 6 + [(1.5e308, 1)] * 6,
}


@contextlib.contextmanager
def time_limit(seconds):
    """Raise ``TimeoutError`` in a loop that runs longer than ``seconds``,
    so a learner that never returns fails the test instead of hanging it."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def stored_thresholds(model):
    structure = model.structure
    if isinstance(structure, DecisionTree):
        conds = [c for path, _ in encoded_paths(structure.root) for c in path]
        return [value for _, op, value in conds if op != "="]
    if isinstance(structure, RuleList):
        return [c.value for rule in structure.rules for c in rule.conditions if c.op != "="]
    return []


class TestUnpartedMidpoints:
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    @pytest.mark.parametrize("column", sorted(UNPARTED_COLUMNS))
    def test_learner_returns_with_cuts_between_values(self, column, algorithm):
        rows = UNPARTED_COLUMNS[column]
        specs = [
            AttributeSpec.numeric("x"),
            AttributeSpec.nominal("Status", STATUS[:2], role="class"),
        ]
        with time_limit(30):
            model = train(algorithm, DataTable(specs, rows), seed=0)
        values = sorted({v for v, _ in rows})
        thresholds = stored_thresholds(model)
        assert thresholds or algorithm == "nnge"
        for t in thresholds:
            assert any(lo <= t < hi for lo, hi in zip(values, values[1:]))
        assert render_rules(model)

