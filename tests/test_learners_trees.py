import ast
import contextlib
import inspect
import math
import random
import signal
import sys
import threading
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from fusemine.errors import InvalidParamsError
from fusemine.learners import (
    ALGORITHMS,
    Condition,
    DecisionTree,
    Leaf,
    Model,
    RuleList,
    predict,
    predict_label,
    render_rules,
    row_path,
    train,
    tree_paths,
)
from fusemine.learners.encode import encode_table
from fusemine.learners import model as learner_model
from fusemine.learners.model import encoded_paths
from fusemine.learners import trees
from fusemine.learners.trees import (
    _EPS,
    _nominal_split,
    _numeric_split,
    _best_cut,
    _term,
    add_errs,
    build_c45,
    choose_c45_split,
    choose_split,
    class_counts,
    class_entropy,
    cut_between,
    cut_scan,
    grow_tree,
)
from fusemine import selection
from fusemine.tabular import AttributeSpec, DataTable

from helpers import (
    GRADE, STATUS, condition_matches, encode_row, entropy, log2_best_cut, log2_choose_c45_split,
    log2_choose_split, log2_grow_tree, log2_nominal_split, missing_slot_table, planted_dataset,
)


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

    def test_missing_slot_without_a_child_stops_at_the_split(self):
        model = train("c45", planted_dataset(n=60, seed=1))
        root = model.structure.root
        assert (root.attr, len(root.children), root.counts) == (0, 3, (35.0, 22.0, 3.0))
        # No training row missed Quiz, so the missing slot has no child: the
        # Laplace-smoothed counts of the root answer.
        assert predict(model, (None,) * len(model.specs)) == (36 / 63, 23 / 63, 4 / 63)
        assert row_path(model, (None,) * len(model.specs)) == ((), Condition("Quiz", "=", "?"))

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

    @pytest.mark.parametrize("algorithm", ["c45", "reptree", "randomtree"])
    def test_single_leaf_tree_renders_its_class(self, algorithm):
        specs = [
            AttributeSpec.nominal("a", GRADE),
            AttributeSpec.nominal("Status", STATUS, role="class"),
        ]
        model = train(algorithm, DataTable(specs, [(1, 0)] * 3 + [(1, 1)] * 2))
        assert "degenerate" not in model.metadata
        assert isinstance(model.structure.root, Leaf)
        assert render_rules(model) == "ELSE Pass\nNumber of Rules : 1\n"


class TestPathInvariants:
    @pytest.mark.parametrize("algorithm", ["c45", "reptree", "randomtree"])
    def test_row_path_is_the_one_root_to_leaf_path_that_matches(self, algorithm):
        table = missing_slot_table()
        model = train(algorithm, table, seed=0)
        paths = tree_paths(model)
        fill = model.metadata["numeric_fill"]
        for row in table.rows:
            enc = encode_row(model.specs, model.input_indices, fill, row)
            matching = [
                conds for conds, _ in paths
                if all(condition_matches(model, c, enc) for c in conds)
            ]
            assert len(matching) == 1
            assert row_path(model, row) == (matching[0], None)

    def test_nominal_attribute_tested_at_most_once_per_path(self):
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


def reference_numeric_split(enc, idx, attr, parent_h, min_leaf):
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
        threshold = cut_between(col[i], col[order[pos + 1]])
        if best is None or gain > best[0] + _EPS:
            best = (gain, threshold)
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
        args = (enc, idx, 0, parent_h, min_leaf)
        assert repr(_numeric_split(*args)) == repr(reference_numeric_split(*args))


#: Neighbouring floats and signed zeros, and many distinct values.
ADJACENT_VALUES = st.sampled_from([5e-324, 1e-323, 1.0, math.nextafter(1.0, 2.0), 0.0, -0.0])
SPREAD_VALUES = st.integers(-400, 400).map(lambda k: k / 8.0)


@contextlib.contextmanager
def term_table_capped_at(cap):
    """A fresh term table that keeps rows up to ``cap`` only."""
    with mock.patch.object(trees, "_CAP", cap), mock.patch.object(trees, "_ROWS", []):
        yield


@st.composite
def split_search_cases(draw):
    """Two numeric columns of tied, adjacent or spread values and a nominal
    one with its missing slot in use, over 2-5 classes; a subset of the
    rows; a minimum side of 1-25 rows, whole or, as J48's minimum split
    may be, fractional; and a term table cap below or above the sizes."""
    n_classes = draw(st.integers(2, 5))
    n = draw(st.integers(1, 80))
    kinds = [draw(st.sampled_from([TIED_VALUES, ADJACENT_VALUES, SPREAD_VALUES])) for _ in "xz"]
    kinds.append(st.none() | st.integers(0, 2))
    columns = [draw(st.lists(kind, min_size=n, max_size=n)) for kind in kinds]
    classes = draw(st.lists(st.integers(0, n_classes - 1), min_size=n, max_size=n))
    specs = [
        AttributeSpec.numeric("x"),
        AttributeSpec.numeric("z"),
        AttributeSpec.nominal("g", GRADE),
        AttributeSpec.nominal("Status", "ABCDE"[:n_classes], role="class"),
    ]
    enc = encode_table(DataTable(specs, list(zip(*columns, classes))))
    idx = draw(st.permutations(range(n)))[: draw(st.integers(1, n))]
    min_size = draw(st.integers(1, 25) | st.floats(1.0, 25.0))
    return enc, idx, min_size, draw(st.integers(0, 90))


class TestTermTable:
    @settings(max_examples=300, deadline=None)
    @given(case=split_search_cases(), min_leaf=st.integers(1, 25))
    def test_the_split_search_matches_its_log2_form(self, case, min_leaf):
        enc, idx, min_size, cap = case
        parent_h = entropy(class_counts(enc, idx), len(idx))
        with term_table_capped_at(cap):
            for attr in (0, 1):
                assert repr(_best_cut(enc, idx, attr, parent_h, min_size)) == repr(
                    log2_best_cut(enc, idx, attr, parent_h, min_size)
                )
            assert repr(_nominal_split(enc, idx, 2, parent_h, min_leaf)) == repr(
                log2_nominal_split(enc, idx, 2, parent_h, min_leaf)
            )
            for choose, log2_choose in (
                (choose_split, log2_choose_split),
                (choose_c45_split, log2_choose_c45_split),
            ):
                assert repr(grow_tree(enc, idx, min_leaf, choose)) == repr(
                    log2_grow_tree(enc, idx, min_leaf, log2_choose)
                )
            assert len(trees._ROWS) <= cap + 1

    def test_the_split_search_adds_no_float_with_sum(self):
        # From Python 3.12 on the built-in sum compensates float sums, so a
        # sum() here would make the trees, the MDL cuts or a smoothed
        # distribution depend on the interpreter.  On 3.11 it adds as the
        # loops do, so the oracles cannot see one.
        searched = (_term, trees._term_rows, class_entropy, _nominal_split, _best_cut,
                    cut_scan, choose_split, choose_c45_split, grow_tree,
                    selection._mdl_split, learner_model._laplace)
        called = {
            node.func.id if isinstance(node.func, ast.Name) else node.func.attr
            for function in searched
            for node in ast.walk(ast.parse(inspect.getsource(function)))
            if isinstance(node, ast.Call)
            and isinstance(node.func, (ast.Name, ast.Attribute))
        }
        assert not called & {"sum", "fsum"}

    @settings(max_examples=200, deadline=None)
    @given(counts=st.lists(st.integers(0, 40) | st.integers(0, 900), min_size=1, max_size=5))
    def test_class_entropy_is_entropy_to_the_bit(self, counts):
        # Sides of 0 rows up to past the cap, so that computed rows are read too.
        n = 0
        for c in counts:
            n += c
        assert repr(class_entropy(counts, n)) == repr(entropy(counts, n))

    def test_class_entropy_past_the_cap_reads_one_computed_row(self, monkeypatch):
        built = []

        class CountedRow(trees._ComputedRow):
            def __init__(self, m):
                built.append(m)
                super().__init__(m)

        monkeypatch.setattr(trees, "_ComputedRow", CountedRow)
        monkeypatch.setattr(trees, "_ROWS", [])
        n = trees._CAP + 500
        counts = (n - 900, 0, 900)
        assert repr(class_entropy(counts, n)) == repr(entropy(counts, n))
        assert built == [n]
        assert trees._ROWS == []

    def test_threads_grow_the_table_one_row_per_size(self, monkeypatch):
        monkeypatch.setattr(trees, "_ROWS", [])
        sizes = (300, 200, 250, 300, 150, 299)
        threads = [threading.Thread(target=trees._term_rows, args=(n,)) for n in sizes]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert [len(row) for row in trees._ROWS] == list(range(1, 302))

    def test_the_table_keeps_no_row_past_its_cap(self, monkeypatch):
        monkeypatch.setattr(trees, "_ROWS", [])
        table = planted_dataset(n=trees._CAP + 100, seed=3, noise=0.1, numeric=True)
        model = train("c45", table)
        assert model.structure.size() > 1
        assert len(trees._ROWS) == trees._CAP + 1
        for m in (0, 1, 54, trees._CAP):
            assert list(trees._ROWS[m]) == [_term(c, m) for c in range(m + 1)]


def scan_and_oracle(values, classes, min_size, n_classes=2):
    """``cut_scan`` of an ascending column, and ``log2_best_cut``, which
    scores every cut, of the same rows."""
    values = [float(v) for v in values]
    specs = [
        AttributeSpec.numeric("x"),
        AttributeSpec.nominal("Status", "ABCDE"[:n_classes], role="class"),
    ]
    enc = encode_table(DataTable(specs, list(zip(values, classes))))
    idx = list(range(len(values)))
    parent_h = entropy(class_counts(enc, idx), len(idx))
    return (cut_scan(values, classes, n_classes, parent_h, min_size),
            log2_best_cut(enc, idx, 0, parent_h, min_size))


class CountedRow(list):
    """A term table row that counts its reads in ``reads``."""

    reads = 0

    def __getitem__(self, c):
        CountedRow.reads += 1
        return super().__getitem__(c)


def counted_row(m):
    """Row ``m`` of the term table, counting its reads."""
    return CountedRow(_term(c, m) for c in range(m + 1))


@st.composite
def one_class_runs(draw):
    """An ascending column whose classes come in runs of 1-30 rows, with
    tied values within and across runs, a minimum side of 1-12 rows, and
    2-4 classes."""
    n_classes = draw(st.integers(2, 4))
    classes = []
    for _ in range(draw(st.integers(1, 8))):
        classes += [draw(st.integers(0, n_classes - 1))] * draw(st.integers(1, 30))
    values = sorted(draw(st.lists(TIED_VALUES | SPREAD_VALUES,
                                  min_size=len(classes), max_size=len(classes))))
    min_size = draw(st.integers(1, 12) | st.floats(1.0, 12.0))
    return values, classes, min_size, n_classes


class TestCutScanSkipsOneClassRuns:
    """The scan skips the entropy of a cut between two blocks of one
    class, and still returns what scoring every cut returns."""

    @pytest.mark.parametrize("classes", [
        [0, 0] + [1] * 8,  # the best cut is the first allowed, inside a run
        [1] * 8 + [0, 0],  # the best cut is the last allowed, inside a run
    ])
    @pytest.mark.parametrize("values", [
        list(range(10)),
        [0, 1, 2, 2, 2, 3, 4, 5, 6, 7],  # the first allowed cut is past min_size
        [0, 1, 2, 3, 4, 5, 5, 5, 6, 7],  # and the last leaves more than min_size
    ])
    @pytest.mark.parametrize("min_size", [3, 2.5])  # J48's minimum may be fractional
    def test_runs_that_touch_the_first_or_last_allowed_cut(self, values, classes, min_size):
        scan, oracle = scan_and_oracle(values, classes, min_size)
        assert repr(scan) == repr(oracle)
        assert scan[1] in (3, 5, 7)

    @pytest.mark.parametrize("block, after", [
        ((0, 1), 1), ((1, 0), 1), ((0, 0, 1), 1), ((0, 1, 0), 1), ((1, 1, 1, 0), 0),
        ((0, 1, 1, 1), 0),
    ])
    def test_a_tie_block_of_mixed_classes_between_runs(self, block, after):
        # A run of class 0, the block, and a run of class ``after``: the
        # best cut is one of the block's two edges.
        classes = [0] * 6 + list(block) + [after] * 6
        values = list(range(6)) + [6] * len(block) + list(range(7, 13))
        scan, oracle = scan_and_oracle(values, classes, 1)
        assert repr(scan) == repr(oracle)
        assert scan[2:4] in ((5.0, 6.0), (6.0, 7.0))

    @pytest.mark.parametrize("zeros", [(0, 1), (1, 0), (1, 1)])
    def test_signed_zeros_tie_in_one_block(self, zeros):
        # -0.0 and 0.0 are one value: no cut parts them, and their block
        # is mixed when their classes differ.
        values = [-2.0, -1.0, -0.0, 0.0, -0.0, 1.0, 2.0, 3.0]
        classes = [1, 1, zeros[0], zeros[1], zeros[1], 1, 0, 0]
        scan, oracle = scan_and_oracle(values, classes, 1)
        assert repr(scan) == repr(oracle)
        assert scan[4] == 5

    def test_a_side_past_the_cap_scores_every_cut(self, monkeypatch):
        n = trees._CAP + 100
        classes = [0] * 400 + [1] * 300 + [0] * (n - 700)
        scan, oracle = scan_and_oracle([v / 4.0 for v in range(n)], classes, 2)
        assert repr(scan) == repr(oracle)
        # Past the cap every side reads a computed row, and every cut
        # reads two of them, an entry a class each.
        monkeypatch.setattr(trees, "_ComputedRow", counted_row)
        with term_table_capped_at(0):
            CountedRow.reads = 0
            scan = cut_scan(list(range(40)), [0] * 25 + [1] * 15, 2, entropy([25, 15], 40), 1)
        assert scan[4] == 39
        assert CountedRow.reads == 2 * 2 * 39

    def test_cuts_inside_a_run_are_not_scored(self, monkeypatch):
        # 40 rows in tied pairs: a run of 25 and one of 15, which meet
        # inside the pair of value 14.
        values = [v // 2 for v in range(4, 44)]
        classes = [0] * 25 + [1] * 15
        monkeypatch.setattr(trees, "_ROWS", [counted_row(m) for m in range(41)])
        CountedRow.reads = 0
        scan, oracle = scan_and_oracle(values, classes, 1)
        assert repr(scan) == repr(oracle)
        assert scan[1] in (24, 26)
        # The first and last cut, and the two around the block of value
        # 14 that holds both classes; two rows read a class each.
        assert CountedRow.reads == 4 * 2 * 2

    @settings(max_examples=300, deadline=None)
    @given(case=one_class_runs())
    def test_matches_scoring_every_cut(self, case):
        values, classes, min_size, n_classes = case
        scan, oracle = scan_and_oracle(values, classes, min_size, n_classes)
        assert repr(scan) == repr(oracle)


def first_best(items, score):
    """The first item whose score beats every earlier one by more than
    ``_EPS``, starting from 0, as the choosers scan; None if none does."""
    best, best_score = None, 0.0
    for item in items:
        if score(item) > best_score + _EPS:
            best, best_score = item, score(item)
    return best


def reference_c45_split(enc, idx, min_leaf):
    """J48's four rules applied one after another over every cut, with
    one ``entropy`` call per branch: ``(attr, threshold)`` or None."""
    n = len(idx)
    parent_h = entropy(class_counts(enc, idx), n)

    def gain_of(branches):
        kept = [b for b in branches if b]
        weighted = sum(len(b) / n * entropy(class_counts(enc, b), len(b)) for b in kept)
        return parent_h - weighted, entropy([len(b) for b in kept], n)

    min_split = min(max(0.1 * n / enc.n_classes, min_leaf), 25.0)
    counted = []  # (gain, ratio, attr, threshold)
    for attr in enc.input_idx:
        col = enc.cols[attr]
        if enc.specs[attr].is_nominal:
            branches = [[i for i in idx if col[i] == v] for v in range(enc.n_slots(attr))]
            if sum(1 for b in branches if len(b) >= min_leaf) < 2:
                continue
            gain, split_info = gain_of(branches)
            counted.append((gain, gain / split_info, attr, None))
            continue
        values = sorted({col[i] for i in idx})
        cuts = []  # (gain, split_info, lower value) of every cut
        for lo in values[:-1]:
            left = [i for i in idx if col[i] <= lo]
            right = [i for i in idx if col[i] > lo]
            if len(left) >= min_split and len(right) >= min_split:  # minimum split
                cuts.append((*gain_of([left, right]), lo))
        best = first_best(cuts, lambda cut: cut[0])  # best cut by gain
        if best is None:
            continue
        gain = best[0] - math.log2(len(cuts)) / n  # MDL correction
        if gain > _EPS:
            counted.append((gain, gain / best[1], attr, best[2]))
    if not counted:
        return None
    floor = sum(c[0] for c in counted) / len(counted) - 1e-3  # average gain
    chosen = first_best([c for c in counted if c[0] >= floor], lambda c: c[1])  # ratio
    return None if chosen is None else chosen[2:]


class TestC45SplitChoice:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_matches_reference(self, data):
        n_classes = data.draw(st.integers(2, 3))
        n = data.draw(st.integers(1, 40))
        numbers = TIED_VALUES | st.floats(-5, 5, allow_nan=False)
        grades = st.none() | st.integers(0, 2)
        columns = [data.draw(st.lists(kind, min_size=n, max_size=n))
                   for kind in (numbers, grades, numbers)]
        classes = data.draw(st.lists(st.integers(0, n_classes - 1), min_size=n, max_size=n))
        specs = [
            AttributeSpec.numeric("x"),
            AttributeSpec.nominal("g", GRADE),
            AttributeSpec.numeric("z"),
            AttributeSpec.nominal("Status", STATUS[:n_classes], role="class"),
        ]
        enc = encode_table(DataTable(specs, list(zip(*columns, classes))))
        idx = data.draw(st.permutations(range(n)))[: data.draw(st.integers(1, n))]
        parent_h = entropy(class_counts(enc, idx), len(idx))
        min_leaf = data.draw(st.integers(1, 3))
        chosen = choose_c45_split(enc, idx, list(enc.input_idx), parent_h, min_leaf)
        expected = reference_c45_split(enc, idx, min_leaf)
        assert (chosen and chosen[1:]) == expected

    def test_mdl_correction_changes_the_attribute(self):
        # x parts 4 Pass rows from 4 Pass and 8 Fail with the best of its
        # 13 cuts, which beats g on plain gain ratio; the charge of
        # log2(13) / 16 bits leaves x below g.
        classes = "PPPPFPFFPFFPFFPF"
        groups = "aaaaaaababbbbbbb"  # a: 6 Pass, 2 Fail; b: 2 Pass, 6 Fail
        specs = [
            AttributeSpec.numeric("x"),
            AttributeSpec.nominal("g", ("a", "b")),
            AttributeSpec.nominal("Status", STATUS[:2], role="class"),
        ]
        rows = [(float(x), "ab".index(g), "PF".index(c))
                for x, (g, c) in enumerate(zip(groups, classes), start=1)]
        enc = encode_table(DataTable(specs, rows))
        idx = list(range(16))
        parent_h = entropy(class_counts(enc, idx), 16)
        gain, n_left, lo, _, cuts = _best_cut(enc, idx, 0, parent_h, 2)
        assert (n_left, lo, cuts) == (4, 4.0, 13)
        x_split_info = entropy((4, 12), 16)
        g_ratio = 1 - entropy((6, 2), 8)  # g's split info is 1 bit
        assert gain / x_split_info > g_ratio
        assert (gain - math.log2(13) / 16) / x_split_info < g_ratio
        assert choose_c45_split(enc, idx, [0, 1], parent_h, 2) == pytest.approx(
            (g_ratio, 1, None)
        )

    def test_nominal_attribute_without_gain_lowers_the_average(self):
        # h: gain 0.541, ratio 0.27; k: gain 0.459, ratio 0.50; g: gain 0.
        # Without g the average gain keeps k out; g's zero brings it in.
        rows = [  # (h, k, g, class)
            (0, 0, 0, 0), (0, 0, 1, 0), (0, 0, 0, 0), (2, 0, 1, 0), (2, 1, 0, 0), (3, 1, 1, 0),
            (1, 1, 0, 1), (1, 1, 1, 1), (1, 1, 0, 1), (2, 1, 1, 1), (3, 1, 0, 1), (3, 1, 1, 1),
        ]
        specs = [
            AttributeSpec.nominal("h", ("p", "q", "r", "s")),
            AttributeSpec.nominal("k", ("u", "v")),
            AttributeSpec.nominal("g", ("a", "b")),
            AttributeSpec.nominal("Status", STATUS[:2], role="class"),
        ]
        enc = encode_table(DataTable(specs, rows))
        idx = list(range(12))
        assert choose_c45_split(enc, idx, [0, 1], 1.0, 2)[1] == 0
        assert choose_c45_split(enc, idx, [0, 1, 2], 1.0, 2)[1] == 1

    @pytest.mark.parametrize("n_low, splits", [(25, True), (24, False)])
    def test_minimum_split_is_capped_at_25_rows(self, n_low, splits):
        # 0.1 * n / 2 is about 30 rows, so only the cap lets a cut with
        # 25 rows on one side through.
        specs = [
            AttributeSpec.numeric("x"),
            AttributeSpec.nominal("Status", STATUS[:2], role="class"),
        ]
        rows = [(0.0, 1)] * n_low + [(1.0, 0)] * 575
        enc = encode_table(DataTable(specs, rows))
        idx = list(range(len(rows)))
        assert 0.1 * len(rows) / 2 > 29
        parent_h = entropy(class_counts(enc, idx), len(rows))
        chosen = choose_c45_split(enc, idx, [0], parent_h, 2)
        assert (chosen and chosen[1:]) == ((0, 0.0) if splits else None)

    @pytest.mark.parametrize("algorithm", ["c45", "part"])
    def test_every_threshold_is_a_training_value(self, algorithm):
        table = planted_dataset(n=300, seed=2, noise=0.1, numeric=True)
        model = train(algorithm, table)
        thresholds = stored_thresholds(model)
        assert thresholds
        training_values = {v for row in table.rows for v in row[:-1]}
        assert all(t in training_values for t in thresholds)


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

