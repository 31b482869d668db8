"""A model's prepared prediction state: what it reads, and that it is built once.

The encoded rule matcher and the row encoding are checked against the
by-name oracles in ``helpers``, which resolve every attribute by name and
every label by its text on each call.
"""

import functools

import pytest
from hypothesis import given, settings, strategies as st

from fusemine import ensemble
from fusemine.learners import (
    ALGORITHMS, Condition, DecisionTree, Leaf, Model, Rule, RuleList, model_from_json,
    model_to_json, predict, row_path, train, tree_paths,
)
from fusemine.learners import model as model_module
from fusemine.learners.model import Split, _encoded, branches, decode_condition, fired_rule_index
from fusemine.tabular import AttributeSpec, DataTable

from helpers import (
    GRADE, NUMERIC_CELLS, STATUS, condition_matches, encode_row, full_scan_distribution,
    mixed_tables, planted_dataset,
)

#: Thresholds, numeric cells and fills come from these, so rows often
#: sit exactly at a threshold.
CELLS = (0.0, 0.25, 0.5, 1.0)


@st.composite
def rule_list_cases(draw):
    """A rule-list model over nominal and numeric inputs, plus rows to score
    with missing cells of both kinds."""
    kinds = draw(st.lists(st.sampled_from(["numeric", "nominal"]), min_size=1, max_size=4))
    specs = tuple(
        AttributeSpec.numeric(f"x{a}") if kind == "numeric"
        else AttributeSpec.nominal(f"x{a}", GRADE)
        for a, kind in enumerate(kinds)
    ) + (AttributeSpec.nominal("Status", STATUS, role="class"),)
    inputs = range(len(kinds))

    def condition(a):
        name = specs[a].name
        if specs[a].is_nominal:
            return st.sampled_from(GRADE + ("?",)).map(lambda v: Condition(name, "=", v))
        return st.tuples(st.sampled_from(["<=", ">"]), st.sampled_from(CELLS)).map(
            lambda opv: Condition(name, *opv)
        )

    rules = [
        Rule(tuple(draw(condition(a)) for a in attrs), draw(st.sampled_from(STATUS)))
        for attrs in draw(st.lists(
            st.lists(st.sampled_from(inputs), min_size=1, max_size=3), max_size=5,
        ))
    ]
    rules.append(Rule((), draw(st.sampled_from(STATUS))))
    fill = {specs[a].name: draw(st.sampled_from(CELLS)) for a in inputs if specs[a].is_numeric}
    model = Model("part", specs, STATUS, RuleList(tuple(rules)), {"numeric_fill": fill})
    cell = {
        a: st.sampled_from(CELLS) if specs[a].is_numeric else st.integers(0, len(GRADE) - 1)
        for a in inputs
    }
    rows = draw(st.lists(
        st.tuples(*(st.none() | cell[a] for a in inputs), st.none()), min_size=1, max_size=6,
    ))
    return model, rows


@settings(max_examples=300, deadline=None)
@given(case=rule_list_cases())
def test_the_encoded_matcher_fires_the_oracles_rule(case):
    model, rows = case
    rules = model.structure.rules
    tested = {model.attr_index(c.attr) for rule in rules for c in rule.conditions}
    for row in rows:
        enc = encode_row(model.specs, model.input_indices, model.metadata["numeric_fill"], row)
        assert _encoded(model, row) == {i: v for i, v in enc.items() if i in tested}
        expected = next(
            no for no, rule in enumerate(rules)
            if all(condition_matches(model, c, enc) for c in rule.conditions)
        )
        assert fired_rule_index(model, row) == expected


def score_cells(spec):
    """A scored row's cells: missing ones, and ints as well as floats in a
    numeric column; a non-input cell is missing."""
    if spec.role != "input":
        return st.none()
    if spec.is_numeric:
        return st.none() | st.integers(-3, 3) | NUMERIC_CELLS
    return st.none() | st.integers(0, len(spec.labels) - 1)


@st.composite
def trained_cases(draw):
    """A drawn table, now and then cut to one class so that every learner
    trains a degenerate model on it, plus rows to score."""
    table = draw(mixed_tables())
    if draw(st.integers(0, 4)) == 4:
        table = DataTable(table.specs, [row for row in table.rows if row[-1] == 0])
    rows = draw(st.lists(
        st.tuples(*(score_cells(spec) for spec in table.specs)), min_size=1, max_size=6,
    ))
    return table, rows


def inputs_tested_by(model) -> set[int]:
    """The inputs a model's structure tests, resolved by name: a tree's and
    a rule list's conditions, an exemplar set's every input unless the
    model is degenerate."""
    structure = model.structure
    if isinstance(structure, DecisionTree):
        conditions = [c for conds, _ in tree_paths(model) for c in conds]
    elif isinstance(structure, RuleList):
        conditions = [c for rule in structure.rules for c in rule.conditions]
    else:
        return set() if model.metadata.get("degenerate") else set(model.input_indices)
    return {model.attr_index(c.attr) for c in conditions}


def oracle_walk(model, enc):
    """The conditions a fully encoded row takes through a tree model by
    ``condition_matches``, the node where it stops, and, at a split with no
    branch for the row's value, that value's condition."""
    node, taken = model.structure.root, []
    while isinstance(node, Split):
        named = [(decode_condition(model.specs, cond), child) for cond, child in branches(node)]
        hit = next(((c, child) for c, child in named if condition_matches(model, c, enc)), None)
        if hit is None:
            stop = decode_condition(model.specs, (node.attr, "=", enc[node.attr]))
            return tuple(taken), node, stop
        taken.append(hit[0])
        node = hit[1]
    return tuple(taken), node, None


@settings(max_examples=100, deadline=None)
@given(case=trained_cases())
def test_a_model_reads_exactly_the_inputs_it_tests(case):
    table, rows = case
    for algorithm in ALGORITHMS:
        model = train(algorithm, table, seed=1)
        structure = model.structure
        k = len(model.class_labels)
        tested = inputs_tested_by(model)
        for row in rows:
            enc = encode_row(model.specs, model.input_indices, model.metadata["numeric_fill"], row)
            assert set(_encoded(model, row)) == tested
            if isinstance(structure, DecisionTree):
                path, node, stop = oracle_walk(model, enc)
                assert row_path(model, row) == (path, stop)
                matching = [
                    conds for conds, _ in tree_paths(model)
                    if all(condition_matches(model, c, enc) for c in conds)
                ]
                assert matching == ([] if stop else [path])
                expected = model_module._laplace(node.counts, k)
            elif isinstance(structure, RuleList):
                fired = next(
                    no for no, rule in enumerate(structure.rules)
                    if all(condition_matches(model, c, enc) for c in rule.conditions)
                )
                assert fired_rule_index(model, row) == fired
                expected = model_module._laplace(structure.rules[fired].counts, k)
            else:
                expected = full_scan_distribution(model, row)
            if model.metadata.get("degenerate"):
                target = model.metadata["constant_class"]
                expected = tuple(float(label == target) for label in model.class_labels)
            assert predict(model, row) == expected


def test_a_tree_reads_no_cell_but_its_split_input():
    specs = (
        AttributeSpec.numeric("x"), AttributeSpec.numeric("y"), AttributeSpec.nominal("g", GRADE),
        AttributeSpec.nominal("Status", STATUS, role="class"),
    )
    low, high = Leaf((3.0, 0.0, 1.0), 0), Leaf((0.0, 2.0, 0.0), 1)
    tree = DecisionTree(Split(0, 0.5, (low, high), (3.0, 2.0, 1.0), 0))
    model = Model("c45", specs, STATUS, tree, {"numeric_fill": {"x": 0.25, "y": 0.0}})
    for x, side, leaf in ((0.5, "<=", low), (1, ">", high), (None, "<=", low)):
        threshold = Condition("x", side, 0.5)
        for y in (None, 0.75, 3, "not a number"):
            for g in (None, 0, 2):
                row = (x, y, g, None)
                assert _encoded(model, row) == {0: 0.25 if x is None else float(x)}
                assert row_path(model, row) == ((threshold,), None)
                assert predict(model, row) == model_module._laplace(leaf.counts, 3)


def test_a_row_at_a_threshold_and_a_missing_label_fire_as_written():
    specs = (
        AttributeSpec.nominal("g", GRADE), AttributeSpec.numeric("x"),
        AttributeSpec.nominal("Status", STATUS, role="class"),
    )
    rules = RuleList((
        Rule((Condition("g", "=", "?"),), "Dropout"),
        Rule((Condition("x", "<=", 0.5),), "Pass"),
        Rule((Condition("x", ">", 0.5), Condition("g", "=", "High")), "Fail"),
        Rule((), "Dropout"),
    ))
    model = Model("part", specs, STATUS, rules, {"numeric_fill": {"x": 0.75}})
    assert fired_rule_index(model, (None, 0.5, None)) == 0
    assert fired_rule_index(model, (0, 0.5, None)) == 1
    assert fired_rule_index(model, (2, None, None)) == 2
    assert fired_rule_index(model, (1, None, None)) == 3


def _counted(monkeypatch, name):
    calls = []
    real = getattr(model_module, name)

    @functools.wraps(real)
    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(model_module, name, counted)
    return calls


@pytest.mark.parametrize("algorithm", ALGORITHMS)
@pytest.mark.parametrize("numeric", [False, True], ids=["nominal", "numeric"])
def test_a_model_builds_its_prediction_state_once(monkeypatch, algorithm, numeric):
    table = planted_dataset(n=100, seed=6, noise=0.1, numeric=numeric)
    model = train(algorithm, table, seed=1)
    plans = _counted(monkeypatch, "encoding_plan")
    rules = _counted(monkeypatch, "_encode_rules")
    terms = _counted(monkeypatch, "_distance_terms")
    indexes = _counted(monkeypatch, "_index_exemplars")
    smoothed = _counted(monkeypatch, "_laplace")
    for row in table.rows:
        predict(model, row)
    built = (len(plans), len(rules), len(terms), len(indexes), len(smoothed))
    for row in table.rows:
        predict(model, row)
    assert (len(plans), len(rules), len(terms), len(indexes), len(smoothed)) == built
    assert len(plans) == 1
    assert len(rules) == (1 if isinstance(model.structure, RuleList) else 0)
    assert len(terms) == len(indexes) == (1 if algorithm == "nnge" else 0)
    # A tree smooths a node the first time a row stops there; a rule list
    # smooths its rules as it encodes them.
    if algorithm in ("c45", "reptree", "randomtree"):
        assert 0 < len(smoothed) <= model.structure.size()
    elif algorithm != "nnge":
        assert len(smoothed) == len(model.structure.rules)


@pytest.mark.parametrize("numeric", [False, True], ids=["nominal", "numeric"])
def test_an_exemplar_model_predicts_the_same_after_a_json_round_trip(numeric):
    table = planted_dataset(n=100, seed=6, noise=0.1, numeric=numeric)
    model = train("nnge", table, seed=1)
    loaded = model_from_json(model_to_json(model))
    rows = table.rows + tuple(row[:1] + (None,) + row[2:] for row in table.rows[:20])
    for row in rows:
        assert repr(predict(loaded, row)) == repr(predict(model, row))


def test_an_exemplar_model_builds_its_index_after_its_plain_rows(monkeypatch):
    table = planted_dataset(n=100, seed=6, noise=0.1, numeric=True)
    model = train("nnge", table, seed=1)
    indexes = _counted(monkeypatch, "_index_exemplars")
    for row in table.rows[: model_module._PLAIN_ROWS]:
        predict(model, row)
    assert indexes == []
    predict(model, table.rows[model_module._PLAIN_ROWS])
    assert len(indexes) == 1


def test_laplace_smoothing_adds_the_counts_from_the_left():
    # A compensated sum (the built-in one from Python 3.12 on) makes the
    # first share 0.21238938053097342.
    assert [repr(p) for p in model_module._laplace((1.4, 3.8, 3.1), 3)] == [
        "0.21238938053097348", "0.42477876106194695", "0.36283185840707965",
    ]


def test_a_degenerate_model_builds_its_state_once(monkeypatch):
    table = planted_dataset(n=60, seed=2)
    one_class = DataTable(table.specs, [row for row in table.rows if row[-1] == 0])
    model = train("c45", one_class)
    plans = _counted(monkeypatch, "encoding_plan")
    for row in table.rows:
        assert predict(model, row) == (1.0, 0.0, 0.0)
    assert len(plans) == 1
    assert model._constant is predict(model, table.rows[0])


def test_every_ensemble_cache_is_bounded():
    caches = [f for f in vars(ensemble).values() if hasattr(f, "cache_parameters")]
    assert caches
    for cached in caches:
        assert cached.cache_parameters()["maxsize"] is not None, cached.__name__
