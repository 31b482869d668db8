import pytest

from fusemine.errors import RuleSyntaxError
from fusemine.learners import (
    Condition,
    Leaf,
    model_from_json,
    model_to_json,
    parse_rules,
    predict_label,
    render_rules,
    train,
    tree_paths,
)
from fusemine.tabular import AttributeSpec, value_to_text

from helpers import missing_slot_table, planted_dataset

PLANTED_LIST_TEXT = """IF Moodle.Quiz = High THEN Pass
IF Moodle.Quiz = Medium AND Theory.Attention = Medium THEN Pass
IF Moodle.Quiz = Low THEN Fail
IF Theory.Attention = Low AND Moodle.Forum = Low THEN Dropout
ELSE Pass
Number of Rules : 5
"""

GRADE = ("Low", "Medium", "High")
PLANTED_LIST_SPECS = (
    AttributeSpec.nominal("Moodle.Quiz", GRADE),
    AttributeSpec.nominal("Theory.Attention", GRADE),
    AttributeSpec.nominal("Moodle.Forum", GRADE),
    AttributeSpec.nominal("Status", ("Pass", "Fail", "Dropout"), role="class"),
)
MIXED_SPECS = (
    *PLANTED_LIST_SPECS[:3], AttributeSpec.numeric("Moodle.Time"), PLANTED_LIST_SPECS[3]
)


class TestParse:
    def test_five_rule_list_with_default(self):
        model = parse_rules(PLANTED_LIST_TEXT, PLANTED_LIST_SPECS)
        rules = model.structure.rules
        assert len(rules) == 5
        assert rules[-1].is_default
        assert rules[-1].cls == "Pass"
        assert rules[0].conditions[0].attr == "Moodle.Quiz"

    def test_empty_text_rejected(self):
        with pytest.raises(RuleSyntaxError):
            parse_rules("")

    def test_rule_after_default_rejected(self):
        text = "ELSE Pass\nIF a = x THEN Fail\n"
        with pytest.raises(RuleSyntaxError):
            parse_rules(text)

    def test_wrong_footer_count_rejected(self):
        text = "IF a = x THEN Pass\nELSE Fail\nNumber of Rules : 7\n"
        with pytest.raises(RuleSyntaxError):
            parse_rules(text)

    @pytest.mark.parametrize("rule", [
        "IF Moodle.Quiz = Enormous THEN Pass",
        "IF Moodle.Absent = High THEN Pass",
        "IF Moodle.Quiz = High THEN Excellent",
        "IF Status = Pass THEN Pass",
        "IF Moodle.Time = High THEN Pass",
        "IF Moodle.Quiz <= 1 THEN Pass",
        "IF Moodle.Time <= nan THEN Pass",
        "IF Moodle.Time > inf THEN Pass",
        "IF Moodle.Time <= -inf THEN Pass",
    ], ids=[
        "unknown-label", "unknown-attribute", "unknown-class", "class-attribute",
        "equality-on-numeric", "threshold-on-nominal", "nan", "inf", "minus-inf",
    ])
    def test_unknown_label_rejected_against_schema(self, rule):
        with pytest.raises(RuleSyntaxError):
            parse_rules(f"{rule}\nELSE Fail\n", MIXED_SPECS)

    @pytest.mark.parametrize("text", [
        "IF a = x THEN Pass\nIF a <= 1 THEN Fail\nELSE Pass\n",
        "IF a > 1 THEN Pass\nIF a = x THEN Fail\nELSE Pass\n",
        "IF a = x AND a <= 1 THEN Pass\nELSE Fail\n",
    ], ids=["equality-first", "threshold-first", "one-rule"])
    def test_mixed_operators_on_one_attribute_rejected_without_schema(self, text):
        with pytest.raises(RuleSyntaxError):
            parse_rules(text)

    def test_missing_slot_and_threshold_accepted_against_schema(self):
        text = "IF Moodle.Quiz = ? THEN Dropout\nIF Moodle.Time > 0.5 THEN Pass\nELSE Fail\n"
        model = parse_rules(text, MIXED_SPECS)
        assert render_rules(model) == text + "Number of Rules : 3\n"

    def test_question_mark_is_only_the_missing_slot_without_schema(self):
        model = parse_rules("IF a = ? THEN x\nELSE y\n")
        assert model.specs[0].labels == ()
        assert predict_label(model, (None, None)) == "x"
        model = parse_rules("IF a = ? THEN x\nIF a = u THEN z\nELSE y\n")
        assert model.specs[0].labels == ("u",)
        assert [predict_label(model, (v, None)) for v in (None, 0)] == ["x", "z"]

    def test_question_mark_class_rejected_without_schema(self):
        with pytest.raises(RuleSyntaxError, match="label '\\?'"):
            parse_rules("IF a = x THEN ?\nELSE y\n")

    def test_parse_without_schema_infers_one(self):
        model = parse_rules(PLANTED_LIST_TEXT)
        assert model.class_labels == ("Pass", "Fail", "Dropout")
        assert predict_label(model, self._row(model, Quiz="High")) == "Pass"

    @staticmethod
    def _row(model, **kwargs):
        row = []
        for spec in model.specs:
            if spec.role == "class":
                row.append(None)
                continue
            short = spec.name.split(".")[-1]
            if short in kwargs:
                row.append(spec.labels.index(kwargs[short]))
            else:
                row.append(0)
        return tuple(row)


class TestRoundTrips:
    @pytest.mark.parametrize("algorithm", ["part", "ripper"])
    def test_render_parse_render_fixpoint(self, algorithm):
        table = planted_dataset(n=200, seed=1)
        model = train(algorithm, table, seed=5)
        text = render_rules(model)
        reparsed = parse_rules(text, model.specs)
        assert render_rules(reparsed) == text

    @pytest.mark.parametrize("algorithm", ["part", "ripper"])
    def test_parse_preserves_predictions(self, algorithm):
        table = planted_dataset(n=200, seed=2)
        model = train(algorithm, table, seed=5)
        reparsed = parse_rules(render_rules(model), model.specs)
        for row in table.rows:
            assert predict_label(reparsed, row) == predict_label(model, row)

    @pytest.mark.parametrize(
        "algorithm", ["c45", "reptree", "randomtree", "ripper", "part", "nnge"]
    )
    def test_json_round_trip(self, algorithm):
        table = planted_dataset(n=120, seed=3, noise=0.1)
        model = train(algorithm, table, seed=7)
        again = model_from_json(model_to_json(model))
        assert render_rules(again) == render_rules(model)
        for row in table.rows[:25]:
            assert predict_label(again, row) == predict_label(model, row)

    def test_planted_list_text_parses_and_judges(self):
        model = parse_rules(PLANTED_LIST_TEXT, PLANTED_LIST_SPECS)

        def classify(quiz, attention, forum):
            row = (GRADE.index(quiz), GRADE.index(attention), GRADE.index(forum), None)
            return predict_label(model, row)

        assert classify("High", "Low", "Low") == "Pass"
        assert classify("Medium", "Medium", "High") == "Pass"
        assert classify("Low", "High", "High") == "Fail"
        assert classify("Medium", "Low", "Low") == "Dropout"
        assert classify("Medium", "High", "High") == "Pass"


@pytest.mark.parametrize(
    "algorithm", ["c45", "reptree", "randomtree", "ripper", "part", "nnge"]
)
def test_retraining_renders_byte_identical_text(algorithm):
    table = planted_dataset(n=120, seed=9, noise=0.1)
    first = render_rules(train(algorithm, table, seed=4))
    second = render_rules(train(algorithm, table, seed=4))
    assert first == second


# --- tree text against the walkers it replaced -------------------------------
#
# Verbatim copies of the tree walker that ``tree_paths`` used and of the
# branch text that the tree renderer used, before both came to share
# ``branches`` and ``decode_condition``.


def parent_tree_paths(model):
    structure = model.structure
    paths = []

    def walk(node, prefix):
        if isinstance(node, Leaf):
            paths.append((tuple(prefix), node))
            return
        spec = model.specs[node.attr]
        if node.threshold is None:
            for value, child in enumerate(node.children):
                name = spec.labels[value] if value < len(spec.labels) else "?"
                walk(child, prefix + [Condition(spec.name, "=", name)])
        else:
            walk(node.children[0], prefix + [Condition(spec.name, "<=", node.threshold)])
            walk(node.children[1], prefix + [Condition(spec.name, ">", node.threshold)])

    walk(structure.root, [])
    return paths


_NUM_SPEC = AttributeSpec.numeric("_")


def _num(value: float) -> str:
    return value_to_text(_NUM_SPEC, float(value))


def _branch_text(model, node, value_or_side) -> str:
    spec = model.specs[node.attr]
    if node.threshold is None:
        name = spec.labels[value_or_side] if value_or_side < len(spec.labels) else "?"
        return f"{spec.name} = {name}"
    op = "<=" if value_or_side == 0 else ">"
    return f"{spec.name} {op} {_num(node.threshold)}"


def parent_render_tree(model, tree) -> str:
    lines: list[str] = []

    def emit(node, depth):
        for pos, child in enumerate(node.children):
            text = _branch_text(model, node, pos)
            if depth == 0:
                prefix = "IF " if pos == 0 else "ELSE IF "
            else:
                prefix = "| " * depth
            if isinstance(child, Leaf):
                lines.append(f"{prefix}{text} THEN {model.class_labels[child.cls]}")
            else:
                lines.append(f"{prefix}{text}")
                emit(child, depth + 1)

    emit(tree.root, 0)
    lines.append(f"Number of Leaves: {tree.n_leaves()}")
    lines.append(f"Size of the tree : {tree.size()}")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("algorithm", ["c45", "reptree", "randomtree"])
def test_tree_text_with_missing_slot_matches_the_parent_walkers(algorithm):
    model = train(algorithm, missing_slot_table(), seed=0)
    paths = tree_paths(model)
    assert any(c.value == "?" for conds, _ in paths for c in conds)
    assert any(c.op == "<=" for conds, _ in paths for c in conds)
    assert repr(paths) == repr(parent_tree_paths(model))
    assert render_rules(model) == parent_render_tree(model, model.structure)
