"""Human-readable IF-THEN rendering and its inverse parser.

The display dialect is fixed so rendered models are byte-stable:

* rule lists: ``IF <cond> AND <cond> THEN <class>`` lines, one ``ELSE
  <class>`` default line, footer ``Number of Rules : N``;
* trees: root branches prefixed ``IF`` / ``ELSE IF``, deeper branches
  prefixed with ``| `` per level, leaves inlined with ``THEN``, footers
  ``Number of Leaves: N`` and ``Size of the tree : N``;
* exemplar sets: one ``IF .. THEN ..`` line per exemplar with interval
  and label-set conditions, footer ``Number of Exemplars : N``.

A single-leaf or degenerate model renders as a lone default line so
constant models read the same for every algorithm.
"""

from __future__ import annotations

from ..errors import RuleSyntaxError, SchemaMismatchError
from ..tabular import AttributeSpec, number_text
from .model import (
    Condition,
    DecisionTree,
    ExemplarSet,
    Leaf,
    Model,
    Rule,
    RuleList,
    branches,
    check_model,
    decode_condition,
    slot_name,
)


def rule_head(rule: Rule) -> str:
    """A rule's line before its class: ``IF <cond> AND <cond>``, or
    ``ELSE`` for the default rule."""
    if rule.is_default:
        return "ELSE"
    return "IF " + " AND ".join(c.render() for c in rule.conditions)


def _render_rule_list(rules: RuleList) -> str:
    lines = [
        f"{rule_head(rule)}{'' if rule.is_default else ' THEN'} {rule.cls}" for rule in rules.rules
    ]
    lines.append(f"Number of Rules : {len(rules.rules)}")
    return "\n".join(lines) + "\n"


def _render_tree(model: Model, tree: DecisionTree) -> str:
    lines: list[str] = []

    def emit(node, depth):
        for pos, (cond, child) in enumerate(branches(node)):
            text = decode_condition(model.specs, cond).render()
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


def _render_exemplars(model: Model, structure: ExemplarSet) -> str:
    lines = []
    for ex in structure.exemplars:
        parts = []
        for i in model.input_indices:
            spec = model.specs[i]
            if spec.is_numeric:
                lo = ex.lo.get(i)
                hi = ex.hi.get(i)
                if lo is None:
                    continue
                if lo == hi:
                    parts.append(f"{spec.name} = {number_text(lo)}")
                else:
                    parts.append(f"{spec.name} in [{number_text(lo)}, {number_text(hi)}]")
            else:
                values = ex.label_sets.get(i)
                n_labels = len(spec.labels)
                # A set of every label fits any row; the slot past the
                # labels, named ``?``, holds the missing value.
                if values is None or len(values - {n_labels}) == n_labels:
                    continue
                names = [slot_name(spec, v) for v in sorted(values)]
                if len(names) == 1:
                    parts.append(f"{spec.name} = {names[0]}")
                else:
                    parts.append(f"{spec.name} in {{{', '.join(names)}}}")
        condition = " AND ".join(parts) if parts else "TRUE"
        lines.append(f"IF {condition} THEN {model.class_labels[ex.cls]}")
    lines.append(f"Number of Exemplars : {len(structure.exemplars)}")
    return "\n".join(lines) + "\n"


def render_rules(model: Model) -> str:
    """Render a trained model in the display dialect (deterministic)."""
    if model.metadata.get("degenerate"):
        cls = model.metadata["constant_class"]
        return f"ELSE {cls}\nNumber of Rules : 1\n"
    structure = model.structure
    if isinstance(structure, RuleList):
        return _render_rule_list(structure)
    if isinstance(structure, DecisionTree):
        if isinstance(structure.root, Leaf):
            cls = model.class_labels[structure.root.cls]
            return f"ELSE {cls}\nNumber of Rules : 1\n"
        return _render_tree(model, structure)
    return _render_exemplars(model, structure)


def _parse_condition(text: str, line_no: int) -> Condition:
    for op in ("<=", ">", "="):
        token = f" {op} "
        if token in text:
            attr, value = text.split(token, 1)
            attr = attr.strip()
            value = value.strip()
            if not attr or not value:
                raise RuleSyntaxError(line_no, f"malformed condition {text!r}")
            if op == "=":
                return Condition(attr, "=", value)
            try:
                return Condition(attr, op, float(value))
            except ValueError:
                raise RuleSyntaxError(line_no, f"bad threshold in {text!r}") from None
    raise RuleSyntaxError(line_no, f"no operator in condition {text!r}")


def _infer_schema(rules: list[Rule], class_labels: tuple[str, ...]):
    attrs: dict[str, AttributeSpec | list] = {}
    for rule in rules:
        for cond in rule.conditions:
            if cond.op == "=":
                labels = attrs.setdefault(cond.attr, [])
                # "?" names the missing slot, never a label.
                if isinstance(labels, list) and cond.value not in (*labels, "?"):
                    labels.append(cond.value)
            else:
                attrs.setdefault(cond.attr, AttributeSpec.numeric(cond.attr))
    specs = []
    for name, entry in attrs.items():
        if isinstance(entry, list):
            specs.append(AttributeSpec.nominal(name, tuple(entry)))
        else:
            specs.append(entry)
    specs.append(AttributeSpec.nominal("class", class_labels, role="class"))
    return tuple(specs)


def parse_rules(text: str, specs=None) -> Model:
    """Parse rule-dialect text back into a rule-list model.

    The rules are checked against ``specs`` when given, otherwise against
    a minimal schema inferred from the text itself; a rule that does not
    fit the schema is a syntax error.
    """
    rules: list[Rule] = []
    default_cls: str | None = None
    declared: int | None = None
    any_line = False
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        any_line = True
        if line.startswith("Number of Rules"):
            _, _, count = line.partition(":")
            try:
                declared = int(count.strip())
            except ValueError:
                raise RuleSyntaxError(line_no, f"bad rule count {line!r}") from None
            continue
        if line.startswith("ELSE "):
            if default_cls is not None:
                raise RuleSyntaxError(line_no, "second default rule")
            default_cls = line[len("ELSE ") :].strip()
            if not default_cls:
                raise RuleSyntaxError(line_no, "default rule without a class")
            continue
        if default_cls is not None:
            raise RuleSyntaxError(line_no, "rule after the default rule")
        if not line.startswith("IF ") or " THEN " not in line:
            raise RuleSyntaxError(line_no, f"unrecognized line {line!r}")
        body, _, cls = line[len("IF ") :].rpartition(" THEN ")
        cls = cls.strip()
        if not body or not cls:
            raise RuleSyntaxError(line_no, f"malformed rule {line!r}")
        conditions = tuple(
            _parse_condition(part.strip(), line_no) for part in body.split(" AND ")
        )
        rules.append(Rule(conditions, cls))
    if not any_line:
        raise RuleSyntaxError(1, "empty rule text")
    if default_cls is None:
        raise RuleSyntaxError(1, "missing default (ELSE) rule")
    total = len(rules) + 1
    if declared is not None and declared != total:
        raise RuleSyntaxError(1, f"footer declares {declared} rules, found {total}")

    rules.append(Rule((), default_cls))
    labels = tuple(dict.fromkeys(rule.cls for rule in rules))
    try:
        if specs is None:
            specs = _infer_schema(rules, labels)
        else:
            specs = tuple(specs)
            class_spec = next((s for s in specs if s.role == "class"), None)
            if class_spec is None:
                raise SchemaMismatchError("schema has no class attribute")
            labels = class_spec.labels
        bound = tuple(
            Rule(rule.conditions, rule.cls, tuple(1.0 if c == rule.cls else 0.0 for c in labels))
            for rule in rules
        )
        model = Model("rules", specs, labels, RuleList(bound), {"parsed": True})
        check_model(model)
    except SchemaMismatchError as exc:
        raise RuleSyntaxError(1, str(exc)) from None
    return model
