"""Trained model structures and prediction.

A model keeps the full training schema so any in-schema row (id and
class cells included, both ignored) can be scored.  All structures emit
Laplace-smoothed class probability distributions; a model trained on a
single-class dataset is flagged degenerate and predicts that class with
probability one.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence, Union

from ..errors import SchemaMismatchError
from ..tabular import AttributeSpec, schema_from_json, schema_to_json
from .encode import encode_row


@dataclass(frozen=True)
class Condition:
    attr: str
    op: str  # '=' (nominal), '<=' or '>' (numeric)
    value: Union[str, float]

    def __post_init__(self):
        if self.op not in ("=", "<=", ">"):
            raise SchemaMismatchError(f"unknown condition operator {self.op!r}")

    def render(self) -> str:
        if self.op == "=":
            return f"{self.attr} = {self.value}"
        from ..tabular import value_to_text  # numeric text, shortest round-trip

        spec = AttributeSpec.numeric(self.attr)
        return f"{self.attr} {self.op} {value_to_text(spec, float(self.value))}"


@dataclass(frozen=True)
class Rule:
    conditions: tuple[Condition, ...]
    cls: str
    counts: tuple[float, ...] = ()

    @property
    def is_default(self) -> bool:
        return not self.conditions


@dataclass(frozen=True)
class RuleList:
    """Ordered rules; the last one has no conditions and catches everything."""

    rules: tuple[Rule, ...]

    def __post_init__(self):
        if not self.rules or not self.rules[-1].is_default:
            raise SchemaMismatchError("rule list must end with a default rule")
        for rule in self.rules[:-1]:
            if rule.is_default:
                raise SchemaMismatchError("only the final rule may be a default")


@dataclass
class Leaf:
    counts: tuple[float, ...]
    cls: int


@dataclass
class Split:
    attr: int
    threshold: float | None  # None means a nominal multiway split
    children: tuple
    counts: tuple[float, ...]
    cls: int


@dataclass
class DecisionTree:
    root: Union[Leaf, Split]

    def n_leaves(self) -> int:
        return sum(1 for _ in iter_leaves(self.root))

    def size(self) -> int:
        return _count_nodes(self.root)


def iter_leaves(node):
    if isinstance(node, Leaf):
        yield node
    else:
        for child in node.children:
            yield from iter_leaves(child)


def _count_nodes(node) -> int:
    if isinstance(node, Leaf):
        return 1
    return 1 + sum(_count_nodes(c) for c in node.children)


@dataclass
class Exemplar:
    cls: int
    lo: dict[int, float] = field(default_factory=dict)
    hi: dict[int, float] = field(default_factory=dict)
    label_sets: dict[int, frozenset[int]] = field(default_factory=dict)
    n_members: int = 1


@dataclass
class ExemplarSet:
    exemplars: list[Exemplar]
    ranges: dict[int, tuple[float, float]] = field(default_factory=dict)


Structure = Union[DecisionTree, RuleList, ExemplarSet]


@dataclass(frozen=True)
class Model:
    algorithm: str
    specs: tuple[AttributeSpec, ...]
    class_labels: tuple[str, ...]
    structure: Structure
    metadata: dict = field(default_factory=dict)

    @cached_property
    def input_indices(self) -> tuple[int, ...]:
        return tuple(i for i, s in enumerate(self.specs) if s.role == "input")

    @cached_property
    def _index_by_name(self) -> dict[str, int]:
        return {s.name: i for i, s in enumerate(self.specs)}

    def attr_index(self, name: str) -> int:
        try:
            return self._index_by_name[name]
        except KeyError:
            raise SchemaMismatchError(f"model schema has no attribute {name!r}") from None


def _laplace(counts: Sequence[float], k: int) -> tuple[float, ...]:
    total = sum(counts)
    return tuple((c + 1.0) / (total + k) for c in counts)


def slot_name(spec: AttributeSpec, value: int) -> str:
    """Label of a nominal slot; the slot past the labels holds missing values."""
    labels = spec.labels
    return labels[value] if value < len(labels) else "?"


def branches(split: Split) -> list[tuple[tuple, Union[Leaf, Split]]]:
    """Each child of a split with the encoded ``(attr, op, value)``
    condition that leads to it; nominal values are slot integers."""
    if split.threshold is None:
        return [((split.attr, "=", v), child) for v, child in enumerate(split.children)]
    ops = ("<=", ">")
    return [((split.attr, op, split.threshold), child) for op, child in zip(ops, split.children)]


def child_index(split: Split, value) -> int | None:
    """The child an encoded value goes to, or ``None`` for a nominal slot
    that has no child."""
    if split.threshold is None:
        value = int(value)
        return value if value < len(split.children) else None
    return 0 if value <= split.threshold else 1


def encoded_paths(node) -> list[tuple[tuple, Leaf]]:
    """Root-to-leaf paths as tuples of encoded conditions."""
    paths: list[tuple[tuple, Leaf]] = []

    def walk(node, prefix):
        if isinstance(node, Leaf):
            paths.append((prefix, node))
            return
        for cond, child in branches(node):
            walk(child, prefix + (cond,))

    walk(node, ())
    return paths


def decode_condition(specs: Sequence[AttributeSpec], cond) -> Condition:
    """Bind an encoded ``(attr, op, value)`` condition to names and labels."""
    attr, op, value = cond
    spec = specs[attr]
    if op == "=":
        return Condition(spec.name, "=", slot_name(spec, value))
    return Condition(spec.name, op, float(value))


def _tree_distribution(model: Model, node, enc_values) -> tuple[float, ...]:
    k = len(model.class_labels)
    while isinstance(node, Split):
        branch = child_index(node, enc_values[node.attr])
        if branch is None:
            break
        node = node.children[branch]
    return _laplace(node.counts, k)


def condition_matches(model: Model, cond: Condition, enc_values) -> bool:
    idx = model.attr_index(cond.attr)
    spec = model.specs[idx]
    v = enc_values[idx]
    if cond.op == "=":
        if not spec.is_nominal:
            raise SchemaMismatchError(f"equality test on numeric attribute {cond.attr!r}")
        return slot_name(spec, v) == cond.value
    if cond.op == "<=":
        return v <= float(cond.value)
    return v > float(cond.value)


def _fired(model: Model, rules: RuleList, enc_values) -> int:
    """Index of the first rule whose conditions all hold."""
    for i, rule in enumerate(rules.rules):
        if all(condition_matches(model, c, enc_values) for c in rule.conditions):
            return i
    raise SchemaMismatchError("rule list failed to cover an instance")


def _rules_distribution(model: Model, rules: RuleList, enc_values) -> tuple[float, ...]:
    k = len(model.class_labels)
    rule = rules.rules[_fired(model, rules, enc_values)]
    counts = rule.counts
    if not counts or len(counts) != k:
        counts = tuple(1.0 if label == rule.cls else 0.0 for label in model.class_labels)
    return _laplace(counts, k)


def _distance_plan(model: Model, ranges, enc_values) -> list[tuple]:
    """Per-row terms of the exemplar distance, one per input in index order.

    Each term is ``(index, encoded value, range span)``; the span is
    ``None`` for a nominal input.
    """
    plan = []
    for i in model.input_indices:
        if model.specs[i].is_numeric:
            r_lo, r_hi = ranges.get(i, (0.0, 1.0))
            plan.append((i, enc_values[i], r_hi - r_lo))
        else:
            plan.append((i, enc_values[i], None))
    return plan


def _planned_distance(ex: Exemplar, plan) -> float:
    lo, hi, label_sets = ex.lo, ex.hi, ex.label_sets
    total = 0.0
    for i, v, span in plan:
        if span is None:
            d = 0.0 if v in label_sets.get(i, ()) else 1.0
        else:
            ex_lo = lo.get(i, 0.0)
            ex_hi = hi.get(i, 0.0)
            if v < ex_lo:
                d = (ex_lo - v) / span if span > 0 else 1.0
            elif v > ex_hi:
                d = (v - ex_hi) / span if span > 0 else 1.0
            else:
                d = 0.0
        total += d * d
    return total ** 0.5


def exemplar_distance(model: Model, ex: Exemplar, ranges, enc_values) -> float:
    return _planned_distance(ex, _distance_plan(model, ranges, enc_values))


def _exemplar_distribution(model: Model, structure: ExemplarSet, enc_values) -> tuple[float, ...]:
    k = len(model.class_labels)
    if not structure.exemplars:
        return tuple(1.0 / k for _ in range(k))
    plan = _distance_plan(model, structure.ranges, enc_values)
    best = [None] * k
    for ex in structure.exemplars:
        d = _planned_distance(ex, plan)
        if best[ex.cls] is None or d < best[ex.cls]:
            best[ex.cls] = d
    eps = 1e-9
    weights = [0.0 if d is None else 1.0 / (d + eps) for d in best]
    total = sum(weights)
    if total == 0.0:
        return tuple(1.0 / k for _ in range(k))
    return tuple(w / total for w in weights)


def predict(model: Model, row: Sequence) -> tuple[float, ...]:
    """Class probability distribution for one in-schema row."""
    if len(row) != len(model.specs):
        raise SchemaMismatchError(
            f"instance has {len(row)} values, schema expects {len(model.specs)}"
        )
    if model.metadata.get("degenerate"):
        target = model.metadata["constant_class"]
        return tuple(1.0 if label == target else 0.0 for label in model.class_labels)
    enc_values = encode_row(
        model.specs, model.input_indices, model.metadata.get("numeric_fill", {}), row
    )
    structure = model.structure
    if isinstance(structure, DecisionTree):
        return _tree_distribution(model, structure.root, enc_values)
    if isinstance(structure, RuleList):
        return _rules_distribution(model, structure, enc_values)
    return _exemplar_distribution(model, structure, enc_values)


def predict_label(model: Model, row: Sequence) -> str:
    dist = predict(model, row)
    best = max(range(len(dist)), key=lambda i: (dist[i], -i))
    return model.class_labels[best]


def fired_rule_index(model: Model, row: Sequence) -> int:
    """Index of the first matching rule (rule-list models only)."""
    structure = model.structure
    if not isinstance(structure, RuleList):
        raise SchemaMismatchError("model is not a rule list")
    enc_values = encode_row(
        model.specs, model.input_indices, model.metadata.get("numeric_fill", {}), row
    )
    return _fired(model, structure, enc_values)


def tree_paths(model: Model) -> list[tuple[tuple[Condition, ...], Leaf]]:
    """Root-to-leaf paths of a tree model as condition tuples."""
    structure = model.structure
    if not isinstance(structure, DecisionTree):
        raise SchemaMismatchError("model is not a decision tree")
    return [
        (tuple(decode_condition(model.specs, c) for c in conds), leaf)
        for conds, leaf in encoded_paths(structure.root)
    ]


# --- JSON serialization ---------------------------------------------------


def _node_to_dict(node):
    if isinstance(node, Leaf):
        return {"type": "leaf", "counts": list(node.counts), "cls": node.cls}
    return {
        "type": "split",
        "attr": node.attr,
        "threshold": node.threshold,
        "counts": list(node.counts),
        "cls": node.cls,
        "children": [_node_to_dict(c) for c in node.children],
    }


def _node_from_dict(data):
    if data["type"] == "leaf":
        return Leaf(counts=tuple(data["counts"]), cls=data["cls"])
    return Split(
        attr=data["attr"],
        threshold=data["threshold"],
        counts=tuple(data["counts"]),
        cls=data["cls"],
        children=tuple(_node_from_dict(c) for c in data["children"]),
    )


def _structure_to_dict(structure: Structure):
    if isinstance(structure, DecisionTree):
        return {"type": "tree", "root": _node_to_dict(structure.root)}
    if isinstance(structure, RuleList):
        return {
            "type": "rules",
            "rules": [
                {
                    "conditions": [
                        {"attr": c.attr, "op": c.op, "value": c.value}
                        for c in rule.conditions
                    ],
                    "cls": rule.cls,
                    "counts": list(rule.counts),
                }
                for rule in structure.rules
            ],
        }
    return {
        "type": "exemplars",
        "ranges": {str(k): list(v) for k, v in structure.ranges.items()},
        "exemplars": [
            {
                "cls": ex.cls,
                "lo": {str(k): v for k, v in ex.lo.items()},
                "hi": {str(k): v for k, v in ex.hi.items()},
                "labels": {str(k): sorted(v) for k, v in ex.label_sets.items()},
                "n_members": ex.n_members,
            }
            for ex in structure.exemplars
        ],
    }


def _structure_from_dict(data) -> Structure:
    if data["type"] == "tree":
        return DecisionTree(root=_node_from_dict(data["root"]))
    if data["type"] == "rules":
        return RuleList(
            rules=tuple(
                Rule(
                    conditions=tuple(
                        Condition(c["attr"], c["op"], c["value"])
                        for c in r["conditions"]
                    ),
                    cls=r["cls"],
                    counts=tuple(r["counts"]),
                )
                for r in data["rules"]
            )
        )
    return ExemplarSet(
        exemplars=[
            Exemplar(
                cls=e["cls"],
                lo={int(k): v for k, v in e["lo"].items()},
                hi={int(k): v for k, v in e["hi"].items()},
                label_sets={
                    int(k): frozenset(v) for k, v in e["labels"].items()
                },
                n_members=e["n_members"],
            )
            for e in data["exemplars"]
        ],
        ranges={int(k): tuple(v) for k, v in data["ranges"].items()},
    )


def model_to_json(model: Model) -> str:
    payload = {
        "algorithm": model.algorithm,
        "schema": json.loads(schema_to_json(model.specs)),
        "class_labels": list(model.class_labels),
        "structure": _structure_to_dict(model.structure),
        "metadata": model.metadata,
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def model_from_json(text: str) -> Model:
    payload = json.loads(text)
    return Model(
        algorithm=payload["algorithm"],
        specs=schema_from_json(json.dumps(payload["schema"])),
        class_labels=tuple(payload["class_labels"]),
        structure=_structure_from_dict(payload["structure"]),
        metadata=payload["metadata"],
    )
