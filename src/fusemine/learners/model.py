"""Trained model structures and prediction.

A model keeps the full training schema so any in-schema row (id and
class cells included, both ignored) can be scored.  All structures emit
Laplace-smoothed class probability distributions; a model trained on a
single-class dataset is flagged degenerate and predicts that class with
probability one.

What prediction reads of a model, its row encoding, a degenerate model's
distribution, a rule list's encoded conditions and distributions, and an
exemplar set's distance terms and per-class exemplar index, is built once
per model, on first use; the index waits until the model has scored a few
rows by plain scans.  It finds each class's least distance sum without
summing the exemplars that cannot reach it.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence, Union

from ..errors import SchemaMismatchError
from ..tabular import AttributeSpec, left_sum, number_text, schema_from_json, schema_to_json
from .encode import encode_row, encoding_plan


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
        return f"{self.attr} {self.op} {number_text(self.value)}"


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
        return len(encoded_paths(self.root))

    def size(self) -> int:
        return _count_nodes(self.root)


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

    # Prediction state, built on first use; a model is not changed once built.

    @cached_property
    def _encoding_plan(self) -> tuple[tuple[int, bool, object], ...]:
        return encoding_plan(self.specs, self.input_indices, self.metadata.get("numeric_fill", {}))

    @cached_property
    def _constant(self) -> tuple[float, ...] | None:
        """A degenerate model's distribution; ``None`` for any other model."""
        if not self.metadata.get("degenerate"):
            return None
        target = self.metadata["constant_class"]
        return tuple(1.0 if label == target else 0.0 for label in self.class_labels)

    @cached_property
    def _leaf_distributions(self) -> dict[tuple[float, ...], tuple[float, ...]]:
        """The distribution of a tree node's counts, filled as rows reach
        the nodes where they stop."""
        return {}

    @cached_property
    def _encoded_rules(self) -> tuple[tuple[tuple, tuple[float, ...]], ...]:
        return _encode_rules(self)

    @cached_property
    def _distance_terms(self) -> tuple[tuple[int, float | None], ...]:
        return _distance_terms(self.specs, self.input_indices, self.structure.ranges)

    @cached_property
    def _exemplar_index(self) -> _DeferredIndex:
        return _DeferredIndex(self.structure.exemplars, self._distance_terms, len(self.class_labels))


def majority(counts) -> int:
    """Index of the largest value; a tie goes to the smallest index."""
    best = 0
    for i in range(1, len(counts)):
        if counts[i] > counts[best]:
            best = i
    return best


def _laplace(counts: Sequence[float], k: int) -> tuple[float, ...]:
    total = left_sum(counts)
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


def _tree_walk(node, enc_values) -> tuple[list[tuple[Split, int]], Union[Leaf, Split]]:
    """The ``(split, child index)`` branches an encoded row takes from
    ``node`` down, and the node where it stops: a leaf, or a split that
    has no child for the row's value."""
    taken = []
    while isinstance(node, Split):
        branch = child_index(node, enc_values[node.attr])
        if branch is None:
            break
        taken.append((node, branch))
        node = node.children[branch]
    return taken, node


def _encode_condition(model: Model, cond: Condition) -> tuple:
    """The encoded ``(attr, op, value)`` form of a named condition, as
    ``branches`` gives a tree's: a nominal value is its slot, ``?`` the
    slot past the labels."""
    idx = model.attr_index(cond.attr)
    spec = model.specs[idx]
    if cond.op != "=":
        return idx, cond.op, float(cond.value)
    if not spec.is_nominal:
        raise SchemaMismatchError(f"equality test on numeric attribute {cond.attr!r}")
    labels = spec.labels
    if cond.value == "?":
        return idx, "=", len(labels)
    # A label the attribute lacks matches no slot.
    return idx, "=", labels.index(cond.value) if cond.value in labels else None


def _encode_rules(model: Model) -> tuple[tuple[tuple, tuple[float, ...]], ...]:
    """Each rule's encoded conditions and its Laplace distribution; a rule
    without counts for every class counts one instance of its own."""
    k = len(model.class_labels)
    encoded = []
    for rule in model.structure.rules:
        counts = rule.counts
        if not counts or len(counts) != k:
            counts = tuple(1.0 if label == rule.cls else 0.0 for label in model.class_labels)
        conditions = tuple(_encode_condition(model, c) for c in rule.conditions)
        encoded.append((conditions, _laplace(counts, k)))
    return tuple(encoded)


def _fired(model: Model, enc_values) -> int:
    """Index of the first rule of a rule-list model whose conditions all
    hold; every reading of a rule list fires rules through this."""
    for no, (conditions, _) in enumerate(model._encoded_rules):
        for i, op, value in conditions:
            v = enc_values[i]
            if op == "=":
                if v != value:
                    break
            elif op == "<=":
                if not v <= value:
                    break
            elif not v > value:
                break
        else:
            return no
    raise SchemaMismatchError("rule list failed to cover an instance")


def _range_span(lo: float, hi: float) -> float:
    """``hi - lo``, or, where that overflows, minus the span of the halved
    ends (halving is exact for normal floats); ``_unit_gap`` reads it."""
    span = hi - lo
    return span if span != math.inf else lo / 2 - hi / 2


def _unit_gap(a: float, b: float, span: float) -> float:
    """``(a - b) / span`` for ``a >= b`` and a ``_range_span``, where the
    plain division cannot serve: 1.0 for an empty range, and the halved
    values over the halved span where the span or ``a - b`` overflows.
    A finite gap over a positive span divides in the caller, which saves
    this call."""
    if span > 0:
        return (a / 2 - b / 2) / (span / 2)
    return (a / 2 - b / 2) / -span if span < 0 else 1.0


def _distance_terms(specs, input_indices, ranges) -> tuple[tuple[int, float | None], ...]:
    """The exemplar distance's terms, one per input in index order: each
    is ``(index, range span)``, the span a ``_range_span``, or ``None``
    for a nominal input.  A model or an NNGE build makes them once."""
    return tuple(
        (i, _range_span(*ranges.get(i, (0.0, 1.0))) if specs[i].is_numeric else None)
        for i in input_indices
    )


def _distance_plan(terms, enc_values) -> list[tuple]:
    """One row's ``(index, encoded value, range span)`` distance terms.
    Prediction scores exemplars through this plan and ``_planned_sum``,
    and so does training on a set with a numeric input."""
    return [(i, enc_values[i], span) for i, span in terms]


def _planned_sum(ex: Exemplar, plan, bound=None) -> float | None:
    """The exemplar's sum of squared per-input distances, or ``None`` as
    soon as the running sum reaches ``bound``.

    The bound is exact: every term is non-negative and the terms are added
    in plan order, so the running sum never decreases, and a sum stopped
    at the bound would have ended at or above it.  Callers compare sums,
    or take ``** 0.5`` of them, which is non-decreasing; ``math.sqrt``
    rounds differently on some inputs and would change the distances.
    """
    lo, hi, label_sets = ex.lo, ex.hi, ex.label_sets
    inf = math.inf
    total = 0.0
    for i, v, span in plan:
        if span is None:
            if v in label_sets.get(i, ()):
                continue
            d = 1.0
        else:
            ex_lo = lo.get(i, 0.0)
            ex_hi = hi.get(i, 0.0)
            if v < ex_lo:
                d = ex_lo - v
                d = d / span if span > 0 and d < inf else _unit_gap(ex_lo, v, span)
            elif v > ex_hi:
                d = v - ex_hi
                d = d / span if span > 0 and d < inf else _unit_gap(v, ex_hi, span)
            else:
                continue
        # Adding a zero term leaves the sum as it is, so only a nonzero
        # term is added and checked.
        total += d * d
        if bound is not None and total >= bound:
            return None
    return None if bound is not None and total >= bound else total


def _least_of(exemplars, plan, least=None):
    """The least ``_planned_sum`` of ``exemplars`` and ``least``; an
    exemplar is summed only while it can still undercut it, and the scan
    stops at 0."""
    for ex in exemplars:
        s = _planned_sum(ex, plan, least)
        if s is not None and (least is None or s < least):
            least = s
            if s == 0.0:
                break
    return least


def _pivot_term(a: float, b: float, span: float) -> float:
    """The squared term ``_planned_sum`` adds for a gap ``a - b > 0`` on
    an input of positive span, by its own expression."""
    d = a - b
    d = d / span if d < math.inf else _unit_gap(a, b, span)
    return d * d


class _CoverIndex:
    """An all-nominal exemplar set as bits, one per exemplar, grouped by
    class: for each input, the exemplars whose label set holds each slot.

    Each nominal term is 0 or 1.0, so an exemplar's ``_planned_sum`` is
    the float of its mismatch count.  The AND of a row's masks marks the
    exemplars at 0; otherwise a bit-sliced count of the masks gives each
    class its most matches, and so its least sum.
    """

    def __init__(self, groups, terms):
        tables = {i: {} for i, _ in terms}
        self.class_masks = []
        bit = 0
        for group in groups:
            first = bit
            for ex in group:
                flag = 1 << bit
                for i, table in tables.items():
                    for slot in ex.label_sets.get(i, ()):
                        table[slot] = table.get(slot, 0) | flag
                bit += 1
            self.class_masks.append((1 << bit) - (1 << first))
        self.tables = tuple(tables.items())
        self.every = (1 << bit) - 1

    def least_sums(self, enc_values) -> list:
        matches = [table.get(enc_values[i], 0) for i, table in self.tables]
        cover = self.every
        for m in matches:
            cover &= m
        best = []
        planes = None
        for mask in self.class_masks:
            if not mask or cover & mask:
                best.append(0.0 if mask else None)
                continue
            if planes is None:
                # planes[j] holds bit j of each exemplar's match count.
                planes = []
                for carry in matches:
                    j = 0
                    while carry:
                        if j == len(planes):
                            planes.append(carry)
                            break
                        planes[j], carry = planes[j] ^ carry, planes[j] & carry
                        j += 1
            # The class's most matches, read from the top bit down.
            top = 0
            for j in range(len(planes) - 1, -1, -1):
                hit = mask & planes[j]
                if hit:
                    mask = hit
                    top |= 1 << j
            best.append(float(len(matches) - top))
        return best


class _PivotIndex:
    """Each class's exemplars sorted by ``lo`` and by ``hi`` on a pivot:
    of the numeric inputs of positive span, the one over whose span the
    class's boxes start furthest apart.  A class of one exemplar, or of a
    set without such an input, is scanned in full.

    A row's least sum starts from the boxes that hold its pivot value,
    then walks outward, nearer side first.  The pivot term alone is a
    lower bound of an exemplar's sum (the terms are non-negative and
    rounding is monotone), and it does not fall as a side walks away from
    the row (every step of the gap rounds monotonically), so the walk
    stops once that term reaches the least sum so far.
    """

    def __init__(self, groups, terms):
        self.terms = terms
        pivots = [(i, span) for i, span in terms if span is not None and span > 0]
        self.classes = [
            (group, None) if not pivots or len(group) < 2 else self._order(group, pivots)
            for group in groups
        ]

    @staticmethod
    def _order(group, pivots):
        def spread(pivot):
            i, span = pivot
            los = [ex.lo.get(i, 0.0) for ex in group]
            return (max(los) - min(los)) / span

        i, span = max(pivots, key=spread)
        by_lo = sorted(group, key=lambda ex: ex.lo.get(i, 0.0))
        by_hi = sorted(group, key=lambda ex: ex.hi.get(i, 0.0))
        return group, (
            i, span, [ex.lo.get(i, 0.0) for ex in by_lo], [(ex.hi.get(i, 0.0), ex) for ex in by_lo],
            [ex.hi.get(i, 0.0) for ex in by_hi], by_hi,
        )

    def least_sums(self, enc_values) -> list:
        plan = _distance_plan(self.terms, enc_values)
        best = []
        for group, order in self.classes:
            v = enc_values[order[0]] if order else math.nan
            # A class without a pivot is scanned in full, and so is a NaN
            # row value, which compares with no bound: every box holds it.
            if v != v:
                best.append(_least_of(group, plan))
                continue
            _, span, los, his_by_lo, his, by_hi = order
            right = bisect_right(los, v)
            least = _least_of([ex for hi, ex in his_by_lo[:right] if hi >= v], plan)
            left = bisect_left(his, v) - 1
            n = len(los)
            up = _pivot_term(los[right], v, span) if right < n else None
            down = _pivot_term(v, his[left], span) if left >= 0 else None
            while least != 0.0 and (up is not None or down is not None):
                if down is None or (up is not None and up <= down):
                    term, ex = up, his_by_lo[right][1]
                    right += 1
                    up = _pivot_term(los[right], v, span) if right < n else None
                else:
                    term, ex = down, by_hi[left]
                    left -= 1
                    down = _pivot_term(v, his[left], span) if left >= 0 else None
                if least is not None and term >= least:
                    break
                s = _planned_sum(ex, plan, least)
                if s is not None and (least is None or s < least):
                    least = s
            best.append(least)
        return best


def _index_exemplars(groups, terms):
    """Each class's exemplars, indexed for ``least_sums``: by label bits
    when every input is nominal, else by a numeric pivot."""
    if all(span is None for _, span in terms):
        return _CoverIndex(groups, terms)
    return _PivotIndex(groups, terms)


#: Rows a model scores by plain scans before it builds its index.  A
#: build costs about as much as three plain scans of a row, and a model
#: of a 10-fold grid cell scores about 6 rows.
_PLAIN_ROWS = 8


class _DeferredIndex:
    """Each class's least sum of a row: a bounded scan of the class's
    exemplars for a model's first ``_PLAIN_ROWS`` rows, then the index of
    ``_index_exemplars``, built once the model has scored more rows than
    the build would have cost."""

    def __init__(self, exemplars, terms, k):
        self.groups = [[] for _ in range(k)]
        for ex in exemplars:
            self.groups[ex.cls].append(ex)
        self.terms = terms
        self.plain_rows = _PLAIN_ROWS

    @cached_property
    def index(self) -> _CoverIndex | _PivotIndex:
        return _index_exemplars(self.groups, self.terms)

    def least_sums(self, enc_values) -> list:
        if self.plain_rows:
            self.plain_rows -= 1
            plan = _distance_plan(self.terms, enc_values)
            return [_least_of(group, plan) for group in self.groups]
        return self.index.least_sums(enc_values)


def _exemplar_distribution(model: Model, structure: ExemplarSet, enc_values) -> tuple[float, ...]:
    k = len(model.class_labels)
    if not structure.exemplars:
        return tuple(1.0 / k for _ in range(k))
    # Each class's least sum, or None for a class without exemplars.
    best = model._exemplar_index.least_sums(enc_values)
    eps = 1e-9
    weights = [0.0 if s is None else 1.0 / (s ** 0.5 + eps) for s in best]
    total = left_sum(weights)
    if total == 0.0:
        return tuple(1.0 / k for _ in range(k))
    return tuple(w / total for w in weights)


def _encoded(model: Model, row: Sequence) -> dict:
    """The encoded input values of an in-schema row; prediction and every
    explanation read a row through this."""
    if len(row) != len(model.specs):
        raise SchemaMismatchError(
            f"instance has {len(row)} values, schema expects {len(model.specs)}"
        )
    return encode_row(model._encoding_plan, row)


def predict(model: Model, row: Sequence) -> tuple[float, ...]:
    """Class probability distribution for one in-schema row."""
    enc_values = _encoded(model, row)
    constant = model._constant
    if constant is not None:
        return constant
    structure = model.structure
    if isinstance(structure, DecisionTree):
        _, node = _tree_walk(structure.root, enc_values)
        dists = model._leaf_distributions
        dist = dists.get(node.counts)
        if dist is None:
            dist = dists[node.counts] = _laplace(node.counts, len(model.class_labels))
        return dist
    if isinstance(structure, RuleList):
        return model._encoded_rules[_fired(model, enc_values)][1]
    return _exemplar_distribution(model, structure, enc_values)


def predict_label(model: Model, row: Sequence) -> str:
    return model.class_labels[majority(predict(model, row))]


def fired_rule_index(model: Model, row: Sequence) -> int:
    """Index of the first matching rule (rule-list models only)."""
    structure = model.structure
    if not isinstance(structure, RuleList):
        raise SchemaMismatchError("model is not a rule list")
    return _fired(model, _encoded(model, row))


def _tree_of(model: Model) -> DecisionTree:
    if not isinstance(model.structure, DecisionTree):
        raise SchemaMismatchError("model is not a decision tree")
    return model.structure


def row_path(model: Model, row: Sequence) -> tuple[tuple[Condition, ...], Condition | None]:
    """The conditions a row takes through a tree model, and, when it stops
    at a split with no branch for its value, that value's condition
    (``None`` when it reaches a leaf)."""
    enc_values = _encoded(model, row)
    taken, node = _tree_walk(_tree_of(model).root, enc_values)
    path = tuple(decode_condition(model.specs, branches(s)[b][0]) for s, b in taken)
    if isinstance(node, Leaf):
        return path, None
    return path, decode_condition(model.specs, (node.attr, "=", enc_values[node.attr]))


def tree_paths(model: Model) -> list[tuple[tuple[Condition, ...], Leaf]]:
    """Root-to-leaf paths of a tree model as condition tuples."""
    structure = _tree_of(model)
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


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)


def _is_index(value, n: int) -> bool:
    return type(value) is int and 0 <= value < n


def _check_counts(counts, k: int, what: str) -> None:
    if len(counts) != k or not all(_is_number(c) and c >= 0 for c in counts):
        raise SchemaMismatchError(f"{what} needs {k} non-negative class counts")


def _input_spec(model: Model, attr, what: str) -> AttributeSpec:
    """The input attribute that ``attr``, an index or a name, denotes."""
    index = model._index_by_name.get(attr) if isinstance(attr, str) else attr
    if type(index) is not int or index not in model.input_indices:
        raise SchemaMismatchError(f"{what} tests {attr!r}, which is not an input attribute")
    return model.specs[index]


def _check_tree(model: Model, root) -> None:
    k = len(model.class_labels)
    stack = [root]
    while stack:
        node = stack.pop()
        if not _is_index(node.cls, k):
            raise SchemaMismatchError(f"tree node class {node.cls!r} is not a class index")
        _check_counts(node.counts, k, "a tree node")
        if isinstance(node, Leaf):
            continue
        spec = _input_spec(model, node.attr, "a split")
        if spec.is_numeric:
            need = "a finite threshold and two children"
            fits = _is_number(node.threshold) and len(node.children) == 2
        else:
            need = "no threshold and a child per label"
            n_labels = len(spec.labels)
            fits = node.threshold is None and len(node.children) in (n_labels, n_labels + 1)
        if not fits:
            raise SchemaMismatchError(f"a split on {spec.name!r} needs {need}")
        stack.extend(node.children)


def _check_rules(model: Model, rules: RuleList) -> None:
    for no, rule in enumerate(rules.rules, start=1):
        if rule.cls not in model.class_labels:
            raise SchemaMismatchError(f"rule {no} concludes {rule.cls!r}, not a class label")
        if rule.counts:
            _check_counts(rule.counts, len(model.class_labels), f"rule {no}")
        for cond in rule.conditions:
            spec = _input_spec(model, cond.attr, f"rule {no}")
            if spec.is_nominal:
                fits = cond.op == "=" and cond.value in (*spec.labels, "?")
            else:
                fits = cond.op != "=" and _is_number(cond.value)
            if not fits:
                raise SchemaMismatchError(
                    f"rule {no}: {cond.attr} {cond.op} {cond.value!r} does not fit "
                    f"the {spec.kind} attribute"
                )


def _check_exemplars(model: Model, structure: ExemplarSet) -> None:
    numeric = {i for i in model.input_indices if model.specs[i].is_numeric}
    nominal = set(model.input_indices) - numeric

    def interval(lo, hi) -> bool:
        return _is_number(lo) and _is_number(hi) and lo <= hi

    for i, bounds in structure.ranges.items():
        if i not in numeric or len(bounds) != 2 or not interval(*bounds):
            raise SchemaMismatchError(f"range of attribute {i} is not a numeric input's interval")
    for no, ex in enumerate(structure.exemplars, start=1):
        fits = (
            _is_index(ex.cls, len(model.class_labels))
            and type(ex.n_members) is int
            and ex.n_members > 0
            and set(ex.lo) == set(ex.hi) == numeric
            and all(interval(ex.lo[i], ex.hi[i]) for i in numeric)
            and set(ex.label_sets) == nominal
            and all(
                values and all(_is_index(v, len(model.specs[i].labels) + 1) for v in values)
                for i, values in ex.label_sets.items()
            )
        )
        if not fits:
            raise SchemaMismatchError(
                f"exemplar {no} needs a class index, a member count, an interval for "
                "every numeric input and label slots for every nominal input"
            )


def check_model(model: Model) -> None:
    """Raise ``SchemaMismatchError`` unless the model fits its own schema,
    so that rendering it and predicting with it cannot fail."""
    labels = model.class_labels
    if not all(isinstance(c, str) for c in labels) or not 0 < len(set(labels)) == len(labels):
        raise SchemaMismatchError("class labels must be distinct strings")
    if len({s.name for s in model.specs}) != len(model.specs):
        raise SchemaMismatchError("attribute names must be distinct")
    if not isinstance(model.algorithm, str) or not isinstance(model.metadata, dict):
        raise SchemaMismatchError("a model needs an algorithm name and a metadata object")
    fill = model.metadata.get("numeric_fill", {})
    if not isinstance(fill, dict) or not all(_is_number(v) for v in fill.values()):
        raise SchemaMismatchError("numeric_fill must map attribute names to finite numbers")
    if model.metadata.get("degenerate") and model.metadata.get("constant_class") not in labels:
        raise SchemaMismatchError("a degenerate model needs a class label as its constant_class")
    structure = model.structure
    if isinstance(structure, DecisionTree):
        _check_tree(model, structure.root)
    elif isinstance(structure, RuleList):
        _check_rules(model, structure)
    else:
        _check_exemplars(model, structure)


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
    """Parse ``model_to_json`` output; a model that does not fit its own
    schema is a schema mismatch."""
    payload = json.loads(text)
    model = Model(
        algorithm=payload["algorithm"],
        specs=schema_from_json(json.dumps(payload["schema"])),
        class_labels=tuple(payload["class_labels"]),
        structure=_structure_from_dict(payload["structure"]),
        metadata=payload["metadata"],
    )
    check_model(model)
    return model
