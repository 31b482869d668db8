"""Shared fixtures: tiny planted-rule datasets used as learner oracles."""

import math
import random

from hypothesis import strategies as st

from fusemine.errors import SchemaMismatchError
from fusemine.learners.model import (
    Leaf, Split, _distance_plan, _distance_terms, _planned_sum, majority, slot_name,
)
from fusemine.learners.trees import _EPS, class_counts, cut_between, entropy
from fusemine.tabular import AttributeSpec, DataTable

GRADE = ("Low", "Medium", "High")
STATUS = ("Pass", "Fail", "Dropout")

PLANTED_ATTRS = ("Quiz", "Attention", "Forum", "NoiseA", "NoiseB")


def planted_label(quiz, attention, forum):
    """First-match semantics of the five planted rules."""
    if quiz == 2:
        return 0  # Pass
    if quiz == 1 and attention == 1:
        return 0
    if quiz == 0:
        return 1  # Fail
    if attention == 0 and forum == 0:
        return 2  # Dropout
    return 0


def planted_dataset(n=240, seed=0, noise=0.0, numeric=False):
    """Noise-free (by default) cohort drawn from the planted rule list.

    ``numeric=True`` maps each grade onto a real value inside its
    third of [0, 1] so threshold learners see the same concept.
    """
    rng = random.Random(seed)
    rows = []
    for _ in range(n):
        quiz, attention, forum = (rng.randrange(3) for _ in range(3))
        label = planted_label(quiz, attention, forum)
        if noise and rng.random() < noise:
            label = rng.choice([c for c in range(3) if c != label])
        noise_a, noise_b = rng.randrange(3), rng.randrange(3)
        if numeric:
            values = tuple(
                (v + rng.uniform(0.1, 0.9)) / 3.0
                for v in (quiz, attention, forum, noise_a, noise_b)
            )
        else:
            values = (quiz, attention, forum, noise_a, noise_b)
        rows.append(values + (label,))
    specs = [
        AttributeSpec.numeric(name) if numeric else AttributeSpec.nominal(name, GRADE)
        for name in PLANTED_ATTRS
    ]
    specs.append(AttributeSpec.nominal("Status", STATUS, role="class"))
    return DataTable(specs, rows)


def missing_slot_table():
    """Grade ``a`` decides the class, a missing ``a`` included; under
    ``a = High`` the numeric ``b`` decides it."""
    specs = [
        AttributeSpec.nominal("a", GRADE),
        AttributeSpec.numeric("b"),
        AttributeSpec.nominal("Status", STATUS, role="class"),
    ]
    rows = [(2, 0.1 * i, 0 if i < 4 else 1) for i in range(8)]
    rows += [(0, 0.5, 1)] * 6 + [(None, 0.5, 2)] * 6 + [(1, 0.3, 0)] * 6
    return DataTable(specs, rows)


def json_values(keys=st.text(max_size=6)):
    """Any JSON value; objects draw their keys from ``keys``."""
    return st.recursive(
        st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
        lambda children: st.lists(children, max_size=4)
        | st.dictionaries(keys, children, max_size=4),
        max_leaves=12,
    )


# --- by-name oracles of a model's prepared prediction state --------------


def encode_row(specs, input_idx, numeric_fill, row):
    """Encode one instance row, reading each input's kind and substitute
    from the schema and the stored fills on every call."""
    out = {}
    for i in input_idx:
        spec = specs[i]
        v = row[i]
        if spec.is_numeric:
            out[i] = numeric_fill.get(spec.name, 0.0) if v is None else float(v)
        else:
            out[i] = len(spec.labels) if v is None else v
    return out


def condition_matches(model, cond, enc_values) -> bool:
    """Whether a named condition holds for an encoded row, resolving the
    attribute by name and the label by its text."""
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


# --- brute-force oracles of the nearest-exemplar vote ---------------------


def planned_distance(ex, plan) -> float:
    """An exemplar's distance to a row: the root of its unbounded
    ``_planned_sum``."""
    return _planned_sum(ex, plan) ** 0.5


def full_scan_distribution(model, row) -> tuple[float, ...]:
    """An exemplar model's distribution from every exemplar's full
    distance: each class weighs ``1 / (d + 1e-9)`` for its least ``d``."""
    k = len(model.class_labels)
    enc = encode_row(model.specs, model.input_indices, model.metadata.get("numeric_fill", {}), row)
    terms = _distance_terms(model.specs, model.input_indices, model.structure.ranges)
    plan = _distance_plan(terms, enc)
    best = [None] * k
    for ex in model.structure.exemplars:
        d = planned_distance(ex, plan)
        if best[ex.cls] is None or d < best[ex.cls]:
            best[ex.cls] = d
    weights = [0.0 if d is None else 1.0 / (d + 1e-9) for d in best]
    total = sum(weights)
    if total == 0.0:
        return tuple(1.0 / k for _ in range(k))
    return tuple(w / total for w in weights)


# --- the tree split search with one log2 call per entropy term ------------
#
# ``_nominal_split``, ``_best_cut``, ``_numeric_split``, ``choose_split``,
# ``choose_c45_split`` and ``grow_tree`` as they were before the split
# search read its terms from the term table, verbatim but for the names,
# each prefixed ``log2``.  ``choose_c45_split`` still averages with the
# built-in ``sum``, which adds floats left to right only up to Python 3.11.


def log2_nominal_split(enc, idx, attr, parent_h, min_leaf):
    """``(gain, split_info)`` of the multiway split on a nominal attribute,
    or None unless two of its branches hold ``min_leaf`` rows each."""
    col = enc.cols[attr]
    y = enc.y
    slots = enc.n_slots(attr)
    counts = [[0.0] * enc.n_classes for _ in range(slots)]
    totals = [0.0] * slots
    for i in idx:
        v = col[i]
        counts[v][y[i]] += 1.0
        totals[v] += 1.0
    populated = sum(1 for t in totals if t >= min_leaf)
    if populated < 2:
        return None
    n = len(idx)
    weighted = 0.0
    split_info = 0.0
    for v in range(slots):
        t = totals[v]
        if t:
            weighted += t / n * entropy(counts[v], t)
            p = t / n
            split_info -= p * math.log2(p)
    return parent_h - weighted, split_info


def log2_best_cut(enc, idx, attr, parent_h, min_size):
    """Binary cut of a numeric attribute with the highest information gain
    among the cuts that leave at least ``min_size`` rows on each side.

    Returns ``(gain, n_left, lo, hi, cuts)``: the cut parts the
    neighbouring values ``lo < hi``, ``n_left`` rows go to the ``lo``
    side, and ``cuts`` counts every cut that met the minimum.  Returns
    None when no such cut gains; ties go to the smaller threshold.
    """
    col = enc.cols[attr]
    y = enc.y
    n = len(idx)
    if n < 2 * min_size:
        return None
    order = sorted(idx, key=col.__getitem__)
    left = [0.0] * enc.n_classes
    right = class_counts(enc, order)
    log2 = math.log2
    best = None
    best_gain = 0.0
    cuts = 0
    n_left = 0
    value = col[order[0]]
    for pos in range(n - 1):
        cls = y[order[pos]]
        left[cls] += 1.0
        right[cls] -= 1.0
        n_left += 1
        next_value = col[order[pos + 1]]
        if value == next_value:
            continue
        here, value = value, next_value
        n_right = n - n_left
        if n_left < min_size or n_right < min_size:
            continue
        cuts += 1
        # entropy(left, n_left) and entropy(right, n_right), inlined: the
        # same float operations in the same order, without the calls.
        h_left = 0.0
        for c in left:
            if c:
                p = c / n_left
                h_left -= p * log2(p)
        h_right = 0.0
        for c in right:
            if c:
                p = c / n_right
                h_right -= p * log2(p)
        weighted = n_left / n * h_left + n_right / n * h_right
        gain = parent_h - weighted
        if gain > best_gain + _EPS:
            best_gain = gain
            best = (n_left, here, next_value)
    return None if best is None else (best_gain, *best, cuts)


def log2_numeric_split(enc, idx, attr, parent_h, min_leaf):
    """``(gain, threshold)`` of the best cut, the threshold midway between
    the two values it parts."""
    cut = log2_best_cut(enc, idx, attr, parent_h, min_leaf)
    return None if cut is None else (cut[0], cut_between(cut[2], cut[3]))


def log2_choose_split(enc, idx, attrs, parent_h, min_leaf):
    """Split of highest information gain; ties go to the earlier attribute,
    then the smaller threshold (thresholds are scanned ascending)."""
    best = None
    for attr in attrs:
        if enc.specs[attr].is_nominal:
            scan = log2_nominal_split(enc, idx, attr, parent_h, min_leaf)
            result = None if scan is None else (scan[0], None)
        else:
            result = log2_numeric_split(enc, idx, attr, parent_h, min_leaf)
        if result is None or result[0] <= _EPS:
            continue
        gain, threshold = result
        if best is None or gain > best[0] + _EPS:
            best = (gain, attr, threshold)
    return best


def log2_choose_c45_split(enc, idx, attrs, parent_h, min_leaf):
    """J48's split (Weka's ``C45ModelSelection`` over ``C45Split``s).

    - A numeric attribute takes its highest-gain cut among those with
      ``clamp(0.1 * n / classes, min_leaf, 25)`` rows on each side, less
      Quinlan's MDL charge of ``log2(cuts) / n`` for the cuts that met
      that minimum (JAIR 4, 1996); it drops out if no gain is left.
    - A nominal attribute counts if two of its branches hold ``min_leaf``
      rows, whatever its gain.
    - Of these, the attributes whose gain is at least the average less
      1e-3 compete on gain ratio; ties go to the earlier attribute.
    - A numeric threshold is the lower value the cut parts, so it is a
      training value.  Weka takes the largest value of the whole training
      set at or below the midpoint, which may lie outside this node; that
      search is left out.
    """
    n = len(idx)
    min_split = min(max(0.1 * n / enc.n_classes, min_leaf), 25.0)
    candidates = []
    for attr in attrs:
        if enc.specs[attr].is_nominal:
            scan = log2_nominal_split(enc, idx, attr, parent_h, min_leaf)
            if scan is None:
                continue
            gain, split_info = scan
            threshold = None
        else:
            cut = log2_best_cut(enc, idx, attr, parent_h, min_split)
            if cut is None:
                continue
            gain, n_left, threshold, _, cuts = cut
            gain -= math.log2(cuts) / n
            if gain <= _EPS:
                continue
            split_info = entropy((n_left, n - n_left), n)
        candidates.append((gain, gain / split_info, attr, threshold))
    if not candidates:
        return None
    floor = sum(c[0] for c in candidates) / len(candidates) - 1e-3
    best = None
    for gain, ratio, attr, threshold in candidates:
        if gain >= floor and ratio > (0.0 if best is None else best[0]) + _EPS:
            best = (ratio, attr, threshold)
    return best


def log2_grow_tree(enc, idx, min_leaf, choose, used_nominal=frozenset()):
    """Grow a full tree; ``choose(enc, idx, attrs, parent_h, min_leaf)``
    picks each node's ``(score, attr, threshold)``, or None for a leaf."""
    counts = class_counts(enc, idx)
    total = len(idx)
    node_cls = majority(counts)
    parent_h = entropy(counts, total)
    if parent_h <= _EPS or total < 2 * min_leaf:
        return Leaf(tuple(counts), node_cls)
    attrs = [a for a in enc.input_idx if enc.specs[a].is_numeric or a not in used_nominal]
    chosen = choose(enc, idx, attrs, parent_h, min_leaf)
    if chosen is None:
        return Leaf(tuple(counts), node_cls)
    _, attr, threshold = chosen
    if threshold is None:
        slots = enc.n_slots(attr)
        groups = [[] for _ in range(slots)]
        col = enc.cols[attr]
        for i in idx:
            groups[col[i]].append(i)
        children = []
        child_used = used_nominal | {attr}
        for group in groups:
            if group:
                children.append(log2_grow_tree(enc, group, min_leaf, choose, child_used))
            else:
                children.append(Leaf((0.0,) * enc.n_classes, node_cls))
        return Split(attr, None, tuple(children), tuple(counts), node_cls)
    col = enc.cols[attr]
    left_idx = [i for i in idx if col[i] <= threshold]
    right_idx = [i for i in idx if col[i] > threshold]
    left = log2_grow_tree(enc, left_idx, min_leaf, choose, used_nominal)
    right = log2_grow_tree(enc, right_idx, min_leaf, choose, used_nominal)
    return Split(attr, threshold, (left, right), tuple(counts), node_cls)
