"""Decision-tree induction: J48-style trees (MDL-corrected numeric cuts,
gain ratio) with pessimistic pruning, information-gain trees with
reduced-error pruning, and per-node random attribute subset trees.

Split scoring is order-insensitive (counts only), so permuting training
rows never changes the resulting model; internal holdouts shuffle a
canonically sorted index list with a seeded generator for the same
reason.
"""

from __future__ import annotations

import math
import random
from statistics import NormalDist

from .encode import Encoded
from .model import Leaf, Split, child_index, majority

_EPS = 1e-12


def class_counts(enc: Encoded, idx) -> list[float]:
    counts = [0.0] * enc.n_classes
    y = enc.y
    for i in idx:
        counts[y[i]] += 1.0
    return counts


def entropy(counts, total) -> float:
    if total <= 0:
        return 0.0
    h = 0.0
    for c in counts:
        if c:
            p = c / total
            h -= p * math.log2(p)
    return h


def cut_between(lo: float, hi: float) -> float:
    """Threshold between two neighbouring column values: their midpoint,
    or ``lo`` where the midpoint rounds onto ``hi`` or overflows, so that
    ``<= cut`` always parts ``lo`` from ``hi``."""
    mid = (lo + hi) / 2.0
    return mid if lo <= mid < hi else lo


def _nominal_split(enc, idx, attr, parent_h, min_leaf):
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


def _best_cut(enc, idx, attr, parent_h, min_size):
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


def _numeric_split(enc, idx, attr, parent_h, min_leaf):
    """``(gain, threshold)`` of the best cut, the threshold midway between
    the two values it parts."""
    cut = _best_cut(enc, idx, attr, parent_h, min_leaf)
    return None if cut is None else (cut[0], cut_between(cut[2], cut[3]))


def choose_split(enc, idx, attrs, parent_h, min_leaf):
    """Split of highest information gain; ties go to the earlier attribute,
    then the smaller threshold (thresholds are scanned ascending)."""
    best = None
    for attr in attrs:
        if enc.specs[attr].is_nominal:
            scan = _nominal_split(enc, idx, attr, parent_h, min_leaf)
            result = None if scan is None else (scan[0], None)
        else:
            result = _numeric_split(enc, idx, attr, parent_h, min_leaf)
        if result is None or result[0] <= _EPS:
            continue
        gain, threshold = result
        if best is None or gain > best[0] + _EPS:
            best = (gain, attr, threshold)
    return best


def choose_c45_split(enc, idx, attrs, parent_h, min_leaf):
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
            scan = _nominal_split(enc, idx, attr, parent_h, min_leaf)
            if scan is None:
                continue
            gain, split_info = scan
            threshold = None
        else:
            cut = _best_cut(enc, idx, attr, parent_h, min_split)
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


def grow_tree(enc, idx, min_leaf, choose, used_nominal=frozenset()):
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
                children.append(grow_tree(enc, group, min_leaf, choose, child_used))
            else:
                children.append(Leaf((0.0,) * enc.n_classes, node_cls))
        return Split(attr, None, tuple(children), tuple(counts), node_cls)
    col = enc.cols[attr]
    left_idx = [i for i in idx if col[i] <= threshold]
    right_idx = [i for i in idx if col[i] > threshold]
    left = grow_tree(enc, left_idx, min_leaf, choose, used_nominal)
    right = grow_tree(enc, right_idx, min_leaf, choose, used_nominal)
    return Split(attr, threshold, (left, right), tuple(counts), node_cls)


# --- error-based (pessimistic) pruning -------------------------------------


def add_errs(n: float, e: float, cf: float) -> float:
    """Pessimistic extra errors for ``e`` observed errors in ``n`` cases."""
    if n == 0:
        return 0.0
    if e < 1:
        base = n * (1.0 - cf ** (1.0 / n))
        if e == 0:
            return base
        return base + e * (add_errs(n, 1.0, cf) - base)
    if e + 0.5 >= n:
        return max(n - e, 0.0)
    z = NormalDist().inv_cdf(1.0 - cf)
    f = (e + 0.5) / n
    r = (
        f
        + z * z / (2.0 * n)
        + z * math.sqrt(f / n - f * f / n + z * z / (4.0 * n * n))
    ) / (1.0 + z * z / n)
    return r * n - e


def _pessimistic(counts, cf) -> float:
    n = sum(counts)
    e = n - max(counts) if counts else 0.0
    return e + add_errs(n, e, cf)


def ebp_prune(node, cf: float):
    """Bottom-up subtree replacement under the pessimistic error bound.

    Returns ``(node, estimated_errors)``; a subtree collapses to a leaf
    whenever the leaf's bound does not exceed the subtree's.
    """
    if isinstance(node, Leaf):
        return node, _pessimistic(node.counts, cf)
    pruned_children = []
    subtree_err = 0.0
    for child in node.children:
        new_child, err = ebp_prune(child, cf)
        pruned_children.append(new_child)
        subtree_err += err
    leaf_err = _pessimistic(node.counts, cf)
    if leaf_err <= subtree_err + 1e-9:
        return Leaf(node.counts, node.cls), leaf_err
    return (
        Split(node.attr, node.threshold, tuple(pruned_children), node.counts, node.cls),
        subtree_err,
    )


# --- reduced-error pruning --------------------------------------------------


def rep_prune(node, enc, prune_idx):
    """Collapse subtrees that do not beat a leaf on the holdout set."""
    y = enc.y
    leaf_errors = sum(1 for i in prune_idx if y[i] != node.cls)
    if isinstance(node, Leaf):
        return node, leaf_errors
    col = enc.cols[node.attr]
    groups: list[list[int]] = [[] for _ in node.children]
    stuck = []
    for i in prune_idx:
        branch = child_index(node, col[i])
        (stuck if branch is None else groups[branch]).append(i)
    children = []
    subtree_errors = sum(1 for i in stuck if y[i] != node.cls)
    for child, group in zip(node.children, groups):
        new_child, errs = rep_prune(child, enc, group)
        children.append(new_child)
        subtree_errors += errs
    if leaf_errors <= subtree_errors:
        return Leaf(node.counts, node.cls), leaf_errors
    return (
        Split(node.attr, node.threshold, tuple(children), node.counts, node.cls),
        subtree_errors,
    )


# --- the three tree learners ------------------------------------------------


def build_c45(enc: Encoded, idx, confidence: float, min_leaf: int):
    tree = grow_tree(enc, list(idx), min_leaf, choose_c45_split)
    pruned, _ = ebp_prune(tree, confidence)
    return pruned


def holdout_split(enc: Encoded, idx, seed: int, folds: int):
    """Stratified grow/prune partition over a canonicalized index list."""
    rng = random.Random(seed)
    ordered = enc.canonical_order(list(idx))
    by_class: dict[int, list[int]] = {}
    for i in ordered:
        by_class.setdefault(enc.y[i], []).append(i)
    grow, prune = [], []
    for cls in sorted(by_class):
        members = by_class[cls]
        rng.shuffle(members)
        for pos, i in enumerate(members):
            (prune if pos % folds == folds - 1 else grow).append(i)
    if not grow:
        grow, prune = prune, []
    return grow, prune


def build_reptree(enc: Encoded, idx, min_leaf: int, seed: int, holdout_folds: int):
    # Rows of one class grow a lone leaf, which no holdout could prune.
    if len({enc.y[i] for i in idx}) <= 1:
        return grow_tree(enc, list(idx), min_leaf, choose_split)
    grow, prune = holdout_split(enc, idx, seed, holdout_folds)
    tree = grow_tree(enc, grow, min_leaf, choose_split)
    if prune:
        tree, _ = rep_prune(tree, enc, prune)
    return tree


def build_randomtree(enc: Encoded, idx, min_leaf: int, seed: int):
    rng = random.Random(seed)
    d = max(1, len(enc.input_idx))
    k = max(1, math.ceil(math.log2(d) + 1))

    def choose(enc, idx, attrs, parent_h, min_leaf):
        if len(attrs) > k:
            attrs = sorted(rng.sample(attrs, k))
        return choose_split(enc, idx, attrs, parent_h, min_leaf)

    return grow_tree(enc, list(idx), min_leaf, choose)
