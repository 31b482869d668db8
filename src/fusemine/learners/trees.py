"""Decision-tree induction: J48-style trees (MDL-corrected numeric cuts,
gain ratio) with pessimistic pruning, information-gain trees with
reduced-error pruning, and per-node random attribute subset trees.

Split scoring is order-insensitive (counts only), so permuting training
rows never changes the resulting model; internal holdouts shuffle a
canonically sorted index list with a seeded generator for the same
reason.

The split search counts classes in ints and reads each entropy term
``(c / m) * log2(c / m)`` of ``c`` rows among ``m`` from one term table,
row ``m`` and entry ``c``, filled by ``_term`` as rows are first needed;
entry 0 is ``0.0``, so a zero count adds nothing.  The table is the
package's one class entropy (``class_entropy`` reads one row of it), and
``cut_scan`` is its one information-gain cut scan, which CFS's MDL
discretizer in ``selection`` shares with the trees.  The table stops at
``_CAP`` rows, and a larger side computes its terms by ``_term`` as it
reads them; its rows up to ``_LIST_ROWS`` are lists, the larger ones
arrays of doubles.
"""

from __future__ import annotations

import math
import random
import threading
from array import array
from functools import lru_cache
from statistics import NormalDist

from ..tabular import left_sum
from .encode import Encoded
from .model import Leaf, Split, child_index, majority

_EPS = 1e-12


def class_counts(enc: Encoded, idx) -> list[float]:
    counts = [0.0] * enc.n_classes
    y = enc.y
    for i in idx:
        counts[y[i]] += 1.0
    return counts


def count_classes(classes, n_classes: int) -> list[int]:
    """Int count of each class index in ``classes``."""
    counts = [0] * n_classes
    for c in classes:
        counts[c] += 1
    return counts


def _term(c: int, m: int) -> float:
    """``p * log2(p)`` for ``p = c / m``; 0.0 for ``c = 0``."""
    if not c:
        return 0.0
    p = c / m
    return p * math.log2(p)


#: The largest side whose terms the table keeps; it covers a 10-fold
#: training part of the paper-sized 570-student cohort, and bounds the
#: table at about 4.3 MB.
_CAP = 1024
#: Rows up to this side are lists, which hand out the floats they hold;
#: an ``array`` row takes 8 bytes an entry, a quarter of a list's, but
#: makes a new float on every read.  The list rows take about 70 KB.
_LIST_ROWS = 64
#: The term table: ``_ROWS[m][c] == _term(c, m)`` for ``m <= _CAP``.
_ROWS: list = []
#: Held while the table grows, so that two threads cannot both append the
#: row of one side size.
_GROWING = threading.Lock()


class _ComputedRow:
    """Row ``m`` of the term table past its cap: each entry computed by
    ``_term`` as it is read."""

    def __init__(self, m: int):
        self.m = m

    def __getitem__(self, c: int) -> float:
        return _term(c, self.m)


def _term_rows(n: int):
    """Term rows indexed by every side size 0..``n``: the table, grown to
    row ``n`` or to the cap, then computed rows."""
    if n < len(_ROWS):
        return _ROWS
    with _GROWING:
        while len(_ROWS) <= min(n, _CAP):
            m = len(_ROWS)
            row = [_term(c, m) for c in range(m + 1)]
            _ROWS.append(row if m <= _LIST_ROWS else array("d", row))
    if n <= _CAP:
        return _ROWS
    return _ROWS + [_ComputedRow(m) for m in range(_CAP + 1, n + 1)]


def class_entropy(counts, n: int) -> float:
    """Entropy in bits of ``n`` rows spread over int ``counts``: the terms
    of the table's row ``n``, subtracted in the order of ``counts``."""
    row = _ComputedRow(n) if n > _CAP else _term_rows(n)[n]
    h = 0.0
    for c in counts:
        h -= row[c]
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
    counts = [[0] * enc.n_classes for _ in range(slots)]
    for i in idx:
        counts[col[i]][y[i]] += 1
    totals = [0] * slots
    populated = 0
    for v, branch in enumerate(counts):
        for c in branch:
            totals[v] += c
        if totals[v] >= min_leaf:
            populated += 1
    if populated < 2:
        return None
    n = len(idx)
    rows = _term_rows(n)
    whole = rows[n]
    weighted = 0.0
    split_info = 0.0
    for v in range(slots):
        t = totals[v]
        if t:
            row = rows[t]
            h = 0.0
            for c in counts[v]:
                h -= row[c]
            weighted += t / n * h
            split_info -= whole[t]
    return parent_h - weighted, split_info


def _best_cut(enc, idx, attr, parent_h, min_size):
    """``cut_scan`` of a numeric attribute over the rows ``idx``."""
    col = enc.cols[attr]
    y = enc.y
    order = sorted(idx, key=col.__getitem__)
    return cut_scan([col[i] for i in order], [y[i] for i in order], enc.n_classes,
                    parent_h, min_size)


def cut_scan(values, classes, n_classes, parent_h, min_size):
    """Binary cut of ascending ``values`` with the highest information gain
    among the cuts that leave at least ``min_size`` rows on each side;
    ``classes`` holds each row's class index and ``parent_h`` their
    entropy.

    Returns ``(gain, n_left, lo, hi, cuts)``: the cut parts the
    neighbouring values ``lo < hi``, ``n_left`` rows go to the ``lo``
    side, and ``cuts`` counts every cut that met the minimum.  Returns
    None when no such cut gains; ties go to the smaller threshold.

    Each side's entropy is ``class_entropy`` of its counts, inlined.
    """
    n = len(values)
    if n < 2 * min_size:
        return None
    left = [0] * n_classes
    right = count_classes(classes, n_classes)
    rows = _term_rows(n)
    best = None
    best_gain = 0.0
    bar = best_gain + _EPS
    cuts = 0
    n_left = 0
    value = values[0]
    for cls, next_value in zip(classes, values[1:]):
        left[cls] += 1
        right[cls] -= 1
        n_left += 1
        if value == next_value:
            continue
        here, value = value, next_value
        n_right = n - n_left
        if n_left < min_size or n_right < min_size:
            continue
        cuts += 1
        row = rows[n_left]
        h_left = 0.0
        for c in left:
            h_left -= row[c]
        row = rows[n_right]
        h_right = 0.0
        for c in right:
            h_right -= row[c]
        gain = parent_h - (n_left / n * h_left + n_right / n * h_right)
        if gain > bar:
            best_gain = gain
            bar = gain + _EPS
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
            split_info = class_entropy((n_left, n - n_left), n)
        candidates.append((gain, gain / split_info, attr, threshold))
    if not candidates:
        return None
    floor = left_sum(c[0] for c in candidates) / len(candidates) - 1e-3
    best = None
    for gain, ratio, attr, threshold in candidates:
        if gain >= floor and ratio > (0.0 if best is None else best[0]) + _EPS:
            best = (ratio, attr, threshold)
    return best


def grow_tree(enc, idx, min_leaf, choose, used_nominal=frozenset()):
    """Grow a full tree; ``choose(enc, idx, attrs, parent_h, min_leaf)``
    picks each node's ``(score, attr, threshold)``, or None for a leaf."""
    counts = count_classes(map(enc.y.__getitem__, idx), enc.n_classes)
    total = len(idx)
    node_cls = majority(counts)
    parent_h = class_entropy(counts, total)
    counts = tuple(map(float, counts))
    if parent_h <= _EPS or total < 2 * min_leaf:
        return Leaf(counts, node_cls)
    attrs = [a for a in enc.input_idx if enc.specs[a].is_numeric or a not in used_nominal]
    chosen = choose(enc, idx, attrs, parent_h, min_leaf)
    if chosen is None:
        return Leaf(counts, node_cls)
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
        return Split(attr, None, tuple(children), counts, node_cls)
    col = enc.cols[attr]
    left_idx, right_idx = [], []
    for i in idx:
        (left_idx if col[i] <= threshold else right_idx).append(i)
    left = grow_tree(enc, left_idx, min_leaf, choose, used_nominal)
    right = grow_tree(enc, right_idx, min_leaf, choose, used_nominal)
    return Split(attr, threshold, (left, right), counts, node_cls)


# --- error-based (pessimistic) pruning -------------------------------------


@lru_cache(maxsize=4)
def _z(cf: float) -> float:
    """The normal deviate of a pruning confidence, found once per value."""
    return NormalDist().inv_cdf(1.0 - cf)


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
    z = _z(cf)
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
    """The pruned J48 tree of the distinct rows ``idx``.  The tree of all
    of ``enc``'s rows is grown once and kept on ``enc``; split scoring
    reads counts only, so the order of ``idx`` does not change it."""
    whole = len(idx) == enc.n_rows
    key = (confidence, min_leaf)
    if whole and key in enc.c45_trees:
        return enc.c45_trees[key]
    tree = grow_tree(enc, list(idx), min_leaf, choose_c45_split)
    pruned, _ = ebp_prune(tree, confidence)
    if whole:
        enc.c45_trees[key] = pruned
    return pruned


def stratified_deal(groups, seed: int, folds: int):
    """Grow/prune partition of per-class member lists in canonical order.

    One generator seeded by ``seed`` shuffles each group in turn, and
    every ``folds``-th member of a shuffled group goes to the prune part.
    Only a list's length steers its shuffle, so members may be row indices
    or row bits, and an empty group draws nothing.  When nothing is left
    to grow on, the prune part grows.
    """
    rng = random.Random(seed)
    grow, prune = [], []
    for members in groups:
        rng.shuffle(members)
        prune += members[folds - 1::folds]
        del members[folds - 1::folds]
        grow += members
    if not grow:
        grow, prune = prune, []
    return grow, prune


def holdout_split(enc: Encoded, idx, seed: int, folds: int):
    """Stratified grow/prune partition over a canonicalized index list."""
    groups: list[list[int]] = [[] for _ in range(enc.n_classes)]
    for i in enc.canonical_order(list(idx)):
        groups[enc.y[i]].append(i)
    return stratified_deal(groups, seed, folds)


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
