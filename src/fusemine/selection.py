"""Correlation-based feature selection.

Subsets are scored by how strongly their members relate to the class and
how little they relate to each other, both measured with symmetrical
uncertainty over nominal views of the columns.  Numeric columns are given
a supervised entropy-based binning first (ten equal-width bins when no
cut is accepted).
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Sequence

from .errors import (
    EmptySubsetError,
    LengthMismatchError,
    SchemaMismatchError,
    UnknownAttributeError,
)
from .learners.trees import cut_between, entropy
from .preprocess import equal_width_bin
from .tabular import ROLE_CLASS, ROLE_ID, DataTable, left_sum

_MERIT_EPS = 1e-12
STALL_LIMIT = 5
FALLBACK_BINS = 10


@dataclass(frozen=True)
class MeritScore:
    subset: tuple[int, ...]
    merit: float


def _column_entropy(values: Sequence) -> float:
    counts = Counter(values)
    return entropy(sorted(counts.values()), len(values))


def symmetrical_uncertainty(a: Sequence, b: Sequence) -> float:
    """Normalized mutual information of two nominal columns, in [0, 1].

    Missing values count as their own category.  Returns 0 when both
    columns are constant.
    """
    if len(a) != len(b):
        raise LengthMismatchError(f"column lengths differ: {len(a)} vs {len(b)}")
    h_a = _column_entropy(a)
    h_b = _column_entropy(b)
    if h_a + h_b == 0.0:
        return 0.0
    joint = Counter(zip(a, b))
    h_ab = entropy([joint[k] for k in sorted(joint, key=repr)], len(a))
    su = 2.0 * (h_a + h_b - h_ab) / (h_a + h_b)
    return max(0.0, min(1.0, su))


def mdl_discretize(
    values: Sequence[float | None], classes: Sequence[int]
) -> list[int | None]:
    """Supervised entropy-based binning of a numeric column.

    Recursively picks the cut point minimizing class entropy and keeps it
    only while the information gain passes the minimum-description-length
    test.  When no cut is accepted the column falls back to equal-width
    binning (``FALLBACK_BINS`` bins) so weak dependence is still visible
    to the selector.
    """
    if len(values) != len(classes):
        raise LengthMismatchError("values and classes differ in length")
    present = [(v, c) for v, c in zip(values, classes) if v is not None]
    if not present:
        return [None] * len(values)
    present.sort(key=lambda pair: pair[0])
    cuts: list[float] = []
    _mdl_split(present, cuts)
    cuts.sort()
    if not cuts:
        lo, hi = present[0][0], present[-1][0]
        return [None if v is None else equal_width_bin(v, lo, hi, FALLBACK_BINS) for v in values]
    return [None if v is None else bisect_left(cuts, v) for v in values]


def _class_entropy(pairs: Sequence[tuple[float, int]]) -> tuple[float, int]:
    counts = Counter(c for _, c in pairs)
    return entropy(list(counts.values()), len(pairs)), len(counts)


def _mdl_split(pairs: list[tuple[float, int]], cuts: list[float]) -> None:
    n = len(pairs)
    if n < 4:
        return
    parent_h, parent_k = _class_entropy(pairs)
    if parent_h == 0.0:
        return
    best = None
    left_counts: Counter = Counter()
    total_counts = Counter(c for _, c in pairs)
    for i in range(n - 1):
        left_counts[pairs[i][1]] += 1
        if pairs[i][0] == pairs[i + 1][0]:
            continue
        n_left = i + 1
        n_right = n - n_left
        right_counts = total_counts - left_counts
        h_left = entropy(list(left_counts.values()), n_left)
        h_right = entropy(list(right_counts.values()), n_right)
        weighted = (n_left * h_left + n_right * h_right) / n
        if best is None or weighted < best[0] - 1e-12:
            cut = cut_between(pairs[i][0], pairs[i + 1][0])
            best = (weighted, cut, n_left, h_left, len(left_counts), h_right, len(right_counts))
    if best is None:
        return
    weighted, cut, n_left, h_left, k_left, h_right, k_right = best
    gain = parent_h - weighted
    delta = math.log2(3 ** parent_k - 2) - (
        parent_k * parent_h - k_left * h_left - k_right * h_right
    )
    threshold = (math.log2(n - 1) + delta) / n
    if gain <= threshold:
        return
    cuts.append(cut)
    _mdl_split(pairs[:n_left], cuts)
    _mdl_split(pairs[n_left:], cuts)


class SuTable:
    """Cached symmetrical-uncertainty matrix over a table's inputs."""

    def __init__(self, dataset: DataTable):
        class_idx = dataset.class_index
        if class_idx is None:
            raise SchemaMismatchError("dataset needs a class attribute")
        self.dataset = dataset
        self.input_indices = list(dataset.input_indices)
        self.names = [dataset.specs[i].name for i in self.input_indices]
        y = [row[class_idx] for row in dataset.rows]
        self._views = []
        for i in self.input_indices:
            column = [row[i] for row in dataset.rows]
            if dataset.specs[i].is_numeric:
                column = mdl_discretize(column, y)
            self._views.append(column)
        self._y = y
        self._cf: dict[int, float] = {}
        self._ff: dict[tuple[int, int], float] = {}

    @property
    def n_inputs(self) -> int:
        return len(self.input_indices)

    def su_with_class(self, i: int) -> float:
        if i not in self._cf:
            self._cf[i] = symmetrical_uncertainty(self._views[i], self._y)
        return self._cf[i]

    def su_between(self, i: int, j: int) -> float:
        key = (i, j) if i < j else (j, i)
        if key not in self._ff:
            self._ff[key] = symmetrical_uncertainty(self._views[key[0]], self._views[key[1]])
        return self._ff[key]

    def merit(self, subset: Sequence[int]) -> float:
        subset = sorted(set(subset))
        if not subset:
            return 0.0
        k = len(subset)
        r_cf = left_sum(self.su_with_class(i) for i in subset) / k
        if k == 1:
            r_ff = 0.0
        else:
            pair_sum = 0.0
            for a in range(k):
                for b in range(a + 1, k):
                    pair_sum += self.su_between(subset[a], subset[b])
            r_ff = pair_sum / (k * (k - 1) / 2)
        return (k * r_cf) / math.sqrt(k + k * (k - 1) * r_ff)


def cfs_merit(subset: Sequence[int], dataset: DataTable | SuTable) -> MeritScore:
    """Merit of an input-attribute subset (indices into the input list)."""
    table = dataset if isinstance(dataset, SuTable) else SuTable(dataset)
    subset = tuple(sorted(set(subset)))
    if not subset:
        raise EmptySubsetError("merit of the empty subset is undefined (taken as 0)")
    for i in subset:
        if not 0 <= i < table.n_inputs:
            raise SchemaMismatchError(f"input index {i} out of range")
    return MeritScore(subset=subset, merit=table.merit(subset))


def select_best_attributes(dataset: DataTable | SuTable) -> list[str]:
    """Forward best-first subset search maximizing the merit score.

    Starts from the empty set, expands the most promising open subset by
    single-attribute additions, and stops after ``STALL_LIMIT``
    consecutive expansions that fail to improve the best merit seen.
    Returns names in the original attribute order.
    """
    table = dataset if isinstance(dataset, SuTable) else SuTable(dataset)
    n = table.n_inputs
    if n == 0:
        return []
    best_subset: frozenset[int] = frozenset()
    best_merit = 0.0
    counter = 0
    heap: list[tuple[float, int, frozenset[int]]] = [(0.0, counter, best_subset)]
    seen = {best_subset}
    stall = 0
    while heap and stall < STALL_LIMIT:
        neg_merit, _, node = heappop(heap)
        improved = False
        for attr in range(n):
            if attr in node:
                continue
            child = node | {attr}
            if child in seen:
                continue
            seen.add(child)
            merit = table.merit(child)
            if merit > best_merit + _MERIT_EPS:
                best_merit = merit
                best_subset = child
                improved = True
            counter += 1
            heappush(heap, (-merit, counter, child))
        if improved:
            stall = 0
        else:
            stall += 1
    ordered = sorted(best_subset)
    return [table.names[i] for i in ordered]


def reduce_to(dataset: DataTable, names: Sequence[str]) -> DataTable:
    """Project onto the named inputs, keeping id and class columns."""
    found = {spec.name for spec in dataset.specs}
    missing = [n for n in names if n not in found]
    if missing:
        raise UnknownAttributeError(f"no attribute named {missing!r}")
    wanted = set(names)
    keep = [
        spec.name
        for spec in dataset.specs
        if spec.role in (ROLE_ID, ROLE_CLASS) or spec.name in wanted
    ]
    return dataset.project(keep)
