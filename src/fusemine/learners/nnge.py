"""Incremental nearest-exemplar learner with generalization.

Instances are absorbed one at a time in dataset order (this learner is
deliberately order-sensitive): each new instance first shrinks or splits
any wrong-class hyperrectangle that covers it, then tries to merge into
its nearest same-class exemplar, falling back to a fresh point exemplar
when the merge would swallow an instance of another class.  An instance
that its nearest same-class exemplar already covers joins it as a member
with no merge test: the exemplar does not grow, so it swallows nothing
new, even where it holds a point that another class shares.

A box is an ``Exemplar`` of bounds and label sets, or, in an all-nominal
set, one ``int`` of label bits with a field of slots per input (missing
included): a row sets one bit per field, a box its members' bits.
"""

from __future__ import annotations

from functools import reduce
from itertools import accumulate
from operator import or_

from .encode import Encoded
from .model import Exemplar, ExemplarSet, _distance_plan, _distance_terms, _planned_sum, _unit_gap


def _box_from_members(cls, members, numeric_attrs, nominal_attrs):
    """An exemplar tight around ``members``, paired with them."""
    exemplar = Exemplar(
        cls=cls,
        lo={a: min(m[a] for m in members) for a in numeric_attrs},
        hi={a: max(m[a] for m in members) for a in numeric_attrs},
        label_sets={a: frozenset(m[a] for m in members) for a in nominal_attrs},
        n_members=len(members),
    )
    return exemplar, members


def _covers(box: Exemplar, vals, numeric_attrs, nominal_attrs) -> bool:
    for a in numeric_attrs:
        v = vals[a]
        if v < box.lo[a] or v > box.hi[a]:
            return False
    for a in nominal_attrs:
        if vals[a] not in box.label_sets[a]:
            return False
    return True


def _meets(other: Exemplar, box: Exemplar, numeric_attrs, nominal_attrs) -> bool:
    """Whether the two boxes overlap on every input; a box is tight around
    its members, so ``box`` can cover one of ``other``'s only then."""
    for a in numeric_attrs:
        if other.hi[a] < box.lo[a] or other.lo[a] > box.hi[a]:
            return False
    for a in nominal_attrs:
        if other.label_sets[a].isdisjoint(box.label_sets[a]):
            return False
    return True


def _swallows(box: Exemplar, boxes, numeric_attrs, nominal_attrs) -> bool:
    """Whether ``box`` covers an instance already seen of another class.

    Every instance seen so far is a member of exactly one of ``boxes``.
    """
    for other, members in boxes:
        if other.cls != box.cls and _meets(other, box, numeric_attrs, nominal_attrs):
            for m in members:
                if _covers(box, m, numeric_attrs, nominal_attrs):
                    return True
    return False


def _exclude_members(members, vals, numeric_attrs, nominal_attrs, spans):
    """Partition members into groups whose tight boxes no longer cover ``vals``.

    Splits along the axis separating the most members (widest margin on
    ties) and recurses on the members that agree with the conflicting
    value there.  Members identical to ``vals`` on every attribute
    cannot be excluded and stay behind as a single overlapping group.
    """
    if not members:
        return []
    best = None  # (n_separated, margin, attr, is_numeric)
    for a in numeric_attrs:
        v = vals[a]
        apart = [m[a] for m in members if m[a] != v]
        if not apart:
            continue
        span = spans[a]
        if span > 0:
            margin = min(abs(mv - v) for mv in apart) / span
        else:
            margin = min(_unit_gap(max(mv, v), min(mv, v), span) for mv in apart)
        key = (len(apart), margin)
        if best is None or key > best[:2]:
            best = (len(apart), margin, a, True)
    for a in nominal_attrs:
        n_sep = sum(1 for m in members if m[a] != vals[a])
        if n_sep == 0:
            continue
        key = (n_sep, 1.0)
        if best is None or key > best[:2]:
            best = (n_sep, 1.0, a, False)
    if best is None:
        # Duplicate instances with a different class: nothing separates.
        return [members]
    _, _, axis, is_numeric = best
    v = vals[axis]
    if is_numeric:
        groups = [[m for m in members if m[axis] < v], [m for m in members if m[axis] > v]]
    else:
        groups = [[m for m in members if m[axis] != v]]
    rest = [m for m in members if m[axis] == v]
    return [g for g in groups if g] + _exclude_members(
        rest, vals, numeric_attrs, nominal_attrs, spans
    )


def _build_by_bits(enc: Encoded, idx, nominal_attrs) -> list[Exemplar]:
    """``build_nnge`` of an all-nominal set through label bits.

    A box covers a row when ``row & box == row``.  A row's mismatch count
    with a box is its ``_planned_sum``, so the nearest same-class box is
    the first with the most matching bits.  A merge swallows where the
    grown box covers a distinct row of another class seen so far; a box
    that covers the row (``box | row == box``) takes it in untested.
    """
    widths = [len(enc.specs[a].labels) + 1 for a in nominal_attrs]
    fields = list(zip(nominal_attrs, accumulate([0] + widths), widths))
    # Each class's boxes as (order key, bits, members): a new box's key is its
    # row's turn and a split's groups extend it, so keys sort boxes into build order.
    boxes: list[list[tuple[tuple, int, list[dict]]]] = [[] for _ in enc.class_labels]
    others = [{} for _ in enc.class_labels]  # per class, the other classes' rows so far
    mask_of = {}  # id(member) -> its row bits; every member lives until the end
    for turn, i in enumerate(idx):
        vals = {a: enc.cols[a][i] for a in nominal_attrs}
        row, cls = sum(1 << (offset + vals[a]) for a, offset, _ in fields), enc.y[i]
        mask_of[id(vals)] = row
        for c, theirs in enumerate(boxes):
            if c == cls:
                continue
            others[c][row] = None
            for j in reversed([j for j, (_, box, _) in enumerate(theirs) if row & box == row]):
                key, _, members = theirs[j]
                groups = _exclude_members(members, vals, (), nominal_attrs, {})
                if len(groups) > 1:
                    theirs[j : j + 1] = [
                        (key + (g,), reduce(or_, [mask_of[id(m)] for m in group]), group)
                        for g, group in enumerate(groups)
                    ]
        mine = boxes[cls]
        hits = [(row & box).bit_count() for _, box, _ in mine]
        if hits:
            j = hits.index(max(hits))
            key, box, members = mine[j]
            grown = box | row
            if grown == box:
                members.append(vals)
                continue
            for r in others[cls]:
                if r & grown == r:
                    break
            else:
                members.append(vals)
                mine[j] = (key, grown, members)
                continue
        mine.append(((turn,), row, [vals]))
    order = sorted((key, c, box, len(m)) for c, mine in enumerate(boxes) for key, box, m in mine)
    return [Exemplar(c, label_sets={
        a: frozenset(s for s in range(width) if box >> (offset + s) & 1)
        for a, offset, width in fields
    }, n_members=n) for _, c, box, n in order]


def build_nnge(enc: Encoded, idx):
    numeric_attrs = [a for a in enc.input_idx if enc.specs[a].is_numeric]
    nominal_attrs = [a for a in enc.input_idx if enc.specs[a].is_nominal]
    if not numeric_attrs:
        return ExemplarSet(_build_by_bits(enc, idx, nominal_attrs))
    ranges = {}
    for a in numeric_attrs:
        values = [enc.cols[a][i] for i in idx]
        ranges[a] = (min(values), max(values)) if values else (0.0, 1.0)
    terms = _distance_terms(enc.specs, enc.input_idx, ranges)
    spans = {a: span for a, span in terms if span is not None}

    boxes: list[tuple[Exemplar, list[dict]]] = []
    for i in idx:
        vals = {a: enc.cols[a][i] for a in enc.input_idx}
        cls = enc.y[i]
        conflicts = [
            j for j, (ex, _) in enumerate(boxes)
            if ex.cls != cls and _covers(ex, vals, numeric_attrs, nominal_attrs)
        ]
        # Last to first, so a split does not shift the positions still to do.
        for j in reversed(conflicts):
            ex, members = boxes[j]
            groups = _exclude_members(members, vals, numeric_attrs, nominal_attrs, spans)
            # A covering box is tight around its members, so a split leaves
            # two groups or more; one group is every member, and would
            # rebuild the box as it is.
            if len(groups) > 1:
                boxes[j : j + 1] = [
                    _box_from_members(ex.cls, g, numeric_attrs, nominal_attrs) for g in groups
                ]
        plan = _distance_plan(terms, vals)
        # (distance, position, sum); a box whose sum reaches the nearest
        # box's sum is at least as far, so it is not summed to the end.
        nearest = None
        for j, (ex, _) in enumerate(boxes):
            if ex.cls != cls:
                continue
            s = _planned_sum(ex, plan, None if nearest is None else nearest[2])
            if s is None:
                continue
            d = s ** 0.5
            if nearest is None or d < nearest[0] - 1e-12:
                nearest = (d, j, s)
        grown = None
        if nearest is not None:
            ex, members = boxes[nearest[1]]
            # A box that covers the row sums to 0.0, but so can one a gap
            # away whose squared term underflows; only a covering box
            # takes the row in untested.
            if nearest[2] == 0.0 and _covers(ex, vals, numeric_attrs, nominal_attrs):
                ex.n_members += 1
                members.append(vals)
                continue
            grown = Exemplar(
                cls,
                {a: min(ex.lo[a], vals[a]) for a in numeric_attrs},
                {a: max(ex.hi[a], vals[a]) for a in numeric_attrs},
                {a: ex.label_sets[a] | {vals[a]} for a in nominal_attrs},
                len(members) + 1,
            )
        if grown is None or _swallows(grown, boxes, numeric_attrs, nominal_attrs):
            point = {a: vals[a] for a in numeric_attrs}
            labels = {a: frozenset((vals[a],)) for a in nominal_attrs}
            boxes.append((Exemplar(cls, point, dict(point), labels), [vals]))
        else:
            boxes[nearest[1]] = (grown, members + [vals])
    return ExemplarSet([ex for ex, _ in boxes], ranges)
