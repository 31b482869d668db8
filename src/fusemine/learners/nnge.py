"""Incremental nearest-exemplar learner with generalization.

Instances are absorbed one at a time in dataset order (this learner is
deliberately order-sensitive): each new instance first shrinks or splits
any wrong-class hyperrectangle that covers it, then tries to merge into
its nearest same-class exemplar, falling back to a fresh point exemplar
when the merge would swallow an instance of another class.
"""

from __future__ import annotations

from dataclasses import dataclass

from .encode import Encoded
from .model import Exemplar, ExemplarSet, _distance_plan, _planned_distance


@dataclass
class _Box:
    """A hyperrectangle with the fields of an ``Exemplar``, so prediction's
    distance scores it, tight around its members."""

    cls: int
    lo: dict[int, float]
    hi: dict[int, float]
    label_sets: dict[int, set[int]]
    members: list[dict]


def _box_from_members(cls, members, numeric_attrs, nominal_attrs) -> _Box:
    lo = {a: min(m[a] for m in members) for a in numeric_attrs}
    hi = {a: max(m[a] for m in members) for a in numeric_attrs}
    label_sets = {a: {m[a] for m in members} for a in nominal_attrs}
    return _Box(cls=cls, lo=lo, hi=hi, label_sets=label_sets, members=list(members))


def _covers(box: _Box, vals, numeric_attrs, nominal_attrs) -> bool:
    for a in numeric_attrs:
        v = vals[a]
        if v < box.lo[a] or v > box.hi[a]:
            return False
    for a in nominal_attrs:
        if vals[a] not in box.label_sets[a]:
            return False
    return True


def _swallows(box: _Box, seen_by_class, numeric_attrs, nominal_attrs) -> bool:
    """Whether ``box`` covers an instance already seen of another class."""
    for other_cls, others in seen_by_class.items():
        if other_cls != box.cls:
            for ovals in others:
                if _covers(box, ovals, numeric_attrs, nominal_attrs):
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
        gap = min(abs(mv - v) for mv in apart)
        margin = gap / spans[a] if spans[a] > 0 else 1.0
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


def build_nnge(enc: Encoded, idx):
    numeric_attrs = [a for a in enc.input_idx if enc.specs[a].is_numeric]
    nominal_attrs = [a for a in enc.input_idx if enc.specs[a].is_nominal]
    ranges = {}
    spans = {}
    for a in numeric_attrs:
        values = [enc.cols[a][i] for i in idx]
        lo, hi = (min(values), max(values)) if values else (0.0, 1.0)
        ranges[a] = (lo, hi)
        spans[a] = hi - lo

    boxes: list[_Box] = []
    seen_by_class: dict[int, list[dict]] = {}
    for i in idx:
        vals = {a: enc.cols[a][i] for a in enc.input_idx}
        cls = enc.y[i]
        conflicts = [
            j for j, b in enumerate(boxes)
            if b.cls != cls and _covers(b, vals, numeric_attrs, nominal_attrs)
        ]
        # Last to first, so a split does not shift the positions still to do.
        for j in reversed(conflicts):
            box = boxes[j]
            groups = _exclude_members(box.members, vals, numeric_attrs, nominal_attrs, spans)
            # A covering box is tight around its members, so a split leaves
            # two groups or more; one group is every member, and would
            # rebuild the box as it is.
            if len(groups) > 1:
                boxes[j : j + 1] = [
                    _box_from_members(box.cls, g, numeric_attrs, nominal_attrs) for g in groups
                ]
        plan = _distance_plan(enc.specs, enc.input_idx, ranges, vals)
        nearest = None
        for j, box in enumerate(boxes):
            if box.cls != cls:
                continue
            d = _planned_distance(box, plan)
            if nearest is None or d < nearest[0] - 1e-12:
                nearest = (d, j)
        grown = None
        if nearest is not None:
            box = boxes[nearest[1]]
            grown = _Box(
                cls,
                {a: min(box.lo[a], vals[a]) for a in numeric_attrs},
                {a: max(box.hi[a], vals[a]) for a in numeric_attrs},
                {a: box.label_sets[a] | {vals[a]} for a in nominal_attrs},
                box.members + [vals],
            )
        if grown is None or _swallows(grown, seen_by_class, numeric_attrs, nominal_attrs):
            boxes.append(_box_from_members(cls, [vals], numeric_attrs, nominal_attrs))
        else:
            boxes[nearest[1]] = grown
        seen_by_class.setdefault(cls, []).append(vals)

    exemplars = [
        Exemplar(
            cls=b.cls,
            lo=dict(b.lo),
            hi=dict(b.hi),
            label_sets={a: frozenset(v) for a, v in b.label_sets.items()},
            n_members=len(b.members),
        )
        for b in boxes
    ]
    return ExemplarSet(exemplars=exemplars, ranges=ranges)
