"""Incremental nearest-exemplar learner with generalization.

Instances are absorbed one at a time in dataset order (this learner is
deliberately order-sensitive): each new instance first shrinks or splits
any wrong-class hyperrectangle that covers it, then tries to merge into
its nearest same-class exemplar, falling back to a fresh point exemplar
when the merge would swallow an instance of another class.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .encode import Encoded
from .model import Exemplar, ExemplarSet


@dataclass(eq=False)
class _Box:
    """A hyperrectangle; boxes compare by identity, so finding one is cheap."""

    cls: int
    lo: dict[int, float]
    hi: dict[int, float]
    labels: dict[int, set[int]]
    members: list[dict] = field(default_factory=list)


def _box_from_members(cls, members, numeric_attrs, nominal_attrs) -> _Box:
    lo = {a: min(m[a] for m in members) for a in numeric_attrs}
    hi = {a: max(m[a] for m in members) for a in numeric_attrs}
    labels = {a: {m[a] for m in members} for a in nominal_attrs}
    return _Box(cls=cls, lo=lo, hi=hi, labels=labels, members=list(members))


def _covers(box: _Box, vals, numeric_attrs, nominal_attrs) -> bool:
    for a in numeric_attrs:
        v = vals[a]
        if v < box.lo[a] or v > box.hi[a]:
            return False
    for a in nominal_attrs:
        if vals[a] not in box.labels[a]:
            return False
    return True


def _distance(box: _Box, vals, numeric_attrs, nominal_attrs, spans) -> float:
    total = 0.0
    for a in numeric_attrs:
        v = vals[a]
        span = spans[a]
        if v < box.lo[a]:
            d = (box.lo[a] - v) / span if span > 0 else 1.0
        elif v > box.hi[a]:
            d = (v - box.hi[a]) / span if span > 0 else 1.0
        else:
            d = 0.0
        total += d * d
    for a in nominal_attrs:
        if vals[a] not in box.labels[a]:
            total += 1.0
    return math.sqrt(total)


def _exclude_members(cls, members, vals, numeric_attrs, nominal_attrs, spans):
    """Partition members into tight boxes that no longer cover ``vals``.

    Splits along the axis separating the most members (widest margin on
    ties) and recurses on the members that agree with the conflicting
    value there.  Members identical to ``vals`` on every attribute
    cannot be excluded and stay behind as a single overlapping box.
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
        n_sep = sum(1 for m in members if m[a] != v)
        key = (n_sep, margin)
        if best is None or key > best[:2]:
            best = (n_sep, margin, a, True)
    for a in nominal_attrs:
        n_sep = sum(1 for m in members if m[a] != vals[a])
        if n_sep == 0:
            continue
        key = (n_sep, 1.0)
        if best is None or key > best[:2]:
            best = (n_sep, 1.0, a, False)
    if best is None:
        # Duplicate instances with a different class: nothing separates.
        return [_box_from_members(cls, members, numeric_attrs, nominal_attrs)]
    _, _, axis, is_numeric = best
    v = vals[axis]
    parts = []
    if is_numeric:
        left = [m for m in members if m[axis] < v]
        right = [m for m in members if m[axis] > v]
        rest = [m for m in members if m[axis] == v]
        for group in (left, right):
            if group:
                parts.append(_box_from_members(cls, group, numeric_attrs, nominal_attrs))
    else:
        apart = [m for m in members if m[axis] != v]
        rest = [m for m in members if m[axis] == v]
        if apart:
            parts.append(_box_from_members(cls, apart, numeric_attrs, nominal_attrs))
    parts.extend(
        _exclude_members(cls, rest, vals, numeric_attrs, nominal_attrs, spans)
    )
    return parts


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
        if boxes:
            conflicts = [
                b for b in boxes if b.cls != cls and _covers(b, vals, numeric_attrs, nominal_attrs)
            ]
            for box in conflicts:
                pos = boxes.index(box)
                boxes[pos : pos + 1] = _exclude_members(
                    box.cls, box.members, vals, numeric_attrs, nominal_attrs, spans
                )
            nearest = None
            for j, box in enumerate(boxes):
                if box.cls != cls:
                    continue
                d = _distance(box, vals, numeric_attrs, nominal_attrs, spans)
                if nearest is None or d < nearest[0] - 1e-12:
                    nearest = (d, j)
            merged = False
            if nearest is not None:
                box = boxes[nearest[1]]
                ext_lo = {a: min(box.lo[a], vals[a]) for a in numeric_attrs}
                ext_hi = {a: max(box.hi[a], vals[a]) for a in numeric_attrs}
                ext_labels = {a: box.labels[a] | {vals[a]} for a in nominal_attrs}
                probe = _Box(cls, ext_lo, ext_hi, ext_labels)
                conflict = False
                for other_cls, others in seen_by_class.items():
                    if other_cls == cls:
                        continue
                    for ovals in others:
                        if _covers(probe, ovals, numeric_attrs, nominal_attrs):
                            conflict = True
                            break
                    if conflict:
                        break
                if not conflict:
                    box.lo = ext_lo
                    box.hi = ext_hi
                    box.labels = ext_labels
                    box.members.append(vals)
                    merged = True
            if not merged:
                boxes.append(_box_from_members(cls, [vals], numeric_attrs, nominal_attrs))
        else:
            boxes.append(_box_from_members(cls, [vals], numeric_attrs, nominal_attrs))
        seen_by_class.setdefault(cls, []).append(vals)

    exemplars = [
        Exemplar(
            cls=b.cls,
            lo=dict(b.lo),
            hi=dict(b.hi),
            label_sets={a: frozenset(v) for a, v in b.labels.items()},
            n_members=len(b.members),
        )
        for b in boxes
    ]
    return ExemplarSet(exemplars=exemplars, ranges=ranges)
