"""Rule-list induction.

Two inducers live here: a sequential-covering learner that grows and
prunes one rule at a time per class (classes visited in ascending
frequency, stopping on a description-length budget), and a repeated
partial-tree learner that extracts the best leaf of a pruned tree as the
next rule.  Both emit an ordered rule list ending in a default rule.
"""

from __future__ import annotations

import math
from functools import cached_property
from operator import itemgetter

from .encode import Encoded
from .model import Rule, RuleList, decode_condition, encoded_paths, majority
from .trees import Leaf, build_c45, class_counts, cut_between, stratified_deal

_EPS = 1e-12

# Encoded conditions are (attr_index, op, value) with nominal values as
# slot integers; they bind to names/labels only when the Model is built.


class _RowSets:
    """Row sets of one encoding as ``int`` bitmasks: bit ``i`` is row ``i``.

    Coverage, filtering and counting become ``&``, ``|``, ``~`` and
    ``int.bit_count`` on masks.  Each condition's mask over all rows, and
    each numeric column's row order, is built once and kept.
    """

    def __init__(self, enc: Encoded):
        self.enc = enc
        self.bits = [1 << i for i in range(enc.n_rows)]
        self.by_class = [0] * enc.n_classes
        for bit, cls in zip(self.bits, enc.y):
            self.by_class[cls] |= bit
        self._conds: dict = {}
        self._rules: dict = {}
        self._sorted: dict = {}
        self.dl_memo: dict = {}

    def of(self, idx) -> int:
        mask = 0
        bits = self.bits
        for i in idx:
            mask |= bits[i]
        return mask

    def rows(self, mask: int) -> list[int]:
        """The rows of ``mask`` in ascending order."""
        return [i for i, bit in enumerate(self.bits) if mask & bit]

    def cond(self, cond) -> int:
        mask = self._conds.get(cond)
        if mask is None:
            attr, op, value = cond
            pairs = zip(self.bits, self.enc.cols[attr])
            if op == "=":
                mask = sum(bit for bit, v in pairs if v == value)
            elif op == "<=":
                mask = sum(bit for bit, v in pairs if v <= value)
            else:
                mask = sum(bit for bit, v in pairs if v > value)
            self._conds[cond] = mask
        return mask

    def rule(self, conds) -> int:
        """The rows that satisfy every condition of ``conds``."""
        mask = self._rules.get(conds)
        if mask is None:
            mask = (1 << len(self.bits)) - 1
            for cond in conds:
                mask &= self.cond(cond)
            self._rules[conds] = mask
        return mask

    @cached_property
    def class_orders(self) -> list[list[int]]:
        """Each class's row bits in canonical order, ties by row number."""
        orders: list[list[int]] = [[] for _ in self.by_class]
        for i in self.enc.canonical_order(range(len(self.bits))):
            orders[self.enc.y[i]].append(self.bits[i])
        return orders

    def sorted_by(self, attr: int) -> list[tuple]:
        """``(value, bit, class)`` of every row by ascending value of a
        numeric column."""
        order = self._sorted.get(attr)
        if order is None:
            order = self._sorted[attr] = sorted(
                zip(self.enc.cols[attr], self.bits, self.enc.y), key=itemgetter(0)
            )
        return order


def finalize_rule_list(rs: _RowSets, idx, raw_rules, default_cls: int) -> RuleList:
    """Bind encoded rules to names and recount coverage in list order."""
    enc = rs.enc
    left = rs.of(idx)
    buckets = []
    for conds, _cls in raw_rules:
        covered = left & rs.rule(conds)
        left &= ~covered
        buckets.append(covered)
    buckets.append(left)
    counts_of = [
        [float((rows & members).bit_count()) for members in rs.by_class] for rows in buckets
    ]
    rules = []
    for (conds, cls), counts in zip(raw_rules, counts_of):
        if sum(counts) == 0.0:
            counts = [1.0 if c == cls else 0.0 for c in range(enc.n_classes)]
        conditions = tuple(decode_condition(enc.specs, c) for c in conds)
        rules.append(Rule(conditions, enc.class_labels[cls], tuple(counts)))
    default_counts = counts_of[-1]
    if sum(default_counts) == 0.0:
        default_counts = [1.0 if c == default_cls else 0.0 for c in range(enc.n_classes)]
    rules.append(Rule((), enc.class_labels[default_cls], tuple(default_counts)))
    return RuleList(tuple(rules))


# --- repeated partial-tree extraction ---------------------------------------


def build_part_rules(enc: Encoded, idx, confidence: float, min_leaf: int):
    """Repeatedly build a pruned tree and export its best-covering leaf.

    Covered instances are removed and the loop continues until the
    remainder is single-class or unsplittable; what is left feeds the
    default rule.
    """
    rs = _RowSets(enc)
    remaining = list(idx)
    raw_rules: list[tuple[tuple, int]] = []
    while remaining:
        counts = class_counts(enc, remaining)
        if sum(1 for c in counts if c > 0) <= 1:
            break
        tree = build_c45(enc, remaining, confidence, min_leaf)
        if isinstance(tree, Leaf):
            break
        best = None
        for conds, leaf in encoded_paths(tree):
            coverage = sum(leaf.counts)
            if best is None or coverage > best[0] + _EPS:
                best = (coverage, conds, leaf)
        _, conds, leaf = best
        covered = rs.of(remaining) & rs.rule(conds)
        if not covered:
            break
        raw_rules.append((conds, leaf.cls))
        remaining = [i for i in remaining if not covered & rs.bits[i]]
    if remaining:
        default_cls = majority(class_counts(enc, remaining))
    else:
        default_cls = majority(class_counts(enc, idx))
    return finalize_rule_list(rs, idx, raw_rules, default_cls)


# --- sequential covering with grow / prune / description length -------------


def _grow_rule(rs: _RowSets, grow: int, cls, existing=()):
    """Add conditions greedily by FOIL's information gain about the class
    until the rule covers no negatives (or nothing helps).

    A candidate wins with a gain above the best so far plus ``_EPS``.  Its
    gain ``p * (log2(p / (p + n)) - base)`` is at most ``p * -base``, and
    rounding is monotone, so a numeric cut whose bound does not pass is
    not scored.  Along a column's scan the ``">"`` cuts only lose
    positives, so once one's bound fails, every later one's does.  A later
    ``"<="`` cut has between ``p_left`` and ``p0`` positives and at least
    ``n_left`` negatives.  Its gain is convex in its positives, so it is
    at most the larger of the gains at the two ends: the cut just scored,
    which cannot win again, and ``p0`` positives with ``n_left``
    negatives.  When the ``">"`` bound fails and that second gain falls
    short of winning by ``1e-9`` (a margin for ``log2``, which need not
    round monotonically), the scan of that column stops.
    """
    enc = rs.enc
    positives = rs.by_class[cls]
    log2 = math.log2
    conds = list(existing)
    current = grow & rs.rule(tuple(conds))
    while True:
        p0 = (current & positives).bit_count()
        n0 = current.bit_count() - p0
        if p0 == 0 or n0 == 0:
            break
        # FOIL gain of a candidate covering p1 positives and n1 negatives is
        # p1 * (log2(p1 / (p1 + n1)) - base); it is -inf when p1 is 0.
        base = log2(p0 / (p0 + n0))
        bound = -base  # the most one positive can add to a gain
        best = None  # the winning condition so far
        floor = _EPS  # a candidate wins only with a gain above this
        used_nominal = {attr for attr, op, _ in conds if op == "="}
        for attr in enc.input_idx:
            if enc.specs[attr].is_nominal:
                if attr in used_nominal:
                    continue
                for v in range(enc.n_slots(attr)):
                    cond = (attr, "=", v)
                    covered = current & rs.cond(cond)
                    p1 = (covered & positives).bit_count()
                    if not p1:
                        continue
                    n1 = covered.bit_count() - p1
                    gain = p1 * (log2(p1 / (p1 + n1)) - base)
                    if gain > floor:
                        best = cond
                        floor = gain + _EPS
            else:
                # Rows in ascending value; a cut is scored between the last
                # row of a run of equal values and the first row after it.
                p_left = 0
                n_left = 0
                prev = None
                for value, bit, row_cls in rs.sorted_by(attr):
                    if not current & bit:
                        continue
                    if prev is not None and value != prev:
                        if p_left * bound > floor:
                            gain = p_left * (log2(p_left / (p_left + n_left)) - base)
                            if gain > floor:
                                best = (attr, "<=", cut_between(prev, value))
                                floor = gain + _EPS
                        p1 = p0 - p_left
                        if p1 * bound > floor:
                            n1 = n0 - n_left
                            gain = p1 * (log2(p1 / (p1 + n1)) - base)
                            if gain > floor:
                                best = (attr, ">", cut_between(prev, value))
                                floor = gain + _EPS
                        elif p0 * (log2(p0 / (p0 + n_left)) - base) <= floor - 1e-9:
                            break
                    if row_cls == cls:
                        p_left += 1
                    else:
                        n_left += 1
                    prev = value
        if best is None:
            break
        conds.append(best)
        current &= rs.cond(best)
    return tuple(conds)


def _coverage(rs: _RowSets, conds, within: int, cls):
    covered = within & rs.rule(conds)
    p = (covered & rs.by_class[cls]).bit_count()
    return p, covered.bit_count() - p


def _prune_rule(rs: _RowSets, prune: int, cls, conds):
    """Keep the condition prefix maximizing (p - n) / (p + n) on holdout."""
    if not conds or not prune:
        return conds
    positives = rs.by_class[cls]
    best_len = len(conds)
    best_value = None
    covered = prune
    for length, cond in enumerate(conds, 1):
        covered &= rs.cond(cond)
        p = (covered & positives).bit_count()
        n = covered.bit_count() - p
        value = 0.0 if p + n == 0 else (p - n) / (p + n)
        if best_value is None or value > best_value + _EPS:
            best_value = value
            best_len = length
    return conds[:best_len]


def _subset_dl(t: float, k: float, p: float) -> float:
    p = min(max(p, 1e-12), 1.0 - 1e-12)
    dl = 0.0
    if k > 0:
        dl += -k * math.log2(p)
    if t - k > 0:
        dl += -(t - k) * math.log2(1.0 - p)
    return dl


def _theory_dl(n_conds: int, n_possible: int) -> float:
    if n_conds == 0:
        return 0.0
    tdl = math.log2(n_conds)
    if n_conds > 1 and tdl > 0:
        tdl += 2.0 * math.log2(tdl) if tdl > 1 else 0.0
    tdl += _subset_dl(n_possible, n_conds, n_conds / max(n_possible, 1))
    return 0.5 * tdl


def _data_dl(exp_rate, cover, uncover, fp, fn) -> float:
    total_bits = math.log2(cover + uncover + 1.0)
    if cover > uncover:
        exp_err = exp_rate * (fp + fn)
        cover_bits = _subset_dl(cover, fp, exp_err / cover) if cover > 0 else 0.0
        uncover_bits = _subset_dl(uncover, fn, fn / uncover) if uncover > 0 else 0.0
    else:
        exp_err = (1.0 - exp_rate) * (fp + fn)
        cover_bits = _subset_dl(cover, fp, fp / cover) if cover > 0 else 0.0
        uncover_bits = _subset_dl(uncover, fn, exp_err / uncover) if uncover > 0 else 0.0
    return total_bits + cover_bits + uncover_bits


def _count_possible_conditions(enc: Encoded, idx) -> int:
    total = 0
    for attr in enc.input_idx:
        if enc.specs[attr].is_nominal:
            total += enc.n_slots(attr)
        else:
            distinct = len({enc.cols[attr][i] for i in idx})
            total += 2 * max(distinct - 1, 1)
    return max(total, 1)


def _ruleset_dl(rs: _RowSets, rule_conds_list, universe: int, cls, n_possible) -> float:
    """Description length of a class's ruleset over ``universe``.  Its
    data part depends on four counts and each rule's theory part on two,
    so each is computed once per build and kept in ``rs.dl_memo`` under
    those counts."""
    covered = 0
    for conds in rule_conds_list:
        covered |= rs.rule(conds)
    covered &= universe
    positives = rs.by_class[cls]
    n_covered = covered.bit_count()
    fp = (covered & ~positives).bit_count()
    fn = (universe & ~covered & positives).bit_count()
    memo = rs.dl_memo
    key = (n_covered, universe.bit_count() - n_covered, fp, fn)
    dl = memo.get(key)
    if dl is None:
        dl = memo[key] = _data_dl(0.5, *key)
    for conds in rule_conds_list:
        key = (len(conds), n_possible)
        theory = memo.get(key)
        if theory is None:
            theory = memo[key] = _theory_dl(*key)
        dl += theory
    return dl


def _holdout(rs: _RowSets, rows: int, seed: int, folds: int) -> tuple[int, int]:
    """``holdout_split`` of the rows of a mask, as a (grow, prune) mask pair."""
    groups = [[bit for bit in order if rows & bit] for order in rs.class_orders]
    grow, prune = stratified_deal(groups, seed, folds)
    return sum(grow), sum(prune)


def _cover(
    rs: _RowSets, rules, universe: int, cls, seed, first_rule_no, folds, dl_slack, n_possible,
    stop_on_prune_errors,
):
    """Grow/prune covering loop for one class: extend a copy of ``rules``
    until the class's rows of ``universe`` that it leaves uncovered run
    out, a rule prunes to nothing or covers none of them, or the ruleset's
    description length passes its minimum by more than ``dl_slack``.  With
    ``stop_on_prune_errors``, a rule that errs on most of the prune rows it
    covers also ends the loop."""
    rules = list(rules)
    positives = rs.by_class[cls]
    data = universe
    for conds, _ in rules:
        data &= ~rs.rule(conds)
    dl_min = _ruleset_dl(rs, [c for c, _ in rules], universe, cls, n_possible)
    rule_no = first_rule_no
    while data & positives:
        rule_no += 1
        grow, prune = _holdout(rs, data, seed + 7919 * rule_no, folds)
        conds = _prune_rule(rs, prune, cls, _grow_rule(rs, grow, cls))
        if not conds:
            break
        p, _ = _coverage(rs, conds, data, cls)
        if p == 0:
            break
        if stop_on_prune_errors:
            pp, pn = _coverage(rs, conds, prune, cls)
            if pp + pn > 0 and pp < pn:
                break
        dl = _ruleset_dl(rs, [c for c, _ in rules] + [conds], universe, cls, n_possible)
        if dl > dl_min + dl_slack:
            break
        dl_min = min(dl_min, dl)
        rules.append((conds, cls))
        data &= ~rs.rule(conds)
    return rules


def _optimize_class_rules(rs: _RowSets, rules, universe: int, cls, seed, folds, n_possible):
    """One revision pass: try a fresh replacement and a grown revision of
    each rule, keeping whichever variant yields the smallest description
    length for the whole stage ruleset."""
    rules = list(rules)
    for ri in range(len(rules)):
        pool = universe
        for j, (c, _) in enumerate(rules):
            if j != ri:
                pool &= ~rs.rule(c)
        if not pool & rs.by_class[cls]:
            continue
        grow, prune = _holdout(rs, pool, seed + 104729 * (ri + 1), folds)
        replacement = _prune_rule(rs, prune, cls, _grow_rule(rs, grow, cls))
        revision = _prune_rule(
            rs, prune, cls, _grow_rule(rs, grow, cls, existing=rules[ri][0])
        )
        variants = [rules[ri][0], replacement, revision]
        best = None
        for v_idx, conds in enumerate(variants):
            if not conds:
                continue
            candidate = [c for c, _ in rules]
            candidate[ri] = conds
            dl = _ruleset_dl(rs, candidate, universe, cls, n_possible)
            if best is None or dl < best[0] - _EPS:
                best = (dl, v_idx, conds)
        if best is not None:
            rules[ri] = (best[2], cls)
    return rules


def _drop_unpaid(rs: _RowSets, rules, universe: int, cls, n_possible):
    """Backward sweep: drop rules whose removal lowers the description length."""
    rules = list(rules)
    changed = True
    while changed and len(rules) > 1:
        changed = False
        current_dl = _ruleset_dl(rs, [c for c, _ in rules], universe, cls, n_possible)
        for ri in range(len(rules) - 1, -1, -1):
            candidate = [c for j, (c, _) in enumerate(rules) if j != ri]
            if _ruleset_dl(rs, candidate, universe, cls, n_possible) < current_dl - _EPS:
                del rules[ri]
                changed = True
                break
    return rules


def build_ripper_rules(enc: Encoded, idx, seed: int, holdout_folds: int, dl_slack: float):
    """Learn each class's rules in ascending frequency, then make one
    optimization pass over them: revise every rule, then cover what the
    revised rules leave uncovered and drop rules that do not pay for
    themselves.  The most frequent class becomes the default rule."""
    rs = _RowSets(enc)
    counts = class_counts(enc, idx)
    order = sorted(range(enc.n_classes), key=lambda c: (counts[c], c))
    stages = [c for c in order[:-1] if counts[c] > 0]
    default_cls = order[-1]
    remaining = rs.of(idx)
    all_rules: list[tuple] = []
    for stage_no, cls in enumerate(stages):
        stage_seed = seed + 15485863 * (stage_no + 1)
        n_possible = _count_possible_conditions(enc, rs.rows(remaining))
        stage_rules = _cover(
            rs, [], remaining, cls, stage_seed, 0, holdout_folds, dl_slack, n_possible, True
        )
        stage_rules = _optimize_class_rules(
            rs, stage_rules, remaining, cls, stage_seed + 1, holdout_folds, n_possible
        )
        stage_rules = _cover(
            rs, stage_rules, remaining, cls, stage_seed + 2, 100, holdout_folds, dl_slack,
            n_possible, False,
        )
        stage_rules = _drop_unpaid(rs, stage_rules, remaining, cls, n_possible)
        all_rules.extend(stage_rules)
        for conds, _ in stage_rules:
            remaining &= ~rs.rule(conds)
    return finalize_rule_list(rs, idx, all_rules, default_cls)
