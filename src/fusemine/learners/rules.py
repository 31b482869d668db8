"""Rule-list induction.

Two inducers live here: a sequential-covering learner that grows and
prunes one rule at a time per class (classes visited in ascending
frequency, stopping on a description-length budget), and a repeated
partial-tree learner that extracts the best leaf of a pruned tree as the
next rule.  Both emit an ordered rule list ending in a default rule.
"""

from __future__ import annotations

import math

from .encode import Encoded
from .model import Condition, Rule, RuleList
from .trees import Leaf, build_c45, class_counts, holdout_split, majority

_EPS = 1e-12

# Encoded conditions are (attr_index, op, value) with nominal values as
# slot integers; they bind to names/labels only when the Model is built.


def _matches(enc: Encoded, conds, i: int) -> bool:
    for attr, op, value in conds:
        v = enc.cols[attr][i]
        if op == "=":
            if v != value:
                return False
        elif op == "<=":
            if not v <= value:
                return False
        else:
            if not v > value:
                return False
    return True


def _filter(enc, conds, idx):
    return [i for i in idx if _matches(enc, conds, i)]


def decode_conditions(enc: Encoded, conds) -> tuple[Condition, ...]:
    out = []
    for attr, op, value in conds:
        spec = enc.specs[attr]
        if op == "=":
            out.append(Condition(spec.name, "=", enc.value_name(attr, value)))
        else:
            out.append(Condition(spec.name, op, float(value)))
    return tuple(out)


def finalize_rule_list(enc: Encoded, idx, raw_rules, default_cls: int) -> RuleList:
    """Bind encoded rules to names and recount coverage in list order."""
    buckets = [[0.0] * enc.n_classes for _ in range(len(raw_rules) + 1)]
    for i in idx:
        for r, (conds, _cls) in enumerate(raw_rules):
            if _matches(enc, conds, i):
                buckets[r][enc.y[i]] += 1.0
                break
        else:
            buckets[-1][enc.y[i]] += 1.0
    rules = []
    for (conds, cls), counts in zip(raw_rules, buckets):
        if sum(counts) == 0.0:
            counts = [1.0 if c == cls else 0.0 for c in range(enc.n_classes)]
        rules.append(
            Rule(decode_conditions(enc, conds), enc.class_labels[cls], tuple(counts))
        )
    default_counts = buckets[-1]
    if sum(default_counts) == 0.0:
        default_counts = [1.0 if c == default_cls else 0.0 for c in range(enc.n_classes)]
    rules.append(Rule((), enc.class_labels[default_cls], tuple(default_counts)))
    return RuleList(tuple(rules))


# --- repeated partial-tree extraction ---------------------------------------


def _tree_paths_encoded(node, prefix, out):
    if isinstance(node, Leaf):
        out.append((tuple(prefix), node))
        return
    if node.threshold is None:
        for value, child in enumerate(node.children):
            _tree_paths_encoded(child, prefix + [(node.attr, "=", value)], out)
    else:
        _tree_paths_encoded(node.children[0], prefix + [(node.attr, "<=", node.threshold)], out)
        _tree_paths_encoded(node.children[1], prefix + [(node.attr, ">", node.threshold)], out)


def build_part_rules(enc: Encoded, idx, confidence: float, min_leaf: int):
    """Repeatedly build a pruned tree and export its best-covering leaf.

    Covered instances are removed and the loop continues until the
    remainder is single-class or unsplittable; what is left feeds the
    default rule.
    """
    remaining = list(idx)
    raw_rules: list[tuple[tuple, int]] = []
    while remaining:
        counts = class_counts(enc, remaining)
        if sum(1 for c in counts if c > 0) <= 1:
            break
        tree = build_c45(enc, remaining, confidence, min_leaf)
        if isinstance(tree, Leaf):
            break
        paths: list = []
        _tree_paths_encoded(tree, [], paths)
        best = None
        for conds, leaf in paths:
            coverage = sum(leaf.counts)
            if best is None or coverage > best[0] + _EPS:
                best = (coverage, conds, leaf)
        _, conds, leaf = best
        covered = set(_filter(enc, conds, remaining))
        if not covered:
            break
        raw_rules.append((conds, leaf.cls))
        remaining = [i for i in remaining if i not in covered]
    if remaining:
        default_cls = majority(class_counts(enc, remaining))
    else:
        default_cls = majority(class_counts(enc, idx))
    return finalize_rule_list(enc, idx, raw_rules, default_cls)


# --- sequential covering with grow / prune / description length -------------


def _foil_gain(p1, n1, p0, n0) -> float:
    if p1 <= 0:
        return -math.inf
    return p1 * (math.log2(p1 / (p1 + n1)) - math.log2(p0 / (p0 + n0)))


def _grow_rule(enc: Encoded, grow_idx, cls, existing=()):
    """Add conditions greedily by information gained about the class
    until the rule covers no negatives (or nothing helps)."""
    conds = list(existing)
    current = _filter(enc, conds, grow_idx)
    y = enc.y
    while True:
        p0 = sum(1 for i in current if y[i] == cls)
        n0 = len(current) - p0
        if p0 == 0 or n0 == 0:
            break
        best = None  # (gain, cond)
        used_nominal = {attr for attr, op, _ in conds if op == "="}
        for attr in enc.input_idx:
            col = enc.cols[attr]
            if enc.specs[attr].is_nominal:
                if attr in used_nominal:
                    continue
                slots = enc.n_slots(attr)
                pos = [0] * slots
                neg = [0] * slots
                for i in current:
                    if y[i] == cls:
                        pos[col[i]] += 1
                    else:
                        neg[col[i]] += 1
                for v in range(slots):
                    gain = _foil_gain(pos[v], neg[v], p0, n0)
                    if gain > _EPS and (best is None or gain > best[0] + _EPS):
                        best = (gain, (attr, "=", v))
            else:
                order = sorted(current, key=lambda i: col[i])
                n = len(order)
                p_left = 0
                n_left = 0
                for pos_i in range(n - 1):
                    i = order[pos_i]
                    if y[i] == cls:
                        p_left += 1
                    else:
                        n_left += 1
                    if col[i] == col[order[pos_i + 1]]:
                        continue
                    threshold = (col[i] + col[order[pos_i + 1]]) / 2.0
                    for op, p1, n1 in (
                        ("<=", p_left, n_left),
                        (">", p0 - p_left, n0 - n_left),
                    ):
                        gain = _foil_gain(p1, n1, p0, n0)
                        if gain > _EPS and (best is None or gain > best[0] + _EPS):
                            best = (gain, (attr, op, threshold))
        if best is None:
            break
        conds.append(best[1])
        current = _filter(enc, conds, current)
    return tuple(conds)


def _coverage(enc, conds, idx, cls):
    p = n = 0
    for i in idx:
        if _matches(enc, conds, i):
            if enc.y[i] == cls:
                p += 1
            else:
                n += 1
    return p, n


def _prune_rule(enc: Encoded, prune_idx, cls, conds):
    """Keep the condition prefix maximizing (p - n) / (p + n) on holdout."""
    if not conds or not prune_idx:
        return conds
    best_len = len(conds)
    best_value = None
    for length in range(1, len(conds) + 1):
        p, n = _coverage(enc, conds[:length], prune_idx, cls)
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


def _ruleset_dl(enc, rule_conds_list, universe, cls, n_possible, exp_rate=0.5) -> float:
    covered = set()
    for conds in rule_conds_list:
        for i in universe:
            if i not in covered and _matches(enc, conds, i):
                covered.add(i)
    fp = sum(1 for i in covered if enc.y[i] != cls)
    fn = sum(1 for i in universe if i not in covered and enc.y[i] == cls)
    dl = _data_dl(exp_rate, len(covered), len(universe) - len(covered), fp, fn)
    for conds in rule_conds_list:
        dl += _theory_dl(len(conds), n_possible)
    return dl


def _learn_class_rules(enc, stage_idx, cls, seed, folds, dl_slack):
    """Grow/prune covering loop for one class with a DL stopping budget."""
    universe = list(stage_idx)
    n_possible = _count_possible_conditions(enc, universe)
    rules: list[tuple] = []
    data = list(universe)
    dl_min = _ruleset_dl(enc, [], universe, cls, n_possible)
    rule_no = 0
    while any(enc.y[i] == cls for i in data):
        rule_no += 1
        grow, prune = holdout_split(enc, data, seed + 7919 * rule_no, folds)
        conds = _grow_rule(enc, grow, cls)
        conds = _prune_rule(enc, prune, cls, conds)
        if not conds:
            break
        p, n = _coverage(enc, conds, data, cls)
        if p == 0:
            break
        pp, pn = _coverage(enc, conds, prune, cls)
        if pp + pn > 0 and pp < pn:
            break
        dl = _ruleset_dl(enc, [c for c, _ in rules] + [conds], universe, cls, n_possible)
        if dl > dl_min + dl_slack:
            break
        dl_min = min(dl_min, dl)
        rules.append((conds, cls))
        data = [i for i in data if not _matches(enc, conds, i)]
    return rules, n_possible


def _optimize_class_rules(enc, rules, universe, cls, seed, folds, n_possible):
    """One revision pass: try a fresh replacement and a grown revision of
    each rule, keeping whichever variant yields the smallest description
    length for the whole stage ruleset."""
    rules = list(rules)
    for ri in range(len(rules)):
        others = [c for j, (c, _) in enumerate(rules) if j != ri]
        pool = [i for i in universe if not any(_matches(enc, c, i) for c in others)]
        if not any(enc.y[i] == cls for i in pool):
            continue
        grow, prune = holdout_split(enc, pool, seed + 104729 * (ri + 1), folds)
        replacement = _prune_rule(enc, prune, cls, _grow_rule(enc, grow, cls))
        revision = _prune_rule(
            enc, prune, cls, _grow_rule(enc, grow, cls, existing=rules[ri][0])
        )
        variants = [rules[ri][0], replacement, revision]
        best = None
        for v_idx, conds in enumerate(variants):
            if not conds:
                continue
            candidate = [c for c, _ in rules]
            candidate[ri] = conds
            dl = _ruleset_dl(enc, candidate, universe, cls, n_possible)
            if best is None or dl < best[0] - _EPS:
                best = (dl, v_idx, conds)
        if best is not None:
            rules[ri] = (best[2], cls)
    return rules


def _residual_and_cleanup(enc, rules, universe, cls, seed, folds, dl_slack, n_possible):
    rules = list(rules)
    data = [
        i
        for i in universe
        if not any(_matches(enc, conds, i) for conds, _ in rules)
    ]
    dl_min = _ruleset_dl(enc, [c for c, _ in rules], universe, cls, n_possible)
    rule_no = 100
    while any(enc.y[i] == cls for i in data):
        rule_no += 1
        grow, prune = holdout_split(enc, data, seed + 7919 * rule_no, folds)
        conds = _prune_rule(enc, prune, cls, _grow_rule(enc, grow, cls))
        if not conds:
            break
        p, _ = _coverage(enc, conds, data, cls)
        if p == 0:
            break
        dl = _ruleset_dl(enc, [c for c, _ in rules] + [conds], universe, cls, n_possible)
        if dl > dl_min + dl_slack:
            break
        dl_min = min(dl_min, dl)
        rules.append((conds, cls))
        data = [i for i in data if not _matches(enc, conds, i)]
    # Backward sweep: drop rules whose removal lowers the description length.
    changed = True
    while changed and len(rules) > 1:
        changed = False
        current_dl = _ruleset_dl(enc, [c for c, _ in rules], universe, cls, n_possible)
        for ri in range(len(rules) - 1, -1, -1):
            candidate = [c for j, (c, _) in enumerate(rules) if j != ri]
            if _ruleset_dl(enc, candidate, universe, cls, n_possible) < current_dl - _EPS:
                del rules[ri]
                changed = True
                break
    return rules


def build_ripper_rules(enc: Encoded, idx, seed: int, holdout_folds: int, dl_slack: float):
    """Learn each class's rules in ascending frequency, then make one
    optimization pass over them: revise every rule, then cover what the
    revised rules leave uncovered and drop rules that do not pay for
    themselves.  The most frequent class becomes the default rule."""
    counts = class_counts(enc, idx)
    order = sorted(range(enc.n_classes), key=lambda c: (counts[c], c))
    stages = [c for c in order[:-1] if counts[c] > 0]
    default_cls = order[-1]
    remaining = enc.canonical_order(list(idx))
    all_rules: list[tuple] = []
    for stage_no, cls in enumerate(stages):
        stage_seed = seed + 15485863 * (stage_no + 1)
        stage_rules, n_possible = _learn_class_rules(
            enc, remaining, cls, stage_seed, holdout_folds, dl_slack
        )
        stage_rules = _optimize_class_rules(
            enc, stage_rules, remaining, cls, stage_seed + 1, holdout_folds, n_possible
        )
        stage_rules = _residual_and_cleanup(
            enc, stage_rules, remaining, cls, stage_seed + 2, holdout_folds, dl_slack,
            n_possible,
        )
        all_rules.extend(stage_rules)
        remaining = [
            i
            for i in remaining
            if not any(_matches(enc, conds, i) for conds, _ in stage_rules)
        ]
    return finalize_rule_list(enc, idx, all_rules, default_cls)
