import itertools
import math
import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from fusemine.errors import SchemaMismatchError
from fusemine.learners import (
    Rule,
    RuleList,
    fired_rule_index,
    predict,
    predict_label,
    render_rules,
    train,
)
from fusemine.learners.encode import Encoded, encode_table
from fusemine.learners.rules import (
    _EPS,
    _data_dl,
    _theory_dl,
    build_part_rules,
    build_ripper_rules,
)
from fusemine.learners.model import decode_condition, encoded_paths
from fusemine.learners.trees import Leaf, build_c45, class_counts, holdout_split, majority
from fusemine.tabular import AttributeSpec, DataTable

from helpers import GRADE, STATUS, planted_dataset


def training_accuracy(model, table):
    class_idx = table.class_index
    labels = table.specs[class_idx].labels
    hits = sum(
        1 for row in table.rows if predict_label(model, row) == labels[row[class_idx]]
    )
    return hits / table.n_rows


@pytest.mark.parametrize("algorithm", ["part", "ripper"])
class TestRuleInducers:
    def test_planted_rules_fit_exactly(self, algorithm):
        table = planted_dataset(n=300, seed=1)
        model = train(algorithm, table, seed=4)
        assert isinstance(model.structure, RuleList)
        assert training_accuracy(model, table) == 1.0

    def test_rule_list_ends_with_default(self, algorithm):
        table = planted_dataset(n=200, seed=2, noise=0.1)
        model = train(algorithm, table, seed=4)
        rules = model.structure.rules
        assert rules[-1].is_default
        assert all(not r.is_default for r in rules[:-1])

    def test_every_instance_is_covered(self, algorithm):
        table = planted_dataset(n=150, seed=3, noise=0.2)
        model = train(algorithm, table, seed=4)
        rng = random.Random(0)
        for _ in range(50):
            row = tuple(rng.randrange(3) for _ in range(5)) + (None,)
            assert fired_rule_index(model, row) >= 0

    def test_deterministic(self, algorithm):
        table = planted_dataset(n=150, seed=4, noise=0.1)
        assert render_rules(train(algorithm, table, seed=9)) == render_rules(
            train(algorithm, table, seed=9)
        )

    def test_row_permutation_invariant(self, algorithm):
        table = planted_dataset(n=150, seed=5, noise=0.15)
        rows = list(table.rows)
        random.Random(7).shuffle(rows)
        permuted = table.with_rows(rows)
        assert render_rules(train(algorithm, table, seed=6)) == render_rules(
            train(algorithm, permuted, seed=6)
        )

    def test_numeric_conditions_fit(self, algorithm):
        table = planted_dataset(n=300, seed=6, numeric=True)
        model = train(algorithm, table, seed=2)
        assert training_accuracy(model, table) >= 0.95

    def test_distributions_valid(self, algorithm):
        table = planted_dataset(n=120, seed=7, noise=0.25)
        model = train(algorithm, table, seed=3)
        rng = random.Random(1)
        for _ in range(60):
            row = tuple(rng.randrange(3) for _ in range(5)) + (None,)
            dist = predict(model, row)
            assert sum(dist) == pytest.approx(1.0, abs=1e-9)
            assert all(0.0 <= p <= 1.0 for p in dist)


class TestRuleSemantics:
    def test_matched_rule_counts_drive_argmax(self):
        # An instance matching a rule covering (0 Pass, 5 Fail, 0 Dropout)
        # must be predicted Fail.
        specs = [
            AttributeSpec.nominal("a", GRADE),
            AttributeSpec.nominal("Status", STATUS, role="class"),
        ]
        rows = [(0, 1)] * 5 + [(2, 0)] * 7
        model = train("ripper", DataTable(specs, rows), seed=0)
        assert predict_label(model, (0, None)) == "Fail"
        dist = predict(model, (0, None))
        assert dist[1] == max(dist)

    def test_first_matching_rule_fires(self):
        table = planted_dataset(n=300, seed=8)
        model = train("part", table, seed=0)
        rules = model.structure.rules
        fired = fired_rule_index(model, table.rows[0])
        for earlier in range(fired):
            conds = rules[earlier].conditions
            from fusemine.learners.model import condition_matches
            from fusemine.learners.encode import encode_row

            enc = encode_row(
                model.specs, model.input_indices,
                model.metadata.get("numeric_fill", {}), table.rows[0],
            )
            assert not all(condition_matches(model, c, enc) for c in conds)

    def test_attr_index_by_name(self):
        model = train("part", planted_dataset(n=60, seed=8), seed=0)
        for i, spec in enumerate(model.specs):
            assert model.attr_index(spec.name) == i
        with pytest.raises(SchemaMismatchError):
            model.attr_index("NoSuchAttribute")


class TestRipperSpecifics:
    def test_default_rule_is_most_frequent_class(self):
        table = planted_dataset(n=300, seed=9)
        model = train("ripper", table, seed=0)
        labels = [model.class_labels[row[-1]] for row in table.rows]
        most_frequent = max(set(labels), key=labels.count)
        assert model.structure.rules[-1].cls == most_frequent

    def test_optimize_passes_recorded(self):
        table = planted_dataset(n=100, seed=10)
        model = train("ripper", table, seed=0)
        assert model.metadata["params"]["optimize_passes"] == 1

    def test_noise_prunes_rule_count(self):
        clean = train("ripper", planted_dataset(n=300, seed=11), seed=0)
        noisy = train("ripper", planted_dataset(n=300, seed=11, noise=0.35), seed=0)
        assert len(noisy.structure.rules) <= len(clean.structure.rules) + 2


# --- identity with the list-based learners ---------------------------------
#
# Reference implementations of both inducers in which every row set is an
# index list that each coverage question rescans, and rows are put in
# canonical order by a tuple key per row.  The bitmask learners must return
# the same rule lists.  The description-length arithmetic,
# ``decode_condition`` and ``encoded_paths`` are shared with the learners
# under test.


def ref_canonical_order(enc, idx):
    def key(i):
        return tuple(enc.cols[a][i] for a in enc.input_idx) + (enc.y[i],)

    return sorted(idx, key=key)


def ref_holdout_split(enc: Encoded, idx, seed: int, folds: int):
    """Stratified grow/prune partition over a canonicalized index list."""
    rng = random.Random(seed)
    ordered = ref_canonical_order(enc, list(idx))
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


def ref_matches(enc: Encoded, conds, i: int) -> bool:
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


def ref_filter(enc, conds, idx):
    return [i for i in idx if ref_matches(enc, conds, i)]


def ref_finalize_rule_list(enc: Encoded, idx, raw_rules, default_cls: int) -> RuleList:
    """Bind encoded rules to names and recount coverage in list order."""
    buckets = [[0.0] * enc.n_classes for _ in range(len(raw_rules) + 1)]
    for i in idx:
        for r, (conds, _cls) in enumerate(raw_rules):
            if ref_matches(enc, conds, i):
                buckets[r][enc.y[i]] += 1.0
                break
        else:
            buckets[-1][enc.y[i]] += 1.0
    rules = []
    for (conds, cls), counts in zip(raw_rules, buckets):
        if sum(counts) == 0.0:
            counts = [1.0 if c == cls else 0.0 for c in range(enc.n_classes)]
        rules.append(
            Rule(
                tuple(decode_condition(enc.specs, c) for c in conds),
                enc.class_labels[cls],
                tuple(counts),
            )
        )
    default_counts = buckets[-1]
    if sum(default_counts) == 0.0:
        default_counts = [1.0 if c == default_cls else 0.0 for c in range(enc.n_classes)]
    rules.append(Rule((), enc.class_labels[default_cls], tuple(default_counts)))
    return RuleList(tuple(rules))


def ref_build_part_rules(enc: Encoded, idx, confidence: float, min_leaf: int):
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
        best = None
        for conds, leaf in encoded_paths(tree):
            coverage = sum(leaf.counts)
            if best is None or coverage > best[0] + _EPS:
                best = (coverage, conds, leaf)
        _, conds, leaf = best
        covered = set(ref_filter(enc, conds, remaining))
        if not covered:
            break
        raw_rules.append((conds, leaf.cls))
        remaining = [i for i in remaining if i not in covered]
    if remaining:
        default_cls = majority(class_counts(enc, remaining))
    else:
        default_cls = majority(class_counts(enc, idx))
    return ref_finalize_rule_list(enc, idx, raw_rules, default_cls)


def ref_foil_gain(p1, n1, p0, n0) -> float:
    if p1 <= 0:
        return -math.inf
    return p1 * (math.log2(p1 / (p1 + n1)) - math.log2(p0 / (p0 + n0)))


def ref_grow_rule(enc: Encoded, grow_idx, cls, existing=()):
    """Add conditions greedily by information gained about the class
    until the rule covers no negatives (or nothing helps)."""
    conds = list(existing)
    current = ref_filter(enc, conds, grow_idx)
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
                    gain = ref_foil_gain(pos[v], neg[v], p0, n0)
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
                        gain = ref_foil_gain(p1, n1, p0, n0)
                        if gain > _EPS and (best is None or gain > best[0] + _EPS):
                            best = (gain, (attr, op, threshold))
        if best is None:
            break
        conds.append(best[1])
        current = ref_filter(enc, conds, current)
    return tuple(conds)


def ref_coverage(enc, conds, idx, cls):
    p = n = 0
    for i in idx:
        if ref_matches(enc, conds, i):
            if enc.y[i] == cls:
                p += 1
            else:
                n += 1
    return p, n


def ref_prune_rule(enc: Encoded, prune_idx, cls, conds):
    """Keep the condition prefix maximizing (p - n) / (p + n) on holdout."""
    if not conds or not prune_idx:
        return conds
    best_len = len(conds)
    best_value = None
    for length in range(1, len(conds) + 1):
        p, n = ref_coverage(enc, conds[:length], prune_idx, cls)
        value = 0.0 if p + n == 0 else (p - n) / (p + n)
        if best_value is None or value > best_value + _EPS:
            best_value = value
            best_len = length
    return conds[:best_len]


def ref_count_possible_conditions(enc: Encoded, idx) -> int:
    total = 0
    for attr in enc.input_idx:
        if enc.specs[attr].is_nominal:
            total += enc.n_slots(attr)
        else:
            distinct = len({enc.cols[attr][i] for i in idx})
            total += 2 * max(distinct - 1, 1)
    return max(total, 1)


def ref_ruleset_dl(enc, rule_conds_list, universe, cls, n_possible, exp_rate=0.5) -> float:
    covered = set()
    for conds in rule_conds_list:
        for i in universe:
            if i not in covered and ref_matches(enc, conds, i):
                covered.add(i)
    fp = sum(1 for i in covered if enc.y[i] != cls)
    fn = sum(1 for i in universe if i not in covered and enc.y[i] == cls)
    dl = _data_dl(exp_rate, len(covered), len(universe) - len(covered), fp, fn)
    for conds in rule_conds_list:
        dl += _theory_dl(len(conds), n_possible)
    return dl


def ref_learn_class_rules(enc, stage_idx, cls, seed, folds, dl_slack):
    """Grow/prune covering loop for one class with a DL stopping budget."""
    universe = list(stage_idx)
    n_possible = ref_count_possible_conditions(enc, universe)
    rules: list[tuple] = []
    data = list(universe)
    dl_min = ref_ruleset_dl(enc, [], universe, cls, n_possible)
    rule_no = 0
    while any(enc.y[i] == cls for i in data):
        rule_no += 1
        grow, prune = ref_holdout_split(enc, data, seed + 7919 * rule_no, folds)
        conds = ref_grow_rule(enc, grow, cls)
        conds = ref_prune_rule(enc, prune, cls, conds)
        if not conds:
            break
        p, n = ref_coverage(enc, conds, data, cls)
        if p == 0:
            break
        pp, pn = ref_coverage(enc, conds, prune, cls)
        if pp + pn > 0 and pp < pn:
            break
        dl = ref_ruleset_dl(enc, [c for c, _ in rules] + [conds], universe, cls, n_possible)
        if dl > dl_min + dl_slack:
            break
        dl_min = min(dl_min, dl)
        rules.append((conds, cls))
        data = [i for i in data if not ref_matches(enc, conds, i)]
    return rules, n_possible


def ref_optimize_class_rules(enc, rules, universe, cls, seed, folds, n_possible):
    """One revision pass: try a fresh replacement and a grown revision of
    each rule, keeping whichever variant yields the smallest description
    length for the whole stage ruleset."""
    rules = list(rules)
    for ri in range(len(rules)):
        others = [c for j, (c, _) in enumerate(rules) if j != ri]
        pool = [i for i in universe if not any(ref_matches(enc, c, i) for c in others)]
        if not any(enc.y[i] == cls for i in pool):
            continue
        grow, prune = ref_holdout_split(enc, pool, seed + 104729 * (ri + 1), folds)
        replacement = ref_prune_rule(enc, prune, cls, ref_grow_rule(enc, grow, cls))
        revision = ref_prune_rule(
            enc, prune, cls, ref_grow_rule(enc, grow, cls, existing=rules[ri][0])
        )
        variants = [rules[ri][0], replacement, revision]
        best = None
        for v_idx, conds in enumerate(variants):
            if not conds:
                continue
            candidate = [c for c, _ in rules]
            candidate[ri] = conds
            dl = ref_ruleset_dl(enc, candidate, universe, cls, n_possible)
            if best is None or dl < best[0] - _EPS:
                best = (dl, v_idx, conds)
        if best is not None:
            rules[ri] = (best[2], cls)
    return rules


def ref_residual_and_cleanup(enc, rules, universe, cls, seed, folds, dl_slack, n_possible):
    rules = list(rules)
    data = [
        i
        for i in universe
        if not any(ref_matches(enc, conds, i) for conds, _ in rules)
    ]
    dl_min = ref_ruleset_dl(enc, [c for c, _ in rules], universe, cls, n_possible)
    rule_no = 100
    while any(enc.y[i] == cls for i in data):
        rule_no += 1
        grow, prune = ref_holdout_split(enc, data, seed + 7919 * rule_no, folds)
        conds = ref_prune_rule(enc, prune, cls, ref_grow_rule(enc, grow, cls))
        if not conds:
            break
        p, _ = ref_coverage(enc, conds, data, cls)
        if p == 0:
            break
        dl = ref_ruleset_dl(enc, [c for c, _ in rules] + [conds], universe, cls, n_possible)
        if dl > dl_min + dl_slack:
            break
        dl_min = min(dl_min, dl)
        rules.append((conds, cls))
        data = [i for i in data if not ref_matches(enc, conds, i)]
    # Backward sweep: drop rules whose removal lowers the description length.
    changed = True
    while changed and len(rules) > 1:
        changed = False
        current_dl = ref_ruleset_dl(enc, [c for c, _ in rules], universe, cls, n_possible)
        for ri in range(len(rules) - 1, -1, -1):
            candidate = [c for j, (c, _) in enumerate(rules) if j != ri]
            if ref_ruleset_dl(enc, candidate, universe, cls, n_possible) < current_dl - _EPS:
                del rules[ri]
                changed = True
                break
    return rules


def ref_build_ripper_rules(enc: Encoded, idx, seed: int, holdout_folds: int, dl_slack: float):
    """Learn each class's rules in ascending frequency, then make one
    optimization pass over them: revise every rule, then cover what the
    revised rules leave uncovered and drop rules that do not pay for
    themselves.  The most frequent class becomes the default rule."""
    counts = class_counts(enc, idx)
    order = sorted(range(enc.n_classes), key=lambda c: (counts[c], c))
    stages = [c for c in order[:-1] if counts[c] > 0]
    default_cls = order[-1]
    remaining = ref_canonical_order(enc, list(idx))
    all_rules: list[tuple] = []
    for stage_no, cls in enumerate(stages):
        stage_seed = seed + 15485863 * (stage_no + 1)
        stage_rules, n_possible = ref_learn_class_rules(
            enc, remaining, cls, stage_seed, holdout_folds, dl_slack
        )
        stage_rules = ref_optimize_class_rules(
            enc, stage_rules, remaining, cls, stage_seed + 1, holdout_folds, n_possible
        )
        stage_rules = ref_residual_and_cleanup(
            enc, stage_rules, remaining, cls, stage_seed + 2, holdout_folds, dl_slack,
            n_possible,
        )
        all_rules.extend(stage_rules)
        remaining = [
            i
            for i in remaining
            if not any(ref_matches(enc, conds, i) for conds, _ in stage_rules)
        ]
    return ref_finalize_rule_list(enc, idx, all_rules, default_cls)


SIGNED_TIES = st.sampled_from([-0.0, 0.0, 0.5, 1.0, -1.0, 1.0 / 3.0])


@st.composite
def rule_encodings(draw):
    """An encoding with tied and signed-zero numeric columns, nominal
    columns whose missing slot is in use, 2-3 classes and 4-40 rows."""
    n_classes = draw(st.integers(2, 3))
    n = draw(st.integers(4, 40))
    n_numeric = draw(st.integers(0, 2))
    n_nominal = draw(st.integers(0 if n_numeric else 1, 2))
    specs = [AttributeSpec.numeric(f"x{a}") for a in range(n_numeric)]
    specs += [AttributeSpec.nominal(f"g{a}", GRADE) for a in range(n_nominal)]
    specs.append(AttributeSpec.nominal("Status", STATUS[:n_classes], role="class"))
    numeric = SIGNED_TIES | st.floats(-3, 3, allow_nan=False)
    nominal = st.none() | st.integers(0, len(GRADE) - 1)
    rows = []
    for _ in range(n):
        rows.append(
            tuple(draw(numeric) for _ in range(n_numeric))
            + tuple(draw(nominal) for _ in range(n_nominal))
            + (draw(st.integers(0, n_classes - 1)),)
        )
    return encode_table(DataTable(specs, rows))


def midpoints_separate(enc):
    """False when two neighbouring values of a numeric column are adjacent
    floats whose midpoint rounds onto the upper one.  The list-based RIPPER
    never finishes on such a column and C4.5 recurses without end, so the
    identity tests leave them out; ``TestAdjacentFloats`` covers RIPPER."""
    for attr in enc.input_idx:
        if enc.specs[attr].is_numeric:
            values = sorted(set(enc.cols[attr]))
            if any((a + b) / 2.0 == b for a, b in zip(values, values[1:])):
                return False
    return True


class TestRuleLearnersMatchListBased:
    @settings(max_examples=300, deadline=None)
    @given(enc=rule_encodings(), seed=st.integers(-(2**40), 2**40), data=st.data())
    def test_ripper_identical(self, enc, seed, data):
        assume(midpoints_separate(enc))
        idx = data.draw(st.permutations(range(enc.n_rows)))
        assert repr(build_ripper_rules(enc, idx, seed, 3, 64.0)) == repr(
            ref_build_ripper_rules(enc, idx, seed, 3, 64.0)
        )

    @settings(max_examples=200, deadline=None)
    @given(enc=rule_encodings(), data=st.data())
    def test_part_identical(self, enc, data):
        assume(midpoints_separate(enc))
        idx = data.draw(st.permutations(range(enc.n_rows)))
        min_leaf = data.draw(st.integers(1, 2))
        assert repr(build_part_rules(enc, idx, 0.25, min_leaf)) == repr(
            ref_build_part_rules(enc, idx, 0.25, min_leaf)
        )


class TestCanonicalOrder:
    # Rows 0, 1 and 5 are equal (0.0 == -0.0) and so are rows 2 and 4;
    # row 6 differs from row 0 only in its missing nominal value.
    ROWS = [
        (0.0, 0, 0), (-0.0, 0, 0), (0.5, None, 1), (0.25, 2, 1),
        (0.5, None, 1), (0.0, 0, 0), (-0.0, None, 0), (0.25, 2, 0),
    ]

    def encoding(self):
        specs = [
            AttributeSpec.numeric("x"),
            AttributeSpec.nominal("g", GRADE),
            AttributeSpec.nominal("Status", STATUS[:2], role="class"),
        ]
        return encode_table(DataTable(specs, self.ROWS))

    def test_equal_rows_share_a_rank(self):
        rank = self.encoding().content_rank
        assert rank[0] == rank[1] == rank[5]
        assert rank[2] == rank[4]
        assert len(set(rank)) == 5

    def test_matches_tuple_key_sort_in_every_incoming_order(self):
        enc = self.encoding()
        for idx in itertools.permutations([0, 1, 2, 4, 5, 6]):
            assert enc.canonical_order(list(idx)) == ref_canonical_order(enc, list(idx))

    def test_holdout_split_matches_in_every_incoming_order(self):
        enc = self.encoding()
        for idx in itertools.permutations([0, 1, 2, 3, 5, 6, 7]):
            for seed in (0, 11):
                assert holdout_split(enc, idx, seed, 3) == ref_holdout_split(enc, idx, seed, 3)


class TestAdjacentFloats:
    def test_ripper_cuts_between_adjacent_floats(self):
        # The midpoint of 5e-324 and 1e-323 rounds to 1e-323, so a cut
        # "<= midpoint" would keep both values and the rule would never
        # shed its negatives; the cut is made at the lower value instead.
        low, high = 5e-324, 1e-323
        assert (low + high) / 2.0 == high
        specs = [
            AttributeSpec.numeric("x"),
            AttributeSpec.nominal("Status", STATUS[:2], role="class"),
        ]
        rows = [(low, 1)] * 6 + [(high, 0)] * 6 + [(1.0, 0)] * 3
        model = train("ripper", DataTable(specs, rows), seed=0)
        first = model.structure.rules[0]
        assert [(c.attr, c.op, c.value) for c in first.conditions] == [("x", "<=", low)]
        assert first.cls == "Fail"
