import math
import random
from dataclasses import dataclass, field, replace

import pytest
from hypothesis import given, settings, strategies as st

from fusemine.learners import (
    ExemplarSet, Model, model_to_json, predict, predict_label, render_rules, train,
)
from fusemine.learners import model as model_module
from fusemine.learners import nnge as nnge_module
from fusemine.learners.encode import Encoded, encode_table
from fusemine.learners.model import Exemplar, _distance_plan, _distance_terms, _planned_sum
from fusemine.tabular import AttributeSpec, DataTable

from helpers import (
    GRADE, STATUS, draw_table, encode_row, full_scan_distribution, mixed_tables,
    planned_distance, planted_dataset,
)


def plan_of(model, enc):
    """An encoded row's distance plan under the model's ranges."""
    terms = _distance_terms(model.specs, model.input_indices, model.structure.ranges)
    return _distance_plan(terms, enc)


def training_accuracy(model, table):
    class_idx = table.class_index
    labels = table.specs[class_idx].labels
    hits = sum(
        1 for row in table.rows if predict_label(model, row) == labels[row[class_idx]]
    )
    return hits / table.n_rows


class TestNnge:
    def test_memorizes_training_data(self):
        table = planted_dataset(n=200, seed=1)
        model = train("nnge", table)
        assert isinstance(model.structure, ExemplarSet)
        assert training_accuracy(model, table) == 1.0

    def test_numeric_memorization(self):
        table = planted_dataset(n=150, seed=2, numeric=True)
        model = train("nnge", table)
        assert training_accuracy(model, table) >= 0.99

    def test_generalizes_into_rectangles(self):
        table = planted_dataset(n=200, seed=3)
        model = train("nnge", table)
        assert len(model.structure.exemplars) < table.n_rows

    def test_order_sensitivity_documented(self):
        table = planted_dataset(n=100, seed=4)
        model = train("nnge", table)
        assert model.metadata["order_sensitive"] is True

    def test_deterministic(self):
        table = planted_dataset(n=120, seed=5, noise=0.1)
        assert render_rules(train("nnge", table)) == render_rules(train("nnge", table))

    def test_no_wrong_class_rectangle_covers_a_clean_instance(self):
        table = planted_dataset(n=200, seed=6)
        model = train("nnge", table)
        structure = model.structure
        for row in table.rows[:50]:
            label = row[-1]
            enc = encode_row(
                model.specs, model.input_indices,
                model.metadata.get("numeric_fill", {}), row,
            )
            plan = plan_of(model, enc)
            for ex in structure.exemplars:
                if ex.cls != label:
                    d = planned_distance(ex, plan)
                    assert d > 0.0

    def test_distributions_valid(self):
        table = planted_dataset(n=120, seed=7, noise=0.2)
        model = train("nnge", table)
        rng = random.Random(2)
        for _ in range(60):
            row = tuple(rng.randrange(3) for _ in range(5)) + (None,)
            dist = predict(model, row)
            assert sum(dist) == pytest.approx(1.0, abs=1e-9)
            assert all(0.0 <= p <= 1.0 for p in dist)

    def test_render_lists_exemplars(self):
        table = planted_dataset(n=60, seed=8)
        text = render_rules(train("nnge", table))
        assert text.strip().splitlines()[-1].startswith("Number of Exemplars : ")
        assert text.startswith("IF ")

    def test_render_names_the_missing_slot(self):
        # The first box holds Low, Medium and a missing g, but not High.
        specs = [AttributeSpec.nominal("g", GRADE), AttributeSpec.nominal("Status", STATUS, role="class")]
        table = DataTable(specs, [(0, 0), (1, 0), (None, 0), (2, 1)])
        assert render_rules(train("nnge", table)) == (
            "IF g in {Low, Medium, ?} THEN Pass\n"
            "IF g = High THEN Fail\n"
            "Number of Exemplars : 2\n"
        )

    def test_render_leaves_out_a_set_of_every_label(self):
        specs = [AttributeSpec.nominal("g", GRADE), AttributeSpec.numeric("x"),
                 AttributeSpec.nominal("Status", STATUS, role="class")]
        rows = [(0, 0.0, 0), (1, 0.0, 0), (2, 0.0, 0), (None, 0.5, 0), (0, 1.0, 1)]
        assert render_rules(train("nnge", DataTable(specs, rows[:3] + rows[4:]))) == (
            "IF x = 0 THEN Pass\nIF g = Low AND x = 1 THEN Fail\nNumber of Exemplars : 2\n"
        )
        assert render_rules(train("nnge", DataTable(specs, rows))) == (
            "IF x in [0, 0.5] THEN Pass\nIF g = Low AND x = 1 THEN Fail\nNumber of Exemplars : 2\n"
        )

    @pytest.mark.parametrize(
        "xs, classes",
        [((-1e308, 0.0, 5e307, 1e308), (0, 0, 1, 1)), ((-1e308, 1e308), (0, 1))],
        ids=["four-rows", "two-rows"],
    )
    def test_wide_numeric_range_predicts_each_training_row(self, xs, classes):
        # The range 1e308 - (-1e308) overflows; distances halve the value
        # and both ends instead.
        specs = [AttributeSpec.numeric("x"), AttributeSpec.nominal("Status", STATUS, role="class")]
        table = DataTable(specs, list(zip(xs, classes)))
        model = train("nnge", table)
        for row in table.rows:
            dist = predict(model, row)
            assert all(math.isfinite(p) for p in dist)
            assert sum(dist) == pytest.approx(1.0, abs=1e-9)
            assert predict_label(model, row) == STATUS[row[1]]

    def test_wide_numeric_range_splits_on_the_widest_margin(self):
        # The Fail row lands in the Pass box.  Both inputs part all three
        # members from it; x does so by a quarter of its range (5e307 of
        # 2e308, an overflowed span), y by a fifth of its own (0.1 of 0.5).
        specs = [AttributeSpec.numeric("x"), AttributeSpec.numeric("y"),
                 AttributeSpec.nominal("Status", STATUS, role="class")]
        rows = [(-1e308, 0.0, 0), (1e308, 0.3, 0), (-5e307, 0.5, 0), (0.0, 0.2, 1)]
        model = train("nnge", DataTable(specs, rows))
        assert render_rules(model) == (
            "IF x in [-1e+308, -5e+307] AND y in [0, 0.5] THEN Pass\n"
            "IF x = 1e+308 AND y = 0.3 THEN Pass\n"
            "IF x = 0 AND y = 0.2 THEN Fail\n"
            "Number of Exemplars : 3\n"
        )
        for row in rows:
            assert all(math.isfinite(p) for p in predict(model, row))
            assert predict_label(model, row) == STATUS[row[2]]

    @pytest.mark.parametrize("x", [-1e308, -1.7e308])
    def test_a_row_far_outside_a_finite_range_keeps_every_weight(self, x):
        # The range [5e307, 1e308] is finite, but the row's gap to 1e308
        # (and at -1.7e308 also to 5e307) overflows; the distance then
        # halves the row value and the box end.  Halving every value is
        # exact and leaves each distance as it is, so the half-scale
        # model, whose gaps are finite, predicts the same distribution.
        specs = [AttributeSpec.numeric("x"), AttributeSpec.nominal("Status", STATUS, role="class")]
        model = train("nnge", DataTable(specs, [(5e307, 0), (1e308, 1)]))
        half = train("nnge", DataTable(specs, [(5e307 / 2, 0), (1e308 / 2, 1)]))
        dist = predict(model, (x, None))
        assert dist[0] > dist[1] > 0.0 and dist[2] == 0.0
        assert predict_label(model, (x, None)) == "Pass"
        assert repr(dist) == repr(predict(half, (x / 2, None)))


def reference_distance(model, ex, ranges, enc_values):
    """Per-exemplar distance loop, kept as the reference for the row plan."""
    total = 0.0
    for i in model.input_indices:
        spec = model.specs[i]
        v = enc_values[i]
        if spec.is_numeric:
            lo = ex.lo.get(i, 0.0)
            hi = ex.hi.get(i, 0.0)
            r_lo, r_hi = ranges.get(i, (0.0, 1.0))
            span = r_hi - r_lo
            if v < lo:
                d = (lo - v) / span if span > 0 else 1.0
            elif v > hi:
                d = (v - hi) / span if span > 0 else 1.0
            else:
                d = 0.0
        else:
            d = 0.0 if v in ex.label_sets.get(i, frozenset()) else 1.0
        total += d * d
    return total ** 0.5


def mixed_exemplar_model(rng):
    """Interleaved numeric and nominal inputs; exemplars and ranges miss keys."""
    specs = (
        AttributeSpec.numeric("a"),
        AttributeSpec.nominal("b", GRADE),
        AttributeSpec.numeric("c"),
        AttributeSpec.nominal("d", GRADE),
        AttributeSpec.numeric("e"),
        AttributeSpec.nominal("Status", STATUS, role="class"),
    )
    exemplars = []
    for _ in range(40):
        lo, hi, label_sets = {}, {}, {}
        for a in (0, 2, 4):
            x, y = sorted(rng.uniform(-0.2, 1.2) for _ in range(2))
            if rng.random() < 0.8:
                lo[a] = x
            if rng.random() < 0.8:
                hi[a] = y
        for a in (1, 3):
            if rng.random() < 0.8:
                label_sets[a] = frozenset(rng.sample(range(4), rng.randrange(1, 3)))
        exemplars.append(Exemplar(rng.randrange(3), lo, hi, label_sets))
    ranges = {0: (0.0, 1.0), 2: (0.5, 0.5)}  # "c" has zero span, "e" no range
    return Model(
        algorithm="nnge",
        specs=specs,
        class_labels=STATUS,
        structure=ExemplarSet(exemplars, ranges),
        metadata={"numeric_fill": {"a": 0.5, "c": 0.5, "e": 0.5}},
    )


def test_predict_matches_brute_force_on_mixed_inputs():
    rng = random.Random(11)
    model = mixed_exemplar_model(rng)
    structure = model.structure
    for _ in range(200):
        row = tuple(
            None if rng.random() < 0.1 else
            (rng.uniform(-0.5, 1.5) if spec.is_numeric else rng.randrange(3))
            for spec in model.specs[:-1]
        ) + (None,)
        enc = encode_row(
            model.specs, model.input_indices, model.metadata["numeric_fill"], row,
        )
        best = [None] * 3
        plan = plan_of(model, enc)
        for ex in structure.exemplars:
            d = reference_distance(model, ex, structure.ranges, enc)
            assert planned_distance(ex, plan) == d
            if best[ex.cls] is None or d < best[ex.cls]:
                best[ex.cls] = d
        weights = [0.0 if d is None else 1.0 / (d + 1e-9) for d in best]
        assert predict(model, row) == tuple(w / sum(weights) for w in weights)


# --- training matches the per-box distance it used to have ---------------
# A verbatim copy of the training code from before training scored boxes
# with prediction's distance plan: it summed the numeric terms first, then
# the nominal ones, and took ``math.sqrt``.  Since then one rule was added:
# a row that its nearest same-class box covers joins it without a merge test.


@dataclass(eq=False)
class RefBox:
    """A hyperrectangle; boxes compare by identity, so finding one is cheap."""

    cls: int
    lo: dict[int, float]
    hi: dict[int, float]
    labels: dict[int, set[int]]
    members: list[dict] = field(default_factory=list)


def ref_box_from_members(cls, members, numeric_attrs, nominal_attrs) -> RefBox:
    lo = {a: min(m[a] for m in members) for a in numeric_attrs}
    hi = {a: max(m[a] for m in members) for a in numeric_attrs}
    labels = {a: {m[a] for m in members} for a in nominal_attrs}
    return RefBox(cls=cls, lo=lo, hi=hi, labels=labels, members=list(members))


def ref_covers(box: RefBox, vals, numeric_attrs, nominal_attrs) -> bool:
    for a in numeric_attrs:
        v = vals[a]
        if v < box.lo[a] or v > box.hi[a]:
            return False
    for a in nominal_attrs:
        if vals[a] not in box.labels[a]:
            return False
    return True


def ref_distance(box: RefBox, vals, numeric_attrs, nominal_attrs, spans) -> float:
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


def ref_exclude_members(cls, members, vals, numeric_attrs, nominal_attrs, spans):
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
        return [ref_box_from_members(cls, members, numeric_attrs, nominal_attrs)]
    _, _, axis, is_numeric = best
    v = vals[axis]
    parts = []
    if is_numeric:
        left = [m for m in members if m[axis] < v]
        right = [m for m in members if m[axis] > v]
        rest = [m for m in members if m[axis] == v]
        for group in (left, right):
            if group:
                parts.append(ref_box_from_members(cls, group, numeric_attrs, nominal_attrs))
    else:
        apart = [m for m in members if m[axis] != v]
        rest = [m for m in members if m[axis] == v]
        if apart:
            parts.append(ref_box_from_members(cls, apart, numeric_attrs, nominal_attrs))
    parts.extend(
        ref_exclude_members(cls, rest, vals, numeric_attrs, nominal_attrs, spans)
    )
    return parts


def ref_build_nnge(enc: Encoded, idx):
    numeric_attrs = [a for a in enc.input_idx if enc.specs[a].is_numeric]
    nominal_attrs = [a for a in enc.input_idx if enc.specs[a].is_nominal]
    ranges = {}
    spans = {}
    for a in numeric_attrs:
        values = [enc.cols[a][i] for i in idx]
        lo, hi = (min(values), max(values)) if values else (0.0, 1.0)
        ranges[a] = (lo, hi)
        spans[a] = hi - lo

    boxes: list[RefBox] = []
    seen_by_class: dict[int, list[dict]] = {}
    for i in idx:
        vals = {a: enc.cols[a][i] for a in enc.input_idx}
        cls = enc.y[i]
        if boxes:
            conflicts = [
                b for b in boxes if b.cls != cls and ref_covers(b, vals, numeric_attrs, nominal_attrs)
            ]
            for box in conflicts:
                pos = boxes.index(box)
                boxes[pos : pos + 1] = ref_exclude_members(
                    box.cls, box.members, vals, numeric_attrs, nominal_attrs, spans
                )
            nearest = None
            for j, box in enumerate(boxes):
                if box.cls != cls:
                    continue
                d = ref_distance(box, vals, numeric_attrs, nominal_attrs, spans)
                if nearest is None or d < nearest[0] - 1e-12:
                    nearest = (d, j)
            merged = False
            if nearest is not None:
                box = boxes[nearest[1]]
                ext_lo = {a: min(box.lo[a], vals[a]) for a in numeric_attrs}
                ext_hi = {a: max(box.hi[a], vals[a]) for a in numeric_attrs}
                ext_labels = {a: box.labels[a] | {vals[a]} for a in nominal_attrs}
                probe = RefBox(cls, ext_lo, ext_hi, ext_labels)
                conflict = False
                # A box that covers the row takes it in as it is, untested.
                if not ref_covers(box, vals, numeric_attrs, nominal_attrs):
                    for other_cls, others in seen_by_class.items():
                        if other_cls == cls:
                            continue
                        for ovals in others:
                            if ref_covers(probe, ovals, numeric_attrs, nominal_attrs):
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
                boxes.append(ref_box_from_members(cls, [vals], numeric_attrs, nominal_attrs))
        else:
            boxes.append(ref_box_from_members(cls, [vals], numeric_attrs, nominal_attrs))
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


#: Labels of the all-nominal inputs, up to five per input.
LETTERS = ("a", "b", "c", "d", "e")


@st.composite
def all_nominal_tables(draw):
    """Inputs for the label-bit build: 1-12 inputs of 1-5 labels each and
    one label-less input (every cell missing), with missing cells,
    repeated rows and duplicates of another class.  Eleven or twelve
    inputs of five labels hold 67 or 73 slots, past one 64-bit word."""
    n_labels = draw(st.one_of(
        st.lists(st.integers(1, 5), min_size=1, max_size=12),
        st.lists(st.just(5), min_size=11, max_size=12),
    ))
    specs = [AttributeSpec.nominal(f"g{a}", LETTERS[:k]) for a, k in enumerate(n_labels)]
    specs.insert(draw(st.integers(0, len(specs))), AttributeSpec.nominal("blank", ()))
    specs.append(AttributeSpec.nominal("Status", STATUS, role="class"))
    return draw_table(draw, specs)


def assert_trains_as_the_reference(table):
    model = train("nnge", table)
    enc = encode_table(table)
    reference = Model(
        model.algorithm, model.specs, model.class_labels,
        ref_build_nnge(enc, list(range(enc.n_rows))), model.metadata,
    )
    assert model_to_json(model) == model_to_json(reference)


@settings(max_examples=300, deadline=None)
@given(table=mixed_tables())
def test_training_matches_the_per_box_distance(table):
    assert_trains_as_the_reference(table)


@settings(max_examples=300, deadline=None)
@given(table=all_nominal_tables())
def test_label_bit_training_matches_the_per_box_distance(table):
    assert_trains_as_the_reference(table)


def test_an_all_nominal_build_tests_boxes_by_label_bits(monkeypatch):
    """An all-nominal build covers, measures and vetoes through label
    bits and calls none of the per-box tests; a set with a numeric input
    calls all three."""
    calls = []
    for name in ("_planned_sum", "_covers", "_swallows"):
        def counted(*args, test=getattr(nnge_module, name), name=name):
            calls.append(name)
            return test(*args)

        monkeypatch.setattr(nnge_module, name, counted)
    nominal = planted_dataset(n=60, seed=3)
    train("nnge", nominal)
    assert calls == []
    specs = [AttributeSpec.numeric("x"), *nominal.specs]
    train("nnge", DataTable(specs, [(i / 7 % 1.0, *row) for i, row in enumerate(nominal.rows)]))
    assert set(calls) == {"_planned_sum", "_covers", "_swallows"}


@pytest.mark.parametrize("numeric", [False, True], ids=["all-nominal", "numeric-input"])
def test_a_row_its_class_covers_joins_the_box(monkeypatch, numeric):
    """Pass, Fail, Pass, Pass at one point: the Pass box holds a point
    that Fail shares, yet the later Pass rows join it without a merge
    test rather than each making a point box of its own."""
    swallows = []

    def counted(*args, test=nnge_module._swallows):
        swallows.append(args[0])
        return test(*args)

    monkeypatch.setattr(nnge_module, "_swallows", counted)
    specs = [AttributeSpec.nominal("g", GRADE), AttributeSpec.nominal("Status", STATUS, role="class")]
    point = (1,)
    if numeric:
        specs.insert(0, AttributeSpec.numeric("x"))
        point = (0.5, 1)
    table = DataTable(specs, [(*point, cls) for cls in (0, 1, 0, 0)])
    model = train("nnge", table)
    assert [(ex.cls, ex.n_members) for ex in model.structure.exemplars] == [(0, 3), (1, 1)]
    assert swallows == []
    assert_trains_as_the_reference(table)


def test_a_row_whose_squared_gap_underflows_is_still_vetoed():
    """A Pass row 1e-170 past the Pass box at 0 has a distance sum of 0.0
    over a span of 1, but the box does not cover it.  Grown to take it,
    the box would swallow the Fail row between them, so the row keeps a
    point box of its own."""
    specs = [AttributeSpec.numeric("x"), AttributeSpec.nominal("Status", STATUS, role="class")]
    table = DataTable(specs, [(0.0, 0), (5e-171, 1), (1e-170, 0), (1.0, 1)])
    model = train("nnge", table)
    box = model.structure.exemplars[0]
    assert _planned_sum(box, plan_of(model, {0: 1e-170})) == 0.0
    assert [(ex.cls, ex.lo[0], ex.hi[0], ex.n_members) for ex in model.structure.exemplars] == [
        (0, 0.0, 0.0, 1), (1, 5e-171, 5e-171, 1), (0, 1e-170, 1e-170, 1), (1, 1.0, 1.0, 1),
    ]
    assert_trains_as_the_reference(table)


# --- the pruned vote against a full scan --------------------------------

#: Few distinct cells, so rows sit inside several boxes of several classes
#: and per-class distances tie at 0.
FEW_CELLS = (0.0, 0.25, 0.5, 1.0)


@st.composite
def few_cell_models(draw):
    """An exemplar set over numeric-only, nominal-only or mixed inputs whose
    bounds and labels come from a handful of cells, plus rows to score."""
    kinds = draw(st.lists(st.sampled_from(["numeric", "nominal"]), min_size=1, max_size=4))
    specs = tuple(
        AttributeSpec.numeric(f"x{a}") if kind == "numeric"
        else AttributeSpec.nominal(f"x{a}", GRADE)
        for a, kind in enumerate(kinds)
    ) + (AttributeSpec.nominal("Status", STATUS, role="class"),)
    inputs = range(len(kinds))
    numeric = [a for a in inputs if specs[a].is_numeric]
    nominal = [a for a in inputs if specs[a].is_nominal]
    exemplars = []
    for _ in range(draw(st.integers(1, 12))):
        bounds = {a: sorted(draw(st.lists(st.sampled_from(FEW_CELLS), min_size=2, max_size=2)))
                  for a in numeric}
        exemplars.append(Exemplar(
            draw(st.integers(0, 2)),
            {a: lo for a, (lo, _) in bounds.items()},
            {a: hi for a, (_, hi) in bounds.items()},
            {a: frozenset(draw(st.sets(st.integers(0, 3), min_size=1, max_size=2)))
             for a in nominal},
        ))
    ranges = {a: (0.0, draw(st.sampled_from([0.0, 1.0, 2.0]))) for a in numeric}
    model = Model("nnge", specs, STATUS, ExemplarSet(exemplars, ranges),
                  {"numeric_fill": {specs[a].name: 0.5 for a in numeric}})
    cell = {a: st.sampled_from(FEW_CELLS) if a in numeric else st.integers(0, 2) for a in inputs}
    rows = draw(st.lists(
        st.tuples(*(st.none() | cell[a] for a in inputs), st.none()), min_size=1, max_size=5,
    ))
    return model, rows


@settings(max_examples=300, deadline=None)
@given(case=few_cell_models(), extra_bounds=st.lists(st.sampled_from((0.0, 0.0625, 1.0, 3.0))))
def test_pruned_vote_equals_the_full_scan(case, extra_bounds):
    model, rows = case
    structure = model.structure
    for row in rows:
        assert predict(model, row) == full_scan_distribution(model, row)
        enc = encode_row(model.specs, model.input_indices, model.metadata["numeric_fill"], row)
        plan = plan_of(model, enc)
        sums = [_planned_sum(ex, plan) for ex in structure.exemplars]
        for ex, full in zip(structure.exemplars, sums):
            for bound in sums + extra_bounds:
                bounded = _planned_sum(ex, plan, bound)
                assert bounded == (None if full >= bound else full)


#: Box ends and fills: the few cells, values past every range (wide
#: boxes), a signed zero and ends whose gaps overflow.
INDEX_CELLS = FEW_CELLS + (-0.0, -2.0, 0.375, 3.0, -1e308, 1e308)
#: Numeric ranges: plain spans, a zero one, one that overflows, and one
#: so wide that a gap between the far ends overflows but its term does not.
INDEX_RANGES = ((0.0, 1.0), (-1.0, 2.0), (0.5, 0.5), (-1e308, 1e308), (0.0, 1e308))


@st.composite
def indexed_models(draw):
    """An all-nominal, all-numeric or mixed exemplar set of up to 40
    exemplars, some repeated within or across classes, plus rows whose
    numeric cells sit on box ends, are missing or are NaN."""
    shape = draw(st.sampled_from(["nominal", "numeric", "mixed"]))
    if shape == "mixed":
        kinds = draw(st.permutations(["numeric", "nominal"] + draw(
            st.lists(st.sampled_from(["numeric", "nominal"]), max_size=2))))
    else:
        kinds = [shape] * draw(st.integers(1, 4))
    specs = tuple(
        AttributeSpec.numeric(f"x{a}") if kind == "numeric"
        else AttributeSpec.nominal(f"x{a}", GRADE)
        for a, kind in enumerate(kinds)
    ) + (AttributeSpec.nominal("Status", STATUS, role="class"),)
    numeric = [a for a, kind in enumerate(kinds) if kind == "numeric"]
    nominal = [a for a, kind in enumerate(kinds) if kind == "nominal"]
    end = st.sampled_from(INDEX_CELLS) | st.floats(-2.0, 3.0)
    exemplars = []
    for _ in range(draw(st.integers(1, 32))):
        bounds = {a: sorted([draw(end), draw(end)]) for a in numeric}
        exemplars.append(Exemplar(
            draw(st.integers(0, 2)),
            {a: lo for a, (lo, _) in bounds.items()},
            {a: hi for a, (_, hi) in bounds.items()},
            {a: frozenset(draw(st.sets(st.integers(0, 3), min_size=1, max_size=3)))
             for a in nominal},
        ))
    for at in draw(st.lists(st.integers(0, len(exemplars) - 1), max_size=8)):
        ex = exemplars[at]
        exemplars.append(Exemplar(draw(st.integers(0, 2)), ex.lo, ex.hi, ex.label_sets))
    exemplars = draw(st.permutations(exemplars))
    ranges = {a: draw(st.sampled_from(INDEX_RANGES)) for a in numeric}
    ends = sorted({v for ex in exemplars for a in numeric for v in (ex.lo[a], ex.hi[a])})
    fill = {specs[a].name: draw(st.sampled_from(ends)) for a in numeric}
    # A NaN cell compares with no box end.
    cell = {a: st.sampled_from(ends + [math.nan]) if a in numeric else st.integers(0, 2)
            for a in range(len(kinds))}
    model = Model("nnge", specs, STATUS, ExemplarSet(exemplars, ranges), {"numeric_fill": fill})
    rows = draw(st.lists(
        st.tuples(*(st.none() | cell[a] for a in range(len(kinds))), st.none()),
        min_size=1, max_size=4,
    ))
    return model, rows


def indexed(model):
    """``model``, set to score every row through its exemplar index."""
    model._exemplar_index.plain_rows = 0
    return model


@settings(max_examples=150, deadline=None)
@given(case=indexed_models())
def test_the_exemplar_index_votes_as_the_full_scan(case):
    """Both ways of finding the least sums, the plain scans of a model's
    first rows and the index, vote as a full scan does."""
    model, rows = case
    for scanned in (model, indexed(replace(model))):
        for row in rows:
            assert repr(predict(scanned, row)) == repr(full_scan_distribution(model, row))


def test_an_overflowed_span_votes_as_the_full_scan():
    """Finite training values 2e308 apart overflow the span; the distance
    then halves the value and both ends, and the vote is a full scan's."""
    specs = (AttributeSpec.numeric("a"), AttributeSpec.nominal("Status", STATUS, role="class"))
    exemplars = [Exemplar(0, {0: 1e308}, {0: 1e308}), Exemplar(0, {0: -1e308}, {0: -1e308}),
                 Exemplar(1, {0: 0.0}, {0: 1.0})]
    model = Model("nnge", specs, STATUS, ExemplarSet(exemplars, {0: (-1e308, 1e308)}))
    row = (-1e308, None)
    plan = plan_of(model, {0: -1e308})
    best = [None] * 3
    for ex in exemplars:
        d = planned_distance(ex, plan)
        if best[ex.cls] is None or d < best[ex.cls]:
            best[ex.cls] = d
    assert best == [0.0, 0.5, None]
    weights = [0.0 if d is None else 1.0 / (d + 1e-9) for d in best]
    assert repr(predict(model, row)) == repr(tuple(w / sum(weights) for w in weights))


def test_an_overflowed_pivot_gap_bounds_by_the_halved_term():
    """The pivot bound takes a gap that overflows as ``_planned_sum`` does,
    on the halved values.  Here the far box's gap to the row overflows,
    yet its term, 2.52, is below the near box's sum, 4.0028; read as
    infinite, it would stop the walk before the nearest exemplar."""
    specs = (AttributeSpec.numeric("x"), AttributeSpec.numeric("y"),
             AttributeSpec.nominal("Status", STATUS, role="class"))
    far = Exemplar(0, {0: -1e308, 1: 0.0}, {0: -1e308, 1: 0.0})
    near = Exemplar(0, {0: 1.79e308, 1: 1.0}, {0: 1.79e308, 1: 1.0})
    other = Exemplar(1, {0: 0.0, 1: 0.0}, {0: 0.0, 1: 0.0})
    model = Model("nnge", specs, STATUS,
                  ExemplarSet([far, near, other], {0: (0.0, 1.7e308), 1: (0.0, 0.5)}))
    row = (1.7e308, 0.0, None)
    plan = plan_of(model, {0: 1.7e308, 1: 0.0})
    assert _planned_sum(far, plan) < _planned_sum(near, plan)
    assert model._exemplar_index.index.least_sums({0: 1.7e308, 1: 0.0})[0] == _planned_sum(far, plan)
    assert repr(predict(model, row)) == repr(full_scan_distribution(model, row))


class ReadLabels(dict):
    """Label sets that record whether a distance read them."""

    read = False

    def get(self, *args):
        self.read = True
        return super().get(*args)


def _count_sums(monkeypatch):
    calls = []

    def counted(ex, plan, bound=None):
        s = _planned_sum(ex, plan, bound)
        calls.append((ex, s is not None))
        return s

    monkeypatch.setattr(model_module, "_planned_sum", counted)
    return calls


def test_a_covered_class_sums_no_further_exemplar(monkeypatch):
    """Once a class has an exemplar at distance 0 the vote sums no more of
    that class; an exemplar whose pivot term alone reaches its class's
    least sum is not summed, and its other terms are not read."""
    specs = (
        AttributeSpec.numeric("a"), AttributeSpec.nominal("b", GRADE),
        AttributeSpec.nominal("Status", STATUS, role="class"),
    )
    covering = Exemplar(0, {0: 0.0}, {0: 1.0}, {1: frozenset({0})})
    near = Exemplar(1, {0: 0.5}, {0: 0.5}, {1: frozenset({1})})
    # Its first term alone, 1.0, equals near's whole sum.
    far = Exemplar(1, {0: 1.5}, {0: 1.5}, ReadLabels({1: frozenset({0})}))
    exemplars = [covering, near] + [covering, far] * 5
    model = indexed(Model("nnge", specs, STATUS, ExemplarSet(exemplars, {0: (0.0, 1.0)})))
    calls = _count_sums(monkeypatch)
    predict(model, (0.5, 0, None))
    assert calls == [(covering, True), (near, True)]
    assert not far.label_sets.read


def test_an_all_nominal_set_votes_by_label_bits(monkeypatch):
    """An all-nominal set's least sums are mismatch counts, read off the
    label bits without summing an exemplar."""
    specs = tuple(AttributeSpec.nominal(f"g{a}", GRADE) for a in range(3)) + (
        AttributeSpec.nominal("Status", STATUS, role="class"),)
    exemplars = [
        Exemplar(0, label_sets={0: frozenset({0}), 1: frozenset({0, 1}), 2: frozenset({2})}),
        Exemplar(1, label_sets={0: frozenset({1}), 1: frozenset({1}), 2: frozenset({2})}),
        Exemplar(1, label_sets={0: frozenset({2}), 1: frozenset({2}), 2: frozenset({3})}),
    ]
    model = indexed(Model("nnge", specs, STATUS, ExemplarSet(exemplars)))
    calls = _count_sums(monkeypatch)
    # Class 0's exemplar holds the row on every input; class 1's miss it on
    # one input and on all three; class 2 has no exemplar.
    row = (0, 1, 2, None)
    dist = predict(model, row)
    assert calls == []
    assert model._exemplar_index.index.least_sums({0: 0, 1: 1, 2: 2}) == [0.0, 1.0, None]
    assert repr(dist) == repr(full_scan_distribution(model, row))
