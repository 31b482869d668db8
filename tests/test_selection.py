import math
import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from fusemine.errors import EmptySubsetError, LengthMismatchError, UnknownAttributeError
from fusemine.selection import (
    FALLBACK_BINS,
    SuTable,
    _mdl_split,
    cfs_merit,
    mdl_discretize,
    reduce_to,
    select_best_attributes,
    symmetrical_uncertainty,
)
from fusemine.tabular import AttributeSpec, DataTable

LABELS3 = ("v0", "v1", "v2")


def nominal_dataset(columns: dict[str, list[int]], y: list[int], cards=None):
    names = list(columns)
    specs = []
    for name in names:
        card = (cards or {}).get(name, 3)
        specs.append(AttributeSpec.nominal(name, tuple(f"v{i}" for i in range(card))))
    n_classes = max(y) + 1
    specs.append(
        AttributeSpec.nominal("y", tuple(f"c{i}" for i in range(n_classes)), role="class")
    )
    rows = [tuple(columns[n][i] for n in names) + (y[i],) for i in range(len(y))]
    return DataTable(specs, rows)


class TestSymmetricalUncertainty:
    def test_self_dependence_is_one(self):
        a = [0, 1, 2, 0, 1, 2]
        assert symmetrical_uncertainty(a, a) == pytest.approx(1.0)

    def test_bijective_relabeling_is_one(self):
        a = [0, 1, 0, 1, 1, 0]
        b = [1 - v for v in a]
        assert symmetrical_uncertainty(a, b) == pytest.approx(1.0)

    def test_independent_columns_near_zero(self):
        rng = random.Random(13)
        a = [rng.randrange(3) for _ in range(10000)]
        b = [rng.randrange(3) for _ in range(10000)]
        assert symmetrical_uncertainty(a, b) <= 0.05

    def test_both_constant_is_zero(self):
        assert symmetrical_uncertainty([0, 0], [1, 1]) == 0.0

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatchError):
            symmetrical_uncertainty([0], [0, 1])

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_symmetry(self, data):
        n = data.draw(st.integers(2, 40))
        a = [data.draw(st.integers(0, 3)) for _ in range(n)]
        b = [data.draw(st.integers(0, 3)) for _ in range(n)]
        assert abs(symmetrical_uncertainty(a, b) - symmetrical_uncertainty(b, a)) <= 1e-12

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_range(self, data):
        n = data.draw(st.integers(2, 30))
        a = [data.draw(st.integers(0, 2)) for _ in range(n)]
        b = [data.draw(st.integers(0, 2)) for _ in range(n)]
        assert 0.0 <= symmetrical_uncertainty(a, b) <= 1.0


class TestMdlDiscretize:
    def test_recovers_planted_threshold(self):
        rng = random.Random(5)
        values = [rng.uniform(0, 1) for _ in range(200)]
        classes = [1 if v > 0.5 else 0 for v in values]
        bins = mdl_discretize(values, classes)
        mapping = {}
        consistent = True
        for b, c in zip(bins, classes):
            if b in mapping and mapping[b] != c:
                consistent = False
            mapping[b] = c
        assert consistent
        assert len(set(bins)) == 2

    def test_no_signal_falls_back_to_equal_width(self):
        rng = random.Random(6)
        values = [rng.uniform(0, 1) for _ in range(300)]
        classes = [rng.randrange(2) for _ in range(300)]
        bins = mdl_discretize(values, classes)
        assert max(b for b in bins if b is not None) >= 5  # fallback grid in use

    def test_missing_stays_missing(self):
        assert mdl_discretize([None, 1.0, 2.0], [0, 0, 1])[0] is None

    @pytest.mark.parametrize("lo, hi", [(0.9999999999999999, 1.0), (1e308, 1.5e308)])
    def test_separates_values_without_a_midpoint_between(self, lo, hi):
        # The midpoint rounds onto ``hi`` or overflows; the cut falls at ``lo``.
        assert mdl_discretize([lo] * 6 + [hi] * 6, [0] * 6 + [1] * 6) == [0] * 6 + [1] * 6


    def test_overflowing_range_falls_back_to_halved_grid(self):
        assert mdl_discretize([-1e308, 1e308, 0.0, 5.0], [0, 0, 0, 0]) == [0, 9, 5, 5]


def ref_mdl_discretize(values, classes):
    """``mdl_discretize`` as it was before its fallback shared the bin rule."""
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
        lo = present[0][0]
        hi = present[-1][0]
        span = hi - lo
        width = span / FALLBACK_BINS if span > 0 else 0.0
        out = []
        for v in values:
            if v is None:
                out.append(None)
            elif width == 0.0:
                out.append(0)
            else:
                out.append(max(0, min(FALLBACK_BINS - 1, math.floor((v - lo) / width))))
        return out
    out = []
    for v in values:
        if v is None:
            out.append(None)
            continue
        bin_idx = 0
        for cut in cuts:
            if v > cut:
                bin_idx += 1
            else:
                break
        out.append(bin_idx)
    return out


#: Ordinary cells, and any finite float, so that spans run from 0 to huge.
MDL_CELLS = st.one_of(
    st.none(),
    st.floats(-100.0, 100.0),
    st.floats(allow_nan=False, allow_infinity=False),
)


@settings(max_examples=300, deadline=None)
@given(cells=st.lists(st.tuples(MDL_CELLS, st.integers(0, 2)), max_size=30))
def test_mdl_matches_reference_on_finite_spans(cells):
    values = [v for v, _ in cells]
    classes = [c for _, c in cells]
    present = [v for v in values if v is not None]
    assume(not present or math.isfinite(max(present) - min(present)))
    assert repr(mdl_discretize(values, classes)) == repr(ref_mdl_discretize(values, classes))


class TestMerit:
    def test_single_perfect_feature(self):
        y = [0, 1, 2, 0, 1, 2]
        table = nominal_dataset({"a": y}, y)
        assert cfs_merit([0], table).merit == pytest.approx(1.0)

    def test_duplicated_perfect_feature_algebra(self):
        y = [0, 1, 2, 0, 1, 2]
        table = nominal_dataset({"a": y, "b": list(y)}, y)
        # (2 * 1) / sqrt(2 + 2 * 1) = 1
        assert cfs_merit([0, 1], table).merit == pytest.approx(1.0)

    def test_perfect_plus_noise_penalized(self):
        rng = random.Random(3)
        y = [rng.randrange(3) for _ in range(600)]
        noise = [rng.randrange(3) for _ in range(600)]
        table = nominal_dataset({"a": list(y), "b": noise}, y)
        su = SuTable(table)
        r_cf = (su.su_with_class(0) + su.su_with_class(1)) / 2
        r_ff = su.su_between(0, 1)
        expected = (2 * r_cf) / math.sqrt(2 + 2 * r_ff)
        got = cfs_merit([0, 1], table).merit
        assert got == pytest.approx(expected, abs=1e-12)
        assert got == pytest.approx(1 / math.sqrt(2), abs=0.06)
        assert got < cfs_merit([0], table).merit

    def test_empty_subset_rejected(self):
        y = [0, 1]
        table = nominal_dataset({"a": [0, 1]}, y)
        with pytest.raises(EmptySubsetError):
            cfs_merit([], table)

    def test_merit_invariant_under_relabeling(self):
        y = [0, 1, 0, 1, 1, 0, 0, 1]
        a = [0, 1, 1, 0, 1, 0, 1, 0]
        b = [2, 0, 0, 2, 0, 2, 0, 2]  # bijective relabeling of a
        t1 = nominal_dataset({"a": a}, y)
        t2 = nominal_dataset({"a": b}, y)
        assert cfs_merit([0], t1).merit == pytest.approx(cfs_merit([0], t2).merit, abs=1e-12)

    def test_duplicating_a_selected_singleton_keeps_merit(self):
        # Duplicating the sole selected feature is exactly neutral:
        # (2c) / sqrt(2 + 2*1) == c.  For larger subsets a duplicate of the
        # strongest member CAN raise the merit score, so only the singleton
        # case is a true invariant of this formula.
        rng = random.Random(2)
        y = [rng.randrange(3) for _ in range(300)]
        a = [v if rng.random() < 0.8 else rng.randrange(3) for v in y]
        noise = [rng.randrange(3) for _ in range(300)]
        table = nominal_dataset({"a": a, "n": noise, "a_copy": list(a)}, y)
        su = SuTable(table)
        assert select_best_attributes(su) == ["a"]
        single = su.merit([0])
        doubled = su.merit([0, 2])
        assert doubled == pytest.approx(single, abs=1e-12)


def exhaustive_best_merit(table: SuTable) -> float:
    """Independent oracle: scan every nonempty subset."""
    n = table.n_inputs
    best = 0.0
    for mask in range(1, 1 << n):
        members = [i for i in range(n) if mask >> i & 1]
        best = max(best, table.merit(members))
    return best


def random_mixed_dataset(rng: random.Random) -> DataTable:
    n_attrs = rng.randint(2, 10)
    n_rows = rng.randint(30, 120)
    n_classes = rng.choice([2, 3])
    cards = [rng.randint(2, 4) for _ in range(n_attrs)]
    n_signal = rng.randint(0, min(3, n_attrs))
    signal = set(rng.sample(range(n_attrs), n_signal))
    columns = {f"a{i}": [] for i in range(n_attrs)}
    y = []
    for _ in range(n_rows):
        cls = rng.randrange(n_classes)
        y.append(cls)
        for i in range(n_attrs):
            if i in signal and rng.random() < 0.7:
                columns[f"a{i}"].append(cls % cards[i])
            else:
                columns[f"a{i}"].append(rng.randrange(cards[i]))
    return nominal_dataset(columns, y, cards={f"a{i}": cards[i] for i in range(n_attrs)})


class TestSearch:
    def test_only_informative_attribute_selected(self):
        rng = random.Random(2)
        y = [rng.randrange(3) for _ in range(300)]
        noise1 = [rng.randrange(3) for _ in range(300)]
        noise2 = [rng.randrange(3) for _ in range(300)]
        table = nominal_dataset({"A": list(y), "n1": noise1, "n2": noise2}, y)
        assert select_best_attributes(table) == ["A"]

    def test_names_in_original_order(self):
        # Four classes jointly encoded by two binary attributes: both are
        # needed, and the result follows schema order, not merit order.
        rng = random.Random(4)
        a, b, y = [], [], []
        for _ in range(200):
            va, vb = rng.randrange(2), rng.randrange(2)
            a.append(va)
            b.append(vb)
            y.append(2 * va + vb)
        table = nominal_dataset(
            {"b_attr": b, "a_attr": a}, y, cards={"b_attr": 2, "a_attr": 2}
        )
        assert select_best_attributes(table) == ["b_attr", "a_attr"]

    def test_matches_exhaustive_oracle(self):
        for seed in range(40):
            rng = random.Random(seed)
            table = SuTable(random_mixed_dataset(rng))
            names = select_best_attributes(table)
            chosen = [table.names.index(n) for n in names]
            found = table.merit(chosen) if chosen else 0.0
            assert found == pytest.approx(exhaustive_best_merit(table), abs=1e-9)


class TestReduceTo:
    def make(self):
        specs = [
            AttributeSpec.numeric("id", role="id"),
            AttributeSpec.numeric("a"),
            AttributeSpec.numeric("b"),
            AttributeSpec.nominal("y", ("c0", "c1"), role="class"),
        ]
        return DataTable(specs, [(1.0, 0.1, 0.2, 0), (2.0, 0.3, 0.4, 1)])

    def test_select_all_is_identity(self):
        table = self.make()
        assert reduce_to(table, ["a", "b"]) == table

    def test_projection_keeps_id_and_class(self):
        table = self.make()
        reduced = reduce_to(table, ["b"])
        assert [s.name for s in reduced.specs] == ["id", "b", "y"]
        assert reduced.rows[0] == (1.0, 0.2, 0)

    def test_unknown_name_rejected(self):
        with pytest.raises(UnknownAttributeError):
            reduce_to(self.make(), ["nope"])
