import math
import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from fusemine.errors import (
    EmptyColumnError,
    InvalidParamsError,
    MixedKindGroupError,
    OutOfRangeScoreError,
    SchemaMismatchError,
)
from fusemine.preprocess import (
    BinningParams,
    ClassRule,
    NormalizationParams,
    PreprocessConfig,
    anonymize,
    equal_width_discretize,
    fuse_sessions,
    label_class,
    min_max_normalize,
    preprocess_bundle,
    transform_fused,
)
from fusemine.tabular import AttributeSpec, DataTable, SourceBundle


class TestNormalize:
    def test_endpoints_and_midpoint(self):
        values, params = min_max_normalize([2.0, 4.0, 6.0])
        assert values == [0.0, 0.5, 1.0]
        assert (params.minimum, params.maximum) == (2.0, 6.0)

    def test_constant_column_maps_to_zero(self):
        values, _ = min_max_normalize([5.0, 5.0, 5.0])
        assert values == [0.0, 0.0, 0.0]

    def test_attention_scale(self):
        values, _ = min_max_normalize([0.0, 55.0, 110.0])
        assert values[1] == 0.5

    def test_missing_passes_through(self):
        values, _ = min_max_normalize([1.0, None, 3.0])
        assert values == [0.0, None, 1.0]

    def test_empty_column_rejected(self):
        with pytest.raises(EmptyColumnError):
            min_max_normalize([None, None])

    @settings(max_examples=80, deadline=None)
    @given(
        st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=2, max_size=40)
    )
    def test_affine_and_order_preserving(self, column):
        values, _ = min_max_normalize(column)
        assert all(0.0 <= v <= 1.0 for v in values)
        ordered = sorted(range(len(column)), key=lambda i: column[i])
        for a, b in zip(ordered, ordered[1:]):
            assert values[a] <= values[b]


class TestDiscretize:
    def test_boundary_belongs_to_upper_bin(self):
        bins, params = equal_width_discretize([0.0, 3.0, 9.0])
        assert bins[1] == 1  # value 3 on the 0..9 grid falls in the middle bin
        assert params.labels[bins[1]] == "Medium"

    def test_max_clamps_to_top_bin(self):
        bins, _ = equal_width_discretize([0.0, 9.0])
        assert bins[1] == 2

    def test_constant_column_lands_in_first_bin(self):
        bins, _ = equal_width_discretize([4.0, 4.0])
        assert bins == [0, 0]

    def test_boundaries_match_formula(self):
        _, params = equal_width_discretize([1.0, 7.0])
        width = (7.0 - 1.0) / 3
        for i, boundary in enumerate(params.boundaries()):
            assert boundary == pytest.approx(1.0 + i * width, abs=1e-12)

    def test_uniform_values_spread_evenly(self):
        rng = random.Random(7)
        column = [rng.random() for _ in range(1000)]
        bins, _ = equal_width_discretize(column)
        counts = [bins.count(i) for i in range(3)]
        assert all(abs(c - 333) <= 40 for c in counts)

    def test_label_count_must_match_bins(self):
        with pytest.raises(SchemaMismatchError):
            BinningParams(n_bins=4)


class TestExtremeRange:
    """A range too wide for a float is halved; a bin width that rounds to
    0.0 puts every value in the first bin."""

    def test_overflowing_range_normalizes(self):
        values, _ = min_max_normalize([-1e308, 5e307, 1e308, 0.0])
        assert values == [0.0, 0.75, 1.0, 0.5]

    def test_overflowing_range_bins(self):
        bins, _ = equal_width_discretize([-1e308, 5e307, 1e308, 0.0])
        assert bins == [0, 2, 2, 1]

    def test_bin_width_below_the_smallest_float(self):
        bins, _ = equal_width_discretize([0.0, 5e-324, None])
        assert bins == [0, 0, None]
        assert min_max_normalize([0.0, 5e-324])[0] == [0.0, 1.0]


def ref_bin_of(params, value):
    """``BinningParams.bin_of`` as it was before the bin rule had one home."""
    if value is None:
        return None
    span = params.maximum - params.minimum
    if span == 0.0:
        return 0
    width = span / params.n_bins
    index = math.floor((value - params.minimum) / width)
    return max(0, min(params.n_bins - 1, index))


def ref_equal_width_discretize(column, params=None):
    if params is None:
        present = [v for v in column if v is not None]
        if not present:
            raise EmptyColumnError("cannot discretize a column with no values")
        params = BinningParams(minimum=min(present), maximum=max(present))
    return [ref_bin_of(params, v) for v in column], params


#: Ordinary cells, and any finite float, so that spans run from 0 to huge.
CELLS = st.one_of(
    st.none(),
    st.floats(-100.0, 100.0),
    st.floats(allow_nan=False, allow_infinity=False),
)


class TestBinningMatchesReference:
    @settings(max_examples=300, deadline=None)
    @given(
        column=st.lists(CELLS, min_size=1, max_size=20).filter(lambda c: c != [None] * len(c)),
        n_bins=st.integers(2, 12),
        fitted=st.booleans(),
    )
    def test_every_finite_nonzero_width(self, column, n_bins, fitted):
        present = [v for v in column if v is not None]
        lo, hi = min(present), max(present)
        span = hi - lo
        assume(math.isfinite(span) and (span == 0.0 or span / n_bins != 0.0))
        params = None
        if fitted:
            labels = tuple(f"b{i}" for i in range(n_bins))
            params = BinningParams(n_bins=n_bins, labels=labels, minimum=lo, maximum=hi)
        assert repr(equal_width_discretize(column, params)) == repr(
            ref_equal_width_discretize(column, params)
        )


class TestLabelClass:
    def test_threshold_is_inclusive(self):
        assert label_class(5.0) == "Pass"

    def test_just_below_threshold_fails(self):
        assert label_class(4.99) == "Fail"

    def test_absent_score_is_dropout(self):
        assert label_class(None) == "Dropout"

    def test_out_of_range_rejected(self):
        with pytest.raises(OutOfRangeScoreError):
            label_class(10.5)

    @settings(max_examples=120, deadline=None)
    @given(st.one_of(st.none(), st.floats(0, 10, allow_nan=False)))
    def test_total_partition(self, score):
        assert label_class(score) in ClassRule().labels


def session_table(values_by_row, kind="numeric", labels=None, n_sessions=3):
    specs = [AttributeSpec.numeric("id", role="id")]
    for k in range(1, n_sessions + 1):
        name = f"Theory.X.s{k}"
        specs.append(
            AttributeSpec.numeric(name)
            if kind == "numeric"
            else AttributeSpec.nominal(name, labels)
        )
    rows = [(float(i),) + tuple(vals) for i, vals in enumerate(values_by_row)]
    return DataTable(specs, rows)


class TestFuseSessions:
    def test_constant_mean(self):
        table = session_table([(1.0,) * 15], n_sessions=15)
        fused = fuse_sessions(table)
        assert [s.name for s in fused.specs] == ["id", "Theory.X"]
        assert fused.rows[0][1] == 1.0

    def test_nominal_majority(self):
        table = session_table([(0, 0, 2)], kind="nominal", labels=("Low", "Medium", "High"))
        assert fuse_sessions(table).rows[0][1] == 0

    def test_nominal_tie_breaks_to_smallest_index(self):
        table = session_table(
            [(0, 2, 0, 2)], kind="nominal", labels=("Low", "Medium", "High"), n_sessions=4
        )
        assert fuse_sessions(table).rows[0][1] == 0

    def test_mixed_kind_group_rejected(self):
        specs = [
            AttributeSpec.numeric("id", role="id"),
            AttributeSpec.numeric("A.s1"),
            AttributeSpec.nominal("A.s2", ("x", "y")),
        ]
        table = DataTable(specs, [(1.0, 0.5, 0)])
        with pytest.raises(MixedKindGroupError):
            fuse_sessions(table)

    def test_missing_sessions_ignored(self):
        table = session_table([(2.0, None, 4.0)])
        assert fuse_sessions(table).rows[0][1] == 3.0

    def test_non_session_columns_pass_through(self):
        specs = [
            AttributeSpec.numeric("id", role="id"),
            AttributeSpec.numeric("Moodle.Quiz"),
        ]
        table = DataTable(specs, [(1.0, 7.0)])
        assert fuse_sessions(table) == table

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_mean_matches_brute_force(self, data):
        n_rows = data.draw(st.integers(1, 6))
        n_sessions = data.draw(st.integers(1, 8))
        rows = [
            tuple(
                data.draw(st.floats(-100, 100, allow_nan=False))
                for _ in range(n_sessions)
            )
            for _ in range(n_rows)
        ]
        fused = fuse_sessions(session_table(rows, n_sessions=n_sessions))
        for row, values in zip(fused.rows, rows):
            expected = sum(values) / len(values)
            assert row[1] == pytest.approx(expected, abs=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_mode_matches_recount(self, data):
        n_sessions = data.draw(st.integers(1, 9))
        values = tuple(data.draw(st.integers(0, 2)) for _ in range(n_sessions))
        fused = fuse_sessions(
            session_table([values], kind="nominal", labels=("Low", "Medium", "High"),
                          n_sessions=n_sessions)
        )
        counts = {v: values.count(v) for v in set(values)}
        best = max(counts.values())
        winners = [v for v, c in counts.items() if c == best]
        assert fused.rows[0][1] == min(winners)


def tiny_raw_bundle():
    ids = [1.0, 2.0, 3.0]
    theory = DataTable(
        [
            AttributeSpec.numeric("id", role="id"),
            AttributeSpec.numeric("Theory.Att.s1"),
            AttributeSpec.numeric("Theory.Att.s2"),
        ],
        [(1.0, 0.0, 0.0), (2.0, 5.0, 5.0), (3.0, 10.0, 10.0)],
    )
    practice = DataTable(
        [AttributeSpec.numeric("id", role="id"), AttributeSpec.numeric("Practice.Score.s1")],
        [(i, i) for i in ids],
    )
    online = DataTable(
        [AttributeSpec.numeric("id", role="id"), AttributeSpec.numeric("Moodle.Quiz")],
        [(i, 10.0 - i) for i in ids],
    )
    exam = DataTable(
        [AttributeSpec.numeric("id", role="id"), AttributeSpec.numeric("Exam.Score")],
        [(1.0, 7.5), (2.0, 3.0), (3.0, None)],
    )
    return SourceBundle({"theory": theory, "practice": practice, "online": online, "exam": exam})


class TestPreprocessBundle:
    def test_two_variants_share_ids_and_class(self):
        result = preprocess_bundle(tiny_raw_bundle())
        for bundle in (result.numeric, result.discretized):
            assert set(bundle["exam"].id_values()) == {1.0, 2.0, 3.0}
        assert result.numeric["exam"] == result.discretized["exam"]
        status = result.numeric["exam"]
        labels = status.specs[1].labels
        got = [labels[row[1]] for row in status.sorted_by_id().rows]
        assert got == ["Pass", "Fail", "Dropout"]

    def test_numeric_variant_rescaled(self):
        result = preprocess_bundle(tiny_raw_bundle())
        col = result.numeric["theory"].sorted_by_id().column("Theory.Att")
        assert col == [0.0, 0.5, 1.0]

    def test_discretized_variant_binned(self):
        result = preprocess_bundle(tiny_raw_bundle())
        table = result.discretized["theory"].sorted_by_id()
        spec = table.specs[table.attr_index("Theory.Att")]
        assert spec.labels == ("Low", "Medium", "High")
        assert table.column("Theory.Att") == [0, 1, 2]

    def test_params_recorded(self):
        result = preprocess_bundle(tiny_raw_bundle())
        assert result.normalization["Theory.Att"].maximum == 10.0
        assert result.binning["Moodle.Quiz"].minimum == 7.0

    def test_config_json_round_trip(self):
        config = PreprocessConfig(n_bins=3, pass_threshold=4.5, seed=9)
        again = PreprocessConfig.from_json(config.to_json())
        assert again == config

    @pytest.mark.parametrize("fields", [
        {"n_bins": "x"}, {"n_bins": True}, {"pass_threshold": "5"}, {"seed": 1.5},
        {"bin_labels": ("Low", 2, "High")}, {"n_bins": 4}, {"pass_threshold": 11.0},
        {"bin_labels": ("", "Mid", "High")}, {"bin_labels": ("Low", "Low", "High")},
    ])
    def test_config_rejects_bad_fields(self, fields):
        with pytest.raises((InvalidParamsError, SchemaMismatchError)):
            PreprocessConfig(**fields)

    @pytest.mark.parametrize("text", ["[1]", '{"fold_local_refit": false}'])
    def test_config_json_rejects_non_object_and_unknown_keys(self, text):
        with pytest.raises((InvalidParamsError, SchemaMismatchError)):
            PreprocessConfig.from_json(text)

    def test_transform_clamps_values_outside_fitted_params(self):
        narrow = {"Theory.Att": NormalizationParams(2.0, 8.0)}
        bins = {"Theory.Att": BinningParams(minimum=2.0, maximum=8.0)}
        fused = SourceBundle({
            "theory": DataTable(
                [AttributeSpec.numeric("id", role="id"), AttributeSpec.numeric("Theory.Att")],
                [(1.0, 0.0), (2.0, 5.0), (3.0, 10.0)],
            )
        })
        numeric, discretized = transform_fused(fused, narrow, bins)
        assert numeric["theory"].column("Theory.Att") == [0.0, 0.5, 1.0]
        assert discretized["theory"].column("Theory.Att") == [0, 1, 2]


class TestAnonymize:
    def test_same_student_same_new_id(self):
        bundle = tiny_raw_bundle()
        anon, mapping = anonymize(bundle, seed=11)
        for name in anon.ordered_names():
            originals = bundle[name].sorted_by_id().id_values()
            renamed = [mapping[v] for v in originals]
            assert sorted(anon[name].id_values()) == sorted(renamed)

    def test_deterministic(self):
        bundle = tiny_raw_bundle()
        _, first = anonymize(bundle, seed=3)
        _, second = anonymize(bundle, seed=3)
        assert first == second

    def test_no_collisions_for_cohort(self):
        ids = [float(i) for i in range(1, 58)]
        exam = DataTable(
            [AttributeSpec.numeric("id", role="id"), AttributeSpec.numeric("Exam.Score")],
            [(i, 5.0) for i in ids],
        )
        _, mapping = anonymize(SourceBundle({"exam": exam}), seed=5)
        assert len(set(mapping.values())) == 57
