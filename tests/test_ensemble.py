import dataclasses
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from fusemine.ensemble import (
    APPROACHES,
    FusionConfig,
    VoteModel,
    prepare_approach,
    run_approach,
    vote_predict,
    weight_search,
)
from fusemine.errors import InvalidParamsError, SchemaMismatchError
from fusemine.learners import Model, RuleList, Rule, train
from fusemine.preprocess import preprocess_bundle
from fusemine.synth import CohortSpec, generate
from fusemine.selection import reduce_to, select_best_attributes
from fusemine.tabular import AttributeSpec, DataTable, SourceBundle

from helpers import GRADE, STATUS, planted_label


def constant_model(dist_labels, target):
    """A degenerate one-class model predicting ``target`` outright."""
    specs = (
        AttributeSpec.nominal("x", GRADE),
        AttributeSpec.nominal("Status", dist_labels, role="class"),
    )
    return Model(
        algorithm="part",
        specs=specs,
        class_labels=dist_labels,
        structure=RuleList((Rule((), target, ()),)),
        metadata={"degenerate": True, "constant_class": target},
    )


def fixed_model(dist):
    """Test double emitting a fixed distribution (bypasses structures)."""
    return dataclasses.replace(
        constant_model(STATUS, "Pass"),
        metadata={"degenerate": False, "fixed": tuple(dist)},
    )


@pytest.fixture(autouse=True)
def _patch_predict(monkeypatch):
    from fusemine import ensemble as ens

    real_predict = ens.predict

    def fake_predict(model, row):
        fixed = model.metadata.get("fixed")
        if fixed is not None:
            return fixed
        return real_predict(model, row)

    monkeypatch.setattr(ens, "predict", fake_predict)
    yield


def vote_of(dists, weights):
    models = {}
    wmap = {}
    for name, dist, w in zip(("theory", "practice", "online"), dists, weights):
        models[name] = fixed_model(dist)
        wmap[name] = w
    return VoteModel(models=models, weights=wmap)


ROW = {"theory": (0, None), "practice": (0, None), "online": (0, None)}


def fraction_vote(dists, weights):
    """Reference vote in exact rationals: each float read as its shortest
    decimal, one rounding at the end."""
    sums = [Fraction(0)] * len(dists[0])
    total = Fraction(0)
    for dist, w in zip(dists, weights):
        weight = Fraction(str(float(w)))
        total += weight
        for i, p in enumerate(dist):
            sums[i] += weight * Fraction(str(float(p)))
    return tuple(float(s / total) for s in sums)


VOTE_WEIGHTS = st.one_of(
    st.sampled_from([1.0, 2.0, 0.1, 1e-7, 3.5e5, 0.3, 1.5e-7, 1e16, 123456.789]),
    st.floats(1e-9, 1e9),
)
PROBABILITIES = st.one_of(
    st.floats(0.0, 1.0),
    st.sampled_from([0.0, 1.0, 5e-324, 1e-300, 2.2250738585072014e-308, 0.1, 1 / 3]),
)


class TestVotePredict:
    def test_hand_computed_weighted_mean(self):
        vm = vote_of(
            [(0.6, 0.3, 0.1), (0.3, 0.4, 0.3), (0.2, 0.2, 0.6)], [1.0, 1.0, 2.0]
        )
        result = vote_predict(vm, ROW)
        assert result == (0.325, 0.275, 0.400)
        assert max(range(3), key=result.__getitem__) == 2

    def test_identical_distributions_are_a_fixpoint(self):
        dist = (0.5, 0.25, 0.25)
        vm = vote_of([dist, dist, dist], [1.0, 1.0, 1.0])
        assert vote_predict(vm, ROW) == dist

    def test_weight_scaling_is_exact(self):
        dists = [(0.6, 0.3, 0.1), (0.3, 0.4, 0.3), (0.2, 0.2, 0.6)]
        base = vote_predict(vote_of(dists, [1.0, 1.0, 2.0]), ROW)
        for c in (2.0, 3.0, 0.5, 10.0):
            scaled = vote_predict(vote_of(dists, [c, c, 2 * c]), ROW)
            assert scaled == base

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_scale_invariance_property(self, data):
        dists = [
            tuple(data.draw(st.floats(0.0, 1.0)) for _ in range(3)) for _ in range(3)
        ]
        dists = [
            tuple(v / s if (s := sum(d)) > 0 else 1 / 3 for v in d) for d in dists
        ]
        weights = [float(data.draw(st.integers(1, 8))) for _ in range(3)]
        c = data.draw(st.sampled_from([2.0, 4.0, 0.5, 3.0, 10.0]))
        base = vote_predict(vote_of(dists, weights), ROW)
        scaled = vote_predict(vote_of(dists, [c * w for w in weights]), ROW)
        assert scaled == base

    @settings(max_examples=300, deadline=None)
    @given(
        dists=st.lists(st.tuples(*[PROBABILITIES] * 3), min_size=3, max_size=3),
        weights=st.lists(VOTE_WEIGHTS, min_size=3, max_size=3),
    )
    def test_bit_identical_to_fraction_reference(self, dists, weights):
        assert vote_predict(vote_of(dists, weights), ROW) == fraction_vote(dists, weights)

    def test_output_is_distribution(self):
        vm = vote_of([(0.9, 0.1, 0.0), (0.2, 0.5, 0.3), (0.1, 0.1, 0.8)], [1, 2, 1])
        dist = vote_predict(vm, ROW)
        assert sum(dist) == pytest.approx(1.0, abs=1e-12)

    def test_missing_source_part_rejected(self):
        vm = vote_of([(1, 0, 0)] * 3, [1, 1, 1])
        with pytest.raises(SchemaMismatchError):
            vote_predict(vm, {"theory": (0, None)})


class TestFusionConfig:
    def test_weights_must_cover_sources(self):
        with pytest.raises(InvalidParamsError):
            FusionConfig(approach="ensemble", weights={"theory": 1.0})

    def test_weights_must_be_positive(self):
        with pytest.raises(InvalidParamsError):
            FusionConfig(weights={"theory": 1.0, "practice": 0.0, "online": 1.0})

    @pytest.mark.parametrize("bad", [math.inf, math.nan, -math.inf, -1.0])
    def test_weights_must_be_finite_and_positive(self, bad):
        with pytest.raises(InvalidParamsError):
            FusionConfig(weights={"theory": 1.0, "practice": 1.0, "online": bad})
        with pytest.raises(InvalidParamsError):
            vote_of([(1, 0, 0)] * 3, [1.0, 1.0, bad])

    def test_unknown_approach_rejected(self):
        with pytest.raises(InvalidParamsError):
            FusionConfig(approach="stacking")


class TestVoteModel:
    def test_needs_a_base_model(self):
        with pytest.raises(InvalidParamsError):
            VoteModel(models={}, weights={})

    def test_weights_must_name_the_base_models(self):
        model = fixed_model((1, 0, 0))
        with pytest.raises(InvalidParamsError):
            VoteModel(models={"theory": model}, weights={"practice": 1.0})

    def test_base_models_must_share_class_labels(self):
        other = constant_model(("Yes", "No"), "Yes")
        with pytest.raises(InvalidParamsError):
            VoteModel(
                models={"theory": fixed_model((1, 0, 0)), "online": other},
                weights={"theory": 1.0, "online": 1.0},
            )


def planted_bundle(n=90, seed=0, signal="online"):
    """Three-source bundle; only ``signal`` carries the class concept."""
    rng = random.Random(seed)
    ids = [float(i + 1) for i in range(n)]
    id_spec = AttributeSpec.numeric("id", role="id")
    columns = {
        "theory": ["Theory.A", "Theory.B"],
        "practice": ["Practice.A"],
        "online": ["Moodle.Quiz", "Moodle.Forum"],
    }
    labels = []
    values = {}
    for i in range(n):
        quiz, att, forum = (rng.randrange(3) for _ in range(3))
        cls = planted_label(quiz, att, forum if signal == "online" else 0)
        labels.append(cls)
        values[ids[i]] = {"quiz": quiz, "att": att, "forum": forum}
    sources = {}
    for name, attr_names in columns.items():
        specs = [id_spec] + [AttributeSpec.nominal(a, GRADE) for a in attr_names]
        rows = []
        for i, key in enumerate(ids):
            if name == signal:
                cells = [values[key]["quiz"], values[key]["att"]][: len(attr_names)]
                if len(attr_names) == 1:
                    cells = [values[key]["quiz"]]
            else:
                cells = [rng.randrange(3) for _ in attr_names]
            rows.append((key, *cells))
        sources[name] = DataTable(specs, rows)
    exam = DataTable(
        [id_spec, AttributeSpec.nominal("Status", STATUS, role="class")],
        [(key, labels[i]) for i, key in enumerate(ids)],
    )
    sources["exam"] = exam
    return SourceBundle(sources)


class TestApproaches:
    def test_merge_uses_all_inputs(self):
        bundle = planted_bundle()
        model, prepared = run_approach(FusionConfig(approach="merge"), bundle, "c45")
        assert prepared.kind == "merged"
        input_names = [s.name for s in prepared.merged.specs if s.role == "input"]
        assert len(input_names) == 5
        assert isinstance(model, Model)

    def test_select_uses_subset_of_merge_columns(self):
        bundle = planted_bundle()
        _, merged = run_approach(FusionConfig(approach="merge"), bundle, "c45")
        _, selected = run_approach(FusionConfig(approach="select"), bundle, "c45")
        merge_cols = {s.name for s in merged.merged.specs}
        select_cols = {s.name for s in selected.merged.specs}
        assert select_cols <= merge_cols
        assert len(select_cols) < len(merge_cols)

    def test_ensemble_trains_one_model_per_source(self):
        bundle = planted_bundle()
        model, prepared = run_approach(FusionConfig(approach="ensemble"), bundle, "c45")
        assert isinstance(model, VoteModel)
        assert set(model.models) == {"theory", "practice", "online"}
        widths = {
            name: len([s for s in table.specs if s.role == "input"])
            for name, table in prepared.per_source.items()
        }
        assert widths == {"theory": 2, "practice": 1, "online": 2}

    def test_ensemble_select_reduces_each_source(self):
        bundle = planted_bundle()
        _, full = run_approach(FusionConfig(approach="ensemble"), bundle, "c45")
        _, reduced = run_approach(
            FusionConfig(approach="ensemble-select"), bundle, "c45"
        )
        for name in ("theory", "practice", "online"):
            full_cols = {s.name for s in full.per_source[name].specs}
            reduced_cols = {s.name for s in reduced.per_source[name].specs}
            assert reduced_cols <= full_cols

    def test_signal_source_selected(self):
        bundle = planted_bundle(n=240, seed=3)
        prepared = prepare_approach(FusionConfig(approach="ensemble-select"), bundle)
        assert "Moodle.Quiz" in prepared.selected["online"]


@pytest.fixture(scope="module")
def cohort():
    raw, _ = generate(CohortSpec(n_students=60, class_counts=(20, 18, 22), seed=4))
    pre = preprocess_bundle(raw)
    return {"numeric": pre.numeric, "discretized": pre.discretized}


def prepared_view(prepared):
    """Everything a ``PreparedData`` holds, in comparable form."""
    tables = {"merged": prepared.merged} if prepared.kind == "merged" else prepared.per_source
    return prepared.kind, prepared.selected, {
        name: (table.specs, table.rows) for name, table in tables.items()
    }


class TestSelectionFit:
    @pytest.mark.parametrize("variant", ["numeric", "discretized"])
    @pytest.mark.parametrize("approach", APPROACHES)
    def test_fit_on_every_row_is_the_default(self, cohort, approach, variant):
        config, bundle = FusionConfig(approach=approach), cohort[variant]
        n = bundle["exam"].n_rows
        assert prepared_view(prepare_approach(config, bundle, range(n))) == prepared_view(
            prepare_approach(config, bundle)
        )

    def test_fit_rows_choose_the_selection_and_all_rows_stay(self, cohort):
        bundle = cohort["numeric"]
        config = FusionConfig(approach="select")
        full = prepare_approach(FusionConfig(approach="merge"), bundle).merged
        fit_rows = list(range(0, full.n_rows, 2))
        prepared = prepare_approach(config, bundle, fit_rows)
        names = select_best_attributes(full.take(fit_rows))
        assert prepared.selected == {"merged": names}
        assert prepared_view(prepared)[2]["merged"] == (
            reduce_to(full, names).specs, reduce_to(full, names).rows
        )


class TestWeightSearch:
    def test_signal_source_gets_max_weight(self):
        bundle = planted_bundle(n=240, seed=2, signal="online")
        weights = weight_search(bundle, "c45", k=5, seed=0)
        assert weights["online"] == max(weights.values())

    def test_deterministic(self):
        bundle = planted_bundle(n=120, seed=4)
        first = weight_search(bundle, "c45", k=4, seed=9)
        second = weight_search(bundle, "c45", k=4, seed=9)
        assert first == second


class TestUniformPull:
    def test_uniform_base_shifts_but_keeps_clear_argmax(self):
        # Two confident sources agree on the first class with a wide
        # margin; a third source voting uniformly (even at double
        # weight) drags the mean toward uniform without flipping it.
        third = 1.0 / 3.0
        confident = [(0.7, 0.2, 0.1), (0.6, 0.3, 0.1)]
        with_uniform = vote_of(confident + [(third, third, third)], [1.0, 1.0, 2.0])
        result = vote_predict(with_uniform, ROW)
        assert max(range(3), key=result.__getitem__) == 0
        baseline = vote_of(
            confident + [(0.7, 0.2, 0.1)], [1.0, 1.0, 0.0001]
        )
        sharp = vote_predict(baseline, ROW)
        assert result[0] < sharp[0]  # pulled toward uniform
        assert result[1] > sharp[1]
