import pytest

from fusemine.ensemble import FusionConfig
from fusemine.errors import InfeasibleRulesetError, SchemaMismatchError
from fusemine.evaluation import cross_validate
from fusemine.learners import Condition, Rule, RuleList, render_rules, predict_label
from fusemine.preprocess import fuse_sessions, preprocess_bundle
from fusemine.synth import ATTR_NAMES, CohortSpec, default_ruleset, generate
from fusemine.tabular import join_on_id


class TestDefaultRuleset:
    def test_first_rule_text(self):
        ruleset = default_ruleset()
        assert ruleset.rules[0].conditions[0].render() == "Moodle.Quiz = High"
        assert ruleset.rules[0].cls == "Pass"

    def test_dropout_rule_text(self):
        rule = default_ruleset().rules[3]
        rendered = " AND ".join(c.render() for c in rule.conditions)
        assert rendered == "Theory.Attention = Low AND Moodle.Forum = Low"
        assert rule.cls == "Dropout"

    def test_rendered_footer(self):
        from fusemine.learners import Model
        from fusemine.synth import STATUS, fused_input_specs
        from fusemine.tabular import AttributeSpec

        specs = fused_input_specs() + (
            AttributeSpec.nominal("Status", STATUS, role="class"),
        )
        model = Model("part", specs, STATUS, default_ruleset(), {})
        text = render_rules(model)
        assert text.strip().splitlines()[-1] == "Number of Rules : 5"
        assert text.splitlines()[0] == "IF Moodle.Quiz = High THEN Pass"


class TestGenerate:
    def test_default_shapes(self):
        bundle, truth = generate(CohortSpec())
        assert bundle["theory"].n_rows == 57
        assert len(bundle["theory"].specs) == 1 + 4 * 15
        assert len(bundle["practice"].specs) == 1 + 10 + 5
        assert len(bundle["online"].specs) == 1 + 4
        assert len(bundle["exam"].specs) == 2
        assert truth.n_rows == 57

    def test_exact_class_counts(self):
        _, truth = generate(CohortSpec(seed=5))
        labels = truth.specs[1].labels
        counts = [0, 0, 0]
        for row in truth.rows:
            counts[row[1]] += 1
        assert counts == [19, 17, 21]
        assert labels == ("Pass", "Fail", "Dropout")

    def test_deterministic(self):
        first = generate(CohortSpec(seed=9))
        second = generate(CohortSpec(seed=9))
        assert first == second

    def test_fusion_recovers_drawn_means(self):
        bundle, _ = generate(CohortSpec(seed=2))
        fused = fuse_sessions(bundle["theory"])
        raw = bundle["theory"]
        att_cols = [
            i for i, s in enumerate(raw.specs) if s.name.startswith("Theory.Attention.s")
        ]
        for fused_row, raw_row in zip(fused.rows, raw.rows):
            values = [raw_row[i] for i in att_cols]
            mean = sum(values) / len(values)
            attention = fused_row[fused.attr_index("Theory.Attention")]
            assert attention == pytest.approx(mean, abs=1e-9)

    def test_noise_free_rules_score_all_students(self):
        spec = CohortSpec(seed=3)
        bundle, truth = generate(spec)
        result = preprocess_bundle(bundle)
        merged = join_on_id(result.discretized, drop_id=False)
        from fusemine.learners import Model
        model = Model(
            "part", merged.specs, truth.specs[1].labels, spec.ruleset, {}
        )
        truth_by_id = {row[0]: row[1] for row in truth.rows}
        for row in merged.rows:
            predicted = predict_label(model, row)
            assert predicted == truth.specs[1].labels[truth_by_id[row[0]]]

    def test_noise_flips_observed_labels_only(self):
        spec = CohortSpec(seed=4, noise_rate=0.2)
        bundle, truth = generate(spec)
        result = preprocess_bundle(bundle)
        observed = result.discretized["exam"].sorted_by_id()
        planted = truth.sorted_by_id()
        flipped = sum(
            1 for o, p in zip(observed.rows, planted.rows) if o[1] != p[1]
        )
        assert flipped == round(0.2 * 57)

    def test_class_proportions_on_preprocessed_cohort(self):
        bundle, _ = generate(CohortSpec(seed=6))
        result = preprocess_bundle(bundle)
        exam = result.numeric["exam"]
        counts = [0, 0, 0]
        for row in exam.rows:
            counts[row[1]] += 1
        assert counts == [19, 17, 21]

    def test_infeasible_ruleset_rejected(self):
        all_pass = RuleList((Rule((), "Pass"),))
        with pytest.raises(InfeasibleRulesetError):
            generate(CohortSpec(ruleset=all_pass))

    def test_every_cohort_with_a_pass_and_a_fail_generates(self):
        # Binning pins each planted attribute's extremes to Low and High, and
        # only a Pass student has Quiz High and only a Fail student Quiz Low.
        for n in range(3, 9):
            for passes in range(1, n):
                for fails in range(1, n - passes + 1):
                    counts = (passes, fails, n - passes - fails)
                    generate(CohortSpec(n_students=n, class_counts=counts))

    def test_dropout_only_cohort_rejected(self):
        message = "'Theory.Attention' can never reach bin 'High'"
        with pytest.raises(InfeasibleRulesetError, match=message):
            generate(CohortSpec(n_students=10, class_counts=(0, 0, 10)))

    def test_bad_proportions_rejected(self):
        with pytest.raises(SchemaMismatchError):
            CohortSpec(n_students=10, class_counts=(5, 5, 5))

    def test_negative_class_count_rejected(self):
        with pytest.raises(SchemaMismatchError, match="must not be negative"):
            CohortSpec(n_students=10, class_counts=(20, -5, -5))

    @pytest.mark.parametrize(
        "condition, cls",
        [
            (Condition("Moodle.Grade", "=", "Low"), "Fail"),
            (Condition("Moodle.Quiz", "=", "Poor"), "Fail"),
            (Condition("Moodle.Quiz", "<=", 0.5), "Fail"),
            (Condition("Moodle.Quiz", "=", "Low"), "Expelled"),
        ],
        ids=["unknown-attribute", "unknown-label", "threshold", "unknown-class"],
    )
    def test_planted_rule_outside_the_schema_rejected(self, condition, cls):
        rules = RuleList((Rule((condition,), cls), Rule((), "Pass")))
        with pytest.raises(SchemaMismatchError):
            generate(CohortSpec(ruleset=rules))

    def test_missing_grade_rule_never_fires(self):
        # No drawn student has a missing grade, so a "= ?" rule on an
        # attribute the other rules test leaves the cohort as it was.
        missing = Rule((Condition("Moodle.Quiz", "=", "?"),), "Dropout")
        rules = default_ruleset().rules
        with_missing = RuleList((rules[0], missing) + rules[1:])
        mix = {"Pass": {0: 1.0, 5: 1.0}, "Dropout": {4: 1.0}}
        shifted = {"Pass": {0: 1.0, 4: 1.0}, "Dropout": {3: 1.0}}
        assert generate(CohortSpec(seed=4, ruleset=with_missing, rule_mix=mix)) == generate(
            CohortSpec(seed=4, rule_mix=shifted)
        )
        assert generate(CohortSpec(seed=4, ruleset=with_missing)) == generate(CohortSpec(seed=4))

    def test_class_only_a_missing_grade_rule_yields_is_infeasible(self):
        rules = RuleList((
            Rule((Condition("Moodle.Quiz", "=", "?"),), "Dropout"),
            Rule((Condition("Moodle.Quiz", "=", "Low"),), "Fail"),
            Rule((), "Pass"),
        ))
        with pytest.raises(InfeasibleRulesetError, match="no value combination yields class 'Dropout'"):
            generate(CohortSpec(ruleset=rules))
        generate(CohortSpec(n_students=36, class_counts=(19, 17, 0), ruleset=rules))

    def test_rule_mix_shifts_usage(self):
        mix = {"Pass": {0: 1.0}}  # every Pass student satisfies rule 1 (Quiz=High)
        bundle, truth = generate(CohortSpec(seed=7, rule_mix=mix))
        result = preprocess_bundle(bundle)
        online = result.discretized["online"].sorted_by_id()
        quiz = online.column("Moodle.Quiz")
        planted = [row[1] for row in truth.sorted_by_id().rows]
        for q, cls in zip(quiz, planted):
            if cls == 0:  # Pass
                assert q == 2  # High


class TestPipelineOnSynthetic:
    def test_ten_fused_inputs_per_variant(self):
        bundle, _ = generate(CohortSpec(seed=8))
        result = preprocess_bundle(bundle)
        for variant in (result.numeric, result.discretized):
            merged = join_on_id(variant, drop_id=True)
            inputs = [s for s in merged.specs if s.role == "input"]
            assert len(inputs) == 10
            assert [s.name for s in inputs] == list(ATTR_NAMES)

    def test_noise_free_cv_recovers_concept(self):
        bundle, _ = generate(CohortSpec(n_students=228, class_counts=(76, 68, 84), seed=9))
        result = preprocess_bundle(bundle)
        cv = cross_validate(
            FusionConfig(approach="merge"), "c45", result.discretized, k=10, seed=0
        )
        assert cv.accuracy_pct >= 95.0


class TestDocumentarySelection:
    def test_attention_quiz_forum_selected_on_shaped_cohort(self):
        # A cohort where high attention and forum activity accompany the
        # passing profiles makes the selector keep exactly the three
        # attributes the planted rules use, in schema order.
        spec = CohortSpec(
            n_students=570,
            class_counts=(190, 170, 210),
            seed=1,
            rule_mix={"Pass": {0: 1.0, 1: 1.0}},
            value_bias={
                "Theory.Attention": {"High": 6.0},
                "Moodle.Forum": {"High": 6.0},
            },
        )
        bundle, _ = generate(spec)
        result = preprocess_bundle(bundle)
        merged = join_on_id(result.discretized, drop_id=True)
        from fusemine.selection import select_best_attributes

        assert select_best_attributes(merged) == [
            "Theory.Attention",
            "Moodle.Quiz",
            "Moodle.Forum",
        ]
