import contextlib
import copy
import csv
import io
import json
import os
import shutil
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from fusemine import cli
from fusemine.cli import CliError, load_model, main
from fusemine.ensemble import FusionConfig, VoteModel, prepare_approach, vote_predict
from fusemine.evaluation import VARIANTS
from fusemine.learners import (
    ALGORITHMS, Model, RuleList, fired_rule_index, predict, train,
)
from fusemine.tabular import AttributeSpec, DataTable, SourceBundle, join_on_id

from helpers import json_values, planted_dataset

COHORT = ["synth", "--n", "57", "--seed", "5", "--out"]


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    raw = root / "raw"
    assert main(COHORT + [str(raw)]) == 0
    pre = root / "pre"
    assert main(["preprocess", "--data", str(raw), "--out", str(pre)]) == 0
    return root


class TestSynth:
    def test_writes_sources_schema_and_truth(self, workspace):
        raw = workspace / "raw"
        for name in ("theory", "practice", "online", "exam"):
            assert (raw / f"{name}.csv").is_file()
        assert (raw / "schema.json").is_file()
        assert (raw / "truth.csv").is_file()

    def test_deterministic_reruns_are_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        main(COHORT + [str(a)])
        main(COHORT + [str(b)])
        for name in ("theory.csv", "practice.csv", "online.csv", "exam.csv", "truth.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_negative_class_count_exits_2(self, tmp_path, capsys):
        out = tmp_path / "raw"
        capsys.readouterr()
        argv = ["synth", "--n", "60", "--proportions", "70", "-5", "-5", "--out", str(out)]
        assert main(argv) == 2
        assert capsys.readouterr().err == "error: class counts must not be negative\n"
        assert not out.exists()

    def test_smallest_cohort_generates(self, tmp_path):
        argv = ["synth", "--n", "3", "--proportions", "1", "1", "1", "--out", str(tmp_path)]
        assert main(argv) == 0

    def test_cohort_the_rules_cannot_produce_exits_2(self, tmp_path, capsys):
        out = tmp_path / "raw"
        capsys.readouterr()
        argv = ["synth", "--n", "10", "--proportions", "0", "0", "10", "--out", str(out)]
        assert main(argv) == 2
        assert capsys.readouterr() == (
            "", "error: attribute 'Theory.Attention' can never reach bin 'High'\n"
        )
        assert not out.exists()


class TestPreprocess:
    def test_writes_both_variants_and_params(self, workspace):
        pre = workspace / "pre"
        for variant in ("numeric", "discretized"):
            for name in ("theory", "practice", "online", "exam"):
                assert (pre / variant / f"{name}.csv").is_file()
        assert (pre / "params.json").is_file()

    def test_missing_input_exits_2(self, tmp_path, capsys):
        assert main(["preprocess", "--data", str(tmp_path / "nope"), "--out", str(tmp_path / "o")]) == 2
        assert "error" in capsys.readouterr().err

    def test_rerun_byte_identical(self, workspace, tmp_path):
        again = tmp_path / "pre2"
        assert main(["preprocess", "--data", str(workspace / "raw"), "--out", str(again)]) == 0
        for variant in ("numeric", "discretized"):
            for name in ("theory", "practice", "online", "exam"):
                assert (again / variant / f"{name}.csv").read_bytes() == (
                    workspace / "pre" / variant / f"{name}.csv"
                ).read_bytes()
        assert (again / "params.json").read_bytes() == (
            workspace / "pre" / "params.json"
        ).read_bytes()

    def test_anonymize_writes_mapping(self, workspace, tmp_path):
        out = tmp_path / "anon"
        assert main([
            "preprocess", "--data", str(workspace / "raw"), "--out", str(out),
            "--anonymize", "--seed", "3",
        ]) == 0
        mapping = (out / "id_mapping.csv").read_text(encoding="utf-8").splitlines()
        assert mapping[0] == "original,anonymous"
        assert len(mapping) == 58


class TestSelect:
    def test_writes_json_name_list(self, workspace, tmp_path):
        out = tmp_path / "selected.json"
        assert main([
            "select", "--data", str(workspace / "pre"), "--variant", "discretized",
            "--select", "cfs", "--out", str(out),
        ]) == 0
        names = json.loads(out.read_text(encoding="utf-8"))
        assert isinstance(names, list) and names
        assert all(isinstance(n, str) for n in names)

    def test_select_none_keeps_all_ten(self, workspace, capsys):
        assert main([
            "select", "--data", str(workspace / "pre"), "--select", "none",
        ]) == 0
        names = json.loads(capsys.readouterr().out)
        assert len(names) == 10

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_prints_the_select_approach_pick(self, workspace, capsys, variant):
        bundle = cli.load_bundle(workspace / "pre" / variant)
        capsys.readouterr()
        assert main(["select", "--data", str(workspace / "pre"), "--variant", variant]) == 0
        picked = prepare_approach(FusionConfig("select"), bundle).selected["merged"]
        assert json.loads(capsys.readouterr().out) == picked
        assert main([
            "select", "--data", str(workspace / "pre"), "--variant", variant, "--select", "none",
        ]) == 0
        merged = join_on_id(bundle, drop_id=True)
        inputs = [s.name for s in merged.specs if s.role == "input"]
        assert json.loads(capsys.readouterr().out) == inputs


class TestTrainAndExplain:
    def test_train_writes_model_and_text(self, workspace, tmp_path, capsys):
        out = tmp_path / "model"
        assert main([
            "train", "--data", str(workspace / "pre"), "--variant", "discretized",
            "--approach", "merge", "--algorithm", "part", "--out", str(out),
        ]) == 0
        assert (out / "model.json").is_file()
        text = (out / "model.txt").read_text(encoding="utf-8")
        assert text.strip().splitlines()[-1].startswith("Number of Rules : ")

    def test_explain_prints_rules_and_student(self, workspace, tmp_path, capsys):
        out = tmp_path / "model"
        main([
            "train", "--data", str(workspace / "pre"), "--variant", "discretized",
            "--approach", "merge", "--algorithm", "part", "--out", str(out),
        ])
        capsys.readouterr()
        assert main([
            "explain", "--model", str(out / "model.json"),
            "--student", "0", "--data", str(workspace / "pre"),
            "--variant", "discretized",
        ]) == 0
        printed = capsys.readouterr().out
        assert "IF " in printed
        assert "student 0:" in printed

    def test_explain_vote_model_has_source_sections(self, workspace, tmp_path, capsys):
        out = tmp_path / "vote"
        main([
            "train", "--data", str(workspace / "pre"), "--variant", "discretized",
            "--approach", "ensemble", "--algorithm", "ripper", "--out", str(out),
        ])
        capsys.readouterr()
        assert main(["explain", "--model", str(out / "model.json")]) == 0
        printed = capsys.readouterr().out
        for section in ("ripper rules (Theory):", "ripper rules (Practice):", "ripper rules (Moodle):"):
            assert section in printed

    def test_explain_bad_path_exits_2(self, tmp_path, capsys):
        assert main(["explain", "--model", str(tmp_path / "missing.json")]) == 2

    @pytest.mark.parametrize("weight", [float("inf"), "heavy"])
    def test_explain_bad_vote_weight_exits_2(self, workspace, tmp_path, capsys, weight):
        out = tmp_path / "vote"
        assert main([
            "train", "--data", str(workspace / "pre"), "--variant", "discretized",
            "--approach", "ensemble", "--algorithm", "c45", "--out", str(out),
        ]) == 0
        path = out / "model.json"
        payload = json.loads(path.read_text(encoding="utf-8"))
        payload["weights"]["online"] = weight
        path.write_text(json.dumps(payload), encoding="utf-8")
        capsys.readouterr()
        assert main(["explain", "--model", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.splitlines()) == 1


class TestEval:
    def test_prints_row(self, workspace, capsys):
        assert main([
            "eval", "--data", str(workspace / "pre"), "--variant", "discretized",
            "--approach", "merge", "--algorithm", "c45", "--k", "5",
        ]) == 0
        out = capsys.readouterr().out.strip()
        approach, variant, algorithm, acc, auc = out.split(",")
        assert (approach, variant, algorithm) == ("merge", "discretized", "c45")
        assert 0 <= float(acc) <= 100
        assert 0 <= float(auc) <= 1

    def test_bad_k_exits_2(self, workspace):
        assert main([
            "eval", "--data", str(workspace / "pre"), "--k", "1",
        ]) == 2

    @pytest.mark.parametrize("weights", ["1,1,inf", "1,1,nan"])
    def test_non_finite_weight_exits_2(self, workspace, capsys, weights):
        assert main([
            "eval", "--data", str(workspace / "pre"), "--variant", "discretized",
            "--approach", "ensemble", "--algorithm", "c45", "--k", "3",
            "--weights", weights,
        ]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.splitlines()) == 1


class TestSingleVariant:
    @pytest.mark.parametrize("argv", [
        ["select", "--data", "d"],
        ["train", "--data", "d", "--out", "o"],
        ["eval", "--data", "d"],
        ["explain", "--model", "m.json", "--student", "0", "--data", "d"],
    ], ids=lambda argv: argv[0])
    def test_variant_both_exits_2(self, argv, capsys):
        with pytest.raises(SystemExit) as exited:
            main(argv + ["--variant", "both"])
        assert exited.value.code == 2
        assert "invalid choice: 'both'" in capsys.readouterr().err


class TestKAboveCohort:
    @pytest.mark.parametrize("extra", [
        ["eval", "--variant", "discretized", "--algorithm", "c45"],
        ["experiment", "--variant", "both", "--algorithm", "c45"],
        ["experiment", "--variant", "discretized", "--algorithm", "c45", "--weight-search"],
    ], ids=["eval", "experiment", "experiment-weight-search"])
    def test_k_above_cohort_exits_2(self, workspace, tmp_path, capsys, extra):
        # The workspace cohort has 57 students, so 500 folds cannot be built.
        command, *flags = extra
        if command == "experiment":
            flags += ["--out", str(tmp_path / "r")]
        capsys.readouterr()
        assert main([command, "--data", str(workspace / "pre"), "--k", "500"] + flags) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: --k 500 exceeds the 57 students in the cohort\n"
        assert "weight search chose" not in captured.out
        assert not (tmp_path / "r").exists()


class TestExperiment:
    def test_small_grid_outputs(self, workspace, tmp_path, capsys):
        out = tmp_path / "reports"
        assert main([
            "experiment", "--data", str(workspace / "pre"), "--variant", "both",
            "--approach", "merge", "--algorithm", "c45,part", "--k", "5",
            "--out", str(out),
        ]) == 0
        assert (out / "report.csv").is_file()
        assert (out / "report_merge_numeric.txt").is_file()
        assert (out / "report_merge_discretized.txt").is_file()
        assert (out / "summary.txt").is_file()
        assert "best cell:" in capsys.readouterr().out
        assert not (out / "weights.csv").exists()
        lines = (out / "report.csv").read_text(encoding="utf-8").splitlines()
        assert lines[0] == "approach,variant,algorithm,accuracy_pct,auc"
        assert len(lines) == 1 + 2 * 2

    def test_approach_all_runs_every_approach(self, workspace, tmp_path):
        out = tmp_path / "r"
        assert main([
            "experiment", "--data", str(workspace / "pre"), "--variant", "discretized",
            "--approach", "all", "--algorithm", "c45", "--k", "3", "--out", str(out),
        ]) == 0
        rows = (out / "report.csv").read_text(encoding="utf-8").splitlines()[1:]
        assert sorted(row.split(",")[0] for row in rows) == [
            "ensemble", "ensemble-select", "merge", "select",
        ]

    def test_every_row_equals_eval_of_its_cell(self, workspace, tmp_path, capsys):
        out = tmp_path / "r"
        assert main([
            "experiment", "--data", str(workspace / "pre"), "--algorithm", "c45,nnge",
            "--k", "3", "--seed", "4", "--out", str(out),
        ]) == 0
        rows = (out / "report.csv").read_text(encoding="utf-8").splitlines()[1:]
        assert len(rows) == 4 * 2 * 2
        for row in rows:
            approach, variant, algorithm = row.split(",")[:3]
            capsys.readouterr()
            assert main([
                "eval", "--data", str(workspace / "pre"), "--variant", variant,
                "--approach", approach, "--algorithm", algorithm, "--k", "3", "--seed", "4",
            ]) == 0
            assert capsys.readouterr().out == row + "\n"

    @pytest.mark.parametrize("algorithms", [",", "cart", "c45,c45", "c45, part ,c45"])
    def test_bad_algorithm_list_exits_2(self, workspace, tmp_path, capsys, algorithms):
        capsys.readouterr()
        assert main([
            "experiment", "--data", str(workspace / "pre"), "--variant", "discretized",
            "--approach", "merge", "--algorithm", algorithms, "--k", "3",
            "--out", str(tmp_path / "r"),
        ]) == 2
        assert_one_line_error(capsys)
        assert not (tmp_path / "r").exists()

    def test_repeated_algorithm_in_run_config_exits_2(self, workspace, tmp_path, capsys):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"algorithm": "c45,c45"}), encoding="utf-8")
        capsys.readouterr()
        assert main([
            "experiment", "--data", str(workspace / "pre"), "--variant", "discretized",
            "--approach", "merge", "--k", "3", "--config", str(config),
            "--out", str(tmp_path / "r"),
        ]) == 2
        assert capsys.readouterr().err == "error: algorithm 'c45' is named more than once\n"
        assert not (tmp_path / "r").exists()


SEARCH_PAIRS = [
    (approach, variant)
    for approach in ("ensemble", "ensemble-select")
    for variant in ("numeric", "discretized")
]


@pytest.fixture(scope="module")
def searched(workspace, tmp_path_factory):
    """An ``experiment --weight-search`` run over all approaches and both
    variants, with its stdout and report directory."""
    out = tmp_path_factory.mktemp("searched") / "reports"
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        code = main([
            "experiment", "--data", str(workspace / "pre"), "--algorithm", "c45,ripper",
            "--k", "3", "--seed", "4", "--weight-search", "--out", str(out),
        ])
    assert code == 0
    return printed.getvalue(), out


class TestExperimentWeightSearch:
    def test_one_line_and_row_per_pair(self, searched):
        printed, out = searched
        lines = [line for line in printed.splitlines() if line.startswith("weight search chose")]
        rows = (out / "weights.csv").read_text(encoding="utf-8").splitlines()
        assert rows[0] == "approach,variant,theory,practice,online"
        assert [tuple(row.split(",")[:2]) for row in rows[1:]] == SEARCH_PAIRS
        for line, row in zip(lines, rows[1:], strict=True):
            approach, variant, *weights = row.split(",")
            assert line == (
                f"weight search chose theory,practice,online = {','.join(weights)} "
                f"for {approach} / {variant}"
            )
            assert {float(w) for w in weights} <= {1.0, 2.0}

    def test_searched_rows_equal_eval_with_the_winner(self, workspace, searched, capsys):
        _printed, out = searched
        winners = {
            (approach, variant): weights
            for approach, variant, weights in (
                row.split(",", 2)
                for row in (out / "weights.csv").read_text(encoding="utf-8").splitlines()[1:]
            )
        }
        report = (out / "report.csv").read_text(encoding="utf-8").splitlines()[1:]
        checked = 0
        for row in report:
            approach, variant, algorithm = row.split(",")[:3]
            if (approach, variant) not in winners:
                continue
            capsys.readouterr()
            assert main([
                "eval", "--data", str(workspace / "pre"), "--variant", variant,
                "--approach", approach, "--algorithm", algorithm, "--k", "3", "--seed", "4",
                "--weights", winners[(approach, variant)],
            ]) == 0
            assert capsys.readouterr().out == row + "\n"
            checked += 1
        assert checked == len(SEARCH_PAIRS) * 2
        assert set(winners.values()) != {"1,1,1"}

    def test_only_the_ensemble_approaches_are_searched(self, workspace, tmp_path, capsys):
        out = tmp_path / "r"
        assert main([
            "experiment", "--data", str(workspace / "pre"), "--variant", "discretized",
            "--approach", "merge", "--algorithm", "c45", "--k", "3",
            "--weight-search", "--out", str(out),
        ]) == 0
        assert "weight search chose" not in capsys.readouterr().out
        assert (out / "weights.csv").read_text(encoding="utf-8") == (
            "approach,variant,theory,practice,online\n"
        )

    def test_bad_bundle_exits_2_in_one_line(self, workspace, tmp_path, capsys):
        broken = tmp_path / "pre"
        shutil.copytree(workspace / "pre", broken)
        (broken / "numeric" / "schema.json").write_text("{not json", encoding="utf-8")
        capsys.readouterr()
        assert main([
            "experiment", "--data", str(broken), "--approach", "ensemble", "--algorithm", "c45",
            "--k", "3", "--weight-search", "--out", str(tmp_path / "r"),
        ]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and len(captured.err.splitlines()) == 1
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("flags, message", [
        (["--k", "x"], "argument --k: invalid int value: 'x'"),
        (["--approach", "vote"], "argument --approach: invalid choice: 'vote'"),
    ], ids=["bad-int", "bad-approach"])
    def test_bad_flag_exits_2_in_one_line(self, workspace, tmp_path, capsys, flags, message):
        capsys.readouterr()
        with pytest.raises(SystemExit) as exited:
            main([
                "experiment", "--data", str(workspace / "pre"), "--weight-search",
                "--out", str(tmp_path / "r"),
            ] + flags)
        assert exited.value.code == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert ": error: " + message in err

    def test_bad_algorithm_exits_2_in_one_line(self, workspace, tmp_path, capsys):
        capsys.readouterr()
        assert main([
            "experiment", "--data", str(workspace / "pre"), "--approach", "ensemble",
            "--algorithm", "cart", "--weight-search", "--out", str(tmp_path / "r"),
        ]) == 2
        assert capsys.readouterr().err == "error: unknown algorithm 'cart'\n"
        assert not (tmp_path / "r").exists()


class TestStudentExplainEveryApproach:
    @pytest.mark.parametrize("algorithm", ["c45", "nnge"])
    @pytest.mark.parametrize("approach", ["merge", "select", "ensemble", "ensemble-select"])
    def test_exits_0(self, workspace, tmp_path, capsys, approach, algorithm):
        out = tmp_path / "model"
        assert main([
            "train", "--data", str(workspace / "pre"), "--variant", "discretized",
            "--approach", approach, "--algorithm", algorithm, "--out", str(out),
        ]) == 0
        capsys.readouterr()
        assert main([
            "explain", "--model", str(out / "model.json"), "--student", "3",
            "--data", str(workspace / "pre"), "--variant", "discretized",
        ]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        vote = approach.startswith("ensemble")
        assert ("combined vote ->" if vote else "predicted ") in captured.out
        assert ("leaf path: " in captured.out) == (algorithm == "c45" and not vote)

    def test_missing_cell_without_a_branch_prints_no_leaf_path(
        self, workspace, explain_models, tmp_path, capsys
    ):
        """The tree's root splits on ``Moodle.Quiz``, and its training data
        had no gap there, so a student without a quiz grade stops at the root,
        and the explanation says so in place of a leaf path."""
        model = explain_models[("discretized", "merge")]
        data = tmp_path / "pre"
        shutil.copytree(workspace / "pre" / "discretized", data / "discretized")
        path = data / "discretized" / "online.csv"
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0].startswith("id,Moodle.Quiz,")
        cells = lines[1].split(",")
        cells[1] = ""
        lines[1] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        capsys.readouterr()
        assert main([
            "explain", "--model", str(model), "--student", "0", "--data", str(data),
        ]) == 0
        text = (model.parent / "model.txt").read_text(encoding="utf-8")
        assert text.startswith("IF Moodle.Quiz = ")
        assert capsys.readouterr() == (
            text + "\nstudent 0: predicted Dropout\n"
            "stopped at: (root); no branch for Moodle.Quiz = ?\n",
            "",
        )

    def test_attribute_missing_from_data_exits_2(self, workspace, tmp_path, capsys):
        out = tmp_path / "model"
        assert main([
            "train", "--data", str(workspace / "pre"), "--approach", "select",
            "--algorithm", "c45", "--out", str(out),
        ]) == 0
        path = out / "model.json"
        payload = json.loads(path.read_text(encoding="utf-8"))
        payload["model"]["schema"][0]["name"] = "Theory.Absent"
        path.write_text(json.dumps(payload), encoding="utf-8")
        capsys.readouterr()
        assert main([
            "explain", "--model", str(path), "--student", "3", "--data", str(workspace / "pre"),
        ]) == 2
        assert capsys.readouterr().err == "error: no attribute named 'Theory.Absent'\n"

    def test_other_variant_exits_2(self, workspace, tmp_path, capsys):
        out = tmp_path / "model"
        assert main([
            "train", "--data", str(workspace / "pre"), "--variant", "discretized",
            "--algorithm", "c45", "--out", str(out),
        ]) == 0
        capsys.readouterr()
        assert main([
            "explain", "--model", str(out / "model.json"), "--student", "3",
            "--data", str(workspace / "pre"), "--variant", "numeric",
        ]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: attribute ") and len(err.splitlines()) == 1

    def test_source_missing_from_data_exits_2(self, workspace, tmp_path, capsys):
        out = tmp_path / "vote"
        assert main([
            "train", "--data", str(workspace / "pre"), "--approach", "ensemble",
            "--algorithm", "c45", "--out", str(out),
        ]) == 0
        data = tmp_path / "pre"
        shutil.copytree(workspace / "pre" / "discretized", data / "discretized")
        schema = data / "discretized" / "schema.json"
        sources = json.loads(schema.read_text(encoding="utf-8"))
        del sources["online"]
        schema.write_text(json.dumps(sources), encoding="utf-8")
        capsys.readouterr()
        assert main([
            "explain", "--model", str(out / "model.json"), "--student", "3", "--data", str(data),
        ]) == 2
        assert capsys.readouterr().err == "error: the data lacks the 'online' or 'exam' source\n"


class TestVoteStudentExplain:
    def test_vote_model_student_breakdown(self, workspace, tmp_path, capsys):
        out = tmp_path / "vote"
        main([
            "train", "--data", str(workspace / "pre"), "--variant", "discretized",
            "--approach", "ensemble", "--algorithm", "c45", "--out", str(out),
        ])
        capsys.readouterr()
        assert main([
            "explain", "--model", str(out / "model.json"), "--student", "2",
            "--data", str(workspace / "pre"), "--variant", "discretized",
        ]) == 0
        printed = capsys.readouterr().out
        assert "Theory model votes" in printed
        assert "combined vote ->" in printed


class TestThreadEnv:
    def test_thread_cap_keeps_outputs_identical(self, workspace, tmp_path, monkeypatch):
        # The grid no longer reads FUSEMINE_THREADS: any value, even one
        # that is not a number, leaves the run and its report unchanged.
        argv = [
            "experiment", "--data", str(workspace / "pre"), "--variant", "discretized",
            "--approach", "merge", "--algorithm", "c45,part", "--k", "3",
        ]
        assert main(argv + ["--out", str(tmp_path / "unset")]) == 0
        expected = (tmp_path / "unset" / "report.csv").read_bytes()
        for value in ("4", "abc"):
            monkeypatch.setenv("FUSEMINE_THREADS", value)
            assert main(argv + ["--out", str(tmp_path / value)]) == 0
            assert (tmp_path / value / "report.csv").read_bytes() == expected


class TestRunConfigFile:
    def test_config_fills_flags_and_flags_override(self, workspace, tmp_path, capsys):
        config = tmp_path / "run.json"
        config.write_text(
            json.dumps({"algorithm": "c45", "k": 3, "approach": "merge"}),
            encoding="utf-8",
        )
        assert main([
            "eval", "--data", str(workspace / "pre"), "--variant", "discretized",
            "--config", str(config),
        ]) == 0
        assert capsys.readouterr().out.startswith("merge,discretized,c45,")
        assert main([
            "eval", "--data", str(workspace / "pre"), "--variant", "discretized",
            "--config", str(config), "--algorithm", "part",
        ]) == 0
        assert capsys.readouterr().out.startswith("merge,discretized,part,")

    def test_unknown_config_key_exits_2(self, workspace, tmp_path):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"bogus": 1}), encoding="utf-8")
        assert main([
            "eval", "--data", str(workspace / "pre"), "--config", str(config),
        ]) == 2

    def test_explicit_flag_beats_config(self, workspace, tmp_path):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"k": 3}), encoding="utf-8")
        for flags in (["--k=5"], ["--k", "5"]):
            out = tmp_path / "eval.json"
            assert main([
                "eval", "--data", str(workspace / "pre"), "--algorithm", "c45",
                *flags, "--config", str(config), "--out", str(out),
            ]) == 0
            assert len(json.loads(out.read_text(encoding="utf-8"))["fold_accuracy"]) == 5

    @pytest.mark.parametrize("text", [
        '{"k": [1]}', '{"k": 3.5}', '{"algorithm": "cart"}', '{"k": 1%s}' % ("0" * 5000),
    ], ids=["list", "float", "bad-choice", "over-long-int"])
    def test_wrongly_typed_value_exits_2(self, workspace, tmp_path, text):
        config = tmp_path / "run.json"
        config.write_text(text, encoding="utf-8")
        argv = ["eval", "--data", str(workspace / "pre"), "--config", str(config)]
        assert exit_code(argv) == 2


def exit_code(argv):
    """``main``'s exit code, also when argparse exits."""
    try:
        return main(argv)
    except SystemExit as exited:
        return exited.code


def assert_one_line_error(capsys):
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1


class TestArgparseErrors:
    @pytest.mark.parametrize("argv", [
        ["eval", "--data", "d", "--k", "3.5"],
        ["eval", "--data", "d", "--variant", "both"],
        ["train", "--data", "d"],
        ["bogus"],
        [],
        ["train", "--data", "d", "--approach", "all", "--out", "o"],
        ["eval", "--data", "d", "--approach", "all"],
    ], ids=[
        "bad-int", "bad-choice", "missing-flag", "bad-command", "no-command",
        "train-approach-all", "eval-approach-all",
    ])
    def test_one_line_and_exit_2(self, argv, capsys):
        assert exit_code(argv) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith("fusemine") and ": error: " in err

    def test_run_config_value_gives_one_line(self, tmp_path, capsys):
        config = tmp_path / "c.json"
        config.write_text('{"k": 3.5}', encoding="utf-8")
        assert exit_code(["eval", "--data", "d", "--config", str(config)]) == 2
        assert capsys.readouterr().err == (
            "fusemine eval: error: argument --k: invalid int value: '3.5'\n"
        )


def test_an_old_python_is_refused_before_any_work(monkeypatch, tmp_path, capsys):
    """Python 3.9 lacks ``int.bit_count``; ``main`` names the running
    version and the requirement in one line, and writes nothing."""
    monkeypatch.setattr(sys, "version_info", (3, 9, 18, "final", 0))
    out = tmp_path / "raw"
    assert exit_code(COHORT + [str(out)]) == 2
    assert capsys.readouterr().err == (
        "error: Python 3.9.18 is too old; fusemine needs requires-python >= 3.10\n"
    )
    assert not out.exists()


class TestMalformedModelFile:
    @pytest.mark.parametrize("text", [
        "not json {",
        '{"kind": "vote"}',
        '{"kind": "vote", "models": {}, "weights": {}}',
        '["kind", "vote"]',
        '"vote"',
        "\udcff not utf-8",
    ])
    def test_exits_2(self, tmp_path, capsys, text):
        path = tmp_path / "model.json"
        path.write_bytes(text.encode("utf-8", "surrogateescape"))
        assert main(["explain", "--model", str(path)]) == 2
        assert_one_line_error(capsys)

    def test_older_file_with_vote_rule_still_loads(self, workspace, tmp_path, capsys):
        out = tmp_path / "vote"
        assert main([
            "train", "--data", str(workspace / "pre"), "--approach", "ensemble",
            "--algorithm", "c45", "--out", str(out),
        ]) == 0
        path = out / "model.json"
        payload = json.loads(path.read_text(encoding="utf-8"))
        assert "combination_rule" not in payload
        payload["combination_rule"] = "average_of_probabilities"
        path.write_text(json.dumps(payload), encoding="utf-8")
        capsys.readouterr()
        assert main(["explain", "--model", str(path)]) == 0
        assert capsys.readouterr().out == (out / "model.txt").read_text(encoding="utf-8")


@pytest.fixture(scope="module")
def numeric_merge_models(workspace):
    """The model file of a numeric merge C4.5, RIPPER and NNGE."""
    paths = {}
    for algorithm in ("c45", "ripper", "nnge"):
        out = workspace / f"numeric-merge-{algorithm}"
        assert main([
            "train", "--data", str(workspace / "pre"), "--variant", "numeric",
            "--approach", "merge", "--algorithm", algorithm, "--out", str(out),
        ]) == 0
        paths[algorithm] = out / "model.json"
    return paths


EXEMPLAR_MISFIT = (
    "exemplar 1 needs a class index, a member count, an interval for every numeric "
    "input and label slots for every nominal input"
)


class TestMalformedModelStructure:
    @pytest.mark.parametrize("algorithm, path, value, message", [
        ("c45", ("root", "threshold"), "abc",
         "a split on 'Moodle.Quiz' needs a finite threshold and two children"),
        ("c45", ("root", "attr"), 99, "a split tests 99, which is not an input attribute"),
        ("c45", ("root", "children"), [],
         "a split on 'Moodle.Quiz' needs a finite threshold and two children"),
        ("ripper", ("rules", 0, "conditions", 0, "value"), "abc",
         "rule 1: Moodle.Quiz <= 'abc' does not fit the numeric attribute"),
        ("ripper", ("rules", 0, "conditions", 0, "attr"), "Moodle.Nope",
         "rule 1 tests 'Moodle.Nope', which is not an input attribute"),
        ("nnge", ("exemplars", 0, "cls"), 9, EXEMPLAR_MISFIT),
        ("nnge", ("exemplars", 0, "lo", "0"), "x", EXEMPLAR_MISFIT),
        ("nnge", ("ranges", "0"), [1], "range of attribute 0 is not a numeric input's interval"),
    ], ids=[
        "threshold", "attr", "children", "rule-value", "rule-attr", "exemplar-cls",
        "exemplar-lo", "range",
    ])
    @pytest.mark.parametrize("student", [False, True], ids=["render", "student"])
    def test_exits_2_in_one_line(
        self, workspace, numeric_merge_models, tmp_path, capsys, algorithm, path, value,
        message, student,
    ):
        payload = json.loads(numeric_merge_models[algorithm].read_text(encoding="utf-8"))
        payload["model"]["structure"] = replaced(payload["model"]["structure"], path, value)
        file = tmp_path / "model.json"
        file.write_text(json.dumps(payload), encoding="utf-8")
        argv = ["explain", "--model", str(file)]
        if student:
            argv += ["--student", "0", "--data", str(workspace / "pre"), "--variant", "numeric"]
        capsys.readouterr()
        assert main(argv) == 2
        assert capsys.readouterr() == (
            "", f"error: malformed model file {file}: SchemaMismatchError: {message}\n"
        )


JSON_VALUES = json_values()


def json_paths(value, prefix=()):
    """Every key/index path into a JSON value, the root included."""
    yield prefix
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return
    for key, child in items:
        yield from json_paths(child, prefix + (key,))


def replaced(value, path, new):
    if not path:
        return new
    value = copy.deepcopy(value)
    parent = value
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = new
    return value


@pytest.fixture(scope="module")
def stored_models(workspace, numeric_merge_models):
    payloads = []
    for approach, algorithm in (("ensemble", "ripper"), ("merge", "c45"), ("merge", "nnge")):
        out = workspace / f"stored-{approach}-{algorithm}"
        assert main([
            "train", "--data", str(workspace / "pre"), "--approach", approach,
            "--algorithm", algorithm, "--out", str(out),
        ]) == 0
        payloads.append(json.loads((out / "model.json").read_text(encoding="utf-8")))
    for path in numeric_merge_models.values():
        payloads.append(json.loads(path.read_text(encoding="utf-8")))
    return payloads


def model_row(data, model: Model) -> tuple:
    """A row in ``model``'s schema: a finite number, a label or a gap per input.

    A nominal input with no labels has only the gap.
    """
    def cell(spec):
        if spec.is_numeric:
            return st.none() | st.floats(allow_nan=False, allow_infinity=False)
        if not spec.labels:
            return st.none()
        return st.none() | st.integers(0, len(spec.labels) - 1)

    return tuple(
        data.draw(cell(spec)) if spec.role == "input" else None for spec in model.specs
    )


class TestLoadModelFuzz:
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_loads_or_exits_2(self, data, stored_models, tmp_path_factory):
        """``load_model`` on any JSON value loads or raises ``CliError`` with code 2;
        a model that loads renders, and predicts any row of its schema."""
        base = data.draw(st.sampled_from(stored_models + [None]))
        if base is None:
            payload = data.draw(JSON_VALUES)
        else:
            path = data.draw(st.sampled_from(list(json_paths(base))))
            payload = replaced(base, path, data.draw(JSON_VALUES))
        file = tmp_path_factory.mktemp("fuzz") / "model.json"
        file.write_text(json.dumps(payload), encoding="utf-8")
        try:
            model = load_model(file)
        except CliError as err:
            assert err.code == 2
            assert "\n" not in str(err)
        else:
            assert isinstance(model, (Model, VoteModel))
            cli.render_model(model)
            bases = model.models if isinstance(model, VoteModel) else {"merged": model}
            rows = {name: model_row(data, base) for name, base in bases.items()}
            for name, base in bases.items():
                predict(base, rows[name])
                if isinstance(base.structure, RuleList):
                    fired_rule_index(base, rows[name])
            if isinstance(model, VoteModel):
                vote_predict(model, rows)


class TestLabelLessInput:
    @pytest.mark.parametrize("algorithm", ["c45", "reptree", "randomtree", "ripper", "part"])
    def test_untested_input_loads_renders_and_predicts(self, algorithm, tmp_path):
        """An input with no labels has every cell missing, so no condition tests it;
        a model trained beside it loads, renders and predicts a row that lacks it."""
        planted = planted_dataset(n=60, seed=3)
        specs = [*planted.specs[:-1], AttributeSpec.nominal("Blank", ()), planted.specs[-1]]
        table = DataTable(specs, [(*row[:-1], None, row[-1]) for row in planted.rows])
        model = train(algorithm, table)
        file = tmp_path / "model.json"
        cli.save_model(model, file)
        loaded = load_model(file)
        assert loaded.specs[-2].labels == ()
        assert "Blank" not in cli.render_model(loaded)
        for row in table.rows[:10]:
            assert predict(loaded, row) == predict(model, row)


#: A minimal command line for each subcommand that takes a run config.
CONFIG_ARGV = {
    "synth": ["synth", "--out", "o"],
    "train": ["train", "--data", "d", "--out", "o"],
    "eval": ["eval", "--data", "d"],
    "experiment": ["experiment", "--data", "d", "--out", "o"],
}

#: The type argparse gives each one-value or switch flag.
FLAG_TYPES = {
    "n": int, "noise": float, "seed": int, "k": int, "data": str, "out": str,
    "config": str, "variant": str, "approach": str, "algorithm": str, "weights": str,
    "fold_local_select": bool, "weight_search": bool,
}

#: Plausible flag values first, then any JSON value.
CONFIG_VALUES = (
    st.sampled_from(["3", "c45", "both", "numeric", "merge", "1,1,1", "-1"])
    | st.integers(-3, 30)
    | st.floats(-3, 30)
    | st.booleans()
    | st.lists(st.integers(-3, 30), max_size=4)
    | JSON_VALUES
)


def assert_valid_namespace(args):
    for name, value in vars(args).items():
        if name in ("command", "func") or (name == "out" and value is None):
            continue
        if name == "proportions":
            assert len(value) == 3 and all(type(v) is int for v in value)
        else:
            assert type(value) is FLAG_TYPES[name], (name, value)
    if args.command in ("train", "eval"):
        assert args.algorithm in ALGORITHMS
        assert args.variant in VARIANTS
    if args.command == "experiment":
        assert args.variant in (*VARIANTS, "both")


class TestRunConfigFuzz:
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_valid_namespace_or_exits_2(self, data, tmp_path_factory):
        """Any JSON object as a run config parses as flags would, or exits 2."""
        command = data.draw(st.sampled_from(sorted(CONFIG_ARGV)))
        parser = cli.build_parser()
        config = tmp_path_factory.mktemp("run-config") / "run.json"
        argv = CONFIG_ARGV[command] + ["--config", str(config)]
        # The subcommand's own flags in either spelling; now and then a key no flag has.
        own = sorted(set(vars(parser.parse_args(argv))) - {"command", "func", "config"})
        keys = st.sampled_from(own + [k.replace("_", "-") for k in own if "_" in k])
        payload = data.draw(st.dictionaries(keys, CONFIG_VALUES, max_size=3))
        if data.draw(st.integers(0, 3)) == 0:
            junk = st.text(max_size=6) | st.sampled_from(["command", "func", "config"])
            payload[data.draw(junk)] = data.draw(CONFIG_VALUES)
        config.write_text(json.dumps(payload), encoding="utf-8")
        try:
            with contextlib.redirect_stderr(io.StringIO()):
                args = cli._merge_config(parser, parser.parse_args(argv), argv)
        except SystemExit as exited:
            assert exited.code == 2
        except CliError as err:
            assert err.code == 2
            assert "\n" not in str(err)
        else:
            assert_valid_namespace(args)


def fuzzed_raw(data, bundle, tmp_path_factory) -> Path:
    """A copy of the ``bundle`` directory with one fuzzed schema value or CSV line."""
    raw = tmp_path_factory.mktemp("bundle-fuzz")
    for path in bundle.iterdir():
        shutil.copy(path, raw)
    if data.draw(st.booleans()):
        schemas = json.loads((raw / "schema.json").read_text(encoding="utf-8"))
        path = data.draw(st.sampled_from(list(json_paths(schemas))))
        payload = replaced(schemas, path, data.draw(JSON_VALUES))
        (raw / "schema.json").write_text(json.dumps(payload), encoding="utf-8")
    else:
        name = data.draw(st.sampled_from(["theory", "practice", "online", "exam"]))
        lines = (raw / f"{name}.csv").read_text(encoding="utf-8").splitlines()
        at = data.draw(st.integers(0, len(lines) - 1))
        lines[at] = data.draw(st.text(st.characters(codec="utf-8"), max_size=30))
        (raw / f"{name}.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    return raw


CELL_VALUES = st.one_of(
    st.sampled_from(["", "Low", "High", "Pass", "Dropout", "0", "1", "-1", "1e308", "5e-324"]),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.text(max_size=4),
)


def fuzzed_cells(data, bundle, tmp_path_factory) -> Path:
    """A copy of the ``bundle`` directory with up to four CSV cells replaced."""
    raw = tmp_path_factory.mktemp("cell-fuzz")
    for path in bundle.iterdir():
        shutil.copy(path, raw)
    for _ in range(data.draw(st.integers(1, 4))):
        path = raw / f"{data.draw(st.sampled_from(['theory', 'practice', 'online', 'exam']))}.csv"
        lines = path.read_text(encoding="utf-8").splitlines()
        at = data.draw(st.integers(1, len(lines) - 1))
        cells = lines[at].split(",")
        cells[data.draw(st.integers(0, len(cells) - 1))] = data.draw(CELL_VALUES)
        lines[at] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return raw


FINITE_NUMBERS = st.one_of(
    st.sampled_from([1e308, -1e308, -0.0, 5e-324, -5e-324]),
    st.floats(allow_nan=False, allow_infinity=False),
)


def fuzzed_kind_cells(data, bundle, tmp_path_factory) -> Path:
    """A copy of the ``bundle`` directory with up to four CSV cells replaced
    by a value of the column's kind in ``schema.json`` (a finite number or
    one of the column's labels) or by an empty cell.  Id cells are left
    alone: the other fuzzers cover a damaged id, which no learner sees."""
    raw = tmp_path_factory.mktemp("kind-fuzz")
    for path in bundle.iterdir():
        shutil.copy(path, raw)
    schemas = json.loads((raw / "schema.json").read_text(encoding="utf-8"))
    for _ in range(data.draw(st.integers(1, 4))):
        source = data.draw(st.sampled_from(sorted(schemas)))
        path = raw / f"{source}.csv"
        lines = path.read_text(encoding="utf-8").splitlines()
        at = data.draw(st.integers(1, len(lines) - 1))
        cells = lines[at].split(",")
        schema = schemas[source]
        column = data.draw(st.sampled_from(
            [i for i, entry in enumerate(schema) if entry["role"] != "id"]
        ))
        labels = schema[column].get("labels")
        values = st.sampled_from(labels) if labels else FINITE_NUMBERS.map(repr)
        cells[column] = data.draw(values | st.just(""))
        lines[at] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return raw


def fuzzed_pre(data, workspace, tmp_path_factory) -> tuple[Path, str]:
    """A data root holding one preprocessed variant with a fuzzed schema,
    line or cells, and the variant's name."""
    variant = data.draw(st.sampled_from(VARIANTS))
    fuzzed = data.draw(st.sampled_from([fuzzed_raw, fuzzed_cells, fuzzed_kind_cells]))
    bundle = fuzzed(data, workspace / "pre" / variant, tmp_path_factory)
    root = tmp_path_factory.mktemp("pre-fuzz")
    bundle.rename(root / variant)
    return root, variant


def assert_runs_or_exits_2(argv, capsys):
    capsys.readouterr()
    code = main(argv)
    if code != 0:
        assert code == 2
        assert_one_line_error(capsys)


@pytest.fixture(scope="module")
def explain_models(workspace):
    """The model file of a merge and an ensemble C4.5 on each variant."""
    paths = {}
    for variant in VARIANTS:
        for approach in ("merge", "ensemble"):
            out = workspace / f"explain-{variant}-{approach}"
            assert main([
                "train", "--data", str(workspace / "pre"), "--variant", variant,
                "--approach", approach, "--algorithm", "c45", "--out", str(out),
            ]) == 0
            paths[(variant, approach)] = out / "model.json"
    return paths


class TestBundleFuzz:
    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_loads_or_exits_2(self, data, workspace, tmp_path_factory):
        """A raw bundle with a fuzzed schema or CSV file loads, or exits 2 in one line."""
        raw = fuzzed_raw(data, workspace / "raw", tmp_path_factory)
        try:
            bundle = cli.load_bundle(raw)
        except CliError as err:
            assert err.code == 2
            assert len(str(err).splitlines()) == 1
        else:
            assert isinstance(bundle, SourceBundle)

    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_preprocess_runs_or_exits_2(self, data, workspace, tmp_path_factory, capsys):
        """``preprocess`` on a fuzzed raw bundle exits 0, or 2 with a one-line error."""
        raw = fuzzed_raw(data, workspace / "raw", tmp_path_factory)
        capsys.readouterr()
        code = main(["preprocess", "--data", str(raw), "--out", str(raw / "pre")])
        if code != 0:
            assert code == 2
            assert_one_line_error(capsys)


    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_select_runs_or_exits_2(self, data, workspace, tmp_path_factory, capsys):
        """``select`` on a fuzzed preprocessed bundle exits 0, or 2 with a one-line error."""
        root, variant = fuzzed_pre(data, workspace, tmp_path_factory)
        assert_runs_or_exits_2(["select", "--data", str(root), "--variant", variant], capsys)

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_train_runs_or_exits_2(self, data, workspace, tmp_path_factory, capsys):
        """``train`` on a fuzzed preprocessed bundle exits 0, or 2 with a one-line error."""
        root, variant = fuzzed_pre(data, workspace, tmp_path_factory)
        approach = data.draw(st.sampled_from(["merge", "ensemble-select"]))
        assert_runs_or_exits_2([
            "train", "--data", str(root), "--variant", variant, "--approach", approach,
            "--algorithm", "c45", "--out", str(root / "model"),
        ], capsys)

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_eval_runs_or_exits_2(self, data, workspace, tmp_path_factory, capsys):
        """``eval`` on a fuzzed preprocessed bundle exits 0, or 2 with a one-line error."""
        root, variant = fuzzed_pre(data, workspace, tmp_path_factory)
        approach = data.draw(st.sampled_from(["merge", "ensemble-select"]))
        assert_runs_or_exits_2([
            "eval", "--data", str(root), "--variant", variant, "--approach", approach,
            "--algorithm", "c45", "--k", "3",
        ], capsys)

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_explain_student_runs_or_exits_2(
        self, data, workspace, explain_models, tmp_path_factory, capsys
    ):
        """``explain --student`` with a fuzzed preprocessed bundle exits 0, or 2
        with a one-line error."""
        root, variant = fuzzed_pre(data, workspace, tmp_path_factory)
        approach = data.draw(st.sampled_from(["merge", "ensemble"]))
        assert_runs_or_exits_2([
            "explain", "--model", str(explain_models[(variant, approach)]),
            "--student", str(data.draw(st.integers(0, 56))),
            "--data", str(root), "--variant", variant,
        ], capsys)

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_experiment_weight_search_runs_or_exits_2(
        self, data, workspace, tmp_path_factory, capsys
    ):
        """``experiment --weight-search`` on a preprocessed bundle with a fuzzed
        schema, line or cells exits 0, or 2 with a one-line error."""
        root, variant = fuzzed_pre(data, workspace, tmp_path_factory)
        assert_runs_or_exits_2([
            "experiment", "--data", str(root), "--variant", variant, "--weight-search",
            "--approach", "ensemble", "--algorithm", "c45", "--k", "3",
            "--out", str(root / "reports"),
        ], capsys)


def empty_first_class_cell(pre: Path) -> None:
    for variant in VARIANTS:
        path = pre / variant / "exam.csv"
        lines = path.read_text(encoding="utf-8").splitlines()
        student, _status = lines[1].split(",")
        lines[1] = f"{student},"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def drop_schema(source: str):
    """A damage that removes ``source`` from both variants' schema files."""

    def damage(pre: Path) -> None:
        for variant in VARIANTS:
            path = pre / variant / "schema.json"
            schemas = json.loads(path.read_text(encoding="utf-8"))
            del schemas[source]
            path.write_text(json.dumps(schemas), encoding="utf-8")

    return damage


@pytest.fixture(scope="module")
def bad_class_bundles(workspace):
    """Preprocessed cohorts whose class or sources a command cannot use, by
    case name."""
    roots = {}
    for case, damage in (
        ("no-exam", drop_schema("exam")),
        ("empty-class-cell", empty_first_class_cell),
        ("no-online", drop_schema("online")),
    ):
        roots[case] = workspace / f"bad-{case}"
        shutil.copytree(workspace / "pre", roots[case])
        damage(roots[case])
    raw = workspace / "raw-no-dropout"
    assert main(["synth", "--n", "57", "--proportions", "30", "27", "0", "--seed", "5",
                 "--out", str(raw)]) == 0
    roots["class-without-student"] = workspace / "bad-class-without-student"
    assert main(["preprocess", "--data", str(raw), "--out", str(roots["class-without-student"])]) == 0
    return roots


BAD_CLASS_MESSAGES = {
    "no-exam": "error: bundle lacks the exam (class) source\n",
    "empty-class-cell": "error: class column must not contain missing values\n",
    "class-without-student": "error: class 'Dropout' has no student in the cohort\n",
    "no-online": "error: bundle lacks input source 'online'\n",
}

BAD_CLASS_COMMANDS = {
    "select": ["select", "--variant", "discretized"],
    "train": ["train", "--variant", "numeric", "--algorithm", "c45"],
    "eval": ["eval", "--variant", "discretized", "--algorithm", "c45", "--k", "3"],
    "experiment": ["experiment", "--variant", "both", "--algorithm", "c45", "--k", "3"],
    "experiment-weight-search": [
        "experiment", "--variant", "discretized", "--algorithm", "c45", "--k", "3",
        "--weight-search",
    ],
    "train-ensemble": [
        "train", "--variant", "numeric", "--approach", "ensemble", "--algorithm", "c45",
    ],
    "eval-ensemble": [
        "eval", "--variant", "discretized", "--approach", "ensemble", "--algorithm", "c45",
        "--k", "3",
    ],
}

#: The commands that train a per-source model of each input source.
ENSEMBLE_COMMANDS = ("train-ensemble", "eval-ensemble", "experiment", "experiment-weight-search")


class TestBadClass:
    """Bundles whose class is missing, holds an empty cell, or lacks a
    student of one label exit 2 in one line and write nothing.  Training on
    a class without a student works, so only the fold commands refuse it.
    A bundle without the online source exits 2 in the same way, before any
    cell runs, on every command that trains an ensemble."""

    @pytest.mark.parametrize("case, command", [
        (case, command)
        for case in ("no-exam", "empty-class-cell")
        for command in ("select", "train", "eval", "experiment", "experiment-weight-search")
    ] + [
        ("class-without-student", command)
        for command in ("eval", "experiment", "experiment-weight-search")
    ] + [("no-online", command) for command in ENSEMBLE_COMMANDS])
    def test_exits_2_in_one_line(self, bad_class_bundles, tmp_path, capsys, case, command):
        name, *flags = BAD_CLASS_COMMANDS[command]
        if name in ("train", "experiment"):
            flags += ["--out", str(tmp_path / "out")]
        capsys.readouterr()
        assert main([name, "--data", str(bad_class_bundles[case])] + flags) == 2
        captured = capsys.readouterr()
        assert captured.err == BAD_CLASS_MESSAGES[case]
        assert captured.out == ""
        assert not (tmp_path / "out").exists()

    def test_merge_runs_without_online(self, bad_class_bundles, capsys):
        assert main([
            "eval", "--data", str(bad_class_bundles["no-online"]), "--approach", "merge",
            "--algorithm", "c45", "--k", "3",
        ]) == 0
        assert capsys.readouterr().out.startswith("merge,discretized,c45,")


class TestNonFiniteCell:
    @pytest.mark.parametrize("source, cell", [
        pytest.param("theory", "nan", id="nan"),
        pytest.param("theory", "inf", id="inf"),
        pytest.param("theory", "-inf", id="-inf"),
        pytest.param("theory", "1" * 200_000, id="over-csv-field-limit"),
        pytest.param("exam", "11", id="exam-score-11"),
        pytest.param("exam", "-1", id="exam-score--1"),
    ])
    def test_preprocess_exits_2(self, workspace, tmp_path, capsys, source, cell):
        raw = tmp_path / "raw"
        shutil.copytree(workspace / "raw", raw)
        path = raw / f"{source}.csv"
        lines = path.read_text(encoding="utf-8").splitlines()
        cells = lines[1].split(",")
        cells[1] = cell
        lines[1] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        capsys.readouterr()
        assert main(["preprocess", "--data", str(raw), "--out", str(tmp_path / "pre")]) == 2
        assert_one_line_error(capsys)


class TestExtremeColumn:
    """A numeric column whose range overflows a float, or whose bin width
    rounds to 0.0, preprocesses; values keep their order in both variants."""

    @pytest.mark.parametrize("first, second, bins, scaled", [
        pytest.param("5e-324", "0", ("Low", "Low", "Low"), (1.0, 0.0, 0.0), id="5e-324"),
        pytest.param("-1e308", "1e308", ("Low", "High", "Medium"), (0.0, 1.0, 0.5),
                     id="pm-1e308"),
    ])
    def test_preprocess_bins_it(self, workspace, tmp_path, first, second, bins, scaled):
        raw = tmp_path / "raw"
        shutil.copytree(workspace / "raw", raw)
        path = raw / "online.csv"
        lines = path.read_text(encoding="utf-8").splitlines()
        ids = []
        for at in range(1, len(lines)):
            cells = lines[at].split(",")
            cells[1] = {1: first, 2: second}.get(at, "0")
            lines[at] = ",".join(cells)
            ids.append(cells[0])
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        pre = tmp_path / "pre"
        assert main(["preprocess", "--data", str(raw), "--out", str(pre)]) == 0

        def quiz(variant):
            with (pre / variant / "online.csv").open(encoding="utf-8", newline="") as handle:
                return {row["id"]: row["Moodle.Quiz"] for row in csv.DictReader(handle)}

        labels, values = quiz("discretized"), quiz("numeric")
        for at, student in enumerate(ids):
            which = min(at, 2)
            assert labels[student] == bins[which]
            assert float(values[student]) == scaled[which]


class TestOverflowingSessionMean:
    def test_preprocess_averages_it(self, workspace, tmp_path):
        """Two finite sessions whose sum overflows fuse to the column's top."""
        raw = tmp_path / "raw"
        shutil.copytree(workspace / "raw", raw)
        path = raw / "theory.csv"
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0].split(",")[1:3] == ["Theory.Attendance.s1", "Theory.Attendance.s2"]
        cells = lines[1].split(",")
        cells[1] = cells[2] = "1e308"
        lines[1] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        pre = tmp_path / "pre"
        assert main(["preprocess", "--data", str(raw), "--out", str(pre)]) == 0
        for variant, top in (("numeric", "1"), ("discretized", "High")):
            with (pre / variant / "theory.csv").open(encoding="utf-8", newline="") as handle:
                fused = {row["id"]: row["Theory.Attendance"] for row in csv.DictReader(handle)}
            assert fused[cells[0]] == top


class TestAnonymizeFailure:
    def test_failed_run_writes_nothing(self, workspace, tmp_path, capsys):
        raw = tmp_path / "raw"
        shutil.copytree(workspace / "raw", raw)
        path = raw / "exam.csv"
        lines = path.read_text(encoding="utf-8").splitlines()
        lines[1] = lines[1].split(",")[0] + ",11"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        out = tmp_path / "out"
        capsys.readouterr()
        assert main([
            "preprocess", "--data", str(raw), "--out", str(out), "--anonymize",
        ]) == 2
        assert_one_line_error(capsys)
        assert not out.exists()


class TestEmptyLabel:
    def test_schema_label_exits_2(self, workspace, tmp_path, capsys):
        """An empty cell reads as missing, so an empty label in ``schema.json`` is refused."""
        data = tmp_path / "pre"
        shutil.copytree(workspace / "pre" / "discretized", data / "discretized")
        schema = data / "discretized" / "schema.json"
        sources = json.loads(schema.read_text(encoding="utf-8"))
        nominal = next(e for e in sources["theory"] if "labels" in e)
        nominal["labels"][0] = ""
        schema.write_text(json.dumps(sources), encoding="utf-8")
        capsys.readouterr()
        assert main(["select", "--data", str(data), "--variant", "discretized"]) == 2
        assert_one_line_error(capsys)



class TestQuestionMarkLabel:
    def test_schema_label_exits_2(self, workspace, tmp_path, capsys):
        """A rule names the missing value "?", so a "?" label in ``schema.json`` is refused."""
        data = tmp_path / "pre"
        shutil.copytree(workspace / "pre" / "discretized", data / "discretized")
        schema = data / "discretized" / "schema.json"
        sources = json.loads(schema.read_text(encoding="utf-8"))
        nominal = next(e for e in sources["theory"] if "labels" in e)
        nominal["labels"][0] = "?"
        schema.write_text(json.dumps(sources), encoding="utf-8")
        capsys.readouterr()
        assert main(["select", "--data", str(data), "--variant", "discretized"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert "label '?'" in err


class TestPreprocessConfigFile:
    @pytest.mark.parametrize("text", [
        "{not json",
        '{"n_bins": "x"}',
        '{"bogus": 1}',
        '{"fold_local_refit": true}',
        '[3]',
        '{"n_bins": 4}',
        '{"pass_threshold": 11}',
        '{"bin_labels": ["", "b", "c"]}',
    ])
    def test_bad_config_exits_2(self, workspace, tmp_path, capsys, text):
        config = tmp_path / "pre.json"
        config.write_text(text, encoding="utf-8")
        capsys.readouterr()
        assert main([
            "preprocess", "--data", str(workspace / "raw"), "--out", str(tmp_path / "o"),
            "--config", str(config),
        ]) == 2
        assert_one_line_error(capsys)

    def test_config_and_seed(self, workspace, tmp_path):
        config = tmp_path / "pre.json"
        config.write_text(json.dumps({"pass_threshold": 5.0, "seed": 1}), encoding="utf-8")
        out = tmp_path / "o"
        assert main([
            "preprocess", "--data", str(workspace / "raw"), "--out", str(out),
            "--config", str(config), "--seed", "3",
        ]) == 0
        assert (out / "params.json").read_bytes() == (
            workspace / "pre" / "params.json"
        ).read_bytes()


class TestAtomicWrite:
    def test_interleaved_writers_do_not_collide(self, tmp_path, monkeypatch):
        target = tmp_path / "out.txt"
        real_replace = os.replace
        calls = []

        def replace_after_second_writer(src, dst):
            # The first writer's rename runs only after a second writer
            # to the same path has finished.
            calls.append(src)
            if len(calls) == 1:
                cli._atomic_write(target, "second\n")
            real_replace(src, dst)

        monkeypatch.setattr(cli.os, "replace", replace_after_second_writer)
        cli._atomic_write(target, "first\n")
        assert calls[0] != calls[1]
        assert target.read_text(encoding="utf-8") == "first\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]

    def test_failed_write_leaves_no_temp_file(self, tmp_path, monkeypatch):
        target = tmp_path / "t.csv"
        target.write_text("old\n", encoding="utf-8")

        def broken_save(table, path):
            Path(path).write_text("partial", encoding="utf-8")
            raise OSError("disk full")

        monkeypatch.setattr(cli, "save_csv", broken_save)
        table = DataTable([AttributeSpec.numeric("x")], [(1.0,)])
        with pytest.raises(OSError):
            cli._atomic_write(target, table)
        assert [p.name for p in tmp_path.iterdir()] == ["t.csv"]
        assert target.read_text(encoding="utf-8") == "old\n"
