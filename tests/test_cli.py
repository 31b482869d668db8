import contextlib
import copy
import importlib.util
import io
import json
import os
import shutil
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from fusemine import cli
from fusemine.cli import CliError, load_model, main
from fusemine.ensemble import VoteModel
from fusemine.evaluation import VARIANTS
from fusemine.learners import ALGORITHMS, Model
from fusemine.tabular import AttributeSpec, DataTable, SourceBundle

from helpers import json_values

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
        lines = (out / "report.csv").read_text(encoding="utf-8").splitlines()
        assert lines[0] == "approach,variant,algorithm,accuracy_pct,auc"
        assert len(lines) == 1 + 2 * 2

    def test_weight_search_reports_choice(self, workspace, tmp_path, capsys):
        out = tmp_path / "reports_ws"
        assert main([
            "experiment", "--data", str(workspace / "pre"), "--variant", "discretized",
            "--approach", "ensemble", "--algorithm", "c45", "--k", "3",
            "--weight-search", "--out", str(out),
        ]) == 0
        printed = capsys.readouterr().out
        assert "weight search chose theory,practice,online" in printed

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

    @pytest.mark.parametrize("algorithms", [",", "cart"])
    def test_bad_algorithm_list_exits_2(self, workspace, tmp_path, capsys, algorithms):
        capsys.readouterr()
        assert main([
            "experiment", "--data", str(workspace / "pre"), "--variant", "discretized",
            "--approach", "merge", "--algorithm", algorithms, "--k", "3",
            "--out", str(tmp_path / "r"),
        ]) == 2
        assert_one_line_error(capsys)


def load_search_script():
    path = Path(__file__).resolve().parents[1] / "scripts" / "search_vote_weights.py"
    spec = importlib.util.spec_from_file_location("search_vote_weights", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


class TestSearchVoteWeightsScript:
    def test_one_line_per_variant_and_ensemble_approach(self, workspace, capsys):
        script = load_search_script()
        capsys.readouterr()
        assert script.run([
            "--data", str(workspace / "pre"), "--algorithm", "c45", "--k", "3",
        ]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split(": ")[0].split() for line in lines] == [
            [variant, approach]
            for variant in ("numeric", "discretized")
            for approach in ("ensemble", "ensemble-select")
        ]
        for line in lines:
            assert line.split(": ")[1].startswith("theory,practice,online = ")

    def test_bad_input_prints_one_line_and_exits_2(self, workspace, tmp_path, capsys):
        script = load_search_script()
        capsys.readouterr()
        assert script.run(["--data", str(workspace / "pre"), "--k", "500"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --k 500 exceeds the 57 students in the cohort\n"

        broken = tmp_path / "pre"
        shutil.copytree(workspace / "pre", broken)
        (broken / "numeric" / "schema.json").write_text("{not json", encoding="utf-8")
        assert script.run(["--data", str(broken), "--k", "3"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and len(captured.err.splitlines()) == 1

    @pytest.mark.parametrize("flags, message", [
        (["--k", "x"], "argument --k: invalid int value: 'x'"),
        (["--algorithm", "cart"], "argument --algorithm: invalid choice: 'cart'"),
    ], ids=["bad-int", "bad-algorithm"])
    def test_bad_flag_prints_one_line_and_exits_2(self, workspace, capsys, flags, message):
        script = load_search_script()
        capsys.readouterr()
        with pytest.raises(SystemExit) as exited:
            script.run(["--data", str(workspace / "pre")] + flags)
        assert exited.value.code == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert ": error: " + message in err


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
def stored_models(workspace):
    payloads = []
    for approach, algorithm in (("ensemble", "ripper"), ("merge", "c45"), ("merge", "nnge")):
        out = workspace / f"stored-{approach}-{algorithm}"
        assert main([
            "train", "--data", str(workspace / "pre"), "--approach", approach,
            "--algorithm", algorithm, "--out", str(out),
        ]) == 0
        payloads.append(json.loads((out / "model.json").read_text(encoding="utf-8")))
    return payloads


class TestLoadModelFuzz:
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_loads_or_exits_2(self, data, stored_models, tmp_path_factory):
        """``load_model`` on any JSON value loads or raises ``CliError`` with code 2."""
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


class TestBundleFuzz:
    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_loads_or_exits_2(self, data, workspace, tmp_path_factory):
        """A raw bundle with a fuzzed schema or CSV file loads, or exits 2 in one line."""
        raw = tmp_path_factory.mktemp("bundle-fuzz")
        for path in (workspace / "raw").iterdir():
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
        try:
            bundle = cli.load_bundle(raw)
        except CliError as err:
            assert err.code == 2
            assert len(str(err).splitlines()) == 1
        else:
            assert isinstance(bundle, SourceBundle)


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


class TestPreprocessConfigFile:
    @pytest.mark.parametrize("text", [
        "{not json",
        '{"n_bins": "x"}',
        '{"bogus": 1}',
        '{"fold_local_refit": true}',
        '[3]',
        '{"n_bins": 4}',
        '{"pass_threshold": 11}',
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
