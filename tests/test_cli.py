import json

import pytest

from fusemine.cli import main

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
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        argv = [
            "experiment", "--data", str(workspace / "pre"), "--variant", "discretized",
            "--approach", "merge", "--algorithm", "c45,part", "--k", "3",
        ]
        assert main(argv + ["--out", str(out1)]) == 0
        monkeypatch.setenv("FUSEMINE_THREADS", "4")
        assert main(argv + ["--out", str(out2)]) == 0
        assert (out1 / "report.csv").read_bytes() == (out2 / "report.csv").read_bytes()


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
