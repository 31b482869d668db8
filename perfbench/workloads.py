"""The three benchmark workloads: set-up, one timed pass, and output checks.

Each workload drives fusemine only through its public functions or its
in-process command line, on inputs generated from the workload seed.

* ``grid``  - ``fusemine experiment`` over the whole 4 x 2 x 6 grid under
  stratified 10-fold CV.  Training (``learners``) does most of the work.
* ``score`` - a 24-model panel trained in set-up scores every student of a
  fresh cohort, with no training in the timed pass (``learners.predict``
  and ``ensemble.vote_predict``).
* ``prep``  - ``fusemine preprocess`` on a large raw cohort
  (``tabular`` CSV I/O and ``preprocess``); the only workload that writes
  tables in its timed pass.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
from dataclasses import dataclass, field
from pathlib import Path

# Entry points are looked up on their modules at call time, so that the
# traced run's rebinding (see spans.py) sees the benchmark's own calls too.
from fusemine import cli, ensemble, evaluation, learners, synth
from fusemine.ensemble import FusionConfig, VoteModel, run_approach
from fusemine.learners import ALGORITHMS
from fusemine.preprocess import preprocess_bundle
from fusemine.synth import CohortSpec

from gauge import clock

#: Grid CV seed of acceptance criterion 8; the workload seed draws the cohort.
GRID_SEED = 3

#: Cohort sizes and folds each workload runs at.  The paper-sized cohort
#: (570 students) takes about 150 s per grid pass, too long for a run.
#: ``cohorts`` input sets are drawn per run and passes cycle through them,
#: so that one run's medians do not hang on a single random cohort.
SIZES = {
    "grid": {"students": 60, "k": 10, "cohorts": 10},
    "score": {"panel_students": 160, "students": 400, "cohorts": 3},
    "prep": {"students": 4000, "cohorts": 1},
}

VARIANTS = ("numeric", "discretized")
PANEL_APPROACHES = ("merge", "ensemble")


def class_counts(n: int) -> tuple[int, int, int]:
    """Pass/Fail/Dropout counts in the 190:170:210 proportion of criterion 8."""
    passing = round(n * 190 / 570)
    failing = round(n * 170 / 570)
    return passing, failing, n - passing - failing


def run_cli(argv: list[str]) -> None:
    """Run one in-process ``fusemine`` command, raising on a nonzero exit."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"fusemine {argv[0]} exited {code}: {err.getvalue().strip()}")


def cohort_seeds(seed: int, size: dict) -> list[int]:
    """Seeds of the run's cohorts; the first is the workload seed itself."""
    return [seed + 1000 * i for i in range(size["cohorts"])]


def synth_cli(n: int, seed: int, out: Path) -> None:
    counts = class_counts(n)
    run_cli(["synth", "--n", str(n), "--seed", str(seed), "--out", str(out),
             "--proportions", *map(str, counts)])


def digest_files(paths) -> str:
    sha = hashlib.sha256()
    for path in sorted(paths):
        name = f"{path.parent.name}/{path.name}"
        sha.update(name.encode() + b"\0" + path.read_bytes() + b"\0")
    return sha.hexdigest()


@dataclass
class Pass:
    """What one timed pass produced: per-item seconds and the output to check."""

    item_seconds: list[float]
    output: object


@dataclass
class Check:
    """The checked outcome of one pass."""

    attempted: int
    failed: int
    digest: str
    quality: dict = field(default_factory=dict)


class Grid:
    """``fusemine experiment`` over all 48 cells of the paper's grid."""

    name = "grid"
    item = "cell"
    cells = 4 * 2 * len(ALGORITHMS)

    def __init__(self, work: Path, seed: int, size: dict):
        self.work, self.size = work, size
        self.seeds = cohort_seeds(seed, size)
        self.ops_per_pass = self.cells

    def setup(self) -> None:
        for seed in self.seeds:
            cohort = self.work / f"cohort-{seed}"
            synth_cli(self.size["students"], seed, cohort / "raw")
            run_cli(["preprocess", "--data", str(cohort / "raw"), "--out", str(cohort / "pre")])

    def run_pass(self, cohort: int) -> Pass:
        # Per-cell latency: one timer around each cross_validate call, 48 per pass.
        cell_seconds = []
        cross_validate = evaluation.cross_validate

        def timed_cell(*args, **kwargs):
            start = clock()
            result = cross_validate(*args, **kwargs)
            cell_seconds.append(clock() - start)
            return result

        directory = self.work / f"cohort-{self.seeds[cohort]}"
        out = directory / "reports"
        evaluation.cross_validate = timed_cell
        try:
            run_cli(["experiment", "--data", str(directory / "pre"), "--variant", "both",
                     "--approach", "all", "--algorithm", "all",
                     "--k", str(self.size["k"]), "--seed", str(GRID_SEED), "--out", str(out)])
        finally:
            evaluation.cross_validate = cross_validate
        return Pass(cell_seconds, out)

    def check(self, out: Path) -> Check:
        lines = (out / "report.csv").read_text(encoding="utf-8").splitlines()[1:]
        accs, aucs, bad = [], [], 0
        for line in lines:
            try:
                acc, auc = (float(v) for v in line.split(",")[3:5])
            except ValueError:
                bad += 1
                continue
            if 0.0 <= acc <= 100.0 and 0.0 <= auc <= 1.0:
                accs.append(acc)
                aucs.append(auc)
            else:
                bad += 1
        failed = min(self.cells, bad + abs(self.cells - len(lines)))
        quality = {}
        if accs:
            quality = {"acc_mean": sum(accs) / len(accs), "auc_mean": sum(aucs) / len(aucs)}
        return Check(self.cells, failed, digest_files(out.iterdir()), quality)


class Score:
    """A trained 24-model panel scores every student of a fresh cohort."""

    name = "score"
    item = "student"

    def __init__(self, work: Path, seed: int, size: dict):
        self.size = size
        self.seeds = cohort_seeds(seed, size)
        self.ops_per_pass = size["students"] * len(ALGORITHMS) * 4

    @staticmethod
    def draw_cohort(n: int, seed: int):
        return synth.generate(CohortSpec(n_students=n, class_counts=class_counts(n), seed=seed))[0]

    def setup(self) -> None:
        """One panel per cohort seed, and a fresh cohort (seed + 1) for it to score."""
        self.inputs = []
        for seed in self.seeds:
            pre = preprocess_bundle(self.draw_cohort(self.size["panel_students"], seed))
            variants = {"numeric": pre.numeric, "discretized": pre.discretized}
            panel = [
                (approach, variant,
                 run_approach(FusionConfig(approach=approach), variants[variant], algorithm,
                              seed=seed)[0])
                for algorithm in ALGORITHMS
                for approach in PANEL_APPROACHES
                for variant in VARIANTS
            ]
            self.inputs.append((panel, self.draw_cohort(self.size["students"], seed + 1)))

    def run_pass(self, cohort: int) -> Pass:
        panel, fresh = self.inputs[cohort]
        pre = preprocess_bundle(fresh)
        variants = {"numeric": pre.numeric, "discretized": pre.discretized}
        prepared = {
            (approach, variant): ensemble.prepare_approach(
                FusionConfig(approach=approach), variants[variant])
            for approach in PANEL_APPROACHES
            for variant in VARIANTS
        }
        inputs = []
        for approach, variant, model in panel:
            data = prepared[(approach, variant)]
            if isinstance(model, VoteModel):
                inputs.append((ensemble.vote_predict, model, [
                    dict(zip(data.per_source, rows))
                    for rows in zip(*(t.rows for t in data.per_source.values()))
                ]))
            else:
                inputs.append((learners.predict, model, data.merged.rows))
        n = len(inputs[0][2])
        dists, item_seconds = [], []
        for student in range(n):
            start = clock()
            dists.append([fn(model, rows[student]) for fn, model, rows in inputs])
            item_seconds.append(clock() - start)
        texts = [cli.render_model(model) for _a, _v, model in panel]
        return Pass(item_seconds, (dists, texts))

    def check(self, output) -> Check:
        dists, texts = output
        failed = sum(
            1 for row in dists for dist in row
            if len(dist) != 3 or abs(sum(dist) - 1.0) > 1e-9
        )
        failed += self.ops_per_pass - sum(len(row) for row in dists)
        sha = hashlib.sha256(repr(dists).encode())
        for text in texts:
            sha.update(text.encode())
        return Check(self.ops_per_pass, failed, sha.hexdigest())


class Prep:
    """``fusemine preprocess`` on a large raw cohort read from CSV."""

    name = "prep"
    item = "run"

    def __init__(self, work: Path, seed: int, size: dict):
        self.work, self.seed, self.size = work, seed, size
        self.ops_per_pass = 1

    def setup(self) -> None:
        synth_cli(self.size["students"], self.seed, self.work / "raw")

    def run_pass(self, cohort: int) -> Pass:
        out = self.work / "pre"
        start = clock()
        run_cli(["preprocess", "--data", str(self.work / "raw"), "--out", str(out)])
        return Pass([clock() - start], out)

    def check(self, out: Path) -> Check:
        n = self.size["students"]
        ok = True
        for variant in VARIANTS:
            bundle = cli.load_bundle(out / variant)
            for table in bundle.sources.values():
                inputs = [s for s in table.specs if s.role == "input"]
                kinds = {s.is_numeric for s in inputs}
                ok &= table.n_rows == n and kinds <= {variant == "numeric"}
            ok &= set(bundle.sources) == {"theory", "practice", "online", "exam"}
        files = [p for d in VARIANTS for p in (out / d).iterdir()] + [out / "params.json"]
        return Check(1, 0 if ok else 1, digest_files(files))


WORKLOADS = {w.name: w for w in (Grid, Score, Prep)}
