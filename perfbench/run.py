"""fusemine benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload grid|score|prep [--seed N]
                             [--seconds S] [--trace 0|1]

Run from the root of a source checkout; fusemine is imported from its
``src/`` directory, and the run exits 2 without a result if that is
missing.  Everything runs in this one process with one thread, and
``FUSEMINE_THREADS`` is left as found, so the program's default worker
count is what gets measured.

``--trace 0`` sets the workload up several times, then runs timed passes
(closed loop, one caller) for ``--seconds`` and checks every output.  The
last stdout line is ``{"correct", "attempted", "failed", "metrics"}`` with
the end-to-end metrics, which carry the same names on every workload.
Times are adjusted to nominal machine speed by ``gauge.py``:

    setup_s      median time of one set-up
    pass_s       median time of one pass: grid_s / score_s / prep_s
    item_p50_ms  median latency of one item: a grid cell, one student
                 scored by the whole panel, or one preprocess run; an
                 item's latency is its median over the run's cycles
    item_p99_ms  99th percentile of the same within one cohort, median
                 over the run's cohorts
    peak_rss_mb  peak resident memory of the process

The line before it restates them under the workload's own names
(``grid_s``, ``score_p99_ms``, ...), adds ``grid_acc_mean`` and
``grid_auc_mean``, the sample counts, the unadjusted wall times, and
whether the output digest equals the one recorded in ``digests.json``
(``null`` for an unrecorded seed).

``--trace 1`` sets up once under tracing, then runs every cohort untraced
and traced, back to back in alternating order, in whole cycles for
``--seconds``, without the gauge.  It prints the
per-layer metrics of ``spans.layer_metrics`` plus ``trace.overhead_s``, the
mean traced minus untraced pass time, so that the layers' summed self
times plus ``trace.unattributed_s`` equal the untraced pass time plus the
overhead.  Spans and per-cell records go to
``.perfbench-out/trace-<workload>-seed<N>.jsonl``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

import gauge

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench-out"
DEFAULT_SEED = 8  # the criterion-8 cohort; the grid's CV seed stays 3
MIN_SETUPS, SETUP_BUDGET_S, MAX_SETUPS = 3, 3.0, 25

E2E_UNITS = {
    "setup_s": "s",
    "pass_s": "s",
    "item_p50_ms": "ms",
    "item_p99_ms": "ms",
    "peak_rss_mb": "MB",
}


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def import_program():
    src = ROOT / "src"
    if not (src / "fusemine" / "__init__.py").is_file():
        print(f"error: no fusemine sources under {src}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(src))
    import workloads

    return workloads


class Runner:
    """Set-up, timed passes and checks of one workload in one work directory.

    Passes run in whole cycles, one pass per cohort of the run.
    """

    def __init__(self, workload, seconds: float):
        self.workload = workload
        self.seconds = seconds
        self.cycle = workload.size["cohorts"]
        self.attempted = 0
        self.failed = 0
        self.digests: list[str | None] = []
        self.quality: list[dict] = []

    def setups(self) -> tuple[list[float], list[float]]:
        """Set the workload up several times; wall and adjusted seconds of each."""
        wall, adjusted = [], []
        while len(wall) < MIN_SETUPS or (sum(wall) < SETUP_BUDGET_S
                                         and len(wall) < MAX_SETUPS):
            with gauge.gauged() as reading:
                self.workload.setup()
            wall.append(reading.seconds)
            adjusted.append(reading.adjusted)
        return wall, adjusted

    def one_pass(self, cohort: int, around=contextlib.nullcontext,
                 gauged: bool = False) -> tuple[float, list[float], float]:
        """Run and check one pass; returns its wall time, its item times and
        its wall-to-adjusted factor (1 unless ``gauged``).

        ``around`` is entered around the pass alone, not its check, and so
        is the gauge of a gauged pass.
        """
        ops = self.workload.ops_per_pass
        start = gauge.clock()
        try:
            with around(), (gauge.gauged() if gauged else contextlib.nullcontext()) as reading:
                done = self.workload.run_pass(cohort)
            elapsed = gauge.clock() - start
            scale = reading.factor if gauged else 1.0
            check = self.workload.check(done.output)
        except Exception as err:  # a failed op is counted, not raised
            print(f"pass failed: {type(err).__name__}: {err}", file=sys.stderr)
            self.attempted += ops
            self.failed += ops
            self.digests.append(None)
            return gauge.clock() - start, [], 1.0
        self.attempted += check.attempted
        self.failed += check.failed
        self.digests.append(check.digest)
        self.quality.append(check.quality)
        return elapsed, done.item_seconds, scale

    def cycles(self, budget: float):
        """Yield cohort indices in whole cycles while the next cycle should
        end within ``budget`` seconds; at least one cycle."""
        start = time.perf_counter()
        cycles = 0
        while True:
            yield from range(self.cycle)
            cycles += 1
            if (time.perf_counter() - start) * (cycles + 1) / cycles > budget:
                return

    def passes(self, budget: float):
        """Gauged passes for ``budget`` seconds: wall and adjusted pass
        seconds, and the adjusted seconds of each item, keyed by its cohort
        and its place in the pass, one per cycle."""
        wall, adjusted, items = [], [], defaultdict(list)
        for cohort in self.cycles(budget):
            elapsed, item_seconds, scale = self.one_pass(cohort, gauged=True)
            wall.append(elapsed)
            adjusted.append(elapsed * scale)
            for place, seconds in enumerate(item_seconds):
                items[(cohort, place)].append(seconds * scale)
        return wall, adjusted, items

    def digest(self) -> tuple[str | None, bool]:
        """Digest of the first cycle's outputs, and whether later cycles repeat it."""
        first = self.digests[:self.cycle]
        repeats = all(d == first[i % self.cycle] for i, d in enumerate(self.digests))
        if None in first:
            return None, False
        return hashlib.sha256("".join(first).encode()).hexdigest(), repeats


DIGESTS = Path(__file__).with_name("digests.json")


def recorded_digest(workload: str, seed: int, size: dict):
    """The output digest recorded for this workload, seed and size, if any."""
    record = json.loads(DIGESTS.read_text(encoding="utf-8"))
    if record["sizes"].get(workload) != size:
        return None
    return record["digests"].get(workload, {}).get(str(seed))


def measure(runner: Runner, name: str, seed: int, size: dict) -> tuple[dict, dict]:
    setup_wall, setup_times = runner.setups()
    pass_wall, pass_times, items = runner.passes(runner.seconds)
    # An item's latency is the median over the cycles, so that a moment
    # the host ran slow does not make a slow item.  The p99 is taken within
    # each cohort, and the median over the cohorts is reported.
    cohorts_ms = defaultdict(list)
    for (cohort, _place), times in items.items():
        cohorts_ms[cohort].append(1000.0 * statistics.median(times))
    cohorts_ms = list(cohorts_ms.values()) or [[0.0]]
    metrics = {
        "setup_s": statistics.median(setup_times),
        "pass_s": statistics.median(pass_times),
        "item_p50_ms": statistics.median(ms for cohort in cohorts_ms for ms in cohort),
        "item_p99_ms": statistics.median(percentile(cohort, 99) for cohort in cohorts_ms),
        "peak_rss_mb": peak_rss_mb(),
    }
    named = {
        "setup_s": (metrics["setup_s"], "s"),
        f"{name}_s": (metrics["pass_s"], "s"),
        f"{name}_p50_ms": (metrics["item_p50_ms"], "ms"),
        f"{name}_p99_ms": (metrics["item_p99_ms"], "ms"),
        "peak_rss_mb": (metrics["peak_rss_mb"], "MB"),
        "ops_attempted": (runner.attempted, "count"),
        "ops_failed": (runner.failed, "count"),
    }
    for key, unit in (("acc_mean", "%"), ("auc_mean", "1")):
        values = [q[key] for q in runner.quality if key in q]
        if values:
            named[f"{name}_{key}"] = (statistics.fmean(values), unit)
    digest, repeats = runner.digest()
    expected = recorded_digest(name, seed, size)
    detail = {
        "workload": name,
        "seed": seed,
        "size": size,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in named.items()},
        "setups": len(setup_times),
        "pass_times_s": pass_times,
        "wall": {"setup_s": statistics.median(setup_wall),
                 "pass_s": statistics.median(pass_wall),
                 "pass_times_s": pass_wall},
        "items": len(items),
        "cycles": len(pass_times) // runner.cycle,
        "item": runner.workload.item,
        "digest": digest,
        "deterministic": repeats,
        "digest_match": None if expected is None else digest == expected,
    }
    return metrics, detail


def measure_traced(runner: Runner, name: str, seed: int) -> tuple[dict, dict]:
    import spans

    tracer = spans.Tracer()
    with tracer.installed(), tracer.root("setup"):
        runner.workload.setup()
    # Each cohort runs untraced and traced back to back, so that the pair
    # sees the same machine load and their difference is the overhead; the
    # order alternates so that neither side always runs second.
    untraced, traced = [], []

    def untraced_pass(cohort):
        untraced.append(runner.one_pass(cohort)[0])

    def traced_pass(cohort):
        with tracer.installed():
            traced.append(runner.one_pass(cohort, lambda: tracer.root("pass"))[0])

    for i, cohort in enumerate(runner.cycles(runner.seconds)):
        for run_one in (untraced_pass, traced_pass)[::1 if i % 2 == 0 else -1]:
            run_one(cohort)
    metrics, cells = spans.layer_metrics(tracer)
    metrics["trace.overhead_s"] = statistics.fmean(traced) - statistics.fmean(untraced)
    layers_s = sum(metrics[f"{layer}.self_s"] for layer in spans.LAYERS)
    detail = {
        "workload": name,
        "seed": seed,
        "passes": len(traced),
        "untraced_pass_s": statistics.fmean(untraced),
        "traced_pass_s": statistics.fmean(traced),
        "layers_self_s": layers_s,
        "unattributed_s": metrics["trace.unattributed_s"],
        "overhead_s": metrics["trace.overhead_s"],
        "spans": len(tracer.spans),
    }
    path = OUT / f"trace-{name}-seed{seed}.jsonl"
    tracer.dump(path)
    with open(path, "a", encoding="utf-8") as handle:
        for cell in cells:
            handle.write(json.dumps({"cell": cell}) + "\n")
        handle.write(json.dumps({"summary": detail}) + "\n")
    detail["trace_file"] = str(path.relative_to(ROOT))
    return metrics, detail


def units_of_layer(name: str) -> str:
    return "s" if name.endswith("_s") else "count"


def main(argv=None, sizes=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("grid", "score", "prep"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workloads = import_program()
    size = (sizes or workloads.SIZES)[args.workload]
    work = OUT / f"work-{os.getpid()}"
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    try:
        workload = workloads.WORKLOADS[args.workload](work, args.seed, size)
        runner = Runner(workload, args.seconds)
        if args.trace:
            values, detail = measure_traced(runner, args.workload, args.seed)
            units = {k: units_of_layer(k) for k in values}
        else:
            values, detail = measure(runner, args.workload, args.seed, size)
            units = E2E_UNITS
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
