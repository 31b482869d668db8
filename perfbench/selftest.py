"""Smoke self-test of the benchmark: every workload at tiny sizes, in seconds.

    python3 perfbench/selftest.py

For each workload it runs ``run.main`` with tracing off and on, checks that
the result line carries every metric ``BENCHMARK.json`` names with its
unit and no failed op, and then checks that a deliberately corrupted
output is counted in ``ops_failed``.  Exits 1 on the first mismatch.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys

import run

TINY = {
    "grid": {"students": 30, "k": 3, "cohorts": 2},
    "score": {"panel_students": 30, "students": 10, "cohorts": 2},
    "prep": {"students": 30, "cohorts": 1},
}


def _drop_last_line(path) -> None:
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    path.write_text("".join(lines[:-1]), encoding="utf-8")


def _double_first_distribution(output) -> None:
    dists, _texts = output
    dists[0][0] = tuple(2 * p for p in dists[0][0])


#: One corruption per workload, applied to the output of every pass.
CORRUPT = {
    "grid": lambda out: _drop_last_line(out / "report.csv"),
    "score": _double_first_distribution,
    "prep": lambda out: _drop_last_line(out / "numeric" / "theory.csv"),
}


def invoke(workload: str, trace: int) -> tuple[dict, dict]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = run.main(["--workload", workload, "--seed", "5", "--seconds", "0.01",
                         "--trace", str(trace)], sizes=TINY)
    if code != 0:
        raise AssertionError(f"{workload}: exit code {code}")
    lines = buf.getvalue().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


@contextlib.contextmanager
def corrupted(cls, corrupt):
    original = cls.run_pass

    def run_pass(self, cohort):
        done = original(self, cohort)
        corrupt(done.output)
        return done

    cls.run_pass = run_pass
    try:
        yield
    finally:
        cls.run_pass = original


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise AssertionError(message)


def main() -> int:
    workloads = run.import_program()
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    try:
        for name in (w["name"] for w in spec["workloads"]):
            for trace in (0, 1):
                _detail, result = invoke(name, trace)
                units = {k: v["unit"] for k, v in result["metrics"].items()}
                expect(units == expected[trace],
                       f"{name} --trace {trace}: metrics {sorted(units)} differ from BENCHMARK.json")
                expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                       f"{name} --trace {trace}: {result['failed']} of {result['attempted']} ops failed")
            with corrupted(workloads.WORKLOADS[name], CORRUPT[name]):
                detail, result = invoke(name, 0)
            failed = detail["metrics"]["ops_failed"]["value"]
            expect(not result["correct"] and result["failed"] >= 1 and failed == result["failed"],
                   f"{name}: corrupted output not counted in ops_failed")
            print(f"{name}: ok")
    except AssertionError as err:
        print(f"selftest failed: {err}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
