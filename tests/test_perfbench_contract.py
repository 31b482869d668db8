"""The benchmark harness in ``perfbench/`` reaches into the package by
name: its tracer rebinds every ``ENTRY_POINTS`` entry and
``DataTable.with_rows``.  A deletion in ``src/`` that drops one of them
would break a traced run while every other test stays green."""

import importlib
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import spans  # noqa: E402
import workloads  # noqa: E402

from fusemine import learners  # noqa: E402
from fusemine.tabular import DataTable  # noqa: E402

from helpers import planted_dataset  # noqa: E402


@pytest.mark.parametrize(
    "module, attr", [entry[:2] for entry in spans.ENTRY_POINTS], ids=lambda v: v
)
def test_entry_point_resolves(module, attr):
    assert callable(getattr(importlib.import_module(module), attr))


def test_with_rows_exists():
    assert callable(DataTable.with_rows)


def test_workloads_name_every_learner():
    assert tuple(workloads.ALGORITHMS) == spans.LEARNERS == learners.ALGORITHMS


@pytest.mark.parametrize("algorithm", learners.ALGORITHMS)
def test_traced_train_records_the_model_size(algorithm):
    table = planted_dataset(n=30, seed=2)
    tracer = spans.Tracer()
    with tracer.installed():
        learners.train(algorithm, table)
    assert not hasattr(learners.train, "__wrapped__")  # the original is back
    (span,) = [s for s in tracer.spans if s[2] == "learners.train"]
    assert span[5]["alg"] == algorithm and span[5]["size"] >= 1
