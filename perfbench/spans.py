"""Span tracing of fusemine's public entry points, from outside the program.

``Tracer.installed()`` rebinds each entry point in ``ENTRY_POINTS`` to a
timing wrapper in every loaded ``fusemine`` module that holds it, and puts
the originals back on exit.  Only non-recursive entry points are wrapped
(``learners.train``, not ``trees.grow_tree``), so a span costs one wrapper
call and the grid's recursive tree growers stay untraced.

Spans are kept in memory as ``[id, parent, name, start, end, attrs]`` and
written out by ``dump`` once measuring is over.  A layer's self time is
its spans' durations minus the time their child spans cover.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

LEARNERS = ("c45", "reptree", "randomtree", "ripper", "part", "nnge")
#: Layers whose entry points run inside a pass; ``synth`` runs only in set-up.
LAYERS = ("learners", "ensemble", "tabular", "preprocess", "selection",
          "evaluation", "cli")


def _model_size(model) -> int:
    """Leaves of a tree, rules of a rule list, exemplars of an NNGE model."""
    structure = model.structure
    if hasattr(structure, "n_leaves"):
        return structure.n_leaves()
    if hasattr(structure, "rules"):
        return len(structure.rules)
    return len(structure.exemplars)


def _train_attrs(args, kwargs, model):
    return {"alg": args[0], "size": _model_size(model)}


def _predict_attrs(args, kwargs, result):
    return {"alg": args[0].algorithm}


def _select_attrs(args, kwargs, names):
    return {"n": len(names)}


def _cell_attrs(args, kwargs, result):
    bundle = args[2]
    numeric = any(spec.is_numeric and spec.role == "input"
                  for table in bundle.sources.values() for spec in table.specs)
    return {
        "approach": result.approach,
        "variant": "numeric" if numeric else "discretized",
        "algorithm": result.algorithm,
        "acc": result.accuracy_pct,
        "auc": result.auc,
    }


#: (module, attribute, span name, attrs of a finished call or None).
ENTRY_POINTS = (
    ("fusemine.learners", "train", "learners.train", _train_attrs),
    ("fusemine.learners", "encode_table", "learners.encode_table", None),
    ("fusemine.learners", "predict", "learners.predict", _predict_attrs),
    ("fusemine.learners", "render_rules", "learners.render", None),
    ("fusemine.ensemble", "vote_predict", "ensemble.vote_predict", None),
    ("fusemine.ensemble", "prepare_approach", "ensemble.prepare_approach", None),
    ("fusemine.tabular", "load_csv", "tabular.load_csv", None),
    ("fusemine.tabular", "save_csv", "tabular.save_csv", None),
    ("fusemine.tabular", "join_on_id", "tabular.join_on_id", None),
    ("fusemine.preprocess", "fuse_bundle", "preprocess.fuse_bundle", None),
    ("fusemine.preprocess", "fit_params", "preprocess.fit_params", None),
    ("fusemine.preprocess", "transform_fused", "preprocess.transform_fused", None),
    ("fusemine.selection", "select_best_attributes", "selection.select_best_attributes",
     _select_attrs),
    ("fusemine.evaluation", "cross_validate", "evaluation.cross_validate", _cell_attrs),
    ("fusemine.evaluation", "auc_weighted", "evaluation.auc_weighted", None),
    ("fusemine.cli", "load_bundle", "cli.load_bundle", None),
    ("fusemine.cli", "save_bundle", "cli.save_bundle", None),
    ("fusemine.synth", "generate", "synth.generate", None),
)


class Tracer:
    """In-memory span and counter sink for one benchmark run."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.rows_built = 0

    def _open(self, name: str) -> list:
        span = [len(self.spans), self.stack[-1] if self.stack else None, name,
                time.perf_counter(), 0.0, None]
        self.spans.append(span)
        self.stack.append(span[0])
        return span

    def _close(self, span: list) -> None:
        span[4] = time.perf_counter()
        self.stack.pop()

    @contextmanager
    def root(self, name: str):
        """A top-level span (``setup`` or ``pass``) opened by the benchmark."""
        span = self._open(name)
        rows_before = self.rows_built
        try:
            yield span
        finally:
            self._close(span)
            span[5] = {"rows_built": self.rows_built - rows_before}

    def wrap(self, fn, name, attrs=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            if attrs is not None:
                span[5] = attrs(args, kwargs, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Rebind every entry point to its traced wrapper, then restore."""
        from fusemine.tabular import DataTable

        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "fusemine" or n.startswith("fusemine."))]
        undo = []
        for module_name, attr, name, attrs in ENTRY_POINTS:
            original = getattr(sys.modules[module_name], attr)
            traced = self.wrap(original, name, attrs)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, traced)
                        undo.append((module, key, original))

        with_rows, init = DataTable.with_rows, DataTable.__init__
        tracer = self

        @functools.wraps(init)
        def counted_init(table, *args, **kwargs):
            init(table, *args, **kwargs)
            tracer.rows_built += len(table.rows)

        DataTable.with_rows = self.wrap(with_rows, "tabular.with_rows")
        DataTable.__init__ = counted_init
        try:
            yield self
        finally:
            DataTable.with_rows, DataTable.__init__ = with_rows, init
            for module, key, original in reversed(undo):
                setattr(module, key, original)

    def self_times(self) -> list[float]:
        """Self time of every span, indexed by span id."""
        own = [s[4] - s[3] for s in self.spans]
        for span in self.spans:
            if span[1] is not None:
                own[span[1]] -= span[4] - span[3]
        return own

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for sid, parent, name, start, end, attrs in self.spans:
                record = {"id": sid, "parent": parent, "name": name,
                          "start": start, "end": end}
                if attrs:
                    record["attrs"] = attrs
                handle.write(json.dumps(record) + "\n")


def layer_metrics(tracer: Tracer) -> tuple[dict, list[dict]]:
    """Per-layer metrics averaged over the traced passes, plus one record per cell.

    Every ``_s`` metric is self time per pass, except ``synth.generate_s``,
    which is self time per set-up (cohorts are generated only there), and
    ``evaluation.cell_max_s``, the longest ``cross_validate`` call.
    """
    own = tracer.self_times()
    root_of: dict[int, int] = {}
    for span in tracer.spans:
        root_of[span[0]] = span[0] if span[1] is None else root_of[span[1]]
    kind = {s[0]: s[2] for s in tracer.spans if s[1] is None}
    passes = sum(1 for k in kind.values() if k == "pass") or 1
    setups = sum(1 for k in kind.values() if k == "setup") or 1

    total: dict[str, float] = defaultdict(float)
    count: dict[str, int] = defaultdict(int)
    layer: dict[str, float] = defaultdict(float)
    sizes: dict[str, list[int]] = defaultdict(list)
    selected: list[int] = []
    cells: list[dict] = []
    generate_s = 0.0
    unattributed = 0.0
    rows_built = 0
    for sid, parent, name, start, end, attrs in tracer.spans:
        if kind[root_of[sid]] != "pass":
            if name == "synth.generate":
                generate_s += own[sid]
            continue
        if parent is None:
            unattributed += own[sid]
            rows_built += attrs["rows_built"]
            continue
        layer[name.split(".")[0]] += own[sid]
        if name == "learners.train":
            name = f"learners.{attrs['alg']}.train"
            sizes[attrs["alg"]].append(attrs["size"])
        elif name == "learners.predict" and attrs["alg"] == "nnge":
            total["learners.nnge.predict"] += own[sid]
        elif name == "selection.select_best_attributes":
            selected.append(attrs["n"])
        elif name == "evaluation.cross_validate":
            cells.append(dict(attrs, seconds=end - start))
        total[name] += own[sid]
        count[name] += 1

    def per_pass(name):
        return total[name] / passes

    metrics = {}
    for alg in LEARNERS:
        metrics[f"learners.{alg}.train_s"] = per_pass(f"learners.{alg}.train")
        metrics[f"learners.{alg}.models"] = count[f"learners.{alg}.train"] / passes
        metrics[f"learners.{alg}.size_mean"] = (
            sum(sizes[alg]) / len(sizes[alg]) if sizes[alg] else 0.0)
    metrics.update({
        "learners.encode_table_s": per_pass("learners.encode_table"),
        "learners.predict_s": per_pass("learners.predict"),
        "learners.predict_calls": count["learners.predict"] / passes,
        "learners.nnge.predict_s": per_pass("learners.nnge.predict"),
        "learners.render_s": per_pass("learners.render"),
        "ensemble.vote_predict_self_s": per_pass("ensemble.vote_predict"),
        "ensemble.vote_calls": count["ensemble.vote_predict"] / passes,
        "ensemble.prepare_approach_s": per_pass("ensemble.prepare_approach"),
        "tabular.load_csv_s": per_pass("tabular.load_csv"),
        "tabular.save_csv_s": per_pass("tabular.save_csv"),
        "tabular.join_on_id_s": per_pass("tabular.join_on_id"),
        "tabular.with_rows_s": per_pass("tabular.with_rows"),
        "tabular.rows_built": rows_built / passes,
        "preprocess.fuse_bundle_s": per_pass("preprocess.fuse_bundle"),
        "preprocess.fit_params_s": per_pass("preprocess.fit_params"),
        "preprocess.transform_fused_s": per_pass("preprocess.transform_fused"),
        "selection.select_best_attributes_s": per_pass("selection.select_best_attributes"),
        "selection.calls": count["selection.select_best_attributes"] / passes,
        "selection.attrs_selected_mean": (
            sum(selected) / len(selected) if selected else 0.0),
        "evaluation.cross_validate_self_s": per_pass("evaluation.cross_validate"),
        "evaluation.auc_weighted_s": per_pass("evaluation.auc_weighted"),
        "evaluation.cell_max_s": max((c["seconds"] for c in cells), default=0.0),
        "evaluation.cells": len(cells) / passes,
        "cli.load_bundle_s": per_pass("cli.load_bundle"),
        "cli.save_bundle_s": per_pass("cli.save_bundle"),
        "synth.generate_s": generate_s / setups,
    })
    for name in LAYERS:
        metrics[f"{name}.self_s"] = layer[name] / passes
    metrics["trace.unattributed_s"] = unattributed / passes
    return metrics, cells
