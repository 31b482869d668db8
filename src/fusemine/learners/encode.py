"""Internal columnar encoding shared by the learners.

Training operates on plain column lists indexed by row position.  A
cross-validation fold's training rows are encoded once, and the
learners that train on that fold share the encoding and only read it.
What it keeps is derived from its own rows: their content ranks, and
the pruned C4.5 tree of all of them, which C4.5 and PART's first rule
both take.  Missing numeric values are replaced by the training median;
missing nominal values become an extra category one past the label
range.  A trained model encodes the inputs it tests of each row it
scores by the same rule, through its ``encoding_plan``.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field
from functools import cached_property

from ..errors import InvalidParamsError, SchemaMismatchError
from ..tabular import ROLE_INPUT, AttributeSpec, DataTable


@dataclass
class Encoded:
    specs: tuple[AttributeSpec, ...]
    input_idx: tuple[int, ...]
    class_labels: tuple[str, ...]
    y: list[int]
    cols: dict[int, list]
    numeric_fill: dict[str, float] = field(default_factory=dict)
    has_missing: dict[int, bool] = field(default_factory=dict)
    #: The pruned C4.5 tree of all rows by ``(confidence, min_leaf)``,
    #: filled by ``trees.build_c45``.
    c45_trees: dict = field(default_factory=dict, compare=False, repr=False)

    @property
    def n_rows(self) -> int:
        return len(self.y)

    @property
    def n_classes(self) -> int:
        return len(self.class_labels)

    def n_slots(self, attr: int) -> int:
        """Branch count of a nominal attribute, missing slot included."""
        labels = self.specs[attr].labels
        return len(labels) + (1 if self.has_missing.get(attr, False) else 0)

    @cached_property
    def content_rank(self) -> list[int]:
        """Each row's dense rank by content (inputs, then class): equal
        rows share a rank, so sorting by it orders rows as their content
        tuples do."""
        keys = list(zip(*(self.cols[a] for a in self.input_idx), self.y))
        rank = [0] * len(keys)
        previous = None
        r = -1
        for i in sorted(range(len(keys)), key=keys.__getitem__):
            if previous is None or keys[i] != previous:
                r += 1
                previous = keys[i]
            rank[i] = r
        return rank

    def canonical_order(self, idx: list[int]) -> list[int]:
        """Sort indices by row content so internal seeded splits do not
        depend on the incoming row order."""
        return sorted(idx, key=self.content_rank.__getitem__)


def encode_table(table: DataTable) -> Encoded:
    class_idx = table.class_index
    if class_idx is None:
        raise SchemaMismatchError("training table needs a class attribute")
    if table.n_rows == 0:
        raise InvalidParamsError("cannot train on an empty dataset")
    class_spec = table.specs[class_idx]
    input_idx = tuple(i for i, s in enumerate(table.specs) if s.role == ROLE_INPUT)
    y = [row[class_idx] for row in table.rows]
    if any(v is None for v in y):
        raise SchemaMismatchError("class column must not contain missing values")

    cols: dict[int, list] = {}
    numeric_fill: dict[str, float] = {}
    has_missing: dict[int, bool] = {}
    for i in input_idx:
        spec = table.specs[i]
        raw = [row[i] for row in table.rows]
        if spec.is_numeric:
            present = [v for v in raw if v is not None]
            fill = statistics.median(present) if present else 0.0
            numeric_fill[spec.name] = fill
            cols[i] = [fill if v is None else v for v in raw]
            has_missing[i] = False
        else:
            missing_slot = len(spec.labels)
            has_missing[i] = any(v is None for v in raw)
            cols[i] = [missing_slot if v is None else v for v in raw]
    return Encoded(
        specs=table.specs,
        input_idx=input_idx,
        class_labels=tuple(class_spec.labels),
        y=y,
        cols=cols,
        numeric_fill=numeric_fill,
        has_missing=has_missing,
    )


def encoding_plan(specs, input_idx, numeric_fill) -> tuple[tuple[int, bool, object], ...]:
    """Per input of ``input_idx``, ``(index, is_numeric, substitute for a
    missing cell)``: the stored fill of a numeric input (0.0 when none is
    stored), the slot past the labels of a nominal one.  A model plans
    only the inputs it tests, so it reads no other cell of a row."""
    return tuple(
        (i, True, numeric_fill.get(specs[i].name, 0.0))
        if specs[i].is_numeric
        else (i, False, len(specs[i].labels))
        for i in input_idx
    )


def encode_row(plan, row) -> dict:
    """Encode one instance row by an ``encoding_plan``: numeric cells as
    floats, nominal cells as their slot, a missing cell as its substitute."""
    out = {}
    for i, numeric, missing in plan:
        v = row[i]
        out[i] = missing if v is None else float(v) if numeric else v
    return out
