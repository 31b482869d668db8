"""Internal columnar encoding shared by the learners.

Training operates on plain lists indexed by row position so that
cross-validation folds are just index lists over one shared encoding.
Missing numeric values are replaced by the training median; missing
nominal values become an extra category one past the label range.
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
    class_idx: int
    input_idx: tuple[int, ...]
    class_labels: tuple[str, ...]
    y: list[int]
    cols: dict[int, list]
    numeric_fill: dict[str, float] = field(default_factory=dict)
    has_missing: dict[int, bool] = field(default_factory=dict)

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
        class_idx=class_idx,
        input_idx=input_idx,
        class_labels=tuple(class_spec.labels),
        y=y,
        cols=cols,
        numeric_fill=numeric_fill,
        has_missing=has_missing,
    )


def encode_row(specs, input_idx, numeric_fill, row):
    """Encode one instance row with the model's stored substitutions."""
    out = {}
    for i in input_idx:
        spec = specs[i]
        v = row[i]
        if spec.is_numeric:
            out[i] = numeric_fill.get(spec.name, 0.0) if v is None else float(v)
        else:
            out[i] = len(spec.labels) if v is None else v
    return out
