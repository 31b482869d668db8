"""Typed tabular data model, CSV/schema I/O, and id-based joining.

Cell values are plain Python objects interpreted through their attribute
spec: a finite ``float`` for numeric attributes, ``int`` (a label index)
for nominal attributes, and ``None`` for a missing value.  Tables are
immutable after construction and safe to share between concurrent tasks.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .errors import (
    DuplicateIdError,
    IdMismatchError,
    ParseError,
    SchemaMismatchError,
    UnknownAttributeError,
)

NUMERIC = "numeric"
NOMINAL = "nominal"

ROLE_ID = "id"
ROLE_INPUT = "input"
ROLE_CLASS = "class"

#: Canonical ordering of bundle sources; joins concatenate inputs this way.
SOURCE_ORDER = ("theory", "practice", "online", "exam")

#: Human-facing names used when rendering per-source report sections.
SOURCE_DISPLAY = {"theory": "Theory", "practice": "Practice", "online": "Moodle", "exam": "Exam"}


@dataclass(frozen=True)
class AttributeSpec:
    """Schema unit: a named column with a kind and a role."""

    name: str
    kind: str = NUMERIC
    labels: tuple[str, ...] | None = None
    role: str = ROLE_INPUT
    #: label -> index of a nominal attribute (``None`` for a numeric one).
    _indices: dict[str, int] | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in (NUMERIC, NOMINAL):
            raise SchemaMismatchError(f"unknown kind {self.kind!r} for attribute {self.name!r}")
        if self.role not in (ROLE_ID, ROLE_INPUT, ROLE_CLASS):
            raise SchemaMismatchError(f"unknown role {self.role!r} for attribute {self.name!r}")
        if self.kind == NOMINAL:
            # An input may have no labels: every cell of it is missing.
            if self.labels is None or (not self.labels and self.role == ROLE_CLASS):
                raise SchemaMismatchError(f"nominal attribute {self.name!r} needs labels")
            if len(set(self.labels)) != len(self.labels):
                raise SchemaMismatchError(f"duplicate labels in attribute {self.name!r}")
            # An empty cell is a missing value, so an empty label could not be read back.
            if "" in self.labels:
                raise SchemaMismatchError(f"empty label in attribute {self.name!r}")
            # Rules name the missing value "?", so a "?" label could not be told from it.
            if "?" in self.labels:
                raise SchemaMismatchError(f"label '?' in attribute {self.name!r}")
            object.__setattr__(self, "labels", tuple(self.labels))
            object.__setattr__(self, "_indices", {v: i for i, v in enumerate(self.labels)})
        elif self.labels is not None:
            raise SchemaMismatchError(f"numeric attribute {self.name!r} must not carry labels")

    @classmethod
    def numeric(cls, name: str, role: str = ROLE_INPUT) -> "AttributeSpec":
        return cls(name=name, kind=NUMERIC, role=role)

    @classmethod
    def nominal(cls, name: str, labels: Sequence[str], role: str = ROLE_INPUT) -> "AttributeSpec":
        return cls(name=name, kind=NOMINAL, labels=tuple(labels), role=role)

    @property
    def is_numeric(self) -> bool:
        return self.kind == NUMERIC

    @property
    def is_nominal(self) -> bool:
        return self.kind == NOMINAL

    def label_index(self, label: str) -> int:
        assert self._indices is not None
        return self._indices[label]


def _check_value(spec: AttributeSpec, value):
    if value is None:
        return None
    if spec.is_numeric:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise SchemaMismatchError(
                f"attribute {spec.name!r} is numeric but got {value!r}"
            )
        try:
            value = float(value)
        except OverflowError:
            raise SchemaMismatchError(
                f"attribute {spec.name!r} needs a finite number but got an int too large "
                "for a float"
            ) from None
        if not math.isfinite(value):
            raise SchemaMismatchError(
                f"attribute {spec.name!r} needs a finite number but got {value!r}"
            )
        return value
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaMismatchError(
            f"attribute {spec.name!r} is nominal but got {value!r}"
        )
    if not 0 <= value < len(spec.labels):
        try:
            shown = str(value)
        except ValueError:  # past the interpreter's int-to-text digit limit
            shown = f"of {value.bit_length()} bits"
        raise SchemaMismatchError(
            f"label index {shown} out of range for attribute {spec.name!r}"
        )
    return value


def _is_clean(spec: AttributeSpec, column: tuple) -> bool:
    """Whether ``_check_value`` returns every cell of ``column`` as it is.

    Exact types only: a ``bool``, a float subclass, or an ``int`` in a
    numeric column would be refused or converted.
    """
    kinds = set(map(type, column))
    if spec.is_numeric:
        # filter(None, ...) drops each None, and 0.0, which is finite anyway.
        return kinds <= {float, type(None)} and all(map(math.isfinite, filter(None, column)))
    return kinds <= {int, type(None)} and set(column) - {None} <= set(range(len(spec.labels)))


def _id_sort_key(spec: AttributeSpec, value):
    """Numeric ids sort by value, nominal ids by their label text padded
    with leading zeros; a missing id sorts first."""
    if spec.is_numeric:
        return -math.inf if value is None else value
    return value_to_text(spec, value).rjust(24, "0")


@dataclass(frozen=True)
class DataTable:
    """Immutable table: attribute specs plus one value tuple per row.

    At most one attribute carries the id role and at most one the class
    role (a joined table may legitimately have no id column).  Id values
    must be unique.
    """

    specs: tuple[AttributeSpec, ...]
    rows: tuple[tuple, ...]

    def __init__(self, specs: Sequence[AttributeSpec], rows: Iterable[Sequence]):
        specs = tuple(specs)
        names = [s.name for s in specs]
        if len(set(names)) != len(names):
            raise SchemaMismatchError("duplicate attribute names in schema")
        for role in (ROLE_ID, ROLE_CLASS):
            if sum(1 for s in specs if s.role == role) > 1:
                raise SchemaMismatchError(f"more than one attribute with role {role!r}")
        # Cells are checked a column at a time.  A table that needs a cell
        # converted or refused goes through the row-major check, which
        # converts, or raises the first error in row order.
        rows = tuple([row if type(row) is tuple else tuple(row) for row in rows])
        if not (set(map(len, rows)) <= {len(specs)} and all(map(_is_clean, specs, zip(*rows)))):
            checked = []
            for row in rows:
                if len(row) != len(specs):
                    raise SchemaMismatchError(
                        f"row length {len(row)} does not match schema width {len(specs)}"
                    )
                checked.append(tuple(_check_value(s, v) for s, v in zip(specs, row)))
            rows = tuple(checked)
        object.__setattr__(self, "specs", specs)
        object.__setattr__(self, "rows", rows)
        id_idx = self.id_index
        if id_idx is not None:
            seen = set()
            for row in self.rows:
                key = row[id_idx]
                if key in seen:
                    raise DuplicateIdError(f"duplicate id value {key!r}")
                seen.add(key)

    @property
    def n_rows(self) -> int:
        return len(self.rows)

    @property
    def id_index(self) -> int | None:
        for i, s in enumerate(self.specs):
            if s.role == ROLE_ID:
                return i
        return None

    @property
    def class_index(self) -> int | None:
        for i, s in enumerate(self.specs):
            if s.role == ROLE_CLASS:
                return i
        return None

    @property
    def class_spec(self) -> AttributeSpec | None:
        i = self.class_index
        return None if i is None else self.specs[i]

    @property
    def input_indices(self) -> tuple[int, ...]:
        return tuple(i for i, s in enumerate(self.specs) if s.role == ROLE_INPUT)

    def attr_index(self, name: str) -> int:
        for i, s in enumerate(self.specs):
            if s.name == name:
                return i
        raise UnknownAttributeError(f"no attribute named {name!r}")

    def column(self, name: str) -> list:
        i = self.attr_index(name)
        return [row[i] for row in self.rows]

    def with_rows(self, rows: Iterable[Sequence]) -> "DataTable":
        return DataTable(self.specs, rows)

    def take(self, positions: Sequence[int]) -> "DataTable":
        """The rows at ``positions``, in that order, on the same schema.

        The cells were checked when this table was built, so they are
        not checked again; only the positions are.  A repeated position
        would repeat an id, so it is refused on a table with an id column.
        """
        rows = self.rows
        n = len(rows)
        if positions and not (0 <= min(positions) and max(positions) < n):
            bad = next(p for p in positions if not 0 <= p < n)
            raise SchemaMismatchError(f"row position {bad} out of range for {n} rows")
        id_idx = self.id_index
        if id_idx is not None and len(set(positions)) != len(positions):
            seen = set()
            for p in positions:
                if p in seen:
                    raise DuplicateIdError(f"duplicate id value {rows[p][id_idx]!r}")
                seen.add(p)
        table = object.__new__(DataTable)
        object.__setattr__(table, "specs", self.specs)
        object.__setattr__(table, "rows", tuple([rows[p] for p in positions]))
        return table

    def project(self, names: Sequence[str]) -> "DataTable":
        idx = [self.attr_index(n) for n in names]
        specs = [self.specs[i] for i in idx]
        return DataTable(specs, [tuple(row[i] for i in idx) for row in self.rows])

    def sorted_by_id(self) -> "DataTable":
        i = self.id_index
        if i is None:
            return self
        spec = self.specs[i]
        keys = [_id_sort_key(spec, r[i]) for r in self.rows]
        return self.take(sorted(range(len(keys)), key=keys.__getitem__))

    def id_values(self) -> list:
        i = self.id_index
        if i is None:
            raise SchemaMismatchError("table has no id attribute")
        return [row[i] for row in self.rows]


@dataclass(frozen=True)
class SourceBundle:
    """Named map of tables keyed by a shared student id column."""

    sources: Mapping[str, DataTable] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "sources", dict(self.sources))
        for name in self.sources:
            if name not in SOURCE_ORDER:
                raise SchemaMismatchError(f"unknown source name {name!r}")
        id_sets = {}
        for name, table in self.sources.items():
            if table.id_index is None:
                raise SchemaMismatchError(f"source {name!r} has no id attribute")
            id_sets[name] = set(table.id_values())
        names = list(id_sets)
        if names:
            base = id_sets[names[0]]
            for name in names[1:]:
                if id_sets[name] != base:
                    diff = sorted(
                        base.symmetric_difference(id_sets[name]), key=lambda v: str(v)
                    )
                    raise IdMismatchError(
                        f"sources {names[0]!r} and {name!r} disagree on ids: {diff}",
                        offending_ids=diff,
                    )

    def ordered_names(self) -> list[str]:
        return [n for n in SOURCE_ORDER if n in self.sources]

    def __getitem__(self, name: str) -> DataTable:
        return self.sources[name]

    def __contains__(self, name: str) -> bool:
        return name in self.sources


def left_sum(values) -> float:
    """The float sum of ``values``, added left to right from ``0.0``.

    This is the package's one float sum: from Python 3.12 on, the built-in
    ``sum`` compensates float sums, so its result would depend on the
    interpreter; this fold is what ``sum`` does up to 3.11.
    """
    total = 0.0
    for v in values:
        total += v
    return total


def number_text(value) -> str:
    """Text of a number as a float: an integer, or the shortest decimal
    text that round-trips it (``repr``)."""
    value = float(value)
    if value.is_integer() and abs(value) < 1e16:
        return str(int(value))
    return repr(value)


def _formatter(spec: AttributeSpec):
    """The text of a present cell of ``spec``'s column."""
    return number_text if spec.is_numeric else spec.labels.__getitem__


def value_to_text(spec: AttributeSpec, value) -> str:
    """Serialize one cell; the empty string encodes a missing value."""
    return "" if value is None else _formatter(spec)(value)


def text_to_value(spec: AttributeSpec, text: str, row: int):
    if text == "":
        return None
    if spec.is_numeric:
        try:
            return float(text)
        except ValueError:
            raise ParseError(row, spec.name, f"not a number: {text!r}") from None
    try:
        return spec.label_index(text)
    except KeyError:
        raise ParseError(row, spec.name, f"unknown label: {text!r}") from None


def load_csv(path, schema: Sequence[AttributeSpec]) -> DataTable:
    """Read a comma-delimited file whose header matches ``schema`` in order."""
    schema = tuple(schema)
    path = Path(path)
    with path.open("r", encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise SchemaMismatchError(f"{path}: file is empty") from None
        expected = [s.name for s in schema]
        if header != expected:
            raise SchemaMismatchError(
                f"{path}: header {header!r} does not match schema {expected!r}"
            )
        # A parser refuses an empty cell, a bad number or an unknown label;
        # its row goes through text_to_value, which reads or reports each.
        parsers = [float if s.is_numeric else s.label_index for s in schema]
        rows = []
        try:
            for line_no, record in enumerate(reader, start=1):
                if len(record) != len(schema):
                    raise ParseError(
                        line_no, "<row>", f"expected {len(schema)} cells, got {len(record)}"
                    )
                try:
                    rows.append(tuple([parse(cell) for parse, cell in zip(parsers, record)]))
                except (ValueError, KeyError):
                    rows.append(tuple(
                        text_to_value(s, cell, line_no) for s, cell in zip(schema, record)
                    ))
        except csv.Error as err:  # e.g. a cell over the csv module's field size limit
            raise ParseError(len(rows) + 1, "<row>", str(err)) from None
    return DataTable(schema, rows)


def save_csv(table: DataTable, path) -> None:
    """Write ``table`` so that ``load_csv`` reproduces it value for value."""
    path = Path(path)
    with path.open("w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow([s.name for s in table.specs])
        formats = [_formatter(s) for s in table.specs]
        for row in table.rows:
            writer.writerow(["" if v is None else f(v) for f, v in zip(formats, row)])


def schema_to_json(schema: Sequence[AttributeSpec]) -> str:
    entries = []
    for s in schema:
        entry = {"name": s.name, "kind": s.kind, "role": s.role}
        if s.labels is not None:
            entry["labels"] = list(s.labels)
        entries.append(entry)
    return json.dumps(entries, indent=2, sort_keys=True) + "\n"


def _is_text_list(value) -> bool:
    return isinstance(value, list) and all(isinstance(v, str) for v in value)


def schema_from_json(text: str) -> tuple[AttributeSpec, ...]:
    """Parse ``schema_to_json`` output; a malformed entry is a schema mismatch.

    Names and labels must be strings, as CSV headers and cells are.
    """
    try:
        specs = []
        for entry in json.loads(text):
            if not isinstance(entry["name"], str) or (
                "labels" in entry and not _is_text_list(entry["labels"])
            ):
                raise TypeError(f"entry {len(specs)} needs a string name and string labels")
            specs.append(AttributeSpec(
                name=entry["name"],
                kind=entry["kind"],
                labels=tuple(entry["labels"]) if "labels" in entry else None,
                role=entry.get("role", ROLE_INPUT),
            ))
        return tuple(specs)
    except (ValueError, KeyError, TypeError, AttributeError) as err:
        raise SchemaMismatchError(f"malformed schema JSON: {err!r}") from None


def join_on_id(bundle: SourceBundle, drop_id: bool = True) -> DataTable:
    """Merge bundle tables into one row per student, sorted by id.

    Output columns are the input columns of each source in canonical
    source order, followed by the single class column found among the
    sources (the exam's, after preprocessing).  The id column of the
    first source is kept unless ``drop_id`` is set.
    """
    names = bundle.ordered_names()
    if not names:
        raise SchemaMismatchError("bundle has no sources")
    first = bundle[names[0]]
    id_spec = first.specs[first.id_index]
    ids = sorted(first.id_values(), key=lambda v: _id_sort_key(id_spec, v))

    specs: list[AttributeSpec] = []
    if not drop_id:
        specs.append(id_spec)
    pulls: list[tuple[str, int]] = []  # (source, column index) per output column
    class_pull: tuple[str, int] | None = None
    class_spec: AttributeSpec | None = None
    for name in names:
        table = bundle[name]
        for i in table.input_indices:
            specs.append(table.specs[i])
            pulls.append((name, i))
        ci = table.class_index
        if ci is not None:
            if class_pull is not None:
                raise SchemaMismatchError("more than one source carries a class column")
            class_pull = (name, ci)
            class_spec = table.specs[ci]
    if class_spec is not None:
        specs.append(class_spec)

    by_id = {name: dict(zip(bundle[name].id_values(), bundle[name].rows)) for name in names}
    rows = []
    for key in ids:
        row = []
        if not drop_id:
            row.append(key)
        for name, i in pulls:
            row.append(by_id[name][key][i])
        if class_pull is not None:
            name, ci = class_pull
            row.append(by_id[name][key][ci])
        rows.append(tuple(row))
    return DataTable(specs, rows)
