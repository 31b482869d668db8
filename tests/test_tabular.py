import csv
import json
import math
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from fusemine.errors import (
    DuplicateIdError,
    FusemineError,
    IdMismatchError,
    ParseError,
    SchemaMismatchError,
    UnknownAttributeError,
)
from fusemine.tabular import (
    AttributeSpec,
    DataTable,
    SourceBundle,
    join_on_id,
    left_sum,
    load_csv,
    save_csv,
    schema_from_json,
    schema_to_json,
)

from helpers import json_values


def id_spec(name="id"):
    return AttributeSpec.numeric(name, role="id")


def simple_table(ids, scores):
    specs = [id_spec(), AttributeSpec.numeric("score")]
    return DataTable(specs, [(float(i), s) for i, s in zip(ids, scores)])


class TestSpecs:
    def test_nominal_requires_labels(self):
        with pytest.raises(SchemaMismatchError):
            AttributeSpec(name="x", kind="nominal")

    def test_duplicate_labels_rejected(self):
        with pytest.raises(SchemaMismatchError):
            AttributeSpec.nominal("x", ["Low", "Low"])

    def test_label_lookup(self):
        spec = AttributeSpec.nominal("x", ["Low", "Medium", "High"])
        assert spec.label_index("High") == 2

    def test_empty_label_rejected(self):
        """An empty CSV cell is a missing value, so an empty label could not be read back."""
        with pytest.raises(SchemaMismatchError, match="empty label"):
            AttributeSpec.nominal("x", ["", "a"])
        with pytest.raises(SchemaMismatchError, match="empty label"):
            schema_from_json('[{"name": "x", "kind": "nominal", "labels": ["", "a"]}]')

    def test_question_mark_label_rejected(self):
        """Rules name the missing value "?", so a "?" label could not be told from it."""
        with pytest.raises(SchemaMismatchError, match="label '\\?'"):
            AttributeSpec.nominal("x", ["a", "?"])
        with pytest.raises(SchemaMismatchError, match="label '\\?'"):
            schema_from_json('[{"name": "x", "kind": "nominal", "labels": ["?"]}]')

    def test_only_an_input_may_have_no_labels(self):
        assert AttributeSpec.nominal("x", []).labels == ()
        with pytest.raises(SchemaMismatchError, match="needs labels"):
            AttributeSpec.nominal("Status", [], role="class")


class TestDataTable:
    def test_row_width_checked(self):
        with pytest.raises(SchemaMismatchError):
            DataTable([id_spec()], [(1.0, 2.0)])

    def test_value_variant_checked(self):
        specs = [id_spec(), AttributeSpec.nominal("grade", ["Low", "High"])]
        with pytest.raises(SchemaMismatchError):
            DataTable(specs, [(1.0, 0.5)])

    def test_nominal_index_bounds_checked(self):
        specs = [id_spec(), AttributeSpec.nominal("grade", ["Low", "High"])]
        with pytest.raises(SchemaMismatchError):
            DataTable(specs, [(1.0, 2)])

    def test_duplicate_ids_rejected(self):
        with pytest.raises(DuplicateIdError):
            simple_table([1, 1], [0.0, 1.0])

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_number_rejected(self, value):
        with pytest.raises(SchemaMismatchError):
            simple_table([1], [value])

    @pytest.mark.parametrize("value", [10**400, -(10**400)])
    def test_int_too_large_for_a_float_rejected(self, value):
        with pytest.raises(SchemaMismatchError, match="too large for a float"):
            DataTable([AttributeSpec.numeric("v")], [(value,)])

    @pytest.mark.parametrize("value, shown", [
        (10**5000, "of 16610 bits"),
        (-(10**5000), "of 16610 bits"),
        (10**4000, "1" + "0" * 4000),
    ], ids=["10**5000", "-10**5000", "10**4000"])
    def test_label_index_of_any_size_rejected(self, value, shown):
        with pytest.raises(SchemaMismatchError) as raised:
            DataTable([AttributeSpec.nominal("g", ["a"])], [(value,)])
        assert str(raised.value) == f"label index {shown} out of range for attribute 'g'"

    def test_two_class_columns_rejected(self):
        specs = [
            id_spec(),
            AttributeSpec.nominal("a", ["x"], role="class"),
            AttributeSpec.nominal("b", ["x"], role="class"),
        ]
        with pytest.raises(SchemaMismatchError):
            DataTable(specs, [])

    def test_sorted_by_id_pads_numerically(self):
        table = simple_table([10, 2, 33], [1.0, 2.0, 3.0])
        assert table.sorted_by_id().id_values() == [2.0, 10.0, 33.0]

    def test_numeric_ids_sort_by_value(self):
        ids = [100000.0, -3.0, None, 99999.5, 1e20, -5.0, 2.5]
        table = DataTable([id_spec(), AttributeSpec.numeric("score")], [(i, 0.0) for i in ids])
        assert table.sorted_by_id().id_values() == [None, -5.0, -3.0, 2.5, 99999.5, 100000.0, 1e20]

    def test_nominal_ids_sort_by_padded_label(self):
        spec = AttributeSpec.nominal("id", ["b", "10", "a", "9"], role="id")
        table = DataTable([spec, AttributeSpec.numeric("score")], [(i, 0.0) for i in (0, 1, None, 2, 3)])
        assert table.sorted_by_id().id_values() == [None, 3, 2, 0, 1]


class TestCsvRoundTrip:
    def test_three_row_identity(self, tmp_path):
        table = simple_table([1, 2, 3], [0.5, 1.5, 2.5])
        path = tmp_path / "t.csv"
        save_csv(table, path)
        assert load_csv(path, table.specs) == table

    def test_nominal_label_lookup(self, tmp_path):
        specs = [id_spec(), AttributeSpec.nominal("grade", ["Low", "Medium", "High"])]
        path = tmp_path / "t.csv"
        path.write_text("id,grade\n1,High\n", encoding="utf-8")
        table = load_csv(path, specs)
        assert table.rows[0][1] == 2

    def test_numeric_parse_failure(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("id,score\n1,abc\n", encoding="utf-8")
        with pytest.raises(ParseError) as err:
            load_csv(path, [id_spec(), AttributeSpec.numeric("score")])
        assert err.value.row == 1
        assert err.value.column == "score"

    def test_header_mismatch(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("id,wrong\n1,1\n", encoding="utf-8")
        with pytest.raises(SchemaMismatchError):
            load_csv(path, [id_spec(), AttributeSpec.numeric("score")])

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "NaN", "Infinity"])
    def test_non_finite_cell_rejected(self, tmp_path, cell):
        path = tmp_path / "t.csv"
        path.write_text(f"id,score\n1,{cell}\n", encoding="utf-8")
        with pytest.raises(SchemaMismatchError):
            load_csv(path, [id_spec(), AttributeSpec.numeric("score")])

    def test_duplicate_id_in_file(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("id,score\n1,1\n1,2\n", encoding="utf-8")
        with pytest.raises(DuplicateIdError):
            load_csv(path, [id_spec(), AttributeSpec.numeric("score")])

    def test_missing_cell_round_trip(self, tmp_path):
        specs = [id_spec(), AttributeSpec.numeric("score")]
        table = DataTable(specs, [(1.0, None)])
        path = tmp_path / "t.csv"
        save_csv(table, path)
        assert path.read_text(encoding="utf-8") == "id,score\n1,\n"
        assert load_csv(path, specs) == table

    def test_long_decimal_preserved(self, tmp_path):
        specs = [id_spec(), AttributeSpec.numeric("score")]
        table = DataTable(specs, [(1.0, 0.3333333333)])
        path = tmp_path / "t.csv"
        save_csv(table, path)
        text = path.read_text(encoding="utf-8")
        assert "0.3333333333" in text
        assert load_csv(path, specs).rows[0][1] == 0.3333333333

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_round_trip_property(self, data, tmp_path_factory):
        n = data.draw(st.integers(1, 8))
        specs = [
            id_spec(),
            AttributeSpec.numeric("num"),
            AttributeSpec.nominal("nom", ["a", "b", "c"]),
        ]
        rows = []
        for i in range(n):
            num = data.draw(
                st.one_of(
                    st.none(),
                    st.floats(allow_nan=False, allow_infinity=False, width=64),
                )
            )
            nom = data.draw(st.one_of(st.none(), st.integers(0, 2)))
            rows.append((float(i), num, nom))
        table = DataTable(specs, rows)
        path = tmp_path_factory.mktemp("csv") / "t.csv"
        save_csv(table, path)
        assert load_csv(path, specs) == table


class TestSchemaJson:
    def test_round_trip(self):
        schema = (
            id_spec(),
            AttributeSpec.numeric("score"),
            AttributeSpec.nominal("grade", ["Low", "High"], role="class"),
        )
        assert schema_from_json(schema_to_json(schema)) == schema

    @pytest.mark.parametrize("text", ["{", "[1]", '[{"kind": "numeric"}]', '{"name": "x"}'])
    def test_malformed_schema_rejected(self, text):
        with pytest.raises(SchemaMismatchError):
            schema_from_json(text)


class TestTake:
    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_equals_with_rows(self, data):
        n = data.draw(st.integers(0, 8))
        keyed = simple_table(range(n), [i / 3 for i in range(n)])
        unkeyed = keyed.project(["score"])
        distinct = data.draw(st.permutations(range(n)))[: data.draw(st.integers(0, n))]
        repeated = data.draw(st.lists(st.integers(0, n - 1), max_size=12)) if n else []
        for table, positions in ((keyed, distinct), (unkeyed, distinct), (unkeyed, repeated)):
            assert table.take(positions) == table.with_rows(
                [table.rows[i] for i in positions]
            )

    def test_repeated_position_rejected_with_id_column(self):
        table = simple_table([1, 2, 3], [0.1, 0.2, 0.3])
        with pytest.raises(DuplicateIdError, match="2.0"):
            table.take([0, 1, 1])

    @pytest.mark.parametrize("positions", [[3], [0, -1], [5, 0]])
    def test_out_of_range_position_rejected(self, positions):
        table = simple_table([1, 2, 3], [0.1, 0.2, 0.3])
        with pytest.raises(SchemaMismatchError, match="out of range"):
            table.take(positions)
        with pytest.raises(SchemaMismatchError, match="out of range"):
            table.project(["score"]).take(positions)


#: Any JSON value, its objects often keyed like schema entries.
JSON_VALUES = json_values(
    st.sampled_from(["name", "kind", "labels", "role"]) | st.text(max_size=6)
)

SCHEMA_ENTRIES = st.fixed_dictionaries(
    {"name": st.text(max_size=4) | JSON_VALUES,
     "kind": st.sampled_from(["numeric", "nominal"]) | JSON_VALUES},
    optional={"labels": st.lists(st.text(max_size=3), max_size=3) | JSON_VALUES,
              "role": st.sampled_from(["id", "input", "class"]) | JSON_VALUES},
)

FUZZ_SCHEMA = (
    AttributeSpec.numeric("id", role="id"),
    AttributeSpec.numeric("x"),
    AttributeSpec.nominal("g", ["a", "b"], role="class"),
)

#: Arbitrary text, and text under the right header built from the cells' own characters.
CSV_TEXTS = st.text(st.characters(codec="utf-8")) | st.text(
    st.sampled_from('0123456789.,-+e\n\r" abinf_'), max_size=40
).map(lambda body: "id,x,g\n" + body)


class TestInputFuzz:
    @settings(max_examples=300, deadline=None)
    @given(value=st.lists(SCHEMA_ENTRIES, max_size=3) | JSON_VALUES)
    def test_schema_from_json_parses_or_rejects(self, value):
        """Any JSON value gives a schema of string names and labels, or a ``FusemineError``."""
        try:
            schema = schema_from_json(json.dumps(value))
        except FusemineError:
            return
        for spec in schema:
            assert isinstance(spec, AttributeSpec) and isinstance(spec.name, str)
            assert spec.labels is None or all(isinstance(v, str) for v in spec.labels)

    @settings(max_examples=300, deadline=None)
    @given(text=CSV_TEXTS)
    def test_load_csv_loads_or_rejects(self, text, tmp_path_factory):
        """Any CSV text gives a table or a ``FusemineError``, never another exception."""
        path = tmp_path_factory.mktemp("csv-fuzz") / "t.csv"
        path.write_text(text, encoding="utf-8", newline="")
        try:
            table = load_csv(path, FUZZ_SCHEMA)
        except FusemineError:
            return
        assert isinstance(table, DataTable) and table.specs == FUZZ_SCHEMA

    def test_cell_over_the_csv_field_limit_is_a_parse_error(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("id,x,g\n1," + "1" * 200_000 + ",a\n", encoding="utf-8")
        with pytest.raises(ParseError, match="row 1"):
            load_csv(path, FUZZ_SCHEMA)


def make_bundle(n=4):
    ids = [float(i) for i in range(1, n + 1)]
    theory = DataTable(
        [id_spec(), AttributeSpec.numeric("Theory.A"), AttributeSpec.numeric("Theory.B")],
        [(i, i * 0.1, i * 0.2) for i in ids],
    )
    practice = DataTable(
        [id_spec(), AttributeSpec.numeric("Practice.A")],
        [(i, i + 10.0) for i in ids],
    )
    online = DataTable(
        [id_spec(), AttributeSpec.numeric("Moodle.A")],
        [(i, i + 20.0) for i in ids],
    )
    exam = DataTable(
        [id_spec(), AttributeSpec.nominal("Status", ["Pass", "Fail"], role="class")],
        [(i, int(i) % 2) for i in ids],
    )
    return SourceBundle(
        {"theory": theory, "practice": practice, "online": online, "exam": exam}
    )


class TestJoin:
    def test_column_layout_and_shape(self):
        joined = join_on_id(make_bundle(), drop_id=True)
        assert [s.name for s in joined.specs] == [
            "Theory.A",
            "Theory.B",
            "Practice.A",
            "Moodle.A",
            "Status",
        ]
        assert joined.n_rows == 4
        assert joined.class_index == 4

    def test_keep_id(self):
        joined = join_on_id(make_bundle(), drop_id=False)
        assert joined.specs[0].role == "id"
        assert joined.id_values() == [1.0, 2.0, 3.0, 4.0]

    def test_rows_sorted_by_id_regardless_of_input_order(self):
        bundle = make_bundle()
        shuffled = SourceBundle(
            {
                name: table.with_rows(reversed(table.rows))
                for name, table in bundle.sources.items()
            }
        )
        assert join_on_id(shuffled, drop_id=False) == join_on_id(bundle, drop_id=False)

    def test_rows_sorted_by_numeric_id_value(self):
        ids = [-5.0, 100000.0, 2.5, -3.0, 99999.5]
        bundle = SourceBundle({
            name: DataTable(
                [id_spec(), AttributeSpec.numeric(f"{name}.A")], [(i, i) for i in ids]
            )
            for name in ("theory", "online")
        })
        joined = join_on_id(bundle, drop_id=False)
        assert joined.id_values() == sorted(ids)
        assert joined.column("online.A") == sorted(ids)

    def test_single_source_identity(self):
        exam = make_bundle()["exam"]
        joined = join_on_id(SourceBundle({"exam": exam}), drop_id=False)
        assert joined == exam.sorted_by_id()

    def test_id_mismatch_reports_offenders(self):
        bundle = make_bundle()
        exam = bundle["exam"]
        short = exam.with_rows(exam.rows[:-1])
        with pytest.raises(IdMismatchError) as err:
            SourceBundle({**bundle.sources, "exam": short})
        assert 4.0 in err.value.offending_ids

    def test_unknown_projection_rejected(self):
        joined = join_on_id(make_bundle())
        with pytest.raises(UnknownAttributeError):
            joined.project(["nope"])


# The cell-by-cell check, parse and format of the row-major tabular code,
# kept verbatim as the reference the column-at-a-time code must match.

def ref_label_index(spec, label):
    assert spec.labels is not None
    try:
        return spec.labels.index(label)
    except ValueError:
        raise KeyError(label) from None


def ref_check_value(spec, value):
    if value is None:
        return None
    if spec.is_numeric:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise SchemaMismatchError(
                f"attribute {spec.name!r} is numeric but got {value!r}"
            )
        value = float(value)
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
        raise SchemaMismatchError(
            f"label index {value} out of range for attribute {spec.name!r}"
        )
    return value


def ref_table_rows(specs, rows):
    """The rows ``DataTable(specs, rows)`` keeps, from the row-major constructor."""
    specs = tuple(specs)
    names = [s.name for s in specs]
    if len(set(names)) != len(names):
        raise SchemaMismatchError("duplicate attribute names in schema")
    for role in ("id", "class"):
        if sum(1 for s in specs if s.role == role) > 1:
            raise SchemaMismatchError(f"more than one attribute with role {role!r}")
    checked = []
    for row in rows:
        row = tuple(row)
        if len(row) != len(specs):
            raise SchemaMismatchError(
                f"row length {len(row)} does not match schema width {len(specs)}"
            )
        checked.append(tuple(ref_check_value(s, v) for s, v in zip(specs, row)))
    id_idx = next((i for i, s in enumerate(specs) if s.role == "id"), None)
    if id_idx is not None:
        seen = set()
        for row in checked:
            key = row[id_idx]
            if key in seen:
                raise DuplicateIdError(f"duplicate id value {key!r}")
            seen.add(key)
    return tuple(checked)


def ref_value_to_text(spec, value):
    if value is None:
        return ""
    if spec.is_numeric:
        if float(value).is_integer() and abs(value) < 1e16:
            return str(int(value))
        return repr(float(value))
    return spec.labels[value]


def ref_text_to_value(spec, text, row):
    if text == "":
        return None
    if spec.is_numeric:
        try:
            return float(text)
        except ValueError:
            raise ParseError(row, spec.name, f"not a number: {text!r}") from None
    try:
        return ref_label_index(spec, text)
    except KeyError:
        raise ParseError(row, spec.name, f"unknown label: {text!r}") from None


def ref_load_csv(path, schema):
    """The rows ``load_csv`` keeps, from the cell-by-cell reader."""
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
        rows = []
        try:
            for line_no, record in enumerate(reader, start=1):
                if len(record) != len(schema):
                    raise ParseError(
                        line_no, "<row>", f"expected {len(schema)} cells, got {len(record)}"
                    )
                rows.append(
                    tuple(ref_text_to_value(s, cell, line_no) for s, cell in zip(schema, record))
                )
        except csv.Error as err:
            raise ParseError(len(rows) + 1, "<row>", str(err)) from None
    return ref_table_rows(schema, rows)


def ref_save_csv(table, path):
    path = Path(path)
    with path.open("w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow([s.name for s in table.specs])
        for row in table.rows:
            writer.writerow([ref_value_to_text(s, v) for s, v in zip(table.specs, row)])


def outcome(call, *args):
    """A result by ``repr``, so that types count, or an error by type, text, row and column."""
    try:
        return "ok", repr(call(*args))
    except Exception as err:
        return type(err), str(err), getattr(err, "row", None), getattr(err, "column", None)


class FloatSub(float):
    """A float subclass; a table stores its value as a plain ``float``."""


LABELS = ("a", "b", "c")
IDS = st.sampled_from([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])  # few, so ids often repeat


def draw_schema(data):
    """An optional id column, then up to three numeric or nominal inputs."""
    specs = [id_spec()] if data.draw(st.booleans()) else []
    for i in range(data.draw(st.integers(0, 3))):
        if data.draw(st.booleans()):
            specs.append(AttributeSpec.numeric(f"x{i}"))
        else:
            specs.append(AttributeSpec.nominal(f"x{i}", LABELS[: data.draw(st.integers(1, 3))]))
    return specs


def clean_cells(spec):
    if spec.role == "id":
        return IDS
    if spec.is_numeric:
        return st.none() | st.floats(allow_nan=False, allow_infinity=False)
    return st.none() | st.integers(0, len(spec.labels) - 1)


def dirty_cells(spec):
    """Cells a table converts or refuses.

    Ints stay within float range: past it the reference raises
    ``OverflowError`` where the table raises ``SchemaMismatchError``.
    """
    if spec.is_numeric:
        return (
            st.sampled_from([math.nan, math.inf, -math.inf, True, False, "1"])
            | st.integers(-(2**80), 2**80)
            | st.floats(allow_nan=False).map(FloatSub)
        )
    return (
        st.sampled_from([True, False, 0.0, 1.0, "a"])
        | st.integers(-3, -1)
        | st.integers(len(spec.labels), len(spec.labels) + 3)
    )


def draw_rows(data, specs):
    """Mostly clean rows, some with a dirty cell, a missing or extra cell, or as lists."""
    rows = [[data.draw(clean_cells(s)) for s in specs] for _ in range(data.draw(st.integers(0, 6)))]
    for _ in range(data.draw(st.integers(0, 2))):
        if rows and specs:
            row = data.draw(st.sampled_from(rows))
            j = data.draw(st.integers(0, len(specs) - 1))
            row[j] = data.draw(dirty_cells(specs[j]))
    if rows and data.draw(st.integers(0, 4)) == 0:
        row = data.draw(st.sampled_from(rows))
        if row and data.draw(st.booleans()):
            row.pop()
        else:
            row.append(None)
    return [row if data.draw(st.booleans()) else tuple(row) for row in rows]


#: Text cells of a numeric column: numbers, an empty cell, and cells it cannot read.
NUMBER_TEXTS = (
    st.floats(allow_nan=False, allow_infinity=False).map(repr)
    | st.integers(-(10**20), 10**20).map(str)
    | st.sampled_from(["", "abc", "nan", "inf", "-inf", "1e400", " 2 ", "1_0", "a", "0x1"])
)
#: A cell over the csv module's field size limit.
HUGE_CELL = "1" * (csv.field_size_limit() + 1)


def text_cells(spec):
    if spec.role == "id":
        return IDS.map(repr) | st.sampled_from(["", "x"])
    if spec.is_numeric:
        return NUMBER_TEXTS
    return st.sampled_from([*spec.labels, "", "zz", "1", " a"])


class TestColumnChecksMatchRowMajor:
    """Tables, CSV reads and CSV writes equal the cell-by-cell reference, errors included."""

    @settings(max_examples=400, deadline=None)
    @given(data=st.data())
    def test_table_rows(self, data):
        specs = draw_schema(data)
        rows = draw_rows(data, specs)
        assert outcome(lambda: DataTable(specs, rows).rows) == outcome(ref_table_rows, specs, rows)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_load_csv(self, data, tmp_path_factory):
        specs = draw_schema(data)
        header = [s.name for s in specs]
        if header and data.draw(st.integers(0, 9)) == 0:
            header[-1] += "_"
        lines = [",".join(header)]
        for _ in range(data.draw(st.integers(0, 6))):
            cells = [data.draw(text_cells(s)) for s in specs]
            if cells and data.draw(st.integers(0, 9)) == 0:
                cells[data.draw(st.integers(0, len(cells) - 1))] = HUGE_CELL
            if data.draw(st.integers(0, 9)) == 0:
                cells = cells[:-1] if data.draw(st.booleans()) else cells + ["1"]
            lines.append(",".join(cells))
        path = tmp_path_factory.mktemp("csv-ref") / "t.csv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert outcome(lambda: load_csv(path, specs).rows) == outcome(ref_load_csv, path, specs)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_save_csv(self, data, tmp_path_factory):
        specs = draw_schema(data)
        numbers = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
            [-0.0, 1e15, 1e16, -1e16, 123456789012345.0, 5e-324, 0.1]
        )
        rows = {}
        for _ in range(data.draw(st.integers(0, 6))):
            row = tuple(
                data.draw(clean_cells(s) if s.role == "id" or s.is_nominal else st.none() | numbers)
                for s in specs
            )
            rows[row[0] if specs and specs[0].role == "id" else len(rows)] = row
        table = DataTable(specs, list(rows.values()))
        folder = tmp_path_factory.mktemp("csv-save")
        save_csv(table, folder / "new.csv")
        ref_save_csv(table, folder / "ref.csv")
        assert (folder / "new.csv").read_bytes() == (folder / "ref.csv").read_bytes()


def test_left_sum_adds_from_the_left_on_every_python():
    # A compensated sum, as the built-in sum is from Python 3.12 on, gives
    # 2.0 here; adding left to right loses both 1.0s to 1e100.
    values = [1.0, 1e100, 1.0, -1e100]
    assert left_sum(values) == 0.0
    assert left_sum(iter(values)) == 0.0
    assert left_sum([]) == 0.0
