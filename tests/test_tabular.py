import json

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
