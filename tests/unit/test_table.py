"""Unit tests for repro.data.table."""

import datetime

import pytest

from repro.data import Schema, Table
from repro.errors import SchemaError


def make(rows=None):
    return Table.from_rows(
        Schema.of("k", "v"),
        rows if rows is not None else [("a", 1), ("b", 2), ("a", 3)],
    )


class TestConstruction:
    def test_empty(self):
        table = Table.empty(Schema.of("a"))
        assert table.num_rows == 0
        assert table.schema.names == ["a"]

    def test_from_row_dicts_fills_missing_with_none(self):
        table = Table.from_rows(Schema.of("a", "b"), [{"a": 1}])
        assert table.row(0) == {"a": 1, "b": None}

    def test_from_row_tuples(self):
        table = Table.from_rows(Schema.of("a", "b"), [(1, 2)])
        assert table.row(0) == {"a": 1, "b": 2}

    def test_row_tuple_arity_mismatch_raises(self):
        with pytest.raises(SchemaError, match="arity"):
            Table.from_rows(Schema.of("a", "b"), [(1,)])

    def test_ragged_columns_rejected(self):
        with pytest.raises(SchemaError, match="ragged"):
            Table(Schema.of("a", "b"), {"a": [1, 2], "b": [1]})

    def test_missing_column_data_rejected(self):
        with pytest.raises(SchemaError, match="missing data"):
            Table(Schema.of("a", "b"), {"a": [1]})

    def test_undeclared_column_data_rejected(self):
        with pytest.raises(SchemaError, match="undeclared"):
            Table(Schema.of("a"), {"a": [1], "z": [2]})

    def test_bool_is_always_true_even_when_empty(self):
        assert bool(Table.empty(Schema.of("a")))


class TestAccess:
    def test_len_and_counts(self):
        table = make()
        assert len(table) == 3
        assert table.num_rows == 3
        assert table.num_columns == 2

    def test_column_values(self):
        assert make().column("k") == ["a", "b", "a"]

    def test_column_unknown_raises(self):
        with pytest.raises(SchemaError):
            make().column("z")

    def test_row_out_of_range(self):
        with pytest.raises(IndexError):
            make().row(5)

    def test_rows_iteration(self):
        assert list(make().rows())[1] == {"k": "b", "v": 2}

    def test_rows_on_empty_table(self):
        assert list(Table.empty(Schema.of("a")).rows()) == []

    def test_row_tuples(self):
        assert list(make().row_tuples()) == [("a", 1), ("b", 2), ("a", 3)]

    def test_to_records(self):
        assert make().to_records()[0] == {"k": "a", "v": 1}

    def test_equality(self):
        assert make() == make()
        assert make() != make([("x", 9)])


class TestRelationalOps:
    def test_select_projects_and_orders(self):
        table = make().select(["v"])
        assert table.schema.names == ["v"]
        assert table.column("v") == [1, 2, 3]

    def test_drop(self):
        assert make().drop(["v"]).schema.names == ["k"]

    def test_rename(self):
        table = make().rename({"k": "key"})
        assert table.schema.names == ["key", "v"]
        assert table.column("key") == ["a", "b", "a"]

    def test_with_column_adds(self):
        table = make().with_column("w", [7, 8, 9])
        assert table.column("w") == [7, 8, 9]

    def test_with_column_replaces(self):
        table = make().with_column("v", [0, 0, 0])
        assert table.column("v") == [0, 0, 0]
        assert table.num_columns == 2

    def test_with_column_wrong_length_raises(self):
        with pytest.raises(SchemaError):
            make().with_column("w", [1])

    def test_filter_rows(self):
        table = make().filter_rows(lambda row: row["v"] > 1)
        assert table.num_rows == 2

    def test_take_reorders(self):
        table = make().take([2, 0])
        assert table.column("v") == [3, 1]

    def test_head(self):
        assert make().head(2).num_rows == 2
        assert make().head(100).num_rows == 3

    def test_concat(self):
        combined = make().concat(make())
        assert combined.num_rows == 6

    def test_concat_schema_mismatch_raises(self):
        with pytest.raises(SchemaError):
            make().concat(Table.empty(Schema.of("x")))

    def test_concat_all_many(self):
        parts = [make(), make([("z", 9)]), make([])]
        combined = Table.concat_all(parts)
        assert combined.num_rows == 4
        assert combined.column("k") == ["a", "b", "a", "z"]

    def test_concat_all_empty_needs_schema(self):
        with pytest.raises(SchemaError, match="needs a schema"):
            Table.concat_all([])
        empty = Table.concat_all([], schema=Schema.of("k", "v"))
        assert empty.num_rows == 0
        assert empty.schema.names == ["k", "v"]

    def test_concat_all_is_single_pass(self):
        # The multi-way union must not fall back to the pairwise
        # concat fold — each output column is built with one copy.
        original = Table.concat
        calls = []
        try:
            Table.concat = lambda self, other: calls.append(1)  # type: ignore
            combined = Table.concat_all([make(), make(), make()])
        finally:
            Table.concat = original  # type: ignore
        assert not calls
        assert combined.num_rows == 9

    def test_concat_all_result_independent_of_inputs(self):
        part = make()
        combined = Table.concat_all([part, make()])
        part.append_row({"k": "mutant", "v": 99})
        assert combined.num_rows == 6
        assert "mutant" not in combined.column("k")

    def test_concat_all_single_table_copies(self):
        part = make()
        copied = Table.concat_all([part])
        part.append_row({"k": "mutant", "v": 99})
        assert copied.num_rows == 3

    def test_concat_all_schema_mismatch_raises(self):
        with pytest.raises(SchemaError):
            Table.concat_all([make(), Table.empty(Schema.of("x"))])


class TestSorting:
    def test_single_key_ascending(self):
        table = make().sorted_by(["v"])
        assert table.column("v") == [1, 2, 3]

    def test_single_key_descending(self):
        table = make().sorted_by(["v"], descending=[True])
        assert table.column("v") == [3, 2, 1]

    def test_multi_key_stable(self):
        table = Table.from_rows(
            Schema.of("g", "v"),
            [("b", 1), ("a", 2), ("a", 1), ("b", 2)],
        ).sorted_by(["g", "v"])
        assert list(table.row_tuples()) == [
            ("a", 1), ("a", 2), ("b", 1), ("b", 2)
        ]

    def test_none_sorts_first_ascending(self):
        table = Table.from_rows(
            Schema.of("v"), [(2,), (None,), (1,)]
        ).sorted_by(["v"])
        assert table.column("v") == [None, 1, 2]

    def test_mixed_types_sort_by_the_order_table(self):
        # None < numbers (True == 1) < NaN < str < dates < the rest;
        # descending reverses the ranks, ties keep row order.
        cells = [2, "b", 1, None, float("nan"), "10",
                 datetime.date(2020, 1, 1), [1], True]
        table = Table(Schema.of("v"), {"v": cells})
        ascending = table.sorted_by(["v"]).column("v")
        assert [repr(v) for v in ascending] == [
            "None", "1", "True", "2", "nan", "'10'", "'b'",
            "datetime.date(2020, 1, 1)", "[1]",
        ]
        descending = table.sorted_by(["v"], [True]).column("v")
        assert [repr(v) for v in descending] == [
            "[1]", "datetime.date(2020, 1, 1)", "'b'", "'10'", "nan",
            "2", "1", "True", "None",
        ]

    def test_sort_unknown_key_raises(self):
        with pytest.raises(SchemaError):
            make().sorted_by(["zz"])

    def test_direction_arity_mismatch_raises(self):
        with pytest.raises(SchemaError):
            make().sorted_by(["v"], descending=[True, False])


class TestDistinct:
    def test_distinct_all_columns(self):
        table = Table.from_rows(
            Schema.of("a"), [(1,), (1,), (2,)]
        ).distinct()
        assert table.column("a") == [1, 2]

    def test_distinct_by_key_keeps_first(self):
        table = make().distinct(["k"])
        assert list(table.row_tuples()) == [("a", 1), ("b", 2)]

    def test_distinct_handles_unhashable_cells(self):
        table = Table.from_rows(
            Schema.of("a"), [([1, 2],), ([1, 2],), ([3],)]
        ).distinct()
        assert table.num_rows == 2

    def test_distinct_dict_cells(self):
        table = Table.from_rows(
            Schema.of("a"), [({"x": 1},), ({"x": 1},)]
        ).distinct()
        assert table.num_rows == 1


class TestMisc:
    def test_append_row(self):
        table = Table.empty(Schema.of("a", "b"))
        table.append_row({"a": 1})
        assert table.num_rows == 1
        assert table.row(0) == {"a": 1, "b": None}

    def test_infer_types(self):
        from repro.data import ColumnType

        table = Table.from_rows(
            Schema.of("i", "s", "m"),
            [(1, "x", 1), (2, "y", 2.5)],
        ).infer_types()
        assert table.schema["i"].type is ColumnType.INT
        assert table.schema["s"].type is ColumnType.STRING
        assert table.schema["m"].type is ColumnType.FLOAT

    def test_estimated_bytes_grows_with_rows(self):
        small = make([("a", 1)])
        assert make().estimated_bytes() > small.estimated_bytes()

    def test_repr_mentions_rows(self):
        assert "rows=3" in repr(make())


class TestFromGathers:
    """Column-by-column assembly: what ``take``, the join and the
    group-by build their outputs with."""

    def source(self):
        return Table.from_columns(
            Schema.of("city", "n", "odd"),
            {"city": ["x", "y", None], "n": [1, 2, 3], "odd": [1, "a", None]},
        )

    def test_gathers_keep_encodings_and_lists_are_adopted(self):
        source, fresh = self.source(), [10, 20]
        out = Table.from_gathers(
            Schema.of("where", "count", "odd", "new"),
            [
                (source, "city", [2, 0], False),
                (source, "n", [2, 0], False),
                (source, "odd", [2, 0], False),
                fresh,
            ],
        )
        assert list(out.row_tuples()) == [(None, 3, None, 10), ("x", 1, 1, 20)]
        assert out.column("new") is fresh
        assert out.encoded_column("where").tolist() == [None, "x"]
        assert out.encoded_column("count").tolist() == [3, 1]
        assert out.encoded_column("odd") is None  # boxed in the source

    def test_nullable_gather_reads_minus_one_as_none(self):
        out = Table.from_gathers(
            Schema.of("city", "n"),
            [
                (self.source(), "city", [1, -1, 0], True),
                (self.source(), "n", [1, -1, 0], True),
            ],
        )
        assert list(out.row_tuples()) == [("y", 2), (None, None), ("x", 1)]
        assert out.encoded_column("n") is None  # a plain list

    def test_take_is_a_gather_of_every_column(self):
        source = self.source()
        assert source.take([2, 2, 0]) == Table.from_gathers(
            source.schema,
            [(source, name, [2, 2, 0], False) for name in source.schema.names],
        )
        assert source.take([]).num_rows == 0

    def test_ragged_or_missing_columns_raise(self):
        with pytest.raises(SchemaError, match="from_gathers"):
            Table.from_gathers(Schema.of("a", "b"), [[1, 2], [1]])
        with pytest.raises(SchemaError, match="from_gathers"):
            Table.from_gathers(Schema.of("a", "b"), [[1, 2]])
