"""Unit tests for groupby tasks and aggregates."""

import pytest

from repro.data import Schema, Table
from repro.errors import TaskConfigError, TaskExecutionError
from repro.tasks.base import TaskContext
from repro.tasks.groupby import (
    Aggregate,
    GroupByTask,
    aggregate_names,
    register_aggregate,
)


def run(config, rows, schema):
    task = GroupByTask("g", config)
    table = Table.from_rows(schema, rows)
    return task.apply([table], TaskContext())


class TestBasicGrouping:
    def test_paper_fig8_sum_aggregates(self):
        """The get_svn_jira_count task (Fig. 8)."""
        out = run(
            {
                "groupby": ["project", "year"],
                "aggregates": [
                    {"operator": "sum", "apply_on": "noOfCheckins",
                     "out_field": "total_checkins"},
                    {"operator": "sum", "apply_on": "noOfBugs",
                     "out_field": "total_jira"},
                ],
            },
            [
                ("pig", 2013, 10, 1),
                ("pig", 2013, 20, 2),
                ("hive", 2013, 5, 9),
            ],
            Schema.of("project", "year", "noOfCheckins", "noOfBugs"),
        )
        assert out.to_records() == [
            {"project": "pig", "year": 2013, "total_checkins": 30,
             "total_jira": 3},
            {"project": "hive", "year": 2013, "total_checkins": 5,
             "total_jira": 9},
        ]

    def test_bare_groupby_counts(self):
        """Fig. 23: groupby [date, player] produces a count column."""
        out = run(
            {"groupby": ["k"]},
            [("a",), ("a",), ("b",)],
            Schema.of("k"),
        )
        assert out.to_records() == [
            {"k": "a", "count": 2}, {"k": "b", "count": 1}
        ]

    def test_group_order_is_first_seen(self):
        out = run(
            {"groupby": ["k"]}, [("z",), ("a",), ("z",)], Schema.of("k")
        )
        assert out.column("k") == ["z", "a"]

    def test_none_is_a_valid_group_key(self):
        out = run(
            {"groupby": ["k"]}, [(None,), ("a",), (None,)], Schema.of("k")
        )
        assert out.to_records()[0] == {"k": None, "count": 2}

    def test_out_field_defaults_to_apply_on(self):
        out = run(
            {
                "groupby": ["k"],
                "aggregates": [{"operator": "sum", "apply_on": "v"}],
            },
            [("a", 1), ("a", 2)],
            Schema.of("k", "v"),
        )
        assert out.row(0) == {"k": "a", "v": 3}

    def test_orderby_aggregates_sorts_descending(self):
        """Appendix A.2's aggregate_by_word uses orderby_aggregates."""
        out = run(
            {
                "groupby": ["k"],
                "aggregates": [
                    {"operator": "sum", "apply_on": "v", "out_field": "t"}
                ],
                "orderby_aggregates": True,
            },
            [("a", 1), ("b", 10), ("c", 5)],
            Schema.of("k", "v"),
        )
        assert out.column("k") == ["b", "c", "a"]


class TestAggregateOperators:
    ROWS = [("a", 1), ("a", 3), ("a", None), ("b", 2)]
    SCHEMA = Schema.of("k", "v")

    def agg(self, operator):
        return run(
            {
                "groupby": ["k"],
                "aggregates": [
                    {"operator": operator, "apply_on": "v", "out_field": "r"}
                ],
            },
            self.ROWS,
            self.SCHEMA,
        ).to_records()

    def test_sum_skips_none(self):
        assert self.agg("sum")[0]["r"] == 4

    def test_count_counts_rows_including_none(self):
        assert self.agg("count")[0]["r"] == 3

    def test_count_nonnull(self):
        assert self.agg("count_nonnull")[0]["r"] == 2

    def test_count_distinct(self):
        out = run(
            {
                "groupby": ["k"],
                "aggregates": [
                    {"operator": "count_distinct", "apply_on": "v",
                     "out_field": "r"}
                ],
            },
            [("a", 1), ("a", 1), ("a", 2)],
            self.SCHEMA,
        )
        assert out.row(0)["r"] == 2

    def test_avg(self):
        assert self.agg("avg")[0]["r"] == 2.0

    def test_min_max(self):
        assert self.agg("min")[0]["r"] == 1
        assert self.agg("max")[0]["r"] == 3

    def test_collect(self):
        assert self.agg("collect")[0]["r"] == [1, 3]

    def test_first(self):
        assert self.agg("first")[0]["r"] == 1

    def test_sum_of_all_none_group_is_none(self):
        out = run(
            {
                "groupby": ["k"],
                "aggregates": [
                    {"operator": "sum", "apply_on": "v", "out_field": "r"}
                ],
            },
            [("a", None)],
            self.SCHEMA,
        )
        assert out.row(0)["r"] is None

    def test_avg_of_empty_is_none(self):
        out = run(
            {
                "groupby": ["k"],
                "aggregates": [
                    {"operator": "avg", "apply_on": "v", "out_field": "r"}
                ],
            },
            [("a", None)],
            self.SCHEMA,
        )
        assert out.row(0)["r"] is None

    def test_user_defined_aggregate(self):
        class Median(Aggregate):
            def __init__(self):
                self.values = []

            def add(self, value):
                if value is not None:
                    self.values.append(value)

            def result(self):
                values = sorted(self.values)
                return values[len(values) // 2] if values else None

        register_aggregate("median_test", Median)
        assert "median_test" in aggregate_names()
        out = run(
            {
                "groupby": ["k"],
                "aggregates": [
                    {"operator": "median_test", "apply_on": "v",
                     "out_field": "m"}
                ],
            },
            [("a", 5), ("a", 1), ("a", 9)],
            self.SCHEMA,
        )
        assert out.row(0)["m"] == 5


class TestListExplosion:
    def test_list_valued_group_column_explodes(self):
        """extract_words emits token lists; grouping flattens them."""
        out = run(
            {"groupby": ["word"]},
            [(["knock", "fire"],), (["fire"],)],
            Schema.of("word"),
        )
        assert out.to_records() == [
            {"word": "knock", "count": 1},
            {"word": "fire", "count": 2},
        ]

    def test_empty_list_contributes_no_rows(self):
        out = run(
            {"groupby": ["word"]}, [([],), (["x"],)], Schema.of("word")
        )
        assert out.to_records() == [{"word": "x", "count": 1}]

    def test_scalar_rows_untouched_when_mixed(self):
        out = run(
            {"groupby": ["word"]}, [("x",), (["x", "y"],)],
            Schema.of("word"),
        )
        assert {r["word"]: r["count"] for r in out.rows()} == {
            "x": 2, "y": 1
        }


    def test_only_the_columns_the_groupby_reads_are_exploded(self):
        """The word list of a tweet row fans out 1:n; copying the
        tweet's other columns n times is work nobody reads."""
        from repro.tasks.groupby import _explode

        table = Table.from_rows(
            Schema.of("body", "word", "n", "geo"),
            [("b1", ["x", "y", "x"], 1, "g1"), ("b2", None, 2, "g2")],
        )
        out = _explode(table, ["word"], {"word", "n"})
        assert out.schema.names == ["n", "word"]
        assert out.column("word") == ["x", "y", "x", None]
        assert out.column("n") == [1, 1, 1, 2]
        # nothing to explode: the input comes back as it is
        assert _explode(table, ["body"], {"body"}) is table


class TestUnhashableCells:
    """A cell no dict can key on names its task and column instead of
    escaping as a bare ``TypeError: unhashable type: 'list'``."""

    def test_nested_list_group_key(self):
        with pytest.raises(TaskExecutionError, match=r"'g'.*'w'.*\['a'\]"):
            run({"groupby": ["w"]}, [([["a"]],), (["b"],)], Schema.of("w"))

    def test_nested_list_group_key_with_aggregates(self):
        with pytest.raises(TaskExecutionError, match=r"'g'.*'w'"):
            run(
                {
                    "groupby": ["k", "w"],
                    "aggregates": [{"operator": "sum", "apply_on": "v"}],
                },
                [("a", [["x"]], 1)],
                Schema.of("k", "w", "v"),
            )

    def test_count_distinct_over_list_values(self):
        with pytest.raises(TaskExecutionError, match=r"'g'.*'tags'"):
            run(
                {
                    "groupby": ["k"],
                    "aggregates": [
                        {"operator": "count_distinct", "apply_on": "tags"}
                    ],
                },
                [("a", ["x"]), ("a", ["y"])],
                Schema.of("k", "tags"),
            )

    def test_other_type_errors_are_not_relabelled(self):
        with pytest.raises(TypeError, match="not supported"):
            run(
                {
                    "groupby": ["k"],
                    "aggregates": [{"operator": "max", "apply_on": "v"}],
                },
                [("a", 1), ("a", "x")],
                Schema.of("k", "v"),
            )


class TestConfigValidation:
    def test_duplicate_group_column_raises(self):
        with pytest.raises(TaskConfigError, match="duplicate"):
            GroupByTask("g", {"groupby": ["w", "w"]})

    def test_missing_groupby_raises(self):
        with pytest.raises(TaskConfigError, match="groupby"):
            GroupByTask("g", {})

    def test_unknown_aggregate_raises(self):
        with pytest.raises(TaskConfigError, match="unknown aggregate"):
            GroupByTask(
                "g",
                {"groupby": ["k"],
                 "aggregates": [{"operator": "zap", "apply_on": "v"}]},
            )

    def test_aggregate_without_apply_on_raises(self):
        with pytest.raises(TaskConfigError, match="apply_on"):
            GroupByTask(
                "g",
                {"groupby": ["k"], "aggregates": [{"operator": "sum"}]},
            )

    def test_count_without_apply_on_allowed(self):
        GroupByTask(
            "g", {"groupby": ["k"], "aggregates": [{"operator": "count"}]}
        )

    def test_output_schema(self):
        task = GroupByTask(
            "g",
            {
                "groupby": ["k"],
                "aggregates": [
                    {"operator": "sum", "apply_on": "v", "out_field": "t"}
                ],
            },
        )
        assert task.output_schema([Schema.of("k", "v", "w")]).names == [
            "k", "t"
        ]

    def test_output_schema_missing_column_raises(self):
        from repro.errors import SchemaError

        task = GroupByTask("g", {"groupby": ["zz"]})
        with pytest.raises(SchemaError):
            task.output_schema([Schema.of("k")])
