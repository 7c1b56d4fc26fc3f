"""Unit tests for map tasks and operators."""

import pytest

from repro.data import Schema, Table
from repro.errors import TaskConfigError, TaskExecutionError
from repro.tasks.base import TaskContext
from repro.tasks.map_ops import (
    MapTask,
    java_to_strptime,
    operator_names,
    register_operator,
)


def run(task, rows, schema, context=None):
    table = Table.from_rows(schema, rows)
    return task.apply([table], context or TaskContext())


class TestJavaDatePatterns:
    @pytest.mark.parametrize(
        "java,python",
        [
            ("yyyy-MM-dd", "%Y-%m-%d"),
            ("E MMM dd HH:mm:ss Z yyyy", "%a %b %d %H:%M:%S %z %Y"),
            ("dd/MM/yy", "%d/%m/%y"),
            ("hh:mm a", "%I:%M %p"),
        ],
    )
    def test_translation(self, java, python):
        assert java_to_strptime(java) == python


class TestDateOperator:
    def make(self):
        """The paper's norm_ipldate task (Fig. 21), verbatim config."""
        return MapTask(
            "norm_ipldate",
            {
                "operator": "date",
                "transform": "postedTime",
                "input_format": "E MMM dd HH:mm:ss Z yyyy",
                "output_format": "yyyy-MM-dd",
                "output": "date",
            },
        )

    def test_gnip_timestamp_normalized(self):
        out = run(
            self.make(),
            [("Thu May 02 10:00:00 +0000 2013",)],
            Schema.of("postedTime"),
        )
        assert out.column("date") == ["2013-05-02"]

    def test_preserves_existing_columns(self):
        out = run(
            self.make(),
            [("Thu May 02 10:00:00 +0000 2013",)],
            Schema.of("postedTime"),
        )
        assert out.schema.names == ["postedTime", "date"]

    def test_unparseable_becomes_none_not_crash(self):
        out = run(self.make(), [("garbage",)], Schema.of("postedTime"))
        assert out.column("date") == [None]

    def test_none_input(self):
        out = run(self.make(), [(None,)], Schema.of("postedTime"))
        assert out.column("date") == [None]

    def test_iso_fallback_without_input_format(self):
        task = MapTask(
            "d",
            {
                "operator": "date",
                "transform": "t",
                "output_format": "yyyy-MM-dd",
                "output": "o",
            },
        )
        out = run(task, [("2014-01-31T10:00:00Z",)], Schema.of("t"))
        assert out.column("o") == ["2014-01-31"]

    def test_python_date_objects(self):
        import datetime

        out = run(
            self.make(), [(datetime.date(2013, 5, 2),)],
            Schema.of("postedTime"),
        )
        assert out.column("date") == ["2013-05-02"]

    @pytest.mark.parametrize(
        "text",
        [
            "Sat May \u0660\u0664 22:06:23 +0000 2013",  # non-ASCII day digits
            "Sat May 04 22:06:60 +0000 2013",  # a leap second
            "Sat May 04 22:06:23 +2400 2013",  # an offset datetime refuses
            "Sat May 04 22:06:23 +0000 0999",  # strftime does not pad %Y
        ],
    )
    def test_regex_kernel_never_disagrees_with_strptime(self, text):
        """The fast kernel only fires for yyyy-MM-dd output; the same
        task with another output format is the strptime path."""
        slow = MapTask(
            "d", {**self.make().config, "output_format": "dd/MM/yyyy"}
        )
        fast_out = run(self.make(), [(text,)], Schema.of("postedTime"))
        slow_out = run(slow, [(text,)], Schema.of("postedTime"))
        day = slow_out.column("date")[0]
        if day is not None:
            day = "-".join(reversed(day.split("/")))
        assert fast_out.column("date") == [day]


class TestRunMemos:
    """Per-run memos make a re-applied map task free; they must stay in
    the process that filled them."""

    TASK = {
        "operator": "date",
        "transform": "t",
        "input_format": "E MMM dd HH:mm:ss Z yyyy",
        "output": "day",
    }

    def stamps(self, count):
        return [
            (f"Thu May 02 {i // 3600:02d}:{i // 60 % 60:02d}:{i % 60:02d}"
             " +0000 2013",)
            for i in range(count)
        ]

    def test_memos_are_not_pickled_with_the_context(self):
        import pickle

        context = TaskContext()
        fresh = len(pickle.dumps(context))
        out = run(
            MapTask("d", self.TASK), self.stamps(2000), Schema.of("t"),
            context,
        )
        assert out.column("day") == ["2013-05-02"] * 2000
        context.counters.clear()
        assert len(pickle.dumps(context)) == fresh
        assert pickle.loads(pickle.dumps(context)).value_cache("x") == {}

    def test_same_source_column_is_computed_once_per_run(self):
        class Loud(str):
            calls = 0

            def lower(self):
                Loud.calls += 1
                return str.lower(self)

        table = Table.from_rows(
            Schema.of("a"), [(Loud(f"V{i % 50}"),) for i in range(100)]
        )
        task = MapTask(
            "x", {"operator": "lower", "transform": "a", "output": "b"}
        )
        context = TaskContext()
        first = task.apply([table], context)
        second = task.apply([table], context)
        assert Loud.calls == 50  # once per distinct value, once per run
        assert first == second
        assert first.column("b") == [f"v{i % 50}" for i in range(100)]
        # the flows that share the result must not share the list
        assert first.column("b") is not second.column("b")

    def test_pool_run_matches_threads(self):
        from repro.compiler.dag import build_dag
        from repro.dsl import parse_flow_file
        from repro.engine import DistributedExecutor, build_logical_plan
        from repro.engine.scheduler import ProcessPool, fork_available
        from repro.tasks.registry import default_task_registry

        if not fork_available():
            pytest.skip("requires os.fork")
        flow = parse_flow_file(
            "D:\n    raw: [t]\n"
            "D.raw:\n    source: raw.csv\n"
            "F:\n    D.out: D.raw | T.day | T.per_day\n"
            "T:\n"
            "    day:\n"
            "        type: map\n"
            "        operator: date\n"
            "        transform: t\n"
            "        input_format: 'E MMM dd HH:mm:ss Z yyyy'\n"
            "        output: day\n"
            "    per_day:\n"
            "        type: groupby\n"
            "        groupby: [day]\n"
        )
        tasks = default_task_registry().build_section(
            {name: spec.config for name, spec in flow.tasks.items()}
        )
        plan = build_logical_plan(build_dag(flow), tasks)
        table = Table.from_rows(Schema.of("t"), self.stamps(400))

        def outcome(**options):
            context = TaskContext()
            # a first map in the coordinator fills memos; the units the
            # pool pickles carry this context
            tasks["day"].apply([table], context)
            result = DistributedExecutor(
                lambda name: table, num_partitions=3, parallelism=2,
                **options,
            ).run(plan, context)
            return result.table("out").to_records()

        with ProcessPool(workers=2) as pool:
            pooled = outcome(executor="processes", pool=pool)
            assert pool.stats.dispatch_fallbacks == 0
        assert pooled == outcome(executor="threads")
        assert pooled == [{"day": "2013-05-02", "count": 400}]


class TestExtractOperator:
    def make_context(self):
        context = TaskContext()
        context.add_dictionary(
            "players.txt",
            {"dhoni": "MS Dhoni", "msd": "MS Dhoni", "kohli": "Virat Kohli",
             "super kings": "Chennai Super Kings"},
        )
        return context

    def make(self):
        return MapTask(
            "extract_players",
            {
                "operator": "extract",
                "transform": "body",
                "dict": "players.txt",
                "output": "player",
            },
        )

    def test_extracts_canonical_name(self):
        out = run(
            self.make(),
            [("What a knock by dhoni tonight",)],
            Schema.of("body"),
            self.make_context(),
        )
        assert out.column("player") == ["MS Dhoni"]

    def test_nickname_maps_to_same_canonical(self):
        out = run(
            self.make(), [("msd finishes it!",)], Schema.of("body"),
            self.make_context(),
        )
        assert out.column("player") == ["MS Dhoni"]

    def test_multiword_surface_form(self):
        out = run(
            self.make(), [("go super kings",)], Schema.of("body"),
            self.make_context(),
        )
        assert out.column("player") == ["Chennai Super Kings"]

    def test_no_match_is_none(self):
        out = run(
            self.make(), [("nothing cricket here",)], Schema.of("body"),
            self.make_context(),
        )
        assert out.column("player") == [None]

    def test_case_insensitive(self):
        out = run(
            self.make(), [("KOHLI on strike",)], Schema.of("body"),
            self.make_context(),
        )
        assert out.column("player") == ["Virat Kohli"]

    def test_missing_dict_config_raises(self):
        with pytest.raises(TaskConfigError, match="dict"):
            MapTask(
                "x",
                {"operator": "extract", "transform": "b", "output": "o"},
            ).apply(
                [Table.from_rows(Schema.of("b"), [("x",)])], TaskContext()
            )


class TestExtractLocationOperator:
    def make(self):
        """Fig. 21's extract_location with the built-in IND gazetteer."""
        return MapTask(
            "extract_location",
            {
                "operator": "extract_location",
                "transform": "displayName",
                "match": "city",
                "country": "IND",
                "output": "state",
            },
        )

    def test_city_to_state(self):
        out = run(self.make(), [("Pune, India",)], Schema.of("displayName"))
        assert out.column("state") == ["Maharashtra"]

    def test_unknown_location_is_none(self):
        out = run(self.make(), [("the moon",)], Schema.of("displayName"))
        assert out.column("state") == [None]

    def test_unknown_country_raises(self):
        task = MapTask(
            "x",
            {
                "operator": "extract_location",
                "transform": "d",
                "country": "ZZZ",
                "output": "o",
            },
        )
        with pytest.raises(TaskExecutionError):
            run(task, [("Pune",)], Schema.of("d"))

    def test_custom_gazetteer_dict(self):
        context = TaskContext()
        context.add_dictionary("geo.txt", {"gotham": "New Jersey"})
        task = MapTask(
            "x",
            {
                "operator": "extract_location",
                "transform": "d",
                "dict": "geo.txt",
                "output": "o",
            },
        )
        out = run(task, [("gotham city",)], Schema.of("d"), context)
        assert out.column("o") == ["New Jersey"]


class TestExtractWordsOperator:
    def make(self):
        return MapTask(
            "extract_words",
            {"operator": "extract_words", "transform": "body",
             "output": "word"},
        )

    def test_tokenizes_and_drops_stopwords(self):
        out = run(
            self.make(),
            [("What a knock by Dhoni tonight",)],
            Schema.of("body"),
        )
        words = out.column("word")[0]
        assert "knock" in words
        assert "dhoni" in words
        assert "a" not in words  # stopword
        assert "by" not in words

    def test_short_tokens_dropped(self):
        out = run(self.make(), [("go ab cde",)], Schema.of("body"))
        assert out.column("word")[0] == ["cde"]

    def test_none_gives_empty_list(self):
        out = run(self.make(), [(None,)], Schema.of("body"))
        assert out.column("word") == [[]]


class TestExpressionOperator:
    def test_computed_column(self):
        task = MapTask(
            "score",
            {
                "operator": "expression",
                "expression": "a * 2 + b",
                "output": "score",
            },
        )
        out = run(task, [(3, 1)], Schema.of("a", "b"))
        assert out.column("score") == [7]

    def test_required_columns_includes_expression_refs(self):
        task = MapTask(
            "score",
            {"operator": "expression", "expression": "a + b", "output": "s"},
        )
        assert task.required_columns() == {"a", "b"}


class TestMapTaskConfig:
    def test_missing_operator_raises(self):
        with pytest.raises(TaskConfigError, match="operator"):
            MapTask("x", {"transform": "a", "output": "b"})

    def test_unknown_operator_raises(self):
        with pytest.raises(TaskConfigError, match="unknown operator"):
            MapTask("x", {"operator": "zap", "transform": "a", "output": "b"})

    def test_missing_transform_raises(self):
        with pytest.raises(TaskConfigError, match="transform"):
            MapTask("x", {"operator": "date", "output": "b"})

    def test_missing_output_raises(self):
        with pytest.raises(TaskConfigError, match="output"):
            MapTask("x", {"operator": "date", "transform": "a"})

    def test_output_schema_adds_column(self):
        task = MapTask(
            "x", {"operator": "copy", "transform": "a", "output": "b"}
        )
        assert task.output_schema([Schema.of("a")]).names == ["a", "b"]

    def test_output_schema_missing_transform_column(self):
        from repro.errors import SchemaError

        task = MapTask(
            "x", {"operator": "copy", "transform": "zz", "output": "b"}
        )
        with pytest.raises(SchemaError):
            task.output_schema([Schema.of("a")])

    def test_copy_lower_upper(self):
        for operator, expected in (
            ("copy", "AbC"), ("lower", "abc"), ("upper", "ABC"),
        ):
            task = MapTask(
                "x", {"operator": operator, "transform": "a", "output": "b"}
            )
            out = run(task, [("AbC",)], Schema.of("a"))
            assert out.column("b") == [expected]

    def test_user_registered_operator(self):
        register_operator(
            "reverse_test", lambda config: (lambda v, row: v[::-1])
        )
        assert "reverse_test" in operator_names()
        task = MapTask(
            "x",
            {"operator": "reverse_test", "transform": "a", "output": "b"},
        )
        out = run(task, [("abc",)], Schema.of("a"))
        assert out.column("b") == ["cba"]

    def test_failing_operator_wrapped(self):
        register_operator(
            "explode_test",
            lambda config: (lambda v, row: 1 / 0),
        )
        task = MapTask(
            "x",
            {"operator": "explode_test", "transform": "a", "output": "b"},
        )
        with pytest.raises(TaskExecutionError, match="failed on value"):
            run(task, [("x",)], Schema.of("a"))
