"""Unit tests for the DAG, logical plan, and both executors."""

import datetime

import pytest

from repro.compiler.dag import build_dag
from repro.data import Schema, Table
from repro.dsl import parse_flow_file
from repro.engine import (
    DistributedExecutor,
    LocalExecutor,
    build_logical_plan,
)
from repro.errors import ExecutionError, FlowFileValidationError
from repro.tasks.registry import default_task_registry

CHAIN = (
    "D:\n    raw: [k, v]\n"
    "D.raw:\n    source: raw.csv\n"
    "F:\n"
    "    D.mid: D.raw | T.double\n"
    "    D.out: D.mid | T.agg\n"
    "T:\n"
    "    double:\n"
    "        type: add_column\n"
    "        expression: v * 2\n"
    "        output: v2\n"
    "    agg:\n"
    "        type: groupby\n"
    "        groupby: [k]\n"
    "        aggregates:\n"
    "            - operator: sum\n"
    "              apply_on: v2\n"
    "              out_field: total\n"
)

JOIN = (
    "D:\n    a: [k, v]\n    b: [k, w]\n"
    "D.a:\n    source: a.csv\n"
    "D.b:\n    source: b.csv\n"
    "F:\n    D.out: (D.a, D.b) | T.j\n"
    "T:\n"
    "    j:\n"
    "        type: join\n"
    "        left: a by k\n"
    "        right: b by k\n"
    "        join_condition: left outer\n"
)


def compile_plan(source):
    ff = parse_flow_file(source)
    registry = default_task_registry()
    tasks = registry.build_section(
        {name: spec.config for name, spec in ff.tasks.items()}
    )
    dag = build_dag(ff)
    return build_logical_plan(dag, tasks), ff


def make_resolver(**tables):
    def resolver(name):
        if name not in tables:
            raise ExecutionError(f"no fixture table {name}")
        return tables[name]

    return resolver


RAW = Table.from_rows(
    Schema.of("k", "v"),
    [("a", 1), ("b", 2), ("a", 3), ("c", 4), ("b", 5), ("a", 6)],
)


class TestDag:
    def test_topological_order(self):
        ff = parse_flow_file(CHAIN)
        dag = build_dag(ff)
        assert dag.order == ["mid", "out"]
        assert dag.sources == {"raw"}

    def test_downstream_of(self):
        ff = parse_flow_file(CHAIN)
        dag = build_dag(ff)
        assert dag.downstream_of("mid") == {"out"}
        assert dag.downstream_of("raw") == {"mid", "out"}

    def test_cycle_raises(self):
        ff = parse_flow_file(
            "F:\n    D.a: D.b | T.t\n    D.b: D.a | T.t\n"
            "T:\n    t:\n        type: limit\n        limit: 1\n"
        )
        with pytest.raises(FlowFileValidationError, match="cycle"):
            build_dag(ff)

    def test_external_catalog_objects_are_sources(self):
        ff = parse_flow_file(
            "F:\n    D.o: D.pub | T.t\n"
            "T:\n    t:\n        type: limit\n        limit: 1\n"
        )
        dag = build_dag(ff, external={"pub"})
        assert dag.sources == {"pub"}


class TestLogicalPlan:
    def test_one_node_per_task_application(self):
        plan, _ff = compile_plan(CHAIN)
        kinds = [n.kind for n in plan.topological_order()]
        assert kinds.count("load") == 1
        assert kinds.count("task") == 2

    def test_materialization_labels(self):
        plan, _ff = compile_plan(CHAIN)
        materialized = {
            n.materializes for n in plan.topological_order()
        } - {None}
        assert materialized == {"raw", "mid", "out"}

    def test_first_task_carries_input_names(self):
        plan, _ff = compile_plan(JOIN)
        join_node = next(
            n for n in plan.topological_order() if n.kind == "task"
        )
        assert join_node.input_names == ["a", "b"]

    def test_describe_is_readable(self):
        plan, _ff = compile_plan(CHAIN)
        text = plan.describe()
        assert "groupby:agg" in text
        assert "load(raw)" in text


class TestLocalExecutor:
    def test_chain_execution(self):
        plan, _ff = compile_plan(CHAIN)
        result = LocalExecutor(make_resolver(raw=RAW)).run(plan)
        out = result.table("out")
        assert {r["k"]: r["total"] for r in out.rows()} == {
            "a": 20, "b": 14, "c": 8
        }

    def test_intermediates_materialized(self):
        plan, _ff = compile_plan(CHAIN)
        result = LocalExecutor(make_resolver(raw=RAW)).run(plan)
        assert result.table("mid").num_rows == 6

    def test_stats_recorded(self):
        plan, _ff = compile_plan(CHAIN)
        result = LocalExecutor(make_resolver(raw=RAW)).run(plan)
        assert result.stats.rows_loaded == 6
        labels = [s.label for s in result.stats.node_stats]
        assert "load(raw)" in labels

    def test_join_with_named_inputs(self):
        plan, _ff = compile_plan(JOIN)
        a = Table.from_rows(Schema.of("k", "v"), [(1, "x"), (2, "y")])
        b = Table.from_rows(Schema.of("k", "w"), [(1, "z")])
        result = LocalExecutor(make_resolver(a=a, b=b)).run(plan)
        rows = {r["k"]: r for r in result.table("out").rows()}
        assert rows[1]["w"] == "z"
        assert rows[2]["w"] is None

    def test_missing_source_raises(self):
        plan, _ff = compile_plan(CHAIN)
        with pytest.raises(ExecutionError):
            LocalExecutor(make_resolver()).run(plan)

    def test_unknown_output_raises(self):
        plan, _ff = compile_plan(CHAIN)
        result = LocalExecutor(make_resolver(raw=RAW)).run(plan)
        with pytest.raises(ExecutionError, match="no materialized"):
            result.table("nope")

    def test_intermediate_tables_are_dropped_after_last_consumer(self):
        # The executor reference-counts node outputs: once a node's
        # last consumer has run, its table is released so peak memory
        # tracks the live frontier, not the whole run.  Only the
        # materialized outputs survive the run.
        import gc
        import weakref

        from repro.engine.plan import LogicalPlan
        from repro.tasks.base import Task

        refs = {}

        class Probe(Task):
            type_name = "probe"
            arity = (1, 1)

            def output_schema(self, input_schemas):
                return input_schemas[0]

            def partition_local(self):
                return True

            def apply(self, inputs, context):
                out = inputs[0].take(range(inputs[0].num_rows))
                refs[self.name] = weakref.ref(out)
                return out

        plan = LogicalPlan()
        load = plan.add_load("raw")
        first = plan.add_task(Probe("first", {}), [load.id])
        plan.add_task(Probe("last", {}), [first.id], materializes="out")

        result = LocalExecutor(make_resolver(raw=RAW)).run(plan)
        gc.collect()
        # first's output fed only `last`, which has run: dropped.
        assert refs["first"]() is None
        # last's output is the materialized flow output: retained.
        assert refs["last"]() is result.table("out")


class TestDistributedExecutor:
    @pytest.mark.parametrize("partitions", [1, 2, 3, 7])
    def test_matches_local_for_chain(self, partitions):
        plan, _ff = compile_plan(CHAIN)
        local = LocalExecutor(make_resolver(raw=RAW)).run(plan)
        dist = DistributedExecutor(
            make_resolver(raw=RAW), num_partitions=partitions
        ).run(plan)
        key = lambda r: sorted(map(repr, r))
        assert key(dist.table("out").to_records()) == key(
            local.table("out").to_records()
        )

    def test_matches_local_for_join(self):
        plan, _ff = compile_plan(JOIN)
        a = Table.from_rows(
            Schema.of("k", "v"), [(i % 5, i) for i in range(30)]
        )
        b = Table.from_rows(
            Schema.of("k", "w"), [(i, i * 10) for i in range(4)]
        )
        local = LocalExecutor(make_resolver(a=a, b=b)).run(plan)
        dist = DistributedExecutor(
            make_resolver(a=a, b=b), num_partitions=4
        ).run(plan)
        key = lambda r: sorted(map(repr, r))
        assert key(dist.table("out").to_records()) == key(
            local.table("out").to_records()
        )

    def test_shuffle_stages_counted(self):
        plan, _ff = compile_plan(CHAIN)
        dist = DistributedExecutor(
            make_resolver(raw=RAW), num_partitions=3
        ).run(plan)
        assert dist.num_shuffle_stages == 1  # only the groupby
        assert dist.total_shuffled_records > 0

    def test_combiner_reduces_shuffle_volume(self):
        # 1000 rows, only 3 distinct keys: partial aggregation shrinks
        # the shuffle dramatically.
        big = Table.from_rows(
            Schema.of("k", "v"),
            [(f"k{i % 3}", i) for i in range(1000)],
        )
        plan, _ff = compile_plan(CHAIN)
        with_combiner = DistributedExecutor(
            make_resolver(raw=big), num_partitions=4, use_combiner=True
        ).run(plan)
        without = DistributedExecutor(
            make_resolver(raw=big), num_partitions=4, use_combiner=False
        ).run(plan)
        assert (
            with_combiner.total_shuffled_records
            < without.total_shuffled_records / 10
        )
        key = lambda r: sorted(map(repr, r))
        assert key(with_combiner.table("out").to_records()) == key(
            without.table("out").to_records()
        )

    def test_topn_global_uses_partial_topn(self):
        source = (
            "D:\n    raw: [k, v]\n"
            "D.raw:\n    source: raw.csv\n"
            "F:\n    D.out: D.raw | T.top\n"
            "T:\n"
            "    top:\n"
            "        type: topn\n"
            "        orderby_column: [v DESC]\n"
            "        limit: 3\n"
        )
        plan, _ff = compile_plan(source)
        big = Table.from_rows(
            Schema.of("k", "v"), [("x", i) for i in range(100)]
        )
        dist = DistributedExecutor(
            make_resolver(raw=big), num_partitions=4
        ).run(plan)
        assert sorted(dist.table("out").column("v"), reverse=True) == [
            99, 98, 97
        ]
        # Combiner: at most limit*partitions records shuffled.
        shuffle = [s for s in dist.stages if s.kind == "shuffle"][0]
        assert shuffle.shuffled_records <= 12

    @pytest.mark.parametrize("direction", ["ASC", "DESC"])
    def test_mixed_type_sort_range_partitions_in_local_order(
        self, direction
    ):
        source = (
            "D:\n    raw: [k, v]\n"
            "D.raw:\n    source: raw.csv\n"
            "F:\n    D.out: D.raw | T.order\n"
            "T:\n"
            "    order:\n"
            "        type: sort\n"
            f"        orderby_column: [v {direction}, k ASC]\n"
        )
        plan, _ff = compile_plan(source)
        cells = [None, 3, "b", 2.5, True, float("nan"), "10", [1], 0,
                 datetime.date(2024, 5, 1), "a", -1, False, "007"]
        # k breaks every tie on v (0 == False, every None, every NaN):
        # rows that tie on the whole key keep partition order
        mixed = Table(Schema.of("k", "v"), {
            "k": list(range(140)),
            "v": [cells[(i * 5) % len(cells)] for i in range(140)],
        })
        local = LocalExecutor(make_resolver(raw=mixed)).run(plan)
        dist = DistributedExecutor(
            make_resolver(raw=mixed), num_partitions=4, parallelism=4,
            executor="threads",
        ).run(plan)
        assert [s.kind for s in dist.stages if s.task == "order"] == [
            "shuffle"
        ]
        rows = lambda result: [
            repr(r) for r in result.table("out").to_records()
        ]
        assert rows(dist) == rows(local)

    def test_native_mr_through_real_shuffle(self):
        from repro.tasks.udf import NativeMapReduceTask
        from repro.engine.plan import LogicalPlan

        def mapper(row):
            yield row["k"], row["v"]

        def reducer(key, values):
            yield {"k": key, "s": sum(values)}

        task = NativeMapReduceTask(
            "mr",
            {"mapper": mapper, "reducer": reducer,
             "output_columns": ["k", "s"]},
        )
        plan = LogicalPlan()
        load = plan.add_load("raw")
        plan.add_task(task, [load.id], materializes="out")
        dist = DistributedExecutor(
            make_resolver(raw=RAW), num_partitions=3
        ).run(plan)
        assert {r["k"]: r["s"] for r in dist.table("out").rows()} == {
            "a": 10, "b": 7, "c": 4
        }
