"""Incremental view maintenance: byte-identity with full recompute.

Every chain here is advanced delta-by-delta through
:class:`~repro.engine.incremental.FlowDeltaState` and compared — as
serialized JSON — against re-running the same task chain over the whole
accumulated input.  Identity must hold after every single delta, not
just at the end.
"""

import random

import pytest

from repro.data import Schema, Table
from repro.engine.incremental import (
    Delta,
    FlowDeltaState,
    flow_supports_delta,
)
from repro.tasks.base import TaskContext
from repro.tasks.registry import default_task_registry

REGISTRY = default_task_registry()
SCHEMA = Schema.of("team", "year", "runs")
TEAMS = ["CSK", "MI", "RCB", "KKR", "SRH"]


def make_rows(rng, n):
    return Table.from_rows(
        SCHEMA,
        [
            {
                "team": rng.choice(TEAMS),
                "year": rng.randint(2010, 2015),
                "runs": rng.randint(0, 200),
            }
            for _ in range(n)
        ],
    )


def chain(*specs):
    return [
        REGISTRY.create(f"t{i}", dict(spec))
        for i, spec in enumerate(specs)
    ]


def full_recompute(tasks, table):
    context = TaskContext()
    for task in tasks:
        table = task.apply([table], context)
    return table


CHAINS = {
    "filter-groupby-sort": (
        {"type": "filter_by", "filter_expression": "runs >= 50"},
        {
            "type": "groupby",
            "groupby": ["team"],
            "aggregates": [
                {"operator": "sum", "apply_on": "runs",
                 "out_field": "total"},
                {"operator": "avg", "apply_on": "runs",
                 "out_field": "mean"},
                {"operator": "count", "out_field": "games"},
                {"operator": "min", "apply_on": "runs",
                 "out_field": "low"},
                {"operator": "max", "apply_on": "runs",
                 "out_field": "high"},
            ],
        },
        {"type": "sort", "orderby_column": ["team ASC"]},
    ),
    "sort-limit": (
        {"type": "sort", "orderby_column": ["runs DESC", "team ASC"]},
        {"type": "limit", "limit": 7},
    ),
    "project-limit": (
        {"type": "project", "columns": ["team", "runs"]},
        {"type": "limit", "limit": 12},
    ),
    "topn": (
        {"type": "topn", "orderby_column": ["runs DESC"], "limit": 5},
    ),
    "topn-grouped": (
        {"type": "topn", "orderby_column": ["runs DESC", "year ASC"],
         "limit": 2, "groupby": ["team"]},
    ),
    "count-groupby-ordered": (
        {"type": "groupby", "groupby": ["team", "year"],
         "orderby_aggregates": True},
    ),
    "groupby-ordered": (
        {
            "type": "groupby",
            "groupby": ["team", "year"],
            "aggregates": [
                {"operator": "sum", "apply_on": "runs",
                 "out_field": "total"}
            ],
            "orderby_aggregates": True,
        },
    ),
}


@pytest.mark.parametrize("name", sorted(CHAINS))
def test_deltas_match_full_recompute_after_every_step(name):
    rng = random.Random(hash(name) & 0xFFFF)
    tasks = chain(*CHAINS[name])
    assert flow_supports_delta(tasks)
    state = FlowDeltaState(tasks)
    context = TaskContext()

    base = make_rows(rng, 40)
    accumulated = base
    output, delta_out = state.advance(Delta("full", base), context)
    assert output.to_json_records() == full_recompute(
        tasks, accumulated
    ).to_json_records()

    for step in range(4):
        append = make_rows(rng, 0 if step == 2 else rng.randint(1, 15))
        accumulated = Table.concat_all([accumulated, append])
        output, delta_out = state.advance(
            Delta("append", append), context
        )
        expected = full_recompute(tasks, accumulated)
        assert output.to_json_records() == expected.to_json_records(), (
            f"{name}: divergence after append {step}"
        )
        if append.num_rows == 0:
            assert delta_out.kind == "none"

    # A full replacement resets all state.
    accumulated = make_rows(rng, 25)
    output, delta_out = state.advance(
        Delta("full", accumulated), context
    )
    assert delta_out.kind == "full"
    assert output.to_json_records() == full_recompute(
        tasks, accumulated
    ).to_json_records()


class TestLimitState:
    def test_appends_stop_at_the_limit(self):
        tasks = chain({"type": "limit", "limit": 3})
        state = FlowDeltaState(tasks)
        context = TaskContext()
        t2 = make_rows(random.Random(1), 2)
        output, delta = state.advance(Delta("full", t2), context)
        assert output.num_rows == 2 and delta.kind == "full"
        t5 = make_rows(random.Random(2), 5)
        output, delta = state.advance(Delta("append", t5), context)
        assert output.num_rows == 3
        assert delta.kind == "append" and delta.rows.num_rows == 1
        # Saturated: further appends are invisible.
        output, delta = state.advance(Delta("append", t5), context)
        assert delta.kind == "none" and output.num_rows == 3


class TestSupportPredicate:
    def test_grouped_topn_is_maintained_exactly(self):
        """Only the kept rows survive a cycle, ties included: runs take
        few values, so most groups tie at their cut-off."""
        tasks = chain(
            {"type": "topn", "orderby_column": ["runs DESC"],
             "limit": 2, "groupby": ["team"]}
        )
        state = FlowDeltaState(tasks)
        rng = random.Random(5)

        def rows(n):
            return Table.from_rows(SCHEMA, [
                {"team": rng.choice(TEAMS), "year": i,
                 "runs": rng.randrange(3)}
                for i in range(n)
            ])

        accumulated = rows(30)
        state.advance(Delta("full", accumulated), TaskContext())
        for n in (4, 1, 9, 3):
            append = rows(n)
            accumulated = Table.concat_all([accumulated, append])
            output, _ = state.advance(Delta("append", append), TaskContext())
            assert output.to_json_records() == full_recompute(
                tasks, accumulated
            ).to_json_records()
            assert output.num_rows <= 2 * len(TEAMS)

    def test_widget_sourced_filter_is_unsupported(self):
        tasks = chain(
            {"type": "filter_by", "filter_by": ["team"],
             "filter_source": "W.picker", "filter_val": ["team"]}
        )
        assert not flow_supports_delta(tasks)

    def test_user_registered_aggregate_is_unsupported(self):
        from repro.tasks.registry import TaskRegistry  # noqa: F401
        import repro.tasks.groupby as groupby_module

        name = "test_incr_median"
        if name not in groupby_module._AGGREGATE_FACTORIES:
            class _Median:
                def __init__(self):
                    self.values = []

                def add(self, value):
                    self.values.append(value)

                def result(self):
                    values = sorted(
                        v for v in self.values if v is not None
                    )
                    return values[len(values) // 2] if values else None

            groupby_module.register_aggregate(name, _Median)
        try:
            tasks = chain(
                {
                    "type": "groupby",
                    "groupby": ["team"],
                    "aggregates": [
                        {"operator": name, "apply_on": "runs",
                         "out_field": "med"}
                    ],
                }
            )
            assert not flow_supports_delta(tasks)
        finally:
            groupby_module._AGGREGATE_FACTORIES.pop(name, None)

    def test_builtin_chain_is_supported(self):
        assert flow_supports_delta(chain(*CHAINS["filter-groupby-sort"]))


class TestFlowDeltaStateContract:
    def test_bootstrap_requires_full(self):
        state = FlowDeltaState(chain({"type": "limit", "limit": 3}))
        with pytest.raises(ValueError, match="bootstrapped"):
            state.advance(
                Delta("append", make_rows(random.Random(0), 1)),
                TaskContext(),
            )

    def test_unsupported_chain_raises(self):
        with pytest.raises(ValueError, match="not incrementally"):
            FlowDeltaState(
                chain(
                    {"type": "filter_by", "filter_by": ["team"],
                     "filter_source": "W.picker", "filter_val": ["team"]}
                )
            )

    def test_delta_shape_validated(self):
        with pytest.raises(ValueError, match="kind"):
            Delta("sideways")
        with pytest.raises(ValueError, match="rows"):
            Delta("none", make_rows(random.Random(0), 1))
        with pytest.raises(ValueError, match="rows"):
            Delta("full")


class TestJoinHeadedFlows:
    def test_unhashable_probe_delta_is_a_structured_error(self):
        from repro.errors import TaskExecutionError

        join = REGISTRY.create(
            "j", {"type": "join", "left": "l by k", "right": "r by k"}
        )
        left = Table.from_rows(Schema.of("k", "v"), [(1, "a")])
        right = Table.from_rows(Schema.of("k", "w"), [(1, "p")])
        state = FlowDeltaState([join], ["l", "r"])
        state.advance(
            [Delta("full", left), Delta("full", right)],
            TaskContext(),
            lambda: [left, right],
        )
        more = Table.from_rows(Schema.of("k", "v"), [([1], "b")])
        with pytest.raises(TaskExecutionError, match="left column 'k'"):
            state.advance(
                [Delta("append", more), Delta("none")],
                TaskContext(),
                lambda: [Table.concat_all([left, more]), right],
            )

    def test_only_a_leading_join_makes_two_inputs_maintainable(self):
        join = REGISTRY.create(
            "j", {"type": "join", "left": "l by k", "right": "r by k"}
        )
        union = REGISTRY.create("u", {"type": "union"})
        assert flow_supports_delta([join], 2)
        assert not flow_supports_delta([union], 2)
        with pytest.raises(ValueError, match="multi_input"):
            FlowDeltaState([union], ["l", "r"])
