"""Property: incremental recomputation is invisible in the results.

For any edit to any stage of a pipeline, saving + running incrementally
must produce exactly what a from-scratch run of the edited file
produces.  This is the safety property behind
:func:`repro.compiler.compiler.flow_fingerprints`.

The second half is the same promise for refreshes of a join-headed flow:
after any sequence of appends to either side a ``FlowDeltaState`` shows
what the per-cell reference join, run over everything, shows — and for
Appendix A's ``parallel`` → count-only group-by → top-n chains, what a
full recompute shows.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import Platform
from repro.compiler.dag import build_dag
from repro.data import Schema, Table
from repro.dsl import parse_flow_file
from repro.engine.incremental import Delta, FlowDeltaState
from repro.tasks.base import TaskContext
from repro.tasks.registry import default_task_registry
from tests.property.test_prop_task_kernels import (
    BODIES,
    DICTIONARIES,
    FLOW as KERNEL_FLOW,
    NAMES,
    RULES_TABLE,
    ReferenceJoinTask,
    STAMPS,
    cells,
    join_configs,
    join_sides,
    join_task_config,
    tables,
)


def flow(threshold: int, operator: str, limit: int) -> str:
    return (
        "D:\n    raw: [k, v]\n"
        "F:\n"
        "    D.cleaned: D.raw | T.clean\n"
        "    D.summary: D.cleaned | T.agg\n"
        "    D.ranking: D.summary | T.top\n"
        "    D.ranking:\n        endpoint: true\n"
        "T:\n"
        "    clean:\n"
        "        type: filter_by\n"
        f"        filter_expression: v >= {threshold}\n"
        "    agg:\n"
        "        type: groupby\n"
        "        groupby: [k]\n"
        "        aggregates:\n"
        f"            - operator: {operator}\n"
        "              apply_on: v\n"
        "              out_field: metric\n"
        "    top:\n"
        "        type: topn\n"
        "        orderby_column: [metric DESC]\n"
        f"        limit: {limit}\n"
    )


RAW = Table.from_rows(
    Schema.of("k", "v"),
    [(f"k{i % 6}", (i * 7) % 23) for i in range(60)],
)

params = st.tuples(
    st.integers(0, 10),                      # threshold
    st.sampled_from(["sum", "max", "count"]),  # aggregate
    st.integers(1, 6),                       # limit
)


@settings(max_examples=20, deadline=None)
@given(params, params)
def test_incremental_run_equals_full_run(base, edited):
    base_flow = flow(*base)
    edited_flow = flow(*edited)

    platform = Platform()
    platform.create_dashboard(
        "d", base_flow, inline_tables={"raw": RAW}
    )
    platform.run_dashboard("d")
    platform.save_dashboard("d", edited_flow)
    dashboard = platform.get_dashboard("d")
    dashboard.run_flows(incremental=True)
    incremental = {
        name: dashboard.materialized(name).to_records()
        for name in ("cleaned", "summary", "ranking")
    }

    fresh = Platform()
    fresh.create_dashboard("d", edited_flow, inline_tables={"raw": RAW})
    fresh.run_dashboard("d")
    full = {
        name: fresh.get_dashboard("d").materialized(name).to_records()
        for name in ("cleaned", "summary", "ranking")
    }
    assert incremental == full


@settings(max_examples=20, deadline=None)
@given(params)
def test_noop_edit_skips_all_flows(p):
    text = flow(*p)
    platform = Platform()
    platform.create_dashboard("d", text, inline_tables={"raw": RAW})
    platform.run_dashboard("d")
    platform.save_dashboard("d", text)
    report = platform.get_dashboard("d").run_flows(incremental=True)
    assert sorted(report.flows_skipped) == [
        "cleaned", "ranking", "summary"
    ]


# ---------------------------------------------------------------------------
# join-headed flows under appends
# ---------------------------------------------------------------------------

REGISTRY = default_task_registry()
CHAINS = [
    [],
    [
        {"type": "filter_by", "filter_expression": "v != 0"},
        {"type": "sort", "orderby_column": ["v DESC"]},
    ],
    [
        {
            "type": "groupby",
            "groupby": ["v"],
            "aggregates": [
                {"operator": "count", "out_field": "n"},
                {"operator": "min", "apply_on": "v", "out_field": "low"},
            ],
        }
    ],
]

#: one refresh cycle: how many rows each side grows by
growth = st.tuples(st.integers(0, 4), st.sampled_from([0, 0, 0, 2]))


@settings(max_examples=80, deadline=None)
@given(
    join_sides(max_size=16),
    join_configs,
    st.sampled_from(CHAINS),
    st.lists(growth, min_size=1, max_size=4),
)
def test_join_flow_state_after_appends_matches_full_recompute(
    sides, config, chain, cycles
):
    left, right = sides
    names = ["r", "l"] if config["swapped"] else ["l", "r"]
    tail = [
        REGISTRY.create(f"t{i}", dict(spec)) for i, spec in enumerate(chain)
    ]
    join = REGISTRY.create("j", join_task_config(config))
    reference = ReferenceJoinTask("j", join_task_config(config))
    maintainable = config["join_condition"] in ("inner", "left outer")

    # the rows still to come are held back from both sides
    held = [sum(c[side] for c in cycles) for side in (0, 1)]
    seen = [max(left.num_rows - held[0], 0), max(right.num_rows - held[1], 0)]
    whole = {"l": left, "r": right}

    def current(side):
        return whole["lr"[side]].take(range(seen[side]))

    def inputs():
        return [current("lr".index(name)) for name in names]

    state = FlowDeltaState([join] + tail, names)
    context = TaskContext()
    state.advance([Delta("full", t) for t in inputs()], context, inputs)
    for cycle in cycles:
        deltas = {}
        for side, name in enumerate("lr"):
            grown = min(seen[side] + cycle[side], whole[name].num_rows)
            rows = whole[name].take(range(seen[side], grown))
            seen[side] = grown
            deltas[name] = (
                Delta("append", rows) if rows.num_rows else Delta("none")
            )
        output, delta = state.advance(
            [deltas[name] for name in names], context, inputs
        )

        if deltas["l"].kind == deltas["r"].kind == "none":
            assert delta.kind == "none" and state.fallback is None
        elif not maintainable:
            assert state.fallback == "outer_join"
        elif deltas["r"].kind == "append":  # the build side moved
            assert state.fallback == "join_build_side_changed"
        else:
            assert state.fallback is None
            if not chain:
                assert delta.kind != "full"  # only Δ was probed

        reference_context = TaskContext()
        reference_context.input_names = list(names)
        want = reference.apply(inputs(), reference_context)
        for task in tail:
            want = task.apply([want], reference_context)
        assert cells(output) == cells(want)


# ---------------------------------------------------------------------------
# Appendix A's operators under appends: parallel, count-only group-by, top-n
# ---------------------------------------------------------------------------


def _appendix_chains():
    """The kernel suite's flow (a ``parallel`` pipeline into count-only
    and mixed group-bys over odd keys: ``None``, ``1``/``True``/``1.0``,
    NaN, lists to explode), plus top-n over tied counts and values, and
    a sort and top-ns that order on those odd keys themselves."""
    flow = parse_flow_file(KERNEL_FLOW)
    tasks = REGISTRY.build_section(
        {name: spec.config for name, spec in flow.tasks.items()}
    )
    chains = {
        f.output: [tasks[t] for t in f.tasks]
        for f in build_dag(flow).ordered_flows()
    }
    tops = {
        "top_tokens": ("tokens", {"orderby_column": ["count DESC"],
                                  "limit": 3}),
        "top_words_per_day": ("words", {"groupby": ["day"], "limit": 2,
                                        "orderby_column": ["count DESC"]}),
        "top_n_per_region": (None, {"groupby": ["d"], "limit": 2,
                                    "orderby_column": ["n DESC"]}),
        "lowest_n": (None, {"orderby_column": ["n ASC", "d DESC"],
                            "limit": 4}),
        "x_sorted": (None, {"type": "sort", "orderby_column": ["x DESC"]}),
        "top_x": (None, {"orderby_column": ["x DESC"], "limit": 2}),
        "top_x_per_region": (None, {"groupby": ["d"], "limit": 2,
                                    "orderby_column": ["x ASC", "n DESC"]}),
    }
    for name, (upstream, config) in tops.items():
        top = REGISTRY.create(name, {"type": "topn", **config})
        chains[name] = chains.get(upstream, []) + [top]
    return chains


APPENDIX_CHAINS = _appendix_chains()


def _region_rows(xs):
    """Rows of one region whose ``x`` holds ``xs``."""
    size = len(xs)
    return Table(Schema.of(*NAMES), {
        "t": STAMPS[:1] * size, "body": BODIES[:1] * size,
        "w": [None] * size, "x": list(xs), "d": ["north"] * size,
        "n": list(range(size)),
    })


@settings(max_examples=40, deadline=None)
@given(tables(), st.lists(tables(), min_size=1, max_size=4))
@example(RULES_TABLE, [RULES_TABLE, RULES_TABLE])
# a string appended to ints must not turn their kept order into string
# order: the kept top 2 of [9, 10, 8] is [10, 9], and stays 10 before 9
@example(_region_rows([9, 10, 8]), [_region_rows(["1"])])
def test_appendix_operators_after_appends_match_full_recompute(
    base, appends
):
    for name, tasks in APPENDIX_CHAINS.items():
        state = FlowDeltaState(tasks)
        context = TaskContext(dictionaries=DICTIONARIES)
        state.advance(Delta("full", base), context)
        seen = base
        for rows in appends:
            seen = Table.concat_all([seen, rows])
            output, _delta = state.advance(Delta("append", rows), context)
            want, full_context = seen, TaskContext(dictionaries=DICTIONARIES)
            for task in tasks:
                want = task.apply([want], full_context)
            assert cells(output) == cells(want), name
