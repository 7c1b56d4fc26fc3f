"""Differential properties for the Appendix A task kernels.

The repeat-index explode, the count kernel and the once-per-distinct-value
map path replaced row-at-a-time loops.  Those loops live on here as the
reference: ``_reference_explode`` is the old explode verbatim,
``ReferenceGroupByTask`` groups through a dict of tuple keys and feeds one
``Aggregate`` object per (group, spec) a row at a time, and
``ReferenceMapTask`` calls the operator once per row with no memo.  ``ReferenceJoinTask`` is the join before its index-vector kernel: a list
of ``(i, j)`` pairs and one cell appended per output pair and column.
Every property runs the same flow twice — shipped tasks and reference
tasks — on one evaluator and demands the same cells in the same order
under the same schema.  Cells compare by ``repr`` so ``1``/``True``/``1.0`` and NaN
cannot hide behind ``==``.
"""

import datetime
import itertools

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.compiler.dag import build_dag
from repro.data import Schema, Table
from repro.dsl import parse_flow_file
from repro.engine import DistributedExecutor, LocalExecutor, build_logical_plan
from repro.engine.incremental import Delta, FlowDeltaState
from repro.tasks import groupby, map_ops
from repro.tasks.base import TaskContext
from repro.tasks.groupby import GroupByTask, _explode
from repro.tasks.join import JoinTask
from repro.tasks.map_ops import MapTask
from repro.tasks.registry import default_task_registry

# ---------------------------------------------------------------------------
# the references
# ---------------------------------------------------------------------------


def _reference_explode(table, columns):
    """The explode this PR replaced: every column, a dict per output row."""
    explode_names = [
        c
        for c in dict.fromkeys(columns)
        if any(isinstance(v, list) for v in table.column(c))
    ]
    if not explode_names:
        return table
    explode_set = set(explode_names)
    names = table.schema.names
    source = [table.column(n) for n in names]
    out = [[] for _ in names]
    list_positions = [j for j, n in enumerate(names) if n in explode_set]
    for i in range(table.num_rows):
        pools = []
        for j in list_positions:
            cell = source[j][i]
            if isinstance(cell, list):
                pools.append((j, cell))
        if not pools:
            for j, column in enumerate(source):
                out[j].append(column[i])
            continue
        for combo in itertools.product(*(cells for _j, cells in pools)):
            replacement = {
                j: value for (j, _cells), value in zip(pools, combo)
            }
            for j, column in enumerate(source):
                out[j].append(replacement.get(j, column[i]))
    return Table(table.schema, dict(zip(names, out)))


class ReferenceGroupByTask(GroupByTask):
    """Row-at-a-time group-by over the old explode."""

    def apply(self, inputs, context):
        table = _reference_explode(inputs[0], self.group_columns)
        specs = self._aggregate_specs()
        key_columns = [table.column(c) for c in self.group_columns]
        value_columns = [
            table.column(str(s["apply_on"])) if "apply_on" in s else None
            for s in specs
        ]
        groups = {}
        for i in range(table.num_rows):
            key = tuple(column[i] for column in key_columns)
            if key not in groups:
                groups[key] = [
                    groupby._AGGREGATE_FACTORIES[str(s["operator"]).lower()]()
                    for s in specs
                ]
            for aggregate, column in zip(groups[key], value_columns):
                aggregate.add(column[i] if column is not None else None)
        schema = self.output_schema([table.schema])
        rows = [
            key + tuple(a.result() for a in aggregates)
            for key, aggregates in groups.items()
        ]
        result = Table.from_rows(schema, rows)
        if groupby._truthy(self.config.get("orderby_aggregates")):
            result = result.sorted_by(
                [schema.names[len(key_columns)]], descending=[True]
            )
        return result


class ReferenceMapTask(MapTask):
    """One operator call per row; no columnar path, no memo."""

    def apply(self, inputs, context):
        table = inputs[0]
        operator = map_ops._build_operator(
            str(self.config["operator"]), self.config, context
        )
        transform = self.transform_column
        values = [
            operator(row.get(transform) if transform else None, row)
            for row in table.rows()
        ]
        return table.with_column(self.output_column, values)


class ReferenceJoinTask(JoinTask):
    """The join this PR replaced: ``(i, j)`` pairs, then one cell at a
    time.  Two things differ from the old code on purpose — an unmatched
    right row of the default projection takes its left key cells from
    its own right key cells (the bug fixed beside the kernel), and the
    sides come from ``context.input_names``, now a declared attribute."""

    def apply(self, inputs, context):
        left, right = self.ordered(inputs, context.input_names)
        build = {}
        for j, key in enumerate(
            zip(*(right.column(k) for k in self._right_keys))
        ):
            build.setdefault(key, []).append(j)
        matched = set()
        pairs = []
        for i, key in enumerate(
            zip(*(left.column(k) for k in self._left_keys))
        ):
            matches = build.get(key)
            if matches and all(k is not None for k in key):
                for j in matches:
                    pairs.append((i, j))
                    matched.add(j)
            elif self._condition in ("left", "full"):
                pairs.append((i, None))
        if self._condition in ("right", "full"):
            pairs.extend(
                (None, j) for j in range(right.num_rows) if j not in matched
            )
        schema = self.output_schema([left.schema, right.schema])
        projection = self._projection()
        data = {name: [] for name in schema.names}
        if projection is not None:
            for li, ri in pairs:
                for (side, column, _out), name in zip(projection, schema.names):
                    table, index = (left, li) if side == "left" else (right, ri)
                    data[name].append(
                        table.column(column)[index]
                        if index is not None
                        else None
                    )
            return Table(schema, data)
        own_key = dict(zip(self._left_keys, self._right_keys))
        right_cols = [
            c for c in right.schema.names if c not in self._right_keys
        ]
        left_names = left.schema.names
        for li, ri in pairs:
            for name in left_names:
                if li is not None:
                    data[name].append(left.column(name)[li])
                elif name in own_key:
                    data[name].append(right.column(own_key[name])[ri])
                else:
                    data[name].append(None)
            for name, out_name in zip(
                right_cols, schema.names[len(left_names):]
            ):
                data[out_name].append(
                    right.column(name)[ri] if ri is not None else None
                )
        return Table(schema, data)


def _reference_registry():
    registry = default_task_registry()
    registry.register_type(ReferenceGroupByTask, replace=True)
    registry.register_type(ReferenceMapTask, replace=True)
    registry.register_type(ReferenceJoinTask, replace=True)
    return registry


def cells(table):
    """Schema and every cell, by ``repr``, in row order."""
    return table.schema.names, [
        [repr(v) for v in row] for row in table.row_tuples()
    ]


# ---------------------------------------------------------------------------
# generated tables
# ---------------------------------------------------------------------------

NAN = float("nan")
WORDS = ["ipl", "six", "four", "out", "Six"]
word_cell = st.one_of(
    st.none(),
    st.sampled_from(WORDS),
    st.lists(st.sampled_from(WORDS), max_size=4),  # repeats count twice
)
#: keys that are equal but not identical, and one that is neither
ODD_KEYS = [1, True, 1.0, 0, False, NAN, None, "1"]
odd_cell = st.one_of(
    st.sampled_from(ODD_KEYS), st.lists(st.sampled_from(ODD_KEYS), max_size=3)
)
STAMPS = [
    "Sat May 04 22:06:23 +0000 2013",
    "sun may 5 01:00:00 +0530 2013",
    "Mon May 06 09:30:00 -0700 2013 ",
    "Fri Feb 30 10:00:00 +0000 2013",  # no such day
    "2013-05-04T10:00:00Z",
    "garbage",
]
BODIES = [
    "Dhoni hits a SIX for the super kings",
    "what a catch by kohli",
    "super kings all the way",
    "rain stops play",
]
row = st.tuples(
    st.sampled_from(STAMPS),  # t
    st.sampled_from(BODIES),  # body
    word_cell,  # w
    odd_cell,  # x
    st.sampled_from(["north", "south", "East"]),  # d
    st.one_of(st.none(), st.integers(-5, 5)),  # n
)
NAMES = ["t", "body", "w", "x", "d", "n"]


@st.composite
def tables(draw, min_size=0):
    rows = draw(st.lists(row, min_size=min_size, max_size=30))
    columns = {
        name: [r[j] for r in rows] for j, name in enumerate(NAMES)
    }
    if draw(st.booleans()):
        # the ingest boundary: t, body, d dictionary-encoded, n typed
        return Table.from_columns(Schema.of(*NAMES), columns)
    return Table(Schema.of(*NAMES), columns)  # every column boxed


DICTIONARIES = {
    "teams": {"dhoni": "CSK", "super kings": "CSK", "kohli": "RCB"}
}

FLOW = """
D:
    raw: [t, body, w, x, d, n]
D.raw:
    source: raw.csv
F:
    D.words: D.raw | T.pipeline | T.count_words
    D.teams: D.raw | T.pipeline | T.count_teams
    D.tokens: D.raw | T.pipeline | T.count_tokens
    D.pairs: D.raw | T.count_pairs
    D.sums: D.raw | T.sum_words
    D.regions: D.raw | T.pipeline | T.count_regions
T:
    pipeline:
        parallel: [T.day, T.team, T.token, T.region]
    day:
        type: map
        operator: date
        transform: t
        input_format: 'E MMM dd HH:mm:ss Z yyyy'
        output: day
    team:
        type: map
        operator: extract
        transform: body
        dict: teams
        output: team
    token:
        type: map
        operator: extract_words
        transform: body
        output: token
    region:
        type: map
        operator: lower
        transform: d
        output: region
    count_words:
        type: groupby
        groupby: [day, w]
    count_teams:
        type: groupby
        groupby: [team, day]
        aggregates:
            - operator: count
              out_field: tweets
            - operator: count
              apply_on: n
              out_field: again
    count_tokens:
        type: groupby
        groupby: [token]
        orderby_aggregates: true
    count_pairs:
        type: groupby
        groupby: [x, w]
        orderby_aggregates: true
    sum_words:
        type: groupby
        groupby: [w]
        aggregates:
            - operator: sum
              apply_on: n
              out_field: total
            - operator: collect
              apply_on: d
              out_field: regions
            - operator: count
              out_field: rows
    count_regions:
        type: groupby
        groupby: [region, x]
"""
OUTPUTS = ["words", "teams", "tokens", "pairs", "sums", "regions"]


def _plan(registry):
    flow = parse_flow_file(FLOW)
    tasks = registry.build_section(
        {name: spec.config for name, spec in flow.tasks.items()}
    )
    return build_logical_plan(build_dag(flow), tasks)


def _executors(table):
    resolver = lambda name: table  # noqa: E731
    yield "local", LocalExecutor(resolver)
    for parallelism in (1, 4):
        yield f"distributed x{parallelism}", DistributedExecutor(
            resolver,
            num_partitions=3,
            parallelism=parallelism,
            executor="threads",
        )


def _assert_flow_agrees(table):
    shipped, reference = _plan(default_task_registry()), _plan(
        _reference_registry()
    )
    for label, executor in _executors(table):
        got = executor.run(shipped, TaskContext(dictionaries=DICTIONARIES))
        want = executor.run(reference, TaskContext(dictionaries=DICTIONARIES))
        for output in OUTPUTS:
            assert cells(got.table(output)) == cells(want.table(output)), (
                label,
                output,
            )


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------


#: every explode rule and every odd key in six rows, so the properties
#: do not depend on what the generator happens to draw
RULES_TABLE = Table(
    Schema.of(*NAMES),
    {
        "t": STAMPS,
        "body": BODIES + BODIES[:2],
        "w": [["six", "six", "out"], [], None, "six", ["ipl"], ["out", "Six"]],
        "x": [[1, True, NAN], [1.0], [0, None], False, [], ["1", NAN]],
        "d": ["north", "south", "East", "north", "south", "East"],
        "n": [1, None, -2, 3, 4, 5],
    },
)


@settings(max_examples=40, deadline=None)
@given(tables())
@example(RULES_TABLE)
def test_flow_matches_reference_on_every_executor(table):
    _assert_flow_agrees(table)


class _CountTwice(groupby.Aggregate):
    def __init__(self):
        self._count = 0

    def add(self, value):
        self._count += 2

    def result(self):
        return self._count


def _date_and_region(config):
    """A ``date`` that reads a sibling column: not a function of the
    transform value, so neither memo may serve it."""
    return lambda value, row: f"{str(value)[:3]}@{row['d']}"


@settings(max_examples=15, deadline=None)
@given(tables(min_size=1))
def test_reregistered_count_and_date_still_win(table):
    shipped_count = groupby._AGGREGATE_FACTORIES["count"]
    shipped_date = map_ops._OPERATOR_FACTORIES["date"]
    groupby.register_aggregate("count", _CountTwice)
    map_ops.register_operator("date", _date_and_region)
    try:
        _assert_flow_agrees(table)
        resolver = lambda name: table  # noqa: E731
        words = (
            LocalExecutor(resolver)
            .run(
                _plan(default_task_registry()),
                TaskContext(dictionaries=DICTIONARIES),
            )
            .table("words")
        )
    finally:
        groupby.register_aggregate("count", shipped_count)
        map_ops.register_operator("date", shipped_date)
    # not vacuous: the user's operators, not the kernels, produced these
    assert all(count % 2 == 0 for count in words.column("count"))
    assert all("@" in day for day in words.column("day"))


@settings(max_examples=60, deadline=None)
@given(tables(), st.permutations(["w", "x", "d"]), st.booleans())
@example(RULES_TABLE, ["x", "w", "d"], True)
def test_explode_matches_reference(table, order, keep_n):
    columns = list(order[:2])
    keep = set(columns) | ({"n"} if keep_n else set())
    got = _explode(table, columns, keep)
    want = _reference_explode(table, columns)
    assert set(got.schema.names) >= keep
    if got is not table:  # exploded: only what the group-by reads
        assert set(got.schema.names) == keep
    for name in keep:
        assert [repr(v) for v in got.column(name)] == [
            repr(v) for v in want.column(name)
        ]
        encoded = got.encoded_column(name)
        if encoded is not None:  # the shadow followed the gather
            assert encoded.tolist() == got.column(name)


GROUPBYS = [
    {"groupby": ["w"]},
    {"groupby": ["d", "w"], "orderby_aggregates": True},
    {"groupby": ["x", "w"]},
    {
        "groupby": ["w"],
        "aggregates": [
            {"operator": "sum", "apply_on": "n", "out_field": "total"},
            {"operator": "collect", "apply_on": "d", "out_field": "regions"},
            {"operator": "count", "out_field": "rows"},
        ],
    },
]


@settings(max_examples=40, deadline=None)
@given(
    tables(min_size=1),
    st.sampled_from(GROUPBYS),
    st.lists(st.integers(0, 30), max_size=3),
)
def test_groupby_state_after_appends_matches_reference(table, config, cuts):
    """``_GroupByState`` explodes through the same function; after any
    sequence of appends it must show what one pass over everything
    shows."""
    bounds = sorted({min(c, table.num_rows) for c in cuts} | {table.num_rows})
    state = FlowDeltaState([GroupByTask("g", config)])
    context = TaskContext()
    start, kind = 0, "full"
    for bound in bounds:
        output, _delta = state.advance(
            Delta(kind, table.take(range(start, bound))), context
        )
        start, kind = bound, "append"
    want = ReferenceGroupByTask("g", config).apply([table], context)
    assert cells(output) == cells(want)


VALUE_ONLY = [
    {"operator": "copy"},
    {"operator": "lower"},
    {"operator": "upper"},
    {"operator": "extract_words", "min_length": 2},
    {"operator": "extract", "dict": "teams"},
    {"operator": "extract_location"},
    {
        "operator": "date",
        "input_format": "E MMM dd HH:mm:ss Z yyyy",
        "output_format": "yyyy-MM-dd",
    },
]
map_cell = st.one_of(
    st.sampled_from(ODD_KEYS + STAMPS + BODIES + ["Mumbai", "PUNE"]),
    st.lists(st.sampled_from(WORDS), max_size=2),  # unhashable
    st.dates(datetime.date(1999, 1, 1), datetime.date(2030, 1, 1)),
)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(VALUE_ONLY),
    st.lists(map_cell, max_size=25),
    st.lists(st.sampled_from(BODIES + STAMPS + [None]), max_size=25),
)
@example({"operator": "copy"}, ODD_KEYS, [None, BODIES[0], None])
def test_value_only_map_matches_row_at_a_time(operator, mixed, texts):
    """One context for every application, as in a run: the memos a
    boxed mixed-type column fills must not leak into the encoded column
    that follows, nor into a second pass over either."""
    config = {**operator, "transform": "a", "output": "b"}
    context = TaskContext(dictionaries=DICTIONARIES)
    boxed = Table(Schema.of("a"), {"a": mixed})
    encoded = Table.from_columns(Schema.of("a"), {"a": list(texts)})
    for table in (boxed, encoded, boxed, encoded.take(range(len(texts) // 2))):
        got = MapTask("m", config).apply([table], context)
        want = ReferenceMapTask("m", config).apply([table], context)
        assert cells(got) == cells(want)


# ---------------------------------------------------------------------------
# the join kernel against the per-cell join
# ---------------------------------------------------------------------------

#: equal-but-not-identical keys, a dangling one, and None (never matches)
JOIN_KEYS = {
    "odd": [1, True, 1.0, 0, 2, None, "1"],
    "int": [1, 2, 3, 7, None],
    "str": ["a", "b", "c", None],
}
TAGS = ["north", "south", None]


@st.composite
def join_sides(draw, max_size=12):
    """``(left, right)``: ``l(k, k2, v, tag)`` and ``r(k, k2, v, w)`` —
    ``v`` collides (``v_right``), as does ``k2`` under a single-key join;
    keys repeat on both sides, dangle, and hold ``None``; each side is
    encoded at the ingest boundary or fully boxed; either may be empty."""
    key = st.sampled_from(JOIN_KEYS[draw(st.sampled_from(sorted(JOIN_KEYS)))])
    key2 = st.sampled_from(["x", "y", None])
    sides = []
    for names, extra in (
        (["k", "k2", "v", "tag"], st.sampled_from(TAGS)),
        (["k", "k2", "v", "w"], st.one_of(st.none(), st.floats(-2, 2))),
    ):
        rows = draw(
            st.lists(
                st.tuples(
                    key, key2, st.one_of(st.none(), st.integers(-3, 3)), extra
                ),
                max_size=max_size,
            )
        )
        columns = {n: [r[j] for r in rows] for j, n in enumerate(names)}
        build = Table.from_columns if draw(st.booleans()) else Table
        sides.append(build(Schema.of(*names), columns))
    return tuple(sides)


join_configs = st.fixed_dictionaries(
    {
        "keys": st.sampled_from(["k", "k, k2"]),
        "join_condition": st.sampled_from(
            ["inner", "left outer", "RIGHT OUTER", "full outer"]
        ),
        "project": st.sampled_from(
            [
                None,
                {"l_k": "key", "l_v": "v", "r_w": "w", "R_k": "rkey",
                 "R_v": "rv", "l_tag": "tag"},
            ]
        ),
        "swapped": st.booleans(),  # the flow lists (D.r, D.l)
    }
)


def join_task_config(config):
    task = {
        "type": "join",
        "left": f"l by {config['keys']}",
        "right": f"D.r by {config['keys']}",
        "join_condition": config["join_condition"],
    }
    if config["project"] is not None:
        task["project"] = config["project"]
    return task


def _join_plan(registry, config):
    """The join, then what sits behind it in ``activity_join``: a filter,
    a sort, and a group-by + sort on the (encoded or boxed) outputs."""
    inputs = "(D.r, D.l)" if config["swapped"] else "(D.l, D.r)"
    flow = parse_flow_file(
        "D:\n    l: [k, k2, v, tag]\n    r: [k, k2, v, w]\n"
        "D.l:\n    source: l.csv\nD.r:\n    source: r.csv\n"
        "F:\n"
        f"    D.joined: {inputs} | T.j\n"
        "    D.kept: D.joined | T.some | T.by_tag\n"
        "    D.tags: D.joined | T.per_tag | T.by_tag\n"
        "T:\n"
        "    some:\n        type: filter_by\n"
        "        filter_expression: v != 0\n"
        "    by_tag:\n        type: sort\n"
        "        orderby_column: [tag DESC, v ASC]\n"
        "    per_tag:\n        type: groupby\n        groupby: [tag, v]\n"
        "        aggregates:\n"
        "            - operator: count\n              out_field: n\n"
        "            - operator: max\n              apply_on: w\n"
        "              out_field: top\n"
    )
    tasks = registry.build_section(
        {
            **{name: spec.config for name, spec in flow.tasks.items()},
            "j": join_task_config(config),
        }
    )
    return build_logical_plan(build_dag(flow), tasks)


@settings(max_examples=60, deadline=None)
@given(join_sides(), join_configs)
@example(
    (
        Table.from_columns(
            Schema.of("k", "k2", "v", "tag"),
            {"k": [1, 2, None, 1], "k2": ["x"] * 4, "v": [1, 0, 2, None],
             "tag": ["north", None, "south", "north"]},
        ),
        Table(
            Schema.of("k", "k2", "v", "w"),
            {"k": [1, True, 3, None], "k2": ["x", "x", "y", None],
             "v": [5, 6, 7, 8], "w": [0.5, None, 1.5, 2.5]},
        ),
    ),
    {"keys": "k", "join_condition": "full outer", "project": None,
     "swapped": True},
)
def test_join_flow_matches_reference_on_every_executor(sides, config):
    tables = dict(zip("lr", sides))
    shipped = _join_plan(default_task_registry(), config)
    reference = _join_plan(_reference_registry(), config)
    executors = [("local", LocalExecutor(tables.__getitem__))] + [
        (
            f"distributed x{parallelism}",
            DistributedExecutor(
                tables.__getitem__,
                num_partitions=3,
                parallelism=parallelism,
                executor="threads",
            ),
        )
        for parallelism in (1, 4)
    ]
    for label, executor in executors:
        got = executor.run(shipped, TaskContext())
        want = executor.run(reference, TaskContext())
        for output in ("joined", "kept", "tags"):
            assert cells(got.table(output)) == cells(want.table(output)), (
                label,
                output,
            )
            for name in got.table(output).schema.names:
                encoded = got.table(output).encoded_column(name)
                if encoded is not None:  # a shadow never disagrees
                    assert encoded.tolist() == got.table(output).column(name)


# ---------------------------------------------------------------------------
# the date kernel against strptime
# ---------------------------------------------------------------------------

_FEED_FORMAT = "%a %b %d %H:%M:%S %z %Y"


def _strptime_day(value):
    """What the operator answers without its regex kernel."""
    text = str(value).strip()
    try:
        parsed = datetime.datetime.strptime(text, _FEED_FORMAT)
    except ValueError:
        parsed = map_ops._parse_fallback(text)
    return parsed.strftime("%Y-%m-%d") if parsed else None


stamp = st.builds(
    lambda parts, sep, case, tail: case(sep.join(parts)) + tail,
    st.tuples(
        st.sampled_from(["Sat", "Sun", "Mon", "ſat", "Sa", "Saturday"]),
        st.sampled_from(["May", "Feb", "Dec", "Mai", "Kay"]),
        st.sampled_from(
            ["4", "04", "29", "30", "31", "0", "00", "32", " 4",
             "٠٤", "1٤"]
        ),
        st.sampled_from(
            ["22:06:23", "7:06:23", "24:00:00", "22:06:59", "22:06:60",
             "22:06:61", "22:60:00", "22:06:2٣"]
        ),
        st.sampled_from(
            ["+0000", "-0530", "+2359", "+2400", "+0070", "+05:30", "0000",
             "+٠000"]
        ),
        st.sampled_from(
            ["2013", "2012", "1900", "0999", "999", "0000", "10000",
             "٢٠١٣"]
        ),
    ),
    st.sampled_from([" ", " ", " ", "  ", "\t"]),
    st.sampled_from([str, str.upper, str.lower, str.swapcase]),
    st.sampled_from(["", "", " ", "\n", " \t"]),
)


@settings(max_examples=400, deadline=None)
@given(stamp)
def test_date_kernel_agrees_with_strptime(text):
    convert = map_ops._date_factory(
        {"input_format": "E MMM dd HH:mm:ss Z yyyy"}
    )
    assert convert(text, {}) == _strptime_day(text)
    assert convert(text, {}) == _strptime_day(text)  # and from its memo
