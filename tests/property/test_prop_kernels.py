"""Property tests: the vectorized kernels match the row-at-a-time paths.

Every fast path introduced for the interactive query chain must be
*semantics-preserving*: row-for-row identical output to the generic
implementation it bypasses.  These properties generate mixed-type,
``None``-laden and empty inputs and check exact equality — including
the ad-hoc planner, whose canonicalized chains must serialize to
byte-identical JSON.
"""

import datetime
import json
from functools import cmp_to_key

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import Schema, Table
from repro.data.kernels import (
    ComparePredicate,
    ContainsPredicate,
    MembershipPredicate,
    RangePredicate,
    argsort,
    group_indices,
    top_n_indices,
)
from repro.errors import QueryError
from repro.server.query_language import AdhocQuery
from repro.tasks.base import TaskContext
from repro.tasks.groupby import _AGGREGATE_FACTORIES, _BULK_AGGREGATORS
from repro.tasks.registry import default_task_registry

cell = st.one_of(
    st.none(),
    st.integers(min_value=-100, max_value=100),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.text(alphabet="abz", max_size=3),
    st.booleans(),
)
column = st.lists(cell, max_size=30)
operand = st.one_of(
    st.none(),
    st.integers(min_value=-100, max_value=100),
    st.text(alphabet="abz", max_size=3),
    st.booleans(),
)
comparison_op = st.sampled_from(["<", "<=", ">", ">=", "==", "!="])


def one_column(values):
    return Table(Schema.of("v"), {"v": values})


# -- predicates: columnar indices() vs the row-dict slow path -------------


@given(column, comparison_op, operand)
def test_compare_predicate_fast_equals_slow(values, op, rhs):
    table = one_column(values)
    predicate = ComparePredicate("v", op, rhs)
    fast = table.filter_rows(predicate)
    slow = table.filter_rows(lambda row: predicate(row))
    assert fast == slow


@given(column, st.lists(operand, max_size=4))
def test_membership_predicate_fast_equals_slow(values, allowed):
    table = one_column(values)
    predicate = MembershipPredicate("v", allowed)
    assert table.filter_rows(predicate) == table.filter_rows(
        lambda row: predicate(row)
    )


@given(column, operand, operand)
def test_range_predicate_fast_equals_slow(values, lo, hi):
    table = one_column(values)
    predicate = RangePredicate("v", lo, hi)
    assert table.filter_rows(predicate) == table.filter_rows(
        lambda row: predicate(row)
    )


@given(column, st.text(alphabet="abz", max_size=2))
def test_contains_predicate_fast_equals_slow(values, needle):
    table = one_column(values)
    predicate = ContainsPredicate("v", needle)
    assert table.filter_rows(predicate) == table.filter_rows(
        lambda row: predicate(row)
    )


@given(column, st.integers(min_value=-5, max_value=5))
def test_filter_task_fast_equals_row_path(values, threshold):
    """The FilterTask columnar compilation never changes results."""
    table = one_column(values)
    registry = default_task_registry()
    task = registry.create(
        "flt", {"type": "filter_by", "filter_expression": f"v > {threshold}"}
    )
    assert task._columnar is not None
    fast = task.apply([table], TaskContext())
    task._columnar = None  # force the pre-kernel row-dict path
    slow = task.apply([table], TaskContext())
    assert fast == slow


# -- sorting --------------------------------------------------------------


#: the sort properties' cells: every rank of the order table, NaN, and
#: strings whose code-point order is not their numeric order
sort_cell = st.one_of(
    cell,
    st.just(float("nan")),
    st.sampled_from(["1", "007", "10"]),
    st.dates(datetime.date(1999, 1, 1), datetime.date(2030, 1, 1)),
    st.datetimes(
        datetime.datetime(1999, 1, 1),
        datetime.datetime(2030, 1, 1),
        timezones=st.sampled_from([None, datetime.timezone.utc]),
    ),
)
sort_column = st.lists(sort_cell, max_size=30)


def _rank(value):
    if value is None:
        return 0
    if isinstance(value, (int, float)):
        return 1 if value == value else 2
    if isinstance(value, str):
        return 3
    if isinstance(value, datetime.date):
        return 4
    return 5


def _aware(value):
    return (
        isinstance(value, datetime.datetime)
        and value.utcoffset() is not None
    )


def compare_cells(a, b):
    """The order table of ``docs/flowfile-reference.md``, one pair at a
    time: rank first, then the rank's own comparison."""
    rank = _rank(a)
    if rank != _rank(b):
        return -1 if rank < _rank(b) else 1
    if rank in (0, 2):  # every None, every NaN: equal
        return 0
    if rank == 4:  # type name, naive before aware, then native order
        a, b = ((type(v).__name__, _aware(v), v) for v in (a, b))
    elif rank == 5:
        a, b = ((type(v).__name__, repr(v)) for v in (a, b))
    return (a > b) - (a < b)


def reference_argsort(num_rows, key_columns, descending):
    """Rows in the order table's order, key by key (most significant
    first, a descending key reversed), ties in row order."""

    def compare_rows(i, j):
        for values, desc in zip(key_columns, descending):
            verdict = compare_cells(values[i], values[j])
            if verdict:
                return -verdict if desc else verdict
        return i - j

    return sorted(range(num_rows), key=cmp_to_key(compare_rows))


@given(sort_column, st.booleans())
def test_argsort_single_key_matches_reference(values, descending):
    assert argsort(len(values), [values], [descending]) == reference_argsort(
        len(values), [values], [descending]
    )


@given(
    st.lists(st.tuples(sort_cell, sort_cell), max_size=30),
    st.booleans(),
    st.booleans(),
)
def test_sorted_by_two_keys_matches_reference(rows, desc_a, desc_b):
    table = Table.from_rows(Schema.of("a", "b"), rows)
    out = table.sorted_by(["a", "b"], [desc_a, desc_b])
    expected = table.take(
        reference_argsort(
            table.num_rows,
            [table.column("a"), table.column("b")],
            [desc_a, desc_b],
        )
    )
    assert out == expected


@given(sort_column, st.booleans(), st.integers(min_value=0, max_value=35))
def test_top_n_is_sort_prefix(values, descending, n):
    assert top_n_indices(values, descending, n) == argsort(
        len(values), [values], [descending]
    )[:n]


@given(sort_column, st.booleans(), st.data())
def test_sorted_subsequence_is_the_sorted_column_restricted(
    values, descending, data
):
    """Two rows' order never depends on the other rows — what a kept
    sort or top-n output relies on when it re-sorts itself plus Δ."""
    keep = data.draw(
        st.lists(st.booleans(), min_size=len(values), max_size=len(values))
    )
    chosen = [i for i, k in enumerate(keep) if k]
    subsequence = [values[i] for i in chosen]
    got = argsort(len(subsequence), [subsequence], [descending])
    whole = argsort(len(values), [values], [descending])
    assert [chosen[p] for p in got] == [i for i in whole if keep[i]]


# -- grouping -------------------------------------------------------------


@given(st.lists(st.tuples(cell, cell), max_size=30))
def test_group_indices_matches_row_loop(rows):
    columns = [[r[0] for r in rows], [r[1] for r in rows]]
    keys, buckets = group_indices(columns)
    seen = {}
    expected_keys = []
    for i, row in enumerate(rows):
        key = tuple(row)
        if key not in seen:
            seen[key] = []
            expected_keys.append(key)
        seen[key].append(i)
    assert keys == expected_keys
    assert buckets == [seen[k] for k in expected_keys]


numeric_column = st.lists(
    st.one_of(
        st.none(),
        st.integers(min_value=-100, max_value=100),
        st.floats(allow_nan=False, allow_infinity=False, width=32),
        st.booleans(),
    ),
    max_size=30,
)


@given(numeric_column)
def test_bulk_aggregates_match_incremental(values):
    for operator, bulk in _BULK_AGGREGATORS.items():
        incremental = _AGGREGATE_FACTORIES[operator]()
        for v in values:
            incremental.add(v)
        assert bulk(values) == incremental.result(), operator


# -- the ad-hoc planner ---------------------------------------------------

PLANNER_TABLE = Table.from_rows(
    Schema.of("k", "v"),
    [
        ("a", 3),
        ("b", 1),
        ("a", 2),
        ("c", 5),
        ("b", 4),
        ("a", 1),
        (None, 2),
    ],
)

filter_step = st.tuples(
    st.just("filter"),
    st.tuples(
        st.sampled_from(["k", "v"]),
        st.sampled_from(["eq", "ne", "lt", "GE", "gt", "LE", "contains"]),
        st.sampled_from(["a", "b", "1", "2", "3"]),
    ),
)
groupby_step = st.tuples(
    st.just("groupby"),
    st.tuples(
        st.just("k"),
        st.sampled_from(["sum", "count", "min", "max", "avg"]),
        st.just("v"),
    ),
)
orderby_step = st.tuples(
    st.just("orderby"),
    st.tuples(st.sampled_from(["k", "v"]), st.sampled_from(["asc", "desc"])),
)
limit_step = st.tuples(
    st.just("limit"), st.tuples(st.sampled_from(["1", "3", "10"]))
)
chain = st.lists(
    st.one_of(filter_step, groupby_step, orderby_step, limit_step),
    max_size=5,
)


def run_query(query):
    try:
        result = query.execute(PLANNER_TABLE)
    except QueryError:
        return "QueryError"
    return json.dumps(result.to_records(), sort_keys=True, default=str)


@settings(max_examples=200)
@given(chain)
def test_canonicalized_chain_is_byte_identical(steps):
    steps = [(verb, tuple(args)) for verb, args in steps]
    query = AdhocQuery(dataset="d", steps=steps)
    assert run_query(query.canonicalized()) == run_query(query)


@settings(max_examples=200)
@given(chain)
def test_canonicalization_is_idempotent(steps):
    steps = [(verb, tuple(args)) for verb, args in steps]
    once = AdhocQuery(dataset="d", steps=steps).canonicalized()
    twice = once.canonicalized()
    assert once.steps == twice.steps
    assert once.fingerprint() == twice.fingerprint()


def test_equivalent_spellings_share_a_fingerprint():
    spelled = AdhocQuery(
        "d",
        [
            ("groupby", ("k", "sum", "v")),
            ("filter", ("k", "NE", "a")),
            ("orderby", ("sum_v", "desc")),
            ("limit", ("03",)),
        ],
    )
    canonical = AdhocQuery(
        "d",
        [
            ("filter", ("k", "ne", "a")),
            ("groupby", ("k", "sum", "v")),
            ("topn", ("sum_v", "desc", "3")),
        ],
    )
    assert spelled.fingerprint() == canonical.fingerprint()
    assert run_query(spelled) == run_query(canonical)
