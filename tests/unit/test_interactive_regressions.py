"""Regression tests for the interactive-path bug fixes.

Each test encodes one bug that shipped with the original interactive
path; all of them fail against the pre-fix code:

1. the cube cache keyed results by task *name* only, so two same-named
   tasks with different configs collided on one entry;
2. the cube cache evicted FIFO — a hit never refreshed recency, so the
   hottest entry could be the first one dropped;
3. ``Table.sorted_by``'s mixed-type fallback re-sorted the indices that
   ``list.sort`` had already partially reordered before raising, which
   silently broke the stability established by earlier key passes;
4. ``_explode`` only exploded the *first* list-valued group column,
   leaving later ones as unhashable list cells;
5. ``Table.with_column`` skipped its length check on 0-row tables, so
   the mismatch surfaced later as a puzzling "ragged columns" error.
"""

import pytest

from repro.data import Schema, Table
from repro.engine.datacube import DataCube
from repro.errors import SchemaError
from repro.tasks.base import TaskContext
from repro.tasks.groupby import GroupByTask
from repro.tasks.registry import default_task_registry


def make_filter(expression):
    registry = default_task_registry()
    return registry.create(
        "flt", {"type": "filter_by", "filter_expression": expression}
    )


class TestCubeCacheKeyedByConfig:
    """Bug 1: same task name + different config must not share a key."""

    def test_reconfigured_same_named_task_misses_cache(self):
        table = Table.from_rows(
            Schema.of("k", "v"), [("a", 1), ("b", 2), ("c", 3)]
        )
        cube = DataCube("test", table)
        loose = make_filter("v > 0")
        strict = make_filter("v > 2")
        assert loose.name == strict.name  # the collision precondition
        assert cube.query([loose]).num_rows == 3
        out = cube.query([strict])
        assert out.column("v") == [3]
        assert cube.stats.cache_hits == 0


class TestCubeCacheIsLru:
    """Bug 2: a cache hit must refresh recency (LRU, not FIFO)."""

    def test_hit_entry_survives_eviction(self):
        table = Table.from_rows(
            Schema.of("k", "v"), [("a", 1), ("b", 2), ("c", 3)]
        )
        cube = DataCube("test", table, max_cache_entries=2)
        a, b, c = (
            make_filter("v >= 1"),
            make_filter("v >= 2"),
            make_filter("v >= 3"),
        )
        cube.query([a])  # cache: [a]
        cube.query([b])  # cache: [a, b]
        cube.query([a])  # hit; LRU order must become [b, a]
        cube.query([c])  # evicts b under LRU (a under FIFO)
        cube.query([a])  # must still hit
        assert cube.stats.cache_hits == 2


class _Weird:
    """Orders among its own kind, refuses to compare with ints, and
    collapses to one string — the shape that makes a corrupted typed
    sort pass *observable* after the string fallback."""

    def __init__(self, v):
        self.v = v

    def __eq__(self, other):
        return isinstance(other, _Weird) and self.v == other.v

    def __lt__(self, other):
        if isinstance(other, _Weird):
            return self.v < other.v
        return NotImplemented

    def __gt__(self, other):
        if isinstance(other, _Weird):
            return self.v > other.v
        return NotImplemented

    def __hash__(self):
        return hash(self.v)

    def __str__(self):
        return "W"

    __repr__ = __str__


class TestSortedByFallbackStability:
    """Bug 3: a mixed-type pass must keep the earlier passes' order.

    The string fallback that broke it re-sorted a list ``list.sort``
    had half-reordered before raising (visible only past ~50 elements,
    with ties) — hence the poisoned-int-among-incomparables
    construction below.  Sorts now key every cell by
    :func:`~repro.data.kernels.order_key`, which cannot raise; the
    tests keep that so.
    """

    def test_mixed_type_fallback_preserves_earlier_pass_order(self):
        n = 60
        a = [_Weird(i % 7) for i in range(n)]
        a[4] = 9999  # poison placed to blow up mid-merge, not up front
        b = list(range(n))[::-1]
        table = Table(Schema.of("a", "b"), {"a": a, "b": b})
        out = table.sorted_by(["a", "b"])
        weird_bs = [
            bv
            for av, bv in zip(out.column("a"), out.column("b"))
            if isinstance(av, _Weird)
        ]
        # Every _Weird keys as ("_Weird", "W"): ties that the secondary
        # pass ordered by b, which the primary pass must keep.
        assert weird_bs == sorted(weird_bs)

    def test_small_mixed_column_falls_back_cleanly(self):
        table = Table(
            Schema.of("a"), {"a": [3, "x", 1, None, "a", 2]}
        )
        out = table.sorted_by(["a"])
        assert out.column("a") == [None, 1, 2, 3, "a", "x"]


class TestExplodeCartesian:
    """Bug 4: every list-valued group column explodes, not just the
    first — a row listy in two columns becomes their cartesian
    product."""

    def test_two_list_columns_explode_to_product(self):
        table = Table.from_rows(
            Schema.of("x", "y"),
            [(["a", "b"], ["p", "q"]), ("c", "r")],
        )
        task = GroupByTask("g", {"groupby": ["x", "y"]})
        out = task.apply([table], TaskContext())
        pairs = list(zip(out.column("x"), out.column("y")))
        assert pairs == [
            ("a", "p"),
            ("a", "q"),
            ("b", "p"),
            ("b", "q"),
            ("c", "r"),
        ]
        assert out.column("count") == [1, 1, 1, 1, 1]

    def test_empty_list_cell_still_drops_row(self):
        table = Table.from_rows(
            Schema.of("x", "y"), [([], ["p"]), ("c", "r")]
        )
        task = GroupByTask("g", {"groupby": ["x", "y"]})
        out = task.apply([table], TaskContext())
        assert list(zip(out.column("x"), out.column("y"))) == [("c", "r")]


class TestWithColumnOnEmptyTable:
    """Bug 5: the length check must also run when the table has 0 rows."""

    def test_nonempty_column_on_empty_table_rejected(self):
        table = Table.empty(Schema.of("k"))
        # Must be with_column's own up-front check ("table has 0 rows"),
        # not the constructor's later "ragged columns" error.
        with pytest.raises(SchemaError, match="table has 0 rows"):
            table.with_column("v", [1, 2])

    def test_empty_column_on_empty_table_ok(self):
        table = Table.empty(Schema.of("k"))
        assert table.with_column("v", []).schema.names == ["k", "v"]

    def test_first_column_defines_length(self):
        table = Table(Schema([]), {})
        out = table.with_column("v", [1, 2])
        assert out.num_rows == 2
