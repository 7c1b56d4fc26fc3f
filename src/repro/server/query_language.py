"""The simplified ad-hoc query language (paper §4.4, Fig. 30).

Queries are URL path segments over an endpoint data object::

    /ds/<dataset>/groupby/<column>/<aggregate>/<column>

e.g. ``/ds/projects/groupby/category/count/project`` returns the count
of projects per category.  We extend the same path style with the other
cube verbs (the paper's "group, filter etc."):

    .../filter/<column>/<op>/<value>     op: eq, ne, lt, le, gt, ge, contains
    .../orderby/<column>/<asc|desc>
    .../limit/<n>
    .../select/<col1,col2,...>

Verbs chain left to right: ``/ds/x/filter/year/ge/2013/groupby/team/sum/
tweets/orderby/tweets/desc/limit/5``.  ``orderby`` orders cells as every
sort does, by :func:`~repro.data.kernels.order_key`.

:meth:`AdhocQuery.canonicalized` is the planner pass over a parsed
chain.  It rewrites a query into a canonical equivalent — normalized
operator spelling, group-key filters pushed ahead of the group-by they
follow, adjacent ``orderby``+``limit`` fused into one top-n step — so
that URL chains which *mean* the same thing execute the same plan and
share one entry in the server's result cache
(:meth:`AdhocQuery.fingerprint` is the cache key).  Every rewrite is
result-preserving byte for byte: pushing a filter on a group *key*
before the group-by touches exactly the rows of the surviving groups
(every row in a group shares the key, and first-seen group order is a
subsequence of row order), and the fused top-n kernel is documented
equivalent to ``sorted(...)[:n]``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any

from repro.data import Table
from repro.data.schema import ColumnType
from repro.data.kernels import (
    ComparePredicate,
    ContainsPredicate,
    top_n_indices,
)
from repro.errors import QueryError
from repro.tasks.base import TaskContext
from repro.tasks.groupby import GroupByTask, aggregate_names
from repro.tasks.misc import LimitTask, ProjectTask, SortTask

_FILTER_OPS = {
    "eq": "==",
    "ne": "!=",
    "lt": "<",
    "le": "<=",
    "gt": ">",
    "ge": ">=",
    "contains": "contains",
}


@dataclass
class AdhocQuery:
    """A parsed chain of query steps."""

    dataset: str
    steps: list[tuple[str, tuple[str, ...]]] = field(default_factory=list)

    def execute(self, table: Table) -> Table:
        """Run the chain against the endpoint table."""
        context = TaskContext()
        for i, (verb, args) in enumerate(self.steps):
            table = _apply_step(table, verb, args, context, i)
        return table

    def canonicalized(self) -> "AdhocQuery":
        """The planner pass: an equivalent query in canonical form.

        Three result-preserving rewrites:

        1. filter ops are spelled lowercase (``GE`` → ``ge``);
        2. a filter on a group *key* column is pushed ahead of the
           group-by it follows (skipped when the aggregate's output
           column shadows the key, since the filter then reads the
           aggregate);
        3. ``orderby`` immediately followed by ``limit`` fuses into an
           internal ``topn`` step served by the heap kernel.

        Chains that differ only in these spellings canonicalize to the
        same step list and therefore the same :meth:`fingerprint`.
        """
        steps = [_canonical_step(verb, args) for verb, args in self.steps]
        moved = True
        while moved:
            moved = False
            for i in range(len(steps) - 1):
                verb, args = steps[i]
                next_verb, next_args = steps[i + 1]
                if (
                    verb == "groupby"
                    and next_verb == "filter"
                    and next_args[0] == args[0]
                    and _groupby_out_field(args) != args[0]
                ):
                    steps[i], steps[i + 1] = steps[i + 1], steps[i]
                    moved = True
        fused: list[tuple[str, tuple[str, ...]]] = []
        i = 0
        while i < len(steps):
            verb, args = steps[i]
            if (
                verb == "orderby"
                and i + 1 < len(steps)
                and steps[i + 1][0] == "limit"
            ):
                fused.append(
                    ("topn", (args[0], args[1], steps[i + 1][1][0]))
                )
                i += 2
                continue
            fused.append((verb, args))
            i += 1
        return AdhocQuery(dataset=self.dataset, steps=fused)

    def fingerprint(self) -> str:
        """Stable cache key: canonical JSON of the canonicalized chain."""
        canonical = self.canonicalized()
        return json.dumps(
            [canonical.dataset, canonical.steps], sort_keys=True
        )


def _canonical_step(
    verb: str, args: tuple[str, ...]
) -> tuple[str, tuple[str, ...]]:
    if verb == "filter":
        return ("filter", (args[0], args[1].lower(), args[2]))
    if verb == "limit":
        return ("limit", (str(int(args[0])),))
    return (verb, tuple(args))


def _groupby_out_field(args: tuple[str, ...]) -> str:
    # Mirrors _apply_step's out_field choice exactly (including its
    # case-sensitive treatment of "count").
    _group_col, aggregate, apply_col = args
    if aggregate == "count":
        return apply_col
    return f"{aggregate}_{apply_col}"


def parse_adhoc_query(path_segments: list[str]) -> AdhocQuery:
    """Parse the path segments after ``/ds/``.

    The first segment is the dataset name; the rest are verb chains.
    """
    if not path_segments or not path_segments[0]:
        raise QueryError("missing dataset name")
    query = AdhocQuery(dataset=path_segments[0])
    rest = path_segments[1:]
    i = 0
    while i < len(rest):
        verb = rest[i].lower()
        if verb == "groupby":
            args = rest[i + 1: i + 4]
            if len(args) != 3:
                raise QueryError(
                    "groupby needs /groupby/<column>/<aggregate>/<column>"
                )
            if args[1].lower() not in aggregate_names():
                raise QueryError(
                    f"unknown aggregate {args[1]!r}; "
                    f"known: {aggregate_names()}"
                )
            query.steps.append(("groupby", tuple(args)))
            i += 4
        elif verb == "filter":
            args = rest[i + 1: i + 4]
            if len(args) != 3:
                raise QueryError(
                    "filter needs /filter/<column>/<op>/<value>"
                )
            if args[1].lower() not in _FILTER_OPS:
                raise QueryError(
                    f"unknown filter op {args[1]!r}; "
                    f"known: {sorted(_FILTER_OPS)}"
                )
            query.steps.append(("filter", tuple(args)))
            i += 4
        elif verb == "orderby":
            args = rest[i + 1: i + 3]
            if len(args) < 1:
                raise QueryError("orderby needs /orderby/<column>[/<dir>]")
            direction = "asc"
            consumed = 2
            if len(args) == 2 and args[1].lower() in ("asc", "desc"):
                direction = args[1].lower()
                consumed = 3
            query.steps.append(("orderby", (args[0], direction)))
            i += consumed
        elif verb == "limit":
            if i + 1 >= len(rest):
                raise QueryError("limit needs /limit/<n>")
            try:
                n = int(rest[i + 1])
            except ValueError:
                raise QueryError(
                    f"limit must be an integer, got {rest[i + 1]!r}"
                ) from None
            if n < 0:
                # Rejecting here keeps the raw and planner-fused paths
                # uniform: a negative limit used to 422 on the raw chain
                # (LimitTask config error) but 200-with-0-rows via the
                # fused top-n kernel's n <= 0 guard.
                raise QueryError(
                    f"limit must be non-negative, got {n}"
                )
            query.steps.append(("limit", (rest[i + 1],)))
            i += 2
        elif verb == "select":
            if i + 1 >= len(rest):
                raise QueryError("select needs /select/<col1,col2,...>")
            query.steps.append(("select", (rest[i + 1],)))
            i += 2
        else:
            raise QueryError(
                f"unknown query verb {verb!r}; known: groupby, filter, "
                f"orderby, limit, select"
            )
    return query


def _apply_step(
    table: Table,
    verb: str,
    args: tuple[str, ...],
    context: TaskContext,
    index: int,
) -> Table:
    name = f"__adhoc_{index}"
    if verb == "groupby":
        group_col, aggregate, apply_col = args
        _require(table, group_col)
        spec: dict[str, Any] = {"operator": aggregate}
        if aggregate != "count":
            _require(table, apply_col)
            spec["apply_on"] = apply_col
        spec["out_field"] = (
            apply_col if aggregate == "count" else f"{aggregate}_{apply_col}"
        )
        task = GroupByTask(
            name, {"groupby": [group_col], "aggregates": [spec]}
        )
        return task.apply([table], context)
    if verb == "filter":
        column, op, value = args
        _require(table, column)
        typed = _coerce_for_column(table, column, value)
        op_symbol = _FILTER_OPS[op.lower()]
        if op_symbol == "contains":
            return table.filter_rows(
                ContainsPredicate(column, str(typed))
            )
        return table.filter_rows(
            ComparePredicate(column, op_symbol, typed)
        )
    if verb == "topn":
        column, direction, n = args
        _require(table, column)
        kept = top_n_indices(
            table.column(column), direction == "desc", int(n)
        )
        return table.take(kept)
    if verb == "orderby":
        column, direction = args
        _require(table, column)
        task = SortTask(
            name,
            {"orderby_column": [f"{column} {direction.upper()}"]},
        )
        return task.apply([table], context)
    if verb == "limit":
        task = LimitTask(name, {"limit": int(args[0])})
        return task.apply([table], context)
    if verb == "select":
        columns = [c.strip() for c in args[0].split(",") if c.strip()]
        for column in columns:
            _require(table, column)
        task = ProjectTask(name, {"columns": columns})
        return task.apply([table], context)
    raise QueryError(f"unknown verb {verb!r}")


def _require(table: Table, column: str) -> None:
    if column not in table.schema:
        raise QueryError(
            f"unknown column {column!r}; dataset has {table.schema.names}"
        )


def _coerce_for_column(table: Table, column: str, value: str) -> Any:
    """Schema-aware filter-value coercion (the ``/ds/`` coercion rules).

    URL segments are always strings; comparing against a typed column
    needs a typed value.  But coercing *unconditionally* corrupts
    string-column filters — ``/filter/zip/eq/02134`` must compare the
    string ``"02134"``, not the integer ``2134``.  The filtered
    column's effective type decides:

    * string column — the raw segment is kept as a string;
    * bool column — ``true``/``false`` parse to booleans;
    * numeric column, or a column whose type cannot be pinned down
      (mixed values, all-null, dates) — the legacy best-effort
      coercion (int, then float, then bool, else string).

    The effective type is the declared schema type when one exists;
    ``ANY`` columns (the DSL is untyped by default) fall back to a scan
    of the column's values.  Pushing a group-key filter ahead of its
    group-by (the planner rewrite) never changes the verdict: the key
    column's distinct values carry exactly the value types of the full
    column.
    """
    kind = _column_kind(table, column)
    if kind == "string":
        return value
    if kind == "bool":
        if value.lower() in ("true", "false"):
            return value.lower() == "true"
        return value
    return _coerce(value)


def _column_kind(table: Table, column: str) -> str:
    """``string`` | ``bool`` | ``numeric`` | ``other`` for one column."""
    declared = table.schema[column].type
    if declared is ColumnType.STRING:
        return "string"
    if declared is ColumnType.BOOL:
        return "bool"
    if declared in (ColumnType.INT, ColumnType.FLOAT):
        return "numeric"
    if declared is not ColumnType.ANY:
        return "other"
    saw_str = saw_bool = saw_num = saw_other = False
    for cell in table.column(column):
        if cell is None:
            continue
        if isinstance(cell, bool):
            saw_bool = True
        elif isinstance(cell, (int, float)):
            saw_num = True
        elif isinstance(cell, str):
            saw_str = True
        else:
            saw_other = True
    if saw_str and not (saw_bool or saw_num or saw_other):
        return "string"
    if saw_bool and not (saw_str or saw_num or saw_other):
        return "bool"
    if saw_num and not (saw_str or saw_bool or saw_other):
        return "numeric"
    return "other"


def _coerce(value: str) -> Any:
    try:
        return int(value)
    except ValueError:
        pass
    try:
        return float(value)
    except ValueError:
        pass
    if value.lower() in ("true", "false"):
        return value.lower() == "true"
    return value
