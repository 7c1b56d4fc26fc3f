"""``groupby`` tasks and the user-defined-aggregate API.

Configuration (paper Fig. 8)::

    get_svn_jira_count:
      type: groupby
      groupby: [project, year]
      aggregates:
        - operator: sum
          apply_on: noOfCheckins
          out_field: total_checkins

With no ``aggregates`` the task counts rows per group into a ``count``
column (Fig. 23).  ``orderby_aggregates: true`` sorts groups by the first
aggregate, descending (Appendix A.2 ``aggregate_by_word``).

List-valued group columns (produced by ``extract_words``) are exploded
into one row per element before grouping, which is how the tag-cloud
pipeline turns token lists into word counts.

User-defined aggregates — category 2 of the §4.2 extension API — register
via :func:`register_aggregate` with a factory returning an object with
``add(value)`` and ``result()``.
"""

from __future__ import annotations

import itertools
from collections import Counter
from typing import Any, Callable, Iterable, Mapping, Sequence

from repro.data import Column, Schema, Table
from repro.data.kernels import group_indices, repeat_indices
from repro.errors import TaskConfigError, TaskExecutionError
from repro.tasks.base import Task, TaskContext, first_unhashable


class Aggregate:
    """Incremental aggregate protocol: feed values, read a result."""

    def add(self, value: Any) -> None:
        raise NotImplementedError

    def result(self) -> Any:
        raise NotImplementedError


class _Sum(Aggregate):
    def __init__(self) -> None:
        self._total: float | int = 0
        self._seen = False

    def add(self, value: Any) -> None:
        if value is None:
            return
        try:
            self._total += value
        except TypeError:
            self._total += float(value)
        self._seen = True

    def result(self) -> Any:
        return self._total if self._seen else None


class _Count(Aggregate):
    def __init__(self) -> None:
        self._count = 0

    def add(self, value: Any) -> None:
        self._count += 1

    def result(self) -> int:
        return self._count


class _CountNonNull(Aggregate):
    def __init__(self) -> None:
        self._count = 0

    def add(self, value: Any) -> None:
        if value is not None:
            self._count += 1

    def result(self) -> int:
        return self._count


class _CountDistinct(Aggregate):
    def __init__(self) -> None:
        self._seen: set[Any] = set()

    def add(self, value: Any) -> None:
        if value is not None:
            self._seen.add(value)

    def result(self) -> int:
        return len(self._seen)


class _Avg(Aggregate):
    def __init__(self) -> None:
        self._total = 0.0
        self._count = 0

    def add(self, value: Any) -> None:
        if value is None:
            return
        self._total += float(value)
        self._count += 1

    def result(self) -> float | None:
        return self._total / self._count if self._count else None


class _Min(Aggregate):
    def __init__(self) -> None:
        self._value: Any = None

    def add(self, value: Any) -> None:
        if value is None:
            return
        if self._value is None or value < self._value:
            self._value = value

    def result(self) -> Any:
        return self._value


class _Max(Aggregate):
    def __init__(self) -> None:
        self._value: Any = None

    def add(self, value: Any) -> None:
        if value is None:
            return
        if self._value is None or value > self._value:
            self._value = value

    def result(self) -> Any:
        return self._value


class _Collect(Aggregate):
    def __init__(self) -> None:
        self._values: list[Any] = []

    def add(self, value: Any) -> None:
        if value is not None:
            self._values.append(value)

    def result(self) -> list[Any]:
        return self._values


class _First(Aggregate):
    def __init__(self) -> None:
        self._value: Any = None
        self._seen = False

    def add(self, value: Any) -> None:
        if not self._seen and value is not None:
            self._value = value
            self._seen = True

    def result(self) -> Any:
        return self._value


_AGGREGATE_FACTORIES: dict[str, Callable[[], Aggregate]] = {
    "sum": _Sum,
    "count": _Count,
    "count_nonnull": _CountNonNull,
    "count_distinct": _CountDistinct,
    "avg": _Avg,
    "mean": _Avg,
    "min": _Min,
    "max": _Max,
    "collect": _Collect,
    "first": _First,
}


def register_aggregate(name: str, factory: Callable[[], Aggregate]) -> None:
    """Register a user-defined aggregate (§4.2 category 2)."""
    _AGGREGATE_FACTORIES[name.lower()] = factory


# -- bulk aggregation --------------------------------------------------------
# Whole-bucket implementations of the built-in aggregates, used by the
# group-by hot path: one C-speed pass over the bucket's values instead of
# a Python method call per row.  Each is value-for-value identical to
# feeding the incremental object (same ordering, same error behaviour);
# user-registered aggregates keep the incremental protocol.


def _bulk_sum(values: list[Any]) -> Any:
    present = [v for v in values if v is not None]
    if not present:
        return None
    try:
        return sum(present)
    except TypeError:
        total: Any = 0
        for v in present:
            try:
                total += v
            except TypeError:
                total += float(v)
        return total


def _bulk_avg(values: list[Any]) -> float | None:
    present = [float(v) for v in values if v is not None]
    return sum(present) / len(present) if present else None


def _bulk_min(values: list[Any]) -> Any:
    present = [v for v in values if v is not None]
    return min(present) if present else None


def _bulk_max(values: list[Any]) -> Any:
    present = [v for v in values if v is not None]
    return max(present) if present else None


#: factories as shipped — bulk fast paths only apply while the operator
#: still maps to the built-in (a user re-registering e.g. "sum" wins)
_BUILTIN_FACTORIES: dict[str, Callable[[], Aggregate]] = dict(
    _AGGREGATE_FACTORIES
)


def _is_builtin(operator: str) -> bool:
    return _AGGREGATE_FACTORIES.get(operator) is _BUILTIN_FACTORIES.get(
        operator
    )


_BULK_AGGREGATORS: dict[str, Callable[[list[Any]], Any]] = {
    "sum": _bulk_sum,
    "count": len,
    "count_nonnull": lambda vs: sum(1 for v in vs if v is not None),
    "count_distinct": lambda vs: len({v for v in vs if v is not None}),
    "avg": _bulk_avg,
    "mean": _bulk_avg,
    "min": _bulk_min,
    "max": _bulk_max,
    "collect": lambda vs: [v for v in vs if v is not None],
    "first": lambda vs: next((v for v in vs if v is not None), None),
}


def aggregate_names() -> list[str]:
    return sorted(_AGGREGATE_FACTORIES)


def _explode(
    table: Table, columns: Sequence[str], keep: Iterable[str]
) -> Table:
    """One row per combination of list-valued cells in ``columns``.

    Only ``columns`` and ``keep`` survive — the group-by reads nothing
    else.  Each list-holding column (found in one pass over its cell
    types) is flattened in turn, in schema order, so a row with lists in
    several columns expands to their cartesian product with the later
    column varying fastest.  An empty list drops the row, a scalar or
    ``None`` cell stays one row, a value repeated inside a list repeats.
    The other columns follow through one repeat-index ``take``.
    """
    explode = set(columns)
    wanted = explode | set(keep)
    exploded = table
    for name in table.schema.names:
        if name not in explode or table.encoded_column(name) is not None:
            continue  # typed encodings never hold lists
        cells = exploded.column(name)
        kinds = set(map(type, cells))
        if not any(issubclass(kind, list) for kind in kinds):
            continue
        if exploded is table:
            exploded = table.select(
                [n for n in table.schema.names if n in wanted]
            )
        pools = (
            cells
            if len(kinds) == 1
            else [c if isinstance(c, list) else (c,) for c in cells]
        )
        exploded = (
            exploded.drop([name])
            .take(repeat_indices(pools))
            .with_column(name, itertools.chain.from_iterable(pools))
        )
    return exploded


class GroupByTask(Task):
    """The ``type: groupby`` task."""

    type_name = "groupby"

    def _validate_config(self) -> None:
        if not self.config_list("groupby"):
            raise TaskConfigError(
                f"groupby task {self.name!r} needs 'groupby' columns"
            )
        if len(set(self.group_columns)) != len(self.group_columns):
            raise TaskConfigError(
                f"groupby task {self.name!r}: duplicate 'groupby' column "
                f"in {self.group_columns}"
            )
        for spec in self._aggregate_specs():
            operator = str(spec.get("operator", "")).lower()
            if operator not in _AGGREGATE_FACTORIES:
                raise TaskConfigError(
                    f"groupby task {self.name!r}: unknown aggregate "
                    f"{operator!r}; known: {aggregate_names()}"
                )
            if operator not in ("count",) and "apply_on" not in spec:
                raise TaskConfigError(
                    f"groupby task {self.name!r}: aggregate {operator!r} "
                    f"needs 'apply_on'"
                )

    def _aggregate_specs(self) -> list[dict[str, Any]]:
        specs = self.config.get("aggregates")
        if not specs:
            # Fig. 23: bare groupby yields a count column.
            return [{"operator": "count", "out_field": "count"}]
        if not isinstance(specs, list):
            raise TaskConfigError(
                f"groupby task {self.name!r}: 'aggregates' must be a list"
            )
        return [dict(s) for s in specs]

    @property
    def group_columns(self) -> list[str]:
        return [str(c) for c in self.config_list("groupby")]

    def required_columns(self) -> set[str]:
        needed = set(self.group_columns)
        for spec in self._aggregate_specs():
            if "apply_on" in spec:
                needed.add(str(spec["apply_on"]))
        return needed

    def output_schema(self, input_schemas: Sequence[Schema]) -> Schema:
        schema = input_schemas[0]
        schema.require(self.required_columns(), context=self.name)
        columns = [schema[c] for c in self.group_columns]
        columns += [Column(_out_field(s)) for s in self._aggregate_specs()]
        return Schema(columns)

    def apply(self, inputs: Sequence[Table], context: TaskContext) -> Table:
        table = self._single(inputs)
        group_columns = self.group_columns
        table.schema.require(group_columns, context=self.name)
        table = _explode(table, group_columns, self.required_columns())
        specs = self._aggregate_specs()
        try:
            keys, aggregated, first = self._aggregate(table, specs)
        except TypeError:
            self.check_hashable(table)
            raise
        if first is not None:
            # Each key column is its groups' first rows, gathered through
            # its own encoding: a trailing sort on the keys stays on codes.
            key_columns = [(table, c, first, False) for c in group_columns]
        elif len(group_columns) == 1:
            key_columns = [keys]
        else:
            key_columns = [
                [key[j] for key in keys] for j in range(len(group_columns))
            ]
        out_fields = [_out_field(spec) for spec in specs]
        result = Table.from_gathers(
            self.output_schema([table.schema]), key_columns + aggregated
        )
        if _truthy(self.config.get("orderby_aggregates")):
            result = result.sorted_by([out_fields[0]], descending=[True])
        context.bump(f"task.{self.name}.groups", len(keys))
        return result

    def _aggregate(
        self, table: Table, specs: list[dict[str, Any]]
    ) -> tuple[list[Any], list[list[Any]], list[int] | None]:
        """``(keys, one result list per spec, each group's first row)`` in
        first-seen key order; the count kernel knows no rows (``None``)."""
        group_columns = self.group_columns
        operators = [str(spec["operator"]).lower() for spec in specs]
        if set(operators) == {"count"} and _is_builtin("count"):
            # Fig. 23's default and all of Appendix A: nothing but row
            # counts, so count the keys in one C-speed pass (same dict
            # key equality and first-seen order as group_indices)
            # instead of building index buckets only to take their len.
            key_columns = [table.column(c) for c in group_columns]
            counts = Counter(
                key_columns[0] if len(key_columns) == 1 else zip(*key_columns)
            )
            return (
                list(counts),
                [list(counts.values()) for _ in specs],
                None,
            )
        # Encoded key columns group by dictionary code (no hashing);
        # plain columns keep the historical boxed loop.
        keys, buckets = group_indices(table._kernel_columns(group_columns))
        aggregated = []
        for spec, operator in zip(specs, operators):
            col = (
                table.column(str(spec["apply_on"]))
                if "apply_on" in spec
                else None
            )
            bulk = _BULK_AGGREGATORS.get(operator)
            if bulk is not None and _is_builtin(operator):
                if col is None:
                    # Bare count: no value column to gather.
                    aggregated.append([len(b) for b in buckets])
                else:
                    aggregated.append(
                        [bulk([col[i] for i in b]) for b in buckets]
                    )
            else:
                factory = _AGGREGATE_FACTORIES[operator]
                results = []
                for bucket in buckets:
                    agg = factory()
                    for i in bucket:
                        agg.add(col[i] if col is not None else None)
                    results.append(agg.result())
                aggregated.append(results)
        return keys, aggregated, [bucket[0] for bucket in buckets]

    def check_hashable(self, table: Table) -> None:
        """Raise a structured error naming the first group-key or
        ``count_distinct`` column that holds an unhashable cell (a list
        nested inside a list survives the explode)."""
        columns = self.group_columns + [
            str(spec["apply_on"])
            for spec in self._aggregate_specs()
            if str(spec["operator"]).lower() == "count_distinct"
        ]
        found = first_unhashable(table, columns)
        if found is not None:
            raise TaskExecutionError(
                f"groupby task {self.name!r}: column {found[0]!r} "
                f"holds the unhashable value {found[1]!r}; group keys "
                f"and count_distinct values must be scalars"
            ) from None


def _out_field(spec: Mapping[str, Any]) -> str:
    """The output column an aggregate spec writes."""
    return str(
        spec.get("out_field") or spec.get("apply_on") or spec["operator"]
    )


def _truthy(value: Any) -> bool:
    if isinstance(value, str):
        return value.strip().lower() in ("true", "yes", "1")
    return bool(value)
