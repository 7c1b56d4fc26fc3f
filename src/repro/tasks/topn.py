"""``topn`` tasks.

Configuration (paper Appendix A.1)::

    topwords:
      type: topn
      groupby: [date]
      orderby_column: [count DESC]
      limit: 20

Keeps the top ``limit`` rows per group, ordered by ``orderby_column``
entries (each ``<column> [ASC|DESC]``).  Without ``groupby`` the whole
table is one group.
"""

from __future__ import annotations

from typing import Sequence

from repro.data import Schema, Table
from repro.data.kernels import argsort, group_indices, top_n_indices
from repro.errors import TaskConfigError
from repro.tasks.base import Task, TaskContext


def _parse_order(entry: str, task: str) -> tuple[str, bool]:
    parts = str(entry).split()
    if not parts or len(parts) > 2:
        raise TaskConfigError(
            f"topn task {task!r}: bad orderby entry {entry!r}"
        )
    column = parts[0]
    descending = False
    if len(parts) == 2:
        direction = parts[1].upper()
        if direction not in ("ASC", "DESC"):
            raise TaskConfigError(
                f"topn task {task!r}: direction must be ASC or DESC, "
                f"got {parts[1]!r}"
            )
        descending = direction == "DESC"
    return column, descending


class TopNTask(Task):
    """The ``type: topn`` task."""

    type_name = "topn"

    def _validate_config(self) -> None:
        orderby = self.config_list("orderby_column", required=True)
        self._order = [_parse_order(e, self.name) for e in orderby]
        limit = self.config.get("limit")
        if limit is None:
            raise TaskConfigError(f"topn task {self.name!r} needs 'limit'")
        try:
            self._limit = int(limit)
        except (TypeError, ValueError):
            raise TaskConfigError(
                f"topn task {self.name!r}: limit must be an integer, "
                f"got {limit!r}"
            ) from None
        if self._limit < 1:
            raise TaskConfigError(
                f"topn task {self.name!r}: limit must be positive"
            )

    @property
    def group_columns(self) -> list[str]:
        return [str(c) for c in self.config_list("groupby")]

    def required_columns(self) -> set[str]:
        return set(self.group_columns) | {c for c, _d in self._order}

    def preserves_rows(self) -> bool:
        return True

    def output_schema(self, input_schemas: Sequence[Schema]) -> Schema:
        schema = input_schemas[0]
        schema.require(self.required_columns(), context=self.name)
        return schema

    def apply(self, inputs: Sequence[Table], context: TaskContext) -> Table:
        table = self._single(inputs)
        table.schema.require(self.required_columns(), context=self.name)
        group_columns = self.group_columns
        order_keys = [c for c, _d in self._order]
        order_desc = [d for _c, d in self._order]
        if not group_columns:
            if len(order_keys) == 1:
                # Single key: the heap kernel beats a full sort.
                kept = top_n_indices(
                    table.column(order_keys[0]), order_desc[0], self._limit
                )
                result = table.take(kept)
            else:
                result = table.sorted_by(
                    order_keys, order_desc
                ).head(self._limit)
            context.bump(f"task.{self.name}.rows_out", result.num_rows)
            return result
        # Partition indices per group (first-seen order), then rank each
        # bucket's key values directly — no per-group table subsets.
        _keys, buckets = group_indices(
            [table.column(c) for c in group_columns]
        )
        order_cols = [table.column(c) for c in order_keys]
        kept: list[int] = []
        for bucket in buckets:
            gathered = [
                [column[i] for i in bucket] for column in order_cols
            ]
            positions = argsort(len(bucket), gathered, order_desc)
            kept.extend(bucket[p] for p in positions[: self._limit])
        result = table.take(kept)
        context.bump(f"task.{self.name}.rows_out", result.num_rows)
        return result
