"""``join`` tasks.

Configuration (paper Appendix A.1)::

    join_player_team:
      type: join
      left: players_tweets by player
      right: team_players by player
      join_condition: left outer
      project:
        players_tweets_date: date
        team_players_team: team

``left``/``right`` name the flow's input data objects and their join keys
(composite keys via ``by a, b``).  ``join_condition`` is one of ``inner``
(default), ``left outer``, ``right outer``, ``full outer`` —
case-insensitive, as the paper mixes ``left outer`` and ``LEFT OUTER``.

``project`` renames ``<input>_<column>`` keys to output columns; without
it the output is all left columns plus the right's non-key columns
(collisions suffixed ``_right``; an unmatched right row of a right/full
outer join carries its key in the left key columns).
"""

from __future__ import annotations

import re
from itertools import chain, repeat
from typing import Any, Sequence

from repro.data import Column, Schema, Table
from repro.data.kernels import repeat_indices
from repro.errors import TaskConfigError, TaskExecutionError
from repro.tasks.base import Task, TaskContext, first_unhashable

_SIDE_RE = re.compile(
    r"^\s*(?P<name>[A-Za-z_][\w.]*)\s+by\s+(?P<keys>.+?)\s*$"
)

_CONDITIONS = {
    "inner": "inner",
    "left outer": "left",
    "left": "left",
    "right outer": "right",
    "right": "right",
    "full outer": "full",
    "full": "full",
    "outer": "full",
}


def _parse_side(text: str, task: str, side: str) -> tuple[str, list[str]]:
    match = _SIDE_RE.match(text)
    if match is None:
        raise TaskConfigError(
            f"join task {task!r}: {side} must look like "
            f"'<input> by <key>[, <key>...]', got {text!r}"
        )
    name = match.group("name")
    if name.startswith("D."):
        name = name[2:]
    keys = [k.strip() for k in match.group("keys").split(",") if k.strip()]
    return name, keys


class JoinTask(Task):
    """The ``type: join`` task (exactly two inputs)."""

    type_name = "join"
    arity = (2, 2)

    def _validate_config(self) -> None:
        for side in ("left", "right"):
            if side not in self.config:
                raise TaskConfigError(
                    f"join task {self.name!r} needs {side!r}"
                )
        self._left_name, self._left_keys = _parse_side(
            str(self.config["left"]), self.name, "left"
        )
        self._right_name, self._right_keys = _parse_side(
            str(self.config["right"]), self.name, "right"
        )
        if len(self._left_keys) != len(self._right_keys):
            raise TaskConfigError(
                f"join task {self.name!r}: key arity differs "
                f"({self._left_keys} vs {self._right_keys})"
            )
        condition = str(
            self.config.get("join_condition", "inner")
        ).strip().lower()
        if condition not in _CONDITIONS:
            raise TaskConfigError(
                f"join task {self.name!r}: unknown join_condition "
                f"{condition!r}; known: {sorted(set(_CONDITIONS))}"
            )
        self._condition = _CONDITIONS[condition]
        project = self.config.get("project")
        if project is not None and not isinstance(project, dict):
            raise TaskConfigError(
                f"join task {self.name!r}: 'project' must be a mapping"
            )
        outputs = [str(out) for out in (project or {}).values()]
        if len(set(outputs)) != len(outputs):
            raise TaskConfigError(
                f"join task {self.name!r}: 'project' names an output "
                f"column twice in {outputs}"
            )

    @property
    def left_name(self) -> str:
        return self._left_name

    @property
    def right_name(self) -> str:
        return self._right_name

    def required_columns(self) -> set[str]:
        # The "primary" input for pushdown purposes is the left side.
        return set(self._left_keys)

    def _projection(self) -> list[tuple[str, str, str]] | None:
        """Parse ``project`` into ``(side, column, out_name)`` triples.

        Keys are prefixed with the input name (``players_tweets_date``);
        case-insensitive prefix match mirrors the paper's listings, which
        mix ``dim_teams_Team`` capitalisations.
        """
        project = self.config.get("project")
        if project is None:
            return None
        triples: list[tuple[str, str, str]] = []
        left_prefix = self._left_name.lower() + "_"
        right_prefix = self._right_name.lower() + "_"
        for key, out_name in project.items():
            lowered = str(key).lower()
            if lowered.startswith(left_prefix):
                triples.append(
                    ("left", str(key)[len(left_prefix):], str(out_name))
                )
            elif lowered.startswith(right_prefix):
                triples.append(
                    ("right", str(key)[len(right_prefix):], str(out_name))
                )
            else:
                raise TaskConfigError(
                    f"join task {self.name!r}: project key {key!r} does "
                    f"not start with {self._left_name!r} or "
                    f"{self._right_name!r}"
                )
        return triples

    def output_schema(self, input_schemas: Sequence[Schema]) -> Schema:
        left, right = input_schemas[0], input_schemas[1]
        left.require(self._left_keys, context=f"{self.name} (left)")
        right.require(self._right_keys, context=f"{self.name} (right)")
        projection = self._projection()
        if projection is not None:
            for side, column, _out in projection:
                schema = left if side == "left" else right
                schema.require([column], context=f"{self.name} project")
            return Schema(
                Column(out_name) for _side, _column, out_name in projection
            )
        columns = [Column(c.name) for c in left]
        taken = set(left.names)
        right_keys = set(self._right_keys)
        for column in right:
            if column.name in right_keys:
                continue
            name = column.name
            if name in taken:
                name = f"{name}_right"
            taken.add(name)
            columns.append(Column(name))
        return Schema(columns)

    def apply(self, inputs: Sequence[Table], context: TaskContext) -> Table:
        if len(inputs) != 2:
            raise TaskExecutionError(
                f"join task {self.name!r} needs exactly 2 inputs, "
                f"got {len(inputs)}"
            )
        left, right = self.ordered(inputs, context.input_names)
        return self.join(left, right, self.build_index(right), context)

    def ordered(self, inputs: Sequence[Any], names: Sequence[str]) -> tuple:
        """Order two per-input items as (left, right) by flow input name."""
        if len(names) == 2:
            lowered = [n.lower() for n in names]
            if (
                lowered[0] == self._right_name.lower()
                and lowered[1] == self._left_name.lower()
            ):
                return inputs[1], inputs[0]
        return inputs[0], inputs[1]

    def _keys(self, table: Table, side: str) -> Any:
        """The ``side`` key cells of ``table``, one per row: bare values
        for a single key, column-wise zipped tuples for a composite."""
        names = self._left_keys if side == "left" else self._right_keys
        table.schema.require(names, context=f"{self.name} ({side})")
        columns = [table.column(k) for k in names]
        return columns[0] if len(columns) == 1 else zip(*columns)

    def check_hashable(self, table: Table, side: str) -> None:
        """Raise a structured error naming the first ``side`` key column
        of ``table`` that holds an unhashable cell."""
        found = first_unhashable(
            table, self._left_keys if side == "left" else self._right_keys
        )
        if found is not None:
            raise TaskExecutionError(
                f"join task {self.name!r}: {side} column {found[0]!r} "
                f"holds the unhashable value {found[1]!r}; join keys "
                f"must be scalars"
            ) from None

    def build_index(self, right: Table) -> dict[Any, list[int]]:
        """Hash the build (right) side: key -> its rows, in row order.

        Keys holding a ``None`` never match anything, so they are left
        out here and the probe needs no null check of its own.
        """
        index: dict[Any, list[int]] = {}
        try:
            for j, key in enumerate(self._keys(right, "right")):
                index.setdefault(key, []).append(j)
        except TypeError:
            self.check_hashable(right, "right")
            raise
        if len(self._right_keys) == 1:
            index.pop(None, None)
            return index
        return {
            key: rows
            for key, rows in index.items()
            if not any(k is None for k in key)
        }

    def join(
        self,
        left: Table,
        right: Table,
        index: dict[Any, list[int]],
        context: TaskContext,
    ) -> Table:
        """Probe ``index`` (built over ``right``) with ``left``'s rows.

        Output order: left row order, each row's matches in build-row
        order, then (right/full outer) the unmatched right rows.  The
        probe emits two row-index vectors, ``-1`` marking the missing
        side of an outer row.
        """
        # Per left row its build rows (an unmatched row kept by a left/
        # full outer join stands for one missing build row), flattened
        # into the two vectors by repeat-index — no per-pair Python.
        miss = [-1] if self._condition in ("left", "full") else []
        try:
            hits = list(map(index.get, self._keys(left, "left"), repeat(miss)))
        except TypeError:
            self.check_hashable(left, "left")
            raise
        right_rows = list(chain.from_iterable(hits))
        left_rows = repeat_indices(hits)
        unmatched = 0
        if self._condition in ("right", "full"):
            hit = set(right_rows)
            tail = [j for j in range(right.num_rows) if j not in hit]
            unmatched = len(tail)
            left_rows += [-1] * unmatched
            right_rows += tail
        context.bump(f"task.{self.name}.pairs", len(left_rows))
        return self._materialize(
            left, right, left_rows, right_rows, unmatched
        )

    def _materialize(
        self,
        left: Table,
        right: Table,
        left_rows: list[int],
        right_rows: list[int],
        unmatched: int,
    ) -> Table:
        """One gather per output column, each through the column's own
        encoding (as ``Table.take``); a side with missing slots takes
        the null-aware gather."""
        schema = self.output_schema([left.schema, right.schema])
        sides = {
            "left": (left, left_rows, unmatched > 0),
            "right": (right, right_rows, -1 in right_rows),
        }
        projection = self._projection()
        if projection is None:
            # Default projection: left columns, then right non-key columns.
            projection = [("left", c, c) for c in left.schema.names] + [
                ("right", c, c)
                for c in right.schema.names
                if c not in self._right_keys
            ]
            coalesce = dict(zip(self._left_keys, self._right_keys))
        else:
            coalesce = {}
        columns: list[Any] = []
        for side, column, _out in projection:
            table, rows, nullable = sides[side]
            if unmatched and side == "left" and column in coalesce:
                # An unmatched right row (they trail the output) has no
                # left row to take its key from: it carries its own.
                cells, keys = left.column(column), right.column(coalesce[column])
                columns.append(
                    [cells[i] for i in left_rows[:-unmatched]]
                    + [keys[j] for j in right_rows[-unmatched:]]
                )
            else:
                columns.append((table, column, rows, nullable))
        return Table.from_gathers(schema, columns)
