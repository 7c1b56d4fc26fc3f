"""Incremental view maintenance for the builtin operator vocabulary.

A dashboard refresh hands each flow a :class:`Delta` describing how its
input changed — ``"none"``, ``"append"`` (new trailing rows only), or
``"full"`` (replaced) — and :class:`FlowDeltaState` pushes that delta
through the flow's task chain using per-task incremental states instead
of recomputing from scratch, so a re-run costs O(changed rows) plus
O(groups) for aggregations.

The non-negotiable contract is **byte-identity with full recompute**:
every state's output must equal what the task chain would produce if
re-applied to the whole (base + delta) input.  The arguments, per
operator family:

* *Row-local tasks* (``partition_local()`` — filter/map/project/rename/
  add_column/cast/constant-fillna, and a ``parallel`` task whose
  sub-tasks are all row-local) transform rows independently, so
  applying them to just the delta rows and appending equals applying
  them to the whole input.  Every map operator qualifies, user-
  registered ones included: ``MapTask.partition_local()`` is always
  true.
* *Limit* only needs a count of rows already emitted.
* *Sort* and *top-n* (grouped or not) keep their output and re-apply
  the task to ``output ++ delta``.  Stability makes that exact:
  ``stable_sort(stable_sort(base) ++ delta)`` equals
  ``stable_sort(base ++ delta)`` because tied base rows keep their
  original relative order inside the sorted base, and base rows
  precede delta rows in both arrangements; a per-group top-n keeps
  first-seen group order and drops only rows that can never rank
  again.  Both need the order of two rows to depend on those rows
  alone, which :func:`~repro.data.kernels.order_key` guarantees (the
  order table in ``docs/flowfile-reference.md``).
* *Group-by* keeps one live :class:`~repro.tasks.groupby.Aggregate`
  per (group, spec) and feeds delta values in row order.  The builtin
  aggregates are left folds from the same identity the bulk fast paths
  use (``sum()`` is a left fold from 0; min/max keep the first minimal
  element), so merged partials are value-identical to a bulk pass, and
  first-seen group order over base-then-delta matches a full pass over
  the concatenated input.  Count-only group-bys keep a ``Counter``.

* *Join* at the head of a two-input flow is maintained on its probe
  (left) side only — see :class:`_JoinState`.

Anything outside this vocabulary — unions and other multi-input flows,
widget-sourced filters (selection state may have changed since the base
rows were filtered), UDFs, user-registered aggregates — has no state,
and :func:`fallback_reason` says why the flow is full-recompute-only.
Falling back is always safe; the states are a fast path, never a
correctness requirement.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Any, Callable, Sequence

from repro.data import Table
from repro.tasks.base import Task, TaskContext
from repro.tasks.cleansing import CastTask, FillNaTask
from repro.tasks.filter import FilterTask
from repro.tasks.groupby import (
    GroupByTask,
    _AGGREGATE_FACTORIES,
    _explode,
    _is_builtin,
    _out_field,
    _truthy,
)
from repro.tasks.join import JoinTask
from repro.tasks.map_ops import MapTask
from repro.tasks.misc import (
    AddColumnTask,
    LimitTask,
    ProjectTask,
    RenameTask,
    SortTask,
)
from repro.tasks.parallel import ParallelTask
from repro.tasks.topn import TopNTask

#: Tasks whose ``partition_local()`` contract makes them row-local:
#: applying them to any subset of rows equals slicing their full output.
_ROW_LOCAL_TYPES = (
    FilterTask,
    MapTask,
    ProjectTask,
    RenameTask,
    AddColumnTask,
    CastTask,
    FillNaTask,
)


@dataclass
class Delta:
    """How a table changed since the previous refresh.

    ``kind`` is ``"none"`` (unchanged, ``rows`` is None), ``"append"``
    (``rows`` holds only the new trailing rows), or ``"full"``
    (``rows`` is the complete replacement).
    """

    kind: str
    rows: Table | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("none", "append", "full"):
            raise ValueError(f"invalid delta kind {self.kind!r}")
        if (self.rows is None) != (self.kind == "none"):
            raise ValueError(
                "Delta rows must be set exactly when kind != 'none'"
            )


class _TaskState:
    """One task's incremental state: feed a delta, get a delta out."""

    def __init__(self, task: Task):
        self.task = task

    def step(self, delta: Delta, context: TaskContext) -> Delta:
        raise NotImplementedError


class _RowLocalState(_TaskState):
    """Stateless pass-through: apply the task to just the delta rows."""

    def step(self, delta: Delta, context: TaskContext) -> Delta:
        return Delta(
            delta.kind, self.task.apply([delta.rows], context)
        )


class _LimitState(_TaskState):
    """Counts rows already emitted; appends pass only the remainder."""

    def __init__(self, task: LimitTask):
        super().__init__(task)
        self._emitted = 0

    def step(self, delta: Delta, context: TaskContext) -> Delta:
        if delta.kind == "full":
            out = self.task.apply([delta.rows], context)
            self._emitted = out.num_rows
            return Delta("full", out)
        remaining = self.task._limit - self._emitted
        if remaining <= 0:
            return Delta("none")
        out = delta.rows.head(remaining)
        if out.num_rows == 0:
            return Delta("none")
        self._emitted += out.num_rows
        return Delta("append", out)


class _KeepOutputState(_TaskState):
    """Sort and top-n: keep the output, re-apply the task to output ++ Δ.

    Exact by stability and the fixed order of
    :func:`~repro.data.kernels.order_key` (see the module docstring): a
    tied base row keeps its relative order inside the output and
    precedes every delta row, in both arrangements, and a row the
    output dropped ranks below the kept ones whatever Δ brings.  For a
    sort, timsort finds the output as one long run, so the merge costs
    O(n + k log k); a top-n keeps at most ``limit`` rows per group.
    """

    def __init__(self, task: Task):
        super().__init__(task)
        self._output: Table | None = None

    def step(self, delta: Delta, context: TaskContext) -> Delta:
        if delta.kind == "full" or self._output is None:
            source = delta.rows
        else:
            source = Table.concat_all([self._output, delta.rows])
        self._output = self.task.apply([source], context)
        return Delta("full", self._output)


class _GroupByState(_TaskState):
    """Live aggregates per (group, spec), in first-seen group order.

    A group-by of nothing but the built-in ``count`` keeps one
    :class:`~collections.Counter` of keys instead — the task's own
    count kernel, with its key equality and first-seen order — so a
    ``full`` delta costs one C-speed pass and no row is folded twice.
    """

    def __init__(self, task: GroupByTask):
        super().__init__(task)
        self._specs = task._aggregate_specs()
        self._out_fields = [_out_field(s) for s in self._specs]
        self._counts_only = {
            str(s["operator"]).lower() for s in self._specs
        } == {"count"}
        self._reset()

    def _reset(self) -> None:
        self._keys: list[Any] = []
        self._index: dict[Any, int] = {}
        # _aggs[spec_position][group_position] — parallel to _keys.
        self._aggs: list[list[Any]] = [[] for _ in self._specs]
        self._counts: Counter = Counter()
        self._input_schema = None
        #: rows of the last ``full`` delta, not yet folded into _aggs
        self._pending: Table | None = None

    def step(self, delta: Delta, context: TaskContext) -> Delta:
        if delta.kind == "full":
            self._reset()
            if not self._counts_only:
                # A replaced input is answered by the task's bulk
                # kernels; the row-at-a-time live aggregates are only
                # worth building if an append ever follows.
                self._pending = delta.rows
                return Delta("full", self.task.apply([delta.rows], context))
        elif self._pending is not None:
            self._ingest(self._pending)
            self._pending = None
        self._ingest(delta.rows)
        return Delta("full", self._emit(context))

    def _ingest(self, rows: Table) -> None:
        task = self.task
        group_columns = task.group_columns
        rows.schema.require(group_columns, context=task.name)
        rows = _explode(rows, group_columns, task.required_columns())
        self._input_schema = rows.schema
        group_cols = [rows.column(c) for c in group_columns]
        single = len(group_columns) == 1
        if self._counts_only:
            try:
                self._counts.update(
                    group_cols[0] if single else zip(*group_cols)
                )
            except TypeError:
                task.check_hashable(rows)
                raise
            return
        value_cols = [
            rows.column(str(s["apply_on"])) if "apply_on" in s else None
            for s in self._specs
        ]
        factories = [
            _AGGREGATE_FACTORIES[str(s["operator"]).lower()]
            for s in self._specs
        ]
        index = self._index
        try:
            for i in range(rows.num_rows):
                key = (
                    group_cols[0][i]
                    if single
                    else tuple(col[i] for col in group_cols)
                )
                at = index.get(key)
                if at is None:
                    at = len(self._keys)
                    index[key] = at
                    self._keys.append(key)
                    for aggs, factory in zip(self._aggs, factories):
                        aggs.append(factory())
                for aggs, col in zip(self._aggs, value_cols):
                    aggs[at].add(col[i] if col is not None else None)
        except TypeError:
            task.check_hashable(rows)  # names the column when that is why
            raise

    def _emit(self, context: TaskContext) -> Table:
        task = self.task
        group_columns = task.group_columns
        if self._counts_only:
            keys = list(self._counts)
            results = [list(self._counts.values()) for _ in self._specs]
        else:
            keys = self._keys
            results = [[agg.result() for agg in aggs] for aggs in self._aggs]
        data: dict[str, list[Any]] = dict(zip(self._out_fields, results))
        if len(group_columns) == 1:
            data[group_columns[0]] = list(keys)
        else:
            for j, column in enumerate(group_columns):
                data[column] = [key[j] for key in keys]
        schema = task.output_schema([self._input_schema])
        result = Table(schema, {n: data[n] for n in schema.names})
        if _truthy(task.config.get("orderby_aggregates")):
            result = result.sorted_by(
                [self._out_fields[0]], descending=[True]
            )
        context.bump(f"task.{task.name}.groups", len(keys))
        return result


class _JoinState:
    """Head of a two-input flow: a hash join maintained on its probe side.

    ``join(L ++ Δ, R) = join(L, R) ++ join(Δ, R)`` for ``inner`` and
    ``left outer`` while the build side ``R`` stands still — each left
    row's output depends on that row and ``R`` alone — so a probe-side
    append probes only Δ against the kept build table and index.  Any
    other change re-primes with one full join over ``inputs()``;
    :attr:`fallback` says why, unless the probe side was replaced
    anyway.
    """

    def __init__(self, task: JoinTask, input_names: Sequence[str]):
        self.task = task
        self._names = list(input_names)
        self._build: Table | None = None
        self._index: dict[Any, list[int]] = {}
        self.fallback: str | None = None

    def step(
        self,
        deltas: Sequence[Delta],
        context: TaskContext,
        inputs: Callable[[], Sequence[Table]],
    ) -> Delta:
        task = self.task
        context.input_names = list(self._names)
        left, right = task.ordered(deltas, self._names)
        maintainable = task._condition in ("inner", "left")
        self.fallback = None
        if left.kind == "none" and right.kind == "none":
            return Delta("none")
        if left.kind == "append" and right.kind == "none" and maintainable:
            return Delta(
                "append",
                task.join(left.rows, self._build, self._index, context),
            )
        if left.kind != "full":
            self.fallback = (
                "join_build_side_changed" if maintainable else "outer_join"
            )
        probe, self._build = task.ordered(inputs(), self._names)
        self._index = task.build_index(self._build)
        return Delta(
            "full", task.join(probe, self._build, self._index, context)
        )


def _state_for(task: Task) -> _TaskState | None:
    """The incremental state for one task, or None when unsupported."""
    if isinstance(task, GroupByTask):
        specs = task._aggregate_specs()
        if all(
            _is_builtin(str(s["operator"]).lower()) for s in specs
        ):
            return _GroupByState(task)
        return None
    if isinstance(task, LimitTask):
        return _LimitState(task)
    if isinstance(task, (SortTask, TopNTask)):
        return _KeepOutputState(task)
    if isinstance(task, FilterTask) and task.widget_source is not None:
        return None
    if isinstance(task, ParallelTask):
        row_local = all(
            isinstance(_state_for(sub), _RowLocalState)
            for sub in task._sub_tasks()
        )
        return _RowLocalState(task) if row_local else None
    if isinstance(task, _ROW_LOCAL_TYPES) and task.partition_local():
        return _RowLocalState(task)
    return None


def fallback_reason(tasks: Sequence[Task], num_inputs: int = 1) -> str | None:
    """Why this flow cannot be maintained incrementally (None: it can).

    A single-input chain of supported tasks can, and so can a two-input
    flow whose head is a join and whose remaining chain is supported.
    """
    if num_inputs == 2 and tasks and isinstance(tasks[0], JoinTask):
        tasks = tasks[1:]
    elif num_inputs != 1:
        return "multi_input"
    if all(_state_for(task) is not None for task in tasks):
        return None
    return "unsupported_task"


def flow_supports_delta(tasks: Sequence[Task], num_inputs: int = 1) -> bool:
    """Can this task chain be maintained incrementally?"""
    return fallback_reason(tasks, num_inputs) is None


class FlowDeltaState:
    """Incremental execution state for one flow.

    Built once per flow after a full run; each refresh cycle calls
    :meth:`advance` with the source's delta and gets back the flow's
    complete current output plus whether it changed.  The first call
    must carry a ``"full"`` delta (the bootstrap), which primes every
    stateful task.  A two-input flow headed by a join names its inputs
    (``input_names``, declared order) and advances on one delta each.
    """

    def __init__(self, tasks: Sequence[Task], input_names: Sequence[str] = ()):
        reason = fallback_reason(tasks, len(input_names) or 1)
        if reason is not None:
            raise ValueError(
                f"flow is not incrementally maintainable ({reason}); "
                f"tasks: {[task.name for task in tasks]}"
            )
        self._join: _JoinState | None = None
        if len(input_names) == 2:
            self._join = _JoinState(tasks[0], input_names)
            tasks = tasks[1:]
        self._states = [_state_for(task) for task in tasks]
        self._output: Table | None = None

    @property
    def output(self) -> Table | None:
        """The flow's full current output (None before the bootstrap)."""
        return self._output

    @property
    def fallback(self) -> str | None:
        """Why the last :meth:`advance` had to re-run its join in full
        although the probe side was not replaced (None: it did not)."""
        return self._join.fallback if self._join else None

    def advance(
        self,
        delta: Delta | Sequence[Delta],
        context: TaskContext,
        inputs: Callable[[], Sequence[Table]] | None = None,
    ) -> tuple[Table, Delta]:
        """Push one source delta through the chain.

        Returns ``(full_output_table, output_delta)`` — the flow's
        complete current output plus how it changed, so a downstream
        flow consuming this output can advance from the same delta.
        A join-headed flow takes one delta per input and ``inputs``, a
        callable returning its complete current input tables: the join
        keeps no copy of its probe side and calls it when it re-primes.
        """
        deltas = [delta] if isinstance(delta, Delta) else list(delta)
        if self._output is None and any(d.kind != "full" for d in deltas):
            raise ValueError(
                "FlowDeltaState must be bootstrapped with a 'full' delta"
            )
        if self._join is not None:
            delta = self._join.step(deltas, context, inputs)
        else:
            (delta,) = deltas
        for state in self._states:
            if delta.kind == "none" or (
                delta.kind == "append" and delta.rows.num_rows == 0
            ):
                delta = Delta("none")
                break
            delta = state.step(delta, context)
        if delta.kind == "none":
            if self._output is None:
                raise ValueError(
                    "a 'full' bootstrap delta produced no output"
                )
            return self._output, Delta("none")
        if delta.kind == "append":
            if delta.rows.num_rows == 0:
                return self._output, Delta("none")
            self._output = (
                delta.rows
                if self._output is None
                else Table.concat_all([self._output, delta.rows])
            )
        else:
            self._output = delta.rows
        return self._output, delta
