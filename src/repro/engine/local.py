"""Single-process plan executor.

Walks a :class:`~repro.engine.plan.LogicalPlan` in topological order,
resolving load nodes through a data resolver (data-object loader and/or
shared catalog) and applying task nodes.  This is the engine behind
dashboard saves during development — fast feedback is what §4.5.3 item 4
is about — while :mod:`repro.engine.distributed` models the cluster path.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable

from repro.data import Table
from repro.engine.plan import LogicalPlan, PlanNode
from repro.errors import ExecutionError, ShareInsightsError
from repro.resilience.deadline import check_deadline
from repro.observability import (
    MetricsRegistry,
    Tracer,
    record_run,
    record_stage,
)
from repro.tasks.base import TaskContext

#: resolves a source data-object name to its table
DataResolver = Callable[[str], Table]


@dataclass
class NodeStats:
    node_id: str
    label: str
    rows_out: int
    seconds: float
    #: rows_out × columns: the "cell work" a node's output represents
    cells_out: int = 0


@dataclass
class ExecutionStats:
    """Per-run execution telemetry (surfaced in dashboards and benches)."""

    node_stats: list[NodeStats] = field(default_factory=list)
    seconds: float = 0.0
    rows_loaded: int = 0
    rows_produced: int = 0

    def by_label(self) -> dict[str, int]:
        return {s.label: s.rows_out for s in self.node_stats}


@dataclass
class ExecutionResult:
    """Materialized data objects plus telemetry."""

    tables: dict[str, Table]
    stats: ExecutionStats
    context: TaskContext

    def table(self, name: str) -> Table:
        table = self.tables.get(name)
        if table is None:
            raise ExecutionError(
                f"no materialized data object {name!r}; "
                f"have {sorted(self.tables)}"
            )
        return table


class LocalExecutor:
    """Executes logical plans in-process.

    ``tracer``/``metrics`` plug the run into the observability layer:
    one ``engine.run`` span with a ``stage`` child per plan node, and
    per-stage duration/row metrics under ``engine="local"``.
    """

    def __init__(
        self,
        resolver: DataResolver,
        tracer: Tracer | None = None,
        metrics: MetricsRegistry | None = None,
    ):
        self._resolver = resolver
        self._tracer = tracer or Tracer()
        self._metrics = metrics or MetricsRegistry()

    def run(
        self, plan: LogicalPlan, context: TaskContext | None = None
    ) -> ExecutionResult:
        context = context or TaskContext()
        started = time.perf_counter()
        tables: dict[str, Table] = {}  # node id -> table
        # Reference counts: how many not-yet-executed consumers still
        # need each node's output.  Once a node's last consumer runs,
        # its intermediate table is dropped so peak memory tracks the
        # plan's live frontier instead of the whole run's history
        # (materialized flow outputs are kept separately).
        pending_reads: dict[str, int] = {
            node.id: len(plan.consumers(node.id)) for node in plan.nodes.values()
        }
        materialized: dict[str, Table] = {}
        stats = ExecutionStats()
        produced_rows = 0
        with self._tracer.span(
            "engine.run", engine="local"
        ) as root:
            for node in plan.topological_order():
                # Stage-boundary deadline poll: an expired request stops
                # here, before starting more work; nothing partial is
                # published because materialized tables only leave this
                # method on success.
                check_deadline(f"stage {node.label()!r}")
                node_started = time.perf_counter()
                rows_in = sum(
                    tables[input_id].num_rows
                    for input_id in node.inputs
                    if input_id in tables
                )
                with self._tracer.span(
                    "stage", task=node.label(), kind=node.kind
                ) as span:
                    table = self._execute_node(node, tables, context)
                    span.set(
                        rows_in=rows_in, rows_out=table.num_rows
                    )
                tables[node.id] = table
                for input_id in set(node.inputs):
                    remaining = pending_reads.get(input_id, 0) - 1
                    pending_reads[input_id] = remaining
                    if remaining <= 0:
                        tables.pop(input_id, None)
                if pending_reads.get(node.id, 0) <= 0:
                    tables.pop(node.id, None)
                if node.materializes:
                    materialized[node.materializes] = table
                    if node.kind == "task":
                        produced_rows += table.num_rows
                elapsed = time.perf_counter() - node_started
                stats.node_stats.append(
                    NodeStats(
                        node_id=node.id,
                        label=node.label(),
                        rows_out=table.num_rows,
                        seconds=elapsed,
                        cells_out=table.num_rows * table.num_columns,
                    )
                )
                record_stage(
                    self._metrics,
                    "local",
                    node.kind,
                    span.duration,
                    rows_in,
                    table.num_rows,
                )
                if node.kind == "load":
                    stats.rows_loaded += table.num_rows
            root.set(rows_produced=produced_rows)
        stats.seconds = time.perf_counter() - started
        stats.rows_produced = produced_rows
        record_run(self._metrics, "local", stats.seconds)
        return ExecutionResult(
            tables=materialized, stats=stats, context=context
        )

    def _execute_node(
        self,
        node: PlanNode,
        tables: dict[str, Table],
        context: TaskContext,
    ) -> Table:
        if node.kind == "load":
            assert node.load_name is not None
            try:
                return self._resolver(node.load_name)
            except ShareInsightsError:
                raise
            except Exception as exc:
                raise ExecutionError(
                    f"failed to load data object {node.load_name!r}: {exc}"
                ) from exc
        assert node.task is not None
        inputs = []
        for input_id in node.inputs:
            if input_id not in tables:
                raise ExecutionError(
                    f"node {node.id} input {input_id} not yet executed"
                )
            inputs.append(tables[input_id])
        # Name-aware tasks (join) use the flow's declared input names
        # to order their left/right sides.
        context.input_names = list(node.input_names)
        try:
            return node.task.apply(inputs, context)
        except ShareInsightsError:
            raise
        except Exception as exc:
            raise ExecutionError(
                f"task {node.task.name!r} failed: {exc}"
            ) from exc
