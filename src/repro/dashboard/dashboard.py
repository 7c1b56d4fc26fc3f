"""The dashboard runtime.

Lifecycle (mirroring the generated single-page app of paper §4.4):

1. ``run_flows()`` executes the batch half of the compiled flow file on
   an engine, materializing every flow output; endpoint objects become
   REST-visible payloads and ``publish:`` objects go to the shared
   catalog.
2. Widgets are instantiated from the registry; each non-static widget
   gets a :class:`~repro.engine.datacube.DataCube` holding its *server-
   side* pipeline output (the §6 transfer-minimized payload).
   Tables, endpoint versions and cubes are built off to the side and
   published together as one :class:`EndpointSnapshot`, installed with
   one reference swap once everything succeeded (``refresh_flows()``
   publishes the same way).
3. ``select()`` updates a widget's selection; dependent widgets re-render
   by re-running their client-side pipelines in their cubes — the §3.5.1
   interaction model, with no event handlers anywhere.
4. ``render()`` lays the widget views out on the 12-column grid.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Any, Mapping

from repro.collab.catalog import SharedDataCatalog
from repro.compiler.compiler import CompiledFlowFile
from repro.connectors.loader import DataObjectLoader
from repro.dashboard.environment import EnvironmentProfile
from repro.data import Schema, Table
from repro.engine.datacube import DataCube
from repro.engine.distributed import DistributedExecutor
from repro.engine.local import LocalExecutor
from repro.errors import ExecutionError, WidgetError
from repro.observability import Observability
from repro.observability.instruments import CUBE_QUERIES
from repro.tasks.base import TaskContext, WidgetSelection
from repro.widgets.base import Widget, WidgetView
from repro.widgets.charts import Slider
from repro.widgets.layout import GridRenderer, LayoutWidget, TabLayout
from repro.widgets.registry import WidgetRegistry, default_widget_registry


#: one serial per snapshot, across every dashboard: a larger serial is
#: always a later publication
_SERIALS = itertools.count()


@dataclass(frozen=True)
class EndpointSnapshot:
    """What one run or refresh published, installed with one swap.

    Every materialized table, the endpoint payloads (capped per the
    environment profile), per-endpoint versions and widget cubes, all
    built from the same tables and never mutated after install.  Runs
    and refreshes replace the whole snapshot only once they succeeded.
    """

    tables: Mapping[str, Table] = field(default_factory=dict)
    endpoints: Mapping[str, Table] = field(default_factory=dict)
    versions: Mapping[str, int] = field(default_factory=dict)
    cubes: Mapping[str, DataCube] = field(default_factory=dict)
    serial: int = field(default_factory=lambda: next(_SERIALS))

    def version(self, name: str) -> int:
        """The endpoint's version (0 before any run)."""
        return self.versions.get(name, 0)


@dataclass
class DashboardView:
    """A fully rendered dashboard."""

    name: str
    html: str
    text: str
    widget_views: dict[str, WidgetView] = field(default_factory=dict)


@dataclass
class RunReport:
    """Telemetry from one ``run_flows`` call."""

    engine: str
    seconds: float
    rows_loaded: int = 0
    rows_produced: int = 0
    shuffled_records: int = 0
    published: list[str] = field(default_factory=list)
    endpoints: list[str] = field(default_factory=list)
    #: flow outputs reused from a previous run (incremental mode)
    flows_skipped: list[str] = field(default_factory=list)
    #: resilience telemetry (distributed engine only)
    attempts: int = 0
    retried_partitions: int = 0
    speculative_wins: int = 0
    recovered_stages: list[str] = field(default_factory=list)
    #: tracing id of this run; resolvable via ``GET /trace/<run_id>``
    trace_id: str | None = None


@dataclass
class RefreshReport:
    """Telemetry from one ``refresh_flows`` call."""

    mode: str  # "incremental" or "full"
    seconds: float = 0.0
    #: new source rows ingested via delta cursors this cycle
    delta_rows: int = 0
    #: flows advanced through incremental view maintenance
    flows_incremental: list[str] = field(default_factory=list)
    #: flows recomputed from scratch, and why each one was: one of
    #: join_build_side_changed, outer_join, multi_input,
    #: unsupported_task, upstream_recompute
    flows_full: list[str] = field(default_factory=list)
    fallback_reasons: dict[str, str] = field(default_factory=dict)
    #: sources re-read whole instead of by delta, and why each one was:
    #: first_read, no_delta_format, torn_tail, shrunk, rewritten,
    #: prefix_changed, tail_unparseable
    source_reloads: dict[str, str] = field(default_factory=dict)
    #: flows whose inputs were unchanged (no work at all)
    flows_skipped: list[str] = field(default_factory=list)
    #: endpoints whose tables changed (version bumped)
    endpoints_changed: list[str] = field(default_factory=list)
    #: current endpoint versions after this refresh
    versions: dict[str, int] = field(default_factory=dict)
    trace_id: str | None = None


class Dashboard:
    """A live dashboard built from a compiled flow file."""

    def __init__(
        self,
        compiled: CompiledFlowFile,
        loader: DataObjectLoader | None = None,
        catalog: SharedDataCatalog | None = None,
        widget_registry: WidgetRegistry | None = None,
        environment: EnvironmentProfile | None = None,
        data_dir: str | Path | None = None,
        dictionaries: Mapping[str, Mapping[str, str]] | None = None,
        inline_tables: Mapping[str, Table] | None = None,
        observability: Observability | None = None,
    ):
        self.observability = observability or Observability()
        self.compiled = compiled
        self.flow_file = compiled.flow_file
        self.name = compiled.flow_file.name
        self.loader = loader or DataObjectLoader()
        self.catalog = catalog
        self.environment = environment or EnvironmentProfile.laptop()
        self._widget_registry = widget_registry or default_widget_registry()
        self._data_dir = Path(data_dir) if data_dir else None
        self._dictionaries = dict(dictionaries or {})
        #: programmatically supplied tables, taking priority over loads
        self._inline_tables = dict(inline_tables or {})
        #: the published tables, versions and cubes (see snapshot())
        self._snapshot = EndpointSnapshot()
        self._widgets: dict[str, Widget] = {}
        self.last_run: RunReport | None = None
        self._last_node_stats: list = []
        self._last_stages: list = []
        #: CSS uploaded through the extension services (§4.2 "Styling")
        self.stylesheet: str = ""
        #: outputs adopted from a previous version (incremental runs)
        self._fresh_outputs: set[str] = set()
        # -- refresh state (see refresh_flows) --------------------------
        #: per-source delta-loader state (cursors + captured preambles)
        self._delta_states: dict[str, dict | None] = {}
        #: maintained full source tables, fed by delta ingestion
        self._source_tables: dict[str, Table] = {}
        #: (object identity, row count) watermarks for inline/catalog
        #: tables, to detect in-place growth vs replacement
        self._source_watermarks: dict[str, tuple[int, int]] = {}
        #: per-flow incremental maintenance state
        self._flow_states: dict[str, Any] = {}
        self.last_refresh: RefreshReport | None = None
        self._build_widgets()

    # ------------------------------------------------------------------
    # flow execution
    # ------------------------------------------------------------------
    def run_flows(
        self,
        engine: str | None = None,
        incremental: bool = False,
        fault_profile: str | None = None,
        parallelism: int = 1,
        executor: str = "threads",
        pool: Any = None,
    ) -> RunReport:
        """Execute the batch half; returns the run report.

        ``engine`` is ``"local"``, ``"distributed"``, or ``None`` to let
        the environment profile decide from the input size (§4.1).

        ``incremental=True`` skips flows whose results were adopted from
        a previous dashboard version (see :meth:`adopt_materialized`) —
        only the stale part of the DAG re-runs.

        ``fault_profile`` names a seeded fault-injection profile (see
        :meth:`repro.resilience.FaultInjector.from_profile`) and forces
        the distributed engine, which absorbs the injected faults and
        reports the recovery cost in the run report.

        ``parallelism`` sizes the distributed engine's worker pool and
        the source-prefetch pool (independent data objects load
        concurrently before the engine starts); ``executor`` picks the
        pool backend — ``"threads"`` (default) or ``"processes"`` for
        CPU-bound work (see ``docs/parallelism.md``).  Results,
        telemetry and traces are identical at every setting of both;
        only wall time changes.

        ``pool`` lends a warm
        :class:`~repro.engine.scheduler.ProcessPool` to both the
        source prefetch and the distributed engine (``processes``
        executor only; ignored otherwise) — outputs stay identical,
        stages just skip the per-stage fork cost.
        """
        context = self._task_context()
        plan = self.compiled.plan
        skipped: list[str] = []
        if incremental and self._fresh_outputs:
            plan, skipped = self._incremental_plan()
        if fault_profile and engine is None:
            engine = "distributed"
        if fault_profile and engine == "local":
            raise ExecutionError(
                "fault profiles exercise the distributed engine; "
                "run with engine='distributed' (or let it default)"
            )
        if engine is None:
            estimated = sum(
                t.num_rows for t in self._inline_tables.values()
            )
            engine = self.environment.choose_engine(estimated)
        obs = self.observability
        with obs.tracer.span(
            "dashboard.run", dashboard=self.name, engine=engine
        ) as root:
            tables = dict(self._snapshot.tables)
            self._prefetch_sources(plan, tables, parallelism, executor, pool)
            resolve = partial(self._resolve_source, tables=tables)
            if engine == "local":
                result = LocalExecutor(
                    resolve, tracer=obs.tracer, metrics=obs.metrics
                ).run(plan, context)
                report = RunReport(
                    engine=engine,
                    seconds=result.stats.seconds,
                    rows_loaded=result.stats.rows_loaded,
                    rows_produced=result.stats.rows_produced,
                )
                node_stats, stages = list(result.stats.node_stats), []
            elif engine == "distributed":
                from repro.resilience import FaultInjector

                injector = FaultInjector.from_profile(fault_profile)
                result = DistributedExecutor(
                    resolve,
                    fault_injector=injector,
                    tracer=obs.tracer,
                    metrics=obs.metrics,
                    parallelism=parallelism,
                    executor=executor,
                    pool=pool,
                ).run(plan, context)
                report = RunReport(
                    engine=engine,
                    seconds=result.seconds,
                    rows_produced=result.rows_produced,
                    shuffled_records=result.total_shuffled_records,
                    attempts=result.attempts,
                    retried_partitions=result.retried_partitions,
                    speculative_wins=result.speculative_wins,
                    recovered_stages=list(result.recovered_stages),
                )
                node_stats, stages = [], list(result.stages)
            else:
                raise ExecutionError(f"unknown engine {engine!r}")
            tables.update(result.tables)
            report.flows_skipped = skipped
            report.endpoints = self.compiled.endpoint_names
            with obs.tracer.span("publish"):
                report.published = self._publish(tables)
            with obs.tracer.span("cubes.rebuild"):
                cubes = self._build_cubes(tables)
            # A full run refreshes everything: nothing stays "fresh".
            self._fresh_outputs = set(skipped)
            self._last_node_stats, self._last_stages = node_stats, stages
            # Refresh state is anchored to the data a run loaded, so
            # cursors and per-flow states reset (the next refresh cycle
            # re-bootstraps them) and every endpoint version bumps.
            self._reset_refresh_state()
            self._install(
                tables,
                {
                    endpoint: self._snapshot.version(endpoint) + 1
                    for endpoint in self.compiled.endpoint_names
                },
                cubes,
            )
            report.trace_id = root.trace_id
        self.last_run = report
        return report

    # ------------------------------------------------------------------
    # delta refresh (incremental view maintenance)
    # ------------------------------------------------------------------
    def snapshot(self) -> EndpointSnapshot:
        """The installed snapshot; take it once per read."""
        return self._snapshot

    def _install(
        self,
        tables: dict[str, Table],
        versions: Mapping[str, int],
        cubes: Mapping[str, DataCube],
    ) -> None:
        limit = self.environment.max_payload_rows
        endpoints = {
            name: table.head(limit) if table.num_rows > limit else table
            for name in self.compiled.endpoint_names
            if (table := tables.get(name)) is not None
        }
        self._snapshot = EndpointSnapshot(tables, endpoints, versions, cubes)

    def endpoint_version(self, name: str) -> int:
        """Monotonic version of an endpoint's table (0 before any run).

        Bumped whenever the table's content may have changed — on every
        full run, and on refresh cycles whose deltas reached it.  The
        server surfaces this as a response header.
        """
        return self._snapshot.version(name)

    def _reset_refresh_state(self) -> None:
        self._delta_states.clear()
        self._source_tables.clear()
        self._source_watermarks.clear()
        self._flow_states.clear()

    def refresh_flows(self, incremental: bool = True) -> RefreshReport:
        """Re-run the flows at O(changed rows) cost.

        The delta pipeline, per cycle:

        1. every external source reports how it changed — file-backed
           sources via :meth:`DataObjectLoader.load_delta` cursors,
           inline/catalog tables via identity + row-count watermarks;
        2. flows walk in DAG order: a flow whose inputs are unchanged is
           skipped outright; a flow whose whole task chain is
           incrementally maintainable (single-input, or a join of two
           inputs at its head; see :mod:`repro.engine.incremental`)
           advances its
           :class:`~repro.engine.incremental.FlowDeltaState`; anything
           else — unions, UDFs, widget-sourced filters — falls back to
           a full recompute through the real engine (pruned to just
           those flows, so the fallback never spreads wider than it
           must), and ``fallback_reasons`` says why;
        3. endpoints whose tables changed get a version bump, changed
           outputs republish, and widget cubes rebuild — all into a new
           :class:`EndpointSnapshot`, installed in one swap at the end.

        The first refresh after a full run is a **bootstrap**: delta
        cursors don't exist yet, so sources reload fully and per-flow
        states prime from complete inputs.  A refresh that raises
        installs nothing and drops the cursors and flow states it had
        advanced, so the next cycle bootstraps again instead of skipping
        rows no endpoint shows.  Outputs are byte-identical to a full
        recompute in every mode — incremental maintenance is a fast
        path, never a semantics change.

        ``incremental=False`` drops the cursors and flow states first,
        so the cycle is a bootstrap: every source is re-read whole and
        every flow recomputed.
        """
        from time import perf_counter

        obs = self.observability
        start = perf_counter()
        report = RefreshReport(
            mode="incremental" if incremental else "full"
        )
        with obs.tracer.span(
            "dashboard.refresh", dashboard=self.name, mode=report.mode
        ) as root:
            if not incremental:
                self._reset_refresh_state()
            try:
                self._refresh_incremental(report)
            except BaseException:
                self._reset_refresh_state()
                raise
            report.versions = dict(self._snapshot.versions)
            report.trace_id = root.trace_id
        report.seconds = perf_counter() - start
        self.last_refresh = report
        return report

    def _refresh_incremental(self, report: RefreshReport) -> None:
        from repro.engine.incremental import (
            Delta,
            FlowDeltaState,
            fallback_reason,
        )

        context = self._task_context()
        context.widget_selections = {}  # batch half is selection-free
        snapshot = self._snapshot
        # the next snapshot's tables, built beside the installed ones
        tables = dict(snapshot.tables)
        resolve = partial(self._resolve_source, tables=tables)
        deltas: dict[str, "Delta"] = {}
        with self.observability.tracer.span("refresh.sources"):
            for name in sorted(self.compiled.dag.sources):
                deltas[name] = self._source_delta(name, report, tables)
                if deltas[name].kind == "append":
                    report.delta_rows += deltas[name].rows.num_rows
        reasons = report.fallback_reasons
        #: outputs needing the engine (incremental not possible)
        recompute: set[str] = set()
        for flow in self.compiled.dag.ordered_flows():
            output = flow.output
            input_deltas = [deltas.get(i) for i in flow.inputs]
            tasks = [self.compiled.tasks[t] for t in flow.tasks]
            if any(i in recompute for i in flow.inputs):
                # An upstream recompute means this flow's input delta is
                # unknown until the engine runs; recompute it too.
                reason = "upstream_recompute"
            elif (
                all(d is not None and d.kind == "none" for d in input_deltas)
                and output in tables
            ):
                deltas[output] = Delta("none")
                report.flows_skipped.append(output)
                continue
            else:
                reason = fallback_reason(tasks, len(flow.inputs))
            if reason is not None:
                reasons[output] = reason
                recompute.add(output)
                # A bypassed state would resume from a stale base.
                self._flow_states.pop(output, None)
                continue
            state = self._flow_states.get(output)
            if state is None:
                state = FlowDeltaState(tasks, flow.inputs)
                self._flow_states[output] = state
                input_deltas = [None] * len(flow.inputs)
            table, deltas[output] = state.advance(
                [
                    delta or Delta("full", resolve(name))
                    for delta, name in zip(input_deltas, flow.inputs)
                ],
                context,
                lambda: [resolve(i) for i in flow.inputs],
            )
            tables[output] = table
            if state.fallback is None:
                report.flows_incremental.append(output)
            else:  # the join re-primed: full cost, though in place
                reasons[output] = state.fallback
        if recompute:
            self._refresh_recompute(sorted(recompute), context, tables)
        report.flows_full = sorted(reasons)
        changed = {
            name
            for name, delta in deltas.items()
            if delta.kind != "none"
        } | recompute
        if not changed:
            return
        versions = dict(snapshot.versions)
        for endpoint in self.compiled.endpoint_names:
            if endpoint in changed:
                versions[endpoint] = snapshot.version(endpoint) + 1
                report.endpoints_changed.append(endpoint)
        with self.observability.tracer.span("publish"):
            self._publish(tables)
        with self.observability.tracer.span("cubes.rebuild"):
            cubes = self._build_cubes(tables)
        self._install(tables, versions, cubes)

    def _source_delta(
        self, name: str, report: RefreshReport, tables: dict[str, Table]
    ):
        """How one external source changed since the last cycle."""
        from repro.engine.incremental import Delta

        if name in self._inline_tables:
            return self._watermark_delta(name, self._inline_tables[name])
        obj = self.flow_file.data.get(name)
        if obj is not None and obj.is_source:
            load = self.loader.load_delta(
                obj.schema or Schema.of(),
                self._located(obj.config),
                self._delta_states.get(name),
            )
            self._delta_states[name] = load.state
            if load.mode == "none":
                return Delta("none")
            if load.mode == "full":
                report.source_reloads[name] = load.reason
            prior = self._source_tables.get(name)
            if load.mode == "append" and prior is not None:
                load_delta = Delta("append", load.table)
                table = Table.concat_all([prior, load.table])
            else:
                # "full" — or an append with no base to append to (state
                # handed in from a previous process?): a first full load.
                load_delta = Delta("full", load.table)
                table = load.table
            # The run's own copy of the source is stale from here on: one
            # current table serves flows, endpoints and widgets alike.
            self._source_tables[name] = tables[name] = table
            return load_delta
        if self.catalog is not None and name in self.catalog:
            return self._watermark_delta(name, self.catalog.resolve(name))
        # Unresolvable here; flows using it recompute via the engine.
        return Delta("full", self._resolve_source(name, tables))

    def _watermark_delta(self, name: str, table: Table):
        """Delta for an in-memory table, by identity + row count.

        The same table object having grown is an append (callers extend
        inline tables in place); a different object or a shrink is a
        replacement.
        """
        from repro.engine.incremental import Delta

        mark = self._source_watermarks.get(name)
        self._source_watermarks[name] = (id(table), table.num_rows)
        if mark is None:
            return Delta("full", table)
        prev_id, prev_rows = mark
        if prev_id == id(table) and table.num_rows == prev_rows:
            return Delta("none")
        if prev_id == id(table) and table.num_rows > prev_rows:
            return Delta(
                "append",
                table.take(list(range(prev_rows, table.num_rows))),
            )
        return Delta("full", table)

    def _refresh_recompute(
        self,
        outputs: list[str],
        context: TaskContext,
        tables: dict[str, Table],
    ) -> None:
        """Recompute ``outputs`` through the real engine.

        Builds a plan pruned to just those flows — everything else
        (incrementally maintained outputs, unchanged flows, sources)
        acts as an external input — and runs it on the local engine.
        Reusing the engine keeps multi-input lowering (joins, unions)
        exactly as a full run would execute it, which is what makes the
        fallback byte-identical by construction.
        """
        wanted = set(outputs)
        others = {flow.output for flow in self.flow_file.flows} - wanted
        plan = self._pruned_plan(
            wanted, others | set(self.compiled.dag.sources)
        )
        # Sources resolve to their delta-maintained tables (see
        # _source_delta): nothing is fetched again.
        obs = self.observability
        result = LocalExecutor(
            partial(self._resolve_source, tables=tables),
            tracer=obs.tracer,
            metrics=obs.metrics,
        ).run(plan, context)
        tables.update(result.tables)

    # ------------------------------------------------------------------
    # incremental recomputation (§4.5.3 fast feedback, §6 optimization)
    # ------------------------------------------------------------------
    def adopt_materialized(self, previous: "Dashboard") -> list[str]:
        """Carry over results of flows unchanged since ``previous``.

        Compares per-output content fingerprints (pipe expression, all
        upstream task configurations, upstream source configurations);
        matching outputs are copied and marked fresh, so a subsequent
        ``run_flows(incremental=True)`` only re-runs the stale part of
        the DAG.  Returns the adopted output names.
        """
        from repro.compiler.compiler import flow_fingerprints

        mine = flow_fingerprints(self.compiled)
        theirs = flow_fingerprints(previous.compiled)
        prior = previous.snapshot().tables
        adopted = {
            output: prior[output]
            for output, fingerprint in mine.items()
            if theirs.get(output) == fingerprint and output in prior
        }
        self._fresh_outputs = set(adopted)
        snapshot = self._snapshot
        self._install(
            {**snapshot.tables, **adopted}, snapshot.versions, snapshot.cubes
        )
        return list(adopted)

    def _incremental_plan(self):
        """A plan covering only stale flows; fresh outputs act as
        sources (their tables are served from the snapshot)."""
        from repro.engine.plan import LogicalPlan

        fresh = set(self._fresh_outputs)
        outputs = {flow.output for flow in self.flow_file.flows}
        skipped = sorted(outputs & fresh)
        if not outputs - fresh:
            return LogicalPlan(), skipped
        catalog_names = set(
            self.catalog.names()
        ) if self.catalog is not None else set()
        plan = self._pruned_plan(outputs - fresh, fresh | catalog_names)
        return plan, skipped

    def _pruned_plan(self, outputs: set[str], external: set[str]):
        """A plan over just the flows producing ``outputs``; the data
        objects named in ``external`` act as sources."""
        from repro.compiler.dag import build_dag
        from repro.dsl.ast_nodes import FlowFile
        from repro.engine.plan import build_logical_plan

        pruned = FlowFile(
            name=self.flow_file.name,
            data=self.flow_file.data,
            tasks=self.flow_file.tasks,
            flows=[f for f in self.flow_file.flows if f.output in outputs],
            widgets={},
            layout=None,
        )
        dag = build_dag(pruned, external=external)
        return build_logical_plan(dag, self.compiled.tasks)

    def _task_context(self) -> TaskContext:
        return TaskContext(
            data_dir=self._data_dir,
            dictionaries=self._dictionaries,
            widget_selections=self._selections(),
        )

    def _prefetch_sources(
        self,
        plan,
        tables: dict[str, Table],
        parallelism: int,
        executor: str,
        pool: Any,
    ) -> None:
        """Load the plan's loader-backed sources up front, concurrently.

        Collects the plan's load nodes in canonical (topological) order,
        keeps the ones :meth:`_resolve_source` would send through the
        loader, and loads them in one :meth:`DataObjectLoader.load_many`
        call under a ``sources.load`` span, into the run's ``tables``.
        The engines then hit the prefetched tables instead of fetching
        mid-run.  Spec order is canonical and ``load_many`` replays
        telemetry canonically, so the trace and metrics are identical at
        every ``parallelism``.
        """
        names: list[str] = []
        specs = []
        for node in plan.topological_order():
            name = node.load_name
            if node.kind != "load" or name is None or name in names:
                continue
            if name in self._inline_tables or name in tables:
                continue
            obj = self.flow_file.data.get(name)
            if obj is None or not obj.is_source:
                continue  # catalog-resolved or unresolvable: stay lazy
            names.append(name)
            specs.append(
                (obj.schema or Schema.of(), self._located(obj.config))
            )
        if not names:
            return
        with self.observability.tracer.span(
            "sources.load", sources=len(names)
        ):
            loaded = self.loader.load_many(
                specs, parallelism, executor, pool=pool
            )
        tables.update(zip(names, loaded))

    def _resolve_source(
        self, name: str, tables: Mapping[str, Table] | None = None
    ) -> Table:
        if tables is None:  # the installed snapshot's
            tables = self._snapshot.tables
        if name in self._inline_tables:
            return self._inline_tables[name]
        if name in tables:
            return tables[name]
        obj = self.flow_file.data.get(name)
        if obj is not None and obj.is_source:
            return self.loader.load(
                obj.schema or Schema.of(), self._located(obj.config)
            )
        if self.catalog is not None and name in self.catalog:
            return self.catalog.resolve(name)
        raise ExecutionError(
            f"dashboard {self.name!r}: cannot resolve data object "
            f"{name!r} (no source config, no inline table, not published)"
        )

    def _publish(self, tables: dict[str, Table]) -> list[str]:
        published = []
        if self.catalog is None:
            return published
        for obj in self.flow_file.published():
            table = tables.get(obj.name)
            if table is None and obj.is_source:
                # A raw source (dimension table) can be published too.
                table = self._resolve_source(obj.name, tables)
            if table is None:
                continue
            assert obj.publish is not None
            self.catalog.publish(
                obj.publish, table, owner=self.name, source_object=obj.name
            )
            published.append(obj.publish)
        return published

    def bottleneck_report(self, top: int = 5) -> str:
        """Where the last run spent its time (§6: "tools to identify
        performance bottlenecks need to be provided").

        For local runs: the slowest plan nodes with their row/cell
        output.  For distributed runs: the heaviest shuffle stages.
        """
        if self.last_run is None:
            return "no run recorded; run_flows() first"
        lines = [
            f"run on the {self.last_run.engine} engine: "
            f"{self.last_run.seconds * 1000:.1f} ms total"
        ]
        if self._last_node_stats:
            ranked = sorted(
                self._last_node_stats, key=lambda s: -s.seconds
            )[:top]
            total = sum(s.seconds for s in self._last_node_stats) or 1e-12
            for stat in ranked:
                lines.append(
                    f"  {stat.label}: {stat.seconds * 1000:.2f} ms "
                    f"({stat.seconds / total:.0%}), "
                    f"{stat.rows_out} rows out"
                )
        if self._last_stages:
            shuffles = sorted(
                (s for s in self._last_stages if s.shuffled_records),
                key=lambda s: -s.shuffled_records,
            )[:top]
            for stage in shuffles:
                lines.append(
                    f"  shuffle {stage.task}: "
                    f"{stage.shuffled_records} records "
                    f"({stage.shuffled_bytes} bytes), "
                    f"{stage.input_rows} -> {stage.output_rows} rows"
                )
        return "\n".join(lines)

    # ------------------------------------------------------------------
    # endpoint data (REST surface, §4.4)
    # ------------------------------------------------------------------
    def endpoint_names(self) -> list[str]:
        return self.compiled.endpoint_names

    def endpoint(self, name: str) -> Table:
        """Endpoint payload (capped per the environment profile).

        Served from the installed snapshot; a dashboard that has never
        run resolves its sources on each call instead.
        """
        if name not in self.compiled.endpoint_names:
            raise ExecutionError(
                f"data object {name!r} is not an endpoint of "
                f"dashboard {self.name!r}"
            )
        snapshot = self._snapshot
        table = snapshot.endpoints.get(name)
        if table is not None:
            return table
        table = self._resolve_source(name, snapshot.tables)
        limit = self.environment.max_payload_rows
        return table.head(limit) if table.num_rows > limit else table

    def export_endpoint(
        self, name: str, config: Mapping[str, Any]
    ) -> None:
        """Write an endpoint's data through a sink connector/format.

        ``config`` is data-object configuration (``source``/``format``/
        protocol parameters, resolved against the data directory) — the
        write-side counterpart of the data section, e.g.::

            dashboard.export_endpoint(
                "region_summary", {"source": "out.csv", "format": "csv"}
            )
        """
        self.loader.save(self.endpoint(name), self._located(config))

    def _located(self, config: Mapping[str, Any]) -> dict[str, Any]:
        """``config`` with relative paths anchored at the data directory."""
        config = dict(config)
        if self._data_dir and "base_dir" not in config:
            config["base_dir"] = str(self._data_dir)
        return config

    def materialized(self, name: str) -> Table:
        table = self._snapshot.tables.get(name)
        if table is None:
            raise ExecutionError(
                f"data object {name!r} has not been materialized; "
                f"run_flows() first"
            )
        return table

    # ------------------------------------------------------------------
    # widgets & interaction
    # ------------------------------------------------------------------
    def _build_widgets(self) -> None:
        for name, plan in self.compiled.widget_plans.items():
            widget = self._widget_registry.create(
                name, plan.widget.type_name, plan.widget.config
            )
            if isinstance(widget, Slider) and plan.is_static:
                widget.set_domain(list(plan.static_values or []))
            self._widgets[name] = widget

    def widget(self, name: str) -> Widget:
        widget = self._widgets.get(name)
        if widget is None:
            raise WidgetError(
                f"dashboard {self.name!r} has no widget {name!r}"
            )
        return widget

    def widget_names(self) -> list[str]:
        return sorted(self._widgets)

    def _selections(self) -> dict[str, WidgetSelection]:
        return {
            name: widget.selection
            for name, widget in self._widgets.items()
            if not widget.selection.is_empty()
        }

    def _build_cubes(self, tables: dict[str, Table]) -> dict[str, DataCube]:
        """Materialize each widget's server-side pipeline into a cube.

        Widgets whose (source, server pipeline) coincide share one cube
        — the payload is computed and shipped once, not per widget (the
        §6 transfer minimization applied across widgets).
        """
        context = self._task_context()
        context.widget_selections = {}  # server side is selection-free
        cubes: dict[str, DataCube] = {}
        shared: dict[tuple, DataCube] = {}
        for name, plan in self.compiled.widget_plans.items():
            if plan.is_static or plan.source_name is None:
                continue
            key = (
                plan.source_name,
                tuple(task.name for task in plan.server_tasks),
            )
            cube = shared.get(key)
            if cube is None:
                table = self._resolve_source(plan.source_name, tables)
                for task in plan.server_tasks:
                    table = task.apply([table], context)
                limit = self.environment.max_payload_rows
                if table.num_rows > limit:
                    table = table.head(limit)
                cube = DataCube(f"{key[0]}|{'|'.join(key[1])}", table)
                shared[key] = cube
            cubes[name] = cube
        return cubes

    @property
    def transferred_bytes(self) -> int:
        """Total endpoint payload shipped to the client.

        Shared cubes (widgets with identical server pipelines) count
        once — that is the point of sharing them.
        """
        distinct = {id(cube): cube for cube in self._snapshot.cubes.values()}
        return sum(cube.transferred_bytes for cube in distinct.values())

    def select(
        self,
        widget_name: str,
        column: str | None = None,
        values: list[Any] | None = None,
        value_range: tuple[Any, Any] | None = None,
    ) -> None:
        """Apply a user gesture to a widget (click, drag, pick).

        ``column`` defaults to the widget's selection attribute.
        Requires an interactive client (§4.1: with JavaScript disabled
        the platform serves a static pre-rendered representation, so
        there is nothing to gesture at).
        """
        if not self.environment.interactive:
            raise WidgetError(
                f"dashboard {self.name!r} is served statically "
                f"(client has no interactivity); selections are disabled"
            )
        widget = self.widget(widget_name)
        column = column or widget.selection_attribute
        if column is None:
            raise WidgetError(
                f"widget {widget_name!r} does not support selection"
            )
        if values is not None:
            widget.select_values(column, values)
        elif value_range is not None:
            widget.select_range(column, value_range[0], value_range[1])
        else:
            widget.clear_selection()

    def widget_view(self, name: str) -> WidgetView:
        """Render one widget with the current interaction state, from
        the installed snapshot's cube."""
        return self._view(name, self._snapshot)

    def _view(self, name: str, snapshot: EndpointSnapshot) -> WidgetView:
        widget = self.widget(name)
        if isinstance(widget, (LayoutWidget, TabLayout)):
            return widget.render_composite(
                partial(self._view, snapshot=snapshot)
            )
        cube = snapshot.cubes.get(name)
        if cube is None:  # static, sourceless, or not run yet
            return widget.render(None)
        obs = self.observability
        with obs.tracer.span(
            "cube.query", dashboard=self.name, widget=name
        ) as span:
            table = cube.query(
                self.compiled.widget_plans[name].client_tasks,
                self._selections(),
            )
            span.set(rows_out=table.num_rows)
        obs.metrics.counter(
            CUBE_QUERIES, "Datacube slices evaluated for widget views"
        ).inc(dashboard=self.name)
        return widget.render(table)

    # ------------------------------------------------------------------
    # rendering
    # ------------------------------------------------------------------
    def render(self) -> DashboardView:
        """Render the full dashboard (grid of widget views)."""
        views: dict[str, WidgetView] = {}
        snapshot = self._snapshot

        def resolve(widget_name: str) -> WidgetView:
            if widget_name not in views:
                views[widget_name] = self._view(widget_name, snapshot)
            return views[widget_name]

        layout = self.flow_file.layout
        if layout is None or not layout.rows:
            # No layout section (data-processing mode): summary only.
            text = (
                f"dashboard {self.name!r}: data-processing mode, "
                f"endpoints: {', '.join(self.endpoint_names()) or '-'}"
            )
            return DashboardView(name=self.name, html="", text=text)
        html, text = GridRenderer().render_rows(layout, resolve)
        title = layout.description or self.name
        style = (
            f"<style>{self.stylesheet}</style>" if self.stylesheet else ""
        )
        html = (
            f"<html><head><title>{title}</title>{style}</head>"
            f"<body><h1>{title}</h1>{html}</body></html>"
        )
        return DashboardView(
            name=self.name,
            html=html,
            text=f"== {title} ==\n{text}",
            widget_views=views,
        )
