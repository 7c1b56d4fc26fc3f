"""The ShareInsights platform facade.

One :class:`Platform` instance is "the server": it owns the extension
registries (§4.2), the shared data catalog (§3.4.1), the flow-file
version-control repository (§4.5.1) and the set of live dashboards.  The
REST layer (:mod:`repro.server`), the collaboration workflows and the
hackathon simulator all drive this object.

Every dashboard operation is appended to :attr:`Platform.events` — the
"application logs, flow file growth, error messages, execution logs"
telemetry the paper's §5.2.1 dashboards are built from.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping

from repro.collab.catalog import SharedDataCatalog
from repro.collab.repo import FlowFileRepository
from repro.compiler.compiler import FlowCompiler
from repro.connectors.loader import DataObjectLoader
from repro.connectors.registry import (
    ConnectorRegistry,
    default_connector_registry,
)
from repro.dashboard.dashboard import Dashboard, RefreshReport, RunReport
from repro.dashboard.environment import EnvironmentProfile
from repro.data import Table
from repro.dsl.parser import parse_flow_file
from repro.engine.scheduler import ProcessPool, resolve_pool_mode
from repro.errors import ShareInsightsError
from repro.formats.registry import FormatRegistry, default_format_registry
from repro.observability import Observability
from repro.observability.instruments import (
    COMPILE_DURATION,
    COMPILES,
    PLATFORM_EVENTS,
)
from repro.tasks.registry import TaskRegistry, default_task_registry
from repro.widgets.registry import WidgetRegistry, default_widget_registry


@dataclass
class PlatformEvent:
    """One telemetry record."""

    kind: str  # create | save | run | fork | error | select | query
    dashboard: str
    detail: dict[str, Any] = field(default_factory=dict)
    timestamp: float = field(default_factory=time.time)
    user: str = ""


class Platform:
    """A ShareInsights server instance."""

    def __init__(
        self,
        connectors: ConnectorRegistry | None = None,
        formats: FormatRegistry | None = None,
        tasks: TaskRegistry | None = None,
        widgets: WidgetRegistry | None = None,
        optimize: bool = True,
        observability: Observability | None = None,
    ):
        self.connectors = connectors or default_connector_registry()
        self.formats = formats or default_format_registry()
        self.tasks = tasks or default_task_registry()
        self.widgets = widgets or default_widget_registry()
        self.observability = observability or Observability()
        self.catalog = SharedDataCatalog()
        self.repository = FlowFileRepository()
        self.loader = DataObjectLoader(
            self.connectors,
            self.formats,
            observability=self.observability,
        )
        self.compiler = FlowCompiler(
            task_registry=self.tasks, optimize=optimize
        )
        self.dashboards: dict[str, Dashboard] = {}
        self.events: list[PlatformEvent] = []
        # Concurrency safety (docs/serving.md has the lock-ordering
        # table).  ``_lock`` guards the dashboard map, the repository
        # and the event log; compiles run *outside* it so concurrent
        # creates/saves parallelize, with a re-check on insert.
        # ``_run_locks`` serialize runs per dashboard: two concurrent
        # POST .../run calls for one dashboard execute back to back
        # instead of interleaving their refresh-state updates.
        self._lock = threading.RLock()
        self._run_locks: dict[str, threading.Lock] = {}
        # The platform owns the warm process pool's lifecycle: the
        # serving tier preforks it at startup and reaps it on drain;
        # runs borrow it via ``run_dashboard(pool="auto"|"keep")``.
        self._pool: ProcessPool | None = None
        self._pool_lock = threading.Lock()

    # ------------------------------------------------------------------
    # warm process pool lifecycle
    # ------------------------------------------------------------------
    @property
    def pool(self) -> ProcessPool | None:
        """The platform's warm process pool, if one is open."""
        with self._pool_lock:
            if self._pool is not None and self._pool.closed:
                self._pool = None
            return self._pool

    def warm_pool(
        self,
        workers: int = 4,
        max_tasks_per_worker: int = 0,
        max_rss_bytes: int = 0,
        transport: str = "shared-memory",
    ) -> ProcessPool:
        """Open (or grow) the persistent process pool and prefork it.

        An existing open pool with at least ``workers`` workers is
        reused; a smaller one is drained and replaced.  Pool telemetry
        lands in this platform's metrics registry (``repro_pool_*``).
        """
        with self._pool_lock:
            pool = self._pool
            if pool is not None and not pool.closed:
                if pool.workers >= workers:
                    pool.prefork()
                    return pool
                pool.close()
            pool = ProcessPool(
                workers,
                max_tasks_per_worker=max_tasks_per_worker,
                max_rss_bytes=max_rss_bytes,
                transport=transport,
                metrics=self.observability.metrics,
            )
            pool.prefork()
            self._pool = pool
            return pool

    def close_pool(self) -> None:
        """Retire the warm pool's workers and release its arenas."""
        with self._pool_lock:
            if self._pool is not None:
                self._pool.close()
                self._pool = None

    # ------------------------------------------------------------------
    # dashboard CRUD (the §4.3.1 REST operations' backend)
    # ------------------------------------------------------------------
    def create_dashboard(
        self,
        name: str,
        source: str,
        data_dir: str | Path | None = None,
        inline_tables: Mapping[str, Table] | None = None,
        dictionaries: Mapping[str, Mapping[str, str]] | None = None,
        environment: EnvironmentProfile | None = None,
        user: str = "",
    ) -> Dashboard:
        """Create a dashboard from flow-file text (compiles immediately)."""
        with self._lock:
            if name in self.dashboards:
                raise ShareInsightsError(
                    f"dashboard {name!r} already exists"
                )
        dashboard = self._build(
            name, source, data_dir, inline_tables, dictionaries,
            environment, user,
        )
        with self._lock:
            # Re-check: a concurrent create may have won the compile
            # race; first insert wins, the loser gets the same error a
            # sequential caller would.
            if name in self.dashboards:
                raise ShareInsightsError(
                    f"dashboard {name!r} already exists"
                )
            self.dashboards[name] = dashboard
            self.repository.commit(
                name, source, message=f"create {name}", author=user
            )
        self._log("create", name, {"bytes": len(source)}, user)
        return dashboard

    def save_dashboard(
        self, name: str, source: str, user: str = ""
    ) -> Dashboard:
        """Replace a dashboard's flow file (edit + save in the editor)."""
        existing = self.get_dashboard(name)
        dashboard = self._build(
            name,
            source,
            existing._data_dir,
            existing._inline_tables,
            existing._dictionaries,
            existing.environment,
            user,
        )
        with self._lock:
            # Adopt from whatever version is live *now* (a concurrent
            # save may have replaced ``existing`` during our compile);
            # the swap and the repo commit land atomically.
            current = self.dashboards.get(name, existing)
            # Incremental recomputation: results of flows untouched by
            # this edit carry over, so the next
            # run_flows(incremental=True) only re-runs the stale DAG.
            adopted = dashboard.adopt_materialized(current)
            self.dashboards[name] = dashboard
            self.repository.commit(
                name, source, message=f"save {name}", author=user
            )
        self._log(
            "save",
            name,
            {"bytes": len(source), "adopted": adopted},
            user,
        )
        return dashboard

    def fork_dashboard(
        self, source_name: str, new_name: str, user: str = ""
    ) -> Dashboard:
        """Fork an existing dashboard (§5.2 obs. 3: 'fork to go')."""
        with self._lock:
            source_text = self.repository.read(source_name)
            existing = self.get_dashboard(source_name)
        dashboard = self._build(
            new_name,
            source_text,
            existing._data_dir,
            existing._inline_tables,
            existing._dictionaries,
            existing.environment,
            user,
        )
        with self._lock:
            if new_name in self.dashboards:
                raise ShareInsightsError(
                    f"dashboard {new_name!r} already exists"
                )
            self.dashboards[new_name] = dashboard
            self.repository.fork(source_name, new_name, author=user)
        self._log(
            "fork",
            new_name,
            {"from": source_name, "bytes": len(source_text)},
            user,
        )
        return dashboard

    def merge_dashboard(
        self,
        name: str,
        source_branch: str,
        into_branch: str = "main",
        user: str = "",
    ) -> Dashboard:
        """Merge a branch in the repository and deploy the result.

        The section-aware three-way merge (§4.5.1) runs in the
        repository; the merged flow file then goes through the normal
        save path, so an invalid merge result never replaces the live
        dashboard.
        """
        with self._lock:
            self.repository.merge(
                name, source_branch, into_branch=into_branch, author=user
            )
            merged = self.repository.read(name, branch=into_branch)
        return self.save_dashboard(name, merged, user=user)

    def delete_dashboard(self, name: str, user: str = "") -> None:
        with self._lock:
            self.get_dashboard(name)
            del self.dashboards[name]
        self._log("delete", name, {}, user)

    def get_dashboard(self, name: str) -> Dashboard:
        with self._lock:
            dashboard = self.dashboards.get(name)
            if dashboard is None:
                raise ShareInsightsError(
                    f"no dashboard {name!r}; "
                    f"have {sorted(self.dashboards)}"
                )
            return dashboard

    def dashboard_names(self) -> list[str]:
        with self._lock:
            return sorted(self.dashboards)

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def run_dashboard(
        self,
        name: str,
        engine: str | None = None,
        user: str = "",
        fault_profile: str | None = None,
        parallelism: int = 1,
        executor: str = "threads",
        pool: str = "auto",
    ) -> RunReport:
        mode = resolve_pool_mode(pool)
        dashboard = self.get_dashboard(name)
        run_pool: ProcessPool | None = None
        if executor == "processes":
            # "auto" without a warm pool leaves run_pool None: the engine
            # cold-forks every stage
            run_pool = (
                self.warm_pool(workers=max(1, parallelism))
                if mode == "keep"
                else self.pool
            )
        try:
            # One run at a time per dashboard: concurrent POST .../run
            # calls serialize here instead of interleaving materialized
            # updates; the run applies to the version captured above
            # even if a concurrent save swaps the live dashboard.
            with self._run_lock(name):
                report = dashboard.run_flows(
                    engine=engine,
                    fault_profile=fault_profile,
                    parallelism=parallelism,
                    executor=executor,
                    pool=run_pool,
                )
        except ShareInsightsError as exc:
            self._log(
                "error",
                name,
                {
                    "message": str(exc),
                    "type": type(exc).__name__,
                    "task": getattr(exc, "task", None),
                    "partition": getattr(exc, "partition", None),
                },
                user,
            )
            raise
        detail = {
            "engine": report.engine,
            "rows_produced": report.rows_produced,
            "published": report.published,
            "trace_id": report.trace_id,
            "operators": self._operator_usage(dashboard),
            "widgets": self._widget_usage(dashboard),
        }
        if report.retried_partitions or report.recovered_stages:
            detail["retried_partitions"] = report.retried_partitions
            detail["recovered_stages"] = list(report.recovered_stages)
        self._log("run", name, detail, user)
        return report

    def refresh_dashboard(
        self,
        name: str,
        incremental: bool = True,
        user: str = "",
    ) -> RefreshReport:
        """Refresh a dashboard's flows at O(changed rows) cost.

        Serializes with full runs under the same per-dashboard lock and
        records ``repro_refresh_*`` metrics.
        """
        from repro.observability.instruments import record_refresh

        dashboard = self.get_dashboard(name)
        try:
            with self._run_lock(name):
                report = dashboard.refresh_flows(incremental=incremental)
        except ShareInsightsError as exc:
            self._log(
                "error",
                name,
                {"message": str(exc), "type": type(exc).__name__},
                user,
            )
            raise
        record_refresh(
            self.observability.metrics,
            name,
            report.mode,
            report.seconds,
            report.delta_rows,
            report.fallback_reasons,
        )
        self._log(
            "refresh",
            name,
            {
                "mode": report.mode,
                "delta_rows": report.delta_rows,
                "flows_incremental": list(report.flows_incremental),
                "flows_full": list(report.flows_full),
                "fallback_reasons": dict(report.fallback_reasons),
                "source_reloads": dict(report.source_reloads),
                "flows_skipped": list(report.flows_skipped),
                "endpoints_changed": list(report.endpoints_changed),
                "trace_id": report.trace_id,
            },
            user,
        )
        return report

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _run_lock(self, name: str) -> threading.Lock:
        """The per-dashboard run lock (created on first use).

        Lock ordering: acquired *after* releasing ``_lock`` and before
        any query-cache lock; never held while taking ``_lock``.
        """
        with self._lock:
            lock = self._run_locks.get(name)
            if lock is None:
                lock = threading.Lock()
                self._run_locks[name] = lock
            return lock

    def _build(
        self,
        name: str,
        source: str,
        data_dir: str | Path | None,
        inline_tables: Mapping[str, Table] | None,
        dictionaries: Mapping[str, Mapping[str, str]] | None,
        environment: EnvironmentProfile | None,
        user: str = "",
    ) -> Dashboard:
        obs = self.observability
        try:
            with obs.tracer.span("compile", dashboard=name) as span:
                with obs.tracer.span("parse"):
                    flow_file = parse_flow_file(source, name=name)
                with obs.tracer.span("plan"):
                    compiled = self.compiler.compile(
                        flow_file,
                        catalog_schemas=self.catalog.schemas(),
                    )
                span.set(
                    flows=len(flow_file.flows),
                    tasks=len(compiled.tasks),
                )
        except ShareInsightsError as exc:
            self._log("error", name, {"message": str(exc)}, user)
            raise
        obs.metrics.counter(
            COMPILES, "Flow files compiled to logical plans"
        ).inc(dashboard=name)
        obs.metrics.histogram(
            COMPILE_DURATION, "Flow-file parse + plan wall time"
        ).observe(span.duration)
        return Dashboard(
            compiled,
            loader=self.loader,
            catalog=self.catalog,
            widget_registry=self.widgets,
            environment=environment,
            data_dir=data_dir,
            dictionaries=dictionaries,
            inline_tables=inline_tables,
            observability=obs,
        )

    @staticmethod
    def _operator_usage(dashboard: Dashboard) -> dict[str, int]:
        """Task-type histogram of one dashboard (feeds Fig. 31)."""
        usage: dict[str, int] = {}
        for task in dashboard.compiled.tasks.values():
            usage[task.type_name] = usage.get(task.type_name, 0) + 1
        return usage

    @staticmethod
    def _widget_usage(dashboard: Dashboard) -> dict[str, int]:
        """Widget-type histogram of one dashboard (feeds Fig. 31)."""
        usage: dict[str, int] = {}
        for plan in dashboard.compiled.widget_plans.values():
            type_name = plan.widget.type_name
            usage[type_name] = usage.get(type_name, 0) + 1
        return usage

    def _log(
        self,
        kind: str,
        dashboard: str,
        detail: dict[str, Any],
        user: str = "",
    ) -> None:
        with self._lock:
            self.events.append(
                PlatformEvent(
                    kind=kind, dashboard=dashboard, detail=detail,
                    user=user,
                )
            )
        # The event log and the metrics registry are one telemetry
        # surface: every platform event is also a counter series.
        self.observability.metrics.counter(
            PLATFORM_EVENTS, "Platform events by kind (see Platform.events)"
        ).inc(kind=kind)
