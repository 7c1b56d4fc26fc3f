"""The traced run: per-layer metrics, measured from outside.

Everything runs in this process so the benchmark's own spans
(``spans.Recorder``) can see it.  Two kinds of measurement:

* **the traced journey** — the same create → run → listen → first read
  journey the untraced run times in a child, here with a span around
  every layer's public function (rebound from outside, see
  ``Recorder.wrap``).  A layer's figure is its *self* time: its span
  minus its children.  ``trace.coverage`` is the share of the journey's
  wall time that lies inside some layer's span; ``trace.overhead_ratio``
  compares with the same journey run with no spans installed.
* **layer sections** — direct calls of one layer's public functions on
  tables the journey produced (tasks and engine variants over pre-loaded
  sources, the page codec, the ad-hoc planner, the data cube, the WSGI
  app with a synthetic environ and the same requests over HTTP, refresh
  cycles).  Counts come from return values (``RunReport``,
  ``RefreshReport``, ``StageStats``, ``CacheStats``, ``PoolStats``) and
  from reading ``platform.observability.metrics``.

End-to-end metrics never come from here.
"""

from __future__ import annotations

import io
import json
import random
import statistics
import tempfile
import time
from contextlib import nullcontext
from pathlib import Path
from typing import Any, Callable

from benchmarks.e2e import gen
from benchmarks.e2e.harness import Run, request
from benchmarks.e2e.workloads import PARALLELISM
from benchmarks.e2e.spans import Recorder
from benchmarks.e2e.sut import bring_up, ipl_dims

#: share of ``--seconds`` spent on untraced/traced journey pairs
JOURNEY_SHARE = 0.25
REFRESH_CYCLES = 4
NOOP_UNITS = 64


def _ms(seconds: float) -> float:
    return seconds * 1e3


def _timed(call: Callable[[], Any]) -> tuple[float, Any]:
    started = time.perf_counter()
    value = call()
    return time.perf_counter() - started, value


class TraceRun(Run):
    """``Run`` with the program in-process and spans installed."""

    def __post_init__(self) -> None:
        super().__post_init__()
        self.recorder = Recorder()
        self.out: dict[str, tuple[float, str]] = {}
        self.platform: Any = None
        self.server: Any = None

    def emit(self, name: str, value: float, unit: str) -> None:
        self.out[name] = (float(value), unit)

    # -- set-up ------------------------------------------------------------
    def setup(self) -> float:
        started = time.perf_counter()
        self.work = self.root / "traced"
        self._write_inputs(self.work)
        self.spec = json.loads((self.work / "spec.json").read_text("utf-8"))
        (self.work / "tmp").mkdir()
        # Spill and pool directories of the in-process program must stay
        # inside the checkout too.
        tempfile.tempdir = str(self.work / "tmp")
        self.marks.append(self._source().stat().st_size)
        return time.perf_counter() - started

    def _install_spans(self) -> None:
        import repro.platform as platform_module
        from repro.compiler.compiler import FlowCompiler
        from repro.connectors.file import FileConnector
        from repro.connectors.loader import DataObjectLoader
        from repro.dashboard.dashboard import Dashboard
        from repro.engine.distributed import DistributedExecutor
        from repro.engine.incremental import FlowDeltaState
        from repro.engine.local import LocalExecutor
        from repro.engine.plan import FusedPipelineTask
        from repro.formats.csv_format import CsvFormat
        from repro.formats.json_format import JsonFormat, JsonLinesFormat
        from repro.tasks.filter import FilterTask
        from repro.tasks.groupby import GroupByTask
        from repro.tasks.join import JoinTask
        from repro.tasks.map_ops import MapTask
        from repro.tasks.misc import AddColumnTask, ProjectTask, SortTask
        from repro.tasks.parallel import ParallelTask
        from repro.tasks.topn import TopNTask

        wrap = self.recorder.wrap
        wrap(platform_module, "parse_flow_file", "dsl.parse")
        wrap(FlowCompiler, "compile", "compiler.compile")
        for method in ("fetch", "fetch_chunks", "fetch_delta"):
            wrap(FileConnector, method, "connectors.fetch")
        for method in ("load", "load_many", "load_delta"):
            wrap(DataObjectLoader, method, "connectors.load")
        for fmt in (JsonFormat, JsonLinesFormat, CsvFormat):
            wrap(fmt, "decode", "formats.decode")
        for task, layer in (
            (MapTask, "map"), (FilterTask, "filter"),
            (GroupByTask, "groupby"), (JoinTask, "join"),
            (SortTask, "sort"), (TopNTask, "topn"),
            (ParallelTask, "other"), (FusedPipelineTask, "other"),
            (ProjectTask, "other"), (AddColumnTask, "other"),
        ):
            wrap(task, "apply", f"tasks.{layer}")
        wrap(LocalExecutor, "run", "engine.local")
        wrap(DistributedExecutor, "run", "engine.distributed")
        wrap(FlowDeltaState, "advance", "engine.incremental")
        wrap(Dashboard, "run_flows", "dashboard.publish_cubes")
        wrap(Dashboard, "refresh_flows", "dashboard.refresh")
        wrap(Dashboard, "select", "engine.datacube.select")
        wrap(Dashboard, "widget_view", "engine.datacube.view")

    # -- the journey ---------------------------------------------------------
    def _journey(self, traced: bool, keep: bool = False) -> float:
        """One in-process journey — ``sut.bring_up``, the very function
        the untraced children run, then the first read; returns its wall
        seconds.  With ``keep`` the platform and server stay up for the
        layer sections."""
        span = self.recorder.span if traced else (lambda _n: nullcontext())
        started = time.perf_counter()
        with span("journey"):
            platform, server, self.report = bring_up(self.spec, span)
            with span("server.first_read"):
                reply = self._checked_get(
                    server.server_address[1], self.family.first_read
                )
        wall = time.perf_counter() - started
        if reply is not None:
            self.ledger.read(self.family.first_read, 0, reply[1])
        if keep:
            self.platform, self.server = platform, server
            self.port = server.server_address[1]
        else:
            server.shutdown()
        return wall

    def journeys(self) -> None:
        """Alternate untraced and traced journeys; the first (which pays
        the imports) is thrown away."""
        self._journey(traced=False)
        deadline = time.perf_counter() + self.seconds * JOURNEY_SHARE
        plain, traced, coverage = [], [], []
        layers: dict[str, list[float]] = {}
        while len(traced) < 2 or time.perf_counter() < deadline:
            plain.append(self._journey(traced=False))
            self._install_spans()
            try:
                first = len(self.recorder.spans)
                wall = self._journey(traced=True)
            finally:
                self.recorder.unwrap_all()
            traced.append(wall)
            self_times = self.recorder.self_times(trace=first)
            uncovered = self_times.pop("journey")
            coverage.append(1.0 - uncovered / wall)
            for name in _JOURNEY_LAYERS:
                layers.setdefault(name, []).append(self_times.get(name, 0.0))
        self.emit("trace.coverage", statistics.median(coverage), "ratio")
        self.emit(
            "trace.overhead_ratio",
            statistics.median(traced) / statistics.median(plain), "ratio",
        )
        self.emit("trace.journey_ms", _ms(statistics.median(traced)), "ms")
        for name, metric in _JOURNEY_LAYERS.items():
            self.emit(metric, _ms(statistics.median(layers[name])), "ms")
        self.samples["journeys"] = len(traced)

    # -- layer sections ------------------------------------------------------
    def _sources(self, dashboard: Any) -> dict[str, Any]:
        """The main dashboard's source tables: one ``connector.fetch``
        and one ``format.decode`` per file, timed apart."""
        from repro.connectors.loader import infer_format, infer_protocol
        from repro.data import Schema

        tables = ipl_dims() if self.family.ipl_dims else {}
        fetch_seconds = decode_seconds = 0.0
        fetch_bytes = rows = fallbacks = 0
        for obj in dashboard.flow_file.external_sources():
            if obj.name in tables:
                continue
            config = dict(obj.config, base_dir=str(self.work))
            connector = self.platform.connectors.get(infer_protocol(config))
            seconds, fetched = _timed(lambda: connector.fetch(config))
            fetch_seconds += seconds
            fetch_bytes += len(fetched.payload)
            fmt = self.platform.formats.get(infer_format(config))
            seconds, table = _timed(lambda: fmt.decode(
                fetched.payload, obj.schema or Schema.of(), options=config
            ))
            decode_seconds += seconds
            rows += table.num_rows
            fallbacks += table.encode_fallbacks
            tables[obj.name] = table
        self.emit("connectors.fetch_bytes", fetch_bytes, "B")
        self.emit(
            "connectors.fetch_mb_per_s", fetch_bytes / 1e6 / fetch_seconds,
            "MB/s",
        )
        self.emit("formats.decode_rows_per_s", rows / decode_seconds, "1/s")
        self.emit(
            "formats.decode_mb_per_s", fetch_bytes / 1e6 / decode_seconds,
            "MB/s",
        )
        self.emit("data.encode_fallback_cols", fallbacks, "count")
        return tables

    def engines(self) -> None:
        """Tasks and engine variants over pre-loaded source tables."""
        from repro.engine.distributed import DistributedExecutor
        from repro.engine.local import LocalExecutor
        from repro.engine.scheduler import ProcessPool
        from repro.tasks.base import TaskContext

        dashboard = self.platform.get_dashboard(self.main)
        plan = dashboard.compiled.plan
        self.emit("compiler.plan_nodes", len(plan.nodes), "count")
        self.emit(
            "compiler.fused_stages",
            dashboard.compiled.optimization.maps_fused, "count",
        )
        sources = self._sources(dashboard)

        def context() -> TaskContext:
            return TaskContext(data_dir=self.work)

        self._install_spans()
        try:
            first = len(self.recorder.spans)
            seconds, reference = _timed(
                lambda: LocalExecutor(sources.__getitem__).run(
                    plan, context()
                )
            )
            task_times = self.recorder.self_times(trace=first)
        finally:
            self.recorder.unwrap_all()
        self.emit("engine.variant.local_ms", _ms(seconds), "ms")
        self.emit(
            "engine.local.rows_produced", reference.stats.rows_produced,
            "count",
        )
        for layer in _TASK_LAYERS:
            self.emit(
                f"tasks.{layer}_ms",
                _ms(task_times.get(f"tasks.{layer}", 0.0)), "ms",
            )
        self.emit(
            "data.table_est_bytes",
            sum(t.estimated_bytes() for t in reference.tables.values()), "B",
        )
        def distributed(**options: Any) -> Any:
            return DistributedExecutor(
                sources.__getitem__, parallelism=PARALLELISM, **options
            ).run(plan, context())

        # Top-n keeps whichever tied rows it meets first, and a
        # partitioned engine meets them in another order: those outputs
        # may differ between the local and the distributed engine, but
        # never between two distributed variants.
        tie_sensitive = {
            flow.output
            for flow in dashboard.flow_file.flows
            if any(
                dashboard.compiled.tasks[t].type_name == "topn"
                for t in flow.tasks
            )
        }

        def variant(name: str, expected: Any, skip: set, **options: Any):
            seconds, result = _timed(lambda: distributed(**options))
            self.emit(f"engine.variant.{name}_ms", _ms(seconds), "ms")
            for table_name, table in expected.tables.items():
                if table_name in skip or _same_table(
                    result.tables[table_name], table
                ):
                    self.tally.ok()
                else:
                    self.tally.fail(f"variant-{name}-differs")
            return result

        result = variant(
            "dist_threads", reference, tie_sensitive, executor="threads"
        )
        self.emit("engine.distributed.stages", len(result.stages), "count")
        self.emit(
            "engine.distributed.shuffled_records",
            sum(s.shuffled_records for s in result.stages), "count",
        )
        attempts = sum(s.attempts for s in result.stages)
        retried = sum(s.retried_partitions for s in result.stages)
        self.emit("engine.distributed.attempts", attempts, "count")
        self.emit(
            "engine.distributed.useful_attempt_ratio",
            (attempts - retried) / attempts if attempts else 1.0, "ratio",
        )
        variant("dist_procs_cold", result, set(), executor="processes")
        for name, transport in (
            ("dist_procs_warm", "shared-memory"), ("dist_procs_frame", "frame"),
        ):
            with ProcessPool(PARALLELISM, transport=transport) as pool:
                distributed(executor="processes", pool=pool)
                variant(name, result, set(), executor="processes", pool=pool)
                if transport == "shared-memory":
                    self.emit(
                        "engine.scheduler.arena_bytes",
                        pool.stats.arena_bytes, "B",
                    )
                    batches = 10
                    seconds, _ = _timed(lambda: [
                        pool.run_batch([_noop] * NOOP_UNITS)
                        for _ in range(batches)
                    ])
                    self.emit(
                        "engine.scheduler.dispatch_us_per_unit",
                        seconds * 1e6 / (batches * NOOP_UNITS), "us",
                    )

    def data_and_queries(self) -> None:
        """Page codec, page materialisation and the ad-hoc planner on
        the journey's largest endpoint table."""
        from repro.data.pages import decode_table, encode_table
        from repro.server.query_language import parse_adhoc_query

        dashboard = self.platform.get_dashboard(self.main)
        tables = {
            name: dashboard.endpoint(name)
            for name in dashboard.endpoint_names()
        }
        big = max(tables.values(), key=lambda t: t.num_rows)
        seconds, blob = _timed(lambda: encode_table(big))
        self.emit("data.page_encode_ms", _ms(seconds), "ms")
        seconds, _table = _timed(lambda: decode_table(blob))
        self.emit("data.page_decode_ms", _ms(seconds), "ms")
        self.emit(
            "data.page_bytes_per_row", len(blob) / max(big.num_rows, 1), "B"
        )
        rng = random.Random(self.seed)
        pages = [
            range(big.num_rows)[o: o + 100]
            for o in (
                rng.randrange(max(big.num_rows - 100, 1)) for _ in range(200)
            )
        ]
        seconds, taken = _timed(lambda: [big.take(p) for p in pages])
        self.emit("data.take_ms", _ms(seconds) / len(pages), "ms")
        seconds, _ = _timed(lambda: [t.to_json_records() for t in taken])
        self.emit("data.to_json_ms", _ms(seconds) / len(pages), "ms")

        segments = [read.segments() for read in self.queries[:64]]
        seconds, plans = _timed(lambda: [
            parse_adhoc_query(s).canonicalized() for s in segments
        ])
        self.emit(
            "server.query_language.plan_us", seconds * 1e6 / len(plans), "us"
        )

    def serving(self) -> None:
        """The workload's read mix through the WSGI app directly, then
        over HTTP (each pass from an emptied, re-primed cache, so both
        see the same cache state), then a short closed-loop window."""
        from repro.observability.instruments import SERVING_REJECTED

        tier = self.server.tier
        app = tier.app
        rng = random.Random(self.seed * 31)
        pick = gen.zipf_sampler(rng, len(self.queries), 1.1)
        reads = [self._draw_read(rng, pick) for _ in range(450)]
        queue_depths = [0]

        def direct(read) -> float:
            path, _, query = read.path(self.main).partition("?")
            environ = {
                "REQUEST_METHOD": "GET", "PATH_INFO": path,
                "QUERY_STRING": query, "wsgi.input": io.BytesIO(),
            }
            status: list[str] = []
            seconds, body = _timed(lambda: b"".join(
                app(environ, lambda s, _h: status.append(s))
            ))
            if status[0].startswith("200"):
                self.ledger.read(read, 0, body)
            else:
                self.tally.fail(f"app-{status[0][:3]}")
            return seconds

        def over_http(read) -> float:
            seconds, reply = _timed(
                lambda: self._checked_get(self.port, read)
            )
            queue_depths.append(tier.queue.depth())
            if reply is not None:
                self.ledger.read(read, 0, reply[1])
            return seconds

        passes = {}
        for name, send in (("app", direct), ("http", over_http)):
            app.query_cache.invalidate()
            for read in reads[:150]:
                send(read)
            passes[name] = statistics.median(send(r) for r in reads[150:])
        self.emit("server.app.request_ms", _ms(passes["app"]), "ms")
        self.emit(
            "server.serving.overhead_ms",
            _ms(passes["http"] - passes["app"]), "ms",
        )
        # The same ad-hoc chain answered cold, then from the cache.
        missed, hit = [], []
        for read in self.queries[:32]:
            app.query_cache.invalidate()
            missed.append(direct(read))
            hit.append(direct(read))
        self.emit(
            "server.query_language.exec_miss_ms",
            _ms(statistics.median(missed)), "ms",
        )
        self.emit(
            "server.query_language.exec_hit_ms",
            _ms(statistics.median(hit)), "ms",
        )
        app.query_cache.invalidate()
        before = app.query_cache.stats
        hits, misses, evictions = (
            before.hits, before.misses, before.evictions
        )
        self.read_window(self.seconds * 0.15, refresher=False)
        stats = app.query_cache.stats
        looked_up = stats.hits - hits + stats.misses - misses
        self.emit(
            "engine.query_cache.hit_ratio",
            (stats.hits - hits) / looked_up, "ratio",
        )
        self.emit(
            "engine.query_cache.evictions", stats.evictions - evictions,
            "count",
        )
        late = self.samples["late"]
        self.emit(
            "loadgen.late_ms",
            _ms(sum(l for l, _n in late) / sum(n for _l, n in late)), "ms",
        )
        rejected = self.platform.observability.metrics.get(SERVING_REJECTED)
        self.emit(
            "server.serving.rejected",
            rejected.total() if rejected else 0, "count",
        )
        self.emit(
            "server.serving.queue_depth_max", max(queue_depths), "count"
        )

    def gestures(self) -> None:
        self._install_spans()
        try:
            ranges = self._ranges(random.Random(self.seed + 1), 24)
            for lo, hi in ranges * 2:
                body = self._gesture(self.port, lo, hi)
                if body is not None:
                    self.ledger.record(("widget", (lo, hi), 0, 0), body)
        finally:
            self.recorder.unwrap_all()
        for name in ("select", "view"):
            self.emit(
                f"engine.datacube.{name}_ms",
                _ms(statistics.median(
                    self.recorder.durations(f"engine.datacube.{name}")
                )),
                "ms",
            )

    def refreshes(self) -> None:
        from repro.observability.instruments import (
            CONNECTOR_BYTES,
            QUERY_CACHE_INVALIDATIONS,
        )

        metrics = self.platform.observability.metrics
        _s, self.base_version, _b = request(
            self.port, "GET", self.family.first_read.path(self.main)
        )
        self.refresh_cycle()  # bootstraps the delta cursors
        bytes_before = metrics.get(CONNECTOR_BYTES).total()
        invalidations = metrics.get(QUERY_CACHE_INVALIDATIONS)
        invalidated_before = invalidations.total() if invalidations else 0
        self._install_spans()
        try:
            first = len(self.recorder.spans)
            reports = []
            for _ in range(REFRESH_CYCLES):
                self.refresh_cycle()
                reports.append(
                    self.platform.get_dashboard(self.main).last_refresh
                )
        finally:
            self.recorder.unwrap_all()
        spans = self.recorder.spans[first:]
        per_cycle = 1.0 / REFRESH_CYCLES

        def total(name: str) -> float:
            return sum(
                s["end"] - s["start"] for s in spans if s["name"] == name
            )

        self.emit(
            "engine.incremental.refresh_ms",
            _ms(total("dashboard.refresh")) * per_cycle, "ms",
        )
        self.emit(
            "engine.incremental.advance_ms",
            _ms(total("engine.incremental")) * per_cycle, "ms",
        )
        self.emit(
            "engine.incremental.delta_rows",
            sum(r.delta_rows for r in reports) * per_cycle, "count",
        )
        incremental = sum(len(r.flows_incremental) for r in reports)
        full = sum(len(r.flows_full) for r in reports)
        self.emit(
            "engine.incremental.flows_incremental", incremental * per_cycle,
            "count",
        )
        self.emit(
            "engine.incremental.flows_full", full * per_cycle, "count"
        )
        self.emit(
            "connectors.delta_bytes",
            (metrics.get(CONNECTOR_BYTES).total() - bytes_before) * per_cycle,
            "B",
        )
        self.emit(
            "connectors.delta_full_reloads",
            sum(1 for r in reports if r.endpoints_changed and not r.delta_rows),
            "count",
        )
        invalidations = metrics.get(QUERY_CACHE_INVALIDATIONS)
        self.emit(
            "engine.query_cache.invalidations",
            (invalidations.total() if invalidations else 0)
            - invalidated_before,
            "count",
        )

    def pool_counters(self) -> None:
        """What the journey's own runs did to the platform's warm pool."""
        from repro.observability import instruments

        metrics = self.platform.observability.metrics
        for metric, name in (
            ("forks", instruments.POOL_FORKS),
            ("warm_hits", instruments.POOL_WARM_HITS),
            ("dispatch_fallbacks", instruments.POOL_DISPATCH_FALLBACKS),
        ):
            counter = metrics.get(name)
            self.emit(
                f"engine.scheduler.{metric}",
                counter.total() if counter else 0, "count",
            )
        codec = metrics.get(instruments.PAGE_CODEC_BYTES)
        self.emit(
            "engine.spill.page_bytes", codec.total() if codec else 0, "B"
        )
        self.emit(
            "engine.distributed.retried_partitions",
            self.report.retried_partitions, "count",
        )

    # -- the whole run -------------------------------------------------------
    def measure(self) -> dict[str, tuple[float, str]]:
        self.emit("trace.setup_s", self.setup(), "s")
        try:
            self.journeys()
            self._journey(traced=False, keep=True)
            self.pool_counters()
            self.engines()
            self.data_and_queries()
            self.serving()
            self.gestures()
            self.refreshes()
        finally:
            self.recorder.unwrap_all()
            if self.server is not None:
                self.server.shutdown()
            tempfile.tempdir = None
        self.recorder.dump(
            self.trace_path, workload=self.workload.name, seed=self.seed,
            smoke=self.smoke,
        )
        return self.out

    @property
    def trace_path(self) -> Path:
        return self.root.parent / f"trace_{self.workload.name}.json"


#: span name -> per-layer metric, for self times inside one journey
_JOURNEY_LAYERS = {
    "dsl.parse": "dsl.parse_ms",
    "compiler.compile": "compiler.compile_ms",
    "connectors.fetch": "connectors.fetch_ms",
    "connectors.load": "connectors.load_ms",
    "formats.decode": "formats.decode_ms",
    "engine.local": "engine.local.run_ms",
    "engine.distributed": "engine.distributed.run_ms",
    "dashboard.publish_cubes": "dashboard.publish_cubes_ms",
    "platform.create": "platform.create_ms",
    "platform.run": "platform.run_ms",
    "server.start": "server.start_ms",
    "server.first_read": "server.first_read_ms",
}
_TASK_LAYERS = ("map", "filter", "groupby", "join", "sort", "topn", "other")


def _noop() -> None:
    return None


def _same_table(a: Any, b: Any) -> bool:
    """Same columns and the same row multiset (partitioned engines do
    not promise first-seen group order)."""
    if a.schema.names != b.schema.names or a.num_rows != b.num_rows:
        return False
    return sorted(map(repr, a.row_tuples())) == sorted(
        map(repr, b.row_tuples())
    )
