"""The platform's metric vocabulary and recording helpers.

Every metric the platform emits is declared here — one module to read
for the full list (documented for operators in
``docs/observability.md``), and one call site per event shape so
engines, connectors, the dashboard runtime and the REST server all
record consistently-labelled series into a shared
:class:`~repro.observability.metrics.MetricsRegistry`.
"""

from __future__ import annotations

from typing import Mapping

from repro.observability.metrics import MetricsRegistry
from repro.observability.tracing import Span, span_children

# -- metric names (`repro_` namespace) ----------------------------------
STAGE_DURATION = "repro_stage_duration_seconds"
STAGE_ROWS = "repro_stage_rows_total"
SHUFFLE_RECORDS = "repro_shuffle_records_total"
SHUFFLE_BYTES = "repro_shuffle_bytes_total"
PARTITION_ATTEMPTS = "repro_partition_attempts_total"
PARTITION_RETRIES = "repro_partition_retries_total"
SPECULATIVE_WINS = "repro_speculative_wins_total"
RECOVERED_PARTITIONS = "repro_recovered_partitions_total"
RUNS = "repro_runs_total"
RUN_DURATION = "repro_run_duration_seconds"
COMPILES = "repro_compiles_total"
COMPILE_DURATION = "repro_compile_duration_seconds"
CONNECTOR_FETCHES = "repro_connector_fetches_total"
CONNECTOR_FETCH_DURATION = "repro_connector_fetch_seconds"
CONNECTOR_BYTES = "repro_connector_bytes_total"
INGEST_ROWS = "repro_ingest_rows_total"
INGEST_DECODE_DURATION = "repro_ingest_decode_seconds"
INGEST_PARALLEL_FALLBACK = "repro_ingest_parallel_fallback_total"
INGEST_DELTA_RELOADS = "repro_ingest_delta_reloads_total"
HTTP_REQUESTS = "repro_http_requests_total"
HTTP_REQUEST_DURATION = "repro_http_request_duration_seconds"
ENDPOINT_QUERIES = "repro_endpoint_queries_total"
DEGRADED_SERVES = "repro_degraded_serves_total"
CUBE_QUERIES = "repro_cube_queries_total"
PLATFORM_EVENTS = "repro_platform_events_total"
QUERY_CACHE_HITS = "repro_query_cache_hits_total"
QUERY_CACHE_MISSES = "repro_query_cache_misses_total"
QUERY_CACHE_EVICTIONS = "repro_query_cache_evictions_total"
QUERY_CACHE_INVALIDATIONS = "repro_query_cache_invalidations_total"
SERVING_QUEUE_DEPTH = "repro_serving_queue_depth"
SERVING_INFLIGHT = "repro_serving_inflight"
SERVING_SHED_STATE = "repro_serving_shed_state"
SERVING_ADMITTED = "repro_serving_admitted_total"
SERVING_REJECTED = "repro_serving_rejected_total"
SERVING_DEADLINE_EXPIRED = "repro_serving_deadline_expired_total"
SERVING_SHED_SERVES = "repro_serving_shed_serves_total"
POOL_FORKS = "repro_pool_forks_total"
POOL_RECYCLED = "repro_pool_recycled_total"
POOL_RESPAWNS = "repro_pool_respawns_total"
POOL_WARM_HITS = "repro_pool_warm_hits_total"
POOL_DISPATCH_FALLBACKS = "repro_pool_dispatch_fallbacks_total"
POOL_ARENA_BYTES = "repro_pool_arena_bytes"
REFRESH_CYCLES = "repro_refresh_cycles_total"
REFRESH_RUNS = "repro_refresh_runs_total"
REFRESH_DURATION = "repro_refresh_duration_seconds"
REFRESH_DELTA_ROWS = "repro_refresh_delta_rows_total"
REFRESH_FALLBACKS = "repro_refresh_fallbacks_total"
REFRESH_ERRORS = "repro_refresh_errors_total"
TABLE_ENCODE_FALLBACKS = "repro_table_encode_fallbacks_total"
PAGE_CODEC_BYTES = "repro_page_codec_bytes_total"

_CACHE_EVENT_METRICS = {
    "hits": (QUERY_CACHE_HITS, "Interactive query-cache hits"),
    "misses": (QUERY_CACHE_MISSES, "Interactive query-cache misses"),
    "evictions": (
        QUERY_CACHE_EVICTIONS,
        "Interactive query-cache LRU evictions",
    ),
    "invalidations": (
        QUERY_CACHE_INVALIDATIONS,
        "Interactive query-cache entries dropped by invalidation",
    ),
}


def record_cache_event(
    metrics: MetricsRegistry, cache: str, event: str, amount: int = 1
) -> None:
    """One query-cache event (hit/miss/eviction/invalidation)."""
    name, help_text = _CACHE_EVENT_METRICS[event]
    metrics.counter(name, help_text).inc(amount, cache=cache)


def record_stage(
    metrics: MetricsRegistry,
    engine: str,
    kind: str,
    seconds: float,
    rows_in: int,
    rows_out: int,
    shuffled_records: int = 0,
    shuffled_bytes: int = 0,
    attempts: int = 0,
    retried_partitions: int = 0,
    speculative_wins: int = 0,
    recovered_partitions: int = 0,
) -> None:
    """One executed plan stage (either engine)."""
    metrics.histogram(
        STAGE_DURATION, "Wall time of one executed plan stage"
    ).observe(seconds, engine=engine, kind=kind)
    rows = metrics.counter(STAGE_ROWS, "Rows entering/leaving stages")
    rows.inc(rows_in, engine=engine, direction="in")
    rows.inc(rows_out, engine=engine, direction="out")
    if shuffled_records:
        metrics.counter(
            SHUFFLE_RECORDS, "Records moved through shuffles"
        ).inc(shuffled_records, engine=engine)
    if shuffled_bytes:
        metrics.counter(
            SHUFFLE_BYTES, "Estimated bytes moved through shuffles"
        ).inc(shuffled_bytes, engine=engine)
    if attempts:
        metrics.counter(
            PARTITION_ATTEMPTS,
            "Partition attempts, retries and speculative duplicates "
            "included",
        ).inc(attempts, engine=engine)
    if retried_partitions:
        metrics.counter(
            PARTITION_RETRIES,
            "Partitions that needed more than one attempt",
        ).inc(retried_partitions, engine=engine)
    if speculative_wins:
        metrics.counter(
            SPECULATIVE_WINS,
            "Stragglers beaten by their speculative duplicate",
        ).inc(speculative_wins, engine=engine)
    if recovered_partitions:
        metrics.counter(
            RECOVERED_PARTITIONS,
            "Partitions recomputed from lineage after worker loss",
        ).inc(recovered_partitions, engine=engine)


def record_ingest(
    metrics: MetricsRegistry,
    format_name: str,
    rows: int,
    seconds: float,
) -> None:
    """One data-object decode (rows produced and wall time, by format)."""
    metrics.counter(
        INGEST_ROWS, "Rows decoded from data-object payloads"
    ).inc(rows, format=format_name)
    metrics.histogram(
        INGEST_DECODE_DURATION, "Payload decode wall time"
    ).observe(seconds, format=format_name)


def record_run(
    metrics: MetricsRegistry, engine: str, seconds: float
) -> None:
    """One complete engine run."""
    metrics.counter(RUNS, "Completed engine runs").inc(engine=engine)
    metrics.histogram(
        RUN_DURATION, "Wall time of one complete engine run"
    ).observe(seconds, engine=engine)


def record_refresh(
    metrics: MetricsRegistry,
    dashboard: str,
    mode: str,
    seconds: float,
    delta_rows: int,
    fallback_reasons: Mapping[str, str],
) -> None:
    """One dashboard refresh (incremental or full recompute)."""
    metrics.counter(
        REFRESH_RUNS, "Dashboard refreshes by mode"
    ).inc(dashboard=dashboard, mode=mode)
    metrics.histogram(
        REFRESH_DURATION, "Wall time of one dashboard refresh"
    ).observe(seconds, dashboard=dashboard, mode=mode)
    if delta_rows:
        metrics.counter(
            REFRESH_DELTA_ROWS, "Source rows ingested by delta refreshes"
        ).inc(delta_rows, dashboard=dashboard)
    for reason in fallback_reasons.values():
        metrics.counter(
            REFRESH_FALLBACKS,
            "Flows that fell back to full recompute during a refresh",
        ).inc(dashboard=dashboard, reason=reason)


_POOL_EVENT_METRICS = {
    "forks": (POOL_FORKS, "Warm-pool workers forked"),
    "recycled": (
        POOL_RECYCLED,
        "Warm-pool workers retired by the max-tasks/max-rss recycle "
        "policy",
    ),
    "respawns": (
        POOL_RESPAWNS,
        "Warm-pool workers respawned after a worker loss",
    ),
    "warm_hits": (
        POOL_WARM_HITS,
        "Stage batches dispatched to already-forked warm workers",
    ),
    "dispatch_fallbacks": (
        POOL_DISPATCH_FALLBACKS,
        "Batches that fell back to cold fork because their dispatch "
        "frame refused to pickle",
    ),
}


def record_pool_event(
    metrics: MetricsRegistry, event: str, amount: int = 1
) -> None:
    """One warm-pool lifecycle event (fork/recycle/respawn/...)."""
    name, help_text = _POOL_EVENT_METRICS[event]
    metrics.counter(name, help_text).inc(amount)


def record_pool_arena(metrics: MetricsRegistry, size: int) -> None:
    """High-water total bytes of shared-memory arena pages per batch."""
    metrics.gauge(
        POOL_ARENA_BYTES,
        "High-water bytes written to shared-memory arena files by one "
        "batch",
    ).set(size)


def record_encode_fallbacks(
    metrics: MetricsRegistry, format_name: str, amount: int
) -> None:
    """Columns that stayed plain Python lists during ingest encoding.

    Counted per decoded table: a fallback means the column held mixed,
    nested, boolean or out-of-range values, so the typed/dictionary
    encodings declined it and kernels take the boxed slow path.
    """
    if amount:
        metrics.counter(
            TABLE_ENCODE_FALLBACKS,
            "Ingested columns left unencoded (mixed/nested/bool cells)",
        ).inc(amount, format=format_name)


def record_page_codec(
    metrics: MetricsRegistry, codec: str, size: int
) -> None:
    """One table page serialised by the binary page codec.

    ``codec`` labels the wire form actually used — ``typed``,
    ``typed-zlib`` or ``pickle`` — so dashboards can watch how much
    spill/transport traffic rides the compact path.
    """
    metrics.counter(
        PAGE_CODEC_BYTES,
        "Bytes written by the binary page codec (spill + transport)",
    ).inc(size, codec=codec)


def record_admission(
    metrics: MetricsRegistry, route: str, queue_depth: int, inflight: int
) -> None:
    """One request admitted into the serving tier's worker queue."""
    metrics.counter(
        SERVING_ADMITTED, "Requests admitted by the serving tier"
    ).inc(route=route)
    metrics.gauge(
        SERVING_QUEUE_DEPTH, "Requests waiting in the admission queue"
    ).set(queue_depth)
    metrics.gauge(
        SERVING_INFLIGHT, "Requests currently executing on workers"
    ).set(inflight)


def record_rejection(
    metrics: MetricsRegistry, route: str, reason: str
) -> None:
    """One request rejected before execution.

    ``reason`` is one of ``queue_full``, ``rate_limited``, ``shed``,
    ``draining`` — the intentional-shed vocabulary the load harness
    distinguishes from real 5xx failures.
    """
    metrics.counter(
        SERVING_REJECTED,
        "Requests rejected by admission control, rate limiting, "
        "overload shedding or drain",
    ).inc(route=route, reason=reason)


def record_request(
    metrics: MetricsRegistry,
    route: str,
    method: str,
    status: str,
    seconds: float,
) -> None:
    """One REST request (route is the coarse action, not the raw path)."""
    metrics.counter(HTTP_REQUESTS, "REST requests served").inc(
        route=route, method=method, status=status.split(" ", 1)[0]
    )
    metrics.histogram(
        HTTP_REQUEST_DURATION, "REST request wall time"
    ).observe(seconds, route=route)


# -- hot-spot table (CLI `run --profile`) --------------------------------

_HOTSPOT_COLUMNS = (
    "stage", "kind", "ms", "%", "rows in", "rows out", "bytes shuffled",
    "attempts",
)


def hotspot_rows(spans: list[Span]) -> list[dict[str, object]]:
    """Per-stage rows for one trace, heaviest first."""
    stages = [s for s in spans if s.name == "stage"]
    total = sum(s.duration for s in stages) or 1e-12
    rows = []
    for span in sorted(stages, key=lambda s: -s.duration):
        rows.append(
            {
                "stage": span.attrs.get("task", "?"),
                "kind": span.attrs.get("kind", "?"),
                "ms": span.duration * 1000,
                "%": 100.0 * span.duration / total,
                "rows in": span.attrs.get("rows_in", 0),
                "rows out": span.attrs.get("rows_out", 0),
                "bytes shuffled": span.attrs.get("shuffled_bytes", 0),
                "attempts": span.attrs.get("attempts", 0),
            }
        )
    return rows


def render_hotspot_table(spans: list[Span]) -> str:
    """The `run --profile` per-stage table plus a coverage footer.

    The footer compares the stage total against the engine's root span
    (``engine.run``): with per-node spans wrapping everything a stage
    does, coverage stays within a few percent of 100.
    """
    rows = hotspot_rows(spans)
    if not rows:
        return "no stages recorded (did the run execute any flows?)"
    rendered: list[list[str]] = [list(_HOTSPOT_COLUMNS)]
    for row in rows:
        rendered.append(
            [
                str(row["stage"]),
                str(row["kind"]),
                f"{row['ms']:.2f}",
                f"{row['%']:.1f}",
                str(row["rows in"]),
                str(row["rows out"]),
                str(row["bytes shuffled"]),
                str(row["attempts"]),
            ]
        )
    widths = [
        max(len(line[i]) for line in rendered)
        for i in range(len(_HOTSPOT_COLUMNS))
    ]
    lines = []
    for index, line in enumerate(rendered):
        cells = [
            cell.ljust(widths[i]) if i == 0 else cell.rjust(widths[i])
            for i, cell in enumerate(line)
        ]
        lines.append("  ".join(cells).rstrip())
        if index == 0:
            lines.append("  ".join("-" * w for w in widths))
    stage_ms = sum(row["ms"] for row in rows)  # type: ignore[misc]
    roots = [s for s in spans if s.name == "engine.run"]
    if roots:
        root_ms = roots[0].duration * 1000
        coverage = 100.0 * stage_ms / root_ms if root_ms else 100.0
        lines.append(
            f"stages total {stage_ms:.2f} ms of {root_ms:.2f} ms "
            f"engine.run ({coverage:.1f}% coverage)"
        )
    return "\n".join(lines)


def check_span_integrity(spans: list[Span]) -> list[str]:
    """Structural problems in one trace; empty list means healthy.

    Checks: exactly one root, every parent id resolves, children nest
    inside their parent's interval, every span finished.
    """
    problems: list[str] = []
    if not spans:
        return ["trace has no spans"]
    by_id = {span.span_id: span for span in spans}
    children = span_children(spans)
    roots = children.get(None, [])
    if len(roots) != 1:
        problems.append(f"expected exactly one root span, got {len(roots)}")
    for span in spans:
        if not span.finished:
            problems.append(f"span {span.span_id} ({span.name}) never ended")
        if span.parent_id is None:
            continue
        parent = by_id.get(span.parent_id)
        if parent is None:
            problems.append(
                f"span {span.span_id} ({span.name}) has unknown parent "
                f"{span.parent_id}"
            )
            continue
        if span.start < parent.start or (
            span.end is not None
            and parent.end is not None
            and span.end > parent.end
        ):
            problems.append(
                f"span {span.span_id} ({span.name}) escapes its parent "
                f"{parent.span_id} ({parent.name}) interval"
            )
    return problems
