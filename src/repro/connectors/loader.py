"""Data-object loading: connector + format + schema → Table.

This is the runtime behind the flow file's data section: given a data
object's configuration (protocol, source, format, payload options) and its
declared schema, produce a table.  Protocol defaults follow the paper's
examples — a bare ``source: file.csv`` implies the file protocol, a
``source: https://...`` URL implies HTTP.

Two ingestion fast paths live here:

* **Streaming decode** — a data object configured with ``stream: true``
  whose connector exposes ``fetch_chunks`` and whose format sets
  ``supports_chunks`` decodes from an iterator of byte chunks, never
  holding the raw payload in memory.
* **Parallel loading** — :meth:`DataObjectLoader.load_many` fetches and
  decodes several independent data objects on a
  :class:`~repro.engine.scheduler.WorkerPool` (thread- or
  process-backed; see ``docs/parallelism.md``).  Workers run pure
  fetch+decode; the coordinator resolves protocols and formats in spec
  order up front and replays spans, metrics and the first failure in
  that same canonical order, so results *and telemetry* are identical
  at every parallelism and executor (span durations for the replayed
  ``connector.fetch``/``format.decode`` spans are nominal — the
  worker-measured wall times feed the duration histograms instead).
  Jobs whose sources all estimate under
  :attr:`DataObjectLoader.small_job_bytes` skip the pool entirely:
  sequential loading wins below a few MB per source, so the fallback
  (logged, counted in ``repro_ingest_parallel_fallback_total``) is
  what makes ``parallelism`` safe to leave on.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from functools import partial
from time import perf_counter
from typing import Any, Iterator, Mapping, Sequence

from repro.connectors.registry import (
    ConnectorRegistry,
    default_connector_registry,
)
from repro.data import Schema, Table
from repro.engine.scheduler import ProcessPool, WorkerPool
from repro.errors import ConnectorError
from repro.formats.registry import FormatRegistry, default_format_registry
from repro.observability import Observability
from repro.observability.instruments import (
    CONNECTOR_BYTES,
    CONNECTOR_FETCH_DURATION,
    CONNECTOR_FETCHES,
    INGEST_DELTA_RELOADS,
    INGEST_PARALLEL_FALLBACK,
    record_encode_fallbacks,
    record_ingest,
)

_LOG = logging.getLogger("repro.ingest")


@dataclass
class DeltaLoad:
    """What :meth:`DataObjectLoader.load_delta` produced for one source.

    ``mode`` mirrors the connector's delta modes:

    * ``"none"`` — nothing changed; ``table`` is ``None``.
    * ``"append"`` — ``table`` holds *only the new rows* since the last
      state.
    * ``"full"`` — ``table`` holds the whole current source; ``reason``
      says why (``docs/incremental.md`` has the vocabulary).

    ``state`` is the opaque token to hand back on the next call; callers
    persist it per source between refresh cycles.
    """

    mode: str
    table: Table | None
    state: dict[str, Any] | None = field(default=None)
    reason: str | None = None


class DataObjectLoader:
    """Loads (and stores) data objects through the registries.

    Every fetch runs inside a ``connector.fetch`` span and records
    per-protocol fetch counts, latency histograms and payload bytes
    into the observability registry; every decode runs inside a
    ``format.decode`` span and records per-format row counts and
    decode latency.
    """

    #: per-source size under which :meth:`load_many` skips the pool —
    #: fetch+decode of a few MB finishes before a pool amortizes its
    #: startup, so small jobs run sequentially (0 disables the check)
    DEFAULT_SMALL_JOB_BYTES = 8 << 20

    def __init__(
        self,
        connectors: ConnectorRegistry | None = None,
        formats: FormatRegistry | None = None,
        observability: Observability | None = None,
    ):
        self.connectors = connectors or default_connector_registry()
        self.formats = formats or default_format_registry()
        self.observability = observability or Observability()
        self.small_job_bytes = self.DEFAULT_SMALL_JOB_BYTES

    def load(self, schema: Schema, config: Mapping[str, Any]) -> Table:
        """Fetch + decode a data object into a table."""
        protocol = infer_protocol(config)
        connector = self.connectors.get(protocol)
        stream = self._stream_plan(connector, config)
        if stream is not None:
            return self._load_streaming(
                schema, config, protocol, connector, *stream
            )
        obs = self.observability
        with obs.tracer.span(
            "connector.fetch",
            protocol=protocol,
            source=str(config.get("source", "")),
        ) as span:
            result = connector.fetch(config)
            payload_bytes = (
                len(result.payload) if result.payload is not None else 0
            )
            span.set(bytes=payload_bytes)
        self._record_fetch(protocol, span.duration, payload_bytes)
        if result.table is not None:
            return _align(result.table, schema)
        format_name = infer_format(config)
        fmt = self.formats.get(format_name)
        with obs.tracer.span(
            "format.decode", format=format_name
        ) as decode_span:
            table = fmt.decode(
                result.payload or b"", schema, options=config
            )
            decode_span.set(rows=table.num_rows)
        record_ingest(
            obs.metrics, format_name, table.num_rows, decode_span.duration
        )
        record_encode_fallbacks(
            obs.metrics, format_name, table.encode_fallbacks
        )
        return table

    def load_delta(
        self,
        schema: Schema,
        config: Mapping[str, Any],
        state: Mapping[str, Any] | None = None,
    ) -> DeltaLoad:
        """Load only what changed since ``state`` (delta ingestion).

        The delta path needs a delta-capable connector (file: size,
        mtime and a verified resume offset).  The format, through its
        ``delta_*`` hooks, says where appends resume and how appended
        bytes become a payload its *unchanged* ``decode`` turns into
        exactly the appended rows (CSV: header + new lines; a JSON
        array: ``[`` + new elements + ``]``).  Any doubt is a full
        reload with a ``reason``; a connector without deltas degrades
        to a plain :meth:`load` with no state, so callers can probe any
        source safely.
        """
        protocol = infer_protocol(config)
        connector = self.connectors.get(protocol)
        if not getattr(connector, "supports_delta", False):
            load = DeltaLoad("full", self.load(schema, config))
            return self._reloaded(load, "no_delta_format")
        format_name = infer_format(config)
        fmt = self.formats.get(format_name)
        state = dict(state or {})
        obs = self.observability
        resume = None  # no resume points: every growth reloads whole
        if fmt.delta_resumable(config):
            resume = partial(fmt.delta_resume, options=config)

        def fetch(cursor: Any) -> Any:
            with obs.tracer.span(
                "connector.fetch",
                protocol=protocol,
                source=str(config.get("source", "")),
                delta=True,
            ) as span:
                delta = connector.fetch_delta(config, cursor, resume)
                payload_len = len(delta.payload or b"")
                span.set(bytes=payload_len, mode=delta.mode)
            self._record_fetch(protocol, span.duration, payload_len)
            return delta

        delta = fetch(state.get("cursor"))
        if delta.mode == "none":
            return DeltaLoad(mode="none", table=None, state=state)
        payload = delta.payload
        if delta.mode == "append":
            payload = fmt.delta_payload(
                state.get("preamble", b""), payload, options=config
            )
            if payload is None:
                delta = fetch(None)
                delta.reason, payload = "tail_unparseable", delta.payload
        if delta.mode == "full":
            state["preamble"] = payload[
                : fmt.delta_preamble(payload, options=config)
            ]
        with obs.tracer.span(
            "format.decode", format=format_name
        ) as decode_span:
            table = fmt.decode(payload, schema, options=config)
            decode_span.set(rows=table.num_rows)
        record_ingest(
            obs.metrics, format_name, table.num_rows, decode_span.duration
        )
        record_encode_fallbacks(
            obs.metrics, format_name, table.encode_fallbacks
        )
        state["cursor"] = delta.cursor
        return self._reloaded(
            DeltaLoad(delta.mode, table, state), delta.reason
        )

    def _reloaded(self, load: DeltaLoad, reason: str | None) -> DeltaLoad:
        """Count a ``"full"`` delta load by its reason."""
        if load.mode == "full":
            load.reason = reason
            self.observability.metrics.counter(
                INGEST_DELTA_RELOADS,
                "Delta-tracked sources reloaded in full, by reason",
            ).inc(reason=reason)
        return load

    def load_many(
        self,
        specs: Sequence[tuple[Schema, Mapping[str, Any]]],
        parallelism: int = 1,
        executor: str = "threads",
        pool: ProcessPool | None = None,
    ) -> list[Table]:
        """Load several data objects, optionally concurrently.

        ``specs`` is a sequence of ``(schema, config)`` pairs; tables
        come back in spec order.  Protocols, connectors and stream plans
        resolve in spec order before any worker starts; workers run pure
        fetch+decode with no tracer or metrics access (each unit returns
        its ``(state, table, error)`` triple, so nothing depends on
        shared memory and the ``processes`` executor works unchanged);
        the coordinator then replays each spec's spans and metrics — and
        re-raises the first failure inside the span it escaped from — in
        canonical spec order.  Tables, span trees and metric counters
        are therefore identical at every ``parallelism`` and
        ``executor``.

        One deliberate exception: when every source's estimated payload
        is under :attr:`small_job_bytes`, a ``parallelism > 1`` call
        falls back to sequential loading (pool startup would cost more
        than it saves — the recorded 1145 ms-vs-973 ms regression) and
        increments ``repro_ingest_parallel_fallback_total``.  That
        counter is the only telemetry allowed to differ between
        parallelism settings; set ``small_job_bytes = 0`` to disable
        the fallback (the determinism tests do).

        ``pool`` lends a warm :class:`~repro.engine.scheduler.ProcessPool`
        for the ``processes`` executor; without one the cold fork path
        runs as before.
        """
        specs = list(specs)
        if not specs:
            return []
        plans = [
            self._plan_spec(schema, config) for schema, config in specs
        ]
        reason = self._sequential_fallback_reason(plans, parallelism)
        if reason is not None:
            _LOG.info("parallel loading fell back to sequential: %s", reason)
            self.observability.metrics.counter(
                INGEST_PARALLEL_FALLBACK,
                "Parallel load_many calls that ran sequentially",
            ).inc(reason="small-job")
            parallelism = 1
        workers = WorkerPool(parallelism, executor=executor, pool=pool)
        thunks = [_LoadUnit(plan, self.formats) for plan in plans]
        tables: list[Table] = []
        for plan, outcome in zip(plans, workers.map_ordered(thunks)):
            if outcome.failed:
                # The unit itself never raises — this is executor-level
                # breakage (lost worker, transport): surface it as a
                # fetch-phase failure so it lands inside a span.
                state, table, error = _fresh_state(), None, outcome.error
            else:
                state, table, error = outcome.value
            tables.append(self._replay_unit(plan, state, table, error))
        return tables

    def _sequential_fallback_reason(
        self,
        plans: Sequence[Mapping[str, Any]],
        parallelism: int,
    ) -> str | None:
        """Why a parallel load should run sequentially, or None.

        Only trips when *every* source has a known estimate below the
        threshold — an unknown size (HTTP, JDBC) is assumed large
        enough that fetch latency overlaps usefully.
        """
        if parallelism <= 1 or len(plans) <= 1:
            return None
        threshold = self.small_job_bytes
        if threshold <= 0:
            return None
        largest = 0
        for plan in plans:
            estimate = plan["connector"].estimate_bytes(plan["config"])
            if estimate is None or estimate >= threshold:
                return None
            largest = max(largest, estimate)
        return (
            f"all {len(plans)} sources estimate below the "
            f"{threshold}-byte small-job threshold (largest ~{largest})"
        )

    def save(self, table: Table, config: Mapping[str, Any]) -> None:
        """Encode + store a sink table."""
        protocol = infer_protocol(config)
        connector = self.connectors.get(protocol)
        # JDBC writes structured rows; everything else writes a payload.
        store_table = getattr(connector, "store_table", None)
        if store_table is not None and protocol == "jdbc":
            store_table(config, table)
            return
        fmt = self.formats.get(infer_format(config))
        connector.store(config, fmt.encode(table, options=config))

    # -- streaming fast path ---------------------------------------------

    def _stream_plan(
        self, connector: Any, config: Mapping[str, Any]
    ) -> tuple[str, Any] | None:
        """``(format_name, fmt)`` when this data object stream-decodes.

        Streaming is opt-in (``stream: true``) and requires a chunked
        connector and a chunk-capable format; anything else — including
        an unknown format name, whose error belongs on the whole-payload
        path — falls back to whole-payload loading.
        """
        if not _as_bool(config.get("stream", False)):
            return None
        if getattr(connector, "fetch_chunks", None) is None:
            return None
        format_name = infer_format(config)
        try:
            fmt = self.formats.get(format_name)
        except Exception:
            return None
        if not fmt.supports_chunks:
            return None
        return format_name, fmt

    def _load_streaming(
        self,
        schema: Schema,
        config: Mapping[str, Any],
        protocol: str,
        connector: Any,
        format_name: str,
        fmt: Any,
    ) -> Table:
        obs = self.observability
        with obs.tracer.span(
            "connector.fetch",
            protocol=protocol,
            source=str(config.get("source", "")),
        ) as fetch_span:
            chunks = connector.fetch_chunks(config)
        self._record_fetch(protocol, fetch_span.duration, 0)
        counted = _CountingChunks(chunks)
        with obs.tracer.span(
            "format.decode", format=format_name
        ) as decode_span:
            table = fmt.decode(counted, schema, options=config)
            decode_span.set(rows=table.num_rows)
        # Byte count is only known once the decoder drained the stream;
        # span attributes are read at trace() time, so setting it after
        # the span closed is equivalent.
        fetch_span.set(bytes=counted.total)
        self._record_bytes(protocol, counted.total)
        record_ingest(
            obs.metrics, format_name, table.num_rows, decode_span.duration
        )
        record_encode_fallbacks(
            obs.metrics, format_name, table.encode_fallbacks
        )
        return table

    # -- parallel loading ------------------------------------------------

    def _plan_spec(
        self, schema: Schema, config: Mapping[str, Any]
    ) -> dict[str, Any]:
        """Coordinator-side resolution, in canonical spec order."""
        protocol = infer_protocol(config)
        connector = self.connectors.get(protocol)
        return {
            "schema": schema,
            "config": config,
            "protocol": protocol,
            "connector": connector,
            "source": str(config.get("source", "")),
            "stream": self._stream_plan(connector, config),
        }

    def _replay_unit(
        self,
        plan: Mapping[str, Any],
        state: Mapping[str, Any],
        table: Table | None,
        error: Exception | None,
    ) -> Table:
        """Emit one spec's telemetry exactly as :meth:`load` would.

        A captured worker failure re-raises inside the span it escaped
        from (fetch/decode) or between spans (resolve/align), so traces
        carry the same ``error`` attributes as sequential loading.
        """
        obs = self.observability
        protocol = plan["protocol"]
        streaming = plan["stream"] is not None
        failed_phase = state["phase"] if error is not None else None
        with obs.tracer.span(
            "connector.fetch", protocol=protocol, source=plan["source"]
        ) as fetch_span:
            if failed_phase == "fetch":
                raise error
            if not streaming:
                fetch_span.set(bytes=state["bytes"])
        self._record_fetch(
            protocol,
            state["fetch_seconds"],
            0 if streaming else state["bytes"],
        )
        if failed_phase in ("resolve", "align"):
            raise error
        if state["phase"] == "align":
            return table
        with obs.tracer.span(
            "format.decode", format=state["format"]
        ) as decode_span:
            if failed_phase == "decode":
                raise error
            decode_span.set(rows=state["rows"])
        if streaming:
            fetch_span.set(bytes=state["bytes"])
            self._record_bytes(protocol, state["bytes"])
        record_ingest(
            obs.metrics,
            state["format"],
            state["rows"],
            state["decode_seconds"],
        )
        return table

    # -- shared metric shapes --------------------------------------------

    def _record_fetch(
        self, protocol: str, seconds: float, payload_bytes: int
    ) -> None:
        metrics = self.observability.metrics
        metrics.counter(
            CONNECTOR_FETCHES, "Data-object fetches by protocol"
        ).inc(protocol=protocol)
        metrics.histogram(
            CONNECTOR_FETCH_DURATION, "Connector fetch wall time"
        ).observe(seconds, protocol=protocol)
        if payload_bytes:
            self._record_bytes(protocol, payload_bytes)

    def _record_bytes(self, protocol: str, payload_bytes: int) -> None:
        if not payload_bytes:
            return
        self.observability.metrics.counter(
            CONNECTOR_BYTES, "Raw payload bytes fetched by protocol"
        ).inc(payload_bytes, protocol=protocol)


class _LoadUnit:
    """One spec's pure fetch+decode, as a picklable callable.

    Module-level (rather than a bound-method closure) so the warm
    process pool can pickle it into an already-forked worker; carries
    only the resolved plan and the format registry.  Returns
    ``(state, table, error)`` — everything the coordinator needs to
    replay telemetry travels in the return value, never through shared
    state, so the unit behaves identically on every executor.
    Exceptions are captured (not raised) because the half-filled
    ``state`` must survive for the replay to raise them inside the
    right span.
    """

    __slots__ = ("plan", "formats")

    def __init__(self, plan: Mapping[str, Any], formats: FormatRegistry):
        self.plan = plan
        self.formats = formats

    def __call__(
        self,
    ) -> tuple[dict[str, Any], Table | None, Exception | None]:
        state = _fresh_state()
        try:
            return state, _fetch_decode(self.plan, state, self.formats), None
        except Exception as exc:
            return state, None, exc


def _fetch_decode(
    plan: Mapping[str, Any],
    state: dict[str, Any],
    formats: FormatRegistry,
) -> Table:
    schema = plan["schema"]
    config = plan["config"]
    connector = plan["connector"]
    if plan["stream"] is not None:
        format_name, fmt = plan["stream"]
        state["format"] = format_name
        start = perf_counter()
        chunks = connector.fetch_chunks(config)
        state["fetch_seconds"] = perf_counter() - start
        counted = _CountingChunks(chunks)
        state["phase"] = "decode"
        start = perf_counter()
        table = fmt.decode(counted, schema, options=config)
        state["decode_seconds"] = perf_counter() - start
        state["bytes"] = counted.total
        state["rows"] = table.num_rows
        return table
    start = perf_counter()
    result = connector.fetch(config)
    state["fetch_seconds"] = perf_counter() - start
    state["bytes"] = (
        len(result.payload) if result.payload is not None else 0
    )
    if result.table is not None:
        state["phase"] = "align"
        return _align(result.table, schema)
    state["phase"] = "resolve"
    format_name = infer_format(config)
    state["format"] = format_name
    fmt = formats.get(format_name)
    state["phase"] = "decode"
    start = perf_counter()
    table = fmt.decode(result.payload or b"", schema, options=config)
    state["decode_seconds"] = perf_counter() - start
    state["rows"] = table.num_rows
    return table


def _fresh_state() -> dict[str, Any]:
    """Per-spec slots a worker fills for the coordinator's replay."""
    return {
        "phase": "fetch",
        "bytes": 0,
        "rows": 0,
        "fetch_seconds": 0.0,
        "decode_seconds": 0.0,
        "format": None,
    }


class _CountingChunks:
    """Chunk-iterator wrapper counting bytes as the decoder pulls them."""

    __slots__ = ("_chunks", "total")

    def __init__(self, chunks: Iterator[bytes]):
        self._chunks = chunks
        self.total = 0

    def __iter__(self) -> Iterator[bytes]:
        for chunk in self._chunks:
            self.total += len(chunk)
            yield chunk


def infer_protocol(config: Mapping[str, Any]) -> str:
    """Decide which connector serves a data object."""
    protocol = config.get("protocol")
    if protocol:
        return str(protocol).lower()
    if config.get("rows") is not None:
        return "inline"
    source = str(config.get("source", ""))
    if source.startswith("https://"):
        return "https"
    if source.startswith("http://"):
        return "http"
    if source.startswith("ftp://"):
        return "ftp"
    if source.startswith("jdbc:") or config.get("query") or config.get("table"):
        return "jdbc"
    if source:
        return "file"
    raise ConnectorError(
        "data object has no 'source', 'rows' or 'protocol' configuration"
    )


def infer_format(config: Mapping[str, Any]) -> str:
    """Decide the payload format, from ``format:`` or the source suffix."""
    fmt = config.get("format")
    if fmt:
        return str(fmt).lower()
    source = str(config.get("source", "")).split("?", 1)[0].lower()
    for suffix, name in (
        (".csv", "csv"),
        (".tsv", "csv"),
        (".json", "json"),
        (".jsonl", "jsonl"),
        (".xml", "xml"),
        (".avro", "avro"),
        (".txt", "csv"),
    ):
        if source.endswith(suffix):
            return name
    return "csv"


def _align(table: Table, schema: Schema) -> Table:
    """Project/rename a structured result onto the declared schema.

    JDBC results come back with database column names; the declared schema
    may rename them via ``=>`` mappings or select a subset.  Runs column
    at a time: present source columns are adopted as copies, absent ones
    become null columns.
    """
    if table.schema.names == schema.names:
        return table
    available = set(table.schema.names)
    length = table.num_rows
    columns: dict[str, list[Any]] = {}
    for column in schema:
        key = column.source_path or column.name
        if key in available:
            columns[column.name] = list(table.column(key))
        else:
            columns[column.name] = [None] * length
    return Table.from_columns(
        schema, columns, length if schema.names else 0
    )


def _as_bool(value: Any) -> bool:
    if isinstance(value, str):
        return value.strip().lower() in ("true", "yes", "1")
    return bool(value)
