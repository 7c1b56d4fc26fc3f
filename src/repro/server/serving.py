"""The production serving tier: concurrency with a failure budget.

The paper's platform (§4.3.1, §4.4) is a shared surface — many teams'
dashboards and ``/ds/`` consumers hit one server at once.  This module
wraps the plain WSGI app (:class:`~repro.server.app.ShareInsightsApp`)
in the machinery that makes that survivable:

* a **fixed worker pool** draining a **bounded admission queue** — when
  the queue is full the request is rejected immediately with ``503`` +
  ``Retry-After`` instead of queuing unboundedly;
* a per-request :class:`~repro.resilience.Deadline` enforced end to end
  — covering queue wait *and* execution, threaded into engine stage
  loops via :func:`~repro.resilience.deadline_scope`, surfacing as
  ``504`` on expiry;
* a **token-bucket rate limiter** per (route, tenant) answering ``429``
  with the exact ``Retry-After`` until the next token;
* an **overload controller** watching queue depth and windowed p95
  request latency (from the shared
  :class:`~repro.observability.metrics.MetricsRegistry`): past the high
  watermark the tier flips to *shed mode* — cheap routes (``/metrics``,
  ``/health``, ``/ready``, cached ``/ds/`` reads) keep serving while
  expensive recomputes (``run``, ``create``/``save``, uncached ad-hoc
  queries) are shed with structured ``503`` bodies, reusing the
  resilience layer's ``degraded: true`` last-known-good path;
* **graceful drain**: stop admitting, finish in-flight work within a
  drain deadline, checkpoint last-known-good endpoint tables through a
  :class:`~repro.resilience.CheckpointStore`.

Lock ordering (see ``docs/serving.md``): serving-tier queue lock →
platform lock → per-dashboard run lock → query-cache lock → metrics
registry lock.  Code only ever acquires locks left-to-right (skipping
levels is fine); nothing calls back into the tier while holding a
deeper lock, so the hierarchy is deadlock-free by construction.
"""

from __future__ import annotations

import math
import socketserver
import threading
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Iterable

from repro.observability.instruments import (
    HTTP_REQUEST_DURATION,
    SERVING_DEADLINE_EXPIRED,
    SERVING_INFLIGHT,
    SERVING_QUEUE_DEPTH,
    SERVING_SHED_STATE,
    record_admission,
    record_rejection,
    record_request,
)
from repro.observability.metrics import Histogram, MetricsRegistry
from repro.resilience import (
    CheckpointStore,
    Clock,
    Deadline,
    WallClock,
    deadline_scope,
)

__all__ = [
    "ServingConfig",
    "ServingTier",
    "ServingServer",
    "TokenBucket",
    "RateLimiter",
    "OverloadController",
    "serve",
]

#: routes answered inline on the I/O thread — liveness must not depend
#: on worker availability, and metrics must stay readable under overload
BYPASS_ROUTES = frozenset({"health", "ready", "metrics"})

#: actions shed outright in overload (full recomputes / mutations);
#: ``/ds/`` reads are *not* here — they degrade to cache/last-known-good
EXPENSIVE_ACTIONS = frozenset(
    {
        "create", "save", "run", "fork", "explorer", "render",
        "profile", "bottlenecks", "select", "diagnose",
    }
)

NORMAL = "normal"
SHED = "shed"


@dataclass
class ServingConfig:
    """Tuning knobs for the serving tier (see docs/serving.md)."""

    #: worker threads executing requests
    workers: int = 4
    #: bounded admission queue length (0 = no queuing: a request is
    #: only admitted when a worker is free)
    queue_depth: int = 16
    #: per-request end-to-end deadline in seconds (queue wait included)
    request_timeout: float = 10.0
    #: sustained requests/second allowed per (route, tenant); None = off
    rate_limit: float | None = None
    #: token-bucket burst size for the rate limiter
    rate_burst: int = 8
    #: seconds granted to in-flight requests during graceful drain
    drain_timeout: float = 5.0
    #: queue fill fraction that trips shed mode
    shed_queue_high: float = 0.8
    #: queue fill fraction below which shed mode can recover
    shed_queue_low: float = 0.25
    #: windowed p95 request latency (seconds) that trips shed mode;
    #: None disables the latency trigger
    shed_p95: float | None = None
    #: minimum seconds between overload-controller evaluations — also
    #: the recovery granularity the load harness measures against
    controller_window: float = 0.25
    #: Retry-After hint (seconds) on 503 rejections
    retry_after: float = 1.0

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.queue_depth < 1:
            raise ValueError("queue_depth must be >= 1")
        if self.request_timeout <= 0:
            raise ValueError("request_timeout must be positive")


# ---------------------------------------------------------------------------
# rate limiting
# ---------------------------------------------------------------------------


class TokenBucket:
    """Classic token bucket: ``rate`` tokens/second, ``burst`` capacity.

    ``try_acquire`` is non-blocking; on refusal it returns the seconds
    until the next token, which becomes the ``Retry-After`` header.
    """

    __slots__ = ("rate", "burst", "_tokens", "_updated", "_clock", "_lock")

    def __init__(self, rate: float, burst: int, clock: Clock | None = None):
        if rate <= 0:
            raise ValueError("rate must be positive")
        if burst < 1:
            raise ValueError("burst must be >= 1")
        self.rate = float(rate)
        self.burst = float(burst)
        self._clock = clock or WallClock()
        self._tokens = self.burst
        self._updated = self._clock.now()
        self._lock = threading.Lock()

    def try_acquire(self) -> tuple[bool, float]:
        """(admitted, seconds-until-next-token)."""
        with self._lock:
            now = self._clock.now()
            self._tokens = min(
                self.burst, self._tokens + (now - self._updated) * self.rate
            )
            self._updated = now
            if self._tokens >= 1.0:
                self._tokens -= 1.0
                return True, 0.0
            return False, (1.0 - self._tokens) / self.rate


class RateLimiter:
    """Per-(route, tenant) token buckets behind one lock."""

    def __init__(
        self, rate: float, burst: int, clock: Clock | None = None
    ):
        self._rate = rate
        self._burst = burst
        self._clock = clock or WallClock()
        self._buckets: dict[tuple[str, str], TokenBucket] = {}
        self._lock = threading.Lock()

    def try_acquire(self, route: str, tenant: str) -> tuple[bool, float]:
        key = (route, tenant)
        with self._lock:
            bucket = self._buckets.get(key)
            if bucket is None:
                bucket = TokenBucket(
                    self._rate, self._burst, clock=self._clock
                )
                self._buckets[key] = bucket
        return bucket.try_acquire()


# ---------------------------------------------------------------------------
# overload controller
# ---------------------------------------------------------------------------


class OverloadController:
    """Queue-depth + windowed-p95 hysteresis between NORMAL and SHED.

    Reads latency straight from the shared registry's
    ``repro_http_request_duration_seconds`` histogram: each evaluation
    merges all route series' bucket counts, diffs them against the
    previous evaluation's snapshot, and interpolates a p95 over *that
    window only* — so the signal decays as soon as load drops, instead
    of averaging over the whole process lifetime.
    """

    def __init__(
        self,
        config: ServingConfig,
        metrics: MetricsRegistry,
        clock: Clock | None = None,
    ):
        self._config = config
        self._metrics = metrics
        self._clock = clock or WallClock()
        self._lock = threading.Lock()
        self._state = NORMAL
        self._last_eval = float("-inf")
        self._last_counts: list[int] | None = None
        self._window_p95 = 0.0
        self.transitions: int = 0
        self._gauge().set(0)

    def _gauge(self):
        return self._metrics.gauge(
            SERVING_SHED_STATE,
            "1 while the overload controller is shedding, else 0",
        )

    @property
    def state(self) -> str:
        with self._lock:
            return self._state

    @property
    def shedding(self) -> bool:
        return self.state == SHED

    @property
    def window_p95(self) -> float:
        with self._lock:
            return self._window_p95

    def evaluate(self, queue_depth: int, queue_limit: int) -> str:
        """Re-evaluate at most once per controller window."""
        config = self._config
        with self._lock:
            now = self._clock.now()
            if now - self._last_eval < config.controller_window:
                return self._state
            self._last_eval = now
            self._window_p95 = self._windowed_p95()
            high = max(1, math.ceil(queue_limit * config.shed_queue_high))
            low = math.floor(queue_limit * config.shed_queue_low)
            hot_latency = (
                config.shed_p95 is not None
                and self._window_p95 > config.shed_p95
            )
            if self._state == NORMAL:
                if queue_depth >= high or hot_latency:
                    self._state = SHED
                    self.transitions += 1
                    self._gauge().set(1)
            else:
                if queue_depth <= low and not hot_latency:
                    self._state = NORMAL
                    self.transitions += 1
                    self._gauge().set(0)
            return self._state

    def _windowed_p95(self) -> float:
        """p95 of request latencies observed since the last evaluation."""
        instrument = self._metrics.get(HTTP_REQUEST_DURATION)
        if not isinstance(instrument, Histogram):
            return 0.0
        bounds = instrument.buckets
        merged = [0] * (len(bounds) + 1)
        for _labels, series in instrument.series():
            for i, count in enumerate(series.counts):
                merged[i] += count
        previous = self._last_counts or [0] * len(merged)
        if len(previous) != len(merged):
            previous = [0] * len(merged)
        delta = [m - p for m, p in zip(merged, previous)]
        self._last_counts = merged
        total = sum(delta)
        if total == 0:
            return 0.0
        target = 0.95 * total
        cumulative = 0
        lower = 0.0
        for i, bound in enumerate(bounds):
            in_bucket = delta[i]
            if cumulative + in_bucket >= target and in_bucket:
                fraction = (target - cumulative) / in_bucket
                return lower + fraction * (bound - lower)
            cumulative += in_bucket
            lower = bound
        return bounds[-1]


# ---------------------------------------------------------------------------
# admission queue + jobs
# ---------------------------------------------------------------------------


class _Job:
    """One admitted request travelling from I/O thread to worker."""

    __slots__ = (
        "environ", "deadline", "done", "lock",
        "started", "cancelled", "response",
    )

    def __init__(self, environ: dict[str, Any], deadline: Deadline):
        self.environ = environ
        self.deadline = deadline
        self.done = threading.Event()
        self.lock = threading.Lock()
        self.started = False
        self.cancelled = False
        #: (status, headers, body) once a worker finished it
        self.response: tuple[str, list[tuple[str, str]], bytes] | None = None


class AdmissionQueue:
    """A bounded FIFO of jobs; ``offer`` never blocks."""

    def __init__(self, limit: int):
        if limit < 1:
            raise ValueError("queue limit must be >= 1")
        self.limit = limit
        self._jobs: deque[_Job] = deque()
        self._condition = threading.Condition()

    def offer(self, job: _Job) -> bool:
        """Enqueue unless full; full means *reject now*, never wait."""
        with self._condition:
            if len(self._jobs) >= self.limit:
                return False
            self._jobs.append(job)
            self._condition.notify()
            return True

    def take(self, timeout: float) -> _Job | None:
        with self._condition:
            if not self._jobs:
                self._condition.wait(timeout)
            if self._jobs:
                return self._jobs.popleft()
            return None

    def depth(self) -> int:
        with self._condition:
            return len(self._jobs)


# ---------------------------------------------------------------------------
# the tier
# ---------------------------------------------------------------------------


class ServingTier:
    """WSGI middleware: admission control in front of a worker pool.

    The HTTP server's I/O threads call :meth:`__call__`; the request is
    classified, rate-limited and (possibly) shed, then enqueued for one
    of ``config.workers`` worker threads.  The I/O thread parks on the
    job's completion event for at most the request deadline, so a
    wedged worker converts to a clean ``504`` instead of a hang.
    """

    def __init__(
        self,
        app: Callable,
        config: ServingConfig | None = None,
        metrics: MetricsRegistry | None = None,
        clock: Clock | None = None,
        on_drain: Callable[[], None] | None = None,
    ):
        self.app = app
        self.config = config or ServingConfig()
        platform = getattr(app, "platform", None)
        if metrics is None and platform is not None:
            metrics = platform.observability.metrics
        self.metrics = metrics or MetricsRegistry()
        self._clock = clock or WallClock()
        self._on_drain = on_drain
        self.queue = AdmissionQueue(self.config.queue_depth)
        self.controller = OverloadController(
            self.config, self.metrics, clock=self._clock
        )
        self.limiter = (
            RateLimiter(
                self.config.rate_limit,
                self.config.rate_burst,
                clock=self._clock,
            )
            if self.config.rate_limit
            else None
        )
        self._inflight = 0
        self._inflight_lock = threading.Lock()
        self._idle = threading.Event()
        self._idle.set()
        self._draining = False
        self._stopped = False
        self._workers: list[threading.Thread] = []

    # -- lifecycle ---------------------------------------------------------
    def start(self) -> "ServingTier":
        if self._workers:
            return self
        for index in range(self.config.workers):
            thread = threading.Thread(
                target=self._worker_loop,
                name=f"serving-worker-{index}",
                daemon=True,
            )
            thread.start()
            self._workers.append(thread)
        return self

    @property
    def draining(self) -> bool:
        return self._draining

    def inflight(self) -> int:
        with self._inflight_lock:
            return self._inflight

    def snapshot(self) -> dict[str, Any]:
        """Tier state for ``/ready`` and the load harness."""
        return {
            "workers": self.config.workers,
            "queue_depth": self.queue.depth(),
            "queue_limit": self.config.queue_depth,
            "inflight": self.inflight(),
            "draining": self._draining,
            "state": self.controller.state,
            "window_p95_seconds": round(self.controller.window_p95, 6),
        }

    def drain(self, timeout: float | None = None) -> bool:
        """Graceful shutdown: reject new work, finish in-flight, then
        checkpoint.  Returns True when everything finished in time."""
        self._draining = True
        budget = self.config.drain_timeout if timeout is None else timeout
        deadline = Deadline.after(budget, clock=self._clock)
        drained = False
        while True:
            if self.queue.depth() == 0 and self.inflight() == 0:
                drained = True
                break
            if deadline.expired:
                break
            self._idle.wait(min(0.05, max(deadline.remaining(), 0.001)))
        if self._on_drain is not None:
            self._on_drain()
        self._stopped = True
        for thread in self._workers:
            thread.join(timeout=1.0)
        self._workers = []
        return drained

    close = drain

    # -- WSGI entry --------------------------------------------------------
    def __call__(
        self, environ: dict[str, Any], start_response
    ) -> Iterable[bytes]:
        path = environ.get("PATH_INFO", "/")
        method = environ.get("REQUEST_METHOD", "GET").upper()
        segments = [s for s in path.split("/") if s]
        route = _route_label(path)
        environ["repro.serving"] = self

        # Liveness/metrics bypass the queue entirely: they must answer
        # even when every worker is busy or the tier is draining.
        if segments and segments[0] in BYPASS_ROUTES and method == "GET":
            return self.app(environ, start_response)

        if self._draining or self._stopped:
            record_rejection(self.metrics, route, "draining")
            return _reject(
                start_response, self.metrics, route, method,
                503, "ServerDraining",
                "server is draining; retry against another replica",
                retry_after=self.config.retry_after,
            )

        if self.limiter is not None:
            tenant = _tenant(environ)
            admitted, wait = self.limiter.try_acquire(route, tenant)
            if not admitted:
                record_rejection(self.metrics, route, "rate_limited")
                return _reject(
                    start_response, self.metrics, route, method,
                    429, "RateLimited",
                    f"rate limit exceeded for tenant {tenant!r} "
                    f"on route {route!r}",
                    retry_after=wait,
                )

        state = self.controller.evaluate(
            self.queue.depth(), self.config.queue_depth
        )
        if state == SHED:
            action = segments[2] if len(segments) > 2 else (
                segments[0] if segments else ""
            )
            if action in EXPENSIVE_ACTIONS:
                record_rejection(self.metrics, route, "shed")
                return _reject(
                    start_response, self.metrics, route, method,
                    503, "Overloaded",
                    "server is shedding expensive requests; "
                    "cached reads are still served",
                    retry_after=self.config.retry_after,
                    shed=True,
                )
            # /ds/ reads degrade instead of shedding: the app serves
            # the installed endpoint snapshot (or a last-known-good
            # copy) and never resolves an endpoint lazily.
            environ["repro.serving.shed"] = True

        deadline = Deadline.after(
            self.config.request_timeout, clock=self._clock
        )
        environ["repro.deadline"] = deadline
        job = _Job(environ, deadline)
        if not self.queue.offer(job):
            record_rejection(self.metrics, route, "queue_full")
            return _reject(
                start_response, self.metrics, route, method,
                503, "QueueFull",
                f"admission queue is full "
                f"({self.config.queue_depth} waiting)",
                retry_after=self.config.retry_after,
            )
        record_admission(
            self.metrics, route, self.queue.depth(), self.inflight()
        )

        finished = job.done.wait(deadline.remaining() + 0.05)
        if not finished and job.response is None:
            with job.lock:
                if not job.started:
                    job.cancelled = True
            if job.cancelled or job.response is None:
                self.metrics.counter(
                    SERVING_DEADLINE_EXPIRED,
                    "Requests that blew their deadline in queue or "
                    "on a worker",
                ).inc(route=route)
                return _reject(
                    start_response, self.metrics, route, method,
                    504, "DeadlineExceededError",
                    f"request exceeded its "
                    f"{self.config.request_timeout:.3f}s deadline",
                    retry_after=self.config.retry_after,
                )
        if job.response is None:  # pragma: no cover - defensive
            return _reject(
                start_response, self.metrics, route, method,
                503, "WorkerUnavailable", "no worker produced a response",
                retry_after=self.config.retry_after,
            )
        status, headers, body = job.response
        start_response(status, headers)
        return [body]

    # -- workers -----------------------------------------------------------
    def _worker_loop(self) -> None:
        while not self._stopped:
            job = self.queue.take(timeout=0.05)
            if job is None:
                continue
            self._update_gauges()
            with job.lock:
                if job.cancelled:
                    job.done.set()
                    continue
                if job.deadline.expired:
                    # Expired while queued: answer 504 without running.
                    job.response = _error_response(
                        504, "DeadlineExceededError",
                        f"deadline of {job.deadline.budget:.3f}s "
                        f"expired while queued",
                        retry_after=self.config.retry_after,
                    )
                    job.done.set()
                    continue
                job.started = True
            self._enter()
            try:
                job.response = self._execute(job)
            finally:
                self._exit()
                job.done.set()

    def _execute(
        self, job: _Job
    ) -> tuple[str, list[tuple[str, str]], bytes]:
        captured: dict[str, Any] = {}

        def start_response(status, headers):
            captured["status"] = status
            captured["headers"] = list(headers)

        try:
            with deadline_scope(job.deadline):
                chunks = self.app(job.environ, start_response)
                body = b"".join(chunks)
        except Exception as exc:  # noqa: BLE001 - the tier must answer
            return _error_response(
                500, type(exc).__name__,
                f"unhandled error in worker: {exc}",
            )
        return (
            captured.get("status", "200 OK"),
            captured.get("headers", []),
            body,
        )

    def _enter(self) -> None:
        with self._inflight_lock:
            self._inflight += 1
            self._idle.clear()

    def _exit(self) -> None:
        with self._inflight_lock:
            self._inflight -= 1
            if self._inflight == 0:
                self._idle.set()
        self._update_gauges()

    def _update_gauges(self) -> None:
        self.metrics.gauge(
            SERVING_QUEUE_DEPTH,
            "Requests waiting in the admission queue",
        ).set(self.queue.depth())
        self.metrics.gauge(
            SERVING_INFLIGHT,
            "Requests currently executing on workers",
        ).set(self.inflight())


# ---------------------------------------------------------------------------
# rejection / response helpers
# ---------------------------------------------------------------------------

_REASONS = {
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}


def _error_response(
    code: int,
    error_type: str,
    detail: str,
    retry_after: float | None = None,
    **extra: Any,
) -> tuple[str, list[tuple[str, str]], bytes]:
    import json

    payload: dict[str, Any] = {
        "error": {
            "type": error_type,
            "retryable": code in (429, 503, 504),
            "detail": detail,
        }
    }
    payload.update(extra)
    body = json.dumps(payload).encode("utf-8")
    headers = [
        ("Content-Type", "application/json"),
        ("Content-Length", str(len(body))),
    ]
    if retry_after is not None:
        headers.append(
            ("Retry-After", str(max(1, math.ceil(retry_after))))
        )
    status = f"{code} {_REASONS.get(code, 'Error')}"
    return status, headers, body


def _reject(
    start_response,
    metrics: MetricsRegistry,
    route: str,
    method: str,
    code: int,
    error_type: str,
    detail: str,
    retry_after: float | None = None,
    **extra: Any,
) -> Iterable[bytes]:
    """Answer a rejection from the I/O thread, recording it as a
    request so RPS/latency series include intentional sheds."""
    status, headers, body = _error_response(
        code, error_type, detail, retry_after=retry_after, **extra
    )
    record_request(metrics, route, method, status, 0.0)
    start_response(status, headers)
    return [body]


def _tenant(environ: dict[str, Any]) -> str:
    tenant = environ.get("HTTP_X_TENANT")
    if tenant:
        return str(tenant)
    query = environ.get("QUERY_STRING", "")
    if "tenant=" in query:
        from urllib.parse import parse_qsl

        for key, value in parse_qsl(query):
            if key == "tenant":
                return value
    return "anonymous"


def _route_label(path: str) -> str:
    """Kept in sync with ``repro.server.app._route_label`` (imported
    lazily there to avoid a module cycle)."""
    from repro.server.app import _route_label as app_route_label

    return app_route_label(path)


# ---------------------------------------------------------------------------
# the socket server
# ---------------------------------------------------------------------------


class ServingServer:
    """A threaded HTTP server fronting a :class:`ServingTier`.

    Connection threads (one per client, cheap I/O only) parse HTTP and
    call the tier; actual work happens on the tier's fixed worker pool.
    ``port=0`` binds an ephemeral port (read ``server_address``), and
    ``ready_event`` is set once the socket is listening *and* workers
    are started — integration tests start :meth:`serve_forever` in a
    thread and wait on it instead of sleeping.
    """

    def __init__(
        self,
        tier: ServingTier,
        host: str = "127.0.0.1",
        port: int = 8350,
        ready_event: threading.Event | None = None,
    ):
        from wsgiref.simple_server import WSGIServer, WSGIRequestHandler

        class _Handler(WSGIRequestHandler):
            def log_message(self, *args):  # silence per-request stderr
                pass

        class _ThreadedServer(socketserver.ThreadingMixIn, WSGIServer):
            daemon_threads = True
            # A burst beyond the admission queue parks in the kernel
            # backlog; the tier answers each quickly (admit or reject).
            request_queue_size = 128

        self.tier = tier
        self._server = _ThreadedServer((host, port), _Handler)
        self._server.set_app(tier)
        self.ready_event = ready_event or threading.Event()
        self._thread: threading.Thread | None = None

    @property
    def server_address(self) -> tuple[str, int]:
        return self._server.server_address

    def serve_forever(self) -> None:
        self.tier.start()
        self.ready_event.set()
        self._server.serve_forever(poll_interval=0.05)

    def start_background(self) -> "ServingServer":
        """Serve on a daemon thread; returns once the tier is ready."""
        self._thread = threading.Thread(
            target=self.serve_forever, daemon=True, name="serving-accept"
        )
        self._thread.start()
        self.ready_event.wait(5.0)
        return self

    def shutdown(self, drain_timeout: float | None = None) -> bool:
        """Graceful: drain the tier, then stop accepting."""
        drained = self.tier.drain(timeout=drain_timeout)
        self._server.shutdown()
        self._server.server_close()
        if self._thread is not None:
            self._thread.join(timeout=2.0)
            self._thread = None
        return drained

    def __enter__(self) -> "ServingServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()


def serve(
    platform,
    host: str = "127.0.0.1",
    port: int = 8350,
    config: ServingConfig | None = None,
    ready_event: threading.Event | None = None,
    checkpoints: CheckpointStore | None = None,
    pool_warm: int = 0,
) -> ServingServer:
    """Build app + tier + threaded server over one platform.

    On drain, every dashboard's last-known-good endpoint tables are
    checkpointed into ``checkpoints`` (one is created if not given) so
    a restarted server can serve degraded reads immediately; a store
    that already holds checkpoints (a :class:`DiskCheckpointStore`
    from a previous process) is restored into the app at startup.

    ``pool_warm > 0`` preforks the platform's warm process pool with
    that many workers **before** the first request — forking from the
    single-threaded startup path is safe, and recompute requests that
    ask for ``?executor=processes`` then pay zero fork cost.  The
    drain hook reaps the pool along with the worker threads, so no
    worker processes or arena files outlive the server.
    """
    from repro.server.app import ShareInsightsApp

    app = ShareInsightsApp(platform)
    store = checkpoints if checkpoints is not None else CheckpointStore()
    if len(store):
        app.restore_last_good(store)
    if pool_warm > 0:
        platform.warm_pool(workers=pool_warm)

    def on_drain() -> None:
        app.checkpoint_last_good(store)
        platform.close_pool()

    tier = ServingTier(
        app,
        config=config,
        metrics=platform.observability.metrics,
        on_drain=on_drain,
    ).start()
    server = ServingServer(
        tier, host=host, port=port, ready_event=ready_event
    )
    server.checkpoints = store
    return server
