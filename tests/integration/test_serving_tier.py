"""Integration: the serving tier over real sockets.

``serve(platform, port=0, ready_event=...)`` binds an ephemeral port
and signals readiness, so these tests never sleep to synchronize and
never collide on a fixed port.  They walk the production path end to
end: HTTP client → connection thread → admission queue → worker pool →
ShareInsightsApp → platform.
"""

import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro import Platform
from repro.data import Schema, Table
from repro.server import ServingConfig, serve

FLOW = (
    "D:\n    raw: [project, category, stars]\n"
    "    counts: [category, projects]\n"
    "F:\n    D.counts: D.raw | T.agg\n"
    "    D.counts:\n        endpoint: true\n"
    "T:\n"
    "    agg:\n"
    "        type: groupby\n"
    "        groupby: [category]\n"
    "        aggregates:\n"
    "            - operator: count\n"
    "              out_field: projects\n"
)

RAW = Table.from_rows(
    Schema.of("project", "category", "stars"),
    [
        ("hadoop", "big data", 900),
        ("spark", "big data", 1200),
        ("kafka", "streaming", 800),
    ],
)


def _request(base, method, path, body=b""):
    """(status, headers, parsed-or-raw body); HTTP errors included."""
    request = urllib.request.Request(
        base + path, data=body if method == "POST" else None,
        method=method,
    )
    try:
        with urllib.request.urlopen(request, timeout=10.0) as response:
            payload = response.read()
            return response.status, dict(response.headers), payload
    except urllib.error.HTTPError as error:
        return error.code, dict(error.headers), error.read()


@pytest.fixture
def server():
    platform = Platform()
    ready = threading.Event()
    handle = serve(
        platform,
        port=0,
        ready_event=ready,
        config=ServingConfig(workers=2, queue_depth=8,
                             request_timeout=5.0),
    )
    thread = threading.Thread(target=handle.serve_forever, daemon=True)
    thread.start()
    assert ready.wait(5.0), "server never became ready"
    host, port = handle.server_address
    handle.base = f"http://{host}:{port}"
    handle.platform = platform
    yield handle
    handle.shutdown(drain_timeout=2.0)


def _create_and_run(server):
    status, _headers, _body = _request(
        server.base, "POST", "/dashboards/proj/create", FLOW.encode()
    )
    assert status == 201
    server.platform.get_dashboard("proj")._inline_tables["raw"] = RAW
    status, _headers, body = _request(
        server.base, "POST", "/dashboards/proj/run"
    )
    assert status == 200
    return json.loads(body)


class TestLifecycle:
    def test_ephemeral_port_and_ready_event(self, server):
        host, port = server.server_address
        assert host == "127.0.0.1"
        assert port > 0

    def test_health_is_always_cheap(self, server):
        status, _headers, body = _request(server.base, "GET", "/health")
        assert status == 200
        assert json.loads(body) == {"status": "ok"}

    def test_ready_reports_tier_snapshot_and_breakers(self, server):
        status, _headers, body = _request(server.base, "GET", "/ready")
        assert status == 200
        payload = json.loads(body)
        assert payload["ready"] is True
        assert payload["draining"] is False
        serving = payload["serving"]
        assert serving["workers"] == 2
        assert serving["queue_limit"] == 8
        assert serving["state"] == "normal"
        assert isinstance(payload["breakers"], dict)

    def test_full_dashboard_workflow_over_http(self, server):
        report = _create_and_run(server)
        assert report["endpoints"] == ["counts"]
        status, _headers, body = _request(
            server.base, "GET", "/dashboards/proj/ds/counts"
        )
        assert status == 200
        rows = json.loads(body)["rows"]
        assert {"category": "big data", "projects": 2} in rows

    def test_graceful_shutdown_drains_and_checkpoints(self, server):
        _create_and_run(server)
        # A read populates the last-known-good map ...
        _request(server.base, "GET", "/dashboards/proj/ds/counts")
        assert server.shutdown(drain_timeout=2.0) is True
        # ... and drain checkpointed it for the next incarnation.
        assert "proj/counts" in server.checkpoints.names()
        table = server.checkpoints.get("proj/counts")
        assert table.num_rows == 2

    def test_requests_after_drain_are_refused(self, server):
        server.tier.drain(timeout=1.0)
        status, headers, body = _request(
            server.base, "GET", "/dashboards"
        )
        assert status == 503
        assert "Retry-After" in headers
        assert json.loads(body)["error"]["type"] == "ServerDraining"
        # Liveness still answers so orchestrators can tell drained
        # from dead.
        assert _request(server.base, "GET", "/health")[0] == 200


def _spawn(platform, checkpoints=None, pool_warm=0):
    ready = threading.Event()
    handle = serve(
        platform,
        port=0,
        ready_event=ready,
        config=ServingConfig(workers=2, queue_depth=8,
                             request_timeout=5.0),
        checkpoints=checkpoints,
        pool_warm=pool_warm,
    )
    threading.Thread(target=handle.serve_forever, daemon=True).start()
    assert ready.wait(5.0), "server never became ready"
    host, port = handle.server_address
    handle.base = f"http://{host}:{port}"
    handle.platform = platform
    return handle


class TestCheckpointRestart:
    def test_restarted_server_resumes_degraded_serving(self, tmp_path):
        from repro.resilience import DiskCheckpointStore

        # First incarnation: run, serve a read, drain to disk.
        first = _spawn(
            Platform(),
            checkpoints=DiskCheckpointStore(tmp_path / "ckpt"),
        )
        try:
            _create_and_run(first)
            status, _h, _b = _request(
                first.base, "GET", "/dashboards/proj/ds/counts"
            )
            assert status == 200
        finally:
            assert first.shutdown(drain_timeout=2.0) is True
        assert "proj/counts" in first.checkpoints.names()

        # Second incarnation: fresh platform + fresh process-equivalent
        # store over the same directory.  The dashboard definition is
        # back (flow text) but its source data is not, so a recompute
        # fails — the restored checkpoint serves the read, degraded.
        second = _spawn(
            Platform(),
            checkpoints=DiskCheckpointStore(tmp_path / "ckpt"),
        )
        try:
            status, _h, _b = _request(
                second.base, "POST", "/dashboards/proj/create",
                FLOW.encode(),
            )
            assert status == 201
            status, _h, body = _request(
                second.base, "GET", "/dashboards/proj/ds/counts"
            )
            assert status == 200
            payload = json.loads(body)
            assert payload["degraded"] is True
            rows = payload["rows"]
            assert {"category": "big data", "projects": 2} in rows
        finally:
            second.shutdown(drain_timeout=2.0)

    def test_restart_without_checkpoints_still_errors(self, tmp_path):
        from repro.resilience import DiskCheckpointStore

        handle = _spawn(
            Platform(),
            checkpoints=DiskCheckpointStore(tmp_path / "empty"),
        )
        try:
            status, _h, body = _request(
                handle.base, "GET", "/dashboards/proj/ds/counts"
            )
            # No checkpoint to fall back on: the read fails instead of
            # silently serving nothing.
            assert status >= 400
            assert "error" in json.loads(body)
        finally:
            handle.shutdown(drain_timeout=2.0)


class TestPreforkedServing:
    def test_pool_warm_preforks_and_drain_reaps(self):
        from repro.engine.scheduler import fork_available

        if not fork_available():
            pytest.skip("requires os.fork")
        platform = Platform()
        handle = _spawn(platform, pool_warm=2)
        try:
            # Workers were forked before the first request.
            assert platform.pool is not None
            assert platform.pool.alive() == 2
            pool = platform.pool
            _create_and_run(handle)
        finally:
            assert handle.shutdown(drain_timeout=2.0) is True
        # Drain reaped the pool along with the worker threads.
        assert pool.closed
        assert pool.alive() == 0


class TestBackpressure:
    def test_rate_limit_answers_429_with_retry_after(self):
        platform = Platform()
        ready = threading.Event()
        handle = serve(
            platform, port=0, ready_event=ready,
            config=ServingConfig(
                workers=2, queue_depth=8, request_timeout=5.0,
                rate_limit=0.001, rate_burst=1,
            ),
        )
        threading.Thread(target=handle.serve_forever, daemon=True).start()
        assert ready.wait(5.0)
        host, port = handle.server_address
        base = f"http://{host}:{port}"
        try:
            assert _request(base, "GET", "/dashboards")[0] == 200
            status, headers, body = _request(base, "GET", "/dashboards")
            assert status == 429
            assert int(headers["Retry-After"]) >= 1
            error = json.loads(body)["error"]
            assert error["type"] == "RateLimited"
            assert error["retryable"] is True
            # Separate tenants have separate buckets.
            status, _h, _b = _request(
                base, "GET", "/dashboards?tenant=other"
            )
            assert status == 200
        finally:
            handle.shutdown(drain_timeout=1.0)

    def test_deadline_expiry_is_a_504_over_http(self):
        platform = Platform()
        ready = threading.Event()
        handle = serve(
            platform, port=0, ready_event=ready,
            config=ServingConfig(
                workers=1, queue_depth=4, request_timeout=0.2,
            ),
        )
        threading.Thread(target=handle.serve_forever, daemon=True).start()
        assert ready.wait(5.0)
        host, port = handle.server_address
        base = f"http://{host}:{port}"
        # Wedge the only worker so a second request expires in queue.
        release = threading.Event()
        original = handle.tier.app

        class _SlowOnce:
            platform = handle.tier.app.platform

            def __call__(self, environ, start_response):
                if environ.get("PATH_INFO", "").endswith("/slow"):
                    release.wait(2.0)
                return original(environ, start_response)

        handle.tier.app = _SlowOnce()
        try:
            slow = threading.Thread(
                target=lambda: _request(base, "GET", "/dashboards/slow")
            )
            slow.start()
            for _ in range(100):
                if handle.tier.inflight():
                    break
                threading.Event().wait(0.01)
            status, headers, body = _request(base, "GET", "/dashboards")
            assert status == 504
            assert "Retry-After" in headers
            error = json.loads(body)["error"]
            assert error["type"] == "DeadlineExceededError"
            assert error["retryable"] is True
            release.set()
            slow.join(timeout=3.0)
        finally:
            release.set()
            handle.tier.app = original
            handle.shutdown(drain_timeout=1.0)


#: statuses the tier mints on purpose; any other 5xx is a bug
INTENTIONAL = {429, 503, 504}


def _sample(base, method, path):
    """(status, seconds, has Retry-After), or None on connection noise
    (an accept-backlog overflow is not an HTTP answer)."""
    started = time.perf_counter()
    try:
        status, headers, _body = _request(base, method, path)
    except OSError:
        return None
    return status, time.perf_counter() - started, "Retry-After" in headers


def _phase(base, seconds, fleets):
    """Run ``(clients, plan)`` fleets closed-loop for ``seconds``;
    returns every sample."""
    samples = []
    stop = threading.Event()

    def client(index, plan):
        step = index
        while not stop.is_set():
            sample = _sample(base, *plan[step % len(plan)])
            if sample is not None:
                samples.append(sample)
            step += 1

    threads = [
        threading.Thread(target=client, args=(i, plan), daemon=True)
        for count, plan in fleets
        for i in range(count)
    ]
    for thread in threads:
        thread.start()
    time.sleep(seconds)
    stop.set()
    for thread in threads:
        thread.join(timeout=10.0)
    assert not any(thread.is_alive() for thread in threads)
    return samples


class TestOverloadContract:
    """Readers, then readers plus a fleet of runners (every ``POST
    .../run`` a real recompute), then readers again: backpressure turns
    overload into fast, structured rejections, never slow answers or
    unintended 5xx; cheap reads keep flowing, and the server still
    drains cleanly.  Whether the overload phase sheds at all depends on
    how much load the client threads manage to offer on a busy host, so
    it is not asserted."""

    def test_overload_answers_fast_and_drains_clean(self):
        config = ServingConfig(
            workers=4, queue_depth=8, request_timeout=2.0,
            rate_limit=150.0, rate_burst=50, controller_window=0.25,
            drain_timeout=10.0,
        )
        platform = Platform()
        platform.create_dashboard("load", FLOW, inline_tables={
            "raw": Table.from_rows(
                RAW.schema,
                [(f"p{i}", f"c{i % 40}", i % 1000) for i in range(5_000)],
            )
        })
        platform.run_dashboard("load")
        ready = threading.Event()
        handle = serve(platform, port=0, ready_event=ready, config=config)
        threading.Thread(target=handle.serve_forever, daemon=True).start()
        assert ready.wait(5.0)
        host, port = handle.server_address
        base = f"http://{host}:{port}"
        reads = [
            ("GET", "/dashboards/load/ds/counts?tenant=readers"),
            ("GET", "/dashboards/load/ds/counts/orderby/projects/desc"
                    "?tenant=readers"),
            ("GET", "/metrics"),
        ]
        runs = [("POST", "/dashboards/load/run?tenant=runners")]
        try:
            _request(base, *reads[0])  # warm the query cache
            phases = {"steady": _phase(base, 0.8, [(4, reads)])}
            phases["overload"] = _phase(base, 0.8, [(4, reads), (16, runs)])
            # One controller window to see the calm, then wait for it
            # to flip back before measuring the readers again.
            time.sleep(config.controller_window)
            deadline = time.perf_counter() + 5.0
            while time.perf_counter() < deadline:
                snapshot = handle.tier.snapshot()
                if snapshot["state"] == "normal" and not snapshot[
                    "queue_depth"
                ]:
                    break
                time.sleep(0.05)
            phases["recovery"] = _phase(base, 0.8, [(4, reads)])
        finally:
            drained = handle.shutdown(drain_timeout=10.0)

        limit = config.request_timeout + 0.5
        for name, samples in phases.items():
            bad = [
                s for s, _t, _r in samples if s >= 500 and s not in INTENTIONAL
            ]
            assert not bad, f"{name}: unintentional {sorted(set(bad))}"
            assert all(
                retry for s, _t, retry in samples if s in (429, 503)
            ), f"{name}: a 429/503 without Retry-After"
            admitted = sorted(t for s, t, _r in samples if 200 <= s < 300)
            assert admitted, f"{name}: no request was admitted"
            p99 = admitted[min(len(admitted) - 1, int(0.99 * len(admitted)))]
            assert p99 <= limit, f"{name}: admitted p99 {p99:.3f} s"
        assert drained is True
