"""Integration: every non-2xx response speaks one error contract.

The contract (docs/serving.md): the body is JSON shaped
``{"error": {"type": str, "retryable": bool, "detail": str, ...}}``.
Clients branch on ``type``/``retryable`` instead of parsing prose.
This suite walks every route family with bad inputs — unknown paths,
missing dashboards, invalid flow text, malformed queries, wrong
methods — and asserts the shape holds for each of them, plus the
serving tier's own rejections (429/503/504) which are generated on the
I/O thread without ever reaching the app.
"""

import io
import json

import pytest

from repro import Platform
from repro.server import ShareInsightsApp

GOOD_FLOW = (
    "D:\n    raw: [a, b]\n    out: [a, total]\n"
    "F:\n    D.out: D.raw | T.agg\n"
    "    D.out:\n        endpoint: true\n"
    "T:\n"
    "    agg:\n"
    "        type: groupby\n"
    "        groupby: [a]\n"
    "        aggregates:\n"
    "            - operator: sum\n"
    "              apply_on: b\n"
    "              out_field: total\n"
)


@pytest.fixture
def client():
    platform = Platform()
    app = ShareInsightsApp(platform)

    def call(method, path, body=b"", query=""):
        holder = {}

        def start_response(status, headers):
            holder["status"] = status
            holder["headers"] = dict(headers)

        environ = {
            "REQUEST_METHOD": method,
            "PATH_INFO": path,
            "QUERY_STRING": query,
            "CONTENT_LENGTH": str(len(body)),
            "wsgi.input": io.BytesIO(body),
        }
        chunks = app(environ, start_response)
        return holder["status"], holder["headers"], b"".join(chunks)

    call.platform = platform
    call.app = app
    return call


def assert_contract(status, body, expected_code=None):
    """The one shape every non-2xx body must have."""
    code = int(status.split(" ", 1)[0])
    assert code >= 400, f"expected an error status, got {status}"
    if expected_code is not None:
        assert code == expected_code, f"{status}: {body!r}"
    payload = json.loads(body)
    assert set(payload) >= {"error"}, payload
    error = payload["error"]
    assert isinstance(error["type"], str) and error["type"]
    assert isinstance(error["retryable"], bool)
    assert isinstance(error["detail"], str) and error["detail"]
    return error


#: (label, method, path, body, query, expected HTTP status)
BAD_REQUESTS = [
    ("unknown-root-path", "GET", "/nope", b"", "", 404),
    ("missing-dashboard-read", "GET", "/dashboards/ghost", b"", "", 422),
    ("missing-dashboard-run", "POST", "/dashboards/ghost/run",
     b"", "", 422),
    ("missing-dashboard-ds", "GET", "/dashboards/ghost/ds", b"", "", 422),
    ("wrong-method-on-name", "PUT", "/dashboards/ghost", b"", "", 405),
    ("unknown-action", "POST", "/dashboards/ghost/teleport",
     b"", "", 404),
    ("invalid-flow-create", "POST", "/dashboards/bad/create",
     b"this is : not a flow file", "", 422),
    ("bad-parallelism", "POST", "/dashboards/any/run",
     b"", "parallelism=zero", 400),
    ("bad-metrics-format", "GET", "/metrics", b"", "format=yaml", 400),
    ("missing-trace", "GET", "/trace/t0000", b"", "", 404),
]


class TestAppContract:
    @pytest.mark.parametrize(
        "label,method,path,body,query,code",
        BAD_REQUESTS,
        ids=[case[0] for case in BAD_REQUESTS],
    )
    def test_bad_input_yields_structured_error(
        self, client, label, method, path, body, query, code
    ):
        status, _headers, payload = client(method, path, body, query)
        assert_contract(status, payload, expected_code=code)

    def test_duplicate_create_is_structured_and_not_retryable(
        self, client
    ):
        assert client(
            "POST", "/dashboards/d/create", GOOD_FLOW.encode()
        )[0].startswith("201")
        status, _headers, body = client(
            "POST", "/dashboards/d/create", GOOD_FLOW.encode()
        )
        error = assert_contract(status, body, expected_code=422)
        assert error["retryable"] is False

    def test_bad_adhoc_query_is_a_400_query_error(self, client):
        client("POST", "/dashboards/d/create", GOOD_FLOW.encode())
        from repro.data import Schema, Table

        client.platform.get_dashboard("d")._inline_tables["raw"] = (
            Table.from_rows(Schema.of("a", "b"), [("x", 1)])
        )
        client("POST", "/dashboards/d/run")
        status, _headers, body = client(
            "GET", "/dashboards/d/ds/out/orderby"  # orderby needs args
        )
        error = assert_contract(status, body, expected_code=400)
        assert error["type"] == "QueryError"

    @pytest.mark.parametrize("query", ["limit=abc", "offset=1.5"])
    def test_bad_page_bounds_are_a_400_query_error(self, client, query):
        client("POST", "/dashboards/d/create", GOOD_FLOW.encode())
        from repro.data import Schema, Table

        client.platform.get_dashboard("d")._inline_tables["raw"] = (
            Table.from_rows(Schema.of("a", "b"), [("x", 1)])
        )
        client("POST", "/dashboards/d/run")
        status, _headers, body = client(
            "GET", "/dashboards/d/ds/out", query=query
        )
        error = assert_contract(status, body, expected_code=400)
        assert error["type"] == "QueryError"
        assert query.split("=")[0] in error["detail"]

    def test_unhandled_exception_is_a_structured_500(self, client):
        client.platform.dashboard_names = None  # force a TypeError
        status, _headers, body = client("GET", "/dashboards")
        error = assert_contract(status, body, expected_code=500)
        assert error["type"] == "TypeError"
        assert error["retryable"] is False


class TestTierContract:
    """Rejections minted on the I/O thread carry the same shape."""

    def _tier(self, **config_kwargs):
        from repro.server import ServingConfig, ServingTier

        def app(environ, start_response):
            start_response("200 OK", [])
            return [b"{}"]

        return ServingTier(app, ServingConfig(**config_kwargs)).start()

    def _call(self, tier, path="/dashboards/d/ds/out"):
        holder = {}

        def start_response(status, headers):
            holder["status"] = status

        body = b"".join(
            tier({"REQUEST_METHOD": "GET", "PATH_INFO": path},
                 start_response)
        )
        return holder["status"], body

    def test_draining_503(self):
        tier = self._tier(workers=1, queue_depth=1)
        tier._draining = True
        status, body = self._call(tier)
        error = assert_contract(status, body, expected_code=503)
        assert error["type"] == "ServerDraining"
        assert error["retryable"] is True
        tier._draining = False
        tier.drain(timeout=0.5)

    def test_rate_limited_429(self):
        from repro.resilience import SimulatedClock
        from repro.server import RateLimiter

        tier = self._tier(
            workers=1, queue_depth=2, rate_limit=1.0, rate_burst=1
        )
        tier.limiter = RateLimiter(1.0, 1, clock=SimulatedClock())
        try:
            assert self._call(tier)[0] == "200 OK"
            status, body = self._call(tier)
            error = assert_contract(status, body, expected_code=429)
            assert error["type"] == "RateLimited"
            assert error["retryable"] is True
        finally:
            tier.drain(timeout=0.5)

    def test_shed_503(self):
        tier = self._tier(workers=1, queue_depth=4)
        tier.controller._state = "shed"
        tier.controller._last_eval = float("inf")
        try:
            status, body = self._call(tier, path="/dashboards/d/run")
            error = assert_contract(status, body, expected_code=503)
            assert error["type"] == "Overloaded"
            assert error["retryable"] is True
        finally:
            tier.drain(timeout=0.5)

    def test_deadline_504(self):
        import threading

        from repro.server import ServingConfig, ServingTier

        def slow(environ, start_response):
            threading.Event().wait(0.5)
            start_response("200 OK", [])
            return [b"{}"]

        tier = ServingTier(
            slow,
            ServingConfig(workers=1, queue_depth=2,
                          request_timeout=0.05),
        ).start()
        try:
            status, body = self._call(tier)
            error = assert_contract(status, body, expected_code=504)
            assert error["type"] == "DeadlineExceededError"
            assert error["retryable"] is True
        finally:
            tier.drain(timeout=1.0)
