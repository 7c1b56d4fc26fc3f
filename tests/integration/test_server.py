"""Integration: the REST API (paper §4.3-4.4) driven through WSGI."""

import io
import json

import pytest

from repro import Platform
from repro.data import Schema, Table
from repro.server import ShareInsightsApp

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


@pytest.fixture
def client():
    platform = Platform()
    app = ShareInsightsApp(platform)

    def call(method, path, body=b"", query=""):
        status_holder = {}

        def start_response(status, headers):
            status_holder["status"] = status
            status_holder["headers"] = dict(headers)

        environ = {
            "REQUEST_METHOD": method,
            "PATH_INFO": path,
            "QUERY_STRING": query,
            "CONTENT_LENGTH": str(len(body)),
            "wsgi.input": io.BytesIO(body),
        }
        chunks = app(environ, start_response)
        payload = b"".join(chunks)
        return status_holder["status"], payload

    call.platform = platform
    return call


def created(client):
    status, _body = client(
        "POST", "/dashboards/proj/create", FLOW.encode()
    )
    assert status.startswith("201")
    client.platform.get_dashboard("proj")._inline_tables["raw"] = RAW
    client("POST", "/dashboards/proj/run")


class TestCrud:
    def test_root_banner(self, client):
        status, body = client("GET", "/")
        assert status == "200 OK"
        assert json.loads(body)["service"] == "ShareInsights"

    def test_create_and_list(self, client):
        created(client)
        _status, body = client("GET", "/dashboards")
        assert json.loads(body)["dashboards"] == ["proj"]

    def test_read_flow_file_back(self, client):
        created(client)
        _status, body = client("GET", "/dashboards/proj")
        assert b"groupby" in body

    def test_save_updates(self, client):
        created(client)
        status, _body = client(
            "POST",
            "/dashboards/proj/save",
            FLOW.replace("projects", "n").encode(),
        )
        assert status == "200 OK"

    def test_invalid_flow_file_422(self, client):
        status, body = client(
            "POST", "/dashboards/bad/create", b"F:\n    D.x: D.y | T.none\n"
        )
        assert status.startswith("422")
        assert "error" in json.loads(body)

    def test_unknown_dashboard_422(self, client):
        status, _body = client("POST", "/dashboards/ghost/run")
        assert status.startswith("422")

    def test_unknown_path_404(self, client):
        status, _body = client("GET", "/nothing/here")
        assert status.startswith("404")

    def test_fork_via_rest(self, client):
        created(client)
        status, body = client("POST", "/dashboards/proj/fork/proj2")
        assert status.startswith("201")
        assert json.loads(body) == {"forked": "proj2", "from": "proj"}


class TestRunParallelism:
    def test_run_accepts_parallelism(self, client):
        created(client)
        status, body = client(
            "POST",
            "/dashboards/proj/run",
            query="engine=distributed&parallelism=4",
        )
        assert status == "200 OK"
        assert json.loads(body)["rows_produced"] == 2

    def test_run_rejects_bad_parallelism(self, client):
        created(client)
        for bad in ("zero", "0", "-2", "1.5"):
            status, body = client(
                "POST",
                "/dashboards/proj/run",
                query=f"parallelism={bad}",
            )
            assert status.startswith("400"), bad
            assert "parallelism" in json.loads(body)["error"]["detail"]

    def test_run_rejects_bad_pool_mode(self, client):
        created(client)
        status, body = client(
            "POST", "/dashboards/proj/run", query="pool=forever"
        )
        assert status.startswith("400")
        assert "pool" in json.loads(body)["error"]["detail"]

    def test_run_rejects_bad_executor(self, client):
        created(client)
        status, body = client(
            "POST", "/dashboards/proj/run", query="executor=fibers"
        )
        assert status.startswith("400")
        assert "executor" in json.loads(body)["error"]["detail"]

    def test_run_accepts_pool_modes(self, client):
        created(client)
        for mode in ("auto", "keep"):
            status, _body = client(
                "POST",
                "/dashboards/proj/run",
                query=f"executor=threads&pool={mode}",
            )
            assert status == "200 OK", mode


class TestEndpointData:
    def test_fig27_endpoint_listing(self, client):
        created(client)
        _status, body = client("GET", "/dashboards/proj/ds")
        assert json.loads(body)["endpoints"] == ["counts"]

    def test_fig28_endpoint_rows(self, client):
        created(client)
        _status, body = client("GET", "/dashboards/proj/ds/counts")
        payload = json.loads(body)
        assert payload["columns"] == ["category", "projects"]
        assert {r["category"]: r["projects"] for r in payload["rows"]} == {
            "big data": 2, "streaming": 1
        }

    def test_fig30_adhoc_groupby(self, client):
        created(client)
        _status, body = client(
            "GET",
            "/dashboards/proj/ds/counts/orderby/projects/desc/limit/1",
        )
        payload = json.loads(body)
        assert payload["rows"] == [{"category": "big data", "projects": 2}]

    def test_pagination(self, client):
        created(client)
        _status, body = client(
            "GET", "/dashboards/proj/ds/counts", query="limit=1&offset=1"
        )
        assert len(json.loads(body)["rows"]) == 1

    def test_bad_query_400(self, client):
        created(client)
        status, _body = client(
            "GET", "/dashboards/proj/ds/counts/pivot/x"
        )
        assert status.startswith("400")

    def test_non_endpoint_dataset_422(self, client):
        created(client)
        status, _body = client("GET", "/dashboards/proj/ds/raw")
        assert status.startswith("422")

    def test_query_telemetry_logged(self, client):
        created(client)
        client("GET", "/dashboards/proj/ds/counts")
        kinds = [e.kind for e in client.platform.events]
        assert "query" in kinds


class TestExplorer:
    def test_fig29_explorer_html(self, client):
        created(client)
        status, body = client("GET", "/dashboards/proj/explorer")
        assert status == "200 OK"
        text = body.decode()
        assert "Data Explorer" in text
        assert "counts" in text
        assert "<table" in text

    def test_explorer_single_dataset(self, client):
        created(client)
        _status, body = client(
            "GET", "/dashboards/proj/explorer", query="ds=counts"
        )
        assert body.decode().count("<h2>") == 1

    def test_render_route(self, client):
        created(client)
        status, body = client("GET", "/dashboards/proj/render")
        assert status == "200 OK"
        assert b"dashboard" in body or b"html" in body
