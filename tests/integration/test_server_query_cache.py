"""Integration: the shared ``/ds/`` result cache through the REST API."""

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

        environ = {
            "REQUEST_METHOD": method,
            "PATH_INFO": path,
            "QUERY_STRING": query,
            "CONTENT_LENGTH": str(len(body)),
            "wsgi.input": io.BytesIO(body),
        }
        payload = b"".join(app(environ, start_response))
        return status_holder["status"], payload

    call.platform = platform
    call.app = app
    return call


def created(client):
    status, _body = client(
        "POST", "/dashboards/proj/create", FLOW.encode()
    )
    assert status.startswith("201")
    client.platform.get_dashboard("proj")._inline_tables["raw"] = RAW
    client("POST", "/dashboards/proj/run")


def cache_series(client, metric):
    _status, body = client("GET", "/metrics", query="format=json")
    series = json.loads(body)["metrics"].get(metric, {"series": []})
    return {
        sample["labels"]["cache"]: sample["value"]
        for sample in series["series"]
    }


QUERY = "/dashboards/proj/ds/counts/groupby/category/sum/projects"


class TestSharedResultCache:
    def test_repeated_identical_query_hits(self, client):
        created(client)
        _status, first = client("GET", QUERY)
        _status, second = client("GET", QUERY)
        assert json.loads(first) == json.loads(second)
        assert client.app.query_cache.stats.hits == 1

    def test_repeated_query_on_a_capped_endpoint_hits(self, client):
        from repro import EnvironmentProfile

        raw = Table.from_rows(
            Schema.of("project", "category", "stars"),
            [(f"p{i}", f"c{i}", i) for i in range(2500)],
        )
        client.platform.create_dashboard(
            "proj", FLOW, inline_tables={"raw": raw},
            environment=EnvironmentProfile.mobile(),  # caps at 2 000 rows
        )
        client("POST", "/dashboards/proj/run")
        _status, first = client("GET", QUERY)
        _status, second = client("GET", QUERY)
        assert json.loads(first) == json.loads(second)
        assert json.loads(first)["total_rows"] == 2000
        assert client.app.query_cache.stats.hits == 1

    def test_hits_visible_in_metrics_route(self, client):
        created(client)
        client("GET", QUERY)
        client("GET", QUERY)
        hits = cache_series(client, "repro_query_cache_hits_total")
        assert hits.get("server") == 1

    def test_equivalent_spellings_share_one_entry(self, client):
        created(client)
        base = "/dashboards/proj/ds/counts"
        _status, spelled = client(
            "GET", f"{base}/filter/category/NE/streaming"
            "/orderby/projects/desc/limit/1"
        )
        _status, canonical = client(
            "GET", f"{base}/filter/category/ne/streaming"
            "/orderby/projects/desc/limit/01"
        )
        assert json.loads(spelled) == json.loads(canonical)
        assert client.app.query_cache.stats.hits == 1
        assert len(client.app.query_cache) == 1

    def test_rerun_invalidates_dashboard_entries(self, client):
        created(client)
        client("GET", QUERY)
        assert len(client.app.query_cache) == 1
        client("POST", "/dashboards/proj/run")
        # The first read of the run's snapshot drops the superseded
        # entry and caches its own.
        client("GET", QUERY)
        assert len(client.app.query_cache) == 1
        assert client.app.query_cache.stats.hits == 0
        invalidations = cache_series(
            client, "repro_query_cache_invalidations_total"
        )
        assert invalidations.get("server") == 1

    def test_source_pin_alone_prevents_stale_serves(self, client):
        from repro.server.query_language import parse_adhoc_query

        created(client)
        path = "/dashboards/proj/ds/counts/filter/projects/ge/1"
        client("GET", path)  # the scope has seen the current snapshot
        # Plant a wrong result under the *exact* fingerprint the route
        # will compute, pinned to a table object that is not the
        # current endpoint — simulating a missed invalidation.
        adhoc = parse_adhoc_query(
            ["counts", "filter", "projects", "ge", "1"]
        ).canonicalized()
        stale = Table.from_rows(
            Schema.of("category", "projects"), [("stale", -1)]
        )
        client.app.query_cache.put(
            ("proj", "counts"),
            adhoc.fingerprint(),
            stale,
            source=object(),
        )
        _status, body = client("GET", path)
        rows = {
            row["category"]: row["projects"]
            for row in json.loads(body)["rows"]
        }
        assert rows == {"big data": 2, "streaming": 1}
