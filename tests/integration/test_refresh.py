"""Integration: background refresh keeps endpoints warm and exact.

The whole refresh stack in one place — file-cursor delta ingestion,
incremental view maintenance, endpoint versioning, the scheduler, the
server's ``?refresh=`` / version-header surface, and the determinism
matrix: after any sequence of appends and refreshes, the incremental
dashboard's endpoints are byte-identical to a fresh platform doing one
full run over the current files, at every executor/parallelism/fault
setting.
"""

import io
import json

import pytest

from repro import Platform
from repro.dashboard.refresh import RefreshScheduler
from repro.server import ShareInsightsApp

FLOW = (
    "D:\n"
    "    games: [team, runs]\n"
    "    top: [team, total]\n"
    "D.games:\n"
    "    source: games.csv\n"
    "F:\n"
    "    D.top: D.games | T.agg\n"
    "    D.top:\n        endpoint: true\n"
    "T:\n"
    "    agg:\n"
    "        type: groupby\n"
    "        groupby: [team]\n"
    "        aggregates:\n"
    "            - operator: sum\n"
    "              apply_on: runs\n"
    "              out_field: total\n"
)

# A flow with a join: maintained on its probe side (games); a change to
# the build side (cities) re-runs the whole join.
JOIN_FLOW = (
    "D:\n"
    "    games: [team, runs]\n"
    "    cities: [team, city]\n"
    "    out: [team, runs, city]\n"
    "D.games:\n"
    "    source: games.csv\n"
    "D.cities:\n"
    "    source: cities.csv\n"
    "F:\n"
    "    D.out: (D.games, D.cities) | T.j\n"
    "    D.out:\n        endpoint: true\n"
    "T:\n"
    "    j:\n"
    "        type: join\n"
    "        left: games by team\n"
    "        right: cities by team\n"
    "        join_condition: inner\n"
)


def write_games(tmp_path, rows):
    lines = "team,runs\n" + "".join(f"{t},{r}\n" for t, r in rows)
    (tmp_path / "games.csv").write_text(lines, encoding="utf-8")


def append_games(tmp_path, rows):
    with (tmp_path / "games.csv").open("a", encoding="utf-8") as handle:
        handle.write("".join(f"{t},{r}\n" for t, r in rows))


def fresh_full_run(tmp_path, flow=FLOW, **run_kwargs):
    """A brand-new platform doing one full run over the current files."""
    platform = Platform()
    platform.create_dashboard("ref", flow, data_dir=str(tmp_path))
    platform.run_dashboard("ref", **run_kwargs)
    return platform.get_dashboard("ref")


def make_platform(tmp_path, flow=FLOW):
    platform = Platform()
    platform.create_dashboard("ipl", flow, data_dir=str(tmp_path))
    platform.run_dashboard("ipl")
    return platform


class TestIncrementalRefresh:
    def test_append_then_refresh_matches_fresh_full_run(self, tmp_path):
        write_games(tmp_path, [("CSK", 120), ("MI", 98)])
        platform = make_platform(tmp_path)
        append_games(tmp_path, [("CSK", 30), ("RCB", 55)])

        report = platform.refresh_dashboard("ipl")
        assert report.mode == "incremental"
        assert "top" in report.endpoints_changed

        mine = platform.get_dashboard("ipl").endpoint("top")
        theirs = fresh_full_run(tmp_path).endpoint("top")
        assert mine.to_json_records() == theirs.to_json_records()

    def test_second_append_rides_the_cursor(self, tmp_path):
        write_games(tmp_path, [("CSK", 120), ("MI", 98)])
        platform = make_platform(tmp_path)
        platform.refresh_dashboard("ipl")  # bootstrap cycle

        append_games(tmp_path, [("MI", 12)])
        report = platform.refresh_dashboard("ipl")
        assert report.delta_rows == 1
        assert report.flows_incremental == ["top"]
        mine = platform.get_dashboard("ipl").endpoint("top")
        theirs = fresh_full_run(tmp_path).endpoint("top")
        assert mine.to_json_records() == theirs.to_json_records()

    def test_unchanged_refresh_skips_and_keeps_versions(self, tmp_path):
        write_games(tmp_path, [("CSK", 120)])
        platform = make_platform(tmp_path)
        platform.refresh_dashboard("ipl")  # bootstrap
        dashboard = platform.get_dashboard("ipl")
        version = dashboard.endpoint_version("top")

        report = platform.refresh_dashboard("ipl")
        assert report.endpoints_changed == []
        assert report.flows_skipped == ["top"]
        assert dashboard.endpoint_version("top") == version

    def test_rewritten_file_resets_state_exactly(self, tmp_path):
        write_games(tmp_path, [("CSK", 120), ("MI", 98)])
        platform = make_platform(tmp_path)
        platform.refresh_dashboard("ipl")
        # Rewrite with fewer rows: append bookkeeping cannot describe
        # this; the cursor must detect it and reset.
        write_games(tmp_path, [("KKR", 7)])
        platform.refresh_dashboard("ipl")
        mine = platform.get_dashboard("ipl").endpoint("top")
        theirs = fresh_full_run(tmp_path).endpoint("top")
        assert mine.to_json_records() == theirs.to_json_records()

    def test_larger_in_place_rewrite_is_not_read_as_an_append(
        self, tmp_path
    ):
        write_games(tmp_path, [("CSK", 120)])
        platform = make_platform(tmp_path)
        platform.refresh_dashboard("ipl")  # bootstrap cycle
        # Rewritten, not appended to: the bytes the cursor had seen are
        # gone, although the file grew past them.
        write_games(tmp_path, [("MI", 5), ("RCB", 77), ("KKR", 1)])
        report = platform.refresh_dashboard("ipl")
        mine = platform.get_dashboard("ipl").endpoint("top")
        theirs = fresh_full_run(tmp_path).endpoint("top")
        assert mine.to_json_records() == theirs.to_json_records()
        assert report.source_reloads == {"games": "prefix_changed"}
        event = [e for e in platform.events if e.kind == "refresh"][-1]
        assert event.detail["source_reloads"] == {"games": "prefix_changed"}
        series = platform.observability.metrics.as_dict()[
            "repro_ingest_delta_reloads_total"
        ]["series"]
        assert {s["labels"]["reason"]: s["value"] for s in series} == {
            "first_read": 1, "prefix_changed": 1,
        }

    def test_ipl_flow_refreshes_appended_tweets_incrementally(
        self, tmp_path
    ):
        """Appendix A's processing flow over a JSON array: tweets
        appended the way a writer keeps the array valid advance all
        nine flows without a recompute, exactly."""
        from repro.workloads import IPL_PROCESSING_FLOW, ipl

        def ipl_platform():
            platform = Platform()
            platform.create_dashboard(
                "ipl",
                IPL_PROCESSING_FLOW,
                data_dir=str(tmp_path),
                inline_tables={
                    "dim_teams": ipl.dim_teams_table(),
                    "team_players": ipl.team_players_table(),
                    "lat_long": ipl.lat_long_table(),
                },
                dictionaries=ipl.dictionaries(),
            )
            platform.run_dashboard("ipl")
            return platform

        feed = tmp_path / "ipl_tweets.json"
        feed.write_bytes(ipl.tweets_json(count=300, seed=3))
        platform = ipl_platform()
        first = platform.refresh_dashboard("ipl")  # bootstrap cycle
        assert first.source_reloads == {"ipltweets": "first_read"}
        for cycle in range(3):
            more = json.dumps(ipl.generate_tweets(40, seed=10 + cycle))
            with feed.open("r+b") as handle:
                handle.seek(-1, 2)  # the closing "]"
                handle.write(b", " + more[1:].encode("utf-8"))
            report = platform.refresh_dashboard("ipl")
            assert report.delta_rows == 40
            assert report.flows_full == [] and report.source_reloads == {}
            assert len(report.flows_incremental) == 9
            dashboard = platform.get_dashboard("ipl")
            reference = ipl_platform().get_dashboard("ipl")
            for endpoint in dashboard.compiled.endpoint_names:
                assert (
                    dashboard.endpoint(endpoint).to_json_records()
                    == reference.endpoint(endpoint).to_json_records()
                ), (cycle, endpoint)

    def test_full_refresh_rereads_sources(self, tmp_path):
        write_games(tmp_path, [("CSK", 120)])
        platform = make_platform(tmp_path)
        append_games(tmp_path, [("MI", 50)])
        report = platform.refresh_dashboard("ipl", incremental=False)
        assert report.mode == "full"
        mine = platform.get_dashboard("ipl").endpoint("top")
        theirs = fresh_full_run(tmp_path).endpoint("top")
        assert mine.to_json_records() == theirs.to_json_records()

    def _join_platform(self, tmp_path):
        write_games(tmp_path, [("CSK", 120), ("MI", 98)])
        (tmp_path / "cities.csv").write_text(
            "team,city\nCSK,Chennai\nMI,Mumbai\nRCB,Bengaluru\n",
            encoding="utf-8",
        )
        platform = make_platform(tmp_path, flow=JOIN_FLOW)
        platform.refresh_dashboard("ipl")  # bootstrap cycle
        return platform

    def _assert_join_matches_fresh_run(self, platform, tmp_path):
        mine = platform.get_dashboard("ipl").endpoint("out")
        theirs = fresh_full_run(tmp_path, flow=JOIN_FLOW).endpoint("out")
        assert mine.schema.names == theirs.schema.names
        assert mine.to_json_records() == theirs.to_json_records()

    def test_join_probe_side_append_is_maintained(self, tmp_path):
        platform = self._join_platform(tmp_path)
        append_games(tmp_path, [("RCB", 41), ("KKR", 7), ("CSK", 1)])
        report = platform.refresh_dashboard("ipl")
        assert report.flows_incremental == ["out"]  # only Δ was probed
        assert report.flows_full == [] and report.fallback_reasons == {}
        self._assert_join_matches_fresh_run(platform, tmp_path)

    def test_join_build_side_append_falls_back(self, tmp_path):
        platform = self._join_platform(tmp_path)
        with (tmp_path / "cities.csv").open("a", encoding="utf-8") as out:
            out.write("KKR,Kolkata\nCSK,Madras\n")
        append_games(tmp_path, [("KKR", 7)])
        report = platform.refresh_dashboard("ipl")
        assert report.flows_full == ["out"]
        assert report.fallback_reasons == {"out": "join_build_side_changed"}
        self._assert_join_matches_fresh_run(platform, tmp_path)
        # ... and the re-primed state keeps maintaining afterwards
        append_games(tmp_path, [("CSK", 9)])
        report = platform.refresh_dashboard("ipl")
        assert report.flows_incremental == ["out"]
        self._assert_join_matches_fresh_run(platform, tmp_path)

    def test_source_endpoint_is_not_served_stale(self, tmp_path):
        """A refresh keeps one current table per source: the copy the
        first run materialized is neither served (it was, stale, under
        a bumped version) nor kept alive beside the maintained one."""
        flow = FLOW.replace(
            "    source: games.csv\n",
            "    source: games.csv\n    endpoint: true\n",
        )
        write_games(tmp_path, [("CSK", 120)])
        platform = make_platform(tmp_path, flow=flow)
        platform.refresh_dashboard("ipl")
        append_games(tmp_path, [("MI", 9)])
        report = platform.refresh_dashboard("ipl")
        assert "games" in report.endpoints_changed
        dashboard = platform.get_dashboard("ipl")
        assert dashboard.endpoint("games").column("team") == ["CSK", "MI"]
        assert dashboard.endpoint("games") is dashboard._source_tables["games"]

    def test_bypassed_join_state_is_dropped(self, tmp_path):
        """``best`` (a widget-sourced filter) always recomputes through
        the engine and drags the join behind it along; in cycles where
        only ``cities`` grows the join advances its own state.  That
        state must not survive a cycle that went around it."""
        flow = (
            "D:\n    games: [team, runs]\n    cities: [team, city]\n"
            "    best: [team, runs]\n    out: [team, city, runs]\n"
            "D.games:\n    source: games.csv\n"
            "D.cities:\n    source: cities.csv\n"
            "F:\n    D.best: D.games | T.pick\n"
            "    D.out: (D.cities, D.best) | T.j\n"
            "    D.out:\n        endpoint: true\n"
            "T:\n    pick:\n        type: filter_by\n"
            "        filter_by: [team]\n        filter_source: W.teams\n"
            "    j:\n        type: join\n        left: cities by team\n"
            "        right: best by team\n        join_condition: left outer\n"
            "W:\n    teams:\n        type: List\n        source: D.games\n"
            "        text: team\n"
        )
        write_games(tmp_path, [("CSK", 120), ("MI", 98)])
        cities = tmp_path / "cities.csv"
        cities.write_text("team,city\nCSK,Chennai\n", encoding="utf-8")
        platform = make_platform(tmp_path, flow=flow)
        seen = []
        for grow in ("none", "cities", "games", "cities"):
            if grow == "games":
                append_games(tmp_path, [("MI", 150), ("RCB", 3)])
            elif grow == "cities":
                with cities.open("a", encoding="utf-8") as out:
                    out.write("MI,Mumbai\n" if not seen[-1] else "RCB,Blr\n")
            report = platform.refresh_dashboard("ipl")
            seen.append(report.fallback_reasons)
            mine = platform.get_dashboard("ipl").endpoint("out")
            theirs = fresh_full_run(tmp_path, flow=flow).endpoint("out")
            assert mine.to_json_records() == theirs.to_json_records(), grow
        around = {"best": "unsupported_task", "out": "upstream_recompute"}
        assert seen == [around, {}, around, {}]

    @pytest.mark.parametrize(
        "condition, grows, reason",
        [
            ("inner", "cities", "join_build_side_changed"),
            ("right outer", "games", "outer_join"),
        ],
    )
    def test_fallback_reason_is_reported_everywhere(
        self, tmp_path, capsys, monkeypatch, condition, grows, reason
    ):
        from repro.cli import main

        flow = JOIN_FLOW.replace("inner", condition)
        write_games(tmp_path, [("CSK", 120), ("MI", 98)])
        (tmp_path / "cities.csv").write_text(
            "team,city\nCSK,Chennai\nRCB,Bengaluru\n", encoding="utf-8"
        )
        (tmp_path / "dash.flow").write_text(flow, encoding="utf-8")
        platform = make_platform(tmp_path, flow=flow)
        platform.refresh_dashboard("ipl")  # bootstrap: nothing fell back
        assert platform.get_dashboard("ipl").last_refresh.fallback_reasons == {}
        with (tmp_path / f"{grows}.csv").open("a", encoding="utf-8") as out:
            out.write("MI,Mumbai\n" if grows == "cities" else "RCB,41\n")
        report = platform.refresh_dashboard("ipl")
        assert report.fallback_reasons == {"out": reason}
        assert report.flows_full == ["out"] and not report.flows_incremental
        mine = platform.get_dashboard("ipl").endpoint("out")
        theirs = fresh_full_run(tmp_path, flow=flow).endpoint("out")
        assert mine.to_json_records() == theirs.to_json_records()

        series = platform.observability.metrics.as_dict()[
            "repro_refresh_fallbacks_total"
        ]["series"]
        assert series == [
            {"labels": {"dashboard": "ipl", "reason": reason}, "value": 1}
        ]
        event = [e for e in platform.events if e.kind == "refresh"][-1]
        assert event.detail["fallback_reasons"] == {"out": reason}

        # The CLI line: its first cycle bootstraps; the file grows while
        # it sleeps before the second.
        def grow(_seconds):
            with (tmp_path / f"{grows}.csv").open("a") as out:
                out.write("KKR,Kolkata\n" if grows == "cities" else "KKR,7\n")

        monkeypatch.setattr("time.sleep", grow)
        code = main(
            ["refresh", str(tmp_path / "dash.flow"), "--data",
             str(tmp_path), "--cycles", "2", "--interval", "0.01"]
        )
        assert code == 0
        lines = capsys.readouterr().err.splitlines()
        assert f"out fell back: {reason}" in lines[-1]
        assert "fell back" not in lines[-2]
        assert "; games reloaded: first_read" in lines[-2]
        assert "reloaded" not in lines[-1]

    def test_refresh_emits_metrics_and_event(self, tmp_path):
        write_games(tmp_path, [("CSK", 120)])
        platform = make_platform(tmp_path)
        platform.refresh_dashboard("ipl")
        metrics = platform.observability.metrics.as_dict()
        assert any(
            key.startswith("repro_refresh_runs_total") for key in metrics
        )
        assert any(
            event.kind == "refresh" for event in platform.events
        )


class TestEndpointVersions:
    def test_run_then_refresh_version_lifecycle(self, tmp_path):
        write_games(tmp_path, [("CSK", 120)])
        platform = make_platform(tmp_path)
        dashboard = platform.get_dashboard("ipl")
        assert dashboard.endpoint_version("top") == 1  # after the run

        platform.refresh_dashboard("ipl")  # bootstrap counts as change
        assert dashboard.endpoint_version("top") == 2

        platform.refresh_dashboard("ipl")  # no change, no bump
        assert dashboard.endpoint_version("top") == 2

        append_games(tmp_path, [("MI", 9)])
        platform.refresh_dashboard("ipl")
        assert dashboard.endpoint_version("top") == 3

    def test_unknown_endpoint_version_is_zero(self, tmp_path):
        write_games(tmp_path, [("CSK", 120)])
        platform = make_platform(tmp_path)
        assert platform.get_dashboard("ipl").endpoint_version("nope") == 0


class TestRefreshScheduler:
    def test_run_cycle_returns_reports(self, tmp_path):
        write_games(tmp_path, [("CSK", 120)])
        platform = make_platform(tmp_path)
        scheduler = RefreshScheduler(platform, interval=30.0)
        results = scheduler.run_cycle()
        assert set(results) == {"ipl"}
        assert results["ipl"].mode == "incremental"
        assert scheduler.cycles == 1

    def test_failing_dashboard_does_not_stop_the_cycle(self, tmp_path):
        write_games(tmp_path, [("CSK", 120)])
        platform = make_platform(tmp_path)
        (tmp_path / "games.csv").unlink()  # refresh will fail
        scheduler = RefreshScheduler(platform, interval=30.0)
        results = scheduler.run_cycle()
        assert isinstance(results["ipl"], Exception)
        metrics = platform.observability.metrics.as_dict()
        assert any(
            key.startswith("repro_refresh_errors_total")
            for key in metrics
        )

    def test_background_thread_lifecycle(self, tmp_path):
        write_games(tmp_path, [("CSK", 120)])
        platform = make_platform(tmp_path)
        with RefreshScheduler(platform, interval=60.0) as scheduler:
            assert scheduler.running
        assert not scheduler.running

    def test_rejects_nonpositive_interval(self, tmp_path):
        with pytest.raises(ValueError, match="interval"):
            RefreshScheduler(Platform(), interval=0)


@pytest.fixture
def client(tmp_path):
    write_games(tmp_path, [("CSK", 120), ("MI", 98)])
    platform = make_platform(tmp_path)
    app = ShareInsightsApp(platform)

    def call(method, path, query=""):
        holder = {}

        def start_response(status, headers):
            holder["status"] = status
            holder["headers"] = dict(headers)

        environ = {
            "REQUEST_METHOD": method,
            "PATH_INFO": path,
            "QUERY_STRING": query,
            "wsgi.input": io.BytesIO(b""),
        }
        chunks = app(environ, start_response)
        return holder["status"], holder["headers"], b"".join(chunks)

    call.platform = platform
    call.app = app
    call.tmp_path = tmp_path
    return call


class TestServerRefreshSurface:
    def test_version_header_on_every_ds_read(self, client):
        status, headers, _body = client("GET", "/dashboards/ipl/ds/top")
        assert status == "200 OK"
        assert headers["X-Endpoint-Version"] == "1"

    def test_refresh_param_pulls_new_rows(self, client):
        append_games(client.tmp_path, [("CSK", 30), ("RCB", 55)])
        # Plain read: still the old rows (refresh is opt-in).
        _s, headers, body = client("GET", "/dashboards/ipl/ds/top")
        stale = json.loads(body)["rows"]
        assert {"team": "RCB", "total": 55} not in stale

        _s, headers, body = client(
            "GET", "/dashboards/ipl/ds/top", query="refresh=incremental"
        )
        rows = json.loads(body)["rows"]
        assert {"team": "CSK", "total": 150} in rows
        assert {"team": "RCB", "total": 55} in rows
        assert headers["X-Endpoint-Version"] == "2"

    def test_refresh_invalidates_query_cache_at_version_boundary(
        self, client
    ):
        # Prime a cached ad-hoc result against version 1.
        _s, _h, body = client(
            "GET", "/dashboards/ipl/ds/top/filter/team/eq/CSK"
        )
        assert json.loads(body)["rows"] == [
            {"team": "CSK", "total": 120}
        ]
        append_games(client.tmp_path, [("CSK", 70)])
        _s, headers, body = client(
            "GET",
            "/dashboards/ipl/ds/top/filter/team/eq/CSK",
            query="refresh=1",
        )
        # No stale serve: the read took the refreshed snapshot.
        assert json.loads(body)["rows"] == [
            {"team": "CSK", "total": 190}
        ]
        assert headers["X-Endpoint-Version"] == "2"

    def test_refresh_full_forces_source_reread(self, client):
        write_games(client.tmp_path, [("KKR", 7)])
        _s, headers, body = client(
            "GET", "/dashboards/ipl/ds/top", query="refresh=full"
        )
        assert json.loads(body)["rows"] == [{"team": "KKR", "total": 7}]

    def test_bogus_refresh_value_is_structured_400(self, client):
        status, _headers, body = client(
            "GET", "/dashboards/ipl/ds/top", query="refresh=sideways"
        )
        assert status.startswith("400")
        error = json.loads(body)["error"]
        assert error["type"] == "QueryError"
        assert error["retryable"] is False
        assert "refresh" in error["detail"]

    def test_scheduler_cycle_invalidates_server_cache(self, client):
        """Scheduler cycles publish like explicit ``?refresh=``
        requests: the next read serves the new snapshot."""
        _s, _h, body = client(
            "GET", "/dashboards/ipl/ds/top/filter/team/eq/CSK"
        )
        append_games(client.tmp_path, [("CSK", 80)])
        RefreshScheduler(client.platform, interval=30.0).run_cycle()
        _s, _h, body = client(
            "GET", "/dashboards/ipl/ds/top/filter/team/eq/CSK"
        )
        assert json.loads(body)["rows"] == [
            {"team": "CSK", "total": 200}
        ]


class TestDeterminismMatrix:
    """Incremental output == full recompute, across execution settings.

    The refreshed dashboard's endpoint must match a fresh platform's
    full run over the final file state for every engine configuration —
    executors {threads, processes} x parallelism {1, 4}, plus a seeded
    fault profile on the distributed engine.
    """

    ROWS = [("CSK", 120), ("MI", 98), ("RCB", 41), ("CSK", 15)]
    APPENDS = ([("MI", 12), ("KKR", 88)], [("CSK", 7)])

    def _refreshed_endpoint(self, tmp_path):
        write_games(tmp_path, self.ROWS)
        platform = make_platform(tmp_path)
        for batch in self.APPENDS:
            append_games(tmp_path, batch)
            platform.refresh_dashboard("ipl")
        return platform.get_dashboard("ipl").endpoint("top")

    @pytest.mark.parametrize("executor", ["threads", "processes"])
    @pytest.mark.parametrize("parallelism", [1, 4])
    def test_matches_full_run_at_every_setting(
        self, tmp_path, executor, parallelism
    ):
        table = self._refreshed_endpoint(tmp_path)
        reference = fresh_full_run(
            tmp_path, parallelism=parallelism, executor=executor
        ).endpoint("top")
        assert table.to_json_records() == reference.to_json_records()

    def test_matches_full_run_under_faults(self, tmp_path):
        # Fault profiles force the distributed engine, whose group-by
        # row order is shuffle-partition order rather than first-seen
        # order — same contract as test_parallel_determinism: compare
        # row *sets*, exactly.
        table = self._refreshed_endpoint(tmp_path)
        reference = fresh_full_run(
            tmp_path, fault_profile="transient:7", parallelism=2
        ).endpoint("top")
        assert sorted(map(repr, table.to_records())) == sorted(
            map(repr, reference.to_records())
        )


# A two-flow dashboard whose second flow runs a user task: refreshes
# recompute it through the engine after the first flow has advanced.
TWO_FLOW = FLOW.replace(
    "    top: [team, total]\n",
    "    top: [team, total]\n    raw: [team, runs]\n",
).replace(
    "    D.top:\n        endpoint: true\n",
    "    D.top:\n        endpoint: true\n"
    "    D.raw: D.games | T.trip\n"
    "    D.raw:\n        endpoint: true\n",
) + "    trip:\n        type: tripwire_test\n"

# A widget over the endpoint, so refreshes rebuild a cube.
WIDGET_FLOW = FLOW + (
    "W:\n"
    "    bars:\n"
    "        type: Bar\n"
    "        source: D.top\n"
    "        x: team\n"
    "        y: total\n"
)


class TestOneSnapshot:
    """Runs and refreshes publish rows, versions and cubes at once."""

    def test_refresh_during_a_read_serves_the_rows_of_its_version(
        self, client, monkeypatch
    ):
        client.platform.refresh_dashboard("ipl")  # bootstrap: version 2
        dashboard = client.platform.get_dashboard("ipl")
        rows = {2: dashboard.endpoint("top").to_records()}
        cache_get = client.app.query_cache.get

        def get_after_a_refresh(*args, **kwargs):
            if len(rows) == 1:
                append_games(client.tmp_path, [("KKR", 7)])
                client.platform.refresh_dashboard("ipl")
                rows[3] = dashboard.endpoint("top").to_records()
            return cache_get(*args, **kwargs)

        monkeypatch.setattr(client.app.query_cache, "get", get_after_a_refresh)
        _s, headers, body = client("GET", "/dashboards/ipl/ds/top")
        assert set(rows) == {2, 3}
        version = int(headers["X-Endpoint-Version"])
        assert json.loads(body)["rows"] == rows[version]

    def test_failed_refresh_installs_nothing_and_loses_nothing(
        self, tmp_path
    ):
        from repro.errors import ShareInsightsError, TaskExecutionError
        from repro.tasks.base import Task
        from repro.tasks.registry import default_task_registry

        class Tripwire(Task):
            type_name = "tripwire_test"
            armed = True

            def output_schema(self, input_schemas):
                return input_schemas[0]

            def apply(self, inputs, context):
                if Tripwire.armed and "KKR" in inputs[0].column("team"):
                    raise TaskExecutionError("tripwire")
                return inputs[0]

        tasks = default_task_registry()
        tasks.register_type(Tripwire)
        platform = Platform(tasks=tasks)
        write_games(tmp_path, [("CSK", 120), ("MI", 98)])
        platform.create_dashboard("ipl", TWO_FLOW, data_dir=str(tmp_path))
        platform.run_dashboard("ipl")
        platform.refresh_dashboard("ipl")  # bootstrap cycle
        dashboard = platform.get_dashboard("ipl")
        before = {
            name: dashboard.endpoint(name).to_records()
            for name in ("top", "raw")
        }
        versions = {n: dashboard.endpoint_version(n) for n in ("top", "raw")}

        append_games(tmp_path, [("KKR", 7)])
        with pytest.raises(ShareInsightsError, match="tripwire"):
            platform.refresh_dashboard("ipl")
        for name in ("top", "raw"):
            assert dashboard.endpoint(name).to_records() == before[name]
        for name, version in versions.items():
            assert dashboard.endpoint_version(name) == version

        Tripwire.armed = False
        platform.refresh_dashboard("ipl")
        assert dashboard.endpoint("top").to_records() == [
            {"team": "CSK", "total": 120},
            {"team": "MI", "total": 98},
            {"team": "KKR", "total": 7},
        ]
        assert dashboard.endpoint("raw").column("team") == ["CSK", "MI", "KKR"]
        for name, version in versions.items():
            assert dashboard.endpoint_version(name) == version + 1

    def test_gesture_during_a_refresh_serves_the_previous_cube(
        self, tmp_path, monkeypatch
    ):
        import repro.dashboard.dashboard as dashboard_module

        write_games(tmp_path, [("CSK", 120), ("MI", 98)])
        platform = make_platform(tmp_path, flow=WIDGET_FLOW)
        dashboard = platform.get_dashboard("ipl")
        previous = dashboard.widget_view("bars").payload
        cube_type = dashboard_module.DataCube
        seen = {"builds": 0, "gesture": None}

        class GestureMidRefresh(cube_type):
            """The first cube a refresh builds lets one gesture in."""

            def __init__(self, *args, **kwargs):
                seen["builds"] += 1
                if seen["gesture"] is None:
                    seen["gesture"] = "running"
                    builds = seen["builds"]
                    seen["gesture"] = dashboard.widget_view("bars").payload
                    seen["gesture_builds"] = seen["builds"] - builds
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(dashboard_module, "DataCube", GestureMidRefresh)
        append_games(tmp_path, [("KKR", 7)])
        platform.refresh_dashboard("ipl")
        assert seen["gesture"] == previous
        assert seen["gesture_builds"] == 0
        assert [bar["x"] for bar in dashboard.widget_view("bars").payload[
            "bars"
        ]] == ["CSK", "MI", "KKR"]
