"""Integration: parallel source loading is invisible in every output.

A dashboard with several loader-backed data objects prefetches them
concurrently through ``DataObjectLoader.load_many`` before the engine
runs.  Mirroring ``test_parallel_determinism``, these tests require the
parallelism and executor knobs to change wall time only: materialized
tables (row order included), the full span tree, and the metrics
registry (counter values and histogram observation counts — durations
legitimately vary) must be byte-identical across
{threads, processes} x parallelism {1, 4}, with and without every
named fault-injection profile.

The small-job sequential fallback is disabled in the matrix runs
(``small_job_bytes = 0``) because its counter is the one deliberate
parallelism-dependent metric; it gets its own tests below.
"""

import json

import pytest

from repro import Platform

pytestmark = pytest.mark.resilience

PROFILES = [None, "transient", "lost", "straggler", "flaky", "chaos:7"]

FLOW = """D:
    sales: [region, amount]
    events: [region => place, clicks => hits]
    dims: [region, zone]
    sales_by_region: [region, total]
    events_by_region: [region, clicks_total]
    dims_by_zone: [zone, regions]
D.sales:
    source: sales.csv
    stream: true
D.events:
    source: events.jsonl
    format: jsonl
D.dims:
    source: dims.csv
F:
    D.sales_by_region: D.sales | T.agg_sales
    D.events_by_region: D.events | T.agg_events
    D.dims_by_zone: D.dims | T.agg_dims
    D.sales_by_region:
        endpoint: true
T:
    agg_sales:
        type: groupby
        groupby: [region]
        aggregates:
            - operator: sum
              apply_on: amount
              out_field: total
    agg_events:
        type: groupby
        groupby: [region]
        aggregates:
            - operator: sum
              apply_on: clicks
              out_field: clicks_total
    agg_dims:
        type: groupby
        groupby: [zone]
        aggregates:
            - operator: count
              out_field: regions
"""

REGIONS = ["north", "south", "east", "west", "centre"]


@pytest.fixture
def workspace(tmp_path):
    sales = ["region,amount"]
    for i in range(200):
        sales.append(f"{REGIONS[i % 5]},{(i * 7) % 90 + 1}")
    (tmp_path / "sales.csv").write_text("\n".join(sales) + "\n")
    events = [
        json.dumps({"place": REGIONS[(i * 3) % 5], "hits": i % 13})
        for i in range(150)
    ]
    (tmp_path / "events.jsonl").write_text("\n".join(events) + "\n")
    dims = ["region,zone"]
    for i, region in enumerate(REGIONS):
        dims.append(f"{region},zone{i % 2}")
    (tmp_path / "dims.csv").write_text("\n".join(dims) + "\n")
    return tmp_path


def _run(
    workspace, profile, parallelism, executor="threads", fallback=False
):
    platform = Platform()
    platform.create_dashboard("multi", FLOW, data_dir=workspace)
    dashboard = platform.get_dashboard("multi")
    if not fallback:
        # The small-job fallback's counter is deliberately
        # parallelism-dependent; the determinism matrix turns it off.
        platform.loader.small_job_bytes = 0
    report = dashboard.run_flows(
        engine="distributed",
        fault_profile=profile,
        parallelism=parallelism,
        executor=executor,
    )
    spans = platform.observability.tracer.trace(report.trace_id or "")
    return dashboard, report, spans, platform.observability.metrics


def _tables_fingerprint(dashboard):
    # _data exposes column lists verbatim: row ORDER matters here.
    return {
        name: (table.schema.names, dict(table._data))
        for name, table in dashboard.snapshot().tables.items()
    }


def _span_fingerprint(spans):
    return [
        (s.name, s.span_id, s.parent_id, sorted(s.attrs.items()))
        for s in spans
    ]


def _metrics_fingerprint(metrics):
    """Counter/gauge values plus histogram observation counts."""
    fingerprint = {}
    for name, entry in metrics.as_dict().items():
        if entry["type"] == "histogram":
            series = [
                (tuple(sorted(s["labels"].items())), s["count"])
                for s in entry["series"]
            ]
        else:
            series = [
                (tuple(sorted(s["labels"].items())), s["value"])
                for s in entry["series"]
            ]
        fingerprint[name] = series
    return fingerprint


class TestParallelLoadingIsInvisible:
    @pytest.mark.parametrize("executor", ["threads", "processes"])
    @pytest.mark.parametrize(
        "profile", PROFILES, ids=[p or "none" for p in PROFILES]
    )
    def test_identical_across_executors_and_parallelism(
        self, workspace, profile, executor
    ):
        base_dash, base_report, base_spans, base_metrics = _run(
            workspace, profile, 1
        )
        for parallelism in (1, 4):
            dash, report, spans, metrics = _run(
                workspace, profile, parallelism, executor=executor
            )
            key = f"{executor}/parallelism={parallelism}"
            assert _tables_fingerprint(dash) == _tables_fingerprint(
                base_dash
            ), key
            assert report.rows_produced == base_report.rows_produced, key
            assert _span_fingerprint(spans) == _span_fingerprint(
                base_spans
            ), key
            assert _metrics_fingerprint(metrics) == _metrics_fingerprint(
                base_metrics
            ), key

    def test_sources_prefetch_under_one_span(self, workspace):
        _dash, _report, spans, _metrics = _run(workspace, None, 4)
        loads = [s for s in spans if s.name == "sources.load"]
        assert len(loads) == 1
        assert loads[0].attrs["sources"] == 3
        fetches = [
            s for s in spans
            if s.name == "connector.fetch"
            and s.parent_id == loads[0].span_id
        ]
        assert len(fetches) == 3
        # The streamed CSV source reports its byte count like the rest.
        assert all(s.attrs.get("bytes", 0) > 0 for s in fetches)
        decodes = [s for s in spans if s.name == "format.decode"]
        assert {s.attrs["format"] for s in decodes} == {"csv", "jsonl"}
        assert {s.attrs["rows"] for s in decodes} == {200, 150, 5}

    def test_matches_local_engine(self, workspace):
        dist_dash, _report, _spans, _metrics = _run(workspace, None, 4)
        platform = Platform()
        platform.create_dashboard("multi", FLOW, data_dir=workspace)
        local = platform.get_dashboard("multi")
        local.run_flows(engine="local")
        for name in ("sales_by_region", "events_by_region", "dims_by_zone"):
            dist_rows = sorted(
                map(repr, dist_dash.materialized(name).to_records())
            )
            local_rows = sorted(
                map(repr, local.materialized(name).to_records())
            )
            assert dist_rows == local_rows, name

    def test_ingest_metrics_recorded(self, workspace):
        _dash, _report, _spans, metrics = _run(workspace, None, 2)
        rows = metrics.get("repro_ingest_rows_total")
        assert rows is not None
        by_format = {
            labels["format"]: value for labels, value in rows.series()
        }
        assert by_format == {"csv": 205, "jsonl": 150}
        duration = metrics.get("repro_ingest_decode_seconds")
        assert duration is not None
        counts = {
            labels["format"]: summary["count"]
            for labels, _ in duration.series()
            for summary in [duration.summary(**labels)]
        }
        assert counts == {"csv": 2, "jsonl": 1}


class TestSmallJobFallback:
    def test_small_sources_load_sequentially(self, workspace):
        _dash, _report, _spans, metrics = _run(
            workspace, None, 4, fallback=True
        )
        fallback = metrics.get("repro_ingest_parallel_fallback_total")
        assert fallback is not None
        series = {
            labels["reason"]: value for labels, value in fallback.series()
        }
        assert series == {"small-job": 1}

    def test_fallback_changes_no_table_or_span(self, workspace):
        seq_dash, _r, seq_spans, _m = _run(workspace, None, 1)
        fb_dash, _r2, fb_spans, _m2 = _run(
            workspace, None, 4, fallback=True
        )
        assert _tables_fingerprint(fb_dash) == _tables_fingerprint(
            seq_dash
        )
        assert _span_fingerprint(fb_spans) == _span_fingerprint(seq_spans)

    def test_parallel_respected_above_threshold(self, workspace):
        platform = Platform()
        platform.create_dashboard("multi", FLOW, data_dir=workspace)
        # Tiny threshold: every source is "large", so no fallback.
        platform.loader.small_job_bytes = 1
        platform.get_dashboard("multi").run_flows(
            engine="distributed", parallelism=4
        )
        metrics = platform.observability.metrics
        assert metrics.get("repro_ingest_parallel_fallback_total") is None

    def test_zero_threshold_disables_fallback(self, workspace):
        # Sources far below the 8 MiB default still load in parallel
        # once the threshold is 0.
        platform = Platform()
        platform.create_dashboard("multi", FLOW, data_dir=workspace)
        platform.loader.small_job_bytes = 0
        platform.get_dashboard("multi").run_flows(
            engine="distributed", parallelism=4
        )
        metrics = platform.observability.metrics
        assert metrics.get("repro_ingest_parallel_fallback_total") is None
