"""Unit tests for the observability subsystem.

Tracer determinism and nesting, metric instrument semantics, percentile
math, Prometheus/JSON exposition, the recording helpers, and the
profiling/integrity utilities the CLI and tests build on.
"""

from __future__ import annotations

import threading

import pytest

from repro.errors import ShareInsightsError
from repro.observability import (
    MetricsRegistry,
    Observability,
    SimulatedClock,
    Tracer,
    check_span_integrity,
    hotspot_rows,
    record_run,
    record_stage,
    render_hotspot_table,
    render_span_tree,
    span_children,
)
from repro.observability.metrics import DEFAULT_BUCKETS


# ---------------------------------------------------------------------------
# tracer
# ---------------------------------------------------------------------------


def _sample_trace(tracer: Tracer) -> str:
    with tracer.span("engine.run", engine="local") as root:
        with tracer.span("stage", task="load(x)"):
            pass
        with tracer.span("stage", task="groupby:agg"):
            with tracer.span("attempt", partition=0):
                pass
    return root.trace_id


def test_span_ids_are_deterministic():
    first = [
        (s.span_id, s.parent_id, s.name)
        for s in Tracer(clock=SimulatedClock()).trace(
            _sample_trace(Tracer(clock=SimulatedClock()))
        )
    ]
    # Two independent tracers running the same program produce the
    # exact same ids — that is the determinism contract.
    t1, t2 = Tracer(clock=SimulatedClock()), Tracer(clock=SimulatedClock())
    spans1 = t1.trace(_sample_trace(t1))
    spans2 = t2.trace(_sample_trace(t2))
    assert [s.span_id for s in spans1] == [s.span_id for s in spans2]
    assert spans1[0].span_id == "t0001.1"
    assert spans1[0].parent_id is None
    assert first == []  # reading a foreign trace id yields nothing


def test_span_nesting_and_durations():
    clock = SimulatedClock()
    tracer = Tracer(clock=clock)
    with tracer.span("outer") as outer:
        clock.advance(1.0)
        with tracer.span("inner") as inner:
            clock.advance(0.25)
    assert inner.parent_id == outer.span_id
    assert inner.trace_id == outer.trace_id
    assert inner.duration == pytest.approx(0.25)
    assert outer.duration == pytest.approx(1.25)
    assert tracer.current is None


def test_span_error_attribute_and_reraise():
    tracer = Tracer(clock=SimulatedClock())
    with pytest.raises(ValueError):
        with tracer.span("boom") as span:
            raise ValueError("nope")
    assert span.attrs["error"] == "ValueError"
    assert span.finished


def test_new_root_after_previous_trace_closes():
    tracer = Tracer(clock=SimulatedClock())
    first = _sample_trace(tracer)
    second = _sample_trace(tracer)
    assert first == "t0001"
    assert second == "t0002"
    assert tracer.trace_ids() == ["t0001", "t0002"]
    assert tracer.last_trace_id == "t0002"


def test_concurrent_threads_keep_separate_traces():
    # Two requests interleave: each opens its root, then a child, while
    # the other's spans are still open.  Each must stay its own trace.
    tracer = Tracer(clock=SimulatedClock())
    together = threading.Barrier(2, timeout=5.0)
    opened = {}

    def request(name):
        with tracer.span(f"{name}.req") as req:
            together.wait()  # both roots open
            with tracer.span(f"{name}.child") as child:
                together.wait()  # both children open
            together.wait()  # both children closed
        opened[name] = (req, child)

    threads = [threading.Thread(target=request, args=(n,)) for n in "ab"]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(5.0)
    assert sorted(opened) == ["a", "b"]
    for req, child in opened.values():
        assert req.parent_id is None
        assert child.parent_id == req.span_id
        assert child.span_id == f"{req.trace_id}.2"
        assert tracer.trace(req.trace_id) == [req, child]
        assert req.finished and child.finished
    assert opened["a"][0].trace_id != opened["b"][0].trace_id
    assert tracer.current is None


def test_trace_retention_is_bounded():
    tracer = Tracer(clock=SimulatedClock(), max_traces=2)
    for _ in range(5):
        _sample_trace(tracer)
    assert tracer.trace_ids() == ["t0004", "t0005"]
    assert tracer.trace("t0001") == []


def test_render_span_tree_indents_children():
    tracer = Tracer(clock=SimulatedClock())
    spans = tracer.trace(_sample_trace(tracer))
    text = render_span_tree(spans)
    lines = text.splitlines()
    assert lines[0].startswith("engine.run [t0001.1]")
    assert lines[1].startswith("  stage [t0001.2]")
    assert "task=load(x)" in lines[1]
    assert lines[3].startswith("    attempt [t0001.4]")
    assert render_span_tree([]) == "(empty trace)"


def test_span_children_index():
    tracer = Tracer(clock=SimulatedClock())
    spans = tracer.trace(_sample_trace(tracer))
    children = span_children(spans)
    assert [s.name for s in children[None]] == ["engine.run"]
    assert [s.name for s in children["t0001.1"]] == ["stage", "stage"]


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def test_counter_labels_and_total():
    registry = MetricsRegistry()
    counter = registry.counter("reqs", "requests")
    counter.inc(route="a")
    counter.inc(2, route="b")
    counter.inc(route="a")
    assert counter.value(route="a") == 2
    assert counter.value(route="b") == 2
    assert counter.value(route="missing") == 0
    assert counter.total() == 4
    with pytest.raises(ValueError):
        counter.inc(-1)


def test_gauge_set_inc_dec():
    registry = MetricsRegistry()
    gauge = registry.gauge("depth")
    gauge.set(5)
    gauge.inc(2)
    gauge.dec()
    assert gauge.value() == 6


def test_instrument_type_conflicts_raise():
    registry = MetricsRegistry()
    registry.counter("x")
    with pytest.raises(ShareInsightsError):
        registry.gauge("x")
    with pytest.raises(ShareInsightsError):
        registry.histogram("x")
    # Re-declaring with the same type returns the same instrument.
    assert registry.counter("x") is registry.counter("x")


def test_histogram_percentiles_interpolate():
    registry = MetricsRegistry()
    histogram = registry.histogram(
        "latency", buckets=(0.1, 0.2, 0.4, 0.8)
    )
    for value in (0.05, 0.15, 0.15, 0.3):
        histogram.observe(value)
    summary = histogram.summary()
    assert summary["count"] == 4
    assert summary["sum"] == pytest.approx(0.65)
    # p50 falls in the (0.1, 0.2] bucket (2 of 4 observations).
    assert 0.1 <= summary["p50"] <= 0.2
    # p99 falls in the (0.2, 0.4] bucket holding the largest value.
    assert 0.2 <= summary["p99"] <= 0.4
    assert registry.histogram("latency").percentile(0.5, env="x") == 0.0


def test_histogram_overflow_clamps_to_last_bound():
    registry = MetricsRegistry()
    histogram = registry.histogram("h", buckets=(1.0, 2.0))
    histogram.observe(50.0)
    assert histogram.percentile(0.99) == 2.0


def test_prometheus_exposition_format():
    registry = MetricsRegistry()
    registry.counter("repro_runs_total", "Completed runs").inc(
        3, engine="local"
    )
    registry.gauge("repro_live", "Live dashboards").set(2)
    histogram = registry.histogram(
        "repro_dur_seconds", "Durations", buckets=(0.1, 1.0)
    )
    histogram.observe(0.05)
    histogram.observe(0.5)
    text = registry.to_prometheus()
    assert "# HELP repro_runs_total Completed runs" in text
    assert "# TYPE repro_runs_total counter" in text
    assert 'repro_runs_total{engine="local"} 3' in text
    assert "# TYPE repro_live gauge" in text
    assert "# TYPE repro_dur_seconds histogram" in text
    # Buckets are cumulative and end with +Inf == count.
    assert 'repro_dur_seconds_bucket{le="0.1"} 1' in text
    assert 'repro_dur_seconds_bucket{le="1"} 2' in text
    assert 'repro_dur_seconds_bucket{le="+Inf"} 2' in text
    assert "repro_dur_seconds_count 2" in text
    assert "repro_dur_seconds_sum 0.55" in text


def test_prometheus_label_escaping():
    registry = MetricsRegistry()
    registry.counter("c").inc(source='a"b\\c\nd')
    text = registry.to_prometheus()
    assert r'c{source="a\"b\\c\nd"} 1' in text


def test_registry_as_dict_snapshot():
    registry = MetricsRegistry()
    registry.counter("hits", "h").inc(5, route="ds")
    registry.histogram("lat", buckets=(1.0,)).observe(0.5)
    snapshot = registry.as_dict()
    assert snapshot["hits"]["type"] == "counter"
    assert snapshot["hits"]["series"] == [
        {"labels": {"route": "ds"}, "value": 5.0}
    ]
    assert snapshot["lat"]["type"] == "histogram"
    series = snapshot["lat"]["series"][0]
    assert series["count"] == 1
    assert set(series) >= {"labels", "count", "sum", "p50", "p95", "p99"}
    assert registry.names() == ["hits", "lat"]


def test_default_buckets_are_sorted_and_nonempty():
    assert list(DEFAULT_BUCKETS) == sorted(DEFAULT_BUCKETS)
    assert len(DEFAULT_BUCKETS) >= 10


# ---------------------------------------------------------------------------
# recording helpers
# ---------------------------------------------------------------------------


def test_record_stage_populates_registry():
    registry = MetricsRegistry()
    record_stage(
        registry,
        "distributed",
        "shuffle",
        0.25,
        rows_in=100,
        rows_out=10,
        shuffled_records=100,
        shuffled_bytes=2048,
        attempts=6,
        retried_partitions=2,
        speculative_wins=1,
        recovered_partitions=1,
    )
    assert registry.get("repro_stage_duration_seconds").summary(
        engine="distributed", kind="shuffle"
    )["count"] == 1
    rows = registry.get("repro_stage_rows_total")
    assert rows.value(engine="distributed", direction="in") == 100
    assert rows.value(engine="distributed", direction="out") == 10
    assert registry.get("repro_shuffle_bytes_total").value(
        engine="distributed"
    ) == 2048
    assert registry.get("repro_partition_retries_total").value(
        engine="distributed"
    ) == 2
    assert registry.get("repro_speculative_wins_total").value(
        engine="distributed"
    ) == 1
    assert registry.get("repro_recovered_partitions_total").value(
        engine="distributed"
    ) == 1


def test_record_run_populates_registry():
    registry = MetricsRegistry()
    record_run(registry, "local", 0.1)
    record_run(registry, "local", 0.2)
    assert registry.get("repro_runs_total").value(engine="local") == 2
    assert registry.get("repro_run_duration_seconds").summary(
        engine="local"
    )["count"] == 2


# ---------------------------------------------------------------------------
# profiling + integrity utilities
# ---------------------------------------------------------------------------


def _profiled_trace() -> list:
    clock = SimulatedClock()
    tracer = Tracer(clock=clock)
    with tracer.span("engine.run", engine="local") as root:
        with tracer.span(
            "stage", task="load(x)", kind="load", rows_in=0, rows_out=50
        ):
            clock.advance(0.3)
        with tracer.span(
            "stage",
            task="groupby:agg",
            kind="shuffle",
            rows_in=50,
            rows_out=5,
            shuffled_bytes=1024,
            attempts=4,
        ):
            clock.advance(0.7)
    return tracer.trace(root.trace_id)


def test_hotspot_rows_rank_by_duration():
    rows = hotspot_rows(_profiled_trace())
    assert [row["stage"] for row in rows] == ["groupby:agg", "load(x)"]
    assert rows[0]["ms"] == pytest.approx(700.0)
    assert rows[0]["%"] == pytest.approx(70.0)
    assert rows[0]["bytes shuffled"] == 1024
    assert rows[0]["attempts"] == 4


def test_render_hotspot_table_has_coverage_footer():
    text = render_hotspot_table(_profiled_trace())
    lines = text.splitlines()
    assert lines[0].split() == [
        "stage", "kind", "ms", "%", "rows", "in", "rows", "out",
        "bytes", "shuffled", "attempts",
    ]
    assert "groupby:agg" in lines[2]
    assert lines[-1].startswith("stages total 1000.00 ms of 1000.00 ms")
    assert "(100.0% coverage)" in lines[-1]
    assert render_hotspot_table([]) .startswith("no stages recorded")


def test_check_span_integrity_accepts_healthy_trace():
    assert check_span_integrity(_profiled_trace()) == []


def test_check_span_integrity_flags_problems():
    spans = _profiled_trace()
    assert check_span_integrity([]) == ["trace has no spans"]
    # Orphaned parent id.
    spans[1].parent_id = "t9999.9"
    problems = check_span_integrity(spans)
    assert any("unknown parent" in p for p in problems)
    # Child escaping its parent's interval.
    spans = _profiled_trace()
    spans[2].end = spans[0].end + 10.0
    assert any(
        "escapes its parent" in p for p in check_span_integrity(spans)
    )
    # Unfinished span and multiple roots.
    spans = _profiled_trace()
    spans[1].end = None
    spans[2].parent_id = None
    problems = check_span_integrity(spans)
    assert any("never ended" in p for p in problems)
    assert any("exactly one root" in p for p in problems)


def test_observability_hub_shares_clock():
    clock = SimulatedClock()
    hub = Observability(clock=clock)
    assert hub.clock is clock
    with hub.tracer.span("x") as span:
        clock.advance(2.0)
    assert span.duration == pytest.approx(2.0)
    assert hub.metrics.names() == []
