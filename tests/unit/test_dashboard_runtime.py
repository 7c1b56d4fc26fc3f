"""Unit tests for the Dashboard runtime itself."""

import pytest

from repro import EnvironmentProfile, Platform
from repro.data import Schema, Table
from repro.errors import ExecutionError, WidgetError

FLOW = (
    "D:\n    raw: [k, v]\n    out: [k, total]\n"
    "F:\n    D.out: D.raw | T.agg\n"
    "    D.out:\n        endpoint: true\n"
    "T:\n"
    "    agg:\n"
    "        type: groupby\n"
    "        groupby: [k]\n"
    "        aggregates:\n"
    "            - operator: sum\n"
    "              apply_on: v\n"
    "              out_field: total\n"
    "    pick:\n"
    "        type: filter_by\n"
    "        filter_by: [k]\n"
    "        filter_source: W.picker\n"
    "        filter_val: [text]\n"
    "W:\n"
    "    picker:\n"
    "        type: List\n"
    "        source: D.out\n"
    "        text: k\n"
    "    chart:\n"
    "        type: Bar\n"
    "        source: D.out | T.pick\n"
    "        x: k\n"
    "        y: total\n"
    "    chart_twin:\n"
    "        type: Pie\n"
    "        source: D.out | T.pick\n"
    "        label: k\n"
    "        value: total\n"
    "L:\n    rows:\n    - [span4: W.picker, span8: W.chart]\n"
)

RAW = Table.from_rows(
    Schema.of("k", "v"), [("a", 1), ("b", 2), ("a", 3)]
)


def make(environment=None):
    platform = Platform()
    platform.create_dashboard(
        "d", FLOW, inline_tables={"raw": RAW}, environment=environment
    )
    platform.run_dashboard("d")
    return platform.get_dashboard("d")


class TestEndpoints:
    def test_endpoint_access(self):
        dashboard = make()
        assert dashboard.endpoint("out").num_rows == 2

    def test_non_endpoint_rejected(self):
        dashboard = make()
        with pytest.raises(ExecutionError, match="not an endpoint"):
            dashboard.endpoint("raw")

    def test_materialized_before_run_raises(self):
        platform = Platform()
        platform.create_dashboard(
            "d", FLOW, inline_tables={"raw": RAW}
        )
        with pytest.raises(ExecutionError, match="not been materialized"):
            platform.get_dashboard("d").materialized("out")

    def test_unknown_widget_raises(self):
        with pytest.raises(WidgetError, match="no widget"):
            make().widget("ghost")


class TestCubeSharing:
    def test_widgets_with_same_pipeline_share_a_cube(self):
        dashboard = make()
        # T.pick is selection-dependent and therefore client-side, so
        # all three widgets have the same server pipeline (D.out, no
        # tasks) and share a single cube payload.
        cubes = dashboard.snapshot().cubes
        assert cubes["chart"] is cubes["chart_twin"]
        assert cubes["chart"] is cubes["picker"]

    def test_transferred_bytes_counts_shared_cube_once(self):
        dashboard = make()
        distinct = {id(c): c for c in dashboard.snapshot().cubes.values()}
        assert len(distinct) == 1
        assert dashboard.transferred_bytes == next(
            iter(distinct.values())
        ).transferred_bytes

    def test_shared_cube_serves_both_widgets_with_selection(self):
        dashboard = make()
        dashboard.select("picker", values=["a"])
        bars = dashboard.widget_view("chart").payload["bars"]
        wedges = dashboard.widget_view("chart_twin").payload["wedges"]
        assert [b["x"] for b in bars] == ["a"]
        assert [w["label"] for w in wedges] == ["a"]


class TestSelectionLifecycle:
    def test_clear_selection(self):
        dashboard = make()
        dashboard.select("picker", values=["a"])
        assert len(dashboard.widget_view("chart").payload["bars"]) == 1
        dashboard.select("picker")  # no values, no range: clear
        assert len(dashboard.widget_view("chart").payload["bars"]) == 2

    def test_pie_selectable_by_label(self):
        dashboard = make()
        dashboard.select("chart_twin", values=["a"])  # Pie: label attr
        assert dashboard.widget(
            "chart_twin"
        ).selection.values["label"] == ["a"]

    def test_bar_widget_not_selectable(self):
        dashboard = make()
        with pytest.raises(WidgetError, match="not support selection"):
            dashboard.select("chart", values=["a"])

    def test_rerun_preserves_selection_effects(self):
        dashboard = make()
        dashboard.select("picker", values=["b"])
        dashboard.run_flows()
        bars = dashboard.widget_view("chart").payload["bars"]
        assert [b["x"] for b in bars] == ["b"]


class TestEnvironmentRepresentation:
    def test_static_environment_disables_selection(self):
        dashboard = make(environment=EnvironmentProfile.no_js())
        with pytest.raises(WidgetError, match="statically"):
            dashboard.select("picker", values=["a"])

    def test_static_environment_still_renders(self):
        dashboard = make(environment=EnvironmentProfile.no_js())
        view = dashboard.render()
        assert "bar-chart" in view.html

    def test_mobile_payload_cap_applies_to_cubes(self):
        platform = Platform()
        big = Table.from_rows(
            Schema.of("k", "v"),
            [(f"k{i}", i) for i in range(5000)],
        )
        platform.create_dashboard(
            "d",
            FLOW,
            inline_tables={"raw": big},
            environment=EnvironmentProfile.mobile(),
        )
        platform.run_dashboard("d")
        dashboard = platform.get_dashboard("d")
        cap = EnvironmentProfile.mobile().max_payload_rows
        for cube in dashboard.snapshot().cubes.values():
            assert cube.table.num_rows <= cap


class TestRendering:
    def test_widget_views_cached_within_render(self):
        dashboard = make()
        view = dashboard.render()
        assert set(view.widget_views) == {"picker", "chart"}

    def test_text_projection_contains_all_cells(self):
        dashboard = make()
        text = dashboard.render().text
        assert "(4/12)" in text and "(8/12)" in text
