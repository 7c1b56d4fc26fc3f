"""Data profiling and auto-constructed meta-dashboards (paper §6).

"We want to auto-construct meta-dashboards which provide statistics and
analysis of all the data columns used in the data pipeline.  Since data
cleaning is a non-trivial activity, we believe this feature would be of
immense help for huge data sizes."

Two layers:

* :func:`profile_table` — per-column statistics (null rate, distinct
  count, numeric min/max/mean, top values) for one table;
* :func:`build_meta_dashboard` — generates a complete *flow file* whose
  widgets display the profile of every data object a dashboard
  materializes, and instantiates it on the platform.  The meta-dashboard
  is an ordinary dashboard: it renders, serves endpoint data, and can be
  forked like any other — the platform eating its own dog food.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.data import Schema, Table


@dataclass
class ColumnProfile:
    """Statistics for one column."""

    name: str
    total: int
    nulls: int
    distinct: int
    #: numeric summary, None for non-numeric columns
    minimum: float | None = None
    maximum: float | None = None
    mean: float | None = None
    #: most frequent values: (value, count), descending
    top_values: list[tuple[Any, int]] = field(default_factory=list)

    @property
    def null_rate(self) -> float:
        return self.nulls / self.total if self.total else 0.0

    def as_row(self) -> dict[str, Any]:
        return {
            "column": self.name,
            "rows": self.total,
            "nulls": self.nulls,
            "null_pct": round(100 * self.null_rate, 2),
            "distinct": self.distinct,
            "min": self.minimum,
            "max": self.maximum,
            "mean": round(self.mean, 4) if self.mean is not None else None,
            "top_value": (
                self.top_values[0][0] if self.top_values else None
            ),
            "top_count": (
                self.top_values[0][1] if self.top_values else None
            ),
        }


def profile_column(
    name: str, values: list[Any], top_k: int = 5
) -> ColumnProfile:
    """Profile one column's values."""
    total = len(values)
    nulls = sum(1 for v in values if v is None)
    counts: dict[Any, int] = {}
    numeric: list[float] = []
    for value in values:
        if value is None:
            continue
        key = str(value) if isinstance(value, (list, dict)) else value
        counts[key] = counts.get(key, 0) + 1
        if isinstance(value, bool):
            continue
        if isinstance(value, (int, float)):
            numeric.append(float(value))
    top = sorted(counts.items(), key=lambda kv: (-kv[1], str(kv[0])))
    profile = ColumnProfile(
        name=name,
        total=total,
        nulls=nulls,
        distinct=len(counts),
        top_values=top[:top_k],
    )
    if numeric:
        profile.minimum = min(numeric)
        profile.maximum = max(numeric)
        profile.mean = sum(numeric) / len(numeric)
    return profile


def profile_table(table: Table, top_k: int = 5) -> list[ColumnProfile]:
    """Profile every column of ``table``."""
    return [
        profile_column(name, table.column(name), top_k=top_k)
        for name in table.schema.names
    ]


def profile_as_table(table: Table, top_k: int = 5) -> Table:
    """The profile itself as a table (one row per column)."""
    schema = Schema.of(
        "column", "rows", "nulls", "null_pct", "distinct",
        "min", "max", "mean", "top_value", "top_count",
    )
    return Table.from_rows(
        schema, [p.as_row() for p in profile_table(table, top_k)]
    )


# ---------------------------------------------------------------------------
# meta-dashboard generation
# ---------------------------------------------------------------------------

_META_SUFFIX = "_meta"


def build_meta_flow_file(object_names: list[str]) -> str:
    """Flow-file text for a meta-dashboard over ``object_names``.

    Each profiled object gets a DataGrid of its column statistics and a
    Bar chart of null percentages — the cleaning-first view §6 asks for.
    """
    lines = ["D:"]
    for name in object_names:
        lines.append(
            f"    {name}_profile: [column, rows, nulls, null_pct, "
            f"distinct, min, max, mean, top_value, top_count]"
        )
    for name in object_names:
        lines.append(f"D.{name}_profile:")
        lines.append("    endpoint: true")
    lines.append("W:")
    for name in object_names:
        lines.extend(
            [
                f"    {name}_grid:",
                "        type: DataGrid",
                f"        source: D.{name}_profile",
                "        page_size: 50",
                f"    {name}_nulls:",
                "        type: Bar",
                f"        source: D.{name}_profile",
                "        x: column",
                "        y: null_pct",
            ]
        )
    lines.append("L:")
    lines.append("    description: Data profile")
    lines.append("    rows:")
    for name in object_names:
        lines.append(f"    - [span7: W.{name}_grid, span5: W.{name}_nulls]")
    return "\n".join(lines) + "\n"


def build_meta_dashboard(platform, dashboard_name: str):
    """Auto-construct the meta-dashboard for an existing dashboard.

    Profiles every data object the dashboard has materialized (run it
    first), creates ``<name>_meta`` on the platform, and returns it.
    """
    dashboard = platform.get_dashboard(dashboard_name)
    materialized = dict(dashboard.snapshot().tables)
    if not materialized:
        raise ValueError(
            f"dashboard {dashboard_name!r} has no materialized data; "
            f"run_flows() first"
        )
    names = sorted(materialized)
    source = build_meta_flow_file(names)
    profiles = {
        f"{name}_profile": profile_as_table(materialized[name])
        for name in names
    }
    meta_name = f"{dashboard_name}{_META_SUFFIX}"
    meta = platform.create_dashboard(
        meta_name, source, inline_tables=profiles
    )
    meta.run_flows()
    return meta
