"""Shared benchmark fixtures and result reporting.

Every figure-regeneration benchmark both *times* its computation (via
pytest-benchmark) and *reports* the regenerated series: rows are printed
and appended to ``benchmarks/results/<name>.txt`` so the paper-vs-
measured comparison in EXPERIMENTS.md can be refreshed from a run.
"""

from __future__ import annotations

from pathlib import Path

import pytest

RESULTS_DIR = Path(__file__).parent / "results"


def report(name: str, text: str) -> None:
    """Print a figure's series and persist it under results/."""
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n", encoding="utf-8")
    print(f"\n{text}")


@pytest.fixture(scope="session")
def hackathon_result():
    """One full 52-team Race2Insights simulation, shared by the figure
    benchmarks (the simulation itself is timed separately)."""
    from repro.hackathon import run_hackathon

    return run_hackathon(num_teams=52, seed=2015)


@pytest.fixture(scope="session")
def apache_dashboard():
    """A ready-to-run Apache dashboard on the default platform."""
    from repro import Platform
    from repro.workloads import APACHE_FLOW, apache

    platform = Platform()
    dashboard = platform.create_dashboard(
        "apache", APACHE_FLOW, inline_tables=apache.all_tables()
    )
    platform.run_dashboard("apache")
    return platform, dashboard
