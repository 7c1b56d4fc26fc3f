"""Interactive data-cube latency — the widget-interaction path.

Context for §3.5.1's event-handler-free interaction model: a user
gesture costs one cube query (filter + group over the endpoint payload),
amortized by the gesture cache.  Expected shape: cold queries scale with
payload size; repeated gestures are near-free (cache hits).
"""

import os
import time

import pytest

from repro.data import Schema, Table
from repro.engine.datacube import DataCube
from repro.tasks.base import WidgetSelection
from repro.tasks.registry import default_task_registry

from benchmarks.conftest import report

SIZES = [1_000, 10_000, 50_000]


def endpoint(n):
    return Table.from_rows(
        Schema.of("team", "date", "noOfTweets"),
        [
            (f"T{i % 9}", f"2013-05-{(i % 26) + 2:02d}", i % 500)
            for i in range(n)
        ],
    )


def pipeline():
    registry = default_task_registry()
    tasks = registry.build_section(
        {
            "filter_by_team": {
                "type": "filter_by",
                "filter_by": ["team"],
                "filter_source": "W.teams",
                "filter_val": ["text"],
            },
            "aggregate": {
                "type": "groupby",
                "groupby": ["team"],
                "aggregates": [
                    {
                        "operator": "sum",
                        "apply_on": "noOfTweets",
                        "out_field": "noOfTweets",
                    }
                ],
            },
        }
    )
    return [tasks["filter_by_team"], tasks["aggregate"]]


@pytest.mark.parametrize("size", SIZES)
def test_cold_gesture_latency(benchmark, size):
    cube = DataCube("bench", endpoint(size))
    tasks = pipeline()
    counter = iter(range(10**9))

    def gesture():
        # A fresh selection each round: always a cache miss.
        i = next(counter)
        selection = {
            "teams": WidgetSelection(
                values={"text": [f"T{i % 9}", f"T{(i + 1) % 9}"]}
            )
        }
        return cube.query(tasks, selection)

    out = benchmark(gesture)
    assert out.num_rows <= 9


@pytest.mark.parametrize("size", SIZES)
def test_repeated_gesture_cached(benchmark, size):
    cube = DataCube("bench", endpoint(size))
    tasks = pipeline()
    selection = {"teams": WidgetSelection(values={"text": ["T1"]})}
    cube.query(tasks, selection)  # warm

    out = benchmark(cube.query, tasks, selection)
    assert out.num_rows == 1
    # Every query after the warm-up must be a cache hit, regardless of
    # how many rounds pytest-benchmark ran (one under
    # --benchmark-disable, many in timing mode).
    assert cube.stats.cache_hits == cube.stats.queries - 1


def test_gesture_summary_recorded():
    """Record cold-vs-cached gesture latency under results/."""
    size = 10_000 if os.environ.get("BENCH_SMOKE") == "1" else 50_000
    cube = DataCube("bench", endpoint(size))
    tasks = pipeline()
    selection = {"teams": WidgetSelection(values={"text": ["T1"]})}

    start = time.perf_counter()
    cube.query(tasks, selection)
    cold_s = time.perf_counter() - start

    start = time.perf_counter()
    cube.query(tasks, selection)
    cached_s = time.perf_counter() - start

    assert cube.stats.cache_hits == 1
    report(
        "cube_gesture",
        f"cube gesture over {size} rows: cold {cold_s * 1000:.3f} ms, "
        f"cached {cached_s * 1000:.3f} ms",
    )
