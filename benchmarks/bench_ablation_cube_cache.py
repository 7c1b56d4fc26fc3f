"""Ablation — the interactive cube's gesture cache.

The generated single-page app (paper §4.4) re-evaluates widget pipelines
on every gesture; the cube memoizes by (pipeline, selection) so repeated
gestures — tab switches, re-selecting the same team — cost nothing.
Measures repeated-gesture latency with the cache on vs off on a 20 k-row
endpoint payload.  Expected shape: an order of magnitude or more.
"""

from repro.data import Schema, Table
from repro.engine.datacube import DataCube
from repro.tasks.base import WidgetSelection
from repro.tasks.registry import default_task_registry

from benchmarks.conftest import report

ROWS = 20_000


def make_cube(enable_cache: bool) -> tuple[DataCube, list]:
    table = Table.from_rows(
        Schema.of("team", "date", "n"),
        [
            (f"T{i % 9}", f"2013-05-{(i % 26) + 2:02d}", i % 300)
            for i in range(ROWS)
        ],
    )
    registry = default_task_registry()
    tasks = registry.build_section(
        {
            "pick": {
                "type": "filter_by",
                "filter_by": ["team"],
                "filter_source": "W.teams",
                "filter_val": ["text"],
            },
            "agg": {
                "type": "groupby",
                "groupby": ["team"],
                "aggregates": [
                    {"operator": "sum", "apply_on": "n",
                     "out_field": "n"}
                ],
            },
        }
    )
    return (
        DataCube("bench", table, enable_cache=enable_cache),
        [tasks["pick"], tasks["agg"]],
    )


SELECTION = {"teams": WidgetSelection(values={"text": ["T1", "T2"]})}


def test_ablation_cube_cache(benchmark):
    import time

    cached_cube, tasks = make_cube(enable_cache=True)
    cached_cube.query(tasks, SELECTION)  # warm

    result = benchmark(cached_cube.query, tasks, SELECTION)
    assert result.num_rows == 2
    # every query after the warm-up hits, however many rounds ran
    assert cached_cube.stats.cache_hits == cached_cube.stats.queries - 1

    uncached_cube, tasks = make_cube(enable_cache=False)
    started = time.perf_counter()
    repeats = 20
    for _ in range(repeats):
        uncached_cube.query(tasks, SELECTION)
    uncached_ms = (time.perf_counter() - started) / repeats * 1000
    assert uncached_cube.stats.cache_hits == 0
    report(
        "ablation_cube_cache",
        "Ablation: gesture cache in the client cube "
        f"({ROWS}-row payload)\n"
        f"repeated gesture, cache OFF: {uncached_ms:.2f} ms\n"
        f"repeated gesture, cache ON : ~microseconds (see benchmark "
        f"table)\n"
        f"scans avoided: {uncached_cube.stats.rows_scanned} rows "
        f"re-scanned without the cache vs "
        f"{cached_cube.stats.rows_scanned} with",
    )
