"""The four workloads: what runs, on which data, and why.

Every workload walks the *same* journey — cold children, warm re-runs,
a closed-loop read window, widget gestures, append → refresh cycles —
and reports every end-to-end metric; what differs is the flow file, the
shape of the data, the engine variant and the traffic mix, chosen so
that each one puts different layers on the blocking path (README.md
has the layer → metric → workload table and its predictions).
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from benchmarks.e2e import flows, gen
from benchmarks.e2e.oracle import ORACLES


@dataclass(frozen=True)
class Read:
    """One ``GET /ds/`` request and the oracle steps that answer it."""

    endpoint: str
    steps: tuple = ()
    offset: int = 0
    limit: int = 1000

    def segments(self) -> list[str]:
        """The URL path segments after ``/ds/``."""
        return [self.endpoint] + [
            str(part) for step in self.steps for part in step
        ]

    def path(self, dashboard: str) -> str:
        return (
            f"/dashboards/{dashboard}/ds/{'/'.join(self.segments())}"
            f"?limit={self.limit}&offset={self.offset}"
        )


@dataclass(frozen=True)
class Family:
    """One dataset + flow-file group; two workloads may share one."""

    name: str
    #: dashboards of the group, in creation order: (name, flow text)
    dashboards: Callable[[], list[tuple[str, str]]]
    write: Callable[[Path, int, dict], dict]
    #: source file the refresh loop grows, and the bytes of one append
    #: ``(seed, cycle, sizes)``; a JSON array cannot be appended to, so
    #: there the bytes overwrite the closing bracket
    source: str
    more: Callable[[int, int, dict], bytes]
    #: the journey's first read, and the endpoint refreshes are read from
    first_read: Read
    #: draws one ad-hoc query / one raw page read
    adhoc: Callable[[random.Random], Read]
    raw: Callable[[random.Random, dict], Read]
    #: the gesture: slider widget, dependent widget, its marks and days
    widgets_on: str
    slider: str
    dependent: str
    marks: str
    days: list[str]
    #: the program gets the IPL dimension tables inline
    ipl_dims: bool = False

    def append(self, work: Path, payload: bytes) -> int:
        """Grow the source file by one payload; returns its new size."""
        with open(work / self.source, "r+b") as handle:
            handle.seek(-1 if self.source.endswith(".json") else 0, 2)
            handle.write(payload)
            return handle.tell()


def _ipl_dashboards() -> list[tuple[str, str]]:
    from repro.workloads import IPL_CONSUMPTION_FLOW, IPL_PROCESSING_FLOW

    return [("ipl", IPL_PROCESSING_FLOW), ("clash", IPL_CONSUMPTION_FLOW)]


_IPL_DAYS = [f"2013-05-{day:02d}" for day in range(2, 28)]
_IPL_TEAMS = ["CSK", "MI", "RCB", "KKR", "RR", "SRH", "KXIP", "DD", "PWI"]
_ACTIVITY_DAYS = [gen.iso_day(i) for i in range(gen.DAYS)]
_FEED_DAYS = [gen.iso_day(i, 2013) for i in range(gen.MATCH_DAYS)]


def _ipl_adhoc(rng: random.Random) -> Read:
    # No limits here: the joins' row order is not fixed by the data, so
    # only order-free chains have an oracle.
    shape = rng.randrange(3)
    if shape == 0:
        return Read("team_tweets", (
            ("filter", "team", "eq", rng.choice(_IPL_TEAMS)),
            ("groupby", "date", "sum", "noOfTweets"),
        ))
    if shape == 1:
        return Read("players_tweets", (
            ("filter", "date", "ge", rng.choice(_IPL_DAYS)),
            ("groupby", "player", "sum", "count"),
        ))
    return Read("player_tweets", (
        ("filter", "date", "eq", rng.choice(_IPL_DAYS)),
        ("filter", "team", "eq", rng.choice(_IPL_TEAMS)),
    ))


def _ipl_raw(rng: random.Random, sizes: dict) -> Read:
    return Read(rng.choice(["players_tweets", "player_tweets", "team_tweets"]))


def _activity_adhoc(rng: random.Random) -> Read:
    shape = rng.random()
    team = f"team-{rng.randrange(gen.TEAMS):02d}"
    day = rng.choice(_ACTIVITY_DAYS)
    if shape < 0.35:
        return Read("enriched", (
            ("filter", "repo", "eq", f"repo-{rng.randrange(gen.REPOS):03d}"),
            ("groupby", "team", "sum", "lines"),
            ("orderby", "sum_lines", "desc"),
            ("limit", 5),
        ))
    if shape < 0.55:
        return Read("enriched", (
            ("filter", "team", "eq", team),
            ("groupby", "day", "count", "commit_id"),
        ))
    if shape < 0.65:
        return Read("enriched", (
            ("filter", "lines", "ge", rng.randrange(100, 1900)),
            ("groupby", "region", "avg", "files"),
        ))
    if shape < 0.85:
        return Read("team_daily", (
            ("filter", "team", "eq", team),
            ("filter", "day", "ge", day),
            ("groupby", "region", "sum", "lines"),
        ))
    return Read("team_daily", (
        ("filter", "day", "eq", day),
        ("orderby", "lines", "desc"),
        ("limit", 10),
    ))


def _activity_raw(rng: random.Random, sizes: dict) -> Read:
    # ~93% of commits survive the join and the filter; stay inside that.
    pages = int(sizes["commits"] * 0.9) // 100
    return Read("enriched", offset=100 * rng.randrange(pages), limit=100)


def _feed_adhoc(rng: random.Random) -> Read:
    shape = rng.randrange(3)
    team = rng.choice(gen.CRICKET_TEAMS)
    if shape == 0:
        return Read("team_daily", (
            ("filter", "team", "eq", team),
            ("groupby", "day", "sum", "runs"),
        ))
    if shape == 1:
        return Read("batsman_runs", (
            ("filter", "team", "eq", team),
            ("orderby", "batsman", "asc"),
            ("limit", rng.randrange(3, 9)),
        ))
    return Read("team_daily", (
        ("filter", "day", "ge", rng.choice(_FEED_DAYS)),
        ("groupby", "team", "sum", "runs"),
    ))


def _feed_raw(rng: random.Random, sizes: dict) -> Read:
    return Read("team_daily", offset=100 * rng.randrange(5), limit=100)


FAMILIES = {
    "ipl": Family(
        name="ipl",
        dashboards=_ipl_dashboards,
        write=gen.write_ipl,
        source="ipl_tweets.json",
        more=gen.more_tweets,
        first_read=Read("players_tweets"),
        adhoc=_ipl_adhoc,
        raw=_ipl_raw,
        widgets_on="clash",
        slider="ipl_duration",
        dependent="playertweets",
        marks="words",
        days=_IPL_DAYS,
        ipl_dims=True,
    ),
    "activity": Family(
        name="activity",
        dashboards=lambda: [("activity", flows.ACTIVITY_FLOW)],
        write=gen.write_activity,
        source="commits.csv",
        more=gen.more_commits,
        first_read=Read("repo_totals"),
        adhoc=_activity_adhoc,
        raw=_activity_raw,
        widgets_on="activity",
        slider="day_slider",
        dependent="team_bubble",
        marks="bubbles",
        days=_ACTIVITY_DAYS,
    ),
    "feed": Family(
        name="feed",
        dashboards=lambda: [("feed", flows.FEED_FLOW)],
        write=gen.write_feed,
        source="balls.jsonl",
        more=gen.more_balls,
        first_read=Read("top_batsmen"),
        adhoc=_feed_adhoc,
        raw=_feed_raw,
        widgets_on="feed",
        slider="day_slider",
        dependent="team_bubble",
        marks="bubbles",
        days=_FEED_DAYS,
    ),
}


#: workers of the distributed engine: ``min(nproc, 4)``
PARALLELISM = min(len(os.sched_getaffinity(0)), 4)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    family: Family
    #: ``run_dashboard`` options of the journey's batch half
    run: dict[str, Any] = field(default_factory=dict)
    #: distinct ad-hoc queries, drawn Zipf(1.1); the server's
    #: ``QueryResultCache`` holds 256 entries
    query_pool: int = 64
    #: share of the read window's requests that are ad-hoc chains
    adhoc_share: float = 0.4
    #: appends + refreshes run *beside* the read window, not after it
    refresh_beside_reads: bool = False

    def oracle(self, work: Path):
        return ORACLES[self.family.name](work)

    def run_options(self, index: int) -> dict[str, Any]:
        """``run_dashboard`` options of the group's ``index``-th
        dashboard: only the first has a batch half worth configuring."""
        return self.run if index == 0 else {"engine": "local"}

    def queries(self, seed: int) -> list[Read]:
        """The workload's pool of distinct ad-hoc queries, by rank."""
        rng = random.Random(seed ^ 0x5EED)
        pool: dict[Read, None] = {}
        while len(pool) < self.query_pool:
            pool.setdefault(self.family.adhoc(rng))
        return list(pool)


def _distributed(executor: str, **extra: Any) -> dict[str, Any]:
    return {
        "engine": "distributed",
        "parallelism": PARALLELISM,
        "executor": executor,
        **extra,
    }


WORKLOADS = {
    w.name: w
    for w in [
        Workload(
            name="ipl_batch",
            why=(
                "paper's Appendix A flow on nested-JSON tweets, local "
                "engine: ingest-, map- and group-by-heavy, tiny endpoints, "
                "so shuffle, pool and page transport do no work"
            ),
            family=FAMILIES["ipl"],
            run={"engine": "local"},
            query_pool=48,
        ),
        Workload(
            name="activity_join",
            why=(
                "typed CSV through join, filter, 3-key group-by and sorts on "
                "distributed processes with a kept pool; then 1024 distinct "
                "Zipf queries, 4x the 256-entry result cache: hits and "
                "misses both matter"
            ),
            family=FAMILIES["activity"],
            run=_distributed("processes", pool="keep"),
            query_pool=1024,
            adhoc_share=0.5,
        ),
        Workload(
            name="refresh_mixed",
            why=(
                "join-free JSON-lines feed: appends and incremental "
                "refreshes run beside the reads, so delta cursors, cache "
                "invalidation and the run lock are on the read path"
            ),
            family=FAMILIES["feed"],
            run={"engine": "local"},
            query_pool=64,
            refresh_beside_reads=True,
        ),
    ]
}
