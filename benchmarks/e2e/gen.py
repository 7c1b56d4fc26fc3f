"""Deterministic, seed-driven input generators.

Every workload's inputs are written once into a work directory during
set-up; the program under test only ever sees those files.  The same
``(workload, seed, smoke)`` triple always writes byte-identical files.
Sizes are fixed constants (``SIZES``), never scaled per machine, so a
number measured on one commit compares with the next.

Shapes and skews (what the program's behaviour depends on):

* ``tweets`` — ``repro.workloads.ipl.tweets_json``: a nested-JSON array
  of Gnip-shaped tweets (``user.location`` needs a ``=>`` path mapping,
  ``created_at`` needs date normalisation, ``text`` needs dictionary
  extraction).  9 teams with linearly skewed popularity, 22 players,
  26 days, 12% junk locations.
* ``commits``/``authors`` — cleanly typed CSV.  ``commit_id`` is unique
  (shuffled), ``author_id`` is Zipf(1.0) over the author table plus 2%
  dangling keys the inner join drops, ``repo`` is Zipf(1.0) over 200
  repositories, ``day`` is uniform over 120 ISO dates, 5% of commits
  have ``lines == 0`` and are filtered out.  Authors carry one of 40
  teams, 8 regions, 5 levels.
* ``balls`` — JSON-lines ball-by-ball feed: 10 teams × 11 batsmen,
  ``runs`` from a cricket-like distribution (38% dot balls, which the
  flow filters out), 60 match days.

The ``more_*`` functions make the bytes of one 1% append; the harness
makes them ahead of the clock and only writes them while it runs.
"""

from __future__ import annotations

import itertools
import json
import random
from bisect import bisect_left
from pathlib import Path

GENERATOR_VERSION = 1

#: rows per input, full size and ``--smoke`` size
SIZES = {
    "full": {
        "tweets": 24_000,
        "commits": 36_000,
        "authors": 2_000,
        "balls": 48_000,
        "append": 480,
    },
    "smoke": {
        "tweets": 1_500,
        "commits": 2_500,
        "authors": 300,
        "balls": 3_000,
        "append": 60,
    },
}

REPOS = 200
TEAMS = 40
REGIONS = ["amer", "apac", "emea", "latam", "anz", "india", "nordics", "dach"]
DAYS = 120

CRICKET_TEAMS = [
    "CSK", "MI", "RCB", "KKR", "RR", "SRH", "KXIP", "DD", "PWI", "GL",
]
#: runs off one ball and their weights: 38% dots, few sixes
_RUNS = [0, 1, 2, 3, 4, 6]
_RUN_WEIGHTS = [38, 34, 9, 1, 12, 6]
MATCH_DAYS = 60


def zipf_sampler(rng: random.Random, n: int, s: float = 1.0):
    """Draw ranks ``0..n-1`` with probability proportional to 1/(r+1)^s."""
    cumulative = list(
        itertools.accumulate(1.0 / (rank + 1) ** s for rank in range(n))
    )
    total = cumulative[-1]
    return lambda: bisect_left(cumulative, rng.random() * total)


def iso_day(index: int, year: int = 2014) -> str:
    """The ``index``-th day of ``year`` as an ISO date (index < 365)."""
    month_lengths = [31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31]
    month = 0
    while index >= month_lengths[month]:
        index -= month_lengths[month]
        month += 1
    return f"{year:04d}-{month + 1:02d}-{index + 1:02d}"


# ---------------------------------------------------------------------------
# ipl: nested-JSON tweets + dictionaries
# ---------------------------------------------------------------------------
def write_ipl(work: Path, seed: int, sizes: dict) -> dict:
    from repro.workloads import ipl

    (work / "ipl_tweets.json").write_bytes(
        ipl.tweets_json(count=sizes["tweets"], seed=seed)
    )
    (work / "players.txt").write_bytes(ipl.players_txt())
    (work / "teams.csv").write_bytes(ipl.teams_csv())
    # The program gets the dimension tables inline (Appendix A keeps
    # them in the platform); the oracle reads the same rows from here.
    dims = {
        "dim_teams": ipl.dim_teams_table().to_records(),
        "team_players": ipl.team_players_table().to_records(),
    }
    (work / "dims.json").write_text(json.dumps(dims), encoding="utf-8")
    return {"tweets": sizes["tweets"]}


def more_tweets(seed: int, cycle: int, sizes: dict) -> bytes:
    """Bytes that continue the JSON array once they overwrite its
    closing bracket: ``[...]`` → ``[..., new...]``."""
    from repro.workloads import ipl

    documents = ipl.generate_tweets(
        sizes["append"], seed=seed * 1000 + cycle + 1
    )
    return (", " + json.dumps(documents)[1:]).encode("utf-8")


# ---------------------------------------------------------------------------
# activity: commits ⋈ authors CSV
# ---------------------------------------------------------------------------
def _commit_rows(rng: random.Random, ids: list[int], authors: int):
    author_rank = zipf_sampler(rng, authors)
    repo_rank = zipf_sampler(rng, REPOS)
    for commit_id in ids:
        dangling = rng.random() < 0.02
        author_id = authors + 1 + rng.randrange(50) if dangling else (
            author_rank() + 1
        )
        lines = 0 if rng.random() < 0.05 else rng.randint(1, 2000)
        yield (
            commit_id,
            author_id,
            f"repo-{repo_rank():03d}",
            iso_day(rng.randrange(DAYS)),
            rng.randint(1, 40),
            lines,
        )


def write_activity(work: Path, seed: int, sizes: dict) -> dict:
    rng = random.Random(seed)
    authors = sizes["authors"]
    with open(work / "authors.csv", "w", encoding="utf-8") as handle:
        handle.write("author_id,team,region,level\n")
        for author_id in range(1, authors + 1):
            handle.write(
                f"{author_id},team-{rng.randrange(TEAMS):02d},"
                f"{rng.choice(REGIONS)},{rng.randint(1, 5)}\n"
            )
    ids = list(range(1, sizes["commits"] + 1))
    rng.shuffle(ids)
    with open(work / "commits.csv", "w", encoding="utf-8") as handle:
        handle.write("commit_id,author_id,repo,day,files,lines\n")
        for row in _commit_rows(rng, ids, authors):
            handle.write(",".join(map(str, row)) + "\n")
    return {"commits": sizes["commits"], "authors": authors}


def more_commits(seed: int, cycle: int, sizes: dict) -> bytes:
    """CSV lines of 1% more commits, ids continuing after the base."""
    rng = random.Random(seed * 1000 + cycle + 1)
    count = sizes["append"]
    first = sizes["commits"] + cycle * count + 1
    ids = list(range(first, first + count))
    return "".join(
        ",".join(map(str, row)) + "\n"
        for row in _commit_rows(rng, ids, sizes["authors"])
    ).encode("utf-8")


# ---------------------------------------------------------------------------
# feed: ball-by-ball JSON lines
# ---------------------------------------------------------------------------
def _ball_lines(rng: random.Random, first_ball: int, count: int):
    for ball_id in range(first_ball, first_ball + count):
        team = rng.choice(CRICKET_TEAMS)
        yield json.dumps(
            {
                "ball_id": ball_id,
                "day": iso_day(rng.randrange(MATCH_DAYS), 2013),
                "team": team,
                "batsman": f"{team}-bat{rng.randrange(11):02d}",
                "over": rng.randrange(20),
                "runs": rng.choices(_RUNS, weights=_RUN_WEIGHTS)[0],
            }
        )


def write_feed(work: Path, seed: int, sizes: dict) -> dict:
    rng = random.Random(seed)
    with open(work / "balls.jsonl", "w", encoding="utf-8") as handle:
        for line in _ball_lines(rng, 1, sizes["balls"]):
            handle.write(line + "\n")
    return {"balls": sizes["balls"]}


def more_balls(seed: int, cycle: int, sizes: dict) -> bytes:
    """JSON lines of 1% more balls, ids continuing after the base."""
    rng = random.Random(seed * 1000 + cycle + 1)
    count = sizes["append"]
    first = sizes["balls"] + cycle * count + 1
    return "".join(
        line + "\n" for line in _ball_lines(rng, first, count)
    ).encode("utf-8")
