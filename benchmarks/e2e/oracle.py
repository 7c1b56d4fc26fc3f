"""Plain-Python reference results (no ``repro`` imports, on purpose).

Each oracle reads the *generated files* with the standard library and
recomputes what the program should serve with dicts, ``sorted`` and
list comprehensions — written to be obviously right, never fast.  The
harness compares every response body against these answers; anything
that differs counts as a failed operation.

An answer is ``(rows, ordered)``: ``ordered`` says whether the row
sequence is fixed by the data (compare lists) or only the row multiset
is (compare canonically sorted lists — first-seen group order of a
partitioned engine is not part of the contract).
"""

from __future__ import annotations

import csv
import json
import re
from pathlib import Path
from typing import Any, Callable, Iterable

Rows = list[dict[str, Any]]


# ---------------------------------------------------------------------------
# a tiny relational vocabulary
# ---------------------------------------------------------------------------
def group_by(
    rows: Iterable[dict[str, Any]],
    keys: list[str],
    aggregates: dict[str, tuple[str, str | None]],
) -> Rows:
    """Group in first-seen order; ``aggregates`` maps an output column
    to ``(operator, input column)`` with operators count/sum/avg."""
    groups: dict[tuple, list[dict[str, Any]]] = {}
    for row in rows:
        groups.setdefault(tuple(row[k] for k in keys), []).append(row)
    out = []
    for key, members in groups.items():
        record = dict(zip(keys, key))
        for name, (operator, column) in aggregates.items():
            if operator == "count":
                record[name] = len(members)
                continue
            values = [m[column] for m in members if m[column] is not None]
            if operator == "sum":
                record[name] = sum(values) if values else None
            elif operator == "avg":
                record[name] = sum(values) / len(values) if values else None
            else:
                raise ValueError(f"oracle has no aggregate {operator!r}")
        out.append(record)
    return out


def order_by(rows: Rows, *keys: tuple[str, bool]) -> Rows:
    """Stable multi-key sort; each key is ``(column, descending)``."""
    for column, descending in reversed(keys):
        rows = sorted(rows, key=lambda r: r[column], reverse=descending)
    return rows


_COMPARE: dict[str, Callable[[Any, Any], bool]] = {
    "eq": lambda a, b: a == b,
    "ne": lambda a, b: a != b,
    "lt": lambda a, b: a < b,
    "le": lambda a, b: a <= b,
    "gt": lambda a, b: a > b,
    "ge": lambda a, b: a >= b,
}


def eval_query(rows: Rows, steps: list[tuple]) -> Rows:
    """The ad-hoc ``/ds/`` verbs, as the flow-file reference words them."""
    for step in steps:
        verb = step[0]
        if verb == "filter":
            _verb, column, op, value = step
            compare = _COMPARE[op]
            rows = [
                r for r in rows
                if r[column] is not None and compare(r[column], value)
            ]
        elif verb == "groupby":
            _verb, column, aggregate, apply_on = step
            out = apply_on if aggregate == "count" else (
                f"{aggregate}_{apply_on}"
            )
            rows = group_by(rows, [column], {out: (aggregate, apply_on)})
        elif verb == "orderby":
            rows = order_by(rows, (step[1], step[2] == "desc"))
        elif verb == "limit":
            rows = rows[: step[1]]
        else:
            raise ValueError(f"oracle has no verb {verb!r}")
    return rows


def canonical(rows: Rows) -> list[str]:
    """Row multiset in a canonical order (for unordered comparison)."""
    return sorted(json.dumps(r, sort_keys=True) for r in rows)


def same_rows(got: Rows, want: Rows, ordered: bool) -> bool:
    if ordered:
        return got == want
    return canonical(got) == canonical(want)


class Oracle:
    """Base: the source file is folded in up to a byte mark, so the
    harness can replay its appends one at a time; each endpoint table
    is recomputed on first use after a step."""

    #: endpoint name -> is the row order fixed by the data?
    ordered: dict[str, bool] = {}

    def __init__(self, work: Path):
        self.work = Path(work)
        self._offset = 0
        self._cache: dict[str, Rows] = {}

    def advance(self, upto: int) -> None:
        """Fold in the source file's bytes up to ``upto`` (its size right
        after one of the harness's appends)."""
        if upto != self._offset:
            self._cache.clear()
            self._ingest(upto)
            self._offset = upto

    def _ingest(self, upto: int) -> None:
        raise NotImplementedError

    def _compute(self, name: str) -> Rows:
        raise NotImplementedError

    def endpoint(self, name: str) -> Rows:
        if name not in self._cache:
            self._cache[name] = self._compute(name)
        return self._cache[name]

    def _buckets(self, endpoint: str, column: str) -> dict[Any, Rows]:
        key = f"{endpoint} by {column}"
        if key not in self._cache:
            buckets: dict[Any, Rows] = {}
            for row in self.endpoint(endpoint):
                buckets.setdefault(row[column], []).append(row)
            self._cache[key] = buckets
        return self._cache[key]

    def read(self, endpoint: str, steps: list[tuple], offset: int,
             limit: int) -> tuple[Rows, bool]:
        """Expected ``rows`` of ``GET /ds/<endpoint>/<steps>?limit&offset``."""
        rows = self.endpoint(endpoint)
        if steps and steps[0][:3:2] == ("filter", "eq"):
            # A leading equality filter reads its rows from a per-column
            # bucket map (rows keep their order), not by a full scan.
            _verb, column, _op, value = steps[0]
            rows = self._buckets(endpoint, column).get(value, [])
            steps = steps[1:]
        rows = eval_query(rows, steps)
        ordered = self.ordered[endpoint] or any(
            s[0] == "orderby" for s in steps
        )
        if not ordered and any(s[0] == "limit" for s in steps):
            raise ValueError("a limit over unordered rows has no oracle")
        return rows[offset: offset + limit], ordered

    def widget(self, lo: str, hi: str) -> dict[str, float]:
        """Expected ``text -> size`` marks of the dependent widget once
        the slider selects ``[lo, hi]`` (inclusive, as sliders are)."""
        raise NotImplementedError


# ---------------------------------------------------------------------------
# activity: commits ⋈ authors
# ---------------------------------------------------------------------------
class ActivityOracle(Oracle):
    ordered = {"enriched": True, "team_daily": True, "repo_totals": True}

    def _ingest(self, upto: int) -> None:
        if self._offset == 0:
            with open(self.work / "authors.csv", newline="") as handle:
                self._authors = {
                    int(r["author_id"]): r for r in csv.DictReader(handle)
                }
            self._enriched: Rows = []
        with open(self.work / "commits.csv", "rb") as handle:
            names = handle.readline().decode("utf-8").strip().split(",")
            start = max(self._offset, handle.tell())
            handle.seek(start)
            tail = handle.read(upto - start)
        for record in csv.DictReader(
            tail.decode("utf-8").splitlines(), fieldnames=names
        ):
            author = self._authors.get(int(record["author_id"]))
            lines = int(record["lines"])
            if author is None or not lines > 0:
                continue
            self._enriched.append(
                {
                    "commit_id": int(record["commit_id"]),
                    "author_id": int(record["author_id"]),
                    "repo": record["repo"],
                    "day": record["day"],
                    "files": int(record["files"]),
                    "lines": lines,
                    "team": author["team"],
                    "region": author["region"],
                    "level": int(author["level"]),
                }
            )

    def _compute(self, name: str) -> Rows:
        if name == "enriched":
            return order_by(self._enriched, ("commit_id", False))
        if name == "team_daily":
            return order_by(
                group_by(
                    self._enriched,
                    ["team", "region", "day"],
                    {"commits": ("count", None), "lines": ("sum", "lines")},
                ),
                ("team", False), ("region", False), ("day", False),
            )
        if name == "repo_totals":
            return order_by(
                group_by(
                    self._enriched,
                    ["repo"],
                    {
                        "commits": ("count", None),
                        "lines": ("sum", "lines"),
                        "files": ("sum", "files"),
                    },
                ),
                ("lines", True), ("repo", False),
            )
        raise KeyError(name)

    def widget(self, lo: str, hi: str) -> dict[str, float]:
        chosen = [
            r for r in self.endpoint("team_daily") if lo <= r["day"] <= hi
        ]
        return {
            r["team"]: float(r["lines"])
            for r in group_by(chosen, ["team"], {"lines": ("sum", "lines")})
        }


# ---------------------------------------------------------------------------
# feed: ball-by-ball JSON lines
# ---------------------------------------------------------------------------
class FeedOracle(Oracle):
    # Group-by outputs come in first-seen order of one sequential pass
    # over an append-only file: fixed by the data on the local engine.
    ordered = {"batsman_runs": True, "top_batsmen": True, "team_daily": True}

    def _ingest(self, upto: int) -> None:
        if self._offset == 0:
            # Running [balls, runs] per group; dicts keep first-seen
            # order, which is the order the program must serve.
            self._per_batsman: dict[tuple, list[int]] = {}
            self._per_team_day: dict[tuple, list[int]] = {}
        with open(self.work / "balls.jsonl", "rb") as handle:
            handle.seek(self._offset)
            tail = handle.read(upto - self._offset)
        for line in tail.splitlines():
            ball = json.loads(line)
            if not ball["runs"] > 0:
                continue
            for totals, key in (
                (self._per_batsman, (ball["team"], ball["batsman"])),
                (self._per_team_day, (ball["team"], ball["day"])),
            ):
                entry = totals.setdefault(key, [0, 0])
                entry[0] += 1
                entry[1] += ball["runs"]

    def _compute(self, name: str) -> Rows:
        if name == "batsman_runs":
            return [
                {"team": t, "batsman": b, "balls": n, "runs": r}
                for (t, b), (n, r) in self._per_batsman.items()
            ]
        if name == "top_batsmen":
            return order_by(
                self.endpoint("batsman_runs"),
                ("runs", True), ("batsman", False),
            )[:10]
        if name == "team_daily":
            return [
                {"team": t, "day": d, "balls": n, "runs": r}
                for (t, d), (n, r) in self._per_team_day.items()
            ]
        raise KeyError(name)

    def widget(self, lo: str, hi: str) -> dict[str, float]:
        chosen = [
            r for r in self.endpoint("team_daily") if lo <= r["day"] <= hi
        ]
        return {
            r["team"]: float(r["runs"])
            for r in group_by(chosen, ["team"], {"runs": ("sum", "runs")})
        }


# ---------------------------------------------------------------------------
# ipl: the paper's Appendix A flow-file group
# ---------------------------------------------------------------------------
_WORD = re.compile(r"[A-Za-z][A-Za-z']+")
_MONTHS = {
    m: i + 1
    for i, m in enumerate(
        "Jan Feb Mar Apr May Jun Jul Aug Sep Oct Nov Dec".split()
    )
}


def _dictionary(path: Path) -> dict[str, str]:
    """``surface,canonical`` lines, in file order."""
    mapping = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        surface, _, canonical_name = line.partition(",")
        if surface.strip():
            mapping[surface.strip().lower()] = canonical_name.strip()
    return mapping


def _extract(text: str, mapping: dict[str, str]) -> str | None:
    """Fig. 21 ``extract``: the first dictionary *word* in text order,
    else the first multi-word surface form (dictionary order) found as
    a substring."""
    lowered = text.lower()
    for word in _WORD.findall(lowered):
        if word in mapping:
            return mapping[word]
    for surface, canonical_name in mapping.items():
        if " " in surface and surface in lowered:
            return canonical_name
    return None


def _iso_date(created_at: str) -> str:
    """``Sat May 04 22:06:23 +0000 2013`` → ``2013-05-04``."""
    _dow, month, day, _clock, _zone, year = created_at.split()
    return f"{int(year):04d}-{_MONTHS[month]:02d}-{int(day):02d}"


class IplOracle(Oracle):
    """Checks the three endpoints the workload reads.

    The joins' output order is the program's business, so all three
    compare as multisets.  The dimension tables the program receives
    inline are read from ``dims.json``, which the generator writes next
    to the tweets.
    """

    ordered = {
        "players_tweets": False, "player_tweets": False,
        "team_tweets": False,
    }

    def _ingest(self, upto: int) -> None:
        if self._offset == 0:
            self._players = _dictionary(self.work / "players.txt")
            self._teams = _dictionary(self.work / "teams.csv")
            self._dims = json.loads(
                (self.work / "dims.json").read_text(encoding="utf-8")
            )
        # An append overwrites the closing bracket and continues the
        # array, so the first ``upto`` bytes, re-closed, are the complete
        # document as of that append.
        with open(self.work / "ipl_tweets.json", "rb") as handle:
            tweets = json.loads(handle.read(upto - 1) + b"]")
        self._mapped = [
            {
                "date": _iso_date(t["created_at"]),
                "player": _extract(t["text"], self._players),
                "team": _extract(t["text"], self._teams),
            }
            for t in tweets
        ]

    def _compute(self, name: str) -> Rows:
        if name == "players_tweets":
            return group_by(
                self._mapped, ["date", "player"], {"count": ("count", None)}
            )
        if name == "player_tweets":
            by_player = {r["player"]: r for r in self._dims["team_players"]}
            return [
                {
                    "date": row["date"],
                    "player": row["player"],
                    "noOfTweets": row["count"],
                    **{
                        column: by_player.get(row["player"], {}).get(column)
                        for column in ("team", "team_fullName", "player_id")
                    },
                }
                for row in self.endpoint("players_tweets")
            ]
        if name == "team_tweets":
            by_team = {r["team_fullName"]: r for r in self._dims["dim_teams"]}
            return [
                {
                    "date": row["date"],
                    "team_fullName": row["team"],
                    "noOfTweets": row["count"],
                    **{
                        column: by_team.get(row["team"], {}).get(column)
                        for column in ("team", "sort_order", "color")
                    },
                }
                for row in group_by(
                    self._mapped, ["date", "team"], {"count": ("count", None)}
                )
            ]
        raise KeyError(name)

    def widget(self, lo: str, hi: str) -> dict[str, float]:
        chosen = [
            r for r in self.endpoint("player_tweets")
            if r["player"] is not None and lo <= r["date"] <= hi
        ]
        return {
            r["player"]: float(r["noOfTweets"])
            for r in group_by(
                chosen, ["player"], {"noOfTweets": ("sum", "noOfTweets")}
            )
        }


ORACLES = {
    "ipl": IplOracle,
    "activity": ActivityOracle,
    "feed": FeedOracle,
}
