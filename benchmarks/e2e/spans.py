"""The benchmark's own span recorder (the program's ``Tracer`` is not
used: ROADMAP documents it as unreliable under threads).

A span is ``(id, parent, trace, name, start, end)``.  Spans nest per
thread; every span opened under a root shares the root's trace id, so
one journey or one request is one trace.  Everything stays in memory
until :meth:`Recorder.dump` writes it out; self time is a span's
duration minus the part of it its children cover.

:meth:`Recorder.wrap` puts a span around a layer's public function from
the outside by rebinding the attribute — the program's source is not
edited, and :meth:`Recorder.unwrap_all` puts every original back.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Iterator


class Recorder:
    def __init__(self) -> None:
        self.spans: list[dict[str, Any]] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._wrapped: list[tuple[Any, str, Any]] = []

    @contextmanager
    def span(self, name: str) -> Iterator[dict[str, Any]]:
        stack = self._local.__dict__.setdefault("stack", [])
        with self._lock:
            record = {
                "id": len(self.spans),
                "parent": stack[-1]["id"] if stack else None,
                "trace": stack[0]["id"] if stack else len(self.spans),
                "name": name,
            }
            self.spans.append(record)
        stack.append(record)
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            stack.pop()

    def wrap(self, owner: Any, attribute: str, name: str | None = None):
        """Rebind ``owner.attribute`` — a function of a module, a method
        or static method defined on a class, or a callable held by an
        instance — to a version that records a span around each call."""
        original = vars(owner)[attribute]
        static = isinstance(original, staticmethod)
        call: Callable = original.__func__ if static else original
        label = name or attribute

        @functools.wraps(call)
        def traced(*args: Any, **kwargs: Any) -> Any:
            with self.span(label):
                return call(*args, **kwargs)

        self._wrapped.append((owner, attribute, original))
        setattr(owner, attribute, staticmethod(traced) if static else traced)

    def unwrap_all(self) -> None:
        while self._wrapped:
            owner, attribute, original = self._wrapped.pop()
            setattr(owner, attribute, original)

    # -- analysis --------------------------------------------------------
    def self_times(self, trace: int | None = None) -> dict[str, float]:
        """Seconds of self time per span name (one trace, or all)."""
        children: dict[int, float] = defaultdict(float)
        chosen = [
            s for s in self.spans
            if "end" in s and (trace is None or s["trace"] == trace)
        ]
        for span in chosen:
            if span["parent"] is not None:
                children[span["parent"]] += span["end"] - span["start"]
        totals: dict[str, float] = defaultdict(float)
        for span in chosen:
            totals[span["name"]] += max(
                0.0, span["end"] - span["start"] - children[span["id"]]
            )
        return dict(totals)

    def durations(self, name: str) -> list[float]:
        return [
            s["end"] - s["start"]
            for s in self.spans
            if s["name"] == name and "end" in s
        ]

    def dump(self, path: Path, **stamp: Any) -> None:
        path.write_text(
            json.dumps({"stamp": stamp, "spans": self.spans}),
            encoding="utf-8",
        )


def check_tree(spans: list[dict[str, Any]]) -> list[str]:
    """Structural problems in a span list (empty = a proper forest)."""
    by_id = {s["id"]: s for s in spans}
    problems = []
    for span in spans:
        if span.get("end", 0.0) < span.get("start", 0.0):
            problems.append(f"span {span['id']} ends before it starts")
        parent = span["parent"]
        if parent is None:
            if span["trace"] != span["id"]:
                problems.append(f"root {span['id']} has a foreign trace")
            continue
        if parent not in by_id:
            problems.append(f"span {span['id']} has unknown parent")
            continue
        up = by_id[parent]
        if up["trace"] != span["trace"]:
            problems.append(f"span {span['id']} left its trace")
        if not (
            up["start"] <= span["start"]
            and span.get("end", 0.0) <= up.get("end", float("inf"))
        ):
            problems.append(f"span {span['id']} escapes its parent")
    return problems
