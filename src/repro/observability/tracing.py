"""Hierarchical tracing with deterministic span ids.

A :class:`Tracer` records *spans* — named, timed intervals with
attributes — nested by a context-manager stack, so the platform's
causality is captured end to end:

- batch path: ``compile`` → ``parse``/``plan`` → ``engine.run`` →
  ``stage`` → ``attempt`` (one per partition attempt, retries and
  speculative duplicates included);
- interactive path: ``http.request`` → ``query.eval`` (ad-hoc query
  language) and ``cube.query`` (datacube slices behind widget views).

Span ids are **deterministic**: each trace is numbered in creation
order (``t0001``, ``t0002``...) and spans within it sequentially
(``t0001.1`` is always the root).  The same program against the same
tracer always yields the same ids, so traces can be asserted exactly in
tests and diffed across runs.  Time comes from a pluggable
:class:`~repro.resilience.clock.Clock` — the same protocol the
resilience layer uses — so traces are instant and exact under a
:class:`~repro.resilience.clock.SimulatedClock`.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Iterator

from repro.resilience.clock import Clock, WallClock


@dataclass
class Span:
    """One named, timed interval in a trace."""

    name: str
    trace_id: str
    span_id: str
    parent_id: str | None
    start: float
    end: float | None = None
    attrs: dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        """Seconds from start to end (0.0 while still open)."""
        return 0.0 if self.end is None else self.end - self.start

    @property
    def finished(self) -> bool:
        return self.end is not None

    def set(self, **attrs: Any) -> "Span":
        """Attach attributes; returns self for chaining."""
        self.attrs.update(attrs)
        return self

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start": self.start,
            "end": self.end,
            "duration": self.duration,
            "attrs": dict(self.attrs),
        }


class _OpenSpans(threading.local):
    """One thread's open spans, outermost first, and the number of the
    last span it opened in its current trace."""

    def __init__(self) -> None:
        self.stack: list[Span] = []
        self.seq = 0


class Tracer:
    """Produces hierarchical spans with deterministic ids.

    Spans nest through an explicit stack per thread: :meth:`span`
    parents the new span under the calling thread's innermost open one,
    starting a fresh trace when none is open, so concurrent requests
    never share a trace.  Span numbers count within their trace.
    Finished traces are kept (most-recent-last) up to ``max_traces``;
    older ones are evicted.
    """

    def __init__(self, clock: Clock | None = None, max_traces: int = 64):
        self._clock = clock or WallClock()
        self._max_traces = max(1, max_traces)
        self._trace_seq = 0
        self._lock = threading.Lock()
        self._open = _OpenSpans()
        self._traces: OrderedDict[str, list[Span]] = OrderedDict()

    # -- recording ---------------------------------------------------------
    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[Span]:
        """Open a span; exceptions mark it with an ``error`` attribute."""
        span = self.start_span(name, **attrs)
        try:
            yield span
        except BaseException as exc:
            span.attrs.setdefault("error", type(exc).__name__)
            raise
        finally:
            self.end_span(span)

    def start_span(self, name: str, **attrs: Any) -> Span:
        """Open a span imperatively (prefer the :meth:`span` manager)."""
        opened = self._open
        with self._lock:
            if opened.stack:
                parent = opened.stack[-1]
                trace_id = parent.trace_id
                parent_id = parent.span_id
                opened.seq += 1
            else:
                self._trace_seq += 1
                trace_id = f"t{self._trace_seq:04d}"
                parent_id = None
                opened.seq = 1
                self._traces[trace_id] = []
                while len(self._traces) > self._max_traces:
                    self._traces.popitem(last=False)
            span = Span(
                name=name,
                trace_id=trace_id,
                span_id=f"{trace_id}.{opened.seq}",
                parent_id=parent_id,
                start=self._clock.now(),
                attrs=dict(attrs),
            )
            # The trace may have been evicted if more than max_traces
            # opened while this one was still running; re-register quietly.
            self._traces.setdefault(trace_id, []).append(span)
        opened.stack.append(span)
        return span

    def end_span(self, span: Span) -> None:
        """Close ``span`` (and anything this thread left open under it)."""
        stack = self._open.stack
        while stack:
            top = stack.pop()
            if top.end is None:
                top.end = self._clock.now()
            if top is span:
                break

    @property
    def current(self) -> Span | None:
        """The calling thread's innermost open span, if any."""
        stack = self._open.stack
        return stack[-1] if stack else None

    # -- reading -----------------------------------------------------------
    def trace_ids(self) -> list[str]:
        """Retained trace ids, oldest first."""
        return list(self._traces)

    @property
    def last_trace_id(self) -> str | None:
        return next(reversed(self._traces), None)

    def trace(self, trace_id: str) -> list[Span]:
        """Spans of one trace in creation order; [] if unknown/evicted."""
        return list(self._traces.get(trace_id, []))


def span_children(spans: list[Span]) -> dict[str | None, list[Span]]:
    """Index a trace's spans by parent id (``None`` ⇒ roots)."""
    children: dict[str | None, list[Span]] = {}
    for span in spans:
        children.setdefault(span.parent_id, []).append(span)
    return children


def render_span_tree(spans: list[Span]) -> str:
    """An indented text rendering of one trace's span hierarchy."""
    if not spans:
        return "(empty trace)"
    children = span_children(spans)
    lines: list[str] = []

    def walk(span: Span, depth: int) -> None:
        attrs = " ".join(
            f"{key}={value}" for key, value in sorted(span.attrs.items())
        )
        lines.append(
            f"{'  ' * depth}{span.name} [{span.span_id}] "
            f"{span.duration * 1000:.2f} ms"
            + (f"  {attrs}" if attrs else "")
        )
        for child in children.get(span.span_id, []):
            walk(child, depth + 1)

    for root in children.get(None, []):
        walk(root, 0)
    return "\n".join(lines)
