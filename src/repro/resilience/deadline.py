"""Request deadlines, threaded end-to-end through the stack.

The serving tier stamps every admitted request with a :class:`Deadline`
(wall-clock budget on a pluggable :class:`~repro.resilience.Clock`).
The deadline rides through the ``http.request`` span into engine runs
via a *thread-scoped* ambient slot (:func:`deadline_scope`): the worker
thread executing the request installs its deadline, and both executors
poll :func:`check_deadline` at stage boundaries, so a request that has
already blown its budget stops consuming workers instead of running to
completion for a client that gave up.

Expiry raises :class:`~repro.errors.DeadlineExceededError`, which the
REST layer maps to ``504`` with a structured body.  The check sits at
stage *boundaries*, which is the partial-safety guarantee: a stage
either finishes (its output is consistent and may be checkpointed) or
was never started — no half-written table is ever published, because
``Dashboard.run_flows`` only installs its endpoint snapshot after the
whole engine run returns.
"""

from __future__ import annotations

import threading
from typing import Iterator

from contextlib import contextmanager

from repro.errors import DeadlineExceededError
from repro.resilience.clock import Clock, WallClock

_local = threading.local()

_WALL = WallClock()


class Deadline:
    """A point in time after which work on a request must stop.

    Immutable; cheap to share across layers.  ``remaining()`` is the
    budget left (never negative), ``check()`` raises on expiry.
    """

    __slots__ = ("expires_at", "budget", "_clock")

    def __init__(
        self, expires_at: float, budget: float, clock: Clock | None = None
    ):
        self.expires_at = float(expires_at)
        #: the original allowance, for Retry-After hints and telemetry
        self.budget = float(budget)
        self._clock = clock or _WALL

    @classmethod
    def after(cls, seconds: float, clock: Clock | None = None) -> "Deadline":
        """A deadline ``seconds`` from now on ``clock`` (wall by default)."""
        clock = clock or _WALL
        return cls(clock.now() + float(seconds), float(seconds), clock)

    def remaining(self) -> float:
        """Seconds left before expiry, clamped at zero."""
        return max(0.0, self.expires_at - self._clock.now())

    @property
    def expired(self) -> bool:
        return self._clock.now() >= self.expires_at

    def check(self, what: str = "request") -> None:
        """Raise :class:`DeadlineExceededError` when the budget is gone."""
        if self.expired:
            raise DeadlineExceededError(
                f"deadline of {self.budget:.3f}s exceeded before {what}"
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Deadline(remaining={self.remaining():.3f}s, "
            f"budget={self.budget:.3f}s)"
        )


def current_deadline() -> Deadline | None:
    """The deadline governing the current thread's request, if any."""
    return getattr(_local, "deadline", None)


@contextmanager
def deadline_scope(deadline: Deadline | None) -> Iterator[Deadline | None]:
    """Install ``deadline`` as the current thread's ambient deadline.

    Scopes nest: the previous deadline (usually ``None``) is restored on
    exit.  Passing ``None`` clears the slot for the scope's duration.
    """
    previous = getattr(_local, "deadline", None)
    _local.deadline = deadline
    try:
        yield deadline
    finally:
        _local.deadline = previous


def check_deadline(what: str = "request") -> None:
    """Poll the ambient deadline; no-op when none is installed.

    Engines call this at stage boundaries — the cheapest place that
    still bounds overrun to one stage's wall time.
    """
    deadline = getattr(_local, "deadline", None)
    if deadline is not None:
        deadline.check(what)
