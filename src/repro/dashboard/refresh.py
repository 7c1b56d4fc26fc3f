"""Background refresh scheduler: keeps published endpoints warm.

A :class:`RefreshScheduler` wraps a
:class:`~repro.platform.Platform` and calls
:meth:`~repro.platform.Platform.refresh_dashboard` for each managed
dashboard on a fixed interval, from a daemon thread.  Each cycle runs
under a ``refresh.cycle`` span; a dashboard whose refresh raises is
logged and counted (``repro_refresh_errors_total``) without stopping
the cycle or the scheduler.

Use :meth:`run_cycle` directly for synchronous, deterministic refreshes
(tests, the CLI's ``refresh --cycles`` loop); :meth:`start` /
:meth:`stop` manage the background thread, and the scheduler doubles as
a context manager::

    with RefreshScheduler(platform, interval=30.0) as scheduler:
        ...  # endpoints stay warm while serving

Consistency: each refresh installs its dashboard's new endpoint
snapshot (rows, versions, cubes) in one swap inside
``refresh_dashboard``, so a scheduler cycle is exactly as safe as a
manual refresh.
"""

from __future__ import annotations

import logging
import threading
from typing import Sequence

from repro.observability.instruments import (
    REFRESH_CYCLES,
    REFRESH_ERRORS,
)

_LOG = logging.getLogger("repro.refresh")


class RefreshScheduler:
    """Periodic dashboard refreshes on a daemon thread."""

    def __init__(
        self,
        platform,
        interval: float = 30.0,
        dashboards: Sequence[str] | None = None,
        incremental: bool = True,
    ):
        if interval <= 0:
            raise ValueError(
                f"refresh interval must be positive, got {interval!r}"
            )
        self.platform = platform
        self.interval = float(interval)
        #: None means "every dashboard the platform knows at cycle time"
        self._dashboards = (
            list(dashboards) if dashboards is not None else None
        )
        self.incremental = incremental
        self.cycles = 0
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    # -- synchronous core ----------------------------------------------

    def run_cycle(self) -> dict[str, object]:
        """Refresh every managed dashboard once; returns name → report.

        A failing dashboard maps to the exception instead of a report.
        """
        platform = self.platform
        names = (
            self._dashboards
            if self._dashboards is not None
            else platform.dashboard_names()
        )
        results: dict[str, object] = {}
        obs = platform.observability
        with obs.tracer.span(
            "refresh.cycle", dashboards=len(names), cycle=self.cycles
        ):
            for name in names:
                try:
                    results[name] = platform.refresh_dashboard(
                        name, incremental=self.incremental
                    )
                except Exception as exc:
                    _LOG.warning(
                        "background refresh of %r failed: %s", name, exc
                    )
                    obs.metrics.counter(
                        REFRESH_ERRORS,
                        "Dashboard refreshes that raised",
                    ).inc(dashboard=name)
                    results[name] = exc
        obs.metrics.counter(
            REFRESH_CYCLES, "Background refresh cycles completed"
        ).inc()
        self.cycles += 1
        return results

    # -- background thread ---------------------------------------------

    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    def start(self) -> None:
        if self.running:
            return
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._loop, name="repro-refresh", daemon=True
        )
        self._thread.start()

    def stop(self, timeout: float = 5.0) -> None:
        self._stop.set()
        thread = self._thread
        if thread is not None:
            thread.join(timeout=timeout)
        self._thread = None

    def _loop(self) -> None:
        # Wait first: callers start the scheduler right after the
        # priming full run, when every endpoint is already fresh.
        while not self._stop.wait(self.interval):
            try:
                self.run_cycle()
            except Exception:  # pragma: no cover - run_cycle guards
                _LOG.exception("refresh cycle failed")

    def __enter__(self) -> "RefreshScheduler":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()
