"""Deterministic parallel scheduling primitives for the batch engine.

The distributed executor splits every stage into per-partition *units*
of pure compute.  :class:`WorkerPool` runs those units on a bounded
executor and hands their outcomes back **in submission order**, so
the engine can merge partition results, telemetry and spans exactly as
the sequential engine would — parallelism changes wall time, never
output.

Two executors sit behind the same interface (see
``docs/parallelism.md`` for the selection matrix):

- ``threads`` — a bounded :class:`~concurrent.futures.ThreadPoolExecutor`.
  Cheap to start and shares memory, but pure-python compute serializes
  on the GIL, so it only pays for I/O-bound units.
- ``processes`` — forked worker processes (POSIX only; falls back to
  threads where ``os.fork`` is unavailable).  Each worker inherits the
  submitted thunks by fork — closures never need to pickle — executes
  its stride of units, and streams the *results* back as frames.
  Table results travel as binary page-codec blobs
  (:mod:`repro.data.pages`): typed/dictionary columns ship raw array
  buffers with bit-packed null masks instead of boxed objects.  Small
  results are batched into ~1 MiB frames before the write, so
  transfer cost stays sub-linear in rows.

The process executor has two lifetimes.  The default is cold:
``os.fork`` per stage, workers exit after their stride.  A
:class:`ProcessPool` keeps the workers *warm* — forked once, reused
across stages and runs — turning per-stage cost into one pickled
dispatch frame per worker, with results returned through a
shared-memory ``mmap`` arena (or the cold path's pipe frames, where
``mmap`` is unavailable).  ``WorkerPool(executor="processes",
pool=...)`` dispatches to the warm pool first and silently falls back
to cold fork when the pool cannot take the batch (closed, no fork, or
unpicklable thunks).

Two design rules keep the determinism guarantee cheap:

- units must be pure (no tracer, no fault injector, no clock): all
  shared-state decisions are resolved by the coordinator *before*
  dispatch, in canonical partition order;
- worker exceptions are captured, not raised, so the coordinator can
  re-raise them at the same point in the merge order where sequential
  execution would have failed.  A worker process that dies without
  reporting (kill -9, ``os._exit``) surfaces as a captured
  :class:`~repro.errors.WorkerLostError`, which re-enters the engine's
  lineage-recovery path on the coordinator.
"""

from __future__ import annotations

import os
import pickle
import shutil
import signal
import struct
import sys
import tempfile
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable, Iterable, Iterator, Sequence

try:
    import mmap
except ImportError:  # pragma: no cover - mmap ships with CPython
    mmap = None  # type: ignore[assignment]

from repro.data import pages as page_codec
from repro.data.table import Table
from repro.errors import WorkerLostError
from repro.observability.instruments import record_page_codec

#: the executor vocabulary, in documentation order
EXECUTORS = ("threads", "processes")

#: the warm-pool result transports, in documentation order
TRANSPORTS = ("shared-memory", "frame")

#: how a run uses the platform's warm pool (CLI ``run --pool``):
#: ``auto`` uses the platform pool when one is warm and cold-forks
#: every stage otherwise, ``keep`` warms the persistent platform pool
POOL_MODES = ("auto", "keep")

#: flush the child's result buffer once this many pickled bytes
#: accumulate — small unit results batch into one write, large tables
#: ship alone (the size-aware batching heuristic)
_FRAME_FLUSH_BYTES = 1 << 20

_LENGTH = struct.Struct("<Q")


def fork_available() -> bool:
    """True when the process executor can actually fork (POSIX)."""
    return hasattr(os, "fork")


def resolve_executor(executor: str) -> str:
    """Validate an executor name against :data:`EXECUTORS`."""
    name = str(executor).lower()
    if name not in EXECUTORS:
        raise ValueError(
            f"unknown executor {executor!r}; choose one of "
            f"{', '.join(EXECUTORS)}"
        )
    return name


def resolve_transport(transport: str) -> str:
    """Validate a warm-pool transport name against :data:`TRANSPORTS`."""
    name = str(transport).lower()
    if name not in TRANSPORTS:
        raise ValueError(
            f"unknown transport {transport!r}; choose one of "
            f"{', '.join(TRANSPORTS)}"
        )
    return name


def shared_memory_available() -> bool:
    """True when the arena transport can run (fork + ``mmap``)."""
    return fork_available() and mmap is not None


def resolve_pool_mode(mode: str) -> str:
    """Validate a pool mode name against :data:`POOL_MODES`."""
    name = str(mode).lower()
    if name not in POOL_MODES:
        raise ValueError(
            f"unknown pool mode {mode!r}; choose one of "
            f"{', '.join(POOL_MODES)}"
        )
    return name


class UnitOutcome:
    """Result of one unit: a value or the exception it raised."""

    __slots__ = ("value", "error")

    def __init__(
        self, value: Any = None, error: BaseException | None = None
    ):
        self.value = value
        self.error = error

    @property
    def failed(self) -> bool:
        return self.error is not None

    def __repr__(self) -> str:
        if self.failed:
            return f"UnitOutcome(error={self.error!r})"
        return f"UnitOutcome(value={self.value!r})"


class ProcessTransportError(RuntimeError):
    """A worker's result or exception could not be pickled back.

    Raised on the coordinator in place of the original outcome; the
    message carries the original type name and repr.
    """


class PoolStats:
    """Lifetime counters for one :class:`ProcessPool`.

    ``arena_bytes`` is a high-water mark (largest total arena footprint
    any single batch produced); everything else is a monotonic count.
    """

    __slots__ = (
        "forks", "recycled", "respawns", "warm_hits",
        "dispatch_fallbacks", "arena_bytes",
    )

    def __init__(self) -> None:
        self.forks = 0
        self.recycled = 0
        self.respawns = 0
        self.warm_hits = 0
        self.dispatch_fallbacks = 0
        self.arena_bytes = 0

    def as_dict(self) -> dict[str, int]:
        return {name: getattr(self, name) for name in self.__slots__}

    def __repr__(self) -> str:
        inner = ", ".join(
            f"{name}={getattr(self, name)}" for name in self.__slots__
        )
        return f"PoolStats({inner})"


class _PoolWorker:
    """Coordinator-side handle for one live warm worker."""

    __slots__ = (
        "pid", "dispatch_w", "result_r", "arena_path", "arena_fd",
        "arena_mm", "tasks_done", "rss_bytes",
    )

    def __init__(
        self, pid: int, dispatch_w: int, result_r: int,
        arena_path: str | None,
    ):
        self.pid = pid
        self.dispatch_w = dispatch_w
        self.result_r = result_r
        self.arena_path = arena_path
        self.arena_fd = -1
        self.arena_mm: Any = None
        self.tasks_done = 0
        self.rss_bytes = 0

    def fds(self) -> list[int]:
        fds = [self.dispatch_w, self.result_r]
        if self.arena_fd >= 0:
            fds.append(self.arena_fd)
        return fds


class ProcessPool:
    """A persistent pool of forked workers, warm across stages and runs.

    The cold path (:meth:`WorkerPool._map_processes`) pays ``os.fork``
    per stage and inherits the thunks by fork.  A warm pool forks its
    workers **once**; every stage after that is a *dispatch*: the
    coordinator pickles each unit thunk, sends one length-prefixed
    dispatch frame per worker over its pipe, and workers stream results
    back — so steady-state stage overhead is two pipe round trips, not
    ``workers`` forks.

    Results travel on one of two transports (:data:`TRANSPORTS`):

    - ``shared-memory`` — the worker appends each pickled result page
      to its own ``mmap``-backed arena file (same length-prefixed page
      format as ``engine/spill.py``), and the pipe carries only a tiny
      ``(unit, offset, length)`` descriptor; the coordinator maps the
      arena read-only and unpickles straight out of the mapping, so
      page bytes never traverse a pipe.
    - ``frame`` — the PR 7 pickled-pipe frames, used automatically when
      ``mmap`` is unavailable or an arena write fails mid-batch.

    The dispatch protocol needs no event loop to be deadlock-free: a
    worker fully reads its dispatch frame before writing any result,
    and every worker is idle (blocked on that read) whenever the
    coordinator writes, because :meth:`run_batch` collects every
    worker's ``done`` marker before returning.  A blocked result pipe
    therefore never has the coordinator on the other end of a cycle.

    Failure and hygiene policy:

    - a worker that dies mid-batch surfaces its unfinished units as
      :class:`~repro.errors.WorkerLostError` (same contract as the cold
      path, so lineage recovery just works) and is respawned before the
      next batch;
    - workers are recycled between batches once they exceed
      ``max_tasks_per_worker`` or ``max_rss_bytes`` (0 disables);
    - a batch whose thunks refuse to pickle returns ``None`` so the
      caller can fall back to cold fork (closures never need to pickle
      there) — counted in ``stats.dispatch_fallbacks``;
    - forked children close every other worker's inherited pipe and
      arena fd, so EOF on a dead worker's result pipe is immediate.

    ``tracer`` is deliberately ``None`` by default: ``pool.dispatch``
    spans nest under the innermost open span and would change the span
    tree that canonical replay keeps byte-identical, so they are opt-in
    diagnostics only.  ``metrics`` (also optional) feeds the
    ``repro_pool_*`` family.
    """

    def __init__(
        self,
        workers: int = 1,
        *,
        max_tasks_per_worker: int = 0,
        max_rss_bytes: int = 0,
        transport: str = "shared-memory",
        metrics: Any = None,
        tracer: Any = None,
    ):
        self.workers = max(1, int(workers))
        self.max_tasks_per_worker = max(0, int(max_tasks_per_worker))
        self.max_rss_bytes = max(0, int(max_rss_bytes))
        self.transport = resolve_transport(transport)
        self.metrics = metrics
        self.tracer = tracer
        self.stats = PoolStats()
        self._slots: list[_PoolWorker | None] = [None] * self.workers
        self._dir: str | None = None
        self._seq = 0
        self._closed = False
        # One dispatch at a time: the platform shares its warm pool
        # across serving threads, so concurrent run_batch calls must
        # serialize instead of interleaving pipe writes.
        self._lock = threading.Lock()

    # -- lifecycle -------------------------------------------------------

    @property
    def closed(self) -> bool:
        return self._closed

    def available(self) -> bool:
        """True when this pool can dispatch (fork present, not closed)."""
        return fork_available() and not self._closed

    def alive(self) -> int:
        """Number of currently forked workers."""
        return sum(1 for worker in self._slots if worker is not None)

    def prefork(self) -> int:
        """Fork every missing worker now (serve-startup warm-up).

        Returns the number of live workers.  Dispatch would fork them
        lazily anyway; preforking just moves the cost off the first
        request.
        """
        if not self.available():
            return 0
        with self._lock:
            for slot in range(self.workers):
                if self._slots[slot] is None:
                    self._spawn(slot)
            return self.alive()

    def close(self) -> None:
        """Retire every worker and remove the arena directory.

        Waits for an in-flight dispatch to finish first, so draining
        callers never yank arenas out from under a running batch.
        """
        if self._closed:
            return
        with self._lock:
            if self._closed:
                return
            self._closed = True
            for slot, worker in enumerate(self._slots):
                if worker is not None:
                    self._retire(worker)
                    self._slots[slot] = None
            if self._dir is not None:
                shutil.rmtree(self._dir, ignore_errors=True)
                self._dir = None

    def __enter__(self) -> "ProcessPool":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # -- dispatch --------------------------------------------------------

    def run_batch(
        self,
        thunks: Sequence[Callable[[], Any]],
        max_workers: int | None = None,
    ) -> list[UnitOutcome] | None:
        """Run a batch on the warm workers, outcomes in unit order.

        ``max_workers`` caps how many workers this batch strides over
        (a 4-worker platform pool serving a ``parallelism=2`` run uses
        only 2) — outputs never depend on the cap, only wall time.

        Returns ``None`` when the batch cannot be dispatched (pool
        closed, fork unavailable, or a thunk refused to pickle) — the
        caller falls back to the cold fork path, which inherits
        closures and needs no dispatch pickling.
        """
        if not self.available():
            return None
        thunks = list(thunks)
        if not thunks:
            return []
        blobs: list[bytes] = []
        for thunk in thunks:
            try:
                blobs.append(
                    pickle.dumps(thunk, pickle.HIGHEST_PROTOCOL)
                )
            except Exception:
                self.stats.dispatch_fallbacks += 1
                self._record_event("dispatch_fallbacks")
                return None
        count = min(self.workers, len(thunks))
        if max_workers is not None:
            count = max(1, min(count, int(max_workers)))
        with self._lock:
            if self._closed:  # closed while waiting for the lock
                return None
            if self.tracer is None:
                return self._dispatch(thunks, blobs, count)
            with self.tracer.span(
                "pool.dispatch",
                units=len(thunks),
                workers=count,
                transport=self._transport_in_use(),
            ):
                return self._dispatch(thunks, blobs, count)

    def _dispatch(
        self,
        thunks: list[Callable[[], Any]],
        blobs: list[bytes],
        count: int,
    ) -> list[UnitOutcome]:
        for slot in range(count):
            if self._slots[slot] is None:
                self._spawn(slot)
        active = [self._slots[slot] for slot in range(count)]
        assignments = [
            list(range(offset, len(thunks), count))
            for offset in range(count)
        ]
        # Workers are idle (blocked reading dispatch) between batches,
        # so truncating their arenas is safe: the O_APPEND writes of
        # the coming batch land at the new end of file.
        for worker in active:
            self._reset_arena(worker)
        dead: set[int] = set()
        for offset, worker in enumerate(active):
            frame = pickle.dumps(
                ("run", [(i, blobs[i]) for i in assignments[offset]]),
                pickle.HIGHEST_PROTOCOL,
            )
            try:
                _write_msg_raw(worker.dispatch_w, frame)
            except OSError:
                dead.add(offset)
        outcomes: dict[int, UnitOutcome] = {}
        arena_total = 0
        for offset, worker in enumerate(active):
            if offset in dead:
                continue
            arena_size = self._collect(worker, outcomes)
            if arena_size is None:
                dead.add(offset)
            else:
                arena_total += arena_size
        if arena_total > self.stats.arena_bytes:
            self.stats.arena_bytes = arena_total
            self._record_arena(arena_total)
        for offset, worker in enumerate(active):
            if offset in dead:
                self._reap(worker, kill=True)
                self._slots[offset] = None
                self.stats.respawns += 1
                self._record_event("respawns")
                self._spawn(offset)
            elif self._should_recycle(worker):
                self._retire(worker)
                self._slots[offset] = None
                self.stats.recycled += 1
                self._record_event("recycled")
                self._spawn(offset)
        self.stats.warm_hits += 1
        self._record_event("warm_hits")
        results: list[UnitOutcome] = []
        for index in range(len(thunks)):
            outcome = outcomes.get(index)
            if outcome is None:
                # The owning worker died before reporting this unit;
                # lineage recovery recomputes it on the coordinator.
                outcome = UnitOutcome(
                    error=WorkerLostError(
                        f"pool worker exited before reporting "
                        f"unit {index}"
                    )
                )
            results.append(outcome)
        return results

    def _collect(
        self, worker: _PoolWorker, outcomes: dict[int, UnitOutcome]
    ) -> int | None:
        """Drain one worker's results; arena bytes used, None if dead."""
        while True:
            message = _read_msg(worker.result_r)
            if message is None:
                return None
            tag = message[0]
            if tag == "done":
                _tag, tasks, rss_bytes, arena_size = message
                worker.tasks_done += tasks
                worker.rss_bytes = rss_bytes
                return arena_size
            index = message[1]
            view: memoryview | None = None
            try:
                if tag == "shm":
                    view = self._arena_view(
                        worker, message[2], message[3]
                    )
                    unit_index, kind, payload = pickle.loads(view)
                else:
                    unit_index, kind, payload = pickle.loads(message[2])
                if kind == "tbl":
                    if self.metrics is not None:
                        record_page_codec(
                            self.metrics,
                            page_codec.codec_name(payload),
                            len(payload),
                        )
                    kind = "ok"
                    payload = page_codec.decode_table(payload)
            except Exception as exc:
                outcomes[index] = UnitOutcome(
                    error=ProcessTransportError(
                        f"unit {index} result could not be read from "
                        f"the {tag} transport: {exc!r}"
                    )
                )
                continue
            finally:
                # release before the next page can re-mmap the arena —
                # closing a mapping with exported views is an error
                if view is not None:
                    view.release()
            if kind == "err":
                outcomes[unit_index] = UnitOutcome(error=payload)
            else:
                outcomes[unit_index] = UnitOutcome(value=payload)

    # -- workers ---------------------------------------------------------

    def _spawn(self, slot: int) -> _PoolWorker:
        dispatch_r, dispatch_w = os.pipe()
        result_r, result_w = os.pipe()
        arena_path = None
        if self._use_arena():
            self._seq += 1
            arena_path = os.path.join(
                self._arena_dir(), f"arena-{slot}-{self._seq}.pages"
            )
            with open(arena_path, "wb"):
                pass
        # fds fork-inherited from *other* workers: the child closes
        # them so a dead sibling's pipes still EOF immediately.
        inherited = [
            fd
            for worker in self._slots
            if worker is not None
            for fd in worker.fds()
        ]
        pid = os.fork()
        if pid == 0:  # worker: serve dispatch frames until "exit"
            status = 1
            try:
                os.close(dispatch_w)
                os.close(result_r)
                for fd in inherited:
                    try:
                        os.close(fd)
                    except OSError:
                        pass
                _pool_worker_main(dispatch_r, result_w, arena_path)
                status = 0
            finally:
                os._exit(status)
        os.close(dispatch_r)
        os.close(result_w)
        worker = _PoolWorker(pid, dispatch_w, result_r, arena_path)
        self._slots[slot] = worker
        self.stats.forks += 1
        self._record_event("forks")
        return worker

    def _should_recycle(self, worker: _PoolWorker) -> bool:
        if (
            self.max_tasks_per_worker
            and worker.tasks_done >= self.max_tasks_per_worker
        ):
            return True
        if self.max_rss_bytes and worker.rss_bytes >= self.max_rss_bytes:
            return True
        return False

    def _retire(self, worker: _PoolWorker) -> None:
        """Ask an idle worker to exit, then reap it."""
        try:
            _write_msg(worker.dispatch_w, ("exit",))
        except OSError:
            pass
        self._reap(worker, kill=False)

    def _reap(self, worker: _PoolWorker, kill: bool) -> None:
        if worker.arena_mm is not None:
            worker.arena_mm.close()
            worker.arena_mm = None
        for fd in (worker.dispatch_w, worker.result_r, worker.arena_fd):
            if fd >= 0:
                try:
                    os.close(fd)
                except OSError:
                    pass
        worker.arena_fd = -1
        if kill:
            try:
                os.kill(worker.pid, signal.SIGKILL)
            except OSError:
                pass
        try:
            os.waitpid(worker.pid, 0)
        except ChildProcessError:
            pass
        if worker.arena_path is not None:
            try:
                os.unlink(worker.arena_path)
            except OSError:
                pass

    # -- arenas ----------------------------------------------------------

    def _use_arena(self) -> bool:
        return (
            self.transport == "shared-memory"
            and shared_memory_available()
        )

    def _transport_in_use(self) -> str:
        return "shared-memory" if self._use_arena() else "frame"

    def _arena_dir(self) -> str:
        if self._dir is None:
            self._dir = tempfile.mkdtemp(prefix="repro-pool-")
        return self._dir

    def _reset_arena(self, worker: _PoolWorker) -> None:
        if worker.arena_path is None:
            return
        if worker.arena_mm is not None:
            worker.arena_mm.close()
            worker.arena_mm = None
        try:
            os.truncate(worker.arena_path, 0)
        except OSError:
            pass

    def _arena_view(
        self, worker: _PoolWorker, offset: int, length: int
    ) -> memoryview:
        """A read-only view of one result page in the worker's arena.

        The mapping is created lazily and re-created whenever the arena
        has grown past it; the descriptor's page is always on disk by
        the time its pipe message arrives, because the worker's
        O_APPEND write completes before it sends the descriptor.
        """
        end = offset + length
        if worker.arena_mm is None or len(worker.arena_mm) < end:
            if worker.arena_mm is not None:
                worker.arena_mm.close()
                worker.arena_mm = None
            if worker.arena_fd < 0:
                worker.arena_fd = os.open(
                    worker.arena_path, os.O_RDONLY
                )
            worker.arena_mm = mmap.mmap(
                worker.arena_fd, 0, prot=mmap.PROT_READ
            )
        return memoryview(worker.arena_mm)[offset:end]

    # -- telemetry -------------------------------------------------------

    def _record_event(self, event: str) -> None:
        if self.metrics is not None:
            from repro.observability.instruments import record_pool_event

            record_pool_event(self.metrics, event)

    def _record_arena(self, size: int) -> None:
        if self.metrics is not None:
            from repro.observability.instruments import record_pool_arena

            record_pool_arena(self.metrics, size)


class WorkerPool:
    """A bounded pool that preserves submission order of outcomes.

    ``workers == 1`` runs units lazily on the caller's thread — one
    unit per ``next()`` — which is byte-identical to the historical
    sequential loop (a failure at unit *i* means unit *i+1* never
    starts), whatever the ``executor`` setting.  With more workers,
    all units are submitted up front and outcomes are still yielded in
    submission order.

    ``executor`` picks the backend: ``"threads"`` (default) or
    ``"processes"`` (forked workers, POSIX only; silently backed by
    threads where fork is unavailable so results never depend on the
    host OS).
    """

    def __init__(
        self,
        workers: int = 1,
        executor: str = "threads",
        pool: ProcessPool | None = None,
    ):
        self.workers = max(1, int(workers))
        self.executor = resolve_executor(executor)
        # A warm pool only makes sense for the process executor; with
        # threads it is silently ignored so callers can thread one
        # through unconditionally.
        self.pool = pool if self.executor == "processes" else None

    def map_ordered(
        self, thunks: Sequence[Callable[[], Any]]
    ) -> Iterator[UnitOutcome]:
        thunks = list(thunks)
        if self.workers == 1 or len(thunks) <= 1:
            for thunk in thunks:
                yield self._call(thunk)
            return
        if self.executor == "processes" and fork_available():
            if self.pool is not None:
                outcomes = self.pool.run_batch(
                    thunks, max_workers=self.workers
                )
                if outcomes is not None:
                    yield from outcomes
                    return
                # unpicklable batch: cold fork inherits the closures
            yield from self._map_processes(thunks)
            return
        with ThreadPoolExecutor(
            max_workers=min(self.workers, len(thunks))
        ) as pool:
            futures = [pool.submit(self._call, thunk) for thunk in thunks]
            for future in futures:
                yield future.result()

    @staticmethod
    def _call(thunk: Callable[[], Any]) -> UnitOutcome:
        try:
            return UnitOutcome(value=thunk())
        except BaseException as exc:  # captured; re-raised by the merger
            return UnitOutcome(error=exc)

    # -- process backend -------------------------------------------------

    def _map_processes(
        self, thunks: list[Callable[[], Any]]
    ) -> Iterator[UnitOutcome]:
        """Fork workers, stride the units, merge in submission order.

        Worker *k* of *W* executes units ``k, k+W, k+2W, ...`` (striding
        balances positional skew) and streams pickled outcome frames
        through a pipe.  The parent drains the pipes worker by worker,
        then yields outcomes in unit order.  Children are always reaped
        — on the error path they are killed first, so no orphan worker
        survives a failed stage.
        """
        workers = min(self.workers, len(thunks))
        children: list[tuple[int, int]] = []  # (pid, read_fd)
        outcomes: dict[int, UnitOutcome] = {}
        try:
            for offset in range(workers):
                indices = range(offset, len(thunks), workers)
                read_fd, write_fd = os.pipe()
                pid = os.fork()
                if pid == 0:  # worker: pure compute, then hard exit
                    status = 1
                    try:
                        os.close(read_fd)
                        _child_main(thunks, indices, write_fd)
                        status = 0
                    finally:
                        # _exit skips inherited atexit/flush machinery —
                        # the worker owns nothing but its pipe.
                        os._exit(status)
                os.close(write_fd)
                children.append((pid, read_fd))
            for pid, read_fd in children:
                for index, outcome in _read_outcomes(read_fd):
                    outcomes[index] = outcome
        except BaseException:
            for pid, _fd in children:
                try:
                    os.kill(pid, signal.SIGKILL)
                except OSError:
                    pass
            raise
        finally:
            for pid, read_fd in children:
                try:
                    os.close(read_fd)
                except OSError:
                    pass
                try:
                    os.waitpid(pid, 0)
                except ChildProcessError:
                    pass
        for index in range(len(thunks)):
            outcome = outcomes.get(index)
            if outcome is None:
                # The worker died before reporting this unit; the
                # engine's lineage recovery recomputes it inline.
                outcome = UnitOutcome(
                    error=WorkerLostError(
                        f"process worker exited before reporting "
                        f"unit {index}"
                    )
                )
            yield outcome


def _child_main(
    thunks: Sequence[Callable[[], Any]],
    indices: Iterable[int],
    write_fd: int,
) -> None:
    """Run one worker's stride of units and stream outcome frames."""
    buffer: list[bytes] = []
    buffered = 0
    for index in indices:
        entry = _encode_entry(index, WorkerPool._call(thunks[index]))
        buffer.append(entry)
        buffered += len(entry)
        if buffered >= _FRAME_FLUSH_BYTES:
            _write_frame(write_fd, buffer)
            buffer, buffered = [], 0
    if buffer:
        _write_frame(write_fd, buffer)
    os.close(write_fd)


def _encode_entry(index: int, outcome: UnitOutcome) -> bytes:
    """One unit's outcome as a pickled ``(index, kind, payload)``.

    Table results ship as ``"tbl"`` entries whose payload is a binary
    page-codec blob (:mod:`repro.data.pages`): typed/dictionary
    columns travel as raw array buffers instead of boxed objects, and
    the coordinator can meter codec bytes without re-serialising.
    Anything that refuses to serialise — exotic results, exceptions
    carrying live handles — degrades to a
    :class:`ProcessTransportError` carrying the repr, so the frame
    stream itself never breaks.
    """
    kind = "err" if outcome.failed else "ok"
    payload: Any = outcome.error if outcome.failed else outcome.value
    if kind == "ok" and type(payload) is Table:
        try:
            blob = page_codec.encode_table(payload)
            return pickle.dumps(
                (index, "tbl", blob), pickle.HIGHEST_PROTOCOL
            )
        except Exception:
            pass  # generic path below, then the repr substitute
    try:
        return pickle.dumps(
            (index, kind, payload), pickle.HIGHEST_PROTOCOL
        )
    except Exception:
        substitute = ProcessTransportError(
            f"unit {index} {'raised' if kind == 'err' else 'returned'} "
            f"an unpicklable {type(payload).__name__}: {payload!r}"
        )
        return pickle.dumps(
            (index, "err", substitute), pickle.HIGHEST_PROTOCOL
        )


def _write_frame(write_fd: int, entries: list[bytes]) -> None:
    blob = _LENGTH.pack(len(entries)) + b"".join(
        _LENGTH.pack(len(entry)) + entry for entry in entries
    )
    os.write(write_fd, _LENGTH.pack(len(blob)))
    remaining = memoryview(blob)
    while remaining:
        written = os.write(write_fd, remaining)
        remaining = remaining[written:]


def _read_outcomes(read_fd: int) -> Iterator[tuple[int, UnitOutcome]]:
    """Parse ``(index, outcome)`` entries from one worker's pipe."""
    while True:
        header = _read_exact(read_fd, _LENGTH.size)
        if header is None:
            return
        blob = _read_exact(read_fd, _LENGTH.unpack(header)[0])
        if blob is None:
            return  # worker died mid-frame; missing units surface above
        view = memoryview(blob)
        (count,) = _LENGTH.unpack_from(view, 0)
        offset = _LENGTH.size
        for _ in range(count):
            (size,) = _LENGTH.unpack_from(view, offset)
            offset += _LENGTH.size
            index, kind, payload = pickle.loads(
                view[offset:offset + size]
            )
            offset += size
            if kind == "err":
                yield index, UnitOutcome(error=payload)
            elif kind == "tbl":
                yield index, UnitOutcome(
                    value=page_codec.decode_table(payload)
                )
            else:
                yield index, UnitOutcome(value=payload)


def _read_exact(read_fd: int, size: int) -> bytes | None:
    chunks: list[bytes] = []
    remaining = size
    while remaining:
        chunk = os.read(read_fd, remaining)
        if not chunk:
            return None
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


# -- warm-pool worker side ----------------------------------------------


def _pool_worker_main(
    dispatch_r: int, result_w: int, arena_path: str | None
) -> None:
    """Serve dispatch frames until an ``exit`` message or pipe EOF.

    Each batch: unpickle the unit thunks, run them in stride order, and
    report every outcome — through the arena when one is configured
    (page on disk first, then the ``("shm", index, offset, length)``
    descriptor), else as ``("frame", index, entry)`` pipe messages —
    finishing with ``("done", tasks, rss_bytes, arena_bytes)`` so the
    coordinator can apply its recycle policy.
    """
    arena_fd = -1
    if arena_path is not None:
        try:
            arena_fd = os.open(arena_path, os.O_WRONLY | os.O_APPEND)
        except OSError:
            arena_fd = -1
    try:
        while True:
            message = _read_msg(dispatch_r)
            if message is None or message[0] == "exit":
                return
            done = 0
            for index, blob in message[1]:
                try:
                    thunk = pickle.loads(blob)
                except Exception as exc:
                    outcome = UnitOutcome(
                        error=ProcessTransportError(
                            f"unit {index} dispatch frame could not "
                            f"be unpickled in the worker: {exc!r}"
                        )
                    )
                else:
                    outcome = WorkerPool._call(thunk)
                entry = _encode_entry(index, outcome)
                sent = False
                if arena_fd >= 0:
                    try:
                        _write_all(
                            arena_fd,
                            _LENGTH.pack(len(entry)) + entry,
                        )
                        end = os.lseek(arena_fd, 0, os.SEEK_CUR)
                        _write_msg(
                            result_w,
                            ("shm", index, end - len(entry), len(entry)),
                        )
                        sent = True
                    except OSError:
                        arena_fd = -1  # degrade to frames for the rest
                if not sent:
                    _write_msg(result_w, ("frame", index, entry))
                done += 1
            arena_size = (
                os.lseek(arena_fd, 0, os.SEEK_CUR)
                if arena_fd >= 0
                else 0
            )
            _write_msg(
                result_w, ("done", done, _rss_bytes(), arena_size)
            )
    finally:
        for fd in (dispatch_r, result_w, arena_fd):
            if fd >= 0:
                try:
                    os.close(fd)
                except OSError:
                    pass


def _rss_bytes() -> int:
    """This process's peak RSS in bytes (0 where unavailable)."""
    try:
        import resource

        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    except Exception:
        return 0
    # ru_maxrss is KiB on Linux, bytes on macOS
    return int(peak) if sys.platform == "darwin" else int(peak) * 1024


def _write_all(fd: int, blob: bytes) -> None:
    view = memoryview(blob)
    while view:
        written = os.write(fd, view)
        view = view[written:]


def _write_msg(fd: int, obj: Any) -> None:
    _write_msg_raw(fd, pickle.dumps(obj, pickle.HIGHEST_PROTOCOL))


def _write_msg_raw(fd: int, blob: bytes) -> None:
    _write_all(fd, _LENGTH.pack(len(blob)) + blob)


def _read_msg(fd: int) -> Any | None:
    """One length-prefixed pickled message, or None on EOF/corruption."""
    header = _read_exact(fd, _LENGTH.size)
    if header is None:
        return None
    blob = _read_exact(fd, _LENGTH.unpack(header)[0])
    if blob is None:
        return None
    try:
        return pickle.loads(blob)
    except Exception:
        return None

