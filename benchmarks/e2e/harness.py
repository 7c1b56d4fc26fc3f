"""The untraced run: three rounds of set-up and timed phases, then
verification.

The parent process is the harness and the load generator; the program
under test lives in child processes (``sut.py``).  The loop is closed
throughout — a CLI user and a dashboard widget each wait for their
reply — with ``CLIENTS`` connections.  Nothing is checked
against the oracle inside a timed section except status codes, version
headers and byte-equality with the first body seen for the same
request; the first body of every distinct request is verified against
the plain-Python oracle after the clock stops.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import select
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter, deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from benchmarks.e2e import gen
from benchmarks.e2e.oracle import same_rows
from benchmarks.e2e.stats import percentile, slice_rates
from benchmarks.e2e.workloads import Read, Workload

HERE = Path(__file__).resolve().parent
REPO = HERE.parent.parent
SRC = REPO / "src"
WORK_ROOT = HERE / ".work"

#: closed-loop client connections of the read window: one, so that with
#: the program's process at most two things run at once on a two-core
#: machine (a refresher thread joins on ``refresh_mixed``)
CLIENTS = 1
#: rounds per run: each sets the program up afresh and walks every
#: phase, so every metric is sampled in ``ROUNDS`` separate stretches of
#: the run and on ``ROUNDS`` separate live processes
ROUNDS = 3
#: share of ``--seconds`` each phase may use (split evenly over rounds)
BUDGET = {"cold": 0.28, "warm": 0.20, "read": 0.37, "refresh": 0.15}
#: fewest samples a phase takes per round however slow the machine is
MIN_SAMPLES = {"cold": 1, "warm": 1, "refresh": 1}
#: part of the read budget spent refilling caches before sampling
READ_WARMUP = 0.15
#: time slices one round's read window is cut into for the rate
SLICES = 5
#: share of the read window's operations that are widget gestures
GESTURE_SHARE = 0.10
READY_TIMEOUT = 120.0


# ---------------------------------------------------------------------------
# failure accounting
# ---------------------------------------------------------------------------
class Tally:
    """Attempted and failed operations, with a reason per failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: Counter[str] = Counter()
        self._lock = threading.Lock()

    def ok(self) -> None:
        with self._lock:
            self.attempted += 1

    def fail(self, reason: str, count: int = 1, attempted: bool = True):
        with self._lock:
            if attempted:
                self.attempted += count
            self.failed += count
            self.reasons[reason] += count


class Ledger:
    """Every distinct reply body per distinct request, with its count.

    A key is ``(kind, what, lo, hi)``: the request and the range of
    append counts its reply may reflect.
    """

    def __init__(self, tally: Tally) -> None:
        self.tally = tally
        self.bodies: dict[tuple, Counter[bytes]] = {}
        self._lock = threading.Lock()

    def record(self, key: tuple, body: bytes) -> None:
        """Count one 2xx reply; the oracle judges its body later."""
        with self._lock:
            self.bodies.setdefault(key, Counter())[body] += 1
        self.tally.ok()

    def read(self, read: Read, appends: int, body: bytes) -> None:
        """A ``/ds/`` reply whose ``X-Endpoint-Version`` claims
        ``appends``: while a refresh publishes, the program assigns the
        new table before it bumps the version, so for a few milliseconds
        the rows of ``appends + 1`` travel under the old version.  Its
        contract only forbids *stale* rows under a *new* version."""
        self.record(("read", read, appends, appends + 1), body)


# ---------------------------------------------------------------------------
# the child and the wire
# ---------------------------------------------------------------------------
def request(
    port: int, method: str, path: str, body: str | None = None
) -> tuple[int, int, bytes]:
    """One HTTP exchange → ``(status, X-Endpoint-Version, body)``."""
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        connection.request(method, path, body=body)
        response = connection.getresponse()
        data = response.read()
        version = response.getheader("X-Endpoint-Version")
        return response.status, int(version or 0), data
    finally:
        connection.close()


class Sut:
    """Handle on one ``sut.py`` child."""

    def __init__(self, spec: Path, env: dict[str, str]):
        self.process = subprocess.Popen(
            [sys.executable, str(HERE / "sut.py"), str(spec)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            env=env,
        )
        self.port = 0

    def wait_ready(self) -> int:
        ready, _, _ = select.select(
            [self.process.stdout], [], [], READY_TIMEOUT
        )
        line = self.process.stdout.readline() if ready else b""
        if not line:
            self.kill()
            raise RuntimeError("program under test never came up")
        self.port = json.loads(line)["port"]
        return self.port

    def stop(self) -> dict[str, Any]:
        """Drain the child; returns its peak-RSS report."""
        self.process.stdin.close()
        line = self.process.stdout.readline()
        if self.process.wait(timeout=60) != 0 or not line:
            raise RuntimeError("program under test did not exit cleanly")
        self.process.stdout.close()
        return json.loads(line)

    def kill(self) -> None:
        if self.process.poll() is None:
            self.process.kill()
        self.process.wait()
        for pipe in (self.process.stdin, self.process.stdout):
            if pipe and not pipe.closed:
                pipe.close()


# ---------------------------------------------------------------------------
# from samples to metrics
# ---------------------------------------------------------------------------
def summarise(rounds: list[dict[str, Any]]) -> dict[str, float]:
    """A median is taken over the samples of all rounds together.  The
    tail percentile, set-up and memory are one figure per round and the
    median round is reported; the rate is one figure per time slice of
    a read window and the median slice is reported.  A disturbance that
    falls on one stretch moves one of those values, not the figure."""

    def pooled(key: str) -> float:
        return statistics.median(
            s[1] if isinstance(s, tuple) else s
            for r in rounds for s in r[key]
        )

    def over_rounds(figure: Callable[[dict[str, Any]], float]) -> float:
        return statistics.median(figure(r) for r in rounds)

    return {
        "setup_s": over_rounds(lambda r: r["setup"]),
        "journey_cold_s": pooled("cold"),
        "journey_warm_s": pooled("warm"),
        "read_p50_ms": pooled("reads"),
        "read_p95_ms": over_rounds(
            lambda r: percentile([ms for _t, ms in r["reads"]], 0.95)
        ),
        "read_rps": statistics.median(
            rate
            for r in rounds
            for rate in slice_rates(
                [t for t, _ms in r["reads"]], *r["read_span"], SLICES
            )
        ),
        "interact_p50_ms": pooled("gestures"),
        "refresh_p50_ms": pooled("refresh"),
        "peak_rss_mb": over_rounds(lambda r: r["rss_mb"]),
    }


# ---------------------------------------------------------------------------
# one run
# ---------------------------------------------------------------------------
@dataclass
class Run:
    workload: Workload
    seed: int
    seconds: float
    smoke: bool = False
    tally: Tally = field(default_factory=Tally)
    #: byte size of the appended source file after each append
    marks: list[int] = field(default_factory=list)
    samples: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.family = self.workload.family
        self.sizes = gen.SIZES["smoke" if self.smoke else "full"]
        self.ledger = Ledger(self.tally)
        self.queries = self.workload.queries(self.seed)
        self.main = self.family.dashboards()[0][0]
        self.root = WORK_ROOT / f"run-{os.getpid()}"
        self.work = self.root
        self.live: Sut | None = None
        #: loopback port of the live program the timed phases talk to
        self.port = 0
        self.base_version = 0
        self.cycle = 0
        self._appends: deque[bytes] = deque()
        self._children: list[Sut] = []
        #: marks and work directory of the round with the most appends
        self._kept: tuple[list[int], Path] = ([], self.root)

    # -- set-up ------------------------------------------------------------
    def _env(self) -> dict[str, str]:
        tmp = self.work / "tmp"
        tmp.mkdir(exist_ok=True)
        env = dict(os.environ, TMPDIR=str(tmp), PYTHONHASHSEED="0")
        env.pop("PYTHONPATH", None)
        return env

    def _write_inputs(self, work: Path) -> None:
        work.mkdir(parents=True)
        self.family.write(work, self.seed, self.sizes)
        dashboards = []
        for index, (name, flow) in enumerate(self.family.dashboards()):
            (work / f"{name}.flow").write_text(flow, encoding="utf-8")
            dashboards.append(
                {"name": name, "run": self.workload.run_options(index)}
            )
        spec = {
            "src": str(SRC),
            "work": str(work),
            "ipl_dims": self.family.ipl_dims,
            "dashboards": dashboards,
        }
        (work / "spec.json").write_text(json.dumps(spec), encoding="utf-8")

    def _spawn(self) -> Sut:
        child = Sut(self.work / "spec.json", self._env())
        self._children.append(child)
        return child

    def _source(self) -> Path:
        return self.work / self.family.source

    def setup(self, index: int = 0) -> float:
        """Set the program up for round ``index``; returns the seconds
        of: writing the inputs, bringing the program up (import, create,
        run, listen, warm pool) and the priming reads."""
        self.work = self.root / f"round-{index}"
        started = time.perf_counter()
        self._write_inputs(self.work)
        self.live = self._spawn()
        self.port = self.live.wait_ready()
        self._prime(self.port)
        elapsed = time.perf_counter() - started
        self.cycle = 0
        self._appends.clear()
        self.marks = [self._source().stat().st_size]
        return elapsed

    def _prime(self, port: int) -> None:
        """The first reads and one gesture, so lazy paths are paid for."""
        rng = random.Random(self.seed)
        reads = [self.family.first_read, self.family.raw(rng, self.sizes)]
        reads += self.queries[:8]
        for read in reads:
            status, _version, _body = request(
                port, "GET", read.path(self.main)
            )
            if status != 200:
                raise RuntimeError(f"priming read answered {status}")
        self._gesture(port, *self._ranges(rng, 1)[0])

    # -- phases --------------------------------------------------------------
    def _loop(self, phase: str, step: Callable[[], float | None]) -> list:
        """Repeat ``step`` until the round's share of the phase budget
        is spent (and at least ``MIN_SAMPLES`` times); keeps the
        latencies that were not lost.  A step that would run more than
        half past the deadline is not started, so phases do not overrun
        on average."""
        deadline = (
            time.perf_counter() + self.seconds * BUDGET[phase] / ROUNDS
        )
        kept: list[float] = []
        count, last = 0, 0.0
        while (
            count < MIN_SAMPLES[phase]
            or time.perf_counter() + last / 2 < deadline
        ):
            started = time.perf_counter()
            latency = step()
            last = time.perf_counter() - started
            count += 1
            if latency is not None:
                kept.append(latency)
        return kept

    def _checked_get(
        self, port: int, read: Read, suffix: str = ""
    ) -> tuple[int, bytes] | None:
        """GET a read; ``(version, body)`` or None (already tallied)."""
        try:
            status, version, body = request(
                port, "GET", read.path(self.main) + suffix
            )
        except (OSError, http.client.HTTPException) as exc:
            self.tally.fail(type(exc).__name__)
            return None
        if status != 200:
            self.tally.fail(f"http-{status}")
            return None
        return version, body

    def cold_journey(self) -> float | None:
        """Fresh process → create → run → listen → first ``/ds/`` bytes."""
        started = time.perf_counter()
        child = self._spawn()
        try:
            port = child.wait_ready()
            reply = self._checked_get(port, self.family.first_read)
            elapsed = time.perf_counter() - started
            child.stop()
        except RuntimeError as exc:
            child.kill()
            self.tally.fail(str(exc))
            return None
        if reply is None:
            return None
        self.ledger.read(self.family.first_read, 0, reply[1])
        return elapsed

    def warm_journey(self) -> float | None:
        """Re-run every dashboard of the group on the live platform,
        then the first read (memo caches, parse caches, warm pool)."""
        port = self.port
        started = time.perf_counter()
        for index, (name, _flow) in enumerate(self.family.dashboards()):
            query = "&".join(
                f"{k}={v}" for k, v in self.workload.run_options(index).items()
            )
            status, _version, _body = request(
                port, "POST", f"/dashboards/{name}/run?{query}"
            )
            if status != 200:
                self.tally.fail(f"run-http-{status}")
                return None
            self.tally.ok()
        reply = self._checked_get(port, self.family.first_read)
        elapsed = time.perf_counter() - started
        if reply is None:
            return None
        self.ledger.read(self.family.first_read, 0, reply[1])
        return elapsed

    def _draw_read(self, rng: random.Random, pick: Callable[[], int]) -> Read:
        if rng.random() < self.workload.adhoc_share:
            return self.queries[pick()]
        return self.family.raw(rng, self.sizes)

    def _reader(
        self, client: int, stop_at: float, sample_from: float,
        reads: list, gestures: list,
    ) -> None:
        """One closed-loop client: ``/ds/`` reads of the workload's mix
        and, one operation in ten, a widget gesture."""
        rng = random.Random(self.seed * 31 + client)
        pick = gen.zipf_sampler(rng, len(self.queries), 1.1)
        ranges = self._ranges(random.Random(self.seed + 1), 24)
        port = self.port
        late, sent = 0.0, 0
        finished = time.perf_counter()
        while finished < stop_at:
            gesture = rng.random() < GESTURE_SHARE
            read = None if gesture else self._draw_read(rng, pick)
            span = rng.choice(ranges)
            started = time.perf_counter()
            late += started - finished
            sent += 1
            if gesture:
                # Appends applied while the gesture ran: a refresh that
                # is under way may or may not have published yet.
                before = max(self.cycle - 1, 0)
                body = self._gesture(port, *span)
                finished = time.perf_counter()
                if body is None or finished < sample_from:
                    continue
                self.ledger.record(
                    ("widget", span, before, self.cycle), body
                )
                gestures.append((finished, (finished - started) * 1e3))
                continue
            reply = self._checked_get(port, read)
            finished = time.perf_counter()
            if reply is None or finished < sample_from:
                continue
            version, body = reply
            self.ledger.read(read, version - self.base_version, body)
            reads.append((finished, (finished - started) * 1e3))
        # Client-side lag: time between a reply and the next request.
        self.samples.setdefault("late", []).append((late, sent))

    def read_window(self, seconds: float, refresher: bool) -> None:
        """``CLIENTS`` closed-loop readers; with ``refresher`` one more
        thread appends and refreshes beside them for the whole window.
        Leaves ``(finish time, ms)`` samples of reads, gestures and
        refreshes in ``self.samples``."""
        # Endpoint versions move in lockstep (every run and every refresh
        # that changes the data bumps each by one), so a reply's version
        # minus this base is the number of appends it must reflect.
        _status, self.base_version, _body = request(
            self.port, "GET", self.family.first_read.path(self.main)
        )
        now = time.perf_counter()
        stop_at = now + seconds
        sample_from = now + seconds * READ_WARMUP
        reads: list[tuple[float, float]] = []
        gestures: list[tuple[float, float]] = []
        threads = [
            threading.Thread(
                target=self._reader,
                args=(c, stop_at, sample_from, reads, gestures),
            )
            for c in range(CLIENTS)
        ]
        refreshes: list[float] = []
        if refresher:
            def refresh_until() -> None:
                while time.perf_counter() < stop_at:
                    latency = self.refresh_cycle()
                    if latency is not None:
                        refreshes.append(latency)
            threads.append(threading.Thread(target=refresh_until))
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        self.samples.update(
            reads=reads, gestures=gestures, refresh=refreshes,
            read_span=(sample_from, stop_at),
        )

    def _ranges(self, rng: random.Random, count: int) -> list[tuple]:
        days = self.family.days
        ranges = []
        for _ in range(count):
            lo = rng.randrange(len(days) - 1)
            hi = rng.randrange(lo, len(days))
            ranges.append((days[lo], days[hi]))
        return ranges

    def _gesture(self, port: int, lo: str, hi: str) -> bytes | None:
        """Slider selection, then the dependent widget's view."""
        dashboard = self.family.widgets_on
        try:
            status, _v, _b = request(
                port, "POST",
                f"/dashboards/{dashboard}/select/{self.family.slider}",
                json.dumps({"range": [lo, hi]}),
            )
            if status == 200:
                status, _v, body = request(
                    port, "GET",
                    f"/dashboards/{dashboard}/widgets/{self.family.dependent}",
                )
        except (OSError, http.client.HTTPException) as exc:
            self.tally.fail(type(exc).__name__)
            return None
        if status != 200:
            self.tally.fail(f"http-{status}")
            return None
        return body

    def prepare_appends(self, seconds: float, each: float) -> None:
        """Make the appends a refresh loop of ``seconds`` can use ahead
        of the clock (``each`` is a floor on one cycle's seconds), so the
        timed loop only writes bytes and never competes with the reader
        threads for this process's interpreter lock."""
        self._appends = deque(
            self.family.more(self.seed, cycle, self.sizes)
            for cycle in range(self.cycle, self.cycle + int(seconds / each))
        )

    def refresh_cycle(self) -> float | None:
        """Append 1% → ``?refresh=incremental`` → bumped version + rows."""
        payload = self._appends.popleft() if self._appends else (
            self.family.more(self.seed, self.cycle, self.sizes)
        )
        self.marks.append(self.family.append(self.work, payload))
        self.cycle += 1
        started = time.perf_counter()
        reply = self._checked_get(
            self.port, self.family.first_read, "&refresh=incremental"
        )
        elapsed = (time.perf_counter() - started) * 1e3
        if reply is None:
            return None
        version, body = reply
        if version != self.base_version + self.cycle:
            self.tally.fail("version-not-bumped-by-one")
            return None
        self.ledger.read(self.family.first_read, self.cycle, body)
        return elapsed

    # -- the whole run -------------------------------------------------------
    def one_round(self, index: int) -> dict[str, Any]:
        """Set-up, then every phase on its share of the round."""
        out: dict[str, Any] = {"setup": self.setup(index)}
        out["cold"] = self._loop("cold", self.cold_journey)
        out["warm"] = self._loop("warm", self.warm_journey)
        beside = self.workload.refresh_beside_reads
        share = BUDGET["read"] + (BUDGET["refresh"] if beside else 0.0)
        window = self.seconds * share / ROUNDS
        if beside:
            self.prepare_appends(window, each=0.02)
        self.read_window(window, refresher=beside)
        if not beside:
            # A first refresh after a full run only bootstraps cursors.
            self.refresh_cycle()
            self.samples["refresh"] = self._loop(
                "refresh", self.refresh_cycle
            )
        for key in ("reads", "gestures", "refresh", "read_span"):
            out[key] = self.samples.pop(key)
        usage = self.live.stop()
        out["rss_mb"] = (usage["self_kb"] + usage["children_kb"]) / 1024
        # The oracle replays one round's appends: keep the longest.
        if len(self.marks) > len(self._kept[0]):
            self._kept = (self.marks, self.work)
        return out

    def measure(self) -> dict[str, float]:
        rounds = [self.one_round(index) for index in range(ROUNDS)]
        self.marks, self.work = self._kept
        self.samples["rounds"] = rounds
        counts = {
            key: sum(len(r[key]) for r in rounds)
            for key in ("cold", "warm", "reads", "gestures", "refresh")
        }
        self.samples["counts"] = counts
        if not all(counts.values()):
            raise RuntimeError(
                f"a phase kept no sample: {dict(self.tally.reasons)}"
            )
        return summarise(rounds)

    def verify(self) -> None:
        """Judge every distinct reply body against the oracle, replaying
        the appends one mark at a time: a body recorded with the range
        ``lo..hi`` must be right after some number of appends in it."""
        oracle = self.workload.oracle(self.work)
        pending = [
            (key, body)
            for key, bodies in self.ledger.bodies.items()
            for body in bodies
        ]
        for appends, mark in enumerate(self.marks):
            oracle.advance(mark)
            pending = [
                (key, body)
                for key, body in pending
                if not (
                    key[2] <= appends <= key[3]
                    and self._right(oracle, key, body)
                )
            ]
        for key, body in pending:
            self.tally.fail(
                f"oracle-mismatch-{key[0]}", self.ledger.bodies[key][body],
                attempted=False,
            )

    def _right(self, oracle, key: tuple, body: bytes) -> bool:
        try:
            payload = json.loads(body)
            if key[0] == "widget":
                marks = payload["payload"][self.family.marks]
                got = {m["text"]: m["size"] for m in marks}
                return got == oracle.widget(*key[1])
            read: Read = key[1]
            want, ordered = oracle.read(
                read.endpoint, list(read.steps), read.offset, read.limit
            )
            return same_rows(payload["rows"], want, ordered)
        except (ValueError, KeyError, TypeError):
            return False

    def close(self) -> None:
        for child in self._children:
            child.kill()
        shutil.rmtree(self.root, ignore_errors=True)


