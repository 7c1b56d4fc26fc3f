"""Unit tests for the deterministic parallel scheduling primitives."""

import os
import threading

import pytest

from repro.engine.scheduler import (
    EXECUTORS,
    POOL_MODES,
    TRANSPORTS,
    ProcessPool,
    ProcessTransportError,
    UnitOutcome,
    WorkerPool,
    resolve_executor,
    resolve_pool_mode,
    resolve_transport,
)
from repro.errors import WorkerLostError


class TestWorkerPool:
    def test_outcomes_preserve_submission_order(self):
        pool = WorkerPool(workers=4)
        barrier = threading.Barrier(2)

        def slow_first():
            barrier.wait(timeout=5)
            return "first"

        def other():
            barrier.wait(timeout=5)
            return "other"

        thunks = [slow_first, other, lambda: "third"]
        values = [o.value for o in pool.map_ordered(thunks)]
        assert values == ["first", "other", "third"]

    def test_errors_are_captured_not_raised(self):
        pool = WorkerPool(workers=2)

        def boom():
            raise ValueError("unit failed")

        outcomes = list(pool.map_ordered([lambda: 1, boom, lambda: 3]))
        assert [o.failed for o in outcomes] == [False, True, False]
        assert outcomes[0].value == 1
        assert isinstance(outcomes[1].error, ValueError)
        assert outcomes[2].value == 3

    def test_sequential_pool_is_lazy(self):
        # At workers=1 a consumer that stops after unit i must leave
        # unit i+1 un-executed — byte-identical to the historical
        # sequential loop's failure behaviour.
        ran = []

        def unit(i):
            def thunk():
                ran.append(i)
                return i

            return thunk

        pool = WorkerPool(workers=1)
        iterator = pool.map_ordered([unit(0), unit(1), unit(2)])
        assert next(iterator).value == 0
        assert ran == [0]
        assert next(iterator).value == 1
        assert ran == [0, 1]

    def test_workers_floor_is_one(self):
        assert WorkerPool(workers=0).workers == 1
        assert WorkerPool(workers=-3).workers == 1
        assert WorkerPool(workers=4).workers == 4

    def test_parallel_pool_runs_concurrently(self):
        # Two units that each wait for the other can only finish when
        # they genuinely overlap in time.
        pool = WorkerPool(workers=2)
        gate = threading.Barrier(2)

        def meet():
            gate.wait(timeout=5)
            return "met"

        values = [o.value for o in pool.map_ordered([meet, meet])]
        assert values == ["met", "met"]

    def test_outcome_repr(self):
        assert "value=3" in repr(UnitOutcome(value=3))
        assert "error=" in repr(UnitOutcome(error=RuntimeError("x")))

    def test_executor_vocabulary(self):
        assert EXECUTORS == ("threads", "processes")
        assert resolve_executor("Threads") == "threads"
        with pytest.raises(ValueError, match="unknown executor"):
            WorkerPool(2, executor="fibers")


class TestProcessPool:
    """The fork-backed executor behind ``executor='processes'``."""

    def test_results_in_submission_order(self):
        pool = WorkerPool(workers=4, executor="processes")
        thunks = [lambda i=i: i * i for i in range(10)]
        assert [o.value for o in pool.map_ordered(thunks)] == [
            i * i for i in range(10)
        ]

    def test_closures_need_no_pickling(self):
        # The thunk captures an unpicklable object; only its *result*
        # crosses the process boundary.
        lock = threading.Lock()
        pool = WorkerPool(workers=2, executor="processes")
        outcomes = list(
            pool.map_ordered(
                [lambda: bool(lock), lambda: type(lock).__name__]
            )
        )
        assert outcomes[0].value is True
        assert outcomes[1].value == "lock"

    def test_errors_are_captured_and_pickled_back(self):
        pool = WorkerPool(workers=2, executor="processes")

        def boom():
            raise ValueError("unit failed")

        outcomes = list(pool.map_ordered([lambda: 1, boom, lambda: 3]))
        assert [o.failed for o in outcomes] == [False, True, False]
        assert isinstance(outcomes[1].error, ValueError)
        assert "unit failed" in str(outcomes[1].error)

    def test_unpicklable_result_degrades_to_transport_error(self):
        pool = WorkerPool(workers=2, executor="processes")
        outcomes = list(
            pool.map_ordered([lambda: threading.Lock(), lambda: 2])
        )
        assert isinstance(outcomes[0].error, ProcessTransportError)
        assert outcomes[1].value == 2

    def test_dead_worker_surfaces_as_worker_lost(self):
        # A worker that exits without reporting must not hang the
        # coordinator; its units come back as WorkerLostError so the
        # engine's lineage recovery can recompute them inline.
        pool = WorkerPool(workers=2, executor="processes")
        thunks = [lambda: os._exit(3)] + [lambda i=i: i for i in (1, 2, 3)]
        outcomes = list(pool.map_ordered(thunks))
        # Worker 0 owned the strided units 0 and 2 and died on 0, so
        # both are lost; worker 1's units 1 and 3 still come back.
        assert isinstance(outcomes[0].error, WorkerLostError)
        assert isinstance(outcomes[2].error, WorkerLostError)
        assert outcomes[1].value == 1
        assert outcomes[3].value == 3

    def test_no_orphan_workers_after_map(self):
        pool = WorkerPool(workers=4, executor="processes")
        list(pool.map_ordered([lambda i=i: i for i in range(8)]))
        # Every forked child has been reaped: waitpid finds no zombies.
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_single_worker_stays_lazy_and_forkless(self):
        ran = []

        def unit(i):
            def thunk():
                ran.append(i)  # visible ⇒ ran in this process
                return i

            return thunk

        pool = WorkerPool(workers=1, executor="processes")
        iterator = pool.map_ordered([unit(0), unit(1)])
        assert next(iterator).value == 0
        assert ran == [0]

    def test_large_columnar_results_round_trip(self):
        # Bigger than one flush frame, forcing the batching path.
        pool = WorkerPool(workers=2, executor="processes")
        size = 200_000

        def big(offset):
            return {"col": list(range(offset, offset + size))}

        outcomes = list(
            pool.map_ordered([lambda: big(0), lambda: big(7)])
        )
        assert outcomes[0].value["col"][:3] == [0, 1, 2]
        assert outcomes[1].value["col"][-1] == 7 + size - 1


# Warm-pool dispatch pickles the thunks, so the test units live at
# module level (lambdas would force the cold-fork fallback).
class _Square:
    def __init__(self, i):
        self.i = i

    def __call__(self):
        return self.i * self.i


class _Boom:
    def __call__(self):
        raise ValueError("unit failed")


class _Exit:
    def __call__(self):
        os._exit(3)


class _LockMaker:
    """Runs fine, but its *result* refuses to pickle."""

    def __call__(self):
        return threading.Lock()


class _Pid:
    def __call__(self):
        return os.getpid()


class TestWarmProcessPool:
    """Persistent forked workers: dispatch instead of fork-per-stage."""

    def test_vocabulary(self):
        assert TRANSPORTS == ("shared-memory", "frame")
        assert POOL_MODES == ("auto", "keep")
        assert resolve_transport("Frame") == "frame"
        assert resolve_pool_mode("KEEP") == "keep"
        with pytest.raises(ValueError, match="unknown transport"):
            resolve_transport("carrier-pigeon")
        with pytest.raises(ValueError, match="unknown pool mode"):
            resolve_pool_mode("forever")

    @pytest.mark.parametrize("transport", TRANSPORTS)
    def test_batch_results_in_unit_order(self, transport):
        with ProcessPool(workers=3, transport=transport) as pool:
            outcomes = pool.run_batch([_Square(i) for i in range(10)])
            assert [o.value for o in outcomes] == [
                i * i for i in range(10)
            ]

    def test_transports_agree(self):
        thunks = [_Square(i) for i in range(7)] + [_Boom()]
        with ProcessPool(workers=2, transport="shared-memory") as shm:
            via_shm = shm.run_batch(thunks)
        with ProcessPool(workers=2, transport="frame") as frame:
            via_frame = frame.run_batch(thunks)
        assert [o.value for o in via_shm] == [
            o.value for o in via_frame
        ]
        assert isinstance(via_shm[-1].error, ValueError)
        assert isinstance(via_frame[-1].error, ValueError)

    def test_workers_stay_warm_across_batches(self):
        with ProcessPool(workers=2) as pool:
            first = {o.value for o in pool.run_batch([_Pid(), _Pid()])}
            second = {o.value for o in pool.run_batch([_Pid(), _Pid()])}
            assert first == second  # same processes, no refork
            assert pool.stats.forks == 2
            assert pool.stats.warm_hits == 2

    def test_errors_come_back_pickled(self):
        with ProcessPool(workers=2) as pool:
            outcomes = pool.run_batch([_Square(1), _Boom(), _Square(3)])
            assert [o.failed for o in outcomes] == [False, True, False]
            assert isinstance(outcomes[1].error, ValueError)
            assert "unit failed" in str(outcomes[1].error)

    def test_unpicklable_result_degrades_to_transport_error(self):
        with ProcessPool(workers=2) as pool:
            outcomes = pool.run_batch([_LockMaker(), _Square(2)])
            assert isinstance(outcomes[0].error, ProcessTransportError)
            assert outcomes[1].value == 4

    def test_unpicklable_thunk_falls_back_to_cold_fork(self):
        lock = threading.Lock()
        with ProcessPool(workers=2) as pool:
            assert pool.run_batch([lambda: bool(lock)]) is None
            assert pool.stats.dispatch_fallbacks == 1
            # The WorkerPool wrapper transparently cold-forks instead.
            workers = WorkerPool(2, executor="processes", pool=pool)
            outcomes = list(
                workers.map_ordered([lambda: bool(lock), lambda: 2])
            )
            assert [o.value for o in outcomes] == [True, 2]

    def test_dead_worker_units_lost_then_respawned(self):
        with ProcessPool(workers=2) as pool:
            thunks = [_Exit(), _Square(1), _Square(2), _Square(3)]
            outcomes = pool.run_batch(thunks)
            # Worker 0 owned strided units 0 and 2 and died on 0.
            assert isinstance(outcomes[0].error, WorkerLostError)
            assert isinstance(outcomes[2].error, WorkerLostError)
            assert outcomes[1].value == 1
            assert outcomes[3].value == 9
            assert pool.stats.respawns == 1
            assert pool.alive() == 2  # respawned before returning
            # The fresh worker serves the next batch normally.
            again = pool.run_batch([_Square(i) for i in range(4)])
            assert [o.value for o in again] == [0, 1, 4, 9]

    def test_recycle_on_max_tasks(self):
        with ProcessPool(workers=1, max_tasks_per_worker=2) as pool:
            first = pool.run_batch([_Pid(), _Pid()])[0].value
            assert pool.stats.recycled == 1
            second = pool.run_batch([_Pid(), _Pid()])[0].value
            assert first != second  # retired + replaced
            assert pool.stats.recycled == 2
            assert pool.stats.forks == 3

    def test_max_workers_caps_stride_not_results(self):
        with ProcessPool(workers=4) as pool:
            outcomes = pool.run_batch(
                [_Square(i) for i in range(8)], max_workers=2
            )
            assert [o.value for o in outcomes] == [
                i * i for i in range(8)
            ]
            assert pool.alive() == 2  # only 2 slots ever forked

    def test_close_reaps_workers_and_arena(self):
        pool = ProcessPool(workers=3)
        pool.prefork()
        list(pool.run_batch([_Square(i) for i in range(6)]))
        arena_dir = pool._dir
        pool.close()
        assert pool.alive() == 0
        assert arena_dir is None or not os.path.exists(arena_dir)
        # Every forked child has been reaped: no zombies left behind.
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        # A closed pool refuses batches instead of hanging.
        assert pool.run_batch([_Square(1)]) is None

    def test_pool_metrics_family(self):
        from repro.observability import MetricsRegistry
        from repro.observability.instruments import (
            POOL_ARENA_BYTES,
            POOL_FORKS,
            POOL_WARM_HITS,
        )

        metrics = MetricsRegistry()
        with ProcessPool(workers=2, metrics=metrics) as pool:
            pool.run_batch([_Square(i) for i in range(4)])
        assert metrics.counter(POOL_FORKS).total() == 2
        assert metrics.counter(POOL_WARM_HITS).total() == 1
        if pool._transport_in_use() == "shared-memory":
            assert metrics.gauge(POOL_ARENA_BYTES).value() > 0

    def test_dispatch_span_is_opt_in(self):
        from repro.observability import Tracer

        # Default: no tracer, so canonical replay's span tree is
        # untouched by pool internals.
        with ProcessPool(workers=2) as silent:
            assert silent.tracer is None
            silent.run_batch([_Square(1), _Square(2)])
        tracer = Tracer()
        with ProcessPool(workers=2, tracer=tracer) as pool:
            pool.run_batch([_Square(i) for i in range(4)])
        spans = tracer.trace(tracer.last_trace_id or "")
        dispatch = [s for s in spans if s.name == "pool.dispatch"]
        assert len(dispatch) == 1
        assert dispatch[0].attrs["units"] == 4
        assert dispatch[0].attrs["workers"] == 2
        assert dispatch[0].attrs["transport"] in TRANSPORTS

    def test_stats_as_dict_round_trips(self):
        with ProcessPool(workers=2) as pool:
            pool.run_batch([_Square(i) for i in range(4)])
            stats = pool.stats.as_dict()
        assert stats["forks"] == 2
        assert stats["warm_hits"] == 1
        assert set(stats) == {
            "forks",
            "recycled",
            "respawns",
            "warm_hits",
            "dispatch_fallbacks",
            "arena_bytes",
        }

