"""Tests for the shared work-stealing chunk scheduler and its consumers."""

import sys
import threading
import warnings

import pytest

from repro.core import Engine, RunSpec, SerialExecutor
from repro.distributions import UniformRows
from repro.exec import (
    DistributedExecutor,
    FaultEvent,
    FaultInjector,
    LoopbackWorker,
    WorkerPool,
)
from repro.exec.health import FleetDegradedWarning
from repro.exec.stealing import Chunk, ChunkScheduler, LaneLost, dispatch
from repro.exec.wire import register_wire_function
from repro.lowerbounds import TopSubmatrixRankProtocol
from repro.obs import MetricsRegistry


@register_wire_function
def _square(x):
    return x * x


@register_wire_function
def _refuse(x):
    raise ConnectionError(f"task {x} refused")


def rank_spec(seed=7):
    return RunSpec(
        protocol=TopSubmatrixRankProtocol(5),
        distribution=UniformRows(8, 8),
        seed=seed,
    )


def slow_worker(delay):
    """A straggler: every map frame is answered ``delay`` seconds late."""
    return LoopbackWorker(
        fault_injector=FaultInjector(
            [FaultEvent("map", op, "slow", delay=delay) for op in range(64)]
        )
    )


def flaky_worker():
    """A worker that hangs up instead of answering every other map frame."""
    return LoopbackWorker(
        fault_injector=FaultInjector(
            [FaultEvent("map", op, "crash") for op in range(0, 64, 2)]
        )
    )


class TestChunkScheduler:
    def test_deals_round_robin(self):
        sched = ChunkScheduler(list(range(10)), chunksize=2, lanes=2)
        # Lane 0 gets chunks 0, 2, 4 (starts 0, 4, 8); lane 1 gets 1, 3.
        assert [sched.next_chunk(0).start for _ in range(3)] == [0, 4, 8]
        assert [sched.next_chunk(1).start for _ in range(2)] == [2, 6]

    def test_chunks_partition_items(self):
        items = list(range(11))
        sched = ChunkScheduler(items, chunksize=4, lanes=3)
        seen = []
        for lane in range(3):
            while (chunk := sched.next_chunk(lane)) is not None:
                seen.append(chunk)
        seen.sort(key=lambda c: c.start)
        assert [c.items for c in seen] == [[0, 1, 2, 3], [4, 5, 6, 7], [8, 9, 10]]

    def test_idle_lane_steals_from_richest(self):
        sched = ChunkScheduler(list(range(12)), chunksize=2, lanes=3)
        # Lane 0 drains its own deque (2 chunks), then must steal.
        assert sched.next_chunk(0) is not None
        assert sched.next_chunk(0) is not None
        stolen = sched.next_chunk(0)
        assert stolen is not None
        assert sched.steals[0] == 1

    def test_pending_tracks_completion(self):
        sched = ChunkScheduler(list(range(8)), chunksize=2, lanes=1)
        assert sched.pending == 4
        chunk = sched.next_chunk(0)
        assert sched.pending == 4  # in flight still counts
        sched.mark_done(chunk)
        assert sched.pending == 3

    def test_requeue_returns_chunk_to_pool(self):
        sched = ChunkScheduler(list(range(4)), chunksize=2, lanes=2)
        chunk = sched.next_chunk(0)
        sched.requeue(chunk, 0)
        assert sched.pending == 2
        # With stealing, lane 1 can pick up the re-queued chunk.
        starts = set()
        while (got := sched.next_chunk(1)) is not None:
            starts.add(got.start)
        assert chunk.start in starts

    def test_drain_returns_queued_in_offset_order(self):
        sched = ChunkScheduler(list(range(9)), chunksize=2, lanes=2)
        sched.next_chunk(0)  # one chunk in flight stays out
        drained = sched.drain()
        assert [c.start for c in drained] == [2, 4, 6, 8]
        assert sched.drain() == []

    def test_validation(self):
        with pytest.raises(ValueError):
            ChunkScheduler([1], chunksize=0, lanes=1)
        with pytest.raises(ValueError):
            ChunkScheduler([1], chunksize=1, lanes=0)

    def test_empty_items(self):
        sched = ChunkScheduler([], chunksize=2, lanes=2)
        assert sched.pending == 0
        assert sched.next_chunk(0) is None

    def test_concurrent_lanes_cover_everything_exactly_once(self):
        items = list(range(200))
        sched = ChunkScheduler(items, chunksize=3, lanes=4)
        claimed: list[Chunk] = []
        lock = threading.Lock()

        def lane(index):
            while (chunk := sched.next_chunk(index)) is not None:
                with lock:
                    claimed.append(chunk)
                sched.mark_done(chunk)

        threads = [threading.Thread(target=lane, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        flat = sorted(x for chunk in claimed for x in chunk.items)
        assert flat == items
        assert sched.pending == 0


#: How long a gated fake lane waits before the test counts it as hung.
GATE_TIMEOUT = 10.0


class FakeLane:
    """A scripted :func:`dispatch` lane: no sockets, no processes.

    ``ready`` answers in turn from ``readiness`` (the last answer
    repeats); ``before_run(lane, chunk)`` runs first on every chunk and
    may block on an event or raise.  Results are the squares of the
    chunk's items.
    """

    def __init__(self, readiness=(True,), before_run=None):
        self.readiness = list(readiness)
        self.before_run = before_run
        self.ran: list[int] = []

    def ready(self):
        if len(self.readiness) > 1:
            return self.readiness.pop(0)
        return self.readiness[0]

    def run(self, chunk, span):
        if self.before_run is not None:
            self.before_run(self, chunk)
        self.ran.append(chunk.start)
        return [x * x for x in chunk.items]


class TestDispatch:
    def test_results_land_in_item_order(self):
        """Lane 0 holds chunk 0 until lane 1 reaches the last of the
        others — its own three, then two stolen from lane 0's tail — so
        chunks complete out of offset order; results still land by
        offset."""
        claimed, release = threading.Event(), threading.Event()

        def hold_first(lane, chunk):
            claimed.set()
            assert release.wait(GATE_TIMEOUT)

        def run_the_rest(lane, chunk):
            assert claimed.wait(GATE_TIMEOUT)
            if len(lane.ran) == 4:
                release.set()

        slow = FakeLane(before_run=hold_first)
        fast = FakeLane(before_run=run_the_rest)
        registry = MetricsRegistry()
        results, leftovers = dispatch(
            list(range(12)), [slow, fast], chunksize=2, registry=registry
        )
        assert results == [x * x for x in range(12)]
        assert leftovers == []
        assert slow.ran == [0]
        assert fast.ran == [2, 6, 10, 8, 4]
        assert registry.total("exec_steals_total") == 2
        assert registry.total("exec_requeues_total") == 0

    def test_many_lanes_under_fast_switching_run_every_chunk_once(self):
        """More feeder threads than cores and a tiny switch interval: a
        lost write-back or a chunk run twice would break the result."""
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            lanes = [FakeLane() for _ in range(8)]
            results, leftovers = dispatch(list(range(2000)), lanes, chunksize=1)
        finally:
            sys.setswitchinterval(old)
        assert results == [x * x for x in range(2000)]
        assert leftovers == []
        assert sorted(start for lane in lanes for start in lane.ran) == list(
            range(2000)
        )

    def test_default_chunk_rule_is_four_chunks_per_lane(self):
        lane = FakeLane()
        results, _ = dispatch(list(range(64)), [lane, lane])
        assert results == [x * x for x in range(64)]
        assert sorted(lane.ran) == list(range(0, 64, 8))

    def test_lost_lane_chunk_runs_on_another_lane(self):
        """Round one has only lane 0, which loses itself on its first
        chunk; round two runs the requeued chunk on lane 1."""

        def lose(lane, chunk):
            lane.readiness = [False]
            raise LaneLost("link dropped")

        flaky = FakeLane(before_run=lose)
        late = FakeLane(readiness=(False, True))
        registry = MetricsRegistry()
        results, leftovers = dispatch(
            list(range(8)), [flaky, late], chunksize=2, registry=registry
        )
        assert results == [x * x for x in range(8)]
        assert leftovers == []
        assert flaky.ran == []
        assert 0 in late.ran
        assert registry.total("exec_requeues_total") == 1

    def test_no_ready_lane_returns_leftovers_in_offset_order(self):
        def lose_after_one(lane, chunk):
            if lane.ran:
                lane.readiness = [False]
                raise LaneLost("gone")

        partial = FakeLane(before_run=lose_after_one)
        absent = FakeLane(readiness=(False,))
        results, leftovers = dispatch(
            list(range(10)), [partial, absent], chunksize=2
        )
        assert partial.ran == [0]
        assert absent.ran == []
        assert [chunk.start for chunk in leftovers] == [2, 4, 6, 8]
        assert results == [0, 1] + [None] * 8

    def test_task_error_stops_every_lane_and_is_reraised(self):
        """Lane 0 fails once lane 1 holds a chunk; lane 1 finishes that
        chunk only after lane 0's feeder has recorded the error and
        exited, and must then claim nothing more."""
        claimed, raised = threading.Event(), threading.Event()
        failed_feeder: list[threading.Thread] = []

        def fail(lane, chunk):
            assert claimed.wait(GATE_TIMEOUT)
            failed_feeder.append(threading.current_thread())
            raised.set()
            raise ValueError("task failed")

        def wait_for_failure(lane, chunk):
            claimed.set()
            assert raised.wait(GATE_TIMEOUT)
            failed_feeder[0].join(GATE_TIMEOUT)
            assert not failed_feeder[0].is_alive()

        failing = FakeLane(before_run=fail)
        other = FakeLane(before_run=wait_for_failure)
        with pytest.raises(ValueError, match="task failed"):
            dispatch(list(range(20)), [failing, other], chunksize=2)
        assert failing.ran == []
        assert other.ran == [2]


class TestWorkerPoolStealing:
    def test_steal_is_default_and_bit_identical_to_serial(self):
        golden = Engine(SerialExecutor()).run_batch(rank_spec(), 24)
        with WorkerPool(max_workers=2) as pool:
            batch = Engine(pool).run_batch(rank_spec(), 24)
        assert batch.outputs == golden.outputs
        assert batch.transcript_keys == golden.transcript_keys

    def test_task_error_propagates_and_pool_stays_warm(self):
        with WorkerPool(max_workers=2) as pool:
            with pytest.raises(ValueError, match="task"):
                pool.map(_boom_global, range(8))
            # The pool survived the task error and still works.
            assert pool.warm
            assert pool.map(_square, range(5)) == [0, 1, 4, 9, 16]


def _boom_global(x):
    raise ValueError(f"task {x}")


class TestTaskConnectionErrorIsNotALaneFailure:
    """A task that raises ``ConnectionError`` is a task error: it
    propagates unchanged, with no requeue, no fallback and no
    ``FleetDegradedWarning``.  Which item raised first is racy."""

    def test_worker_pool(self):
        with WorkerPool(max_workers=2) as pool:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                with pytest.raises(ConnectionError) as excinfo:
                    pool.map(_refuse, range(8))
            assert excinfo.type is ConnectionError
            assert not [w for w in caught if w.category is FleetDegradedWarning]
            assert pool.registry.total("pool_broken_total") == 0
            assert pool.registry.total("pool_degraded_batches_total") == 0
            assert pool.warm

    def test_distributed_executor(self):
        with LoopbackWorker() as first, LoopbackWorker() as second:
            with DistributedExecutor(
                [first.endpoint, second.endpoint], chunksize=2
            ) as executor:
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    with pytest.raises(ConnectionError) as excinfo:
                        executor.map(_refuse, range(8))
                assert excinfo.type is ConnectionError
                assert not [
                    w for w in caught if w.category is FleetDegradedWarning
                ]
                assert executor.registry.total("exec_requeues_total") == 0
                assert executor.registry.total("exec_degraded_maps_total") == 0
                assert executor.telemetry.total() == 0


class TestDistributedStealing:
    def test_steal_mode_rebalances_off_slow_worker(self):
        """With one straggler, stealing moves chunks to the fast host."""
        with LoopbackWorker() as fast, slow_worker(0.05) as slow:
            with DistributedExecutor(
                [fast.endpoint, slow.endpoint], chunksize=1
            ) as executor:
                assert executor.map(_square, range(10)) == [
                    x * x for x in range(10)
                ]
                assert executor.registry.total("exec_steals_total") > 0

    def test_unreachable_worker_completes(self):
        """Chunks dealt to a never-connectable lane are stolen by the live
        worker instead of spinning through empty dispatch rounds.
        local_fallback=False proves the orphaned chunks ran remotely."""
        import socket as socket_mod

        with socket_mod.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            dead_endpoint = "127.0.0.1:%d" % probe.getsockname()[1]
        with LoopbackWorker() as good:
            with DistributedExecutor(
                [good.endpoint, dead_endpoint],
                chunksize=1,
                connect_timeout=0.5,
                local_fallback=False,
            ) as executor:
                assert executor.map(_square, range(10)) == [
                    x * x for x in range(10)
                ]

    def test_survives_two_worker_failures(self):
        """Two flaky lanes die mid-map; local_fallback=False proves that
        their chunks, including ones requeued after a death, all ran on
        a live worker instead of being stranded on a dead lane."""
        steady = LoopbackWorker()
        flaky_a = flaky_worker()
        flaky_b = flaky_worker()
        try:
            with DistributedExecutor(
                [steady.endpoint, flaky_a.endpoint, flaky_b.endpoint],
                chunksize=1,
                local_fallback=False,
            ) as executor:
                for _ in range(3):  # repeated maps re-roll the failure race
                    assert executor.map(_square, range(12)) == [
                        x * x for x in range(12)
                    ]
        finally:
            steady.stop()
            flaky_a.stop()
            flaky_b.stop()

    def test_failover_with_stealing(self):
        """A dying worker's chunks are stolen/redistributed, not lost."""
        flaky = flaky_worker()
        steady = LoopbackWorker()
        try:
            with DistributedExecutor(
                [flaky.endpoint, steady.endpoint], chunksize=2
            ) as executor:
                assert executor.map(_square, range(16)) == [
                    x * x for x in range(16)
                ]
        finally:
            flaky.stop()
            steady.stop()

    def test_engine_batch_on_skewed_fleet_bit_identical(self):
        golden = Engine(SerialExecutor()).run_batch(rank_spec(), 20)
        with LoopbackWorker() as fast, slow_worker(0.02) as slow:
            with DistributedExecutor(
                [fast.endpoint, slow.endpoint], chunksize=2
            ) as executor:
                batch = Engine(executor).run_batch(rank_spec(), 20)
        assert batch.outputs == golden.outputs
        assert batch.cost_totals() == golden.cost_totals()
