"""Tests for the warm WorkerPool executor."""

import glob
import os
import time

import numpy as np
import pytest

from repro.core import Engine, RunSpec, SerialExecutor
from repro.distributions import UniformRows
from repro.exec import WorkerPool
from repro.lowerbounds import TopSubmatrixRankProtocol


def _square(x):
    return x * x


def _boom(x):
    raise ValueError(f"task {x} failed")


def _exit_once(path):
    """Kill the worker process the first time; succeed afterwards.

    The sentinel file is removed *before* dying so the retried batch,
    running on a rebuilt pool, completes normally — a deterministic
    worker-crash scenario.
    """
    if os.path.exists(path):
        os.remove(path)
        os._exit(1)
    return "recovered"


def rank_spec(seed=7, **overrides):
    spec = dict(
        protocol=TopSubmatrixRankProtocol(5),
        distribution=UniformRows(8, 8),
        seed=seed,
    )
    spec.update(overrides)
    return RunSpec(**spec)


class TestWarmReuse:
    def test_bit_identical_to_serial(self):
        golden = Engine(SerialExecutor()).run_batch(rank_spec(), 24)
        with WorkerPool(max_workers=2) as pool:
            batch = Engine(pool).run_batch(rank_spec(), 24)
        assert batch.outputs == golden.outputs
        assert batch.transcript_keys == golden.transcript_keys
        assert batch.cost_totals() == golden.cost_totals()

    def test_workers_survive_across_batches(self):
        with WorkerPool(max_workers=2) as pool:
            engine = Engine(pool)
            engine.run_batch(rank_spec(1), 8)
            inner = pool._pool
            assert inner is not None
            engine.run_batch(rank_spec(2), 8)
            engine.run_batch(rank_spec(3), 8)
            # Same ProcessPoolExecutor object: no per-batch start-up.
            assert pool._pool is inner

    def test_plain_map_contract(self):
        with WorkerPool(max_workers=2) as pool:
            assert pool.map(_square, range(10)) == [x * x for x in range(10)]
            assert pool.map(_square, []) == []

    def test_unpicklable_falls_back_serially(self):
        with WorkerPool(max_workers=2) as pool:
            with pytest.warns(RuntimeWarning, match="serially"):
                assert pool.map(lambda x: x + 1, [1, 2, 3]) == [2, 3, 4]
            # The pool is still usable for picklable work afterwards.
            assert pool.map(_square, [3]) == [9]


class TestFailureRecovery:
    def test_reusable_after_task_raises(self):
        """A task exception propagates but leaves the pool warm."""
        with WorkerPool(max_workers=2) as pool:
            assert pool.map(_square, range(4)) == [0, 1, 4, 9]
            inner = pool._pool
            with pytest.raises(ValueError, match="failed"):
                pool.map(_boom, range(4))
            assert pool._pool is inner  # workers kept, not rebuilt
            assert pool.map(_square, range(4)) == [0, 1, 4, 9]

    def test_engine_batch_after_task_raises(self):
        bad_spec = rank_spec(
            protocol=TopSubmatrixRankProtocol(9),  # k exceeds 8x8 inputs
        )
        with WorkerPool(max_workers=2) as pool:
            engine = Engine(pool)
            with pytest.raises(Exception):
                engine.run_batch(bad_spec, 8)
            golden = Engine(SerialExecutor()).run_batch(rank_spec(), 16)
            assert engine.run_batch(rank_spec(), 16).outputs == golden.outputs

    def test_rebuilds_after_worker_crash(self, tmp_path):
        """A dead worker breaks the pool; the batch retries on a new one."""
        sentinel = tmp_path / "die-once"
        sentinel.write_text("")
        with WorkerPool(max_workers=2) as pool:
            assert pool.map(_square, [1]) == [1]  # warm the pool up
            first = pool._pool
            assert pool.map(_exit_once, [str(sentinel)]) == ["recovered"]
            assert pool._pool is not first  # crash forced a rebuild
            # the crash was counted, and the retry succeeded
            assert pool.registry.total("pool_broken_total") == 1
            assert pool.registry.total("pool_degraded_batches_total") == 0
            # And the rebuilt pool keeps serving.
            assert pool.map(_square, range(6)) == [x * x for x in range(6)]

    def test_twice_broken_pool_degrades_loudly_and_counts(self, monkeypatch):
        """When the rebuilt pool breaks too, the batch runs serially with
        a typed FleetDegradedWarning and both counters advance."""
        from concurrent.futures.process import BrokenProcessPool

        from repro.exec.health import FleetDegradedWarning

        with WorkerPool(max_workers=2) as pool:

            def always_broken(*args, **kwargs):
                raise BrokenProcessPool("injected worker death")

            monkeypatch.setattr(pool, "_map_once", always_broken)
            with pytest.warns(FleetDegradedWarning, match="serially"):
                assert pool.map(_square, range(4)) == [0, 1, 4, 9]
            # original + rebuilt attempt
            assert pool.registry.total("pool_broken_total") == 2
            assert pool.registry.total("pool_degraded_batches_total") == 1

    def test_closed_pool_refuses_work(self):
        pool = WorkerPool(max_workers=2)
        pool.close()
        with pytest.raises(RuntimeError, match="closed"):
            pool.map(_square, [1])
        pool.close()  # idempotent


class TestIdleReaping:
    # Deflake pattern: the "still warm right after use" asserts run under
    # a generous idle_timeout (no reap can fire for minutes, however
    # loaded the machine), then the timeout is shortened and one more map
    # schedules the short reap — the test waits on the *state change*, not
    # on wall-clock alignment between the assert and a 0.2s timer.
    LONG_IDLE = 300.0
    SHORT_IDLE = 0.05

    @staticmethod
    def _wait_reaped(pool, condition, deadline_s=10.0):
        deadline = time.monotonic() + deadline_s
        while not condition() and time.monotonic() < deadline:
            time.sleep(0.02)

    def test_idle_workers_reaped_and_rebuilt(self):
        with WorkerPool(max_workers=2, idle_timeout=self.LONG_IDLE) as pool:
            assert pool.map(_square, [2]) == [4]
            assert pool.warm  # safe: the reap timer is minutes away
            pool.idle_timeout = self.SHORT_IDLE
            assert pool.map(_square, [4]) == [16]  # schedules the short reap
            self._wait_reaped(pool, lambda: not pool.warm)
            assert not pool.warm  # reaped after idling
            # The next call transparently rebuilds the workers.
            pool.idle_timeout = self.LONG_IDLE
            assert pool.map(_square, [3]) == [9]
            assert pool.warm

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            WorkerPool(max_workers=0)
        with pytest.raises(ValueError):
            WorkerPool(idle_timeout=0.0)
        with pytest.raises(ValueError):
            WorkerPool(share_inputs_min_bytes=0)


class TestSharedInputs:
    def test_segment_reused_across_batches(self, rng):
        inputs = rng.integers(0, 2, size=(12, 9), dtype=np.uint8)
        spec = rank_spec(distribution=None, inputs=inputs, record_inputs=True)
        golden = Engine(SerialExecutor()).run_batch(spec, 10)
        with WorkerPool(max_workers=2, share_inputs_min_bytes=1) as pool:
            engine = Engine(pool)
            first = engine.run_batch(spec, 10)
            assert len(pool._segments) == 1
            second = engine.run_batch(spec, 10)
            # Same matrix => same digest => the one segment is reused.
            assert len(pool._segments) == 1
            assert first.outputs == golden.outputs == second.outputs
            for trial in first:
                assert np.array_equal(trial.inputs, inputs)

    def test_segments_unlinked_on_close(self, rng):
        before = set(glob.glob("/dev/shm/psm_*"))
        inputs = rng.integers(0, 2, size=(16, 9), dtype=np.uint8)
        spec = rank_spec(distribution=None, inputs=inputs)
        pool = WorkerPool(max_workers=2, share_inputs_min_bytes=1)
        try:
            Engine(pool).run_batch(spec, 10)
        finally:
            pool.close()
        assert set(glob.glob("/dev/shm/psm_*")) <= before

    def test_idle_reap_releases_segments(self, rng):
        inputs = rng.integers(0, 2, size=(12, 9), dtype=np.uint8)
        spec = rank_spec(distribution=None, inputs=inputs)
        golden = Engine(SerialExecutor()).run_batch(spec, 6)
        with WorkerPool(
            max_workers=2,
            idle_timeout=TestIdleReaping.LONG_IDLE,
            share_inputs_min_bytes=1,
        ) as pool:
            engine = Engine(pool)
            engine.run_batch(spec, 6)
            assert len(pool._segments) == 1  # safe: reap is minutes away
            pool.idle_timeout = TestIdleReaping.SHORT_IDLE
            engine.run_batch(spec, 6)  # schedules the short reap
            TestIdleReaping._wait_reaped(
                pool, lambda: not pool.warm and not pool._segments
            )
            assert not pool.warm
            assert pool._segments == {}  # idle pool pins no shared memory
            # The next batch republishes and still matches the golden run;
            # restore the long timeout so its asserts cannot race a reap.
            pool.idle_timeout = TestIdleReaping.LONG_IDLE
            assert engine.run_batch(spec, 6).outputs == golden.outputs
            assert len(pool._segments) == 1

    def test_distinct_matrices_get_distinct_segments(self, rng):
        with WorkerPool(max_workers=2, share_inputs_min_bytes=1) as pool:
            engine = Engine(pool)
            for seed in (1, 2):
                inputs = np.random.default_rng(seed).integers(
                    0, 2, size=(12, 9), dtype=np.uint8
                )
                engine.run_batch(
                    rank_spec(distribution=None, inputs=inputs), 6
                )
            assert len(pool._segments) == 2
