"""Tests for the warm WorkerPool executor."""

import glob
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.core import Engine, RunSpec, SerialExecutor
from repro.distributions import UniformRows
from repro.exec import WorkerPool
from repro.lowerbounds import TopSubmatrixRankProtocol
from repro.protocols import GlobalParityProtocol


def _square(x):
    return x * x


def _boom(x):
    raise ValueError(f"task {x} failed")


def _raise_unpicklable(x):
    raise ValueError(threading.Lock())


def _return_unpicklable(x):
    return threading.Lock()


def _alive(pid):
    """Whether process ``pid`` exists (a reaped worker does not)."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


def _worker_pids(pool):
    return [process.pid for process in pool._pool._processes]


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
            # Same worker set: no per-batch start-up.
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

    def test_unpicklable_task_errors_are_typed_and_keep_the_pool(self):
        """A reply that does not pickle comes back as a TypeError naming
        the cause, from the same warm workers."""
        with WorkerPool(max_workers=2) as pool:
            assert pool.map(_square, range(4)) == [0, 1, 4, 9]
            inner = pool._pool
            with pytest.raises(TypeError, match="task's ValueError.*lock"):
                pool.map(_raise_unpicklable, range(4))
            with pytest.raises(TypeError, match="task's result.*lock"):
                pool.map(_return_unpicklable, range(4))
            assert pool._pool is inner
            assert pool.map(_square, range(4)) == [0, 1, 4, 9]

    def test_task_error_carries_the_worker_traceback(self):
        with WorkerPool(max_workers=2) as pool:
            with pytest.raises(ValueError) as info:
                pool.map(_boom, [3])
        assert "_boom" in str(info.value.__cause__)

    def test_idle_worker_killed_between_maps_rebuilds_once(self):
        golden = Engine(SerialExecutor()).run_batch(rank_spec(), 16)
        with WorkerPool(max_workers=2) as pool:
            engine = Engine(pool)
            engine.run_batch(rank_spec(), 4)
            old = _worker_pids(pool)
            os.kill(old[0], signal.SIGKILL)
            batch = engine.run_batch(rank_spec(), 16)
            assert batch.outputs == golden.outputs
            assert batch.transcript_keys == golden.transcript_keys
            assert pool.registry.total("pool_broken_total") == 1
            assert pool.registry.total("pool_degraded_batches_total") == 0
            # Nothing leaks from the broken set: exactly max_workers
            # worker processes are alive, all of them new.
            new = _worker_pids(pool)
            assert not any(_alive(pid) for pid in old)
            assert len(new) == 2 and all(_alive(pid) for pid in new)

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

    def test_reap_leaves_no_worker_running(self):
        with WorkerPool(max_workers=2, idle_timeout=self.LONG_IDLE) as pool:
            assert pool.map(_square, [2]) == [4]
            pids = _worker_pids(pool)
            pool.idle_timeout = self.SHORT_IDLE
            assert pool.map(_square, [4]) == [16]
            self._wait_reaped(pool, lambda: not pool.warm)
            assert not pool.warm
            assert not any(_alive(pid) for pid in pids)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            WorkerPool(max_workers=0)
        with pytest.raises(ValueError):
            WorkerPool(idle_timeout=0.0)
        # Fixed inputs are pickled into every chunk; there is no
        # shared-memory threshold to set.
        with pytest.raises(TypeError):
            WorkerPool(share_inputs_min_bytes=1 << 16)


class TestSharedInputs:
    """A fixed input matrix shared by every trial of a batch rides inside
    each pickled chunk, like every other ``RunSpec`` field."""

    def test_buffer_refilled_in_place_is_republished(self):
        """A fixed-input buffer refilled between batches ships its new
        contents; workers never run the second batch on the first's."""
        buffer = np.zeros((16, 16), dtype=np.uint8)
        spec = rank_spec(distribution=None, inputs=buffer)
        with WorkerPool(max_workers=2) as pool:
            engine = Engine(pool)
            engine.run_batch(spec, 8)
            buffer[:] = np.eye(16, dtype=np.uint8)
            batch = engine.run_batch(spec, 8)
            golden = Engine(SerialExecutor()).run_batch(spec, 8)
            assert batch.outputs == golden.outputs

    def test_warm_pool_pins_no_shared_memory(self):
        """Twenty distinct 64 KiB matrices on one warm pool leave no
        ``/dev/shm`` segment behind while the pool stays open, and every
        batch (recorded inputs included) equals the serial one.  64 KiB
        is where the pool used to copy a matrix into a shared-memory
        segment and keep it until close."""
        before = set(glob.glob("/dev/shm/psm_*"))
        rng = np.random.default_rng(64)
        matrices = [
            rng.integers(0, 2, size=(256, 256), dtype=np.uint8) for _ in range(20)
        ]
        specs = [
            RunSpec(
                protocol=GlobalParityProtocol(),
                inputs=inputs,
                seed=seed,
                record_inputs=True,
            )
            for seed, inputs in enumerate(matrices)
        ]
        serial = Engine(SerialExecutor())
        with WorkerPool(max_workers=2) as pool:
            engine = Engine(pool)
            for spec in specs:
                batch = engine.run_batch(spec, 4)
                golden = serial.run_batch(spec, 4)
                assert batch.outputs == golden.outputs
                assert batch.transcript_keys == golden.transcript_keys
                assert batch.cost_totals() == golden.cost_totals()
                for trial in batch:
                    assert np.array_equal(trial.inputs, spec.inputs)
            assert pool.warm
            assert set(glob.glob("/dev/shm/psm_*")) <= before


class TestWorkerLifecycle:
    """Every worker process the pool starts is reaped by the pool."""

    def test_close_leaves_no_worker_running(self):
        pool = WorkerPool(max_workers=2)
        assert pool.map(_square, range(4)) == [0, 1, 4, 9]
        pids = _worker_pids(pool)
        assert all(_alive(pid) for pid in pids)
        pool.close()
        assert not any(_alive(pid) for pid in pids)

    def test_rebuild_leaves_no_worker_of_the_broken_set(self, tmp_path):
        sentinel = tmp_path / "die-once"
        sentinel.write_text("")
        with WorkerPool(max_workers=2) as pool:
            assert pool.map(_square, [1, 2]) == [1, 4]
            old = _worker_pids(pool)
            assert pool.map(_exit_once, [str(sentinel)]) == ["recovered"]
            new = _worker_pids(pool)
            assert not any(_alive(pid) for pid in old)
            assert len(new) == 2 and all(_alive(pid) for pid in new)
        assert not any(_alive(pid) for pid in new)

    def test_interpreter_exit_without_close_stops_the_workers(self):
        """A pool left open at exit neither hangs the interpreter nor
        leaves a worker running."""
        script = (
            "from repro.exec import WorkerPool\n"
            "pool = WorkerPool(max_workers=2)\n"
            "assert pool.map(abs, [-1, -2, -3]) == [1, 2, 3]\n"
            "print(*[process.pid for process in pool._pool._processes])\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(repro.__file__).parents[1])}
        out = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            check=True,
            env=env,
            timeout=60,
        )
        pids = [int(pid) for pid in out.stdout.split()]
        assert len(pids) == 2
        assert not any(_alive(pid) for pid in pids)

    def test_workers_read_eof_when_the_parent_end_closes(self):
        """No worker holds a copy of any parent-side pipe end, so closing
        the parent's ends alone stops every worker — what happens when
        the parent dies without a stop message."""
        with WorkerPool(max_workers=2) as pool:
            assert pool.map(_square, range(4)) == [0, 1, 4, 9]
            workers = pool._pool
            for conn in workers._conns:
                conn.close()
            for process in workers._processes:
                process.join(10.0)
            assert [process.exitcode for process in workers._processes] == [0, 0]

    def test_concurrent_batches_share_the_workers(self):
        specs = [rank_spec(seed) for seed in range(4)]
        serial = Engine(SerialExecutor())
        with WorkerPool(max_workers=2) as pool:
            engine = Engine(pool, max_inflight=4)
            futures = [engine.submit_batch(spec, 24) for spec in specs]
            batches = [future.result(timeout=60) for future in futures]
            engine.close()
            assert pool.registry.total("pool_broken_total") == 0
        for spec, batch in zip(specs, batches):
            golden = serial.run_batch(spec, 24)
            assert batch.outputs == golden.outputs
            assert batch.transcript_keys == golden.transcript_keys
            assert batch.cost_totals() == golden.cost_totals()

    def test_stress_many_lanes_on_few_workers(self):
        """Eight threads mapping at once on two workers, with a tiny
        switch interval: every result is right, and every worker is back
        on the idle list afterwards, so none was lost or handed out
        twice."""
        errors = []

        def hammer(offset):
            try:
                for round_ in range(10):
                    items = list(range(offset, offset + 24 + round_))
                    if pool.map(_square, items) != [x * x for x in items]:
                        errors.append(f"wrong results at offset {offset}")
            except Exception as exc:  # noqa: BLE001 - reported below
                errors.append(repr(exc))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with WorkerPool(max_workers=2, chunksize=1) as pool:
                threads = [
                    threading.Thread(target=hammer, args=(100 * i,)) for i in range(8)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(60.0)
                assert not any(thread.is_alive() for thread in threads)
                workers = pool._pool
                assert sorted(map(id, workers._idle)) == sorted(map(id, workers._conns))
                assert pool.registry.total("pool_broken_total") == 0
        finally:
            sys.setswitchinterval(interval)
        assert errors == []
