"""Tests for Engine.submit_batch, BatchFuture, and as_completed."""

import threading
from concurrent.futures import CancelledError

import numpy as np
import pytest

from repro.core import Engine, PublicCoins, RunSpec, SerialExecutor
from repro.distributions import UniformRows
from repro.exec import as_completed
from repro.lowerbounds import TopSubmatrixRankProtocol
from repro.protocols import GlobalParityProtocol


class GatedParityProtocol(GlobalParityProtocol):
    """Parity whose broadcasts wait until the test opens ``gate``.

    The gate is a class attribute because the engine deep-copies the
    protocol for every trial and an ``Event`` cannot be deep-copied.  The
    wait is bounded so a gate left closed fails the batch instead of
    hanging the suite.
    """

    gate = threading.Event()

    def broadcast(self, proc, round_index):
        if not self.gate.wait(timeout=30):
            raise TimeoutError("GatedParityProtocol.gate was never opened")
        return super().broadcast(proc, round_index)


def rank_spec(seed=7, vectorized=False):
    return RunSpec(
        protocol=TopSubmatrixRankProtocol(5),
        distribution=UniformRows(8, 8),
        seed=seed,
        vectorized=vectorized,
    )


class TestSubmitBatch:
    def test_bit_identical_to_run_batch(self):
        golden = Engine().run_batch(rank_spec(), 32)
        with Engine(SerialExecutor()) as engine:
            future = engine.submit_batch(rank_spec(), 32)
            batch = future.result(timeout=60)
        assert batch.outputs == golden.outputs
        assert batch.transcript_keys == golden.transcript_keys
        assert batch.cost_totals() == golden.cost_totals()

    def test_many_inflight_batches_independent(self):
        goldens = [Engine().run_batch(rank_spec(seed), 16) for seed in range(5)]
        with Engine() as engine:
            futures = [engine.submit_batch(rank_spec(seed), 16) for seed in range(5)]
            batches = [future.result(timeout=60) for future in futures]
        for golden, batch in zip(goldens, batches):
            assert batch.outputs == golden.outputs

    def test_submission_order_never_changes_seeding(self):
        """Completion order is scheduling; trial seeds are spec-only."""
        golden = Engine().run_batch(rank_spec(3), 16)
        with Engine() as engine:
            futures = [engine.submit_batch(rank_spec(3), 16) for _ in range(4)]
            seen = [future.result(timeout=60).outputs for future in as_completed(futures)]
        assert all(outputs == golden.outputs for outputs in seen)

    def test_vectorized_spec_through_future(self):
        golden = Engine().run_batch(rank_spec(vectorized=True), 40)
        with Engine() as engine:
            batch = engine.submit_batch(rank_spec(vectorized=True), 40).result(60)
        assert batch.outputs == golden.outputs

    def test_validates_eagerly(self):
        with Engine() as engine:
            with pytest.raises(ValueError):
                engine.submit_batch(rank_spec(), -1)
            spec = RunSpec(
                protocol=GlobalParityProtocol(),
                inputs=np.zeros((3, 3), dtype=np.uint8),
                public_coins=PublicCoins(np.random.default_rng(0)),
            )
            with pytest.raises(ValueError):
                engine.submit_batch(spec, 4)

    def test_engine_reusable_after_close(self):
        engine = Engine()
        assert engine.submit_batch(rank_spec(), 4).result(60)
        engine.close()
        assert engine.submit_batch(rank_spec(), 4).result(60)
        engine.close()
        engine.close()  # idempotent

    def test_exception_propagates(self):
        spec = RunSpec(
            protocol=TopSubmatrixRankProtocol(9),  # k exceeds the 4x4 inputs
            distribution=UniformRows(4, 4),
            seed=0,
        )
        with Engine() as engine:
            future = engine.submit_batch(spec, 4)
            assert future.exception(timeout=60) is not None
            with pytest.raises(Exception):
                future.result(timeout=60)


class TestCancel:
    def test_cancel_before_start(self):
        """A queued batch (beyond max_inflight) cancels cleanly."""
        spec = RunSpec(
            protocol=GatedParityProtocol(),
            distribution=UniformRows(3, 4),
            seed=1,
        )
        GatedParityProtocol.gate.clear()
        with Engine(SerialExecutor(), max_inflight=1) as engine:
            try:
                running = engine.submit_batch(spec, 10)  # holds the only thread
                queued = engine.submit_batch(rank_spec(), 4)
                assert queued.cancel()
                assert queued.cancelled()
                assert queued.done()
                with pytest.raises(CancelledError):
                    queued.result(timeout=5)
            finally:
                GatedParityProtocol.gate.set()
            # The running batch is unaffected.
            assert len(running.result(timeout=60)) == 10

    def test_cancel_after_completion_fails(self):
        with Engine() as engine:
            future = engine.submit_batch(rank_spec(), 4)
            future.result(timeout=60)
            assert not future.cancel()
            assert future.done()


class TestBatchFutureSurface:
    def test_then_transforms_lazily(self):
        golden = Engine().run_batch(rank_spec(), 32)
        with Engine() as engine:
            future = engine.submit_batch(rank_spec(), 32)
            accept_rate = future.then(lambda batch: batch.decisions(0).mean())
            assert accept_rate.result(timeout=60) == golden.decisions(0).mean()
            # The parent future still yields the raw batch.
            assert future.result(timeout=60).outputs == golden.outputs

    def test_then_chains(self):
        with Engine() as engine:
            future = engine.submit_batch(rank_spec(), 16)
            doubled = future.then(lambda batch: len(batch)).then(lambda n: 2 * n)
            assert doubled.result(timeout=60) == 32

    def test_then_caches_single_application(self):
        calls = []
        with Engine() as engine:
            future = engine.submit_batch(rank_spec(), 8)
            counted = future.then(lambda batch: calls.append(1) or len(batch))
            assert counted.result(timeout=60) == 8
            assert counted.result(timeout=60) == 8
        assert len(calls) == 1

    def test_then_chain_reuses_parent_cache(self):
        """Each link of a then-chain evaluates once, however it's consumed."""
        parent_calls, child_calls = [], []
        with Engine() as engine:
            future = engine.submit_batch(rank_spec(), 8)
            parent = future.then(lambda batch: parent_calls.append(1) or len(batch))
            child_a = parent.then(lambda n: child_calls.append(1) or n + 1)
            child_b = parent.then(lambda n: child_calls.append(1) or n + 2)
            assert parent.result(timeout=60) == 8
            assert child_a.result(timeout=60) == 9
            assert child_b.result(timeout=60) == 10
        assert len(parent_calls) == 1  # not re-run per descendant
        assert len(child_calls) == 2

    def test_exception_covers_transform_chain(self):
        with Engine() as engine:
            future = engine.submit_batch(rank_spec(), 4)
            broken = future.then(lambda batch: 1 / 0)
            exc = broken.exception(timeout=60)
            assert isinstance(exc, ZeroDivisionError)
            # The parent itself succeeded.
            assert future.exception(timeout=60) is None
            healthy = future.then(len)
            assert healthy.exception(timeout=60) is None
            assert healthy.result(timeout=60) == 4

    def test_add_done_callback_receives_wrapper(self):
        seen = []
        with Engine() as engine:
            future = engine.submit_batch(rank_spec(), 4)
            future.add_done_callback(lambda f: seen.append(f.done()))
            future.result(timeout=60)
        assert seen == [True]

    def test_as_completed_yields_every_future(self):
        with Engine() as engine:
            futures = [engine.submit_batch(rank_spec(seed), 8) for seed in range(4)]
            finished = list(as_completed(futures, timeout=60))
        assert sorted(id(f) for f in finished) == sorted(id(f) for f in futures)

    def test_spec_and_trials_introspection(self):
        with Engine() as engine:
            spec = rank_spec()
            future = engine.submit_batch(spec, 12)
            assert future.trials == 12
            assert future.spec is spec
            future.result(timeout=60)


class TestAsCompletedTimeout:
    def test_timeout_raises_after_yielding_finished_futures(self):
        """A stalled batch must not hang the iterator: finished futures
        come out first, then TimeoutError."""
        from concurrent.futures import TimeoutError as FuturesTimeout

        slow_spec = RunSpec(
            protocol=GatedParityProtocol(),
            distribution=UniformRows(3, 4),
            seed=1,
        )
        GatedParityProtocol.gate.clear()
        with Engine(SerialExecutor(), max_inflight=1) as engine:
            try:
                fast = engine.submit_batch(rank_spec(), 4)
                fast.result(timeout=60)          # already done before iterating
                slow = engine.submit_batch(slow_spec, 40)  # waits on the gate
                yielded = []
                with pytest.raises(FuturesTimeout):
                    for future in as_completed([fast, slow], timeout=0.2):
                        yielded.append(future)
                assert yielded == [fast]
                assert not slow.done()
            finally:
                GatedParityProtocol.gate.set()
            slow.result(timeout=60)  # the batch itself is unharmed

    def test_timeout_none_waits_for_everything(self):
        with Engine() as engine:
            futures = [engine.submit_batch(rank_spec(seed), 4) for seed in range(3)]
            assert len(list(as_completed(futures, timeout=None))) == 3

    def test_generous_timeout_yields_all_in_completion_order(self):
        with Engine() as engine:
            futures = [engine.submit_batch(rank_spec(seed), 8) for seed in range(4)]
            seen = list(as_completed(futures, timeout=120))
        assert sorted(id(f) for f in seen) == sorted(id(f) for f in futures)
        assert all(f.done() for f in seen)

    def test_timeout_with_derived_futures(self):
        """then-derived futures ride their parent's completion through a
        timed as_completed."""
        with Engine() as engine:
            future = engine.submit_batch(rank_spec(), 8)
            derived = future.then(len)
            seen = list(as_completed([future, derived], timeout=60))
        assert set(map(id, seen)) == {id(future), id(derived)}
        assert derived.result(timeout=1) == 8
