"""The engine's vectorized fast path and shared-memory fixed-input path.

The contract under test: ``vectorized=True`` produces outputs, recorded
inputs, *transcript keys* and costs bit-identical to the scalar engine
path for protocols that support batching, falls back with a
``BatchFallbackWarning`` (counted on ``engine_batch_fallbacks_total``)
otherwise, and the shared-memory input publication changes nothing but
the transport.
"""

import warnings

import numpy as np
import pytest

from repro.core.engine import FALLBACKS_METRIC, Engine, RunSpec
from repro.core.errors import BatchFallbackWarning
from repro.distinguish.sampling import (
    estimate_protocol_advantage,
    run_distinguisher,
)
from repro.distributions.prg_dists import PRGOutput
from repro.distributions.uniform import UniformRows
from repro.exec import WorkerPool
from repro.lowerbounds.hierarchy import TopSubmatrixRankProtocol, accuracy_on_uniform
from repro.prg.attacks import SupportMembershipAttack
from repro.protocols.parity import GlobalParityProtocol


class UnbatchedParityProtocol(GlobalParityProtocol):
    """Parity without batch support (GlobalParityProtocol gained it)."""

    supports_batch = False
    supports_batch_keys = False


class KeylessAttack(SupportMembershipAttack):
    """Batched decisions but no batched key synthesis: the fast path must
    decline rather than ship empty transcript keys."""

    supports_batch_keys = False


def scalar_and_vectorized(protocol, dist, trials, seed):
    scalar = Engine().run_batch(
        RunSpec(protocol=protocol, distribution=dist, seed=seed, record_inputs=True),
        trials,
    )
    fast = Engine().run_batch(
        RunSpec(
            protocol=protocol,
            distribution=dist,
            seed=seed,
            record_inputs=True,
            vectorized=True,
        ),
        trials,
    )
    return scalar, fast


class TestVectorizedFastPath:
    @pytest.mark.parametrize(
        "protocol,dist",
        [
            (SupportMembershipAttack(k=5), UniformRows(12, 9)),
            (SupportMembershipAttack(k=5), PRGOutput(12, 9, 5)),
            (TopSubmatrixRankProtocol(k=6), UniformRows(10, 10)),
            (TopSubmatrixRankProtocol(k=6, rounds_budget=3), UniformRows(10, 10)),
            (TopSubmatrixRankProtocol(k=6, rounds_budget=0), UniformRows(10, 10)),
        ],
    )
    def test_bit_identical_to_scalar_path(self, protocol, dist):
        scalar, fast = scalar_and_vectorized(protocol, dist, trials=30, seed=7)
        assert len(scalar) == len(fast) == 30
        for s, f in zip(scalar, fast):
            assert s.outputs == f.outputs
            assert np.array_equal(s.inputs, f.inputs)
            assert s.transcript_key == f.transcript_key
            assert s.cost == f.cost

    def test_fixed_inputs_batch(self, rng):
        inputs = rng.integers(0, 2, size=(12, 9), dtype=np.uint8)
        protocol = SupportMembershipAttack(k=5)
        scalar = Engine().run_batch(RunSpec(protocol=protocol, inputs=inputs, seed=1), 6)
        fast = Engine().run_batch(
            RunSpec(protocol=protocol, inputs=inputs, seed=1, vectorized=True), 6
        )
        assert scalar.outputs == fast.outputs
        assert scalar.transcript_keys == fast.transcript_keys

    def test_empty_batch(self):
        fast = Engine().run_batch(
            RunSpec(
                protocol=SupportMembershipAttack(k=3),
                distribution=UniformRows(8, 5),
                seed=0,
                vectorized=True,
            ),
            0,
        )
        assert len(fast) == 0

    def test_unsupported_protocol_falls_back_with_transcripts(self):
        spec = RunSpec(
            protocol=UnbatchedParityProtocol(),
            distribution=UniformRows(6, 4),
            seed=11,
            vectorized=True,
        )
        scalar = RunSpec(
            protocol=UnbatchedParityProtocol(), distribution=UniformRows(6, 4), seed=11
        )
        with pytest.warns(BatchFallbackWarning):
            fast = Engine().run_batch(spec, 8)
        want = Engine().run_batch(scalar, 8)
        assert fast.outputs == want.outputs
        # full scalar execution: real transcript keys, not fast-path stubs
        assert fast.transcript_keys == want.transcript_keys
        assert any(len(key) for key in fast.transcript_keys)

    def test_transcript_recording_falls_back(self):
        spec = RunSpec(
            protocol=SupportMembershipAttack(k=4),
            distribution=UniformRows(10, 7),
            seed=3,
            record_transcripts=True,
            vectorized=True,
        )
        with pytest.warns(BatchFallbackWarning):
            batch = Engine().run_batch(spec, 5)
        assert all(trial.transcript is not None for trial in batch)

    def test_batch_decisions_validates_width(self):
        with pytest.raises(ValueError):
            SupportMembershipAttack(k=5).batch_decisions(np.zeros((2, 8, 4)))
        with pytest.raises(ValueError):
            TopSubmatrixRankProtocol(k=5).batch_decisions(np.zeros((2, 3, 9)))


class TestBatchFallbackSignal:
    """The silent-downgrade footgun is gone: a vectorized spec that takes
    the scalar path warns exactly once per batch and bumps the counter."""

    def fallback_spec(self, protocol):
        return RunSpec(
            protocol=protocol,
            distribution=UniformRows(8, 6),
            seed=5,
            vectorized=True,
        )

    def test_warning_and_counter_on_unsupported_protocol(self):
        engine = Engine()
        with pytest.warns(BatchFallbackWarning, match="supports_batch"):
            engine.run_batch(self.fallback_spec(UnbatchedParityProtocol()), 4)
        assert engine.registry.total(FALLBACKS_METRIC) == 1
        with pytest.warns(BatchFallbackWarning):
            engine.run_batch(self.fallback_spec(UnbatchedParityProtocol()), 4)
        assert engine.registry.total(FALLBACKS_METRIC) == 2

    def test_warning_on_batch_without_keys(self):
        """supports_batch alone is not enough: keys cannot be synthesized,
        and the scalar fallback still produces the real ones."""
        engine = Engine()
        with pytest.warns(BatchFallbackWarning, match="supports_batch_keys"):
            fast = engine.run_batch(self.fallback_spec(KeylessAttack(k=3)), 6)
        assert engine.registry.total(FALLBACKS_METRIC) == 1
        want = Engine().run_batch(
            RunSpec(
                protocol=SupportMembershipAttack(k=3),
                distribution=UniformRows(8, 6),
                seed=5,
            ),
            6,
        )
        assert fast.outputs == want.outputs
        assert fast.transcript_keys == want.transcript_keys

    def test_warning_on_unhonourable_spec(self):
        engine = Engine()
        spec = RunSpec(
            protocol=SupportMembershipAttack(k=3),
            distribution=UniformRows(8, 6),
            seed=5,
            rounds=2,
            vectorized=True,
        )
        with pytest.warns(BatchFallbackWarning, match="full-fidelity"):
            engine.run_batch(spec, 4)
        assert engine.registry.total(FALLBACKS_METRIC) == 1

    def test_no_warning_when_fast_path_taken(self):
        engine = Engine()
        spec = RunSpec(
            protocol=SupportMembershipAttack(k=3),
            distribution=UniformRows(8, 6),
            seed=5,
            vectorized=True,
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error", BatchFallbackWarning)
            engine.run_batch(spec, 6)
            engine.run_batch(spec, 0)  # empty batches are honoured too
        assert engine.registry.total(FALLBACKS_METRIC) == 0

    def test_no_warning_without_vectorized(self):
        engine = Engine()
        spec = RunSpec(
            protocol=UnbatchedParityProtocol(),
            distribution=UniformRows(8, 6),
            seed=5,
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error", BatchFallbackWarning)
            engine.run_batch(spec, 4)
        assert engine.registry.total(FALLBACKS_METRIC) == 0


class TestVectorizedEstimators:
    def test_run_distinguisher_identical(self):
        args = (SupportMembershipAttack(4), PRGOutput(10, 8, 4), 40)
        scalar = run_distinguisher(*args, np.random.default_rng(5))
        fast = run_distinguisher(*args, np.random.default_rng(5), vectorized=True)
        assert np.array_equal(scalar, fast)

    def test_estimate_protocol_advantage_identical(self):
        args = (
            SupportMembershipAttack(4),
            PRGOutput(10, 8, 4),
            UniformRows(10, 8),
            30,
        )
        scalar = estimate_protocol_advantage(*args, np.random.default_rng(9))
        fast = estimate_protocol_advantage(
            *args, np.random.default_rng(9), vectorized=True
        )
        assert scalar.advantage == fast.advantage
        assert scalar.accept_rate_d1 == fast.accept_rate_d1
        assert scalar.accept_rate_d2 == fast.accept_rate_d2

    def test_accuracy_on_uniform_identical(self):
        for budget in [None, 3, 0]:
            protocol = TopSubmatrixRankProtocol(5, rounds_budget=budget)
            scalar = accuracy_on_uniform(
                protocol, 8, 5, 40, np.random.default_rng(3)
            )
            fast = accuracy_on_uniform(
                protocol, 8, 5, 40, np.random.default_rng(3), vectorized=True
            )
            assert scalar == fast


class TestSharedMemoryInputs:
    def test_parallel_matches_serial_with_forced_sharing(self, rng):
        inputs = rng.integers(0, 2, size=(12, 9), dtype=np.uint8)
        spec = RunSpec(
            protocol=SupportMembershipAttack(k=5),
            inputs=inputs,
            seed=21,
            record_inputs=True,
        )
        serial = Engine().run_batch(spec, 12)
        with WorkerPool(max_workers=2, share_inputs_min_bytes=1) as pool:
            parallel = Engine(pool).run_batch(spec, 12)
        assert serial.outputs == parallel.outputs
        assert serial.transcript_keys == parallel.transcript_keys
        for trial in parallel:
            assert np.array_equal(trial.inputs, inputs)

    def test_below_threshold_skips_sharing(self, rng):
        inputs = rng.integers(0, 2, size=(6, 5), dtype=np.uint8)
        spec = RunSpec(protocol=SupportMembershipAttack(k=3), inputs=inputs, seed=2)
        serial = Engine().run_batch(spec, 8)
        with WorkerPool(max_workers=2) as pool:
            engine = Engine(pool)
            assert not engine._should_share_inputs(spec, 8)
            parallel = engine.run_batch(spec, 8)
        assert serial.outputs == parallel.outputs

    def test_distribution_specs_never_share(self):
        spec = RunSpec(
            protocol=SupportMembershipAttack(k=3),
            distribution=UniformRows(8, 5),
            seed=2,
        )
        with WorkerPool(max_workers=2, share_inputs_min_bytes=1) as pool:
            assert not Engine(pool)._should_share_inputs(spec, 8)
