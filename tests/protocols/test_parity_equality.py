"""Tests for the parity and equality workload protocols."""

import dataclasses

import numpy as np
import pytest

from repro.core import Engine, PublicCoins, RunSpec, run_protocol
from repro.distributions import UniformRows
from repro.protocols import (
    DeterministicEqualityProtocol,
    FingerprintEqualityProtocol,
    GlobalParityProtocol,
    fingerprint_error_bound,
)


class TestGlobalParity:
    def test_computes_parity(self, rng):
        for _ in range(10):
            inputs = rng.integers(0, 2, size=(5, 7), dtype=np.uint8)
            result = run_protocol(GlobalParityProtocol(), inputs, rng=rng)
            expected = int(inputs.sum()) % 2
            assert all(out == expected for out in result.outputs)

    def test_single_round_no_coins(self, rng):
        inputs = rng.integers(0, 2, size=(4, 4), dtype=np.uint8)
        result = run_protocol(GlobalParityProtocol(), inputs, rng=rng)
        assert result.cost.rounds == 1
        assert result.cost.total_private_bits == 0


class TestDeterministicEquality:
    def test_accepts_equal(self, rng):
        row = rng.integers(0, 2, size=6, dtype=np.uint8)
        inputs = np.tile(row, (4, 1))
        result = run_protocol(DeterministicEqualityProtocol(6), inputs, rng=rng)
        assert all(out == 1 for out in result.outputs)

    def test_rejects_unequal(self, rng):
        row = rng.integers(0, 2, size=6, dtype=np.uint8)
        inputs = np.tile(row, (4, 1))
        inputs[2, 3] ^= 1
        result = run_protocol(DeterministicEqualityProtocol(6), inputs, rng=rng)
        assert all(out == 0 for out in result.outputs)

    def test_round_count_is_m(self, rng):
        inputs = np.zeros((3, 9), dtype=np.uint8)
        result = run_protocol(DeterministicEqualityProtocol(9), inputs, rng=rng)
        assert result.cost.rounds == 9

    def test_invalid_m(self):
        with pytest.raises(ValueError):
            DeterministicEqualityProtocol(0)


class TestBatchDecisions:
    """The parity/equality family rides the vectorized engine fast path."""

    def test_parity_batch_matches_scalar_loop(self, rng):
        protocol = GlobalParityProtocol()
        inputs = rng.integers(0, 2, size=(20, 5, 7), dtype=np.uint8)
        batched, _ = protocol.batch_decisions(inputs)
        scalar = np.array(
            [
                run_protocol(protocol, matrix, rng=np.random.default_rng(0)).outputs[0]
                for matrix in inputs
            ],
            dtype=np.uint8,
        )
        assert np.array_equal(batched, scalar)

    def test_equality_batch_matches_scalar_loop(self, rng):
        protocol = DeterministicEqualityProtocol(6)
        row = rng.integers(0, 2, size=6, dtype=np.uint8)
        stacks = [np.tile(row, (4, 1)) for _ in range(6)]
        for index in (1, 3, 5):  # flip one bit in half the trials
            stacks[index] = stacks[index].copy()
            stacks[index][2, index % 6] ^= 1
        inputs = np.stack(stacks)
        batched, _ = protocol.batch_decisions(inputs)
        scalar = np.array(
            [
                run_protocol(protocol, matrix, rng=np.random.default_rng(0)).outputs[0]
                for matrix in inputs
            ],
            dtype=np.uint8,
        )
        assert np.array_equal(batched, scalar)
        assert batched.tolist() == [1, 0, 1, 0, 1, 0]

    @pytest.mark.parametrize(
        "protocol, m",
        [(GlobalParityProtocol(), 7), (DeterministicEqualityProtocol(5), 5)],
    )
    def test_vectorized_engine_path_bit_identical(self, protocol, m):
        spec = RunSpec(
            protocol=protocol,
            distribution=UniformRows(4, m),
            seed=91,
            record_inputs=True,
        )
        scalar = Engine().run_batch(spec, 50)
        fast = Engine().run_batch(
            dataclasses.replace(spec, vectorized=True), 50
        )
        assert scalar.outputs == fast.outputs
        assert scalar.cost_totals() == fast.cost_totals()
        for a, b in zip(scalar, fast):
            assert np.array_equal(a.inputs, b.inputs)

    def test_equality_vectorized_accept_branch(self):
        """Fixed all-equal inputs exercise the accept=1 fast path."""
        inputs = np.tile(np.array([1, 0, 1, 1, 0], dtype=np.uint8), (4, 1))
        spec = RunSpec(
            protocol=DeterministicEqualityProtocol(5),
            inputs=inputs,
            seed=0,
            vectorized=True,
        )
        batch = Engine().run_batch(spec, 8)
        assert all(trial.outputs == [1, 1, 1, 1] for trial in batch)

    def test_batch_decisions_validates_shape(self):
        with pytest.raises(ValueError):
            GlobalParityProtocol().batch_decisions(np.zeros((3, 4), dtype=np.uint8))
        with pytest.raises(ValueError):
            DeterministicEqualityProtocol(6).batch_decisions(
                np.zeros((3, 4, 5), dtype=np.uint8)
            )

    def test_equality_batch_rejects_non_binary(self):
        """The scalar path raises on non-bit values (1-bit messages); the
        fast path must refuse them too rather than silently masking."""
        inputs = np.full((2, 3, 4), 2, dtype=np.uint8)
        with pytest.raises(ValueError, match="0/1"):
            DeterministicEqualityProtocol(4).batch_decisions(inputs)


class TestFingerprintEquality:
    def _run(self, inputs, t_probes, seed=0):
        protocol = FingerprintEqualityProtocol(inputs.shape[1], t_probes)
        public = PublicCoins(np.random.default_rng(seed))
        return run_protocol(
            protocol, inputs,
            rng=np.random.default_rng(seed + 1),
            public_coins=public,
        )

    def test_always_accepts_equal(self, rng):
        row = rng.integers(0, 2, size=16, dtype=np.uint8)
        inputs = np.tile(row, (5, 1))
        for seed in range(5):
            result = self._run(inputs, t_probes=4, seed=seed)
            assert all(out == 1 for out in result.outputs)

    def test_catches_unequal_whp(self, rng):
        row = rng.integers(0, 2, size=16, dtype=np.uint8)
        inputs = np.tile(row, (5, 1))
        inputs[3] = rng.integers(0, 2, size=16, dtype=np.uint8)
        caught = sum(
            1 - self._run(inputs, t_probes=8, seed=s).outputs[0]
            for s in range(10)
        )
        assert caught >= 9  # error bound 2^-8 per run

    def test_exponential_round_saving(self, rng):
        """The separation: 8 rounds of fingerprints vs m = 256 rounds
        deterministic, with error only 2^-8."""
        m = 256
        row = rng.integers(0, 2, size=m, dtype=np.uint8)
        inputs = np.tile(row, (4, 1))
        result = self._run(inputs, t_probes=8)
        assert result.cost.rounds == 8
        assert DeterministicEqualityProtocol(m).num_rounds(4) == m
        assert fingerprint_error_bound(8) == pytest.approx(2**-8)

    def test_requires_public_coins(self, rng):
        protocol = FingerprintEqualityProtocol(4, 2)
        with pytest.raises(ValueError):
            run_protocol(protocol, np.zeros((3, 4), dtype=np.uint8), rng=rng)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            FingerprintEqualityProtocol(0, 2)
        with pytest.raises(ValueError):
            FingerprintEqualityProtocol(4, 0)
        with pytest.raises(ValueError):
            fingerprint_error_bound(-1)
