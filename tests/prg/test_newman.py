"""Tests for the Newman-style simulation (Theorem A.1)."""

import numpy as np
import pytest

from repro.core import Protocol, run_protocol
from repro.prg import (
    NewmanCompiled,
    newman_family_size,
    newman_public_bits,
    simulation_error,
)


class RandomizedEquality(Protocol):
    """A toy randomized workload: each processor broadcasts the parity of
    its input with a fresh random mask bit, for two rounds."""

    def num_rounds(self, n):
        return 2

    def broadcast(self, proc, round_index):
        mask = proc.coins.draw_bit()
        return (int(proc.input.sum()) + mask) % 2

    def output(self, proc):
        return sum(e.message for e in proc.transcript) % 2


class TestParameters:
    def test_public_bits_log_family(self):
        assert newman_public_bits(1024) == 10
        assert newman_public_bits(1000) == 10
        assert newman_public_bits(1) == 1

    def test_family_size_grows_with_precision(self):
        loose = newman_family_size(4, 8, 1, epsilon=0.5)
        tight = newman_family_size(4, 8, 1, epsilon=0.1)
        assert tight >= loose

    def test_invalid_epsilon(self):
        with pytest.raises(ValueError):
            newman_family_size(4, 8, 1, epsilon=0.0)

    def test_invalid_family(self):
        with pytest.raises(ValueError):
            newman_public_bits(0)
        with pytest.raises(ValueError):
            NewmanCompiled(RandomizedEquality(), 0)


class TestCompiled:
    def test_run_batch_backend_identity_with_stateful_protocol(self):
        """Regression: run_batch must give every trial a fresh protocol
        copy.  FingerprintEqualityProtocol caches its probes on ``self``;
        sharing one instance across serial trials made them reuse trial
        1's probes while pool workers redrew them, breaking the
        serial/parallel bit-identity guarantee."""
        from repro.exec import WorkerPool
        from repro.protocols import FingerprintEqualityProtocol

        compiled = NewmanCompiled(
            FingerprintEqualityProtocol(16, 2), t_family=8, master_seed=3
        )
        inputs = np.ones((4, 16), dtype=np.uint8)
        serial = compiled.run_batch(inputs, 8, seed=3, executor="serial")
        with WorkerPool(max_workers=2) as pool:
            parallel = compiled.run_batch(inputs, 8, seed=3, executor=pool)
        assert [r.transcript.key() for r in serial] == [
            r.transcript.key() for r in parallel
        ]
        # Every trial redraws its own probes: full public-coin cost each.
        assert [r.cost.public_bits for r in serial] == [35] * 8
        assert [r.cost.public_bits for r in parallel] == [35] * 8

    def test_public_bit_accounting(self, rng):
        compiled = NewmanCompiled(RandomizedEquality(), t_family=64)
        inputs = np.ones((4, 3), dtype=np.uint8)
        result = compiled.run(inputs, rng)
        assert result.cost.public_bits == 6

    def test_transcripts_come_from_family(self, rng):
        """With a tiny family the compiled protocol only ever produces the
        family's transcripts."""
        protocol = RandomizedEquality()
        compiled = NewmanCompiled(protocol, t_family=2, master_seed=1)
        inputs = np.ones((3, 2), dtype=np.uint8)
        family_keys = set()
        for seed in compiled.family_seeds:
            res = run_protocol(
                protocol, inputs, rng=np.random.default_rng(seed)
            )
            family_keys.add(res.transcript.key())
        for _ in range(20):
            assert compiled.run(inputs, rng).transcript.key() in family_keys

    def test_simulation_error_decreases_with_family_size(self):
        """Larger families simulate better (the Chernoff argument).

        Theorem A.1 needs T exponential in the transcript length, so we
        use a 2-processor instance (4-outcome transcript space) where
        T = 256 is comfortably in the theorem's regime.
        """
        protocol = RandomizedEquality()
        inputs = np.ones((2, 3), dtype=np.uint8)
        errors = []
        for t in (2, 256):
            compiled = NewmanCompiled(protocol, t_family=t, master_seed=3)
            err = simulation_error(
                protocol,
                compiled,
                inputs,
                n_samples=1500,
                rng=np.random.default_rng(17),
            )
            errors.append(err)
        assert errors[1] < errors[0]

    def test_large_family_small_error(self):
        protocol = RandomizedEquality()
        inputs = np.ones((2, 3), dtype=np.uint8)  # 4-bit transcript space
        compiled = NewmanCompiled(protocol, t_family=1024, master_seed=5)
        err = simulation_error(
            protocol, compiled, inputs, n_samples=2000,
            rng=np.random.default_rng(23),
        )
        # Family deviation ~ sqrt(outcomes/T)/2 ≈ 0.06; plug-in noise over
        # 16 outcomes with 2000 samples ≈ 0.04.
        assert err < 0.15

    def test_vectorized_bit_identical(self):
        """The original-protocol batch rides the key-synthesis fast path
        for supports_batch_keys protocols — same error, no simulation."""
        from repro.protocols import GlobalParityProtocol

        protocol = GlobalParityProtocol()
        inputs = np.ones((3, 4), dtype=np.uint8)
        compiled = NewmanCompiled(protocol, t_family=8, master_seed=2)
        scalar = simulation_error(
            protocol, compiled, inputs, n_samples=200,
            rng=np.random.default_rng(31),
        )
        fast = simulation_error(
            protocol, compiled, inputs, n_samples=200,
            rng=np.random.default_rng(31), vectorized=True,
        )
        assert scalar == fast
        # A deterministic payload is simulated exactly.
        assert fast == 0.0

    def test_vectorized_custom_statistic_falls_back(self):
        """A custom statistic needs recorded transcripts, so the fast
        path declines — with a signal, and identical values."""
        from repro.core import BatchFallbackWarning
        from repro.protocols import GlobalParityProtocol

        protocol = GlobalParityProtocol()
        inputs = np.ones((3, 4), dtype=np.uint8)
        compiled = NewmanCompiled(protocol, t_family=8, master_seed=2)
        statistic = lambda trial: trial.transcript.key()  # noqa: E731
        scalar = simulation_error(
            protocol, compiled, inputs, n_samples=50,
            rng=np.random.default_rng(7), statistic=statistic,
        )
        with pytest.warns(BatchFallbackWarning):
            fast = simulation_error(
                protocol, compiled, inputs, n_samples=50,
                rng=np.random.default_rng(7), statistic=statistic,
                vectorized=True,
            )
        assert scalar == fast
