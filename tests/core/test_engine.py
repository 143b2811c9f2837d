"""Tests for the unified execution engine (RunSpec / Engine / BatchResult).

The load-bearing claims:

* batch trials are seeded by ``SeedSequence.spawn``, so the same master
  seed produces bit-identical ``BatchResult``s on the serial backend and
  a ``WorkerPool``;
* ``run_protocol`` remains an exact wrapper: for a fixed seed it still
  produces the pre-refactor outputs/transcripts (golden values recorded
  against the seed revision).
"""

import numpy as np
import pytest

from repro.core import (
    BatchResult,
    Engine,
    Protocol,
    PublicCoins,
    RunSpec,
    SerialExecutor,
    resolve_executor,
    run_protocol,
)
from repro.distributions import UniformRows
from repro.exec import WorkerPool
from repro.lowerbounds import TopSubmatrixRankProtocol
from repro.protocols import FingerprintEqualityProtocol


def rank_spec(**overrides):
    defaults = dict(
        protocol=TopSubmatrixRankProtocol(3),
        distribution=UniformRows(4, 4),
        seed=1234,
    )
    defaults.update(overrides)
    return RunSpec(**defaults)


def batches_identical(a: BatchResult, b: BatchResult) -> bool:
    return (
        a.outputs == b.outputs
        and a.transcript_keys == b.transcript_keys
        and a.costs == b.costs
        and a.cost_totals() == b.cost_totals()
    )


class TestRunSpec:
    def test_needs_exactly_one_input_source(self):
        with pytest.raises(ValueError):
            RunSpec(protocol=TopSubmatrixRankProtocol(2))
        with pytest.raises(ValueError):
            RunSpec(
                protocol=TopSubmatrixRankProtocol(2),
                inputs=np.zeros((2, 2), dtype=np.uint8),
                distribution=UniformRows(2, 2),
            )

    def test_inputs_must_be_2d(self):
        with pytest.raises(ValueError):
            RunSpec(
                protocol=TopSubmatrixRankProtocol(2),
                inputs=np.zeros(4, dtype=np.uint8),
            )

    def test_bad_scheduler_rejected_up_front(self):
        from repro.core import SchedulingError

        with pytest.raises(SchedulingError):
            rank_spec(scheduler="bogus")

    def test_fresh_protocol_copies(self):
        spec = rank_spec()
        assert spec.fresh_protocol() is not spec.protocol

    def test_factory_protocol(self):
        from functools import partial

        spec = rank_spec(protocol=partial(TopSubmatrixRankProtocol, 3))
        assert isinstance(spec.fresh_protocol(), TopSubmatrixRankProtocol)


class TestDeterminism:
    def test_serial_equals_parallel(self):
        spec = rank_spec(record_inputs=True)
        serial = Engine(SerialExecutor()).run_batch(spec, 16)
        with WorkerPool(max_workers=2) as pool:
            parallel = Engine(pool).run_batch(spec, 16)
        assert batches_identical(serial, parallel)
        assert all(
            (a.inputs == b.inputs).all() for a, b in zip(serial, parallel)
        )

    def test_same_seed_same_batch(self):
        b1 = Engine().run_batch(rank_spec(), 8)
        b2 = Engine().run_batch(rank_spec(), 8)
        assert batches_identical(b1, b2)

    def test_different_seed_different_batch(self):
        b1 = Engine().run_batch(rank_spec(seed=1), 8)
        b2 = Engine().run_batch(rank_spec(seed=2), 8)
        assert b1.transcript_keys != b2.transcript_keys

    def test_trials_are_independent_of_batch_size(self):
        """Trial t depends only on spawn child t, not on the trial count."""
        small = Engine().run_batch(rank_spec(), 4)
        large = Engine().run_batch(rank_spec(), 8)
        assert small.transcript_keys == large.transcript_keys[:4]

    def test_public_coins_factory_deterministic(self):
        inputs = np.ones((3, 8), dtype=np.uint8)
        inputs[1, 0] = 0
        spec = RunSpec(
            protocol=FingerprintEqualityProtocol(8, 4),
            inputs=inputs,
            seed=5,
            public_coins=PublicCoins,
        )
        serial = Engine("serial").run_batch(spec, 10)
        with WorkerPool(max_workers=2) as pool:
            parallel = Engine(pool).run_batch(spec, 10)
        assert batches_identical(serial, parallel)
        assert (serial.public_bits > 0).all()


class TestBatchResult:
    def test_views_and_stats(self):
        batch = Engine().run_batch(rank_spec(), 6)
        assert len(batch) == 6
        assert batch.decisions().shape == (6,)
        assert set(np.unique(batch.decisions())) <= {0, 1}
        assert (batch.rounds == 3).all()
        assert (batch.broadcast_bits == 12).all()
        assert sum(batch.key_counts().values()) == 6
        assert batch.outputs_of(0) == [t.outputs[0] for t in batch]
        assert "6 trials" in batch.cost_summary()

    def test_record_flags_off_by_default(self):
        batch = Engine().run_batch(rank_spec(), 2)
        assert all(t.inputs is None and t.transcript is None for t in batch)

    def test_record_transcripts(self):
        batch = Engine().run_batch(rank_spec(record_transcripts=True), 2)
        assert all(t.transcript.key() == t.transcript_key for t in batch)

    def test_public_coin_instance_rejected_in_batch(self):
        spec = rank_spec(public_coins=PublicCoins(np.random.default_rng(0)))
        with pytest.raises(ValueError):
            Engine().run_batch(spec, 2)

    def test_cost_arrays_are_cached_and_identity_stable(self):
        """Repeated accessor reads return the *same* array object (no
        re-materialization per call) with unchanged contents."""
        batch = Engine().run_batch(rank_spec(), 5)
        accessors = [
            "rounds",
            "turns",
            "broadcast_bits",
            "total_private_bits",
            "max_private_bits",
            "public_bits",
        ]
        for name in accessors:
            first = getattr(batch, name)
            second = getattr(batch, name)
            assert second is first, name
            assert np.array_equal(first, getattr(batch, name)), name

    def test_cached_cost_arrays_are_read_only(self):
        # One shared object per attribute: a caller mutating it would
        # poison every later read, so the cache hands out frozen arrays.
        batch = Engine().run_batch(rank_spec(), 3)
        rounds = batch.rounds
        with pytest.raises(ValueError):
            rounds[0] = 99
        assert batch.rounds[0] == 3

    def test_cost_cache_excluded_from_equality(self):
        spec = rank_spec()
        warmed = Engine().run_batch(spec, 4)
        _ = warmed.rounds  # populate the cache on one side only
        cold = Engine().run_batch(spec, 4)
        assert warmed == cold


class TestExecutors:
    def test_resolve_names(self):
        assert isinstance(resolve_executor(None), SerialExecutor)
        assert isinstance(resolve_executor("serial"), SerialExecutor)
        for name in ("gpu", "parallel"):
            with pytest.raises(ValueError, match="WorkerPool"):
                resolve_executor(name)

    def test_zero_trials(self):
        batch = Engine().run_batch(rank_spec(), 0)
        assert len(batch) == 0


class NoisyParity(Protocol):
    """Golden-value workload: randomized parity under the turn model."""

    def num_rounds(self, n):
        return 2

    def broadcast(self, proc, r):
        return (int(proc.input.sum()) + proc.coins.draw_bit()) % 2

    def output(self, proc):
        return sum(e.message for e in proc.transcript) % 2


class TestRunProtocolBackCompat:
    """run_protocol must keep producing the exact pre-refactor results.

    Golden values recorded at the seed revision (before the engine
    existed) for fixed seeds.
    """

    def fixed_inputs(self):
        rng = np.random.default_rng(1234)
        return rng.integers(0, 2, size=(6, 6), dtype=np.uint8)

    def test_rank_protocol_golden(self):
        result = run_protocol(
            TopSubmatrixRankProtocol(4),
            self.fixed_inputs(),
            rng=np.random.default_rng(7),
        )
        assert result.outputs == [1, 1, 1, 1, 1, 1]
        assert result.transcript.key() == (
            1, 0, 1, 1, 0, 0, 1, 1, 1, 0, 0, 0,
            1, 1, 0, 0, 0, 0, 1, 1, 0, 1, 0, 0,
        )
        assert result.cost.rounds == 4
        assert result.cost.turns == 24
        assert result.cost.broadcast_bits == 24

    def test_randomized_turn_model_golden(self):
        result = run_protocol(
            NoisyParity(),
            self.fixed_inputs(),
            rng=np.random.default_rng(42),
            scheduler="turn",
        )
        assert result.outputs == [0, 0, 0, 0, 0, 0]
        assert result.transcript.key() == (0, 1, 1, 0, 0, 1, 0, 0, 0, 0, 0, 1)
        assert result.cost.private_bits_per_processor == [2] * 6

    def test_engine_run_matches_run_protocol(self):
        """Engine.run with an explicit rng is the same code path."""
        protocol = TopSubmatrixRankProtocol(4)
        via_wrapper = run_protocol(
            protocol, self.fixed_inputs(), rng=np.random.default_rng(3)
        )
        via_engine = Engine().run(
            RunSpec(protocol=protocol, inputs=self.fixed_inputs()),
            rng=np.random.default_rng(3),
        )
        assert via_wrapper.outputs == via_engine.outputs
        assert via_wrapper.transcript.key() == via_engine.transcript.key()
        assert via_wrapper.cost == via_engine.cost
