"""Tests for the BCAST simulator: schedulers, invariants, accounting."""

import numpy as np
import pytest

from repro.cliques.subsample import PlantedCliqueSubsampleProtocol
from repro.core import (
    ComposedProtocol,
    Engine,
    FunctionProtocol,
    MessageSizeError,
    Protocol,
    PublicCoins,
    RandomnessExhausted,
    RoundScheduler,
    RunSpec,
    Scheduler,
    SchedulingError,
    TurnScheduler,
    run_protocol,
)
from repro.distributions import PlantedClique, UniformRows
from repro.lowerbounds import TopSubmatrixRankProtocol, top_submatrix_full_rank


def first_bit_protocol(n_rounds=1, message_size=1):
    """Everyone broadcasts the first bit of their input every round."""
    return FunctionProtocol(
        n_rounds,
        lambda proc_id, row, p: int(row[0]),
        message_size=message_size,
    )


class EchoPreviousProtocol(Protocol):
    """Round 0: broadcast own first bit.  Round 1: broadcast what processor
    0 said in round 0 (tests transcript visibility)."""

    def num_rounds(self, n):
        return 2

    def broadcast(self, proc, round_index):
        if round_index == 0:
            return int(proc.input[0])
        return proc.round_messages(0)[0]


class PeekCurrentRoundProtocol(Protocol):
    """Broadcasts 1 iff it can see an earlier message of the *current*
    round — distinguishes turn from round scheduling."""

    def num_rounds(self, n):
        return 1

    def broadcast(self, proc, round_index):
        return int(len(proc.transcript.last_round_messages()) > 0)


class ReversedScheduler(Scheduler):
    """Highest processor id speaks first; turn-style visibility on request."""

    def __init__(self, sees_current_round):
        self.sees_current_round = sees_current_round

    def speaking_order(self, n, round_index):
        return reversed(range(n))


class OverflowInRoundOne(Protocol):
    """Round 0 is clean; in round 1 processors 1 and 3 broadcast ``bad``."""

    def __init__(self, bad):
        self.bad = bad

    def num_rounds(self, n):
        return 2

    def broadcast(self, proc, round_index):
        if round_index == 1 and proc.proc_id in (1, 3):
            return self.bad
        return 0


class RecordsReceive(Protocol):
    """Broadcasts ``(proc_id + round) % 2`` and logs every receive call."""

    def num_rounds(self, n):
        return 3

    def broadcast(self, proc, round_index):
        return (proc.proc_id + round_index) % 2

    def receive(self, proc, round_index, messages):
        proc.memory.setdefault("received", []).append((round_index, dict(messages)))


class TestBasics:
    def test_outputs_and_transcript_shape(self, rng):
        inputs = np.array([[1, 0], [0, 1], [1, 1]], dtype=np.uint8)
        result = run_protocol(first_bit_protocol(), inputs, rng=rng)
        assert result.transcript.n_turns == 3
        assert [e.message for e in result.transcript] == [1, 0, 1]
        assert result.cost.rounds == 1
        assert result.cost.turns == 3

    def test_inputs_must_be_2d(self, rng):
        with pytest.raises(ValueError):
            run_protocol(first_bit_protocol(), np.zeros(3), rng=rng)

    def test_unknown_scheduler_raises(self, rng):
        with pytest.raises(SchedulingError):
            run_protocol(
                first_bit_protocol(),
                np.zeros((2, 2), dtype=np.uint8),
                scheduler="bogus",
                rng=rng,
            )

    def test_rounds_override(self, rng):
        inputs = np.zeros((2, 1), dtype=np.uint8)
        result = run_protocol(first_bit_protocol(5), inputs, rounds=2, rng=rng)
        assert result.cost.rounds == 2

    def test_output_of(self, rng):
        protocol = FunctionProtocol(
            1,
            lambda i, row, p: int(row[0]),
            output_fn=lambda i, row, p: i * 10,
        )
        inputs = np.zeros((3, 1), dtype=np.uint8)
        result = run_protocol(protocol, inputs, rng=rng)
        assert result.output_of(2) == 20


class TestBroadcastConstraint:
    def test_oversized_message_rejected(self, rng):
        protocol = FunctionProtocol(1, lambda i, row, p: 2)  # needs 2 bits
        with pytest.raises(MessageSizeError):
            run_protocol(protocol, np.zeros((2, 1), dtype=np.uint8), rng=rng)

    def test_negative_message_rejected(self, rng):
        protocol = FunctionProtocol(1, lambda i, row, p: -1)
        with pytest.raises(MessageSizeError):
            run_protocol(protocol, np.zeros((2, 1), dtype=np.uint8), rng=rng)

    def test_wide_messages_allowed_in_bcast_b(self, rng):
        protocol = FunctionProtocol(1, lambda i, row, p: 5, message_size=3)
        result = run_protocol(protocol, np.zeros((2, 1), dtype=np.uint8), rng=rng)
        assert result.transcript.total_bits == 6
        assert result.cost.bcast1_equivalent_rounds() == 3

    @pytest.mark.parametrize("sees_current_round", [False, True])
    @pytest.mark.parametrize("bad", [2, -1])
    def test_first_overflow_in_speaking_order_is_reported(
        self, rng, sees_current_round, bad
    ):
        # Processors 1 and 3 overflow in round 1; speaking order is
        # reversed, so processor 3 is the first to break the width.
        with pytest.raises(
            MessageSizeError,
            match=rf"processor 3 broadcast payload {bad} in round 1,",
        ):
            run_protocol(
                OverflowInRoundOne(bad),
                np.zeros((5, 1), dtype=np.uint8),
                scheduler=ReversedScheduler(sees_current_round),
                rng=rng,
            )


class TestReceive:
    @pytest.mark.parametrize("scheduler", ["round", "turn"])
    def test_override_gets_every_round_map(self, rng, scheduler):
        n = 4
        result = run_protocol(
            RecordsReceive(),
            np.zeros((n, 1), dtype=np.uint8),
            scheduler=scheduler,
            rng=rng,
        )
        expected = [(r, {p: (p + r) % 2 for p in range(n)}) for r in range(3)]
        for proc in result.contexts:
            assert proc.memory["received"] == expected
        assert sum(len(proc.memory["received"]) for proc in result.contexts) == n * 3

    def test_composed_inner_override_gets_local_rounds(self, rng):
        n = 3
        first = FunctionProtocol(2, lambda i, row, p: 1)
        result = run_protocol(
            ComposedProtocol(first, RecordsReceive()),
            np.zeros((n, 1), dtype=np.uint8),
            rng=rng,
        )
        # The inner phase sees its own round numbers and each global
        # round's map, once per processor per round.
        expected = [(r, {p: (p + r) % 2 for p in range(n)}) for r in range(3)]
        for proc in result.contexts:
            assert proc.memory["received"] == expected
        for r in range(3):
            assert result.transcript.round_messages(2 + r) == expected[r][1]


class TestScheduling:
    def test_round_model_hides_current_round(self, rng):
        inputs = np.zeros((4, 1), dtype=np.uint8)
        result = run_protocol(
            PeekCurrentRoundProtocol(), inputs, scheduler="round", rng=rng
        )
        assert all(e.message == 0 for e in result.transcript)

    def test_turn_model_reveals_current_round(self, rng):
        inputs = np.zeros((4, 1), dtype=np.uint8)
        result = run_protocol(
            PeekCurrentRoundProtocol(), inputs, scheduler="turn", rng=rng
        )
        messages = [e.message for e in result.transcript]
        assert messages == [0, 1, 1, 1]  # all but the first speaker peek

    def test_scheduler_instances_accepted(self, rng):
        inputs = np.zeros((2, 1), dtype=np.uint8)
        for scheduler in (RoundScheduler(), TurnScheduler()):
            result = run_protocol(
                first_bit_protocol(), inputs, scheduler=scheduler, rng=rng
            )
            assert result.transcript.n_turns == 2

    def test_cross_round_visibility(self, rng):
        inputs = np.array([[1], [0], [0]], dtype=np.uint8)
        result = run_protocol(EchoPreviousProtocol(), inputs, rng=rng)
        round1 = result.transcript.messages_in_round(1)
        assert all(e.message == 1 for e in round1)


class TestSpeakingOrder:
    """Protocols that decode whole rounds key each payload by its sender,
    so a reversed speaking order gives the outputs of the index order."""

    @staticmethod
    def run(scheduler, trials, **spec):
        return Engine().run_batch(RunSpec(scheduler=scheduler, seed=17, **spec), trials)

    @pytest.mark.parametrize("sees_current_round", [False, True])
    @pytest.mark.parametrize("budget", [0, 3, 6])
    def test_rank_protocol(self, sees_current_round, budget):
        spec = dict(
            protocol=TopSubmatrixRankProtocol(6, rounds_budget=budget),
            distribution=UniformRows(9, 9),
            record_inputs=True,
        )
        expected = self.run(RoundScheduler(), 40, **spec)
        got = self.run(ReversedScheduler(sees_current_round), 40, **spec)
        assert got.outputs == expected.outputs
        if budget == 6:
            decisions = [trial.outputs[0] for trial in got]
            assert decisions == [
                top_submatrix_full_rank(trial.inputs, 6) for trial in got
            ]
            assert set(decisions) == {0, 1}

    @pytest.mark.parametrize("sees_current_round", [False, True])
    def test_subsample_protocol(self, sees_current_round):
        spec = dict(
            protocol=PlantedCliqueSubsampleProtocol(12, activation_factor=0.5),
            distribution=PlantedClique(16, 12),
        )
        expected = self.run(RoundScheduler(), 12, **spec)
        got = self.run(ReversedScheduler(sees_current_round), 12, **spec)
        assert got.outputs == expected.outputs
        assert any(outputs[0] for outputs in expected.outputs)


class TestDynamicTermination:
    def test_finished_stops_early(self, rng):
        class StopAfterOne(Protocol):
            def num_rounds(self, n):
                return 10

            def finished(self, n, transcript, completed_rounds):
                return completed_rounds >= 1

            def broadcast(self, proc, round_index):
                return 0

        result = run_protocol(
            StopAfterOne(), np.zeros((2, 1), dtype=np.uint8), rng=rng
        )
        assert result.cost.rounds == 1

    def test_rounds_override_ignores_finished(self, rng):
        class StopImmediately(Protocol):
            def num_rounds(self, n):
                return 10

            def finished(self, n, transcript, completed_rounds):
                return True

            def broadcast(self, proc, round_index):
                return 0

        result = run_protocol(
            StopImmediately(), np.zeros((2, 1), dtype=np.uint8),
            rounds=3, rng=rng,
        )
        assert result.cost.rounds == 3


class TestRandomnessIntegration:
    def test_private_budget_enforced(self, rng):
        class Greedy(Protocol):
            def num_rounds(self, n):
                return 1

            def broadcast(self, proc, round_index):
                proc.coins.draw_bits(100)
                return 0

        with pytest.raises(RandomnessExhausted):
            run_protocol(
                Greedy(),
                np.zeros((2, 1), dtype=np.uint8),
                private_bit_budget=50,
                rng=rng,
            )

    def test_private_bits_reported(self, rng):
        class FlipsThree(Protocol):
            def num_rounds(self, n):
                return 1

            def broadcast(self, proc, round_index):
                proc.coins.draw_bits(3)
                return 0

        result = run_protocol(
            FlipsThree(), np.zeros((4, 1), dtype=np.uint8), rng=rng
        )
        assert result.cost.private_bits_per_processor == [3, 3, 3, 3]
        assert result.cost.total_private_bits == 12
        assert result.cost.max_private_bits == 3

    def test_public_coins_shared_and_counted(self, rng):
        class UsesPublic(Protocol):
            def num_rounds(self, n):
                return 1

            def broadcast(self, proc, round_index):
                if proc.proc_id == 0:
                    proc.memory["p"] = proc.public_coins.draw_bit()
                return 0

        public = PublicCoins(np.random.default_rng(0))
        result = run_protocol(
            UsesPublic(),
            np.zeros((3, 1), dtype=np.uint8),
            public_coins=public,
            rng=rng,
        )
        assert result.cost.public_bits == 1

    def test_deterministic_given_seed(self):
        inputs = np.zeros((4, 2), dtype=np.uint8)

        class RandomBits(Protocol):
            def num_rounds(self, n):
                return 2

            def broadcast(self, proc, round_index):
                return proc.coins.draw_bit()

        key_a = run_protocol(
            RandomBits(), inputs, rng=np.random.default_rng(9)
        ).transcript.key()
        key_b = run_protocol(
            RandomBits(), inputs, rng=np.random.default_rng(9)
        ).transcript.key()
        assert key_a == key_b


class TestCostReport:
    def test_summary_mentions_key_fields(self, rng):
        result = run_protocol(
            first_bit_protocol(), np.zeros((3, 1), dtype=np.uint8), rng=rng
        )
        summary = result.cost.summary()
        assert "3 processors" in summary
        assert "BCAST(1)" in summary
