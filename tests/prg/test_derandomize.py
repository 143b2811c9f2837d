"""Tests for the Corollary 7.1 derandomization transform."""

import numpy as np
import pytest

from repro.core import BroadcastEvent, Protocol, ProtocolViolation, run_protocol
from repro.prg import DerandomizedProtocol, matrix_prg_rounds


class CoinFlipBroadcast(Protocol):
    """A payload protocol: every processor broadcasts fresh random bits for
    ``rounds`` rounds and outputs the bits it drew."""

    def __init__(self, rounds=2):
        self._rounds = rounds

    def num_rounds(self, n):
        return self._rounds

    def broadcast(self, proc, round_index):
        bit = proc.coins.draw_bit()
        proc.memory.setdefault("drawn", []).append(bit)
        return bit

    def output(self, proc):
        return list(proc.memory.get("drawn", []))


class TestStructure:
    def test_round_count_is_sum(self):
        n, k, payload_rounds = 8, 4, 3
        payload = CoinFlipBroadcast(payload_rounds)
        wrapped = DerandomizedProtocol(payload, k=k, random_bits=payload_rounds)
        expected = matrix_prg_rounds(n, k, k + payload_rounds) + payload_rounds
        assert wrapped.num_rounds(n) == expected

    def test_wide_payload_rejected(self):
        class Wide(Protocol):
            message_size = 2

            def num_rounds(self, n):
                return 1

            def broadcast(self, proc, round_index):
                return 0

        with pytest.raises(ProtocolViolation):
            DerandomizedProtocol(Wide(), k=4, random_bits=4)

    def test_negative_bits_rejected(self):
        with pytest.raises(ValueError):
            DerandomizedProtocol(CoinFlipBroadcast(), k=4, random_bits=-1)


class TestExecution:
    def test_runs_and_outputs_bits(self, rng):
        payload = CoinFlipBroadcast(2)
        wrapped = DerandomizedProtocol(payload, k=4, random_bits=2)
        inputs = np.zeros((8, 1), dtype=np.uint8)
        result = run_protocol(wrapped, inputs, rng=rng)
        for out in result.outputs:
            assert len(out) == 2
            assert set(out) <= {0, 1}

    def test_payload_bits_come_from_prg(self, rng):
        """The payload's coin stream must equal the PRG output."""
        payload = CoinFlipBroadcast(3)
        k = 5
        wrapped = DerandomizedProtocol(payload, k=k, random_bits=3)
        inputs = np.zeros((10, 1), dtype=np.uint8)
        result = run_protocol(wrapped, inputs, rng=rng)
        secret = wrapped.prg.shared_matrix(result.contexts[0]).to_array()
        for proc, drawn in zip(result.contexts, result.outputs):
            seed = proc.memory["prg_seed"].to_array()
            pseudo = np.concatenate([seed, (seed @ secret) % 2])
            assert list(pseudo[: len(drawn)]) == drawn

    def test_true_randomness_is_o_of_k(self, rng):
        """Corollary 7.1's headline: each processor flips only
        k + ⌈k·R/n⌉ true coins regardless of how many the payload uses."""
        n, k, payload_bits = 16, 6, 12
        payload = CoinFlipBroadcast(payload_bits)
        wrapped = DerandomizedProtocol(payload, k=k, random_bits=payload_bits)
        inputs = np.zeros((n, 1), dtype=np.uint8)
        result = run_protocol(wrapped, inputs, rng=rng)
        cap = k + matrix_prg_rounds(n, k, k + payload_bits)
        for proc in result.contexts:
            assert wrapped.true_coins_used(proc) <= cap

    def test_exhausting_pseudo_randomness_raises(self, rng):
        from repro.core import RandomnessExhausted

        payload = CoinFlipBroadcast(5)
        # Provision fewer bits than the payload consumes.
        wrapped = DerandomizedProtocol(payload, k=2, random_bits=2)
        inputs = np.zeros((4, 1), dtype=np.uint8)
        with pytest.raises(RandomnessExhausted):
            run_protocol(wrapped, inputs, rng=rng)

    def test_deterministic_replay(self):
        """Same true-randomness seed => identical compiled execution."""
        inputs = np.zeros((6, 1), dtype=np.uint8)

        def run(seed):
            wrapped = DerandomizedProtocol(
                CoinFlipBroadcast(2), k=3, random_bits=2
            )
            return run_protocol(
                wrapped, inputs, rng=np.random.default_rng(seed)
            ).transcript.key()

        assert run(11) == run(11)
        assert run(11) != run(12) or run(13) != run(11)


class ViewRecorder(Protocol):
    """A payload recording, at every callback, the transcript it was shown."""

    def __init__(self, rounds=3):
        self._rounds = rounds
        self.seen = []

    def num_rounds(self, n):
        return self._rounds

    def finished(self, n, transcript, completed_rounds):
        self.seen.append(("finished", None, transcript, len(transcript)))
        return completed_rounds >= self._rounds

    def broadcast(self, proc, round_index):
        self.seen.append(("broadcast", proc.proc_id, proc.transcript, len(proc.transcript)))
        return proc.coins.draw_bit()

    def output(self, proc):
        self.seen.append(("output", proc.proc_id, proc.transcript, len(proc.transcript)))
        return proc.transcript.key()


class TestPayloadView:
    @pytest.mark.parametrize("scheduler", ["round", "turn"])
    def test_one_shared_view_in_step_with_the_transcript(self, scheduler):
        n, k = 6, 3
        payload = ViewRecorder()
        wrapped = DerandomizedProtocol(payload, k=k, random_bits=3)
        result = run_protocol(
            wrapped, np.zeros((n, 1), dtype=np.uint8), scheduler=scheduler,
            rng=np.random.default_rng(4),
        )
        prg_rounds = wrapped.prg.num_rounds(n)
        skip = prg_rounds * n
        expected = [
            BroadcastEvent(e.turn - skip, e.round_index - prg_rounds, e.sender, e.message, e.width)
            for e in result.transcript
            if e.round_index >= prg_rounds
        ]
        # One payload transcript per execution, shared by every processor.
        views = {id(view) for _, _, view, _ in payload.seen}
        assert len(views) == 1
        view = payload.seen[0][2]
        assert list(view) == expected
        # Every callback saw the view as long as the transcript then was.
        broadcasts = [length for kind, _, _, length in payload.seen if kind == "broadcast"]
        if scheduler == "turn":
            assert broadcasts == list(range(len(expected)))
        else:
            assert broadcasts == [r * n for r in range(3) for _ in range(n)]
        outputs = {out for out in result.outputs}
        assert outputs == {tuple(e.message for e in expected)}
