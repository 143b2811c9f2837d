"""Randomness-efficient compilation of protocols (Corollary 7.1).

Any ``j``-round randomized ``BCAST(1)`` protocol in which each processor
consumes up to ``R`` private random bits is compiled into an
``O(j + k·R/n)``-round protocol in which each processor flips only
``k + ⌈k·R/n⌉ = O(k)`` coins: first run the PRG of Theorem 1.3 with output
length ``m = k + R``, then run the payload protocol with its coin source
transparently replaced by the pseudo-random stream.

For the paper's headline setting — ``R ≤ n``, ``j = k = Ω(log n)`` — the
compiled protocol runs in ``O(k)`` rounds with ``O(k)`` random bits per
processor, and Theorem 5.4 guarantees the transcript (and hence output)
distribution moves by at most ``O(j·n/2^{k/9})`` in statistical distance.
"""

from __future__ import annotations

import contextlib
from dataclasses import replace
from typing import Any

from ..core.errors import ProtocolViolation
from ..core.processor import ProcessorContext
from ..core.protocol import Protocol
from ..core.randomness import ReplayCoins
from ..core.transcript import Transcript
from ..linalg.bitvec import BitVector
from .generator import MatrixPRGProtocol

__all__ = ["DerandomizedProtocol"]


def _payload_start(transcript: Transcript) -> Transcript:
    """The payload's transcript at the turn the PRG rounds end: empty."""
    return Transcript()


class DerandomizedProtocol(Protocol):
    """Wrap ``payload`` so it draws its coins from the PRG.

    Parameters
    ----------
    payload:
        Any ``BCAST(1)`` protocol.  It may call ``proc.coins.draw_*`` for up
        to ``random_bits`` bits total per processor.
    k:
        PRG seed length (the security parameter: fools up to ``k/10``
        rounds).
    random_bits:
        The number of pseudo-random bits to provision per processor.
    """

    def __init__(self, payload: Protocol, k: int, random_bits: int):
        if payload.message_size != 1:
            raise ProtocolViolation(
                "the derandomization transform is stated for BCAST(1) payloads"
            )
        if random_bits < 0:
            raise ValueError("random_bits must be non-negative")
        self.payload = payload
        self.prg = MatrixPRGProtocol(k, k + random_bits)
        self.k = k
        self.random_bits = random_bits
        self.message_size = 1

    def num_rounds(self, n: int) -> int:
        return self.prg.num_rounds(n) + self.payload.num_rounds(n)

    def finished(self, n: int, transcript, completed_rounds: int) -> bool:
        prg_rounds = self.prg.num_rounds(n)
        if completed_rounds < prg_rounds:
            return False
        return self.payload.finished(
            n, self._payload_transcript(transcript, n), completed_rounds - prg_rounds
        )

    def _payload_transcript(self, transcript: Transcript, n: int) -> Transcript:
        """``transcript`` without the PRG rounds, round and turn indices
        renumbered from zero.

        The payload protocol must see the same local view it would have
        seen running stand-alone — protocols such as Appendix B's read
        specific round indices out of the transcript.  The view is opened
        once per execution, memoized on ``transcript`` at the turn the PRG
        rounds end, so every processor shares it and it dies with the
        execution; each call appends the broadcasts it still lacks.  It
        grows append-only like its source, so the payload's own
        ``derived`` values stay valid from round to round.
        """
        prg_rounds = self.prg.num_rounds(n)
        skip_turns = prg_rounds * n
        view = transcript.derived(_payload_start, min(skip_turns, len(transcript)))
        for turn in range(skip_turns + len(view), len(transcript)):
            event = transcript[turn]
            view.append(
                replace(
                    event,
                    turn=event.turn - skip_turns,
                    round_index=event.round_index - prg_rounds,
                )
            )
        return view

    def setup(self, proc: ProcessorContext) -> None:
        self.prg.setup(proc)

    def _enter_payload(self, proc: ProcessorContext) -> None:
        """Swap coins for the pseudo-random stream and set up the payload."""
        if proc.memory.get("derand_entered"):
            return
        proc.memory["derand_entered"] = True
        pseudo_bits = self.prg.output(proc)
        proc.memory["derand_true_coins"] = proc.coins
        proc.coins = ReplayCoins(BitVector.from_array(pseudo_bits))
        self.payload.setup(proc)

    @contextlib.contextmanager
    def _payload_view(self, proc: ProcessorContext):
        """Temporarily present the payload's re-based transcript view."""
        original = proc.transcript
        proc.transcript = self._payload_transcript(original, proc.n)
        try:
            yield
        finally:
            proc.transcript = original

    def broadcast(self, proc: ProcessorContext, round_index: int) -> int:
        prg_rounds = self.prg.num_rounds(proc.n)
        if round_index < prg_rounds:
            return self.prg.broadcast(proc, round_index)
        self._enter_payload(proc)
        with self._payload_view(proc):
            return self.payload.broadcast(proc, round_index - prg_rounds)

    def receive(
        self, proc: ProcessorContext, round_index: int, messages: dict[int, int]
    ) -> None:
        prg_rounds = self.prg.num_rounds(proc.n)
        if round_index >= prg_rounds:
            with self._payload_view(proc):
                self.payload.receive(proc, round_index - prg_rounds, messages)

    def output(self, proc: ProcessorContext) -> Any:
        self._enter_payload(proc)
        with self._payload_view(proc):
            return self.payload.output(proc)

    def true_coins_used(self, proc: ProcessorContext) -> int:
        """Private coin flips actually consumed (seed + matrix share)."""
        source = proc.memory.get("derand_true_coins", proc.coins)
        return source.bits_used
