"""Concrete distinguisher protocols — the best-effort adversaries.

A lower bound quantifies over *all* protocols; an experiment can only run
concrete ones.  These are the natural attacks:

* :class:`DegreeThresholdDistinguisher` — the degree statistic that solves
  planted clique once ``k`` is substantially above ``√n`` (the paper's
  Section 1.2 remark) and that the lower bound says must fail below
  ``n^{1/4}``.
* :class:`NeighborhoodVoteDistinguisher` — a two-phase refinement: vote on
  high-degree candidates, then count support toward the candidate set.
* :class:`RandomParityProbe` — a linear test against the PRG output: probe
  rounds reveal ``⟨row, s_r⟩`` for shared vectors ``s_r``; under ``U_M``
  the parities collapse whenever the effective vector lands in the secret's
  kernel, an event of probability ``≈ 2^{-k}`` per probe — matching the
  ``2^{-Ω(k)}`` ceiling of Theorem 5.4.
* :func:`random_function_protocol` — a seeded random deterministic protocol,
  used to sweep "generic" protocols in the exact-distance experiments.
"""

from __future__ import annotations

import hashlib

import numpy as np

from ..core.processor import ProcessorContext
from ..core.protocol import Protocol
from ..core.randomness import expand_seed

__all__ = [
    "DegreeThresholdDistinguisher",
    "NeighborhoodVoteDistinguisher",
    "RandomParityProbe",
    "random_function_protocol",
]


class DegreeThresholdDistinguisher(Protocol):
    """One round: processor ``i`` broadcasts ``[weight(row_i) ≥ τ]``;
    everyone accepts iff at least ``vote_threshold`` processors claimed a
    high degree.

    With a planted clique of size ``k``, member rows gain ``≈ (k-1)/2``
    expected weight, so ``τ = n/2 + (k-1)/4`` and ``vote_threshold = k/2``
    are the natural settings (:meth:`for_clique_size`).
    """

    def __init__(self, degree_threshold: float, vote_threshold: float):
        self.degree_threshold = degree_threshold
        self.vote_threshold = vote_threshold

    @classmethod
    def for_clique_size(cls, n: int, k: int) -> "DegreeThresholdDistinguisher":
        return cls(
            degree_threshold=(n - 1) / 2.0 + (k - 1) / 4.0,
            vote_threshold=k / 2.0,
        )

    def num_rounds(self, n: int) -> int:
        return 1

    def broadcast(self, proc: ProcessorContext, round_index: int) -> int:
        return int(int(proc.input.sum()) >= self.degree_threshold)

    def output(self, proc: ProcessorContext) -> int:
        votes = sum(proc.transcript.round_messages(0).values())
        return int(votes >= self.vote_threshold)


class NeighborhoodVoteDistinguisher(Protocol):
    """Two rounds: (1) high-degree claims as above; (2) every processor
    broadcasts whether it has out-edges to at least a ``support_fraction``
    of the claimants.  Accept iff enough support votes arrive.

    This is the broadcast-friendly version of common-neighbourhood
    counting: clique members support each other, random vertices support a
    random-looking claimant set at rate ``≈ 1/2``.
    """

    def __init__(
        self,
        degree_threshold: float,
        support_fraction: float = 0.75,
        vote_threshold: float = 1.0,
    ):
        self.degree_threshold = degree_threshold
        self.support_fraction = support_fraction
        self.vote_threshold = vote_threshold

    @classmethod
    def for_clique_size(cls, n: int, k: int) -> "NeighborhoodVoteDistinguisher":
        return cls(
            degree_threshold=(n - 1) / 2.0 + (k - 1) / 4.0,
            support_fraction=0.75,
            vote_threshold=max(2.0, k / 2.0),
        )

    def num_rounds(self, n: int) -> int:
        return 2

    def broadcast(self, proc: ProcessorContext, round_index: int) -> int:
        if round_index == 0:
            return int(int(proc.input.sum()) >= self.degree_threshold)
        claimants = [
            sender
            for sender, message in proc.transcript.round_messages(0).items()
            if message == 1
        ]
        if not claimants:
            return 0
        support = sum(proc.input_bits[v] for v in claimants if v != proc.proc_id)
        others = sum(1 for v in claimants if v != proc.proc_id)
        if others == 0:
            return 0
        return int(support >= self.support_fraction * others)

    def output(self, proc: ProcessorContext) -> int:
        votes = sum(proc.transcript.round_messages(1).values())
        return int(votes >= self.vote_threshold)


class RandomParityProbe(Protocol):
    """Linear probes against pseudo-random inputs.

    Round ``r`` uses a shared probe vector ``s_r`` (pseudo-derived from
    ``seed``; in the model these would be public coins or hard-wired).
    Every processor broadcasts ``⟨row, s_r⟩ mod 2``; the verdict accepts
    iff some round's parities are constant across all processors — the
    signature of the probe hitting the PRG secret's kernel.
    """

    def __init__(self, n_rounds: int, row_length: int, seed: int = 0):
        if n_rounds < 1:
            raise ValueError("need at least one probe round")
        self._n_rounds = n_rounds
        self.row_length = row_length
        self.probes = self._derive_probes(n_rounds, row_length, seed)

    @staticmethod
    def _derive_probes(n_rounds: int, row_length: int, seed: int) -> np.ndarray:
        rng = expand_seed(seed)
        return rng.integers(0, 2, size=(n_rounds, row_length), dtype=np.uint8)

    def num_rounds(self, n: int) -> int:
        return self._n_rounds

    def broadcast(self, proc: ProcessorContext, round_index: int) -> int:
        probe = self.probes[round_index]
        return int(probe @ proc.input) & 1

    def output(self, proc: ProcessorContext) -> int:
        for r in range(self._n_rounds):
            messages = proc.transcript.round_messages(r).values()
            if messages and (all(m == 0 for m in messages) or
                             all(m == 1 for m in messages)):
                return 1
        return 0


def random_function_protocol(
    n_rounds: int, seed: int, message_size: int = 1
):
    """A seeded random deterministic protocol (for generic-protocol sweeps).

    Every next message is the leading bits of a cryptographic hash of
    ``(seed, proc_id, input_row, transcript)`` — a fixed function chosen
    once, exactly the object the lower bounds quantify over.

    Returns a :class:`~repro.core.protocol.FunctionProtocol`; for exact
    enumeration wrap the same callable in a
    :class:`~repro.distinguish.exact.ProtocolSpec` via
    :meth:`ProtocolSpec.from_scalar`.
    """
    from ..core.protocol import FunctionProtocol

    def fn(proc_id: int, row: np.ndarray, transcript_bits: tuple[int, ...]) -> int:
        digest = hashlib.blake2b(
            seed.to_bytes(8, "little", signed=False)
            + proc_id.to_bytes(4, "little")
            + bytes(np.asarray(row, dtype=np.uint8))
            + bytes(transcript_bits),
            digest_size=8,
        ).digest()
        return int.from_bytes(digest, "little") % (1 << message_size)

    return FunctionProtocol(n_rounds, fn, message_size=message_size)
