"""Equality: the randomized–deterministic separation workload.

The paper notes (Section 1.2, "Efficiently saving random bits") that the
broadcast congested clique has a randomized–deterministic separation "by
reductions from two-player communication complexity for equality".  This
module exhibits both sides on the ALL-EQUAL problem (do all ``n``
processors hold the same ``m``-bit string?):

* :class:`DeterministicEqualityProtocol` — reveal everything: ``m`` rounds
  of ``BCAST(1)`` (processor ``i`` broadcasts bit ``r`` of its string in
  round ``r``), exact.
* :class:`FingerprintEqualityProtocol` — randomized fingerprinting:
  ``t`` rounds, each broadcasting the inner product of one's string with a
  shared random probe vector.  All-equal inputs always accept; any unequal
  pair is caught per probe with probability 1/2, so the one-sided error is
  ``2^{-t}`` — an exponential round saving, exactly the separation the
  paper invokes.

Combined with :class:`~repro.prg.derandomize.DerandomizedProtocol` this is
also the canonical Corollary 7.1 payload: a protocol that genuinely needs
its random bits.
"""

from __future__ import annotations

import numpy as np

from ..core.processor import ProcessorContext
from ..core.protocol import Protocol, require_bits
from ..core.randomness import expand_seed
from ..costs import CostModel, Phase, Sym

__all__ = [
    "DeterministicEqualityProtocol",
    "FingerprintEqualityProtocol",
    "fingerprint_error_bound",
]


def fingerprint_error_bound(t_probes: int) -> float:
    """One-sided error of the fingerprint protocol: ``2^{-t}``."""
    if t_probes < 0:
        raise ValueError("probe count must be non-negative")
    return 2.0**-t_probes


class DeterministicEqualityProtocol(Protocol):
    """ALL-EQUAL by full revelation: ``m`` rounds, zero error, no coins.

    Deterministic in the input matrix, so it supports the engine's
    ``vectorized=True`` fast path: a batch of trials is decided by one
    all-rows-equal comparison and its transcript keys (bit ``r`` of every
    string, revealed round by round) by one transpose (the randomized
    fingerprint protocol, by contrast, draws public coins and must be
    simulated).
    """

    def __init__(self, m: int):
        if m <= 0:
            raise ValueError("string length m must be positive")
        self.m = m

    def num_rounds(self, n: int) -> int:
        return self.m

    def cost_model(self) -> CostModel:
        """Exact: ``m`` reveal rounds of ``n`` single-bit broadcasts."""
        n, m = Sym("n"), Sym("m")
        return CostModel(
            [Phase("reveal", rounds=m, turns=n * m, broadcast_bits=n * m)],
            params={"m": self.m},
        )

    def broadcast(self, proc: ProcessorContext, round_index: int) -> int:
        return proc.input_bits[round_index]

    def output(self, proc: ProcessorContext) -> int:
        for r in range(self.m):
            bits = set(proc.transcript.round_messages(r).values())
            if len(bits) > 1:
                return 0
        return 1

    def batch_decisions(
        self, inputs: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """ALL-EQUAL and transcript keys for a ``(trials, n, >=m)`` batch:
        one all-rows-equal comparison over the revealed block, and — since
        round ``r`` broadcasts bit ``r`` of every string — the block
        transposed to round-major order as the key."""
        inputs = np.asarray(inputs)
        if inputs.ndim != 3 or inputs.shape[2] < self.m:
            raise ValueError(
                f"inputs must be a (trials, n, >={self.m}) stack, got "
                f"shape {inputs.shape}"
            )
        revealed = inputs[:, :, : self.m]
        require_bits(revealed, "equality inputs")
        trials, n = revealed.shape[0], revealed.shape[1]
        equal = (revealed == revealed[:, :1, :]).all(axis=(1, 2))
        keys = (
            revealed.transpose(0, 2, 1)
            .reshape(trials, self.m * n)
            .astype(np.uint8)
        )
        return equal.astype(np.uint8), keys


class FingerprintEqualityProtocol(Protocol):
    """ALL-EQUAL by random fingerprints: ``t`` rounds, error ``2^{-t}``.

    Probe vectors are drawn from the shared public-coin source (the model
    makes public coins cheap: one broadcast per bit); the simulator must
    be given a ``public_coins`` source.  Each processor draws the *same*
    probes because the source is shared — the first processor to need a
    probe materialises it into its memory via the deterministic
    reconstruction below.

    To keep all processors' views identical without extra rounds, the
    probe for round ``r`` is expanded deterministically from one public
    seed drawn at setup by processor 0's source (all processors share the
    object, so a single draw is visible to everyone).
    """

    def __init__(self, m: int, t_probes: int):
        if m <= 0:
            raise ValueError("string length m must be positive")
        if t_probes <= 0:
            raise ValueError("need at least one probe")
        self.m = m
        self.t_probes = t_probes
        self._probes: np.ndarray | None = None

    def num_rounds(self, n: int) -> int:
        return self.t_probes

    def setup(self, proc: ProcessorContext) -> None:
        if self._probes is None:
            if proc.public_coins is None:
                raise ValueError(
                    "FingerprintEqualityProtocol needs a public_coins source"
                )
            seed = proc.public_coins.draw_int(32)
            expand = expand_seed(seed)
            self._probes = expand.integers(
                0, 2, size=(self.t_probes, self.m), dtype=np.uint8
            )

    def broadcast(self, proc: ProcessorContext, round_index: int) -> int:
        probe = self._probes[round_index]
        return int(probe @ proc.input) & 1

    def output(self, proc: ProcessorContext) -> int:
        for r in range(self.t_probes):
            bits = set(proc.transcript.round_messages(r).values())
            if len(bits) > 1:
                return 0
        return 1
