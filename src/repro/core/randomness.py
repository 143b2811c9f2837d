"""Randomness sources with exact bit accounting.

The randomness-saving results of the paper (Corollary 7.1 and the Newman
analogue of Theorem A.1) are claims about *how many random bits* a protocol
consumes.  To verify them the simulator meters every coin flip: each
processor owns a :class:`PrivateCoins` source and the system may expose a
:class:`PublicCoins` source; both count the bits handed out and can enforce
a hard budget.
"""

from __future__ import annotations

import numpy as np

from ..linalg.bitvec import BitVector
from .errors import RandomnessExhausted

__all__ = [
    "CoinSource",
    "PrivateCoins",
    "PublicCoins",
    "ZeroCoins",
    "ReplayCoins",
    "expand_seed",
    "fresh_generator",
]


def expand_seed(seed: "int | np.random.SeedSequence") -> np.random.Generator:
    """Deterministically expand a drawn seed into a ``Generator``.

    The sanctioned way (lint rule ``DET01``) for protocol and
    distribution code to turn a seed obtained from engine plumbing — a
    ``draw_int`` from a coin source, a ``SeedSequence`` the engine
    spawned — into a full generator for derived randomness (probe
    vectors, sampled triples, PRG families).  Centralising the expansion
    here keeps generator construction out of trial code paths, so the
    linter can verify by inspection that every trial draw descends from
    the spec's seed.

    Bit-compatibility contract: ``expand_seed(s)`` produces the exact
    stream of ``np.random.default_rng(s)`` — the expansion in use since
    the first release — so golden transcripts never shift.
    """
    return np.random.default_rng(seed)


def fresh_generator() -> np.random.Generator:
    """A generator seeded from OS entropy — for *entry points only*.

    Interactive, single-shot conveniences (``run_protocol`` with no
    ``rng=``) legitimately want a nondeterministic default; everything
    downstream of a :class:`~repro.core.engine.RunSpec` must not.
    Routing the OS-entropy draw through this helper makes the
    nondeterministic boundary searchable — and keeps unseeded
    ``np.random.default_rng()`` calls (lint rule ``DET01``) out of the
    library.
    """
    return np.random.default_rng()


class CoinSource:
    """A metered stream of uniform random bits.

    Parameters
    ----------
    rng:
        Backing numpy generator (``None`` only via :meth:`from_seed`).
    budget:
        Optional hard cap on the number of bits that may be drawn; drawing
        past it raises :class:`RandomnessExhausted`.
    """

    def __init__(self, rng: np.random.Generator | None, budget: int | None = None):
        self._rng = rng
        self._seed: int | None = None
        self.budget = budget
        self.bits_used = 0

    @classmethod
    def from_seed(cls, seed: int, budget: int | None = None) -> "CoinSource":
        """A source drawing the stream of ``cls(expand_seed(seed), budget)``.

        The generator is built on the first draw, so a processor that
        never flips a coin never pays for one.  No stream moves: the
        caller still draws ``seed`` where it used to build the generator,
        and ``expand_seed(seed)`` yields the same bits whenever it runs.
        """
        coins = cls(None, budget)
        coins._seed = seed
        return coins

    def _generator(self) -> np.random.Generator:
        if self._rng is None:
            self._rng = expand_seed(self._seed)
        return self._rng

    def _charge(self, n_bits: int) -> None:
        if n_bits < 0:
            raise ValueError("cannot draw a negative number of bits")
        if self.budget is not None and self.bits_used + n_bits > self.budget:
            raise RandomnessExhausted(
                f"requested {n_bits} bits with {self.bits_used} of "
                f"{self.budget} already used"
            )
        self.bits_used += n_bits

    def draw_bit(self) -> int:
        """One uniform bit."""
        self._charge(1)
        return int(self._generator().integers(0, 2))

    def draw_bits(self, n_bits: int) -> BitVector:
        """``n_bits`` uniform bits as a :class:`BitVector`."""
        self._charge(n_bits)
        return BitVector.random(n_bits, self._generator())

    def draw_int(self, n_bits: int) -> int:
        """A uniform integer in ``[0, 2^n_bits)`` (charged ``n_bits``)."""
        self._charge(n_bits)
        rng = self._generator()
        value = 0
        for chunk_start in range(0, n_bits, 32):
            chunk = min(32, n_bits - chunk_start)
            value |= int(rng.integers(0, 1 << chunk)) << chunk_start
        return value

    def remaining(self) -> int | None:
        """Bits left in the budget, or ``None`` if unmetered."""
        if self.budget is None:
            return None
        return self.budget - self.bits_used


class PrivateCoins(CoinSource):
    """Per-processor private randomness."""


class PublicCoins(CoinSource):
    """Shared randomness visible to all processors simultaneously.

    Note that in the broadcast model public coins are essentially free to
    create from private ones (one broadcast per bit), which is why the
    paper's PRG focuses on saving *private* coins; we still model them
    separately so Newman-style protocols (Theorem A.1) can be expressed
    naturally.
    """


class ZeroCoins(CoinSource):
    """A source that refuses to produce any randomness.

    Wrapping a protocol with a :class:`ZeroCoins` source is how tests assert
    that a supposedly deterministic protocol truly flips no coins.
    """

    def __init__(self) -> None:
        super().__init__(np.random.default_rng(0), budget=0)


class ReplayCoins(CoinSource):
    """A coin source that replays a fixed bit string.

    The derandomization transform of Corollary 7.1 substitutes each
    processor's true randomness with its PRG output; :class:`ReplayCoins`
    is the mechanism: the payload protocol keeps calling ``draw_bit`` /
    ``draw_bits`` and transparently receives the pseudo-random stream.
    Exhausting the stream raises :class:`RandomnessExhausted`.
    """

    def __init__(self, bits: BitVector):
        super().__init__(np.random.default_rng(0), budget=bits.n)
        self._bits = bits

    def draw_bit(self) -> int:
        position = self.bits_used
        self._charge(1)
        return self._bits[position]

    def draw_bits(self, n_bits: int) -> BitVector:
        position = self.bits_used
        self._charge(n_bits)
        chunk = BitVector(n_bits)
        for offset in range(n_bits):
            chunk[offset] = self._bits[position + offset]
        return chunk

    def draw_int(self, n_bits: int) -> int:
        position = self.bits_used
        self._charge(n_bits)
        value = 0
        for offset in range(n_bits):
            value |= self._bits[position + offset] << offset
        return value
