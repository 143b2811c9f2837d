"""Randomness sources with exact bit accounting.

The randomness-saving results of the paper (Corollary 7.1 and the Newman
analogue of Theorem A.1) are claims about *how many random bits* a protocol
consumes.  To verify them the simulator meters every coin flip: each
processor owns a :class:`PrivateCoins` source and the system may expose a
:class:`PublicCoins` source; both count the bits handed out and can enforce
a hard budget.

It also holds the engine's batched seeding: :func:`spawn_generators`
builds a chunk of trial generators in one vectorized pass, and
:func:`fair_bits` draws fair coins from many generators at once.  Both
are exact replicas of numpy's own per-trial calls, which stay the
oracle.  ``numpy.random`` is only touched inside functions, so importing
the library does not load it.
"""

from __future__ import annotations

import functools
import math
import threading
from typing import TYPE_CHECKING, Any, Sequence

import numpy as np

from ..linalg.bitvec import BitVector
from .errors import RandomnessExhausted

if TYPE_CHECKING:
    from numpy.random import Generator, SeedSequence

__all__ = [
    "CoinSource",
    "PrivateCoins",
    "PublicCoins",
    "ZeroCoins",
    "ReplayCoins",
    "expand_seed",
    "fresh_generator",
    "spawn_generators",
    "fair_bits",
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


# numpy's SeedSequence hash (stable: numpy keeps seeded streams fixed).
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715

#: Makes reading and advancing a root's child counter one step, so
#: concurrent batches on one SeedSequence seed draw disjoint children.
_COUNTER_LOCK = threading.Lock()


def _entropy_words(value: Any) -> list[int]:
    """The uint32 words ``SeedSequence`` assembles from ``value``."""
    if isinstance(value, np.ndarray) and value.dtype == np.uint32:
        return [int(word) for word in value]
    if isinstance(value, str):
        base = 16 if value.startswith("0x") else 8 if value.startswith("0") else 10
        return _entropy_words(int(value, base))
    if isinstance(value, (int, np.integer)):
        value = int(value)
        if value < 0:
            raise ValueError("expected non-negative integer")
        words = [value & _MASK32]
        while value > _MASK32:
            value >>= 32
            words.append(value & _MASK32)
        return words
    return [word for item in value for word in _entropy_words(item)]


def _hashmix(value: int, const: int) -> tuple[int, int]:
    value ^= const
    const = const * _MULT_A & _MASK32
    value = value * const & _MASK32
    return value ^ value >> 16, const


def _mix(x: int, y: int) -> int:
    result = (_MIX_L * x - _MIX_R * y) & _MASK32
    return result ^ result >> 16


def _const_rows(const: int, mult: int, count: int) -> tuple[np.ndarray, np.ndarray]:
    """The hash constant before and after each of ``count`` steps, as
    ``(count, 1)`` uint32 columns."""
    consts = [const]
    for _ in range(count):
        consts.append(consts[-1] * mult & _MASK32)
    column = np.array(consts, dtype=np.uint32)[:, None]
    return column[:-1], column[1:]


@functools.cache
def _seed_words_type() -> type:
    """A seed sequence whose state is a precomputed word array.

    Built on first use so that importing this module does not import
    ``numpy.random``.
    """
    from numpy.random.bit_generator import ISeedSequence

    class SeedWords(ISeedSequence):
        __slots__ = ("words",)

        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words: int, dtype: object = np.uint32) -> np.ndarray:
            return self.words

    return SeedWords


def spawn_generators(root: "SeedSequence", count: int) -> "list[Generator]":
    """``[default_rng(c) for c in root.spawn(count)]``, in one vectorized pass.

    The generators of children ``start … start + count - 1``, where
    ``start`` is ``root.n_children_spawned``, and the counter advances by
    ``count`` as ``spawn`` advances it, so consecutive calls walk the
    same children as one larger ``spawn``.  Every child hashes the same
    entropy and spawn-key words before its own index word, so those are
    mixed once as Python ints; the index word and each child's
    ``generate_state(4, uint64)`` are then uint32 array operations over
    the whole chunk, and each ``PCG64`` is built from its precomputed
    words.  A ``SeedSequence`` subclass spawns through its own methods.
    """
    from numpy.random import PCG64, Generator, SeedSequence

    if type(root) is not SeedSequence:
        return [Generator(PCG64(child)) for child in root.spawn(count)]
    size = root.pool_size
    with _COUNTER_LOCK:
        start = root.n_children_spawned
        if start + count > _MASK32:
            raise ValueError("a SeedSequence counts at most 2**32 - 1 children")
        # The counter is read-only; re-running the constructor with the
        # same entropy, key and pool size rebuilds the same pool and sets it.
        SeedSequence.__init__(
            root,
            root.entropy,
            spawn_key=root.spawn_key,
            pool_size=size,
            n_children_spawned=start + count,
        )
    run = _entropy_words(root.entropy)
    # A spawned child pads its run entropy to the pool size.
    prefix = run + [0] * (size - len(run)) + _entropy_words(root.spawn_key)
    const = _INIT_A
    pool: list[int] = []
    for word in prefix[:size]:
        mixed, const = _hashmix(word, const)
        pool.append(mixed)
    for src in range(size):
        for dst in range(size):
            if src != dst:
                mixed, const = _hashmix(pool[src], const)
                pool[dst] = _mix(pool[dst], mixed)
    for word in prefix[size:]:
        for dst in range(size):
            mixed, const = _hashmix(word, const)
            pool[dst] = _mix(pool[dst], mixed)
    # The child index is the last entropy word: hash it once per pool
    # word and mix it in, one row per pool word and one column per child
    # (uint32 array arithmetic wraps mod 2**32 as the C code does).
    xor, mul = _const_rows(const, _MULT_A, size)
    index = np.arange(start, start + count, dtype=np.uint32)
    hashed = (index ^ xor) * mul
    hashed ^= hashed >> np.uint32(16)
    scaled = np.array([[_MIX_L * word & _MASK32] for word in pool], dtype=np.uint32)
    lanes = scaled - hashed * np.uint32(_MIX_R)
    lanes ^= lanes >> np.uint32(16)
    # generate_state(4, uint64): eight words cycled from the pool,
    # paired little-endian into uint64s.
    xor, mul = _const_rows(_INIT_B, _MULT_B, 8)
    state = (lanes[[word % size for word in range(8)]] ^ xor) * mul
    state ^= state >> np.uint32(16)
    words = np.ascontiguousarray(state.T, dtype="<u4")
    seeds = words.view("<u8").astype(np.uint64, copy=False)
    seed_words = _seed_words_type()
    return [Generator(PCG64(seed_words(row))) for row in seeds]


def fair_bits(
    rngs: "Sequence[Generator]", *shapes: tuple[int, ...]
) -> list[np.ndarray]:
    """Per generator, ``integers(0, 2, size=shape, dtype=uint8)`` for
    each ``shape`` in order, stacked as ``(len(rngs),) + shape`` arrays.

    Every generator ends where those calls leave it.  The uint8 coin of
    ``integers`` is the top bit of one byte of the generator's uint32
    stream (Lemire's method never rejects with range 2), each call
    starting on a fresh word, and ``PCG64`` hands out each 64-bit output
    low half first.  So a ``PCG64`` with no buffered half draws all its
    words with one ``random_raw`` call, draw ``i`` starts at byte
    ``4 * sum(ceil(size_j / 4))`` over the earlier draws, and one ``>> 7``
    over the chunk turns bytes into bits; an odd word count leaves the
    unused high half buffered, as ``integers`` does.  Other bit
    generators, and a ``PCG64`` already holding a buffered half, draw
    through ``integers`` (exact, not faster).  The arrays are views of
    one buffer.
    """
    from numpy.random import PCG64

    sizes = [math.prod(shape) for shape in shapes]
    offsets = [0]
    for size in sizes:
        offsets.append(offsets[-1] + 4 * -(-size // 4))
    words = offsets[-1] // 4
    raws = -(-words // 2)
    stream = np.empty((len(rngs), raws), dtype="<u8")
    data = stream.view(np.uint8)
    for row, rng in enumerate(rngs):
        bitgen = rng.bit_generator
        if type(bitgen) is PCG64 and not bitgen.state["has_uint32"]:
            stream[row] = bitgen.random_raw(raws)
            if words % 2:
                state = bitgen.state
                state["has_uint32"] = 1
                state["uinteger"] = int(stream[row, -1]) >> 32
                bitgen.state = state
        else:
            for size, offset in zip(sizes, offsets):
                bits = rng.integers(0, 2, size=size, dtype=np.uint8)
                data[row, offset : offset + size] = bits << 7
    data >>= 7
    return [
        data[:, offset : offset + size].reshape((len(rngs),) + tuple(shape))
        for shape, size, offset in zip(shapes, sizes, offsets)
    ]


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
