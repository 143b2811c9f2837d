"""Bit-packed vectors over GF(2).

A :class:`BitVector` stores ``n`` bits packed into 64-bit words
(little-endian within each word: bit ``i`` lives in word ``i // 64`` at
position ``i % 64``).  All arithmetic is over the two-element field: addition
is XOR and multiplication is AND; the inner product is the parity of the
AND of the two operands.

These vectors are the work-horses of the pseudo-random generator of
Theorem 1.3 (each processor's output is ``(x, x^T M)`` for a shared matrix
``M``) and of the GF(2) rank computations behind the average-case lower
bound of Theorem 1.4.

Every conversion between the packed and unpacked representations goes
through :func:`_pack_bits` / :func:`_unpack_bits`, which use
``np.packbits``/``np.unpackbits`` with ``bitorder="little"`` — one numpy
pass regardless of length, no per-bit Python loops anywhere in this module.
The same helpers serve the batched kernels in :mod:`repro.linalg.batch`
(they operate along the last axis and broadcast over any leading ones).
"""

from __future__ import annotations

from typing import Iterable, Iterator

import numpy as np

__all__ = ["BitVector"]

_WORD_BITS = 64


def _n_words(n_bits: int) -> int:
    """Number of 64-bit words needed to hold ``n_bits`` bits."""
    return (n_bits + _WORD_BITS - 1) // _WORD_BITS


def _pack_bits(bits: np.ndarray) -> np.ndarray:
    """Pack 0/1 values along the last axis into little-endian uint64 words.

    ``bits`` may have any leading batch dimensions; the result replaces the
    last axis of length ``n`` with one of length ``ceil(n / 64)``.  Nonzero
    entries are treated as ones (``np.packbits`` semantics), so a boolean
    ``arr != 0`` packs as is; the bytes land in one zeroed buffer already
    padded to whole words.
    """
    n_bytes = -(-bits.shape[-1] // 8)
    packed = np.zeros(bits.shape[:-1] + (_n_words(bits.shape[-1]) * 8,), np.uint8)
    packed[..., :n_bytes] = np.packbits(bits, axis=-1, bitorder="little")
    return packed.view("<u8").astype(np.uint64, copy=False)


def _unpack_bits(words: np.ndarray, n_bits: int) -> np.ndarray:
    """Unpack little-endian uint64 words (last axis) into ``n_bits`` 0/1 values.

    Inverse of :func:`_pack_bits`; broadcasts over leading batch dimensions.
    """
    words = np.ascontiguousarray(words)
    if words.shape[-1] == 0:
        return np.zeros(words.shape[:-1] + (n_bits,), dtype=np.uint8)
    as_bytes = words.astype("<u8", copy=False).view(np.uint8)
    return np.unpackbits(as_bytes, axis=-1, bitorder="little")[..., :n_bits]


def _splice_words(
    left: np.ndarray, n_left: int, right: np.ndarray, n_right: int
) -> np.ndarray:
    """Concatenate packed bit rows: ``left`` then ``right`` along the bit axis.

    Operands are word arrays whose last axis packs ``n_left`` / ``n_right``
    bits (tail bits clear); leading axes broadcast, so this serves both
    :meth:`BitVector.concat` and :meth:`BitMatrix.hconcat`.  ``right`` is
    spliced in with one broadcast shift-and-or — never per bit.
    """
    out = np.zeros(
        left.shape[:-1] + (_n_words(n_left + n_right),), dtype=np.uint64
    )
    out[..., : left.shape[-1]] = left
    base, shift = divmod(n_left, _WORD_BITS)
    n_right_words = right.shape[-1]
    if shift == 0:
        out[..., base : base + n_right_words] = right
    else:
        out[..., base : base + n_right_words] |= right << np.uint64(shift)
        high = right >> np.uint64(_WORD_BITS - shift)
        width = min(n_right_words, out.shape[-1] - (base + 1))
        out[..., base + 1 : base + 1 + width] |= high[..., :width]
    return out


def _tail_mask(n_bits: int) -> np.ndarray:
    """Word-array mask with ones exactly at the first ``n_bits`` positions."""
    words = _n_words(n_bits)
    mask = np.full(words, np.uint64(0xFFFFFFFFFFFFFFFF), dtype=np.uint64)
    rem = n_bits % _WORD_BITS
    if rem and words:
        mask[-1] = np.uint64((1 << rem) - 1)
    return mask


class BitVector:
    """An immutable-length vector of ``n`` bits over GF(2).

    Parameters
    ----------
    n:
        Number of bits.
    words:
        Optional pre-packed ``uint64`` array; it is used as backing store
        (not copied) and must have exactly ``ceil(n / 64)`` entries with all
        bits beyond position ``n - 1`` cleared.
    """

    __slots__ = ("n", "words")

    def __init__(self, n: int, words: np.ndarray | None = None):
        if n < 0:
            raise ValueError(f"bit length must be non-negative, got {n}")
        self.n = n
        if words is None:
            self.words = np.zeros(_n_words(n), dtype=np.uint64)
        else:
            if words.dtype != np.uint64 or words.shape != (_n_words(n),):
                raise ValueError(
                    f"backing store must be uint64[{_n_words(n)}], got "
                    f"{words.dtype}[{words.shape}]"
                )
            self.words = words

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def zeros(cls, n: int) -> "BitVector":
        """The all-zero vector of length ``n``."""
        return cls(n)

    @classmethod
    def ones(cls, n: int) -> "BitVector":
        """The all-one vector of length ``n``."""
        return cls(n, _tail_mask(n).copy())

    @classmethod
    def from_bits(cls, bits: Iterable[int]) -> "BitVector":
        """Build from an iterable of 0/1 integers."""
        arr = np.asarray(list(bits), dtype=np.uint8)
        return cls.from_array(arr)

    @classmethod
    def from_array(cls, arr: np.ndarray) -> "BitVector":
        """Build from a 1-D numpy array of 0/1 values."""
        arr = np.asarray(arr)
        if arr.ndim != 1:
            raise ValueError(f"expected a 1-D array, got shape {arr.shape}")
        bits = arr != 0
        return cls(bits.shape[0], _pack_bits(bits))

    @classmethod
    def from_int(cls, value: int, n: int) -> "BitVector":
        """Build from a Python integer (bit ``i`` of ``value`` → entry ``i``)."""
        if value < 0:
            raise ValueError("value must be non-negative")
        if n < value.bit_length():
            raise ValueError(
                f"value needs {value.bit_length()} bits but n={n} requested"
            )
        raw = value.to_bytes(_n_words(n) * 8, "little")
        words = np.frombuffer(raw, dtype="<u8").astype(np.uint64)
        return cls(n, words)

    @classmethod
    def random(cls, n: int, rng: np.random.Generator) -> "BitVector":
        """A uniformly random vector of length ``n``."""
        words = rng.integers(
            0, 2**64, size=_n_words(n), dtype=np.uint64, endpoint=False
        )
        words &= _tail_mask(n)
        return cls(n, words)

    # ------------------------------------------------------------------
    # Conversions
    # ------------------------------------------------------------------
    def to_array(self) -> np.ndarray:
        """Unpack into a ``uint8`` array of 0/1 values."""
        return _unpack_bits(self.words, self.n)

    def to_int(self) -> int:
        """Pack into a single Python integer (entry ``i`` → bit ``i``)."""
        return int.from_bytes(self.words.astype("<u8", copy=False).tobytes(), "little")

    # ------------------------------------------------------------------
    # Bit access
    # ------------------------------------------------------------------
    def __getitem__(self, i: int) -> int:
        if not 0 <= i < self.n:
            raise IndexError(f"bit index {i} out of range for length {self.n}")
        return (int(self.words[i // _WORD_BITS]) >> (i % _WORD_BITS)) & 1

    def __setitem__(self, i: int, bit: int) -> None:
        if not 0 <= i < self.n:
            raise IndexError(f"bit index {i} out of range for length {self.n}")
        mask = np.uint64(1) << np.uint64(i % _WORD_BITS)
        if bit & 1:
            self.words[i // _WORD_BITS] |= mask
        else:
            self.words[i // _WORD_BITS] &= ~mask

    def __len__(self) -> int:
        return self.n

    def __iter__(self) -> Iterator[int]:
        for i in range(self.n):
            yield self[i]

    # ------------------------------------------------------------------
    # GF(2) arithmetic
    # ------------------------------------------------------------------
    def __xor__(self, other: "BitVector") -> "BitVector":
        self._check_same_length(other)
        return BitVector(self.n, self.words ^ other.words)

    __add__ = __xor__  # addition over GF(2) is XOR

    def __and__(self, other: "BitVector") -> "BitVector":
        self._check_same_length(other)
        return BitVector(self.n, self.words & other.words)

    def dot(self, other: "BitVector") -> int:
        """Inner product over GF(2): parity of the AND of the two vectors."""
        self._check_same_length(other)
        return int(np.bitwise_count(self.words & other.words).sum() & 1)

    def weight(self) -> int:
        """Hamming weight (number of ones)."""
        return int(np.bitwise_count(self.words).sum())

    def is_zero(self) -> bool:
        """True iff every entry is zero."""
        return not self.words.any()

    def concat(self, other: "BitVector") -> "BitVector":
        """Concatenation ``(self, other)`` of length ``self.n + other.n``
        (word-level splice, no per-bit work)."""
        return BitVector(
            self.n + other.n,
            _splice_words(self.words, self.n, other.words, other.n),
        )

    def _check_same_length(self, other: "BitVector") -> None:
        if self.n != other.n:
            raise ValueError(f"length mismatch: {self.n} vs {other.n}")

    # ------------------------------------------------------------------
    # Dunder plumbing
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BitVector):
            return NotImplemented
        return self.n == other.n and bool(np.array_equal(self.words, other.words))

    def __hash__(self) -> int:
        return hash((self.n, self.words.tobytes()))

    def copy(self) -> "BitVector":
        return BitVector(self.n, self.words.copy())

    def __repr__(self) -> str:
        if self.n <= 64:
            bits = "".join(str(b) for b in self)
            return f"BitVector({bits!r})"
        return f"BitVector(n={self.n}, weight={self.weight()})"
