"""Bit-packed matrices over GF(2).

A :class:`BitMatrix` stores each row as packed 64-bit words (see
:mod:`repro.linalg.bitvec` for the packing convention).  It supports the
operations the reproduction needs:

* matrix–vector and matrix–matrix multiplication over GF(2),
* rank (and rank of leading submatrices, used by the time-hierarchy
  function of Theorem 1.5) by reducing rows against an XOR basis,
* row access as :class:`~repro.linalg.bitvec.BitVector`,
* uniform random sampling.

Every kernel is word-level: ``np.bitwise_count`` provides hardware
popcount, conversions go through the vectorized pack/unpack helpers of
:mod:`repro.linalg.bitvec`, ``transpose`` runs the classic 64×64
bit-block swap network directly on the packed words, ``vecmat`` is a
masked XOR-reduce over the rows selected by the vector's one-bits, and
``matmul`` blocks its popcount temporary so large products stay
cache-sized.  ``rank`` is the exception: it turns each packed row into
one Python int and XORs whole rows, which beats a few numpy calls per
pivot column on every size the reproduction ranks one matrix at a time
(up to 256×256).  For whole batches of matrices (Monte-Carlo trials),
see :mod:`repro.linalg.batch`.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .bitvec import (
    BitVector,
    _n_words,
    _pack_bits,
    _splice_words,
    _tail_mask,
    _unpack_bits,
)

__all__ = ["BitMatrix"]

_WORD_BITS = 64

#: Cap on the ``rows × block × words`` popcount temporary used by matmul.
_MATMUL_BLOCK_BYTES = 1 << 22

#: Bit masks of the 64×64 block-transpose swap network (low halves of each
#: ``2j``-bit group), one per halving round.
_TRANSPOSE_MASKS = {
    32: np.uint64(0x00000000FFFFFFFF),
    16: np.uint64(0x0000FFFF0000FFFF),
    8: np.uint64(0x00FF00FF00FF00FF),
    4: np.uint64(0x0F0F0F0F0F0F0F0F),
    2: np.uint64(0x3333333333333333),
    1: np.uint64(0x5555555555555555),
}


def _transpose64_blocks(blocks: np.ndarray) -> np.ndarray:
    """Bit-transpose 64×64 blocks given as uint64 arrays of shape ``(..., 64)``.

    Bit ``j`` of ``blocks[..., i]`` is block element ``(i, j)``; the result
    has bit ``j`` of ``[..., i]`` equal to the input's element ``(j, i)``.
    This is the Hacker's-Delight swap network (mirrored for the
    LSB-first column convention), vectorized over all leading axes: six
    rounds of shift/mask/xor, independent of how many blocks there are.
    """
    out = np.ascontiguousarray(blocks).copy()
    lanes = np.arange(64)
    for j in (32, 16, 8, 4, 2, 1):
        mask = _TRANSPOSE_MASKS[j]
        k = np.nonzero((lanes & j) == 0)[0]
        a = out[..., k]
        b = out[..., k + j]
        swap = ((a >> np.uint64(j)) ^ b) & mask
        out[..., k] = a ^ (swap << np.uint64(j))
        out[..., k + j] = b ^ swap
    return out


def _transpose_words(words: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """Word-level transpose of packed rows; broadcasts over leading axes.

    ``words`` has shape ``(..., rows, n_words(cols))``; the result has
    shape ``(..., cols, n_words(rows))``.  Rows are padded to a multiple
    of 64, carved into 64×64 bit blocks, and every block is transposed at
    once by :func:`_transpose64_blocks` — no ``to_array`` round-trip.
    """
    lead = words.shape[:-2]
    row_words = _n_words(rows)
    if rows == 0 or cols == 0:
        return np.zeros(lead + (cols, row_words), dtype=np.uint64)
    col_words = words.shape[-1]
    padded = np.zeros(lead + (row_words * 64, col_words), dtype=np.uint64)
    padded[..., :rows, :] = words
    blocks = padded.reshape(lead + (row_words, 64, col_words))
    blocks = np.moveaxis(blocks, -2, -1)  # (..., row_words, col_words, 64)
    transposed = _transpose64_blocks(blocks)
    out = np.moveaxis(transposed, -3, -1)  # (..., col_words, 64, row_words)
    out = out.reshape(lead + (col_words * 64, row_words))[..., :cols, :]
    return np.ascontiguousarray(out)


class BitMatrix:
    """A dense ``rows × cols`` matrix over GF(2) with bit-packed rows.

    Parameters
    ----------
    rows, cols:
        Matrix dimensions.
    words:
        Optional backing store of shape ``(rows, ceil(cols / 64))``; used
        directly (not copied) when provided.
    """

    __slots__ = ("rows", "cols", "words")

    def __init__(self, rows: int, cols: int, words: np.ndarray | None = None):
        if rows < 0 or cols < 0:
            raise ValueError(f"dimensions must be non-negative, got {rows}x{cols}")
        self.rows = rows
        self.cols = cols
        expected = (rows, _n_words(cols))
        if words is None:
            self.words = np.zeros(expected, dtype=np.uint64)
        else:
            if words.dtype != np.uint64 or words.shape != expected:
                raise ValueError(
                    f"backing store must be uint64{expected}, got "
                    f"{words.dtype}{words.shape}"
                )
            self.words = words

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def zeros(cls, rows: int, cols: int) -> "BitMatrix":
        return cls(rows, cols)

    @classmethod
    def identity(cls, n: int) -> "BitMatrix":
        mat = cls(n, n)
        if n:
            diag = np.arange(n)
            mat.words[diag, diag // _WORD_BITS] = np.uint64(1) << (
                diag % _WORD_BITS
            ).astype(np.uint64)
        return mat

    @classmethod
    def from_array(cls, arr: np.ndarray) -> "BitMatrix":
        """Build from a 2-D numpy array of 0/1 values."""
        arr = np.asarray(arr)
        if arr.ndim != 2:
            raise ValueError(f"expected a 2-D array, got shape {arr.shape}")
        bits = arr != 0
        rows, cols = bits.shape
        return cls(rows, cols, _pack_bits(bits))

    @classmethod
    def from_ints(cls, rows: Sequence[int], cols: int) -> "BitMatrix":
        """Build from rows given as Python ints (bit ``j`` of ``rows[i]``
        → entry ``(i, j)``): the row form :meth:`rank` reduces, so rows
        already held as ints need no 0/1 array in between."""
        if any(row < 0 or row >> cols for row in rows):
            raise ValueError(f"every row must be an int in [0, 2^{cols})")
        n_words = _n_words(cols)
        raw = b"".join(row.to_bytes(8 * n_words, "little") for row in rows)
        words = np.frombuffer(raw, dtype="<u8").astype(np.uint64)
        return cls(len(rows), cols, words.reshape(len(rows), n_words))

    @classmethod
    def from_rows(cls, rows: list[BitVector]) -> "BitMatrix":
        """Stack bit-vectors (all of equal length) as matrix rows."""
        if not rows:
            return cls(0, 0)
        cols = rows[0].n
        for r in rows:
            if r.n != cols:
                raise ValueError("all rows must have the same length")
        words = np.stack([r.words for r in rows])
        return cls(len(rows), cols, words)

    @classmethod
    def random(cls, rows: int, cols: int, rng: np.random.Generator) -> "BitMatrix":
        """A uniformly random ``rows × cols`` GF(2) matrix."""
        words = rng.integers(
            0, 2**64, size=(rows, _n_words(cols)), dtype=np.uint64, endpoint=False
        )
        words &= _tail_mask(cols)[None, :]
        return cls(rows, cols, words)

    # ------------------------------------------------------------------
    # Element / row access
    # ------------------------------------------------------------------
    def get(self, i: int, j: int) -> int:
        self._check_index(i, j)
        return (int(self.words[i, j // _WORD_BITS]) >> (j % _WORD_BITS)) & 1

    def set(self, i: int, j: int, bit: int) -> None:
        self._check_index(i, j)
        mask = np.uint64(1) << np.uint64(j % _WORD_BITS)
        if bit & 1:
            self.words[i, j // _WORD_BITS] |= mask
        else:
            self.words[i, j // _WORD_BITS] &= ~mask

    def row(self, i: int) -> BitVector:
        """Row ``i`` as a :class:`BitVector` (copies the backing words)."""
        if not 0 <= i < self.rows:
            raise IndexError(f"row {i} out of range for {self.rows} rows")
        return BitVector(self.cols, self.words[i].copy())

    def set_row(self, i: int, vec: BitVector) -> None:
        if vec.n != self.cols:
            raise ValueError(f"row length {vec.n} != {self.cols} columns")
        self.words[i] = vec.words

    def column(self, j: int) -> BitVector:
        """Column ``j`` as a :class:`BitVector` of length ``rows``."""
        if not 0 <= j < self.cols:
            raise IndexError(f"column {j} out of range for {self.cols} columns")
        bits = (
            (self.words[:, j // _WORD_BITS] >> np.uint64(j % _WORD_BITS))
            & np.uint64(1)
        ).astype(np.uint8)
        return BitVector(self.rows, _pack_bits(bits))

    def _check_index(self, i: int, j: int) -> None:
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(
                f"index ({i}, {j}) out of range for {self.rows}x{self.cols}"
            )

    # ------------------------------------------------------------------
    # Conversions
    # ------------------------------------------------------------------
    def to_array(self) -> np.ndarray:
        """Unpack into a ``uint8`` array of shape ``(rows, cols)``."""
        return _unpack_bits(self.words, self.cols)

    def transpose(self) -> "BitMatrix":
        """Word-level transpose via the 64×64 bit-block swap network."""
        return BitMatrix(
            self.cols, self.rows, _transpose_words(self.words, self.rows, self.cols)
        )

    def copy(self) -> "BitMatrix":
        return BitMatrix(self.rows, self.cols, self.words.copy())

    def submatrix(self, rows: int, cols: int) -> "BitMatrix":
        """Leading ``rows × cols`` submatrix (slices words, masks the tail)."""
        if rows > self.rows or cols > self.cols:
            raise ValueError("submatrix larger than matrix")
        words = self.words[:rows, : _n_words(cols)] & _tail_mask(cols)[None, :]
        return BitMatrix(rows, cols, words)

    def hconcat(self, other: "BitMatrix") -> "BitMatrix":
        """Horizontal concatenation ``[self | other]`` (word-level splice)."""
        if self.rows != other.rows:
            raise ValueError(f"row mismatch: {self.rows} vs {other.rows}")
        return BitMatrix(
            self.rows,
            self.cols + other.cols,
            _splice_words(self.words, self.cols, other.words, other.cols),
        )

    # ------------------------------------------------------------------
    # GF(2) arithmetic
    # ------------------------------------------------------------------
    def __xor__(self, other: "BitMatrix") -> "BitMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        return BitMatrix(self.rows, self.cols, self.words ^ other.words)

    __add__ = __xor__

    def matvec(self, vec: BitVector) -> BitVector:
        """``self @ vec`` over GF(2) (vector of length ``rows``)."""
        if vec.n != self.cols:
            raise ValueError(f"vector length {vec.n} != {self.cols} columns")
        parities = np.bitwise_count(self.words & vec.words[None, :]).sum(axis=1) & 1
        return BitVector.from_array(parities.astype(np.uint8))

    def vecmat(self, vec: BitVector) -> BitVector:
        """``vec^T @ self`` over GF(2) (vector of length ``cols``).

        This is exactly the operation each processor performs in the PRG of
        Theorem 1.3: its pseudo-random tail is ``x^T M``.  Implemented as an
        XOR of the rows selected by the one-bits of ``vec``, which is fast
        for the packed representation.
        """
        if vec.n != self.rows:
            raise ValueError(f"vector length {vec.n} != {self.rows} rows")
        selected = _unpack_bits(vec.words, self.rows).view(bool)
        acc = np.bitwise_xor.reduce(self.words[selected], axis=0)
        return BitVector(self.cols, acc)

    def matmul(self, other: "BitMatrix") -> "BitMatrix":
        """Matrix product ``self @ other`` over GF(2)."""
        if self.cols != other.rows:
            raise ValueError(
                f"inner dimension mismatch: {self.cols} vs {other.rows}"
            )
        other_t = other.transpose()
        # result[i, j] = parity(popcount(self.row_words[i] & other_t.row_words[j])).
        # The popcount temporary is (rows × block × words); blocking the
        # output columns keeps it cache-sized instead of O(n^3) bytes.
        n_words = self.words.shape[1]
        block = max(1, _MATMUL_BLOCK_BYTES // max(1, self.rows * max(1, n_words) * 8))
        parities = np.empty((self.rows, other.cols), dtype=np.uint8)
        for start in range(0, other.cols, block):
            chunk = other_t.words[start : start + block]
            ands = self.words[:, None, :] & chunk[None, :, :]
            parities[:, start : start + block] = (
                np.bitwise_count(ands).sum(axis=2) & 1
            ).astype(np.uint8)
        return BitMatrix(self.rows, other.cols, _pack_bits(parities))

    # ------------------------------------------------------------------
    # Rank and elimination
    # ------------------------------------------------------------------
    def rank(self) -> int:
        """Rank over GF(2) by reducing every row against an XOR basis.

        Each packed row becomes one Python int (bit ``j`` is column ``j``)
        and is XORed with the basis row owning its leading bit until it
        either vanishes or has a leading bit no basis row owns, when it
        joins the basis.  Basis rows have distinct leading bits, so they
        are independent and span the row space: the rank is the basis
        size.  Each XOR is one Python int operation on a whole row, not a
        few numpy calls per pivot column, and the algorithm shares nothing
        with :class:`~repro.linalg.batch.BitMatrixBatch`'s column
        elimination, which the batch tests compare against it.
        """
        if not self.rows or not self.cols:
            return 0
        raw = self.words.astype("<u8", copy=False).tobytes()
        stride = len(raw) // self.rows
        basis: dict[int, int] = {}
        owner = basis.get
        for start in range(0, len(raw), stride):
            row = int.from_bytes(raw[start : start + stride], "little")
            while row:
                lead = row.bit_length()
                pivot = owner(lead)
                if pivot is None:
                    basis[lead] = row
                    break
                row ^= pivot
        return len(basis)

    def is_full_rank(self) -> bool:
        """True iff the rank equals ``min(rows, cols)``."""
        return self.rank() == min(self.rows, self.cols)

    def row_space_contains(self, vec: BitVector) -> bool:
        """True iff ``vec`` lies in the row span of the matrix."""
        if vec.n != self.cols:
            raise ValueError(f"vector length {vec.n} != {self.cols} columns")
        base = self.rank()
        extended = BitMatrix(
            self.rows + 1,
            self.cols,
            np.vstack([self.words, vec.words[None, :]]),
        )
        return extended.rank() == base

    # ------------------------------------------------------------------
    # Dunder plumbing
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BitMatrix):
            return NotImplemented
        return (
            self.rows == other.rows
            and self.cols == other.cols
            and bool(np.array_equal(self.words, other.words))
        )

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, self.words.tobytes()))

    def __repr__(self) -> str:
        return f"BitMatrix({self.rows}x{self.cols})"
