"""Batched GF(2) kernels: whole trial batches in single numpy passes.

Monte-Carlo experiments in this reproduction execute the same small GF(2)
operation thousands of times — rank a fresh uniform matrix, multiply a
fresh seed by a shared secret, test span membership.  Doing that one
:class:`~repro.linalg.bitmatrix.BitMatrix` at a time pays the Python and
numpy dispatch overhead per trial.  This module stores a whole batch as a
single ``(batch, rows, words)`` uint64 array and runs each kernel once for
the entire batch:

* :class:`BitVectorBatch` / :class:`BitMatrixBatch` — bit-packed batches
  sharing the word layout of :mod:`repro.linalg.bitvec`.
* batched ``matvec`` / ``vecmat`` / ``matmul`` / ``transpose`` — one
  popcount or XOR-reduce broadcast over the batch axis.
* batched Gaussian-elimination :meth:`BitMatrixBatch.rank` — all matrices
  are eliminated in lock-step, a fixed number of numpy passes per pivot
  column regardless of batch size, by one of two eliminations chosen from
  the shape alone.  Rows of one word with ``rows × cols`` up to
  ``_BITSLICE_MAX_BITS`` are eliminated bit-sliced across the batch (one
  bit per matrix in each ``uint64`` lane), which wins where numpy call
  overhead dominates; every other shape takes the method-of-four-Russians
  elimination, which wins where full-width row traffic does.
* batched sampling — :meth:`BitMatrixBatch.random` (uniform) and
  :meth:`BitMatrixBatch.random_with_rank` (rank-conditioned, vectorized
  rejection).

Every batched kernel is bit-identical to mapping the scalar
``BitMatrix``/``BitVector`` implementation over the batch (property-tested
in ``tests/linalg/test_batch.py``), including ragged tail-word widths
(``n % 64 != 0``) and empty/degenerate shapes.
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np

from .bitmatrix import _MATMUL_BLOCK_BYTES, BitMatrix, _transpose_words
from .bitvec import BitVector, _n_words, _pack_bits, _tail_mask, _unpack_bits

__all__ = ["BitVectorBatch", "BitMatrixBatch"]

_WORD_BITS = 64

#: Largest ``rows × cols`` that :meth:`BitMatrixBatch.rank` eliminates
#: bit-sliced (rows of one word only).  Up to it numpy call overhead
#: dominates and bit-slicing beat the method-of-four-Russians elimination
#: at every batch size measured (1–8192; 1.1–2.3× at 128×64); past it row
#: traffic takes over and the two trade places (256×64: 0.87–2.0×).
_BITSLICE_MAX_BITS = 8192

#: ``(shift, mask)`` delta swaps that transpose an 8×8 bit block held in
#: one word (bit ``8s + i`` ↔ bit ``8i + s``).
_TRANSPOSE8_SWAPS = (
    (np.uint64(7), np.uint64(0x00AA00AA00AA00AA)),
    (np.uint64(14), np.uint64(0x0000CCCC0000CCCC)),
    (np.uint64(28), np.uint64(0x00000000F0F0F0F0)),
)


def _bitslice(words: np.ndarray, batch: int, cols: int) -> np.ndarray:
    """Lay single-word rows ``(batch, rows, 1)`` out across the batch.

    Returns ``(cols, lanes, rows)`` uint64 with ``lanes = ceil(batch/64)``:
    bit ``t`` of ``out[c, w, r]`` is entry ``(r, c)`` of matrix ``64w + t``,
    and the matrices padding the last lane are zero.  Byte ``j`` of row
    ``r`` of eight consecutive matrices forms one word, an 8×8 bit block;
    transposing it leaves byte ``i`` holding column ``8j + i`` of all eight.
    """
    rows = words.shape[1]
    n_bytes = -(-cols // 8)
    lanes = -(-batch // _WORD_BITS)
    row_bytes = np.ascontiguousarray(words.astype("<u8", copy=False)).view(np.uint8)
    buf = np.zeros((n_bytes, rows, lanes * _WORD_BITS), dtype=np.uint8)
    buf[:, :, :batch] = row_bytes[:, :, :n_bytes].transpose(2, 1, 0)
    blocks = buf.view("<u8")
    for shift, mask in _TRANSPOSE8_SWAPS:
        swap = (blocks ^ (blocks >> shift)) & mask
        blocks ^= swap ^ (swap << shift)
    columns = buf.reshape(n_bytes, rows, lanes, 8, 8).transpose(0, 4, 2, 1, 3)
    sliced = np.ascontiguousarray(columns).reshape(n_bytes * 8, lanes, rows * 8)
    return sliced.view("<u8")[:cols]


class BitVectorBatch:
    """``batch`` bit-vectors of common length ``n``, packed as ``(batch, words)``.

    Parameters
    ----------
    batch, n:
        Number of vectors and bits per vector.
    words:
        Optional ``uint64`` backing store of shape ``(batch, ceil(n/64))``;
        used directly (not copied) when provided and must have all bits
        beyond position ``n - 1`` cleared in every row.
    """

    __slots__ = ("batch", "n", "words")

    def __init__(self, batch: int, n: int, words: np.ndarray | None = None):
        if batch < 0 or n < 0:
            raise ValueError(f"dimensions must be non-negative, got {batch}, {n}")
        self.batch = batch
        self.n = n
        expected = (batch, _n_words(n))
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
    def zeros(cls, batch: int, n: int) -> "BitVectorBatch":
        return cls(batch, n)

    @classmethod
    def random(
        cls, batch: int, n: int, rng: np.random.Generator
    ) -> "BitVectorBatch":
        """``batch`` independent uniform vectors of length ``n``."""
        words = rng.integers(
            0, 2**64, size=(batch, _n_words(n)), dtype=np.uint64, endpoint=False
        )
        words &= _tail_mask(n)[None, :]
        return cls(batch, n, words)

    @classmethod
    def from_arrays(cls, arr: np.ndarray) -> "BitVectorBatch":
        """Build from a ``(batch, n)`` array of 0/1 values."""
        arr = np.asarray(arr)
        if arr.ndim != 2:
            raise ValueError(f"expected a 2-D array, got shape {arr.shape}")
        bits = arr != 0
        return cls(bits.shape[0], bits.shape[1], _pack_bits(bits))

    @classmethod
    def from_vectors(cls, vectors: Sequence[BitVector]) -> "BitVectorBatch":
        """Stack scalar bit-vectors (all of equal length)."""
        if not vectors:
            return cls(0, 0)
        n = vectors[0].n
        for v in vectors:
            if v.n != n:
                raise ValueError("all vectors must have the same length")
        return cls(len(vectors), n, np.stack([v.words for v in vectors]))

    # ------------------------------------------------------------------
    # Conversions / access
    # ------------------------------------------------------------------
    def to_arrays(self) -> np.ndarray:
        """Unpack into a ``uint8`` array of shape ``(batch, n)``."""
        return _unpack_bits(self.words, self.n)

    def __len__(self) -> int:
        return self.batch

    def __getitem__(self, index: int) -> BitVector:
        return BitVector(self.n, self.words[index].copy())

    def __iter__(self) -> Iterator[BitVector]:
        for index in range(self.batch):
            yield self[index]

    # ------------------------------------------------------------------
    # GF(2) arithmetic, one pass over the batch
    # ------------------------------------------------------------------
    def __xor__(self, other: "BitVectorBatch") -> "BitVectorBatch":
        self._check_like(other)
        return BitVectorBatch(self.batch, self.n, self.words ^ other.words)

    __add__ = __xor__

    def dots(self, other: "BitVectorBatch") -> np.ndarray:
        """Per-pair GF(2) inner products, shape ``(batch,)``."""
        self._check_like(other)
        return (
            np.bitwise_count(self.words & other.words).sum(axis=1).astype(np.int64)
            & 1
        )

    def weights(self) -> np.ndarray:
        """Per-vector Hamming weights, shape ``(batch,)``."""
        return np.bitwise_count(self.words).sum(axis=1).astype(np.int64)

    def _check_like(self, other: "BitVectorBatch") -> None:
        if self.batch != other.batch or self.n != other.n:
            raise ValueError(
                f"batch shape mismatch: ({self.batch}, {self.n}) vs "
                f"({other.batch}, {other.n})"
            )

    def __repr__(self) -> str:
        return f"BitVectorBatch(batch={self.batch}, n={self.n})"


class BitMatrixBatch:
    """``batch`` dense ``rows × cols`` GF(2) matrices, packed ``(batch, rows, words)``.

    Parameters
    ----------
    batch, rows, cols:
        Batch size and per-matrix dimensions.
    words:
        Optional ``uint64`` backing store of shape
        ``(batch, rows, ceil(cols/64))``; used directly (not copied) and
        must have all bits beyond column ``cols - 1`` cleared.
    """

    __slots__ = ("batch", "rows", "cols", "words")

    def __init__(
        self, batch: int, rows: int, cols: int, words: np.ndarray | None = None
    ):
        if batch < 0 or rows < 0 or cols < 0:
            raise ValueError(
                f"dimensions must be non-negative, got {batch}x{rows}x{cols}"
            )
        self.batch = batch
        self.rows = rows
        self.cols = cols
        expected = (batch, rows, _n_words(cols))
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
    def zeros(cls, batch: int, rows: int, cols: int) -> "BitMatrixBatch":
        return cls(batch, rows, cols)

    @classmethod
    def random(
        cls, batch: int, rows: int, cols: int, rng: np.random.Generator
    ) -> "BitMatrixBatch":
        """``batch`` independent uniform ``rows × cols`` GF(2) matrices."""
        words = rng.integers(
            0,
            2**64,
            size=(batch, rows, _n_words(cols)),
            dtype=np.uint64,
            endpoint=False,
        )
        words &= _tail_mask(cols)[None, None, :]
        return cls(batch, rows, cols, words)

    @classmethod
    def random_with_rank(
        cls,
        batch: int,
        rows: int,
        cols: int,
        r: int,
        rng: np.random.Generator,
        max_tries: int = 1000,
    ) -> "BitMatrixBatch":
        """``batch`` random matrices of rank exactly ``r``.

        Vectorized rejection: each round samples full batches of
        ``A_{rows×r} B_{r×cols}`` products and keeps the ones whose
        batched rank comes out exactly ``r``, resampling only the rejects.
        """
        if not 0 <= r <= min(rows, cols):
            raise ValueError(f"rank {r} impossible for {rows}x{cols}")
        out = cls.zeros(batch, rows, cols)
        if r == 0 or batch == 0:
            return out
        pending = np.arange(batch)
        for _ in range(max_tries):
            left = cls.random(pending.size, rows, r, rng)
            right = cls.random(pending.size, r, cols, rng)
            product = left.matmul(right)
            accepted = product.rank() == r
            out.words[pending[accepted]] = product.words[accepted]
            pending = pending[~accepted]
            if pending.size == 0:
                return out
        raise RuntimeError(
            f"failed to sample {batch} rank-{r} matrices in {max_tries} rounds"
        )

    @classmethod
    def from_arrays(cls, arr: np.ndarray) -> "BitMatrixBatch":
        """Build from a ``(batch, rows, cols)`` array of 0/1 values."""
        arr = np.asarray(arr)
        if arr.ndim != 3:
            raise ValueError(f"expected a 3-D array, got shape {arr.shape}")
        bits = arr != 0
        batch, rows, cols = bits.shape
        return cls(batch, rows, cols, _pack_bits(bits))

    @classmethod
    def from_matrices(cls, matrices: Sequence[BitMatrix]) -> "BitMatrixBatch":
        """Stack scalar matrices (all of equal shape)."""
        if not matrices:
            return cls(0, 0, 0)
        rows, cols = matrices[0].rows, matrices[0].cols
        for m in matrices:
            if (m.rows, m.cols) != (rows, cols):
                raise ValueError("all matrices must have the same shape")
        return cls(len(matrices), rows, cols, np.stack([m.words for m in matrices]))

    # ------------------------------------------------------------------
    # Conversions / access
    # ------------------------------------------------------------------
    def to_arrays(self) -> np.ndarray:
        """Unpack into a ``uint8`` array of shape ``(batch, rows, cols)``."""
        return _unpack_bits(self.words, self.cols)

    def __len__(self) -> int:
        return self.batch

    def __getitem__(self, index: int) -> BitMatrix:
        return BitMatrix(self.rows, self.cols, self.words[index].copy())

    def __iter__(self) -> Iterator[BitMatrix]:
        for index in range(self.batch):
            yield self[index]

    # ------------------------------------------------------------------
    # GF(2) arithmetic, one pass over the batch
    # ------------------------------------------------------------------
    def __xor__(self, other: "BitMatrixBatch") -> "BitMatrixBatch":
        self._check_like(other)
        return BitMatrixBatch(self.batch, self.rows, self.cols, self.words ^ other.words)

    __add__ = __xor__

    def matvec(self, vecs: BitVectorBatch) -> BitVectorBatch:
        """Per-pair ``matrix @ vector``: batch of vectors of length ``rows``."""
        if vecs.batch != self.batch or vecs.n != self.cols:
            raise ValueError(
                f"vector batch ({vecs.batch}, {vecs.n}) does not match "
                f"matrix batch ({self.batch}, cols={self.cols})"
            )
        parities = (
            np.bitwise_count(self.words & vecs.words[:, None, :]).sum(axis=2) & 1
        ).astype(np.uint8)
        return BitVectorBatch(self.batch, self.rows, _pack_bits(parities))

    def vecmat(self, vecs: BitVectorBatch) -> BitVectorBatch:
        """Per-pair ``vector^T @ matrix`` — the PRG's per-processor tail.

        A masked XOR-reduce: each vector's one-bits select matrix rows,
        which are XORed down the row axis in one pass for the whole batch.
        """
        if vecs.batch != self.batch or vecs.n != self.rows:
            raise ValueError(
                f"vector batch ({vecs.batch}, {vecs.n}) does not match "
                f"matrix batch ({self.batch}, rows={self.rows})"
            )
        selected = _unpack_bits(vecs.words, self.rows).view(bool)
        masked = np.where(selected[:, :, None], self.words, np.uint64(0))
        return BitVectorBatch(
            self.batch, self.cols, np.bitwise_xor.reduce(masked, axis=1)
        )

    def matmul(self, other: "BitMatrixBatch") -> "BitMatrixBatch":
        """Per-pair matrix product ``self[b] @ other[b]`` over GF(2)."""
        if other.batch != self.batch:
            raise ValueError(f"batch mismatch: {self.batch} vs {other.batch}")
        if self.cols != other.rows:
            raise ValueError(
                f"inner dimension mismatch: {self.cols} vs {other.rows}"
            )
        other_t = other.transpose()
        n_words = self.words.shape[2]
        block = max(
            1,
            _MATMUL_BLOCK_BYTES
            // max(1, self.batch * self.rows * max(1, n_words) * 8),
        )
        parities = np.empty((self.batch, self.rows, other.cols), dtype=np.uint8)
        for start in range(0, other.cols, block):
            chunk = other_t.words[:, start : start + block]
            ands = self.words[:, :, None, :] & chunk[:, None, :, :]
            parities[:, :, start : start + block] = (
                np.bitwise_count(ands).sum(axis=3) & 1
            ).astype(np.uint8)
        return BitMatrixBatch(self.batch, self.rows, other.cols, _pack_bits(parities))

    def transpose(self) -> "BitMatrixBatch":
        """Per-matrix word-level transpose (64×64 bit-block swap network)."""
        return BitMatrixBatch(
            self.batch,
            self.cols,
            self.rows,
            _transpose_words(self.words, self.rows, self.cols),
        )

    # ------------------------------------------------------------------
    # Rank: lock-step Gaussian elimination
    # ------------------------------------------------------------------
    def rank(
        self, prefix: int | None = None
    ) -> np.ndarray | tuple[np.ndarray, np.ndarray]:
        """Per-matrix GF(2) rank, shape ``(batch,)``.

        All matrices are eliminated in lock-step (no physical row swaps;
        each matrix marks its pivot rows as settled), so the result is
        exactly the scalar :meth:`~repro.linalg.bitmatrix.BitMatrix.rank`
        of every batch element (property-tested).

        With ``prefix=k`` the same elimination also reports the rank of
        every matrix's leading ``k`` columns and returns
        ``(prefix_rank, rank)``: columns are eliminated in order, so the
        pivot count on reaching column ``k`` is that block's rank.

        Two eliminations, chosen by shape alone: rows of one word with
        ``rows × cols ≤ _BITSLICE_MAX_BITS`` are eliminated bit-sliced
        across the batch (:meth:`_rank_bitsliced`), where each column
        costs a fixed handful of numpy calls for every matrix at once;
        every other shape takes the method-of-four-Russians elimination
        (:meth:`_rank_m4r`), which cuts the full-width row traffic that
        dominates large matrices.
        """
        if prefix is not None and not 0 <= prefix <= self.cols:
            raise ValueError(f"prefix {prefix} outside [0, {self.cols}]")
        if self.batch == 0 or self.rows == 0 or self.cols == 0:
            pivot = np.zeros(self.batch, dtype=np.int64)
            return pivot if prefix is None else (pivot.copy(), pivot)
        if (
            self.cols <= _WORD_BITS
            and self.rows * self.cols <= _BITSLICE_MAX_BITS
        ):
            return self._rank_bitsliced(prefix)
        return self._rank_m4r(prefix)

    def _rank_bitsliced(
        self, prefix: int | None
    ) -> np.ndarray | tuple[np.ndarray, np.ndarray]:
        """:meth:`rank` of single-word rows, one bit per matrix per lane.

        The batch is laid out by :func:`_bitslice`, so a ``uint64`` lane
        carries one row's entry of a column for 64 matrices, and each
        column is eliminated for all of them with whole-lane operations:
        the candidates are the column's bits under the unsettled-rows
        mask; an OR-accumulate down the rows marks each matrix's first
        candidate, its pivot; an AND/OR-reduce gathers the pivot row; the
        other candidates absorb it through one masked XOR.  The column's
        OR of candidates flags the matrices that found a pivot, so ranks
        are pivot counts; the loop stops once every row is settled.
        """
        sliced = _bitslice(self.words, self.batch, self.cols)
        lanes = sliced.shape[1]
        unsettled = np.full((lanes, self.rows), ~np.uint64(0))
        # The zero matrices padding the last lane have no rows to settle.
        unsettled[-1] >>= np.uint64(lanes * _WORD_BITS - self.batch)
        found = np.zeros((self.cols, lanes), dtype=np.uint64)
        for col in range(self.cols):
            candidates = sliced[col] & unsettled
            seen = np.bitwise_or.accumulate(candidates, axis=1)
            first = seen.copy()
            first[:, 1:] ^= seen[:, :-1]
            found[col] = seen[:, -1]
            unsettled ^= first
            if not unsettled.any():
                break
            rest = sliced[col + 1 :]
            pivot_row = np.bitwise_or.reduce(rest & first, axis=2)
            rest ^= (candidates ^ first) & pivot_row[:, :, None]
        pivots = _unpack_bits(found, self.batch)
        rank = pivots.sum(axis=0, dtype=np.int64)
        if prefix is None:
            return rank
        return pivots[:prefix].sum(axis=0, dtype=np.int64), rank

    def _rank_m4r(
        self, prefix: int | None
    ) -> np.ndarray | tuple[np.ndarray, np.ndarray]:
        """:meth:`rank` by method-of-four-Russians lock-step elimination.

        The elimination is blocked over byte groups of eight pivot
        columns:

        * within a group, only the **byte pane** carrying those eight bits
          is updated per column — pivot search and row clearing are
          (batch, rows) ``uint8`` passes, 1/8 the traffic of full words —
          while an eight-bit coefficient word per row records *which*
          pivot rows were XORed into it (``M8[r] ^= M8[p] ^ (1 << k)``,
          so coefficients always refer to group-start row values);
        * at group end the full-width update is replayed in one shot: a
          256-entry XOR table of pivot-row combinations is built per word
          by doubling (eight XOR passes), and every row applies its
          coefficient with a single table gather per word — ~8× fewer
          full-width passes than eliminating column by column.

        Passes are windowed to rows past the all-settled prefix and words
        from the current pivot word on (earlier columns are never
        revisited), and the word store is held words-first
        (``(words, batch, rows)``) so every pass is contiguous.
        """
        batch, n_rows, n_words = self.words.shape
        pivot = np.zeros(batch, dtype=np.int64)
        prefix_rank = None
        work = np.ascontiguousarray(self.words.transpose(2, 0, 1))
        work_bytes = work.view(np.uint8)  # (words, batch, rows * 8)
        batch_idx = np.arange(batch)
        unsettled = np.full((batch, n_rows), np.uint8(0xFF), dtype=np.uint8)
        low = 0
        for base in range(0, self.cols, 8):
            if (pivot == n_rows).all():
                break
            group = min(8, self.cols - base)
            word, bit0 = divmod(base, _WORD_BITS)
            pane = np.ascontiguousarray(work_bytes[word, :, bit0 // 8 :: 8])
            window = n_rows - low
            coeffs = np.zeros((batch, window), dtype=np.uint8)
            pivot_of_slot = np.zeros((group, batch), dtype=np.intp)
            slot_found = np.zeros((group, batch), dtype=bool)
            any_elimination = False
            for k in range(group):
                if base + k == prefix:
                    prefix_rank = pivot.copy()
                # Candidate mask: sign-extend column bit k over its byte,
                # keep unsettled rows; the first candidate is the pivot.
                shift_up = np.uint8(7 - (bit0 + k) % 8)
                mask = ((pane[:, low:] << shift_up).view(np.int8) >> 7).view(
                    np.uint8
                )
                mask &= unsettled[:, low:]
                candidates = mask.view(bool)
                first = np.argmax(candidates, axis=1)
                found = candidates[batch_idx, first]
                if not found.any():
                    continue
                any_elimination = True
                pivot_of_slot[k] = first
                slot_found[k] = found
                mask[batch_idx, first] = np.uint8(0)
                pivot_bytes = pane[batch_idx, first + low]
                pane[:, low:] ^= pivot_bytes[:, None] & mask
                # Rows absorbing this pivot also absorb its pending
                # combination, so coefficients stay in group-start terms.
                combined = coeffs[batch_idx, first] ^ np.uint8(1 << k)
                coeffs ^= combined[:, None] & mask
                hit = np.nonzero(found)[0]
                unsettled[hit, first[hit] + low] = np.uint8(0)
                pivot[hit] += 1
            if any_elimination:
                # Replay the group's row operations at full width: XOR
                # tables of all 2^8 pivot-row combinations (built by
                # doubling from the group-start row values), then one
                # gather per word applies every row's coefficient.
                depth = n_words - word
                start_rows = work[word:, batch_idx[None, :], pivot_of_slot + low]
                start_rows = np.where(
                    slot_found[None, :, :], start_rows, np.uint64(0)
                )
                table = np.empty((depth, batch, 256), dtype=np.uint64)
                table[:, :, 0] = 0
                for i in range(group):
                    step = 1 << i
                    table[:, :, step : 2 * step] = (
                        table[:, :, :step] ^ start_rows[:, i, :, None]
                    )
                indices = coeffs.astype(np.intp)
                for w in range(depth):
                    work[word + w, :, low:] ^= np.take_along_axis(
                        table[w], indices, axis=1
                    )
            live = np.nonzero(unsettled[:, low:].any(axis=0))[0]
            low = low + (int(live[0]) if live.size else n_rows - low)
        if prefix is None:
            return pivot
        # Not captured: the prefix is every column, or the loop stopped
        # early with every row settled, after which no pivot count moves.
        return (pivot.copy() if prefix_rank is None else prefix_rank), pivot

    def is_full_rank(self) -> np.ndarray:
        """Boolean array: which matrices have rank ``min(rows, cols)``."""
        return self.rank() == min(self.rows, self.cols)

    def _check_like(self, other: "BitMatrixBatch") -> None:
        if (self.batch, self.rows, self.cols) != (
            other.batch,
            other.rows,
            other.cols,
        ):
            raise ValueError(
                f"batch shape mismatch: ({self.batch}, {self.rows}, {self.cols})"
                f" vs ({other.batch}, {other.rows}, {other.cols})"
            )

    def __repr__(self) -> str:
        return (
            f"BitMatrixBatch(batch={self.batch}, rows={self.rows}, "
            f"cols={self.cols})"
        )
