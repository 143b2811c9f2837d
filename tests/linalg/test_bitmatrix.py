"""Unit and property tests for GF(2) bit matrices."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.linalg import BitMatrix, BitVector, count_matrices_of_rank


def numpy_gf2_rank(arr: np.ndarray) -> int:
    """Reference rank via plain-array Gaussian elimination (the naive
    ablation baseline for the bit-packed implementation)."""
    work = (np.asarray(arr) % 2).astype(np.int64)
    rows, cols = work.shape
    rank = 0
    for col in range(cols):
        pivot = None
        for r in range(rank, rows):
            if work[r, col]:
                pivot = r
                break
        if pivot is None:
            continue
        work[[rank, pivot]] = work[[pivot, rank]]
        for r in range(rows):
            if r != rank and work[r, col]:
                work[r] ^= work[rank]
        rank += 1
    return rank


class TestConstruction:
    def test_zeros(self):
        m = BitMatrix.zeros(3, 70)
        assert (m.to_array() == 0).all()
        assert m.rows == 3 and m.cols == 70

    def test_identity(self):
        m = BitMatrix.identity(5)
        assert np.array_equal(m.to_array(), np.eye(5, dtype=np.uint8))
        assert m.rank() == 5

    def test_from_array_roundtrip(self, rng):
        arr = rng.integers(0, 2, size=(7, 130), dtype=np.uint8)
        assert np.array_equal(BitMatrix.from_array(arr).to_array(), arr)

    def test_from_rows(self):
        rows = [BitVector.from_bits([1, 0, 1]), BitVector.from_bits([0, 1, 1])]
        m = BitMatrix.from_rows(rows)
        assert np.array_equal(
            m.to_array(), np.array([[1, 0, 1], [0, 1, 1]], dtype=np.uint8)
        )

    @pytest.mark.parametrize(
        "rows, cols", [(7, 130), (5, 64), (4, 3), (3, 0), (0, 5)]
    )
    def test_from_ints_matches_from_array(self, rng, rows, cols):
        arr = rng.integers(0, 2, size=(rows, cols), dtype=np.uint8)
        ints = [sum(int(b) << j for j, b in enumerate(row)) for row in arr]
        m = BitMatrix.from_ints(ints, cols)
        assert m == BitMatrix.from_array(arr)
        assert m.rank() == numpy_gf2_rank(arr)
        if rows and cols:
            m.set(0, 0, 1)  # the backing store is writable

    @pytest.mark.parametrize("row", [-1, 1 << 3, 1 << 64])
    def test_from_ints_rejects_rows_outside_the_columns(self, row):
        with pytest.raises(ValueError):
            BitMatrix.from_ints([0, row], 3)

    def test_from_rows_mismatched_raises(self):
        with pytest.raises(ValueError):
            BitMatrix.from_rows(
                [BitVector.zeros(2), BitVector.zeros(3)]
            )

    def test_from_rows_empty(self):
        m = BitMatrix.from_rows([])
        assert m.rows == 0 and m.cols == 0

    def test_non_2d_raises(self):
        with pytest.raises(ValueError):
            BitMatrix.from_array(np.zeros(4))

    def test_random_shape(self, rng):
        m = BitMatrix.random(5, 100, rng)
        assert m.to_array().shape == (5, 100)


class TestAccess:
    def test_get_set(self):
        m = BitMatrix.zeros(4, 90)
        m.set(2, 75, 1)
        assert m.get(2, 75) == 1
        m.set(2, 75, 0)
        assert m.get(2, 75) == 0

    def test_out_of_range(self):
        m = BitMatrix.zeros(2, 2)
        with pytest.raises(IndexError):
            m.get(2, 0)

    def test_row_column(self, rng):
        arr = rng.integers(0, 2, size=(4, 6), dtype=np.uint8)
        m = BitMatrix.from_array(arr)
        assert np.array_equal(m.row(1).to_array(), arr[1])
        assert np.array_equal(m.column(3).to_array(), arr[:, 3])

    def test_set_row(self):
        m = BitMatrix.zeros(2, 3)
        m.set_row(0, BitVector.from_bits([1, 1, 0]))
        assert np.array_equal(m.row(0).to_array(), [1, 1, 0])

    def test_submatrix(self, rng):
        arr = rng.integers(0, 2, size=(5, 5), dtype=np.uint8)
        m = BitMatrix.from_array(arr)
        assert np.array_equal(m.submatrix(3, 2).to_array(), arr[:3, :2])

    def test_submatrix_too_large(self):
        with pytest.raises(ValueError):
            BitMatrix.zeros(2, 2).submatrix(3, 1)


class TestArithmetic:
    def test_xor(self, rng):
        a = rng.integers(0, 2, size=(3, 80), dtype=np.uint8)
        b = rng.integers(0, 2, size=(3, 80), dtype=np.uint8)
        result = BitMatrix.from_array(a) ^ BitMatrix.from_array(b)
        assert np.array_equal(result.to_array(), a ^ b)

    def test_matvec_matches_numpy(self, rng):
        arr = rng.integers(0, 2, size=(6, 70), dtype=np.uint8)
        vec = rng.integers(0, 2, size=70, dtype=np.uint8)
        result = BitMatrix.from_array(arr).matvec(BitVector.from_array(vec))
        assert np.array_equal(result.to_array(), (arr @ vec) % 2)

    def test_vecmat_matches_numpy(self, rng):
        arr = rng.integers(0, 2, size=(6, 70), dtype=np.uint8)
        vec = rng.integers(0, 2, size=6, dtype=np.uint8)
        result = BitMatrix.from_array(arr).vecmat(BitVector.from_array(vec))
        assert np.array_equal(result.to_array(), (vec @ arr) % 2)

    def test_matmul_matches_numpy(self, rng):
        a = rng.integers(0, 2, size=(5, 40), dtype=np.uint8)
        b = rng.integers(0, 2, size=(40, 9), dtype=np.uint8)
        result = BitMatrix.from_array(a).matmul(BitMatrix.from_array(b))
        assert np.array_equal(result.to_array(), (a @ b) % 2)

    def test_matmul_dimension_mismatch(self):
        with pytest.raises(ValueError):
            BitMatrix.zeros(2, 3).matmul(BitMatrix.zeros(4, 2))

    def test_transpose(self, rng):
        arr = rng.integers(0, 2, size=(4, 7), dtype=np.uint8)
        assert np.array_equal(
            BitMatrix.from_array(arr).transpose().to_array(), arr.T
        )


class TestRank:
    def test_identity_full_rank(self):
        assert BitMatrix.identity(8).is_full_rank()

    def test_zero_matrix_rank_zero(self):
        assert BitMatrix.zeros(4, 4).rank() == 0

    def test_duplicate_rows_reduce_rank(self):
        arr = np.array([[1, 0, 1], [1, 0, 1], [0, 1, 0]], dtype=np.uint8)
        assert BitMatrix.from_array(arr).rank() == 2

    def test_rank_matches_reference(self, rng):
        for _ in range(20):
            arr = rng.integers(0, 2, size=(10, 13), dtype=np.uint8)
            assert BitMatrix.from_array(arr).rank() == numpy_gf2_rank(arr)

    def test_wide_matrix(self, rng):
        arr = rng.integers(0, 2, size=(3, 200), dtype=np.uint8)
        assert BitMatrix.from_array(arr).rank() == numpy_gf2_rank(arr)

    def test_row_space_contains(self):
        arr = np.array([[1, 0, 0], [0, 1, 0]], dtype=np.uint8)
        m = BitMatrix.from_array(arr)
        assert m.row_space_contains(BitVector.from_bits([1, 1, 0]))
        assert not m.row_space_contains(BitVector.from_bits([0, 0, 1]))

    def test_rank_invariant_under_row_ops(self, rng):
        arr = rng.integers(0, 2, size=(6, 6), dtype=np.uint8)
        base = BitMatrix.from_array(arr).rank()
        arr2 = arr.copy()
        arr2[0] ^= arr2[1]  # row operation preserves rank
        assert BitMatrix.from_array(arr2).rank() == base

    @pytest.mark.parametrize("rows,cols", [(2, 5), (3, 4), (4, 4)])
    def test_rank_histogram_matches_exact_count(self, rows, cols):
        # Every rows × cols matrix, once: the rank histogram must equal the
        # closed-form count of matrices of each rank.
        codes = np.arange(2 ** (rows * cols), dtype=np.int64)
        bits = (codes[:, None] >> np.arange(rows * cols)) & 1
        stack = bits.reshape(-1, rows, cols).astype(np.uint8)
        ranks = [BitMatrix.from_array(arr).rank() for arr in stack]
        histogram = np.bincount(ranks, minlength=min(rows, cols) + 1)
        expected = [
            count_matrices_of_rank(rows, cols, r) for r in range(min(rows, cols) + 1)
        ]
        assert histogram.tolist() == expected

    @pytest.mark.parametrize("cols", [63, 64, 65, 127, 128, 129])
    def test_word_boundary_columns(self, rng, cols):
        for rows in (3, cols - 1, cols + 2):
            arr = rng.integers(0, 2, size=(rows, cols), dtype=np.uint8)
            assert BitMatrix.from_array(arr).rank() == numpy_gf2_rank(arr)
        # A set bit only in the last column must still count.
        last = np.zeros((2, cols), dtype=np.uint8)
        last[1, -1] = 1
        assert BitMatrix.from_array(last).rank() == 1

    @pytest.mark.parametrize("rows,cols", [(5, 0), (0, 7), (0, 0), (0, 130)])
    def test_empty_matrices_have_rank_zero(self, rows, cols):
        m = BitMatrix.zeros(rows, cols)
        assert m.rank() == 0
        assert m.is_full_rank()

    def test_multiword_full_rank_and_row_space(self, rng):
        tail = rng.integers(0, 2, size=(5, 95), dtype=np.uint8)
        arr = np.hstack([np.eye(5, dtype=np.uint8), tail])
        m = BitMatrix.from_array(arr)
        assert m.is_full_rank()
        assert m.row_space_contains(BitVector.from_array(arr[1] ^ arr[3]))
        outside = np.zeros(100, dtype=np.uint8)
        outside[99] = 1
        assert not m.row_space_contains(BitVector.from_array(outside))
        dependent = np.vstack([arr, arr[0] ^ arr[4]])
        assert not BitMatrix.from_array(dependent).is_full_rank()


class TestDunder:
    def test_equality_hash(self, rng):
        arr = rng.integers(0, 2, size=(3, 3), dtype=np.uint8)
        a, b = BitMatrix.from_array(arr), BitMatrix.from_array(arr)
        assert a == b and hash(a) == hash(b)

    def test_copy_independent(self):
        a = BitMatrix.zeros(2, 2)
        b = a.copy()
        b.set(0, 0, 1)
        assert a.get(0, 0) == 0


@given(
    rows=st.integers(0, 70),
    cols=st.integers(0, 130),
    seed=st.integers(0, 2**31),
)
@settings(max_examples=40, deadline=None)
def test_rank_property(rows, cols, seed):
    rng = np.random.default_rng(seed)
    arr = rng.integers(0, 2, size=(rows, cols), dtype=np.uint8)
    m = BitMatrix.from_array(arr)
    r = m.rank()
    assert r == numpy_gf2_rank(arr)
    assert 0 <= r <= min(rows, cols)
    assert m.transpose().rank() == r  # rank is transpose-invariant


@given(
    n=st.integers(1, 6),
    inner=st.integers(1, 40),
    m=st.integers(1, 6),
    seed=st.integers(0, 2**31),
)
@settings(max_examples=40, deadline=None)
def test_matmul_property(n, inner, m, seed):
    rng = np.random.default_rng(seed)
    a = rng.integers(0, 2, size=(n, inner), dtype=np.uint8)
    b = rng.integers(0, 2, size=(inner, m), dtype=np.uint8)
    result = BitMatrix.from_array(a).matmul(BitMatrix.from_array(b))
    assert np.array_equal(result.to_array(), (a @ b) % 2)


class TestWordLevelOps:
    """The kernels rewritten to pure word-level numpy in the batch PR."""

    def test_hconcat(self, rng):
        for c_left, c_right in [(70, 3), (64, 64), (1, 127), (0, 9), (9, 0), (63, 2)]:
            a = rng.integers(0, 2, size=(4, c_left), dtype=np.uint8)
            b = rng.integers(0, 2, size=(4, c_right), dtype=np.uint8)
            got = BitMatrix.from_array(a).hconcat(BitMatrix.from_array(b))
            assert np.array_equal(got.to_array(), np.hstack([a, b]))

    def test_hconcat_row_mismatch_raises(self):
        with pytest.raises(ValueError):
            BitMatrix.zeros(2, 3).hconcat(BitMatrix.zeros(3, 3))

    def test_transpose_ragged_shapes(self, rng):
        for rows, cols in [(65, 127), (130, 70), (1, 100), (100, 1), (64, 64)]:
            arr = rng.integers(0, 2, size=(rows, cols), dtype=np.uint8)
            assert np.array_equal(
                BitMatrix.from_array(arr).transpose().to_array(), arr.T
            )

    def test_column_ragged(self, rng):
        arr = rng.integers(0, 2, size=(70, 130), dtype=np.uint8)
        m = BitMatrix.from_array(arr)
        for j in [0, 63, 64, 129]:
            assert np.array_equal(m.column(j).to_array(), arr[:, j])
        with pytest.raises(IndexError):
            m.column(130)

    def test_submatrix_word_sliced(self, rng):
        arr = rng.integers(0, 2, size=(10, 150), dtype=np.uint8)
        m = BitMatrix.from_array(arr)
        for rows, cols in [(10, 150), (3, 64), (7, 65), (0, 10), (10, 0)]:
            sub = m.submatrix(rows, cols)
            assert np.array_equal(sub.to_array(), arr[:rows, :cols])
            # tail words must be masked clean for equality/hash semantics
            assert sub == BitMatrix.from_array(arr[:rows, :cols])

    def test_identity_crosses_words(self):
        m = BitMatrix.identity(130)
        assert np.array_equal(m.to_array(), np.eye(130, dtype=np.uint8))

    def test_matmul_blocked_matches_unblocked(self, rng, monkeypatch):
        import repro.linalg.bitmatrix as bitmatrix_module

        a = rng.integers(0, 2, size=(30, 100), dtype=np.uint8)
        b = rng.integers(0, 2, size=(100, 45), dtype=np.uint8)
        expected = (a.astype(np.int64) @ b) % 2
        # force many tiny blocks: the blocking must be invisible
        monkeypatch.setattr(bitmatrix_module, "_MATMUL_BLOCK_BYTES", 64)
        got = BitMatrix.from_array(a).matmul(BitMatrix.from_array(b))
        assert np.array_equal(got.to_array(), expected)
