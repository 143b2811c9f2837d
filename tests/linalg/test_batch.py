"""Property tests: batched GF(2) kernels are bit-identical to the scalar
``BitMatrix``/``BitVector`` paths, including ragged tail-word widths
(``n % 64 != 0``) and empty/degenerate shapes."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.linalg import BitMatrix, BitMatrixBatch, BitVector, BitVectorBatch


def random_bits(rng, *shape):
    return rng.integers(0, 2, size=shape, dtype=np.uint8)


#: Shapes chosen to cross word boundaries in every direction, plus the
#: empty/degenerate corners, batches spanning one, two and three 64-matrix
#: lanes of the bit-sliced rank (the last one ragged), and single-word rows
#: on both sides of its ``rows × cols`` bound.
BATCH_SHAPES = [
    (4, 5, 5),
    (8, 7, 70),
    (3, 64, 64),
    (2, 65, 127),
    (1, 1, 1),
    (0, 5, 5),
    (5, 0, 7),
    (5, 7, 0),
    (6, 3, 200),
    (2, 130, 30),
    (130, 9, 17),
    (64, 32, 17),
    (70, 64, 64),
    (40, 128, 64),
    (12, 129, 64),
]


def scalar_ranks(arr):
    """``BitMatrix.rank`` (XOR basis, no batch path) of every matrix."""
    return [BitMatrix.from_array(a).rank() for a in arr]


class TestBitVectorBatch:
    @pytest.mark.parametrize("batch,n", [(4, 70), (1, 64), (3, 1), (0, 5), (2, 0)])
    def test_roundtrip(self, rng, batch, n):
        arr = random_bits(rng, batch, n)
        assert np.array_equal(BitVectorBatch.from_arrays(arr).to_arrays(), arr)

    def test_getitem_matches_scalar(self, rng):
        arr = random_bits(rng, 5, 90)
        vb = BitVectorBatch.from_arrays(arr)
        for i in range(5):
            assert vb[i] == BitVector.from_array(arr[i])

    def test_from_vectors(self, rng):
        vecs = [BitVector.random(70, rng) for _ in range(4)]
        vb = BitVectorBatch.from_vectors(vecs)
        assert list(vb) == vecs

    def test_from_vectors_mismatch_raises(self):
        with pytest.raises(ValueError):
            BitVectorBatch.from_vectors([BitVector.zeros(2), BitVector.zeros(3)])

    def test_xor_dots_weights(self, rng):
        a = random_bits(rng, 6, 77)
        b = random_bits(rng, 6, 77)
        va, vb = BitVectorBatch.from_arrays(a), BitVectorBatch.from_arrays(b)
        assert np.array_equal((va ^ vb).to_arrays(), a ^ b)
        assert np.array_equal(va.dots(vb), (a.astype(int) * b).sum(axis=1) % 2)
        assert np.array_equal(va.weights(), a.sum(axis=1))

    def test_random_tail_clear(self, rng):
        vb = BitVectorBatch.random(8, 70, rng)
        assert (vb.to_arrays().shape) == (8, 70)
        # repacking the unpacked bits must reproduce the words exactly
        assert np.array_equal(
            BitVectorBatch.from_arrays(vb.to_arrays()).words, vb.words
        )

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            BitVectorBatch.zeros(2, 5).dots(BitVectorBatch.zeros(2, 6))


class TestBitMatrixBatchKernels:
    @pytest.mark.parametrize("batch,rows,cols", BATCH_SHAPES)
    def test_roundtrip_and_getitem(self, rng, batch, rows, cols):
        arr = random_bits(rng, batch, rows, cols)
        mb = BitMatrixBatch.from_arrays(arr)
        assert np.array_equal(mb.to_arrays(), arr)
        for i in range(batch):
            assert mb[i] == BitMatrix.from_array(arr[i])

    @pytest.mark.parametrize("batch,rows,cols", BATCH_SHAPES)
    def test_rank_matches_scalar(self, rng, batch, rows, cols):
        arr = random_bits(rng, batch, rows, cols)
        mb = BitMatrixBatch.from_arrays(arr)
        assert np.array_equal(mb.rank(), scalar_ranks(arr))

    @pytest.mark.parametrize(
        "batch,rows,cols,path",
        [
            (2048, 32, 17, "_rank_bitsliced"),
            (70, 64, 64, "_rank_bitsliced"),
            (40, 128, 64, "_rank_bitsliced"),
            (12, 129, 64, "_rank_m4r"),
            (3, 64, 65, "_rank_m4r"),
        ],
    )
    def test_rank_picks_its_elimination_by_shape(
        self, monkeypatch, batch, rows, cols, path
    ):
        # Single-word rows up to 128×64 cells are bit-sliced; one more row
        # or a second word takes the method-of-four-Russians elimination.
        taken = []

        def spy(name):
            method = getattr(BitMatrixBatch, name)

            def record(self, prefix):
                taken.append(name)
                return method(self, prefix)

            return record

        for name in ("_rank_bitsliced", "_rank_m4r"):
            monkeypatch.setattr(BitMatrixBatch, name, spy(name))
        BitMatrixBatch.zeros(batch, rows, cols).rank()
        assert taken == [path]

    @pytest.mark.parametrize("batch,rows,cols", BATCH_SHAPES)
    def test_transpose_matches_scalar(self, rng, batch, rows, cols):
        arr = random_bits(rng, batch, rows, cols)
        mb = BitMatrixBatch.from_arrays(arr)
        assert np.array_equal(mb.transpose().to_arrays(), arr.transpose(0, 2, 1))

    @pytest.mark.parametrize("batch,rows,cols", BATCH_SHAPES)
    def test_matvec_vecmat_match_scalar(self, rng, batch, rows, cols):
        arr = random_bits(rng, batch, rows, cols)
        mb = BitMatrixBatch.from_arrays(arr)
        xs = random_bits(rng, batch, cols)
        got = mb.matvec(BitVectorBatch.from_arrays(xs)).to_arrays()
        for i in range(batch):
            scalar = BitMatrix.from_array(arr[i]).matvec(BitVector.from_array(xs[i]))
            assert np.array_equal(got[i], scalar.to_array())
        ys = random_bits(rng, batch, rows)
        got = mb.vecmat(BitVectorBatch.from_arrays(ys)).to_arrays()
        for i in range(batch):
            scalar = BitMatrix.from_array(arr[i]).vecmat(BitVector.from_array(ys[i]))
            assert np.array_equal(got[i], scalar.to_array())

    @pytest.mark.parametrize("batch,rows,cols", BATCH_SHAPES)
    def test_matmul_matches_scalar(self, rng, batch, rows, cols):
        arr = random_bits(rng, batch, rows, cols)
        other = random_bits(rng, batch, cols, 9)
        got = (
            BitMatrixBatch.from_arrays(arr)
            .matmul(BitMatrixBatch.from_arrays(other))
            .to_arrays()
        )
        for i in range(batch):
            scalar = BitMatrix.from_array(arr[i]).matmul(BitMatrix.from_array(other[i]))
            assert np.array_equal(got[i], scalar.to_array())

    def test_from_arrays_packs_a_strided_slice(self, rng):
        # The seed-length attack packs the leading columns of a wider stack.
        stack = random_bits(rng, 6, 5, 48) * np.uint8(3)
        arr = stack[:, :, :17]
        mb = BitMatrixBatch.from_arrays(arr)
        assert np.array_equal(mb.to_arrays(), arr != 0)
        assert np.array_equal(
            mb.words, BitMatrixBatch.from_arrays(np.ascontiguousarray(arr)).words
        )
        for i in range(6):
            assert mb[i] == BitMatrix.from_array(arr[i])

    def test_rank_structured_batches(self, rng):
        # duplicate rows, zero matrices and low-rank products in one batch
        arr = random_bits(rng, 30, 20, 20)
        arr[:10] = 0
        arr[10:20, 10:] = arr[10:20, :10]
        mb = BitMatrixBatch.from_arrays(arr)
        assert np.array_equal(
            mb.rank(), [BitMatrix.from_array(a).rank() for a in arr]
        )

    def test_xor(self, rng):
        a = random_bits(rng, 3, 5, 70)
        b = random_bits(rng, 3, 5, 70)
        got = BitMatrixBatch.from_arrays(a) ^ BitMatrixBatch.from_arrays(b)
        assert np.array_equal(got.to_arrays(), a ^ b)

    def test_from_matrices(self, rng):
        mats = [BitMatrix.random(6, 70, rng) for _ in range(5)]
        mb = BitMatrixBatch.from_matrices(mats)
        assert list(mb) == mats
        assert BitMatrixBatch.from_matrices([]).batch == 0

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            BitMatrixBatch.from_arrays(np.zeros((2, 2)))
        with pytest.raises(ValueError):
            BitMatrixBatch.zeros(2, 3, 4).matmul(BitMatrixBatch.zeros(2, 5, 4))
        with pytest.raises(ValueError):
            BitMatrixBatch.zeros(2, 3, 4).matmul(BitMatrixBatch.zeros(3, 4, 4))
        with pytest.raises(ValueError):
            BitMatrixBatch.zeros(2, 3, 4).matvec(BitVectorBatch.zeros(2, 3))
        with pytest.raises(ValueError):
            BitMatrixBatch.zeros(2, 3, 4).vecmat(BitVectorBatch.zeros(2, 4))


def assert_prefix_rank_matches(arr, k):
    """One elimination with ``prefix=k`` against two scalar ranks."""
    prefix_rank, rank = BitMatrixBatch.from_arrays(arr).rank(prefix=k)
    assert np.array_equal(prefix_rank, scalar_ranks(arr[:, :, :k]))
    assert np.array_equal(rank, scalar_ranks(arr))


class TestPrefixRank:
    @pytest.mark.parametrize("batch,rows,cols", BATCH_SHAPES)
    def test_corner_prefixes(self, rng, batch, rows, cols):
        arr = random_bits(rng, batch, rows, cols)
        for k in sorted({0, cols // 2, max(cols - 1, 0), cols}):
            assert_prefix_rank_matches(arr, k)

    def test_early_exit_once_every_row_is_settled(self, rng):
        # Identity-led rows are all settled within the first byte group,
        # so the elimination stops before it reaches most prefixes.
        arr = random_bits(rng, 5, 4, 40)
        arr[:, :, :4] = np.eye(4, dtype=np.uint8)
        for k in (3, 4, 13, 20, 40):
            assert_prefix_rank_matches(arr, k)

    def test_early_exit_on_multi_word_rows(self, rng):
        # The same settled-rows exit on the method-of-four-Russians side.
        arr = random_bits(rng, 5, 4, 100)
        arr[:, :, :4] = np.eye(4, dtype=np.uint8)
        for k in (3, 4, 13, 20, 64, 100):
            assert_prefix_rank_matches(arr, k)

    def test_seed_length_attack_shape(self, rng):
        # ``[X | y]`` blocks of 32 processors at seed length 16: y = X·m on
        # the first half (consistent, rank unchanged), uniform on the rest.
        seeds = random_bits(rng, 2048, 32, 16)
        tails = random_bits(rng, 2048, 32, 1)
        m = random_bits(rng, 1024, 16, 1)
        tails[:1024] = (seeds[:1024].astype(np.int64) @ m) % 2
        arr = np.concatenate([seeds, tails], axis=2)
        assert_prefix_rank_matches(arr, 16)
        prefix_rank, rank = BitMatrixBatch.from_arrays(arr).rank(prefix=16)
        assert (prefix_rank[:1024] == rank[:1024]).all()
        assert (prefix_rank[1024:] != rank[1024:]).any()

    def test_rejects_out_of_range_prefix(self):
        batch = BitMatrixBatch.zeros(2, 3, 5)
        for k in (-1, 6):
            with pytest.raises(ValueError):
                batch.rank(prefix=k)


class TestBatchedSampling:
    def test_random_matches_from_arrays_packing(self, rng):
        mb = BitMatrixBatch.random(4, 7, 70, rng)
        assert np.array_equal(
            BitMatrixBatch.from_arrays(mb.to_arrays()).words, mb.words
        )

    @pytest.mark.parametrize("r", [0, 1, 3, 6])
    def test_random_with_rank(self, rng, r):
        sample = BitMatrixBatch.random_with_rank(20, 6, 9, r, rng)
        assert sample.batch == 20
        assert np.array_equal(sample.rank(), np.full(20, r))

    def test_random_with_rank_impossible(self, rng):
        with pytest.raises(ValueError):
            BitMatrixBatch.random_with_rank(4, 3, 3, 5, rng)

    def test_is_full_rank(self, rng):
        mb = BitMatrixBatch.random_with_rank(10, 5, 8, 5, rng)
        assert mb.is_full_rank().all()
        assert not BitMatrixBatch.zeros(3, 4, 4).is_full_rank().any()


@given(
    batch=st.integers(1, 150),
    rows=st.integers(1, 20),
    cols=st.integers(1, 150),
    seed=st.integers(0, 2**31),
)
@settings(max_examples=40, deadline=None)
def test_rank_property(batch, rows, cols, seed):
    rng = np.random.default_rng(seed)
    arr = rng.integers(0, 2, size=(batch, rows, cols), dtype=np.uint8)
    mb = BitMatrixBatch.from_arrays(arr)
    assert np.array_equal(mb.rank(), scalar_ranks(arr))


@given(
    batch=st.integers(1, 150),
    rows=st.integers(1, 20),
    cols=st.integers(1, 150),
    k=st.integers(0, 150),
    seed=st.integers(0, 2**31),
)
@example(batch=3, rows=5, cols=70, k=0, seed=1)
@example(batch=3, rows=5, cols=70, k=70, seed=1)
@example(batch=4, rows=20, cols=30, k=13, seed=2)
@example(batch=4, rows=2, cols=100, k=50, seed=3)
@settings(max_examples=40, deadline=None)
def test_prefix_rank_property(batch, rows, cols, k, seed):
    rng = np.random.default_rng(seed)
    arr = rng.integers(0, 2, size=(batch, rows, cols), dtype=np.uint8)
    assert_prefix_rank_matches(arr, min(k, cols))


@given(
    batch=st.integers(1, 5),
    rows=st.integers(1, 20),
    cols=st.integers(1, 130),
    seed=st.integers(0, 2**31),
)
@settings(max_examples=40, deadline=None)
def test_transpose_vecmat_property(batch, rows, cols, seed):
    rng = np.random.default_rng(seed)
    arr = rng.integers(0, 2, size=(batch, rows, cols), dtype=np.uint8)
    mb = BitMatrixBatch.from_arrays(arr)
    assert np.array_equal(mb.transpose().to_arrays(), arr.transpose(0, 2, 1))
    ys = rng.integers(0, 2, size=(batch, rows), dtype=np.uint8)
    got = mb.vecmat(BitVectorBatch.from_arrays(ys)).to_arrays()
    want = np.stack([(y.astype(int) @ a) % 2 for y, a in zip(ys, arr)])
    assert np.array_equal(got, want.astype(np.uint8))
