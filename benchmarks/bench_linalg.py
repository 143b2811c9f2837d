"""Ablation — bit-packed GF(2) kernels vs naive mod-2 numpy, plus the
batched-kernel performance trajectory.

The DESIGN.md ablation: the packed representation must agree with the
naive implementation bit-for-bit and be faster on the sizes the
experiments use.  The timing entries benchmark the three hot kernels
(rank, matmul, vecmat — the PRG's per-processor operation).

Running this file as a script (or ``pytest benchmarks/bench_linalg.py``)
additionally measures the batched kernel layer against the **pre-PR
scalar implementations** (frozen verbatim below as ``_legacy_*``) and
writes the medians to ``BENCH_linalg.json`` in the repo root — the
machine-readable perf trajectory CI uploads as an artifact.  The claims
it asserts: batched lock-step rank is ≥ 10× faster than 256 scalar
eliminations at n = 256, the masked-XOR ``vecmat`` is ≥ 5× faster
than the pre-PR per-bit row loop at n = 4096, and the XOR-basis scalar
``rank`` is ≥ 5× faster than the column-elimination loop at 32×32 (the
shape ``TopSubmatrixRankProtocol(32)`` ranks once per trial; the 8×8 and
256×256 scalar records are recorded, not gated).  The ``rank_prefix`` record
is the seed-length attack's shape (2048 blocks of 32×17, prefix 16), which
``rank`` eliminates bit-sliced: gated ≥ 3× faster than the
method-of-four-Russians elimination run on the same words.  The
``rank_m4r_side`` record times both eliminations on the first single-word
shape past the bit-sliced bound (recorded, not gated), so the artifact
shows where that bound sits.  The ``transpose`` record times
``BitMatrixBatch.transpose`` on the seed-length attack's shape (recorded,
not gated).
"""

import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).parent))
from _util import median_ns, print_table, write_bench_json

from repro.linalg import BitMatrix, BitMatrixBatch, BitVector

N = 256

#: Batched-rank acceptance shape: 256 uniform 256×256 matrices.
RANK_BATCH = 256
RANK_N = 256
#: Scalar ``BitMatrix.rank`` shapes (n × n): the blocks the scalar paths
#: rank one trial at a time (8 on ``budget-sweep-pool``, 32 on
#: ``hierarchy-scalar``) and the batched acceptance size.
SCALAR_RANK_NS = (8, 32, RANK_N)
#: Gated scalar shape and its bar over ``_legacy_rank``.
SCALAR_RANK_GATED_N = 32
SCALAR_RANK_BAR = 5.0
#: vecmat acceptance shape: x^T M with M uniform 4096×4096.
VECMAT_N = 4096
#: Prefix-rank shape: the seed-length attack's ``[X | y]`` blocks on the
#: ``prg-vectorized`` workload (n = 32 processors, seed length k = 16),
#: and its bar: bit-sliced ``rank`` over the M4R elimination.
PREFIX_BATCH, PREFIX_ROWS, PREFIX_K = 2048, 32, 16
PREFIX_BAR = 3.0
#: Single-word rows one doubling past the bit-sliced ``rows × cols`` bound,
#: where ``rank`` takes the M4R elimination.
M4R_SIDE_ROWS, M4R_SIDE_COLS = 256, 64

BENCH_JSON = Path(__file__).resolve().parent.parent / "BENCH_linalg.json"


# ----------------------------------------------------------------------
# Pre-PR scalar implementations, frozen verbatim as the speedup baseline
# ----------------------------------------------------------------------
def _legacy_vecmat(matrix: BitMatrix, vec: BitVector) -> BitVector:
    """``vec^T @ matrix`` as shipped before the batched-kernel layer: a
    Python loop over rows with per-bit vector indexing."""
    acc = np.zeros(matrix.words.shape[1], dtype=np.uint64)
    for i in range(matrix.rows):
        if vec[i]:
            acc ^= matrix.words[i]
    return BitVector(matrix.cols, acc)


def _legacy_rank(matrix: BitMatrix) -> int:
    """Gaussian-elimination rank as shipped before the batched layer: one
    Python pass per pivot column per matrix."""
    work = matrix.words.copy()
    n_rows = matrix.rows
    pivot_row = 0
    for j in range(matrix.cols):
        if pivot_row >= n_rows:
            break
        word, bit = j // 64, np.uint64(j % 64)
        col_bits = (work[pivot_row:, word] >> bit) & np.uint64(1)
        hits = np.nonzero(col_bits)[0]
        if hits.size == 0:
            continue
        pivot = pivot_row + int(hits[0])
        if pivot != pivot_row:
            work[[pivot_row, pivot]] = work[[pivot, pivot_row]]
        below = (work[pivot_row + 1 :, word] >> bit) & np.uint64(1)
        mask = below.astype(bool)
        work[pivot_row + 1 :][mask] ^= work[pivot_row]
        pivot_row += 1
    return pivot_row


# ----------------------------------------------------------------------
# JSON trajectory bench
# ----------------------------------------------------------------------
def collect_linalg_records() -> list[dict]:
    """Time the hot kernels against the frozen baselines.

    Returns one record per kernel with median ns/op (and per-matrix cost
    plus speedup for the batched entries).
    """
    rng = np.random.default_rng(20260730)

    # vecmat at n=4096: masked XOR-reduce vs per-bit row loop.
    big = BitMatrix.random(VECMAT_N, VECMAT_N, rng)
    x = BitVector.random(VECMAT_N, rng)
    assert big.vecmat(x) == _legacy_vecmat(big, x)
    vecmat_ns = median_ns(big.vecmat, x, repeats=9)
    vecmat_legacy_ns = median_ns(_legacy_vecmat, big, x, repeats=5)

    # matvec at n=4096 (popcount parities; no legacy loop to compare).
    matvec_ns = median_ns(big.matvec, x, repeats=9)

    # scalar XOR-basis rank vs the legacy column elimination, one matrix
    # at a time, at the shapes the scalar paths rank.
    scalar_records = []
    for n in SCALAR_RANK_NS:
        matrix = BitMatrix.random(n, n, rng)
        assert matrix.rank() == _legacy_rank(matrix)
        number = max(1, 4096 // (n * n))
        scalar_ns = median_ns(matrix.rank, repeats=9, number=number)
        legacy_ns = median_ns(_legacy_rank, matrix, repeats=9, number=number)
        scalar_records.append(
            {
                "kernel": "rank",
                "n": n,
                "ns_per_op": scalar_ns,
                "legacy_ns_per_op": legacy_ns,
                "speedup": legacy_ns / scalar_ns,
            }
        )

    # the batched lock-step elimination over 256 matrices vs 256 legacy
    # scalar eliminations.
    batch = BitMatrixBatch.random(RANK_BATCH, RANK_N, RANK_N, rng)
    matrices = list(batch)
    legacy_ranks = [_legacy_rank(m) for m in matrices]
    assert np.array_equal(batch.rank(), legacy_ranks)
    assert [m.rank() for m in matrices] == legacy_ranks
    rank_batched_ns = median_ns(batch.rank, repeats=5)
    rank_legacy_ns = median_ns(
        lambda: [_legacy_rank(m) for m in matrices], repeats=3
    )

    # The attack's consistency test needs rank([X | y]) and rank(X) from
    # one elimination: bit-sliced (what rank() picks) vs M4R, same words.
    revealed = rng.integers(
        0, 2, size=(PREFIX_BATCH, PREFIX_ROWS, PREFIX_K + 1), dtype=np.uint8
    )
    full = BitMatrixBatch.from_arrays(revealed)
    sliced, m4r = full.rank(prefix=PREFIX_K), full._rank_m4r(PREFIX_K)
    assert all(np.array_equal(a, b) for a, b in zip(sliced, m4r))
    prefix_ns = median_ns(full.rank, PREFIX_K, repeats=9)
    prefix_m4r_ns = median_ns(full._rank_m4r, PREFIX_K, repeats=9)

    # The batched word-level transpose of the same blocks.
    assert np.array_equal(full.transpose().to_arrays(), revealed.transpose(0, 2, 1))
    transpose_ns = median_ns(full.transpose, repeats=9)

    # Past the bound rank() takes M4R; time the bit-sliced path there too.
    past = BitMatrixBatch.random(PREFIX_BATCH, M4R_SIDE_ROWS, M4R_SIDE_COLS, rng)
    assert np.array_equal(past.rank(), past._rank_bitsliced(None))
    past_ns = median_ns(past.rank, repeats=5)
    past_bitsliced_ns = median_ns(past._rank_bitsliced, None, repeats=5)

    return [
        {
            "kernel": "matvec",
            "n": VECMAT_N,
            "ns_per_op": matvec_ns,
        },
        {
            "kernel": "vecmat",
            "n": VECMAT_N,
            "ns_per_op": vecmat_ns,
            "legacy_ns_per_op": vecmat_legacy_ns,
            "speedup": vecmat_legacy_ns / vecmat_ns,
        },
        *scalar_records,
        {
            "kernel": "rank_batched",
            "n": RANK_N,
            "batch": RANK_BATCH,
            "ns_per_op": rank_batched_ns,
            "ns_per_matrix": rank_batched_ns / RANK_BATCH,
            "legacy_ns_per_op": rank_legacy_ns,
            "speedup": rank_legacy_ns / rank_batched_ns,
        },
        {
            "kernel": "rank_prefix",
            "n": PREFIX_ROWS,
            "cols": PREFIX_K + 1,
            "prefix": PREFIX_K,
            "batch": PREFIX_BATCH,
            "ns_per_op": prefix_ns,
            "m4r_ns_per_op": prefix_m4r_ns,
            "speedup": prefix_m4r_ns / prefix_ns,
        },
        {
            "kernel": "transpose",
            "n": PREFIX_ROWS,
            "cols": PREFIX_K + 1,
            "batch": PREFIX_BATCH,
            "ns_per_op": transpose_ns,
            "ns_per_matrix": transpose_ns / PREFIX_BATCH,
        },
        {
            "kernel": "rank_m4r_side",
            "n": M4R_SIDE_ROWS,
            "cols": M4R_SIDE_COLS,
            "batch": PREFIX_BATCH,
            "ns_per_op": past_ns,
            "bitsliced_ns_per_op": past_bitsliced_ns,
            "speedup": past_bitsliced_ns / past_ns,
        },
    ]


def _report(records: list[dict]) -> None:
    print_table(
        "GF(2) kernel trajectory (medians)",
        ["kernel", "shape", "ns/op", "legacy ns/op", "speedup"],
        [
            [
                r["kernel"],
                f"batch={r['batch']} n={r['n']}" if "batch" in r else f"n={r['n']}",
                r["ns_per_op"],
                r.get("legacy_ns_per_op", "-"),
                r.get("speedup", "-"),
            ]
            for r in records
        ],
    )
    for r in records:
        if r["kernel"] in ("rank_prefix", "rank_m4r_side"):
            print(
                f"{r['kernel']} (batch={r['batch']}, {r['n']}x{r['cols']}): "
                f"rank() {r['speedup']:.2f}x the other elimination"
            )
    write_bench_json(BENCH_JSON, records)
    print(f"wrote {BENCH_JSON}")


def _assert_speedups(records: list[dict]) -> None:
    by_kernel = {r["kernel"]: r for r in records if r["kernel"] != "rank"}
    scalar_rank = {r["n"]: r for r in records if r["kernel"] == "rank"}
    rank_speedup = by_kernel["rank_batched"]["speedup"]
    vecmat_speedup = by_kernel["vecmat"]["speedup"]
    scalar_speedup = scalar_rank[SCALAR_RANK_GATED_N]["speedup"]
    prefix_speedup = by_kernel["rank_prefix"]["speedup"]
    assert rank_speedup >= 10.0, (
        f"batched rank speedup {rank_speedup:.1f}x below the 10x bar"
    )
    assert vecmat_speedup >= 5.0, (
        f"vecmat speedup {vecmat_speedup:.1f}x below the 5x bar"
    )
    assert scalar_speedup >= SCALAR_RANK_BAR, (
        f"scalar rank speedup {scalar_speedup:.1f}x at n={SCALAR_RANK_GATED_N} "
        f"below the {SCALAR_RANK_BAR:.0f}x bar"
    )
    assert prefix_speedup >= PREFIX_BAR, (
        f"bit-sliced prefix rank {prefix_speedup:.1f}x over M4R below the "
        f"{PREFIX_BAR:.0f}x bar"
    )


def test_batched_kernel_trajectory():
    """Batched rank ≥ 10×, vecmat ≥ 5× and 32×32 scalar rank ≥ 5× over
    the pre-PR kernels, and the attack's bit-sliced prefix rank ≥ 3× over
    M4R, with medians recorded in BENCH_linalg.json."""
    records = collect_linalg_records()
    _report(records)
    _assert_speedups(records)


def naive_rank(arr):
    work = arr.astype(np.int64).copy()
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


def test_rank_packed(benchmark):
    rng = np.random.default_rng(0)
    arr = rng.integers(0, 2, size=(N, N), dtype=np.uint8)
    matrix = BitMatrix.from_array(arr)
    result = benchmark(matrix.rank)
    assert result == naive_rank(arr)


def test_rank_naive_baseline(benchmark):
    rng = np.random.default_rng(0)
    arr = rng.integers(0, 2, size=(N, N), dtype=np.uint8)
    benchmark(naive_rank, arr)


def test_matmul_packed(benchmark):
    rng = np.random.default_rng(1)
    a = rng.integers(0, 2, size=(N, N), dtype=np.uint8)
    b = rng.integers(0, 2, size=(N, N), dtype=np.uint8)
    ma, mb = BitMatrix.from_array(a), BitMatrix.from_array(b)
    result = benchmark(ma.matmul, mb)
    assert np.array_equal(result.to_array(), (a.astype(np.int64) @ b) % 2)


def test_vecmat_packed(benchmark):
    """The PRG's per-processor operation: x^T M."""
    rng = np.random.default_rng(2)
    m = BitMatrix.random(64, 1024, rng)
    x = BitVector.random(64, rng)
    result = benchmark(m.vecmat, x)
    expected = (x.to_array().astype(np.int64) @ m.to_array()) % 2
    assert np.array_equal(result.to_array(), expected)


def test_dot_packed(benchmark):
    rng = np.random.default_rng(3)
    a = BitVector.random(4096, rng)
    b = BitVector.random(4096, rng)
    result = benchmark(a.dot, b)
    assert result == int(a.to_array() @ b.to_array()) % 2


if __name__ == "__main__":
    _records = collect_linalg_records()
    _report(_records)
    _assert_speedups(_records)
    print(
        "speedup bars met: batched rank >= 10x, vecmat >= 5x, "
        f"scalar rank >= {SCALAR_RANK_BAR:.0f}x at n={SCALAR_RANK_GATED_N}, "
        f"bit-sliced prefix rank >= {PREFIX_BAR:.0f}x over M4R"
    )
