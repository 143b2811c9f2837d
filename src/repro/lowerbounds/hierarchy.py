"""Average-case hardness of rank and the time hierarchy (Theorems 1.4/1.5).

The separating function of Theorem 1.5 is
``F_k(A) = [the top k × k submatrix of A has full GF(2) rank]``:

* **upper bound** — ``F_k`` is computable *exactly* in ``k`` rounds of
  ``BCAST(1)``: in round ``j`` each of processors ``0 … k-1`` broadcasts
  bit ``j`` of its row; after ``k`` rounds everyone knows the block and
  computes its rank locally (:class:`TopSubmatrixRankProtocol`);
* **lower bound** — by Theorem 1.4 (via the PRG), no ``k/20``-round
  protocol reaches accuracy 0.99 on uniform inputs.  Empirically we sweep
  truncated-budget protocols and verify their accuracy stays pinned near
  the majority-class rate ``1 − Q_0 ≈ 0.711``, far below 0.99, until the
  budget reaches ``k``.

:func:`optimal_accuracy_with_columns` gives the exact accuracy ceiling for
*any* decision rule that sees only the first ``j`` columns of the block —
the information revealed by the truncated protocol — so the measured curve
can be compared with its information-theoretic limit.
"""

from __future__ import annotations

import numpy as np

from ..core.engine import Engine, Executor, RunSpec, derive_seed
from ..core.processor import ProcessorContext
from ..core.protocol import Protocol, require_bits
from ..costs import CostModel, Phase, Sym, min_
from ..distributions.uniform import UniformRows
from ..linalg.batch import BitMatrixBatch
from ..linalg.bitmatrix import BitMatrix

__all__ = [
    "full_rank_indicator",
    "top_submatrix_full_rank",
    "TopSubmatrixRankProtocol",
    "conditional_full_rank_probability",
    "optimal_accuracy_with_columns",
    "accuracy_on_uniform",
    "submit_accuracy_on_uniform",
]


def full_rank_indicator(matrix: np.ndarray) -> int:
    """``F_full-rank``: 1 iff the square 0/1 matrix has full GF(2) rank."""
    matrix = np.asarray(matrix)
    if matrix.shape[0] != matrix.shape[1]:
        raise ValueError("full-rank indicator needs a square matrix")
    return int(BitMatrix.from_array(matrix).is_full_rank())


def top_submatrix_full_rank(matrix: np.ndarray, k: int) -> int:
    """``F_k``: 1 iff the leading ``k × k`` block has full GF(2) rank."""
    matrix = np.asarray(matrix)
    if k > min(matrix.shape):
        raise ValueError(f"block size {k} exceeds matrix shape {matrix.shape}")
    return full_rank_indicator(matrix[:k, :k])


class TopSubmatrixRankProtocol(Protocol):
    """Computes ``F_k`` in ``min(rounds_budget, k)`` rounds of ``BCAST(1)``.

    With the full budget (``rounds_budget = k``, the default) the output is
    exact.  With a truncated budget ``j < k`` every processor knows only
    the first ``j`` columns of the block; the output is then the Bayes
    decision given that information: "not full rank" if the revealed
    columns are already dependent (certainty), else the majority of the
    conditional full-rank probability — which stays below 1/2 for every
    ``j < k``, so the truncated protocol answers 0.

    Outputs are a deterministic function of the input matrix, so the
    protocol supports the engine's vectorized fast path: a whole batch of
    trials is decided by one lock-step rank elimination over the revealed
    blocks, and its transcript keys (processors ``0 … k-1`` reveal their
    prefix bits, everyone else broadcasts 0) by one scatter + transpose.
    """

    supports_batch = True
    supports_batch_keys = True

    def __init__(self, k: int, rounds_budget: int | None = None):
        if k < 1:
            raise ValueError("block size k must be positive")
        self.k = k
        self.rounds_budget = k if rounds_budget is None else rounds_budget
        if self.rounds_budget < 0:
            raise ValueError("rounds budget must be non-negative")

    def num_rounds(self, n: int) -> int:
        return min(self.rounds_budget, self.k)

    def cost_model(self) -> CostModel:
        """Exact: ``min(budget, k)`` reveal rounds of ``n`` one-bit turns
        (only processors ``0 … k-1`` broadcast meaningful bits, but every
        processor speaks — silent zeros still cost a turn and a bit)."""
        n, k, budget = Sym("n"), Sym("k"), Sym("budget")
        rounds = min_(budget, k)
        return CostModel(
            [
                Phase(
                    "reveal",
                    rounds=rounds,
                    turns=n * rounds,
                    broadcast_bits=n * rounds,
                )
            ],
            params={"k": self.k, "budget": self.rounds_budget},
        )

    def broadcast(self, proc: ProcessorContext, round_index: int) -> int:
        if proc.proc_id < self.k and round_index < self.k:
            return int(proc.input[round_index])
        return 0

    def _revealed_block(self, proc: ProcessorContext) -> np.ndarray:
        """The ``k × j`` revealed left block (j = rounds actually run)."""
        j = min(self.rounds_budget, self.k)
        block = np.zeros((self.k, j), dtype=np.uint8)
        for event in proc.transcript:
            if event.sender < self.k and event.round_index < j:
                block[event.sender, event.round_index] = event.message
        return block

    def output(self, proc: ProcessorContext) -> int:
        block = self._revealed_block(proc)
        j = block.shape[1]
        if j >= self.k:
            return int(BitMatrix.from_array(block).is_full_rank())
        if j == 0:
            # No information: majority class is "not full rank".
            return 0
        revealed_rank = BitMatrix.from_array(block).rank()
        if revealed_rank < j:
            return 0  # dependent columns already — certainly not full rank
        posterior = conditional_full_rank_probability(self.k, j)
        return int(posterior > 0.5)

    def _validated_block(self, inputs: np.ndarray) -> np.ndarray:
        """The ``(trials, k, j)`` revealed block, shape- and bit-checked —
        shared by :meth:`batch_decisions` and :meth:`batch_keys` so
        scalar-parity validation cannot drift."""
        inputs = np.asarray(inputs)
        j = min(self.rounds_budget, self.k)
        if inputs.ndim != 3 or inputs.shape[1] < self.k or inputs.shape[2] < j:
            raise ValueError(
                f"inputs must expose a {self.k} x {j} revealed block, got "
                f"shape {inputs.shape}"
            )
        revealed = inputs[:, : self.k, :j]
        require_bits(revealed, "revealed block entries")
        return revealed

    def batch_decisions(self, inputs: np.ndarray) -> np.ndarray:
        """Decisions for a ``(trials, n, n)`` batch via one batched rank."""
        revealed = self._validated_block(inputs)
        trials, j = revealed.shape[0], revealed.shape[2]
        if j == 0:
            return np.zeros(trials, dtype=np.uint8)
        ranks = BitMatrixBatch.from_arrays(revealed).rank()
        if j >= self.k:
            return (ranks == self.k).astype(np.uint8)
        full_guess = int(conditional_full_rank_probability(self.k, j) > 0.5)
        return np.where(ranks < j, 0, full_guess).astype(np.uint8)

    def batch_keys(self, inputs: np.ndarray) -> np.ndarray:
        """Transcript keys for a ``(trials, n, >=j)`` batch: in round ``r``
        processor ``p < k`` broadcasts bit ``r`` of its row and everyone
        else broadcasts 0."""
        inputs = np.asarray(inputs)
        revealed = self._validated_block(inputs)
        trials, n = inputs.shape[0], inputs.shape[1]
        j = revealed.shape[2]
        keys = np.zeros((trials, j, n), dtype=np.uint8)
        keys[:, :, : self.k] = revealed.transpose(0, 2, 1)
        return keys.reshape(trials, j * n)


def conditional_full_rank_probability(k: int, j: int) -> float:
    """``Pr[k×k uniform block full rank | first j columns independent]``.

    Each remaining column must avoid the span of its predecessors:
    ``∏_{i=j}^{k-1} (1 − 2^{i-k})``.  Strictly below 1/2 for every
    ``j < k`` (the last factor alone is 1/2).
    """
    if not 0 <= j <= k:
        raise ValueError(f"need 0 <= j <= k, got j={j}, k={k}")
    prob = 1.0
    for i in range(j, k):
        prob *= 1.0 - 2.0 ** (i - k)
    return prob


def optimal_accuracy_with_columns(k: int, j: int) -> float:
    """Exact accuracy ceiling for any rule seeing only the first ``j``
    columns of a uniform ``k × k`` block.

    ``= Pr[first j columns dependent] · 1
       + Pr[independent] · max(q_j, 1 − q_j)``
    where ``q_j`` is :func:`conditional_full_rank_probability`.
    """
    if not 0 <= j <= k:
        raise ValueError(f"need 0 <= j <= k, got j={j}, k={k}")
    p_independent = 1.0
    for i in range(j):
        p_independent *= 1.0 - 2.0 ** (i - k)
    q = conditional_full_rank_probability(k, j)
    return (1.0 - p_independent) + p_independent * max(q, 1.0 - q)


def accuracy_on_uniform(
    protocol: Protocol,
    n: int,
    k: int,
    n_samples: int,
    rng: np.random.Generator,
    target_fn=None,
    executor: Executor | str | None = None,
    vectorized: bool = False,
) -> float:
    """Fraction of samples on which processor 0's output matches ``F_k``
    over uniform ``n × n`` input matrices.

    Trials run through the execution engine with per-trial inputs
    recorded; pass a :class:`~repro.exec.WorkerPool` as ``executor`` to
    spread them over cores, or ``vectorized=True`` to evaluate the whole
    batch (both the protocol's decisions and the default ``F_k`` target)
    with batched GF(2) kernels — same seeds, bit-identical accuracy, no
    per-trial simulation.
    """
    if k > n:
        raise ValueError(f"block size {k} exceeds matrix size {n}")
    spec = _accuracy_spec(protocol, n, rng, vectorized)
    batch = Engine(executor).run_batch(spec, n_samples)
    return _accuracy_from_batch(batch, k, target_fn, n_samples)


def _accuracy_spec(protocol, n, rng, vectorized) -> RunSpec:
    return RunSpec(
        protocol=protocol,
        distribution=UniformRows(n, n),
        seed=derive_seed(rng),
        record_inputs=True,
        vectorized=vectorized,
    )


def _accuracy_from_batch(batch, k, target_fn, n_samples) -> float:
    decisions = np.fromiter(
        (int(trial.outputs[0]) for trial in batch), dtype=np.int64, count=len(batch)
    )
    if target_fn is None and len(batch):
        blocks = np.stack([trial.inputs[:k, :k] for trial in batch])
        targets = (BitMatrixBatch.from_arrays(blocks).rank() == k).astype(np.int64)
    else:
        if target_fn is None:
            target_fn = lambda matrix: top_submatrix_full_rank(matrix, k)  # noqa: E731
        targets = np.fromiter(
            (int(target_fn(trial.inputs)) for trial in batch),
            dtype=np.int64,
            count=len(batch),
        )
    return int((decisions == targets).sum()) / n_samples


def submit_accuracy_on_uniform(
    engine: Engine,
    protocol: Protocol,
    n: int,
    k: int,
    n_samples: int,
    rng: np.random.Generator,
    target_fn=None,
    vectorized: bool = False,
):
    """Asynchronous :func:`accuracy_on_uniform`: submit now, score later.

    Returns a :class:`~repro.exec.futures.BatchFuture` whose ``result()``
    is the accuracy — bit-identical to the blocking call for the same
    ``rng`` state, since the batch seed is drawn here at submission.
    Budget sweeps submit one batch per truncation budget and consume them
    with :func:`repro.exec.as_completed`, overlapping all budgets on a
    warm pool or distributed fleet.
    """
    if k > n:
        raise ValueError(f"block size {k} exceeds matrix size {n}")
    spec = _accuracy_spec(protocol, n, rng, vectorized)
    future = engine.submit_batch(spec, n_samples)
    return future.then(
        lambda batch: _accuracy_from_batch(batch, k, target_fn, n_samples)
    )
