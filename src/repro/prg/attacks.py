"""The seed-length attack of Theorem 8.1 (PRG optimality).

Any PRG that stretches per-processor seeds of ``k`` bits can be *broken* in
``O(k)`` rounds: each processor broadcasts its first ``k + 1`` output bits;
in the pseudo-random case the joint transcript is one of at most ``2^{nk}``
possibilities, whereas truly random transcripts occupy ``2^{n(k+1)}``
equally likely values — so accepting exactly the PRG-consistent transcripts
succeeds with advantage ``(1 - 2^{-n}) / 2``.

For the concrete PRG of Theorem 1.3 "PRG-consistent" has a clean algebraic
form: the revealed columns must satisfy ``y_c = X b_c`` for the seed block
``X`` and *some* vectors ``b_c`` — i.e. each revealed derived column lies
in the column space generated by the seed block.  The attack therefore
reduces to GF(2) rank computations.
"""

from __future__ import annotations

import numpy as np

from ..core.processor import ProcessorContext
from ..core.protocol import Protocol, require_bits
from ..core.transcript import Transcript
from ..costs import CostModel, Phase, Sym
from ..linalg.batch import BitMatrixBatch
from ..linalg.bitmatrix import BitMatrix

__all__ = ["SupportMembershipAttack", "attack_rounds", "false_positive_bound"]


def attack_rounds(k: int) -> int:
    """Rounds used by the attack: the ``k + 1`` reveal rounds."""
    return k + 1


def false_positive_bound(n: int, k: int) -> float:
    """Pr[a truly uniform input passes the consistency test].

    The test accepts iff the revealed derived column lies in the span of
    the ``n × k`` seed block.  For uniform inputs the column is uniform and
    independent of the block, so the acceptance probability is
    ``E[2^{rank(X)}] / 2^n ≤ 2^{k - n}``.
    """
    return 2.0 ** (k - n)


class SupportMembershipAttack(Protocol):
    """The Theorem 8.1 distinguisher, specialised to the Theorem 1.3 PRG.

    Inputs: each processor holds an ``m``-bit string which is either truly
    uniform or a PRG output ``(x, x^T M)`` with ``m ≥ k + 1``.

    Protocol: in round ``j ∈ [0, k]`` every processor broadcasts bit ``j``
    of its string (``k + 1`` rounds of ``BCAST(1)``).  Everyone then knows
    the ``n × (k+1)`` matrix ``[X | y]`` of first coordinates and accepts
    ("pseudo-random") iff ``y`` lies in the column span of ``X`` — i.e.
    ``rank([X | y]) = rank(X)`` — which the PRG satisfies with certainty
    (``y = X M_{:,0}``) and uniform inputs satisfy with probability at most
    ``2^{k-n}``.

    The decision is a pure function of the input matrix, so the attack
    supports the engine's vectorized fast path: a whole Monte-Carlo batch
    of trials reduces to one batched rank elimination, and the batch's
    transcript keys (the revealed ``k + 1`` prefix bits, round-major) to
    one transpose.
    """

    def __init__(self, k: int):
        if k <= 0:
            raise ValueError("seed length k must be positive")
        self.k = k

    def num_rounds(self, n: int) -> int:
        return attack_rounds(self.k)

    def cost_model(self) -> CostModel:
        """Exact: ``k + 1`` reveal rounds of ``n`` single-bit broadcasts
        (Theorem 8.1's ``O(k)`` round bound, with its constant)."""
        n, k = Sym("n"), Sym("k")
        rounds = k + 1
        return CostModel(
            [
                Phase(
                    "reveal",
                    rounds=rounds,
                    turns=n * rounds,
                    broadcast_bits=n * rounds,
                )
            ],
            params={"k": self.k},
        )

    def setup(self, proc: ProcessorContext) -> None:
        if len(proc.input_bits) < self.k + 1:
            raise ValueError(
                f"input rows must have at least {self.k + 1} bits for the attack"
            )

    def broadcast(self, proc: ProcessorContext, round_index: int) -> int:
        return proc.input_bits[round_index]

    def output(self, proc: ProcessorContext) -> int:
        # The test reads only the public transcript: two ranks per trial,
        # shared by every processor.
        return proc.transcript.derived(self._decision, len(proc.transcript))

    def _revealed(self, transcript: Transcript) -> np.ndarray:
        """The ``n × (k+1)`` matrix of revealed prefixes."""
        n = len(transcript.round_messages(0))  # everyone speaks in round 0
        revealed = np.zeros((n, self.k + 1), dtype=np.uint8)
        for round_index in range(self.k + 1):
            for sender, message in transcript.round_messages(round_index).items():
                revealed[sender, round_index] = message
        return revealed

    def _decision(self, transcript: Transcript) -> int:
        revealed = self._revealed(transcript)
        seed_block = BitMatrix.from_array(revealed[:, : self.k])
        full = BitMatrix.from_array(revealed)
        return int(full.rank() == seed_block.rank())

    def batch_decisions(
        self, inputs: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Consistency tests and transcript keys for a ``(trials, n, m)``
        batch.

        The tests take one batched lock-step elimination of ``[X | y]``,
        which also yields the seed block's rank as the rank of its leading
        ``k`` columns.  Round ``j`` reveals bit ``j`` of every row, so the
        key is the ``n × (k+1)`` revealed prefix transposed to round-major
        order.
        """
        inputs = np.asarray(inputs)
        if inputs.ndim != 3 or inputs.shape[2] < self.k + 1:
            raise ValueError(
                f"input rows must have at least {self.k + 1} bits for the attack"
            )
        revealed = inputs[:, :, : self.k + 1]
        require_bits(revealed, "attack inputs")
        seed_rank, full_rank = BitMatrixBatch.from_arrays(revealed).rank(
            prefix=self.k
        )
        trials, n = revealed.shape[0], revealed.shape[1]
        keys = (
            revealed.transpose(0, 2, 1)
            .reshape(trials, (self.k + 1) * n)
            .astype(np.uint8)
        )
        return (full_rank == seed_rank).astype(np.uint8), keys
