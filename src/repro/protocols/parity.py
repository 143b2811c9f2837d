"""Global parity — the simplest non-trivial BCAST(1) workload.

Every processor broadcasts the parity of its private row; the XOR of all
broadcasts is the parity of the entire input matrix.  One round, zero
randomness, and every processor ends with the answer — used throughout the
test-suite as a deterministic payload and as a baseline for cost
accounting.
"""

from __future__ import annotations

import numpy as np

from ..core.processor import ProcessorContext
from ..core.protocol import Protocol
from ..costs import CostModel, Phase, Sym
from ..linalg.batch import BitVectorBatch

__all__ = ["GlobalParityProtocol"]


class GlobalParityProtocol(Protocol):
    """Compute the parity of all input bits in one ``BCAST(1)`` round.

    The output is a deterministic function of the input matrix alone, so
    the protocol rides the engine's ``vectorized=True`` fast path: a
    whole trial batch is decided by one XOR reduction, and the batch's
    transcript keys (one row-parity broadcast per processor) come from a
    single packed popcount pass.
    """

    def num_rounds(self, n: int) -> int:
        return 1

    def cost_model(self) -> CostModel:
        """Exact: one round of ``n`` single-bit broadcasts, no coins."""
        n = Sym("n")
        return CostModel(
            [Phase("broadcast", rounds=1, turns=n, broadcast_bits=n)]
        )

    def broadcast(self, proc: ProcessorContext, round_index: int) -> int:
        return int(proc.input.sum()) % 2

    def output(self, proc: ProcessorContext) -> int:
        return sum(e.message for e in proc.transcript) % 2

    def batch_decisions(
        self, inputs: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Whole-matrix parities and transcript keys for a ``(trials, n, m)``
        batch: the one-round key is processor ``p``'s row parity, all rows
        popcounted at once, and the decision is the XOR of those parities.
        (No bit check: the scalar path reduces arbitrary integers mod 2,
        and so does ``& 1`` here.)"""
        inputs = np.asarray(inputs, dtype=np.uint8)
        if inputs.ndim != 3:
            raise ValueError(
                f"inputs must be a (trials, n, m) stack, got shape {inputs.shape}"
            )
        # Explicit sizes, not -1: reshape(0, -1) rejects empty batches.
        trials, n, m = inputs.shape
        rows = BitVectorBatch.from_arrays((inputs & 1).reshape(trials * n, m))
        keys = (rows.weights() & 1).astype(np.uint8).reshape(trials, n)
        decisions = np.bitwise_xor.reduce(keys, axis=1).astype(np.uint8)
        return decisions, keys
