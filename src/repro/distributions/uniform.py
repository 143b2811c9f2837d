"""Uniform input distributions.

* :class:`UniformRows` — every processor receives ``m`` independent uniform
  bits (the paper's ``U_m`` per processor / ``U_{n×m}`` jointly).
* :class:`RandomDigraph` — the paper's ``A_rand``: the adjacency matrix of a
  random *directed* graph where each off-diagonal entry is an independent
  fair coin and the diagonal is fixed to 0 (no self-loops).  Processor
  (vertex) ``i`` receives its out-edge indicator row.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from .base import RowIndependentDistribution, all_bitstrings

if TYPE_CHECKING:
    from ..core.randomness import TrialStreams

__all__ = ["UniformRows", "RandomDigraph"]


class UniformRows(RowIndependentDistribution):
    """Each row independently uniform on ``{0,1}^row_length``."""

    def __init__(self, n: int, row_length: int):
        super().__init__(n, row_length)

    def sample_row(self, i: int, rng: np.random.Generator) -> np.ndarray:
        return rng.integers(0, 2, size=self.row_length, dtype=np.uint8)

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        return rng.integers(0, 2, size=(self.n, self.row_length), dtype=np.uint8)

    def sample_each(self, streams: TrialStreams) -> np.ndarray:
        return streams.fair_bits((self.n, self.row_length))[0]

    def row_support(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        support = all_bitstrings(self.row_length)
        probs = np.full(support.shape[0], 1.0 / support.shape[0])
        return support, probs


class RandomDigraph(RowIndependentDistribution):
    """``A_rand``: uniform directed graph on ``n`` vertices, zero diagonal."""

    def __init__(self, n: int):
        super().__init__(n, n)

    def sample_row(self, i: int, rng: np.random.Generator) -> np.ndarray:
        row = rng.integers(0, 2, size=self.n, dtype=np.uint8)
        row[i] = 0
        return row

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        mat = rng.integers(0, 2, size=(self.n, self.n), dtype=np.uint8)
        np.fill_diagonal(mat, 0)
        return mat

    def sample_each(self, streams: TrialStreams) -> np.ndarray:
        mats = streams.fair_bits((self.n, self.n))[0]
        diagonal = np.arange(self.n)
        mats[:, diagonal, diagonal] = 0
        return mats

    def row_support(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        support = all_bitstrings(self.n)
        mask = support[:, i] == 0
        support = support[mask]
        probs = np.full(support.shape[0], 1.0 / support.shape[0])
        return support, probs
