"""Undirected planted clique — the Section 9 open-problem extension.

The paper: "It would be interesting to extend the framework to work for
undirected graphs as well.  This causes the rows of the input matrix not
to be independent (instead, each pair of rows contain one shared bit)."

These distributions implement exactly that setting: symmetric adjacency
matrices where ``A[i, j] = A[j, i]`` is a *single* shared coin.  They are
deliberately **not** :class:`RowIndependentDistribution` subclasses — the
row dependence is the open problem — but they expose
:meth:`enumerate_support` so the brute-force exact transcript engine
(:func:`repro.distinguish.exact.brute_force_transcript_pmf`) can measure
distances on tiny instances, giving the conjectured undirected analogue of
Theorem 1.6 an empirical footing.
"""

from __future__ import annotations

from itertools import combinations
from math import comb
from typing import Iterator, Sequence

import numpy as np

from ..core.randomness import fair_bits
from .base import InputDistribution

__all__ = ["UndirectedRandomGraph", "UndirectedPlantedClique"]


def _symmetric_from_edge_bits(n: int, bits: int) -> np.ndarray:
    """Decode ``C(n,2)`` little-endian edge bits into a symmetric matrix."""
    matrix = np.zeros((n, n), dtype=np.uint8)
    position = 0
    for i in range(n):
        for j in range(i + 1, n):
            value = (bits >> position) & 1
            matrix[i, j] = matrix[j, i] = value
            position += 1
    return matrix


class UndirectedRandomGraph(InputDistribution):
    """G(n, 1/2): each unordered pair is one fair coin, zero diagonal.

    Processor ``i`` receives row ``i`` — so processors ``i`` and ``j``
    *share* the bit ``A[i, j]``: rows are pairwise dependent.
    """

    def __init__(self, n: int):
        super().__init__(n, n)

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        upper = np.triu(
            rng.integers(0, 2, size=(self.n, self.n), dtype=np.uint8), 1
        )
        return upper | upper.T

    def sample_each(self, rngs: Sequence[np.random.Generator]) -> np.ndarray:
        upper = np.triu(fair_bits(rngs, (self.n, self.n))[0], 1)
        return upper | upper.transpose(0, 2, 1)

    def n_edge_bits(self) -> int:
        return comb(self.n, 2)

    def enumerate_support(self) -> Iterator[tuple[np.ndarray, float]]:
        """All ``2^{C(n,2)}`` graphs with their probabilities (tiny n only)."""
        edge_bits = self.n_edge_bits()
        if edge_bits > 20:
            raise ValueError(
                f"enumerating 2^{edge_bits} graphs is infeasible; sample instead"
            )
        total = 1 << edge_bits
        prob = 1.0 / total
        for bits in range(total):
            yield _symmetric_from_edge_bits(self.n, bits), prob


class UndirectedPlantedClique(InputDistribution):
    """G(n, 1/2) with a clique planted on a random size-``k`` vertex set."""

    def __init__(self, n: int, k: int):
        super().__init__(n, n)
        if not 0 < k <= n:
            raise ValueError(f"clique size k={k} must satisfy 0 < k <= n={n}")
        self.k = k

    def sample_with_clique(
        self, rng: np.random.Generator
    ) -> tuple[np.ndarray, frozenset[int]]:
        matrix = UndirectedRandomGraph(self.n).sample(rng)
        clique = frozenset(
            int(v) for v in rng.choice(self.n, size=self.k, replace=False)
        )
        members = sorted(clique)
        for a in members:
            for b in members:
                if a != b:
                    matrix[a, b] = 1
        return matrix, clique

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        matrix, _ = self.sample_with_clique(rng)
        return matrix

    def enumerate_support(self) -> Iterator[tuple[np.ndarray, float]]:
        """All (graph, probability) pairs of the mixture (tiny n only).

        Enumerates clique placements × free edge bits; probabilities of
        coinciding matrices are merged by the caller's accumulation (the
        same adjacency matrix may arise from several placements).
        """
        edge_bits = comb(self.n, 2)
        if edge_bits > 18:
            raise ValueError(
                f"enumerating 2^{edge_bits} graphs is infeasible; sample instead"
            )
        placements = list(combinations(range(self.n), self.k))
        base = UndirectedRandomGraph(self.n)
        weight = 1.0 / len(placements)
        for clique in placements:
            members = list(clique)
            for matrix, prob in base.enumerate_support():
                planted = matrix.copy()
                rows, cols = np.ix_(members, members)
                planted[rows, cols] = 1
                np.fill_diagonal(planted, 0)
                yield planted, prob * weight
