"""Planted-clique input distributions (Sections 1.2–1.3 of the paper).

* :class:`PlantedCliqueAt` — ``A_C``: the conditional distribution of
  ``A_rand`` on the event that every ordered pair within the fixed vertex
  set ``C`` is an edge.  Crucially its rows are **independent** (footnote 13
  of the paper): fixing ``C`` fixes which entries are forced to 1, and all
  other entries are independent fair coins.
* :class:`PlantedClique` — ``A_k``: the mixture of ``A_C`` over a uniformly
  random size-``k`` subset ``C``.  Rows are *not* independent (they share
  the identity of ``C``), which is exactly why the paper decomposes ``A_k``
  into the ``A_C`` components.
"""

from __future__ import annotations

from itertools import combinations
from math import comb
from typing import TYPE_CHECKING, Iterator

import numpy as np

from .base import (
    MixtureDistribution,
    RowIndependentDistribution,
    all_bitstrings,
)

if TYPE_CHECKING:
    from ..core.randomness import TrialStreams

__all__ = ["PlantedCliqueAt", "PlantedClique"]


class PlantedCliqueAt(RowIndependentDistribution):
    """``A_C``: random digraph conditioned on ``C`` being a (bidirected)
    clique.

    Row ``i`` for ``i ∈ C``: bit ``i`` is 0, bits ``j ∈ C \\ {i}`` are 1,
    the rest are independent fair coins.  Row ``i`` for ``i ∉ C`` is the
    ``A_rand`` marginal (bit ``i`` zero, rest uniform).
    """

    def __init__(self, n: int, clique: frozenset[int] | set[int] | tuple[int, ...]):
        super().__init__(n, n)
        clique = frozenset(clique)
        for v in clique:
            if not 0 <= v < n:
                raise ValueError(f"clique vertex {v} out of range for n={n}")
        self.clique = clique

    def sample_row(self, i: int, rng: np.random.Generator) -> np.ndarray:
        row = rng.integers(0, 2, size=self.n, dtype=np.uint8)
        row[i] = 0
        if i in self.clique:
            for j in self.clique:
                if j != i:
                    row[j] = 1
        return row

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        mat = rng.integers(0, 2, size=(self.n, self.n), dtype=np.uint8)
        np.fill_diagonal(mat, 0)
        members = sorted(self.clique)
        for i in members:
            for j in members:
                if i != j:
                    mat[i, j] = 1
        return mat

    def sample_each(self, streams: TrialStreams) -> np.ndarray:
        mats = streams.fair_bits((self.n, self.n))[0]
        members = np.array(sorted(self.clique), dtype=np.intp)
        mats[:, members[:, None], members] = 1
        diagonal = np.arange(self.n)
        mats[:, diagonal, diagonal] = 0
        return mats

    def row_support(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        support = all_bitstrings(self.n)
        mask = support[:, i] == 0
        if i in self.clique:
            for j in self.clique:
                if j != i:
                    mask &= support[:, j] == 1
        support = support[mask]
        probs = np.full(support.shape[0], 1.0 / support.shape[0])
        return support, probs

    @property
    def name(self) -> str:
        return f"A_C(C={sorted(self.clique)})"


class PlantedClique(MixtureDistribution):
    """``A_k``: plant a clique on a uniformly random size-``k`` vertex set.

    ``components()`` enumerates all ``C(n, k)`` row-independent components
    ``A_C`` with equal weight — the Section 3 decomposition.  Sampling is
    O(n²) and does not enumerate components.
    """

    def __init__(self, n: int, k: int):
        super().__init__(n, n)
        if not 0 < k <= n:
            raise ValueError(f"clique size k={k} must satisfy 0 < k <= n={n}")
        self.k = k

    def sample_clique(self, rng: np.random.Generator) -> frozenset[int]:
        """Draw the planted vertex set ``C`` uniformly over size-k subsets."""
        return frozenset(
            int(v) for v in rng.choice(self.n, size=self.k, replace=False)
        )

    def sample_component(self, rng: np.random.Generator) -> PlantedCliqueAt:
        return PlantedCliqueAt(self.n, self.sample_clique(rng))

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        return self.sample_component(rng).sample(rng)

    def sample_with_clique(
        self, rng: np.random.Generator
    ) -> tuple[np.ndarray, frozenset[int]]:
        """Draw ``(matrix, planted C)`` — the search-problem ground truth."""
        component = self.sample_component(rng)
        return component.sample(rng), component.clique

    def components(self) -> Iterator[tuple[float, PlantedCliqueAt]]:
        weight = 1.0 / comb(self.n, self.k)
        for clique in combinations(range(self.n), self.k):
            yield weight, PlantedCliqueAt(self.n, frozenset(clique))

    def n_components(self) -> int:
        return comb(self.n, self.k)

    @property
    def name(self) -> str:
        return f"A_k(n={self.n}, k={self.k})"
