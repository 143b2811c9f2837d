"""Input-distribution abstractions.

Inputs to an ``n``-processor protocol are ``n × m`` 0/1 matrices; processor
``i`` receives row ``i``.  Two structural properties drive everything in
the paper:

* **row independence** — a distribution whose rows are mutually independent
  can be analysed one broadcast at a time (each processor's input says
  nothing about the others'); :class:`RowIndependentDistribution` exposes
  per-row marginals, which the exact transcript-distribution engine
  (:mod:`repro.distinguish.exact`) consumes.
* **mixtures of row-independent components** — the paper's key idea
  (Section 1.1) is to write a correlated distribution (e.g. the planted
  clique distribution ``A_k``) as an average of row-independent ones
  (``A_C`` for fixed cliques ``C``); :class:`MixtureDistribution` represents
  exactly this decomposition.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator

import numpy as np

if TYPE_CHECKING:
    from ..core.randomness import TrialStreams

__all__ = [
    "InputDistribution",
    "RowIndependentDistribution",
    "MixtureDistribution",
    "all_bitstrings",
]


def all_bitstrings(m: int) -> np.ndarray:
    """All ``2^m`` bit strings of length ``m`` as a ``(2^m, m)`` uint8 array.

    Row ``x`` holds the little-endian bits of the integer ``x``, matching
    the truth-table convention of :mod:`repro.infotheory.fourier`.
    """
    if m < 0:
        raise ValueError("m must be non-negative")
    if m > 26:
        raise ValueError(f"refusing to materialise 2^{m} bit strings")
    xs = np.arange(1 << m, dtype=np.uint32)
    return ((xs[:, None] >> np.arange(m, dtype=np.uint32)[None, :]) & 1).astype(
        np.uint8
    )


class InputDistribution:
    """A distribution over ``n × row_length`` 0/1 input matrices."""

    def __init__(self, n: int, row_length: int):
        if n <= 0 or row_length < 0:
            raise ValueError(f"invalid dimensions n={n}, row_length={row_length}")
        self.n = n
        self.row_length = row_length

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        """Draw one input matrix (``uint8`` of shape ``(n, row_length)``)."""
        raise NotImplementedError

    def sample_each(self, streams: TrialStreams) -> np.ndarray:
        """One matrix per trial stream of the chunk, stacked as
        ``(count, n, row_length)``.

        Row ``t`` is exactly ``sample(streams.generators()[t])`` and every
        stream ends in the state that call leaves its generator in, so a
        subclass may batch the arithmetic but must keep each stream's
        draws and their order.  Subclasses whose ``sample`` draws only
        fair bits take them for the whole chunk from one
        :meth:`~repro.core.randomness.TrialStreams.fair_bits` call, which
        builds no generator; this default stacks ``sample`` over
        :meth:`~repro.core.randomness.TrialStreams.generators`.
        """
        return np.stack([self.sample(rng) for rng in streams.generators()])

    @property
    def name(self) -> str:
        return type(self).__name__

    def __repr__(self) -> str:
        return f"{self.name}(n={self.n}, row_length={self.row_length})"


class RowIndependentDistribution(InputDistribution):
    """An input distribution whose ``n`` rows are mutually independent.

    Subclasses define the per-row marginals, either implicitly (through
    :meth:`sample_row`) or exactly (through :meth:`row_support`, required
    by the exact transcript engine).
    """

    def sample_row(self, i: int, rng: np.random.Generator) -> np.ndarray:
        """Draw row ``i`` from its marginal."""
        rows, probs = self.row_support(i)
        idx = rng.choice(rows.shape[0], p=probs)
        return rows[idx].copy()

    def row_support(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        """Exact marginal of row ``i``: ``(support, probs)`` where
        ``support`` is ``(S, row_length)`` uint8 and ``probs`` sums to 1."""
        raise NotImplementedError

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        return np.stack([self.sample_row(i, rng) for i in range(self.n)])


class MixtureDistribution(InputDistribution):
    """A finite mixture ``D = sum_I w_I · D_I`` of row-independent components.

    This is the Section 3 decomposition: ``components()`` yields the pairs
    ``(w_I, D_I)``.  Sampling first draws a component then samples from it,
    which is distributionally identical to sampling from ``D``.
    """

    def components(
        self,
    ) -> Iterator[tuple[float, RowIndependentDistribution]]:
        """Yield ``(weight, component)`` pairs; weights sum to 1."""
        raise NotImplementedError

    def n_components(self) -> int:
        """Number of mixture components (may be expensive; default counts)."""
        return sum(1 for _ in self.components())

    def sample_component(
        self, rng: np.random.Generator
    ) -> RowIndependentDistribution:
        """Draw a component ``D_I`` with probability ``w_I``."""
        weights = []
        comps = []
        for w, comp in self.components():
            weights.append(w)
            comps.append(comp)
        idx = rng.choice(len(comps), p=np.asarray(weights) / np.sum(weights))
        return comps[idx]

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        return self.sample_component(rng).sample(rng)
