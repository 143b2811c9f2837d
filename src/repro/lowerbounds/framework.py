"""The abstract lower-bound framework of Section 3, made executable.

The paper's engine: to show ``A_pseudo`` is indistinguishable from
``A_rand``,

1. decompose ``A_pseudo = (1/|I|) Σ_I A_I`` into row-independent
   components (:class:`~repro.distributions.base.MixtureDistribution`);
2. track the **progress function**
   ``L_progress(t) = E_I || P_I^{(t)} − P_rand^{(t)} ||`` turn by turn;
3. bound each turn's increment with a statistical inequality about Boolean
   functions on large subsets of the cube.

This module computes all three objects *exactly* on small instances: the
per-turn progress curve, the per-turn real-distance curve (and the triangle
inequality ``L_real ≤ L_progress``), and the statistical-inequality
statistics of Lemmas 1.8/1.10/4.3/4.4/5.2 for arbitrary (partial) Boolean
functions given as truth tables.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from ..distinguish.exact import (
    ProtocolSpec,
    exact_transcript_pmf,
    mixture_transcript_pmf,
    transcript_distance,
)
from ..distributions.base import (
    MixtureDistribution,
    RowIndependentDistribution,
    all_bitstrings,
)

__all__ = [
    "prefix_pmf",
    "progress_curve",
    "real_distance_curve",
    "lemma_1_10_statistic",
    "lemma_1_8_statistic",
    "lemma_5_2_statistic",
    "conditional_support_mask",
]


def prefix_pmf(
    pmf: dict[tuple[int, ...], float], n_turns: int
) -> dict[tuple[int, ...], float]:
    """Marginal of a transcript pmf on its first ``n_turns`` payloads."""
    out: dict[tuple[int, ...], float] = {}
    for key, p in pmf.items():
        prefix = key[:n_turns]
        out[prefix] = out.get(prefix, 0.0) + p
    return out


def progress_curve(
    spec: ProtocolSpec,
    mixture: MixtureDistribution,
    reference: RowIndependentDistribution,
    max_components: int | None = None,
    rng: np.random.Generator | None = None,
) -> list[float]:
    """``L_progress(t)`` for every turn ``t = 0 … n_rounds·n``.

    When ``max_components`` is given, a uniform subsample of components is
    used (unbiased estimate of the expectation over ``I``).
    """
    reference_pmf = exact_transcript_pmf(spec, reference)
    components = [c for _, c in mixture.components()]
    if max_components is not None and len(components) > max_components:
        if rng is None:
            rng = np.random.default_rng(0)
        idx = rng.choice(len(components), size=max_components, replace=False)
        components = [components[i] for i in idx]
    total_turns = spec.n_rounds * spec.n
    curve = np.zeros(total_turns + 1)
    for component in components:
        pmf = exact_transcript_pmf(spec, component)
        for t in range(total_turns + 1):
            curve[t] += transcript_distance(
                prefix_pmf(pmf, t), prefix_pmf(reference_pmf, t)
            )
    curve /= len(components)
    return [float(v) for v in curve]


def real_distance_curve(
    spec: ProtocolSpec,
    mixture: MixtureDistribution,
    reference: RowIndependentDistribution,
) -> list[float]:
    """``L_real(t) = ||P_pseudo^{(t)} − P_rand^{(t)}||`` for every turn.

    Always pointwise ≤ the progress curve (triangle inequality) — a
    property test of the framework itself.
    """
    reference_pmf = exact_transcript_pmf(spec, reference)
    mixture_pmf = mixture_transcript_pmf(spec, mixture)
    total_turns = spec.n_rounds * spec.n
    return [
        transcript_distance(
            prefix_pmf(mixture_pmf, t), prefix_pmf(reference_pmf, t)
        )
        for t in range(total_turns + 1)
    ]


# ----------------------------------------------------------------------
# Statistical-inequality statistics (exact, for truth-table functions)
# ----------------------------------------------------------------------
def conditional_support_mask(
    n: int, ones: tuple[int, ...] = (), domain: np.ndarray | None = None
) -> np.ndarray:
    """Boolean mask over ``{0,1}^n`` selecting ``x ∈ D`` with ``x_i = 1``
    for all ``i ∈ ones``; ``domain`` is an optional base mask ``D``."""
    strings = all_bitstrings(n)
    mask = np.ones(strings.shape[0], dtype=bool) if domain is None else domain.copy()
    for i in ones:
        mask &= strings[:, i] == 1
    return mask


def _restricted_mean(truth: np.ndarray, mask: np.ndarray) -> float:
    count = int(mask.sum())
    if count == 0:
        return float("nan")
    return float(truth[mask].mean())


def lemma_1_10_statistic(
    truth: np.ndarray, domain: np.ndarray | None = None
) -> float:
    """``E_{i←[n]} ||f(U_D) − f(U_D^{[i]})||`` for a Boolean truth table.

    With ``domain=None`` this is the total-function Lemma 1.10 statistic
    (bounded by ``O(1/√n)``); with a restricted domain it is the
    Lemma 4.4 statistic (bounded by ``O(√(t/n))`` for ``|D| ≥ 2^{n-t}``).
    Coordinates whose restriction empties the domain contribute the
    convention value 1.
    """
    truth = np.asarray(truth, dtype=float)
    size = truth.shape[0]
    n = size.bit_length() - 1
    if 1 << n != size:
        raise ValueError("truth table length must be a power of two")
    base_mask = (
        np.ones(size, dtype=bool) if domain is None else np.asarray(domain, bool)
    )
    base_mean = _restricted_mean(truth, base_mask)
    total = 0.0
    for i in range(n):
        mask_i = conditional_support_mask(n, (i,), base_mask)
        mean_i = _restricted_mean(truth, mask_i)
        if np.isnan(mean_i):
            total += 1.0
        else:
            total += abs(mean_i - base_mean)
    return total / n


def lemma_1_8_statistic(
    truth: np.ndarray,
    k: int,
    domain: np.ndarray | None = None,
    max_cliques: int | None = None,
    rng: np.random.Generator | None = None,
) -> float:
    """``E_{C∼S_k} ||f(U_D) − f(U_D^C)||`` for a Boolean truth table.

    With ``domain=None`` this is the Lemma 1.8 statistic
    (``≤ O(k/√n)``); restricted domains give Lemma 4.3
    (``≤ O(k√(t/n))``).  Enumerates all size-``k`` subsets unless
    ``max_cliques`` asks for a uniform subsample.
    """
    truth = np.asarray(truth, dtype=float)
    size = truth.shape[0]
    n = size.bit_length() - 1
    if 1 << n != size:
        raise ValueError("truth table length must be a power of two")
    base_mask = (
        np.ones(size, dtype=bool) if domain is None else np.asarray(domain, bool)
    )
    base_mean = _restricted_mean(truth, base_mask)
    subsets = list(combinations(range(n), k))
    if max_cliques is not None and len(subsets) > max_cliques:
        if rng is None:
            rng = np.random.default_rng(0)
        idx = rng.choice(len(subsets), size=max_cliques, replace=False)
        subsets = [subsets[i] for i in idx]
    total = 0.0
    for subset in subsets:
        mask_c = conditional_support_mask(n, subset, base_mask)
        mean_c = _restricted_mean(truth, mask_c)
        if np.isnan(mean_c):
            total += 1.0  # the paper's convention for empty U_D^C
        else:
            total += abs(mean_c - base_mean)
    return total / len(subsets)


def lemma_5_2_statistic(truth: np.ndarray) -> tuple[float, float]:
    """Lemma 5.2: ``Σ_b ||f(U_{k+1}) − f(U[b])||² ≤ E[f]``.

    The truth table is over ``{0,1}^{k+1}`` (last coordinate is the derived
    bit).  Returns ``(lhs, rhs)`` so callers can assert ``lhs ≤ rhs``.
    """
    truth = np.asarray(truth, dtype=float)
    size = truth.shape[0]
    width = size.bit_length() - 1
    if 1 << width != size:
        raise ValueError("truth table length must be a power of two")
    k = width - 1
    strings = all_bitstrings(width)
    heads = strings[:, :k]
    last = strings[:, k]
    overall_mean = float(truth.mean())
    lhs = 0.0
    for b_index in range(1 << k):
        b = np.array([(b_index >> i) & 1 for i in range(k)], dtype=np.uint8)
        parity = (heads @ b) & 1
        mask = parity == last
        lhs += (float(truth[mask].mean()) - overall_mean) ** 2
    return lhs, overall_mean
