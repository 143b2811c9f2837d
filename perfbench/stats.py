"""Pure statistics helpers: percentiles, quartiles and exact-law tolerances."""

from __future__ import annotations

import math
import statistics
from typing import Sequence

__all__ = [
    "ORACLE_ALPHA",
    "binomial_consistent",
    "median",
    "quartiles",
    "tail_percentile",
]

#: Two-sided false-alarm probability of every exact-law check.  The
#: checks run on every call of every run, so a 5% test would fail honest
#: code routinely; at 1e-9 a failure means the law is broken.
ORACLE_ALPHA = 1e-9

#: A tail percentile needs at least this many calls beyond it.
TAIL_BEYOND = 10


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) == 1:
        return (values[0],) * 3
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def tail_percentile(values: Sequence[float]) -> tuple[int, float]:
    """The highest whole percentile with at least ten samples beyond it.

    Percentiles are nearest-rank: ``p_q`` is the ``ceil(q·N/100)``-th
    smallest sample, and the samples beyond it are the ``N − ceil(q·N/100)``
    larger ones — so 100 samples give ``p90``.  When no percentile above
    the median qualifies (fewer than 21 samples) the median is returned as
    ``p50``, so the tail never reads below the median.  Returns
    ``(percentile, value)``.
    """
    if not values:
        raise ValueError("tail_percentile needs at least one sample")
    ordered = sorted(values)
    n = len(ordered)
    for q in range(99, 50, -1):
        rank = math.ceil(q * n / 100)
        if n - rank >= TAIL_BEYOND:
            return q, ordered[rank - 1]
    return 50, median(ordered)


def _log_pmf(k: int, n: int, p: float) -> float:
    return (
        math.lgamma(n + 1)
        - math.lgamma(k + 1)
        - math.lgamma(n - k + 1)
        + k * math.log(p)
        + (n - k) * math.log1p(-p)
    )


def _tail(k: int, n: int, p: float, step: int) -> float:
    """``P(X ≥ k)`` (``step=+1``) or ``P(X ≤ k)`` (``step=-1``), X ~ Bin(n, p)."""
    total = 0.0
    i = k
    while 0 <= i <= n:
        term = math.exp(_log_pmf(i, n, p))
        total += term
        # Past the mode the terms shrink geometrically; stop once they
        # no longer move the sum.
        moving_away = (i - n * p) * step > 0
        if moving_away and term < total * 1e-17:
            break
        i += step
    return min(1.0, total)


def binomial_consistent(
    successes: int, trials: int, p: float, alpha: float = ORACLE_ALPHA
) -> bool:
    """Whether ``successes`` of ``trials`` is a plausible Bin(trials, p) draw.

    An exact two-sided test: both tail probabilities of the observed count
    must be at least ``alpha / 2``.  ``p = 0`` and ``p = 1`` are exact laws
    (a single exception breaks them).
    """
    if not 0 <= successes <= trials:
        raise ValueError(f"need 0 <= successes <= trials, got {successes}/{trials}")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p}")
    if p == 0.0:
        return successes == 0
    if p == 1.0:
        return successes == trials
    upper = _tail(successes, trials, p, +1)
    lower = _tail(successes, trials, p, -1)
    return min(upper, lower) >= alpha / 2
