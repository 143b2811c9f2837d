"""Absolute oracles for the scalar simulator loop.

Every other conformance suite is *relative* — vectorized against scalar,
backend against serial, model against measured — so a bug in the scalar
loop itself would pass all of them.  These cells pin the loop to exact
answers the repo computes without simulating:

* the accept count of :class:`TopSubmatrixRankProtocol` on uniform
  ``k × k`` inputs against ``full_rank_probability(k)`` (an exact
  two-sided binomial test), and exactly zero accepts at every truncated
  budget;
* the empirical transcript law of a small deterministic protocol under
  both schedulers against ``exact_transcript_pmf`` (a chi-square test);
* the transcript law of :class:`GlobalParityProtocol` on the toy PRG,
  scalar and vectorized, against ``mixture_transcript_pmf`` of its
  one-round ``ProtocolSpec`` twin (a chi-square test);
* the number of processors the planted-clique subsample protocol
  activates, scalar and vectorized, against the binomial law its 24-bit
  activation coin implies (a chi-square test), which pins the private
  coin seeds of both paths to a law and not only to each other.

Each cell is pre-registered: a pinned seed, a fixed trial count and the
significance level ``ALPHA`` below, so it is deterministic and never
flaky.  Only ``math`` is used for the tests' distributions.
"""

import math
from collections import Counter

import numpy as np
import pytest

from repro.cliques.subsample import (
    PlantedCliqueSubsampleProtocol,
    activation_probability,
)
from repro.core import Engine, RunSpec
from repro.distinguish.exact import (
    ProtocolSpec,
    exact_transcript_pmf,
    mixture_transcript_pmf,
)
from repro.distributions import RandomDigraph, ToyPRGOutput, UniformRows
from repro.linalg.rank_distribution import full_rank_probability
from repro.lowerbounds import TopSubmatrixRankProtocol
from repro.protocols import GlobalParityProtocol

#: Pre-registered significance level of every cell in this module.
ALPHA = 1e-3


def binomial_two_sided_p(successes: int, trials: int, p: float) -> float:
    """Exact two-sided binomial p-value: the mass of every outcome no more
    likely than the observed one (log-space, so any ``trials`` works)."""
    if p <= 0.0 or p >= 1.0:
        return 1.0 if successes == round(p * trials) else 0.0

    def log_pmf(i: int) -> float:
        return (
            math.log(math.comb(trials, i))
            + i * math.log(p)
            + (trials - i) * math.log1p(-p)
        )

    observed = log_pmf(successes)
    # The relative slack absorbs rounding ties between equally likely outcomes.
    cutoff = observed + 1e-7 * max(1.0, abs(observed))
    return min(
        1.0,
        sum(math.exp(lp) for lp in map(log_pmf, range(trials + 1)) if lp <= cutoff),
    )


def chi_square_sf(statistic: float, dof: int) -> float:
    """``Pr[χ²_dof ≥ statistic]``: the regularized upper incomplete gamma
    function ``Q(a, x)`` at ``a = dof/2``, ``x = statistic/2``.

    Below ``x = a + 1`` the series of the lower function ``P`` converges
    fast and ``Q = 1 − P``.  Above it, ``Q`` comes from its continued
    fraction (modified Lentz), so a large statistic yields its small
    upper tail directly: the series would overflow, or cancel ``1 − P``
    to zero, long before the tail leaves the double range.
    """
    a, x = dof / 2.0, statistic / 2.0
    if x <= 0.0:
        return 1.0
    scale = math.exp(a * math.log(x) - x - math.lgamma(a))
    if x < a + 1.0:
        term = total = 1.0 / a
        k = 0
        while term > 1e-17 * total:
            k += 1
            term *= x / (a + k)
            total += term
        return max(0.0, 1.0 - scale * total)
    # Q = scale / (x + 1 − a − 1·(1 − a) / (x + 3 − a − 2·(2 − a) / …)).
    tiny = 1e-300
    b = x + 1.0 - a
    c, d = 1.0 / tiny, 1.0 / b
    fraction = d
    for i in range(1, 10_000):
        coefficient = -i * (i - a)
        b += 2.0
        d = coefficient * d + b
        d = 1.0 / (d if abs(d) > tiny else tiny)
        c = b + coefficient / c
        c = c if abs(c) > tiny else tiny
        fraction *= c * d
        if abs(c * d - 1.0) < 1e-15:
            break
    return scale * fraction


def chi_square_p(counts: dict, pmf: dict, trials: int, min_expected: float = 5.0) -> float:
    """Pearson goodness-of-fit p-value of ``counts`` against ``pmf``.

    Cells expected fewer than ``min_expected`` times are pooled into one,
    the usual validity condition for the chi-square approximation.
    """
    statistic, pooled_observed, pooled_expected, cells = 0.0, 0, 0.0, 0
    for key, prob in pmf.items():
        expected = prob * trials
        observed = counts.get(key, 0)
        if expected < min_expected:
            pooled_observed += observed
            pooled_expected += expected
            continue
        statistic += (observed - expected) ** 2 / expected
        cells += 1
    if pooled_expected > 0.0:
        statistic += (pooled_observed - pooled_expected) ** 2 / pooled_expected
        cells += 1
    return chi_square_sf(statistic, cells - 1)


class TestStatisticHelpers:
    """The cells below are only as good as these p-values."""

    def test_binomial_p_value_matches_hand_computation(self):
        # Bin(4, 1/2): outcomes no likelier than 0 successes are {0, 4}.
        assert binomial_two_sided_p(0, 4, 0.5) == pytest.approx(2 / 16)
        assert binomial_two_sided_p(2, 4, 0.5) == pytest.approx(1.0)
        # Bin(10, 0.3): pmf(1) ≈ 0.121 and pmf(5) ≈ 0.103 is no likelier.
        assert binomial_two_sided_p(1, 10, 0.3) == pytest.approx(
            sum(
                math.comb(10, i) * 0.3**i * 0.7 ** (10 - i)
                for i in (0, 1, 5, 6, 7, 8, 9, 10)
            )
        )

    @pytest.mark.parametrize(
        "statistic,dof,expected",
        [
            # Even dof has the closed form e^{-x/2} Σ_{i<dof/2} (x/2)^i / i!.
            (3.0, 2, math.exp(-1.5)),
            (10.0, 4, math.exp(-5.0) * (1 + 5.0)),
            # Odd dof: the familiar 5% critical values.
            (3.841458820694124, 1, 0.05),
            (11.070497693516351, 5, 0.05),
        ],
    )
    def test_chi_square_sf_known_values(self, statistic, dof, expected):
        assert chi_square_sf(statistic, dof) == pytest.approx(expected, rel=1e-9)

    def test_chi_square_sf_far_upper_tail(self):
        """Statistics where ``1 − P`` cancels to 0 (and, further out, the
        lower series overflows) still get their upper tail."""
        assert chi_square_sf(200.0, 4) == pytest.approx(
            math.exp(-100.0) * (1 + 100.0), rel=1e-9
        )
        assert chi_square_sf(1400.0, 2) == pytest.approx(
            math.exp(-700.0), rel=1e-9
        )
        # Half-integer a = 15/2: Q(a, x) = erfc(√x) + e^{-x} Σ_{j<7}
        # x^{j+1/2} / Γ(j + 3/2), at the parity cell's 15 degrees of freedom.
        x = 500.0
        closed = math.erfc(math.sqrt(x)) + math.exp(-x) * sum(
            x ** (j + 0.5) / math.gamma(j + 1.5) for j in range(7)
        )
        assert chi_square_sf(2 * x, 15) == pytest.approx(closed, rel=1e-9)
        # e^{-747.5} is below the smallest double: 0.0, not nan.
        assert chi_square_sf(1580.0, 15) == 0.0

    def test_chi_square_rejects_a_wrong_law(self):
        pmf = {0: 0.5, 1: 0.5}
        assert chi_square_p({0: 600, 1: 400}, pmf, 1000) < ALPHA
        assert chi_square_p({0: 510, 1: 490}, pmf, 1000) > 0.5


# ----------------------------------------------------------------------
# Rank protocol accept counts against full_rank_probability
# ----------------------------------------------------------------------
RANK_CELLS = [
    # (k, trials, seed)
    (4, 600, 20261),
    (8, 600, 20262),
]


def _rank_accepts(k: int, budget: int, trials: int, seed: int, vectorized: bool) -> int:
    spec = RunSpec(
        protocol=TopSubmatrixRankProtocol(k, rounds_budget=budget),
        distribution=UniformRows(k, k),
        seed=seed,
        vectorized=vectorized,
    )
    return int(Engine().run_batch(spec, trials).decisions().sum())


@pytest.mark.parametrize("vectorized", [False, True], ids=["scalar", "vectorized"])
@pytest.mark.parametrize("k,trials,seed", RANK_CELLS)
class TestRankAcceptCount:
    def test_full_budget_matches_full_rank_probability(self, k, trials, seed, vectorized):
        accepts = _rank_accepts(k, k, trials, seed, vectorized)
        p_value = binomial_two_sided_p(accepts, trials, full_rank_probability(k))
        assert p_value > ALPHA, f"{accepts}/{trials} accepts, p = {p_value:.3g}"

    def test_truncated_budgets_never_accept(self, k, trials, seed, vectorized):
        # Below the full budget the posterior of full rank stays under 1/2.
        for budget in (0, 1, k // 2, k - 1):
            assert _rank_accepts(k, budget, trials // 4, seed, vectorized) == 0


# ----------------------------------------------------------------------
# Transcript law of a deterministic protocol against exact_transcript_pmf
# ----------------------------------------------------------------------
LAW_N, LAW_M, LAW_ROUNDS, LAW_TRIALS = 4, 2, 2, 4000


def _law_fn(proc_id: int, rows: np.ndarray, p: tuple[int, ...]) -> np.ndarray:
    """Round ``r`` (read off the visible prefix length): broadcast bit ``r``
    of the row when the visible transcript has even parity, else bit ``r``
    AND the other bit — so what a speaker can see changes the law."""
    r = len(p) // LAW_N
    bit = rows[:, r].astype(np.int64)
    other = rows[:, 1 - r].astype(np.int64)
    return bit if sum(p) % 2 == 0 else bit & other


def _law_spec(scheduler: str) -> ProtocolSpec:
    return ProtocolSpec(LAW_N, LAW_ROUNDS, _law_fn, sees_current_round=scheduler == "turn")


@pytest.mark.parametrize("scheduler,other,seed", [("round", "turn", 7101), ("turn", "round", 7102)])
def test_transcript_law_matches_exact_pmf(scheduler, other, seed):
    dist = UniformRows(LAW_N, LAW_M)
    pmf = exact_transcript_pmf(_law_spec(scheduler), dist)
    batch = Engine().run_batch(
        RunSpec(
            protocol=_law_spec(scheduler).as_function_protocol(),
            distribution=dist,
            scheduler=scheduler,
            seed=seed,
        ),
        LAW_TRIALS,
    )
    counts = batch.key_counts()
    impossible = set(counts) - set(pmf)
    assert not impossible, f"transcripts outside the exact support: {impossible}"
    p_value = chi_square_p(counts, pmf, LAW_TRIALS)
    assert p_value > ALPHA, f"chi-square p = {p_value:.3g} under {scheduler!r}"
    # Power: the other scheduler's law is rejected on the same sample, so
    # a scheduler that leaked (or hid) same-round messages fails the cell.
    wrong = exact_transcript_pmf(_law_spec(other), dist)
    assert set(counts) - set(wrong) or chi_square_p(counts, wrong, LAW_TRIALS) < ALPHA


# ----------------------------------------------------------------------
# Parity transcript law on the toy PRG against mixture_transcript_pmf
# ----------------------------------------------------------------------
PARITY_N, PARITY_K = 4, 2


def _row_parity(proc_id: int, rows: np.ndarray, p: tuple[int, ...]) -> np.ndarray:
    """``GlobalParityProtocol``'s one broadcast: the speaker's row parity."""
    return (rows.sum(axis=1) % 2).astype(np.int64)


@pytest.mark.parametrize("vectorized", [False, True], ids=["scalar", "vectorized"])
@pytest.mark.parametrize("seed", [7201, 7202])
def test_parity_law_matches_mixture_pmf(seed, vectorized):
    dist = ToyPRGOutput(PARITY_N, PARITY_K)
    spec = ProtocolSpec(PARITY_N, 1, _row_parity, sees_current_round=False)
    pmf = mixture_transcript_pmf(spec, dist)
    # Not uniform: the secret b = (1, 1) makes every row parity 0, so the
    # all-zero transcript has mass 1/4 + 3/4 · 1/16.
    assert pmf[(0,) * PARITY_N] == pytest.approx(19 / 64)
    batch = Engine().run_batch(
        RunSpec(
            protocol=GlobalParityProtocol(),
            distribution=dist,
            seed=seed,
            vectorized=vectorized,
        ),
        LAW_TRIALS,
    )
    counts = batch.key_counts()
    impossible = set(counts) - set(pmf)
    assert not impossible, f"transcripts outside the exact support: {impossible}"
    p_value = chi_square_p(counts, pmf, LAW_TRIALS)
    assert p_value > ALPHA, f"chi-square p = {p_value:.3g}"
    # Power: the uniform-rows law (every transcript 1/16) is rejected on
    # the same sample, so a parity that ignored the secret fails the cell.
    uniform = exact_transcript_pmf(spec, UniformRows(PARITY_N, PARITY_K + 1))
    assert chi_square_p(counts, uniform, LAW_TRIALS) < ALPHA


# ----------------------------------------------------------------------
# Subsample activation coins against their binomial law
# ----------------------------------------------------------------------
COIN_N, COIN_K, COIN_FACTOR, COIN_TRIALS, COIN_SEED = 16, 12, 0.5, 400, 7301


def _binomial_pmf(n: int, q: float) -> dict[int, float]:
    return {i: math.comb(n, i) * q**i * (1.0 - q) ** (n - i) for i in range(n + 1)}


@pytest.mark.parametrize("vectorized", [False, True], ids=["scalar", "vectorized"])
def test_activation_count_is_binomial(vectorized):
    """Round 0 of the subsample protocol is every processor's activation
    bit: ``draw < p · 2^24`` on a uniform 24-bit draw from its private
    coins, so each bit is 1 with ``q = ⌈p · 2^24⌉ / 2^24`` and a trial's
    first ``n`` key turns hold a Binomial(n, q) count of 1s."""
    p = activation_probability(COIN_N, COIN_K, COIN_FACTOR)
    q = math.ceil(p * 2**24) / 2**24
    batch = Engine().run_batch(
        RunSpec(
            protocol=PlantedCliqueSubsampleProtocol(
                COIN_K, activation_factor=COIN_FACTOR
            ),
            distribution=RandomDigraph(COIN_N),
            seed=COIN_SEED,
            vectorized=vectorized,
        ),
        COIN_TRIALS,
    )
    counts = Counter(sum(key[:COIN_N]) for key in batch.transcript_keys)
    p_value = chi_square_p(counts, _binomial_pmf(COIN_N, q), COIN_TRIALS)
    assert p_value > ALPHA, f"chi-square p = {p_value:.3g}"
    # Power: an activation probability 0.05 off either way is rejected on
    # the same sample.
    for wrong in (q - 0.05, q + 0.05):
        assert chi_square_p(counts, _binomial_pmf(COIN_N, wrong), COIN_TRIALS) < ALPHA
