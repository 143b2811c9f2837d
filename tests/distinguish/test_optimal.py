"""Tests for exact optimal-single-broadcast ceilings."""

import numpy as np
import pytest

from repro.distinguish import (
    ProtocolSpec,
    exact_transcript_pmf,
    first_round_distance_ceiling,
    mixture_transcript_pmf,
    optimal_single_broadcast_distance,
    row_marginal_pmf,
    transcript_distance,
)
from repro.distributions import (
    PlantedClique,
    PlantedCliqueAt,
    RandomDigraph,
    ToyPRGOutput,
    UniformRows,
)


class TestRowMarginal:
    def test_uniform_marginal(self):
        pmf = row_marginal_pmf(UniformRows(2, 3), 0)
        assert len(pmf) == 8
        assert sum(pmf.values()) == pytest.approx(1.0)

    def test_mixture_marginal_averages(self):
        n, k = 4, 2
        pmf = row_marginal_pmf(PlantedClique(n, k), 0)
        assert sum(pmf.values()) == pytest.approx(1.0)
        # Row 0's marginal mixes the "in clique" and "not in clique" cases:
        # support is everything with bit 0 = 0.
        for key in pmf:
            row = np.frombuffer(key, dtype=np.uint8)
            assert row[0] == 0

    def test_type_error(self):
        from repro.distributions.base import InputDistribution

        with pytest.raises(TypeError):
            row_marginal_pmf(InputDistribution(2, 2), 0)


class TestOptimalDistance:
    def test_identical_distributions_zero(self):
        dist = RandomDigraph(4)
        assert optimal_single_broadcast_distance(dist, dist, 0) == 0.0

    def test_planted_clique_known_value(self):
        """Row marginal under A_k: w.p. k/n the row is a member with k-1
        forced ones.  The likelihood-ratio region is exactly the forced
        patterns; the closed-form TV follows by counting."""
        n, k = 5, 3
        value = optimal_single_broadcast_distance(
            RandomDigraph(n), PlantedClique(n, k), 0
        )
        # member prob = k/n; over the C(n-1, k-1) placements, each forces
        # k-1 bits to 1: TV = (k/n) * (1 - 2^{-(k-1)}) only when placements
        # don't overlap... compute instead by direct enumeration here:
        rand_pmf = row_marginal_pmf(RandomDigraph(n), 0)
        planted_pmf = row_marginal_pmf(PlantedClique(n, k), 0)
        manual = 0.5 * sum(
            abs(rand_pmf.get(s, 0.0) - planted_pmf.get(s, 0.0))
            for s in set(rand_pmf) | set(planted_pmf)
        )
        assert value == pytest.approx(manual)
        assert 0 < value <= k / n  # mixing weight caps the distance

    def test_dominates_any_concrete_protocol(self):
        """A protocol where only processor 0 broadcasts (others send 0)
        cannot exceed the single-broadcast ceiling."""
        n, k = 5, 3

        def lone_speaker(i, rows, p):
            if i == 0:
                return (rows.sum(axis=1) >= 3).astype(np.int64)
            return np.zeros(rows.shape[0], dtype=np.int64)

        spec = ProtocolSpec(n, 1, lone_speaker)
        reference = RandomDigraph(n)
        mixture = PlantedClique(n, k)
        measured = transcript_distance(
            exact_transcript_pmf(spec, reference),
            mixture_transcript_pmf(spec, mixture),
        )
        ceiling = optimal_single_broadcast_distance(reference, mixture, 0)
        assert measured <= ceiling + 1e-12

    def test_toy_prg_single_row_ceiling(self):
        """One toy-PRG row alone is almost uniform: the optimal single
        broadcast gets only the zero-seed anomaly 2^{-(k+1)}."""
        k = 4
        value = optimal_single_broadcast_distance(
            UniformRows(3, k + 1), ToyPRGOutput(3, k), 0
        )
        assert value == pytest.approx(2.0 ** -(k + 1))


class TestRoundCeiling:
    def test_subadditive_sum(self):
        n, k = 4, 2
        reference = RandomDigraph(n)
        mixture = PlantedClique(n, k)
        per_row = [
            optimal_single_broadcast_distance(reference, mixture, i)
            for i in range(n)
        ]
        assert first_round_distance_ceiling(
            reference, mixture
        ) == pytest.approx(min(1.0, sum(per_row)))

    def test_fixed_component_is_easier(self):
        """Against a *fixed* clique the per-row ceiling is larger than
        against the mixture — quantifying the decomposition's point."""
        n = 6
        clique = frozenset({0, 1, 2})
        fixed = optimal_single_broadcast_distance(
            RandomDigraph(n), PlantedCliqueAt(n, clique), 0
        )
        mixed = optimal_single_broadcast_distance(
            RandomDigraph(n), PlantedClique(n, 3), 0
        )
        assert fixed > mixed

    def test_mismatched_n_rejected(self):
        with pytest.raises(ValueError):
            first_round_distance_ceiling(RandomDigraph(3), RandomDigraph(4))
