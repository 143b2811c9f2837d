"""Integration: the three-layer chain of evidence for the lower bounds.

For each problem the reproduction produces three numbers per instance:

    measured (concrete protocol)
        ≤ information ceiling (optimal over all next-message functions)
        ≤ theorem bound (the paper's envelope, fitted constant ≤ 1)

These tests verify the full chain so every experiment's logic — "no
protocol we built beats the bound, and no protocol *could*, because even
the optimum is below it" — holds end to end.
"""

import numpy as np
import pytest

from repro.distinguish import (
    ProtocolSpec,
    exact_transcript_pmf,
    first_round_distance_ceiling,
    mixture_transcript_pmf,
    optimal_single_broadcast_distance,
    transcript_distance,
)
from repro.distributions import (
    PlantedClique,
    RandomDigraph,
    ToyPRGOutput,
    UniformRows,
)
from repro.lowerbounds import (
    planted_clique_one_round_bound,
    toy_prg_one_round_bound,
)


def degree_spec(n):
    threshold = (n - 1) / 2 + 0.5

    def fn(i, rows, p):
        return (rows.sum(axis=1) >= threshold).astype(np.int64)

    return ProtocolSpec(n, 1, fn)


class TestPlantedCliqueChain:
    @pytest.mark.parametrize("k", [2, 3])
    def test_three_layer_chain(self, k):
        n = 7
        spec = degree_spec(n)
        reference = RandomDigraph(n)
        mixture = PlantedClique(n, k)
        measured = transcript_distance(
            exact_transcript_pmf(spec, reference),
            mixture_transcript_pmf(spec, mixture),
        )
        ceiling = first_round_distance_ceiling(reference, mixture)
        bound = planted_clique_one_round_bound(n, k, constant=1.0)
        assert measured <= ceiling + 1e-12
        assert ceiling <= bound + 1e-12 or bound == 1.0

    def test_per_row_ceiling_symmetry(self):
        """All rows are exchangeable under both distributions, so the
        per-row ceilings are identical."""
        n, k = 5, 2
        values = [
            optimal_single_broadcast_distance(
                RandomDigraph(n), PlantedClique(n, k), i
            )
            for i in range(n)
        ]
        for v in values[1:]:
            assert v == pytest.approx(values[0])

    def test_ceiling_scales_with_k(self):
        n = 6
        ceilings = [
            optimal_single_broadcast_distance(
                RandomDigraph(n), PlantedClique(n, k), 0
            )
            for k in (2, 3, 4)
        ]
        assert ceilings[0] <= ceilings[1] <= ceilings[2] + 1e-12


class TestToyPRGChain:
    @pytest.mark.parametrize("k", [3, 5])
    def test_three_layer_chain(self, k):
        n = 3

        def last_bit(i, rows, p):
            return rows[:, -1].astype(np.int64)

        spec = ProtocolSpec(n, 1, last_bit)
        uniform = UniformRows(n, k + 1)
        pseudo = ToyPRGOutput(n, k)
        measured = transcript_distance(
            exact_transcript_pmf(spec, uniform),
            mixture_transcript_pmf(spec, pseudo),
        )
        ceiling = first_round_distance_ceiling(uniform, pseudo)
        bound = toy_prg_one_round_bound(n, k, constant=1.0)
        assert measured <= ceiling + 1e-12
        assert ceiling <= bound + 1e-12

    def test_single_row_ceiling_is_zero_seed_anomaly(self):
        """The per-row ceiling equals 2^{-(k+1)} exactly — a single toy-PRG
        row differs from uniform only at the all-zero seed."""
        for k in (2, 4, 6):
            value = optimal_single_broadcast_distance(
                UniformRows(2, k + 1), ToyPRGOutput(2, k), 0
            )
            assert value == pytest.approx(2.0 ** -(k + 1))

    def test_joint_beats_marginal(self):
        """The paper's whole point: per-row (marginal) distinguishability
        is exponentially small, yet the Theorem 8.1 attack on the *joint*
        distribution wins — correlation, not marginals, carries the
        secret."""
        n, k = 10, 3
        per_row = optimal_single_broadcast_distance(
            UniformRows(n, k + 1), ToyPRGOutput(n, k), 0
        )
        assert per_row < 0.1
        # The joint attack from the test-suite achieves advantage ~1/2
        # (see tests/prg/test_attacks.py); here we just confirm the
        # marginal ceiling is far below the joint attack's 0.45+.
        assert 0.45 > 4 * per_row
