"""Integration: the planted-clique lower-bound theorems, measured exactly.

These tests run the exact transcript-distribution engine over protocol
families on small instances and verify the *inequalities* of Theorems 1.6
and 4.1 — the actual falsifiable content of the reproduction: a protocol
whose measured distance exceeded the bound would refute it.
"""

import numpy as np
import pytest

from repro.distinguish import (
    ProtocolSpec,
    exact_transcript_pmf,
    expected_component_distance,
    mixture_transcript_pmf,
    transcript_distance,
)
from repro.distinguish.distinguishers import random_function_protocol
from repro.distributions import PlantedClique, PlantedCliqueAt, RandomDigraph
from repro.lowerbounds import (
    planted_clique_bound,
    planted_clique_one_round_bound,
    progress_curve,
    real_distance_curve,
)


def degree_spec(n, rounds=1):
    """The natural degree-threshold distinguisher as a vectorised spec."""
    threshold = (n - 1) / 2 + 0.5

    def fn(i, rows, p):
        return (rows.sum(axis=1) >= threshold).astype(np.int64)

    return ProtocolSpec(n, rounds, fn)


def random_specs(n, rounds, seeds):
    """Seeded generic protocols as vectorised specs."""
    specs = []
    for seed in seeds:
        protocol = random_function_protocol(rounds, seed)
        fn_scalar = protocol._fn  # the deterministic hash function

        def fn(i, rows, p, _f=fn_scalar):
            return np.array([_f(i, row, p) for row in rows], dtype=np.int64)

        specs.append(ProtocolSpec(n, rounds, fn))
    return specs


class TestTheorem16OneRound:
    """One-round planted clique: ||P(Pi, A_rand) - P(Pi, A_k)|| <= O(k^2/sqrt(n))."""

    @pytest.mark.parametrize("k", [2, 3])
    def test_degree_protocol_within_bound(self, k):
        n = 8
        spec = degree_spec(n)
        distance = transcript_distance(
            exact_transcript_pmf(spec, RandomDigraph(n)),
            mixture_transcript_pmf(spec, PlantedClique(n, k)),
        )
        assert distance <= planted_clique_one_round_bound(n, k, constant=1.0)

    def test_random_protocols_within_bound(self):
        n, k = 8, 2
        mixture = PlantedClique(n, k)
        reference = RandomDigraph(n)
        bound = planted_clique_one_round_bound(n, k, constant=1.0)
        for spec in random_specs(n, 1, seeds=range(4)):
            distance = transcript_distance(
                exact_transcript_pmf(spec, reference),
                mixture_transcript_pmf(spec, mixture),
            )
            assert distance <= bound

    def test_distance_grows_with_k_shape(self):
        """The k^2 shape: distance at k=4 clearly exceeds distance at k=2
        for the degree protocol (on fixed small n)."""
        n = 8
        spec = degree_spec(n)
        reference_pmf = exact_transcript_pmf(spec, RandomDigraph(n))
        distances = {
            k: transcript_distance(
                reference_pmf, mixture_transcript_pmf(spec, PlantedClique(n, k))
            )
            for k in (2, 4, 6)
        }
        assert distances[2] <= distances[4] <= distances[6]

    def test_progress_function_dominates(self):
        """L_real <= L_progress <= bound, per the framework."""
        n, k = 6, 2
        spec = degree_spec(n)
        mixture = PlantedClique(n, k)
        reference = RandomDigraph(n)
        progress = expected_component_distance(spec, mixture, reference)
        real = transcript_distance(
            exact_transcript_pmf(spec, reference),
            mixture_transcript_pmf(spec, mixture),
        )
        assert real <= progress + 1e-12
        assert progress <= planted_clique_one_round_bound(n, k, constant=2.0)


class TestTheorem41MultiRound:
    """Multi-round: distance <= O(j * k^2 * sqrt((j + log n)/n))."""

    @pytest.mark.parametrize("j", [1, 2])
    def test_multi_round_within_bound(self, j):
        n, k = 6, 2
        mixture = PlantedClique(n, k)
        reference = RandomDigraph(n)
        for spec in random_specs(n, j, seeds=(0, 1)):
            distance = transcript_distance(
                exact_transcript_pmf(spec, reference),
                mixture_transcript_pmf(spec, mixture),
            )
            assert distance <= planted_clique_bound(n, k, j, constant=1.0)

    def test_turn_model_simulates_round_model(self):
        """Ablation: the sequential-turn relaxation is at least as strong
        as the round model — any round protocol runs unchanged in the turn
        model by masking the current round's messages, with an *identical*
        transcript distribution.  (Hence sup-over-protocols distance can
        only grow, which is why the paper proves bounds in the turn
        model.)"""
        n, k = 6, 3

        def round_fn(i, rows, p):
            majority = int(sum(p) * 2 >= len(p)) if p else 0
            return (
                (rows.sum(axis=1) >= (n - 1) / 2 + 0.5).astype(np.int64)
                | majority
            )

        def masked_turn_fn(i, rows, p):
            # Simulate the round protocol inside the turn model: ignore
            # messages of the current (partial) round.
            completed = (len(p) // n) * n
            return round_fn(i, rows, p[:completed])

        mixture = PlantedClique(n, k)
        reference = RandomDigraph(n)
        round_spec = ProtocolSpec(n, 2, round_fn, sees_current_round=False)
        turn_spec = ProtocolSpec(
            n, 2, masked_turn_fn, sees_current_round=True
        )
        for dist in (reference,):
            assert (
                transcript_distance(
                    exact_transcript_pmf(round_spec, dist),
                    exact_transcript_pmf(turn_spec, dist),
                )
                < 1e-12
            )
        round_distance = transcript_distance(
            exact_transcript_pmf(round_spec, reference),
            mixture_transcript_pmf(round_spec, mixture),
        )
        turn_distance = transcript_distance(
            exact_transcript_pmf(turn_spec, reference),
            mixture_transcript_pmf(turn_spec, mixture),
        )
        assert turn_distance == pytest.approx(round_distance)

    def test_curves_consistent(self):
        n, k = 5, 2
        spec = degree_spec(n, rounds=2)
        mixture = PlantedClique(n, k)
        reference = RandomDigraph(n)
        progress = progress_curve(spec, mixture, reference)
        real = real_distance_curve(spec, mixture, reference)
        assert all(r <= p + 1e-12 for r, p in zip(real, progress))
        assert real[-1] <= planted_clique_bound(n, k, 2, constant=1.0)


class TestSingleComponentIsEasy:
    """Sanity inversion: distinguishing a FIXED clique A_C from A_rand is
    easy — one targeted broadcast suffices.  The hardness is specifically
    about the mixture, which is why the decomposition matters."""

    def test_fixed_clique_distinguishable(self):
        n = 6
        clique = frozenset({0, 1, 2})

        def fn(i, rows, p):
            # Processor 0 broadcasts whether it sees edges to 1 and 2.
            if i == 0:
                return ((rows[:, 1] == 1) & (rows[:, 2] == 1)).astype(np.int64)
            return np.zeros(rows.shape[0], dtype=np.int64)

        spec = ProtocolSpec(n, 1, fn)
        distance = transcript_distance(
            exact_transcript_pmf(spec, RandomDigraph(n)),
            exact_transcript_pmf(spec, PlantedCliqueAt(n, clique)),
        )
        assert distance == pytest.approx(0.75)  # 1 - 1/4
