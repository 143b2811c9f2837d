"""Tests for the Appendix B subsampling protocol."""

import pickle

import numpy as np
import pytest

from repro.cliques import (
    PlantedCliqueSubsampleProtocol,
    activation_probability,
    expected_rounds,
    recovery_quality,
    subsample_recover,
)
from repro.core import run_protocol
from repro.distributions import PlantedClique


class TestParameters:
    def test_activation_probability(self):
        # log2(256) = 8 -> p = 64/k
        assert activation_probability(256, 64) == pytest.approx(1.0)
        assert activation_probability(256, 128) == pytest.approx(0.5)
        assert activation_probability(4, 1) == 1.0  # clamped

    def test_expected_rounds_scaling(self):
        # Rounds ~ n/k * log^2 n: doubling k halves the expectation.
        r1 = expected_rounds(1024, 128)
        r2 = expected_rounds(1024, 256)
        assert r1 - 2 == pytest.approx(2 * (r2 - 2))

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            PlantedCliqueSubsampleProtocol(0)
        with pytest.raises(ValueError):
            activation_probability(1, 4)


class TestCentralisedRecovery:
    def test_recovers_planted_clique(self, rng):
        """k = n/4 with boosted activation: comfortably recoverable."""
        n, k = 128, 32
        successes = 0
        for _ in range(5):
            matrix, clique = PlantedClique(n, k).sample_with_clique(rng)
            recovered, rounds = subsample_recover(matrix, k, rng)
            if recovered is None:
                continue
            precision, recall = recovery_quality(recovered, clique)
            if recall > 0.9 and precision > 0.9:
                successes += 1
        assert successes >= 3

    def test_round_count_matches_activation(self, rng):
        n, k = 128, 32
        matrix, _ = PlantedClique(n, k).sample_with_clique(rng)
        _, rounds = subsample_recover(matrix, k, rng)
        p = activation_probability(n, k)
        # rounds = 2 + N_active <= 2 + 2np (else aborted with rounds=1)
        assert rounds == 1 or rounds <= 2 + 2 * n * p + 1

    def test_abort_on_null_instance_or_no_clique(self, rng):
        """On A_rand the activated subgraph's max clique is tiny, so the
        protocol aborts (returns None) almost always."""
        from repro.distributions import RandomDigraph

        n, k = 128, 32
        aborts = 0
        for _ in range(5):
            matrix = RandomDigraph(n).sample(rng)
            recovered, _ = subsample_recover(matrix, k, rng)
            if recovered is None or len(recovered) < k // 2:
                aborts += 1
        assert aborts >= 4


class TestProtocol:
    def test_protocol_recovers_clique(self, rng):
        n, k = 64, 24
        protocol = PlantedCliqueSubsampleProtocol(k)
        recovered_any = False
        for seed in range(6):
            matrix, clique = PlantedClique(n, k).sample_with_clique(
                np.random.default_rng(seed)
            )
            result = run_protocol(
                protocol, matrix, rng=np.random.default_rng(seed + 100)
            )
            out = result.outputs[0]
            if out is None:
                continue
            precision, recall = recovery_quality(out, clique)
            if recall > 0.8:
                recovered_any = True
                break
        assert recovered_any

    def test_all_processors_same_output(self, rng):
        n, k = 48, 16
        matrix, _ = PlantedClique(n, k).sample_with_clique(rng)
        protocol = PlantedCliqueSubsampleProtocol(k)
        result = run_protocol(protocol, matrix, rng=rng)
        assert len(set(result.outputs)) == 1

    def test_dynamic_round_count(self, rng):
        n, k = 48, 16
        matrix, _ = PlantedClique(n, k).sample_with_clique(rng)
        protocol = PlantedCliqueSubsampleProtocol(k)
        result = run_protocol(protocol, matrix, rng=rng)
        p = activation_probability(n, k)
        assert result.cost.rounds <= 2 + int(2 * n * p) + 1

    def test_rounds_shrink_with_larger_k(self):
        """The headline scaling: rounds ~ n/k."""
        n = 96
        rounds_by_k = {}
        for k in (24, 48):
            total = 0
            for seed in range(4):
                matrix, _ = PlantedClique(n, k).sample_with_clique(
                    np.random.default_rng(seed)
                )
                protocol = PlantedCliqueSubsampleProtocol(k)
                result = run_protocol(
                    protocol, matrix, rng=np.random.default_rng(seed + 50)
                )
                total += result.cost.rounds
            rounds_by_k[k] = total / 4
        assert rounds_by_k[48] < rounds_by_k[24]

    def test_runs_leave_the_protocol_instance_unchanged(self):
        """``run_protocol`` runs the caller's instance itself (no copy), so
        any per-transcript cache on ``self`` would grow with every run;
        shared values live on the execution's transcript instead."""
        protocol = PlantedCliqueSubsampleProtocol(12, activation_factor=0.5)
        before = len(pickle.dumps(protocol))
        for seed in range(50):
            matrix = PlantedClique(16, 12).sample(np.random.default_rng(seed))
            run_protocol(protocol, matrix, rng=np.random.default_rng(seed + 1000))
        assert len(pickle.dumps(protocol)) == before
