"""Tests for the brute-force exact engine (dependent distributions)."""

import numpy as np
import pytest

from repro.core import run_protocol
from repro.distinguish import (
    ProtocolSpec,
    brute_force_transcript_pmf,
    exact_transcript_pmf,
    simulate_deterministic,
    transcript_distance,
)
from repro.distributions import RandomDigraph


class TestSimulateDeterministic:
    def test_matches_simulator(self, rng):
        n = 3
        spec = ProtocolSpec.from_scalar(
            n, 2, lambda i, row, p: int((row.sum() + sum(p)) % 2)
        )
        for _ in range(10):
            matrix = rng.integers(0, 2, size=(n, 4), dtype=np.uint8)
            direct = simulate_deterministic(spec, matrix)
            via_sim = run_protocol(
                spec.as_function_protocol(), matrix,
                scheduler="turn", rng=rng,
            ).transcript.key()
            assert direct == via_sim

    def test_round_model_visibility(self, rng):
        n = 2

        def echo(i, row, p):
            return p[-1] if p else 0

        spec = ProtocolSpec.from_scalar(n, 1, echo, sees_current_round=False)
        matrix = np.array([[1], [1]], dtype=np.uint8)
        assert simulate_deterministic(spec, matrix) == (0, 0)

    def test_wrong_rows_raises(self):
        spec = ProtocolSpec.from_scalar(3, 1, lambda i, row, p: 0)
        with pytest.raises(ValueError):
            simulate_deterministic(spec, np.zeros((2, 2), dtype=np.uint8))


class TestBruteForcePmf:
    def test_agrees_with_dp_engine_on_independent_rows(self, rng):
        """Cross-validation: the brute-force path and the row-independent
        DP path must produce the identical pmf where both apply."""
        n = 3
        dist = RandomDigraph(n)
        spec = ProtocolSpec.from_scalar(
            n, 1, lambda i, row, p: int(row.sum() % 2)
        )
        # Enumerate the joint support of A_rand manually.
        from itertools import product

        supports = [dist.row_support(i) for i in range(n)]
        joint = []
        for combo in product(*[range(s[0].shape[0]) for s in supports]):
            matrix = np.stack(
                [supports[i][0][idx] for i, idx in enumerate(combo)]
            )
            prob = float(
                np.prod([supports[i][1][idx] for i, idx in enumerate(combo)])
            )
            joint.append((matrix, prob))
        brute = brute_force_transcript_pmf(spec, joint)
        dp = exact_transcript_pmf(spec, dist)
        assert transcript_distance(brute, dp) < 1e-12

    def test_unnormalised_support_rejected(self):
        spec = ProtocolSpec.from_scalar(2, 1, lambda i, row, p: 0)
        support = [(np.zeros((2, 2), dtype=np.uint8), 0.5)]
        with pytest.raises(ValueError):
            brute_force_transcript_pmf(spec, support)

    def test_merges_colliding_transcripts(self):
        spec = ProtocolSpec.from_scalar(2, 1, lambda i, row, p: 0)
        support = [
            (np.zeros((2, 2), dtype=np.uint8), 0.5),
            (np.ones((2, 2), dtype=np.uint8), 0.5),
        ]
        pmf = brute_force_transcript_pmf(spec, support)
        assert pmf == {(0, 0): pytest.approx(1.0)}
