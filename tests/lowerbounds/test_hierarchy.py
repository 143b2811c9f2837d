"""Tests for the rank protocols and the time hierarchy (Theorems 1.4/1.5)."""

import numpy as np
import pytest

from repro.core import Engine, RunSpec, run_protocol
from repro.distributions import UniformRows
from repro.linalg import full_rank_probability
from repro.lowerbounds import (
    TopSubmatrixRankProtocol,
    accuracy_on_uniform,
    conditional_full_rank_probability,
    full_rank_indicator,
    optimal_accuracy_with_columns,
    top_submatrix_full_rank,
)


class TestIndicators:
    def test_full_rank_indicator(self):
        assert full_rank_indicator(np.eye(4, dtype=np.uint8)) == 1
        assert full_rank_indicator(np.zeros((3, 3), dtype=np.uint8)) == 0

    def test_requires_square(self):
        with pytest.raises(ValueError):
            full_rank_indicator(np.zeros((2, 3), dtype=np.uint8))

    def test_top_submatrix(self):
        matrix = np.zeros((4, 4), dtype=np.uint8)
        matrix[:2, :2] = np.eye(2)
        assert top_submatrix_full_rank(matrix, 2) == 1
        assert top_submatrix_full_rank(matrix, 3) == 0

    def test_block_too_large(self):
        with pytest.raises(ValueError):
            top_submatrix_full_rank(np.zeros((2, 2), dtype=np.uint8), 3)


class TestFullBudgetProtocol:
    def test_exact_on_all_samples(self, rng):
        """The k-round protocol computes F_k exactly — the upper-bound side
        of Theorem 1.5."""
        n, k = 8, 5
        protocol = TopSubmatrixRankProtocol(k)
        for _ in range(20):
            matrix = rng.integers(0, 2, size=(n, n), dtype=np.uint8)
            result = run_protocol(protocol, matrix, rng=rng)
            assert result.outputs[0] == top_submatrix_full_rank(matrix, k)

    def test_round_count_is_k(self, rng):
        n, k = 8, 5
        protocol = TopSubmatrixRankProtocol(k)
        result = run_protocol(
            protocol, rng.integers(0, 2, size=(n, n), dtype=np.uint8), rng=rng
        )
        assert result.cost.rounds == k

    def test_all_processors_agree(self, rng):
        protocol = TopSubmatrixRankProtocol(4)
        matrix = rng.integers(0, 2, size=(6, 6), dtype=np.uint8)
        result = run_protocol(protocol, matrix, rng=rng)
        assert len(set(result.outputs)) == 1

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            TopSubmatrixRankProtocol(0)
        with pytest.raises(ValueError):
            TopSubmatrixRankProtocol(4, rounds_budget=-1)


class TestTruncatedProtocol:
    def test_certain_rejection_used(self, rng):
        """If the revealed columns are dependent the truncated protocol
        answers 0, which is always correct."""
        n, k, j = 8, 6, 3
        protocol = TopSubmatrixRankProtocol(k, rounds_budget=j)
        matrix = rng.integers(0, 2, size=(n, n), dtype=np.uint8)
        matrix[:, 1] = matrix[:, 0]  # force dependent revealed columns
        result = run_protocol(protocol, matrix, rng=rng)
        assert result.outputs[0] == 0
        assert top_submatrix_full_rank(matrix, k) == 0

    def test_truncated_round_count(self, rng):
        protocol = TopSubmatrixRankProtocol(6, rounds_budget=2)
        matrix = rng.integers(0, 2, size=(8, 8), dtype=np.uint8)
        result = run_protocol(protocol, matrix, rng=rng)
        assert result.cost.rounds == 2


def columns_independent(block):
    """No nonempty set of ``block``'s columns XORs to zero (brute force)."""
    j = block.shape[1]
    return all(
        np.bitwise_xor.reduce(block[:, [c for c in range(j) if mask >> c & 1]], axis=1)
        .any()
        for mask in range(1, 1 << j)
    )


class TestExhaustiveOracle:
    def test_every_3x3_matrix_at_every_budget(self, rng):
        """The scalar decision is ``F_3`` at the full budget and the Bayes
        rule on the revealed columns below it, on all 512 matrices."""
        k = 3
        matrices = [
            np.array([(code >> i) & 1 for i in range(k * k)], dtype=np.uint8)
            .reshape(k, k)
            for code in range(1 << (k * k))
        ]
        for j in range(k + 1):
            protocol = TopSubmatrixRankProtocol(k, rounds_budget=j)
            got = [run_protocol(protocol, m, rng=rng).outputs[0] for m in matrices]
            if j == k:
                expected = [top_submatrix_full_rank(m, k) for m in matrices]
            else:
                guess = int(conditional_full_rank_probability(k, j) > 0.5)
                expected = [
                    guess if j and columns_independent(m[:, :j]) else 0
                    for m in matrices
                ]
            assert got == expected
            decisions, _ = protocol.batch_decisions(np.stack(matrices))
            assert decisions.tolist() == got


class TestMalformedShapes:
    """Inputs without a ``k × j`` block are refused alike by the scalar
    and the vectorized path, under either scheduler."""

    @staticmethod
    def run(protocol, n, m, vectorized, scheduler):
        spec = RunSpec(
            protocol=protocol,
            distribution=UniformRows(n, m),
            seed=1,
            vectorized=vectorized,
            scheduler=scheduler,
        )
        return Engine().run_batch(spec, 4)

    @pytest.mark.parametrize("vectorized", [False, True])
    @pytest.mark.parametrize("scheduler", ["round", "turn"])
    @pytest.mark.parametrize(
        "k, budget, n, m",
        [
            (8, None, 4, 8),  # fewer processors than k
            (8, 0, 4, 8),  # even with nothing revealed
            (8, None, 8, 4),  # rows shorter than the k revealed bits
            (8, 3, 8, 2),  # rows shorter than the budget
        ],
    )
    def test_rejected(self, vectorized, scheduler, k, budget, n, m):
        j = k if budget is None else budget
        with pytest.raises(
            ValueError, match=f"inputs must expose a {k} x {j} revealed block"
        ):
            self.run(TopSubmatrixRankProtocol(k, budget), n, m, vectorized, scheduler)

    @pytest.mark.parametrize("scheduler", ["round", "turn"])
    def test_rows_as_long_as_the_budget_suffice(self, scheduler):
        protocol = TopSubmatrixRankProtocol(8, rounds_budget=3)
        scalar = self.run(protocol, 8, 3, False, scheduler)
        vectorized = self.run(protocol, 8, 3, True, scheduler)
        assert scalar.outputs == vectorized.outputs
        assert scalar.transcript_keys == vectorized.transcript_keys


class TestClosedForms:
    def test_conditional_probability_at_zero_is_q0ish(self):
        assert conditional_full_rank_probability(
            12, 0
        ) == pytest.approx(full_rank_probability(12), rel=1e-9)

    def test_conditional_below_half_until_k(self):
        k = 10
        for j in range(k):
            assert conditional_full_rank_probability(k, j) < 0.5 + 1e-12
        assert conditional_full_rank_probability(k, k) == 1.0

    def test_optimal_accuracy_monotone_in_j(self):
        k = 10
        values = [optimal_accuracy_with_columns(k, j) for j in range(k + 1)]
        for a, b in zip(values, values[1:]):
            assert b >= a - 1e-12
        assert values[0] == pytest.approx(1 - full_rank_probability(k))
        assert values[-1] == 1.0

    def test_hierarchy_gap(self):
        """The Theorem 1.5 shape: below ~k rounds no column-revealing rule
        reaches 0.99, at k rounds accuracy is 1."""
        k = 20
        assert optimal_accuracy_with_columns(k, k // 20) < 0.99
        assert optimal_accuracy_with_columns(k, k // 2) < 0.99
        assert optimal_accuracy_with_columns(k, k) == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            conditional_full_rank_probability(4, 5)
        with pytest.raises(ValueError):
            optimal_accuracy_with_columns(4, -1)


class TestAccuracyHarness:
    def test_full_budget_accuracy_is_one(self, rng):
        acc = accuracy_on_uniform(
            TopSubmatrixRankProtocol(4), n=6, k=4, n_samples=30, rng=rng
        )
        assert acc == 1.0

    def test_truncated_accuracy_matches_theory(self, rng):
        """Measured truncated-protocol accuracy tracks the closed form."""
        n, k, j = 8, 6, 2
        acc = accuracy_on_uniform(
            TopSubmatrixRankProtocol(k, rounds_budget=j),
            n=n, k=k, n_samples=250, rng=rng,
        )
        expected = optimal_accuracy_with_columns(k, j)
        assert abs(acc - expected) < 0.1
