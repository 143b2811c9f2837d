"""Tests for structured random-matrix samplers."""

import numpy as np
import pytest

from repro.linalg import (
    matrix_with_rank,
    prg_matrix,
    rank_deficient_matrix,
    uniform_matrix,
)


class TestUniform:
    def test_shape(self, rng):
        m = uniform_matrix(5, 9, rng)
        assert m.rows == 5 and m.cols == 9

    def test_mean_density_near_half(self, rng):
        m = uniform_matrix(64, 64, rng)
        density = m.to_array().mean()
        assert 0.4 < density < 0.6


class TestPRGMatrix:
    def test_output_structure(self, rng):
        output, seeds, secret = prg_matrix(20, 30, 8, rng)
        assert output.rows == 20 and output.cols == 30
        assert seeds.rows == 20 and seeds.cols == 8
        assert secret.rows == 8 and secret.cols == 22

    def test_tail_is_seed_times_secret(self, rng):
        output, seeds, secret = prg_matrix(16, 24, 6, rng)
        out = output.to_array()
        expected_tail = (seeds.to_array() @ secret.to_array()) % 2
        assert np.array_equal(out[:, :6], seeds.to_array())
        assert np.array_equal(out[:, 6:], expected_tail)

    def test_rank_at_most_k(self, rng):
        # The defining property of the PRG output: everything lives in a
        # k-dimensional row structure.
        output, _, _ = prg_matrix(32, 48, 7, rng)
        assert output.rank() <= 7

    def test_m_equals_k_is_uniform_seed(self, rng):
        output, seeds, _ = prg_matrix(10, 5, 5, rng)
        assert output == seeds

    def test_invalid_k_raises(self, rng):
        with pytest.raises(ValueError):
            prg_matrix(4, 4, 0, rng)
        with pytest.raises(ValueError):
            prg_matrix(4, 4, 5, rng)


class TestRankDeficient:
    def test_never_full_rank(self, rng):
        for _ in range(10):
            m = rank_deficient_matrix(12, rng)
            assert m.rank() <= 11

    def test_rank_n_minus_1_with_positive_probability(self, rng):
        # rank(output) = rank(seed block); an n x (n-1) uniform block has
        # full column rank with probability ~0.5776, so roughly 6 in 10
        # samples hit rank exactly n-1.
        hits = sum(
            1 for _ in range(100) if rank_deficient_matrix(12, rng).rank() == 11
        )
        assert 35 <= hits <= 80


class TestMatrixWithRank:
    @pytest.mark.parametrize("r", [0, 1, 3, 5])
    def test_exact_rank(self, rng, r):
        m = matrix_with_rank(8, 10, r, rng)
        assert m.rank() == r

    def test_invalid_rank_raises(self, rng):
        with pytest.raises(ValueError):
            matrix_with_rank(3, 3, 4, rng)
