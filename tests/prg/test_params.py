"""Tests for the PRG parameter-selection API."""

import pytest

from repro.core import run_protocol
from repro.prg import (
    MatrixPRGProtocol,
    choose_parameters,
    matrix_prg_rounds,
)


class TestConstraints:
    def test_fooling_horizon_constraint(self):
        params = choose_parameters(n=64, m=64, j_rounds=30)
        assert params.k >= 10 * 30

    def test_error_constraint(self):
        tight = choose_parameters(n=64, m=64, j_rounds=2, epsilon=1e-9)
        loose = choose_parameters(n=64, m=64, j_rounds=2, epsilon=0.1)
        assert tight.k > loose.k
        # 2*j*n/2^{k/9} <= epsilon at the chosen k.
        assert 2 * 2 * 64 / 2 ** (tight.k / 9) <= 1e-9

    def test_output_length_constraint(self):
        params = choose_parameters(n=64, m=4096, j_rounds=1)
        assert params.m <= 2 ** (params.k / 20)

    def test_m_padded_to_k(self):
        params = choose_parameters(n=1024, m=1, j_rounds=5)
        assert params.m >= params.k

    def test_default_epsilon_is_inverse_n(self):
        params = choose_parameters(n=128, m=128, j_rounds=1)
        assert params.epsilon == pytest.approx(1 / 128)

    def test_validation(self):
        with pytest.raises(ValueError):
            choose_parameters(n=1, m=4, j_rounds=1)
        with pytest.raises(ValueError):
            choose_parameters(n=4, m=0, j_rounds=1)
        with pytest.raises(ValueError):
            choose_parameters(n=4, m=4, j_rounds=0)
        with pytest.raises(ValueError):
            choose_parameters(n=4, m=4, j_rounds=1, epsilon=2.0)


class TestCostSheet:
    def test_round_formula_consistency(self):
        params = choose_parameters(n=256, m=512, j_rounds=3)
        assert params.construction_rounds == matrix_prg_rounds(
            256, params.k, params.m
        )

    def test_security_margin_positive(self):
        params = choose_parameters(n=64, m=64, j_rounds=4)
        assert params.breaking_rounds == params.k + 1
        assert params.security_margin > 0

    def test_stretch_greater_than_one_for_large_m(self):
        params = choose_parameters(n=4096, m=4096, j_rounds=2)
        assert params.stretch > 1.0

    def test_summary_mentions_k(self):
        params = choose_parameters(n=64, m=64, j_rounds=1)
        assert f"k={params.k}" in params.summary()

    def test_parameters_actually_run(self):
        """The chosen parameters drive a real PRG execution with exactly
        the predicted costs."""
        import numpy as np

        params = choose_parameters(n=32, m=4, j_rounds=1, epsilon=0.5)
        protocol = MatrixPRGProtocol(params.k, params.m)
        result = run_protocol(
            protocol,
            np.zeros((params.n, 1), dtype=np.uint8),
            rng=np.random.default_rng(0),
        )
        assert result.cost.rounds == params.construction_rounds
        assert (
            result.cost.max_private_bits <= params.private_bits_per_processor
        )
        assert result.outputs[0].shape == (params.m,)
