"""Tests for the uniform input distributions."""

import numpy as np
import pytest

from repro.core.randomness import TrialStreams
from repro.distributions import RandomDigraph, UniformRows


class TestUniformRows:
    def test_shape(self, rng):
        dist = UniformRows(5, 7)
        sample = dist.sample(rng)
        assert sample.shape == (5, 7)
        assert set(np.unique(sample)) <= {0, 1}

    def test_row_support_complete(self):
        support, probs = UniformRows(2, 3).row_support(0)
        assert support.shape == (8, 3)
        assert probs.sum() == pytest.approx(1.0)
        assert len({tuple(r) for r in support}) == 8

    def test_sample_many(self):
        # A six-trial chunk makes the draws of six sample() calls, one
        # on each spawned child's default_rng.
        dist = UniformRows(3, 4)
        batch = dist.sample_each(TrialStreams(np.random.SeedSequence(11), 6))
        children = np.random.SeedSequence(11).spawn(6)
        assert batch.shape == (6, 3, 4)
        assert np.array_equal(
            batch, np.stack([dist.sample(np.random.default_rng(c)) for c in children])
        )

    def test_mean_density(self, rng):
        sample = UniformRows(50, 50).sample(rng)
        assert 0.4 < sample.mean() < 0.6

    def test_invalid_dimensions(self):
        with pytest.raises(ValueError):
            UniformRows(0, 3)


class TestRandomDigraph:
    def test_zero_diagonal(self, rng):
        sample = RandomDigraph(10).sample(rng)
        assert np.all(np.diag(sample) == 0)

    def test_row_support_excludes_self_loop(self):
        dist = RandomDigraph(3)
        for i in range(3):
            support, probs = dist.row_support(i)
            assert support.shape == (4, 3)  # 2^(n-1) rows
            assert np.all(support[:, i] == 0)
            assert probs.sum() == pytest.approx(1.0)

    def test_sample_row_matches_support(self, rng):
        dist = RandomDigraph(4)
        support, _ = dist.row_support(2)
        support_set = {tuple(r) for r in support}
        for _ in range(20):
            assert tuple(dist.sample_row(2, rng)) in support_set

    def test_off_diagonal_density(self, rng):
        sample = RandomDigraph(60).sample(rng)
        off_diag = sample[~np.eye(60, dtype=bool)]
        assert 0.45 < off_diag.mean() < 0.55
