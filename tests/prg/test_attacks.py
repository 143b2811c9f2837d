"""Tests for the Theorem 8.1 seed-length attack."""

import numpy as np
import pytest

from repro.core import Engine, RunSpec, run_protocol
from repro.distributions import PRGOutput, UniformRows
from repro.prg import SupportMembershipAttack, attack_rounds, false_positive_bound


class TestStructure:
    def test_rounds_linear_in_k(self):
        assert attack_rounds(4) == 5
        attack = SupportMembershipAttack(6)
        assert attack.num_rounds(10) == 7

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            SupportMembershipAttack(0)

    def test_short_inputs_rejected(self, rng):
        attack = SupportMembershipAttack(4)
        inputs = np.zeros((3, 2), dtype=np.uint8)  # rows too short
        with pytest.raises(ValueError):
            run_protocol(attack, inputs, rng=rng)

    @pytest.mark.parametrize("vectorized", [False, True])
    @pytest.mark.parametrize("scheduler", ["round", "turn"])
    def test_short_rows_rejected_alike_on_both_paths(self, vectorized, scheduler):
        spec = RunSpec(
            protocol=SupportMembershipAttack(4),
            distribution=UniformRows(3, 4),
            seed=1,
            vectorized=vectorized,
            scheduler=scheduler,
        )
        with pytest.raises(ValueError, match="at least 5 bits for the attack"):
            Engine().run_batch(spec, 2)


class TestDetection:
    def test_always_accepts_prg_outputs(self, rng):
        n, k, m = 12, 4, 10
        attack = SupportMembershipAttack(k)
        dist = PRGOutput(n, m, k)
        for _ in range(10):
            result = run_protocol(attack, dist.sample(rng), rng=rng)
            assert all(out == 1 for out in result.outputs)

    def test_rarely_accepts_uniform(self, rng):
        n, k, m = 16, 4, 10
        attack = SupportMembershipAttack(k)
        dist = UniformRows(n, m)
        accepts = 0
        for _ in range(30):
            result = run_protocol(attack, dist.sample(rng), rng=rng)
            accepts += result.outputs[0]
        # False-positive probability <= 2^{k-n} = 2^-12.
        assert accepts == 0

    def test_false_positive_bound(self):
        assert false_positive_bound(16, 4) == pytest.approx(2.0**-12)

    def test_advantage_breaks_prg(self, rng):
        """The attack achieves advantage ~1/2 — far above what any
        (k/10)-round protocol could, confirming seed-length optimality."""
        n, k, m = 10, 3, 8
        attack = SupportMembershipAttack(k)
        prg_dist = PRGOutput(n, m, k)
        uni_dist = UniformRows(n, m)
        prg_accepts = sum(
            run_protocol(attack, prg_dist.sample(rng), rng=rng).outputs[0]
            for _ in range(20)
        )
        uni_accepts = sum(
            run_protocol(attack, uni_dist.sample(rng), rng=rng).outputs[0]
            for _ in range(20)
        )
        advantage = abs(prg_accepts - uni_accepts) / 20 / 2
        assert advantage > 0.45

    def test_all_processors_agree(self, rng):
        n, k, m = 8, 3, 6
        attack = SupportMembershipAttack(k)
        result = run_protocol(
            attack, UniformRows(n, m).sample(rng), rng=rng
        )
        assert len(set(result.outputs)) == 1
