"""Integration: Theorem 1.4 (average-case rank), Theorem 1.5 (hierarchy),
Corollary 7.1 (derandomized pipeline) and Appendix B, end to end."""

import numpy as np

from repro.cliques import (
    PlantedCliqueSubsampleProtocol,
    recovery_quality,
)
from repro.core import Protocol, run_protocol
from repro.distributions import PlantedClique, RankDeficientMatrix, UniformRows
from repro.linalg import BitMatrix, Q0, full_rank_probability
from repro.lowerbounds import (
    TopSubmatrixRankProtocol,
    accuracy_on_uniform,
    full_rank_indicator,
    optimal_accuracy_with_columns,
)
from repro.prg import DerandomizedProtocol, SupportMembershipAttack


class TestTheorem14AverageCase:
    def test_rank_deficient_fools_prefix_protocols(self, rng):
        """A protocol revealing j << n columns cannot tell RankDeficient
        from uniform: both produce near-identical revealed blocks."""
        n, j = 12, 3
        protocol = TopSubmatrixRankProtocol(n, rounds_budget=j)
        pseudo = RankDeficientMatrix(n)
        uniform = UniformRows(n, n)
        accepts = {name: 0 for name in ("pseudo", "uniform")}
        trials = 60
        for _ in range(trials):
            r1 = run_protocol(protocol, pseudo.sample(rng), rng=rng)
            r2 = run_protocol(protocol, uniform.sample(rng), rng=rng)
            accepts["pseudo"] += int(r1.outputs[0])
            accepts["uniform"] += int(r2.outputs[0])
        advantage = abs(accepts["pseudo"] - accepts["uniform"]) / trials / 2
        assert advantage < 0.15

    def test_no_low_round_protocol_hits_99_accuracy(self, rng):
        """The Theorem 1.4 claim, for the column-revealing family: with
        j = n/4 rounds accuracy stays far from 0.99."""
        n = 12
        j = 3
        acc = accuracy_on_uniform(
            TopSubmatrixRankProtocol(n, rounds_budget=j),
            n=n,
            k=n,
            n_samples=150,
            rng=rng,
            target_fn=full_rank_indicator,
        )
        ceiling = optimal_accuracy_with_columns(n, j)
        assert acc <= ceiling + 0.07
        assert acc < 0.9

    def test_majority_class_matches_q0(self, rng):
        """Pr[full rank] for uniform matrices ~ Q_0 ~ 0.289, the constant
        the impossibility argument leans on."""
        n, trials = 16, 300
        full = sum(
            int(
                BitMatrix.from_array(
                    rng.integers(0, 2, size=(n, n), dtype=np.uint8)
                ).is_full_rank()
            )
            for _ in range(trials)
        )
        assert abs(full / trials - Q0) < 0.1
        assert abs(full_rank_probability(n) - Q0) < 1e-3


class TestTheorem15Hierarchy:
    def test_hierarchy_gap_measured(self, rng):
        """k rounds -> exact; k/5 rounds -> stuck near the majority rate."""
        n, k = 10, 8
        exact_acc = accuracy_on_uniform(
            TopSubmatrixRankProtocol(k), n=n, k=k, n_samples=80, rng=rng
        )
        truncated_acc = accuracy_on_uniform(
            TopSubmatrixRankProtocol(k, rounds_budget=k // 5),
            n=n, k=k, n_samples=200, rng=rng,
        )
        assert exact_acc == 1.0
        assert truncated_acc < 0.9
        assert truncated_acc >= 0.55  # better than coin flipping


class RandomizedVoteProtocol(Protocol):
    """A randomized payload for the derandomization pipeline: every
    processor broadcasts input-bit XOR coin for `rounds` rounds; output is
    the majority of all broadcasts."""

    def __init__(self, rounds=4):
        self._rounds = rounds

    def num_rounds(self, n):
        return self._rounds

    def broadcast(self, proc, round_index):
        return (int(proc.input[round_index % proc.input.shape[0]])
                + proc.coins.draw_bit()) % 2

    def output(self, proc):
        total = sum(e.message for e in proc.transcript)
        return int(2 * total >= proc.transcript.n_turns)


class TestCorollary71Pipeline:
    def test_compiled_protocol_output_distribution_close(self):
        """Outputs of the derandomized protocol are distributed like the
        truly-random ones (up to the PRG's fooling error + noise)."""
        n, k, payload_rounds = 8, 10, 4
        inputs = UniformRows(n, 4).sample(np.random.default_rng(42))
        trials = 300

        def output_rate(make_protocol, seed0):
            ones = 0
            for s in range(trials):
                protocol = make_protocol()
                result = run_protocol(
                    protocol, inputs, rng=np.random.default_rng(seed0 + s)
                )
                # For the wrapped protocol the payload output is the final
                # element; both expose processor 0's output.
                ones += int(result.outputs[0])
            return ones / trials

        true_rate = output_rate(lambda: RandomizedVoteProtocol(payload_rounds), 0)
        compiled_rate = output_rate(
            lambda: DerandomizedProtocol(
                RandomizedVoteProtocol(payload_rounds),
                k=k,
                random_bits=payload_rounds,
            ),
            10_000,
        )
        assert abs(true_rate - compiled_rate) < 0.15

    def test_compiled_round_and_bit_overhead(self, rng):
        """Rounds grow by the PRG phase only; true coins drop to O(k)."""
        n, k, payload_rounds = 16, 6, 4
        payload = RandomizedVoteProtocol(payload_rounds)
        wrapped = DerandomizedProtocol(payload, k=k, random_bits=payload_rounds)
        inputs = UniformRows(n, 4).sample(rng)
        result = run_protocol(wrapped, inputs, rng=rng)
        prg_rounds = wrapped.prg.num_rounds(n)
        assert result.cost.rounds == prg_rounds + payload_rounds
        for proc in result.contexts:
            assert wrapped.true_coins_used(proc) <= k + prg_rounds


class TestEndToEndCliquePipeline:
    def test_subsample_protocol_after_derandomization(self, rng):
        """Appendix B's protocol is randomized (activation coins); wrap it
        with the PRG and verify it still recovers the clique."""
        n, k = 48, 20
        matrix, clique = PlantedClique(n, k).sample_with_clique(
            np.random.default_rng(3)
        )
        payload = PlantedCliqueSubsampleProtocol(k)
        wrapped = DerandomizedProtocol(payload, k=24, random_bits=30)
        recovered = None
        for seed in range(8):
            result = run_protocol(
                wrapped, matrix, rng=np.random.default_rng(seed)
            )
            if result.outputs[0]:
                recovered = result.outputs[0]
                break
        assert recovered is not None
        precision, recall = recovery_quality(recovered, clique)
        assert recall > 0.8 and precision > 0.8

    def test_attack_composes_with_prg_protocol(self, rng):
        """Run the PRG protocol, feed its outputs to the attack as inputs
        — the full Theorem 8.1 scenario in one pipeline."""
        from repro.prg import MatrixPRGProtocol

        n, k, m = 10, 3, 8
        prg_result = run_protocol(
            MatrixPRGProtocol(k, m), np.zeros((n, 1), dtype=np.uint8), rng=rng
        )
        pseudo_inputs = np.stack(prg_result.outputs)
        attack_result = run_protocol(
            SupportMembershipAttack(k), pseudo_inputs, rng=rng
        )
        assert all(out == 1 for out in attack_result.outputs)
