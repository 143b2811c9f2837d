"""Integration: the PRG theorems (5.1, 5.3, 5.4, 1.3, 8.1) end to end."""

import numpy as np
import pytest

from repro.core import run_protocol
from repro.distinguish import (
    ProtocolSpec,
    exact_transcript_pmf,
    mixture_transcript_pmf,
    transcript_distance,
)
from repro.distinguish.distinguishers import random_function_protocol
from repro.distributions import (
    PRGOutput,
    ToyPRGOutput,
    UniformRows,
)
from repro.lowerbounds import toy_prg_bound, toy_prg_one_round_bound
from repro.prg import MatrixPRGProtocol, SupportMembershipAttack


def spec_from_random_protocol(n, rounds, seed):
    protocol = random_function_protocol(rounds, seed)
    fn_scalar = protocol._fn

    def fn(i, rows, p, _f=fn_scalar):
        return np.array([_f(i, row, p) for row in rows], dtype=np.int64)

    return ProtocolSpec(n, rounds, fn)


class TestTheorem51OneRound:
    """Toy PRG fools one-round protocols: distance <= O(n / 2^{k/2})."""

    @pytest.mark.parametrize("k", [4, 6, 8])
    def test_random_protocols_within_bound(self, k):
        n = 4
        pseudo = ToyPRGOutput(n, k)
        uniform = UniformRows(n, k + 1)
        bound = toy_prg_one_round_bound(n, k, constant=1.0)
        for seed in range(3):
            spec = spec_from_random_protocol(n, 1, seed)
            distance = transcript_distance(
                exact_transcript_pmf(spec, uniform),
                mixture_transcript_pmf(spec, pseudo),
            )
            assert distance <= bound

    def test_distance_decays_exponentially_in_k(self):
        """The headline scaling: doubling k roughly squares the distance —
        measured on the parity-of-last-bit protocol, the most natural
        attack on the derived bit."""
        n = 3

        def last_bit_fn(i, rows, p):
            return rows[:, -1].astype(np.int64)

        distances = {}
        for k in (2, 4, 8):
            spec = ProtocolSpec(n, 1, last_bit_fn)
            distances[k] = transcript_distance(
                exact_transcript_pmf(spec, UniformRows(n, k + 1)),
                mixture_transcript_pmf(spec, ToyPRGOutput(n, k)),
            )
        assert distances[2] > distances[4] > distances[8]
        # log-scale slope: each +2 in k buys at least a factor ~2.
        assert distances[4] <= distances[2] / 1.5
        assert distances[8] <= distances[4] / 1.5


class TestTheorem53MultiRound:
    """Toy PRG fools multi-round protocols: distance <= O(j*n / 2^{k/9})."""

    @pytest.mark.parametrize("j", [1, 2])
    def test_multi_round_within_bound(self, j):
        n, k = 3, 6
        pseudo = ToyPRGOutput(n, k)
        uniform = UniformRows(n, k + 1)
        for seed in range(2):
            spec = spec_from_random_protocol(n, j, seed)
            distance = transcript_distance(
                exact_transcript_pmf(spec, uniform),
                mixture_transcript_pmf(spec, pseudo),
            )
            assert distance <= toy_prg_bound(n, k, j, constant=1.0)


class TestTheorem54FullPRG:
    """Full PRG with m > k + 1 output bits."""

    def test_full_prg_within_bound(self):
        n, k, m = 3, 4, 6  # secret bits = 8 -> 256 components
        pseudo = PRGOutput(n, m, k)
        uniform = UniformRows(n, m)
        for seed in range(2):
            spec = spec_from_random_protocol(n, 1, seed)
            distance = transcript_distance(
                exact_transcript_pmf(spec, uniform),
                mixture_transcript_pmf(spec, pseudo),
            )
            # j=1 <= k/10 fails formally (k=4); we still verify the
            # qualitative claim with the theorem's envelope at constant 1.
            assert distance <= toy_prg_bound(n, k, 1, constant=1.0)


class TestTheorem13Construction:
    """The PRG protocol's joint output distribution equals PRGOutput."""

    def test_protocol_output_matches_distribution(self):
        n, k, m = 6, 3, 5
        protocol_counts: dict = {}
        dist_counts: dict = {}
        trials = 3000
        rng = np.random.default_rng(0)
        dist = PRGOutput(n, m, k)
        inputs = np.zeros((n, 1), dtype=np.uint8)
        for _ in range(trials):
            result = run_protocol(MatrixPRGProtocol(k, m), inputs, rng=rng)
            key = np.stack(result.outputs).tobytes()
            protocol_counts[key] = protocol_counts.get(key, 0) + 1
            key = dist.sample(rng).tobytes()
            dist_counts[key] = dist_counts.get(key, 0) + 1
        # Compare a coarse statistic: the GF(2) rank of the joint output
        # (the support is huge; rank is the structural fingerprint).
        from repro.linalg import BitMatrix

        def rank_histogram(counts):
            hist: dict = {}
            for key, c in counts.items():
                arr = np.frombuffer(key, dtype=np.uint8).reshape(n, m)
                r = BitMatrix.from_array(arr).rank()
                hist[r] = hist.get(r, 0) + c
            return hist

        hist_p = rank_histogram(protocol_counts)
        hist_d = rank_histogram(dist_counts)
        for r in set(hist_p) | set(hist_d):
            assert (
                abs(hist_p.get(r, 0) - hist_d.get(r, 0)) / trials < 0.05
            )


class TestTheorem81SeedAttack:
    """The attack succeeds exactly where the lower bound stops: O(k) rounds."""

    def test_attack_beats_prg_beyond_k_rounds(self, rng):
        n, k, m = 12, 4, 10
        attack = SupportMembershipAttack(k)
        assert attack.num_rounds(n) == k + 1  # O(k), matching Theorem 8.1
        prg_dist = PRGOutput(n, m, k)
        uniform = UniformRows(n, m)
        prg_rate = np.mean(
            [
                run_protocol(attack, prg_dist.sample(rng), rng=rng).outputs[0]
                for _ in range(15)
            ]
        )
        uni_rate = np.mean(
            [
                run_protocol(attack, uniform.sample(rng), rng=rng).outputs[0]
                for _ in range(15)
            ]
        )
        assert prg_rate == 1.0
        assert uni_rate <= 0.1
