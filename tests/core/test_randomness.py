"""Tests for metered coin sources."""

import pickle

import numpy as np
import pytest

from repro.core import (
    PrivateCoins,
    Protocol,
    PublicCoins,
    RandomnessExhausted,
    ReplayCoins,
    ZeroCoins,
    randomness,
    run_protocol,
)
from repro.core.randomness import expand_seed
from repro.exec.wire import decode_value, encode_value
from repro.linalg import BitVector
from repro.lowerbounds import TopSubmatrixRankProtocol


class TestAccounting:
    def test_bits_counted(self, rng):
        coins = PrivateCoins(rng)
        coins.draw_bit()
        coins.draw_bits(10)
        coins.draw_int(5)
        assert coins.bits_used == 16

    def test_budget_enforced(self, rng):
        coins = PrivateCoins(rng, budget=4)
        coins.draw_bits(4)
        with pytest.raises(RandomnessExhausted):
            coins.draw_bit()

    def test_remaining(self, rng):
        coins = PrivateCoins(rng, budget=10)
        coins.draw_bits(3)
        assert coins.remaining() == 7
        assert PrivateCoins(rng).remaining() is None

    def test_negative_draw_raises(self, rng):
        with pytest.raises(ValueError):
            PrivateCoins(rng).draw_bits(-1)

    def test_draw_int_range(self, rng):
        coins = PublicCoins(rng)
        for _ in range(20):
            assert 0 <= coins.draw_int(7) < 128

    def test_draw_int_wide(self, rng):
        coins = PublicCoins(rng)
        value = coins.draw_int(70)
        assert 0 <= value < 2**70


class TestZeroCoins:
    def test_refuses_everything(self):
        coins = ZeroCoins()
        with pytest.raises(RandomnessExhausted):
            coins.draw_bit()


class TestReplayCoins:
    def test_replays_exactly(self):
        bits = BitVector.from_bits([1, 0, 1, 1, 0, 0, 1, 0])
        coins = ReplayCoins(bits)
        assert coins.draw_bit() == 1
        assert coins.draw_bit() == 0
        assert list(coins.draw_bits(3)) == [1, 1, 0]
        # positions 5,6,7 hold (0,1,0); little-endian int = 0*1 + 1*2 + 0*4
        assert coins.draw_int(3) == 2

    def test_exhaustion(self):
        coins = ReplayCoins(BitVector.from_bits([1, 0]))
        coins.draw_bits(2)
        with pytest.raises(RandomnessExhausted):
            coins.draw_bit()

    def test_bits_used_tracked(self):
        coins = ReplayCoins(BitVector.from_bits([1] * 6))
        coins.draw_int(4)
        assert coins.bits_used == 4
        assert coins.remaining() == 2

    def test_statistical_uniformity_of_sources(self, rng):
        # Sanity: the metered wrapper does not bias the underlying bits.
        coins = PrivateCoins(rng)
        ones = sum(coins.draw_bit() for _ in range(2000))
        assert 850 < ones < 1150


class CoinDrawer(Protocol):
    """Processors with an odd id flip ``bits`` coins in round 0."""

    def __init__(self, bits=40):
        self.bits = bits

    def num_rounds(self, n):
        return 1

    def broadcast(self, proc, round_index):
        if proc.proc_id % 2:
            proc.memory["drawn"] = proc.coins.draw_int(self.bits)
        return 0

    def output(self, proc):
        return proc.memory.get("drawn")


@pytest.fixture
def expand_seed_calls(monkeypatch):
    """Count generator expansions (the lazy path looks ``expand_seed`` up
    as a module global, so patching the module sees every one)."""
    calls = []

    def counting(seed):
        calls.append(seed)
        return expand_seed(seed)

    monkeypatch.setattr(randomness, "expand_seed", counting)
    return calls


class TestLazyPrivateCoins:
    def test_protocol_that_never_draws_builds_no_generator(self, expand_seed_calls):
        inputs = np.random.default_rng(0).integers(0, 2, size=(8, 8), dtype=np.uint8)
        result = run_protocol(TopSubmatrixRankProtocol(8), inputs, rng=np.random.default_rng(1))
        assert expand_seed_calls == []
        assert result.cost.total_private_bits == 0

    def test_only_drawing_processors_build_a_generator(self, expand_seed_calls):
        n = 7
        result = run_protocol(
            CoinDrawer(), np.zeros((n, 1), dtype=np.uint8), rng=np.random.default_rng(5)
        )
        seeds = np.random.default_rng(5).integers(0, 2**63, size=n, dtype=np.int64)
        assert expand_seed_calls == [int(seeds[i]) for i in range(1, n, 2)]
        for i in range(n):
            if i % 2:
                # Exactly the stream the eager generator would have drawn.
                assert result.outputs[i] == PrivateCoins(expand_seed(int(seeds[i]))).draw_int(40)
            else:
                assert result.outputs[i] is None

    def test_from_seed_draws_the_expanded_stream(self):
        lazy, eager = PrivateCoins.from_seed(99, budget=200), PrivateCoins(expand_seed(99), budget=200)
        assert lazy.draw_bit() == eager.draw_bit()
        assert list(lazy.draw_bits(70)) == list(eager.draw_bits(70))
        assert lazy.draw_int(33) == eager.draw_int(33)
        assert lazy.bits_used == eager.bits_used == 104
        assert lazy.remaining() == 96
        assert isinstance(lazy, PrivateCoins)

    def test_budget_is_checked_before_any_generator_exists(self, expand_seed_calls):
        coins = PrivateCoins.from_seed(3, budget=2)
        with pytest.raises(RandomnessExhausted):
            coins.draw_bits(3)
        assert expand_seed_calls == []

    @pytest.mark.parametrize("drawn_first", [0, 5])
    def test_wire_encodes_before_and_after_the_first_draw(self, drawn_first):
        def advanced(coins):
            if drawn_first:
                coins.draw_int(drawn_first)
            return coins

        coins = advanced(PrivateCoins.from_seed(2024, budget=64))
        clones = [decode_value(encode_value(coins)), pickle.loads(pickle.dumps(coins))]
        for clone in clones + [coins]:
            reference = advanced(PrivateCoins(expand_seed(2024), budget=64))
            assert type(clone) is PrivateCoins
            assert (clone.bits_used, clone.budget) == (drawn_first, 64)
            assert clone.draw_int(20) == reference.draw_int(20)
