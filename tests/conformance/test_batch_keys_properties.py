"""Property tests: ``batch_decisions`` keys ≡ per-trial ``transcript.key()``.

For every fixed-round batched protocol, the keys one whole-batch call
returns must agree row-for-row with running each trial through the
simulator and reading the transcript key — including batch=0, batch=1,
and ragged inputs wider than the protocol reveals.  Hypothesis drives the
shapes; the scalar simulator is the oracle.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core import run_protocol
from repro.lowerbounds.hierarchy import TopSubmatrixRankProtocol
from repro.prg.attacks import SupportMembershipAttack
from repro.protocols import DeterministicEqualityProtocol, GlobalParityProtocol

COMMON_SETTINGS = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def bit_stack(trials, n, m):
    return arrays(np.uint8, (trials, n, m), elements=st.integers(0, 1))


def scalar_keys(protocol, stack):
    """Oracle: every trial through the full simulator, one at a time."""
    return [run_protocol(protocol, matrix).transcript.key() for matrix in stack]


def assert_keys_match(protocol, stack):
    decisions, keys = protocol.batch_decisions(stack)
    assert keys.ndim == 2
    assert keys.shape[0] == stack.shape[0]
    want = scalar_keys(protocol, stack)
    got = [tuple(row) for row in keys.tolist()]
    assert got == want
    # Decisions must agree on the same stack too (same batched contract).
    decisions = np.asarray(decisions)
    want_decisions = [
        run_protocol(protocol, matrix).outputs[0] for matrix in stack
    ]
    assert decisions.tolist() == want_decisions


class TestParityKeys:
    @COMMON_SETTINGS
    @given(
        data=st.data(),
        trials=st.integers(0, 5),
        n=st.integers(1, 6),
        m=st.integers(0, 7),
    )
    @example(data=None, trials=0, n=3, m=4)
    @example(data=None, trials=1, n=1, m=0)
    def test_matches_scalar(self, data, trials, n, m):
        if data is None:
            stack = np.zeros((trials, n, m), dtype=np.uint8)
        else:
            stack = data.draw(bit_stack(trials, n, m))
        assert_keys_match(GlobalParityProtocol(), stack)


class TestEqualityKeys:
    @COMMON_SETTINGS
    @given(
        data=st.data(),
        trials=st.integers(0, 4),
        n=st.integers(1, 5),
        m=st.integers(1, 5),
        extra=st.integers(0, 3),
    )
    @example(data=None, trials=1, n=2, m=3, extra=0)
    def test_matches_scalar(self, data, trials, n, m, extra):
        if data is None:
            stack = np.zeros((trials, n, m + extra), dtype=np.uint8)
        else:
            stack = data.draw(bit_stack(trials, n, m + extra))
        assert_keys_match(DeterministicEqualityProtocol(m), stack)

    def test_rejects_narrow_and_non_bit_inputs(self):
        protocol = DeterministicEqualityProtocol(4)
        with pytest.raises(ValueError):
            protocol.batch_decisions(np.zeros((2, 3, 3), dtype=np.uint8))
        with pytest.raises(ValueError):
            protocol.batch_decisions(np.full((2, 3, 4), 2, dtype=np.uint8))


class TestSeedAttackKeys:
    @COMMON_SETTINGS
    @given(
        data=st.data(),
        trials=st.integers(0, 4),
        n=st.integers(1, 6),
        k=st.integers(1, 4),
        extra=st.integers(0, 3),
    )
    @example(data=None, trials=1, n=4, k=2, extra=1)
    def test_matches_scalar(self, data, trials, n, k, extra):
        if data is None:
            stack = np.zeros((trials, n, k + 1 + extra), dtype=np.uint8)
        else:
            stack = data.draw(bit_stack(trials, n, k + 1 + extra))
        assert_keys_match(SupportMembershipAttack(k), stack)

    def test_rejects_narrow_and_non_bit_inputs(self):
        protocol = SupportMembershipAttack(3)
        with pytest.raises(ValueError):
            protocol.batch_decisions(np.zeros((2, 5, 3), dtype=np.uint8))
        with pytest.raises(ValueError):
            protocol.batch_decisions(np.full((2, 5, 4), 3, dtype=np.uint8))


class TestHierarchyKeys:
    @COMMON_SETTINGS
    @given(
        data=st.data(),
        trials=st.integers(0, 4),
        k=st.integers(1, 4),
        extra_rows=st.integers(0, 2),
        budget=st.none() | st.integers(0, 6),
    )
    @example(data=None, trials=1, k=2, extra_rows=1, budget=0)
    @example(data=None, trials=2, k=3, extra_rows=0, budget=None)
    def test_matches_scalar(self, data, trials, k, extra_rows, budget):
        protocol = TopSubmatrixRankProtocol(k, rounds_budget=budget)
        n = k + extra_rows
        if data is None:
            stack = np.zeros((trials, n, n), dtype=np.uint8)
        else:
            stack = data.draw(bit_stack(trials, n, n))
        assume(stack.shape[2] >= min(protocol.rounds_budget, k))
        assert_keys_match(protocol, stack)

    def test_rejects_small_and_non_bit_inputs(self):
        protocol = TopSubmatrixRankProtocol(4)
        with pytest.raises(ValueError):
            protocol.batch_decisions(np.zeros((2, 3, 4), dtype=np.uint8))
        with pytest.raises(ValueError):
            protocol.batch_decisions(np.full((2, 4, 4), 2, dtype=np.uint8))
