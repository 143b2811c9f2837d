"""Property tests: the graph/clique batch contract ≡ per-trial simulation.

PR 5 pinned the batched key-synthesis protocols (parity, equality, seed
attack, rank) against the scalar simulator; this suite extends the same
oracle to the protocols batched by the cost-model PR — connectivity, MST,
triangle counting and the planted-clique subsample protocol.  These are
harder cases: dynamic termination makes the keys *ragged* (per-trial
lengths differ), outputs are structured objects (tuples, frozensets,
``None``), and the subsample protocol draws private coins, so the batch
receives the engine's per-processor coin seeds and must replay the scalar
draw chain bit for bit.

Hypothesis drives trials (including 0 and 1), sizes and ragged input
widths; the scalar simulator is the oracle for outputs and keys alike.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.cliques.subsample import PlantedCliqueSubsampleProtocol
from repro.core import run_protocol
from repro.protocols.connectivity import ConnectivityProtocol
from repro.protocols.mst import (
    BoruvkaMSTProtocol,
    encode_weight_matrix,
)
from repro.protocols.triangles import FullExchangeTriangleProtocol

COMMON_SETTINGS = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def bit_stack(trials, n, m):
    return arrays(np.uint8, (trials, n, m), elements=st.integers(0, 1))


def scalar_trials(protocol, stack, rngs=None):
    """Oracle: every trial through the full simulator, one at a time."""
    results = []
    for index, matrix in enumerate(stack):
        rng = None if rngs is None else rngs[index]
        results.append(run_protocol(protocol, matrix, rng=rng))
    return results


def assert_batch_matches_scalar(protocol, stack, coin_seeds=None, rngs=None):
    """Outputs and ragged keys from the batch contract ≡ scalar runs."""
    if coin_seeds is None:
        decisions, keys = protocol.batch_decisions(stack)
    else:
        decisions, keys = protocol.batch_decisions(stack, coin_seeds=coin_seeds)
    decisions = np.asarray(decisions)
    assert decisions.shape[0] == stack.shape[0]
    assert len(keys) == stack.shape[0]
    want = scalar_trials(protocol, stack, rngs=rngs)
    for index, result in enumerate(want):
        assert tuple(keys[index]) == result.transcript.key(), index
        if decisions.ndim == 2:
            assert list(decisions[index]) == result.outputs, index
        else:
            # One decision per trial: every processor agreed on it.
            assert all(o == decisions[index] for o in result.outputs), index


class TestConnectivityBatch:
    @COMMON_SETTINGS
    @given(
        data=st.data(),
        trials=st.integers(0, 4),
        n=st.integers(1, 6),
        extra=st.integers(0, 2),
    )
    @example(data=None, trials=0, n=3, extra=0)
    @example(data=None, trials=1, n=1, extra=2)
    def test_matches_scalar(self, data, trials, n, extra):
        if data is None:
            stack = np.zeros((trials, n, n + extra), dtype=np.uint8)
        else:
            stack = np.zeros((trials, n, n + extra), dtype=np.uint8)
            # Only the first n columns may be populated: column j >= n
            # names a processor that never speaks (scalar raises too).
            stack[:, :, :n] = data.draw(bit_stack(trials, n, n))
        assert_batch_matches_scalar(ConnectivityProtocol(n), stack)

    def test_rejects_edges_to_silent_processors(self):
        stack = np.zeros((1, 3, 5), dtype=np.uint8)
        stack[0, 1, 4] = 1
        with pytest.raises(ValueError, match="never speak"):
            ConnectivityProtocol(3).batch_decisions(stack)

    def test_path_graph_hits_the_round_cap(self):
        # A path maximises label-propagation diameter: rounds == cap == n.
        n = 6
        adjacency = np.zeros((n, n), dtype=np.uint8)
        for i in range(n - 1):
            adjacency[i, i + 1] = adjacency[i + 1, i] = 1
        protocol = ConnectivityProtocol(n)
        _, keys = protocol.batch_decisions(adjacency[None])
        assert len(keys[0]) == n * n  # cap reached, never two equal rounds
        assert_batch_matches_scalar(protocol, adjacency[None])


class TestTriangleBatch:
    @COMMON_SETTINGS
    @given(
        data=st.data(),
        trials=st.integers(0, 4),
        n=st.integers(1, 6),
        extra=st.integers(0, 2),
        width=st.none() | st.integers(1, 4),
    )
    @example(data=None, trials=1, n=4, extra=1, width=None)
    def test_matches_scalar(self, data, trials, n, extra, width):
        stack = np.zeros((trials, n, n + extra), dtype=np.uint8)
        if data is not None:
            raw = data.draw(bit_stack(trials, n, n))
            upper = np.triu(raw, 1)
            stack[:, :, :n] = upper | upper.transpose(0, 2, 1)
            # Extra columns are ignored by both paths — fill arbitrarily.
            if extra:
                stack[:, :, n:] = data.draw(bit_stack(trials, n, extra))
        protocol = FullExchangeTriangleProtocol(n, message_size=width)
        assert_batch_matches_scalar(protocol, stack)

    def test_rejects_directed_graphs(self):
        stack = np.zeros((1, 3, 3), dtype=np.uint8)
        stack[0, 0, 1] = 1  # no reverse edge
        with pytest.raises(ValueError, match="symmetric"):
            FullExchangeTriangleProtocol(3).batch_decisions(stack)


def weight_stacks(trials, n, weight_bits, extra_fields):
    """Encoded random weight matrices (symmetric, plus ignored extras)."""
    return arrays(
        np.int64,
        (trials, n, n),
        elements=st.integers(0, (1 << weight_bits) - 1),
    ).map(
        lambda weights: np.stack(
            [
                np.concatenate(
                    [
                        encode_weight_matrix(
                            np.triu(w, 1) + np.triu(w, 1).T, weight_bits
                        ),
                        np.zeros((n, extra_fields * weight_bits), dtype=np.uint8),
                    ],
                    axis=1,
                )
                for w in weights
            ]
        )
        if len(weights)
        else np.zeros(
            (0, n, (n + extra_fields) * weight_bits), dtype=np.uint8
        )
    )


class TestMSTBatch:
    @COMMON_SETTINGS
    @given(
        data=st.data(),
        trials=st.integers(0, 3),
        n=st.integers(2, 5),
        weight_bits=st.integers(1, 4),
        extra_fields=st.integers(0, 1),
    )
    @example(data=None, trials=1, n=2, weight_bits=2, extra_fields=0)
    @example(data=None, trials=2, n=4, weight_bits=1, extra_fields=1)
    def test_matches_scalar(self, data, trials, n, weight_bits, extra_fields):
        if data is None:
            stack = np.zeros(
                (trials, n, (n + extra_fields) * weight_bits), dtype=np.uint8
            )
        else:
            stack = data.draw(weight_stacks(trials, n, weight_bits, extra_fields))
        protocol = BoruvkaMSTProtocol(n, weight_bits=weight_bits)
        assert_batch_matches_scalar(protocol, stack)

    def test_distinct_weights_recover_the_unique_mst(self):
        # Distinct weights on the complete graph => the MST is unique;
        # two Borůvka phases: {0,1} and {2,3} merge first, then join via
        # the lightest cross edge (1, 2).
        n, w = 4, 4
        weights = np.zeros((n, n), dtype=np.int64)
        edges = {
            (0, 1): 1,
            (2, 3): 2,
            (1, 2): 3,
            (0, 3): 9,
            (0, 2): 10,
            (1, 3): 12,
        }
        for (u, v), weight in edges.items():
            weights[u, v] = weights[v, u] = weight
        stack = encode_weight_matrix(weights, w)[None]
        protocol = BoruvkaMSTProtocol(n, weight_bits=w)
        decisions, _ = protocol.batch_decisions(stack)
        chosen, total = decisions[0]
        assert chosen == frozenset({(0, 1), (2, 3), (1, 2)})
        assert total == 6
        assert_batch_matches_scalar(protocol, stack)

    def test_rejects_bad_shapes(self):
        protocol = BoruvkaMSTProtocol(3, weight_bits=2)
        with pytest.raises(ValueError, match="multiple of"):
            protocol.batch_decisions(np.zeros((1, 3, 7), dtype=np.uint8))
        with pytest.raises(ValueError, match="at least"):
            protocol.batch_decisions(np.zeros((1, 3, 4), dtype=np.uint8))
        with pytest.raises(ValueError, match="n=3"):
            protocol.batch_decisions(np.zeros((1, 4, 8), dtype=np.uint8))


def subsample_rngs_and_seeds(base_seed, trials, n):
    """Paired scalar rngs and batch coin seeds from one entropy chain.

    The scalar simulator draws each processor's coin seed from the trial
    rng inside ``make_contexts``; handing the batch the same draws from a
    twin generator reproduces the activation coins bit for bit.
    """
    rngs = [np.random.default_rng((base_seed, t)) for t in range(trials)]
    seeds = np.stack(
        [
            np.random.default_rng((base_seed, t)).integers(
                0, 2**63, size=n, dtype=np.int64
            )
            for t in range(trials)
        ]
    ) if trials else np.zeros((0, n), dtype=np.int64)
    return rngs, seeds


class TestSubsampleBatch:
    @COMMON_SETTINGS
    @given(
        data=st.data(),
        trials=st.integers(0, 3),
        n=st.integers(2, 6),
        k=st.integers(1, 40),
        extra=st.integers(0, 2),
        base_seed=st.integers(0, 2**20),
    )
    @example(data=None, trials=0, n=4, k=3, extra=0, base_seed=5)
    @example(data=None, trials=1, n=2, k=1, extra=1, base_seed=7)
    @example(data=None, trials=1, n=6, k=40, extra=0, base_seed=11)
    def test_matches_scalar(self, data, trials, n, k, extra, base_seed):
        stack = np.zeros((trials, n, n + extra), dtype=np.uint8)
        if data is not None:
            raw = data.draw(bit_stack(trials, n, n))
            upper = np.triu(raw, 1)
            stack[:, :, :n] = upper | upper.transpose(0, 2, 1)
        protocol = PlantedCliqueSubsampleProtocol(k=k)
        rngs, seeds = subsample_rngs_and_seeds(base_seed, trials, n)
        assert_batch_matches_scalar(
            protocol, stack, coin_seeds=seeds, rngs=rngs
        )

    def test_abort_trials_have_one_round_keys(self):
        # k huge => p tiny => almost surely < 2 activations => abort after
        # the activation round; the key is exactly the n activation bits.
        n, trials = 5, 6
        stack = np.zeros((trials, n, n), dtype=np.uint8)
        protocol = PlantedCliqueSubsampleProtocol(k=10**6)
        rngs, seeds = subsample_rngs_and_seeds(99, trials, n)
        decisions, keys = protocol.batch_decisions(stack, coin_seeds=seeds)
        assert all(len(key) == n for key in keys)
        assert all(d is None for d in decisions)
        assert_batch_matches_scalar(
            protocol, stack, coin_seeds=seeds, rngs=rngs
        )

    def test_requires_coin_seeds(self):
        protocol = PlantedCliqueSubsampleProtocol(k=4)
        with pytest.raises(ValueError, match="coin_seeds"):
            protocol.batch_decisions(np.zeros((1, 4, 4), dtype=np.uint8))

    def test_rejects_mismatched_seed_shape(self):
        protocol = PlantedCliqueSubsampleProtocol(k=4)
        with pytest.raises(ValueError, match="coin_seeds must have shape"):
            protocol.batch_decisions(
                np.zeros((2, 4, 4), dtype=np.uint8),
                coin_seeds=np.zeros((2, 3), dtype=np.int64),
            )
