"""A ``batch_decisions`` call leaves its protocol instance as it found it.

The engine deep-copies the protocol once per scalar trial and ships it to
pool and fleet workers, so state a batch call leaves on ``self`` is paid
for on every later copy and can make the instance unencodable on the
wire.  A cache keyed on the input array's identity also returns stale
results after the caller refills that array in place.  Every library
batch protocol is checked on small valid stacks, the coin protocol with
engine-style coin seeds.
"""

import pickle

import numpy as np
import pytest

from repro.cliques.subsample import PlantedCliqueSubsampleProtocol
from repro.distributions import UniformRows
from repro.distributions.undirected import UndirectedRandomGraph
from repro.exec.wire import encode_value
from repro.lowerbounds.hierarchy import TopSubmatrixRankProtocol
from repro.prg.attacks import SupportMembershipAttack
from repro.protocols import DeterministicEqualityProtocol, GlobalParityProtocol
from repro.protocols.connectivity import ConnectivityProtocol
from repro.protocols.mst import BoruvkaMSTProtocol, RandomWeightMatrix
from repro.protocols.triangles import FullExchangeTriangleProtocol

TRIALS = 4

# name -> (protocol factory, input distribution)
CASES = {
    "parity": (GlobalParityProtocol, UniformRows(6, 5)),
    "equality": (lambda: DeterministicEqualityProtocol(4), UniformRows(6, 4)),
    "seed_attack": (lambda: SupportMembershipAttack(3), UniformRows(8, 5)),
    "hierarchy_rank": (lambda: TopSubmatrixRankProtocol(4), UniformRows(6, 6)),
    "triangles": (lambda: FullExchangeTriangleProtocol(6), UndirectedRandomGraph(6)),
    "connectivity": (lambda: ConnectivityProtocol(8), UndirectedRandomGraph(8)),
    "mst": (lambda: BoruvkaMSTProtocol(5, weight_bits=3), RandomWeightMatrix(5, 3)),
    "subsample": (
        lambda: PlantedCliqueSubsampleProtocol(12),
        UndirectedRandomGraph(8),
    ),
}


def sample_stack(dist, seed):
    return dist.sample_each([np.random.default_rng((seed, t)) for t in range(TRIALS)])


def batch_call(protocol, stack, coin_seeds):
    if protocol.batch_coin_bits:
        return protocol.batch_decisions(stack, coin_seeds=coin_seeds)
    return protocol.batch_decisions(stack)


def as_lists(result):
    decisions, keys = result
    if isinstance(keys, np.ndarray):
        keys = keys.tolist()
    return np.asarray(decisions).tolist(), [tuple(key) for key in keys]


@pytest.mark.parametrize("name", sorted(CASES))
def test_batch_call_leaves_the_instance_unchanged(name):
    factory, dist = CASES[name]
    protocol = factory()
    stack = sample_stack(dist, 1)
    coin_seeds = np.random.default_rng(2).integers(
        0, 2**63, size=stack.shape[:2], dtype=np.int64
    )
    pickled, encoded = len(pickle.dumps(protocol)), encode_value(protocol)
    first = as_lists(batch_call(protocol, stack, coin_seeds))
    assert len(pickle.dumps(protocol)) == pickled
    assert encode_value(protocol) == encoded

    # Same array objects, new contents: the answer must follow the
    # contents, exactly as a fresh instance computes them.
    stack[:] = sample_stack(dist, 3)
    again = as_lists(batch_call(protocol, stack, coin_seeds))
    fresh = as_lists(batch_call(factory(), stack.copy(), coin_seeds.copy()))
    assert again == fresh
    assert again != first
