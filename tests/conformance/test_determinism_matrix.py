"""The cross-backend determinism conformance matrix.

Every PR claims the same invariant — *trial ``t`` of a spec is a pure
function of the spec, never of scheduling* — but each backend's test file
only pins its own corner.  This suite runs one golden :class:`RunSpec`
across every executor backend × ``vectorized={False, True}`` and asserts
bit-identical ``decisions``, ``transcript_keys`` and costs against the
serial scalar reference, in one place.

The golden specs cover every fast-path shape: the seed-length attack
(multi-round keys, batched rank decisions), global parity (one-round
keys, XOR decisions), and the graph/clique protocols batched by the
cost-model PR — connectivity and MST (dynamic termination, ragged keys,
structured outputs), triangle counting (multi-bit payload packing) and
the planted-clique subsample protocol (private-coin replay through the
engine's coin-seed hand-off).
"""

import contextlib

import numpy as np
import pytest

from repro.cliques.subsample import PlantedCliqueSubsampleProtocol
from repro.core import Engine, RunSpec, SerialExecutor
from repro.distributions import UniformRows
from repro.distributions.undirected import (
    UndirectedPlantedClique,
    UndirectedRandomGraph,
)
from repro.exec import DistributedExecutor, LoopbackWorker, WorkerPool
from repro.prg.attacks import SupportMembershipAttack
from repro.protocols import GlobalParityProtocol
from repro.protocols.connectivity import ConnectivityProtocol
from repro.protocols.mst import BoruvkaMSTProtocol, RandomWeightMatrix
from repro.protocols.triangles import FullExchangeTriangleProtocol

TRIALS = 10


@contextlib.contextmanager
def serial_executor():
    yield SerialExecutor()


@contextlib.contextmanager
def worker_pool():
    with WorkerPool(max_workers=2) as pool:
        yield pool


@contextlib.contextmanager
def distributed_executor():
    with LoopbackWorker() as worker:
        with DistributedExecutor([worker.endpoint], chunksize=2) as executor:
            yield executor


BACKENDS = {
    "serial": serial_executor,
    "worker_pool": worker_pool,
    "distributed": distributed_executor,
}

GOLDEN_SPECS = {
    "seed_attack": lambda vectorized: RunSpec(
        protocol=SupportMembershipAttack(k=4),
        distribution=UniformRows(10, 7),
        seed=2026,
        vectorized=vectorized,
    ),
    "parity": lambda vectorized: RunSpec(
        protocol=GlobalParityProtocol(),
        distribution=UniformRows(5, 6),
        seed=411,
        vectorized=vectorized,
    ),
    "connectivity": lambda vectorized: RunSpec(
        protocol=ConnectivityProtocol(7),
        distribution=UndirectedRandomGraph(7),
        seed=905,
        vectorized=vectorized,
    ),
    "triangles": lambda vectorized: RunSpec(
        protocol=FullExchangeTriangleProtocol(6),
        distribution=UndirectedRandomGraph(6),
        seed=77,
        vectorized=vectorized,
    ),
    "mst": lambda vectorized: RunSpec(
        protocol=BoruvkaMSTProtocol(6, weight_bits=3),
        distribution=RandomWeightMatrix(6, 3),
        seed=58,
        vectorized=vectorized,
    ),
    "subsample": lambda vectorized: RunSpec(
        protocol=PlantedCliqueSubsampleProtocol(k=8),
        distribution=UndirectedPlantedClique(10, 8),
        seed=331,
        vectorized=vectorized,
    ),
}


@pytest.fixture(scope="module")
def references():
    """The serial scalar batch every matrix cell must reproduce."""
    return {
        name: Engine(SerialExecutor()).run_batch(spec_fn(False), TRIALS)
        for name, spec_fn in GOLDEN_SPECS.items()
    }


@pytest.mark.parametrize("backend", sorted(BACKENDS))
@pytest.mark.parametrize("vectorized", [False, True])
@pytest.mark.parametrize("workload", sorted(GOLDEN_SPECS))
def test_backend_matrix_bit_identical(references, workload, vectorized, backend):
    reference = references[workload]
    with BACKENDS[backend]() as executor:
        batch = Engine(executor).run_batch(
            GOLDEN_SPECS[workload](vectorized), TRIALS
        )
    assert len(batch) == len(reference) == TRIALS
    assert np.array_equal(batch.decisions(0), reference.decisions(0))
    assert batch.outputs == reference.outputs
    assert batch.transcript_keys == reference.transcript_keys
    assert batch.costs == reference.costs
    assert [t.trial_index for t in batch] == [
        t.trial_index for t in reference
    ]


@pytest.mark.parametrize("backend", sorted(BACKENDS))
def test_async_submission_matches_matrix(references, backend):
    """submit_batch through each backend stays on the same golden values."""
    reference = references["seed_attack"]
    with BACKENDS[backend]() as executor:
        with Engine(executor) as engine:
            future = engine.submit_batch(GOLDEN_SPECS["seed_attack"](False), TRIALS)
            batch = future.result(timeout=120)
    assert batch.outputs == reference.outputs
    assert batch.transcript_keys == reference.transcript_keys
