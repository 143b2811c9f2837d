"""The symbolic cost-model conformance matrix.

Every protocol that declares :meth:`~repro.core.protocol.Protocol.cost_model`
is run across a parameter grid on both execution paths (scalar simulation
and the vectorized fast path, whose costs are *synthesized* rather than
measured) and its measured ``CostReport``s are checked against the
symbolic model:

* **exact models** (no realized symbols) — every cost kind must equal its
  formula bit for bit, and the whole-batch ``cost_totals()`` must equal
  ``model.predict(trials, ...)``;
* **bounded models** (dynamic termination / coins) — the realized round
  count is bound from the measurement, verified against its exact bounds,
  and every kind must then match exactly *at that* realized value.

A final group checks pure-formula extrapolation at parameter scales no
simulation could reach (``n = 10⁹``): the model layer is integer-exact,
so these are equalities, not approximations.
"""

import zlib

import numpy as np
import pytest

from repro.cliques.subsample import PlantedCliqueSubsampleProtocol
from repro.core import Engine, Protocol, RunSpec, run_protocol
from repro.costs import COST_KINDS
from repro.distributions import UniformRows
from repro.distributions.undirected import UndirectedRandomGraph
from repro.lowerbounds.hierarchy import TopSubmatrixRankProtocol
from repro.prg.attacks import SupportMembershipAttack
from repro.protocols import DeterministicEqualityProtocol, GlobalParityProtocol
from repro.protocols.connectivity import ConnectivityProtocol
from repro.protocols.mst import BoruvkaMSTProtocol, RandomWeightMatrix
from repro.protocols.triangles import FullExchangeTriangleProtocol

TRIALS = 8

# name -> (protocol factory, distribution factory, binding factory).
# Each takes the grid point ``n`` (the processor count).
MATRIX = {
    "parity": (
        lambda n: GlobalParityProtocol(),
        lambda n: UniformRows(n, 1),
        lambda n: {"n": n},
    ),
    "equality": (
        lambda n: DeterministicEqualityProtocol(4),
        lambda n: UniformRows(n, 4),
        lambda n: {"n": n},
    ),
    "seed_attack": (
        lambda n: SupportMembershipAttack(3),
        lambda n: UniformRows(n, 5),
        lambda n: {"n": n},
    ),
    "rank_full_budget": (
        lambda n: TopSubmatrixRankProtocol(min(3, n)),
        lambda n: UniformRows(n, n),
        lambda n: {"n": n},
    ),
    "rank_truncated": (
        lambda n: TopSubmatrixRankProtocol(min(3, n), rounds_budget=1),
        lambda n: UniformRows(n, n),
        lambda n: {"n": n},
    ),
    "triangles": (
        lambda n: FullExchangeTriangleProtocol(n),
        lambda n: UndirectedRandomGraph(n),
        lambda n: {"n": n},
    ),
    "triangles_fixed_width": (
        lambda n: FullExchangeTriangleProtocol(n, message_size=2),
        lambda n: UndirectedRandomGraph(n),
        lambda n: {"n": n},
    ),
    "connectivity": (
        lambda n: ConnectivityProtocol(n),
        lambda n: UndirectedRandomGraph(n),
        lambda n: {"n": n},
    ),
    "mst": (
        lambda n: BoruvkaMSTProtocol(n, weight_bits=3),
        lambda n: RandomWeightMatrix(n, 3),
        lambda n: {"n": n},
    ),
    "subsample": (
        lambda n: PlantedCliqueSubsampleProtocol(k=3 * n),
        lambda n: UndirectedRandomGraph(n),
        lambda n: {"n": n},
    ),
}

GRID = [2, 4, 7]


def run_matrix_cell(name, n, vectorized):
    protocol_fn, dist_fn, bind_fn = MATRIX[name]
    spec = RunSpec(
        protocol=protocol_fn(n),
        distribution=dist_fn(n),
        seed=(zlib.crc32(name.encode()) ^ n) % (2**31),
        vectorized=vectorized,
    )
    batch = Engine().run_batch(spec, TRIALS)
    return protocol_fn(n), batch, bind_fn(n)


@pytest.mark.parametrize("vectorized", [False, True])
@pytest.mark.parametrize("n", GRID)
@pytest.mark.parametrize("name", sorted(MATRIX))
def test_measured_costs_conform(name, n, vectorized):
    protocol, batch, bindings = run_matrix_cell(name, n, vectorized)
    model = protocol.cost_model()
    problems = model.check_batch(batch, **bindings)
    assert problems == []


@pytest.mark.parametrize("vectorized", [False, True])
@pytest.mark.parametrize("n", GRID)
@pytest.mark.parametrize(
    "name", sorted(k for k in MATRIX if k not in {"connectivity", "mst", "subsample"})
)
def test_exact_models_predict_batch_totals(name, n, vectorized):
    """Exact models are fully predictive: whole-batch totals equal the
    pure-formula extrapolation, bit for bit, on both execution paths."""
    protocol, batch, bindings = run_matrix_cell(name, n, vectorized)
    model = protocol.cost_model()
    assert model.is_exact
    assert batch.cost_totals() == model.predict(TRIALS, **bindings)


@pytest.mark.parametrize("vectorized", [False, True])
@pytest.mark.parametrize("name", ["connectivity", "mst", "subsample"])
def test_bounded_models_bracket_batch_totals(name, vectorized):
    """Bounded models bracket measured totals via their realized bounds."""
    n = 6
    protocol, batch, bindings = run_matrix_cell(name, n, vectorized)
    model = protocol.cost_model()
    assert not model.is_exact
    bounds = model.predict_bounds(TRIALS, **bindings)
    totals = batch.cost_totals()
    for kind in COST_KINDS:
        lo, hi = bounds[kind]
        assert lo <= totals[kind] <= hi, (kind, lo, totals[kind], hi)


def test_single_trial_check_matches_run_protocol():
    """check_trial works on a bare ExecutionResult cost, not just batches."""
    protocol = DeterministicEqualityProtocol(3)
    result = run_protocol(protocol, np.zeros((5, 3), dtype=np.uint8))
    assert protocol.cost_model().check_trial(result.cost, n=5) == []


def test_mismatch_reports_name_the_kind_and_formula():
    protocol = DeterministicEqualityProtocol(3)
    result = run_protocol(protocol, np.zeros((5, 3), dtype=np.uint8))
    problems = protocol.cost_model().check_trial(result.cost, n=5, m=4)
    assert problems
    assert any("rounds: predicted 4 != measured 3" in p for p in problems)


class TestExtrapolation:
    """predict() is exact integer formula evaluation at any scale."""

    def test_triangles_at_billion_vertices(self):
        n = 10**9
        model = FullExchangeTriangleProtocol(4).cost_model()
        predicted = model.predict(1, n=n)
        width = 30  # ceil(log2(10**9))
        rounds = -(-n // width)
        assert predicted["rounds"] == rounds
        assert predicted["turns"] == n * rounds
        assert predicted["broadcast_bits"] == n * rounds * width

    def test_attack_stays_linear_in_k(self):
        model = SupportMembershipAttack(10**6).cost_model()
        predicted = model.predict(1, n=10**9)
        assert predicted["rounds"] == 10**6 + 1
        assert predicted["broadcast_bits"] == 10**9 * (10**6 + 1)

    def test_connectivity_bounds_at_scale(self):
        n = 10**6
        bounds = ConnectivityProtocol(8).cost_model().predict_bounds(1, n=n)
        assert bounds["rounds"] == (2, n)
        # width = ceil_log2(10**6) = 20
        assert bounds["broadcast_bits"] == (n * 2 * 20, n * n * 20)

    def test_mst_logarithmic_round_cap(self):
        n = 2**20
        model = BoruvkaMSTProtocol(8, weight_bits=5).cost_model()
        bounds = model.predict_bounds(1, n=n, w=5)
        assert bounds["rounds"] == (1, 22)  # ceil_log2(2**20) + 2

    def test_free_symbols_document_the_parameters(self):
        assert BoruvkaMSTProtocol(4, 3).cost_model().free_symbols() == {
            "n",
            "w",
            "R",
        }
        assert SupportMembershipAttack(2).cost_model().free_symbols() == {
            "n",
            "k",
        }


def test_cost_model_is_declared_for_every_batched_protocol():
    """The BAT02 contract, asserted dynamically: anything the engine can
    vectorize must expose a symbolic model the matrix can check."""
    for name, (protocol_fn, _, _) in MATRIX.items():
        protocol = protocol_fn(4)
        if type(protocol).batch_decisions is not Protocol.batch_decisions:
            model = protocol.cost_model()
            assert model.phases, name
