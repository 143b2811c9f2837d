"""``InputDistribution.sample_each`` ≡ one ``sample`` call per generator.

The engine's vectorized fast path draws a whole chunk of trial inputs
through ``sample_each``; the scalar path calls ``sample`` once per trial.
The two must give the same matrices bit for bit and leave every
generator in the same state, or the coin seeds drawn next from the same
generator would diverge.  The per-trial ``sample`` is the oracle.
"""

import numpy as np
import pytest

import repro
from repro.distributions import (
    InputDistribution,
    PlantedClique,
    PlantedCliqueAt,
    PRGOutput,
    RandomDigraph,
    RankDeficientMatrix,
    SharedMatrixRows,
    SharedVectorRows,
    ToyPRGOutput,
    UndirectedPlantedClique,
    UndirectedRandomGraph,
    UniformRows,
)
from repro.protocols.mst import RandomWeightMatrix

SECRET_M = np.array([[1, 0, 1], [0, 1, 1]], dtype=np.uint8)

DISTRIBUTIONS = {
    "uniform": UniformRows(5, 7),
    "uniform_odd_size": UniformRows(5, 3),
    "digraph": RandomDigraph(6),
    "shared_vector": SharedVectorRows(4, np.array([1, 0, 1], dtype=np.uint8)),
    "toy_prg": ToyPRGOutput(5, 3),
    "shared_matrix": SharedMatrixRows(4, SECRET_M),
    "prg": PRGOutput(32, 48, 16),
    "prg_m_eq_k": PRGOutput(6, 5, 5),
    "prg_k1": PRGOutput(7, 9, 1),
    "prg_odd_size": PRGOutput(5, 9, 3),
    "rank_deficient": RankDeficientMatrix(6),
    "planted_clique_at": PlantedCliqueAt(6, {0, 2, 3}),
    "planted_clique": PlantedClique(7, 3),
    "undirected": UndirectedRandomGraph(6),
    "undirected_planted": UndirectedPlantedClique(7, 3),
    "random_weights": RandomWeightMatrix(5, 3),
}


def generators(seed, count):
    return [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(count)]


@pytest.mark.parametrize("name", sorted(DISTRIBUTIONS))
@pytest.mark.parametrize("count", [1, 9])
def test_matches_per_generator_sample(name, count):
    dist = DISTRIBUTIONS[name]
    batched, reference = generators(7, count), generators(7, count)
    got = dist.sample_each(batched)
    want = np.stack([dist.sample(rng) for rng in reference])
    assert got.dtype == want.dtype
    assert got.shape == want.shape == (count, dist.n, dist.row_length)
    assert np.array_equal(got, want)
    # Every generator is left where sample() leaves it.
    for a, b in zip(batched, reference):
        assert a.integers(0, 2**63) == b.integers(0, 2**63)


def test_covers_every_library_distribution():
    """A new InputDistribution subclass must join the table above."""

    def subclasses(cls):
        for sub in cls.__subclasses__():
            yield sub
            yield from subclasses(sub)

    library = {
        cls
        for cls in subclasses(InputDistribution)
        if cls.__module__.startswith(repro.__name__ + ".")
        and not cls.__name__.endswith("Distribution")
    }
    assert library <= {type(d) for d in DISTRIBUTIONS.values()}
