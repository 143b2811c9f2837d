"""The vectorized path's seeding kernel and fair-bit helper, against numpy.

``spawn_generators(root, count)`` must build exactly the generators of
``[default_rng(c) for c in root.spawn(count)]`` and advance the root the
same way; ``fair_bits`` must give exactly the bits of per-generator
``integers(0, 2, size=shape, dtype=uint8)`` calls and leave every
generator where they leave it.  numpy's own calls are the oracle.
"""

from __future__ import annotations

import copy
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.cliques.subsample import PlantedCliqueSubsampleProtocol
from repro.core import Engine, RunSpec
from repro.core.randomness import fair_bits, spawn_generators
from repro.distributions import PRGOutput, RandomDigraph
from repro.prg.attacks import SupportMembershipAttack


def pcg_state(rng):
    """The PCG64 state every future draw depends on.  The buffered half
    counts only while ``has_uint32`` is set; otherwise it is never read."""
    state = rng.bit_generator.state
    buffered = state["uinteger"] if state["has_uint32"] else None
    return (state["state"]["state"], state["state"]["inc"], state["has_uint32"], buffered)


def assert_same_generators(got, want):
    assert len(got) == len(want)
    assert [pcg_state(rng) for rng in got] == [pcg_state(rng) for rng in want]
    for a, b in zip(got, want):
        assert a.integers(0, 2**63) == b.integers(0, 2**63)
        assert a.integers(0, 2, dtype=np.uint8) == b.integers(0, 2, dtype=np.uint8)


def twin_roots(entropy, **kwargs):
    """Two equal roots (``None`` entropy is drawn once and shared)."""
    root = np.random.SeedSequence(entropy, **kwargs)
    return root, np.random.SeedSequence(root.entropy, **kwargs)


# ----------------------------------------------------------------------
# Seeding
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "entropy", [0, 1, 2**32 - 1, 2**32, 2**63 - 1, 2**64 + 5, 2**128 + 99, None]
)
@pytest.mark.parametrize("spawn_key", [(), (1,), (3, 7)])
@pytest.mark.parametrize(
    "start, count", [(0, 0), (0, 1), (0, 7), (0, 4097), (4096, 7)]
)
def test_spawn_generators_matches_numpy(entropy, spawn_key, start, count):
    ours, numpys = twin_roots(entropy, spawn_key=spawn_key, n_children_spawned=start)
    got = spawn_generators(ours, count)
    want = [np.random.default_rng(child) for child in numpys.spawn(count)]
    assert ours.n_children_spawned == numpys.n_children_spawned == start + count
    assert_same_generators(got, want)


@pytest.mark.parametrize(
    "entropy, kwargs",
    [
        ([1, 2**40, 0], {}),
        (np.array([5, 6, 7, 8, 9], dtype=np.uint32), {"spawn_key": (2,)}),
        (np.int64(12), {"spawn_key": ("0x10", np.uint8(3), [4, 5])}),
        (31, {"pool_size": 6, "spawn_key": (9,)}),
    ],
)
def test_spawn_generators_matches_numpy_on_other_entropy_forms(entropy, kwargs):
    ours, numpys = twin_roots(entropy, **kwargs)
    assert_same_generators(
        spawn_generators(ours, 5),
        [np.random.default_rng(child) for child in numpys.spawn(5)],
    )


def test_consecutive_calls_walk_the_children_of_one_spawn():
    ours, numpys = twin_roots(404)
    got = spawn_generators(ours, 3) + spawn_generators(ours, 0) + spawn_generators(ours, 4)
    assert ours.n_children_spawned == 7
    assert_same_generators(got, [np.random.default_rng(c) for c in numpys.spawn(7)])


def test_concurrent_calls_on_one_root_draw_disjoint_children():
    """Concurrent batches on one SeedSequence seed (``submit_batch``) must
    never draw the same child: reading and advancing the counter is one
    step."""
    threads, calls, count = 8, 20, 5
    ours, numpys = twin_roots(77)
    drawn = [[] for _ in range(threads)]

    def worker(out):
        for _ in range(calls):
            out.extend(spawn_generators(ours, count))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        pool = [threading.Thread(target=worker, args=(out,)) for out in drawn]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in pool)
    finally:
        sys.setswitchinterval(interval)
    total = threads * calls * count
    assert ours.n_children_spawned == total
    got = sorted(pcg_state(rng) for out in drawn for rng in out)
    want = sorted(pcg_state(np.random.default_rng(c)) for c in numpys.spawn(total))
    assert got == want


def test_seed_sequence_subclass_spawns_through_its_own_methods():
    class Salted(np.random.SeedSequence):
        def generate_state(self, n_words, dtype=np.uint32):
            return super().generate_state(n_words, dtype) ^ np.asarray(1, dtype=dtype)

    got = spawn_generators(Salted(8), 3)
    want = [np.random.default_rng(child) for child in Salted(8).spawn(3)]
    assert_same_generators(got, want)


def test_the_child_counter_stays_32_bit():
    # numpy stores n_children_spawned as a uint32.
    root = np.random.SeedSequence(1, n_children_spawned=2**32 - 2)
    with pytest.raises(ValueError, match="2\\*\\*32 - 1"):
        spawn_generators(root, 2)
    assert root.n_children_spawned == 2**32 - 2
    (last,) = spawn_generators(root, 1)
    assert root.n_children_spawned == 2**32 - 1
    child = np.random.SeedSequence(1, spawn_key=(2**32 - 2,))
    assert_same_generators([last], [np.random.default_rng(child)])


# ----------------------------------------------------------------------
# Fair bits
# ----------------------------------------------------------------------
def spawned(count, seed=4):
    return [np.random.default_rng(c) for c in np.random.SeedSequence(seed).spawn(count)]


def assert_fair_bits_match(rngs, shapes):
    """``fair_bits`` ≡ one ``integers`` call per shape per generator, in
    order; ``rngs`` may list one generator several times."""
    reference = copy.deepcopy(rngs)  # keeps repeated entries shared
    got = fair_bits(rngs, *shapes)
    for t, rng in enumerate(reference):
        for bits, shape in zip(got, shapes):
            want = rng.integers(0, 2, size=shape, dtype=np.uint8)
            assert bits.dtype == np.uint8
            assert np.array_equal(bits[t], want)
    for a, b in zip(rngs, reference):
        assert a.integers(0, 2**63) == b.integers(0, 2**63)
        assert a.integers(0, 2, dtype=np.uint8) == b.integers(0, 2, dtype=np.uint8)
    return got


@pytest.mark.parametrize("size", range(1, 71))
def test_fair_bits_matches_integers_for_every_size(size):
    rngs, reference = spawned(3), spawned(3)
    got = assert_fair_bits_match(rngs, [(size,), (2, 3), (size,)])
    assert [bits.shape for bits in got] == [(3, size), (3, 2, 3), (3, size)]
    # The generators' PCG64 states also match outright.
    for rng in reference:
        for shape in [(size,), (2, 3), (size,)]:
            rng.integers(0, 2, size=shape, dtype=np.uint8)
    rngs = spawned(3)
    fair_bits(rngs, (size,), (2, 3), (size,))
    assert [pcg_state(rng) for rng in rngs] == [pcg_state(rng) for rng in reference]


def test_fair_bits_of_no_generators_and_empty_draws():
    assert [bits.shape for bits in fair_bits([], (4, 5), (0,))] == [(0, 4, 5), (0, 0)]
    rngs = spawned(2)
    assert_fair_bits_match(rngs, [(0,), (3, 0)])


def test_fair_bits_with_a_buffered_half():
    rng = np.random.default_rng(5)
    rng.integers(0, 2**32 - 1)
    assert rng.bit_generator.state["has_uint32"] == 1
    assert_fair_bits_match([rng] + spawned(2), [(5,), (7, 3)])


@pytest.mark.parametrize("shape", [(3,), (4,), (5, 3), (16,)])
def test_fair_bits_with_one_generator_repeated(shape):
    assert_fair_bits_match([np.random.default_rng(6)] * 5, [shape])


@pytest.mark.parametrize("bit_generator", ["MT19937", "Philox", "SFC64"])
def test_fair_bits_with_other_bit_generators(bit_generator):
    cls = getattr(np.random, bit_generator)
    rngs = [np.random.Generator(cls(seed)) for seed in range(3)] + spawned(2)
    assert_fair_bits_match(rngs, [(9,), (2, 2)])


# ----------------------------------------------------------------------
# A SeedSequence seed on the engine
# ----------------------------------------------------------------------
PROBLEMS = {
    "prg": (SupportMembershipAttack(4), PRGOutput(8, 10, 4)),
    "coins": (PlantedCliqueSubsampleProtocol(3), RandomDigraph(8)),
}


@pytest.mark.parametrize("vectorized", [False, True])
@pytest.mark.parametrize("problem", sorted(PROBLEMS))
def test_seed_sequence_seed_draws_fresh_children_per_batch(problem, vectorized):
    protocol, distribution = PROBLEMS[problem]
    root = np.random.SeedSequence(2024)
    spec = RunSpec(
        protocol=protocol,
        distribution=distribution,
        seed=root,
        vectorized=vectorized,
    )
    engine = Engine()
    first = engine.run_batch(spec, 9)
    assert root.n_children_spawned == 9
    second = engine.run_batch(spec, 9)
    assert root.n_children_spawned == 18
    assert first.transcript_keys != second.transcript_keys
    for batch, start in ((first, 0), (second, 9)):
        reference = Engine().run_batch(
            RunSpec(
                protocol=protocol,
                distribution=distribution,
                seed=np.random.SeedSequence(2024, n_children_spawned=start),
            ),
            9,
        )
        assert batch == reference


# ----------------------------------------------------------------------
# Import cost
# ----------------------------------------------------------------------
def test_importing_the_library_does_not_load_numpy_random():
    probe = "import sys, repro; print(any(m.startswith('numpy.random') for m in sys.modules))"
    env = {**os.environ, "PYTHONPATH": str(Path(repro.__file__).parents[1])}
    out = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True, env=env
    )
    assert out.stdout.strip() == "False"
