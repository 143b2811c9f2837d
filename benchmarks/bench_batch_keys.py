"""Batched transcript-key synthesis vs scalar transcript replay.

The paper's headline estimators (transcript total-variation distance,
Newman simulation error) consume *transcript keys*.  Without batched key
synthesis they are pinned to the scalar engine: every trial simulated
round by round just to read its key.  This bench measures the whole
key-producing batch — ``Engine.run_batch`` with ``vectorized=True`` (one
``batch_decisions`` pass returning decisions and keys) vs
``vectorized=False`` (full per-trial simulation) — at batch=256, on the
four fixed-round protocols with dense keys and on connectivity, whose
dynamically-terminating keys are ragged.

A ``seeding`` record times how the vectorized path gets its inputs: at
4096 trials of ``UniformRows(32, 48)``, per-trial ``spawn`` +
``default_rng`` + ``sample`` against ``spawn_generators`` +
``sample_each`` (one seeding pass and raw PCG64 fair-bit draws).

Running this file as a script (or ``pytest benchmarks/bench_batch_keys.py``)
verifies the two paths are bit-identical (keys, outputs, costs; the
seeding record's inputs), writes the medians to ``BENCH_keys.json`` in
the repo root (the machine-readable perf trajectory CI uploads as an
artifact), and asserts the batched path is ≥ 3× faster on every record.
"""

import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).parent))
from _util import median_ns, print_table, write_bench_json

from repro.core import Engine, RunSpec
from repro.core.randomness import spawn_generators
from repro.distributions import UniformRows
from repro.distributions.undirected import UndirectedRandomGraph
from repro.lowerbounds import TopSubmatrixRankProtocol
from repro.prg.attacks import SupportMembershipAttack
from repro.protocols import DeterministicEqualityProtocol, GlobalParityProtocol
from repro.protocols.connectivity import ConnectivityProtocol

BATCH = 256
SPEEDUP_BAR = 3.0
SEED = 20260730
BENCH_JSON = Path(__file__).resolve().parent.parent / "BENCH_keys.json"

#: Estimator-facing batched protocols: the four with dense keys, plus
#: connectivity for the ragged-key path.  The subsample protocol, also
#: ragged, is left out: its speedup (3.1–4.6× on a 2-vCPU VM) sits too
#: close to the bar to gate on.
WORKLOADS = [
    ("seed_attack", SupportMembershipAttack(k=8), UniformRows(16, 12)),
    ("equality", DeterministicEqualityProtocol(m=12), UniformRows(12, 12)),
    ("parity", GlobalParityProtocol(), UniformRows(16, 16)),
    ("hierarchy_rank", TopSubmatrixRankProtocol(k=8), UniformRows(12, 12)),
    ("connectivity", ConnectivityProtocol(16), UndirectedRandomGraph(16)),
]

SEEDING_TRIALS = 4096
SEEDING_DIST = UniformRows(32, 48)


def _spec(protocol, dist, vectorized):
    return RunSpec(
        protocol=protocol,
        distribution=dist,
        seed=SEED,
        vectorized=vectorized,
    )


def _keys(engine, spec):
    return engine.run_batch(spec, BATCH).transcript_keys


def collect_batch_key_records() -> list[dict]:
    """Time scalar replay vs batched synthesis for every workload.

    Each record verifies bit-identity first — a fast path that diverges
    from the scalar engine would make the speedup meaningless.
    """
    records = []
    engine = Engine()
    for name, protocol, dist in WORKLOADS:
        scalar = engine.run_batch(_spec(protocol, dist, False), BATCH)
        fast = engine.run_batch(_spec(protocol, dist, True), BATCH)
        assert scalar.transcript_keys == fast.transcript_keys, name
        assert scalar.outputs == fast.outputs, name
        assert scalar.costs == fast.costs, name
        # Read the keys inside the timed call: a vectorized batch turns its
        # key columns into tuples only when they are read.
        scalar_ns = median_ns(_keys, engine, _spec(protocol, dist, False), repeats=3)
        fast_ns = median_ns(_keys, engine, _spec(protocol, dist, True), repeats=5)
        records.append(
            {
                "workload": name,
                "batch": BATCH,
                "key_turns": len(fast.transcript_keys[0]),
                "scalar_ns_per_batch": scalar_ns,
                "vectorized_ns_per_batch": fast_ns,
                "ns_per_key": fast_ns / BATCH,
                "speedup": scalar_ns / fast_ns,
            }
        )
    return records


def _per_trial_inputs(seed: int) -> np.ndarray:
    children = np.random.SeedSequence(seed).spawn(SEEDING_TRIALS)
    return np.stack([SEEDING_DIST.sample(np.random.default_rng(c)) for c in children])


def _batched_inputs(seed: int) -> np.ndarray:
    rngs = spawn_generators(np.random.SeedSequence(seed), SEEDING_TRIALS)
    return SEEDING_DIST.sample_each(rngs)


def collect_seeding_record() -> dict:
    """Time per-trial seeding and sampling against the batched pass."""
    assert np.array_equal(_per_trial_inputs(SEED), _batched_inputs(SEED))
    per_trial_ns = median_ns(_per_trial_inputs, SEED, repeats=5)
    batched_ns = median_ns(_batched_inputs, SEED, repeats=5)
    return {
        "workload": "seeding",
        "batch": SEEDING_TRIALS,
        "distribution": repr(SEEDING_DIST),
        "per_trial_ns_per_batch": per_trial_ns,
        "batched_ns_per_batch": batched_ns,
        "speedup": per_trial_ns / batched_ns,
    }


def _report(records: list[dict]) -> None:
    keys = [r for r in records if "key_turns" in r]
    seeding = [r for r in records if "key_turns" not in r]
    print_table(
        f"Batched transcript-key synthesis (batch={BATCH}, medians)",
        ["workload", "key turns", "scalar ns", "batched ns", "speedup"],
        [
            [
                r["workload"],
                r["key_turns"],
                r["scalar_ns_per_batch"],
                r["vectorized_ns_per_batch"],
                r["speedup"],
            ]
            for r in keys
        ],
    )
    print_table(
        f"Seeding and sampling inputs ({SEEDING_DIST!r}, medians)",
        ["workload", "trials", "per-trial ns", "batched ns", "speedup"],
        [
            [
                r["workload"],
                r["batch"],
                r["per_trial_ns_per_batch"],
                r["batched_ns_per_batch"],
                r["speedup"],
            ]
            for r in seeding
        ],
    )
    write_bench_json(BENCH_JSON, records)
    print(f"wrote {BENCH_JSON}")


def _assert_speedups(records: list[dict]) -> None:
    for r in records:
        assert r["speedup"] >= SPEEDUP_BAR, (
            f"{r['workload']}: batched speedup "
            f"{r['speedup']:.1f}x below the {SPEEDUP_BAR:.0f}x bar"
        )


def test_batch_key_trajectory():
    """Batched key synthesis ≥ 3× over scalar transcript replay at
    batch=256 for every workload, and batched seeding ≥ 3× over
    per-trial seeding at 4096 trials, bit-identically, with medians
    recorded in BENCH_keys.json."""
    records = collect_batch_key_records() + [collect_seeding_record()]
    _report(records)
    _assert_speedups(records)


if __name__ == "__main__":
    _records = collect_batch_key_records() + [collect_seeding_record()]
    _report(_records)
    _assert_speedups(_records)
    print(f"speedup bar met: batched key synthesis and seeding >= {SPEEDUP_BAR:.0f}x")
