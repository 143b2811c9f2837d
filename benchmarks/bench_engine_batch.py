"""E-ENG — the unified execution engine: batch throughput and determinism.

Two claims about ``Engine.run_batch`` (`repro.core.engine`):

1. **determinism** — for the same master seed, ``SerialExecutor`` and a
   ``WorkerPool`` produce bit-identical ``BatchResult``s (outputs,
   transcript keys, cost totals), and the two-sided
   ``estimate_protocol_advantage`` estimator built on top returns the
   exact same estimate either way;
2. **throughput** — on a multi-core host the parallel backend turns the
   200-trial advantage-estimation workload from single-threaded into
   embarrassingly parallel; on a 4-core runner the wall-clock speedup is
   ≥ 2×.  (On fewer cores we still print the table but only assert the
   determinism half.)

The workload is the paper's separating function: a
``TopSubmatrixRankProtocol`` distinguishing uniform matrices from
rank-deficient ones — every object involved is picklable, which is what
lets the process pool run it.
"""

import os
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).parent))
from _util import print_table

from repro.core import Engine, RunSpec, SerialExecutor
from repro.distinguish import estimate_protocol_advantage
from repro.distributions import RankDeficientMatrix, UniformRows
from repro.exec import WorkerPool
from repro.lowerbounds import TopSubmatrixRankProtocol

N = 16
K = 16  # full-matrix rank: rank-deficient inputs are never accepted
TRIALS = 200


def workload(executor):
    """The 200-trial advantage estimation the redesign targets."""
    rng = np.random.default_rng(1905)
    return estimate_protocol_advantage(
        TopSubmatrixRankProtocol(K),
        UniformRows(N, N),
        RankDeficientMatrix(N),
        TRIALS,
        rng,
        executor=executor,
    )


def _best_of_two(executor):
    """Best-of-2 wall clock to damp noisy-neighbor jitter on CI runners."""
    times = []
    for _ in range(2):
        t0 = time.perf_counter()
        est = workload(executor)
        times.append(time.perf_counter() - t0)
    return est, min(times)


def compute_table():
    cores = os.cpu_count() or 1
    rows = []

    est_serial, serial_s = _best_of_two(SerialExecutor())
    # Bit-level determinism on the raw batch API.
    spec = RunSpec(
        protocol=TopSubmatrixRankProtocol(K),
        distribution=UniformRows(N, N),
        seed=7,
    )
    batch_serial = Engine(SerialExecutor()).run_batch(spec, 64)
    with WorkerPool() as pool:
        est_parallel, parallel_s = _best_of_two(pool)
        batch_parallel = Engine(pool).run_batch(spec, 64)
    speedup = serial_s / parallel_s if parallel_s else float("inf")
    rows.append(["serial", serial_s, 1.0, est_serial.advantage])
    rows.append([f"parallel ({cores} cores)", parallel_s, speedup, est_parallel.advantage])

    identical = (
        batch_serial.outputs == batch_parallel.outputs
        and batch_serial.transcript_keys == batch_parallel.transcript_keys
        and batch_serial.cost_totals() == batch_parallel.cost_totals()
    )
    return rows, est_serial, est_parallel, identical, speedup, cores


def test_engine_batch(benchmark):
    rows, est_serial, est_parallel, identical, speedup, cores = benchmark.pedantic(
        compute_table, rounds=1, iterations=1
    )
    print_table(
        f"E-ENG: {TRIALS}-trial advantage estimation, n={N}, k={K}",
        ["executor", "wall-clock s", "speedup", "advantage"],
        rows,
    )
    # Determinism: same master seed => identical results on both backends.
    assert identical
    assert est_serial.advantage == est_parallel.advantage
    assert est_serial.interval.lower == est_parallel.interval.lower
    # The rank protocol separates uniform (accept rate ~= 0.2888, the
    # infinite Q_0 limit) from rank-deficient inputs (accept rate 0), so
    # the measured advantage sits near 0.144.
    assert 0.05 < est_serial.advantage < 0.25
    # Throughput: on a >= 4-core host the pool must at least halve the
    # wall-clock; fewer cores can't express the claim, so skip it there.
    if cores >= 4:
        assert speedup >= 2.0, f"expected >=2x speedup on {cores} cores, got {speedup:.2f}x"
