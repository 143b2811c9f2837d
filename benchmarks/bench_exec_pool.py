"""E-EXEC — warm worker pools vs per-batch pool start-up.

The claim behind ``repro.exec.WorkerPool``: a sweep or estimator that
issues **many small batches** is dominated by process-pool start-up when
every ``run_batch`` builds (and closes) its own pool.  Keeping the
workers warm amortizes start-up across the whole batch sequence, so the
same workload must get faster — and stay *bit-identical*, because
per-trial seeding never depends on the backend.

Running this file as a script (the CI smoke step) measures a sequence of
``BATCHES`` small ``run_batch`` calls on three backends — serial, cold
``WorkerPool`` (a fresh pool per batch), warm ``WorkerPool`` (one pool
for the sequence) — asserts the warm pool beats the cold pool by
``MIN_SPEEDUP``×, and writes the medians to ``BENCH_exec.json`` in the
repo root (uploaded as a CI artifact).  Both pool backends are pinned to
``WORKERS`` processes so the comparison isolates start-up amortization
from host core count.
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))
from _util import print_table, write_bench_json

from repro.core import Engine, RunSpec, SerialExecutor
from repro.distributions import UniformRows
from repro.exec import WorkerPool
from repro.lowerbounds import TopSubmatrixRankProtocol
from repro.obs import Tracer, validate_chrome_trace

N = 8
K = 8
TRIALS = 4          # deliberately small: start-up must dominate compute
BATCHES = 20        # the sweep shape: many small batches back to back
WORKERS = 2         # pinned so 1-core CI runners still build real pools
MIN_SPEEDUP = 1.2   # warm reuse must at least beat cold start-up by 20%
REPEATS = 3         # best-of-N wall clocks to damp scheduler jitter

BENCH_JSON = Path(__file__).resolve().parent.parent / "BENCH_exec.json"
TRACE_JSON = Path(__file__).resolve().parent.parent / "BENCH_exec_trace.json"


def spec(batch_index: int) -> RunSpec:
    return RunSpec(
        protocol=TopSubmatrixRankProtocol(K),
        distribution=UniformRows(N, N),
        seed=batch_index,
    )


def run_sequence(run_batch) -> list[list[list[int]]]:
    """The workload: BATCHES successive small ``run_batch`` calls."""
    return [run_batch(spec(b), TRIALS).outputs for b in range(BATCHES)]


def best_of(make_run_batch) -> tuple[list, float]:
    """Best-of-REPEATS wall clock for the whole batch sequence."""
    outputs, best = None, float("inf")
    for _ in range(REPEATS):
        run_batch, finalize = make_run_batch()
        start = time.perf_counter()
        outputs = run_sequence(run_batch)
        elapsed = time.perf_counter() - start
        if finalize is not None:
            finalize()
        best = min(best, elapsed)
    return outputs, best


def measure() -> tuple[list[list], list[dict], float, bool]:
    serial_out, serial_s = best_of(
        lambda: (Engine(SerialExecutor()).run_batch, None)
    )

    # Cold: a fresh WorkerPool is built (and closed) for every batch.
    def cold_run_batch(batch_spec: RunSpec, trials: int):
        with WorkerPool(max_workers=WORKERS) as pool:
            return Engine(pool).run_batch(batch_spec, trials)

    cold_out, cold_s = best_of(lambda: (cold_run_batch, None))

    # Warm: one WorkerPool for the whole sequence; start-up paid once.
    def make_warm():
        pool = WorkerPool(max_workers=WORKERS)
        return Engine(pool).run_batch, pool.close

    warm_out, warm_s = best_of(make_warm)

    identical = serial_out == cold_out == warm_out
    speedup_vs_cold = cold_s / warm_s if warm_s else float("inf")
    rows = [
        ["serial", serial_s, serial_s / warm_s if warm_s else float("inf")],
        [f"cold WorkerPool ({WORKERS} workers/batch)", cold_s, speedup_vs_cold],
        [f"warm WorkerPool ({WORKERS} workers)", warm_s, 1.0],
    ]
    records = [
        {
            "bench": "exec_pool",
            "backend": name,
            "batches": BATCHES,
            "trials_per_batch": TRIALS,
            "n": N,
            "workers": WORKERS,
            "wall_s": wall,
        }
        for name, wall in [
            ("serial", serial_s),
            ("worker_pool_cold", cold_s),
            ("worker_pool_warm", warm_s),
        ]
    ]
    records.append(
        {
            "bench": "exec_pool",
            "metric": "warm_speedup_vs_cold",
            "min_required": MIN_SPEEDUP,
            "speedup": speedup_vs_cold,
        }
    )
    return rows, records, speedup_vs_cold, identical


def trace_smoke() -> dict:
    """Run one traced warm-pool batch and export a validated Chrome trace.

    The CI smoke step: tracing is opt-in (the timed comparison above runs
    with the no-op tracer), but when a :class:`~repro.obs.Tracer` is
    attached the engine/pool spans must export as schema-valid Chrome
    trace-event JSON that Perfetto can load.
    """
    tracer = Tracer()
    pool = WorkerPool(max_workers=WORKERS, tracer=tracer)
    try:
        Engine(pool, tracer=tracer).run_batch(spec(0), TRIALS)
    finally:
        pool.close()
    payload = tracer.to_chrome()
    problems = validate_chrome_trace(payload)
    assert not problems, f"Chrome trace schema violations: {problems}"
    names = {e["name"] for e in payload["traceEvents"]}
    assert "run_batch" in names, "traced batch produced no run_batch span"
    tracer.dump_chrome(TRACE_JSON)
    return payload


def main() -> None:
    rows, records, speedup, identical = measure()
    print_table(
        f"E-EXEC: {BATCHES} batches x {TRIALS} trials, n={N}, k={K}",
        ["backend", "wall-clock s", "x vs warm pool"],
        rows,
    )
    write_bench_json(BENCH_JSON, records)
    print(f"wrote {BENCH_JSON.name}")
    # Determinism first: all three backends must agree bit-for-bit.
    assert identical, "backends disagreed on batch outputs"
    assert speedup >= MIN_SPEEDUP, (
        f"warm pool speedup {speedup:.2f}x vs cold start-up is below the "
        f"{MIN_SPEEDUP}x bar"
    )
    print(
        f"warm-pool reuse beats cold pool start-up: {speedup:.2f}x "
        f"(bar {MIN_SPEEDUP}x), outputs bit-identical"
    )
    payload = trace_smoke()
    print(
        f"trace-export smoke: {len(payload['traceEvents'])} Chrome trace "
        f"events, schema valid, wrote {TRACE_JSON.name}"
    )


def test_warm_pool_beats_cold_startup():
    """Pytest entry point mirroring the script assertion."""
    _rows, _records, speedup, identical = measure()
    assert identical
    assert speedup >= MIN_SPEEDUP


def test_trace_export_schema():
    """Pytest entry point mirroring the trace-export smoke step."""
    payload = trace_smoke()
    assert payload["traceEvents"]


if __name__ == "__main__":
    main()
