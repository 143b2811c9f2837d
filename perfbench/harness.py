"""Closed-loop measurement of one workload: set-up, timed calls, checks.

One caller issues calls back to back; each call starts when the previous
one returned.  A call *fails* if it raises, fails its output check, warns
``BatchFallbackWarning`` / ``FleetDegradedWarning``, or moves a fallback
or error counter in the executor's registry.

Times are *speed-scaled*: the calibration kernel
(:func:`perfbench.system.kernel_seconds`) runs between consecutive calls
and around each set-up, and every time of the run is multiplied by
``REFERENCE_KERNEL_S`` over the median kernel time of the run.  Raw
times stay in the written record.
"""

from __future__ import annotations

import importlib.util
import json
import os
import time
import warnings
from dataclasses import dataclass, field
from typing import Any

from repro.core.errors import BatchFallbackWarning
from repro.exec import FleetDegradedWarning
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import NULL_TRACER, NullTracer, Tracer, validate_chrome_trace

from .instrument import PER_LAYER, Instrumentation, layer_metrics, track
from .stats import median, tail_percentile
from .system import REFERENCE_KERNEL_S, ROOT, import_seconds, kernel_seconds, peak_rss_mb
from .workloads import Workload

__all__ = ["Call", "measure", "measure_traced", "provenance"]

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPS = 5
#: Call indices of warm-up calls, far from the timed ones.
WARMUP_INDEX = 1_000_000

#: Registry series whose movement during a call marks it failed.
FAILURE_SERIES = (
    "engine_batch_fallbacks_total",
    "pool_degraded_batches_total",
    "exec_degraded_maps_total",
    "exec_errors_total",
)

E2E_UNITS = {
    "trials_per_s": "trials/s",
    "call_ms_p50": "ms",
    "call_ms_tail": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


@dataclass
class Call:
    index: int
    seconds: float
    result: Any = None
    problems: list[str] = field(default_factory=list)


def _failure_total(registry: MetricsRegistry) -> float:
    return sum(registry.total(name) for name in FAILURE_SERIES)


def run_call(
    workload: Workload,
    registry: MetricsRegistry,
    index: int,
    tracer: "Tracer | NullTracer" = NULL_TRACER,
) -> Call:
    """Time one call; note every raised error, fallback warning or counter."""
    before = _failure_total(registry)
    call = Call(index, 0.0)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        start = time.perf_counter()
        try:
            with tracer.span("bench.call", track=track(), layer=workload.call_layer):
                call.result = workload.call(index)
        except Exception as exc:  # noqa: BLE001 - a raising call is counted failed
            call.problems.append(f"raised {type(exc).__name__}: {exc}")
        call.seconds = time.perf_counter() - start
    for warning in caught:
        if issubclass(warning.category, (BatchFallbackWarning, FleetDegradedWarning)):
            call.problems.append(f"{warning.category.__name__}: {warning.message}")
    moved = _failure_total(registry) - before
    if moved:
        call.problems.append(f"fallback/error counters moved by {moved:g}")
    return call


def set_up(
    workload: Workload,
    registry: MetricsRegistry,
    tracer: "Tracer | NullTracer",
    reps: int,
    kernels: list[float],
) -> tuple[list[float], list[str]]:
    """Set the workload up ``reps`` times; keep the last executor running.

    One set-up is a fresh interpreter's ``import repro``, the executor
    start, and one warm-up call.  Returns the set-up seconds and the
    problems of the warm-up calls; appends kernel times to ``kernels``.
    """
    seconds, problems = [], []
    for rep in range(reps):
        if rep:
            workload.stop()
        kernels.append(kernel_seconds())
        imports = import_seconds()
        start = time.perf_counter()
        workload.start(registry, tracer)
        warm = run_call(workload, registry, WARMUP_INDEX + rep)
        seconds.append(imports + time.perf_counter() - start)
        problems += [f"warm-up: {p}" for p in warm.problems]
    kernels.append(kernel_seconds())
    return seconds, problems


def timed_calls(
    workload: Workload,
    registry: MetricsRegistry,
    kernels: list[float],
    seconds: float = 0.0,
    count: int | None = None,
    tracer: "Tracer | NullTracer" = NULL_TRACER,
) -> list[Call]:
    """Calls ``0, 1, …`` back to back: ``count`` of them, or for ``seconds``.

    The calibration kernel runs after every call; its times are appended
    to ``kernels``.
    """
    calls: list[Call] = []
    deadline = time.perf_counter() + seconds
    while True:
        calls.append(run_call(workload, registry, len(calls), tracer))
        kernels.append(kernel_seconds())
        if count is not None:
            if len(calls) >= count:
                return calls
        elif time.perf_counter() >= deadline:
            return calls


def verify(workload: Workload, calls: list[Call]) -> list[str]:
    """Check every call's output; return the problems of the pooled laws."""
    for call in calls:
        if call.result is not None:
            call.problems += workload.check(call.index, call.result)
    return workload.pooled_check([c.result for c in calls if c.result is not None])


def provenance(workload: Workload) -> dict[str, Any]:
    """``benchmarks/_util.provenance()`` plus nproc, seed and input size."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_bench_util", ROOT / "benchmarks" / "_util.py"
    )
    util = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(util)
    return {
        **util.provenance(),
        "nproc": os.cpu_count(),
        "seed": workload.seed,
        "input_size": workload.input_size(),
    }


def _counts(calls: list[Call], run_problems: list[str]) -> dict[str, Any]:
    failed = sum(1 for c in calls if c.problems)
    if run_problems:
        failed = len(calls)  # a broken pooled law implicates every call
    problems = list(run_problems)
    for call in calls:
        problems += [f"call {call.index}: {p}" for p in call.problems]
    return {
        "correct": not problems,
        "attempted": len(calls),
        "failed": failed,
        "problems": problems,
    }


def measure(workload: Workload, seconds: float) -> dict[str, Any]:
    """One untraced run: the end-to-end metrics."""
    registry = MetricsRegistry()
    kernels: list[float] = []
    try:
        setup_seconds, problems = set_up(
            workload, registry, NULL_TRACER, SETUP_REPS, kernels
        )
        calls = timed_calls(workload, registry, kernels, seconds=seconds)
        rss = peak_rss_mb()
    finally:
        workload.stop()
    problems += verify(workload, calls)
    counts = _counts(calls, problems)
    speed = REFERENCE_KERNEL_S / median(kernels)
    ms = [1000.0 * speed * c.seconds for c in calls]
    tail_q, tail_ms = tail_percentile(ms)
    trials = sum(workload.trials(c.result) for c in calls if c.result is not None)
    values = {
        "trials_per_s": trials / (speed * sum(c.seconds for c in calls)),
        "call_ms_p50": median(ms),
        "call_ms_tail": tail_ms,
        "setup_s": speed * median(setup_seconds),
        "peak_rss_mb": rss,
    }
    return {
        **counts,
        "metrics": {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in values.items()},
        "failed_frac": counts["failed"] / counts["attempted"],
        "tail_percentile": tail_q,
        "speed_scale": speed,
        "raw_calls_ms": [1000.0 * c.seconds for c in calls],
        "raw_setup_s": setup_seconds,
        "kernel_ms": [1000.0 * k for k in kernels],
    }


def _registry_counts(registry: MetricsRegistry) -> dict[str, float]:
    return {
        "exec_handshakes_total": registry.total("exec_handshakes_total"),
        "exec_errors_total": registry.total("exec_errors_total"),
        "sweep_batches_initial": registry.total("sweep_batches_total", kind="initial"),
        "sweep_batches_top_up": registry.total("sweep_batches_total", kind="top_up"),
    }


def measure_traced(workload: Workload, trace_path: str) -> dict[str, Any]:
    """One traced run: the same fixed calls untraced, then traced.

    Writes the Chrome trace to ``trace_path``; returns the per-layer
    metrics, the per-layer self times and the registry snapshot.
    """
    count = workload.trace_calls
    base_registry, kernels = MetricsRegistry(), []
    try:
        _, problems = set_up(workload, base_registry, NULL_TRACER, 1, kernels)
        base = timed_calls(workload, base_registry, kernels, count=count)
    finally:
        workload.stop()

    tracer, registry = Tracer(), MetricsRegistry()
    try:
        problems += set_up(workload, registry, tracer, 1, kernels)[1]
        before = _registry_counts(registry)
        with Instrumentation(tracer, workload.protocol_classes) as instrumentation:
            window = (time.perf_counter_ns(), 0)
            traced = timed_calls(workload, registry, kernels, count=count, tracer=tracer)
            window = (window[0], time.perf_counter_ns())
        after = _registry_counts(registry)
    finally:
        workload.stop()

    calls = base + traced
    problems += verify(workload, calls)
    for untraced, call in zip(base, traced):
        if untraced.result is None or call.result is None:
            continue
        if workload.outputs(untraced.result) != workload.outputs(call.result):
            call.problems.append("traced output differs from the untraced one")
    problems += [f"cost model: {p}" for p in instrumentation.cost_problems]

    chrome = tracer.to_chrome()
    trace_problems = validate_chrome_trace(chrome)
    problems += [f"chrome trace: {p}" for p in trace_problems]
    with open(trace_path, "w", encoding="utf-8") as out:
        json.dump(chrome, out)

    metrics, layer_self_s = layer_metrics(
        tracer.events(),
        window,
        {name: after[name] - before[name] for name in after},
        workload.lanes,
    )
    base_seconds = sum(c.seconds for c in base)
    # The traced calls repeat the untraced ones, so their batches' bits
    # price the untraced wall time.
    bits = instrumentation.bits
    metrics["core.ns_per_broadcast_bit"] = 1e9 * base_seconds / bits if bits else 0.0
    metrics["core.trial_objects"] = float(instrumentation.trial_objects)
    metrics["trace.overhead_ratio"] = sum(c.seconds for c in traced) / base_seconds
    return {
        **_counts(calls, problems),
        "metrics": {k: {"value": metrics[k], "unit": unit} for k, unit in PER_LAYER.items()},
        "layer_self_s": layer_self_s,
        "chrome_trace": os.path.basename(trace_path),
        "registry": registry.snapshot(),
    }
