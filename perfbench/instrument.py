"""Benchmark-side span wrappers around each layer's public entry points.

:class:`Instrumentation` patches the entry points for the duration of a
``with`` block — no edits under ``src/`` — and records one span per call
into a ``repro.obs`` :class:`~repro.obs.trace.Tracer` on a per-thread
``bench/<thread>`` track, with the layer in the span's args.  Spans of
one thread nest strictly, so :func:`layer_metrics` can recover the call
tree from intervals alone (:mod:`perfbench.spans`), even while
``submit_batch`` threads run batches concurrently.

Calls made inside worker processes are not seen: on the pool and fleet
workloads the per-trial layers read zero and the ``exec.*`` layers carry
the time.
"""

from __future__ import annotations

import functools
import sys
import threading
from typing import Any, Callable

from repro.core import Engine, SerialExecutor
from repro.core import randomness, simulator
from repro.core.protocol import Protocol
from repro.core.transcript import Transcript
from repro.distributions.base import InputDistribution
from repro.exec import DistributedExecutor, WorkerPool
from repro.infotheory import estimation
from repro.linalg.batch import BitMatrixBatch
from repro.linalg.bitmatrix import BitMatrix
from repro.obs.trace import Tracer

from .spans import nest, self_times, union_length

__all__ = ["Instrumentation", "PER_LAYER", "layer_metrics"]

CALLBACKS = ("setup", "broadcast", "receive", "finished", "output")
BATCH_CALLS = ("batch_decisions", "batch_keys")

#: Every per-layer metric a traced run reports, with its unit.
PER_LAYER = {
    "distributions.sample_calls": "count",
    "distributions.sample_s": "s",
    "core.simulate_s": "s",
    "core.bookkeeping_s": "s",
    "core.transcript_scans": "count",
    "core.coin_streams": "count",
    "core.ns_per_broadcast_bit": "ns/bit",
    "core.assemble_s": "s",
    "core.trial_objects": "count",
    "protocol.callback_s": "s",
    "protocol.output_s": "s",
    "protocol.batch_s": "s",
    "linalg.rank_calls": "count",
    "linalg.rank_s": "s",
    "linalg.batch_rank_s": "s",
    "distinguish.score_s": "s",
    "exec.map_calls": "count",
    "exec.map_s": "s",
    "exec.chunks": "count",
    "exec.lane_busy_s": "s",
    "exec.lane_idle_frac": "ratio",
    "exec.steals": "count",
    "exec.handshakes": "count",
    "exec.heartbeat_probes": "count",
    "exec.errors": "count",
    "sweep.batches_initial": "count",
    "sweep.batches_top_up": "count",
    "sweep.engine_idle_s": "s",
    "trace.overhead_ratio": "ratio",
}


def track() -> str:
    """The calling thread's span track."""
    return "bench/" + threading.current_thread().name


def _subclasses(cls: type) -> list[type]:
    found, frontier = [], [cls]
    while frontier:
        for sub in frontier.pop().__subclasses__():
            found.append(sub)
            frontier.append(sub)
    return found


class Instrumentation:
    """Install span wrappers on entry; restore the originals on exit.

    Also joins every ``Engine.run_batch`` result to the protocol's cost
    model: exact models must predict the measured ``cost_totals()`` to
    the bit, bounded ones must pass ``check_batch``.  ``bits`` sums the
    broadcast bits of the batches run, ``trial_objects`` their
    ``TrialResult`` count, and ``cost_problems`` collects mismatches.
    """

    def __init__(self, tracer: Tracer, protocol_classes: tuple[type, ...]) -> None:
        self.tracer = tracer
        self.protocol_classes = protocol_classes
        self.bits = 0
        self.trial_objects = 0
        self.cost_problems: list[str] = []
        self._lock = threading.Lock()
        self._undo: list[tuple[Any, str, Any]] = []

    # -- patching -------------------------------------------------------
    def _spanning(self, fn: Callable, name: str, layer: str) -> Callable:
        span = self.tracer.span

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            with span(name, track=track(), layer=layer):
                return fn(*args, **kwargs)

        return wrapper

    def _set(self, owner: Any, attr: str, value: Any) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def _wrap_method(self, cls: type, attr: str, name: str, layer: str) -> None:
        owner = next(k for k in cls.__mro__ if attr in vars(k))
        if any(o is owner and a == attr for o, a, _ in self._undo):
            return
        self._set(owner, attr, self._spanning(vars(owner)[attr], name, layer))

    def _wrap_function(self, fn: Callable, name: str, layer: str) -> None:
        """Replace ``fn`` in every ``repro`` module that imported it by name."""
        wrapper = self._spanning(fn, name, layer)
        for module_name, module in list(sys.modules.items()):
            if module_name.split(".")[0] != "repro":
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._set(module, attr, wrapper)

    def __enter__(self) -> "Instrumentation":
        try:
            for cls in _subclasses(InputDistribution):
                if "sample" in vars(cls):
                    self._wrap_method(cls, "sample", "distributions.sample", "distributions")
            for cls in self.protocol_classes:
                for attr in CALLBACKS:
                    self._wrap_method(cls, attr, f"protocol.{attr}", "protocol.callback")
                for attr in BATCH_CALLS:
                    if hasattr(cls, attr):
                        self._wrap_method(cls, attr, f"protocol.{attr}", "protocol.batch")
            self._wrap_method(BitMatrix, "rank", "linalg.rank", "linalg.rank")
            self._wrap_method(BitMatrixBatch, "rank", "linalg.batch_rank", "linalg.batch_rank")
            self._wrap_method(
                Transcript, "messages_in_round", "core.messages_in_round", "core.transcript"
            )
            # In-process, the executor's map *is* the scalar per-trial loop.
            self._wrap_method(SerialExecutor, "map", "executor.map", "core.simulate")
            self._wrap_method(WorkerPool, "map", "executor.map", "exec.map")
            self._wrap_method(DistributedExecutor, "map", "executor.map", "exec.map")
            self._wrap_function(simulator.make_contexts, "core.make_contexts", "core.contexts")
            self._wrap_function(randomness.expand_seed, "core.expand_seed", "core.coins")
            self._wrap_function(
                estimation.estimate_advantage, "distinguish.estimate_advantage", "distinguish"
            )
            self._set(Engine, "run_batch", self._run_batch(vars(Engine)["run_batch"]))
        except BaseException:
            self.__exit__()
            raise
        return self

    def __exit__(self, *exc_info: object) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- the engine boundary and the cost-model join --------------------
    def _run_batch(self, original: Callable) -> Callable:
        span = self.tracer.span
        join = self._join_costs

        @functools.wraps(original)
        def run_batch(engine: Engine, spec: Any, trials: int) -> Any:
            with span("engine.run_batch", track=track(), layer="core.engine", trials=trials):
                batch = original(engine, spec, trials)
            with span("bench.cost_join", track=track(), layer="bench"):
                join(spec, trials, batch)
            return batch

        return run_batch

    def _join_costs(self, spec: Any, trials: int, batch: Any) -> None:
        protocol = spec.protocol if isinstance(spec.protocol, Protocol) else spec.protocol()
        n = spec.distribution.n if spec.distribution is not None else spec.inputs.shape[0]
        model = protocol.cost_model()
        measured = batch.cost_totals()
        if model.is_exact:
            predicted = model.predict(trials, n=n)
            problems = [] if predicted == measured else [
                f"{type(protocol).__name__}: predicted {predicted} != measured {measured}"
            ]
            bits = predicted["broadcast_bits"]
        else:
            problems = model.check_batch(batch, n=n)
            bits = measured["broadcast_bits"]
        with self._lock:
            self.bits += bits
            self.trial_objects += len(batch)
            self.cost_problems.extend(problems)


def layer_metrics(
    events: list[dict[str, Any]],
    window: tuple[int, int],
    counters: dict[str, float],
    lanes: int,
) -> tuple[dict[str, float], dict[str, float]]:
    """Span-derived per-layer metrics and per-layer self seconds.

    ``events`` are the tracer's events, ``window`` the ``(start, end)``
    nanoseconds of the traced calls, ``counters`` the registry deltas over
    the window.  Inclusive times count only a layer's outermost spans, so
    a layer calling itself is not counted twice.
    """
    start_ns, end_ns = window
    spans = [
        e
        for e in events
        if e["type"] == "span" and e["start_ns"] >= start_ns and e["end_ns"] <= end_ns
    ]
    instants = [
        e for e in events if e["type"] == "instant" and start_ns <= e["ts_ns"] <= end_ns
    ]
    bench = [e for e in spans if e["track"].startswith("bench/")]
    library = [e for e in spans if not e["track"].startswith("bench/")]

    intervals = [(e["track"], e["start_ns"], e["end_ns"]) for e in bench]
    parents = nest(intervals)
    selfs = self_times(intervals, parents)
    layers = [e["args"]["layer"] for e in bench]
    names = [e["name"] for e in bench]
    durations = [end - start for _, start, end in intervals]

    def has_ancestor(index: int, layer: str) -> bool:
        parent = parents[index]
        while parent >= 0:
            if layers[parent] == layer:
                return True
            parent = parents[parent]
        return False

    outermost = [not has_ancestor(i, layers[i]) for i in range(len(bench))]
    in_scalar_loop = [has_ancestor(i, "core.simulate") for i in range(len(bench))]

    def inclusive_s(layer: str, only_scalar_loop: bool = False) -> float:
        return 1e-9 * sum(
            durations[i]
            for i in range(len(bench))
            if layers[i] == layer and outermost[i] and (in_scalar_loop[i] or not only_scalar_loop)
        )

    def named(name: str) -> list[int]:
        return [i for i in range(len(bench)) if names[i] == name]

    layer_self_s: dict[str, float] = {}
    for layer, own in zip(layers, selfs):
        layer_self_s[layer] = layer_self_s.get(layer, 0.0) + 1e-9 * own

    simulate_s = inclusive_s("core.simulate")
    maps = [intervals[i][1:] for i in range(len(bench)) if layers[i] == "exec.map" and outermost[i]]
    chunks = [e for e in library if e["name"] == "chunk"]
    lane_busy_ns = sum(
        union_length([(e["start_ns"], e["end_ns"]) for e in chunks if e["track"] == lane])
        for lane in {e["track"] for e in chunks}
    )
    map_wall_ns = union_length(maps)
    batches = [intervals[i][1:] for i in range(len(bench)) if layers[i] == "core.engine"]
    sweep_idle_ns = 0
    for i in range(len(bench)):
        if names[i] == "bench.call" and layers[i] == "sweep":
            call_start, call_end = intervals[i][1:]
            inside = [
                (max(s, call_start), min(e, call_end))
                for s, e in batches
                if s < call_end and e > call_start
            ]
            sweep_idle_ns += (call_end - call_start) - union_length(inside)

    metrics = {
        "distributions.sample_calls": float(
            sum(1 for i in range(len(bench)) if layers[i] == "distributions" and outermost[i])
        ),
        "distributions.sample_s": inclusive_s("distributions"),
        "core.simulate_s": simulate_s,
        "core.bookkeeping_s": simulate_s
        - inclusive_s("protocol.callback", only_scalar_loop=True)
        - inclusive_s("distributions", only_scalar_loop=True),
        "core.transcript_scans": float(len(named("core.messages_in_round"))),
        "core.coin_streams": float(len(named("core.expand_seed"))),
        "core.assemble_s": layer_self_s.get("core.engine", 0.0),
        "protocol.callback_s": inclusive_s("protocol.callback"),
        "protocol.output_s": 1e-9 * sum(durations[i] for i in named("protocol.output")),
        "protocol.batch_s": inclusive_s("protocol.batch"),
        "linalg.rank_calls": float(len(named("linalg.rank"))),
        "linalg.rank_s": inclusive_s("linalg.rank"),
        "linalg.batch_rank_s": inclusive_s("linalg.batch_rank"),
        "distinguish.score_s": layer_self_s.get("distinguish", 0.0),
        "exec.map_calls": float(len(maps)),
        "exec.map_s": inclusive_s("exec.map"),
        "exec.chunks": float(len(chunks)),
        "exec.lane_busy_s": 1e-9 * lane_busy_ns,
        "exec.lane_idle_frac": (
            1.0 - lane_busy_ns / (lanes * map_wall_ns) if lanes and map_wall_ns else 0.0
        ),
        "exec.steals": float(sum(1 for e in instants if e["name"] == "steal")),
        "exec.handshakes": counters["exec_handshakes_total"],
        "exec.heartbeat_probes": float(
            sum(1 for e in library if e["name"] == "probe" and e["track"] == "heartbeat")
        ),
        "exec.errors": counters["exec_errors_total"],
        "sweep.batches_initial": counters["sweep_batches_initial"],
        "sweep.batches_top_up": counters["sweep_batches_top_up"],
        "sweep.engine_idle_s": 1e-9 * sweep_idle_ns,
    }
    return metrics, layer_self_s
