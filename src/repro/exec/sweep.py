"""Resumable, adaptive, asynchronous parameter sweeps: ``SweepDriver``.

A sweep runs a batch per grid point and collects the points into a
:class:`~repro.analysis.sweep.SweepResult`.  ``SweepDriver`` builds it
on the engine's asynchronous batches:

* **async** — the whole grid is submitted up front via
  :meth:`~repro.core.engine.Engine.submit_batch`, so many points'
  batches are in flight at once (on a warm
  :class:`~repro.exec.pool.WorkerPool` or a
  :class:`~repro.exec.distributed.DistributedExecutor` fleet);
* **resumable** — every *completed* point is appended to a JSONL
  checkpoint journal; re-running the same sweep against the same journal
  submits only the missing points (zero recomputation), so an
  interrupted overnight sweep continues where it stopped;
* **adaptive** — instead of a fixed trial count, give a target
  confidence-interval width: points keep receiving top-up batches until
  the interval around their statistic is tight enough (or ``max_trials``
  is hit), so easy points finish cheap and hard points get the budget;
* **prioritised** — pending work is ordered by a priority queue:
  ``priority=`` ranks grid points (lower runs first), ``max_inflight``
  bounds how many batches are in flight, and adaptive **top-up batches
  cooperatively yield** to initial batches of not-yet-started points of
  the same priority — short points overtake long adaptive tails instead
  of queueing behind them, and a resumed sweep reorders its remaining
  points the same way.

Determinism: batch ``b`` of grid point ``i`` is seeded with
``SeedSequence(seed, spawn_key=(i, b))`` — a pure function of the driver
seed and grid position.  Interrupting, resuming, reordering completions,
reprioritising, or changing the executor never changes any point's
trials.
"""

from __future__ import annotations

import dataclasses
import heapq
import itertools
import json
import math
import os
from concurrent.futures import FIRST_COMPLETED
from concurrent.futures import wait as _wait_futures
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterable, Mapping

import numpy as np

from ..analysis.sweep import SweepPoint, SweepResult
from ..core.engine import BatchResult, Engine, Executor, RunSpec
from ..infotheory.estimation import _normal_quantile, wilson_interval
from ..obs.metrics import MetricsRegistry
from ..obs.trace import NULL_TRACER, NullTracer, Tracer
from .futures import BatchFuture

__all__ = [
    "SweepDriver",
    "params_key",
    "load_journal",
    "append_journal",
    "default_trial_values",
]


# ----------------------------------------------------------------------
# Checkpoint journal
# ----------------------------------------------------------------------
def _jsonable(obj: Any) -> Any:
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"{type(obj).__name__} is not JSON-serializable")


def params_key(params: Mapping[str, Any]) -> str:
    """Canonical identity of a grid point: sorted-key JSON of its params."""
    return json.dumps(dict(params), sort_keys=True, default=_jsonable)


def load_journal(path: "str | Path") -> dict[str, dict[str, float]]:
    """Completed points of a previous run: ``params_key → values``.

    Tolerates a truncated final line (the run was killed mid-write);
    everything before it is kept.  A missing file is an empty journal.
    """
    journal: dict[str, dict[str, float]] = {}
    try:
        stream = open(path, "r", encoding="utf-8")
    except FileNotFoundError:
        return journal  # no journal yet: nothing completed
    with stream:
        for line in stream:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                continue  # torn tail write from an interrupted run
            journal[params_key(record["params"])] = record["values"]
    return journal


def append_journal(
    path: "str | Path", params: Mapping[str, Any], values: Mapping[str, float]
) -> None:
    """Durably append one completed point to the checkpoint journal.

    If an interrupted run left a torn, newline-less tail, the new record
    starts on a fresh line instead of being glued to the garbage — the
    torn line stays unparseable (and its point is recomputed), but the
    record written here must survive the next :func:`load_journal`.
    """
    line = json.dumps(
        {"params": dict(params), "values": dict(values)},
        sort_keys=True,
        default=_jsonable,
    )
    payload = (line + "\n").encode("utf-8")
    with open(path, "ab+") as stream:
        stream.seek(0, os.SEEK_END)
        end = stream.tell()
        if end:
            stream.seek(end - 1)
            if stream.read(1) != b"\n":
                payload = b"\n" + payload
        stream.write(payload)
        stream.flush()
        os.fsync(stream.fileno())


# ----------------------------------------------------------------------
# Adaptive accounting
# ----------------------------------------------------------------------
def default_trial_values(batch: BatchResult) -> np.ndarray:
    """Per-trial statistic a sweep aggregates: processor 0's 0/1 decision."""
    return batch.decisions(0).astype(np.float64)


@dataclass
class _PointState:
    """Accumulated trials of one in-flight grid point."""

    index: int
    params: Mapping[str, Any]
    values: list[np.ndarray] = field(default_factory=list)
    batches: int = 0
    retries: int = 0

    @property
    def trials(self) -> int:
        return sum(len(v) for v in self.values)

    def stacked(self) -> np.ndarray:
        return np.concatenate(self.values) if self.values else np.empty(0)


class SweepDriver:
    """Drive a grid of batched experiments to completion, asynchronously.

    Parameters
    ----------
    spec_fn:
        ``spec_fn(**params) → RunSpec`` describing one grid point's
        batch.  The spec's ``seed`` is overridden by the driver (see
        ``seed``) so that resume and top-up batches are deterministic.
    executor / engine:
        Backend batches run on: pass ``executor`` (e.g. a warm
        :class:`~repro.exec.pool.WorkerPool`) to let the driver own an
        :class:`~repro.core.engine.Engine`, or a pre-built ``engine`` to
        share one across drivers (the caller then owns its lifecycle).
    trials:
        Trials in the initial batch of every point — and in each top-up
        batch when the sweep is adaptive.
    ci_width:
        Adaptive target: keep topping up a point until the two-sided
        confidence interval of its mean statistic — Wilson score when the
        statistic is 0/1 (honest at accuracies near 0 or 1), normal
        approximation otherwise — is at most this wide.  ``None``
        disables adaptivity (one batch per point).
    max_trials:
        Hard per-point budget for the adaptive loop (default
        ``32 * trials``).
    confidence:
        Confidence level of the adaptive interval (default 0.95).
    trial_values:
        ``BatchResult → (trials,) float array`` extracting the per-trial
        statistic; defaults to processor 0's 0/1 decisions, making
        ``mean`` an accept rate / accuracy.
    checkpoint:
        JSONL journal path.  Completed points are appended as they
        finish; points already present are returned from the journal
        without resubmitting anything.
    seed:
        Master seed.  Batch ``b`` of point ``i`` runs under
        ``SeedSequence(seed, spawn_key=(i, b))``.
    priority:
        ``priority(params) → float`` ranking pending work; **lower runs
        first**.  ``None`` (the default) keeps grid order.  Priorities
        order scheduling only — they never change any point's trials
        (seeds are a pure function of grid position and batch number),
        so two drivers with opposite priorities produce bit-identical
        values.  On resume, journal-completed points are skipped and the
        remainder is re-ranked the same way.
    max_inflight:
        Upper bound on batches in flight at once.  ``None`` (the
        default) submits greedily in priority order.  A finite bound is
        what gives top-up *preemption* teeth: when a point finishes a
        batch unconverged, its top-up goes back into the priority queue
        — behind every not-yet-started point of the same priority —
        instead of resubmitting immediately, so long adaptive tails
        cannot starve short points of the bounded in-flight slots.
    batch_retries:
        Times one point's batch is resubmitted after failing with a
        :class:`ConnectionError` (a fleet outage surfaced by a
        ``local_fallback=False`` distributed backend) before the sweep
        gives up and re-raises.  A retried batch reruns the **same**
        spec — batch ``b`` of point ``i`` is seeded purely by
        ``(i, b)`` — so values on eventual success are bit-identical to
        an unfaulted run.  Task errors are never retried (a failing
        trial is deterministic; retrying cannot fix it).  The driver
        counts resubmissions on ``sweep_retried_batches_total``.

    A fixed-trials sweep over two grid points, smallest ``k`` first:

    >>> import numpy as np
    >>> from repro.core import RunSpec
    >>> from repro.distributions import UniformRows
    >>> from repro.exec import SweepDriver
    >>> from repro.protocols import GlobalParityProtocol
    >>> def spec_fn(n):
    ...     return RunSpec(
    ...         protocol=GlobalParityProtocol(),
    ...         distribution=UniformRows(n, 4),
    ...         seed=0,
    ...     )
    >>> driver = SweepDriver(spec_fn, trials=16, seed=1)
    >>> result = driver.run([{"n": 2}, {"n": 3}])
    >>> [point["trials"] for point in result.points]
    [16.0, 16.0]
    >>> all(0.0 <= point["mean"] <= 1.0 for point in result.points)
    True
    """

    def __init__(
        self,
        spec_fn: Callable[..., RunSpec],
        *,
        executor: "Executor | str | None" = None,
        engine: Engine | None = None,
        trials: int = 64,
        ci_width: float | None = None,
        max_trials: int | None = None,
        confidence: float = 0.95,
        trial_values: Callable[[BatchResult], np.ndarray] | None = None,
        checkpoint: "str | Path | None" = None,
        seed: int = 0,
        priority: Callable[[Mapping[str, Any]], float] | None = None,
        max_inflight: int | None = None,
        batch_retries: int = 1,
        registry: "MetricsRegistry | None" = None,
        tracer: "Tracer | NullTracer" = NULL_TRACER,
    ):
        if trials < 1:
            raise ValueError("trials per batch must be >= 1")
        if batch_retries < 0:
            raise ValueError("batch_retries must be >= 0")
        if ci_width is not None and ci_width <= 0:
            raise ValueError("ci_width must be positive")
        if max_trials is not None and max_trials < trials:
            raise ValueError("max_trials must be >= the initial batch size")
        if not 0 < confidence < 1:
            raise ValueError("confidence must lie in (0, 1)")
        if engine is not None and executor is not None:
            raise ValueError("pass either executor or engine, not both")
        if max_inflight is not None and max_inflight < 1:
            raise ValueError("max_inflight must be >= 1")
        self.spec_fn = spec_fn
        self._engine = engine
        self._executor = executor
        self.trials = trials
        self.ci_width = ci_width
        self.max_trials = max_trials if max_trials is not None else 32 * trials
        self.confidence = confidence
        self.trial_values = trial_values or default_trial_values
        self.checkpoint = checkpoint
        self.seed = seed
        self.priority = priority
        self.max_inflight = max_inflight
        self.batch_retries = batch_retries
        #: Unified metrics home (shared when passed in) and span tracer
        #: for the point/top-up lifecycle.
        self.registry = registry if registry is not None else MetricsRegistry()
        self.tracer = tracer

    # -- seeding --------------------------------------------------------
    def _batch_spec(self, params: Mapping[str, Any], index: int, batch: int) -> RunSpec:
        spec = self.spec_fn(**params)
        if not isinstance(spec, RunSpec):
            raise TypeError(
                f"spec_fn must return a RunSpec, got {type(spec).__name__}"
            )
        seed = np.random.SeedSequence(self.seed, spawn_key=(index, batch))
        return dataclasses.replace(spec, seed=seed)

    # -- adaptive accounting --------------------------------------------
    def _point_values(self, state: _PointState) -> dict[str, float]:
        values = state.stacked()
        n = len(values)
        mean = float(values.mean()) if n else math.nan
        if n and np.isin(values, (0.0, 1.0)).all():
            # Bernoulli statistic (the default decision/accuracy case):
            # Wilson scores stay honest at the extremes — an all-1s batch
            # gets a CI like [0.89, 1.0], not the degenerate [1.0, 1.0]
            # of the sample-std formula, so adaptive stopping cannot
            # declare victory on a lucky uniform batch.
            interval = wilson_interval(
                int(values.sum()), n, confidence=self.confidence
            )
            lower, upper = interval.lower, interval.upper
        elif n > 1:
            half = (
                _normal_quantile(0.5 + self.confidence / 2.0)
                * float(values.std(ddof=1))
                / math.sqrt(n)
            )
            lower, upper = mean - half, mean + half
        else:
            half = math.inf if self.ci_width is not None else 0.0
            lower, upper = mean - half, mean + half
        return {
            "mean": mean,
            "ci_lower": lower,
            "ci_upper": upper,
            "trials": float(n),
            "batches": float(state.batches),
        }

    def _is_converged(self, values: dict[str, float]) -> bool:
        if self.ci_width is None:
            return True
        if values["trials"] >= self.max_trials:
            return True
        return (values["ci_upper"] - values["ci_lower"]) <= self.ci_width

    # -- the drive loop -------------------------------------------------
    def run(self, grid: Iterable[Mapping[str, Any]]) -> SweepResult:
        """Drive every missing grid point to convergence; block until done.

        Pending work flows through a priority queue keyed by
        ``(priority(params), is_top_up, arrival)``: initial batches of
        unstarted points run before adaptive top-ups of equal priority
        (cooperative preemption — a point that finishes a batch
        unconverged re-enters the queue rather than jumping it), and
        ``max_inflight`` bounds how many batches occupy the engine at
        once.  Scheduling order never touches values: batch ``b`` of
        point ``i`` is seeded purely by ``(i, b)``.

        Returns a :class:`~repro.analysis.sweep.SweepResult` in grid
        order, mixing journal-loaded and freshly measured points.  Point
        values: ``mean``, ``ci_lower`` / ``ci_upper``, ``trials``,
        ``batches``.
        """
        grid = [dict(params) for params in grid]
        journal = (
            load_journal(self.checkpoint) if self.checkpoint is not None else {}
        )
        finished: dict[int, dict[str, float]] = {}
        engine = self._engine if self._engine is not None else Engine(self._executor)
        pending: dict[BatchFuture, _PointState] = {}
        #: Min-heap of runnable work.  Key: user priority first, then the
        #: initial-before-top-up class, then arrival order (ties stay
        #: FIFO and the heap never compares _PointState objects).
        ready: list[tuple[float, int, int, _PointState]] = []
        arrivals = itertools.count()

        def enqueue(state: _PointState) -> None:
            rank = (
                float(self.priority(grid[state.index]))
                if self.priority is not None
                else 0.0
            )
            heapq.heappush(
                ready, (rank, 1 if state.batches else 0, next(arrivals), state)
            )

        def submit_ready() -> None:
            while ready and (
                self.max_inflight is None or len(pending) < self.max_inflight
            ):
                _, _, _, state = heapq.heappop(ready)
                spec = self._batch_spec(
                    grid[state.index], state.index, state.batches
                )
                kind = "top_up" if state.batches else "initial"
                self.tracer.instant(
                    "submit", track="sweep", point=state.index,
                    batch=state.batches, kind=kind,
                )
                self.registry.counter("sweep_batches_total", kind=kind).inc()
                pending[engine.submit_batch(spec, self.trials)] = state

        try:
            for index, params in enumerate(grid):
                key = params_key(params)
                if key in journal:
                    finished[index] = dict(journal[key])
                    continue
                enqueue(_PointState(index=index, params=params))
            submit_ready()
            while pending:
                # One wait over the in-flight set, then drain everything
                # that finished — re-enqueued top-ups compete with queued
                # initial batches for the freed in-flight slots.
                by_inner = {future._inner: future for future in pending}
                done, _ = _wait_futures(
                    list(by_inner), return_when=FIRST_COMPLETED
                )
                for inner in done:
                    future = by_inner[inner]
                    state = pending.pop(future)
                    try:
                        batch = future.result()
                    except ConnectionError:
                        # A fleet outage killed the batch before any
                        # result existed.  Its spec is a pure function
                        # of (index, batch number) — ``state.batches``
                        # was not advanced — so the re-enqueued batch
                        # reruns the identical trials: values are
                        # bit-identical to an unfaulted run.
                        if state.retries >= self.batch_retries:
                            raise
                        state.retries += 1
                        self.registry.counter("sweep_retried_batches_total").inc()
                        self.tracer.instant(
                            "retry", track="sweep", point=state.index,
                            batch=state.batches,
                        )
                        enqueue(state)
                        continue
                    state.values.append(np.asarray(self.trial_values(batch)))
                    state.batches += 1
                    values = self._point_values(state)
                    if self._is_converged(values):
                        finished[state.index] = values
                        self.tracer.instant(
                            "point_converged", track="sweep",
                            point=state.index, batches=state.batches,
                            trials=values["trials"],
                        )
                        if self.checkpoint is not None:
                            append_journal(self.checkpoint, state.params, values)
                    else:
                        enqueue(state)
                submit_ready()
        finally:
            if self._engine is None:
                engine.close(cancel_pending=True)
        return SweepResult(
            points=[
                SweepPoint(params=dict(params), values=finished[index])
                for index, params in enumerate(grid)
            ]
        )
