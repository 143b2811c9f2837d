"""The unified execution engine: ``RunSpec`` → ``Engine`` → ``BatchResult``.

Every experiment in this reproduction ultimately executes a
:class:`~repro.core.protocol.Protocol` many times — Monte-Carlo advantage
estimators, Newman-compilation error measurements, accuracy sweeps,
benchmarks.  Historically each of those re-implemented its own serial
``for _ in range(n_samples): run_protocol(...)`` loop.  This module makes
the *N-trial execution* a first-class object instead:

* :class:`RunSpec` — a frozen description of one execution: the protocol,
  the input source (a fixed matrix *or* an
  :class:`~repro.distributions.base.InputDistribution` sampled afresh each
  trial), the scheduler, budgets, an optional rounds override, and a
  master ``seed``.
* :class:`Engine` — executes specs.  :meth:`Engine.run` performs a single
  full-fidelity execution (returning the usual
  :class:`~repro.core.simulator.ExecutionResult`);
  :meth:`Engine.run_batch` executes ``trials`` statistically independent
  trials and aggregates them into a :class:`BatchResult`.
* :class:`Executor` backends — :class:`SerialExecutor` runs trials in the
  calling process; :class:`repro.exec.WorkerPool` (one machine, a warm
  process pool held in a ``with`` block) and
  :class:`repro.exec.DistributedExecutor` (remote workers) fan them out.

**Determinism.**  Batch trials are seeded with
``np.random.SeedSequence(seed).spawn(trials)``: trial ``t`` always receives
the same spawned child regardless of which backend runs it or in what
order, so serial and parallel executions of the same spec are
*bit-identical*.  Each trial also gets a fresh deep copy of the protocol
object, making trials independent even for protocols that cache state on
``self``.

**Picklability.**  The process-pool backend needs the spec (protocol,
distribution, scheduler) to be picklable.  Library protocols are;
:class:`~repro.core.protocol.FunctionProtocol` built from a lambda is not —
:class:`~repro.exec.WorkerPool` detects this up front and falls back to
serial execution with a warning rather than failing.

**Vectorized fast path.**  Protocols that override
:meth:`~repro.core.protocol.Protocol.batch_decisions` can skip per-trial
simulation entirely: a spec with ``vectorized=True`` draws every trial's
input with the same per-trial seeds as the scalar path — so inputs are
bit-identical — through one
:meth:`~repro.distributions.base.InputDistribution.sample_each` call per
chunk, and evaluates them with one ``protocol.batch_decisions`` call
backed by the batched GF(2) kernels of :mod:`repro.linalg.batch`.  That
call returns decisions and transcript keys together, so key-based
estimators batch too.  The result stays columnar: a :class:`BatchResult`
keeps each chunk's decision, key and turns columns and builds a
:class:`TrialResult` only when trials are read, so a decision-only
estimator builds none.  Specs the fast path cannot honour (transcript
recording, coin budgets, protocols without a batch implementation) fall
back to the scalar path with a
:class:`~repro.core.errors.BatchFallbackWarning`; ``Engine.batch_fallbacks``
counts the downgrades.

**Asynchronous batches.**  :meth:`Engine.submit_batch` schedules a batch
on a background submission thread and returns a
:class:`repro.exec.BatchFuture` immediately, so callers can overlap many
in-flight batches (``repro.exec.as_completed`` consumes them as they
finish).  Results are bit-identical to :meth:`Engine.run_batch` on the
same spec — seeding never depends on scheduling.
"""

from __future__ import annotations

import copy
import os
import pickle
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor as _ThreadPoolExecutor
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator

import numpy as np

from ..obs.metrics import MetricsRegistry
from ..obs.trace import NULL_TRACER, NullTracer, Tracer
from .errors import SchedulingError
from .network import CostReport
from .protocol import Protocol
from .randomness import CoinSource, TrialStreams
from .scheduler import RoundScheduler, Scheduler, TurnScheduler
from .transcript import Transcript

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from ..distributions.base import InputDistribution
    from ..exec.futures import BatchFuture
    from .simulator import ExecutionResult

__all__ = [
    "RunSpec",
    "TrialResult",
    "BatchResult",
    "Executor",
    "SerialExecutor",
    "Engine",
    "resolve_executor",
    "derive_seed",
]


def derive_seed(rng: np.random.Generator) -> int:
    """Derive a batch master seed from a caller-supplied generator.

    The bridge between the library's ``rng``-parameter convention and the
    engine's seed-based batches: the same generator state yields the same
    batch, and the generator advances so successive calls draw fresh
    batches.
    """
    return int(rng.integers(0, 2**63))


def _resolve_scheduler(scheduler: Scheduler | str) -> Scheduler:
    if isinstance(scheduler, Scheduler):
        return scheduler
    if scheduler == "round":
        return RoundScheduler()
    if scheduler == "turn":
        return TurnScheduler()
    raise SchedulingError(f"unknown scheduler name {scheduler!r}")


# ----------------------------------------------------------------------
# RunSpec
# ----------------------------------------------------------------------
@dataclass(frozen=True, eq=False)
class RunSpec:
    """A frozen description of one protocol execution.

    Parameters
    ----------
    protocol:
        The protocol to run, or a zero-argument factory returning one
        (use :func:`functools.partial` for picklable factories).  Batch
        trials never share protocol state: each trial runs on a fresh
        ``deepcopy`` of the instance (or a fresh factory call).
    inputs:
        Fixed ``n × m`` 0/1 input matrix, reused by every trial.
        Mutually exclusive with ``distribution``.
    distribution:
        An :class:`~repro.distributions.base.InputDistribution`; each
        trial samples a fresh input matrix from it.
    scheduler:
        ``"round"``, ``"turn"`` or a :class:`Scheduler` instance.
    seed:
        Master seed (int or :class:`numpy.random.SeedSequence`).  Batch
        trial ``t`` is driven by child ``t`` of
        ``SeedSequence(seed).spawn(trials)``; ``None`` means fresh OS
        entropy (non-reproducible).
    rounds:
        Optional override of the protocol's own ``num_rounds``.
    private_bit_budget:
        Per-processor cap on private random bits.
    public_coins:
        Either a :class:`CoinSource` instance (single runs only) or a
        factory ``rng → CoinSource`` called once per trial with the
        trial's generator — the :class:`~repro.core.randomness.PublicCoins`
        class itself is such a factory.
    record_inputs:
        Keep each trial's input matrix on its :class:`TrialResult`
        (needed by accuracy estimators that compare against a target
        function of the input).
    record_transcripts:
        Keep each trial's full :class:`Transcript` (not just its key).
    vectorized:
        Ask ``run_batch`` to evaluate the whole batch with one
        ``protocol.batch_decisions`` call when the protocol overrides it
        (and the spec needs no transcripts, round overrides, coin budgets
        or public coins).  Inputs are sampled with
        the same per-trial seeds as the scalar path (through the
        distribution's ``sample_each``); outputs, costs *and* per-trial
        ``transcript_key`` tuples are bit-identical, so key-based
        estimators can batch too.  The returned :class:`BatchResult` is
        columnar and builds its :class:`TrialResult` records only when
        trials are read.  Specs the fast path cannot honour fall back to
        scalar execution, announced with a
        :class:`~repro.core.errors.BatchFallbackWarning` and counted on
        ``Engine.batch_fallbacks``.
    """

    protocol: Protocol | Callable[[], Protocol]
    inputs: np.ndarray | None = None
    distribution: "InputDistribution | None" = None
    scheduler: Scheduler | str = "round"
    seed: int | np.random.SeedSequence | None = None
    rounds: int | None = None
    private_bit_budget: int | None = None
    public_coins: CoinSource | Callable[[np.random.Generator], CoinSource] | None = None
    record_inputs: bool = False
    record_transcripts: bool = False
    vectorized: bool = False

    def __post_init__(self) -> None:
        if (self.inputs is None) == (self.distribution is None):
            raise ValueError(
                "RunSpec needs exactly one input source: pass `inputs` "
                "(a fixed matrix) or `distribution` (sampled per trial)"
            )
        if self.inputs is not None:
            array = np.asarray(self.inputs, dtype=np.uint8)
            if array.ndim != 2:
                raise ValueError(
                    f"inputs must be a 2-D array, got shape {array.shape}"
                )
            object.__setattr__(self, "inputs", array)
        if not (isinstance(self.protocol, Protocol) or callable(self.protocol)):
            raise TypeError(
                "protocol must be a Protocol instance or a factory callable, "
                f"got {type(self.protocol).__name__}"
            )
        # Fail fast on bad scheduler names instead of inside a worker.
        _resolve_scheduler(self.scheduler)

    def seed_sequence(self) -> np.random.SeedSequence:
        """The master :class:`~numpy.random.SeedSequence` of this spec."""
        if isinstance(self.seed, np.random.SeedSequence):
            return self.seed
        return np.random.SeedSequence(self.seed)

    def fresh_protocol(self) -> Protocol:
        """A protocol instance private to one trial."""
        if isinstance(self.protocol, Protocol):
            return copy.deepcopy(self.protocol)
        protocol = self.protocol()
        if not isinstance(protocol, Protocol):
            raise TypeError(
                "protocol factory must return a Protocol, got "
                f"{type(protocol).__name__}"
            )
        return protocol


# ----------------------------------------------------------------------
# Results
# ----------------------------------------------------------------------
@dataclass
class TrialResult:
    """The lightweight outcome of one batch trial.

    Mirrors the parts of :class:`~repro.core.simulator.ExecutionResult`
    that batch consumers need (outputs, transcript key, cost report) while
    staying cheap to ship across process boundaries.  ``inputs`` /
    ``transcript`` are populated only when the spec asked for them.
    """

    trial_index: int
    outputs: list[Any]
    transcript_key: tuple[int, ...]
    cost: CostReport
    inputs: np.ndarray | None = None
    transcript: Transcript | None = None

    def output_of(self, proc_id: int) -> Any:
        return self.outputs[proc_id]


@dataclass(frozen=True, eq=False)
class _Columns:
    """One vectorized chunk of a batch, stored column-wise.

    ``decisions`` is the protocol's ``(count,)`` or ``(count, n)`` output
    array, ``keys`` the dense ``(count, turns)`` key array or the ragged
    per-trial key tuples, ``turns`` the realized turn count per trial and
    ``rounds`` the rounds derived from it.  Every trial's costs follow
    from these and the per-chunk constants; ``inputs`` is the
    ``(count, n, m)`` input stack, kept only when the spec records inputs.
    """

    start: int
    decisions: np.ndarray
    keys: np.ndarray | list[tuple[int, ...]]
    turns: np.ndarray
    rounds: np.ndarray
    n: int
    message_size: int
    coin_bits: int
    inputs: np.ndarray | None

    def __len__(self) -> int:
        return self.turns.shape[0]

    def decisions_of(self, proc_id: int) -> np.ndarray:
        """Processor ``proc_id``'s outputs as a 0/1 ``uint8`` vector."""
        if self.decisions.ndim == 2:
            column = self.decisions[:, proc_id]
        elif -self.n <= proc_id < self.n:
            column = self.decisions  # every processor outputs the row value
        else:
            raise IndexError(f"processor {proc_id} out of range for n={self.n}")
        if column.dtype.kind in "biuf":
            return (column != 0).astype(np.uint8)
        return np.fromiter(
            (int(bool(v)) for v in column), dtype=np.uint8, count=len(self)
        )

    def key_tuples(self) -> list[tuple[int, ...]]:
        if isinstance(self.keys, np.ndarray):
            return [tuple(row) for row in self.keys.tolist()]
        return self.keys

    def cost_column(self, attr: str) -> np.ndarray:
        """The ``CostReport`` field ``attr`` of every trial, as ``int64``."""
        if attr in ("rounds", "turns"):
            return getattr(self, attr)
        if attr == "broadcast_bits":
            return self.turns * self.message_size
        per_trial = {
            "total_private_bits": self.coin_bits * self.n,
            "max_private_bits": self.coin_bits if self.n else 0,
            "public_bits": 0,
        }[attr]
        return np.full(len(self), per_trial, dtype=np.int64)

    def trial_results(self) -> list[TrialResult]:
        n, width = self.n, self.message_size
        per_processor = self.decisions.ndim == 2
        inputs = self.inputs
        return [
            TrialResult(
                trial_index=self.start + offset,
                outputs=list(value) if per_processor else [value] * n,
                transcript_key=key,
                cost=CostReport(
                    n_processors=n,
                    rounds=rounds,
                    turns=turns,
                    broadcast_bits=turns * width,
                    message_size=width,
                    private_bits_per_processor=[self.coin_bits] * n,
                    public_bits=0,
                ),
                inputs=None if inputs is None else inputs[offset],
            )
            for offset, (value, key, rounds, turns) in enumerate(
                zip(
                    self.decisions.tolist(),
                    self.key_tuples(),
                    self.rounds.tolist(),
                    self.turns.tolist(),
                )
            )
        ]


class BatchResult:
    """Aggregated outcome of ``Engine.run_batch``.

    Executor batches are built from their per-trial :class:`TrialResult`
    records (``BatchResult(trials=[...])``).  The vectorized fast path
    stores per-chunk columns instead and builds each ``TrialResult`` the
    first time trials are read — ``trials``, iteration, indexing,
    ``outputs``, ``outputs_of`` and ``costs`` — keeping it from then on.
    ``len``, :meth:`decisions`, ``transcript_keys``, :meth:`key_counts`,
    the cost arrays and :meth:`cost_totals` read columns only; an executor
    batch derives those columns from its records.  Two batches are equal
    when their trials are.
    """

    def __init__(self, trials: list[TrialResult] | None = None) -> None:
        self._trials: list[TrialResult] | None = [] if trials is None else trials
        self._chunks: list[_Columns] = []
        #: Lazily-built cost arrays: the same read-only object on every read.
        self._cost_cache: dict[str, np.ndarray] = {}

    @classmethod
    def _from_columns(cls, chunks: list[_Columns]) -> "BatchResult":
        batch = cls()
        batch._trials = None
        batch._chunks = chunks
        return batch

    @property
    def trials(self) -> list[TrialResult]:
        if self._trials is None:
            self._trials = [t for c in self._chunks for t in c.trial_results()]
        return self._trials

    def __len__(self) -> int:
        if self._chunks:
            return sum(len(c) for c in self._chunks)
        return len(self.trials)

    def __iter__(self) -> Iterator[TrialResult]:
        return iter(self.trials)

    def __getitem__(self, index: int) -> TrialResult:
        return self.trials[index]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BatchResult):
            return NotImplemented
        return self.trials == other.trials

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"BatchResult(trials={self.trials!r})"

    # -- per-trial views ------------------------------------------------
    @property
    def outputs(self) -> list[list[Any]]:
        """``outputs[t][i]`` is processor ``i``'s output in trial ``t``."""
        return [t.outputs for t in self.trials]

    @property
    def transcript_keys(self) -> list[tuple[int, ...]]:
        if self._chunks:
            return [key for c in self._chunks for key in c.key_tuples()]
        return [t.transcript_key for t in self.trials]

    @property
    def costs(self) -> list[CostReport]:
        return [t.cost for t in self.trials]

    def outputs_of(self, proc_id: int) -> list[Any]:
        """Processor ``proc_id``'s output in every trial."""
        return [t.outputs[proc_id] for t in self.trials]

    def decisions(self, proc_id: int = 0) -> np.ndarray:
        """Processor ``proc_id``'s outputs coerced to a 0/1 uint8 vector."""
        if self._chunks:
            return np.concatenate([c.decisions_of(proc_id) for c in self._chunks])
        return np.fromiter(
            (int(bool(t.outputs[proc_id])) for t in self.trials),
            dtype=np.uint8,
            count=len(self.trials),
        )

    def key_counts(self) -> dict[tuple[int, ...], int]:
        """Histogram of transcript keys across trials."""
        counts: dict[tuple[int, ...], int] = {}
        for key in self.transcript_keys:
            counts[key] = counts.get(key, 0) + 1
        return counts

    # -- vectorized cost statistics -------------------------------------
    def _cost_array(self, attr: str) -> np.ndarray:
        cached = self._cost_cache.get(attr)
        if cached is None:
            if self._chunks:
                cached = np.concatenate(
                    [c.cost_column(attr) for c in self._chunks], dtype=np.int64
                )
            else:
                cached = np.fromiter(
                    (getattr(t.cost, attr) for t in self.trials),
                    dtype=np.int64,
                    count=len(self.trials),
                )
            # Handing the same object to every caller means a mutation
            # would poison all later reads — freeze it.
            cached.setflags(write=False)
            self._cost_cache[attr] = cached
        return cached

    @property
    def rounds(self) -> np.ndarray:
        return self._cost_array("rounds")

    @property
    def turns(self) -> np.ndarray:
        return self._cost_array("turns")

    @property
    def broadcast_bits(self) -> np.ndarray:
        return self._cost_array("broadcast_bits")

    @property
    def total_private_bits(self) -> np.ndarray:
        return self._cost_array("total_private_bits")

    @property
    def max_private_bits(self) -> np.ndarray:
        return self._cost_array("max_private_bits")

    @property
    def public_bits(self) -> np.ndarray:
        return self._cost_array("public_bits")

    def cost_totals(self) -> dict[str, int]:
        """Summed resource usage over the whole batch."""
        return {
            "rounds": int(self.rounds.sum()),
            "turns": int(self.turns.sum()),
            "broadcast_bits": int(self.broadcast_bits.sum()),
            "total_private_bits": int(self.total_private_bits.sum()),
            "public_bits": int(self.public_bits.sum()),
        }

    def cost_summary(self) -> str:
        if not len(self):
            return "empty batch"
        totals = self.cost_totals()
        return (
            f"{len(self)} trials, "
            f"{totals['broadcast_bits']} bits on the wire, "
            f"mean {self.rounds.mean():.2f} rounds/trial, "
            f"{totals['total_private_bits']} private + "
            f"{totals['public_bits']} public random bits"
        )


# ----------------------------------------------------------------------
# Trial runner (module level so process pools can pickle it)
# ----------------------------------------------------------------------
def _normalize_batch_keys(
    raw: "np.ndarray | list[tuple[int, ...]]", count: int
) -> np.ndarray | list[tuple[int, ...]]:
    """Validate the keys ``batch_decisions`` returned against the trial count.

    The rectangular ``(trials, turns)`` integer array of fixed-round
    protocols is kept as is (``BatchResult`` turns its rows into tuples
    only when keys are read).  The ragged list / object array of
    dynamically-terminating protocols becomes plain-int tuples matching
    ``Transcript.key()``.
    """
    if isinstance(raw, np.ndarray) and raw.dtype != object:
        if raw.ndim != 2 or raw.shape[0] != count:
            raise ValueError(
                f"batch_decisions keys must have shape ({count}, turns), "
                f"got {raw.shape}"
            )
        return raw
    keys = list(raw)
    if len(keys) != count:
        raise ValueError(
            f"batch_decisions must return one key per trial ({count}), "
            f"got {len(keys)}"
        )
    return [tuple(np.asarray(key).tolist()) for key in keys]


def _run_trial(
    spec: RunSpec,
    protocol: Protocol,
    rng: np.random.Generator,
    fixed_inputs: np.ndarray | None,
) -> "tuple[np.ndarray, ExecutionResult]":
    """One trial of ``spec``: its inputs and its execution.

    The one trial body behind :meth:`Engine.run` and every batch trial.
    It draws from ``rng`` in one order — the input sample (a spec without
    a distribution runs on ``fixed_inputs``), then a public-coin factory's
    source, then the processor seeds inside ``make_contexts`` — the order
    the vectorized path replays.
    """
    if spec.distribution is not None:
        inputs = spec.distribution.sample(rng)
    else:
        inputs = fixed_inputs
    public = spec.public_coins
    if public is not None and not isinstance(public, CoinSource):
        public = public(rng)
    return inputs, _execute(
        protocol,
        inputs,
        _resolve_scheduler(spec.scheduler),
        rng,
        spec.rounds,
        spec.private_bit_budget,
        public,
    )


class _TrialRunner:
    """Callable shipping a spec to workers: ``(index, SeedSequence) → TrialResult``.

    A fixed input matrix travels inside ``spec`` like every other
    ``RunSpec`` field: pickled into each pool chunk, and uploaded once
    per fleet worker with the runner itself (``register_fn``).
    """

    def __init__(self, spec: RunSpec):
        self.spec = spec

    def __call__(self, task: tuple[int, np.random.SeedSequence]) -> TrialResult:
        index, seed_seq = task
        spec = self.spec
        inputs, result = _run_trial(
            spec, spec.fresh_protocol(), np.random.default_rng(seed_seq), spec.inputs
        )
        return TrialResult(
            trial_index=index,
            outputs=result.outputs,
            transcript_key=result.transcript.key(),
            cost=result.cost,
            inputs=inputs if spec.record_inputs else None,
            transcript=result.transcript if spec.record_transcripts else None,
        )


# ----------------------------------------------------------------------
# Executors
# ----------------------------------------------------------------------
class Executor:
    """Maps a function over items, preserving order.

    The engine builds batches on top of :meth:`map`; other subsystems
    (parameter sweeps, the Newman compiler) reuse the same primitive for
    their own trial shapes.
    """

    name: str = "executor"

    def map(self, fn: Callable[[Any], Any], items: Iterable[Any]) -> list[Any]:
        raise NotImplementedError

    # -- shared fallback machinery --------------------------------------
    # Every out-of-process backend needs the same two pieces; they live
    # here so the backends cannot drift apart.

    @staticmethod
    def _pickle_probe(fn: Callable[[Any], Any], items: list[Any]) -> Exception | None:
        """The exception that makes ``(fn, items[0])`` unshippable, if any."""
        try:
            pickle.dumps((fn, items[0]))
            return None
        except Exception as exc:  # noqa: BLE001 - reported to the caller
            return exc

    def _unpicklable_fallback(
        self,
        fn: Callable[[Any], Any],
        items: list[Any],
        exc: Exception,
        action: str = "running serially",
        reason: str = "not picklable",
    ) -> list[Any]:
        """Run in-process with a warning naming the backend and cause.

        ``reason`` names the shippability contract that failed — pickle
        for the process-pool backends, the schema'd wire vocabulary
        (``"not wire-encodable"``) for the distributed one.
        """
        warnings.warn(
            f"{type(self).__name__} task is {reason} "
            f"({type(exc).__name__}: {exc}); {action}",
            RuntimeWarning,
            stacklevel=3,
        )
        return [fn(item) for item in items]


class SerialExecutor(Executor):
    """Run every item in the calling process, in order."""

    name = "serial"

    def map(self, fn: Callable[[Any], Any], items: Iterable[Any]) -> list[Any]:
        return [fn(item) for item in items]


def resolve_executor(executor: Executor | str | None) -> Executor:
    """Coerce ``None`` / ``"serial"`` / an instance to an Executor.

    Process backends own worker processes, so they are never built from
    a name: hold a :class:`repro.exec.WorkerPool` in a ``with`` block and
    pass the pool itself.
    """
    if executor is None or executor == "serial":
        return SerialExecutor()
    if isinstance(executor, Executor):
        return executor
    raise ValueError(
        f"unknown executor {executor!r}: pass 'serial' or an Executor "
        "instance, e.g. `with WorkerPool() as pool: Engine(pool)`"
    )


# ----------------------------------------------------------------------
# Engine
# ----------------------------------------------------------------------
def _validate_batch_args(spec: RunSpec, trials: int) -> None:
    """Batch preconditions, shared by ``run_batch`` and ``submit_batch``."""
    if trials < 0:
        raise ValueError("trial count must be non-negative")
    if isinstance(spec.public_coins, CoinSource):
        raise ValueError(
            "run_batch needs per-trial public coins: pass a factory "
            "(e.g. the PublicCoins class), not a CoinSource instance"
        )


#: Registry series behind :attr:`Engine.batch_fallbacks`.
FALLBACKS_METRIC = "engine_batch_fallbacks_total"


class Engine:
    """Executes :class:`RunSpec` objects on a pluggable backend.

    Parameters
    ----------
    executor:
        Backend trials run on (``None`` / ``"serial"`` / an
        :class:`Executor` instance, e.g. a warm
        :class:`repro.exec.WorkerPool`).
    max_inflight:
        Submission threads backing :meth:`submit_batch` — the number of
        batches that can be *dispatching* concurrently (each in-flight
        batch occupies one thread until its trials finish).  Defaults to
        ``max(4, cpu_count)``.  Queued batches beyond this start in
        submission order, which is what makes ``BatchFuture.cancel()``
        effective on not-yet-started work.
    registry:
        :class:`~repro.obs.metrics.MetricsRegistry` the engine's
        counters live in (a private one by default).  Pass the same
        registry to the engine and its executor to export one unified
        metrics artifact for a run.
    tracer:
        :class:`~repro.obs.trace.Tracer` for span-based timing of
        :meth:`run_batch` / :meth:`submit_batch`.  Defaults to the
        zero-overhead :data:`~repro.obs.trace.NULL_TRACER`.
    """

    def __init__(
        self,
        executor: Executor | str | None = None,
        max_inflight: int | None = None,
        registry: MetricsRegistry | None = None,
        tracer: "Tracer | NullTracer" = NULL_TRACER,
    ):
        if max_inflight is not None and max_inflight < 1:
            raise ValueError("max_inflight must be >= 1")
        self.executor = resolve_executor(executor)
        self.max_inflight = max_inflight or max(4, os.cpu_count() or 1)
        self.registry = registry if registry is not None else MetricsRegistry()
        self.tracer = tracer
        self._submitter: _ThreadPoolExecutor | None = None
        self._submitter_lock = threading.Lock()

    @property
    def batch_fallbacks(self) -> dict[str, int]:
        """Vectorized→scalar downgrades, by reason code.

        Served from the unified registry
        (``engine_batch_fallbacks_total{reason}``); the all-reasons total
        is ``registry.total(FALLBACKS_METRIC)``.
        """
        return {
            series.labels["reason"]: series.snapshot_value()
            for series in self.registry.series(FALLBACKS_METRIC)
            if series.snapshot_value()
        }

    # -- asynchronous batches -------------------------------------------
    def submit_batch(self, spec: RunSpec, trials: int) -> "BatchFuture":
        """Schedule ``run_batch(spec, trials)``; return a future immediately.

        The batch runs on one of the engine's submission threads (created
        lazily, up to ``max_inflight``); the returned
        :class:`repro.exec.BatchFuture` resolves to the same
        :class:`BatchResult` — bit-identical — that a blocking
        :meth:`run_batch` call would produce, because per-trial seeds are
        a pure function of the spec, never of scheduling.  Futures for
        batches that have not started yet can still be cancelled.
        """
        from ..exec.futures import BatchFuture

        # Validate eagerly so mistakes surface at the call site, not
        # later inside a submission thread.
        _validate_batch_args(spec, trials)
        with self.tracer.span("submit_batch", track="engine", trials=trials):
            with self._submitter_lock:
                if self._submitter is None:
                    self._submitter = _ThreadPoolExecutor(
                        max_workers=self.max_inflight,
                        thread_name_prefix="repro-engine-submit",
                    )
                inner = self._submitter.submit(self.run_batch, spec, trials)
        return BatchFuture(inner, spec=spec, trials=trials)

    def close(self, cancel_pending: bool = False) -> None:
        """Wait for in-flight batches and release the submission threads.

        ``cancel_pending=True`` additionally cancels batches that were
        submitted but have not started.  Idempotent; the engine can keep
        executing blocking :meth:`run` / :meth:`run_batch` calls after
        closing, and a later :meth:`submit_batch` re-opens the submitter.
        """
        with self._submitter_lock:
            submitter, self._submitter = self._submitter, None
        if submitter is not None:
            submitter.shutdown(wait=True, cancel_futures=cancel_pending)

    def __enter__(self) -> "Engine":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def run(
        self, spec: RunSpec, rng: np.random.Generator | None = None
    ) -> "ExecutionResult":
        """One full-fidelity execution in the calling process.

        Unlike batch trials, the spec's protocol instance is used as-is
        (no copy) and a :class:`CoinSource` given as ``public_coins`` is
        honoured directly — this is what makes :func:`run_protocol` an
        exact wrapper.  ``rng`` overrides the spec's seed when given.
        """
        if rng is None:
            rng = np.random.default_rng(spec.seed_sequence())
        protocol = (
            spec.protocol
            if isinstance(spec.protocol, Protocol)
            else spec.fresh_protocol()
        )
        return _run_trial(spec, protocol, rng, spec.inputs)[1]

    def run_batch(self, spec: RunSpec, trials: int) -> BatchResult:
        """Execute ``trials`` independent trials of ``spec``.

        Trial ``t`` is driven entirely by child ``t`` of the spec's master
        :class:`~numpy.random.SeedSequence`, so the result is bit-identical
        across executor backends — and across the ``vectorized`` fast path,
        which evaluates all trials with one batched-kernel call when the
        protocol supports it.
        """
        _validate_batch_args(spec, trials)
        with self.tracer.span(
            "run_batch", track="engine", trials=trials, vectorized=spec.vectorized
        ):
            if spec.vectorized:
                batch = self._run_batch_vectorized(spec, trials)
                if batch is not None:
                    return batch
            seeds = spec.seed_sequence().spawn(trials)
            results = self.executor.map(_TrialRunner(spec), list(enumerate(seeds)))
            return BatchResult(trials=results)

    #: Trials evaluated per batched-kernel call on the vectorized fast
    #: path: bounds the (chunk, n, m) input stack (plus its packed copy
    #: inside ``batch_decisions``) without giving up the batching win.
    VECTORIZED_CHUNK_TRIALS = 4096

    def _note_batch_fallback(self, code: str, reason: str) -> None:
        """Record (per reason ``code``) and announce one downgrade."""
        from .errors import BatchFallbackWarning

        # Registry counters are individually locked, so concurrent
        # submit_batch threads never lose increments.
        self.registry.counter(FALLBACKS_METRIC, reason=code).inc()
        warnings.warn(
            f"RunSpec(vectorized=True) fell back to scalar simulation "
            f"[{code}]: {reason}",
            BatchFallbackWarning,
            stacklevel=4,
        )

    def _run_batch_vectorized(self, spec: RunSpec, trials: int) -> BatchResult | None:
        """The batched-kernel fast path; ``None`` means "use the scalar path".

        Inputs are drawn from the same spawned seed children as the scalar
        path (bit-identical): each chunk is seeded in one
        :class:`~repro.core.randomness.TrialStreams` pass (which advances
        a ``SeedSequence`` seed's counter as ``spawn`` would) and goes to
        the distribution's ``sample_each`` in one call; a coin protocol
        then draws its coin seeds from the chunk's ``generators()``, which
        stand where the input draw left each trial's stream.  The input
        stack goes to one ``batch_decisions`` call, which returns
        decisions and transcript keys together.  A fixed input matrix
        under an input-deterministic protocol is evaluated once and its row
        broadcast to every trial.  Results stay columns, one
        :class:`_Columns` per chunk, and costs follow from each trial's
        realized turns — exact for batchable protocols, where every
        processor speaks once per round and draws ``batch_coin_bits``
        private bits.  Every decline is announced with a
        :class:`~repro.core.errors.BatchFallbackWarning` and counted on
        :attr:`batch_fallbacks`.
        """
        protocol = spec.fresh_protocol()
        if type(protocol).batch_decisions is Protocol.batch_decisions:
            self._note_batch_fallback(
                "no_batch_support",
                f"{type(protocol).__name__} does not override batch_decisions",
            )
            return None
        if (
            spec.record_transcripts
            or spec.rounds is not None
            or spec.private_bit_budget is not None
            or spec.public_coins is not None
        ):
            self._note_batch_fallback(
                "full_fidelity",
                "the spec needs full-fidelity simulation (transcript "
                "recording, a rounds override, coin budgets, or public "
                "coins)",
            )
            return None
        if trials == 0:
            return BatchResult()

        coin_bits = protocol.batch_coin_bits

        def evaluate(
            inputs: np.ndarray, coin_seeds: np.ndarray | None
        ) -> tuple[np.ndarray, np.ndarray | list[tuple[int, ...]]]:
            count, n = inputs.shape[0], inputs.shape[1]
            if coin_bits:
                result = protocol.batch_decisions(inputs, coin_seeds=coin_seeds)
            else:
                result = protocol.batch_decisions(inputs)
            # An array would unpack into its rows when it has exactly two.
            if not isinstance(result, tuple) or len(result) != 2:
                raise TypeError(
                    f"{type(protocol).__name__}.batch_decisions must return "
                    f"a (decisions, keys) tuple, got {type(result).__name__}"
                )
            decisions = np.asarray(result[0])
            if decisions.shape not in ((count,), (count, n)):
                raise ValueError(
                    f"batch_decisions decisions must have shape ({count},) "
                    f"or ({count}, {n}), got {decisions.shape}"
                )
            return decisions, _normalize_batch_keys(result[1], count)

        def columns(
            start: int,
            inputs: np.ndarray,
            decisions: np.ndarray,
            keys: np.ndarray | list[tuple[int, ...]],
        ) -> _Columns:
            count, n = inputs.shape[0], inputs.shape[1]
            if isinstance(keys, np.ndarray):
                turns = np.full(count, keys.shape[1], dtype=np.int64)
            else:
                turns = np.fromiter(map(len, keys), dtype=np.int64, count=count)
            if n:
                bad = np.flatnonzero(turns % n)
                if bad.size:
                    raise ValueError(
                        f"batch_decisions key {start + int(bad[0])} has "
                        f"{int(turns[bad[0]])} turns, not a multiple of "
                        f"n={n}: every processor speaks once per round"
                    )
                rounds = turns // n
            else:
                rounds = np.full(count, protocol.num_rounds(0), dtype=np.int64)
            return _Columns(
                start=start,
                decisions=decisions,
                keys=keys,
                turns=turns,
                rounds=rounds,
                n=n,
                message_size=protocol.message_size,
                coin_bits=coin_bits,
                inputs=inputs if spec.record_inputs else None,
            )

        if spec.distribution is None and not coin_bits:
            # Input-deterministic protocol + fixed inputs: one evaluation
            # covers every trial.
            decisions, keys = evaluate(spec.inputs[None], None)
            decisions = np.broadcast_to(decisions, (trials,) + decisions.shape[1:])
            if isinstance(keys, np.ndarray):
                keys = np.broadcast_to(keys, (trials, keys.shape[1]))
            else:
                keys = keys * trials
            inputs = np.broadcast_to(spec.inputs, (trials,) + spec.inputs.shape)
            return BatchResult._from_columns([columns(0, inputs, decisions, keys)])

        root = spec.seed_sequence()
        chunks = []
        for start in range(0, trials, self.VECTORIZED_CHUNK_TRIALS):
            # The chunk's seed children, seeded in one pass; this also
            # advances a SeedSequence seed's counter as spawn(trials) does.
            count = min(self.VECTORIZED_CHUNK_TRIALS, trials - start)
            streams = TrialStreams(root, count)
            if spec.distribution is None:
                # Coin protocol on fixed inputs: trials differ only in
                # their private coins; share one read-only input view.
                inputs = np.broadcast_to(spec.inputs, (count,) + spec.inputs.shape)
            else:
                inputs = spec.distribution.sample_each(streams)
            coin_seeds = None
            if coin_bits:
                # Exactly the per-processor seed draw make_contexts
                # performs on the scalar path, from the same generator
                # after the input draw (the order _run_trial uses), so
                # batched coin protocols replay the same private coins.
                coin_seeds = np.stack(
                    [
                        rng.integers(0, 2**63, size=inputs.shape[1], dtype=np.int64)
                        for rng in streams.generators()
                    ]
                )
            chunks.append(columns(start, inputs, *evaluate(inputs, coin_seeds)))
        return BatchResult._from_columns(chunks)


# ----------------------------------------------------------------------
# The execution core
# ----------------------------------------------------------------------
def _execute(
    protocol: Protocol,
    inputs: np.ndarray,
    scheduler: Scheduler,
    rng: np.random.Generator | None,
    rounds: int | None,
    private_bit_budget: int | None,
    public_coins: CoinSource | None,
) -> "ExecutionResult":
    """Run one protocol execution; the single place simulation happens."""
    from .errors import MessageSizeError
    from .simulator import ExecutionResult, make_contexts

    contexts, transcript = make_contexts(
        inputs, rng=rng, private_bit_budget=private_bit_budget,
        public_coins=public_coins,
    )
    n = len(contexts)
    n_rounds = protocol.num_rounds(n) if rounds is None else rounds
    width = protocol.message_size
    if width < 1:
        raise MessageSizeError(f"message size must be >= 1, got {width}")
    max_payload = 1 << width

    for proc in contexts:
        protocol.setup(proc)

    broadcast = protocol.broadcast
    receive = protocol.receive
    # Read Protocol.receive now, not at import: a tracer that wraps the
    # base no-op in place still compares equal here.
    notify = getattr(receive, "__func__", None) is not Protocol.receive

    rounds_run = 0
    for round_index in range(n_rounds):
        if rounds is None and protocol.finished(n, transcript, round_index):
            break
        senders = list(scheduler.speaking_order(n, round_index))
        if scheduler.sees_current_round:
            # Sequential turns: push each broadcast immediately so later
            # speakers in the same round condition on it.
            for proc_id in senders:
                message = _checked_message(
                    broadcast(contexts[proc_id], round_index),
                    max_payload, proc_id, round_index,
                )
                transcript._push(round_index, (proc_id,), (message,), width)
        else:
            # Synchronous round: compute all messages against the frozen
            # transcript of previous rounds, width-check the round once,
            # then publish it in one push.
            payloads = [
                int(broadcast(contexts[proc_id], round_index)) for proc_id in senders
            ]
            if payloads and (min(payloads) < 0 or max(payloads) >= max_payload):
                for proc_id, message in zip(senders, payloads):
                    _checked_message(message, max_payload, proc_id, round_index)
            transcript._push(round_index, senders, payloads, width)
        if notify:
            # Every processor's receive() gets this one sender → payload map.
            round_messages = transcript.round_messages(round_index)
            for proc in contexts:
                receive(proc, round_index, round_messages)
        rounds_run = round_index + 1

    outputs = [protocol.output(proc) for proc in contexts]
    for proc, value in zip(contexts, outputs):
        proc.output = value

    cost = CostReport(
        n_processors=n,
        rounds=rounds_run,
        turns=len(transcript),
        broadcast_bits=transcript.total_bits,
        message_size=width,
        private_bits_per_processor=[proc.coins.bits_used for proc in contexts],
        public_bits=public_coins.bits_used if public_coins is not None else 0,
    )
    return ExecutionResult(
        outputs=outputs, transcript=transcript, cost=cost, contexts=contexts
    )


def _checked_message(
    message: Any, max_payload: int, proc_id: int, round_index: int
) -> int:
    message = int(message)
    if not 0 <= message < max_payload:
        from .errors import MessageSizeError

        raise MessageSizeError(
            f"processor {proc_id} broadcast payload {message} in round "
            f"{round_index}, exceeding the BCAST width ({max_payload - 1} max)"
        )
    return message
