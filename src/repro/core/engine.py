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

**Vectorized fast path.**  Protocols that declare
``supports_batch = True`` (their outputs are a deterministic function of
the input matrix alone) plus ``supports_batch_keys = True`` can skip
per-trial simulation entirely: a spec with ``vectorized=True`` samples
every trial's input with the same per-trial seeds as the scalar path — so
inputs are bit-identical — and evaluates all of them with one
``protocol.batch_decisions`` + ``protocol.batch_keys`` pass backed by the
batched GF(2) kernels of :mod:`repro.linalg.batch`, populating real
per-trial transcript keys so key-based estimators batch too.  Specs the
fast path cannot honour (transcript recording, coin budgets, protocols
without batch/key support) fall back to the scalar path with a
:class:`~repro.core.errors.BatchFallbackWarning`; ``Engine.batch_fallbacks``
counts the downgrades.

**Shared-memory inputs.**  When a batch has a fixed input matrix and runs
on a :class:`repro.exec.WorkerPool`, large inputs are published once
through ``multiprocessing.shared_memory`` instead of being pickled into
every worker task; workers attach read-only views on first use.  The
lifecycle is owned by the executor (:meth:`Executor.publish_inputs` /
:meth:`Executor.release_inputs`): the pool keeps segments (and the
workers attached to them) alive across successive batches and unlinks
them when it closes or idles out.

**Asynchronous batches.**  :meth:`Engine.submit_batch` schedules a batch
on a background submission thread and returns a
:class:`repro.exec.BatchFuture` immediately, so callers can overlap many
in-flight batches (``repro.exec.as_completed`` consumes them as they
finish).  Results are bit-identical to :meth:`Engine.run_batch` on the
same spec — seeding never depends on scheduling.
"""

from __future__ import annotations

import copy
import dataclasses
import math
import os
import pickle
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor as _ThreadPoolExecutor
from dataclasses import dataclass, field
from multiprocessing import shared_memory as _shared_memory
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator

import numpy as np

from ..obs.metrics import MetricsRegistry
from ..obs.trace import NULL_TRACER, NullTracer, Tracer
from .errors import SchedulingError
from .network import CostReport
from .protocol import Protocol
from .randomness import CoinSource
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
        ``protocol.batch_decisions`` + ``protocol.batch_keys`` pass when
        the protocol declares ``supports_batch`` and
        ``supports_batch_keys`` (and the spec needs no transcripts, round
        overrides, coin budgets or public coins).  Inputs are sampled with
        the same per-trial seeds as the scalar path; outputs, costs *and*
        per-trial ``transcript_key`` tuples are bit-identical, so
        key-based estimators can batch too.  Specs the fast path cannot
        honour fall back to scalar execution, announced with a
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


@dataclass
class BatchResult:
    """Aggregated outcome of ``Engine.run_batch``.

    Holds the per-trial :class:`TrialResult` records plus vectorized views
    over their :class:`~repro.core.network.CostReport` fields.
    """

    trials: list[TrialResult] = field(default_factory=list)
    #: Lazily-built cache of the vectorized cost views below.  Accessors
    #: like ``batch.rounds`` used to re-materialize a fresh array from a
    #: generator on every call; estimators that touch them in loops now get
    #: the same (read-only) array object back each time.
    _cost_cache: dict[str, np.ndarray] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __len__(self) -> int:
        return len(self.trials)

    def __iter__(self) -> Iterator[TrialResult]:
        return iter(self.trials)

    def __getitem__(self, index: int) -> TrialResult:
        return self.trials[index]

    # -- per-trial views ------------------------------------------------
    @property
    def outputs(self) -> list[list[Any]]:
        """``outputs[t][i]`` is processor ``i``'s output in trial ``t``."""
        return [t.outputs for t in self.trials]

    @property
    def transcript_keys(self) -> list[tuple[int, ...]]:
        return [t.transcript_key for t in self.trials]

    @property
    def costs(self) -> list[CostReport]:
        return [t.cost for t in self.trials]

    def outputs_of(self, proc_id: int) -> list[Any]:
        """Processor ``proc_id``'s output in every trial."""
        return [t.outputs[proc_id] for t in self.trials]

    def decisions(self, proc_id: int = 0) -> np.ndarray:
        """Processor ``proc_id``'s outputs coerced to a 0/1 uint8 vector."""
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
        if not self.trials:
            return "empty batch"
        totals = self.cost_totals()
        return (
            f"{len(self.trials)} trials, "
            f"{totals['broadcast_bits']} bits on the wire, "
            f"mean {self.rounds.mean():.2f} rounds/trial, "
            f"{totals['total_private_bits']} private + "
            f"{totals['public_bits']} public random bits"
        )


# ----------------------------------------------------------------------
# Shared-memory input handles
# ----------------------------------------------------------------------
#: Process-local cache of attached shared-memory blocks, keyed by segment
#: name.  Blocks stay attached for the life of the worker process; the
#: parent unlinks the segment when its pool closes or idles out, which on
#: POSIX is safe while mappings remain open.
_SHARED_ATTACHMENTS: dict[str, tuple[Any, np.ndarray]] = {}


class _SharedInput:
    """Pickle-light handle to a fixed input matrix living in shared memory."""

    __slots__ = ("name", "shape", "dtype_str")

    def __init__(self, name: str, shape: tuple[int, ...], dtype: np.dtype):
        self.name = name
        self.shape = shape
        self.dtype_str = np.dtype(dtype).str

    def attach(self) -> np.ndarray:
        """A read-only array view of the segment (cached per process)."""
        cached = _SHARED_ATTACHMENTS.get(self.name)
        if cached is None:
            # Attaching re-registers the segment with the resource tracker
            # (bpo-38119), but fork-started pool workers share the parent's
            # tracker, so the registration is an idempotent set-add and the
            # parent's unlink() at pool close removes the single entry.
            block = _shared_memory.SharedMemory(name=self.name)
            array = np.ndarray(self.shape, dtype=self.dtype_str, buffer=block.buf)
            array.flags.writeable = False
            cached = (block, array)
            _SHARED_ATTACHMENTS[self.name] = cached
        return cached[1]


#: Stand-in satisfying RunSpec validation while the real fixed inputs
#: travel through shared memory instead of the pickle stream.
_SHARED_INPUT_PLACEHOLDER = np.empty((0, 0), dtype=np.uint8)


def _content_digest(inputs: np.ndarray) -> str:
    """Content identity of a fixed input matrix: shape, dtype, and bytes.

    The key under which executors cache published inputs — two arrays
    with the same digest are interchangeable, so repeated batches over
    the same matrix (the common sweep shape) publish it exactly once per
    pool / per remote worker.
    """
    import hashlib

    return hashlib.sha256(
        repr((inputs.shape, np.dtype(inputs.dtype).str)).encode()
        + np.ascontiguousarray(inputs).tobytes()
    ).hexdigest()


class _DigestCache:
    """``id()``-keyed memo of content digests, bounded FIFO.

    Hashing a large matrix on every batch would erase much of the win of
    publishing it once; sweeps reuse the *same array object* across
    batches, so memoizing by ``id`` (with the array reference pinning the
    id against reuse) makes repeat publications O(1).  The bound keeps a
    long-lived executor sweeping over many *distinct* matrices from
    pinning every one of them forever — an evicted entry merely re-hashes
    on next use.
    """

    def __init__(self, max_entries: int = 64) -> None:
        self.max_entries = max_entries
        self._entries: dict[int, tuple[np.ndarray, str]] = {}
        # Callers publish from concurrent submission threads; the memo
        # (and especially its eviction loop) must not race itself.
        self._lock = threading.Lock()

    def digest(self, inputs: np.ndarray) -> str:
        with self._lock:
            known = self._entries.get(id(inputs))
            if known is not None and known[0] is inputs:
                return known[1]
        digest = _content_digest(inputs)  # hash outside the lock
        with self._lock:
            while len(self._entries) >= self.max_entries:
                self._entries.pop(next(iter(self._entries)))
            self._entries[id(inputs)] = (inputs, digest)
        return digest

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()


def _create_shared_segment(
    inputs: np.ndarray,
) -> tuple[_shared_memory.SharedMemory, _SharedInput]:
    """Copy ``inputs`` into a fresh shared-memory segment; return block + handle."""
    block = _shared_memory.SharedMemory(create=True, size=inputs.nbytes)
    view = np.ndarray(inputs.shape, dtype=inputs.dtype, buffer=block.buf)
    view[:] = inputs
    return block, _SharedInput(block.name, inputs.shape, inputs.dtype)


def _evict_shared_attachment(name: str) -> None:
    """Drop the calling process's cached attachment of segment ``name``.

    The parent may have attached its own view of a segment it published
    (serial fallback for unpicklable tasks); the mapping must be closed
    before the segment is unlinked so it does not outlive its pool.
    """
    cached = _SHARED_ATTACHMENTS.pop(name, None)
    if cached is not None:
        cached[0].close()


# ----------------------------------------------------------------------
# Trial runner (module level so process pools can pickle it)
# ----------------------------------------------------------------------
def _normalize_batch_keys(
    raw: "np.ndarray | list[tuple[int, ...]]", count: int
) -> list[tuple[int, ...]]:
    """Normalize a ``batch_keys`` return value to per-trial key tuples.

    Accepts the rectangular ``(trials, turns)`` integer array of
    fixed-round protocols or the ragged list / object array of
    dynamically-terminating ones; always yields plain-int tuples matching
    ``Transcript.key()``.
    """
    if isinstance(raw, np.ndarray) and raw.dtype != object:
        if raw.ndim != 2 or raw.shape[0] != count:
            raise ValueError(
                f"batch_keys must return shape ({count}, turns), "
                f"got {raw.shape}"
            )
        return [tuple(row) for row in raw.tolist()]
    keys = list(raw)
    if len(keys) != count:
        raise ValueError(
            f"batch_keys must return one key per trial ({count}), "
            f"got {len(keys)}"
        )
    return [tuple(int(v) for v in key) for key in keys]


class _TrialRunner:
    """Callable shipping a spec to workers: ``(index, SeedSequence) → TrialResult``."""

    def __init__(self, spec: RunSpec, shared_input: _SharedInput | None = None):
        self.spec = spec
        self.shared_input = shared_input

    def __getstate__(self) -> dict[str, Any]:
        spec = self.spec
        if self.shared_input is not None and spec.inputs is not None:
            spec = dataclasses.replace(spec, inputs=_SHARED_INPUT_PLACEHOLDER)
        return {"spec": spec, "shared_input": self.shared_input}

    def __setstate__(self, state: dict[str, Any]) -> None:
        self.spec = state["spec"]
        self.shared_input = state["shared_input"]

    def _fixed_inputs(self) -> np.ndarray:
        if self.shared_input is not None:
            return self.shared_input.attach()
        return self.spec.inputs

    def __call__(self, task: tuple[int, np.random.SeedSequence]) -> TrialResult:
        index, seed_seq = task
        spec = self.spec
        rng = np.random.default_rng(seed_seq)
        protocol = spec.fresh_protocol()
        recorded = None
        if spec.distribution is not None:
            inputs = spec.distribution.sample(rng)
            recorded = inputs
        else:
            inputs = self._fixed_inputs()
            # Recorded inputs must survive the batch; a shared-memory view
            # dies when the parent unlinks the segment, so copy it out.
            recorded = np.array(inputs) if self.shared_input is not None else inputs
        public = spec.public_coins
        if public is not None and not isinstance(public, CoinSource):
            public = public(rng)
        result = _execute(
            protocol,
            inputs,
            _resolve_scheduler(spec.scheduler),
            rng,
            spec.rounds,
            spec.private_bit_budget,
            public,
        )
        return TrialResult(
            trial_index=index,
            outputs=result.outputs,
            transcript_key=result.transcript.key(),
            cost=result.cost,
            inputs=recorded if spec.record_inputs else None,
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
    # Every out-of-process backend needs the same three pieces; they live
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

    @staticmethod
    def _default_chunksize(n_items: int, lanes: int) -> int:
        """~4 chunks per worker lane, amortizing IPC without starving anyone.

        Four chunks per lane leave the work-stealing scheduler enough
        queued chunks to move off a straggler; a finer 8-per-lane grain
        measured 0.89x the throughput of this one on a skewed loopback
        fleet, because every extra chunk pays a frame round trip.
        """
        return max(1, math.ceil(n_items / (4 * lanes)))

    # -- shared-memory input protocol -----------------------------------
    # Executors own the lifecycle of shared fixed-input segments because
    # only they know how long workers live: a warm pool keeps workers
    # (and their attachments) alive across batches and releases segments
    # only when it closes or idles out.

    def wants_shared_inputs(self, inputs: np.ndarray) -> bool:
        """Whether a fixed input matrix should travel via shared memory."""
        return False

    def publish_inputs(self, inputs: np.ndarray) -> _SharedInput | None:
        """Publish ``inputs`` to workers; ``None`` means "pickle per task"."""
        return None

    def release_inputs(self, handle: _SharedInput) -> None:
        """Called by the engine once the batch using ``handle`` completed."""


class SerialExecutor(Executor):
    """Run every item in the calling process, in order."""

    name = "serial"

    def map(self, fn: Callable[[Any], Any], items: Iterable[Any]) -> list[Any]:
        return [fn(item) for item in items]


def resolve_executor(executor: Executor | str | None) -> Executor:
    """Coerce ``None`` / ``"serial"`` / an instance to an Executor.

    Process backends own workers and shared segments, so they are never
    built from a name: hold a :class:`repro.exec.WorkerPool` in a
    ``with`` block and pass the pool itself.
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
        if spec.distribution is not None:
            inputs = spec.distribution.sample(rng)
        else:
            inputs = spec.inputs
        public = spec.public_coins
        if public is not None and not isinstance(public, CoinSource):
            public = public(rng)
        return _execute(
            protocol,
            inputs,
            _resolve_scheduler(spec.scheduler),
            rng,
            spec.rounds,
            spec.private_bit_budget,
            public,
        )

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
            runner = _TrialRunner(spec)
            handle = None
            if self._should_share_inputs(spec, trials):
                handle = self.executor.publish_inputs(spec.inputs)
                runner.shared_input = handle
            try:
                results = self.executor.map(runner, list(enumerate(seeds)))
            finally:
                if handle is not None:
                    self.executor.release_inputs(handle)
            return BatchResult(trials=results)

    def _should_share_inputs(self, spec: RunSpec, trials: int) -> bool:
        return (
            trials > 1
            and spec.inputs is not None
            and self.executor.wants_shared_inputs(spec.inputs)
        )

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

        Inputs are sampled per trial from the same spawned seed children as
        the scalar path (bit-identical), stacked in bounded chunks, and
        handed to the protocol's ``batch_decisions`` and ``batch_keys``; a
        fixed input matrix is evaluated once and its trial replicated.
        Costs are synthesized from the protocol's metadata — exact for
        input-deterministic protocols, which run their full round count,
        broadcast every turn and draw no coins.  Transcript keys come from
        ``batch_keys``, so key-based estimators see the same tuples the
        scalar path records.  Every decline is announced with a
        :class:`~repro.core.errors.BatchFallbackWarning` and counted on
        :attr:`batch_fallbacks`.
        """
        protocol = spec.fresh_protocol()
        if not getattr(protocol, "supports_batch", False):
            self._note_batch_fallback(
                "no_batch_support",
                f"{type(protocol).__name__} does not declare supports_batch",
            )
            return None
        if not getattr(protocol, "supports_batch_keys", False):
            self._note_batch_fallback(
                "no_batch_keys",
                f"{type(protocol).__name__} declares supports_batch but not "
                "supports_batch_keys, so transcript keys cannot be "
                "synthesized on the fast path",
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

        uses_coins = bool(getattr(protocol, "batch_uses_coins", False))
        coin_bits = int(getattr(protocol, "batch_coin_bits", 0)) if uses_coins else 0

        def coin_seeds_for(rng: np.random.Generator, n: int) -> np.ndarray:
            # Exactly the per-processor seed draw make_contexts performs on
            # the scalar path, so batched coin protocols replay the same
            # private randomness bit for bit.
            return rng.integers(0, 2**63, size=n, dtype=np.int64)

        def trial_results(
            start: int,
            inputs: np.ndarray,
            per_trial_inputs: Callable[[int], np.ndarray],
            coin_seeds: np.ndarray | None = None,
        ) -> list[TrialResult]:
            count, n = inputs.shape[0], inputs.shape[1]
            if uses_coins:
                decisions = np.asarray(
                    protocol.batch_decisions(inputs, coin_seeds=coin_seeds)
                )
                raw_keys = protocol.batch_keys(inputs, coin_seeds=coin_seeds)
            else:
                decisions = np.asarray(protocol.batch_decisions(inputs))
                raw_keys = protocol.batch_keys(inputs)
            if decisions.shape not in ((count,), (count, n)):
                raise ValueError(
                    f"batch_decisions must return shape ({count},) or "
                    f"({count}, {n}), got {decisions.shape}"
                )
            key_tuples = _normalize_batch_keys(raw_keys, count)
            width = protocol.message_size
            decision_rows = decisions.tolist()
            out = []
            for offset in range(count):
                key = key_tuples[offset]
                turns = len(key)
                if n:
                    if turns % n:
                        raise ValueError(
                            f"batch_keys row {start + offset} has {turns} "
                            f"turns, not a multiple of n={n}: every processor "
                            "speaks once per round"
                        )
                    rounds = turns // n
                else:
                    rounds = protocol.num_rounds(0)
                cost = CostReport(
                    n_processors=n,
                    rounds=rounds,
                    turns=turns,
                    broadcast_bits=turns * width,
                    message_size=width,
                    private_bits_per_processor=[coin_bits] * n,
                    public_bits=0,
                )
                value = decision_rows[offset]
                out.append(
                    TrialResult(
                        trial_index=start + offset,
                        outputs=list(value) if decisions.ndim == 2 else [value] * n,
                        transcript_key=key,
                        cost=cost,
                        inputs=per_trial_inputs(offset)
                        if spec.record_inputs
                        else None,
                    )
                )
            return out

        if spec.distribution is None and not uses_coins:
            # Input-deterministic protocol + fixed inputs: one evaluation
            # covers every trial.
            single = trial_results(0, spec.inputs[None], lambda _: spec.inputs)
            template = single[0]
            results = [
                dataclasses.replace(template, trial_index=index)
                for index in range(trials)
            ]
            return BatchResult(trials=results)

        seeds = spec.seed_sequence().spawn(trials)
        results = []
        for start in range(0, trials, self.VECTORIZED_CHUNK_TRIALS):
            chunk = seeds[start : start + self.VECTORIZED_CHUNK_TRIALS]
            chunk_coin_seeds = None
            if spec.distribution is None:
                # Coin protocol on fixed inputs: trials differ only in
                # their private coins; share one read-only input view.
                rows = [spec.inputs] * len(chunk)
                inputs = np.broadcast_to(
                    spec.inputs[None], (len(chunk),) + spec.inputs.shape
                )
            else:
                rows = []
                per_trial_coin_seeds = []
                for seed in chunk:
                    rng = np.random.default_rng(seed)
                    # Order matters and mirrors _TrialRunner: the input is
                    # sampled first, then make_contexts draws coin seeds
                    # from the same generator.
                    row = spec.distribution.sample(rng)
                    rows.append(row)
                    if uses_coins:
                        per_trial_coin_seeds.append(
                            coin_seeds_for(rng, row.shape[0])
                        )
                inputs = np.stack(rows)
                if uses_coins:
                    chunk_coin_seeds = np.stack(per_trial_coin_seeds)
            if uses_coins and chunk_coin_seeds is None:
                chunk_coin_seeds = np.stack(
                    [
                        coin_seeds_for(
                            np.random.default_rng(seed), spec.inputs.shape[0]
                        )
                        for seed in chunk
                    ]
                )
            results.extend(
                trial_results(
                    start,
                    inputs,
                    lambda offset: rows[offset],
                    coin_seeds=chunk_coin_seeds,
                )
            )
        return BatchResult(trials=results)


# ----------------------------------------------------------------------
# The execution core (moved verbatim from the original run_protocol)
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
    from .transcript import BroadcastEvent

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

    turn = 0
    rounds_run = 0
    for round_index in range(n_rounds):
        if rounds is None and protocol.finished(n, transcript, round_index):
            break
        if scheduler.sees_current_round:
            # Sequential turns: append each event immediately so later
            # speakers in the same round condition on it.
            for proc_id in scheduler.speaking_order(n, round_index):
                message = _checked_message(
                    protocol.broadcast(contexts[proc_id], round_index),
                    max_payload, proc_id, round_index,
                )
                transcript.append(
                    BroadcastEvent(turn, round_index, proc_id, message, width)
                )
                turn += 1
        else:
            # Synchronous round: compute all messages against the frozen
            # transcript of previous rounds, then publish together.
            pending: list[tuple[int, int]] = []
            for proc_id in scheduler.speaking_order(n, round_index):
                message = _checked_message(
                    protocol.broadcast(contexts[proc_id], round_index),
                    max_payload, proc_id, round_index,
                )
                pending.append((proc_id, message))
            for proc_id, message in pending:
                transcript.append(
                    BroadcastEvent(turn, round_index, proc_id, message, width)
                )
                turn += 1
        round_messages = {
            e.sender: e.message for e in transcript.messages_in_round(round_index)
        }
        for proc in contexts:
            protocol.receive(proc, round_index, round_messages)
        rounds_run = round_index + 1

    outputs = [protocol.output(proc) for proc in contexts]
    for proc, value in zip(contexts, outputs):
        proc.output = value

    cost = CostReport(
        n_processors=n,
        rounds=rounds_run,
        turns=turn,
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
