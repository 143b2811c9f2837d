"""repro.exec — asynchronous job scheduling over the execution engine.

PR 1's engine made the N-trial batch a first-class object; this package
makes *many in-flight batches* first-class.  Five layers, each speaking
the same :class:`~repro.core.engine.Executor` contract so they compose
with every estimator, sweep, and benchmark that already takes
``executor=``:

* :mod:`repro.exec.futures` — :class:`BatchFuture` /
  :func:`as_completed` over ``Engine.submit_batch``, so callers overlap
  batches instead of blocking on each;
* :mod:`repro.exec.stealing` — :class:`ChunkScheduler`, the shared
  work-stealing chunk scheduler: per-lane deques with
  steal-from-the-richest rebalancing, used by both executors below so a
  slow worker delays a batch by at most one chunk, not its whole dealt
  share;
* :mod:`repro.exec.pool` — :class:`WorkerPool`, a warm process pool
  reused across batches, with idle-timeout reaping; tasks are pickled
  into its workers;
* :mod:`repro.exec.distributed` — :class:`DistributedExecutor` /
  :class:`LoopbackWorker` and the :mod:`repro.exec.worker` serve loop:
  the ``Executor.map`` contract over sockets, with each task callable
  registered once per worker under its content digest (an engine trial
  runner carries its fixed input matrix, so the matrix ships **once per
  worker**, not once per chunk), bit-identical to serial execution
  thanks to per-trial ``SeedSequence.spawn`` seeding;
* :mod:`repro.exec.wire` — the schema'd, authenticated frame codec
  (``8-byte big-endian length || schema payload || HMAC-SHA256``): a
  closed vocabulary of versioned frames (callables travel as registered
  names keyed by content digest — code never travels; pickle is banned
  tree-wide by lint rule ``EXC01``), a mutual challenge–response
  handshake deriving a per-session key from a shared secret
  (``REPRO_WIRE_SECRET``), per-frame MACs over strict sequence numbers
  (tamper- and replay-evident frames), and optional TLS.  Typed frame
  errors (:class:`WireProtocolError` /
  :class:`TruncatedFrameError` / :class:`CorruptFrameError` /
  :class:`~repro.exec.wire.AuthenticationError`) mean damaged or forged
  frames can never surface as a silent partial decode;
* :mod:`repro.exec.health` — the failure model's machinery:
  :class:`HealthBoard` (per-worker ``healthy → suspect → dead``
  liveness), :class:`ErrorTelemetry` (per-worker failure counters),
  :class:`RetryPolicy` (bounded backoff with deterministic seed-derived
  jitter), and the loud degradation types
  (:class:`FleetDegradedWarning`, :class:`WorkerTimeoutError`);
* :mod:`repro.exec.faults` — deterministic, replayable fault injection:
  :class:`FaultPlan` (a pure function of a seed, JSON round-trip for
  replay) and :class:`FaultInjector` (crashes, refusals, torn/corrupt
  frames, slow links, lost uploads, hangs), wired into the worker
  serve loop and ``python -m repro.exec.worker --fault-plan``;
* :mod:`repro.exec.sweep` — :class:`SweepDriver`, resumable (JSONL
  checkpoint journal) adaptive (confidence-interval-targeted) grid
  sweeps over asynchronous batches, with priority-queued scheduling,
  cooperative preemption of adaptive top-up batches, and bounded
  seed-identical retry of batches lost to fleet outages.

See ``docs/architecture.md`` for the engine contract this builds on,
``docs/scaling.md`` for the scheduling, wire-protocol, and journal
internals, and ``docs/robustness.md`` for the failure model and the
fault-injection harness.
"""

from .distributed import DistributedExecutor, LoopbackWorker
from .faults import (
    FAULT_KINDS,
    FaultEvent,
    FaultInjector,
    FaultPlan,
)
from .futures import BatchFuture, as_completed
from .health import (
    DEAD,
    HEALTHY,
    SUSPECT,
    ErrorTelemetry,
    FleetDegradedWarning,
    HealthBoard,
    RetryPolicy,
    WorkerHealth,
    WorkerTimeoutError,
)
from .pool import WorkerPool
from .stealing import Chunk, ChunkScheduler
from .sweep import (
    SweepDriver,
    append_journal,
    default_trial_values,
    load_journal,
    params_key,
)
from .wire import (
    MAX_FRAME_BYTES,
    AuthenticationError,
    CorruptFrameError,
    FrameAuthenticationError,
    TruncatedFrameError,
    UnencodableError,
    WireProtocolError,
    WireSession,
    recv_frame,
    register_wire_function,
    register_wire_type,
    send_frame,
)

__all__ = [
    "BatchFuture",
    "as_completed",
    "Chunk",
    "ChunkScheduler",
    "WorkerPool",
    "DistributedExecutor",
    "LoopbackWorker",
    "MAX_FRAME_BYTES",
    "send_frame",
    "recv_frame",
    "WireProtocolError",
    "TruncatedFrameError",
    "CorruptFrameError",
    "AuthenticationError",
    "FrameAuthenticationError",
    "UnencodableError",
    "WireSession",
    "register_wire_function",
    "register_wire_type",
    "FAULT_KINDS",
    "FaultEvent",
    "FaultPlan",
    "FaultInjector",
    "HEALTHY",
    "SUSPECT",
    "DEAD",
    "WorkerHealth",
    "HealthBoard",
    "ErrorTelemetry",
    "RetryPolicy",
    "FleetDegradedWarning",
    "WorkerTimeoutError",
    "SweepDriver",
    "append_journal",
    "default_trial_values",
    "load_journal",
    "params_key",
]
