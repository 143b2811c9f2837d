"""Worker liveness, failure telemetry, and retry policy for the fleet.

The failure model of :mod:`repro.exec.distributed` (see
``docs/robustness.md``) needs three pieces of machinery that are
independent of sockets and therefore live here, testable in isolation:

* :class:`WorkerHealth` / :class:`HealthBoard` — the per-worker liveness
  state machine ``healthy → suspect → dead``, driven by heartbeat probes
  and per-chunk transport failures.  A *hung* worker (one that accepts
  connections but never answers — a wedged process, a silent partition)
  is flagged within the configured suspect window instead of being
  discovered only when its socket finally dies;
* :class:`ErrorTelemetry` — thread-safe per-worker error counters.  The
  executor records every swallowed-but-handled failure (connect refusal,
  transport error, chunk timeout, heartbeat miss, close failure) here,
  so "how broken is my fleet" is a counter read, never a log grep — and
  nothing is silently discarded;
* :class:`RetryPolicy` — bounded exponential backoff whose jitter is
  **deterministic**, derived from a seed via the sanctioned
  :func:`~repro.core.randomness.expand_seed` helper.  Retry timing is
  therefore replayable and can never perturb results (which are seeded
  per-trial and independent of scheduling anyway — the policy keeps the
  *schedule* itself reproducible under a pinned fault plan).

:class:`FleetDegradedWarning` is the loud face of graceful degradation,
mirroring :class:`~repro.core.errors.BatchFallbackWarning`: whenever a
distributed or pooled backend falls back to local serial execution, it
warns with this type and bumps a counter — results stay bit-identical to
:class:`~repro.core.engine.SerialExecutor`, only the parallelism is
lost, and monitors can alert on the counter.

>>> board = HealthBoard(suspect_after=1, dead_after=3)
>>> board.record_miss(("10.0.0.5", 9123), reason="heartbeat")
'suspect'
>>> board.record_miss(("10.0.0.5", 9123), reason="heartbeat")
'suspect'
>>> board.record_miss(("10.0.0.5", 9123), reason="heartbeat")
'dead'
>>> board.record_ok(("10.0.0.5", 9123))  # a dead worker may come back
'healthy'
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Hashable

import numpy as np

from ..core.randomness import expand_seed
from ..obs.metrics import MetricsRegistry
from ..obs.recorder import FlightRecorder

__all__ = [
    "HEALTHY",
    "SUSPECT",
    "DEAD",
    "FleetDegradedWarning",
    "WorkerTimeoutError",
    "WorkerHealth",
    "HealthBoard",
    "ERRORS_METRIC",
    "ErrorTelemetry",
    "RetryPolicy",
]

#: Liveness states, in degradation order.
HEALTHY = "healthy"
SUSPECT = "suspect"
DEAD = "dead"


class FleetDegradedWarning(RuntimeWarning):
    """A fleet backend degraded to local serial execution — loudly.

    Emitted (with the reason in the message) exactly when
    :class:`~repro.exec.distributed.DistributedExecutor` runs leftover
    chunks locally because no worker is reachable, or when
    :class:`~repro.exec.pool.WorkerPool` gives up on a twice-broken
    process pool and runs the batch in-process.  Results are still
    bit-identical to :class:`~repro.core.engine.SerialExecutor` — only
    the parallelism is lost.  Python's default warning filters display
    repeated warnings from one call site only once, so monitors should
    read the paired registry counters (``exec_degraded_maps_total``,
    ``pool_degraded_batches_total``), which count every degradation
    exactly.
    """


class WorkerTimeoutError(ConnectionError):
    """A worker exceeded ``task_timeout`` answering one chunk.

    Raised by the executor's link layer when the per-chunk deadline
    expires; the chunk is requeued to a surviving lane like any other
    transport failure, and the miss lands in the executor's telemetry
    under the ``"timeout"`` category.
    """


@dataclass
class WorkerHealth:
    """One worker's liveness record: state, miss streak, transitions.

    The state machine is deliberately tiny: consecutive misses promote
    ``healthy → suspect`` after ``suspect_after`` misses and
    ``suspect → dead`` after ``dead_after``; any success resets to
    ``healthy`` (a worker that answers is alive, whatever its history).
    ``transitions`` records every state change as ``(old, new, reason)``
    so a postmortem can see *why* a worker was declared dead.
    """

    state: str = HEALTHY
    misses: int = 0
    probes: int = 0
    transitions: list[tuple[str, str, str]] = field(default_factory=list)

    def _move(self, new_state: str, reason: str) -> None:
        if new_state != self.state:
            self.transitions.append((self.state, new_state, reason))
            self.state = new_state

    def record_ok(self) -> str:
        """A successful probe or chunk: reset to healthy."""
        self.probes += 1
        self.misses = 0
        self._move(HEALTHY, "responded")
        return self.state

    def record_miss(self, suspect_after: int, dead_after: int, reason: str) -> str:
        """A missed probe / failed chunk; returns the (new) state."""
        self.probes += 1
        self.misses += 1
        if self.misses >= dead_after:
            self._move(DEAD, reason)
        elif self.misses >= suspect_after:
            self._move(SUSPECT, reason)
        return self.state


class HealthBoard:
    """Thread-safe collection of :class:`WorkerHealth` records.

    Parameters
    ----------
    suspect_after:
        Consecutive misses before a healthy worker becomes *suspect*
        (the suspect window: with a heartbeat every ``interval`` seconds
        a hung worker is flagged within
        ``suspect_after * interval + probe timeout``).
    dead_after:
        Consecutive misses before a suspect worker is declared *dead* —
        at which point the executor stops routing chunks to it and
        forcibly unblocks any feeder still waiting on its socket.
    recorder:
        Optional :class:`~repro.obs.recorder.FlightRecorder`; every
        state transition is recorded there as a ``health`` event, so a
        chaos-failure dump shows the liveness timeline alongside the
        fault plan.
    """

    def __init__(
        self,
        suspect_after: int = 1,
        dead_after: int = 3,
        recorder: "FlightRecorder | None" = None,
    ):
        if suspect_after < 1:
            raise ValueError("suspect_after must be >= 1")
        if dead_after < suspect_after:
            raise ValueError("dead_after must be >= suspect_after")
        self.suspect_after = suspect_after
        self.dead_after = dead_after
        self.recorder = recorder
        self._lock = threading.Lock()
        self._workers: dict[Hashable, WorkerHealth] = {}

    def _entry(self, worker: Hashable) -> WorkerHealth:
        # Caller holds the lock.
        entry = self._workers.get(worker)
        if entry is None:
            entry = self._workers[worker] = WorkerHealth()
        return entry

    def _transition(self, worker: Hashable, entry: WorkerHealth, before: str) -> str:
        # Caller holds the lock; records the transition outside it is
        # unnecessary — FlightRecorder has its own lock and never calls
        # back into the board.
        if self.recorder is not None and entry.state != before:
            old, new, reason = entry.transitions[-1]
            self.recorder.record(
                "health", worker=str(worker), old=old, new=new, reason=reason
            )
        return entry.state

    def record_ok(self, worker: Hashable) -> str:
        with self._lock:
            entry = self._entry(worker)
            before = entry.state
            entry.record_ok()
            return self._transition(worker, entry, before)

    def record_miss(self, worker: Hashable, reason: str = "miss") -> str:
        with self._lock:
            entry = self._entry(worker)
            before = entry.state
            entry.record_miss(self.suspect_after, self.dead_after, reason)
            return self._transition(worker, entry, before)

    def state(self, worker: Hashable) -> str:
        """The worker's current state (unknown workers are healthy)."""
        with self._lock:
            entry = self._workers.get(worker)
            return entry.state if entry is not None else HEALTHY

    def is_dead(self, worker: Hashable) -> bool:
        return self.state(worker) == DEAD

    def snapshot(self) -> dict[Hashable, WorkerHealth]:
        """A point-in-time copy of every record (safe to inspect)."""
        with self._lock:
            return {
                worker: WorkerHealth(
                    state=entry.state,
                    misses=entry.misses,
                    probes=entry.probes,
                    transitions=list(entry.transitions),
                )
                for worker, entry in self._workers.items()
            }

    def transition_history(self) -> list[dict[str, str]]:
        """Every recorded state change, JSON-friendly and export-ready.

        Workers are sorted (by their string form) and each change is
        ``{"worker", "old", "new", "reason"}`` in occurrence order per
        worker — the same shape the flight recorder captures live.
        """
        with self._lock:
            items = [
                (str(worker), list(entry.transitions))
                for worker, entry in self._workers.items()
            ]
        history: list[dict[str, str]] = []
        for worker, transitions in sorted(items):
            history.extend(
                {"worker": worker, "old": old, "new": new, "reason": reason}
                for old, new, reason in transitions
            )
        return history


#: The registry series every :class:`ErrorTelemetry` records under;
#: ``python -m repro.obs.report`` builds its failure table from it.
ERRORS_METRIC = "exec_errors_total"


class ErrorTelemetry:
    """Per-worker, per-category error counters — the anti-silent-pass.

    Every failure the executor *handles* (rather than raises) must be
    recorded here, keyed by worker address and a short category string:
    ``"connect"`` (dial/handshake transport failures), ``"auth"``
    (a frame or handshake failed MAC verification — tampering, a replay,
    or a secret mismatch), ``"version"`` (the worker announced another
    wire protocol version), ``"corrupt"`` (a frame passed its MAC but
    violated the schema — a peer-side encoder bug, not an attacker),
    ``"transport"`` (torn frames, resets, timeouts at the socket layer),
    ``"timeout"``, ``"heartbeat"``, ``"ping"``, ``"close"``,
    ``"protocol"``.  Lint rule ``EXC03`` forbids the
    reason-less ``except: pass`` alternative in :mod:`repro.exec`.

    The counts live in a :class:`~repro.obs.metrics.MetricsRegistry` —
    a private one by default, or a shared one passed as ``registry`` so
    the fleet's failures export alongside every other metric — as the
    ``exec_errors_total{worker, category}`` counter family.  Worker
    addresses are any hashable (typically ``(host, port)`` tuples);
    this class keeps the label ↔ original-key mapping so
    :meth:`counts` still returns the exact keys callers recorded.
    """

    def __init__(self, registry: "MetricsRegistry | None" = None) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self._lock = threading.Lock()
        #: worker label → the exact hashable key the caller used.
        self._keys: dict[str, Hashable] = {}

    @staticmethod
    def worker_label(worker: Hashable) -> str:
        """The registry label for a worker key (``host:port`` for pairs)."""
        if (
            isinstance(worker, tuple)
            and len(worker) == 2
            and isinstance(worker[0], str)
        ):
            return f"{worker[0]}:{worker[1]}"
        return str(worker)

    def record(self, worker: Hashable, category: str, n: int = 1) -> None:
        label = self.worker_label(worker)
        with self._lock:
            self._keys.setdefault(label, worker)
        self.registry.counter(ERRORS_METRIC, worker=label, category=category).inc(n)

    def counts(self) -> dict[Hashable, dict[str, int]]:
        """A copy of every counter: ``worker → {category → count}``."""
        with self._lock:
            keys = dict(self._keys)
        out: dict[Hashable, dict[str, int]] = {}
        for series in self.registry.series(ERRORS_METRIC):
            labels = series.labels
            worker = keys.get(labels["worker"])
            if worker is None:
                # A series this instance never recorded (shared registry,
                # or a restored dump): surface it under the label string.
                worker = labels["worker"]
            out.setdefault(worker, {})[labels["category"]] = series.snapshot_value()
        return out

    def total(self, category: "str | None" = None) -> int:
        """Total recorded errors, optionally restricted to one category."""
        if category is None:
            return int(self.registry.total(ERRORS_METRIC))
        return int(self.registry.total(ERRORS_METRIC, category=category))


class RetryPolicy:
    """Bounded exponential backoff with deterministic, seed-derived jitter.

    ``delay(attempt, lane)`` grows as ``base * 2**attempt`` (capped at
    ``cap``) and is scaled by a jitter factor in ``[0.5, 1.0]`` drawn
    from ``expand_seed(SeedSequence(seed, spawn_key=(lane, attempt)))`` —
    a pure function of ``(seed, lane, attempt)``, so two runs of the
    same fault schedule retry at the same instants.  Jitter still does
    its usual job: different lanes (and different seeds) de-synchronise,
    so a fleet-wide blip does not produce a reconnection stampede.

    :meth:`wait` is the one place a retry sleeps.  It sleeps through
    ``sleep`` (``time.sleep`` by default), which a test replaces with a
    recorder, the way :class:`~repro.obs.trace.Tracer` takes its clock.

    >>> policy = RetryPolicy(seed=7, base=0.05, cap=1.0)
    >>> policy.delay(0, lane=0) == RetryPolicy(seed=7).delay(0, lane=0)
    True
    >>> 0.025 <= policy.delay(0, lane=0) <= 0.05
    True
    >>> policy.delay(5, lane=0) <= 1.0
    True
    >>> slept = []
    >>> RetryPolicy(seed=7, sleep=slept.append).wait(0, lane=0)
    >>> slept == [policy.delay(0, lane=0)]
    True
    """

    def __init__(
        self,
        seed: int = 0,
        base: float = 0.05,
        cap: float = 1.0,
        sleep: Callable[[float], None] = time.sleep,
    ):
        if base <= 0:
            raise ValueError("backoff base must be positive")
        if cap < base:
            raise ValueError("backoff cap must be >= base")
        self.seed = seed
        self.base = base
        self.cap = cap
        self.sleep = sleep

    def delay(self, attempt: int, lane: int = 0) -> float:
        """Seconds to wait before retry number ``attempt`` (0-based)."""
        if attempt < 0:
            raise ValueError("attempt must be >= 0")
        exponential = min(self.cap, self.base * (2.0**attempt))
        rng = expand_seed(np.random.SeedSequence(self.seed, spawn_key=(lane, attempt)))
        jitter = 0.5 + 0.5 * float(rng.uniform())
        return exponential * jitter

    def wait(self, attempt: int, lane: int = 0) -> None:
        """Sleep :meth:`delay` seconds before retry number ``attempt``."""
        self.sleep(self.delay(attempt, lane))
