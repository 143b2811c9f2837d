"""``WorkerPool`` — the in-machine process backend, warm across batches.

A fresh ``ProcessPoolExecutor`` per ``map`` call pays the full process
start-up cost (fork, interpreter state, first-touch imports) on *every*
call — sweeps and estimators that issue many small batches would spend
more time creating pools than running trials.  :class:`WorkerPool` keeps
one pool alive across successive ``run_batch`` / ``submit_batch`` calls
instead, amortizing start-up to zero after the first batch (the
pooling-over-per-task-provisioning argument: provision the expensive
resource once, share it across many small jobs).  Hold it in a ``with``
block so the workers and segments are released deterministically.

Warm state the pool preserves across batches:

* **worker processes** — created once, reused by every subsequent map;
* **shared-memory input segments** — fixed input matrices published via
  :meth:`publish_inputs` stay mapped for the life of the pool (keyed by
  content digest, so repeated batches over the same matrix publish it
  exactly once) and workers keep their attachments cached.

Failure semantics: an exception *raised by a task* propagates to the
caller and leaves the pool warm and reusable (trials are independent; one
bad spec must not cost the pool).  A *broken* pool (a worker died — e.g.
OOM-killed) is discarded and rebuilt once, and the batch retried from
scratch — trials are pure, so a retry is safe; if the rebuilt pool breaks
too, the batch falls back to in-process serial execution with a warning.

``idle_timeout`` reaps the worker processes after the pool has been
unused that long (a timer thread calls ``shutdown`` on the inner pool)
and unlinks the published shared-memory segments along with them, so an
idle pool pins no resources; the next map transparently rebuilds the
workers and republishes whatever inputs it needs.  :meth:`close` (or the
context-manager exit) does the same, permanently.

Scheduling: each map call runs through the shared
:func:`~repro.exec.stealing.dispatch` loop — one feeder thread per
worker lane, one chunk in flight per lane, idle lanes stealing queued
chunks from stragglers — so a slow worker (or an unlucky, expensive
chunk) delays the batch by at most one chunk instead of its whole
pre-assigned share.
"""

from __future__ import annotations

import os
import threading
import warnings
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from multiprocessing import shared_memory as _shared_memory
from typing import Any, Callable, Iterable

import numpy as np

from ..core.engine import (
    Executor,
    _content_digest,
    _SharedInput,
    _create_shared_segment,
    _evict_shared_attachment,
)
from ..obs.metrics import MetricsRegistry
from ..obs.recorder import FlightRecorder
from ..obs.trace import NULL_TRACER, NullTracer, Tracer
from .health import FleetDegradedWarning
from .stealing import Chunk, dispatch

__all__ = ["WorkerPool"]


def _run_chunk(fn: Callable[[Any], Any], items: list[Any]) -> list[Any]:
    """One scheduler chunk, executed inside a pool worker process."""
    return [fn(item) for item in items]


class _PoolLane:
    """A :func:`~repro.exec.stealing.dispatch` lane over the process pool.

    Always ready, and never loses itself: a task error and a
    :class:`BrokenProcessPool` both end the attempt, and
    :meth:`WorkerPool.map` owns the rebuild-once rule.
    """

    def __init__(self, pool: ProcessPoolExecutor, fn: Callable[[Any], Any]):
        self.pool = pool
        self.fn = fn

    def ready(self) -> bool:
        return True

    def run(self, chunk: Chunk, span: Any) -> list[Any]:
        return self.pool.submit(_run_chunk, self.fn, chunk.items).result()


class WorkerPool(Executor):
    """A warm, reusable process-pool executor.

    Parameters
    ----------
    max_workers:
        Worker processes; defaults to ``os.cpu_count()``.
    chunksize:
        Items per task shipped to a worker; defaults to
        ``ceil(len(items) / (4 * max_workers))`` per map call.
    idle_timeout:
        Seconds of disuse after which worker processes are reaped (the
        next map call rebuilds them).  ``None`` keeps workers forever.
    share_inputs_min_bytes:
        Fixed input matrices at least this large are published once into
        ``multiprocessing.shared_memory`` and kept mapped until the pool
        idles out (``idle_timeout``) or closes.

    Use as a context manager (or call :meth:`close`) to release workers
    and shared segments deterministically:

    >>> import numpy as np
    >>> from repro.core import Engine, RunSpec
    >>> from repro.exec import WorkerPool
    >>> from repro.protocols import GlobalParityProtocol
    >>> spec = RunSpec(
    ...     protocol=GlobalParityProtocol(),
    ...     inputs=np.eye(3, dtype=np.uint8),
    ...     seed=0,
    ... )
    >>> with WorkerPool(max_workers=2) as pool:
    ...     engine = Engine(pool)
    ...     first = engine.run_batch(spec, 8)    # builds the workers
    ...     second = engine.run_batch(spec, 8)   # reuses them, warm
    >>> first.outputs == second.outputs          # parity of eye(3) is 1
    True
    >>> int(first.decisions(0).sum())
    8
    """

    name = "pool"

    def __init__(
        self,
        max_workers: int | None = None,
        chunksize: int | None = None,
        idle_timeout: float | None = None,
        share_inputs_min_bytes: int = 1 << 16,
        registry: "MetricsRegistry | None" = None,
        tracer: "Tracer | NullTracer" = NULL_TRACER,
        recorder: "FlightRecorder | None" = None,
    ):
        if max_workers is not None and max_workers < 1:
            raise ValueError("max_workers must be >= 1")
        if idle_timeout is not None and idle_timeout <= 0:
            raise ValueError("idle_timeout must be positive")
        if share_inputs_min_bytes < 1:
            raise ValueError("share_inputs_min_bytes must be >= 1")
        self.max_workers = max_workers or (os.cpu_count() or 1)
        self.chunksize = chunksize
        self.idle_timeout = idle_timeout
        self.share_inputs_min_bytes = share_inputs_min_bytes
        self._pool: ProcessPoolExecutor | None = None
        self._lock = threading.RLock()
        self._active_maps = 0
        self._reap_timer: threading.Timer | None = None
        #: Bumped whenever the current timer is cancelled or replaced; a
        #: fired _reap carrying a stale generation must do nothing (it
        #: lost the race to a map that used the pool in the meantime).
        self._reap_generation = 0
        self._closed = False
        #: digest -> (segment block, handle), alive until close/idle-reap
        self._segments: dict[str, tuple[_shared_memory.SharedMemory, _SharedInput]] = {}
        #: Unified metrics/trace/flight-recorder hooks (private instances
        #: unless shared ones are passed in).  ``pool_broken_total``
        #: counts pools discarded because a worker died, and
        #: ``pool_degraded_batches_total`` batches that ran serially.
        self.registry = registry if registry is not None else MetricsRegistry()
        self.tracer = tracer
        self.recorder = recorder if recorder is not None else FlightRecorder()

    # -- pool lifecycle -------------------------------------------------
    @property
    def warm(self) -> bool:
        """True while worker processes are alive and reusable."""
        return self._pool is not None

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._closed:
            raise RuntimeError("WorkerPool is closed")
        if self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=self.max_workers)
        return self._pool

    def _discard_pool(self) -> None:
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)

    def _cancel_reap_timer(self) -> None:
        self._reap_generation += 1  # invalidate a fired-but-not-yet-run reap
        if self._reap_timer is not None:
            self._reap_timer.cancel()
            self._reap_timer = None

    def _schedule_reap(self) -> None:
        if self.idle_timeout is None or self._pool is None:
            return
        self._cancel_reap_timer()
        generation = self._reap_generation
        timer = threading.Timer(self.idle_timeout, self._reap, args=(generation,))
        timer.daemon = True
        self._reap_timer = timer
        timer.start()

    def _reap(self, generation: int) -> None:
        with self._lock:
            # Stale timer (a map used the pool since this was armed), or
            # a map started after it fired: either way, keep the pool.
            if generation != self._reap_generation or self._active_maps:
                return
            self._discard_pool()
            # The workers holding the attachments are gone; free the
            # segments too so an idle pool pins no shared memory (the
            # next batch simply republishes what it needs).
            segments = self._take_segments()
            self._reap_timer = None
        self._release_segments(segments)

    def _take_segments(
        self,
    ) -> dict[str, tuple[_shared_memory.SharedMemory, _SharedInput]]:
        segments, self._segments = self._segments, {}
        return segments

    @staticmethod
    def _release_segments(
        segments: dict[str, tuple[_shared_memory.SharedMemory, _SharedInput]],
    ) -> None:
        for block, handle in segments.values():
            _evict_shared_attachment(handle.name)
            block.close()
            block.unlink()

    # -- Executor contract ----------------------------------------------
    def map(self, fn: Callable[[Any], Any], items: Iterable[Any]) -> list[Any]:
        """Run ``fn`` over ``items`` on the warm workers, in order."""
        items = list(items)
        if not items:
            return []
        probe_exc = self._pickle_probe(fn, items)
        if probe_exc is not None:
            return self._unpicklable_fallback(fn, items, probe_exc)
        with self._lock:
            self._cancel_reap_timer()
            pool = self._ensure_pool()
            self._active_maps += 1
        last_exc: Exception = RuntimeError("process pool broke")
        try:
            for attempt in (0, 1):
                try:
                    return self._map_once(pool, fn, items)
                except BrokenProcessPool as exc:
                    # A worker died mid-batch.  Trials are pure, so retry
                    # the whole batch once on a rebuilt pool, then give up
                    # on parallelism rather than on the batch.
                    last_exc = exc
                    self.registry.counter("pool_broken_total").inc()
                    self.recorder.record(
                        "pool_broken", attempt=attempt, error=str(exc)
                    )
                    with self._lock:
                        if self._pool is pool:
                            self._discard_pool()
                        if attempt == 0:
                            pool = self._ensure_pool()
            self.registry.counter("pool_degraded_batches_total").inc()
            self.recorder.record(
                "pool_degraded", items=len(items), error=str(last_exc)
            )
            warnings.warn(
                f"WorkerPool running batch serially "
                f"({type(last_exc).__name__}: {last_exc})",
                FleetDegradedWarning,
                stacklevel=2,
            )
            with self.tracer.span("serial_fallback", track="pool", items=len(items)):
                return [fn(item) for item in items]
        finally:
            with self._lock:
                self._active_maps -= 1
                if self._active_maps == 0:
                    self._schedule_reap()

    def _map_once(
        self,
        pool: ProcessPoolExecutor,
        fn: Callable[[Any], Any],
        items: list[Any],
    ) -> list[Any]:
        """One attempt at a batch on the current pool, one lane per worker.

        Each lane keeps exactly one chunk in flight, so the pool's task
        queue never holds more than ``lanes`` chunks.
        """
        lanes = [_PoolLane(pool, fn)] * min(self.max_workers, len(items))
        results, _ = dispatch(items, lanes, self.chunksize, self.tracer, self.registry)
        return results

    # -- shared-memory input protocol -----------------------------------
    def publish_inputs(self, inputs: np.ndarray) -> _SharedInput | None:
        """Publish once per distinct matrix; reuse the segment afterwards.

        Keyed by content digest (plus shape/dtype), so every batch over
        the same fixed inputs — the common sweep shape — shares a single
        machine-wide copy, and warm workers keep their attachment from
        one batch to the next.  The digest is taken on every call, so a
        buffer refilled in place gets a fresh segment.  A one-worker
        pool, or a matrix under ``share_inputs_min_bytes``, returns
        ``None``: the matrix then rides inside every task.
        """
        if self.max_workers == 1 or inputs.nbytes < self.share_inputs_min_bytes:
            return None
        digest = _content_digest(inputs)
        with self._lock:
            if self._closed:
                raise RuntimeError("WorkerPool is closed")
            cached = self._segments.get(digest)
            if cached is None:
                cached = _create_shared_segment(inputs)
                self._segments[digest] = cached
            return cached[1]

    def release_inputs(self, handle: _SharedInput) -> None:
        """Per-batch no-op: warm segments live until the pool closes."""

    # -- teardown -------------------------------------------------------
    def close(self) -> None:
        """Shut workers down and unlink every published shared segment."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._cancel_reap_timer()
            pool, self._pool = self._pool, None
            segments = self._take_segments()
        if pool is not None:
            pool.shutdown(wait=True)
        self._release_segments(segments)

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
