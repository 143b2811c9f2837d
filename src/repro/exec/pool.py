"""``WorkerPool`` — the in-machine process backend, warm across batches.

Starting worker processes for every ``map`` call pays the full process
start-up cost (fork, interpreter state, first-touch imports) on *every*
call — sweeps and estimators that issue many small batches would spend
more time creating pools than running trials.  :class:`WorkerPool` keeps
one set of worker processes alive across successive ``run_batch`` /
``submit_batch`` calls instead, amortizing start-up to zero after the
first batch (the pooling-over-per-task-provisioning argument: provision
the expensive resource once, share it across many small jobs).  Hold it
in a ``with`` block so the workers are released deterministically.

Work reaches a worker one way: each worker process owns one duplex
``multiprocessing`` pipe, and each chunk is pickled into it together
with the task callable; an engine batch's fixed input matrix travels
inside that callable like every other ``RunSpec`` field.  The pool
caches no inputs, so a batch leaves nothing behind in the workers or on
the machine.  The pipe is the whole transport: a lane sends the chunk,
receives the reply and hands the worker back, with no executor thread,
call queue or wakeup pipe in between.

Failure semantics: an exception *raised by a task* propagates to the
caller, with the worker's traceback as its ``__cause__``, and leaves the
pool warm and reusable (trials are independent; one bad spec must not
cost the pool).  A *broken* pool (a worker died — e.g. OOM-killed — seen
as EOF on its pipe, or as an exited process when a map starts) is
discarded and rebuilt once, and the batch retried from scratch — trials
are pure, so a retry is safe; if the rebuilt pool breaks too, the batch
falls back to in-process serial execution with a warning.

``idle_timeout`` reaps the worker processes after the pool has been
unused that long (a timer thread stops them), so an idle pool pins no
processes; the next map transparently rebuilds the workers.
:meth:`close` (or the context-manager exit) does the same, permanently.

Scheduling: each map call runs through the shared
:func:`~repro.exec.stealing.dispatch` loop — one feeder thread per
worker lane, one chunk in flight per lane, idle lanes stealing queued
chunks from stragglers — so a slow worker (or an unlucky, expensive
chunk) delays the batch by at most one chunk instead of its whole
pre-assigned share.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import traceback
import warnings
from concurrent.futures.process import BrokenProcessPool
from multiprocessing import util
from multiprocessing.connection import Connection
from typing import Any, Callable, Iterable

from ..core.engine import Executor
from ..obs.metrics import MetricsRegistry
from ..obs.recorder import FlightRecorder
from ..obs.trace import NULL_TRACER, NullTracer, Tracer
from .health import FleetDegradedWarning
from .stealing import Chunk, dispatch

__all__ = ["WorkerPool"]

#: Seconds a stopped worker gets to exit before it is terminated.
_STOP_TIMEOUT_S = 5.0


def _serve(conn: Connection) -> None:
    """The loop of one pool worker process.

    Each message is a chunk ``(fn, items)``, answered with
    ``("ok", results)`` or, when the task raised, ``("err", exc,
    traceback_text)``; ``None`` or EOF ends the loop.  A reply that does
    not pickle is replaced by a ``TypeError`` reply naming the cause.

    The parent-side ends of every pool pipe that ``fork`` copied into
    this process, its own and its siblings', were closed before this
    loop started (``_Workers`` registers them with
    ``multiprocessing.util.register_after_fork``), so the parent's copy
    is the only one left: its close or death reads here as EOF.
    """
    while True:
        try:
            message = conn.recv()
        except EOFError:
            return
        if message is None:
            return
        fn, items = message
        reply: tuple[Any, ...]
        try:
            reply = ("ok", [fn(item) for item in items])
        except BaseException as exc:  # noqa: BLE001 - shipped to the parent
            reply = ("err", exc, traceback.format_exc())
        try:
            conn.send(reply)
        except OSError:
            return  # the parent is gone
        except Exception as exc:  # noqa: BLE001 - the reply does not pickle
            ok = reply[0] == "ok"
            error = TypeError(
                f"pool worker cannot pickle the task's "
                f"{'result' if ok else type(reply[1]).__name__} "
                f"({type(exc).__name__}: {exc})"
            )
            conn.send(("err", error, traceback.format_exc() if ok else reply[2]))


class _RemoteTraceback(Exception):
    """A worker's traceback text, attached as a task error's ``__cause__``."""


def _stop_workers(
    processes: list[multiprocessing.Process], conns: list[Connection]
) -> None:
    """Stop and reap one set of workers: stop message, bounded join, kill."""
    for conn in conns:
        try:
            conn.send(None)
        except OSError:  # repro-lint: disable=EXC03 that worker already exited; the join below reaps it
            pass
    for process in processes:
        process.join(_STOP_TIMEOUT_S)
        process.terminate()  # a no-op for a worker that exited
        process.join()
    for conn in conns:
        conn.close()


class _Workers:
    """One set of worker processes, each on its own duplex pipe.

    All ``count`` processes start together, from the default
    ``multiprocessing`` context.  :meth:`run` takes an idle worker
    (waiting for one if every worker is busy), sends it the chunk,
    receives the reply and hands the worker back.
    """

    def __init__(self, count: int):
        self._processes: list[multiprocessing.Process] = []
        self._conns: list[Connection] = []
        #: Stops the workers on :meth:`shutdown`, when the set is
        #: garbage-collected, and at interpreter exit before
        #: ``multiprocessing`` joins its children.
        self._stop = util.Finalize(
            self, _stop_workers, args=(self._processes, self._conns), exitpriority=0
        )
        try:
            for _ in range(count):
                ours, theirs = multiprocessing.Pipe()
                util.register_after_fork(ours, Connection.close)
                process = multiprocessing.Process(target=_serve, args=(theirs,))
                process.start()
                theirs.close()
                self._processes.append(process)
                self._conns.append(ours)
        except BaseException:
            self._stop()
            raise
        self._idle = list(self._conns)
        self._open = True
        self._broken = False
        self._cond = threading.Condition()

    def require_alive(self) -> None:
        """Raise :class:`BrokenProcessPool` if a worker has exited."""
        dead = [p.pid for p in self._processes if not p.is_alive()]
        if dead:
            raise BrokenProcessPool(f"pool worker process {dead} exited")

    def run(self, fn: Callable[[Any], Any], items: list[Any]) -> list[Any]:
        """``[fn(item) for item in items]``, computed by one idle worker."""
        with self._cond:
            while self._open and not self._idle:
                self._cond.wait()
            if not self._open:
                if self._broken:
                    raise BrokenProcessPool("the pool's workers were discarded")
                raise RuntimeError("WorkerPool is closed")
            conn = self._idle.pop()
        try:
            try:
                conn.send((fn, items))
                reply = conn.recv()
            except (EOFError, OSError) as exc:
                raise BrokenProcessPool(
                    f"a pool worker process died ({type(exc).__name__}: {exc})"
                ) from exc
        finally:
            with self._cond:
                self._idle.append(conn)
                self._cond.notify()
        if reply[0] == "ok":
            return reply[1]
        _, error, text = reply
        error.__cause__ = _RemoteTraceback(f'\n"""\n{text}"""')
        raise error

    def shutdown(self, broken: bool = False) -> None:
        """Stop and reap every worker; the set refuses chunks afterwards.

        A busy worker finishes its chunk first, unless the set is
        ``broken``: then every worker is terminated at once, so a lane
        still waiting on one reads EOF.
        """
        with self._cond:
            self._open, self._broken = False, broken
            if broken:
                for process in self._processes:
                    process.terminate()
            self._cond.notify_all()
            # No lane waits on a closed set, so each hand-back's notify()
            # reaches this wait.
            while len(self._idle) < len(self._conns):
                self._cond.wait()
        self._stop()


class _PoolLane:
    """A :func:`~repro.exec.stealing.dispatch` lane over the worker set.

    Always ready, and never loses itself: a task error and a
    :class:`BrokenProcessPool` both end the attempt, and
    :meth:`WorkerPool.map` owns the rebuild-once rule.
    """

    def __init__(self, workers: _Workers, fn: Callable[[Any], Any]):
        self.workers = workers
        self.fn = fn

    def ready(self) -> bool:
        return True

    def run(self, chunk: Chunk, span: Any) -> list[Any]:
        return self.workers.run(self.fn, chunk.items)


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

    Use as a context manager (or call :meth:`close`) to release the
    workers deterministically:

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
        registry: "MetricsRegistry | None" = None,
        tracer: "Tracer | NullTracer" = NULL_TRACER,
        recorder: "FlightRecorder | None" = None,
    ):
        if max_workers is not None and max_workers < 1:
            raise ValueError("max_workers must be >= 1")
        if idle_timeout is not None and idle_timeout <= 0:
            raise ValueError("idle_timeout must be positive")
        self.max_workers = max_workers or (os.cpu_count() or 1)
        self.chunksize = chunksize
        self.idle_timeout = idle_timeout
        self._pool: _Workers | None = None
        self._lock = threading.RLock()
        self._active_maps = 0
        self._reap_timer: threading.Timer | None = None
        #: Bumped whenever the current timer is cancelled or replaced; a
        #: fired _reap carrying a stale generation must do nothing (it
        #: lost the race to a map that used the pool in the meantime).
        self._reap_generation = 0
        self._closed = False
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

    def _ensure_pool(self) -> _Workers:
        if self._closed:
            raise RuntimeError("WorkerPool is closed")
        if self._pool is None:
            self._pool = _Workers(self.max_workers)
        return self._pool

    def _discard_pool(self, broken: bool = False) -> None:
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(broken)

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
            self._reap_timer = None

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
                            self._discard_pool(broken=True)
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
        pool: _Workers,
        fn: Callable[[Any], Any],
        items: list[Any],
    ) -> list[Any]:
        """One attempt at a batch on the current workers, one lane each.

        Each lane keeps exactly one chunk in flight on one worker, so no
        chunk ever queues inside the pool.
        """
        pool.require_alive()
        lanes = [_PoolLane(pool, fn)] * min(self.max_workers, len(items))
        results, _ = dispatch(items, lanes, self.chunksize, self.tracer, self.registry)
        return results

    # -- teardown -------------------------------------------------------
    def close(self) -> None:
        """Shut the workers down; the pool refuses work afterwards."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._cancel_reap_timer()
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown()

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
