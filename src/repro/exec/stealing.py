"""Work-stealing chunk scheduling and the one dispatch loop over lanes.

Both :class:`~repro.exec.pool.WorkerPool` and
:class:`~repro.exec.distributed.DistributedExecutor` face the same
problem: a batch is split into contiguous chunks, the chunks must be
spread over ``k`` lanes (one per pool worker process, one per remote
worker connection), and the lanes are not equally fast — a loaded host, a
5×-slower machine in a heterogeneous fleet, or plain OS jitter.  A
*static* assignment (deal chunks round-robin up front, each lane runs
only its own share) finishes when the **slowest** lane finishes its
share; the fast lanes idle.

:class:`ChunkScheduler` implements the classic fix: every lane owns a
local deque of chunks (dealt round-robin at construction, preserving
the static plan's locality), pops from its **head** while work remains,
and — once its own deque is empty — **steals from the tail** of the
richest victim.  A lane therefore never idles while any lane still has
queued work, and the batch finishes when the *work* runs out, not when
the unluckiest lane does.  The same rule rescues a dead lane's chunks:
survivors steal them, with no separate redistribution step.

:func:`dispatch` is the one loop both executors run over the scheduler:
a feeder thread per ready :class:`Lane`, results written back by
offset, and a chunk whose lane raised :class:`LaneLost` requeued for
the others.  The executors differ only in their lanes — which failures
a lane turns into :class:`LaneLost`, and whether a lost lane comes back.

Order never matters for correctness: every chunk carries its ``start``
offset, so results are written back into their original positions, and
engine trials are seeded per-spec (``SeedSequence.spawn``), so *which*
lane runs a chunk changes nothing about its output.

>>> sched = ChunkScheduler(list(range(10)), chunksize=2, lanes=2)
>>> chunk = sched.next_chunk(lane=0)
>>> chunk.start, chunk.items
(0, [0, 1])
>>> sched.mark_done(chunk)
>>> sched.pending      # 4 chunks still queued or running
4
"""

from __future__ import annotations

import math
import threading
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Protocol, Sequence

from ..obs.metrics import MetricsRegistry
from ..obs.trace import NULL_TRACER, NullTracer, Tracer

__all__ = ["Chunk", "ChunkScheduler", "Lane", "LaneLost", "dispatch"]


@dataclass
class Chunk:
    """A contiguous slice of a batch: ``items`` starting at ``start``.

    ``start`` is the slice's offset in the original item list, so a
    result list can be filled in place no matter which lane (or which
    retry) ultimately ran the chunk.
    """

    start: int
    items: list = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.items)


class ChunkScheduler:
    """Deal chunks to per-lane deques; idle lanes steal from the richest.

    Parameters
    ----------
    items:
        The batch, in order.  Split into ``ceil(len(items)/chunksize)``
        contiguous :class:`Chunk` objects.
    chunksize:
        Items per chunk (the work-stealing *grain*: smaller chunks
        rebalance better but pay more per-chunk overhead).
    lanes:
        Number of consumers.  Chunks are dealt round-robin over lanes at
        construction; a lane whose own deque is empty steals a chunk
        from the *tail* of the lane with the most queued chunks.
    tracer:
        Optional :class:`~repro.obs.trace.Tracer`; steals and requeues
        are marked as instant events on the acting lane's track.  The
        default :data:`~repro.obs.trace.NULL_TRACER` costs nothing —
        the hot ``next_chunk`` path checks one attribute.

    Thread-safety: all methods take an internal lock; lanes are expected
    to call :meth:`next_chunk` / :meth:`mark_done` / :meth:`requeue`
    concurrently from their own threads.
    """

    def __init__(
        self,
        items: Sequence[Any],
        chunksize: int,
        lanes: int,
        tracer: "Tracer | NullTracer" = NULL_TRACER,
    ):
        if chunksize < 1:
            raise ValueError("chunksize must be >= 1")
        if lanes < 1:
            raise ValueError("lanes must be >= 1")
        items = list(items)
        self.lanes = lanes
        self.tracer = tracer
        chunks = [
            Chunk(start, items[start : start + chunksize])
            for start in range(0, len(items), chunksize)
        ]
        self._local: list[deque[Chunk]] = [deque() for _ in range(lanes)]
        for index, chunk in enumerate(chunks):
            self._local[index % lanes].append(chunk)
        self._lock = threading.Lock()
        self._outstanding = len(chunks)  # queued + running
        #: Telemetry: how many chunks each lane acquired by stealing.
        self.steals: list[int] = [0] * lanes
        #: Telemetry: how many chunks each lane returned unfinished
        #: (lane failure / chunk deadline) via :meth:`requeue`.
        self.requeues: list[int] = [0] * lanes

    # -- consumption ----------------------------------------------------
    def next_chunk(self, lane: int) -> Chunk | None:
        """The next chunk for ``lane``; ``None`` when it should stop.

        Pops the lane's own deque first (head: preserves the dealt
        order); when that is empty, steals from the tail of the victim
        with the most queued chunks.  ``None`` means every queue is
        empty (though chunks may still be in flight on other lanes, and
        a failed lane may yet :meth:`requeue` one).
        """
        with self._lock:
            own = self._local[lane]
            if own:
                return own.popleft()
            victim = max(range(self.lanes), key=lambda i: len(self._local[i]))
            if not self._local[victim]:
                return None
            self.steals[lane] += 1
            stolen = self._local[victim].pop()
        # Instant recorded outside the scheduler lock — the tracer has
        # its own; holding both invites lock-order trouble for nothing.
        if self.tracer.enabled:
            self.tracer.instant(
                "steal",
                track=f"lane-{lane}",
                victim=victim,
                start=stolen.start,
            )
        return stolen

    def mark_done(self, chunk: Chunk) -> None:
        """Record that ``chunk`` completed (its results are written)."""
        with self._lock:
            self._outstanding -= 1

    def requeue(self, chunk: Chunk, lane: int) -> None:
        """Return a chunk whose fate is unknown (its lane failed).

        The chunk goes back to the *head* of the failing lane's deque,
        where any other lane will steal it; :func:`dispatch` runs another
        round for a requeue that lands after every lane has exited.
        """
        with self._lock:
            self.requeues[lane] += 1
            self._local[lane].appendleft(chunk)
        if self.tracer.enabled:
            self.tracer.instant(
                "requeue", track=f"lane-{lane}", start=chunk.start
            )

    # -- accounting -----------------------------------------------------
    @property
    def pending(self) -> int:
        """Chunks not yet completed (queued on any lane or in flight)."""
        with self._lock:
            return self._outstanding

    def drain(self) -> list[Chunk]:
        """Remove and return every queued chunk, in offset order.

        In-flight chunks are untouched; the caller owns what it drained.
        """
        with self._lock:
            drained: list[Chunk] = []
            for queue in self._local:
                drained.extend(queue)
                queue.clear()
            drained.sort(key=lambda chunk: chunk.start)
            return drained


class LaneLost(ConnectionError):
    """The lane failed, not the task: its chunk goes back to the queue.

    A lane's :meth:`Lane.run` raises it when the lane itself broke (a
    dropped connection, a chunk deadline, a malformed reply).  Tasks are
    pure, so :func:`dispatch` requeues the chunk for another lane.  Any
    other exception from ``run`` is the task's own and ends the map.
    """


class Lane(Protocol):
    """What :func:`dispatch` needs from one consumer of chunks."""

    def ready(self) -> bool:
        """Whether the lane takes chunks this round (it may reconnect)."""

    def run(self, chunk: Chunk, span: Any) -> list[Any]:
        """``chunk``'s results in order; :class:`LaneLost` if the lane failed."""


def dispatch(
    items: Sequence[Any],
    lanes: Sequence[Lane],
    chunksize: "int | None" = None,
    tracer: "Tracer | NullTracer" = NULL_TRACER,
    registry: "MetricsRegistry | None" = None,
) -> tuple[list[Any], list[Chunk]]:
    """Run ``items`` over ``lanes`` in chunks; return ``(results, leftovers)``.

    ``chunksize`` defaults to ``ceil(len(items) / (4 * len(lanes)))``:
    four chunks per lane leave a straggler's deque chunks worth stealing,
    while a finer 8-per-lane grain measured 0.89x the throughput on a
    skewed loopback fleet, since every chunk pays a round trip.  Each
    round starts one feeder per ready lane, which runs chunks (each in a
    ``chunk`` span on its ``lane-N`` track) until the queues are empty,
    its lane is lost, or a task failed; rounds repeat while chunks remain
    and some lane is ready.  A task error stops every lane and is
    re-raised.  Otherwise ``results`` is in item order, with ``None``
    for the ``leftovers``: the chunks no lane could run, in offset order.
    Steals and requeues are added to ``registry``.
    """
    items = list(items)
    chunksize = chunksize or max(1, math.ceil(len(items) / (4 * len(lanes))))
    scheduler = ChunkScheduler(items, chunksize, len(lanes), tracer=tracer)
    results: list[Any] = [None] * len(items)
    errors: list[BaseException] = []

    def feed(index: int, lane: Lane) -> None:
        track = f"lane-{index}"
        while not errors:
            chunk = scheduler.next_chunk(index)
            if chunk is None:
                return
            try:
                with tracer.span(
                    "chunk", track=track, start=chunk.start, items=len(chunk)
                ) as span:
                    payload = lane.run(chunk, span)
            except LaneLost:
                scheduler.requeue(chunk, index)
                return
            except BaseException as exc:  # noqa: BLE001 - re-raised below
                errors.append(exc)
                return
            results[chunk.start : chunk.start + len(chunk)] = payload
            scheduler.mark_done(chunk)

    # No feeder is in flight between rounds, so every queued chunk is
    # claimable by any ready lane: a round either completes a chunk or
    # loses a lane, and lanes bound how often they come back.
    while scheduler.pending and not errors:
        ready = [(index, lane) for index, lane in enumerate(lanes) if lane.ready()]
        if not ready:
            break
        threads = [
            threading.Thread(target=feed, args=pair, daemon=True) for pair in ready
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    if registry is not None:
        for name, counts in (
            ("exec_steals_total", scheduler.steals),
            ("exec_requeues_total", scheduler.requeues),
        ):
            if sum(counts):
                registry.counter(name).inc(sum(counts))
    if errors:
        raise errors[0]
    return results, scheduler.drain()
