"""Work-stealing chunk scheduling, shared by every multi-lane executor.

Both :class:`~repro.exec.pool.WorkerPool` and
:class:`~repro.exec.distributed.DistributedExecutor` face the same
problem: a batch is split into contiguous chunks, the chunks must be
spread over ``k`` lanes (pool feeder threads, remote worker
connections), and the lanes are not equally fast — a loaded host, a
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

import threading
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Sequence

from ..obs.trace import NULL_TRACER, NullTracer, Tracer

__all__ = ["Chunk", "ChunkScheduler"]


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
        where any other lane will steal it; the caller's outer dispatch
        loop handles a requeue that lands after every lane has exited.
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

    @property
    def queued(self) -> int:
        """Chunks sitting in some lane's deque (excludes in-flight)."""
        with self._lock:
            return sum(len(q) for q in self._local)

    def drain(self) -> list[Chunk]:
        """Remove and return every queued chunk (the fallback path).

        In-flight chunks are untouched; the caller owns anything it
        drained (each drained chunk is counted completed once the caller
        runs it — call :meth:`mark_done` per chunk, or account for them
        directly).
        """
        with self._lock:
            drained: list[Chunk] = []
            for queue in self._local:
                drained.extend(queue)
                queue.clear()
            drained.sort(key=lambda chunk: chunk.start)
            return drained

    def total_steals(self) -> int:
        """Chunks acquired by stealing, summed over lanes."""
        with self._lock:
            return sum(self.steals)

    def total_requeues(self) -> int:
        """Chunks returned unfinished by failed lanes, summed over lanes."""
        with self._lock:
            return sum(self.requeues)
