"""Span nesting and self time, from intervals alone.

A span is ``(track, start_ns, end_ns)``.  Spans on one track nest by
containment: a span's parent is the latest-starting span of its track
that contains it.  Two spans of one track may also overlap without
nesting — the library's ``run_batch`` spans from concurrent
``submit_batch`` threads share the ``engine`` track — so a parent's
children may overlap each other, and a span's self time is its duration
minus the *union* of its children's intervals, never the plain sum.
"""

from __future__ import annotations

from typing import Sequence

__all__ = ["nest", "self_times", "union_length"]

Span = tuple[str, int, int]


def union_length(intervals: Sequence[tuple[int, int]]) -> int:
    """Total length covered by ``(start, end)`` intervals, overlaps once."""
    total = 0
    cursor = None
    for start, end in sorted(intervals):
        if cursor is None or start > cursor:
            total += end - start
            cursor = end
        elif end > cursor:
            total += end - cursor
            cursor = end
    return total


def nest(spans: Sequence[Span]) -> list[int]:
    """Parent index of every span (``-1`` for a root of its track)."""
    parents = [-1] * len(spans)
    by_track: dict[str, list[int]] = {}
    for index, (track, _, _) in enumerate(spans):
        by_track.setdefault(track, []).append(index)
    for indices in by_track.values():
        # Parents before children: earlier start first, longer first on ties.
        indices.sort(key=lambda i: (spans[i][1], -spans[i][2]))
        open_spans: list[int] = []
        for index in indices:
            _, start, end = spans[index]
            open_spans = [i for i in open_spans if spans[i][2] > start]
            for candidate in reversed(open_spans):
                if spans[candidate][2] >= end:
                    parents[index] = candidate
                    break
            open_spans.append(index)
    return parents


def self_times(spans: Sequence[Span], parents: Sequence[int] | None = None) -> list[int]:
    """Each span's duration minus the union of its children's intervals."""
    if parents is None:
        parents = nest(spans)
    children: dict[int, list[tuple[int, int]]] = {}
    for index, parent in enumerate(parents):
        if parent >= 0:
            children.setdefault(parent, []).append(spans[index][1:])
    return [
        (end - start) - union_length(children.get(index, ()))
        for index, (_, start, end) in enumerate(spans)
    ]
