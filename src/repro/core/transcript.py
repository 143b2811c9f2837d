"""Transcripts: the complete broadcast history of a protocol execution.

The paper defines a transcript as "a list of all messages sent so far as
well as who sent which message and when" (Section 1.1).  A
:class:`Transcript` is an append-only sequence of :class:`BroadcastEvent`
records.  Transcripts are the objects whose *distributions* the paper's
theorems bound, so they support hashable encodings (:meth:`key`) suitable
for use as dictionary keys in distribution estimation.

Because the model is a broadcast clique, the sequence of senders is fixed by
the scheduler; the information content of a transcript is exactly the
message payloads in order, which is what :meth:`key` encodes.

Every processor of an execution holds the same transcript object, so a
value computed from it alone is public: :meth:`Transcript.derived`
computes such a value once and shares it with every processor, instead
of once per processor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator, TypeVar

__all__ = ["BroadcastEvent", "Transcript"]

_T = TypeVar("_T")


@dataclass(frozen=True)
class BroadcastEvent:
    """A single broadcast: processor ``sender`` sent ``message`` (an integer
    in ``[0, 2^width)``) at global ``turn`` within ``round_index``."""

    turn: int
    round_index: int
    sender: int
    message: int
    width: int

    def bits(self) -> tuple[int, ...]:
        """The message as a little-endian tuple of ``width`` bits."""
        return tuple((self.message >> i) & 1 for i in range(self.width))


#: Pickle / wire state of a transcript: its events, in slot-state form.
_State = tuple[None, dict[str, list[BroadcastEvent]]]


class Transcript:
    """Append-only broadcast history.

    Beside the events it keeps a round index, so :meth:`messages_in_round`
    reads one round instead of scanning the history, and the memo of
    :meth:`derived` values.  Neither is state: equality, hashing, copies,
    pickles and the wire encoding carry the events alone.
    """

    __slots__ = ("_events", "_rounds", "_derived")

    def __init__(self, events: list[BroadcastEvent] | None = None):
        self._reset(events or ())

    def _reset(self, events: Iterable[BroadcastEvent]) -> None:
        self._events: list[BroadcastEvent] = []
        self._rounds: dict[int, list[BroadcastEvent]] = {}
        self._derived: dict[tuple[Callable[["Transcript"], Any], int], Any] = {}
        for event in events:
            self._record(event)

    def _record(self, event: BroadcastEvent) -> None:
        self._events.append(event)
        self._rounds.setdefault(event.round_index, []).append(event)

    def __getstate__(self) -> _State:
        return None, {"_events": list(self._events)}

    def __setstate__(self, state: _State) -> None:
        _, slots = state
        events = slots["_events"]
        if not all(isinstance(event, BroadcastEvent) for event in events):
            raise TypeError("a transcript's state must be a list of BroadcastEvent")
        self._reset(events)

    # ------------------------------------------------------------------
    # Mutation (simulator-only)
    # ------------------------------------------------------------------
    def append(self, event: BroadcastEvent) -> None:
        if self._events and event.turn != self._events[-1].turn + 1:
            raise ValueError(
                f"non-consecutive turn {event.turn} after {self._events[-1].turn}"
            )
        if not self._events and event.turn != 0:
            raise ValueError(f"first event must have turn 0, got {event.turn}")
        self._record(event)

    # ------------------------------------------------------------------
    # Read access
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[BroadcastEvent]:
        return iter(self._events)

    def __getitem__(self, index: int) -> BroadcastEvent:
        return self._events[index]

    @property
    def n_turns(self) -> int:
        """Number of broadcasts recorded so far."""
        return len(self._events)

    @property
    def total_bits(self) -> int:
        """Total number of bits broadcast (sum of message widths)."""
        return sum(e.width for e in self._events)

    def messages_from(self, sender: int) -> list[BroadcastEvent]:
        """All broadcasts made by a given processor, in order."""
        return [e for e in self._events if e.sender == sender]

    def messages_in_round(self, round_index: int) -> list[BroadcastEvent]:
        """All broadcasts of a given round, in turn order."""
        return list(self._rounds.get(round_index, ()))

    def last_round_messages(self) -> list[BroadcastEvent]:
        """Broadcasts of the most recent (possibly partial) round."""
        if not self._events:
            return []
        return self.messages_in_round(self._events[-1].round_index)

    def derived(self, fn: Callable[["Transcript"], _T], turns: int) -> _T:
        """``fn`` of the first ``turns`` broadcasts, computed once and shared.

        The contract:

        * ``fn`` takes the transcript and nothing else.  The transcript is
          public in ``BCAST``, so every processor may share the result
          without learning anything private.  Keep parameters on a bound
          method's instance (or a module-level function), never in a
          fresh closure or ``functools.partial`` per call — the memo is
          keyed by ``fn``, so those would never hit.
        * ``fn`` sees the first ``turns`` events only (this transcript when
          ``turns`` is its length, else :meth:`prefix`), so a value
          memoized early stays valid as later broadcasts arrive.
        * The memo is per ``(fn, turns)`` on this object: it lives exactly
          as long as the execution that owns the transcript, is never
          shared with another transcript, and is not state — see the
          class docstring.
        """
        if not 0 <= turns <= len(self._events):
            raise ValueError(
                f"derived value over {turns} turns requested, "
                f"{len(self._events)} exist"
            )
        key = (fn, turns)
        if key not in self._derived:
            view = self if turns == len(self._events) else self.prefix(turns)
            self._derived[key] = fn(view)
        return self._derived[key]

    # ------------------------------------------------------------------
    # Encodings
    # ------------------------------------------------------------------
    def key(self) -> tuple[int, ...]:
        """Hashable encoding: the tuple of message payloads in turn order.

        Sender/round structure is scheduler-determined, so payloads alone
        identify the transcript among executions of the same protocol.
        """
        return tuple(e.message for e in self._events)

    def bits(self) -> tuple[int, ...]:
        """Flattened little-endian bit string of all payloads in order."""
        out: list[int] = []
        for e in self._events:
            out.extend(e.bits())
        return tuple(out)

    def prefix(self, n_turns: int) -> "Transcript":
        """The transcript of the first ``n_turns`` broadcasts."""
        if n_turns > len(self._events):
            raise ValueError(
                f"prefix of {n_turns} turns requested, only {len(self._events)} exist"
            )
        return Transcript(self._events[:n_turns])

    def copy(self) -> "Transcript":
        return Transcript(self._events)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Transcript):
            return NotImplemented
        return self._events == other._events

    def __hash__(self) -> int:
        return hash(tuple(self._events))

    def __repr__(self) -> str:
        return f"Transcript(turns={self.n_turns}, bits={self.total_bits})"
