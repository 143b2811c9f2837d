"""Transcripts: the complete broadcast history of a protocol execution.

The paper defines a transcript as "a list of all messages sent so far as
well as who sent which message and when" (Section 1.1).  A
:class:`Transcript` stores that list as parallel per-turn columns —
payload, sender, round index and width, the position being the turn —
and presents it as a sequence of :class:`BroadcastEvent` records built on
first read.  Transcripts are the objects whose *distributions* the
paper's theorems bound, so they support hashable encodings (:meth:`key`)
suitable for use as dictionary keys in distribution estimation.

Because the model is a broadcast clique, the sequence of senders is fixed by
the scheduler; the information content of a transcript is exactly the
message payloads in order, which is what :meth:`key` encodes.  Reads that
return integers (:meth:`key`, :meth:`bits`, :meth:`round_messages`,
:meth:`broadcasts`, ``len``, :attr:`total_bits`) come straight from the
columns and build no event.

Every processor of an execution holds the same transcript object, so a
value computed from it alone is public: :meth:`Transcript.derived`
computes such a value once and shares it with every processor, instead
of once per processor.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import starmap
from typing import Any, Callable, Iterable, Iterator, Sequence, TypeVar

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
    """Append-only broadcast history, stored as per-turn columns.

    The state is four parallel columns — the payload, sender, round index
    and width of every broadcast — in which a broadcast's position is its
    turn.  Equality, hashing, copies, pickles and the wire encoding are
    functions of the columns alone, and two transcripts are equal exactly
    when their events are.  Pickles and the wire carry the events, so the
    bytes are those of an event list.

    Beside the columns it keeps four things that are not state, so every
    copy starts without them:

    * a round index (round → turn positions), so a round read touches one
      round instead of scanning the history;
    * the :class:`BroadcastEvent` of each turn read so far, each built at
      most once, on the first read that returns events;
    * the flat bit column behind :meth:`bits`, extended on each call by
      the turns added since the last;
    * the memo of :meth:`derived` values.
    """

    __slots__ = (
        "_payloads",
        "_senders",
        "_round_ids",
        "_widths",
        "_rounds",
        "_events",
        "_bits",
        "_bit_turns",
        "_derived",
    )

    def __init__(self, events: Iterable[BroadcastEvent] | None = None):
        """A transcript of ``events``, appended in order.  A turn is a
        column position, so their turns must run 0, 1, 2, … as
        :meth:`append` requires."""
        self._load(events or ())

    def _reset(
        self,
        round_ids: Sequence[int],
        senders: Sequence[int],
        payloads: Sequence[int],
        widths: Sequence[int],
    ) -> None:
        self._round_ids: list[int] = list(round_ids)
        self._senders: list[int] = list(senders)
        self._payloads: list[int] = list(payloads)
        self._widths: list[int] = list(widths)
        self._rounds: dict[int, list[int]] = {}
        for turn, round_index in enumerate(self._round_ids):
            self._rounds.setdefault(round_index, []).append(turn)
        self._events: list[BroadcastEvent] = []
        self._bits: list[int] = []
        self._bit_turns = 0
        self._derived: dict[tuple[Callable[["Transcript"], Any], int], Any] = {}

    def _load(self, events: Iterable[BroadcastEvent]) -> None:
        self._reset((), (), (), ())
        for event in events:
            self.append(event)

    def _slice(self, stop: int) -> "Transcript":
        view = Transcript.__new__(Transcript)
        view._reset(
            self._round_ids[:stop],
            self._senders[:stop],
            self._payloads[:stop],
            self._widths[:stop],
        )
        return view

    def __getstate__(self) -> _State:
        return None, {"_events": list(self._event_list())}

    def __setstate__(self, state: _State) -> None:
        _, slots = state
        events = slots["_events"]
        if not all(isinstance(event, BroadcastEvent) for event in events):
            raise TypeError("a transcript's state must be a list of BroadcastEvent")
        self._load(events)

    # ------------------------------------------------------------------
    # Mutation (simulator-only)
    # ------------------------------------------------------------------
    def _push(
        self,
        round_index: int,
        senders: Sequence[int],
        payloads: Sequence[int],
        width: int,
    ) -> None:
        """Record ``payloads[i]`` from ``senders[i]``, in turn order, all in
        ``round_index`` and ``width`` bits wide.

        The simulator pushes each round once (each turn once under the
        turn scheduler) with payloads it has already width-checked.
        """
        start = len(self._payloads)
        self._senders.extend(senders)
        self._payloads.extend(payloads)
        count = len(self._payloads) - start
        self._round_ids.extend([round_index] * count)
        self._widths.extend([width] * count)
        self._rounds.setdefault(round_index, []).extend(range(start, start + count))

    def append(self, event: BroadcastEvent) -> None:
        turns = len(self._payloads)
        if turns and event.turn != turns:
            raise ValueError(f"non-consecutive turn {event.turn} after {turns - 1}")
        if not turns and event.turn != 0:
            raise ValueError(f"first event must have turn 0, got {event.turn}")
        self._push(event.round_index, (event.sender,), (event.message,), event.width)

    # ------------------------------------------------------------------
    # Read access
    # ------------------------------------------------------------------
    def _rows(self, start: int = 0) -> Iterator[tuple[int, int, int, int, int]]:
        """Each turn's ``(turn, round_index, sender, message, width)`` from
        ``start`` on: the fields of its event, in field order."""
        return zip(
            range(start, len(self._payloads)),
            self._round_ids[start:],
            self._senders[start:],
            self._payloads[start:],
            self._widths[start:],
        )

    def _event_list(self) -> list[BroadcastEvent]:
        """Every broadcast as a :class:`BroadcastEvent`, building the ones
        no read has needed yet."""
        events = self._events
        if len(events) < len(self._payloads):
            events.extend(starmap(BroadcastEvent, self._rows(len(events))))
        return events

    def __len__(self) -> int:
        return len(self._payloads)

    def __iter__(self) -> Iterator[BroadcastEvent]:
        return iter(self._event_list())

    def __getitem__(self, index: int) -> BroadcastEvent:
        return self._event_list()[index]

    @property
    def n_turns(self) -> int:
        """Number of broadcasts recorded so far."""
        return len(self._payloads)

    @property
    def total_bits(self) -> int:
        """Total number of bits broadcast (sum of message widths)."""
        return sum(self._widths)

    def messages_from(self, sender: int) -> list[BroadcastEvent]:
        """All broadcasts made by a given processor, in order."""
        events = self._event_list()
        return [events[turn] for turn, s in enumerate(self._senders) if s == sender]

    def messages_in_round(self, round_index: int) -> list[BroadcastEvent]:
        """All broadcasts of a given round, in turn order."""
        events = self._event_list()
        return [events[turn] for turn in self._rounds.get(round_index, ())]

    def round_messages(self, round_index: int) -> dict[int, int]:
        """Mapping ``sender → payload`` for a round, in turn order.

        The map every processor's ``receive`` gets, read from the columns
        without building an event.
        """
        senders, payloads = self._senders, self._payloads
        turns = self._rounds.get(round_index, ())
        return {senders[turn]: payloads[turn] for turn in turns}

    def broadcasts(self) -> Iterator[tuple[int, int, int]]:
        """Each broadcast's ``(round_index, sender, payload)``, in turn order.

        One read-only pass over the round, sender and payload columns
        that builds no event: the read for a callback that decodes many
        rounds at once (a revealed matrix, say), where a
        :meth:`round_messages` dict per round would cost a dict each.
        """
        return zip(self._round_ids, self._senders, self._payloads)

    def last_round_messages(self) -> list[BroadcastEvent]:
        """Broadcasts of the most recent (possibly partial) round."""
        if not self._payloads:
            return []
        return self.messages_in_round(self._round_ids[-1])

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
        if not 0 <= turns <= len(self._payloads):
            raise ValueError(
                f"derived value over {turns} turns requested, "
                f"{len(self._payloads)} exist"
            )
        key = (fn, turns)
        if key not in self._derived:
            view = self if turns == len(self._payloads) else self._slice(turns)
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
        return tuple(self._payloads)

    def bits(self) -> tuple[int, ...]:
        """Flattened little-endian bit string of all payloads in order."""
        done = self._bit_turns
        if done < len(self._payloads):
            self._bits.extend(
                (message >> i) & 1
                for message, width in zip(self._payloads[done:], self._widths[done:])
                for i in range(width)
            )
            self._bit_turns = len(self._payloads)
        return tuple(self._bits)

    def prefix(self, n_turns: int) -> "Transcript":
        """The transcript of the first ``n_turns`` broadcasts."""
        if not 0 <= n_turns <= len(self._payloads):
            raise ValueError(
                f"prefix of {n_turns} turns requested, {len(self._payloads)} exist"
            )
        return self._slice(n_turns)

    def copy(self) -> "Transcript":
        return self._slice(len(self._payloads))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Transcript):
            return NotImplemented
        return (
            self._payloads == other._payloads
            and self._senders == other._senders
            and self._round_ids == other._round_ids
            and self._widths == other._widths
        )

    def __hash__(self) -> int:
        # An event hashes as the tuple of its fields: this is the hash of
        # the tuple of events.
        return hash(tuple(self._rows()))

    def __repr__(self) -> str:
        return f"Transcript(turns={self.n_turns}, bits={self.total_bits})"
