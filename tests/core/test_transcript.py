"""Tests for transcripts, their round index and their public-value memo."""

import copy
import pickle

import numpy as np
import pytest

from repro.core import BroadcastEvent, Protocol, Transcript, run_protocol
from repro.exec.wire import decode_value, encode_value
from repro.protocols.connectivity import ConnectivityProtocol


def make_event(turn, round_index=0, sender=0, message=1, width=1):
    return BroadcastEvent(turn, round_index, sender, message, width)


class TestBroadcastEvent:
    def test_bits_little_endian(self):
        event = make_event(0, message=0b101, width=3)
        assert event.bits() == (1, 0, 1)

    def test_single_bit(self):
        assert make_event(0, message=1, width=1).bits() == (1,)

    def test_frozen(self):
        event = make_event(0)
        with pytest.raises(AttributeError):
            event.turn = 5


class TestTranscript:
    def test_append_and_length(self):
        t = Transcript()
        t.append(make_event(0))
        t.append(make_event(1, sender=1))
        assert len(t) == 2
        assert t.n_turns == 2

    def test_turn_ordering_enforced(self):
        t = Transcript()
        t.append(make_event(0))
        with pytest.raises(ValueError):
            t.append(make_event(2))

    def test_first_turn_must_be_zero(self):
        t = Transcript()
        with pytest.raises(ValueError):
            t.append(make_event(1))

    def test_total_bits(self):
        t = Transcript()
        t.append(make_event(0, width=3, message=5))
        t.append(make_event(1, width=1))
        assert t.total_bits == 4

    def test_messages_from(self):
        t = Transcript()
        t.append(make_event(0, sender=0, message=1))
        t.append(make_event(1, sender=1, message=0))
        t.append(make_event(2, sender=0, message=0))
        from_zero = t.messages_from(0)
        assert [e.message for e in from_zero] == [1, 0]

    def test_messages_in_round(self):
        t = Transcript()
        t.append(make_event(0, round_index=0))
        t.append(make_event(1, round_index=0))
        t.append(make_event(2, round_index=1))
        assert len(t.messages_in_round(0)) == 2
        assert len(t.messages_in_round(1)) == 1
        assert len(t.last_round_messages()) == 1

    def test_last_round_of_empty(self):
        assert Transcript().last_round_messages() == []

    def test_key_and_bits(self):
        t = Transcript()
        t.append(make_event(0, message=2, width=2))
        t.append(make_event(1, message=1, width=2))
        assert t.key() == (2, 1)
        assert t.bits() == (0, 1, 1, 0)

    def test_prefix(self):
        t = Transcript()
        for turn in range(4):
            t.append(make_event(turn, sender=turn % 2))
        prefix = t.prefix(2)
        assert prefix.n_turns == 2
        with pytest.raises(ValueError):
            t.prefix(5)

    def test_equality_and_hash(self):
        a, b = Transcript(), Transcript()
        a.append(make_event(0))
        b.append(make_event(0))
        assert a == b
        assert hash(a) == hash(b)

    def test_copy_is_independent(self):
        a = Transcript()
        a.append(make_event(0))
        b = a.copy()
        b.append(make_event(1))
        assert a.n_turns == 1
        assert b.n_turns == 2

    def test_getitem_and_iter(self):
        t = Transcript()
        t.append(make_event(0, message=1))
        t.append(make_event(1, message=0))
        assert t[0].message == 1
        assert [e.message for e in t] == [1, 0]

    def test_prefix_rejects_negative_turns(self):
        t = Transcript()
        for turn in range(4):
            t.append(make_event(turn))
        for n_turns in (-1, -4, -5):
            with pytest.raises(ValueError):
                t.prefix(n_turns)

    def test_constructor_checks_turns(self):
        # A turn is a position in the columns, so a hand-built event list
        # must number its turns 0, 1, 2, … exactly as append requires.
        with pytest.raises(ValueError):
            Transcript([make_event(1)])
        with pytest.raises(ValueError):
            Transcript([make_event(0), make_event(0)])

    def test_hash_is_the_event_tuple_hash(self):
        t = simulated_transcript()
        assert hash(t) == hash(tuple(t))
        assert hash(Transcript()) == hash(())


def event_bits(transcript):
    return tuple(b for e in transcript for b in e.bits())


class TestColumnReads:
    @pytest.mark.parametrize("scheduler", ["round", "turn"])
    def test_round_messages_match_events(self, scheduler):
        t = simulated_transcript(scheduler)
        for r in range(-1, t[-1].round_index + 2):
            assert t.round_messages(r) == {
                e.sender: e.message for e in linear_scan(t, r)
            }

    @pytest.mark.parametrize("scheduler", ["round", "turn"])
    def test_broadcasts_match_events_and_build_none(self, scheduler):
        t = simulated_transcript(scheduler)
        assert list(t.broadcasts()) == [
            (e.round_index, e.sender, e.message) for e in t.copy()
        ]
        assert t._events == []

    def test_broadcasts_keep_turn_order_of_unordered_rounds(self):
        rounds, senders = [1, 0, 1, 2, 0], [3, 0, 1, 2, 4]
        t = Transcript(
            make_event(i, round_index=r, sender=s, message=i % 2)
            for i, (r, s) in enumerate(zip(rounds, senders))
        )
        assert list(t.broadcasts()) == [
            (r, s, i % 2) for i, (r, s) in enumerate(zip(rounds, senders))
        ]
        assert list(t.prefix(2).broadcasts()) == [(1, 3, 0), (0, 0, 1)]
        assert list(Transcript().broadcasts()) == []

    def test_round_messages_keep_turn_order_of_unordered_rounds(self):
        senders = [3, 0, 1, 2, 4]
        events = [
            make_event(i, round_index=r, sender=s, message=(i + 1) % 2)
            for i, (r, s) in enumerate(zip([1, 0, 1, 2, 0], senders))
        ]
        t = Transcript(events)
        assert list(t.round_messages(1).items()) == [(3, 1), (1, 1)]
        assert list(t.round_messages(0).items()) == [(0, 0), (4, 1)]

    def test_bits_follow_appends_of_mixed_widths(self):
        t = Transcript()
        widths = [3, 1, 2, 1, 1, 4, 2]
        for turn, width in enumerate(widths):
            assert t.bits() == event_bits(t)
            t.append(
                make_event(turn, round_index=turn // 2, sender=turn % 2,
                           message=(5 * turn + 3) % (1 << width), width=width)
            )
            assert t.bits() == event_bits(t)
            assert len(t.bits()) == t.total_bits
        for view in (
            t.prefix(0),
            t.prefix(3),
            t.copy(),
            pickle.loads(pickle.dumps(t)),
            decode_value(encode_value(t)),
            copy.deepcopy(t),
        ):
            assert view.bits() == event_bits(view)
            assert view.key() == tuple(e.message for e in view)

    def test_bit_column_is_not_state(self):
        read = simulated_transcript()
        unread = simulated_transcript()
        read.bits()
        assert read == unread
        assert pickle.dumps(read) == pickle.dumps(unread)
        assert encode_value(read) == encode_value(unread)

    def test_each_event_is_built_once(self):
        t = simulated_transcript()
        first = list(t)
        assert all(a is b for a, b in zip(first, t))
        assert t.messages_in_round(1)[0] is first[6]


def linear_scan(transcript, round_index):
    return [e for e in transcript if e.round_index == round_index]


def simulated_transcript(scheduler="round"):
    """A real multi-round transcript: connectivity on a path graph runs
    several rounds of multi-bit labels."""
    n = 6
    adjacency = np.zeros((n, n), dtype=np.uint8)
    for i in range(n - 1):
        adjacency[i, i + 1] = adjacency[i + 1, i] = 1
    return run_protocol(
        ConnectivityProtocol(n), adjacency, scheduler=scheduler, rng=np.random.default_rng(0)
    ).transcript


class TestRoundIndex:
    @pytest.mark.parametrize("scheduler", ["round", "turn"])
    def test_matches_linear_scan_for_every_round(self, scheduler):
        t = simulated_transcript(scheduler)
        rounds = {e.round_index for e in t}
        assert len(rounds) > 2
        for r in sorted(rounds) + [max(rounds) + 1, -1]:
            assert t.messages_in_round(r) == linear_scan(t, r)
        assert t.messages_in_round(max(rounds) + 5) == []

    def test_matches_linear_scan_after_prefix_and_copy(self):
        t = simulated_transcript()
        for view in (t.copy(), t.prefix(len(t) - 3), t.prefix(7), t.prefix(0)):
            for r in range(-1, t[-1].round_index + 2):
                assert view.messages_in_round(r) == linear_scan(view, r)

    def test_index_follows_appends_of_a_copy_only(self):
        t = simulated_transcript()
        grown = t.copy()
        last = t[-1]
        grown.append(make_event(last.turn + 1, round_index=last.round_index + 1))
        assert len(grown.messages_in_round(last.round_index + 1)) == 1
        assert t.messages_in_round(last.round_index + 1) == []

    def test_unordered_round_indices_keep_turn_order(self):
        # The constructor does not validate; the index still mirrors a scan.
        events = [make_event(i, round_index=r) for i, r in enumerate([1, 0, 1, 2, 0])]
        t = Transcript(events)
        for r in range(4):
            assert t.messages_in_round(r) == linear_scan(t, r)

    def test_returned_lists_are_fresh(self):
        t = simulated_transcript()
        t.messages_in_round(0).clear()
        assert t.messages_in_round(0) == linear_scan(t, 0)


class CountingFn:
    """A transcript function that counts its calls and what it saw."""

    def __init__(self):
        self.calls = []

    def __call__(self, transcript):
        self.calls.append(len(transcript))
        return transcript.key()


class MemoProbe(Protocol):
    """Every processor asks for the same public value in ``output``."""

    def __init__(self, fn):
        self.fn = fn

    def num_rounds(self, n):
        return 2

    def broadcast(self, proc, round_index):
        return int(proc.input[round_index])

    def output(self, proc):
        return proc.transcript.derived(self.fn, len(proc.transcript))


class TestDerived:
    def test_one_call_shared_by_every_processor(self):
        fn = CountingFn()
        inputs = np.random.default_rng(1).integers(0, 2, size=(7, 2), dtype=np.uint8)
        result = run_protocol(MemoProbe(fn), inputs, rng=np.random.default_rng(2))
        assert fn.calls == [14]
        assert all(out == result.transcript.key() for out in result.outputs)
        assert len({id(out) for out in result.outputs}) == 1

    def test_recomputes_at_a_new_turn_count(self):
        fn = CountingFn()
        t = simulated_transcript()
        assert t.derived(fn, 6) == t.prefix(6).key()
        assert t.derived(fn, 6) == t.prefix(6).key()
        assert t.derived(fn, len(t)) == t.key()
        assert t.derived(fn, 6) == t.prefix(6).key()
        assert fn.calls == [6, len(t)]

    def test_sees_only_the_first_turns_events(self):
        t = simulated_transcript()
        assert t.derived(len, 5) == 5
        assert t.derived(lambda view: view[-1], 5) == t[4]
        assert t.derived(len, 0) == 0
        with pytest.raises(ValueError):
            t.derived(len, len(t) + 1)
        with pytest.raises(ValueError):
            t.derived(len, -1)

    def test_value_memoized_early_survives_appends(self):
        fn = CountingFn()
        t = simulated_transcript()
        grown = t.copy()
        early = grown.derived(fn, len(grown))
        last = grown[-1]
        grown.append(make_event(last.turn + 1, round_index=last.round_index + 1))
        assert grown.derived(fn, len(t)) is early
        assert fn.calls == [len(t)]

    def test_never_shared_between_transcripts(self):
        fn = CountingFn()
        a = simulated_transcript()
        b = simulated_transcript()
        assert a == b and a is not b
        a.derived(fn, len(a))
        b.derived(fn, len(b))
        a.copy().derived(fn, len(a))
        a.prefix(len(a)).derived(fn, len(a))
        assert fn.calls == [len(a)] * 4

    def test_none_is_memoized_too(self):
        calls = []

        def nothing(transcript):
            calls.append(1)
            return None

        t = simulated_transcript()
        assert t.derived(nothing, 3) is None
        assert t.derived(nothing, 3) is None
        assert calls == [1]

    def test_memo_is_not_state(self):
        fn = CountingFn()
        filled = simulated_transcript()
        plain = simulated_transcript()
        filled.derived(fn, len(filled))
        filled.messages_in_round(1)
        assert filled == plain
        assert hash(filled) == hash(plain)
        assert pickle.dumps(filled) == pickle.dumps(plain)
        assert encode_value(filled) == encode_value(plain)
        for copied in (
            pickle.loads(pickle.dumps(filled)),
            decode_value(encode_value(filled)),
            copy.deepcopy(filled),
            copy.copy(filled),
        ):
            assert copied == plain
            for r in range(filled[-1].round_index + 1):
                assert copied.messages_in_round(r) == plain.messages_in_round(r)
            copied.derived(fn, len(copied))
        # Every copy started with an empty memo and recomputed.
        assert fn.calls == [len(filled)] * 5

    def test_decoded_state_must_hold_events(self):
        with pytest.raises(TypeError):
            Transcript().__setstate__((None, {"_events": [("not", "an", "event")]}))


def pinned_transcript():
    """Two rounds of two processors, widths 1 then 3."""
    return Transcript(
        [
            make_event(0, round_index=0, sender=0, message=1, width=1),
            make_event(1, round_index=0, sender=1, message=0, width=1),
            make_event(2, round_index=1, sender=0, message=5, width=3),
            make_event(3, round_index=1, sender=1, message=6, width=3),
        ]
    )


# Bytes of ``pinned_transcript()`` as written by the event-list transcript
# that preceded the columnar one: a worker and a client on either side of
# that change must keep exchanging transcripts.
PINNED_WIRE = bytes.fromhex(
    "4f0000000000000020726570726f2e636f72652e7472616e7363726970743a54"
    "72616e7363726970747400000000000000024e44000000000000000173000000"
    "00000000075f6576656e74736c00000000000000044f00000000000000247265"
    "70726f2e636f72652e7472616e7363726970743a42726f616463617374457665"
    "6e744400000000000000057300000000000000047475726e6900000000000000"
    "0073000000000000000b726f756e645f696e6465786900000000000000007300"
    "0000000000000673656e6465726900000000000000007300000000000000076d"
    "6573736167656900000000000000017300000000000000057769647468690000"
    "0000000000014f0000000000000024726570726f2e636f72652e7472616e7363"
    "726970743a42726f6164636173744576656e7444000000000000000573000000"
    "00000000047475726e69000000000000000173000000000000000b726f756e64"
    "5f696e64657869000000000000000073000000000000000673656e6465726900"
    "000000000000017300000000000000076d657373616765690000000000000000"
    "73000000000000000577696474686900000000000000014f0000000000000024"
    "726570726f2e636f72652e7472616e7363726970743a42726f61646361737445"
    "76656e744400000000000000057300000000000000047475726e690000000000"
    "00000273000000000000000b726f756e645f696e646578690000000000000001"
    "73000000000000000673656e6465726900000000000000007300000000000000"
    "076d657373616765690000000000000005730000000000000005776964746869"
    "00000000000000034f0000000000000024726570726f2e636f72652e7472616e"
    "7363726970743a42726f6164636173744576656e744400000000000000057300"
    "000000000000047475726e69000000000000000373000000000000000b726f75"
    "6e645f696e64657869000000000000000173000000000000000673656e646572"
    "6900000000000000017300000000000000076d65737361676569000000000000"
    "00067300000000000000057769647468690000000000000003"
)
PINNED_PICKLE = bytes.fromhex(
    "800495f1000000000000008c15726570726f2e636f72652e7472616e73637269"
    "7074948c0a5472616e7363726970749493942981944e7d948c075f6576656e74"
    "73945d942868008c0e42726f6164636173744576656e749493942981947d9428"
    "8c047475726e944b008c0b726f756e645f696e646578944b008c0673656e6465"
    "72944b008c076d657373616765944b018c057769647468944b01756268082981"
    "947d9428680b4b01680c4b00680d4b01680e4b00680f4b01756268082981947d"
    "9428680b4b02680c4b01680d4b00680e4b05680f4b03756268082981947d9428"
    "680b4b03680c4b01680d4b01680e4b06680f4b03756265738694622e"
)


class TestStateFormat:
    def test_wire_bytes_are_pinned(self):
        t = pinned_transcript()
        assert decode_value(PINNED_WIRE) == t
        assert encode_value(t) == PINNED_WIRE
        assert encode_value(decode_value(PINNED_WIRE)) == PINNED_WIRE

    def test_pickle_bytes_are_pinned(self):
        t = pinned_transcript()
        assert pickle.loads(PINNED_PICKLE) == t
        assert pickle.dumps(t, protocol=4) == PINNED_PICKLE
        assert pickle.dumps(pickle.loads(PINNED_PICKLE), protocol=4) == PINNED_PICKLE

    def test_decoded_reads_agree_with_events(self):
        for t in (pickle.loads(PINNED_PICKLE), decode_value(PINNED_WIRE)):
            events = list(t)
            assert t.key() == (1, 0, 5, 6) == tuple(e.message for e in events)
            assert t.bits() == tuple(b for e in events for b in e.bits())
            for r in (0, 1):
                assert t.round_messages(r) == {
                    e.sender: e.message for e in t.messages_in_round(r)
                }
            assert t.total_bits == 8
