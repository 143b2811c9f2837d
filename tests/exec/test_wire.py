"""Edge-case tests for the schema'd, authenticated wire protocol.

Covers the framing limits (a frame of exactly ``MAX_FRAME_BYTES``, the
sender-side size guard, zero-length frames, EOF after a partial length
header), the value codec and its array lane, and every rejection path of the
authenticated session: MAC mismatch, wrong secret, replayed frames,
cross-session splicing — plus a TLS loopback run over certificates
minted with the ``openssl`` CLI.
"""

import shutil
import socket
import ssl
import subprocess
import threading
import time

import numpy as np
import pytest

from repro.core import Engine, RunSpec, SerialExecutor
from repro.core.engine import _TrialRunner
from repro.distributions import UniformRows
from repro.exec import wire
from repro.exec.distributed import DistributedExecutor, LoopbackWorker
from repro.exec.health import FleetDegradedWarning
from repro.exec.wire import (
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    AuthenticationError,
    CorruptFrameError,
    FrameAuthenticationError,
    FrameSizeError,
    ProtocolVersionError,
    TruncatedFrameError,
    UnencodableError,
    WireProtocolError,
    WireSession,
    decode_value,
    encode_value,
    function_digest,
    recv_frame,
    register_wire_function,
    resolve_secret,
    send_frame,
)
from repro.lowerbounds import TopSubmatrixRankProtocol

_LENGTH = wire._LENGTH


@register_wire_function
def _double(x):
    return 2 * x


def _socketpair():
    left, right = socket.socketpair()
    left.settimeout(5.0)
    right.settimeout(5.0)
    return left, right


def _session_pair(client_secret=None, server_secret=None):
    """Handshake both sides of a socketpair; return outcomes per side.

    Each element of the result is either a live :class:`WireSession` or
    the exception its side's handshake raised.
    """
    left, right = _socketpair()
    results = {}

    def server():
        try:
            results["server"] = WireSession.server(right, server_secret)
        except Exception as exc:  # captured for assertion, not ignored
            results["server"] = exc

    thread = threading.Thread(target=server, daemon=True)
    thread.start()
    try:
        results["client"] = WireSession.client(left, client_secret)
    except Exception as exc:
        results["client"] = exc
    thread.join(timeout=5.0)
    return results["client"], results["server"], left, right


def _assert_same_types(decoded, value):
    """Equality alone hides a wrong kind: ``{1} == frozenset({1})`` and
    ``True == 1`` both hold, so compare container and element types too."""
    assert type(decoded) is type(value)
    if isinstance(value, (list, tuple)):
        for out, item in zip(decoded, value):
            _assert_same_types(out, item)
    elif isinstance(value, (set, frozenset)):
        assert {(type(x), x) for x in decoded} == {(type(x), x) for x in value}
    elif isinstance(value, dict):
        for key, item in value.items():
            _assert_same_types(decoded[key], item)


#: Header of a packed int run: tag, container tag, count.
_RUN_HEADER_BYTES = 2 + _LENGTH.size


class TestValueCodec:
    ROUND_TRIPS = [
        None,
        True,
        False,
        0,
        -17,
        1 << 200,           # bigint beyond any fixed-width field
        -(1 << 200),
        3.25,
        float("inf"),
        "héllo",
        b"\x00\xff",
        (),
        ("nested", (1, [2, {"three": 4}])),
        [1, 2, 3],
        {"a": 1, 2: "b"},
        # Packed int runs: every container kind holding a 0/1 key ...
        [0, 1, 1, 0],
        (1, 0, 0, 1),
        {0, 1},
        frozenset({1, 0}),
        # ... negative ints, values above 255, the i64 bounds and one
        # element of 2**63 (all element-wise), bools mixed with ints
        # (they stay bools), numpy-int elements (they stay numpy
        # scalars), ...
        (-1, 0, 5),
        [256, 3, 70000],
        (-(1 << 63), (1 << 63) - 1),
        (1, 1 << 63),
        [True, 0, 1, False],
        (np.int64(3), np.uint8(1), 2),
        # ... and empty and one-element containers.
        [],
        set(),
        frozenset(),
        (7,),
        [300],
        {0},
        frozenset({-2}),
    ]

    @pytest.mark.parametrize("value", ROUND_TRIPS, ids=repr)
    def test_round_trip(self, value):
        decoded = decode_value(encode_value(value))
        assert decoded == value
        _assert_same_types(decoded, value)

    @pytest.mark.parametrize(
        "value", [[0, 1, 1], (255, 0), {3}, frozenset({7, 200})], ids=repr
    )
    def test_byte_int_containers_travel_as_one_run(self, value):
        payload = encode_value(value)
        assert payload[:1] == b"R"
        assert len(payload) == _RUN_HEADER_BYTES + len(value)

    @pytest.mark.parametrize(
        "value",
        [(-1, 2), [256], frozenset({(1 << 63) - 1}), (1, 1 << 63), [True, 1],
         (np.int64(1),)],
        ids=repr,
    )
    def test_other_containers_keep_element_tags(self, value):
        assert encode_value(value)[:1] != b"R"

    def test_bcast1_key_costs_one_byte_per_turn(self):
        """A 160-turn BCAST(1) transcript key: a byte per turn plus the
        run header (1,449 bytes as 9-byte tagged ints)."""
        spec = RunSpec(
            protocol=TopSubmatrixRankProtocol(5),
            distribution=UniformRows(32, 5),
            seed=3,
        )
        key = Engine(SerialExecutor()).run(spec).transcript.key()
        assert len(key) == 160
        payload = encode_value(key)
        assert len(payload) <= len(key) + _RUN_HEADER_BYTES
        assert decode_value(payload) == key

    @pytest.mark.parametrize(
        "payload",
        [
            # a run truncated in its header, its count or its payload
            b"R",
            b"Rt" + _LENGTH.pack(3)[:5],
            b"Rl" + _LENGTH.pack(2) + bytes(1),
            # a count beyond the payload
            b"Rt" + _LENGTH.pack(100) + bytes(10),
            b"RH" + _LENGTH.pack((1 << 64) - 1),
            # an unknown container kind
            b"RD" + _LENGTH.pack(1) + b"\x00",
            b"R\x00" + _LENGTH.pack(1) + b"\x00",
        ],
        ids=repr,
    )
    def test_malformed_run_is_typed(self, payload):
        with pytest.raises(CorruptFrameError):
            decode_value(payload)

    def test_numpy_array_round_trip(self):
        array = np.arange(12, dtype=np.uint8).reshape(3, 4)
        out = decode_value(encode_value(array))
        assert out.dtype == array.dtype
        assert np.array_equal(out, array)

    def test_registered_function_travels_by_name(self):
        fn = decode_value(encode_value(_double))
        assert fn is _double

    def test_lambda_is_unencodable(self):
        with pytest.raises(UnencodableError):
            encode_value(lambda x: x)

    def test_unregistered_class_is_unencodable(self):
        class Private:
            pass

        with pytest.raises(UnencodableError):
            encode_value(Private())

    def test_forged_class_name_refused_on_decode(self):
        """Decoding resolves registered names only: a frame naming a class
        outside the wire vocabulary is refused, even one the worker's
        process could import."""
        name = b"repro.exec.pool:WorkerPool"
        state = (None, {"max_workers": 2})
        forged = b"O" + _LENGTH.pack(len(name)) + name + encode_value(state)
        with pytest.raises(CorruptFrameError):
            decode_value(forged)

    def test_unencodable_is_not_a_connection_error(self):
        """Executors treat this as "run locally", never "requeue"."""
        assert not issubclass(UnencodableError, ConnectionError)
        assert issubclass(UnencodableError, TypeError)

    def test_truncated_payload_is_typed(self):
        payload = encode_value(("ok", [1, 2, 3]))
        with pytest.raises(CorruptFrameError):
            decode_value(payload[: len(payload) // 2])

    def test_trailing_garbage_is_typed(self):
        payload = encode_value("x")
        with pytest.raises(CorruptFrameError):
            decode_value(payload + b"\x00")

    def test_function_digest_is_content_addressed(self):
        fn_bytes = encode_value(_double)
        assert function_digest(fn_bytes) == function_digest(fn_bytes)
        assert len(function_digest(fn_bytes)) == 64


class TestFraming:
    def test_frame_of_exactly_max_frame_bytes(self, monkeypatch):
        """The limit is inclusive: a frame of exactly the cap passes."""
        obj = ("ok", [1, 2, 3])
        payload = encode_value(obj)
        monkeypatch.setattr(wire, "MAX_FRAME_BYTES", len(payload))
        left, right = _socketpair()
        try:
            send_frame(left, obj)
            assert recv_frame(right) == obj
        finally:
            left.close()
            right.close()

    def test_sender_side_size_guard_fires_before_any_write(self, monkeypatch):
        obj = ("ok", [1, 2, 3])
        monkeypatch.setattr(wire, "MAX_FRAME_BYTES", len(encode_value(obj)) - 1)
        left, right = _socketpair()
        try:
            with pytest.raises(FrameSizeError):
                send_frame(left, obj)
            # Not a single byte hit the socket: the stream is unpoisoned.
            right.setblocking(False)
            with pytest.raises(BlockingIOError):
                right.recv(1)
        finally:
            left.close()
            right.close()

    def test_receiver_side_cap_rejects_oversize_header(self):
        left, right = _socketpair()
        try:
            left.sendall(_LENGTH.pack(1 << 20))
            with pytest.raises(FrameSizeError):
                recv_frame(right, max_bytes=1 << 10)
        finally:
            left.close()
            right.close()

    def test_zero_length_frame_is_typed(self):
        """A header claiming zero bytes decodes to nothing — typed, not
        a silent ``None`` or an IndexError inside the decoder."""
        left, right = _socketpair()
        try:
            left.sendall(_LENGTH.pack(0))
            with pytest.raises(CorruptFrameError):
                recv_frame(right)
        finally:
            left.close()
            right.close()

    def test_eof_after_partial_length_header(self):
        """Half a length header then EOF is a TruncatedFrameError — not
        a silent short read misparsed as a tiny frame."""
        left, right = _socketpair()
        try:
            left.sendall(_LENGTH.pack(99)[:3])
            left.close()
            with pytest.raises(TruncatedFrameError):
                recv_frame(right)
        finally:
            right.close()

    def test_eof_mid_payload(self):
        left, right = _socketpair()
        try:
            left.sendall(_LENGTH.pack(100) + b"ten bytes.")
            left.close()
            with pytest.raises(TruncatedFrameError):
                recv_frame(right)
        finally:
            right.close()

    def test_clean_eof_between_frames_is_plain_connection_error(self):
        """The peer hanging up *between* frames is the normal end of a
        session — plain ConnectionError, no pathology subtype."""
        left, right = _socketpair()
        left.close()
        try:
            with pytest.raises(ConnectionError) as err:
                recv_frame(right)
            assert not isinstance(err.value, WireProtocolError)
        finally:
            right.close()

    def test_default_cap_is_generous(self):
        assert MAX_FRAME_BYTES == 1 << 32


class TestSessionAuth:
    def test_authenticated_round_trip(self):
        client, server, left, right = _session_pair()
        try:
            client.send(("ping",))
            assert server.recv() == ("ping",)
            server.send(("pong",))
            assert client.recv() == ("pong",)
        finally:
            left.close()
            right.close()

    def test_wrong_secret_rejected_on_both_sides(self):
        client, server, left, right = _session_pair(
            client_secret=b"left secret", server_secret=b"right secret"
        )
        try:
            assert isinstance(server, AuthenticationError)
            assert isinstance(client, AuthenticationError)
        finally:
            left.close()
            right.close()

    def test_tampered_published_input_detected(self):
        """Flip one byte of the fixed input matrix a register_fn frame
        carries in its trial runner: the MAC catches it before the
        schema decoder ever sees the bytes."""
        client, server, left, right = _session_pair()
        try:
            inputs = np.ones((8, 8), dtype=np.uint8)
            spec = RunSpec(
                protocol=TopSubmatrixRankProtocol(5), inputs=inputs, seed=1
            )
            fn_bytes = encode_value(_TrialRunner(spec))
            frame = ("register_fn", function_digest(fn_bytes), fn_bytes)
            header, chunks, mac = client.frame_bytes(frame)
            payload = bytearray(b"".join(chunks))
            payload[payload.index(inputs.tobytes())] ^= 0x01
            left.sendall(header + bytes(payload) + mac)
            with pytest.raises(FrameAuthenticationError):
                server.recv()
        finally:
            left.close()
            right.close()

    def test_replayed_frame_rejected(self):
        """The same honest bytes verify once; the strict sequence
        counter refuses the replay."""
        client, server, left, right = _session_pair()
        try:
            header, chunks, mac = client.frame_bytes(("ping",))
            raw = header + b"".join(chunks) + mac
            left.sendall(raw)
            assert server.recv() == ("ping",)
            left.sendall(raw)
            with pytest.raises(FrameAuthenticationError):
                server.recv()
        finally:
            left.close()
            right.close()

    def test_frame_from_another_session_rejected(self):
        """Fresh nonces per handshake: splicing a recorded frame from
        one session into another cannot verify."""
        client_a, server_a, left_a, right_a = _session_pair()
        client_b, server_b, left_b, right_b = _session_pair()
        try:
            header, chunks, mac = client_a.frame_bytes(("ping",))
            left_b.sendall(header + b"".join(chunks) + mac)
            with pytest.raises(FrameAuthenticationError):
                server_b.recv()
        finally:
            for sock in (left_a, right_a, left_b, right_b):
                sock.close()

    def test_truncated_mac_is_truncated_frame(self):
        client, server, left, right = _session_pair()
        try:
            header, chunks, mac = client.frame_bytes(("ping",))
            left.sendall(header + b"".join(chunks) + mac[:-5])
            left.close()
            with pytest.raises(TruncatedFrameError):
                server.recv()
        finally:
            right.close()

    def test_handshake_carries_no_codec_list(self, monkeypatch):
        """v4: the challenge is (kind, version, nonce) and the auth frame
        (kind, nonce, proof) — neither side sends a codec list."""
        sent = {}
        send = wire.send_frame

        def recording(sock, obj):
            sent[obj[0]] = obj
            send(sock, obj)

        monkeypatch.setattr(wire, "send_frame", recording)
        client, server, left, right = _session_pair()
        try:
            assert isinstance(client, WireSession)
            assert isinstance(server, WireSession)
            assert sent["challenge"][:2] == ("challenge", PROTOCOL_VERSION)
            assert len(sent["challenge"]) == len(sent["auth"]) == 3
        finally:
            left.close()
            right.close()

    def test_handshake_against_non_protocol_peer_is_typed(self):
        """A client pointed at something that isn't a worker gets a
        typed AuthenticationError, not a decoder crash."""
        left, right = _socketpair()
        try:
            send_frame(right, ("not", "a", "challenge"))
            with pytest.raises(AuthenticationError):
                WireSession.client(left)
        finally:
            left.close()
            right.close()


#: The challenge a v3 worker sent: it still carried a codec list.
V3_CHALLENGE = ("challenge", 3, bytes(16), ("gf2pack", "raw"))


class _StaleWorker:
    """A listener answering every connection with the v3 challenge."""

    def __init__(self):
        self.connections = 0
        self._listener = socket.create_server(("127.0.0.1", 0))
        self._listener.settimeout(0.05)
        self.address = self._listener.getsockname()[:2]
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self):
        while not self._stop.is_set():
            try:
                conn, _ = self._listener.accept()
            except TimeoutError:
                continue
            self.connections += 1
            with conn:
                conn.settimeout(5.0)
                send_frame(conn, V3_CHALLENGE)
                try:
                    conn.recv(1)  # until the client hangs up
                except OSError:  # the client reset the connection: also done
                    pass

    def close(self):
        self._stop.set()
        self._thread.join(timeout=5.0)
        self._listener.close()


class TestVersionMismatch:
    def test_client_names_both_versions(self):
        left, right = _socketpair()
        try:
            send_frame(right, V3_CHALLENGE)
            with pytest.raises(ProtocolVersionError) as err:
                WireSession.client(left)
            assert f"v{PROTOCOL_VERSION - 1}" in str(err.value)
            assert f"v{PROTOCOL_VERSION}" in str(err.value)
            assert isinstance(err.value, WireProtocolError)
            assert not isinstance(err.value, AuthenticationError)
        finally:
            left.close()
            right.close()

    def test_current_version_of_the_wrong_shape_is_not_a_version_error(self):
        """A challenge naming this version but carrying a v3-style codec
        list is malformed: an authentication failure, not a version one."""
        left, right = _socketpair()
        try:
            send_frame(
                right, ("challenge", PROTOCOL_VERSION, bytes(16), ("raw",))
            )
            with pytest.raises(AuthenticationError):
                WireSession.client(left)
        finally:
            left.close()
            right.close()

    def test_stale_worker_is_reported_once_without_retry(self):
        """A worker on the previous version is named at once — one
        connect, its own telemetry category and handshake outcome — not
        retried with backoff like a torn handshake."""
        stale = _StaleWorker()
        try:
            with DistributedExecutor(
                [stale.address], connect_retries=3, heartbeat_interval=None
            ) as executor:
                with pytest.warns(FleetDegradedWarning):
                    assert executor.map(_double, [1, 2]) == [2, 4]
                assert stale.connections == 1
                assert executor.telemetry.counts() == {stale.address: {"version": 1}}
                total = executor.registry.total
                assert total("exec_handshakes_total", outcome="version") == 1
                assert total("exec_handshakes_total") == 1
        finally:
            stale.close()


def _array_value(dtype_str, shape, data):
    """A hand-built array value: ``A || dtype || ndim || extents || bytes``."""
    text = dtype_str.encode()
    return (
        b"A" + _LENGTH.pack(len(text)) + text + bytes([len(shape)])
        + b"".join(_LENGTH.pack(extent) for extent in shape)
        + _LENGTH.pack(len(data)) + data
    )


class TestArrayPayloadCodec:
    """The value codec's array lane: dtype, shape and raw C-order bytes,
    decoded into one copy that owns its memory."""

    def test_non_binary_uint8_ships_raw(self):
        array = np.arange(16, dtype=np.uint8).reshape(4, 4)
        payload = encode_value(array)
        assert payload == _array_value("|u1", (4, 4), array.tobytes())
        out = decode_value(payload)
        assert np.array_equal(out, array)
        assert out.flags.writeable and out.flags.owndata

    def test_float_array_round_trips_raw(self):
        array = np.linspace(0.0, 1.0, 12).reshape(3, 4)
        payload = encode_value(array)
        # The float64 bytes start at an odd offset of the frame buffer.
        assert (len(payload) - array.nbytes) % array.itemsize != 0
        out = decode_value(payload)
        assert out.dtype == array.dtype
        assert np.array_equal(out, array)
        assert out.flags.aligned and out.flags.writeable and out.flags.owndata

    def test_zero_size_shape_round_trips(self):
        array = np.zeros((0, 5), dtype=np.float64)
        out = decode_value(encode_value(array))
        assert out.shape == (0, 5) and out.dtype == array.dtype
        assert out.flags.writeable and out.flags.owndata

    def test_bad_dtype_rejected(self):
        with pytest.raises(CorruptFrameError):
            decode_value(_array_value("not-a-dtype", (0,), b""))

    def test_object_dtype_rejected(self):
        with pytest.raises(UnencodableError):
            encode_value(np.array([object()]))
        with pytest.raises(CorruptFrameError):
            decode_value(_array_value("|O", (0,), b""))

    def test_size_mismatch_rejected(self):
        with pytest.raises(CorruptFrameError):
            decode_value(_array_value("|u1", (2, 4), b"\x00" * 7))


class TestResolveSecret:
    def test_explicit_bytes_win(self, monkeypatch):
        monkeypatch.setenv(wire.DEFAULT_SECRET_ENV, "from-env")
        assert resolve_secret(b"explicit") == b"explicit"

    def test_explicit_str_is_encoded(self):
        assert resolve_secret("pass-phrase") == b"pass-phrase"

    def test_env_beats_dev_default(self, monkeypatch):
        monkeypatch.setenv(wire.DEFAULT_SECRET_ENV, "from-env")
        assert resolve_secret(None) == b"from-env"

    def test_dev_default_is_last_resort(self, monkeypatch):
        monkeypatch.delenv(wire.DEFAULT_SECRET_ENV, raising=False)
        assert resolve_secret(None) == wire._DEV_SECRET


needs_openssl = pytest.mark.skipif(
    shutil.which("openssl") is None, reason="openssl CLI not available"
)


@needs_openssl
class TestTLSLoopback:
    @pytest.fixture()
    def cert_pair(self, tmp_path):
        """A self-signed cert/key for 127.0.0.1, minted via openssl."""
        cert = tmp_path / "cert.pem"
        key = tmp_path / "key.pem"
        subprocess.run(
            [
                "openssl", "req", "-x509", "-newkey", "rsa:2048",
                "-keyout", str(key), "-out", str(cert),
                "-days", "1", "-nodes", "-subj", "/CN=127.0.0.1",
                "-addext", "subjectAltName=IP:127.0.0.1",
            ],
            check=True,
            capture_output=True,
        )
        return cert, key

    def test_map_over_tls_with_shared_secret(self, cert_pair):
        cert, key = cert_pair
        server_ctx = ssl.SSLContext(ssl.PROTOCOL_TLS_SERVER)
        server_ctx.load_cert_chain(str(cert), str(key))
        client_ctx = ssl.SSLContext(ssl.PROTOCOL_TLS_CLIENT)
        client_ctx.load_verify_locations(str(cert))
        with LoopbackWorker(
            secret=b"tls-suite-secret", ssl_context=server_ctx
        ) as worker:
            with DistributedExecutor(
                [worker.endpoint],
                secret=b"tls-suite-secret",
                ssl_context=client_ctx,
                local_fallback=False,
            ) as executor:
                assert executor.map(_double, [1, 2, 3]) == [2, 4, 6]
                assert executor.registry.total("exec_handshakes_total") == 1

    def test_stop_is_prompt_with_an_idle_tls_session(self, cert_pair):
        """The worker shuts down the TLS-wrapped socket of an idle
        session (wrapping detached the accepted one), so a client that
        keeps the session open does not hold up stop()."""
        cert, key = cert_pair
        server_ctx = ssl.SSLContext(ssl.PROTOCOL_TLS_SERVER)
        server_ctx.load_cert_chain(str(cert), str(key))
        client_ctx = ssl.SSLContext(ssl.PROTOCOL_TLS_CLIENT)
        client_ctx.load_verify_locations(str(cert))
        worker = LoopbackWorker(secret=b"tls-suite-secret", ssl_context=server_ctx)
        with DistributedExecutor(
            [worker.endpoint],
            secret=b"tls-suite-secret",
            ssl_context=client_ctx,
            local_fallback=False,
        ) as executor:
            assert executor.map(_double, [1, 2, 3]) == [2, 4, 6]
            assert executor.map(_double, [4]) == [8]
            assert executor.registry.total("exec_handshakes_total") == 1
            start = time.monotonic()
            worker.stop()
            assert time.monotonic() - start < 0.5

    def test_wrong_secret_over_tls_is_auth_failure(self, cert_pair):
        """TLS succeeding is not enough: the worker still demands the
        shared-secret handshake inside the tunnel."""
        cert, key = cert_pair
        server_ctx = ssl.SSLContext(ssl.PROTOCOL_TLS_SERVER)
        server_ctx.load_cert_chain(str(cert), str(key))
        client_ctx = ssl.SSLContext(ssl.PROTOCOL_TLS_CLIENT)
        client_ctx.load_verify_locations(str(cert))
        with LoopbackWorker(
            secret=b"worker-secret", ssl_context=server_ctx
        ) as worker:
            with DistributedExecutor(
                [worker.endpoint],
                secret=b"client-secret",
                ssl_context=client_ctx,
                local_fallback=True,
            ) as executor:
                # Authentication fails closed; the work still completes
                # via the local fallback and telemetry says why.
                with pytest.warns(FleetDegradedWarning):
                    assert executor.map(_double, [5]) == [10]
                counts = executor.telemetry.counts()[worker.address]
                assert counts.get("auth", 0) >= 1
