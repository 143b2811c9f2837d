"""The distributed worker: an authenticated serve loop for task frames.

One worker process serves one or more client connections.  Every
connection starts with the :class:`~repro.exec.wire.WireSession`
challenge–response handshake (mutual HMAC proofs over a per-worker
shared secret, optional TLS underneath); after it, each frame is
schema-encoded — **never pickle** — and carries a MAC over the session
nonce and a strict sequence number, so a tampered or replayed frame is
refused before it is even decoded.  The frame vocabulary is closed:

* ``("ping",)`` → ``("pong",)`` — liveness probe;
* ``("register_fn", digest, fn_bytes)`` → ``("ok", None)`` — cache the
  schema-encoded task callable under its content ``digest``.  The
  worker verifies the digest against the bytes, stores them **encoded**,
  and decodes a fresh callable per map frame — decoding resolves only
  :func:`~repro.exec.wire.register_wire_function` /
  :func:`~repro.exec.wire.register_wire_type` names, so the worker never
  executes code shipped in a frame, it looks up code it already has.
  An engine trial runner carries its spec, fixed input matrix included,
  so the matrix reaches each worker once per distinct runner;
* ``("map", fn_digest, items)`` → ``("ok", [fn(x) for x in items])`` on
  success or ``("err", exception, traceback_text)`` if a task raised —
  the client re-raises task errors, exactly like a local executor
  would.  A map naming a digest this worker does not hold is answered
  ``("need_fn", digest)`` and the client re-registers (how a restarted
  worker transparently refills).  A tracing client appends a span-context
  id as an optional fourth element; workers accept both shapes;
* closing the connection ends the session.

Authentication is mandatory; the shared secret comes from
``--secret-file``, the ``REPRO_WIRE_SECRET`` environment variable, or
(for loopback development only) the well-known dev secret.  ``--tls-cert``
/ ``--tls-key`` additionally wrap every connection in TLS.  See
``docs/robustness.md`` for the threat model and key distribution.

Run a worker from the command line::

    python -m repro.exec.worker --host 0.0.0.0 --port 9123 \\
        --secret-file /run/secrets/repro-wire

A worker runs each chunk inline in its connection's serving thread, so
one worker process computes on one core.  To use a many-core host, run
one worker process per core and list every address in the client's
``DistributedExecutor``.  ``--fault-plan plan.json`` (with
``--fault-site``) arms the serve loop with a deterministic
:class:`~repro.exec.faults.FaultPlan` schedule — real-subprocess chaos
for the conformance suite; see ``docs/robustness.md``.
:func:`serve` is also importable directly, which is how the in-process
:class:`~repro.exec.distributed.LoopbackWorker` used by the test-suite
hosts the same loop on a background thread.
"""

from __future__ import annotations

import argparse
import logging
import socket
import threading
import time
import traceback
from typing import TYPE_CHECKING, Any, Callable

from ..obs.metrics import MetricsRegistry
from ..obs.trace import NULL_TRACER, NullTracer, Tracer
from .faults import MANGLE_KINDS, FaultEvent, FaultInjector, FaultPlan, send_mangled
from .wire import (
    MAX_FRAME_BYTES,
    CorruptFrameError,
    FrameAuthenticationError,
    SchemaViolationError,
    WireProtocolError,
    WireSession,
    decode_value,
    function_digest,
)

logger = logging.getLogger(__name__)

if TYPE_CHECKING:  # pragma: no cover - typing only
    import ssl

__all__ = [
    "MAX_FRAME_BYTES",
    "serve",
    "main",
]

#: LRU bound on the task callables one serve loop keeps registered.  An
#: engine trial runner carries its fixed input matrix, so this also
#: bounds how many such matrices a worker holds.
MAX_CACHED_FNS = 64


class _DigestLRU:
    """One serve loop's registered callables, shared by its connections.

    Callables stay **encoded**: each map frame decodes a fresh one, so
    no state a chunk leaves on it leaks into the next.  The bound keeps a
    worker serving many clients (or one client sweeping over many specs)
    from growing without limit.  Eviction is safe: a map naming an
    evicted digest is answered ``("need_fn", digest)`` and the client
    registers it again.
    """

    def __init__(self, max_entries: int):
        self.max_entries = max_entries
        self._lock = threading.Lock()
        self._entries: dict[str, Any] = {}

    def put(self, digest: str, value: Any) -> None:
        with self._lock:
            self._entries.pop(digest, None)
            self._entries[digest] = value
            while len(self._entries) > self.max_entries:
                del self._entries[next(iter(self._entries))]

    def get(self, digest: str) -> Any:
        """The value cached under ``digest`` (now most recent), or ``None``."""
        with self._lock:
            value = self._entries.pop(digest, None)
            if value is not None:
                self._entries[digest] = value
            return value


#: Frame kind → the fault scope its replies are scheduled under.
#: ``register_fn`` is the one upload, scheduled under ``publish``.
_FRAME_SCOPES = {
    "ping": "ping",
    "register_fn": "publish",
    "map": "map",
}


def _reply(session: WireSession, obj: Any, fault: "FaultEvent | None") -> bool:
    """Send a reply frame, mangled if the planned fault says so.

    Returns ``False`` when the connection must close afterwards (a
    mangled frame is followed by a close, so the client's decoder sees
    the damage immediately instead of waiting out a socket timeout).
    """
    if fault is not None and fault.kind in MANGLE_KINDS:
        send_mangled(session, obj, fault.kind)
        return False
    session.send(obj)
    return True


def _task_error_reply(exc: BaseException) -> tuple[Any, ...]:
    return ("err", exc, traceback.format_exc())


def _handle_connection(
    served: list[socket.socket],
    fn_store: _DigestLRU,
    fault_injector: "FaultInjector | None" = None,
    tracer: "Tracer | NullTracer" = NULL_TRACER,
    secret: "bytes | str | None" = None,
    ssl_context: "ssl.SSLContext | None" = None,
    registry: "MetricsRegistry | None" = None,
) -> None:
    """Serve one client until it disconnects.

    ``served`` holds the accepted connection.  It is TLS-wrapped first
    (when the serve loop has a server context), and the wrapped socket
    replaces it in ``served``, because wrapping detaches the accepted
    one and :func:`serve` must shut down the socket actually served.
    The connection is then authenticated with the
    :class:`~repro.exec.wire.WireSession` handshake; a failed handshake
    is logged, counted (``worker_handshakes_total{outcome=...}``), and
    closed without serving a single frame.  ``fn_store`` is the serve
    loop's cache of registered callables, shared across this worker's
    connections.
    ``fault_injector`` is consulted once per received frame and applies
    the planned-fault vocabulary of :mod:`repro.exec.faults`.
    """
    conn = served[0]
    try:
        try:
            if ssl_context is not None:
                conn = served[0] = ssl_context.wrap_socket(conn, server_side=True)
            session = WireSession.server(conn, secret)
        except WireProtocolError as exc:
            if registry is not None:
                registry.counter(
                    "worker_handshakes_total", outcome="auth"
                ).inc()
            logger.warning("handshake failed: %s", exc)
            return
        except (OSError, EOFError) as exc:
            if registry is not None:
                registry.counter(
                    "worker_handshakes_total", outcome="error"
                ).inc()
            logger.warning("handshake transport failure: %s", exc)
            return
        if registry is not None:
            registry.counter("worker_handshakes_total", outcome="ok").inc()
        while True:
            try:
                message = session.recv()
            except (FrameAuthenticationError, CorruptFrameError) as exc:
                # A client-side frame that fails verification or schema
                # decoding: refuse it loudly (counted) and drop the
                # connection — never execute a frame that did not verify.
                if registry is not None:
                    reason = (
                        "auth"
                        if isinstance(exc, FrameAuthenticationError)
                        else "corrupt"
                    )
                    registry.counter(
                        "worker_frames_rejected_total", reason=reason
                    ).inc()
                logger.warning("rejected inbound frame: %s", exc)
                return
            except ConnectionError:
                return
            if fault_injector is not None and fault_injector.hung:
                # A wedged process answers nothing on any connection —
                # including this one, mid-session, or idle since an
                # earlier map.
                fault_injector.wait_while_hung()
                return
            if not (
                isinstance(message, tuple)
                and message
                and isinstance(message[0], str)
            ):
                session.send(
                    ("err", SchemaViolationError("malformed frame"), "")
                )
                continue
            kind = message[0]
            fault = (
                fault_injector.next_fault(_FRAME_SCOPES.get(kind, "map"))
                if fault_injector is not None
                else None
            )
            if fault is not None:
                if fault.kind == "hang":
                    fault_injector.hang()
                    return
                if fault.kind == "crash":
                    # Close without replying: the client sees a clean
                    # mid-request EOF, exactly like a killed process.
                    return
                if fault.kind == "slow":
                    time.sleep(fault.delay)
            if kind == "ping":
                if not _reply(session, ("pong",), fault):
                    return
                continue
            if kind == "register_fn":
                try:
                    if len(message) != 3:
                        raise SchemaViolationError("malformed register_fn frame")
                    _, digest, fn_bytes = message
                    if not isinstance(digest, str) or not isinstance(
                        fn_bytes, bytes
                    ):
                        raise SchemaViolationError("malformed register_fn frame")
                    if function_digest(fn_bytes) != digest:
                        raise SchemaViolationError(
                            f"register_fn digest mismatch for {digest[:12]}…"
                        )
                    if fault is None or fault.kind != "lose_publish":
                        fn_store.put(digest, fn_bytes)
                    reply: tuple[Any, ...] = ("ok", None)
                except Exception as exc:  # noqa: BLE001 - shipped back
                    reply = _task_error_reply(exc)
                if not _reply(session, reply, fault):
                    return
                continue
            if kind != "map":
                session.send(
                    ("err", ValueError(f"unknown frame kind {kind!r}"), "")
                )
                continue
            if not (
                3 <= len(message) <= 4
                and isinstance(message[1], str)
                and isinstance(message[2], list)
            ):
                session.send(
                    ("err", SchemaViolationError("malformed map frame"), "")
                )
                continue
            # Tracing clients append a span-context id as an optional
            # fourth element; both frame shapes are accepted.
            _, fn_digest, items = message[:3]
            ctx = message[3] if len(message) > 3 else None
            fn_bytes = fn_store.get(fn_digest)
            if fn_bytes is None:
                # Tell the client to register (e.g. this worker
                # restarted, or its bounded cache evicted the callable)
                # instead of failing the chunk.
                if not _reply(session, ("need_fn", fn_digest), fault):
                    return
                continue
            try:
                fn = decode_value(fn_bytes)
            except ConnectionError as exc:
                # Undecodable despite a verified digest: a registry
                # asymmetry between client and worker (e.g. a function
                # registered only client-side).  A task error, not a
                # transport one — the client surfaces it.
                session.send(_task_error_reply(exc))
                continue
            try:
                with tracer.span(
                    "exec_chunk", track="worker", items=len(items), ctx=ctx
                ):
                    payload = [fn(item) for item in items]
                if not _reply(session, ("ok", payload), fault):
                    return
            except Exception as exc:  # noqa: BLE001 - shipped to the client
                session.send(_task_error_reply(exc))
    finally:
        conn.close()


def serve(
    host: str = "127.0.0.1",
    port: int = 0,
    stop_event: threading.Event | None = None,
    ready_callback: Callable[[tuple[str, int]], None] | None = None,
    fault_injector: "FaultInjector | None" = None,
    tracer: "Tracer | NullTracer" = NULL_TRACER,
    secret: "bytes | str | None" = None,
    ssl_context: "ssl.SSLContext | None" = None,
    registry: "MetricsRegistry | None" = None,
) -> None:
    """Accept connections and execute task frames until ``stop_event`` is set.

    ``port=0`` binds an OS-assigned port; ``ready_callback`` receives the
    actual ``(host, port)`` once listening — how in-process loopback
    workers discover their address.  Each connection gets a serving
    thread that runs its chunks inline, for as long as the client keeps
    the session open: a client keeps idle sessions between map calls,
    so on stop the loop shuts down every live connection's socket (the
    TLS-wrapped one under TLS) to wake handlers blocked reading it
    before joining them.  A connection accepted once ``stop_event`` is
    set is closed unserved, so a stopper may connect to wake the loop
    rather than wait for its 0.1 s poll.  ``fault_injector`` arms the
    loop with a deterministic :class:`~repro.exec.faults.FaultPlan`
    schedule: it is consulted on every accepted connection (any
    ``accept``-scope fault closes the connection immediately — the
    observable shape of a refused or reset connection injected from
    inside a listening process) and on every received frame; the loop
    releases any hung connections when it exits.  Accept-scope faults
    fire *before* the handshake — a refused connection refuses everyone
    equally — while frame faults mangle authenticated traffic **after**
    the MAC is computed, so chaos cells exercise the client's
    verification path.

    ``secret`` is this worker's shared authentication secret
    (:func:`~repro.exec.wire.resolve_secret` semantics: explicit value,
    else ``REPRO_WIRE_SECRET``, else the development secret).
    ``ssl_context`` (a ``PROTOCOL_TLS_SERVER`` context) additionally
    wraps every accepted connection in TLS.  ``registry`` receives the
    worker-side handshake / rejected-frame counters.

    Registered task callables live in one digest-keyed LRU cache scoped
    to this serve call and shared by all its connections: at most
    :data:`MAX_CACHED_FNS` encoded callables, each trial runner with its
    fixed input matrix.  Clients refill an evicted digest through the
    ``("need_fn", digest)`` reply.

    ``tracer`` records a ``worker``-track span per executed chunk,
    tagged with the span-context id the client's map frame carried (if
    any) — for in-process loopback workers this is typically the
    *client's* tracer, so both sides land in one timeline.
    """
    fn_store = _DigestLRU(MAX_CACHED_FNS)
    server = socket.create_server((host, port))
    server.settimeout(0.1)
    # Each live handler with the one-socket list it serves on.
    handlers: list[tuple[threading.Thread, list[socket.socket]]] = []
    try:
        if ready_callback is not None:
            ready_callback(server.getsockname()[:2])
        while stop_event is None or not stop_event.is_set():
            # A long-lived worker sees many connections; drop the
            # handles of finished handlers so the list stays bounded.
            handlers = [handler for handler in handlers if handler[0].is_alive()]
            try:
                conn, _addr = server.accept()
            except socket.timeout:
                continue
            if stop_event is not None and stop_event.is_set():
                # The stopper's wake-up connection, or a client too late.
                conn.close()
                break
            if fault_injector is not None:
                accept_fault = fault_injector.next_fault("accept")
                if accept_fault is not None:
                    # Whatever the kind, an accept-scope fault denies
                    # the client this connection ("refuse" in plans).
                    conn.close()
                    continue
            served = [conn]
            thread = threading.Thread(
                target=_handle_connection,
                args=(
                    served,
                    fn_store,
                    fault_injector,
                    tracer,
                    secret,
                    ssl_context,
                    registry,
                ),
                daemon=True,
            )
            thread.start()
            handlers.append((thread, served))
    finally:
        server.close()
        if fault_injector is not None:
            # Release connections blocked in the sticky hung state so
            # their handler threads can exit.
            fault_injector.stop()
        for _thread, served in handlers:
            # shutdown() wakes a handler blocked in recv(); close() would not.
            try:
                served[0].shutdown(socket.SHUT_RDWR)
            except OSError as exc:
                logger.debug("connection already closed at stop: %s", exc)
        for thread, _served in handlers:
            thread.join(timeout=1.0)


def main(argv: list[str] | None = None) -> None:
    """CLI entry point: parse flags, announce the bound address, serve."""
    parser = argparse.ArgumentParser(
        description="Serve repro.exec tasks to DistributedExecutor clients."
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument(
        "--port",
        type=int,
        default=9123,
        help="TCP port to listen on (0 = OS-assigned; the actual port is "
        "printed once listening)",
    )
    parser.add_argument(
        "--secret-file",
        metavar="FILE",
        default=None,
        help="file holding the shared authentication secret (whitespace-"
        "stripped).  Without it the secret comes from the "
        "REPRO_WIRE_SECRET environment variable, falling back to the "
        "well-known development secret (loopback testing only).",
    )
    parser.add_argument(
        "--tls-cert",
        metavar="PEM",
        default=None,
        help="serve TLS with this certificate chain (requires --tls-key)",
    )
    parser.add_argument(
        "--tls-key",
        metavar="PEM",
        default=None,
        help="private key for --tls-cert",
    )
    parser.add_argument(
        "--fault-plan",
        metavar="FILE",
        default=None,
        help="arm the serve loop with a deterministic fault schedule: a "
        "JSON file written by FaultPlan.to_json() (chaos testing; see "
        "docs/robustness.md)",
    )
    parser.add_argument(
        "--fault-site",
        default="worker-0",
        help="which site's schedule of --fault-plan this worker plays "
        "(default: worker-0)",
    )
    parser.add_argument(
        "--log-level",
        default="warning",
        choices=("debug", "info", "warning", "error", "critical"),
        help="stdlib logging threshold for worker diagnostics, emitted "
        "on stderr (default: warning).  The port-announce line always "
        "goes to stdout regardless — scripts parse it as the readiness "
        "signal.",
    )
    args = parser.parse_args(argv)

    logging.basicConfig(
        level=getattr(logging, args.log_level.upper()),
        format="%(asctime)s %(levelname)s %(name)s: %(message)s",
    )

    secret: "bytes | None" = None
    if args.secret_file is not None:
        with open(args.secret_file, "rb") as handle:
            secret = handle.read().strip()
        if not secret:
            parser.error(f"--secret-file {args.secret_file} is empty")

    ssl_context = None
    if (args.tls_cert is None) != (args.tls_key is None):
        parser.error("--tls-cert and --tls-key must be given together")
    if args.tls_cert is not None:
        import ssl as _ssl

        ssl_context = _ssl.SSLContext(_ssl.PROTOCOL_TLS_SERVER)
        ssl_context.load_cert_chain(args.tls_cert, args.tls_key)

    injector = None
    if args.fault_plan is not None:
        with open(args.fault_plan, encoding="utf-8") as handle:
            plan = FaultPlan.from_json(handle.read())
        injector = plan.injector(args.fault_site)
        logger.info(
            "armed fault plan %s (site %s)", args.fault_plan, args.fault_site
        )

    def announce(bound: tuple[str, int]) -> None:
        # The one deliberate print: with --port 0 this line is the only
        # way to learn the OS-assigned port, and scripts treat it as the
        # readiness signal — its exact shape on *stdout* is API
        # (logging goes to stderr and is reconfigurable, this is not).
        print(f"repro.exec worker listening on {bound[0]}:{bound[1]}", flush=True)
        logger.info(
            "serving on %s:%s (tls=%s)",
            bound[0],
            bound[1],
            "on" if ssl_context is not None else "off",
        )

    serve(
        args.host,
        args.port,
        ready_callback=announce,
        fault_injector=injector,
        secret=secret,
        ssl_context=ssl_context,
    )


if __name__ == "__main__":  # pragma: no cover - CLI entry point
    try:
        # ``python -m repro.exec.worker`` executes this file as
        # ``__main__``; delegating to the canonical module runs the one
        # copy the rest of the package imports, and keeps the logger
        # named ``repro.exec.worker`` rather than ``__main__``.
        from repro.exec.worker import main as _canonical_main
    except ImportError:
        _canonical_main = main
    _canonical_main()
