"""``DistributedExecutor`` — the ``Executor.map`` contract over sockets.

The third rung of the executor ladder: :class:`~repro.core.engine
.SerialExecutor` (one core), :class:`~repro.exec.pool.WorkerPool` (one
machine, warm), and this — many machines, each running a
:mod:`repro.exec.worker` serve loop.  Because the engine seeds batch
trial ``t`` purely from ``SeedSequence(seed).spawn(trials)[t]``, moving a
trial to another host changes *nothing* about its randomness: results
are bit-identical to the serial backend no matter how tasks land on
workers.

Every connection is an authenticated
:class:`~repro.exec.wire.WireSession`: a shared-secret HMAC handshake at
connect (optionally under TLS), then schema-encoded frames — **never
pickle** — each carrying a MAC over the session key and a sequence
number, so a tampered or replayed frame raises a typed error instead of
being computed on.  Sessions outlive map calls: the executor keeps each
worker's idle sessions and a map's lane checks one out, so a warm
executor dials and handshakes only when it has no idle session to that
worker (its first map, a lane lost mid-map, a worker that hung up while
idle).  Task callables do not travel either: the executor registers the
encoded callable once per worker under its content digest
(``register_fn``) and map frames reference the digest; a worker that
restarted answers ``("need_fn", digest)`` and is transparently
re-registered.  An engine trial runner carries its spec, so a fixed
input matrix rides that one upload: it reaches each worker once per
distinct runner, never once per chunk.

Dispatch runs the shared :func:`~repro.exec.stealing.dispatch` loop
with one wire lane per worker — one feeder thread per session, each
keeping one chunk in flight and stealing queued chunks from slower hosts
once its own share is done, so a heterogeneous fleet finishes when the
work runs out rather than when the slowest host does.  A worker that
disconnects mid-batch loses its lane (raising
:class:`~repro.exec.stealing.LaneLost`) and its unfinished chunks are
stolen by the surviving workers; when every worker is gone the remainder
runs locally (with a loud
:class:`~repro.exec.health.FleetDegradedWarning`) — a batch never fails
because the fleet shrank.  Task exceptions, by contrast, are shipped
back and re-raised exactly like a local executor would.

The failure model is tested, not aspirational (``docs/robustness.md``):
a per-map **heartbeat monitor** probes every worker on fresh
connections and drives the ``healthy → suspect → dead`` state machine
of :class:`~repro.exec.health.HealthBoard`, so a *hung* worker — one
whose accept queue still completes TCP handshakes while the process
answers nothing — is detected within the suspect window instead of
stalling a batch until its socket dies; each chunk carries a finite
deadline (``task_timeout``, default 300 s) and a timed-out chunk is
requeued to the survivors; failed lanes are retried a bounded number of
times with exponential backoff whose jitter is deterministic
(seed-derived — replayable schedules, no retry stampede); and every
handled failure lands in :class:`~repro.exec.health.ErrorTelemetry`
(``executor.telemetry``) rather than an ``except: pass``.  Under any
fault schedule the deterministic fault-injection harness
(:mod:`repro.exec.faults`) can produce, results are bit-identical to
:class:`~repro.core.engine.SerialExecutor` or the failure is a loud
typed error — never silent partial output.

Workers for tests (or single-machine smoke runs) can live in-process:
:class:`LoopbackWorker` hosts the same serve loop on a background thread
bound to ``127.0.0.1``.
"""

from __future__ import annotations

import select
import socket
import threading
import warnings
from typing import TYPE_CHECKING, Any, Callable, Iterable, cast

from ..core.engine import Executor
from ..obs.metrics import MetricsRegistry
from ..obs.recorder import FlightRecorder
from ..obs.trace import NULL_TRACER, NullTracer, Tracer
from .health import (
    DEAD,
    ErrorTelemetry,
    FleetDegradedWarning,
    HealthBoard,
    RetryPolicy,
    WorkerTimeoutError,
)
from .stealing import Chunk, LaneLost, dispatch
from .wire import (
    AuthenticationError,
    CorruptFrameError,
    FrameAuthenticationError,
    ProtocolVersionError,
    UnencodableError,
    WireProtocolError,
    WireSession,
    encode_value,
    function_digest,
    register_wire_function,
)
from .worker import MAX_CACHED_FNS, serve

if TYPE_CHECKING:  # pragma: no cover - typing only
    import ssl

    from .faults import FaultInjector

__all__ = ["DistributedExecutor", "LoopbackWorker"]


@register_wire_function
def _shout(text: str) -> str:
    """The doc-example workload (registered so it travels by name)."""
    return text.upper()


def _failure_category(exc: BaseException) -> str:
    """The telemetry category a handled lane failure is recorded under."""
    if isinstance(exc, WorkerTimeoutError):
        return "timeout"
    if isinstance(exc, FrameAuthenticationError):
        return "auth"
    if isinstance(exc, CorruptFrameError):
        return "corrupt"
    if isinstance(exc, (ConnectionError, OSError, EOFError)):
        return "transport"
    return "protocol"


def _parse_address(address: "str | tuple[str, int]") -> tuple[str, int]:
    if isinstance(address, tuple):
        host, port = address
        return str(host), int(port)
    host, sep, port = address.rpartition(":")
    if not sep or not host or not port.isdigit():
        raise ValueError(
            f"worker address must be 'host:port' or (host, port), got {address!r}"
        )
    if host.startswith("[") and host.endswith("]"):
        host = host[1:-1]  # "[::1]:9123" bracket form
    elif ":" in host:
        raise ValueError(
            f"IPv6 worker addresses need brackets ('[::1]:9123'), got {address!r}"
        )
    return host, int(port)


class _WorkerLink:
    """One authenticated client connection, lazily (re)connected.

    Connecting means: TCP connect, optional TLS wrap, then the
    :class:`~repro.exec.wire.WireSession` challenge–response handshake —
    a link either holds a fully authenticated session or no connection
    at all.  ``connect_retries`` extra attempts are made (spaced by the
    deterministic ``retry_policy`` backoff) before the link reports
    itself unreachable — except on :class:`~repro.exec.wire
    .AuthenticationError` (the secrets disagree) and
    :class:`~repro.exec.wire.ProtocolVersionError` (the worker runs
    another wire version), which no retry will heal and which are
    reported immediately, as ``"auth"`` and ``"version"``.  Every
    handled failure is recorded in ``telemetry`` under the link's worker
    address, and handshake outcomes are counted on ``registry``
    (``exec_handshakes_total{outcome=ok|auth|version|error}``).
    """

    def __init__(
        self,
        address: tuple[str, int],
        connect_timeout: float,
        task_timeout: float | None = None,
        lane: int = 0,
        telemetry: "ErrorTelemetry | None" = None,
        retry_policy: "RetryPolicy | None" = None,
        connect_retries: int = 0,
        secret: "bytes | str | None" = None,
        ssl_context: "ssl.SSLContext | None" = None,
        registry: "MetricsRegistry | None" = None,
    ):
        self.address = address
        self.connect_timeout = connect_timeout
        self.task_timeout = task_timeout
        self.lane = lane
        self.telemetry = telemetry
        self.retry_policy = retry_policy
        self.connect_retries = connect_retries
        self.secret = secret
        self.ssl_context = ssl_context
        self.registry = registry
        self.sock: socket.socket | None = None
        self.session: WireSession | None = None
        #: True from sending a frame until its reply is read whole, so a
        #: request that raised leaves the session out of frame sync.
        self._in_request = False

    @property
    def idle(self) -> bool:
        """Connected, with every request answered: fit to carry another map."""
        return self.session is not None and not self._in_request

    def reusable(self) -> bool:
        """Whether this idle session can still carry frames.

        An idle worker sends nothing, so anything readable on the socket
        (EOF, a reset, stray bytes) means the worker hung up or the
        session lost sync.  A TLS socket may also hold decrypted bytes
        that ``select`` cannot see.
        """
        sock = self.sock
        if sock is None:
            return False
        try:
            readable, _, _ = select.select([sock], [], [], 0)
            if self.ssl_context is not None and cast("ssl.SSLSocket", sock).pending():
                return False
        except (OSError, ValueError):  # a closed socket, or fd >= FD_SETSIZE
            return False
        return not readable

    def _record(self, category: str) -> None:
        if self.telemetry is not None:
            self.telemetry.record(self.address, category)

    def _count_handshake(self, outcome: str) -> None:
        if self.registry is not None:
            self.registry.counter(
                "exec_handshakes_total", outcome=outcome
            ).inc()

    def ensure_connected(self) -> bool:
        if self.session is not None:
            return True
        for attempt in range(self.connect_retries + 1):
            if attempt and self.retry_policy is not None:
                self.retry_policy.wait(attempt - 1, self.lane)
            sock: socket.socket | None = None
            try:
                sock = socket.create_connection(
                    self.address, timeout=self.connect_timeout
                )
                # task_timeout bounds every frame round-trip (the
                # per-chunk deadline); TCP keepalive additionally
                # surfaces a silently-partitioned peer when the caller
                # opted into task_timeout=None.
                sock.settimeout(self.task_timeout)
                sock.setsockopt(socket.SOL_SOCKET, socket.SO_KEEPALIVE, 1)
                if self.ssl_context is not None:
                    sock = self.ssl_context.wrap_socket(
                        sock, server_hostname=self.address[0]
                    )
                session = WireSession.client(sock, self.secret)
            except (AuthenticationError, ProtocolVersionError) as exc:
                # The worker refused our proof (or presented a bad one),
                # or speaks another wire version: the secrets or the
                # deployed code disagree, and no retry heals that.  Loud
                # and immediate — a misconfigured fleet must not look
                # like a flaky network.
                category = "auth" if isinstance(exc, AuthenticationError) else "version"
                self._record(category)
                self._count_handshake(category)
                if sock is not None:
                    sock.close()
                return False
            except WireProtocolError:
                # Handshake failed for another reason (a truncated or
                # malformed exchange).
                self._record("connect")
                self._count_handshake("error")
                if sock is not None:
                    sock.close()
                continue
            except OSError:
                if sock is not None:
                    sock.close()
                self._record("connect")
                continue
            self.sock = sock
            self.session = session
            self._count_handshake("ok")
            return True
        return False

    def request(self, payload: Any) -> Any:
        """One round-trip; raises ``ConnectionError`` on transport failure.

        The error is typed by diagnosis: a frame that takes longer than
        ``task_timeout`` raises
        :class:`~repro.exec.health.WorkerTimeoutError`; a frame whose
        MAC does not verify raises
        :class:`~repro.exec.wire.FrameAuthenticationError`; a damaged
        frame raises another :class:`~repro.exec.wire.WireProtocolError`
        subclass; everything else surfaces as plain
        :class:`ConnectionError`.  All are ``ConnectionError``
        subclasses, so callers can handle transport failure uniformly
        and still tell the cases apart.
        """
        session = self.session
        if session is None:
            # The heartbeat monitor dropped this link concurrently (the
            # worker was declared dead mid-request).
            raise ConnectionError(f"link to {self.address} was dropped")
        self._in_request = True
        try:
            reply = session.request(payload)
        except ConnectionError:
            raise  # already typed (includes the WireProtocolError family)
        except TimeoutError as exc:
            raise WorkerTimeoutError(
                f"worker {self.address[0]}:{self.address[1]} exceeded "
                f"task_timeout={self.task_timeout}s answering a frame"
            ) from exc
        except (OSError, EOFError) as exc:
            raise ConnectionError(str(exc)) from exc
        self._in_request = False
        return reply

    def drop(self) -> None:
        sock, self.sock = self.sock, None
        self.session = None
        self._in_request = False
        if sock is not None:
            # shutdown() before close(): closing an fd does not wake a
            # thread blocked in recv() on it, shutdown() does — this is
            # what lets the heartbeat monitor unblock a feeder stuck on
            # a hung worker long before task_timeout.
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:  # repro-lint: disable=EXC03 ENOTCONN on an already-reset peer is the normal path
                pass
            try:
                sock.close()
            except OSError:
                # Nothing to salvage on a socket that will not even
                # close, but the failure is still counted.
                self._record("close")


class _WireLane:
    """One worker session as a :func:`~repro.exec.stealing.dispatch` lane.

    It holds the wire failure policy: a transport or protocol failure
    loses the lane (:class:`~repro.exec.stealing.LaneLost`), and
    :meth:`ready` revives a lost lane at most ``lane_retries`` times per
    map call, after the deterministic backoff — never for a worker the
    health board declared dead.
    """

    def __init__(
        self,
        executor: "DistributedExecutor",
        index: int,
        fn_digest: str,
        fn_bytes: bytes,
    ):
        self.executor = executor
        # A session of its own for this map call, so overlapping batches
        # never interleave frames; workers serve one handler thread per
        # connection.
        self.link = executor._checkout(index)
        self.fn_digest = fn_digest
        self.fn_bytes = fn_bytes
        #: Times this lane was lost in its map call.
        self.losses = 0
        self._lost = False
        self._lock = threading.Lock()

    def ready(self) -> bool:
        executor = self.executor
        if self._lost:
            if self.losses > executor.lane_retries or executor.health.is_dead(
                self.link.address
            ):
                return False
            executor._retry_policy.wait(self.losses - 1, self.link.lane)
            with self._lock:
                self._lost = False
        if self.link.ensure_connected():
            return True
        self.lose()
        return False

    def lose(self) -> None:
        """Drop the link; record ``lane_death`` once per failure."""
        self.link.drop()
        with self._lock:
            if self._lost:
                return
            self._lost = True
            self.losses += 1
        host, port = self.link.address
        self.executor.recorder.record(
            "lane_death",
            lane=self.link.lane,
            worker=f"{host}:{port}",
            loss=self.losses,
        )
        self.executor.tracer.instant("lane_death", track=f"lane-{self.link.lane}")

    def _heal(self, frame: tuple[Any, ...], reply: Any) -> Any:
        """Resolve ``need_fn`` replies by re-registering the callable.

        The worker lost the digest (it restarted, or its own bounded
        cache evicted it under concurrent-batch thrash): forget the
        stale ack, re-register, retry — a bounded number of times, so a
        hot eviction loop degrades to a lane failure rather than
        spinning.
        """
        executor = self.executor
        for _ in range(3):
            if reply[0] != "need_fn":
                break
            with executor._ack_lock:
                executor._fn_acks.get(self.link.address, {}).pop(reply[1], None)
            if reply[1] != self.fn_digest:
                raise ConnectionError(f"worker demanded unknown digest {reply[1]!r}")
            executor._register(self.link, self.fn_digest, self.fn_bytes)
            reply = self.link.request(frame)
        return reply

    def run(self, chunk: Chunk, span: Any) -> list[Any]:
        executor, link = self.executor, self.link
        # When tracing, the chunk span's context id rides the map frame
        # as an extra element — a tracer-armed worker tags its execution
        # span with it, so client and worker timelines correlate.  With
        # tracing off the frame is the classic 3-tuple: the wire is
        # byte-identical.
        if executor.tracer.enabled:
            ctx = executor.tracer.new_context()
            span.args.update(worker=f"{link.address[0]}:{link.address[1]}", ctx=ctx)
            frame: tuple[Any, ...] = ("map", self.fn_digest, chunk.items, ctx)
        else:
            frame = ("map", self.fn_digest, chunk.items)
        try:
            # Register lazily, only when this worker is about to receive
            # a frame referencing the digest — a lane that never claims a
            # chunk never gets the callable.  O(1) after the first chunk
            # (the ack table).
            executor._register(link, self.fn_digest, self.fn_bytes)
            reply = self._heal(frame, link.request(frame))
            if reply[0] == "ok":
                payload = list(reply[1])
                if len(payload) != len(chunk):
                    raise ConnectionError(
                        f"short reply: {len(payload)} results for {len(chunk)} tasks"
                    )
            elif reply[0] != "err":
                raise ConnectionError(f"unknown reply kind {reply[0]!r}")
        except Exception as exc:  # noqa: BLE001 - any transport/
            # protocol failure (dropped socket, chunk deadline, frame
            # that failed MAC or schema verification, malformed reply):
            # the chunk's fate is unknown, but tasks are pure, so
            # rerunning it elsewhere is safe.
            category = _failure_category(exc)
            executor.telemetry.record(link.address, category)
            executor.health.record_miss(link.address, reason=category)
            if executor.tracer.enabled:
                span.args["outcome"] = category
            self.lose()
            raise LaneLost(f"lane to {link.address} lost ({category})") from exc
        if reply[0] == "err":
            raise reply[1]
        executor.health.record_ok(link.address)
        return payload


class DistributedExecutor(Executor):
    """The ``Executor.map`` contract over remote worker serve loops.

    Parameters
    ----------
    addresses:
        Worker endpoints, as ``"host:port"`` strings or ``(host, port)``
        tuples.  Each map call holds one session per worker, checked
        out of the executor's idle sessions or dialed when none is idle,
        and returns it when the call ends, unless its lane was lost or
        its last frame went unanswered.  Overlapping ``submit_batch``
        batches each hold their own sessions and run concurrently
        against the fleet (workers serve one handler thread per
        connection); a worker that was unreachable or failed mid-call is
        simply dialed again by the next call.  A session lasts until
        :meth:`close` or until its worker process exits.
    secret:
        Shared authentication secret for the per-connection HMAC
        handshake and per-frame MACs (:func:`~repro.exec.wire
        .resolve_secret` semantics: this value, else the
        ``REPRO_WIRE_SECRET`` environment variable, else a well-known
        development secret suitable only for loopback testing).  Must
        match the workers' secret; a mismatch surfaces immediately as an
        ``"auth"`` telemetry entry and an unreachable worker, never as a
        hung batch.
    ssl_context:
        Optional ``PROTOCOL_TLS_CLIENT`` context; when given, every
        worker connection is TLS-wrapped before the handshake (the HMAC
        handshake authenticates both ends either way — TLS adds
        confidentiality and server-certificate pinning on networks that
        need them).
    chunksize:
        Items per task frame; defaults to
        ``ceil(len(items) / (4 * n_workers))``.
    connect_timeout:
        Seconds to wait when (re)establishing a worker connection.
    task_timeout:
        Seconds a worker may take to answer one chunk before the link
        raises :class:`~repro.exec.health.WorkerTimeoutError` and the
        chunk is requeued to a surviving lane.  The default is a
        **finite** 300 seconds — a hung worker can no longer stall
        ``submit_batch`` forever; batches whose single chunks
        legitimately run longer should raise it.  ``None`` waits
        indefinitely, relying on TCP keepalive and the heartbeat
        monitor to surface dead and hung peers.
    heartbeat_interval:
        Seconds between liveness probes while a map call is in flight.
        The monitor pings every worker on a *fresh* connection (a hung
        serve loop still completes TCP handshakes, so probing the
        in-flight socket would prove nothing), records the outcome on
        :attr:`health`, and once a worker is declared dead forcibly
        drops its in-flight link — unblocking a feeder stuck waiting on
        a wedged process within
        ``dead_after * heartbeat_interval + probe timeout`` rather than
        after ``task_timeout``.  ``None`` disables the monitor.
    suspect_after / dead_after:
        Consecutive misses (heartbeat or chunk failures) before a
        worker is *suspect*, respectively *dead*, on :attr:`health`.
    connect_retries:
        Extra connection attempts per link before a worker counts as
        unreachable, spaced by the deterministic backoff below.  An
        authentication failure is never retried — wrong secrets do not
        heal.
    lane_retries:
        Times a failed lane is resurrected (reconnected and handed
        chunks again) within one map call before it stays dead.  A
        worker the heartbeat declared dead is never resurrected.
    backoff_base / backoff_cap / retry_seed:
        Retry backoff: attempt ``n`` waits
        ``min(cap, base * 2**n) * jitter`` seconds, with jitter drawn
        deterministically from ``retry_seed`` via the sanctioned
        :func:`~repro.core.randomness.expand_seed` helper
        (:class:`~repro.exec.health.RetryPolicy`) — retry schedules are
        replayable and never perturb results.
    local_fallback:
        Run chunks locally when no worker can take them (all
        disconnected / unreachable).  ``False`` raises instead — for
        deployments where silent local execution would hide a fleet
        outage.

    The executor plugs into the engine like any other backend — here
    against an in-process loopback worker.  Task callables travel by
    registry name plus state, never as code, so the workload must be a
    registered callable (engine trial runners and protocol classes
    already are; ad-hoc demo functions use
    :func:`~repro.exec.wire.register_wire_function`):

    >>> from repro.exec import DistributedExecutor, LoopbackWorker
    >>> from repro.exec.distributed import _shout
    >>> with LoopbackWorker() as worker:
    ...     with DistributedExecutor([worker.endpoint]) as executor:
    ...         executor.map(_shout, ["steal", "publish"])
    ['STEAL', 'PUBLISH']
    """

    name = "distributed"

    #: Documented finite default for :attr:`task_timeout` — a hung
    #: worker stalls one chunk for at most this long before the chunk
    #: is requeued elsewhere.
    DEFAULT_TASK_TIMEOUT = 300.0

    def __init__(
        self,
        addresses: Iterable["str | tuple[str, int]"],
        chunksize: int | None = None,
        connect_timeout: float = 5.0,
        task_timeout: float | None = DEFAULT_TASK_TIMEOUT,
        local_fallback: bool = True,
        heartbeat_interval: float | None = 5.0,
        suspect_after: int = 1,
        dead_after: int = 3,
        connect_retries: int = 1,
        lane_retries: int = 1,
        backoff_base: float = 0.05,
        backoff_cap: float = 1.0,
        retry_seed: int = 0,
        secret: "bytes | str | None" = None,
        ssl_context: "ssl.SSLContext | None" = None,
        registry: "MetricsRegistry | None" = None,
        tracer: "Tracer | NullTracer" = NULL_TRACER,
        recorder: "FlightRecorder | None" = None,
    ):
        parsed = [_parse_address(address) for address in addresses]
        if not parsed:
            raise ValueError("DistributedExecutor needs at least one worker address")
        if chunksize is not None and chunksize < 1:
            raise ValueError("chunksize must be >= 1")
        if task_timeout is not None and task_timeout <= 0:
            raise ValueError("task_timeout must be positive")
        if heartbeat_interval is not None and heartbeat_interval <= 0:
            raise ValueError("heartbeat_interval must be positive (or None)")
        if connect_retries < 0:
            raise ValueError("connect_retries must be >= 0")
        if lane_retries < 0:
            raise ValueError("lane_retries must be >= 0")
        self._addresses = parsed
        self.connect_timeout = connect_timeout
        self.task_timeout = task_timeout
        self.chunksize = chunksize
        self.local_fallback = local_fallback
        self.heartbeat_interval = heartbeat_interval
        self.connect_retries = connect_retries
        self.lane_retries = lane_retries
        self.secret = secret
        self.ssl_context = ssl_context
        #: Unified metrics home (shared when passed in, private
        #: otherwise).
        self.registry = registry if registry is not None else MetricsRegistry()
        #: Span tracer; :data:`~repro.obs.trace.NULL_TRACER` (free) by
        #: default.  A real tracer renders each map call as per-lane
        #: chunk spans plus steal/requeue instants and a heartbeat track.
        self.tracer = tracer
        #: Always-on bounded flight recorder: health transitions, lane
        #: deaths, and local-fallback degradations land here, dumped to
        #: ``REPRO_CHAOS_DIR`` by the conformance harness on failure.
        self.recorder = recorder if recorder is not None else FlightRecorder()
        #: Per-worker liveness state machine (healthy → suspect → dead),
        #: driven by heartbeat probes and per-chunk failures.
        self.health = HealthBoard(
            suspect_after=suspect_after,
            dead_after=dead_after,
            recorder=self.recorder,
        )
        #: Per-worker, per-category counters of every *handled* failure
        #: (connect, auth, version, transport, timeout, corrupt, heartbeat,
        #: ping, close, protocol) — nothing is silently swallowed.
        #: Served from :attr:`registry` as ``exec_errors_total``.
        self.telemetry = ErrorTelemetry(registry=self.registry)
        self._retry_policy = RetryPolicy(
            seed=retry_seed, base=backoff_base, cap=backoff_cap
        )
        #: Which workers hold which registered callables (address →
        #: function digests, least recently used first), healed through
        #: ``("need_fn", digest)`` replies.  Each worker's acks follow
        #: the worker's own LRU rule, capped at ``MAX_CACHED_FNS``.
        self._fn_acks: dict[tuple[str, int], dict[str, None]] = {}
        self._ack_lock = threading.Lock()
        #: Idle authenticated sessions per worker address, each waiting
        #: for the next map's lane.
        self._idle: dict[tuple[str, int], list[_WorkerLink]] = {}
        #: Guards ``_idle`` alone: a leaf, never held while dialing,
        #: dropping a link or taking another lock.
        self._idle_lock = threading.Lock()
        #: One send-lock per worker address: concurrent map calls must
        #: not each ship the same callable to the same worker (the
        #: second sender waits, then sees the ack and skips).
        self._send_locks: dict[tuple[str, int], threading.Lock] = {}

    @property
    def addresses(self) -> list[tuple[str, int]]:
        return list(self._addresses)

    # -- sessions -------------------------------------------------------
    def _checkout(self, index: int) -> _WorkerLink:
        """An idle session to worker ``index``, or a new unconnected link.

        A pooled session on which anything is readable is dropped, and
        the lane dials afresh exactly as on a first map: nothing is
        counted, since an idle worker that exited is not a failure.
        """
        address = self._addresses[index]
        while True:
            with self._idle_lock:
                idle = self._idle.get(address)
                link = idle.pop() if idle else None
            if link is None:
                return _WorkerLink(
                    address,
                    self.connect_timeout,
                    self.task_timeout,
                    lane=index,
                    telemetry=self.telemetry,
                    retry_policy=self._retry_policy,
                    connect_retries=self.connect_retries,
                    secret=self.secret,
                    ssl_context=self.ssl_context,
                    registry=self.registry,
                )
            if link.reusable():
                return link
            link.drop()

    def _release(self, lanes: list[_WireLane], reuse: bool) -> None:
        """Pool each lane's session if ``reuse`` and it is fit; drop the rest.

        Fit means the lane was not lost and its last request was
        answered, so the session is in frame sync.
        """
        for lane in lanes:
            link = lane.link
            if reuse and link.idle and not lane._lost:
                with self._idle_lock:
                    self._idle.setdefault(link.address, []).append(link)
            else:
                link.drop()

    # -- liveness -------------------------------------------------------
    def _probe_link(self, address: tuple[str, int], lane: int = 0) -> _WorkerLink:
        """A single-attempt link whose frames wait the probe deadline.

        The deadline is the heartbeat interval (falling back to
        ``connect_timeout``), so a hung worker — which happily completes
        the TCP handshake — costs one bounded timeout, not ``task_timeout``.
        """
        return _WorkerLink(
            address,
            self.connect_timeout,
            task_timeout=self.heartbeat_interval or self.connect_timeout,
            lane=lane,
            telemetry=self.telemetry,
            secret=self.secret,
            ssl_context=self.ssl_context,
        )

    def _probe(self, address: tuple[str, int], lane: int) -> bool:
        """One liveness probe on a fresh :meth:`_probe_link`."""
        probe = self._probe_link(address, lane)
        if not probe.ensure_connected():
            return False
        try:
            return probe.request(("ping",))[0] == "pong"
        except ConnectionError:
            return False
        finally:
            probe.drop()

    def _heartbeat(self, lanes: list[_WireLane], stop: threading.Event) -> None:
        """Probe every lane's worker until ``stop``; lose the dead ones' lanes.

        Probes ride *fresh* connections — a hung serve loop still
        completes TCP handshakes on the in-flight socket, so only an
        independent request can tell hung from busy.  A worker the board
        declares dead has its lane lost, which drops the in-flight link
        and unblocks a feeder waiting on a wedged process long before
        ``task_timeout`` would; dead workers are not probed again.
        """
        while not stop.wait(self.heartbeat_interval):
            for lane in lanes:
                if stop.is_set():
                    return
                address, index = lane.link.address, lane.link.lane
                if self.health.is_dead(address):
                    continue
                with self.tracer.span(
                    "probe",
                    track="heartbeat",
                    lane=index,
                    worker=f"{address[0]}:{address[1]}",
                ) as probe_span:
                    alive = self._probe(address, index)
                    if self.tracer.enabled:
                        probe_span.args["alive"] = alive
                if alive:
                    self.health.record_ok(address)
                    continue
                self.telemetry.record(address, "heartbeat")
                state = self.health.record_miss(address, reason="heartbeat")
                if state == DEAD and not stop.is_set():
                    lane.lose()

    def ping(self) -> list[bool]:
        """Probe every worker once; True per worker that answered.

        Each probe's outcome also lands on :attr:`health` (an explicit
        ping is a liveness observation like any heartbeat) and failures
        are counted in :attr:`telemetry` under ``"ping"``.
        """
        alive = []
        for lane, address in enumerate(self._addresses):
            ok = self._probe(address, lane)
            if ok:
                self.health.record_ok(address)
            else:
                self.telemetry.record(address, "ping")
                self.health.record_miss(address, reason="ping")
            alive.append(ok)
        return alive

    # -- callable registration ------------------------------------------
    def _register(self, link: _WorkerLink, digest: str, fn_bytes: bytes) -> None:
        """Send ``register_fn`` to this link's worker unless it acked ``digest``.

        The one upload: the encoded task callable — for an engine trial
        runner its spec, fixed input matrix included — travels once per
        (worker, digest), never per chunk.  The worker verifies the
        digest against the bytes, and decodes a callable only against
        its own registry — code never travels.

        Serialized per address: concurrent map calls racing to register
        the same digest on the same worker take the address's send lock
        (then ``_ack_lock``, never the reverse), so the loser of the
        race finds the ack and sends nothing — exactly one frame per
        (worker, digest).

        The acks mirror the worker's cache: a use refreshes an ack and a
        new one evicts the least recently used beyond ``MAX_CACHED_FNS``,
        as the worker's own LRU does.  So one client keeps no ack for a
        runner its worker has evicted, and re-registers it up front
        instead of drawing a ``need_fn`` round trip.

        Raises :class:`ConnectionError` on transport failure or a
        non-``ok`` reply; the caller treats that like any other link
        failure (the link sits out the map call).
        """
        address = link.address
        if self._acked(address, digest):
            return
        with self._ack_lock:
            send_lock = self._send_locks.setdefault(address, threading.Lock())
        with send_lock:
            if self._acked(address, digest):
                return  # another map call registered while we waited
            reply = link.request(("register_fn", digest, fn_bytes))
            if reply[0] != "ok":
                raise ConnectionError(f"register_fn rejected: {reply[0]!r}")
            with self._ack_lock:
                acks = self._fn_acks.setdefault(address, {})
                acks[digest] = None
                while len(acks) > MAX_CACHED_FNS:
                    del acks[next(iter(acks))]

    def _acked(self, address: tuple[str, int], digest: str) -> bool:
        """Whether ``address`` acked ``digest``; a hit becomes most recent."""
        with self._ack_lock:
            acks = self._fn_acks.setdefault(address, {})
            if digest not in acks:
                return False
            del acks[digest]
            acks[digest] = None
            return True

    # -- Executor contract ----------------------------------------------
    def map(self, fn: Callable[[Any], Any], items: Iterable[Any]) -> list[Any]:
        """Run ``fn`` over ``items`` on the worker fleet, in order."""
        items = list(items)
        if not items:
            return []
        try:
            # The schema probe replaces the old pickle probe: the
            # callable and a sample item must be expressible in the
            # closed wire vocabulary (registered callables/classes plus
            # plain data) or the whole map runs locally — loudly.
            fn_bytes = encode_value(fn)
            encode_value(items[0])
        except UnencodableError as probe_exc:
            return self._unpicklable_fallback(
                fn,
                items,
                probe_exc,
                action="running locally",
                reason="not wire-encodable",
            )
        fn_digest = function_digest(fn_bytes)
        lanes = [
            _WireLane(self, index, fn_digest, fn_bytes)
            for index in range(len(self._addresses))
        ]
        stop = threading.Event()
        monitor = threading.Thread(
            target=self._heartbeat, args=(lanes, stop), daemon=True
        )
        with self.tracer.span("map", track="engine", items=len(items)):
            if self.heartbeat_interval is not None:
                monitor.start()
            try:
                results, leftovers = dispatch(
                    items, lanes, self.chunksize, self.tracer, self.registry
                )
            finally:
                stop.set()
                if monitor.is_alive():
                    monitor.join(timeout=1.0)
                # A monitor that outlived its join could still lose a
                # lane, dropping a session another map has checked out.
                self._release(lanes, reuse=not monitor.is_alive())
            if not leftovers:
                return results
            # Every worker is gone (or none was reachable to begin with).
            if not self.local_fallback:
                raise ConnectionError(
                    f"{len(leftovers)} task chunks undelivered and no "
                    "distributed worker is reachable"
                )
            self.registry.counter("exec_degraded_maps_total").inc()
            self.recorder.record(
                "fleet_degraded", chunks=len(leftovers), reason="no worker reachable"
            )
            warnings.warn(
                f"no distributed worker reachable; running {len(leftovers)} "
                "remaining chunks locally",
                FleetDegradedWarning,
                stacklevel=2,
            )
            with self.tracer.span("local_fallback", track="engine"):
                for chunk in leftovers:
                    results[chunk.start : chunk.start + len(chunk)] = [
                        fn(item) for item in chunk.items
                    ]
        return results

    def close(self) -> None:
        """Shut the idle sessions and forget which workers hold which callables.

        It dials nothing and sends no frame, so a hung or dead worker
        cannot stall it.  A session checked out by a map still running
        returns to the pool when that map ends.  The executor stays
        usable: its next map dials and registers afresh.
        """
        with self._idle_lock:
            idle, self._idle = self._idle, {}
        for links in idle.values():
            for link in links:
                link.drop()
        with self._ack_lock:
            self._fn_acks.clear()

    def __enter__(self) -> "DistributedExecutor":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class LoopbackWorker:
    """An in-process worker thread serving the distributed protocol.

    Hosts :func:`repro.exec.worker.serve` on a daemon thread bound to an
    OS-assigned loopback port — the distributed stack end-to-end
    (handshake, frames, sockets, redistribution) with no extra
    processes, which is what the test-suite and single-machine smoke
    runs want.  ``secret`` / ``ssl_context`` configure the worker-side
    authentication exactly as the CLI flags would (defaulting to the
    loopback development secret, like the client); ``registry`` receives
    the worker-side handshake and rejected-frame counters.

    ``fault_injector`` arms the serve loop with a deterministic
    :class:`~repro.exec.faults.FaultPlan` schedule — crashes, torn and
    corrupt frames, refusals, slow replies, lost uploads, hangs —
    which is how the tests build flaky and straggling workers and how
    the fault-matrix conformance suite drives in-process chaos.
    ``tracer`` arms the serve loop with a (shared, in-process)
    :class:`~repro.obs.trace.Tracer`, so worker-side chunk-execution
    spans — tagged with the context id each map frame carries — land in
    the same timeline as the client's per-lane spans.
    """

    def __init__(
        self,
        fault_injector: "FaultInjector | None" = None,
        tracer: "Tracer | NullTracer" = NULL_TRACER,
        secret: "bytes | str | None" = None,
        ssl_context: "ssl.SSLContext | None" = None,
        registry: "MetricsRegistry | None" = None,
    ):
        self._stop = threading.Event()
        ready = threading.Event()
        address: list[tuple[str, int]] = []

        def on_ready(bound: tuple[str, int]) -> None:
            address.append(bound)
            ready.set()

        self._thread = threading.Thread(
            target=serve,
            kwargs=dict(
                host="127.0.0.1",
                port=0,
                stop_event=self._stop,
                ready_callback=on_ready,
                fault_injector=fault_injector,
                tracer=tracer,
                secret=secret,
                ssl_context=ssl_context,
                registry=registry,
            ),
            daemon=True,
        )
        self._thread.start()
        if not ready.wait(timeout=5.0):  # pragma: no cover - startup failure
            raise RuntimeError("loopback worker failed to start")
        self.address: tuple[str, int] = address[0]

    @property
    def endpoint(self) -> str:
        host, port = self.address
        return f"{host}:{port}"

    def stop(self) -> None:
        """Shut the serve loop down and join its thread."""
        self._stop.set()
        # A connection wakes the loop's accept() at once, rather than at
        # its next 0.1 s poll of the stop event.
        try:
            with socket.socket() as wake:
                wake.settimeout(1.0)
                wake.connect(self.address)
        except OSError:  # repro-lint: disable=EXC03 the 0.1 s poll still sees the stop
            pass
        self._thread.join(timeout=5.0)

    def __enter__(self) -> "LoopbackWorker":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()
