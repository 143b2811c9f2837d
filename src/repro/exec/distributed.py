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
number, so a tampered or replayed frame (including a published-input
matrix) raises a typed error instead of being computed on.  Task
callables do not travel either: the executor registers the encoded
callable once per worker under its content digest (``register_fn``) and
map frames reference the digest; a worker that restarted answers
``("need_fn", digest)`` and is transparently re-registered.

Dispatch splits the item list into contiguous chunks and deals them over
the connected workers through the shared work-stealing
:class:`~repro.exec.stealing.ChunkScheduler` — one feeder thread per
connection, each keeping one chunk in flight and stealing queued chunks
from slower hosts once its own share is done, so a heterogeneous fleet
finishes when the work runs out rather than when the slowest host does.
A worker that disconnects mid-batch has its unfinished chunks stolen by
the surviving workers, and when every worker is gone the remainder runs
locally (with a loud :class:`~repro.exec.health.FleetDegradedWarning`) —
a batch never fails because the fleet shrank.  Task exceptions, by
contrast, are shipped back and re-raised exactly like a local executor
would.

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

Large **fixed input matrices** are not re-encoded into every map frame:
the executor publishes them once per worker (``publish_inputs`` frames,
keyed by content digest, compressed with the best codec the session
negotiated — GF(2) matrices ride bit-packed at an eighth of the raw
bytes) and workers cache them across connections and batches —
consecutive batches over the same inputs transmit the matrix exactly
once per worker.  A worker that restarted (and lost its cache) answers
``("need", digest)`` and is transparently refilled.

Workers for tests (or single-machine smoke runs) can live in-process:
:class:`LoopbackWorker` hosts the same serve loop on a background thread
bound to ``127.0.0.1``.
"""

from __future__ import annotations

import socket
import threading
import time
import warnings
from typing import TYPE_CHECKING, Any, Callable, Iterable

import numpy as np

from ..core.engine import Executor, _DigestCache
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
from .stealing import ChunkScheduler
from .wire import (
    AuthenticationError,
    CorruptFrameError,
    FrameAuthenticationError,
    UnencodableError,
    WireProtocolError,
    WireSession,
    encode_array_payload,
    encode_value,
    function_digest,
    register_wire_function,
)
from .worker import PublishedInput, serve

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
    """One authenticated client connection, lazily (re)connected per map call.

    Connecting means: TCP connect, optional TLS wrap, then the
    :class:`~repro.exec.wire.WireSession` challenge–response handshake —
    a link either holds a fully authenticated session or no connection
    at all.  ``connect_retries`` extra attempts are made (spaced by the
    deterministic ``retry_policy`` backoff) before the link reports
    itself unreachable — except on :class:`~repro.exec.wire
    .AuthenticationError`, which no retry will heal (the secrets
    disagree) and which is reported immediately.  Every handled failure
    is recorded in ``telemetry`` under the link's worker address, and
    handshake outcomes are counted on ``registry``
    (``exec_handshakes_total{outcome=ok|auth|error}``).
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

    def _record(self, category: str) -> None:
        if self.telemetry is not None:
            self.telemetry.record(self.address, category)

    def _count_handshake(self, outcome: str) -> None:
        if self.registry is not None:
            self.registry.counter(
                "exec_handshakes_total", outcome=outcome
            ).inc()

    @property
    def codecs(self) -> tuple[str, ...]:
        """Array codecs the session negotiated (``("raw",)`` until connected)."""
        session = self.session
        return session.codecs if session is not None else ("raw",)

    def ensure_connected(self) -> bool:
        if self.session is not None:
            return True
        attempts = self.connect_retries + 1
        for attempt in range(attempts):
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
            except AuthenticationError:
                # The worker refused our proof (or presented a bad one):
                # the secrets disagree, and no retry heals that.  Loud
                # and immediate — a misconfigured fleet must not look
                # like a flaky network.
                self._record("auth")
                self._count_handshake("auth")
                if sock is not None:
                    sock.close()
                return False
            except WireProtocolError:
                # Handshake failed for a non-auth reason (truncated or
                # malformed exchange — e.g. the peer is not speaking
                # this protocol version).
                self._record("connect")
                self._count_handshake("error")
                if sock is not None:
                    sock.close()
                if attempt + 1 < attempts and self.retry_policy is not None:
                    time.sleep(self.retry_policy.delay(attempt, lane=self.lane))
                continue
            except OSError:
                if sock is not None:
                    sock.close()
                self._record("connect")
                if attempt + 1 < attempts and self.retry_policy is not None:
                    time.sleep(self.retry_policy.delay(attempt, lane=self.lane))
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
        try:
            return session.request(payload)
        except ConnectionError:
            raise  # already typed (includes the WireProtocolError family)
        except TimeoutError as exc:
            raise WorkerTimeoutError(
                f"worker {self.address[0]}:{self.address[1]} exceeded "
                f"task_timeout={self.task_timeout}s answering a frame"
            ) from exc
        except (OSError, EOFError) as exc:
            raise ConnectionError(str(exc)) from exc

    def drop(self) -> None:
        sock, self.sock = self.sock, None
        self.session = None
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


class DistributedExecutor(Executor):
    """The ``Executor.map`` contract over remote worker serve loops.

    Parameters
    ----------
    addresses:
        Worker endpoints, as ``"host:port"`` strings or ``(host, port)``
        tuples.  Each map call opens its own connections (so overlapping
        ``submit_batch`` batches run concurrently against the fleet —
        workers serve one handler thread per connection) and a worker
        that was unreachable or failed mid-call is simply retried by the
        next call.
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
    share_inputs_min_bytes:
        Fixed input matrices at least this large are published to each
        worker once (content-digest keyed ``publish_inputs`` frame,
        compressed with the session-negotiated codec) and referenced by
        handle in every subsequent map frame, instead of being encoded
        into each chunk.  Workers cache published inputs across batches
        until :meth:`close` releases them.
    max_cached_inputs:
        LRU bound on *distinct* matrices the executor keeps pinned for
        publication — a long sweep whose grid varies the fixed inputs
        must not accumulate every matrix it ever published.  Evicting a
        digest also forgets its worker acks, so re-using evicted inputs
        later simply republishes them (workers bound their own caches
        the same way and answer ``("need", digest)`` after evicting —
        the protocol is self-healing in both directions).

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
        share_inputs_min_bytes: int = 1 << 16,
        max_cached_inputs: int = 32,
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
        if share_inputs_min_bytes < 1:
            raise ValueError("share_inputs_min_bytes must be >= 1")
        if max_cached_inputs < 1:
            raise ValueError("max_cached_inputs must be >= 1")
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
        self.share_inputs_min_bytes = share_inputs_min_bytes
        self.max_cached_inputs = max_cached_inputs
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
        #: (connect, auth, transport, timeout, corrupt, heartbeat, ping,
        #: release, close, protocol) — nothing is silently swallowed.
        #: Served from :attr:`registry` as ``exec_errors_total``.
        self.telemetry = ErrorTelemetry(registry=self.registry)
        self._retry_policy = RetryPolicy(
            seed=retry_seed, base=backoff_base, cap=backoff_cap
        )
        #: Published-input bookkeeping: the matrices themselves (digest →
        #: array, LRU-bounded by ``max_cached_inputs``, for lazy
        #: per-worker publication and local fallback), and which workers
        #: acked which digests (address → digests).
        self._digest_cache = _DigestCache()
        self._inputs_by_digest: dict[str, np.ndarray] = {}
        self._acked: dict[tuple[str, int], set[str]] = {}
        #: Which workers hold which registered callables (address →
        #: function digests) — the ``register_fn`` twin of the
        #: published-input ack table, healed the same way by
        #: ``("need_fn", digest)`` replies.
        self._fn_acks: dict[tuple[str, int], set[str]] = {}
        #: digest → number of in-flight batches using it; pinned digests
        #: are exempt from LRU eviction (evicting a matrix a running map
        #: still references would fail that map on every lane).
        self._pinned: dict[str, int] = {}
        self._publish_lock = threading.Lock()
        #: One send-lock per worker address: concurrent map calls must
        #: not each ship the same matrix (or callable) to the same
        #: worker (the second sender waits, then sees the ack and
        #: skips).
        self._publish_send_locks: dict[tuple[str, int], threading.Lock] = {}

    @property
    def addresses(self) -> list[tuple[str, int]]:
        return list(self._addresses)

    def _fresh_links(self) -> list[_WorkerLink]:
        """Private connections for one conversation.

        Each map (or ping) uses its own sockets, so concurrent calls —
        overlapping ``submit_batch`` batches — never interleave frames;
        workers accept one handler thread per connection.
        """
        return [
            _WorkerLink(
                address,
                self.connect_timeout,
                self.task_timeout,
                lane=lane,
                telemetry=self.telemetry,
                retry_policy=self._retry_policy,
                connect_retries=self.connect_retries,
                secret=self.secret,
                ssl_context=self.ssl_context,
                registry=self.registry,
            )
            for lane, address in enumerate(self._addresses)
        ]

    # -- liveness -------------------------------------------------------
    def _probe(self, address: tuple[str, int], lane: int) -> bool:
        """One single-attempt liveness probe on a fresh connection.

        The probe's frame deadline is the heartbeat interval (falling
        back to ``connect_timeout``), so a hung worker — which happily
        completes the TCP handshake — costs one bounded timeout, not a
        stalled monitor.
        """
        deadline = self.heartbeat_interval or self.connect_timeout
        probe = _WorkerLink(
            address,
            self.connect_timeout,
            task_timeout=deadline,
            lane=lane,
            telemetry=self.telemetry,
            secret=self.secret,
            ssl_context=self.ssl_context,
        )
        if not probe.ensure_connected():
            return False
        try:
            return probe.request(("ping",))[0] == "pong"
        except ConnectionError:
            return False
        finally:
            probe.drop()

    def ping(self) -> list[bool]:
        """Probe every worker; True per worker that answered.

        Each probe's outcome also lands on :attr:`health` (an explicit
        ping is a liveness observation like any heartbeat) and failures
        are counted in :attr:`telemetry` under ``"ping"``.
        """
        alive = []
        for link in self._fresh_links():
            ok = False
            if link.ensure_connected():
                try:
                    ok = link.request(("ping",))[0] == "pong"
                except ConnectionError:
                    self.telemetry.record(link.address, "ping")
                finally:
                    link.drop()
            if ok:
                self.health.record_ok(link.address)
            else:
                self.health.record_miss(link.address, reason="ping")
            alive.append(ok)
        return alive

    # -- shared fixed-input publication ---------------------------------
    def wants_shared_inputs(self, inputs: np.ndarray) -> bool:
        return inputs.nbytes >= self.share_inputs_min_bytes

    def publish_inputs(self, inputs: np.ndarray) -> "PublishedInput | None":
        """Register ``inputs`` for digest-keyed publication to workers.

        No network traffic happens here: the actual ``publish_inputs``
        frame goes out lazily, once per worker, the first time a feeder
        is about to send that worker a map frame referencing the digest
        — and never again while the worker keeps its cache (the whole
        point: consecutive batches over the same fixed inputs transmit
        the matrix exactly once per worker).
        """
        if not self.wants_shared_inputs(inputs):
            return None
        digest = self._digest_cache.digest(inputs)
        with self._publish_lock:
            # Refresh the LRU position and pin the digest for the
            # duration of its batch, then evict beyond the bound —
            # oldest *unpinned* digest first, dropping its worker acks
            # too, so later reuse republishes instead of referencing a
            # forgotten matrix.  Pinned digests are never evicted (the
            # bound may be exceeded transiently while more than
            # ``max_cached_inputs`` distinct-input batches are in
            # flight).
            self._inputs_by_digest.pop(digest, None)
            self._inputs_by_digest[digest] = inputs
            self._pinned[digest] = self._pinned.get(digest, 0) + 1
            while len(self._inputs_by_digest) > self.max_cached_inputs:
                evictable = next(
                    (
                        d
                        for d in self._inputs_by_digest
                        if not self._pinned.get(d)
                    ),
                    None,
                )
                if evictable is None:
                    break
                del self._inputs_by_digest[evictable]
                for digests in self._acked.values():
                    digests.discard(evictable)
        return PublishedInput(digest, tuple(inputs.shape), np.dtype(inputs.dtype).str)

    def release_inputs(self, handle: "PublishedInput") -> None:
        """Unpin a completed batch's digest; the matrix stays cached.

        Cross-batch reuse is the point of publication, so nothing is
        released over the wire here — the digest merely becomes eligible
        for LRU eviction once no in-flight batch references it.
        """
        with self._publish_lock:
            count = self._pinned.get(handle.digest, 0) - 1
            if count > 0:
                self._pinned[handle.digest] = count
            else:
                self._pinned.pop(handle.digest, None)

    def _ensure_published(self, link: _WorkerLink, handle: "PublishedInput") -> None:
        """Ship the handle's matrix to this link's worker unless acked.

        The payload rides the best array codec the link's session
        negotiated (``gf2pack`` bit-packs GF(2) matrices to an eighth of
        the raw bytes) and the bytes actually written are counted per
        codec on ``exec_publish_bytes_total``.

        Serialized per address: concurrent map calls racing to publish
        the same digest to the same worker take the address's send lock,
        so the loser of the race finds the ack and sends nothing —
        exactly one ``publish_inputs`` frame per (worker, digest).

        Raises :class:`ConnectionError` on transport failure or a
        non-``ok`` reply; the caller treats that like any other link
        failure (the link sits out the map call).
        """
        address = link.address
        with self._publish_lock:
            if handle.digest in self._acked.setdefault(address, set()):
                return
            send_lock = self._publish_send_locks.setdefault(
                address, threading.Lock()
            )
        with send_lock:
            with self._publish_lock:
                if handle.digest in self._acked.setdefault(address, set()):
                    return  # another map call published while we waited
                inputs = self._inputs_by_digest.get(handle.digest)
            if inputs is None:  # pragma: no cover - engine publishes first
                raise ConnectionError(
                    f"unknown input digest {handle.digest[:12]}…"
                )
            codec, data = encode_array_payload(inputs, link.codecs)
            reply = link.request(
                (
                    "publish_inputs",
                    handle.digest,
                    handle.shape,
                    handle.dtype_str,
                    codec,
                    data,
                )
            )
            if reply[0] != "ok":
                raise ConnectionError(f"publish_inputs rejected: {reply[0]!r}")
            with self._publish_lock:
                self._acked.setdefault(address, set()).add(handle.digest)
            self.registry.counter("exec_publish_frames_total").inc()
            self.registry.counter(
                "exec_publish_bytes_total", codec=codec
            ).inc(len(data))

    def _ensure_registered(
        self, link: _WorkerLink, fn_digest: str, fn_bytes: bytes
    ) -> None:
        """Ship the encoded task callable to this link's worker unless acked.

        The ``register_fn`` twin of :meth:`_ensure_published`: same
        per-address send lock, same ack table, same self-healing
        (``("need_fn", digest)`` forgets the stale ack and re-registers).
        The worker verifies the digest against the bytes and will only
        ever *decode* them against its own registry — code never
        travels, only references to code both ends already have.
        """
        address = link.address
        with self._publish_lock:
            if fn_digest in self._fn_acks.setdefault(address, set()):
                return
            send_lock = self._publish_send_locks.setdefault(
                address, threading.Lock()
            )
        with send_lock:
            with self._publish_lock:
                if fn_digest in self._fn_acks.setdefault(address, set()):
                    return  # another map call registered while we waited
            reply = link.request(("register_fn", fn_digest, fn_bytes))
            if reply[0] != "ok":
                raise ConnectionError(f"register_fn rejected: {reply[0]!r}")
            with self._publish_lock:
                self._fn_acks.setdefault(address, set()).add(fn_digest)

    def _bind_local(self, fn: Callable[[Any], Any]) -> None:
        """Give a locally-run task its published inputs back.

        The local-fallback path executes the same callable the workers
        would have decoded: if it references a published digest, the
        matrix must be rebound from the executor's own store before
        ``fn`` can run in this process.
        """
        handle = getattr(fn, "shared_input", None)
        if isinstance(handle, PublishedInput) and not handle.bound:
            with self._publish_lock:
                inputs = self._inputs_by_digest.get(handle.digest)
            if inputs is not None:
                handle.bind(inputs)

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
            self._bind_local(fn)
            return self._unpicklable_fallback(
                fn,
                items,
                probe_exc,
                action="running locally",
                reason="not wire-encodable",
            )
        fn_digest = function_digest(fn_bytes)
        links = self._fresh_links()
        try:
            with self.tracer.span("map", track="engine", items=len(items)):
                return self._map_over_links(
                    fn, fn_digest, fn_bytes, items, links
                )
        finally:
            for link in links:
                link.drop()

    def _map_over_links(
        self,
        fn: Callable[[Any], Any],
        fn_digest: str,
        fn_bytes: bytes,
        items: list[Any],
        links: list[_WorkerLink],
    ) -> list[Any]:
        chunksize = self.chunksize or self._default_chunksize(len(items), len(links))
        scheduler = ChunkScheduler(
            items, chunksize, lanes=len(links), tracer=self.tracer
        )
        results: list[Any] = [None] * len(items)
        lock = threading.Lock()
        task_error: list[BaseException] = []
        dead: set[int] = set()
        #: lane → times it was killed this map call; resurrection is
        #: allowed while the count stays within ``lane_retries``.
        attempts: dict[int, int] = {}
        shared = getattr(fn, "shared_input", None)
        handle = shared if isinstance(shared, PublishedInput) else None

        def kill_lane(index: int) -> None:
            """Mark a lane dead; survivors steal its queued chunks."""
            with lock:
                if index in dead:
                    return
                dead.add(index)
                attempts[index] = attempts.get(index, 0) + 1
                survivors = len(links) - len(dead)
            address = links[index].address
            self.recorder.record(
                "lane_death",
                lane=index,
                worker=f"{address[0]}:{address[1]}",
                survivors=survivors,
            )
            self.tracer.instant(
                "lane_death", track=f"lane-{index}", survivors=survivors
            )

        def heal_reply(link: _WorkerLink, frame: tuple[Any, ...], reply: Any) -> Any:
            """Resolve ``need`` / ``need_fn`` replies by re-uploading.

            The worker lost a digest (it restarted, or its own bounded
            cache evicted it under concurrent-batch thrash): forget the
            stale ack, re-upload, retry — a bounded number of times, so
            a hot eviction loop degrades to a lane failure rather than
            spinning.
            """
            for _ in range(3):
                kind = reply[0]
                if kind == "need":
                    with self._publish_lock:
                        self._acked.get(link.address, set()).discard(reply[1])
                    if handle is None or reply[1] != handle.digest:
                        raise ConnectionError(
                            f"worker demanded unknown inputs {reply[1]!r}"
                        )
                    self._ensure_published(link, handle)
                elif kind == "need_fn":
                    with self._publish_lock:
                        self._fn_acks.get(link.address, set()).discard(reply[1])
                    if reply[1] != fn_digest:
                        raise ConnectionError(
                            f"worker demanded unknown callable {reply[1]!r}"
                        )
                    self._ensure_registered(link, fn_digest, fn_bytes)
                else:
                    break
                reply = link.request(frame)
            return reply

        def feed(index: int, link: _WorkerLink) -> None:
            """Pull chunks for one worker — own deque first, then steals."""
            track = f"lane-{index}"
            while True:
                with lock:
                    if task_error:
                        return
                chunk = scheduler.next_chunk(index)
                if chunk is None:
                    return
                # When tracing, the chunk span's context id rides the
                # map frame as an extra element — a tracer-armed worker
                # tags its execution span with it, so client and worker
                # timelines correlate.  With tracing off the frame is
                # the classic 3-tuple: the wire is byte-identical.
                if self.tracer.enabled:
                    ctx = self.tracer.new_context()
                    frame = ("map", fn_digest, chunk.items, ctx)
                    span = self.tracer.span(
                        "chunk",
                        track=track,
                        start=chunk.start,
                        items=len(chunk),
                        worker=f"{link.address[0]}:{link.address[1]}",
                        ctx=ctx,
                    )
                else:
                    frame = ("map", fn_digest, chunk.items)
                    span = None
                try:
                    # Upload lazily, only when this worker is actually
                    # about to receive a frame referencing the digests —
                    # a lane that never claims a chunk never gets the
                    # callable or the matrix.  O(1) after the first
                    # chunk (ack tables).
                    self._ensure_registered(link, fn_digest, fn_bytes)
                    if handle is not None:
                        self._ensure_published(link, handle)
                    reply = heal_reply(link, frame, link.request(frame))
                    kind = reply[0]
                    if kind == "err":
                        with lock:
                            task_error.append(reply[1])
                        return
                    if kind != "ok":
                        raise ConnectionError(f"unknown reply kind {kind!r}")
                    payload = list(reply[1])
                    if len(payload) != len(chunk):
                        raise ConnectionError(
                            f"short reply: {len(payload)} results for "
                            f"{len(chunk)} tasks"
                        )
                except Exception as exc:  # noqa: BLE001 - any transport/
                    # protocol failure (dropped socket, chunk deadline,
                    # frame that failed MAC or schema verification,
                    # malformed reply): the chunk's fate is unknown, but
                    # tasks are pure, so rerunning it elsewhere is safe.
                    # The failure is categorized into telemetry and
                    # counts as a liveness miss; the lane sits out until
                    # (maybe) resurrected, and the survivors steal its
                    # queued chunks.
                    category = _failure_category(exc)
                    self.telemetry.record(link.address, category)
                    self.health.record_miss(link.address, reason=category)
                    link.drop()
                    scheduler.requeue(chunk, index)
                    if span is not None:
                        span.args["outcome"] = category
                        span.close()
                    kill_lane(index)
                    return
                with lock:
                    results[chunk.start : chunk.start + len(chunk)] = payload
                scheduler.mark_done(chunk)
                if span is not None:
                    span.close()
                self.health.record_ok(link.address)

        stop_monitor = threading.Event()

        def monitor() -> None:
            """Heartbeat: probe workers, declare the unresponsive dead.

            Probes ride *fresh* connections — a hung serve loop still
            completes TCP handshakes on the in-flight socket, so only
            an independent request can tell hung from busy.  A worker
            the board declares dead gets its in-flight link dropped,
            which unblocks a feeder waiting on a wedged process long
            before ``task_timeout`` would.
            """
            while not stop_monitor.wait(self.heartbeat_interval):
                for index, link in enumerate(links):
                    if stop_monitor.is_set():
                        return
                    address = link.address
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
                    if state == DEAD and not stop_monitor.is_set():
                        link.drop()
                        kill_lane(index)

        monitor_thread: "threading.Thread | None" = None
        if self.heartbeat_interval is not None:
            monitor_thread = threading.Thread(target=monitor, daemon=True)
            monitor_thread.start()

        # Dispatch rounds.  Feeder threads exit when no chunk is
        # available to them, so a chunk re-queued by a worker dying
        # *after* the survivors already left would strand without the
        # outer loop: each round first resurrects lanes still within
        # their retry budget (after the deterministic backoff delay),
        # then re-dispatches leftovers over the live links.  A lane
        # that fails to (re)connect is killed like any other link
        # failure, and the live feeders steal its dealt chunks.  No
        # feeder is in flight between rounds, so every queued chunk is
        # claimable by any live lane: each round either completes a
        # chunk or permanently burns a lane attempt (``attempts`` only
        # grows, bounded by ``lane_retries``), so the loop terminates.
        try:
            while scheduler.pending and not task_error:
                with lock:
                    revivable = [
                        index
                        for index in sorted(dead)
                        if attempts.get(index, 0) <= self.lane_retries
                        and not self.health.is_dead(links[index].address)
                    ]
                for index in revivable:
                    time.sleep(
                        self._retry_policy.delay(
                            max(attempts.get(index, 1) - 1, 0), lane=index
                        )
                    )
                    with lock:
                        dead.discard(index)
                threads = []
                for index, link in enumerate(links):
                    with lock:
                        if index in dead:
                            continue
                    if not link.ensure_connected():
                        kill_lane(index)
                        continue
                    thread = threading.Thread(
                        target=feed, args=(index, link), daemon=True
                    )
                    thread.start()
                    threads.append(thread)
                if not threads:
                    break  # nobody reachable: leftovers go to the fallback
                for thread in threads:
                    thread.join()
        finally:
            stop_monitor.set()
            if monitor_thread is not None:
                monitor_thread.join(timeout=1.0)
        if scheduler.total_steals():
            self.registry.counter("exec_steals_total").inc(
                scheduler.total_steals()
            )
        if scheduler.total_requeues():
            self.registry.counter("exec_requeues_total").inc(
                scheduler.total_requeues()
            )

        if task_error:
            raise task_error[0]
        leftovers = scheduler.drain()
        if leftovers:
            # Every worker is gone (or none were reachable to begin with).
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
            self._bind_local(fn)
            with self.tracer.span("local_fallback", track="engine"):
                for chunk in leftovers:
                    results[chunk.start : chunk.start + len(chunk)] = [
                        fn(item) for item in chunk.items
                    ]
        return results

    def close(self) -> None:
        """Release published inputs on every worker that cached them.

        Connections are per-call and already closed; what outlives a map
        call is the workers' digest-keyed input caches.  Best-effort: a
        worker that is unreachable right now loses nothing durable — its
        cache dies with its process anyway.
        """
        with self._publish_lock:
            acked = {addr: set(digests) for addr, digests in self._acked.items()}
            self._acked.clear()
            self._fn_acks.clear()
            self._inputs_by_digest.clear()
            self._pinned.clear()
            self._digest_cache.clear()
        for address, digests in acked.items():
            if not digests:
                continue
            link = _WorkerLink(
                address,
                self.connect_timeout,
                self.task_timeout,
                telemetry=self.telemetry,
                secret=self.secret,
                ssl_context=self.ssl_context,
            )
            if not link.ensure_connected():
                continue
            try:
                for digest in digests:
                    link.request(("release_inputs", digest))
            except ConnectionError:
                # Best-effort by design (the worker's cache dies with
                # its process anyway) — but the failure is counted, not
                # swallowed.
                self.telemetry.record(address, "release")
            finally:
                link.drop()

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

    ``max_requests_per_connection`` makes the worker hang up after that
    many frames on each connection — deterministic fault injection for
    the client's mid-batch failover path.  ``request_delay`` sleeps
    that long before each map frame — latency injection turning this
    worker into the slow host of a synthetic heterogeneous fleet (how
    the work-stealing tests build their straggler).
    ``fault_injector`` arms the serve loop with a full deterministic
    :class:`~repro.exec.faults.FaultPlan` schedule — crashes, torn and
    corrupt frames, refusals, lost publishes, hangs — which is how the
    fault-matrix conformance suite drives in-process chaos.
    ``tracer`` arms the serve loop with a (shared, in-process)
    :class:`~repro.obs.trace.Tracer`, so worker-side chunk-execution
    spans — tagged with the context id each map frame carries — land in
    the same timeline as the client's per-lane spans.
    """

    def __init__(
        self,
        max_requests_per_connection: int | None = None,
        request_delay: float = 0.0,
        max_cached_inputs: int = 32,
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
                max_requests_per_connection=max_requests_per_connection,
                request_delay=request_delay,
                max_cached_inputs=max_cached_inputs,
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
        self._thread.join(timeout=5.0)

    def __enter__(self) -> "LoopbackWorker":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()
