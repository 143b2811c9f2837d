"""Deterministic, replayable fault injection for the distributed stack.

Ordinary chaos testing flips coins at runtime; every trial in this repo
is seed-deterministic, so fault schedules can be too.  A
:class:`FaultPlan` is a pure function of a seed: it pins, per worker
*site* and per protocol operation, exactly which fault fires — and it
round-trips through JSON, so the schedule that broke a CI run is an
artifact you download and replay locally, byte for byte.

The fault vocabulary (:data:`FAULT_KINDS`) covers the failure model of
``docs/robustness.md``:

========================  ====================================================
kind                      effect at the worker
========================  ====================================================
``"crash"``               close the connection instead of replying
``"refuse"``              accept the connection, then close it immediately
                          (a reset on first use — the observable shape of a
                          refused/reset connection injected from inside a
                          listening process)
``"drop_mid_frame"``      send the length prefix and half the reply payload,
                          then close — a torn frame
``"truncate"``            send a length prefix that promises more bytes than
                          ever arrive, then close
``"corrupt"``             send a full-length reply whose payload bytes are
                          flipped — undecodable garbage
``"slow"``                sleep ``delay`` seconds, then answer normally —
                          a slow link / overloaded host
``"lose_publish"``        acknowledge a ``register_fn`` frame but drop the
                          callable — a lost upload (the client believes the
                          worker holds a runner it does not)
``"hang"``                stop answering **every** connection of this worker,
                          forever (sticky) — a wedged process, detectable
                          only by heartbeat / deadline
========================  ====================================================

Injection points: :func:`repro.exec.worker.serve` consults a
:class:`FaultInjector` on every accepted connection and every received
frame (``LoopbackWorker(fault_injector=...)`` for in-process chaos,
``python -m repro.exec.worker --fault-plan plan.json`` for
real-subprocess chaos).  The invariant the conformance suite
(``tests/conformance/test_fault_matrix.py``) pins: under **any** fault
schedule, batch results are bit-identical to
:class:`~repro.core.engine.SerialExecutor`, or the failure is a loud
typed error — never silent partial or wrong output.

>>> plan = FaultPlan.from_seed(7, sites=("worker-0",))
>>> plan == FaultPlan.from_json(plan.to_json())       # replayable
True
>>> plan == FaultPlan.from_seed(7, sites=("worker-0",))  # deterministic
True
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

import numpy as np

from ..core.randomness import expand_seed
from ..obs.recorder import FlightRecorder

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .wire import WireSession

__all__ = [
    "FAULT_KINDS",
    "MANGLE_KINDS",
    "FaultEvent",
    "FaultPlan",
    "FaultInjector",
    "send_mangled",
]

#: Every injectable fault kind.
FAULT_KINDS = (
    "crash",
    "refuse",
    "drop_mid_frame",
    "truncate",
    "corrupt",
    "slow",
    "lose_publish",
    "hang",
)

#: Kinds applied by mangling the reply frame's bytes on the wire.
MANGLE_KINDS = frozenset({"drop_mid_frame", "truncate", "corrupt"})

#: Kinds :meth:`FaultPlan.from_seed` schedules by default.  ``hang`` is
#: excluded (it stalls until the heartbeat/deadline machinery fires —
#: schedule it explicitly when that is the behaviour under test), as is
#: ``refuse`` on the *map* scope (it lives on the ``accept`` scope).
DEFAULT_KINDS = (
    "crash",
    "refuse",
    "drop_mid_frame",
    "truncate",
    "corrupt",
    "slow",
    "lose_publish",
)

#: The operation scope each kind schedules against.
_SCOPE_FOR_KIND = {
    "refuse": "accept",
    "lose_publish": "publish",
}
_SCOPES = ("accept", "map", "publish", "ping")


def _scope_for(kind: str) -> str:
    return _SCOPE_FOR_KIND.get(kind, "map")


@dataclass(frozen=True)
class FaultEvent:
    """One planned fault: at operation ``op`` of ``scope``, inject ``kind``.

    ``op`` counts operations of that scope observed by the worker's
    injector from process start: accepted connections for ``accept``,
    map frames for ``map``, ``register_fn`` uploads for ``publish``, and
    ping frames for ``ping``.
    ``delay`` is the injected latency for ``"slow"`` (ignored
    otherwise).
    """

    scope: str
    op: int
    kind: str
    delay: float = 0.0

    def __post_init__(self) -> None:
        if self.scope not in _SCOPES:
            raise ValueError(f"unknown fault scope {self.scope!r}")
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}")
        if self.op < 0:
            raise ValueError("fault op index must be >= 0")
        if self.delay < 0:
            raise ValueError("fault delay must be >= 0")


class FaultPlan:
    """A deterministic schedule of faults, per worker site.

    A *site* is a string naming one worker (``"worker-0"`` …); each site
    owns an independent list of :class:`FaultEvent`.  Plans are value
    objects: equality compares the full schedule, and
    :meth:`to_json` / :meth:`from_json` round-trip it exactly — the
    replay path for a schedule that surfaced a bug.
    """

    def __init__(self, events_by_site: Mapping[str, Iterable[FaultEvent]]):
        self._events: dict[str, tuple[FaultEvent, ...]] = {
            str(site): tuple(events)
            for site, events in events_by_site.items()
        }
        for site, events in self._events.items():
            seen: set[tuple[str, int]] = set()
            for event in events:
                key = (event.scope, event.op)
                if key in seen:
                    raise ValueError(
                        f"site {site!r} schedules two faults at "
                        f"{event.scope}[{event.op}]"
                    )
                seen.add(key)

    @property
    def sites(self) -> tuple[str, ...]:
        return tuple(self._events)

    def events(self, site: str) -> tuple[FaultEvent, ...]:
        """The site's schedule (empty for unknown sites — no faults)."""
        return self._events.get(site, ())

    def injector(
        self, site: str, recorder: "FlightRecorder | None" = None
    ) -> "FaultInjector":
        """A fresh injector applying this plan's schedule for ``site``."""
        return FaultInjector(self.events(site), site=site, recorder=recorder)

    # -- construction ---------------------------------------------------
    @classmethod
    def from_seed(
        cls,
        seed: int,
        sites: Sequence[str] = ("worker-0",),
        kinds: Sequence[str] = DEFAULT_KINDS,
        rate: float = 0.15,
        horizon: int = 32,
        max_delay: float = 0.05,
    ) -> "FaultPlan":
        """Derive a schedule from ``seed`` — a pure function of its inputs.

        For each site, each scope with an applicable kind draws
        ``horizon`` Bernoulli(``rate``) coins (one per operation index)
        from ``expand_seed(SeedSequence(seed, spawn_key=(site_index,
        scope_index)))``; a hit schedules a uniformly chosen applicable
        kind (``"slow"`` also draws its delay, uniform on
        ``(max_delay/10, max_delay]``).  Same arguments, same plan —
        always.
        """
        if not 0 <= rate <= 1:
            raise ValueError("fault rate must lie in [0, 1]")
        if horizon < 1:
            raise ValueError("horizon must be >= 1")
        unknown = set(kinds) - set(FAULT_KINDS)
        if unknown:
            raise ValueError(f"unknown fault kinds: {sorted(unknown)}")
        by_scope: dict[str, list[str]] = {}
        for kind in kinds:
            by_scope.setdefault(_scope_for(kind), []).append(kind)
        events_by_site: dict[str, list[FaultEvent]] = {}
        for site_index, site in enumerate(sites):
            events: list[FaultEvent] = []
            for scope_index, scope in enumerate(_SCOPES):
                scoped_kinds = sorted(by_scope.get(scope, []))
                if not scoped_kinds:
                    continue
                rng = expand_seed(
                    np.random.SeedSequence(
                        seed, spawn_key=(site_index, scope_index)
                    )
                )
                for op in range(horizon):
                    if float(rng.uniform()) >= rate:
                        continue
                    kind = scoped_kinds[int(rng.integers(len(scoped_kinds)))]
                    delay = 0.0
                    if kind == "slow":
                        delay = float(
                            rng.uniform(max_delay / 10.0, max_delay)
                        )
                    events.append(FaultEvent(scope, op, kind, delay))
            events_by_site[site] = events
        return cls(events_by_site)

    # -- replay serialization -------------------------------------------
    def to_json(self) -> str:
        """The full schedule as JSON (the CI replay artifact format)."""
        return json.dumps(
            {
                "version": 1,
                "sites": {
                    site: [
                        {
                            "scope": event.scope,
                            "op": event.op,
                            "kind": event.kind,
                            "delay": event.delay,
                        }
                        for event in events
                    ]
                    for site, events in self._events.items()
                },
            },
            indent=2,
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        """Rebuild a plan from :meth:`to_json` output (exact round-trip)."""
        payload = json.loads(text)
        if payload.get("version") != 1:
            raise ValueError(
                f"unsupported fault-plan version {payload.get('version')!r}"
            )
        return cls(
            {
                site: [
                    FaultEvent(
                        scope=str(raw["scope"]),
                        op=int(raw["op"]),
                        kind=str(raw["kind"]),
                        delay=float(raw.get("delay", 0.0)),
                    )
                    for raw in events
                ]
                for site, events in payload["sites"].items()
            }
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FaultPlan):
            return NotImplemented
        return self._events == other._events

    def __repr__(self) -> str:
        total = sum(len(events) for events in self._events.values())
        return (
            f"FaultPlan(sites={list(self._events)!r}, events={total})"
        )


class FaultInjector:
    """Applies one site's schedule inside a worker serve loop.

    The serve loop consults :meth:`next_fault` once per operation
    (accepted connection, received frame); the injector counts
    operations per scope and returns the planned :class:`FaultEvent`
    when the counter hits a scheduled ``op`` — otherwise ``None``.
    ``injected`` records every fault actually applied, in order, for
    assertions and postmortems.

    ``"hang"`` is *sticky*: once it fires, :attr:`hung` stays true and
    every connection of this worker (including fresh heartbeat probes)
    blocks in :meth:`wait_while_hung` until :meth:`stop` — modelling a
    wedged process, whose accept queue still completes TCP handshakes
    while the application answers nothing.
    """

    def __init__(
        self,
        events: Iterable[FaultEvent],
        site: str = "worker-0",
        recorder: "FlightRecorder | None" = None,
    ):
        self.site = site
        self._by_key: dict[tuple[str, int], FaultEvent] = {
            (event.scope, event.op): event for event in events
        }
        self._lock = threading.Lock()
        self._counters: dict[str, int] = {}
        self._stop = threading.Event()
        self._hung = False
        #: Faults applied so far, in application order.
        self.injected: list[FaultEvent] = []
        #: Optional flight recorder: every applied fault is recorded as
        #: a ``fault_injected`` event, so a chaos dump interleaves the
        #: injections with the health transitions they caused.
        self.recorder = recorder

    def next_fault(self, scope: str) -> "FaultEvent | None":
        """Advance the scope's op counter; the fault planned there, if any."""
        with self._lock:
            op = self._counters.get(scope, 0)
            self._counters[scope] = op + 1
            event = self._by_key.get((scope, op))
            if event is not None:
                self.injected.append(event)
        if event is not None and self.recorder is not None:
            self.recorder.record(
                "fault_injected",
                site=self.site,
                scope=event.scope,
                op=event.op,
                fault=event.kind,
            )
        return event

    @property
    def hung(self) -> bool:
        with self._lock:
            return self._hung

    def hang(self) -> None:
        """Enter the sticky hung state and block until :meth:`stop`."""
        with self._lock:
            self._hung = True
        self.wait_while_hung()

    def wait_while_hung(self) -> None:
        """Block (a connection of a hung worker) until shutdown."""
        self._stop.wait()

    def stop(self) -> None:
        """Release every hung connection (called at serve-loop exit)."""
        self._stop.set()


def send_mangled(session: "WireSession", obj: object, kind: str) -> None:
    """Send ``obj`` as a deliberately damaged frame (the fault's payload).

    The frame is produced by the *authenticated* session
    (:meth:`~repro.exec.wire.WireSession.frame_bytes` — a legitimate
    schema payload with a valid MAC and the correct sequence number) and
    damaged only afterwards, so a chaos cell exercises the receiver's
    verification path, not a codepath no honest peer could reach.  The
    damage is deterministic in the frame bytes: ``"truncate"`` promises
    the full length and sends nothing, ``"drop_mid_frame"`` sends half
    the payload, ``"corrupt"`` flips the first eight payload bytes and
    every 97th after that — the MAC no longer verifies, so the client
    *must* fail with a typed
    :class:`~repro.exec.wire.FrameAuthenticationError` rather than
    decode a plausible wrong object.  The caller closes the connection
    afterwards, so torn frames surface immediately as
    :class:`~repro.exec.wire.TruncatedFrameError` instead of waiting out
    a socket timeout.
    """
    if kind not in MANGLE_KINDS:
        raise ValueError(f"{kind!r} is not a frame-mangling fault kind")
    header, chunks, mac = session.frame_bytes(obj)
    payload = b"".join(chunks)
    if kind == "truncate":
        session.sock.sendall(header)
        return
    if kind == "drop_mid_frame":
        session.sock.sendall(header + payload[: max(1, len(payload) // 2)])
        return
    damaged = bytearray(payload)
    for index in range(len(damaged)):
        if index < 8 or index % 97 == 0:
            damaged[index] ^= 0xFF
    session.sock.sendall(header + bytes(damaged) + mac)
