"""Tests for the distributed executor, worker serve loop, and loopback rig."""

import socket
import sys
import threading
import time
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from repro.core import Engine, RunSpec, SerialExecutor
from repro.core.engine import _TrialRunner
from repro.distributions import UniformRows
from repro.exec import DistributedExecutor, LoopbackWorker
from repro.exec import worker as worker_module
from repro.exec.distributed import _WireLane, _WorkerLink
from repro.exec.faults import FaultEvent, FaultInjector
from repro.exec.health import DEAD, SUSPECT, FleetDegradedWarning
from repro.exec.wire import (
    encode_value,
    function_digest,
    recv_frame,
    register_wire_function,
    send_frame,
)
from repro.lowerbounds import TopSubmatrixRankProtocol


@register_wire_function
def _square(x):
    return x * x


@register_wire_function
def _boom(x):
    raise ValueError(f"remote task {x} failed")


def rank_spec(seed=7):
    return RunSpec(
        protocol=TopSubmatrixRankProtocol(5),
        distribution=UniformRows(8, 8),
        seed=seed,
    )


def count_frames(monkeypatch):
    """Count client frames by ``(kind, worker address)``, plus the
    ``("need_fn", address)`` replies.

    Wraps ``_WorkerLink.request``, the one call every client frame goes
    through, so no executor counter is needed.
    """
    counts: Counter = Counter()
    lock = threading.Lock()
    request = _WorkerLink.request

    def counting(link, payload):
        with lock:
            counts[payload[0], link.address] += 1
        reply = request(link, payload)
        if reply[0] == "need_fn":
            with lock:
                counts["need_fn", link.address] += 1
        return reply

    monkeypatch.setattr(_WorkerLink, "request", counting)
    return counts


def registrations(counts):
    """``register_fn`` frames sent to any worker."""
    return sum(n for (kind, _), n in counts.items() if kind == "register_fn")


def runner_digest(spec):
    """The digest the engine's trial runner for ``spec`` registers under."""
    return function_digest(encode_value(_TrialRunner(spec)))


def flaky_worker():
    """A worker that hangs up instead of answering every other map frame.

    Its first chunk is lost mid-batch; each time the client resurrects
    the lane, it serves one chunk and hangs up again.
    """
    return LoopbackWorker(
        fault_injector=FaultInjector(
            [FaultEvent("map", op, "crash") for op in range(0, 64, 2)]
        )
    )


class TestFrameProtocol:
    def test_roundtrip(self):
        left, right = socket.socketpair()
        try:
            send_frame(left, ("map", _square, [1, 2, 3]))
            kind, fn, items = recv_frame(right)
            assert kind == "map" and fn(4) == 16 and items == [1, 2, 3]
        finally:
            left.close()
            right.close()

    def test_eof_raises_connection_error(self):
        left, right = socket.socketpair()
        left.close()
        try:
            with pytest.raises(ConnectionError):
                recv_frame(right)
        finally:
            right.close()

    def test_ping(self):
        with LoopbackWorker() as worker:
            executor = DistributedExecutor([worker.endpoint])
            assert executor.ping() == [True]
            executor.close()


class TestDistributedMap:
    def test_map_preserves_order(self):
        with LoopbackWorker() as w1, LoopbackWorker() as w2:
            with DistributedExecutor([w1.endpoint, w2.endpoint], chunksize=3) as ex:
                assert ex.map(_square, range(20)) == [x * x for x in range(20)]

    def test_run_batch_bit_identical_to_serial(self):
        golden = Engine(SerialExecutor()).run_batch(rank_spec(), 24)
        with LoopbackWorker() as w1, LoopbackWorker() as w2:
            with DistributedExecutor([w1.endpoint, w2.endpoint]) as executor:
                batch = Engine(executor).run_batch(rank_spec(), 24)
        assert batch.outputs == golden.outputs
        assert batch.transcript_keys == golden.transcript_keys
        assert batch.cost_totals() == golden.cost_totals()

    def test_concurrent_maps_do_not_interleave(self):
        """Each map holds its own sessions: overlapping maps stay isolated."""
        import concurrent.futures as cf

        with LoopbackWorker() as w1, LoopbackWorker() as w2:
            with DistributedExecutor([w1.endpoint, w2.endpoint], chunksize=2) as ex:
                with cf.ThreadPoolExecutor(max_workers=4) as threads:
                    futures = [
                        threads.submit(ex.map, _square, range(base, base + 12))
                        for base in (0, 100, 200, 300)
                    ]
                    for base, future in zip((0, 100, 200, 300), futures):
                        assert future.result(timeout=30) == [
                            x * x for x in range(base, base + 12)
                        ]

    def test_overlapping_batches_through_engine(self):
        """submit_batch overlap on a distributed fleet is bit-identical."""
        goldens = [Engine(SerialExecutor()).run_batch(rank_spec(seed), 12)
                   for seed in range(3)]
        with LoopbackWorker() as w1, LoopbackWorker() as w2:
            with DistributedExecutor([w1.endpoint, w2.endpoint]) as executor:
                with Engine(executor) as engine:
                    futures = [
                        engine.submit_batch(rank_spec(seed), 12)
                        for seed in range(3)
                    ]
                    batches = [future.result(timeout=60) for future in futures]
        for golden, batch in zip(goldens, batches):
            assert batch.outputs == golden.outputs

    def test_task_error_reraised(self):
        with LoopbackWorker() as worker:
            with DistributedExecutor([worker.endpoint]) as executor:
                with pytest.raises(ValueError, match="remote task"):
                    executor.map(_boom, range(4))

    def test_unencodable_runs_locally(self):
        """A lambda is not in the wire vocabulary (unregistered code
        never travels): the map runs locally with a loud warning."""
        with LoopbackWorker() as worker:
            with DistributedExecutor([worker.endpoint]) as executor:
                with pytest.warns(RuntimeWarning, match="not wire-encodable"):
                    assert executor.map(lambda x: x + 1, [1, 2]) == [2, 3]

    def test_empty_and_validation(self):
        with pytest.raises(ValueError):
            DistributedExecutor([])
        with pytest.raises(ValueError):
            DistributedExecutor(["host:1"], chunksize=0)
        with pytest.raises(ValueError):
            DistributedExecutor(["no-port-here"])
        with pytest.raises(ValueError):
            DistributedExecutor(["::1"])  # bare IPv6 without a port
        with pytest.raises(TypeError):
            DistributedExecutor(["host:1"], share_inputs_min_bytes=1)
        assert DistributedExecutor(["[::1]:9123"]).addresses == [("::1", 9123)]
        assert DistributedExecutor([("10.0.0.5", 80)]).addresses == [
            ("10.0.0.5", 80)
        ]
        with LoopbackWorker() as worker:
            with DistributedExecutor([worker.endpoint]) as executor:
                assert executor.map(_square, []) == []


def handshakes(executor):
    """Client handshakes that opened a session."""
    return executor.registry.total("exec_handshakes_total", outcome="ok")


def idle_sessions(executor):
    """Idle pooled sessions per worker address."""
    return {address: len(links) for address, links in executor._idle.items()}


def serve_on(address):
    """A worker serve loop bound to ``address``: a restarted worker
    process on the same host and port.  Returns its stop event and
    thread."""
    stop, ready = threading.Event(), threading.Event()
    thread = threading.Thread(
        target=worker_module.serve,
        kwargs=dict(
            host=address[0],
            port=address[1],
            stop_event=stop,
            ready_callback=lambda _bound: ready.set(),
        ),
        daemon=True,
    )
    thread.start()
    assert ready.wait(5)
    return stop, thread


class TestSessionPool:
    """A map checks a worker's idle session out of the executor and
    returns it when it ends, so a warm executor handshakes once per
    worker."""

    def test_consecutive_batches_handshake_once_per_worker(self):
        goldens = [
            Engine(SerialExecutor()).run_batch(rank_spec(seed), 8)
            for seed in range(10)
        ]
        with LoopbackWorker() as w1, LoopbackWorker() as w2:
            with DistributedExecutor([w1.endpoint, w2.endpoint]) as executor:
                engine = Engine(executor)
                for seed, golden in enumerate(goldens):
                    batch = engine.run_batch(rank_spec(seed), 8)
                    assert batch.outputs == golden.outputs
                    assert batch.transcript_keys == golden.transcript_keys
                    assert batch.cost_totals() == golden.cost_totals()
                assert handshakes(executor) == 2
                assert executor.registry.total("exec_errors_total") == 0

    def test_overlapping_batches_hold_their_own_sessions(self, monkeypatch):
        """Both batches' lanes run at once (a barrier holds each lane's
        first chunk until all four arrive), so each batch must hold its
        own session per worker; afterwards both wait in the pool."""
        barrier = threading.Barrier(4, timeout=10)
        held: set = set()
        run = _WireLane.run

        def gated(lane, chunk, span):
            if lane not in held:
                held.add(lane)
                barrier.wait()
            return run(lane, chunk, span)

        monkeypatch.setattr(_WireLane, "run", gated)
        goldens = [Engine(SerialExecutor()).run_batch(rank_spec(s), 16) for s in (1, 2)]
        with LoopbackWorker() as w1, LoopbackWorker() as w2:
            with DistributedExecutor(
                [w1.endpoint, w2.endpoint], heartbeat_interval=None
            ) as executor:
                with Engine(executor) as engine:
                    futures = [engine.submit_batch(rank_spec(s), 16) for s in (1, 2)]
                    batches = [future.result(timeout=30) for future in futures]
                links = {id(lane.link) for lane in held}
                assert len(held) == len(links) == 4
                assert handshakes(executor) == 4
                assert idle_sessions(executor) == {w1.address: 2, w2.address: 2}
        for golden, batch in zip(goldens, batches):
            assert batch.outputs == golden.outputs

    def test_pool_survives_concurrent_maps(self):
        """Eight threads (more than cores) run maps at once under a short
        switch interval.  A session checked out twice would interleave
        frames and fail their MACs; one lost from the pool would leave
        fewer idle sessions than handshakes."""
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with LoopbackWorker() as w1, LoopbackWorker() as w2:
                with DistributedExecutor(
                    [w1.endpoint, w2.endpoint],
                    chunksize=2,
                    task_timeout=5.0,
                    heartbeat_interval=None,
                ) as executor:

                    def client(base):
                        for offset in range(5):
                            start = base + 20 * offset
                            assert executor.map(_square, range(start, start + 8)) == [
                                x * x for x in range(start, start + 8)
                            ]

                    threads = [
                        threading.Thread(target=client, args=(1000 * t,))
                        for t in range(8)
                    ]
                    for thread in threads:
                        thread.start()
                    for thread in threads:
                        thread.join(30)
                    assert not any(thread.is_alive() for thread in threads)
                    assert executor.registry.total("exec_errors_total") == 0
                    pooled = [link for links in executor._idle.values() for link in links]
                    assert len({id(link) for link in pooled}) == len(pooled)
                    assert len(pooled) == handshakes(executor)
        finally:
            sys.setswitchinterval(interval)

    def test_worker_restarted_between_maps_is_redialed_quietly(self):
        """A worker that exited while its session sat idle: the session
        reads EOF at checkout, so the lane dials the restarted worker as
        a first map would — no error, no lane death, no fallback."""
        golden = Engine(SerialExecutor()).run_batch(rank_spec(), 8)
        worker = LoopbackWorker()
        executor = DistributedExecutor(
            [worker.endpoint], local_fallback=False, heartbeat_interval=None
        )
        try:
            assert Engine(executor).run_batch(rank_spec(), 8).outputs == golden.outputs
            worker.stop()
            stop, thread = serve_on(worker.address)
            try:
                batch = Engine(executor).run_batch(rank_spec(), 8)
            finally:
                stop.set()
                thread.join(5)
            assert batch.outputs == golden.outputs
            assert handshakes(executor) == 2
            assert executor.registry.total("exec_errors_total") == 0
            assert not any(
                event["kind"] == "lane_death" for event in executor.recorder.events()
            )
        finally:
            executor.close()

    def test_lost_lane_is_not_pooled(self):
        """A lane lost to a crash drops its session: the next map dials
        that worker once more and stays bit-identical."""
        golden = Engine(SerialExecutor()).run_batch(rank_spec(), 16)
        crashing = LoopbackWorker(
            fault_injector=FaultInjector([FaultEvent("map", 0, "crash")])
        )
        steady = LoopbackWorker()
        try:
            with DistributedExecutor(
                [crashing.endpoint, steady.endpoint],
                heartbeat_interval=None,
                lane_retries=0,
            ) as executor:
                engine = Engine(executor)
                assert engine.run_batch(rank_spec(), 16).outputs == golden.outputs
                assert handshakes(executor) == 2
                assert idle_sessions(executor) == {steady.address: 1}
                assert engine.run_batch(rank_spec(), 16).outputs == golden.outputs
                assert handshakes(executor) == 3
        finally:
            crashing.stop()
            steady.stop()

    def test_sessions_stay_in_sync_after_a_task_error(self):
        """A task error is a whole reply: the sessions go back to the
        pool and the next map on them is bit-identical, with no error."""
        golden = Engine(SerialExecutor()).run_batch(rank_spec(), 12)
        with LoopbackWorker() as w1, LoopbackWorker() as w2:
            with DistributedExecutor(
                [w1.endpoint, w2.endpoint], heartbeat_interval=None
            ) as executor:
                with pytest.raises(ValueError, match="remote task"):
                    executor.map(_boom, range(8))
                batch = Engine(executor).run_batch(rank_spec(), 12)
                assert batch.outputs == golden.outputs
                assert batch.transcript_keys == golden.transcript_keys
                assert handshakes(executor) == 2
                assert executor.registry.total("exec_errors_total") == 0

    def test_close_shuts_idle_sessions_and_dials_nothing(self, monkeypatch):
        """close() shuts the pooled sessions without dialing, and the
        executor stays usable."""
        with LoopbackWorker() as w1, LoopbackWorker() as w2:
            executor = DistributedExecutor([w1.endpoint, w2.endpoint])
            assert executor.map(_square, range(8)) == [x * x for x in range(8)]
            pooled = [link for links in executor._idle.values() for link in links]
            assert len(pooled) == 2
            with monkeypatch.context() as patch:
                dials: list = []
                patch.setattr(
                    socket, "create_connection", lambda *args, **kw: dials.append(args)
                )
                executor.close()
            assert dials == []
            assert executor._idle == {}
            assert all(link.sock is None for link in pooled)
            assert executor.map(_square, range(8)) == [x * x for x in range(8)]
            assert handshakes(executor) == 4
            executor.close()

    def test_stop_is_prompt_with_an_idle_session(self):
        """A handler blocked reading an idle session must not hold up
        the worker's stop (serve shuts the socket down first)."""
        worker = LoopbackWorker()
        with DistributedExecutor([worker.endpoint]) as executor:
            assert executor.map(_square, [3]) == [9]
            assert idle_sessions(executor) == {worker.address: 1}
            start = time.monotonic()
            worker.stop()
            assert time.monotonic() - start < 0.5


class TestFailover:
    def test_disconnect_mid_batch_redistributes(self):
        """A worker hanging up mid-batch must not lose or reorder results."""
        flaky = flaky_worker()
        steady = LoopbackWorker()
        try:
            with DistributedExecutor(
                [flaky.endpoint, steady.endpoint], chunksize=2
            ) as executor:
                assert executor.map(_square, range(16)) == [
                    x * x for x in range(16)
                ]
        finally:
            flaky.stop()
            steady.stop()

    def test_requeued_tail_chunk_reaches_surviving_worker(self):
        """A chunk re-queued after the survivors' feeders exited must be
        re-dispatched to the live fleet, not spuriously declared
        undeliverable (local_fallback=False would then raise)."""
        flaky = flaky_worker()
        steady = LoopbackWorker()
        try:
            with DistributedExecutor(
                [flaky.endpoint, steady.endpoint],
                chunksize=1,
                local_fallback=False,
            ) as executor:
                for _ in range(3):  # repeated maps re-roll the race
                    assert executor.map(_square, range(12)) == [
                        x * x for x in range(12)
                    ]
        finally:
            flaky.stop()
            steady.stop()

    def test_all_workers_gone_falls_back_locally(self):
        flaky = flaky_worker()
        try:
            with DistributedExecutor([flaky.endpoint], chunksize=2) as executor:
                with pytest.warns(RuntimeWarning, match="running .* locally|locally"):
                    assert executor.map(_square, range(10)) == [
                        x * x for x in range(10)
                    ]
        finally:
            flaky.stop()

    def test_unreachable_worker_falls_back_locally(self):
        # A port from the ephemeral range with nothing listening.
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            dead_endpoint = "127.0.0.1:%d" % probe.getsockname()[1]
        with DistributedExecutor([dead_endpoint], connect_timeout=0.5) as executor:
            with pytest.warns(RuntimeWarning):
                assert executor.map(_square, [1, 2, 3]) == [1, 4, 9]

    def test_no_fallback_raises(self):
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            dead_endpoint = "127.0.0.1:%d" % probe.getsockname()[1]
        with DistributedExecutor(
            [dead_endpoint], connect_timeout=0.5, local_fallback=False
        ) as executor:
            with pytest.raises(ConnectionError):
                executor.map(_square, [1, 2, 3])

    def test_connect_backoff_sleeps_through_the_retry_policy(self):
        """Every backoff goes through RetryPolicy.wait: an unreachable
        worker under connect_retries=2 sleeps exactly the policy's first
        two delays for its lane, and a recording sleeper spends no wall
        time on them (real sleeps would take at least 1.5 s here)."""
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            dead_endpoint = "127.0.0.1:%d" % probe.getsockname()[1]
        slept: list = []
        with DistributedExecutor(
            [dead_endpoint],
            connect_timeout=0.5,
            connect_retries=2,
            backoff_base=1.0,
            backoff_cap=2.0,
            heartbeat_interval=None,
            local_fallback=False,
        ) as executor:
            policy = executor._retry_policy
            policy.sleep = slept.append
            start = time.monotonic()
            with pytest.raises(ConnectionError):
                executor.map(_square, [1, 2, 3])
            assert time.monotonic() - start < 1.0
        assert slept == [policy.delay(0, lane=0), policy.delay(1, lane=0)]

    def test_engine_batch_survives_flaky_worker(self):
        golden = Engine(SerialExecutor()).run_batch(rank_spec(), 20)
        flaky = flaky_worker()
        steady = LoopbackWorker()
        try:
            with DistributedExecutor(
                [flaky.endpoint, steady.endpoint], chunksize=2
            ) as executor:
                batch = Engine(executor).run_batch(rank_spec(), 20)
        finally:
            flaky.stop()
            steady.stop()
        assert batch.outputs == golden.outputs


class TestRobustness:
    """The failure-hardening contract: deadlines, heartbeat, telemetry."""

    def test_default_task_timeout_is_finite_and_documented(self):
        """Satellite regression: submit_batch can no longer hang forever
        on a wedged worker by default."""
        assert DistributedExecutor.DEFAULT_TASK_TIMEOUT == 300.0
        with LoopbackWorker() as worker:
            with DistributedExecutor([worker.endpoint]) as executor:
                assert executor.task_timeout == 300.0

    def test_never_replying_worker_hits_chunk_deadline(self):
        """A worker that accepts the chunk and never answers trips
        task_timeout; the chunk is requeued and the failure is loud and
        typed — results still correct."""
        injector = FaultInjector([FaultEvent("map", 0, "hang")])
        worker = LoopbackWorker(fault_injector=injector)
        try:
            with DistributedExecutor(
                [worker.endpoint],
                chunksize=2,
                task_timeout=0.5,
                heartbeat_interval=None,
                lane_retries=0,
            ) as executor:
                with pytest.warns(FleetDegradedWarning, match="locally"):
                    assert executor.map(_square, range(6)) == [
                        x * x for x in range(6)
                    ]
                counts = executor.telemetry.counts()[worker.address]
                assert counts["timeout"] == 1
                assert executor.registry.total("exec_degraded_maps_total") == 1
                assert executor.registry.total("exec_requeues_total") >= 1
        finally:
            worker.stop()

    def test_submit_batch_survives_never_replying_worker(self):
        """The satellite's submit_batch regression: a hung worker stalls
        one chunk for task_timeout, then the survivors finish the batch
        bit-identically."""
        golden = Engine(SerialExecutor()).run_batch(rank_spec(), 8)
        injector = FaultInjector([FaultEvent("map", 0, "hang")])
        hung = LoopbackWorker(fault_injector=injector)
        steady = LoopbackWorker()
        try:
            with DistributedExecutor(
                [hung.endpoint, steady.endpoint],
                chunksize=2,
                task_timeout=0.5,
                heartbeat_interval=None,
                lane_retries=0,
            ) as executor:
                with Engine(executor) as engine:
                    batch = engine.submit_batch(rank_spec(), 8).result(
                        timeout=60
                    )
                assert executor.telemetry.counts()[hung.address]["timeout"] == 1
        finally:
            hung.stop()
            steady.stop()
        assert batch.outputs == golden.outputs
        assert batch.transcript_keys == golden.transcript_keys

    def test_heartbeat_flags_hung_worker_within_suspect_window(self):
        """The acceptance criterion: with task_timeout far away (30s),
        only the heartbeat monitor can unblock the feeder — the hung
        worker must be flagged suspect, then dead, within the configured
        window, and the batch must finish promptly on the survivor."""
        injector = FaultInjector([FaultEvent("map", 0, "hang")])
        hung = LoopbackWorker(fault_injector=injector)
        steady = LoopbackWorker()
        try:
            with DistributedExecutor(
                [hung.endpoint, steady.endpoint],
                chunksize=2,
                task_timeout=30.0,
                heartbeat_interval=0.1,
                suspect_after=1,
                dead_after=2,
                lane_retries=0,
            ) as executor:
                start = time.monotonic()
                assert executor.map(_square, range(8)) == [
                    x * x for x in range(8)
                ]
                elapsed = time.monotonic() - start
                # Far below task_timeout: the heartbeat did the work.
                assert elapsed < 10.0
                record = executor.health.snapshot()[hung.address]
                assert record.state == DEAD
                reasons = [reason for _, _, reason in record.transitions]
                assert "heartbeat" in reasons
                assert (
                    executor.telemetry.counts()[hung.address]["heartbeat"]
                    >= 2
                )
        finally:
            hung.stop()
            steady.stop()

    def test_heartbeat_loses_a_dead_workers_lane_once(self, monkeypatch):
        """The heartbeat over a lane list, with no sockets: every probe of
        one worker misses, so after dead_after probes it is dead, its
        lane is lost exactly once, it is not probed again, and the lost
        lane is not revived.  The other worker answers, which shows the
        heartbeat kept ticking after the loss."""
        with DistributedExecutor(
            ["127.0.0.1:1", "127.0.0.1:2"],
            heartbeat_interval=0.001,
            suspect_after=1,
            dead_after=2,
        ) as executor:
            dead, live = executor.addresses
            lanes = [_WireLane(executor, i, "digest", b"") for i in (0, 1)]
            probes: Counter = Counter()
            probed = threading.Condition()

            def probe(address, lane):
                with probed:
                    probes[address] += 1
                    probed.notify_all()
                return address == live

            monkeypatch.setattr(executor, "_probe", probe)
            losses: list = []
            lost = threading.Event()

            def counted(lane, real_lose):
                def lose():
                    losses.append(lane.link.address)
                    real_lose()
                    lost.set()

                return lose

            for lane in lanes:
                lane.lose = counted(lane, lane.lose)
            stop = threading.Event()
            beat = threading.Thread(
                target=executor._heartbeat, args=(lanes, stop), daemon=True
            )
            beat.start()
            try:
                assert lost.wait(10)
                with probed:
                    target = probes[live] + 3
                    assert probed.wait_for(lambda: probes[live] >= target, 10)
            finally:
                stop.set()
                beat.join(10)
            assert not beat.is_alive()
            assert losses == [dead]
            assert probes[dead] == 2
            assert executor.health.is_dead(dead)
            assert executor.telemetry.counts()[dead]["heartbeat"] == 2
            # Not revived: no backoff sleep, no reconnect.
            monkeypatch.setattr(
                lanes[0].link,
                "ensure_connected",
                lambda: pytest.fail("a dead worker's lane reconnected"),
            )
            assert lanes[0].ready() is False

    def test_close_opens_no_connection_to_a_hung_worker(self, monkeypatch):
        """close() has no network traffic: with a hung worker in the
        fleet it opens no connection and returns at once, and the
        executor forgets which workers hold which runners."""
        injector = FaultInjector([FaultEvent("map", 0, "hang")])
        hung = LoopbackWorker(fault_injector=injector)
        steady = LoopbackWorker()
        try:
            executor = DistributedExecutor(
                [hung.endpoint, steady.endpoint],
                chunksize=3,
                task_timeout=30.0,
                heartbeat_interval=0.1,
                suspect_after=1,
                dead_after=2,
                lane_retries=0,
            )
            Engine(executor).run_batch(fixed_input_spec(), 12)
            assert executor.health.is_dead(hung.address)
            assert executor._fn_acks
            dials: list = []
            monkeypatch.setattr(
                socket, "create_connection", lambda *args, **kw: dials.append(args)
            )
            start = time.monotonic()
            executor.close()
            assert time.monotonic() - start < 1.0
            assert dials == []
            assert executor._fn_acks == {}
        finally:
            hung.stop()
            steady.stop()

    def test_worker_death_after_need_reply_keeps_publish_invariant(
        self, monkeypatch
    ):
        """The worker answers ("need_fn", digest), receives the runner
        again, then crashes before returning the chunk.  The retried
        lane must find the runner registered — exactly one register_fn
        frame ever, including across the next batch."""
        spec = fixed_input_spec()
        golden = Engine(SerialExecutor()).run_batch(spec, 12)
        sent = count_frames(monkeypatch)
        injector = FaultInjector([FaultEvent("map", 1, "crash")])
        worker = LoopbackWorker(fault_injector=injector)
        try:
            with DistributedExecutor(
                [worker.endpoint],
                chunksize=12,
                heartbeat_interval=None,
            ) as executor:
                engine = Engine(executor)
                # Seed a stale ack: the client believes this (fresh,
                # empty-cached) worker already holds the runner, so the
                # first map frame draws the ("need_fn", digest) reply.
                executor._fn_acks[worker.address] = {runner_digest(spec): None}
                batch = engine.run_batch(spec, 12)
                assert batch.outputs == golden.outputs
                assert batch.transcript_keys == golden.transcript_keys
                # Exactly one register_fn frame: the need_fn refill.
                assert sent["need_fn", worker.address] == 1
                assert registrations(sent) == 1
                assert executor.telemetry.counts()[worker.address][
                    "transport"
                ] == 1
                # The next batch reuses the worker's runner: still one.
                batch = engine.run_batch(spec, 12)
                assert batch.outputs == golden.outputs
                assert registrations(sent) == 1
        finally:
            worker.stop()

    def test_corrupt_reply_is_typed_requeued_and_counted(self):
        """A bit-flipped reply fails MAC verification — the failure is
        detected *cryptographically* (telemetry category "auth"), the
        chunk requeues, and the results stay correct."""
        injector = FaultInjector([FaultEvent("map", 0, "corrupt")])
        worker = LoopbackWorker(fault_injector=injector)
        steady = LoopbackWorker()
        try:
            with DistributedExecutor(
                [worker.endpoint, steady.endpoint],
                chunksize=2,
                heartbeat_interval=None,
            ) as executor:
                assert executor.map(_square, range(8)) == [
                    x * x for x in range(8)
                ]
                assert executor.telemetry.counts()[worker.address][
                    "auth"
                ] == 1
        finally:
            worker.stop()
            steady.stop()

    def test_fault_exhaustion_without_fallback_raises_typed(self):
        """The conformance invariant's loud half: when every retry budget
        is spent and fallback is off, the failure is a typed
        ConnectionError — never a silent partial result."""
        injector = FaultInjector(
            [FaultEvent("map", op, "crash") for op in range(8)]
        )
        worker = LoopbackWorker(fault_injector=injector)
        try:
            with DistributedExecutor(
                [worker.endpoint],
                chunksize=4,
                heartbeat_interval=None,
                lane_retries=1,
                local_fallback=False,
            ) as executor:
                with pytest.raises(ConnectionError):
                    executor.map(_square, range(8))
        finally:
            worker.stop()

    def test_ping_failure_lands_in_telemetry_and_health(self):
        """The former silent except/pass sites now count every failure."""
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            dead_endpoint = "127.0.0.1:%d" % probe.getsockname()[1]
        with DistributedExecutor(
            [dead_endpoint], connect_timeout=0.3
        ) as executor:
            assert executor.ping() == [False]
            address = executor.addresses[0]
            counts = executor.telemetry.counts()[address]
            assert counts["connect"] >= 1
            assert executor.health.state(address) == SUSPECT


def fixed_input_spec(seed=3):
    rng = np.random.default_rng(0)
    inputs = rng.integers(0, 2, size=(16, 16), dtype=np.uint8)
    return RunSpec(
        protocol=TopSubmatrixRankProtocol(5), inputs=inputs, seed=seed
    )


def other_input_spec():
    rng = np.random.default_rng(9)
    return RunSpec(
        protocol=TopSubmatrixRankProtocol(5),
        inputs=rng.integers(0, 2, size=(16, 16), dtype=np.uint8),
        seed=2,
    )


class TestInputPublication:
    """Fixed inputs over the wire: the matrix rides the trial runner,
    which each worker registers once under its content digest."""

    def test_consecutive_batches_transmit_inputs_once_per_worker(
        self, monkeypatch
    ):
        """Three consecutive batches over the same fixed inputs send
        exactly one register_fn frame per worker, ever."""
        spec = fixed_input_spec()
        golden = Engine(SerialExecutor()).run_batch(spec, 24)
        sent = count_frames(monkeypatch)
        with LoopbackWorker() as w1, LoopbackWorker() as w2:
            with DistributedExecutor(
                [w1.endpoint, w2.endpoint], chunksize=3
            ) as executor:
                engine = Engine(executor)
                batches = [engine.run_batch(spec, 24) for _ in range(3)]
            assert sent["register_fn", w1.address] == 1
            assert sent["register_fn", w2.address] == 1
            assert registrations(sent) == 2
        for batch in batches:
            assert batch.outputs == golden.outputs
            assert batch.transcript_keys == golden.transcript_keys

    def test_restarted_worker_is_refilled_via_need_reply(self, monkeypatch):
        """A fresh worker behind a stale ack answers ("need_fn", digest)
        and the client re-registers the runner, matrix included —
        no failed batch, one extra register_fn frame."""
        spec = fixed_input_spec()
        golden = Engine(SerialExecutor()).run_batch(spec, 12)
        sent = count_frames(monkeypatch)
        first = LoopbackWorker()
        executor = DistributedExecutor([first.endpoint], chunksize=4)
        try:
            batch = Engine(executor).run_batch(spec, 12)
            assert batch.outputs == golden.outputs
            assert registrations(sent) == 1
            first.stop()
            # A new worker process on a fresh port; rewire the executor's
            # address list to simulate the same host restarting with an
            # empty cache while the client still believes it acked.
            second = LoopbackWorker()
            try:
                executor._addresses = [second.address]
                executor._fn_acks[second.address] = {runner_digest(spec): None}
                batch = Engine(executor).run_batch(spec, 12)
                assert batch.outputs == golden.outputs
                assert batch.transcript_keys == golden.transcript_keys
                assert sent["need_fn", second.address] == 1
                assert sent["register_fn", second.address] == 1  # the refill
            finally:
                second.stop()
        finally:
            executor.close()

    def test_local_fallback_binds_published_inputs(self):
        """When the whole fleet is gone, the locally-run tasks see the
        fixed matrix their runner carries."""
        spec = fixed_input_spec()
        golden = Engine(SerialExecutor()).run_batch(spec, 8)
        # Hangs up on every upload, so no chunk ever reaches it.
        flaky = LoopbackWorker(
            fault_injector=FaultInjector(
                [FaultEvent("publish", op, "crash") for op in range(64)]
            )
        )
        try:
            with DistributedExecutor(
                [flaky.endpoint], chunksize=2
            ) as executor:
                with pytest.warns(RuntimeWarning, match="locally"):
                    batch = Engine(executor).run_batch(spec, 8)
        finally:
            flaky.stop()
        assert batch.outputs == golden.outputs

    def test_worker_cache_eviction_heals_via_need_reply(self, monkeypatch):
        """A worker whose bounded cache evicted a runner answers
        ("need_fn", digest) and is transparently re-registered."""
        monkeypatch.setattr(worker_module, "MAX_CACHED_FNS", 1)
        spec_a, spec_b = fixed_input_spec(seed=1), other_input_spec()
        golden_a = Engine(SerialExecutor()).run_batch(spec_a, 8)
        sent = count_frames(monkeypatch)
        with LoopbackWorker() as worker:
            with DistributedExecutor(
                [worker.endpoint], chunksize=2
            ) as executor:
                engine = Engine(executor)
                engine.run_batch(spec_a, 8)          # worker holds A
                engine.run_batch(spec_b, 8)          # worker evicts A for B
                batch = engine.run_batch(spec_a, 8)  # need_fn -> refill
            # The client believed A was still acked, so the third
            # registration happened through the need_fn path.
            assert sent["need_fn", worker.address] == 1
            assert registrations(sent) == 3
        assert batch.outputs == golden_a.outputs

    def test_ack_table_follows_the_workers_lru(self, monkeypatch):
        """100 distinct runners leave at most MAX_CACHED_FNS acks for the
        worker, as its own LRU keeps: re-running the first spec, which
        both sides evicted, registers it up front with no need_fn."""
        with LoopbackWorker() as worker:
            with DistributedExecutor(
                [worker.endpoint], heartbeat_interval=None
            ) as executor:
                engine = Engine(executor)
                for seed in range(100):
                    engine.run_batch(rank_spec(seed), 2)
                acks = executor._fn_acks[worker.address]
                assert len(acks) <= worker_module.MAX_CACHED_FNS
                sent = count_frames(monkeypatch)
                batch = engine.run_batch(rank_spec(0), 2)
                assert sent["register_fn", worker.address] == 1
                assert sent["need_fn", worker.address] == 0
        golden = Engine(SerialExecutor()).run_batch(rank_spec(0), 2)
        assert batch.outputs == golden.outputs

    def test_buffer_refilled_in_place_is_republished(self, monkeypatch):
        """A fixed-input buffer refilled between batches makes a new
        runner digest; the worker never runs the second batch on the
        matrix it holds for the first."""
        buffer = np.zeros((16, 16), dtype=np.uint8)
        spec = RunSpec(
            protocol=TopSubmatrixRankProtocol(5), inputs=buffer, seed=3
        )
        sent = count_frames(monkeypatch)
        with LoopbackWorker() as worker:
            with DistributedExecutor(
                [worker.endpoint], chunksize=4
            ) as executor:
                engine = Engine(executor)
                engine.run_batch(spec, 8)
                buffer[:] = np.eye(16, dtype=np.uint8)
                batch = engine.run_batch(spec, 8)
                golden = Engine(SerialExecutor()).run_batch(spec, 8)
                assert batch.outputs == golden.outputs
                assert registrations(sent) == 2

    def test_real_cli_worker_binds_published_inputs(self):
        """`python -m repro.exec.worker` runs worker.py as __main__ (the
        entry point delegates to the canonical module): a fixed-input
        batch on that real subprocess worker is bit-identical to
        serial."""
        import os
        import subprocess
        import sys

        env = dict(os.environ)
        src = str(
            (Path(__file__).resolve().parents[2] / "src")
        )
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.exec.worker", "--port", "0"],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        spec = fixed_input_spec()
        golden = Engine(SerialExecutor()).run_batch(spec, 8)
        try:
            # The announce line doubles as the readiness signal and
            # carries the OS-assigned port (no hardcoded-port races).
            # runpy may emit a double-import RuntimeWarning first; skip
            # any such noise until the banner arrives.
            banner = ""
            for _ in range(10):
                banner = proc.stdout.readline()
                if "listening on" in banner:
                    break
            assert "listening on" in banner, banner
            endpoint = banner.rsplit(" ", 1)[-1].strip()
            executor = DistributedExecutor(
                [endpoint],
                chunksize=2,
                connect_timeout=5.0,
            )
            with executor:
                batch = Engine(executor).run_batch(spec, 8)
            assert batch.outputs == golden.outputs
        finally:
            proc.terminate()
            proc.wait(timeout=10)
            proc.stdout.close()
