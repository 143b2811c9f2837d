"""Tests for the distributed executor, worker serve loop, and loopback rig."""

import socket
import threading
import time
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from repro.core import Engine, RunSpec, SerialExecutor
from repro.distributions import UniformRows
from repro.exec import DistributedExecutor, LoopbackWorker
from repro.exec.distributed import _WireLane
from repro.exec.faults import FaultEvent, FaultInjector
from repro.exec.health import DEAD, SUSPECT, FleetDegradedWarning
from repro.exec.wire import (
    decode_value,
    encode_value,
    recv_frame,
    register_wire_function,
    send_frame,
)
from repro.exec.worker import PublishedInput
from repro.lowerbounds import TopSubmatrixRankProtocol

#: Registry series counting the ``publish_inputs`` frames actually sent.
PUBLISH_FRAMES = "exec_publish_frames_total"


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
        """Per-call connections: overlapping maps stay isolated."""
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
        assert DistributedExecutor(["[::1]:9123"]).addresses == [("::1", 9123)]
        assert DistributedExecutor([("10.0.0.5", 80)]).addresses == [
            ("10.0.0.5", 80)
        ]
        with LoopbackWorker() as worker:
            with DistributedExecutor([worker.endpoint]) as executor:
                assert executor.map(_square, []) == []


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
            lanes = [_WireLane(executor, i, "digest", b"", None) for i in (0, 1)]
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

    def test_close_skips_release_on_dead_worker(self):
        """Regression: close() used to reconnect to a worker the health
        board had declared dead and wait task_timeout (30 s here) for its
        release reply.  Now it skips the dead worker, counting the skip
        under "release", and releases the live one."""
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
                share_inputs_min_bytes=1,
            )
            Engine(executor).run_batch(fixed_input_spec(), 12)
            assert executor.health.is_dead(hung.address)
            assert hung.address in executor._acked
            start = time.monotonic()
            executor.close()
            assert time.monotonic() - start < 5.0
            assert executor.telemetry.counts()[hung.address]["release"] == 1
            assert "release" not in executor.telemetry.counts().get(
                steady.address, {}
            )
        finally:
            hung.stop()
            steady.stop()

    def test_worker_death_after_need_reply_keeps_publish_invariant(self):
        """Satellite: the worker answers ("need", digest), receives the
        refill, then crashes before returning the chunk.  The retried
        lane must find the refilled cache — exactly one publish frame
        ever, including across the next batch."""
        spec = fixed_input_spec()
        golden = Engine(SerialExecutor()).run_batch(spec, 12)
        injector = FaultInjector([FaultEvent("map", 1, "crash")])
        worker = LoopbackWorker(fault_injector=injector)
        try:
            with DistributedExecutor(
                [worker.endpoint],
                share_inputs_min_bytes=1,
                chunksize=12,
                heartbeat_interval=None,
            ) as executor:
                engine = Engine(executor)
                # Seed a stale ack: the client believes this (fresh,
                # empty-cached) worker already holds the digest, so the
                # first map frame draws the ("need", digest) reply.
                handle = executor.publish_inputs(spec.inputs)
                executor._acked[worker.address] = {handle.digest}
                batch = engine.run_batch(spec, 12)
                assert batch.outputs == golden.outputs
                assert batch.transcript_keys == golden.transcript_keys
                # Exactly one publish frame: the need-path refill.
                assert executor.registry.total(PUBLISH_FRAMES) == 1
                assert executor.telemetry.counts()[worker.address][
                    "transport"
                ] == 1
                executor.release_inputs(handle)
                # The next batch reuses the worker's cache: still one.
                batch = engine.run_batch(spec, 12)
                assert batch.outputs == golden.outputs
                assert executor.registry.total(PUBLISH_FRAMES) == 1
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


class TestInputPublication:
    """Shared fixed inputs over the wire: publish once, reuse per worker."""

    def test_consecutive_batches_transmit_inputs_once_per_worker(self):
        """The acceptance-criteria frame-count assertion: >= 2 consecutive
        batches over the same fixed inputs reuse the published matrix —
        exactly one publish_inputs frame per worker, ever."""
        spec = fixed_input_spec()
        golden = Engine(SerialExecutor()).run_batch(spec, 24)
        with LoopbackWorker() as w1, LoopbackWorker() as w2:
            with DistributedExecutor(
                [w1.endpoint, w2.endpoint], share_inputs_min_bytes=1, chunksize=3
            ) as executor:
                engine = Engine(executor)
                batches = [engine.run_batch(spec, 24) for _ in range(3)]
                assert executor.registry.total(PUBLISH_FRAMES) == 2  # one per worker
        for batch in batches:
            assert batch.outputs == golden.outputs
            assert batch.transcript_keys == golden.transcript_keys

    def test_small_inputs_skip_publication(self):
        spec = fixed_input_spec()
        with LoopbackWorker() as worker:
            with DistributedExecutor([worker.endpoint]) as executor:
                # Default threshold (64 KiB) far exceeds a 256-byte matrix.
                Engine(executor).run_batch(spec, 8)
                assert executor.registry.total(PUBLISH_FRAMES) == 0

    def test_restarted_worker_is_refilled_via_need_reply(self):
        """A worker that lost its cache answers ("need", digest) and the
        client republishes transparently — no failed batch, one extra
        publish frame."""
        spec = fixed_input_spec()
        golden = Engine(SerialExecutor()).run_batch(spec, 12)
        first = LoopbackWorker()
        executor = DistributedExecutor(
            [first.endpoint], share_inputs_min_bytes=1, chunksize=4
        )
        try:
            batch = Engine(executor).run_batch(spec, 12)
            assert batch.outputs == golden.outputs
            assert executor.registry.total(PUBLISH_FRAMES) == 1
            first.stop()
            # A new worker process on a fresh port; rewire the executor's
            # address list to simulate the same host restarting with an
            # empty input cache while the client still believes it acked.
            second = LoopbackWorker()
            try:
                executor._addresses = [second.address]
                executor._acked[second.address] = {
                    next(iter(executor._inputs_by_digest))
                }
                batch = Engine(executor).run_batch(spec, 12)
                assert batch.outputs == golden.outputs
                assert executor.registry.total(PUBLISH_FRAMES) == 2  # the refill
            finally:
                second.stop()
        finally:
            executor.close()

    def test_close_releases_worker_caches(self):
        spec = fixed_input_spec()
        with LoopbackWorker() as worker:
            executor = DistributedExecutor(
                [worker.endpoint], share_inputs_min_bytes=1
            )
            Engine(executor).run_batch(spec, 8)
            assert executor.registry.total(PUBLISH_FRAMES) == 1
            executor.close()
            assert executor._inputs_by_digest == {}
            assert executor._acked == {}
            # After close + release, a fresh map must republish.
            executor2 = DistributedExecutor(
                [worker.endpoint], share_inputs_min_bytes=1
            )
            Engine(executor2).run_batch(spec, 8)
            assert executor2.registry.total(PUBLISH_FRAMES) == 1
            executor2.close()

    def test_local_fallback_binds_published_inputs(self):
        """When the whole fleet is gone, the locally-run tasks must see
        the published matrix (the handle is rebound from the client's
        own store)."""
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
                [flaky.endpoint], share_inputs_min_bytes=1, chunksize=2
            ) as executor:
                with pytest.warns(RuntimeWarning, match="locally"):
                    batch = Engine(executor).run_batch(spec, 8)
        finally:
            flaky.stop()
        assert batch.outputs == golden.outputs

    def test_client_lru_eviction_forgets_acks_and_republishes(self):
        """max_cached_inputs bounds the executor's pinned matrices; an
        evicted digest is republished on next use instead of referencing
        a forgotten matrix."""
        spec_a = fixed_input_spec(seed=1)
        rng = np.random.default_rng(9)
        spec_b = RunSpec(
            protocol=TopSubmatrixRankProtocol(5),
            inputs=rng.integers(0, 2, size=(16, 16), dtype=np.uint8),
            seed=2,
        )
        golden_a = Engine(SerialExecutor()).run_batch(spec_a, 8)
        with LoopbackWorker() as worker:
            with DistributedExecutor(
                [worker.endpoint],
                share_inputs_min_bytes=1,
                chunksize=2,
                max_cached_inputs=1,
            ) as executor:
                engine = Engine(executor)
                engine.run_batch(spec_a, 8)          # publish A
                engine.run_batch(spec_b, 8)          # publish B, evict A
                assert len(executor._inputs_by_digest) == 1
                batch = engine.run_batch(spec_a, 8)  # A republished
                assert executor.registry.total(PUBLISH_FRAMES) == 3
        assert batch.outputs == golden_a.outputs

    def test_inflight_digests_are_never_evicted(self):
        """The LRU bound must not evict a matrix a running batch still
        references: publish_inputs pins, release_inputs unpins."""
        with LoopbackWorker() as worker:
            with DistributedExecutor(
                [worker.endpoint], share_inputs_min_bytes=1, max_cached_inputs=1
            ) as executor:
                handle_a = executor.publish_inputs(np.zeros((8, 8), np.uint8))
                handle_b = executor.publish_inputs(np.ones((8, 8), np.uint8))
                # Both pinned: the bound is exceeded rather than broken.
                assert len(executor._inputs_by_digest) == 2
                executor.release_inputs(handle_a)
                handle_c = executor.publish_inputs(
                    np.full((8, 8), 2, np.uint8)
                )
                # A was unpinned -> evicted; pinned B and C survive.
                assert handle_a.digest not in executor._inputs_by_digest
                assert handle_b.digest in executor._inputs_by_digest
                assert handle_c.digest in executor._inputs_by_digest
                executor.release_inputs(handle_b)
                executor.release_inputs(handle_c)

    def test_worker_cache_eviction_heals_via_need_reply(self):
        """A worker that evicted a digest (its own LRU bound) answers
        ("need", digest) and is transparently refilled."""
        spec_a = fixed_input_spec(seed=1)
        rng = np.random.default_rng(9)
        spec_b = RunSpec(
            protocol=TopSubmatrixRankProtocol(5),
            inputs=rng.integers(0, 2, size=(16, 16), dtype=np.uint8),
            seed=2,
        )
        golden_a = Engine(SerialExecutor()).run_batch(spec_a, 8)
        with LoopbackWorker(max_cached_inputs=1) as worker:
            with DistributedExecutor(
                [worker.endpoint], share_inputs_min_bytes=1, chunksize=2
            ) as executor:
                engine = Engine(executor)
                engine.run_batch(spec_a, 8)          # worker caches A
                engine.run_batch(spec_b, 8)          # worker evicts A for B
                batch = engine.run_batch(spec_a, 8)  # need -> refill
                # Client believed A was still acked, so the third
                # publish happened through the need path.
                assert executor.registry.total(PUBLISH_FRAMES) == 3
        assert batch.outputs == golden_a.outputs

    def test_published_input_handle_travels_unbound(self):
        """The client's handle crosses the wire as digest + metadata, with
        no array; the worker binds it to its cached matrix."""
        array = np.arange(6, dtype=np.uint8).reshape(2, 3)
        handle = PublishedInput("d" * 64, (2, 3), "|u1")
        assert not handle.bound
        wire = decode_value(encode_value(handle))
        assert not wire.bound and wire.digest == handle.digest
        assert (wire.shape, wire.dtype_str) == ((2, 3), "|u1")
        with pytest.raises(LookupError):
            wire.attach()
        wire.bind(array)
        np.testing.assert_array_equal(wire.attach(), array)

    def test_buffer_refilled_in_place_is_republished(self):
        """A fixed-input buffer refilled between batches is published
        under its new digest; the worker never runs the second batch on
        the matrix it cached for the first."""
        buffer = np.zeros((16, 16), dtype=np.uint8)
        spec = RunSpec(
            protocol=TopSubmatrixRankProtocol(5), inputs=buffer, seed=3
        )
        with LoopbackWorker() as worker:
            with DistributedExecutor(
                [worker.endpoint], share_inputs_min_bytes=1, chunksize=4
            ) as executor:
                engine = Engine(executor)
                engine.run_batch(spec, 8)
                buffer[:] = np.eye(16, dtype=np.uint8)
                batch = engine.run_batch(spec, 8)
                golden = Engine(SerialExecutor()).run_batch(spec, 8)
                assert batch.outputs == golden.outputs
                assert executor.registry.total(PUBLISH_FRAMES) == 2

    def test_real_cli_worker_binds_published_inputs(self):
        """Regression: `python -m repro.exec.worker` runs worker.py as
        __main__, so its PublishedInput class must still match the
        repro.exec.worker.PublishedInput arriving in schema frames
        (the entry point delegates to the canonical module)."""
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
                share_inputs_min_bytes=1,
                chunksize=2,
                connect_timeout=5.0,
            )
            with executor:
                batch = Engine(executor).run_batch(spec, 8)
                assert executor.registry.total(PUBLISH_FRAMES) == 1
            assert batch.outputs == golden.outputs
        finally:
            proc.terminate()
            proc.wait(timeout=10)
