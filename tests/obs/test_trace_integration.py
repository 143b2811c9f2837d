"""The tracing acceptance test: a traced 4-worker loopback fleet
exports schema-valid Chrome trace-event JSON showing per-lane chunk
spans, steal instants, a heartbeat track, and worker-side execution
spans correlated by context id.
"""

import json

import pytest

from repro.core import Engine, RunSpec, SerialExecutor
from repro.distributions import UniformRows
from repro.exec import DistributedExecutor, LoopbackWorker
from repro.exec.faults import FaultEvent, FaultInjector
from repro.lowerbounds import TopSubmatrixRankProtocol
from repro.obs import Tracer, validate_chrome_trace

TRIALS = 24


def spec() -> RunSpec:
    return RunSpec(
        protocol=TopSubmatrixRankProtocol(4),
        distribution=UniformRows(8, 8),
        seed=7,
    )


@pytest.fixture
def traced_fleet_payload(tmp_path):
    """Run one traced batch on a 4-worker fleet (one slow worker, so
    steals must happen) and return the exported Chrome payload."""
    tracer = Tracer()
    # worker 0 answers every map frame 0.2 s late: its lane drains
    # slowly and the other lanes steal its backlog.
    slow = FaultInjector(
        [FaultEvent("map", op, "slow", delay=0.2) for op in range(64)],
        site="worker-0",
    )
    workers = [LoopbackWorker(fault_injector=slow, tracer=tracer)]
    workers += [LoopbackWorker(tracer=tracer) for _ in range(3)]
    try:
        with DistributedExecutor(
            [w.endpoint for w in workers],
            chunksize=2,
            heartbeat_interval=0.05,
            share_inputs_min_bytes=1,
            tracer=tracer,
        ) as executor:
            batch = Engine(executor, tracer=tracer).run_batch(spec(), TRIALS)
            steals = executor.registry.total("exec_steals_total")
    finally:
        for w in workers:
            w.stop()

    golden = Engine(SerialExecutor()).run_batch(spec(), TRIALS)
    assert batch.outputs == golden.outputs  # tracing never costs determinism
    assert steals >= 1, "slow lane produced no steals to trace"

    target = tmp_path / "fleet_trace.json"
    tracer.dump_chrome(target)
    return json.loads(target.read_text())


class TestFleetTraceExport:
    def test_schema_valid_with_lane_steal_heartbeat_tracks(
        self, traced_fleet_payload
    ):
        payload = traced_fleet_payload
        assert validate_chrome_trace(payload) == []

        events = payload["traceEvents"]
        track_of = {
            (m["pid"], m["tid"]): m["args"]["name"]
            for m in events
            if m["ph"] == "M" and m["name"] == "thread_name"
        }
        tracks = set(track_of.values())
        # all four lanes dispatched chunks
        assert {f"lane-{i}" for i in range(4)} <= tracks
        assert "heartbeat" in tracks
        assert "engine" in tracks

        def on(event):
            return track_of[(event["pid"], event["tid"])]

        spans = [e for e in events if e["ph"] == "X"]
        instants = [e for e in events if e["ph"] == "i"]

        # per-lane chunk spans, with items/worker args for the viewer
        chunk_spans = [e for e in spans if e["name"] == "chunk"]
        assert chunk_spans and all(on(e).startswith("lane-") for e in chunk_spans)
        assert all(
            e["args"]["items"] >= 1 and "worker" in e["args"] for e in chunk_spans
        )

        # steal instants on the stealing lanes
        steal_marks = [e for e in instants if e["name"] == "steal"]
        assert steal_marks and all(on(e).startswith("lane-") for e in steal_marks)

        # the heartbeat monitor probed, and verdicts are in the args
        probes = [e for e in spans if e["name"] == "probe"]
        assert probes and all(on(e) == "heartbeat" for e in probes)
        assert all(e["args"]["alive"] in (True, False) for e in probes)

        # engine-level run_batch/map spans frame the whole thing
        assert {e["name"] for e in spans if on(e) == "engine"} >= {
            "run_batch",
            "map",
        }

    def test_worker_side_spans_correlate_by_context(self, traced_fleet_payload):
        events = traced_fleet_payload["traceEvents"]
        track_of = {
            (m["pid"], m["tid"]): m["args"]["name"]
            for m in events
            if m["ph"] == "M" and m["name"] == "thread_name"
        }

        def on(event):
            return track_of[(event["pid"], event["tid"])]

        chunk_ctx = {
            e["args"]["ctx"]
            for e in events
            if e["ph"] == "X" and e["name"] == "chunk"
        }
        exec_spans = [
            e for e in events if e["ph"] == "X" and e["name"] == "exec_chunk"
        ]
        # in-process loopback workers share the tracer, so their serve
        # loops recorded exec spans on the worker track...
        assert exec_spans and all(on(e) == "worker" for e in exec_spans)
        # ...and every one carries a context id some dispatched chunk sent
        exec_ctx = {e["args"]["ctx"] for e in exec_spans}
        assert exec_ctx and exec_ctx <= chunk_ctx
