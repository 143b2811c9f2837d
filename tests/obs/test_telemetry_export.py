"""Telemetry served from the unified ``repro.obs`` registry and flight
recorder: per-reason ``Engine.batch_fallbacks`` backed by
``engine_batch_fallbacks_total``, ``HealthBoard.transition_history()``,
and the ``ErrorTelemetry`` → registry-JSON round trip.
"""

import threading

import pytest

from repro.core.engine import Engine, FALLBACKS_METRIC, RunSpec
from repro.core.errors import BatchFallbackWarning
from repro.core.protocol import Protocol
from repro.distributions.uniform import UniformRows
from repro.exec.health import ERRORS_METRIC, ErrorTelemetry, HealthBoard
from repro.obs import FlightRecorder, MetricsRegistry
from repro.protocols.parity import GlobalParityProtocol


class UnbatchedParityProtocol(GlobalParityProtocol):
    batch_decisions = Protocol.batch_decisions


class TestEngineBatchFallbacks:
    def fallback_spec(self):
        return RunSpec(
            protocol=UnbatchedParityProtocol(),
            distribution=UniformRows(8, 6),
            seed=5,
            vectorized=True,
        )

    def test_per_reason_counts_and_registry_series(self):
        registry = MetricsRegistry()
        engine = Engine(registry=registry)
        assert engine.batch_fallbacks == {}
        with pytest.warns(BatchFallbackWarning, match="no_batch_support"):
            engine.run_batch(self.fallback_spec(), 4)
        with pytest.warns(BatchFallbackWarning):
            engine.run_batch(self.fallback_spec(), 4)
        assert engine.batch_fallbacks == {"no_batch_support": 2}
        # served from the shared registry, not a private int
        assert registry.total(FALLBACKS_METRIC, reason="no_batch_support") == 2

    def test_warning_names_the_reason_code(self):
        engine = Engine()
        with pytest.warns(BatchFallbackWarning, match=r"\[no_batch_support\]"):
            engine.run_batch(self.fallback_spec(), 4)


class TestHealthBoardHistory:
    def test_transition_history_export(self):
        board = HealthBoard(suspect_after=1, dead_after=2)
        worker = ("10.0.0.5", 9123)
        board.record_miss(worker, reason="timeout")
        board.record_miss(worker, reason="timeout")
        board.record_ok(worker)
        history = board.transition_history()
        assert [(h["old"], h["new"]) for h in history] == [
            ("healthy", "suspect"),
            ("suspect", "dead"),
            ("dead", "healthy"),
        ]
        assert all(h["worker"] == str(worker) for h in history)
        assert history[0]["reason"] == "timeout"

    def test_transitions_land_in_flight_recorder(self):
        recorder = FlightRecorder()
        board = HealthBoard(suspect_after=1, dead_after=2, recorder=recorder)
        board.record_miss("w0", reason="timeout")
        board.record_ok("w0")
        kinds = [(e["kind"], e["old"], e["new"]) for e in recorder.events()]
        assert kinds == [
            ("health", "healthy", "suspect"),
            ("health", "suspect", "healthy"),
        ]

    def test_no_event_without_state_change(self):
        recorder = FlightRecorder()
        board = HealthBoard(suspect_after=3, dead_after=5, recorder=recorder)
        board.record_ok("w0")
        board.record_miss("w0", reason="timeout")  # still healthy
        assert recorder.events() == []


class TestErrorTelemetryRoundTrip:
    def test_counts_keep_tuple_keys(self):
        telemetry = ErrorTelemetry()
        telemetry.record(("127.0.0.1", 9123), "timeout", 2)
        telemetry.record("lane-3", "connect")
        assert telemetry.counts() == {
            ("127.0.0.1", 9123): {"timeout": 2},
            "lane-3": {"connect": 1},
        }
        assert telemetry.total() == 3
        assert telemetry.total("timeout") == 2

    def test_snapshot_round_trips_through_registry_json(self):
        """The chaos artifact path: live telemetry → metrics JSON →
        restored registry → the same counts the CLI report renders."""
        registry = MetricsRegistry()
        telemetry = ErrorTelemetry(registry=registry)
        telemetry.record(("127.0.0.1", 9123), "timeout", 3)
        telemetry.record(("127.0.0.1", 9124), "corrupt")
        restored = MetricsRegistry.from_json(registry.to_json())
        assert restored.total(ERRORS_METRIC) == 4
        assert (
            restored.total(ERRORS_METRIC, worker="127.0.0.1:9123", category="timeout")
            == 3
        )

    def test_empty_telemetry_round_trip(self):
        registry = MetricsRegistry()
        ErrorTelemetry(registry=registry)
        restored = MetricsRegistry.from_json(registry.to_json())
        assert restored.total(ERRORS_METRIC) == 0

    def test_concurrent_records_all_land(self):
        telemetry = ErrorTelemetry()
        per_thread = 250

        def hammer(i: int) -> None:
            for _ in range(per_thread):
                telemetry.record(("10.0.0.1", 9000 + i), "timeout")

        threads = [threading.Thread(target=hammer, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert telemetry.total() == 4 * per_thread
        assert telemetry.total("timeout") == 4 * per_thread

    def test_label_collision_two_workers_same_formatting(self):
        """Distinct Hashable worker keys that format to the same label
        share a series; counts() maps the label back to the first key."""
        telemetry = ErrorTelemetry()
        telemetry.record(("h", 1), "timeout")
        telemetry.record("h:1", "timeout")
        assert telemetry.total("timeout") == 2
        (worker_counts,) = telemetry.counts().values()
        assert worker_counts == {"timeout": 2}
