"""Tests for worker liveness, error telemetry, and retry policy."""

import pytest

from repro.exec.health import (
    DEAD,
    HEALTHY,
    SUSPECT,
    ErrorTelemetry,
    FleetDegradedWarning,
    HealthBoard,
    RetryPolicy,
    WorkerHealth,
    WorkerTimeoutError,
)


class TestWorkerHealth:
    def test_state_machine_walk(self):
        record = WorkerHealth()
        assert record.state == HEALTHY
        assert record.record_miss(1, 3, reason="heartbeat") == SUSPECT
        assert record.record_miss(1, 3, reason="heartbeat") == SUSPECT
        assert record.record_miss(1, 3, reason="timeout") == DEAD
        assert record.transitions == [
            (HEALTHY, SUSPECT, "heartbeat"),
            (SUSPECT, DEAD, "timeout"),
        ]

    def test_ok_resets_streak(self):
        record = WorkerHealth()
        record.record_miss(1, 3, reason="ping")
        assert record.record_ok() == HEALTHY
        assert record.misses == 0
        # The streak restarts from scratch after the success.
        assert record.record_miss(1, 3, reason="ping") == SUSPECT


class TestHealthBoard:
    def test_validation(self):
        with pytest.raises(ValueError):
            HealthBoard(suspect_after=0)
        with pytest.raises(ValueError):
            HealthBoard(suspect_after=3, dead_after=2)

    def test_unknown_worker_is_healthy(self):
        board = HealthBoard()
        assert board.state("nowhere:1") == HEALTHY
        assert not board.is_dead("nowhere:1")

    def test_miss_sequence_promotes(self):
        board = HealthBoard(suspect_after=1, dead_after=3)
        worker = ("10.0.0.5", 9123)
        assert board.record_miss(worker) == SUSPECT
        assert board.record_miss(worker) == SUSPECT
        assert board.record_miss(worker) == DEAD
        assert board.is_dead(worker)
        # A dead worker that answers again is alive, whatever its past.
        assert board.record_ok(worker) == HEALTHY

    def test_snapshot_is_a_copy(self):
        board = HealthBoard(suspect_after=1, dead_after=2)
        board.record_miss("w", reason="heartbeat")
        snapshot = board.snapshot()
        snapshot["w"].record_miss(1, 2, reason="tampering")
        snapshot["w"].transitions.append(("x", "y", "z"))
        assert board.state("w") == SUSPECT
        assert board.snapshot()["w"].transitions == [
            (HEALTHY, SUSPECT, "heartbeat")
        ]


class TestErrorTelemetry:
    def test_counts_by_worker_and_category(self):
        telemetry = ErrorTelemetry()
        telemetry.record("a", "transport")
        telemetry.record("a", "transport")
        telemetry.record("a", "timeout")
        telemetry.record("b", "connect", n=3)
        assert telemetry.counts() == {
            "a": {"transport": 2, "timeout": 1},
            "b": {"connect": 3},
        }
        assert telemetry.total() == 6
        assert telemetry.total("transport") == 2
        assert telemetry.total("nothing") == 0

    def test_counts_returns_a_copy(self):
        telemetry = ErrorTelemetry()
        telemetry.record("a", "transport")
        telemetry.counts()["a"]["transport"] = 99
        assert telemetry.total("transport") == 1


class TestRetryPolicy:
    def test_deterministic_in_seed_lane_attempt(self):
        assert RetryPolicy(seed=7).delay(2, lane=1) == RetryPolicy(
            seed=7
        ).delay(2, lane=1)
        assert RetryPolicy(seed=7).delay(0, lane=0) != RetryPolicy(
            seed=8
        ).delay(0, lane=0)

    def test_lanes_desynchronise(self):
        policy = RetryPolicy(seed=0)
        assert policy.delay(0, lane=0) != policy.delay(0, lane=1)

    def test_bounds(self):
        policy = RetryPolicy(seed=3, base=0.1, cap=0.8)
        for attempt in range(8):
            delay = policy.delay(attempt)
            exponential = min(0.8, 0.1 * 2.0**attempt)
            assert 0.5 * exponential <= delay <= exponential
        # Far attempts are capped, jitter aside.
        assert policy.delay(30) <= 0.8

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(base=0.0)
        with pytest.raises(ValueError):
            RetryPolicy(base=0.5, cap=0.1)
        with pytest.raises(ValueError):
            RetryPolicy().delay(-1)


class TestDegradationTypes:
    def test_fleet_degraded_warning_is_a_runtime_warning(self):
        """Existing `pytest.warns(RuntimeWarning)` call sites keep working."""
        assert issubclass(FleetDegradedWarning, RuntimeWarning)

    def test_worker_timeout_is_a_connection_error(self):
        """Transport handlers catch it uniformly yet can tell it apart."""
        assert issubclass(WorkerTimeoutError, ConnectionError)
