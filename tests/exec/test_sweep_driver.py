"""Tests for resumable adaptive sweeps (SweepDriver + journal helpers)."""

import json

import numpy as np
import pytest

from repro.core import RunSpec, SerialExecutor
from repro.distributions import UniformRows
from repro.exec import SweepDriver, load_journal, params_key
from repro.exec.sweep import append_journal
from repro.lowerbounds import TopSubmatrixRankProtocol, conditional_full_rank_probability


def rank_spec_fn(k):
    return RunSpec(
        protocol=TopSubmatrixRankProtocol(k),
        distribution=UniformRows(8, 8),
        seed=0,  # overridden by the driver
    )


class CountingSpecFn:
    """Wraps rank_spec_fn, counting one call per submitted batch."""

    def __init__(self):
        self.calls = []

    def __call__(self, k):
        self.calls.append(k)
        return rank_spec_fn(k)


GRID = [{"k": k} for k in (2, 3, 4)]

#: Registry series counting batches resubmitted after a ConnectionError.
RETRIED = "sweep_retried_batches_total"


class TestSweepDriverBasics:
    def test_runs_whole_grid(self):
        driver = SweepDriver(rank_spec_fn, trials=32, seed=9)
        result = driver.run(GRID)
        assert [p["k"] for p in result.points] == [2, 3, 4]
        for point in result.points:
            assert point["trials"] == 32.0
            assert point["batches"] == 1.0
            assert 0.0 <= point["mean"] <= 1.0
            # Accept rate tracks the full-rank probability of the k-block.
            expected = conditional_full_rank_probability(point["k"], 0)
            assert abs(point["mean"] - expected) < 0.35

    def test_deterministic_across_runs_and_executors(self):
        first = SweepDriver(rank_spec_fn, trials=24, seed=3).run(GRID)
        second = SweepDriver(rank_spec_fn, trials=24, seed=3).run(GRID)
        assert [p.values for p in first.points] == [p.values for p in second.points]
        vectorized = SweepDriver(
            lambda k: RunSpec(
                protocol=TopSubmatrixRankProtocol(k),
                distribution=UniformRows(8, 8),
                seed=0,
                vectorized=True,
            ),
            trials=24,
            seed=3,
        ).run(GRID)
        assert [p.values for p in vectorized.points] == [
            p.values for p in first.points
        ]

    def test_validation(self):
        with pytest.raises(ValueError):
            SweepDriver(rank_spec_fn, trials=0)
        with pytest.raises(ValueError):
            SweepDriver(rank_spec_fn, ci_width=-1.0)
        with pytest.raises(ValueError):
            SweepDriver(rank_spec_fn, trials=16, max_trials=8)
        with pytest.raises(ValueError):
            SweepDriver(rank_spec_fn, confidence=1.0)
        with pytest.raises(TypeError):
            SweepDriver(lambda k: "not a spec").run([{"k": 2}])


class TestCheckpointResume:
    def test_interrupted_sweep_resumes_with_zero_recomputation(self, tmp_path):
        journal_path = tmp_path / "sweep.jsonl"
        # "Interrupted" run: only the first two grid points completed.
        partial = CountingSpecFn()
        SweepDriver(
            partial, trials=16, checkpoint=journal_path, seed=5
        ).run(GRID[:2])
        assert sorted(partial.calls) == [2, 3]
        # Resume over the full grid: only the missing point is computed.
        resumed = CountingSpecFn()
        result = SweepDriver(
            resumed, trials=16, checkpoint=journal_path, seed=5
        ).run(GRID)
        assert resumed.calls == [4]  # zero recomputed points
        # And a second resume recomputes nothing at all.
        idle = CountingSpecFn()
        again = SweepDriver(
            idle, trials=16, checkpoint=journal_path, seed=5
        ).run(GRID)
        assert idle.calls == []
        assert [p.values for p in again.points] == [p.values for p in result.points]

    def test_resumed_values_match_uninterrupted_run(self, tmp_path):
        journal_path = tmp_path / "sweep.jsonl"
        SweepDriver(rank_spec_fn, trials=16, checkpoint=journal_path, seed=5).run(
            GRID[:2]
        )
        resumed = SweepDriver(
            rank_spec_fn, trials=16, checkpoint=journal_path, seed=5
        ).run(GRID)
        straight = SweepDriver(rank_spec_fn, trials=16, seed=5).run(GRID)
        assert [p.values for p in resumed.points] == [
            p.values for p in straight.points
        ]

    def test_journal_tolerates_torn_tail_write(self, tmp_path):
        journal_path = tmp_path / "sweep.jsonl"
        append_journal(journal_path, {"k": 2}, {"mean": 0.5})
        with open(journal_path, "a") as stream:
            stream.write('{"params": {"k": 3}, "values": {"me')  # killed mid-write
        journal = load_journal(journal_path)
        assert params_key({"k": 2}) in journal
        assert len(journal) == 1

    def test_journal_roundtrips_numpy_params(self, tmp_path):
        journal_path = tmp_path / "sweep.jsonl"
        append_journal(
            journal_path, {"k": np.int64(2)}, {"mean": np.float64(0.25)}
        )
        journal = load_journal(journal_path)
        # numpy scalars canonicalize to the same key as plain ints.
        assert journal[params_key({"k": 2})]["mean"] == 0.25

    def test_missing_journal_is_empty(self, tmp_path):
        assert load_journal(tmp_path / "absent.jsonl") == {}

    def test_journal_lines_are_valid_json(self, tmp_path):
        journal_path = tmp_path / "sweep.jsonl"
        SweepDriver(rank_spec_fn, trials=8, checkpoint=journal_path, seed=1).run(
            GRID[:2]
        )
        lines = journal_path.read_text().strip().splitlines()
        assert len(lines) == 2
        for line in lines:
            record = json.loads(line)
            assert set(record) == {"params", "values"}


class OutageExecutor(SerialExecutor):
    """Drops the first ``failures`` map calls like a vanished fleet."""

    def __init__(self, failures=1):
        self.failures = failures
        self.maps = 0

    def map(self, fn, items):
        self.maps += 1
        if self.maps <= self.failures:
            raise ConnectionError("fleet unreachable (injected)")
        return super().map(fn, items)


class TestBatchRetries:
    def test_lost_batch_is_retried_seed_identically(self):
        """A batch lost to a fleet outage resubmits under the same
        (point, batch-index) spec — the retried values are bit-identical
        to an undisturbed sweep, not a fresh draw."""
        driver = SweepDriver(
            rank_spec_fn, executor=OutageExecutor(failures=1), trials=16, seed=5
        )
        result = driver.run(GRID)
        straight = SweepDriver(rank_spec_fn, trials=16, seed=5).run(GRID)
        assert [p.values for p in result.points] == [
            p.values for p in straight.points
        ]
        assert driver.registry.total(RETRIED) == 1

    def test_retry_budget_exhaustion_raises_typed(self):
        driver = SweepDriver(
            rank_spec_fn,
            executor=OutageExecutor(failures=99),
            trials=8,
            seed=5,
            batch_retries=1,
        )
        with pytest.raises(ConnectionError, match="unreachable"):
            driver.run([{"k": 2}])  # one point: a deterministic retry count
        assert driver.registry.total(RETRIED) == 1  # one retry, then give up

    def test_zero_budget_fails_fast(self):
        driver = SweepDriver(
            rank_spec_fn,
            executor=OutageExecutor(failures=1),
            trials=8,
            seed=5,
            batch_retries=0,
        )
        with pytest.raises(ConnectionError):
            driver.run(GRID)
        assert driver.registry.total(RETRIED) == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            SweepDriver(rank_spec_fn, batch_retries=-1)

    def test_task_errors_are_not_retried(self):
        """Only fleet outages (ConnectionError) consume the retry budget;
        a task exception propagates immediately."""
        driver = SweepDriver(
            lambda k: RunSpec(
                protocol=TopSubmatrixRankProtocol(9),  # exceeds 8x8 inputs
                distribution=UniformRows(8, 8),
                seed=0,
            ),
            trials=8,
            seed=1,
        )
        with pytest.raises(Exception) as excinfo:
            driver.run([{"k": 9}])
        assert not isinstance(excinfo.value, ConnectionError)
        assert driver.registry.total(RETRIED) == 0


class TestAdaptiveTrials:
    def test_fixed_mode_runs_one_batch(self):
        result = SweepDriver(rank_spec_fn, trials=16, seed=2).run([{"k": 3}])
        assert result.points[0]["batches"] == 1.0

    def test_adaptive_tops_up_until_ci_target(self):
        driver = SweepDriver(
            rank_spec_fn, trials=16, ci_width=0.2, max_trials=512, seed=2
        )
        point = driver.run([{"k": 3}]).points[0]
        assert point["trials"] > 16  # needed top-up batches
        assert point["batches"] == point["trials"] / 16
        assert (point["ci_upper"] - point["ci_lower"]) <= 0.2

    def test_adaptive_respects_max_trials(self):
        driver = SweepDriver(
            rank_spec_fn, trials=16, ci_width=1e-6, max_trials=64, seed=2
        )
        point = driver.run([{"k": 3}]).points[0]
        assert point["trials"] == 64.0

    def test_tighter_targets_cost_more_trials(self):
        loose = SweepDriver(
            rank_spec_fn, trials=16, ci_width=0.5, max_trials=1024, seed=2
        ).run([{"k": 3}])
        tight = SweepDriver(
            rank_spec_fn, trials=16, ci_width=0.15, max_trials=1024, seed=2
        ).run([{"k": 3}])
        assert tight.points[0]["trials"] > loose.points[0]["trials"]

    def test_adaptive_identical_on_warm_pool(self):
        """Backend choice must not change trials, top-ups, or values."""
        from repro.exec import WorkerPool

        serial = SweepDriver(
            rank_spec_fn, trials=16, ci_width=0.3, max_trials=128, seed=11
        ).run(GRID)
        with WorkerPool(max_workers=2) as pool:
            pooled = SweepDriver(
                rank_spec_fn,
                executor=pool,
                trials=16,
                ci_width=0.3,
                max_trials=128,
                seed=11,
            ).run(GRID)
        assert [p.values for p in serial.points] == [
            p.values for p in pooled.points
        ]

    def test_custom_trial_values(self):
        driver = SweepDriver(
            rank_spec_fn,
            trials=8,
            seed=4,
            trial_values=lambda batch: batch.rounds.astype(float),
        )
        point = driver.run([{"k": 3}]).points[0]
        assert point["mean"] == 3.0  # every trial runs exactly k rounds


class TestPriorities:
    def test_priority_orders_submission(self):
        """Lower priority value runs first; max_inflight=1 serializes the
        sweep so the spec_fn call order is exactly the schedule."""
        counting = CountingSpecFn()
        SweepDriver(
            counting,
            trials=8,
            seed=1,
            priority=lambda params: -params["k"],  # biggest k first
            max_inflight=1,
        ).run(GRID)
        assert counting.calls == [4, 3, 2]

    def test_default_priority_keeps_grid_order(self):
        counting = CountingSpecFn()
        SweepDriver(counting, trials=8, seed=1, max_inflight=1).run(GRID)
        assert counting.calls == [2, 3, 4]

    def test_priority_never_changes_values(self):
        """Scheduling is not seeding: reversed priorities, bounded
        in-flight slots, and the default greedy order all agree
        bit-for-bit."""
        baseline = SweepDriver(rank_spec_fn, trials=16, seed=3).run(GRID)
        reordered = SweepDriver(
            rank_spec_fn,
            trials=16,
            seed=3,
            priority=lambda params: -params["k"],
            max_inflight=1,
        ).run(GRID)
        assert [p.values for p in baseline.points] == [
            p.values for p in reordered.points
        ]
        assert [p["k"] for p in reordered.points] == [2, 3, 4]  # grid order

    def test_topup_batches_yield_to_unstarted_points(self):
        """Cooperative preemption: with one in-flight slot, an adaptive
        point's top-up re-enters the queue behind every unstarted
        point's initial batch, so each point starts before any point
        tops up."""
        counting = CountingSpecFn()
        SweepDriver(
            counting,
            trials=8,
            ci_width=0.25,
            max_trials=64,
            seed=2,
            max_inflight=1,
        ).run(GRID)
        first_three = counting.calls[:3]
        assert sorted(first_three) == [2, 3, 4]  # all initial batches first

    def test_adaptive_values_identical_with_and_without_preemption(self):
        free = SweepDriver(
            rank_spec_fn, trials=16, ci_width=0.3, max_trials=128, seed=11
        ).run(GRID)
        throttled = SweepDriver(
            rank_spec_fn,
            trials=16,
            ci_width=0.3,
            max_trials=128,
            seed=11,
            max_inflight=1,
            priority=lambda params: params["k"],
        ).run(GRID)
        assert [p.values for p in free.points] == [
            p.values for p in throttled.points
        ]

    def test_max_inflight_validation(self):
        with pytest.raises(ValueError):
            SweepDriver(rank_spec_fn, max_inflight=0)

    def test_resume_respects_priority_without_recomputation(self, tmp_path):
        """A resumed prioritised sweep reorders only the *missing*
        points; journal-completed points are neither recomputed nor
        reordered in the result."""
        driver_kwargs = dict(
            trials=8,
            seed=5,
            priority=lambda params: -params["k"],
            max_inflight=1,
        )
        grid = [{"k": k} for k in (2, 3, 4, 5)]
        journal_path = tmp_path / "sweep.jsonl"
        counting = CountingSpecFn()
        SweepDriver(
            counting, checkpoint=journal_path, **driver_kwargs
        ).run(grid[:2])  # completes k=3, then k=2 (priority order)
        assert counting.calls == [3, 2]
        resumed = CountingSpecFn()
        result = SweepDriver(
            resumed, checkpoint=journal_path, **driver_kwargs
        ).run(grid)
        # Only the missing points ran, highest k first.
        assert resumed.calls == [5, 4]
        # Result order is grid order, independent of priorities.
        assert [p["k"] for p in result.points] == [2, 3, 4, 5]
        # And the journalled values came back untouched.
        straight = SweepDriver(CountingSpecFn(), **driver_kwargs).run(grid)
        assert [p.values for p in result.points] == [
            p.values for p in straight.points
        ]

    def test_torn_tail_resume_under_priority_ordering(self, tmp_path):
        """A journal with a torn final line resumes under priorities:
        intact points are not recomputed, the torn point reruns, and
        values match an uninterrupted sweep."""
        driver_kwargs = dict(
            trials=16,
            seed=5,
            priority=lambda params: -params["k"],
            max_inflight=1,
        )
        journal_path = tmp_path / "sweep.jsonl"
        SweepDriver(
            rank_spec_fn, checkpoint=journal_path, **driver_kwargs
        ).run(GRID[:2])
        # Tear the last journal line mid-write (killed process).
        lines = journal_path.read_text().strip().splitlines()
        journal_path.write_text("\n".join(lines[:-1]) + "\n" + lines[-1][:13])
        assert len(load_journal(journal_path)) == 1
        resumed = CountingSpecFn()
        result = SweepDriver(
            resumed, checkpoint=journal_path, **driver_kwargs
        ).run(GRID)
        # The torn point plus the never-run point recompute; the intact
        # one does not.
        assert len(resumed.calls) == 2
        straight = SweepDriver(rank_spec_fn, **driver_kwargs).run(GRID)
        assert [p.values for p in result.points] == [
            p.values for p in straight.points
        ]
        # The repaired journal now holds the full grid.
        assert len(load_journal(journal_path)) == 3
