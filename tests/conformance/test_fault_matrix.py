"""The fault-matrix conformance suite — chaos with a replayable schedule.

The robustness invariant every backend claims (``docs/robustness.md``):
under **any** fault schedule the deterministic harness
(:mod:`repro.exec.faults`) can produce, a batch either completes
**bit-identical** to :class:`~repro.core.engine.SerialExecutor` or fails
with a **loud typed error** — never silent partial or wrong output.

This suite pins that claim across a matrix of

* six pinned chaos seeds (each expanding, via :meth:`FaultPlan.from_seed`,
  into a full per-worker schedule of crashes, refusals, torn/corrupt
  frames, slow links, and lost publishes),
* every individual fault kind in isolation (single-fault cells),
* three fleet shapes: in-process ``LoopbackWorker`` fleets, a real
  ``python -m repro.exec.worker --fault-plan`` subprocess, and the
  ``WorkerPool`` process-pool backend (whose native fault is a dead
  worker process breaking the pool).

Every cell dumps its fault plan as a JSON artifact when
``REPRO_CHAOS_DIR`` is set — CI uploads those on failure, and
``FaultPlan.from_json`` replays the exact schedule locally.
"""

import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core import Engine, RunSpec, SerialExecutor
from repro.distributions import UniformRows
from repro.exec import DistributedExecutor, LoopbackWorker, WorkerPool
from repro.exec.faults import (
    DEFAULT_KINDS,
    FaultEvent,
    FaultInjector,
    FaultPlan,
)
from repro.lowerbounds import TopSubmatrixRankProtocol
from repro.obs import FlightRecorder, MetricsRegistry

TRIALS = 12

#: The pinned chaos seeds CI replays on every run.  Each expands into a
#: deterministic two-site fault schedule; a failing seed's plan JSON is
#: the replay artifact.
CHAOS_SEEDS = (11, 23, 37, 41, 53, 67)

SITES = ("worker-0", "worker-1")


def distribution_spec():
    return RunSpec(
        protocol=TopSubmatrixRankProtocol(5),
        distribution=UniformRows(8, 8),
        seed=7,
    )


def fixed_input_spec():
    rng = np.random.default_rng(0)
    return RunSpec(
        protocol=TopSubmatrixRankProtocol(5),
        inputs=rng.integers(0, 2, size=(16, 16), dtype=np.uint8),
        seed=3,
    )


WORKLOADS = {
    "distribution": distribution_spec,
    # Exercises the publish/refill protocol under faults too.
    "fixed_inputs": fixed_input_spec,
}


@pytest.fixture(scope="module")
def goldens():
    return {
        name: Engine(SerialExecutor()).run_batch(spec_fn(), TRIALS)
        for name, spec_fn in WORKLOADS.items()
    }


def _dump_plan(cell: str, plan: FaultPlan) -> None:
    """Write the cell's schedule where CI can pick it up as an artifact."""
    directory = os.environ.get("REPRO_CHAOS_DIR")
    if not directory:
        return
    path = Path(directory)
    path.mkdir(parents=True, exist_ok=True)
    (path / f"{cell}.json").write_text(plan.to_json(), encoding="utf-8")


def _assert_bit_identical(batch, golden):
    assert batch.outputs == golden.outputs
    assert batch.transcript_keys == golden.transcript_keys
    assert batch.cost_totals() == golden.cost_totals()


#: Shared across every cell in this module; on failure the conformance
#: conftest hook dumps both to ``REPRO_CHAOS_DIR`` next to the fault
#: plans, so a breaking schedule ships with the health transitions and
#: failure counters the stack observed while it ran.
CHAOS_RECORDER = FlightRecorder(capacity=4096)
CHAOS_REGISTRY = MetricsRegistry()


def _chaos_executor(endpoints, **overrides):
    """The conformance cells' executor configuration.

    The heartbeat monitor is disabled because its probes consume
    ``accept``/``ping`` fault-schedule slots, which would make the
    replayed schedule depend on wall-clock probe timing; hangs are not
    in :data:`DEFAULT_KINDS`, so the deadline alone bounds every cell.
    """
    options = dict(
        chunksize=3,
        task_timeout=30.0,
        heartbeat_interval=None,
        lane_retries=2,
        share_inputs_min_bytes=1,
        recorder=CHAOS_RECORDER,
        registry=CHAOS_REGISTRY,
    )
    options.update(overrides)
    return DistributedExecutor(endpoints, **options)


class TestSeededScheduleMatrix:
    """Pinned seeds × workloads on two-worker loopback fleets."""

    @pytest.mark.parametrize("workload", sorted(WORKLOADS))
    @pytest.mark.parametrize("chaos_seed", CHAOS_SEEDS)
    def test_seeded_fleet_chaos_is_bit_identical(
        self, goldens, chaos_seed, workload
    ):
        plan = FaultPlan.from_seed(chaos_seed, sites=SITES)
        _dump_plan(f"loopback-{workload}-seed{chaos_seed}", plan)
        workers = [
            LoopbackWorker(fault_injector=plan.injector(site))
            for site in SITES
        ]
        try:
            with _chaos_executor([w.endpoint for w in workers]) as executor:
                batch = Engine(executor).run_batch(
                    WORKLOADS[workload](), TRIALS
                )
            _assert_bit_identical(batch, goldens[workload])
        finally:
            for worker in workers:
                worker.stop()

    def test_total_outage_is_loud_and_typed(self, goldens):
        """The invariant's other half: a schedule that exhausts every
        retry cannot end in silence — with fallback off it must raise a
        typed ConnectionError, and with fallback on it must both warn
        and still produce golden results."""
        plan = FaultPlan.from_seed(
            0, sites=SITES, kinds=("crash",), rate=1.0, horizon=64
        )
        _dump_plan("loopback-total-outage", plan)
        workers = [
            LoopbackWorker(fault_injector=plan.injector(site))
            for site in SITES
        ]
        try:
            with _chaos_executor(
                [w.endpoint for w in workers], local_fallback=False
            ) as executor:
                with pytest.raises(ConnectionError):
                    Engine(executor).run_batch(distribution_spec(), TRIALS)
        finally:
            for worker in workers:
                worker.stop()
        workers = [
            LoopbackWorker(fault_injector=plan.injector(site))
            for site in SITES
        ]
        try:
            with _chaos_executor([w.endpoint for w in workers]) as executor:
                with pytest.warns(RuntimeWarning, match="locally"):
                    batch = Engine(executor).run_batch(
                        distribution_spec(), TRIALS
                    )
                assert executor.registry.total("exec_degraded_maps_total") == 1
            _assert_bit_identical(batch, goldens["distribution"])
        finally:
            for worker in workers:
                worker.stop()


class TestSingleFaultCells:
    """Each fault kind in isolation, against a two-worker fleet."""

    CELLS = {
        "crash": FaultEvent("map", 0, "crash"),
        "refuse": FaultEvent("accept", 0, "refuse"),
        "drop_mid_frame": FaultEvent("map", 0, "drop_mid_frame"),
        "truncate": FaultEvent("map", 1, "truncate"),
        "corrupt": FaultEvent("map", 0, "corrupt"),
        "slow": FaultEvent("map", 0, "slow", delay=0.2),
        "lose_publish": FaultEvent("publish", 0, "lose_publish"),
        "hang": FaultEvent("map", 0, "hang"),
    }

    @pytest.mark.parametrize("kind", sorted(CELLS))
    def test_single_fault_is_bit_identical(self, goldens, kind):
        plan = FaultPlan({"worker-0": [self.CELLS[kind]], "worker-1": []})
        _dump_plan(f"loopback-single-{kind}", plan)
        workers = [
            LoopbackWorker(fault_injector=plan.injector(site))
            for site in SITES
        ]
        overrides = {}
        if kind == "hang":
            # A hung worker is only ever unwedged by deadline/heartbeat;
            # keep the cell fast with a tight chunk deadline.
            overrides["task_timeout"] = 0.5
        try:
            with _chaos_executor(
                [w.endpoint for w in workers], **overrides
            ) as executor:
                batch = Engine(executor).run_batch(
                    fixed_input_spec(), TRIALS
                )
            _assert_bit_identical(batch, goldens["fixed_inputs"])
        finally:
            for worker in workers:
                worker.stop()


class TestMangleDetectionIsTyped:
    """Damaged frames are caught by *verification*, not decode luck.

    A corrupt frame rides under its original (now wrong) MAC, so the
    client rejects it cryptographically and telemetry records the lane
    failure as ``auth``; torn frames (``drop_mid_frame``, ``truncate``)
    surface as :class:`~repro.exec.wire.TruncatedFrameError` — a typed
    transport failure.  Either way the cell stays bit-identical to the
    serial golden: detection feeds the ordinary requeue path.
    """

    MANGLE_CATEGORIES = {
        "corrupt": "auth",
        "drop_mid_frame": "transport",
        "truncate": "transport",
    }

    @pytest.mark.parametrize("kind", sorted(MANGLE_CATEGORIES))
    def test_mangled_cell_is_categorized_and_bit_identical(
        self, goldens, kind
    ):
        plan = FaultPlan(
            {"worker-0": [FaultEvent("map", 0, kind)], "worker-1": []}
        )
        _dump_plan(f"loopback-mangle-{kind}", plan)
        workers = [
            LoopbackWorker(fault_injector=plan.injector(site))
            for site in SITES
        ]
        try:
            with _chaos_executor([w.endpoint for w in workers]) as executor:
                batch = Engine(executor).run_batch(fixed_input_spec(), TRIALS)
                counts = executor.telemetry.counts().get(
                    workers[0].address, {}
                )
                expected = self.MANGLE_CATEGORIES[kind]
                assert counts.get(expected, 0) >= 1, counts
                if kind == "corrupt":
                    # Cryptographic detection, not a lucky decode error:
                    # the flipped bytes never reach the schema decoder.
                    assert counts.get("corrupt", 0) == 0, counts
            _assert_bit_identical(batch, goldens["fixed_inputs"])
        finally:
            for worker in workers:
                worker.stop()


class TestSubprocessWorkerCells:
    """Real ``python -m repro.exec.worker --fault-plan`` chaos."""

    #: Two cells keep subprocess start-up cost bounded; the remaining
    #: seeds run in-process above (same serve loop, same injector).
    SUBPROCESS_SEEDS = CHAOS_SEEDS[:2]

    @pytest.mark.parametrize("chaos_seed", SUBPROCESS_SEEDS)
    def test_cli_worker_under_fault_plan(self, goldens, tmp_path, chaos_seed):
        plan = FaultPlan.from_seed(chaos_seed, sites=("worker-0",))
        _dump_plan(f"subprocess-seed{chaos_seed}", plan)
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(plan.to_json(), encoding="utf-8")
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[2] / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.exec.worker",
                "--port",
                "0",
                "--fault-plan",
                str(plan_path),
                "--fault-site",
                "worker-0",
            ],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        try:
            banner = ""
            for _ in range(10):
                banner = proc.stdout.readline()
                if "listening on" in banner:
                    break
            assert "listening on" in banner, banner
            endpoint = banner.rsplit(" ", 1)[-1].strip()
            with _chaos_executor([endpoint]) as executor:
                batch = Engine(executor).run_batch(fixed_input_spec(), TRIALS)
            _assert_bit_identical(batch, goldens["fixed_inputs"])
        finally:
            proc.terminate()
            proc.wait(timeout=10)


class TestWorkerPoolCells:
    """The process-pool backend's native fault: dead worker processes.

    The pool has no wire protocol to mangle; its failure model is a
    worker process dying (``BrokenProcessPool``), which the pool answers
    with one rebuild-and-retry and then a loud serial fallback.  Each
    pinned seed deterministically picks how many consecutive breakages
    the cell injects (0, 1, or 2 — through the documented recovery
    ladder), and the batch must come out bit-identical regardless.
    """

    @pytest.mark.parametrize("chaos_seed", CHAOS_SEEDS)
    def test_breaking_pool_workers_is_bit_identical(
        self, goldens, monkeypatch, chaos_seed
    ):
        from concurrent.futures.process import BrokenProcessPool

        breakages = chaos_seed % 3
        with WorkerPool(max_workers=2, share_inputs_min_bytes=1) as pool:
            real_map_once = pool._map_once
            remaining = [breakages]

            def breaking_map_once(*args, **kwargs):
                if remaining[0] > 0:
                    remaining[0] -= 1
                    raise BrokenProcessPool(
                        f"injected worker death (seed {chaos_seed})"
                    )
                return real_map_once(*args, **kwargs)

            monkeypatch.setattr(pool, "_map_once", breaking_map_once)
            if breakages == 2:
                with pytest.warns(RuntimeWarning, match="serially"):
                    batch = Engine(pool).run_batch(fixed_input_spec(), TRIALS)
                assert pool.registry.total("pool_degraded_batches_total") == 1
            else:
                batch = Engine(pool).run_batch(fixed_input_spec(), TRIALS)
                assert pool.registry.total("pool_degraded_batches_total") == 0
            assert pool.registry.total("pool_broken_total") == breakages
        _assert_bit_identical(batch, goldens["fixed_inputs"])


class TestHungWorkerDetectionWindow:
    """The heartbeat acceptance criterion, at conformance level: a hung
    (not dead — its sockets still connect) worker is flagged within the
    suspect window and the batch completes far inside task_timeout."""

    def test_hung_worker_flagged_within_window(self, goldens):
        injector = FaultInjector([FaultEvent("map", 0, "hang")])
        hung = LoopbackWorker(fault_injector=injector)
        steady = LoopbackWorker()
        try:
            with DistributedExecutor(
                [hung.endpoint, steady.endpoint],
                chunksize=3,
                task_timeout=30.0,
                heartbeat_interval=0.1,
                suspect_after=1,
                dead_after=2,
                lane_retries=0,
                share_inputs_min_bytes=1,
            ) as executor:
                start = time.monotonic()
                batch = Engine(executor).run_batch(fixed_input_spec(), TRIALS)
                assert time.monotonic() - start < 10.0
                assert executor.health.is_dead(hung.address)
            _assert_bit_identical(batch, goldens["fixed_inputs"])
        finally:
            hung.stop()
            steady.stop()
