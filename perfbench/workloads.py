"""The four paper workloads: their inputs, executors and output checks.

Each backend appears once, in the workload where its layer dominates, so
an optimization of one layer has a workload that exercises it and others
that bypass it (where the prediction is no change):

* ``hierarchy-scalar`` spends ~77% of its time in the protocol's
  ``output`` (one ``BitMatrix.rank`` per processor, 2048 per 64 trials)
  and ~15% in simulator bookkeeping; sampling and dispatch are near zero.
* ``prg-vectorized`` has no scalar loop and no executor: per-trial
  sampling, result assembly and the batched GF(2) rank share its time.
* ``clique-fleet`` draws private coins, stops at a dynamic round and
  searches max cliques inside two real worker subprocesses; every call
  makes two maps over the authenticated wire, each opening fresh
  connections with a handshake per lane.
* ``budget-sweep-pool`` runs ~2 ms trials in 64-trial batches on a warm
  process pool, so dispatch, chunk stealing and sweep orchestration
  carry a large share; only the full budget needs adaptive top-ups.

Not covered on purpose: the vectorized coin / ragged-key path
(vectorized subsample, connectivity).

Inputs are a pure function of the benchmark seed: call ``i`` draws from
``SeedSequence(seed, spawn_key=(i,))``.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.cliques.subsample import PlantedCliqueSubsampleProtocol
from repro.core import RunSpec, SerialExecutor
from repro.distinguish.sampling import estimate_protocol_advantage
from repro.distributions import (
    PlantedClique,
    PRGOutput,
    RandomDigraph,
    RankDeficientMatrix,
    UniformRows,
)
from repro.exec import DistributedExecutor, SweepDriver, WorkerPool
from repro.linalg.rank_distribution import full_rank_probability, rank_pmf
from repro.lowerbounds import TopSubmatrixRankProtocol
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import NullTracer, Tracer
from repro.prg.attacks import SupportMembershipAttack

from .stats import binomial_consistent
from .system import WorkerFleet

__all__ = ["WORKLOADS", "Workload", "call_seed"]

#: Calls checked against the scalar ``SerialExecutor`` reference on the
#: same spec.  Every call is checked against the serial *vectorized*
#: reference — bit-identical to scalar by the engine's contract and cheap
#: enough to run for every call; the scalar one costs more than the call.
SCALAR_REFERENCE_CALLS = 2


def call_seed(seed: int, index: int) -> np.random.SeedSequence:
    """The seed of call ``index`` of a run with benchmark seed ``seed``."""
    return np.random.SeedSequence(seed, spawn_key=(index,))


def _accepts(rate: float, trials: int) -> int:
    return int(round(rate * trials))


class Workload:
    """One named workload: ``start`` an executor, ``call`` it, ``check``."""

    name = ""
    why = ""
    #: Calls in each pass of a traced run — fixed, so counts repeat.
    trace_calls = 4
    #: Worker lanes of the executor (0 when trials run in-process).
    lanes = 0
    #: Layer label of the benchmark's span around one call.
    call_layer = "distinguish"
    protocol_classes: tuple[type, ...] = ()

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def input_size(self) -> dict[str, Any]:
        raise NotImplementedError

    def start(self, registry: MetricsRegistry, tracer: "Tracer | NullTracer") -> None:
        """Start the executor the calls run on."""

    def stop(self) -> None:
        """Stop the executor and every process it started."""

    def call(self, index: int) -> Any:
        raise NotImplementedError

    def trials(self, result: Any) -> int:
        raise NotImplementedError

    def outputs(self, result: Any) -> Any:
        """The part of a result two runs of the same call must agree on."""
        return result

    def check(self, index: int, result: Any) -> list[str]:
        """Problems with one call's result (empty when correct)."""
        return []

    def pooled_check(self, results: list[Any]) -> list[str]:
        """Problems with the run's results taken together."""
        return []


class _Estimator(Workload):
    """``estimate_protocol_advantage(protocol, dist_a, dist_b, ...)``."""

    n_samples = 0
    vectorized = False

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.executor = None

    def problem(self) -> tuple[Any, Any, Any]:
        raise NotImplementedError

    def estimate(self, index: int, executor: Any, vectorized: bool) -> Any:
        protocol, dist_a, dist_b = self.problem()
        return estimate_protocol_advantage(
            protocol,
            dist_a,
            dist_b,
            self.n_samples,
            np.random.default_rng(call_seed(self.seed, index)),
            executor=executor,
            vectorized=vectorized,
        )

    def call(self, index: int) -> Any:
        return self.estimate(index, self.executor, self.vectorized)

    def trials(self, result: Any) -> int:
        return 2 * result.n_samples_each

    def _pooled_rate(self, results: list[Any], side: str, p: float) -> list[str]:
        trials = sum(r.n_samples_each for r in results)
        accepts = sum(_accepts(getattr(r, side), r.n_samples_each) for r in results)
        if trials and not binomial_consistent(accepts, trials, p):
            return [f"{side}: {accepts}/{trials} accepts is not Bin({trials}, {p:.6g})"]
        return []


class HierarchyScalar(_Estimator):
    name = "hierarchy-scalar"
    why = (
        "scalar simulator loop: output() ranks the revealed block once per "
        "processor (~77% of time), bookkeeping ~15%; sampling and dispatch near zero"
    )
    # 8 trials per side (~0.5 s per call): calls long enough that a burst
    # of machine noise does not decide a tail percentile on its own.
    n_samples = 8
    trace_calls = 2
    protocol_classes = (TopSubmatrixRankProtocol,)

    def input_size(self) -> dict[str, Any]:
        return {"n": 32, "k": 32, "trials_per_side": self.n_samples}

    def problem(self) -> tuple[Any, Any, Any]:
        return TopSubmatrixRankProtocol(32), UniformRows(32, 32), RankDeficientMatrix(32)

    def start(self, registry, tracer) -> None:
        self.executor = SerialExecutor()

    def check(self, index: int, result: Any) -> list[str]:
        # A rank-deficient matrix never has a full-rank top block.
        if result.accept_rate_d2 != 0.0:
            return [f"rank-deficient side accepted at rate {result.accept_rate_d2}"]
        return []

    def pooled_check(self, results: list[Any]) -> list[str]:
        return self._pooled_rate(results, "accept_rate_d1", full_rank_probability(32))


class PRGVectorized(_Estimator):
    name = "prg-vectorized"
    why = (
        "batched fast path, no scalar loop or executor: per-trial sampling, "
        "result assembly and batched GF(2) rank share the time"
    )
    n_samples = 2048
    vectorized = True
    trace_calls = 4
    protocol_classes = (SupportMembershipAttack,)

    def input_size(self) -> dict[str, Any]:
        return {"n": 32, "m": 48, "k": 16, "trials_per_side": self.n_samples}

    def problem(self) -> tuple[Any, Any, Any]:
        return SupportMembershipAttack(16), PRGOutput(32, 48, 16), UniformRows(32, 48)

    def check(self, index: int, result: Any) -> list[str]:
        # The revealed derived column of a PRG output always lies in the
        # span of its seed block.
        if result.accept_rate_d1 != 1.0:
            return [f"PRG side accepted at rate {result.accept_rate_d1}, not 1"]
        return []

    def pooled_check(self, results: list[Any]) -> list[str]:
        # A uniform column lies in the span of a uniform 32x16 block with
        # probability E[2^rank] / 2^32.
        pmf = rank_pmf(32, 16)
        p = float(sum(pmf[r] * 2.0**r for r in range(len(pmf))) / 2.0**32)
        return self._pooled_rate(results, "accept_rate_d2", p)


class CliqueFleet(_Estimator):
    name = "clique-fleet"
    why = (
        "directed planted clique on two CLI worker subprocesses: private coins, "
        "dynamic rounds, max-clique search; wire handshakes and dispatch show"
    )
    n_samples = 32
    trace_calls = 16
    lanes = 2
    protocol_classes = (PlantedCliqueSubsampleProtocol,)

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.fleet: WorkerFleet | None = None

    def input_size(self) -> dict[str, Any]:
        return {"n": 16, "k": 12, "trials_per_side": self.n_samples, "workers": 2}

    def problem(self) -> tuple[Any, Any, Any]:
        return (
            PlantedCliqueSubsampleProtocol(12, activation_factor=0.5),
            PlantedClique(16, 12),
            RandomDigraph(16),
        )

    def start(self, registry, tracer) -> None:
        self.fleet = WorkerFleet(self.lanes)
        self.executor = DistributedExecutor(
            self.fleet.endpoints,
            local_fallback=False,
            registry=registry,
            tracer=tracer,
        )

    def stop(self) -> None:
        if self.executor is not None:
            self.executor.close()
            self.executor = None
        if self.fleet is not None:
            self.fleet.close()
            self.fleet = None

    def check(self, index: int, result: Any) -> list[str]:
        problems = []
        if self.estimate(index, SerialExecutor(), vectorized=True) != result:
            problems.append("differs from the serial vectorized reference")
        if index < SCALAR_REFERENCE_CALLS:
            if self.estimate(index, SerialExecutor(), vectorized=False) != result:
                problems.append("differs from the serial scalar reference")
        return problems


#: The round budgets swept; the protocol is exact only at the full budget.
SWEEP_K = 8
SWEEP_GRID = tuple({"budget": j} for j in range(SWEEP_K + 1))


def _sweep_spec(budget: int) -> RunSpec:
    return RunSpec(
        protocol=TopSubmatrixRankProtocol(SWEEP_K, rounds_budget=budget),
        distribution=UniformRows(SWEEP_K, SWEEP_K),
    )


def _sweep_spec_vectorized(budget: int) -> RunSpec:
    return RunSpec(
        protocol=TopSubmatrixRankProtocol(SWEEP_K, rounds_budget=budget),
        distribution=UniformRows(SWEEP_K, SWEEP_K),
        vectorized=True,
    )


def _exact_sweep_rate(budget: int) -> float:
    # Below the full budget the posterior of full rank stays under 1/2,
    # so the truncated protocol always answers 0.
    return full_rank_probability(SWEEP_K) if budget >= SWEEP_K else 0.0


class BudgetSweepPool(Workload):
    name = "budget-sweep-pool"
    why = (
        "adaptive SweepDriver on a warm 2-process WorkerPool: ~2 ms trials, so "
        "pickle dispatch, chunk stealing and sweep orchestration carry a large share"
    )
    trials_per_batch = 64
    # At 0.1 the full-budget point stops after 5 or 6 batches depending
    # on the seed (about 2:1), so sweep times would vary with the seed
    # mix; at 0.105 about 94% of seeds stop after exactly 5.
    ci_width = 0.105
    max_inflight = 4
    trace_calls = 3
    lanes = 2
    call_layer = "sweep"
    protocol_classes = (TopSubmatrixRankProtocol,)

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.pool: WorkerPool | None = None
        self.registry: MetricsRegistry | None = None
        self.tracer: "Tracer | NullTracer | None" = None

    def input_size(self) -> dict[str, Any]:
        return {
            "n": SWEEP_K,
            "k": SWEEP_K,
            "budgets": len(SWEEP_GRID),
            "trials_per_batch": self.trials_per_batch,
            "ci_width": self.ci_width,
            "pool_workers": self.lanes,
        }

    def start(self, registry, tracer) -> None:
        self.registry, self.tracer = registry, tracer
        self.pool = WorkerPool(max_workers=self.lanes, registry=registry, tracer=tracer)

    def stop(self) -> None:
        if self.pool is not None:
            self.pool.close()
            self.pool = None

    def sweep(self, index: int, spec_fn: Any, executor: Any, **obs: Any) -> Any:
        seed = int(call_seed(self.seed, index).generate_state(1, np.uint64)[0])
        driver = SweepDriver(
            spec_fn,
            executor=executor,
            trials=self.trials_per_batch,
            ci_width=self.ci_width,
            seed=seed,
            max_inflight=self.max_inflight,
            **obs,
        )
        return driver.run(SWEEP_GRID)

    def call(self, index: int) -> Any:
        return self.sweep(
            index, _sweep_spec, self.pool, registry=self.registry, tracer=self.tracer
        )

    def trials(self, result: Any) -> int:
        return int(sum(point.values["trials"] for point in result.points))

    def outputs(self, result: Any) -> Any:
        return result.points

    def check(self, index: int, result: Any) -> list[str]:
        problems = []
        for point in result.points:
            trials = int(point.values["trials"])
            accepts = _accepts(point.values["mean"], trials)
            rate = _exact_sweep_rate(point.params["budget"])
            if not binomial_consistent(accepts, trials, rate):
                problems.append(
                    f"budget {point.params['budget']}: {accepts}/{trials} accepts "
                    f"is not Bin({trials}, {rate:.6g})"
                )
        reference = self.sweep(index, _sweep_spec_vectorized, SerialExecutor())
        if reference.points != result.points:
            problems.append("differs from the serial vectorized reference")
        if index < SCALAR_REFERENCE_CALLS:
            if self.sweep(index, _sweep_spec, SerialExecutor()).points != result.points:
                problems.append("differs from the serial scalar reference")
        return problems


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls
    for cls in (HierarchyScalar, PRGVectorized, CliqueFleet, BudgetSweepPool)
}
