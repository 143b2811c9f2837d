"""Monte-Carlo estimation of transcript distances and advantages.

Where exact enumeration (:mod:`repro.distinguish.exact`) is infeasible, we
sample: run the protocol on inputs drawn from each distribution, collect
transcript keys or accept decisions, and estimate total-variation distance
or distinguishing advantage with distribution-free confidence intervals.

All estimators execute their trials through the unified engine
(:mod:`repro.core.engine`): pass ``executor=pool`` (a
:class:`~repro.exec.WorkerPool` held in a ``with`` block) to fan the N
trials out over a process pool, or ``vectorized=True`` (on the
decision-based estimators) to evaluate the whole trial batch with one
batched GF(2) kernel call when the protocol supports it — results are
bit-identical to the serial default for the same ``rng`` state, just
faster.  Transcript-key estimators ride the same fast path: the
protocol's one ``batch_decisions`` pass returns every trial's transcript
key alongside its decision, so ``sample_transcript_keys`` /
``estimate_transcript_distance`` accept ``vectorized=True`` too
(protocols without a batch implementation fall back to scalar with a
:class:`~repro.core.errors.BatchFallbackWarning`).

Batches can also run asynchronously: :func:`submit_distinguisher` returns
a future over the decision vector, and
``estimate_protocol_advantage(..., overlap=True)`` runs both sides'
batches concurrently — same seeds, bit-identical estimates.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..core.engine import Engine, Executor, RunSpec, derive_seed
from ..core.protocol import Protocol
from ..core.scheduler import Scheduler
from ..distributions.base import InputDistribution
from ..infotheory.estimation import (
    AdvantageEstimate,
    ConfidenceInterval,
    estimate_advantage,
    estimate_tv_distance,
)

__all__ = [
    "sample_transcript_keys",
    "estimate_transcript_distance",
    "run_distinguisher",
    "submit_distinguisher",
    "estimate_protocol_advantage",
]


def sample_transcript_keys(
    protocol: Protocol,
    dist: InputDistribution,
    n_samples: int,
    rng: np.random.Generator,
    scheduler: Scheduler | str = "round",
    executor: Executor | str | None = None,
    vectorized: bool = False,
) -> list[tuple[int, ...]]:
    """Run ``protocol`` on ``n_samples`` fresh inputs; return transcript keys.

    With ``vectorized=True`` and a protocol that overrides
    ``batch_decisions`` (the parity/equality family, the seed-length
    attack, the hierarchy rank protocol, the graph and clique
    protocols), the whole batch's keys are synthesized in one batched
    pass — bit-identical to the scalar path for the same ``rng`` state.
    """
    spec = RunSpec(
        protocol=protocol,
        distribution=dist,
        scheduler=scheduler,
        seed=derive_seed(rng),
        vectorized=vectorized,
    )
    batch = Engine(executor).run_batch(spec, n_samples)
    return batch.transcript_keys


def estimate_transcript_distance(
    protocol: Protocol,
    dist_a: InputDistribution,
    dist_b: InputDistribution,
    n_samples: int,
    rng: np.random.Generator,
    scheduler: Scheduler | str = "round",
    confidence: float = 0.95,
    executor: Executor | str | None = None,
    vectorized: bool = False,
) -> ConfidenceInterval:
    """Plug-in TV distance between ``P(Π, D_a)`` and ``P(Π, D_b)``.

    Honest but conservative: the plug-in estimator is biased upward when
    the transcript support is large relative to ``n_samples``; use exact
    enumeration when possible.  ``vectorized=True`` batches both sides'
    key synthesis through ``protocol.batch_decisions`` when supported —
    bit-identical estimates, no per-trial simulation.
    """
    keys_a = sample_transcript_keys(
        protocol, dist_a, n_samples, rng, scheduler, executor, vectorized
    )
    keys_b = sample_transcript_keys(
        protocol, dist_b, n_samples, rng, scheduler, executor, vectorized
    )
    return estimate_tv_distance(keys_a, keys_b, confidence=confidence)


def run_distinguisher(
    protocol: Protocol,
    dist: InputDistribution,
    n_samples: int,
    rng: np.random.Generator,
    scheduler: Scheduler | str = "round",
    decision_fn: Callable | None = None,
    executor: Executor | str | None = None,
    vectorized: bool = False,
) -> np.ndarray:
    """Accept decisions of a distinguisher protocol over fresh samples.

    The decision is processor 0's output (must be 0/1), or
    ``decision_fn(trial)`` when provided; ``trial`` is a
    :class:`~repro.core.engine.TrialResult` carrying ``outputs``,
    ``transcript`` and ``cost``.  With ``vectorized=True`` and a protocol
    that supports batching (e.g. the seed-length attack), the batch is
    decided by one batched-kernel call; a ``decision_fn`` forces the
    scalar path because it needs per-trial transcripts.
    """
    spec = _distinguisher_spec(
        protocol, dist, rng, scheduler, decision_fn, vectorized
    )
    batch = Engine(executor).run_batch(spec, n_samples)
    return _batch_decisions(batch, decision_fn)


def _distinguisher_spec(
    protocol, dist, rng, scheduler, decision_fn, vectorized
) -> RunSpec:
    return RunSpec(
        protocol=protocol,
        distribution=dist,
        scheduler=scheduler,
        seed=derive_seed(rng),
        record_transcripts=decision_fn is not None,
        vectorized=vectorized,
    )


def _batch_decisions(batch, decision_fn) -> np.ndarray:
    if decision_fn is None:
        return batch.decisions(proc_id=0)
    return np.fromiter(
        (int(bool(decision_fn(trial))) for trial in batch),
        dtype=np.uint8,
        count=len(batch),
    )


def submit_distinguisher(
    engine: Engine,
    protocol: Protocol,
    dist: InputDistribution,
    n_samples: int,
    rng: np.random.Generator,
    scheduler: Scheduler | str = "round",
    decision_fn: Callable | None = None,
    vectorized: bool = False,
):
    """Asynchronous :func:`run_distinguisher`: submit now, decide later.

    Returns a :class:`~repro.exec.futures.BatchFuture` resolving to the
    same 0/1 decision vector :func:`run_distinguisher` would return for
    the same ``rng`` state — the batch seed is drawn from ``rng`` *here*,
    at submission, so interleaving many submissions stays deterministic.
    The engine's executor (e.g. a warm
    :class:`~repro.exec.pool.WorkerPool`) carries the trials.
    """
    spec = _distinguisher_spec(
        protocol, dist, rng, scheduler, decision_fn, vectorized
    )
    future = engine.submit_batch(spec, n_samples)
    return future.then(lambda batch: _batch_decisions(batch, decision_fn))


def estimate_protocol_advantage(
    protocol: Protocol,
    dist_a: InputDistribution,
    dist_b: InputDistribution,
    n_samples: int,
    rng: np.random.Generator,
    scheduler: Scheduler | str = "round",
    decision_fn: Callable | None = None,
    confidence: float = 0.95,
    executor: Executor | str | None = None,
    vectorized: bool = False,
    overlap: bool = False,
) -> AdvantageEstimate:
    """Distinguishing advantage of a protocol between two distributions.

    Advantage follows footnote 5 of the paper: guessing probability is
    ``1/2 + advantage`` for an optimally-oriented acceptor, i.e.
    ``|accept_rate_a − accept_rate_b| / 2``.  ``vectorized=True`` batches
    both sides' trials through the protocol's batched kernels (exact same
    decisions as the scalar path).  ``overlap=True`` submits both sides'
    batches asynchronously so they run concurrently on the executor —
    both seeds are drawn from ``rng`` in the same order as the sequential
    path before anything runs, so the estimate is bit-identical.
    """
    if overlap:
        with Engine(executor) as engine:
            future_a = submit_distinguisher(
                engine, protocol, dist_a, n_samples, rng, scheduler,
                decision_fn, vectorized,
            )
            future_b = submit_distinguisher(
                engine, protocol, dist_b, n_samples, rng, scheduler,
                decision_fn, vectorized,
            )
            accepts_a, accepts_b = future_a.result(), future_b.result()
    else:
        accepts_a = run_distinguisher(
            protocol, dist_a, n_samples, rng, scheduler, decision_fn, executor,
            vectorized,
        )
        accepts_b = run_distinguisher(
            protocol, dist_b, n_samples, rng, scheduler, decision_fn, executor,
            vectorized,
        )
    return estimate_advantage(accepts_a, accepts_b, confidence=confidence)
