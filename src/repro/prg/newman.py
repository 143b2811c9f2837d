"""Newman's theorem in the Broadcast Congested Clique (Appendix A).

Theorem A.1: every randomized ``j``-round ``BCAST(1)`` protocol with ``n``
processors, ``m`` input bits each and ``k`` output bits each can be
``ε``-simulated using only ``O(k·n + log m + log 1/ε)`` *public* random
bits — by fixing, once and for all, ``T = Θ(ε^{-2}(nm + 2^{2jn}))``
random strings and having the protocol publicly select one of them
(``⌈log₂ T⌉`` public coins).

The catch the paper emphasises: the argument is non-constructive and
computationally inefficient (the good family of strings exists by a
Chernoff/union-bound argument but must be found by brute force), which is
what motivates the *efficient* PRG of Theorem 1.3.  We implement the
sampled-family compiler faithfully: pick the ``T`` strings at random (they
are good with probability ≥ 0.9) and measure the achieved simulation error
empirically.
"""

from __future__ import annotations

import copy
import math
from typing import Any

import numpy as np

from ..core.engine import (
    Engine,
    Executor,
    RunSpec,
    TrialResult,
    derive_seed,
    resolve_executor,
)
from ..core.protocol import Protocol
from ..core.randomness import PublicCoins, expand_seed
from ..core.simulator import ExecutionResult, run_protocol

__all__ = [
    "newman_family_size",
    "newman_public_bits",
    "NewmanCompiled",
    "simulation_error",
]


def newman_family_size(
    n: int, m: int, j: int, epsilon: float, cap: int = 1 << 20
) -> int:
    """The theorem's family size ``T = Θ(ε^{-2}(nm + 2^{2jn}))``, capped.

    The exponential term comes from union-bounding over all Boolean test
    functions on transcripts; experiments use far smaller ``T`` and measure
    the error directly.
    """
    if not 0 < epsilon < 1:
        raise ValueError("epsilon must lie in (0, 1)")
    exact = math.ceil((n * m + 2.0 ** min(60, 2 * j * n)) / (epsilon * epsilon))
    return min(cap, exact)


def newman_public_bits(t_family: int) -> int:
    """Public coins consumed by the compiled protocol: ``⌈log₂ T⌉``."""
    if t_family <= 0:
        raise ValueError("family size must be positive")
    return max(1, math.ceil(math.log2(t_family)))


class NewmanCompiled:
    """A protocol compiled to use ``⌈log₂ T⌉`` public coins.

    The compiled object is a *runner*, not a :class:`Protocol` subclass:
    selecting the shared string is a public-coin operation that happens
    before the first round, after which the original protocol runs
    unchanged with its private coin sources re-seeded deterministically
    from the selected string.  (All processors derive identical views of
    the selection, so no extra rounds are needed — public coins are free
    common knowledge in this model.)
    """

    def __init__(self, protocol: Protocol, t_family: int, master_seed: int = 0):
        if t_family <= 0:
            raise ValueError("family size must be positive")
        self.protocol = protocol
        self.t_family = t_family
        self.master_seed = master_seed
        # The fixed family of shared strings, chosen once (Theorem A.1
        # guarantees a random family is good with probability >= 0.9).
        family_rng = expand_seed(master_seed)
        self.family_seeds = [
            int(s) for s in family_rng.integers(0, 2**63, size=t_family)
        ]

    @property
    def public_bits(self) -> int:
        return newman_public_bits(self.t_family)

    def run(
        self,
        inputs: np.ndarray,
        rng: np.random.Generator,
        scheduler: str = "round",
    ) -> ExecutionResult:
        """One execution: draw the public index, replay family string ``i``."""
        public = PublicCoins(rng)
        index = public.draw_int(self.public_bits) % self.t_family
        replay_rng = expand_seed(self.family_seeds[index])
        result = run_protocol(
            self.protocol,
            inputs,
            scheduler=scheduler,
            rng=replay_rng,
            public_coins=public,
        )
        result.cost.public_bits = public.bits_used
        return result

    def run_batch(
        self,
        inputs: np.ndarray,
        trials: int,
        seed: int | np.random.SeedSequence | None = None,
        scheduler: str = "round",
        executor: Executor | str | None = None,
    ) -> list[ExecutionResult]:
        """``trials`` independent compiled executions on ``inputs``.

        Trial ``t`` is driven by child ``t`` of ``SeedSequence(seed)``, so
        (like :meth:`Engine.run_batch`) the result list is bit-identical
        across serial and parallel executors.
        """
        if isinstance(seed, np.random.SeedSequence):
            master = seed
        else:
            master = np.random.SeedSequence(seed)
        runner = _CompiledTrialRunner(self, inputs, scheduler)
        return resolve_executor(executor).map(runner, master.spawn(trials))


class _CompiledTrialRunner:
    """Batch-trial body: ``SeedSequence → ExecutionResult``.

    Carries the shared state (compiled protocol, inputs) on the callable —
    shipped to pool workers once per chunk, and surfaced by the executor's
    picklability pre-check so lambda-based protocols fall back to serial
    instead of crashing mid-map.
    """

    def __init__(self, compiled: NewmanCompiled, inputs: np.ndarray, scheduler: str):
        self.compiled = compiled
        self.inputs = inputs
        self.scheduler = scheduler

    def __call__(self, seed_seq: np.random.SeedSequence) -> ExecutionResult:
        # Every trial gets a private protocol copy (like Engine.run_batch's
        # fresh_protocol): protocols that cache state on ``self`` must not
        # leak it across trials, or serial and pooled runs diverge.  The
        # family seed list is shared via the shallow copy.
        compiled = copy.copy(self.compiled)
        compiled.protocol = copy.deepcopy(self.compiled.protocol)
        return compiled.run(
            self.inputs, np.random.default_rng(seed_seq), scheduler=self.scheduler
        )


def _transcript_key_statistic(result) -> Any:
    """Default comparison statistic: the transcript key.

    Works on :class:`ExecutionResult` and the engine's
    :class:`~repro.core.engine.TrialResult` whether or not the full
    transcript was recorded — every ``TrialResult`` carries its key, and
    the vectorized fast path synthesizes it without materialising a
    :class:`~repro.core.transcript.Transcript`.
    """
    transcript = getattr(result, "transcript", None)
    if transcript is not None:
        return transcript.key()
    return result.transcript_key


def simulation_error(
    protocol: Protocol,
    compiled: NewmanCompiled,
    inputs: np.ndarray,
    n_samples: int,
    rng: np.random.Generator,
    statistic=None,
    scheduler: str = "round",
    executor: Executor | str | None = None,
    vectorized: bool = False,
) -> float:
    """Empirical simulation error on a fixed input.

    Compares the distribution of ``statistic(result)`` (default: the
    transcript key) between the original protocol with fresh randomness and
    the compiled protocol, via plug-in total variation.  Both sample sets
    run through the execution engine; ``executor`` selects the backend.
    ``statistic`` uniformly receives a
    :class:`~repro.core.engine.TrialResult` (``outputs``, ``transcript``,
    ``cost``) for both sample sets.

    ``vectorized=True`` lets the *original-protocol* batch ride the
    engine's fast path when the protocol overrides ``batch_decisions``
    and the default key statistic is used — bit-identical error values,
    no per-trial simulation.  (The compiled side always simulates: public
    coin draws cannot batch.)  A custom ``statistic`` needs recorded
    transcripts, which forces the scalar path.
    """
    custom_statistic = statistic is not None
    if statistic is None:
        statistic = _transcript_key_statistic
    spec = RunSpec(
        protocol=protocol,
        inputs=inputs,
        scheduler=scheduler,
        seed=derive_seed(rng),
        record_transcripts=custom_statistic,
        vectorized=vectorized,
    )
    batch_true = Engine(executor).run_batch(spec, n_samples)
    counts_true: dict[Any, int] = {}
    for trial in batch_true:
        key = statistic(trial)
        counts_true[key] = counts_true.get(key, 0) + 1
    counts_compiled: dict[Any, int] = {}
    compiled_results = compiled.run_batch(
        inputs,
        n_samples,
        seed=derive_seed(rng),
        scheduler=scheduler,
        executor=executor,
    )
    for index, result in enumerate(compiled_results):
        trial = TrialResult(
            trial_index=index,
            outputs=result.outputs,
            transcript_key=result.transcript.key(),
            cost=result.cost,
            transcript=result.transcript,
        )
        key = statistic(trial)
        counts_compiled[key] = counts_compiled.get(key, 0) + 1
    from ..infotheory.divergence import tv_from_counts

    return tv_from_counts(counts_true, counts_compiled)
