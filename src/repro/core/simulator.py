"""The Broadcast Congested Clique simulator.

:func:`run_protocol` executes a :class:`~repro.core.protocol.Protocol` on an
input matrix (row ``i`` is processor ``i``'s private input), under either
the synchronous round model or the paper's stronger sequential-turn model,
and returns the outputs, the full transcript, and a resource-usage report.
It is a thin single-shot wrapper over the unified execution engine in
:mod:`repro.core.engine`, which owns the actual simulation loop and adds
N-trial batching with pluggable serial/parallel executors.

Model invariants enforced here:

* **broadcast constraint** — one message per processor per round, identical
  for all recipients (trivially true since we record a single payload);
* **congestion** — payloads must fit in ``message_size`` bits
  (:class:`~repro.core.errors.MessageSizeError` otherwise);
* **synchrony** — in the round model, messages are computed against the
  transcript of completed rounds only; in the turn model each speaker sees
  all strictly-earlier broadcasts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from .network import CostReport
from .processor import ProcessorContext
from .protocol import Protocol
from .randomness import CoinSource, PrivateCoins, fresh_generator
from .scheduler import Scheduler
from .transcript import Transcript

__all__ = ["ExecutionResult", "run_protocol", "make_contexts"]


@dataclass
class ExecutionResult:
    """Everything produced by one protocol execution."""

    outputs: list[Any]
    transcript: Transcript
    cost: CostReport
    contexts: list[ProcessorContext]

    def output_of(self, proc_id: int) -> Any:
        return self.outputs[proc_id]


def make_contexts(
    inputs: np.ndarray,
    rng: np.random.Generator | None = None,
    private_bit_budget: int | None = None,
    public_coins: CoinSource | None = None,
) -> tuple[list[ProcessorContext], Transcript]:
    """Build per-processor contexts sharing one transcript.

    ``inputs`` is an ``n × m`` 0/1 array; row ``i`` becomes processor
    ``i``'s private input, both as a numpy row and as the list of ints
    in ``input_bits`` (one ``tolist`` per trial).  Each processor
    receives an independent private coin source derived from ``rng``:
    the ``n`` seeds are drawn here, the generators on each processor's
    first coin flip.
    """
    inputs = np.asarray(inputs, dtype=np.uint8)
    if inputs.ndim != 2:
        raise ValueError(f"inputs must be a 2-D array, got shape {inputs.shape}")
    n = inputs.shape[0]
    if rng is None:
        # Entry-point convenience: nondeterministic by request.  Batch
        # runs go through the engine, which always passes a seeded rng.
        rng = fresh_generator()
    transcript = Transcript()
    seeds = rng.integers(0, 2**63, size=n, dtype=np.int64).tolist()
    contexts = [
        ProcessorContext(
            proc_id=i,
            n=n,
            input_row=row,
            coins=PrivateCoins.from_seed(seed, budget=private_bit_budget),
            public_coins=public_coins,
            transcript=transcript,
            input_bits=bits,
        )
        for i, (row, bits, seed) in enumerate(zip(inputs, inputs.tolist(), seeds))
    ]
    return contexts, transcript


def run_protocol(
    protocol: Protocol,
    inputs: np.ndarray,
    scheduler: Scheduler | str = "round",
    rng: np.random.Generator | None = None,
    rounds: int | None = None,
    private_bit_budget: int | None = None,
    public_coins: CoinSource | None = None,
) -> ExecutionResult:
    """Execute ``protocol`` on ``inputs`` and return the results.

    This is a thin wrapper over :class:`~repro.core.engine.Engine`: it
    builds a single-shot :class:`~repro.core.engine.RunSpec` and runs it
    in-process.  Use the engine directly for N-trial batches
    (:meth:`~repro.core.engine.Engine.run_batch`) and parallel backends.

    Parameters
    ----------
    protocol:
        The protocol to run.
    inputs:
        ``n × m`` 0/1 array of private inputs (row ``i`` → processor ``i``).
    scheduler:
        ``"round"`` (synchronous), ``"turn"`` (sequential, the paper's
        relaxation) or a :class:`Scheduler` instance.
    rng:
        Source of all randomness for this execution (private coins are
        split off it).  Defaults to a fresh nondeterministic generator.
    rounds:
        Override the protocol's own ``num_rounds``.
    private_bit_budget:
        Per-processor cap on private random bits (used to verify the
        randomness-saving claims).
    public_coins:
        Optional shared randomness source.
    """
    from .engine import Engine, RunSpec

    spec = RunSpec(
        protocol=protocol,
        inputs=inputs,
        scheduler=scheduler,
        rounds=rounds,
        private_bit_budget=private_bit_budget,
        public_coins=public_coins,
    )
    if rng is None:
        rng = fresh_generator()
    return Engine().run(spec, rng=rng)
