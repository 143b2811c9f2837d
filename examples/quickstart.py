"""Quickstart: run protocols through the unified execution engine.

This walks the core objects of the library:

1. a :class:`Protocol` — what every processor does each round;
2. :class:`RunSpec` / :class:`Engine` — describe one execution (protocol,
   input source, scheduler, master seed) and run it, or run an N-trial
   batch whose trials are independently seeded and executor-agnostic;
3. the PRG of Theorem 1.3 — generate per-processor pseudo-random strings
   that no low-round protocol can tell from fresh coins.

(:func:`run_protocol` remains as a one-line wrapper over the engine for
single executions.)

Run:  python examples/quickstart.py
"""

import numpy as np

from repro.core import Engine, Protocol, RunSpec, run_protocol
from repro.distributions import UniformRows
from repro.linalg import BitMatrix
from repro.prg import MatrixPRGProtocol


class ParityPoll(Protocol):
    """Each round, every processor broadcasts the parity of its input row;
    everyone outputs the total number of odd rows they heard about."""

    def num_rounds(self, n: int) -> int:
        return 1

    def broadcast(self, proc, round_index: int) -> int:
        return int(proc.input.sum()) % 2

    def output(self, proc):
        return sum(e.message for e in proc.transcript)


def main() -> None:
    rng = np.random.default_rng(0)
    engine = Engine()  # SerialExecutor; Engine(pool) on a WorkerPool uses all cores

    # --- 1/2: a tiny protocol over 8 processors with 16-bit inputs -----
    inputs = rng.integers(0, 2, size=(8, 16), dtype=np.uint8)
    result = engine.run(RunSpec(protocol=ParityPoll(), inputs=inputs, seed=0))
    print("ParityPoll outputs:", result.outputs)
    print("cost:", result.cost.summary())
    print()

    # --- 2b: the same protocol as a seeded 100-trial batch -------------
    # Trials sample fresh inputs and coins from spawned per-trial seeds,
    # so the BatchResult is bit-identical on every executor backend.
    spec = RunSpec(protocol=ParityPoll(), distribution=UniformRows(8, 16), seed=7)
    batch = engine.run_batch(spec, trials=100)
    odd_counts = np.array(batch.outputs_of(0))
    print(f"batch of {len(batch)} trials: {batch.cost_summary()}")
    print(f"mean odd-row count: {odd_counts.mean():.2f} (expect ~4)")
    print()

    # --- 3: the PRG of Theorem 1.3 ------------------------------------
    # 32 processors, 16-bit seeds, 64 pseudo-random bits each.
    prg = MatrixPRGProtocol(k=16, m=64)
    prg_result = run_protocol(
        prg, np.zeros((32, 1), dtype=np.uint8), rng=rng
    )
    print("PRG cost:", prg_result.cost.summary())
    joint = np.stack(prg_result.outputs)
    print("processor 0's pseudo-random bits:", "".join(map(str, joint[0])))

    # The structural fingerprint a >k-round attacker exploits — and a
    # <=k/10-round protocol provably cannot see (Theorem 5.4):
    print(
        f"joint output rank over GF(2): {BitMatrix.from_array(joint).rank()}"
        f"  (≤ k = 16 always; a uniform 32x64 matrix would have rank 32)"
    )


if __name__ == "__main__":
    main()
