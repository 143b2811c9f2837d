"""End-to-end benchmark of the BCAST reproduction.

``python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1``
times one paper workload closed-loop (one caller, the next call starts
when the previous one returns) and prints its metrics; ``--trace 1`` runs
a fixed number of calls twice, untraced and then under span wrappers, and
reports per-layer numbers plus the tracing overhead.
``python3 perfbench/compare.py A B`` compares two result directories.

A *call* is one estimator invocation or one whole sweep.  The workloads
(see :mod:`perfbench.workloads` for why each was chosen):

* ``hierarchy-scalar`` — the scalar simulator loop (Theorem 1.4/1.5 rank
  protocol, n = 32);
* ``prg-vectorized`` — the batched fast path (Theorem 8.1 seed-length
  attack against the Theorem 1.3 PRG);
* ``clique-fleet`` — directed planted-clique detection on two
  ``python -m repro.exec.worker`` subprocesses;
* ``budget-sweep-pool`` — an adaptive ``SweepDriver`` round-budget sweep
  on a warm ``WorkerPool``.
"""
