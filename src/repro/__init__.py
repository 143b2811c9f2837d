"""repro — Broadcast Congested Clique: Planted Cliques and Pseudorandom
Generators.

A faithful, executable reproduction of Chen & Grossman (PODC 2019):

* :mod:`repro.core` — the ``BCAST(b)`` simulator (protocols, schedulers,
  transcripts, metered randomness);
* :mod:`repro.linalg` — bit-packed GF(2) linear algebra and random-matrix
  rank laws;
* :mod:`repro.infotheory` — entropy/divergence/Fourier tools and
  estimation machinery;
* :mod:`repro.distributions` — ``A_rand``, planted-clique, and PRG-output
  input distributions with the row-independent decomposition;
* :mod:`repro.prg` — the paper's PRG, the derandomization transform, the
  seed-length attack, and the Newman baseline;
* :mod:`repro.cliques` — planted-clique algorithms (Appendix B protocol,
  degree and spectral baselines, exact search);
* :mod:`repro.lowerbounds` — bound calculators, the Section 3 progress
  framework, and the rank/time-hierarchy protocols;
* :mod:`repro.distinguish` — exact transcript distributions and
  Monte-Carlo advantage estimation with concrete distinguishers;
* :mod:`repro.exec` — asynchronous job scheduling over the engine:
  batch futures, the shared work-stealing chunk scheduler, warm worker
  pools, the distributed executor (each task callable, fixed inputs
  included, registered once per worker), and resumable adaptive sweep
  driving with priorities and cooperative preemption.

Quickstart — describe an execution with :class:`~repro.core.RunSpec` and
run it through the :class:`~repro.core.Engine`::

    import numpy as np
    from repro.core import Engine, RunSpec
    from repro.exec import WorkerPool
    from repro.prg import MatrixPRGProtocol

    prg = MatrixPRGProtocol(k=16, m=64)
    inputs = np.zeros((32, 1), dtype=np.uint8)   # PRG ignores inputs
    spec = RunSpec(protocol=prg, inputs=inputs, seed=0)

    result = Engine().run(spec)                  # one full execution
    print(result.cost.summary())
    print(result.outputs[0])   # 64 pseudo-random bits for processor 0

    # N independent trials; a WorkerPool fans them out over a process
    # pool with bit-identical results (SeedSequence.spawn seeding)
    with WorkerPool() as pool:
        batch = Engine(pool).run_batch(spec, trials=100)
    print(batch.cost_summary())

Specs can sample a fresh input per trial instead of fixing one
(``RunSpec(protocol=..., distribution=UniformRows(8, 16), seed=7)``), and
the Monte-Carlo estimators in :mod:`repro.distinguish`,
:mod:`repro.prg.newman`, :mod:`repro.lowerbounds.hierarchy` and
:mod:`repro.analysis.sweep` all accept an ``executor=`` selecting the same
backends.  :func:`repro.core.run_protocol` remains as a one-line wrapper
over the engine for single executions.
"""

__version__ = "1.0.0"

from . import analysis, cliques, core, distinguish, distributions, infotheory, linalg
from . import exec  # noqa: A004 - the subsystem is named after what it does
from . import lowerbounds, prg, protocols

__all__ = [
    "analysis",
    "cliques",
    "core",
    "distinguish",
    "distributions",
    "exec",
    "infotheory",
    "linalg",
    "lowerbounds",
    "prg",
    "protocols",
    "__version__",
]
