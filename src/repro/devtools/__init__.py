"""Developer tooling: static and runtime checks for the repo's invariants.

Every correctness claim this repo makes — bit-identical results across
the Serial/Parallel/WorkerPool/Distributed backends, exactly-once
callable registration, resumable sweeps — rests on invariants that are
easy to break silently:

* trial code must draw randomness only from engine-spawned generators
  (never ambient ``np.random`` / ``random`` state);
* :class:`~repro.core.engine.RunSpec` and
  :class:`~repro.core.engine.BatchResult` are frozen records;
* a protocol that overrides ``batch_decisions`` declares a symbolic
  ``cost_model``, and vice versa;
* worker frames are unpickled only inside the quarantined
  :mod:`repro.exec.wire` module;
* locks in :mod:`repro.exec` are acquired via context managers, in a
  globally consistent order.

This package checks those invariants *before* the conformance suite can
catch a wrong number:

* :mod:`repro.devtools.lint` — an AST-based linter with repo-specific
  rules (``python -m repro.devtools.lint src/repro``);
* :mod:`repro.devtools.lockorder` — a runtime lock-order cycle detector
  ("TSan-lite") that the exec test suite runs under.

See ``docs/correctness.md`` for the rule catalog and suppression syntax.
"""

from .lint import Finding, lint_paths, lint_source
from .lockorder import LockOrderError, LockOrderMonitor

__all__ = [
    "Finding",
    "lint_paths",
    "lint_source",
    "LockOrderError",
    "LockOrderMonitor",
]
