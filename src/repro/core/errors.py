"""Exception types for the Broadcast Congested Clique simulator."""

from __future__ import annotations

__all__ = [
    "BroadcastCliqueError",
    "BatchFallbackWarning",
    "MessageSizeError",
    "SchedulingError",
    "ProtocolViolation",
    "RandomnessExhausted",
]


class BroadcastCliqueError(Exception):
    """Base class for all simulator errors."""


class MessageSizeError(BroadcastCliqueError):
    """A processor tried to broadcast a message wider than ``BCAST(b)`` allows."""


class SchedulingError(BroadcastCliqueError):
    """Scheduler misuse: wrong turn order, double broadcast, etc."""


class ProtocolViolation(BroadcastCliqueError):
    """A protocol broke a model invariant (e.g. read another processor's
    private input)."""


class RandomnessExhausted(BroadcastCliqueError):
    """A processor asked for more random bits than its budget allows."""


class BatchFallbackWarning(RuntimeWarning):
    """``RunSpec(vectorized=True)`` could not take the batched fast path.

    Emitted by ``Engine.run_batch`` exactly when a vectorized spec falls
    back to scalar per-trial simulation — because the protocol does not
    override ``batch_decisions`` (reason ``no_batch_support``), or the
    spec needs features the fast path cannot honour (full transcripts,
    round overrides, coin budgets, public coins; reason
    ``full_fidelity``).  Results are still
    bit-identical to the scalar path; only the speedup is lost.  The
    message names the reason.  Note that Python's default warning filters
    *display* repeated warnings from the same call site only once;
    ``Engine.batch_fallbacks`` counts every fallback exactly, so monitors
    should read the counter, not count printed warnings.
    """
