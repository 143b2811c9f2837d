"""The protocol abstraction for the Broadcast Congested Clique.

A :class:`Protocol` describes what every processor does: in each round (or
turn) each processor computes one message of at most ``message_size`` bits
from its *local view* (private input, private/public coins, transcript so
far) and broadcasts it to everybody.  ``message_size = 1`` gives the
``BCAST(1)`` model of the paper; ``message_size = ceil(log2 n)`` gives
``BCAST(log n)``.

Two concrete conveniences are provided:

* :class:`FunctionProtocol` — a deterministic protocol given by per-turn
  next-message functions ``f_i(input_row, transcript_bits) → bit``, the
  exact object the paper's lower-bound proofs quantify over ("processor i
  can then be defined by a function f_i(z, p)", Section 1.3).
* :class:`ComposedProtocol` — runs one protocol after another, letting the
  derandomization transform of Corollary 7.1 prepend the PRG's seed
  exchange to an arbitrary payload protocol.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Sequence

import numpy as np

from .errors import ProtocolViolation
from .processor import ProcessorContext

if TYPE_CHECKING:  # pragma: no cover - typing only (no runtime cycle)
    from ..costs.model import CostModel

__all__ = ["Protocol", "FunctionProtocol", "ComposedProtocol", "require_bits"]

#: Next-message function type: (proc_id, input_row, transcript_bits) -> message
NextMessageFn = Callable[[int, Any, tuple[int, ...]], int]


def require_bits(values: "np.ndarray | Sequence[int]", what: str) -> None:
    """Reject payload arrays the scalar ``BCAST(1)`` width check would refuse.

    Batched ``batch_decisions`` implementations that broadcast input
    entries raw must validate them as 0/1 bits: the scalar
    simulator raises on any other payload, and a batched path that
    silently coerced instead would break its bit-identical guarantee.
    """
    values = np.asarray(values)
    if values.size and (values.min() < 0 or values.max() > 1):
        raise ValueError(f"{what} must be 0/1 bits")


class Protocol:
    """Base class for Broadcast Congested Clique protocols.

    Subclasses override the lifecycle hooks below.  All hooks receive a
    :class:`ProcessorContext`; protocols must derive everything they
    broadcast from that local view only.

    Attributes
    ----------
    message_size:
        Width ``b`` of each broadcast in bits (the ``BCAST(b)`` parameter).
    batch_coin_bits:
        Exact number of private-coin bits *each processor* consumes per
        trial on the vectorized fast path (must be input-independent).
        Above 0, the engine reproduces the scalar path's per-processor
        coin seeding (the ``(n,)`` seed vector ``make_contexts`` draws
        from the trial generator) and passes it to
        :meth:`batch_decisions` as ``coin_seeds``, and it synthesizes
        ``private_bits_per_processor`` from this count.  At 0 the
        protocol must not use private coins in its batch.

    A protocol joins the engine's ``vectorized=True`` fast path by
    overriding :meth:`batch_decisions`.
    """

    message_size: int = 1
    batch_coin_bits: int = 0

    def num_rounds(self, n: int) -> int:
        """Number of rounds the protocol runs for ``n`` processors.

        Protocols with a data-dependent round count should return an upper
        bound here and override :meth:`finished`.
        """
        raise NotImplementedError

    def finished(self, n: int, transcript: Any, completed_rounds: int) -> bool:
        """Early-termination predicate, checked after every round.

        Must be a function of *public* information (the transcript) so all
        processors agree on when the protocol ends.  The default runs for
        exactly ``num_rounds(n)`` rounds.
        """
        return completed_rounds >= self.num_rounds(n)

    def setup(self, proc: ProcessorContext) -> None:
        """Called once per processor before the first round."""

    def broadcast(self, proc: ProcessorContext, round_index: int) -> int:
        """Return the message (integer in ``[0, 2^message_size)``) that
        ``proc`` broadcasts in ``round_index``.

        Called ``n`` times a round, so keep it cheap: read single input
        bits from ``proc.input_bits`` (a list of ints) rather than
        ``int(proc.input[j])``, check the input's shape once in
        :meth:`setup`, and keep per-processor values that a phase fixes
        in ``proc.memory`` instead of looking them up every round.
        """
        raise NotImplementedError

    def receive(
        self, proc: ProcessorContext, round_index: int, messages: dict[int, int]
    ) -> None:
        """Called after a round completes with the full ``sender → message``
        map of that round (the transcript also already contains it)."""

    def output(self, proc: ProcessorContext) -> Any:
        """Called once per processor after the final round; the return value
        is the processor's output.

        Work that reads only the transcript (decoding a revealed matrix,
        ranking it, counting components) is the same for every processor:
        compute it through ``proc.transcript.derived(fn, turns)`` so it
        runs once per execution instead of ``n`` times.  See
        :meth:`~repro.core.transcript.Transcript.derived` for the contract.
        Read payloads with
        :meth:`~repro.core.transcript.Transcript.round_messages` (a
        ``sender → payload`` dict per round, straight from the transcript's
        columns) or, to decode many rounds at once,
        :meth:`~repro.core.transcript.Transcript.broadcasts` (one pass of
        ``(round_index, sender, payload)`` triples), rather than by
        iterating its ``BroadcastEvent`` records.
        """
        return None

    def batch_decisions(
        self, inputs: np.ndarray, coin_seeds: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray | list[tuple[int, ...]]]:
        """Outputs and transcript keys for a ``(trials, n, m)`` input batch.

        One pass over the stack returns ``(decisions, keys)``, each
        bit-identical to running the protocol through the simulator on
        ``inputs[t]``:

        * ``decisions`` has shape ``(trials,)`` holding the output every
          processor would produce in each trial, or — for protocols whose
          processors output distinct values — ``(trials, n)`` with one
          entry per processor.  Non-numeric outputs (tuples, frozensets)
          must be packed in an ``object``-dtype array built explicitly
          with ``np.empty(..., dtype=object)``.
        * ``keys`` holds each trial's ``Transcript.key()``: the message
          payloads in turn order (round-major, processor ``0 … n-1``
          within each round, the speaking order shared by both library
          schedulers).  Fixed-round protocols return an integer array of
          shape ``(trials, turns)``; dynamically-terminating protocols
          (``finished`` overridden) may instead return a ragged
          ``list``/object array of per-trial tuples whose lengths are each
          trial's realized turn count — the engine synthesizes per-trial
          :class:`~repro.core.network.CostReport` rounds/turns/bits from
          those lengths.

        Implementations must reject inputs the scalar path would reject
        (e.g. non-bit payloads that the ``BCAST(b)`` width check refuses)
        rather than silently diverge from it, and must keep no state on
        ``self``: the engine deep-copies and ships protocol instances,
        and a result cached there goes stale when a caller refills the
        input array in place.  ``coin_seeds`` is passed
        only when :attr:`batch_coin_bits` is above 0, as a ``(trials, n)``
        int64 array of per-processor seeds, one row per trial, matching
        the scalar simulator's ``make_contexts`` draw.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not implement batched evaluation"
        )

    def cost_model(self) -> "CostModel":
        """The symbolic :class:`~repro.costs.model.CostModel` of this instance.

        Per-phase exact formulas for every accounted cost kind (rounds,
        turns, broadcast/private/public bits) in the problem parameters,
        with this instance's parameter values as defaults.  Deterministic
        fixed-round protocols return *exact* models; randomized or
        dynamically-terminating ones declare realized round symbols with
        exact bounds.  ``tests/conformance/test_cost_model.py`` asserts the
        model against measured ``cost_totals()`` bit for bit, and the
        BAT02 lint rule requires every batch-capable protocol to provide
        one.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not declare a symbolic cost model"
        )


class FunctionProtocol(Protocol):
    """A deterministic protocol defined by next-message functions.

    This is the lower-bound-proof view of a protocol: processor ``i``'s
    behaviour is completely described by a function ``f_i(z, p)`` giving the
    bit broadcast on input ``z`` after seeing transcript ``p``.

    Parameters
    ----------
    n_rounds:
        Number of rounds to run.
    fn:
        Either a single function applied by every processor or a sequence
        of ``n`` per-processor functions.  Each function receives
        ``(proc_id, input_row, transcript_bits)`` where ``transcript_bits``
        is the flattened bit tuple of the transcript visible at broadcast
        time, and must return a message integer.
    message_size:
        Broadcast width (default 1).
    output_fn:
        Optional final-output function with the same signature.
    """

    def __init__(
        self,
        n_rounds: int,
        fn: NextMessageFn | Sequence[NextMessageFn],
        message_size: int = 1,
        output_fn: NextMessageFn | None = None,
    ):
        if n_rounds < 0:
            raise ValueError("round count must be non-negative")
        self._n_rounds = n_rounds
        self._fn = fn
        self.message_size = message_size
        self._output_fn = output_fn

    def num_rounds(self, n: int) -> int:
        return self._n_rounds

    def _fn_for(self, proc_id: int) -> NextMessageFn:
        if callable(self._fn):
            return self._fn
        return self._fn[proc_id]

    def broadcast(self, proc: ProcessorContext, round_index: int) -> int:
        fn = self._fn_for(proc.proc_id)
        message = fn(proc.proc_id, proc.input, proc.transcript.bits())
        return int(message)

    def output(self, proc: ProcessorContext) -> Any:
        if self._output_fn is None:
            return None
        return self._output_fn(proc.proc_id, proc.input, proc.transcript.bits())


class ComposedProtocol(Protocol):
    """Sequential composition: run ``first`` to completion, then ``second``.

    The second protocol sees the full transcript of the first (its
    ``round_index`` restarts from 0; use ``proc.transcript`` for history).
    Both protocols must agree on ``message_size``.
    """

    def __init__(self, first: Protocol, second: Protocol):
        if first.message_size != second.message_size:
            raise ProtocolViolation(
                "composed protocols must share a message size, got "
                f"{first.message_size} and {second.message_size}"
            )
        self.first = first
        self.second = second
        self.message_size = first.message_size

    @property
    def _setup2_key(self) -> str:
        # Keyed by composition identity: a nested ComposedProtocol must not
        # see the outer composition's marker, or its own second phase's
        # setup would be silently skipped.
        return f"composed_setup2:{id(self)}"

    def num_rounds(self, n: int) -> int:
        return self.first.num_rounds(n) + self.second.num_rounds(n)

    def setup(self, proc: ProcessorContext) -> None:
        self.first.setup(proc)

    def _phase(self, proc: ProcessorContext, round_index: int) -> tuple[Protocol, int]:
        first_rounds = self.first.num_rounds(proc.n)
        if round_index < first_rounds:
            return self.first, round_index
        return self.second, round_index - first_rounds

    def broadcast(self, proc: ProcessorContext, round_index: int) -> int:
        first_rounds = self.first.num_rounds(proc.n)
        if round_index == first_rounds and self._setup2_key not in proc.memory:
            proc.memory[self._setup2_key] = True
            self.second.setup(proc)
        phase, local_round = self._phase(proc, round_index)
        return phase.broadcast(proc, local_round)

    def receive(
        self, proc: ProcessorContext, round_index: int, messages: dict[int, int]
    ) -> None:
        phase, local_round = self._phase(proc, round_index)
        phase.receive(proc, local_round, messages)

    def output(self, proc: ProcessorContext) -> Any:
        if self.second.num_rounds(proc.n) == 0 and self._setup2_key not in proc.memory:
            proc.memory[self._setup2_key] = True
            self.second.setup(proc)
        return self.second.output(proc)
