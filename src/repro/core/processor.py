"""Per-processor local views.

A :class:`ProcessorContext` is everything a single processor is allowed to
see: its identity, the total number of processors, its own private input
row, its private coins, the shared public coins (if the execution provides
them), and the broadcast transcript so far.  Protocol code receives exactly
this object — the simulator never hands a protocol another processor's
input, which enforces the information-locality invariant of the model.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from .randomness import CoinSource
from .transcript import Transcript

__all__ = ["ProcessorContext"]


class ProcessorContext:
    """The local view of processor ``proc_id`` in an ``n``-processor clique.

    Attributes
    ----------
    proc_id:
        This processor's index in ``[0, n)``.
    n:
        Number of processors.
    input:
        The processor's private input row, a numpy ``uint8`` 0/1 array.
        For graph problems this is row ``proc_id`` of the adjacency matrix
        (its out-edge indicator vector).  Use it for array maths (sums,
        dot products, ``np.nonzero``).
    input_bits:
        The same row as a list of plain Python ints, read-only by
        contract.  Callbacks that read single bits index this list:
        ``proc.input_bits[j]`` is a list lookup, where ``int(proc.input[j])``
        builds a numpy scalar and converts it on every call.
    coins:
        Private randomness (metered).
    public_coins:
        Shared randomness (metered), or ``None``.
    transcript:
        The global broadcast history visible so far.  In the turn model
        this includes the current round's earlier broadcasts.
    memory:
        Free-form per-processor scratch state, preserved across rounds.
    """

    __slots__ = (
        "proc_id",
        "n",
        "input",
        "input_bits",
        "coins",
        "public_coins",
        "transcript",
        "memory",
        "output",
    )

    def __init__(
        self,
        proc_id: int,
        n: int,
        input_row: np.ndarray,
        coins: CoinSource,
        public_coins: CoinSource | None,
        transcript: Transcript,
        input_bits: list[int] | None = None,
    ):
        """``input_bits`` must equal ``input_row.tolist()`` for a ``uint8``
        row: :func:`~repro.core.simulator.make_contexts` passes both,
        converted once per trial.  Left out, both are derived from
        ``input_row`` here."""
        if not 0 <= proc_id < n:
            raise ValueError(f"processor id {proc_id} out of range for n={n}")
        if input_bits is None:
            input_row = np.asarray(input_row, dtype=np.uint8)
            input_bits = input_row.tolist()
        self.proc_id = proc_id
        self.n = n
        self.input = input_row
        self.input_bits = input_bits
        self.coins = coins
        self.public_coins = public_coins
        self.transcript = transcript
        self.memory: dict[str, Any] = {}
        self.output: Any = None

    # ------------------------------------------------------------------
    # Convenience views over the transcript
    # ------------------------------------------------------------------
    def my_previous_messages(self) -> list[int]:
        """Payloads this processor broadcast in earlier turns."""
        return [
            payload
            for _, sender, payload in self.transcript.broadcasts()
            if sender == self.proc_id
        ]

    def round_messages(self, round_index: int) -> dict[int, int]:
        """Mapping ``sender → payload`` for a completed round."""
        return self.transcript.round_messages(round_index)

    def input_bit(self, j: int) -> int:
        """Bit ``j`` of the private input row."""
        return self.input_bits[j]

    def __repr__(self) -> str:
        return f"ProcessorContext(proc_id={self.proc_id}, n={self.n})"
