"""Graph connectivity by label propagation in ``BCAST(log n)``.

One of the Section 9 candidate problems ("graph connectivity … on random
graphs") as a concrete upper-bound protocol: every processor (vertex)
maintains the minimum vertex id it knows to be in its component, and each
round broadcasts it in a single ``⌈log₂ n⌉``-bit message.  Labels converge
in ``O(diameter)`` rounds; the protocol terminates dynamically as soon as
a round changes nothing (termination is transcript-determined, so all
processors agree).

On `A_rand`-style random graphs the diameter is ``O(1)`` with high
probability, so connectivity costs ``O(1)`` rounds of ``BCAST(log n)`` —
the regime where the model is powerful and lower bounds are delicate,
which is exactly why the paper's distributional techniques matter.
"""

from __future__ import annotations

import math

import numpy as np

from ..core.processor import ProcessorContext
from ..core.protocol import Protocol
from ..core.transcript import Transcript
from ..costs import CostModel, Phase, Realized, Sym, ceil_log2, max_, min_

__all__ = ["ConnectivityProtocol", "components_from_labels"]


def components_from_labels(labels: list[int]) -> int:
    """Number of distinct component labels."""
    return len(set(labels))


def _final_component_count(transcript: Transcript) -> int:
    """Distinct labels broadcast in the transcript's last round (every
    processor speaks once a round, so it ran ``turns / n`` rounds)."""
    rounds_run = len(transcript) // len(transcript.round_messages(0))
    return components_from_labels(
        list(transcript.round_messages(rounds_run - 1).values())
    )


class ConnectivityProtocol(Protocol):
    """Min-label propagation over an undirected adjacency input.

    Input: row ``i`` of a **symmetric** adjacency matrix.  Output per
    processor: ``(component_label, n_components)`` where the label is the
    smallest vertex id in the processor's component.
    """

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("need at least one vertex")
        self.n = n
        self.message_size = max(1, math.ceil(math.log2(max(2, n))))

    def num_rounds(self, n: int) -> int:
        return n  # worst-case cap (path graph); terminates early

    def cost_model(self) -> CostModel:
        """Bounded: the realized round count ``R`` (two consecutive equal
        label rounds, or the cap ``n``) is measured, then every kind is
        exact at that ``R``: ``n`` turns of ``⌈log₂ n⌉``-bit labels per
        round, no coins."""
        n, rounds = Sym("n"), Sym("R")
        width = ceil_log2(max_(2, n))
        return CostModel(
            [
                Phase(
                    "propagate",
                    rounds=rounds,
                    turns=n * rounds,
                    broadcast_bits=n * rounds * width,
                )
            ],
            params={"n": self.n},
            realized=[Realized("R", source="rounds", lo=min_(n, 2), hi=n)],
        )

    # ------------------------------------------------------------------
    # Dynamic termination: stop when a full round changed no label.
    # ------------------------------------------------------------------
    def finished(self, n: int, transcript: Transcript, completed_rounds: int) -> bool:
        if completed_rounds < 2:
            return False
        last = transcript.round_messages(completed_rounds - 1).values()
        prev = transcript.round_messages(completed_rounds - 2).values()
        return list(last) == list(prev)

    # ------------------------------------------------------------------
    # Rounds
    # ------------------------------------------------------------------
    def setup(self, proc: ProcessorContext) -> None:
        proc.memory["label"] = proc.proc_id
        proc.memory["neighbours"] = np.nonzero(proc.input)[0].tolist()

    def broadcast(self, proc: ProcessorContext, round_index: int) -> int:
        return proc.memory["label"]

    def receive(
        self, proc: ProcessorContext, round_index: int, messages: dict[int, int]
    ) -> None:
        # A neighbour index >= n names a processor that never spoke, so its
        # lookup raises KeyError (the batch path rejects such inputs).
        memory = proc.memory
        memory["label"] = min(
            memory["label"],
            messages[proc.proc_id],
            *map(messages.__getitem__, memory["neighbours"]),
        )

    def output(self, proc: ProcessorContext) -> tuple[int, int]:
        count = proc.transcript.derived(_final_component_count, len(proc.transcript))
        return proc.memory["label"], count

    # ------------------------------------------------------------------
    # Vectorized fast path
    # ------------------------------------------------------------------
    def batch_decisions(
        self, inputs: np.ndarray
    ) -> tuple[np.ndarray, list[tuple[int, ...]]]:
        """Per-processor ``(label, n_components)`` outputs and ragged
        transcript keys (label vectors in round order, truncated at each
        trial's realized termination round) for a ``(trials, n, m)`` batch.

        Every round is one masked min-reduction over the whole
        ``(trials, n, n)`` stack; per-trial realized round counts replay
        the scalar ``finished`` rule (stop after two identical label
        rounds, cap ``n``).  Labels only decrease, so a stable trial stays
        stable — recording extra rounds for already-stopped trials is
        harmless and they are sliced off per trial below.
        """
        stack = np.asarray(inputs, dtype=np.uint8)
        if stack.ndim != 3:
            raise ValueError(
                f"inputs must be a (trials, n, m) stack, got shape {stack.shape}"
            )
        trials, n, m = stack.shape
        if m > n and stack[:, :, n:].any():
            raise ValueError(
                "adjacency entries beyond column n-1 reference processors "
                "that never speak (the scalar path raises looking up their "
                "messages)"
            )
        width = min(m, n)
        adjacency = np.zeros((trials, n, n), dtype=bool)
        adjacency[:, :, :width] = stack[:, :, :width] != 0
        cap = self.num_rounds(n)
        labels = np.tile(np.arange(n, dtype=np.int64), (trials, 1))
        # states[r] for r < executed are round r's messages (labels at round
        # start); the final entry is the post-receive label vector.
        states: list[np.ndarray] = []
        for r in range(cap):
            states.append(labels.copy())
            neighbour_min = np.where(adjacency, labels[:, None, :], n).min(axis=2)
            labels = np.minimum(labels, neighbour_min)
            if r >= 1 and np.array_equal(states[r], states[r - 1]):
                break  # every trial is stable; later rounds change nothing
        states.append(labels.copy())
        executed = len(states) - 1
        rounds_run = np.full(trials, cap, dtype=np.int64)
        done = np.zeros(trials, dtype=bool)
        for r in range(1, executed):
            newly = (~done) & (states[r] == states[r - 1]).all(axis=1)
            rounds_run[newly] = r + 1
            done |= newly
        outputs = np.empty((trials, n), dtype=object)
        keys: list[tuple[int, ...]] = []
        for t in range(trials):
            r_t = int(rounds_run[t])
            final_msgs = states[r_t - 1][t]
            count = components_from_labels(final_msgs.tolist())
            final_labels = states[r_t][t]
            for i in range(n):
                outputs[t, i] = (int(final_labels[i]), count)
            key = np.concatenate([states[r][t] for r in range(r_t)])
            keys.append(tuple(key.tolist()))
        return outputs, keys
