"""The Appendix B planted-clique protocol (Theorem B.1).

For ``k = ω(log² n)`` the hidden clique can be *found* in
``O(n/k · polylog n)`` rounds of ``BCAST(1)`` with probability
``1 - 1/n²``:

1. every processor activates itself with probability ``p = log²n / k``
   and broadcasts the decision (1 round);
2. if more than ``2np`` processors activated, abort;
3. the activated processors broadcast the induced subgraph: in round
   ``1 + t`` each activated processor broadcasts its edge toward the
   ``t``-th activated vertex (``N_active`` rounds — everyone then knows
   every activated row restricted to the activated set);
4. everyone locally computes the maximum clique ``C_active`` of the
   activated *bidirected* subgraph; if it is smaller than the threshold
   (``p·k/2`` expected activated clique members), abort;
5. every processor broadcasts whether it has out-edges to at least a
   ``9/10`` fraction of ``C_active`` (1 round); the claimants are the
   recovered clique.

Membership testing uses out-edges only: a non-member has each edge toward
``C_active ∩ C`` independently with probability 1/2, so reaching a 9/10
fraction of ``|C_active| ≈ log²n`` vertices has probability
``2^{-Ω(log²n)}`` — negligible — while true members reach all of
``C_active ∩ C`` deterministically.

The class below is the protocol with exact round accounting (dynamic round
count: ``2 + N_active`` or 1 on abort); :func:`subsample_recover` is the
same algorithm run centrally for large-scale benchmarking.
"""

from __future__ import annotations

import math

import numpy as np

from ..core.processor import ProcessorContext
from ..core.protocol import Protocol, require_bits
from ..core.randomness import expand_seed
from ..core.transcript import Transcript
from ..costs import Const, CostModel, Phase, Realized, Sym
from .exhaustive import max_clique
from .problem import bidirected_skeleton

__all__ = [
    "PlantedCliqueSubsampleProtocol",
    "subsample_recover",
    "activation_probability",
    "expected_rounds",
]

#: Precision (bits) used to realise the biased activation coin.
_COIN_PRECISION = 24


def activation_probability(n: int, k: int, factor: float = 1.0) -> float:
    """``p = factor · log²n / k``, clamped to [0, 1] (log base 2)."""
    if n < 2:
        raise ValueError("need at least 2 processors")
    log_n = math.log2(n)
    return min(1.0, factor * log_n * log_n / k)


def expected_rounds(n: int, k: int, factor: float = 1.0) -> float:
    """Expected round count ``2 + n·p = O(n/k · polylog n)``."""
    return 2.0 + n * activation_probability(n, k, factor)


def _volunteers(transcript: Transcript) -> tuple[int, ...]:
    """Senders of a 1 in round 0, in increasing order."""
    return tuple(
        sorted(
            sender
            for sender, message in transcript.round_messages(0).items()
            if message == 1
        )
    )


class PlantedCliqueSubsampleProtocol(Protocol):
    """Executable Appendix B protocol.

    Parameters
    ----------
    k:
        The planted clique size the protocol targets.
    activation_factor:
        Multiplier on the activation probability ``log²n / k`` — the
        theorem's constant, exposed for finite-size tuning.
    support_fraction:
        The membership threshold (paper: ``9/10``).
    clique_threshold_factor:
        Abort unless the activated max clique reaches this fraction of its
        expectation ``p·k`` (paper: ``1/2``).

    Outputs: every processor outputs the recovered ``frozenset`` of
    claimant vertices, or ``None`` if the protocol aborted.

    The protocol is randomized, but its only coin use is the round-0
    activation draw — ``_COIN_PRECISION`` private bits per processor, its
    ``batch_coin_bits`` — so it supports the engine's vectorized fast
    path: the engine hands ``batch_decisions`` the per-processor coin
    seeds it would have given the scalar simulator, and the batch replays
    the same draws bit for bit.
    """

    batch_coin_bits = _COIN_PRECISION

    def __init__(
        self,
        k: int,
        activation_factor: float = 1.0,
        support_fraction: float = 0.9,
        clique_threshold_factor: float = 0.5,
    ):
        if k < 1:
            raise ValueError("clique size k must be positive")
        self.k = k
        self.activation_factor = activation_factor
        self.support_fraction = support_fraction
        self.clique_threshold_factor = clique_threshold_factor

    # ------------------------------------------------------------------
    # Round structure
    # ------------------------------------------------------------------
    def num_rounds(self, n: int) -> int:
        """Worst-case cap; the run terminates dynamically via ``finished``."""
        return n + 2

    def _activation_cap(self, n: int) -> float:
        return 2.0 * n * activation_probability(n, self.k, self.activation_factor)

    def _active_set(self, transcript: Transcript, n: int) -> tuple[int, ...]:
        """The processors that activated in round 0 (its ``n`` turns),
        computed once per execution and shared by every processor."""
        return transcript.derived(_volunteers, min(n, len(transcript)))

    def _aborted_after_activation(self, n: int, active: tuple[int, ...]) -> bool:
        return len(active) > self._activation_cap(n) or len(active) < 2

    def finished(self, n: int, transcript: Transcript, completed_rounds: int) -> bool:
        if completed_rounds < 1:
            return False
        active = self._active_set(transcript, n)
        return (
            self._aborted_after_activation(n, active)
            or completed_rounds >= len(active) + 2
        )

    # ------------------------------------------------------------------
    # Broadcasts
    # ------------------------------------------------------------------
    def broadcast(self, proc: ProcessorContext, round_index: int) -> int:
        if round_index == 0:
            p = activation_probability(proc.n, self.k, self.activation_factor)
            draw = proc.coins.draw_int(_COIN_PRECISION)
            active = int(draw < p * (1 << _COIN_PRECISION))
            proc.memory["active"] = bool(active)
            return active
        active = proc.memory.get("active_set")
        if active is None:
            # Fixed once round 0 is over: look it up once per processor.
            active = proc.memory["active_set"] = self._active_set(
                proc.transcript, proc.n
            )
        if round_index <= len(active):
            # Edge-broadcast phase: my edge toward the t-th activated vertex.
            if proc.memory.get("active"):
                return proc.input_bits[active[round_index - 1]]
            return 0
        # Membership round.
        return self._membership_claim(proc, active)

    @staticmethod
    def _activated_subgraph(
        transcript: Transcript, active: tuple[int, ...]
    ) -> np.ndarray:
        """The activated induced directed subgraph from the transcript."""
        size = len(active)
        position = {v: t for t, v in enumerate(active)}
        sub = np.zeros((size, size), dtype=np.uint8)
        for round_index in range(1, size + 1):
            for sender, message in transcript.round_messages(round_index).items():
                if sender in position:
                    sub[position[sender], round_index - 1] = message
        np.fill_diagonal(sub, 0)
        return sub

    def _active_clique(
        self, transcript: Transcript, n: int, active: tuple[int, ...]
    ) -> frozenset[int] | None:
        """Max clique of the activated bidirected subgraph (None if the
        abort threshold is missed).  It reads the activation and edge
        rounds only, so it is computed once per execution and shared by
        every processor."""
        return transcript.derived(self._clique_of_edges, (len(active) + 1) * n)

    def _clique_of_edges(self, transcript: Transcript) -> frozenset[int] | None:
        n = len(transcript.round_messages(0))  # everyone speaks in round 0
        active = self._active_set(transcript, n)
        sub = self._activated_subgraph(transcript, active)
        local = max_clique(sub & sub.T)
        p = activation_probability(n, self.k, self.activation_factor)
        if len(local) < self.clique_threshold_factor * p * self.k:
            return None
        return frozenset(active[t] for t in local)

    def _membership_claim(
        self, proc: ProcessorContext, active: tuple[int, ...]
    ) -> int:
        clique = self._active_clique(proc.transcript, proc.n, active)
        if clique is None:
            return 0
        others = [v for v in clique if v != proc.proc_id]
        if not others:
            return 0
        support = sum(proc.input_bits[v] for v in others)
        return int(support >= self.support_fraction * len(others))

    # ------------------------------------------------------------------
    # Output
    # ------------------------------------------------------------------
    def output(self, proc: ProcessorContext) -> frozenset[int] | None:
        active = self._active_set(proc.transcript, proc.n)
        if self._aborted_after_activation(proc.n, active):
            return None
        if self._active_clique(proc.transcript, proc.n, active) is None:
            return None
        membership_round = len(active) + 1
        claims = proc.transcript.round_messages(membership_round)
        return frozenset(sender for sender, claim in claims.items() if claim == 1)

    # ------------------------------------------------------------------
    # Symbolic cost model
    # ------------------------------------------------------------------
    def cost_model(self) -> CostModel:
        """Bounded: the realized round count ``R`` (1 on activation abort,
        else ``N_active + 2``) is measured; at that ``R`` every kind is
        exact — one activation round costing ``_COIN_PRECISION`` private
        bits per processor, then ``R - 1`` single-bit rounds for the edge
        and membership phases."""
        n, rounds = Sym("n"), Sym("R")
        return CostModel(
            [
                Phase(
                    "activation",
                    rounds=1,
                    turns=n,
                    broadcast_bits=n,
                    total_private_bits=Const(_COIN_PRECISION) * n,
                ),
                Phase(
                    "edges+membership",
                    rounds=rounds - 1,
                    turns=n * (rounds - 1),
                    broadcast_bits=n * (rounds - 1),
                ),
            ],
            realized=[Realized("R", source="rounds", lo=1, hi=n + 2)],
        )

    # ------------------------------------------------------------------
    # Vectorized fast path
    # ------------------------------------------------------------------
    def batch_decisions(
        self, inputs: np.ndarray, coin_seeds: np.ndarray | None = None
    ) -> tuple[np.ndarray, list[tuple[int, ...]]]:
        """Per-trial recovered cliques (or ``None``) and ragged transcript
        keys for a ``(trials, n, m)`` batch under engine-supplied coin
        seeds.  A key is the activation bits, then the edge rounds in
        round-major order, then the membership round (activation bits only
        on abort).

        Activation draws replay the scalar per-processor coin chain
        (``expand_seed`` of each engine-supplied seed, one
        ``_COIN_PRECISION``-bit draw); the per-trial edge and membership
        rounds are then single fancy-indexing passes over the adjacency
        stack, with only the max-clique search left per trial.
        """
        if coin_seeds is None:
            raise ValueError(
                "the subsample protocol draws private coins; batch calls "
                "must supply coin_seeds (the engine does, since "
                "batch_coin_bits > 0)"
            )
        stack = np.asarray(inputs, dtype=np.uint8)
        if stack.ndim != 3:
            raise ValueError(
                f"inputs must be a (trials, n, m) stack, got shape {stack.shape}"
            )
        trials, n, m = stack.shape
        if m < n:
            raise ValueError(
                f"adjacency rows must cover all n={n} vertices, got {m} bits"
            )
        require_bits(stack[:, :, :n], "subsample adjacency")
        seeds = np.asarray(coin_seeds)
        if seeds.shape != (trials, n):
            raise ValueError(
                f"coin_seeds must have shape ({trials}, {n}), got {seeds.shape}"
            )
        p = activation_probability(n, self.k, self.activation_factor)
        draws = np.empty((trials, n), dtype=np.int64)
        for t in range(trials):
            for i in range(n):
                draws[t, i] = expand_seed(int(seeds[t, i])).integers(
                    0, 1 << _COIN_PRECISION
                )
        active_mask = draws < p * (1 << _COIN_PRECISION)
        counts = active_mask.sum(axis=1)
        cap = 2.0 * n * p
        threshold = self.clique_threshold_factor * p * self.k
        diag = np.arange(n)
        outputs = np.empty(trials, dtype=object)
        keys: list[tuple[int, ...]] = []
        for t in range(trials):
            activation_bits = active_mask[t].astype(np.int64)
            if counts[t] > cap or counts[t] < 2:
                outputs[t] = None
                keys.append(tuple(activation_bits.tolist()))
                continue
            adj = stack[t, :, :n]
            active = np.nonzero(active_mask[t])[0]
            # Round 1 + r: everyone's edge toward the r-th activated
            # vertex (inactive processors broadcast 0).
            edge_block = np.where(active_mask[t][:, None], adj[:, active], 0)
            sub = adj[np.ix_(active, active)].copy()
            np.fill_diagonal(sub, 0)
            local = max_clique(sub & sub.T)
            if len(local) < threshold:
                outputs[t] = None
                membership = np.zeros(n, dtype=np.int64)
            else:
                cols = active[np.array(sorted(local), dtype=np.int64)]
                in_clique = np.zeros(n, dtype=np.int64)
                in_clique[cols] = 1
                support = (
                    adj[:, cols].sum(axis=1).astype(np.int64)
                    - in_clique * adj[diag, diag].astype(np.int64)
                )
                len_others = len(cols) - in_clique
                claims = (
                    support >= self.support_fraction * len_others
                ).astype(np.int64)
                membership = np.where(len_others == 0, 0, claims)
                outputs[t] = frozenset(
                    int(v) for v in np.nonzero(membership == 1)[0]
                )
            key = np.concatenate(
                [
                    activation_bits,
                    edge_block.T.reshape(-1).astype(np.int64),
                    membership,
                ]
            )
            keys.append(tuple(key.tolist()))
        return outputs, keys


def subsample_recover(
    adjacency: np.ndarray,
    k: int,
    rng: np.random.Generator,
    activation_factor: float = 1.0,
    support_fraction: float = 0.9,
    clique_threshold_factor: float = 0.5,
) -> tuple[frozenset[int] | None, int]:
    """Centralised run of the Appendix B algorithm.

    Returns ``(recovered set or None, simulated BCAST(1) round count)`` —
    the same quantities the protocol produces, without simulator overhead,
    for large-``n`` benchmarking.
    """
    adjacency = np.asarray(adjacency, dtype=np.uint8)
    n = adjacency.shape[0]
    p = activation_probability(n, k, activation_factor)
    active = np.nonzero(rng.random(n) < p)[0]
    rounds = 1
    if len(active) > 2 * n * p or len(active) < 2:
        return None, rounds
    rounds += len(active) + 1
    sub = adjacency[np.ix_(active, active)]
    skeleton = bidirected_skeleton(sub)
    local = max_clique(skeleton)
    if len(local) < clique_threshold_factor * p * k:
        return None, rounds
    clique_vertices = [int(active[t]) for t in local]
    claimants = []
    for u in range(n):
        others = [v for v in clique_vertices if v != u]
        if not others:
            continue
        support = int(adjacency[u, others].sum())
        if support >= support_fraction * len(others):
            claimants.append(u)
    return frozenset(claimants), rounds
