"""Minimum spanning tree on random weights — a Section 9 candidate.

The paper proposes "constructing an MST on a complete graph with random
weights to the edges" as a target for its distributional lower-bound
technique.  This module supplies the upper-bound side: Borůvka's algorithm
in the broadcast clique.

Model mapping: every processor (vertex) ``i`` privately holds row ``i`` of
the symmetric weight matrix, encoded as ``n`` little-endian
``weight_bits``-bit fields in its 0/1 input row.  One Borůvka phase takes
a single ``BCAST(log n + log n + w)`` round: every vertex broadcasts its
current component label together with its lightest outgoing edge
(target + weight); since broadcasts are global, **every** processor can
replay the same merge bookkeeping locally, so components stay consistent
with no extra communication.  The classical analysis gives ``O(log n)``
phases.

Tie-breaking: edges are ordered by ``(weight, min endpoint, max
endpoint)`` so the MST is unique even with duplicate weights — and every
processor breaks ties identically.
"""

from __future__ import annotations

import math

import numpy as np

from ..core.processor import ProcessorContext
from ..core.protocol import Protocol
from ..core.transcript import Transcript
from ..costs import CostModel, Phase, Realized, Sym, ceil_log2, max_
from ..distributions.base import InputDistribution

__all__ = [
    "encode_weight_matrix",
    "decode_weight_row",
    "RandomWeightMatrix",
    "BoruvkaMSTProtocol",
    "mst_reference_weight",
]


def encode_weight_matrix(weights: np.ndarray, weight_bits: int) -> np.ndarray:
    """Encode a symmetric integer weight matrix as per-processor bit rows.

    Entry ``(i, j)`` occupies bits ``[j·w, (j+1)·w)`` of row ``i``
    (little-endian).  Weights must fit in ``weight_bits`` bits.
    """
    weights = np.asarray(weights)
    n = weights.shape[0]
    if weights.shape != (n, n):
        raise ValueError("weight matrix must be square")
    if not np.array_equal(weights, weights.T):
        raise ValueError("weight matrix must be symmetric")
    if weights.min() < 0 or weights.max() >= (1 << weight_bits):
        raise ValueError(f"weights must fit in {weight_bits} bits")
    if weight_bits <= 62:
        shifts = np.arange(weight_bits, dtype=np.int64)
        return (
            ((weights.astype(np.int64)[:, :, None] >> shifts) & 1)
            .reshape(n, n * weight_bits)
            .astype(np.uint8)
        )
    # Weights wider than an int64: bit-extract with Python ints.
    rows = np.zeros((n, n * weight_bits), dtype=np.uint8)
    for i in range(n):
        for j in range(n):
            value = int(weights[i, j])
            for t in range(weight_bits):
                rows[i, j * weight_bits + t] = (value >> t) & 1
    return rows


def decode_weight_row(row: np.ndarray, weight_bits: int) -> np.ndarray:
    """Decode one processor's input row back into its ``n`` edge weights."""
    row = np.asarray(row)
    if row.shape[0] % weight_bits:
        raise ValueError("row length must be a multiple of weight_bits")
    n = row.shape[0] // weight_bits
    weights = np.zeros(n, dtype=np.int64)
    for j in range(n):
        for t in range(weight_bits):
            weights[j] |= int(row[j * weight_bits + t]) << t
    return weights


class RandomWeightMatrix(InputDistribution):
    """Random symmetric integer weights, pre-encoded as protocol bit rows.

    The Section 9 "complete graph with random weights" input source for
    :class:`BoruvkaMSTProtocol`: each unordered pair gets a uniform weight
    in ``[0, 2^weight_bits)`` (zero diagonal), encoded little-endian via
    :func:`encode_weight_matrix`.  A library-level class (not a test
    lambda) so specs built on it stay picklable across process-pool and
    distributed backends.
    """

    def __init__(self, n: int, weight_bits: int):
        if n < 2:
            raise ValueError("need at least two vertices")
        if weight_bits < 1:
            raise ValueError("need at least one weight bit")
        super().__init__(n, n * weight_bits)
        self.weight_bits = weight_bits

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        upper = np.triu(
            rng.integers(0, 1 << self.weight_bits, size=(self.n, self.n)), 1
        )
        return encode_weight_matrix(upper + upper.T, self.weight_bits)


def mst_reference_weight(weights: np.ndarray) -> int:
    """Reference MST weight via Prim's algorithm (complete graph)."""
    weights = np.asarray(weights, dtype=np.int64)
    n = weights.shape[0]
    in_tree = np.zeros(n, dtype=bool)
    best = np.full(n, np.iinfo(np.int64).max)
    in_tree[0] = True
    best[1:] = weights[0, 1:]
    total = 0
    for _ in range(n - 1):
        candidates = np.where(~in_tree, best, np.iinfo(np.int64).max)
        nxt = int(np.argmin(candidates))
        total += int(best[nxt])
        in_tree[nxt] = True
        better = weights[nxt] < best
        best = np.where(better & ~in_tree, weights[nxt], best)
    return total


class BoruvkaMSTProtocol(Protocol):
    """Borůvka's MST in ``O(log n)`` rounds of wide broadcasts.

    Input: encoded weight rows (see :func:`encode_weight_matrix`).
    Output per processor: ``(mst_edges, total_weight)`` where ``mst_edges``
    is a frozenset of ``(u, v)`` pairs with ``u < v``.

    Each round's payload packs ``(component_label, best_target,
    best_weight)`` into ``2·⌈log₂n⌉ + weight_bits`` bits.  Termination is
    dynamic: the protocol stops one round after all labels coincide.
    """

    def __init__(self, n: int, weight_bits: int):
        if n < 2:
            raise ValueError("need at least two vertices")
        if weight_bits < 1:
            raise ValueError("need at least one weight bit")
        self.n = n
        self.weight_bits = weight_bits
        self.label_bits = max(1, math.ceil(math.log2(n)))
        self.message_size = 2 * self.label_bits + weight_bits

    def num_rounds(self, n: int) -> int:
        return max(2, math.ceil(math.log2(self.n)) + 2)

    def cost_model(self) -> CostModel:
        """Bounded: the realized Borůvka phase count ``R`` (components at
        least halve per phase, so ``R ≤ ⌈log₂ n⌉ + 2``) is measured, then
        every kind is exact at that ``R``: ``n`` turns per round of
        ``2⌈log₂ n⌉ + w`` packed bits, no coins."""
        n, w, rounds = Sym("n"), Sym("w"), Sym("R")
        width = 2 * max_(1, ceil_log2(n)) + w
        return CostModel(
            [
                Phase(
                    "boruvka",
                    rounds=rounds,
                    turns=n * rounds,
                    broadcast_bits=n * rounds * width,
                )
            ],
            params={"n": self.n, "w": self.weight_bits},
            realized=[
                Realized(
                    "R", source="rounds", lo=1, hi=max_(2, ceil_log2(n) + 2)
                )
            ],
        )

    # ------------------------------------------------------------------
    # Message packing
    # ------------------------------------------------------------------
    def _pack(self, label: int, target: int, weight: int) -> int:
        return (
            label
            | (target << self.label_bits)
            | (weight << (2 * self.label_bits))
        )

    def _unpack(self, payload: int) -> tuple[int, int, int]:
        mask = (1 << self.label_bits) - 1
        label = payload & mask
        target = (payload >> self.label_bits) & mask
        weight = payload >> (2 * self.label_bits)
        return label, target, weight

    # ------------------------------------------------------------------
    # Shared bookkeeping (identical at every processor)
    # ------------------------------------------------------------------
    def _labels_after(self, transcript: Transcript, rounds: int) -> list[int]:
        """Replay the merge bookkeeping from the broadcast history."""
        labels = list(range(self.n))
        for r in range(rounds):
            proposals: dict[int, tuple[tuple[int, int, int], int, int]] = {}
            for event in transcript.messages_in_round(r):
                label, target, weight = self._unpack(event.message)
                u = event.sender
                if labels[target] == labels[u]:
                    continue  # stale or internal edge; ignore
                edge_key = (weight, min(u, target), max(u, target))
                current = proposals.get(labels[u])
                if current is None or edge_key < current[0]:
                    proposals[labels[u]] = (edge_key, u, target)
            # Merge along the proposed edges (union by relabelling).
            for _, u, target in proposals.values():
                old, new = labels[u], labels[target]
                if old == new:
                    continue
                keep, drop = min(old, new), max(old, new)
                labels = [keep if x == drop else x for x in labels]
            if len(set(labels)) == 1:
                break
        return labels

    def _chosen_edges(
        self, transcript: Transcript, rounds: int
    ) -> frozenset[tuple[int, int]]:
        labels = list(range(self.n))
        edges: set[tuple[int, int]] = set()
        for r in range(rounds):
            proposals: dict[int, tuple[tuple[int, int, int], int, int]] = {}
            for event in transcript.messages_in_round(r):
                label, target, weight = self._unpack(event.message)
                u = event.sender
                if labels[target] == labels[u]:
                    continue
                edge_key = (weight, min(u, target), max(u, target))
                current = proposals.get(labels[u])
                if current is None or edge_key < current[0]:
                    proposals[labels[u]] = (edge_key, u, target)
            for _, u, target in proposals.values():
                if labels[u] == labels[target]:
                    continue
                edges.add((min(u, target), max(u, target)))
                keep = min(labels[u], labels[target])
                drop = max(labels[u], labels[target])
                labels = [keep if x == drop else x for x in labels]
            if len(set(labels)) == 1:
                break
        return frozenset(edges)

    def finished(self, n: int, transcript: Transcript, completed_rounds: int) -> bool:
        if completed_rounds < 1:
            return False
        labels = self._labels_after(transcript, completed_rounds)
        return len(set(labels)) == 1

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def _my_weights(self, proc: ProcessorContext) -> np.ndarray:
        if "mst_weights" not in proc.memory:
            proc.memory["mst_weights"] = decode_weight_row(
                proc.input, self.weight_bits
            )
        return proc.memory["mst_weights"]

    def broadcast(self, proc: ProcessorContext, round_index: int) -> int:
        labels = self._labels_after(proc.transcript, round_index)
        weights = self._my_weights(proc)
        my_label = labels[proc.proc_id]
        best_target, best_key = proc.proc_id, None
        for j in range(self.n):
            if labels[j] == my_label:
                continue
            key = (
                int(weights[j]),
                min(proc.proc_id, j),
                max(proc.proc_id, j),
            )
            if best_key is None or key < best_key:
                best_key, best_target = key, j
        if best_key is None:
            return self._pack(my_label, proc.proc_id, 0)
        return self._pack(my_label, best_target, best_key[0])

    def output(self, proc: ProcessorContext) -> tuple[frozenset, int]:
        rounds = proc.transcript[-1].round_index + 1 if proc.transcript.n_turns else 0
        edges = self._chosen_edges(proc.transcript, rounds)
        weights = self._my_weights(proc)
        # Total weight needs global knowledge of edge weights: every edge
        # (u, v) was broadcast with its weight when proposed, so replay.
        total = 0
        seen: set[tuple[int, int]] = set()
        for r in range(rounds):
            for event in proc.transcript.messages_in_round(r):
                _, target, weight = self._unpack(event.message)
                edge = (min(event.sender, target), max(event.sender, target))
                if edge in edges and edge not in seen:
                    seen.add(edge)
                    total += weight
        return edges, total

    # ------------------------------------------------------------------
    # Vectorized fast path
    # ------------------------------------------------------------------
    def batch_decisions(
        self, inputs: np.ndarray
    ) -> tuple[np.ndarray, list[tuple[int, ...]]]:
        """``(mst_edges, total_weight)`` per trial and ragged transcript
        keys (packed Borůvka payloads in round order, truncated at each
        trial's convergence round) for a ``(trials, n, n·w)`` encoded batch.

        The weight decode is one reshape/shift pass over the whole stack;
        within each trial the per-round lightest-outgoing-edge selection is
        a masked argmin over the encoded ``(weight, min, max)`` order,
        while the merge bookkeeping replays the scalar proposal dict
        verbatim (it is inherently sequential and ``O(n)`` per round).
        """
        stack = np.asarray(inputs, dtype=np.uint8)
        if stack.ndim != 3:
            raise ValueError(
                f"inputs must be a (trials, n, m) stack, got shape {stack.shape}"
            )
        trials, n, m = stack.shape
        if n != self.n:
            raise ValueError(
                f"protocol is configured for n={self.n} processors, "
                f"got input rows for n={n}"
            )
        w = self.weight_bits
        if w > 62:
            raise ValueError(
                "batched decoding supports weight_bits <= 62; run scalar"
            )
        if m % w:
            raise ValueError("row length must be a multiple of weight_bits")
        fields = m // w
        if fields < n:
            raise ValueError(
                f"rows must encode at least {n} weights of {w} bits each"
            )
        chunks = stack.reshape(trials, n, fields, w).astype(np.int64)
        weights = np.zeros((trials, n, fields), dtype=np.int64)
        for t in range(w):
            weights |= chunks[:, :, :, t] << t
        weights = weights[:, :, :n]
        # Total order on candidate edges matching (weight, min, max) tuples.
        ids = np.arange(n, dtype=np.int64)
        pair_min = np.minimum(ids[:, None], ids[None, :])
        pair_max = np.maximum(ids[:, None], ids[None, :])
        wide = w + 2 * self.label_bits + 2 > 62
        if wide:
            pair_enc = pair_min.astype(object) * n + pair_max
            sentinel: int | np.int64 = 1 << (w + 4 * self.label_bits + 8)
        else:
            pair_enc = pair_min * n + pair_max
            sentinel = np.iinfo(np.int64).max
        cap = self.num_rounds(n)
        outputs = np.empty(trials, dtype=object)
        keys: list[tuple[int, ...]] = []
        for t in range(trials):
            wmat = weights[t]
            enc = (wmat.astype(object) if wide else wmat) * (n * n) + pair_enc
            labels = np.arange(n, dtype=np.int64)
            edges: set[tuple[int, int]] = set()
            first_weight: dict[tuple[int, int], int] = {}
            key: list[int] = []
            for r in range(cap):
                same = labels[:, None] == labels[None, :]
                best_j = np.where(same, sentinel, enc).argmin(axis=1)
                has_out = ~same.all(axis=1)
                msgs = []
                for u in range(n):
                    if has_out[u]:
                        j = int(best_j[u])
                        msgs.append(
                            self._pack(int(labels[u]), j, int(wmat[u, j]))
                        )
                    else:
                        msgs.append(self._pack(int(labels[u]), u, 0))
                key.extend(msgs)
                # Mirror of _chosen_edges: proposals keyed by the sender's
                # component at round start, merges replayed in dict order.
                proposals: dict[int, tuple[tuple[int, int, int], int, int]] = {}
                for u in range(n):
                    _, target, weight = self._unpack(msgs[u])
                    edge = (min(u, target), max(u, target))
                    if edge not in first_weight:
                        first_weight[edge] = weight
                    lu = int(labels[u])
                    if int(labels[target]) == lu:
                        continue
                    edge_key = (weight, edge[0], edge[1])
                    current = proposals.get(lu)
                    if current is None or edge_key < current[0]:
                        proposals[lu] = (edge_key, u, target)
                for _, u, target in proposals.values():
                    if labels[u] == labels[target]:
                        continue
                    edges.add((min(u, target), max(u, target)))
                    keep = int(min(labels[u], labels[target]))
                    drop = int(max(labels[u], labels[target]))
                    labels[labels == drop] = keep
                if len(set(labels.tolist())) == 1:
                    break
            chosen = frozenset(edges)
            outputs[t] = (chosen, sum(first_weight[e] for e in chosen))
            keys.append(tuple(key))
        return outputs, keys
