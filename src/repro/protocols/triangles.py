"""Triangle counting — a Section 9 future-work problem, implemented.

The paper closes by proposing "counting triangles (or K4s) in random
graphs" as a target for the distributional lower-bound technique.  We
provide the two natural upper bounds so future experiments have a measured
baseline:

* :class:`FullExchangeTriangleProtocol` — the trivial exact protocol:
  every processor broadcasts its full adjacency row (``⌈n/b⌉`` rounds of
  ``BCAST(b)``), then counts triangles locally.  This is the ``O(n/log n)``
  rounds exact baseline in ``BCAST(log n)``.
* :class:`SampledTriangleProtocol` — a randomized estimator: public coins
  pick ``t`` random vertex triples; for each triple its three member
  processors broadcast their two incident edge bits (1 round of
  ``BCAST(2)`` per probe, only the members speak meaningfully), and the
  empirical triangle frequency rescales to a count estimate with standard
  Monte-Carlo error ``O(n³/√t)``.

Both operate on **undirected** graphs (symmetric adjacency rows).
"""

from __future__ import annotations

import math

import numpy as np

from ..core.processor import ProcessorContext
from ..core.protocol import Protocol, require_bits
from ..core.randomness import expand_seed
from ..costs import Const, CostModel, Phase, ceil_div, ceil_log2, max_
from ..costs import Sym as _S

__all__ = [
    "count_triangles",
    "count_k4",
    "FullExchangeTriangleProtocol",
    "SampledTriangleProtocol",
]


def _validated_symmetric(adjacency: np.ndarray) -> np.ndarray:
    a = np.asarray(adjacency, dtype=np.int64)
    if a.shape[0] != a.shape[1]:
        raise ValueError("adjacency must be square")
    if not np.array_equal(a, a.T):
        raise ValueError("adjacency must be symmetric (undirected graph)")
    return a


def count_triangles(adjacency: np.ndarray) -> int:
    """Exact triangle count of an undirected 0/1 adjacency matrix."""
    a = _validated_symmetric(adjacency)
    return int(np.trace(a @ a @ a) // 6)


def count_k4(adjacency: np.ndarray) -> int:
    """Exact count of 4-cliques ("or K4s", Section 9).

    For every edge ``(u, v)``, count the edges inside the common
    neighbourhood ``N(u) ∩ N(v)``; each K4 is counted once per its six
    edges.
    """
    a = _validated_symmetric(adjacency)
    n = a.shape[0]
    total = 0
    for u in range(n):
        for v in range(u + 1, n):
            if not a[u, v]:
                continue
            common = np.nonzero(a[u] & a[v])[0]
            if common.size < 2:
                continue
            block = a[np.ix_(common, common)]
            total += int(block.sum()) // 2
    return total // 6


class FullExchangeTriangleProtocol(Protocol):
    """Exact triangle count by full adjacency exchange.

    Processor ``i`` broadcasts its row in ``⌈n/b⌉`` rounds of ``b``-bit
    messages (bits packed little-endian per message); everyone then knows
    the full graph and counts locally.
    """

    def __init__(self, n: int, message_size: int | None = None):
        if n < 1:
            raise ValueError("need at least one vertex")
        self.n = n
        self._auto_width = message_size is None
        self.message_size = (
            max(1, math.ceil(math.log2(max(2, n))))
            if message_size is None
            else message_size
        )

    def num_rounds(self, n: int) -> int:
        return math.ceil(self.n / self.message_size)

    def cost_model(self) -> CostModel:
        """Exact: ``⌈n/b⌉`` rounds of ``n`` ``b``-bit broadcasts, no coins."""
        n = _S("n")
        b = ceil_log2(max_(2, n)) if self._auto_width else Const(self.message_size)
        rounds = ceil_div(n, b)
        return CostModel(
            [
                Phase(
                    "exchange",
                    rounds=rounds,
                    turns=n * rounds,
                    broadcast_bits=n * rounds * b,
                )
            ],
            params={"n": self.n},
        )

    def broadcast(self, proc: ProcessorContext, round_index: int) -> int:
        payload = 0
        base = round_index * self.message_size
        bits = proc.input_bits
        for t in range(self.message_size):
            j = base + t
            if j < self.n:
                payload |= bits[j] << t
        return payload

    def reconstructed_graph(self, proc: ProcessorContext) -> np.ndarray:
        adjacency = np.zeros((proc.n, self.n), dtype=np.uint8)
        for round_index, sender, message in proc.transcript.broadcasts():
            base = round_index * self.message_size
            for t in range(self.message_size):
                j = base + t
                if j < self.n:
                    adjacency[sender, j] = (message >> t) & 1
        return adjacency

    def output(self, proc: ProcessorContext) -> int:
        return count_triangles(self.reconstructed_graph(proc))

    # ------------------------------------------------------------------
    # Vectorized fast path
    # ------------------------------------------------------------------
    def batch_decisions(
        self, inputs: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Triangle counts and transcript keys for a ``(trials, n, m)``
        batch.

        The stack is checked as the scalar path would check it: ``n`` rows
        of at least ``n`` bit entries, symmetric (``count_triangles``
        refuses directed graphs).  Counts are ``trace(A³)/6`` per trial in
        one einsum; keys are each processor's row packed little-endian
        into ``⌈n/b⌉`` ``b``-bit payloads, then transposed to round-major
        turn order — one pad/reshape/dot pass.
        """
        inputs = np.asarray(inputs, dtype=np.uint8)
        if inputs.ndim != 3 or inputs.shape[1] != self.n or inputs.shape[2] < self.n:
            raise ValueError(
                f"inputs must be a (trials, {self.n}, >={self.n}) stack, "
                f"got shape {inputs.shape}"
            )
        adjacency = inputs[:, :, : self.n]
        require_bits(adjacency, "adjacency inputs")
        if not np.array_equal(adjacency, adjacency.transpose(0, 2, 1)):
            raise ValueError("adjacency must be symmetric (undirected graph)")
        a = adjacency.astype(np.int64)
        counts = np.einsum("tij,tjk,tki->t", a, a, a) // 6

        trials, n = adjacency.shape[0], adjacency.shape[1]
        b = self.message_size
        rounds = self.num_rounds(n)
        padded = np.zeros((trials, n, rounds * b), dtype=np.uint8)
        padded[:, :, : self.n] = adjacency
        chunks = padded.reshape(trials, n, rounds, b)
        if b <= 62:
            weights = (np.int64(1) << np.arange(b, dtype=np.int64))
            payloads = (chunks.astype(np.int64) * weights).sum(axis=3)
        else:
            # Payloads wider than an int64: assemble Python ints instead.
            payloads = np.zeros((trials, n, rounds), dtype=object)
            for t in range(b):
                payloads += chunks[:, :, :, t].astype(object) * (1 << t)
        return counts, payloads.transpose(0, 2, 1).reshape(trials, rounds * n)


class SampledTriangleProtocol(Protocol):
    """Monte-Carlo triangle count estimation.

    Each probe round, a public-coin triple ``(u, v, w)`` is drawn; ``u``
    broadcasts edge ``uv``, ``v`` broadcasts edge ``vw``, ``w`` broadcasts
    edge ``wu`` (everyone else stays silent with 0).  The estimate is
    ``C(n,3) ×`` the fraction of probed triples found complete.
    """

    message_size = 1

    def __init__(self, n: int, t_probes: int):
        if n < 3:
            raise ValueError("need at least three vertices")
        if t_probes < 1:
            raise ValueError("need at least one probe")
        self.n = n
        self.t_probes = t_probes
        self._triples: list[tuple[int, int, int]] | None = None

    def num_rounds(self, n: int) -> int:
        return self.t_probes

    def setup(self, proc: ProcessorContext) -> None:
        if self._triples is None:
            if proc.public_coins is None:
                raise ValueError(
                    "SampledTriangleProtocol needs a public_coins source"
                )
            seed = proc.public_coins.draw_int(32)
            expand = expand_seed(seed)
            triples = []
            while len(triples) < self.t_probes:
                u, v, w = (int(x) for x in expand.choice(self.n, 3, replace=False))
                triples.append((u, v, w))
            self._triples = triples

    def broadcast(self, proc: ProcessorContext, round_index: int) -> int:
        u, v, w = self._triples[round_index]
        if proc.proc_id == u:
            return proc.input_bits[v]
        if proc.proc_id == v:
            return proc.input_bits[w]
        if proc.proc_id == w:
            return proc.input_bits[u]
        return 0

    def output(self, proc: ProcessorContext) -> float:
        hits = 0
        for r, (u, v, w) in enumerate(self._triples):
            messages = proc.transcript.round_messages(r)
            if messages[u] and messages[v] and messages[w]:
                hits += 1
        total_triples = math.comb(self.n, 3)
        return total_triples * hits / self.t_probes
