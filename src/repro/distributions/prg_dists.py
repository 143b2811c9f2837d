"""Pseudo-random input distributions (Sections 5–7 of the paper).

* :class:`SharedVectorRows` — ``U[b]`` per processor: each row is
  ``(x, x·b)`` for a **fixed** secret ``b ∈ {0,1}^k`` and uniform
  ``x ∈ {0,1}^k``.  Rows are independent once ``b`` is fixed.
* :class:`ToyPRGOutput` — case (B) of Theorem 5.1/5.3: ``b`` uniform, then
  all processors draw from ``U[b]``.  A mixture over the ``2^k`` choices of
  ``b``.
* :class:`SharedMatrixRows` — ``U_M`` per processor: rows ``(x, x^T M)``
  for a fixed secret ``M ∈ {0,1}^{k×(m-k)}`` and uniform ``x ∈ {0,1}^k``.
* :class:`PRGOutput` — case (B) of Theorem 5.4: ``M`` uniform, then all
  processors draw from ``U_M``.  This is the joint output distribution of
  the full PRG of Theorem 1.3.
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np

from ..core.randomness import fair_bits
from .base import (
    MixtureDistribution,
    RowIndependentDistribution,
    all_bitstrings,
)

__all__ = [
    "SharedVectorRows",
    "ToyPRGOutput",
    "SharedMatrixRows",
    "PRGOutput",
]

#: Cap on the float32 bytes (both cast operands and the product) of one
#: block of :func:`_with_tails`'s products.
_TAIL_BLOCK_BYTES = 1 << 20


def _with_tails(xs: np.ndarray, secrets: np.ndarray) -> np.ndarray:
    """Rows ``(x, x·S mod 2)`` for a ``(trials, n, k)`` stack of ``x``.

    ``secrets`` is one ``(k, tail)`` matrix shared by every trial or a
    ``(trials, k, tail)`` stack.  The products are ``float32``, exact
    here: each entry is a sum of at most ``k`` products of bits, far
    below ``2^24``.  They run over blocks of trials so their float
    temporaries stay near ``_TAIL_BLOCK_BYTES`` instead of growing with
    the batch.
    """
    count, n, k = xs.shape
    tail = secrets.shape[-1]
    out = np.empty((count, n, k + tail), dtype=np.uint8)
    out[:, :, :k] = xs
    per_trial = 4 * (n * k + k * tail + n * tail)
    block = max(1, _TAIL_BLOCK_BYTES // max(1, per_trial))
    for start in range(0, count, block):
        trials = slice(start, start + block)
        secret = secrets if secrets.ndim == 2 else secrets[trials]
        tails = np.matmul(xs[trials], secret, dtype=np.float32)
        out[trials, :, k:] = tails.astype(np.int32) & 1
    return out


class SharedVectorRows(RowIndependentDistribution):
    """``U[b]`` rows: ``(x, x·b)`` with ``x ~ U_k``, for fixed ``b``.

    Row length is ``k + 1``; the support is the ``2^k`` strings whose last
    bit equals the inner product of the first ``k`` bits with ``b``.
    """

    def __init__(self, n: int, secret: np.ndarray):
        secret = np.asarray(secret, dtype=np.uint8)
        if secret.ndim != 1:
            raise ValueError("secret b must be a 1-D bit array")
        super().__init__(n, secret.shape[0] + 1)
        self.secret = secret
        self.k = secret.shape[0]

    def sample_row(self, i: int, rng: np.random.Generator) -> np.ndarray:
        x = rng.integers(0, 2, size=self.k, dtype=np.uint8)
        parity = np.uint8(int(x @ self.secret) & 1)
        return np.concatenate([x, [parity]])

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        xs = rng.integers(0, 2, size=(self.n, self.k), dtype=np.uint8)
        parities = (xs @ self.secret) & 1
        return np.hstack([xs, parities[:, None].astype(np.uint8)])

    def sample_each(self, rngs: Sequence[np.random.Generator]) -> np.ndarray:
        xs = fair_bits(rngs, (self.n, self.k))[0]
        return _with_tails(xs, self.secret[:, None])

    def row_support(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        xs = all_bitstrings(self.k)
        parities = (xs @ self.secret) & 1
        support = np.hstack([xs, parities[:, None].astype(np.uint8)])
        probs = np.full(support.shape[0], 1.0 / support.shape[0])
        return support, probs

    @property
    def name(self) -> str:
        return f"U[b](k={self.k})"


class ToyPRGOutput(MixtureDistribution):
    """Case (B) of Theorem 5.1: uniform secret ``b``, rows from ``U[b]``."""

    def __init__(self, n: int, k: int):
        if k <= 0:
            raise ValueError("seed length k must be positive")
        super().__init__(n, k + 1)
        self.k = k

    def sample_component(self, rng: np.random.Generator) -> SharedVectorRows:
        secret = rng.integers(0, 2, size=self.k, dtype=np.uint8)
        return SharedVectorRows(self.n, secret)

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        return self.sample_component(rng).sample(rng)

    def sample_each(self, rngs: Sequence[np.random.Generator]) -> np.ndarray:
        secrets, xs = fair_bits(rngs, (self.k,), (self.n, self.k))
        return _with_tails(xs, secrets[:, :, None])

    def components(self) -> Iterator[tuple[float, SharedVectorRows]]:
        if self.k > 20:
            raise ValueError(
                f"enumerating 2^{self.k} components is infeasible; sample instead"
            )
        secrets = all_bitstrings(self.k)
        weight = 1.0 / secrets.shape[0]
        for b in secrets:
            yield weight, SharedVectorRows(self.n, b)

    def n_components(self) -> int:
        return 1 << self.k

    @property
    def name(self) -> str:
        return f"ToyPRG(n={self.n}, k={self.k})"


class SharedMatrixRows(RowIndependentDistribution):
    """``U_M`` rows: ``(x, x^T M)`` with ``x ~ U_k``, for fixed ``M``.

    ``M`` has shape ``(k, m - k)``; rows have length ``m``.
    """

    def __init__(self, n: int, secret: np.ndarray):
        secret = np.asarray(secret, dtype=np.uint8)
        if secret.ndim != 2:
            raise ValueError("secret M must be a 2-D bit array")
        k, tail = secret.shape
        super().__init__(n, k + tail)
        self.secret = secret
        self.k = k
        self.m = k + tail

    def sample_row(self, i: int, rng: np.random.Generator) -> np.ndarray:
        x = rng.integers(0, 2, size=self.k, dtype=np.uint8)
        tail = (x @ self.secret) & 1
        return np.concatenate([x, tail.astype(np.uint8)])

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        xs = rng.integers(0, 2, size=(self.n, self.k), dtype=np.uint8)
        tails = (xs @ self.secret) & 1
        return np.hstack([xs, tails.astype(np.uint8)])

    def sample_each(self, rngs: Sequence[np.random.Generator]) -> np.ndarray:
        xs = fair_bits(rngs, (self.n, self.k))[0]
        return _with_tails(xs, self.secret)

    def row_support(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        xs = all_bitstrings(self.k)
        tails = (xs @ self.secret) & 1
        support = np.hstack([xs, tails.astype(np.uint8)])
        probs = np.full(support.shape[0], 1.0 / support.shape[0])
        return support, probs

    @property
    def name(self) -> str:
        return f"U_M(k={self.k}, m={self.m})"


class PRGOutput(MixtureDistribution):
    """Case (B) of Theorem 5.4: uniform secret ``M ∈ {0,1}^{k×(m-k)}``.

    This is the joint distribution of all processors' pseudo-random strings
    produced by the PRG of Theorem 1.3.
    """

    def __init__(self, n: int, m: int, k: int):
        if not 0 < k <= m:
            raise ValueError(f"need 0 < k <= m, got k={k}, m={m}")
        super().__init__(n, m)
        self.k = k
        self.m = m

    @property
    def secret_bits(self) -> int:
        return self.k * (self.m - self.k)

    def sample_component(self, rng: np.random.Generator) -> SharedMatrixRows:
        secret = rng.integers(
            0, 2, size=(self.k, self.m - self.k), dtype=np.uint8
        )
        return SharedMatrixRows(self.n, secret)

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        return self.sample_component(rng).sample(rng)

    def sample_each(self, rngs: Sequence[np.random.Generator]) -> np.ndarray:
        """Per generator, ``M`` then ``X`` as :meth:`sample` draws them
        (through :func:`~repro.core.randomness.fair_bits`); then every
        trial's ``X M`` tail in blocked ``float32`` products."""
        secrets, xs = fair_bits(rngs, (self.k, self.m - self.k), (self.n, self.k))
        return _with_tails(xs, secrets)

    def components(self) -> Iterator[tuple[float, SharedMatrixRows]]:
        if self.secret_bits > 20:
            raise ValueError(
                f"enumerating 2^{self.secret_bits} secrets is infeasible"
            )
        secrets = all_bitstrings(self.secret_bits)
        weight = 1.0 / secrets.shape[0]
        for flat in secrets:
            yield weight, SharedMatrixRows(
                self.n, flat.reshape(self.k, self.m - self.k)
            )

    def n_components(self) -> int:
        return 1 << self.secret_bits

    @property
    def name(self) -> str:
        return f"PRGOutput(n={self.n}, m={self.m}, k={self.k})"
