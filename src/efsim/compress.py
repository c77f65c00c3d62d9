"""Sparsifying compression operators and their error guarantees.

Two operator families are covered:

* contractive operators, whose squared compression error is at most a
  ``(1 - alpha)`` fraction of the input's squared norm (TopK, unscaled
  RandK with ``alpha = k/d``, and the identity with ``alpha = 1``), and
* absolute operators, whose squared error is bounded by a constant
  ``Delta**2`` regardless of the input (hard thresholding, with
  ``Delta = sqrt(d) * tau``).

RandK is deliberately left unscaled: the scaled variant is unbiased but no
longer contractive, and none of the implemented algorithms needs
unbiasedness.  Communication is accounted in coordinates sent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "Compressor",
    "CompressedVector",
    "top_k",
    "rand_k",
    "identity",
    "hard_threshold",
    "keep_mask",
    "compress",
    "contraction_alpha",
    "absolute_delta",
]

@dataclass(frozen=True)
class Compressor:
    """Description of a compression operator applied to vectors in R^d."""

    kind: str  # 'topk' | 'randk' | 'identity' | 'hard_threshold'
    dim: int
    k: int = 0
    tau: float = 0.0

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be positive")
        if self.kind in ("topk", "randk"):
            if not 1 <= self.k <= self.dim:
                raise ValueError(f"{self.kind} requires 1 <= k <= d, got k={self.k}, d={self.dim}")
        elif self.kind == "hard_threshold":
            if not self.tau > 0:
                raise ValueError("hard_threshold requires tau > 0")
        elif self.kind != "identity":
            raise ValueError(f"unknown compressor kind {self.kind!r}")

    @property
    def is_contractive(self) -> bool:
        return self.kind in ("topk", "randk", "identity")

    @property
    def is_absolute(self) -> bool:
        return self.kind == "hard_threshold"

    @property
    def is_random(self) -> bool:
        return self.kind == "randk"


def top_k(k: int, dim: int) -> Compressor:
    return Compressor("topk", dim, k=k)


def rand_k(k: int, dim: int) -> Compressor:
    return Compressor("randk", dim, k=k)


def identity(dim: int) -> Compressor:
    return Compressor("identity", dim)


def hard_threshold(tau: float, dim: int) -> Compressor:
    return Compressor("hard_threshold", dim, tau=tau)


@dataclass
class CompressedVector:
    """Sparse message: strictly increasing indices in [0, d) with values."""

    indices: np.ndarray  # int64, sorted ascending, unique
    values: np.ndarray  # float64, same length
    dim: int


def keep_mask(spec: Compressor, rows: np.ndarray, picks=None) -> np.ndarray:
    """Boolean mask of the coordinates the operator keeps in each row of
    ``rows`` (shape (m, d)); ``picks`` holds RandK's k indices per row, an
    (m, k) array or a list of m length-k arrays (each row's
    ``rng.choice(d, k, replace=False)``).

    TopK keeps the k largest magnitudes with ties broken toward the lowest
    index (determinism is required for bitwise replay), exactly the first k
    of a stable sort on -|x|: +-inf rank first and NaN last.  Top1 is numpy's
    argmax of |x| (the first maximum, and a NaN if there is one).  RandK keeps
    its picks, unscaled.  Identity keeps everything.  Hard thresholding keeps
    entries with |x_j| >= tau.
    """
    if spec.kind == "identity":
        return np.ones(rows.shape, dtype=bool)
    if spec.kind == "hard_threshold":
        return np.abs(rows) >= spec.tau
    if spec.kind == "randk":
        mask = np.zeros(rows.shape, dtype=bool)
        np.put_along_axis(mask, np.asarray(picks), True, axis=1)
        return mask
    if spec.k == 1:
        mask = np.zeros(rows.shape, dtype=bool)
        mask[np.arange(len(rows)), np.argmax(np.abs(rows), axis=1)] = True
        return mask
    size = np.abs(rows)
    np.fmax(size, -1.0, out=size)  # NaN -> -1: ranked after every number
    kth = np.partition(size, spec.dim - spec.k, axis=1)[:, spec.dim - spec.k, None]  # k-th largest
    mask = size >= kth
    # each row has at least k entries down to its k-th largest, so the total
    # is k per row exactly when no row has surplus ties; otherwise the
    # lowest-index tied entries fill each row up to k
    if np.count_nonzero(mask) != spec.k * len(rows):
        above = size > kth
        tied = size == kth
        tied &= np.cumsum(tied, axis=1) <= spec.k - np.count_nonzero(above, axis=1, keepdims=True)
        mask = above | tied
    return mask


# the engine calls ``keep_mask`` on blocks of rows; this one-vector form is
# kept for perfbench/tracing.py, which imports it by name, and the tests
def compress(spec: Compressor, x: np.ndarray, rng: np.random.Generator | None = None) -> CompressedVector:
    """Apply the operator to x, returning the kept coordinates (see
    ``keep_mask``); RandK draws its coordinates from ``rng``."""
    if x.shape != (spec.dim,):
        raise ValueError(f"dimension mismatch: compressor dim {spec.dim}, vector shape {x.shape}")
    picks = None
    if spec.is_random:
        if rng is None:
            raise ValueError("randk requires a random stream")
        picks = [rng.choice(spec.dim, size=spec.k, replace=False)]
    idx = np.flatnonzero(keep_mask(spec, x[None, :], picks)[0])
    return CompressedVector(idx, x[idx], spec.dim)


def contraction_alpha(spec: Compressor) -> float | None:
    """Contraction constant alpha, or None for non-contractive operators."""
    if spec.kind in ("topk", "randk"):
        return spec.k / spec.dim
    if spec.kind == "identity":
        return 1.0
    return None


def absolute_delta(spec: Compressor) -> float | None:
    """Worst-case absolute error bound Delta, or None if not absolute.

    For hard thresholding every dropped entry is below tau in magnitude, so
    the squared error is at most d * tau**2.
    """
    if spec.kind == "hard_threshold":
        return float(np.sqrt(spec.dim) * spec.tau)
    return None
