"""Distributed quadratic objectives.

The generator follows the tridiagonal construction: each node's matrix is a
scaled copy ``(mu_i/4) * T`` of the d x d tridiagonal matrix T with 2 on the
diagonal and -1 off it, with Gaussian node-to-node scale noise
``mu_i = 1 + s * xi_i``.  The linear terms put all mass on the first
coordinate, ``b_i = (mu_i/4) * (-1 + s * xi_i', 0, ..., 0)``.  After
generation every matrix is shifted by ``(lam - lambda_min(mean Q)) * I`` so
the mean matrix has minimum eigenvalue exactly ``lam``, and the start point
is ``x0 = (sqrt(d), 0, ..., 0)``.

A problem is held as that structure, the node scales and the shift, so
matvecs are O(d), which keeps d = 1000 runs cheap.  Stochastic gradients
add Gaussian noise with per-coordinate variance sigma^2 / d, so the
vector-level second moment is sigma^2, matching how the variance bound is
stated.  A block's gradients, at one iterate or STORM's two, come from one
call of the compiled kernel (``core.QuadraticGrads``), with the values of
the numpy path (``core.quadratic_grads`` and ``core.add_batch_noise``),
which runs where the kernel did not load; a TopK round forms them inside
the kernel's step (``core.TopKStep``) from the same oracle.
"""

from __future__ import annotations

import json
import math
from functools import cached_property

import numpy as np
from scipy.linalg import solveh_banded

from .. import core
from ..core import QuadraticGrads, Sample, add_batch_noise, atomic_write, derive_stream, quadratic_grads, tridiag_matvec
from .base import Problem, SmoothnessInfo

__all__ = ["QuadraticProblem", "generate_quadratic", "save_quadratic_task", "load_quadratic_task"]


def _tridiag_eigenvalues_range(d: int) -> tuple[float, float]:
    # eigenvalues of T are 4 sin^2(k pi / (2(d+1))), k = 1..d
    lo = 4.0 * math.sin(math.pi / (2.0 * (d + 1))) ** 2
    hi = 4.0 * math.sin(d * math.pi / (2.0 * (d + 1))) ** 2
    return lo, hi


class QuadraticProblem(Problem):
    """f_i(x) = 0.5 x^T Q_i x - b_i^T x with additive Gaussian noise, where
    Q_i = tri_scale[i] * T + shift * I.

    ``full_grads`` and ``stoch_grads_at`` take a block's gradients from the
    compiled kernel where it loaded, and from numpy otherwise, with the same
    bits; the engine's TopK step forms them in the kernel from
    ``kernel_grads``.  A subclass or instance with its own ``full_grads`` (a
    dense quadratic, say) or ``stoch_grads_at`` is never bypassed: no
    gradient of it comes from the kernel, and its stochastic gradients are
    its full gradients plus the numpy noise."""

    def __init__(
        self,
        b: np.ndarray,
        x0: np.ndarray,
        sigma: float,
        tri_scale: np.ndarray,
        shift: float,
        meta: dict | None = None,
    ):
        self.b = np.asarray(b, dtype=np.float64)
        self.n_nodes, self.dim = self.b.shape
        self.x0 = np.asarray(x0, dtype=np.float64)
        self.sigma = float(sigma)
        self.tri_scale = np.asarray(tri_scale, dtype=np.float64)
        self.shift = float(shift)
        self.meta = meta or {}
        self._noise_scale = self.sigma / math.sqrt(self.dim)

    def mean_matvec(self, x: np.ndarray) -> np.ndarray:
        return float(np.mean(self.tri_scale)) * tridiag_matvec(x) + self.shift * x

    # -- oracles ---------------------------------------------------------

    def full_grads(self, rows: slice, x: np.ndarray) -> np.ndarray:
        grads = self._compiled(rows, (x,), None)
        return quadratic_grads(self.tri_scale[rows], self.b[rows], self.shift, x) if grads is None else grads[0]

    def sample(self, batch: int) -> Sample | None:
        return None if self.sigma == 0.0 else Sample(batch * self.dim)

    def stoch_grads_at(self, rows: slice, xs, raw) -> list[np.ndarray]:
        """The full gradients plus the scaled Gaussian noise, averaged over
        the batch."""
        raw = None if self.sigma == 0.0 else raw
        grads = self._compiled(rows, xs, raw)
        if grads is None:  # numpy's, or a subclass's own full gradients
            grads = [self.full_grads(rows, x) for x in xs]
            if raw is not None:
                add_batch_noise(grads, raw, self._noise_scale)
        return grads

    # the kernel's oracle, built on first use (the kernel is loaded there, not at construction)
    _kernel_grads = None

    def kernel_grads(self) -> QuadraticGrads | None:
        """The compiled kernel's oracle of this problem's gradients
        (``core.QuadraticGrads``), or None where the kernel did not load or a
        subclass or the instance defines its own ``full_grads`` or
        ``stoch_grads_at``, which nothing may bypass."""
        if not self._own_oracles(QuadraticProblem):
            return None
        lib = core._kernel()
        if lib is None:
            return None
        if self._kernel_grads is None:
            self._kernel_grads = QuadraticGrads(lib, self.tri_scale, self.b, self.shift, self._noise_scale)
        return self._kernel_grads

    def _compiled(self, rows: slice, xs, raw) -> list[np.ndarray] | None:
        """The gradients from ``kernel_grads``, or None where there is none or
        it does not take the input."""
        grads = self.kernel_grads()
        return None if grads is None else grads(rows, xs, raw)

    def __getstate__(self) -> dict:
        return {**self.__dict__, "_kernel_grads": None}  # a ctypes structure does not pickle

    def value(self, x: np.ndarray) -> float:
        bbar = self.b.mean(axis=0)
        return 0.5 * float(x @ self.mean_matvec(x)) - float(bbar @ x)

    # -- metadata --------------------------------------------------------

    def _spectral_range(self, scale: float) -> tuple[float, float]:
        lo, hi = _tridiag_eigenvalues_range(self.dim)
        ends = (scale * lo + self.shift, scale * hi + self.shift)
        return min(ends), max(ends)

    def mean_lambda_min(self) -> float:
        return self._spectral_range(float(np.mean(self.tri_scale)))[0]

    def smoothness(self) -> SmoothnessInfo:
        # eigenvalues of scale*T + shift*I are linear in T's, so the
        # spectral norm sits at one of the two extreme eigenvalues
        l_i = np.array([max(abs(e) for e in self._spectral_range(float(s))) for s in self.tri_scale])
        l_tilde = float(np.sqrt(np.mean(l_i**2)))
        l_mean = max(abs(e) for e in self._spectral_range(float(np.mean(self.tri_scale))))
        # additive noise keeps per-sample Lipschitz constants: ell_tilde = L_tilde
        return SmoothnessInfo(L=float(l_mean), L_i=l_i, L_tilde=l_tilde, ell_tilde=l_tilde)

    @cached_property
    def f_star(self) -> float | None:
        """min f, from one banded solve of the mean matrix; None unless that
        matrix is positive definite."""
        if self.mean_lambda_min() <= 0.0:
            return None
        bbar = self.b.mean(axis=0)
        scale = float(np.mean(self.tri_scale))
        ab = np.zeros((2, self.dim))
        ab[0, 1:] = -scale
        ab[1, :] = 2.0 * scale + self.shift
        xstar = solveh_banded(ab, bbar)
        return 0.5 * float(xstar @ self.mean_matvec(xstar)) - float(bbar @ xstar)


def generate_quadratic(n: int, d: int, lam: float, s: float, seed: int, sigma: float = 0.0) -> QuadraticProblem:
    """Generate an n-node, d-dimensional quadratic task.

    Node scale noises are mu_i = 1 + s * xi_i and the linear-term noises are
    s * xi_i' with i.i.d. standard Gaussian draws; the common diagonal shift
    is chosen so the mean matrix has minimum eigenvalue exactly ``lam``.
    """
    if n < 1 or d < 2:
        raise ValueError("need n >= 1 and d >= 2")
    if lam < 0 or s < 0:
        raise ValueError("lam and s must be nonnegative")
    rng = derive_stream(seed, 0, 0)
    xi = rng.standard_normal((n, 2))
    mu_s = 1.0 + s * xi[:, 0]
    mu_b = s * xi[:, 1]
    tri_scale = mu_s / 4.0
    b = np.zeros((n, d))
    b[:, 0] = tri_scale * (-1.0 + mu_b)
    lo, hi = _tridiag_eigenvalues_range(d)
    mean_scale = float(np.mean(tri_scale))
    lam_min_unshifted = min(mean_scale * lo, mean_scale * hi)
    shift = lam - lam_min_unshifted
    x0 = np.zeros(d)
    x0[0] = math.sqrt(d)
    meta = {"n": n, "d": d, "lam": lam, "s": s, "seed": int(seed)}
    return QuadraticProblem(b=b, x0=x0, sigma=sigma, tri_scale=tri_scale, shift=shift, meta=meta)


def save_quadratic_task(problem: QuadraticProblem, path: str) -> None:
    """Write a generated task to a self-describing JSON file.

    The stored scales and shift reconstruct the exact matrices without
    re-running the generator, and the generation parameters are kept for
    provenance.
    """
    doc = {
        "format": "efsim-quadratic-task",
        "version": 1,
        "params": problem.meta,
        "sigma": problem.sigma,
        "tri_scale": problem.tri_scale.tolist(),
        "b_first": problem.b[:, 0].tolist(),
        "shift": problem.shift,
        "dim": problem.dim,
    }
    with atomic_write(path) as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def _is_real(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)


_REALS = (lambda v: isinstance(v, list) and len(v) > 0 and all(map(_is_real, v)), "a nonempty list of finite numbers")
# task file key -> (check, what its value must be)
_TASK_KEYS = {
    "version": (lambda v: type(v) is int and v == 1, "1"),
    "dim": (lambda v: type(v) is int and v >= 2, "an integer >= 2"),
    "tri_scale": _REALS,
    "b_first": _REALS,
    "shift": (_is_real, "a finite number"),
    "sigma": (lambda v: _is_real(v) and v >= 0, "a finite number >= 0"),
    "params": (lambda v: isinstance(v, dict), "an object"),
}


def load_quadratic_task(path: str, sigma: float | None = None) -> QuadraticProblem:
    """Read a task written by ``save_quadratic_task``; a malformed file
    raises ``ValueError`` naming the file and the key."""
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict) or doc.get("format") != "efsim-quadratic-task":
        raise ValueError(f"{path} is not a quadratic task file (a JSON object with format 'efsim-quadratic-task')")
    unknown = sorted(set(doc) - {"format", *_TASK_KEYS})
    if unknown:
        raise ValueError(f"{path}: unknown keys {unknown}")
    for key, (ok, expected) in _TASK_KEYS.items():
        if key not in doc or not ok(doc[key]):
            got = f"got {doc[key]!r}" if key in doc else "missing"
            raise ValueError(f"{path}: {key}: expected {expected}, {got}")
    d, tri_scale = doc["dim"], np.asarray(doc["tri_scale"], dtype=np.float64)
    n = len(tri_scale)
    if len(doc["b_first"]) != n:
        raise ValueError(f"{path}: b_first: expected {n} entries, one per tri_scale entry, got {len(doc['b_first'])}")
    b = np.zeros((n, d))
    b[:, 0] = np.asarray(doc["b_first"], dtype=np.float64)
    x0 = np.zeros(d)
    x0[0] = math.sqrt(d)
    return QuadraticProblem(
        b=b,
        x0=x0,
        sigma=doc["sigma"] if sigma is None else sigma,
        tri_scale=tri_scale,
        shift=float(doc["shift"]),
        meta=dict(doc["params"]),
    )
