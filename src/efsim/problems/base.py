"""Common oracle interface for distributed objectives.

Each problem bundles, for ``n`` nodes, the node objectives f_i and their
gradient oracles.  The global objective is f(x) = (1/n) sum_i f_i(x).
Stochastic gradients are unbiased with vector-level variance at most
sigma^2 per node; mini-batches of size B average B independent
single-sample gradients, giving variance sigma^2 / B.

All oracles are read-only after construction, so nodes can be evaluated
concurrently as long as each (node, round) pair uses its own stream.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core import Sample

__all__ = ["SmoothnessInfo", "Problem", "power_iteration_norm"]


@dataclass
class SmoothnessInfo:
    """Gradient-Lipschitz metadata consumed by step-size formulas.

    ``L`` bounds the gradient Lipschitz constant of the mean objective,
    ``L_i`` of each node objective, ``L_tilde`` is the quadratic mean
    sqrt((1/n) sum L_i^2).  ``ell_tilde`` is the analogous quantity for
    single-sample gradients when each realization is itself smooth (needed
    by variance-reduced estimators).
    """

    L: float
    L_i: np.ndarray
    L_tilde: float
    ell_tilde: float | None = None
    f_star: float | None = None


class Problem:
    """Oracle bundle; subclasses fill in the oracles.

    Gradients are evaluated over blocks of consecutive node rows.  A
    stochastic gradient splits into a random draw and a deterministic
    evaluation of the block given the draws (``stoch_grads``), so the same
    draws can be evaluated at two iterates as recursive variance-reduced
    estimators do.  A problem declares the raw sample each node draws from
    its own stream (``sample``) and turns a block of raw samples, one row per
    node, into the block's draws (``draws_of``); the engine draws the raw
    block at once or node by node, with the same values.
    """

    dim: int
    n_nodes: int
    x0: np.ndarray
    sigma: float

    def full_grads(self, rows: slice, x: np.ndarray) -> np.ndarray:
        """One row grad f_i(x) per node i of the block ``rows``
        (consecutive nodes, ``rows.start`` to ``rows.stop``)."""
        raise NotImplementedError

    def sample(self, batch: int) -> Sample | None:
        """Each node's raw sample for one size-``batch`` stochastic gradient,
        or None when the oracle is exact and draws nothing."""
        raise NotImplementedError

    def draws_of(self, raw: np.ndarray):
        """The draws of a block of nodes from their raw samples, one row
        (``sample(batch).count`` values) per node: by default the rows."""
        return raw

    def stoch_grads(self, rows: slice, x: np.ndarray, draws) -> np.ndarray:
        """One row per node of the block ``rows``: its stochastic gradient at
        x under its draw, ``draws[i - rows.start]``."""
        raise NotImplementedError

    def value(self, x: np.ndarray) -> float:
        """Global objective f(x) = (1/n) sum_i f_i(x)."""
        raise NotImplementedError

    def smoothness(self) -> SmoothnessInfo:
        raise NotImplementedError

    @property
    def f_star(self) -> float | None:
        return self.smoothness().f_star

    def mean_full_grad(self, x: np.ndarray) -> np.ndarray:
        """(1/n) sum_i grad f_i(x), summed in ascending node order; the
        gradients are evaluated over the engine's blocks of node rows."""
        from ..optim import _blocks  # optim imports this module

        grads = (gi for rows in _blocks(self.n_nodes, self.dim) for gi in self.full_grads(rows, x))
        g = next(grads).copy()
        for gi in grads:
            g += gi
        return g / self.n_nodes

    def value_and_mean_grad(self, x: np.ndarray) -> tuple[float, np.ndarray]:
        """``value(x)`` and ``mean_full_grad(x)``, the two oracle calls of a
        metric row."""
        return self.value(x), self.mean_full_grad(x)


def power_iteration_norm(
    matvec,
    dim: int,
    tol: float = 1e-8,
    max_iter: int = 20000,
    seed: int = 7,
) -> float:
    """Spectral norm of a symmetric operator given through its matvec.

    Plain power iteration on a seeded random start vector; stops when the
    Rayleigh quotient magnitude changes by less than ``tol`` relatively.
    """
    rng = np.random.Generator(np.random.Philox(key=seed))
    v = rng.standard_normal(dim)
    v /= np.linalg.norm(v)
    lam_prev = 0.0
    for _ in range(max_iter):
        w = matvec(v)
        nw = np.linalg.norm(w)
        if nw == 0.0:
            return 0.0
        v = w / nw
        lam = abs(float(v @ matvec(v)))
        if abs(lam - lam_prev) <= tol * max(1.0, lam):
            return lam
        lam_prev = lam
    return lam_prev
