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

from ..core import Sample, add_rows, blocks

__all__ = ["SmoothnessInfo", "Problem"]


@dataclass
class SmoothnessInfo:
    """Gradient-Lipschitz metadata consumed by step-size formulas.

    ``L`` bounds the gradient Lipschitz constant of the mean objective,
    ``L_i`` of each node objective, ``L_tilde`` is the quadratic mean
    sqrt((1/n) sum L_i^2).  ``ell_tilde`` is the analogous quantity for
    single-sample gradients when each realization is itself smooth (needed
    by variance-reduced estimators).  The optimal value f* is not here:
    it is the problem's own ``f_star``.
    """

    L: float
    L_i: np.ndarray
    L_tilde: float
    ell_tilde: float | None = None


class Problem:
    """Oracle bundle; subclasses fill in the oracles.

    Gradients are evaluated over blocks of consecutive node rows.  A
    stochastic gradient splits into a random draw and a deterministic
    evaluation of the block given the draws (``stoch_grads_at``), so the
    same draws can be evaluated at two iterates as recursive variance-reduced
    estimators do.  A problem declares the raw sample each node draws from
    its own stream (``sample``); the engine draws a block's raw samples at
    once or node by node, with the same values, and ``stoch_grads_at`` takes
    them as they are drawn, one row per node.

    ``f_star`` is the optimal value min f, or None where it is not known;
    each problem sets it.
    """

    dim: int
    n_nodes: int
    x0: np.ndarray
    sigma: float
    f_star: float | None

    def full_grads(self, rows: slice, x: np.ndarray) -> np.ndarray:
        """One row grad f_i(x) per node i of the block ``rows``
        (consecutive nodes, ``rows.start`` to ``rows.stop``)."""
        raise NotImplementedError

    def sample(self, batch: int) -> Sample | None:
        """Each node's raw sample for one size-``batch`` stochastic gradient,
        or None when the oracle is exact and draws nothing."""
        raise NotImplementedError

    def stoch_grads_at(self, rows: slice, xs, raw) -> list[np.ndarray]:
        """For each iterate x of ``xs``: one row per node i of the block
        ``rows``, its stochastic gradient at x under its raw sample
        ``raw[i - rows.start]`` (``sample(batch)``'s values, averaged over the
        batch here, once for all iterates); ``raw`` is None if ``sample`` is."""
        raise NotImplementedError

    def value(self, x: np.ndarray) -> float:
        """Global objective f(x) = (1/n) sum_i f_i(x)."""
        raise NotImplementedError

    def smoothness(self) -> SmoothnessInfo:
        """The constants of the theoretical step sizes, which need f* too:
        only problems with a known ``f_star`` define it."""
        raise NotImplementedError

    def value_and_mean_grad(self, x: np.ndarray) -> tuple[float, np.ndarray]:
        """``value(x)`` and the mean gradient (1/n) sum_i grad f_i(x), the
        two oracle calls of a metric row; the gradients are evaluated over
        ``blocks`` of node rows and summed by ``add_rows``."""
        g = np.zeros(self.dim)
        for rows in blocks(self.n_nodes, self.dim):
            add_rows(g, self.full_grads(rows, x))
        return self.value(x), g / self.n_nodes
