"""A quadratic with arbitrary dense node matrices, for hand-built test cases.

``QuadraticProblem`` holds only the generator's tridiagonal-plus-shift
structure.  ``DenseQuadratic`` keeps its noise model and its ``value``, and
evaluates the objective through explicit matrices Q_i: each gradient row is
one ``Q_i @ x`` and f* is a dense solve.  Every operation is the one the
dense quadratic in ``src`` used to make, so the ``dense/*`` golden traces
keep their hashes.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from efsim.problems import QuadraticProblem


class DenseQuadratic(QuadraticProblem):
    """f_i(x) = 0.5 x^T Q_i x - b_i^T x for the matrices ``qmats[i]``."""

    def __init__(self, qmats, bs, x0, sigma: float = 0.0):
        self.dense = np.asarray(qmats, dtype=np.float64)
        super().__init__(b=bs, x0=x0, sigma=sigma, tri_scale=np.zeros(len(self.dense)), shift=0.0)

    def mean_matvec(self, x: np.ndarray) -> np.ndarray:
        return np.mean(self.dense, axis=0) @ x

    def full_grads(self, rows: slice, x: np.ndarray) -> np.ndarray:
        return np.array([q @ x for q in self.dense[rows]]) - self.b[rows]

    def mean_lambda_min(self) -> float:
        return float(np.linalg.eigvalsh(np.mean(self.dense, axis=0)).min())

    def smoothness(self):
        raise NotImplementedError("a dense quadratic takes no theoretical step sizes")

    @cached_property
    def f_star(self) -> float | None:
        if self.mean_lambda_min() <= 0.0:
            return None
        bbar = self.b.mean(axis=0)
        xstar = np.linalg.solve(np.mean(self.dense, axis=0), bbar)
        return 0.5 * float(xstar @ self.mean_matvec(xstar)) - float(bbar @ xstar)
