"""Two-dimensional adversarial instance on which greedily compressed
stochastic methods keep a nonvanishing gradient.

The objective is f(x) = (L/2) ||x||^2 on R^2 (every node identical) and the
gradient noise is drawn uniformly from three atoms

    z1 = (2, 0) c,   z2 = (0, 1) c,   z3 = (-2, -1) c,
    c = sqrt(3 sigma^2 / (10 B)),

which have zero mean and E||z||^2 = sigma^2 / B.  The first coordinate
always dominates in magnitude except for z2, so Top1 keeps (2c, 0), (0, c),
(-2c, 0) respectively and E[Top1(z)] = c (0, 1/3): the compressed noise
acquires a systematic downward drift in the second coordinate, which is
what defeats plain compressed stochastic gradient steps started from
x0 = (0, negative).
"""

from __future__ import annotations

import numpy as np

from ..core import Sample
from .base import Problem, SmoothnessInfo

__all__ = ["CounterexampleProblem"]


class CounterexampleProblem(Problem):
    f_star = 0.0

    def __init__(
        self,
        l_smooth: float = 1.0,
        sigma: float = 1.0,
        variance_batch: int = 1,
        n_nodes: int = 1,
        x0=(0.0, -0.01),
    ):
        if not l_smooth > 0:
            raise ValueError(f"l_smooth must be > 0, got {l_smooth}")
        if variance_batch < 1:
            raise ValueError("variance_batch must be >= 1")
        self.dim = 2
        self.l_smooth = float(l_smooth)
        self.sigma = float(sigma)
        self.variance_batch = int(variance_batch)
        self.n_nodes = int(n_nodes)
        self.x0 = np.asarray(x0, dtype=np.float64)
        if self.x0.shape != (2,):
            raise ValueError("x0 must be 2-dimensional")
        scale = np.sqrt(3.0 * self.sigma**2 / (10.0 * self.variance_batch))
        self.atoms = scale * np.array([[2.0, 0.0], [0.0, 1.0], [-2.0, -1.0]])
        self._bounds = np.full(self.n_nodes, len(self.atoms))  # each node draws an atom's index

    def full_grads(self, rows: slice, x: np.ndarray) -> np.ndarray:
        return np.tile(self.l_smooth * x, (rows.stop - rows.start, 1))

    def sample(self, batch: int) -> Sample | None:
        return None if self.sigma == 0.0 else Sample(batch, self._bounds)

    def stoch_grads_at(self, rows: slice, xs, raw) -> list[np.ndarray]:
        """The full gradient plus the noise atom, averaged over the batch."""
        if self.sigma == 0.0:
            return [self.full_grads(rows, x) for x in xs]
        atoms = self.atoms[np.asarray(raw)]
        noise = atoms[:, 0] if atoms.shape[1] == 1 else atoms.mean(axis=1)
        return [self.l_smooth * x + noise for x in xs]

    def value(self, x: np.ndarray) -> float:
        return 0.5 * self.l_smooth * float(x @ x)

    def smoothness(self) -> SmoothnessInfo:
        l_i = np.full(self.n_nodes, self.l_smooth)
        return SmoothnessInfo(
            L=self.l_smooth,
            L_i=l_i,
            L_tilde=self.l_smooth,
            ell_tilde=self.l_smooth,
        )
