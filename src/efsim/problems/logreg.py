"""Multiclass logistic regression with a nonconvex coordinate-wise
regularizer, plus LIBSVM-format ingestion and a synthetic blob generator.

The model keeps one weight block of size l+1 per class (l features plus a
constant-1 bias appended to every example), so the parameter dimension is
d = (l+1) * c.  The node objective is the mean cross-entropy of its
examples plus ``reg * sum_y sum_k w_k^2 / (1 + w_k^2)`` over the weight
coordinates (bias excluded).  Stochastic gradients are mini-batches sampled
with replacement from the node's examples.
"""

from __future__ import annotations

import math

import numpy as np

from ..core import Sample, add_rows, atomic_write
from .base import Problem

__all__ = [
    "LogRegProblem",
    "parse_libsvm",
    "write_libsvm",
    "split_examples",
    "make_blobs",
]


class LogRegProblem(Problem):
    """Multiclass logistic regression over each node's examples.  Its optimal
    value is unknown (``f_star`` is None), so it defines no smoothness
    constants and takes no theoretical step sizes."""

    f_star = None

    def __init__(self, features: list[np.ndarray], labels: list[np.ndarray], classes: int, reg: float = 1e-3):
        """features[i]: (m_i, l) raw node examples; labels[i]: ints in [1, c]."""
        if len(features) != len(labels) or not features:
            raise ValueError("features and labels must be nonempty and aligned")
        self.classes = int(classes)
        self.reg = float(reg)
        self.n_nodes = len(features)
        l = features[0].shape[1]
        self.n_features = l
        self.dim = (l + 1) * self.classes
        features = [np.asarray(feat, dtype=np.float64) for feat in features]
        labels = [np.asarray(lab, dtype=np.int64) for lab in labels]
        for feat, lab in zip(features, labels):
            if feat.ndim != 2 or feat.shape[1] != l:
                raise ValueError("all nodes must share the feature dimension")
            if feat.shape[0] == 0:
                raise ValueError("every node needs at least one example")
            if lab.min() < 1 or lab.max() > self.classes:
                raise ValueError(f"labels must lie in [1, {self.classes}]")
        self.m_i = np.array([feat.shape[0] for feat in features])
        # every node's bias-augmented examples and zero-based labels, stacked in
        # node order, so a block's samples are gathered by one index
        self._start = np.concatenate([[0], np.cumsum(self.m_i)[:-1]])
        self._a_all = np.ones((int(self.m_i.sum()), l + 1))
        np.concatenate(features, out=self._a_all[:, :l])
        self._y_all = np.concatenate(labels) - 1
        self.sigma = 0.0  # data-driven noise; no closed-form bound is claimed
        # start at zero weights: symmetric softmax, loss log(c)
        self.x0 = np.zeros(self.dim)

    # -- objective pieces --------------------------------------------------

    def _weights(self, x: np.ndarray) -> np.ndarray:
        return x.reshape(self.classes, self.n_features + 1)

    def _reg_value(self, x: np.ndarray) -> float:
        w = self._weights(x)[:, : self.n_features]
        return self.reg * float(np.sum(w**2 / (1.0 + w**2)))

    def _reg_grad(self, x: np.ndarray) -> np.ndarray:
        wmat = self._weights(x)
        out = np.zeros_like(wmat)
        w = wmat[:, : self.n_features]
        out[:, : self.n_features] = self.reg * 2.0 * w / (1.0 + w**2) ** 2
        return out.ravel()

    def _softmax_grads(self, x: np.ndarray, a: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The one softmax and cross-entropy gradient formula, over r stacked
        batches of m examples: ``a`` (r, m, l+1), zero-based labels ``y``
        (r, m).

        Returns the softmax probability of each true label, (r, m), and one
        data-gradient row per batch, (r, d), without the regularizer.
        Softmax is stabilized by max subtraction.  Each batch's two products
        are the same BLAS calls as for that batch alone, so a row does not
        depend on what else is stacked with it.
        """
        r, m = y.shape
        if m == 0:
            raise ValueError("empty batch")
        logits = a @ self._weights(x).T  # (r, m, c)
        logits -= logits.max(axis=2, keepdims=True)
        probs = np.exp(logits, out=logits)  # in place: a stack over every node is the largest temporary
        probs /= probs.sum(axis=2, keepdims=True)
        true = (np.arange(r)[:, None], np.arange(m), y)
        p_true = probs[true]
        probs[true] -= 1.0  # the residual, in place
        grads = (probs.transpose(0, 2, 1) @ a) / m  # (r, c, l+1)
        return p_true, grads.reshape(r, self.dim)

    def _full_pass(self, rows: slice, x: np.ndarray) -> tuple[list[np.ndarray], np.ndarray]:
        """``_softmax_grads`` over the full local datasets of nodes ``rows``:
        the nodes' true-label probabilities, one (r, m) array per part, and
        their data-gradient rows.  A part is a maximal run of r consecutive
        nodes that hold m examples each, and one call, on an (r, m, l+1) view
        of the stacked data, whose stacked products are the same BLAS calls
        per node as a call per node."""
        m = self.m_i[rows]
        cuts = [0, *(np.flatnonzero(m[1:] != m[:-1]) + 1), len(m)]
        parts = []
        for lo, hi in zip(cuts[:-1], cuts[1:]):
            start = self._start[rows.start + lo]
            data = slice(start, start + int(m[lo]) * (hi - lo))
            a, y = self._a_all[data].reshape(hi - lo, m[lo], -1), self._y_all[data].reshape(hi - lo, m[lo])
            parts.append(self._softmax_grads(x, a, y))
        grads = parts[0][1] if len(parts) == 1 else np.concatenate([grad for _, grad in parts])
        return [p_true for p_true, _ in parts], grads

    # -- Problem interface -------------------------------------------------

    def full_grads(self, rows: slice, x: np.ndarray) -> np.ndarray:
        return self._full_pass(rows, x)[1] + self._reg_grad(x)

    def sample(self, batch: int) -> Sample:
        """Example indices, sampled with replacement."""
        return Sample(batch, self.m_i)

    def stoch_grads_at(self, rows: slice, xs, raw) -> list[np.ndarray]:
        idx = self._start[rows, None] + np.asarray(raw)  # (r, batch) rows of the stacked data
        a, y = self._a_all[idx], self._y_all[idx]
        return [self._softmax_grads(x, a, y)[1] + self._reg_grad(x) for x in xs]

    def value(self, x: np.ndarray) -> float:
        return self.value_and_mean_grad(x)[0]

    def value_and_mean_grad(self, x: np.ndarray) -> tuple[float, np.ndarray]:
        """One full-data pass over every node serves both quantities.  A
        node's loss is the mean of its examples' -log p_true, taken for a
        part's nodes at once: each row's mean sums the same values in the
        same order as the mean of that row alone."""
        p_true, grads = self._full_pass(slice(0, self.n_nodes), x)
        losses = np.concatenate([-np.log(p + 1e-300).mean(axis=1) for p in p_true])
        g = np.zeros(self.dim)
        add_rows(g, grads + self._reg_grad(x))
        return float(np.mean(losses + self._reg_value(x))), g / self.n_nodes


# -- dataset handling -------------------------------------------------------


def parse_libsvm(path: str, classes: int, n_features: int) -> tuple[np.ndarray, np.ndarray]:
    """Read a LIBSVM text file into dense (X, y) with 1-based labels.

    Lines look like ``label idx:val idx:val ...`` with an integral label,
    strictly ascending 1-based feature indices and finite values.  Malformed
    lines are reported with their line number.
    """
    rows = []
    labels = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            try:
                label_value = float(parts[0])
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: bad label field {parts[0]!r}") from exc
            if not label_value.is_integer():  # also rejects inf and nan
                raise ValueError(f"{path}:{lineno}: label {parts[0]!r} is not an integer")
            label = int(label_value)
            if not 1 <= label <= classes:
                raise ValueError(f"{path}:{lineno}: label {label} outside [1, {classes}]")
            x = np.zeros(n_features)
            prev = 0
            for tok in parts[1:]:
                try:
                    idx_s, val_s = tok.split(":", 1)
                    idx = int(idx_s)
                    val = float(val_s)
                except ValueError as exc:
                    raise ValueError(f"{path}:{lineno}: bad feature token {tok!r}") from exc
                if not 1 <= idx <= n_features:
                    raise ValueError(f"{path}:{lineno}: feature index {idx} outside [1, {n_features}]")
                if idx <= prev:
                    raise ValueError(f"{path}:{lineno}: feature index {idx} is not above the previous index {prev}")
                prev = idx
                if not math.isfinite(val):
                    raise ValueError(f"{path}:{lineno}: feature value {val_s!r} is not finite")
                x[idx - 1] = val
            rows.append(x)
            labels.append(label)
    if not rows:
        raise ValueError(f"{path}: no examples found")
    return np.array(rows), np.array(labels, dtype=np.int64)


def write_libsvm(path: str, features: np.ndarray, labels: np.ndarray) -> None:
    with atomic_write(path) as fh:
        for x, y in zip(features, labels):
            toks = [str(int(y))]
            toks += [f"{j + 1}:{float(v)!r}" for j, v in enumerate(x) if v != 0.0]
            fh.write(" ".join(toks) + "\n")


def split_examples(
    features: np.ndarray, labels: np.ndarray, n_nodes: int, policy: str = "by_label", seed: int = 0
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Partition examples across nodes.

    ``by_label`` sorts examples by label (stable) and hands out contiguous
    chunks, so each node sees a narrow label range (heterogeneous setting).
    ``uniform`` deals a seeded random permutation into equal chunks.
    """
    m = len(labels)
    if n_nodes < 1 or n_nodes > m:
        raise ValueError(f"cannot split {m} examples across {n_nodes} nodes")
    if policy == "by_label":
        order = np.argsort(labels, kind="stable")
    elif policy == "uniform":
        order = np.random.Generator(np.random.Philox(key=seed)).permutation(m)
    else:
        raise ValueError(f"unknown split policy {policy!r}")
    bounds = np.linspace(0, m, n_nodes + 1).astype(int)
    feats, labs = [], []
    for i in range(n_nodes):
        part = order[bounds[i] : bounds[i + 1]]
        feats.append(features[part])
        labs.append(labels[part])
    return feats, labs


def make_blobs(classes: int, n_features: int, examples: int, seed: int = 0, spread: float = 3.0):
    """Balanced Gaussian-blob multiclass data for desk-scale experiments."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    centers = spread * rng.standard_normal((classes, n_features))
    labels = (np.arange(examples) % classes) + 1
    labels = rng.permutation(labels)
    features = centers[labels - 1] + rng.standard_normal((examples, n_features))
    return features, labels
