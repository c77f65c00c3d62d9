"""Host-speed probe: a fixed kernel timed between the program's experiments.

The benchmark runs on a shared host whose speed drifts by 20-30% over
minutes (README.md, "Host-speed reference"), so a raw wall time mostly
measures the neighbours.  The probe is a fixed kernel made of the same kind
of work as efsim's round loop (small numpy operations called from a Python
loop over nodes), written here and never calling efsim, so no change to the
program can move it.  Timed between the program's experiments, it measures
how fast the host is at that moment: the benchmark divides the program's mean
time by the probe's mean time and multiplies by the probe's nominal time,
which gives the program's time at one fixed host speed.

``NOMINAL_S`` is the probe's mean time on the reference hardware (Intel
Xeon, 2 vCPUs, Python 3.11.7, numpy 2.4.6, scipy 1.17.1); it only sets the
scale of the reported seconds.
"""

from __future__ import annotations

import time

import numpy as np


def rounds(rounds: int = 20, n: int = 100, d: int = 1000, k: int = 10) -> float:
    """Error-feedback rounds in plain numpy, shaped like quad_full's: per node
    a tridiagonal quadratic's noisy gradient, a stable-argsort TopK of the
    error and a sparse state update, in a Python loop over the nodes."""
    rng = np.random.default_rng(7)
    diag = 2.0 + np.cos(np.arange(n * d, dtype=float)).reshape(n, d)
    b = np.sin(np.arange(n * d, dtype=float)).reshape(n, d)
    h = np.zeros((n, d))
    x = np.zeros(d)
    for _ in range(rounds):
        for i in range(n):
            g = diag[i] * x
            g[1:] -= 0.5 * x[:-1]
            g[:-1] -= 0.5 * x[1:]
            e = g - b[i] + 0.01 * rng.standard_normal(d) - h[i]
            idx = np.sort(np.argsort(-np.abs(e), kind="stable")[:k])
            h[i, idx] += e[idx]
        x = x - 0.0625 * h.mean(axis=0)
    return float(x.sum())


# the kernel's mean seconds on the reference hardware named above
NOMINAL_S = 0.192

# probe time per second of program time
SHARE = 0.2


def sample(program_s: float) -> list[float]:
    """Run the kernel for ``SHARE`` of ``program_s`` seconds, at least once,
    and return the seconds each run took."""
    times = []
    end = time.perf_counter() + SHARE * program_s
    while not times or time.perf_counter() < end:
        t0 = time.perf_counter()
        rounds()
        times.append(time.perf_counter() - t0)
    return times
