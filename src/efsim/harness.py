"""Run engine: seeded runs, metric traces, quantile aggregation, the
Lyapunov descent diagnostic, step-size sweeps and trace CSV I/O.  The
closed forms that runs are checked against live in ``checks``.

Metrics (gradient norm of the mean objective, objective gap, optional
Lyapunov value, cumulative transmitted coordinates and per-node samples)
are evaluated with full-gradient oracles and never touch the run's random
streams, so measurement cadence cannot perturb a trajectory: traces logged
every round and every ten rounds agree bitwise at shared rounds.
"""

from __future__ import annotations

import contextlib
import csv
import ctypes
import functools
import glob
import math
import os
from dataclasses import dataclass, field, replace

import numpy as np

from . import optim
from .compress import Compressor, contraction_alpha
from .core import NumericFailure, StreamFactory, add_rows, atomic_write, blocks, norm_sq
from .optim import HyperParams, NodeArrays, ServerState, schedule_at
from .problems.base import Problem

__all__ = [
    "RunConfig",
    "MetricsRecord",
    "RunTrace",
    "QuantileTrace",
    "run",
    "run_all",
    "run_quantiles",
    "lyapunov",
    "SweepResult",
    "SweepDiverged",
    "sweep",
    "power_grid",
    "trace_diverged",
    "write_trace_csv",
    "read_trace_csv",
    "write_quantiles_csv",
]

TRACE_HEADER = ("t", "coords_cum", "samples_cum", "grad_norm", "obj_gap", "lyapunov")


@dataclass
class RunConfig:
    algorithm: str
    problem: Problem
    compressor: Compressor
    hyper: HyperParams
    seeds: tuple[int, ...] = (0,)
    metric_every: int = 1
    lyapunov: bool = False
    lyapunov_every: int = 10  # full metrics are cheap, this one costs n gradient oracles

    def __post_init__(self):
        optim.validate_pairing(self.algorithm, self.compressor)
        if self.metric_every < 1:
            raise ValueError("metric_every must be >= 1")
        if not self.seeds:
            raise ValueError("need at least one seed")
        if self.lyapunov:
            if self.algorithm not in optim.MOMENTUM_KINDS:
                raise ValueError(f"{self.algorithm} keeps no momentum estimator; Lyapunov diagnostic unavailable")
            if contraction_alpha(self.compressor) is None:
                raise ValueError("Lyapunov diagnostic needs a contractive compressor (its weights use alpha)")


@dataclass
class MetricsRecord:
    t: int
    coords_cum: int
    samples_cum: int
    grad_norm: float
    obj_gap: float
    lyapunov: float | None = None


@dataclass
class RunTrace:
    algorithm: str
    seed: int
    records: list[MetricsRecord] = field(default_factory=list)
    failure_round: int | None = None

    def column(self, name: str) -> np.ndarray:
        vals = [getattr(r, name) for r in self.records]
        return np.array([np.nan if v is None else v for v in vals], dtype=np.float64)

    @property
    def final(self) -> MetricsRecord:
        return self.records[-1]


def lyapunov(
    problem: Problem,
    server: ServerState,
    nodes: NodeArrays,
    gamma: float,
    eta: float,
    alpha: float,
    gap: float,
) -> float:
    """Descent diagnostic: the objective gap ``gap`` at the server iterate
    plus weighted compression-error and momentum-error terms,

        gap + (gamma/(alpha n)) sum_i ||g_i - v_i||^2
            + (gamma eta/(alpha^2 n)) sum_i ||v_i - grad f_i(x)||^2
            + (gamma/eta) ||(1/n) sum_i (v_i - grad f_i(x))||^2.

    Uses full-gradient oracles, evaluated over ``blocks`` of node rows; the
    sums run in ascending node order.  ``gap`` is the metric row's
    ``obj_gap``, so the diagnostic makes no objective call of its own; when
    f* is unknown it is the raw objective value (a shifted version of the
    same quantity).
    """
    if nodes.v is None:
        raise ValueError("algorithm state has no momentum estimator v_i")
    n = problem.n_nodes
    x = server.x
    comp_err = 0.0
    mom_err = 0.0
    mean_dev = np.zeros(problem.dim)
    for rows in blocks(n, problem.dim):
        devs = nodes.v[rows] - problem.full_grads(rows, x)
        for err, dev in zip(nodes.g[rows] - nodes.v[rows], devs):
            comp_err += norm_sq(err)
            mom_err += norm_sq(dev)
        add_rows(mean_dev, devs)
    mean_dev /= n
    return (
        gap
        + gamma / (alpha * n) * comp_err
        + gamma * eta / (alpha**2 * n) * mom_err
        + gamma / eta * norm_sq(mean_dev)
    )


def _measure(cfg: RunConfig, server, nodes, coords_cum, samples_cum, want_lyap) -> MetricsRecord:
    problem = cfg.problem
    # near-divergent iterates overflow benignly; non-finite rows are handled
    # by truncation, so silence numpy here
    with np.errstate(over="ignore", invalid="ignore"):
        value, mean_grad = problem.value_and_mean_grad(server.x)
        grad_norm = math.sqrt(norm_sq(mean_grad))
        f_star = problem.f_star
        obj_gap = value - f_star if f_star is not None else value
        lam = None
        if want_lyap:
            gamma_t, eta_t = schedule_at(cfg.hyper, server.t)
            alpha = contraction_alpha(cfg.compressor)
            lam = lyapunov(problem, server, nodes, gamma_t, eta_t, alpha, obj_gap)
    return MetricsRecord(server.t, coords_cum, samples_cum, grad_norm, obj_gap, lam)


def run(cfg: RunConfig, seed: int) -> RunTrace:
    """One seeded run of cfg.hyper.rounds rounds.

    Metrics are logged at round 0, every ``metric_every`` rounds, and at the
    final round.  The Lyapunov value additionally respects its own cadence.
    On numeric failure the trace is truncated at the offending round and
    the failure is recorded instead of raising.
    """
    problem = cfg.problem
    streams = StreamFactory(seed)
    trace = RunTrace(algorithm=cfg.algorithm, seed=seed)
    server, nodes, init_log = optim.init(cfg.algorithm, problem, cfg.hyper, cfg.compressor, streams)
    coords_cum = init_log.coords_sent
    samples_cum = init_log.grad_evals
    rounds = cfg.hyper.rounds

    def want_lyap(t: int) -> bool:
        return cfg.lyapunov and (t % cfg.lyapunov_every == 0 or t == rounds)

    def log_row(t: int) -> bool:
        rec = _measure(cfg, server, nodes, coords_cum, samples_cum, want_lyap(t))
        if not _record_finite(rec):
            trace.failure_round = t
            return False
        trace.records.append(rec)
        return True

    if not log_row(0):
        return trace
    for _ in range(rounds):
        try:
            rlog = optim.run_round(cfg.algorithm, server, nodes, problem, cfg.hyper, cfg.compressor, streams)
        except NumericFailure as exc:
            trace.failure_round = exc.round_index
            return trace
        coords_cum += rlog.coords_sent
        samples_cum += rlog.grad_evals
        if server.t % cfg.metric_every == 0 or server.t == rounds:
            if not log_row(server.t):
                return trace
    return trace


@functools.cache
def _blas_threads():
    """The thread count of numpy's bundled OpenBLAS, its ``blas_cpu_number``,
    or None where that library or symbol is missing."""
    for path in glob.glob(os.path.join(os.path.dirname(np.__file__) + ".libs", "libscipy_openblas64_*.so")):
        with contextlib.suppress(ValueError):
            return ctypes.c_int.in_dll(ctypes.CDLL(path), "blas_cpu_number")
    return None


def _run_on_one_blas_thread(cfg: RunConfig, seed: int) -> RunTrace:
    """``run(cfg, seed)`` with OpenBLAS on one thread, then its count as it
    was.  A product's bits can depend on the thread count, so every run uses
    one, serial or pooled, whatever the host's cores.  The count is written
    directly: in a forked worker the library's setter first restarts the
    thread server that the fork stopped, which then spins on a core."""
    threads = _blas_threads()
    if threads is None:
        return run(cfg, seed)
    previous, threads.value = threads.value, 1
    try:
        return run(cfg, seed)
    finally:
        threads.value = previous


def run_all(cfgs, pool=None) -> list[list[RunTrace]]:
    """The traces of ``run(cfg, seed)``, each on one BLAS thread, one list per
    config of ``cfgs`` in the order of its own ``seeds``: run in this process
    without a pool, else through ``pool.map``, which submits every run at
    once, one task per run."""
    jobs = [(cfg, seed) for cfg in cfgs for seed in cfg.seeds]
    runs = [cfg for cfg, _ in jobs], [seed for _, seed in jobs]
    traces = iter((map if pool is None else pool.map)(_run_on_one_blas_thread, *runs))
    return [[next(traces) for _ in cfg.seeds] for cfg in cfgs]


def _record_finite(rec: MetricsRecord) -> bool:
    vals = [rec.grad_norm, rec.obj_gap]
    if rec.lyapunov is not None:
        vals.append(rec.lyapunov)
    return all(math.isfinite(v) for v in vals)


@dataclass
class QuantileTrace:
    """Pointwise quartiles of each metric across the seeds of one config."""

    t: np.ndarray
    q25: dict[str, np.ndarray]
    median: dict[str, np.ndarray]
    q75: dict[str, np.ndarray]
    traces: list[RunTrace]

    METRICS = ("coords_cum", "samples_cum", "grad_norm", "obj_gap", "lyapunov")


def run_quantiles(traces: list[RunTrace]) -> QuantileTrace:
    """Median and quartile bands across the seeds' traces (pointwise per round).

    Runs that failed midway are excluded from aggregation; if every seed
    failed the quantiles are over the (possibly empty) common prefix of all
    traces.  A single seed yields bands equal to its own trace.
    """
    complete = [tr for tr in traces if tr.failure_round is None]
    pool = complete if complete else traces
    min_rows = min(len(tr.records) for tr in pool)
    t_grid = np.array([r.t for r in pool[0].records[:min_rows]])
    q25, med, q75 = {}, {}, {}
    for name in QuantileTrace.METRICS:
        data = np.stack([tr.column(name)[:min_rows] for tr in pool])
        q25[name] = np.quantile(data, 0.25, axis=0)
        med[name] = np.quantile(data, 0.5, axis=0)
        q75[name] = np.quantile(data, 0.75, axis=0)
    return QuantileTrace(t=t_grid, q25=q25, median=med, q75=q75, traces=traces)


# -- step-size sweep ----------------------------------------------------------


def power_grid(k_lo: int, k_hi: int) -> list[float]:
    """The tuning grid {2^k : k_lo <= k <= k_hi}."""
    return [2.0**k for k in range(k_lo, k_hi + 1)]


def trace_diverged(trace: RunTrace) -> bool:
    """Sweep notion of divergence: numeric failure (a non-finite metric ends
    a run as one), or the objective growing past 1e6 times its initial
    magnitude."""
    if trace.failure_round is not None:
        return True
    gaps = trace.column("obj_gap")
    return bool(np.any(gaps > 1e6 * max(abs(gaps[0]), 1e-12)))


@dataclass
class SweepResult:
    best_gamma: float
    best_score: float
    best_config: RunConfig
    table: list[dict]  # one row per grid point: gamma, score, diverged


class SweepDiverged(RuntimeError):
    """Every point of a step-size grid diverged."""


def _with_gamma(cfg: RunConfig, gamma: float) -> RunConfig:
    return replace(cfg, hyper=replace(cfg.hyper, gamma=gamma))


def sweep(cfg_template: RunConfig, gammas, criterion: str = "final_loss", pool=None) -> SweepResult:
    """Evaluate each step size on fixed seeds and pick the best survivor.

    ``criterion`` is 'final_loss' (mean final objective gap over seeds) or
    'final_grad_norm'.  Grid points where every seed diverges are dropped;
    if nothing survives ``SweepDiverged`` (a RuntimeError) is raised.  The
    (gamma, seed) runs go through ``run_all`` with ``pool``.
    """
    if criterion not in ("final_loss", "final_grad_norm"):
        raise ValueError(f"unknown criterion {criterion!r}")
    gammas = list(gammas)
    if not gammas:
        raise ValueError("empty step-size grid")
    col = "obj_gap" if criterion == "final_loss" else "grad_norm"
    traces = run_all([_with_gamma(cfg_template, gamma) for gamma in gammas], pool)
    table = []
    best = None
    for gamma, runs in zip(gammas, traces):
        finals = [getattr(tr.final, col) for tr in runs if not trace_diverged(tr)]
        diverged = len(finals) == 0
        score = float(np.mean(finals)) if finals else math.inf
        table.append({"gamma": gamma, "score": score, "diverged": diverged})
        if not diverged and (best is None or score < best[1]):
            best = (gamma, score)
    if best is None:
        raise SweepDiverged(f"{cfg_template.algorithm}: all grid points diverged")
    return SweepResult(
        best_gamma=best[0], best_score=best[1], best_config=_with_gamma(cfg_template, best[0]), table=table
    )


# -- CSV I/O ------------------------------------------------------------------


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return repr(v)
    return str(v)


def write_trace_csv(path: str, trace: RunTrace) -> None:
    """Write one run's rows; floats use repr so re-parsing is bitwise."""
    with atomic_write(path, newline="") as fh:
        w = csv.writer(fh)
        w.writerow(TRACE_HEADER)
        for r in trace.records:
            w.writerow([r.t, r.coords_cum, r.samples_cum, _fmt(r.grad_norm), _fmt(r.obj_gap), _fmt(r.lyapunov)])
        if trace.failure_round is not None:
            w.writerow([f"# diverged at round {trace.failure_round}"])


def read_trace_csv(path: str, algorithm: str = "", seed: int = -1) -> RunTrace:
    trace = RunTrace(algorithm=algorithm, seed=seed)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or tuple(rows[0]) != TRACE_HEADER:
        raise ValueError(f"{path}: unexpected trace header")
    for row in rows[1:]:
        if row and row[0].startswith("# diverged at round "):
            trace.failure_round = int(row[0].rsplit(" ", 1)[1])
            continue
        trace.records.append(
            MetricsRecord(
                t=int(row[0]),
                coords_cum=int(row[1]),
                samples_cum=int(row[2]),
                grad_norm=float(row[3]),
                obj_gap=float(row[4]),
                lyapunov=float(row[5]) if row[5] else None,
            )
        )
    return trace


def write_quantiles_csv(path: str, qt: QuantileTrace) -> None:
    header = ["t"]
    for name in QuantileTrace.METRICS:
        header += [f"{name}_q25", f"{name}_med", f"{name}_q75"]
    with atomic_write(path, newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for k, t in enumerate(qt.t):
            row = [int(t)]
            for name in QuantileTrace.METRICS:
                row += [_fmt(float(qt.q25[name][k])), _fmt(float(qt.median[name][k])), _fmt(float(qt.q75[name][k]))]
            w.writerow(row)
