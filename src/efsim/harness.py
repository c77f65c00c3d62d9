"""Experiment engine: seeded runs, metric traces, quantile aggregation,
descent diagnostics, the lower-bound check, the closed-form floor of
uncompressed momentum, and step-size sweeps.

Metrics (gradient norm of the mean objective, objective gap, optional
Lyapunov value, cumulative transmitted coordinates and per-node samples)
are evaluated with full-gradient oracles and never touch the run's random
streams, so measurement cadence cannot perturb a trajectory: traces logged
every round and every ten rounds agree bitwise at shared rounds.
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass, field, replace

import numpy as np

from . import optim
from .compress import Compressor, contraction_alpha
from .core import NumericFailure, StreamFactory, norm_sq
from .optim import HyperParams, NodeArrays, ServerState, schedule_at
from .problems.base import Problem

__all__ = [
    "RunConfig",
    "MetricsRecord",
    "RunTrace",
    "QuantileTrace",
    "run",
    "run_quantiles",
    "lyapunov",
    "Theorem1Report",
    "theorem1_check",
    "MomentumFloor",
    "momentum_floor",
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

    Uses full-gradient oracles, evaluated over the round engine's blocks of
    node rows; the sums run in ascending node order.  ``gap`` is the metric
    row's ``obj_gap``, so the diagnostic makes no objective call of its own;
    when f* is unknown it is the raw objective value (a shifted version of
    the same quantity).
    """
    if nodes.v is None:
        raise ValueError("algorithm state has no momentum estimator v_i")
    n = problem.n_nodes
    x = server.x
    comp_err = 0.0
    mom_err = 0.0
    mean_dev = np.zeros(problem.dim)
    for rows in optim._blocks(n, problem.dim):
        for err, dev in zip(nodes.g[rows] - nodes.v[rows], nodes.v[rows] - problem.full_grads(rows, x)):
            comp_err += norm_sq(err)
            mom_err += norm_sq(dev)
            mean_dev += dev
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


# -- lower-bound check --------------------------------------------------------


@dataclass
class Theorem1Report:
    lhs: float
    rhs: float
    stderr: float
    passed: bool
    margin_se: float


def theorem1_check(
    l_smooth: float,
    sigma: float,
    gamma: float,
    n: int,
    variance_batch: int,
    rounds: int,
    seeds,
    x0=(0.0, -0.01),
) -> Theorem1Report:
    """Check the divergence lower bound for the idealized compressed method.

    Runs the exact-gradient variant with Top1 on the two-dimensional
    counterexample for each seed and compares the seed-mean of
    ||grad f(x_T)||^2 against (1/60) min(sigma^2/B, ||grad f(x0)||^2).
    """
    from .compress import top_k
    from .problems.counterexample import CounterexampleProblem

    if gamma > 1.0 / l_smooth:
        raise ValueError("step size must satisfy gamma <= 1/L")
    x0 = np.asarray(x0, dtype=np.float64)
    if x0[0] != 0.0 or x0[1] >= 0.0:
        raise ValueError("x0 must be of the form (0, x2) with x2 < 0")
    problem = CounterexampleProblem(l_smooth=l_smooth, sigma=sigma, variance_batch=variance_batch, n_nodes=n, x0=x0)
    cfg = RunConfig(
        algorithm=optim.EF21_SGD_IDEAL,
        problem=problem,
        compressor=top_k(1, 2),
        hyper=HyperParams(gamma=gamma, rounds=rounds, batch=1, b_init=1),
        seeds=tuple(seeds),
        metric_every=max(rounds, 1),
    )
    finals = np.array([run(cfg, s).final.grad_norm ** 2 for s in cfg.seeds])
    lhs = float(finals.mean())
    stderr = float(finals.std(ddof=1) / math.sqrt(len(finals))) if len(finals) > 1 else 0.0
    grad0_sq = norm_sq(l_smooth * x0)
    rhs = min(sigma**2 / variance_batch, grad0_sq) / 60.0
    margin = (lhs - rhs) / stderr if stderr > 0 else math.inf
    return Theorem1Report(lhs=lhs, rhs=rhs, stderr=stderr, passed=lhs >= rhs, margin_se=margin)


# -- closed-form floor of uncompressed momentum --------------------------------


@dataclass
class MomentumFloor:
    grad_sq: float  # E ||grad f(x_T)||^2
    obj_gap: float  # E [f(x_T) - f*]


def momentum_floor(
    hessian, noise_cov, gamma: float, eta: float, rounds: int | None = None, x0_offset=None
) -> MomentumFloor:
    """Expected final error of uncompressed momentum on a quadratic, as
    ``optim`` runs ``sgdm`` (``eta = 1`` is ``sgd``):

        x' = x - gamma v,   v' = (1 - eta) v + eta (H (x' - x*) + xi),

    with xi the node-averaged gradient noise of covariance ``noise_cov``
    (so already divided by n and the batch size).  In the eigenbasis of H
    each mode lam with noise variance s^2 is the linear system
    z' = M z + B xi for z = (x - x*, v),

        M = [[1, -gamma], [eta lam, 1 - eta - eta gamma lam]],   B = [0, eta]^T,

    whose stationary covariance solves P = M P M^T + B B^T s^2 (for
    eta = 1, P_xx = gamma s^2 / (lam (2 - gamma lam))).  Noise correlations
    between modes do not enter either expectation, so the per-mode
    variances suffice.  With ``rounds=None`` the stationary floor is
    returned.  Otherwise the run starts at x0 - x* = ``x0_offset`` (default
    0) with v0 = H (x0 - x*) + xi0, xi0 distributed like xi (``b_init``
    equal to ``batch``), and the expectation at round T adds the noiseless
    mean M^T m0 and the transient covariance M^T (P0 - P) (M^T)^T.
    """
    from scipy.linalg import solve_discrete_lyapunov

    hessian = np.asarray(hessian, dtype=np.float64)
    lams, basis = np.linalg.eigh(hessian)
    mode_var = np.einsum("ij,ik,kj->j", basis, np.asarray(noise_cov, dtype=np.float64), basis)
    offset = np.zeros(len(lams)) if x0_offset is None else basis.T @ np.asarray(x0_offset, dtype=np.float64)
    ex_sq = np.empty(len(lams))
    for j, (lam, s2, y0) in enumerate(zip(lams, mode_var, offset)):
        m = np.array([[1.0, -gamma], [eta * lam, 1.0 - eta - eta * gamma * lam]])
        if np.max(np.abs(np.linalg.eigvals(m))) >= 1.0:
            raise ValueError(f"recursion is unstable at gamma={gamma}, eta={eta} on eigenvalue {lam}")
        p = solve_discrete_lyapunov(m, np.array([[0.0, 0.0], [0.0, eta**2 * s2]]))
        if rounds is None:
            ex_sq[j] = p[0, 0]
            continue
        mt = np.linalg.matrix_power(m, rounds)
        mean = mt @ np.array([y0, lam * y0])
        p0 = np.array([[0.0, 0.0], [0.0, s2]])
        ex_sq[j] = mean[0] ** 2 + (p + mt @ (p0 - p) @ mt.T)[0, 0]
    return MomentumFloor(grad_sq=float(lams**2 @ ex_sq), obj_gap=float(0.5 * lams @ ex_sq))


# -- step-size sweep ----------------------------------------------------------


def power_grid(k_lo: int, k_hi: int) -> list[float]:
    """The tuning grid {2^k : k_lo <= k <= k_hi}."""
    return [2.0**k for k in range(k_lo, k_hi + 1)]


def trace_diverged(trace: RunTrace) -> bool:
    """Sweep notion of divergence: numeric failure, a non-finite metric, or
    the objective growing past 1e6 times its initial magnitude."""
    if trace.failure_round is not None or not trace.records:
        return True
    gaps = trace.column("obj_gap")
    if not np.all(np.isfinite(gaps)) or not np.all(np.isfinite(trace.column("grad_norm"))):
        return True
    limit = 1e6 * max(abs(gaps[0]), 1e-12)
    return bool(np.any(gaps > limit))


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


def sweep(cfg_template: RunConfig, gammas, criterion: str = "final_loss", runner=None) -> SweepResult:
    """Evaluate each step size on fixed seeds and pick the best survivor.

    ``criterion`` is 'final_loss' (mean final objective gap over seeds) or
    'final_grad_norm'.  Grid points where every seed diverges are dropped;
    if nothing survives ``SweepDiverged`` (a RuntimeError) is raised.

    ``runner`` maps the grid's (gamma, seed) pairs, in grid order, to an
    iterable of their traces in the same order; it must run each pair as
    ``run`` would with cfg_template at that gamma.  The default runs them
    one after another in this process.
    """
    if criterion not in ("final_loss", "final_grad_norm"):
        raise ValueError(f"unknown criterion {criterion!r}")
    gammas = list(gammas)
    if not gammas:
        raise ValueError("empty step-size grid")
    col = "obj_gap" if criterion == "final_loss" else "grad_norm"
    pairs = [(gamma, s) for gamma in gammas for s in cfg_template.seeds]
    if runner is None:
        traces = (run(_with_gamma(cfg_template, gamma), s) for gamma, s in pairs)
    else:
        traces = iter(runner(pairs))
    table = []
    best = None
    for gamma in gammas:
        finals = []
        for _ in cfg_template.seeds:
            tr = next(traces)
            if not trace_diverged(tr):
                finals.append(getattr(tr.final, col))
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
    tmp = path + ".tmp"
    with open(tmp, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(TRACE_HEADER)
        for r in trace.records:
            w.writerow([r.t, r.coords_cum, r.samples_cum, _fmt(r.grad_norm), _fmt(r.obj_gap), _fmt(r.lyapunov)])
        if trace.failure_round is not None:
            w.writerow([f"# diverged at round {trace.failure_round}"])
    os.replace(tmp, path)


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
    tmp = path + ".tmp"
    with open(tmp, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for k, t in enumerate(qt.t):
            row = [int(t)]
            for name in QuantileTrace.METRICS:
                row += [_fmt(float(qt.q25[name][k])), _fmt(float(qt.median[name][k])), _fmt(float(qt.q75[name][k]))]
            w.writerow(row)
    os.replace(tmp, path)
