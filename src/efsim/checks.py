"""Fixed-seed verification suites behind the ``verify`` subcommand, and
the closed forms they check runs against.

Each suite exercises one family of structural guarantees (compressor
definitions, algorithm reduction identities, the divergence lower bound,
Lyapunov descent, estimator unbiasedness, the closed-form floors of
uncompressed momentum) and returns per-check results
with the measured statistics, so failures are diagnosable from the output.
These are the only implementation of each check: the acceptance tests run
the same suites through ``run_suite``.  The closed forms (``momentum_floor``,
``theorem1_bound``) and the one seed statistic (``_seed_stat``: seed mean,
standard error and z-score) live here too, next to their only users.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import optim
from .compress import (
    Compressor,
    absolute_delta,
    contraction_alpha,
    hard_threshold,
    identity,
    keep_mask,
    rand_k,
    top_k,
)
from .core import StreamFactory, derive_stream, norm_sq
from .harness import RunConfig, power_grid, run_all, sweep
from .optim import HyperParams, theoretical_params
from .problems import CounterexampleProblem, generate_quadratic

__all__ = [
    "CheckResult",
    "SUITES",
    "run_suite",
    "dropped",
    "contraction_ratios",
    "MomentumFloor",
    "momentum_floor",
    "theorem1_bound",
]


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str


def _result(name: str, passed: bool, detail: str) -> CheckResult:
    return CheckResult(name, bool(passed), detail)


def dropped(spec: Compressor, rows: np.ndarray, picks=None) -> np.ndarray:
    """The compression error x - C(x) of each row of ``rows``: the entries
    the operator drops, and +0.0 where it keeps one (``picks`` as for
    ``keep_mask``)."""
    return np.where(keep_mask(spec, rows, picks), 0.0, rows)


def contraction_ratios(spec: Compressor, trials: int, rng: np.random.Generator, resamplings: int = 100) -> np.ndarray:
    """||x - C(x)||^2 / ||x||^2 on ``trials`` Gaussian inputs drawn from ``rng``.

    For RandK each input's ratio is the mean over ``resamplings`` draws of
    its coordinates, drawn after the input, since its contraction bound
    holds in expectation.  For the deterministic TopK the ratio must not
    exceed 1 - k/d on any input.
    """
    if not spec.is_random:
        xs = rng.standard_normal((trials, spec.dim))
        return np.array([norm_sq(err) / norm_sq(x) for x, err in zip(xs, dropped(spec, xs))])
    ratios = np.empty(trials)
    for t in range(trials):
        x = rng.standard_normal(spec.dim)
        picks = [rng.choice(spec.dim, size=spec.k, replace=False) for _ in range(resamplings)]
        acc = 0.0
        for err in dropped(spec, np.tile(x, (resamplings, 1)), picks):
            acc += norm_sq(err)
        ratios[t] = acc / resamplings / norm_sq(x)
    return ratios


# -- closed forms and the seed statistic --------------------------------------


def _seed_stat(samples, ref: float) -> tuple[float, float, float]:
    """The mean of ``samples`` (one per seed), its standard error (ddof = 1,
    and 0 for one sample) and the z-score of the mean against ``ref`` (inf
    when the standard error is 0)."""
    samples = np.asarray(samples, dtype=np.float64)
    mean = float(samples.mean())
    se = float(samples.std(ddof=1) / math.sqrt(len(samples))) if len(samples) > 1 else 0.0
    return mean, se, (mean - ref) / se if se > 0 else math.inf


def theorem1_bound(problem: CounterexampleProblem) -> float:
    """Theorem 1's floor on E ||grad f(x_T)||^2 at every horizon T for the
    exact-gradient EF21-SGD with Top1 on ``problem`` started at x0 = (0, x2),
    x2 < 0, with gamma <= 1/L: (1/60) min(sigma^2/B, ||grad f(x0)||^2)."""
    return min(problem.sigma**2 / problem.variance_batch, norm_sq(problem.l_smooth * problem.x0)) / 60.0


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


# -- the suites ---------------------------------------------------------------


def check_compressors(seed: int = 0) -> list[CheckResult]:
    out = []
    rng = derive_stream(seed, 0, 0)
    ratios = contraction_ratios(top_k(10, 100), 10_000, rng)
    out.append(
        _result(
            "topk(10/100) worst-case ratio <= 0.9",
            ratios.max() <= 0.9,
            f"max={ratios.max():.6f} mean={ratios.mean():.6f}",
        )
    )
    most = float(contraction_ratios(identity(50), 200, rng).max())
    out.append(_result("identity ratio == 0", most == 0.0, f"max={most}"))
    mean = contraction_ratios(rand_k(10, 100), 1000, rng).mean()
    out.append(_result("randk(10/100) mean ratio = 0.9 +- 0.01", abs(mean - 0.9) <= 0.01, f"mean={mean:.6f}"))
    spec = hard_threshold(0.1, 100)
    delta_sq = absolute_delta(spec) ** 2
    worst = 0.0
    for _ in range(10_000):
        x = rng.standard_normal(100) * rng.uniform(0.01, 0.3)
        worst = max(worst, norm_sq(dropped(spec, x[None])[0]))
    out.append(
        _result(
            "hard_threshold error <= Delta^2 (1e4 inputs, scale U(0.01, 0.3))",
            worst <= delta_sq,
            f"worst={worst:.6f} Delta^2={delta_sq:.6f}",
        )
    )
    return out


def _trajectory(kind: str, problem, comp, hp: HyperParams, seed: int) -> np.ndarray:
    streams = StreamFactory(seed)
    server, nodes, _ = optim.init(kind, problem, hp, comp, streams)
    xs = [server.x.copy()]
    for _ in range(hp.rounds):
        optim.run_round(kind, server, nodes, problem, hp, comp, streams)
        xs.append(server.x.copy())
    return np.array(xs)


def check_reductions(seed: int = 0) -> list[CheckResult]:
    out = []
    problem = generate_quadratic(4, 20, 0.1, 1.0, seed=3, sigma=0.1)
    comp = top_k(3, 20)
    hp = HyperParams(gamma=0.05, eta=1.0, batch=2, b_init=2, rounds=100)

    pairs = [
        ("ef21_sgdm(eta=1) == ef21_sgd", optim.EF21_SGDM, optim.EF21_SGD, comp),
        ("ef21_sgd2m(eta=1) == ef21_sgd", optim.EF21_SGD2M, optim.EF21_SGD, comp),
        ("ef21_sgdm_ideal(eta=1) == ef21_sgd_ideal", optim.EF21_SGDM_IDEAL, optim.EF21_SGD_IDEAL, comp),
        ("sgdm(eta=1) == sgd", optim.SGDM, optim.SGD, identity(20)),
    ]
    for name, a, b, c in pairs:
        xa = _trajectory(a, problem, c, hp, seed)
        xb = _trajectory(b, problem, c, hp, seed)
        same = np.array_equal(xa, xb)
        out.append(_result(name, same, "bitwise" if same else f"max diff {np.abs(xa - xb).max():.3e}"))

    # noiseless identity-compressor collapse to one gradient-descent path
    problem0 = generate_quadratic(4, 20, 0.1, 1.0, seed=3, sigma=0.0)
    ident = identity(20)
    hp0 = HyperParams(gamma=0.05, eta=1.0, batch=1, b_init=1, rounds=100)
    trajs = {
        kind: _trajectory(kind, problem0, ident, replace(hp0, eta=1.0 if kind != optim.EF21_STORM else 0.7), seed)
        for kind in (optim.EF21_SGDM, optim.EF21_SGD, optim.EF21_STORM, optim.SGD)
    }
    ref = trajs[optim.SGD]
    same = all(np.array_equal(ref, tr) for tr in trajs.values())
    out.append(_result("sigma=0 + identity collapses to one trajectory", same, "bitwise" if same else "mismatch"))
    x = problem0.x0.copy()
    gd = [x.copy()]
    for _ in range(hp0.rounds):
        x = x - hp0.gamma * problem0.value_and_mean_grad(x)[1]
        gd.append(x.copy())
    gd = np.array(gd)
    out.append(
        _result(
            "collapsed trajectory is gradient descent (rtol 1e-12, atol 1e-14)",
            np.allclose(gd, ref, rtol=1e-12, atol=1e-14),
            f"max abs diff {np.abs(gd - ref).max():.3e}",
        )
    )

    # error-feedback virtual iterate xtil = x - g - mean(e): a round moves it by
    # -gamma times the mean of its sample gradients, redrawn here at the new iterate
    hp14 = HyperParams(gamma=0.05, rounds=150)
    streams = StreamFactory(seed)
    server, nodes, _ = optim.init(optim.EF14_SGD, problem, hp14, comp, streams)
    all_nodes = slice(0, problem.n_nodes)
    worst = 0.0
    for t in range(hp14.rounds):
        xtil = server.x - server.g - nodes.e.mean(axis=0)
        optim.run_round(optim.EF14_SGD, server, nodes, problem, hp14, comp, streams)
        raw = np.array([problem.sample(1).draw(derive_stream(seed, i, t + 1), i) for i in range(problem.n_nodes)])
        expect = xtil - hp14.gamma * problem.stoch_grads_at(all_nodes, (server.x,), raw)[0].mean(axis=0)
        err = server.x - server.g - nodes.e.mean(axis=0) - expect
        rel = math.sqrt(norm_sq(err)) / (1.0 + math.sqrt(norm_sq(expect)))
        worst = max(worst, rel)
    out.append(_result("ef14 virtual-iterate identity <= 1e-10", worst <= 1e-10, f"worst rel err {worst:.3e}"))
    return out


def check_theorem1(seed: int = 0) -> list[CheckResult]:
    """The divergence lower bound (``theorem1_bound``) on the default
    counterexample (L = sigma = B = n = 1, x0 = (0, -0.01)) at gamma = 1e-3
    and T = 100, 1000 and 10^4: the mean of ||grad f(x_T)||^2 over 50 seeds
    exceeds the bound by at least 3 standard errors.  Each seed runs once to
    T = 10^4, and its metric rows every 100 rounds give the three horizons."""
    problem = CounterexampleProblem()
    horizons, every = (100, 1000, 10_000), 100
    hp = HyperParams(gamma=1e-3, rounds=horizons[-1])
    cfg = RunConfig(optim.EF21_SGD_IDEAL, problem, top_k(1, 2), hp, tuple(range(seed, seed + 50)), every)
    (traces,) = run_all([cfg])
    rhs = theorem1_bound(problem)
    out = []
    for rounds in horizons:
        lhs, stderr, margin = _seed_stat([tr.records[rounds // every].grad_norm ** 2 for tr in traces], rhs)
        out.append(
            _result(
                f"lower bound holds by 3 SE at T={rounds}",
                lhs - 3.0 * stderr >= rhs,
                f"lhs={lhs:.4e} rhs={rhs:.4e} stderr={stderr:.2e} margin={margin:.0f} SE",
            )
        )
    return out


def check_lyapunov(seed: int = 0) -> list[CheckResult]:
    """Descent of the Lyapunov diagnostic of EF21-SGDM over 1000 rounds at
    its theoretical step sizes: never upward without noise, and at most 5%
    upward steps of the 20-seed average at sigma = 0.01; both end below
    their start."""
    comp = top_k(5, 100)
    out = []
    for sigma, seeds, max_up in ((0.0, (seed,), 0.0), (0.01, tuple(range(seed, seed + 20)), 0.05)):
        name = f"descent diagnostic, sigma={sigma}, mean of {len(seeds)} seed(s): <= {max_up:.0%} upward, end < start"
        problem = generate_quadratic(20, 100, 0.01, 1.0, seed=0, sigma=sigma)
        delta0 = problem.value(problem.x0) - problem.f_star
        hp = theoretical_params(optim.EF21_SGDM, problem.smoothness(), contraction_alpha(comp), sigma, 20, 1000, delta0)
        cfg = RunConfig(optim.EF21_SGDM, problem, comp, hp, seeds, metric_every=10, lyapunov=True, lyapunov_every=10)
        (traces,) = run_all([cfg])
        failed = [tr.seed for tr in traces if tr.failure_round is not None]
        if failed:
            out.append(_result(name, False, f"non-finite at seeds {failed}"))
            continue
        lam = np.mean([tr.column("lyapunov") for tr in traces], axis=0)
        lam = lam[~np.isnan(lam)]
        up = float(np.mean(np.diff(lam) > 0))
        out.append(
            _result(
                name,
                up <= max_up and lam[-1] < lam[0],
                f"{up:.1%} upward over {len(lam)} logged values, start {lam[0]:.4g} -> end {lam[-1]:.4g}",
            )
        )
    return out


def check_storm(seed: int = 0) -> list[CheckResult]:
    problem = generate_quadratic(1, 5, 0.1, 0.0, seed=2, sigma=0.5)
    rng = derive_stream(seed, 0, 1)
    x_old = rng.standard_normal(5)
    x_new = x_old - 0.1 * rng.standard_normal(5)
    node = slice(0, 1)
    full_new, full_old = (problem.full_grads(node, x)[0] for x in (x_new, x_old))
    w_old = full_old + 0.3 * rng.standard_normal(5)
    eta = 0.3
    draws = 10_000
    samples = np.empty((draws, 5))
    for j in range(draws):
        raw = problem.sample(1).draw(derive_stream(seed, 1, j), 0)[None]  # at both iterates
        sg_new, sg_old = (g[0] for g in problem.stoch_grads_at(node, (x_new, x_old), raw))
        samples[j] = sg_new + (1.0 - eta) * (w_old - sg_old)
    expected = full_new + (1.0 - eta) * (w_old - full_old)
    se = samples.std(axis=0, ddof=1) / math.sqrt(draws)
    dev = np.abs(samples.mean(axis=0) - expected)
    ok = bool(np.all(dev <= 4.0 * se))
    return [
        _result(
            "one-step estimator mean matches conditional expectation (4 SE)",
            ok,
            f"max |dev|/se = {(dev / se).max():.2f}",
        )
    ]


def _vs_floor(cfg: RunConfig, samples: np.ndarray, label: str) -> tuple[float, str]:
    """The z-score, and its report text, of the seed mean of ``samples``
    (final ``|grad|^2`` or ``gap``, as ``label`` says) against the closed
    form (``momentum_floor``) of the uncompressed counterpart of ``cfg``, a
    run with batch = b_init = 1 on the counterexample or a generated
    quadratic: sgdm at the same step size and momentum (eta = 1 is sgd)."""
    problem, hp = cfg.problem, cfg.hyper
    if isinstance(problem, CounterexampleProblem):
        hessian = problem.l_smooth * np.eye(2)
        noise = problem.atoms.T @ problem.atoms / 3.0  # the three atoms are equally likely and sum to zero
        offset = problem.x0
    else:
        hessian = np.column_stack([problem.mean_matvec(e) for e in np.eye(problem.dim)])
        noise = problem.sigma**2 / problem.dim * np.eye(problem.dim)
        offset = problem.x0 - np.linalg.solve(hessian, problem.b.mean(axis=0))
    floor = momentum_floor(hessian, noise / problem.n_nodes, hp.gamma, hp.eta, rounds=hp.rounds, x0_offset=offset)
    ref = floor.obj_gap if label == "gap" else floor.grad_sq
    mean, se, z = _seed_stat(samples, ref)
    return z, f"{label} seed-mean {mean:.3e} (SE {se:.2e}) vs closed form {ref:.3e}, z = {z:+.1f}"


def check_floors(seed: int = 0) -> list[CheckResult]:
    """Seed means against the closed-form floors of uncompressed momentum,
    within 3 standard errors.  Counterexample (its defaults sigma = 1, x0 =
    (0, -0.01)), Top1, n = 1, 4, 16, seeds seed..seed+9, T = 1e4, gamma =
    1e-3: ef21_sgd (eta = 1) neither converges nor reaches sgd's floor, and
    ef21_sgdm (eta = 1e-3) sits on sgdm's, which falls as n grows.  Quadratic
    n = 20, d = 100, Top5, T = 8000 (both methods send 5 coordinates per node
    and round), step sizes tuned over 2^-8..2^0 on seed ``seed``, final gaps
    on seeds seed..seed+2: ef14_sgd (eta = 1) and ef21_sgdm (eta = 0.1) sit
    on their counterparts' floors at sigma = 0.01; at sigma = 0.001 error
    feedback's compression floor dominates, and momentum's median stays
    below half of it."""
    hp = HyperParams(gamma=1e-3, rounds=10_000)
    seeds = tuple(range(seed, seed + 10))
    cfgs = [
        RunConfig(algo, CounterexampleProblem(n_nodes=n), top_k(1, 2), replace(hp, eta=eta), seeds, hp.rounds)
        for algo, eta in ((optim.EF21_SGD, 1.0), (optim.EF21_SGDM, 1e-3))
        for n in (1, 4, 16)
    ]
    out, medians = [], []
    for cfg, traces in zip(cfgs, run_all(cfgs)):
        finals = np.array([tr.final.grad_norm for tr in traces])
        med, (z, text) = float(np.median(finals)), _vs_floor(cfg, finals**2, "|grad|^2")
        where = f"counterexample n={cfg.problem.n_nodes}: {cfg.algorithm}"
        if cfg.algorithm == optim.EF21_SGDM:
            medians.append(med)
            out.append(_result(f"{where} on the closed form of sgdm (|z| <= 3)", abs(z) <= 3.0, text))
            continue
        out.append(_result(f"{where} does not converge", med >= 0.01, f"median final |grad| = {med:.4f} >= 0.01"))
        if cfg.problem.n_nodes != 4:
            out.append(_result(f"{where} above the closed form of sgd (z > 3)", z > 3.0, text))
    text = "medians n=1/4/16: " + "/".join(f"{m:.4f}" for m in medians)
    falling = medians[0] >= medians[1] >= medians[2]
    out.append(_result("counterexample n=1/4/16: ef21_sgdm medians fall as n grows", falling, text))

    for sigma in (0.01, 0.001):
        problem = generate_quadratic(20, 100, 0.01, 1.0, seed=0, sigma=sigma)
        best = []
        for algo, eta in ((optim.EF14_SGD, 1.0), (optim.EF21_SGDM, 0.1)):
            hp = HyperParams(gamma=1.0, eta=eta, rounds=8000)
            tune = RunConfig(algo, problem, top_k(5, 100), hp, (seed,), metric_every=hp.rounds)
            best.append(replace(sweep(tune, power_grid(-8, 0)).best_config, seeds=tuple(range(seed, seed + 3))))
        rows = {}
        for cfg, traces in zip(best, run_all(best)):
            gaps = np.array([tr.final.obj_gap for tr in traces])
            z, text = _vs_floor(cfg, gaps, "gap")
            text += f" ({'sgd' if cfg.hyper.eta == 1.0 else 'sgdm'} at tuned gamma {cfg.hyper.gamma:.3g})"
            rows[cfg.algorithm] = (cfg.hyper.gamma, float(np.median(gaps)), text)
            if sigma == 0.01:
                name = f"quadratic sigma=0.01: {cfg.algorithm} on the closed form of its counterpart (|z| <= 3)"
                out.append(_result(name, abs(z) <= 3.0, text))
    (g14, m14, t14), (gm, mm, tm) = rows[optim.EF14_SGD], rows[optim.EF21_SGDM]
    text = (
        f"medians: momentum {mm:.3e} (gamma {gm:.3g}) vs error feedback {m14:.3e} (gamma {g14:.3g}), "
        f"ratio {mm / m14:.3f} <= 0.5; ef14_sgd {t14}; ef21_sgdm {tm}"
    )
    name = "quadratic sigma=0.001: momentum floor at most half the error-feedback floor"
    out.append(_result(name, mm / m14 <= 0.5, text))
    return out


SUITES = {
    "compressors": check_compressors,
    "reductions": check_reductions,
    "theorem1": check_theorem1,
    "lyapunov": check_lyapunov,
    "storm": check_storm,
    "floors": check_floors,
}


def run_suite(name: str, seed: int = 0) -> list[CheckResult]:
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    return SUITES[name](seed)
