"""Fixed-seed verification suites behind the ``verify`` subcommand.

Each suite exercises one family of structural guarantees (compressor
definitions, algorithm reduction identities, the divergence lower bound,
Lyapunov descent, estimator unbiasedness) and returns per-check results
with the measured statistics, so failures are diagnosable from the output.
These are the only implementation of each check: the acceptance tests run
the same suites through ``run_suite``.
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
    draw_picks,
    hard_threshold,
    identity,
    keep_mask,
    rand_k,
    top_k,
)
from .core import StreamFactory, derive_stream, norm_sq
from .harness import RunConfig, run, theorem1_check
from .optim import HyperParams, theoretical_params
from .problems import generate_quadratic

__all__ = ["CheckResult", "SUITES", "run_suite", "dropped", "contraction_ratios"]


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
        picks = [draw_picks(spec, rng) for _ in range(resamplings)]
        acc = 0.0
        for err in dropped(spec, np.tile(x, (resamplings, 1)), picks):
            acc += norm_sq(err)
        ratios[t] = acc / resamplings / norm_sq(x)
    return ratios


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
        x = x - hp0.gamma * problem0.mean_full_grad(x)
        gd.append(x.copy())
    gd = np.array(gd)
    out.append(
        _result(
            "collapsed trajectory is gradient descent (rtol 1e-12, atol 1e-14)",
            np.allclose(gd, ref, rtol=1e-12, atol=1e-14),
            f"max abs diff {np.abs(gd - ref).max():.3e}",
        )
    )

    # error-feedback virtual iterate: xtil' = xtil - gamma * mean cached sample gradient
    hp14 = HyperParams(gamma=0.05, rounds=150)
    streams = StreamFactory(seed)
    server, nodes, _ = optim.init(optim.EF14_SGD, problem, hp14, comp, streams)
    worst = 0.0
    for _ in range(hp14.rounds):
        cached = nodes.sg_prev.mean(axis=0)
        xtil = server.x - nodes.e.mean(axis=0)
        optim.run_round(optim.EF14_SGD, server, nodes, problem, hp14, comp, streams)
        expect = xtil - hp14.gamma * cached
        rel = math.sqrt(norm_sq(server.x - nodes.e.mean(axis=0) - expect)) / (1.0 + math.sqrt(norm_sq(expect)))
        worst = max(worst, rel)
    out.append(_result("ef14 virtual-iterate identity <= 1e-10", worst <= 1e-10, f"worst rel err {worst:.3e}"))
    return out


def check_theorem1(seed: int = 0) -> list[CheckResult]:
    """The divergence lower bound at three horizons over 50 seeds: the seed
    mean of ||grad f(x_T)||^2 exceeds the bound by at least 3 standard
    errors."""
    out = []
    seeds = [seed + i for i in range(50)]
    for rounds in (100, 1000, 10_000):
        rep = theorem1_check(l_smooth=1.0, sigma=1.0, gamma=1e-3, n=1, variance_batch=1, rounds=rounds, seeds=seeds)
        out.append(
            _result(
                f"lower bound holds by 3 SE at T={rounds}",
                rep.lhs - 3.0 * rep.stderr >= rep.rhs,
                f"lhs={rep.lhs:.4e} rhs={rep.rhs:.4e} stderr={rep.stderr:.2e} margin={rep.margin_se:.0f} SE",
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
        smooth = problem.smoothness()
        delta0 = problem.value(problem.x0) - smooth.f_star
        hp = theoretical_params(optim.EF21_SGDM, smooth, contraction_alpha(comp), sigma, 20, 1000, delta0)
        cfg = RunConfig(optim.EF21_SGDM, problem, comp, hp, seeds, metric_every=10, lyapunov=True, lyapunov_every=10)
        traces = [run(cfg, s) for s in seeds]
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
        sample = [problem.draw(0, derive_stream(seed, 1, j))]  # one draw, evaluated at both iterates
        sg_new, sg_old = (problem.stoch_grads(node, x, sample)[0] for x in (x_new, x_old))
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


SUITES = {
    "compressors": check_compressors,
    "reductions": check_reductions,
    "theorem1": check_theorem1,
    "lyapunov": check_lyapunov,
    "storm": check_storm,
}


def run_suite(name: str, seed: int = 0) -> list[CheckResult]:
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    return SUITES[name](seed)
