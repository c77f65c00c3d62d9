"""Fixed-seed verification suites behind the ``verify`` subcommand.

Each suite exercises one family of structural guarantees (compressor
definitions, algorithm reduction identities, the divergence lower bound,
Lyapunov descent, estimator unbiasedness) and returns per-check results
with the measured statistics, so failures are diagnosable from the output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import optim
from .compress import compress, contraction_alpha, densify, hard_threshold, identity, rand_k, top_k, verify_contractive
from .core import StreamFactory, derive_stream, norm_sq
from .harness import RunConfig, lyapunov, run, theorem1_check
from .optim import HyperParams, theoretical_params
from .problems import CounterexampleProblem, generate_quadratic

__all__ = ["CheckResult", "SUITES", "run_suite"]


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str


def _result(name: str, passed: bool, detail: str) -> CheckResult:
    return CheckResult(name, bool(passed), detail)


def check_compressors(seed: int = 0) -> list[CheckResult]:
    out = []
    rng = derive_stream(seed, 0, 0)
    rep = verify_contractive(top_k(10, 100), trials=10_000, rng=rng)
    out.append(
        _result(
            "topk(10/100) worst-case ratio <= 0.9",
            rep.max_ratio <= 0.9,
            f"max={rep.max_ratio:.6f} mean={rep.mean_ratio:.6f}",
        )
    )
    rep = verify_contractive(identity(50), trials=200, rng=rng)
    out.append(_result("identity ratio == 0", rep.max_ratio == 0.0, f"max={rep.max_ratio}"))
    rep = verify_contractive(rand_k(10, 100), trials=1000, rng=rng)
    out.append(
        _result(
            "randk(10/100) mean ratio = 0.9 +- 0.01",
            abs(rep.mean_ratio - 0.9) <= 0.01,
            f"mean={rep.mean_ratio:.6f}",
        )
    )
    spec = hard_threshold(0.1, 100)
    delta_sq = (0.1**2) * 100
    worst = 0.0
    for _ in range(10_000):
        x = rng.standard_normal(100) * 0.1
        err = x - densify(compress(spec, x, rng))
        worst = max(worst, norm_sq(err))
    out.append(
        _result(
            "hard_threshold error <= Delta^2",
            worst <= delta_sq + 1e-12,
            f"worst={worst:.6f} Delta^2={delta_sq:.6f}",
        )
    )
    return out


def _trajectory(kind: str, problem, comp, hp: HyperParams, seed: int, rounds: int) -> np.ndarray:
    streams = StreamFactory(seed)
    server, nodes, _ = optim.init(kind, problem, hp, comp, streams)
    xs = [server.x.copy()]
    for _ in range(rounds):
        optim.run_round(kind, server, nodes, problem, hp, comp, streams)
        xs.append(server.x.copy())
    return np.array(xs)


def check_reductions(seed: int = 0) -> list[CheckResult]:
    out = []
    rounds = 100
    problem = generate_quadratic(4, 20, 0.1, 1.0, seed=3, sigma=0.1)
    comp = top_k(3, 20)
    hp = HyperParams(gamma=0.05, eta=1.0, batch=2, b_init=2, rounds=rounds)

    pairs = [
        ("ef21_sgdm(eta=1) == ef21_sgd", optim.EF21_SGDM, optim.EF21_SGD, comp),
        ("ef21_sgd2m(eta=1) == ef21_sgd", optim.EF21_SGD2M, optim.EF21_SGD, comp),
        ("ef21_sgdm_ideal(eta=1) == ef21_sgd_ideal", optim.EF21_SGDM_IDEAL, optim.EF21_SGD_IDEAL, comp),
        ("sgdm(eta=1) == sgd", optim.SGDM, optim.SGD, identity(20)),
    ]
    for name, a, b, c in pairs:
        xa = _trajectory(a, problem, c, hp, seed, rounds)
        xb = _trajectory(b, problem, c, hp, seed, rounds)
        same = np.array_equal(xa, xb)
        out.append(_result(name, same, "bitwise" if same else f"max diff {np.abs(xa - xb).max():.3e}"))

    # noiseless identity-compressor collapse to one gradient-descent path
    problem0 = generate_quadratic(4, 20, 0.1, 1.0, seed=3, sigma=0.0)
    ident = identity(20)
    hp0 = HyperParams(gamma=0.05, eta=1.0, batch=1, b_init=1, rounds=rounds)
    trajs = {
        kind: _trajectory(kind, problem0, ident, replace(hp0, eta=1.0 if kind != optim.EF21_STORM else 0.7), seed, rounds)
        for kind in (optim.EF21_SGDM, optim.EF21_SGD, optim.EF21_STORM, optim.SGD)
    }
    ref = trajs[optim.SGD]
    same = all(np.array_equal(ref, tr) for tr in trajs.values())
    out.append(_result("sigma=0 + identity collapses to one trajectory", same, "bitwise" if same else "mismatch"))
    x = problem0.x0.copy()
    gd = [x.copy()]
    for _ in range(rounds):
        x = x - hp0.gamma * problem0.mean_full_grad(x)
        gd.append(x.copy())
    gd = np.array(gd)
    rel = np.abs(gd - ref).max() / (1.0 + np.abs(gd).max())
    out.append(_result("collapsed trajectory is gradient descent", rel <= 1e-12, f"rel diff {rel:.3e}"))

    # error-feedback virtual iterate: xtil' = xtil - gamma * mean cached sample gradient
    out.append(_check_ef14_virtual(seed))
    return out


def _check_ef14_virtual(seed: int = 0, rounds: int = 100) -> CheckResult:
    problem = generate_quadratic(4, 20, 0.1, 1.0, seed=5, sigma=0.1)
    comp = top_k(3, 20)
    hp = HyperParams(gamma=0.05, batch=1, rounds=rounds)
    streams = StreamFactory(seed)
    server, nodes, _ = optim.init(optim.EF14_SGD, problem, hp, comp, streams)
    worst = 0.0
    for _ in range(rounds):
        cached = nodes.sg_prev.mean(axis=0)
        xtil = server.x - nodes.e.mean(axis=0)
        optim.run_round(optim.EF14_SGD, server, nodes, problem, hp, comp, streams)
        xtil_new = server.x - nodes.e.mean(axis=0)
        expect = xtil - hp.gamma * cached
        rel = math.sqrt(norm_sq(xtil_new - expect)) / (1.0 + math.sqrt(norm_sq(expect)))
        worst = max(worst, rel)
    return _result("ef14 virtual-iterate identity <= 1e-10", worst <= 1e-10, f"worst rel err {worst:.3e}")


def check_theorem1(seed: int = 0) -> list[CheckResult]:
    out = []
    seeds = [seed + i for i in range(30)]
    for rounds in (100, 1000, 10_000):
        rep = theorem1_check(l_smooth=1.0, sigma=1.0, gamma=1e-3, n=1, variance_batch=1, rounds=rounds, seeds=seeds)
        out.append(
            _result(
                f"lower bound holds at T={rounds}",
                rep.passed,
                f"lhs={rep.lhs:.4e} rhs={rep.rhs:.4e} stderr={rep.stderr:.2e}",
            )
        )
    return out


def check_lyapunov(seed: int = 0) -> list[CheckResult]:
    problem = generate_quadratic(20, 100, 0.01, 1.0, seed=0, sigma=0.0)
    comp = top_k(5, 100)
    smooth = problem.smoothness()
    delta0 = problem.value(problem.x0) - smooth.f_star
    hp = theoretical_params(optim.EF21_SGDM, smooth, contraction_alpha(comp), 0.0, 20, 400, delta0)
    cfg = RunConfig(
        algorithm=optim.EF21_SGDM,
        problem=problem,
        compressor=comp,
        hyper=hp,
        seeds=(seed,),
        metric_every=10,
        lyapunov=True,
        lyapunov_every=10,
    )
    tr = run(cfg, seed)
    lam = tr.column("lyapunov")
    lam = lam[~np.isnan(lam)]
    increases = int(np.sum(np.diff(lam) > 0))
    return [
        _result(
            "noiseless descent diagnostic nonincreasing",
            increases == 0 and tr.failure_round is None,
            f"{increases} increases over {len(lam)} logged values",
        )
    ]


def check_storm(seed: int = 0) -> list[CheckResult]:
    problem = generate_quadratic(1, 5, 0.1, 0.0, seed=2, sigma=0.5)
    rng = derive_stream(seed, 0, 1)
    x_old = rng.standard_normal(5)
    x_new = x_old - 0.1 * rng.standard_normal(5)
    w_old = problem.full_grad(0, x_old) + 0.3 * rng.standard_normal(5)
    eta = 0.3
    draws = 10_000
    samples = np.empty((draws, 5))
    for j in range(draws):
        sg_new, sg_old = problem.stoch_grad_pair(0, x_new, x_old, derive_stream(seed, 1, j), batch=1)
        samples[j] = sg_new + (1.0 - eta) * (w_old - sg_old)
    expected = problem.full_grad(0, x_new) + (1.0 - eta) * (w_old - problem.full_grad(0, x_old))
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
