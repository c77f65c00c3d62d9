"""Acceptance suite: one test per shipped guarantee, each printing a
[PASS]/[FAIL] line with the measured statistics.

The floor checks (2, 3, 7) judge seed means against the closed-form
expected final error of the uncompressed counterpart (``momentum_floor``)
within 3 standard errors, and print the closed form, the measured mean, its
standard error and the z-score.

Run with ``pytest tests/test_acceptance.py -v -s``.  The divergence study
(checks 2 and 3) takes about 1.5 minutes and the step-size-tuned quadratic
comparison (check 7, two noise levels) about 5 minutes on a 2-CPU machine;
the rest of the module takes under a minute.
"""

import json
import math
import os
from dataclasses import replace

import numpy as np
import pytest

from efsim import optim
from efsim.compress import compress, densify, hard_threshold, identity, rand_k, top_k, verify_contractive
from efsim.core import StreamFactory, derive_stream, norm_sq
from efsim.experiments import run_experiment
from efsim.harness import RunConfig, momentum_floor, power_grid, run, sweep, theorem1_check
from efsim.optim import HyperParams, theoretical_params
from efsim.problems import CounterexampleProblem, generate_quadratic


def report(name: str, ok: bool, detail: str) -> bool:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    return ok


# ---------------------------------------------------------------------------
# 1. lower bound for the idealized compressed method on the adversarial
#    two-dimensional instance
# ---------------------------------------------------------------------------


def test_01_lower_bound_on_counterexample():
    rep = theorem1_check(
        l_smooth=1.0, sigma=1.0, gamma=1e-3, n=1, variance_batch=1, rounds=10_000, seeds=range(50), x0=(0.0, -0.01)
    )
    ok = rep.lhs - 3.0 * rep.stderr >= rep.rhs
    assert report(
        "lower bound",
        ok,
        f"mean |grad|^2 = {rep.lhs:.4e} (stderr {rep.stderr:.2e}) >= {rep.rhs:.4e} with "
        f"{rep.margin_se:.0f} standard errors of margin",
    )


# ---------------------------------------------------------------------------
# 2./3. divergence of the compressed stochastic method, stability of its
#       momentum variant, and the node-count sweep
# ---------------------------------------------------------------------------


DIVERGENCE_HP = HyperParams(gamma=1e-3, eta=1e-3, batch=1, b_init=1, rounds=10_000)
DIVERGENCE_ETAS = {"ef21_sgd": 1.0, "ef21_sgdm": 1e-3}


def _divergence_problem(n):
    return CounterexampleProblem(l_smooth=1.0, sigma=1.0, variance_batch=1, n_nodes=n, x0=(0.0, -0.01))


def _closed_form(prob, gamma, eta, rounds):
    """momentum_floor of the uncompressed counterpart (sgdm; eta = 1 is sgd)
    on a counterexample or generated quadratic run with batch = b_init = 1."""
    if isinstance(prob, CounterexampleProblem):
        hessian = prob.l_smooth * np.eye(2)
        noise = prob.atoms.T @ prob.atoms / 3.0  # the three atoms are equally likely and sum to zero
        offset = prob.x0
    else:
        hessian = np.column_stack([prob.mean_matvec(e) for e in np.eye(prob.dim)])
        noise = prob.sigma**2 / prob.dim * np.eye(prob.dim)
        offset = prob.x0 - np.linalg.solve(hessian, prob.b.mean(axis=0))
    return momentum_floor(hessian, noise / prob.n_nodes, gamma, eta, rounds=rounds, x0_offset=offset)


def _vs_closed_form(label, samples, ref):
    """(z-score of the seed mean against ref, report text)."""
    mean = float(np.mean(samples))
    se = float(np.std(samples, ddof=1) / math.sqrt(len(samples)))
    z = (mean - ref) / se
    return z, f"{label} seed-mean {mean:.3e} (SE {se:.2e}) vs closed form {ref:.3e}, z = {z:+.1f}"


@pytest.fixture(scope="module")
def divergence_finals():
    """Per-seed final gradient norms, 10 seeds, T = 1e4, gamma = eta = 1e-3."""
    out = {}
    for algo, eta in DIVERGENCE_ETAS.items():
        for n in (1, 4, 16):
            cfg = RunConfig(
                algorithm=algo,
                problem=_divergence_problem(n),
                compressor=top_k(1, 2),
                hyper=replace(DIVERGENCE_HP, eta=eta),
                seeds=tuple(range(10)),
                metric_every=10_000,
            )
            out[(algo, n)] = np.array([run(cfg, s).final.grad_norm for s in cfg.seeds])
    return out


def _divergence_z(finals, algo, n):
    """z-score and report text of algo's seed-mean |grad f(x_T)|^2 at n nodes
    against the closed form of its uncompressed counterpart (same eta)."""
    hp = DIVERGENCE_HP
    ref = _closed_form(_divergence_problem(n), hp.gamma, DIVERGENCE_ETAS[algo], hp.rounds).grad_sq
    return _vs_closed_form("|grad|^2", finals[(algo, n)] ** 2, ref)


def test_02_divergence_vs_momentum_stability(divergence_finals):
    grad0 = 0.01
    med_sgd = float(np.median(divergence_finals[("ef21_sgd", 1)]))
    ok_sgd = med_sgd >= grad0
    report("no convergence without momentum", ok_sgd, f"median final |grad| = {med_sgd:.4f} >= {grad0}")
    z_sgdm, text_sgdm = _divergence_z(divergence_finals, "ef21_sgdm", 1)
    ok_sgdm = abs(z_sgdm) <= 3.0
    report("momentum variant sits on uncompressed momentum's floor (|z| <= 3)", ok_sgdm, text_sgdm)
    z_above, text_above = _divergence_z(divergence_finals, "ef21_sgd", 1)
    ok_above = z_above > 3.0
    report("no-momentum variant stays above uncompressed sgd's floor (z > 3)", ok_above, text_above)
    assert ok_sgd, f"compressed stochastic method converged unexpectedly: {med_sgd:.4f} < {grad0}"
    assert ok_sgdm, f"momentum variant off the closed form of uncompressed momentum: {text_sgdm}"
    assert ok_above, f"no-momentum variant not above the closed form of uncompressed sgd: {text_above}"


def test_03_node_scaling(divergence_finals):
    sgd = {n: float(np.median(divergence_finals[("ef21_sgd", n)])) for n in (1, 4, 16)}
    sgdm = {n: float(np.median(divergence_finals[("ef21_sgdm", n)])) for n in (1, 4, 16)}
    ok_sgdm = sgdm[1] >= sgdm[4] >= sgdm[16]
    report(
        "momentum variant improves monotonically with nodes",
        ok_sgdm,
        f"medians n=1/4/16: {sgdm[1]:.4f}/{sgdm[4]:.4f}/{sgdm[16]:.4f}",
    )
    off_floor = []
    for n in (1, 4, 16):
        z, text = _divergence_z(divergence_finals, "ef21_sgdm", n)
        report(f"momentum variant on the sigma^2/n floor at n={n} (|z| <= 3)", abs(z) <= 3.0, text)
        if abs(z) > 3.0:
            off_floor.append(f"n={n}: {text}")
    grad0 = 0.01
    ok_sgd = min(sgd.values()) >= grad0
    report(
        "no convergence without momentum at any node count",
        ok_sgd,
        f"medians n=1/4/16: {sgd[1]:.4f}/{sgd[4]:.4f}/{sgd[16]:.4f} >= {grad0}",
    )
    z_above, text_above = _divergence_z(divergence_finals, "ef21_sgd", 16)
    ok_above = z_above > 3.0
    report("no-momentum variant above sgd's averaging floor at n=16 (z > 3)", ok_above, text_above)
    assert ok_sgdm, f"momentum medians not monotone: {sgdm}"
    assert not off_floor, "momentum variant off the closed form of uncompressed momentum: " + "; ".join(off_floor)
    assert ok_sgd, f"compressed stochastic method converged at some node count: medians {sgd}"
    assert ok_above, f"node averaging removed the no-momentum floor: {text_above}"


# ---------------------------------------------------------------------------
# 4. reduction identities (bitwise) and the error-feedback virtual iterate
# ---------------------------------------------------------------------------


def _trajectory(kind, problem, comp, hp, seed, rounds):
    streams = StreamFactory(seed)
    server, nodes, _ = optim.init(kind, problem, hp, comp, streams)
    xs = [server.x.copy()]
    for _ in range(rounds):
        optim.run_round(kind, server, nodes, problem, hp, comp, streams)
        xs.append(server.x.copy())
    return np.array(xs)


def test_04_reduction_identities():
    rounds = 100
    prob = generate_quadratic(4, 20, 0.1, 1.0, seed=3, sigma=0.1)
    comp = top_k(3, 20)
    hp = HyperParams(gamma=0.05, eta=1.0, batch=2, b_init=2, rounds=rounds)
    checks = []
    for name, a, b, c in [
        ("momentum=1 equals no-momentum", "ef21_sgdm", "ef21_sgd", comp),
        ("double momentum=1 equals no-momentum", "ef21_sgd2m", "ef21_sgd", comp),
        ("uncompressed momentum=1 equals sgd", "sgdm", "sgd", identity(20)),
    ]:
        same = np.array_equal(_trajectory(a, prob, c, hp, 1, rounds), _trajectory(b, prob, c, hp, 1, rounds))
        checks.append(report(name, same, "bitwise over 100 rounds"))

    prob0 = generate_quadratic(4, 20, 0.1, 1.0, seed=3, sigma=0.0)
    hp0 = HyperParams(gamma=0.05, eta=1.0, batch=1, b_init=1, rounds=rounds)
    ref = _trajectory("sgd", prob0, identity(20), hp0, 1, rounds)
    collapse = all(
        np.array_equal(ref, _trajectory(kind, prob0, identity(20), replace(hp0, eta=eta), 1, rounds))
        for kind, eta in (("ef21_sgdm", 1.0), ("ef21_sgd", 1.0), ("ef21_storm", 0.5))
    )
    checks.append(report("noiseless identity collapse to one trajectory", collapse, "4 methods bitwise"))

    # plain error feedback: virtual iterate follows the uncompressed recursion
    streams = StreamFactory(8)
    hp14 = HyperParams(gamma=0.05, rounds=rounds)
    server, nodes, _ = optim.init("ef14_sgd", prob, hp14, comp, streams)
    worst = 0.0
    for _ in range(rounds):
        cached = nodes.sg_prev.mean(axis=0)
        xtil = server.x - nodes.e.mean(axis=0)
        optim.run_round("ef14_sgd", server, nodes, prob, hp14, comp, streams)
        xtil_new = server.x - nodes.e.mean(axis=0)
        rel = np.linalg.norm(xtil_new - (xtil - hp14.gamma * cached)) / (1.0 + np.linalg.norm(xtil_new))
        worst = max(worst, rel)
    checks.append(report("virtual-iterate identity", worst <= 1e-10, f"worst relative error {worst:.2e}"))
    assert all(checks)


# ---------------------------------------------------------------------------
# 5. compression operator guarantees
# ---------------------------------------------------------------------------


def test_05_compressor_definitions():
    rng = derive_stream(0, 0, 0)
    rep = verify_contractive(top_k(10, 100), trials=10_000, rng=rng)
    ok_top = rep.max_ratio <= 0.9
    report("topk worst-case ratio", ok_top, f"max over 1e4 draws = {rep.max_ratio:.4f} <= 0.9, zero violations")

    rep_rand = verify_contractive(rand_k(10, 100), trials=1000, rng=rng)
    ok_rand = abs(rep_rand.mean_ratio - 0.9) <= 0.01
    report("randk mean ratio", ok_rand, f"mean = {rep_rand.mean_ratio:.4f} in 0.9 +- 0.01")

    spec = hard_threshold(0.1, 100)
    delta_sq = 100 * 0.1**2
    worst = 0.0
    for _ in range(10_000):
        x = rng.standard_normal(100) * rng.uniform(0.02, 0.2)
        worst = max(worst, norm_sq(x - densify(compress(spec, x))))
    ok_abs = worst <= delta_sq
    report("hard-threshold error bound", ok_abs, f"worst error {worst:.4f} <= Delta^2 = {delta_sq}")
    assert ok_top and ok_rand and ok_abs


# ---------------------------------------------------------------------------
# 6. descent diagnostic on generated quadratics
# ---------------------------------------------------------------------------


def test_06_descent_diagnostic():
    comp = top_k(5, 100)
    alpha = 0.05
    rounds = 1000

    prob0 = generate_quadratic(20, 100, 0.01, 1.0, seed=0, sigma=0.0)
    sm0 = prob0.smoothness()
    delta0 = prob0.value(prob0.x0) - sm0.f_star
    hp0 = theoretical_params("ef21_sgdm", sm0, alpha, 0.0, 20, rounds, delta0)
    cfg0 = RunConfig("ef21_sgdm", prob0, comp, hp0, seeds=(0,), metric_every=10, lyapunov=True, lyapunov_every=10)
    lam = run(cfg0, 0).column("lyapunov")
    lam = lam[~np.isnan(lam)]
    increases = int(np.sum(np.diff(lam) > 0))
    ok_det = increases == 0
    report("noiseless descent", ok_det, f"{increases} increases over {len(lam)} logged values")

    probs = generate_quadratic(20, 100, 0.01, 1.0, seed=0, sigma=0.01)
    sms = probs.smoothness()
    hps = theoretical_params("ef21_sgdm", sms, alpha, 0.01, 20, rounds, prob0.value(prob0.x0) - sms.f_star)
    cfgs = RunConfig(
        "ef21_sgdm", probs, comp, hps, seeds=tuple(range(20)), metric_every=10, lyapunov=True, lyapunov_every=10
    )
    lams = np.stack([run(cfgs, s).column("lyapunov") for s in cfgs.seeds])
    avg = np.nanmean(lams, axis=0)
    avg = avg[~np.isnan(avg)]
    frac_up = float(np.mean(np.diff(avg) > 0))
    ok_st = frac_up <= 0.05 and avg[-1] < avg[0]
    report(
        "stochastic descent (20-seed average)",
        ok_st,
        f"{100 * frac_up:.1f}% upward pairs (<= 5%), start {avg[0]:.4f} -> end {avg[-1]:.4f}",
    )
    assert ok_det and ok_st


# ---------------------------------------------------------------------------
# 7. heterogeneous quadratic: tuned step sizes, momentum variant's floor vs
#    plain error feedback at equal transmitted coordinates
# ---------------------------------------------------------------------------


QUAD_METHODS = (("ef14_sgd", 1.0, "sgd"), ("ef21_sgdm", 0.1, "sgdm"))  # (method, eta, uncompressed counterpart)


def _tuned_floors(sigma, rounds):
    """Per method: the step size tuned on seed 0 over 2^-8..2^0, the final
    gaps on seeds 0-2 at that step size, and the closed-form gap of the
    uncompressed counterpart there."""
    prob = generate_quadratic(20, 100, 0.01, 1.0, seed=0, sigma=sigma)
    out = {}
    for algo, eta, _ in QUAD_METHODS:
        hp = HyperParams(gamma=1.0, eta=eta, batch=1, b_init=1, rounds=rounds)
        cfg = RunConfig(algo, prob, top_k(5, 100), hp, seeds=(0,), metric_every=rounds)
        res = sweep(cfg, power_grid(-8, 0), "final_loss")
        best = replace(res.best_config, seeds=(0, 1, 2))
        finals = np.array([run(best, s).final.obj_gap for s in best.seeds])
        out[algo] = (res.best_gamma, finals, _closed_form(prob, res.best_gamma, eta, rounds).obj_gap)
    return out


def test_07_quadratic_method_ordering():
    rounds = 8000  # both methods send 5 coords/node/round, so equal rounds = equal coordinates
    failed = []
    # sigma = 0.01: the variance floor dominates and each tuned method sits on
    # the closed form of its uncompressed counterpart
    floors = _tuned_floors(0.01, rounds)
    for algo, _, counterpart in QUAD_METHODS:
        gamma, finals, ref = floors[algo]
        z, text = _vs_closed_form("gap", finals, ref)
        text += f" ({counterpart} at tuned gamma {gamma:.3g})"
        if not report(f"sigma=0.01: {algo} floor on the closed form of {counterpart} (|z| <= 3)", abs(z) <= 3.0, text):
            failed.append(f"sigma=0.01 {algo}: {text}")
    # sigma = 0.001: error feedback's compression floor dominates its variance
    # floor, and the momentum variant stays below half of it
    floors = _tuned_floors(0.001, rounds)
    for algo, _, counterpart in QUAD_METHODS:
        gamma, finals, ref = floors[algo]
        text = _vs_closed_form("gap", finals, ref)[1]
        print(f"[INFO] sigma=0.001: {algo} {text} ({counterpart} at tuned gamma {gamma:.3g})")
    med = {algo: float(np.median(finals)) for algo, (_, finals, _) in floors.items()}
    ratio = med["ef21_sgdm"] / med["ef14_sgd"]
    text = (
        f"medians: momentum {med['ef21_sgdm']:.3e} (gamma {floors['ef21_sgdm'][0]:.3g}) vs "
        f"error feedback {med['ef14_sgd']:.3e} (gamma {floors['ef14_sgd'][0]:.3g}), ratio {ratio:.3f} <= 0.5"
    )
    if not report("sigma=0.001: momentum floor at most half the error-feedback floor", ratio <= 0.5, text):
        failed.append(f"sigma=0.001 ordering: {text}")
    assert not failed, "; ".join(failed)


# ---------------------------------------------------------------------------
# 8. time-varying momentum satisfies its weighted gradient bound
# ---------------------------------------------------------------------------


def test_08_time_varying_momentum_bound():
    prob = generate_quadratic(1, 20, 0.1, 0.0, seed=0, sigma=0.1)
    sm = prob.smoothness()
    delta0 = prob.value(prob.x0) - sm.f_star
    gamma0 = 1.0 / (3.0 * sm.L)
    rounds = 1000
    hp = HyperParams(gamma=gamma0, eta=1.0, batch=1, b_init=1, rounds=rounds, schedule="inv_sqrt_t")
    cfg = RunConfig("sgdm", prob, identity(20), hp, seeds=tuple(range(20)), metric_every=1)
    etas = 1.0 / np.sqrt(np.arange(rounds) + 1.0)
    mean_gsq = np.stack([run(cfg, s).column("grad_norm")[:rounds] ** 2 for s in cfg.seeds]).mean(axis=0)
    weighted = float((etas * mean_gsq).sum() / etas.sum())
    lam0 = delta0 + gamma0 * prob.sigma**2 / hp.b_init
    bound = (2.0 * lam0 / gamma0 + 2.0 * prob.sigma**2 * float((etas**2).sum())) / float(etas.sum())
    ok = weighted <= 1.5 * bound
    assert report(
        "weighted gradient bound", ok, f"weighted mean |grad|^2 = {weighted:.4f} <= 1.5 x bound ({bound:.4f})"
    )


# ---------------------------------------------------------------------------
# 9. one-step conditional mean of the variance-reduced estimator
# ---------------------------------------------------------------------------


def test_09_estimator_conditional_mean():
    prob = generate_quadratic(1, 5, 0.1, 0.0, seed=2, sigma=0.5)
    rng = derive_stream(0, 0, 99)
    x_old = rng.standard_normal(5)
    x_new = x_old - 0.1 * rng.standard_normal(5)
    w_old = prob.full_grad(0, x_old) + 0.3 * rng.standard_normal(5)
    eta = 0.3
    draws = 10_000
    samples = np.empty((draws, 5))
    for j in range(draws):
        sg_new, sg_old = prob.stoch_grad_pair(0, x_new, x_old, derive_stream(1, 0, j))
        samples[j] = sg_new + (1.0 - eta) * (w_old - sg_old)
    expected = prob.full_grad(0, x_new) + (1.0 - eta) * (w_old - prob.full_grad(0, x_old))
    se = samples.std(axis=0, ddof=1) / math.sqrt(draws)
    dev_over_se = float(np.max(np.abs(samples.mean(axis=0) - expected) / se))
    ok = dev_over_se <= 4.0
    assert report("estimator conditional mean", ok, f"max per-coordinate deviation {dev_over_se:.2f} SE (<= 4)")


# ---------------------------------------------------------------------------
# 10. bitwise reproduction from manifests
# ---------------------------------------------------------------------------


def test_10_bitwise_reproduction(tmp_path):
    exps = [
        {
            "name": "divergence_n1",
            "problem": {"kind": "counterexample", "sigma": 1.0, "variance_batch": 1, "n": 1, "x0": [0.0, -0.01]},
            "algorithms": ["ef21_sgd", "ef21_sgdm"],
            "compressor": {"kind": "topk", "k": 1},
            "hyper": {"gamma": 1e-3, "eta": 1e-3, "rounds": 10_000},
            "seeds": [0, 1],
            "metric_every": 1000,
        },
        {
            "name": "quad_descent",
            "problem": {"kind": "quadratic", "n": 20, "d": 100, "lam": 0.01, "s": 1.0, "seed": 0, "sigma": 0.01},
            "algorithms": ["ef21_sgdm"],
            "compressor": {"kind": "topk", "k": 5},
            "hyper": {"theoretical": True, "rounds": 1000},
            "seeds": [0, 1],
            "metric_every": 10,
            "lyapunov": True,
            "lyapunov_every": 10,
        },
    ]
    ok_all = True
    for exp in exps:
        out1 = str(tmp_path / f"{exp['name']}_a")
        out2 = str(tmp_path / f"{exp['name']}_b")
        run_experiment(json.loads(json.dumps(exp)), out1, workers=1)
        manifest = json.load(open(os.path.join(out1, f"{exp['name']}__manifest.json")))
        run_experiment(manifest["experiment"], out2, workers=1)
        same = True
        n_files = 0
        for name in sorted(os.listdir(out1)):
            if name.endswith(".csv"):
                n_files += 1
                same &= open(os.path.join(out1, name), "rb").read() == open(os.path.join(out2, name), "rb").read()
        ok_all &= report(f"bitwise reproduction ({exp['name']})", same, f"{n_files} CSV files byte-identical")
    assert ok_all
