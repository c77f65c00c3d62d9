"""Acceptance suite: one test per shipped guarantee, each printing a
[PASS]/[FAIL] line with the measured statistics.

Checks 1, 4, 5, 6 and 9 run the ``efsim verify`` suites ``theorem1``,
``reductions``, ``compressors``, ``lyapunov`` and ``storm`` of
``efsim.checks``, the only implementation of those checks.  The floor
checks (2, 3, 7) judge seed means against the closed-form expected final
error of the uncompressed counterpart (``momentum_floor``) within 3
standard errors, and print the closed form, the measured mean, its
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

from efsim.checks import run_suite
from efsim.compress import identity, top_k
from efsim.experiments import run_experiment
from efsim.harness import RunConfig, momentum_floor, power_grid, run, sweep
from efsim.optim import HyperParams
from efsim.problems import CounterexampleProblem, generate_quadratic


def report(name: str, ok: bool, detail: str) -> bool:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    return ok


def check_suite(suite, seed):
    """Run one ``efsim verify`` suite, print a line per check, and assert
    that every check passed."""
    failed = [f"{r.name}: {r.detail}" for r in run_suite(suite, seed) if not report(r.name, r.passed, r.detail)]
    assert not failed, "; ".join(failed)


# ---------------------------------------------------------------------------
# 1. lower bound for the idealized compressed method on the adversarial
#    two-dimensional instance
# ---------------------------------------------------------------------------


def test_01_lower_bound_on_counterexample():
    check_suite("theorem1", seed=0)


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
# 4.-6. the reduction identities, the compressor definitions and the descent
#       diagnostic: the ``efsim verify`` suites of the same names
# ---------------------------------------------------------------------------


def test_04_reduction_identities():
    check_suite("reductions", seed=1)


def test_05_compressor_definitions():
    check_suite("compressors", seed=0)


def test_06_descent_diagnostic():
    check_suite("lyapunov", seed=0)


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
# 9. one-step conditional mean of the variance-reduced estimator: the
#    ``efsim verify storm`` suite
# ---------------------------------------------------------------------------


def test_09_estimator_conditional_mean():
    check_suite("storm", seed=0)


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
