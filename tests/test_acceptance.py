"""Acceptance suite: one test per shipped guarantee, each printing a
[PASS]/[FAIL] line with the measured statistics.

Every check but 8 and 10 runs an ``efsim verify`` suite of
``efsim.checks``, the only implementation of those checks: 1, 4, 5, 6 and 9
run ``theorem1``, ``reductions``, ``compressors``, ``lyapunov`` and
``storm``, and 2, 3 and 7 share one run of ``floors``, each asserting the
checks of its own study.

Run with ``pytest tests/test_acceptance.py -v -s``.  On a 2-vCPU machine
(Python 3.11, numpy 2.4) the ``floors`` suite took 122-151 s, check 1 25 s,
and the rest of the module under 20 s.
"""

import json
import os

import numpy as np
import pytest

from efsim.checks import run_suite
from efsim.compress import identity
from efsim.experiments import run_experiment
from efsim.harness import RunConfig, run_all
from efsim.optim import HyperParams
from efsim.problems import generate_quadratic


def report(name: str, ok: bool, detail: str) -> bool:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    return ok


def assert_passed(results, prefix=""):
    """Print a line per check whose name starts with ``prefix``, and assert
    that there is one and that each passed."""
    results = [r for r in results if r.name.startswith(prefix)]
    assert results, f"no check named {prefix!r}..."
    failed = [f"{r.name}: {r.detail}" for r in results if not report(r.name, r.passed, r.detail)]
    assert not failed, "; ".join(failed)


@pytest.fixture(scope="module")
def floors():
    """The ``floors`` suite at seed 0, run once for checks 2, 3 and 7."""
    return run_suite("floors", seed=0)


# ---------------------------------------------------------------------------
# 1. lower bound for the idealized compressed method on the adversarial
#    two-dimensional instance
# ---------------------------------------------------------------------------


def test_01_lower_bound_on_counterexample():
    assert_passed(run_suite("theorem1", seed=0))


# ---------------------------------------------------------------------------
# 2./3. divergence of the compressed stochastic method, stability of its
#       momentum variant, and the node-count sweep
# ---------------------------------------------------------------------------


def test_02_divergence_vs_momentum_stability(floors):
    assert_passed(floors, "counterexample n=1:")


def test_03_node_scaling(floors):
    assert_passed(floors, "counterexample ")  # n = 1, 4, 16 and the trend across them


# ---------------------------------------------------------------------------
# 4.-6. the reduction identities, the compressor definitions and the descent
#       diagnostic: the ``efsim verify`` suites of the same names
# ---------------------------------------------------------------------------


def test_04_reduction_identities():
    assert_passed(run_suite("reductions", seed=1))


def test_05_compressor_definitions():
    assert_passed(run_suite("compressors", seed=0))


def test_06_descent_diagnostic():
    assert_passed(run_suite("lyapunov", seed=0))


# ---------------------------------------------------------------------------
# 7. heterogeneous quadratic: tuned step sizes, momentum variant's floor vs
#    plain error feedback at equal transmitted coordinates
# ---------------------------------------------------------------------------


def test_07_quadratic_method_ordering(floors):
    assert_passed(floors, "quadratic ")


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
    mean_gsq = np.stack([tr.column("grad_norm")[:rounds] ** 2 for tr in run_all([cfg])]).mean(axis=0)
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
    assert_passed(run_suite("storm", seed=0))


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
