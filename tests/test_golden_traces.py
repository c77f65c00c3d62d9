"""Golden trace hashes: every trace CSV the round engine writes is pinned.

``golden_traces.json`` holds the sha256 of the trace CSV of one short seeded
run of every valid (algorithm x compressor) pair on four problems (the 2-d
counterexample, a structured quadratic, a dense quadratic built from
matrices (``dense_quadratic.DenseQuadratic``), and small logistic-regression blobs), plus runs that reach the
rarer paths: mini-batches, the decaying schedule, zero noise, the Lyapunov
column (on the quadratic, the counterexample with f* known, and the blobs
with f* unknown), a diverging step size, and problems wide enough to span
several row blocks of the engine (a quadratic, and logistic regression with
uneven node sizes, d = 2,100 and n = 8).  A refactor of the engine, the
oracles or the compressors must leave every hash unchanged, on the
compiled block draws and on the per-node path alike.

Re-record (only when a change of results is intended) with

    PYTHONPATH=src python tests/test_golden_traces.py
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from dataclasses import replace

import numpy as np
import pytest
from dense_quadratic import DenseQuadratic

from efsim import core, optim
from efsim.compress import hard_threshold, identity, rand_k, top_k
from efsim.harness import RunConfig, run, write_trace_csv
from efsim.optim import HyperParams
from efsim.problems import CounterexampleProblem, LogRegProblem, generate_quadratic, make_blobs, split_examples

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden_traces.json")
ROUNDS = 20


def _dense_quadratic() -> DenseQuadratic:
    rng = np.random.Generator(np.random.Philox(key=31))
    n, d = 3, 6
    mats = []
    for _ in range(n):
        a = rng.standard_normal((d, d))
        mats.append(a @ a.T / d + 0.1 * np.eye(d))
    return DenseQuadratic(np.array(mats), rng.standard_normal((n, d)), x0=rng.standard_normal(d), sigma=0.3)


def _blobs() -> LogRegProblem:
    x, y = make_blobs(classes=3, n_features=4, examples=60, seed=5)
    feats, labs = split_examples(x, y, 3, "by_label", 0)
    return LogRegProblem(feats, labs, classes=3, reg=1e-3)


def _wide_logreg() -> LogRegProblem:
    # 403 examples dealt to 8 nodes: 50 or 51 each
    x, y = make_blobs(classes=10, n_features=209, examples=403, seed=8)
    feats, labs = split_examples(x, y, 8, "uniform", 9)
    return LogRegProblem(feats, labs, classes=10, reg=1e-3)


def _problems() -> dict:
    return {
        "counterexample": (CounterexampleProblem(sigma=1.0, n_nodes=3, x0=(0.0, -0.5)), 0.1),
        "quadratic": (generate_quadratic(4, 20, 0.1, 1.0, seed=3, sigma=0.1), 0.05),
        "dense": (_dense_quadratic(), 0.05),
        "blobs": (_blobs(), 0.5),
    }


def _compressors(d: int) -> dict:
    return {
        "top1": top_k(1, d),
        "topk": top_k(2, d),
        "randk": rand_k(max(1, d // 4), d),
        "identity": identity(d),
        "threshold": hard_threshold(0.05, d),
    }


def _valid(kind: str, comp) -> bool:
    try:
        optim.validate_pairing(kind, comp)
    except ValueError:
        return False
    return True


def _default_comp(kind: str, d: int, k: int = 3):
    if kind in (optim.SGD, optim.SGDM):
        return identity(d)
    if kind == optim.EF21_SGDM_ABS:
        return hard_threshold(0.05, d)
    return top_k(min(k, d), d)


def configs() -> dict[str, tuple[RunConfig, int]]:
    """Every pinned run by name: (config, seed)."""
    out = {}
    for pname, (problem, gamma) in _problems().items():
        hp = HyperParams(gamma=gamma, eta=0.3, rounds=ROUNDS)
        for cname, comp in _compressors(problem.dim).items():
            for kind in optim.ALGORITHMS:
                if _valid(kind, comp):
                    out[f"{pname}/{kind}/{cname}"] = (RunConfig(kind, problem, comp, hp), 0)

    problems = _problems()
    for pname, (problem, gamma) in problems.items():
        hp = HyperParams(gamma=gamma, eta=0.3, rounds=ROUNDS, batch=3, b_init=4)
        for kind in optim.ALGORITHMS:
            out[f"batch/{pname}/{kind}"] = (RunConfig(kind, problem, _default_comp(kind, problem.dim), hp), 1)
    # on the 2-d counterexample the default TopK keeps both coordinates;
    # Top1 makes the batch runs compress
    problem, gamma = problems["counterexample"]
    hp = HyperParams(gamma=gamma, eta=0.3, rounds=ROUNDS, batch=3, b_init=4)
    for kind in optim.ALGORITHMS:
        comp = _default_comp(kind, problem.dim, 1)
        if comp.kind == "topk":
            out[f"batch_top1/counterexample/{kind}"] = (RunConfig(kind, problem, comp, hp), 1)

    # the Lyapunov column with f* known (counterexample, under Top1) and
    # unknown (blobs)
    for pname, seed, k in (("counterexample", 8, 1), ("blobs", 9, 3)):
        problem, gamma = problems[pname]
        hp = HyperParams(gamma=gamma, eta=0.3, rounds=ROUNDS)
        for kind in optim.MOMENTUM_KINDS:
            comp = _default_comp(kind, problem.dim, k)
            if comp.is_contractive:
                out[f"lyapunov_{pname}/{kind}"] = (
                    RunConfig(kind, problem, comp, hp, metric_every=2, lyapunov=True, lyapunov_every=4),
                    seed,
                )

    problem, gamma = problems["quadratic"]
    hp = HyperParams(gamma=gamma, eta=0.3, rounds=ROUNDS)
    # n=20 at d=1000 spans several row blocks of the engine
    wide = generate_quadratic(20, 1000, 0.01, 1.0, seed=4, sigma=0.01)
    # n=8 at d=2100 spans three row blocks
    wide_logreg = _wide_logreg()
    for kind in optim.ALGORITHMS:
        comp = _default_comp(kind, problem.dim)
        out[f"inv_sqrt_t/{kind}"] = (RunConfig(kind, problem, comp, replace(hp, schedule="inv_sqrt_t")), 2)
        out[f"sigma0/{kind}"] = (RunConfig(kind, generate_quadratic(4, 20, 0.1, 1.0, seed=3), comp, hp), 3)
        out[f"diverging/{kind}"] = (RunConfig(kind, problem, comp, replace(hp, gamma=1e20)), 4)
        if kind in optim.MOMENTUM_KINDS and comp.is_contractive:
            out[f"lyapunov/{kind}"] = (
                RunConfig(kind, problem, comp, hp, metric_every=2, lyapunov=True, lyapunov_every=4),
                5,
            )
        out[f"blocks/{kind}"] = (RunConfig(kind, wide, _default_comp(kind, wide.dim), replace(hp, gamma=2.0**-4)), 6)
        out[f"blocks_logreg/{kind}"] = (
            RunConfig(kind, wide_logreg, _default_comp(kind, wide_logreg.dim), replace(hp, gamma=0.05, batch=3, b_init=4)),
            7,
        )
    return out


def trace_hash(cfg: RunConfig, seed: int, path: str) -> str:
    write_trace_csv(path, run(cfg, seed))
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


CONFIGS = configs()


def _golden() -> dict[str, str]:
    with open(GOLDEN) as fh:
        return json.load(fh)


def test_every_config_is_pinned():
    assert sorted(_golden()) == sorted(CONFIGS)


@pytest.mark.parametrize("name", sorted(CONFIGS), ids=lambda name: name.replace("/", "-"))
def test_trace_matches_golden_hash(name, tmp_path):
    cfg, seed = CONFIGS[name]
    assert trace_hash(cfg, seed, str(tmp_path / "trace.csv")) == _golden()[name]


def test_every_hash_matches_on_the_per_node_path(tmp_path, monkeypatch):
    # the kernel off: every node draws from its own stream, as where the
    # kernel cannot be built
    monkeypatch.setattr(core, "_kernel", lambda: None)
    golden = _golden()
    path = str(tmp_path / "trace.csv")
    assert [name for name, (cfg, seed) in sorted(CONFIGS.items()) if trace_hash(cfg, seed, path) != golden[name]] == []


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        hashes = {name: trace_hash(cfg, seed, os.path.join(tmp, "trace.csv")) for name, (cfg, seed) in sorted(CONFIGS.items())}
    with open(GOLDEN, "w") as fh:
        json.dump(hashes, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"recorded {len(hashes)} trace hashes in {GOLDEN}", file=sys.stderr)
