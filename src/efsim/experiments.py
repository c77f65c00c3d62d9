"""Declarative experiment files: schema validation, problem construction,
execution, and manifest emission.

An experiment is a JSON document; unknown keys anywhere are hard errors so
a typo cannot silently fall back to a default.  The emitted manifest embeds
the fully resolved experiment (defaults filled in), which makes every run
reconstructible: feeding a manifest back to ``run`` reproduces all CSVs
bitwise.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace

import numpy as np

from . import __version__, optim
from .compress import Compressor, absolute_delta, contraction_alpha, hard_threshold, identity, rand_k, top_k
from .harness import (
    RunConfig,
    RunTrace,
    power_grid,
    run,
    run_quantiles,
    sweep,
    trace_diverged,
    write_quantiles_csv,
    write_trace_csv,
)
from .optim import HyperParams, theoretical_params
from .problems import (
    CounterexampleProblem,
    LogRegProblem,
    Problem,
    generate_quadratic,
    load_libsvm_problem,
    load_quadratic_task,
    make_blobs,
    split_examples,
)

__all__ = [
    "SchemaError",
    "validate_experiment",
    "build_problem",
    "build_compressor",
    "resolve_hyper",
    "run_experiment",
    "load_experiment_file",
]

MANIFEST_FORMAT = "efsim-manifest"


class SchemaError(ValueError):
    pass


def _check_keys(doc: dict, allowed: dict, where: str) -> dict:
    """Return doc merged over defaults; unknown or missing keys are errors.

    ``allowed`` maps key -> default, with the sentinel ``...`` marking a
    required key.
    """
    if not isinstance(doc, dict):
        raise SchemaError(f"{where}: expected a mapping, got {type(doc).__name__}")
    for key in doc:
        if key not in allowed:
            raise SchemaError(f"{where}: unknown key {key!r}")
    out = {}
    for key, default in allowed.items():
        if key in doc:
            out[key] = doc[key]
        elif default is ...:
            raise SchemaError(f"{where}: missing required key {key!r}")
        else:
            out[key] = default
    return out


_PROBLEM_SCHEMAS = {
    "counterexample": {
        "kind": ...,
        "l_smooth": 1.0,
        "sigma": 1.0,
        "variance_batch": 1,
        "n": 1,
        "x0": [0.0, -0.01],
    },
    "quadratic": {"kind": ..., "n": ..., "d": ..., "lam": ..., "s": ..., "seed": 0, "sigma": 0.0},
    "quadratic_file": {"kind": ..., "path": ..., "sigma": None},
    "logreg_file": {
        "kind": ...,
        "path": ...,
        "classes": ...,
        "features": ...,
        "n": ...,
        "split": "by_label",
        "split_seed": 0,
        "reg": 1e-3,
    },
    "blobs": {
        "kind": ...,
        "classes": ...,
        "features": ...,
        "examples": ...,
        "n": ...,
        "seed": 0,
        "split": "by_label",
        "split_seed": 0,
        "reg": 1e-3,
    },
}

_COMPRESSOR_SCHEMA = {"kind": ..., "k": None, "tau": None}

_HYPER_SCHEMA = {
    "gamma": None,
    "eta": 1.0,
    "batch": 1,
    "b_init": 1,
    "rounds": ...,
    "schedule": "constant",
    "theoretical": False,
}

_TUNE_SCHEMA = {"k_lo": ..., "k_hi": ..., "criterion": "final_loss", "seeds": None}

# typed keys of each section: key -> (type, least value or None for no
# bound); int and float keys take JSON numbers (a float key also takes an
# integer, never a bool), bool keys take true or false.  None is accepted only
# where the key's default is None, and is left to the checks that follow
_KEY_TYPES = {
    "experiment": {"metric_every": (int, 1), "lyapunov_every": (int, 1), "lyapunov": (bool, None)},
    "experiment.problem": {"n": (int, 1), "d": (int, 1), "variance_batch": (int, 1), "classes": (int, 1),
                           "features": (int, 1), "examples": (int, 1), "seed": (int, 0), "split_seed": (int, 0),
                           "l_smooth": (float, None), "sigma": (float, 0.0), "lam": (float, 0.0), "s": (float, 0.0),
                           "reg": (float, 0.0)},
    "experiment.compressor": {"k": (int, 1), "tau": (float, None)},
    "experiment.hyper": {"batch": (int, 1), "b_init": (int, 1), "rounds": (int, 0), "gamma": (float, None),
                         "eta": (float, None), "theoretical": (bool, None)},
    "experiment.tune": {"k_lo": (int, None), "k_hi": (int, None)},
}

_EXPERIMENT_SCHEMA = {
    "name": ...,
    "problem": ...,
    "algorithms": ...,
    "compressor": ...,
    "hyper": ...,
    "seeds": ...,
    "metric_every": 1,
    "lyapunov": False,
    "lyapunov_every": 10,
    "tune": None,
    "out": None,
}


_EXPECTED = {int: "an integer", float: "a finite number", bool: "true or false"}


def _check_value(value, where: str, kind: type, least) -> None:
    if kind is bool:
        ok = isinstance(value, bool)
    else:
        ok = isinstance(value, int if kind is int else (int, float)) and not isinstance(value, bool)
        ok = ok and (isinstance(value, int) or math.isfinite(value))
    if not ok:
        raise SchemaError(f"{where}: expected {_EXPECTED[kind]}, got {value!r}")
    if least is not None and value < least:
        raise SchemaError(f"{where}: must be >= {least}, got {value}")


def _check_types(exp: dict) -> None:
    sections = {"experiment": exp, **{f"experiment.{k}": exp[k] or {} for k in ("problem", "compressor", "hyper", "tune")}}
    defaults = {
        "experiment": _EXPERIMENT_SCHEMA,
        "experiment.problem": _PROBLEM_SCHEMAS[exp["problem"]["kind"]],
        "experiment.compressor": _COMPRESSOR_SCHEMA,
        "experiment.hyper": _HYPER_SCHEMA,
        "experiment.tune": _TUNE_SCHEMA,
    }
    for where, keys in _KEY_TYPES.items():
        section = sections[where]
        for key, (kind, least) in keys.items():
            if key in section and (section[key] is not None or defaults[where][key] is not None):
                _check_value(section[key], f"{where}.{key}", kind, least)
    tune_seeds = sections["experiment.tune"].get("seeds")
    for where, seeds in (("experiment.seeds", exp["seeds"]), ("experiment.tune.seeds", tune_seeds)):
        if seeds is not None and not isinstance(seeds, list):
            raise SchemaError(f"{where}: expected a list of integers, got {seeds!r}")
        for seed in seeds or ():
            _check_value(seed, where, int, 0)
    comp = exp["compressor"]
    need = {"topk": "k", "randk": "k", "hard_threshold": "tau"}.get(comp["kind"])
    if need is not None and comp[need] is None:
        raise SchemaError(f"experiment.compressor.{need}: required by {comp['kind']}")


def validate_experiment(doc: dict) -> dict:
    """Validate and normalize an experiment document (defaults filled)."""
    exp = _check_keys(doc, _EXPERIMENT_SCHEMA, "experiment")
    prob = exp["problem"]
    if not isinstance(prob, dict) or "kind" not in prob:
        raise SchemaError("experiment.problem: needs a 'kind' key")
    kind = prob["kind"]
    if kind not in _PROBLEM_SCHEMAS:
        raise SchemaError(f"experiment.problem: unknown kind {kind!r}")
    exp["problem"] = _check_keys(prob, _PROBLEM_SCHEMAS[kind], f"experiment.problem({kind})")
    exp["compressor"] = _check_keys(exp["compressor"], _COMPRESSOR_SCHEMA, "experiment.compressor")
    exp["hyper"] = _check_keys(exp["hyper"], _HYPER_SCHEMA, "experiment.hyper")
    if exp["tune"] is not None:
        exp["tune"] = _check_keys(exp["tune"], _TUNE_SCHEMA, "experiment.tune")
        if exp["hyper"]["theoretical"]:
            raise SchemaError("experiment: 'tune' and hyper.theoretical are mutually exclusive")
    if exp["hyper"]["gamma"] is None and not exp["hyper"]["theoretical"] and exp["tune"] is None:
        raise SchemaError("experiment.hyper: gamma is required unless theoretical or tune is set")
    algos = exp["algorithms"]
    if not isinstance(algos, list) or not algos:
        raise SchemaError("experiment.algorithms: need a nonempty list")
    for a in algos:
        if a not in optim.ALGORITHMS:
            raise SchemaError(f"experiment.algorithms: unknown algorithm {a!r}")
    if not isinstance(exp["seeds"], list) or not exp["seeds"]:
        raise SchemaError("experiment.seeds: need a nonempty list")
    _check_types(exp)
    return exp


def build_problem(spec: dict) -> Problem:
    kind = spec["kind"]
    if kind == "counterexample":
        return CounterexampleProblem(
            l_smooth=spec["l_smooth"],
            sigma=spec["sigma"],
            variance_batch=spec["variance_batch"],
            n_nodes=spec["n"],
            x0=spec["x0"],
        )
    if kind == "quadratic":
        return generate_quadratic(spec["n"], spec["d"], spec["lam"], spec["s"], spec["seed"], sigma=spec["sigma"])
    if kind == "quadratic_file":
        return load_quadratic_task(spec["path"], sigma=spec["sigma"])
    if kind == "logreg_file":
        return load_libsvm_problem(
            spec["path"], spec["classes"], spec["features"], spec["n"], spec["split"], spec["split_seed"], spec["reg"]
        )
    if kind == "blobs":
        x, y = make_blobs(spec["classes"], spec["features"], spec["examples"], spec["seed"])
        feats, labs = split_examples(x, y, spec["n"], spec["split"], spec["split_seed"])
        return LogRegProblem(feats, labs, spec["classes"], reg=spec["reg"])
    raise SchemaError(f"unknown problem kind {kind!r}")


def build_compressor(spec: dict, dim: int) -> Compressor:
    kind = spec["kind"]
    if kind == "topk":
        return top_k(spec["k"], dim)
    if kind == "randk":
        return rand_k(spec["k"], dim)
    if kind == "identity":
        return identity(dim)
    if kind == "hard_threshold":
        return hard_threshold(spec["tau"], dim)
    raise SchemaError(f"unknown compressor kind {kind!r}")


def resolve_hyper(exp: dict, algorithm: str, problem: Problem, comp: Compressor) -> HyperParams:
    """Concrete hyperparameters for one algorithm of the experiment."""
    h = exp["hyper"]
    if h["theoretical"]:
        smooth = problem.smoothness()
        if smooth.f_star is None:
            raise SchemaError("theoretical step sizes need a problem with a known optimal value")
        delta0 = problem.value(problem.x0) - smooth.f_star
        return theoretical_params(
            algorithm,
            smooth,
            contraction_alpha(comp),
            problem.sigma,
            problem.n_nodes,
            h["rounds"],
            delta0,
            delta_abs=absolute_delta(comp),
            batch=h["batch"],
        )
    return HyperParams(
        gamma=h["gamma"] if h["gamma"] is not None else 1.0,
        rounds=h["rounds"],
        eta=h["eta"],
        batch=h["batch"],
        b_init=h["b_init"],
        schedule=h["schedule"],
    )


def _build_config(exp: dict, algorithm: str, problem: Problem | None = None) -> RunConfig:
    if problem is None:
        problem = build_problem(exp["problem"])
    comp = build_compressor(exp["compressor"], problem.dim)
    hyper = resolve_hyper(exp, algorithm, problem, comp)
    return RunConfig(
        algorithm=algorithm,
        problem=problem,
        compressor=comp,
        hyper=hyper,
        seeds=tuple(exp["seeds"]),
        metric_every=exp["metric_every"],
        lyapunov=exp["lyapunov"],
        lyapunov_every=exp["lyapunov_every"],
    )


def _tune_config(exp: dict, algorithm: str, problem: Problem) -> RunConfig:
    """The configuration the tuning sweep runs: the tune section's seeds, if
    it names any, and never the Lyapunov diagnostic, which no criterion
    reads."""
    cfg = _build_config(exp, algorithm, problem)
    return replace(cfg, seeds=tuple(exp["tune"]["seeds"] or cfg.seeds), lyapunov=False)


def _run_task(exp: dict, algorithm: str, seed: int, gamma: float, tuning: bool = False) -> RunTrace:
    """Worker entry: rebuild everything from the declarative spec."""
    problem = build_problem(exp["problem"])
    cfg = (_tune_config if tuning else _build_config)(exp, algorithm, problem)
    return run(replace(cfg, hyper=replace(cfg.hyper, gamma=gamma)), seed)


def worker_pool(workers: int):
    """A process pool of ``workers`` workers, or a null context yielding
    None when ``workers`` is 1 or less."""
    return ProcessPoolExecutor(max_workers=workers) if workers > 1 else contextlib.nullcontext()


def task_runner(pool, exp: dict, algorithm: str, tuning: bool = False):
    """A runner in the sense of ``harness.sweep``: it maps (gamma, seed)
    pairs of one algorithm to their traces, in the order given, through
    ``_run_task`` (``tuning`` selects the tune section's configuration).
    With a pool every pair is submitted at once; without one they run one
    after another in this process."""

    def runner(pairs):
        if pool is None:
            return (_run_task(exp, algorithm, seed, gamma, tuning) for gamma, seed in pairs)
        futures = [pool.submit(_run_task, exp, algorithm, seed, gamma, tuning) for gamma, seed in pairs]
        return (fut.result() for fut in futures)

    return runner


def run_experiment(exp: dict, out_dir: str, workers: int = 1) -> dict:
    """Execute every (algorithm, seed) pair, write traces, quantiles, and a
    manifest; return a summary keyed by algorithm.

    With ``workers > 1`` one process pool serves every run of the call, the
    tuning sweeps' and the final ones; each run is rebuilt from the spec
    alone, so the outputs do not depend on ``workers``.  If every tuning
    step size of an algorithm diverges, ``SweepDiverged`` is raised.
    """
    exp = validate_experiment(exp)
    os.makedirs(out_dir, exist_ok=True)
    problem = build_problem(exp["problem"])
    algorithms, seeds, tune = exp["algorithms"], exp["seeds"], exp["tune"]
    grid = power_grid(tune["k_lo"], tune["k_hi"]) if tune is not None else []
    pooled = tune is not None or len(algorithms) * len(seeds) > 1

    resolved_hyper: dict[str, dict] = {}
    with worker_pool(workers if pooled else 1) as pool:
        for algorithm in algorithms:
            cfg = _build_config(exp, algorithm, problem)
            gamma = cfg.hyper.gamma
            if tune is not None:
                runner = task_runner(pool, exp, algorithm, tuning=True) if pool else None
                gamma = sweep(_tune_config(exp, algorithm, problem), grid, tune["criterion"], runner).best_gamma
            resolved_hyper[algorithm] = {
                "gamma": gamma,
                "eta": cfg.hyper.eta,
                "batch": cfg.hyper.batch,
                "b_init": cfg.hyper.b_init,
                "rounds": cfg.hyper.rounds,
                "schedule": cfg.hyper.schedule,
            }
        # every final run is submitted before any is collected
        runs = {a: task_runner(pool, exp, a)([(resolved_hyper[a]["gamma"], s) for s in seeds]) for a in algorithms}
        traces = {a: list(runs[a]) for a in algorithms}

    outputs = []
    summary = {}
    name = exp["name"]
    for algorithm in exp["algorithms"]:
        algo_traces = traces[algorithm]
        for tr in algo_traces:
            fname = f"{name}__{algorithm}__seed{tr.seed}.csv"
            write_trace_csv(os.path.join(out_dir, fname), tr)
            outputs.append(fname)
        cfg = _build_config(exp, algorithm, problem)
        qt = run_quantiles(cfg, traces=algo_traces)
        qname = f"{name}__{algorithm}__quantiles.csv"
        write_quantiles_csv(os.path.join(out_dir, qname), qt)
        outputs.append(qname)
        ok = [tr for tr in algo_traces if not trace_diverged(tr)]
        summary[algorithm] = {
            "diverged_seeds": len(algo_traces) - len(ok),
            "final_grad_norm_median": float(np.median([tr.final.grad_norm for tr in ok])) if ok else math.inf,
            "final_obj_gap_median": float(np.median([tr.final.obj_gap for tr in ok])) if ok else math.inf,
            "gamma": resolved_hyper[algorithm]["gamma"],
        }

    manifest = {
        "format": MANIFEST_FORMAT,
        "version": 1,
        "package": {"name": "efsim", "version": __version__},
        "experiment": exp,
        "resolved_hyper": resolved_hyper,
        "outputs": outputs,
    }
    mpath = os.path.join(out_dir, f"{name}__manifest.json")
    tmp = mpath + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(manifest, fh, indent=1)
        fh.write("\n")
    os.replace(tmp, mpath)
    summary["_manifest"] = mpath
    summary["_all_diverged"] = all(
        summary[a]["diverged_seeds"] == len(exp["seeds"]) for a in exp["algorithms"]
    )
    return summary


def load_experiment_file(path: str) -> dict:
    """Read an experiment file; manifests are accepted and unwrapped."""
    with open(path) as fh:
        doc = json.load(fh)
    if isinstance(doc, dict) and doc.get("format") == MANIFEST_FORMAT:
        if "experiment" not in doc:
            raise SchemaError(f"{path}: manifest has no 'experiment' section")
        doc = doc["experiment"]
    if not isinstance(doc, dict):
        raise SchemaError(f"{path}: expected a JSON object")
    return doc
