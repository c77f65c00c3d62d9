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
import re

import numpy as np

from . import __version__, optim
from .compress import Compressor, absolute_delta, contraction_alpha
from .core import SEED_MAX, _kernel, atomic_write
from .harness import (
    ProblemPool,
    RunConfig,
    SweepResult,
    _with_gamma,
    power_grid,
    run_all,
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
    load_quadratic_task,
    logreg,
    make_blobs,
    split_examples,
)

__all__ = [
    "SchemaError",
    "SCHEMA",
    "validate_experiment",
    "check_flag",
    "check_grid",
    "build_problem",
    "build_compressor",
    "resolve_hyper",
    "tune_gamma",
    "run_experiment",
    "load_experiment_file",
]

MANIFEST_FORMAT = "efsim-manifest"
# the manifest's resolved_hyper keys, in its order
_RESOLVED_KEYS = ("gamma", "eta", "batch", "b_init", "rounds", "schedule")


class SchemaError(ValueError):
    pass


_FILE_NAME = "file name"  # a string usable as one path component
_KIND = (..., str)
_COUNT = (..., int, 1)
_SEED = (0, int, 0, SEED_MAX)
_EXPONENT = (..., int, -1074, 1023)  # 2^k is a positive finite double exactly for these k
_SPLIT = ("by_label", ("by_label", "uniform"))
_REG = (1e-3, float, 0.0)
_UNUSED = (None, None)

# section -> key -> (default, type, least, most); least and most may be left
# off (no bound), and a default of ``...`` marks a required key.  Null is
# accepted only where the default is null.  Types: int and float take JSON
# numbers (a float key also takes an integer, never a bool), bool takes true
# or false; a tuple lists the allowed strings; ``[t]`` is a nonempty list of
# t, each element within the bounds and, unless t is float, distinct (a
# repeated seed or algorithm would name two runs alike); dict is a nested
# section; None marks a key that the section's kind does not use.
# ``problem`` and ``compressor`` are looked up by their kind.  The key order
# is the resolved document's.
SCHEMA = {
    "experiment": {
        "name": (..., _FILE_NAME), "problem": (..., dict), "algorithms": (..., [optim.ALGORITHMS]),
        "compressor": (..., dict), "hyper": (..., dict), "seeds": (..., [int], 0, SEED_MAX),
        "metric_every": (1, int, 1), "lyapunov": (False, bool), "lyapunov_every": (10, int, 1), "tune": (None, dict),
        "out": (None, str),
    },
    "problem.counterexample": {
        "kind": _KIND, "l_smooth": (1.0, float), "sigma": (1.0, float, 0.0), "variance_batch": (1, int, 1),
        "n": (1, int, 1), "x0": ([0.0, -0.01], [float]),
    },
    "problem.quadratic": {
        "kind": _KIND, "n": _COUNT, "d": (..., int, 2), "lam": (..., float, 0.0), "s": (..., float, 0.0), "seed": _SEED,
        "sigma": (0.0, float, 0.0),
    },
    "problem.quadratic_file": {"kind": _KIND, "path": (..., str), "sigma": (None, float, 0.0)},
    "problem.logreg_file": {
        "kind": _KIND, "path": (..., str), "classes": _COUNT, "features": _COUNT, "n": _COUNT, "split": _SPLIT,
        "split_seed": _SEED, "reg": _REG,
    },
    "problem.blobs": {
        "kind": _KIND, "classes": _COUNT, "features": _COUNT, "examples": _COUNT, "n": _COUNT, "seed": _SEED,
        "split": _SPLIT, "split_seed": _SEED, "reg": _REG,
    },
    "compressor.topk": {"kind": _KIND, "k": _COUNT, "tau": _UNUSED},
    "compressor.randk": {"kind": _KIND, "k": _COUNT, "tau": _UNUSED},
    "compressor.identity": {"kind": _KIND, "k": _UNUSED, "tau": _UNUSED},
    "compressor.hard_threshold": {"kind": _KIND, "k": _UNUSED, "tau": (..., float)},
    "hyper": {
        "gamma": (None, float), "eta": (1.0, float), "batch": (1, int, 1), "b_init": (1, int, 1),
        "rounds": (..., int, 0), "schedule": ("constant", ("constant", "inv_sqrt_t", "inv_sqrt_T")),
        "theoretical": (False, bool),
    },
    "tune": {
        "k_lo": _EXPONENT, "k_hi": _EXPONENT, "criterion": ("final_loss", ("final_loss", "final_grad_norm")),
        "seeds": (None, [int], 0, SEED_MAX),
    },
}

_EXPECTED = {
    int: "an integer",
    float: "a finite number",
    bool: "true or false",
    str: "a string",
    _FILE_NAME: "a file name (not empty, '.' or '..', and no path separator or NUL)",
}


def _check_value(value, where: str, kind, least=None, most=None) -> None:
    if isinstance(kind, list):
        if not isinstance(value, list) or not value:
            raise SchemaError(f"{where}: expected a nonempty list, got {value!r}")
        for item in value:
            _check_value(item, where, kind[0], least, most)
        if kind[0] is not float and len(set(value)) < len(value):
            raise SchemaError(f"{where}: entries must be distinct, got {value!r}")
        return
    expected = "one of " + ", ".join(kind) if isinstance(kind, tuple) else _EXPECTED[kind]
    if isinstance(kind, tuple):
        ok = value in kind
    elif kind in (int, float):
        ok = isinstance(value, int if kind is int else (int, float)) and not isinstance(value, bool)
        ok = ok and (isinstance(value, int) or math.isfinite(value))
    elif kind is _FILE_NAME:
        ok = isinstance(value, str) and value not in ("", ".", "..") and os.path.basename(value) == value
        ok = ok and "\0" not in value
    else:
        ok = isinstance(value, kind)
    if not ok:
        raise SchemaError(f"{where}: expected {expected}, got {value!r}")
    if least is not None and value < least:
        raise SchemaError(f"{where}: must be >= {least}, got {value}")
    if most is not None and value > most:
        raise SchemaError(f"{where}: must be <= {most}, got {value}")


def _check_section(doc, where: str, name: str) -> dict:
    """``doc`` checked against the table's section ``name``, with its
    defaults filled in and its nested sections checked in turn."""
    if not isinstance(doc, dict):
        raise SchemaError(f"{where}: expected a mapping, got {type(doc).__name__}")
    if name not in SCHEMA:  # problem or compressor: one section per kind
        kinds = tuple(section.split(".")[1] for section in SCHEMA if section.startswith(f"{name}."))
        _check_value(doc.get("kind"), f"{where}.kind", kinds)
        name = f"{name}.{doc['kind']}"
    schema = SCHEMA[name]
    for key in doc:
        if key not in schema:
            raise SchemaError(f"{where}: unknown key {key!r}")
    out = {}
    for key, (default, kind, *bounds) in schema.items():
        value = doc.get(key, default)
        if value is ...:
            raise SchemaError(f"{where}: missing required key {key!r}")
        if value is None and default is None:
            pass
        elif kind is None:
            raise SchemaError(f"{where}.{key}: not used by {doc['kind']}")
        elif kind is dict:
            value = _check_section(value, f"{where}.{key}", key)
        else:
            _check_value(value, f"{where}.{key}", kind, *bounds)
        out[key] = value
    return out


def check_flag(value, where: str, section: str, key: str) -> None:
    """Check a single value against the table entry of ``section.key`` (an
    element of it, for a list key), naming it ``where`` in the error."""
    _, kind, *bounds = SCHEMA[section][key]
    _check_value(value, where, kind[0] if isinstance(kind, list) else kind, *bounds)


def check_grid(k_lo, k_hi, lo: str = "experiment.tune.k_lo", hi: str = "experiment.tune.k_hi") -> None:
    """Check the exponents of a tuning grid {2^k : k_lo <= k <= k_hi}."""
    check_flag(k_lo, lo, "tune", "k_lo")
    check_flag(k_hi, hi, "tune", "k_hi")
    if k_lo > k_hi:
        raise SchemaError(f"{hi}: must be >= {lo} ({k_lo}), got {k_hi}")


def validate_experiment(doc: dict) -> dict:
    """Validate and normalize an experiment document (defaults filled)."""
    exp = _check_section(doc, "experiment", "experiment")
    hyper, tune = exp["hyper"], exp["tune"]
    if tune is not None:
        check_grid(tune["k_lo"], tune["k_hi"])
        if hyper["theoretical"]:
            raise SchemaError("experiment: 'tune' and hyper.theoretical are mutually exclusive")
    if hyper["gamma"] is None and not hyper["theoretical"] and tune is None:
        raise SchemaError("experiment.hyper: gamma is required unless theoretical or tune is set")
    return exp


@contextlib.contextmanager
def _naming(section: str, *keys: str):
    """Re-raise a constructor's ``ValueError`` (its checks the table cannot
    state) as a ``SchemaError`` naming ``experiment.<section>.<key>``: the
    first of ``keys`` its message names, else the only key given."""
    try:
        yield
    except ValueError as exc:
        named = [key for key in keys if re.search(rf"\b{key}\b", str(exc))]
        if named or len(keys) == 1:
            raise SchemaError(f"experiment.{section}.{(named or keys)[0]}: {exc}") from exc
        raise


def build_problem(spec: dict) -> Problem:
    kind = spec["kind"]
    if kind == "counterexample":
        with _naming("problem", "l_smooth", "variance_batch", "x0"):
            return CounterexampleProblem(spec["l_smooth"], spec["sigma"], spec["variance_batch"], spec["n"], spec["x0"])
    if kind == "quadratic":
        return generate_quadratic(spec["n"], spec["d"], spec["lam"], spec["s"], spec["seed"], sigma=spec["sigma"])
    if kind == "quadratic_file":
        return load_quadratic_task(spec["path"], sigma=spec["sigma"])
    if kind == "logreg_file":
        x, y = logreg.parse_libsvm(spec["path"], spec["classes"], spec["features"])
    else:  # blobs, the last kind
        x, y = make_blobs(spec["classes"], spec["features"], spec["examples"], spec["seed"])
    with _naming("problem", "n"):  # more nodes than examples
        feats, labs = split_examples(x, y, spec["n"], spec["split"], spec["split_seed"])
    return LogRegProblem(feats, labs, spec["classes"], reg=spec["reg"])


def build_compressor(spec: dict, dim: int) -> Compressor:
    with _naming("compressor", "k", "tau"):
        return Compressor(spec["kind"], dim, k=spec["k"] or 0, tau=spec["tau"] or 0.0)


def resolve_hyper(exp: dict, algorithm: str, problem: Problem, comp: Compressor) -> HyperParams:
    """Concrete hyperparameters for one algorithm of the experiment."""
    h = exp["hyper"]
    if h["theoretical"]:
        if problem.f_star is None:
            raise SchemaError("theoretical step sizes need a problem with a known optimal value")
        delta0 = problem.value(problem.x0) - problem.f_star
        return theoretical_params(
            algorithm,
            problem.smoothness(),
            contraction_alpha(comp),
            problem.sigma,
            problem.n_nodes,
            h["rounds"],
            delta0,
            delta_abs=absolute_delta(comp),
            batch=h["batch"],
        )
    gamma = h["gamma"] if h["gamma"] is not None else 1.0
    with _naming("hyper", "gamma", "eta"):
        return HyperParams(gamma, h["rounds"], h["eta"], h["batch"], h["b_init"], h["schedule"])


def _build_config(exp: dict, algorithm: str, problem: Problem) -> RunConfig:
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


def worker_pool(workers: int, runs: int, problem: Problem | None = None):
    """A ``ProblemPool`` of at most ``workers`` workers and one per run (a
    forking pool starts every worker at its first submit), each handed
    ``problem`` once at its start, or a null context yielding None when that
    is a single worker."""
    workers = min(workers, runs)
    if workers < 2:
        return contextlib.nullcontext()
    _kernel()  # the draw path is decided here, once, and forked workers inherit it
    return ProblemPool(workers, problem)


def tune_gamma(exp: dict, algorithm: str, problem: Problem, tune: dict, pool=None) -> SweepResult:
    """Sweep the step-size grid of the tune section ``tune`` for one
    algorithm of the validated experiment ``exp``.

    The sweep runs the tune section's seeds, if it names any, else the
    experiment's, and never computes the Lyapunov diagnostic, which no
    criterion reads.  Every run is of the configuration built here on
    ``problem``, in this process or, with a pool, in a worker.  The result
    keeps the tuned configuration's traces.  If every step size diverges,
    ``SweepDiverged`` is raised.
    """
    doc = {**exp, "seeds": tune["seeds"] or exp["seeds"], "lyapunov": False}
    grid = power_grid(tune["k_lo"], tune["k_hi"])
    return sweep(_build_config(doc, algorithm, problem), grid, tune["criterion"], pool)


def run_experiment(exp: dict, out_dir: str, workers: int = 1) -> tuple[str, dict]:
    """Execute every (algorithm, seed) pair, write traces, quantiles, and a
    manifest; return the manifest's path and a summary keyed by algorithm.

    Every configuration is built, and so checked, before ``out_dir`` is
    made.  Every run, the tuning sweeps' and the final ones, is of a
    configuration built here on the one problem built here, and none is made
    twice: a final run that its algorithm's sweep made at the tuned step
    size (the same seed, and no Lyapunov column, which tuning never
    computes) is taken from the sweep.  With ``workers > 1`` one process
    pool of at most one worker per run made serves them all, and each worker
    is handed the problem once.  The outputs do not depend on ``workers``.
    If every tuning step size of an algorithm diverges, ``SweepDiverged``
    is raised.
    """
    exp = validate_experiment(exp)
    problem = build_problem(exp["problem"])
    algorithms, seeds, tune = exp["algorithms"], exp["seeds"], exp["tune"]
    configs = {a: _build_config(exp, a, problem) for a in algorithms}
    os.makedirs(out_dir, exist_ok=True)
    runs = len(seeds)  # per algorithm: its sweep's runs and the final runs the sweep does not make
    if tune is not None:
        tuned = tune["seeds"] or seeds
        # a sweep's config differs from the final one in its seeds and, where set, the Lyapunov column
        reused = set() if exp["lyapunov"] else set(tuned)
        runs = (tune["k_hi"] - tune["k_lo"] + 1) * len(tuned) + len(set(seeds) - reused)

    with worker_pool(workers, len(algorithms) * runs, problem) as pool:
        sweeps = []
        if tune is not None:
            for a in algorithms:
                sweeps.append(tune_gamma(exp, a, problem, tune, pool))
                configs[a] = _with_gamma(configs[a], sweeps[-1].best_gamma)
        # with a pool, every final run is submitted before any is collected
        traces = dict(zip(algorithms, run_all([configs[a] for a in algorithms], pool, sweeps)))

    outputs = []
    summary = {}
    resolved_hyper = {}
    name = exp["name"]
    for algorithm in algorithms:
        hyper = configs[algorithm].hyper
        resolved_hyper[algorithm] = {key: getattr(hyper, key) for key in _RESOLVED_KEYS}
        algo_traces = traces[algorithm]
        for tr in algo_traces:
            fname = f"{name}__{algorithm}__seed{tr.seed}.csv"
            write_trace_csv(os.path.join(out_dir, fname), tr)
            outputs.append(fname)
        qname = f"{name}__{algorithm}__quantiles.csv"
        write_quantiles_csv(os.path.join(out_dir, qname), run_quantiles(algo_traces))
        outputs.append(qname)
        ok = [tr for tr in algo_traces if not trace_diverged(tr)]
        summary[algorithm] = {
            "diverged_seeds": len(algo_traces) - len(ok),
            "final_grad_norm_median": float(np.median([tr.final.grad_norm for tr in ok])) if ok else math.inf,
            "final_obj_gap_median": float(np.median([tr.final.obj_gap for tr in ok])) if ok else math.inf,
            "gamma": hyper.gamma,
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
    with atomic_write(mpath) as fh:
        json.dump(manifest, fh, indent=1)
        fh.write("\n")
    return mpath, summary


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
