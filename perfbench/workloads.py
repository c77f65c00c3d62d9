"""The benchmark workloads as plain efsim experiment documents.

A workload seed ``w`` shifts every seed the documents carry (problem
generation and run seed lists); ``w = 0`` reproduces the configurations the
golden hashes were recorded for.  ``ROUNDS`` holds each workload's horizon.

Each document is handed to ``run_experiment`` once per algorithm.  The runs
and CSVs are the same as with all algorithms in one call, since an algorithm's
tuning and runs do not depend on the others', but each call is short enough
(about 3 s) for the host-speed probe to run between them.
"""

from __future__ import annotations

from efsim.presets import preset_experiments

# worker processes handed to run_experiment; mnist_small is the only
# workload whose runs can go through the pool
WORKERS = {"quad_full": 1, "mnist_small": 2}

ROUNDS = {"quad_full": 200, "mnist_small": 200}


def _quad_full(seed: int, rounds: int) -> list[dict]:
    # the source paper's quadratic study at its original scale
    return [
        {
            "name": "quad_full",
            "problem": {"kind": "quadratic", "n": 100, "d": 1000, "lam": 0.01, "s": 1.0, "seed": seed, "sigma": 0.01},
            "algorithms": ["ef14_sgd", "ef21_sgdm", "ef21_storm"],
            "compressor": {"kind": "topk", "k": 10},
            "hyper": {"gamma": 2.0**-4, "eta": 0.1, "batch": 1, "b_init": 1, "rounds": rounds},
            "seeds": [seed],
            "metric_every": 10,
        }
    ]


def _mnist_small(seed: int, rounds: int) -> list[dict]:
    docs = preset_experiments("mnist_small", rounds=rounds)
    for doc in docs:
        doc["problem"]["seed"] += seed
        doc["problem"]["split_seed"] = seed
        doc["tune"]["seeds"] = [3 * seed + s for s in doc["tune"]["seeds"]]
        doc["seeds"] = [3 * seed + s for s in doc["seeds"]]
    return docs


_MAKERS = {"quad_full": _quad_full, "mnist_small": _mnist_small}


def experiments(name: str, seed: int) -> list[dict]:
    """Experiment documents of workload ``name`` at workload seed ``seed``,
    one per algorithm."""
    return [{**doc, "algorithms": [a]} for doc in _MAKERS[name](seed, ROUNDS[name]) for a in doc["algorithms"]]


def expected_runs(docs: list[dict]) -> list[tuple[str, str, int]]:
    """Every (experiment, algorithm, seed) run the documents ask for."""
    return [(d["name"], a, s) for d in docs for a in d["algorithms"] for s in d["seeds"]]
