"""Figure-reproduction presets, desk-scaled where the published experiment
is too large to rerun locally.  Each preset materializes plain experiment
documents, so the exact configuration always lands in the output manifest.

* fig1:        divergence of the compressed stochastic method on the 2-d
               counterexample (constant gamma = eta = 1e-3, Top1, 10 seeds)
               for n in {1, 4, 16}; the momentum variant stays stable.
* fig5:        same setup under the decaying schedule
               gamma_t = eta_t = 0.1/sqrt(t+1).
* speedup:     the n-sweep view of fig1 (final-gradient medians across n).
* quad3:       heterogeneous quadratics at desk scale (n=20, d=100 instead
               of n=100, d=1000), sigma in {0.001, 0.01}, Top5, step sizes
               tuned per algorithm on the standard power-of-two grid.
* mnist_small: multiclass logistic regression on bundled synthetic blobs
               standing in for the full-size dataset runs.
"""

from __future__ import annotations

PRESET_NAMES = ("fig1", "fig5", "speedup", "quad3", "mnist_small")

# desk-scaling notes that ``reproduce`` prints before running the preset
_SCALE_NOTES = {
    "quad3": "desk scale: n=20, d=100 (published run used n=100, d=1000)",
    "mnist_small": "synthetic blob data at reduced dimension stands in for the published dataset",
}


def _fig1_like(name: str, n: int, hyper: dict) -> dict:
    return {
        "name": f"{name}_n{n}",
        "problem": {
            "kind": "counterexample",
            "l_smooth": 1.0,
            "sigma": 1.0,
            "variance_batch": 1,
            "n": n,
            "x0": [0.0, -0.01],
        },
        "algorithms": ["ef21_sgd", "ef21_sgdm"],
        "compressor": {"kind": "topk", "k": 1},
        "hyper": hyper,
        "seeds": list(range(10)),
        "metric_every": 100,
    }


def preset_experiments(name: str, rounds: int | None = None) -> list[dict]:
    """Experiment documents for a named preset.

    ``rounds`` overrides the horizon (the divergence figures imply T = 1e4
    through gamma = 0.1/sqrt(T); that value is the default here).
    """
    if name in ("fig1", "speedup"):
        t = rounds if rounds is not None else 10_000
        hyper = {"gamma": 1e-3, "eta": 1e-3, "batch": 1, "b_init": 1, "rounds": t}
        return [_fig1_like("fig1", n, dict(hyper)) for n in (1, 4, 16)]
    if name == "fig5":
        t = rounds if rounds is not None else 10_000
        # gamma_t = eta_t = 0.1/sqrt(t+1): base gamma 1.0 times eta_t
        hyper = {"gamma": 1.0, "eta": 0.1, "batch": 1, "b_init": 1, "rounds": t, "schedule": "inv_sqrt_t"}
        return [_fig1_like("fig5", n, dict(hyper)) for n in (1, 16)]
    if name == "quad3":
        t = rounds if rounds is not None else 2000
        exps = []
        for sigma in (0.001, 0.01):
            exps.append(
                {
                    "name": f"quad3_sigma{sigma}",
                    "problem": {"kind": "quadratic", "n": 20, "d": 100, "lam": 0.01, "s": 1.0, "seed": 0, "sigma": sigma},
                    "algorithms": ["ef14_sgd", "ef21_sgdm"],
                    "compressor": {"kind": "topk", "k": 5},
                    "hyper": {"eta": 0.1, "batch": 1, "b_init": 1, "rounds": t, "gamma": None},
                    "tune": {"k_lo": -12, "k_hi": 0, "criterion": "final_loss", "seeds": [0]},
                    "seeds": [0, 1, 2],
                    "metric_every": 20,
                }
            )
        return exps
    if name == "mnist_small":
        t = rounds if rounds is not None else 600
        return [
            {
                "name": "mnist_small",
                "problem": {
                    "kind": "blobs",
                    "classes": 10,
                    "features": 20,
                    "examples": 2000,
                    "n": 10,
                    "seed": 1,
                    "split": "by_label",
                },
                "algorithms": ["ef21_sgd", "ef21_sgdm", "ef21_sgd2m", "ef14_sgd"],
                "compressor": {"kind": "topk", "k": 10},
                "hyper": {"eta": 0.1, "batch": 1, "b_init": 32, "rounds": t, "gamma": None},
                "tune": {"k_lo": -8, "k_hi": 2, "criterion": "final_loss", "seeds": [0]},
                "seeds": [0, 1, 2],
                "metric_every": 10,
            }
        ]
    raise ValueError(f"unknown preset {name!r}; choose one of {PRESET_NAMES}")


def preset_note(name: str) -> str | None:
    return _SCALE_NOTES.get(name)
