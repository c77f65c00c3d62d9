"""The benchmark's hook points: ``perfbench/tracing.py`` wraps efsim's entry
points by name and counts runs by where they are called from, so a change to
the run path that moves or renames one of them would silently zero a
per-layer metric.  This runs the benchmark's own tracer, read from its file,
around a tiny tuned experiment."""

import importlib.util
import os

import efsim.experiments
import efsim.harness

TRACING = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench", "tracing.py")


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer()


def test_tracer_sees_every_tuning_and_final_run(tmp_path):
    exp = {
        "name": "hooks",
        "problem": {"kind": "quadratic", "n": 2, "d": 10, "lam": 0.1, "s": 1.0, "sigma": 0.05},
        "algorithms": ["ef21_sgdm"],
        "compressor": {"kind": "topk", "k": 2},
        "hyper": {"eta": 0.5, "rounds": 10},
        "seeds": [0, 1, 2],
        "tune": {"k_lo": -4, "k_hi": -1, "seeds": [5, 6]},
    }
    original = efsim.harness.run
    tracer = _tracer()
    tracer.install()
    try:
        efsim.experiments.run_experiment(exp, str(tmp_path / "out"), workers=1)
    finally:
        tracer.uninstall()
    assert efsim.harness.run is original
    for name in ("optim.run_round", "harness.sweep", "harness.run", "experiments.run_experiment"):
        assert tracer.calls[name] > 0, name
    assert tracer.counters["experiments.tune_runs"] == 4 * 2  # grid points x tune seeds
    assert tracer.counters["experiments.final_runs"] == 3
