#!/usr/bin/env python3
"""efsim benchmark runner.

Run from the repository root:

    python3 perfbench/run.py --workload quad_full --seed 0 --seconds 60 --trace 0

``--trace 0`` times whole passes of the workload through
``efsim.experiments.run_experiment`` and reports the end-to-end metrics
(``wall_s``, ``setup_s``, ``peak_rss_mb``); it installs no wrappers.  The
two times are given at a fixed host speed: each is divided by a fixed
reference timed alongside it in the same run (the kernel in ``probe.py``, and
a bare import of numpy and scipy for set-up) and multiplied by that
reference's nominal time.  ``--trace 1`` runs traced passes at ``workers=1``
and reports the per-layer split (see ``tracing.py``) and the tracing
overhead.  Every pass checks each
trace and quantile CSV it wrote: at the seed and horizon recorded in
``golden.json`` against those sha256 hashes, otherwise against the first pass
of the invocation.  A run, one (experiment, algorithm, seed) triple, fails if
either of its CSVs mismatches or its experiment raises.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give the environment, each metric with its unit, and the checks made.
``--record-golden`` instead runs one pass at ``workers=1`` and stores its
hashes in ``golden.json``.  See README.md for the workloads and what each metric predicts.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
GOLDEN = os.path.join(HERE, "golden.json")

SETUP_REPS_PER_PASS = 2

# timed in a fresh interpreter, so the import of efsim (numpy, scipy) counts;
# it prints its time and its own peak RSS in KiB, read as VmHWM because
# ru_maxrss keeps the parent's peak across the fork and exec that start it
SETUP_CODE = """
import json, sys, time
docs = json.load(sys.stdin)
t0 = time.perf_counter()
from efsim.experiments import build_compressor, build_problem, validate_experiment
for doc in docs:
    exp = validate_experiment(doc)
    build_compressor(exp["compressor"], build_problem(exp["problem"]).dim)
elapsed = time.perf_counter() - t0
with open("/proc/self/status") as fh:
    hwm = next(line.split()[1] for line in fh if line.startswith("VmHWM:"))
print(repr(elapsed), hwm)
"""

# the reference for set-up: the same interpreter start and the imports efsim
# makes from numpy and scipy, without efsim
SETUP_REF_CODE = """
import sys, time
sys.stdin.read()
t0 = time.perf_counter()
import numpy
from scipy.linalg import solveh_banded
elapsed = time.perf_counter() - t0
with open("/proc/self/status") as fh:
    hwm = next(line.split()[1] for line in fh if line.startswith("VmHWM:"))
print(repr(elapsed), hwm)
"""

# median seconds of SETUP_REF_CODE on the hardware of probe.NOMINAL_S
SETUP_REF_NOMINAL_S = 0.306


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("quad_full", "mnist_small"))
    p.add_argument("--seed", type=int, default=0, help="workload seed (0 reproduces the golden configuration)")
    p.add_argument("--seconds", type=float, default=60.0, help="time budget for the measured passes")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record-golden", action="store_true", help="store this seed's hashes instead of measuring")
    return p.parse_args(argv)


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(args, workers: int, rounds: int) -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "workload": args.workload,
        "seed": args.seed,
        "rounds": rounds,
        "workers": workers,
    }


def time_setup(docs, code: str) -> tuple[float, int]:
    """Set-up seconds and peak RSS (KiB) of one fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", code],
        input=json.dumps(docs),
        capture_output=True,
        text=True,
        cwd=ROOT,
        env=env,
        timeout=120,
        check=True,
    )
    seconds, kib = proc.stdout.strip().splitlines()[-1].split()
    return float(seconds), int(kib)


def largest_child_kib() -> int:
    """Peak RSS of the largest child reaped so far (KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss


def run_pass(docs, out_dir: str, workers: int, probe=None) -> tuple[float, dict[str, str]]:
    """Run every experiment of the workload; return the wall seconds spent in
    ``run_experiment`` and the names of experiments that raised, with their
    error.  ``probe``, if given, is called after each experiment with the
    seconds it took, outside the timed calls."""
    import efsim.experiments

    shutil.rmtree(out_dir, ignore_errors=True)
    errors = {}
    wall = 0.0
    for doc in docs:
        t0 = time.perf_counter()
        try:
            efsim.experiments.run_experiment(doc, out_dir, workers=workers)
        except Exception as exc:  # a raising experiment is counted as failed runs, not a crash
            traceback.print_exc(file=sys.stderr)
            errors[doc["name"]] = f"{type(exc).__name__}: {exc}"
        took = time.perf_counter() - t0
        wall += took
        if probe is not None:
            probe(took)
    return wall, errors


def remove_outputs(out_dir: str) -> None:
    """Delete a pass's outputs, and the work directory once it is empty."""
    shutil.rmtree(out_dir, ignore_errors=True)
    with contextlib.suppress(OSError):
        os.rmdir(WORK)


def hash_csvs(out_dir: str) -> dict[str, str]:
    hashes = {}
    for name in sorted(os.listdir(out_dir)) if os.path.isdir(out_dir) else ():
        if name.endswith(".csv"):
            with open(os.path.join(out_dir, name), "rb") as fh:
                hashes[name] = hashlib.sha256(fh.read()).hexdigest()
    return hashes


class OutputCheck:
    """Counts runs whose CSVs differ from the reference hashes."""

    def __init__(self, runs, golden: dict[str, str] | None):
        self.runs = runs
        self.reference = golden
        self.source = "golden" if golden is not None else "first pass"
        self.attempted = 0
        self.failed = 0

    def check(self, label: str, out_dir: str, errors: dict[str, str]) -> None:
        hashes = hash_csvs(out_dir)
        if self.reference is None:
            self.reference = hashes
        bad = []
        for exp, algo, seed in self.runs:
            names = (f"{exp}__{algo}__seed{seed}.csv", f"{exp}__{algo}__quantiles.csv")
            if exp in errors or any(n not in hashes or hashes[n] != self.reference.get(n) for n in names):
                bad.append(f"{exp}/{algo}/seed{seed}")
        self.attempted += len(self.runs)
        self.failed += len(bad)
        print(f"output check ({label}): {len(self.runs)} runs, {len(bad)} failed, against {self.source} hashes")
        for run in bad:
            print(f"  FAILED {run}", file=sys.stderr)


def load_golden(path: str, workload: str, seed: int, rounds: int) -> dict[str, str] | None:
    if not os.path.exists(path):
        return None
    with open(path) as fh:
        entry = json.load(fh).get(workload)
    if entry is None or entry["seed"] != seed or entry["rounds"] != rounds:
        return None
    return entry["sha256"]


def record_golden(path: str, workload: str, seed: int, rounds: int, hashes: dict[str, str]) -> None:
    data = {}
    if os.path.exists(path):
        with open(path) as fh:
            data = json.load(fh)
    data[workload] = {"seed": seed, "rounds": rounds, "workers": 1, "sha256": hashes}
    with open(path, "w") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")


def untraced(docs, workers: int, seconds: float, check: OutputCheck, out_dir: str) -> dict:
    """Passes and set-up reps alternate, so both sample the host over the
    whole run; at least two passes, so that repeats are compared.

    ``wall_s`` is the mean pass time over the mean time of the host-speed
    probe's kernel, times the kernel's nominal time.  The probe runs for a
    fixed share of the program's time: after each experiment of a pass, so it
    samples the host as evenly as the program does, except in the first pass,
    where it runs once at the end, after the memory reading.  ``setup_s`` is
    the median set-up time over the median time of the set-up reference, one
    reference rep after each set-up rep, times the reference's nominal time.
    So both read in seconds at the host speed of the reference hardware.

    ``peak_rss_mb`` is this process's peak plus that of its largest pool
    worker, both read after the first pass, before any probe or set-up
    interpreter has run, so neither counts in it.  Children reaped before
    the benchmark started (a launcher such as a ``python3`` shim passes its
    own on across exec) do not count either."""
    import probe

    setups, ref_setups, setup_kib, walls, probes = [], [], [], [], []
    launch_kib = largest_child_kib()
    pool_kib = own_kib = 0
    start = time.perf_counter()
    while True:
        sample = (lambda took: probes.extend(probe.sample(took))) if walls else None
        wall, errors = run_pass(docs, out_dir, workers, probe=sample)
        walls.append(wall)
        check.check(f"pass {len(walls)}", out_dir, errors)
        if len(walls) == 1:
            own_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            if largest_child_kib() > launch_kib:
                pool_kib = largest_child_kib()
            probes.extend(probe.sample(wall))
        for _ in range(SETUP_REPS_PER_PASS):
            for code, times in ((SETUP_CODE, setups), (SETUP_REF_CODE, ref_setups)):
                setup, kib = time_setup(docs, code)
                times.append(setup)
                setup_kib.append(kib)
        elapsed = time.perf_counter() - start
        if len(walls) >= 2 and elapsed + elapsed / len(walls) > seconds:
            break

    def each(values):
        return ", ".join(f"{v:.4f}" for v in values)

    print(f"passes: {len(walls)}, seconds in run_experiment each: {each(walls)}")
    print(f"probe reps: {len(probes)}, seconds each: {each(probes)} (nominal {probe.NOMINAL_S})")
    print(f"setup reps: {len(setups)}, seconds each: {each(setups)}")
    print(f"setup reference reps: {len(ref_setups)}, seconds each: {each(ref_setups)} (nominal {SETUP_REF_NOMINAL_S})")
    print(f"raw: mean pass {statistics.mean(walls):.4f} s, median set-up {statistics.median(setups):.4f} s")
    print(f"peak RSS: this process {own_kib / 1024:.1f} MB, largest pool worker {pool_kib / 1024:.1f} MB; "
          f"set-up interpreters (not counted) up to {max(setup_kib) / 1024:.1f} MB")
    host = probe.NOMINAL_S / statistics.mean(probes)
    setup_host = SETUP_REF_NOMINAL_S / statistics.median(ref_setups)
    return {
        "wall_s": (statistics.mean(walls) * host, "s"),
        "setup_s": (statistics.median(setups) * setup_host, "s"),
        "peak_rss_mb": ((own_kib + pool_kib) / 1024.0, "MB"),
    }


def traced_pass(docs, workers: int, out_dir: str, check: OutputCheck, label: str):
    from tracing import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        wall, errors = run_pass(docs, out_dir, workers)
    finally:
        tracer.uninstall()
    check.check(label, out_dir, errors)
    return wall, tracer


def count_drift(tracers) -> list[str]:
    """Every exact count that differs from the first traced pass."""
    first = tracers[0].exact_counts()
    drift = []
    for k, tracer in enumerate(tracers[1:], start=2):
        other = tracer.exact_counts()
        for name in sorted(set(first) | set(other)):
            if first.get(name, 0) != other.get(name, 0):
                drift.append(f"{name} = {first.get(name, 0)} in traced pass 1, {other.get(name, 0)} in pass {k}")
    return drift


def traced(docs, workers: int, seconds: float, check: OutputCheck, out_dir: str) -> tuple[dict, bool]:
    """Traced passes at workers=1 alternate with untraced ones; a workload
    that runs with more workers gets one more traced pass at that setting,
    which counts the runs that left this process for the worker pool."""
    from tracing import percentile

    tracers, traced_walls, plain_walls = [], [], []
    start = time.perf_counter()

    def traced_one():
        wall, tracer = traced_pass(docs, 1, out_dir, check, f"traced pass {len(tracers) + 1}")
        tracers.append(tracer)
        traced_walls.append(wall)

    def plain_one():
        wall, errors = run_pass(docs, out_dir, 1)
        check.check(f"untraced pass {len(plain_walls) + 1}", out_dir, errors)
        plain_walls.append(wall)

    traced_one()
    plain_one()
    traced_one()
    while time.perf_counter() - start + statistics.median(traced_walls) + statistics.median(plain_walls) <= seconds:
        plain_one()
        traced_one()

    counts = tracers[0].exact_counts()
    drift = count_drift(tracers)
    for line in drift:
        print(f"COUNT DRIFT: {line}", file=sys.stderr)
    steady = not drift
    print(f"count check: {len(counts)} counters over {len(tracers)} traced passes, {'all exact' if steady else 'DRIFTED'}")

    total_runs = counts["experiments.tune_runs"] + counts["experiments.final_runs"]
    in_process = total_runs
    if workers > 1:
        _, probe = traced_pass(docs, workers, out_dir, check, f"pool probe at workers={workers}")
        in_process = probe.calls["harness.run"]

    def med_self(*names):
        return statistics.median(sum(t.self_s[n] for n in names) for t in tracers)

    def count(name):
        return (counts.get(name, 0), "count")

    traced_wall = statistics.median(traced_walls)
    rounds_us = sorted(x for t in tracers for x in t.round_us)
    node_rounds = counts["optim.node_rounds"]
    offered = tracers[0].coords_offered
    metrics = {
        "core.stream.calls": count("core.stream.calls"),
        "core.stream.self_s": (med_self("core.stream"), "s"),
        "problems.stoch_grad.calls": count("problems.stoch_grad.calls"),
        "problems.stoch_grad_pair.calls": count("problems.stoch_grad_pair.calls"),
        "problems.stoch_grad.self_s": (med_self("problems.stoch_grad", "problems.stoch_grad_pair"), "s"),
        "problems.full_grad.calls": count("problems.full_grad.calls"),
        "problems.full_grad.self_s": (med_self("problems.full_grad"), "s"),
        "problems.value.calls": count("problems.value.calls"),
        "problems.value.self_s": (med_self("problems.value"), "s"),
        "compress.compress.calls": count("compress.compress.calls"),
        "compress.compress.self_s": (med_self("compress.compress"), "s"),
        "compress.coords_sent": count("compress.coords_sent"),
        "compress.kept_fraction": (counts["compress.coords_sent"] / offered if offered else 0.0, "ratio"),
        "optim.run_round.calls": count("optim.run_round.calls"),
        "optim.run_round.self_s": (med_self("optim.run_round"), "s"),
        "optim.run_round.p50_us": (percentile(rounds_us, 50), "us"),
        "optim.run_round.p99_us": (percentile(rounds_us, 99), "us"),
        "optim.node_rounds": count("optim.node_rounds"),
        "optim.self_us_per_node_round": (med_self("optim.run_round") * 1e6 / node_rounds if node_rounds else 0.0, "us"),
        "optim.init.self_s": (med_self("optim.init"), "s"),
        "harness.run.calls": count("harness.run.calls"),
        "harness.run.self_s": (med_self("harness.run"), "s"),
        "harness.measure.calls": count("harness.measure.calls"),
        "harness.measure.self_s": (med_self("harness.measure"), "s"),
        "harness.sweep.calls": count("harness.sweep.calls"),
        "harness.sweep.diverged_points": count("harness.sweep.diverged_points"),
        "harness.sweep.wrapped_share": (
            statistics.median(t.total_s["harness.sweep"] / w for t, w in zip(tracers, traced_walls)),
            "ratio",
        ),
        "harness.io.calls": count("harness.io.calls"),
        "harness.io.self_s": (med_self("harness.io"), "s"),
        "harness.io.bytes": (counts["harness.io.bytes"], "bytes"),
        "experiments.run_experiment.self_s": (med_self("experiments.run_experiment"), "s"),
        "experiments.tune_runs": count("experiments.tune_runs"),
        "experiments.final_runs": count("experiments.final_runs"),
        "experiments.pool_runs_share": ((total_runs - in_process) / total_runs if total_runs else 0.0, "ratio"),
        "trace.wall_s": (traced_wall, "s"),
        "trace.overhead_share": (traced_wall / statistics.median(plain_walls) - 1.0, "ratio"),
    }
    print(f"traced passes: {len(traced_walls)} ({', '.join(f'{w:.4f}' for w in traced_walls)} s), "
          f"untraced at workers=1: {len(plain_walls)} ({', '.join(f'{w:.4f}' for w in plain_walls)} s)")
    return metrics, steady


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "efsim", "__init__.py")):
        print(f"perfbench: no efsim sources at {os.path.relpath(SRC)}; run from a full checkout", file=sys.stderr)
        return 2
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import workloads

    rounds = workloads.ROUNDS[args.workload]
    docs = workloads.experiments(args.workload, args.seed)
    workers = workloads.WORKERS[args.workload]
    out_dir = os.path.join(WORK, args.workload)
    print("environment: " + json.dumps(environment(args, workers, rounds), sort_keys=True))

    if args.record_golden:
        _, errors = run_pass(docs, out_dir, 1)
        if errors:
            print(f"perfbench: not recording, experiments raised: {errors}", file=sys.stderr)
            return 1
        record_golden(GOLDEN, args.workload, args.seed, rounds, hash_csvs(out_dir))
        remove_outputs(out_dir)
        print(f"recorded golden hashes for {args.workload} (seed {args.seed}, rounds {rounds}) in {GOLDEN}")
        return 0

    check = OutputCheck(workloads.expected_runs(docs), load_golden(GOLDEN, args.workload, args.seed, rounds))
    steady = True
    if args.trace:
        metrics, steady = traced(docs, workers, args.seconds, check, out_dir)
    else:
        metrics = untraced(docs, workers, args.seconds, check, out_dir)
    remove_outputs(out_dir)

    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value!r} {unit}")
    print(f"metric runs_failed = {check.failed} of {check.attempted} runs")
    result = {
        "correct": check.failed == 0 and steady,
        "attempted": check.attempted,
        "failed": check.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
