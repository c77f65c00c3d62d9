"""Smoke self-test of the benchmark: every workload at a tiny horizon.

Run from the repository root:

    python3 -m pytest perfbench/test_smoke.py -q
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKDIR = os.path.join(ROOT, ".perfbench_work", "smoke")
TINY = 5

sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import run  # noqa: E402
import workloads  # noqa: E402


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


@pytest.fixture
def workdir():
    os.makedirs(WORKDIR)
    yield WORKDIR
    shutil.rmtree(WORKDIR)
    with contextlib.suppress(OSError):
        os.rmdir(os.path.dirname(WORKDIR))


@pytest.fixture
def tiny(monkeypatch):
    """Every workload at a horizon of TINY rounds."""
    monkeypatch.setattr(workloads, "ROUNDS", dict.fromkeys(workloads.ROUNDS, TINY))


def _main(capsys, *args):
    assert run.main(list(args)) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    return lines, json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in _spec()["workloads"]])
def test_every_metric_printed_with_its_unit(workload, trace, tiny, capsys):
    spec = _spec()
    lines, result = _main(capsys, "--workload", workload, "--seed", "1", "--seconds", "1", "--trace", str(trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert any(line.startswith(f"metric {m['name']} = ") and line.endswith(f" {m['unit']}") for line in lines)
    env = json.loads(next(line for line in lines if line.startswith("environment: ")).split(": ", 1)[1])
    assert {"python", "numpy", "scipy", "nproc", "cpu", "seed"} <= set(env) and env["seed"] == 1
    assert env["rounds"] == TINY
    checks = [line for line in lines if line.startswith("output check")]
    assert len(checks) >= 2 and all("0 failed" in line for line in checks)
    if trace:
        assert any(line.startswith("count check:") and line.endswith("all exact") for line in lines)
    else:  # both times were scaled by a reference timed in the same run
        assert any(line.startswith("probe reps: ") and not line.startswith("probe reps: 0,") for line in lines)
        assert any(line.startswith("setup reference reps: ") for line in lines)


def test_golden_hashes_recorded_serial_hold_in_parallel(workdir, tiny, monkeypatch, capsys):
    monkeypatch.setattr(run, "GOLDEN", os.path.join(workdir, "golden.json"))
    common = ("--workload", "mnist_small", "--seed", "0")
    assert run.main([*common, "--record-golden"]) == 0
    with open(run.GOLDEN) as fh:
        assert json.load(fh)["mnist_small"]["workers"] == 1
    capsys.readouterr()
    lines, result = _main(capsys, *common, "--seconds", "1", "--trace", "0")  # runs at workers=2
    assert result["correct"] and result["failed"] == 0
    assert any("against golden hashes" in line for line in lines)


def test_hash_mismatch_and_raise_fail_their_runs(workdir):
    runs = [("e", "a", 0), ("e", "b", 0)]
    for name in ("e__a__seed0.csv", "e__a__quantiles.csv", "e__b__seed0.csv", "e__b__quantiles.csv"):
        with open(os.path.join(workdir, name), "w") as fh:
            fh.write(name)
    golden = {name: hashlib.sha256(name.encode()).hexdigest() for name in os.listdir(workdir)}

    check = run.OutputCheck(runs, golden)
    check.check("as recorded", workdir, {})
    assert (check.attempted, check.failed) == (2, 0)

    check = run.OutputCheck(runs, {**golden, "e__b__quantiles.csv": "0" * 64})
    check.check("changed", workdir, {})
    assert (check.attempted, check.failed) == (2, 1)

    check = run.OutputCheck(runs, None)  # reference is the first pass
    check.check("pass 1", workdir, {})
    os.remove(os.path.join(workdir, "e__a__seed0.csv"))
    check.check("pass 2", workdir, {"e": "RuntimeError: boom"})
    assert (check.attempted, check.failed) == (4, 2)


def test_count_drift_is_reported():
    from tracing import Tracer

    a, b = Tracer(), Tracer()
    for t in (a, b):
        t.calls["optim.run_round"] = 10
    b.counters["compress.coords_sent"] = 1
    assert run.count_drift([a, a]) == []
    assert run.count_drift([a, b]) == ["compress.coords_sent = 0 in traced pass 1, 1 in pass 2"]


def test_exits_nonzero_without_the_program(workdir):
    bare = os.path.join(workdir, "bare")
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"), ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "quad_full", "--seed", "0", "--seconds", "1", "--trace", "0"],
        capture_output=True,
        text=True,
        cwd=bare,
        timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
