import ctypes
import glob
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from efsim import cli, harness
from efsim.cli import main
from efsim.experiments import (
    SCHEMA,
    SchemaError,
    _build_config,
    build_problem,
    load_experiment_file,
    run_experiment,
    tune_gamma,
    validate_experiment,
    worker_pool,
)
from efsim.harness import _with_gamma, read_trace_csv, run
from efsim.optim import ALGORITHMS
from test_compress import PINNED_DETAILS
from test_problems import node_matrix


def minimal_experiment(**kw):
    exp = {
        "name": "mini",
        "problem": {"kind": "counterexample", "sigma": 1.0, "n": 1, "x0": [0.0, -0.01]},
        "algorithms": ["ef21_sgdm"],
        "compressor": {"kind": "topk", "k": 1},
        "hyper": {"gamma": 1e-3, "eta": 1e-3, "rounds": 100},
        "seeds": [0],
        "metric_every": 20,
    }
    exp.update(kw)
    return exp


def write_exp(tmp_path, exp, name="exp.json"):
    path = tmp_path / name
    path.write_text(json.dumps(exp))
    return str(path)


# -- schema --------------------------------------------------------------------


def test_unknown_top_level_key_is_hard_error():
    with pytest.raises(SchemaError, match="unknown key 'stepsize'"):
        validate_experiment(minimal_experiment(stepsize=0.1))


def test_unknown_nested_keys_are_hard_errors():
    exp = minimal_experiment()
    exp["problem"]["noise"] = 1.0
    with pytest.raises(SchemaError, match="noise"):
        validate_experiment(exp)
    exp = minimal_experiment()
    exp["hyper"]["momentum"] = 0.9
    with pytest.raises(SchemaError, match="momentum"):
        validate_experiment(exp)


def test_missing_required_key():
    exp = minimal_experiment()
    del exp["hyper"]["rounds"]
    with pytest.raises(SchemaError, match="rounds"):
        validate_experiment(exp)


def test_unknown_algorithm_and_problem_kind():
    with pytest.raises(SchemaError, match="experiment.algorithms: expected one of .*, got 'adamw'"):
        validate_experiment(minimal_experiment(algorithms=["adamw"]))
    exp = minimal_experiment()
    exp["problem"] = {"kind": "resnet"}
    with pytest.raises(SchemaError, match="experiment.problem.kind: expected one of .*, got 'resnet'"):
        validate_experiment(exp)


def test_gamma_required_unless_derived():
    exp = minimal_experiment()
    exp["hyper"].pop("gamma")
    with pytest.raises(SchemaError, match="gamma"):
        validate_experiment(exp)
    exp["hyper"]["theoretical"] = True
    validate_experiment(exp)


def test_incompatible_algorithm_compressor_pair(tmp_path):
    exp = minimal_experiment(algorithms=["sgd"])  # sgd demands identity
    with pytest.raises(ValueError, match="identity"):
        run_experiment(exp, str(tmp_path / "out"))
    # surfaced as a clean usage error at the command level
    path = write_exp(tmp_path, exp)
    assert main(["run", path, "--out", str(tmp_path / "out2"), "--workers", "1"]) == 1


# -- run + manifest ---------------------------------------------------------------


def test_cmd_run_writes_traces_and_manifest(tmp_path):
    path = write_exp(tmp_path, minimal_experiment(seeds=[0, 1]))
    out = str(tmp_path / "out")
    assert main(["run", path, "--out", out, "--workers", "1"]) == 0
    files = sorted(os.listdir(out))
    assert "mini__ef21_sgdm__seed0.csv" in files
    assert "mini__ef21_sgdm__seed1.csv" in files
    assert "mini__ef21_sgdm__quantiles.csv" in files
    assert "mini__manifest.json" in files
    tr = read_trace_csv(os.path.join(out, "mini__ef21_sgdm__seed0.csv"))
    assert tr.records[0].t == 0
    assert tr.records[-1].t == 100


def test_manifest_rerun_is_bitwise(tmp_path):
    path = write_exp(tmp_path, minimal_experiment(seeds=[0, 1]))
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    assert main(["run", path, "--out", out1, "--workers", "1"]) == 0
    manifest = os.path.join(out1, "mini__manifest.json")
    assert main(["run", manifest, "--out", out2, "--workers", "1"]) == 0
    for name in os.listdir(out1):
        if name.endswith(".csv"):
            a = open(os.path.join(out1, name), "rb").read()
            b = open(os.path.join(out2, name), "rb").read()
            assert a == b, name


def test_manifest_records_resolved_config(tmp_path):
    path = write_exp(tmp_path, minimal_experiment())
    out = str(tmp_path / "out")
    main(["run", path, "--out", out, "--workers", "1"])
    doc = json.load(open(os.path.join(out, "mini__manifest.json")))
    assert doc["experiment"]["hyper"]["batch"] == 1  # default filled in
    assert doc["experiment"]["seeds"] == [0]
    assert doc["resolved_hyper"]["ef21_sgdm"]["gamma"] == 1e-3
    assert doc["outputs"]


def test_seed_flag_overrides_file(tmp_path):
    path = write_exp(tmp_path, minimal_experiment(seeds=[5, 6, 7]))
    out = str(tmp_path / "out")
    main(["run", path, "--out", out, "--seed", "9", "--workers", "1"])
    doc = json.load(open(os.path.join(out, "mini__manifest.json")))
    assert doc["experiment"]["seeds"] == [9]
    assert os.path.exists(os.path.join(out, "mini__ef21_sgdm__seed9.csv"))


def test_override_flag_dotted_path(tmp_path):
    path = write_exp(tmp_path, minimal_experiment())
    out = str(tmp_path / "out")
    main(["run", path, "--out", out, "--override", "hyper.rounds=40", "--override", "problem.sigma=0.5", "--workers", "1"])
    doc = json.load(open(os.path.join(out, "mini__manifest.json")))
    assert doc["experiment"]["hyper"]["rounds"] == 40
    assert doc["experiment"]["problem"]["sigma"] == 0.5


def test_run_missing_file_is_usage_error(tmp_path):
    assert main(["run", str(tmp_path / "nope.json")]) == 1


def test_run_bad_schema_exit_code(tmp_path):
    path = write_exp(tmp_path, minimal_experiment(bogus=1))
    assert main(["run", path]) == 1


def test_fractional_k_is_rejected_naming_the_key(tmp_path, capsys):
    exp = minimal_experiment()
    exp["compressor"]["k"] = 1.9  # used to run silently as Top1
    out = tmp_path / "out"
    assert main(["run", write_exp(tmp_path, exp), "--out", str(out), "--workers", "1"]) == 1
    assert "experiment.compressor.k" in capsys.readouterr().err
    assert not out.exists()


def test_boolean_seed_is_rejected_naming_the_key(tmp_path, capsys):
    out = tmp_path / "out"  # used to write mini__ef21_sgdm__seedTrue.csv
    assert main(["run", write_exp(tmp_path, minimal_experiment(seeds=[True])), "--out", str(out), "--workers", "1"]) == 1
    assert "experiment.seeds" in capsys.readouterr().err
    assert not out.exists()


def test_reproduce_zero_nodes_is_usage_error(tmp_path, capsys):
    # used to die inside optim.init with an UnboundLocalError traceback
    rc = main(["reproduce", "fig1", "--override", "problem.n=0", "--out", str(tmp_path / "rep"), "--workers", "1"])
    assert rc == 1
    assert "experiment.problem.n" in capsys.readouterr().err


_BLOBS_20_NODES = '{"kind": "blobs", "classes": 2, "features": 3, "examples": 10, "n": 20}'


@pytest.mark.parametrize("command", ["run", "reproduce", "sweep"])
@pytest.mark.parametrize(
    "overrides, message",
    [
        (["hyper.eta=2"], "experiment.hyper.eta: eta must lie in (0, 1]"),
        (["hyper.eta=0"], "experiment.hyper.eta: eta must lie in (0, 1]"),
        (["hyper.gamma=-1"], "experiment.hyper.gamma: gamma must be positive"),
        (["hyper.gamma=0"], "experiment.hyper.gamma: gamma must be positive"),
        (["compressor.k=500"], "experiment.compressor.k: topk requires 1 <= k <= d, got k=500, d=2"),
        (["problem.x0=[1,2,3]"], "experiment.problem.x0: x0 must be 2-dimensional"),
        (["problem.l_smooth=0"], "experiment.problem.l_smooth: l_smooth must be > 0, got 0"),
        (
            ['compressor={"kind": "hard_threshold", "tau": 0.0}', 'algorithms=["ef21_sgdm_abs"]'],
            "experiment.compressor.tau: hard_threshold requires tau > 0",
        ),
        ([f"problem={_BLOBS_20_NODES}"], "experiment.problem.n: cannot split 10 examples across 20 nodes"),
    ],
    ids=["eta_2", "eta_0", "gamma_neg", "gamma_0", "k_above_d", "x0_3d", "l_smooth_0", "tau_0", "n_above_examples"],
)
def test_value_only_a_constructor_checks_is_rejected_naming_the_key(tmp_path, capsys, command, overrides, message):
    # these used to exit 1 with the constructor's message alone
    out = tmp_path / "out"
    argv = {
        "run": ["run", write_exp(tmp_path, minimal_experiment()), "--out", str(out)],
        "reproduce": ["reproduce", "fig1", "--rounds", "5", "--out", str(out)],
        "sweep": ["sweep", write_exp(tmp_path, minimal_experiment()), "--k-lo", "-2", "--k-hi", "-1"],
    }[command]
    for override in overrides:
        argv += ["--override", override]
    assert main([*argv, "--workers", "1"]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


BIG = 2**64  # one past the largest seed


@pytest.mark.parametrize(
    "override, key",
    [
        ('hyper.gamma="0.1"', "experiment.hyper.gamma"),  # used to die with a TypeError traceback
        ('problem.lam="a"', "experiment.problem.lam"),  # likewise
        ("hyper.eta=null", "experiment.hyper.eta"),  # likewise
        ('hyper.theoretical="no"', "experiment.hyper.theoretical"),  # used to run the theoretical step sizes
        ('lyapunov="yes"', "experiment.lyapunov"),  # used to turn the diagnostic on
        # compressor keys go by kind; null stays accepted
        ('compressor={"kind": "identity", "k": 3}', "experiment.compressor.k: not used by identity"),
        ("compressor.tau=0.1", "experiment.compressor.tau: not used by topk"),
        ('compressor={"kind": "hard_threshold", "k": 2, "tau": 0.1}', "experiment.compressor.k"),
        ('compressor={"kind": "hard_threshold"}', "experiment.compressor: missing required key 'tau'"),
        ('compressor={"kind": "zip"}', "experiment.compressor.kind"),
        # seeds lie in [0, 2^64 - 1]; these used to alias seed 0
        (f"seeds=[{BIG}]", "experiment.seeds"),
        (f"problem.seed={BIG}", "experiment.problem.seed"),
        (f'tune={{"k_lo": -2, "k_hi": 0, "seeds": [{BIG}]}}', "experiment.tune.seeds"),
        ('tune={"k_lo": -2, "k_hi": 0, "seeds": []}', "experiment.tune.seeds"),
        # 2^k must be a positive finite double, and the grid nonempty
        ('tune={"k_lo": 1020, "k_hi": 1030}', "experiment.tune.k_hi"),
        ('tune={"k_lo": -1075, "k_hi": 0}', "experiment.tune.k_lo"),
        ('tune={"k_lo": 2, "k_hi": 1}', "experiment.tune.k_hi"),
        ('tune={"k_lo": -2, "k_hi": 0, "criterion": "best"}', "experiment.tune.criterion"),
        # string keys are typed
        ("name=a/b", "experiment.name"),  # used to run every run, then die writing the CSVs
        ("name=7", "experiment.name"),  # used to be turned into "7"
        ('name=""', "experiment.name"),
        ("name=..", "experiment.name"),
        ('name="a\\u0000b"', "experiment.name"),  # used to run every run, then fail to open the CSV
        ("out=5", "experiment.out"),  # used to die with a TypeError traceback
        ("hyper.schedule=linear", "experiment.hyper.schedule"),
        ('problem={"kind": "counterexample", "x0": [0.0, "a"]}', "experiment.problem.x0"),
        ('problem={"kind": "quadratic_file", "path": 5}', "experiment.problem.path"),  # used to read descriptor 5
        ('problem={"kind": "blobs", "classes": 2, "features": 3, "examples": 20, "n": 2, "split": "random"}',
         "experiment.problem.split"),
        (f'problem={{"kind": "blobs", "classes": 2, "features": 3, "examples": 20, "n": 2, "split_seed": {BIG}}}',
         "experiment.problem.split_seed"),
        # a run is named by its algorithm and seed, so the lists hold distinct entries
        ("seeds=[0,0]", "experiment.seeds"),  # used to write one CSV twice over and list it twice
        ('algorithms=["ef21_sgdm","ef21_sgdm"]', "experiment.algorithms"),  # used to run all, then die in min()
        ('tune={"k_lo": -2, "k_hi": 0, "seeds": [3, 3]}', "experiment.tune.seeds"),
    ],
    ids=["string_gamma", "string_lam", "null_eta", "string_theoretical", "string_lyapunov",
         "identity_k", "topk_tau", "hard_threshold_k", "hard_threshold_no_tau", "unknown_compressor",
         "seed_2_64", "problem_seed_2_64", "tune_seed_2_64", "tune_seeds_empty",
         "k_hi_1030", "k_lo_-1075", "k_lo_above_k_hi", "criterion", "name_path", "name_int", "name_empty",
         "name_dotdot", "name_nul", "out_int", "schedule", "x0_string", "path_int", "split",
         "split_seed_2_64", "seeds_repeated", "algorithms_repeated", "tune_seeds_repeated"],
)
def test_mistyped_real_and_bool_keys_are_rejected_naming_the_key(tmp_path, capsys, override, key):
    # every key of the schema table, not only the real and boolean ones
    exp = minimal_experiment(problem={"kind": "quadratic", "n": 2, "d": 10, "lam": 0.1, "s": 1.0})
    out = tmp_path / "out"
    assert main(["run", write_exp(tmp_path, exp), "--override", override, "--out", str(out), "--workers", "1"]) == 1
    assert key in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["verify", "storm", "--seed", "-1"], "--seed"),  # used to run with the key masked to 2^64 - 1
        (["verify", "storm", "--seed", str(BIG)], "--seed"),
        (["verify", "floors", "--seed", "-1"], "--seed"),
        (["sweep", "EXP", "--k-lo", "0", "--k-hi", "1024"], "--k-hi"),  # used to die with an OverflowError
        (["sweep", "EXP", "--k-lo", "-1075"], "--k-lo"),
        (["sweep", "EXP", "--k-lo", "3", "--k-hi", "2"], "--k-hi"),  # used to say "empty step-size grid"
        (["sweep", "EXP", "--seed", "-1"], "experiment.seeds"),
        (["run", "EXP", "--seed", str(BIG)], "experiment.seeds"),
        (["run", "EXP", "--workers", "0"], "--workers"),  # used to run serially
        (["sweep", "EXP", "--workers", "-3"], "--workers"),
        (["reproduce", "fig1", "--workers", "0"], "--workers"),
        (["gen", "quadratic", "OUT", "--n", "2", "--d", "5", "--lam", "0.1", "--s", "1", "--seed", "-1"], "seed"),
        (["sweep", "EXP", "--metric-every", "0"], "experiment.metric_every"),  # used to be ignored
        # gen used to write a task file that loading rejects, or to die with an IndexError
        (["gen", "quadratic", "OUT", "--n", "2", "--d", "5", "--lam", "0.1", "--s", "1", "--sigma", "-1"], "--sigma"),
        (["gen", "quadratic", "OUT", "--n", "2", "--d", "5", "--lam", "nan", "--s", "1"], "--lam"),
        (["gen", "quadratic", "OUT", "--n", "2", "--d", "5", "--lam", "0.1", "--s", "inf"], "--s"),
        (["gen", "quadratic", "OUT", "--n", "0", "--d", "5", "--lam", "0.1", "--s", "1"], "--n"),
        (["gen", "quadratic", "OUT", "--n", "2", "--d", "1", "--lam", "0.1", "--s", "1"], "--d"),
        (["gen", "blobs", "OUT", "--classes", "0", "--features", "2", "--examples", "5"], "--classes"),
        (["gen", "blobs", "OUT", "--classes", "2", "--features", "2", "--examples", "5", "--seed", str(BIG)], "--seed"),
    ],
    ids=["verify_seed_negative", "verify_seed_2_64", "verify_floors_seed_negative", "sweep_k_hi_1024",
         "sweep_k_lo_-1075", "sweep_k_lo_above_k_hi", "sweep_seed_negative", "run_seed_2_64", "run_workers_0",
         "sweep_workers_-3", "reproduce_workers_0", "gen_seed_negative", "sweep_metric_every_0",
         "gen_sigma_negative", "gen_lam_nan", "gen_s_inf", "gen_n_0", "gen_d_1", "gen_blobs_classes_0",
         "gen_blobs_seed_2_64"],
)
def test_bad_flag_is_rejected_naming_it(tmp_path, capsys, argv, flag):
    out = tmp_path / "out"
    argv = [str(out) if a == "OUT" else write_exp(tmp_path, minimal_experiment()) if a == "EXP" else a for a in argv]
    if argv[0] in ("run", "reproduce"):
        argv += ["--out", str(out)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert flag in err
    assert "Traceback" not in err
    assert not out.exists()


def test_sweep_has_no_out_flag(tmp_path, capsys):
    # sweep writes no file; a usage error exits 1 like a bad document (2 means every run diverged)
    with pytest.raises(SystemExit) as exc:
        main(["sweep", write_exp(tmp_path, minimal_experiment()), "--out", str(tmp_path / "out")])
    assert exc.value.code == 1
    assert "unrecognized arguments: --out" in capsys.readouterr().err


def test_missing_task_file_is_usage_error(tmp_path, capsys):
    # used to end in a FileNotFoundError traceback
    missing = str(tmp_path / "missing.json")
    exp = minimal_experiment(problem={"kind": "quadratic_file", "path": missing})
    out = tmp_path / "out"
    for argv in (["run", "--out", str(out)], ["sweep"]):
        assert main([*argv, write_exp(tmp_path, exp), "--workers", "1"]) == 1
        assert missing in capsys.readouterr().err
        assert not out.exists()


TASK = {
    "format": "efsim-quadratic-task", "version": 1, "params": {}, "sigma": 0.0, "tri_scale": [0.25, 0.3],
    "b_first": [-0.25, -0.3], "shift": 0.1, "dim": 4,
}


@pytest.mark.parametrize(
    "content, key",
    [
        ([1], "format"),  # used to end in an AttributeError traceback
        ({**TASK, "format": "efsim-manifest"}, "format"),
        ({k: v for k, v in TASK.items() if k != "dim"}, "dim"),  # used to end in a KeyError traceback
        ({**TASK, "dim": 1, "sigma": -0.5}, "dim"),  # used to exit 1 on numpy's "unexpected array size"
        ({**TASK, "dim": 4.0}, "dim"),
        ({**TASK, "dim": True}, "dim"),
        ({**TASK, "version": 2}, "version"),
        ({**TASK, "tri_scale": [], "b_first": []}, "tri_scale"),  # used to end in a StopIteration traceback
        ({**TASK, "tri_scale": [0.25, "a"]}, "tri_scale"),
        ({**TASK, "b_first": [-0.25]}, "b_first"),  # used to be broadcast over both nodes silently
        ({**TASK, "shift": float("nan")}, "shift"),
        ({**TASK, "sigma": -0.5}, "sigma"),
        ({k: v for k, v in TASK.items() if k != "params"}, "params"),
        ({**TASK, "sigmaa": 0.5, "shfit": 3.0}, "['shfit', 'sigmaa']"),  # used to run, the misspelt keys ignored
    ],
    ids=["not_an_object", "wrong_format", "no_dim", "dim_1_negative_sigma", "float_dim", "bool_dim", "version_2",
         "empty_lists", "string_scale", "short_b_first", "nan_shift", "negative_sigma", "no_params", "unknown_keys"],
)
def test_malformed_task_file_is_usage_error(tmp_path, capsys, content, key):
    task = tmp_path / "task.json"
    task.write_text(json.dumps(content))
    exp = minimal_experiment(problem={"kind": "quadratic_file", "path": str(task)})
    out = tmp_path / "out"
    for argv in (["run", "--out", str(out)], ["sweep"]):
        assert main([*argv, write_exp(tmp_path, exp), "--workers", "1"]) == 1
        err = capsys.readouterr().err
        assert str(task) in err and key in err
        assert not out.exists()


@pytest.mark.parametrize(
    "line, what",
    [
        ("2 1:nan", "feature value 'nan'"),  # these three used to run and exit 2 as "diverged"
        ("1 2:inf", "feature value 'inf'"),
        ("1 1:1e400", "feature value '1e400'"),
        ("inf 1:0.5", "label 'inf'"),  # used to end in an OverflowError traceback
        ("1.5 1:0.5", "label '1.5'"),  # used to be read as class 1
        ("1 1:0.5 1:0.7", "feature index 1 is not above the previous index 1"),  # used to keep the last value
        ("1 2:0.5 1:0.7", "feature index 1 is not above the previous index 2"),
    ],
    ids=["nan_feature", "inf_feature", "overflowing_feature", "inf_label", "fractional_label", "repeated_index",
         "descending_index"],
)
def test_malformed_libsvm_file_is_usage_error(tmp_path, capsys, line, what):
    data = tmp_path / "data.txt"
    data.write_text(f"1 1:0.5 2:-1\n2 1:1.5\n{line}\n2 2:0.25\n")
    exp = minimal_experiment(problem={"kind": "logreg_file", "path": str(data), "classes": 2, "features": 2, "n": 2})
    out = tmp_path / "out"
    assert main(["run", write_exp(tmp_path, exp), "--out", str(out), "--workers", "1"]) == 1
    assert f"{data}:3: {what}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("theoretical", [False, True], ids=["fixed_gamma", "theoretical"])
@pytest.mark.parametrize("l_smooth", [-1, 0])
def test_nonpositive_l_smooth_is_rejected_naming_it(tmp_path, capsys, l_smooth, theoretical):
    # -1 used to run to a negative obj_gap, 0 with theoretical step sizes to a ZeroDivisionError
    out = tmp_path / "out"
    argv = ["run", write_exp(tmp_path, minimal_experiment()), "--override", f"problem.l_smooth={l_smooth}"]
    argv += ["--override", f"hyper.theoretical={json.dumps(theoretical)}", "--out", str(out), "--workers", "1"]
    assert main(argv) == 1
    assert "l_smooth" in capsys.readouterr().err
    assert not out.exists()


def test_repeated_x0_values_are_accepted():
    # x0 is a point, not a list of names
    exp = minimal_experiment(problem={"kind": "counterexample", "x0": [0.5, 0.5]})
    assert validate_experiment(exp)["problem"]["x0"] == [0.5, 0.5]


# a manifest as the previous schema resolved it ("tau": null on topk): it
# must keep replaying to the same trace bytes
PARENT_MANIFEST = {
    "format": "efsim-manifest",
    "version": 1,
    "package": {"name": "efsim", "version": "0.1.0"},
    "experiment": {
        "name": "mini",
        "problem": {"kind": "counterexample", "l_smooth": 1.0, "sigma": 1.0, "variance_batch": 1, "n": 1,
                    "x0": [0.0, -0.01]},
        "algorithms": ["ef21_sgdm"],
        "compressor": {"kind": "topk", "k": 1, "tau": None},
        "hyper": {"gamma": 0.001, "eta": 0.001, "batch": 1, "b_init": 1, "rounds": 100, "schedule": "constant",
                  "theoretical": False},
        "seeds": [0, 1],
        "metric_every": 20,
        "lyapunov": False,
        "lyapunov_every": 10,
        "tune": None,
        "out": None,
    },
    "resolved_hyper": {
        "ef21_sgdm": {"gamma": 0.001, "eta": 0.001, "batch": 1, "b_init": 1, "rounds": 100, "schedule": "constant"}
    },
    "outputs": ["mini__ef21_sgdm__seed0.csv", "mini__ef21_sgdm__seed1.csv", "mini__ef21_sgdm__quantiles.csv"],
}
PARENT_SHA256 = {
    "mini__ef21_sgdm__seed0.csv": "e6dd66b62a08bdb4cd27b40622846f6a25e2da9243dd09f4a2a2e1c352522624",
    "mini__ef21_sgdm__seed1.csv": "111869f5f6ce63862576b6712b51fbe833e000a9498a9586f748fdb6ea62d45d",
    "mini__ef21_sgdm__quantiles.csv": "29c9708a3cb0954f77884b8c57db0cbd0e350ed0ede28ea77fe46da7ce4ebacd",
}


def test_previously_written_manifest_replays(tmp_path):
    out = tmp_path / "out"
    assert main(["run", write_exp(tmp_path, PARENT_MANIFEST), "--out", str(out), "--workers", "1"]) == 0
    for name, digest in PARENT_SHA256.items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, name
    assert json.loads((out / "mini__manifest.json").read_text()) == PARENT_MANIFEST


def test_null_unused_compressor_keys_are_accepted():
    for kind, used in (("identity", {}), ("topk", {"k": 1}), ("hard_threshold", {"tau": 0.1})):
        comp = {"kind": kind, "k": None, "tau": None, **used}
        assert validate_experiment(minimal_experiment(compressor=comp))["compressor"] == comp


def test_all_seeds_diverging_exit_code(tmp_path):
    exp = minimal_experiment()
    exp["hyper"]["gamma"] = 1e9
    exp["problem"] = {"kind": "quadratic", "n": 2, "d": 10, "lam": 0.1, "s": 1.0, "sigma": 0.0}
    exp["compressor"] = {"kind": "topk", "k": 2}
    exp["hyper"]["eta"] = 1.0
    path = write_exp(tmp_path, exp)
    assert main(["run", path, "--out", str(tmp_path / "out"), "--workers", "1"]) == 2


def _assert_workers_match(tmp_path, exp, workers="2"):
    """Run ``exp`` at ``--workers 1`` and ``workers``: both exit 0 and write
    the same files, the manifest included, byte for byte.  Return the
    second output directory."""
    path = write_exp(tmp_path, exp)
    serial, par = tmp_path / "serial", tmp_path / "par"
    assert main(["run", path, "--out", str(serial), "--workers", "1"]) == 0
    assert main(["run", path, "--out", str(par), "--workers", workers]) == 0
    names = sorted(os.listdir(serial))
    assert names == sorted(os.listdir(par)) and f"{exp['name']}__manifest.json" in names
    for name in names:
        assert (serial / name).read_bytes() == (par / name).read_bytes(), name
    return par


def test_parallel_workers_match_serial(tmp_path):
    _assert_workers_match(tmp_path, minimal_experiment(seeds=[0, 1, 2, 3]), workers="4")


def test_parallel_workers_match_serial_theoretical_lyapunov(tmp_path):
    # pooled final runs are of the configuration the parent built, theoretical
    # step sizes and the Lyapunov column included
    exp = minimal_experiment(seeds=[0, 1], algorithms=["ef21_sgdm", "ef21_sgd2m"], lyapunov=True, lyapunov_every=5)
    exp["problem"] = {"kind": "quadratic", "n": 4, "d": 20, "lam": 0.1, "s": 1.0, "sigma": 0.01}
    exp["compressor"] = {"kind": "topk", "k": 2}
    exp["hyper"] = {"theoretical": True, "rounds": 40}
    _assert_workers_match(tmp_path, exp)


@pytest.mark.parametrize("tune_seeds", [[5, 6], None], ids=["own_seeds", "run_seeds"])
def test_parallel_workers_match_serial_under_tuning(tmp_path, tune_seeds):
    # tuning runs the tune seeds, or else the experiment's seeds, never with
    # the Lyapunov column; the final runs keep it
    exp = minimal_experiment(seeds=[0, 1, 2], lyapunov=True, algorithms=["ef21_sgdm", "ef21_sgd2m"])
    exp["hyper"] = {"eta": 0.1, "rounds": 60}
    exp["tune"] = {"k_lo": -8, "k_hi": 4, "seeds": tune_seeds}
    out = _assert_workers_match(tmp_path, exp)
    resolved = json.loads((out / "mini__manifest.json").read_text())["resolved_hyper"]
    assert all(resolved[a]["gamma"] in [2.0**k for k in range(-8, 5)] for a in exp["algorithms"])


@pytest.mark.parametrize("kind", ["blobs", "logreg_file", "quadratic_file"])
def test_parallel_workers_match_serial_on_file_and_blob_problems(tmp_path, data_files, kind):
    # a worker runs the configuration the parent built, problem included
    exp = minimal_experiment(seeds=[0, 1], algorithms=["ef21_sgdm", "ef14_sgd"])
    exp["problem"] = _kind_bases(*data_files)[f"problem.{kind}"]
    exp["compressor"] = {"kind": "topk", "k": 2}
    exp["hyper"] = {"eta": 0.3, "rounds": 20}
    exp["tune"] = {"k_lo": -6, "k_hi": -4, "seeds": [5, 6]}
    _assert_workers_match(tmp_path, exp)


def test_pooled_logreg_file_run_parses_its_file_once(tmp_path, data_files, pool_sizes, monkeypatch):
    from efsim.problems import logreg

    calls = []
    real = logreg.parse_libsvm
    monkeypatch.setattr(logreg, "parse_libsvm", lambda *a: calls.append(a) or real(*a))
    exp = minimal_experiment(seeds=[0, 1], problem=_kind_bases(*data_files)["problem.logreg_file"])
    exp["compressor"] = {"kind": "topk", "k": 2}
    exp["hyper"] = {"eta": 0.3, "rounds": 20}
    exp["tune"] = {"k_lo": -4, "k_hi": -2, "seeds": [5]}
    run_experiment(exp, str(tmp_path / "out"), workers=4)
    assert pool_sizes == [4] and len(calls) == 1


def test_serial_run_builds_the_problem_once(tmp_path, monkeypatch):
    from efsim import experiments

    calls = []
    real = experiments.build_problem
    monkeypatch.setattr(experiments, "build_problem", lambda spec: calls.append(spec) or real(spec))
    exp = minimal_experiment(seeds=[0, 1], algorithms=["ef21_sgdm", "ef21_sgd2m"])
    exp["hyper"] = {"eta": 0.1, "rounds": 20}
    exp["tune"] = {"k_lo": -4, "k_hi": -2, "seeds": [5]}
    run_experiment(exp, str(tmp_path / "out"), workers=1)
    assert len(calls) == 1


@pytest.fixture
def pool_sizes(monkeypatch):
    """The ``max_workers`` of every pool the experiments module opens.  The
    pools are thread pools, which start their threads lazily, so a large
    ``max_workers`` starts nothing."""
    from efsim import experiments

    sizes = []

    class RecordingPool(ThreadPoolExecutor):
        def __init__(self, max_workers):
            sizes.append(max_workers)
            super().__init__(max_workers=max_workers)

    monkeypatch.setattr(experiments, "ProcessPoolExecutor", RecordingPool)
    return sizes


@pytest.mark.parametrize(
    "seeds, tune, sizes",
    [([0, 1], None, [2]), ([0], None, []), ([0, 1], {"k_lo": -4, "k_hi": -2, "seeds": [5]}, [5])],
    ids=["two_runs", "one_run", "tuned"],
)
def test_worker_pool_has_no_more_workers_than_runs(tmp_path, pool_sizes, seeds, tune, sizes):
    # a forking pool starts all its workers at the first submit; the parent opened 64 here
    exp = minimal_experiment(seeds=seeds, tune=tune)
    exp["hyper"]["rounds"] = 20
    run_experiment(exp, str(tmp_path / "out"), workers=64)
    assert pool_sizes == sizes


def test_cmd_sweep_pool_has_no_more_workers_than_runs(tmp_path, capsys, pool_sizes):
    path = write_exp(tmp_path, minimal_experiment(seeds=[0, 1]))
    assert main(["sweep", path, "--k-lo", "-12", "--k-hi", "-10", "--workers", "64"]) == 0
    assert pool_sizes == [6]  # 3 grid points x 2 seeds


def _blas_threads() -> tuple[int, int]:
    """The thread count of numpy's bundled OpenBLAS, after a product large
    enough to use its threads, and the threads this process runs."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__) + ".libs", "libscipy_openblas64_*.so"))
    np.ones((300, 300)) @ np.ones((300, 300))
    return ctypes.CDLL(libs[0]).scipy_openblas_get_num_threads64_() if libs else -1, len(os.listdir("/proc/self/task"))


def _require_bundled_blas():
    if not os.path.isdir("/proc/self/task") or _blas_threads()[0] == -1:
        pytest.skip("needs numpy's bundled scipy-openblas and /proc")


def test_pool_workers_run_one_blas_thread(monkeypatch):
    # a forked worker's runs see the ``run`` patched here; each runs on one
    # BLAS thread and starts no other
    _require_bundled_blas()
    monkeypatch.setattr(harness, "run", lambda cfg, seed: _blas_threads())
    with worker_pool(2, 2) as pool:
        assert harness.run_all([SimpleNamespace(seeds=(0, 1))], pool) == [[(1, 1), (1, 1)]]


def test_serial_runs_use_one_blas_thread_and_restore_the_count(monkeypatch):
    _require_bundled_blas()
    monkeypatch.setattr(harness, "run", lambda cfg, seed: _blas_threads()[0])
    before = _blas_threads()[0]
    assert harness.run_all([SimpleNamespace(seeds=(0, 1))]) == [[1, 1]]
    assert _blas_threads()[0] == before


def _blas_sensitive_experiment():
    """A logistic regression whose full-data gradient product gives other
    bits at 1 and 2 OpenBLAS threads: its traces differ from t = 3 when runs
    use the library's default count."""
    return minimal_experiment(
        name="blas",
        problem={"kind": "blobs", "classes": 10, "features": 100, "examples": 10_000, "n": 4, "split": "uniform"},
        algorithms=["ef21_sgd_ideal"],
        compressor={"kind": "topk", "k": 100},
        hyper={"gamma": 0.5, "rounds": 5},
        metric_every=1,
    )


def test_trace_bytes_do_not_depend_on_the_blas_thread_default(tmp_path):
    _require_bundled_blas()
    path, outputs = write_exp(tmp_path, _blas_sensitive_experiment()), []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=os.pathsep.join(sys.path))
        subprocess.run([sys.executable, "-m", "efsim.cli", "run", path, "--out", str(out), "--workers", "1"],
                       env=env, check=True, capture_output=True, timeout=300)
        outputs.append({name: (out / name).read_bytes() for name in sorted(os.listdir(out))})
    assert len(outputs[0]) == 3 and outputs[0] == outputs[1]


def test_parallel_workers_match_serial_on_a_blas_sensitive_problem(tmp_path):
    _assert_workers_match(tmp_path, _blas_sensitive_experiment() | {"seeds": [0, 1]})


@pytest.mark.parametrize("workers", ["1", "2"])
@pytest.mark.parametrize(
    "change, message",
    [
        ({"algorithms": ["ef21_sgdm", "sgd"]}, "use the identity compressor"),
        ({"algorithms": ["ef21_sgd"], "lyapunov": True}, "keeps no momentum estimator"),
        (
            {
                "problem": {"kind": "blobs", "classes": 2, "features": 4, "examples": 40, "n": 2},
                "hyper": {"theoretical": True, "rounds": 10},
            },
            "need a problem with a known optimal value",
        ),
        ("reproduce", "use the identity compressor"),  # fig1 with sgd on its topk compressor
    ],
    ids=["sgd_with_topk", "lyapunov_without_momentum", "theoretical_without_f_star", "reproduce_sgd_with_topk"],
)
def test_config_error_leaves_no_output_directory(tmp_path, capsys, change, message, workers):
    if change == "reproduce":  # used to write fig1_n1__experiment.json before building the configurations
        argv = ["reproduce", "fig1", "--rounds", "10", "--override", 'algorithms=["sgd"]']
    else:
        argv = ["run", write_exp(tmp_path, minimal_experiment(seeds=[0, 1], **change))]
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out), "--workers", workers]) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


class _InlinePool:
    """A pool that runs each mapped item at once in this process and
    records it."""

    def __init__(self):
        self.items = []

    def map(self, fn, *iterables):
        items = list(zip(*iterables))
        self.items += items
        return iter([fn(*item) for item in items])


@pytest.mark.parametrize("tune_seeds, seeds", [([5, 6], (5, 6)), (None, (0, 1, 2))], ids=["own_seeds", "run_seeds"])
def test_tuning_never_computes_lyapunov(tune_seeds, seeds, monkeypatch):
    from efsim import harness

    calls = []
    real = harness.lyapunov
    monkeypatch.setattr(harness, "lyapunov", lambda *a, **kw: calls.append(a) or real(*a, **kw))
    exp = minimal_experiment(seeds=[0, 1, 2], lyapunov=True, lyapunov_every=5)
    exp["hyper"] = {"eta": 0.1, "rounds": 20}
    exp["tune"] = {"k_lo": -2, "k_hi": 0, "seeds": tune_seeds}
    exp = validate_experiment(exp)
    problem = build_problem(exp["problem"])
    cfg = tune_gamma(exp, "ef21_sgdm", problem, exp["tune"]).best_config
    assert cfg.seeds == seeds and not cfg.lyapunov
    pool = _InlinePool()  # the runs a worker pool would do
    tune_gamma(exp, "ef21_sgdm", problem, exp["tune"], pool)
    assert [seed for _, seed in pool.items] == list(seeds) * 3
    assert all(not cfg.lyapunov for cfg, _ in pool.items)
    assert calls == []
    final = _with_gamma(_build_config(exp, "ef21_sgdm", problem), 0.25)  # as run_experiment builds it
    assert run(final, seeds[0]).final.lyapunov is not None


def _diverging_tune_experiment():
    exp = minimal_experiment()
    exp["problem"] = {"kind": "quadratic", "n": 2, "d": 10, "lam": 0.1, "s": 1.0, "sigma": 0.0}
    exp["compressor"] = {"kind": "topk", "k": 2}
    exp["hyper"] = {"eta": 1.0, "rounds": 50}
    exp["tune"] = {"k_lo": 20, "k_hi": 22}
    return exp


@pytest.mark.parametrize("workers", ["1", "2"])
def test_run_every_tuning_point_diverging_exits_2(tmp_path, capsys, workers):
    path = write_exp(tmp_path, _diverging_tune_experiment())
    assert main(["run", path, "--out", str(tmp_path / "out"), "--workers", workers]) == 2
    assert "ef21_sgdm: all grid points diverged" in capsys.readouterr().out


def test_reproduce_every_tuning_point_diverging_exits_2(tmp_path, capsys):
    tune = ["--override", 'tune={"k_lo": 20, "k_hi": 22}', "--seed", "0"]
    rc = main(["reproduce", "fig1", "--rounds", "20", *tune, "--out", str(tmp_path / "rep"), "--workers", "1"])
    assert rc == 2
    assert "ef21_sgd: all grid points diverged" in capsys.readouterr().out


# -- theoretical hyper resolution ---------------------------------------------------


def test_theoretical_hyper_resolution(tmp_path):
    exp = minimal_experiment()
    exp["problem"] = {"kind": "quadratic", "n": 4, "d": 20, "lam": 0.1, "s": 1.0, "sigma": 0.01}
    exp["compressor"] = {"kind": "topk", "k": 2}
    exp["hyper"] = {"theoretical": True, "rounds": 50}
    path = write_exp(tmp_path, exp)
    out = str(tmp_path / "out")
    assert main(["run", path, "--out", out, "--workers", "1"]) == 0
    doc = json.load(open(os.path.join(out, "mini__manifest.json")))
    assert doc["resolved_hyper"]["ef21_sgdm"]["gamma"] > 0


# -- gen ----------------------------------------------------------------------------


def test_gen_quadratic_reload_invariant(tmp_path):
    from efsim.problems import load_quadratic_task

    path = str(tmp_path / "task.json")
    assert main(["gen", "quadratic", path, "--n", "10", "--d", "50", "--lam", "0.01", "--s", "1.0", "--seed", "3"]) == 0
    prob = load_quadratic_task(path)
    assert prob.mean_lambda_min() == pytest.approx(0.01, abs=1e-8)
    qbar = sum(node_matrix(prob, i) for i in range(10))
    assert np.linalg.eigvalsh(qbar / 10).min() == pytest.approx(0.01, abs=1e-8)


def test_gen_quadratic_zero_scale_identical_nodes(tmp_path):
    from efsim.problems import load_quadratic_task

    path = str(tmp_path / "flat.json")
    main(["gen", "quadratic", path, "--n", "4", "--d", "12", "--lam", "0.1", "--s", "0.0"])
    prob = load_quadratic_task(path)
    assert np.all(prob.tri_scale == prob.tri_scale[0])
    assert np.all(prob.b == prob.b[0])


def test_gen_blobs_round_trip(tmp_path):
    from efsim.problems import parse_libsvm

    path = str(tmp_path / "blobs.txt")
    assert main(["gen", "blobs", path, "--classes", "2", "--features", "10", "--examples", "200"]) == 0
    assert sum(1 for _ in open(path)) == 200
    x, y = parse_libsvm(path, classes=2, n_features=10)
    assert x.shape == (200, 10)


def test_quadratic_file_experiment(tmp_path):
    task = str(tmp_path / "task.json")
    main(["gen", "quadratic", task, "--n", "3", "--d", "15", "--lam", "0.05", "--s", "1.0"])
    exp = minimal_experiment()
    exp["problem"] = {"kind": "quadratic_file", "path": task, "sigma": 0.05}
    exp["compressor"] = {"kind": "topk", "k": 2}
    exp["hyper"] = {"gamma": 0.01, "eta": 0.5, "rounds": 30}
    path = write_exp(tmp_path, exp)
    assert main(["run", path, "--out", str(tmp_path / "out"), "--workers", "1"]) == 0


# -- verify / sweep / reproduce -------------------------------------------------------


def test_verify_reductions_exit_zero(capsys):
    assert main(["verify", "reductions"]) == 0
    out = capsys.readouterr().out
    assert "[PASS]" in out and "[FAIL]" not in out


def test_verify_storm_exit_zero():
    assert main(["verify", "storm"]) == 0


def test_cmd_sweep(tmp_path, capsys):
    exp = minimal_experiment()
    exp["problem"] = {"kind": "quadratic", "n": 2, "d": 10, "lam": 0.2, "s": 0.0, "sigma": 0.0}
    exp["compressor"] = {"kind": "topk", "k": 2}
    exp["hyper"] = {"gamma": 1.0, "eta": 1.0, "rounds": 40}
    path = write_exp(tmp_path, exp)
    assert main(["sweep", path, "--k-lo", "-6", "--k-hi", "0", "--seed", "0"]) == 0
    assert "best gamma" in capsys.readouterr().out


@pytest.mark.parametrize(
    "problem, compressor, message",
    [
        ({"kind": "quadratic", "n": 2, "d": 1, "lam": 0.1, "s": 1.0}, {"kind": "identity"}, "experiment.problem.d: must be >= 2"),
        ({"kind": "quadratic", "n": 2, "d": 10, "lam": 0.1, "s": 1.0}, {"kind": "topk", "k": 11}, "1 <= k <= d"),
    ],
    ids=["d_is_1", "k_above_d"],
)
def test_cmd_sweep_builder_error_is_usage_error(tmp_path, capsys, problem, compressor, message):
    path = write_exp(tmp_path, minimal_experiment(problem=problem, compressor=compressor))
    assert main(["sweep", path, "--k-lo", "-2", "--k-hi", "0", "--workers", "1"]) == 1
    assert message in capsys.readouterr().err


def test_cmd_sweep_never_computes_lyapunov(tmp_path, capsys, monkeypatch):
    # no criterion reads the column; the printed table does not depend on it
    from efsim import harness

    calls = []
    real = harness.lyapunov
    monkeypatch.setattr(harness, "lyapunov", lambda *a, **kw: calls.append(a) or real(*a, **kw))
    outs = []
    for lyapunov in (False, True):
        path = write_exp(tmp_path, minimal_experiment(seeds=[0, 1], lyapunov=lyapunov, lyapunov_every=5))
        assert main(["sweep", path, "--k-lo", "-12", "--k-hi", "-9", "--workers", "1"]) == 0
        outs.append(capsys.readouterr().out)
    assert calls == [] and outs[0] == outs[1] and "best gamma" in outs[0]


def test_cmd_sweep_workers_match_serial(tmp_path, capsys):
    path = write_exp(tmp_path, _diverging_tune_experiment())
    outs = []
    for workers in ("1", "2"):
        assert main(["sweep", path, "--k-lo", "-8", "--k-hi", "4", "--workers", workers]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1] and "diverged" in outs[0]


def test_cmd_sweep_best_gamma_is_the_run_gamma(tmp_path, capsys):
    # one tuning stage: sweep's flags and a tune section of the same grid,
    # seeds and criterion pick the same step size
    exp = minimal_experiment(seeds=[0, 1], algorithms=["ef14_sgd", "ef21_sgdm"])
    exp["problem"] = {"kind": "quadratic", "n": 3, "d": 10, "lam": 0.1, "s": 1.0, "sigma": 0.05}
    exp["compressor"] = {"kind": "topk", "k": 2}
    exp["hyper"] = {"eta": 0.2, "rounds": 40}
    exp["tune"] = {"k_lo": -8, "k_hi": 2, "criterion": "final_grad_norm"}
    path = write_exp(tmp_path, exp)
    argv = ["--k-lo", "-8", "--k-hi", "2", "--criterion", "final_grad_norm", "--workers", "1"]
    assert main(["sweep", path, *argv]) == 0
    best = dict(line.split(": best gamma = ") for line in capsys.readouterr().out.splitlines() if "best gamma" in line)
    assert main(["run", path, "--out", str(tmp_path / "out"), "--workers", "1"]) == 0
    resolved = json.loads((tmp_path / "out" / "mini__manifest.json").read_text())["resolved_hyper"]
    assert {a: f"{resolved[a]['gamma']:.6g}" for a in exp["algorithms"]} == {a: b.split()[0] for a, b in best.items()}


def test_reproduce_writes_experiment_files(tmp_path):
    out = str(tmp_path / "rep")
    rc = main(["reproduce", "fig1", "--rounds", "150", "--out", out, "--workers", "1"])
    assert rc == 0
    files = os.listdir(out)
    assert "fig1_n1__experiment.json" in files
    assert "fig1_n1__manifest.json" in files
    # two algorithms x ten seeds -> 20 traces plus 2 quantile files per node count
    n1_traces = [f for f in files if f.startswith("fig1_n1__") and "seed" in f]
    n1_quant = [f for f in files if f.startswith("fig1_n1__") and f.endswith("quantiles.csv")]
    assert len(n1_traces) == 20
    assert len(n1_quant) == 2
    # the emitted experiment file is itself runnable
    exp = load_experiment_file(os.path.join(out, "fig1_n1__experiment.json"))
    validate_experiment(exp)


def test_reproduce_flags_win_over_overrides(tmp_path):
    # one order for run, sweep and reproduce: overrides, then flags
    out = tmp_path / "rep"
    argv = ["reproduce", "fig1", "--rounds", "20", "--override", "seeds=[1,2]", "--seed", "3", "--metric-every", "4"]
    assert main([*argv, "--override", "metric_every=5", "--out", str(out), "--workers", "1"]) == 0
    exp = load_experiment_file(str(out / "fig1_n1__experiment.json"))
    assert exp["seeds"] == [3] and exp["metric_every"] == 4
    traces = sorted(f for f in os.listdir(out) if f.startswith("fig1_n1__ef21_sgdm__seed"))
    assert traces == ["fig1_n1__ef21_sgdm__seed3.csv"]


def test_unknown_preset_rejected_by_parser():
    with pytest.raises(SystemExit):
        main(["reproduce", "fig99"])


def test_verify_compressors_with_seed_flag(compressors_suite, monkeypatch, capsys):
    monkeypatch.setattr(cli, "run_suite", lambda name, seed: compressors_suite(seed) if name == "compressors" else None)
    assert main(["verify", "compressors", "--seed", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == len(PINNED_DETAILS[1])
    for line, detail in zip(lines, PINNED_DETAILS[1]):
        assert line.startswith("[PASS] compressors: ") and line.endswith(f"({detail})")


# -- the error boundary ----------------------------------------------------------------

_NAMES = sorted({section.split(".")[1] for section in SCHEMA if "." in section} | set(ALGORITHMS) | {"", "x"})


def _values(top: int):
    """A small pool of JSON values, integers at most ``top``."""
    scalars = st.one_of(
        st.integers(-2, top), st.sampled_from([0.0, 1e-3, 0.5, 1.0, -1.0, 1e300]), st.booleans(), st.none(),
        st.sampled_from(_NAMES),
    )
    keys = st.sampled_from(["kind", "k", "n", "d", "rounds", "gamma", "k_lo", "k_hi", "seeds"])
    return st.one_of(scalars, st.lists(scalars, max_size=3), st.dictionaries(keys, scalars, max_size=2))


# one (section, key, value) change; every size key stays at most 8 and rounds at most 5
_CHANGE = st.sampled_from(sorted(SCHEMA)).flatmap(
    lambda section: st.sampled_from(list(SCHEMA[section])).flatmap(
        lambda key: st.tuples(st.just(section), st.just(key), _values(5 if key == "rounds" else 8))
    )
)


@pytest.fixture(scope="module")
def data_files(tmp_path_factory):
    """A quadratic task file and a LIBSVM file for the file-backed problem kinds."""
    tmp = tmp_path_factory.mktemp("data")
    main(["gen", "quadratic", str(tmp / "task.json"), "--n", "2", "--d", "4", "--lam", "0.1", "--s", "1.0"])
    main(["gen", "blobs", str(tmp / "blobs.txt"), "--classes", "2", "--features", "3", "--examples", "8"])
    return str(tmp / "task.json"), str(tmp / "blobs.txt")


def _kind_bases(task: str, libsvm: str) -> dict:
    """A valid problem or compressor section of each kind."""
    return {
        "problem.counterexample": {"kind": "counterexample", "sigma": 1.0, "n": 1},
        "problem.quadratic": {"kind": "quadratic", "n": 2, "d": 4, "lam": 0.1, "s": 1.0, "sigma": 0.1},
        "problem.quadratic_file": {"kind": "quadratic_file", "path": task},
        "problem.logreg_file": {"kind": "logreg_file", "path": libsvm, "classes": 2, "features": 3, "n": 2},
        "problem.blobs": {"kind": "blobs", "classes": 2, "features": 3, "examples": 8, "n": 2},
        "compressor.topk": {"kind": "topk", "k": 1},
        "compressor.randk": {"kind": "randk", "k": 1},
        "compressor.identity": {"kind": "identity"},
        "compressor.hard_threshold": {"kind": "hard_threshold", "tau": 0.1},
        "tune": {"k_lo": -3, "k_hi": -1},
    }


@settings(max_examples=100, deadline=None)
@given(changes=st.lists(_CHANGE, min_size=1, max_size=3))
def test_any_experiment_document_exits_0_1_or_2(data_files, changes):
    # bad input exits 1 with a message, never a traceback
    bases = _kind_bases(*data_files)
    exp = minimal_experiment(hyper={"gamma": 1e-3, "eta": 1e-3, "rounds": 5})
    for section, key, value in changes:
        where, _, kind = section.partition(".")
        if where == "experiment":
            exp[key] = value
            continue
        target = exp.get(where)
        if section in bases and not (isinstance(target, dict) and target.get("kind", kind) == kind):
            target = exp[where] = dict(bases[section])
        if isinstance(target, dict):
            target[key] = value
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "exp.json")
        with open(path, "w") as fh:
            json.dump(exp, fh)
        assert main(["run", path, "--out", os.path.join(tmp, "out"), "--workers", "1"]) in (0, 1, 2)
