"""Command-line entry point.

Subcommands:

* ``run``        execute a declarative experiment file (or a manifest) and
                 write trace CSVs, quantile CSVs, and a manifest
* ``reproduce``  run a named figure/experiment preset
* ``verify``     run a fixed-seed property suite and report pass/fail
* ``gen``        generate a quadratic task file or a synthetic LIBSVM dataset
* ``sweep``      tune the step size of each algorithm in an experiment file

Exit codes: 0 success, 1 validation/usage error, 2 every run diverged,
3 a verify suite failed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from . import __version__
from .checks import SUITES, run_suite
from .core import atomic_write
from .experiments import (
    SCHEMA,
    SchemaError,
    build_problem,
    check_flag,
    check_grid,
    load_experiment_file,
    run_experiment,
    tune_gamma,
    validate_experiment,
    worker_pool,
)
from .harness import SweepDiverged
from .presets import PRESET_NAMES, preset_experiments, preset_note
from .problems import generate_quadratic, make_blobs, save_quadratic_task, write_libsvm


class _Parser(argparse.ArgumentParser):
    """A usage error exits 1, as a bad document does (argparse's own 2
    would read as "every run diverged")."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _parse_override(text: str):
    if "=" not in text:
        raise argparse.ArgumentTypeError(f"override must look like key=value, got {text!r}")
    key, raw = text.split("=", 1)
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    return key, value


def _prepare(doc: dict, args) -> dict:
    """``doc`` with ``--override``, then ``--seed`` and ``--metric-every``
    applied in place (so a flag wins over an override of the same key),
    validated with its defaults filled in."""
    for key, value in args.override or []:
        parts = key.split(".")
        target = doc
        for part in parts[:-1]:
            if part not in target or not isinstance(target[part], dict):
                raise SchemaError(f"override path {key!r}: no section {part!r}")
            target = target[part]
        target[parts[-1]] = value
    if args.seed is not None:
        doc["seeds"] = [args.seed]
    if args.metric_every is not None:
        doc["metric_every"] = args.metric_every
    return validate_experiment(doc)


def _print_summary(exp: dict, summary: dict) -> bool:
    """Print a line per algorithm; return whether every run diverged."""
    for algo, stats in summary.items():
        print(
            f"  {exp['name']} {algo}: gamma={stats['gamma']:.6g} "
            f"median final |grad|={stats['final_grad_norm_median']:.6g} "
            f"median final gap={stats['final_obj_gap_median']:.6g} "
            f"diverged {stats['diverged_seeds']} seed(s)"
        )
    return all(stats["diverged_seeds"] == len(exp["seeds"]) for stats in summary.values())


def cmd_run(args) -> int:
    exp = _prepare(load_experiment_file(args.experiment), args)
    manifest, summary = run_experiment(exp, args.out or exp["out"] or "results", workers=args.workers)
    print(f"wrote {manifest}")
    return 2 if _print_summary(exp, summary) else 0


def cmd_reproduce(args) -> int:
    exps = preset_experiments(args.figure, rounds=args.rounds)
    note = preset_note(args.figure)
    if note:
        print(f"note: {note}")
    out_dir = args.out or f"results/{args.figure}"
    all_diverged = True
    speedup_rows = []
    for exp in exps:
        _prepare(exp, args)
        try:
            _, summary = run_experiment(exp, out_dir, workers=args.workers)
        except SweepDiverged as exc:  # counts as an experiment whose every run diverged
            print(exc)
            summary = {}
        # written once the configurations are built, so a config error leaves no directory
        with atomic_write(os.path.join(out_dir, f"{exp['name']}__experiment.json")) as fh:
            json.dump(exp, fh, indent=1)
            fh.write("\n")
        all_diverged = _print_summary(exp, summary) and all_diverged
        if args.figure == "speedup":
            n = exp["problem"]["n"]
            speedup_rows += [(algo, n, stats["final_grad_norm_median"]) for algo, stats in summary.items()]
    if speedup_rows:
        print("median final gradient norm by node count:")
        for algo, n, val in sorted(speedup_rows):
            print(f"  {algo:12s} n={n:<3d} {val:.6g}")
    return 2 if all_diverged else 0


def cmd_verify(args) -> int:
    check_flag(args.seed, "--seed", "experiment", "seeds")
    results = run_suite(args.suite, seed=args.seed)
    for res in results:
        print(f"[{'PASS' if res.passed else 'FAIL'}] {args.suite}: {res.name} ({res.detail})")
    return 0 if all(res.passed for res in results) else 3


def cmd_gen(args) -> int:
    section = f"problem.{args.what}"
    for key in SCHEMA[section]:  # each flag is named after its key in the problem's section
        if key in vars(args):
            check_flag(getattr(args, key), f"--{key}", section, key)
    if args.what == "quadratic":
        problem = generate_quadratic(args.n, args.d, args.lam, args.s, args.seed, sigma=args.sigma)
        save_quadratic_task(problem, args.out_path)
    else:  # blobs
        x, y = make_blobs(args.classes, args.features, args.examples, args.seed)
        write_libsvm(args.out_path, x, y)
    print(f"wrote {args.out_path}")
    return 0


def cmd_sweep(args) -> int:
    exp = _prepare(load_experiment_file(args.experiment), args)
    check_grid(args.k_lo, args.k_hi, "--k-lo", "--k-hi")
    tune = {"k_lo": args.k_lo, "k_hi": args.k_hi, "criterion": args.criterion, "seeds": None}
    rc = 0
    problem = build_problem(exp["problem"])
    runs = len(exp["algorithms"]) * (args.k_hi - args.k_lo + 1) * len(exp["seeds"])
    with worker_pool(args.workers, runs, problem) as pool:
        for algorithm in exp["algorithms"]:
            try:
                result = tune_gamma(exp, algorithm, problem, tune, pool)
            except SweepDiverged as exc:  # counts as an algorithm whose every run diverged
                print(exc)
                rc = 2
                continue
            print(f"{algorithm}: best gamma = {result.best_gamma:.6g} ({args.criterion} = {result.best_score:.6g})")
            for row in result.table:
                mark = "diverged" if row["diverged"] else f"{row['score']:.6g}"
                print(f"    gamma=2^{int(round(math.log2(row['gamma']))):>4d} -> {mark}")
    return rc


def main(argv=None) -> int:
    parser = _Parser(prog="efsim", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version", version=f"efsim {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=None, help="replace the seed list with this single seed")
    common.add_argument(
        "--workers", type=int, default=os.cpu_count() or 1, help="parallel worker processes (tuning, sweeps and runs)"
    )
    common.add_argument("--metric-every", type=int, default=None, help="metric logging cadence override")
    common.add_argument(
        "--override",
        action="append",
        type=_parse_override,
        metavar="KEY=VALUE",
        help="dotted-path experiment override, e.g. problem.sigma=0.01 (repeatable)",
    )

    p = sub.add_parser("run", parents=[common], help="run a declarative experiment file")
    p.add_argument("--out", default=None, help="output directory")
    p.add_argument("experiment", help="experiment JSON file (a manifest is accepted too)")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("reproduce", parents=[common], help="run a named preset")
    p.add_argument("--out", default=None, help="output directory")
    p.add_argument("figure", choices=PRESET_NAMES)
    p.add_argument("--rounds", type=int, default=None, help="override the preset horizon")
    p.set_defaults(func=cmd_reproduce)

    p = sub.add_parser("verify", help="run a fixed-seed property suite")
    p.add_argument("suite", choices=tuple(SUITES))
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("gen", help="generate a task file or synthetic dataset")
    gsub = p.add_subparsers(dest="what", required=True)
    gq = gsub.add_parser("quadratic")
    gq.add_argument("out_path")
    gq.add_argument("--n", type=int, required=True)
    gq.add_argument("--d", type=int, required=True)
    gq.add_argument("--lam", type=float, required=True)
    gq.add_argument("--s", type=float, required=True)
    gq.add_argument("--seed", type=int, default=0)
    gq.add_argument("--sigma", type=float, default=0.0)
    gq.set_defaults(func=cmd_gen)
    gb = gsub.add_parser("blobs")
    gb.add_argument("out_path")
    gb.add_argument("--classes", type=int, required=True)
    gb.add_argument("--features", type=int, required=True)
    gb.add_argument("--examples", type=int, required=True)
    gb.add_argument("--seed", type=int, default=0)
    gb.set_defaults(func=cmd_gen)

    p = sub.add_parser("sweep", parents=[common], help="step-size grid search for an experiment file")
    p.add_argument("experiment")
    p.add_argument("--k-lo", type=int, default=-20)
    p.add_argument("--k-hi", type=int, default=20)
    p.add_argument("--criterion", choices=("final_loss", "final_grad_norm"), default="final_loss")
    p.set_defaults(func=cmd_sweep)

    args = parser.parse_args(argv)
    try:  # the one place an error becomes an exit code
        if getattr(args, "workers", 1) < 1:
            raise ValueError(f"--workers: must be >= 1, got {args.workers}")
        return args.func(args)
    except (OSError, ValueError) as exc:  # a bad file, document or flag, or e.g. an unfit algorithm/compressor pair
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SweepDiverged as exc:
        print(exc)
        return 2


if __name__ == "__main__":
    sys.exit(main())
