"""Command line interface: generate data, train, evaluate, and benchmark.

Commands
--------
gen    write a synthetic planted-block dataset plus a JSON sidecar
train  fit weights on a dataset file; writes weights, trace CSV, sidecar
eval   score a weights file on a dataset; prints metrics JSON
bench  repeat train/eval across seeds and schedules; emits a CSV report

Exit codes: 0 success, 2 usage error, 1 runtime or data error.
"""

import argparse
import dataclasses
import functools
import json
import math
import sys

import numpy as np

from . import __version__
from .data import (
    DatasetStream,
    SyntheticConfig,
    generate_synthetic,
    load_dataset,
    load_params,
    save_dataset,
    save_params,
    split,
)
from .metrics import accuracy, auc
from .model import Problem, _check_caps, margins, objective_from_margins
from .solver import SCHEDULES, SolverConfig, random_init, run, write_trace_csv
from .tensor import _check_integer

def _flag_fields(cls):
    """Fields of a settings dataclass with a flag of their name: all but the schedule."""
    return [f for f in dataclasses.fields(cls) if f.name != "schedule"]


def _add_field_flags(sub, cls):
    """One flag per field of `_flag_fields(cls)`: its name with dashes, the
    type and value of its default, and the help in its metadata."""
    for f in _flag_fields(cls):
        sub.add_argument("--" + f.name.replace("_", "-"), type=type(f.default),
                         default=f.default, help=f.metadata.get("help"))


def _add_solver_flags(sub):
    _add_field_flags(sub, SolverConfig)
    sub.add_argument("--gamma", type=float, default=Problem.gamma,
                     help="step-size inflation factor")
    sub.add_argument("--lambda", dest="lam", type=float, action="append",
                     help="ridge weight; repeat once per block or give once to broadcast "
                          "(default: 2e-4)")
    sub.add_argument("--sparsity-frac", type=float, default=0.30,
                     help="per-block nonzero budget as a fraction of the block length")
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--no-wall-time", action="store_true",
                     help="record 0.0 for elapsed times so outputs are byte-reproducible")


def _resolve_problem(args, dims):
    lam = args.lam if args.lam else [2e-4]
    if len(lam) == 1:
        lam = lam * len(dims)
    if not 0.0 < args.sparsity_frac <= 1.0:
        raise ValueError(f"sparsity fraction must lie in (0, 1], got {args.sparsity_frac}")
    sparsity = [max(1, math.ceil(args.sparsity_frac * d)) for d in dims]
    return Problem(ridge=tuple(lam), sparsity=tuple(sparsity), gamma=args.gamma)


def _flag_values(args, cls):
    """The fields of `_flag_fields(cls)` as their flags were given."""
    return {f.name: getattr(args, f.name) for f in _flag_fields(cls)}


def _config_dump(args, problem, extra):
    """Sidecar settings: every solver field but the schedule as its flag was
    given, the problem, and the CLI's own settings."""
    dump = _flag_values(args, SolverConfig)
    dump.update({
        "gamma": problem.gamma,
        "lambda": list(problem.ridge),
        "sparsity": list(problem.sparsity),
        "sparsity_frac": args.sparsity_frac,
        "seed": args.seed,
    })
    dump.update(extra)
    return dump


def _write_sidecar(path, payload):
    with open(str(path) + ".json", "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def cmd_gen(args):
    cfg = SyntheticConfig(**_flag_values(args, SyntheticConfig))
    ds, (v1, v2) = generate_synthetic(cfg)
    save_dataset(ds, args.output)
    _write_sidecar(args.output, {
        "command": "gen",
        "config": dataclasses.asdict(cfg),
        "ground_truth": {"v1": v1.tolist(), "v2": v2.tolist()},
    })
    print(f"wrote {ds.n} samples of shape {tuple(ds.feature_dims)} to {args.output}")
    return 0


def cmd_train(args):
    ds = load_dataset(args.dataset)
    dims = ds.feature_dims
    problem = _resolve_problem(args, dims)
    config = SolverConfig(schedule=args.schedule, **_flag_values(args, SolverConfig))
    init = random_init(dims, problem.sparsity, seed=args.seed)
    time_source = (lambda: 0.0) if args.no_wall_time else None

    result = run(problem, ds, init, config, time_source=time_source)

    save_params(result.params, args.output)
    trace_path = args.trace if args.trace else str(args.output) + ".trace.csv"
    write_trace_csv(result.trace, trace_path)
    dump = _config_dump(args, problem, extra={
        "command": "train",
        "schedule": args.schedule,
        "dataset": str(args.dataset),
        "stop_reason": result.stop_reason,
        "iterations": len(result.trace),
        "final_objective": result.trace[-1].objective,
        "final_residual": result.final_residual,
    })
    _write_sidecar(args.output, dump)
    print("config: " + json.dumps(dump, sort_keys=True))
    print(f"final objective: {result.trace[-1].objective:.17g}")
    print(f"iterations: {len(result.trace)}")
    print(f"stop reason: {result.stop_reason}")
    return 0


def _sidecar_problem(model_path, params):
    """The ridge weights and sparsity caps a model was trained with, read
    from its sidecar and checked against the model's blocks."""
    path = f"{model_path}.json"
    try:
        with open(path, "r", encoding="utf-8") as fh:
            sidecar = json.load(fh)
        problem = Problem(ridge=tuple(sidecar["lambda"]), sparsity=tuple(sidecar["sparsity"]))
        _check_caps(problem.sparsity, params.block_dims())
    except FileNotFoundError:
        raise ValueError(
            f"missing sidecar {path} (needed for the ridge/sparsity settings)") from None
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"sidecar {path} has no valid lambda and sparsity: {exc!r}") from None
    return problem


def cmd_eval(args):
    params = load_params(args.model)
    problem = _sidecar_problem(args.model, params)
    with DatasetStream(args.dataset) as stream:
        m = margins(params, stream)
    nan = int(np.isnan(m).sum())
    if nan:  # the stream checked every entry, so only an overflow makes a NaN
        raise ValueError(f"{args.dataset}: {nan} of {m.size} margins are NaN: "
                         "products of its finite samples overflowed")
    y = stream.y
    report = {
        "accuracy": accuracy(m, y),
        "auc": auc(m, y),
        "n": stream.n,
        "objective": objective_from_margins(
            m, y, params.blocks, problem.ridge, problem.sparsity
        ),
    }
    text = json.dumps(report, indent=2, sort_keys=True)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    print(text)
    return 0


def _fmt(x):
    return f"{x:.17g}"


def _mean_std(values):
    mean = float(np.mean(values))
    std = float(np.std(values)) if len(values) > 1 else 0.0
    return f"{mean:.6g}+-{std:.6g}"


def cmd_bench(args):
    schedules = [s.strip() for s in args.schedules.split(",") if s.strip()]
    if not schedules:
        raise ValueError(f"--schedules names no schedule; choose from {sorted(SCHEDULES)}")
    for i, s in enumerate(schedules):
        if s not in SCHEDULES:
            raise ValueError(f"unknown schedule {s!r}; choose from {sorted(SCHEDULES)}")
        if s in schedules[:i]:
            raise ValueError(f"--schedules names {s!r} more than once")
    _check_integer("--runs", args.runs, 1)
    if args.runs < 2:
        print("warning: fewer than 2 runs, std reported as 0", file=sys.stderr)

    ds = load_dataset(args.dataset)
    dims = ds.feature_dims
    problem = _resolve_problem(args, dims)
    time_source = (lambda: 0.0) if args.no_wall_time else None

    header = "schedule,run,seed,objective,iterations,seconds,accuracy,auc,stop_reason"
    lines = [header]
    per_schedule = {s: [] for s in schedules}
    for r in range(args.runs):
        seed = args.seed + r
        train_ds, test_ds = split(ds, args.train_frac, seed=seed)
        init = random_init(dims, problem.sparsity, seed=seed)
        for name in schedules:
            config = SolverConfig(schedule=name, **_flag_values(args, SolverConfig))
            result = run(problem, train_ds, init, config, time_source=time_source)
            m = margins(result.params, test_ds)
            row = {
                "objective": result.trace[-1].objective,
                "iterations": len(result.trace),
                "seconds": result.trace[-1].elapsed_seconds,
                "accuracy": accuracy(m, test_ds.y),
                "auc": auc(m, test_ds.y),
            }
            per_schedule[name].append(row)
            lines.append(
                f"{name},{r},{seed},{_fmt(row['objective'])},{row['iterations']},"
                f"{_fmt(row['seconds'])},{_fmt(row['accuracy'])},{_fmt(row['auc'])},"
                f"{result.stop_reason}"
            )
    for name in schedules:
        rows = per_schedule[name]
        lines.append(
            f"{name},mean+-std,,{_mean_std([r['objective'] for r in rows])},"
            f"{_mean_std([r['iterations'] for r in rows])},"
            f"{_mean_std([r['seconds'] for r in rows])},"
            f"{_mean_std([r['accuracy'] for r in rows])},"
            f"{_mean_std([r['auc'] for r in rows])},"
        )
    report = "\n".join(lines) + "\n"
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(report)
        _write_sidecar(args.output, _config_dump(args, problem, extra={
            "command": "bench",
            "dataset": str(args.dataset),
            "schedules": schedules,
            "runs": args.runs,
            "train_frac": args.train_frac,
        }))
        print(f"wrote {args.output}")
    else:
        print(report, end="")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="ml0",
        description="Sparse multilinear logistic regression trainer and benchmark harness.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    gen = subs.add_parser("gen", help="generate a synthetic planted-block dataset")
    _add_field_flags(gen, SyntheticConfig)
    gen.add_argument("-o", "--output", required=True, help="dataset file to write")

    train = subs.add_parser("train", help="fit weights on a dataset file")
    train.add_argument("dataset", help="dataset file")
    train.add_argument("-o", "--output", required=True, help="weights file to write")
    train.add_argument("--trace", help="trace CSV path (default: OUTPUT.trace.csv)")
    train.add_argument("--schedule", choices=sorted(SCHEDULES), default=SolverConfig.schedule,
                       help=f"momentum schedule (default: {SolverConfig.schedule})")
    _add_solver_flags(train)

    ev = subs.add_parser("eval", help="score a weights file on a dataset")
    ev.add_argument("model", help="weights file")
    ev.add_argument("dataset", help="dataset file")
    ev.add_argument("-o", "--output", help="also write the metrics JSON here")

    bench = subs.add_parser("bench", help="compare schedules across repeated seeded runs")
    bench.add_argument("dataset", help="dataset file")
    bench.add_argument("--schedules", default="apalm+,bpgd",
                       help=f"comma-separated subset of {','.join(SCHEDULES)}")
    bench.add_argument("--runs", type=int, default=10)
    bench.add_argument("--train-frac", type=float, default=0.8)
    bench.add_argument("-o", "--output", help="report CSV path (default: stdout)")
    _add_solver_flags(bench)

    return parser


@functools.cache
def _parser():
    """The parser `main` reuses: building it takes longer than a desk-size eval."""
    return build_parser()


def main(argv=None):
    args = _parser().parse_args(argv)
    # Looked up per call, so the cached parser holds no command function.
    command = {"gen": cmd_gen, "train": cmd_train, "eval": cmd_eval, "bench": cmd_bench}
    try:
        return command[args.command](args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
