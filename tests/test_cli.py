import dataclasses
import json
import math
import os
import re
import struct
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import ml0
import ml0.data
import ml0.model
import ml0.tensor
from ml0 import (
    Dataset,
    FormatError,
    ModelParams,
    Problem,
    SolverConfig,
    SyntheticConfig,
    kernels,
    load_dataset,
    load_params,
    objective,
    random_init,
    run,
    save_dataset,
    save_params,
)
from ml0 import cli
from ml0.cli import build_parser, main
from ml0.solver import SCHEDULES


@pytest.fixture(scope="module")
def toy_dataset(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "toy.ml0t"
    rc = main([
        "gen", "--rows", "8", "--cols", "6", "--block", "3",
        "--per-class", "20", "--seed", "7", "-o", str(path),
    ])
    assert rc == 0
    return path


def read_csv(path):
    return path.read_text().strip().split("\n")


class TestGen:
    def test_defaults_are_first_mode_shape(self):
        from ml0.cli import build_parser

        args = build_parser().parse_args(["gen", "-o", "x.ml0t"])
        assert (args.rows, args.cols, args.block, args.per_class) == (200, 200, 20, 500)
        assert args.margin == 0.5

    def test_writes_dataset_and_sidecar(self, toy_dataset):
        ds = load_dataset(toy_dataset)
        assert ds.n == 40
        assert ds.feature_dims == (8, 6)
        sidecar = json.loads((toy_dataset.parent / (toy_dataset.name + ".json")).read_text())
        assert sidecar["config"]["seed"] == 7
        assert len(sidecar["ground_truth"]["v1"]) == 3

    def test_missing_output_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["gen", "--rows", "4", "--cols", "4", "--block", "2", "--per-class", "2"])
        assert err.value.code == 2

    def test_invalid_dims_exit_one(self, tmp_path, capsys):
        rc = main(["gen", "--rows", "2", "--cols", "2", "--block", "5",
                   "--per-class", "2", "-o", str(tmp_path / "x.ml0t")])
        assert rc == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("margin", ["inf", "-inf", "nan"])
    def test_non_finite_margin_exit_one_naming_the_field(self, tmp_path, capsys, margin):
        out = tmp_path / "x.ml0t"
        rc = main(["gen", "--rows", "4", "--cols", "4", "--block", "2", "--per-class", "2",
                   f"--margin={margin}", "-o", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: margin must be positive and finite, got {float(margin)}\n")
        assert not out.exists()


class TestTrain:
    @pytest.mark.parametrize("flag", ["--tol-obj", "--tol-grad", "--max-seconds"])
    def test_nan_setting_exits_one_naming_the_field(self, toy_dataset, tmp_path, capsys, flag):
        """A NaN tolerance or budget would switch its stop off without a word."""
        model = tmp_path / "m.ml0w"
        rc = main(["train", str(toy_dataset), "-o", str(model), flag, "nan", "--max-iters", "5"])
        assert rc == 1
        name = flag[2:].replace("-", "_")
        assert capsys.readouterr().err == f"error: {name} must be positive, got nan\n"
        assert not model.exists()

    @pytest.mark.parametrize("flag, value, want", [
        ("--lambda", "nan", "ridge weights (lambda) must be nonnegative and finite, got (nan, nan)"),
        ("--lambda", "inf", "ridge weights (lambda) must be nonnegative and finite, got (inf, inf)"),
        ("--gamma", "inf", "gamma must exceed 1 and be finite, got inf"),
    ], ids=["lambda-nan", "lambda-inf", "gamma-inf"])
    def test_non_finite_problem_setting_exits_one_naming_it(self, toy_dataset, tmp_path, capsys,
                                                            flag, value, want):
        """A non-finite ridge weight would fail later at the initial objective
        without naming its flag; an infinite gamma makes every step size
        infinite, so no step moves and the run would stop and exit 0."""
        model = tmp_path / "m.ml0w"
        rc = main(["train", str(toy_dataset), "-o", str(model), flag, value, "--max-iters", "5"])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {want}\n"
        assert not model.exists()

    def test_outputs_and_config_echo(self, toy_dataset, tmp_path, capsys):
        model = tmp_path / "m.ml0w"
        rc = main([
            "train", str(toy_dataset), "-o", str(model),
            "--max-iters", "40", "--seed", "3", "--no-wall-time",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "stop reason:" in out
        params = load_params(model)
        assert params.block_dims() == (8, 6)
        sidecar = json.loads((tmp_path / "m.ml0w.json").read_text())
        # ceil(0.3 * 8) = 3, ceil(0.3 * 6) = 2
        assert sidecar["sparsity"] == [3, 2]
        assert sidecar["schedule"] == "apalm+"
        assert sidecar["lambda"] == [2e-4, 2e-4]
        trace = read_csv(tmp_path / "m.ml0w.trace.csv")
        assert trace[0] == "iter,objective,gap,beta,accepted,elapsed_seconds"
        assert len(trace) == sidecar["iterations"] + 1
        problem = Problem(ridge=(2e-4, 2e-4), sparsity=(3, 2))
        result = run(problem, load_dataset(toy_dataset), random_init((8, 6), (3, 2), seed=3),
                     SolverConfig(max_iters=40))
        assert sidecar["final_residual"] == result.final_residual > 0.0

    def test_trace_byte_identical_without_wall_time(self, toy_dataset, tmp_path):
        blobs = []
        for tag in ("a", "b"):
            model = tmp_path / f"{tag}.ml0w"
            rc = main([
                "train", str(toy_dataset), "-o", str(model),
                "--max-iters", "30", "--seed", "5", "--no-wall-time",
            ])
            assert rc == 0
            blobs.append((tmp_path / f"{tag}.ml0w.trace.csv").read_bytes())
        assert blobs[0] == blobs[1]

    @pytest.mark.parametrize("schedule", SCHEDULES)
    def test_beta1_is_read_by_apalm_plus_only(self, schedule, toy_dataset, tmp_path):
        """apalm and bpgd start at momentum 0 whatever --beta1 says, and
        every sidecar records the flag as given."""
        outputs = []
        for beta1 in ("0.5", "0.0"):
            model = tmp_path / f"{beta1}.ml0w"
            rc = main(["train", str(toy_dataset), "-o", str(model), "--schedule", schedule,
                       "--beta1", beta1, "--max-iters", "25", "--no-wall-time"])
            assert rc == 0
            sidecar = json.loads((tmp_path / f"{beta1}.ml0w.json").read_text())
            assert sidecar["beta1"] == float(beta1)
            trace = tmp_path / f"{beta1}.ml0w.trace.csv"
            outputs.append((model.read_bytes(), trace.read_bytes()))
        assert (outputs[0] == outputs[1]) == (schedule != "apalm+")

    @pytest.mark.parametrize("schedule", SCHEDULES)
    def test_beta_max_below_beta1_stops_apalm_plus_only(self, schedule, toy_dataset, tmp_path,
                                                        capsys):
        model = tmp_path / "m.ml0w"
        rc = main(["train", str(toy_dataset), "-o", str(model), "--schedule", schedule,
                   "--beta-max", "0.5", "--max-iters", "5"])
        if schedule == "apalm+":
            assert rc == 1
            assert capsys.readouterr().err == (
                "error: beta1 must lie in [0, beta_max=0.5], got 0.6\n")
            assert not model.exists()
        else:
            assert rc == 0

    def test_bpgd_schedule_zero_beta_column(self, toy_dataset, tmp_path):
        model = tmp_path / "b.ml0w"
        rc = main([
            "train", str(toy_dataset), "-o", str(model), "--schedule", "bpgd",
            "--max-iters", "25", "--no-wall-time",
        ])
        assert rc == 0
        rows = read_csv(tmp_path / "b.ml0w.trace.csv")[1:]
        assert all(row.split(",")[3] == "0" for row in rows)

    def test_lambda_broadcast_and_per_block(self, toy_dataset, tmp_path):
        model = tmp_path / "l.ml0w"
        rc = main([
            "train", str(toy_dataset), "-o", str(model),
            "--lambda", "1e-3", "--lambda", "2e-3", "--max-iters", "5",
        ])
        assert rc == 0
        sidecar = json.loads((tmp_path / "l.ml0w.json").read_text())
        assert sidecar["lambda"] == [1e-3, 2e-3]
        rc = main([
            "train", str(toy_dataset), "-o", str(model),
            "--lambda", "1e-3", "--lambda", "2e-3", "--lambda", "1e-3",
            "--max-iters", "5",
        ])
        assert rc == 1

    def test_seed_drives_the_initial_point(self, toy_dataset, tmp_path):
        model = tmp_path / "s.ml0w"
        rc = main([
            "train", str(toy_dataset), "-o", str(model),
            "--max-iters", "30", "--seed", "4", "--no-wall-time",
        ])
        assert rc == 0
        assert '\n  "seed": 4,\n' in (tmp_path / "s.ml0w.json").read_text()
        ds = load_dataset(toy_dataset)
        problem = Problem(ridge=(2e-4, 2e-4), sparsity=(3, 2), gamma=1.5)
        init = random_init(ds.feature_dims, problem.sparsity, seed=4)
        want = run(problem, ds, init, SolverConfig(max_iters=30)).params
        got = load_params(model)
        for a, b in zip(got.blocks, want.blocks):
            np.testing.assert_array_equal(a, b)
        assert got.bias == want.bias

    def test_one_ridge_weight_too_many_exits_one_naming_both_counts(self, toy_dataset, tmp_path,
                                                                    capsys):
        rc = main(["train", str(toy_dataset), "-o", str(tmp_path / "m.ml0w"),
                   "--lambda", "1e-3", "--lambda", "1e-3", "--lambda", "1e-3"])
        assert rc == 1
        assert "3 ridge weights for 2 sparsity caps" in capsys.readouterr().err

    def test_missing_dataset_exit_one(self, tmp_path, capsys):
        rc = main(["train", str(tmp_path / "absent.ml0t"), "-o", str(tmp_path / "m.ml0w")])
        assert rc == 1

    @pytest.mark.parametrize("frac", ["0", "-0.5", "1.5"])
    def test_sparsity_fraction_outside_unit_interval_exit_one(self, toy_dataset, tmp_path,
                                                               capsys, frac):
        model = tmp_path / "m.ml0w"
        rc = main(["train", str(toy_dataset), "-o", str(model), "--sparsity-frac", frac])
        assert rc == 1
        assert "sparsity fraction must lie in (0, 1]" in capsys.readouterr().err
        assert not model.exists()


SOLVER_FIELDS = [f for f in dataclasses.fields(SolverConfig) if f.name != "schedule"]
GEN_FIELDS = dataclasses.fields(SyntheticConfig)
SOLVER_HELP = {
    "t": "momentum growth/decay factor",
    "beta1": "initial momentum factor",
    "beta-max": "momentum cap",
    "tol-obj": "objective-change tolerance",
    "tol-grad": "gradient-change tolerance",
    "gamma": "step-size inflation factor",
}


class TestSettingsContract:
    """Each setting is declared once: the flags take their defaults from
    `SolverConfig`, `Problem` and `SyntheticConfig`, and the sidecar records
    every field."""

    def test_every_gen_field_has_a_flag_with_its_default(self):
        parser = build_parser()
        base = ["gen", "-o", "out"]
        defaults = parser.parse_args(base)
        for f in GEN_FIELDS:
            assert getattr(defaults, f.name) == f.default, f.name
            flag = "--" + f.name.replace("_", "-")
            value = f.type(f.default * 2)
            assert getattr(parser.parse_args(base + [flag, str(value)]), f.name) == value

    def test_gen_sidecar_records_every_field(self, tmp_path):
        given = {"rows": 7, "cols": 5, "block": 2, "per_class": 3, "margin": 0.25, "seed": 4}
        assert set(given) == {f.name for f in GEN_FIELDS}
        argv = ["gen", "-o", str(tmp_path / "d.ml0t")]
        for name, value in given.items():
            argv += ["--" + name.replace("_", "-"), str(value)]
        assert main(argv) == 0
        sidecar = json.loads((tmp_path / "d.ml0t.json").read_text())
        assert sidecar["config"] == given

    @pytest.mark.parametrize("command, helps", [
        ("train", SOLVER_HELP),
        ("bench", SOLVER_HELP),
        ("gen", {"block": "planted block side length"}),
    ])
    def test_help_shows_each_flag_with_its_help(self, command, helps, capsys):
        with pytest.raises(SystemExit) as err:
            main([command, "--help"])
        assert err.value.code == 0
        # Whitespace collapsed, so the check does not depend on the wrap width.
        out = " ".join(capsys.readouterr().out.split())
        for flag, text in helps.items():
            assert re.search(rf"--{flag} \S+ {re.escape(text)}( -|$)", out), flag

    @pytest.mark.parametrize("command, flag", [("train", "schedule"), ("bench", "schedules")])
    def test_schedule_help_names_the_monotone_schedules(self, command, flag, capsys):
        # Every schedule keeps the recorded objective nonincreasing
        # (test_solver.py pins that on desk data), so the help states no exception.
        with pytest.raises(SystemExit):
            main([command, "--help"])
        out = " ".join(capsys.readouterr().out.split())
        text = {"schedule": "momentum schedule (default: apalm+)",
                "schedules": "comma-separated subset of apalm+,apalm,bpgd"}[flag]
        assert re.search(rf"--{flag} \S+ {re.escape(text)}( -|$)", out)

    @pytest.mark.parametrize("command", ["train", "bench"])
    def test_every_field_has_a_flag_with_its_default(self, command):
        parser = build_parser()
        base = [command, "data.ml0t", "-o", "out"]
        defaults = parser.parse_args(base)
        assert defaults.gamma == Problem.gamma
        for f in SOLVER_FIELDS:
            assert getattr(defaults, f.name) == f.default, f.name
            flag = "--" + f.name.replace("_", "-")
            value = f.type(f.default * 2)
            assert getattr(parser.parse_args(base + [flag, str(value)]), f.name) == value

    @pytest.mark.parametrize("argv, schedules", [
        (["train"], ["apalm+"]),
        *((["train", "--schedule", s], [s]) for s in SCHEDULES),
        (["bench"], ["apalm+", "bpgd"]),
        (["bench", "--schedules", ",".join(SCHEDULES)], list(SCHEDULES)),
    ], ids=["train", *(f"train-{s}" for s in SCHEDULES), "bench", "bench-all"])
    def test_no_flags_build_the_defaults(self, argv, schedules, toy_dataset, tmp_path,
                                         monkeypatch):
        """Every schedule gets the default of every field: the solver alone
        decides which of them a schedule reads."""
        solves = []

        def recording(problem, data, init, config, **kwargs):
            solves.append((problem, config))
            return run(problem, data, init, dataclasses.replace(config, max_iters=3), **kwargs)

        monkeypatch.setattr(cli, "run", recording)
        out = tmp_path / "out"
        assert main([*argv, str(toy_dataset), "-o", str(out)]) == 0
        assert sorted({config.schedule for _, config in solves}) == sorted(schedules)
        for _, config in solves:
            assert config == dataclasses.replace(SolverConfig(), schedule=config.schedule)
        assert all(problem.gamma == Problem.gamma for problem, _ in solves)
        sidecar = json.loads((tmp_path / "out.json").read_text())
        assert sidecar["gamma"] == Problem.gamma
        for f in SOLVER_FIELDS:
            assert sidecar[f.name] == f.default, f.name


@pytest.fixture(scope="module")
def trained(toy_dataset, tmp_path_factory):
    model = tmp_path_factory.mktemp("model") / "m.ml0w"
    rc = main([
        "train", str(toy_dataset), "-o", str(model),
        "--max-iters", "60", "--seed", "1", "--no-wall-time",
    ])
    assert rc == 0
    return model


def copy_with_sidecar(model, tmp_path, change):
    """A copy of `model` whose sidecar has the keys of `change` set, or
    deleted where the value is None."""
    sidecar = json.loads((model.parent / (model.name + ".json")).read_text())
    for key, value in change.items():
        if value is None:
            del sidecar[key]
        else:
            sidecar[key] = value
    copy = tmp_path / "m.ml0w"
    copy.write_bytes(model.read_bytes())
    (tmp_path / "m.ml0w.json").write_text(json.dumps(sidecar))
    return copy


class TestEval:

    def test_metrics_json(self, toy_dataset, trained, tmp_path, capsys):
        out_path = tmp_path / "metrics.json"
        rc = main(["eval", str(trained), str(toy_dataset), "-o", str(out_path)])
        assert rc == 0
        report = json.loads(out_path.read_text())
        assert set(report) == {"accuracy", "auc", "n", "objective"}
        assert report["n"] == 40
        assert 0.0 <= report["auc"] <= 1.0

    def test_objective_matches_final_trace_value(self, toy_dataset, trained, capsys):
        sidecar = json.loads((trained.parent / (trained.name + ".json")).read_text())
        rc = main(["eval", str(trained), str(toy_dataset)])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        np.testing.assert_allclose(
            report["objective"], sidecar["final_objective"], rtol=1e-10
        )

    def test_one_pass_over_x_and_objective_bitwise(self, toy_dataset, trained, capsys,
                                                   monkeypatch):
        """The samples reach the contraction once each, in file order, in
        chunks smaller than X, and the objective equals the in-memory one."""
        ds = load_dataset(toy_dataset)
        chunks, mode_shapes = [], []
        contract, contract_mode = ml0.model._stacked, kernels.contract_mode

        def recording(arr, v, out):
            if arr.shape[1:] == ds.feature_dims:
                chunks.append(arr.copy())
            return contract(arr, v, out)

        def recording_mode(arr, v, axis):
            mode_shapes.append(arr.shape)
            return contract_mode(arr, v, axis)

        # 7 samples of 8x6 per chunk: five full chunks and one of 5.
        monkeypatch.setattr(ml0.data, "_FINITE_BLOCK", 7 * 8 * 6)
        monkeypatch.setattr(ml0.model, "_stacked", recording)
        monkeypatch.setattr(kernels, "contract_mode", recording_mode)
        rc = main(["eval", str(trained), str(toy_dataset)])
        monkeypatch.undo()
        assert rc == 0
        assert [len(c) for c in chunks] == [7, 7, 7, 7, 7, 5]
        assert all(c.size < ds.X.size for c in chunks)
        assert np.concatenate(chunks).tobytes() == ds.X.tobytes()
        assert ds.X.shape not in mode_shapes
        report = json.loads(capsys.readouterr().out)
        sidecar = json.loads((trained.parent / (trained.name + ".json")).read_text())
        problem = Problem(ridge=tuple(sidecar["lambda"]), sparsity=tuple(sidecar["sparsity"]),
                          gamma=sidecar["gamma"])
        assert report["objective"] == objective(load_params(trained), ds, problem)

    def test_above_the_gather_cutoff_one_pass_over_x_and_objective_bitwise(self, tmp_path, capsys,
                                                                            monkeypatch):
        """130x130 samples are scored from the rows the first block selects.
        Recorded where the stream hands them to the product that checks them,
        the samples still arrive once each, in file order, in chunks smaller
        than X, and each chunk is contracted row by row as it arrives, before
        the next is read; the objective equals the in-memory one."""
        rng = np.random.default_rng(18)
        n, dims, rows = 8, (130, 130), [3, 40, 41, 99]
        assert math.prod(dims) >= ml0.tensor._GATHER_MIN_SAMPLE
        X = rng.standard_normal((n,) + dims)
        path = tmp_path / "big.ml0t"
        save_dataset(Dataset(X, [1.0, -1.0] * (n // 2)), path)
        w1 = np.zeros(dims[0])
        w1[rows] = rng.standard_normal(len(rows))
        model = tmp_path / "w.ml0w"
        save_params(ModelParams(blocks=(w1, rng.standard_normal(dims[1])), bias=0.2), model)
        (tmp_path / "w.ml0w.json").write_text(
            json.dumps({"lambda": [2e-4, 2e-4], "sparsity": [len(rows), dims[1]]}))
        read, contracted, events = [], [], []
        read_samples, row_dots = ml0.DatasetStream._read, ml0.model._row_dots

        def recorded(product):
            def handed(lo, chunk):
                read.append((lo, chunk.copy()))
                events.append("read")
                return product(lo, chunk)
            return handed

        def recording(arr, v, out=None):
            contracted.append(arr.copy())
            events.append("contracted")
            return row_dots(arr, v, out)

        monkeypatch.setattr(ml0.DatasetStream, "_read",
                            lambda stream, product: read_samples(stream, recorded(product)))
        monkeypatch.setattr(ml0.model, "_row_dots", recording)
        rc = main(["eval", str(model), str(path)])
        monkeypatch.undo()
        assert rc == 0
        per = ml0.data._FINITE_BLOCK // math.prod(dims)
        assert [lo for lo, _ in read] == list(range(0, n, per))
        assert np.concatenate([c for _, c in read]).tobytes() == X.tobytes()
        assert all(c.size < X.size for _, c in read)
        assert [c.tobytes() for c in contracted] == [c.tobytes() for _, c in read]
        assert events == ["read", "contracted"] * len(read)
        report = json.loads(capsys.readouterr().out)
        problem = Problem(ridge=(2e-4, 2e-4), sparsity=(len(rows), dims[1]))
        assert report["objective"] == objective(load_params(model), load_dataset(path), problem)

    def test_dimension_mismatch_exit_one(self, trained, tmp_path, capsys):
        other = tmp_path / "other.ml0t"
        rc = main(["gen", "--rows", "4", "--cols", "4", "--block", "2",
                   "--per-class", "3", "-o", str(other)])
        assert rc == 0
        rc = main(["eval", str(trained), str(other)])
        assert rc == 1
        assert "match" in capsys.readouterr().err

    @pytest.mark.parametrize("change", [
        {"lambda": None},
        {"sparsity": None},
        {"lambda": 5},
        {"sparsity": "3"},
        {"lambda": [2e-4], "sparsity": [3]},
        {"lambda": [2e-4] * 3, "sparsity": [3] * 3},
        {"sparsity": [9, 2]},
        {"sparsity": [2.7, 3]},
        {"sparsity": [True, 2]},
        {"lambda": [math.nan, math.nan]},
        {"lambda": [2e-4, math.inf]},
    ], ids=["no-lambda", "no-sparsity", "lambda-int", "sparsity-str", "one-entry",
            "three-entries", "cap-over-length", "fractional-cap", "boolean-cap", "nan-lambda",
            "inf-lambda"])
    def test_malformed_sidecar_exit_one(self, toy_dataset, trained, tmp_path, capsys, change):
        model = copy_with_sidecar(trained, tmp_path, change)
        rc = main(["eval", str(model), str(toy_dataset)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: sidecar ") and "m.ml0w.json" in err

    def test_missing_sidecar_exit_one(self, toy_dataset, trained, tmp_path, capsys):
        model = tmp_path / "bare.ml0w"
        model.write_bytes(trained.read_bytes())
        rc = main(["eval", str(model), str(toy_dataset)])
        assert rc == 1
        assert "missing sidecar" in capsys.readouterr().err

    def test_sidecar_needs_no_gamma(self, toy_dataset, trained, tmp_path, capsys):
        rc = main(["eval", str(trained), str(toy_dataset)])
        want = capsys.readouterr().out
        model = copy_with_sidecar(trained, tmp_path, {"gamma": None})
        assert rc == 0 and main(["eval", str(model), str(toy_dataset)]) == 0
        assert capsys.readouterr().out == want


def dataset_bytes(X, y, n=None):
    """A dataset file packed by hand, so it may hold non-finite samples or
    declare another sample count."""
    dims = X.shape[1:]
    return (b"ML0T" + struct.pack("<II", 1, len(dims)) + struct.pack(f"<{len(dims)}Q", *dims)
            + struct.pack("<Q", X.shape[0] if n is None else n)
            + np.asarray(y, dtype="<i1").tobytes() + X.astype("<f8").tobytes())


def model_for(tmp_path, dims):
    """A weights file with blocks of the given lengths and its sidecar."""
    rng = np.random.default_rng(len(dims))
    path = tmp_path / "w.ml0w"
    save_params(ModelParams(blocks=tuple(rng.standard_normal(d) for d in dims), bias=0.1), path)
    path.with_name("w.ml0w.json").write_text(
        json.dumps({"lambda": [2e-4] * len(dims), "sparsity": list(dims)}))
    return path


# The (4, 3, 2) file below: magic 0-3, version 4-7, dim count 8-11, dims
# 12-27, sample count 28-35, labels 36-39, sample data 40-231 (48 bytes a
# sample). With `_FINITE_BLOCK` patched to one sample, each sample is a chunk.
RNG = np.random.default_rng(16)
X4 = RNG.standard_normal((4, 3, 2))
Y4 = [1, -1, -1, 1]
RAW = dataset_bytes(X4, Y4)


def nonfinite(i, value):
    X = X4.copy()
    X[i, 1, 0] = value
    return dataset_bytes(X, Y4)


BROKEN = {
    **{f"cut-{cut}": RAW[:cut] for cut in (0, 2, 6, 9, 20, 31, 38, 40, 231)},
    "cut-10-from-end": RAW[:-10],
    "cut-at-chunk-boundary": RAW[: 40 + 2 * 48],
    "cut-in-mid-chunk": RAW[: 40 + 2 * 48 + 20],
    "bad-magic": b"NOPE" + b"\x00" * 20,
    "bad-version": RAW[:4] + struct.pack("<I", 99) + RAW[8:],
    "bad-label": RAW[:36] + b"\x03" + RAW[37:],
    "huge-label-count": dataset_bytes(X4, Y4, n=2**40)[:40] + b"\x00" * 63,
    "samples-missing": dataset_bytes(X4[:1], [1] * 64, n=64)[: 36 + 64 + 8],
    "trailing-bytes": RAW + b"\x00" * 5,
    "nan-first-chunk": nonfinite(0, np.nan),
    "inf-middle-chunk": nonfinite(2, np.inf),
    "neg-inf-last-chunk": nonfinite(3, -np.inf),
}


class TestEvalStream:
    """`ml0 eval` streams the sample data: each broken file fails with the
    message `load_dataset` gives for it, and nothing the size of X is held."""

    @pytest.mark.parametrize("name", sorted(BROKEN))
    def test_broken_file_fails_with_the_load_message(self, tmp_path, capsys, monkeypatch, name):
        model = model_for(tmp_path, (3, 2))
        path = tmp_path / "broken.ml0t"
        path.write_bytes(BROKEN[name])
        with pytest.raises(ValueError) as err:
            load_dataset(path)
        monkeypatch.setattr(ml0.data, "_FINITE_BLOCK", 6)
        assert main(["eval", str(model), str(path)]) == 1
        assert capsys.readouterr().err == f"error: {err.value}\n"

    def test_short_read_mid_stream_reports_where_it_stopped(self, tmp_path, capsys, monkeypatch):
        model = model_for(tmp_path, (3, 2))
        path = tmp_path / "t.ml0t"
        path.write_bytes(RAW)
        real_open = open

        class ShortAfterTwoChunks:
            """Reads from byte 136 on stop halfway, as if the file shrank after fstat."""

            def __init__(self, fh):
                self.fh = fh

            def fileno(self):
                return self.fh.fileno()

            def close(self):
                self.fh.close()

            def readinto(self, buf):
                view = memoryview(buf)
                return self.fh.readinto(view[: len(view) // 2] if self.fh.tell() >= 136 else view)

        def opener(file, *args):
            fh = real_open(file, *args)
            return ShortAfterTwoChunks(fh) if str(file) == str(path) else fh

        monkeypatch.setattr(ml0.data, "_FINITE_BLOCK", 6)
        monkeypatch.setattr(ml0.data, "open", opener, raising=False)
        assert main(["eval", str(model), str(path)]) == 1
        want = FormatError(f"{path}: truncated while reading sample data", 136 + 24)
        assert capsys.readouterr().err == f"error: {want}\n"

    def test_dims_checked_before_the_sample_data(self, tmp_path, capsys):
        model = model_for(tmp_path, (2, 3))
        path = tmp_path / "t.ml0t"
        path.write_bytes(RAW[:100])
        assert main(["eval", str(model), str(path)]) == 1
        assert "do not match sample dims (3, 2)" in capsys.readouterr().err

    def test_a_non_finite_weight_exits_one_naming_the_block_and_offset(self, tmp_path, capsys):
        """A weights file with an inf in block 1 (entries at 52-67 for the
        (3, 2) blocks) fails as `load_params` fails on it."""
        model = model_for(tmp_path, (3, 2))
        raw = bytearray(model.read_bytes())
        raw[60:68] = struct.pack("<d", np.inf)
        model.write_bytes(bytes(raw))
        path = tmp_path / "t.ml0t"
        path.write_bytes(RAW)
        assert main(["eval", str(model), str(path)]) == 1
        assert capsys.readouterr().err == f"error: {model}: non-finite value inf in block 1 (byte offset 60)\n"

    @pytest.mark.parametrize("ranges", [1, 2])
    @pytest.mark.parametrize("support", ["sparse", "empty"])
    def test_a_bad_entry_in_rows_no_weight_selects_still_fails(self, tmp_path, capsys, monkeypatch,
                                                               ranges, support):
        """130x130 samples are scored from the rows the first block selects;
        every sample byte is still read and checked, so a NaN or inf in a row
        that no weight selects fails `load_dataset`, `margins` over a stream
        and `ml0 eval` with one FormatError naming the file and the entry's
        byte offset."""
        dims = (130, 130)
        assert math.prod(dims) >= ml0.tensor._GATHER_MIN_SAMPLE
        monkeypatch.setattr(kernels, "_usable_cores", lambda: 2)
        monkeypatch.setattr(kernels, "_SPLIT_MIN_PASS", 1 if ranges == 2 else 1 << 62)
        rng = np.random.default_rng(19)
        w1 = np.zeros(dims[0])
        if support == "sparse":
            w1[[3, 40, 41]] = rng.standard_normal(3)
        params = ModelParams(blocks=(w1, rng.standard_normal(dims[1])), bias=0.1)
        model = tmp_path / "w.ml0w"
        save_params(params, model)
        (tmp_path / "w.ml0w.json").write_text(json.dumps({"lambda": [0.0, 0.0], "sparsity": [3, 130]}))
        n = 6
        assert len(kernels._ranges(n, math.prod(dims))) - 1 == ranges
        for sample, value in ((1, np.nan), (4, np.inf), (5, -np.inf)):
            X = rng.standard_normal((n,) + dims)
            X[sample, 100, 5] = value
            path = tmp_path / "bad.ml0t"
            path.write_bytes(dataset_bytes(X, [1, -1] * (n // 2)))
            offset = 36 + n + 8 * (sample * math.prod(dims) + 100 * dims[1] + 5)
            with pytest.raises(FormatError) as err:
                load_dataset(path)
            assert str(err.value) == (f"{path}: non-finite value {value} in sample data"
                                      f" (byte offset {offset})")
            assert err.value.offset == offset
            with ml0.DatasetStream(path) as stream, pytest.raises(FormatError) as streamed:
                ml0.margins(params, stream)
            assert str(streamed.value) == str(err.value)
            assert streamed.value.offset == offset
            assert main(["eval", str(model), str(path)]) == 1
            assert capsys.readouterr().err == f"error: {err.value}\n"

    def test_peak_is_the_partial_and_two_chunks(self, tmp_path, capsys):
        rng = np.random.default_rng(17)
        n, dims = 1200, (30, 30)
        path = tmp_path / "t.ml0t"
        save_dataset(Dataset(rng.standard_normal((n,) + dims), rng.choice([-1.0, 1.0], n)), path)
        model = model_for(tmp_path, dims)
        size = path.stat().st_size
        assert size >= 8e6
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            rc = main(["eval", str(model), str(path)])
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert rc == 0
        partial = 8 * n * dims[0]
        chunk = 8 * math.prod(dims) * (ml0.data._FINITE_BLOCK // math.prod(dims))
        assert peak <= 1.1 * (partial + 2 * chunk), f"eval peak {peak} B for a {size} B file"
        report = json.loads(capsys.readouterr().out)
        assert report["n"] == n


class TestBench:
    def test_report_shape_and_determinism(self, toy_dataset, tmp_path, capsys):
        reports = []
        for tag in ("r1.csv", "r2.csv"):
            out = tmp_path / tag
            rc = main([
                "bench", str(toy_dataset), "--schedules", "apalm+,bpgd",
                "--runs", "2", "--seed", "0", "--max-iters", "20",
                "--no-wall-time", "-o", str(out),
            ])
            assert rc == 0
            reports.append(out.read_bytes())
        assert reports[0] == reports[1]
        lines = read_csv(tmp_path / "r1.csv")
        assert lines[0].startswith("schedule,run,seed,")
        # 2 schedules x 2 runs + 2 summary rows
        assert len(lines) == 1 + 4 + 2
        summary = [l for l in lines if ",mean+-std," in l]
        assert len(summary) == 2

    def test_single_run_warns_and_zero_std(self, toy_dataset, tmp_path, capsys):
        out = tmp_path / "r.csv"
        rc = main([
            "bench", str(toy_dataset), "--schedules", "bpgd", "--runs", "1",
            "--max-iters", "10", "--no-wall-time", "-o", str(out),
        ])
        assert rc == 0
        assert "fewer than 2 runs" in capsys.readouterr().err
        summary = [l for l in read_csv(out) if ",mean+-std," in l][0]
        assert "+-0" in summary

    def test_sidecar_records_the_flags_in_any_schedule_order(self, toy_dataset, tmp_path):
        sidecars = []
        for order in ("apalm+,bpgd", "bpgd,apalm+"):
            out = tmp_path / f"{order}.csv"
            rc = main(["bench", str(toy_dataset), "--schedules", order, "--runs", "1",
                       "--max-iters", "5", "--beta1", "0.5", "--no-wall-time", "-o", str(out)])
            assert rc == 0
            sidecars.append(json.loads((tmp_path / f"{order}.csv.json").read_text()))
        assert [s.pop("schedules") for s in sidecars] == [["apalm+", "bpgd"], ["bpgd", "apalm+"]]
        assert sidecars[0] == sidecars[1]
        assert sidecars[0]["beta1"] == 0.5

    def test_zero_runs_exit_one(self, toy_dataset, tmp_path, capsys):
        rc = main(["bench", str(toy_dataset), "--runs", "0", "-o", str(tmp_path / "r.csv")])
        assert rc == 1
        assert "--runs must be >= 1" in capsys.readouterr().err
        assert not (tmp_path / "r.csv").exists()

    def test_unknown_schedule_exit_one(self, toy_dataset, capsys):
        rc = main(["bench", str(toy_dataset), "--schedules", "sgd"])
        assert rc == 1

    @pytest.mark.parametrize("schedules, named", [
        (",", "--schedules names no schedule"),
        ("bpgd,bpgd", "--schedules names 'bpgd' more than once"),
    ], ids=["empty", "repeated"])
    def test_empty_or_repeated_schedules_exit_one(self, toy_dataset, tmp_path, capsys, schedules,
                                                  named):
        """An empty list printed a header-only report; a repeated name ran
        each solve and printed each row twice."""
        out = tmp_path / "r.csv"
        rc = main(["bench", str(toy_dataset), "--schedules", schedules, "-o", str(out)])
        assert rc == 1
        assert named in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("command", ["gen", "train", "bench"])
def test_negative_seed_exits_one_naming_it_and_writes_nothing(command, toy_dataset, tmp_path,
                                                                capsys):
    """numpy rejected the seed deep inside with a message naming no flag."""
    data = ["--rows", "4", "--cols", "4", "--block", "2", "--per-class", "2"]
    rc = main([command, *(data if command == "gen" else [str(toy_dataset)]),
               "--seed", "-1", "-o", str(tmp_path / "out")])
    assert rc == 1
    assert "seed must be >= 0, got -1" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


class TestModuleEntryPoint:
    """`python -m ml0` with the package on PYTHONPATH and nothing installed."""

    @staticmethod
    def run_module(*args):
        src = str(Path(ml0.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=src)
        return subprocess.run([sys.executable, "-m", "ml0", *args], env=env,
                              capture_output=True, text=True, timeout=120, check=False)

    def test_version(self):
        proc = self.run_module("--version")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == f"ml0 {ml0.__version__}"

    def test_eval_prints_what_main_prints(self, toy_dataset, trained, capsys):
        proc = self.run_module("eval", str(trained), str(toy_dataset))
        assert proc.returncode == 0, proc.stderr
        assert main(["eval", str(trained), str(toy_dataset)]) == 0
        assert json.loads(proc.stdout) == json.loads(capsys.readouterr().out)
