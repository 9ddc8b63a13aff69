import json

import numpy as np
import pytest

from ml0 import (
    Problem,
    SolverConfig,
    kernels,
    load_dataset,
    load_params,
    objective,
    random_init,
    run,
)
from ml0.cli import main


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


class TestTrain:
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

    def test_missing_dataset_exit_one(self, tmp_path, capsys):
        rc = main(["train", str(tmp_path / "absent.ml0t"), "-o", str(tmp_path / "m.ml0w")])
        assert rc == 1


@pytest.fixture(scope="module")
def trained(toy_dataset, tmp_path_factory):
    model = tmp_path_factory.mktemp("model") / "m.ml0w"
    rc = main([
        "train", str(toy_dataset), "-o", str(model),
        "--max-iters", "60", "--seed", "1", "--no-wall-time",
    ])
    assert rc == 0
    return model


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
        ds = load_dataset(toy_dataset)
        shapes = []
        contract = kernels.contract_mode

        def recording(arr, v, axis):
            shapes.append(arr.shape)
            return contract(arr, v, axis)

        monkeypatch.setattr(kernels, "contract_mode", recording)
        rc = main(["eval", str(trained), str(toy_dataset)])
        monkeypatch.undo()
        assert rc == 0
        assert shapes.count(ds.X.shape) == 1
        report = json.loads(capsys.readouterr().out)
        sidecar = json.loads((trained.parent / (trained.name + ".json")).read_text())
        problem = Problem(ridge=tuple(sidecar["lambda"]), sparsity=tuple(sidecar["sparsity"]),
                          gamma=sidecar["gamma"])
        assert report["objective"] == objective(load_params(trained), ds, problem)

    def test_dimension_mismatch_exit_one(self, trained, tmp_path, capsys):
        other = tmp_path / "other.ml0t"
        rc = main(["gen", "--rows", "4", "--cols", "4", "--block", "2",
                   "--per-class", "3", "-o", str(other)])
        assert rc == 0
        rc = main(["eval", str(trained), str(other)])
        assert rc == 1
        assert "match" in capsys.readouterr().err


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

    def test_unknown_schedule_exit_one(self, toy_dataset, capsys):
        rc = main(["bench", str(toy_dataset), "--schedules", "sgd"])
        assert rc == 1
