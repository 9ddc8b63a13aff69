"""The benchmark's span tracer (ml0bench/tracer.py) wraps ml0 functions by
name; a name that vanishes from ml0 silently turns its per-layer metrics
absent. These tests load the tracer as the benchmark does and check that
every metric it reports still finds the names it needs, and run one round
of the harness itself (ml0bench/run.py) against ml0's public API."""

import contextlib
import importlib
import importlib.util
import inspect
import io
import json
import sys
from pathlib import Path

import ml0
import ml0.cli

BENCH_DIR = Path(__file__).resolve().parents[1] / "ml0bench"
TRACER_PATH = BENCH_DIR / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("ml0bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@contextlib.contextmanager
def phase(tracer, name):
    token = tracer.enter_phase(name)
    try:
        yield
    finally:
        tracer.exit_phase(token)


def function_bindings(modules):
    return {
        (mod.__name__, attr): value
        for mod in modules
        for attr, value in vars(mod).items()
        if inspect.isfunction(value)
    }


def test_tracer_finds_every_name_and_restores_ml0():
    tracer_mod = load_tracer()
    modules = [ml0] + [importlib.import_module(f"ml0.{layer}") for layer in tracer_mod.LAYERS]
    before = function_bindings(modules)
    tracer = tracer_mod.Tracer()
    try:
        tracer.install()
        assert ml0.predict is not before[("ml0", "predict")]
        metrics, absent = tracer_mod.layer_split(tracer, 0, 0, 0, 0, 1, 1)
    finally:
        tracer.uninstall()
    assert absent == []
    assert len(metrics) == 21
    after = function_bindings(modules)
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_traced_phases_time_the_work_they_name(tmp_path):
    """A short desk solve with accepted extrapolations, an eval and a
    predict, traced as the benchmark traces them: every phase metric the
    benchmark reports reads time spent in the functions it names, and an
    iteration still reads X twice."""
    tracer_mod = load_tracer()
    ds, _ = ml0.generate_synthetic(ml0.SyntheticConfig(rows=30, cols=30, block=5,
                                                       per_class=100, seed=0))
    train, test = ml0.split(ds, 0.8, seed=0)
    problem = ml0.Problem(ridge=(2e-4, 2e-4), sparsity=(9, 9))
    init = ml0.random_init(train.feature_dims, problem.sparsity, seed=0)
    model, data = tmp_path / "m.ml0w", tmp_path / "d.ml0t"
    ml0.save_dataset(test, data)
    tensors = [test.sample(i) for i in range(10)]
    tracer = tracer_mod.Tracer()
    tracer.x_shape = train.X.shape
    try:
        tracer.install()
        with phase(tracer, "solve"):
            res = ml0.run(problem, train, init, ml0.SolverConfig(max_iters=40),
                          iterate_hook=tracer.iterate_hook)
        with phase(tracer, "check"):
            ml0.save_params(res.params, model)
            sidecar = {"lambda": list(problem.ridge), "sparsity": list(problem.sparsity)}
            Path(f"{model}.json").write_text(json.dumps(sidecar))
        with phase(tracer, "eval"), contextlib.redirect_stdout(io.StringIO()):
            assert ml0.cli.main(["eval", str(model), str(data)]) == 0
        with phase(tracer, "predict"):
            for x in tensors:
                ml0.predict(res.params, x)
    finally:
        tracer.uninstall()
    assert sum(row.accepted and row.beta > 0 for row in res.trace) > 0
    metrics, absent = tracer_mod.layer_split(tracer, len(res.trace), 1, len(tensors), 1,
                                             train.X.nbytes, data.stat().st_size)
    assert absent == []
    for name in ("solver.extrap_test_ms", "solver.sweep_ms", "solver.stop_test_ms",
                 "model.elementwise_ms", "tensor.contract_full_us", "data.load_ms",
                 "metrics.auc_ms"):
        assert metrics[name][0] > 0, name
    assert metrics["kernels.x_passes"][0] == 2.0


def load_harness(monkeypatch, tmp_path):
    """ml0bench/run.py loaded as the benchmark runs it, and the state of one
    setup of a tiny workload."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(BENCH_DIR))
    spec = importlib.util.spec_from_file_location("ml0bench_run", BENCH_DIR / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    w = run.Workload("smoke", "", rows=8, cols=8, block=3, per_class=20, sparsity=(3, 3),
                     solves=1, fixed_iters=5, eval_per_class=0, evals=1, setups=1)
    return run, w, run.setup(ml0, w, 0, tmp_path)


def test_harness_runs_a_round_without_failures(tmp_path, monkeypatch):
    """The benchmark harness (ml0bench/run.py) calls ml0's public API: one
    setup and one untraced round on a tiny workload run with no failed
    operation and no problem, so an API change that breaks the harness
    fails here."""
    run, w, st = load_harness(monkeypatch, tmp_path)
    rnd = run.run_round(ml0, w, st, None)
    assert rnd.failed == 0
    assert rnd.problems == []


def test_traced_harness_round_reports_every_metric(tmp_path, monkeypatch):
    """One round of the harness with its tracer installed, as `--trace 1`
    runs it: no failed operation, no problem, no absent metric, and the
    single-sample contraction that `ml0.predict` calls is timed."""
    run, w, st = load_harness(monkeypatch, tmp_path)
    tracer = run.Tracer()
    tracer.x_shape = st.solves[0][0].X.shape
    try:
        tracer.install()
        rnd = run.run_round(ml0, w, st, tracer)
    finally:
        tracer.uninstall()
    assert rnd.failed == 0
    assert rnd.problems == []
    metrics, absent = run.layer_split(
        tracer, iterations=len(rnd.iter_s) + len(st.solves), evals=w.evals,
        predicts=run.PREDICTS, setups=w.setups, x_bytes=st.solves[0][0].X.nbytes,
        eval_bytes=st.data_path.stat().st_size)
    assert absent == []
    assert metrics["tensor.contract_full_us"][0] > 0
