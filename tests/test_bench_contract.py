"""The benchmark's span tracer (ml0bench/tracer.py) wraps ml0 functions by
name; a name that vanishes from ml0 silently turns its per-layer metrics
absent. These tests load the tracer as the benchmark does and check that
every metric it reports still finds the names it needs."""

import importlib
import importlib.util
import inspect
from pathlib import Path

import ml0

TRACER_PATH = Path(__file__).resolve().parents[1] / "ml0bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("ml0bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
