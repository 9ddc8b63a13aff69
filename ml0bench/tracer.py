"""Span tracer for the ml0 package, installed from outside it.

`Tracer.install()` replaces every public module-level function of the layer
modules (plus the named private solver phases) with a wrapper that records one
span per call: name, start, end, parent and the benchmark phase it ran in.
Every reference to the same function object in `ml0` and its submodules is
replaced, so calls routed through `from .model import ...` are seen too.
`uninstall()` restores the originals. Spans stay in memory until
`write_spans()`; `layer_split()` turns them into per-layer self times and
counts.

A name that no longer exists is simply not wrapped; every metric that needs
it is reported as absent instead of failing the run.
"""

import functools
import gzip
import importlib
import inspect
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("cli", "data", "model", "kernels", "tensor", "prox", "solver", "metrics")
PRIVATE = {"solver": ("_objective_at", "_gradient_family")}

# Span tuple fields.
NAME, PARENT, START, END, PHASE, TAG = range(6)


class Tracer:
    def __init__(self):
        self.spans = []
        self.marks = []  # (span count at the mark, iteration number)
        self.phase = "setup"
        self.x_shape = None  # contract_mode inputs of this shape count as a pass over X
        self.wrapped = set()
        self._stack = []
        self._patched = []

    def _wrap(self, qualname, fn):
        spans, stack = self.spans, self._stack
        tagged = qualname == "kernels.contract_mode"

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                tag = tagged and getattr(args[0], "shape", None) == self.x_shape
                spans[idx] = (qualname, parent, t0, t1, self.phase, tag)

        return functools.wraps(fn)(wrapper)

    def install(self):
        package = importlib.import_module("ml0")
        modules = [importlib.import_module(f"ml0.{layer}") for layer in LAYERS]
        wrappers = {}
        for layer, mod in zip(LAYERS, modules):
            for attr, value in vars(mod).items():
                if not inspect.isfunction(value) or value.__module__ != mod.__name__:
                    continue
                if attr.startswith("_") and attr not in PRIVATE.get(layer, ()):
                    continue
                wrappers[value] = self._wrap(f"{layer}.{attr}", value)
                self.wrapped.add(f"{layer}.{attr}")
        for mod in [package, *modules]:
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._patched.append((mod, attr, value))
                    setattr(mod, attr, wrappers[value])

    def uninstall(self):
        for mod, attr, value in reversed(self._patched):
            setattr(mod, attr, value)
        self._patched.clear()

    def has(self, *names):
        return all(n in self.wrapped for n in names)

    def enter_phase(self, name):
        """Start a benchmark phase span; returns a token for exit_phase."""
        self.phase = name
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        return idx, perf_counter()

    def exit_phase(self, token):
        idx, t0 = token
        self._stack.pop()
        self.spans[idx] = (f"phase.{self.phase}", -1, t0, perf_counter(), self.phase, False)
        self.phase = "other"

    def iterate_hook(self, k, blocks, bias):
        self.marks.append((len(self.spans), k))

    def write_spans(self, path):
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("id,name,parent,start,end,phase,x_pass\n")
            for i, s in enumerate(self.spans):
                fh.write(f"{i},{s[NAME]},{s[PARENT]},{s[START]!r},{s[END]!r},{s[PHASE]},{int(s[TAG])}\n")


def x_pass_counts(tracer):
    """Passes over X per outer iteration, one entry per pair of consecutive
    iteration marks within a solve: the stop test of iteration k-1, the
    extrapolation test and the sweep of iteration k."""
    spans, marks = tracer.spans, tracer.marks
    counts = []
    for (lo, k0), (hi, k1) in zip(marks, marks[1:]):
        if k1 == k0 + 1:
            counts.append(sum(1 for s in spans[lo:hi] if s[TAG]))
    return counts


def layer_split(tracer, iterations, evals, predicts, setups, x_bytes, eval_bytes):
    """Per-layer self times and counts from the recorded spans.

    Solve-phase figures are per outer iteration, eval-phase figures per
    `ml0 eval`, predict-phase figures per call and setup figures per setup.
    Returns (metrics, absent) where metrics maps name -> (value, unit) and
    absent lists the metrics whose wrapped names no longer exist.
    """
    spans = tracer.spans
    child = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child[s[PARENT]] += s[END] - s[START]

    incl = defaultdict(float)   # (phase, name) -> inclusive seconds
    self_t = defaultdict(float)  # (phase, name) -> self seconds
    calls = Counter()            # (phase, name) -> calls
    x_time, x_calls = 0.0, 0
    extrap, sweep, stop = 0.0, 0.0, 0.0
    seen_objective = set()  # run spans whose initial objective was already seen
    for i, s in enumerate(spans):
        key = (s[PHASE], s[NAME])
        dur = s[END] - s[START]
        incl[key] += dur
        self_t[key] += dur - child[i]
        calls[key] += 1
        if s[PHASE] != "solve":
            continue
        if s[TAG]:
            x_time += dur
            x_calls += 1
        parent = s[PARENT]
        if parent >= 0 and spans[parent][NAME] == "solver.run":
            if s[NAME] == "solver._objective_at":
                if parent in seen_objective:
                    extrap += dur
                seen_objective.add(parent)
            elif s[NAME] in ("solver._gradient_family", "solver.check_stop"):
                stop += dur
            else:
                sweep += dur

    def layer_self(phase, layer):
        return sum(v for (ph, n), v in self_t.items() if ph == phase and n.startswith(layer + "."))

    it = max(iterations, 1)
    out, absent = {}, []

    def put(name, needs, value, unit):
        if tracer.has(*needs):
            out[name] = (value(), unit)
        else:
            absent.append(name)

    cm = "kernels.contract_mode"
    passes = x_pass_counts(tracer)
    solve_incl = incl[("solve", "solver.run")]
    put("kernels.contract_ms", [cm], lambda: 1e3 * layer_self("solve", "kernels") / it, "ms")
    put("kernels.contract_share", [cm, "solver.run"],
        lambda: layer_self("solve", "kernels") / solve_incl if solve_incl else 0.0, "ratio")
    put("kernels.x_passes", [cm], lambda: sum(passes) / len(passes) if passes else 0.0, "count")
    put("kernels.calls", [cm], lambda: calls[("solve", cm)] / it, "count")
    put("kernels.gbps_computed", [cm],
        lambda: x_calls * x_bytes / x_time / 1e9 if x_time else 0.0, "GB/s")
    put("model.self_ms", ["model.grad_direction_batch", "model.margin_batch"],
        lambda: 1e3 * (self_t[("solve", "model.grad_direction_batch")]
                       + self_t[("solve", "model.margin_batch")]) / it, "ms")
    put("model.elementwise_ms", ["model.loss_coefficients", "model.logistic_terms"],
        lambda: 1e3 * (self_t[("solve", "model.loss_coefficients")]
                       + self_t[("solve", "model.logistic_terms")]) / it, "ms")
    put("model.margins_ms", ["model.margin_batch"],
        lambda: 1e3 * incl[("eval", "model.margin_batch")] / max(evals, 1), "ms")
    put("prox.project_ms", ["prox.project_l0"],
        lambda: 1e3 * self_t[("solve", "prox.project_l0")] / it, "ms")
    put("prox.calls", ["prox.project_l0"], lambda: calls[("solve", "prox.project_l0")] / it, "count")
    put("solver.extrap_test_ms", ["solver.run", "solver._objective_at"],
        lambda: 1e3 * extrap / it, "ms")
    put("solver.sweep_ms", ["solver.run"], lambda: 1e3 * sweep / it, "ms")
    put("solver.stop_test_ms", ["solver.run", "solver._gradient_family", "solver.check_stop"],
        lambda: 1e3 * stop / it, "ms")
    put("solver.self_ms", ["solver.run"], lambda: 1e3 * self_t[("solve", "solver.run")] / it, "ms")
    put("data.generate_s", ["data.generate_synthetic"],
        lambda: incl[("setup", "data.generate_synthetic")] / max(setups, 1), "s")
    put("data.split_s", ["data.split"], lambda: incl[("setup", "data.split")] / max(setups, 1), "s")
    load_t = incl[("eval", "data.load_dataset")]
    put("data.load_ms", ["data.load_dataset", "data.load_params"],
        lambda: 1e3 * (load_t + incl[("eval", "data.load_params")]) / max(evals, 1), "ms")
    put("data.load_mbps_computed", ["data.load_dataset"],
        lambda: calls[("eval", "data.load_dataset")] * eval_bytes / load_t / 1e6 if load_t else 0.0,
        "MB/s")
    put("metrics.auc_ms", ["metrics.auc"],
        lambda: 1e3 * incl[("eval", "metrics.auc")] / max(evals, 1), "ms")
    put("tensor.contract_full_us", ["tensor.contract_full"],
        lambda: 1e6 * incl[("predict", "tensor.contract_full")] / max(predicts, 1), "us")
    put("cli.self_ms", ["cli.main"], lambda: 1e3 * layer_self("eval", "cli") / max(evals, 1), "ms")
    return out, absent
