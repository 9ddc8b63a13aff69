#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the ml0 package in ../src.

    python3 ml0bench/run.py [--workload all|desk-tol|large-iters|score]
                            [--seed S] [--seconds N] [--trace 0|1]

Each workload runs in its own process: it sets up its inputs from the seed
several times (the median is `setup_s`), then repeats rounds until the time
is up. A round is a solve phase (`ml0.run`), an eval phase (in-process
`ml0 eval` on a dataset file) and a predict phase (single-sample
`ml0.predict` calls). Every solve, eval and predict is checked, and the
exact results of every round must match the first round bitwise.

With --trace 0 the last stdout line carries the end-to-end metrics. With
--trace 1 half of the time runs untraced and half with every ml0 module
function wrapped by tracer.py; the last line then carries the per-layer
split, the exact counts and the tracing overhead. `--workload all` runs the
three workloads one after another, each in a child process.

Records and span dumps go to ml0bench/out/.
"""

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass, replace
from pathlib import Path
from time import perf_counter

import numpy as np

from tracer import NAME, TAG, Tracer, layer_split

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

RIDGE = 2e-4
TRAIN_FRACTION = 0.8
PREDICTS = 3000  # predict calls per round
PREDICT_RTOL = 1e-12  # single-sample contraction against the batched margins


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    rows: int
    cols: int
    block: int
    per_class: int
    sparsity: tuple
    solves: int  # splits and random inits seeded S .. S+solves-1
    fixed_iters: int  # 0: solve to tolerance
    eval_per_class: int  # 0: evaluate on the test split of the first solve
    evals: int  # ml0 eval calls per round
    setups: int
    warmup_iters: int = 0


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "desk-tol",
            "30x30 desk scale, X_train 1.1 MB fits in L2: ten solves to tolerance, so "
            "per-call dispatch in solver/model/prox sets the cost and any change to "
            "convergence moves the iteration count",
            rows=30, cols=30, block=5, per_class=100, sparsity=(9, 9),
            solves=10, fixed_iters=0, eval_per_class=0, evals=20, setups=9,
        ),
        Workload(
            "large-iters",
            "200x200, X_train 244 MiB streams from memory five times per iteration: "
            "contraction and the pass count set the cost; fixed 10 iterations because "
            "the run to tolerance takes minutes",
            rows=200, cols=200, block=20, per_class=500, sparsity=(60, 60),
            solves=1, fixed_iters=10, eval_per_class=0, evals=5, setups=3, warmup_iters=2,
        ),
        Workload(
            "score",
            "read path: ml0 eval on a 20,000-sample 30x30 file (137 MiB) and single-sample "
            "predict; load, AUC ranking and the full contraction, which training never uses",
            rows=30, cols=30, block=5, per_class=100, sparsity=(9, 9),
            solves=1, fixed_iters=0, eval_per_class=10000, evals=5, setups=3,
        ),
    )
}


def import_ml0():
    """Import ml0 from this checkout's src/, or exit without a result."""
    src = ROOT / "src"
    if not (src / "ml0" / "__init__.py").is_file():
        sys.exit(f"error: no ml0 package at {src / 'ml0'}")
    sys.path.insert(0, str(src))
    import ml0
    import ml0.cli  # noqa: F401  (the eval phase calls ml0.cli.main)

    if Path(ml0.__file__).resolve().parent != (src / "ml0").resolve():
        sys.exit(f"error: imported ml0 from {ml0.__file__}, not from {src}")
    return ml0


def machine_record(ml0):
    rec = {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": "unknown",
        "blas_thread_env": {
            k: v for k, v in os.environ.items()
            if k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                     "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
        },
        "llc_bytes": None,
        "ml0_backend": ml0.get_backend() if hasattr(ml0, "get_backend") else None,
    }
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        rec["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        pass
    caches = []
    for index in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
        try:
            level = int((index / "level").read_text())
            size = (index / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        scale = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}.get(size[-1:], 1)
        caches.append((level, int(size.rstrip("KMG")) * scale))
    if caches:
        rec["llc_bytes"] = max(caches)[1]
    return rec


@dataclass
class State:
    problem: object
    config: object
    solves: list  # (train, test, init)
    eval_ds: object
    data_path: Path
    weights: Path
    tensors: list
    reference: dict = None  # eval JSON fields computed directly
    ref_margins: np.ndarray = None


def solver_config(ml0, iters):
    if iters:
        return ml0.SolverConfig(max_iters=iters, tol_obj=1e-300, tol_grad=1e-300,
                                max_seconds=1e9)
    return ml0.SolverConfig()


def setup(ml0, w, seed, workdir):
    cfg = ml0.SyntheticConfig(rows=w.rows, cols=w.cols, block=w.block,
                              per_class=w.per_class, seed=seed)
    ds, _ = ml0.generate_synthetic(cfg)
    problem = ml0.Problem(ridge=(RIDGE,) * len(w.sparsity), sparsity=w.sparsity)
    solves = []
    for s in range(seed, seed + w.solves):
        train, test = ml0.split(ds, TRAIN_FRACTION, seed=s)
        solves.append((train, test, ml0.random_init(train.feature_dims, problem.sparsity, seed=s)))
    del ds
    if w.eval_per_class:
        eval_ds, _ = ml0.generate_synthetic(replace(cfg, per_class=w.eval_per_class))
    else:
        eval_ds = solves[0][1]
    data_path = workdir / "eval.ml0t"
    ml0.save_dataset(eval_ds, data_path)
    tensors = [eval_ds.sample(i) for i in range(min(eval_ds.n, PREDICTS))]
    if w.warmup_iters:
        train, _, init = solves[0]
        ml0.run(problem, train, init, solver_config(ml0, w.warmup_iters))
    return State(problem, solver_config(ml0, w.fixed_iters), solves, eval_ds, data_path,
                 workdir / "model.ml0w", tensors)


@contextlib.contextmanager
def phase(tracer, name):
    if tracer is None:
        yield
        return
    token = tracer.enter_phase(name)
    try:
        yield
    finally:
        tracer.exit_phase(token)


@dataclass
class Round:
    solve_s: float
    iter_s: list  # per-iteration wall times (diffs of the trace clock)
    eval_s: list
    predict_s: list
    fingerprint: tuple  # exact results that must repeat bitwise
    attempted: int
    failed: int
    problems: list
    trace_counts: tuple = None  # (passes over X, contract_mode calls) when traced


def write_model(ml0, st, params):
    ml0.save_params(params, st.weights)
    sidecar = {"lambda": list(st.problem.ridge), "sparsity": list(st.problem.sparsity),
               "gamma": st.problem.gamma}
    with open(str(st.weights) + ".json", "w", encoding="utf-8") as fh:
        json.dump(sidecar, fh)
    m = ml0.margins(params, st.eval_ds)
    st.reference = {"accuracy": ml0.accuracy(m, st.eval_ds.y), "auc": ml0.auc(m, st.eval_ds.y),
                    "objective": ml0.objective(params, st.eval_ds, st.problem)}
    st.ref_margins = m[: len(st.tensors)]


def check_solve(w, st, res):
    trace = res.trace
    if w.fixed_iters:
        if len(trace) != w.fixed_iters or res.stop_reason != "max_iters":
            return f"ran {len(trace)} iterations ({res.stop_reason}), expected {w.fixed_iters}"
    elif res.stop_reason not in ("obj_tol", "grad_tol"):
        return f"stopped on {res.stop_reason}, not on a tolerance"
    if any(b.objective > a.objective for a, b in zip(trace, trace[1:])):
        return "recorded objective rose"
    if any(np.count_nonzero(b) > s for b, s in zip(res.params.blocks, st.problem.sparsity)):
        return "final iterate exceeds a sparsity cap"
    return None


def run_round(ml0, w, st, tracer):
    problems = []
    hook = tracer.iterate_hook if tracer else None
    mark0 = len(tracer.spans) if tracer else 0
    with phase(tracer, "solve"):
        t0 = perf_counter()
        results = [ml0.run(st.problem, train, init, st.config, iterate_hook=hook)
                   for train, _, init in st.solves]
        solve_s = perf_counter() - t0
    trace_counts = None
    if tracer:
        solve_spans = tracer.spans[mark0:]
        trace_counts = (sum(1 for s in solve_spans if s[TAG]),
                        sum(1 for s in solve_spans if s[NAME] == "kernels.contract_mode"))

    with phase(tracer, "check"):
        iter_s, fingerprint = [], []
        for (train, test, _), res in zip(st.solves, results):
            problem = check_solve(w, st, res)
            if problem:
                problems.append(problem)
            el = [row.elapsed_seconds for row in res.trace]
            iter_s.extend(b - a for a, b in zip(el, el[1:]))
            test_auc = ml0.auc(ml0.margins(res.params, test), test.y)
            fingerprint.append((len(res.trace), res.stop_reason, res.trace[-1].objective / train.n,
                                test_auc, sum(row.accepted for row in res.trace)))
        if st.reference is None:
            write_model(ml0, st, results[0].params)

    args = ["eval", str(st.weights), str(st.data_path)]
    eval_s, outputs = [], []
    with phase(tracer, "eval"):
        main = ml0.cli.main
        for _ in range(w.evals):
            buf = io.StringIO()
            t0 = perf_counter()
            with contextlib.redirect_stdout(buf):
                rc = main(args)
            eval_s.append(perf_counter() - t0)
            outputs.append((rc, buf.getvalue()))

    params, tensors = results[0].params, st.tensors
    nt = len(tensors)
    predict_s, values = [0.0] * PREDICTS, [0.0] * PREDICTS
    with phase(tracer, "predict"):
        predict = ml0.predict
        for i in range(PREDICTS):
            x = tensors[i % nt]
            t0 = perf_counter()
            v = predict(params, x)
            predict_s[i] = perf_counter() - t0
            values[i] = v

    with phase(tracer, "check"):
        failed = len(problems)
        for rc, text in outputs:
            report = json.loads(text) if rc == 0 else {}
            if rc != 0 or any(report.get(k) != v for k, v in st.reference.items()):
                failed += 1
                problems.append(f"eval exit {rc}: {text.strip()[:200]} vs {st.reference}")
        ref = st.ref_margins
        bad = sum(1 for i, v in enumerate(values)
                  if not abs(v - ref[i % nt]) <= PREDICT_RTOL * (1.0 + abs(ref[i % nt])))
        if bad:
            failed += bad
            problems.append(f"{bad} predictions differ from the batched margins")
    return Round(solve_s, iter_s, eval_s, predict_s, tuple(fingerprint),
                 len(results) + len(outputs) + PREDICTS, failed, problems, trace_counts)


def measure(ml0, w, st, budget, tracer):
    """Repeat rounds until the next one would overrun `budget` seconds."""
    rounds = []
    start = perf_counter()
    while True:
        t0 = perf_counter()
        rounds.append(run_round(ml0, w, st, tracer))
        last = perf_counter() - t0
        if perf_counter() - start + last > budget:
            return rounds


def pct(values, q):
    return float(np.percentile(np.asarray(values), q))


def timing_metrics(rounds, iter_q):
    iters = [t for r in rounds for t in r.iter_s]
    evals = [t for r in rounds for t in r.eval_s]
    predicts = [t for r in rounds for t in r.predict_s]
    return {
        "solve_s": statistics.median(r.solve_s for r in rounds),
        "iter_ms": 1e3 * pct(iters, iter_q),
        "iter_ms_p50": 1e3 * pct(iters, 50),
        "iter_ms_p90": 1e3 * pct(iters, 90),
        "iter_ms_p99": 1e3 * pct(iters, 99),
        "eval_s": pct(evals, 50),
        "eval_s_p90": pct(evals, 90),
        "predict_us_p50": 1e6 * pct(predicts, 50),
        "predict_us_p90": 1e6 * pct(predicts, 90),
        "predict_us_p99": 1e6 * pct(predicts, 99),
    }, {"iteration": len(iters), "eval": len(evals), "predict": len(predicts)}


def exact_metrics(fingerprint):
    iters = sum(f[0] for f in fingerprint)
    return {
        "solver.iters_to_tol": (iters, "count"),
        "solver.test_auc": (statistics.median(f[3] for f in fingerprint), "auc"),
        "solver.final_objective": (statistics.median(f[2] for f in fingerprint), "J/n"),
        "solver.extrap_accept_ratio": (sum(f[4] for f in fingerprint) / iters, "ratio"),
    }


UNITS = {"setup_s": "s", "solve_s": "s", "iter_ms": "ms", "iter_ms_p50": "ms", "iter_ms_p90": "ms",
         "iter_ms_p99": "ms", "eval_s": "s", "eval_s_p90": "s", "predict_us_p50": "us",
         "predict_us_p90": "us", "predict_us_p99": "us", "peak_rss_mb": "MiB"}
# The bounded metrics. On a shared host, co-tenant load moves a run's speed in
# two ways. Work that fits in the last-level cache runs at a loaded level most
# of the time, with idle bursts about 1.45x faster that come and go for
# seconds; its median depends on how many bursts a run caught, while its p90
# sits in the loaded level every run reaches. Work that streams from memory
# runs at full bandwidth most of the time and is slowed by bursts of
# contention; there the low quantile is the level every run reaches. So
# `iter_ms` is the p90 of the iteration times when X_train fits in the LLC and
# the p25 when it does not (at least ten samples lie below it). Eval and
# predict are cache-resident on every workload. Medians and p99s are printed.
END_TO_END = ("setup_s", "iter_ms", "eval_s_p90", "predict_us_p90", "peak_rss_mb")
ASSUMED_LLC_BYTES = 32 << 20  # when the cache size cannot be read


def run_workload(ml0, w, seed, seconds, trace):
    OUT.mkdir(exist_ok=True)
    tag = f"{w.name}-seed{seed}-trace{trace}"
    print(f"# ml0bench {tag} seconds={seconds}")
    machine = machine_record(ml0)
    print("machine: " + json.dumps(machine, sort_keys=True))

    tracer = Tracer() if trace else None
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        setup_times, st = [], None
        if tracer:
            tracer.install()
        for _ in range(w.setups):
            st = None
            t0 = perf_counter()
            with phase(tracer, "setup"):
                st = setup(ml0, w, seed, Path(tmp))
            setup_times.append(perf_counter() - t0)
        x_bytes = st.solves[0][0].X.nbytes
        eval_bytes = st.data_path.stat().st_size
        if tracer:
            tracer.uninstall()
            tracer.x_shape = st.solves[0][0].X.shape
        plain = measure(ml0, w, st, seconds / 2 if trace else seconds, None)
        traced = []
        if tracer:
            tracer.install()
            try:
                traced = measure(ml0, w, st, seconds / 2, tracer)
            finally:
                tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    rounds = plain + traced
    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    problems = [p for r in rounds for p in r.problems]
    if any(r.fingerprint != rounds[0].fingerprint for r in rounds):
        problems.append("exact results differ between rounds")
    if len({r.trace_counts for r in traced}) > 1:
        problems.append("passes over X or contraction calls differ between traced rounds")
    fingerprint = rounds[0].fingerprint
    # Acceptance criterion 7 holds the seed-0 desk bundle to a median test AUC
    # of 0.90. Other seeds are not held to it: each solve lands either near
    # AUC 1.0 or near 0.5, so a ten-solve median can fall either side.
    aucs = [f[3] for f in fingerprint]
    if w.name == "desk-tol" and seed == 0 and statistics.median(aucs) < 0.90:
        problems.append(f"acceptance bundle median test AUC {statistics.median(aucs)} < 0.90")

    llc = machine["llc_bytes"]
    iter_q = 90 if x_bytes <= (llc or ASSUMED_LLC_BYTES) else 25
    timing, samples = timing_metrics(plain, iter_q)
    e2e = {"setup_s": statistics.median(setup_times), "peak_rss_mb": peak_rss_mb, **timing}
    exact = exact_metrics(fingerprint)

    llc_text = f"{llc / 2**20:.1f} MiB" if llc else "unknown"
    print(f"sizes: X_train {x_bytes / 2**20:.1f} MiB, eval file {eval_bytes / 2**20:.1f} MiB, "
          f"LLC {llc_text}; iter_ms is the p{iter_q} of the iteration times")
    print(f"rounds: {len(plain)} untraced, {len(traced)} traced; setups {w.setups}; samples "
          + ", ".join(f"{n} {kind}" for kind, n in samples.items()))
    for name, unit in UNITS.items():
        bounded = "  (bounded)" if name in END_TO_END else ""
        print(f"  {name:28s} {e2e[name]:14.6g} {unit}{bounded}")
    for name, (value, unit) in exact.items():
        print(f"  {name:28s} {value:14.6g} {unit}  (exact, bitwise across rounds)")

    per_layer, absent = {}, []
    if tracer:
        traced_timing, _ = timing_metrics(traced, iter_q)
        split, absent = layer_split(
            tracer,
            iterations=sum(len(r.iter_s) + len(st.solves) for r in traced),
            evals=w.evals * len(traced), predicts=PREDICTS * len(traced),
            setups=w.setups, x_bytes=x_bytes, eval_bytes=eval_bytes)
        per_layer = {
            "solver.solve_s": (timing["solve_s"], "s"), **exact, **split,
            "trace.iter_overhead_ms": (traced_timing["iter_ms_p50"] - timing["iter_ms_p50"], "ms"),
            "trace.eval_overhead_ms": (1e3 * (traced_timing["eval_s"] - timing["eval_s"]), "ms"),
        }
        for name, (value, unit) in split.items():
            print(f"  {name:28s} {value:14.6g} {unit}")
        for name in ("trace.iter_overhead_ms", "trace.eval_overhead_ms"):
            print(f"  {name:28s} {per_layer[name][0]:14.6g} ms  (traced minus untraced)")
        for name in absent:
            print(f"  {name:28s} absent (a name it wraps no longer exists)")
        tracer.write_spans(OUT / f"{tag}-spans.csv.gz")

    print(f"checks: {failed} of {attempted} operations failed ({100.0 * failed / attempted:.3f} %)")
    for p in problems[:20]:
        print(f"  FAIL {p}")
    correct = not problems
    if trace:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in per_layer.items()}
    else:
        metrics = {k: {"value": e2e[k], "unit": UNITS[k]} for k in END_TO_END}
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    record = {"workload": w.name, "why": w.why, "seed": seed, "seconds": seconds, "trace": trace,
              "machine": machine, "iter_quantile": iter_q, "x_train_bytes": x_bytes, "eval_file_bytes": eval_bytes,
              "end_to_end": e2e, "exact": {k: v for k, (v, _) in exact.items()},
              "per_layer": {k: v for k, (v, _) in per_layer.items()}, "absent": absent,
              "problems": problems, "result": result}
    (OUT / f"{tag}.json").write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0 if correct else 1


def run_all(args):
    """Run every workload in its own process and merge their result lines."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        print(proc.stdout, end="")
        lines = proc.stdout.strip().splitlines()
        if proc.returncode not in (0, 1) or not lines or not lines[-1].startswith("{"):
            sys.exit(f"error: workload {name} exited with {proc.returncode} without a result")
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(merged))
    return 0 if merged["correct"] else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, default=0, choices=[0, 1])
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    if args.workload == "all":
        return run_all(args)
    ml0 = import_ml0()
    return run_workload(ml0, WORKLOADS[args.workload], args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())
