"""Acceptance suite: one test per release criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s`. The solver criteria share a
bundle of 10 seeded desk-scale runs per schedule (30x30 samples, planted 5x5
block, 100 per class, reference hyperparameters t=1.3, beta1=0.6,
beta_max=0.9999, gamma=1.5, lambda=2e-4, tolerances 1e-5/1e-4, 2000
iterations / 60 s budget).
"""

import itertools
import math
import time
from dataclasses import dataclass, field

import numpy as np
import pytest

import ml0
from ml0 import (
    Dataset,
    ModelParams,
    Problem,
    SolverConfig,
    SyntheticConfig,
)
from ml0.solver import diagnose_sufficient_decrease

DESK = SyntheticConfig(rows=30, cols=30, block=5, per_class=100, margin=0.5, seed=0)
DESK_PROBLEM = Problem(ridge=(2e-4, 2e-4), sparsity=(9, 9), gamma=1.5)
SEEDS = list(range(10))


def report(criterion, ok, detail):
    line = f"{'PASS' if ok else 'FAIL'} criterion {criterion}: {detail}"
    print(line)
    assert ok, line


@dataclass
class BundleRun:
    seed: int
    result: object
    test_auc: float
    support_violations: int


@dataclass
class Bundle:
    apalm_plus: list = field(default_factory=list)
    apalm: list = field(default_factory=list)
    bpgd: list = field(default_factory=list)

    def runs(self):
        """Every run, all three schedules."""
        return self.apalm_plus + self.apalm + self.bpgd


@pytest.fixture(scope="session")
def desk_bundle():
    """10 seeds x {apalm+, apalm, bpgd} at reference settings."""
    return _bundle()


@pytest.fixture(scope="session")
def compact_bundle():
    """The desk bundle with the solver's passes over compact copies of X,
    which desk samples are too small to take: the gather cutoff is forced."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ml0.tensor, "_GATHER_MIN_SAMPLE", 1)
        return _bundle()


def _bundle():
    ds, _ = ml0.generate_synthetic(DESK)
    bundle = Bundle()
    for seed in SEEDS:
        train, test = ml0.split(ds, 0.8, seed=seed)
        init = ml0.random_init(train.feature_dims, DESK_PROBLEM.sparsity, seed=seed)
        for schedule, bucket in (("apalm+", bundle.apalm_plus), ("apalm", bundle.apalm),
                                 ("bpgd", bundle.bpgd)):
            violations = 0

            def hook(k, blocks, bias):
                nonlocal violations
                violations += sum(
                    np.count_nonzero(b) > s
                    for b, s in zip(blocks, DESK_PROBLEM.sparsity)
                )

            config = SolverConfig(schedule=schedule, max_iters=2000, max_seconds=60.0)
            result = ml0.run(DESK_PROBLEM, train, init, config, iterate_hook=hook)
            auc = ml0.auc(ml0.margins(result.params, test), test.y)
            bucket.append(BundleRun(seed, result, auc, violations))
    return bundle


@pytest.fixture(scope="session")
def deep_runs():
    """Deep-convergence runs (tight tolerances) for the gap-decay criterion."""
    ds, _ = ml0.generate_synthetic(DESK)
    out = []
    for seed in SEEDS:
        train, _ = ml0.split(ds, 0.8, seed=seed)
        init = ml0.random_init(train.feature_dims, DESK_PROBLEM.sparsity, seed=seed)
        config = SolverConfig(
            schedule="apalm+", max_iters=20000, max_seconds=300.0,
            tol_obj=1e-9, tol_grad=1e-8,
        )
        out.append(ml0.run(DESK_PROBLEM, train, init, config))
    return out


_COMBOS = {}


def _best_kept_energy(sq, s):
    """Largest sum of sq over any s-subset of indices, by exhaustive enumeration.

    One index array per (d, s) holds every support in sorted order, so each
    support is summed in the same order as np.sum(sq[kept]) with sorted kept.
    """
    key = (sq.size, s)
    combos = _COMBOS.get(key)
    if combos is None:
        combos = np.array(list(itertools.combinations(range(sq.size), s)), dtype=np.intp)
        _COMBOS[key] = combos
    return float(sq[combos].sum(axis=1).max())


def test_criterion_01_prox_oracle_equivalence():
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    prox_time = 0.0
    failures = 0
    checked = 0
    for _ in range(1000):
        d = int(rng.integers(3, 13))
        v = rng.standard_normal(d)
        sq = v * v
        total = float(np.sum(sq))
        for s in range(1, d + 1):
            tp = time.perf_counter()
            out = ml0.project_l0(v, s)
            prox_time += time.perf_counter() - tp
            kept = np.flatnonzero(out)
            got = total - float(np.sum(sq[kept]))
            best_kept = _best_kept_energy(sq, min(s, d))
            checked += 1
            if got != total - best_kept or len(kept) > s:
                failures += 1
    elapsed = time.perf_counter() - t0
    report(
        1,
        failures == 0 and prox_time < 5.0,
        f"hard-thresholding equals exhaustive support enumeration on {checked} "
        f"cases, {failures} failures, {prox_time:.2f} s in project_l0 (< 5 s), "
        f"{elapsed:.2f} s with the oracle",
    )


def test_criterion_02_gradient_matches_finite_differences():
    rng = np.random.default_rng(202)
    t0 = time.perf_counter()
    h = 1e-6
    worst = 0.0
    for _ in range(50):
        p = int(rng.integers(1, 4))
        dims = tuple(int(rng.integers(1, 6)) for _ in range(p))
        n = int(rng.integers(2, 21))
        lam = float(rng.choice([0.0, 2e-4]))
        data = Dataset(rng.standard_normal((n,) + dims), rng.choice([-1.0, 1.0], n))
        params = ModelParams(
            blocks=tuple(rng.standard_normal(d) for d in dims),
            bias=float(rng.standard_normal()),
        )
        problem = Problem(ridge=(lam,) * p, sparsity=dims, gamma=1.5)

        def loss_at(blocks, bias):
            return ml0.smooth_loss(ModelParams(blocks=blocks, bias=bias), data, problem)

        for j in range(p):
            fd = np.zeros(dims[j])
            for i in range(dims[j]):
                up = [b.copy() for b in params.blocks]
                down = [b.copy() for b in params.blocks]
                up[j][i] += h
                down[j][i] -= h
                fd[i] = (loss_at(tuple(up), params.bias) - loss_at(tuple(down), params.bias)) / (2 * h)
            got = ml0.grad_block(params, data, problem, j)
            worst = max(worst, float(np.linalg.norm(got - fd)) / max(1e-6, float(np.linalg.norm(fd))))
        fd_b = (loss_at(params.blocks, params.bias + h) - loss_at(params.blocks, params.bias - h)) / (2 * h)
        got_b = ml0.grad_bias(params, data)
        worst = max(worst, abs(got_b - fd_b) / max(1e-6, abs(fd_b)))
    elapsed = time.perf_counter() - t0
    report(
        2,
        worst <= 1e-5 and elapsed < 10.0,
        f"50 instances, worst relative gradient error {worst:.2e} (<= 1e-5), "
        f"{elapsed:.2f} s (< 10 s)",
    )


def test_criterion_03_descent_lemma_certification():
    rng = np.random.default_rng(303)
    violations = 0
    worst = -math.inf
    for _ in range(1000):
        p = int(rng.integers(1, 4))
        dims = tuple(int(rng.integers(1, 6)) for _ in range(p))
        n = int(rng.integers(2, 16))
        data = Dataset(rng.standard_normal((n,) + dims), rng.choice([-1.0, 1.0], n))
        params = ModelParams(
            blocks=tuple(rng.standard_normal(d) for d in dims),
            bias=float(rng.standard_normal()),
        )
        problem = Problem(
            ridge=tuple(float(rng.choice([0.0, 2e-4])) for _ in range(p)),
            sparsity=dims, gamma=1.5,
        )
        H_x = ml0.smooth_loss(params, data, problem)
        if rng.random() < 0.25:
            delta = float(rng.uniform(-1.0, 1.0))
            tau = ml0.lipschitz_bias(data, problem)
            moved = ModelParams(blocks=params.blocks, bias=params.bias + delta)
            bound = H_x + ml0.grad_bias(params, data) * delta + 0.5 * tau * delta * delta
        else:
            j = int(rng.integers(p))
            delta = rng.standard_normal(dims[j])
            norm = float(np.linalg.norm(delta))
            if norm > 1.0:
                delta /= norm
            tau = ml0.lipschitz_block(params, data, problem, j)
            blocks = list(params.blocks)
            blocks[j] = blocks[j] + delta
            moved = ModelParams(blocks=tuple(blocks), bias=params.bias)
            bound = (
                H_x
                + float(ml0.grad_block(params, data, problem, j) @ delta)
                + 0.5 * tau * float(delta @ delta)
            )
        slack = ml0.smooth_loss(moved, data, problem) - bound
        worst = max(worst, slack)
        if slack > 1e-10:
            violations += 1
    report(
        3,
        violations == 0,
        f"1000 perturbation pairs, {violations} violations beyond 1e-10 "
        f"(worst slack {worst:.2e})",
    )


@pytest.mark.parametrize("bundle", ["desk_bundle", "compact_bundle"])
def test_criterion_04_monotone_descent_and_sufficient_decrease(request, bundle):
    worst_uphill = -math.inf
    sd_violations = 0
    sd_worst = -math.inf
    for entry in request.getfixturevalue(bundle).runs():
        J = [row.objective for row in entry.result.trace]
        worst_uphill = max(
            worst_uphill, max(b - a for a, b in zip(J, J[1:]))
        )
        rep = diagnose_sufficient_decrease(entry.result)
        sd_violations += rep.violations
        sd_worst = max(sd_worst, rep.max_violation)
    report(
        4,
        worst_uphill <= 1e-10 and sd_violations == 0,
        f"30 runs ({bundle}): max uphill step {worst_uphill:.2e} (<= 1e-10), "
        f"{sd_violations} squared-gap decrease violations (worst {sd_worst:.2e})",
    )


def test_criterion_05_iterate_gap_decay(deep_runs):
    converged = [r for r in deep_runs if r.stop_reason in ("obj_tol", "grad_tol")]
    firsts, lasts = [], []
    for result in converged:
        rep = diagnose_sufficient_decrease(result)
        firsts.append(rep.first_decile_gap)
        lasts.append(rep.last_decile_gap)
    ratio = float(np.mean(lasts)) / float(np.mean(firsts))
    report(
        5,
        len(converged) == len(deep_runs) and ratio <= 0.01,
        f"{len(converged)}/{len(deep_runs)} runs converged; mean last-decile gap "
        f"= {ratio:.2e} x mean first-decile gap (<= 1e-2)",
    )


@pytest.mark.parametrize("bundle", ["desk_bundle", "compact_bundle"])
def test_criterion_06_feasibility_every_iterate(request, bundle):
    runs = request.getfixturevalue(bundle).runs()
    violations = sum(entry.support_violations for entry in runs)
    iterates = sum(len(entry.result.trace) for entry in runs)
    report(
        6,
        violations == 0,
        f"{iterates} recorded iterates across 30 runs ({bundle}), "
        f"{violations} sparsity-cap violations",
    )


def test_criterion_07_desk_scale_test_auc(desk_bundle):
    aucs = sorted(entry.test_auc for entry in desk_bundle.apalm_plus)
    median = float(np.median([entry.test_auc for entry in desk_bundle.apalm_plus]))
    report(
        7,
        median >= 0.90,
        f"median test AUC {median:.3f} over 10 seeds (needs >= 0.90); "
        f"per-seed {[round(a, 3) for a in aucs]}",
    )


def test_criterion_08_momentum_needs_fewer_iterations(desk_bundle):
    wins = sum(
        len(a.result.trace) < len(b.result.trace)
        for a, b in zip(desk_bundle.apalm_plus, desk_bundle.bpgd)
    )
    pairs = [
        (len(a.result.trace), len(b.result.trace))
        for a, b in zip(desk_bundle.apalm_plus, desk_bundle.bpgd)
    ]
    report(
        8,
        wins >= 7,
        f"apalm+ stopped in fewer iterations than bpgd on {wins}/10 seeds "
        f"(needs >= 7); (apalm+, bpgd) iteration pairs {pairs}",
    )


def test_criterion_09_deterministic_traces(tmp_path):
    ds, _ = ml0.generate_synthetic(DESK)
    train, _ = ml0.split(ds, 0.8, seed=0)
    init = ml0.random_init(train.feature_dims, DESK_PROBLEM.sparsity, seed=0)
    blobs = []
    for tag in ("a", "b"):
        config = SolverConfig(schedule="apalm+", max_iters=50, max_seconds=60.0)
        result = ml0.run(DESK_PROBLEM, train, init, config, time_source=lambda: 0.0)
        path = tmp_path / f"{tag}.csv"
        ml0.write_trace_csv(result.trace, path)
        blobs.append(path.read_bytes())
    report(
        9,
        blobs[0] == blobs[1],
        f"repeated identical runs wrote byte-identical trace CSVs ({len(blobs[0])} bytes)",
    )


def test_criterion_10_auc_rank_equals_pairwise():
    rng = np.random.default_rng(404)
    checked = 0
    failures = 0
    while checked < 200:
        n = int(rng.integers(2, 101))
        y = rng.choice([-1.0, 1.0], n)
        if len(set(y.tolist())) < 2:
            continue
        m = rng.standard_normal(n)
        if rng.random() < 0.5:
            m = np.round(m, 1)  # force ties
        pos = m[y == 1.0]
        neg = m[y == -1.0]
        pairwise = (
            float(np.sum(pos[:, None] > neg[None, :]))
            + 0.5 * float(np.sum(pos[:, None] == neg[None, :]))
        ) / (len(pos) * len(neg))
        if ml0.auc(m, y) != pairwise:
            failures += 1
        checked += 1
    report(
        10,
        failures == 0,
        f"rank-based AUC equals quadratic pairwise AUC exactly on {checked} sets "
        f"({failures} failures)",
    )


def test_criterion_11_format_round_trips(tmp_path):
    rng = np.random.default_rng(505)
    failures = 0
    for i in range(20):
        order = int(rng.integers(1, 4))
        dims = tuple(int(rng.integers(1, 5)) for _ in range(order))
        if i < 4:
            dims = dims[:-1] + (1,)  # force unit-extent edge case
        n = int(rng.integers(1, 8))
        ds = Dataset(rng.standard_normal((n,) + dims), rng.choice([-1.0, 1.0], n))
        path = tmp_path / f"d{i}.ml0t"
        ml0.save_dataset(ds, path)
        back = ml0.load_dataset(path)
        if back.X.tobytes() != ds.X.tobytes() or not np.array_equal(back.y, ds.y):
            failures += 1
        params = ModelParams(
            blocks=tuple(rng.standard_normal(d) for d in dims),
            bias=float(rng.standard_normal()),
        )
        wpath = tmp_path / f"w{i}.ml0w"
        ml0.save_params(params, wpath)
        wback = ml0.load_params(wpath)
        if wback.bias != params.bias or any(
            a.tobytes() != b.tobytes() for a, b in zip(wback.blocks, params.blocks)
        ):
            failures += 1
    report(
        11,
        failures == 0,
        f"20 dataset and 20 weights files round-tripped bitwise ({failures} failures)",
    )
