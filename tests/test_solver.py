import collections
import dataclasses
import itertools
import math
import re
import tracemalloc

import numpy as np
import pytest

from ml0 import (
    Dataset,
    IterTrace,
    ModelParams,
    Problem,
    SolverConfig,
    SyntheticConfig,
    check_stop,
    diagnose_sufficient_decrease,
    generate_synthetic,
    grad_bias,
    grad_block,
    lipschitz_bias,
    margins,
    nesterov_beta,
    objective,
    project_l0,
    random_init,
    run,
    split,
    write_trace_csv,
)
from ml0 import kernels, solver, tensor
from ml0.model import (
    grad_direction_batch,
    logistic_terms,
    loss_coefficients,
    margin_batch,
    ridge_term,
)
from ml0.solver import SCHEDULES, TRACE_HEADER


def toy_dataset(rng, n=24, dims=(4, 3)):
    X = rng.standard_normal((n,) + dims)
    y = np.array([1.0, -1.0] * (n // 2))
    return Dataset(X, y)


def toy_problem(dims, s=2, lam=2e-4):
    return Problem(ridge=(lam,) * len(dims), sparsity=(s,) * len(dims), gamma=1.5)


class FakeClock:
    def __init__(self, step=0.0):
        self.now = 0.0
        self.step = step

    def __call__(self):
        self.now += self.step
        return self.now


class TestNesterovBeta:
    def test_first_step(self):
        t2, beta2 = nesterov_beta(1.0)
        np.testing.assert_allclose(t2, (1 + math.sqrt(5)) / 2, rtol=1e-15)
        assert beta2 == 0.0

    def test_plug_in(self):
        t_next, beta = nesterov_beta(2.0)
        np.testing.assert_allclose(t_next, (1 + math.sqrt(17)) / 2, rtol=1e-15)
        np.testing.assert_allclose(beta, 1.0 / t_next, rtol=1e-15)

    def test_sequence_nondecreasing_below_one(self):
        t_k, beta = 1.0, 0.0
        betas = []
        for _ in range(200):
            t_k, beta = nesterov_beta(t_k)
            betas.append(beta)
        assert all(b < 1.0 for b in betas)
        assert all(b2 >= b1 for b1, b2 in zip(betas, betas[1:]))

    @pytest.mark.parametrize("t_k", [0.5, math.nan], ids=["below-one", "nan"])
    def test_requires_t_at_least_one(self, t_k):
        with pytest.raises(ValueError, match="t_k must be >= 1"):
            nesterov_beta(t_k)


class TestCheckStop:
    def make_rows(self, j1, j2):
        return (
            IterTrace(1, j1, 1.0, 0.5, True, 0.0, j1, 1.0),
            IterTrace(2, j2, 1.0, 0.5, True, 0.0, j2, 1.0),
        )

    def test_equal_objectives_fire_obj_tol(self):
        prev, cur = self.make_rows(5.0, 5.0)
        grads = [np.ones(3), np.array([4.0])]
        far = [np.ones(3) * 9, np.array([0.0])]
        config = SolverConfig(tol_obj=1e-12, tol_grad=1e-12)
        assert check_stop(prev, cur, far, grads, 10, config) == "obj_tol"

    def test_identical_gradients_fire_grad_tol(self):
        prev, cur = self.make_rows(5.0, 4.0)
        grads = [np.ones(3), np.array([4.0])]
        config = SolverConfig(tol_obj=1e-9, tol_grad=1e-9)
        assert check_stop(prev, cur, grads, [g.copy() for g in grads], 10, config) == "grad_tol"

    def test_no_fire_above_tolerances(self):
        # |dJ|/n = 2e-5 with tol 1e-5 and a large gradient change
        prev, cur = self.make_rows(5.0, 5.0 - 2e-4)
        g_prev = [np.zeros(3), np.array([0.0])]
        g_cur = [np.ones(3), np.array([1.0])]
        config = SolverConfig(tol_obj=1e-5, tol_grad=1e-4)
        assert check_stop(prev, cur, g_prev, g_cur, 10, config) is None


class TestRandomInit:
    def test_supports_and_determinism(self):
        a = random_init((6, 9), (2, 4), seed=11)
        b = random_init((6, 9), (2, 4), seed=11)
        assert np.count_nonzero(a.blocks[0]) == 2
        assert np.count_nonzero(a.blocks[1]) == 4
        assert a.bias == 0.0
        for x, y in zip(a.blocks, b.blocks):
            assert np.array_equal(x, y)

    def test_invalid_sparsity(self):
        with pytest.raises(ValueError):
            random_init((3,), (4,), seed=0)

    @pytest.mark.parametrize("seed", [None, 1.5, True, -1])
    def test_seed_must_be_an_integer_at_least_zero(self, seed):
        """A seed of None drew fresh entropy: another start on every call."""
        with pytest.raises(ValueError, match="^seed must be "):
            random_init((5, 5), (2, 2), seed)

    @pytest.mark.parametrize("cap", [2.5, True, np.True_])
    def test_cap_must_be_an_integer(self, cap):
        with pytest.raises(ValueError, match=r"^sparsity\[0\] must be an integer, got "):
            random_init((5, 5), (cap, 2), 0)

    def test_numpy_integer_seed_and_caps_draw_as_ints(self):
        a = random_init((6, 9), (2, 4), seed=11)
        b = random_init((6, 9), (np.int64(2), np.uint8(4)), seed=np.int64(11))
        for x, y in zip(a.blocks, b.blocks):
            assert x.tobytes() == y.tobytes()

    @pytest.mark.parametrize("dims, sparsity", [((30, 30), (9,)), ((30,), (9, 9))])
    def test_one_cap_per_block(self, dims, sparsity):
        """`zip` used to drop the unmatched blocks or caps and return a
        one-block model."""
        with pytest.raises(ValueError, match=f"^{len(sparsity)} sparsity caps for {len(dims)} blocks$"):
            random_init(dims, sparsity, seed=0)

    @pytest.mark.parametrize("dims, match", [
        ((5.0, 5), r"^dims\[0\] must be an integer, got 5.0$"),
        ((0, 5), r"^dims\[0\] must be >= 1, got 0$"),
    ], ids=["float", "zero"])
    def test_block_length_must_be_an_integer_at_least_one(self, dims, match):
        """numpy rejected 5.0 with a TypeError naming no length, and a length
        of 0 was reported as a cap that exceeds it."""
        with pytest.raises(ValueError, match=match):
            random_init(dims, (2, 2), seed=0)


class TestRunBasics:
    def test_single_step_matches_hand_rolled_prox_gradient(self):
        # beta_max=0 disables momentum; p=1, lambda=0: one prox-gradient step
        rng = np.random.default_rng(0)
        X = rng.standard_normal((6, 3))
        y = np.array([1.0, -1.0, 1.0, -1.0, 1.0, -1.0])
        data = Dataset(X, y)
        problem = Problem(ridge=(0.0,), sparsity=(2,), gamma=1.5)
        w0 = np.array([0.9, 0.0, -0.4])
        init = ModelParams(blocks=(w0,), bias=0.2)
        config = SolverConfig(
            schedule="apalm+", beta1=0.0, beta_max=0.0, max_iters=1, max_seconds=60
        )
        result = run(problem, data, init, config)

        m = X @ w0 + 0.2
        sig = 1.0 / (1.0 + np.exp(y * m))
        grad = -(X.T @ (y * sig))
        tau = 1.5 * math.sqrt(2) * float(np.sum((np.linalg.norm(X, axis=1) + 1) ** 2))
        w1 = project_l0(w0 - grad / tau, 2)
        m1 = X @ w1 + 0.2
        sig1 = 1.0 / (1.0 + np.exp(y * m1))
        b1 = 0.2 - float(np.sum(-(y * sig1))) / (1.5 * 6 / 4)

        np.testing.assert_allclose(result.params.blocks[0], w1, rtol=1e-12)
        np.testing.assert_allclose(result.params.bias, b1, rtol=1e-12)
        assert result.stop_reason == "max_iters"

    def test_stationary_init_stops_at_iteration_two(self):
        rng = np.random.default_rng(1)
        data = toy_dataset(rng)
        dims = data.feature_dims
        problem = toy_problem(dims)
        init = ModelParams(blocks=(np.zeros(4), np.zeros(3)), bias=0.0)
        result = run(problem, data, init, SolverConfig(max_iters=50))
        assert len(result.trace) == 2
        assert result.stop_reason in ("obj_tol", "grad_tol")
        np.testing.assert_array_equal(result.params.blocks[0], np.zeros(4))
        assert result.params.bias == 0.0

    def test_infeasible_init_rejected(self):
        rng = np.random.default_rng(2)
        data = toy_dataset(rng)
        problem = toy_problem(data.feature_dims, s=1)
        init = ModelParams(blocks=(np.ones(4), np.ones(3)), bias=0.0)
        with pytest.raises(ValueError, match="sparsity"):
            run(problem, data, init, SolverConfig())

    def test_nonfinite_objective_at_init_rejected(self):
        X = np.full((2, 2), 1e308)
        data = Dataset(X, [1.0, -1.0])
        problem = Problem(ridge=(0.0,), sparsity=(1,))
        init = ModelParams(blocks=(np.array([1e12, 0.0]),), bias=0.0)
        with pytest.warns(RuntimeWarning, match="overflow"):
            with pytest.raises(ValueError, match="finite"):
                run(problem, data, init, SolverConfig())

    def test_defaults_mirror_reference_setup(self):
        config = SolverConfig()
        assert (config.t, config.beta1, config.beta_max) == (1.3, 0.6, 0.9999)
        assert (config.tol_obj, config.tol_grad) == (1e-5, 1e-4)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(t=1.0)
        with pytest.raises(ValueError):
            SolverConfig(beta1=0.5, beta_max=0.4)
        with pytest.raises(ValueError):
            SolverConfig(schedule="magic")
        with pytest.raises(TypeError):  # the seed belongs to the initial point
            SolverConfig(seed=0)
        with pytest.raises(TypeError):  # gamma belongs to the problem
            SolverConfig(gamma=1.5)

    @pytest.mark.parametrize("name", ["adaptive", "nesterov", "none"])
    def test_schedules_have_no_second_name(self, name):
        with pytest.raises(ValueError, match=re.escape(f"one of {SCHEDULES}, got {name!r}")):
            SolverConfig(schedule=name)

    def test_beta_max_caps_beta1_only_for_apalm_plus(self):
        """apalm and bpgd never read beta1 or beta_max, so a cap below the
        default beta1 is no fault there; each value keeps its own range."""
        with pytest.raises(ValueError, match=r"^beta1 must lie in \[0, beta_max=0.5\], got 0.6$"):
            SolverConfig(schedule="apalm+", beta1=0.6, beta_max=0.5)
        for schedule in ("apalm", "bpgd"):
            assert SolverConfig(schedule=schedule, beta1=0.6, beta_max=0.5).beta1 == 0.6
            for beta1 in (1.0, -0.1, math.nan):
                with pytest.raises(ValueError, match=rf"^beta1 must lie in \[0, 1\), got {beta1}$"):
                    SolverConfig(schedule=schedule, beta1=beta1)

    @pytest.mark.parametrize("settings, name", [
        (SolverConfig(), "schedule"),
        (Problem(ridge=(0.0,), sparsity=(1,)), "gamma"),
        (SyntheticConfig(), "seed"),
    ], ids=["SolverConfig", "Problem", "SyntheticConfig"])
    def test_settings_are_frozen_after_their_checks(self, settings, name):
        """An assignment would skip `__post_init__`: `schedule = "bogus"`
        used to run plain BPGD without a word."""
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(settings, name, "bogus")
        assert dataclasses.replace(settings) == settings

    @pytest.mark.parametrize("field, value, match", [
        ("beta_max", 1.0, "beta_max"),
        ("beta_max", -0.1, "beta_max"),
        ("tol_obj", 0.0, "tol_obj must be positive, got 0.0"),
        ("tol_grad", -1e-4, "tol_grad must be positive"),
        ("max_iters", 0, "max_iters"),
        ("max_seconds", 0.0, "max_seconds"),
        # NaN compares false, so it would switch off a stop test or the budget.
        ("tol_obj", float("nan"), "tol_obj must be positive, got nan"),
        ("tol_grad", float("nan"), "tol_grad must be positive, got nan"),
        ("max_seconds", float("nan"), "max_seconds must be positive, got nan"),
        # A count that is not an integer would fail inside `range`.
        ("max_iters", 2.5, "max_iters must be an integer, got 2.5"),
        ("max_iters", 60.0, "max_iters must be an integer, got 60.0"),
        ("max_iters", True, "max_iters must be an integer, got True"),
    ])
    def test_field_bounds(self, field, value, match):
        fields = {field: value, "beta1": 0.0} if field == "beta_max" else {field: value}
        with pytest.raises(ValueError, match=match):
            SolverConfig(**fields)


class TestRunInvariants:
    def run_toy(self, schedule, seed=3, **kwargs):
        rng = np.random.default_rng(seed)
        data = toy_dataset(rng, n=30, dims=(5, 4))
        problem = toy_problem(data.feature_dims, s=3)
        init = random_init(data.feature_dims, problem.sparsity, seed=seed)
        config = SolverConfig(schedule=schedule, max_iters=120, **kwargs)
        return run(problem, data, init, config), problem

    @pytest.mark.parametrize("schedule", SCHEDULES)
    def test_monotone_descent(self, schedule):
        result, _ = self.run_toy(schedule)
        J = [row.objective for row in result.trace]
        assert all(b <= a + 1e-10 for a, b in zip(J, J[1:]))

    def test_no_schedule_raises_the_objective_on_desk_data(self):
        # Every schedule keeps an extrapolated point only if it does not raise
        # the objective, so the recorded objective never rises, and every
        # step meets the sufficient decrease from its own base point.
        ds, _ = generate_synthetic(
            SyntheticConfig(rows=30, cols=30, block=5, per_class=100, margin=0.5, seed=0))
        train, _ = split(ds, 0.8, seed=2)
        problem = Problem(ridge=(2e-4, 2e-4), sparsity=(9, 9))
        init = random_init(train.feature_dims, problem.sparsity, seed=2)
        for schedule in SCHEDULES:
            result = run(problem, train, init, SolverConfig(schedule=schedule, max_iters=20000))
            J = [row.objective for row in result.trace]
            assert sum(b > a for a, b in zip(J, J[1:])) == 0, schedule
            assert diagnose_sufficient_decrease(result).violations == 0, schedule

    def test_every_iterate_feasible(self):
        counts = []

        def hook(k, blocks, bias):
            counts.append([int(np.count_nonzero(b)) for b in blocks])

        rng = np.random.default_rng(4)
        data = toy_dataset(rng, n=30, dims=(5, 4))
        problem = toy_problem(data.feature_dims, s=3)
        init = random_init(data.feature_dims, problem.sparsity, seed=4)
        result = run(problem, data, init, SolverConfig(max_iters=80), iterate_hook=hook)
        assert len(counts) == len(result.trace)
        assert all(c[0] <= 3 and c[1] <= 3 for c in counts)
        assert all(np.count_nonzero(b) <= 3 for b in result.params.blocks)

    def test_beta_growth_and_decay_follow_acceptance(self):
        result, _ = self.run_toy("apalm+")
        config = result.config
        betas = [row.beta for row in result.trace]
        accepted = [row.accepted for row in result.trace]
        for k in range(len(betas) - 1):
            if accepted[k]:
                np.testing.assert_allclose(
                    betas[k + 1], min(config.beta_max, config.t * betas[k]), rtol=1e-15
                )
            else:
                np.testing.assert_allclose(betas[k + 1], betas[k] / config.t, rtol=1e-15)

    def test_beta_stays_in_range(self):
        result, _ = self.run_toy("apalm+")
        assert all(0.0 <= row.beta <= result.config.beta_max for row in result.trace)

    def test_bpgd_equals_apalm_plus_with_zero_beta_cap(self):
        a, _ = self.run_toy("bpgd", beta1=0.0)
        b, _ = self.run_toy("apalm+", beta1=0.0, beta_max=0.0)
        assert len(a.trace) == len(b.trace)
        for ra, rb in zip(a.trace, b.trace):
            assert ra.objective == rb.objective
            assert ra.gap == rb.gap
        assert a.params.bias == b.params.bias

    def test_bpgd_beta_all_zero(self):
        result, _ = self.run_toy("bpgd")
        assert all(row.beta == 0.0 for row in result.trace)

    def test_apalm_betas_follow_recursion(self):
        """The t_k recursion, restarted from t = 1 after each rejection."""
        result, _ = self.run_toy("apalm")
        betas = [row.beta for row in result.trace]
        t_k, expect = 1.0, [0.0]
        for row in result.trace[:-1]:
            t_k, b = nesterov_beta(t_k if row.accepted else 1.0)
            expect.append(b)
        np.testing.assert_allclose(betas, expect, rtol=1e-14)
        assert not all(row.accepted for row in result.trace)  # the toy restarts

    def test_trace_objective_finite_everywhere(self):
        for schedule in SCHEDULES:
            result, _ = self.run_toy(schedule)
            assert all(math.isfinite(row.objective) for row in result.trace)

    def test_max_seconds_budget(self):
        rng = np.random.default_rng(5)
        data = toy_dataset(rng)
        problem = toy_problem(data.feature_dims)
        init = random_init(data.feature_dims, problem.sparsity, seed=5)
        config = SolverConfig(max_iters=10_000, max_seconds=1.0)
        result = run(problem, data, init, config, time_source=FakeClock(step=0.3))
        assert result.stop_reason == "max_seconds"
        assert len(result.trace) < 10

    def test_problem_gamma_scales_step_sizes(self):
        rng = np.random.default_rng(6)
        data = toy_dataset(rng)
        init = random_init(data.feature_dims, (2, 2), seed=6)
        first = {}
        for gamma in (1.5, 7.0):
            problem = Problem(ridge=(0.0, 0.0), sparsity=(2, 2), gamma=gamma)
            result = run(problem, data, init, SolverConfig(max_iters=3))
            assert result.problem is problem
            # Without ridge the bias constant gamma*n/4 is the smallest tau.
            assert result.trace[0].min_tau == lipschitz_bias(data, problem)
            first[gamma] = result.trace[0].min_tau
        assert first[7.0] * 1.5 == first[1.5] * 7.0


class TestDeterminism:
    def solve_once(self, time_source=None):
        rng = np.random.default_rng(7)
        data = toy_dataset(rng, n=20, dims=(4, 4))
        problem = toy_problem(data.feature_dims, s=2)
        init = random_init(data.feature_dims, problem.sparsity, seed=7)
        config = SolverConfig(max_iters=60)
        return run(problem, data, init, config, time_source=time_source)

    def test_byte_identical_trace_under_pinned_clock(self, tmp_path):
        paths = []
        for name in ("a.csv", "b.csv"):
            result = self.solve_once(time_source=lambda: 0.0)
            p = tmp_path / name
            write_trace_csv(result.trace, p)
            paths.append(p.read_bytes())
        assert paths[0] == paths[1]

    def test_identical_non_time_columns_under_real_clock(self):
        a = self.solve_once()
        b = self.solve_once()
        assert len(a.trace) == len(b.trace)
        for ra, rb in zip(a.trace, b.trace):
            assert (ra.iter, ra.objective, ra.gap, ra.beta, ra.accepted) == (
                rb.iter, rb.objective, rb.gap, rb.beta, rb.accepted,
            )


class TestTraceCsv:
    def test_header_and_shape(self, tmp_path):
        rng = np.random.default_rng(8)
        data = toy_dataset(rng)
        problem = toy_problem(data.feature_dims)
        init = random_init(data.feature_dims, problem.sparsity, seed=8)
        result = run(problem, data, init, SolverConfig(max_iters=12),
                     time_source=lambda: 0.0)
        path = tmp_path / "trace.csv"
        write_trace_csv(result.trace, path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == TRACE_HEADER
        assert len(lines) == len(result.trace) + 1
        first = lines[1].split(",")
        assert int(first[0]) == 1
        # 17 significant digits survive a round trip
        assert float(first[1]) == result.trace[0].objective
        assert first[4] in ("0", "1")

    def test_rows_hold_the_header_columns_only(self, tmp_path):
        """The diagnostics fields of a trace row stay out of the CSV, so its
        bytes match the README format."""
        rng = np.random.default_rng(8)
        data = toy_dataset(rng)
        problem = toy_problem(data.feature_dims)
        init = random_init(data.feature_dims, problem.sparsity, seed=8)
        result = run(problem, data, init, SolverConfig(max_iters=12))
        path = tmp_path / "trace.csv"
        write_trace_csv(result.trace, path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == TRACE_HEADER == "iter,objective,gap,beta,accepted,elapsed_seconds"
        for line, row in zip(lines[1:], result.trace, strict=True):
            want = [row.iter, row.objective, row.gap, row.beta, row.accepted,
                    row.elapsed_seconds]
            assert [float(v) for v in line.split(",")] == want


class TestDiagnostics:
    def test_no_violations_on_toy_runs(self):
        rng = np.random.default_rng(9)
        data = toy_dataset(rng, n=30, dims=(5, 4))
        problem = toy_problem(data.feature_dims, s=3)
        init = random_init(data.feature_dims, problem.sparsity, seed=9)
        for schedule in SCHEDULES:
            result = run(problem, data, init, SolverConfig(schedule=schedule, max_iters=150))
            report = diagnose_sufficient_decrease(result)
            assert report.violations == 0
            assert report.max_violation <= 1e-9
            assert report.checked == len(result.trace)

    def test_stationary_run_has_zero_gap(self):
        rng = np.random.default_rng(10)
        data = toy_dataset(rng)
        problem = toy_problem(data.feature_dims)
        init = ModelParams(blocks=(np.zeros(4), np.zeros(3)), bias=0.0)
        result = run(problem, data, init, SolverConfig(max_iters=30))
        report = diagnose_sufficient_decrease(result)
        assert report.violations == 0
        assert all(row.gap == 0.0 for row in result.trace)

    @staticmethod
    def run_with_min_tau(min_tau):
        """A toy run whose trace rows have their `min_tau` set by hand, which
        sets the audit's rho to (gamma - 1) / gamma * min_tau / 2."""
        rng = np.random.default_rng(11)
        data = toy_dataset(rng)
        problem = toy_problem(data.feature_dims)
        init = random_init(data.feature_dims, problem.sparsity, seed=11)
        result = run(problem, data, init, SolverConfig(max_iters=40))
        result.trace = [dataclasses.replace(row, min_tau=min_tau) for row in result.trace]
        return result

    def test_zero_rho_counts_no_violations(self):
        result = self.run_with_min_tau(0.0)
        assert diagnose_sufficient_decrease(result).violations == 0

    def test_large_rho_counts_violations(self):
        result = self.run_with_min_tau(6e12)
        rho = (1.5 - 1.0) / 1.5 * 6e12 / 2.0  # 1e12 at the toy problem's gamma
        moved = sum(row.gap > 0.0 for row in result.trace)
        assert moved > 0
        report = diagnose_sufficient_decrease(result)
        assert report.violations == moved
        assert report.max_violation == max(
            row.objective - (row.base_objective - rho * row.gap**2) for row in result.trace)
        assert report.max_violation > 0.0


def cache_runs():
    """(data, problem, init) for the seed-0 run of the desk acceptance bundle
    (order 2) and for toy problems of order 3 and 1."""
    ds, _ = generate_synthetic(
        SyntheticConfig(rows=30, cols=30, block=5, per_class=100, margin=0.5, seed=0)
    )
    train, _ = split(ds, 0.8, seed=0)
    desk = Problem(ridge=(2e-4, 2e-4), sparsity=(9, 9), gamma=1.5)
    rng = np.random.default_rng(12)
    cube = toy_dataset(rng, n=40, dims=(4, 3, 5))
    cube_problem = toy_problem(cube.feature_dims, s=2)
    line = toy_dataset(rng, n=30, dims=(12,))
    line_problem = toy_problem(line.feature_dims, s=3)
    return [
        (train, desk, random_init(train.feature_dims, desk.sparsity, seed=0)),
        (cube, cube_problem, random_init(cube.feature_dims, cube_problem.sparsity, seed=12)),
        (line, line_problem, random_init(line.feature_dims, line_problem.sparsity, seed=13)),
    ]


PASSES = solver._Passes


Pass = collections.namedtuple(
    "Pass", "g blocks compact covered share held hold result")


def recording_passes(monkeypatch, results=True):
    """Swap `solver._Passes` for a subclass that keeps every instance `run`
    makes and records each of its passes in `calls` as a `Pass`: its number
    g (0 direction, 1 partial), its blocks, whether it contracted a copy,
    whether each K_j held supp(w_j) and every index it held before, the
    share of X its kept indices select, its calls since they last grew
    (this one included), the calls it must hold for before a build
    (`solver._HOLD_PASSES`, doubled whenever a built copy is dropped) and
    its result (None without `results`). Per pass it counts the copies
    built in `builds`, and it keeps the most bytes the live copies held at
    once in `most`. It holds no reference to a copy that `run` has let go;
    returns the list of instances."""
    made = []

    class Recording(PASSES):
        def __init__(self, X):
            super().__init__(X)
            self.builds, self.calls, self.most = [0, 0], [], 0
            self.since, self.wait = [0, 0], [solver._HOLD_PASSES] * 2
            made.append(self)

        def _take(self, g, blocks):
            axes = self.groups[g]
            before, copy = [self.kept[a - 1] for a in axes], self.copies[g]
            arr, taken = super()._take(g, blocks)
            grew = any(self.kept[a - 1] is not k for a, k in zip(axes, before))
            self.since[g] = 1 if grew else self.since[g] + 1
            self.wait[g] *= 2 if grew and copy is not None else 1
            self.builds[g] += self.copies[g] is not None and self.copies[g] is not copy
            kept = [set(self.kept[a - 1]) for a in axes]
            covered = all(set(np.flatnonzero(blocks[a - 1])) | set(() if k is None else k) <= K
                          for a, k, K in zip(axes, before, kept))
            share = math.prod(map(len, kept)) / math.prod(self.X.shape[a] for a in axes)
            self.most = max(self.most, sum(c.nbytes for c in self.copies if c is not None))
            self.last = (arr is not self.X, covered, share, self.since[g], self.wait[g])
            return arr, taken

        def direction(self, blocks):
            G = super().direction(blocks)
            self.calls.append(Pass(0, list(blocks), *self.last, G if results else None))
            return G

        def partial(self, blocks):
            P = super().partial(blocks)
            self.calls.append(Pass(1, list(blocks), *self.last, P if results else None))
            return P

    monkeypatch.setattr(solver, "_Passes", Recording)
    return made


def follows_the_rule(call):
    """A pass contracts its copy exactly when its kept indices select at most
    half of X and have held for as many of its calls as it must hold."""
    return call.compact == (0 < call.share <= 0.5 and call.held >= call.hold)


def rel_err(got, want):
    """Relative 2-norm error of a flattened array or family of arrays."""
    got = np.concatenate([np.ravel(g) for g in got])
    want = np.concatenate([np.ravel(w) for w in want])
    return float(np.linalg.norm(got - want) / np.linalg.norm(want))


class TestCachedPartials:
    """The solver derives every contraction of X from a cached partial
    P = X x_p w_p per iterate; each cached quantity must match a from-scratch
    evaluation at every call."""

    @pytest.mark.parametrize("schedule", SCHEDULES)
    def test_cache_matches_scratch(self, monkeypatch, schedule):
        objective_at = solver._objective_at
        gradient_family = solver._gradient_family
        direction = solver.grad_direction_batch
        for data, problem, init in cache_runs():
            X, p = data.X, len(init.blocks)
            errors = []
            sweeps = []  # (iteration, error vs P at the current iterate, vs P at y)
            # The last hooked iterate, the extrapolated point's last block, and
            # whether the stop test is running.
            state = {"k": 0, "blocks": init.blocks, "y": None, "stop": False}

            def scratch_partial(w_last):
                return kernels.contract_mode(X, w_last, p)

            def checked_objective(X_, y, blocks, bias, ridge, sparsity, partial=None):
                J, P = objective_at(X_, y, blocks, bias, ridge, sparsity, partial)
                if partial is not None:
                    state["y"] = (state["k"] + 1, blocks[-1])
                errors.append(rel_err([P], [scratch_partial(blocks[-1])]))
                if math.isfinite(J):
                    m = margin_batch(X, blocks, bias)
                    want = float(np.sum(logistic_terms(m, y))) + ridge_term(blocks, ridge)
                    errors.append(abs(J - want) / abs(want))
                return J, P

            def checked_direction(arr, blocks, skip):
                if arr is not X and not state["stop"]:
                    # A sweep direction taken from P at the sweep's base point.
                    k = state["k"] + 1
                    at_y = None
                    if state["y"] is not None and state["y"][0] == k:
                        at_y = rel_err([arr], [scratch_partial(state["y"][1])])
                    sweeps.append((k, rel_err([arr], [scratch_partial(state["blocks"][-1])]),
                                   at_y))
                return direction(arr, blocks, skip)

            def checked_family(y, blocks, margins, ridge, last_direction, P):
                assert all(b is w for b, w in zip(blocks, state["blocks"]))
                state["stop"] = True
                family, dirs = gradient_family(y, blocks, margins, ridge, last_direction, P)
                state["stop"] = False
                m = margin_batch(X, blocks, state["bias"])
                coeff = loss_coefficients(m, y)
                directions = [grad_direction_batch(X, blocks, j) for j in range(p)]
                want = [G.T @ coeff + lam * b for G, lam, b in zip(directions, ridge, blocks)]
                want.append(np.array([float(np.sum(coeff))]))
                errors.extend([
                    rel_err([P], [scratch_partial(blocks[-1])]),
                    rel_err([margins], [m]),
                    rel_err([last_direction], [directions[-1]]),
                    rel_err(dirs, directions),
                    rel_err(family, want),
                ])
                return family, dirs

            def hook(k, blocks, bias):
                state.update(k=k, blocks=blocks, bias=bias)

            monkeypatch.setattr(solver, "_objective_at", checked_objective)
            monkeypatch.setattr(solver, "_gradient_family", checked_family)
            monkeypatch.setattr(solver, "grad_direction_batch", checked_direction)
            result = run(problem, data, init, SolverConfig(schedule=schedule, max_iters=400),
                         iterate_hook=hook)
            monkeypatch.undo()
            # The sweep's base is the extrapolated point when one was tested
            # and kept, the current iterate otherwise.
            for k, at_cur, at_y in sweeps:
                errors.append(at_y if at_y is not None and result.trace[k - 1].accepted
                              else at_cur)
            assert len(sweeps) == (p - 1) * len(result.trace)
            assert len(errors) >= (4 + p - 1) * len(result.trace)
            assert max(errors) <= 1e-12, (p, schedule, max(errors))
            if schedule == "apalm+":
                assert not all(row.accepted for row in result.trace)
            if schedule != "bpgd":
                assert any(row.beta > 0.0 and row.accepted for row in result.trace)

    @pytest.mark.parametrize("gate", ["below", "above"])
    @pytest.mark.parametrize("schedule", SCHEDULES)
    def test_passes_over_x_per_iteration(self, monkeypatch, schedule, gate):
        """Order p >= 2 contracts X twice per iteration (the last block's sweep
        direction and the new iterate's partial). Order 1 contracts X once,
        for the partial: its direction is X itself. A pass over a compact
        copy of X counts as a pass over X: above the gather cutoff (forced
        here) the passes contract copies, and the count is the same."""
        contract_mode = kernels.contract_mode
        for data, problem, init in cache_runs():
            passes, compact, marks = [0], [0], []
            if gate == "above":
                monkeypatch.setattr(tensor, "_GATHER_MIN_SAMPLE", 1)
            made = recording_passes(monkeypatch)

            def counted(arr, v, axis):
                copy = any(arr is c for c in made[-1].copies)
                passes[0] += arr is data.X or copy
                compact[0] += copy
                return contract_mode(arr, v, axis)

            monkeypatch.setattr(kernels, "contract_mode", counted)
            monkeypatch.setattr(solver, "contract_mode", counted)
            result = run(problem, data, init, SolverConfig(schedule=schedule, max_iters=200),
                         iterate_hook=lambda k, blocks, bias: marks.append(passes[0]))
            monkeypatch.undo()
            per_iteration = np.diff(marks)
            assert len(per_iteration) == len(result.trace) - 1 > 10
            want = min(init.order, 2)
            assert per_iteration.tolist() == [want] * len(per_iteration), init.order
            # One more pass computes the initial objective.
            assert passes[0] == 1 + want * len(result.trace)
            # Above the gate a pass contracts a copy until its kept indices
            # pass half of their axes, then X.
            assert compact[0] == sum(call.compact for call in made[-1].calls)
            assert (compact[0] > 0) == (gate == "above")


def desk_tol_solves():
    """(data, problem, init) of the benchmark's ten desk-tol solves."""
    ds, _ = generate_synthetic(SyntheticConfig(rows=30, cols=30, block=5, per_class=100, seed=0))
    problem = Problem(ridge=(2e-4, 2e-4), sparsity=(9, 9))
    out = []
    for seed in range(10):
        train, _ = split(ds, 0.8, seed=seed)
        out.append((train, problem, random_init(train.feature_dims, problem.sparsity, seed=seed)))
    return out


def same_run(a, b):
    """Bitwise the same trace (the clock aside) and final iterate."""
    rows = [[dataclasses.replace(row, elapsed_seconds=0.0) for row in r.trace] for r in (a, b)]
    return (rows[0] == rows[1] and a.stop_reason == b.stop_reason
            and [w.tobytes() for w in a.params.blocks] == [w.tobytes() for w in b.params.blocks]
            and a.params.bias == b.params.bias)


class TestCompactPasses:
    """From `tensor._GATHER_MIN_SAMPLE` elements per sample the solver's two
    passes contract compact copies of X (`solver._Passes`), each built once
    its kept indices have held for a while. Forced here on desk-shaped data,
    where the supports change early, so copies are dropped and rebuilt
    within a run, and on toys of order 3 and 1."""

    @staticmethod
    def runs():
        """The third desk-tol solve, whose supports leave their kept indices
        within 300 iterations under every schedule, and the toys of order 3
        and 1 of `cache_runs`."""
        return [desk_tol_solves()[2]] + cache_runs()[1:]

    @pytest.mark.parametrize("schedule", SCHEDULES)
    def test_each_pass_matches_dense_and_keeps_the_supports(self, monkeypatch, schedule):
        """Every pass equals the dense pass within 1e-13 of the sum of its
        absolute terms; K_j covers supp(w_j) and only grows; a pass contracts
        its copy exactly when the hold and the size rule allow, and the
        doubling hold bounds its builds."""
        monkeypatch.setattr(tensor, "_GATHER_MIN_SAMPLE", 1)
        for data, problem, init in self.runs():
            X, p = data.X, init.order
            made = recording_passes(monkeypatch)
            result = run(problem, data, init, SolverConfig(schedule=schedule, max_iters=300))
            (passes,) = made
            # Two calls per iteration at every order: at order 1 the
            # direction pass returns X itself.
            assert len(passes.calls) == 2 * len(result.trace) + 1 > 10
            absX = np.abs(X)
            assert any(call.compact for call in passes.calls)
            for call in passes.calls:
                g, blocks, got = call.g, call.blocks, call.result
                assert call.covered and follows_the_rule(call), (p, g)
                mags = [np.abs(w) for w in blocks]
                if g == 0:
                    want = grad_direction_batch(X, blocks, p - 1)
                    terms = grad_direction_batch(absX, mags, p - 1)
                else:
                    want = kernels.contract_mode(X, blocks[-1], p)
                    terms = kernels.contract_mode(absX, mags[-1], p)
                assert np.all(np.abs(got - want) <= 1e-13 * terms), (p, g)
            for g in (0, 1):  # the doubling hold bounds the builds
                calls = sum(call.g == g for call in passes.calls)
                assert passes.builds[g] <= math.log2(1 + calls / solver._HOLD_PASSES), (p, g)
            if p == 2:  # a support left its kept indices after the first builds
                assert sum(passes.builds) > 2, passes.builds

    def test_bits_repeat_on_any_core_count(self, monkeypatch):
        """With every pass cut into ranges, runs on 1-4 cores, and a repeat,
        give the same bits."""
        monkeypatch.setattr(tensor, "_GATHER_MIN_SAMPLE", 1)
        monkeypatch.setattr(kernels, "_SPLIT_MIN_PASS", 1)
        for data, problem, init in self.runs():
            for schedule in SCHEDULES:
                config = SolverConfig(schedule=schedule, max_iters=150)
                results = []
                for cores in (1, 2, 3, 4, 2):
                    monkeypatch.setattr(kernels, "_usable_cores", lambda c=cores: c)
                    results.append(run(problem, data, init, config))
                assert all(same_run(results[0], r) for r in results[1:]), (init.order, schedule)

    @pytest.mark.parametrize("caps, compact", [
        ((15, 15), (True, True)), ((9, 16), (True, False)), ((16, 9), (False, True)),
        ((16, 16), (False, False)),
    ])
    def test_a_copy_above_half_of_x_is_not_built(self, monkeypatch, caps, compact):
        """A pass whose kept indices hold more than half of its axes (16 of
        30) contracts X itself; at half (15 of 30) it takes its copy, from
        its `_HOLD_PASSES`-th call. Kept indices only grow, so a pass that
        starts at half contracts X from the first support change that leaves
        them."""
        monkeypatch.setattr(tensor, "_GATHER_MIN_SAMPLE", 1)
        data, _, _ = desk_tol_solves()[2]
        problem = Problem(ridge=(2e-4, 2e-4), sparsity=caps)
        init = random_init(data.feature_dims, caps, seed=2)
        made = recording_passes(monkeypatch)
        result = run(problem, data, init, SolverConfig(max_iters=50))
        (passes,) = made
        assert len(result.trace) == 50
        for g in (0, 1):
            calls = [call for call in passes.calls if call.g == g]
            assert calls[solver._HOLD_PASSES - 1].compact == compact[g], g
            assert all(map(follows_the_rule, calls)), g

    def test_desk_runs_below_the_gate_contract_x_itself(self, monkeypatch):
        """At the real cutoff a desk sample (900 elements) is below it: the ten
        desk-tol solves build no copy and give bitwise the run whose passes
        contract X itself."""
        assert not tensor._gathers(30 * 30)

        class Dense(PASSES):
            def direction(self, blocks):
                return grad_direction_batch(self.X, blocks, len(blocks) - 1)

            def partial(self, blocks):
                return kernels.contract_mode(self.X, blocks[-1], len(blocks))

        for data, problem, init in desk_tol_solves():
            made = recording_passes(monkeypatch)
            result = run(problem, data, init, SolverConfig())
            assert made[0].copies == [None, None] and made[0].groups == ((), ())
            monkeypatch.setattr(solver, "_Passes", Dense)
            assert same_run(result, run(problem, data, init, SolverConfig()))

    def test_live_copies_never_hold_more_than_x(self, monkeypatch):
        """A copy is let go before its successor is built, so the live copies
        never hold more than X. In this run both kept indices grow from 13
        to 15 of 30, so the last copies are half of X each; a compact run's
        traced allocation peak exceeds a dense run's by their bytes, and by
        at most X's and 1% for the kept indices and the sliced blocks. Each
        run is traced after an untraced one, so one-time imports do not
        count."""
        data, problem, _ = desk_tol_solves()[3]
        problem = dataclasses.replace(problem, sparsity=(13, 13))
        init = random_init(data.feature_dims, problem.sparsity, seed=3)
        peaks = []
        for gate in (1 << 62, 1):
            monkeypatch.setattr(tensor, "_GATHER_MIN_SAMPLE", gate)
            run(problem, data, init, SolverConfig(max_iters=300))
            made = recording_passes(monkeypatch, results=False)
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                run(problem, data, init, SolverConfig(max_iters=300))
                peaks.append(tracemalloc.get_traced_memory()[1] - base)
            finally:
                tracemalloc.stop()
        (passes,) = made
        assert min(passes.builds) >= 2, passes.builds
        assert [K.size for K in passes.kept] == [15, 15]
        assert passes.most == data.X.nbytes
        assert 0.9 * data.X.nbytes <= peaks[1] - peaks[0] <= 1.01 * data.X.nbytes, peaks


def scratch_residual(params, data, problem):
    """The L-stationarity residual at `params`, every term from the public
    gradients and from directions contracted out of X."""
    r = abs(grad_bias(params, data)) / data.n
    for j, (w, lam, s) in enumerate(zip(params.blocks, problem.ridge, problem.sparsity)):
        G = grad_direction_batch(data.X, params.blocks, j)
        L = np.linalg.norm(G) ** 2 / 4.0 + lam
        g = grad_block(params, data, problem, j)
        r = max(r, L * np.linalg.norm(w - project_l0(w - g / L, s)) / data.n)
    return r


class TestStationarityResidual:
    """`SolveResult.final_residual`: the L-stationarity residual at the final
    iterate, from the last stop test's gradients, which every run computes:
    a budget spent before the first iteration still records one."""

    @staticmethod
    def fixed_point():
        """Pairs of equal integer samples with opposite labels, and weights on
        an entry that every sample holds at 0: the margins are 0, so each
        loss coefficient is -y/2 and every gradient cancels exactly."""
        rng = np.random.default_rng(14)
        X = np.repeat(rng.integers(-3, 4, size=(6, 3, 4)).astype(float), 2, axis=0)
        X[:, 0, 0] = 0.0
        data = Dataset(X, np.tile([1.0, -1.0], 6))
        problem = Problem(ridge=(0.0, 0.0), sparsity=(1, 1))
        init = ModelParams(blocks=(np.array([2.0, 0, 0]), np.array([-1.0, 0, 0, 0])), bias=0.0)
        return data, problem, init

    @pytest.mark.parametrize("step", [0.0, 2.0], ids=["iterations", "spent-budget"])
    def test_zero_at_a_hand_built_fixed_point(self, step):
        data, problem, init = self.fixed_point()
        for j in range(2):  # both blocks count: their moduli are positive
            assert np.linalg.norm(grad_direction_batch(data.X, init.blocks, j)) > 0.0
        result = run(problem, data, init, SolverConfig(max_iters=5, max_seconds=1.0),
                     time_source=FakeClock(step))
        assert len(result.trace) == (2 if step == 0.0 else 1)
        assert result.stop_reason == ("obj_tol" if step == 0.0 else "max_seconds")
        assert result.final_residual == 0.0
        assert all(a.tobytes() == b.tobytes() for a, b in zip(result.params.blocks, init.blocks))

    @pytest.mark.parametrize("schedule", SCHEDULES)
    def test_matches_scratch(self, schedule):
        """At desk shape (order 2) and on toys of order 3 and 1; the final
        params are bitwise the last iterate the hook saw."""
        for data, problem, init in cache_runs():
            last = []
            result = run(problem, data, init, SolverConfig(schedule=schedule, max_iters=400),
                         iterate_hook=lambda k, blocks, bias: last.append((blocks, bias)))
            want = scratch_residual(result.params, data, problem)
            assert want > 0.0
            assert abs(result.final_residual - want) <= 1e-12 * want, init.order
            blocks, bias = last[-1]
            assert [b.tobytes() for b in result.params.blocks] == [b.tobytes() for b in blocks]
            assert result.params.bias == bias

    def test_matches_scratch_when_the_budget_is_spent(self):
        """A budget spent before the first iteration records exactly one, at
        orders 2, 3 and 1, and its residual is the one at that iterate. A
        cap of one iteration comes first and is reported as `max_iters`."""
        for data, problem, init in cache_runs():
            result = run(problem, data, init, SolverConfig(max_seconds=1.0),
                         time_source=FakeClock(step=2.0))
            assert len(result.trace) == 1 and result.stop_reason == "max_seconds"
            want = scratch_residual(result.params, data, problem)
            assert want > 0.0
            assert abs(result.final_residual - want) <= 1e-12 * want, init.order
            capped = run(problem, data, init, SolverConfig(max_iters=1, max_seconds=1.0),
                         time_source=FakeClock(step=2.0))
            assert capped.stop_reason == "max_iters"
            assert same_run(dataclasses.replace(capped, stop_reason="max_seconds"), result)
            assert capped.final_residual == result.final_residual


@pytest.mark.parametrize("schedule", SCHEDULES)
def test_extrapolation_test_runs_whenever_beta_is_nonzero(monkeypatch, schedule):
    """The extrapolation test (`_objective_at` with a partial) runs exactly in
    the iterations whose momentum factor is nonzero. Every other iteration's
    sweep starts at the current iterate, so its base objective is the
    previous recorded one, bitwise. So does a test at an iterate that did
    not move in the previous step (iteration 1 among them): the
    extrapolated point is the current one, its objective the recorded one
    bitwise, and the test accepts it."""
    objective_at = solver._objective_at
    for data, problem, init in cache_runs():
        events = []  # ("test", None) per extrapolation test, ("hook", iterate) per iteration
        initial = []

        def recording(X, y, blocks, bias, ridge, sparsity, partial=None):
            J, P = objective_at(X, y, blocks, bias, ridge, sparsity, partial)
            if partial is None:
                initial.append(J)
            else:
                events.append(("test", None))
            return J, P

        def hook(k, blocks, bias):
            events.append(("hook", ([b.copy() for b in blocks], bias)))

        monkeypatch.setattr(solver, "_objective_at", recording)
        result = run(problem, data, init, SolverConfig(schedule=schedule, max_iters=300),
                     iterate_hook=hook)
        monkeypatch.undo()
        assert len(initial) == 1

        iterates = [(list(init.blocks), init.bias)]
        tested = [False]
        for kind, value in events:
            if kind == "test":
                tested[-1] = True
            else:
                iterates.append(value)
                tested.append(False)
        assert len(iterates) == len(result.trace) + 1

        objectives = initial + [row.objective for row in result.trace]
        for k, row in enumerate(result.trace, start=1):
            (cur, cur_b), (prev, prev_b) = iterates[k - 1], iterates[max(k - 2, 0)]
            moved = cur_b != prev_b or any(
                not np.array_equal(c, q) for c, q in zip(cur, prev)
            )
            assert tested[k - 1] == (row.beta != 0.0), (schedule, k)
            if not tested[k - 1] or not moved:
                assert row.base_objective == objectives[k - 1], (schedule, k)
            if tested[k - 1] and not moved:
                assert row.accepted, (schedule, k)
        if schedule == "bpgd":
            assert not any(tested)
        else:
            assert any(tested)
        # apalm+ starts at beta1 > 0 and tests at iteration 1, where the
        # iterate has not moved; apalm starts at beta 0.
        assert tested[0] == (schedule == "apalm+")
        if schedule == "apalm+":
            assert result.trace[0].accepted and result.trace[0].base_objective == initial[0]


def test_solver_margins_and_objective_are_the_public_ones_bitwise():
    """Below `tensor._GATHER_MIN_SAMPLE` the solver contracts X with the
    products `ml0.margins` takes: after each desk-tol solve (order 2) and
    runs on 160-sample toys of order 1 and 3, under every schedule and cut
    at 400 iterations, its margins and objective at the final iterate have
    the bits of `ml0.margins` and `ml0.objective` there, and so does the
    last recorded objective."""
    rng = np.random.default_rng(31)
    runs = desk_tol_solves()
    for dims in [(900,), (10, 10, 9)]:
        problem = toy_problem(dims, s=5)
        runs.append((toy_dataset(rng, n=160, dims=dims), problem,
                     random_init(dims, problem.sparsity, seed=31)))
    for (data, problem, init), schedule in itertools.product(runs, SCHEDULES):
        assert not tensor._gathers(math.prod(data.feature_dims))
        result = run(problem, data, init, SolverConfig(schedule=schedule, max_iters=400))
        params = result.params
        blocks, b = list(params.blocks), params.bias
        assert margin_batch(data.X, blocks, b).tobytes() == margins(params, data).tobytes()
        J, _ = solver._objective_at(solver._Passes(data.X), data.y, blocks, b,
                                    problem.ridge, problem.sparsity)
        assert J == objective(params, data, problem), init.order
        assert result.trace[-1].objective == J, (init.order, schedule)
