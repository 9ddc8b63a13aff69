import math

import numpy as np
import pytest

from ml0 import (
    Dataset,
    IterTrace,
    ModelParams,
    Problem,
    SolverConfig,
    check_stop,
    diagnose_sufficient_decrease,
    nesterov_beta,
    project_l0,
    random_init,
    run,
    write_trace_csv,
)
from ml0.solver import TRACE_HEADER


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

    def test_requires_t_at_least_one(self):
        with pytest.raises(ValueError):
            nesterov_beta(0.5)


class TestCheckStop:
    def make_rows(self, j1, j2):
        return (
            IterTrace(1, j1, 1.0, 0.5, True, 0.0),
            IterTrace(2, j2, 1.0, 0.5, True, 0.0),
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
            schedule="adaptive", beta1=0.0, beta_max=0.0, max_iters=1, max_seconds=60
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
        with pytest.raises(ValueError, match="finite"):
            run(problem, data, init, SolverConfig())

    def test_defaults_mirror_reference_setup(self):
        config = SolverConfig()
        assert (config.t, config.beta1, config.beta_max, config.gamma) == (
            1.3, 0.6, 0.9999, 1.5,
        )
        assert (config.tol_obj, config.tol_grad) == (1e-5, 1e-4)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(t=1.0)
        with pytest.raises(ValueError):
            SolverConfig(beta1=0.5, beta_max=0.4)
        with pytest.raises(ValueError):
            SolverConfig(schedule="magic")
        with pytest.raises(ValueError):
            SolverConfig(gamma=1.0)


class TestRunInvariants:
    def run_toy(self, schedule, seed=3, **kwargs):
        rng = np.random.default_rng(seed)
        data = toy_dataset(rng, n=30, dims=(5, 4))
        problem = toy_problem(data.feature_dims, s=3)
        init = random_init(data.feature_dims, problem.sparsity, seed=seed)
        config = SolverConfig(schedule=schedule, max_iters=120, **kwargs)
        return run(problem, data, init, config), problem

    @pytest.mark.parametrize("schedule", ["adaptive", "none"])
    def test_monotone_descent(self, schedule):
        result, _ = self.run_toy(schedule)
        J = [row.objective for row in result.trace]
        assert all(b <= a + 1e-10 for a, b in zip(J, J[1:]))

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
        result, _ = self.run_toy("adaptive")
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
        result, _ = self.run_toy("adaptive")
        assert all(0.0 <= row.beta <= result.config.beta_max for row in result.trace)

    def test_bpgd_equals_adaptive_with_zero_beta_cap(self):
        a, _ = self.run_toy("none", beta1=0.0)
        b, _ = self.run_toy("adaptive", beta1=0.0, beta_max=0.0)
        assert len(a.trace) == len(b.trace)
        for ra, rb in zip(a.trace, b.trace):
            assert ra.objective == rb.objective
            assert ra.gap == rb.gap
        assert a.params.bias == b.params.bias

    def test_bpgd_beta_all_zero(self):
        result, _ = self.run_toy("none")
        assert all(row.beta == 0.0 for row in result.trace)

    def test_nesterov_betas_follow_recursion(self):
        result, _ = self.run_toy("nesterov")
        betas = [row.beta for row in result.trace]
        t_k, expect = 1.0, [0.0]
        for _ in range(len(betas) - 1):
            t_k, b = nesterov_beta(t_k)
            expect.append(b)
        np.testing.assert_allclose(betas, expect, rtol=1e-14)
        assert all(row.accepted for row in result.trace)

    def test_trace_objective_finite_everywhere(self):
        for schedule in ("adaptive", "nesterov", "none"):
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

    def test_gamma_from_config_overrides_problem(self):
        rng = np.random.default_rng(6)
        data = toy_dataset(rng)
        problem = Problem(
            ridge=(0.0, 0.0), sparsity=(2, 2), gamma=7.0
        )
        init = random_init(data.feature_dims, problem.sparsity, seed=6)
        result = run(problem, data, init, SolverConfig(gamma=1.5, max_iters=3))
        # bias constant gamma*n/4 lands in min_taus when smallest
        assert min(result.min_taus) <= 1.5 * data.n / 4.0 + 1e-12


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


class TestDiagnostics:
    def test_no_violations_on_toy_runs(self):
        rng = np.random.default_rng(9)
        data = toy_dataset(rng, n=30, dims=(5, 4))
        problem = toy_problem(data.feature_dims, s=3)
        init = random_init(data.feature_dims, problem.sparsity, seed=9)
        for schedule in ("adaptive", "none"):
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

    def test_explicit_rho_hat(self):
        rng = np.random.default_rng(11)
        data = toy_dataset(rng)
        problem = toy_problem(data.feature_dims)
        init = random_init(data.feature_dims, problem.sparsity, seed=11)
        result = run(problem, data, init, SolverConfig(max_iters=40))
        assert diagnose_sufficient_decrease(result, rho_hat=0.0).violations == 0
