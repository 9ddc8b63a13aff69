import math
from dataclasses import replace

import numpy as np
import pytest

import ml0.data
import ml0.kernels
from ml0 import (
    Dataset,
    DatasetStream,
    DenseTensor,
    ModelParams,
    Problem,
    SolverConfig,
    accuracy,
    auc,
    grad_bias,
    grad_block,
    lipschitz_bias,
    lipschitz_block,
    load_dataset,
    margins,
    objective,
    predict,
    random_init,
    run,
    save_dataset,
    smooth_loss,
)
from ml0.model import _dloss_dmargin, grad_direction_batch, margin_batch, objective_from_margins


def masked_dloss_dmargin(m):
    """Reference for `_dloss_dmargin`: the same exponentials and divisions,
    gathered and scattered through the two sign masks."""
    out = np.empty_like(m)
    pos = m >= 0
    e = np.exp(-m[pos])
    out[pos] = -e / (1.0 + e)
    e = np.exp(m[np.logical_not(pos)])
    out[np.logical_not(pos)] = -1.0 / (1.0 + e)
    return out


def random_instance(rng, p=None, max_dim=5, max_n=20, lam=2e-4):
    p = p if p is not None else int(rng.integers(1, 4))
    dims = tuple(int(rng.integers(1, max_dim + 1)) for _ in range(p))
    n = int(rng.integers(2, max_n + 1))
    X = rng.standard_normal((n,) + dims)
    y = rng.choice([-1.0, 1.0], size=n)
    data = Dataset(X, y)
    params = ModelParams(
        blocks=tuple(rng.standard_normal(d) for d in dims),
        bias=float(rng.standard_normal()),
    )
    problem = Problem(ridge=(lam,) * p, sparsity=dims, gamma=1.5)
    return params, data, problem


def with_block(params, j, new_block):
    blocks = list(params.blocks)
    blocks[j] = new_block
    return ModelParams(blocks=tuple(blocks), bias=params.bias)


def fd_grad_block(params, data, problem, j, h=1e-6):
    """Central finite differences of the smooth loss in block j."""
    w = params.blocks[j]
    g = np.zeros_like(w)
    for i in range(w.size):
        up = w.copy()
        up[i] += h
        down = w.copy()
        down[i] -= h
        g[i] = (
            smooth_loss(with_block(params, j, up), data, problem)
            - smooth_loss(with_block(params, j, down), data, problem)
        ) / (2 * h)
    return g


def fd_grad_bias(params, data, problem, h=1e-6):
    up = ModelParams(blocks=params.blocks, bias=params.bias + h)
    down = ModelParams(blocks=params.blocks, bias=params.bias - h)
    return (smooth_loss(up, data, problem) - smooth_loss(down, data, problem)) / (2 * h)


class TestModelParams:
    @pytest.mark.parametrize("blocks, bias, match", [
        ((), 0.0, "one or more weight blocks"),
        ((np.ones((2, 2)),), 0.0, "each a vector"),
        ((np.ones(3), 2.0), 0.0, "each a vector"),
        ((np.ones(0),), 0.0, "extents >= 1"),
        ((np.ones(2), np.array([1.0, np.nan])), 0.0, "finite"),
        ((np.array([np.inf, 1.0]),), 0.0, "finite"),
        ((np.ones(2),), math.inf, "bias must be finite"),
        ((np.ones(2),), math.nan, "bias must be finite"),
    ], ids=["no-block", "matrix-block", "scalar-block", "empty-block", "nan-entry",
            "inf-entry", "inf-bias", "nan-bias"])
    def test_invalid_params_rejected(self, blocks, bias, match):
        with pytest.raises(ValueError, match=match):
            ModelParams(blocks=blocks, bias=bias)

    def test_writes_through_the_callers_arrays_cannot_change_the_params(self):
        w, v = np.ones(3), np.ones(2)
        params = ModelParams((w, v), 0.0)
        x = DenseTensor(np.ones((3, 2)))
        # Owned arrays are kept and made read-only, so the write fails.
        with pytest.raises(ValueError, match="read-only"):
            w[0] = np.nan
        # A view of writable memory is copied, so the write does not reach it.
        base = np.ones(5)
        viewed = ModelParams((base[:3], v), 0.0)
        base[:] = np.nan
        assert predict(params, x) == predict(viewed, x) == 6.0
        for b in params.blocks + viewed.blocks:
            assert not b.flags.writeable and b.flags.c_contiguous and b.dtype == np.float64
        assert not np.shares_memory(viewed.blocks[0], base)

    @pytest.mark.parametrize("bad", [np.array([np.nan]), np.ones((1, 1)), np.ones(0)],
                             ids=["nan-block", "matrix-block", "empty-block"])
    def test_a_rejected_call_leaves_the_callers_blocks_writable(self, bad):
        w, v = np.ones(3), np.ones(2)
        with pytest.raises(ValueError):
            ModelParams((w, v, bad), 0.0)
        assert w.flags.writeable and v.flags.writeable
        w[0] = 2.0

    def test_random_init_blocks_are_read_only(self):
        params = random_init((3, 2), (2, 1), seed=0)
        with pytest.raises(ValueError, match="read-only"):
            params.blocks[0][:] = np.inf

    def test_blocks_become_contiguous_float64(self):
        params = ModelParams(blocks=([1, 2, 3], np.arange(6.0)[::2]), bias=1)
        for b in params.blocks:
            assert b.dtype == np.float64 and b.flags.c_contiguous
        np.testing.assert_array_equal(params.blocks[1], [0.0, 2.0, 4.0])
        assert type(params.bias) is float


class TestPredict:
    def test_zero_blocks_leave_bias(self):
        x = DenseTensor([[1.0, 2.0], [3.0, 4.0]])
        params = ModelParams(blocks=(np.zeros(2), np.zeros(2)), bias=0.5)
        assert predict(params, x) == 0.5

    def test_all_ones(self):
        x = DenseTensor([[1.0, 2.0], [3.0, 4.0]])
        params = ModelParams(blocks=(np.ones(2), np.ones(2)), bias=0.0)
        assert predict(params, x) == 10.0

    def test_margin_linear_in_sample(self):
        rng = np.random.default_rng(0)
        arr = rng.standard_normal((3, 2))
        params = ModelParams(
            blocks=(rng.standard_normal(3), rng.standard_normal(2)), bias=0.7
        )
        base = predict(params, DenseTensor(arr))
        scaled = predict(params, DenseTensor(2.5 * arr))
        np.testing.assert_allclose(scaled, 2.5 * (base - 0.7) + 0.7, rtol=1e-12)

    @pytest.mark.parametrize("dims", [(7,), (30, 30), (130, 130), (4, 5, 6), (30, 26, 24),
                                      (200, 200), (3, 20000), (2, 9000), (3, 20000, 1)])
    def test_bitwise_equal_to_the_dataset_margins(self, dims):
        """One margin definition: a sample scored alone has the bits of its
        margin in the batch, at orders 1-3, below and above the split cutoff,
        also where a sample's first axis holds few rows of many elements."""
        rng = np.random.default_rng(len(dims) + dims[0])
        n = 9
        data = Dataset(rng.standard_normal((n,) + dims), rng.choice([-1.0, 1.0], n))
        params = ModelParams(blocks=tuple(rng.standard_normal(d) for d in dims), bias=-0.4)
        m = margins(params, data)
        for i in range(n):
            assert predict(params, data.sample(i)) == m[i]

    @pytest.mark.parametrize("x", [np.ones((2, 2)), [[1.0, 2.0], [3.0, 4.0]]],
                             ids=["ndarray", "nested-list"])
    def test_a_raw_sample_is_refused_with_the_way_to_wrap_it(self, x):
        params = ModelParams(blocks=(np.ones(2), np.ones(2)), bias=0.0)
        with pytest.raises(TypeError, match=r"got (ndarray|list): .*ml0\.DenseTensor\(x\).*ds\.sample\(i\)"):
            predict(params, x)


class TestSmoothLoss:
    def test_zero_params_give_n_log2(self):
        rng = np.random.default_rng(1)
        data = Dataset(rng.standard_normal((7, 2, 3)), rng.choice([-1.0, 1.0], 7))
        params = ModelParams(blocks=(np.zeros(2), np.zeros(3)), bias=0.0)
        problem = Problem(ridge=(0.0, 0.0), sparsity=(2, 3))
        np.testing.assert_allclose(
            smooth_loss(params, data, problem), 7 * math.log(2), rtol=1e-14
        )

    def test_single_sample_zero_margin(self):
        data = Dataset(np.array([[1.0, -1.0]]), [1.0])
        params = ModelParams(blocks=(np.array([1.0, 1.0]),), bias=0.0)
        problem = Problem(ridge=(0.0,), sparsity=(2,))
        np.testing.assert_allclose(
            smooth_loss(params, data, problem), math.log(2), rtol=1e-14
        )

    def test_matches_naive_formula_for_moderate_margins(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            params, data, problem = random_instance(rng)
            m = np.array([predict(params, data.sample(i)) for i in range(data.n)])
            if np.max(np.abs(m)) > 20:
                continue
            naive = float(np.sum(np.log(1.0 + np.exp(-data.y * m))))
            naive += sum(
                0.5 * lam * float(b @ b) for lam, b in zip(problem.ridge, params.blocks)
            )
            np.testing.assert_allclose(
                smooth_loss(params, data, problem), naive, rtol=1e-10
            )


class TestObjective:
    def test_feasible_equals_smooth_loss_exactly(self):
        rng = np.random.default_rng(3)
        params, data, problem = random_instance(rng)
        assert objective(params, data, problem) == smooth_loss(params, data, problem)

    def test_indicator_fires_on_extra_nonzeros(self):
        rng = np.random.default_rng(4)
        data = Dataset(rng.standard_normal((4, 3)), rng.choice([-1.0, 1.0], 4))
        params = ModelParams(blocks=(np.array([1.0, 2.0, 3.0]),), bias=0.0)
        problem = Problem(ridge=(0.0,), sparsity=(2,))
        assert objective(params, data, problem) == math.inf

    def test_zero_params_feasible(self):
        rng = np.random.default_rng(5)
        data = Dataset(rng.standard_normal((6, 2, 2)), rng.choice([-1.0, 1.0], 6))
        params = ModelParams(blocks=(np.zeros(2), np.zeros(2)), bias=0.0)
        problem = Problem(ridge=(0.0, 0.0), sparsity=(1, 1))
        np.testing.assert_allclose(
            objective(params, data, problem), 6 * math.log(2), rtol=1e-14
        )


class TestPerBlockProblem:
    """Every function taking a problem needs one ridge weight and one cap per
    block, each cap within its block's length; a short tuple must not be
    silently truncated by a zip."""

    def instance(self):
        rng = np.random.default_rng(14)
        data = Dataset(rng.standard_normal((5, 3, 4)), rng.choice([-1.0, 1.0], 5))
        return ModelParams(blocks=(np.ones(3), np.ones(4)), bias=0.0), data

    @pytest.mark.parametrize("ridge, sparsity, match", [
        ((1.0,), (3,), "1 ridge/sparsity entries for 2 blocks"),
        ((1.0,) * 3, (3,) * 3, "3 ridge/sparsity entries for 2 blocks"),
        ((1.0, 1.0), (3, 5), "exceed block lengths"),
    ])
    def test_mismatched_problem_rejected(self, ridge, sparsity, match):
        params, data = self.instance()
        problem = Problem(ridge=ridge, sparsity=sparsity)
        for call in (
            lambda: objective(params, data, problem),
            lambda: smooth_loss(params, data, problem),
            lambda: grad_block(params, data, problem, 1),
            lambda: lipschitz_block(params, data, problem, 0),
            lambda: run(problem, data, params, SolverConfig(max_iters=1)),
        ):
            with pytest.raises(ValueError, match=match):
                call()

    @pytest.mark.parametrize("ridge, sparsity, gamma, match", [
        ((1.0, 1.0), (3,), 1.5, "one entry per block"),
        ((1.0, -1e-9), (3, 3), 1.5, "nonnegative"),
        ((1.0, 1.0), (3, 0), 1.5, ">= 1"),
        ((1.0, 1.0), (3, -2), 1.5, ">= 1"),
        ((1.0, 1.0), (3, 3), 1.0, "gamma must exceed 1"),
        ((1.0, 1.0), (3, 3), 0.5, "gamma must exceed 1"),
        ((1.0, 1.0), (3, 3), math.nan, "gamma must exceed 1"),
    ], ids=["length-mismatch", "negative-ridge", "zero-cap", "negative-cap", "gamma-one",
            "gamma-below-one", "gamma-nan"])
    def test_invalid_problem_rejected(self, ridge, sparsity, gamma, match):
        with pytest.raises(ValueError, match=match):
            Problem(ridge=ridge, sparsity=sparsity, gamma=gamma)

    @pytest.mark.parametrize("cap", [2.7, 3.0, np.float64(3.0), True, np.True_, "3", None])
    def test_non_integer_cap_rejected(self, cap):
        with pytest.raises(ValueError, match="sparsity caps must be integers"):
            Problem(ridge=(1.0, 1.0), sparsity=(cap, 3))

    def test_numpy_integer_caps_become_ints(self):
        problem = Problem(ridge=(1.0, 1.0), sparsity=(np.int64(2), np.uint8(3)))
        assert problem.sparsity == (2, 3)
        assert all(type(s) is int for s in problem.sparsity)

    def test_matching_problem_scores_the_cap(self):
        params, data = self.instance()
        assert objective(params, data, Problem(ridge=(1.0, 1.0), sparsity=(3, 3))) == math.inf
        assert math.isfinite(objective(params, data, Problem(ridge=(1.0, 1.0), sparsity=(3, 4))))


class TestDlossDmargin:
    def test_bitwise_equal_to_masked_form(self):
        edges = [0.0, 5e-324, 1e-300, 700.0, 745.2, 800.0, 1e308, np.inf]
        rng = np.random.default_rng(5)
        scaled = rng.standard_normal(10**5) * 10.0 ** rng.integers(-4, 4, size=10**5)
        for m in (np.array(edges + [-v for v in edges]), scaled):
            assert _dloss_dmargin(m).tobytes() == masked_dloss_dmargin(m).tobytes()

    def test_bitwise_equal_to_two_denominator_form(self):
        """One `1.0 + e` for both branches gives the bits of the form that
        computed it once per branch."""
        edges = [0.0, 1e-300, 36.0, 745.0, 1e308]
        rng = np.random.default_rng(8)
        scaled = rng.standard_normal(10**5) * 10.0 ** rng.integers(-6, 4, size=10**5)
        for m in (np.array(edges + [-v for v in edges]), scaled):
            e = np.exp(-np.abs(m))
            want = np.where(m >= 0, -e / (1.0 + e), -1.0 / (1.0 + e))
            assert _dloss_dmargin(m).tobytes() == want.tobytes()

    def test_nan_positions_match(self):
        m = np.array([np.nan, 1.0, -np.nan, -2.0, 0.0, np.nan])
        got, want = _dloss_dmargin(m), masked_dloss_dmargin(m)
        nan = np.isnan(want)
        np.testing.assert_array_equal(np.isnan(got), nan)
        assert got[~nan].tobytes() == want[~nan].tobytes()


class TestGradients:
    def test_zero_params_zero_gradient(self):
        rng = np.random.default_rng(6)
        data = Dataset(rng.standard_normal((5, 3, 2)), rng.choice([-1.0, 1.0], 5))
        params = ModelParams(blocks=(np.zeros(3), np.zeros(2)), bias=0.0)
        problem = Problem(ridge=(0.0, 0.0), sparsity=(3, 2))
        np.testing.assert_array_equal(grad_block(params, data, problem, 0), np.zeros(3))
        np.testing.assert_array_equal(grad_block(params, data, problem, 1), np.zeros(2))

    def test_vector_case_matches_plain_logistic_gradient(self):
        rng = np.random.default_rng(7)
        n, d, lam = 15, 4, 3e-3
        X = rng.standard_normal((n, d))
        y = rng.choice([-1.0, 1.0], n)
        w = rng.standard_normal(d)
        b = 0.4
        data = Dataset(X, y)
        params = ModelParams(blocks=(w,), bias=b)
        problem = Problem(ridge=(lam,), sparsity=(d,))
        # independent plain logistic-ridge gradient
        m = X @ w + b
        sig = 1.0 / (1.0 + np.exp(y * m))
        want = -(X.T @ (y * sig)) + lam * w
        np.testing.assert_allclose(grad_block(params, data, problem, 0), want, rtol=1e-10)
        np.testing.assert_allclose(grad_bias(params, data), -np.sum(y * sig), rtol=1e-10)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            params, data, problem = random_instance(rng, max_dim=4)
            for j in range(params.order):
                got = grad_block(params, data, problem, j)
                want = fd_grad_block(params, data, problem, j)
                np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-7)
            np.testing.assert_allclose(
                grad_bias(params, data), fd_grad_bias(params, data, problem), atol=1e-6
            )

    def test_bias_gradient_balanced_zero_margins(self):
        data = Dataset(np.zeros((4, 2)), [1.0, 1.0, -1.0, -1.0])
        params = ModelParams(blocks=(np.zeros(2),), bias=0.0)
        assert grad_bias(params, data) == 0.0

    def test_bias_gradient_saturates(self):
        data = Dataset(np.array([[1.0]]), [1.0])
        params = ModelParams(blocks=(np.array([60.0]),), bias=0.0)
        assert abs(grad_bias(params, data)) < 1e-20

    def test_block_index_out_of_range(self):
        rng = np.random.default_rng(9)
        params, data, problem = random_instance(rng, p=2)
        with pytest.raises(IndexError):
            grad_block(params, data, problem, 2)


class TestGradDirectionBatch:
    def test_basis_blocks_extract_fiber(self):
        rng = np.random.default_rng(1)
        for dims in [(5,), (3, 4), (3, 4, 5)]:
            X = rng.standard_normal((6,) + dims)
            picks = [int(rng.integers(d)) for d in dims]
            blocks = [np.eye(d)[i] for d, i in zip(dims, picks)]
            for skip in range(len(dims)):
                fiber = tuple(slice(None) if k == skip else i for k, i in enumerate(picks))
                got = grad_direction_batch(X, blocks, skip)
                np.testing.assert_array_equal(got, X[(slice(None),) + fiber])

    def test_dot_with_own_block_equals_margin_minus_bias(self):
        rng = np.random.default_rng(7)
        for p in (1, 2, 3):
            for _ in range(10):
                params, data, _ = random_instance(rng, p=p)
                m = margin_batch(data.X, params.blocks, params.bias) - params.bias
                for skip in range(p):
                    G = grad_direction_batch(data.X, params.blocks, skip)
                    assert G.shape == (data.n, params.blocks[skip].size)
                    np.testing.assert_allclose(
                        G @ params.blocks[skip], m, rtol=1e-12, atol=1e-12
                    )


class TestLipschitz:
    def test_other_blocks_zero(self):
        rng = np.random.default_rng(10)
        n = 6
        data = Dataset(rng.standard_normal((n, 3, 2)), rng.choice([-1.0, 1.0], n))
        params = ModelParams(blocks=(rng.standard_normal(3), np.zeros(2)), bias=0.0)
        problem = Problem(ridge=(0.0, 0.0), sparsity=(3, 2), gamma=1.5)
        np.testing.assert_allclose(
            lipschitz_block(params, data, problem, 0), 1.5 * math.sqrt(2) * n, rtol=1e-14
        )

    def test_single_sample_unit_direction(self):
        # one vector sample of unit norm: bound = 1.5 * sqrt(2) * (1+1)^2 = 6 sqrt(2)
        data = Dataset(np.array([[0.6, 0.8]]), [1.0])
        params = ModelParams(blocks=(np.zeros(2),), bias=0.0)
        problem = Problem(ridge=(0.0,), sparsity=(2,), gamma=1.5)
        np.testing.assert_allclose(
            lipschitz_block(params, data, problem, 0), 6 * math.sqrt(2), rtol=1e-14
        )

    def test_ridge_adds_gamma_lambda(self):
        rng = np.random.default_rng(11)
        params, data, problem = random_instance(rng, p=2, lam=0.0)
        base = lipschitz_block(params, data, problem, 0)
        heavy = replace(problem, ridge=(50.0, 0.0))
        np.testing.assert_allclose(
            lipschitz_block(params, data, heavy, 0), base + problem.gamma * 50.0,
            rtol=1e-12,
        )

    def test_bias_constant(self):
        rng = np.random.default_rng(12)
        data4 = Dataset(rng.standard_normal((4, 2)), rng.choice([-1.0, 1.0], 4))
        data1 = Dataset(rng.standard_normal((1, 2)), [1.0])
        assert lipschitz_bias(data4, Problem(ridge=(0.0,), sparsity=(2,), gamma=1.5)) == 1.5
        assert lipschitz_bias(data1, Problem(ridge=(0.0,), sparsity=(2,), gamma=2.0)) == 0.5

    def test_bias_constant_linear_in_n(self):
        rng = np.random.default_rng(13)
        problem = Problem(ridge=(0.0,), sparsity=(2,), gamma=1.5)
        d8 = Dataset(rng.standard_normal((8, 2)), rng.choice([-1.0, 1.0], 8))
        d2 = Dataset(rng.standard_normal((2, 2)), rng.choice([-1.0, 1.0], 2))
        assert lipschitz_bias(d8, problem) == 4 * lipschitz_bias(d2, problem)


class TestDescentLemma:
    def test_quadratic_upper_bound_certifies_step_sizes(self):
        rng = np.random.default_rng(14)
        for _ in range(300):
            params, data, problem = random_instance(rng, lam=float(rng.choice([0.0, 2e-4])))
            H_x = smooth_loss(params, data, problem)
            if rng.random() < 0.25:
                # perturb the bias with its curvature bound
                delta = float(rng.uniform(-1.0, 1.0))
                tau = lipschitz_bias(data, problem)
                moved = ModelParams(blocks=params.blocks, bias=params.bias + delta)
                bound = H_x + grad_bias(params, data) * delta + 0.5 * tau * delta**2
            else:
                j = int(rng.integers(params.order))
                delta = rng.standard_normal(params.blocks[j].size)
                norm = np.linalg.norm(delta)
                if norm > 1.0:
                    delta /= norm
                tau = lipschitz_block(params, data, problem, j)
                moved = with_block(params, j, params.blocks[j] + delta)
                bound = (
                    H_x
                    + float(grad_block(params, data, problem, j) @ delta)
                    + 0.5 * tau * float(delta @ delta)
                )
            assert smooth_loss(moved, data, problem) <= bound + 1e-10


class TestStreamedMargins:
    """`margins` reads an open `DatasetStream` chunk by chunk; every metric
    of `ml0 eval` must equal the in-memory model functions bitwise."""

    @staticmethod
    def saved(tmp_path, rng, n, dims):
        X = rng.standard_normal((n,) + dims)
        y = np.where(np.arange(n) % 2, -1.0, 1.0)  # both classes once n >= 2
        params = ModelParams(blocks=tuple(rng.standard_normal(d) for d in dims),
                             bias=float(rng.standard_normal()))
        path = tmp_path / f"d{n}.ml0t"
        save_dataset(Dataset(X, y), path)
        return path, params

    @staticmethod
    def check_parity(path, params):
        ds = load_dataset(path)
        problem = Problem(ridge=(2e-4,) * params.order, sparsity=params.block_dims())
        with DatasetStream(path) as stream:
            m = margins(params, stream)
        want = margins(params, ds)
        assert m.tobytes() == want.tobytes()
        assert stream.y.tobytes() == ds.y.tobytes()
        assert objective_from_margins(m, stream.y, params.blocks, problem.ridge,
                                      problem.sparsity) == objective(params, ds, problem)
        assert accuracy(m, stream.y) == accuracy(want, ds.y)
        if ds.n > 1:
            assert auc(m, stream.y) == auc(want, ds.y)

    @pytest.mark.parametrize("dims", [(7,), (5, 3), (3, 2, 5)], ids=["order1", "order2", "order3"])
    def test_bitwise_equal_for_any_chunk_remainder(self, tmp_path, monkeypatch, dims):
        rng = np.random.default_rng(40)
        chunk = 4
        monkeypatch.setattr(ml0.data, "_FINITE_BLOCK", chunk * math.prod(dims))
        for n in (1, chunk - 1, chunk, chunk + 1, 3 * chunk + 2):
            self.check_parity(*self.saved(tmp_path, rng, n, dims))

    @pytest.mark.parametrize("n, dims", [(5, (300, 300)), (7, (40, 30, 20))],
                             ids=["one-sample-over-a-chunk", "above-split-cutoff"])
    def test_bitwise_equal_for_large_samples(self, tmp_path, n, dims):
        """300x300 samples exceed one default chunk, so each chunk holds one
        sample; 40x30x20 ones are split into one slab per core in memory and
        into one slab per two-sample chunk when streamed."""
        assert math.prod(dims) >= ml0.kernels._SPLIT_MIN_SAMPLE
        self.check_parity(*self.saved(tmp_path, np.random.default_rng(41), n, dims))

    @pytest.mark.parametrize("n, dims", [(50, (30, 30)), (9, (13,)), (6, (150, 120))],
                             ids=["below-cutoff", "order1", "above-cutoff"])
    def test_margin_does_not_depend_on_the_batch(self, n, dims):
        rng = np.random.default_rng(42)
        data = Dataset(rng.standard_normal((n,) + dims), rng.choice([-1.0, 1.0], n))
        params = ModelParams(blocks=tuple(rng.standard_normal(d) for d in dims), bias=0.3)
        m = margins(params, data)
        for i in range(n):
            assert m[i] == margins(params, data.subset([i]))[0]

    def test_block_lengths_checked_before_any_sample_byte(self, tmp_path, monkeypatch):
        path, params = self.saved(tmp_path, np.random.default_rng(43), 4, (3, 2))
        other = ModelParams(blocks=(np.ones(2), np.ones(3)), bias=0.0)
        with DatasetStream(path) as stream:
            monkeypatch.setattr(stream, "chunks", lambda: pytest.fail("read samples"))
            with pytest.raises(ValueError, match="do not match sample dims"):
                margins(other, stream)
