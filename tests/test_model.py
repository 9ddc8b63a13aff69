import contextlib
import inspect
import io
import json
import math
import os
import struct
import threading
import time
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

import ml0.cli
import ml0.data
import ml0.kernels
import ml0.model
import ml0.tensor
from ml0 import (
    Dataset,
    DatasetStream,
    DenseTensor,
    FormatError,
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
    save_params,
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

    @pytest.mark.parametrize("dims", [(2, 3, 4), (20, 30, 28)], ids=["below", "above"])
    def test_blocks_off_the_sample_name_the_mismatch(self, dims):
        """Below and above the gather cutoff, a `ModelParams` with one block
        too few or too many, or a block of the wrong length, raises the same
        message, also where a zero leading block would make the margin 0."""
        assert (math.prod(dims) >= ml0.tensor._GATHER_MIN_SAMPLE) == (dims[0] == 20)
        x = DenseTensor(np.ones(dims))
        a, b, c = dims
        for blocks in [(np.ones(a), np.ones(b)),
                       (np.ones(a), np.ones(b), np.ones(c), np.ones(1)),
                       (np.ones(a), np.ones(c), np.ones(b)),
                       (np.ones(a), np.ones(b), np.ones(c + 1)),
                       (np.zeros(a), np.ones(b), np.ones(c + 1))]:
            params = ModelParams(blocks=blocks, bias=0.0)
            shapes = [w.shape for w in blocks]
            with pytest.raises(ValueError) as err:
                predict(params, x)
            assert str(err.value) == f"block shapes {shapes} do not match sample dims {dims}"

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


    def test_zero_params_give_n_log2_above_the_gather_cutoff(self):
        """Zero blocks have empty supports: every margin is the bias, and the
        samples are still read and checked."""
        rng = np.random.default_rng(1)
        dims = (130, 130)
        assert math.prod(dims) >= ml0.tensor._GATHER_MIN_SAMPLE
        data = Dataset(rng.standard_normal((7,) + dims), rng.choice([-1.0, 1.0], 7))
        params = ModelParams(blocks=(np.zeros(130), np.zeros(130)), bias=0.0)
        problem = Problem(ridge=(0.0, 0.0), sparsity=dims)
        np.testing.assert_allclose(
            smooth_loss(params, data, problem), 7 * math.log(2), rtol=1e-14
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
        ((1.0,), (3,), "1 sparsity caps for 2 blocks"),
        ((1.0,) * 3, (3,) * 3, "3 sparsity caps for 2 blocks"),
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
        ((1.0, 1.0), (3,), 1.5, "2 ridge weights for 1 sparsity caps"),
        ((1.0, -1e-9), (3, 3), 1.5, "nonnegative"),
        ((1.0, 1.0), (3, 0), 1.5, ">= 1"),
        ((1.0, 1.0), (3, -2), 1.5, ">= 1"),
        ((1.0, 1.0), (3, 3), 1.0, "gamma must exceed 1"),
        ((1.0, 1.0), (3, 3), 0.5, "gamma must exceed 1"),
        ((1.0, 1.0), (3, 3), math.nan, "gamma must exceed 1"),
        ((1.0, math.nan), (3, 3), 1.5, r"ridge weights \(lambda\) must be nonnegative and finite"),
        ((math.inf, 1.0), (3, 3), 1.5, r"ridge weights \(lambda\) must be nonnegative and finite"),
        ((1.0, 1.0), (3, 3), math.inf, "gamma must exceed 1 and be finite, got inf"),
    ], ids=["length-mismatch", "negative-ridge", "zero-cap", "negative-cap", "gamma-one",
            "gamma-below-one", "gamma-nan", "ridge-nan", "ridge-inf", "gamma-inf"])
    def test_invalid_problem_rejected(self, ridge, sparsity, gamma, match):
        with pytest.raises(ValueError, match=match):
            Problem(ridge=ridge, sparsity=sparsity, gamma=gamma)

    @pytest.mark.parametrize("cap", [2.7, 3.0, np.float64(3.0), True, np.True_, "3", None])
    def test_non_integer_cap_rejected(self, cap):
        with pytest.raises(ValueError, match=r"sparsity\[0\] must be an integer, got "):
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

    @pytest.mark.parametrize("n, dims, ranges", [(5, (300, 300), 1), (7, (40, 30, 20), 2)],
                             ids=["one-sample-over-a-chunk", "above-split-cutoff"])
    def test_bitwise_equal_for_large_samples(self, tmp_path, monkeypatch, n, dims, ranges):
        """300x300 samples exceed one default chunk, so each chunk holds one
        sample; 40x30x20 ones, with the cutoff at their pass, are cut into
        one range per core, in memory and streamed in two-sample chunks."""
        monkeypatch.setattr(ml0.kernels, "_usable_cores", lambda: 2)
        if ranges > 1:
            monkeypatch.setattr(ml0.kernels, "_SPLIT_MIN_PASS", n * math.prod(dims))
        assert len(ml0.kernels._ranges(n, math.prod(dims))) - 1 == ranges
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
            monkeypatch.setattr(stream, "_read", lambda product: pytest.fail("read samples"))
            with pytest.raises(ValueError, match="do not match sample dims"):
                margins(other, stream)

    @pytest.mark.parametrize("read", [
        margins,
        lambda params, data: objective(params, data, Problem((2e-4, 2e-4), (3, 2))),
        lambda params, data: smooth_loss(params, data, Problem((2e-4, 2e-4), (3, 2))),
        grad_bias,
    ], ids=["margins", "objective", "smooth_loss", "grad_bias"])
    def test_stream_readers_spend_the_one_pass(self, tmp_path, read):
        """README names these four as the public functions that take a stream."""
        path, params = self.saved(tmp_path, np.random.default_rng(45), 4, (3, 2))
        with DatasetStream(path) as stream:
            got = read(params, stream)
            with pytest.raises(ValueError, match="stream was already read"):
                read(params, stream)
        assert np.array_equal(got, read(params, load_dataset(path)))

    @pytest.mark.parametrize("step", [grad_block, lipschitz_block])
    def test_block_steps_refuse_a_stream_before_any_sample_byte(self, tmp_path, monkeypatch,
                                                                 step):
        """Both read the sample array of an in-memory Dataset; a stream made
        them raise AttributeError naming `X`."""
        path, params = self.saved(tmp_path, np.random.default_rng(44), 4, (3, 2))
        problem = Problem(ridge=(2e-4, 2e-4), sparsity=(3, 2))
        with DatasetStream(path) as stream:
            monkeypatch.setattr(stream, "_read", lambda product: pytest.fail("read samples"))
            with pytest.raises(TypeError, match=r"need an in-memory Dataset \(for example from "
                                                r"ml0\.load_dataset\), got DatasetStream$"):
                step(params, stream, problem, 0)
            monkeypatch.undo()
            m = margins(params, stream)  # the stream's one pass is still unspent
        assert m.tobytes() == margins(params, load_dataset(path)).tobytes()


class TestRangedPass:
    """Above `kernels._SPLIT_MIN_PASS` elements, `margins` and `load_dataset`
    cut the samples into one range per usable core, each read, checked and
    contracted on a thread of its own. The tests patch the cutoff, the core
    count and the chunk size low, so small files take that path."""

    DIMS = (3, 2)  # 48 bytes a sample
    # header: magic 4, version 4, dim count 4, dims 16, sample count 8
    HEAD = 36

    @pytest.fixture
    def ranged(self, monkeypatch):
        monkeypatch.setattr(ml0.kernels, "_SPLIT_MIN_PASS", 1)
        monkeypatch.setattr(ml0.kernels, "_usable_cores", lambda: 2)
        monkeypatch.setattr(ml0.data, "_FINITE_BLOCK", math.prod(self.DIMS))  # a sample a chunk

    @pytest.fixture
    def opened(self, monkeypatch):
        """Every handle ml0.data opens; the first of each file can be wrapped."""
        handles, wrap = [], {}
        real_open = open

        def recording(file, *args):
            fh = real_open(file, *args)
            handles.append(fh)
            first = sum(1 for h in handles if h.name == fh.name) == 1
            return wrap[str(file)](fh) if first and str(file) in wrap else fh

        monkeypatch.setattr(ml0.data, "open", recording, raising=False)
        return handles, wrap

    def saved(self, tmp_path, X, name="t.ml0t"):
        path = tmp_path / name
        path.write_bytes(b"ML0T" + struct.pack("<II2Q", 1, 2, *self.DIMS)
                         + struct.pack("<Q", len(X))
                         + np.where(np.arange(len(X)) % 2, -1, 1).astype("<i1").tobytes()
                         + X.astype("<f8").tobytes())
        return path

    def params(self, rng):
        return ModelParams(blocks=tuple(rng.standard_normal(d) for d in self.DIMS), bias=0.5)

    @pytest.mark.parametrize("cores", [2, 3])
    @pytest.mark.parametrize("chunk", [1, 2, 4])
    def test_stream_and_load_equal_one_range_bitwise(self, tmp_path, monkeypatch, cores, chunk):
        """n = 4..13 never divides evenly by every range count and chunk."""
        rng = np.random.default_rng(50)
        params = self.params(rng)
        monkeypatch.setattr(ml0.data, "_FINITE_BLOCK", chunk * math.prod(self.DIMS))
        monkeypatch.setattr(ml0.kernels, "_usable_cores", lambda: cores)
        for n in range(4, 14):
            X = rng.standard_normal((n,) + self.DIMS)
            path = self.saved(tmp_path, X)
            monkeypatch.setattr(ml0.kernels, "_SPLIT_MIN_PASS", 1 << 62)
            with DatasetStream(path) as stream:
                want = margins(params, stream)
            monkeypatch.setattr(ml0.kernels, "_SPLIT_MIN_PASS", 1)
            assert len(ml0.kernels._ranges(n, X[0].size)) - 1 == min(cores, n // 2)
            ds = load_dataset(path)
            assert ds.X.tobytes() == X.tobytes()
            with DatasetStream(path) as stream:
                assert margins(params, stream).tobytes() == want.tobytes()
            assert margins(params, ds).tobytes() == want.tobytes()

    @pytest.mark.parametrize("read", ["stream", "load"])
    def test_first_fault_in_file_order_wins(self, tmp_path, ranged, opened, read):
        """Range 1 reads short at sample 2 and ends after range 2 has met a
        NaN at sample 6: range 1's error is raised, at the offset where its
        read stopped, as one range raises it."""
        rng = np.random.default_rng(51)
        X = rng.standard_normal((9,) + self.DIMS)  # ranges [0, 4) and [4, 9)
        X[6, 1, 0] = np.nan
        path = self.saved(tmp_path, X)
        start = self.HEAD + 9  # after the labels
        _, wrap = opened

        class ShortLate:
            """Reads from sample 2 on stop halfway, after the other range has
            had time to fail."""

            def __init__(self, fh):
                self.fh = fh

            def __getattr__(self, name):
                return getattr(self.fh, name)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def readinto(self, buf):
                view = memoryview(buf)
                if self.fh.tell() < start + 2 * 48:
                    return self.fh.readinto(view)
                time.sleep(0.1)
                return self.fh.readinto(view[: len(view) // 2])

        wrap[str(path)] = ShortLate
        want = FormatError(f"{path}: truncated while reading sample data", start + 2 * 48 + 24)
        before = threading.active_count()
        with pytest.raises(FormatError) as err:
            if read == "load":
                load_dataset(path)
            else:
                with DatasetStream(path) as stream:
                    margins(self.params(rng), stream)
        assert str(err.value) == str(want) and err.value.offset == want.offset
        assert threading.active_count() == before

    def test_a_later_range_raises_when_the_first_reads_clean(self, tmp_path, ranged):
        rng = np.random.default_rng(52)
        X = rng.standard_normal((9,) + self.DIMS)
        X[6, 1, 0] = np.inf
        path = self.saved(tmp_path, X)
        offset = self.HEAD + 9 + 8 * (6 * 6 + 1 * 2 + 0)
        message = f"{path}: non-finite value inf in sample data (byte offset {offset})"
        with pytest.raises(FormatError) as err:
            load_dataset(path)
        assert str(err.value) == message and err.value.offset == offset
        with DatasetStream(path) as stream, pytest.raises(FormatError) as err:
            margins(self.params(rng), stream)
        assert str(err.value) == message and err.value.offset == offset

    def test_trailing_bytes_are_checked_by_the_last_range(self, tmp_path, ranged):
        rng = np.random.default_rng(53)
        path = self.saved(tmp_path, rng.standard_normal((9,) + self.DIMS))
        end = path.stat().st_size
        path.write_bytes(path.read_bytes() + b"\x00" * 3)
        with pytest.raises(FormatError, match="trailing bytes") as err:
            load_dataset(path)
        assert err.value.offset == end
        with DatasetStream(path) as stream, pytest.raises(FormatError, match="trailing") as err:
            margins(self.params(rng), stream)
        assert err.value.offset == end

    def test_threads_and_handles_end_with_the_call(self, tmp_path, ranged, opened, monkeypatch):
        """One thread and one handle per range beyond the first, all ended and
        closed when the call returns or raises. No range splits its chunks
        again, with the split cutoff at 1: every thread is started by the
        calling thread (the two beyond the ranges' come from contracting the
        partial with the first block after the join)."""
        monkeypatch.setattr(ml0.kernels, "_usable_cores", lambda: 3)
        monkeypatch.setattr(ml0.data, "_FINITE_BLOCK", 4 * math.prod(self.DIMS))
        handles, _ = opened
        started = []
        start = threading.Thread.start

        def counting_start(thread):
            started.append((thread, threading.current_thread()))
            return start(thread)

        monkeypatch.setattr(threading.Thread, "start", counting_start)
        rng = np.random.default_rng(54)
        X = rng.standard_normal((24,) + self.DIMS)  # ranges of 8: two 4-sample chunks each
        good = self.saved(tmp_path, X)
        X[20, 0, 1] = np.nan
        bad = self.saved(tmp_path, X, "bad.ml0t")
        before = threading.active_count()
        for path, fails in ((good, False), (bad, True)):
            for read in ("stream", "load"):
                del handles[:], started[:]
                try:
                    if read == "load":
                        load_dataset(path)
                    else:
                        with DatasetStream(path) as stream:
                            margins(self.params(rng), stream)
                except ValueError:
                    assert fails
                else:
                    assert not fails
                assert len(started) == (4 if read == "stream" and not fails else 2)
                assert all(by is threading.main_thread() for _, by in started)
                assert len(handles) == 3 and all(fh.closed for fh in handles)
                assert not any(t.is_alive() for t, _ in started)
                assert threading.active_count() == before

    def test_a_desk_size_eval_starts_no_thread(self, tmp_path, monkeypatch):
        started = []
        monkeypatch.setattr(threading.Thread, "start", lambda t: started.append(t))
        monkeypatch.setattr(ml0.kernels, "_usable_cores", lambda: 4)
        rng = np.random.default_rng(55)
        n, dims = 160, (30, 30)
        assert n * math.prod(dims) < ml0.kernels._SPLIT_MIN_PASS
        path = tmp_path / "desk.ml0t"
        save_dataset(Dataset(rng.standard_normal((n,) + dims), np.where(np.arange(n) % 2, -1.0, 1.0)),
                     path)
        params = ModelParams(blocks=tuple(rng.standard_normal(d) for d in dims), bias=0.0)
        with DatasetStream(path) as stream:
            margins(params, stream)
        margins(params, load_dataset(path))
        assert started == []

    def test_a_replaced_file_is_refused(self, tmp_path, ranged):
        """A range opens its own handle by path; a file swapped in under the
        path after the stream was opened is refused, not read."""
        rng = np.random.default_rng(56)
        X = rng.standard_normal((9,) + self.DIMS)
        path = self.saved(tmp_path, X)
        with DatasetStream(path) as stream:
            other = self.saved(tmp_path, X, "other.ml0t")
            os.replace(other, path)
            with pytest.raises(FormatError, match="file changed while reading sample data") as err:
                margins(self.params(rng), stream)
        assert err.value.offset == self.HEAD + 9 + 4 * 48

    def test_range_threads_call_no_public_function(self, tmp_path, ranged, monkeypatch):
        """A range's thread calls only private helpers and numpy, so a
        single-threaded wrapper around the public functions (such as a span
        tracer) sees every call on the calling thread."""
        layers = ("cli", "data", "model", "kernels", "tensor", "metrics")
        modules = [ml0, *(getattr(ml0, name) for name in layers)]
        threads, wrappers = [], {}
        for mod in modules[1:]:
            for attr, fn in vars(mod).items():
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__ and attr[0] != "_":
                    def wrapper(*args, _fn=fn, **kwargs):
                        threads.append(threading.current_thread())
                        return _fn(*args, **kwargs)
                    wrappers[fn] = wrapper
        for mod in modules:
            for attr, fn in list(vars(mod).items()):
                if inspect.isfunction(fn) and fn in wrappers:
                    monkeypatch.setattr(mod, attr, wrappers[fn])
        rng = np.random.default_rng(58)
        path = self.saved(tmp_path, rng.standard_normal((9,) + self.DIMS))
        save_params(self.params(rng), tmp_path / "w.ml0w")
        (tmp_path / "w.ml0w.json").write_text('{"lambda": [0.0, 0.0], "sparsity": [3, 2]}')
        started = []
        start = threading.Thread.start
        monkeypatch.setattr(threading.Thread, "start", lambda t: started.append(t) or start(t))
        with contextlib.redirect_stdout(io.StringIO()):
            assert ml0.cli.main(["eval", str(tmp_path / "w.ml0w"), str(path)]) == 0
        load_dataset(path)
        # A thread for each second range: the eval's read, its contraction of
        # the partial with the first block, and the load.
        assert len(started) == 3 and len(threads) > 4
        assert all(t is threading.main_thread() for t in threads)


def sparse_blocks(rng, dims, support):
    """Weight blocks with about 30% of each block nonzero (at least one
    entry), the first block made whole ("whole") or zero ("empty")."""
    blocks = []
    for d in dims:
        w = rng.standard_normal(d)
        w[rng.random(d) >= 0.3] = 0.0
        w[rng.integers(d)] = 1.5
        blocks.append(w)
    if support == "whole":
        blocks[0] = rng.standard_normal(dims[0])
    elif support == "empty":
        blocks[0] = np.zeros(dims[0])
    return blocks


class TestGatheredSupport:
    """From `tensor._GATHER_MIN_SAMPLE` elements a sample is scored from the
    rows its leading weight blocks select, by `predict` and by `margins`
    alike, so the two agree bitwise on either side of the cutoff."""

    @pytest.mark.parametrize("support", ["sparse", "whole", "empty"])
    @pytest.mark.parametrize("dims", [(7,), (20000,), (30, 30), (130, 130), (200, 200),
                                      (3, 20000), (20000, 3), (4, 5, 6), (30, 30, 30)],
                             ids=lambda dims: "x".join(map(str, dims)))
    def test_predict_equals_margins_bitwise(self, tmp_path, monkeypatch, dims, support):
        """In memory and streamed, in one range and two, in chunks of 1, 2
        and 4 samples and the default; both against a from-scratch einsum,
        within 1e-13 of the sum of the absolute terms."""
        rng = np.random.default_rng(math.prod(dims))
        n, size = 5, math.prod(dims)
        X = rng.standard_normal((n,) + dims)
        ds = Dataset(X, np.where(np.arange(n) % 2, -1.0, 1.0))
        params = ModelParams(blocks=tuple(sparse_blocks(rng, dims, support)), bias=0.25)
        want = np.array([predict(params, ds.sample(i)) for i in range(n)])
        modes = "abc"[: len(dims)]
        form = f"n{modes},{','.join(modes)}->n"
        ref = np.einsum(form, X, *params.blocks) + params.bias
        scale = np.einsum(form, np.abs(X), *map(np.abs, params.blocks)) + abs(params.bias)
        assert np.all(np.abs(want - ref) <= 1e-13 * scale)
        path = tmp_path / "d.ml0t"
        save_dataset(ds, path)
        monkeypatch.setattr(ml0.kernels, "_usable_cores", lambda: 2)
        for ranges, cutoff in ((1, 1 << 62), (2, 1)):
            monkeypatch.setattr(ml0.kernels, "_SPLIT_MIN_PASS", cutoff)
            assert len(ml0.kernels._ranges(n, size)) - 1 == ranges
            for chunk in (1, 2, 4, None):
                monkeypatch.setattr(ml0.data, "_FINITE_BLOCK",
                                    chunk * size if chunk else ml0.tensor._FINITE_BLOCK)
                assert margins(params, ds).tobytes() == want.tobytes(), (ranges, chunk)
                with DatasetStream(path) as stream:
                    assert margins(params, stream).tobytes() == want.tobytes(), (ranges, chunk)

    def test_default_cutoff_gathers_only_large_samples(self, monkeypatch):
        """30x30 samples (desk and score scale) and 127x128 ones (16,256
        elements) are read whole; 128x128 (16,384) and 200x200 ones are scored
        by `predict` from the rows the first block selects, and by `margins`
        from a product per row."""
        row_dots = []
        dots = ml0.tensor._row_dots

        def recording(arr, v, out=None):
            row_dots.append(arr.shape)
            return dots(arr, v, out)

        monkeypatch.setattr(ml0.tensor, "_row_dots", recording)
        monkeypatch.setattr(ml0.model, "_row_dots", recording)
        rng = np.random.default_rng(60)
        for dims, gathers in (((30, 30), False), ((127, 128), False), ((128, 128), True),
                              ((200, 200), True)):
            del row_dots[:]
            ds = Dataset(rng.standard_normal((3,) + dims), [1.0, -1.0, 1.0])
            w1 = np.zeros(dims[0])
            w1[: dims[0] // 3] = 1.0
            params = ModelParams(blocks=(w1, rng.standard_normal(dims[1])), bias=0.0)
            assert predict(params, ds.sample(0)) == margins(params, ds)[0]
            assert row_dots == ([(dims[0] // 3, dims[1]), (3,) + dims] if gathers else [])

    def test_in_memory_peak_is_the_partial(self):
        """Above the cutoff `margins` gathers no sample rows: its traced peak
        is the partial P, its selected rows and a few vectors of n."""
        rng = np.random.default_rng(61)
        n, dims, selected = 60, (130, 130), 30
        ds = Dataset(rng.standard_normal((n,) + dims), np.where(np.arange(n) % 2, -1.0, 1.0))
        w1 = np.zeros(dims[0])
        w1[rng.choice(dims[0], selected, replace=False)] = rng.standard_normal(selected)
        params = ModelParams(blocks=(w1, rng.standard_normal(dims[1])), bias=0.0)
        assert len(ml0.kernels._ranges(n, math.prod(dims))) == 2
        want = margins(params, ds)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            m = margins(params, ds)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert m.tobytes() == want.tobytes()
        partial = 8 * n * dims[0]
        assert peak <= partial + 8 * n * selected + (16 << 10), peak


def write_samples(path, X, y=None):
    """A dataset file packed by hand, so it may hold non-finite or huge
    samples; returns the byte offset of its sample data."""
    dims = X.shape[1:]
    y = np.where(np.arange(len(X)) % 2, -1, 1) if y is None else np.asarray(y)
    head = (b"ML0T" + struct.pack(f"<II{len(dims)}Q", 1, len(dims), *dims)
            + struct.pack("<Q", len(X)) + y.astype("<i1").tobytes())
    path.write_bytes(head + X.astype("<f8").tobytes())
    return len(head)


def first_fault(path, X, start):
    """The error and offset of the first non-finite entry of X in file order,
    for a file whose sample data starts at byte `start`."""
    flat = X.reshape(-1)
    i = int(np.flatnonzero(~np.isfinite(flat))[0])
    offset = start + 8 * i
    return f"{path}: non-finite value {flat[i]} in sample data (byte offset {offset})", offset


class TestCheckedThroughProducts:
    """`margins` over a stream checks each chunk through the products it
    contracts the chunk into, and scans a chunk entry by entry only when a
    product is not finite. Under IEEE 754 a NaN or inf entry makes the
    product of its row NaN or inf whatever the weights (NaN*0 and inf*0 are
    NaN), so the pass fails where an entry-by-entry check fails: at the first
    non-finite entry in file order, naming the file and the entry's offset.
    A chunk whose finite entries overflow in a product keeps its products."""

    @staticmethod
    def leading(rng, d):
        """A block with zeros and at least one nonzero, so a sample above the
        gather cutoff is scored from some of its rows."""
        w = rng.standard_normal(d) * (rng.random(d) < 0.6)
        w[rng.integers(d)] = 1.0
        return w

    @pytest.mark.parametrize("ranges", [1, 2])
    @pytest.mark.parametrize("gather", ["below", "above"])
    def test_a_bad_entry_fails_where_an_entry_check_fails(self, tmp_path, monkeypatch, ranges,
                                                          gather):
        """NaN, +inf and -inf at random positions and at positions the last
        block weighs 0, with a last block that has zeros and one that is 0
        everywhere; orders 1-3, d_p 1-40, 130 and 200, 1 to 30 rows a sample;
        sometimes a second bad entry later. `margins` over a stream,
        `load_dataset` and a from-scratch scan name the same entry."""
        monkeypatch.setattr(ml0.kernels, "_usable_cores", lambda: 2)
        monkeypatch.setattr(ml0.kernels, "_SPLIT_MIN_PASS", 1 if ranges == 2 else 1 << 62)
        monkeypatch.setattr(ml0.tensor, "_GATHER_MIN_SAMPLE", 1 if gather == "above" else 1 << 62)
        rng = np.random.default_rng(70 + 2 * ranges + (gather == "above"))
        n, path, cases = 5, tmp_path / "bad.ml0t", 0
        for d in [*range(1, 41), 130, 200]:
            a = int(rng.integers(1, 6))
            for lead in ((), (int(rng.integers(1, 31)),), (a, int(rng.integers(1, 30 // a + 1)))):
                dims = lead + (d,)
                assert len(ml0.kernels._ranges(n, math.prod(dims))) - 1 == ranges
                monkeypatch.setattr(ml0.data, "_FINITE_BLOCK", 2 * math.prod(dims))  # 2 samples a chunk
                blocks = [self.leading(rng, k) for k in lead]
                last = rng.standard_normal(d) * (rng.random(d) < 0.5)
                for w in (last, np.zeros(d)):
                    params = ModelParams(blocks=(*blocks, w), bias=0.5)
                    zero = np.flatnonzero(w == 0.0)
                    for bad in (np.nan, np.inf, -np.inf):
                        for at_zero in (False, True):
                            X = rng.standard_normal((n,) + dims)
                            flat = X.reshape(-1)
                            i = int(rng.integers(flat.size))
                            if at_zero and zero.size:
                                i += int(rng.choice(zero)) - i % d
                            flat[i] = bad
                            if rng.random() < 0.5:
                                flat[rng.integers(i, flat.size)] = rng.choice([np.nan, np.inf, -np.inf])
                            start = write_samples(path, X)
                            message, offset = first_fault(path, X, start)
                            with DatasetStream(path) as stream, pytest.raises(FormatError) as err:
                                margins(params, stream)
                            assert (str(err.value), err.value.offset) == (message, offset), dims
                            with pytest.raises(FormatError) as loaded:
                                load_dataset(path)
                            assert (str(loaded.value), loaded.value.offset) == (message, offset)
                            cases += 1
        assert cases == 42 * 3 * 2 * 3 * 2

    @pytest.mark.parametrize("ranges", [1, 2])
    @pytest.mark.parametrize("gather", ["below", "above"])
    def test_an_overflow_keeps_todays_margins_json_and_warnings(self, tmp_path, capsys,
                                                                monkeypatch, ranges, gather):
        """Rows 1 and 2 of sample 1, the rows the first block selects, hold
        finite entries of 1e308 whose products overflow to inf. Its margin is +inf as `predict` gives it; the stream gives the
        in-memory margins bitwise, `ml0 eval` the JSON of the in-memory
        metrics, and each warns once, of the overflow, as a product of the
        same sample alone does."""
        monkeypatch.setattr(ml0.kernels, "_usable_cores", lambda: 2)
        monkeypatch.setattr(ml0.kernels, "_SPLIT_MIN_PASS", 1 if ranges == 2 else 1 << 62)
        monkeypatch.setattr(ml0.tensor, "_GATHER_MIN_SAMPLE", 1 if gather == "above" else 1 << 62)
        monkeypatch.setattr(ml0.data, "_FINITE_BLOCK", 20)  # a sample a chunk
        rng = np.random.default_rng(80)
        n, dims = 6, (4, 5)
        X = rng.standard_normal((n,) + dims)
        X[1, 1:3] = 1e308
        path = tmp_path / "huge.ml0t"
        write_samples(path, X)
        w1 = np.array([0.0, 0.7, 1.2, 0.0])  # a sparse support above the cutoff
        params = ModelParams(blocks=(w1, rng.uniform(0.5, 1.5, dims[1])), bias=0.1)
        model = tmp_path / "w.ml0w"
        save_params(params, model)
        (tmp_path / "w.ml0w.json").write_text(json.dumps({"lambda": [0.0, 0.0], "sparsity": [2, 5]}))
        overflow = [(RuntimeWarning, "overflow encountered in matmul")]

        def warned(call, *args):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                value = call(*args)
            return value, [(w.category, str(w.message)) for w in caught]

        ds = load_dataset(path)
        alone, seen = warned(predict, params, ds.sample(1))
        assert alone == np.inf and seen == overflow
        want, seen = warned(margins, params, ds)
        assert seen == overflow
        with DatasetStream(path) as stream:
            m, seen = warned(margins, params, stream)
        assert m.tobytes() == want.tobytes() and seen == overflow
        assert m[1] == np.inf and np.isfinite(np.delete(m, 1)).all()
        rc, seen = warned(ml0.cli.main, ["eval", str(model), str(path)])
        assert rc == 0 and seen == overflow
        problem = Problem(ridge=(0.0, 0.0), sparsity=(2, 5))
        assert json.loads(capsys.readouterr().out) == {
            "accuracy": accuracy(want, ds.y), "auc": auc(want, ds.y), "n": n,
            "objective": objective_from_margins(want, ds.y, params.blocks, problem.ridge,
                                                problem.sparsity)}

    @pytest.mark.parametrize("ranges", [1, 2])
    def test_an_overflow_into_a_nan_margin_fails_eval_naming_the_file(self, tmp_path, capsys,
                                                                      monkeypatch, ranges):
        """Below the gather cutoff, sample 1 of 1e308 entries overflows in
        every row product, and the zeros of the first block turn those infs
        into a NaN margin (inf*0), as `predict` gives it. `ml0 eval` exits 1
        naming the file, the count of NaN margins and the overflow."""
        monkeypatch.setattr(ml0.kernels, "_usable_cores", lambda: 2)
        monkeypatch.setattr(ml0.kernels, "_SPLIT_MIN_PASS", 1 if ranges == 2 else 1 << 62)
        rng = np.random.default_rng(85)
        X = rng.standard_normal((6, 4, 5))
        X[1] = 1e308
        path = tmp_path / "huge.ml0t"
        write_samples(path, X)
        params = ModelParams(blocks=(np.array([0.0, 0.7, 1.2, 0.0]), rng.uniform(0.5, 1.5, 5)),
                             bias=0.1)
        model = tmp_path / "w.ml0w"
        save_params(params, model)
        (tmp_path / "w.ml0w.json").write_text(json.dumps({"lambda": [0.0, 0.0], "sparsity": [2, 5]}))
        with warnings.catch_warnings(record=True):
            warnings.simplefilter("always")
            assert np.isnan(predict(params, load_dataset(path).sample(1)))
            rc = ml0.cli.main(["eval", str(model), str(path)])
        assert rc == 1
        assert capsys.readouterr().err == (f"error: {path}: 1 of 6 margins are NaN: products of "
                                           "its finite samples overflowed\n")

    @pytest.mark.parametrize("ranges", [1, 2])
    def test_an_overflow_before_a_nan_raises_at_the_nan(self, tmp_path, monkeypatch, ranges):
        """Chunks 0 and 2 overflow in their products and pass the scan; the
        NaN in chunk 4 fails at its offset."""
        monkeypatch.setattr(ml0.kernels, "_usable_cores", lambda: 2)
        monkeypatch.setattr(ml0.kernels, "_SPLIT_MIN_PASS", 1 if ranges == 2 else 1 << 62)
        monkeypatch.setattr(ml0.data, "_FINITE_BLOCK", 6)  # a sample a chunk
        rng = np.random.default_rng(81)
        X = rng.standard_normal((6, 2, 3))
        X[[0, 2]] = 1e308
        X[4, 1, 2] = np.nan
        path = tmp_path / "t.ml0t"
        message, offset = first_fault(path, X, write_samples(path, X))
        params = ModelParams(blocks=(np.ones(2), np.ones(3)), bias=0.0)
        with DatasetStream(path) as stream, pytest.raises(FormatError) as err, \
                pytest.warns(RuntimeWarning, match="overflow"):
            margins(params, stream)
        assert (str(err.value), err.value.offset) == (message, offset)

    def test_the_first_fault_in_file_order_is_raised_across_ranges(self, tmp_path, monkeypatch):
        """Range 0 (samples 0-3) holds a NaN in its last sample where the
        weights are 0, range 1 (samples 4-8) an inf in its first: range 0's
        is raised. With range 0 clean, range 1's is."""
        monkeypatch.setattr(ml0.kernels, "_usable_cores", lambda: 2)
        monkeypatch.setattr(ml0.kernels, "_SPLIT_MIN_PASS", 1)
        monkeypatch.setattr(ml0.data, "_FINITE_BLOCK", 6)
        rng = np.random.default_rng(82)
        params = ModelParams(blocks=(np.ones(2), np.array([1.0, 0.0, 2.0])), bias=0.0)
        for first in (True, False):
            X = rng.standard_normal((9, 2, 3))
            assert ml0.kernels._ranges(len(X), 6) == [0, 4, 9]
            if first:
                X[3, 0, 1] = np.nan
            X[4, 1, 0] = np.inf
            path = tmp_path / "t.ml0t"
            message, offset = first_fault(path, X, write_samples(path, X))
            assert offset == 36 + 9 + 8 * (6 * 3 + 1 if first else 6 * 4 + 3)
            with DatasetStream(path) as stream, pytest.raises(FormatError) as err:
                margins(params, stream)
            assert (str(err.value), err.value.offset) == (message, offset)

    @pytest.mark.parametrize("ranges", [1, 2])
    def test_a_bad_file_warns_nothing(self, tmp_path, monkeypatch, ranges):
        """inf times a weight of 0, and +inf beside -inf in one row, are
        invalid operations inside the product; the pass raises FormatError
        with no RuntimeWarning."""
        monkeypatch.setattr(ml0.kernels, "_usable_cores", lambda: 2)
        monkeypatch.setattr(ml0.kernels, "_SPLIT_MIN_PASS", 1 if ranges == 2 else 1 << 62)
        params = ModelParams(blocks=(np.ones(2), np.array([1.0, 0.0, 2.0])), bias=0.0)
        for cells, values in ((((4, 0, 1),), (np.inf,)), (((5, 1, 0), (5, 1, 2)), (np.inf, -np.inf))):
            X = np.ones((8, 2, 3))
            for cell, value in zip(cells, values):
                X[cell] = value
            path = tmp_path / "t.ml0t"
            message, _ = first_fault(path, X, write_samples(path, X))
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                with DatasetStream(path) as stream, pytest.raises(FormatError, match="non-finite"):
                    margins(params, stream)
            assert caught == []

    @pytest.mark.parametrize("ranges", [1, 2])
    @pytest.mark.parametrize("gather", ["below", "above"])
    def test_an_empty_support_gives_the_bias_after_one_checked_pass(self, tmp_path, monkeypatch,
                                                                    ranges, gather):
        """A zero leading block makes every margin the bias, in memory and
        streamed; above the cutoff its support is empty. The stream still
        reads the file once, with one open per range, and a NaN or inf in
        any row of any sample fails at its offset."""
        monkeypatch.setattr(ml0.kernels, "_usable_cores", lambda: 2)
        monkeypatch.setattr(ml0.kernels, "_SPLIT_MIN_PASS", 1 if ranges == 2 else 1 << 62)
        monkeypatch.setattr(ml0.tensor, "_GATHER_MIN_SAMPLE", 1 if gather == "above" else 1 << 62)
        monkeypatch.setattr(ml0.data, "_FINITE_BLOCK", 2 * 3 * 4 * 5)  # 2 samples a chunk
        rng = np.random.default_rng(84)
        n, dims = 6, (3, 4, 5)
        assert len(ml0.kernels._ranges(n, math.prod(dims))) - 1 == ranges
        X = rng.standard_normal((n,) + dims)
        path = tmp_path / "t.ml0t"
        start = write_samples(path, X)
        fills, opens, real_fill, real_open = [], [], ml0.data._Reader._fill, open

        def fill(reader, buf, what):
            fills.append((reader.off, len(buf)))
            real_fill(reader, buf, what)

        def opening(*args):
            opens.append(args[0])
            return real_open(*args)

        want = np.zeros(n) + 0.5
        for zero in (0, 1):
            blocks = [rng.standard_normal(d) for d in dims]
            blocks[zero] = np.zeros(dims[zero])
            params = ModelParams(blocks=tuple(blocks), bias=0.5)
            if gather == "above":
                assert ml0.tensor._support(params.blocks, X[0].size)[1] is None
            assert margins(params, Dataset(X, np.ones(n))).tobytes() == want.tobytes()
            with monkeypatch.context() as m:
                m.setattr(ml0.data._Reader, "_fill", fill)
                m.setattr(ml0.data, "open", opening, raising=False)
                del fills[:], opens[:]
                with DatasetStream(path) as stream:
                    assert margins(params, stream).tobytes() == want.tobytes()
            assert len(opens) == ranges
            ends = [0] + [at + size for at, size in sorted(fills)]
            assert [at for at, _ in sorted(fills)] == ends[:-1] and ends[-1] == path.stat().st_size
            for row in range(n * dims[0] * dims[1]):
                bad = X.copy()
                bad.reshape(-1, dims[-1])[row, rng.integers(dims[-1])] = rng.choice(
                    [np.nan, np.inf, -np.inf])
                write_samples(path, bad)
                message, offset = first_fault(path, bad, start)
                with DatasetStream(path) as stream, pytest.raises(FormatError) as err:
                    margins(params, stream)
                assert (str(err.value), err.value.offset) == (message, offset)
            write_samples(path, X)
