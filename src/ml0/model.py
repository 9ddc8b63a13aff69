"""Multilinear sparse logistic regression: objective, gradients, step-size bounds.

The model scores an order-p sample by contracting it with one weight vector
per mode and adding a bias. Training minimizes the logistic loss plus a
blockwise ridge term, subject to a hard sparsity cap per block (at most s_i
nonzeros), which enters the objective as an indicator: feasible points score
the smooth loss, infeasible points score +inf.
"""

import math
from dataclasses import dataclass

import numpy as np

from .data import _check_in_memory
from .kernels import _stacked, contract_down
from .tensor import DenseTensor, _check_integer, _frozen, _row_dots, _support, contract_full

SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class ModelParams:
    """Weight blocks (one read-only vector per tensor mode) plus a scalar bias."""

    blocks: tuple
    bias: float

    def __post_init__(self):
        blocks = tuple(self.blocks)
        if not blocks or any(np.ndim(b) != 1 for b in blocks):
            raise ValueError("need one or more weight blocks, each a vector")
        if not np.isfinite(self.bias):
            raise ValueError("bias must be finite")
        object.__setattr__(self, "blocks", _frozen(blocks, 1))
        object.__setattr__(self, "bias", float(self.bias))

    @property
    def order(self):
        return len(self.blocks)

    def block_dims(self):
        return tuple(b.size for b in self.blocks)


@dataclass(frozen=True)
class Problem:
    """Per-block ridge weights and sparsity caps, plus the step-size inflation factor."""

    ridge: tuple
    sparsity: tuple
    gamma: float = 1.5

    def __post_init__(self):
        ridge = tuple(float(r) for r in self.ridge)
        sparsity = _check_caps(self.sparsity)
        if len(ridge) != len(sparsity):
            raise ValueError(f"{len(ridge)} ridge weights for {len(sparsity)} sparsity caps")
        if not all(0.0 <= r < math.inf for r in ridge):  # NaN too
            raise ValueError(f"ridge weights (lambda) must be nonnegative and finite, got {ridge}")
        if not 1.0 < self.gamma < math.inf:  # an infinite gamma makes every step size infinite
            raise ValueError(f"gamma must exceed 1 and be finite, got {self.gamma}")
        object.__setattr__(self, "ridge", ridge)
        object.__setattr__(self, "sparsity", sparsity)
        object.__setattr__(self, "gamma", float(self.gamma))


def _check_caps(sparsity, dims=None):
    """The caps as a tuple of ints, each an integer >= 1; given the block
    lengths `dims`, also one cap per block and none above its block."""
    caps = tuple(_check_integer(f"sparsity[{i}]", s, 1) for i, s in enumerate(sparsity))
    if dims is not None:
        if len(caps) != len(dims):
            raise ValueError(f"{len(caps)} sparsity caps for {len(dims)} blocks")
        if any(s > d for s, d in zip(caps, dims)):
            raise ValueError(f"sparsity caps {caps} exceed block lengths {tuple(dims)}")
    return caps


def _check_shapes(blocks, data, problem=None):
    dims = tuple(b.size for b in blocks)
    if dims != data.feature_dims:
        raise ValueError(f"block lengths {dims} do not match sample dims {data.feature_dims}")
    if problem is not None:
        _check_caps(problem.sparsity, dims)


def margin_batch(X, blocks, bias):
    """Margins f(X_s) = <X_s, w_1 x ... x w_p> + b for a stacked sample array."""
    return contract_down(X, blocks) + bias


def grad_direction_batch(X, blocks, skip):
    """Rows are the per-sample gradient directions of the multilinear form
    with respect to block `skip` (all other modes contracted away)."""
    return contract_down(X, blocks, skip).reshape(X.shape[0], -1)


def _dloss_dmargin(m):
    """Derivative of log(1 + exp(-m)) in m, computed without overflow."""
    e = np.exp(-np.abs(m))
    d = 1.0 + e
    return np.where(m >= 0, -e / d, -1.0 / d)


def loss_coefficients(margins, labels):
    """Per-sample factor c_s = -y_s * sigmoid(-y_s f_s) multiplying the
    gradient direction in every partial derivative of the smooth loss."""
    return labels * _dloss_dmargin(labels * margins)


def logistic_terms(margins, labels):
    """Stable per-sample values of log(1 + exp(-y*f))."""
    m = labels * margins
    return np.log1p(np.exp(-np.abs(m))) + np.maximum(0.0, -m)


def ridge_term(blocks, ridge):
    return sum(0.5 * lam * float(np.dot(b, b)) for lam, b in zip(ridge, blocks))


def predict(params: ModelParams, x: DenseTensor) -> float:
    """Margin for a single sample, a `DenseTensor`: multilinear form plus bias."""
    return contract_full(x, params.blocks) + params.bias


def margins(params: ModelParams, data) -> np.ndarray:
    """Margins for every sample of a `Dataset` or of an open `DatasetStream`.

    The block lengths are checked before any sample byte is read.
    `data._read` cuts the samples into the ranges of `kernels._ranges`: one
    per usable core from `kernels._SPLIT_MIN_PASS` elements in all, else
    one. Each range runs on a thread of its own, the first on this one, and
    hands its chunks to a product that contracts each with the last block
    while in cache into its rows of the partial P; it calls only private
    helpers and numpy. After every thread has joined, the first fault in
    file order is raised, and `margin_batch` contracts P with the other
    blocks and adds the bias. Every sample gets its own products, so its
    margin has the same bits however the samples are chunked or cut into
    ranges, and below `tensor._GATHER_MIN_SAMPLE` elements per sample the
    bits of the solver's margin at the same point.

    A stream's chunk is checked through those products: only a chunk with a
    non-finite product is scanned, entry by entry, and a non-finite entry
    raises FormatError at its offset; a chunk of finite entries whose
    products overflowed keeps them. This relies on IEEE 754 arithmetic and
    on a product that multiplies and sums every term, as numpy's `matmul`
    does on OpenBLAS: a NaN or inf entry then makes its row's product NaN
    or inf whatever the weight (NaN*0 and inf*0 are NaN). Invalid
    operations in a range's products do not warn; overflows do.

    From `tensor._GATHER_MIN_SAMPLE` elements per sample, each row of a
    chunk is contracted with the last block in a product of its own
    (`tensor._row_dots`), and after the join P keeps only the rows the
    leading blocks select (`tensor._support`) and is contracted with the
    blocks on their supports: the products `tensor.contract_full` gives a
    sample from its selected rows alone. A pass reads every row anyway, and
    the row products cost less than gathering the rows chunk by chunk. An
    empty support makes every margin the bias; the pass is the same, so a
    stream's samples are still checked, through their products.
    """
    _check_shapes(params.blocks, data)
    w = params.blocks[-1]
    rows, rest = _support(params.blocks, math.prod(data.feature_dims))
    P = np.empty((data.n,) + data.feature_dims[:-1])
    product = _stacked if rows is None else _row_dots

    def contract(lo, chunk):
        out = P[lo : lo + len(chunk)]
        product(chunk, w, out)
        return out

    data._read(contract)
    if rest is None:
        return np.zeros(data.n) + params.bias
    if rows is not None:
        P = P.reshape(data.n, -1).take(rows, axis=1).reshape((data.n,) + tuple(v.size for v in rest))
    return margin_batch(P, rest, params.bias)


def smooth_loss_from_margins(margins, labels, blocks, ridge) -> float:
    """Logistic loss summed over the samples of the given margins, plus the
    blockwise ridge term."""
    return float(logistic_terms(margins, labels).sum()) + ridge_term(blocks, ridge)


def smooth_loss(params: ModelParams, data, problem: Problem) -> float:
    """Logistic loss over the dataset plus the blockwise ridge term."""
    _check_shapes(params.blocks, data, problem)
    return smooth_loss_from_margins(margins(params, data), data.y, params.blocks, problem.ridge)


def is_feasible(blocks, sparsity) -> bool:
    return all(np.count_nonzero(b) <= s for b, s in zip(blocks, sparsity))


def objective_from_margins(margins, labels, blocks, ridge, sparsity) -> float:
    """Objective from the margins of every sample: +inf if a block breaks its
    sparsity cap, otherwise the logistic loss sum plus the ridge term."""
    if not is_feasible(blocks, sparsity):
        return math.inf
    return smooth_loss_from_margins(margins, labels, blocks, ridge)


def objective(params: ModelParams, data, problem: Problem) -> float:
    """Smooth loss if every block satisfies its sparsity cap, +inf otherwise."""
    _check_shapes(params.blocks, data, problem)
    return objective_from_margins(
        margins(params, data), data.y, params.blocks, problem.ridge, problem.sparsity
    )


def block_step(G, w, bias, labels, lam, gamma):
    """Partial gradient and step-size constant of block w, from its direction
    matrix G (one row g_s per sample, as `grad_direction_batch` returns it)
    and the bias. Returns (gradient, tau) with the step-size constant
    tau = gamma * (sqrt(2) * sum((||g_s|| + 1)^2) + lam)."""
    c = loss_coefficients(G @ w + bias, labels)
    grad = G.T @ c + lam * w
    row_norms = np.sqrt((G * G).sum(axis=1))
    return grad, gamma * (SQRT2 * float(((row_norms + 1.0) ** 2).sum()) + lam)


def _block_step_at(params, data, problem, j, name):
    if not 0 <= j < params.order:
        raise IndexError(f"block index {j} out of range for {params.order} blocks")
    _check_in_memory(data, name)
    _check_shapes(params.blocks, data, problem)
    G = grad_direction_batch(data.X, params.blocks, j)
    return block_step(G, params.blocks[j], params.bias, data.y, problem.ridge[j], problem.gamma)


def grad_block(params: ModelParams, data, problem: Problem, j: int) -> np.ndarray:
    """Partial gradient of the smooth loss with respect to block j."""
    return _block_step_at(params, data, problem, j, "grad_block")[0]


def grad_bias(params: ModelParams, data) -> float:
    """Partial derivative of the smooth loss with respect to the bias."""
    m = margins(params, data)
    return float(np.sum(loss_coefficients(m, data.y)))


def lipschitz_block(params: ModelParams, data, problem: Problem, j: int) -> float:
    """Smoothness bound for block j at the current values of the other blocks.

    The bound depends on the per-sample gradient-direction norms, so it must
    be recomputed whenever any other block changes.
    """
    return _block_step_at(params, data, problem, j, "lipschitz_block")[1]


def lipschitz_bias(data, problem: Problem) -> float:
    """Curvature bound for the bias: the logistic loss has |d2H/db2| <= n/4."""
    return problem.gamma * data.n / 4.0
