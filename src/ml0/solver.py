"""Accelerated block proximal solver with adaptive momentum.

Each outer iteration extrapolates every weight block and the bias along the
previous step, keeps the extrapolated point only if it does not increase the
objective, then sweeps the blocks cyclically: one hard-thresholded gradient
step per block with a freshly computed step-size constant, followed by a
plain gradient step on the bias. Every schedule runs that acceptance test and
differs only in its momentum rule (only apalm+ reads t, beta1 and beta_max):

  apalm+  grow the factor by t on acceptance, shrink it by t on rejection
  apalm   classic t_k recursion, restarted from t = 1 on a rejection
          (the function-value restart of O'Donoghue & Candes, FoCM 2015)
  bpgd    no extrapolation (plain block proximal gradient descent)

All of an iteration's contractions of the sample array X derive from one
cached partial P = X x_p w_p (X contracted with the last block) per iterate,
kept for the current and the previous iterate. The mode product is linear,
so P at the extrapolated point is P_cur + beta (P_cur - P_prev) and the
extrapolation test reads no X; the sweep takes the directions of blocks
1..p-1 from P at its base point and reads X once, for the last block's
direction, and once more after its last block, for the new iterate's P.
Every margin of the new iterate (the bias step's, the recorded
objective's and the stop test's) comes from that P, as `ml0.objective`'s
do, and the stop test reuses the last direction, so it reads no X. That is
two passes over X per iteration at order p >= 2, and one at order 1, where
the direction is X itself.

Both passes go through one seam, `_Passes`. Once a sample is large enough
that scoring reads only its selected rows (`tensor._gathers`), each pass
contracts a compact copy of X that holds only the slabs the supports of the
contracted blocks select, once those supports have held for a few passes,
so an iteration reads a fraction of X's bytes.
"""

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .data import _check_in_memory
from .kernels import contract_down, contract_mode
from .model import (
    ModelParams,
    Problem,
    _check_caps,
    _check_shapes,
    block_step,
    grad_direction_batch,
    is_feasible,
    lipschitz_bias,
    loss_coefficients,
    margin_batch,
    objective_from_margins,
    smooth_loss_from_margins,
)
from .prox import prox_block_step
from .tensor import _check_integer, _gathered, _gathers

SCHEDULES = ("apalm+", "apalm", "bpgd")

# A compact pass first builds its copy of X once its kept indices have held
# for this many of its calls: about what a build costs in passes over X at
# 200x200 (a 25-45 ms `take` against a 14.5 ms pass; README "Performance").
_HOLD_PASSES = 3


@dataclass(frozen=True)
class SolverConfig:
    """Solver hyperparameters. Defaults follow the reference setup:
    t=1.3, beta1=0.6, beta_max=0.9999, tolerances 1e-5 / 1e-4. The
    step-size inflation factor gamma belongs to the `Problem`."""

    schedule: str = "apalm+"
    t: float = field(default=1.3, metadata={"help": "momentum growth/decay factor"})
    beta1: float = field(default=0.6, metadata={"help": "initial momentum factor"})
    beta_max: float = field(default=0.9999, metadata={"help": "momentum cap"})
    tol_obj: float = field(default=1e-5, metadata={"help": "objective-change tolerance"})
    tol_grad: float = field(default=1e-4, metadata={"help": "gradient-change tolerance"})
    max_iters: int = field(default=2000, metadata={"help": "iteration cap"})
    max_seconds: float = field(default=60.0, metadata={
        "help": "wall-clock budget in seconds, checked before every iteration after the first"})

    def __post_init__(self):
        if self.schedule not in SCHEDULES:
            raise ValueError(f"schedule must be one of {SCHEDULES}, got {self.schedule!r}")
        if not self.t > 1.0:
            raise ValueError(f"momentum factor t must exceed 1, got {self.t}")
        if not 0.0 <= self.beta_max < 1.0:
            raise ValueError(f"beta_max must lie in [0, 1), got {self.beta_max}")
        # beta_max caps beta1 only in apalm+, the one schedule that reads both.
        if self.schedule == "apalm+" and not 0.0 <= self.beta1 <= self.beta_max:
            raise ValueError(f"beta1 must lie in [0, beta_max={self.beta_max}], got {self.beta1}")
        if not 0.0 <= self.beta1 < 1.0:
            raise ValueError(f"beta1 must lie in [0, 1), got {self.beta1}")
        for name in ("tol_obj", "tol_grad", "max_seconds"):
            if not getattr(self, name) > 0:  # NaN too: it would switch off a stop
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        _check_integer("max_iters", self.max_iters, 1)


@dataclass
class IterTrace:
    """One outer iteration: objective at the new iterate, distance from the
    prox base point (sum of blockwise 2-norms including the bias), momentum
    factor used, acceptance outcome, wall time since the run started, and
    for the convergence diagnostics the objective at the prox base point and
    the smallest step-size constant of the sweep."""

    iter: int
    objective: float
    gap: float
    beta: float
    accepted: bool
    elapsed_seconds: float
    base_objective: float
    min_tau: float


@dataclass
class SolveResult:
    """A finished run: `trace` holds at least one iteration, the last at
    `params`. `final_residual` is the L-stationarity residual at `params`
    (`_stationarity_residual`), from the last stop test's gradients."""

    params: ModelParams
    trace: list
    stop_reason: str
    problem: Problem
    config: SolverConfig
    final_residual: float


def nesterov_beta(t_k):
    """One step of the classic momentum recursion; returns (t_next, beta_next)."""
    if not t_k >= 1.0:  # NaN too
        raise ValueError(f"t_k must be >= 1, got {t_k}")
    t_next = (1.0 + math.sqrt(1.0 + 4.0 * t_k * t_k)) / 2.0
    return t_next, (t_k - 1.0) / t_next


def family_norm(family):
    """Norm of a family of vectors: sum of the blockwise 2-norms."""
    return float(sum(math.sqrt(g.dot(g)) for g in family))


def check_stop(prev_row, cur_row, prev_grads, cur_grads, n, config):
    """Tolerance-based stopping tests on two consecutive iterations.

    Fires "obj_tol" when |J_next - J_prev| / n drops below tol_obj and
    "grad_tol" when the blockwise-summed norm of the smooth-gradient change,
    scaled by n, drops below tol_grad. Returns None when neither fires.
    """
    if abs(cur_row.objective - prev_row.objective) / n < config.tol_obj:
        return "obj_tol"
    if family_norm([c - p for c, p in zip(cur_grads, prev_grads)]) / n < config.tol_grad:
        return "grad_tol"
    return None


def random_init(dims, sparsity, seed):
    """Sparse Gaussian starting point: s_i uniformly chosen support positions
    per block filled with standard normal draws, the rest zero. PCG64 stream."""
    dims = [_check_integer(f"dims[{i}]", d, 1) for i, d in enumerate(dims)]
    sparsity = _check_caps(sparsity, dims)
    rng = np.random.Generator(np.random.PCG64(_check_integer("seed", seed, 0)))
    blocks = []
    for d, s in zip(dims, sparsity):
        w = np.zeros(d)
        support = rng.choice(d, size=s, replace=False)
        w[support] = rng.standard_normal(s)
        blocks.append(w)
    return ModelParams(blocks=tuple(blocks), bias=0.0)


class _Passes:
    """The solver's two passes over the sample array X, one each per
    iteration: `direction`, the last block's gradient direction in the sweep
    (X contracted with w_1..w_{p-1}; X itself at order 1), and `partial`,
    P = X x_p w_p at the new iterate after it.

    From `tensor._GATHER_MIN_SAMPLE` elements per sample (`tensor._gathers`)
    each pass contracts a compact copy of X instead: `direction` X taken on
    the kept indices K_1 x ... x K_{p-1} of sample axes 1..p-1, `partial` X
    taken on K_p along axis p, each with the w_j[K_j] (`tensor._gathered`).
    X is finite, so a zero weight on a kept index adds an exact zero: every
    entry is still computed, equal to the dense pass up to summation order.

    Each K_j starts as supp(w_j) and only grows: when the support leaves it,
    K_j becomes K_j | supp(w_j) and its pass's copy is dropped, so an index
    that moves in and out is added once. A pass takes its copy (one `take`)
    once its K_j have held for `hold` of its calls, and contracts X until
    then. `hold` starts at `_HOLD_PASSES` and doubles each time a built copy
    is dropped, so a pass builds at most log2(1 + calls / _HOLD_PASSES)
    copies however often the supports change. A copy that would hold none
    of X or more than half of it is not built, so the two copies never hold
    more than X together. Below the cutoff both passes contract X.
    """

    def __init__(self, X):
        self.X = X
        p = X.ndim - 1
        # The sample axes each pass takes: 1..p-1 for `direction`, p for `partial`.
        self.groups = (range(1, p), range(p, p + 1)) if _gathers(X[0].size) else ((), ())
        self.kept = [None] * p  # K_j, sorted indices of axis j
        self.copies = [None, None]
        self.held = [0, 0]  # each pass's calls since its K_j last grew
        self.hold = [_HOLD_PASSES] * 2  # calls to hold before a build

    def _take(self, g, blocks):
        """The array pass g contracts, and `blocks` with those of its axes
        taken on their K_j."""
        axes = self.groups[g]
        if not axes:
            return self.X, blocks
        for a in axes:
            w, K = blocks[a - 1], self.kept[a - 1]
            if K is None or np.count_nonzero(w[K]) < np.count_nonzero(w):
                s = w.nonzero()[0]
                self.kept[a - 1] = s if K is None else np.union1d(K, s)
                if self.copies[g] is not None:
                    self.copies[g] = None  # freed before its successor is built
                    self.hold[g] *= 2
                self.held[g] = 0
        rows, taken = _gathered([blocks[a - 1] for a in axes], [self.kept[a - 1] for a in axes])
        self.held[g] += 1
        if self.held[g] == self.hold[g]:
            X = self.X
            dims = X.shape[axes[0] : axes[-1] + 1]
            sizes = tuple(w.size for w in taken)
            if 0 < 2 * math.prod(sizes) <= math.prod(dims):
                # One take of the flat indices of K_a x ... on an
                # (n, outer, prod(dims), inner) view of X.
                view = X.reshape(len(X), math.prod(X.shape[1 : axes[0]]), math.prod(dims), -1)
                self.copies[g] = view.take(rows, axis=2).reshape(
                    X.shape[: axes[0]] + sizes + X.shape[axes[-1] + 1 :])
        if self.copies[g] is None:
            return self.X, blocks
        blocks = list(blocks)
        blocks[axes[0] - 1 : axes[-1]] = taken
        return self.copies[g], blocks

    def direction(self, blocks):
        """Rows g_s of the last block's gradient direction at `blocks`."""
        arr, blocks = self._take(0, blocks)
        return grad_direction_batch(arr, blocks, len(blocks) - 1)

    def partial(self, blocks):
        """P = X x_p w_p at `blocks`."""
        arr, blocks = self._take(1, blocks)
        return contract_mode(arr, blocks[-1], len(blocks))


def _objective_at(passes, y, blocks, bias, ridge, sparsity, partial=None):
    """Objective at (blocks, bias) and the partial P = X x_p w_p there.

    A given `partial` must be P at `blocks`; without one, P costs one pass
    of `passes`. The margins are P contracted with the other blocks plus the
    bias (`margin_batch`). Below `tensor._GATHER_MIN_SAMPLE` elements per
    sample, a P from `passes` makes them the products `ml0.margins` takes,
    so the objective has the bits of `ml0.objective` at the same point.
    """
    if partial is None:
        partial = passes.partial(blocks)
    m = margin_batch(partial, blocks[:-1], bias)
    return objective_from_margins(m, y, blocks, ridge, sparsity), partial


def _gradient_family(y, blocks, margins, ridge, last_direction, partial):
    """Smooth-gradient family [g_1, ..., g_p, [g_bias]] at a fixed state and
    the gradient directions [G_1, ..., G_p] it was computed from.

    `last_direction` is the gradient direction of the last block at this
    state and `partial` is P = X x_p w_p there, both of which the sweep has
    just computed; the other directions follow from P, so no X is read.
    """
    p = len(blocks)
    coeff = loss_coefficients(margins, y)
    directions = [grad_direction_batch(partial, blocks[:-1], j) for j in range(p - 1)]
    directions.append(last_direction)
    family = [G.T @ coeff + lam * w for G, lam, w in zip(directions, ridge, blocks)]
    family.append(np.array([float(coeff.sum())]))
    return family, directions


def _stationarity_residual(blocks, family, directions, ridge, sparsity, n):
    """L-stationarity residual (Beck & Eldar, SIAM J. Optim. 2013) of a
    feasible point, from its `_gradient_family` family and directions.

    The largest of L_j ||w_j - P_{s_j}(w_j - g_j / L_j)|| / n over the
    blocks, with the modulus L_j = ||G_j||_F^2 / 4 + lam_j (an upper bound on
    the block's curvature that does not depend on the step bound), and of
    |g_bias| / n. It is 0 exactly at a fixed point of the block prox step.
    """
    r = abs(float(family[-1][0])) / n
    for w, g, G, lam, s in zip(blocks, family, directions, ridge, sparsity):
        # Elementwise, not a BLAS dot: a dot over a large direction wakes
        # OpenBLAS's thread pool, whose spinning threads slow the reader
        # threads of a later streamed eval (about 1.6x at 200x200 samples).
        L = float((G * G).sum()) / 4.0 + lam
        if L > 0.0:  # else G = 0 and lam = 0, so g = 0: the block is at rest
            step = w - prox_block_step(w, g, L, s)
            r = max(r, L * math.sqrt(step.dot(step)) / n)
    return r


def run(problem: Problem, data, init: ModelParams, config: SolverConfig,
        time_source=None, iterate_hook=None) -> SolveResult:
    """Minimize the sparse multilinear logistic objective from `init`.

    `data` must be an in-memory `Dataset`. The initial point must already
    satisfy the sparsity caps. Every recorded iterate is feasible (each block
    update ends in a hard-thresholding projection) and the recorded objective
    sequence is nonincreasing. The wall-clock budget is checked before every
    outer iteration after the first, so every run records at least one
    iteration; `time_source` replaces the clock for reproducible traces.
    `iterate_hook(k, blocks, bias)` is called with each new iterate, for
    instrumentation. The final residual comes from the last stop test.
    """
    _check_in_memory(data, "run")
    clock = time_source if time_source is not None else time.perf_counter
    p = init.order
    _check_shapes(init.blocks, data, problem)
    if not is_feasible(init.blocks, problem.sparsity):
        raise ValueError("initial point violates its sparsity caps")

    y, n = data.y, data.n
    passes = _Passes(data.X)
    ridge, sparsity, gamma = problem.ridge, problem.sparsity, problem.gamma
    tau_bias = lipschitz_bias(data, problem)

    cur = prev = list(init.blocks)  # read-only; every step makes new blocks
    cur_b = prev_b = init.bias
    # Cached partials P = X x_p w_p at the current and previous iterates.
    J_cur, P_cur = _objective_at(passes, y, cur, cur_b, ridge, sparsity)
    if not math.isfinite(J_cur):
        raise ValueError("objective is not finite at the initial point")
    P_prev = P_cur

    beta = config.beta1 if config.schedule == "apalm+" else 0.0
    t_k = 1.0
    trace = []
    grads_prev = None
    stop_reason = "max_iters"
    t0 = clock()

    # SolverConfig requires max_iters >= 1, so iteration 1 always runs and
    # binds grads_now and directions for the residual below.
    for k in range(1, config.max_iters + 1):
        if k > 1 and clock() - t0 > config.max_seconds:
            stop_reason = "max_seconds"
            break

        # At beta 0 the extrapolated point is the current one. So it is at a
        # repeated iterate, where below the gather cutoff P_y and J_y equal
        # P_cur and J_cur bitwise, so the test accepts it.
        beta_used = beta
        base, base_b, J_base, P_base = cur, cur_b, J_cur, P_cur
        accepted = True
        if beta != 0.0:
            y_blocks = [c + beta * (c - q) for c, q in zip(cur, prev)]
            y_bias = cur_b + beta * (cur_b - prev_b)
            # X x_p is linear, so P at the extrapolated point needs no pass over X.
            P_y = P_cur - P_prev
            P_y *= beta
            P_y += P_cur
            J_y, _ = _objective_at(passes, y, y_blocks, y_bias, ridge, sparsity, P_y)
            if J_y <= J_cur:
                base, base_b, J_base, P_base = y_blocks, y_bias, J_y, P_y
            else:
                accepted = False
        # The bpgd schedule starts at beta 0, and 0 grows to 0.
        if config.schedule == "apalm":
            t_k, beta = nesterov_beta(t_k if accepted else 1.0)
        elif accepted:
            beta = min(config.beta_max, config.t * beta)
        else:
            beta = beta / config.t

        # Cyclic block sweep: blocks before j are already updated, the rest
        # sit at the base point, so the step-size constant is fresh for j.
        # Block p-1 is still at the base point while blocks 0..p-2 step, so
        # their directions come from P_base; only the last one reads X.
        # Each block is replaced by a fresh prox result, never written in place.
        work = list(base)
        min_tau = tau_bias
        for j in range(p):
            if j < p - 1:
                G = grad_direction_batch(P_base, work[:-1], j)
            else:
                G = passes.direction(work)
            grad, tau = block_step(G, work[j], base_b, y, ridge[j], gamma)
            work[j] = prox_block_step(work[j], grad, tau, sparsity[j])
            min_tau = min(min_tau, tau)
        # Only P_cur outlives the sweep. The new iterate's margins, the bias
        # step's and the recorded objective's, all come from its partial, as
        # `ml0.objective`'s do (`margin_batch`).
        P_y = P_base = P_prev = None
        P_new = passes.partial(work)
        s = contract_down(P_new, work[:-1])
        grad_b = float(loss_coefficients(s + base_b, y).sum())
        new_b = base_b - grad_b / tau_bias

        m_final = s + new_b
        J_next = smooth_loss_from_margins(m_final, y, work, ridge)
        gap = family_norm([w - b for w, b in zip(work, base)]) + abs(new_b - base_b)

        trace.append(IterTrace(
            iter=k, objective=J_next, gap=gap, beta=beta_used, accepted=accepted,
            elapsed_seconds=clock() - t0, base_objective=J_base, min_tau=min_tau))

        if iterate_hook is not None:
            iterate_hook(k, work, new_b)
        # The stop test reuses G and P_new, the next P_cur.
        grads_now, directions = _gradient_family(y, work, m_final, ridge, G, P_new)
        # Velocity memory runs over consecutive iterates; the accepted
        # extrapolated point only serves as the base of the sweep.
        prev, prev_b, P_prev = cur, cur_b, P_cur
        cur, cur_b, P_cur = work, new_b, P_new
        J_cur = J_next

        if grads_prev is not None:
            reason = check_stop(trace[-2], trace[-1], grads_prev, grads_now, n, config)
            if reason is not None:
                stop_reason = reason
                break
        grads_prev = grads_now

    residual = _stationarity_residual(cur, grads_now, directions, ridge, sparsity, n)
    params = ModelParams(blocks=tuple(cur), bias=cur_b)
    return SolveResult(params=params, trace=trace, stop_reason=stop_reason,
                       problem=problem, config=config, final_residual=residual)


@dataclass
class DecreaseReport:
    """Outcome of the per-iteration sufficient-decrease audit."""

    checked: int
    violations: int
    max_violation: float
    first_decile_gap: float
    last_decile_gap: float


def diagnose_sufficient_decrease(result: SolveResult):
    """Audit J(new) <= J(base) - rho * gap^2 over a completed run.

    rho is estimated per iteration from the recorded step-size constants as
    (gamma - 1) / gamma * min_tau / 2, the guaranteed margin between each
    step-size constant and the true smoothness bound.
    An iteration counts as a violation when its slack exceeds 1e-9. Also
    summarizes the gap decay: mean gap over the first and last tenth of the
    iterations.
    """
    gamma = result.problem.gamma
    gaps = [row.gap for row in result.trace]
    worst = -math.inf
    violations = 0
    for row in result.trace:
        rho = (gamma - 1.0) / gamma * row.min_tau / 2.0
        slack = row.objective - (row.base_objective - rho * row.gap**2)
        worst = max(worst, slack)
        if slack > 1e-9:
            violations += 1
    decile = max(1, len(gaps) // 10)
    return DecreaseReport(
        checked=len(gaps),
        violations=violations,
        max_violation=worst,
        first_decile_gap=float(np.mean(gaps[:decile])) if gaps else math.nan,
        last_decile_gap=float(np.mean(gaps[-decile:])) if gaps else math.nan,
    )


TRACE_HEADER = "iter,objective,gap,beta,accepted,elapsed_seconds"


def write_trace_csv(trace, path):
    """Write one row per outer iteration, floats at 17 significant digits."""
    lines = [TRACE_HEADER]
    for row in trace:
        lines.append(
            f"{row.iter},{row.objective:.17g},{row.gap:.17g},{row.beta:.17g},"
            f"{int(row.accepted)},{row.elapsed_seconds:.17g}"
        )
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
