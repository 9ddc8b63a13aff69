"""Accelerated block proximal solver with adaptive momentum.

Each outer iteration extrapolates every weight block and the bias along the
previous step, keeps the extrapolated point only if it does not increase the
objective (growing the momentum factor on success, shrinking it on failure),
then sweeps the blocks cyclically: one hard-thresholded gradient step per
block with a freshly computed step-size constant, followed by a plain
gradient step on the bias. Momentum schedules:

  adaptive  grow/shrink the factor by t based on the acceptance test
  nesterov  classic t_k recursion, extrapolated point always used
  none      no extrapolation (plain block proximal gradient descent)

All of an iteration's contractions of the sample array X derive from one
cached partial P = X x_p w_p (X contracted with the last block) per iterate,
kept for the current and the previous iterate. The mode product is linear,
so P at the extrapolated point is P_cur + beta (P_cur - P_prev) and the
extrapolation test reads no X; the sweep takes the directions of blocks
1..p-1 from P at its base point and reads X once, for the last block's
direction; the stop test reuses that direction and reads X once more, for
the new iterate's P. That is two passes over X per iteration at any order
p >= 2. At order 1 the only direction is X itself and P is the margin
vector minus the bias, which the sweep computes anyway, so neither test
contracts X.
"""

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .kernels import contract_mode
from .model import (
    ModelParams,
    Problem,
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

SCHEDULES = ("adaptive", "nesterov", "none")


@dataclass
class SolverConfig:
    """Solver hyperparameters. Defaults follow the reference setup:
    t=1.3, beta1=0.6, beta_max=0.9999, tolerances 1e-5 / 1e-4. The
    step-size inflation factor gamma belongs to the `Problem`."""

    schedule: str = "adaptive"
    t: float = field(default=1.3, metadata={"help": "momentum growth/decay factor"})
    beta1: float = field(default=0.6, metadata={"help": "initial momentum factor"})
    beta_max: float = field(default=0.9999, metadata={"help": "momentum cap"})
    tol_obj: float = field(default=1e-5, metadata={"help": "objective-change tolerance"})
    tol_grad: float = field(default=1e-4, metadata={"help": "gradient-change tolerance"})
    max_iters: int = 2000
    max_seconds: float = 60.0

    def __post_init__(self):
        if self.schedule not in SCHEDULES:
            raise ValueError(f"schedule must be one of {SCHEDULES}, got {self.schedule!r}")
        if not self.t > 1.0:
            raise ValueError(f"momentum factor t must exceed 1, got {self.t}")
        if not 0.0 <= self.beta_max < 1.0:
            raise ValueError(f"beta_max must lie in [0, 1), got {self.beta_max}")
        if not 0.0 <= self.beta1 <= self.beta_max:
            raise ValueError(
                f"beta1 must lie in [0, beta_max={self.beta_max}], got {self.beta1}"
            )
        if self.tol_obj <= 0 or self.tol_grad <= 0:
            raise ValueError("tolerances must be positive")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if self.max_seconds <= 0:
            raise ValueError("max_seconds must be positive")


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
    params: ModelParams
    trace: list
    stop_reason: str
    problem: Problem
    config: SolverConfig


def nesterov_beta(t_k):
    """One step of the classic momentum recursion; returns (t_next, beta_next)."""
    if t_k < 1.0:
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


def random_init(dims, sparsity, seed, bias=0.0):
    """Sparse Gaussian starting point: s_i uniformly chosen support positions
    per block filled with standard normal draws, the rest zero. PCG64 stream."""
    rng = np.random.Generator(np.random.PCG64(seed))
    blocks = []
    for d, s in zip(dims, sparsity):
        if not 1 <= s <= d:
            raise ValueError(f"sparsity {s} invalid for block of length {d}")
        w = np.zeros(d)
        support = rng.choice(d, size=s, replace=False)
        w[support] = rng.standard_normal(s)
        blocks.append(w)
    return ModelParams(blocks=tuple(blocks), bias=bias)


def _objective_at(X, y, blocks, bias, ridge, sparsity, partial=None):
    """Objective at (blocks, bias) and the partial P = X x_p w_p there.

    A given `partial` must be P at `blocks`; without one, P costs one pass
    over X. The margins are P contracted with the other blocks plus the bias.
    """
    if partial is None:
        partial = contract_mode(X, blocks[-1], len(blocks))
    m = margin_batch(partial, blocks[:-1], bias)
    return objective_from_margins(m, y, blocks, ridge, sparsity), partial


def _gradient_family(X, y, blocks, margins, ridge, last_direction, partial=None):
    """Smooth-gradient family [g_1, ..., g_p, [g_bias]] at a fixed state, and
    the partial P = X x_p w_p there.

    `last_direction` is the gradient direction of the last block at this
    state, which the sweep has just computed. Without a given `partial`, P
    costs the one pass over X; the other directions follow from P.
    """
    p = len(blocks)
    if partial is None:
        partial = contract_mode(X, blocks[-1], p)
    coeff = loss_coefficients(margins, y)
    family = []
    for j in range(p):
        G = last_direction if j == p - 1 else grad_direction_batch(partial, blocks[:-1], j)
        family.append(G.T @ coeff + ridge[j] * blocks[j])
    family.append(np.array([float(coeff.sum())]))
    return family, partial


def run(problem: Problem, data, init: ModelParams, config: SolverConfig,
        time_source=None, iterate_hook=None) -> SolveResult:
    """Minimize the sparse multilinear logistic objective from `init`.

    The initial point must already satisfy the sparsity caps. Every recorded
    iterate is feasible (each block update ends in a hard-thresholding
    projection) and, for the adaptive and none schedules, the recorded
    objective sequence is nonincreasing. The wall-clock budget is checked
    once per outer iteration; `time_source` replaces the clock for
    reproducible traces. `iterate_hook(k, blocks, bias)` is called with each
    new iterate, for instrumentation.
    """
    clock = time_source if time_source is not None else time.perf_counter
    p = init.order
    _check_shapes(init.blocks, data, problem)
    if not is_feasible(init.blocks, problem.sparsity):
        raise ValueError("initial point violates its sparsity caps")

    X, y, n = data.X, data.y, data.n
    ridge, sparsity, gamma = problem.ridge, problem.sparsity, problem.gamma
    tau_bias = lipschitz_bias(data, problem)

    cur = prev = list(init.blocks)  # read-only; every step makes new blocks
    cur_b = prev_b = init.bias
    # Cached partials P = X x_p w_p at the current and previous iterates.
    J_cur, P_cur = _objective_at(X, y, cur, cur_b, ridge, sparsity)
    if not math.isfinite(J_cur):
        raise ValueError("objective is not finite at the initial point")
    P_prev = P_cur

    beta = config.beta1 if config.schedule == "adaptive" else 0.0
    t_k = 1.0
    trace = []
    grads_prev = None
    stop_reason = "max_iters"
    t0 = clock()

    for k in range(1, config.max_iters + 1):
        if clock() - t0 > config.max_seconds:
            stop_reason = "max_seconds"
            break

        # Extrapolate only along a step that moved; at beta 0 or at a
        # repeated iterate the extrapolated point is the current one.
        beta_used = beta
        base, base_b, J_base, P_base = cur, cur_b, J_cur, P_cur
        accepted = True
        if beta != 0.0 and (
            any((c != q).any() for c, q in zip(cur, prev)) or cur_b != prev_b
        ):
            y_blocks = [c + beta * (c - q) for c, q in zip(cur, prev)]
            y_bias = cur_b + beta * (cur_b - prev_b)
            # X x_p is linear, so P at the extrapolated point needs no pass over X.
            P_y = P_cur - P_prev
            P_y *= beta
            P_y += P_cur
            J_y, _ = _objective_at(X, y, y_blocks, y_bias, ridge, sparsity, P_y)
            if config.schedule == "nesterov" or J_y <= J_cur:
                base, base_b, J_base, P_base = y_blocks, y_bias, J_y, P_y
            else:
                accepted = False
        # The none schedule starts at beta 0, and 0 grows to 0.
        if config.schedule == "nesterov":
            t_k, beta = nesterov_beta(t_k)
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
                G = grad_direction_batch(X, work, j)
            grad, tau = block_step(G, work[j], base_b, y, ridge[j], gamma)
            work[j] = prox_block_step(work[j], grad, tau, sparsity[j])
            min_tau = min(min_tau, tau)
        # Only P_cur outlives the sweep; the stop test computes the next one.
        P_y = P_base = P_prev = None

        # G still matches the final block state (it never involves block p-1).
        s_last = G @ work[p - 1]
        m_blocks = s_last + base_b
        grad_b = float(loss_coefficients(m_blocks, y).sum())
        new_b = base_b - grad_b / tau_bias

        m_final = m_blocks + (new_b - base_b)
        J_next = smooth_loss_from_margins(m_final, y, work, ridge)
        gap = family_norm([w - b for w, b in zip(work, base)]) + abs(new_b - base_b)

        trace.append(IterTrace(
            iter=k, objective=J_next, gap=gap, beta=beta_used, accepted=accepted,
            elapsed_seconds=clock() - t0, base_objective=J_base, min_tau=min_tau))

        if iterate_hook is not None:
            iterate_hook(k, work, new_b)
        # The stop test reuses G; its pass over X is the next P_cur. At order
        # 1, P is the margin vector minus the bias, which the sweep computed.
        grads_now, P_new = _gradient_family(
            X, y, work, m_final, ridge, G, s_last if p == 1 else None
        )
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

    params = ModelParams(blocks=tuple(cur), bias=cur_b)
    return SolveResult(params=params, trace=trace, stop_reason=stop_reason,
                       problem=problem, config=config)


@dataclass
class DecreaseReport:
    """Outcome of the per-iteration sufficient-decrease audit."""

    checked: int
    violations: int
    max_violation: float
    first_decile_gap: float
    last_decile_gap: float


def diagnose_sufficient_decrease(result: SolveResult, rho_hat=None, tol=1e-9):
    """Audit J(new) <= J(base) - rho * gap^2 over a completed run.

    When rho_hat is not given it is estimated per iteration from the recorded
    step-size constants as (gamma - 1) / gamma * min_tau / 2, the guaranteed
    margin between each step-size constant and the true smoothness bound.
    Also summarizes the gap decay: mean gap over the first and last tenth of
    the iterations.
    """
    gamma = result.problem.gamma
    gaps = [row.gap for row in result.trace]
    worst = -math.inf
    violations = 0
    for row in result.trace:
        rho = rho_hat if rho_hat is not None else (gamma - 1.0) / gamma * row.min_tau / 2.0
        slack = row.objective - (row.base_objective - rho * row.gap**2)
        worst = max(worst, slack)
        if slack > tol:
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
