"""Baseline stochastic solvers for constrained problems.

Three non-adaptive (or differently adaptive) methods run by the same driver
as the main solver (``solvers.drive``), so checkpoints, timing, scoring and
divergence reporting are identical across methods. Each ``*_run`` supplies
only its setup, a ``step(k)`` closure holding its update and divergence
test, and its lanes (the trajectories it reports):

* ``msa_run``: projected stochastic subgradient on the Lagrangian with a
  multiplier ascent clipped into ``[0, z_cap]^M``.
* ``csa_run``: cooperative switching between objective and constraint
  subgradient steps, driven by a per-step estimate of the aggregate
  violation; emits two candidate trajectories, the lanes ``csa1`` (average
  over the steps whose estimate cleared the tolerance, scored on evaluation
  stream 1) and ``csa2`` (average over all steps, stream 0).
* ``pdsg_adp_run``: a primal-dual method on the classical augmented
  Lagrangian (penalty one) with a diagonal step scaling accumulated from
  normalized gradient energy; needs exact per-constraint values, so it only
  runs on finite-sum style problems.

All baselines use the constant ``scale/sqrt(horizon)`` parameterization and
plain step-weighted ergodic averaging.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DivergenceError
from .oracles import (constraint_step_direction, estimate_constraint_value,
                      sample_lagrangian_subgradient)
from .results import RunResult
from .rng import training_rng
from .schedules import ErgodicAverager
from .solvers import Lane, _NormWatch, _initial_x, drive

__all__ = [
    "MsaParams",
    "CsaParams",
    "PdsgAdpParams",
    "msa_run",
    "csa_run",
    "pdsg_adp_run",
]


def _check_positive(**kwargs):
    for name, v in kwargs.items():
        if not v > 0:
            raise ValueError(f"{name} must be positive, got {v!r}")


@dataclass
class MsaParams:
    """Mirror-descent stochastic approximation: steps alpha/sqrt(horizon)
    and rho/sqrt(horizon), multipliers kept inside [0, z_cap]^M."""

    horizon: int
    alpha: float = 10.0
    rho: float = 1.0
    z_cap: float = 1e3

    def __post_init__(self):
        _check_positive(horizon=self.horizon, alpha=self.alpha, rho=self.rho, z_cap=self.z_cap)


@dataclass
class CsaParams:
    """Switching subgradient parameters: step gamma/sqrt(horizon), switching
    tolerance eta_tol and averaging start index s (1-based). The per-step
    violation estimate draws ``batches.jg`` samples."""

    horizon: int
    gamma: float = 10.0
    eta_tol: float = 0.04
    s: int = 1

    def __post_init__(self):
        _check_positive(horizon=self.horizon, gamma=self.gamma)
        if self.eta_tol < 0:
            raise ValueError(f"eta_tol must be non-negative, got {self.eta_tol!r}")
        if int(self.s) != self.s or self.s < 1:
            raise ValueError(f"averaging start index must be a positive integer, got {self.s!r}")


@dataclass
class PdsgAdpParams:
    """Augmented-Lagrangian primal-dual parameters: steps alpha/sqrt(horizon)
    and rho/sqrt(horizon); eta_scale weights the accumulated diagonal scaling
    (zero turns the x-update into plain projected SGD)."""

    horizon: int
    alpha: float = 20.0
    rho: float = math.sqrt(10.0)
    eta_scale: float = 0.1
    divergence_cap: float = 1e8

    def __post_init__(self):
        _check_positive(horizon=self.horizon, alpha=self.alpha, rho=self.rho,
                        divergence_cap=self.divergence_cap)
        if self.eta_scale < 0:
            raise ValueError(f"eta_scale must be non-negative, got {self.eta_scale!r}")


def msa_run(problem, params, batches, seed, checkpoints=None, f0_ref=None,
            timing="algo") -> RunResult:
    """Projected stochastic subgradient with capped multiplier ascent."""
    horizon = int(params.horizon)
    alpha = params.alpha / math.sqrt(horizon)
    rho = params.rho / math.sqrt(horizon)
    box = problem.box
    x = _initial_x(box)
    z = np.zeros(problem.num_constraints)
    avg_x = ErgodicAverager(0.0)
    rng = training_rng(seed)

    def step(k):
        nonlocal x
        sample = sample_lagrangian_subgradient(problem, x, z, batches, rng)
        avg_x.push(x, alpha)
        x = box.project(x - alpha * sample.u)
        s = sample.w_support
        # the bits of np.clip(..., 0.0, z_cap), signed zeros included
        z[s] = np.minimum(params.z_cap, np.maximum(0.0, z[s] + rho * sample.w))
        if not np.isfinite(x).all():
            raise DivergenceError("non-finite iterate")

    lanes = [Lane("msa", avg_x, lambda: z.copy())]
    return drive(problem, seed, horizon, step, lanes, checkpoints, f0_ref, timing)[0]


def csa_run(problem, params, batches, seed, checkpoints=None, f0_ref=None,
            timing="algo"):
    """Switching subgradient method; returns a pair of RunResults.

    Each step estimates the aggregate violation from ``batches.jg`` samples;
    an estimate within ``eta_tol`` triggers an objective subgradient step,
    anything larger a constraint subgradient step. The first returned
    trajectory (``csa1``) averages only the steps (from index ``s`` on)
    whose estimate cleared the tolerance; its checkpoints carry flag
    ``csa1_absent`` with NaN metrics while that set is still empty. The
    second (``csa2``) averages all steps. Both lanes share one step, so a
    divergence carries the partial records of each.
    """
    horizon = int(params.horizon)
    gamma = params.gamma / math.sqrt(horizon)
    box = problem.box
    x = _initial_x(box)
    avg_cleared = ErgodicAverager(0.0)
    avg_all = ErgodicAverager(0.0)
    rng = training_rng(seed)

    def step(k):
        nonlocal x
        ghat = estimate_constraint_value(problem, x, batches.jg, rng)
        if not math.isfinite(ghat):
            raise DivergenceError("non-finite violation estimate")
        avg_all.push(x, gamma)
        if ghat <= params.eta_tol:
            if k >= params.s:
                avg_cleared.push(x, gamma)
            direction = problem.sample_objective_grad(x, batches.j0, rng)
        else:
            direction = constraint_step_direction(problem, x, batches.j1, rng)
        x = box.project(x - gamma * direction)
        if not np.isfinite(x).all():
            raise DivergenceError("non-finite iterate")

    lanes = [Lane("csa1", avg_cleared, eval_lane=1), Lane("csa2", avg_all)]
    return tuple(drive(problem, seed, horizon, step, lanes, checkpoints, f0_ref, timing))


def pdsg_adp_run(problem, params, batches, seed, checkpoints=None, f0_ref=None,
                 timing="algo") -> RunResult:
    """Primal-dual subgradient on the augmented Lagrangian (penalty one).

    Per step, over a sampled constraint subset S (scaled by M/|S|):

        u   = u0 + (M/|S|) sum_{j in S} [z_j + f_j(x)]_+ grad f_j(x)
        w_j = (M/|S|) max(f_j(x), -z_j)            on S, zero elsewhere
        v   = eta_scale * sqrt( sum_t u_t^2 / max(1, ||u_t||)^2 )
        x  <- proj_box( x - u / (v + 1/alpha) ),   z_S <- z_S + rho w_S

    The multiplier update is deliberately unclamped. The constraint values
    multiplying the gradients must be exact (a noisy value times a noisy
    gradient is biased), so the problem must expose
    ``sample_constraint_block_exact``.
    """
    if not hasattr(problem, "sample_constraint_block_exact"):
        raise ValueError(
            f"pdsg_adp needs exact per-constraint values, which problem kind "
            f"{problem.kind!r} cannot provide (finite-sum families can)")
    horizon = int(params.horizon)
    alpha = params.alpha / math.sqrt(horizon)
    rho = params.rho / math.sqrt(horizon)
    box = problem.box
    num = problem.num_constraints
    x = _initial_x(box)
    z = np.zeros(num)
    accum = np.zeros(box.dim)
    avg_x = ErgodicAverager(0.0)
    watch = _NormWatch(z, params.divergence_cap)
    rng = training_rng(seed)

    def step(k):
        nonlocal x, accum
        u0 = problem.sample_objective_grad(x, batches.j0, rng)
        support, values, grads = problem.sample_constraint_block_exact(x, batches.j1, rng)
        scale = num / len(support)
        z_old = z[support]
        weights = np.maximum(z_old + values, 0.0)
        u = u0 + scale * (weights @ grads)
        gam = max(1.0, math.sqrt(u.dot(u)))
        accum += (u * u) / (gam * gam)
        v = params.eta_scale * np.sqrt(accum)
        avg_x.push(x, alpha)
        x = box.project(x - u / (v + 1.0 / alpha))
        z_new = z_old + rho * scale * np.maximum(values, -z_old)
        z[support] = z_new
        if watch.exceeded(z_old, z_new) is not None or not np.isfinite(x).all():
            raise DivergenceError(f"iterate diverged (multiplier norm {np.linalg.norm(z):.3e})")

    lanes = [Lane("pdsg_adp", avg_x, lambda: z.copy())]
    return drive(problem, seed, horizon, step, lanes, checkpoints, f0_ref, timing)[0]
