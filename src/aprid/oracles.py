"""Stochastic first-order oracles over Problem objects.

All solvers talk to problems exclusively through the functions here. A
problem (duck-typed; see ``aprid.problems``) exposes raw per-draw samples;
this layer assembles them into unbiased estimates of

* the primal Lagrangian subgradient  u ~ d/dx [ f0(x) + z . f(x) ],
* the constraint values              w ~ f(x), as values on the sampled
  constraint indices ``S`` (the coordinates a dual step moves),

with the ``M/|S|`` importance reweighting whenever only a subset ``S`` of the
``M`` constraints is sampled, and of the aggregate violation used by the
switching baseline. The problem contract returns ndarrays, used as they are.
"""

from dataclasses import dataclass

import numpy as np

from .schedules import _check_count

__all__ = [
    "BatchSizes",
    "GradSample",
    "sample_lagrangian_subgradient",
    "estimate_constraint_value",
    "constraint_step_direction",
    "sample_minimax_subgradient",
]


@dataclass(frozen=True)
class BatchSizes:
    """Per-iteration draw counts: objective (j0), constraint-gradient (j1),
    constraint-value (jg, the switching estimate)."""

    j0: int = 10
    j1: int = 10
    jg: int = 100

    def __post_init__(self):
        for name in ("j0", "j1", "jg"):
            _check_count(f"batch size {name}", getattr(self, name))


@dataclass
class GradSample:
    """One oracle draw.

    ``u`` is the primal estimate (dim n). ``w`` is the dual-side estimate on
    the coordinates ``w_support``: ``w[i]`` estimates coordinate
    ``w_support[i]``, and no other coordinate was sampled. A minimax draw
    has ``w_support`` None, its ``w`` spanning the whole maximization block.
    """

    u: np.ndarray
    w: np.ndarray
    w_support: np.ndarray | None


def sample_lagrangian_subgradient(problem, x, z, batches, rng) -> GradSample:
    """Unbiased stochastic subgradient of the Lagrangian at ``(x, z)``.

    Draws ``batches.j0`` objective samples and ``batches.j1`` constraint
    samples (a subset ``S`` of constraint indices for finite families), then
    assembles

        u = u0 + (M/|S|) * sum_{j in S} z_j * uhat_j,
        w_j = (M/|S|) * (batched estimate of f_j(x)),  values on S,

    returned as ``w`` with ``w_support = S`` (all M indices, in sampled order,
    when the batch covers every constraint). The reweighting keeps both
    estimates unbiased under uniform subsampling.
    """
    m = problem.num_constraints
    if z.shape != (m,):
        raise ValueError(f"multiplier shape {z.shape} does not match {m} constraints")
    u0 = problem.sample_objective_grad(x, batches.j0, rng)
    support, values, grads = problem.sample_constraint_block(x, batches.j1, rng)
    scale = m / support.size
    return GradSample(u=u0 + scale * (z[support] @ grads), w=scale * values, w_support=support)


def estimate_constraint_value(problem, x, jg, rng) -> float:
    """Unbiased estimate of the aggregate constraint value at ``x``.

    Single-constraint problems return a batched estimate of the constraint
    function itself (which may be negative); families of ``M`` constraints
    return ``(M/jg) * sum_{j in S} [f_j(x)]_+`` over a sampled index set.
    """
    if jg < 1:
        raise ValueError(f"jg must be a positive integer, got {jg!r}")
    return float(problem.constraint_value_estimate(x, jg, rng))


def constraint_step_direction(problem, x, j1, rng) -> np.ndarray:
    """Stochastic subgradient of the aggregate constraint at ``x``.

    Single-constraint problems return the batched constraint subgradient;
    families return ``(M/|S|) * sum_{j in S} 1{fhat_j > 0} grad f_j(x)``
    (a zero estimate contributes nothing, matching the subdifferential of
    the positive part at a tie).
    """
    support, values, grads = problem.sample_constraint_block(x, j1, rng)
    scale = problem.num_constraints / len(support)
    if problem.num_constraints == 1:
        return scale * grads[0]
    return scale * ((values > 0).astype(float) @ grads)


def sample_minimax_subgradient(problem, x, z, rng) -> GradSample:
    """Noisy gradient pair for a saddle problem: ``u`` for the minimization
    block, ``w`` for the whole maximization block (``w_support`` None)."""
    u, w = problem.sample_grads(x, z, rng)
    return GradSample(u=u, w=w, w_support=None)
