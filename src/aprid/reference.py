"""Deterministic reference solutions for benchmark problems.

Constrained problems are solved with a classical augmented Lagrangian loop:
inner minimizations by a spectral projected gradient method (Barzilai-Borwein
steps safeguarded by nonmonotone Armijo backtracking, so still projected
gradient with backtracking), multiplier updates ``z <- [z + beta f(x)]_+``,
and penalty growth whenever feasibility stalls. Convergence is declared by an
independent KKT residual check, never by the loop's own progress measures.
Constraint values are computed once per distinct point (by value), shared by
the inner objective and gradient and by the post-round update and KKT check.

Saddle problems are solved by the extragradient method with a fixed step
sized from the coupling norm; for affine operators over boxes the last
iterate converges linearly, which is what reaching gap 1e-8 in bounded time
requires.
"""

from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import ReferenceError

__all__ = [
    "KktResiduals",
    "ReferenceSolution",
    "SaddleSolution",
    "kkt_residuals",
    "solve_reference",
    "solve_saddle_reference",
]


@dataclass
class KktResiduals:
    """Stationarity, primal feasibility, and complementarity residuals."""

    stationarity: float
    feasibility: float
    complementarity: float

    @property
    def worst(self) -> float:
        return max(self.stationarity, self.feasibility, self.complementarity)

    def __str__(self):
        return (f"stationarity={self.stationarity:.3e} "
                f"feasibility={self.feasibility:.3e} "
                f"complementarity={self.complementarity:.3e}")


def kkt_residuals(problem, x, z) -> KktResiduals:
    """KKT residuals of a candidate primal-dual pair.

    Stationarity is the fixed-point residual of the unit-step projected
    Lagrangian gradient, feasibility the largest positive constraint value,
    complementarity the largest ``|z_j f_j(x)|``.
    """
    x = np.asarray(x, dtype=float)
    return _kkt_at(problem, x, np.asarray(z, dtype=float), problem.full_constraint_values(x))


def _kkt_at(problem, x, z, f):
    """``kkt_residuals`` given the constraint values ``f`` at ``x``."""
    grad = problem.full_objective_grad(x) + problem.full_constraint_grads(x).T @ z
    stationarity = float(np.linalg.norm(x - problem.box.project(x - grad)))
    feasibility = float(np.max(np.maximum(f, 0.0)))
    complementarity = float(np.max(np.abs(z * f)))
    return KktResiduals(stationarity, feasibility, complementarity)


@dataclass
class ReferenceSolution:
    x: np.ndarray
    z: np.ndarray
    objective: float
    residuals: KktResiduals
    outer_iterations: int
    constraint_values: np.ndarray  # f_j(x), as the final KKT check saw them


def _spg_minimize(fun, grad, x0, box, tol, max_iters=5000):
    """Box-constrained minimization to ``||x - proj(x - grad)|| <= tol``."""
    x = box.project(np.asarray(x0, dtype=float))
    g = grad(x)
    f = fun(x)
    lam = 1.0
    recent = deque([f], maxlen=10)
    for _ in range(max_iters):
        if np.linalg.norm(x - box.project(x - g)) <= tol:
            break
        d = box.project(x - lam * g) - x
        slope = float(g @ d)
        if slope >= 0:
            # degenerate BB step; fall back to a unit projected gradient step
            d = box.project(x - g) - x
            slope = float(g @ d)
            if slope >= 0:
                break
        t = 1.0
        fref = max(recent)
        while True:
            xn = x + t * d
            fn = fun(xn)
            if fn <= fref + 1e-4 * t * slope or t < 1e-14:
                break
            t *= 0.5
        gn = grad(xn)
        s = xn - x
        y = gn - g
        sy = float(s @ y)
        lam = float(np.clip((s @ s) / sy, 1e-12, 1e12)) if sy > 1e-30 else 1e6
        x, g, f = xn, gn, fn
        recent.append(f)
    return x


def _constraint_values_once(problem):
    """``problem.full_constraint_values``, recomputed only when the point's
    values differ from the last point's."""
    last = [None, None]

    def values(x):
        if x.tobytes() != last[0]:
            last[:] = x.tobytes(), problem.full_constraint_values(x)
        return last[1]

    return values


def _augmented_lagrangian(problem, values, z, beta):
    def fun(x):
        f = values(x)
        shifted = np.maximum(z + beta * f, 0.0)
        return problem.full_objective(x) + float(np.sum(shifted**2 - z**2)) / (2.0 * beta)

    def grad(x):
        f = values(x)
        shifted = np.maximum(z + beta * f, 0.0)
        return problem.full_objective_grad(x) + shifted @ problem.full_constraint_grads(x)

    return fun, grad


def solve_reference(problem, tol=1e-6, max_outer=100, inner_max_iters=5000,
                    freeze_samples=100_000, freeze_seed=0) -> ReferenceSolution:
    """Solve a constrained problem to KKT residuals at most ``tol``.

    Expectation-form problems are first replaced by their exact
    ``freeze_samples``-draw sample average (see the problem's ``freeze``),
    and the solution is reported for that frozen instance. Raises
    ReferenceError (with the best residuals seen) on non-convergence.
    """
    if not hasattr(problem, "full_objective"):
        if hasattr(problem, "freeze"):
            problem = problem.freeze(n_samples=freeze_samples, seed=freeze_seed)
        else:
            raise TypeError(
                f"problem kind {getattr(problem, 'kind', '?')!r} offers neither exact "
                "evaluation nor a sample-average freeze"
            )
    box = problem.box
    x = box.project(np.zeros(box.dim))
    z = np.zeros(problem.num_constraints)
    values = _constraint_values_once(problem)
    beta = 10.0
    inner_tol = max(1e-3, 10.0 * tol)
    prev_viol = np.inf
    best = None
    for outer in range(1, max_outer + 1):
        fun, grad = _augmented_lagrangian(problem, values, z, beta)
        x = _spg_minimize(fun, grad, x, box, inner_tol, inner_max_iters)
        f = values(x)
        z = np.maximum(z + beta * f, 0.0)
        res = _kkt_at(problem, x, z, f)
        if best is None or res.worst < best[2].worst:
            best = (x.copy(), z.copy(), res, outer)
        if res.worst <= tol:
            return ReferenceSolution(
                x=x, z=z, objective=problem.full_objective(x),
                residuals=res, outer_iterations=outer, constraint_values=f,
            )
        viol = float(np.max(np.maximum(f, 0.0)))
        if viol > 0.25 * prev_viol:
            beta = min(beta * 4.0, 1e14)
        prev_viol = max(viol, 1e-300)
        inner_tol = max(0.25 * tol, 0.2 * inner_tol)
    raise ReferenceError(
        f"no KKT point within tolerance {tol:g} after {max_outer} outer rounds; "
        f"best residuals: {best[2]}",
        residuals=best[2],
    )


@dataclass
class SaddleSolution:
    x: np.ndarray
    z: np.ndarray
    gap: float
    iterations: int


def solve_saddle_reference(problem, tol=1e-8, max_iters=2_000_000,
                           check_every=100) -> SaddleSolution:
    """Solve a saddle problem to primal-dual gap at most ``tol``.

    Extragradient iterations with a fixed step; the exact gap is recomputed
    every ``check_every`` iterations. Raises ReferenceError carrying the
    final gap when the budget runs out.
    """
    box_x, box_z = problem.box_x, problem.box_z
    coupling = float(np.linalg.norm(problem.a_mat, 2)) if hasattr(problem, "a_mat") else 1.0
    step = 0.9 / (2.0 * max(coupling, 0.5))
    x = box_x.project(np.zeros(box_x.dim))
    z = box_z.project(np.zeros(box_z.dim))
    gap = problem.gap(x, z)
    if gap <= tol:
        return SaddleSolution(x=x, z=z, gap=gap, iterations=0)
    for it in range(1, max_iters + 1):
        u, w = problem.exact_grads(x, z)
        xh = box_x.project(x - step * u)
        zh = box_z.project(z + step * w)
        uh, wh = problem.exact_grads(xh, zh)
        x = box_x.project(x - step * uh)
        z = box_z.project(z + step * wh)
        if it % check_every == 0:
            gap = problem.gap(x, z)
            if gap <= tol:
                return SaddleSolution(x=x, z=z, gap=gap, iterations=it)
    raise ReferenceError(
        f"extragradient exhausted {max_iters} iterations with gap {gap:.3e} > {tol:g}"
    )
