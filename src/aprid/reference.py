"""Deterministic reference solutions for benchmark problems.

Constrained problems are solved with a classical augmented Lagrangian loop:
inner minimizations by a spectral projected gradient method (Barzilai-Borwein
steps safeguarded by nonmonotone Armijo backtracking, so still projected
gradient with backtracking), multiplier updates ``z <- [z + beta f(x)]_+``,
and penalty growth whenever feasibility stalls. Convergence is declared by an
independent KKT residual check, never by the loop's own progress measures.
Constraint values are computed once per distinct point (by value), shared by
the inner objective and gradient and by the post-round update and KKT check.
A problem with ``screened_constraint_values`` (the finite-sum QCQP) evaluates at
a point only the rows with z_j > 0 and those its certificate cannot prove
negative; the skipped rows' shifted multipliers are exactly 0 either way, and
they are evaluated once, at the point the solver returns, a chunk at a time.
The M x n constraint-gradient matrix is formed only when a multiplier is nonzero.
Otherwise a solve holds z, the point's values and skip mask and at most two more M-arrays.
"""

from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import ReferenceError
from .kernels import serial_matmul
from .problems import _EVAL_CHUNK

__all__ = [
    "KktResiduals",
    "ReferenceSolution",
    "kkt_residuals",
    "solve_reference",
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


def _weighted_constraint_grad(problem, x, weights):
    """``weights @ G`` by ``serial_matmul``, or 0.0 if every weight is zero.

    Up to 4096 entries of G (M = 409 at n = 10, every golden instance) that is
    the one product ``weights @ G``, which has the bits of ``G.T @ weights``;
    beyond, the sum of per-block products, within rounding of it."""
    if not weights.any():
        return 0.0
    return serial_matmul(weights, problem.full_constraint_grads(x))


def _kkt_at(problem, x, z, f):
    """``kkt_residuals`` given the constraint values ``f`` at ``x``."""
    grad = problem.full_objective_grad(x) + _weighted_constraint_grad(problem, x, z)
    stationarity = float(np.linalg.norm(x - problem.box.project(x - grad)))
    work = np.maximum(f, 0.0)
    feasibility = float(np.max(work))
    complementarity = float(np.max(np.abs(np.multiply(z, f, out=work), out=work)))
    return KktResiduals(stationarity, feasibility, complementarity)


@dataclass
class ReferenceSolution:
    x: np.ndarray
    z: np.ndarray
    objective: float
    residuals: KktResiduals
    outer_iterations: int
    constraint_values: np.ndarray  # f_j(x), as the final KKT check saw them
    start_objective: float  # f0 at box.project(0), where every solver starts


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
    """``(values, complete)``. ``values(x, z)`` is ``problem.full_constraint_values(x)``,
    recomputed only when the point differs (by value) from the last one.

    Where the problem offers ``screened_constraint_values``, rows with z_j = 0 that its
    certificate proves negative hold a negative bound instead: their shifted multiplier
    max(z_j + beta f_j, 0), their update and their KKT terms are exactly 0 as with the
    value. A row that a later z at the same point makes positive has f_j > 0, so it was
    evaluated. ``complete(x)``, at the last point, evaluates its skipped rows and returns
    every value there exact: it forms a.x once and hands the problem's ``_exact_values``
    one chunk of skipped rows at a time.
    """
    screened = getattr(problem, "screened_constraint_values", None)
    last = [None, None, None]  # the point's bytes, its values, the rows they skip

    def values(x, z):
        if x.tobytes() != last[0]:
            if screened is None:
                last[:] = x.tobytes(), problem.full_constraint_values(x), None
            else:
                last[:] = x.tobytes(), *screened(x, z > 0)
        return last[1]

    def complete(x):
        f, skipped = last[1], last[2]
        if skipped is not None and skipped.any():
            ax = serial_matmul(problem.a, x)  # once, for every chunk of skipped rows
            for lo in range(0, f.size, _EVAL_CHUNK):
                rows = lo + np.flatnonzero(skipped[lo:lo + _EVAL_CHUNK])
                f[rows] = problem._exact_values(x, ax, rows)
            last[2] = None
        return f

    return values, complete


def _shifted(z, beta, f):
    """max(z + beta f, 0), formed in one buffer as beta f + z (addition commutes)."""
    out = np.multiply(f, beta)
    out += z
    return np.maximum(out, 0.0, out=out)


def _augmented_lagrangian(problem, values, z, beta):
    def fun(x):
        terms = _shifted(z, beta, values(x, z))
        np.square(terms, out=terms)
        terms -= np.square(z)
        return problem.full_objective(x) + float(np.sum(terms)) / (2.0 * beta)

    def grad(x):
        shifted = _shifted(z, beta, values(x, z))
        return problem.full_objective_grad(x) + _weighted_constraint_grad(problem, x, shifted)

    return fun, grad


def solve_reference(problem, tol=1e-6, max_outer=100, freeze_samples=100_000,
                    freeze_seed=0) -> ReferenceSolution:
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
    values, complete = _constraint_values_once(problem)
    beta = 10.0
    inner_tol = max(1e-3, 10.0 * tol)
    prev_viol = np.inf
    best = None
    for outer in range(1, max_outer + 1):
        # no reference to this round's z outlives the minimization
        x = _spg_minimize(*_augmented_lagrangian(problem, values, z, beta), x, box, inner_tol)
        f = values(x, z)
        z = _shifted(z, beta, f)
        res = _kkt_at(problem, x, z, f)
        del f  # else it is held while the next round's points form theirs
        if best is None or res.worst < best.worst:
            best = res
        if res.worst <= tol:
            return ReferenceSolution(
                x=x, z=z, objective=problem.full_objective(x),
                residuals=res, outer_iterations=outer, constraint_values=complete(x),
                start_objective=problem.full_objective(box.project(np.zeros(box.dim))),
            )
        if res.feasibility > 0.25 * prev_viol:
            beta = min(beta * 4.0, 1e14)
        prev_viol = max(res.feasibility, 1e-300)
        inner_tol = max(0.25 * tol, 0.2 * inner_tol)
    raise ReferenceError(
        f"no KKT point within tolerance {tol:g} after {max_outer} outer rounds; "
        f"best residuals: {best}",
        residuals=best,
    )
