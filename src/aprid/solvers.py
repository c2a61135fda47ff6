"""Adaptive primal-dual stochastic solvers and the run driver every solver uses.

Two state machines live here. The constrained solver runs adaptive
momentum/second-moment primal updates against a multiplier ascent with the
coupled dual step schedule:

    m_k    = beta1 m_{k-1} + (1 - beta1) u_k           (raw gradient)
    uhat_k = u_k / max(1, ||u_k|| / theta)             (norm clip)
    v_k    = beta2 v_{k-1} + (1 - beta2) uhat_k^2      (clipped gradient)
    vhat_k = max(vhat_{k-1}, v_k)                      (coordinate-wise)
    x_{k+1} = proj_{X, sqrt(vhat_k)} ( x_k - alpha_k m_k / sqrt(vhat_k) )
    z_{k+1} = [ z_k + rho_k w_k ]_+

with the 0/0 = 0 convention for untouched coordinates. The momentum uses the
raw gradient while the second moment uses the clipped one; the clip bounds
every vhat coordinate by theta^2. The minimax solver runs the same update on
the stacked (x, z) over the product of its two boxes, stepping alpha_k on x and
-rho_k on z, so z ascends (x - (-rho) d is x + rho d, signed zeros included),
each block clipped on its own. That update is written once, in
``_adaptive_step``, which ``aprid_step`` calls with one block and
``apriad_step`` with two.

Solvers report the ergodic averages of their iterates, weighted by
``sum_{k=j}^t alpha_k beta1^(k-j)``, via streaming averagers. aprid's
multipliers change only on the j1 sampled constraints, so their average
(``LazyErgodicAverager``) and their norm's divergence test (``_NormWatch``)
cost O(j1) per step; the O(M) catch-up runs only when z_bar is read.

Every run, here and in ``baselines``, goes through one driver, ``drive``,
which owns the protocol the methods are compared under: it validates the
checkpoints and the ``timing`` mode, opens the training stream, times the
steps (and, under ``total``, the checkpoint scoring), scores each lane's
averaged iterate into a ``CheckpointRecord`` at every checkpoint, annotates
a ``DivergenceError`` with the failing step and the partial trajectories,
and builds one ``RunResult`` per lane. A method's ``*_run`` supplies only

* its setup: initial state and averagers,
* ``step(k, rng)``: its update for step ``k`` on the training stream ``rng``,
  including the averager pushes and its own divergence test (raising
  ``DivergenceError``),
* its lanes: one ``Lane`` per reported trajectory.
"""

import math
import time
import warnings
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .errors import DivergenceError
from .kernels import BoxSet, clip_gradient, project_box_weighted, serial_matmul
from .oracles import sample_lagrangian_subgradient, sample_minimax_subgradient
from .results import CheckpointRecord, RunResult, _resolve_checkpoints
from .rng import eval_seed, training_rng
from .schedules import ErgodicAverager, LazyErgodicAverager, StepSchedule, _check_positive

__all__ = [
    "SolverParams",
    "PrimalState",
    "DualState",
    "aprid_step",
    "aprid_run",
    "apriad_step",
    "apriad_run",
    "primal_dual_gap",
    "Lane",
    "drive",
]


@dataclass
class SolverParams:
    """Hyper-parameters shared by the adaptive solvers.

    The momentum weight ``beta1`` is the schedule's, since the dual step
    recursion and the ergodic averaging weights are derived from it.
    ``adaptive=False`` freezes the second-moment scaling at one (every
    coordinate steps with plain alpha_k), which with ``beta1 = 0`` reduces
    the solvers to projected stochastic gradient descent/ascent.
    """

    schedule: StepSchedule
    beta2: float = 0.99
    theta: float = 10.0
    z_init: np.ndarray | None = None
    adaptive: bool = True
    divergence_cap: float = 1e8

    def __post_init__(self):
        if not 0 < self.beta2 < 1:
            raise ValueError(f"beta2 must lie in (0, 1), got {self.beta2!r}")
        _check_positive(theta=self.theta, divergence_cap=self.divergence_cap)

    @property
    def horizon(self) -> int:
        return self.schedule.horizon


@dataclass
class PrimalState:
    """Primal iterate with momentum and second-moment accumulators."""

    x: np.ndarray
    m: np.ndarray
    v: np.ndarray
    v_hat: np.ndarray

    @classmethod
    def fresh(cls, x0):
        x0 = np.asarray(x0, dtype=float).copy()
        return cls(x=x0, m=np.zeros_like(x0), v=np.zeros_like(x0), v_hat=np.zeros_like(x0))


@dataclass
class DualState:
    """Multiplier iterate (non-negative orthant)."""

    z: np.ndarray

    @classmethod
    def fresh(cls, num_constraints):
        return cls(z=np.zeros(int(num_constraints)))


def _adaptive_step(state, g, blocks, steps, params, box):
    """``state.x <- proj_{box, sqrt(vhat)}(state.x - steps * direction)``, after updating
    ``state.m`` from the raw gradient ``g`` and, when adaptive, ``state.v`` and
    ``state.v_hat`` from ``g``'s ``blocks``, each clipped to theta on its own."""
    b1, b2 = params.schedule.beta1, params.beta2
    state.m = b1 * state.m + (1.0 - b1) * g
    if not params.adaptive:
        root, direction = np.ones_like(state.m), state.m
    else:
        clipped = [clip_gradient(block, params.theta) for block in blocks]
        g_hat = clipped[0] if len(clipped) == 1 else np.concatenate(clipped)
        state.v = b2 * state.v + (1.0 - b2) * (g_hat * g_hat)
        state.v_hat = np.maximum(state.v_hat, state.v)
        # 0/0 = 0: coordinates never touched by gradient energy do not move.
        root = np.sqrt(state.v_hat)
        direction = np.divide(state.m, root, out=np.zeros_like(state.m), where=root > 0)
    state.x = project_box_weighted(state.x - steps * direction, box, root)


def aprid_step(pstate, dstate, sample, alpha_k, rho_k, params, box):
    """One primal-dual update in place; returns the sampled multipliers
    ``z[sample.w_support]`` before and after it."""
    _adaptive_step(pstate, sample.u, (sample.u,), alpha_k, params, box)
    # only the sampled multipliers move, so only they can turn non-finite
    z_old = dstate.z[sample.w_support]
    z_new = np.maximum(z_old + rho_k * sample.w, 0.0)
    dstate.z[sample.w_support] = z_new
    if not np.isfinite(z_new).all():
        raise DivergenceError("non-finite multiplier after update")
    return z_old, z_new


class _NormWatch:
    """``norm() > cap`` after in-place changes of ``z`` on a support, in
    O(|support|): a running ``||z||^2`` is replaced by the exact ``norm()``
    whenever it comes within a relative 1e-6 of ``cap^2``, far above its
    rounding drift, so it trips at the same change, with the same norm, as
    ``norm()`` taken after every change would."""

    def __init__(self, z, cap):
        self.z, self.cap = z, cap
        self._sq = float(serial_matmul(z, z))
        self._near = (1.0 - 1e-6) * cap * cap

    def norm(self):
        """``||z||`` by ``serial_matmul``: the bits of ``np.linalg.norm(z)`` up to
        4096 multipliers, a per-block sum within rounding of it beyond."""
        return math.sqrt(serial_matmul(self.z, self.z))

    def exceeded(self, old, new):
        """``||z||`` if it passes the cap now that ``old`` became ``new``, else None."""
        self._sq += float((new - old) @ (new + old))
        if self._sq < self._near:
            return None
        norm = self.norm()
        self._sq = norm * norm
        return norm if norm > self.cap else None


def _initial_x(box):
    return box.project(np.zeros(box.dim))


def _initial_z(params, num_constraints):
    if params.z_init is None:
        return np.zeros(num_constraints)
    z = np.asarray(params.z_init, dtype=float).copy()
    if z.shape != (num_constraints,):
        raise ValueError(f"z_init shape {z.shape} does not match {num_constraints} constraints")
    if not np.all(np.isfinite(z)):
        raise ValueError("z_init must be finite")
    if np.any(z < 0):
        raise ValueError("z_init must be non-negative")
    return z


def aprid_run(problem, params, batches, seed, checkpoints=None, f0_ref=None,
              timing="algo") -> RunResult:
    """Full adaptive primal-dual run on a constrained problem.

    Evaluates the ergodic average at each checkpoint on a fresh evaluation
    stream derived from ``seed``; with ``timing='algo'`` (default) that
    evaluation cost is excluded from ``wall_s``.

    Raises DivergenceError (carrying the completed checkpoint records) when
    the multiplier norm passes ``params.divergence_cap`` or any iterate goes
    non-finite.
    """
    schedule = params.schedule.fresh()
    pstate = PrimalState.fresh(_initial_x(problem.box))
    dstate = DualState(z=_initial_z(params, problem.num_constraints))
    avg_x = ErgodicAverager(schedule.beta1)
    avg_z = LazyErgodicAverager(dstate.z, schedule)
    watch = _NormWatch(dstate.z, params.divergence_cap)

    def step(k, rng):
        alpha_k, rho_k = schedule.next()
        sample = sample_lagrangian_subgradient(problem, pstate.x, dstate.z, batches, rng)
        avg_x.push(pstate.x, alpha_k)
        avg_z.push()
        z_old, z_new = aprid_step(pstate, dstate, sample, alpha_k, rho_k, params, problem.box)
        avg_z.change(sample.w_support, z_new - z_old)
        znorm = watch.exceeded(z_old, z_new)
        if znorm is not None:
            raise DivergenceError(
                f"multiplier norm {znorm:.3e} exceeded divergence cap at step {k}")

    lanes = [Lane("aprid", avg_x, avg_z.finalize)]
    return drive(problem, seed, schedule.horizon, step, lanes, checkpoints, f0_ref, timing,
                 batches)[0]


# ---------------------------------------------------------------------------
# minimax variant


def apriad_step(state, sample, alpha_k, rho_k, params, box):
    """One adaptive descent-ascent update of the stacked ``state.x = (x, z)`` in place,
    over the product ``box``."""
    steps = np.full(state.x.size, alpha_k)
    steps[sample.u.size:] = -rho_k  # z ascends
    g = np.concatenate([sample.u, sample.w])
    _adaptive_step(state, g, (sample.u, sample.w), steps, params, box)


def apriad_run(problem, params, seed, checkpoints=None, timing="algo") -> RunResult:
    """Adaptive descent-ascent on a saddle problem.

    Only the ``constant`` and ``sqrt`` schedule kinds keep the primal and
    dual steps proportional, which the analysis of this variant assumes; a
    schedule with a drifting alpha/rho ratio is accepted with a warning.
    Checkpoints record the exact primal-dual gap of the averaged pair.
    """
    schedule = params.schedule.fresh()
    ratios = schedule.alpha_sequence() / schedule.rho_sequence()
    if ratios.max() - ratios.min() > 1e-9 * abs(ratios[0]):
        warnings.warn(
            f"schedule kind {schedule.kind!r} does not keep alpha_k/rho_k constant; "
            "the minimax solver's guarantees assume proportional steps",
            stacklevel=2,
        )
    bx, bz, n = problem.box_x, problem.box_z, problem.box_x.dim
    box = BoxSet(np.concatenate([bx.lower, bz.lower]), np.concatenate([bx.upper, bz.upper]))
    state = PrimalState.fresh(_initial_x(box))
    avg_x = ErgodicAverager(schedule.beta1)
    avg_z = ErgodicAverager(schedule.beta1)

    def step(k, rng):
        alpha_k, rho_k = schedule.next()
        x, z = state.x[:n], state.x[n:]
        sample = sample_minimax_subgradient(problem, x, z, rng)
        avg_x.push(x, alpha_k)
        avg_z.push(z, alpha_k)
        apriad_step(state, sample, alpha_k, rho_k, params, box)
        if not (np.isfinite(state.m).all() and np.isfinite(state.v).all()):
            raise DivergenceError("non-finite accumulator state")

    lanes = [Lane("apriad", avg_x, avg_z.finalize, gap=True)]
    return drive(problem, seed, schedule.horizon, step, lanes, checkpoints, None, timing)[0]


def primal_dual_gap(problem, x_bar, z_bar) -> float:
    """Exact saddle gap ``max_z L(x_bar, z) - min_x L(x, z_bar)``.

    Needs a problem with exact inner maximization/minimization (bilinear
    objectives over boxes qualify); anything else cannot report this metric
    and raises.
    """
    if not hasattr(problem, "gap"):
        raise NotImplementedError(
            f"problem kind {getattr(problem, 'kind', '?')!r} has no exact inner "
            "solver; the primal-dual gap is unavailable"
        )
    return float(problem.gap(x_bar, z_bar))


# ---------------------------------------------------------------------------
# run driver


@dataclass
class Lane:
    """One trajectory a run reports.

    ``avg_x`` is the ergodic average of the primal iterate, pushed by the
    method's step; ``z_bar`` returns the dual output reported with it (None
    for primal-only methods). Checkpoints evaluate the averaged iterate on
    evaluation stream ``eval_lane``, or with ``gap`` set score the exact
    primal-dual gap of ``(x_bar, z_bar())``; while the average is still
    empty they record the flag ``<name>_absent``.
    """

    name: str
    avg_x: ErgodicAverager
    z_bar: Callable[[], np.ndarray] | None = None
    eval_lane: int = 0
    gap: bool = False


def _score(problem, lane, k, seed, f0_ref) -> CheckpointRecord:
    """Checkpoint record (without wall time) of ``lane``'s average at step ``k``."""
    if lane.avg_x.count == 0:
        return CheckpointRecord(iteration=k, flags=f"{lane.name}_absent")
    x_bar = lane.avg_x.finalize()
    if lane.gap:
        return CheckpointRecord(iteration=k, gap=primal_dual_gap(problem, x_bar, lane.z_bar()))
    ev = problem.evaluate_full(x_bar, seed=eval_seed(seed, k, lane.eval_lane))
    err = abs(ev.objective - f0_ref) if f0_ref is not None else float("nan")
    return CheckpointRecord(iteration=k, obj_err=err, viol_avg=ev.viol_avg,
                            viol_max=ev.viol_max, objective=ev.objective)


def drive(problem, seed, horizon, step, lanes, checkpoints, f0_ref, timing,
          batches=None) -> list:
    """Run ``step(1, rng)..step(horizon, rng)`` on ``seed``'s training stream ``rng``
    and return one RunResult per lane; given ``batches``, ``rng`` reads ahead ``draw_plan``.

    ``wall_s`` counts the steps and, with ``timing='total'``, the checkpoint
    scoring too. A DivergenceError raised by a step leaves with
    ``iteration`` set to that step and ``partial_results`` holding each
    lane's completed records as a RunResult named after the lane.
    """
    if timing not in ("algo", "total"):
        raise ValueError(f"timing must be 'algo' or 'total', got {timing!r}")
    cpset = set(_resolve_checkpoints(checkpoints, horizon))
    records = [[] for _ in lanes]
    wall = 0.0
    plan = getattr(problem, "draw_plan", None)
    rng = training_rng(seed, plan(batches.j0, batches.j1) if batches and plan else (), horizon)
    try:
        for k in range(1, horizon + 1):
            tic = time.perf_counter()
            step(k, rng)
            wall += time.perf_counter() - tic
            rng.end_step(k)
            if k in cpset:
                tic = time.perf_counter()
                scored = [_score(problem, lane, k, seed, f0_ref) for lane in lanes]
                if timing == "total":
                    wall += time.perf_counter() - tic
                for rec, lane_records in zip(scored, records):
                    rec.wall_s = wall
                    lane_records.append(rec)
    except DivergenceError as exc:
        exc.iteration = k
        exc.partial_results = [RunResult(algorithm=lane.name, seed=seed, records=recs)
                               for lane, recs in zip(lanes, records)]
        raise
    return [RunResult(algorithm=lane.name, seed=seed, records=recs,
                      x_bar=lane.avg_x.finalize() if lane.avg_x.count else None,
                      z_bar=lane.z_bar() if lane.z_bar else None, wall_total=wall)
            for lane, recs in zip(lanes, records)]
