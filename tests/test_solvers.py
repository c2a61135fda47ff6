import math
import warnings
from unittest import mock

import numpy as np
import pytest

from aprid import (
    BatchSizes,
    BilinearSaddleProblem,
    BoxSet,
    CsaParams,
    Dataset,
    DivergenceError,
    DualState,
    ExpectationQcqpProblem,
    FiniteSumQcqpProblem,
    FullEval,
    GradSample,
    MsaParams,
    NeymanPearsonProblem,
    PrimalState,
    SolverParams,
    StepSchedule,
    aprid_run,
    aprid_step,
    apriad_run,
    apriad_step,
    csa_run,
    make_bilinear_saddle,
    make_npc,
    make_qcqp_finite_sum,
    make_synthetic_dataset,
    msa_run,
    preprocess,
    primal_dual_gap,
    sample_lagrangian_subgradient,
    sample_minimax_subgradient,
    training_rng,
)

from aprid.kernels import clip_gradient, project_box_weighted
from aprid.solvers import _NormWatch
from brute import double_sum_average


@pytest.fixture(scope="module")
def qcqp():
    return make_qcqp_finite_sum(5, 3, 30, 20, seed=4)


def test_solver_params_validation():
    with pytest.raises(ValueError):
        SolverParams(StepSchedule.constant(10.0, 1.0, 10, 0.9), beta2=1.0)
    with pytest.raises(ValueError):
        SolverParams(StepSchedule.constant(10.0, 1.0, 10, 0.9), theta=0.0)
    with pytest.raises(ValueError):
        SolverParams(StepSchedule.constant(10.0, 1.0, 10, 0.9), divergence_cap=0.0)
    params = SolverParams(StepSchedule.constant(10.0, 1.0, 10, 0.9))
    assert params.horizon == 10 and params.schedule.kind == "constant"
    assert SolverParams(StepSchedule.sqrt(1.0, 1.0, 10, 0.9)).schedule.kind == "sqrt"
    assert SolverParams(StepSchedule.sqrt_log(10.0, 1.0, 10, 0.9)).schedule.kind == "sqrt_log"


def test_momentum_keeps_raw_gradient_second_moment_uses_clipped():
    # the clip applies only inside the second-moment update
    box = BoxSet.symmetric(2, 10.0)
    params = SolverParams(StepSchedule.constant(10.0, 1.0, 5, 0.9), beta2=0.5, theta=5.0)
    pstate = PrimalState.fresh(np.zeros(2))
    dstate = DualState.fresh(1)
    sample = GradSample(u=np.array([60.0, 80.0]), w=np.zeros(1), w_support=np.array([0]))
    aprid_step(pstate, dstate, sample, 0.1, 0.1, params, box)
    assert np.allclose(pstate.m, 0.1 * np.array([60.0, 80.0]), rtol=1e-15)
    u_hat = np.array([3.0, 4.0])  # norm 100 clipped to 5
    assert np.allclose(pstate.v, 0.5 * u_hat**2, rtol=1e-15)
    assert np.array_equal(pstate.v_hat, pstate.v)


def test_untouched_coordinate_does_not_move():
    # 0/0 = 0: no gradient energy in a coordinate means no step there
    box = BoxSet.symmetric(2, 10.0)
    params = SolverParams(StepSchedule.constant(10.0, 1.0, 5, 0.9))
    pstate = PrimalState.fresh(np.array([1.0, 2.0]))
    dstate = DualState.fresh(1)
    sample = GradSample(u=np.array([1.0, 0.0]), w=np.zeros(1), w_support=np.array([0]))
    aprid_step(pstate, dstate, sample, 0.5, 0.5, params, box)
    assert pstate.x[1] == 2.0
    assert pstate.x[0] != 1.0


def test_state_invariants_along_a_run(qcqp):
    params = SolverParams(StepSchedule.constant(10.0, 1.0, 300, 0.9), theta=2.0)
    sch = params.schedule.fresh()
    pstate = PrimalState.fresh(qcqp.box.project(np.zeros(5)))
    dstate = DualState.fresh(20)
    rng = training_rng(5)
    batches = BatchSizes(5, 5, 10)
    prev = pstate.v_hat.copy()
    for _ in range(300):
        a, r = sch.next()
        s = sample_lagrangian_subgradient(qcqp, pstate.x, dstate.z, batches, rng)
        aprid_step(pstate, dstate, s, a, r, params, qcqp.box)
        assert np.all(pstate.v_hat >= prev)
        assert np.all(pstate.v_hat <= params.theta**2 * (1 + 1e-12))
        assert qcqp.box.contains(pstate.x)
        assert np.all(dstate.z >= 0)
        prev = pstate.v_hat.copy()


def test_reduces_to_projected_stochastic_subgradient(qcqp):
    # beta1 = 0 and adaptive off collapse the update to plain PGD, bit for bit
    K = 50
    batches = BatchSizes(4, 4, 8)
    params = SolverParams(StepSchedule.constant(2.0, 1.0, K, 0.0), adaptive=False,
                          z_init=np.full(20, 0.5))
    res = aprid_run(qcqp, params, batches, seed=21, checkpoints=[K])
    sch = params.schedule.fresh()
    rng = training_rng(21)
    x = qcqp.box.project(np.zeros(5))
    z = np.full(20, 0.5)
    xs, zs = [], []
    for _ in range(K):
        a, r = sch.next()
        s = sample_lagrangian_subgradient(qcqp, x, z, batches, rng)
        xs.append(x.copy())
        zs.append(z.copy())
        x = qcqp.box.project(x - a * s.u)
        z = z.copy()
        z[s.w_support] = np.maximum(z[s.w_support] + r * s.w, 0.0)
    assert np.allclose(res.x_bar, np.mean(xs, axis=0), rtol=1e-12)
    assert np.allclose(res.z_bar, np.mean(zs, axis=0), rtol=1e-12)


def test_ergodic_average_matches_double_sum(qcqp):
    K = 40
    batches = BatchSizes(4, 4, 8)
    params = SolverParams(StepSchedule.constant(3.0, 1.0, K, 0.9), z_init=np.full(20, 0.5))
    res = aprid_run(qcqp, params, batches, seed=33, checkpoints=[K])
    sch = params.schedule.fresh()
    rng = training_rng(33)
    pstate = PrimalState.fresh(qcqp.box.project(np.zeros(5)))
    dstate = DualState(z=np.full(20, 0.5))
    xs, zs, alphas = [], [], []
    for _ in range(K):
        a, r = sch.next()
        s = sample_lagrangian_subgradient(qcqp, pstate.x, dstate.z, batches, rng)
        xs.append(pstate.x.copy())
        zs.append(dstate.z.copy())
        alphas.append(a)
        aprid_step(pstate, dstate, s, a, r, params, qcqp.box)
    assert np.allclose(res.x_bar, double_sum_average(xs, alphas, 0.9), rtol=1e-10)
    assert np.allclose(res.z_bar, double_sum_average(zs, alphas, 0.9), rtol=1e-10)


def test_checkpoint_records_and_determinism(qcqp):
    params = SolverParams(StepSchedule.constant(3.0, 1.0, 60, 0.9))
    batches = BatchSizes(4, 4, 8)
    res = aprid_run(qcqp, params, batches, seed=1, checkpoints=[10, 30, 60], f0_ref=0.0)
    assert [r.iteration for r in res.records] == [10, 30, 60]
    assert all(np.isfinite(r.obj_err) for r in res.records)
    again = aprid_run(qcqp, params, batches, seed=1, checkpoints=[10, 30, 60], f0_ref=0.0)
    for a, b in zip(res.records, again.records):
        assert (a.iteration, a.obj_err, a.viol_avg, a.viol_max) == (
            b.iteration, b.obj_err, b.viol_avg, b.viol_max)
    assert np.array_equal(res.x_bar, again.x_bar)
    other_seed = aprid_run(qcqp, params, batches, seed=2, checkpoints=[10, 30, 60], f0_ref=0.0)
    assert not np.array_equal(res.x_bar, other_seed.x_bar)


def test_missing_reference_gives_nan_errors(qcqp):
    params = SolverParams(StepSchedule.constant(3.0, 1.0, 20, 0.9))
    res = aprid_run(qcqp, params, BatchSizes(4, 4, 8), seed=1, checkpoints=[20])
    assert np.isnan(res.records[0].obj_err)
    assert np.isfinite(res.records[0].viol_max)


def test_checkpoint_validation(qcqp):
    params = SolverParams(StepSchedule.constant(3.0, 1.0, 20, 0.9))
    with pytest.raises(ValueError):
        aprid_run(qcqp, params, BatchSizes(4, 4, 8), seed=1, checkpoints=[0, 10])
    with pytest.raises(ValueError):
        aprid_run(qcqp, params, BatchSizes(4, 4, 8), seed=1, checkpoints=[10, 21])
    with pytest.raises(ValueError, match="checkpoint list is empty"):
        aprid_run(qcqp, params, BatchSizes(4, 4, 8), seed=1, checkpoints=[])
    with pytest.raises(ValueError):
        aprid_run(qcqp, params, BatchSizes(4, 4, 8), seed=1, timing="sometimes")


def test_default_checkpoints_cover_the_horizon(qcqp):
    params = SolverParams(StepSchedule.constant(3.0, 1.0, 500, 0.9))
    res = aprid_run(qcqp, params, BatchSizes(4, 4, 8), seed=1)
    iters = [r.iteration for r in res.records]
    assert iters == sorted(set(iters))
    assert iters[-1] == 500


def test_z_init_validation(qcqp):
    with pytest.raises(ValueError):
        # wrong shape
        params = SolverParams(StepSchedule.constant(10.0, 1.0, 10, 0.9), z_init=np.full(3, 0.1))
        aprid_run(qcqp, params, BatchSizes(4, 4, 8), seed=1)
    with pytest.raises(ValueError):
        params = SolverParams(StepSchedule.constant(10.0, 1.0, 10, 0.9), z_init=np.full(20, -0.1))
        aprid_run(qcqp, params, BatchSizes(4, 4, 8), seed=1)
    for bad in (np.inf, np.nan):
        with pytest.raises(ValueError, match="finite"):
            params = SolverParams(StepSchedule.constant(10.0, 1.0, 10, 0.9),
                                  z_init=np.full(20, bad))
            aprid_run(qcqp, params, BatchSizes(4, 4, 8), seed=1)


def test_divergence_cap_carries_context(qcqp):
    params = SolverParams(StepSchedule.constant(3.0, 1.0, 200, 0.9), divergence_cap=1e-6,
                          z_init=np.full(20, 1.0))
    with pytest.raises(DivergenceError) as excinfo:
        aprid_run(qcqp, params, BatchSizes(4, 4, 8), seed=1)
    assert excinfo.value.iteration == 1
    assert excinfo.value.partial_results[0].records == []


def test_divergence_step_matches_dense_norm_replay(qcqp):
    # Sparse updates take ||z|| past the cap at a step k > 1. The run must stop
    # where a replay taking the dense norm after every step does, with the same
    # message and records. A cap equal to the norm at one step (not passed
    # there) or one ulp below it (passed there) needs the exact recompute.
    batches, cps = BatchSizes(4, 4, 8), [5, 10, 20, 50, 200]
    params = SolverParams(StepSchedule.constant(3.0, 1.0, 200, 0.9))
    full = aprid_run(qcqp, params, batches, seed=1, checkpoints=cps, f0_ref=0.5)
    sch, rng = params.schedule.fresh(), training_rng(1)
    pstate, dstate = PrimalState.fresh(qcqp.box.project(np.zeros(5))), DualState.fresh(20)
    norms = []
    for _ in range(200):
        a, r = sch.next()
        s = sample_lagrangian_subgradient(qcqp, pstate.x, dstate.z, batches, rng)
        aprid_step(pstate, dstate, s, a, r, params, qcqp.box)
        norms.append(float(np.linalg.norm(dstate.z)))
    at = next(n for n in norms if n > 1.9)
    for cap in (at, np.nextafter(at, 0.0)):
        k = next(k for k, n in enumerate(norms, 1) if n > cap)
        assert k > 5
        capped = SolverParams(StepSchedule.constant(3.0, 1.0, 200, 0.9), divergence_cap=cap)
        with pytest.raises(DivergenceError) as excinfo:
            aprid_run(qcqp, capped, batches, seed=1, checkpoints=cps, f0_ref=0.5)
        err = excinfo.value
        assert err.iteration == k
        assert str(err) == (
            f"multiplier norm {norms[k - 1]:.3e} exceeded divergence cap at step {k}")
        got = [(r.iteration, r.obj_err, r.viol_max, r.objective)
               for r in err.partial_results[0].records]
        assert got == [(r.iteration, r.obj_err, r.viol_max, r.objective)
                       for r in full.records if r.iteration < k]


def test_norm_watch_trips_exactly_where_the_dense_norm_does():
    # A running ||z||^2 is off from the exact one by a few ulps; at a cap equal
    # to (or one ulp below) the exact norm of some step, only the exact
    # recompute near the cap decides the same way as np.linalg.norm.
    rng = np.random.default_rng(8)
    z0 = rng.uniform(0.0, 1.0, 50)
    changes, norms, z = [], [], z0.copy()
    for _ in range(400):
        support = rng.choice(50, 3, replace=False)
        old = z[support]
        z[support] = old + rng.uniform(0.0, 0.1, 3)
        changes.append((support, old, z[support].copy()))
        norms.append(np.linalg.norm(z))
    for target in norms[::20]:
        for cap in (target, np.nextafter(target, 0.0)):
            z = z0.copy()
            watch = _NormWatch(z, cap)
            for k, (support, old, new) in enumerate(changes, 1):
                z[support] = new
                dense = float(np.linalg.norm(z))
                assert watch.exceeded(old, new) == (dense if dense > cap else None)
                if dense > cap:
                    break
            assert dense > cap


def test_minimax_blocks_clip_separately():
    # huge min-block gradient, tiny max-block gradient: only the former is
    # rescaled before entering the second moment
    prob = BilinearSaddleProblem(np.zeros((2, 2)), b=np.array([30.0, 40.0]),
                                 c=np.array([-0.2, 0.0]))
    params = SolverParams(StepSchedule.sqrt(1.0, 1.0, 5, 0.9), beta2=0.5, theta=5.0)
    state = PrimalState.fresh(np.zeros(4))  # (x, z) stacked
    sample = sample_minimax_subgradient(prob, state.x[:2], state.x[2:], training_rng(0))
    assert np.array_equal(sample.u, [30.0, 40.0])  # sigma = 0, exact grads
    assert np.array_equal(sample.w, [0.2, 0.0])
    apriad_step(state, sample, 0.1, 0.1, params, BoxSet.symmetric(4, 1.0))
    assert np.allclose(state.m[:2], 0.1 * np.array([30.0, 40.0]), rtol=1e-15)
    assert np.allclose(state.v[:2], 0.5 * np.array([9.0, 16.0]), rtol=1e-15)  # clipped (3,4)
    assert np.allclose(state.v[2:], 0.5 * np.array([0.04, 0.0]), rtol=1e-15)  # raw
    # descent in x, ascent in z, untouched z coordinate pinned by 0/0 = 0
    assert np.all(state.x[:2] < 0)
    assert state.x[2] > 0 and state.x[3] == 0


def _joint_apriad_step(state, sample, alpha_k, rho_k, params, box_x, box_z):
    """The minimax update as written before apriad stepped one PrimalState over (x, z):
    its own x and z, moments stacked over them, each block clipped on its own, a descent
    step in x and an ascent step in z, each projected onto its own box."""
    n, b1, b2 = state.x.size, params.schedule.beta1, params.beta2
    g = np.concatenate([sample.u, sample.w])
    state.m = b1 * state.m + (1.0 - b1) * g
    if params.adaptive:
        g_hat = np.concatenate([clip_gradient(sample.u, params.theta),
                                clip_gradient(sample.w, params.theta)])
        state.v = b2 * state.v + (1.0 - b2) * (g_hat * g_hat)
        state.v_hat = np.maximum(state.v_hat, state.v)
        root = np.sqrt(state.v_hat)
        direction = np.divide(state.m, root, out=np.zeros_like(state.m), where=root > 0)
    else:
        root, direction = np.ones_like(state.m), state.m
    state.x = project_box_weighted(state.x - alpha_k * direction[:n], box_x, root[:n])
    state.z = project_box_weighted(state.z + rho_k * direction[n:], box_z, root[n:])


@pytest.mark.parametrize("adaptive", [True, False], ids=["adaptive", "plain"])
@pytest.mark.parametrize("theta", [10.0, 0.05])
def test_apriad_step_is_the_joint_update_bit_for_bit(adaptive, theta):
    # noisy gradients, boxes that bind, and at theta = 0.05 a clip that fires on both blocks
    base = make_bilinear_saddle(6, 4, seed=12, noise_sigma=0.5)
    box_x = BoxSet(np.full(6, -0.3), np.full(6, 0.2))
    box_z = BoxSet(np.full(4, -0.1), np.full(4, 0.4))
    prob = BilinearSaddleProblem(base.a_mat, base.b, base.c, 0.5, box_x, box_z)
    params = SolverParams(StepSchedule.sqrt(1.0, 0.7, 400, 0.9), theta=theta, adaptive=adaptive)
    schedule = params.schedule.fresh()
    box = BoxSet(np.r_[box_x.lower, box_z.lower], np.r_[box_x.upper, box_z.upper])
    state = PrimalState.fresh(box.project(np.zeros(10)))
    joint = PrimalState.fresh(box.project(np.zeros(10)))
    joint.x, joint.z = joint.x[:6].copy(), joint.x[6:].copy()
    rng, joint_rng = training_rng(12), training_rng(12)
    for k in range(1, 401):
        alpha_k, rho_k = schedule.next()
        sample = sample_minimax_subgradient(prob, state.x[:6], state.x[6:], rng)
        apriad_step(state, sample, alpha_k, rho_k, params, box)
        _joint_apriad_step(joint, sample_minimax_subgradient(prob, joint.x, joint.z, joint_rng),
                           alpha_k, rho_k, params, box_x, box_z)
        assert state.x.tobytes() == np.r_[joint.x, joint.z].tobytes(), k
        for name in ("m", "v", "v_hat"):
            assert getattr(state, name).tobytes() == getattr(joint, name).tobytes(), (k, name)
    # the run crossed both boxes' edges and moved z both ways
    assert (state.x[6:] == 0.4).any() or (state.x[6:] == -0.1).any()


def test_minimax_ratio_drift_warning():
    prob = make_bilinear_saddle(3, 3, seed=2)
    drifting = SolverParams(StepSchedule.sqrt_log(1.0, 1.0, 30, 0.9))
    with pytest.warns(UserWarning, match="proportional"):
        apriad_run(prob, drifting, seed=1, checkpoints=[30])
    proportional = SolverParams(StepSchedule.sqrt(1.0, 2.0, 30, 0.9))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        apriad_run(prob, proportional, seed=1, checkpoints=[30])


def test_minimax_run_records_and_determinism():
    prob = make_bilinear_saddle(4, 4, seed=7, noise_sigma=0.1)
    params = SolverParams(StepSchedule.constant(1.0, 1.0, 100, 0.9))
    res = apriad_run(prob, params, seed=3, checkpoints=[10, 100])
    assert [r.iteration for r in res.records] == [10, 100]
    assert all(r.gap >= -1e-9 for r in res.records)
    assert all(np.isnan(r.obj_err) for r in res.records)  # no scalar objective
    assert prob.box_x.contains(res.x_bar)
    assert prob.box_z.contains(res.z_bar)
    again = apriad_run(prob, params, seed=3, checkpoints=[10, 100])
    assert [r.gap for r in res.records] == [r.gap for r in again.records]
    assert np.array_equal(res.x_bar, again.x_bar)


def test_gap_metric_requires_exact_inner_solver(qcqp):
    with pytest.raises(NotImplementedError):
        primal_dual_gap(qcqp, np.zeros(5), np.zeros(20))


@pytest.mark.parametrize("k, theta", [(1, 10.0), (-2, 10.0), (2, 0.5)],
                         ids=["4x", "1/16x", "16x-clipped"])
def test_aprid_obeys_the_objective_scaling_law_bit_for_bit(k, theta):
    # f0 and every f_j times s = 4^k (H, c by 2^k; Q, a, b by 4^k), with rho / s, theta * s
    # and f0_ref * s: powers of two scale exactly, so the averages come out with the same
    # bits and every metric exactly s times as large. The clip acts on most steps at
    # theta = 10 and at 0.5; dropping the rescaling of rho or of theta breaks the law
    base = make_qcqp_finite_sum(10, 5, 200, 500, seed=7)
    scaled = FiniteSumQcqpProblem(2.0**k * base.h, 2.0**k * base.c, 4.0**k * base.q,
                                  4.0**k * base.a, 4.0**k * base.b, box=base.box)
    s, horizon, f0_ref = 4.0**k, 2000, 0.25
    runs = [aprid_run(prob, SolverParams(StepSchedule.constant(10.0, rho, horizon, 0.9), theta=th),
                      BatchSizes(), seed=3, checkpoints=[500, horizon], f0_ref=ref, timing="algo")
            for prob, rho, th, ref in ((base, 1.0, theta, f0_ref),
                                       (scaled, 1.0 / s, s * theta, s * f0_ref))]
    want, got = runs
    assert got.x_bar.tobytes() == want.x_bar.tobytes()
    assert got.z_bar.tobytes() == want.z_bar.tobytes()
    assert want.final_record().viol_max > 0.0  # the law is not read off zeros only
    for w, g in zip(want.records, got.records):
        for name in ("obj_err", "viol_avg", "viol_max"):
            assert getattr(g, name) == s * getattr(w, name), (w.iteration, name)


@pytest.mark.parametrize("alpha", [10.0, 1000.0])
@pytest.mark.parametrize("k", [1, -2, 3])
def test_msa_obeys_the_objective_scaling_law_bit_for_bit(k, alpha):
    # f0 and every f_j times s = 4^k (H, c by 2^k; Q, a, b by 4^k), with alpha / s and
    # rho / s and z_cap as it was: z and its updates keep their bits, so x_bar and z_bar
    # come out with the same bits and every metric exactly s times as large. The law is
    # read where the cap binds and the constraints are violated, not off zeros only
    base = make_qcqp_finite_sum(10, 5, 200, 500, seed=7)
    scaled = FiniteSumQcqpProblem(2.0**k * base.h, 2.0**k * base.c, 4.0**k * base.q,
                                  4.0**k * base.a, 4.0**k * base.b, box=base.box)
    s, horizon, checkpoints = 4.0**k, 2000, [1, 5, 20, 100, 500, 2000]
    want, got = (msa_run(prob, MsaParams(horizon, alpha=alpha / scale, rho=1.0 / scale),
                         BatchSizes(), seed=3, checkpoints=checkpoints, f0_ref=0.25 * scale,
                         timing="algo")
                 for prob, scale in ((base, 1.0), (scaled, s)))
    assert got.x_bar.tobytes() == want.x_bar.tobytes()
    assert got.z_bar.tobytes() == want.z_bar.tobytes()
    assert want.z_bar.max() == MsaParams(horizon).z_cap
    assert [r.iteration for r in want.records] == checkpoints
    assert want.records[3].viol_max > 0.0
    for w, g in zip(want.records, got.records):
        for name in ("obj_err", "viol_avg", "viol_max"):
            assert getattr(g, name) == s * getattr(w, name), (w.iteration, name)


@pytest.mark.parametrize("eta_tol", [0.04, 2.0])
@pytest.mark.parametrize("k", [1, -2, 3])
def test_csa_obeys_the_objective_scaling_law_bit_for_bit(k, eta_tol, monkeypatch):
    # f0 and every f_j times s = 4^k (H, c by 2^k; Q, a, b by 4^k), with gamma / s, eta_tol
    # * s and f0_ref * s: each step's violation estimate is s times as large, so it takes
    # the same branch, and its direction s times as large, so the step keeps its bits.
    # Both lanes' x_bar come out with the same bits and every metric exactly s times as
    # large. Both branches are taken (9 and 209 objective steps of 2000), and csa2 reads
    # a violation at step 100
    base = make_qcqp_finite_sum(10, 5, 200, 500, seed=7)
    scaled = FiniteSumQcqpProblem(2.0**k * base.h, 2.0**k * base.c, 4.0**k * base.q,
                                  4.0**k * base.a, 4.0**k * base.b, box=base.box)
    s, horizon, checkpoints = 4.0**k, 2000, [1, 5, 20, 100, 500, 2000]
    for prob in (base, scaled):  # counts the objective steps
        monkeypatch.setattr(prob, "sample_objective_grad",
                            mock.Mock(wraps=prob.sample_objective_grad))
    want, got = (csa_run(prob, CsaParams(horizon, gamma=10.0 / scale, eta_tol=eta_tol * scale),
                         BatchSizes(), seed=3, checkpoints=checkpoints, f0_ref=0.25 * scale,
                         timing="algo")
                 for prob, scale in ((base, 1.0), (scaled, s)))
    objective_steps = base.sample_objective_grad.call_count
    assert scaled.sample_objective_grad.call_count == objective_steps
    assert 0 < objective_steps < horizon
    assert want[1].records[3].viol_max > 0.0
    for w_lane, g_lane in zip(want, got):
        assert g_lane.x_bar.tobytes() == w_lane.x_bar.tobytes()
        assert [r.iteration for r in w_lane.records] == checkpoints
        for w, g in zip(w_lane.records, g_lane.records):
            for name in ("obj_err", "viol_avg", "viol_max"):
                assert getattr(g, name) == s * getattr(w, name), (w.iteration, name)


def _variable_scaled(base, t):
    """x = t y on a finite-sum instance: H / t, Q / t^2, a / t and the box times t leave
    every f_j(x) = f_j(y) and f0, and make every gradient 1/t as large."""
    return FiniteSumQcqpProblem(base.h / t, base.c, base.q / t**2, base.a / t, base.b,
                                box=BoxSet(t * base.box.lower, t * base.box.upper))


@pytest.mark.parametrize("t, theta", [(8.0, 10.0), (0.25, 10.0), (8.0, 0.5), (0.25, 0.5)],
                         ids=["8x", "1/4x", "8x-theta0.5", "1/4x-theta0.5"])
def test_aprid_obeys_the_variable_scaling_law_bit_for_bit(t, theta):
    # x = t y: H / t, Q / t^2, a / t and the box times t leave every f_j(x) = f_j(y), with
    # alpha * t and theta / t. Powers of two scale exactly, so x_bar comes out exactly t
    # times as large, and z_bar and every CSV row with the same bits. The clip acts on
    # over 99 % of the steps at both theta; dropping the rescaling of alpha or of theta
    # breaks the law
    base = make_qcqp_finite_sum(10, 5, 200, 500, seed=7)
    scaled = _variable_scaled(base, t)
    horizon = 2000
    want, got = (aprid_run(prob, SolverParams(StepSchedule.constant(alpha, 1.0, horizon, 0.9),
                                              theta=th),
                           BatchSizes(), seed=3, checkpoints=[500, horizon], f0_ref=0.25,
                           timing="algo")
                 for prob, alpha, th in ((base, 10.0, theta), (scaled, 10.0 * t, theta / t)))
    assert got.x_bar.tobytes() == (t * want.x_bar).tobytes()
    assert got.z_bar.tobytes() == want.z_bar.tobytes()
    assert want.final_record().viol_max > 0.0  # the law is not read off zeros only
    assert [r.csv_values(zero_wall=True) for r in got.records] == \
        [r.csv_values(zero_wall=True) for r in want.records]


@pytest.mark.parametrize("t, theta", [(8.0, 10.0), (0.25, 10.0), (8.0, 0.05), (0.25, 0.05)],
                         ids=["8x", "1/4x", "8x-theta0.05", "1/4x-theta0.05"])
def test_aprid_obeys_the_variable_scaling_law_on_npc_bit_for_bit(t, theta):
    # x = t y: features a_i / t and the box times t leave every margin a_i.x, so every
    # logistic term, as it was, with alpha * t and theta / t. Powers of two scale exactly,
    # so x_bar comes out exactly t times as large, and z_bar and every CSV row with the same
    # bits. The constraint is violated at both checkpoints; the clip acts on 98 % of the
    # steps at theta = 0.05 and on none at 10. Dropping the rescaling of alpha, or of theta
    # where the clip acts, breaks the law
    data = preprocess(make_synthetic_dataset(5, 60, 60, seed=2, separation=2.0))
    base = make_npc(data, c_hat=0.3, box_halfwidth=4.0)
    scaled = NeymanPearsonProblem(Dataset(data.features / t, data.labels), c_hat=0.3,
                                  box=BoxSet(t * base.box.lower, t * base.box.upper))
    horizon = 2000
    want, got = (aprid_run(prob, SolverParams(StepSchedule.constant(alpha, 1.0, horizon, 0.9),
                                              theta=th),
                           BatchSizes(j0=10, j1=10, jg=20), seed=3, checkpoints=[500, horizon],
                           f0_ref=0.3, timing="algo")
                 for prob, alpha, th in ((base, 10.0, theta), (scaled, 10.0 * t, theta / t)))
    assert got.x_bar.tobytes() == (t * want.x_bar).tobytes()
    assert got.z_bar.tobytes() == want.z_bar.tobytes()
    assert min(r.viol_max for r in want.records) > 0.0  # the law is not read off zeros only
    assert [r.csv_values(zero_wall=True) for r in got.records] == \
        [r.csv_values(zero_wall=True) for r in want.records]


class _ScaledExpectation(ExpectationQcqpProblem):
    """The expectation QCQP with f0 and f1 times s and x = t y: every record drawn as the
    base law draws it, then H by sqrt(s) / t, c by sqrt(s), Q by s / t^2, a by s / t and b by
    s, and the box times t. Its evaluation is the base one at x / t, times s."""

    def __init__(self, s=1.0, t=1.0):
        super().__init__(10, 5, eval_samples=512)
        self.s, self.t, self.box = s, t, BoxSet.symmetric(10, 10.0 * t)

    def _objective_records(self, rng, count):
        h, c = super()._objective_records(rng, count)
        return math.sqrt(self.s) / self.t * h, math.sqrt(self.s) * c

    def _constraint_records(self, rng, count):
        q, a, b = super()._constraint_records(rng, count)
        return self.s / self.t**2 * q, self.s / self.t * a, self.s * b

    def evaluate_full(self, x, seed=None):
        ev = super().evaluate_full(x / self.t, seed)
        return FullEval(self.s * ev.objective, self.s * ev.violations, self.s * ev.viol_avg,
                        self.s * ev.viol_max)


def _expectation_runs(cases, theta):
    """aprid at horizon 2000 with alpha = 1000 on each (instance, alpha, rho, theta, f0_ref)
    factor of ``cases``: x leaves the feasible set early (viol_max 2.9 at step 5, z_bar
    about 3500) and the clip acts on over 99.9 % of the steps at theta = 10 and at 0.05."""
    return [aprid_run(prob, SolverParams(StepSchedule.constant(1000.0 * a, 1.0 * r, 2000, 0.9),
                                         theta=theta * th),
                      BatchSizes(j0=10, j1=10, jg=20), seed=3, f0_ref=0.3 * ref,
                      checkpoints=[1, 5, 20, 100, 500, 2000], timing="algo")
            for prob, a, r, th, ref in cases]


@pytest.mark.parametrize("theta", [10.0, 0.05])
@pytest.mark.parametrize("k", [1, -2, 3])
def test_aprid_obeys_the_objective_scaling_law_on_expectation_bit_for_bit(k, theta):
    # f0 and f1 times s = 4^k in every record, with rho / s, theta * s and f0_ref * s: x_bar
    # and z_bar come out with the same bits and every metric exactly s times as large
    s = 4.0**k
    want, got = _expectation_runs([(_ScaledExpectation(), 1, 1, 1, 1),
                                   (_ScaledExpectation(s=s), 1, 1 / s, s, s)], theta)
    assert got.x_bar.tobytes() == want.x_bar.tobytes()
    assert got.z_bar.tobytes() == want.z_bar.tobytes()
    assert want.records[1].viol_max > 0.0 and want.z_bar[0] > 0.0
    for w, g in zip(want.records, got.records):
        for name in ("obj_err", "viol_avg", "viol_max"):
            assert getattr(g, name) == s * getattr(w, name), (w.iteration, name)


@pytest.mark.parametrize("theta", [10.0, 0.05])
@pytest.mark.parametrize("t", [8.0, 0.25])
def test_aprid_obeys_the_variable_scaling_law_on_expectation_bit_for_bit(t, theta):
    # x = t y in every record and the box, with alpha * t and theta / t: x_bar comes out
    # exactly t times as large, and z_bar and every CSV row with the same bits
    want, got = _expectation_runs([(_ScaledExpectation(), 1, 1, 1, 1),
                                   (_ScaledExpectation(t=t), t, 1, 1 / t, 1)], theta)
    assert got.x_bar.tobytes() == (t * want.x_bar).tobytes()
    assert got.z_bar.tobytes() == want.z_bar.tobytes()
    assert want.records[1].viol_max > 0.0 and want.z_bar[0] > 0.0
    assert [r.csv_values(zero_wall=True) for r in got.records] == \
        [r.csv_values(zero_wall=True) for r in want.records]


def _bilinear_scaled(base, matrix, vector, boxes=1.0, noise=None):
    """``base`` with A times ``matrix``, b and c times ``vector``, both boxes times ``boxes``."""
    return BilinearSaddleProblem(
        matrix * base.a_mat, vector * base.b, vector * base.c,
        noise_sigma=(vector if noise is None else noise) * base.noise_sigma,
        box_x=BoxSet(boxes * base.box_x.lower, boxes * base.box_x.upper),
        box_z=BoxSet(boxes * base.box_z.lower, boxes * base.box_z.upper))


@pytest.mark.parametrize("theta", [10.0, 0.3], ids=["unclipped", "clipped"])
@pytest.mark.parametrize("k", [1, -2, 3])
def test_apriad_obeys_the_objective_scaling_law_bit_for_bit(k, theta):
    # L times s = 4^k (A, b, c and the noise by s), with theta * s: both blocks' gradients
    # are s times as large, so every adaptive direction keeps its bits at the same alpha and
    # rho, x_bar and z_bar come out with the same bits and every gap exactly s times as large.
    # The clip acts on most steps at theta = 0.3 and never at 10
    base = make_bilinear_saddle(6, 4, seed=5, noise_sigma=0.1)
    s, horizon = 4.0**k, 2000
    want, got = (apriad_run(prob, SolverParams(StepSchedule.constant(0.5, 0.5, horizon, 0.9),
                                               theta=th), seed=3, checkpoints=[100, horizon])
                 for prob, th in ((base, theta), (_bilinear_scaled(base, s, s), s * theta)))
    assert got.x_bar.tobytes() == want.x_bar.tobytes()
    assert got.z_bar.tobytes() == want.z_bar.tobytes()
    assert [g.gap for g in got.records] == [s * w.gap for w in want.records]
    assert min(w.gap for w in want.records) > 0.0


@pytest.mark.parametrize("theta", [10.0, 0.3], ids=["unclipped", "clipped"])
@pytest.mark.parametrize("t", [8.0, 0.25])
def test_apriad_obeys_the_variable_scaling_law_bit_for_bit(t, theta):
    # x = t y and z = t w: A / t^2, b / t, c / t and the noise / t with both boxes times t
    # leave L, and make both blocks' gradients 1/t as large; with alpha * t, rho * t and
    # theta / t (one clip threshold serves both blocks, so both variables scale), x_bar and
    # z_bar come out exactly t times as large and every gap with the same bits
    base = make_bilinear_saddle(6, 4, seed=5, noise_sigma=0.1)
    horizon = 2000
    want, got = (apriad_run(prob, SolverParams(StepSchedule.constant(step, step, horizon, 0.9),
                                               theta=th), seed=3, checkpoints=[100, horizon])
                 for prob, step, th in ((base, 0.5, theta),
                                        (_bilinear_scaled(base, 1 / t**2, 1 / t, t), 0.5 * t,
                                         theta / t)))
    assert got.x_bar.tobytes() == (t * want.x_bar).tobytes()
    assert got.z_bar.tobytes() == (t * want.z_bar).tobytes()
    assert [g.gap for g in got.records] == [w.gap for w in want.records]
    assert min(w.gap for w in want.records) > 0.0


@pytest.mark.parametrize("alpha", [10.0, 1000.0])
@pytest.mark.parametrize("t", [8.0, 0.25])
def test_msa_obeys_the_variable_scaling_law_bit_for_bit(t, alpha):
    # x = t y with alpha * t^2 (a plain step moves x by alpha times a gradient 1/t as large)
    # and rho and z_cap as they were, since every constraint value keeps its bits: x_bar
    # comes out exactly t times as large, and z_bar and every CSV row with the same bits.
    # At alpha = 1000 the cap binds
    base = make_qcqp_finite_sum(10, 5, 200, 500, seed=7)
    horizon, checkpoints = 2000, [1, 5, 20, 100, 500, 2000]
    want, got = (msa_run(prob, MsaParams(horizon, alpha=alpha * scale, rho=1.0), BatchSizes(),
                         seed=3, checkpoints=checkpoints, f0_ref=0.25, timing="algo")
                 for prob, scale in ((base, 1.0), (_variable_scaled(base, t), t * t)))
    assert got.x_bar.tobytes() == (t * want.x_bar).tobytes()
    assert got.z_bar.tobytes() == want.z_bar.tobytes()
    assert want.records[3].viol_max > 0.0
    assert [r.csv_values(zero_wall=True) for r in got.records] == \
        [r.csv_values(zero_wall=True) for r in want.records]


@pytest.mark.parametrize("eta_tol", [0.04, 2.0])
@pytest.mark.parametrize("t", [8.0, 0.25])
def test_csa_obeys_the_variable_scaling_law_bit_for_bit(t, eta_tol, monkeypatch):
    # x = t y with gamma * t^2 and eta_tol as it was: each violation estimate keeps its bits,
    # so each step takes the same branch, and its direction is 1/t as large. Both lanes'
    # x_bar come out exactly t times as large and every CSV row with the same bits; both
    # branches are taken
    base = make_qcqp_finite_sum(10, 5, 200, 500, seed=7)
    scaled = _variable_scaled(base, t)
    horizon, checkpoints = 2000, [1, 5, 20, 100, 500, 2000]
    for prob in (base, scaled):  # counts the objective steps
        monkeypatch.setattr(prob, "sample_objective_grad",
                            mock.Mock(wraps=prob.sample_objective_grad))
    want, got = (csa_run(prob, CsaParams(horizon, gamma=10.0 * scale, eta_tol=eta_tol),
                         BatchSizes(), seed=3, checkpoints=checkpoints, f0_ref=0.25,
                         timing="algo")
                 for prob, scale in ((base, 1.0), (scaled, t * t)))
    objective_steps = base.sample_objective_grad.call_count
    assert scaled.sample_objective_grad.call_count == objective_steps
    assert 0 < objective_steps < horizon
    for w_lane, g_lane in zip(want, got):
        assert g_lane.x_bar.tobytes() == (t * w_lane.x_bar).tobytes()
        assert [r.csv_values(zero_wall=True) for r in g_lane.records] == \
            [r.csv_values(zero_wall=True) for r in w_lane.records]
