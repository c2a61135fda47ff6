import warnings

import numpy as np
import pytest

from aprid import (
    BatchSizes,
    BilinearSaddleProblem,
    BoxSet,
    DivergenceError,
    DualState,
    GradSample,
    MinimaxState,
    PrimalState,
    SolverParams,
    aprid_run,
    aprid_step,
    apriad_run,
    apriad_step,
    make_bilinear_saddle,
    make_qcqp_finite_sum,
    primal_dual_gap,
    sample_lagrangian_subgradient,
    sample_minimax_subgradient,
    training_rng,
)

from brute import double_sum_average


@pytest.fixture(scope="module")
def qcqp():
    return make_qcqp_finite_sum(5, 3, 30, 20, seed=4)


def test_solver_params_validation():
    with pytest.raises(ValueError):
        SolverParams.constant(10, beta2=1.0)
    with pytest.raises(ValueError):
        SolverParams.constant(10, theta=0.0)
    with pytest.raises(ValueError):
        SolverParams.constant(10, divergence_cap=0.0)
    params = SolverParams.constant(10)
    assert params.horizon == 10 and params.schedule.kind == "constant"
    assert SolverParams.sqrt(10).schedule.kind == "sqrt"
    assert SolverParams.sqrt_log(10).schedule.kind == "sqrt_log"


def test_momentum_keeps_raw_gradient_second_moment_uses_clipped():
    # the clip applies only inside the second-moment update
    box = BoxSet.symmetric(2, 10.0)
    params = SolverParams.constant(5, beta1=0.9, beta2=0.5, theta=5.0)
    pstate = PrimalState.fresh(np.zeros(2))
    dstate = DualState.fresh(1)
    sample = GradSample(u=np.array([60.0, 80.0]), w=np.zeros(1))
    aprid_step(pstate, dstate, sample, 0.1, 0.1, params, box)
    assert np.allclose(pstate.m, 0.1 * np.array([60.0, 80.0]), rtol=1e-15)
    u_hat = np.array([3.0, 4.0])  # norm 100 clipped to 5
    assert np.allclose(pstate.v, 0.5 * u_hat**2, rtol=1e-15)
    assert np.array_equal(pstate.v_hat, pstate.v)


def test_untouched_coordinate_does_not_move():
    # 0/0 = 0: no gradient energy in a coordinate means no step there
    box = BoxSet.symmetric(2, 10.0)
    params = SolverParams.constant(5, beta1=0.9)
    pstate = PrimalState.fresh(np.array([1.0, 2.0]))
    dstate = DualState.fresh(1)
    sample = GradSample(u=np.array([1.0, 0.0]), w=np.zeros(1))
    aprid_step(pstate, dstate, sample, 0.5, 0.5, params, box)
    assert pstate.x[1] == 2.0
    assert pstate.x[0] != 1.0


def test_state_invariants_along_a_run(qcqp):
    params = SolverParams.constant(300, alpha=10.0, rho=1.0, theta=2.0)
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
    params = SolverParams.constant(K, alpha=2.0, rho=1.0, beta1=0.0, adaptive=False,
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
        if s.w_support is None:
            z = np.maximum(z + r * s.w, 0.0)
        else:
            sup = s.w_support
            z[sup] = np.maximum(z[sup] + r * s.w[sup], 0.0)
    assert np.allclose(res.x_bar, np.mean(xs, axis=0), rtol=1e-12)
    assert np.allclose(res.z_bar, np.mean(zs, axis=0), rtol=1e-12)


def test_ergodic_average_matches_double_sum(qcqp):
    K = 40
    batches = BatchSizes(4, 4, 8)
    params = SolverParams.constant(K, alpha=3.0, rho=1.0, beta1=0.9,
                                   z_init=np.full(20, 0.5))
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
    params = SolverParams.constant(60, alpha=3.0, rho=1.0)
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
    params = SolverParams.constant(20, alpha=3.0, rho=1.0)
    res = aprid_run(qcqp, params, BatchSizes(4, 4, 8), seed=1, checkpoints=[20])
    assert np.isnan(res.records[0].obj_err)
    assert np.isfinite(res.records[0].viol_max)


def test_checkpoint_validation(qcqp):
    params = SolverParams.constant(20, alpha=3.0, rho=1.0)
    with pytest.raises(ValueError):
        aprid_run(qcqp, params, BatchSizes(4, 4, 8), seed=1, checkpoints=[0, 10])
    with pytest.raises(ValueError):
        aprid_run(qcqp, params, BatchSizes(4, 4, 8), seed=1, checkpoints=[10, 21])
    with pytest.raises(ValueError):
        aprid_run(qcqp, params, BatchSizes(4, 4, 8), seed=1, timing="sometimes")


def test_default_checkpoints_cover_the_horizon(qcqp):
    params = SolverParams.constant(500, alpha=3.0, rho=1.0)
    res = aprid_run(qcqp, params, BatchSizes(4, 4, 8), seed=1)
    iters = [r.iteration for r in res.records]
    assert iters == sorted(set(iters))
    assert iters[-1] == 500


def test_z_init_validation(qcqp):
    with pytest.raises(ValueError):
        params = SolverParams.constant(10, z_init=np.full(3, 0.1))  # wrong shape
        aprid_run(qcqp, params, BatchSizes(4, 4, 8), seed=1)
    with pytest.raises(ValueError):
        params = SolverParams.constant(10, z_init=np.full(20, -0.1))
        aprid_run(qcqp, params, BatchSizes(4, 4, 8), seed=1)


def test_divergence_cap_carries_context(qcqp):
    params = SolverParams.constant(200, alpha=3.0, rho=1.0, divergence_cap=1e-6,
                                   z_init=np.full(20, 1.0))
    with pytest.raises(DivergenceError) as excinfo:
        aprid_run(qcqp, params, BatchSizes(4, 4, 8), seed=1)
    assert excinfo.value.iteration == 1
    assert excinfo.value.partial_records == []


def test_minimax_blocks_clip_separately():
    # huge min-block gradient, tiny max-block gradient: only the former is
    # rescaled before entering the second moment
    prob = BilinearSaddleProblem(np.zeros((2, 2)), b=np.array([30.0, 40.0]),
                                 c=np.array([-0.2, 0.0]))
    params = SolverParams.sqrt(5, alpha=1.0, rho=1.0, beta1=0.9, beta2=0.5, theta=5.0)
    state = MinimaxState.fresh(np.zeros(2), np.zeros(2))
    sample = sample_minimax_subgradient(prob, state.x, state.z, training_rng(0))
    assert np.array_equal(sample.u, [30.0, 40.0])  # sigma = 0, exact grads
    assert np.array_equal(sample.w, [0.2, 0.0])
    apriad_step(state, sample, 0.1, 0.1, params, prob.box_x, prob.box_z)
    assert np.allclose(state.m[:2], 0.1 * np.array([30.0, 40.0]), rtol=1e-15)
    assert np.allclose(state.v[:2], 0.5 * np.array([9.0, 16.0]), rtol=1e-15)  # clipped (3,4)
    assert np.allclose(state.v[2:], 0.5 * np.array([0.04, 0.0]), rtol=1e-15)  # raw
    # descent in x, ascent in z, untouched z coordinate pinned by 0/0 = 0
    assert np.all(state.x < 0)
    assert state.z[0] > 0 and state.z[1] == 0


def test_minimax_ratio_drift_warning():
    prob = make_bilinear_saddle(3, 3, seed=2)
    drifting = SolverParams.sqrt_log(30, alpha=1.0, rho=1.0)
    with pytest.warns(UserWarning, match="proportional"):
        apriad_run(prob, drifting, seed=1, checkpoints=[30])
    proportional = SolverParams.sqrt(30, alpha=1.0, rho=2.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        apriad_run(prob, proportional, seed=1, checkpoints=[30])


def test_minimax_run_records_and_determinism():
    prob = make_bilinear_saddle(4, 4, seed=7, noise_sigma=0.1)
    params = SolverParams.constant(100, alpha=1.0, rho=1.0)
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
