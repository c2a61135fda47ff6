"""Baseline solvers: MSA, the switching method, and the penalty primal-dual.

Replay tests re-run each update rule by hand on the same oracle stream and
demand agreement with the packaged loop.
"""

import math
import os

import numpy as np
import pytest

from aprid import (
    baselines,
    BatchSizes,
    CsaParams,
    DivergenceError,
    FiniteSumQcqpProblem,
    MsaParams,
    PdsgAdpParams,
    csa_run,
    estimate_constraint_value,
    make_qcqp_expectation,
    make_qcqp_finite_sum,
    msa_run,
    pdsg_adp_run,
    read_manifest,
    read_run_csv,
    resolve_config,
    run_experiment,
    sample_lagrangian_subgradient,
    training_rng,
)


def linear_constraint_problem(c, a, b):
    """0.5 ||x - c||^2 subject to a.x - b <= 0 on the default box."""
    c = np.asarray(c, dtype=float)
    n = c.size
    h = np.eye(n)[None, :, :]
    q = np.zeros((1, n, n))
    return FiniteSumQcqpProblem(h, c[None, :], q, np.asarray(a, float)[None, :], [b])


# instances reused across tests
FEASIBLE = linear_constraint_problem([1.5, -0.7, 0.3], [1.0, 0.0, 0.0], 20.0)
VIOLATED = linear_constraint_problem([1.5, -0.7, 0.3], [1.0, 0.0, 0.0], -20.0)
SWITCHING = linear_constraint_problem([3.0, 0.0, 0.0], [1.0, 0.0, 0.0], 0.5)

BATCHES = BatchSizes(j0=1, j1=1, jg=1)


# ---------------------------------------------------------------------------
# parameter validation


def test_msa_params_validation():
    with pytest.raises(ValueError, match="horizon"):
        MsaParams(horizon=0)
    with pytest.raises(ValueError, match="alpha"):
        MsaParams(horizon=10, alpha=0.0)
    with pytest.raises(ValueError, match="z_cap"):
        MsaParams(horizon=10, z_cap=0.0)


def test_csa_params_validation():
    with pytest.raises(ValueError, match="gamma"):
        CsaParams(horizon=10, gamma=0.0)
    with pytest.raises(ValueError, match="eta_tol"):
        CsaParams(horizon=10, eta_tol=-0.1)
    with pytest.raises(ValueError, match="start index"):
        CsaParams(horizon=10, s=0)
    with pytest.raises(ValueError, match="start index"):
        CsaParams(horizon=10, s=1.5)
    # eta_tol = 0 is allowed (step on the objective only at exact feasibility)
    CsaParams(horizon=10, eta_tol=0.0)


def test_pdsg_params_validation():
    with pytest.raises(ValueError, match="eta_scale"):
        PdsgAdpParams(horizon=10, eta_scale=-0.1)
    with pytest.raises(ValueError, match="divergence_cap"):
        PdsgAdpParams(horizon=10, divergence_cap=0.0)
    PdsgAdpParams(horizon=10, eta_scale=0.0)


@pytest.mark.parametrize("params", [MsaParams, CsaParams, PdsgAdpParams])
def test_baseline_horizon_must_be_a_positive_integer(params):
    for bad in (2.5, 0):
        with pytest.raises(ValueError, match=f"horizon must be a positive integer, got {bad}"):
            params(horizon=bad)
    assert params(horizon=4.0).horizon == 4  # a whole float runs as its int


@pytest.mark.parametrize("runner,params", [
    (msa_run, MsaParams(horizon=10)),
    (csa_run, CsaParams(horizon=10)),
    (pdsg_adp_run, PdsgAdpParams(horizon=10)),
])
def test_timing_mode_validated(runner, params):
    with pytest.raises(ValueError, match="timing"):
        runner(FEASIBLE, params, BATCHES, seed=0, timing="sometimes")


# ---------------------------------------------------------------------------
# MSA


def test_msa_matches_manual_replay():
    problem = make_qcqp_finite_sum(6, 3, 30, 25, seed=7)
    horizon = 40
    params = MsaParams(horizon=horizon, alpha=4.0, rho=2.0)
    batches = BatchSizes(j0=5, j1=5, jg=5)
    res = msa_run(problem, params, batches, seed=11)

    alpha = params.alpha / math.sqrt(horizon)
    rho = params.rho / math.sqrt(horizon)
    rng = training_rng(11)
    x = problem.box.project(np.zeros(problem.box.dim))
    z = np.zeros(problem.num_constraints)
    xs = []
    for _ in range(horizon):
        sample = sample_lagrangian_subgradient(problem, x, z, batches, rng)
        xs.append(x)
        x = problem.box.project(x - alpha * sample.u)
        s = sample.w_support
        z[s] = np.clip(z[s] + rho * sample.w, 0.0, params.z_cap)

    # constant steps make the ergodic average a plain mean over x_1..x_K
    np.testing.assert_allclose(res.x_bar, np.mean(xs, axis=0), rtol=1e-12)
    np.testing.assert_allclose(res.z_bar, z, rtol=1e-12)
    assert res.algorithm == "msa"


def test_msa_multiplier_cap_binds():
    # constraint value sits near +20 everywhere, so the multiplier slams
    # into the cap on the first step and stays there
    params = MsaParams(horizon=30, alpha=0.5, rho=1.0, z_cap=0.05)
    res = msa_run(VIOLATED, params, BATCHES, seed=3)
    assert res.z_bar[0] == 0.05

    loose = msa_run(VIOLATED, MsaParams(horizon=30, alpha=0.5, rho=1.0), BATCHES, seed=3)
    assert loose.z_bar[0] > 1.0


def test_msa_checkpoints_and_determinism():
    params = MsaParams(horizon=20, alpha=2.0, rho=1.0)
    kw = dict(checkpoints=[4, 11, 20], f0_ref=0.0)
    a = msa_run(FEASIBLE, params, BATCHES, seed=5, **kw)
    b = msa_run(FEASIBLE, params, BATCHES, seed=5, **kw)
    assert [r.iteration for r in a.records] == [4, 11, 20]
    for ra, rb in zip(a.records, b.records):
        assert (ra.iteration, ra.obj_err, ra.viol_max, ra.objective) == \
               (rb.iteration, rb.obj_err, rb.viol_max, rb.objective)
    assert np.array_equal(a.x_bar, b.x_bar)
    assert all(math.isfinite(r.obj_err) for r in a.records)

    # a problem with real subsampling separates seeds (the handcrafted
    # single-term instances are oracle-deterministic by construction)
    sampled = make_qcqp_finite_sum(5, 3, 20, 15, seed=2)
    batches = BatchSizes(j0=4, j1=4, jg=4)
    d = msa_run(sampled, params, batches, seed=5, **kw)
    e = msa_run(sampled, params, batches, seed=6, **kw)
    assert not np.array_equal(d.x_bar, e.x_bar)


def test_msa_nan_error_without_reference():
    res = msa_run(FEASIBLE, MsaParams(horizon=8), BATCHES, seed=0, checkpoints=[8])
    assert math.isnan(res.records[0].obj_err)
    assert math.isfinite(res.records[0].objective)


# ---------------------------------------------------------------------------
# switching method


def test_csa_matches_manual_replay_and_switches():
    horizon = 60
    params = CsaParams(horizon=horizon, gamma=8.0, eta_tol=0.04, s=4)
    res1, res2 = csa_run(SWITCHING, params, BATCHES, seed=9)

    gamma = params.gamma / math.sqrt(horizon)
    rng = training_rng(9)
    x = SWITCHING.box.project(np.zeros(3))
    cleared, everything = [], []
    took_objective = took_constraint = 0
    for k in range(1, horizon + 1):
        ghat = estimate_constraint_value(SWITCHING, x, BATCHES.jg, rng)
        everything.append(x)
        if ghat <= params.eta_tol:
            if k >= params.s:
                cleared.append(x)
            direction = SWITCHING.sample_objective_grad(x, BATCHES.j0, rng)
            took_objective += 1
        else:
            # single constraint: subgradient of f1 itself
            _, _, grads = SWITCHING.sample_constraint_block(x, BATCHES.j1, rng)
            direction = grads[0]
            took_constraint += 1
        x = SWITCHING.box.project(x - gamma * direction)

    # the instance forces both branches: start feasible, overshoot, pull back
    assert took_objective > 0 and took_constraint > 0
    np.testing.assert_allclose(res1.x_bar, np.mean(cleared, axis=0), rtol=1e-12)
    np.testing.assert_allclose(res2.x_bar, np.mean(everything, axis=0), rtol=1e-12)
    assert res1.algorithm == "csa1"
    assert res2.algorithm == "csa2"


def test_csa_equal_lanes_when_always_feasible():
    # never violated and s=1: both averages cover every step
    params = CsaParams(horizon=25, gamma=2.0, s=1)
    res1, res2 = csa_run(FEASIBLE, params, BATCHES, seed=2, checkpoints=[25], f0_ref=0.0)
    np.testing.assert_array_equal(res1.x_bar, res2.x_bar)
    r1, r2 = res1.records[0], res2.records[0]
    assert (r1.obj_err, r1.viol_max) == (r2.obj_err, r2.viol_max)
    assert r1.flags == ""


def test_csa_absent_lane_when_never_cleared():
    params = CsaParams(horizon=8, gamma=1.0, eta_tol=0.04)
    res1, res2 = csa_run(VIOLATED, params, BATCHES, seed=4, checkpoints=[3, 8], f0_ref=0.0)
    assert res1.x_bar is None
    for rec in res1.records:
        assert rec.flags == "csa1_absent"
        assert math.isnan(rec.obj_err) and math.isnan(rec.viol_max)
    for rec in res2.records:
        assert rec.flags == ""
        assert math.isfinite(rec.viol_max)


def test_csa_start_index_beyond_horizon_leaves_lane_absent():
    params = CsaParams(horizon=10, gamma=1.0, s=11)
    res1, _ = csa_run(FEASIBLE, params, BATCHES, seed=1, checkpoints=[10])
    assert res1.x_bar is None
    assert res1.records[0].flags == "csa1_absent"


def test_csa_determinism():
    params = CsaParams(horizon=15, gamma=3.0)
    a1, a2 = csa_run(SWITCHING, params, BATCHES, seed=7, checkpoints=[15])
    b1, b2 = csa_run(SWITCHING, params, BATCHES, seed=7, checkpoints=[15])
    assert np.array_equal(a1.x_bar, b1.x_bar)
    assert np.array_equal(a2.x_bar, b2.x_bar)
    assert a2.records[0].objective == b2.records[0].objective


def test_diverged_csa_cell_writes_both_lanes(tmp_path, monkeypatch):
    # a NaN violation estimate at step 16 ends both lanes of the cell
    calls = []
    estimate = baselines.estimate_constraint_value

    def nan_at_step_16(problem, x, jg, rng):
        calls.append(None)
        return float("nan") if len(calls) == 16 else estimate(problem, x, jg, rng)

    monkeypatch.setattr(baselines, "estimate_constraint_value", nan_at_step_16)
    raw = {
        "problem": {"kind": "qcqp_finite_sum", "n": "4", "p": "2",
                    "num_objective_terms": "12", "num_constraints": "6"},
        "algorithm": {"name": "csa", "eta_tol": "0.5"},
        "run": {"horizon": "40", "checkpoints": "5 10 20 40", "seeds": "1",
                "timing": "none", "reference": "none"},
    }
    out = run_experiment(resolve_config(raw), tmp_path)
    assert out.diverged
    assert [os.path.basename(p) for p in out.csv_paths] == ["csa1_seed1.csv", "csa2_seed1.csv"]
    manifest = read_manifest(out.manifest_path)
    assert manifest["cell.0"] == "csa1,1,csa1_seed1.csv,diverged"
    assert manifest["cell.1"] == "csa2,1,csa2_seed1.csv,diverged"
    assert "cell.2" not in manifest
    for path in out.csv_paths:
        rows = read_run_csv(path)
        assert [r.iteration for r in rows] == [5, 10, 16]
        assert rows[-1].flags == "diverged"


# ---------------------------------------------------------------------------
# penalty primal-dual


def test_pdsg_matches_manual_replay():
    problem = make_qcqp_finite_sum(6, 3, 30, 25, seed=7)
    horizon = 50
    params = PdsgAdpParams(horizon=horizon, alpha=6.0, rho=2.0, eta_scale=0.1)
    batches = BatchSizes(j0=5, j1=5, jg=5)
    res = pdsg_adp_run(problem, params, batches, seed=13)

    alpha = params.alpha / math.sqrt(horizon)
    rho = params.rho / math.sqrt(horizon)
    rng = training_rng(13)
    num = problem.num_constraints
    x = problem.box.project(np.zeros(problem.box.dim))
    z = np.zeros(num)
    accum = np.zeros(problem.box.dim)
    xs = []
    prev_v = np.zeros(problem.box.dim)
    for _ in range(horizon):
        u0 = problem.sample_objective_grad(x, batches.j0, rng)
        support, values, grads = problem.sample_constraint_block_exact(x, batches.j1, rng)
        scale = num / len(support)
        weights = np.maximum(z[support] + values, 0.0)
        u = u0 + scale * (weights @ grads)
        gam = max(1.0, float(np.linalg.norm(u)))
        added = (u * u) / (gam * gam)
        assert added.sum() <= 1.0 + 1e-12
        accum += added
        v = params.eta_scale * np.sqrt(accum)
        assert np.all(v >= prev_v)
        prev_v = v
        xs.append(x)
        x = problem.box.project(x - u / (v + 1.0 / alpha))
        z[support] = z[support] + rho * scale * np.maximum(values, -z[support])

    np.testing.assert_allclose(res.x_bar, np.mean(xs, axis=0), rtol=1e-12)
    np.testing.assert_allclose(res.z_bar, z, rtol=1e-12)
    assert res.algorithm == "pdsg_adp"


def test_pdsg_multiplier_grows_unclamped():
    params = PdsgAdpParams(horizon=40, alpha=0.5, rho=3.0)
    res = pdsg_adp_run(VIOLATED, params, BATCHES, seed=1)
    # constraint value ~ +20 each step, no cap anywhere
    assert res.z_bar[0] > 10.0


def test_pdsg_rejects_sampling_only_problems():
    problem = make_qcqp_expectation(4, 3, eval_samples=2000)
    with pytest.raises(ValueError, match="exact"):
        pdsg_adp_run(problem, PdsgAdpParams(horizon=10), BATCHES, seed=0)


def test_pdsg_divergence_cap():
    params = PdsgAdpParams(horizon=40, divergence_cap=1e-6)
    with pytest.raises(DivergenceError) as info:
        pdsg_adp_run(VIOLATED, params, BATCHES, seed=1)
    assert info.value.iteration == 1
    assert info.value.partial_results[0].records == []


def test_pdsg_determinism_and_checkpoints():
    problem = make_qcqp_finite_sum(5, 3, 20, 15, seed=2)
    params = PdsgAdpParams(horizon=12, alpha=5.0)
    batches = BatchSizes(j0=4, j1=4, jg=4)
    a = pdsg_adp_run(problem, params, batches, seed=8, checkpoints=[6, 12], f0_ref=0.1)
    b = pdsg_adp_run(problem, params, batches, seed=8, checkpoints=[6, 12], f0_ref=0.1)
    assert [r.iteration for r in a.records] == [6, 12]
    for ra, rb in zip(a.records, b.records):
        assert (ra.obj_err, ra.viol_max, ra.objective) == (rb.obj_err, rb.viol_max, rb.objective)
    assert np.array_equal(a.x_bar, b.x_bar)
