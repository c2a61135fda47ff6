"""End-to-end acceptance checks.

Each test states its tolerance and wall-clock budget inline. Fixtures
(instance seeds, horizons, step scales) are pinned so every run exercises
the same deterministic trajectories; the comparative thresholds were fixed
from pre-registered runs of this exact code.
"""

import math
import os
import statistics
import time

import numpy as np
import pytest

import brute
from aprid import (
    BatchSizes,
    BoxSet,
    CsaParams,
    DualState,
    ErgodicAverager,
    MsaParams,
    PrimalState,
    SolverParams,
    StepSchedule,
    apriad_run,
    aprid_run,
    aprid_step,
    csa_run,
    make_bilinear_saddle,
    make_npc,
    make_qcqp_expectation,
    make_qcqp_finite_sum,
    make_synthetic_dataset,
    msa_run,
    preprocess,
    project_box_weighted,
    read_run_csv,
    sample_lagrangian_subgradient,
    sample_minimax_subgradient,
    solve_reference,
    training_rng,
    write_run_csv,
)
from aprid.cli import main as cli_main

pytestmark = pytest.mark.slow

# shared desk-scale instance: built once, reused by the solve, ordering, and
# rate tests (the reference solve is paid inside the first test's budget)
_DESK = {}


def desk_qcqp():
    if "problem" not in _DESK:
        _DESK["problem"] = make_qcqp_finite_sum(10, 5, 1000, 1000, seed=0)
        _DESK["ref"] = solve_reference(_DESK["problem"], tol=1e-6)
    return _DESK["problem"], _DESK["ref"]


def random_nonincreasing_steps(rng, max_horizon=200):
    k = int(rng.integers(2, max_horizon + 1))
    increments = rng.uniform(0.0, 1.0, size=k)
    alphas = np.flip(np.sort(0.1 + np.cumsum(increments)))
    return alphas * 10.0 ** rng.uniform(-3, 1)


def test_criterion_01_schedule_bounds():
    """1000 randomized schedules satisfy the two-sided tail-sum bound, the
    dual telescoping inequality, and the dual growth cap; constant schedules
    have exactly constant rho. Budget: 5 s."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    for _ in range(1000):
        alphas = random_nonincreasing_steps(rng)
        beta1 = float(rng.uniform(0.0, 0.98))
        rho1 = 10.0 ** float(rng.uniform(-2, 1))
        sched = StepSchedule.from_sequence(alphas, rho1, beta1)
        rhos = np.array([sched.next()[1] for _ in range(sched.horizon)])
        k = alphas.size

        s = brute.geometric_tail_weights(alphas, beta1)
        jj, tt = np.meshgrid(np.arange(k), np.arange(k), indexing="ij")
        valid = tt >= jj
        # alpha_j <= S_j(t) <= alpha_j / (1 - beta1), for every j <= t
        lower = np.broadcast_to(alphas[:, None] * (1.0 - 1e-12), s.shape)
        upper = np.broadcast_to(alphas[:, None] / (1.0 - beta1) * (1.0 + 1e-12), s.shape)
        assert np.all(s[valid] >= lower[valid])
        assert np.all(s[valid] <= upper[valid])
        # S_{j-1}(t) / rho_{j-1} >= S_j(t) / rho_j, up to 1e-12 relative
        prev = s[:-1, 1:] / rhos[:-1, None]
        curr = s[1:, 1:] / rhos[1:, None]
        pair_valid = valid[1:, 1:]
        slack = 1e-12 * np.maximum(np.abs(prev), np.abs(curr))
        assert np.all((prev - curr)[pair_valid] >= -slack[pair_valid])
        # rho_j <= rho_1 alpha_j / (alpha_1 (1 - beta1))
        cap = rho1 * alphas / (alphas[0] * (1.0 - beta1))
        assert np.all(rhos <= cap * (1.0 + 1e-12))

    sched = StepSchedule.constant(5.0, 2.0, 300, 0.9)
    rhos = np.array([sched.next()[1] for _ in range(300)])
    assert np.all(rhos == rhos[0])
    assert time.perf_counter() - t0 < 5.0


def test_criterion_02_adaptive_state_invariants():
    """Over a 1000-step adaptive run on a finite-sum QCQP with n=10, the
    second-moment cap is coordinate-wise non-decreasing and bounded by
    theta^2, the iterate stays in the box, and multipliers stay
    non-negative, at every single step. Budget: 5 s."""
    t0 = time.perf_counter()
    problem = make_qcqp_finite_sum(10, 5, 50, 40, seed=3)
    params = SolverParams.constant(1000, alpha=5.0, rho=1.0)
    batches = BatchSizes(j0=5, j1=8, jg=8)
    sched = params.schedule.fresh()
    rng = training_rng(17)
    pstate = PrimalState.fresh(problem.box.project(np.zeros(problem.box.dim)))
    dstate = DualState.fresh(problem.num_constraints)
    theta_sq = params.theta**2
    prev_vhat = pstate.v_hat.copy()
    for _ in range(1000):
        sample = sample_lagrangian_subgradient(problem, pstate.x, dstate.z, batches, rng)
        alpha_k, rho_k = sched.next()
        aprid_step(pstate, dstate, sample, alpha_k, rho_k, params, problem.box)
        assert np.all(pstate.v_hat >= prev_vhat)
        assert np.all(pstate.v_hat <= theta_sq * (1.0 + 1e-12))
        prev_vhat = pstate.v_hat.copy()
        assert problem.box.contains(pstate.x)
        assert np.all(dstate.z >= 0.0)
    assert time.perf_counter() - t0 < 5.0


def test_criterion_03_projection_matches_grid():
    """Weighted box projection agrees with a 0.001-step brute-force grid on
    100 random 2-d cases, within grid resolution. Budget: 10 s."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(1)
    for _ in range(100):
        lower = rng.uniform(-3.0, -0.5, size=2)
        upper = rng.uniform(0.5, 3.0, size=2)
        y = rng.uniform(-4.0, 4.0, size=2)
        weights = 10.0 ** rng.uniform(-2, 1, size=2)
        box = BoxSet(lower, upper)
        fast = project_box_weighted(y, box, weights)
        slow = brute.grid_box_projection(y, lower, upper, weights, step=0.001)
        assert np.max(np.abs(fast - slow)) <= 1e-3 + 1e-9
    assert time.perf_counter() - t0 < 10.0


def test_criterion_04_averager_matches_double_sum():
    """The streaming ergodic average equals the O(t^2) double-sum definition
    to 1e-10 relative on 100 random trajectories, and constant-step weights
    follow the (1 - beta1^(t-j+1)) profile. Budget: 5 s."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(2)
    for _ in range(100):
        t = int(rng.integers(1, 101))
        dim = int(rng.integers(1, 6))
        beta1 = float(rng.uniform(0.0, 0.98))
        alphas = random_nonincreasing_steps(rng)[:t]
        t = alphas.size
        xs = [rng.standard_normal(dim) for _ in range(t)]
        av = ErgodicAverager(beta1)
        for x, a in zip(xs, alphas):
            av.push(x, a)
        np.testing.assert_allclose(
            av.finalize(), brute.double_sum_average(xs, alphas, beta1), rtol=1e-10)

    # constant steps: weight of iterate j is proportional to 1 - beta1^(t-j+1)
    beta1, t = 0.9, 40
    xs = [rng.standard_normal(3) for _ in range(t)]
    av = ErgodicAverager(beta1)
    for x in xs:
        av.push(x, 0.25)
    weights = 1.0 - beta1 ** (t - np.arange(1, t + 1) + 1)
    expected = np.sum(weights[:, None] * np.asarray(xs), axis=0) / weights.sum()
    np.testing.assert_allclose(av.finalize(), expected, rtol=1e-12)
    assert time.perf_counter() - t0 < 5.0


def _mean_and_se(total, total_sq, count):
    mean = total / count
    var = np.maximum(total_sq / count - mean * mean, 0.0) * (count / (count - 1))
    return mean, np.sqrt(var / count)


def _assert_within_4se(mean, se, target):
    assert np.all(np.abs(mean - target) <= 4.0 * se + 1e-12)


def test_criterion_05_oracle_unbiasedness():
    """For each problem family at a fixed point, the sample means of the
    stochastic directions over 1e5 draws fall within 4 standard errors of
    their exact counterparts. Budget: 60 s."""
    t0 = time.perf_counter()
    draws = 100_000

    def accumulate_lagrangian(problem, x, z, batches, seed):
        rng = training_rng(seed)
        su = sq_u = sw = sq_w = 0.0
        for _ in range(draws):
            smp = sample_lagrangian_subgradient(problem, x, z, batches, rng)
            w = np.zeros(problem.num_constraints)
            w[smp.w_support] = smp.w
            su = su + smp.u
            sq_u = sq_u + smp.u * smp.u
            sw = sw + w
            sq_w = sq_w + w * w
        return (*_mean_and_se(su, sq_u, draws), *_mean_and_se(sw, sq_w, draws))

    # finite-sum QCQP against the exact full-batch Lagrangian pieces
    fs = make_qcqp_finite_sum(6, 4, 50, 40, seed=5)
    rng = np.random.default_rng(3)
    x = rng.uniform(-2, 2, size=fs.n)
    z = rng.uniform(0, 2, size=fs.num_constraints)
    mu, se_u, mw, se_w = accumulate_lagrangian(fs, x, z, BatchSizes(2, 4, 4), seed=100)
    exact_u, exact_w = brute.lagrangian_full_batch(fs, x, z)
    _assert_within_4se(mu, se_u, exact_u)
    _assert_within_4se(mw, se_w, exact_w)

    # binary classifier with a mean-loss constraint, same treatment
    ds = preprocess(make_synthetic_dataset(8, 80, 70, seed=6, separation=2.0))
    npc = make_npc(ds, c_hat=0.4)
    x = rng.uniform(-0.5, 0.5, size=8)
    z = np.array([0.7])
    mu, se_u, mw, se_w = accumulate_lagrangian(npc, x, z, BatchSizes(4, 6, 6), seed=101)
    exact_u, exact_w = brute.lagrangian_full_batch(npc, x, z)
    _assert_within_4se(mu, se_u, exact_u)
    _assert_within_4se(mw, se_w, exact_w)

    # expectation form: the objective direction has the closed-form mean
    # x / n (unit-Frobenius Gaussian factors make E[H'H] = I/n and E[H'c]
    # vanish); the constraint value has no closed form, so two independent
    # estimates must agree within their combined error
    ex = make_qcqp_expectation(6, 4)
    x = rng.uniform(-2, 2, size=ex.n)
    rng_a = training_rng(102)
    su = sq_u = 0.0
    s1 = sq1 = 0.0
    for _ in range(draws):
        g = ex.sample_objective_grad(x, 1, rng_a)
        su = su + g
        sq_u = sq_u + g * g
        v = ex.constraint_value_estimate(x, 1, rng_a)
        s1 += v
        sq1 += v * v
    mu, se_u = _mean_and_se(su, sq_u, draws)
    _assert_within_4se(mu, se_u, x / ex.n)
    m1, se1 = _mean_and_se(np.array(s1), np.array(sq1), draws)
    rng_b = training_rng(103)
    s2 = sq2 = 0.0
    for _ in range(draws):
        v = ex.constraint_value_estimate(x, 1, rng_b)
        s2 += v
        sq2 += v * v
    m2, se2 = _mean_and_se(np.array(s2), np.array(sq2), draws)
    assert abs(m1 - m2) <= 4.0 * math.hypot(float(se1), float(se2))

    # bilinear saddle: noisy pair means against the exact gradients
    bil = make_bilinear_saddle(6, 5, seed=7, noise_sigma=0.3)
    x = rng.uniform(-1, 1, size=6)
    z = rng.uniform(-1, 1, size=5)
    rng_c = training_rng(104)
    su = sq_u = sw = sq_w = 0.0
    for _ in range(draws):
        smp = sample_minimax_subgradient(bil, x, z, rng_c)
        su = su + smp.u
        sq_u = sq_u + smp.u * smp.u
        sw = sw + smp.w
        sq_w = sq_w + smp.w * smp.w
    mu, se_u = _mean_and_se(su, sq_u, draws)
    mw, se_w = _mean_and_se(sw, sq_w, draws)
    exact_u, exact_w = bil.exact_grads(x, z)
    _assert_within_4se(mu, se_u, exact_u)
    _assert_within_4se(mw, se_w, exact_w)

    assert time.perf_counter() - t0 < 60.0


def _fd_close(grad, fun, x, rel=1e-6):
    fd = brute.central_difference_gradient(fun, x)
    err = np.linalg.norm(np.asarray(grad, dtype=float) - fd)
    assert err <= rel * max(np.linalg.norm(fd), 1e-8)


def test_criterion_06_gradients_match_finite_differences():
    """Analytic gradients agree with central finite differences to 1e-6
    relative at 20 random points per family. Budget: 10 s."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(4)

    fs = make_qcqp_finite_sum(6, 4, 30, 20, seed=8)
    for _ in range(20):
        x = rng.uniform(-3, 3, size=fs.n)
        _fd_close(fs.full_objective_grad(x), fs.full_objective, x)
        for j in rng.choice(fs.num_constraints, size=3, replace=False):
            _fd_close(fs.full_constraint_grads(x)[j],
                      lambda v, j=j: fs.full_constraint_values(v)[j], x)

    ds = preprocess(make_synthetic_dataset(7, 60, 50, seed=9, separation=2.0))
    npc = make_npc(ds, c_hat=0.4)
    for _ in range(20):
        x = rng.uniform(-1, 1, size=7)
        _fd_close(npc.full_objective_grad(x), npc.full_objective, x)
        _fd_close(npc.full_constraint_grads(x)[0],
                  lambda v: npc.full_constraint_values(v)[0], x)

    frozen = make_qcqp_expectation(5, 3).freeze(n_samples=3000, seed=2)
    for _ in range(20):
        x = rng.uniform(-3, 3, size=5)
        _fd_close(frozen.full_objective_grad(x), frozen.full_objective, x)
        _fd_close(frozen.full_constraint_grads(x)[0],
                  lambda v: frozen.full_constraint_values(v)[0], x)

    bil = make_bilinear_saddle(5, 4, seed=10)
    for _ in range(20):
        x = rng.uniform(-1, 1, size=5)
        z = rng.uniform(-1, 1, size=4)
        u, w = bil.exact_grads(x, z)
        _fd_close(u, lambda v: bil.lagrangian(v, z), x)
        _fd_close(w, lambda v: bil.lagrangian(x, v), z)

    assert time.perf_counter() - t0 < 10.0


def test_criterion_07_and_09_desk_scale_solve_and_rate():
    """Desk-scale finite-sum QCQP, (n,p,N,M) = (10,5,1000,1000), K = 20000,
    3 seeds, constant steps: median final objective error <= 5e-2 against
    the reference optimum and median max violation <= 1e-2; the error at K
    is at most 0.75x the error at K/4. Budget: 3 min."""
    t0 = time.perf_counter()
    problem, ref = desk_qcqp()
    horizon = 20000
    params = SolverParams.constant(horizon, alpha=10.0, rho=1.0)
    batches = BatchSizes(j0=10, j1=10, jg=100)
    cps = [1000, 5000, 10000, horizon]
    runs = [aprid_run(problem, params, batches, seed, checkpoints=cps,
                      f0_ref=ref.objective) for seed in (1, 2, 3)]

    finals = statistics.median(r.records[-1].obj_err for r in runs)
    viols = statistics.median(r.records[-1].viol_max for r in runs)
    assert finals <= 5e-2
    assert viols <= 1e-2

    quarter = statistics.median(r.records[1].obj_err for r in runs)
    assert runs[0].records[1].iteration == horizon // 4
    assert finals <= 0.75 * quarter

    assert time.perf_counter() - t0 < 180.0


def test_criterion_08_comparative_ordering():
    """On the desk QCQP and a 50-feature synthetic classification problem,
    5-seed median final violations order the adaptive method at or below
    both baselines, and the cleared-steps average of the switching method
    beats its all-steps average on objective error. Budget: 5 min."""
    t0 = time.perf_counter()
    horizon = 10000
    seeds = (1, 2, 3, 4, 5)
    batches = BatchSizes(j0=10, j1=10, jg=100)

    def medians(problem, f0_ref):
        aprid_p = SolverParams.constant(horizon, alpha=10.0, rho=1.0)
        msa_p = MsaParams(horizon, alpha=10.0, rho=1.0)
        csa_p = CsaParams(horizon, gamma=10.0)
        out = {"aprid": [], "msa": [], "csa1": [], "csa2": []}
        for seed in seeds:
            out["aprid"].append(aprid_run(problem, aprid_p, batches, seed,
                                          f0_ref=f0_ref).final_record())
            out["msa"].append(msa_run(problem, msa_p, batches, seed,
                                      f0_ref=f0_ref).final_record())
            r1, r2 = csa_run(problem, csa_p, batches, seed, f0_ref=f0_ref)
            out["csa1"].append(r1.final_record())
            out["csa2"].append(r2.final_record())
        assert all(rec.flags == "" for rec in out["csa1"])  # cleared set nonempty
        return {
            name: (statistics.median(r.obj_err for r in recs),
                   statistics.median(r.viol_max for r in recs))
            for name, recs in out.items()
        }

    problem, ref = desk_qcqp()
    med = medians(problem, ref.objective)
    assert med["aprid"][1] <= med["msa"][1] + 1e-12
    assert med["aprid"][1] <= med["csa2"][1] + 1e-12
    assert med["csa1"][0] <= med["csa2"][0] + 1e-12

    ds = preprocess(make_synthetic_dataset(50, 1000, 1000, seed=3, separation=2.5))
    npc = make_npc(ds, c_hat=0.2681)
    npc_ref = solve_reference(npc, tol=1e-6)
    med = medians(npc, npc_ref.objective)
    assert med["aprid"][1] <= med["msa"][1] + 1e-12
    assert med["aprid"][1] <= med["csa2"][1] + 1e-12
    assert med["csa1"][0] <= med["csa2"][0] + 1e-12
    # the violation race is close here; the objective race is not, so pin
    # the wide margins too, plus an absolute feasibility cap
    assert med["aprid"][0] <= 0.5 * med["msa"][0]
    assert med["aprid"][0] <= 0.5 * med["csa2"][0]
    assert med["aprid"][1] <= 1e-2

    assert time.perf_counter() - t0 < 300.0


def test_criterion_10_saddle_gap_contraction():
    """Minimax solver on a 20x20 noisy bilinear game, constant steps,
    K = 10000, 5 seeds: median final exact gap is at most one tenth of the
    starting gap, no recorded gap dips below -1e-9, and the closed-form gap
    matches brute-force grid search on a 2x2 game. Budget: 1 min."""
    t0 = time.perf_counter()
    problem = make_bilinear_saddle(20, 20, seed=11, noise_sigma=0.1)
    x0 = problem.box_x.project(np.zeros(problem.box_x.dim))
    z0 = problem.box_z.project(np.zeros(problem.box_z.dim))
    init_gap = problem.gap(x0, z0)
    assert init_gap > 1.0

    horizon = 10000
    params = SolverParams.constant(horizon, alpha=1.0, rho=1.0)
    finals = []
    for seed in (1, 2, 3, 4, 5):
        res = apriad_run(problem, params, seed,
                         checkpoints=[2500, 5000, horizon])
        assert all(rec.gap >= -1e-9 for rec in res.records)
        finals.append(res.records[-1].gap)
    assert statistics.median(finals) <= 0.1 * init_gap

    tiny = make_bilinear_saddle(2, 2, seed=3)
    rng = np.random.default_rng(5)
    for _ in range(3):
        x = rng.uniform(-1, 1, size=2)
        z = rng.uniform(-1, 1, size=2)
        grid = brute.saddle_gap_grid(tiny, x, z, step=0.01)
        assert tiny.gap(x, z) == pytest.approx(grid, abs=1e-6)

    assert time.perf_counter() - t0 < 60.0


CONFIG_TEXT = """\
[problem]
kind = qcqp_finite_sum
n = 4
p = 2
num_objective_terms = 12
num_constraints = 6
instance_seed = 1

[algorithm]
name = aprid

[run]
horizon = 100
checkpoints = 50 100
seeds = 1 2
timing = none
reference = none
"""

BROKEN_CONFIG_TEXT = """\
[problem]
kind = qcqp_finite_sum
n = -4

[algorithm]
name = aprid

[run]
horizon = 100
"""

DIVERGING_CONFIG_TEXT = """\
[problem]
kind = npc_synthetic
d = 6
n_pos = 40
n_neg = 40
c_hat = 0.01

[algorithm]
name = aprid
divergence_cap = 1e-6

[run]
horizon = 20
checkpoints = 5 20
seeds = 1
timing = none
reference = none
"""


def test_criterion_11_determinism_io_exit_codes(tmp_path, capsys):
    """Identical config and seeds give byte-identical CSV bodies, rows
    round-trip through the reader, and the CLI honors its exit codes.
    Budget: 10 s."""
    t0 = time.perf_counter()
    ini = tmp_path / "exp.ini"
    ini.write_text(CONFIG_TEXT)

    assert cli_main(["run", "--config", str(ini), "--out", str(tmp_path / "a")]) == 0
    assert cli_main(["run", "--config", str(ini), "--out", str(tmp_path / "b")]) == 0
    for seed in (1, 2):
        fa = tmp_path / "a" / f"aprid_seed{seed}.csv"
        fb = tmp_path / "b" / f"aprid_seed{seed}.csv"
        assert fa.read_bytes() == fb.read_bytes()

    records = read_run_csv(tmp_path / "a" / "aprid_seed1.csv")
    assert [r.iteration for r in records] == [50, 100]
    rewritten = tmp_path / "rewritten.csv"
    write_run_csv(rewritten, records)
    assert rewritten.read_bytes() == (tmp_path / "a" / "aprid_seed1.csv").read_bytes()

    broken = tmp_path / "broken.ini"
    broken.write_text(BROKEN_CONFIG_TEXT)
    assert cli_main(["run", "--config", str(broken), "--out", str(tmp_path / "c")]) == 2

    diverging = tmp_path / "diverging.ini"
    diverging.write_text(DIVERGING_CONFIG_TEXT)
    assert cli_main(["run", "--config", str(diverging), "--out", str(tmp_path / "d")]) == 3

    capsys.readouterr()
    assert time.perf_counter() - t0 < 10.0
