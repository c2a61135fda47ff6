"""Reference solver: KKT residuals and the augmented Lagrangian loop, checked on
instances with hand-derivable optima.

The solutions of the golden finite-sum and npc instances are also pinned bit
for bit to ``tests/data/golden/reference-<label>_{x,z,objective}.npy``; after
a deliberate change to the solver or to an instance, regenerate the files of the
instances it changes with

    PYTHONPATH=src python3 tests/test_reference.py [LABEL ...]

(every instance when no label is given; a label is ``finite_sum`` or ``npc``)
and state the change and its reason alongside it.
"""

import os
import warnings

import numpy as np
import pytest

from aprid import (
    FiniteSumQcqpProblem,
    ReferenceError,
    build_problem,
    kkt_residuals,
    make_bilinear_saddle,
    make_qcqp_expectation,
    make_qcqp_finite_sum,
    read_manifest,
    run_experiment,
    solve_reference,
)
from aprid import reference
from test_golden_trajectories import (EXPECTATION, FINITE_SUM, FINITE_SUM_FULL, GOLDEN, NPC,
                                      _config)

# (label, problem section) of the golden trajectory instances
GOLDEN_INSTANCES = [("finite_sum", FINITE_SUM), ("npc", NPC)]


def known_solution_problem(b=0.0):
    """0.5 ||x - (1.5, -0.7, 0.3)||^2 subject to x1 - b <= 0.

    For b = 0 the optimum is x* = (0, -0.7, 0.3) with multiplier 1.5 and
    objective 1.125; the constraint is active and the pair is checkable by
    hand from stationarity (x* - c) + z* e1 = 0.
    """
    c = np.array([1.5, -0.7, 0.3])
    h = np.eye(3)[None, :, :]
    q = np.zeros((1, 3, 3))
    a = np.array([[1.0, 0.0, 0.0]])
    return FiniteSumQcqpProblem(h, c[None, :], q, a, [b])


X_STAR = np.array([0.0, -0.7, 0.3])
Z_STAR = np.array([1.5])


def test_kkt_residuals_vanish_at_known_optimum():
    problem = known_solution_problem()
    res = kkt_residuals(problem, X_STAR, Z_STAR)
    assert res.worst <= 1e-12
    assert "stationarity" in str(res) and "feasibility" in str(res)


def test_kkt_residuals_flag_perturbations():
    problem = known_solution_problem()
    # infeasible point
    res = kkt_residuals(problem, np.array([1.0, -0.7, 0.3]), Z_STAR)
    assert res.feasibility == pytest.approx(1.0)
    # feasible but non-stationary (multiplier dropped)
    res = kkt_residuals(problem, X_STAR, np.array([0.0]))
    assert res.stationarity == pytest.approx(1.5)
    assert res.feasibility == 0.0
    # wrong multiplier on an inactive constraint
    res = kkt_residuals(problem, np.array([-1.0, -0.7, 0.3]), np.array([2.0]))
    assert res.complementarity == pytest.approx(2.0)


def test_solve_reference_recovers_known_solution():
    problem = known_solution_problem()
    sol = solve_reference(problem, tol=1e-8)
    assert sol.objective == pytest.approx(1.125, abs=1e-6)
    np.testing.assert_allclose(sol.x, X_STAR, atol=1e-6)
    np.testing.assert_allclose(sol.z, Z_STAR, atol=1e-5)
    assert sol.residuals.worst <= 1e-8
    assert sol.outer_iterations >= 1


def test_solve_reference_inactive_constraint():
    # constraint pushed out of the way: unconstrained optimum, zero multiplier
    sol = solve_reference(known_solution_problem(b=20.0), tol=1e-8)
    assert sol.objective == pytest.approx(0.0, abs=1e-10)
    np.testing.assert_allclose(sol.x, [1.5, -0.7, 0.3], atol=1e-6)
    assert sol.z[0] <= 1e-8


def test_solve_reference_randomized_instance_recheck():
    problem = make_qcqp_finite_sum(4, 2, 12, 6, seed=1)
    sol = solve_reference(problem, tol=1e-6)
    # independent re-check of the returned pair
    res = kkt_residuals(problem, sol.x, sol.z)
    assert res.worst <= 1e-6
    assert sol.objective == pytest.approx(problem.full_objective(sol.x), rel=1e-12)
    assert np.all(sol.z >= 0.0)
    assert problem.box.contains(sol.x)


def test_solve_reference_infeasible_raises():
    # x1 <= -20 cannot hold inside [-10, 10]^3
    problem = known_solution_problem(b=-20.0)
    with pytest.raises(ReferenceError) as info:
        solve_reference(problem, tol=1e-6, max_outer=5)
    assert info.value.residuals is not None
    assert info.value.residuals.feasibility >= 9.0
    assert "residuals" in str(info.value)


def test_solve_reference_freezes_expectation_problems():
    problem = make_qcqp_expectation(4, 3, eval_samples=2000)
    sol = solve_reference(problem, tol=1e-6, freeze_samples=3000, freeze_seed=1)
    assert np.isfinite(sol.objective)
    assert sol.residuals.worst <= 1e-6
    # same freeze seed, same frozen instance, same answer
    again = solve_reference(problem, tol=1e-6, freeze_samples=3000, freeze_seed=1)
    np.testing.assert_array_equal(sol.x, again.x)


def test_solve_reference_rejects_saddle_problems():
    problem = make_bilinear_saddle(3, 3, seed=5)
    with pytest.raises(TypeError, match="freeze"):
        solve_reference(problem)


def _golden_problem(problem):
    return build_problem(_config(problem, {"name": "aprid"}))


def _reference_name(label, field):
    return os.path.join(GOLDEN, f"reference-{label}_{field}.npy")


@pytest.mark.parametrize("label,problem", GOLDEN_INSTANCES, ids=[c[0] for c in GOLDEN_INSTANCES])
def test_reference_is_bitwise_golden_and_evaluates_each_point_once(label, problem):
    prob = _golden_problem(problem)
    m = prob.num_constraints
    assert m == {"finite_sum": 20, "npc": 1}[label]
    points, seen = [], []  # the point of every evaluation call, and each (point, row) formed
    full_values = prob.full_constraint_values
    if label == "finite_sum":  # every exact row of the finite-sum family is formed here
        exact = prob._exact_values

        def recording(x, ax, rows):
            points.append(x.tobytes())
            seen.extend((x.tobytes(), int(j)) for j in rows)
            return exact(x, ax, rows)

        prob._exact_values = recording
    else:
        def recording(x):
            points.append(np.asarray(x, dtype=float).tobytes())
            seen.append((points[-1], 0))
            return full_values(x)

        prob.full_constraint_values = recording
    sol = solve_reference(prob, tol=1e-6)
    for field in ("x", "z", "objective"):
        want = np.load(_reference_name(label, field))
        got = np.asarray(getattr(sol, field))
        assert got.dtype == want.dtype and np.array_equal(got, want), field
    assert len(set(points)) > sol.outer_iterations
    assert len(set(seen)) == len(seen), "a row was evaluated twice at one point"
    # every row at the returned point, and, for the finite sum, rows skipped elsewhere
    assert {j for x, j in seen if x == sol.x.tobytes()} == set(range(m))
    if label == "finite_sum":
        assert len(seen) < m * len(set(points))
    # the values returned are exact at the returned point
    assert np.array_equal(sol.constraint_values, full_values(sol.x))


def _dense_weighted_constraint_grad(problem, x, weights):
    # the product as formed before zero weights were skipped
    return weights @ problem.full_constraint_grads(x)


SKIP_INSTANCES = [("finite_sum", FINITE_SUM, 2), ("npc", NPC, 1),
                  ("finite_sum_inactive", FINITE_SUM_FULL, 0)]


@pytest.mark.parametrize("label,problem,active", SKIP_INSTANCES, ids=[c[0] for c in SKIP_INSTANCES])
def test_zero_weight_skip_keeps_every_reference_bit(label, problem, active, monkeypatch):
    prob = _golden_problem(problem)
    calls = []
    full_grads = prob.full_constraint_grads

    def counting(x):
        calls.append(1)
        return full_grads(x)

    prob.full_constraint_grads = counting
    skipped = solve_reference(prob, tol=1e-6)
    skipped_calls = len(calls)
    calls.clear()
    monkeypatch.setattr(reference, "_weighted_constraint_grad", _dense_weighted_constraint_grad)
    dense = solve_reference(prob, tol=1e-6)
    assert np.count_nonzero(dense.z) == active
    for field in ("x", "z", "objective", "constraint_values"):
        want = np.asarray(getattr(dense, field))
        assert np.asarray(getattr(skipped, field)).tobytes() == want.tobytes(), field
    assert skipped_calls < len(calls)
    if active == 0:
        assert skipped_calls == 0


def test_zero_weights_add_the_same_bits_as_the_product():
    prob = _golden_problem(FINITE_SUM)
    x = np.array([0.3, -0.2, 0.1, -0.5])
    grads = prob.full_constraint_grads(x)
    assert (grads < 0).any() and (grads > 0).any()  # so 0 * g takes both signs
    bases = (prob.full_objective_grad(x), np.array([-0.0, 0.0, -1.5, 2.0]))

    def unreachable(x):
        raise AssertionError("formed the constraint gradients for all-zero weights")

    prob.full_constraint_grads = unreachable
    for zero in (np.zeros(prob.num_constraints), -np.zeros(prob.num_constraints)):
        for product in (zero @ grads, grads.T @ zero):
            # the product is +0.0 in every entry, whatever the signs of the zeros
            assert not product.any() and not np.signbit(product).any()
            got = reference._weighted_constraint_grad(prob, x, zero)
            for base in bases:
                assert (base + got).tobytes() == (base + product).tobytes()


@pytest.mark.parametrize("problem,active", [(NPC, 1), (FINITE_SUM, 2)], ids=["npc", "finite_sum"])
def test_manifest_reports_active_reference_constraints(tmp_path, problem, active):
    with warnings.catch_warnings():
        warnings.filterwarnings("error", message="no constraint is active")
        out = run_experiment(_config(problem, {"name": "aprid"}), str(tmp_path))
    manifest = read_manifest(out.manifest_path)
    sol = solve_reference(_golden_problem(problem), tol=1e-6)
    f = sol.constraint_values
    assert manifest["reference.active_constraints"] == str(active)
    assert np.count_nonzero(sol.z) == active
    assert np.all(np.abs(f[sol.z > 0]) <= 1e-6)
    assert manifest["reference.z_norm"] == format(float(np.linalg.norm(sol.z)), ".3e")
    assert manifest["reference.min_slack"] == format(-float(np.max(f)), ".3e")


def test_manifest_warns_when_no_reference_constraint_is_active(tmp_path):
    with pytest.warns(UserWarning, match="no constraint is active") as caught:
        out = run_experiment(_config(FINITE_SUM_FULL, {"name": "aprid"}), str(tmp_path))
    assert sum("no constraint is active" in str(w.message) for w in caught) == 1
    manifest = read_manifest(out.manifest_path)
    sol = solve_reference(_golden_problem(FINITE_SUM_FULL), tol=1e-6)
    assert manifest["reference.active_constraints"] == "0"
    assert manifest["reference.z_norm"] == format(float(np.linalg.norm(sol.z)), ".3e")
    slack = -float(np.max(sol.constraint_values))
    assert slack > 1e-6
    assert manifest["reference.min_slack"] == format(slack, ".3e")


def _start_objective_by_hand(problem, cfg):
    """f0 at box.project(0), as the mean of 0.5 ||H_i x0 - c_i||^2 over the instance's own
    terms: the finite sum's N, or the freeze's draws of the expectation family."""
    x0 = problem.box.project(np.zeros(problem.n))
    if problem.kind == "qcqp_finite_sum":
        terms = [(problem.h, problem.c)]
    else:
        rng = np.random.default_rng(cfg.run["freeze_seed"])
        terms = [(h, c) for h, c, _, _ in problem._draws(rng, cfg.run["freeze_samples"])]
    residual_sums = [np.sum((np.einsum("spn,n->sp", h, x0) - c) ** 2) for h, c in terms]
    return 0.5 * sum(residual_sums) / sum(len(c) for _, c in terms)


@pytest.mark.filterwarnings("ignore:no constraint is active")  # the expectation instance
@pytest.mark.parametrize("problem", [FINITE_SUM, EXPECTATION], ids=["finite_sum", "expectation"])
def test_manifest_reports_the_start_gap(tmp_path, problem):
    # every solver starts at box.project(0); the gap is f0 there minus f0_ref, on the frozen
    # instance for the expectation family
    cfg = _config(problem, {"name": "aprid"})
    manifest = read_manifest(run_experiment(cfg, str(tmp_path)).manifest_path)
    want = _start_objective_by_hand(_golden_problem(problem), cfg) - float(manifest["reference.f0"])
    assert abs(want) > 1e-6
    assert float(manifest["reference.start_gap"]) == pytest.approx(want, rel=1e-3)


if __name__ == "__main__":
    import sys

    labels = sys.argv[1:] or [c[0] for c in GOLDEN_INSTANCES]
    unknown = sorted(set(labels) - {c[0] for c in GOLDEN_INSTANCES})
    if unknown:
        sys.exit(f"unknown instance label(s): {', '.join(unknown)}")
    os.makedirs(GOLDEN, exist_ok=True)
    for label, problem in (c for c in GOLDEN_INSTANCES if c[0] in labels):
        sol = solve_reference(_golden_problem(problem), tol=1e-6)
        for field in ("x", "z", "objective"):
            np.save(_reference_name(label, field), np.asarray(getattr(sol, field)))
