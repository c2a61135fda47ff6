import pathlib
import warnings

import numpy as np
import pytest

from aprid import (
    BoxSet,
    Dataset,
    ExpectationQcqpProblem,
    FiniteSumQcqpProblem,
    load_dataset,
    load_instance,
    make_bilinear_saddle,
    make_npc,
    make_qcqp_finite_sum,
    make_synthetic_dataset,
    preprocess,
    save_instance,
    standardize_columns,
    training_rng,
)

from brute import central_difference_gradient, logistic_losses, saddle_gap_grid

DATA = pathlib.Path(__file__).parent / "data"


# -- datasets ---------------------------------------------------------------


def test_dense_csv_loads_with_header():
    ds = load_dataset(DATA / "tiny_dense.csv")
    assert ds.features.shape == (8, 4)
    assert ds.pos_count == 4 and ds.neg_count == 4
    assert ds.features[0, 2] == 2.0


def test_sparse_matches_dense_fixture():
    dense = load_dataset(DATA / "tiny_dense.csv")
    sparse = load_dataset(DATA / "tiny_sparse.txt")
    assert np.array_equal(dense.features, sparse.features)
    assert np.array_equal(dense.labels, sparse.labels)  # 0 labels mapped to -1


def test_format_override_and_sniffing():
    ds = load_dataset(DATA / "tiny_sparse.txt", fmt="sparse-index-value")
    assert ds.features.shape == (8, 4)
    with pytest.raises(ValueError):
        load_dataset(DATA / "tiny_dense.csv", fmt="no-such-format")


def test_dense_errors_name_the_line(tmp_path):
    bad_width = tmp_path / "w.csv"
    bad_width.write_text("1.0,2.0,1\n3.0,-1\n")
    with pytest.raises(ValueError, match="line 2"):
        load_dataset(bad_width)
    bad_label = tmp_path / "l.csv"
    bad_label.write_text("1.0,2.0,1\n3.0,4.0,7\n")
    with pytest.raises(ValueError, match="line 2.*label"):
        load_dataset(bad_label)
    bad_float = tmp_path / "f.csv"
    bad_float.write_text("1.0,2.0,1\nx,4.0,1\n")
    with pytest.raises(ValueError, match="line 2"):
        load_dataset(bad_float)


def test_sparse_errors(tmp_path):
    f = tmp_path / "s.txt"
    f.write_text("1 1:0.5\n0 oops\n")
    with pytest.raises(ValueError, match="line 2"):
        load_dataset(f)
    f.write_text("1 0:0.5\n")
    with pytest.raises(ValueError, match="1-based"):
        load_dataset(f)


def test_empty_file_errors(tmp_path):
    f = tmp_path / "e.csv"
    f.write_text("\n\n")
    with pytest.raises(ValueError, match="no data"):
        load_dataset(f)


def test_standardize_columns_moments():
    rng = np.random.default_rng(0)
    x = rng.uniform(1, 5, (40, 6)) * np.array([1, 10, 100, 0.1, 2, 5])
    out = standardize_columns(x)
    assert np.allclose(out.mean(axis=0), 0, atol=1e-12)
    assert np.allclose(out.std(axis=0), 1, rtol=1e-12)


def test_standardize_drops_constant_columns():
    x = np.array([[1.0, 5.0, 2.0], [2.0, 5.0, 4.0], [3.0, 5.0, 8.0]])
    with pytest.warns(UserWarning):
        out = standardize_columns(x)
    assert out.shape == (3, 2)
    x_all_const = np.full((4, 3), 7.0)
    with pytest.raises(ValueError):
        standardize_columns(x_all_const)


def test_preprocess_unit_rows():
    ds = load_dataset(DATA / "tiny_dense.csv")
    out = preprocess(ds)
    norms = np.linalg.norm(out.features, axis=1)
    assert np.allclose(norms, 1.0, rtol=1e-12)
    assert np.array_equal(out.labels, ds.labels)


def test_preprocess_zero_row_errors():
    # middle row equals the column means, so standardizing zeroes it out
    feats = np.array([[0.0, 0.0], [1.0, 1.0], [-1.0, -1.0]])
    ds = Dataset(features=feats, labels=np.array([1, -1, 1]))
    with pytest.raises(ValueError, match="row"):
        preprocess(ds)


def test_synthetic_dataset_shape_and_determinism():
    a = make_synthetic_dataset(12, 30, 20, seed=9, separation=2.0)
    b = make_synthetic_dataset(12, 30, 20, seed=9, separation=2.0)
    c = make_synthetic_dataset(12, 30, 20, seed=10, separation=2.0)
    assert a.features.shape == (50, 12)
    assert a.pos_count == 30 and a.neg_count == 20
    assert np.array_equal(a.features, b.features)
    assert not np.array_equal(a.features, c.features)


def test_synthetic_dataset_separation_scales_the_gap():
    ds = make_synthetic_dataset(10, 4000, 4000, seed=1, separation=3.0)
    gap = ds.positives().mean(axis=0) - ds.negatives().mean(axis=0)
    assert np.linalg.norm(gap) == pytest.approx(3.0, rel=0.15)


# -- Neyman-Pearson problem ---------------------------------------------------


@pytest.fixture(scope="module")
def npc():
    ds = preprocess(make_synthetic_dataset(6, 25, 20, seed=2, separation=2.0))
    return make_npc(ds, c_hat=0.4)


def test_npc_objective_matches_direct_logistic(npc):
    rng = np.random.default_rng(3)
    x = rng.uniform(-1, 1, 6)
    margins = npc._pos @ x
    want = float(np.mean(logistic_losses(margins)))
    assert npc.full_objective(x) == pytest.approx(want, rel=1e-12)
    # constraint is the negative-class loss shifted by the cap
    want_c = float(np.mean(logistic_losses(-(npc._neg @ x)))) - 0.4
    assert npc.full_constraint_values(x)[0] == pytest.approx(want_c, rel=1e-12)


def test_npc_gradients_match_finite_differences(npc):
    rng = np.random.default_rng(4)
    for _ in range(5):
        x = rng.uniform(-1, 1, 6)
        g = central_difference_gradient(npc.full_objective, x)
        assert np.allclose(npc.full_objective_grad(x), g, rtol=1e-6, atol=1e-9)
        gc = central_difference_gradient(lambda v: npc.full_constraint_values(v)[0], x)
        assert np.allclose(npc.full_constraint_grads(x)[0], gc, rtol=1e-6, atol=1e-9)


def test_npc_exact_constraint_block(npc):
    # the "exact" block reports the true constraint value with batch gradients
    x = np.full(6, 0.3)
    support, values, grads = npc.sample_constraint_block_exact(x, 5, training_rng(0))
    assert np.array_equal(support, [0])
    assert values[0] == pytest.approx(npc.full_constraint_values(x)[0])
    assert grads.shape == (1, 6)


def test_make_npc_level_arithmetic():
    ds = preprocess(make_synthetic_dataset(6, 25, 20, seed=2, separation=2.0))
    direct = make_npc(ds, c_hat=0.5)
    derived = make_npc(ds, c_target=0.5 + 3.0 / np.sqrt(20), kappa=3.0)
    assert derived.c_hat == pytest.approx(direct.c_hat)
    with pytest.raises(ValueError):
        make_npc(ds)  # neither level given
    with pytest.raises(ValueError):
        make_npc(ds, c_hat=0.5, c_target=0.6)
    with pytest.warns(UserWarning):
        make_npc(ds, c_hat=-0.1)  # unattainable cap


def test_npc_rejects_single_class():
    feats = np.random.default_rng(0).standard_normal((5, 3))
    ds = Dataset(features=feats, labels=np.ones(5, dtype=int))
    with pytest.raises(ValueError):
        make_npc(ds, c_hat=0.5)


# -- finite-sum QCQP ----------------------------------------------------------


@pytest.fixture(scope="module")
def qcqp():
    return make_qcqp_finite_sum(5, 3, 30, 20, seed=6)


def test_qcqp_objective_matches_double_loop(qcqp):
    rng = np.random.default_rng(7)
    x = rng.uniform(-2, 2, 5)
    direct = np.mean([0.5 * np.sum((qcqp.h[i] @ x - qcqp.c[i]) ** 2) for i in range(30)])
    assert qcqp.full_objective(x) == pytest.approx(float(direct), rel=1e-12)
    vals = [0.5 * x @ qcqp.q[j] @ x + qcqp.a[j] @ x - qcqp.b[j] for j in range(20)]
    assert np.allclose(qcqp.full_constraint_values(x), vals, rtol=1e-12)


def test_qcqp_full_evaluators_equal_the_oracle_rows_bitwise(qcqp):
    # the full evaluators and the sampling oracle share one expression per row
    rng = np.random.default_rng(11)
    for _ in range(3):
        x = rng.uniform(-2, 2, 5)
        support, values, grads = qcqp.sample_constraint_block(x, 20, rng)
        assert sorted(support) == list(range(20)) and not np.array_equal(support, np.arange(20))
        assert np.array_equal(qcqp.full_constraint_values(x)[support], values)
        assert np.array_equal(qcqp.full_constraint_grads(x)[support], grads)


def test_qcqp_gradients_match_finite_differences(qcqp):
    rng = np.random.default_rng(8)
    for _ in range(5):
        x = rng.uniform(-2, 2, 5)
        g = central_difference_gradient(qcqp.full_objective, x)
        assert np.allclose(qcqp.full_objective_grad(x), g, rtol=1e-6, atol=1e-8)
        for j in (0, 7, 19):
            gj = central_difference_gradient(lambda v: qcqp.full_constraint_values(v)[j], x)
            assert np.allclose(qcqp.full_constraint_grads(x)[j], gj, rtol=1e-6, atol=1e-8)


def test_qcqp_instance_normalization(qcqp):
    fro = np.sqrt(np.einsum("ipn,ipn->i", qcqp.h, qcqp.h))
    assert np.allclose(fro, 1.0, rtol=1e-12)
    assert np.allclose(np.linalg.norm(qcqp.c, axis=1), 1.0, rtol=1e-12)
    assert np.allclose(np.linalg.norm(qcqp.a, axis=1), 1.0, rtol=1e-12)
    spec = np.array([np.linalg.eigvalsh(qcqp.q[j])[-1] for j in range(20)])
    assert np.allclose(spec, 1.0, rtol=1e-10)
    eigs = np.linalg.eigvalsh(qcqp.q)
    assert np.all(eigs >= -1e-10)  # PSD
    assert np.all((qcqp.b > 0.1) & (qcqp.b < 1.1))


def test_qcqp_spectral_normalization_option():
    prob = make_qcqp_finite_sum(4, 3, 5, 4, seed=1, h_normalization="spectral")
    spec = np.array([np.linalg.svd(prob.h[i], compute_uv=False)[0] for i in range(5)])
    assert np.allclose(spec, 1.0, rtol=1e-10)


def test_qcqp_determinism_and_memory_guard():
    a = make_qcqp_finite_sum(5, 3, 30, 20, seed=6)
    b = make_qcqp_finite_sum(5, 3, 30, 20, seed=6)
    assert np.array_equal(a.h, b.h) and np.array_equal(a.q, b.q)
    with pytest.raises(ValueError, match="budget"):
        make_qcqp_finite_sum(100, 50, 10_000, 10_000, seed=0, max_elements=10_000)


def test_qcqp_evaluate_full_summarizes_violations(qcqp):
    x = np.full(5, 2.0)
    full = qcqp.evaluate_full(x)
    vals = qcqp.full_constraint_values(x)
    assert full.objective == pytest.approx(qcqp.full_objective(x))
    assert full.viol_max == pytest.approx(float(np.max(np.maximum(vals, 0))))
    assert full.viol_avg == pytest.approx(float(np.mean(np.maximum(vals, 0))))


# -- expectation-form QCQP ----------------------------------------------------


def test_expectation_objective_population_value():
    # closed form: E 0.5||Hx - c||^2 = 0.5 (||x||^2 / n + 1) under unit
    # Frobenius H and unit c, both centered
    prob = ExpectationQcqpProblem(6, 4, eval_samples=40_000)
    x = np.array([1.0, -1.0, 0.5, 0.0, 2.0, -0.3])
    want = 0.5 * (np.dot(x, x) / 6 + 1.0)
    got = prob.evaluate_full(x, seed=11).objective
    assert got == pytest.approx(want, rel=0.02)


def test_expectation_eval_deterministic_given_seed():
    prob = ExpectationQcqpProblem(4, 3, eval_samples=2_000)
    x = np.full(4, 0.5)
    a = prob.evaluate_full(x, seed=5)
    b = prob.evaluate_full(x, seed=5)
    c = prob.evaluate_full(x, seed=6)
    assert a.objective == b.objective and a.viol_max == b.viol_max
    assert a.objective != c.objective


def test_freeze_agrees_with_independent_evaluation():
    # the frozen aggregate and a fresh evaluation sample estimate the same
    # population quantities; [.]_+ is 1-Lipschitz so clipped values inherit
    # the tolerance
    prob = ExpectationQcqpProblem(4, 3, eval_samples=30_000)
    frozen = prob.freeze(n_samples=30_000, seed=1)
    rng = np.random.default_rng(12)
    for _ in range(3):
        x = rng.uniform(-1.5, 1.5, 4)
        full = prob.evaluate_full(x, seed=13)
        froz = frozen.evaluate_full(x)
        assert froz.objective == pytest.approx(full.objective, abs=0.05)
        assert froz.viol_max == pytest.approx(full.viol_max, abs=0.05)


def test_freeze_is_seed_deterministic():
    prob = ExpectationQcqpProblem(3, 2)
    f1 = prob.freeze(n_samples=1_000, seed=4)
    f2 = prob.freeze(n_samples=1_000, seed=4)
    f3 = prob.freeze(n_samples=1_000, seed=5)
    assert np.array_equal(f1.amat, f2.amat) and f1.b == f2.b
    assert not np.array_equal(f1.amat, f3.amat)


def test_frozen_gradients_match_finite_differences():
    prob = ExpectationQcqpProblem(4, 3)
    frozen = prob.freeze(n_samples=500, seed=2)
    x = np.array([0.7, -0.2, 1.1, 0.4])
    g = central_difference_gradient(frozen.full_objective, x)
    assert np.allclose(frozen.full_objective_grad(x), g, rtol=1e-6, atol=1e-8)
    gc = central_difference_gradient(lambda v: frozen.full_constraint_values(v)[0], x)
    assert np.allclose(frozen.full_constraint_grads(x)[0], gc, rtol=1e-6, atol=1e-8)


# -- bilinear saddle ----------------------------------------------------------


def test_bilinear_instance_normalization():
    prob = make_bilinear_saddle(5, 4, seed=3)
    assert np.linalg.svd(prob.a_mat, compute_uv=False)[0] == pytest.approx(1.0)
    assert np.linalg.norm(prob.b) == pytest.approx(1.0)
    assert np.linalg.norm(prob.c) == pytest.approx(1.0)


def test_bilinear_gap_nonnegative_and_zero_noise_grads():
    prob = make_bilinear_saddle(5, 4, seed=3)
    rng = np.random.default_rng(14)
    for _ in range(20):
        x = rng.uniform(-1, 1, 5)
        z = rng.uniform(-1, 1, 4)
        assert prob.gap(x, z) >= -1e-12
    u, w = prob.exact_grads(x, z)
    gu = central_difference_gradient(lambda v: prob.lagrangian(v, z), x)
    gw = central_difference_gradient(lambda v: prob.lagrangian(x, v), z)
    assert np.allclose(u, gu, rtol=1e-6, atol=1e-9)
    assert np.allclose(w, gw, rtol=1e-6, atol=1e-9)


def test_bilinear_gap_matches_grid_brute_force():
    prob = make_bilinear_saddle(2, 2, seed=8)
    x = np.array([0.3, -0.6])
    z = np.array([-0.2, 0.5])
    want = saddle_gap_grid(prob, x, z, step=0.05)
    assert prob.gap(x, z) == pytest.approx(want, abs=0.1)


def test_saddle_has_no_scalar_evaluation():
    prob = make_bilinear_saddle(3, 3, seed=0)
    assert not hasattr(prob, "evaluate_full")


# -- instance snapshots -------------------------------------------------------


def test_snapshot_round_trip_finite_sum(tmp_path, qcqp):
    path = tmp_path / "q.npz"
    save_instance(qcqp, path)
    back = load_instance(path)
    x = np.full(5, 0.4)
    assert back.kind == "qcqp_finite_sum"
    assert back.full_objective(x) == pytest.approx(qcqp.full_objective(x), rel=1e-15)
    assert np.array_equal(back.box.lower, qcqp.box.lower)


def test_snapshot_round_trip_npc(tmp_path, npc):
    path = tmp_path / "n.npz"
    save_instance(npc, path)
    back = load_instance(path)
    x = np.full(6, 0.2)
    assert back.full_constraint_values(x)[0] == pytest.approx(
        npc.full_constraint_values(x)[0], rel=1e-15
    )


def test_snapshot_round_trip_bilinear(tmp_path):
    prob = make_bilinear_saddle(3, 2, seed=5, noise_sigma=0.2)
    path = tmp_path / "b.npz"
    save_instance(prob, path)
    back = load_instance(path)
    assert back.noise_sigma == 0.2
    x, z = np.full(3, 0.1), np.full(2, -0.1)
    assert back.gap(x, z) == pytest.approx(prob.gap(x, z), rel=1e-15)


def test_snapshot_round_trip_frozen(tmp_path):
    frozen = ExpectationQcqpProblem(3, 2).freeze(n_samples=200, seed=7)
    path = tmp_path / "f.npz"
    save_instance(frozen, path)
    back = load_instance(path)
    x = np.full(3, 0.6)
    assert back.full_objective(x) == pytest.approx(frozen.full_objective(x), rel=1e-15)
