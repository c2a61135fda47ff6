import pathlib
import tracemalloc
import warnings

import numpy as np
import pytest

from aprid import (
    BilinearSaddleProblem,
    BoxSet,
    Dataset,
    ExpectationQcqpProblem,
    FiniteSumQcqpProblem,
    FrozenQcqpProblem,
    NeymanPearsonProblem,
    load_dataset,
    load_instance,
    make_bilinear_saddle,
    make_npc,
    make_qcqp_finite_sum,
    make_synthetic_dataset,
    preprocess,
    save_instance,
    standardize_columns,
    stream_seed,
    training_rng,
)

from aprid import problems
from aprid.problems import (_EVAL_CHUNK, _certified_top, _constraint_values_at,
                            _draw_constraint_terms, _draw_objective_terms, _eigvalsh_top,
                            _objective_values_at, _unit_2norm)
from aprid.rng import CONSTRAINT_TAG, OBJECTIVE_TAG, RECORD_BLOCK, TRAIN_TAG, read_records
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
    bad_label_text = tmp_path / "t.csv"
    bad_label_text.write_text("1.0,2.0,1\n3.0,4.0,yes\n")
    with pytest.raises(ValueError, match="line 2: cannot parse label 'yes'"):
        load_dataset(bad_label_text)


def test_sparse_errors(tmp_path):
    f = tmp_path / "s.txt"
    f.write_text("1 1:0.5\n0 oops\n")
    with pytest.raises(ValueError, match="line 2"):
        load_dataset(f)
    f.write_text("1 0:0.5\n")
    with pytest.raises(ValueError, match="1-based"):
        load_dataset(f)
    f.write_text("1 1:0.5\n-1 2:half\n")
    with pytest.raises(ValueError, match="line 2: malformed index:value token '2:half'"):
        load_dataset(f)


def test_empty_file_errors(tmp_path):
    f = tmp_path / "e.csv"
    f.write_text("\n\n")
    with pytest.raises(ValueError, match="no data"):
        load_dataset(f)
    f.write_text("x1,x2,label\n")
    with pytest.raises(ValueError, match="e.csv: no data rows"):
        load_dataset(f)
    f.write_text("1\n-1\n")
    with pytest.raises(ValueError, match="e.csv: no feature entries found"):
        load_dataset(f, fmt="sparse-index-value")


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


# (build, message) of every shape, size and option a dataset or problem
# constructor or factory rejects
BAD_INSTANCES = {
    "dataset features": (lambda: Dataset(features=np.ones(3), labels=np.array([1, -1, 1])),
                         r"features must be 2-d, got shape \(3,\)"),
    "dataset labels shape": (lambda: Dataset(features=np.ones((3, 2)), labels=np.array([1, -1])),
                             r"labels shape \(2,\) does not match 3 rows"),
    "dataset labels": (lambda: Dataset(features=np.ones((3, 2)), labels=np.array([1, 0, 2])),
                       r"labels must be \+1/-1, found \[0, 2\]"),
    "synthetic positives": (lambda: make_synthetic_dataset(3, 0, 5, seed=0),
                            "both classes need at least one sample"),
    "synthetic negatives": (lambda: make_synthetic_dataset(3, 5, 0, seed=0),
                            "both classes need at least one sample"),
    "npc box": (lambda: NeymanPearsonProblem(make_synthetic_dataset(3, 4, 4, seed=0), c_hat=0.5,
                                             box=BoxSet.symmetric(2, 1.0)),
                "box dimension 2 does not match d=3"),
    "expectation n": (lambda: ExpectationQcqpProblem(0, 2), "need n >= 1 and p >= 1, got n=0"),
    "expectation p": (lambda: ExpectationQcqpProblem(3, 0),
                      "need n >= 1 and p >= 1, got n=3, p=0"),
    "expectation normalization": (lambda: ExpectationQcqpProblem(3, 2, h_normalization="max"),
                                  "unknown h_normalization 'max'"),
    "expectation samples": (lambda: ExpectationQcqpProblem(3, 2, eval_samples=0),
                            "eval_samples must be positive, got 0"),
    "finite-sum normalization": (lambda: make_qcqp_finite_sum(3, 2, 4, 4, seed=0,
                                                              h_normalization="max"),
                                 "unknown h_normalization 'max'"),
    "finite-sum sizes": (lambda: make_qcqp_finite_sum(3, 2, 0, 4, seed=0),
                         "n, p, N, M must all be positive"),
    "finite-sum shapes": (lambda: FiniteSumQcqpProblem(np.ones((4, 3)), np.ones((4, 2)),
                                                       np.ones((2, 3, 3)), np.ones((2, 3)),
                                                       np.ones(2)),
                          r"h must be \(N, p, n\) and q must be \(M, n, n\)"),
    "saddle shape": (lambda: BilinearSaddleProblem(np.ones((3, 2)), np.ones(3), np.ones(3)),
                     r"coupling matrix shape \(3, 2\) does not match b \(3\) and c \(3\)"),
    "saddle noise": (lambda: BilinearSaddleProblem(np.ones((3, 2)), np.ones(3), np.ones(2),
                                                   noise_sigma=-0.1),
                     "noise_sigma must be non-negative, got -0.1"),
    "saddle sizes": (lambda: make_bilinear_saddle(3, 0, seed=0),
                     "need n >= 1 and m >= 1, got n=3, m=0"),
}


@pytest.mark.parametrize("case", sorted(BAD_INSTANCES))
def test_constructors_and_factories_reject_bad_input(case):
    build, message = BAD_INSTANCES[case]
    with pytest.raises(ValueError, match=message):
        build()


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


def _one_shot_constraint_terms(rng, count, n):
    # the draw as it was before the block-wise build, kept verbatim as the oracle
    g = rng.standard_normal((count, n, n))
    q = np.matmul(g.transpose(0, 2, 1), g)
    del g  # at most two count x n x n arrays live at once
    q /= np.maximum(np.linalg.eigvalsh(q)[:, -1], 1e-300)[:, None, None]
    a = _unit_2norm(rng.standard_normal((count, n)))
    b = rng.uniform(0.1, 1.1, size=count)
    return q, a, b


@pytest.mark.parametrize("count", [1, 10, _EVAL_CHUNK - 1, _EVAL_CHUNK, _EVAL_CHUNK + 1,
                                   2 * _EVAL_CHUNK + 3])
def test_block_wise_constraint_draw_is_the_one_shot_draw_bitwise(count):
    for seed in (0, 1, 2):
        rng_blocks, rng_once = np.random.default_rng(seed), np.random.default_rng(seed)
        got = _draw_constraint_terms(rng_blocks, count, 4)
        want = _one_shot_constraint_terms(rng_once, count, 4)
        for name, g, w in zip("qab", got, want):
            assert g.shape == w.shape and g.tobytes() == w.tobytes(), (name, seed)
        # the generator stands at the same place in its stream
        assert rng_blocks.standard_normal(5).tobytes() == rng_once.standard_normal(5).tobytes()


def test_finite_sum_build_never_holds_the_whole_gaussian_tensor():
    n, m = 10, 20_000
    block_bytes = _EVAL_CHUNK * n * n * 8
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        prob = make_qcqp_finite_sum(n, 5, 100, m, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    stored = sum(arr.nbytes for arr in (prob.h, prob.c, prob.q, prob.a, prob.b))
    # materialising G whole would add m * n * n * 8 = 16 MB, more than the two blocks
    assert m * n * n * 8 > 2 * block_bytes
    assert peak < stored + 2 * block_bytes, (peak, stored)


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


# -- expectation training records ---------------------------------------------


def _record_blocks(seed, tag, draw, blocks):
    # the record stream drawn by hand, RECORD_BLOCK records at a time from the child of
    # the training SeedSequence under spawn_key (tag,)
    train = stream_seed(seed, TRAIN_TAG)
    gen = np.random.default_rng(np.random.SeedSequence(train.entropy, spawn_key=(tag,)))
    return [np.concatenate(c) for c in zip(*(draw(gen, RECORD_BLOCK) for _ in range(blocks)))]


def test_record_requests_read_the_stream_in_order_across_blocks():
    prob = ExpectationQcqpProblem(3, 2)
    for tag, draw in ((OBJECTIVE_TAG, prob._objective_records),
                      (CONSTRAINT_TAG, prob._constraint_records)):
        want = _record_blocks(5, tag, draw, 4)
        stream, lo = training_rng(5), 0
        # inside the first block, up to its end, across one boundary, across two
        for count in (RECORD_BLOCK - 13, 13, 10, 2 * RECORD_BLOCK + 1):
            got = read_records(stream, tag, draw, count)
            assert len(got) == len(want)
            for column, full in zip(got, want):
                assert np.array_equal(column, full[lo:lo + count])
            lo += count


def test_expectation_oracles_evaluate_their_records():
    prob = ExpectationQcqpProblem(4, 3)
    x = np.array([0.3, -1.2, 0.8, 0.1])
    h, c = _record_blocks(6, OBJECTIVE_TAG, prob._objective_records, 1)
    q, a, b = _record_blocks(6, CONSTRAINT_TAG, prob._constraint_records, 1)
    stream = training_rng(6)
    # the objective gradient averages the records' own; the constraint oracles evaluate
    # once at the records' mean
    want = np.einsum("spn,sp->n", h[:5], np.einsum("spn,n->sp", h[:5], x) - c[:5]) / 5
    assert np.array_equal(prob.sample_objective_grad(x, 5, stream), want)
    support, values, grads = prob.sample_constraint_block(x, 7, stream)
    assert support.tolist() == [0]
    assert values[0] == pytest.approx(_constraint_values_at(q[:7], a[:7], b[:7], x).mean(),
                                      rel=1e-12)
    assert np.allclose(grads[0], (q[:7] @ x + a[:7]).mean(axis=0), rtol=1e-12, atol=1e-15)
    assert prob.constraint_value_estimate(x, 9, stream) == pytest.approx(
        _constraint_values_at(q[7:16], a[7:16], b[7:16], x).mean(), rel=1e-12)


def test_constraint_value_estimates_leave_the_other_streams_alone():
    # csa draws jg extra constraint records on some steps: the objective records, and the
    # training Generator the finite-sum oracles read, stay where they were
    prob = ExpectationQcqpProblem(4, 3)
    x = np.full(4, 0.4)
    plain, extra = training_rng(8), training_rng(8)
    for step in range(2 * RECORD_BLOCK // 50):
        extra_value = prob.constraint_value_estimate(x, 37, extra)
        assert np.isfinite(extra_value)
        assert np.array_equal(prob.sample_objective_grad(x, 50, plain),
                              prob.sample_objective_grad(x, 50, extra)), step
    assert plain.random() == extra.random() == \
        np.random.default_rng(stream_seed(8, TRAIN_TAG)).random()


def test_expectation_objective_records_are_unbiased_at_j_above_one():
    # E[H'H] = I/n and E[H'c] = 0 for unit-Frobenius Gaussian H: the mean is x/n
    prob = ExpectationQcqpProblem(6, 4)
    x = np.array([1.0, -1.0, 0.5, 0.0, 2.0, -0.3])
    stream, calls = training_rng(21), 4000
    g = np.array([prob.sample_objective_grad(x, 4, stream) for _ in range(calls)])
    se = g.std(axis=0, ddof=1) / np.sqrt(calls)
    assert np.all(np.abs(g.mean(axis=0) - x / 6) <= 4 * se)


def test_a_plain_generator_is_read_as_every_record_stream_at_once():
    prob = ExpectationQcqpProblem(3, 2)
    x = np.array([0.5, -0.2, 1.0])
    # one Generator serves both oracles, in call order, exactly j records a call
    ref, rng = np.random.default_rng(4), np.random.default_rng(4)
    h, c = _draw_objective_terms(ref, 6, 2, 3, "fro")
    q, a, b = _draw_constraint_terms(ref, 5, 3, top=_certified_top)
    want = np.einsum("spn,sp->n", h, np.einsum("spn,n->sp", h, x) - c) / 6
    assert np.array_equal(prob.sample_objective_grad(x, 6, rng), want)
    assert prob.constraint_value_estimate(x, 5, rng) == pytest.approx(
        _constraint_values_at(q, a, b, x).mean(), rel=1e-12)
    assert rng.random() == ref.random()


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


def test_snapshot_round_trip_expectation(tmp_path):
    prob = ExpectationQcqpProblem(4, 3, eval_samples=500, h_normalization="spectral")
    path = tmp_path / "e.npz"
    save_instance(prob, path)
    back = load_instance(path)
    assert (back.kind, back.n, back.p) == ("qcqp_expectation", 4, 3)
    assert (back.eval_samples, back.h_normalization) == (500, "spectral")
    # no stored data: the same stream gives the same draws
    x = np.full(4, 0.3)
    g = prob.sample_objective_grad(x, 5, np.random.default_rng(9))
    assert np.array_equal(back.sample_objective_grad(x, 5, np.random.default_rng(9)), g)


def test_snapshot_rejects_unknown_kinds(tmp_path):
    class Unknown:
        kind = "lasso"

    with pytest.raises(ValueError, match="cannot snapshot problem kind 'lasso'"):
        save_instance(Unknown(), tmp_path / "u.npz")
    path = tmp_path / "u.npz"
    np.savez(path, kind="lasso")
    with pytest.raises(ValueError, match="unknown snapshot kind 'lasso'"):
        load_instance(path)


# the archive layout of each kind: key names in order, with their dtypes
SNAPSHOT_LAYOUT = {
    "qcqp_finite_sum": [("kind", "<U15"), ("h", "float64"), ("c", "float64"), ("q", "float64"),
                        ("a", "float64"), ("b", "float64"), ("box_lower", "float64"),
                        ("box_upper", "float64")],
    "npc_finite_sum": [("kind", "<U14"), ("features", "float64"), ("labels", "int64"),
                       ("c_hat", "float64"), ("box_lower", "float64"), ("box_upper", "float64")],
    "bilinear_saddle": [("kind", "<U15"), ("a_mat", "float64"), ("b", "float64"), ("c", "float64"),
                        ("noise_sigma", "float64"), ("box_x_lower", "float64"),
                        ("box_x_upper", "float64"), ("box_z_lower", "float64"),
                        ("box_z_upper", "float64")],
    "qcqp_frozen": [("kind", "<U11"), ("amat", "float64"), ("rvec", "float64"), ("s0", "float64"),
                    ("q", "float64"), ("a", "float64"), ("b", "float64"),
                    ("box_lower", "float64"), ("box_upper", "float64")],
    "qcqp_expectation": [("kind", "<U16"), ("n", "int64"), ("p", "int64"),
                         ("eval_samples", "int64"), ("h_normalization", "<U8")],
}


def _snapshot_problems(qcqp, npc):
    return {
        "qcqp_finite_sum": qcqp,
        "npc_finite_sum": npc,
        "bilinear_saddle": make_bilinear_saddle(3, 2, seed=5, noise_sigma=0.2),
        "qcqp_frozen": ExpectationQcqpProblem(3, 2).freeze(n_samples=200, seed=7),
        "qcqp_expectation": ExpectationQcqpProblem(4, 3, eval_samples=500,
                                                   h_normalization="spectral"),
    }


def _archive(path):
    with np.load(path, allow_pickle=False) as data:
        return {key: data[key] for key in data.files}


@pytest.mark.parametrize("kind", sorted(SNAPSHOT_LAYOUT))
def test_snapshot_layout_and_round_trip_per_kind(tmp_path, qcqp, npc, kind):
    prob = _snapshot_problems(qcqp, npc)[kind]
    save_instance(prob, tmp_path / "first.npz")
    first = _archive(tmp_path / "first.npz")
    assert [(key, str(v.dtype)) for key, v in first.items()] == SNAPSHOT_LAYOUT[kind]
    back = load_instance(tmp_path / "first.npz")
    assert type(back) is type(prob) and back.kind == kind
    save_instance(back, tmp_path / "again.npz")
    again = _archive(tmp_path / "again.npz")
    assert list(again) == list(first)
    for key, value in first.items():
        assert again[key].dtype == value.dtype and np.array_equal(again[key], value), key


def test_snapshot_stores_the_npc_rows_positives_first(tmp_path, npc):
    save_instance(npc, tmp_path / "n.npz")
    data = _archive(tmp_path / "n.npz")
    n_pos = len(npc._pos)
    assert np.array_equal(data["features"][:n_pos], npc._pos)
    assert np.array_equal(data["features"][n_pos:], npc._neg)
    assert np.array_equal(data["labels"], [1] * n_pos + [-1] * len(npc._neg))


def test_snapshot_written_by_hand_in_the_stored_layout_loads(tmp_path):
    rng = np.random.default_rng(3)
    box = dict(box_lower=-np.ones(2), box_upper=2 * np.ones(2))
    h, c, q = rng.standard_normal((4, 3, 2)), rng.standard_normal((4, 3)), np.eye(2)[None]
    features = rng.standard_normal((5, 2))
    labels = np.array([1, 1, -1, -1, -1])
    archives = {
        "finite_sum": dict(kind="qcqp_finite_sum", h=h, c=c, q=q, a=np.ones((1, 2)),
                           b=np.array([0.5]), **box),
        "npc": dict(kind="npc_finite_sum", features=features, labels=labels, c_hat=0.3, **box),
        "bilinear": dict(kind="bilinear_saddle", a_mat=np.eye(2), b=np.ones(2), c=np.ones(2),
                         noise_sigma=0.25, box_x_lower=-np.ones(2), box_x_upper=np.ones(2),
                         box_z_lower=-np.ones(2), box_z_upper=3 * np.ones(2)),
        "frozen": dict(kind="qcqp_frozen", amat=np.eye(2), rvec=np.ones(2), s0=0.75, q=np.eye(2),
                       a=np.zeros(2), b=0.4, **box),
        "expectation": dict(kind="qcqp_expectation", n=4, p=3, eval_samples=700,
                            h_normalization=np.asarray("spectral")),
    }
    for name, fields in archives.items():
        np.savez(tmp_path / f"{name}.npz", **fields)
    fs = load_instance(tmp_path / "finite_sum.npz")
    assert isinstance(fs, FiniteSumQcqpProblem)
    assert np.array_equal(fs.h, h) and np.array_equal(fs.b, [0.5])
    assert np.array_equal(fs.box.upper, [2.0, 2.0])
    npc = load_instance(tmp_path / "npc.npz")
    assert isinstance(npc, NeymanPearsonProblem) and npc.c_hat == 0.3
    assert np.array_equal(npc._pos, features[:2]) and np.array_equal(npc._neg, features[2:])
    bil = load_instance(tmp_path / "bilinear.npz")
    assert isinstance(bil, BilinearSaddleProblem) and bil.noise_sigma == 0.25
    assert np.array_equal(bil.box_z.upper, [3.0, 3.0])
    frozen = load_instance(tmp_path / "frozen.npz")
    assert isinstance(frozen, FrozenQcqpProblem)
    assert (frozen.s0, frozen.b) == (0.75, 0.4) and type(frozen.b) is float
    exp = load_instance(tmp_path / "expectation.npz")
    assert isinstance(exp, ExpectationQcqpProblem)
    assert (exp.n, exp.p, exp.eval_samples, exp.h_normalization) == (4, 3, 700, "spectral")
    assert type(exp.h_normalization) is str and type(exp.n) is int


# -- the expectation problem's chunked draw loop ------------------------------


def _evaluate_full_oracle(self, x, seed=None, top=_certified_top):
    # the sampled evaluation as it was before the shared draw generator, verbatim,
    # with Q scaled by the top eigenvalues from ``top``
    rng = np.random.default_rng(seed)
    x = np.asarray(x, dtype=float)
    f0_sum = 0.0
    f1_sum = 0.0
    done = 0
    while done < self.eval_samples:
        take = min(_EVAL_CHUNK, self.eval_samples - done)
        h, c = _draw_objective_terms(rng, take, self.p, self.n, self.h_normalization)
        f0_sum += _objective_values_at(h, c, x).sum()
        q, a, b = _draw_constraint_terms(rng, take, self.n, top=top)
        f1_sum += _constraint_values_at(q, a, b, x).sum()
        done += take
    return f0_sum / done, np.array([f1_sum / done])


def _freeze_oracle(self, n_samples, seed, top=_certified_top):
    # the freeze as it was before the shared draw generator, verbatim, with Q
    # scaled by the top eigenvalues from ``top``
    rng = np.random.default_rng(seed)
    n = self.n
    amat = np.zeros((n, n))
    rvec = np.zeros(n)
    s0 = 0.0
    qbar = np.zeros((n, n))
    abar = np.zeros(n)
    bbar = 0.0
    done = 0
    while done < n_samples:
        take = min(_EVAL_CHUNK, n_samples - done)
        h, c = _draw_objective_terms(rng, take, self.p, n, self.h_normalization)
        amat += np.einsum("spn,spm->nm", h, h)
        rvec += np.einsum("spn,sp->n", h, c)
        s0 += 0.5 * float(np.sum(c * c))
        q, a, b = _draw_constraint_terms(rng, take, n, top=top)
        qbar += q.sum(axis=0)
        abar += a.sum(axis=0)
        bbar += float(b.sum())
        done += take
    return amat / done, rvec / done, s0 / done, qbar / done, abar / done, bbar / done


@pytest.mark.parametrize("count", [1, _EVAL_CHUNK - 1, _EVAL_CHUNK, _EVAL_CHUNK + 1,
                                   2 * _EVAL_CHUNK + 3])
@pytest.mark.parametrize("h_normalization", ["fro", "spectral"])
def test_evaluation_and_freeze_draw_loops_are_bitwise_unchanged(count, h_normalization,
                                                                monkeypatch):
    prob = ExpectationQcqpProblem(3, 2, eval_samples=count, h_normalization=h_normalization)
    passes = []  # one entry per pass over the draws: True where it forms Q
    draws = ExpectationQcqpProblem._draws
    monkeypatch.setattr(ExpectationQcqpProblem, "_draws", lambda self, rng, total, gram=True:
                        passes.append(gram) or draws(self, rng, total, gram))
    # 0.5 ||x||^2 = 3.3: the full pass only; 7e-4: certified from the Q-free pass; 0.599 at
    # seed count + 18, inside the band: the bound fails there at every count, and one
    # replay with Q follows
    for x, seed, want in ((np.array([0.4, -1.3, 2.2]), count, [True]),
                          (np.array([0.02, -0.03, 0.01]), count, [False]),
                          (np.array([0.0, 0.911, 0.607]), count + 18, [False, True])):
        passes.clear()
        got = prob.evaluate_full(x, seed=seed)
        assert passes == want, x
        f0, f1 = _evaluate_full_oracle(prob, x, seed=seed)
        assert np.float64(got.objective).tobytes() == np.float64(f0).tobytes()
        assert got.violations.tobytes() == np.maximum(f1, 0.0).tobytes()
    frozen = prob.freeze(n_samples=count, seed=5)
    want = _freeze_oracle(prob, count, 5)
    for name, g, w in zip(("amat", "rvec", "s0", "q", "a", "b"),
                          (frozen.amat, frozen.rvec, frozen.s0, frozen.q, frozen.a, frozen.b),
                          want):
        assert np.asarray(g).tobytes() == np.asarray(w).tobytes(), name


def test_evaluation_forms_no_q_where_certified_and_never_certifies_a_non_finite_point(
        monkeypatch):
    prob = ExpectationQcqpProblem(3, 2, eval_samples=2 * _EVAL_CHUNK + 3)
    calls = {"_certified_top": 0, "matmul": 0, "_draws": 0}

    def spy(owner, name):
        real = getattr(owner, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        monkeypatch.setattr(owner, name, counted)

    spy(problems, "_certified_top")
    spy(np, "matmul")  # only the Gram product calls it by name; the rest use @ or einsum
    spy(ExpectationQcqpProblem, "_draws")

    prob.evaluate_full(np.array([0.02, -0.03, 0.01]), seed=1)
    assert calls == {"_certified_top": 0, "matmul": 0, "_draws": 1}
    # 0.5 ||x||^2 >= 0.6 = E[b] (one ulp past it, then beyond), NaN and infinite points: one
    # pass over the draws, with Q, and today's result bit for bit (NaN and inf included)
    edge = np.array([np.nextafter(np.sqrt(1.2), 2.0), 0.0, 0.0])
    assert 0.6 <= 0.5 * (edge @ edge) < 0.6 + 1e-15
    with np.errstate(invalid="ignore", over="ignore"):
        for x in (edge, np.array([1.2, 0.0, 0.0]), np.array([0.1, np.nan, 0.2]),
                  np.array([np.inf, 0.0, 0.1]), np.array([0.0, -np.inf, 0.0])):
            calls.update(dict.fromkeys(calls, 0))
            got = prob.evaluate_full(x, seed=2)
            assert calls["_draws"] == 1 and calls["matmul"] == 3 and calls["_certified_top"] == 3
            f0, f1 = _evaluate_full_oracle(prob, x, seed=2)
            assert np.float64(got.objective).tobytes() == np.float64(f0).tobytes(), x
            assert got.violations.tobytes() == np.maximum(f1, 0.0).tobytes(), x


@pytest.mark.parametrize("kind", ["None", "int", "SeedSequence", "Generator"])
def test_evaluation_replay_keeps_every_seed_kind(kind, monkeypatch):
    # whichever path it takes, an evaluation reads the stream of the generator that
    # default_rng(seed) gives, as the reference loop does from that generator's starting
    # state, and leaves it where the reference loop does: a passed Generator included
    prob = ExpectationQcqpProblem(3, 2, eval_samples=2 * _EVAL_CHUNK + 3)
    real_rng, real_certified = np.random.default_rng, ExpectationQcqpProblem._certified_eval
    made = []

    def default_rng(seed=None):
        rng = real_rng(seed)
        made.append((rng, rng.bit_generator.state))
        return rng
    monkeypatch.setattr(np.random, "default_rng", default_rng)
    small, far = np.array([0.02, -0.03, 0.01]), np.array([0.4, -1.3, 2.2])
    for x, forced_replay in ((small, False), (small, True), (far, False)):
        # a forced replay reads the Q-free pass to its end, then finds no certificate
        monkeypatch.setattr(ExpectationQcqpProblem, "_certified_eval",
                            (lambda self, *a: real_certified(self, *a) and None)
                            if forced_replay else real_certified)
        seed = {"None": None, "int": 11, "SeedSequence": np.random.SeedSequence(11),
                "Generator": real_rng(11)}[kind]
        made.clear()
        got = prob.evaluate_full(x, seed=seed)
        [(used, start)] = made
        assert kind != "Generator" or used is seed
        twin = np.random.Generator(np.random.PCG64())
        twin.bit_generator.state = start
        f0, f1 = _evaluate_full_oracle(prob, x, seed=twin)
        assert np.float64(got.objective).tobytes() == np.float64(f0).tobytes()
        assert got.violations.tobytes() == np.maximum(f1, 0.0).tobytes()
        assert used.bit_generator.state == twin.bit_generator.state


@pytest.mark.parametrize("n", [3, 10])
def test_evaluation_and_freeze_hold_the_eigvalsh_scaling_to_1e13(n):
    # the certified top eigenvalue against eigvalsh's, over the same draws
    count = 2 * _EVAL_CHUNK + 3
    prob = ExpectationQcqpProblem(n, 2, eval_samples=count)
    x = np.full(n, 2.0)
    got = prob.evaluate_full(x, seed=3)
    f0, f1 = _evaluate_full_oracle(prob, x, seed=3, top=_eigvalsh_top)
    assert f1[0] > 0.5 and np.float64(got.objective).tobytes() == np.float64(f0).tobytes()
    assert abs(got.violations[0] - f1[0]) <= 1e-13 * f1[0]
    frozen = prob.freeze(n_samples=count, seed=5)
    want = _freeze_oracle(prob, count, 5, top=_eigvalsh_top)
    for name, g, w in zip(("q", "a", "b"), (frozen.q, frozen.a, frozen.b), want[3:]):
        assert np.max(np.abs(g - w)) <= 1e-13 * np.max(np.abs(w)), name


def test_certified_top_eigenvalue_matches_eigvalsh(monkeypatch):
    rng = np.random.default_rng(0)
    wishart = {}
    for n, count in ((10, 100_000), (1, 2000), (2, 2000), (3, 2000)):
        g = rng.standard_normal((count, n, n))
        wishart[n] = q = np.matmul(g.transpose(0, 2, 1), g)
        want = _eigvalsh_top(q)
        assert np.max(np.abs(_certified_top(q) - want) / want) <= 1e-13, n
    # a stack gives the same bits as its slices, whatever the slab boundaries
    q = wishart[10][:2000]
    sliced = np.concatenate([_certified_top(q[:700]), _certified_top(q[700:])])
    assert _certified_top(q).tobytes() == sliced.tobytes()

    # a repeated top eigenvalue, rank one, and a Wishart draw at scales 1e+-150
    u, g = rng.standard_normal(6), rng.standard_normal((6, 6))
    special = np.stack([np.eye(6), np.outer(u, u), 1e150 * g.T @ g, 1e-150 * g.T @ g])
    want = _eigvalsh_top(special)
    assert np.all(np.abs(_certified_top(special) - want) <= 1e-13 * want)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        zero = np.zeros((2, 4, 4))
        top = _certified_top(zero)
        assert np.array_equal(top, [0.0, 0.0])
        assert np.array_equal(zero / np.maximum(top, 1e-300)[:, None, None], zero)

    # a near-degenerate top pair (1 and 1 - 1e-9) cannot be certified: eigvalsh decides
    basis = np.linalg.qr(rng.standard_normal((6, 6)))[0]
    close = (basis * [1.0, 1.0 - 1e-9, 0.5, 0.3, 0.2, 0.1]) @ basis.T
    separated = (basis * [1.0, 0.2, 0.1, 0.05, 0.02, 0.01]) @ basis.T
    seen = []
    monkeypatch.setattr(problems, "_eigvalsh_top",
                        lambda s: seen.append(s.copy()) or _eigvalsh_top(s))
    top = _certified_top(np.stack([separated, close]))
    assert len(seen) == 1 and seen[0].tobytes() == close[None].tobytes()
    assert top[1] == _eigvalsh_top(close[None])[0]
    assert abs(top[0] - 1.0) <= 1e-14


def test_freeze_rejects_a_sample_count_below_one():
    prob = ExpectationQcqpProblem(3, 2)
    for bad in (0, -4):
        with pytest.raises(ValueError, match=f"n_samples must be positive, got {bad}"):
            prob.freeze(n_samples=bad)
