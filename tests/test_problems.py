import pathlib
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
    make_bilinear_saddle,
    make_npc,
    make_qcqp_finite_sum,
    make_synthetic_dataset,
    preprocess,
    standardize_columns,
    stream_seed,
    training_rng,
)

from aprid import problems
from aprid.problems import (_EVAL_CHUNK, _GRAM_BLOCK, _certified_top, _constraint_values_at,
                            _draw_constraint_terms, _draw_objective_terms, _eigvalsh_top,
                            _triangle, _unit_2norm)
from aprid.rng import CONSTRAINT_TAG, OBJECTIVE_TAG, RECORD_BLOCK, TRAIN_TAG, read_records
from brute import central_difference_gradient, logistic_losses, saddle_gap_grid
from memory import stored_bytes, traced_peak

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


def test_dense_non_finite_feature_names_its_row_and_column(tmp_path):
    f = tmp_path / "d.csv"
    f.write_text("x1,x2,label\n1.0,2.0,1\n3.0,inf,-1\n")
    with pytest.raises(ValueError, match="feature at row 1, column 1 is not finite"):
        load_dataset(f)


def test_sparse_non_finite_feature_names_its_row_and_column(tmp_path):
    f = tmp_path / "s.txt"
    f.write_text("1 1:0.5\n-1 1:0.25 2:nan\n1 3:1.0\n")
    with pytest.raises(ValueError, match="feature at row 1, column 1 is not finite"):
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


def test_expit_is_scipy_expit_bitwise():
    # libm's exp, as scipy's expit calls it: 800k seeded values and the edges, where exp
    # overflows (-t > 709.78...) and the result must be 0.0, subnormals, NaN and the
    # infinities. numpy's own exp misses the last bit on about 2 % of the seeded values.
    # An array where exp overflows takes the element-wise fallback, so each part is also
    # compared without its overflowing values, on the fast path
    from scipy.special import expit
    rng = np.random.default_rng(7)
    edges = np.array([0.0, np.inf, np.nan, 709.78, 709.79, 745.2, 1e308, 5e-324, 1e-310])
    parts = [5.0 * rng.standard_normal(300_000), np.linspace(-800.0, 800.0, 250_001),
             rng.uniform(-750.0, 750.0, 250_000), edges, -edges]
    for t in parts + [t[~(t < -709.0)] for t in parts]:
        assert problems._expit(t).tobytes() == expit(t).tobytes()
    assert problems._expit(-edges)[4:7].tolist() == [0.0, 0.0, 0.0]  # exp overflowed


def test_make_npc_level_arithmetic():
    ds = preprocess(make_synthetic_dataset(6, 25, 20, seed=2, separation=2.0))
    direct = make_npc(ds, c_hat=0.5)
    derived = make_npc(ds, c_target=0.5 + 3.0 / np.sqrt(20), kappa=3.0)
    assert derived.c_hat == pytest.approx(direct.c_hat)
    with pytest.raises(ValueError):
        make_npc(ds)  # neither level given
    with pytest.raises(ValueError):
        make_npc(ds, c_hat=0.5, c_target=0.6)
    for level in (-0.1, 0.0):  # the loss is positive: no x is feasible at such a cap
        with pytest.raises(ValueError, match=f"c_hat={level!r} must be positive"):
            make_npc(ds, c_hat=level)


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
                            "n_pos must be a positive integer, got 0"),
    "synthetic negatives": (lambda: make_synthetic_dataset(3, 5, 0, seed=0),
                            "n_neg must be a positive integer, got 0"),
    "synthetic nan": (lambda: make_synthetic_dataset(float("nan"), 5, 5, seed=0),
                      "dim must be a positive integer, got nan"),
    "synthetic fractional": (lambda: make_synthetic_dataset(3, 2.5, 4, seed=0),
                             "n_pos must be a positive integer, got 2.5"),
    "npc box": (lambda: NeymanPearsonProblem(make_synthetic_dataset(3, 4, 4, seed=0), c_hat=0.5,
                                             box=BoxSet.symmetric(2, 1.0)),
                "box dimension 2 does not match d=3"),
    "expectation n": (lambda: ExpectationQcqpProblem(0, 2), "n must be a positive integer, got 0"),
    "expectation p": (lambda: ExpectationQcqpProblem(3, 0), "p must be a positive integer, got 0"),
    "expectation nan p": (lambda: ExpectationQcqpProblem(3, float("nan")),
                          "p must be a positive integer, got nan"),
    "expectation fractional n": (lambda: ExpectationQcqpProblem(10.7, 5),
                                 r"n must be a positive integer, got 10\.7"),
    "expectation samples": (lambda: ExpectationQcqpProblem(3, 2, eval_samples=0),
                            "eval_samples must be a positive integer, got 0"),
    "expectation inf samples": (lambda: ExpectationQcqpProblem(3, 2, eval_samples=float("inf")),
                                "eval_samples must be a positive integer, got inf"),
    "expectation fractional samples": (
        lambda: ExpectationQcqpProblem(10, 5, eval_samples=2.5),
        r"eval_samples must be a positive integer, got 2\.5"),
    "finite-sum sizes": (lambda: make_qcqp_finite_sum(3, 2, 0, 4, seed=0),
                         "N must be a positive integer, got 0"),
    "finite-sum inf M": (lambda: make_qcqp_finite_sum(3, 2, 4, float("inf"), seed=0),
                         "M must be a positive integer, got inf"),
    "finite-sum fractional n": (lambda: make_qcqp_finite_sum(3.9, 2, 5.5, 5, seed=0),
                                r"n must be a positive integer, got 3\.9"),
    "finite-sum fractional N": (lambda: make_qcqp_finite_sum(3, 2, 5.5, 5, seed=0),
                                r"N must be a positive integer, got 5\.5"),
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
                     "m must be a positive integer, got 0"),
    "saddle -inf n": (lambda: make_bilinear_saddle(-float("inf"), 3, seed=0),
                      "n must be a positive integer, got -inf"),
    "saddle non-number": (lambda: make_bilinear_saddle(3, None, seed=0),
                          "m must be a positive integer, got None"),
    "saddle fractional": (lambda: make_bilinear_saddle(2.5, 3, seed=0),
                          r"n must be a positive integer, got 2\.5"),
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


def test_qcqp_determinism_and_memory_guard():
    a = make_qcqp_finite_sum(5, 3, 30, 20, seed=6)
    b = make_qcqp_finite_sum(5, 3, 30, 20, seed=6)
    assert np.array_equal(a.h, b.h) and np.array_equal(a.q, b.q)
    # N p n + N p + M n(n+1)/2 + M n + M: Q counts its stored triangle, not n^2
    with pytest.raises(ValueError, match="102010000 floats, over the 10000 budget"):
        make_qcqp_finite_sum(100, 50, 10_000, 10_000, seed=0, max_elements=10_000)


def _one_shot_constraint_terms(rng, count, n):
    # the draw as it was before the block-wise build, kept verbatim as the oracle, with Q
    # scaled by the one normaliser every family uses
    g = rng.standard_normal((count, n, n))
    q = np.matmul(g.transpose(0, 2, 1), g)
    del g  # at most two count x n x n arrays live at once
    q /= np.maximum(_certified_top(q), 1e-300)[:, None, None]
    a = _unit_2norm(rng.standard_normal((count, n)))
    b = rng.uniform(0.1, 1.1, size=count)
    return q, a, b


@pytest.mark.parametrize("count", [1, 10, _EVAL_CHUNK - 1, _EVAL_CHUNK, _EVAL_CHUNK + 1,
                                   2 * _EVAL_CHUNK + 3])
def test_block_wise_constraint_draw_is_the_one_shot_draw_bitwise(count):
    for seed in (0, 1, 2):
        rng_blocks, rng_once = np.random.default_rng(seed), np.random.default_rng(seed)
        got = _draw_constraint_terms(rng_blocks, count, 4)
        q, a, b = _one_shot_constraint_terms(rng_once, count, 4)
        want = q.reshape(count, 16)[:, _triangle(4).upper], a, b  # Q packed
        for name, g, w in zip("qab", got, want):
            assert g.shape == w.shape and g.tobytes() == w.tobytes(), (name, seed)
        # the generator stands at the same place in its stream
        assert rng_blocks.standard_normal(5).tobytes() == rng_once.standard_normal(5).tobytes()


def test_every_q_has_unit_top_eigenvalue_by_eigvalsh_wherever_it_is_drawn(monkeypatch):
    # the unit-norm contract, checked by eigvalsh whichever normaliser scaled Q: a
    # finite-sum build over more than one block, a training record block and freeze chunks
    def assert_unit(q):
        assert np.max(np.abs(np.linalg.eigvalsh(q)[:, -1] - 1.0)) <= 1e-13

    assert_unit(make_qcqp_finite_sum(10, 2, 3, _EVAL_CHUNK + 5, seed=3).q)
    prob = ExpectationQcqpProblem(10, 2)
    q, _, _ = read_records(training_rng(4), CONSTRAINT_TAG, prob._constraint_records,
                           RECORD_BLOCK)
    assert len(q) == RECORD_BLOCK
    assert_unit(_full(q, 10))
    chunks, real = [], problems._gram_blocks
    # a copy of each block: the next one overwrites its buffer
    monkeypatch.setattr(problems, "_gram_blocks", lambda rng, count, n: (
        chunks.append(chunk.copy()) or (lo, chunk) for lo, chunk in real(rng, count, n)))
    prob.freeze(n_samples=_EVAL_CHUNK + 3, seed=5)
    assert [len(chunk) for chunk in chunks] == [_GRAM_BLOCK] * (_EVAL_CHUNK // _GRAM_BLOCK) + [3]
    for chunk in chunks:
        assert_unit(chunk)


def _full(packed, n):
    """Packed records as their (k, n, n) matrices."""
    return packed[:, _triangle(n).unpack].reshape(-1, n, n)


# (n, M, bytes of the array the build must not hold whole): at n = 10, the Gaussian
# tensor G; at n = 4, the squares of every a, which a norm over all M rows would form
@pytest.mark.parametrize("n, m, whole", [(10, 20_000, 20_000 * 10 * 10 * 8),
                                         (4, 50_000, 50_000 * 4 * 8)],
                         ids=["G", "a squared"])
def test_finite_sum_build_never_holds_the_whole_gaussian_tensor(n, m, whole):
    block_bytes = _EVAL_CHUNK * n * n * 8
    prob, peak = traced_peak(lambda: make_qcqp_finite_sum(n, 5, 100, m, seed=0))
    stored = stored_bytes(prob)
    assert whole > 2 * block_bytes
    assert peak < stored + 2 * block_bytes, (peak, stored)


def test_freeze_holds_one_chunk_of_g_and_one_of_q():
    prob = ExpectationQcqpProblem(10, 5)
    block_bytes = _EVAL_CHUNK * 10 * 10 * 8
    _, peak = traced_peak(lambda: prob.freeze(n_samples=2 * _EVAL_CHUNK + 3, seed=1))
    # a third block would be the previous chunk's Q, held while the next G and Q are drawn
    assert peak < 2.5 * block_bytes, peak / block_bytes


def test_gram_draws_hold_one_block_of_g_not_one_chunk():
    # at n = 10 a chunk of G is 3.3 MB and a _GRAM_BLOCK of it 0.4 MB; holding a chunk
    # read 7.9 MB (freeze), 7.6 MB (evaluation) and 3.4 MB above the build's stored arrays.
    # The packed build holds one block of G, which _certified_top squares in, and one of Q
    prob = ExpectationQcqpProblem(10, 5, eval_samples=20_000)
    _, peak = traced_peak(lambda: prob.freeze(n_samples=20_000, seed=1))
    assert peak <= 5.5e6, peak
    full, peak = traced_peak(lambda: prob.evaluate_full(np.full(10, 2.0), seed=1))
    assert full.viol_max > 0.0  # not certified from phase 1: every G was drawn
    assert peak <= 5.5e6, peak
    built, peak = traced_peak(lambda: make_qcqp_finite_sum(10, 5, 10_000, 10_000, 0))
    stored = stored_bytes(built)  # Q as its packed triangles: 4.4 MB, not 8 MB
    assert built.q_upper.nbytes == 10_000 * 55 * 8
    assert peak - stored <= 1e6, (peak, stored)


@pytest.mark.parametrize("count", [1, _GRAM_BLOCK, _GRAM_BLOCK + 1, _EVAL_CHUNK + 3])
def test_h_norm_by_blocks_is_the_one_shot_norm_bitwise(count):
    h, _ = _draw_objective_terms(np.random.default_rng(count), count, 5, 10)
    want = np.random.default_rng(count).standard_normal((count, 5, 10))
    want /= np.maximum(np.sqrt(np.sum(want * want, axis=(1, 2), keepdims=True)), 1e-300)
    assert h.tobytes() == want.tobytes()


@pytest.mark.parametrize("count", [1, _EVAL_CHUNK, _EVAL_CHUNK + 1, 2 * _EVAL_CHUNK + 3])
def test_unit_2norm_by_chunks_is_the_one_shot_norm_bitwise(count):
    v = np.random.default_rng(count).standard_normal((count, 7))
    v[count // 2] = 0.0  # a zero row stays zero
    norms = np.linalg.norm(v, axis=-1, keepdims=True)
    norms[norms == 0] = 1.0
    want = v / norms
    assert _unit_2norm(v) is v and v.tobytes() == want.tobytes()


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
    q = _full(q, 4)
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
    h, c = _draw_objective_terms(ref, 6, 2, 3)
    q, a, b = _draw_constraint_terms(ref, 5, 3)
    q = _full(q, 3)
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


# -- constructor shape checks ------------------------------------------------


def test_a_finite_sum_instance_with_mismatched_arrays_is_refused():
    prob = make_qcqp_finite_sum(3, 2, 4, 5, seed=1)
    with pytest.raises(ValueError, match=r"a has shape \(7, 3\), expected \(5, 3\)"):
        FiniteSumQcqpProblem(prob.h, prob.c, prob.q, np.ones((7, 3)), np.ones(9))
    with pytest.raises(ValueError, match=r"c has shape \(4, 3\), expected \(4, 2\)"):
        FiniteSumQcqpProblem(prob.h, np.ones((4, 3)), prob.q, prob.a, prob.b)


def test_a_frozen_instance_with_mismatched_arrays_is_refused():
    prob = ExpectationQcqpProblem(3, 2).freeze(n_samples=200, seed=7)
    with pytest.raises(ValueError, match=r"amat has shape \(3, 3\), expected \(4, 4\)"):
        FrozenQcqpProblem(prob.amat, np.ones(4), prob.s0, prob.q, prob.a, prob.b,
                          box=BoxSet.symmetric(4, 1.0))


# (build, the constructor's array arguments, each an attribute of the problem, box dim)
@pytest.mark.parametrize("build,arrays,box_dim", [
    (lambda: make_qcqp_finite_sum(3, 2, 4, 5, seed=1), ("h", "c", "q", "a", "b"), 4),
    (lambda: ExpectationQcqpProblem(3, 2).freeze(n_samples=200, seed=7),
     ("amat", "rvec", "s0", "q", "a", "b"), 5),
], ids=["finite_sum", "frozen"])
def test_a_box_of_another_dimension_than_n_is_refused(build, arrays, box_dim):
    prob = build()
    with pytest.raises(ValueError, match=f"box dimension {box_dim} does not match n=3"):
        type(prob)(*(getattr(prob, name) for name in arrays), box=BoxSet.symmetric(box_dim, 1.0))


def _bits(value):
    """Every float of an oracle's answer as bytes, tuples and named tuples field by field."""
    if isinstance(value, tuple):
        return [_bits(v) for v in value]
    return np.asarray(value).tobytes()


def _rebuilt(prob):
    """``prob`` built again by its constructor from its own fields alone."""
    if prob.kind == "qcqp_finite_sum":
        return FiniteSumQcqpProblem(prob.h, prob.c, prob.q, prob.a, prob.b, box=prob.box)
    if prob.kind == "qcqp_frozen":
        return FrozenQcqpProblem(prob.amat, prob.rvec, prob.s0, prob.q, prob.a, prob.b,
                                 box=prob.box)
    if prob.kind == "npc_finite_sum":
        labels = [1] * len(prob._pos) + [-1] * len(prob._neg)
        return NeymanPearsonProblem(Dataset(np.vstack([prob._pos, prob._neg]), np.array(labels)),
                                    prob.c_hat, box=prob.box)
    if prob.kind == "bilinear_saddle":
        return BilinearSaddleProblem(prob.a_mat, prob.b, prob.c, prob.noise_sigma,
                                     box_x=prob.box_x, box_z=prob.box_z)
    return ExpectationQcqpProblem(prob.n, prob.p, eval_samples=prob.eval_samples)


@pytest.mark.parametrize("kind", ["qcqp_finite_sum", "qcqp_frozen", "npc_finite_sum",
                                  "bilinear_saddle", "qcqp_expectation"])
def test_an_instance_rebuilt_from_its_own_fields_answers_every_oracle_alike(qcqp, npc, kind):
    # an instance holds no state beyond the fields its constructor takes: the same fields
    # give the same exact values and, from the same stream, the same sampled draws
    prob = {
        "qcqp_finite_sum": qcqp,
        "qcqp_frozen": ExpectationQcqpProblem(3, 2).freeze(n_samples=200, seed=7),
        "npc_finite_sum": npc,
        "bilinear_saddle": make_bilinear_saddle(3, 2, seed=5, noise_sigma=0.2),
        "qcqp_expectation": ExpectationQcqpProblem(4, 3, eval_samples=500),
    }[kind]
    back = _rebuilt(prob)
    assert type(back) is type(prob) and back.kind == kind
    x = np.linspace(-0.4, 0.7, prob.n)

    def rng():
        return np.random.default_rng(9)

    if kind == "bilinear_saddle":
        z = np.linspace(0.3, -0.2, prob.m)
        oracles = [lambda q: q.gap(x, z), lambda q: q.lagrangian(x, z),
                   lambda q: q.sample_grads(x, z, rng())]
    else:
        oracles = [lambda q: q.evaluate_full(x, seed=rng())]
        if kind != "qcqp_expectation":
            oracles += [lambda q: q.full_objective(x), lambda q: q.full_objective_grad(x),
                        lambda q: q.full_constraint_grads(x)]
        if kind != "qcqp_frozen":
            oracles += [lambda q: q.sample_objective_grad(x, 4, rng()),
                        lambda q: q.sample_constraint_block(x, 3, rng()),
                        lambda q: q.constraint_value_estimate(x, 5, rng())]
        if kind == "qcqp_expectation":
            oracles.append(lambda q: _bits(tuple(
                getattr(q.freeze(n_samples=300, seed=4), name)
                for name in ("amat", "rvec", "s0", "q", "a", "b"))))
    for oracle in oracles:
        assert _bits(oracle(back)) == _bits(oracle(prob))


# -- the expectation problem's chunked draw loop ------------------------------


def _chunk_sizes(total):
    return [min(_EVAL_CHUNK, total - lo) for lo in range(0, total, _EVAL_CHUNK)]


def _grams_oracle(rng, take, n, top):
    g = rng.standard_normal((take, n, n))
    q = np.matmul(g.transpose(0, 2, 1), g)
    return q / np.maximum(top(q), 1e-300)[:, None, None]


def _chi2(rng, df, take):
    return rng.chisquare(df, take) if df else 0.0  # chi^2_0 is 0, with no draw


def _evaluate_full_oracle(self, x, seed=None, top=_certified_top):
    # the sampled evaluation's documented two-phase draw order, written out as plain loops
    # that always read both phases: per chunk, ||Hx||^2, c.Hx, a.x and b, then every chunk's G, with Q scaled by the top eigenvalues from ``top``.
    # Returns (f0, [f1], the generator's state after phase 1)
    rng = np.random.default_rng(seed)
    x = np.asarray(x, dtype=float)
    n, p, total, xx = self.n, self.p, self.eval_samples, x @ x
    f0_sum = lin_sum = quad_sum = 0.0
    for take in _chunk_sizes(total):
        s = rng.chisquare(p, take)
        hx2 = xx * (s / (s + _chi2(rng, p * (n - 1), take)))
        u = rng.standard_normal(take)
        chx = np.sqrt(hx2) * (u / np.sqrt(u * u + _chi2(rng, p - 1, take)))
        f0_sum += (0.5 * (hx2 + 1.0) - chx).sum()
        v = rng.standard_normal(take)
        ax = np.sqrt(xx) * (v / np.sqrt(v * v + _chi2(rng, n - 1, take)))
        lin_sum += (ax - rng.uniform(0.1, 1.1, size=take)).sum()
    phase_1_end = rng.bit_generator.state
    for take in _chunk_sizes(total):
        quad_sum += np.einsum("sij,i,j->s", _grams_oracle(rng, take, n, top), x, x).sum()
    return f0_sum / total, np.array([(0.5 * quad_sum + lin_sum) / total]), phase_1_end


def _freeze_oracle(self, n_samples, seed, top=_certified_top):
    # the freeze's documented two-phase draw order, written out as plain loops, with Q
    # scaled by the top eigenvalues from ``top``
    rng = np.random.default_rng(seed)
    n = self.n
    amat = np.zeros((n, n))
    rvec = np.zeros(n)
    s0 = 0.0
    qbar = np.zeros((n, n))
    abar = np.zeros(n)
    bbar = 0.0
    for take in _chunk_sizes(n_samples):
        h, c = _draw_objective_terms(rng, take, self.p, n)
        amat += np.einsum("spn,spm->nm", h, h)
        rvec += np.einsum("spn,sp->n", h, c)
        s0 += 0.5 * float(np.sum(c * c))
        abar += _unit_2norm(rng.standard_normal((take, n))).sum(axis=0)
        bbar += float(rng.uniform(0.1, 1.1, size=take).sum())
    for take in _chunk_sizes(n_samples):
        qbar += _grams_oracle(rng, take, n, top).sum(axis=0)
    return (amat / n_samples, rvec / n_samples, s0 / n_samples, qbar / n_samples,
            abar / n_samples, bbar / n_samples)


@pytest.mark.parametrize("count", [1, _EVAL_CHUNK - 1, _EVAL_CHUNK, _EVAL_CHUNK + 1,
                                   2 * _EVAL_CHUNK + 3, 2 * _EVAL_CHUNK + _GRAM_BLOCK + 3])
def test_evaluation_and_freeze_draw_loops_are_bitwise_unchanged(count, monkeypatch):
    prob = ExpectationQcqpProblem(3, 2, eval_samples=count)
    phases = []  # the draw phases each evaluation or freeze reads, in order
    for owner, name in ((ExpectationQcqpProblem, "_eval_terms"),
                        (ExpectationQcqpProblem, "_draws"), (problems, "_gram_blocks")):
        real = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *args, real=real, name=name:
                            phases.append(name) or real(*args))
    # 0.5 ||x||^2 = 3.3: both phases; 7e-4: certified from phase 1; 0.607 at seed
    # count + 24, inside the band: the bound fails there at every count, and phase 2
    # follows phase 1
    both, certified = ["_eval_terms", "_gram_blocks"], ["_eval_terms"]
    for x, seed, want in ((np.array([0.4, -1.3, 2.2]), count, both),
                          (np.array([0.02, -0.03, 0.01]), count, certified),
                          (np.array([0.0, 0.911, 0.62]), count + 24, both)):
        phases.clear()
        rng = np.random.default_rng(seed)
        got = prob.evaluate_full(x, seed=rng)
        assert phases == want, x
        f0, f1, phase_1_end = _evaluate_full_oracle(prob, x, seed=seed)
        assert np.float64(got.objective).tobytes() == np.float64(f0).tobytes()
        assert got.violations.tobytes() == np.maximum(f1, 0.0).tobytes()
        if want == certified:  # a certified evaluation draws no G
            assert rng.bit_generator.state == phase_1_end
    phases.clear()
    frozen = prob.freeze(n_samples=count, seed=5)
    assert phases == ["_draws", "_gram_blocks"]  # the freeze keeps the matrix layout
    want = _freeze_oracle(prob, count, 5)
    for name, g, w in zip(("amat", "rvec", "s0", "q", "a", "b"),
                          (frozen.amat, frozen.rvec, frozen.s0, frozen.q, frozen.a, frozen.b),
                          want):
        assert np.asarray(g).tobytes() == np.asarray(w).tobytes(), name


def test_evaluation_forms_no_q_where_certified_and_never_certifies_a_non_finite_point(
        monkeypatch):
    prob = ExpectationQcqpProblem(3, 2, eval_samples=2 * _EVAL_CHUNK + 3)
    calls = {"_certified_top": 0, "matmul": 0, "_eval_terms": 0, "_gram_blocks": 0}

    def spy(owner, name):
        real = getattr(owner, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        monkeypatch.setattr(owner, name, counted)

    spy(problems, "_certified_top")
    # only the Gram product of each _GRAM_BLOCK of G and _certified_top's 8 squarings per
    # slab, half a block, call it by name; the rest use @ or einsum
    spy(np, "matmul")
    spy(ExpectationQcqpProblem, "_eval_terms")
    spy(problems, "_gram_blocks")

    total = prob.eval_samples
    blocks = [min(_GRAM_BLOCK, total - lo) for lo in range(0, total, _GRAM_BLOCK)]
    slabs = sum(-(-size // (_GRAM_BLOCK // 2)) for size in blocks)
    certified = {"_certified_top": 0, "matmul": 0, "_eval_terms": 1, "_gram_blocks": 0}
    with_q = {"_certified_top": len(blocks), "matmul": len(blocks) + 8 * slabs,
              "_eval_terms": 1, "_gram_blocks": 1}
    prob.evaluate_full(np.array([0.02, -0.03, 0.01]), seed=1)
    assert calls == certified
    # 0.5 ||x||^2 one ulp past E[b] = 0.6 needs no gate of its own: phase 1's bound
    # certifies it at seed 2. Beyond it, and at NaN and infinite points: phase 1, then
    # phase 2 with Q, and the oracle's result bit for bit (NaN and inf included)
    edge = np.array([np.nextafter(np.sqrt(1.2), 2.0), 0.0, 0.0])
    assert 0.6 <= 0.5 * (edge @ edge) < 0.6 + 1e-15
    with np.errstate(invalid="ignore", over="ignore"):
        for x, want in ((edge, certified), (np.array([1.2, 0.0, 0.0]), with_q),
                        (np.array([0.1, np.nan, 0.2]), with_q),
                        (np.array([np.inf, 0.0, 0.1]), with_q),
                        (np.array([0.0, -np.inf, 0.0]), with_q)):
            calls.update(dict.fromkeys(calls, 0))
            got = prob.evaluate_full(x, seed=2)
            assert calls == want, x
            f0, f1, _ = _evaluate_full_oracle(prob, x, seed=2)
            assert np.float64(got.objective).tobytes() == np.float64(f0).tobytes(), x
            assert got.violations.tobytes() == np.maximum(f1, 0.0).tobytes(), x


@pytest.mark.parametrize("kind", ["None", "int", "SeedSequence", "Generator"])
def test_evaluation_replay_keeps_every_seed_kind(kind, monkeypatch):
    # whichever path it takes, an evaluation reads the stream of the generator that
    # default_rng(seed) gives, as the reference loop does from that generator's starting
    # state, and leaves it where the reference loop's phase 1 ends (certified) or where its
    # phase 2 ends (not certified): a passed Generator included
    prob = ExpectationQcqpProblem(3, 2, eval_samples=2 * _EVAL_CHUNK + 3)
    real_rng, real_certifies = np.random.default_rng, ExpectationQcqpProblem._certifies_zero
    made, verdicts, objectives = [], [], []

    def default_rng(seed=None):
        rng = real_rng(seed)
        made.append((rng, rng.bit_generator.state))
        return rng
    monkeypatch.setattr(np.random, "default_rng", default_rng)
    small, far = np.array([0.02, -0.03, 0.01]), np.array([0.4, -1.3, 2.2])
    for x, forced_failure, certified in ((small, False, True), (small, True, False),
                                         (far, False, False)):
        # a forced failure reads phase 1 to its end and finds the bound certifies it,
        # then reports no certificate: phase 2 follows from where phase 1 stopped
        monkeypatch.setattr(ExpectationQcqpProblem, "_certifies_zero",
                            lambda self, *a, forced=forced_failure: verdicts.append(
                                real_certifies(self, *a)) or (verdicts[-1] and not forced))
        seed = {"None": None, "int": 11, "SeedSequence": np.random.SeedSequence(11),
                "Generator": real_rng(11)}[kind]
        made.clear()
        verdicts.clear()
        got = prob.evaluate_full(x, seed=seed)
        [(used, start)] = made
        assert kind != "Generator" or used is seed
        assert verdicts == [x is small]
        twin = np.random.Generator(np.random.PCG64())
        twin.bit_generator.state = start
        f0, f1, phase_1_end = _evaluate_full_oracle(prob, x, seed=twin)
        assert np.float64(got.objective).tobytes() == np.float64(f0).tobytes()
        assert got.violations.tobytes() == np.maximum(f1, 0.0).tobytes()
        assert used.bit_generator.state == (phase_1_end if certified
                                            else twin.bit_generator.state)
        objectives.append(np.float64(got.objective).tobytes())
    if kind != "None":  # a forced failure gives the certified evaluation's objective bits
        assert objectives[0] == objectives[1]


@pytest.mark.parametrize("n", [3, 10])
def test_evaluation_and_freeze_hold_the_eigvalsh_scaling_to_1e13(n):
    # the certified top eigenvalue against eigvalsh's, over the same draws
    count = 2 * _EVAL_CHUNK + 3
    prob = ExpectationQcqpProblem(n, 2, eval_samples=count)
    x = np.full(n, 2.0)
    got = prob.evaluate_full(x, seed=3)
    f0, f1, _ = _evaluate_full_oracle(prob, x, seed=3, top=_eigvalsh_top)
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


def _certified_top_loop(q):
    # _certified_top as first written: a fresh array for every product
    top = np.empty(len(q))
    n = q.shape[-1]
    for lo in range(0, len(q), 512):
        s = q[lo:lo + 512]
        with np.errstate(divide="ignore", invalid="ignore"):
            p = s / np.einsum("sii->si", s).max(axis=1)[:, None, None]
            for i in range(8):
                p = p @ p
                if i == 3:
                    p /= np.einsum("sii->si", p).max(axis=1)[:, None, None]
            d = np.einsum("sii->si", p)
            v = p[np.arange(len(p)), d.argmax(axis=1)][:, :, None]
            vt = v.transpose(0, 2, 1)
            vv = (vt @ v)[:, 0, 0]
            mu = (vt @ s @ v)[:, 0, 0] / vv
            nu = (vt @ p @ v)[:, 0, 0] / (vv * d.sum(axis=1))
            r = 1.0 - nu
            certified = (r < 1.0 / n) & (r * r <= 1e-14 * nu * (1.0 / n - r))
        mu[~certified] = _eigvalsh_top(s[~certified])
        top[lo:lo + len(s)] = mu
    return top


@pytest.mark.parametrize("n", [1, 6, 10])
def test_certified_top_squares_in_place_with_the_bytes_of_the_plain_loop(n):
    # three slabs, the last one partial, with a zero matrix and a repeated top eigenvalue
    rng = np.random.default_rng(n)
    g = rng.standard_normal((1100, n, n))
    q = np.matmul(g.transpose(0, 2, 1), g)
    q[3] = 0.0
    if n > 1:
        basis = np.linalg.qr(rng.standard_normal((n, n)))[0]
        q[600] = (basis * np.minimum(np.linspace(2.0, 0.1, n), 1.5)) @ basis.T
        assert np.sum(np.isclose(np.linalg.eigvalsh(q[600]), 1.5)) >= 2
    assert _certified_top(q).tobytes() == _certified_top_loop(q).tobytes()


def _matrix_draw_terms(prob, x, count, rng):
    # the estimator's per-sample terms from whole H, c and a, as the freeze draws them
    f0, lin = [], []
    for take in _chunk_sizes(count):
        h, c = _draw_objective_terms(rng, take, prob.p, prob.n)
        r = h @ x - c
        f0.append(0.5 * np.sum(r * r, axis=1))
        a = _unit_2norm(rng.standard_normal((take, prob.n)))
        lin.append(a @ x - rng.uniform(0.1, 1.1, size=take))
    return np.concatenate(f0), np.concatenate(lin)


def _mean_and_se(terms):
    return terms.mean(), terms.std(ddof=1) / np.sqrt(terms.size)


@pytest.mark.parametrize("n,p", [(10, 5), (1, 4), (6, 1), (1, 1)])
@pytest.mark.parametrize("half_sq_norm", [0.0, 0.8, 3.0])
def test_evaluation_draws_the_laws_of_the_matrix_draw_estimator(n, p, half_sq_norm,
                                                                monkeypatch):
    # x = 0; 0.5 ||x||^2 = 0.8, past E[b] = 0.6, where the certificate's bound fails (the
    # band where E f1 < 0 still, at n = 6 and 10); 3.0, outside the ball E f1 <= 0 at every
    # n. Each phase-1 mean lies within 4 combined standard errors of the closed form (f0,
    # E[a.x - b] = -0.6), and each mean and mean square within 4 of the same
    # estimator's from whole matrices; 1e-12 allows for ||c||^2 = 1 to rounding
    count = 20_000
    direction = np.random.default_rng(n + 10 * p).standard_normal(n)
    x = np.sqrt(2 * half_sq_norm) * direction / np.linalg.norm(direction)
    prob = ExpectationQcqpProblem(n, p, eval_samples=count)
    real, seen = ExpectationQcqpProblem._eval_terms, []

    def recording(self, *args):
        for terms in real(self, *args):
            seen.append(terms)
            yield terms
    monkeypatch.setattr(ExpectationQcqpProblem, "_eval_terms", recording)
    got = prob.evaluate_full(x, seed=7)
    f0 = np.concatenate([t[0] for t in seen])
    lin = np.concatenate([t[1] - t[2] for t in seen])
    assert got.objective == sum(t[0].sum() for t in seen) / count and f0.size == count
    want_f0, want_lin = _matrix_draw_terms(prob, x, count, np.random.default_rng(8))
    references = [(lin, -0.6, 0.0), (f0, 0.5 * (x @ x / n + 1.0), 0.0)]
    for terms, want in ((f0, want_f0), (lin, want_lin)):
        references += [(terms, *_mean_and_se(want)), (terms ** 2, *_mean_and_se(want ** 2))]
    for terms, want, want_se in references:
        mean, se = _mean_and_se(terms)
        assert abs(mean - want) <= 4 * np.hypot(se, want_se) + 1e-12, (mean, want)


def test_freeze_rejects_a_sample_count_below_one():
    prob = ExpectationQcqpProblem(3, 2)
    for bad in (0, -4, float("nan")):
        with pytest.raises(ValueError, match=f"n_samples must be a positive integer, got {bad}"):
            prob.freeze(n_samples=bad)
    with pytest.raises(ValueError, match=r"n_samples must be a positive integer, got 2\.5"):
        prob.freeze(n_samples=2.5)
