import numpy as np
import pytest

from aprid import (
    BatchSizes,
    constraint_step_direction,
    estimate_constraint_value,
    make_npc,
    make_qcqp_finite_sum,
    make_synthetic_dataset,
    preprocess,
    sample_lagrangian_subgradient,
    sample_minimax_subgradient,
    make_bilinear_saddle,
    stream_seed,
    training_rng,
)

from brute import lagrangian_full_batch


@pytest.fixture(scope="module")
def qcqp():
    return make_qcqp_finite_sum(5, 3, 40, 30, seed=2)


@pytest.fixture(scope="module")
def npc():
    ds = preprocess(make_synthetic_dataset(8, 60, 50, seed=5, separation=2.0))
    return make_npc(ds, c_hat=0.5)


def test_batch_sizes_validation():
    b = BatchSizes()
    assert (b.j0, b.j1, b.jg) == (10, 10, 100)
    with pytest.raises(ValueError):
        BatchSizes(j0=0)
    with pytest.raises(ValueError):
        BatchSizes(j1=-1)
    with pytest.raises(ValueError):
        BatchSizes(jg=2.5)
    # NaN, the infinities and non-numbers raise the same ValueError, naming the size
    for bad in (float("nan"), float("inf"), -float("inf"), None, "10"):
        with pytest.raises(ValueError, match=f"batch size j0 must be a positive integer, "
                                             f"got {bad!r}"):
            BatchSizes(j0=bad)


def test_full_batch_reproduces_exact_lagrangian_gradient(qcqp):
    # batches that cover every term remove all randomness
    x = np.full(5, 0.3)
    z = np.linspace(0, 1, 30)
    batches = BatchSizes(j0=40, j1=30, jg=30)
    sample = sample_lagrangian_subgradient(qcqp, x, z, batches, training_rng(0))
    exact_u, exact_w = lagrangian_full_batch(qcqp, x, z)
    assert np.allclose(sample.u, exact_u, rtol=1e-10)
    assert np.allclose(sample.w, exact_w[sample.w_support], rtol=1e-10)
    assert np.array_equal(np.sort(sample.w_support), np.arange(30))  # every constraint visited


def test_subgradient_unbiased_qcqp(qcqp):
    rng = training_rng(42)
    x = np.full(5, -0.4)
    z = np.linspace(0.2, 0.8, 30)
    batches = BatchSizes(j0=4, j1=3, jg=5)
    reps = 4000
    us = np.empty((reps, 5))
    ws = np.zeros((reps, 30))
    for r in range(reps):
        s = sample_lagrangian_subgradient(qcqp, x, z, batches, rng)
        us[r] = s.u
        ws[r, s.w_support] = s.w
    exact_u, exact_w = lagrangian_full_batch(qcqp, x, z)
    for mean, sd, exact in (
        (us.mean(0), us.std(0, ddof=1), exact_u),
        (ws.mean(0), ws.std(0, ddof=1), exact_w),
    ):
        se = sd / np.sqrt(reps)
        assert np.all(np.abs(mean - exact) <= 5 * se + 1e-12)


def test_subgradient_unbiased_npc(npc):
    rng = training_rng(43)
    x = np.linspace(-0.5, 0.5, 8)  # asymmetric point so per-row losses differ
    z = np.array([0.7])
    batches = BatchSizes(j0=6, j1=6, jg=10)
    reps = 4000
    us = np.empty((reps, 8))
    ws = np.empty(reps)
    for r in range(reps):
        s = sample_lagrangian_subgradient(npc, x, z, batches, rng)
        us[r] = s.u
        ws[r] = s.w[0]
    exact_u, exact_w = lagrangian_full_batch(npc, x, z)
    se_u = us.std(0, ddof=1) / np.sqrt(reps)
    assert np.all(np.abs(us.mean(0) - exact_u) <= 5 * se_u + 1e-12)
    se_w = ws.std(ddof=1) / np.sqrt(reps)
    assert abs(ws.mean() - exact_w[0]) <= 5 * se_w + 1e-12


def test_sampled_constraint_support_scaling(qcqp):
    # w holds one value per sampled constraint, scaled by M/|S| so that,
    # scattered onto its support, its mean is the full constraint vector
    x = np.full(5, 0.2)
    s = sample_lagrangian_subgradient(qcqp, x, np.zeros(30), BatchSizes(4, 3, 5), training_rng(9))
    assert s.w.shape == (3,)
    assert len(np.unique(s.w_support)) == 3
    exact_vals = qcqp.full_constraint_values(x)
    assert np.allclose(s.w, (30 / 3) * exact_vals[s.w_support])


def test_estimate_constraint_value_exact_at_full_batch(qcqp):
    x = np.full(5, 0.6)
    got = estimate_constraint_value(qcqp, x, 30, training_rng(1))
    want = float(np.sum(np.maximum(qcqp.full_constraint_values(x), 0.0)))
    assert got == pytest.approx(want, rel=1e-12)
    with pytest.raises(ValueError, match="jg must be a positive integer, got 0"):
        estimate_constraint_value(qcqp, x, 0, training_rng(1))


def test_estimate_constraint_value_unbiased(qcqp):
    rng = training_rng(44)
    x = np.full(5, 0.6)
    want = float(np.sum(np.maximum(qcqp.full_constraint_values(x), 0.0)))
    reps = 4000
    vals = np.array([estimate_constraint_value(qcqp, x, 6, rng) for _ in range(reps)])
    se = vals.std(ddof=1) / np.sqrt(reps)
    assert abs(vals.mean() - want) <= 5 * se


def test_constraint_step_direction_multi(qcqp):
    # at full batch the direction is the indicator-weighted subgradient of
    # sum_j [f_j]_+
    x = np.full(5, 0.6)
    got = constraint_step_direction(qcqp, x, 30, training_rng(2))
    vals = qcqp.full_constraint_values(x)
    grads = qcqp.full_constraint_grads(x)
    want = (vals > 0).astype(float) @ grads
    assert np.allclose(got, want, rtol=1e-10)


def test_constraint_step_direction_single(npc):
    # one constraint: the direction is its batch subgradient, no indicator
    x = np.linspace(-0.5, 0.5, 8)
    got = constraint_step_direction(npc, x, 50, training_rng(3))  # 50 = all neg rows
    want = npc.full_constraint_grads(x)[0]
    assert np.allclose(got, want, rtol=1e-10)


def test_oracle_streams_are_deterministic(qcqp):
    x = np.full(5, 0.1)
    z = np.zeros(30)
    b = BatchSizes(4, 3, 5)
    s1 = sample_lagrangian_subgradient(qcqp, x, z, b, training_rng(123))
    s2 = sample_lagrangian_subgradient(qcqp, x, z, b, training_rng(123))
    assert np.array_equal(s1.u, s2.u)
    assert np.array_equal(s1.w, s2.w)
    s3 = sample_lagrangian_subgradient(qcqp, x, z, b, training_rng(124))
    assert not np.array_equal(s1.u, s3.u)


def test_stream_seeds_and_tags_must_be_non_negative():
    with pytest.raises(ValueError, match=r"seeds and tags must be non-negative, got \[-1, 1\]"):
        training_rng(-1)
    with pytest.raises(ValueError, match=r"got \[3, -2\]"):
        stream_seed(3, -2)


def test_z_shape_is_checked(qcqp):
    with pytest.raises(ValueError):
        sample_lagrangian_subgradient(qcqp, np.zeros(5), np.zeros(7), BatchSizes(), training_rng(0))


def test_minimax_sample_noise_is_zero_mean():
    prob = make_bilinear_saddle(4, 3, seed=6, noise_sigma=0.3)
    x = np.full(4, 0.2)
    z = np.full(3, -0.1)
    exact_u, exact_w = prob.exact_grads(x, z)
    rng = training_rng(45)
    reps = 4000
    us = np.empty((reps, 4))
    ws = np.empty((reps, 3))
    for r in range(reps):
        s = sample_minimax_subgradient(prob, x, z, rng)
        us[r] = s.u
        ws[r] = s.w
    assert np.all(np.abs(us.mean(0) - exact_u) <= 5 * 0.3 / np.sqrt(reps))
    assert np.all(np.abs(ws.mean(0) - exact_w) <= 5 * 0.3 / np.sqrt(reps))
