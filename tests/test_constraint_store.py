"""The finite-sum QCQP's packed constraint store and its row certificate.

Each Q_j is stored once, as its upper triangle, which is exact only because every Gram
matrix the draws form is bitwise symmetric. Every oracle row, full evaluator and
evaluation must then give the bits that the formulas give on the whole (M, n, n) stack,
and the rows the certificate skips must be ones whose computed value is negative. These
tests compare two code paths on one BLAS kernel, so they hold on any kernel.
"""

import numpy as np
import pytest

from aprid import (BatchSizes, ExpectationQcqpProblem, FiniteSumQcqpProblem, SolverParams,
                   StepSchedule, aprid_run, make_qcqp_finite_sum, solve_reference, training_rng)
from aprid import problems
from aprid.kernels import serial_matmul
from aprid.problems import (_EVAL_CHUNK, _GRAM_BLOCK, _constraint_grads_at,
                            _constraint_values_at, _full_eval, _subsample, _tau)
from aprid.rng import CONSTRAINT_TAG, RECORD_BLOCK, read_records
from memory import traced_peak


def test_every_gram_chunk_is_bitwise_symmetric(monkeypatch):
    # the packing's premise, wherever Q is formed: a finite-sum build over more than one
    # block, a training record block and the freeze's chunks
    real, chunks = problems._gram_blocks, []

    def checked(*args, **kwargs):
        for lo, q in real(*args, **kwargs):
            chunks.append(len(q))
            assert q.tobytes() == np.ascontiguousarray(q.transpose(0, 2, 1)).tobytes()
            yield lo, q

    monkeypatch.setattr(problems, "_gram_blocks", checked)
    make_qcqp_finite_sum(10, 2, 3, 2 * _GRAM_BLOCK + 5, seed=3)
    assert chunks == [_GRAM_BLOCK, _GRAM_BLOCK, 5]
    prob = ExpectationQcqpProblem(10, 2)
    read_records(training_rng(4), CONSTRAINT_TAG, prob._constraint_records, RECORD_BLOCK)
    prob.freeze(n_samples=_EVAL_CHUNK + 3, seed=5)
    blocks = RECORD_BLOCK // _GRAM_BLOCK + _EVAL_CHUNK // _GRAM_BLOCK
    assert chunks[3:] == [_GRAM_BLOCK] * blocks + [3]


def _parent_answers(prob, x, seed):
    """Every constraint answer by the formulas on the materialized (M, n, n) stack."""
    q, a, b, m = prob.q, prob.a, prob.b, prob.num_constraints
    rng = np.random.default_rng(seed)
    idx = _subsample(rng, m, 10)
    qs, as_ = q.take(idx, axis=0), a.take(idx, axis=0)
    block = (idx, _constraint_values_at(qs, as_, b.take(idx), x), _constraint_grads_at(qs, as_, x))
    idx = _subsample(rng, m, 7)
    values = _constraint_values_at(q.take(idx, axis=0), a.take(idx, axis=0), b.take(idx), x)
    estimate = float(np.sum(np.maximum(values, 0.0)) * (m / idx.size))
    full = _constraint_values_at(q, a, b, x)
    return (block, estimate, full, _constraint_grads_at(q, a, x),
            _full_eval(prob.full_objective(x), full.copy()))


def _answers(prob, x, seed):
    rng = np.random.default_rng(seed)
    return (prob.sample_constraint_block(x, 10, rng), prob.constraint_value_estimate(x, 7, rng),
            prob.full_constraint_values(x), prob.full_constraint_grads(x), prob.evaluate_full(x))


def _bits(value):
    if isinstance(value, tuple):
        return [_bits(v) for v in value]
    return np.asarray(value).tobytes()


@pytest.mark.parametrize("m", [1, _GRAM_BLOCK - 1, _GRAM_BLOCK, _GRAM_BLOCK + 1, 5000])
def test_the_store_answers_with_the_bits_of_the_full_stack(m):
    prob = make_qcqp_finite_sum(10, 3, 5, m, seed=m)
    assert prob.q_upper.shape == (m, 55) and prob.q.shape == (m, 10, 10)
    assert prob._rows(np.arange(min(m, 10)))[0].flags.c_contiguous
    rng = np.random.default_rng(1)
    skipped = []
    for norm in (0.0, 0.02, 0.5, 5.0, np.nan):
        x = rng.standard_normal(10)
        x = x * (norm / np.linalg.norm(x)) if norm == norm else np.full(10, np.nan)
        assert _bits(_answers(prob, x, 2)) == _bits(_parent_answers(prob, x, 2)), norm
        skipped.append(prob.screened_constraint_values(x)[1].mean())
    # the certificate skips every row at the origin and none at 5 or at NaN
    assert skipped[0] == 1.0 and skipped[3] == 0.0 and skipped[4] == 0.0


def test_a_packed_instance_and_its_full_stack_build_the_same_store():
    prob = make_qcqp_finite_sum(4, 2, 3, 9, seed=2)
    full = FiniteSumQcqpProblem(prob.h, prob.c, prob.q, prob.a, prob.b)
    assert full.q_upper.tobytes() == prob.q_upper.tobytes()
    assert full.q_norm.tobytes() == prob.q_norm.tobytes()
    with pytest.raises(ValueError, match="read-only"):
        prob.q[0, 0, 0] = 1.0


def test_a_non_symmetric_q_is_refused():
    prob = make_qcqp_finite_sum(4, 2, 3, 9, seed=2)
    q = prob.q.copy()
    q[5, 1, 2] = np.nextafter(q[5, 1, 2], 2.0)  # one ulp off in one entry
    with pytest.raises(ValueError, match="q must be a stack of symmetric matrices"):
        FiniteSumQcqpProblem(prob.h, prob.c, q, prob.a, prob.b)
    with pytest.raises(ValueError, match=r"q has shape \(9, 4, 3\), expected \(9, 4, 4\)"):
        FiniteSumQcqpProblem(prob.h, prob.c, q[:, :, :3], prob.a, prob.b)


def _boundary_instance(m, n, seed):
    """Rank-one Q_j = v_j v_j', whose Frobenius norm is its spectral norm, so the bound
    0.5 ||Q_j||_F ||x||^2 + a_j.x - b_j meets f_j on the ray along v_j."""
    rng = np.random.default_rng(seed)
    v = rng.standard_normal((m, n))
    q = v[:, :, None] * v[:, None, :]
    prob = FiniteSumQcqpProblem(rng.standard_normal((2, 2, n)), rng.standard_normal((2, 2)), q,
                                rng.standard_normal((m, n)), rng.uniform(0.1, 1.1, m))
    return prob, v


def test_no_certified_row_has_a_nonnegative_value():
    # random points at every scale on a Gram instance, then points on each row's boundary
    # f_j = 0 of a rank-one instance (the bound is tight there), nudged by a few ulps
    # either way: a row the certificate skips must have a negative computed value
    def check(prob, x):
        skipped = prob.screened_constraint_values(x)[1]
        f = _constraint_values_at(prob.q, prob.a, prob.b, x)
        assert not (f[skipped] >= 0).any(), np.flatnonzero(skipped & (f >= 0))
        return skipped

    prob = make_qcqp_finite_sum(10, 3, 5, 2000, seed=11)
    rng = np.random.default_rng(12)
    fractions = [check(prob, rng.standard_normal(10) * r).mean()
                 for r in np.geomspace(1e-3, 3.0, 40)]
    assert min(fractions) < 0.5 < max(fractions)
    prob, v = _boundary_instance(200, 10, seed=13)
    vhat = v / np.linalg.norm(v, axis=1, keepdims=True)
    av = np.einsum("jn,jn->j", prob.a, vhat)
    vv = np.einsum("jn,jn->j", v, v)
    t = (np.sqrt(av * av + 2.0 * vv * prob.b) - av) / vv  # 0.5 t^2 vv + t av - b = 0
    on_edge = 0
    for j in range(200):
        for ulps in (-4, -1, 0, 1, 4):
            x = vhat[j] * (t[j] * (1.0 + ulps * np.finfo(float).eps))
            on_edge += check(prob, x)[j]
    assert on_edge == 0  # at f_j = 0 the margin keeps the row


def test_screened_values_evaluate_every_kept_row():
    prob = make_qcqp_finite_sum(10, 3, 5, 600, seed=4)
    x = np.full(10, 0.05)
    f, skipped = prob.screened_constraint_values(x)
    assert skipped.all() and (f < 0).all()
    keep = np.zeros(600, dtype=bool)
    keep[[3, 599]] = True
    f, skipped = prob.screened_constraint_values(x, keep)
    assert not skipped[[3, 599]].any() and skipped.sum() == 598
    exact = prob.full_constraint_values(x)
    assert f[[3, 599]].tobytes() == exact[[3, 599]].tobytes()
    assert prob.full_constraint_values(x, np.array([599, 3])).tobytes() == exact[[599, 3]].tobytes()


def _whole_stack_screen(prob, x, keep=None):
    """``screened_constraint_values`` on whole M-arrays: the bound and its margin over
    every row at once, and every exact value by the formula on the (M, n, n) stack."""
    n, ax = prob.n, serial_matmul(prob.a, x)
    lxx = prob.q_norm * (x @ x)
    bound = 0.5 * lxx + ax - prob.b
    margin = (np.abs(ax) + lxx + np.abs(prob.b)) * -_tau(n * n + 3 + n * (n + 1) // 2 + n + 5)
    skipped = bound < margin
    if keep is not None:
        skipped &= ~keep
    return np.where(skipped, bound, _constraint_values_at(prob.q, prob.a, prob.b, x)), skipped


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # inf - inf at infinite x
@pytest.mark.parametrize("m", [_EVAL_CHUNK - 1, _EVAL_CHUNK, _EVAL_CHUNK + 1, 2 * _EVAL_CHUNK + 3])
def test_chunked_screen_has_the_bits_of_the_whole_stack_screen(m):
    # the chunks overwrite a.x with f a chunk at a time; every row, skipped or exact,
    # and every evaluation must come out as the formulas on whole arrays give them
    prob = make_qcqp_finite_sum(10, 3, 5, m, seed=m)
    rng = np.random.default_rng(m)
    keep = rng.random(m) < 0.3
    direction = rng.standard_normal(10)
    points = [direction * (r / np.linalg.norm(direction)) for r in (0.0, 0.3, 0.6, 5.0)]
    points += [np.full(10, np.nan), np.full(10, np.inf), np.where(direction > 0, np.inf, 0.0)]
    mixed = 0
    for x in points:
        for mask in (None, keep):
            f, skipped = prob.screened_constraint_values(x, mask)
            want_f, want_skipped = _whole_stack_screen(prob, x, mask)
            assert f.tobytes() == want_f.tobytes() and skipped.tobytes() == want_skipped.tobytes()
            mixed += 0 < skipped.sum() < m
        want = _full_eval(prob.full_objective(x), _whole_stack_screen(prob, x)[0])
        assert _bits(tuple(prob.evaluate_full(x))) == _bits(tuple(want))
    assert mixed >= 2  # some points skip part of the rows and evaluate the rest


def test_reference_values_are_the_full_values_at_its_point():
    # M > 2 chunks: the rows skipped at the returned point are evaluated there at the end,
    # a chunk at a time
    prob = make_qcqp_finite_sum(10, 3, 5, 2 * _EVAL_CHUNK + 3, seed=21)
    sol = solve_reference(prob, tol=1e-6)
    assert prob.screened_constraint_values(sol.x, sol.z > 0)[1].any()
    assert sol.constraint_values.tobytes() == prob.full_constraint_values(sol.x).tobytes()


@pytest.fixture(scope="module")
def many_constraints():
    """The benchmark's M = 1e5 instance: 58 MB stored, its Q packed."""
    return make_qcqp_finite_sum(10, 5, 10_000, 100_000, seed=0)


MiB = 2**20


def test_a_full_evaluation_holds_one_m_array_and_a_chunk(many_constraints):
    # f (0.76 MiB), the skip mask and one chunk's bound, margin and unpacked Q. Whole-array
    # temporaries traced 3.2 MiB at the origin, where every row is skipped, and 5-6 MiB
    # where most rows are evaluated
    for scale in (0.0, 0.3, 2.0):
        _, peak = traced_peak(lambda: many_constraints.evaluate_full(np.full(10, scale)))
        assert peak <= 2 * MiB, (scale, peak / MiB)


def test_an_aprid_run_holds_its_state_and_one_evaluation(many_constraints):
    # z (0.76 MiB), the averager's (M, 3) sums (2.3 MiB) and one evaluation or the final
    # average; whole-array temporaries in the evaluations traced 9.4 MiB
    params = SolverParams(StepSchedule.constant(10.0, 3.1622776601683795, 400, 0.9))
    run, peak = traced_peak(lambda: aprid_run(many_constraints, params, BatchSizes(), seed=1,
                                              checkpoints=[100, 400], f0_ref=0.5))
    assert run.final_record().viol_max > 0.0
    assert peak <= 6 * MiB, peak / MiB


def test_the_reference_solve_holds_a_few_m_arrays(many_constraints):
    # z, the point's f and skip mask, the augmented Lagrangian's terms and z squared, or
    # while a new point is screened the last point's f: the whole-array temporaries of fun,
    # grad and the outer loop traced 7.1 MiB. No multiplier turns positive on this
    # instance, so the (M, n) constraint gradients are never formed
    sol, peak = traced_peak(lambda: solve_reference(many_constraints, tol=1e-6))
    assert not sol.z.any()
    assert peak <= 4.5 * MiB, peak / MiB
