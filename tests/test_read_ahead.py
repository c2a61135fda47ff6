"""The read-ahead of index sets: a planned training stream serves ``choice``'s sets.

A run whose draws do not depend on the iterate (aprid, msa and pdsg_adp on the finite-sum
and Neyman-Pearson families) declares the ``(total, size)`` index sets of each step, and
``_subsample`` then serves them from chunks of ``READ_AHEAD`` steps drawn at once. Every
set must have the bytes of ``Generator.choice(total, size, replace=False)`` drawn per
call, and the stream must end where the per-call draws leave it.
"""

import numpy as np
import pytest

import test_golden_trajectories as golden
from aprid import (BatchSizes, CsaParams, PdsgAdpParams, SolverParams, StepSchedule, aprid_run,
                   csa_run, make_qcqp_finite_sum, pdsg_adp_run, rng as rng_module, training_rng)
from aprid.problems import _subsample
from aprid.rng import TrainingStream


def _draws_match(plan, horizon, seed=0):
    """Every set of ``horizon`` steps of ``plan``, and the stream's next draw, the same
    from a planned stream as from per-call ``choice``; the number of sets compared."""
    ahead, per_call = training_rng(seed, plan, horizon), training_rng(seed)
    for step in range(horizon):
        for total, size in plan:
            got, want = _subsample(ahead, total, size), _subsample(per_call, total, size)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), (step, total, size)
    assert ahead.integers(0, 2**62, 4).tobytes() == per_call.integers(0, 2**62, 4).tobytes()
    return horizon * len(plan)


PLANS = [
    ((100, 1), (50, 10)),  # a one-element set, then a set with many repeated draws
    ((100_000, 100), (100_000, 10)),  # Floyd's regime up to 1e5
    ((3, 3), (3, 5)),  # size >= total, as the finite_sum_full goldens sample every row
    ((10_000, 10), (100_000, 10)),  # the many_constraints workload's plan
]


@pytest.mark.parametrize("horizon", [1, 63, 64, 65, 130])
@pytest.mark.parametrize("plan", PLANS, ids=["1-10", "1e5", "full", "many_constraints"])
def test_read_ahead_is_choice_bit_for_bit(plan, horizon):
    assert _draws_match(plan, horizon, seed=horizon) == horizon * len(plan)


def test_read_ahead_is_choice_on_random_plans():
    # pops 50-100,000, sizes 1-100 (and the whole pop), horizons across chunk boundaries
    gen = np.random.default_rng(27)
    for trial in range(150):
        total = int(gen.integers(50, 100_001))
        plan = ((total, int(gen.integers(1, 101))),
                (int(gen.integers(1, 300)), int(gen.integers(1, 40))))
        if not any(t > 10_000 and min(s, t) > t // 50 for t, s in plan):
            _draws_match(plan, int(gen.integers(1, 140)), seed=trial)


@pytest.mark.parametrize("chunk", [1, 7])
def test_read_ahead_is_choice_at_any_chunk(chunk, monkeypatch):
    monkeypatch.setattr(rng_module, "READ_AHEAD", chunk)
    for plan in PLANS:
        _draws_match(plan, 20)


def test_a_draw_not_in_the_plan_raises():
    stream = training_rng(1, ((100, 10), (50, 5)), 2)
    with pytest.raises(RuntimeError, match=r"\(50, 5\) is not next in"):
        _subsample(stream, 50, 5)
    stream = training_rng(1, ((100, 10), (50, 5)), 1)
    _subsample(stream, 100, 10)
    with pytest.raises(RuntimeError, match="not next in"):
        _subsample(stream, 50, 6)
    stream = training_rng(1, ((100, 10),), 1)
    _subsample(stream, 100, 10)
    with pytest.raises(RuntimeError, match="step 2$"):
        _subsample(stream, 100, 10)


class _Faulty:
    """A finite-sum problem whose objective oracle repeats its draw, or skips the stream."""

    def __init__(self, problem, fault):
        self._problem, self._fault = problem, fault

    def __getattr__(self, name):
        return getattr(self._problem, name)

    def sample_objective_grad(self, x, j0, rng):
        if self._fault == "repeat":
            self._problem.sample_objective_grad(x, j0, rng)
        elif self._fault == "skip":
            rng = np.random.default_rng(0)
        return self._problem.sample_objective_grad(x, j0, rng)


@pytest.mark.parametrize("fault", ["none", "repeat", "skip"])
def test_a_step_that_repeats_or_skips_a_planned_draw_raises(fault):
    # N = M and j0 = j1, as in the shipped qcqp_finite_sum config: the plan's two sets are
    # equal, so only the count of a step's draws can tell them apart
    prob = _Faulty(make_qcqp_finite_sum(4, 3, 30, 30, seed=1), fault)
    assert prob.draw_plan(3, 3) == ((30, 3), (30, 3))
    params = SolverParams(StepSchedule.constant(0.1, 0.1, 20, 0.9))
    run = lambda: aprid_run(prob, params, BatchSizes(3, 3, 5), seed=1, checkpoints=[20])
    if fault == "none":
        assert run().records[-1].iteration == 20
        return
    drawn = {"repeat": 3, "skip": 1}[fault]
    with pytest.raises(RuntimeError, match=rf"^step 1 drew {drawn} of the 2 planned sets"):
        run()


@pytest.fixture
def choice_calls(monkeypatch):
    """Every ``choice`` call a training stream makes, as ``(total, size)``."""
    calls, clean = [], TrainingStream.choice

    def counted(self, a, size=None, replace=True):
        calls.append((a, size))
        return clean(self, a, size=size, replace=replace)

    monkeypatch.setattr(TrainingStream, "choice", counted)
    return calls


def test_csa_plain_generators_and_tail_plans_draw_per_call(choice_calls):
    prob, batches = make_qcqp_finite_sum(4, 3, 30, 20, seed=1), BatchSizes(j0=3, j1=3, jg=5)
    pdsg_adp_run(prob, PdsgAdpParams(40), batches, seed=1, checkpoints=[40], f0_ref=0.0)
    assert choice_calls == []  # planned: every set read ahead
    # csa's second draw depends on its violation estimate, so csa declares no plan
    csa_run(prob, CsaParams(40), batches, seed=1, checkpoints=[40], f0_ref=0.0)
    assert len(choice_calls) == 80 and choice_calls[0] == (20, 5)
    # choice's tail shuffle (total > 10000, size > total // 50) is drawn per call, and so is
    # every other set of its plan
    del choice_calls[:]
    tail = training_rng(3, ((20_000, 500), (30, 3)), 5)
    per_call = training_rng(3)
    for _ in range(5):
        for total, size in ((20_000, 500), (30, 3)):
            assert _subsample(tail, total, size).tobytes() == \
                per_call.choice(total, size, replace=False).tobytes()
    assert len(choice_calls) == 10 + 10
    plain = np.random.default_rng(5)
    assert _subsample(plain, 30, 3).tobytes() == \
        np.random.default_rng(5).choice(30, 3, replace=False).tobytes()


PLANNED = [case for case in golden.CASES
           if case[2]["name"] in ("aprid", "msa", "pdsg_adp")
           and case[1] is not golden.EXPECTATION]


@pytest.mark.parametrize("chunk", [1, 7])
@pytest.mark.parametrize("label,problem,algorithm,lanes", PLANNED, ids=[c[0] for c in PLANNED])
def test_goldens_hold_at_any_chunk(tmp_path, label, problem, algorithm, lanes, chunk,
                                   monkeypatch, choice_calls):
    monkeypatch.setattr(rng_module, "READ_AHEAD", chunk)
    golden.test_trajectory_matches_golden(tmp_path, label, problem, algorithm, lanes)
    assert choice_calls == []  # every set of the 150 steps came from the read-ahead
