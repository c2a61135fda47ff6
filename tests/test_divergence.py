"""A non-finite oracle output stops a run at the step that drew it.

Each run below draws one poisoned oracle output (NaN in one block) at step
``K > 1``, through a wrapper on the problem instance's sampling method. The
run must raise ``DivergenceError`` with the message of the check that caught
it, carry ``iteration == K``, and hold as partial records exactly the
checkpoints a clean run on the same stream completed before ``K``.
"""

import re

import numpy as np
import pytest

from aprid import (
    BatchSizes,
    CsaParams,
    DivergenceError,
    MsaParams,
    PdsgAdpParams,
    SolverParams,
    apriad_run,
    aprid_run,
    csa_run,
    make_bilinear_saddle,
    make_qcqp_finite_sum,
    msa_run,
    pdsg_adp_run,
)

K = 7
CHECKPOINTS = [2, 4, 6, 8, 10]
BATCHES = BatchSizes(j0=4, j1=4, jg=8)


def poisoned(u):
    return np.full_like(u, np.nan)


def poison(monkeypatch, problem, method, spoil):
    """Make ``problem.<method>`` return ``spoil(output)`` on its K-th call."""
    clean, calls = getattr(problem, method), []

    def wrapped(*args):
        calls.append(None)
        out = clean(*args)
        return spoil(out) if len(calls) == K else out

    monkeypatch.setattr(problem, method, wrapped)


def rows(result):
    return [(r.csv_values(zero_wall=True), repr(r.objective)) for r in result.records]


def check_stops_at_k(run, problem, monkeypatch, method, spoil, message):
    clean = run(problem)
    clean = clean if isinstance(clean, tuple) else (clean,)
    poison(monkeypatch, problem, method, spoil)
    with pytest.raises(DivergenceError) as info:
        run(problem)
    err = info.value
    assert re.fullmatch(message, str(err))
    assert err.iteration == K
    assert len(err.partial_results) == len(clean)
    for part, full in zip(err.partial_results, clean):
        assert part.algorithm == full.algorithm
        assert rows(part) == [row for row in rows(full) if int(row[0][0]) < K]
        assert [r.iteration for r in part.records] == [2, 4, 6]


@pytest.fixture
def qcqp():
    return make_qcqp_finite_sum(5, 3, 30, 20, seed=4)


@pytest.fixture
def saddle():
    return make_bilinear_saddle(4, 3, seed=2, noise_sigma=0.1)


@pytest.mark.parametrize("adaptive, message", [
    (True, r"non-finite gradient passed to clip_gradient"),
    (False, r"non-finite point passed to project_box_weighted"),
])
def test_aprid_stops_at_poisoned_step(qcqp, monkeypatch, adaptive, message):
    params = SolverParams.constant(20, alpha=3.0, rho=1.0, adaptive=adaptive)
    run = lambda p: aprid_run(p, params, BATCHES, seed=3, checkpoints=CHECKPOINTS,  # noqa: E731
                              f0_ref=0.5)
    check_stops_at_k(run, qcqp, monkeypatch, "sample_objective_grad",
                     lambda u: u * np.nan, message)


@pytest.mark.parametrize("adaptive, message", [
    (True, r"non-finite gradient passed to clip_gradient"),
    (False, r"non-finite point passed to project_box_weighted"),
])
def test_apriad_stops_at_poisoned_step(saddle, monkeypatch, adaptive, message):
    params = SolverParams.constant(20, alpha=1.0, rho=1.0, adaptive=adaptive)
    run = lambda p: apriad_run(p, params, seed=3, checkpoints=CHECKPOINTS)  # noqa: E731
    check_stops_at_k(run, saddle, monkeypatch, "sample_grads",
                     lambda uw: (uw[0], poisoned(uw[1])), message)


def test_msa_stops_at_poisoned_step(qcqp, monkeypatch):
    run = lambda p: msa_run(p, MsaParams(horizon=20), BATCHES, seed=3,  # noqa: E731
                            checkpoints=CHECKPOINTS, f0_ref=0.5)
    check_stops_at_k(run, qcqp, monkeypatch, "sample_objective_grad", poisoned,
                     r"non-finite iterate")


def test_csa_stops_at_poisoned_step(qcqp, monkeypatch):
    run = lambda p: csa_run(p, CsaParams(horizon=20), BATCHES, seed=3,  # noqa: E731
                            checkpoints=CHECKPOINTS, f0_ref=0.5)
    check_stops_at_k(run, qcqp, monkeypatch, "constraint_value_estimate",
                     lambda g: g * np.nan, r"non-finite violation estimate")


def test_pdsg_adp_stops_at_poisoned_step(qcqp, monkeypatch):
    run = lambda p: pdsg_adp_run(p, PdsgAdpParams(horizon=20), BATCHES, seed=3,  # noqa: E731
                                 checkpoints=CHECKPOINTS, f0_ref=0.5)
    check_stops_at_k(run, qcqp, monkeypatch, "sample_objective_grad", poisoned,
                     r"iterate diverged \(multiplier norm \d\.\d{3}e[+-]\d\d\)")
