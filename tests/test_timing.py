"""Wall-clock accounting modes: algo-only, total, and zeroed-out."""

import math

from aprid import (
    BatchSizes,
    SolverParams,
    StepSchedule,
    aprid_run,
    make_qcqp_expectation,
    make_qcqp_finite_sum,
    read_run_csv,
    resolve_config,
    run_experiment,
)

BATCHES = BatchSizes(j0=4, j1=4, jg=4)


def test_wall_monotone_and_bounded():
    problem = make_qcqp_finite_sum(4, 2, 12, 6, seed=1)
    params = SolverParams(StepSchedule.constant(2.0, 1.0, 60, 0.9))
    for timing in ("algo", "total"):
        res = aprid_run(problem, params, BATCHES, seed=1,
                        checkpoints=[10, 30, 60], timing=timing)
        walls = [r.wall_s for r in res.records]
        assert all(w >= 0.0 for w in walls)
        assert all(b >= a for a, b in zip(walls, walls[1:]))
        assert res.wall_total >= walls[-1]


def test_total_timing_includes_evaluation_cost():
    # evaluation redraws 150k samples per checkpoint, dwarfing the 60 cheap
    # steps, so the eval-inclusive clock has to come out far ahead
    problem = make_qcqp_expectation(6, 4, eval_samples=150_000)
    params = SolverParams(StepSchedule.constant(2.0, 1.0, 60, 0.9))
    cps = [20, 40, 60]
    algo = aprid_run(problem, params, BATCHES, seed=2, checkpoints=cps, timing="algo")
    total = aprid_run(problem, params, BATCHES, seed=2, checkpoints=cps, timing="total")
    assert total.records[-1].wall_s > algo.records[-1].wall_s
    assert total.wall_total > algo.wall_total


def test_timing_none_zeroes_the_column(tmp_path):
    raw = {
        "problem": {"kind": "qcqp_finite_sum", "n": "4", "p": "2",
                    "num_objective_terms": "12", "num_constraints": "6"},
        "algorithm": {"name": "aprid"},
        "run": {"horizon": "30", "checkpoints": "10 30", "seeds": "1",
                "timing": "none", "reference": "none"},
    }
    out = run_experiment(resolve_config(raw), tmp_path / "z")
    for rec in read_run_csv(out.csv_paths[0]):
        assert rec.wall_s == 0.0
    # the zeroing is literal in the bytes, not a float that prints as zero
    with open(out.csv_paths[0], "r", encoding="utf-8") as fh:
        body = fh.read().splitlines()
    for line in body[1:]:
        assert line.split(",")[1] == "0"
