"""Golden trajectories: every solver lane on a tiny instance of each problem
kind, run through ``run_experiment`` with ``timing = none`` and compared with
the CSVs committed under ``tests/data/golden/``.

Iterations and flags must match exactly and float columns to ``rtol=1e-12``,
so a change in the order of random draws, in the averaging or in the scoring
shows up here. The aprid cells also compare their final averaged multipliers
``z_bar`` with ``<label>_seed1_z_bar.npy`` to 1e-12 relative in the max norm,
since checkpoints score only the primal average. After a deliberate
trajectory change, regenerate the files with

    PYTHONPATH=src python3 tests/test_golden_trajectories.py

and state the change and its reason alongside it.
"""

import os

import numpy as np
import pytest

from aprid import read_run_csv, resolve_config, run_experiment

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "golden")

NPC = {"kind": "npc_synthetic", "d": "4", "n_pos": "40", "n_neg": "40",
       "instance_seed": "2", "c_hat": "0.5"}
EXPECTATION = {"kind": "qcqp_expectation", "n": "3", "p": "2", "eval_samples": "500"}
FINITE_SUM = {"kind": "qcqp_finite_sum", "n": "4", "p": "3", "num_objective_terms": "30",
              "num_constraints": "20", "instance_seed": "1"}
# as many constraints as the run's j1, so every step samples all of them
FINITE_SUM_FULL = dict(FINITE_SUM, num_constraints="3")
BILINEAR = {"kind": "bilinear", "n": "3", "m": "3", "instance_seed": "1",
            "noise_sigma": "0.1"}

# (label, problem, algorithm, lanes the cell writes)
CASES = [
    ("npc-aprid", NPC, {"name": "aprid"}, ["aprid"]),
    ("npc-msa", NPC, {"name": "msa"}, ["msa"]),
    ("npc-csa", NPC, {"name": "csa", "gamma": "2", "eta_tol": "0.1"}, ["csa1", "csa2"]),
    ("npc-pdsg_adp", NPC, {"name": "pdsg_adp"}, ["pdsg_adp"]),
    ("expectation-aprid", EXPECTATION, {"name": "aprid", "alpha": "2"}, ["aprid"]),
    ("expectation-msa", EXPECTATION, {"name": "msa", "alpha": "2"}, ["msa"]),
    ("expectation-csa", EXPECTATION, {"name": "csa", "gamma": "2", "s": "20"},
     ["csa1", "csa2"]),
    ("finite_sum-aprid", FINITE_SUM, {"name": "aprid", "schedule": "sqrt_log"}, ["aprid"]),
    ("finite_sum-msa", FINITE_SUM, {"name": "msa"}, ["msa"]),
    ("finite_sum-csa", FINITE_SUM, {"name": "csa", "eta_tol": "0.5"}, ["csa1", "csa2"]),
    ("finite_sum-pdsg_adp", FINITE_SUM, {"name": "pdsg_adp"}, ["pdsg_adp"]),
    ("finite_sum_full-aprid", FINITE_SUM_FULL, {"name": "aprid"}, ["aprid"]),
    ("finite_sum_full-msa", FINITE_SUM_FULL, {"name": "msa"}, ["msa"]),
    ("bilinear-apriad", BILINEAR, {"name": "apriad", "schedule": "sqrt"}, ["apriad"]),
]
SEED = 1


def _config(problem, algorithm):
    run = {"horizon": "150", "checkpoints": "6", "seeds": str(SEED), "j0": "3", "j1": "3",
           "jg": "5", "timing": "none", "freeze_samples": "500",
           "reference": "none" if problem is BILINEAR else "exact"}
    return resolve_config({"problem": dict(problem), "algorithm": dict(algorithm), "run": run})


def _golden_name(label, lane):
    return f"{label.split('-')[0]}-{lane}_seed{SEED}.csv"


def _z_bar_name(label):
    return os.path.join(GOLDEN, f"{label}_seed{SEED}_z_bar.npy")


@pytest.mark.parametrize("label,problem,algorithm,lanes", CASES, ids=[c[0] for c in CASES])
def test_trajectory_matches_golden(tmp_path, label, problem, algorithm, lanes):
    out = run_experiment(_config(problem, algorithm), str(tmp_path))
    assert [os.path.basename(p) for p in out.csv_paths] == [
        f"{lane}_seed{SEED}.csv" for lane in lanes]
    for lane, path in zip(lanes, out.csv_paths):
        got = read_run_csv(path)
        want = read_run_csv(os.path.join(GOLDEN, _golden_name(label, lane)))
        assert [(r.iteration, r.flags) for r in got] == [(r.iteration, r.flags) for r in want]
        for column in ("wall_s", "obj_err", "viol_avg", "viol_max", "gap"):
            np.testing.assert_allclose(
                [getattr(r, column) for r in got], [getattr(r, column) for r in want],
                rtol=1e-12, atol=0.0, equal_nan=True, err_msg=f"{lane} {column}")
    if algorithm["name"] == "aprid":
        got, want = out.results[0].z_bar, np.load(_z_bar_name(label))
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


if __name__ == "__main__":
    import tempfile

    os.makedirs(GOLDEN, exist_ok=True)
    for label, problem, algorithm, lanes in CASES:
        with tempfile.TemporaryDirectory() as tmp:
            out = run_experiment(_config(problem, algorithm), tmp)
            for lane, path in zip(lanes, out.csv_paths):
                with open(path, "rb") as src, \
                        open(os.path.join(GOLDEN, _golden_name(label, lane)), "wb") as dst:
                    dst.write(src.read())
            if algorithm["name"] == "aprid":
                np.save(_z_bar_name(label), out.results[0].z_bar)
