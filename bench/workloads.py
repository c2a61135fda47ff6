"""The benchmark's workloads: pinned experiment configs and pass targets.

Every value is written out here instead of read from ``configs/``, so a later
change to a shipped config cannot silently change a workload. Problem
sections copy the shipped configs; horizons and checkpoint counts are the
benchmark's own, shorter than the shipped ones so that one repetition of a
workload takes a few seconds. The workload seed sets the solver master seed
of every cell and nothing else: instance seeds stay at the shipped values
(npc_synthetic at another instance seed can lose its only active
constraint).

A cell passes when it does not diverge, its reference meets
``run.reference_tol`` on the KKT check, and its final checkpoint meets every
target of its experiment. The targets sit well above the seed-to-seed spread
measured over solver seeds 0-19 at these horizons, and far below what a
broken solver reaches (the bilinear gap is 7.2 at the origin and ~18 at a box
corner; a finite-sum QCQP iterate on the box boundary has objective error
above 1).
"""

from dataclasses import dataclass

__all__ = ["Experiment", "Workload", "WORKLOADS"]

# configs/qcqp_finite_sum.ini, [problem]
FINITE_SUM = {"kind": "qcqp_finite_sum", "n": "10", "p": "5",
              "num_objective_terms": "10000", "num_constraints": "10000",
              "instance_seed": "0"}
# the same family with ten times the constraints
MANY_CONSTRAINTS = dict(FINITE_SUM, num_constraints="100000")
# configs/npc_synthetic.ini, [problem]
NPC_SYNTHETIC = {"kind": "npc_synthetic", "d": "50", "n_pos": "1000", "n_neg": "1000",
                 "separation": "2.5", "instance_seed": "3", "preprocess": "true",
                 "c_hat": "0.2681"}
# configs/bilinear_saddle.ini, [problem]
BILINEAR = {"kind": "bilinear", "n": "20", "m": "20", "instance_seed": "11",
            "noise_sigma": "0.1"}
# configs/qcqp_expectation.ini, [problem]
EXPECTATION = {"kind": "qcqp_expectation", "n": "10", "p": "5", "eval_samples": "100000"}

# step scales of the shipped configs and of the comparative-ordering test
APRID_FS = {"name": "aprid", "alpha": "10", "rho": "3.1622776601683795"}
MSA = {"name": "msa", "alpha": "10", "rho": "1"}
CSA = {"name": "csa", "gamma": "10"}
PDSG_ADP = {"name": "pdsg_adp"}
APRID_NPC = {"name": "aprid", "alpha": "10", "rho": "1"}
APRIAD = {"name": "apriad", "alpha": "1", "rho": "1"}
APRID_EXP = {"name": "aprid", "alpha": "10", "rho": "10"}


@dataclass(frozen=True)
class Experiment:
    """One ``run_experiment`` call: a config with a single solver seed."""

    label: str
    problem: dict
    algorithm: dict
    run: dict
    targets: dict  # final-checkpoint column -> largest passing value

    def raw_config(self, seed: int) -> dict:
        run = dict(self.run, seeds=str(seed), timing="algo")
        return {"problem": dict(self.problem), "algorithm": dict(self.algorithm), "run": run}


@dataclass(frozen=True)
class Workload:
    why: str
    experiments: tuple


def _fs_run(horizon):
    return {"horizon": str(horizon), "checkpoints": "10", "reference": "exact"}


FS_TARGETS = {"obj_err": 0.03, "viol_max": 0.5}
MC_TARGETS = {"obj_err": 0.15, "viol_max": 2.0}

WORKLOADS = {
    "methods_mix": Workload(
        why="every solver and baseline run loop on small instances; per-step "
            "dispatch and validation dominate",
        experiments=(
            Experiment("qcqp_finite_sum/aprid", FINITE_SUM, APRID_FS, _fs_run(5000), FS_TARGETS),
            Experiment("qcqp_finite_sum/msa", FINITE_SUM, MSA, _fs_run(5000), FS_TARGETS),
            Experiment("qcqp_finite_sum/csa", FINITE_SUM, CSA, _fs_run(5000), FS_TARGETS),
            Experiment("qcqp_finite_sum/pdsg_adp", FINITE_SUM, PDSG_ADP, _fs_run(5000),
                       FS_TARGETS),
            Experiment("npc_synthetic/aprid", NPC_SYNTHETIC, APRID_NPC, _fs_run(5000),
                       {"obj_err": 0.02, "viol_max": 0.03}),
            Experiment("bilinear/apriad", BILINEAR, APRIAD,
                       {"horizon": "5000", "checkpoints": "10", "reference": "none"},
                       {"gap": 2.0}),
        ),
    ),
    "many_constraints": Workload(
        why="M=1e5 constraints: aprid's O(M) dual side per step against msa as "
            "control, plus a heavy build and reference",
        experiments=(
            Experiment("qcqp_many/aprid", MANY_CONSTRAINTS, APRID_FS, _fs_run(4000), MC_TARGETS),
            Experiment("qcqp_many/msa", MANY_CONSTRAINTS, MSA, _fs_run(4000), MC_TARGETS),
        ),
    ),
    "expectation_eval": Workload(
        why="fresh draws every oracle call and 100k-draw checkpoint evaluations, "
            "which dominate the run",
        experiments=(
            Experiment("qcqp_expectation/aprid", EXPECTATION, APRID_EXP,
                       {"horizon": "3000", "checkpoints": "4", "reference": "exact",
                        "freeze_samples": "100000", "freeze_seed": "0"},
                       {"obj_err": 1e-3, "viol_max": 0.05}),
        ),
    ),
}
