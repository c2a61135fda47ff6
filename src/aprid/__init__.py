"""Adaptive primal-dual stochastic optimization and benchmarking.

Solvers for convex programs with many (or expectation-form) functional
constraints, driven by unbiased stochastic oracles: an adaptive
momentum/second-moment primal-dual method, its minimax variant for saddle
problems, and three classical baselines, plus the experiment problems, a
deterministic reference solver, and a config-driven benchmark harness with
a CLI (``aprid-bench``).
"""

from .baselines import CsaParams, MsaParams, PdsgAdpParams, csa_run, msa_run, pdsg_adp_run
from .config import ExperimentConfig, parse_config, resolve_config
from .errors import (ApridError, ConfigError, DivergenceError, ReferenceError,
                     ScheduleExhaustedError)
from .harness import (ExperimentOutput, build_problem, compare_report, format_report,
                      problem_digest, read_manifest, run_experiment, sweep)
from .kernels import BoxSet, clip_gradient, project_box_weighted
from .oracles import (BatchSizes, GradSample, constraint_step_direction,
                      estimate_constraint_value, sample_lagrangian_subgradient,
                      sample_minimax_subgradient)
from .problems import (BilinearSaddleProblem, Dataset, ExpectationQcqpProblem,
                       FiniteSumQcqpProblem, FrozenQcqpProblem, FullEval,
                       NeymanPearsonProblem, load_dataset, make_bilinear_saddle,
                       make_npc, make_qcqp_expectation, make_qcqp_finite_sum,
                       make_synthetic_dataset, preprocess, standardize_columns)
from .reference import KktResiduals, ReferenceSolution, kkt_residuals, solve_reference
from .results import (CheckpointRecord, RunResult, log_spaced_checkpoints,
                      read_run_csv, write_run_csv)
from .rng import eval_seed, stream_seed, training_rng
from .schedules import ErgodicAverager, StepSchedule
from .solvers import (DualState, PrimalState, SolverParams,
                      apriad_run, apriad_step, aprid_run, aprid_step,
                      primal_dual_gap)

__version__ = "0.1.0"

__all__ = [
    "ApridError", "BatchSizes", "BilinearSaddleProblem", "BoxSet",
    "CheckpointRecord", "ConfigError", "CsaParams", "Dataset", "DivergenceError",
    "DualState", "ErgodicAverager", "ExpectationQcqpProblem", "ExperimentConfig",
    "ExperimentOutput", "FiniteSumQcqpProblem", "FrozenQcqpProblem", "FullEval",
    "GradSample", "KktResiduals", "MsaParams",
    "NeymanPearsonProblem", "PdsgAdpParams", "PrimalState", "ReferenceError",
    "ReferenceSolution", "RunResult", "ScheduleExhaustedError",
    "SolverParams", "StepSchedule", "apriad_run", "apriad_step", "aprid_run",
    "aprid_step", "build_problem", "clip_gradient", "compare_report",
    "constraint_step_direction", "csa_run", "estimate_constraint_value",
    "eval_seed", "format_report", "kkt_residuals",
    "load_dataset", "log_spaced_checkpoints",
    "make_bilinear_saddle", "make_npc", "make_qcqp_expectation",
    "make_qcqp_finite_sum", "make_synthetic_dataset", "msa_run", "parse_config",
    "pdsg_adp_run", "preprocess", "primal_dual_gap", "problem_digest",
    "project_box_weighted", "read_manifest", "read_run_csv", "resolve_config",
    "run_experiment", "sample_lagrangian_subgradient", "sample_minimax_subgradient",
    "solve_reference",
    "standardize_columns", "stream_seed", "sweep", "training_rng", "write_run_csv",
]
