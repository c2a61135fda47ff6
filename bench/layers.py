"""Which aprid names the traced run wraps, and the per-layer metrics.

Layers are the modules of ``src/aprid``. Each wrapped name is replaced where
its callers look it up: the harness's own bindings of ``build_problem``,
``solve_reference``, ``write_run_csv`` and the five ``*_run`` loops; the
solver and baseline modules' bindings of the oracle and kernel functions;
and methods on the classes (averager, schedule, box, problem families).
Span names are ``<layer>.<name>``, the prefix of every per-layer metric.

Import this module only after ``aprid`` is importable (see ``run.py``).
"""

import os

import numpy as np
from aprid import baselines, harness, kernels, problems, schedules, solvers

__all__ = ["PER_LAYER", "COMPUTED", "RUN_SPANS", "install_setup_spans",
           "install_layer_spans",
           "layer_metrics"]

# (harness binding, span name) of every run loop
RUN_SPANS = (
    ("aprid_run", "solvers.aprid_run"),
    ("apriad_run", "solvers.apriad_run"),
    ("msa_run", "baselines.msa_run"),
    ("csa_run", "baselines.csa_run"),
    ("pdsg_adp_run", "baselines.pdsg_adp_run"),
)
# spans a run loop calls at checkpoints to score its averaged iterate
EVAL_SPANS = ("problems.evaluate_full", "solvers.primal_dual_gap")
PROBLEM_CLASSES = (problems.NeymanPearsonProblem, problems.ExpectationQcqpProblem,
                   problems.FiniteSumQcqpProblem, problems.BilinearSaddleProblem)
PROBLEM_METHODS = {
    "sample_objective_grad": "problems.sample_objective_grad",
    "sample_constraint_block": "problems.sample_constraint_block",
    "sample_constraint_block_exact": "problems.sample_constraint_block",
    "constraint_value_estimate": "problems.constraint_value_estimate",
    "sample_grads": "problems.sample_grads",
    "evaluate_full": "problems.evaluate_full",
    "freeze": "problems.freeze",
}

# name -> unit, in the order BENCHMARK.json lists them
PER_LAYER = {
    "problems.build_problem.s": "s",
    "problems.instance_mb": "MB",
    "problems.freeze.s": "s",
    "problems.sample_objective_grad.calls": "count",
    "problems.sample_objective_grad.self_us": "us",
    "problems.sample_constraint_block.calls": "count",
    "problems.sample_constraint_block.self_us": "us",
    "problems.constraint_value_estimate.self_us": "us",
    "problems.sample_grads.self_us": "us",
    "problems.evaluate_full.calls": "count",
    "problems.evaluate_full.self_ms": "ms",
    "problems.evaluate_full.draws": "count",
    "problems.evaluate_full.share": "ratio",
    "oracles.sample_lagrangian_subgradient.self_us": "us",
    "oracles.dual_elements_per_step": "count",
    "oracles.dual_support_fraction": "ratio",
    "oracles.constraint_step_direction.self_us": "us",
    "oracles.estimate_constraint_value.self_us": "us",
    "oracles.sample_minimax_subgradient.self_us": "us",
    "kernels.clip_gradient.self_us": "us",
    "kernels.clip_gradient.clipped_fraction": "ratio",
    "kernels.project_box_weighted.self_us": "us",
    "kernels.BoxSet.project.self_us": "us",
    "schedules.ErgodicAverager.push.calls": "count",
    "schedules.ErgodicAverager.push.self_us": "us",
    "schedules.ErgodicAverager.push.elements_per_step": "count",
    "schedules.StepSchedule.next.self_us": "us",
    "solvers.aprid_step.self_us": "us",
    "solvers.aprid_run.loop_us_per_step": "us",
    "solvers.aprid_run.us_per_step": "us",
    "solvers.apriad_step.self_us": "us",
    "solvers.apriad_run.loop_us_per_step": "us",
    "solvers.apriad_run.us_per_step": "us",
    "solvers.primal_dual_gap.self_us": "us",
    "baselines.msa_run.loop_us_per_step": "us",
    "baselines.msa_run.us_per_step": "us",
    "baselines.csa_run.loop_us_per_step": "us",
    "baselines.csa_run.us_per_step": "us",
    "baselines.pdsg_adp_run.loop_us_per_step": "us",
    "baselines.pdsg_adp_run.us_per_step": "us",
    "reference.solve_reference.s": "s",
    "reference.solve_reference.outer_iterations": "count",
    "reference.solve_reference.full_evals": "count",
    "results.write_run_csv.calls": "count",
    "results.write_run_csv.self_ms": "ms",
    "results.write_run_csv.bytes": "bytes",
    "harness.run_experiment.self_s": "s",
    "harness.run_loops.share": "ratio",
    "trace.overhead_ratio": "ratio",
    "trace.spans": "count",
}
# counts derived from array sizes and call arguments, not from the clock
COMPUTED = frozenset({
    "problems.instance_mb",
    "problems.evaluate_full.draws",
    "oracles.dual_elements_per_step",
    "oracles.dual_support_fraction",
    "schedules.ErgodicAverager.push.elements_per_step",
    "reference.solve_reference.full_evals",
})


def _add(counts, key, value):
    counts[key] = counts.get(key, 0) + value


def _instance_bytes(counts, args, problem):
    nbytes = sum(v.nbytes for v in vars(problem).values() if isinstance(v, np.ndarray))
    counts["instance_bytes"] = max(counts.get("instance_bytes", 0), nbytes)


def _outer_iterations(counts, args, ref):
    _add(counts, "outer_iterations", ref.outer_iterations)


def _csv_bytes(counts, args, _):
    _add(counts, "csv_bytes", os.path.getsize(args[0]))


def _dual_elements(counts, args, sample):
    touched = sample.w.size
    _add(counts, "dual_elements", touched)
    _add(counts, "dual_useful", touched if sample.w_support is None else sample.w_support.size)


def _push_elements(counts, args, _):
    _add(counts, "push_elements", np.size(args[1]))


def _clipped(counts, args, _):
    u, theta = args
    _add(counts, "clipped", float(np.dot(u, u)) > theta * theta)


def _eval_draws(counts, args, _):
    problem = args[0]
    if not problem.deterministic:
        _add(counts, "eval_draws", problem.eval_samples)


def _run_steps(span):
    def measure(counts, args, result):
        res = result[-1] if isinstance(result, tuple) else result
        _add(counts, span + ".steps", res.records[-1].iteration)
    return measure


def install_setup_spans(tracer):
    """Spans of the set-up phase only: instance build and reference solve."""
    tracer.wrap(harness, "build_problem", "problems.build_problem", _instance_bytes)
    tracer.wrap(harness, "solve_reference", "reference.solve_reference", _outer_iterations)


def install_layer_spans(tracer):
    """Every span and count the per-layer metrics need."""
    install_setup_spans(tracer)
    tracer.wrap(harness, "run_experiment", "harness.run_experiment")
    tracer.wrap(harness, "write_run_csv", "results.write_run_csv", _csv_bytes)
    for attr, span in RUN_SPANS:
        tracer.wrap(harness, attr, span, _run_steps(span))
    for module in (solvers, baselines):
        tracer.wrap(module, "sample_lagrangian_subgradient",
                    "oracles.sample_lagrangian_subgradient", _dual_elements)
    tracer.wrap(solvers, "sample_minimax_subgradient", "oracles.sample_minimax_subgradient")
    tracer.wrap(baselines, "estimate_constraint_value", "oracles.estimate_constraint_value")
    tracer.wrap(baselines, "constraint_step_direction", "oracles.constraint_step_direction")
    tracer.wrap(solvers, "clip_gradient", "kernels.clip_gradient", _clipped)
    tracer.wrap(solvers, "project_box_weighted", "kernels.project_box_weighted")
    for attr in ("aprid_step", "apriad_step", "primal_dual_gap"):
        tracer.wrap(solvers, attr, "solvers." + attr)
    tracer.wrap(kernels.BoxSet, "project", "kernels.BoxSet.project")
    tracer.wrap(schedules.ErgodicAverager, "push", "schedules.ErgodicAverager.push",
                _push_elements)
    tracer.wrap(schedules.StepSchedule, "next", "schedules.StepSchedule.next")
    for cls in PROBLEM_CLASSES:
        for attr, span in PROBLEM_METHODS.items():
            if attr in vars(cls):
                tracer.wrap(cls, attr, span, _eval_draws if attr == "evaluate_full" else None)
    for cls in (problems.NeymanPearsonProblem, problems.FiniteSumQcqpProblem,
                problems.FrozenQcqpProblem):
        tracer.count_calls(cls, "full_constraint_values", "full_evals",
                           under="reference.solve_reference")


def layer_metrics(table, counts, wall_s):
    """Per-layer metrics of one traced repetition lasting ``wall_s`` seconds.

    ``*.self_us`` and ``*.self_ms`` are mean self time per call; ``*.s`` is
    inclusive time per repetition; ``.calls`` and the computed counts are
    totals per repetition and repeat exactly for a given seed.
    ``*_run.loop_us_per_step`` is a run loop's self time (outside every child
    span, so without evaluation) per step; ``*.share`` is a fraction of the
    repetition's wall time. ``run.py`` adds ``*_run.us_per_step`` from the
    untraced repetitions and ``trace.overhead_ratio``.
    """
    us = lambda name: 1e6 * table.self_per_call(name)  # noqa: E731
    m = {}
    m["problems.build_problem.s"] = table.total_s("problems.build_problem")
    m["problems.instance_mb"] = counts.get("instance_bytes", 0) / 1e6
    m["problems.freeze.s"] = table.total_s("problems.freeze")
    for name in ("sample_objective_grad", "sample_constraint_block"):
        m[f"problems.{name}.calls"] = table.calls("problems." + name)
        m[f"problems.{name}.self_us"] = us("problems." + name)
    m["problems.constraint_value_estimate.self_us"] = us("problems.constraint_value_estimate")
    m["problems.sample_grads.self_us"] = us("problems.sample_grads")
    m["problems.evaluate_full.calls"] = table.calls("problems.evaluate_full")
    m["problems.evaluate_full.self_ms"] = 1e3 * table.self_per_call("problems.evaluate_full")
    m["problems.evaluate_full.draws"] = counts.get("eval_draws", 0)
    m["problems.evaluate_full.share"] = table.total_s("problems.evaluate_full") / wall_s

    oracle_calls = table.calls("oracles.sample_lagrangian_subgradient")
    dual = counts.get("dual_elements", 0)
    m["oracles.sample_lagrangian_subgradient.self_us"] = us(
        "oracles.sample_lagrangian_subgradient")
    m["oracles.dual_elements_per_step"] = dual / oracle_calls if oracle_calls else 0.0
    m["oracles.dual_support_fraction"] = counts.get("dual_useful", 0) / dual if dual else 0.0
    for name in ("constraint_step_direction", "estimate_constraint_value",
                 "sample_minimax_subgradient"):
        m[f"oracles.{name}.self_us"] = us("oracles." + name)

    clip_calls = table.calls("kernels.clip_gradient")
    m["kernels.clip_gradient.self_us"] = us("kernels.clip_gradient")
    m["kernels.clip_gradient.clipped_fraction"] = (
        counts.get("clipped", 0) / clip_calls if clip_calls else 0.0)
    m["kernels.project_box_weighted.self_us"] = us("kernels.project_box_weighted")
    m["kernels.BoxSet.project.self_us"] = us("kernels.BoxSet.project")

    steps = sum(counts.get(span + ".steps", 0) for _, span in RUN_SPANS)
    m["schedules.ErgodicAverager.push.calls"] = table.calls("schedules.ErgodicAverager.push")
    m["schedules.ErgodicAverager.push.self_us"] = us("schedules.ErgodicAverager.push")
    m["schedules.ErgodicAverager.push.elements_per_step"] = (
        counts.get("push_elements", 0) / steps if steps else 0.0)
    m["schedules.StepSchedule.next.self_us"] = us("schedules.StepSchedule.next")

    for name in ("aprid_step", "apriad_step", "primal_dual_gap"):
        m[f"solvers.{name}.self_us"] = us("solvers." + name)
    for _, span in RUN_SPANS:
        run_steps = counts.get(span + ".steps", 0)
        m[span + ".loop_us_per_step"] = (
            1e6 * table.self_s(span) / run_steps if run_steps else 0.0)

    m["reference.solve_reference.s"] = table.total_s("reference.solve_reference")
    m["reference.solve_reference.outer_iterations"] = counts.get("outer_iterations", 0)
    m["reference.solve_reference.full_evals"] = counts.get("full_evals", 0)
    m["results.write_run_csv.calls"] = table.calls("results.write_run_csv")
    m["results.write_run_csv.self_ms"] = 1e3 * table.self_per_call("results.write_run_csv")
    m["results.write_run_csv.bytes"] = counts.get("csv_bytes", 0)
    m["harness.run_experiment.self_s"] = table.self_s("harness.run_experiment")
    runs = [span for _, span in RUN_SPANS]
    loops = sum(table.total_s(span) for span in runs) - table.child_total_s(runs, EVAL_SPANS)
    m["harness.run_loops.share"] = loops / wall_s
    m["trace.spans"] = len(table)
    return m
