"""Experiment coordination over configs: build, run, persist, compare.

One experiment is a validated config plus a seed list. The harness builds
the problem once (instances are immutable), resolves the reference target,
runs every (algorithm, seed) cell, and writes per-cell trajectory CSVs plus
a single ``manifest.txt`` with every resolved config value, library
versions, the reference provenance and active set, timestamps, and a
per-cell status table. Trajectory files never contain timestamps, so
identical configs and seeds reproduce identical bytes (exactly true in
``timing = none`` mode, true outside the wall_s column otherwise).
"""

import datetime
import hashlib
import os
import platform
import time
import warnings
from dataclasses import dataclass, field
from statistics import median

import numpy as np

from .baselines import CsaParams, MsaParams, PdsgAdpParams, csa_run, msa_run, pdsg_adp_run
from .config import ConfigError, ExperimentConfig
from .errors import DivergenceError
from .oracles import BatchSizes
from .problems import (load_dataset, make_bilinear_saddle, make_npc,
                       make_qcqp_expectation, make_qcqp_finite_sum,
                       make_synthetic_dataset, preprocess)
from .reference import solve_reference
from .results import CheckpointRecord, log_spaced_checkpoints, read_run_csv, write_run_csv
from .schedules import StepSchedule
from .solvers import SolverParams, apriad_run, aprid_run

__all__ = [
    "ExperimentOutput",
    "build_problem",
    "problem_digest",
    "run_experiment",
    "read_manifest",
    "compare_report",
    "format_report",
    "sweep",
]

MANIFEST_NAME = "manifest.txt"


def _package_version() -> str:
    try:
        from importlib.metadata import version

        return version("aprid")
    except Exception:
        return "unknown"


def build_problem(cfg: ExperimentConfig):
    """Instantiate the problem described by the config's [problem] section."""
    p = cfg.problem
    kind = p["kind"]
    try:
        if kind == "npc":
            ds = load_dataset(p["data"], fmt=p["format"])
            if p["preprocess"]:
                ds = preprocess(ds)
            return make_npc(ds, c_hat=p["c_hat"], c_target=p["c_target"],
                            kappa=p["kappa"], box_halfwidth=p["box_halfwidth"])
        if kind == "npc_synthetic":
            ds = make_synthetic_dataset(p["d"], p["n_pos"], p["n_neg"],
                                        seed=p["instance_seed"],
                                        separation=p["separation"])
            if p["preprocess"]:
                ds = preprocess(ds)
            return make_npc(ds, c_hat=p["c_hat"], c_target=p["c_target"],
                            kappa=p["kappa"], box_halfwidth=p["box_halfwidth"])
        if kind == "qcqp_expectation":
            return make_qcqp_expectation(p["n"], p["p"],
                                         eval_samples=p["eval_samples"],
                                         h_normalization=p["h_normalization"])
        if kind == "qcqp_finite_sum":
            return make_qcqp_finite_sum(p["n"], p["p"], p["num_objective_terms"],
                                        p["num_constraints"], seed=p["instance_seed"],
                                        h_normalization=p["h_normalization"],
                                        max_elements=p["max_elements"])
        if kind == "bilinear":
            return make_bilinear_saddle(p["n"], p["m"], seed=p["instance_seed"],
                                        noise_sigma=p["noise_sigma"])
    except (ValueError, OSError) as exc:
        raise ConfigError([f"problem.{kind}: {exc}"]) from exc
    raise ConfigError([f"problem.kind: unhandled kind {kind!r}"])


def problem_digest(cfg: ExperimentConfig) -> str:
    """Digest of the [problem] section only; runs over the same instance
    share it regardless of algorithm or run settings."""
    lines = sorted(f"{k}={v}" for k, v in cfg.resolved.items() if k.startswith("problem."))
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


def _build_schedule(cfg) -> StepSchedule:
    a = cfg.algorithm
    kind = a["schedule"]
    build = {"constant": StepSchedule.constant, "sqrt_log": StepSchedule.sqrt_log,
             "sqrt": StepSchedule.sqrt}[kind]
    return build(a["alpha"], a["rho"], cfg.run["horizon"], a["beta1"])


def _checkpoint_list(cfg):
    cps = cfg.run["checkpoints"]
    if len(cps) == 1:
        return log_spaced_checkpoints(cfg.run["horizon"], count=cps[0])
    return list(cps)


def _run_cell(problem, cfg, seed, f0_ref, timing):
    """One (algorithm, seed) execution; returns a list of RunResults
    (the switching baseline yields two trajectories)."""
    name = cfg.algorithm_name
    a = cfg.algorithm
    horizon = cfg.run["horizon"]
    batches = BatchSizes(j0=cfg.run["j0"], j1=cfg.run["j1"], jg=cfg.run["jg"])
    cps = _checkpoint_list(cfg)
    if name == "aprid":
        params = SolverParams(_build_schedule(cfg), beta2=a["beta2"], theta=a["theta"],
                              divergence_cap=a["divergence_cap"])
        return [aprid_run(problem, params, batches, seed, checkpoints=cps,
                          f0_ref=f0_ref, timing=timing)]
    if name == "apriad":
        params = SolverParams(_build_schedule(cfg), beta2=a["beta2"], theta=a["theta"])
        return [apriad_run(problem, params, seed, checkpoints=cps, timing=timing)]
    if name == "msa":
        params = MsaParams(horizon=horizon, alpha=a["alpha"], rho=a["rho"],
                           z_cap=a["z_cap"])
        return [msa_run(problem, params, batches, seed, checkpoints=cps,
                        f0_ref=f0_ref, timing=timing)]
    if name == "csa":
        params = CsaParams(horizon=horizon, gamma=a["gamma"], eta_tol=a["eta_tol"],
                           s=a["s"])
        return list(csa_run(problem, params, batches, seed, checkpoints=cps,
                            f0_ref=f0_ref, timing=timing))
    if name == "pdsg_adp":
        params = PdsgAdpParams(horizon=horizon, alpha=a["alpha"], rho=a["rho"],
                               eta_scale=a["eta_scale"],
                               divergence_cap=a["divergence_cap"])
        return [pdsg_adp_run(problem, params, batches, seed, checkpoints=cps,
                             f0_ref=f0_ref, timing=timing)]
    raise ConfigError([f"algorithm.name: unhandled algorithm {name!r}"])


@dataclass
class ExperimentOutput:
    """Everything run_experiment persisted, plus the in-memory results."""

    out_dir: str
    manifest_path: str
    csv_paths: list = field(default_factory=list)
    results: list = field(default_factory=list)
    f0_ref: float | None = None
    diverged: bool = False


def run_experiment(cfg: ExperimentConfig, out_dir, seeds=None,
                   extra_manifest=None) -> ExperimentOutput:
    """Run every (algorithm, seed) cell of an experiment and persist it."""
    os.makedirs(out_dir, exist_ok=True)
    seeds = [int(s) for s in (seeds if seeds is not None else cfg.run["seeds"])]
    if not seeds:
        raise ConfigError(["run.seeds: need at least one seed"])
    started_at = datetime.datetime.now(datetime.timezone.utc).isoformat()
    t0 = time.perf_counter()
    problem = build_problem(cfg)

    ref_lines = {"reference.mode": cfg.run["reference"]}
    f0_ref = None
    if cfg.run["reference"] == "exact":
        ref = solve_reference(problem, tol=cfg.run["reference_tol"],
                              freeze_samples=cfg.run["freeze_samples"],
                              freeze_seed=cfg.run["freeze_seed"])
        f0_ref = ref.objective
        ref_lines["reference.f0"] = format(f0_ref, ".17g")
        ref_lines["reference.kkt_worst"] = format(ref.residuals.worst, ".3e")
        ref_lines["reference.outer_iterations"] = str(ref.outer_iterations)
        active = int(np.sum(ref.constraint_values >= -cfg.run["reference_tol"]))
        ref_lines["reference.active_constraints"] = str(active)
        ref_lines["reference.z_norm"] = format(float(np.linalg.norm(ref.z)), ".3e")
        ref_lines["reference.min_slack"] = format(-float(np.max(ref.constraint_values)), ".3e")
        if active == 0:
            warnings.warn("no constraint is active at the reference (min slack "
                          f"{ref_lines['reference.min_slack']}); the run is unconstrained",
                          stacklevel=2)
        if not getattr(problem, "deterministic", False):
            ref_lines["reference.frozen_samples"] = str(cfg.run["freeze_samples"])
            ref_lines["reference.freeze_seed"] = str(cfg.run["freeze_seed"])

    timing = cfg.run["timing"]
    run_timing = "algo" if timing == "none" else timing

    cell_results = []  # (RunResult, status)
    diverged = False
    for seed in seeds:
        try:
            for res in _run_cell(problem, cfg, seed, f0_ref, run_timing):
                cell_results.append((res, "ok"))
        except DivergenceError as exc:
            # every lane keeps its completed rows and ends on the failing step
            diverged = True
            for partial in exc.partial_results:
                last_wall = partial.records[-1].wall_s if partial.records else 0.0
                partial.records = partial.records + [CheckpointRecord(
                    iteration=exc.iteration, wall_s=last_wall, flags="diverged")]
                cell_results.append((partial, "diverged"))

    if cfg.run["reference"] == "best_feasible":
        feasible = [
            rec.objective
            for res, status in cell_results
            for rec in res.records
            if np.isfinite(rec.objective) and rec.viol_max <= cfg.run["feasible_tol"]
        ]
        if feasible:
            f0_ref = min(feasible)
            ref_lines["reference.f0"] = format(f0_ref, ".17g")
            ref_lines["reference.source"] = "best_feasible"
            for res, _ in cell_results:
                for rec in res.records:
                    if np.isfinite(rec.objective):
                        rec.obj_err = abs(rec.objective - f0_ref)
        else:
            ref_lines["reference.source"] = "best_feasible_unavailable"

    csv_paths = []
    cell_lines = {}
    for idx, (res, status) in enumerate(cell_results):
        res.config_digest = cfg.digest
        fname = f"{res.algorithm}_seed{res.seed}.csv"
        path = os.path.join(out_dir, fname)
        write_run_csv(path, res.records, zero_wall=(timing == "none"))
        csv_paths.append(path)
        cell_lines[f"cell.{idx}"] = f"{res.algorithm},{res.seed},{fname},{status}"

    total_wall = time.perf_counter() - t0
    manifest = {}
    for key, value in sorted(cfg.resolved.items()):
        manifest[f"config.{key}"] = value
    manifest["config_digest"] = cfg.digest
    manifest["problem_digest"] = problem_digest(cfg)
    manifest["package_version"] = _package_version()
    manifest["numpy_version"] = np.__version__
    manifest["python_version"] = platform.python_version()
    manifest["started_at"] = started_at
    manifest["total_wall_s"] = format(total_wall, ".3f")
    manifest["seeds"] = ",".join(str(s) for s in seeds)
    manifest.update(ref_lines)
    manifest.update(cell_lines)
    if extra_manifest:
        manifest.update({str(k): str(v) for k, v in extra_manifest.items()})
    manifest_path = os.path.join(out_dir, MANIFEST_NAME)
    with open(manifest_path, "w", encoding="utf-8") as fh:
        for key, value in manifest.items():
            fh.write(f"{key}={value}\n")

    return ExperimentOutput(
        out_dir=out_dir, manifest_path=manifest_path, csv_paths=csv_paths,
        results=[res for res, _ in cell_results], f0_ref=f0_ref, diverged=diverged,
    )


def read_manifest(path) -> dict:
    out = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if not line:
                continue
            key, sep, value = line.partition("=")
            if not sep:
                raise ValueError(f"{path}: malformed manifest line {line!r}")
            out[key] = value
    return out


def compare_report(run_dirs, out_path=None):
    """Aggregate final-checkpoint metrics across run directories.

    All directories must describe the same problem instance (same problem
    digest); mixing problems is an error. Returns one row per (directory,
    algorithm): median final metrics over seeds plus median total wall
    seconds. Optionally writes the rows as CSV.
    """
    rows = []
    digests = {}
    sweep_params = set()
    for run_dir in run_dirs:
        manifest = read_manifest(os.path.join(run_dir, MANIFEST_NAME))
        digests[run_dir] = manifest.get("problem_digest", "")
        sweep_params.add(manifest.get("sweep.param"))
        cells = [v for k, v in manifest.items() if k.startswith("cell.")]
        by_algo = {}
        for cell in cells:
            algo, seed, fname, status = cell.split(",")
            by_algo.setdefault(algo, []).append((int(seed), fname, status))
        for algo, entries in sorted(by_algo.items()):
            finals = []
            walls = []
            statuses = set()
            for seed, fname, status in entries:
                statuses.add(status)
                recs = read_run_csv(os.path.join(run_dir, fname))
                if recs:
                    finals.append(recs[-1])
                    walls.append(recs[-1].wall_s)
            row = {
                "dir": run_dir,
                "algorithm": algo,
                "seeds": len(entries),
                "status": "diverged" if "diverged" in statuses else "ok",
                "obj_err": _median_or_nan([r.obj_err for r in finals]),
                "viol_avg": _median_or_nan([r.viol_avg for r in finals]),
                "viol_max": _median_or_nan([r.viol_max for r in finals]),
                "gap": _median_or_nan([r.gap for r in finals]),
                "wall_s": _median_or_nan(walls),
            }
            if "sweep.param" in manifest:
                row["sweep"] = f"{manifest['sweep.param']}={manifest['sweep.value']}"
            rows.append(row)
    # a declared sweep may vary the problem itself; anything else must match
    declared_sweep = len(sweep_params) == 1 and next(iter(sweep_params)) is not None
    if len(set(digests.values())) > 1 and not declared_sweep:
        detail = "; ".join(f"{d}: {h[:12]}" for d, h in digests.items())
        raise ValueError(f"refusing to compare runs over different problems ({detail})")
    if out_path:
        cols = ["dir", "algorithm", "seeds", "status", "sweep",
                "obj_err", "viol_avg", "viol_max", "gap", "wall_s"]
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(",".join(cols) + "\n")
            for row in rows:
                fh.write(",".join(str(row.get(c, "")) for c in cols) + "\n")
    return rows


def _median_or_nan(values):
    values = [v for v in values if v is not None and np.isfinite(v)]
    return float(median(values)) if values else float("nan")


def format_report(rows) -> str:
    """Plain-text table for terminal output."""
    if not rows:
        return "(no runs found)"
    headers = ["algorithm", "seeds", "status", "obj_err", "viol_max", "gap", "wall_s"]
    if any("sweep" in r for r in rows):
        headers.insert(0, "sweep")
    table = [headers]
    for row in rows:
        line = []
        for h in headers:
            v = row.get(h, "")
            line.append(f"{v:.4g}" if isinstance(v, float) else str(v))
        table.append(line)
    widths = [max(len(r[i]) for r in table) for i in range(len(headers))]
    lines = []
    for i, r in enumerate(table):
        lines.append("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip())
        if i == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)


def sweep(cfg: ExperimentConfig, param, values, out_root, seeds=None):
    """Run the experiment once per override value of ``section.key``.

    Each value gets its own subdirectory under ``out_root``; a summary CSV
    and the report rows aggregate the final metrics.
    """
    if not values:
        raise ConfigError(["sweep needs at least one value"])
    os.makedirs(out_root, exist_ok=True)
    outputs = []
    for value in values:
        sub_cfg = cfg.with_override(param, value)
        sub_dir = os.path.join(out_root, f"{param.replace('.', '-')}_{value}")
        out = run_experiment(sub_cfg, sub_dir, seeds=seeds,
                             extra_manifest={"sweep.param": param, "sweep.value": value})
        outputs.append(out)
    rows = compare_report([o.out_dir for o in outputs],
                          out_path=os.path.join(out_root, "summary.csv"))
    return outputs, rows
