"""Experiment coordination over configs: build, run, persist, compare.

One experiment is a validated config plus a seed list. The harness builds
the problem once (instances are immutable), resolves the reference target,
runs every (algorithm, seed) cell, writing its trajectory CSVs as it ends,
then a single ``manifest.txt`` with every resolved config value, library
versions, the reference provenance and active set, timestamps, and a
per-cell status table. A trajectory depends only on the config and its seed
and holds no timestamps, so identical configs and seeds reproduce identical
bytes (exactly in ``timing = none`` mode, outside the wall_s column otherwise).
"""

import datetime
import hashlib
import math
import numbers
import os
import platform
import time
import warnings
from dataclasses import dataclass, field
from statistics import median

import numpy as np

from .baselines import CsaParams, MsaParams, PdsgAdpParams, csa_run, msa_run, pdsg_adp_run
from .config import ConfigError, ExperimentConfig, config_digest
from .errors import DivergenceError
from .kernels import serial_matmul
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


def _npc(dataset, **keys):
    # both NPC kinds: the dataset, prepared unless preprocess is off, at the keys' level
    return make_npc(preprocess(dataset) if keys.pop("preprocess") else dataset, **keys)


# kind -> factory taking the [problem] keys by name, instance_seed as seed
_PROBLEM_FACTORIES = {
    "npc": lambda data, format, **rest: _npc(load_dataset(data, fmt=format), **rest),
    "npc_synthetic": lambda d, n_pos, n_neg, separation, seed, **rest: _npc(
        make_synthetic_dataset(d, n_pos, n_neg, seed=seed, separation=separation), **rest),
    "qcqp_expectation": make_qcqp_expectation,
    "qcqp_finite_sum": make_qcqp_finite_sum,
    "bilinear": make_bilinear_saddle,
}


def _as_config_error(where, build, *args, **keys):
    """``build(*args, **keys)``, raising its ValueError or OSError as a ConfigError."""
    try:
        return build(*args, **keys)
    except (ValueError, OSError) as exc:
        raise ConfigError([f"{where}: {exc}"]) from exc


def build_problem(cfg: ExperimentConfig):
    """Instantiate the problem described by the config's [problem] section,
    checked against its kind's keys first."""
    cfg.check_keys(("problem",))
    keys = dict(cfg.problem)
    kind = keys.pop("kind")
    if "instance_seed" in keys:
        keys["seed"] = keys.pop("instance_seed")
    return _as_config_error(f"problem.{kind}", _PROBLEM_FACTORIES[kind], **keys)


def problem_digest(cfg: ExperimentConfig) -> str:
    """Digest of the [problem] section, and for ``npc`` of the data file's bytes;
    runs over the same instance share it regardless of algorithm or run settings."""
    lines = {k: v for k, v in cfg.resolved.items() if k.startswith("problem.")}
    if cfg.problem["kind"] == "npc":
        with open(cfg.problem["data"], "rb") as fh:
            lines["problem.data_sha256"] = hashlib.sha256(fh.read()).hexdigest()
    return config_digest(lines)


def _adaptive_params(horizon, schedule, alpha, rho, beta1, **keys):
    if schedule not in StepSchedule.CLOSED_FORMS:
        raise ConfigError([f"algorithm.schedule: {schedule!r} names no StepSchedule constructor"])
    return SolverParams(getattr(StepSchedule, schedule)(alpha, rho, horizon, beta1), **keys)


# [algorithm] name -> (its params, called with the horizon and the other keys by name;
# its run loop's name, a module global looked up on every call)
_ALGORITHMS = {"aprid": (_adaptive_params, "aprid_run"), "msa": (MsaParams, "msa_run"),
               "apriad": (_adaptive_params, "apriad_run"), "csa": (CsaParams, "csa_run"),
               "pdsg_adp": (PdsgAdpParams, "pdsg_adp_run")}


def _plan(cfg):
    """(run loop name, params, batch sizes, checkpoint list) of every cell of
    ``cfg``, built before any work, so that a bad value fails as a ConfigError."""
    name, run = cfg.algorithm_name, cfg.run
    build, loop = _ALGORITHMS[name]
    params = _as_config_error(f"algorithm.{name}", build, run["horizon"],
                              **{k: v for k, v in cfg.algorithm.items() if k != "name"})
    batches = _as_config_error("run", BatchSizes, j0=run["j0"], j1=run["j1"], jg=run["jg"])
    cps = run["checkpoints"]  # check_keys has held an explicit list to [1, horizon]
    if len(cps) == 1:  # a count; the params have checked the horizon
        cps = log_spaced_checkpoints(run["horizon"], count=cps[0])
    return loop, params, batches, cps


def _run_cell(problem, plan, seed, f0_ref, timing):
    """One (algorithm, seed) execution; returns a list of RunResults (the
    switching baseline yields two trajectories)."""
    loop, params, batches, cps = plan
    if loop == "apriad_run":  # the saddle loop takes no batches and no reference
        return [apriad_run(problem, params, seed, checkpoints=cps, timing=timing)]
    out = globals()[loop](problem, params, batches, seed,
                          checkpoints=cps, f0_ref=f0_ref, timing=timing)
    return list(out) if isinstance(out, tuple) else [out]


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
    seeds = list(seeds if seeds is not None else cfg.run["seeds"])
    bad = [s for s in seeds if isinstance(s, bool) or not isinstance(s, numbers.Integral) or s < 0]
    if bad:
        raise ConfigError([f"run.seeds: expected a non-negative integer, got {s!r}" for s in bad])
    seeds = [int(s) for s in seeds]
    if not seeds:
        raise ConfigError(["run.seeds: need at least one seed"])
    if len(set(seeds)) < len(seeds):
        raise ConfigError([f"run.seeds: repeated seed in {seeds}; "
                           "each seed writes one trajectory file"])
    cfg.check_keys()
    plan = _plan(cfg)
    os.makedirs(out_dir, exist_ok=True)
    started_at = datetime.datetime.now(datetime.timezone.utc).isoformat()
    t0 = time.perf_counter()
    problem = build_problem(cfg)
    t_built = time.perf_counter()
    digest = problem_digest(cfg)  # of the data just read, not as it is at the end

    ref_lines = {"reference.mode": cfg.run["reference"]}
    f0_ref = None
    if cfg.run["reference"] == "exact":
        ref = solve_reference(problem, tol=cfg.run["reference_tol"],
                              freeze_samples=cfg.run["freeze_samples"],
                              freeze_seed=cfg.run["freeze_seed"])
        f0_ref = ref.objective
        ref_lines["reference.f0"] = format(f0_ref, ".17g")
        ref_lines["reference.start_gap"] = format(ref.start_objective - f0_ref, ".3e")
        ref_lines["reference.kkt_worst"] = format(ref.residuals.worst, ".3e")
        ref_lines["reference.outer_iterations"] = str(ref.outer_iterations)
        active = int(np.sum(ref.constraint_values >= -cfg.run["reference_tol"]))
        ref_lines["reference.active_constraints"] = str(active)
        ref_lines["reference.z_norm"] = format(math.sqrt(serial_matmul(ref.z, ref.z)), ".3e")
        ref_lines["reference.min_slack"] = format(-float(np.max(ref.constraint_values)), ".3e")
        if active == 0:
            warnings.warn("no constraint is active at the reference (min slack "
                          f"{ref_lines['reference.min_slack']}); the run is unconstrained",
                          stacklevel=2)
        if not getattr(problem, "deterministic", False):
            ref_lines["reference.frozen_samples"] = str(cfg.run["freeze_samples"])
            ref_lines["reference.freeze_seed"] = str(cfg.run["freeze_seed"])
        del ref  # its O(M) arrays are not held while the cells run; f0_ref is all they read
    t_referenced = time.perf_counter()

    timing = cfg.run["timing"]
    run_timing = "algo" if timing == "none" else timing

    # each cell's trajectories are on disk before the next seed starts
    csv_paths, cell_lines, results = [], {}, []
    diverged = False
    for seed in seeds:
        try:
            cell = [(res, "ok") for res in _run_cell(problem, plan, seed, f0_ref, run_timing)]
        except DivergenceError as exc:
            # every lane keeps its completed rows and ends on the failing step
            diverged, cell = True, []
            for partial in exc.partial_results:
                last_wall = partial.records[-1].wall_s if partial.records else 0.0
                partial.records = partial.records + [CheckpointRecord(
                    iteration=exc.iteration, wall_s=last_wall, flags="diverged")]
                cell.append((partial, "diverged"))
        for res, status in cell:
            fname = f"{res.algorithm}_seed{res.seed}.csv"
            path = os.path.join(out_dir, fname)
            write_run_csv(path, res.records, zero_wall=(timing == "none"))
            csv_paths.append(path)
            cell_lines[f"cell.{len(results)}"] = f"{res.algorithm},{res.seed},{fname},{status}"
            results.append(res)

    total_wall = time.perf_counter() - t0
    manifest = {}
    for key, value in sorted(cfg.resolved.items()):
        manifest[f"config.{key}"] = value
    manifest["config_digest"] = cfg.digest
    manifest["problem_digest"] = digest
    manifest["package_version"] = _package_version()
    manifest["numpy_version"] = np.__version__
    manifest["python_version"] = platform.python_version()
    manifest["started_at"] = started_at
    manifest["total_wall_s"] = format(total_wall, ".3f")
    manifest["setup.build_s"] = format(t_built - t0, ".3f")
    manifest["setup.reference_s"] = format(t_referenced - t_built, ".3f")
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
        results=results, f0_ref=f0_ref, diverged=diverged,
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
            runs = [read_run_csv(os.path.join(run_dir, fname)) for _, fname, _ in entries]
            finals = [recs[-1] for recs in runs if recs]
            row = {
                "dir": run_dir,
                "algorithm": algo,
                "seeds": len(entries),
                "status": "diverged" if any(s == "diverged" for *_, s in entries) else "ok",
                **{metric: _median_or_nan([getattr(r, metric) for r in finals])
                   for metric in ("obj_err", "viol_avg", "viol_max", "gap", "wall_s")},
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

    Each value gets its own subdirectory directly under ``out_root``, named
    ``<section>-<key>_<value>`` with every path separator of the value read as
    ``-``; a summary CSV and the report rows aggregate the final metrics.
    """
    if not values:
        raise ConfigError(["sweep needs at least one value"])
    if len({str(v) for v in values}) < len(values):
        raise ConfigError([f"sweep: repeated value in {list(values)}; "
                           "each value writes one run directory"])
    run_dirs = {}
    for value in values:
        name = f"{param.replace('.', '-')}_{value}"
        for sep in filter(None, (os.sep, os.altsep)):
            name = name.replace(sep, "-")
        if name in run_dirs:
            raise ConfigError([f"sweep: values {run_dirs[name]!r} and {value!r} would "
                               f"share the run directory {name!r}"])
        run_dirs[name] = value
    os.makedirs(out_root, exist_ok=True)
    outputs = []
    for name, value in run_dirs.items():
        sub_cfg = cfg.with_override(param, value)
        sub_dir = os.path.join(out_root, name)
        out = run_experiment(sub_cfg, sub_dir, seeds=seeds,
                             extra_manifest={"sweep.param": param, "sweep.value": value})
        outputs.append(out)
    rows = compare_report([o.out_dir for o in outputs],
                          out_path=os.path.join(out_root, "summary.csv"))
    return outputs, rows
