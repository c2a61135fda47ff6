"""Outside-in benchmark of the aprid experiment harness.

    python3 bench/run.py --workload methods_mix --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 40   # each in turn

Run from the root of a checkout. One workload (``bench/workloads.py``) is a
fixed list of experiment configs. A repetition runs each of them once through
``aprid.harness.run_experiment``, one after another, in this one process: a
closed loop in which a cell starts only when the previous one has finished.
No repetition starts that would be expected to end after ``--seconds``
(but at least three run). BLAS and OpenMP threads are capped at the number
of usable CPUs. ``--workload all`` runs each workload in its own process.

``--trace 0`` reports the end-to-end metrics, measured with tracing off, as
medians over repetitions:

    run_wall_s       wall time of one repetition: builds, references, every
                     cell, checkpoint evaluations, CSV and manifest writes
    setup_s          the part of it spent in build_problem and
                     solve_reference (which includes the freeze)
    steps_per_s      solver steps over the cells' summed final ``wall_s``
                     under ``timing = algo``
    cpu_s            user plus system CPU seconds of the process
    peak_rss_mb      peak resident set of the process (over the whole run)
    cell_pass_ratio  cells that passed every check over cells attempted; the
                     summary also prints its complement, cell_fail_ratio

``--trace 1`` alternates untraced repetitions with traced ones, in which
``bench/layers.py`` wraps aprid's public names (at least two of each), and
reports the per-layer metrics (medians over traced repetitions) and the
tracing overhead. Counts marked "computed" repeat exactly for a seed.

Every cell is checked (see ``workloads.py``): a failing cell is counted, not
fatal. The run is ``correct`` when no cell failed, every repetition's
checkpoint records equal the first one's in every CSV column but ``wall_s``
(traced or not), every wrapped name was restored, and the cells' iteration
time fits in the repetition's wall time minus set-up.

Output: a readable summary, then as the last line one JSON object with keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Details (environment,
seed, per-repetition values, failures) go to
``.bench_out/<workload>/result-seed<seed>-trace<t>.json`` and the spans of
each traced repetition to ``spans-seed<seed>-rep<i>.npz`` beside it.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import subprocess
import sys
import time
from dataclasses import dataclass, field
from statistics import median

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, ".bench_out")
MIN_REPS = 3
MIN_TRACED_REPS = 2
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
LOAD_NOTE = ("closed loop from one process, one workload repetition at a time, "
             "at most nproc BLAS/OpenMP threads")

END_TO_END = {
    "run_wall_s": "s",
    "setup_s": "s",
    "steps_per_s": "steps/s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "cell_pass_ratio": "ratio",
}


class MissingPackage(RuntimeError):
    pass


def cap_threads():
    """Cap BLAS/OpenMP threads at the usable CPU count; call before numpy
    is imported. Returns that count."""
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        try:
            wanted = int(os.environ.get(var, nproc))
        except ValueError:
            wanted = nproc
        os.environ[var] = str(max(1, min(wanted, nproc)))
    return nproc


def load_package(root=ROOT):
    """Make the checkout's ``src/aprid`` importable, and only that copy."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "aprid", "__init__.py")):
        raise MissingPackage(f"no aprid package under {src}")
    if src not in sys.path:
        sys.path.insert(0, src)
    import aprid

    if os.path.dirname(os.path.dirname(os.path.abspath(aprid.__file__))) != src:
        raise MissingPackage(f"aprid was imported from {aprid.__file__}, not {src}")
    return aprid


@dataclass
class Cell:
    """One (experiment, solver seed) execution inside a repetition."""

    experiment: str
    algorithm: str
    steps: int = 0
    iter_s: float = 0.0
    failures: list = field(default_factory=list)


@dataclass
class Rep:
    wall_s: float
    cpu_s: float
    setup_s: float
    cells: list
    records: list  # checkpoint CSV rows without wall_s, per trajectory


def _check_experiment(harness, exp, cfg, out):
    """Cells of one finished experiment, with any failed checks."""
    manifest = harness.read_manifest(out.manifest_path)
    ref_fail = None
    if cfg.run["reference"] == "exact":
        kkt = float(manifest["reference.kkt_worst"])
        if not kkt <= cfg.run["reference_tol"]:
            ref_fail = f"reference KKT residual {kkt:.3e} above {cfg.run['reference_tol']:g}"
    cells = {}
    for res in out.results:
        cell = cells.setdefault(res.seed, Cell(exp.label, cfg.algorithm_name))
        if ref_fail and ref_fail not in cell.failures:
            cell.failures.append(ref_fail)
        if not res.records or "diverged" in res.records[-1].flags:
            cell.failures.append(f"{res.algorithm} diverged")
            continue
        final = res.records[-1]
        cell.steps = max(cell.steps, final.iteration)
        cell.iter_s = max(cell.iter_s, final.wall_s)
        for column, limit in exp.targets.items():
            value = getattr(final, column)
            if not value <= limit:
                cell.failures.append(f"{res.algorithm} final {column}={value:.3g} above {limit:g}")
    return list(cells.values())


def run_rep(workload, cfgs, out_root, tracer, install):
    """One repetition of every experiment, with ``install(tracer)`` active."""
    import aprid.harness as harness
    from aprid.errors import ReferenceError

    cells, records = [], []
    cpu0 = resource.getrusage(resource.RUSAGE_SELF)
    t0 = time.perf_counter()
    with tracer:
        install(tracer)
        for exp, cfg in zip(workload.experiments, cfgs):
            out_dir = os.path.join(out_root, exp.label.replace("/", "-"))
            try:
                out = harness.run_experiment(cfg, out_dir)
            except ReferenceError as exc:
                cells.append(Cell(exp.label, cfg.algorithm_name, failures=[str(exc)]))
                continue
            cells.extend(_check_experiment(harness, exp, cfg, out))
            for res in out.results:
                rows = tuple(rec.csv_values(zero_wall=True) for rec in res.records)
                records.append((exp.label, res.algorithm, res.seed, rows))
    wall = time.perf_counter() - t0
    cpu1 = resource.getrusage(resource.RUSAGE_SELF)
    cpu = (cpu1.ru_utime - cpu0.ru_utime) + (cpu1.ru_stime - cpu0.ru_stime)
    table = tracer.table()
    setup = table.total_s("problems.build_problem") + table.total_s("reference.solve_reference")
    return Rep(wall, cpu, setup, cells, records)


def environment(nproc):
    import numpy as np
    import scipy

    src = os.path.join(ROOT, "src", "aprid")
    digest = hashlib.sha256()
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return {
        "git_revision": _git_revision(ROOT),
        "source_sha256": digest.hexdigest(),
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        **{var.lower(): os.environ[var] for var in THREAD_VARS},
        "load": LOAD_NOTE,
    }


def _git_revision(root):
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.isfile(os.path.join(git, ref)):
            with open(os.path.join(git, ref), encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def run_workload(name, seed, seconds, trace, nproc):
    """Run one workload; returns (result line, details)."""
    from aprid.config import resolve_config

    from layers import (COMPUTED, PER_LAYER, RUN_SPANS, install_layer_spans,
                        install_setup_spans, layer_metrics)
    from spans import Tracer
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    cfgs = [resolve_config(exp.raw_config(seed)) for exp in workload.experiments]
    out_root = os.path.join(OUT_DIR, name)
    os.makedirs(out_root, exist_ok=True)

    plain, traced, tracers = [], [], []
    restored = True
    start = time.perf_counter()
    while True:
        setup_tracer = Tracer()
        plain.append(run_rep(workload, cfgs, out_root, setup_tracer, install_setup_spans))
        restored = restored and not setup_tracer.unrestored()
        if trace:
            tracer = Tracer()
            traced.append(run_rep(workload, cfgs, out_root, tracer, install_layer_spans))
            tracers.append(tracer)
            restored = restored and not tracer.unrestored()
        elapsed = time.perf_counter() - start
        enough = len(traced) >= MIN_TRACED_REPS if trace else len(plain) >= MIN_REPS
        if enough and elapsed * (len(plain) + 1) / len(plain) > seconds:
            break

    reps = plain + traced
    cells = [c for rep in reps for c in rep.cells]
    failed = [c for c in cells if c.failures]
    replay_ok = all(rep.records == plain[0].records for rep in reps)
    fits = all(sum(c.iter_s for c in rep.cells) <= rep.wall_s - rep.setup_s for rep in reps)
    correct = not failed and replay_ok and restored and fits

    if trace:
        per_rep = [layer_metrics(t.table(), t.counts, rep.wall_s)
                   for t, rep in zip(tracers, traced)]
        values = {key: median(m[key] for m in per_rep) for key in per_rep[0]}
        for attr, span in RUN_SPANS:
            mine = [c for rep in plain for c in rep.cells if c.algorithm + "_run" == attr]
            steps = sum(c.steps for c in mine)
            values[span + ".us_per_step"] = (
                1e6 * sum(c.iter_s for c in mine) / steps if steps else 0.0)
        values["trace.overhead_ratio"] = (median(r.wall_s for r in traced)
                                          / median(r.wall_s for r in plain) - 1.0)
        units = PER_LAYER
        for i, tracer in enumerate(tracers):
            tracer.save(os.path.join(out_root, f"spans-seed{seed}-rep{i}.npz"))
    else:
        steps = [sum(c.steps for c in rep.cells) for rep in plain]
        iter_s = [sum(c.iter_s for c in rep.cells) for rep in plain]
        values = {
            "run_wall_s": median(r.wall_s for r in plain),
            "setup_s": median(r.setup_s for r in plain),
            "steps_per_s": median(s / t for s, t in zip(steps, iter_s)),
            "cpu_s": median(r.cpu_s for r in plain),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
            "cell_pass_ratio": 1.0 - len(failed) / len(cells),
        }
        units = END_TO_END
    result = {
        "correct": correct,
        "attempted": len(cells),
        "failed": len(failed),
        "metrics": {k: {"value": float(values[k]), "unit": u} for k, u in units.items()},
    }
    details = {
        "workload": name,
        "why": workload.why,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "environment": environment(nproc),
        "repetitions": {"untraced": len(plain), "traced": len(traced)},
        "untraced_wall_s": [r.wall_s for r in plain],
        "untraced_setup_s": [r.setup_s for r in plain],
        "traced_wall_s": [r.wall_s for r in traced],
        "checks": {"cells_pass": not failed, "records_replay": replay_ok,
                   "names_restored": restored, "iteration_fits_wall": fits},
        "computed": sorted(COMPUTED) if trace else [],
        "cell_fail_ratio": len(failed) / len(cells),
        "failures": [f"{c.experiment}: {msg}" for c in failed for msg in c.failures],
        **result,
    }
    with open(os.path.join(out_root, f"result-seed{seed}-trace{trace}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(details, fh, indent=1)
    return result, details


def _print_summary(details):
    print(f"workload {details['workload']}  seed {details['seed']}  trace {details['trace']}  "
          f"repetitions {details['repetitions']}")
    for key, value in details["environment"].items():
        print(f"  env.{key} = {value}")
    for key, metric in details["metrics"].items():
        label = "  (computed)" if key in details["computed"] else ""
        print(f"  {key} = {metric['value']:.6g} {metric['unit']}{label}")
    print(f"  cell_fail_ratio = {details['cell_fail_ratio']:.6g} ratio "
          f"({details['failed']}/{details['attempted']} cells)")
    for key, ok in details["checks"].items():
        print(f"  check.{key} = {'pass' if ok else 'FAIL'}")
    for failure in details["failures"]:
        print(f"  failed: {failure}")


def main(argv=None):
    from workloads import WORKLOADS

    names = tuple(WORKLOADS)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=names + ("all",))
    parser.add_argument("--seed", type=int, required=True,
                        help="solver master seed of every cell (non-negative)")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    if args.workload == "all":
        # one process per workload, so each reports its own peak RSS
        for name in names:
            subprocess.run([sys.executable, os.path.abspath(__file__), "--workload", name,
                            "--seed", str(args.seed), "--seconds", str(args.seconds),
                            "--trace", str(args.trace)], check=True)
        return 0
    nproc = cap_threads()
    try:
        load_package()
    except MissingPackage as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    result, details = run_workload(args.workload, args.seed, args.seconds, args.trace, nproc)
    _print_summary(details)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
