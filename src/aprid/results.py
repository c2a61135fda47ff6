"""Run trajectories and their on-disk CSV form.

One solver run produces a sequence of checkpoint records; the CSV schema is

    iter,wall_s,obj_err,viol_avg,viol_max,gap,flags

with floats printed at 17 significant digits (round-trip exact for float64)
and empty-string flags. Wall seconds are the only nondeterministic column;
writers can zero it out for byte-identical replays, and all timestamps live
in the run manifest, never in trajectory files.
"""

from dataclasses import dataclass, field

import numpy as np

from .schedules import _check_count

__all__ = [
    "CSV_COLUMNS",
    "CheckpointRecord",
    "RunResult",
    "log_spaced_checkpoints",
    "write_run_csv",
    "read_run_csv",
]

CSV_COLUMNS = ("iter", "wall_s", "obj_err", "viol_avg", "viol_max", "gap", "flags")

NAN = float("nan")


@dataclass
class CheckpointRecord:
    """Metrics of the averaged iterate at one checkpoint, its fields up to
    ``flags`` in the CSV's column order.

    ``objective`` is the raw objective value, kept in memory only; it is
    not part of the CSV schema.
    """

    iteration: int
    wall_s: float = 0.0
    obj_err: float = NAN
    viol_avg: float = NAN
    viol_max: float = NAN
    gap: float = NAN
    flags: str = ""
    objective: float = NAN

    def csv_values(self, zero_wall=False):
        wall = 0.0 if zero_wall else self.wall_s
        return (
            str(int(self.iteration)),
            _fmt(wall),
            _fmt(self.obj_err),
            _fmt(self.viol_avg),
            _fmt(self.viol_max),
            _fmt(self.gap),
            self.flags,
        )


@dataclass
class RunResult:
    """Everything one (algorithm, seed) run hands back to the harness."""

    algorithm: str
    seed: int
    records: list = field(default_factory=list)
    x_bar: np.ndarray | None = None
    z_bar: np.ndarray | None = None
    wall_total: float = 0.0

    def final_record(self) -> CheckpointRecord:
        if not self.records:
            raise ValueError("run produced no checkpoint records")
        return self.records[-1]


def log_spaced_checkpoints(horizon, count=50):
    """About ``count`` geometrically spaced iteration indices ending at
    ``horizon`` (always included), deduplicated and sorted."""
    horizon = _check_count("horizon", horizon)
    count = max(1, int(count))
    raw = np.unique(np.round(np.geomspace(1, horizon, num=min(count, horizon))).astype(int))
    raw[-1] = horizon
    return [int(v) for v in np.unique(raw)]


def _resolve_checkpoints(checkpoints, horizon):
    """Sorted distinct explicit checkpoints, each in [1, horizon]; None gives the default."""
    if checkpoints is None:
        return log_spaced_checkpoints(horizon)
    cps = sorted(set(int(c) for c in checkpoints))
    if not cps:
        raise ValueError("checkpoint list is empty")
    if cps[0] < 1 or cps[-1] > horizon:
        raise ValueError(f"checkpoints must lie in [1, {horizon}], got {cps[0]}..{cps[-1]}")
    return cps


def _fmt(x) -> str:
    return format(float(x), ".17g")


def write_run_csv(path, records, zero_wall=False):
    """Write checkpoint records; enforces the trajectory monotonicity
    invariants and the flags column being comma-free."""
    its = [r.iteration for r in records]
    if any(b <= a for a, b in zip(its, its[1:])):
        raise ValueError(f"checkpoint iterations not strictly increasing: {its}")
    lines = [",".join(CSV_COLUMNS)]
    for rec in records:
        if "," in rec.flags or "\n" in rec.flags:
            raise ValueError(f"flags value {rec.flags!r} would corrupt the CSV")
        lines.append(",".join(rec.csv_values(zero_wall=zero_wall)))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def read_run_csv(path):
    """Read a trajectory written by write_run_csv; values round-trip exactly."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.rstrip("\n") for ln in fh if ln.strip()]
    if not lines or lines[0] != ",".join(CSV_COLUMNS):
        raise ValueError(f"{path}: missing or wrong header line")
    records = []
    for lineno, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        if len(parts) != len(CSV_COLUMNS):
            raise ValueError(f"{path}:{lineno}: expected {len(CSV_COLUMNS)} fields")
        records.append(CheckpointRecord(int(parts[0]), *map(float, parts[1:6]), parts[6]))
    return records
