"""Benchmark command line.

    aprid-bench run    --config exp.ini --out runs/exp1 [--seeds 1,2,3]
    aprid-bench report --in runs/exp1 runs/exp2 [--out summary.csv]
    aprid-bench sweep  --config exp.ini --param algorithm.theta \
                       --values 1,10,100 --out runs/theta [--seeds 1,2]

Exit codes: 0 success, 1 reference solver failure, 2 configuration error or
an unusable path or run set (one ``error:`` line), 3 solver divergence.
"""

import argparse
import sys

from .errors import ConfigError, ReferenceError
from .config import _int_list, parse_config
from .harness import compare_report, format_report, run_experiment, sweep

__all__ = ["main"]


def _error(message) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def _diverged_exit(diverged) -> int:
    if diverged:
        print("at least one cell diverged; partial trajectories were kept", file=sys.stderr)
        return 3
    return 0


def _parse_seeds(text):
    if text is None:
        return None
    try:
        return _int_list(text)
    except ValueError as exc:
        raise ConfigError([f"--seeds: {exc}"]) from None


def _cmd_run(args) -> int:
    cfg = parse_config(args.config)
    out = run_experiment(cfg, args.out, seeds=_parse_seeds(args.seeds))
    print(f"wrote {len(out.csv_paths)} trajectory file(s) and {out.manifest_path}")
    if out.f0_ref is not None:
        print(f"reference objective: {out.f0_ref:.12g}")
    return _diverged_exit(out.diverged)


def _cmd_report(args) -> int:
    try:
        rows = compare_report(args.run_dirs, out_path=args.out)
    except ValueError as exc:  # runs over different problems, or a malformed run file
        return _error(exc)
    print(format_report(rows))
    if args.out:
        print(f"\nwrote {args.out}")
    return 0


def _cmd_sweep(args) -> int:
    cfg = parse_config(args.config)
    values = [v.strip() for v in args.values.split(",") if v.strip()]
    if not values:
        raise ConfigError([f"--values: expected a comma-separated list, got {args.values!r}"])
    outputs, rows = sweep(cfg, args.param, values, args.out, seeds=_parse_seeds(args.seeds))
    print(format_report(rows))
    return _diverged_exit(any(o.diverged for o in outputs))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="aprid-bench",
        description="Benchmark harness for stochastic constrained optimization solvers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one experiment config")
    p_run.add_argument("--config", required=True, help="INI experiment description")
    p_run.add_argument("--out", required=True, help="output directory")
    p_run.add_argument("--seeds", default=None,
                       help="comma-separated seed list overriding the config")
    p_run.set_defaults(fn=_cmd_run)

    p_rep = sub.add_parser("report", help="aggregate finished run directories")
    p_rep.add_argument("--in", dest="run_dirs", nargs="+", required=True,
                       help="run directories to compare")
    p_rep.add_argument("--out", default=None, help="also write the rows as CSV")
    p_rep.set_defaults(fn=_cmd_report)

    p_sw = sub.add_parser("sweep", help="run one config across parameter values")
    p_sw.add_argument("--config", required=True)
    p_sw.add_argument("--param", required=True, help="override target, e.g. algorithm.theta")
    p_sw.add_argument("--values", required=True, help="comma-separated values")
    p_sw.add_argument("--out", required=True, help="root output directory")
    p_sw.add_argument("--seeds", default=None)
    p_sw.set_defaults(fn=_cmd_sweep)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print("configuration error:", file=sys.stderr)
        print(exc.itemized(), file=sys.stderr)
        return 2
    except ReferenceError as exc:
        print(f"reference solver failed: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:  # a run directory without a manifest, or an --out naming a file
        return _error(exc)


if __name__ == "__main__":
    sys.exit(main())
