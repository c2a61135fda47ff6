"""Trajectory CSVs, config parsing and digests, and the experiment harness."""

import glob
import math
import os

import numpy as np
import pytest

from aprid import (
    CheckpointRecord,
    ConfigError,
    RunResult,
    compare_report,
    format_report,
    log_spaced_checkpoints,
    parse_config,
    read_manifest,
    read_run_csv,
    resolve_config,
    run_experiment,
    sweep,
    write_run_csv,
)
from aprid.config import _ALGORITHM_KEYS, _PROBLEM_KEYS, _RUN_KEYS, _Number
from aprid.harness import build_problem, problem_digest

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")


# ---------------------------------------------------------------------------
# checkpoint records and CSV round-trips


def test_record_defaults():
    rec = CheckpointRecord(iteration=7)
    assert rec.wall_s == 0.0
    assert math.isnan(rec.obj_err) and math.isnan(rec.viol_max)
    assert math.isnan(rec.gap) and math.isnan(rec.objective)
    assert rec.flags == ""


def test_log_spaced_checkpoints():
    cps = log_spaced_checkpoints(100000, count=50)
    assert cps[0] == 1 and cps[-1] == 100000
    assert all(b > a for a, b in zip(cps, cps[1:]))
    assert len(cps) <= 50
    assert log_spaced_checkpoints(1) == [1]
    # never more points than iterations, and always anchored at the horizon
    small = log_spaced_checkpoints(5, count=50)
    assert small[0] == 1 and small[-1] == 5 and len(small) <= 5
    with pytest.raises(ValueError, match="horizon"):
        log_spaced_checkpoints(0)


def test_csv_round_trip_exact(tmp_path):
    records = [
        CheckpointRecord(1, wall_s=0.125, obj_err=1.0 / 3.0, viol_avg=1e-17,
                         viol_max=2.0 / 7.0, gap=float("nan")),
        CheckpointRecord(10, wall_s=0.25, obj_err=float("inf"),
                         viol_avg=-0.0, viol_max=0.0, gap=-1e-300),
        CheckpointRecord(400, wall_s=1.5, flags="diverged"),
    ]
    path = tmp_path / "run.csv"
    write_run_csv(path, records)
    back = read_run_csv(path)
    assert len(back) == 3
    for orig, rt in zip(records, back):
        assert rt.iteration == orig.iteration
        assert rt.wall_s == orig.wall_s
        for name in ("obj_err", "viol_avg", "viol_max", "gap"):
            a, b = getattr(orig, name), getattr(rt, name)
            assert (math.isnan(a) and math.isnan(b)) or a == b
        assert rt.flags == orig.flags


def test_csv_zero_wall_gives_identical_bytes(tmp_path):
    recs_a = [CheckpointRecord(1, wall_s=0.123, obj_err=0.5)]
    recs_b = [CheckpointRecord(1, wall_s=9.876, obj_err=0.5)]
    pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
    write_run_csv(pa, recs_a, zero_wall=True)
    write_run_csv(pb, recs_b, zero_wall=True)
    assert pa.read_bytes() == pb.read_bytes()


def test_csv_writer_rejects_bad_trajectories(tmp_path):
    path = tmp_path / "bad.csv"
    with pytest.raises(ValueError, match="strictly increasing"):
        write_run_csv(path, [CheckpointRecord(5), CheckpointRecord(5)])
    with pytest.raises(ValueError, match="corrupt"):
        write_run_csv(path, [CheckpointRecord(1, flags="a,b")])


def test_csv_reader_rejects_malformed_files(tmp_path):
    path = tmp_path / "nohdr.csv"
    path.write_text("not,a,header\n1,2,3\n")
    with pytest.raises(ValueError, match="header"):
        read_run_csv(path)
    path2 = tmp_path / "short.csv"
    path2.write_text("iter,wall_s,obj_err,viol_avg,viol_max,gap,flags\n1,0,0\n")
    with pytest.raises(ValueError, match=":2"):
        read_run_csv(path2)


def test_final_record_of_an_empty_run_raises():
    with pytest.raises(ValueError, match="no checkpoint"):
        RunResult(algorithm="x", seed=0).final_record()


# ---------------------------------------------------------------------------
# config resolution


def qcqp_raw(**run_extra):
    raw = {
        "problem": {"kind": "qcqp_finite_sum", "n": "4", "p": "2",
                    "num_objective_terms": "12", "num_constraints": "6",
                    "instance_seed": "1"},
        "algorithm": {"name": "aprid"},
        "run": {"horizon": "30", "checkpoints": "10 30", "seeds": "1 2",
                "timing": "none"},
    }
    raw["run"].update({k: str(v) for k, v in run_extra.items()})
    return raw


def test_defaults_fill_in():
    cfg = resolve_config(qcqp_raw())
    assert cfg.algorithm["beta1"] == 0.9
    assert cfg.algorithm["schedule"] == "constant"
    assert cfg.run["j0"] == 10 and cfg.run["jg"] == 100
    assert cfg.run["reference"] == "exact"  # constrained problems default to exact
    assert cfg.run["seeds"] == [1, 2]
    assert len(cfg.digest) == 64
    assert cfg.resolved["algorithm.alpha"] == "10.0"


def test_shipped_configs_parse():
    for name in ("qcqp_expectation", "qcqp_finite_sum", "npc_synthetic",
                 "bilinear_saddle"):
        cfg = parse_config(os.path.join(CONFIG_DIR, name + ".ini"))
        assert cfg.run["horizon"] >= 1
        assert len(cfg.digest) == 64


def test_error_collection_is_all_at_once():
    raw = qcqp_raw()
    raw["problem"]["n"] = "zero"          # bad int
    raw["problem"]["mystery"] = "1"       # unknown key
    del raw["problem"]["p"]               # missing required
    raw["run"]["timing"] = "sometimes"    # bad enum
    with pytest.raises(ConfigError) as info:
        resolve_config(raw)
    msgs = info.value.problems
    assert len(msgs) >= 4
    assert any("problem.n" in m for m in msgs)
    assert any("mystery" in m for m in msgs)
    assert any("problem.p" in m for m in msgs)
    assert any("run.timing" in m for m in msgs)
    itemized = info.value.itemized()
    assert itemized.count("  - ") == len(msgs)


def test_bad_booleans_empty_lists_and_unknown_sections_are_named():
    raw = qcqp_raw(seeds=" , ")
    raw["extra"] = {"x": "1"}
    with pytest.raises(ConfigError) as info:
        resolve_config(raw)
    assert info.value.problems == ["extra: unknown section",
                                   "run.seeds: expected a comma-separated list of integers"]
    npc = {"problem": {"kind": "npc_synthetic", "d": "5", "n_pos": "20", "n_neg": "20",
                       "preprocess": "maybe"},
           "algorithm": {"name": "aprid"}, "run": {"horizon": "10"}}
    with pytest.raises(ConfigError) as info:
        resolve_config(npc)
    # the level rule reads the level keys, which parsed, whatever else failed
    assert info.value.problems == ["problem.preprocess: expected a boolean, got 'maybe'",
                                   "problem.c_hat: give exactly one of c_hat or c_target"]


def test_unknown_kind_and_algorithm():
    raw = qcqp_raw()
    raw["problem"]["kind"] = "sudoku"
    with pytest.raises(ConfigError, match="problem.kind"):
        resolve_config(raw)
    raw = qcqp_raw()
    raw["algorithm"]["name"] = "adam"
    with pytest.raises(ConfigError, match="algorithm.name"):
        resolve_config(raw)


def test_the_reference_modes_are_exact_and_none():
    # a reference anchored to the best checkpoint of all seeds made one seed's file depend
    # on the others; that mode and its tolerance are gone
    for mode in ("exact", "none"):
        assert resolve_config(qcqp_raw(reference=mode)).run["reference"] == mode
    assert "feasible_tol" not in resolve_config(qcqp_raw()).run
    with pytest.raises(ConfigError) as info:
        resolve_config(qcqp_raw(reference="best_feasible", feasible_tol="1e-6"))
    assert info.value.problems == [
        "run.reference: expected one of ('exact', 'none'), got 'best_feasible'",
        "run.feasible_tol: unknown key"]


def test_npc_level_key_rules():
    base = {
        "problem": {"kind": "npc_synthetic", "d": "5", "n_pos": "20", "n_neg": "20"},
        "algorithm": {"name": "aprid"},
        "run": {"horizon": "10"},
    }

    def with_problem(**kv):
        raw = {k: dict(v) for k, v in base.items()}
        raw["problem"].update(kv)
        return raw

    resolve_config(with_problem(c_hat="0.3"))
    resolve_config(with_problem(c_target="0.3", kappa="1.0"))
    with pytest.raises(ConfigError, match="exactly one"):
        resolve_config(with_problem())
    with pytest.raises(ConfigError, match="exactly one"):
        resolve_config(with_problem(c_hat="0.3", c_target="0.3"))
    with pytest.raises(ConfigError, match="kappa"):
        resolve_config(with_problem(c_hat="0.3", kappa="1.0"))


def test_saddle_pairing_rules():
    bil = {
        "problem": {"kind": "bilinear", "n": "3", "m": "3"},
        "algorithm": {"name": "apriad"},
        "run": {"horizon": "10"},
    }
    cfg = resolve_config(bil)
    assert cfg.run["reference"] == "none"  # saddle default

    bad = {k: dict(v) for k, v in bil.items()}
    bad["algorithm"] = {"name": "msa"}
    with pytest.raises(ConfigError, match="minimax"):
        resolve_config(bad)

    bad = qcqp_raw()
    bad["algorithm"] = {"name": "apriad"}
    with pytest.raises(ConfigError, match="minimax"):
        resolve_config(bad)

    bad = {k: dict(v) for k, v in bil.items()}
    bad["run"]["reference"] = "exact"
    with pytest.raises(ConfigError, match="reference"):
        resolve_config(bad)


def test_pdsg_needs_exact_constraint_values():
    raw = {
        "problem": {"kind": "qcqp_expectation", "n": "4", "p": "2"},
        "algorithm": {"name": "pdsg_adp"},
        "run": {"horizon": "10"},
    }
    with pytest.raises(ConfigError, match="exact"):
        resolve_config(raw)


def test_checkpoint_and_seed_parsing():
    cfg = resolve_config(qcqp_raw(checkpoints="40"))
    assert cfg.run["checkpoints"] == [40]  # single value is a count
    cfg = resolve_config(qcqp_raw(checkpoints="5, 10, 30"))
    assert cfg.run["checkpoints"] == [5, 10, 30]
    with pytest.raises(ConfigError, match="strictly increasing"):
        resolve_config(qcqp_raw(checkpoints="10 5"))
    with pytest.raises(ConfigError, match="lie in"):
        resolve_config(qcqp_raw(checkpoints="10 500"))
    with pytest.raises(ConfigError, match="seeds"):
        resolve_config(qcqp_raw(seeds="1 -2"))


def test_zero_checkpoint_count_is_rejected():
    with pytest.raises(ConfigError, match="run.checkpoints: a checkpoint count must be at least 1"):
        resolve_config(qcqp_raw(checkpoints="0"))
    assert resolve_config(qcqp_raw(checkpoints="1")).run["checkpoints"] == [1]


def test_momentum_bounds_checked():
    raw = qcqp_raw()
    raw["algorithm"]["beta1"] = "1.0"
    with pytest.raises(ConfigError, match="beta1"):
        resolve_config(raw)
    raw = qcqp_raw()
    raw["algorithm"]["beta2"] = "1.0"
    with pytest.raises(ConfigError, match="beta2"):
        resolve_config(raw)


# each range a numeric key uses -> (text, message) pairs that fall outside it
OUT_OF_RANGE = {
    _Number(float): [],
    _Number(int, 0, open_low=True): [("0", "expected a positive integer, got 0")],
    _Number(int, 0): [("-1", "expected a non-negative integer, got -1")],
    _Number(float, 0, open_low=True): [("0", "expected a positive number, got 0.0")],
    _Number(float, 0): [("-1", "expected a non-negative number, got -1.0")],
    _Number(float, 0, 1): [("-0.5", "must lie in [0, 1), got -0.5"),
                           ("1", "must lie in [0, 1), got 1.0")],
    _Number(float, 0, 1, open_low=True): [("0", "must lie in (0, 1), got 0.0"),
                                          ("1", "must lie in (0, 1), got 1.0")],
}

NUMERIC_KEYS = [
    (sec, owner, key, spec.parse)
    for sec, tables in (("problem", _PROBLEM_KEYS), ("algorithm", _ALGORITHM_KEYS),
                        ("run", {None: _RUN_KEYS}))
    for owner, table in tables.items()
    for key, spec in table.items() if isinstance(spec.parse, _Number)
]


@pytest.mark.parametrize("sec, owner, key, number", NUMERIC_KEYS,
                         ids=[f"{s}.{o}.{k}" if o else f"{s}.{k}" for s, o, k, _ in NUMERIC_KEYS])
def test_every_numeric_key_rejects_unreadable_non_finite_and_out_of_range_text(
        sec, owner, key, number):
    noun = "an integer" if number.kind is int else "a number"
    non_finite = "expected an integer" if number.kind is int else "expected a finite number"
    cases = [("ten", f"expected {noun}, got 'ten'"),
             ("nan", f"{non_finite}, got 'nan'"), ("inf", f"{non_finite}, got 'inf'"),
             *OUT_OF_RANGE[number]]
    for text, message in cases:
        raw = {"problem": {"kind": "qcqp_finite_sum"}, "algorithm": {"name": "msa"}, "run": {}}
        if owner is not None:
            raw[sec] = {"kind" if sec == "problem" else "name": owner}
        raw[sec][key] = text
        with pytest.raises(ConfigError) as info:
            resolve_config(raw)
        assert f"{sec}.{key}: {message}" in info.value.problems, text


def test_schedule_enums_per_algorithm():
    raw = qcqp_raw()
    raw["algorithm"]["schedule"] = "sqrt"  # min-only solver has no sqrt schedule
    with pytest.raises(ConfigError, match="schedule"):
        resolve_config(raw)
    bil = {
        "problem": {"kind": "bilinear", "n": "3", "m": "3"},
        "algorithm": {"name": "apriad", "schedule": "sqrt_log"},
        "run": {"horizon": "10"},
    }
    with pytest.raises(ConfigError, match="schedule"):
        resolve_config(bil)


def test_override_and_digest_stability():
    cfg = resolve_config(qcqp_raw())
    same = cfg.with_override("run.seeds", "7 8 9")
    assert same.run["seeds"] == [7, 8, 9]
    assert same.digest == cfg.digest  # seeds are excluded from the digest
    assert problem_digest(same) == problem_digest(cfg)

    other = cfg.with_override("problem.instance_seed", 2)
    assert other.digest != cfg.digest
    assert problem_digest(other) != problem_digest(cfg)

    tuned = cfg.with_override("algorithm.alpha", 5.0)
    assert tuned.algorithm["alpha"] == 5.0
    assert tuned.digest != cfg.digest
    assert problem_digest(tuned) == problem_digest(cfg)

    with pytest.raises(ConfigError, match="section.key"):
        cfg.with_override("alpha", 5.0)


def test_override_takes_list_and_tuple_values():
    # a list or tuple is written as the comma-separated text a config file would hold
    cfg = resolve_config(qcqp_raw())
    text = cfg.with_override("run.seeds", "1, 2")
    for value in ([1, 2], (1, 2)):
        listed = cfg.with_override("run.seeds", value)
        assert listed.run["seeds"] == [1, 2] and listed.resolved == text.resolved


# ---------------------------------------------------------------------------
# harness


def test_run_experiment_persists_and_replays(tmp_path):
    cfg = resolve_config(qcqp_raw())
    out1 = run_experiment(cfg, tmp_path / "r1")
    assert sorted(os.path.basename(p) for p in out1.csv_paths) == \
        ["aprid_seed1.csv", "aprid_seed2.csv"]
    assert out1.f0_ref is not None and math.isfinite(out1.f0_ref)

    manifest = read_manifest(out1.manifest_path)
    assert manifest["config_digest"] == cfg.digest
    assert manifest["config.run.horizon"] == "30"
    assert manifest["reference.mode"] == "exact"
    assert float(manifest["reference.f0"]) == pytest.approx(out1.f0_ref)
    assert manifest["cell.0"].startswith("aprid,1,aprid_seed1.csv,")
    assert manifest["cell.0"].endswith(",ok")

    recs = read_run_csv(out1.csv_paths[0])
    assert [r.iteration for r in recs] == [10, 30]
    assert all(math.isfinite(r.obj_err) for r in recs)

    # timing = none makes replays byte-identical
    out2 = run_experiment(cfg, tmp_path / "r2")
    for p1, p2 in zip(out1.csv_paths, out2.csv_paths):
        with open(p1, "rb") as f1, open(p2, "rb") as f2:
            assert f1.read() == f2.read()


def test_run_experiment_switching_writes_two_lanes(tmp_path):
    raw = qcqp_raw(seeds="3")
    raw["algorithm"] = {"name": "csa"}
    out = run_experiment(resolve_config(raw), tmp_path / "csa")
    names = sorted(os.path.basename(p) for p in out.csv_paths)
    assert names == ["csa1_seed3.csv", "csa2_seed3.csv"]


def test_run_experiment_saddle_records_gap(tmp_path):
    raw = {
        "problem": {"kind": "bilinear", "n": "3", "m": "3", "instance_seed": "4"},
        "algorithm": {"name": "apriad"},
        "run": {"horizon": "40", "checkpoints": "20 40", "seeds": "1",
                "timing": "none"},
    }
    out = run_experiment(resolve_config(raw), tmp_path / "saddle")
    recs = read_run_csv(out.csv_paths[0])
    assert all(math.isfinite(r.gap) and r.gap >= -1e-9 for r in recs)
    assert all(math.isnan(r.obj_err) for r in recs)


def test_run_experiment_divergence_is_persisted(tmp_path):
    raw = {
        "problem": {"kind": "npc_synthetic", "d": "6", "n_pos": "40",
                    "n_neg": "40", "c_hat": "0.01"},
        "algorithm": {"name": "aprid", "divergence_cap": "1e-6"},
        "run": {"horizon": "20", "checkpoints": "5 20", "seeds": "1",
                "timing": "none", "reference": "none"},
    }
    out = run_experiment(resolve_config(raw), tmp_path / "div")
    assert out.diverged
    manifest = read_manifest(out.manifest_path)
    assert manifest["cell.0"].endswith(",diverged")
    recs = read_run_csv(out.csv_paths[0])
    assert recs[-1].flags == "diverged"


def test_compare_report_and_format(tmp_path):
    cfg_a = resolve_config(qcqp_raw())
    raw_m = qcqp_raw()
    raw_m["algorithm"] = {"name": "msa"}
    cfg_m = resolve_config(raw_m)
    run_experiment(cfg_a, tmp_path / "a")
    run_experiment(cfg_m, tmp_path / "m")

    rows = compare_report([str(tmp_path / "a"), str(tmp_path / "m")],
                          out_path=str(tmp_path / "report.csv"))
    assert sorted(r["algorithm"] for r in rows) == ["aprid", "msa"]
    for row in rows:
        assert row["seeds"] == 2
        assert row["status"] == "ok"
        assert math.isfinite(row["obj_err"])
    text = format_report(rows)
    assert "algorithm" in text and "aprid" in text
    assert format_report([]) == "(no runs found)"
    report = (tmp_path / "report.csv").read_text()
    assert report.startswith("dir,algorithm,")

    # a different instance seed is a different problem: refuse to mix
    cfg_other = cfg_a.with_override("problem.instance_seed", 9)
    run_experiment(cfg_other, tmp_path / "other")
    with pytest.raises(ValueError, match="different problems"):
        compare_report([str(tmp_path / "a"), str(tmp_path / "other")])


def test_sweep_runs_subdirectories(tmp_path):
    cfg = resolve_config(qcqp_raw(seeds="1"))
    outputs, rows = sweep(cfg, "algorithm.alpha", [5.0, 10.0], tmp_path / "sw")
    assert len(outputs) == 2
    subdirs = sorted(os.path.basename(o.out_dir) for o in outputs)
    assert subdirs == ["algorithm-alpha_10.0", "algorithm-alpha_5.0"]
    assert os.path.exists(tmp_path / "sw" / "summary.csv")
    assert all("sweep" in row for row in rows)

    manifest = read_manifest(outputs[0].manifest_path)
    assert manifest["sweep.param"] == "algorithm.alpha"

    # sweeping a problem key varies the instance; the declared sweep is the
    # one case where mixed problem digests are allowed
    _, rows2 = sweep(cfg, "problem.instance_seed", [1, 2], tmp_path / "sw2")
    assert len(rows2) == 2

    with pytest.raises(ConfigError, match="sweep needs at least one value"):
        sweep(cfg, "algorithm.alpha", [], tmp_path / "sw3")
    assert not (tmp_path / "sw3").exists()


def test_read_manifest_rejects_malformed(tmp_path):
    path = tmp_path / "manifest.txt"
    path.write_text("key=value\ngarbage line\n")
    with pytest.raises(ValueError, match="malformed"):
        read_manifest(path)
    path.write_text("a=1\n\nb=x=2\n")  # a blank line is skipped
    assert read_manifest(path) == {"a": "1", "b": "x=2"}


def test_build_problem_reports_config_errors():
    raw = {
        "problem": {"kind": "npc", "data": "/nonexistent/file.csv", "c_hat": "0.3"},
        "algorithm": {"name": "aprid"},
        "run": {"horizon": "10"},
    }
    cfg = resolve_config(raw)
    with pytest.raises(ConfigError, match="npc"):
        build_problem(cfg)
