"""Command line driver: exit codes, output wiring, subcommand round-trips."""

import os
import subprocess
import sys

import pytest

from aprid import harness
from aprid.cli import main
from aprid.errors import ReferenceError

GOOD_CONFIG = """\
[problem]
kind = qcqp_finite_sum
n = 4
p = 2
num_objective_terms = 12
num_constraints = 6
instance_seed = 1

[algorithm]
name = aprid

[run]
horizon = 30
checkpoints = 10 30
seeds = 1 2
timing = none
reference = none
"""

DIVERGING_CONFIG = """\
[problem]
kind = npc_synthetic
d = 6
n_pos = 40
n_neg = 40
c_hat = 0.01

[algorithm]
name = aprid
divergence_cap = 1e-6

[run]
horizon = 20
checkpoints = 5 20
seeds = 1
timing = none
reference = none
"""


@pytest.fixture
def good_ini(tmp_path):
    path = tmp_path / "exp.ini"
    path.write_text(GOOD_CONFIG)
    return str(path)


def test_run_subcommand_success(good_ini, tmp_path, capsys):
    out_dir = str(tmp_path / "out")
    assert main(["run", "--config", good_ini, "--out", out_dir]) == 0
    captured = capsys.readouterr()
    assert "trajectory file(s)" in captured.out
    assert os.path.exists(os.path.join(out_dir, "manifest.txt"))
    assert os.path.exists(os.path.join(out_dir, "aprid_seed1.csv"))
    assert os.path.exists(os.path.join(out_dir, "aprid_seed2.csv"))


def test_run_seeds_override(good_ini, tmp_path):
    out_dir = str(tmp_path / "out")
    assert main(["run", "--config", good_ini, "--out", out_dir, "--seeds", "7"]) == 0
    assert os.path.exists(os.path.join(out_dir, "aprid_seed7.csv"))
    assert not os.path.exists(os.path.join(out_dir, "aprid_seed1.csv"))


def test_bad_seeds_exit_code(good_ini, tmp_path, capsys):
    code = main(["run", "--config", good_ini, "--out", str(tmp_path / "o"),
                 "--seeds", "one,two"])
    assert code == 2
    assert "configuration error" in capsys.readouterr().err


def test_duplicate_seeds_exit_code(good_ini, tmp_path, capsys):
    out_dir = tmp_path / "o"
    code = main(["run", "--config", good_ini, "--out", str(out_dir), "--seeds", "1,1"])
    assert code == 2
    assert "repeated seed" in capsys.readouterr().err
    assert not out_dir.exists()


@pytest.mark.parametrize("values", ["1,1", "1, 1"])
def test_sweep_duplicate_values_exit_code(good_ini, tmp_path, capsys, values):
    out_root = tmp_path / "sw"
    code = main(["sweep", "--config", good_ini, "--param", "algorithm.theta",
                 "--values", values, "--out", str(out_root), "--seeds", "1"])
    assert code == 2
    assert "repeated value" in capsys.readouterr().err
    assert not out_root.exists()


def test_invalid_config_exit_code(tmp_path, capsys):
    path = tmp_path / "broken.ini"
    path.write_text("[problem]\nkind = qcqp_finite_sum\nn = 4\n"
                    "[algorithm]\nname = aprid\n[run]\nhorizon = 10\n")
    code = main(["run", "--config", str(path), "--out", str(tmp_path / "o")])
    assert code == 2
    err = capsys.readouterr().err
    assert "configuration error" in err
    assert "  - " in err  # itemized problem list
    # H has one normalisation: the key that once chose it is unknown
    path.write_text(GOOD_CONFIG.replace("instance_seed = 1", "instance_seed = 1\n"
                                        "h_normalization = fro"))
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    assert "problem.h_normalization: unknown key" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_a_removed_reference_mode_exit_code(tmp_path, capsys):
    path = tmp_path / "bf.ini"
    for text, message in (
            ("reference = best_feasible",
             "run.reference: expected one of ('exact', 'none'), got 'best_feasible'"),
            ("reference = none\nfeasible_tol = 1e-6", "run.feasible_tol: unknown key")):
        path.write_text(GOOD_CONFIG.replace("reference = none", text))
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert message in err and err.count("\n  - ") == 1, err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("level, message", [
    ("c_hat = 0", "problem.c_hat: expected a positive number, got 0.0"),
    ("c_hat = -1", "problem.c_hat: expected a positive number, got -1.0"),
    ("c_hat = 0.0", "problem.c_hat: expected a positive number, got 0.0"),
    ("c_target = 0.1\nkappa = 1", "problem.c_target: the level c_target - kappa/sqrt(n_neg)"),
])
def test_non_positive_npc_level_exit_code(tmp_path, capsys, level, message):
    # the negative-class loss is positive, so a level <= 0 is infeasible: refused at once
    # instead of after the reference solver's whole budget (kappa/sqrt(40) = 0.158 here)
    path = tmp_path / "npc.ini"
    path.write_text(DIVERGING_CONFIG.replace("c_hat = 0.01", level)
                    .replace("reference = none", "reference = exact"))
    out_dir = tmp_path / "o"
    assert main(["run", "--config", str(path), "--out", str(out_dir)]) == 2
    err = capsys.readouterr().err
    assert message in err and err.count("\n  - ") == 1, err
    assert not out_dir.exists()


def test_run_prints_the_reference_objective(tmp_path, capsys):
    path = tmp_path / "exact.ini"
    path.write_text(GOOD_CONFIG.replace("reference = none", "reference = exact"))
    out_dir = tmp_path / "o"
    assert main(["run", "--config", str(path), "--out", str(out_dir)]) == 0
    f0 = float(harness.read_manifest(out_dir / "manifest.txt")["reference.f0"])
    assert f"reference objective: {f0:.12g}\n" in capsys.readouterr().out


def test_unparseable_config_exit_code(tmp_path, capsys):
    path = tmp_path / "broken.ini"
    path.write_text("[problem\nkind = bilinear\n")
    out_dir = tmp_path / "o"
    assert main(["run", "--config", str(path), "--out", str(out_dir)]) == 2
    assert f"cannot parse config file {path}" in capsys.readouterr().err
    assert not out_dir.exists()


def test_missing_config_exit_code(tmp_path, capsys):
    code = main(["run", "--config", str(tmp_path / "nope.ini"),
                 "--out", str(tmp_path / "o")])
    assert code == 2
    assert "cannot read" in capsys.readouterr().err


def test_divergence_exit_code(tmp_path, capsys):
    path = tmp_path / "div.ini"
    path.write_text(DIVERGING_CONFIG)
    code = main(["run", "--config", str(path), "--out", str(tmp_path / "o")])
    assert code == 3
    assert "diverged" in capsys.readouterr().err
    # the partial trajectory is still on disk
    assert os.path.exists(os.path.join(str(tmp_path / "o"), "aprid_seed1.csv"))


def test_reference_failure_exit_code(tmp_path, monkeypatch, capsys):
    def failing(*args, **kwargs):
        raise ReferenceError("no KKT point within tolerance")

    monkeypatch.setattr(harness, "solve_reference", failing)
    path = tmp_path / "exact.ini"
    path.write_text(GOOD_CONFIG.replace("reference = none", "reference = exact"))
    code = main(["run", "--config", str(path), "--out", str(tmp_path / "o")])
    assert code == 1
    assert "reference solver failed: no KKT point" in capsys.readouterr().err


NPC_DATA_CONFIG = """\
[problem]
kind = npc
data = unused.txt
c_hat = 0.8
preprocess = false

[algorithm]
name = msa

[run]
horizon = 20
checkpoints = 5 20
seeds = 1
timing = none
reference = none
"""


def test_sweep_over_data_paths_writes_every_run_directory_in_out(tmp_path, monkeypatch,
                                                                 capsys):
    # run from x/y/z, each value climbs out of the working directory and back to x
    work = tmp_path / "x" / "y" / "z"
    work.mkdir(parents=True)
    for name in ("d1.txt", "d2.txt"):
        (tmp_path / "x" / name).write_text("+1 1:0.5 2:1.0\n-1 1:1.5 2:0.7\n+1 1:-0.4 2:0.1\n")
    (work / "exp.ini").write_text(NPC_DATA_CONFIG)
    monkeypatch.chdir(work)
    before = set(tmp_path.rglob("*"))
    values = ["../../../x/d1.txt", "../../../x/d2.txt"]
    code = main(["sweep", "--config", "exp.ini", "--param", "problem.data",
                 "--values", ",".join(values), "--out", "out"])
    assert code == 0, capsys.readouterr().err
    out = work / "out"
    assert all(p == out or out in p.parents for p in set(tmp_path.rglob("*")) - before)
    run_dirs = sorted(p for p in out.iterdir() if p.is_dir())
    assert [p.name for p in run_dirs] == [f"problem-data_..-..-..-x-d{i}.txt" for i in (1, 2)]
    assert [harness.read_manifest(p / "manifest.txt")["sweep.value"] for p in run_dirs] == values
    # two values that name one directory are refused before any run
    code = main(["sweep", "--config", "exp.ini", "--param", "problem.data",
                 "--values", "../../../x/d1.txt,../..-../x/d1.txt", "--out", "taken"])
    assert code == 2
    assert "share the run directory" in capsys.readouterr().err
    assert not (work / "taken").exists()


def test_diverged_sweep_exit_code(tmp_path, capsys):
    path = tmp_path / "div.ini"
    path.write_text(DIVERGING_CONFIG)
    code = main(["sweep", "--config", str(path), "--param", "algorithm.theta",
                 "--values", "1,10", "--out", str(tmp_path / "sw")])
    assert code == 3
    assert "diverged" in capsys.readouterr().err
    assert os.path.exists(str(tmp_path / "sw" / "algorithm-theta_1" / "aprid_seed1.csv"))


def test_empty_sweep_values_exit_code(good_ini, tmp_path, capsys):
    out_root = tmp_path / "sw"
    code = main(["sweep", "--config", good_ini, "--param", "algorithm.theta",
                 "--values", ",", "--out", str(out_root)])
    assert code == 2
    assert "--values: expected a comma-separated list" in capsys.readouterr().err
    assert not out_root.exists()


def assert_one_error_line(capsys, *fragments):
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert all(f in err for f in fragments), err


def test_report_without_a_manifest_exit_code(tmp_path, capsys):
    assert main(["report", "--in", str(tmp_path)]) == 2
    assert_one_error_line(capsys, "manifest.txt")


def test_report_over_different_problems_exit_code(good_ini, tmp_path, capsys):
    other = tmp_path / "other.ini"
    other.write_text(GOOD_CONFIG.replace("instance_seed = 1", "instance_seed = 2"))
    assert main(["run", "--config", good_ini, "--out", str(tmp_path / "a")]) == 0
    assert main(["run", "--config", str(other), "--out", str(tmp_path / "b")]) == 0
    capsys.readouterr()
    assert main(["report", "--in", str(tmp_path / "a"), str(tmp_path / "b")]) == 2
    assert_one_error_line(capsys, "refusing to compare runs over different problems")


@pytest.mark.parametrize("command", [[], ["--param", "algorithm.theta", "--values", "1,10"]],
                         ids=["run", "sweep"])
def test_out_naming_a_file_exit_code(good_ini, tmp_path, capsys, command):
    out = tmp_path / "taken"
    out.write_text("not a directory\n")
    name = "sweep" if command else "run"
    assert main([name, "--config", good_ini, "--out", str(out), *command]) == 2
    assert_one_error_line(capsys, str(out))
    assert out.read_text() == "not a directory\n"


def test_report_subcommand(good_ini, tmp_path, capsys):
    assert main(["run", "--config", good_ini, "--out", str(tmp_path / "a")]) == 0
    assert main(["run", "--config", good_ini, "--out", str(tmp_path / "b")]) == 0
    capsys.readouterr()
    summary = str(tmp_path / "summary.csv")
    code = main(["report", "--in", str(tmp_path / "a"), str(tmp_path / "b"),
                 "--out", summary])
    assert code == 0
    captured = capsys.readouterr()
    assert "algorithm" in captured.out and "aprid" in captured.out
    assert os.path.exists(summary)


def test_sweep_subcommand(good_ini, tmp_path, capsys):
    code = main(["sweep", "--config", good_ini, "--param", "algorithm.theta",
                 "--values", "1,10", "--out", str(tmp_path / "sw"),
                 "--seeds", "1"])
    assert code == 0
    assert "algorithm" in capsys.readouterr().out
    assert os.path.exists(str(tmp_path / "sw" / "summary.csv"))
    assert os.path.isdir(str(tmp_path / "sw" / "algorithm-theta_1"))
    assert os.path.isdir(str(tmp_path / "sw" / "algorithm-theta_10"))


def test_module_entry_point_help():
    proc = subprocess.run(
        [sys.executable, "-m", "aprid.cli", "--help"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0
    assert "run" in proc.stdout and "report" in proc.stdout and "sweep" in proc.stdout
