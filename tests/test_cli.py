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
