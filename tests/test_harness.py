"""Config-to-solver wiring: every [problem] key reaches its problem and every
[algorithm] key its solver, and the harness rejects what it cannot dispatch or
would write twice."""

import dataclasses
import hashlib
import json
import math
import pathlib
import subprocess
import sys
import time
import warnings
import weakref

import numpy as np
import pytest

from aprid import (BatchSizes, ConfigError, ExperimentConfig, harness, load_dataset,
                   make_bilinear_saddle, make_qcqp_finite_sum, make_synthetic_dataset,
                   parse_config, resolve_config, run_experiment)
from aprid.config import _ALGORITHM_KEYS, _PROBLEM_KEYS, config_digest
from aprid.results import log_spaced_checkpoints

FINITE_SUM = {"kind": "qcqp_finite_sum", "n": "4", "p": "2", "num_objective_terms": "12",
              "num_constraints": "6", "instance_seed": "1"}
BILINEAR = {"kind": "bilinear", "n": "3", "m": "3", "instance_seed": "2", "noise_sigma": "0.1"}
RUN = {"horizon": "30", "j0": "3", "j1": "4", "jg": "7", "checkpoints": "5", "seeds": "2",
       "timing": "none", "reference": "none"}

SQRT_LOG_1 = math.sqrt(2.0) * math.log(2.0)  # sqrt(k+1) log(k+1) at k = 1

# name -> (every key at a non-default value, expected (kind, beta1, alpha_1, rho_1)
# of the schedule, or None for the baselines, which take no schedule)
WIRING = {
    "aprid": ({"alpha": "3", "rho": "0.5", "beta1": "0.8", "beta2": "0.95", "theta": "5",
               "schedule": "sqrt_log", "divergence_cap": "1e7"},
              ("sqrt_log", 0.8, 3 / SQRT_LOG_1, 0.5 / SQRT_LOG_1)),
    "apriad": ({"alpha": "0.5", "rho": "0.25", "beta1": "0.7", "beta2": "0.9", "theta": "3",
                "schedule": "sqrt"},
               ("sqrt", 0.7, 0.5 / math.sqrt(2.0), 0.25 / math.sqrt(2.0))),
    "msa": ({"alpha": "3", "rho": "0.5", "z_cap": "50"}, None),
    "csa": ({"gamma": "2", "eta_tol": "0.1", "s": "3"}, None),
    "pdsg_adp": ({"alpha": "5", "rho": "2", "eta_scale": "0.2", "divergence_cap": "1e7"}, None),
}


@pytest.mark.parametrize("name", sorted(WIRING))
def test_every_algorithm_key_reaches_its_solver(name, monkeypatch, tmp_path):
    keys, schedule = WIRING[name]
    schema = _ALGORITHM_KEYS[name]
    assert set(keys) == set(schema), "the test must set every key the schema has"
    cfg = resolve_config({"problem": BILINEAR if name == "apriad" else FINITE_SUM,
                          "algorithm": {"name": name, **keys}, "run": RUN})
    for key in keys:
        assert cfg.algorithm[key] != schema[key].default, key

    # the harness looks the loop up by name on every call, so a patched
    # module global sees the call (the traced benchmark relies on this)
    calls = []
    loop = getattr(harness, f"{name}_run")

    def recorder(*args, **kwargs):
        calls.append((args, kwargs))
        return loop(*args, **kwargs)

    monkeypatch.setattr(harness, f"{name}_run", recorder)
    out = run_experiment(cfg, tmp_path / "out")
    assert not out.diverged
    [(args, kwargs)] = calls
    assert args[-1] == 2  # the seed
    assert kwargs["checkpoints"] == log_spaced_checkpoints(30, count=5)
    params = args[1]
    rest = {k: cfg.algorithm[k] for k in keys}
    if schedule is None:
        assert args[2] == BatchSizes(j0=3, j1=4, jg=7)
        assert params.horizon == 30
    else:
        if name == "aprid":
            assert args[2] == BatchSizes(j0=3, j1=4, jg=7)
        kind, beta1, alpha_1, rho_1 = schedule
        sched = params.schedule
        assert (sched.kind, sched.beta1, sched.horizon) == (kind, beta1, 30)
        assert sched.alpha_sequence()[0] == pytest.approx(alpha_1, rel=1e-15)
        assert sched.rho_sequence()[0] == pytest.approx(rho_1, rel=1e-15)
        for key in ("schedule", "alpha", "rho", "beta1"):
            del rest[key]
    for key, value in rest.items():
        assert getattr(params, key) == value, key


def _hand_built(algorithm, kind, **algorithm_keys):
    # skips resolve_config, as a caller of the Python API may
    problem = dict(kind=kind, n=4, p=2, num_objective_terms=12, num_constraints=6,
                   instance_seed=1, max_elements=10_000)
    run = dict(horizon=10, j0=2, j1=2, jg=2, seeds=[1], checkpoints=[5, 10],
               reference="none", timing="none")
    return ExperimentConfig(problem=problem, algorithm={"name": algorithm, **algorithm_keys},
                            run=run)


def _with_run(cfg, **run_keys):
    cfg.run.update(run_keys)
    return cfg


def _with_problem(cfg, **problem):
    cfg.problem = problem
    return cfg


def test_unhandled_algorithm_or_kind_in_a_hand_built_config(tmp_path):
    with pytest.raises(ConfigError, match="algorithm.name: unhandled algorithm 'sgd'"):
        run_experiment(_hand_built("sgd", "qcqp_finite_sum"), tmp_path / "a")
    with pytest.raises(ConfigError, match="problem.kind: unhandled kind 'lasso'"):
        run_experiment(_hand_built("msa", "lasso"), tmp_path / "b")
    # a hand-built config keeps no raw sections to re-resolve
    with pytest.raises(ConfigError, match="with_override needs a config made by resolve_config"):
        _hand_built("msa", "qcqp_finite_sum").with_override("algorithm.alpha", 1)
    # "custom" is a schedule kind and "fresh" a method, but neither is a constructor
    for name in ("custom", "fresh", "linear"):
        cfg = _hand_built("aprid", "qcqp_finite_sum", schedule=name, alpha=1.0, rho=1.0,
                          beta1=0.9, beta2=0.99, theta=10.0, divergence_cap=1e8)
        with pytest.raises(ConfigError, match=f"algorithm.schedule: '{name}' names no "
                                              "StepSchedule constructor"):
            run_experiment(cfg, tmp_path / name)


def test_a_wrong_typed_hand_built_value_names_its_key(tmp_path):
    # each numeric key is held to its parser's kind; its range stays the params' check
    cfg = _with_run(_hand_built("msa", "qcqp_finite_sum", alpha="1", rho=1.0, z_cap=True),
                    j0=2.0, horizon=np.int64(10))
    cfg.problem["n"] = "4"
    with pytest.raises(ConfigError) as info:
        run_experiment(cfg, tmp_path / "out")
    assert info.value.problems == ["problem.n: expected an integer, got '4'",
                                   "algorithm.alpha: expected a number, got '1'",
                                   "algorithm.z_cap: expected a number, got True",
                                   "run.j0: expected an integer, got 2.0"]
    assert not (tmp_path / "out").exists()


@pytest.mark.filterwarnings("ignore:no constraint is active at the reference")
def test_an_expectation_run_replays_byte_for_byte(tmp_path):
    cfg = resolve_config({
        "problem": {"kind": "qcqp_expectation", "n": "3", "p": "2", "eval_samples": "300"},
        "algorithm": {"name": "csa", "gamma": "2", "s": "5"},
        "run": {**RUN, "horizon": "1100", "j1": "5", "seeds": "3,4", "reference": "exact",
                "freeze_samples": "300"}})
    outs = [run_experiment(cfg, tmp_path / name) for name in ("a", "b")]
    assert len(outs[0].csv_paths) == 4
    for a, b in zip(outs[0].csv_paths, outs[1].csv_paths):
        assert pathlib.Path(a).read_bytes() == pathlib.Path(b).read_bytes()
    # the two seeds read different streams
    assert pathlib.Path(outs[0].csv_paths[0]).read_bytes() != \
        pathlib.Path(outs[0].csv_paths[2]).read_bytes()


# runs one short expectation, one finite-sum and one NPC experiment with scipy blocked: a
# None entry in sys.modules makes every import of scipy or of a submodule raise ImportError
NO_SCIPY = """
import json
import sys
sys.modules["scipy"] = None
from aprid import resolve_config, run_experiment

out, problems, run = sys.argv[1], json.loads(sys.argv[2]), json.loads(sys.argv[3])
for i, problem in enumerate(problems):
    run_experiment(resolve_config({"problem": problem, "algorithm": {"name": "aprid"},
                                   "run": run}), f"{out}/{i}")
print([name for name in sys.modules if name.startswith("scipy.")])
"""


def test_no_family_loads_scipy(tmp_path):
    expectation = {"kind": "qcqp_expectation", "n": "3", "p": "2", "eval_samples": "300"}
    npc = {"kind": "npc_synthetic", "d": "4", "n_pos": "40", "n_neg": "40",
           "instance_seed": "2", "c_hat": "0.5"}
    run = {**RUN, "reference": "exact", "freeze_samples": "300"}
    proc = subprocess.run([sys.executable, "-c", NO_SCIPY, str(tmp_path),
                           json.dumps([expectation, FINITE_SUM, npc]), json.dumps(run)],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["[]"]  # scipy.special was never loaded
    assert len(list(tmp_path.glob("*/*.csv"))) == 3  # each experiment wrote its run


def test_manifest_splits_out_the_set_up_time(tmp_path):
    cfg = resolve_config({"problem": FINITE_SUM, "algorithm": {"name": "msa"},
                          "run": {**RUN, "reference": "exact"}})
    manifest = harness.read_manifest(run_experiment(cfg, tmp_path / "out").manifest_path)
    keys = list(manifest)
    at = keys.index("total_wall_s")
    assert keys[at + 1:at + 3] == ["setup.build_s", "setup.reference_s"]
    total = float(manifest["total_wall_s"])
    for key in ("setup.build_s", "setup.reference_s"):
        value = manifest[key]
        assert value == format(float(value), ".3f") and 0.0 <= float(value) <= total, key


def test_the_reference_solution_is_released_before_the_cells_run(tmp_path, monkeypatch):
    # its x, z and constraint values are O(M); the cells read only f0_ref
    solutions, alive = [], []
    solve, run_cell = harness.solve_reference, harness._run_cell

    def solving(*args, **kwargs):
        solution = solve(*args, **kwargs)
        solutions.append(weakref.ref(solution))
        return solution

    def running(*args, **kwargs):
        alive.append(solutions[-1]() is not None)
        return run_cell(*args, **kwargs)

    monkeypatch.setattr(harness, "solve_reference", solving)
    monkeypatch.setattr(harness, "_run_cell", running)
    cfg = resolve_config({"problem": FINITE_SUM, "algorithm": {"name": "aprid"},
                          "run": {**RUN, "reference": "exact", "seeds": "1, 2"}})
    out = run_experiment(cfg, tmp_path)
    assert len(solutions) == 1 and alive == [False, False]
    assert out.f0_ref is not None


class _Interrupted(Exception):
    pass


def test_each_cell_is_on_disk_before_the_next_seed_starts(tmp_path, monkeypatch):
    cfg = resolve_config({"problem": FINITE_SUM, "algorithm": {"name": "aprid"},
                          "run": {**RUN, "seeds": "1, 2"}})
    whole = run_experiment(cfg, tmp_path / "whole")
    run_cell = harness._run_cell

    def interrupted(problem, plan, seed, *rest):
        if seed == 2:
            raise _Interrupted
        return run_cell(problem, plan, seed, *rest)

    monkeypatch.setattr(harness, "_run_cell", interrupted)
    with pytest.raises(_Interrupted):
        run_experiment(cfg, tmp_path / "cut")
    assert sorted(p.name for p in (tmp_path / "cut").iterdir()) == ["aprid_seed1.csv"]
    assert (tmp_path / "cut" / "aprid_seed1.csv").read_bytes() == \
        (tmp_path / "whole" / "aprid_seed1.csv").read_bytes()


# (problem, algorithm, reference) of each case; the npc cell diverges at its cap
DIVERGING_NPC = {"kind": "npc_synthetic", "d": "6", "n_pos": "40", "n_neg": "40", "c_hat": "0.01"}
INDEPENDENCE = [(FINITE_SUM, {"name": "aprid"}, "exact"), (FINITE_SUM, {"name": "aprid"}, "none"),
                (FINITE_SUM, {"name": "csa"}, "exact"), (FINITE_SUM, {"name": "csa"}, "none"),
                (DIVERGING_NPC, {"name": "aprid", "divergence_cap": "1e-6"}, "none")]


@pytest.mark.parametrize("problem, algorithm, reference", INDEPENDENCE,
                         ids=["aprid-exact", "aprid-none", "csa-exact", "csa-none", "diverging"])
def test_a_seeds_trajectories_do_not_depend_on_the_other_seeds(problem, algorithm, reference,
                                                               tmp_path):
    cfg = resolve_config({"problem": problem, "algorithm": algorithm,
                          "run": {**RUN, "reference": reference}})
    alone = run_experiment(cfg, tmp_path / "alone", seeds=[1])
    together = run_experiment(cfg, tmp_path / "together", seeds=[2, 1])
    assert alone.diverged == together.diverged == (problem is DIVERGING_NPC)
    ones = [pathlib.Path(p) for p in together.csv_paths if p.endswith("_seed1.csv")]
    assert [p.name for p in ones] == [pathlib.Path(p).name for p in alone.csv_paths]
    assert len(ones) == (2 if algorithm["name"] == "csa" else 1)
    for mine, solo in zip(ones, alone.csv_paths):
        assert mine.read_bytes() == pathlib.Path(solo).read_bytes()


def test_duplicate_seeds_are_rejected(tmp_path):
    cfg = resolve_config({"problem": FINITE_SUM, "algorithm": {"name": "msa"},
                          "run": {**RUN, "seeds": "1, 1"}})
    assert cfg.run["seeds"] == [1, 1]
    with pytest.raises(ConfigError, match="run.seeds: repeated seed"):
        run_experiment(cfg, tmp_path / "config_seeds")
    with pytest.raises(ConfigError, match="run.seeds: repeated seed"):
        run_experiment(cfg.with_override("run.seeds", "3"), tmp_path / "api", seeds=[4, 5, 4])
    assert not (tmp_path / "config_seeds").exists()
    assert not (tmp_path / "api").exists()
    with pytest.raises(ConfigError, match="run.seeds: need at least one seed"):
        run_experiment(cfg, tmp_path / "no_seeds", seeds=[])
    assert not (tmp_path / "no_seeds").exists()


@pytest.mark.parametrize("seeds", [[2.7], [1.9], [True], [np.bool_(True)], ["3"], [-1],
                                   [np.int64(-2)], [1, 2.0, 3, -4]])
def test_a_seed_that_is_not_a_non_negative_integer_is_refused_before_any_work(
        seeds, tmp_path, monkeypatch):
    # the rule --seeds and a parsed run.seeds follow, held to an API or hand-built list
    built = []
    monkeypatch.setattr(harness, "build_problem", lambda cfg: built.append(cfg))
    cfg = resolve_config({"problem": FINITE_SUM, "algorithm": {"name": "msa"}, "run": RUN})
    want = [f"run.seeds: expected a non-negative integer, got {s!r}" for s in seeds
            if type(s) is not int or s < 0]
    with pytest.raises(ConfigError) as info:
        run_experiment(cfg, tmp_path / "api", seeds=seeds)
    assert info.value.problems == want
    hand = _with_run(_hand_built("msa", "qcqp_finite_sum", alpha=1.0, rho=1.0, z_cap=3.0),
                     seeds=seeds)
    with pytest.raises(ConfigError) as info:
        run_experiment(hand, tmp_path / "hand")
    assert info.value.problems == want
    assert not built and not (tmp_path / "api").exists() and not (tmp_path / "hand").exists()


def test_numpy_integer_seeds_run_as_their_python_ints(tmp_path):
    cfg = resolve_config({"problem": FINITE_SUM, "algorithm": {"name": "msa"}, "run": RUN})
    out = run_experiment(cfg, tmp_path / "np", seeds=[np.int64(3), np.uint8(0)])
    ref = run_experiment(cfg, tmp_path / "py", seeds=[3, 0])
    assert [pathlib.Path(p).name for p in out.csv_paths] == ["msa_seed3.csv", "msa_seed0.csv"]
    for a, b in zip(out.csv_paths, ref.csv_paths):
        assert pathlib.Path(a).read_bytes() == pathlib.Path(b).read_bytes()
    assert harness.read_manifest(out.manifest_path)["seeds"] == "3,0"


def test_a_hand_built_config_with_a_removed_reference_mode_is_refused(tmp_path):
    msa = dict(alpha=1.0, rho=1.0, z_cap=3.0)
    cases = {
        "tolerance": (dict(feasible_tol=1e-6), ["run.feasible_tol: unknown key"]),
        "mode": (dict(reference="best_feasible"),
                 ["run.reference: expected one of ('exact', 'none'), got 'best_feasible'"]),
    }
    for name, (run_keys, problems) in cases.items():
        cfg = _with_run(_hand_built("msa", "qcqp_finite_sum", **msa), **run_keys)
        with pytest.raises(ConfigError) as info:
            run_experiment(cfg, tmp_path / name)
        assert info.value.problems == problems, name
        assert not (tmp_path / name).exists(), name


def test_hand_built_config_keys_are_checked_before_any_output(tmp_path):
    misspelt_problem = _hand_built("msa", "qcqp_finite_sum", alpha=1.0, rho=1.0, z_cap=3.0)
    misspelt_problem.problem["instance_sed"] = misspelt_problem.problem.pop("instance_seed")
    msa = dict(alpha=1.0, rho=1.0, z_cap=3.0)
    aprid = dict(alpha=1.0, rho=1.0, beta1=0.9, beta2=0.99, theta=10.0, schedule="constant",
                 divergence_cap=1e8)
    apriad = {k: v for k, v in aprid.items() if k != "divergence_cap"}
    pdsg = dict(alpha=1.0, rho=1.0, eta_scale=0.1, divergence_cap=1e8)
    bilinear = dict(kind="bilinear", n=3, m=3, instance_seed=2, noise_sigma=0.1)
    expectation = dict(kind="qcqp_expectation", n=4, p=2, eval_samples=100)
    exact = dict(reference="exact", reference_tol=1e-6, freeze_samples=100, freeze_seed=0)
    cases = {
        "bare": (_hand_built("aprid", "qcqp_finite_sum"),
                 [f"algorithm.{key}: missing key" for key in _ALGORITHM_KEYS["aprid"]]),
        "algorithm": (_hand_built("msa", "qcqp_finite_sum", alpha=1.0, rho=1.0, zcap=3),
                      ["algorithm.z_cap: missing key", "algorithm.zcap: unknown key"]),
        "problem": (misspelt_problem,
                    ["problem.instance_seed: missing key", "problem.instance_sed: unknown key"]),
        "run": (_with_run(_hand_built("msa", "qcqp_finite_sum", **msa), reference="exact",
                          horizn=10),
                ["run.reference_tol: missing key", "run.freeze_samples: missing key",
                 "run.freeze_seed: missing key", "run.horizn: unknown key"]),
        "value": (_hand_built("msa", "qcqp_finite_sum", **{**msa, "alpha": -1.0}),
                  ["algorithm.msa: alpha must be positive, got -1.0"]),
        "momentum": (_hand_built("aprid", "qcqp_finite_sum", **{**aprid, "beta1": 1.5}),
                     ["algorithm.aprid: beta1 must lie in [0, 1), got 1.5"]),
        "schedule": (_hand_built("aprid", "qcqp_finite_sum", **{**aprid, "schedule": "custom"}),
                     ["algorithm.schedule: 'custom' names no StepSchedule constructor"]),
        "batches": (_with_run(_hand_built("aprid", "qcqp_finite_sum", **aprid), j0=0),
                    ["run: batch size j0 must be a positive integer, got 0"]),
        "checkpoints": (_with_run(_hand_built("msa", "qcqp_finite_sum", **msa),
                                  checkpoints=[5, 11]),
                        ["run.checkpoints: checkpoints must lie in [1, 10], got 5..11"]),
        # the cross-key rules resolve_config holds a parsed config to
        "pairing": (_with_problem(_hand_built("aprid", "bilinear", **aprid), **bilinear),
                    ["algorithm.name: bilinear problems need the minimax solver, not 'aprid'"]),
        "exact values": (_with_problem(_hand_built("pdsg_adp", "qcqp_expectation", **pdsg),
                                       **expectation),
                         ["algorithm.name: pdsg_adp needs exact per-constraint values; "
                          "qcqp_expectation cannot provide them"]),
        "saddle reference": (_with_run(_with_problem(_hand_built("apriad", "bilinear", **apriad),
                                                     **bilinear), **exact),
                             ["run.reference: saddle runs report the exact gap; "
                              "set reference = none"]),
    }
    for name, (cfg, problems) in cases.items():
        with pytest.raises(ConfigError) as info:
            run_experiment(cfg, tmp_path / name)
        assert info.value.problems == problems, name
        assert not (tmp_path / name).exists(), name
    complete = _hand_built("msa", "qcqp_finite_sum", alpha=1.0, rho=1.0, z_cap=3.0)
    assert len(run_experiment(complete, tmp_path / "complete").csv_paths) == 1


CONFIG_DIR = pathlib.Path(__file__).parent.parent / "configs"
# a short run of each shipped config; the expectation instance draws fewer samples
SHORT = {"run.horizon": 20, "run.checkpoints": 3, "run.seeds": 1, "run.timing": "none"}
FEWER_DRAWS = {"problem.eval_samples": 2000, "run.freeze_samples": 2000}
# manifest lines that hold the clock
CLOCK = ("started_at", "total_wall_s", "setup.")


def _short(path):
    cfg = parse_config(path)
    for param, value in SHORT.items():
        cfg = cfg.with_override(param, value)
    if cfg.problem["kind"] == "qcqp_expectation":
        for param, value in FEWER_DRAWS.items():
            cfg = cfg.with_override(param, value)
    return cfg


def _as_numpy(value):
    # the numpy scalar a caller may hand in for a Python int or float
    if isinstance(value, list):
        return [_as_numpy(v) for v in value]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return value
    return np.int64(value) if isinstance(value, int) else np.float64(value)


# the shipped QCQP instances other than qcqp_finite_sum_active have no active constraint
@pytest.mark.filterwarnings("ignore:no constraint is active at the reference")
@pytest.mark.parametrize("path", sorted(CONFIG_DIR.glob("*.ini")), ids=lambda p: p.stem)
def test_a_hand_built_config_writes_what_its_parsed_config_writes(path, tmp_path):
    parsed = _short(path)
    sections = ("problem", "algorithm", "run")
    hand = ExperimentConfig(**{sec: dict(getattr(parsed, sec)) for sec in sections})
    numpy_typed = ExperimentConfig(**{sec: {key: _as_numpy(value) for key, value
                                            in getattr(parsed, sec).items()}
                                      for sec in sections})
    assert isinstance(numpy_typed.run["horizon"], np.int64)
    for cfg in (hand, numpy_typed):
        assert cfg.resolved == parsed.resolved
        assert cfg.digest == parsed.digest
        assert harness.problem_digest(cfg) == harness.problem_digest(parsed)

    outs = [run_experiment(cfg, tmp_path / name) for name, cfg in
            (("parsed", parsed), ("hand", hand))]
    manifests = [{k: v for k, v in harness.read_manifest(out.manifest_path).items()
                  if not k.startswith(CLOCK)} for out in outs]
    assert manifests[0] == manifests[1]
    assert manifests[0]["config_digest"] == parsed.digest
    assert manifests[0]["config.run.horizon"] == "20"
    assert [pathlib.Path(p).name for p in outs[0].csv_paths] == \
        [pathlib.Path(p).name for p in outs[1].csv_paths]
    for a, b in zip(outs[0].csv_paths, outs[1].csv_paths):
        assert pathlib.Path(a).read_bytes() == pathlib.Path(b).read_bytes()


def test_the_active_finite_sum_config_runs_with_a_binding_reference(tmp_path):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = run_experiment(_short(CONFIG_DIR / "qcqp_finite_sum_active.ini"), tmp_path)
    assert not [w for w in caught if "no constraint is active" in str(w.message)]
    manifest = harness.read_manifest(out.manifest_path)
    assert int(manifest["reference.active_constraints"]) >= 1
    assert float(manifest["reference.z_norm"]) > 0


def test_hand_built_runs_over_different_instances_are_not_compared(tmp_path):
    msa = dict(alpha=1.0, rho=1.0, z_cap=3.0)
    dirs = []
    for seed in (1, 2):
        cfg = _hand_built("msa", "qcqp_finite_sum", **msa)
        cfg.problem["instance_seed"] = seed
        dirs.append(run_experiment(cfg, tmp_path / f"instance{seed}").out_dir)
    digests = [harness.read_manifest(pathlib.Path(d) / "manifest.txt")["problem_digest"]
               for d in dirs]
    assert digests[0] != digests[1]
    assert hashlib.sha256(b"").hexdigest() not in digests
    with pytest.raises(ValueError, match="refusing to compare runs over different problems"):
        harness.compare_report(dirs)


def test_npc_runs_over_a_rewritten_data_file_are_not_compared(tmp_path):
    data = tmp_path / "rows.txt"
    rows = "+1 1:0.5 2:1.0\n-1 1:1.5 2:0.7\n+1 1:-0.4 2:0.1\n-1 1:-0.3 2:0.9\n"
    raw = {"problem": {"kind": "npc", "data": str(data), "c_hat": "0.8", "preprocess": "false"},
           "algorithm": {"name": "msa"}, "run": dict(RUN)}
    dirs = []
    for name, text in (("before", rows), ("after", rows.replace("0.9", "0.8"))):
        data.write_text(text)
        dirs.append(run_experiment(resolve_config(raw), tmp_path / name).out_dir)
    digests = [harness.read_manifest(pathlib.Path(d) / "manifest.txt")["problem_digest"]
               for d in dirs]
    assert digests[0] != digests[1]  # the path and every [problem] key are the same
    with pytest.raises(ValueError, match="refusing to compare runs over different problems"):
        harness.compare_report(dirs)
    # other kinds hash their [problem] lines alone, as before
    cfg = resolve_config({"problem": FINITE_SUM, "algorithm": {"name": "msa"}, "run": RUN})
    lines = {k: v for k, v in cfg.resolved.items() if k.startswith("problem.")}
    assert harness.problem_digest(cfg) == config_digest(lines)


def test_build_problem_checks_the_keys_of_a_hand_built_config():
    # a missing key used to build with the factory default, a misspelt one to raise
    # TypeError from the factory
    bilinear = {"kind": "bilinear", "n": 3, "m": 4, "instance_seed": 6}
    cases = {
        "missing": (bilinear, ["problem.noise_sigma: missing key"]),
        "misspelt": ({**bilinear, "noise_sigmaa": 0.3},
                     ["problem.noise_sigma: missing key", "problem.noise_sigmaa: unknown key"]),
    }
    for name, (problem, problems) in cases.items():
        cfg = ExperimentConfig(problem=problem, algorithm={"name": "apriad"}, run={})
        with pytest.raises(ConfigError) as info:
            harness.build_problem(cfg)
        assert info.value.problems == problems, name
    complete = ExperimentConfig(problem={**bilinear, "noise_sigma": 0.3},
                                algorithm={"name": "apriad"}, run={})
    assert harness.build_problem(complete).noise_sigma == 0.3


def test_a_hand_built_npc_level_of_zero_is_refused_before_the_reference(tmp_path):
    # check_keys holds a hand-built c_hat to its kind only: the problem refuses the level,
    # as a ConfigError, where the reference would otherwise spend its whole budget
    parsed = parse_config(CONFIG_DIR / "npc_synthetic.ini")
    cfg = dataclasses.replace(parsed, problem={**parsed.problem, "c_hat": 0.0})
    start = time.perf_counter()
    with pytest.raises(ConfigError, match=r"problem\.npc_synthetic: constraint level "
                                          r"c_hat=0\.0 must be positive"):
        run_experiment(cfg, tmp_path / "out")
    assert time.perf_counter() - start < 1.0


def _built(problem, algorithm="msa"):
    cfg = resolve_config({"problem": problem, "algorithm": {"name": algorithm},
                          "run": {"horizon": "5"}})
    return harness.build_problem(cfg)


def _sets_every_key(problem, but=()):
    return set(problem) - {"kind"} == set(_PROBLEM_KEYS[problem["kind"]]) - set(but)


def test_every_npc_problem_key_reaches_its_problem(tmp_path):
    data = tmp_path / "rows.txt"
    data.write_text("+1 1:0.5 2:1.0 3:-0.2\n-1 1:1.5 3:0.7\n+1 2:-0.4 3:0.1\n"
                    "-1 1:-0.3 2:0.9\n-1 1:0.2 2:0.2 3:0.2\n")
    # c_hat is the other way to give the constraint level; the two exclude each other
    npc = {"kind": "npc", "data": str(data), "format": "sparse-index-value",
           "preprocess": "false", "c_target": "0.8", "kappa": "0.5", "box_halfwidth": "7"}
    assert _sets_every_key(npc, but=["c_hat"])
    prob = _built(npc)
    raw = load_dataset(data)
    assert np.array_equal(prob._pos, raw.positives()) and np.array_equal(prob._neg, raw.negatives())
    assert prob.c_hat == 0.8 - 0.5 / math.sqrt(3)
    assert np.array_equal(prob.box.upper, [7.0] * 3)
    with pytest.raises(ConfigError, match="problem.npc: line 2: need at least one feature"):
        _built({**npc, "format": "dense-csv"})

    synthetic = {"kind": "npc_synthetic", "d": "3", "n_pos": "7", "n_neg": "9",
                 "separation": "3.5", "instance_seed": "4", "preprocess": "false",
                 "c_target": "0.9", "kappa": "0.3", "box_halfwidth": "2.5"}
    assert _sets_every_key(synthetic, but=["c_hat"])
    prob = _built(synthetic)
    raw = make_synthetic_dataset(3, 7, 9, seed=4, separation=3.5)
    assert np.array_equal(prob._pos, raw.positives()) and np.array_equal(prob._neg, raw.negatives())
    assert prob.c_hat == 0.9 - 0.3 / 3.0
    assert np.array_equal(prob.box.lower, [-2.5] * 3)


def test_every_qcqp_and_bilinear_problem_key_reaches_its_problem():
    expectation = {"kind": "qcqp_expectation", "n": "3", "p": "2", "eval_samples": "123"}
    assert _sets_every_key(expectation)
    prob = _built(expectation)
    assert (prob.n, prob.p, prob.eval_samples) == (3, 2, 123)

    finite_sum = {"kind": "qcqp_finite_sum", "n": "3", "p": "2", "num_objective_terms": "11",
                  "num_constraints": "6", "instance_seed": "5", "max_elements": "1000"}
    assert _sets_every_key(finite_sum)
    prob = _built(finite_sum)
    want = make_qcqp_finite_sum(3, 2, 11, 6, seed=5)
    assert (prob.n, prob.num_objective_terms, prob.num_constraints) == (3, 11, 6)
    assert np.array_equal(prob.h, want.h) and np.array_equal(prob.q, want.q)
    # 11*2*3 + 11*2 + 6*6 + 6*3 + 6 = 148 stored floats (each Q its 6-entry triangle)
    with pytest.raises(ConfigError, match="148 floats, over the 147 budget"):
        _built({**finite_sum, "max_elements": "147"})

    bilinear = {"kind": "bilinear", "n": "3", "m": "4", "instance_seed": "6",
                "noise_sigma": "0.3"}
    assert _sets_every_key(bilinear)
    prob = _built(bilinear, algorithm="apriad")
    assert (prob.n, prob.m, prob.noise_sigma) == (3, 4, 0.3)
    assert np.array_equal(prob.a_mat, make_bilinear_saddle(3, 4, seed=6).a_mat)
