"""Config-to-solver wiring: every [problem] key reaches its problem and every
[algorithm] key its solver, and the harness rejects what it cannot dispatch or
would write twice."""

import hashlib
import math
import pathlib

import numpy as np
import pytest

from aprid import (BatchSizes, ConfigError, ExperimentConfig, harness, load_dataset,
                   make_bilinear_saddle, make_qcqp_finite_sum, make_synthetic_dataset,
                   parse_config, resolve_config, run_experiment)
from aprid.config import _ALGORITHM_KEYS, _PROBLEM_KEYS
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
                   instance_seed=1, h_normalization="fro", max_elements=10_000)
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


def test_hand_built_config_keys_are_checked_before_any_output(tmp_path):
    misspelt_problem = _hand_built("msa", "qcqp_finite_sum", alpha=1.0, rho=1.0, z_cap=3.0)
    misspelt_problem.problem["instance_sed"] = misspelt_problem.problem.pop("instance_seed")
    msa = dict(alpha=1.0, rho=1.0, z_cap=3.0)
    aprid = dict(alpha=1.0, rho=1.0, beta1=0.9, beta2=0.99, theta=10.0, schedule="constant",
                 divergence_cap=1e8)
    apriad = {k: v for k, v in aprid.items() if k != "divergence_cap"}
    pdsg = dict(alpha=1.0, rho=1.0, eta_scale=0.1, divergence_cap=1e8)
    bilinear = dict(kind="bilinear", n=3, m=3, instance_seed=2, noise_sigma=0.1)
    expectation = dict(kind="qcqp_expectation", n=4, p=2, eval_samples=100,
                       h_normalization="fro")
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


# the shipped QCQP instances have no active constraint (ROADMAP item 4d)
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
    expectation = {"kind": "qcqp_expectation", "n": "3", "p": "2", "eval_samples": "123",
                   "h_normalization": "spectral"}
    assert _sets_every_key(expectation)
    prob = _built(expectation)
    assert (prob.n, prob.p, prob.eval_samples, prob.h_normalization) == (3, 2, 123, "spectral")

    finite_sum = {"kind": "qcqp_finite_sum", "n": "3", "p": "2", "num_objective_terms": "11",
                  "num_constraints": "6", "instance_seed": "5", "h_normalization": "spectral",
                  "max_elements": "1000"}
    assert _sets_every_key(finite_sum)
    prob = _built(finite_sum)
    want = make_qcqp_finite_sum(3, 2, 11, 6, seed=5, h_normalization="spectral")
    assert (prob.n, prob.num_objective_terms, prob.num_constraints) == (3, 11, 6)
    assert np.array_equal(prob.h, want.h) and np.array_equal(prob.q, want.q)
    # 11*2*3 + 11*2 + 6*9 + 6*3 + 6 = 166 stored floats
    with pytest.raises(ConfigError, match="166 floats .* over the 165 budget"):
        _built({**finite_sum, "max_elements": "165"})

    bilinear = {"kind": "bilinear", "n": "3", "m": "4", "instance_seed": "6",
                "noise_sigma": "0.3"}
    assert _sets_every_key(bilinear)
    prob = _built(bilinear, algorithm="apriad")
    assert (prob.n, prob.m, prob.noise_sigma) == (3, 4, 0.3)
    assert np.array_equal(prob.a_mat, make_bilinear_saddle(3, 4, seed=6).a_mat)
