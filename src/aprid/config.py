"""Experiment configuration: INI files, validation, canonical digests.

A config has three sections:

    [problem]    kind = npc | npc_synthetic | qcqp_expectation |
                        qcqp_finite_sum | bilinear, plus kind-specific keys
    [algorithm]  name = aprid | apriad | msa | csa | pdsg_adp, plus
                 algorithm-specific keys
    [run]        horizon, batch sizes, seeds, checkpoints, reference mode,
                 timing mode

Validation is all-at-once: every problem found is collected and raised in a
single ConfigError. Every key, including defaults the user never wrote, is
resolved to a canonical string and lands in the run manifest; the config
digest is the sha256 of those resolved lines with the seed list excluded
(two runs differing only in seeds are the same experiment).
"""

import configparser
import hashlib
import math
import numbers
from dataclasses import dataclass, field

from .errors import ConfigError
from .results import _resolve_checkpoints

__all__ = ["ExperimentConfig", "parse_config", "resolve_config", "config_digest"]


def _parse_bool(text):
    t = text.strip().lower()
    if t in ("true", "yes", "on", "1"):
        return True
    if t in ("false", "no", "off", "0"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


@dataclass(frozen=True)
class _Number:
    """Parser of one finite ``kind`` (int or float) value in [low, high), or in
    (low, high) with ``open_low``. A range without ``high`` is a sign (``low`` 0)."""

    kind: type
    low: float = -math.inf
    high: float = math.inf
    open_low: bool = False

    def __call__(self, text):
        noun = "integer" if self.kind is int else "number"
        try:
            v = self.kind(text)
        except ValueError:
            raise ValueError(f"expected {'an' if self.kind is int else 'a'} {noun}, "
                             f"got {text!r}") from None
        if not math.isfinite(v):
            raise ValueError(f"expected a finite number, got {text!r}")
        if (v <= self.low if self.open_low else v < self.low) or v >= self.high:
            if self.high < math.inf:
                raise ValueError(f"must lie in {'(' if self.open_low else '['}{self.low}, "
                                 f"{self.high}), got {v}")
            raise ValueError(f"expected a {'positive' if self.open_low else 'non-negative'} "
                             f"{noun}, got {v}")
        return v


_pos_int, _nonneg_int = _Number(int, 0, open_low=True), _Number(int, 0)
_pos_float, _nonneg_float = _Number(float, 0, open_low=True), _Number(float, 0)


def _enum(*choices):
    def parse(text):
        t = text.strip()
        if t not in choices:
            raise ValueError(f"expected one of {choices}, got {text!r}")
        return t

    return parse


def _int_list(text):
    parts = [p for p in text.replace(",", " ").split() if p]
    if not parts:
        raise ValueError("expected a comma-separated list of integers")
    return [_nonneg_int(p) for p in parts]


def _checkpoints(text):
    # a single integer is a count of log-spaced checkpoints; a list of two or
    # more is the explicit iteration list
    values = _int_list(text)
    if values == [0]:
        raise ValueError("a checkpoint count must be at least 1, got 0")
    if any(b <= a for a, b in zip(values, values[1:])):
        raise ValueError("checkpoint list must be strictly increasing")
    return values


@dataclass
class _Key:
    parse: object
    default: object = None
    required: bool = False
    mode: str | None = None  # the one reference mode whose run reads this [run] key


# the dataset preparation and constraint level both NPC kinds share
_NPC_KEYS = {
    "preprocess": _Key(_parse_bool, True),
    "c_hat": _Key(_Number(float)),
    "c_target": _Key(_Number(float)),
    "kappa": _Key(_nonneg_float, 0.0),
    "box_halfwidth": _Key(_pos_float, 100.0),
}

_PROBLEM_KEYS = {
    "npc": {
        "data": _Key(str, required=True),
        "format": _Key(_enum("auto", "dense-csv", "sparse-index-value"), "auto"),
        **_NPC_KEYS,
    },
    "npc_synthetic": {
        "d": _Key(_pos_int, required=True),
        "n_pos": _Key(_pos_int, required=True),
        "n_neg": _Key(_pos_int, required=True),
        "separation": _Key(_pos_float, 2.0),
        "instance_seed": _Key(_nonneg_int, 0),
        **_NPC_KEYS,
    },
    "qcqp_expectation": {
        "n": _Key(_pos_int, required=True),
        "p": _Key(_pos_int, required=True),
        "eval_samples": _Key(_pos_int, 100_000),
        "h_normalization": _Key(_enum("fro", "spectral"), "fro"),
    },
    "qcqp_finite_sum": {
        "n": _Key(_pos_int, required=True),
        "p": _Key(_pos_int, required=True),
        "num_objective_terms": _Key(_pos_int, required=True),
        "num_constraints": _Key(_pos_int, required=True),
        "instance_seed": _Key(_nonneg_int, 0),
        "h_normalization": _Key(_enum("fro", "spectral"), "fro"),
        "max_elements": _Key(_pos_int, 250_000_000),
    },
    "bilinear": {
        "n": _Key(_pos_int, required=True),
        "m": _Key(_pos_int, required=True),
        "instance_seed": _Key(_nonneg_int, 0),
        "noise_sigma": _Key(_nonneg_float, 0.0),
    },
}

_ALGORITHM_KEYS = {
    "aprid": {
        "alpha": _Key(_pos_float, 10.0),
        "rho": _Key(_pos_float, 1.0),
        "beta1": _Key(_Number(float, 0, 1), 0.9),
        "beta2": _Key(_Number(float, 0, 1, open_low=True), 0.99),
        "theta": _Key(_pos_float, 10.0),
        "schedule": _Key(_enum("constant", "sqrt_log"), "constant"),
        "divergence_cap": _Key(_pos_float, 1e8),
    },
    "apriad": {
        "alpha": _Key(_pos_float, 1.0),
        "rho": _Key(_pos_float, 1.0),
        "beta1": _Key(_Number(float, 0, 1), 0.9),
        "beta2": _Key(_Number(float, 0, 1, open_low=True), 0.99),
        "theta": _Key(_pos_float, 10.0),
        "schedule": _Key(_enum("constant", "sqrt"), "constant"),
    },
    "msa": {
        "alpha": _Key(_pos_float, 10.0),
        "rho": _Key(_pos_float, 1.0),
        "z_cap": _Key(_pos_float, 1e3),
    },
    "csa": {
        "gamma": _Key(_pos_float, 10.0),
        "eta_tol": _Key(_nonneg_float, 0.04),
        "s": _Key(_pos_int, 1),
    },
    "pdsg_adp": {
        "alpha": _Key(_pos_float, 20.0),
        "rho": _Key(_pos_float, math.sqrt(10.0)),
        "eta_scale": _Key(_nonneg_float, 0.1),
        "divergence_cap": _Key(_pos_float, 1e8),
    },
}

_RUN_KEYS = {
    "horizon": _Key(_pos_int, required=True),
    "j0": _Key(_pos_int, 10),
    "j1": _Key(_pos_int, 10),
    "jg": _Key(_pos_int, 100),
    "seeds": _Key(_int_list, [0]),
    "checkpoints": _Key(_checkpoints, [50]),
    "reference": _Key(_enum("exact", "best_feasible", "none"), None),
    "reference_tol": _Key(_pos_float, 1e-6, mode="exact"),
    "feasible_tol": _Key(_pos_float, 1e-6, mode="best_feasible"),
    "freeze_samples": _Key(_pos_int, 100_000, mode="exact"),
    "freeze_seed": _Key(_nonneg_int, 0, mode="exact"),
    "timing": _Key(_enum("algo", "total", "none"), "algo"),
}

# the sections whose key table a tag selects: (section, tag, what it names, tables)
_TAGGED = (("problem", "kind", "kind", _PROBLEM_KEYS),
           ("algorithm", "name", "algorithm", _ALGORITHM_KEYS))


@dataclass
class ExperimentConfig:
    """Typed [problem], [algorithm] and [run] sections; manifest lines derive from them."""

    problem: dict
    algorithm: dict
    run: dict
    _raw: dict | None = field(default=None, compare=False, repr=False)  # set by resolve_config

    @property
    def algorithm_name(self) -> str:
        return self.algorithm["name"]

    @property
    def resolved(self) -> dict:
        """Each ``section.key`` with its value's canonical string: the manifest's lines."""
        return {f"{sec}.{key}": _canonical(value) for sec in ("problem", "algorithm", "run")
                for key, value in getattr(self, sec).items()}

    @property
    def digest(self) -> str:
        return config_digest(self.resolved)

    def with_override(self, param, value):
        """New config with one ``section.key`` replaced by ``value``."""
        sec, _, key = param.partition(".")
        if sec not in ("problem", "algorithm", "run") or not key:
            raise ConfigError([f"override target {param!r} must look like section.key"])
        if self._raw is None:
            raise ConfigError(["with_override needs a config made by resolve_config"])
        raw = {name: dict(section) for name, section in self._raw.items()}
        raw[sec][key] = str(value)
        return resolve_config(raw)

    def check_keys(self, sections=("problem", "algorithm", "run")):
        """Raise one ConfigError naming each missing or unknown key of the named
        sections (of [run], a reference mode's keys only under that mode), then,
        with all three complete, each broken cross-key rule. resolve_config holds
        a config to both, so only a config built by hand can fail here."""
        errors = []
        for sec, tag, label, schemas in _TAGGED:
            if sec not in sections:
                continue
            section = getattr(self, sec)
            schema = schemas.get(section.get(tag))
            if schema is None:
                errors.append(f"{sec}.{tag}: unhandled {label} {section.get(tag)!r}")
                continue
            errors += [f"{sec}.{key}: missing key" for key in schema if key not in section]
            errors += [f"{sec}.{key}: unknown key" for key in section
                       if key not in schema and key != tag]
            errors += _kind_errors(sec, section, schema)
        if "run" in sections:
            mode = self.run.get("reference")
            errors += [f"run.{key}: missing key" for key, spec in _RUN_KEYS.items()
                       if key not in self.run and spec.mode in (None, mode)]
            errors += [f"run.{key}: unknown key" for key in self.run if key not in _RUN_KEYS]
            errors += _kind_errors("run", self.run, _RUN_KEYS)
        if not errors and set(sections) == {"problem", "algorithm", "run"}:
            errors = _cross_key_errors(self.problem, self.algorithm, self.run)
        if errors:
            raise ConfigError(errors)


def _kind_errors(sec, section, schema):
    """Messages of a hand-built section's numeric values that are not of their parser's
    kind; the params classes check their range."""
    errors = []
    for key, spec in schema.items():
        if not isinstance(spec.parse, _Number) or key not in section:
            continue
        value, is_int = section[key], spec.parse.kind is int
        if value is None and not spec.required and spec.default is None:
            continue  # an optional key left unset: c_hat or c_target
        if isinstance(value, bool) or not isinstance(
                value, numbers.Integral if is_int else numbers.Real):
            errors.append(f"{sec}.{key}: expected {'an integer' if is_int else 'a number'}, "
                          f"got {value!r}")
    return errors


def _cross_key_errors(problem, algorithm, run):
    """Messages of the rules that tie keys of typed sections together; a rule
    skips a key that is absent because it failed to parse."""
    errors = []
    level = {key: problem[key] is not None for key in ("c_hat", "c_target") if key in problem}
    if len(level) == 2 and level["c_hat"] == level["c_target"]:
        errors.append("problem.c_hat: give exactly one of c_hat or c_target")
    if level.get("c_hat") and problem.get("kappa"):
        errors.append("problem.kappa: kappa only applies together with c_target")
    kind, name = problem["kind"], algorithm["name"]
    if kind == "bilinear" and name != "apriad":
        errors.append(f"algorithm.name: bilinear problems need the minimax solver, not {name!r}")
    if name == "apriad" and kind != "bilinear":
        errors.append(
            f"algorithm.name: the minimax solver only runs on bilinear problems, not {kind!r}")
    if name == "pdsg_adp" and kind == "qcqp_expectation":
        errors.append("algorithm.name: pdsg_adp needs exact per-constraint values; "
                      "qcqp_expectation cannot provide them")
    if name == "apriad" and run.get("reference", "none") != "none":
        errors.append("run.reference: saddle runs report the exact gap; set reference = none")
    cps = run.get("checkpoints")
    if cps is not None and len(cps) != 1 and "horizon" in run:  # one value is a count
        try:
            _resolve_checkpoints(cps, run["horizon"])
        except ValueError as exc:
            errors.append(f"run.checkpoints: {exc}")
    return errors


def _resolve_section(section_name, raw, schema, errors, tag=None):
    out = {}
    for key, spec in schema.items():
        if key in raw:
            try:
                out[key] = spec.parse(raw[key])
            except ValueError as exc:
                errors.append(f"{section_name}.{key}: {exc}")
        elif spec.required:
            errors.append(f"{section_name}.{key}: required key is missing")
        else:
            out[key] = spec.default
    for key in raw:
        if key not in schema and key != tag:
            errors.append(f"{section_name}.{key}: unknown key")
    return out


def _canonical(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(float(value))  # a numpy float prints as its Python float
    if isinstance(value, list):
        return ",".join(_canonical(v) for v in value)
    if value is None:
        return ""
    return str(value)


def config_digest(resolved) -> str:
    """sha256 over the sorted resolved key=value lines, seeds excluded."""
    lines = sorted(f"{k}={v}" for k, v in resolved.items() if k != "run.seeds")
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


def resolve_config(raw) -> ExperimentConfig:
    """Validate a raw {section: {key: str}} mapping into an ExperimentConfig."""
    errors = []
    for sec in raw:
        if sec not in ("problem", "algorithm", "run"):
            errors.append(f"{sec}: unknown section")
    praw = dict(raw.get("problem", {}))
    araw = dict(raw.get("algorithm", {}))
    rraw = dict(raw.get("run", {}))

    for sec, tag, _, schemas in _TAGGED:
        value = raw.get(sec, {}).get(tag)
        if value not in schemas:
            raise ConfigError(errors + [
                f"{sec}.{tag}: expected one of {tuple(schemas)}, got {value!r}"])
    kind, name = praw["kind"], araw["name"]

    problem = {**_resolve_section("problem", praw, _PROBLEM_KEYS[kind], errors, "kind"),
               "kind": kind}
    algorithm = {**_resolve_section("algorithm", araw, _ALGORITHM_KEYS[name], errors, "name"),
                 "name": name}
    run = _resolve_section("run", rraw, _RUN_KEYS, errors)
    if run.get("reference") is None:
        run["reference"] = "none" if kind == "bilinear" else "exact"
    errors += _cross_key_errors(problem, algorithm, run)
    if errors:
        raise ConfigError(errors)
    return ExperimentConfig(problem=problem, algorithm=algorithm, run=run,
                            _raw={"problem": praw, "algorithm": araw, "run": rraw})


def parse_config(path) -> ExperimentConfig:
    """Read and validate an INI experiment config file."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigError([f"cannot read config file {path}: {exc}"]) from None
    except configparser.Error as exc:
        raise ConfigError([f"cannot parse config file {path}: {exc}"]) from None
    raw = {sec: dict(parser.items(sec)) for sec in parser.sections()}
    return resolve_config(raw)
