"""Config-driven experiment runner.

Subcommands: ``run <config>`` executes an experiment and writes reports,
``validate <config>`` parses and constructs without running, ``report
<dir>`` pretty-prints a results directory.  Configs are INI-style files
with strict key checking — an unknown key is a hard error, because a
silently ignored typo would invalidate whatever the experiment claims.

Exit codes: 0 all requested checks passed; 1 a check failed or was
skipped; 2 config parse error, unusable output directory, or (``report``) a
missing or malformed manifest; 3 problem/solver construction error, or
memory exhausted or the replication worker lost during simulation; 4
divergence during simulation.
"""

from __future__ import annotations

import argparse
import configparser
import json
import math
import os
import sys
from collections import namedtuple
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import analysis, checks, geometry, growth, problems, solvers
from .checks import CHECKS

__all__ = ["main", "parse_config", "run_experiment", "ConfigError",
           "ExperimentConfig"]

OUTPUT_ROOT_ENV = "SGMLAB_OUTPUT_ROOT"

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_CONSTRUCTION = 3
EXIT_DIVERGED = 4

# every file a run may write into its output directory
_ARTIFACTS = ("trajectory_stats.csv", "audit_trajectory.csv", "growth.json",
              "summary.csv", "manifest.json")

_MAX_DIMENSION = int(np.iinfo(np.intp).max)  # numpy's axis and byte limit
# the (rows, cols) size keys of each float64 array a problem kind builds
_FLOAT_ARRAYS = {"kaczmarz": (("m", "d"),),
                 "quadratic_l1": (("d", "d"), ("n", "d"))}
SEED_MAX = 2 ** 64 - 1  # seeds key the Philox streams as unsigned 64-bit words

_EPILOG = """exit codes:
  0  all requested checks passed
  1  at least one requested check failed or was skipped
  2  config file could not be parsed (bad syntax, unknown or invalid key),
     the output directory cannot be created or written, or report found no
     readable manifest
  3  problem or solver construction failed, or the simulation ran out of
     memory or lost its replication worker (killed by a signal); the
     latter two leave only a manifest.json with status "error" and the
     reason in the output directory
  4  the iteration diverged (non-finite iterate, or farther than 1e12 from
     the solution set); the output directory then holds only a
     manifest.json with status "diverged"

environment:
  SGMLAB_OUTPUT_ROOT  default root for output directories (default: ./results)
"""

class ConfigError(Exception):
    """A config file failed strict parsing or validation."""


@dataclass
class ExperimentConfig:
    name: str
    seed: int
    iterations: int
    replications: int
    checks: tuple
    problem_kind: str
    problem_params: dict
    method: str
    step_spec: tuple
    x0: np.ndarray | None = None
    regularizer_spec: tuple | None = None
    output: str | None = None
    x0_where: str = ""  # "path:line" of x0, for the length check at build


def _line_map(text: str) -> dict:
    """Map (section, key) -> 1-based line number for error messages, matched
    with configparser's own patterns for headers and keys."""
    ini, section, mapping = configparser.ConfigParser, None, {}
    for lineno, line in enumerate(map(str.strip, text.splitlines()), 1):
        if header := ini.SECTCRE.match(line):
            section = header["header"].lower()
            mapping.setdefault((section, None), lineno)
        elif section is not None and (option := ini.OPTCRE.match(line)):
            mapping.setdefault((section, option["option"].lower()), lineno)
    return mapping


# ---------------------------------------------------------------------------
# The config grammar: one table per section, then the rules across keys
# ---------------------------------------------------------------------------

def _fold(word: str) -> str:  # the one case fold of every keyword token
    return word.strip().lower()


def _integer(minimum, maximum=math.inf):
    def parse(key, text, source):
        try:
            value = int(text)
        except ValueError:
            raise ConfigError(f"'{key}' must be an integer, got {text!r}") \
                from None
        if not minimum <= value <= maximum:
            bound = f">= {minimum}" if value < minimum else f"<= {maximum}"
            raise ConfigError(f"'{key}' must be {bound}, got {value}")
        return value
    return parse


def _number(key, text, source=None):
    try:
        value = float(text)
    except ValueError:
        raise ConfigError(f"'{key}' must be a number, got {text!r}") from None
    if not math.isfinite(value):
        raise ConfigError(f"'{key}' must be a finite number, got {text!r}")
    return value


def _positive(key, text, source):
    if (value := _number(key, text)) > 0:
        return value
    raise ConfigError(f"'{key}' must be positive, got {value}")


def _words(options, message):
    """A case-folded keyword of ``options``, mapped to its value."""
    def parse(key, text, source):
        if _fold(text) in options:
            return options[_fold(text)]
        raise ConfigError(message.format(key=key, text=text, word=_fold(text),
                                          allowed=", ".join(options)))
    return parse


def _name(key, text, source):
    if (name := text.strip()) in ("", ".", "..") or Path(name).name != name:
        raise ConfigError(f"'name' must be a single path component, got "
                          f"{name!r}")
    return name


def _checks(key, text, source):
    check = _words(dict(zip(CHECKS, CHECKS)), "unknown check {text!r} "
                   "(allowed: {allowed})")
    return tuple(dict.fromkeys(check(key, token, source)
                               for token in text.replace(",", " ").split()))


def _matrix_path(key, text, source):  # relative to the config's directory
    text = text.strip()
    return text if os.path.isabs(text) else str((source.parent / text)
                                                .resolve())


def _step(key, text, source):
    words = text.split()
    if not words:
        raise ConfigError("empty step policy")
    kind, args = _fold(words[0]), words[1:]
    if kind == "recommend" and not args:
        return ("recommend",)
    if kind == "constant" and len(args) == 1:
        if (gamma := _number(key, args[0])) > 0:
            return ("constant", gamma)
        raise ConfigError("step size must be positive")
    if kind == "inverse_t" and len(args) <= 1:
        c = _number(key, args[0]) if args else None
        if c is not None and not c > 0:
            raise ConfigError("inverse_t coefficient must be positive")
        return ("inverse_t", c)
    raise ConfigError({"recommend": "'recommend' takes no arguments",
                       "constant": "expected 'constant <gamma>'",
                       "inverse_t": "expected 'inverse_t [c]'"}.get(
        kind, f"unknown step policy {words[0]!r}"))


def _x0(key, text, source):
    if _fold(text) == "zero":
        return None
    entries = text.replace(",", " ").split()
    try:
        [float(v) for v in entries]
    except ValueError:
        raise ConfigError("x0 must be 'zero' or a list of numbers") from None
    return np.array([_number(key, v) for v in entries])


def _regularizer(key, text, source):
    kind, *args = text.split() or [""]
    kind = _fold(kind)
    if (kind, len(args)) in (("zero", 0), ("constant", 1), ("l1", 1)):
        value = tuple(_number(key, a) for a in args)
        if kind == "l1" and not value[0] > 0:
            raise ConfigError(f"the l1 weight must be positive, got {value[0]}")
        return (kind, *value)
    raise ConfigError(f"unsupported regularizer {text!r} (use 'zero', "
                      "'constant <c>' or 'l1 <weight>')")


_REQUIRED = object()
# A key: parse(key, text, config_path) gives its value or raises ConfigError;
# default is the text an absent key stands for (None: no value; a callable
# of the parser and config path derives it).  It applies to its methods only
# and while when = (wording, test of the section's values) holds.  param is
# its problem_params name, a keyword of the problem's constructor.
_Key = namedtuple("_Key", "parse default methods when param",
                  defaults=(_REQUIRED, solvers.METHODS, None, None))

_BOOLEANS = {**dict.fromkeys(("true", "yes", "1", "on"), True),
             **dict.fromkeys(("false", "no", "0", "off"), False)}
_EXPERIMENT = {  # each key names an ExperimentConfig field
    "seed": _Key(_integer(0, SEED_MAX)),
    "iterations": _Key(_integer(1)),
    "replications": _Key(_integer(1)),
    "name": _Key(_name, lambda parser, path: path.stem),
    "checks": _Key(_checks, ""),
    "output": _Key(lambda key, text, source: text, None),
}
_FILE_SEED = _Key(_EXPERIMENT["seed"].parse,
                  lambda parser, path: parser["experiment"]["seed"])
_PROBLEMS = {  # problem kind -> its keys besides 'kind'
    "two_point": {},
    "kaczmarz": {
        "m": _Key(_integer(1), "20"),
        "d": _Key(_integer(1), "5"),
        "mix": _Key(_number, "0.5"),
        "construction_seed": _FILE_SEED,
        "consistent": _Key(_words(_BOOLEANS, "'{key}' must be a boolean, got "
                                  "{text!r}"), "true"),
        "noise": _Key(_number, "0.1", when=("consistent = false",
                                            lambda p: not p["consistent"])),
    },
    "quadratic_l1": {
        "d": _Key(_integer(1), "10", param="dim"),
        "n": _Key(_integer(2), "20", param="n_components"),
        "l1_weight": _Key(_positive, "0.005", methods=("prox_sgm",)),
        "construction_seed": _FILE_SEED,
    },
    "custom_matrix_file": {"path": _Key(_matrix_path)},
}
_METHOD = {  # the keys of [method] besides 'kind'
    "step": _Key(_step),
    "x0": _Key(_x0, "zero"),
    "set": _Key(_words({"whole_space": "whole_space"}, "only 'whole_space' "
                       "is supported as a config-level constraint set"),
                "whole_space", methods=("psgm",)),
    "regularizer": _Key(_regularizer, None, methods=("prox_sgm",)),
}
_KINDS = {"problem": _Key(_words(dict(zip(_PROBLEMS, _PROBLEMS)), "unknown "
                                 "problem kind {word!r} (allowed: {allowed})")),
          "method": _Key(_words(dict(zip(solvers.METHODS, solvers.METHODS)),
                                "unknown method {word!r} (allowed: {allowed})"))}
_SECTIONS = {"experiment": set(_EXPERIMENT),
             "problem": {"kind"}.union(*_PROBLEMS.values()),
             "method": {"kind", *_METHOD}}


def _broken_rules(cfg: ExperimentConfig):
    """(section, keys, message) for each rule across keys that ``cfg``
    breaks; its error cites the first of ``keys`` that the file sets."""
    p, reg = cfg.problem_params, cfg.regularizer_spec or ("",)
    if cfg.problem_kind == "kaczmarz" and p["m"] < p["d"]:
        yield ("problem", ("m", "d"), f"the system needs m >= d rows, got "
               f"m = {p['m']} < d = {p['d']}")
    if cfg.problem_kind == "quadratic_l1" and p["n_components"] % 2:
        yield ("problem", ("n",), "'n' must be even (the linear terms come "
               f"in ± pairs), got {p['n_components']}")
    if ("inverse_t" in cfg.checks and cfg.step_spec[0] == "inverse_t"
            and cfg.iterations < analysis.INVERSE_T_MIN_ITERS):
        yield ("experiment", ("checks",), "the inverse_t check needs "
               f"iterations >= {analysis.INVERSE_T_MIN_ITERS}, got "
               f"{cfg.iterations}")
    if reg[0] == "l1" and cfg.problem_kind != "quadratic_l1":
        yield ("method", ("regularizer",), "'l1' moves the solution set, "
               "which only problem kind 'quadratic_l1' solves for; use "
               "'zero' or 'constant <c>'")


def parse_config(path) -> ExperimentConfig:
    path = Path(path)
    parser = configparser.ConfigParser(interpolation=None)
    try:
        text = path.read_text(encoding="utf-8")
        parser.read_string(text, source=str(path))
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    lines = _line_map(text)

    def where(section, key=None):
        section = section.lower()
        lineno = lines.get((section, key)) or lines.get((section, None))
        return f"{path}:{lineno}" if lineno else str(path)

    def fail(section, key, message):
        raise ConfigError(f"{where(section, key)}: {message}")

    for section in _SECTIONS:
        if not parser.has_section(section):
            raise ConfigError(f"{path}: missing required section [{section}]")

    def value(section, key, spec):
        text = parser[section].get(key, spec.default)
        text = text(parser, path) if callable(text) else text
        if text is _REQUIRED:
            fail(section, None, f"missing required key '{key}' in [{section}]")
        try:
            return None if text is None else spec.parse(key, text, path)
        except ConfigError as exc:
            fail(section, key, str(exc))

    kind, method = (value(s, "kind", spec) for s, spec in _KINDS.items())
    for section in parser.sections():
        if section.lower() not in _SECTIONS:
            fail(section, None, f"unknown section [{section}]")
        for key in parser[section]:
            if key not in _SECTIONS[section.lower()]:
                fail(section, key, f"unknown key '{key}' in [{section}]")
            if section == "problem" and key not in {"kind", *_PROBLEMS[kind]}:
                fail(section, key, f"key '{key}' does not apply to problem "
                                   f"kind '{kind}'")
    # a key its method does not take is refused before its value is read,
    # one whose condition is on another key's value after
    values = {}
    for section, table in (("experiment", _EXPERIMENT),
                           ("problem", _PROBLEMS[kind]), ("method", _METHOD)):
        got = values[section] = {}
        for key, spec in table.items():
            if key in parser[section] and method not in spec.methods:
                fail(section, key, f"'{key}' applies to "
                                   f"{' and '.join(spec.methods)} only")
            got[key] = value(section, key, spec)
            if spec.when and key in parser[section] and not spec.when[1](got):
                fail(section, key, f"'{key}' applies to {spec.when[0]} only")
    mth = values["method"]
    cfg = ExperimentConfig(
        **values["experiment"], problem_kind=kind, method=method,
        problem_params={spec.param or key: values["problem"][key]
                        for key, spec in _PROBLEMS[kind].items()},
        step_spec=mth["step"], x0=mth["x0"],
        regularizer_spec=mth["regularizer"], x0_where=where("method", "x0"))
    for section, keys, message in _broken_rules(cfg):
        fail(section, next((k for k in keys if k in parser[section]), None),
             message)
    return cfg


# ---------------------------------------------------------------------------
# Construction
# ---------------------------------------------------------------------------

def build_problem(cfg: ExperimentConfig) -> problems.FiniteSumProblem:
    kind, p = cfg.problem_kind, cfg.problem_params  # the constructor's kwargs
    size = {key: p[spec.param or key] for key, spec in _PROBLEMS[kind].items()
            if key in ("m", "d", "n")}  # the keys that size an array
    for key, value in size.items():
        if value > _MAX_DIMENSION:
            raise ValueError(f"{key} = {value} exceeds the largest array "
                             f"dimension numpy allows ({_MAX_DIMENSION})")
    for rows, cols in _FLOAT_ARRAYS.get(kind, ()):
        nbytes = size[rows] * size[cols] * 8
        if nbytes > _MAX_DIMENSION:
            named = " and ".join(dict.fromkeys(f"{key} = {size[key]}"
                                               for key in (rows, cols)))
            raise ValueError(f"{named}: a {size[rows]} x {size[cols]} float "
                             f"array takes {nbytes} bytes, more than numpy "
                             f"can address ({_MAX_DIMENSION})")
    try:
        if kind == "two_point":
            return problems.make_two_point_quadratic()
        if kind == "quadratic_l1":
            # solve for the run's regularizer: prox_sgm's, which may override
            # l1_weight, and none for the methods that iterate on f alone
            reg_spec = (cfg.regularizer_spec if cfg.method == "prox_sgm"
                        else ("zero",))
            return problems.make_quadratic_l1(
                **p, regularizer=None if reg_spec is None
                else build_regularizer(reg_spec))
        return problems.make_kaczmarz_problem(
            problems.make_random_kaczmarz_system(**p) if kind == "kaczmarz"
            else problems.load_kaczmarz_text(p["path"]))
    except MemoryError as exc:
        if not size:
            raise
        named = ", ".join(f"{key} = {value}" for key, value in size.items())
        raise MemoryError(f"{str(exc) or 'out of memory'} (size keys: "
                          f"{named})") from None


def build_regularizer(spec: tuple) -> geometry.Regularizer:
    """g ≡ c has the identity prox whatever c is, so it is the zero
    regularizer."""
    if spec[0] == "l1":
        return geometry.l1_regularizer(spec[1])
    return geometry.zero_regularizer()


def build_geometry(cfg: ExperimentConfig, problem):
    if cfg.method == "sgm":
        return None
    if cfg.method == "psgm":
        return geometry.whole_space()
    if cfg.method == "prox_sgm":
        if cfg.regularizer_spec is not None:
            return build_regularizer(cfg.regularizer_spec)
        if problem.regularizer is None:
            raise ValueError("prox_sgm needs a regularizer: this problem has "
                             "no built-in one, set 'regularizer' in [method]")
        return problem.regularizer
    return geometry.LinearMonotoneOperator()


def resolve_step(cfg: ExperimentConfig, problem, geometry_obj):
    """Turn the configured step policy into a concrete one for the method
    ``geometry_obj`` names.

    Returns (policy, rho_pred); rho_pred is NaN when no contraction is
    certified (decaying steps, or a γ the constants do not certify).
    """
    kind = cfg.step_spec[0]
    if kind == "recommend":
        gamma, rho = solvers.recommend_step(
            problem.lipschitz_L, problem.analytic_M, problem.strong_mu,
            geometry_obj)
        return solvers.ConstantStep(gamma), rho
    if kind == "constant":
        gamma = cfg.step_spec[1]
        return solvers.ConstantStep(gamma), checks.predicted_rho(
            problem, geometry_obj, gamma)
    c = cfg.step_spec[1]
    if c is None:
        if problem.strong_mu <= 0:
            raise ValueError("inverse_t without a coefficient needs a positive "
                             "convexity constant (defaults to 2/mu)")
        c = 2.0 / problem.strong_mu
    return solvers.InverseTStep(c), math.nan


# ---------------------------------------------------------------------------
# Output files
# ---------------------------------------------------------------------------

def _num(x):
    """JSON-safe float (None for NaN, keeps Infinity)."""
    if x is None:
        return None
    x = float(x)
    return None if math.isnan(x) else x


def _write_audit_csv(path, traj):
    T, chunk = traj.iters, analysis._CSV_ROWS
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("t,dist_sq,gamma_t,sampled_index\n")
        for lo in range(0, T, chunk):
            hi = min(lo + chunk, T)
            rows = zip(traj.dist_sq[lo:hi].tolist(),
                       traj.step_values[lo:hi].tolist(),
                       traj.sampled_indices[lo:hi].tolist())
            fh.write("".join(f"{t},{d!r},{g!r},{i}\n"
                             for t, (d, g, i) in enumerate(rows, lo)))
        fh.write(f"{T},{traj.dist_sq[T].item()!r},,\n")  # no step from T


def _summary_row(cfg, step, rho_pred, results):
    fmt = lambda v: "" if v is None else analysis.format_float(v)
    rate, floor = results.get("rate", {}), results.get("floor", {})
    row = {
        "experiment": cfg.name,
        "problem": cfg.problem_kind,
        "method": cfg.method,
        "step": step.kind,
        "gamma": analysis.format_float(step.value(0)),
        "rho_pred": "" if math.isnan(rho_pred)
                    else analysis.format_float(rho_pred),
        "rate_fit": fmt(rate.get("rate_fit")),
        "rate_stderr": fmt(rate.get("rate_stderr")),
        "floor_pred": fmt(floor.get("floor_pred")),
        "floor_fit": fmt(floor.get("floor_fit")),
        "loglog_slope": fmt(results.get("inverse_t", {}).get("slope")),
    }
    for check in CHECKS:
        row[f"check_{check}"] = results.get(check, {}).get("status",
                                                           "not_requested")
    return row


def _resolve_output(cfg: ExperimentConfig, override: str | None) -> Path:
    if override:
        return Path(override)
    if cfg.output:
        return Path(cfg.output)
    root = os.environ.get(OUTPUT_ROOT_ENV, "results")
    return Path(root) / cfg.name


def _write_manifest(out_dir: Path, manifest: dict) -> None:
    with open(out_dir / "manifest.json", "w", encoding="utf-8",
              newline="\n") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True, default=_num)
        fh.write("\n")


def _construct(cfg: ExperimentConfig):
    """(spec, rho_pred) for the config's run, or the exit code after
    reporting a config or construction error."""
    try:
        problem = build_problem(cfg)
        if cfg.x0 is not None and len(cfg.x0) != problem.dim:
            # the dimension is known only now, but the fault is the config's
            print(f"config error: {cfg.x0_where}: x0 has {len(cfg.x0)} "
                  f"entries, but the problem dimension is d = {problem.dim}",
                  file=sys.stderr)
            return EXIT_CONFIG
        geometry_obj = build_geometry(cfg, problem)
        policy, rho_pred = resolve_step(cfg, problem, geometry_obj)
        spec = solvers.SolverRun(problem=problem, geometry=geometry_obj,
                                 step=policy, iters=cfg.iterations,
                                 seed=cfg.seed, x0=cfg.x0)
    except (ValueError, RuntimeError, OSError, MemoryError) as exc:
        print(f"construction error: {str(exc) or type(exc).__name__}",
              file=sys.stderr)
        return EXIT_CONSTRUCTION
    return spec, rho_pred


def run_experiment(cfg: ExperimentConfig, out_dir: Path) -> int:
    """Build, run, check, and write artifacts.  Returns the exit code."""
    built = _construct(cfg)
    if isinstance(built, int):
        return built
    spec, rho_pred = built

    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"cannot create output directory {out_dir}: {exc}",
              file=sys.stderr)
        return EXIT_CONFIG
    if not os.access(out_dir, os.W_OK):
        print(f"output directory {out_dir} is not writable", file=sys.stderr)
        return EXIT_CONFIG
    # the directory must never mix this run's files with an earlier run's,
    # also when this run diverges or writes no growth report
    for name in _ARTIFACTS:
        (out_dir / name).unlink(missing_ok=True)

    manifest = {
        "experiment": cfg.name,
        "seed": cfg.seed,
        "problem": cfg.problem_kind,
        "method": cfg.method,
        "iterations": cfg.iterations,
        "replications": cfg.replications,
    }
    try:
        ens = solvers.run_ensemble(spec, cfg.replications)
    except solvers.DivergenceError as exc:
        print(f"divergence: {exc}", file=sys.stderr)
        manifest.update(status="diverged", t=exc.t,
                        replication=exc.replication)
        _write_manifest(out_dir, manifest)
        return EXIT_DIVERGED
    except (MemoryError, solvers.WorkerError) as exc:
        reason = (str(exc) if isinstance(exc, solvers.WorkerError)
                  else f"out of memory: {str(exc) or type(exc).__name__}")
        print(f"simulation error: {reason}", file=sys.stderr)
        manifest.update(status="error", reason=reason)
        _write_manifest(out_dir, manifest)
        return EXIT_CONSTRUCTION

    run = checks.RunContext(spec, rho_pred, ens)
    results = {name: check(run) for name, check in CHECKS.items()
               if name in cfg.checks}

    analysis.write_stats_csv(out_dir / "trajectory_stats.csv",
                             ens.mean_dist_sq, ens.stderr)
    _write_audit_csv(out_dir / "audit_trajectory.csv", ens.audit)
    if "wgc" in cfg.checks or "sgc" in cfg.checks:
        growth.write_growth_json(out_dir / "growth.json", run.growth_report)
    analysis.write_summary_csv(out_dir / "summary.csv",
                               _summary_row(cfg, spec.step, rho_pred, results))

    all_pass = all(r.get("status") == "pass" for r in results.values())
    manifest.update(gamma=_num(spec.step.value(0)), rho_pred=_num(rho_pred),
                    checks=results, all_checks_passed=all_pass)
    _write_manifest(out_dir, manifest)  # keys sorted: insertion order is moot

    for check in cfg.checks:
        status = results[check]["status"]
        detail = results[check].get("reason", "")
        print(f"check {check}: {status}" + (f" ({detail})" if detail else ""))
    return EXIT_OK if all_pass else EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------

def _load_config(args) -> ExperimentConfig | None:
    """Parse the config and apply a ``--seed`` override, which the grammar's
    seed entry checks; None (after reporting) on a config error."""
    try:
        cfg = parse_config(args.config)
        if args.seed is not None:
            cfg.seed = _EXPERIMENT["seed"].parse("--seed", args.seed, None)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return None
    return cfg


def _cmd_run(args) -> int:
    cfg = _load_config(args)
    if cfg is None:
        return EXIT_CONFIG
    return run_experiment(cfg, _resolve_output(cfg, args.out))


def _cmd_validate(args) -> int:
    cfg = _load_config(args)
    if cfg is None:
        return EXIT_CONFIG
    built = _construct(cfg)
    if isinstance(built, int):
        return built
    spec, rho_pred = built
    gamma0 = spec.step.value(0)
    print(f"config ok: {cfg.name}: {cfg.method} on {cfg.problem_kind}, "
          f"T={cfg.iterations}, R={cfg.replications}, gamma_0={gamma0:g}"
          + ("" if math.isnan(rho_pred) else f", rho_pred={rho_pred:g}")
          + (f", checks: {', '.join(cfg.checks)}" if cfg.checks else ""))
    return EXIT_OK


def _cmd_report(args) -> int:
    manifest_path = Path(args.dir) / "manifest.json"
    try:
        with open(manifest_path, "r", encoding="utf-8") as fh:
            manifest = json.load(fh)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        print(f"cannot read {manifest_path}: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    checks = manifest.get("checks", {}) if isinstance(manifest, dict) else None
    if not (isinstance(checks, dict)
            and all(isinstance(c, dict) for c in checks.values())):
        print(f"cannot read {manifest_path}: not an sgmlab manifest (expected "
              "an object whose 'checks' maps names to objects)",
              file=sys.stderr)
        return EXIT_CONFIG
    print(f"experiment: {manifest.get('experiment')}")
    print(f"  problem={manifest.get('problem')} method={manifest.get('method')}"
          f" T={manifest.get('iterations')} R={manifest.get('replications')}"
          f" seed={manifest.get('seed')}")
    if manifest.get("status") == "diverged":
        print(f"  diverged at step t={manifest.get('t')} in replication "
              f"{manifest.get('replication')}")
        return EXIT_DIVERGED
    if manifest.get("status") == "error":
        print(f"  failed: {manifest.get('reason')}")
        return EXIT_CONSTRUCTION
    for name in sorted(checks):
        entry = dict(checks[name])
        status = entry.pop("status", "?")
        details = ", ".join(f"{k}={entry[k]}" for k in sorted(entry))
        print(f"  {name}: {status}" + (f"  [{details}]" if details else ""))
    if not checks:
        print("  (no checks requested)")
    return EXIT_OK if manifest.get("all_checks_passed") else EXIT_CHECK_FAILED


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="sgmlab",
        description="Constant-step stochastic gradient experiments: linear "
                    "rates, growth conditions, and noise floors.",
        epilog=_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment config")
    p_run.set_defaults(func=_cmd_run)
    p_val = sub.add_parser("validate", help="parse and construct, but do not run")
    p_val.set_defaults(func=_cmd_validate)
    for p in (p_run, p_val):
        p.add_argument("config", help="path to the experiment config file")
        p.add_argument("--seed", default=None, help="override the master seed")
    p_run.add_argument("--out", default=None,
                       help="output directory (default from config/env)")

    p_rep = sub.add_parser("report", help="pretty-print a results directory")
    p_rep.add_argument("dir")
    p_rep.set_defaults(func=_cmd_report)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
