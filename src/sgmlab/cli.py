"""Config-driven experiment runner.

Subcommands: ``run <config>`` executes an experiment and writes reports,
``validate <config>`` parses and constructs without running, ``report
<dir>`` pretty-prints a results directory.  Configs are INI-style files
with strict key checking — an unknown key is a hard error, because a
silently ignored typo would invalidate whatever the experiment claims.

Exit codes: 0 all requested checks passed; 1 a check failed or was
skipped; 2 config parse error, unusable output directory, or (``report``) a
missing or malformed manifest; 3 problem/solver construction error, or
memory exhausted during simulation; 4 divergence during simulation.
"""

from __future__ import annotations

import argparse
import configparser
import json
import math
import os
import re
import sys
from dataclasses import dataclass, field
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

SEED_MAX = 2 ** 64 - 1  # seeds key the Philox streams as unsigned 64-bit words

_EPILOG = """exit codes:
  0  all requested checks passed
  1  at least one requested check failed or was skipped
  2  config file could not be parsed (bad syntax, unknown or invalid key),
     the output directory cannot be created or written, or report found no
     readable manifest
  3  problem or solver construction failed, or the simulation ran out of
     memory; the latter leaves only a manifest.json with status "error"
     and the reason in the output directory
  4  the iteration diverged (non-finite iterate, or farther than 1e12 from
     the solution set); the output directory then holds only a
     manifest.json with status "diverged"

environment:
  SGMLAB_OUTPUT_ROOT  default root for output directories (default: ./results)
"""

_PROBLEM_KEYS = {
    "two_point": set(),
    "kaczmarz": {"m", "d", "mix", "construction_seed", "consistent", "noise"},
    "quadratic_l1": {"d", "n", "l1_weight", "construction_seed"},
    "custom_matrix_file": {"path"},
}
_SECTION_KEYS = {
    "experiment": {"name", "seed", "iterations", "replications", "checks",
                   "output"},
    "problem": {"kind"}.union(*_PROBLEM_KEYS.values()),
    "method": {"kind", "step", "x0", "set", "regularizer"},
}


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
    """Map (section, key) -> 1-based line number for error messages."""
    section, mapping = None, {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith(("#", ";")):
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip().lower()
            mapping.setdefault((section, None), lineno)
        elif section is not None and ("=" in line or ":" in line):
            # configparser ends the key at the first "=" or ":"
            key = re.split("[=:]", line, maxsplit=1)[0].strip().lower()
            mapping.setdefault((section, key), lineno)
    return mapping


def parse_config(path) -> ExperimentConfig:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    lines = _line_map(text)

    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text, source=str(path))
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}") from exc

    def where(section, key=None):
        lineno = lines.get((section, key)) or lines.get((section, None))
        return f"{path}:{lineno}" if lineno else str(path)

    for section in parser.sections():
        low = section.lower()
        if low not in _SECTION_KEYS:
            raise ConfigError(f"{where(low)}: unknown section [{section}]")
        for key in parser[section]:
            if key not in _SECTION_KEYS[low]:
                raise ConfigError(
                    f"{where(low, key)}: unknown key '{key}' in [{section}]")
    for required in ("experiment", "problem", "method"):
        if not parser.has_section(required):
            raise ConfigError(f"{path}: missing required section [{required}]")

    exp = parser["experiment"]
    prb = parser["problem"]
    mth = parser["method"]

    def need(section_proxy, section_name, key):
        if key not in section_proxy:
            raise ConfigError(
                f"{where(section_name)}: missing required key '{key}' "
                f"in [{section_name}]")
        return section_proxy[key]

    def as_int(section_name, key, raw, minimum=None, maximum=None):
        try:
            value = int(raw)
        except ValueError:
            raise ConfigError(f"{where(section_name, key)}: '{key}' must be "
                              f"an integer, got {raw!r}") from None
        if minimum is not None and value < minimum:
            raise ConfigError(f"{where(section_name, key)}: '{key}' must be "
                              f">= {minimum}, got {value}")
        if maximum is not None and value > maximum:
            raise ConfigError(f"{where(section_name, key)}: '{key}' must be "
                              f"<= {maximum}, got {value}")
        return value

    def as_float(section_name, key, raw):
        try:
            value = float(raw)
        except ValueError:
            raise ConfigError(f"{where(section_name, key)}: '{key}' must be "
                              f"a number, got {raw!r}") from None
        if not math.isfinite(value):
            raise ConfigError(f"{where(section_name, key)}: '{key}' must be "
                              f"a finite number, got {raw!r}")
        return value

    def as_bool(section_name, key, raw):
        low = raw.strip().lower()
        if low in ("true", "yes", "1", "on"):
            return True
        if low in ("false", "no", "0", "off"):
            return False
        raise ConfigError(f"{where(section_name, key)}: '{key}' must be a "
                          f"boolean, got {raw!r}")

    seed = as_int("experiment", "seed", need(exp, "experiment", "seed"), 0,
                  SEED_MAX)
    iterations = as_int("experiment", "iterations",
                        need(exp, "experiment", "iterations"), 1)
    replications = as_int("experiment", "replications",
                          need(exp, "experiment", "replications"), 1)
    name = exp.get("name", path.stem).strip()
    if name in ("", ".", "..") or Path(name).name != name:
        raise ConfigError(f"{where('experiment', 'name')}: 'name' must be a "
                          f"single path component, got {name!r}")

    checks = []
    raw_checks = exp.get("checks", "").replace(",", " ").split()
    for token in raw_checks:
        if token not in CHECKS:
            raise ConfigError(f"{where('experiment', 'checks')}: unknown check "
                              f"{token!r} (allowed: {', '.join(CHECKS)})")
        if token not in checks:
            checks.append(token)

    kind = need(prb, "problem", "kind").strip().lower()
    if kind not in _PROBLEM_KEYS:
        raise ConfigError(f"{where('problem', 'kind')}: unknown problem kind "
                          f"{kind!r} (allowed: {', '.join(_PROBLEM_KEYS)})")
    for key in prb:
        if key != "kind" and key not in _PROBLEM_KEYS[kind]:
            raise ConfigError(f"{where('problem', key)}: key '{key}' does not "
                              f"apply to problem kind '{kind}'")
    params = {}
    if kind == "kaczmarz":
        params["m"] = as_int("problem", "m", prb.get("m", "20"), 1)
        params["d"] = as_int("problem", "d", prb.get("d", "5"), 1)
        params["mix"] = as_float("problem", "mix", prb.get("mix", "0.5"))
        params["construction_seed"] = as_int(
            "problem", "construction_seed",
            prb.get("construction_seed", str(seed)), 0, SEED_MAX)
        params["consistent"] = as_bool("problem", "consistent",
                                       prb.get("consistent", "true"))
        params["noise"] = as_float("problem", "noise", prb.get("noise", "0.1"))
        if params["m"] < params["d"]:
            key = "m" if "m" in prb else "d"
            raise ConfigError(f"{where('problem', key)}: the system needs "
                              f"m >= d rows, got m = {params['m']} < d = "
                              f"{params['d']}")
    elif kind == "quadratic_l1":
        params["dim"] = as_int("problem", "d", prb.get("d", "10"), 1)
        params["n_components"] = as_int("problem", "n", prb.get("n", "20"), 2)
        if params["n_components"] % 2:
            raise ConfigError(f"{where('problem', 'n')}: 'n' must be even "
                              "(the linear terms come in ± pairs), got "
                              f"{params['n_components']}")
        params["l1_weight"] = as_float("problem", "l1_weight",
                                       prb.get("l1_weight", "0.005"))
        if not params["l1_weight"] > 0:
            raise ConfigError(f"{where('problem', 'l1_weight')}: 'l1_weight' "
                              f"must be positive, got {params['l1_weight']}")
        params["construction_seed"] = as_int(
            "problem", "construction_seed",
            prb.get("construction_seed", str(seed)), 0, SEED_MAX)
    elif kind == "custom_matrix_file":
        raw_path = need(prb, "problem", "path").strip()
        params["path"] = str((path.parent / raw_path).resolve()
                             if not os.path.isabs(raw_path) else raw_path)

    method = need(mth, "method", "kind").strip().lower()
    if method not in solvers.METHODS:
        raise ConfigError(f"{where('method', 'kind')}: unknown method "
                          f"{method!r} (allowed: {', '.join(solvers.METHODS)})")
    if "l1_weight" in prb and method != "prox_sgm":
        raise ConfigError(f"{where('problem', 'l1_weight')}: 'l1_weight' "
                          "applies to prox_sgm only")

    step_raw = need(mth, "method", "step").split()
    if not step_raw:
        raise ConfigError(f"{where('method', 'step')}: empty step policy")
    step_kind = step_raw[0].lower()
    if step_kind == "recommend":
        if len(step_raw) != 1:
            raise ConfigError(f"{where('method', 'step')}: 'recommend' takes "
                              "no arguments")
        step_spec = ("recommend",)
    elif step_kind == "constant":
        if len(step_raw) != 2:
            raise ConfigError(f"{where('method', 'step')}: expected "
                              "'constant <gamma>'")
        gamma = as_float("method", "step", step_raw[1])
        if not gamma > 0:
            raise ConfigError(f"{where('method', 'step')}: step size must be "
                              "positive")
        step_spec = ("constant", gamma)
    elif step_kind == "inverse_t":
        if len(step_raw) == 1:
            step_spec = ("inverse_t", None)
        elif len(step_raw) == 2:
            c = as_float("method", "step", step_raw[1])
            if not c > 0:
                raise ConfigError(f"{where('method', 'step')}: inverse_t "
                                  "coefficient must be positive")
            step_spec = ("inverse_t", c)
        else:
            raise ConfigError(f"{where('method', 'step')}: expected "
                              "'inverse_t [c]'")
    else:
        raise ConfigError(f"{where('method', 'step')}: unknown step policy "
                          f"{step_raw[0]!r}")

    if ("inverse_t" in checks and step_spec[0] == "inverse_t"
            and iterations < analysis.INVERSE_T_MIN_ITERS):
        raise ConfigError(f"{where('experiment', 'checks')}: the inverse_t "
                          f"check needs iterations >= "
                          f"{analysis.INVERSE_T_MIN_ITERS}, got {iterations}")

    x0 = None
    if "x0" in mth and mth["x0"].strip().lower() != "zero":
        entries = mth["x0"].replace(",", " ").split()
        try:
            for v in entries:
                float(v)
        except ValueError:
            raise ConfigError(f"{where('method', 'x0')}: x0 must be 'zero' or "
                              "a list of numbers") from None
        x0 = np.array([as_float("method", "x0", v) for v in entries])

    if "set" in mth and method != "psgm":
        raise ConfigError(f"{where('method', 'set')}: 'set' applies to psgm "
                          "only")
    if mth.get("set", "whole_space").strip().lower() != "whole_space":
        raise ConfigError(f"{where('method', 'set')}: only 'whole_space' is "
                          "supported as a config-level constraint set")
    regularizer_spec = None
    if "regularizer" in mth:
        where_reg = where("method", "regularizer")
        if method != "prox_sgm":
            raise ConfigError(f"{where_reg}: 'regularizer' applies to "
                              "prox_sgm only")
        reg = mth["regularizer"].split()
        if reg == ["zero"]:
            regularizer_spec = ("zero",)
        elif len(reg) == 2 and reg[0] in ("constant", "l1"):
            value = as_float("method", "regularizer", reg[1])
            if reg[0] == "l1" and not value > 0:
                raise ConfigError(f"{where_reg}: the l1 weight must be "
                                  f"positive, got {value}")
            if reg[0] == "l1" and kind != "quadratic_l1":
                raise ConfigError(f"{where_reg}: 'l1' moves the solution set, "
                                  "which only problem kind 'quadratic_l1' "
                                  "solves for; use 'zero' or 'constant <c>'")
            regularizer_spec = (reg[0], value)
        else:
            raise ConfigError(f"{where_reg}: unsupported regularizer "
                              f"{mth['regularizer']!r} (use 'zero', "
                              "'constant <c>' or 'l1 <weight>')")

    return ExperimentConfig(
        name=name, seed=seed, iterations=iterations,
        replications=replications, checks=tuple(checks), problem_kind=kind,
        problem_params=params, method=method, step_spec=step_spec, x0=x0,
        regularizer_spec=regularizer_spec, output=exp.get("output"),
        x0_where=where("method", "x0"),
    )


# ---------------------------------------------------------------------------
# Construction
# ---------------------------------------------------------------------------

def build_problem(cfg: ExperimentConfig) -> problems.FiniteSumProblem:
    kind, p = cfg.problem_kind, cfg.problem_params
    if kind == "two_point":
        return problems.make_two_point_quadratic()
    if kind == "kaczmarz":
        sys_ = problems.make_random_kaczmarz_system(
            p["m"], p["d"], p["construction_seed"], mix=p["mix"],
            consistent=p["consistent"], noise=p["noise"])
        return problems.make_kaczmarz_problem(sys_)
    if kind == "quadratic_l1":
        # solve for the regularizer the run uses: prox_sgm's, which may
        # override l1_weight, and none for the methods that iterate on f alone
        reg_spec = (cfg.regularizer_spec if cfg.method == "prox_sgm"
                    else ("zero",))
        return problems.make_quadratic_l1(
            construction_seed=p["construction_seed"], dim=p["dim"],
            n_components=p["n_components"], l1_weight=p["l1_weight"],
            regularizer=None if reg_spec is None
            else build_regularizer(reg_spec))
    sys_ = problems.load_kaczmarz_text(p["path"])
    return problems.make_kaczmarz_problem(sys_)


def build_regularizer(spec: tuple) -> geometry.Regularizer:
    kind, *args = spec
    if kind == "zero":
        return geometry.zero_regularizer()
    if kind == "constant":
        return geometry.constant_regularizer(*args)
    return geometry.l1_regularizer(*args)


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
    return geometry.LinearMonotoneOperator(M_op=np.zeros((problem.dim,
                                                          problem.dim)))


def resolve_step(cfg: ExperimentConfig, problem, geometry_obj):
    """Turn the configured step policy into a concrete one for the method
    ``geometry_obj`` names.

    Returns (policy, rho_pred); rho_pred is NaN when no contraction is
    certified (decaying steps, or a γ the constants do not certify).
    """
    kind = cfg.step_spec[0]
    if kind == "recommend":
        gamma, rho = solvers.recommend_step(
            problem.lipschitz_L, problem.analytic_M,
            checks._effective_mu(problem, geometry_obj), geometry_obj)
        return solvers.ConstantStep(gamma), rho
    if kind == "constant":
        gamma = cfg.step_spec[1]
        return solvers.ConstantStep(gamma), checks.predicted_rho(
            problem, geometry_obj, gamma)
    c = cfg.step_spec[1]
    if c is None:
        mu = checks._effective_mu(problem, geometry_obj)
        if mu <= 0:
            raise ValueError("inverse_t without a coefficient needs a positive "
                             "convexity constant (defaults to 2/mu)")
        c = 2.0 / mu
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
    except MemoryError as exc:
        reason = f"out of memory: {str(exc) or type(exc).__name__}"
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
    """Parse the config and apply a ``--seed`` override; None (after
    reporting) on a config error."""
    try:
        cfg = parse_config(args.config)
        if args.seed is not None:
            if not 0 <= args.seed <= SEED_MAX:
                raise ConfigError(f"--seed must lie in [0, {SEED_MAX}], "
                                  f"got {args.seed}")
            cfg.seed = args.seed
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return None
    return cfg


def _cmd_run(args) -> int:
    cfg = _load_config(args)
    if cfg is None:
        return EXIT_CONFIG
    out_dir = _resolve_output(cfg, args.out)
    return run_experiment(cfg, out_dir)


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
    p_run.add_argument("config", help="path to the experiment config file")
    p_run.add_argument("--seed", type=int, default=None,
                       help="override the master seed")
    p_run.add_argument("--out", default=None,
                       help="output directory (default from config/env)")
    p_run.set_defaults(func=_cmd_run)

    p_val = sub.add_parser("validate", help="parse and construct, but do not run")
    p_val.add_argument("config")
    p_val.add_argument("--seed", type=int, default=None)
    p_val.set_defaults(func=_cmd_validate)

    p_rep = sub.add_parser("report", help="pretty-print a results directory")
    p_rep.add_argument("dir")
    p_rep.set_defaults(func=_cmd_report)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
