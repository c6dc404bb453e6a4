#!/usr/bin/env python3
"""sgmlab benchmark: experiment workloads run through the CLI in a closed loop.

Usage:
    python3 perfbench/run.py --workload NAME|all [--seed N] [--seconds S]
                             [--trace 0|1]

One parent process runs one experiment at a time, each in a fresh Python
process with the CLI's default thread policy (``--threads`` is never
passed).  Until ``--seconds`` have passed, and at least MIN_RUNS times, it
alternates ``sgmlab validate`` (timed as set-up) with ``sgmlab run`` into a
fresh output directory, and checks every run's artifacts:

* the run exits 0;
* at the config's own seed, each artifact's SHA-256 equals the digest in
  digests.json (when numpy and BLAS match the ones recorded there); at any
  other seed every run is byte-identical to the first;
* on resolvent_zero, trajectory_stats.csv and audit_trajectory.csv equal
  those of the same config under sgm (configs/sgm_reference.cfg).

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced runs and prints the per-layer metrics of the traced
ones (see child.py), the tracing overhead, and checks that every count
repeats exactly and that rng.words equals T*R.  The last line of standard
output is one JSON object: correct, attempted, failed and metrics.
``--workload all`` runs every workload in turn and prefixes each metric
with its workload name.
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT_ROOT = ROOT / ".perfbench"
CONFIGS = BENCH / "configs"
DIGESTS = BENCH / "digests.json"

# Why each workload is here is recorded in BENCHMARK.json and README.md.
WORKLOADS = ("wide_prox", "long_narrow", "audit_heavy", "resolvent_zero")
# workload -> (reference config, artifacts that must equal the reference's)
REDUCTIONS = {"resolvent_zero": ("sgm_reference",
                                 ("trajectory_stats.csv",
                                  "audit_trajectory.csv"))}
MIN_RUNS = 3
# A healthy run takes seconds.  Past the window, runs continue only until
# MIN_RUNS have succeeded or GRACE_S more seconds have passed; with the
# child timeout this keeps one invocation under 3 minutes even if children
# hang (two untimed children + window + grace + one last child).
CHILD_TIMEOUT_S = 30
GRACE_S = 40

UNITS = {"run_s": "s", "setup_s": "s", "ns_per_step_rep": "ns",
         "peak_rss_mb": "MB", "ok_frac": "ratio"}

# Per-layer metrics: (metric name, unit).  Traced names in child.py are
# "<module>.<function>"; ".calls" is a call count and ".s" the busy time.
_LAYER_CALLS = ("rng.next_block", "accum.sumsq_cols", "accum.matvec_cols",
                "accum.rowdot_cols", "problems.batch_component_grad",
                "problems.all_component_grads", "problems.solution_projector",
                "geometry.project", "geometry.prox", "geometry.resolvent",
                "growth.enumerate_successors")
_LAYER_TIMES = ("solvers.run_ensemble", "growth.fit_wgc",
                "growth.measured_worst_omega",
                "growth.verify_necessary_condition",
                "growth.contraction_margins", "analysis.stats_from_matrix",
                "analysis.fit_linear_rate", "analysis.check_inverse_t_rate",
                "analysis.write_stats_csv", "cli.parse_config",
                "cli.build_problem", "cli.run_experiment")
LAYER_METRICS = (
    [(f"{n}.calls", "count") for n in _LAYER_CALLS]
    + [(f"{n}.s", "s") for n in _LAYER_CALLS + _LAYER_TIMES]
    + [("numpy.linalg.solve.calls", "count"),
       ("numpy.linalg.cond.calls", "count"),
       ("rng.words", "count"),
       ("accum.sumsq_cols.per_step", "ratio"),
       ("solvers.run_ensemble.cpu_s", "s"),
       ("solvers.self_s", "s"),
       ("cli.self_s", "s"),
       ("cli.artifact_bytes", "bytes"),
       ("trace.overhead_s", "s")])
# Counts that must repeat exactly between traced runs of the same code.
EXACT_COUNTS = tuple(n for n, unit in LAYER_METRICS
                     if unit in ("count", "bytes"))


class BenchError(Exception):
    """The checkout cannot be benchmarked."""


def _config(name: str) -> Path:
    return CONFIGS / f"{name}.cfg"


def config_seed(name: str) -> int:
    parser = configparser.ConfigParser(interpolation=None)
    parser.read(_config(name), encoding="utf-8")
    return int(parser["experiment"]["seed"])


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def spawn(argv: list[str], log: Path) -> tuple[int, float, float]:
    """Run argv in a fresh process; return (exit code, wall s, peak RSS MB).

    The peak RSS is the child's own, from wait4.
    """
    with open(log, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=_child_env(),
                                stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def artifact_digests(out_dir: Path) -> dict:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out_dir.iterdir()) if p.is_file()}


def load_digests() -> dict:
    try:
        return json.loads(DIGESTS.read_text(encoding="utf-8"))
    except FileNotFoundError:
        return {}


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


class Session:
    """One workload measured at one seed: runs, checks and samples."""

    def __init__(self, workload: str, seed: int | None, work_dir: Path):
        self.workload = workload
        self.config = _config(workload)
        self.default_seed = config_seed(workload)
        self.seed = self.default_seed if seed is None else seed
        self.work_dir = work_dir
        self.attempted = 0
        self.failed = 0
        self.steady = True
        self.problems: list[str] = []
        self.facts: dict = {}
        self.cli_threads = None
        self.expected: dict | None = None   # artifact name -> SHA-256
        self.reference: dict = {}
        self._n = 0

    def _cli(self, command: str, config: Path, out: Path | None) -> list[str]:
        args = [command, str(config), "--seed", str(self.seed)]
        if out is not None:
            args += ["--out", str(out)]
        return args

    def _fail(self, message: str) -> None:
        self.failed += 1
        self.problems.append(message)

    def _next_dir(self) -> Path:
        self._n += 1
        path = self.work_dir / f"{self._n:04d}"
        path.mkdir()
        return path

    def _untimed(self, d: Path, argv: list[str], what: str) -> None:
        code, _, _ = spawn(argv, d / "stderr.txt")
        if code != 0:
            raise BenchError(f"{self.workload}: {what} exited {code}: "
                             f"{(d / 'stderr.txt').read_text()[-500:]}")

    def prepare(self, digests: dict) -> None:
        """Untimed: warm the checkout, read the host facts, and fix what
        each run must reproduce."""
        d = self._next_dir()
        self._untimed(d, [sys.executable, str(BENCH / "child.py"),
                          str(d / "report.json"), "0"]
                      + self._cli("validate", self.config, None),
                      "sgmlab validate")
        self.facts = json.loads((d / "report.json").read_text())["facts"]
        shutil.rmtree(d)
        recorded = digests.get("workloads", {}).get(self.workload)
        if self.seed == self.default_seed and recorded is not None:
            env = {k: digests.get(k) for k in ("numpy", "blas")}
            if env == {k: self.facts[k] for k in ("numpy", "blas")}:
                self.expected = recorded
            else:
                print(f"note: digests.json was recorded under {env}; this "
                      f"host has numpy {self.facts['numpy']}, "
                      f"{self.facts['blas']}; checking run-to-run identity "
                      "only", file=sys.stderr)
        if self.workload in REDUCTIONS:
            ref, files = REDUCTIONS[self.workload]
            d = self._next_dir()
            self._untimed(d, [sys.executable, "-m", "sgmlab"]
                          + self._cli("run", _config(ref), d / "out"),
                          f"{ref} run")
            ref_digests = artifact_digests(d / "out")
            self.reference = {f: ref_digests[f] for f in files}
            shutil.rmtree(d)

    def validate(self) -> float:
        """Time ``sgmlab validate`` in a fresh process."""
        d = self._next_dir()
        argv = [sys.executable, "-m", "sgmlab"] + self._cli("validate",
                                                            self.config, None)
        code, wall, _ = spawn(argv, d / "stderr.txt")
        self.attempted += 1
        if code != 0:
            self._fail(f"validate exited {code}: "
                       + (d / "stderr.txt").read_text()[-500:])
        shutil.rmtree(d)
        return wall

    def run(self, trace: bool) -> dict | None:
        """One timed ``sgmlab run``; returns the child's report when the run
        exited 0.  A run that fails an artifact check still gives its
        timings, and counts as failed."""
        d = self._next_dir()
        out, report_path = d / "out", d / "report.json"
        argv = [sys.executable, str(BENCH / "child.py"), str(report_path),
                "1" if trace else "0"] + self._cli("run", self.config, out)
        code, wall, rss = spawn(argv, d / "stderr.txt")
        self.attempted += 1
        try:
            if code != 0:
                self._fail(f"run exited {code}: "
                           + (d / "stderr.txt").read_text()[-500:])
                return None
            self._check(artifact_digests(out))
            report = json.loads(report_path.read_text())
            report.update(run_s=wall, peak_rss_mb=rss,
                          artifact_bytes=sum(p.stat().st_size
                                             for p in out.iterdir()))
            self.cli_threads = report["ensemble"]["threads"]
            if trace:
                shutil.copyfile(f"{report_path}.spans.json",
                                OUT_ROOT / f"{self.workload}.spans.json")
            return report
        finally:
            shutil.rmtree(d)

    def _check(self, digests: dict) -> None:
        if self.expected is None:
            self.expected = digests
        if digests != self.expected:
            names = sorted(n for n in set(digests) | set(self.expected)
                           if digests.get(n) != self.expected.get(n))
            self._fail(f"artifacts differ from the expected digests: {names}")
            return
        for name, want in self.reference.items():
            if digests.get(name) != want:
                self._fail(f"{name} differs from the sgm reference run")
                return


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else float("nan")


def measure(session: Session, seconds: float, trace: bool) -> dict:
    """Closed loop over the window; returns the metrics of one mode."""
    setup, untraced, traced = [], [], []
    deadline = time.perf_counter() + seconds
    while True:
        now = time.perf_counter()
        enough = len(untraced) >= MIN_RUNS and (not trace or len(traced) >= 2)
        if now >= deadline + GRACE_S or (now >= deadline and enough):
            break
        if trace:
            target = traced if len(traced) < len(untraced) else untraced
            report = session.run(trace=target is traced)
        else:
            setup.append(session.validate())
            target, report = untraced, session.run(trace=False)
        if report is not None:
            target.append(report)
    if trace:
        return layer_metrics(session, untraced, traced)
    return {
        "run_s": _median([r["run_s"] for r in untraced]),
        "setup_s": _median(setup),
        "ns_per_step_rep": _median(
            [r["ensemble"]["s"] * 1e9
             / (r["ensemble"]["T"] * r["ensemble"]["R"]) for r in untraced]),
        "peak_rss_mb": max((r["peak_rss_mb"] for r in untraced),
                           default=float("nan")),
        "ok_frac": 1.0 - session.failed / max(session.attempted, 1),
    }


def _layer_values(report: dict) -> dict:
    tr, ens = report["trace"], report["ensemble"]
    calls, busy, self_s = tr["calls"], tr["busy"], tr["self"]
    values = {}
    for name in _LAYER_CALLS:
        values[f"{name}.calls"] = calls.get(name, 0)
    for name in _LAYER_CALLS + _LAYER_TIMES:
        values[f"{name}.s"] = busy.get(name, 0.0)
    values["numpy.linalg.solve.calls"] = calls.get("numpy.linalg.solve", 0)
    values["numpy.linalg.cond.calls"] = calls.get("numpy.linalg.cond", 0)
    values["rng.words"] = tr["words"]
    grads = calls.get("problems.batch_component_grad", 0)
    values["accum.sumsq_cols.per_step"] = (
        calls.get("accum.sumsq_cols", 0) / grads if grads else 0.0)
    values["solvers.run_ensemble.cpu_s"] = ens["cpu_s"]
    values["solvers.self_s"] = self_s.get("solvers.run_ensemble", 0.0)
    values["cli.self_s"] = sum(v for k, v in self_s.items()
                               if k.startswith("cli."))
    values["cli.artifact_bytes"] = report["artifact_bytes"]
    return values


def layer_metrics(session: Session, untraced: list, traced: list) -> dict:
    if not traced:
        return {name: float("nan") for name, _ in LAYER_METRICS}
    runs = [_layer_values(r) for r in traced]
    first = runs[0]
    for other in runs[1:]:
        moved = [n for n in EXACT_COUNTS
                 if n in first and other[n] != first[n]]
        if moved:
            session.problems.append(f"unsteady: counts differ between traced "
                                    f"runs of the same code: {moved}")
            session.steady = False
    ens = traced[0]["ensemble"]
    if first["rng.words"] != ens["T"] * ens["R"]:
        session.problems.append(
            f"rng.words = {first['rng.words']} but T*R = "
            f"{ens['T'] * ens['R']}: index streams are misaligned")
        session.steady = False
    metrics = {}
    for name, unit in LAYER_METRICS:
        if name == "trace.overhead_s":
            continue
        values = [r[name] for r in runs]
        metrics[name] = values[0] if name in EXACT_COUNTS else _median(values)
    metrics["trace.overhead_s"] = (_median([r["run_s"] for r in traced])
                                   - _median([r["run_s"] for r in untraced]))
    return metrics


def bench_workload(workload: str, seed: int | None, seconds: float,
                   trace: bool, digests: dict) -> tuple[Session, dict]:
    OUT_ROOT.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT_ROOT))
    try:
        session = Session(workload, seed, work_dir)
        session.prepare(digests)
        metrics = measure(session, seconds, trace)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    return session, metrics


def check_checkout() -> None:
    needed = [ROOT / "src" / "sgmlab" / "cli.py"]
    needed += [_config(w) for w in WORKLOADS]
    needed += [_config(ref) for ref, _ in REDUCTIONS.values()]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        raise BenchError("not an sgmlab checkout; missing: "
                         + ", ".join(missing))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=None,
                    help="experiment seed forwarded to sgmlab "
                         "(default: each config's own seed)")
    ap.add_argument("--seconds", type=float, default=25.0,
                    help="length of the measuring window per workload")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        check_checkout()
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    digests = load_digests()
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    units = dict(LAYER_METRICS) if args.trace else UNITS
    correct, attempted, failed, result = True, 0, 0, {}
    for workload in workloads:
        try:
            session, metrics = bench_workload(workload, args.seed,
                                              args.seconds, bool(args.trace),
                                              digests)
        except BenchError as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 3
        if any(value != value for value in metrics.values()):   # NaN
            print(f"perfbench: {workload}: no run succeeded", file=sys.stderr)
            for message in session.problems:
                print(f"problem: {message}", file=sys.stderr)
            return 1
        facts = dict(session.facts, workload=workload, seed=session.seed,
                     cli_threads=session.cli_threads, commit=git_commit())
        if args.trace:
            facts["tracing_overhead_s"] = metrics["trace.overhead_s"]
        print("facts: " + json.dumps(facts, sort_keys=True))
        for message in session.problems:
            print(f"problem: {message}", file=sys.stderr)
        print(f"{workload}: attempted {session.attempted}, failed "
              f"{session.failed} (failed_frac "
              f"{session.failed / max(session.attempted, 1):g})")
        prefix = f"{workload}." if args.workload == "all" else ""
        for name, value in metrics.items():
            shown = value if isinstance(value, int) else f"{value:.6g}"
            print(f"  {prefix}{name} = {shown} {units[name]}")
            result[prefix + name] = {"value": value, "unit": units[name]}
        correct &= session.failed == 0 and session.steady
        attempted += session.attempted
        failed += session.failed
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
