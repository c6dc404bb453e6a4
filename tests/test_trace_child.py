"""The perfbench child's traced mode (``--trace 1``) and the names it traces.

``perfbench/child.py`` wraps each problem's oracle callables by attribute
name, and ``perfbench/run.py`` reads its per-layer metrics by traced name,
so a refactor of ``FiniteSumProblem`` or a renamed function can break
traced runs, or silently zero a metric, with no other test failing.
"""

import importlib
import importlib.util
import inspect
import json
import subprocess
import sys
from pathlib import Path

from sgmlab import problems, rng

ROOT = Path(__file__).resolve().parent.parent
# Traced names that perfbench/run.py reads but no sgmlab function carries,
# each still listed by the benchmark:
# - analysis.stats_from_matrix was deleted once the streamed statistics of
#   EnsembleRun became the only record of a run's curve;
# - geometry.project and geometry.resolvent were deleted once
#   geometry.step_map became the one step map: the whole space and the zero
#   operator step by the identity, so they call no function at all.
STALE_NAMES = {"analysis.stats_from_matrix", "geometry.project",
               "geometry.resolvent"}


def _load_perfbench(name):
    """perfbench/<name>.py as a module, without running its main()."""
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _traced_names(child, problem):
    """Every name child.py's tracer can record: "<label>.<function>" for
    each public function defined in a traced module, ``rng.next_block`` on
    ``IndexStream``, and ``problems.<field>`` for each oracle callable a
    built problem carries."""
    names = {"rng.next_block"} if inspect.isfunction(
        getattr(rng.IndexStream, "next_block", None)) else set()
    for modname, label in child.MODULES.items():
        mod = importlib.import_module(f"sgmlab.{modname}")
        names.update(f"{label}.{attr}" for attr, obj in vars(mod).items()
                     if inspect.isfunction(obj) and not attr.startswith("_")
                     and obj.__module__ == mod.__name__)
    names.update(f"problems.{field}" for field in child.PROBLEM_CALLABLES
                 if callable(getattr(problem, field, None)))
    return names


def test_every_layer_name_the_benchmark_reads_is_traced():
    run, child = _load_perfbench("run"), _load_perfbench("child")
    traced = _traced_names(child, problems.make_two_point_quadratic())
    read = set(run._LAYER_CALLS + run._LAYER_TIMES)
    assert read - traced == STALE_NAMES


def test_traced_run_counts_the_batch_oracle_once_per_step(tmp_path):
    report = tmp_path / "report.json"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "child.py"), str(report),
         "1", "run", str(ROOT / "tests" / "golden"
                         / "quadratic_l1_constant_short.cfg"),
         "--out", str(tmp_path / "out")],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    trace = json.loads(report.read_text())["trace"]
    calls = trace["calls"]
    assert calls["problems.batch_component_grad"] == 400  # T = 400 steps
    assert "problems.solution_projector" not in calls
    # every replication's stream yields exactly one word per step
    assert trace["words"] == 400 * 64  # T·R, R = 64 replications
