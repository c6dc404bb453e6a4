"""The perfbench child's traced mode (``--trace 1``) on a short golden run.

``perfbench/child.py`` wraps each problem's oracle callables by attribute
name, so a refactor of ``FiniteSumProblem`` can break traced runs with no
other test failing.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_traced_run_counts_the_batch_oracle_once_per_step(tmp_path):
    report = tmp_path / "report.json"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "child.py"), str(report),
         "1", "run", str(ROOT / "tests" / "golden"
                         / "quadratic_l1_constant_short.cfg"),
         "--out", str(tmp_path / "out")],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    calls = json.loads(report.read_text())["trace"]["calls"]
    assert calls["problems.batch_component_grad"] == 400  # T = 400 steps
    assert "problems.solution_projector" not in calls
