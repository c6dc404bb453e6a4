"""Cross-commit golden digests of the artifacts of golden configs.

The golden configs are three shipped configs and six short runs kept in
``tests/golden/<config>.cfg``; the short runs pin the l1 prox, the decaying
step, the wide (R = 1000) batch, the one-column last block of the ensemble
statistics and the identity resolvent at a constant and at a decaying step
(one cached system per run, a new one per step), whose shipped configs are
too long for Tier-1.
``tests/golden/<config>.sha256`` holds the SHA-256 of every artifact the
config writes at its own seed, in ``sha256sum`` format, and
``tests/golden/environment.json`` the numpy version and BLAS build they were
recorded under.  On a host with the same numpy and BLAS the artifacts must
match the recorded digests bit for bit; elsewhere the test falls back to
run-to-run identity, because a different BLAS or numpy may legitimately
round differently.

Re-recording is a deliberate change of the reproducibility baseline and must
be explained in CHANGES.md:

    PYTHONPATH=src python tests/test_golden.py --record
"""

import hashlib
import json
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from sgmlab import cli

ROOT = Path(__file__).resolve().parent.parent
GOLDEN_DIR = ROOT / "tests" / "golden"
ENVIRONMENT = GOLDEN_DIR / "environment.json"
SHIPPED = ("two_point", "kaczmarz_classical", "kaczmarz_recommend")
SHORT = ("quadratic_l1_constant_short", "quadratic_l1_inverse_t_short",
         "quadratic_l1_wide_short", "quadratic_l1_tail_short",
         "kaczmarz_resolvent_short", "kaczmarz_resolvent_inverse_t_short")
CONFIGS = SHIPPED + SHORT


def host_environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"numpy": np.__version__, "blas": blas}


def artifact_digests(out_dir: Path) -> dict:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out_dir.iterdir()) if p.is_file()}


def run_config(name: str, out_dir: Path) -> dict:
    config_dir = ROOT / "configs" if name in SHIPPED else GOLDEN_DIR
    code = cli.main(["run", str(config_dir / f"{name}.cfg"),
                     "--out", str(out_dir)])
    assert code == cli.EXIT_OK
    return artifact_digests(out_dir)


def read_golden(name: str) -> dict:
    lines = (GOLDEN_DIR / f"{name}.sha256").read_text().splitlines()
    return {f: d for d, f in (line.split() for line in lines)}


@pytest.mark.parametrize("name", CONFIGS)
def test_shipped_config_artifacts_match_golden_digests(name, tmp_path):
    got = run_config(name, tmp_path / "a")
    recorded_under = json.loads(ENVIRONMENT.read_text())
    if recorded_under == host_environment():
        assert got == read_golden(name)
    else:
        assert got == run_config(name, tmp_path / "b")


def test_kaczmarz_recommend_golden_equals_perfbench_audit_heavy():
    # perfbench runs the same config as its audit_heavy workload and keeps
    # its own digests; the two stores must not drift apart
    perfbench = ROOT / "perfbench"
    assert ((perfbench / "configs" / "audit_heavy.cfg").read_bytes()
            == (ROOT / "configs" / "kaczmarz_recommend.cfg").read_bytes())
    stored = json.loads((perfbench / "digests.json").read_text())
    assert stored["workloads"]["audit_heavy"] == read_golden(
        "kaczmarz_recommend")


def record() -> None:
    GOLDEN_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name in CONFIGS:
            digests = run_config(name, Path(tmp) / name)
            (GOLDEN_DIR / f"{name}.sha256").write_text(
                "".join(f"{d}  {f}\n" for f, d in digests.items()))
    ENVIRONMENT.write_text(json.dumps(host_environment(), indent=2,
                                      sort_keys=True) + "\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(__doc__)
    record()
