#!/usr/bin/env python3
"""Run every shipped experiment config and summarize the outcomes.

Usage:
    python3 scripts/run_all_experiments.py [--out-root results]

Each config under configs/ runs in a fresh ``python -m sgmlab run`` process
on the sources in src/; outputs land in <out-root>/<experiment name>/.  Each
run's exit code, wall time (interpreter start included) and peak RSS (the
child's own, from wait4) are printed.  Exits nonzero if any experiment fails
a requested check.
"""

import argparse
import os
import subprocess
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent


def run_config(cfg: Path, out_dir: Path) -> tuple[int, float, float]:
    """Run one config in a fresh process; (exit code, wall s, peak RSS MB)."""
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-m", "sgmlab", "run", str(cfg),
                             "--out", str(out_dir)],
                            env=env, stdin=subprocess.DEVNULL)
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out-root", default="results",
                    help="directory that receives one subdirectory per "
                         "experiment (default: results)")
    args = ap.parse_args(argv)

    configs = sorted((REPO_ROOT / "configs").glob("*.cfg"))
    if not configs:
        print("no configs found under configs/", file=sys.stderr)
        return 2

    failures = []
    for cfg in configs:
        out_dir = Path(args.out_root) / cfg.stem
        print(f"=== {cfg.name} -> {out_dir} ===", flush=True)
        code, wall, rss = run_config(cfg, out_dir)
        print(f"    exit {code} ({wall:.2f} s, peak RSS {rss:.1f} MB)\n")
        if code != 0:
            failures.append((cfg.name, code))

    print(f"{len(configs) - len(failures)}/{len(configs)} experiments passed")
    for name, code in failures:
        print(f"  FAILED: {name} (exit {code})")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
