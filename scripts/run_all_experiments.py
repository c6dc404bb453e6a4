#!/usr/bin/env python3
"""Run every shipped experiment config and summarize the outcomes.

Usage:
    python3 scripts/run_all_experiments.py [--out-root results]

Each config under configs/ is executed with the sgmlab CLI; outputs land in
<out-root>/<experiment name>/.  Exits nonzero if any experiment fails a
requested check.
"""

import argparse
import sys
import time
from pathlib import Path

from sgmlab import cli

REPO_ROOT = Path(__file__).resolve().parent.parent


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
        print(f"=== {cfg.name} -> {out_dir} ===")
        t0 = time.perf_counter()
        code = cli.main(["run", str(cfg), "--out", str(out_dir)])
        print(f"    exit {code} ({time.perf_counter() - t0:.1f}s)\n")
        if code != 0:
            failures.append((cfg.name, code))

    print(f"{len(configs) - len(failures)}/{len(configs)} experiments passed")
    for name, code in failures:
        print(f"  FAILED: {name} (exit {code})")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
