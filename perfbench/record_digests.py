#!/usr/bin/env python3
"""Record the SHA-256 of every artifact of each workload at its config seed.

Usage:
    python3 perfbench/record_digests.py

Runs each workload once through the CLI, as run.py does, and rewrites
perfbench/digests.json together with the numpy version and BLAS build the
digests were taken under.  Re-recording is a deliberate change of the
benchmark: do it only when a change to the artifacts is intended and
explained.
"""

import json
import shutil
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402  (the benchmark's own module)


def main() -> int:
    run.check_checkout()
    run.OUT_ROOT.mkdir(exist_ok=True)
    record = {"workloads": {}}
    for workload in run.WORKLOADS:
        work_dir = Path(tempfile.mkdtemp(prefix=f"{workload}-",
                                         dir=run.OUT_ROOT))
        try:
            session = run.Session(workload, None, work_dir)
            session.prepare({})
            if session.run(trace=False) is None:
                print("\n".join(session.problems), file=sys.stderr)
                return 1
        finally:
            shutil.rmtree(work_dir, ignore_errors=True)
        record.update(numpy=session.facts["numpy"],
                      blas=session.facts["blas"],
                      python=session.facts["python"])
        record["workloads"][workload] = session.expected
        print(f"{workload}: {len(session.expected)} artifacts")
    run.DIGESTS.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n",
                           encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
