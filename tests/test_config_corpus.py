"""A hostile-value corpus that pins what ``sgmlab validate`` does with a
malformed config.

Each case takes one shipped config in ``configs/`` and gives one of its keys
one value from ``VALUES``.  The keys are every key the config sets, plus
``x0``, ``regularizer``, ``set``, ``noise`` and ``mix``, each added at the
end of its section where the config lacks it: 81 keys × 35 values = 2 835
cases.  ``tests/config_corpus.json`` holds, per case, the exit code of
``validate`` and the ``config error:`` or ``construction error:`` line of
its stderr (empty when there is none), with the config's path replaced by
``<cfg>``.  The cases run in this process, about 3 s in all.

A changed entry is a change of the config grammar and must be listed, with
its reason, in CHANGES.md when the corpus is re-recorded:

    PYTHONPATH=src python tests/test_config_corpus.py --record
"""

import argparse
import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

from sgmlab import cli

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "tests" / "config_corpus.json"
CONFIGS = sorted(ROOT.glob("configs/*.cfg"))
ADDED = {"x0": "method", "regularizer": "method", "set": "method",
         "noise": "problem", "mix": "problem"}
VALUES = (
    "", "0", "1", "-1", "5", "0.5", "-0.5", "3.0", "+3", "1_000", "0x10",
    "1e-320", "1e300", "1e400", "inf", "nan",
    "99999999999999999999", "18446744073709551616",
    "true", "FALSE", "é", "a b", "Rate",
    "zero", "ZERO", "Zero", "WHOLE_SPACE", "L1 0.5", "l1 0", "constant 1e-320",
    "Constant 0.5", "inverse_t", "RECOMMEND", "PROX_SGM", "KACZMARZ",
)
PLACEHOLDER = "<cfg>"


def slots(config: Path) -> dict:
    """'section.key' -> the config's lines with that key's line as a
    template, for every key the config sets and every ``ADDED`` key."""
    lines = config.read_text(encoding="utf-8").splitlines()
    section, last, out = None, {}, {}
    for i, line in enumerate(lines):
        if line.startswith("["):
            section = line.strip("[]")
        elif line and not line.startswith("#"):
            key = line.split("=")[0].strip()
            out[f"{section}.{key}"] = (lines[:i], key, lines[i + 1:])
        if line and section:
            last[section] = i
    for key, section in ADDED.items():
        if f"{section}.{key}" not in out:
            i = last[section] + 1
            out[f"{section}.{key}"] = (lines[:i], key, lines[i:])
    return out


def outcome(path: Path) -> list:
    """[exit code, error line] of ``validate`` on the config at ``path``,
    called past the argument parser, which would cost more than the case."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        code = cli._cmd_validate(argparse.Namespace(config=str(path),
                                                    seed=None))
    line = next((ln for ln in err.getvalue().splitlines()
                 if ln.startswith(("config error:", "construction error:"))),
                "")
    return [code, line.replace(str(path), PLACEHOLDER)]


def run_config(config: Path, tmp: Path) -> dict:
    got = {}
    for slot, (head, key, tail) in slots(config).items():
        for value in VALUES:
            path = tmp / config.name
            path.write_text("\n".join(head + [f"{key} = {value}"] + tail)
                            + "\n", encoding="utf-8")
            got[f"{config.stem} {slot} = {value!r}"] = outcome(path)
    return got


@pytest.mark.parametrize("config", CONFIGS, ids=lambda p: p.stem)
def test_hostile_values_keep_their_recorded_outcome(config, tmp_path):
    recorded = json.loads(CORPUS.read_text(encoding="utf-8"))
    expected = {case: v for case, v in recorded.items()
                if case.startswith(f"{config.stem} ")}
    assert len(expected) == len(slots(config)) * len(VALUES)
    assert run_config(config, tmp_path) == expected


def record() -> None:
    got = {}
    with tempfile.TemporaryDirectory() as tmp:
        for config in CONFIGS:
            got.update(run_config(config, Path(tmp)))
    CORPUS.write_text("{\n" + ",\n".join(
        f"{json.dumps(case, ensure_ascii=False)}: "
        f"{json.dumps(v, ensure_ascii=False)}" for case, v in got.items())
        + "\n}\n", encoding="utf-8")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(__doc__)
    record()
