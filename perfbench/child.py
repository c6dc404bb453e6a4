"""Run one sgmlab CLI command in this process with timing hooks installed.

Usage:
    python3 perfbench/child.py REPORT TRACE SGMLAB-ARGS...

Runs ``sgmlab.cli.main(SGMLAB-ARGS)`` from the checkout's ``src/`` and exits
with its code.  Before that it writes REPORT, a JSON file with host facts
and the wall time, process CPU time and size of the run's single
``solvers.run_ensemble`` call.  With TRACE = 1 it also wraps every public
function of the sgmlab modules, ``IndexStream.next_block``, each problem's
batch callables and ``numpy.linalg.solve``/``cond``, and adds per-name call
counts, busy time and self time, plus the spans themselves in
REPORT + ".spans.json".  All hooks live here; nothing in ``src/`` changes.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import platform
import sys
import threading
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# Module file name -> metric prefix (a metric name may not start with "_").
MODULES = {"rng": "rng", "_accum": "accum", "problems": "problems",
           "geometry": "geometry", "solvers": "solvers", "growth": "growth",
           "analysis": "analysis", "cli": "cli"}
PROBLEM_CALLABLES = ("batch_component_grad", "all_component_grads",
                     "solution_projector")
# Full spans kept per name; later calls of a name (the per-step ones) are
# only counted into its totals, which keeps memory and overhead bounded.
SPAN_CAP = 256


class _Frame:
    __slots__ = ("name", "id", "parent", "start", "active", "cover_start",
                 "covered")

    def __init__(self, name, id_, parent, start):
        self.name, self.id, self.parent, self.start = name, id_, parent, start
        self.active = 0
        self.cover_start = 0.0
        self.covered = 0.0


class Tracer:
    """Spans at every wrapped call, with per-name totals.

    A call's parent is the innermost open wrapped call in its thread.  A call
    made by a worker thread outside any wrapped call gets the innermost open
    call of the main thread as parent (``run_ensemble`` while its thread pool
    runs).  Self time is a call's duration minus the union of its children's
    intervals, so children that overlap in two threads are not counted twice.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main = self._stack()
        self._next_id = 0
        self.calls: dict[str, int] = {}
        self.busy: dict[str, float] = {}
        self.self_s: dict[str, float] = {}
        self.words = 0
        self.spans: list[tuple] = []   # (name, id, parent id, start, end, thread)

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, count_words: bool = False):
        lock = self._lock
        main = self._main

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else (main[-1] if main else None)
            start = time.perf_counter()
            with lock:
                self._next_id += 1
                frame = _Frame(name, self._next_id, parent, start)
                if parent is not None:
                    if parent.active == 0:
                        parent.cover_start = start
                    parent.active += 1
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self._close(frame, end)
            if count_words:
                with lock:
                    self.words += len(result)
            return result

        return traced

    def _close(self, frame: _Frame, end: float) -> None:
        name, parent = frame.name, frame.parent
        with self._lock:
            if parent is not None:
                parent.active -= 1
                if parent.active == 0:
                    parent.covered += end - parent.cover_start
            n = self.calls.get(name, 0) + 1
            self.calls[name] = n
            self.busy[name] = self.busy.get(name, 0.0) + (end - frame.start)
            self.self_s[name] = (self.self_s.get(name, 0.0)
                                 + (end - frame.start) - frame.covered)
            if n <= SPAN_CAP:
                self.spans.append((name, frame.id,
                                   parent.id if parent is not None else None,
                                   frame.start, end, threading.get_ident()))

    def install(self) -> None:
        """Wrap the public functions of each module and rebind every sgmlab
        name that refers to one, so ``from .x import f`` callers see it too."""
        import numpy
        import sgmlab
        wrapped = {}
        modules = [sgmlab]
        for modname, label in MODULES.items():
            mod = importlib.import_module(f"sgmlab.{modname}")
            modules.append(mod)
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    wrapped[obj] = self.wrap(f"{label}.{attr}", obj)
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    setattr(mod, attr, wrapped[obj])

        from sgmlab import problems, rng
        stream = rng.IndexStream
        stream.next_block = self.wrap("rng.next_block", stream.next_block,
                                      count_words=True)
        init = problems.FiniteSumProblem.__init__

        def traced_init(problem, *args, **kwargs):
            init(problem, *args, **kwargs)
            for field in PROBLEM_CALLABLES:
                setattr(problem, field,
                        self.wrap(f"problems.{field}", getattr(problem, field)))

        problems.FiniteSumProblem.__init__ = traced_init
        numpy.linalg.solve = self.wrap("numpy.linalg.solve", numpy.linalg.solve)
        numpy.linalg.cond = self.wrap("numpy.linalg.cond", numpy.linalg.cond)

    def summary(self) -> dict:
        return {"calls": self.calls, "busy": self.busy, "self": self.self_s,
                "words": self.words}


def _probe_run_ensemble(record: dict) -> None:
    """Time the run's single ``solvers.run_ensemble`` call and note T, R and
    the thread count the CLI resolved to (None when it passes none)."""
    from sgmlab import solvers
    inner = solvers.run_ensemble

    @functools.wraps(inner)
    def timed(spec, replications, *args, **kwargs):
        record.update(T=spec.iters, R=replications,
                      threads=kwargs.get("threads", args[0] if args else None))
        wall0, cpu0 = time.perf_counter(), time.process_time()
        try:
            return inner(spec, replications, *args, **kwargs)
        finally:
            record.update(s=time.perf_counter() - wall0,
                          cpu_s=time.process_time() - cpu0)

    solvers.run_ensemble = timed


def _host_facts() -> dict:
    import numpy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "blas": blas}


def main(argv: list[str]) -> int:
    report_path, trace, cli_args = Path(argv[0]), argv[1] == "1", argv[2:]
    sys.path.insert(0, str(SRC))
    tracer = Tracer() if trace else None
    if tracer is not None:
        tracer.install()
    ensemble: dict = {}
    _probe_run_ensemble(ensemble)
    from sgmlab import cli
    try:
        code = cli.main(cli_args)
    finally:
        report = {"facts": _host_facts(), "ensemble": ensemble}
        if tracer is not None:
            report["trace"] = tracer.summary()
            spans = [dict(zip(("name", "id", "parent", "start", "end",
                               "thread"), s)) for s in tracer.spans]
            Path(f"{report_path}.spans.json").write_text(json.dumps(spans))
        report_path.write_text(json.dumps(report))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
