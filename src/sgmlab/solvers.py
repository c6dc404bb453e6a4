"""Stochastic gradient iterations: plain, projected, proximal, resolvent.

One engine drives all four methods; the type of the run's geometry object
alone picks the step map (identity, projection, prox or resolvent), so a
run carries no method name.  All replications of an ensemble are
simulated as the columns of one (d, R) batch.  A narrow batch steps in one
loop in the calling process; a wide one (d·R ≥ ``_SPLIT_WORDS``, on a host
that gives the process two CPUs) steps in two, the same loop in a forked
worker taking the columns [R // 2, R).  There is no option for it.  The
loop has two parts: each step takes the gradient, applies the
step map and stores the batch in a history block, and nothing else; the
distances to the solution, the divergence guard, the statistics and the
audit record are computed once per block of steps.  Every kernel in the hot
path uses elementwise arithmetic and the fixed-order accumulations from
``_accum`` only, so each replication's trajectory is bitwise identical
whether it runs alone or inside a batch of any width.  Randomness comes
from counter-based per-replication substreams keyed by (master_seed,
replication_index), all drawn through one generator per run.
"""

from __future__ import annotations

import functools
import math
import os
import pickle
import threading
from dataclasses import dataclass

import numpy as np

from . import _accum, analysis
from . import geometry as geo
from . import rng
from .geometry import ConvexSet, LinearMonotoneOperator, Regularizer
from .problems import FiniteSumProblem

__all__ = [
    "ConstantStep",
    "InverseTStep",
    "SolverRun",
    "Trajectory",
    "EnsembleRun",
    "DivergenceError",
    "run_ensemble",
    "recommend_step",
    "METHODS",
]

METHODS = ("sgm", "psgm", "prox_sgm", "resolvent_sgm")

_INDEX_WORDS = 2**20  # indices per draw, all replications (1 MB when n ≤ 256)
_INDEX_STEPS = 2**12  # steps per draw: caps each stream's uint64 draw buffers
_HISTORY_WORDS = 2**16  # iterates held per history block, all replications
# d·R from which a forked worker steps half the batch.  Sweep on a 2-core
# host, run_ensemble time with the split forced against the one-process
# loop, medians of 8 alternating pairs: quadratic_l1 (d = 10) 0.69 at
# d·R = 10 000, 0.76 at 5 000, 0.71 at 4 100, 0.72 at 3 000, each winning
# 8 of 8, and 0.84 at 2 000 (5 of 8); two_point at 2 000 1.09 (d = 1, 1 of
# 8); at 1 000 long_narrow 0.87, audit_heavy 0.86 and resolvent_zero 1.08,
# whose whole loop takes 15 ms.  Narrower batches stay in one process.
_SPLIT_WORDS = 2**12
_PIPE_BYTES = 2**20  # pipe capacity asked for: Linux's default pipe-max-size
_DIVERGENCE_DIST_SQ = 1e24  # guard: abort when ‖x − x*‖ > 1e12
_THIN_LIMIT = 10_000
_GEOMETRY_TYPES = (type(None), ConvexSet, Regularizer, LinearMonotoneOperator)


def _require_geometry(geometry) -> None:
    if not isinstance(geometry, _GEOMETRY_TYPES):
        raise ValueError("geometry must be None, a ConvexSet, a Regularizer "
                         "or a LinearMonotoneOperator, got "
                         f"{type(geometry).__name__}")


class DivergenceError(RuntimeError):
    """An iterate overflowed or left the trust region ‖x − x*‖ ≤ 1e12
    around the problem's solution x*.

    ``t`` is the earliest step at which any replication left it and
    ``replication`` the lowest replication index that left it at that step.
    """

    def __init__(self, t: int, replication: int):
        super().__init__(
            f"iterate diverged at step t={t} in replication {replication}")
        self.t = t
        self.replication = replication


@dataclass(frozen=True)
class ConstantStep:
    gamma: float

    def __post_init__(self):
        if not self.gamma > 0:
            raise ValueError("constant step size must be positive")

    kind = "constant"

    def value(self, t: int) -> float:
        return self.gamma


@dataclass(frozen=True)
class InverseTStep:
    """γ_t = c / (1 + t); pass c = 2/μ for the standard O(1/t) schedule."""

    c: float

    def __post_init__(self):
        if not self.c > 0:
            raise ValueError("inverse_t coefficient must be positive")

    kind = "inverse_t"

    def value(self, t: int) -> float:
        return self.c / (1.0 + t)


@dataclass(eq=False)
class SolverRun:
    """Everything one (replicated) solve needs.

    ``geometry`` names the method by its type: None for sgm, a ConvexSet
    for psgm, a Regularizer for prox_sgm, and a LinearMonotoneOperator for
    resolvent_sgm.  ``seed`` is the master seed; ``replication`` the
    substream index of this run.
    """

    problem: FiniteSumProblem
    step: ConstantStep | InverseTStep
    iters: int
    seed: int
    geometry: object = None
    x0: np.ndarray | None = None
    replication: int = 0

    def __post_init__(self):
        _require_geometry(self.geometry)
        if self.iters < 1:
            raise ValueError("iteration count must be >= 1")
        if self.seed < 0 or self.replication < 0:
            raise ValueError("seed and replication index must be nonnegative")
        if self.x0 is None:  # zero is feasible for every geometry
            self.x0 = np.zeros(self.problem.dim)
        self.x0 = np.asarray(self.x0, dtype=float)
        if self.x0.shape != (self.problem.dim,) or not np.all(np.isfinite(self.x0)):
            raise ValueError("x0 must be a finite vector of the problem dimension")


@dataclass(eq=False)
class Trajectory:
    """One replication's record.

    ``points`` holds iterates at the iteration numbers in ``point_steps``
    (all of 0..T when T ≤ 10⁴, else every ⌈T/10⁴⌉-th); ``dist_sq`` is the
    squared distance to the solution x* at every t regardless of thinning.
    """

    replication: int
    point_steps: np.ndarray
    points: np.ndarray
    dist_sq: np.ndarray
    sampled_indices: np.ndarray
    step_values: np.ndarray

    @property
    def iters(self) -> int:
        return len(self.dist_sq) - 1


@dataclass(eq=False)
class EnsembleRun:
    """Replicated runs: the per-t mean and standard error of the squared
    distance over the replications, plus one full audit trajectory (the
    first replication)."""

    mean_dist_sq: np.ndarray
    stderr: np.ndarray
    audit: Trajectory


def _step_map(geometry):
    """The step map (γ, Y) ↦ Y' the geometry's type names: identity,
    projection, prox or resolvent.  Built once per run, it calls the public
    ``geometry`` function as that name is bound at the time, once per
    call."""
    if geometry is None:
        return lambda gamma, Y: Y
    if isinstance(geometry, ConvexSet):
        return lambda gamma, Y: geo.project(geometry, Y)
    if isinstance(geometry, Regularizer):
        return functools.partial(geo.prox, geometry)
    return functools.partial(geo.resolvent, geometry)


def _thin_stride(T: int) -> int:
    return 1 if T <= _THIN_LIMIT else math.ceil(T / _THIN_LIMIT)


def _split_column(d: int, R: int) -> int:
    """h, the first column a forked worker steps, or R when the calling
    process steps the whole (d, R) batch alone.

    The batch splits at h = R // 2 when it is wide (d·R ≥ ``_SPLIT_WORDS``),
    the process may use two CPUs, ``os.fork`` exists, and no other Python
    thread runs: a fork copies only the calling thread, so a lock another
    thread holds would stay held in the worker.
    """
    if (R < 2 or d * R < _SPLIT_WORDS or not hasattr(os, "fork")
            or not hasattr(os, "sched_getaffinity")
            or len(os.sched_getaffinity(0)) < 2
            or threading.active_count() > 1):
        return R
    return R // 2


def _columns(spec: SolverRun, width: int, n_hist: int, block_len: int,
             itype) -> tuple:
    """The step loop's arrays for ``width`` columns: the batch X at x0, its
    history block, its index block, and x* repeated to the batch's width
    (an elementwise subtraction, so the bits are those of broadcasting the
    (d, 1) column, at about half the cost)."""
    d = spec.problem.dim
    return (np.repeat(spec.x0[:, None], width, axis=1),
            np.empty((n_hist, d, width)),
            np.empty((block_len, width), dtype=itype),
            np.repeat(spec.problem.x_star[:, None], width, axis=1))


def _step_blocks(X, hist, idx, gammas, step_map, grad, draw):
    """The step loop over the columns [r0, r1) of an ensemble that the
    (d, w) batch X holds, with the same arithmetic for any range.

    Yields (t0, H) for each full or final history block, H the points
    t0, t0 + 1, … of the block, a view of ``hist`` that the consumer may
    overwrite.  At each step whose index-block offset k is 0,
    ``draw(t, block)`` fills idx[:block] with the columns' indices of steps
    t − 1, …, t + block − 2; step t − 1 reads row k."""
    T, n_hist, block_len = len(gammas), len(hist), len(idx)
    hist[0] = X
    for t0 in range(0, T + 1, n_hist):
        n = min(n_hist, T + 1 - t0)
        # a diverging batch may overflow before its block is checked
        with np.errstate(over="ignore", invalid="ignore"):
            for t in range(max(t0, 1), t0 + n):  # step t − 1 gives point t
                k = (t - 1) % block_len
                if k == 0:
                    draw(t, min(block_len, T - t + 1))
                gamma_t = gammas[t - 1]
                # one conversion per step: an oracle may gather more than once
                X = step_map(gamma_t,
                             X - gamma_t * grad(X, idx[k].astype(np.intp)))
                hist[t - t0] = X
        yield t0, hist[:n]


def _block_rows(H: np.ndarray, x_star: np.ndarray) -> np.ndarray:
    """Every point's row of squared distances to x*; the block is its own
    scratch."""
    np.subtract(H, x_star, out=H)
    with np.errstate(over="ignore"):  # an overflow is inf, caught by the guard
        return _accum.sumsq_cols(H, out=H)


def _write_all(fd: int, data) -> None:
    view = memoryview(data).cast("B")
    while view:
        view = view[os.write(fd, view):]


def _read_exact(fd: int, out) -> None:
    """Fill the C-contiguous buffer ``out`` from ``fd``; EOFError when the
    other end closes first."""
    view = memoryview(out).cast("B")
    while view:
        got = os.readv(fd, [view])
        if not got:
            raise EOFError("pipe closed")
        view = view[got:]


_ROWS_HEADER = bytes(8)  # any other header is the size of a report


def _report(exc: BaseException) -> bytes:
    """A worker's exception as a message: its length, then its pickle, or
    that of a RuntimeError with its type and message when it does not
    survive a pickle round trip."""
    try:
        payload = pickle.dumps(exc)
        pickle.loads(payload)
    except Exception:
        payload = pickle.dumps(RuntimeError(f"{type(exc).__name__}: {exc}"))
    return len(payload).to_bytes(8, "little") + payload


class _Worker:
    """A forked process that steps the columns [h, R) of a split batch.

    The parent draws every stream's indices, so the worker's index block
    arrives over one pipe, and the worker sends each history block's rows
    of squared distances back over another, each after an 8-byte header:
    zero, or the size of a pickled exception that ends the worker.

    No deadlock, from the order of operations.  The parent writes the
    index block that starts at step s while it steps the history block b
    that holds s, after it has read the rows of every block before b.  The
    worker sends rows b only after step s, so then it is not blocked on the
    rows pipe: its next wait is to read this index block.  When the worker
    waits for that index block, it has sent the rows of every block before
    b, and the parent, which has not written the block yet, has not passed
    step s: any rows it waits for are already in the pipe.
    """

    def __init__(self, serve):
        """Fork; the worker runs serve(index_fd, rows_fd) and exits."""
        import fcntl  # POSIX only, like os.fork
        idx_in, self._idx = os.pipe()
        self._rows, rows_out = os.pipe()
        for fd in (self._idx, rows_out):
            try:  # a whole index block then fits; correctness needs no size
                fcntl.fcntl(fd, fcntl.F_SETPIPE_SZ, _PIPE_BYTES)
            except (AttributeError, OSError):
                pass
        try:
            self.pid = os.fork()
        except OSError:
            for fd in (idx_in, self._idx, self._rows, rows_out):
                os.close(fd)
            raise
        if self.pid == 0:
            # The worker ends only through os._exit: returning would run the
            # caller's code (its finally blocks, a test runner, the CLI's
            # writes) a second time, and a normal exit would flush the stdio
            # buffers it inherited.  When the parent dies, the index pipe
            # reads EOF and the rows pipe raises BrokenPipeError, since the
            # worker closes its copies of the parent's ends; it reports the
            # error to no one and exits.
            code = 1
            try:
                os.close(self._idx)
                os.close(self._rows)
                serve(idx_in, rows_out)
                code = 0
            except BaseException as exc:
                try:
                    _write_all(rows_out, _report(exc))
                except BaseException:
                    pass  # the parent is gone
            finally:
                os._exit(code)
        os.close(idx_in)
        os.close(rows_out)

    def send(self, block: np.ndarray) -> None:
        """Write the worker's next index block."""
        try:
            _write_all(self._idx, block)
        except BrokenPipeError:  # the worker has ended; its report says why
            self.receive(np.empty(0))
            raise RuntimeError(f"replication worker {self.pid} stopped "
                               "reading its index blocks") from None

    def receive(self, out: np.ndarray) -> None:
        """Read the worker's next rows into ``out``, or raise the exception
        it sent instead: a RuntimeError if it ended without one."""
        head = bytearray(8)
        try:
            _read_exact(self._rows, head)
            size = int.from_bytes(head, "little")
            if size:
                out = bytearray(size)
            _read_exact(self._rows, out)
        except EOFError:
            raise RuntimeError(f"replication worker {self.pid} ended "
                               "without a report") from None
        if size:
            raise pickle.loads(out)

    def close(self) -> None:
        """Kill and reap the worker, whatever state it is in."""
        import signal  # not imported by runs that never fork
        os.close(self._idx)
        os.close(self._rows)
        try:
            os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)
        except (ProcessLookupError, ChildProcessError):
            pass  # reaped already: the caller ignores SIGCHLD


def run_ensemble(spec: SolverRun, replications: int) -> EnsembleRun:
    """Run ``replications`` independent copies of ``spec`` as one batch.

    Replication r uses substream (seed, spec.replication + r) and is column
    r of one (d, R) batch; column 0 is the audit trajectory.  Indices are
    drawn min(T, max(1, 2²⁰ // R), 2¹²) steps of every replication at a
    time (``_INDEX_WORDS`` indices, ``_INDEX_STEPS`` steps) into C-ordered
    (steps, columns) blocks of the narrowest unsigned type that holds
    n − 1, so step k reads one contiguous row; every stream draws through
    one shared ``np.random.Philox``, which it re-keys to its own key and
    position, and each draw costs at most two uint64 buffers of 2¹² words
    (``rng.IndexStream``).  The T step sizes are one float64 array, which
    the audit keeps.  A step takes the gradient, applies the step map and
    copies the batch into a history block of ``_HISTORY_WORDS`` values
    (max(1, 2¹⁶ // (d·R)) points); nothing else.  Once per full or final
    block, the block's audit points are kept and one stacked
    ``_accum.sumsq_cols`` gives every point's row of squared distances to
    the solution x*.  The rows guard divergence: the
    ``DivergenceError`` names the earliest step t ≥ 1 at which any
    replication left the trust region, and the lowest replication at t,
    whatever the block.  They are then reduced to the per-t mean and
    standard error (``analysis.StreamedStats``), so no (R, T+1) matrix is
    held.  A T or R too large for numpy to allocate is a ``MemoryError``.

    A wide batch (d·R ≥ ``_SPLIT_WORDS``, see ``_split_column``) steps in
    two processes: a worker forked for the run steps columns [R // 2, R)
    with the same loop, takes its index blocks from this process, which
    still draws every stream, and sends back its rows of each history
    block, which join this process's rows before the guard.  Each column's
    arithmetic is the same either way, so the results are bit for bit those
    of one process; nothing selects the split but the width rule.  The
    worker is killed and reaped before this function returns or raises; an
    exception in the worker is raised here with its type and message.
    """
    if replications < 1:
        raise ValueError("need at least one replication")
    problem, step, T, R = spec.problem, spec.step, spec.iters, replications
    stride = _thin_stride(T)
    h = _split_column(problem.dim, R)  # this process steps [0, h)
    # blocks partition each stream, so the block length never moves a bit
    block_len = min(T, max(1, _INDEX_WORDS // R), _INDEX_STEPS)
    n_hist = min(T + 1, max(1, _HISTORY_WORDS // (problem.dim * R)))
    itype = np.min_scalar_type(problem.n_components - 1)
    try:
        stats = analysis.StreamedStats(R, T + 1)
        audit_dist = np.empty(T + 1)
        points = np.empty((T // stride + 1, problem.dim))
        indices = np.empty(T, dtype=np.int64)
        X, hist, idx, x_star = _columns(spec, h, n_hist, block_len, itype)
        # the worker's arrays too, before the fork: a MemoryError arises
        # in this process, where the CLI maps it to exit 3 with a manifest
        theirs = _columns(spec, R - h, n_hist, block_len, itype)
        their_rows = np.empty((n_hist, R - h))
    except ValueError as exc:  # a size numpy cannot even describe
        raise MemoryError(str(exc)) from None
    bitgen = np.random.Philox()  # re-keyed by each stream before it draws
    streams = [rng.IndexStream(spec.seed, spec.replication + r,
                               problem.n_components, bitgen)
               for r in range(R)]
    gammas = np.fromiter(map(step.value, range(T)), dtype=float, count=T)
    step_map = _step_map(spec.geometry)
    grad = problem.batch_component_grad

    def serve(idx_fd: int, rows_fd: int) -> None:
        """The worker's loop: its index blocks in, its rows out."""
        X, hist, idx, x_star = theirs
        for _, H in _step_blocks(
                X, hist, idx, gammas, step_map, grad,
                lambda t, block: _read_exact(idx_fd, idx[:block])):
            rows = _block_rows(H, x_star)
            _write_all(rows_fd, _ROWS_HEADER)
            _write_all(rows_fd, rows)

    worker = _Worker(serve) if h < R else None
    their_idx = theirs[2]

    def draw(t: int, block: int) -> None:
        # the worker's streams first, so that it waits least
        for r, stream in enumerate(streams[h:]):
            their_idx[:block, r] = stream.next_block(block)
        if worker is not None:
            worker.send(their_idx[:block])
        for r, stream in enumerate(streams[:h]):
            idx[:block, r] = stream.next_block(block)
        indices[t - 1:t - 1 + block] = idx[:block, 0]

    try:
        for t0, H in _step_blocks(X, hist, idx, gammas, step_map, grad, draw):
            n = len(H)
            first = -(-t0 // stride) * stride  # first audited point
            audited = H[first - t0::stride, :, 0]
            points[first // stride:first // stride + len(audited)] = audited
            rows = _block_rows(H, x_star)
            if worker is not None:
                worker.receive(their_rows[:n])
                rows = np.concatenate((rows, their_rows[:n]), axis=1)
            bad = ~(rows <= _DIVERGENCE_DIST_SQ)  # NaN compares false
            bad[0] &= t0 > 0  # x0 itself is not guarded
            if bad.any():
                k, r = np.argwhere(bad)[0]
                raise DivergenceError(t0 + int(k), spec.replication + int(r))
            stats.push_rows(rows)
            audit_dist[t0:t0 + n] = rows[:, 0]
    finally:
        if worker is not None:
            worker.close()

    audit = Trajectory(
        replication=spec.replication,
        point_steps=np.arange(0, T + 1, stride, dtype=np.int64),
        points=points,
        dist_sq=audit_dist,
        sampled_indices=indices,
        step_values=gammas,
    )
    return EnsembleRun(mean_dist_sq=stats.mean, stderr=stats.stderr,
                       audit=audit)


def recommend_step(L: float, M: float, mu: float, geometry=None):
    """Step size and contraction rate for the constant-step linear regime.

    The geometry names the method by type, as in ``SolverRun``; any other
    value is a ``ValueError``.  Plain, projected and resolvent steps get the
    optimal γ = 1/(2LM) with per-step contraction ρ = μ/(4LM) (valid only
    under the strict hypothesis μ < 4LM); the proximal step (a Regularizer)
    maximizes γμ(1−2γLM), giving γ = 1/(4LM) and ρ = μ/(8LM).
    """
    _require_geometry(geometry)
    if not (L > 0 and M > 0 and mu > 0):
        raise ValueError("L, M and mu must all be positive")
    if isinstance(geometry, Regularizer):
        gamma = 1.0 / (4 * L * M)
        rho = mu / (8 * L * M)
    else:
        if not mu < 4 * L * M:
            raise ValueError(
                "the constant-step linear-rate guarantee requires the strict "
                f"hypothesis mu < 4*L*M (got mu={mu:g}, 4LM={4 * L * M:g})")
        gamma = 1.0 / (2 * L * M)
        rho = mu / (4 * L * M)
    if not 0 < rho < 1:
        raise ValueError(f"derived contraction rho={rho:g} is outside (0, 1)")
    return gamma, rho
