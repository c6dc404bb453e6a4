"""Stochastic gradient iterations: plain, projected, proximal, resolvent.

One engine drives all four methods; the type of the run's geometry object
alone picks the step map (identity, projection, prox or resolvent), so a
run carries no method name.  All replications of an ensemble are
simulated as the columns of one (d, R) batch, in one loop on the calling
thread.  The loop has two parts: each step takes the gradient, applies the
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


def run_ensemble(spec: SolverRun, replications: int) -> EnsembleRun:
    """Run ``replications`` independent copies of ``spec`` as one batch.

    Replication r uses substream (seed, spec.replication + r) and is column
    r of one (d, R) batch; column 0 is the audit trajectory.  Indices are
    drawn min(T, max(1, 2²⁰ // R), 2¹²) steps of every replication at a
    time (``_INDEX_WORDS`` indices, ``_INDEX_STEPS`` steps) into a C-ordered
    (steps, R) block of the narrowest unsigned type that holds n − 1, so
    step k reads one contiguous row; every stream draws through one shared
    ``np.random.Philox``, which it re-keys to its own key and position, and
    each draw costs at most two uint64 buffers of 2¹² words
    (``rng.IndexStream``).  The T step sizes are one float64 array, which
    the audit keeps.  A step takes the gradient, applies the step map and
    copies the batch into a history block of ``_HISTORY_WORDS`` values
    (max(1, 2¹⁶ // (d·R)) points); nothing else.  Once per full or final block, the block's audit points are kept
    and one stacked ``_accum.sumsq_cols`` gives every point's row of squared
    distances to the solution x*.  The rows guard divergence: the
    ``DivergenceError`` names the earliest step t ≥ 1 at which any
    replication left the trust region, and the lowest replication at t,
    whatever the block.  They are then reduced to the per-t mean and
    standard error (``analysis.StreamedStats``), so no (R, T+1) matrix is
    held.  A T or R too large for numpy to allocate is a ``MemoryError``.
    """
    if replications < 1:
        raise ValueError("need at least one replication")
    problem, step, T = spec.problem, spec.step, spec.iters
    x_star = problem.x_star[:, None]
    stride = _thin_stride(T)
    try:
        stats = analysis.StreamedStats(replications, T + 1)
        audit_dist = np.empty(T + 1)
        points = np.empty((T // stride + 1, problem.dim))
        indices = np.empty(T, dtype=np.int64)
    except ValueError as exc:  # a size numpy cannot even describe
        raise MemoryError(str(exc)) from None
    bitgen = np.random.Philox()  # re-keyed by each stream before it draws
    streams = [rng.IndexStream(spec.seed, spec.replication + r,
                               problem.n_components, bitgen)
               for r in range(replications)]
    # blocks partition each stream, so the block length never moves a bit
    block_len = min(T, max(1, _INDEX_WORDS // replications), _INDEX_STEPS)
    idx = np.empty((block_len, replications),
                   dtype=np.min_scalar_type(problem.n_components - 1))
    gammas = np.fromiter(map(step.value, range(T)), dtype=float, count=T)
    step_map = _step_map(spec.geometry)
    grad = problem.batch_component_grad

    X = np.repeat(spec.x0[:, None], replications, axis=1)
    n_hist = min(T + 1, max(1, _HISTORY_WORDS // X.size))
    hist = np.empty((n_hist,) + X.shape)  # points t0, t0 + 1, … of a block
    hist[0] = X
    for t0 in range(0, T + 1, n_hist):
        n = min(n_hist, T + 1 - t0)
        # a diverging batch may overflow before its block is checked
        with np.errstate(over="ignore", invalid="ignore"):
            for t in range(max(t0, 1), t0 + n):  # step t − 1 gives point t
                k = (t - 1) % block_len
                if k == 0:
                    block = min(block_len, T - t + 1)
                    for r, stream in enumerate(streams):
                        idx[:block, r] = stream.next_block(block)
                    indices[t - 1:t - 1 + block] = idx[:block, 0]
                gamma_t = gammas[t - 1]
                # one conversion per step: an oracle may gather more than once
                X = step_map(gamma_t,
                             X - gamma_t * grad(X, idx[k].astype(np.intp)))
                hist[t - t0] = X
        H = hist[:n]
        first = -(-t0 // stride) * stride  # first audited point of the block
        audited = H[first - t0::stride, :, 0]
        points[first // stride:first // stride + len(audited)] = audited
        np.subtract(H, x_star, out=H)  # the block is its own scratch
        with np.errstate(over="ignore"):  # an overflow is inf, caught below
            rows = _accum.sumsq_cols(H, out=H)
        bad = ~(rows <= _DIVERGENCE_DIST_SQ)  # NaN compares false
        bad[0] &= t0 > 0  # x0 itself is not guarded
        if bad.any():
            k, r = np.argwhere(bad)[0]
            raise DivergenceError(t0 + int(k), spec.replication + int(r))
        stats.push_rows(rows)
        audit_dist[t0:t0 + n] = rows[:, 0]

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
