"""Rate and noise-floor estimation from replicated trajectories.

Estimators operate on the ensemble mean of squared distances to the
solution set, since the convergence guarantees being tested bound exactly
that conditional expectation.  The statistics are per-column reductions of
the (R, T+1) matrix whose row r is replication r.  ``reduce_block`` reduces
any block of its columns bit for bit as numpy's ``mean`` and ``std`` reduce
the whole matrix, so ``StreamedStats`` can take the step loop's rows one
block at a time and no (R, T+1) array need exist.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _accum

__all__ = [
    "EnsembleStats",
    "RateFit",
    "RateFitError",
    "reduce_block",
    "StreamedStats",
    "stats_from_matrix",
    "fit_linear_rate",
    "estimate_floor",
    "predict_floor",
    "check_inverse_t_rate",
    "INVERSE_T_MIN_ITERS",
    "write_stats_csv",
    "write_summary_csv",
    "format_float",
]

_LOG_GUARD = 1e-300
INVERSE_T_MIN_ITERS = 1000  # shortest horizon the O(1/t) check accepts
_FLOORLESS = 1e-14
_STATS_WORDS = 2**15  # distances held per block across all replications
_CSV_ROWS = 2**12  # rows formatted per write by the CSV writers


@dataclass(eq=False)
class EnsembleStats:
    """Per-iteration mean and standard error of ‖x_t − x̄_t‖² over R runs."""

    T: int
    R: int
    mean_dist_sq: np.ndarray
    stderr: np.ndarray
    gamma: float
    step_kind: str = "constant"
    predicted_rho: float = math.nan

    def __post_init__(self):
        if len(self.mean_dist_sq) != self.T + 1 or len(self.stderr) != self.T + 1:
            raise ValueError("statistics arrays must have length T+1")
        if np.any(self.mean_dist_sq < 0) or np.any(self.stderr < 0):
            raise ValueError("distances and standard errors must be nonnegative")


@dataclass
class RateFit:
    """Log-linear fit of the ensemble decay curve.

    ``rate_per_iter`` is the fitted per-iteration contraction factor in
    (0, 1]; ``rate_stderr`` its delta-method standard error; the window is
    [t_start, t_end) in iteration numbers.
    """

    rate_per_iter: float
    floor_estimate: float
    fit_window: tuple
    r_squared: float
    rate_stderr: float


class RateFitError(RuntimeError):
    """The decay curve has too few usable points for a rate fit."""


def reduce_block(block: np.ndarray, mean: np.ndarray, stderr: np.ndarray,
                 dev: np.ndarray) -> None:
    """Write the column means and standard errors of a C-ordered (R, w) block
    into ``mean`` and ``stderr`` (length w); ``dev`` is (R, w) scratch.

    The results equal ``block.mean(axis=0)`` and
    ``block.std(axis=0, ddof=1) / sqrt(R)`` on the whole matrix bit for bit,
    whatever columns the block holds: both sums add rows r = 0, 1, … in
    order through ``_accum._sum_rows``, which numpy's own reduce does not do
    for a block of one column.  numpy's sum starts from +0.0, so a column of
    -0.0 has mean +0.0; adding 0.0 gives the same.
    """
    R = block.shape[0]
    np.add(_accum._sum_rows(block), 0.0, out=mean)
    np.divide(mean, R, out=mean)
    if R == 1:
        stderr[:] = 0.0
        return
    np.subtract(block, mean, out=dev)
    np.multiply(dev, dev, out=dev)
    np.divide(_accum._sum_rows(dev), R - 1, out=stderr)
    np.sqrt(stderr, out=stderr)
    np.divide(stderr, math.sqrt(R), out=stderr)


class StreamedStats:
    """Column means and standard errors of an (R, n) matrix pushed one
    column at a time.

    Columns fill a C-ordered block of ``_STATS_WORDS`` values (at least two
    columns); ``reduce_block`` reduces each block once it is full, and the
    last one when its final column is in.  ``mean`` and ``stderr`` are
    complete after n pushes.
    """

    def __init__(self, R: int, n: int):
        self.mean, self.stderr = np.empty(n), np.empty(n)
        self._R, self._width = R, max(2, _STATS_WORDS // R)
        self._buf = np.empty(R * self._width)
        self._dev = np.empty_like(self._buf)
        self._block = None
        self._t = 0

    def push(self, row: np.ndarray) -> None:
        t = self._t
        c = t % self._width
        if c == 0:  # the last block is narrower, but C-ordered too
            w = min(self._width, len(self.mean) - t)
            self._block = self._buf[:self._R * w].reshape(self._R, w)
        block = self._block
        block[:, c] = row
        if c == block.shape[1] - 1:
            reduce_block(block, self.mean[t - c:t + 1],
                         self.stderr[t - c:t + 1],
                         self._dev[:block.size].reshape(block.shape))
        self._t = t + 1


def stats_from_matrix(dist_sq: np.ndarray, gamma: float,
                      step_kind: str = "constant",
                      predicted_rho: float = math.nan) -> EnsembleStats:
    """Reduce an (R, T+1) matrix of per-replication squared distances as
    one block."""
    dist_sq = np.ascontiguousarray(dist_sq, dtype=float)
    if dist_sq.ndim != 2:
        raise ValueError("expected an (R, T+1) matrix")
    R, n = dist_sq.shape
    mean, stderr = np.empty(n), np.empty(n)
    reduce_block(dist_sq, mean, stderr, np.empty_like(dist_sq))
    return EnsembleStats(T=n - 1, R=R, mean_dist_sq=mean, stderr=stderr,
                         gamma=gamma, step_kind=step_kind,
                         predicted_rho=predicted_rho)


def _floor_window(T: int) -> int:
    """Start index of the final-10% floor window."""
    return (T + 1) - max(1, (T + 1) // 10)


def estimate_floor(stats: EnsembleStats):
    """Noise-floor estimate: mean of mean_dist_sq over the final 10% of
    iterations, with a conservative standard error (the average per-t
    standard error over the same window, not reduced by window length)."""
    start = _floor_window(stats.T)
    window = stats.mean_dist_sq[start:]
    return float(window.mean()), float(stats.stderr[start:].mean())


def fit_linear_rate(stats: EnsembleStats) -> RateFit:
    """Fit mean_dist_sq ≈ floor + C·rateᵗ by least squares in log space.

    The floor is the final-10% mean; the fit window keeps iterations with
    mean_dist_sq ≥ 10·floor (the decay-dominated phase).  When the floor is
    below 1e-14 the fit is floorless over [0.1T, 0.9T].
    """
    T = stats.T
    if T < 50:
        raise RateFitError("rate fitting needs a horizon of at least 50 iterations")
    mean = stats.mean_dist_sq
    floor_hat, _ = estimate_floor(stats)
    if floor_hat <= _FLOORLESS:
        t_start, t_end = int(0.1 * T), int(0.9 * T) + 1
    else:
        below = np.flatnonzero(mean < 10.0 * floor_hat)
        t_start, t_end = 0, int(below[0]) if len(below) else T + 1
    if t_end - t_start < 10:
        raise RateFitError(
            f"fit window [{t_start}, {t_end}) has fewer than 10 points; "
            "the trajectory is noise-dominated from the start")
    ts = np.arange(t_start, t_end, dtype=float)
    ys = np.log(np.maximum(mean[t_start:t_end] - floor_hat, _LOG_GUARD))
    slope, _, se_slope, r_squared = _least_squares_line(ts, ys)
    rate = min(float(np.exp(slope)), 1.0)
    return RateFit(rate_per_iter=rate, floor_estimate=floor_hat,
                   fit_window=(t_start, t_end), r_squared=r_squared,
                   rate_stderr=rate * se_slope)


def _least_squares_line(xs: np.ndarray, ys: np.ndarray):
    """Slope, intercept, the slope's standard error, and R²."""
    n = len(xs)
    xm, ym = xs.mean(), ys.mean()
    sxx = float(((xs - xm) ** 2).sum())
    slope = float(((xs - xm) * (ys - ym)).sum()) / sxx
    intercept = ym - slope * xm
    resid = ys - (intercept + slope * xs)
    ssr = float((resid ** 2).sum())
    sst = float(((ys - ym) ** 2).sum())
    r_squared = 1.0 if sst == 0.0 else 1.0 - ssr / sst
    se_slope = math.sqrt(ssr / (n - 2) / sxx) if n > 2 else 0.0
    return slope, intercept, se_slope, r_squared


def predict_floor(gamma: float, rho: float, sigma1_sq: float) -> float:
    """Fixed point of r ← (1−ρ)r + γ²σ₁²: the predicted noise floor γ²σ₁²/ρ."""
    if not 0 < rho < 1:
        raise ValueError(f"rho must lie in (0, 1), got {rho:g}")
    if sigma1_sq < 0:
        raise ValueError("sigma1_sq must be nonnegative")
    return gamma * gamma * sigma1_sq / rho


def check_inverse_t_rate(stats: EnsembleStats):
    """Log-log slope of mean_dist_sq over [0.1T, T]; passes in [−1.3, −0.7].

    Only meaningful for runs with the γ_t = c/(1+t) schedule.
    """
    if stats.step_kind != "inverse_t":
        raise ValueError("the O(1/t) check applies only to inverse_t runs")
    T = stats.T
    if T < INVERSE_T_MIN_ITERS:
        raise ValueError(f"the O(1/t) check needs T >= {INVERSE_T_MIN_ITERS}")
    t_start = max(1, int(0.1 * T))
    ts = np.arange(t_start, T + 1, dtype=float)
    ys = np.log(np.maximum(stats.mean_dist_sq[t_start:], _LOG_GUARD))
    slope, *_ = _least_squares_line(np.log(ts), ys)
    return (-1.3 <= slope <= -0.7), float(slope)


# ---------------------------------------------------------------------------
# File output (shortest round-trip decimal formatting for byte stability)
# ---------------------------------------------------------------------------

def format_float(x) -> str:
    """Shortest decimal string that round-trips the float64 exactly."""
    return repr(float(x))


def write_stats_csv(path, stats: EnsembleStats) -> None:
    """Per-experiment curve: columns t, mean_dist_sq, stderr, formatted
    ``_CSV_ROWS`` rows at a time."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("t,mean_dist_sq,stderr\n")
        for lo in range(0, stats.T + 1, _CSV_ROWS):
            rows = zip(stats.mean_dist_sq[lo:lo + _CSV_ROWS].tolist(),
                       stats.stderr[lo:lo + _CSV_ROWS].tolist())
            fh.write("".join(f"{t},{m!r},{s!r}\n"
                             for t, (m, s) in enumerate(rows, lo)))


def write_summary_csv(path, row: dict) -> None:
    """One-row summary record; values already stringified by the caller."""
    keys = list(row.keys())
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(keys) + "\n")
        fh.write(",".join(str(row[k]) for k in keys) + "\n")
