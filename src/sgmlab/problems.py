"""Finite-sum problems f = (1/n) Σ fᵢ with exact component-gradient oracles.

Every instance knows its smoothness and strong-convexity constants L and μ,
its unique solution ``x_star``, and its closed-form growth constants, so
conditional expectations over the uniform component index are exact finite
sums rather than Monte Carlo estimates.

Each problem has one gradient oracle, the batch kernel
``batch_component_grad``, plus ``all_component_grads`` for enumerating every
component at a stack of points.  Batched kernels operate on column batches
X of shape (d, R), and ``all_component_grads`` on row stacks of shape
(P, d); both are written with elementwise ops and fixed-order axis
reductions only, so column r (or row p) of a batched evaluation is bitwise
identical to evaluating it alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import _accum
from . import rng
from .geometry import Regularizer, l1_regularizer, step_map

__all__ = [
    "FiniteSumProblem",
    "KaczmarzSystem",
    "EvaluationError",
    "make_two_point_quadratic",
    "make_kaczmarz_problem",
    "make_random_kaczmarz_system",
    "load_kaczmarz_text",
    "make_quadratic_l1",
]

_CONSISTENT_RESIDUAL = 1e-10


class EvaluationError(RuntimeError):
    """A component oracle produced a non-finite value or gradient."""


@dataclass(eq=False)
class FiniteSumProblem:
    """f = (1/n) Σᵢ fᵢ over ℝ^d with known constants and unique solution.

    ``lipschitz_L`` is the smoothness constant L of f and ``strong_mu`` its
    strong-convexity constant μ, the one μ every rate prediction reads.
    ``x_star`` is the read-only (dim,) solution of the full problem being
    solved — for composite instances that is the regularized solution, not
    argmin f.  ``full_grad`` is the analytic ∇f.  (``analytic_M``,
    ``analytic_sigma_sq``) is a closed-form weak-growth pair,
    E‖∇fᵢ(x)‖² ≤ M‖∇f(x)‖² + σ² for every x; ``math.inf`` where no finite
    constant exists.
    ``batch_component_grad(X, idx)`` returns the
    (d, R) matrix of ∇f_{idx[r]}(X[:, r]); ``all_component_grads(Xp)``
    takes a (P, d) stack of points and returns the C-ordered (P, n, d) array
    whose [p, i] row is ∇fᵢ(Xp[p]).
    """

    name: str
    dim: int
    n_components: int
    lipschitz_L: float
    strong_mu: float
    x_star: np.ndarray
    full_grad: Callable
    batch_component_grad: Callable
    all_component_grads: Callable
    analytic_M: float
    analytic_sigma_sq: float
    grad_zero_points: list = field(default_factory=list)
    regularizer: Regularizer | None = None

    def __post_init__(self):
        self.x_star = np.array(self.x_star, dtype=float)
        if self.x_star.shape != (self.dim,):
            raise ValueError("x_star must have shape (dim,)")
        self.x_star.flags.writeable = False

    def solution_projector(self, x) -> np.ndarray:
        """x_star in the shape of a point or (d, R) batch x.  Nothing in
        ``src/`` calls it; only the perfbench tracer reads it, by name."""
        xs = self.x_star if np.ndim(x) == 1 else self.x_star[:, None]
        return np.broadcast_to(xs, np.shape(x)).copy()


def _finite_component_grads(problem: FiniteSumProblem, Xp) -> np.ndarray:
    """The (P, n, d) component gradients at a (P, d) stack of finite points;
    raises ``EvaluationError`` if a point or any gradient is non-finite."""
    Xp = np.asarray(Xp, dtype=float).reshape(len(Xp), problem.dim)
    if not np.all(np.isfinite(Xp)):
        raise EvaluationError("evaluation point is not finite")
    grads = problem.all_component_grads(Xp)
    finite = np.isfinite(grads).all(axis=(1, 2))
    if not finite.all():
        x = Xp[np.flatnonzero(~finite)[0]]
        raise EvaluationError(
            f"non-finite component gradient at x with norm {np.linalg.norm(x):.3e}")
    return grads


# ---------------------------------------------------------------------------
# Two-point quadratic: the canonical instance where noise never vanishes.
# ---------------------------------------------------------------------------

def make_two_point_quadratic() -> FiniteSumProblem:
    """d=1, n=2: f₁(x)=0.5(x−1)², f₂(x)=0.5(x+1)², so f(x)=0.5x²+0.5.

    The unique minimizer is 0, but both component gradients have norm 1
    there, making this the standard example with M = 1 and σ² = 1.
    """
    targets = np.array([1.0, -1.0])

    def batch_grad(X, idx):
        return X - targets[idx][None, :]

    def all_grads(Xp):
        return Xp[:, None, :] - targets[None, :, None]

    return FiniteSumProblem(
        name="two_point",
        dim=1,
        n_components=len(targets),
        lipschitz_L=1.0,
        strong_mu=1.0,
        x_star=np.zeros(1),
        full_grad=lambda x: np.asarray(x, dtype=float).copy(),
        batch_component_grad=batch_grad,
        all_component_grads=all_grads,
        grad_zero_points=[np.zeros(1)],
        analytic_M=1.0,
        analytic_sigma_sq=1.0,
    )


# ---------------------------------------------------------------------------
# Randomized Kaczmarz: mean squared hyperplane distance of a linear system.
# ---------------------------------------------------------------------------

class _ResidualOverflow(ValueError):
    """The residual norm ‖A x_ls − b‖ of a system is not a finite float."""


@dataclass(eq=False)
class KaczmarzSystem:
    """A linear system with unit-norm rows, m ≥ d, and full column rank."""

    A: np.ndarray
    b: np.ndarray
    consistent: bool = field(init=False)
    x_ls: np.ndarray = field(init=False, repr=False)
    residual_norm: float = field(init=False)

    def __post_init__(self):
        self.A = np.asarray(self.A, dtype=float)
        self.b = np.asarray(self.b, dtype=float)
        if self.A.ndim != 2 or self.b.shape != (self.A.shape[0],):
            raise ValueError("need A of shape (m, d) and b of shape (m,)")
        m, d = self.A.shape
        if m < d:
            raise ValueError(f"system must have m >= d rows (m={m}, d={d})")
        norms = np.sqrt((self.A * self.A).sum(axis=1))
        if np.any(np.abs(norms - 1.0) > 1e-12):
            raise ValueError("rows must have unit norm (normalize on load)")
        sv = np.linalg.svd(self.A, compute_uv=False)
        if sv[-1] <= 1e-10 * sv[0]:
            raise ValueError("A must have full column rank")
        self.x_ls, *_ = np.linalg.lstsq(self.A, self.b, rcond=None)
        with np.errstate(over="ignore"):  # an overflow is inf, caught below
            self.residual_norm = float(
                np.linalg.norm(self.A @ self.x_ls - self.b))
        if not math.isfinite(self.residual_norm):
            raise _ResidualOverflow(
                "the least-squares residual norm of the system overflows")
        self.consistent = self.residual_norm <= _CONSISTENT_RESIDUAL

    @property
    def m(self) -> int:
        return self.A.shape[0]

    @property
    def d(self) -> int:
        return self.A.shape[1]


def make_random_kaczmarz_system(m: int, d: int, construction_seed: int,
                                mix: float = 0.5, consistent: bool = True,
                                noise: float = 0.1) -> KaczmarzSystem:
    """Seeded random system with a tunable condition number.

    ``mix = 0`` gives orthonormal columns (condition 1); raising it blends
    in Gaussian noise, which worsens the conditioning smoothly.  Rows are
    normalized and b rescaled accordingly, so both the solution and the
    consistency of the system are preserved.
    """
    if m < d:
        raise ValueError("need m >= d")
    g = rng.substream(construction_seed, 0)
    G = g.standard_normal((m, d))
    Q, _ = np.linalg.qr(G)
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        raw = Q + mix * g.standard_normal((m, d)) / math.sqrt(d)
        x_nat = g.standard_normal(d)
        b_raw = raw @ x_nat
        if not consistent:
            b_raw = b_raw + noise * g.standard_normal(m)
        norms = np.sqrt((raw * raw).sum(axis=1))
    if not (np.isfinite(norms).all() and np.isfinite(b_raw).all()):
        raise ValueError(f"the generated system is not finite at mix = {mix!r}"
                         + ("" if consistent else f", noise = {noise!r}"))
    try:
        return KaczmarzSystem(A=raw / norms[:, None], b=b_raw / norms)
    except _ResidualOverflow:  # only the noise makes b that large
        raise ValueError("the residual of the generated system overflows "
                         f"at noise = {noise!r}") from None


def load_kaczmarz_text(path) -> KaczmarzSystem:
    """Load a system from plain text: first line "m d", then m rows of
    d+1 reals (the row of A followed by bᵢ).  Rows are normalized on load
    and b is rescaled accordingly."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.strip() for ln in fh]
    body = [(i + 1, ln) for i, ln in enumerate(lines) if ln]
    if not body:
        raise ValueError(f"{path}: empty matrix file")
    lineno, header = body[0]
    parts = header.split()
    if len(parts) != 2:
        raise ValueError(f"{path}:{lineno}: expected header 'm d'")
    try:
        m, d = int(parts[0]), int(parts[1])
    except ValueError as exc:
        raise ValueError(f"{path}:{lineno}: non-integer header") from exc
    if m < 1 or d < 1:
        raise ValueError(f"{path}:{lineno}: m and d must be positive")
    if len(body) - 1 != m:
        raise ValueError(f"{path}: expected {m} data rows, found {len(body) - 1}")
    A = np.empty((m, d))
    b = np.empty(m)
    for r, (lineno, ln) in enumerate(body[1:]):
        vals = ln.split()
        if len(vals) != d + 1:
            raise ValueError(f"{path}:{lineno}: expected {d + 1} values, got {len(vals)}")
        try:
            row = np.array([float(v) for v in vals])
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: non-numeric value") from exc
        if not np.all(np.isfinite(row)):
            raise ValueError(f"{path}:{lineno}: non-finite value")
        A[r] = row[:d]
        b[r] = row[d]
    norms = np.sqrt((A * A).sum(axis=1))
    if np.any(norms == 0.0):
        raise ValueError(f"{path}: zero row cannot be normalized")
    return KaczmarzSystem(A=A / norms[:, None], b=b / norms)


def make_kaczmarz_problem(sys: KaczmarzSystem) -> FiniteSumProblem:
    """f(x) = (1/2m)‖Ax−b‖² as a mean of per-row hyperplane distances.

    With unit rows, fᵢ(x) = 0.5(⟨aᵢ,x⟩−bᵢ)² is half the squared distance to
    the i-th hyperplane and ∇fᵢ(x) = (⟨aᵢ,x⟩−bᵢ)aᵢ, so the γ=1 step is the
    classical Kaczmarz projection.  L = λ_max(AᵀA)/m and μ = λ_min(AᵀA)/m;
    the solution set is the single least-squares point under full rank.
    """
    A, b = sys.A, sys.b
    m = sys.m
    ev = np.linalg.eigvalsh(A.T @ A)
    lam_min, lam_max = float(ev[0]), float(ev[-1])

    def full_grad(x):
        resid = np.einsum("ij,j->i", A, x, optimize=False) - b
        return np.einsum("ji,j->i", A, resid, optimize=False) / m

    AT = np.ascontiguousarray(A.T)  # gathered rows come out (d, R) C-ordered

    def batch_grad(X, idx):
        rows = AT.take(idx, axis=1)
        resid = _accum.rowdot_cols(rows, X) - b.take(idx)
        return rows * resid[None, :]

    def all_grads(Xp):
        resid = np.einsum("ij,pj->pi", A, Xp, optimize=False) - b
        return A[None, :, :] * resid[:, :, None]

    # a certified-consistent system gets an exact zero so that zero-noise
    # code paths (exact floor, per-step contraction) engage
    sigma_sq = 0.0 if sys.consistent else sys.residual_norm ** 2 / m
    return FiniteSumProblem(
        name="kaczmarz",
        dim=sys.d,
        n_components=m,
        lipschitz_L=lam_max / m,
        strong_mu=lam_min / m,
        x_star=sys.x_ls,
        full_grad=full_grad,
        batch_component_grad=batch_grad,
        all_component_grads=all_grads,
        grad_zero_points=[sys.x_ls.copy()],
        analytic_M=m * lam_max / lam_min ** 2,
        analytic_sigma_sq=sigma_sq,
    )


# ---------------------------------------------------------------------------
# ℓ1-regularized strongly convex quadratic with persistent gradient noise.
# ---------------------------------------------------------------------------

def make_quadratic_l1(construction_seed: int = 42, dim: int = 10,
                      n_components: int = 20,
                      l1_weight: float = 0.005,
                      regularizer: Regularizer | None = None) -> FiniteSumProblem:
    """Components share one SPD Hessian Q but carry opposed linear terms.

    fᵢ(x) = 0.5(x−x̄)ᵀQ(x−x̄) + ⟨cᵢ, x−x̄⟩ with the cᵢ in ± pairs along one
    eigenvector, so ∇f(x) = Q(x−x̄) and the conditional second moment is
    exactly ‖∇f(x)‖² + mean‖cᵢ‖²: the weak growth condition holds globally
    with M = 1 and σ² = mean‖cᵢ‖².  The problem bundles ``regularizer``,
    by default the ℓ1 norm with weight ``l1_weight`` (validated either way);
    the solution set is the regularized optimum, found by a deterministic
    proximal-gradient solve to fixed-point residual 1e-12.
    """
    if n_components % 2 != 0:
        raise ValueError("n_components must be even (linear terms come in ± pairs)")
    g = rng.substream(construction_seed, 0)
    Gm = g.standard_normal((dim, dim))
    V, _ = np.linalg.qr(Gm)
    lam = np.linspace(1.0, 2.0, dim)
    Q = (V * lam) @ V.T
    Q = 0.5 * (Q + Q.T)
    xbar = g.standard_normal(dim)
    zeta = np.abs(g.standard_normal(n_components // 2)) + 0.5
    v1 = V[:, 0]
    C = np.empty((n_components, dim))
    C[0::2] = zeta[:, None] * v1[None, :]
    C[1::2] = -zeta[:, None] * v1[None, :]

    ev = np.linalg.eigvalsh(Q)
    L, mu = float(ev[-1]), float(ev[0])

    def full_grad(x):
        return _accum.matvec_cols(Q, (x - xbar)[:, None])[:, 0]

    xbar_col, Ct = xbar[:, None], np.ascontiguousarray(C.T)

    def batch_grad(X, idx):
        return _accum.matvec_cols(Q, X - xbar_col) + Ct.take(idx, axis=1)

    def all_grads(Xp):
        # C order: the audits' reductions over n and d assume it
        return np.add(_accum.matvec_cols(Q, (Xp - xbar).T).T[:, None, :], C,
                      order="C")

    reg = l1_regularizer(l1_weight)
    if regularizer is not None:
        reg = regularizer
    xstar = _prox_gradient_solve(full_grad, reg, L, np.zeros(dim))

    return FiniteSumProblem(
        name="quadratic_l1",
        dim=dim,
        n_components=n_components,
        lipschitz_L=L,
        strong_mu=mu,
        x_star=xstar,
        full_grad=full_grad,
        batch_component_grad=batch_grad,
        all_component_grads=all_grads,
        grad_zero_points=[xbar.copy()],
        analytic_M=1.0,
        analytic_sigma_sq=float(np.mean(zeta ** 2)),
        regularizer=reg,
    )


def _prox_gradient_solve(full_grad, reg, L, x0, tol=1e-12, max_iter=100_000):
    """Deterministic proximal-gradient solve used as a solution surrogate."""
    x = np.asarray(x0, dtype=float).copy()
    step, prox_map = 1.0 / L, step_map(reg)
    for _ in range(max_iter):
        x_next = prox_map(step, x - step * full_grad(x))
        if np.linalg.norm(x_next - x) <= tol:
            return x_next
        x = x_next
    raise RuntimeError("proximal-gradient surrogate solve did not converge")
