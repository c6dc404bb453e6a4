"""Growth constants and exact inequality checks for finite-sum problems.

Everything here is computed by enumerating all n components — conditional
expectations are exact sums, so a reported violation is a genuine
counterexample rather than Monte Carlo noise.  Constants are fitted over an
explicit probe set and are sound only there; reports carry the probe
descriptor to make that scope visible.

Every exact enumeration goes through the block oracle
``all_component_grads``, which takes a (P, d) stack of points and returns
the (P, n, d) component gradients.  The per-iterate audits share one
enumeration: ``successor_moments`` visits each point's n one-step successors
once, a block of points at a time, and records the four exact moments the
audits need; ``measured_worst_omega``, ``verify_necessary_condition`` and
``contraction_margins`` are arithmetic on that record.  ``fit_wgc`` takes
its probe gradients from one block and gives both growth constants, B and
(M, σ²); the closed-form M of a problem is its ``analytic_M``.

Each moment is reduced as the per-point expressions ``x @ x`` and
``.mean()`` would reduce it, so a point's moments do not depend on the block
it falls in: squared norms of points are stacked ``np.matmul`` dot products
of C-contiguous (p, d) rows, and sums over d run along axis 0 of the
successor array in the memory layout the geometry gave it.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import rng, solvers
from .problems import (FiniteSumProblem, _finite_component_grads,
                       exact_conditional_moment)

__all__ = [
    "GrowthReport",
    "NecessaryConditionReport",
    "SuccessorMoments",
    "probe_grid",
    "fit_wgc",
    "enumerate_successors",
    "successor_moments",
    "verify_necessary_condition",
    "measured_worst_omega",
    "contraction_margins",
    "example1_constants",
    "growth_record",
    "write_growth_json",
]

ZERO_GRAD_TOL = 1e-12
PROBE_SCALES = (0.1, 1.0, 10.0)  # scales of the seeded probe points
_PROBE_STREAM = 0x70726F6265  # reserved substream index for probe draws
_MARGIN_RTOL = 1e-9
_BLOCK_ENTRIES = 2**15  # successor entries (points × n × d) per audit block


@dataclass
class GrowthReport:
    """Fitted or analytic growth constants over a probe set.

    ``B_sgc`` is the strong-growth constant (∞ when some probe has a
    vanishing mean gradient but non-vanishing component gradients);
    (M_wgc, sigma_sq) is the lexicographically minimal weak-growth
    envelope; classification follows the chain SGC ⟹ GC ⟹ WGC.
    """

    B_sgc: float
    M_wgc: float
    sigma_sq: float
    classification: str
    probe_seed: int | None = None
    probe_scales: tuple = ()
    analytic: bool = False
    degenerate: bool = False


def probe_grid(problem: FiniteSumProblem, seed: int, n_points: int = 32,
               scales=PROBE_SCALES):
    """Deterministic probe set: seeded standard-normal points at several
    scales, plus the problem's known stationary points and its solution
    x*."""
    g = rng.substream(seed, _PROBE_STREAM)
    base = g.standard_normal((n_points, problem.dim))
    points = [s * z for z in base for s in scales]
    points.extend(np.asarray(p, dtype=float).copy()
                  for p in problem.grad_zero_points)
    points.append(problem.x_star.copy())
    return points


def _sqnorms(a: np.ndarray) -> np.ndarray:
    """‖a[k]‖² of each row of a C-contiguous (p, d) stack, each the dot
    product that ``a[k] @ a[k]`` computes."""
    return np.matmul(a[:, None, :], a[:, :, None])[:, 0, 0]


def _probe_rows(problem: FiniteSumProblem, probe_points):
    """(‖∇f(x)‖², E‖∇fᵢ(x)‖², maxᵢ‖∇fᵢ(x)‖²) at each probe, from one block
    enumeration of the component gradients."""
    grads = _finite_component_grads(problem, probe_points)
    comp_sq = (grads * grads).sum(axis=2)
    return list(zip(_sqnorms(grads.mean(axis=1)).tolist(),
                    comp_sq.mean(axis=1).tolist(),
                    comp_sq.max(axis=1).tolist()))


def fit_wgc(problem: FiniteSumProblem, probe_points, probe_seed=None,
            probe_scales=()) -> GrowthReport:
    """Lexicographically minimal (σ², M) envelope over the probe set.

    σ² is pinned by the probes with vanishing mean gradient (the envelope
    there is σ² alone), then M is the smallest multiplier covering the
    rest, clamped below at 1 — the conditional variance decomposition makes
    any smaller M unsound.  B, the smallest constant with
    maxᵢ‖∇fᵢ(x)‖² ≤ B‖∇f(x)‖² on the probes, comes from the same per-probe
    gradients; it is ∞ when a probe has ‖∇f(x)‖ ≤ 1e-12 while some
    component gradient does not vanish, since strong growth demands
    interpolation.
    """
    if not probe_points:
        raise ValueError("probe set must be nonempty")
    rows = _probe_rows(problem, probe_points)
    sigma_sq, B = 0.0, 1.0
    ratios = []
    for full_sq, moment, max_comp in rows:
        if math.sqrt(full_sq) > ZERO_GRAD_TOL:
            B = max(B, max_comp / full_sq)
        else:
            sigma_sq = max(sigma_sq, moment)
            if math.sqrt(max_comp) > ZERO_GRAD_TOL:
                B = math.inf
    for full_sq, moment, _ in rows:
        if math.sqrt(full_sq) > ZERO_GRAD_TOL:
            ratios.append((moment - sigma_sq) / full_sq)
    degenerate = not ratios
    M = max(1.0, max(ratios)) if ratios else 1.0
    for full_sq, moment, _ in rows:  # envelope soundness, by construction
        if moment > M * full_sq + sigma_sq + 1e-9:
            raise RuntimeError("weak-growth envelope fit is unsound; "
                               "this indicates a broken component oracle")
    classification = "GC" if sigma_sq <= 1e-12 else "WGC"
    return GrowthReport(B_sgc=B, M_wgc=M,
                        sigma_sq=sigma_sq, classification=classification,
                        probe_seed=probe_seed, probe_scales=tuple(probe_scales),
                        analytic=False, degenerate=degenerate)


def enumerate_successors(problem: FiniteSumProblem, geometry, gamma: float,
                         Xp: np.ndarray) -> np.ndarray:
    """All n one-step successors of each point of a (p, d) stack, as the
    (d, p, n) array whose [:, k, i] column is Xp[k]'s successor under
    component i.  The geometry maps all p·n columns in one call."""
    Xp = np.asarray(Xp, dtype=float)
    p, d = Xp.shape
    grads = problem.all_component_grads(Xp)
    Y = Xp.T[:, :, None] - gamma * grads.transpose(2, 0, 1)
    succ = solvers._step_map(geometry)(gamma, Y.reshape(d, -1))
    return succ.reshape(d, p, -1)


@dataclass
class SuccessorMoments:
    """Exact one-step moments at each point, over the uniform component index.

    With x₊ the successor of x under component i and G = (x − x₊)/γ, entry
    k holds, for the k-th point: ``dist_sq`` ‖x−x̄‖², ``next_dist_sq``
    E‖x₊−x̄₊‖², ``grad_sq`` E‖G‖² and ``mean_grad_sq`` ‖E G‖², where
    x̄ = x̄₊ = x* is the problem's solution.
    """

    gamma: float
    dist_sq: np.ndarray
    next_dist_sq: np.ndarray
    grad_sq: np.ndarray
    mean_grad_sq: np.ndarray


def successor_moments(problem: FiniteSumProblem, geometry, gamma: float,
                      points) -> SuccessorMoments:
    """Enumerate the n successors of every point once and record the exact
    moments that the per-iterate audits below are computed from.

    ``points`` is a sequence of P points of shape (d,) or a (P, d) array.
    They are enumerated ``max(1, 2**15 // (n·d))`` at a time, which bounds
    the memory of one block; no point's moments depend on the block size.
    """
    x_star, d = problem.x_star, problem.dim
    points = np.ascontiguousarray(points, dtype=float).reshape(len(points), d)
    block = max(1, _BLOCK_ENTRIES // (problem.n_components * d))
    moments = np.empty((4, len(points)))
    for start in range(0, len(points), block):
        Xp = points[start:start + block]
        succ = enumerate_successors(problem, geometry, gamma, Xp)
        Dp = succ - x_star[:, None, None]
        G = (Xp.T[:, :, None] - succ) / gamma
        mean_G = np.ascontiguousarray(G.mean(axis=2).T)
        moments[:, start:start + block] = (
            _sqnorms(Xp - x_star), (Dp * Dp).sum(axis=0).mean(axis=-1),
            (G * G).sum(axis=0).mean(axis=-1), _sqnorms(mean_G))
    return SuccessorMoments(gamma, *moments)


@dataclass
class NecessaryConditionReport:
    """Per-iterate margins of the second-moment bound E‖G‖² ≤ ‖EG‖²/(1−ω) + σ².

    ``flagged`` lists iterations whose margin fell below −1e-9·(1 + rhs);
    ``hypothesis_failures`` lists iterations where the assumed one-step
    contraction E‖x₊−x̄₊‖² ≤ ω‖x−x̄‖² + γ²σ² itself failed (those are
    excluded from the conclusion check).
    """

    margins: np.ndarray
    flagged: list = field(default_factory=list)
    hypothesis_failures: list = field(default_factory=list)
    omega: float = math.nan
    sigma_sq: float = math.nan

    @property
    def ok(self) -> bool:
        return not self.flagged


def verify_necessary_condition(moments: SuccessorMoments, omega: float,
                               sigma_sq: float) -> NecessaryConditionReport:
    """Exact check of the variance bound implied by linear convergence.

    At every point of ``moments`` (the iterates of a trajectory), verifies
    E‖G‖² ≤ ‖E G‖²/(1−ω) + σ² for the one-step residual mapping
    G = (x − x₊)/γ.  Indices in the report are positions in that point
    sequence, so they are iterations when the trajectory was not thinned.
    """
    if not 0 < omega < 1:
        raise ValueError("omega must lie in (0, 1)")
    if sigma_sq < 0:
        raise ValueError("sigma_sq must be nonnegative")
    gamma = moments.gamma
    rhs = moments.mean_grad_sq / (1.0 - omega) + sigma_sq
    margins = rhs - moments.grad_sq
    hyp_rhs = omega * moments.dist_sq + gamma * gamma * sigma_sq
    hyp_failed = moments.next_dist_sq > hyp_rhs + _MARGIN_RTOL * (1.0 + hyp_rhs)
    flagged = ~hyp_failed & (margins < -_MARGIN_RTOL * (1.0 + rhs))
    return NecessaryConditionReport(
        margins=margins, flagged=np.flatnonzero(flagged).tolist(),
        hypothesis_failures=np.flatnonzero(hyp_failed).tolist(),
        omega=omega, sigma_sq=sigma_sq)


def measured_worst_omega(moments: SuccessorMoments, sigma_sq: float) -> float:
    """Worst exact one-step contraction (E‖x₊−x̄₊‖² − γ²σ²) / ‖x−x̄‖² over
    the points, skipping those already on the solution set."""
    gamma = moments.gamma
    keep = moments.dist_sq > 1e-30
    ratios = ((moments.next_dist_sq[keep] - gamma * gamma * sigma_sq)
              / moments.dist_sq[keep])
    return max([0.0, *ratios.tolist()])


def contraction_margins(moments: SuccessorMoments, rho: float,
                        sigma1_sq: float):
    """Margins of the exact per-step bound E‖x₊−x̄₊‖² ≤ (1−ρ)‖x−x̄‖² + γ²σ₁².

    Returns (margins, flagged) where flagged lists the indices violating
    the bound beyond 1e-9 relative tolerance.
    """
    gamma = moments.gamma
    bound = (1.0 - rho) * moments.dist_sq + gamma * gamma * sigma1_sq
    margins = bound - moments.next_dist_sq
    flagged = margins < -_MARGIN_RTOL * (1.0 + bound)
    return margins, np.flatnonzero(flagged).tolist()


def example1_constants(problem: FiniteSumProblem, probe_points):
    """Closed-form weak-growth constants M = 4L₀/μ and σ² = 2β².

    β² is the conditional second moment at the solution x*, the projection
    of every probe.  Asserts the resulting envelope on every probe, from one
    block enumeration, before returning.
    """
    mu = problem.restricted_mu
    L0 = problem.per_component_L0
    if not mu > 0:
        raise ValueError("these constants require restricted strong convexity "
                         "(restricted_mu > 0)")
    if not L0 > 0:
        raise ValueError("these constants require a positive per-component "
                         "smoothness bound")
    _, beta_sq = exact_conditional_moment(problem, problem.x_star)
    M = 4.0 * L0 / mu
    sigma_sq = 2.0 * beta_sq
    for full_sq, moment, _ in _probe_rows(problem, probe_points):
        envelope = M * full_sq + sigma_sq
        if moment > envelope + 1e-9:
            raise RuntimeError(
                f"analytic envelope M={M:g}, sigma_sq={sigma_sq:g} fails at a "
                f"probe (moment {moment:g} > {envelope:g})")
    return M, sigma_sq


def growth_record(report: GrowthReport) -> dict:
    """Flat key/value view of a report, matching the documented record keys."""
    rec = {
        "B": report.B_sgc,
        "M": report.M_wgc,
        "sigma_sq": report.sigma_sq,
        "classification": report.classification,
        "probes.seed": report.probe_seed,
        "probes.scales": list(report.probe_scales),
        "analytic": report.analytic,
    }
    if report.degenerate:
        rec["warning"] = "degenerate probe set: all mean gradients vanish"
    return rec


def write_growth_json(path, report: GrowthReport) -> None:
    """Write the flat record as JSON (infinite B serializes as Infinity)."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(growth_record(report), fh, indent=2, sort_keys=True)
        fh.write("\n")
