"""Run-level checks of the paper's claims, and every rule of the
constant-step analysis they compare against.

The rules read one thing of the method: whether the run carries a
regularizer, as in ``solvers.SolverRun``.  With k = 2 for a proximal step
and k = 1 for a step by Y itself (sgm, psgm and resolvent_sgm), the
contraction is ρ = γμ(1 − kγLM), ``recommend_step`` gives the γ = 1/(2kLM)
that maximizes it, the floor reads σ₁² with a regularizer and σ² without
one, and only a run without one gets the exact per-step contraction audit.

Every check is a function ``check_<name>(run) -> dict`` of one finished
run, a ``RunContext``, whose exact audit moments and probe growth fit are
computed lazily, at most once each.  An entry holds its ``status`` (pass,
fail or skipped), the numbers behind it, and a ``reason`` when it stopped
short of a comparison.  ``CHECKS`` maps names to checks in column order.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from . import analysis, growth, solvers

__all__ = ["RunContext", "CHECKS", "check_wgc", "check_sgc", "check_necessary",
           "check_rate", "check_floor", "check_inverse_t", "recommend_step",
           "predicted_rho", "floor_prediction"]


def _k(regularizer) -> int:
    """The k of ρ = γμ(1 − kγLM): 2 for a proximal step, else 1."""
    return 1 if regularizer is None else 2


def recommend_step(L: float, M: float, mu: float, regularizer=None):
    """(γ, ρ) for the constant-step linear regime: the γ = 1/(2kLM) that
    maximizes γμ(1 − kγLM), with ρ = μ/(4kLM), valid only under the strict
    hypothesis μ < 4kLM.  ``regularizer`` is the run's, as in
    ``solvers.SolverRun``; anything else is a ``ValueError``."""
    solvers._require_regularizer(regularizer)
    if not (L > 0 and M > 0 and mu > 0):
        raise ValueError("L, M and mu must all be positive")
    k = _k(regularizer)
    if not mu < 4 * k * L * M:
        raise ValueError(
            "the constant-step linear-rate guarantee requires the strict "
            f"hypothesis mu < {4 * k}*L*M (got mu={mu:g}, "
            f"{4 * k}LM={4 * k * L * M:g})")
    gamma = 1.0 / (2 * k * L * M)
    rho = mu / (4 * k * L * M)
    if not 0 < rho < 1:
        raise ValueError(f"derived contraction rho={rho:g} is outside (0, 1)")
    return gamma, rho


def predicted_rho(problem, regularizer, gamma: float) -> float:
    """Per-step contraction γμ(1 − kγLM) implied by the constant-step
    analysis from the problem's L, analytic M and ``strong_mu``, or NaN
    when the constants do not certify one at this γ."""
    M, mu, L = problem.analytic_M, problem.strong_mu, problem.lipschitz_L
    if mu <= 0 or L <= 0:
        return math.nan
    rho = gamma * mu * (1.0 - _k(regularizer) * gamma * L * M)
    return rho if 0 < rho < 1 else math.nan


def floor_prediction(problem, regularizer, gamma: float):
    """(rho, sigma1_sq, floor) for the constant-step noise-floor bound, or
    None with a reason when no contraction is certified at this γ."""
    M, s2 = problem.analytic_M, problem.analytic_sigma_sq
    rho = predicted_rho(problem, regularizer, gamma)
    if math.isnan(rho):
        return None, "no contraction certified at this step size"
    if regularizer is None:
        sigma1_sq = s2  # unconstrained: min_C f equals the global infimum
    else:
        gstar = problem.full_grad(problem.x_star)
        sigma1_sq = 2.0 * (1.0 + 2.0 * M) * float(gstar @ gstar) + 2.0 * s2
    return (rho, sigma1_sq, analysis.predict_floor(gamma, rho, sigma1_sq)), None


@dataclass(eq=False)
class RunContext:
    """One finished run: its spec, its predicted per-step contraction (NaN
    if none is certified), its ensemble."""

    spec: solvers.SolverRun
    rho_pred: float
    ens: solvers.EnsembleRun

    @functools.cached_property
    def audit_moments(self) -> growth.SuccessorMoments:
        """Exact one-step moments at the audited iterates: one successor
        enumeration serves every per-iterate audit of the run."""
        spec = self.spec
        return growth.successor_moments(spec.problem, spec.regularizer,
                                        spec.step.gamma, self.ens.audit.points)

    @functools.cached_property
    def growth_report(self) -> growth.GrowthReport:
        """The probe fit of B and (M, σ²), probed at the run's seed."""
        problem, seed = self.spec.problem, self.spec.seed
        probes = growth.probe_grid(problem, seed, scales=growth.PROBE_SCALES)
        return growth.fit_wgc(problem, probes, probe_seed=seed,
                              probe_scales=growth.PROBE_SCALES)


def check_wgc(run: RunContext) -> dict:
    """The probe fit of (M, σ²); it compares nothing, so it always passes."""
    report = run.growth_report
    return {"status": "pass", "M": report.M_wgc, "sigma_sq": report.sigma_sq,
            "classification": report.classification}


def check_sgc(run: RunContext) -> dict:
    """Checks the chain "finite B implies σ² = 0" on the probe fit.  The fit
    sets B = ∞ at any zero-gradient probe with a nonzero component
    gradient, so a finite B already forces σ² ≤ 1e-24: this cannot fail."""
    report = run.growth_report
    B = report.B_sgc
    chain_ok = (not math.isfinite(B)) or report.sigma_sq <= 1e-12
    return {"status": "pass" if chain_ok else "fail",
            "B": "inf" if math.isinf(B) else B, "chain_holds": chain_ok}


def check_necessary(run: RunContext) -> dict:
    audit = run.ens.audit
    if len(audit.point_steps) != audit.iters + 1:
        return {"status": "skipped",
                "reason": "trajectory was thinned; rerun with T <= 10000"}
    if run.spec.step.kind != "constant":
        return {"status": "skipped",
                "reason": "the bound is stated for constant steps"}
    sigma_sq = run.spec.problem.analytic_sigma_sq
    moments = run.audit_moments
    omega = growth.measured_worst_omega(moments, sigma_sq)
    if not 0 < omega < 1:
        return {"status": "fail", "omega": omega,
                "reason": "no strict one-step contraction measured along the "
                          "trajectory"}
    report = growth.verify_necessary_condition(moments, omega, sigma_sq)
    return {
        "status": "pass" if report.ok else "fail",
        "omega": omega,
        "sigma_sq": sigma_sq,
        "violations": len(report.flagged),
        "hypothesis_failures": len(report.hypothesis_failures),
        "min_margin": float(report.margins.min()),
    }


def check_rate(run: RunContext) -> dict:
    problem, rho_pred = run.spec.problem, run.rho_pred
    if run.spec.step.kind != "constant":
        return {"status": "skipped",
                "reason": "rate fitting applies to constant-step runs"}
    try:
        fit = analysis.fit_linear_rate(run.ens.mean_dist_sq)
    except analysis.RateFitError as exc:
        return {"status": "fail", "reason": str(exc)}
    out = {"rate_fit": fit.rate_per_iter, "rate_stderr": fit.rate_stderr,
           "r_squared": fit.r_squared, "floor_estimate": fit.floor_estimate}
    ok = True
    if not math.isnan(rho_pred):
        bound = 1.0 - rho_pred + 3.0 * fit.rate_stderr + 0.01
        out["rho_pred"] = rho_pred
        out["rate_bound"] = bound
        ok &= fit.rate_per_iter <= bound
        # exact per-step contraction audit on the recorded replication
        if run.spec.regularizer is None and problem.analytic_sigma_sq == 0.0:
            _, flagged = growth.contraction_margins(run.audit_moments,
                                                    rho_pred, 0.0)
            out["contraction_violations"] = len(flagged)
            ok &= not flagged
    else:
        ok &= fit.rate_per_iter < 1.0
    if problem.analytic_sigma_sq == 0.0:
        out["floor_limit"] = 1e-12
        ok &= fit.floor_estimate <= 1e-12
    out["status"] = "pass" if ok else "fail"
    return out


def check_floor(run: RunContext) -> dict:
    step = run.spec.step
    if step.kind != "constant":
        return {"status": "skipped",
                "reason": "the floor prediction applies to constant steps"}
    pred, reason = floor_prediction(run.spec.problem, run.spec.regularizer,
                                    step.gamma)
    if pred is None:
        return {"status": "skipped", "reason": reason}
    rho, sigma1_sq, floor_pred = pred
    floor_fit, se = analysis.estimate_floor(run.ens.mean_dist_sq,
                                            run.ens.stderr)
    out = {"floor_fit": floor_fit, "floor_pred": floor_pred,
           "floor_stderr": se, "rho": rho, "sigma1_sq": sigma1_sq}
    if floor_pred == 0.0:
        ok = floor_fit <= 1e-12
        out["floor_limit"] = 1e-12
    else:
        # the prediction is an upper-bound fixed point: the measured floor
        # may sit below it (up to 4x) but must not exceed it
        lo = floor_pred / 4.0 - 3.0 * se
        hi = floor_pred + 3.0 * se
        out["band"] = [lo, hi]
        ok = lo <= floor_fit <= hi
    out["status"] = "pass" if ok else "fail"
    return out


def check_inverse_t(run: RunContext) -> dict:
    if run.spec.step.kind != "inverse_t":
        return {"status": "skipped",
                "reason": "step policy is not inverse_t"}
    passed, slope = analysis.check_inverse_t_rate(run.ens.mean_dist_sq)
    return {"status": "pass" if passed else "fail", "slope": slope,
            "band": [-1.3, -0.7]}


CHECKS = {
    "wgc": check_wgc,
    "sgc": check_sgc,
    "necessary": check_necessary,
    "rate": check_rate,
    "floor": check_floor,
    "inverse_t": check_inverse_t,
}
