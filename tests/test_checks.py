import math
from dataclasses import replace

import pytest

from sgmlab import checks, cli
from sgmlab import geometry as geo
from sgmlab.checks import recommend_step
from sgmlab.solvers import ConstantStep, SolverRun, run_ensemble

# Per method, the values each rule takes on kaczmarz_20x5 with strong_mu =
# 0.125 at γ = 0.03: (recommend_step, predicted_rho, floor_prediction).
# The run's regularizer comes from the CLI's method mapping: prox_sgm's is
# the zero regularizer, every other method's is None, so sgm, psgm and
# resolvent_sgm share one row.
SGM_ROW = ((0.04341372933741744, 0.00271335808358859),
           0.002454326929326497,
           ((0.002454326929326497, 0.0, 0.0), None))
METHOD_CASES = {
    "sgm": SGM_ROW,
    "psgm": SGM_ROW,
    # γ = 1/(4LM), ρ = μ/(8LM) (half of sgm's), γμ(1 − 2γLM) at γ = 0.03,
    # and the floor γ²σ₁²/ρ
    "prox_sgm": ((0.02170686466870872, 0.001356679041794295),
                 0.0011586538586529941,
                 ((0.0011586538586529941, 1.272859017183811e-29,
                   9.887103960428947e-30), None)),
    "resolvent_sgm": SGM_ROW,
}


@pytest.mark.parametrize("method", list(METHOD_CASES))
def test_the_geometry_alone_names_the_method(kaczmarz_20x5, method):
    recommended, rho, floor = METHOD_CASES[method]
    spec = ("zero",) if method == "prox_sgm" else None
    regularizer = cli.method_regularizer(method, spec, kaczmarz_20x5)
    p = replace(kaczmarz_20x5, strong_mu=0.125)
    assert recommend_step(p.lipschitz_L, p.analytic_M, p.strong_mu,
                          regularizer) == recommended
    assert checks.predicted_rho(p, regularizer, 0.03) == rho
    assert checks.floor_prediction(p, regularizer, 0.03) == floor

    # every method certifies a rate on this σ² = 0 problem, but the exact
    # per-step contraction audit is stated for steps by Y itself
    p = kaczmarz_20x5
    gamma, rho_pred = recommend_step(p.lipschitz_L, p.analytic_M,
                                     p.strong_mu, regularizer)
    spec = SolverRun(problem=p, step=ConstantStep(gamma), iters=300, seed=5,
                     regularizer=regularizer)
    out = checks.check_rate(checks.RunContext(spec, rho_pred,
                                              run_ensemble(spec, 20)))
    assert not math.isnan(out["rho_pred"])
    assert ("contraction_violations" in out) == (method != "prox_sgm")


# ---------------------------------------------------------------------------
# recommended steps
# ---------------------------------------------------------------------------

def test_recommend_step_reference_values():
    assert recommend_step(1.0, 1.0, 1.0, None) == (0.5, 0.25)
    assert recommend_step(1.0, 2.0, 1.0, None) == (0.25, 0.125)
    gamma, rho = recommend_step(1.0, 1.0, 1.0, geo.zero_regularizer())
    assert gamma == 0.25 and rho == 0.125


def test_recommend_step_requires_strict_curvature_hypothesis():
    with pytest.raises(ValueError, match="mu < 4"):
        recommend_step(1.0, 1.0, 4.0, None)  # mu == 4LM
    with pytest.raises(ValueError):
        recommend_step(0.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        recommend_step(1.0, 1.0, -2.0)
    with pytest.raises(ValueError, match="regularizer must be"):
        recommend_step(1.0, 1.0, 1.0, "psgm")  # a method name names nothing


def test_recommend_step_with_a_regularizer_requires_mu_below_8LM():
    # the proximal step's k = 2 doubles the bound: mu = 4LM is certified
    g = geo.l1_regularizer(0.1)
    assert recommend_step(1.0, 1.0, 4.0, g) == (0.25, 0.5)
    with pytest.raises(ValueError, match="mu < 8"):
        recommend_step(1.0, 1.0, 8.0, g)  # mu == 8LM
    with pytest.raises(ValueError, match="mu < 8"):
        recommend_step(0.5, 3.0, 12.0, g)


@pytest.mark.parametrize("regularizer", [None, geo.zero_regularizer(),
                                         geo.l1_regularizer(0.1)],
                         ids=["k=1", "k=2-zero", "k=2-l1"])
def test_predicted_rho_at_the_recommended_step_is_the_recommended_rho(
        kaczmarz_20x5, regularizer):
    # recommend_step and predicted_rho read one k: at γ = 1/(2kLM),
    # γμ(1 − kγLM) is μ/(4kLM)
    for mu, L, M in ((0.125, None, None), (1.0, 2.0, 3.0), (1e-3, 0.5, 7.0)):
        p = replace(kaczmarz_20x5, strong_mu=mu,
                    lipschitz_L=L or kaczmarz_20x5.lipschitz_L,
                    analytic_M=M or kaczmarz_20x5.analytic_M)
        gamma, rho = recommend_step(p.lipschitz_L, p.analytic_M, mu,
                                    regularizer)
        assert math.isclose(checks.predicted_rho(p, regularizer, gamma), rho,
                            rel_tol=1e-14, abs_tol=0.0)
