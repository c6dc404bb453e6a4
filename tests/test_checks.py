import math
from dataclasses import replace

import pytest

from sgmlab import checks
from sgmlab import geometry as geo
from sgmlab.solvers import ConstantStep, SolverRun, recommend_step, run_ensemble

# One geometry per method, with the values each prediction takes on
# kaczmarz_20x5 with strong_mu = 0.125 at γ = 0.03: (geometry,
# recommend_step, predicted_rho, floor_prediction).  The rows of sgm, psgm
# and resolvent_sgm are those the method took when it was passed by name.
METHOD_CASES = {
    "sgm": (lambda p: None,
            (0.04341372933741744, 0.00271335808358859),
            0.002454326929326497,
            ((0.002454326929326497, 0.0, 0.0), None)),
    "psgm": (lambda p: geo.whole_space(),
             (0.04341372933741744, 0.00271335808358859),
             0.002454326929326497,
             ((0.002454326929326497, 0.0, 0.0), None)),
    # γ = 1/(4LM), ρ = μ/(8LM) (half of sgm's), γμ(1 − 2γLM) at γ = 0.03,
    # and the floor γ²σ₁²/ρ
    "prox_sgm": (lambda p: geo.zero_regularizer(),
                 (0.02170686466870872, 0.001356679041794295),
                 0.0011586538586529941,
                 ((0.0011586538586529941, 1.272859017183811e-29,
                   9.887103960428947e-30), None)),
    "resolvent_sgm": (
        lambda p: geo.LinearMonotoneOperator(),
        (0.04341372933741744, 0.00271335808358859),
        0.002454326929326497,
        (None, "no floor prediction for resolvent iterations")),
}


@pytest.mark.parametrize("method", list(METHOD_CASES))
def test_the_geometry_alone_names_the_method(kaczmarz_20x5, method):
    make_geometry, recommended, rho, floor = METHOD_CASES[method]
    geometry = make_geometry(kaczmarz_20x5)
    p = replace(kaczmarz_20x5, strong_mu=0.125)
    assert recommend_step(p.lipschitz_L, p.analytic_M, p.strong_mu,
                          geometry) == recommended
    assert checks.predicted_rho(p, geometry, 0.03) == rho
    assert checks.floor_prediction(p, geometry, 0.03) == floor

    # every method certifies a rate on this σ² = 0 problem, but the exact
    # per-step contraction audit is stated for plain and projected steps
    p = kaczmarz_20x5
    gamma, rho_pred = recommend_step(p.lipschitz_L, p.analytic_M,
                                     p.strong_mu, geometry)
    spec = SolverRun(problem=p, step=ConstantStep(gamma), iters=300, seed=5,
                     geometry=geometry)
    out = checks.check_rate(checks.RunContext(spec, rho_pred,
                                              run_ensemble(spec, 20)))
    assert not math.isnan(out["rho_pred"])
    audited = geometry is None or isinstance(geometry, geo.ConvexSet)
    assert ("contraction_violations" in out) == audited
