import math
from dataclasses import replace

import pytest

from sgmlab import checks
from sgmlab import geometry as geo
from sgmlab.solvers import ConstantStep, SolverRun, recommend_step, run_ensemble

# One geometry per method, with the values each prediction took when the
# method was passed by name, on kaczmarz_20x5 with restricted_mu = 0.125
# (so the proximal path's strong_mu differs from the others' μ) at γ = 0.03:
# (geometry, recommend_step, predicted_rho, floor_prediction).
METHOD_CASES = {
    "sgm": (lambda p: None,
            (0.04341372933741744, 0.00271335808358859),
            0.002454326929326497,
            ((0.002454326929326497, 0.0, 0.0), None)),
    "psgm": (lambda p: geo.whole_space(),
             (0.04341372933741744, 0.00271335808358859),
             0.002454326929326497,
             ((0.002454326929326497, 0.0, 0.0), None)),
    "prox_sgm": (lambda p: geo.zero_regularizer(),
                 (0.02170686466870872, 0.0010319496843666485),
                 0.0008813230299082406,
                 ((0.0008813230299082406, 1.272859017183811e-29,
                   1.2998334056749904e-29), None)),
    "resolvent_sgm": (
        lambda p: geo.LinearMonotoneOperator(dim=p.dim),
        (0.04341372933741744, 0.00271335808358859),
        0.002454326929326497,
        (None, "no floor prediction for resolvent iterations")),
}


@pytest.mark.parametrize("method", list(METHOD_CASES))
def test_the_geometry_alone_names_the_method(kaczmarz_20x5, method):
    make_geometry, recommended, rho, floor = METHOD_CASES[method]
    geometry = make_geometry(kaczmarz_20x5)
    p = replace(kaczmarz_20x5, restricted_mu=0.125)
    mu = checks._effective_mu(p, geometry)
    assert recommend_step(p.lipschitz_L, p.analytic_M, mu,
                          geometry) == recommended
    assert checks.predicted_rho(p, geometry, 0.03) == rho
    assert checks.floor_prediction(p, geometry, 0.03) == floor

    # every method certifies a rate on this σ² = 0 problem, but the exact
    # per-step contraction audit is stated for plain and projected steps
    p = kaczmarz_20x5
    gamma, rho_pred = recommend_step(p.lipschitz_L, p.analytic_M,
                                     checks._effective_mu(p, geometry),
                                     geometry)
    spec = SolverRun(problem=p, step=ConstantStep(gamma), iters=300, seed=5,
                     geometry=geometry)
    out = checks.check_rate(checks.RunContext(spec, rho_pred,
                                              run_ensemble(spec, 20)))
    assert not math.isnan(out["rho_pred"])
    audited = geometry is None or isinstance(geometry, geo.ConvexSet)
    assert ("contraction_violations" in out) == audited
