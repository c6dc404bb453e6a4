"""End-to-end acceptance battery.

Each test covers one numbered claim about the package at desk scale,
prints a single [PASS]/[FAIL] line, and enforces a wall-clock budget.
Run with ``pytest -v tests/test_acceptance.py -s`` to see the lines.
"""

import json
import time

import numpy as np
import pytest
from conftest import make_shared_minimizer_quadratics, run_one

from sgmlab import analysis, cli, growth, problems, solvers
from sgmlab.analysis import estimate_floor, fit_linear_rate, predict_floor
from sgmlab.growth import (
    contraction_margins,
    fit_wgc,
    measured_worst_omega,
    probe_grid,
    successor_moments,
    verify_necessary_condition,
)
from sgmlab.problems import (
    make_kaczmarz_problem,
    make_quadratic_l1,
    make_random_kaczmarz_system,
    make_two_point_quadratic,
)
from sgmlab.checks import recommend_step
from sgmlab.solvers import ConstantStep, InverseTStep, SolverRun, run_ensemble


def _criterion(number, description, ok, elapsed, budget):
    status = "PASS" if (ok and elapsed < budget) else "FAIL"
    print(f"[{status}] criterion {number}: {description} "
          f"({elapsed:.2f}s, budget {budget:.0f}s)")
    assert ok, f"criterion {number} failed: {description}"
    assert elapsed < budget, (
        f"criterion {number} exceeded its {budget:.0f}s budget "
        f"({elapsed:.2f}s)")


def _kaczmarz_instance():
    return make_kaczmarz_problem(
        make_random_kaczmarz_system(20, 5, 20250814, mix=0.5))


def test_criterion_1_necessary_condition_holds_everywhere():
    t0 = time.perf_counter()
    ok = True

    # (a) consistent Kaczmarz: zero gradient noise at the solution
    kp = _kaczmarz_instance()
    gamma_a, _ = recommend_step(kp.lipschitz_L, kp.analytic_M,
                                kp.strong_mu, None)
    traj_a = run_one(SolverRun(problem=kp, step=ConstantStep(gamma_a),
                               iters=500, seed=101))
    moments_a = successor_moments(kp, None, gamma_a, traj_a.points)
    omega_a = measured_worst_omega(moments_a, sigma_sq=0.0)
    ok &= 0.0 < omega_a < 1.0
    rep_a = verify_necessary_condition(moments_a, omega=omega_a, sigma_sq=0.0)
    ok &= rep_a.ok and not rep_a.hypothesis_failures
    ok &= len(rep_a.margins) == 501

    # (b) two-point quadratic: unit gradient variance at the solution
    tp = make_two_point_quadratic()
    gamma_b, _ = recommend_step(tp.lipschitz_L, tp.analytic_M, tp.strong_mu,
                                None)
    traj_b = run_one(SolverRun(problem=tp, step=ConstantStep(gamma_b),
                               iters=500, seed=102, x0=np.array([2.0])))
    moments_b = successor_moments(tp, None, gamma_b, traj_b.points)
    omega_b = measured_worst_omega(moments_b, sigma_sq=1.0)
    ok &= 0.0 < omega_b < 1.0
    rep_b = verify_necessary_condition(moments_b, omega=omega_b, sigma_sq=1.0)
    ok &= rep_b.ok and not rep_b.hypothesis_failures

    _criterion(1, "second-moment bound holds at every iterate under the "
                  "measured one-step contraction", ok,
               time.perf_counter() - t0, 5.0)


def test_criterion_2_projected_method_linear_rate_and_zero_floor():
    t0 = time.perf_counter()
    kp = _kaczmarz_instance()
    psgm = cli.method_regularizer("psgm", None, kp)
    gamma, rho = recommend_step(kp.lipschitz_L, kp.analytic_M,
                                kp.strong_mu, psgm)
    spec = SolverRun(problem=kp, regularizer=psgm,
                     step=ConstantStep(gamma), iters=5000, seed=2025)
    ens = run_ensemble(spec, 200)
    fit = fit_linear_rate(ens.mean_dist_sq)

    ok = fit.rate_per_iter <= 1.0 - rho + 3.0 * fit.rate_stderr + 0.01
    ok &= fit.floor_estimate <= 1e-12
    margins, flagged = contraction_margins(
        successor_moments(kp, psgm, gamma, ens.audit.points),
        rho, 0.0)
    ok &= not flagged and len(margins) == 5001

    _criterion(2, "projected method at the recommended step: fitted rate "
                  "within the certified contraction and a vanishing floor",
               ok, time.perf_counter() - t0, 30.0)


def test_criterion_3_unit_step_kaczmarz_converges():
    t0 = time.perf_counter()
    kp = _kaczmarz_instance()
    spec = SolverRun(problem=kp, step=ConstantStep(1.0),
                     iters=800, seed=2026)
    ens = run_ensemble(spec, 200)
    fit = fit_linear_rate(ens.mean_dist_sq)
    floor, _ = estimate_floor(ens.mean_dist_sq, ens.stderr)

    ok = fit.rate_per_iter < 1.0
    ok &= floor <= 1e-12

    _criterion(3, "classical unit-step row projections converge linearly "
                  "on a consistent system", ok, time.perf_counter() - t0, 30.0)


def test_criterion_4_proximal_noise_floor_prediction():
    t0 = time.perf_counter()
    p = make_quadratic_l1(construction_seed=42, dim=10, n_components=20,
                          l1_weight=0.005)
    gamma = 0.002
    L, M, mu = p.lipschitz_L, p.analytic_M, p.strong_mu
    rho = gamma * mu * (1.0 - 2.0 * gamma * L * M)
    assert 0.0 < rho < 1.0
    xstar = p.x_star
    gstar = p.full_grad(xstar)
    sigma1_sq = 2.0 * (1.0 + 2.0 * M) * float(gstar @ gstar) \
        + 2.0 * p.analytic_sigma_sq
    pred = predict_floor(gamma, rho, sigma1_sq)

    spec = SolverRun(problem=p, regularizer=p.regularizer,
                     step=ConstantStep(gamma), iters=6000, seed=20250814)
    ens = run_ensemble(spec, 1000)
    floor, se = estimate_floor(ens.mean_dist_sq, ens.stderr)

    # the prediction is an upper-bound fixed point: the measured level may
    # sit as much as 4x below it but must never exceed it; 3 standard
    # errors of Monte Carlo slack on both sides
    ok = (pred / 4.0 - 3.0 * se) <= floor <= (pred + 3.0 * se)

    _criterion(4, f"proximal noise floor within a factor 4 of the "
                  f"prediction (measured {floor:.3e}, predicted {pred:.3e})",
               ok, time.perf_counter() - t0, 60.0)


def test_criterion_5_floor_scales_with_step_size():
    t0 = time.perf_counter()
    tp = make_two_point_quadratic()
    floors, ses, preds, mean_by_gamma = {}, {}, {}, {}
    for gamma in (0.5, 0.25):
        rho = gamma * 1.0 * (1.0 - gamma)  # gamma mu (1 - gamma L M)
        preds[gamma] = predict_floor(gamma, rho, 1.0)
        spec = SolverRun(problem=tp, step=ConstantStep(gamma),
                         iters=2000, seed=20250814)
        ens = run_ensemble(spec, 10_000)
        mean_by_gamma[gamma] = ens.mean_dist_sq
        floors[gamma], ses[gamma] = estimate_floor(ens.mean_dist_sq,
                                                   ens.stderr)

    ratio_fit = floors[0.5] / floors[0.25]
    ratio_pred = preds[0.5] / preds[0.25]
    ok = abs(ratio_fit - ratio_pred) <= 0.25 * ratio_pred

    # the exact mean recursion m_{t+1} = (1-g)^2 m_t + g^2 from m_0 = 0:
    # its first step gives exactly 0.25 at gamma = 0.5, and the measured
    # window mean must match the recursion's window mean to 3 stderr
    m1 = mean_by_gamma[0.5][1]
    ok &= abs(m1 - 0.25) <= 1e-12
    for gamma in (0.5, 0.25):
        exact = np.empty(2001)
        exact[0] = 0.0
        for t in range(2000):
            exact[t + 1] = (1 - gamma) ** 2 * exact[t] + gamma ** 2
        oracle = float(analysis._tail(exact).mean())
        ok &= abs(floors[gamma] - oracle) <= 3.0 * ses[gamma]

    _criterion(5, f"measured floors scale like the predictions across step "
                  f"sizes (ratio {ratio_fit:.3f} vs {ratio_pred:.3f})",
               ok, time.perf_counter() - t0, 60.0)


def test_criterion_6_decaying_step_gives_one_over_t():
    t0 = time.perf_counter()
    p = make_quadratic_l1(construction_seed=42, dim=10, n_components=20,
                          l1_weight=0.005)
    c = 2.0 / p.strong_mu
    spec = SolverRun(problem=p, regularizer=p.regularizer,
                     step=InverseTStep(c), iters=100_000, seed=20250814)
    ens = run_ensemble(spec, 100)
    passed, slope = analysis.check_inverse_t_rate(ens.mean_dist_sq)

    _criterion(6, f"decaying-step mean squared distance decays like 1/t "
                  f"(log-log slope {slope:.3f})", passed,
               time.perf_counter() - t0, 120.0)


def test_criterion_7_growth_classification():
    t0 = time.perf_counter()
    tp = make_two_point_quadratic()
    shared, _ = make_shared_minimizer_quadratics(dim=3, n_components=4,
                                                 construction_seed=7)

    rep = fit_wgc(tp, probe_grid(tp, 7))
    B_tp = rep.B_sgc
    B_shared = fit_wgc(shared, probe_grid(shared, 7)).B_sgc

    ok = np.isinf(B_tp)
    ok &= np.isfinite(B_shared)
    ok &= abs(rep.M_wgc - 1.0) < 1e-9
    ok &= abs(rep.sigma_sq - 1.0) < 1e-9

    _criterion(7, "strong growth fails with persistent noise, holds under "
                  "interpolation; weak growth fits (M, sigma^2) = (1, 1)",
               ok, time.perf_counter() - t0, 1.0)


def test_criterion_8_method_reductions_are_bitwise():
    t0 = time.perf_counter()
    kp = _kaczmarz_instance()
    gamma = 0.04
    ok = True
    # each method's regularizer as the CLI maps its name, prox_sgm's
    # configured as 'zero'
    regularizers = {method: cli.method_regularizer(
        method, ("zero",) if method == "prox_sgm" else None, kp)
        for method in solvers.METHODS}
    for seed in range(10):
        def traj(regularizer):
            return run_one(SolverRun(problem=kp, regularizer=regularizer,
                                     step=ConstantStep(gamma), iters=100,
                                     seed=seed))

        def audit(regularizer, points):
            m = successor_moments(kp, regularizer, gamma, points)
            return [v.tobytes() for v in (m.dist_sq, m.next_dist_sq,
                                          m.grad_sq, m.mean_grad_sq)]

        base = traj(None)
        base_audit = audit(None, base.points)
        for regularizer in regularizers.values():
            other = traj(regularizer)
            ok &= np.array_equal(base.points, other.points)
            ok &= np.array_equal(base.dist_sq, other.dist_sq)
            ok &= np.array_equal(base.sampled_indices, other.sampled_indices)
            ok &= audit(regularizer, other.points) == base_audit

    _criterion(8, "all four methods reduce to the plain method bitwise, "
                  "audits included, when their step map is the identity",
               ok, time.perf_counter() - t0, 1.0)


def test_criterion_9_cli_outputs_are_deterministic(tmp_path):
    t0 = time.perf_counter()
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("""\
[experiment]
name = determinism
seed = 314
iterations = 400
replications = 600
checks = wgc, floor

[problem]
kind = two_point

[method]
kind = sgm
step = constant 0.5
""")
    dirs = [tmp_path / name for name in ("a", "b", "c")]
    codes = [cli.main(["run", str(cfg), "--out", str(d)]) for d in dirs]
    ok = codes == [0, 0, 0]
    for fname in ("trajectory_stats.csv", "audit_trajectory.csv",
                  "summary.csv", "manifest.json", "growth.json"):
        blobs = [(d / fname).read_bytes() for d in dirs]
        ok &= blobs[0] == blobs[1] == blobs[2]

    _criterion(9, "identical config and seed give byte-identical outputs "
                  "across invocations", ok,
               time.perf_counter() - t0, 10.0)
