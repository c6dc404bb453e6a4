import json
import math
import tracemalloc

import numpy as np
import pytest
from conftest import component_grad, exact_conditional_moment, run_one

from sgmlab import geometry as geo
from sgmlab import cli, growth, problems, solvers
from sgmlab.growth import (
    contraction_margins,
    enumerate_successors,
    fit_wgc,
    growth_record,
    measured_worst_omega,
    probe_grid,
    successor_moments,
    verify_necessary_condition,
    write_growth_json,
)


def constant_problem():
    """n=2 components that cancel: the full gradient vanishes everywhere."""

    def batch(X, idx):
        signs = np.where(np.asarray(idx) == 0, 1.0, -1.0)
        return X * signs[None, :]

    return problems.FiniteSumProblem(
        name="cancel", dim=2, n_components=2,
        lipschitz_L=1.0, strong_mu=0.0,
        x_star=np.zeros(2),  # one point of the solution set, the whole plane
        full_grad=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        batch_component_grad=batch,
        all_component_grads=lambda Xp: np.stack([Xp, -Xp], axis=1),
        # E‖∇fᵢ(x)‖² = ‖x‖² while ∇f = 0: no finite weak-growth pair
        analytic_M=math.inf, analytic_sigma_sq=math.inf,
    )


# ---------------------------------------------------------------------------
# probe grids
# ---------------------------------------------------------------------------

def test_probe_grid_is_seeded_and_includes_landmarks(kaczmarz_20x5):
    pts_a = probe_grid(kaczmarz_20x5, 42)
    pts_b = probe_grid(kaczmarz_20x5, 42)
    assert len(pts_a) == len(pts_b)
    assert all(np.array_equal(x, y) for x, y in zip(pts_a, pts_b))
    assert len(probe_grid(kaczmarz_20x5, 43)) == len(pts_a)
    # landmarks: every declared zero-gradient point and x*
    sol = kaczmarz_20x5.x_star
    assert any(np.array_equal(p, sol) for p in pts_a)
    # 32 points per scale x 3 scales + landmarks
    assert len(pts_a) == 32 * 3 + len(kaczmarz_20x5.grad_zero_points) + 1


def test_probe_grid_scales_spread(two_point):
    pts = probe_grid(two_point, 0, n_points=8, scales=(0.1, 10.0))
    mags = np.array([abs(float(p[0])) for p in pts])
    assert mags.max() > 1.0 and (mags[mags > 0].min() < 1.0)


# ---------------------------------------------------------------------------
# growth-constant fitting
# ---------------------------------------------------------------------------

def test_sgc_is_infinite_when_noise_persists(two_point):
    B = fit_wgc(two_point, probe_grid(two_point, 1)).B_sgc
    assert math.isinf(B)


def test_sgc_is_finite_under_interpolation(shared_minimizer,
                                           shared_minimizer_B):
    B = fit_wgc(shared_minimizer, probe_grid(shared_minimizer, 1)).B_sgc
    assert math.isfinite(B)
    assert np.isclose(B, shared_minimizer_B, rtol=1e-9)


def test_wgc_two_point_constants(two_point):
    rep = fit_wgc(two_point, probe_grid(two_point, 2))
    assert abs(rep.M_wgc - 1.0) < 1e-9
    assert abs(rep.sigma_sq - 1.0) < 1e-9
    assert rep.classification == "WGC"
    assert math.isinf(rep.B_sgc)


def test_wgc_classifies_interpolation_as_gc(kaczmarz_20x5, shared_minimizer):
    for p in (kaczmarz_20x5, shared_minimizer):
        rep = fit_wgc(p, probe_grid(p, 3))
        assert rep.classification == "GC"
        assert rep.sigma_sq <= 1e-12
        assert rep.M_wgc >= 1.0 - 1e-12


def test_wgc_envelope_holds_on_probes(quadratic_l1):
    probes = probe_grid(quadratic_l1, 4)
    rep = fit_wgc(quadratic_l1, probes)
    for x in probes:
        _, second = exact_conditional_moment(quadratic_l1, x)
        full = quadratic_l1.full_grad(x)
        bound = rep.M_wgc * float(full @ full) + rep.sigma_sq
        assert second <= bound * (1 + 1e-9) + 1e-12


def sgc_oracle(p, probes):
    """Smallest B >= 1 with ‖∇fᵢ(x)‖² <= B‖∇f(x)‖² for every component and
    probe, from the analytic ∇f and one component gradient at a time; ∞
    when ∇f vanishes at a probe where some ∇fᵢ does not."""
    B = 1.0
    for x in probes:
        full = p.full_grad(x)
        comp = max(float(g @ g) for g in (component_grad(p, i, x)
                                          for i in range(p.n_components)))
        if math.sqrt(full @ full) > growth.ZERO_GRAD_TOL:
            B = max(B, comp / float(full @ full))
        elif math.sqrt(comp) > growth.ZERO_GRAD_TOL:
            B = math.inf
    return B


def test_wgc_chain_finite_B_implies_zero_sigma(kaczmarz_20x5,
                                               shared_minimizer, two_point):
    for p in (kaczmarz_20x5, shared_minimizer, two_point):
        probes = probe_grid(p, 5)
        rep = fit_wgc(p, probes)
        assert rep.B_sgc == pytest.approx(sgc_oracle(p, probes), rel=1e-9)
        if math.isfinite(rep.B_sgc):
            assert rep.sigma_sq <= 1e-12


def test_degenerate_probe_set_is_flagged():
    p = constant_problem()
    rep = fit_wgc(p, probe_grid(p, 6))
    assert rep.degenerate
    assert rep.M_wgc == 1.0
    record = growth_record(rep)
    assert "warning" in record


def test_m_is_never_below_one(kaczmarz_20x5):
    # even on a restricted probe set where the raw ratio max would be < 1
    sol = kaczmarz_20x5.x_star
    rep = fit_wgc(kaczmarz_20x5, [sol + 1e3 * np.ones(5)])
    assert rep.M_wgc >= 1.0


# ---------------------------------------------------------------------------
# closed-form Kaczmarz growth constant
# ---------------------------------------------------------------------------

def test_kaczmarz_M_identity_rows():
    sys_ = problems.KaczmarzSystem(A=np.eye(2), b=np.zeros(2))
    p = problems.make_kaczmarz_problem(sys_)
    assert np.isclose(p.analytic_M, 2.0, rtol=1e-12)


def test_kaczmarz_M_orthonormal_rows():
    th = 0.3
    R = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
    sys_ = problems.KaczmarzSystem(A=R, b=np.ones(2))
    p = problems.make_kaczmarz_problem(sys_)
    assert np.isclose(p.analytic_M, 2.0, rtol=1e-12)


def test_kaczmarz_M_against_svd_oracle():
    sys_ = problems.make_random_kaczmarz_system(20, 5, 77, mix=0.8)
    sv = np.linalg.svd(sys_.A, compute_uv=False)
    oracle = 20 * sv[0] ** 2 / sv[-1] ** 4
    p = problems.make_kaczmarz_problem(sys_)
    assert np.isclose(p.analytic_M, oracle, rtol=1e-8)


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_kaczmarz_M_dominates_measured_ratios(seed):
    sys_ = problems.make_random_kaczmarz_system(15, 4, seed, mix=0.7)
    p = problems.make_kaczmarz_problem(sys_)
    M = p.analytic_M
    g = np.random.default_rng(seed)
    X = g.normal(size=(1000, 4)) * g.choice([0.1, 1, 10], size=(1000, 1))
    for x in X:
        _, second = exact_conditional_moment(p, x)
        full = p.full_grad(x)
        assert second <= M * float(full @ full) * (1 + 1e-9) + 1e-12


def test_fitted_M_never_exceeds_analytic(kaczmarz_20x5):
    rep = fit_wgc(kaczmarz_20x5, probe_grid(kaczmarz_20x5, 8))
    assert rep.M_wgc <= kaczmarz_20x5.analytic_M * (1 + 1e-9)


# ---------------------------------------------------------------------------
# the paper's Example 1: per-component smoothness (cocoercivity route)
# ---------------------------------------------------------------------------

def example1_constants(problem, L0):
    """Example 1's weak-growth pair M = 4L₀/μ and σ² = 2β², where L₀ bounds
    every component's smoothness and β² is the exact conditional second
    moment at the solution x*."""
    if not (problem.strong_mu > 0 and L0 > 0):
        raise ValueError("Example 1 needs mu > 0 and L0 > 0")
    _, beta_sq = exact_conditional_moment(problem, problem.x_star)
    return 4.0 * L0 / problem.strong_mu, 2.0 * beta_sq


def test_example1_constants_two_point(two_point):
    M, sigma_sq = example1_constants(two_point, L0=1.0)
    assert np.isclose(M, 4.0, rtol=1e-12)
    assert np.isclose(sigma_sq, 2.0, rtol=1e-12)
    # envelope: E||grad_i||^2 = x^2 + 1 <= 4 x^2 + 2
    for x in probe_grid(two_point, 10):
        _, second = exact_conditional_moment(two_point, x)
        full = two_point.full_grad(x)
        assert second <= M * float(full @ full) + sigma_sq + 1e-12


@pytest.mark.parametrize("name", ["two_point", "kaczmarz", "quadratic_l1"])
def test_example1_envelope_holds_on_every_probe(name, two_point,
                                                kaczmarz_20x5, quadratic_l1):
    # L₀ = 1 for two_point and for Kaczmarz's unit rows (∇²fᵢ = aᵢaᵢᵀ), and
    # L for quadratic_l1, whose components share the Hessian Q
    p, L0 = {"two_point": (two_point, 1.0), "kaczmarz": (kaczmarz_20x5, 1.0),
             "quadratic_l1": (quadratic_l1, quadratic_l1.lipschitz_L)}[name]
    M, sigma_sq = example1_constants(p, L0)
    for full_sq, moment, _ in growth._probe_rows(p, probe_grid(p, 9)):
        assert moment <= (M * full_sq + sigma_sq) * (1 + 1e-9) + 1e-12


def test_example1_requires_positive_curvature():
    with pytest.raises(ValueError):
        example1_constants(constant_problem(), L0=1.0)


# ---------------------------------------------------------------------------
# successor enumeration and the necessary condition
# ---------------------------------------------------------------------------

def test_enumerate_successors_plain(two_point):
    x = np.array([0.8])
    succ = enumerate_successors(two_point, None, 0.5, x[None])
    manual = np.stack([x - 0.5 * component_grad(two_point, i, x)
                       for i in range(2)], axis=1)
    assert succ.shape == (1, 1, 2)
    assert np.array_equal(succ[:, 0], manual)


def _l1_steps(p, gamma, x):
    """Each component's proximal step from x, one prox call per component."""
    return np.stack([geo.prox(p.regularizer, gamma,
                              x - gamma * component_grad(p, i, x))
                     for i in range(p.n_components)], axis=1)


def test_enumerate_successors_respects_geometry(quadratic_l1, rng):
    p, gamma = quadratic_l1, 0.3
    x = rng.normal(size=p.dim) * 0.2
    succ = enumerate_successors(p, p.regularizer, gamma, x[None])[:, 0]
    assert succ.shape == (p.dim, p.n_components)
    assert np.array_equal(succ, _l1_steps(p, gamma, x))
    # the l1 prox shrinks every plain step here, so the map is not skipped
    plain = enumerate_successors(p, None, gamma, x[None])[:, 0]
    assert np.all(np.abs(succ) < np.abs(plain))


def test_successor_moments_are_enumerated_moments(rng):
    # d = 5 < 8, so np.sum below adds in the same order as the dot product
    p, gamma = problems.make_quadratic_l1(dim=5), 0.3
    S = p.regularizer
    points = rng.normal(size=(4, p.dim)) * 3
    moments = successor_moments(p, S, gamma, points)
    assert moments.gamma == gamma
    for k, x in enumerate(points):
        succ = enumerate_successors(p, S, gamma, x[None])[:, 0]
        assert np.array_equal(succ, _l1_steps(p, gamma, x))
        G = (x[:, None] - succ) / gamma
        D = succ - p.x_star[:, None]
        assert moments.dist_sq[k] == np.sum((x - p.x_star) ** 2)
        assert np.isclose(moments.next_dist_sq[k],
                          np.mean(np.sum(D * D, axis=0)), rtol=1e-14)
        assert np.isclose(moments.grad_sq[k], np.mean(np.sum(G * G, axis=0)),
                          rtol=1e-14)
        assert np.isclose(moments.mean_grad_sq[k],
                          np.sum(G.mean(axis=1) ** 2), rtol=1e-14)


def _reference_step(geometry):
    """The reference's step map, written out: the l1 prox, and Y itself for
    every other geometry."""
    if isinstance(geometry, geo.Regularizer) and geometry.kind == "l1":
        return lambda gamma, Y: geo.prox(geometry, gamma, Y)
    return lambda gamma, Y: Y


def _per_point_moments(p, geometry, gamma, points):
    """The per-point loop that the block enumeration replaced, kept as its
    reference: one enumeration per point, its (d, n) successors in C order
    (the moments are sums over d, whose last bits depend on the layout for
    d >= 8), each moment a dot product or a ``.mean()`` of them."""
    x_star = p.x_star
    step = _reference_step(geometry)
    moments = np.empty((4, len(points)))
    for k, x in enumerate(points):
        grads = p.all_component_grads(x[None])[0]
        succ = step(gamma, np.subtract(x[:, None], gamma * grads.T,
                                       order="C"))
        xc = x - x_star
        Dp = succ - x_star[:, None]
        G = (x[:, None] - succ) / gamma
        mean_G = G.mean(axis=1)
        moments[:, k] = (float(xc @ xc), float((Dp * Dp).sum(axis=0).mean()),
                         float((G * G).sum(axis=0).mean()),
                         float(mean_G @ mean_G))
    return moments


AUDIT_GEOMETRIES = {
    "none": lambda d: None,
    "whole_space": lambda d: geo.whole_space(),
    "l1": lambda d: geo.l1_regularizer(0.05),
    "zero_resolvent": lambda d: geo.LinearMonotoneOperator(),
    "zero_prox": lambda d: geo.zero_regularizer(),
}


@pytest.mark.parametrize("geometry", AUDIT_GEOMETRIES)
@pytest.mark.parametrize("problem", ["quadratic_l1", "kaczmarz_20x5"])
def test_successor_moments_equal_the_per_point_loop(problem, geometry,
                                                     request):
    # d = 10 >= 8 makes numpy's sums over d depend on memory layout, and the
    # sizes put points on each side of a block boundary
    p, gamma = request.getfixturevalue(problem), 0.3
    S = AUDIT_GEOMETRIES[geometry](p.dim)
    w = growth._BLOCK_ENTRIES // (p.n_components * p.dim)
    rng = np.random.default_rng(len(geometry) + p.dim)
    for P in (1, w - 1, w, w + 1, 2 * w + 3):
        points = rng.normal(size=(P, p.dim)) * np.exp2(
            rng.integers(-10, 10, (P, 1)))
        points[P // 2] = p.x_star
        points[-1, 0] = -0.0
        moments = successor_moments(p, S, gamma, points)
        want = _per_point_moments(p, S, gamma, points)
        for k, name in enumerate(("dist_sq", "next_dist_sq", "grad_sq",
                                  "mean_grad_sq")):
            assert getattr(moments, name).tobytes() == want[k].tobytes(), (
                P, name)


IDENTITY_GEOMETRIES = {
    "whole_space": geo.whole_space,
    "zero_regularizer": geo.zero_regularizer,
    "constant_regularizer": lambda: cli.build_regularizer(("constant", 3.7)),
    "zero_operator": geo.LinearMonotoneOperator,
}


@pytest.mark.parametrize("problem", ["quadratic_l1", "kaczmarz_20x5"])
def test_identity_geometries_audit_bit_for_bit_as_sgm(problem, request):
    # sgm, psgm on the whole space, prox_sgm with a zero or constant
    # regularizer and resolvent_sgm with the zero operator are one
    # iteration, so their exact moments must not differ in any bit: the
    # audit of a point may not depend on the method's name
    p, gamma = request.getfixturevalue(problem), 0.3
    rng = np.random.default_rng(0)
    points = rng.normal(size=(200, p.dim)) * np.exp2(
        rng.integers(-10, 10, (200, 1)))
    names = ("dist_sq", "next_dist_sq", "grad_sq", "mean_grad_sq")
    base = successor_moments(p, None, gamma, points)
    for geometry, make in IDENTITY_GEOMETRIES.items():
        moments = successor_moments(p, make(), gamma, points)
        for name in names:
            assert (getattr(moments, name).tobytes()
                    == getattr(base, name).tobytes()), (geometry, name)


def test_successor_moments_memory_is_bounded_by_a_block(kaczmarz_20x5):
    # one (d, P·n) array of every successor at once would be 4 MB here; a
    # block of 2**13 successor entries makes each of its temporaries 64 KB,
    # and fewer than ten of them are alive at once
    p = kaczmarz_20x5
    points = np.random.default_rng(3).normal(size=(5001, p.dim))
    tracemalloc.start()
    try:
        moments = successor_moments(p, None, 0.5, points)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert moments.dist_sq.shape == (5001,)
    assert peak - retained < 10 * 2**13 * points.itemsize


def _reference_audits(p, gamma, points, omega, sigma_sq, rho):
    """The three audits as separate per-point loops, each enumerating the
    successors itself: the arithmetic the shared moments must reproduce."""
    x_star, tol = p.x_star, growth._MARGIN_RTOL
    margins, flagged, hyp_failures = [], [], []
    worst, c_margins, c_flagged = 0.0, [], []
    for t, x in enumerate(points):
        succ = enumerate_successors(p, None, gamma, x[None])[:, 0]
        G = (x[:, None] - succ) / gamma
        lhs = float((G * G).sum(axis=0).mean())
        mean_G = G.mean(axis=1)
        rhs = float(mean_G @ mean_G) / (1.0 - omega) + sigma_sq
        margins.append(rhs - lhs)
        Dp = succ - x_star[:, None]
        mean_next = float((Dp * Dp).sum(axis=0).mean())
        xc = x - x_star
        dist = float(xc @ xc)
        if dist > 1e-30:
            worst = max(worst, (mean_next - gamma * gamma * sigma_sq) / dist)
        hyp_rhs = omega * dist + gamma * gamma * sigma_sq
        if mean_next > hyp_rhs + tol * (1.0 + hyp_rhs):
            hyp_failures.append(t)
        elif margins[-1] < -tol * (1.0 + rhs):
            flagged.append(t)
        bound = (1.0 - rho) * dist + gamma * gamma * sigma_sq
        c_margins.append(bound - mean_next)
        if c_margins[-1] < -tol * (1.0 + bound):
            c_flagged.append(t)
    return margins, flagged, hyp_failures, worst, c_margins, c_flagged


@pytest.mark.parametrize("omega,rho", [(0.3, 0.5), (0.9, 0.01)])
def test_audits_equal_per_point_loop_reference(two_point, omega, rho):
    # sigma_sq below the true 1.0 makes the hypothesis fail, and the
    # contraction bound flag, at some iterates but not at others
    gamma, sigma_sq = 0.5, 0.5
    spec = solvers.SolverRun(problem=two_point,
                             step=solvers.ConstantStep(gamma), iters=60,
                             seed=24, x0=np.array([4.0]))
    points = run_one(spec).points
    moments = successor_moments(two_point, None, gamma, points)
    margins, flagged, hyp, worst, c_margins, c_flagged = _reference_audits(
        two_point, gamma, points, omega, sigma_sq, rho)
    assert 0 < len(hyp) < len(points) and 0 < len(c_flagged) < len(points)
    rep = verify_necessary_condition(moments, omega=omega, sigma_sq=sigma_sq)
    assert np.array_equal(rep.margins, margins)
    assert rep.flagged == flagged and rep.hypothesis_failures == hyp
    assert measured_worst_omega(moments, sigma_sq) == worst
    got_margins, got_flagged = contraction_margins(moments, rho, sigma_sq)
    assert np.array_equal(got_margins, c_margins)
    assert got_flagged == c_flagged


def test_necessary_condition_two_point_margins_are_exact(two_point):
    gamma = 0.5
    omega = (1 - gamma) ** 2
    spec = solvers.SolverRun(problem=two_point,
                             step=solvers.ConstantStep(gamma), iters=100,
                             seed=21, x0=np.array([2.0]))
    traj = run_one(spec)
    rep = verify_necessary_condition(
        successor_moments(two_point, None, gamma, traj.points),
        omega=omega, sigma_sq=1.0)
    assert rep.ok
    assert not rep.flagged and not rep.hypothesis_failures
    # closed form: margin(x) = x^2 (1/(1-omega) - 1) = x^2 / 3 at gamma = 0.5
    xs = traj.points[:, 0]
    assert np.allclose(rep.margins, xs**2 / 3.0, atol=1e-12)


def test_necessary_condition_flags_understated_omega(two_point):
    gamma = 0.5
    spec = solvers.SolverRun(problem=two_point,
                             step=solvers.ConstantStep(gamma), iters=50,
                             seed=22, x0=np.array([5.0]))
    traj = run_one(spec)
    # omega far below the true one-step contraction: the hypothesis
    # E||x+ - xbar||^2 <= omega ||x - xbar||^2 + gamma^2 sigma^2 fails
    rep = verify_necessary_condition(
        successor_moments(two_point, None, gamma, traj.points),
        omega=1e-6, sigma_sq=1.0)
    assert rep.hypothesis_failures


def test_necessary_condition_validates_inputs(two_point):
    spec = solvers.SolverRun(problem=two_point,
                             step=solvers.ConstantStep(0.5), iters=60, seed=2)
    moments = successor_moments(two_point, None, 0.5, run_one(spec).points)
    with pytest.raises(ValueError):
        verify_necessary_condition(moments, omega=1.0, sigma_sq=1.0)
    with pytest.raises(ValueError):
        verify_necessary_condition(moments, omega=0.5, sigma_sq=-1.0)


def test_measured_omega_matches_closed_form(two_point):
    gamma = 0.5
    spec = solvers.SolverRun(problem=two_point,
                             step=solvers.ConstantStep(gamma), iters=80,
                             seed=23, x0=np.array([3.0]))
    traj = run_one(spec)
    omega = measured_worst_omega(
        successor_moments(two_point, None, gamma, traj.points), sigma_sq=1.0)
    assert np.isclose(omega, (1 - gamma) ** 2, atol=1e-12)


def test_contraction_margins_clean_on_kaczmarz(kaczmarz_20x5):
    p = kaczmarz_20x5
    gamma, rho = solvers.recommend_step(p.lipschitz_L, p.analytic_M,
                                        p.strong_mu)
    spec = solvers.SolverRun(problem=p,
                             step=solvers.ConstantStep(gamma), iters=100,
                             seed=31)
    traj = run_one(spec)
    margins, flagged = contraction_margins(
        successor_moments(p, None, gamma, traj.points), rho, 0.0)
    assert not flagged
    assert margins.min() >= 0.0


def test_contraction_margins_flag_impossible_rate(two_point):
    # demanding a stronger contraction than one step provides must flag
    points = [np.array([3.0])]
    _, flagged = contraction_margins(
        successor_moments(two_point, None, 0.5, points), rho=0.999,
        sigma1_sq=0.0)
    assert flagged


# ---------------------------------------------------------------------------
# records
# ---------------------------------------------------------------------------

def test_growth_record_and_json_round_trip(tmp_path, kaczmarz_20x5):
    rep = fit_wgc(kaczmarz_20x5, probe_grid(kaczmarz_20x5, 12),
                  probe_seed=12, probe_scales=(0.1, 1.0, 10.0))
    record = growth_record(rep)
    assert set(record) >= {"B", "M", "sigma_sq", "classification",
                           "probes.seed", "probes.scales", "analytic"}
    path = tmp_path / "growth.json"
    write_growth_json(path, rep)
    loaded = json.loads(path.read_text())
    assert loaded["M"] == rep.M_wgc
    assert loaded["classification"] == "GC"
    assert loaded["probes.seed"] == 12


def test_growth_json_handles_infinite_B(tmp_path, two_point):
    rep = fit_wgc(two_point, probe_grid(two_point, 13))
    path = tmp_path / "growth.json"
    write_growth_json(path, rep)
    assert math.isinf(json.loads(path.read_text())["B"])
