import numpy as np
import pytest
from conftest import (component_grad, exact_conditional_moment,
                      make_shared_minimizer_quadratics)

from sgmlab import geometry as geo
from sgmlab import problems
from sgmlab import rng as sgm_rng
from sgmlab.problems import (
    KaczmarzSystem,
    load_kaczmarz_text,
    make_kaczmarz_problem,
    make_quadratic_l1,
    make_random_kaczmarz_system,
    make_two_point_quadratic,
)


def fd_grad(fun, x, h=1e-6):
    """Central-difference gradient."""
    g = np.zeros_like(x)
    for j in range(len(x)):
        e = np.zeros_like(x)
        e[j] = h
        g[j] = (fun(x + e) - fun(x - e)) / (2 * h)
    return g


# Closed-form component values fᵢ(x), written out from each constructor's
# documented definition (seeded parameters are redrawn from the same
# construction substream), independent of the problems' gradient oracles.

def two_point_value(i, x):
    return 0.5 * (x[0] - (1.0, -1.0)[i]) ** 2


def kaczmarz_value(sys_):
    return lambda i, x: 0.5 * (sys_.A[i] @ x - sys_.b[i]) ** 2


def shared_minimizer_value(dim, n, construction_seed):
    g = sgm_rng.substream(construction_seed, 0)
    scales = 0.5 + g.random(n)
    center = g.standard_normal(dim)
    return lambda i, x: scales[i] * 0.5 * np.sum((x - center) ** 2)


def quadratic_l1_value(construction_seed, dim, n):
    g = sgm_rng.substream(construction_seed, 0)
    V, _ = np.linalg.qr(g.standard_normal((dim, dim)))
    Q = (V * np.linspace(1.0, 2.0, dim)) @ V.T
    xbar = g.standard_normal(dim)
    zeta = np.abs(g.standard_normal(n // 2)) + 0.5
    C = np.repeat(zeta, 2)[:, None] * V[:, 0][None, :]
    C[1::2] *= -1.0
    return lambda i, x: 0.5 * (x - xbar) @ Q @ (x - xbar) + C[i] @ (x - xbar)


def mean_value(value, p, x):
    return np.mean([value(i, x) for i in range(p.n_components)])


_KZ_SYSTEM = make_random_kaczmarz_system(8, 3, 5)
PROBLEMS_WITH_VALUES = [
    (make_two_point_quadratic, two_point_value),
    (lambda: make_kaczmarz_problem(_KZ_SYSTEM), kaczmarz_value(_KZ_SYSTEM)),
    (lambda: make_shared_minimizer_quadratics(3, 4, 7)[0],
     shared_minimizer_value(3, 4, 7)),
    (lambda: make_quadratic_l1(construction_seed=3, dim=4, n_components=6),
     quadratic_l1_value(3, 4, 6)),
]
ALL_FACTORIES = [factory for factory, _ in PROBLEMS_WITH_VALUES]
COMPONENT_VALUE = dict(PROBLEMS_WITH_VALUES)


@pytest.mark.parametrize("factory", ALL_FACTORIES)
def test_component_gradients_match_finite_differences(factory, rng):
    p, value = factory(), COMPONENT_VALUE[factory]
    for _ in range(3):
        x = rng.normal(size=p.dim)
        for i in (0, p.n_components - 1):
            num = fd_grad(lambda z: value(i, z), x)
            assert np.allclose(component_grad(p, i, x), num, rtol=1e-5,
                               atol=1e-7)
        num_full = fd_grad(lambda z: mean_value(value, p, z), x)
        assert np.allclose(p.full_grad(x), num_full, rtol=1e-5, atol=1e-7)


@pytest.mark.parametrize("factory", ALL_FACTORIES)
def test_full_gradient_is_component_mean(factory, rng):
    p = factory()
    x = rng.normal(size=p.dim) * 2
    grads = p.all_component_grads(x[None])[0]
    assert grads.shape == (p.n_components, p.dim)
    stacked = np.stack([component_grad(p, i, x)
                        for i in range(p.n_components)])
    assert np.allclose(grads, stacked, atol=1e-14)
    assert np.allclose(grads.mean(axis=0), p.full_grad(x), atol=1e-12)


@pytest.mark.parametrize("factory", ALL_FACTORIES)
def test_exact_conditional_moment_is_brute_force_mean(factory, rng):
    p = factory()
    x = rng.normal(size=p.dim)
    mean_grad, second = exact_conditional_moment(p, x)
    grads = p.all_component_grads(x[None])[0]
    assert np.allclose(mean_grad, grads.mean(axis=0), atol=1e-13)
    assert np.isclose(second, (grads * grads).sum(axis=1).mean(), rtol=1e-13)


@pytest.mark.parametrize("factory", ALL_FACTORIES + [
    lambda: make_kaczmarz_problem(make_random_kaczmarz_system(30, 10, 2)),
    lambda: make_quadratic_l1(construction_seed=4, dim=10)])
@pytest.mark.parametrize("P", [1, 700])
def test_all_component_grads_of_a_stack_equal_one_row_calls(factory, P, rng):
    p = factory()
    Xp = rng.normal(size=(P, p.dim)) * np.exp2(rng.integers(-20, 20, (P, 1)))
    Xp[0] = p.x_star
    Xp[-1, 0] = -0.0
    G = p.all_component_grads(Xp)
    assert G.shape == (P, p.n_components, p.dim)
    assert G.flags.c_contiguous  # the audits' reduction orders rest on it
    rows = np.stack([p.all_component_grads(Xp[k:k + 1])[0] for k in range(P)])
    assert G.tobytes() == rows.tobytes()


@pytest.mark.parametrize("factory", ALL_FACTORIES)
def test_batch_gradients_bitwise_match_single(factory, rng):
    p = factory()
    X = rng.normal(size=(p.dim, 6))
    idx = rng.integers(0, p.n_components, size=6)
    G = p.batch_component_grad(X, idx)
    assert G.shape == (p.dim, 6)
    for j in range(6):
        alone = p.batch_component_grad(X[:, j:j + 1].copy(), idx[j:j + 1])
        assert np.array_equal(G[:, j], alone[:, 0])
        assert np.array_equal(G[:, j], component_grad(p, int(idx[j]), X[:, j]))


@pytest.mark.parametrize("factory", [
    pytest.param(make_two_point_quadratic, id="two_point"),
    pytest.param(
        lambda: make_kaczmarz_problem(
            make_random_kaczmarz_system(20, 5, 20250814, mix=0.5)),
        id="kaczmarz",
        marks=pytest.mark.xfail(strict=True, reason=(
            "all_component_grads forms residuals with einsum('ij,pj->pi') "
            "while batch_component_grad uses the sequential "
            "_accum.rowdot_cols: at kaczmarz_recommend's 5 001 audit points "
            "163 661 of 500 100 entries differ, by up to 7.5e-5 relative; "
            "aligning them moves that config's growth.json and manifest"))),
    pytest.param(lambda: make_quadratic_l1(construction_seed=42, dim=10,
                                           n_components=20),
                 id="quadratic_l1"),
])
def test_all_component_grads_equal_the_batch_oracle(factory, rng):
    # the audits enumerate through all_component_grads and the step loop
    # steps through batch_component_grad: both must give the same bits
    p = factory()
    n = p.n_components
    Xp = np.vstack([rng.normal(size=(40, p.dim)) * scale
                    for scale in (1e-3, 1.0, 1e3)] + [p.x_star[None]])
    P = len(Xp)
    G = p.all_component_grads(Xp)
    batch = p.batch_component_grad(np.repeat(Xp.T, n, axis=1),
                                   np.tile(np.arange(n), P))
    assert G.tobytes() == np.ascontiguousarray(
        batch.T.reshape(P, n, p.dim)).tobytes()


# ---------------------------------------------------------------------------
# two-point quadratic
# ---------------------------------------------------------------------------

def test_two_point_values_and_constants(two_point):
    p = two_point
    assert p.dim == 1 and p.n_components == 2
    assert p.lipschitz_L == 1.0 and p.strong_mu == 1.0
    x = np.array([0.7])
    # mean objective is 0.5 x^2 + 0.5
    assert np.isclose(mean_value(two_point_value, p, x), 0.5 * 0.49 + 0.5)
    assert np.allclose(p.x_star, [0.0])
    assert mean_value(two_point_value, p, p.x_star) == 0.5  # f(x*) = inf f
    mean_grad, second = exact_conditional_moment(p, x)
    assert np.allclose(mean_grad, x)
    assert np.isclose(second, 0.49 + 1.0)  # x^2 + sigma^2 with sigma^2 = 1
    assert p.analytic_M == 1.0 and p.analytic_sigma_sq == 1.0


# ---------------------------------------------------------------------------
# Kaczmarz systems
# ---------------------------------------------------------------------------

def test_random_system_rows_are_unit_and_consistent():
    sys_ = make_random_kaczmarz_system(12, 4, 99)
    assert np.allclose((sys_.A * sys_.A).sum(axis=1), 1.0, atol=1e-12)
    assert sys_.consistent
    assert np.allclose(sys_.A @ sys_.x_ls, sys_.b, atol=1e-9)


def test_inconsistent_system_has_residual():
    sys_ = make_random_kaczmarz_system(12, 4, 99, consistent=False, noise=0.3)
    assert not sys_.consistent
    assert sys_.residual_norm > 1e-6


def test_system_validation_rejects_bad_input():
    g = np.random.default_rng(0)
    A = g.normal(size=(5, 3))
    A /= np.linalg.norm(A, axis=1, keepdims=True)
    with pytest.raises(ValueError):  # non-unit rows
        KaczmarzSystem(2 * A, np.zeros(5))
    with pytest.raises(ValueError):  # underdetermined
        KaczmarzSystem(A[:2], np.zeros(2))
    rank_def = np.vstack([A[0]] * 5)
    with pytest.raises(ValueError):  # rank deficient
        KaczmarzSystem(rank_def, np.zeros(5))


def test_kaczmarz_constants_match_spectrum():
    sys_ = make_random_kaczmarz_system(20, 5, 20250814, mix=0.5)
    p = make_kaczmarz_problem(sys_)
    ev = np.linalg.eigvalsh(sys_.A.T @ sys_.A)
    assert np.isclose(p.lipschitz_L, ev[-1] / 20, rtol=1e-12)
    assert np.isclose(p.strong_mu, ev[0] / 20, rtol=1e-12)
    assert np.isclose(p.analytic_M, 20 * ev[-1] / ev[0] ** 2, rtol=1e-12)
    assert p.analytic_sigma_sq == 0.0  # certified consistent


def test_kaczmarz_unit_step_projects_onto_row(rng):
    sys_ = make_random_kaczmarz_system(8, 3, 1)
    p = make_kaczmarz_problem(sys_)
    A, b = sys_.A, sys_.b
    x = rng.normal(size=3)
    for i in range(8):
        x_next = x - component_grad(p, i, x)  # gamma = 1
        assert abs(A[i] @ x_next - b[i]) < 1e-12


def test_kaczmarz_objective_identity(rng):
    sys_ = make_random_kaczmarz_system(10, 4, 2, consistent=False)
    p = make_kaczmarz_problem(sys_)
    x = rng.normal(size=4)
    r = sys_.A @ x - sys_.b
    value = kaczmarz_value(sys_)
    assert np.isclose(mean_value(value, p, x), (r @ r) / (2 * 10), rtol=1e-12)
    assert np.isclose(mean_value(value, p, p.x_star),
                      sys_.residual_norm ** 2 / (2 * 10), rtol=1e-10)
    # f's gradient is the problem's full gradient
    assert np.allclose(fd_grad(lambda z: mean_value(value, p, z), x),
                       p.full_grad(x), rtol=1e-5, atol=1e-7)


# ---------------------------------------------------------------------------
# text matrix format
# ---------------------------------------------------------------------------

def test_text_loader_round_trip(tmp_path):
    sys_ = make_random_kaczmarz_system(6, 3, 11)
    path = tmp_path / "system.txt"
    lines = ["6 3"]
    for i in range(6):
        lines.append(" ".join(repr(float(v)) for v in (*sys_.A[i], sys_.b[i])))
    path.write_text("\n".join(lines) + "\n")
    loaded = load_kaczmarz_text(path)
    assert np.allclose(loaded.A, sys_.A, atol=1e-15)
    assert np.allclose(loaded.b, sys_.b, atol=1e-15)


def test_text_loader_normalizes_rows(tmp_path):
    # rows scaled by 3: the loader must renormalize a and rescale b together
    path = tmp_path / "scaled.txt"
    path.write_text("3 2\n3 0 6\n0 -3 3\n2.1 2.1 2.1\n")
    sys_ = load_kaczmarz_text(path)
    assert np.allclose((sys_.A * sys_.A).sum(axis=1), 1.0, atol=1e-12)
    assert np.allclose(sys_.A[0], [1.0, 0.0])
    assert np.isclose(sys_.b[0], 2.0)
    assert np.allclose(sys_.A[1], [0.0, -1.0])  # signs survive normalization
    assert np.isclose(sys_.b[1], 1.0)
    # solution of the original system is preserved
    assert np.allclose(sys_.A @ sys_.x_ls, sys_.b, atol=1e-10)


# a non-finite entry is caught as its row is read, before a nan reaches the
# SVD or an inf the row normalization (where it raises a RuntimeWarning)
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("content,fragment", [
    ("", "empty"),
    ("2\n1 0 1\n0 1 1\n", "header"),
    ("2 2\n1 0 1\n", "expected 2 data rows"),
    ("2 2\n1 0 1\n0 x 1\n", ":3: non-numeric"),
    ("2 2\n1 0 1\n0 1\n", ":3: expected 3 values"),
    ("1 2\n1 0 1\n", "m >= d"),
    ("2 2\n1 0 1\n1 0 1\n", "rank"),
    ("2 2\n0 0 1\n0 1 1\n", "zero row"),
    ("2 2\n1 0 1\n0 nan 1\n", ":3: non-finite value"),
    ("2 2\n1 0 1\n0 inf 1\n", ":3: non-finite value"),
])
def test_text_loader_rejects_malformed_input(tmp_path, content, fragment):
    path = tmp_path / "bad.txt"
    path.write_text(content)
    with pytest.raises(ValueError, match=fragment):
        load_kaczmarz_text(path)


# ---------------------------------------------------------------------------
# shared-minimizer quadratics
# ---------------------------------------------------------------------------

def test_shared_minimizer_gradients_vanish_together(shared_minimizer):
    p = shared_minimizer
    center = p.grad_zero_points[0]
    grads = p.all_component_grads(center[None])[0]
    assert np.allclose(grads, 0.0, atol=1e-12)
    assert np.allclose(p.full_grad(center), 0.0, atol=1e-12)


def test_shared_minimizer_component_ratio_is_constant(shared_minimizer,
                                                      shared_minimizer_B, rng):
    p = shared_minimizer
    for _ in range(5):
        x = rng.normal(size=p.dim) * 3
        full = p.full_grad(x)
        grads = p.all_component_grads(x[None])[0]
        ratio = (grads * grads).sum(axis=1).max() / (full @ full)
        assert np.isclose(ratio, shared_minimizer_B, rtol=1e-10)


# ---------------------------------------------------------------------------
# l1-regularized quadratics
# ---------------------------------------------------------------------------

def test_quadratic_l1_growth_identity_is_exact(quadratic_l1, rng):
    # linear terms come in +/- pairs, so E||grad_i||^2 = ||grad f||^2 + sigma^2
    p = quadratic_l1
    for _ in range(5):
        x = rng.normal(size=p.dim) * 4
        _, second = exact_conditional_moment(p, x)
        full = p.full_grad(x)
        assert np.isclose(second, full @ full + p.analytic_sigma_sq,
                          rtol=1e-12)
    assert p.analytic_M == 1.0


def problem_and_solution(kind, sys_):
    """A constructor's problem and its solution, recomputed here from the
    constructor's definition."""
    if kind == "two_point":
        return make_two_point_quadratic(), np.zeros(1)
    if kind == "kaczmarz":
        return make_kaczmarz_problem(sys_), sys_.x_ls.copy()
    if kind == "shared_minimizer":
        g = sgm_rng.substream(7, 0)
        g.random(4)  # the scales come first
        return (make_shared_minimizer_quadratics(3, 4, construction_seed=7)[0],
                g.standard_normal(3))
    p = make_quadratic_l1(dim=5)
    return p, problems._prox_gradient_solve(p.full_grad, p.regularizer,
                                            p.lipschitz_L, np.zeros(5))


@pytest.mark.parametrize("kind", ["two_point", "kaczmarz", "shared_minimizer",
                                  "quadratic_l1"])
def test_x_star_is_a_read_only_copy_of_the_solution(kind):
    sys_ = make_random_kaczmarz_system(12, 4, 3, consistent=False)
    p, solution = problem_and_solution(kind, sys_)
    assert p.x_star.shape == (p.dim,) and p.x_star.dtype == np.float64
    assert not p.x_star.flags.writeable
    with pytest.raises(ValueError):
        p.x_star[0] = 1.0
    assert p.x_star.tobytes() == solution.tobytes()
    sys_.x_ls[:] = 7.0  # the array a constructor passed may change later
    assert p.x_star.tobytes() == solution.tobytes()


def test_quadratic_l1_solution_is_prox_fixed_point(quadratic_l1):
    p = quadratic_l1
    xstar = p.x_star
    gamma = 1.0 / p.lipschitz_L
    step = geo.prox(p.regularizer, gamma, xstar - gamma * p.full_grad(xstar))
    assert np.allclose(step, xstar, atol=1e-8)
    # the smooth part alone is minimized elsewhere
    assert np.linalg.norm(p.full_grad(xstar)) > 1e-4


def test_quadratic_l1_spectrum(quadratic_l1):
    p = quadratic_l1
    assert 0 < p.strong_mu <= p.lipschitz_L
    assert np.isclose(p.lipschitz_L / p.strong_mu, 2.0, rtol=1e-10)


def test_evaluation_error_on_nonfinite_point(two_point):
    with pytest.raises(problems.EvaluationError):
        problems._finite_component_grads(two_point, [np.array([np.inf])])


@pytest.mark.parametrize("kwargs,named", [
    ({"mix": 1e300}, "mix = 1e+300"),
    ({"mix": 1e308}, "mix = 1e+308"),
    ({"consistent": False, "noise": 1e308}, "noise = 1e+308"),
])
def test_an_overflowing_random_kaczmarz_system_raises_value_error(kwargs,
                                                                   named):
    # under this suite's error::RuntimeWarning filter an overflow warning
    # would escape instead
    with pytest.raises(ValueError, match="is not finite at") as exc:
        problems.make_random_kaczmarz_system(20, 5, 1, **kwargs)
    assert named in str(exc.value)
