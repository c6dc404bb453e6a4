import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from sgmlab import geometry as geo

GAMMAS = [0.1, 1.0, 3.0, 10.0]

finite_vec = lambda n: arrays(np.float64, n,
                              elements=st.floats(-50, 50, allow_nan=False))


def sample_sets():
    return [geo.whole_space()]


# ---------------------------------------------------------------------------
# projections
# ---------------------------------------------------------------------------

def test_whole_space_projection_is_identity(rng):
    x = rng.normal(size=4)
    assert np.array_equal(geo.project(geo.whole_space(), x), x)


def test_project_rejects_unknown_set_kind(rng):
    with pytest.raises(ValueError, match="unknown set kind"):
        geo.project(geo.ConvexSet(kind="ball"), rng.normal(size=3))


@pytest.mark.parametrize("set_idx", range(len(sample_sets())))
def test_projection_idempotent_and_batch_consistent(set_idx, rng):
    S = sample_sets()[set_idx]
    X = rng.normal(size=(3, 7)) * 3
    P = geo.project(S, X)
    # idempotent
    assert np.allclose(geo.project(S, P), P, atol=1e-10)
    # batch equals column-by-column, bitwise
    for j in range(7):
        assert np.array_equal(P[:, j], geo.project(S, X[:, j]))


def test_projection_firmly_nonexpansive(rng):
    for S in sample_sets():
        for _ in range(100):
            x, y = rng.normal(size=3) * 5, rng.normal(size=3) * 5
            px, py = geo.project(S, x), geo.project(S, y)
            d = px - py
            assert d @ d <= d @ (x - y) + 1e-10


# ---------------------------------------------------------------------------
# proximal maps
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("gamma", GAMMAS)
def test_prox_zero_and_constant_are_identity(gamma, rng):
    x = rng.normal(size=4)
    assert np.array_equal(geo.prox(geo.zero_regularizer(), gamma, x), x)
    assert np.array_equal(geo.prox(geo.constant_regularizer(3.7), gamma, x), x)


@pytest.mark.parametrize("gamma", GAMMAS)
def test_prox_l1_soft_threshold(gamma):
    w = 0.4
    g = geo.l1_regularizer(w)
    x = np.array([3.0, -0.1, -2.0, 0.0, w * gamma])
    p = geo.prox(g, gamma, x)
    expected = np.sign(x) * np.maximum(np.abs(x) - gamma * w, 0.0)
    assert np.allclose(p, expected, atol=1e-15)


@pytest.mark.parametrize("gamma", GAMMAS)
def test_prox_l1_is_the_sign_max_form_bit_for_bit_with_positive_zeros(
        gamma, rng):
    # X − clip(X, −t, t) equals sign(X)·max(|X| − t, 0) in every nonzero
    # bit, and every zero it gives is +0.0, where the sign·max form gave
    # −0.0 for x in [−t, 0)
    w = 0.4
    t = gamma * w
    X = rng.standard_normal((6, 50)) * t * np.exp2(rng.integers(-4, 4, (6, 50)))
    X[0, :6] = [-t, -0.5 * t, -0.0, 0.0, 0.5 * t, t]
    X[1, :4] = [np.inf, -np.inf, np.nan, -np.nextafter(t, 0.0)]
    p = geo.prox(geo.l1_regularizer(w), gamma, X)
    sign_max = np.sign(X) * np.maximum(np.abs(X) - t, 0.0)
    zero = sign_max == 0.0
    assert zero[0, :6].all() and zero[1, 3]
    assert zero.sum() > 50 and (~zero).sum() > 50
    assert p[~zero].tobytes() == sign_max[~zero].tobytes()
    assert p[zero].tobytes() == np.zeros(zero.sum()).tobytes()
    assert np.signbit(sign_max[0, :2]).all()  # what the old form gave
    for c in range(X.shape[1]):  # a batch is column by column a point
        assert p[:, c].tobytes() == geo.prox(geo.l1_regularizer(w), gamma,
                                             X[:, c]).tobytes()


@given(finite_vec(4), st.floats(0.01, 10))
@settings(max_examples=50, deadline=None)
def test_prox_l1_optimality(x, gamma):
    # p minimizes 0.5||y-x||^2 + gamma*w*||y||_1  <=>  x - p in gamma*w*d||.||_1(p)
    w = 0.25
    p = geo.prox(geo.l1_regularizer(w), gamma, x)
    r = x - p
    on = p != 0
    assert np.allclose(r[on], gamma * w * np.sign(p[on]), atol=1e-12)
    assert np.all(np.abs(r[~on]) <= gamma * w + 1e-12)


@pytest.mark.parametrize("gamma", GAMMAS)
@pytest.mark.parametrize("set_idx", range(len(sample_sets())))
def test_prox_of_indicator_is_projection(gamma, set_idx, rng):
    S = sample_sets()[set_idx]
    x = rng.normal(size=3) * 4
    assert np.array_equal(geo.prox(geo.indicator(S), gamma, x),
                          geo.project(S, x))


def test_prox_firmly_nonexpansive(rng):
    g = geo.l1_regularizer(0.3)
    for _ in range(100):
        x, y = rng.normal(size=3) * 5, rng.normal(size=3) * 5
        px, py = geo.prox(g, 1.0, x), geo.prox(g, 1.0, y)
        d = px - py
        assert d @ d <= d @ (x - y) + 1e-10


def test_l1_regularizer_validation():
    with pytest.raises(ValueError):
        geo.l1_regularizer(0.0)


# ---------------------------------------------------------------------------
# resolvents
# ---------------------------------------------------------------------------

def test_resolvent_of_zero_operator_is_identity(rng):
    op = geo.LinearMonotoneOperator(M_op=np.zeros((3, 3)))
    x = rng.normal(size=3)
    assert np.array_equal(geo.resolvent(op, 0.7, x), x)


def test_resolvent_diagonal_example():
    op = geo.LinearMonotoneOperator(M_op=np.diag([1.0, 3.0]))
    out = geo.resolvent(op, 0.5, np.array([3.0, 5.0]))
    assert np.allclose(out, [2.0, 2.0], atol=1e-14)


def test_resolvent_matches_quadratic_prox(rng):
    # the resolvent of a PSD Q is the prox of 0.5 x^T Q x: it solves
    # (I + gamma Q) p = x
    B = rng.normal(size=(4, 4))
    Q = B.T @ B
    op = geo.LinearMonotoneOperator(M_op=Q)
    x = rng.normal(size=4)
    for gamma in GAMMAS:
        assert np.allclose(geo.resolvent(op, gamma, x),
                           np.linalg.solve(np.eye(4) + gamma * Q, x),
                           atol=1e-10)


def test_resolvent_accepts_skew_operator(rng):
    # a rotation generator is monotone with zero symmetric part
    K = np.array([[0.0, -2.0], [2.0, 0.0]])
    op = geo.LinearMonotoneOperator(M_op=K)
    x = rng.normal(size=2)
    out = geo.resolvent(op, 1.0, x)
    assert np.allclose((np.eye(2) + K) @ out, x, atol=1e-12)


def test_monotone_operator_rejects_negative_symmetric_part():
    with pytest.raises(ValueError):
        geo.LinearMonotoneOperator(M_op=-np.eye(2))


def test_resolvent_batch_consistent(rng):
    op = geo.LinearMonotoneOperator(M_op=np.diag([1.0, 2.0, 3.0]))
    X = rng.normal(size=(3, 5))
    R = geo.resolvent(op, 0.3, X)
    for j in range(5):
        assert np.array_equal(R[:, j], geo.resolvent(op, 0.3, X[:, j]))


def _loop_solve(mat, X):
    """The per-column reference: one dense solve per column."""
    out = np.empty_like(X)
    for j in range(X.shape[1]):
        out[:, j] = np.linalg.solve(mat, X[:, j])
    return out


def _monotone_matrix(d, g):
    """A random PSD part plus a random skew part."""
    B, K = g.normal(size=(d, d)), g.normal(size=(d, d))
    return B.T @ B + (K - K.T)


@pytest.mark.parametrize("width", [1, 2, 257])
@pytest.mark.parametrize("d", [2, 5, 10])
def test_resolvent_bitwise_matches_per_column_solves(d, width, rng):
    M = _monotone_matrix(d, rng)
    op = geo.LinearMonotoneOperator(M_op=M)
    X = rng.normal(size=(d, width)) * 5
    for gamma in GAMMAS:
        ref = _loop_solve(np.eye(d) + gamma * M, X)
        assert np.array_equal(geo.resolvent(op, gamma, X), ref)
        assert np.array_equal(geo.resolvent(op, gamma, X[:, 0]), ref[:, 0])


def test_resolvent_rejects_ill_conditioned_gamma_after_a_good_one(rng):
    # cond(I + gamma diag(1, 0)) = 1 + gamma
    op = geo.LinearMonotoneOperator(M_op=np.diag([1.0, 0.0]))
    x = rng.normal(size=2)
    assert np.allclose(geo.resolvent(op, 1.0, x), x / [2.0, 1.0])
    with pytest.raises(geo.NumericalError, match="ill-conditioned"):
        geo.resolvent(op, 1e13, x)
    with pytest.raises(geo.NumericalError):
        geo.resolvent(op, 1e13, x)
    assert np.allclose(geo.resolvent(op, 1.0, x), x / [2.0, 1.0])


def test_resolvent_alternating_gammas_match_fresh_operators(rng):
    M = _monotone_matrix(4, rng)
    op = geo.LinearMonotoneOperator(M_op=M)
    X = rng.normal(size=(4, 9))
    for gamma in (0.3, 2.0, 0.3, 2.0, 2.0, 7.5, 0.3):
        fresh = geo.LinearMonotoneOperator(M_op=M)
        assert np.array_equal(geo.resolvent(op, gamma, X),
                              geo.resolvent(fresh, gamma, X))


def test_monotone_operator_matrix_is_a_read_only_copy():
    M = np.diag([1.0, 2.0])
    op = geo.LinearMonotoneOperator(M_op=M)
    with pytest.raises(ValueError):
        op.M_op[0, 0] = 5.0
    M[0, 0] = 5.0  # the caller's array stays writable and is not shared
    assert op.M_op[0, 0] == 1.0


def test_vector_shape_is_preserved(rng):
    x = rng.normal(size=4)
    assert geo.project(geo.whole_space(), x).shape == (4,)
    assert geo.prox(geo.l1_regularizer(0.1), 1.0, x).shape == (4,)
    X = rng.normal(size=(4, 6))
    assert geo.prox(geo.l1_regularizer(0.1), 1.0, X).shape == (4, 6)
