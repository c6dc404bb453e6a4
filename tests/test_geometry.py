import numpy as np
import pytest
from conftest import regularizer_of
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from sgmlab import cli
from sgmlab import geometry as geo

GAMMAS = [0.1, 1.0, 3.0, 10.0]

finite_vec = lambda n: arrays(np.float64, n,
                              elements=st.floats(-50, 50, allow_nan=False))


def sample_sets():
    return [regularizer_of("psgm")]


# ---------------------------------------------------------------------------
# projections: psgm on the whole space steps by the identity
# ---------------------------------------------------------------------------

def test_whole_space_projection_is_identity(rng):
    x = rng.normal(size=4)
    assert np.array_equal(geo.step_map(regularizer_of("psgm"))(1.0, x), x)


@pytest.mark.parametrize("set_idx", range(len(sample_sets())))
def test_projection_idempotent_and_batch_consistent(set_idx, rng):
    project = geo.step_map(sample_sets()[set_idx])
    X = rng.normal(size=(3, 7)) * 3
    P = project(1.0, X)
    # idempotent
    assert np.allclose(project(1.0, P), P, atol=1e-10)
    # batch equals column-by-column, bitwise
    for j in range(7):
        assert np.array_equal(P[:, j], project(1.0, X[:, j]))


# ---------------------------------------------------------------------------
# proximal maps
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("gamma", GAMMAS)
def test_prox_zero_and_constant_are_identity(gamma, rng):
    # g ≡ c has the identity prox: the step map gives it, and prox, which
    # is soft thresholding only, refuses it
    x = rng.normal(size=4)
    constant = cli.build_regularizer(("constant", 3.7))
    for g in (geo.zero_regularizer(), constant):
        assert np.array_equal(geo.step_map(g)(gamma, x), x)
        with pytest.raises(ValueError, match="needs an l1 regularizer"):
            geo.prox(g, gamma, x)


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
# resolvents: resolvent_sgm's zero operator steps by the identity
# ---------------------------------------------------------------------------

def test_resolvent_of_zero_operator_is_identity(rng):
    resolvent = geo.step_map(regularizer_of("resolvent_sgm"))
    x = rng.normal(size=3)
    assert np.array_equal(resolvent(0.7, x), x)


def test_resolvent_batch_consistent(rng):
    resolvent = geo.step_map(regularizer_of("resolvent_sgm"))
    X = rng.normal(size=(3, 5))
    R = resolvent(0.3, X)
    for j in range(5):
        assert np.array_equal(R[:, j], resolvent(0.3, X[:, j]))


@pytest.mark.parametrize("shape", [(5,), (5, 40)], ids=["vector", "batch"])
def test_resolvent_of_zero_operator_is_an_exact_copy(shape, linalg_calls,
                                                     rng):
    # LAPACK on the identity would turn most -0.0 into +0.0 and a column
    # holding inf into NaN; the resolvent keeps every bit instead, with no
    # solve and no condition check.  A point or batch is passed on as it
    # is, in any layout (the step loop relies on getting no copy)
    resolvent = geo.step_map(regularizer_of("resolvent_sgm"))
    x = rng.normal(size=shape)
    x[x < 0] = -0.0
    x.flat[1], x.flat[2], x.flat[3] = np.inf, -np.inf, np.nan
    assert (np.signbit(x) & (x == 0)).any()
    bits = x.tobytes()
    x_f = np.asfortranarray(x)
    for gamma in (0.7, 0.7, 3.0):
        for y in (x, x_f):
            out = resolvent(gamma, y)
            assert out is y
            assert out.tobytes(order="C") == bits
    assert linalg_calls == {"solve": 0, "cond": 0}


# ---------------------------------------------------------------------------
# step maps
# ---------------------------------------------------------------------------

STEP_MAP_GEOMETRIES = {
    "none": lambda: None,
    "whole_space": lambda: regularizer_of("psgm"),
    "zero_regularizer": geo.zero_regularizer,
    "constant_regularizer": lambda: cli.build_regularizer(("constant", 3.7)),
    "zero_operator": lambda: regularizer_of("resolvent_sgm"),
}


@pytest.mark.parametrize("geometry", STEP_MAP_GEOMETRIES)
def test_identity_step_maps_return_y_itself(geometry, linalg_calls, rng):
    # every step map but the l1 prox is the identity, which returns Y
    # itself in whatever layout it came, C, F or a d-contiguous view
    # (strides (8, 8d)), so every bit stays, -0.0, inf and NaN included
    # (LAPACK on I would turn most -0.0 into +0.0 and a column holding inf
    # into NaN); the layout is the caller's to choose
    step = geo.step_map(STEP_MAP_GEOMETRIES[geometry]())
    points = rng.normal(size=(40, 5))
    points[points < 0] = -0.0
    points.flat[1], points.flat[2], points.flat[3] = np.inf, -np.inf, np.nan
    assert (np.signbit(points) & (points == 0)).any()
    d_contiguous = points.T
    assert d_contiguous.strides == (8, 40)
    assert not d_contiguous.flags.c_contiguous
    inputs = (points[0], np.ascontiguousarray(points.T),
              points.T.copy(order="F"), d_contiguous)
    bits = [Y.tobytes(order="A") for Y in inputs]
    for Y, before in zip(inputs, bits):
        for gamma in (0.7, 0.7, 3.0):
            assert step(gamma, Y) is Y
            assert Y.tobytes(order="A") == before
    assert linalg_calls == {"solve": 0, "cond": 0}


def test_vector_shape_is_preserved(rng):
    x = rng.normal(size=4)
    assert geo.step_map(regularizer_of("psgm"))(1.0, x).shape == (4,)
    assert geo.prox(geo.l1_regularizer(0.1), 1.0, x).shape == (4,)
    X = rng.normal(size=(4, 6))
    assert geo.prox(geo.l1_regularizer(0.1), 1.0, X).shape == (4, 6)
