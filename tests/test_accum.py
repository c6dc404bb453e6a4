"""The single-reduction ``_accum`` kernels against the loop kernels.

The loops below are the reference: they add the d products of each column
one after another in j order, which is the order every kernel promises.
Each kernel must equal its loop bit for bit over batch widths, dimensions
and memory layouts, including the shapes where a bare ``np.add.reduce``
sums pairwise instead, and the shapes where ``matvec_cols``'s einsum
contraction must be repaired.
"""

import tracemalloc

import numpy as np
import pytest

from sgmlab import _accum

DIMS = (1, 2, 5, 7, 8, 9, 10, 17, 40, 64)
WIDTHS = (1, 2, 3, 100, 257, 1000)
LAYOUTS = ("C", "F", "sliced")


def loop_sumsq_cols(X):
    acc = X[0] * X[0]
    for j in range(1, X.shape[0]):
        acc = acc + X[j] * X[j]
    return acc


def loop_rowdot_cols(rows, X):
    acc = rows[:, 0] * X[0]
    for j in range(1, X.shape[0]):
        acc = acc + rows[:, j] * X[j]
    return acc


def loop_matvec_cols(Q, X):
    acc = Q[:, :1] * X[:1]
    for j in range(1, X.shape[0]):
        acc = acc + Q[:, j:j + 1] * X[j:j + 1]
    return acc


def loop_matvec_vec(Q, x):
    acc = Q[:, 0] * x[0]
    for j in range(1, len(x)):
        acc = acc + Q[:, j] * x[j]
    return acc


def batch(rng, shape, layout):
    """A random array of ``shape`` with the given memory layout; entries span
    several binades and include signed zeros, so rounding order shows."""
    if layout == "sliced":
        big = batch(rng, (shape[0], 2 * shape[1] + 1), "C")
        return big[:, 1::2]
    A = rng.standard_normal(shape) * np.exp2(rng.integers(-20, 20, shape))
    A.flat[::11] = -0.0
    return np.asfortranarray(A) if layout == "F" else A


def assert_bitwise_equal(got, want):
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("d", DIMS)
def test_kernels_equal_loops(d, layout):
    rng = np.random.default_rng(1000 * d + LAYOUTS.index(layout))
    for width in WIDTHS:
        X = batch(rng, (d, width), layout)
        a = batch(rng, (d, 1), layout)[:, 0]
        rows = batch(rng, (width, d), layout)
        Q = batch(rng, (d, d), layout)
        assert_bitwise_equal(_accum.sumsq_cols(X), loop_sumsq_cols(X))
        assert_bitwise_equal(_accum.rowdot_cols(rows.T, X),
                             loop_rowdot_cols(rows, X))
        assert_bitwise_equal(_accum.matvec_cols(Q, X), loop_matvec_cols(Q, X))
        assert_bitwise_equal(_accum.matvec_vec(Q, a), loop_matvec_vec(Q, a))


def test_single_column_falls_back_to_the_loop():
    # a bare reduce over a (10, 1) product sums pairwise and misses the loop
    # in the last bit; the kernel must still match it
    X = np.array([[1.0]] + [[8e-9]] * 9)
    P = X * X
    assert np.add.reduce(P, axis=0)[0] != loop_sumsq_cols(X)[0]
    assert_bitwise_equal(_accum.sumsq_cols(X), loop_sumsq_cols(X))


@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("width", (4096, 20_000))
def test_matvec_cols_beyond_the_iterator_buffer(width, layout):
    # einsum's iterator buffers 8192 elements; wider batches cross it
    rng = np.random.default_rng(width + LAYOUTS.index(layout))
    X = batch(rng, (10, width), layout)
    Q = batch(rng, (10, 10), layout)
    assert_bitwise_equal(_accum.matvec_cols(Q, X), loop_matvec_cols(Q, X))


def test_matvec_cols_keeps_the_sign_of_an_all_negative_zero_column():
    # every product in column 0 is -0.0: the loop sums to -0.0, while einsum
    # starts from +0.0 and gives +0.0
    Q = np.array([[1.0, 2.0], [3.0, 4.0]])
    X = np.array([[-0.0, 1.0], [-0.0, 2.0]])
    raw = np.einsum("ij,jr->ir", Q, X, optimize=False)
    assert not np.signbit(raw[:, 0]).any()
    want = loop_matvec_cols(Q, X)
    assert np.signbit(want[:, 0]).all()
    assert_bitwise_equal(_accum.matvec_cols(Q, X), want)


def test_matvec_cols_builds_no_product_temporary():
    d, width = 10, 1000
    rng = np.random.default_rng(7)
    Q, X = batch(rng, (d, d), "C"), batch(rng, (d, width), "C")
    tracemalloc.start()
    try:
        _accum.matvec_cols(Q, X)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < d * d * width * X.itemsize
