"""Fixed-order column-wise accumulation primitives.

Every reduction in the simulation data path must give bitwise identical
results for a given column however many columns one call processes.  Each
kernel adds the d products of a column in j order, j = 0, 1, …, d − 1: the
order of a loop over j.  numpy does not document the orders used below.
Bit identity rests on them, ``tests/test_accum.py`` checks every kernel
against the loops, and ``tests/golden/environment.json`` pins the numpy
build.

``sumsq_cols`` and ``rowdot_cols`` form their products as
one C-ordered array P whose axis 0 runs over d, and sum that axis with one
``np.add.reduce``, which adds P[0] + P[1] + … row by row.  numpy sums a
Fortran-ordered P, or rows of one element once d ≥ 8, pairwise instead,
hence ``order="C"`` and the loop fallback in ``_sum_rows``.  Starting from
-0.0 keeps the sign of an all-zero column.  ``sumsq_cols`` also takes an
(n, d, R) stack, the step loop's history of n batches, and sums its axis 1
the same way, so row k is bit for bit ``sumsq_cols`` of batch k; a width-1
stack is the one-element case and takes the loop.  The step loop passes its
history block as ``out`` as well, so the squares overwrite it.

``matvec_cols`` is one ``np.einsum`` contraction, which never builds the
(d, d, R) product.  On C-ordered operands, with ``optimize=False``, numpy's
einsum adds the products for j = 0, 1, … one after another with no fused
multiply-add.  Its iterator may reorder axes by stride, so both operands are
made C-contiguous first; the step loop's batches already are, so the copies
cost nothing there.  Two cases go through the product-and-reduce path
instead: a batch of width 1, which einsum does not add in loop order, and
every column with an entry that comes out zero.  Einsum starts from +0.0, so
a sum of only -0.0 products gives +0.0 where the loop gives -0.0; a zero
result is the only place the two can differ.  A single vector x is the
width-1 batch ``x[:, None]``.
"""

import math

import numpy as np

__all__ = ["sumsq_cols", "rowdot_cols", "matvec_cols"]


def _sum_rows(P: np.ndarray, axis: int = 0) -> np.ndarray:
    """The slices of a C-ordered P along ``axis``, P[0] + P[1] + … + P[-1]
    for axis 0, added in that order."""
    if math.prod(P.shape[axis + 1:]) != 1:
        return np.add.reduce(P, axis=axis, initial=-0.0)
    head = (slice(None),) * axis
    acc = P[head + (0,)]
    for j in range(1, P.shape[axis]):
        acc = acc + P[head + (j,)]
    return acc


def sumsq_cols(X: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Column-wise squared Euclidean norms of a (d, R) batch, or the (n, R)
    norms of an (n, d, R) stack of batches, row k those of batch k.

    ``out``, a C-ordered array of X's shape, receives the squares; pass X
    itself to square it in place instead of allocating them."""
    return _sum_rows(np.multiply(X, X, out=out, order="C"), axis=X.ndim - 2)


def rowdot_cols(rows: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Column-wise inner products ⟨rows[:, r], X[:, r]⟩ of two (d, R)
    batches."""
    return _sum_rows(np.multiply(rows, X, order="C"))


def _matvec_products(Q: np.ndarray, X: np.ndarray) -> np.ndarray:
    return _sum_rows(np.multiply(Q.T[:, :, None], X[:, None, :], order="C"))


def matvec_cols(Q: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Column-wise products Q @ X[:, r] for a (d, R) batch."""
    if X.shape[1] == 1:
        return _matvec_products(Q, X)
    out = np.einsum("ij,jr->ir", np.ascontiguousarray(Q),
                    np.ascontiguousarray(X), optimize=False)
    if not out.all():  # some entry is ±0.0; NaN counts as nonzero
        cols = (out == 0.0).any(axis=0)
        out[:, cols] = _matvec_products(Q, X[:, cols])
    return out
