"""Fixed-order column-wise accumulation primitives.

Every reduction in the simulation data path must give bitwise identical
results for a given column however many columns one call processes.  Each
kernel adds the d products of a column in j order, j = 0, 1, …, d − 1: the
order of a loop over j.  numpy does not document the orders used below.
Bit identity rests on them, ``tests/test_accum.py`` checks every kernel
against the loops, and ``tests/golden/environment.json`` pins the numpy
build.

``sumsq_cols``, ``rowdot_cols`` and ``matvec_vec`` form their products as
one C-ordered array P whose axis 0 runs over d, and sum that axis with one
``np.add.reduce``, which adds P[0] + P[1] + … row by row.  numpy sums a
Fortran-ordered P, or rows of one element once d ≥ 8, pairwise instead,
hence ``order="C"`` and the loop fallback in ``_sum_rows``.  Starting from
-0.0 keeps the sign of an all-zero column.

``matvec_cols`` is one ``np.einsum`` contraction, which never builds the
(d, d, R) product.  On C-ordered operands, with ``optimize=False``, numpy's
einsum adds the products for j = 0, 1, … one after another with no fused
multiply-add.  Its iterator may reorder axes by stride, so both operands are
made C-contiguous first; the step loop's batches already are, so the copies
cost nothing there.  Two cases go through the product-and-reduce path
instead: a batch of width 1, which einsum does not add in loop order, and
every column with an entry that comes out zero.  Einsum starts from +0.0, so
a sum of only -0.0 products gives +0.0 where the loop gives -0.0; a zero
result is the only place the two can differ.
"""

import numpy as np

__all__ = ["sumsq_cols", "rowdot_cols", "matvec_cols", "matvec_vec"]


def _sum_rows(P: np.ndarray) -> np.ndarray:
    """P[0] + P[1] + … + P[-1], added in that order."""
    if P[0].size != 1:
        return np.add.reduce(P, axis=0, initial=-0.0)
    acc = P[0]
    for j in range(1, P.shape[0]):
        acc = acc + P[j]
    return acc


def sumsq_cols(X: np.ndarray) -> np.ndarray:
    """Column-wise squared Euclidean norms of a (d, R) batch."""
    return _sum_rows(np.multiply(X, X, order="C"))


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


def matvec_vec(Q: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Q @ x with the same accumulation order as ``matvec_cols``."""
    return _sum_rows(np.multiply(Q.T, x[:, None], order="C"))
