"""Fixed-order column-wise accumulation primitives.

Every reduction in the simulation data path must give bitwise identical
results for a given column however many columns one call processes.  Each
kernel forms its products as one C-ordered array P whose axis 0 runs over
the small dimension d, and sums that axis with one ``np.add.reduce``, which
adds P[0] + P[1] + … row by row: the order of a loop over j.  numpy does not
document that order.  Bit identity rests on it, ``tests/test_accum.py``
checks it against the loops, and ``tests/golden/environment.json`` pins the
numpy build.  numpy sums a Fortran-ordered P, or rows of one element once
d ≥ 8, pairwise instead, hence ``order="C"`` and the loop fallback in
``_sum_rows``.  Starting from -0.0 keeps the sign of an all-zero column.
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
    """Paired inner products ⟨rows[r], X[:, r]⟩ for rows (R, d), X (d, R)."""
    return _sum_rows(np.multiply(rows.T, X, order="C"))


def matvec_cols(Q: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Column-wise products Q @ X[:, r] for a (d, R) batch."""
    return _sum_rows(np.multiply(Q.T[:, :, None], X[:, None, :], order="C"))


def matvec_vec(Q: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Q @ x with the same accumulation order as ``matvec_cols``."""
    return _sum_rows(np.multiply(Q.T, x[:, None], order="C"))
