"""Fixed-order column-wise accumulation primitives.

Every reduction in the simulation data path must give bitwise identical
results for a given column no matter how many columns are processed in one
call.  numpy's reductions and einsum do not promise that: kernel selection
depends on memory layout and width, and the accumulation order changes with
it.  The contractions below are spelled out as elementwise multiply-adds
over the small dimension d in a fixed order, which IEEE arithmetic makes
independent of batch width, strides, and SIMD dispatch.
"""

import numpy as np

__all__ = ["sumsq_cols", "dot_cols", "rowdot_cols", "matvec_cols",
           "matvec_vec"]


def sumsq_cols(X: np.ndarray) -> np.ndarray:
    """Column-wise squared Euclidean norms of a (d, R) batch."""
    acc = X[0] * X[0]
    for j in range(1, X.shape[0]):
        acc = acc + X[j] * X[j]
    return acc


def dot_cols(a: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Column-wise inner products ⟨a, X[:, r]⟩."""
    acc = a[0] * X[0]
    for j in range(1, X.shape[0]):
        acc = acc + a[j] * X[j]
    return acc


def rowdot_cols(rows: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Paired inner products ⟨rows[r], X[:, r]⟩ for rows (R, d), X (d, R)."""
    acc = rows[:, 0] * X[0]
    for j in range(1, X.shape[0]):
        acc = acc + rows[:, j] * X[j]
    return acc


def matvec_cols(Q: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Column-wise products Q @ X[:, r] for a (d, R) batch."""
    acc = Q[:, :1] * X[:1]
    for j in range(1, X.shape[0]):
        acc = acc + Q[:, j:j + 1] * X[j:j + 1]
    return acc


def matvec_vec(Q: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Q @ x with the same accumulation order as ``matvec_cols``."""
    acc = Q[:, 0] * x[0]
    for j in range(1, len(x)):
        acc = acc + Q[:, j] * x[j]
    return acc
