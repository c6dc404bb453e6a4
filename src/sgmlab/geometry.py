"""The step maps: the whole space, simple regularizers and linear monotone
operators.

The projection and the proximal maps of the zero, constant, l1 and indicator
regularizers are closed form; the resolvent is a copy when its system is
the identity (the zero operator) and otherwise a dense linear solve, one
stacked ``np.linalg.solve`` call per batch.  All operations accept a single
point of shape ``(d,)`` or a batch of column vectors of shape ``(d, R)`` and
preserve the input shape; a batched call is bitwise identical, column by
column, to single calls.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "ConvexSet",
    "Regularizer",
    "LinearMonotoneOperator",
    "NumericalError",
    "whole_space",
    "zero_regularizer",
    "constant_regularizer",
    "l1_regularizer",
    "indicator",
    "project",
    "prox",
    "resolvent",
]

_RESOLVENT_COND_LIMIT = 1e12


class NumericalError(RuntimeError):
    """A dense linear operation failed or is too ill-conditioned to trust."""


@dataclass
class ConvexSet:
    """A closed convex set with an exact Euclidean projection, built by
    ``whole_space``."""

    kind: str


def whole_space() -> ConvexSet:
    """The unconstrained set; projection is the identity."""
    return ConvexSet(kind="whole_space")


@dataclass
class Regularizer:
    """A convex function g with a closed-form proximal map."""

    kind: str
    weight: float = 0.0
    c: float = 0.0
    set_: ConvexSet | None = None


def zero_regularizer() -> Regularizer:
    return Regularizer(kind="zero")


def constant_regularizer(c) -> Regularizer:
    """g == c; the prox is the identity regardless of c."""
    return Regularizer(kind="constant", c=float(c))


def l1_regularizer(weight) -> Regularizer:
    if not weight > 0:
        raise ValueError("l1 weight must be positive")
    return Regularizer(kind="l1", weight=float(weight))


def indicator(S: ConvexSet) -> Regularizer:
    return Regularizer(kind="indicator", set_=S)


@dataclass
class LinearMonotoneOperator:
    """x -> M_op x with M_op + M_opᵀ positive semidefinite.

    ``M_op`` is stored as a read-only copy, so the resolvent system cached
    for the last γ cannot go stale.
    """

    M_op: np.ndarray
    # last resolvent system (γ, I + γ M_op, or None for the identity); see
    # ``resolvent``
    _system: tuple | None = field(default=None, init=False, compare=False,
                                  repr=False)

    def __post_init__(self):
        self.M_op = np.array(self.M_op, dtype=float)
        self.M_op.setflags(write=False)
        if self.M_op.ndim != 2 or self.M_op.shape[0] != self.M_op.shape[1]:
            raise ValueError("operator matrix must be square")
        sym = 0.5 * (self.M_op + self.M_op.T)
        ev = np.linalg.eigvalsh(sym)
        scale = max(1.0, float(np.abs(self.M_op).max()))
        if ev[0] < -1e-10 * scale:
            raise ValueError("M_op + M_opᵀ must be positive semidefinite "
                             f"(min symmetric eigenvalue {ev[0]:.3e})")


def _as_cols(x):
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        return x[:, None], True
    if x.ndim == 2:
        return x, False
    raise ValueError("expected a vector (d,) or column batch (d, R)")


def _restore(X, squeeze):
    return X[:, 0] if squeeze else X


def project(S: ConvexSet, x):
    """Euclidean projection onto S, exact per kind."""
    X, squeeze = _as_cols(x)
    if S.kind == "whole_space":
        out = X.copy()
    else:
        raise ValueError(f"unknown set kind {S.kind!r}")
    return _restore(out, squeeze)


def prox(g: Regularizer, gamma, x):
    """Proximal map prox_{gamma g}(x) = argmin_y g(y) + ||y-x||^2 / (2 gamma)."""
    if not gamma > 0:
        raise ValueError("prox needs gamma > 0")
    X, squeeze = _as_cols(x)
    if g.kind in ("zero", "constant"):
        out = X.copy()
    elif g.kind == "l1":
        # soft thresholding as X minus its clip to [-t, t]: bit for bit
        # sign(X)·max(|X| − t, 0), except that every zero it gives is +0.0
        t = gamma * g.weight
        out = X - np.minimum(np.maximum(X, -t), t)
    elif g.kind == "indicator":
        out = project(g.set_, X)
    else:
        raise ValueError(f"unknown regularizer kind {g.kind!r}")
    return _restore(out, squeeze)


def resolvent(op: LinearMonotoneOperator, gamma, x):
    """(Id + gamma M)^{-1} x: a copy when the system is the identity, else a
    dense solve.

    ``I + gamma M`` is built and classified once per distinct gamma: the
    operator keeps the last system, so a constant step builds it once per
    run.  When it is exactly the identity (the zero operator) the resolvent
    is a copy of x, bit for bit, -0.0 and inf included; LAPACK would turn
    most -0.0 into +0.0 and a column holding inf into NaN.  Any other system
    gets one condition check per gamma and one stacked solve per call: numpy's
    gufunc runs LAPACK ``dgesv`` with one right-hand side per column, the call
    ``np.linalg.solve(mat, X[:, j])`` makes, so each column is bitwise what
    a single-point call gives.  Raises ``NumericalError`` when the system is
    too ill-conditioned to trust.
    """
    if not gamma > 0:
        raise ValueError("resolvent needs gamma > 0")
    X, squeeze = _as_cols(x)
    cached = op._system
    if cached is not None and cached[0] == gamma:
        mat = cached[1]
    else:
        eye = np.eye(op.M_op.shape[0])
        mat = eye + gamma * op.M_op
        if np.array_equal(mat, eye):
            mat = None  # cond(I) = 1: nothing to check, nothing to solve
        else:
            cond = np.linalg.cond(mat)
            if not np.isfinite(cond) or cond > _RESOLVENT_COND_LIMIT:
                raise NumericalError("resolvent system is too ill-conditioned"
                                     f" (cond ~ {cond:.3e})")
        op._system = (gamma, mat)
    if mat is None:
        return _restore(X.copy(), squeeze)
    return _restore(np.linalg.solve(mat, X.T[:, :, None])[:, :, 0].T, squeeze)
