"""The step maps: the whole space, simple regularizers and the zero operator.

The projection and the proximal maps of the zero and l1 regularizers are
closed form, and the resolvent of the zero operator is a copy.  All
operations accept a single point of shape ``(d,)`` or a batch of column
vectors of shape ``(d, R)`` and preserve the input shape; a batched call is
bitwise identical, column by column, to single calls.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "ConvexSet",
    "Regularizer",
    "LinearMonotoneOperator",
    "whole_space",
    "zero_regularizer",
    "l1_regularizer",
    "project",
    "prox",
    "resolvent",
]


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


def zero_regularizer() -> Regularizer:
    return Regularizer(kind="zero")


def l1_regularizer(weight) -> Regularizer:
    if not weight > 0:
        raise ValueError("l1 weight must be positive")
    return Regularizer(kind="l1", weight=float(weight))


@dataclass
class LinearMonotoneOperator:
    """The zero operator x -> 0 on R^dim: its type names resolvent_sgm, and
    its resolvent is the identity."""

    dim: int


def _points(x):
    """x as floats: one point (d,) or a batch of column points (d, R)."""
    X = np.asarray(x, dtype=float)
    if X.ndim not in (1, 2):
        raise ValueError("expected a vector (d,) or column batch (d, R)")
    return X


def project(S: ConvexSet, x):
    """Euclidean projection onto S, exact per kind."""
    if S.kind != "whole_space":
        raise ValueError(f"unknown set kind {S.kind!r}")
    return _points(x).copy()


def prox(g: Regularizer, gamma, x):
    """Proximal map prox_{gamma g}(x) = argmin_y g(y) + ||y-x||^2 / (2 gamma)."""
    if not gamma > 0:
        raise ValueError("prox needs gamma > 0")
    X = _points(x)
    if g.kind == "zero":
        return X.copy()
    if g.kind == "l1":
        # soft thresholding as X minus its clip to [-t, t]: bit for bit
        # sign(X)·max(|X| − t, 0), except that every zero it gives is +0.0
        t = gamma * g.weight
        return X - np.minimum(np.maximum(X, -t), t)
    raise ValueError(f"unknown regularizer kind {g.kind!r}")


def resolvent(op: LinearMonotoneOperator, gamma, x):
    """(Id + gamma 0)^{-1} x = x: a copy of x, bit for bit, -0.0, inf and
    NaN included."""
    if not gamma > 0:
        raise ValueError("resolvent needs gamma > 0")
    X = _points(x)
    if X.shape[0] != op.dim:
        raise ValueError(f"resolvent of an operator on R^{op.dim} applied to "
                         f"points of dimension {X.shape[0]}")
    return X.copy()
