"""The regularizers a run may carry, and the one step map each gives.

``step_map`` turns a run's regularizer into the map (γ, Y) ↦ Y' applied
after each gradient step.  Only the l1 prox, soft thresholding, moves a
point: every other regularizer, and None (sgm, psgm and resolvent_sgm),
steps by Y itself.  A map takes one point (d,) or a batch of columns
(d, R), keeps the shape, and maps a batch bit for bit as it maps each
column alone.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Regularizer",
    "zero_regularizer",
    "l1_regularizer",
    "prox",
    "step_map",
]


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


def prox(g: Regularizer, gamma, x):
    """The l1 prox argmin_y g(y) + ||y-x||^2 / (2 gamma): soft thresholding."""
    if g.kind != "l1":
        raise ValueError(f"prox needs an l1 regularizer, got {g.kind!r}")
    if not gamma > 0:
        raise ValueError("prox needs gamma > 0")
    X = np.asarray(x, dtype=float)
    if X.ndim not in (1, 2):
        raise ValueError("expected a vector (d,) or column batch (d, R)")
    # soft thresholding as X minus its clip to [-t, t]: bit for bit
    # sign(X)·max(|X| − t, 0), except that every zero it gives is +0.0
    t = gamma * g.weight
    return X - np.minimum(np.maximum(X, -t), t)


def step_map(g: Regularizer | None):
    """The step map (γ, Y) ↦ Y' of a run's regularizer: for an l1 g
    ``prox`` as bound here when the map is built, else Y itself."""
    if g is not None and g.kind == "l1":
        return functools.partial(prox, g)
    return lambda gamma, Y: Y
