"""The geometries a run steps in, and the one step map each names.

``step_map`` turns a run's geometry into the map (γ, Y) ↦ Y' applied after
each gradient step.  Only the l1 prox, soft thresholding, moves a point:
every other geometry, sgm's None included, steps by Y itself.  A map takes
one point (d,) or a batch of columns (d, R), keeps the shape, and maps a
batch bit for bit as it maps each column alone.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ConvexSet",
    "Regularizer",
    "LinearMonotoneOperator",
    "whole_space",
    "zero_regularizer",
    "l1_regularizer",
    "prox",
    "step_map",
]


@dataclass
class ConvexSet:
    """The whole space, built by ``whole_space``; its type names psgm."""


def whole_space() -> ConvexSet:
    return ConvexSet()


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
    """The zero operator x -> 0; its type names resolvent_sgm."""


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


def step_map(geometry):
    """The step map (γ, Y) ↦ Y' of a geometry: for an l1 regularizer
    ``prox`` as bound here when the map is built, else Y itself."""
    if isinstance(geometry, Regularizer) and geometry.kind == "l1":
        return functools.partial(prox, geometry)
    return lambda gamma, Y: Y
