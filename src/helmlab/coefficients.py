"""Coefficient fields Q(x) and their sampling in the rescaled frame.

Coefficients are defined in physical coordinates. The solver works in
rescaled coordinates x = X / eps, so it evaluates Q(eps * x) on the
computational grid; as eps shrinks, any bump in Q flattens out and the
rescaled problem approaches the constant-background one.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import NegativeCoefficientError
from .grid import RealField, TorusGrid


class CoefficientQ:
    """A nonnegative, bounded coefficient field on physical space."""

    def evaluate(self, *coords: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    @property
    def sup_value(self) -> float:
        """Global maximum of the coefficient."""
        raise NotImplementedError

    @property
    def background_value(self) -> float:
        """Value far from all features (the limit at infinity)."""
        raise NotImplementedError

    @property
    def maxima(self) -> list[tuple[float, ...]]:
        """Points where the supremum is attained; empty if it is attained everywhere."""
        raise NotImplementedError


@dataclass(frozen=True)
class ConstantQ(CoefficientQ):
    """Spatially constant coefficient."""

    value: float = 1.0

    def __post_init__(self):
        if self.value <= 0:
            raise NegativeCoefficientError("constant coefficient must be positive")

    def evaluate(self, *coords):
        return np.full_like(np.asarray(coords[0], dtype=float), self.value)

    @property
    def sup_value(self):
        return self.value

    @property
    def background_value(self):
        return self.value

    @property
    def maxima(self):
        return []


@dataclass(frozen=True)
class BumpOnBackgroundQ(CoefficientQ):
    """Constant background plus Gaussian bumps, the standard concentration probe.

    Q(X) = background + amplitude * sum_j exp(-|X - c_j|^2 / (2 width^2)).

    The supremum background + amplitude is attained (up to exponentially
    small bump overlap) at the bump centers; the background is the value
    at infinity. With a single bump at the origin this is the cleanest
    coefficient for watching ground states concentrate.
    """

    background: float = 0.5
    amplitude: float = 1.0
    width: float = 1.0
    centers: tuple[tuple[float, ...], ...] = ((0.0, 0.0),)

    def __post_init__(self):
        if self.background < 0:
            raise NegativeCoefficientError("background must be nonnegative")
        if self.amplitude <= 0:
            raise ValueError("amplitude must be positive")
        if self.width <= 0:
            raise ValueError("width must be positive")
        if not self.centers:
            raise ValueError("need at least one bump center")
        dims = {len(c) for c in self.centers}
        if len(dims) != 1:
            raise ValueError("bump centers must share a dimension")

    def evaluate(self, *coords):
        coords = [np.asarray(c, dtype=float) for c in coords]
        if len(coords) != len(self.centers[0]):
            raise ValueError(
                f"coefficient is {len(self.centers[0])}-dimensional, got {len(coords)} coordinates"
            )
        out = np.full_like(coords[0], self.background)
        for center in self.centers:
            d2 = sum((c - cj) ** 2 for c, cj in zip(coords, center))
            out = out + self.amplitude * np.exp(-d2 / (2.0 * self.width**2))
        return out

    @property
    def sup_value(self):
        return self.background + self.amplitude

    @property
    def background_value(self):
        return self.background

    @property
    def maxima(self):
        return [tuple(c) for c in self.centers]


def sample_Q(Q: CoefficientQ, grid: TorusGrid, eps: float = 1.0) -> RealField:
    """Evaluate Q(eps * x) over a computational grid.

    eps = 1 samples the coefficient in physical coordinates; eps < 1 is
    the rescaled frame, where the grid covers the physical window
    [-eps*L, eps*L)^dim. A warning is issued when a bump center falls
    outside that window, since the feature the run is meant to resolve
    is then absent from the box.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    for center in Q.maxima:
        if max(abs(c) for c in center) >= eps * grid.half_width:
            warnings.warn(
                f"coefficient maximum at {center} lies outside the physical window "
                f"[-{eps * grid.half_width:g}, {eps * grid.half_width:g})^{grid.dim}",
                stacklevel=2,
            )
            break
    scaled = [eps * m for m in grid.coordinate_mesh]
    values = np.asarray(Q.evaluate(*scaled), dtype=float)
    if np.any(values < 0):
        raise NegativeCoefficientError("coefficient is negative somewhere on the grid")
    return RealField(grid, values)


def max_node(Qfield: RealField) -> tuple[int, ...] | None:
    """Argmax node of Q, or None when max - min <= 1e-12 * max(max, 1) makes it arbitrary."""
    values = Qfield.values
    top = float(np.max(values))
    if top - float(np.min(values)) <= 1e-12 * max(top, 1.0):
        return None
    return np.unravel_index(int(np.argmax(values)), Qfield.grid.shape)
