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

from .errors import NumericalError
from .grid import RealField, TorusGrid, peak_node


@dataclass(frozen=True)
class ConstantQ:
    """Spatially constant coefficient."""

    value: float = 1.0

    def __post_init__(self):
        if not self.value > 0:
            raise NumericalError("constant coefficient must be positive")

    def evaluate(self, *coords):
        return np.full(np.broadcast(*coords).shape, self.value, dtype=float)

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
class BumpOnBackgroundQ:
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
        if not self.background >= 0:
            raise NumericalError("background must be nonnegative")
        if not self.amplitude > 0:
            raise ValueError("amplitude must be positive")
        if not self.width > 0:
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
        out = self.background  # the first bump's term gives it the coordinates' broadcast shape
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


# A nonnegative, bounded coefficient field on physical space: `evaluate`
# samples it at coordinates that broadcast (open axes, say) into a fresh
# array of their broadcast shape, `sup_value` is its global maximum,
# `background_value` its limit at infinity, and `maxima` the points where
# the supremum is attained (empty if it is attained everywhere).
CoefficientQ = ConstantQ | BumpOnBackgroundQ


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
    half = eps * grid.half_width
    for center in Q.maxima:
        if any(c < -half or c >= half for c in center):
            warnings.warn(
                f"coefficient maximum at {center} lies outside the physical window "
                f"[-{half:g}, {half:g})^{grid.dim}",
                stacklevel=2,
            )
            break
    values = np.asarray(Q.evaluate(*(eps * a for a in grid.coordinate_axes)), dtype=float)
    if np.any(values < 0):
        raise NumericalError("coefficient is negative somewhere on the grid")
    return RealField(grid, values)


def max_node(Qfield: RealField) -> tuple[int, ...] | None:
    """Argmax node of Q, or None when max - min <= 1e-12 * max(max, 1) makes it arbitrary."""
    values = Qfield.values
    top = float(np.max(values))
    if top - float(np.min(values)) <= 1e-12 * max(top, 1.0):
        return None
    return peak_node(values)  # Q >= 0, so the maximum of |Q| is the maximum of Q
