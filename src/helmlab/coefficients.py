"""Coefficient fields Q(x) and their sampling in the rescaled frame.

Coefficients are defined in physical coordinates. The solver works in
rescaled coordinates x = X / eps, so it evaluates Q(eps * x) on the
computational grid; as eps shrinks, any bump in Q flattens out and the
rescaled problem approaches the constant-background one.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import NumericalError
from .grid import RealField, TorusGrid, peak_node

_MODE_TOL = 1e-12  # mean-shift step, in widths, at which a start has reached its mode
_MODE_STEPS = 1000  # most steps from one start
_MODE_MERGE = 1e-3  # modes this many widths apart coincide


@dataclass(frozen=True)
class ConstantQ:
    """Spatially constant coefficient."""

    value: float = 1.0

    def __post_init__(self):
        if not self.value > 0:
            raise ValueError("constant coefficient must be positive")

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

    The background is the value at infinity. Overlapping bumps move the
    maxima off the centers and can merge them (two unit bumps at +-0.5
    have one maximum, 0.5 + 2 e^(-1/8), at the origin), so `maxima` are
    the modes that Gaussian mean shift reaches from the centers, and
    `sup_value` is the largest Q on them. For bumps of one width each
    mean-shift step x <- sum_j c_j g_j(x) / sum_j g_j(x) raises Q (Cheng,
    IEEE TPAMI 17, 1995); each step here is stretched to the maximum of
    Q's quadratic model along it when that lands higher, which a maximum
    flat to fourth order, as two bumps 2 widths apart make, needs. A
    start stops once its mean-shift step is at most 1e-12 widths, so a
    lone bump's mode is its center after zero steps. Modes within 1e-3
    widths of each other coincide; a flat maximum stops mean shift about
    1e-4 widths short of it from either side. In 2D and up a mixture can
    have a mode that no center reaches (Carreira-Perpinan & Williams,
    2003); `sample_Q` then finds a sampled value above `sup_value` and
    raises. With a single bump at the origin this is the cleanest
    coefficient for watching ground states concentrate.
    """

    background: float = 0.5
    amplitude: float = 1.0
    width: float = 1.0
    centers: tuple[tuple[float, ...], ...] = ((0.0, 0.0),)

    def __post_init__(self):
        if not self.background >= 0:
            raise ValueError("background must be nonnegative")
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
        return max(value for _, value in self._modes)

    @property
    def background_value(self):
        return self.background

    @property
    def maxima(self):
        return [mode for mode, _ in self._modes]

    def _value(self, x: np.ndarray) -> float:
        return float(self.evaluate(*x))

    @cached_property
    def _modes(self) -> list[tuple[tuple[float, ...], float]]:
        """(mode, Q there) for each distinct mode reached from a center, in the centers' order."""
        centers = np.array(self.centers, dtype=float)
        w2 = self.width**2
        modes = []
        for x in centers:
            for _ in range(_MODE_STEPS):
                e = centers - x
                with np.errstate(over="ignore"):  # a distance whose square overflows weighs 0
                    g = np.exp(np.sum(e * e, axis=1) / (-2.0 * w2))
                shift = np.sum(g[:, None] * e, axis=0) / np.sum(g)  # the mean-shift step
                if math.sqrt(float(np.sum(shift * shift))) <= _MODE_TOL * self.width or np.array_equal(x + shift, x):
                    break
                # Q's curvature along the step over its slope, in units of the step:
                # below 1, Q's quadratic model along the step peaks at shift / (1 - along)
                along = float(np.sum(g * np.sum(e * shift, axis=1) ** 2) / (w2 * np.sum(g) * np.sum(shift * shift)))
                step = shift
                if along < 1.0 and self._value(x + shift / (1.0 - along)) > self._value(x + shift):
                    step = shift / (1.0 - along)
                x = x + step
            mode, value = tuple(float(c) for c in x), self._value(x)
            for i, (other, other_value) in enumerate(modes):
                if math.dist(mode, other) <= _MODE_MERGE * self.width:
                    if value > other_value:
                        modes[i] = mode, value
                    break
            else:
                modes.append((mode, value))
        return modes


# A nonnegative, bounded coefficient field on physical space: `evaluate`
# samples it at coordinates that broadcast (open axes, say) into a fresh
# array of their broadcast shape, `sup_value` is its global maximum,
# `background_value` its limit at infinity, and `maxima` its local maxima
# (empty if the supremum is attained everywhere).
CoefficientQ = ConstantQ | BumpOnBackgroundQ


def sample_Q(Q: CoefficientQ, grid: TorusGrid, eps: float = 1.0) -> RealField:
    """Evaluate Q(eps * x) over a computational grid.

    eps = 1 samples the coefficient in physical coordinates; eps < 1 is
    the rescaled frame, where the grid covers the physical window
    [-eps*L, eps*L)^dim. A warning is issued when a maximum of Q falls
    outside that window, since the feature the run is meant to resolve
    is then absent from the box. A sampled value above `Q.sup_value` by
    more than 1e-12 relative is a maximum that `Q` did not find, and
    raises NumericalError.
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
    top = float(np.max(values))
    if top - Q.sup_value > 1e-12 * Q.sup_value:
        raise NumericalError(
            f"coefficient reaches {top!r} on the grid, above its computed supremum {Q.sup_value!r}: "
            "a maximum was missed"
        )
    return RealField(grid, values)


def max_node(Qfield: RealField) -> tuple[int, ...] | None:
    """Argmax node of Q, or None when max - min <= 1e-12 * max(max, 1) makes it arbitrary."""
    values = Qfield.values
    top = float(np.max(values))
    if top - float(np.min(values)) <= 1e-12 * max(top, 1.0):
        return None
    return peak_node(values)  # Q >= 0, so the maximum of |Q| is the maximum of Q
