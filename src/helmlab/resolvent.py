"""Real Helmholtz resolvent as a Fourier multiplier, and its kernel diagnostics.

The operator inverts (-Delta)^s - 1 in the rescaled frame. Its symbol is
singular on the sphere |xi|^(2s) = 1; a limiting-absorption parameter
delta > 0 regularizes it to the real part of ((-Delta)^s - (1 + i*delta))^(-1),

    m(xi) = (|xi|^(2s) - 1) / ((|xi|^(2s) - 1)^2 + delta^2),

which is odd around the sphere, negative inside, positive outside, and
bounded by 1/(2*delta). With delta = 0 the symbol is the principal-value
multiplier 1/(|xi|^(2s) - 1), admissible only when no grid wavenumber
sits on the singular sphere.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import InsufficientDataError, SingularModeError, SupportOverlapError
from .grid import RealField, TorusGrid, apply_multiplier_values, inner_product, multiplier_kernel

_SINGULAR_TOL = 1e-12


@dataclass(frozen=True)
class ResolventSpec:
    """Fractional order and limiting-absorption parameter of the resolvent."""

    s: float
    delta: float = 0.0

    def __post_init__(self):
        if self.s <= 0:
            raise ValueError("s must be positive")
        if self.delta < 0:
            raise ValueError("delta must be nonnegative")

    def symbol_values(self, grid: TorusGrid) -> np.ndarray:
        """Symbol on the grid's half spectrum, the layout `grid.frequency_norm` has.

        Shape (n,)*(dim-1) + (n//2+1,), as `apply_multiplier_values` and
        `multiplier_kernel` take it; the symbol is radial, so these
        values determine it at every grid wavenumber.
        """
        mu = grid.frequency_norm ** (2.0 * self.s)
        shifted = mu - 1.0
        if self.delta == 0.0:
            closest = float(np.min(np.abs(shifted)))
            if closest < _SINGULAR_TOL:
                raise SingularModeError(
                    f"a grid wavenumber lies within {closest:.3e} of the singular sphere; "
                    "use delta > 0 or change the grid"
                )
            return 1.0 / shifted
        return shifted / (shifted * shifted + self.delta * self.delta)


def auto_delta(grid: TorusGrid, s: float) -> float:
    """Default limiting-absorption parameter for a grid.

    Four times the local spacing of the values |xi|^(2s) near the unit
    sphere, measured as the median gap between consecutive distinct
    values in the window (0.5, 1.5). This smooths the singular sphere at
    the scale the grid can resolve, which also keeps the oscillating
    kernel tail inside the box.
    """
    mu = np.unique(grid.frequency_norm ** (2.0 * s))
    window = mu[(mu > 0.5) & (mu < 1.5)]
    if window.size < 2:
        window = mu[(mu > 0.0) & (mu < 4.0)]
    if window.size < 2:
        raise ValueError("grid has too few distinct wavenumber magnitudes near the unit sphere")
    gaps = np.diff(window)
    gaps = gaps[gaps > 1e-12]
    return 4.0 * float(np.median(gaps))


def real_resolvent(field: RealField, spec: ResolventSpec) -> RealField:
    """Apply the real resolvent multiplier to a field."""
    return apply_multiplier_values(field, spec.symbol_values(field.grid))


def exp_smoothstep(t: np.ndarray) -> np.ndarray:
    """C-infinity transition from 1 at t <= 0 to 0 at t >= 1.

    Built from the standard exponential bump f(t) = exp(-1/t) via
    f(1-t) / (f(t) + f(1-t)).
    """
    t = np.clip(np.asarray(t, dtype=float), 0.0, 1.0)

    def f(u):
        out = np.zeros_like(u)
        pos = u > 0
        out[pos] = np.exp(-1.0 / u[pos])
        return out

    fa = f(1.0 - t)
    return fa / (fa + f(t))


@dataclass(frozen=True)
class BandCutoff:
    """Radial spectral cutoff equal to 1 near the unit sphere.

    The profile is 1 for ||xi| - 1| <= plateau_halfwidth, 0 for
    ||xi| - 1| >= support_halfwidth, and a smooth exponential-type
    smoothstep in between. A custom radial profile can be supplied for
    degenerate tests.
    """

    plateau_halfwidth: float = 1.0 / 6.0
    support_halfwidth: float = 1.0 / 4.0
    profile: Callable[[np.ndarray], np.ndarray] | None = None

    def __post_init__(self):
        if not 0 < self.plateau_halfwidth < self.support_halfwidth:
            raise ValueError("need 0 < plateau_halfwidth < support_halfwidth")

    def values(self, frequency_norm: np.ndarray) -> np.ndarray:
        if self.profile is not None:
            return np.asarray(self.profile(frequency_norm), dtype=float)
        t = (np.abs(frequency_norm - 1.0) - self.plateau_halfwidth) / (
            self.support_halfwidth - self.plateau_halfwidth
        )
        return exp_smoothstep(t)


@dataclass(frozen=True)
class KernelBundle:
    """A kernel split into its near-sphere band part and the remainder."""

    kernel: RealField
    band: RealField
    remainder: RealField


def band_decompose(spec: ResolventSpec, grid: TorusGrid, cutoff: BandCutoff | None = None) -> KernelBundle:
    """The resolvent kernel K, split as K = K1 + K2 with K1 spectrally supported near the sphere.

    K is the resolvent applied to the unit-mass discrete delta (value
    1/h^dim at the origin node), so that real_resolvent(f) equals the
    quadrature circular convolution of K with f. K1 carries the
    propagating near-sphere modes and decays like the dimension's
    far-field envelope; K2 = K - K1 carries everything else and decays
    faster. Both K and K1 come from the known spectrum of the delta,
    symbol and symbol * psi, by one inverse transform each
    (`multiplier_kernel`). Requires delta > 0; at delta = 0 the slowly
    decaying kernel is not meaningfully confined to the box.
    """
    if spec.delta <= 0:
        raise ValueError("kernel extraction requires delta > 0")
    if cutoff is None:
        cutoff = BandCutoff()
    symbol = spec.symbol_values(grid)
    kernel = multiplier_kernel(grid, symbol)
    band = multiplier_kernel(grid, cutoff.values(grid.frequency_norm) * symbol)
    return KernelBundle(kernel=kernel, band=band, remainder=kernel - band)


def radial_envelope(field: RealField, shell_count: int) -> list[tuple[float, float]]:
    """Per-shell maximum of |f| over shells partitioning radii (0, half_width].

    Returns (shell center radius, shell maximum) pairs; the origin node
    and nodes farther than half_width from it are ignored, and empty
    shells report 0.
    """
    if shell_count < 4:
        raise ValueError("shell_count must be at least 4")
    grid = field.grid
    width = grid.half_width / shell_count
    r = grid.radius
    idx = np.minimum((r / width).astype(int), shell_count - 1)
    mask = (r > 0.0) & (r <= grid.half_width)
    env = np.zeros(shell_count)
    np.maximum.at(env, idx[mask], np.abs(field.values)[mask])
    centers = (np.arange(shell_count) + 0.5) * width
    return [(float(c), float(e)) for c, e in zip(centers, env)]


def fit_decay_exponent(envelope, window: tuple[float, float]) -> float:
    """Least-squares slope of log(value) against log(radius) inside a window.

    Uses only strictly positive envelope values with radii in the closed
    window; requires at least five of them.
    """
    lo, hi = window
    if not lo < hi:
        raise ValueError("window must satisfy lo < hi")
    pts = [(r, v) for r, v in envelope if lo <= r <= hi and v > 0.0]
    if len(pts) < 5:
        raise InsufficientDataError(
            f"only {len(pts)} positive envelope points in window ({lo}, {hi}); need at least 5"
        )
    radii = np.log([r for r, _ in pts])
    vals = np.log([v for _, v in pts])
    return float(np.polyfit(radii, vals, 1)[0])


def disjoint_interaction(
    u: RealField,
    outer: Sequence[tuple[float, RealField]],
    spec: ResolventSpec,
    inner_radius: float,
) -> list[float]:
    """|<R u, v>| for each (gap, v) in `outer`, fields with disjoint radial supports.

    u must vanish outside the ball of radius inner_radius and each v
    inside the ball of radius inner_radius + gap; both are checked
    against the grid to 1e-14 of each field's maximum. Every gap must be
    at least 1. R is self-adjoint, <u, R v> = <R u, v>, so R is applied
    to u once for all pairs.
    """
    r = u.grid.radius
    tol_u = 1e-14 * float(np.max(np.abs(u.values)))
    if float(np.max(np.abs(np.where(r > inner_radius, u.values, 0.0)))) > tol_u:
        raise SupportOverlapError(f"u is nonzero outside the ball of radius {inner_radius}")
    for gap, v in outer:
        if gap < 1.0:
            raise ValueError("gap must be at least 1")
        if u.grid != v.grid:
            raise SupportOverlapError("fields live on different grids")
        tol_v = 1e-14 * float(np.max(np.abs(v.values)))
        if float(np.max(np.abs(np.where(r < inner_radius + gap, v.values, 0.0)))) > tol_v:
            raise SupportOverlapError(f"v is nonzero inside the ball of radius {inner_radius + gap}")
    resolved = real_resolvent(u, spec)
    return [abs(inner_product(resolved, v)) for _, v in outer]


def compact_bump(grid: TorusGrid, center, radius: float) -> RealField:
    """Smooth bump exactly supported in the ball of given radius around center.

    The profile exp(-1/(1 - q^2)) with q the scaled distance; values are
    exactly zero outside, which support-checked interactions rely on.
    """
    if radius <= 0:
        raise ValueError("radius must be positive")
    q2 = grid.periodic_distance2(center) / (radius * radius)
    values = np.zeros(grid.shape)
    inside = q2 < 1.0
    values[inside] = np.exp(-1.0 / (1.0 - q2[inside]))
    return RealField(grid, values)
