"""Real Helmholtz resolvent as a Fourier multiplier, and its kernel diagnostics.

The operator inverts (-Delta)^s - 1 in the rescaled frame. Its symbol is
singular on the sphere |xi|^(2s) = 1; a limiting-absorption parameter
delta > 0 regularizes it to the real part of ((-Delta)^s - (1 + i*delta))^(-1),

    m(xi) = (|xi|^(2s) - 1) / ((|xi|^(2s) - 1)^2 + delta^2),

which is odd around the sphere, negative inside, positive outside, and
bounded by 1/(2*delta). The kernel split K = K1 + K2 takes K1 through
a fixed radial cutoff: 1 for ||xi| - 1| <= 1/6, 0 for ||xi| - 1| >= 1/4.
"""
from __future__ import annotations

from dataclasses import dataclass
import itertools
from typing import Iterable, Sequence

import numpy as np

from .errors import InsufficientDataError, NumericalError
from .grid import TorusGrid, _check_same_grid, multiplier_kernel


@dataclass(frozen=True)
class ResolventSpec:
    """Fractional order and limiting-absorption parameter of the resolvent."""

    s: float
    delta: float

    def __post_init__(self):
        if not self.s > 0:
            raise ValueError("s must be positive")
        if not self.delta > 0:
            raise ValueError("delta must be positive")

    def symbol_values(self, grid: TorusGrid) -> np.ndarray:
        """Symbol on the grid's half spectrum, shape (n,)*(dim-1) + (n//2+1,).

        The layout `apply_multiplier_values` takes: |xi| on the open
        frequency axes, the last one cut to its n//2+1 non-negative
        wavenumbers, summing the squares in the order
        `grid.quadrant_slabs` does, so every value is bit for bit the one
        the kernel commands evaluate at that |xi|.
        """
        *axes, last = grid._open_axes(grid.frequency_axis)
        squared = sum(a * a for a in (*axes, last[..., : grid.points_per_axis // 2 + 1]))
        return self._symbol(np.sqrt(squared, out=squared))

    def _symbol(self, norm: np.ndarray) -> np.ndarray:
        """The symbol at wavenumber magnitudes `norm`, in a fresh array.

        Each step after the power writes into that array, so two arrays
        of `norm`'s size are held at once.
        """
        shifted = norm ** (2.0 * self.s)
        shifted -= 1.0
        denominator = shifted * shifted
        denominator += self.delta * self.delta
        shifted /= denominator
        return shifted


def auto_delta(grid: TorusGrid, s: float) -> float:
    """Default limiting-absorption parameter for a grid.

    Four times the local spacing of the values |xi|^(2s) near the unit
    sphere, measured as the median gap between consecutive distinct
    values in the window (0.5, 1.5), or in (0, 4) when the narrow window
    holds fewer than two; gaps of 1e-12 or less do not count, and a
    grid with no gap left raises ValueError. This smooths the singular
    sphere at the scale the grid can resolve, which also keeps the
    oscillating kernel tail inside the box. |xi| is bitwise even in each
    axis, so the values over the quadrant (`grid.quadrant_slabs`) are the
    values over the whole spectrum. The values are sorted with their
    repeats, whose zero gaps the 1e-12 floor drops, and the median is
    np.median's arithmetic on the sorted gaps, so delta equals the
    np.unique and np.median result bit for bit without the 12-18 ms
    import of numpy.ma that those two make.
    """
    mu = np.sort(np.concatenate(tuple(grid.quadrant_slabs()), axis=None) ** (2.0 * s))
    gaps = np.diff(mu[(mu > 0.5) & (mu < 1.5)])
    if not np.any(gaps > 0.0):  # fewer than two distinct values
        gaps = np.diff(mu[(mu > 0.0) & (mu < 4.0)])
    if not np.any(gaps > 0.0):
        raise ValueError("grid has too few distinct wavenumber magnitudes near the unit sphere")
    gaps = np.sort(gaps[gaps > 1e-12])
    if gaps.size == 0:
        raise ValueError("no gap between wavenumber magnitudes near the unit sphere exceeds 1e-12")
    half = gaps.size // 2
    median = gaps[half] if gaps.size % 2 else (gaps[half - 1] + gaps[half]) / 2.0
    return 4.0 * float(median)


def exp_smoothstep(t: np.ndarray) -> np.ndarray:
    """C-infinity transition from 1 at t <= 0 to 0 at t >= 1.

    Built from the standard exponential bump f(t) = exp(-1/t) via
    f(1-t) / (f(t) + f(1-t)). Only the transition nodes 0 < t < 1 take
    exponentials; t <= 0 gets the exact 1 and t >= 1 the exact 0, which
    is what the formula gives on t clipped to [0, 1], bit for bit.
    """
    t = np.asarray(t, dtype=float)
    out = np.asarray(t <= 0.0, dtype=float)
    transition = (t > 0.0) & (t < 1.0)
    inner = t[transition]
    fa = np.exp(-1.0 / (1.0 - inner))
    out[transition] = fa / (fa + np.exp(-1.0 / inner))
    return out


def _band_cutoff(norm: np.ndarray) -> np.ndarray:
    """Band cutoff psi: 1 for ||xi| - 1| <= 1/6, 0 for ||xi| - 1| >= 1/4, smooth between."""
    return exp_smoothstep((np.abs(norm - 1.0) - 1.0 / 6.0) / (1.0 / 4.0 - 1.0 / 6.0))


@dataclass(frozen=True)
class EvenKernel:
    """A kernel even in each axis, held on its octant of non-negative node offsets.

    `values[a]`, shape (n//2+1,)*dim, is the kernel at the nodes
    n/2 +- a_i of each axis, as `multiplier_kernel` returns it at the
    offsets 0 ... n/2; the full grid is never formed.
    """

    grid: TorusGrid
    values: np.ndarray

    def __post_init__(self):
        shape = (self.grid.points_per_axis // 2 + 1,) * self.grid.dim
        if self.values.shape != shape:
            raise ValueError(f"values shape {self.values.shape} is not the octant shape {shape}")


@dataclass(frozen=True)
class BoxField:
    """A real field held on an index box of its grid and zero off it.

    `box` holds one strictly increasing array of node indices per axis;
    it may wrap the periodic edge or have gaps. `block`, of shape
    tuple(len(i) for i in box), holds the finite values on the box's
    nodes. The full grid is never formed.
    """

    grid: TorusGrid
    box: tuple[np.ndarray, ...]
    block: np.ndarray

    def __post_init__(self):
        box = tuple(np.asarray(i) for i in self.box)
        n = self.grid.points_per_axis
        if len(box) != self.grid.dim or any(
            i.ndim != 1 or i.dtype.kind not in "iu" or np.any(np.diff(i) <= 0) or np.any((i < 0) | (i >= n))
            for i in box
        ):
            raise ValueError(f"box must hold {self.grid.dim} increasing index arrays in 0 ... {n - 1}")
        block = np.asarray(self.block, dtype=float)
        if block.shape != tuple(len(i) for i in box):
            raise ValueError(f"block shape {block.shape} does not match the box {tuple(len(i) for i in box)}")
        if not np.all(np.isfinite(block)):
            raise ValueError("field values must all be finite")
        object.__setattr__(self, "box", box)
        object.__setattr__(self, "block", block)


@dataclass(frozen=True)
class KernelBundle:
    """A kernel split into its near-sphere band part and the remainder."""

    band: EvenKernel
    remainder: EvenKernel


def band_decompose(spec: ResolventSpec, grid: TorusGrid) -> KernelBundle:
    """The resolvent kernel K, split as K = K1 + K2 with K1 spectrally supported near the sphere.

    K is the resolvent applied to the unit-mass discrete delta (value
    1/h^dim at the origin node), so that applying the resolvent symbol
    to f equals the quadrature circular convolution of K with f. K1 carries the
    propagating near-sphere modes and decays like the dimension's
    far-field envelope; K2 = K - K1 carries everything else and decays
    faster. The cutoff psi is fixed: 1 for ||xi| - 1| <= 1/6 and 0 for
    ||xi| - 1| >= 1/4. The symbol m and psi are radial, hence even in
    each axis, so both are evaluated on the quadrant of non-negative
    wavenumbers alone, once per node; K1 is the kernel of m*psi and K2
    that of m - m*psi, each a cosine sum on the octant of offsets
    0 ... n/2 (`multiplier_kernel`), returned as an `EvenKernel`. Both
    multipliers are made and fed one slab of |xi| at a time
    (`grid.quadrant_slabs`), so neither they nor |xi| ever take a
    quadrant-sized array, and the kernels equal those of the whole
    quadrant bit for bit. No Fourier transform runs, and neither K itself
    nor any full-grid array is formed. The absorption delta > 0 that
    every `ResolventSpec` carries confines the oscillating kernel tail to
    the box.
    """
    def parts(norm):
        symbol = spec._symbol(norm)
        band = symbol * _band_cutoff(norm)
        symbol -= band
        return band, symbol

    octant = (np.arange(grid.points_per_axis // 2 + 1),) * grid.dim
    band, remainder = multiplier_kernel(grid, map(parts, grid.quadrant_slabs()), octant)
    return KernelBundle(EvenKernel(grid, band), EvenKernel(grid, remainder))


def radial_envelope(kernel: EvenKernel, shell_count: int) -> list[tuple[float, float]]:
    """Per-shell maximum of |K| over shells partitioning radii (0, half_width].

    Returns (shell center radius, shell maximum) pairs; the origin node
    and nodes farther than half_width from it are ignored, and empty
    shells report 0. This is the envelope of the kernel mirrored to the
    full grid, bit for bit: the octant value at offsets a is binned at
    the radius (`grid.node_radius`) of the nodes n/2 - a_i, the nodes
    0 ... n/2 of each axis. Where the coordinates of the nodes n/2 + a
    are not the exact negatives of those of n/2 - a (a spacing that is
    not dyadic), it is also binned at the radii of every mirror image,
    each axis taking either side. Ignored nodes go to an extra shell
    that is dropped, so every node is binned with no gather. The radii
    come from open axes, one first-axis slab of (n/2+1)^(dim-1) nodes at
    a time in 3D (the whole octant in 1D and 2D), so the shell index and
    |K| never take more than (n/2+1)^2 entries at once.
    """
    if shell_count < 4:
        raise ValueError("shell_count must be at least 4")
    grid = kernel.grid
    half = grid.points_per_axis // 2
    offset = np.arange(half + 1)
    below, above = half - offset, (half + offset) % grid.points_per_axis  # at a = n/2 both are node 0
    x = grid.coordinate_axis
    sides = [below] if np.array_equal(x[below] * x[below], x[above] * x[above]) else [below, above]
    width = grid.half_width / shell_count
    env = np.zeros(shell_count + 1)
    for nodes in itertools.product(sides, repeat=grid.dim):
        block = np.ix_(*nodes[-2:])
        slabs = [((), kernel.values)] if grid.dim < 3 else [((i,), v) for i, v in zip(nodes[0], kernel.values)]
        for lead, values in slabs:
            r = grid.node_radius(lead + block)
            idx = np.minimum((r / width).astype(int), shell_count - 1)
            np.putmask(idx, (r == 0.0) | (r > grid.half_width), shell_count)
            # raveled: a 2-D index array sends np.maximum.at down its slow path
            np.maximum.at(env, idx.ravel(), np.abs(values).ravel())
    centers = (np.arange(shell_count) + 0.5) * width
    return [(float(c), float(e)) for c, e in zip(centers, env[:shell_count])]


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


def _support(field: BoxField, name: str) -> tuple[BoxField, list[np.ndarray]]:
    """A box-held field cut to its nonzero sub-box, and its nodes above 1e-14 of max |f|.

    The nodes, found on every node the field holds, come as per-axis
    grid indices. A field with no nonzero node raises ValueError.
    """
    nonzero = field.block != 0.0
    if not nonzero.any():
        raise ValueError(f"{name} has no nonzero node")
    axes = range(nonzero.ndim)
    within = [np.flatnonzero(nonzero.any(axis=tuple(a for a in axes if a != k))) for k in axes]
    magnitude = np.abs(field.block)
    above = np.nonzero(magnitude > 1e-14 * magnitude.max())
    cut = BoxField(field.grid, tuple(b[i] for b, i in zip(field.box, within)), field.block[np.ix_(*within)])
    return cut, [b[i] for b, i in zip(field.box, above)]


def _union(first: np.ndarray, second: np.ndarray) -> np.ndarray:
    """The sorted distinct values of two index arrays, as np.union1d gives them without importing numpy.ma."""
    both = np.sort(np.concatenate((first, second)))
    keep = np.ones(both.size, dtype=bool)
    keep[1:] = both[1:] != both[:-1]
    return both[keep]


def _resolve_between(
    grid: TorusGrid,
    slabs: Iterable[Sequence[np.ndarray]],
    block: np.ndarray,
    source: Sequence[np.ndarray],
    target: Sequence[np.ndarray],
) -> np.ndarray:
    """h^dim sum_s K(t - s) f(s) at every node t of the box `target`, K the kernel of a quadrant multiplier.

    `slabs` feeds one even multiplier on its quadrant, as
    `multiplier_kernel` takes it, so the result is the multiplier
    applied to f on the target box. A box is one index array per axis;
    it may wrap the periodic edge or have gaps. f equals `block`, of
    shape tuple(len(i) for i in source), on the box `source` and zero
    elsewhere. K is even in each axis, so the offset t_i - s_i folds to
    min(|t_i - s_i|, n - |t_i - s_i|) in 0 ... n/2, and K is evaluated
    only at the distinct folded offsets of each axis. The sum contracts
    one source axis at a time: each step gathers the kernel, or the
    partial sum, at one axis's (len(t_i), len(s_i)) matrix of folded
    offsets and sums s_i out, so no array spans both whole boxes.
    """
    n = grid.points_per_axis
    offsets, folds = [], []
    for t, s in zip(target, source):
        d = np.abs(np.subtract.outer(t, s))
        unique, index = np.unique(np.minimum(d, n - d).ravel(), return_inverse=True)
        offsets.append(unique)
        folds.append(index.reshape(d.shape))
    (kernel,) = multiplier_kernel(grid, slabs, offsets)
    # axes (t_0, d_1 ... d_(dim-1), s_1 ... s_(dim-1))
    partial = np.tensordot(kernel[folds[0]], block, axes=([1], [0]))
    for axis in range(1, grid.dim):
        # d_axis sits at `axis` and s_axis at `dim`; taken to the front, both are indexed as (t_axis, s_axis)
        front = np.moveaxis(partial, (axis, grid.dim), (0, 1))
        picked = front[folds[axis], np.arange(len(source[axis]))]
        partial = np.moveaxis(picked.sum(axis=1), 0, axis)
    return grid.cell_volume * partial


def disjoint_interaction(
    u: BoxField,
    outer: Sequence[tuple[float, BoxField]],
    spec: ResolventSpec,
    inner_radius: float,
) -> list[float]:
    """|<R u, v>| for each (gap, v) in `outer`, box-held fields with disjoint radial supports.

    u must vanish outside the ball of radius inner_radius and each v
    inside the ball of radius inner_radius + gap; both are checked on
    every node the field holds to 1e-14 of its maximum, with the radii
    of `grid.node_radius`. A field with no nonzero node raises
    ValueError, every gap must be at least 1, and a v on another grid
    than u raises NumericalError. R is self-adjoint,
    <u, R v> = <R u, v>, so R is applied to u once for all pairs, and
    only between supports: the convolution of u with the resolvent
    kernel, h^dim sum_s K(t - s) u(s), from u's nonzero sub-box (taken
    from its block) to the union of the v's nonzero sub-boxes, with K
    evaluated from the symbol, fed one slab of |xi| at a time, at the
    offsets between the boxes alone. Each pairing is h^dim times the sum
    over that target box, v's block embedded there. No Fourier transform
    runs and no array of the grid's or the quadrant's size is made.
    """
    grid = u.grid
    u, nodes = _support(u, "u")
    if np.any(grid.node_radius(nodes) > inner_radius):
        raise NumericalError(f"u is nonzero outside the ball of radius {inner_radius}")
    target = [np.zeros(0, dtype=int)] * grid.dim
    cut = []
    for gap, v in outer:
        if gap < 1.0:
            raise ValueError("gap must be at least 1")
        _check_same_grid(u, v)
        v, nodes = _support(v, "v")
        if np.any(grid.node_radius(nodes) < inner_radius + gap):
            raise NumericalError(f"v is nonzero inside the ball of radius {inner_radius + gap}")
        cut.append(v)
        target = [_union(t, b) for t, b in zip(target, v.box)]
    slabs = ((spec._symbol(norm),) for norm in grid.quadrant_slabs())
    resolved = _resolve_between(grid, slabs, u.block, u.box, target)
    pairings = []
    for v in cut:
        on_target = np.zeros(resolved.shape)
        on_target[np.ix_(*(np.searchsorted(t, b) for t, b in zip(target, v.box)))] = v.block
        pairings.append(abs(float(grid.cell_volume * np.sum(resolved * on_target))))
    return pairings


def compact_bump(grid: TorusGrid, center, radius: float) -> BoxField:
    """Smooth bump exactly supported in the ball of given radius around center, held on its box.

    The profile exp(-1/(1 - q^2)) with q the scaled torus distance;
    values are exactly zero outside, which support-checked interactions
    rely on. The profile is evaluated only on the bump's index box, the
    nodes whose per-axis offset d (from `grid.periodic_offsets`) has
    d^2 below radius^2, which holds the whole support, and the result is
    a `BoxField` on that box (it wraps the periodic edge where the ball
    does): embedded in the grid, its values equal the full-grid formula
    bit for bit. Dividing only on the box, by radius^2 above every d^2
    there, the formula cannot overflow or divide by zero. A bump whose
    ball holds no grid node raises ValueError, as does a radius <= 0.
    """
    if radius <= 0:
        raise ValueError("radius must be positive")
    r2 = radius * radius
    offsets = grid.periodic_offsets(center)
    box = tuple(np.flatnonzero(d * d < r2) for d in offsets)
    near = np.meshgrid(*(d[i] for d, i in zip(offsets, box)), indexing="ij", sparse=True)
    q2 = sum(d * d for d in near) / r2
    block = np.zeros(q2.shape)
    inside = q2 < 1.0
    if not inside.any():
        raise ValueError(f"a bump of radius {radius:g} around {center} holds no grid node")
    block[inside] = np.exp(-1.0 / (1.0 - q2[inside]))
    return BoxField(grid, box, block)
