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
from typing import Callable, Sequence

import numpy as np

from .errors import InsufficientDataError, NumericalError
from .grid import TorusGrid, _check_same_grid, _matmul_rows, multiplier_kernel


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

        The layout `apply_multiplier_values` takes, mirrored from the
        symbol on the slabs of `grid.quadrant_slabs` by unfolding each
        leading axis with j -> min(j, n - j): wavenumbers j and n - j are
        exact negatives, so each value is bit for bit the kernel commands'
        at that |xi|. Beside the result only quadrant-sized arrays are held.
        """
        n = grid.points_per_axis
        quadrant = np.concatenate([self._symbol(norm) for norm in grid.quadrant_slabs()], axis=min(grid.dim - 1, 1))
        fold = np.minimum(np.arange(n), n - np.arange(n))
        return quadrant[np.ix_(*[fold] * (grid.dim - 1))]

    def _symbol(self, norm: np.ndarray) -> np.ndarray:
        """The symbol at wavenumber magnitudes `norm`, computed in place in `norm`, which it returns.

        Every step writes into `norm`, so besides it only the denominator,
        one array of its size, is made.
        """
        norm **= 2.0 * self.s
        norm -= 1.0
        denominator = norm * norm
        denominator += self.delta * self.delta
        norm /= denominator
        return norm


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
    values over the whole spectrum. Each slab keeps only its values in
    (0, 4), the wider window, so no quadrant-sized array is made. The
    values are sorted with their repeats, whose zero gaps the 1e-12
    floor drops, and the median is np.median's arithmetic on the sorted
    gaps, so delta equals the np.unique and np.median result bit for bit
    without the 12-18 ms import of numpy.ma that those two make.
    """
    kept = []
    for mu in grid.quadrant_slabs():
        mu **= 2.0 * s
        kept.append(mu[(mu > 0.0) & (mu < 4.0)])
    mu = np.concatenate(kept)
    mu.sort()
    gaps = np.diff(mu[(mu > 0.5) & (mu < 1.5)])
    if not np.any(gaps > 0.0):  # fewer than two distinct values
        gaps = np.diff(mu)
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


def _band_corner(grid: TorusGrid) -> int:
    """How many non-negative wavenumbers of an axis lie below 5/4, where the band cutoff psi ends.

    psi is exactly 0 at |xi| >= 5/4, where its smoothstep argument is
    1.0 in floats and only grows, and a node with some |xi_i| >= 5/4 has
    |xi| >= 5/4, a root of a sum of squares being at least each root.
    So psi, and any multiple of it, can be nonzero only on the corner of
    the quadrant where every wavenumber index is below this count.
    """
    return int(np.count_nonzero(np.abs(grid.frequency_axis[: grid.points_per_axis // 2 + 1]) < 1.25))


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
    each axis, so m is evaluated on the quadrant of non-negative
    wavenumbers alone, once per node, and psi and m*psi only on the
    corner of wavenumbers below 5/4 on every axis, outside which psi is
    exactly 0: on each slab's corner, and in 3D on the slabs below it.
    K1 is the kernel of m*psi and K2 that of m - m*psi, each a cosine
    sum on the octant of offsets 0 ... n/2
    (`multiplier_kernel`), returned as an `EvenKernel`. K2's sums run
    over the whole quadrant and K1's over the corner (13^3 of 65^3 nodes
    at L = 32, n = 128). Both multipliers are functions of |xi|, which
    `multiplier_kernel` gives them one slab at a time, so neither they
    nor |xi| ever take a quadrant-sized array; psi is taken from the
    slab's corner before the symbol overwrites it. K2's later products
    run first, so at most two octant-sized arrays are held at once. No
    Fourier transform runs, and neither K itself nor any full-grid array
    is formed. The absorption delta > 0 that every `ResolventSpec`
    carries confines the oscillating kernel tail to the box.
    """
    c = _band_corner(grid)
    corner = (slice(c),) * grid.dim
    slabs = itertools.count()  # the slab's axis-1 wavenumber in 3D, else 0, as multiplier_kernel counts them

    def parts(norm):
        if next(slabs) >= c:  # psi is 0 on the whole slab, where K1 is not read
            return None, spec._symbol(norm)
        cutoff = _band_cutoff(norm[corner])
        symbol = spec._symbol(norm)
        band = symbol[corner] * cutoff
        symbol[corner] -= band
        return band, symbol

    band, remainder = multiplier_kernel(grid, parts, (np.arange(grid.points_per_axis // 2 + 1),) * grid.dim)
    return KernelBundle(EvenKernel(grid, band), EvenKernel(grid, remainder))


def radial_envelope(kernel: EvenKernel, shell_count: int) -> list[tuple[float, float]]:
    """Per-shell maximum of |K| over shells partitioning radii (0, half_width].

    Returns (shell center radius, shell maximum) pairs; the origin node
    and nodes farther than half_width from it are ignored, and empty
    shells report 0. A node at octant offsets a lies at distance h|a|,
    h = 2 half_width / n, so its shell depends only on the integer
    S = sum a_i^2: shell j = max{j : (j n)^2 <= 4 shells^2 S}, the last
    shell also taking 4 S = n^2, and S = 0 (the origin) and 4 S > n^2
    are dropped. The rule is exact on every grid. |K| is first folded
    into its maximum per S, one first-axis slab of (n/2+1)^(dim-1)
    nodes at a time, so no array beyond one slab and the table of
    dim (n/2)^2 + 1 values of S is made; each shell is then a run of
    consecutive S in that table.
    """
    if shell_count < 4:
        raise ValueError("shell_count must be at least 4")
    grid = kernel.grid
    n = grid.points_per_axis
    squares = [a * a for a in grid._open_axes(np.arange(n // 2 + 1))]
    rest = sum(squares[1:])
    table = np.zeros(grid.dim * (n // 2) ** 2 + 1)
    for first, values in zip(squares[0], kernel.values):
        # raveled: a 2-D index array sends np.maximum.at down its slow path
        np.maximum.at(table, np.ravel(first + rest), np.abs(values).ravel())
    # shell j takes the S from ceil((j n)^2 / (4 shells^2)) to the next shell's
    # first, the last shell up to 4 S = n^2; shell 0 starts past the origin
    starts = [max(1, -(-((j * n) ** 2) // (4 * shell_count**2))) for j in range(shell_count)]
    ends = starts[1:] + [n * n // 4 + 1]
    width = grid.half_width / shell_count
    return [
        ((j + 0.5) * width, float(table[lo:hi].max(initial=0.0)))
        for j, (lo, hi) in enumerate(zip(starts, ends))
    ]


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
    multiplier: Callable[[np.ndarray], np.ndarray],
    block: np.ndarray,
    source: Sequence[np.ndarray],
    target: Sequence[np.ndarray],
) -> np.ndarray:
    """h^dim sum_s K(t - s) f(s) at every node t of the box `target`, K the kernel of a radial multiplier.

    `multiplier` maps a slab of |xi| to the multiplier's values there,
    as `multiplier_kernel` evaluates it, so the result is the multiplier
    applied to f on the target box. A box is one index array per axis;
    it may wrap the periodic edge or have gaps. f equals `block`, of
    shape tuple(len(i) for i in source), on the box `source` and zero
    elsewhere. K is even in each axis, so the offset t_i - s_i folds to
    min(|t_i - s_i|, n - |t_i - s_i|) in 0 ... n/2, and K is evaluated
    only at the distinct folded offsets of each axis. The multiplier is
    radial and the grid cubic, so K is symmetric under swaps of its axes
    (to round-off, |xi| summing its squares in a fixed order): its cosine
    sums take the axes with the fewest offsets first, which shrinks the
    first product, the only one over the whole quadrant, and the kernel
    is transposed back. The sum contracts one source axis at a time: each
    step gathers the kernel, or the partial sum, at one axis's
    (len(t_i), len(s_i)) matrix of folded offsets and sums s_i out, the
    first through a BLAS product in row blocks that OpenBLAS keeps on
    the calling thread (`grid._matmul_rows`), so no array spans both
    whole boxes.
    """
    n = grid.points_per_axis
    offsets, folds = [], []
    for t, s in zip(target, source):
        d = np.abs(np.subtract.outer(t, s))
        unique, index = np.unique(np.minimum(d, n - d).ravel(), return_inverse=True)
        offsets.append(unique)
        folds.append(index.reshape(d.shape))
    order = sorted(range(grid.dim), key=lambda i: len(offsets[i]))
    (kernel,) = multiplier_kernel(grid, lambda norm: (multiplier(norm),), [offsets[i] for i in order])
    kernel = kernel.transpose(np.argsort(order))
    # axes (d_1 ... d_(dim-1), t_0, s_0), taken into a fresh C-ordered array, so its rows of
    # s_0 are one matrix, whose product with the block sums s_0 out
    gathered = np.take(np.moveaxis(kernel, 0, -1), folds[0], axis=-1)
    rows, right = gathered.reshape(-1, len(block)), block.reshape(len(block), -1)
    product = _matmul_rows(rows, right, np.empty((len(rows), right.shape[1])))
    # axes (t_0, d_1 ... d_(dim-1), s_1 ... s_(dim-1))
    partial = np.moveaxis(product.reshape(gathered.shape[:-1] + block.shape[1:]), grid.dim - 1, 0)
    del gathered, rows  # the gathered kernel, released before the partial sums
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
    the cosine sum of the symbol, a function of |xi| that
    `multiplier_kernel` evaluates one slab at a time, at the offsets
    between the boxes alone. Each pairing is h^dim times the sum
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
    resolved = _resolve_between(grid, spec._symbol, u.block, u.box, target)
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
    there, the formula cannot overflow or divide by zero. A bump that is
    zero at every node, because its ball holds no node or only nodes so
    near the rim that the profile underflows to 0, raises ValueError, as
    does a radius <= 0.
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
    block[inside] = np.exp(-1.0 / (1.0 - q2[inside]))
    if not block.any():
        raise ValueError(f"a bump of radius {radius:g} around {center} is nonzero at no grid node")
    return BoxField(grid, box, block)
