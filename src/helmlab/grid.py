"""Periodic spectral substrate: grids, fields, transforms, multipliers, norms, peaks.

All computations live on the torus [-L, L)^dim sampled with n points per
axis. Transforms use the unitary (norm-preserving) FFT convention, and
integrals are plain quadrature sums weighted by the cell volume h^dim.

Fourier multipliers are real and even, m(-xi) = m(xi), so they keep
fields real and live on the half spectrum: the rfftn layout of shape
(n,)*(dim-1) + (n//2+1,), as `multiplier_values` returns them. A radial
multiplier is determined by its values on the quadrant of non-negative
wavenumbers, shape (n//2+1,)*dim. This module owns that quadrant's |xi|
slab layout: `quadrant_slabs` is the one producer of |xi|, and
`TorusGrid._radial_half_spectrum` the one unfold of a function of |xi|
from the slabs onto the half spectrum; `resolvent` owns the formulas.
The transform pair `apply_multiplier_values`
runs numpy's 1D transforms one axis at a time, in the order rfftn and
irfftn use (forward: rfft on the last axis, then fft on axes
dim-2 ... 0; inverse: ifft on axes 0 ... dim-2, then irfft on the last
axis), and writes each complex pass back into the one spectrum buffer
the first pass allocated, so its result equals the n-D pair's bit for
bit and its inputs are never written.
`multiplier_kernel` applies radial multipliers, given as a function of
|xi|, to the origin delta, whose spectrum is known, with no transform:
it evaluates them slab by slab and sums cosines, one dense matrix per
axis, at the non-negative node offsets it is asked for, the whole octant
0 ... n/2 or the offsets between two index boxes, each multiplier's sums
only over the corner of wavenumbers it is returned on. No full-grid
array is made, and no quadrant-sized one beyond the kernels and their
intermediates.
`multiplier_values` checks evenness on the full spectrum before it
keeps the half. The explicit `SpectralField` transforms stay complex,
on the full spectrum, and check Hermitian symmetry. Geometry and
multipliers are evaluated on open (broadcast) 1D axes; a full-grid
radius takes its square root in place.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
import math
from typing import Callable, Iterator, Sequence

import numpy as np

from .errors import NumericalError

_SUPPORTED_DIMS = (1, 2, 3)

# Relative asymmetry tolerated in a real field's spectrum: the imaginary
# residue of a complex inverse transform, or m(xi) - m(-xi) of a multiplier.
_SYMMETRY_TOL = 1e-8


@dataclass(frozen=True)
class TorusGrid:
    """Uniform periodic grid on [-half_width, half_width)^dim.

    Nodes are x_i = -L + i*h with h = 2L/n, and the discrete wavenumbers
    are xi_j = pi*j/L for j in {-n/2, ..., n/2 - 1}.
    """

    dim: int
    half_width: float
    points_per_axis: int

    def __post_init__(self):
        if self.dim not in _SUPPORTED_DIMS:
            raise ValueError(f"unsupported dimension {self.dim}, expected one of {_SUPPORTED_DIMS}")
        if not self.half_width > 0:
            raise ValueError("half_width must be positive")
        n = self.points_per_axis
        if n < 8 or n % 2 != 0:
            raise ValueError("points_per_axis must be an even integer >= 8")

    @property
    def spacing(self) -> float:
        return 2.0 * self.half_width / self.points_per_axis

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.points_per_axis,) * self.dim

    @property
    def size(self) -> int:
        return self.points_per_axis ** self.dim

    @property
    def cell_volume(self) -> float:
        return self.spacing ** self.dim

    @property
    def origin_index(self) -> tuple[int, ...]:
        """Index of the node at x = 0."""
        return (self.points_per_axis // 2,) * self.dim

    @cached_property
    def coordinate_axis(self) -> np.ndarray:
        return -self.half_width + self.spacing * np.arange(self.points_per_axis)

    @cached_property
    def frequency_axis(self) -> np.ndarray:
        """Wavenumbers in FFT order, 2 pi k/(n h) for k = 0, ..., n/2 - 1, -n/2, ..., -1 (numpy's fftfreq)."""
        n = self.points_per_axis
        k = np.arange(n)
        k[n // 2 :] -= n
        return 2.0 * np.pi * (k * (1.0 / (n * self.spacing)))

    def _open_axes(self, axis: np.ndarray) -> tuple[np.ndarray, ...]:
        """One copy of a 1D axis per dimension, shaped to broadcast over the grid."""
        return np.meshgrid(*([axis] * self.dim), indexing="ij", sparse=True)

    @cached_property
    def coordinate_axes(self) -> tuple[np.ndarray, ...]:
        """The node coordinates as open axes: x_i along axis i, shaped to broadcast over the grid."""
        return self._open_axes(self.coordinate_axis)

    def node_radius(self, index: Sequence[np.ndarray]) -> np.ndarray:
        """Euclidean distance from the origin of the nodes with per-axis indices `index` (broadcast)."""
        axis = self.coordinate_axis
        squared = sum(axis[i] * axis[i] for i in index)
        return np.sqrt(squared, out=squared)

    @property
    def radius(self) -> np.ndarray:
        """Euclidean distance of every node from the origin, made on each read so no grid-sized array stays."""
        return self.node_radius(self._open_axes(np.arange(self.points_per_axis)))

    def quadrant_slabs(self) -> Iterator[np.ndarray]:
        """|xi| on the quadrant of non-negative wavenumbers, shape (n//2+1,)*dim, in fresh slabs.

        The slabs hold at most (n//2+1)^2 values each, in the order
        `multiplier_kernel` reads them: in 3D, one axis-1 row at a time, shape
        (n//2+1, 1, n//2+1); in 1D and 2D, the whole quadrant at once. Each
        slab is a new array, which its reader may overwrite: the sum of
        squares, the last square added and the square root taken in place, so
        a slab costs one slab-sized array beside the buffer numpy's
        broadcasting add holds while it runs, and no quadrant-sized array is
        made or cached. The wavenumbers j and n - j are exact negatives, so
        |xi| is bitwise even in each axis and the quadrant holds every value
        of the full spectrum.
        """
        q = self.points_per_axis // 2 + 1
        *lead, last = [a * a for a in self._open_axes(self.frequency_axis[:q])]
        # the leading squares' sum is assigned by broadcasting, which takes no
        # buffer, so only the last square goes through a broadcasting ufunc,
        # whose buffer for it is up to a slab in size (numpy 2.4)
        if self.dim < 3:
            shape, heads = (q,) * self.dim, [sum(lead)]
        else:
            shape, heads = (q, 1, q), (lead[0] + lead[1][:, j : j + 1] for j in range(q))
        for head in heads:
            norm = np.empty(shape)
            norm[...] = head
            norm += last
            yield np.sqrt(norm, out=norm)

    def _radial_half_spectrum(self, radial: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
        """A function of |xi| on the half spectrum, shape (n,)*(dim-1) + (n//2+1,).

        `radial` maps one slab of `quadrant_slabs` to its values, once per
        slab, so once per quadrant node; the joined slabs' leading axes
        unfold with j -> min(j, n - j), j and n - j being exact negatives,
        so each value is bit for bit the one at that |xi| on the slabs.
        Beside the result only quadrant-sized arrays are held.
        """
        n = self.points_per_axis
        quadrant = np.concatenate([radial(norm) for norm in self.quadrant_slabs()], axis=min(self.dim - 1, 1))
        fold = np.minimum(np.arange(n), n - np.arange(n))
        return quadrant[np.ix_(*[fold] * (self.dim - 1))]

    def periodic_offsets(self, center) -> list[np.ndarray]:
        """Per axis, the signed torus offsets x_i - c in [-L, L) of the coordinate axis from a point."""
        center = np.atleast_1d(np.asarray(center, dtype=float))
        if center.shape != (self.dim,):
            raise ValueError(f"center must have {self.dim} components")
        span = 2.0 * self.half_width
        return [np.mod(self.coordinate_axis - c + self.half_width, span) - self.half_width for c in center]

    def periodic_distance2(self, center) -> np.ndarray:
        """Squared torus distance of every node from an arbitrary point."""
        offsets = np.meshgrid(*self.periodic_offsets(center), indexing="ij", sparse=True)
        return sum(d * d for d in offsets)

    def nearest_index(self, point) -> tuple[int, ...]:
        """Index tuple of the grid node closest to a point (periodic wrap)."""
        point = np.atleast_1d(np.asarray(point, dtype=float))
        if point.shape != (self.dim,):
            raise ValueError(f"point must have {self.dim} components")
        n = self.points_per_axis
        idx = np.rint((point + self.half_width) / self.spacing).astype(int) % n
        return tuple(int(i) for i in idx)


def build_grid(dim: int, half_width: float, points_per_axis: int) -> TorusGrid:
    """Construct a TorusGrid, validating dimension, box size and resolution."""
    return TorusGrid(dim=dim, half_width=float(half_width), points_per_axis=int(points_per_axis))


def _check_same_grid(a, b):
    if a.grid != b.grid:
        raise NumericalError("fields live on different grids")


@dataclass(frozen=True, eq=False)
class RealField:
    """Real-valued nodal samples on a TorusGrid."""

    grid: TorusGrid
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.shape != self.grid.shape:
            raise ValueError(f"values shape {values.shape} does not match grid shape {self.grid.shape}")
        if not np.all(np.isfinite(values)):
            raise ValueError("field values must all be finite")
        object.__setattr__(self, "values", values)

    @classmethod
    def zeros(cls, grid: TorusGrid) -> "RealField":
        return cls(grid, np.zeros(grid.shape))

    def __add__(self, other: "RealField") -> "RealField":
        _check_same_grid(self, other)
        return RealField(self.grid, self.values + other.values)

    def __sub__(self, other: "RealField") -> "RealField":
        _check_same_grid(self, other)
        return RealField(self.grid, self.values - other.values)

    def __mul__(self, factor: float) -> "RealField":
        return RealField(self.grid, self.values * float(factor))

    __rmul__ = __mul__


@dataclass(frozen=True, eq=False)
class SpectralField:
    """Complex Fourier coefficients of a field, in FFT layout."""

    grid: TorusGrid
    coeffs: np.ndarray

    def __post_init__(self):
        coeffs = np.asarray(self.coeffs, dtype=complex)
        if coeffs.shape != self.grid.shape:
            raise ValueError(f"coeffs shape {coeffs.shape} does not match grid shape {self.grid.shape}")
        if not np.all(np.isfinite(coeffs)):
            raise ValueError("spectral coefficients must all be finite")
        object.__setattr__(self, "coeffs", coeffs)


def forward_transform(field: RealField) -> SpectralField:
    """Unitary FFT of a real field."""
    return SpectralField(field.grid, np.fft.fftn(field.values, norm="ortho"))


def inverse_transform(field: SpectralField) -> RealField:
    """Unitary inverse FFT, discarding a small imaginary residue.

    Raises NumericalError when the residue exceeds 1e-8 relative
    to the coefficient magnitude, which indicates the coefficients did
    not satisfy the Hermitian symmetry of a real field.
    """
    complex_values = np.fft.ifftn(field.coeffs, norm="ortho")
    # judged against the coefficient scale too: an output that cancels to
    # roundoff would make an output-relative test misfire
    scale = max(float(np.max(np.abs(complex_values))), float(np.max(np.abs(field.coeffs))))
    if scale > 0.0:
        residue = float(np.max(np.abs(complex_values.imag))) / scale
        if residue > _SYMMETRY_TOL:
            raise NumericalError(
                f"imaginary residue {residue:.3e} exceeds {_SYMMETRY_TOL:.0e}; spectrum is not Hermitian"
            )
    return RealField(field.grid, np.ascontiguousarray(complex_values.real))


def multiplier_values(grid: TorusGrid, multiplier) -> np.ndarray:
    """Evaluate an even wavenumber multiplier; returns its half spectrum.

    The callable receives one open frequency axis per dimension, the
    wavenumbers along axis i shaped to broadcast over the full spectrum,
    and may return anything that broadcasts to the grid shape. Raises
    NumericalError when m(-xi) differs from m(xi) by more than
    1e-8 relative to max |m|, pairing index j with (-j) mod n on every
    axis: such a multiplier does not keep fields real. Returns the values
    on the half spectrum, of shape (n,)*(dim-1) + (n//2+1,), as
    `apply_multiplier_values` takes them.
    """
    values = np.asarray(multiplier(*grid._open_axes(grid.frequency_axis)), dtype=float)
    if not np.all(np.isfinite(values)):
        raise ValueError("multiplier takes non-finite values on the grid")
    mirrored = values[np.ix_(*((-np.arange(k)) % k for k in values.shape))]
    asymmetry = float(np.max(np.abs(values - mirrored)))
    if asymmetry > _SYMMETRY_TOL * float(np.max(np.abs(values))):
        raise NumericalError(
            f"multiplier is not even: |m(xi) - m(-xi)| reaches {asymmetry:.3e}; it would not keep fields real"
        )
    return np.broadcast_to(values, grid.shape)[..., : grid.points_per_axis // 2 + 1]


def apply_multiplier_values(field: RealField, values: np.ndarray) -> RealField:
    """Apply precomputed multiplier values to a real field.

    `values` holds m(xi) on the half spectrum, the rfftn layout of shape
    (n,)*(dim-1) + (n//2+1,) (see `multiplier_values`), or a scalar, and
    stands for an even multiplier, m(-xi) = m(xi). The result is
    irfftn(values * rfftn(f)), bit for bit: every fft and ifft runs in
    place on the one spectrum buffer that the rfft allocates. Neither
    `field.values` nor `values` is written.
    """
    grid = field.grid
    last = grid.dim - 1
    spectrum = np.fft.rfft(field.values, axis=last, norm="ortho")
    for axis in range(last - 1, -1, -1):
        np.fft.fft(spectrum, axis=axis, norm="ortho", out=spectrum)
    spectrum *= values
    for axis in range(last):
        np.fft.ifft(spectrum, axis=axis, norm="ortho", out=spectrum)
    return RealField(grid, np.fft.irfft(spectrum, n=grid.points_per_axis, axis=last, norm="ortho"))


# OpenBLAS runs a GEMM of m*n*k <= SMP_THRESHOLD_MIN * GEMM_MULTITHREAD_THRESHOLD
# = 65536 * 4 multiply-adds on its calling thread, whatever its thread count
# (interface/gemm.c), so a product split into blocks of at most that many
# wakes no worker thread
_GEMM_BLOCK = 1 << 18


def _matmul_rows(rows: np.ndarray, right: np.ndarray, out: np.ndarray) -> np.ndarray:
    """`rows @ right` written into `out`, which it returns, in blocks of rows that OpenBLAS keeps on the calling thread.

    Each block does at most 2^18 multiply-adds, so no block wakes an
    OpenBLAS worker; a row wider than that is a block of its own. Each
    entry is the same sum as the whole product's, which a GEMM kernel
    may round differently in a call with fewer rows.
    """
    step = max(1, _GEMM_BLOCK // right.size)
    for start in range(0, len(rows), step):
        np.matmul(rows[start : start + step], right, out=out[start : start + step])
    return out


def multiplier_kernel(
    grid: TorusGrid,
    multipliers: Callable[[np.ndarray], Sequence[np.ndarray]],
    offsets: Sequence[np.ndarray],
) -> list[np.ndarray]:
    """Radial multipliers applied to the unit-mass delta at the origin node, at per-axis node offsets.

    `multipliers` maps one slab of |xi| from `grid.quadrant_slabs` to a
    tuple of value arrays, one per multiplier, in the same order for
    every slab; it may overwrite the slab, which is fresh on each call.
    Each holds its multiplier on the slab's corner `(slice(c),) * dim`,
    c its leading extent and the same on every slab: n/2 + 1 for the
    whole slab, less for a multiplier that is 0 wherever some k_i >= c
    (so a 3D slab past the corner is not read, and may hold None there).
    The delta, 1/h^dim at `origin_index` = (n/2, ...), has the spectrum
    (-1)^(k_0 + ... + k_(dim-1)) / h^dim, so at the nodes n/2 +- a the
    kernel is the separable cosine sum

        prod_i 1/(n h) sum_(k_i = 0)^(c - 1) w_(k_i) cos(2 pi k_i a_i / n)  m(k),

    with w = 1 at k in {0, n/2} and 2 elsewhere and c the multiplier's corner.
    The kernel is even in each a_i, so `offsets` holds one 1D array of
    offsets a_i in 0 ... n/2 per axis, and each returned kernel, of shape
    tuple(len(a) for a in offsets), is the kernel on their product: one
    dense (n//2 + 1) x len(a_i) cosine matrix per axis, its first c
    columns, through BLAS in row blocks that OpenBLAS keeps on the
    calling thread (`_matmul_rows`), each product contracting the first
    axis and appending the new one last, so after dim products the axes
    are back in order. The first product runs slab by slab, on each
    slab's corner, into rows of the [(k_1 ... k_(dim-1)), a_0] intermediate; the rest
    run on whole intermediates, one multiplier after the other, widest
    corner first, each input released once its product is made. So
    beside one array per multiplier (its intermediate, partial product
    or kernel) only one product output is held at a time, and the
    narrower chains, run last, hold intermediates smaller than a kernel.
    No value array is written.
    """
    n = grid.points_per_axis
    q = n // 2 + 1
    k = np.arange(q)
    weights = np.where((k == 0) | (k == n // 2), 1.0, 2.0) / (n * grid.spacing)
    # the argument reduced mod n in integers, so it never leaves [0, 2 pi)
    cosines = [np.cos(2.0 * np.pi * (np.multiply.outer(a, k) % n) / n) * weights for a in offsets]
    firsts = None
    for j, norm in enumerate(grid.quadrant_slabs()):  # j: the slab's axis-1 wavenumber in 3D, else 0
        parts = multipliers(norm)
        if firsts is None:
            corners = [len(part) for part in parts]
            # rows of the first product's output, one per corner node off axis 0
            firsts = [np.empty((c ** (grid.dim - 1), len(offsets[0]))) for c in corners]
        for i, c in enumerate(corners):
            if j < c:
                rows = parts[i].reshape(c, -1).T
                _matmul_rows(rows, cosines[0][:, :c].T, firsts[i][j * len(rows) : (j + 1) * len(rows)])
    del norm, parts, rows  # the last slab's arrays, released before the quadrant-sized products
    kernels = [None] * len(firsts)
    for i in sorted(range(len(firsts)), key=lambda i: -corners[i]):
        kernel, firsts[i] = firsts[i], None  # so no list entry keeps an intermediate alive
        c = corners[i]
        for matrix in cosines[1:]:
            kernel = _matmul_rows(kernel.reshape(c, -1).T, matrix[:, :c].T, np.empty((kernel.size // c, len(matrix))))
        kernels[i] = kernel.reshape(tuple(len(a) for a in offsets))
    return kernels


def apply_multiplier(field: RealField, multiplier) -> RealField:
    """Apply a real Fourier multiplier m(xi) to a field.

    The multiplier is a callable receiving one open frequency axis per
    dimension and returning real, even values (see `multiplier_values`);
    the result equals inverse_transform(m * forward_transform(field)).
    """
    return apply_multiplier_values(field, multiplier_values(field.grid, multiplier))


def lq_norm(field: RealField, q: float) -> float:
    """Quadrature L^q norm, (h^dim * sum |f|^q)^(1/q); q = inf gives the max norm."""
    if math.isinf(q):
        return float(np.max(np.abs(field.values)))
    if q < 1:
        raise ValueError("q must be >= 1")
    total = float(np.sum(np.abs(field.values) ** q))
    return (field.grid.cell_volume * total) ** (1.0 / q)


def peak_node(values: np.ndarray) -> tuple[int, ...]:
    """Index of the first maximum of |values| in C order, the one rule that places a field."""
    return tuple(int(i) for i in np.unravel_index(int(np.argmax(np.abs(values))), values.shape))


def _roll_onto(values: np.ndarray, node: tuple[int, ...], target: tuple[int, ...]) -> np.ndarray:
    """`values` rolled periodically so the entry at `node` lands on `target`; `values` itself when they coincide."""
    shift = tuple(t - i for t, i in zip(target, node))
    return np.roll(values, shift, axis=range(values.ndim)) if any(shift) else values


def locate_peak(field: RealField) -> tuple[float, ...]:
    """Coordinates of the maximum of |field|, refined below the grid scale.

    Starts from `peak_node` and refines along each axis with a
    three-point parabola through the periodic neighbors; the refinement
    is clamped to half a cell so a noisy neighbor cannot throw the
    estimate into the next cell.
    """
    grid = field.grid
    values = field.values
    node = peak_node(values)
    center = abs(float(values[node]))
    if center <= 0.0:
        raise NumericalError("cannot locate the peak of an identically zero field")
    coords = []
    n = grid.points_per_axis
    for axis, i in enumerate(node):
        take = list(node)
        take[axis] = (i - 1) % n
        left = abs(float(values[tuple(take)]))
        take[axis] = (i + 1) % n
        right = abs(float(values[tuple(take)]))
        curvature = left - 2.0 * center + right
        if curvature < 0.0:
            offset = float(np.clip(0.5 * (left - right) / curvature, -0.5, 0.5))
        else:
            offset = 0.0
        coords.append(float(grid.coordinate_axis[i]) + offset * grid.spacing)
    return tuple(coords)


def inner_product(f: RealField, g: RealField) -> float:
    """Quadrature L^2 pairing h^dim * sum f*g."""
    _check_same_grid(f, g)
    return float(f.grid.cell_volume * np.sum(f.values * g.values))
