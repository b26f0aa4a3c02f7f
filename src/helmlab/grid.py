"""Periodic spectral substrate: grids, fields, transforms, multipliers, norms.

All computations live on the torus [-L, L)^dim sampled with n points per
axis. Transforms use the unitary (norm-preserving) FFT convention, and
integrals are plain quadrature sums weighted by the cell volume h^dim.

Fourier multipliers are real and even, m(-xi) = m(xi), so they keep
fields real: `apply_multiplier_values` uses the real transform pair
rfftn/irfftn on the half spectrum, with no imaginary residue to check.
`multiplier_values` rejects an uneven callable; raw values must be even,
as the resolvent symbol and the band cutoff are by construction. The
explicit `SpectralField` transforms stay complex and check Hermitian
symmetry. Geometry and multipliers are evaluated on open (broadcast) 1D
axes, not on full per-axis meshes.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
import math

import numpy as np

from .errors import GridMismatchError, SymmetryViolationError

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
        if self.half_width <= 0:
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
        return 2.0 * np.pi * np.fft.fftfreq(self.points_per_axis, d=self.spacing)

    @cached_property
    def coordinate_mesh(self) -> tuple[np.ndarray, ...]:
        return tuple(np.meshgrid(*([self.coordinate_axis] * self.dim), indexing="ij"))

    def _open_axes(self, axis: np.ndarray) -> list[np.ndarray]:
        """One copy of a 1D axis per dimension, shaped to broadcast over the grid."""
        return np.meshgrid(*([axis] * self.dim), indexing="ij", sparse=True)

    @cached_property
    def radius(self) -> np.ndarray:
        """Euclidean distance of every node from the origin."""
        return np.sqrt(sum(a * a for a in self._open_axes(self.coordinate_axis)))

    @cached_property
    def frequency_norm(self) -> np.ndarray:
        return np.sqrt(sum(a * a for a in self._open_axes(self.frequency_axis)))

    def periodic_distance2(self, center) -> np.ndarray:
        """Squared torus distance of every node from an arbitrary point."""
        center = np.atleast_1d(np.asarray(center, dtype=float))
        if center.shape != (self.dim,):
            raise ValueError(f"center must have {self.dim} components")
        span = 2.0 * self.half_width
        offsets = (
            np.mod(a - c + self.half_width, span) - self.half_width
            for a, c in zip(self._open_axes(self.coordinate_axis), center)
        )
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
        raise GridMismatchError("fields live on different grids")


@dataclass(frozen=True)
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

    def __mul__(self, factor) -> "RealField":
        if isinstance(factor, RealField):
            _check_same_grid(self, factor)
            return RealField(self.grid, self.values * factor.values)
        return RealField(self.grid, self.values * float(factor))

    __rmul__ = __mul__

    def __neg__(self) -> "RealField":
        return RealField(self.grid, -self.values)


@dataclass(frozen=True)
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

    Raises SymmetryViolationError when the residue exceeds 1e-8 relative
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
            raise SymmetryViolationError(
                f"imaginary residue {residue:.3e} exceeds {_SYMMETRY_TOL:.0e}; spectrum is not Hermitian"
            )
    return RealField(field.grid, np.ascontiguousarray(complex_values.real))


def multiplier_values(grid: TorusGrid, multiplier) -> np.ndarray:
    """Evaluate an even wavenumber multiplier on the grid's frequencies.

    The callable receives one open frequency axis per dimension, the
    wavenumbers along axis i shaped to broadcast over the grid, and may
    return anything that broadcasts to the grid shape. Raises
    SymmetryViolationError when m(-xi) differs from m(xi) by more than
    1e-8 relative to max |m|, pairing index j with (-j) mod n on every
    axis: such a multiplier does not keep fields real.
    """
    values = np.asarray(multiplier(*grid._open_axes(grid.frequency_axis)), dtype=float)
    if not np.all(np.isfinite(values)):
        raise ValueError("multiplier takes non-finite values on the grid")
    mirrored = values[np.ix_(*((-np.arange(k)) % k for k in values.shape))]
    asymmetry = float(np.max(np.abs(values - mirrored)))
    if asymmetry > _SYMMETRY_TOL * float(np.max(np.abs(values))):
        raise SymmetryViolationError(
            f"multiplier is not even: |m(xi) - m(-xi)| reaches {asymmetry:.3e}; it would not keep fields real"
        )
    return np.broadcast_to(values, grid.shape)


def apply_multiplier_values(field: RealField, values: np.ndarray) -> RealField:
    """Apply precomputed multiplier values to a real field.

    `values` holds m(xi) on the full grid in FFT layout and must be even,
    m(-xi) = m(xi); the real transform pair reads only the half spectrum
    values[..., :n//2 + 1], so the odd part of uneven values is lost
    without notice.
    """
    grid = field.grid
    axes = tuple(range(grid.dim))
    half = values[..., : grid.points_per_axis // 2 + 1]
    spectrum = np.fft.rfftn(field.values, axes=axes, norm="ortho")
    return RealField(grid, np.fft.irfftn(half * spectrum, s=grid.shape, axes=axes, norm="ortho"))


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


def inner_product(f: RealField, g: RealField) -> float:
    """Quadrature L^2 pairing h^dim * sum f*g."""
    _check_same_grid(f, g)
    return float(f.grid.cell_volume * np.sum(f.values * g.values))


def translate(field: RealField, cells) -> RealField:
    """Translate a field by whole grid cells (periodic roll).

    A positive shift of c cells along an axis moves content from node i
    to node i + c, i.e. the result samples f(x - c*h).
    """
    cells = np.atleast_1d(np.asarray(cells, dtype=int))
    if cells.shape != (field.grid.dim,):
        raise ValueError(f"cells must have {field.grid.dim} components")
    return RealField(field.grid, np.roll(field.values, tuple(int(c) for c in cells), axis=tuple(range(field.grid.dim))))
