"""Spectral substrate: grids, transforms, multipliers, norms."""
import math
import tracemalloc

import numpy as np
import pytest

from helmlab import (
    RealField,
    SpectralField,
    apply_multiplier,
    apply_multiplier_values,
    build_grid,
    forward_transform,
    inner_product,
    inverse_transform,
    lq_norm,
)
from helmlab import (
    ConstantQ,
    Exponents,
    ResolventSpec,
    compact_bump,
    cutoff_projection,
    disjoint_interaction,
    profile_distance,
    sample_Q,
    solve_ground_state,
)
from helmlab.errors import NumericalError
from helmlab.grid import multiplier_kernel, multiplier_values

from conftest import half_norm, mirror, octant, quadrant, whole_kernel


def random_field(grid, seed=0):
    return RealField(grid, np.random.default_rng(seed).standard_normal(grid.shape))


# ---------------------------------------------------------------- grid


def test_grid_geometry():
    grid = build_grid(1, math.pi, 8)
    assert grid.spacing == pytest.approx(math.pi / 4)
    assert grid.cell_volume == pytest.approx(math.pi / 4)
    assert grid.coordinate_axis[0] == pytest.approx(-math.pi)
    # node at the origin sits at index n//2
    assert grid.coordinate_axis[grid.origin_index[0]] == pytest.approx(0.0)
    assert grid.shape == (8,)
    assert grid.size == 8


def test_grid_frequencies_match_fourier_convention():
    grid = build_grid(1, 16.0, 64)
    # xi_j = pi j / L: positive branch first, then the negative wrap
    expected = np.pi * np.fft.fftfreq(64, d=1.0) * 64 / 16.0
    assert np.allclose(grid.frequency_axis, expected)
    assert grid.frequency_axis[1] == pytest.approx(np.pi / 16.0)
    # the integer wavenumbers in FFT order times 1/(n h) are numpy's fftfreq bit for bit
    for n in range(8, 257, 2):
        for half_width in (1.0, 8.0, 16.0, 32.0, math.pi, 0.3):
            grid = build_grid(1, half_width, n)
            assert np.array_equal(grid.frequency_axis, 2.0 * np.pi * np.fft.fftfreq(n, d=grid.spacing))


@pytest.mark.parametrize(
    "dim,half_width,n",
    [(0, 1.0, 8), (4, 1.0, 8), (2, -1.0, 8), (2, 1.0, 7), (2, 1.0, 4)],
)
def test_grid_rejects_bad_parameters(dim, half_width, n):
    with pytest.raises(ValueError):
        build_grid(dim, half_width, n)


def test_nearest_index_wraps():
    grid = build_grid(2, 16.0, 64)
    assert grid.nearest_index((0.0, 0.0)) == grid.origin_index
    # half a cell to the right still rounds to a node; past the edge wraps
    assert grid.nearest_index((15.9, 0.0)) == (0, 32)


def test_periodic_distance_wraps_around_boundary():
    grid = build_grid(1, 16.0, 64)
    d2 = grid.periodic_distance2((15.5,))
    # the node at -16 is only 0.5 away through the seam
    node_at_minus_L = 0
    assert d2[node_at_minus_L] == pytest.approx(0.25)


@pytest.mark.parametrize("dim,n", [(1, 64), (2, 32), (3, 16)])
def test_geometry_matches_the_full_mesh_formulas(dim, n):
    # the open-axis sums add the same terms in the same order as full meshes
    grid = build_grid(dim, 16.0, n)
    coords = np.meshgrid(*([grid.coordinate_axis] * dim), indexing="ij")
    freqs = np.meshgrid(*([grid.frequency_axis] * dim), indexing="ij")
    assert np.array_equal(grid.radius, np.sqrt(sum(m * m for m in coords)))
    # |xi| is bitwise even in each axis, so its quadrant holds every value
    full_norm = np.sqrt(sum(m * m for m in freqs))
    for axis in range(dim):
        assert np.array_equal(full_norm, np.take(full_norm, (-np.arange(n)) % n, axis=axis))
    for center in [(15.5, -15.9, 0.3), (0.0, 0.0, 0.0), (-16.0, 7.25, -3.1)]:
        expected = np.zeros(grid.shape)
        for mesh, c in zip(coords, center[:dim]):
            d = np.mod(mesh - c + 16.0, 32.0) - 16.0
            expected += d * d
        assert np.array_equal(grid.periodic_distance2(center[:dim]), expected)


def test_field_validation():
    grid = build_grid(2, 16.0, 8)
    with pytest.raises(ValueError):
        RealField(grid, np.zeros((8, 4)))
    with pytest.raises(ValueError):
        RealField(grid, np.full((8, 8), np.nan))
    other = build_grid(2, 16.0, 16)
    with pytest.raises(NumericalError, match="different grids"):
        _ = RealField.zeros(grid) + RealField.zeros(other)


def test_spectral_field_validation():
    grid = build_grid(2, 16.0, 8)
    with pytest.raises(ValueError, match="does not match grid shape"):
        SpectralField(grid, np.zeros((8, 5), dtype=complex))
    coeffs = np.zeros((8, 8), dtype=complex)
    coeffs[1, 2] = complex(0.0, np.inf)
    with pytest.raises(ValueError, match="finite"):
        SpectralField(grid, coeffs)


def test_points_must_have_one_component_per_axis():
    grid = build_grid(3, 16.0, 8)
    for point in [(0.0, 0.0), (0.0, 0.0, 0.0, 0.0)]:
        with pytest.raises(ValueError, match="3 components"):
            grid.periodic_offsets(point)
        with pytest.raises(ValueError, match="3 components"):
            grid.nearest_index(point)


MISMATCHED = (build_grid(1, 16.0, 16), build_grid(1, 16.0, 32))
EXPS_1D = Exponents(dim=1, s=1.0, p=5.0, k=1.0)
SPEC_1D = ResolventSpec(s=1.0, delta=0.3)


@pytest.mark.parametrize(
    "call",
    [
        lambda a, b: RealField.zeros(a) - RealField.zeros(b),
        lambda a, b: profile_distance(RealField(a, np.ones(a.shape)), RealField(b, np.ones(b.shape))),
        lambda a, b: cutoff_projection(
            RealField(a, np.ones(a.shape)), (0.0,), sample_Q(ConstantQ(1.0), b), EXPS_1D, SPEC_1D
        ),
        lambda a, b: solve_ground_state(
            sample_Q(ConstantQ(1.0), a), EXPS_1D, SPEC_1D, init=RealField(b, np.ones(b.shape))
        ),
        lambda a, b: disjoint_interaction(
            compact_bump(a, (0.0,), 1.0), [(1.0, compact_bump(b, (4.0,), 1.0))], SPEC_1D, inner_radius=1.0
        ),
    ],
    ids=["field-arithmetic", "profile_distance", "cutoff_projection", "solve_ground_state", "disjoint_interaction"],
)
def test_every_grid_mismatch_raises_grid_mismatch_error(call):
    with pytest.raises(NumericalError, match="different grid"):
        call(*MISMATCHED)


# ---------------------------------------------------------------- transforms


@pytest.mark.parametrize("dim,n", [(1, 256), (2, 64), (3, 16)])
def test_round_trip_identity(dim, n):
    grid = build_grid(dim, 16.0, n)
    f = random_field(grid, seed=dim)
    g = inverse_transform(forward_transform(f))
    assert np.max(np.abs(g.values - f.values)) <= 1e-12 * np.max(np.abs(f.values))


@pytest.mark.parametrize("dim,n", [(1, 256), (2, 64), (3, 16)])
def test_parseval_quadrature(dim, n):
    grid = build_grid(dim, 16.0, n)
    f = random_field(grid, seed=10 + dim)
    spectral = forward_transform(f)
    physical = lq_norm(f, 2) ** 2
    fourier = grid.cell_volume * float(np.sum(np.abs(spectral.coeffs) ** 2))
    assert abs(physical - fourier) <= 1e-10 * physical


def test_single_mode_multiplier_is_symbol_times_mode():
    # apply |xi|^2 to cos(xi_j x): the discrete Laplacian oracle
    grid = build_grid(1, 16.0, 64)
    j = 5
    xi = np.pi * j / 16.0
    f = RealField(grid, np.cos(xi * grid.coordinate_axis))
    out = apply_multiplier(f, lambda a: a * a)
    assert np.allclose(out.values, xi * xi * f.values, atol=1e-12)


def test_multiplier_composition():
    grid = build_grid(2, 16.0, 64)
    f = random_field(grid, seed=3)
    m1 = multiplier_values(grid, lambda a, b: np.exp(-(a * a + b * b)))
    m2 = multiplier_values(grid, lambda a, b: 1.0 + 0.5 * np.cos(a))
    once = apply_multiplier_values(f, m1 * m2)
    twice = apply_multiplier_values(apply_multiplier_values(f, m1), m2)
    assert np.max(np.abs(once.values - twice.values)) <= 1e-10 * np.max(np.abs(once.values))


def test_multiplier_commutes_with_translation():
    grid = build_grid(2, 16.0, 32)
    f = random_field(grid, seed=4)
    values = multiplier_values(grid, lambda a, b: np.exp(-0.3 * (a * a + b * b)))
    lhs = np.roll(apply_multiplier_values(f, values).values, (5, -3), axis=(0, 1))
    rhs = apply_multiplier_values(RealField(grid, np.roll(f.values, (5, -3), axis=(0, 1))), values)
    assert np.allclose(lhs, rhs.values, atol=1e-12)


@pytest.mark.parametrize("dim,n", [(1, 64), (2, 32), (3, 16)])
def test_real_pair_matches_the_complex_reference(dim, n):
    # even, and nonzero on the Nyquist planes of the first and the halved last axis
    grid = build_grid(dim, 16.0, n)
    h = grid.spacing
    f = random_field(grid, seed=20 + dim)

    def multiplier(*a):
        return 1.0 + 0.5 * np.cos(h * a[0]) + 0.25 * np.cos(h * a[-1])

    m = multiplier_values(grid, multiplier)
    full = np.broadcast_to(multiplier(*np.meshgrid(*([grid.frequency_axis] * dim), indexing="ij")), grid.shape)
    assert np.array_equal(m, full[..., : n // 2 + 1])
    real_pair = apply_multiplier_values(f, m)
    reference = inverse_transform(SpectralField(grid, full * forward_transform(f).coeffs))
    assert np.max(np.abs(real_pair.values - reference.values)) <= 1e-12 * np.max(np.abs(reference.values))


@pytest.mark.parametrize("dim,n", [(1, 64), (2, 32), (3, 16)])
def test_multiplier_kernel_matches_the_delta_through_the_pair(dim, n):
    # the closed-form delta spectrum, with values on every Nyquist plane
    grid = build_grid(dim, 16.0, n)
    h = grid.spacing

    def radial(norm):
        return 1.0 + 0.5 * np.cos(h * norm) + 0.25 * np.cos(0.5 * h * norm)

    m = multiplier_values(grid, lambda *a: radial(np.sqrt(sum(x * x for x in a))))
    assert np.all(m[..., -1] != 0.0) and np.all(m[n // 2] != 0.0)
    delta = np.zeros(grid.shape)
    delta[grid.origin_index] = 1.0 / grid.cell_volume
    reference = apply_multiplier_values(RealField(grid, delta), m)
    kernel = mirror(grid, whole_kernel(grid, radial))
    assert np.max(np.abs(kernel - reference.values)) <= 1e-12 * np.max(np.abs(reference.values))


@pytest.mark.parametrize("dim,n", [(1, 64), (2, 32), (3, 16)])
def test_multiplier_paths_are_the_nd_transforms_bit_for_bit(dim, n):
    # the 1D passes run in the axis order of rfftn and irfftn, so the
    # arrays agree exactly, not just to rounding; multiplier_kernel runs
    # no transform and is checked against the pair to rounding above
    grid = build_grid(dim, 16.0, n)
    axes = tuple(range(dim))
    h = grid.spacing
    m = multiplier_values(grid, lambda *a: 1.0 / (1.0 + sum(x * x for x in a)) + 0.25 * np.cos(h * a[-1]))
    f = random_field(grid, seed=60 + dim)
    reference = np.fft.irfftn(m * np.fft.rfftn(f.values, axes=axes, norm="ortho"), s=grid.shape, axes=axes, norm="ortho")
    assert np.array_equal(apply_multiplier_values(f, m).values, reference)


@pytest.mark.parametrize("dim,n", [(1, 64), (2, 32), (3, 16)])
@pytest.mark.parametrize("writable", [False, True], ids=["broadcast-view", "owned-copy"])
def test_multiplier_paths_leave_their_inputs_untouched(dim, n, writable):
    # the in-place passes write only into buffers the paths allocate: a
    # read-only view of multiplier_values, or of the values multiplier_kernel
    # is given, would raise, and a writable copy must come back unchanged
    grid = build_grid(dim, 16.0, n)
    m = multiplier_values(grid, lambda *a: 1.0 + 0.5 * np.cos(grid.spacing * a[0]))
    assert not m.flags.writeable
    if writable:
        m = np.array(m)
    f = random_field(grid, seed=70 + dim)
    before = (f.values.copy(), m.copy())
    apply_multiplier_values(f, m)
    for kept, now in zip(before, (f.values, m)):
        assert np.array_equal(kept, now)

    def read_only(norm):
        values = 1.0 + 0.5 * np.cos(grid.spacing * norm)
        return np.broadcast_to(values, norm.shape), np.broadcast_to(values * values, norm.shape)

    multiplier_kernel(grid, read_only, octant(grid))


@pytest.mark.parametrize("dim,n", [(1, 32), (2, 32), (3, 32), (3, 64)])
def test_quadrant_slabs_are_the_full_mesh_quadrant_bit_for_bit(dim, n):
    # one axis-1 row at a time in 3D, the whole quadrant in 1D and 2D
    grid = build_grid(dim, 16.0, n)
    q = n // 2 + 1
    slabs = list(grid.quadrant_slabs())
    assert all(slab.size <= q * q for slab in slabs)
    assert len(slabs) == (q if dim == 3 else 1)
    assert all(np.size(value) <= n for value in vars(grid).values())  # nothing quadrant-sized is cached
    assert np.array_equal(np.concatenate(slabs, axis=min(dim - 1, 1)), quadrant(half_norm(grid)))


def test_a_quadrant_slab_costs_one_slab_and_one_ufunc_buffer():
    # a 3D slab is the leading squares' sum, assigned to a new slab, with the
    # last square added and the root taken in place: one slab-sized array,
    # beside the buffer numpy's broadcasting add takes for its broadcast
    # operand, measured here on the same shapes; the sum and its root made as
    # new arrays took 3.1 slabs
    grid = build_grid(3, 32.0, 128)
    q = 65
    slab_bytes = 8 * q * q
    assert grid.frequency_axis.size == 128  # cached before tracing
    norm, last = np.zeros((q, 1, q)), np.ones((1, 1, q))
    tracemalloc.start()
    try:
        norm += last
        buffer = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        slab = next(grid.quadrant_slabs())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert slab.shape == (q, 1, q)
    # 8 KiB for the squares of the wavenumber axes and the Python objects
    assert peak <= slab_bytes + buffer + 8 * 1024


def test_uneven_multiplier_rejected():
    grid = build_grid(1, 16.0, 64)
    f = random_field(grid, seed=5)
    with pytest.raises(NumericalError, match="not even"):
        apply_multiplier(f, lambda a: a)  # odd: m(-xi) = -m(xi)
    plane = build_grid(2, 16.0, 32)
    with pytest.raises(NumericalError, match="not even"):
        multiplier_values(plane, lambda a, b: np.sin(b))  # odd along the broadcast axis only
    # asymmetry is judged relative to max |m|: roundoff-sized odd parts pass
    scale = np.max(np.abs(grid.frequency_axis))
    multiplier_values(grid, lambda a: 1.0 + 1e-10 * a / scale)
    with pytest.raises(NumericalError, match="not even"):
        multiplier_values(grid, lambda a: 1.0 + 1e-6 * a / scale)
    assert np.allclose(apply_multiplier(f, lambda a: 2.0).values, 2.0 * f.values, atol=1e-12)


def test_non_hermitian_spectrum_rejected():
    grid = build_grid(1, 16.0, 64)
    coeffs = np.zeros(64, dtype=complex)
    coeffs[3] = 1.0  # no conjugate partner at -3
    with pytest.raises(NumericalError, match="not Hermitian"):
        inverse_transform(SpectralField(grid, coeffs))


def test_multiplier_must_be_finite():
    grid = build_grid(1, 16.0, 64)

    def inverse_frequency(a):
        with np.errstate(divide="ignore"):
            return 1.0 / a  # blows up at xi = 0

    with pytest.raises(ValueError):
        multiplier_values(grid, inverse_frequency)


# ---------------------------------------------------------------- norms


def test_lq_norm_constant_field():
    grid = build_grid(2, 16.0, 32)
    f = RealField(grid, np.full(grid.shape, -2.0))
    for q in (1.0, 2.0, 5.0):
        assert lq_norm(f, q) == pytest.approx(2.0 * 32.0 ** (2.0 / q))
    assert lq_norm(f, math.inf) == pytest.approx(2.0)


def test_lq_norm_against_independent_summation():
    grid = build_grid(2, 16.0, 16)
    f = random_field(grid, seed=7)
    total = math.fsum(abs(x) ** 3 for x in f.values.ravel())
    expected = (grid.cell_volume * total) ** (1.0 / 3.0)
    assert lq_norm(f, 3) == pytest.approx(expected, rel=1e-13)


def test_lq_norm_rejects_q_below_one():
    grid = build_grid(1, 16.0, 8)
    with pytest.raises(ValueError):
        lq_norm(RealField.zeros(grid), 0.5)


def test_inner_product_bilinear_and_consistent():
    grid = build_grid(2, 16.0, 16)
    f, g, h = (random_field(grid, seed=s) for s in (1, 2, 3))
    lhs = inner_product(f + 2.0 * g, h)
    rhs = inner_product(f, h) + 2.0 * inner_product(g, h)
    assert lhs == pytest.approx(rhs, rel=1e-12)
    assert inner_product(f, f) == pytest.approx(lq_norm(f, 2) ** 2, rel=1e-12)
    # Cauchy-Schwarz with a little slack for roundoff
    assert abs(inner_product(f, g)) <= lq_norm(f, 2) * lq_norm(g, 2) * (1 + 1e-12)


def test_inner_product_grid_mismatch():
    a = build_grid(1, 16.0, 16)
    b = build_grid(1, 8.0, 16)
    with pytest.raises(NumericalError, match="different grids"):
        inner_product(RealField.zeros(a), RealField.zeros(b))
