"""Resolvent multiplier, kernel extraction and decay diagnostics."""
import itertools
import os
import subprocess
import sys
import tracemalloc
import types
from pathlib import Path

import numpy as np
import pytest

from helmlab import (
    BoxField,
    EvenKernel,
    InsufficientDataError,
    RealField,
    ResolventSpec,
    apply_multiplier_values,
    auto_delta,
    band_decompose,
    build_grid,
    compact_bump,
    disjoint_interaction,
    fit_decay_exponent,
    forward_transform,
    inner_product,
    lq_norm,
    radial_envelope,
)
from helmlab.config import RunConfig, make_spec
from helmlab.errors import ConfigError, NumericalError
from helmlab.grid import multiplier_values
from helmlab.resolvent import exp_smoothstep
from helmlab import resolvent

from conftest import embed, half_norm, mirror, numpy_runs_x86_openblas, octant, quadrant, whole_kernel


def symbol(mu, delta):
    # reference arithmetic for a single mode, written out independently
    return (mu - 1.0) / ((mu - 1.0) ** 2 + delta**2)


# ---------------------------------------------------------------- symbol


def test_single_mode_with_absorption():
    grid = build_grid(1, 16.0, 64)
    xi = np.pi * 3 / 16.0  # inside the sphere: negative symbol
    f = RealField(grid, np.sin(xi * grid.coordinate_axis))
    out = apply_multiplier_values(f, ResolventSpec(s=1.0, delta=0.3).symbol_values(grid))
    factor = symbol(xi * xi, 0.3)
    assert factor < 0
    assert np.allclose(out.values, factor * f.values, atol=1e-12)


def test_fractional_order_enters_through_mu():
    grid = build_grid(1, 16.0, 64)
    xi = np.pi * 8 / 16.0
    f = RealField(grid, np.cos(xi * grid.coordinate_axis))
    s = 0.8
    out = apply_multiplier_values(f, ResolventSpec(s=s, delta=0.1).symbol_values(grid))
    assert np.allclose(out.values, symbol(xi ** (2 * s), 0.1) * f.values, atol=1e-12)


def test_on_sphere_mode_is_annihilated_with_absorption():
    grid = build_grid(1, 4.0 * np.pi, 32)
    f = RealField(grid, np.cos(grid.coordinate_axis))  # xi = 1, mu = 1
    out = apply_multiplier_values(f, ResolventSpec(s=1.0, delta=0.1).symbol_values(grid))
    assert np.max(np.abs(out.values)) <= 1e-12


def test_symbol_sign_and_bound():
    grid = build_grid(2, 16.0, 64)
    delta = 0.2
    values = ResolventSpec(s=1.0, delta=delta).symbol_values(grid)
    mu = half_norm(grid) ** 2
    assert np.all(values[mu < 1.0] < 0.0)
    assert np.all(values[mu > 1.0] > 0.0)
    assert np.max(np.abs(values)) <= 1.0 / (2.0 * delta) * (1.0 + 1e-12)


def test_absorption_converges_at_second_order():
    # for a fixed off-sphere mode the output differs from the delta = 0
    # limit by O(delta^2): successive difference ratios approach 1/4
    grid = build_grid(1, 16.0, 64)
    xi = np.pi * 10 / 16.0
    f = RealField(grid, np.cos(xi * grid.coordinate_axis))
    norm2 = inner_product(f, f)

    def amplitude(delta):
        out = apply_multiplier_values(f, ResolventSpec(s=1.0, delta=delta).symbol_values(grid))
        return inner_product(out, f) / norm2

    deltas = [0.4, 0.2, 0.1, 0.05]
    amps = [amplitude(d) for d in deltas]
    diffs = [a - b for a, b in zip(amps, amps[1:])]
    for d1, d2 in zip(diffs, diffs[1:]):
        assert d2 / d1 == pytest.approx(0.25, rel=0.2)


def test_resolvent_is_self_adjoint():
    grid = build_grid(2, 16.0, 32)
    spec = ResolventSpec(s=1.0, delta=auto_delta(grid, 1.0))
    values = spec.symbol_values(grid)
    gen = np.random.default_rng(42)
    for _ in range(20):
        u = RealField(grid, gen.standard_normal(grid.shape))
        v = RealField(grid, gen.standard_normal(grid.shape))
        lhs = inner_product(u, apply_multiplier_values(v, values))
        rhs = inner_product(apply_multiplier_values(u, values), v)
        assert abs(lhs - rhs) <= 1e-10 * lq_norm(u, 2) * lq_norm(v, 2)


def test_resolvent_linearity():
    grid = build_grid(2, 16.0, 32)
    spec = ResolventSpec(s=1.0, delta=0.2)
    gen = np.random.default_rng(7)
    f = RealField(grid, gen.standard_normal(grid.shape))
    g = RealField(grid, gen.standard_normal(grid.shape))
    values = spec.symbol_values(grid)
    lhs = apply_multiplier_values(2.0 * f - 3.0 * g, values)
    rhs = 2.0 * apply_multiplier_values(f, values) - 3.0 * apply_multiplier_values(g, values)
    assert np.max(np.abs(lhs.values - rhs.values)) <= 1e-12 * np.max(np.abs(lhs.values))


@pytest.mark.parametrize(
    "dim,half_width,n,s",
    [pytest.param(3, 16.0, 32, s, id=str(s)) for s in (0.9, 1.0, 1.25)]
    + [
        pytest.param(dim, half_width, n, s, id=f"{dim}D-{half_width}-{n}-{s}")
        for dim, half_width, n in [(1, 16.0, 64), (2, 16.0, 64), (3, 10.0, 48)]
        for s in (0.9, 1.0, 1.25)
    ],
)
def test_symbol_values_equal_the_formula_bit_for_bit(dim, half_width, n, s):
    # the in-place steps are the formula's operations in the formula's order,
    # on the half spectrum's |xi| summed as the full mesh sums it
    grid = build_grid(dim, half_width, n)
    delta = auto_delta(grid, s)
    mu = half_norm(grid) ** (2.0 * s)
    want = (mu - 1.0) / ((mu - 1.0) ** 2 + delta * delta)
    spec = ResolventSpec(s=s, delta=delta)
    assert np.array_equal(spec.symbol_values(grid), want)
    # band_decompose's evaluation on the quadrant slabs is the same formula
    slabs = [spec._symbol(norm) for norm in grid.quadrant_slabs()]
    assert np.array_equal(np.concatenate(slabs, axis=min(dim - 1, 1)), quadrant(want))


def test_spec_validation():
    # the resolvent is always the limiting-absorption one: delta > 0, with no default
    for s, delta in [(0.0, 0.1), (1.0, -0.1), (1.0, 0.0), (1.0, -1.0)]:
        with pytest.raises(ValueError):
            ResolventSpec(s=s, delta=delta)
    with pytest.raises(TypeError):
        ResolventSpec(s=1.0)


def test_auto_delta_frozen_values():
    # four times the median gap of |xi|^(2s) values near the unit sphere
    assert auto_delta(build_grid(2, 16.0, 128), 1.0) == pytest.approx(0.30842513753404255, rel=1e-12)
    assert auto_delta(build_grid(3, 32.0, 64), 1.0) == pytest.approx(0.038553142191755096, rel=1e-12)


@pytest.mark.parametrize("s", [0.9, 1.0, 1.25])
def test_auto_delta_on_the_quadrant_is_the_half_spectrum_value(s):
    # |xi| is bitwise even in each axis, so the quadrant holds every distinct
    # |xi|^(2s) of the half spectrum
    grids = (build_grid(1, 16.0, 64), build_grid(2, 16.0, 128), build_grid(3, 32.0, 64), build_grid(3, 10.0, 48))
    for grid in grids:
        delta = auto_delta(grid, s)
        mu = np.unique(half_norm(grid) ** (2.0 * s))
        window = mu[(mu > 0.5) & (mu < 1.5)]
        gaps = np.diff(window)
        assert delta == 4.0 * float(np.median(gaps[gaps > 1e-12]))


@pytest.mark.parametrize("dim,n", [(2, 64), (3, 32)])
def test_symbol_and_auto_delta_cache_nothing_quadrant_sized(dim, n):
    # |xi| is made where each is evaluated, and only 1D axes stay on the grid
    grid = build_grid(dim, 16.0, n)
    ResolventSpec(s=1.0, delta=auto_delta(grid, 1.0)).symbol_values(grid)
    assert all(np.size(value) <= n for value in vars(grid).values())


def test_symbol_values_hold_two_half_spectrum_arrays():
    # |xi| is symbol_values' own array, so its power is taken in place: the
    # peak is that array and the denominator, plus the open-axis sums before
    # them, (n, 1, 1) and (n, n, 1); a fresh power array would be a third
    n = 64
    grid = build_grid(3, 16.0, n)
    spec = ResolventSpec(s=1.0, delta=0.1)
    half_bytes = 8 * n * n * (n // 2 + 1)
    tracemalloc.start()
    try:
        values = spec.symbol_values(grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert values.nbytes == half_bytes
    assert peak <= 2 * half_bytes + 8 * (n + n * n)


def test_auto_delta_holds_only_the_values_its_windows_read():
    # Counted in slabs of (n/2+1)^2 values and in the c values of |xi|^(2s)
    # in (0, 4), which are all the windows read. The slab loop holds the
    # slab it filters while the next is summed and rooted, with numpy's
    # temporaries about 4.4 slabs; 6 are allowed. The values kept from each
    # slab, their concatenation and one window cut of it are 3 c values.
    # One quadrant of values is 33 slabs at n = 64.
    n, s = 64, 1.0
    grid = build_grid(3, 32.0, n)
    auto_delta(build_grid(3, 32.0, 16), s)  # the code paths, run on a smaller grid
    powers = (norm ** (2.0 * s) for norm in grid.quadrant_slabs())
    count = sum(np.count_nonzero((mu > 0.0) & (mu < 4.0)) for mu in powers)
    slab_bytes = 8 * (n // 2 + 1) ** 2
    tracemalloc.start()
    try:
        delta = auto_delta(grid, s)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert delta == pytest.approx(0.038553142191755096, rel=1e-12)
    assert peak <= 6 * slab_bytes + 3 * 8 * count


def test_auto_delta_without_a_gap_above_the_floor_is_an_error():
    # two distinct values near the sphere, 1e-13 apart: no gap counts, so there
    # is no median to take; the command-line runs report it as a config error
    crowded = types.SimpleNamespace(quadrant_slabs=lambda: [np.sqrt(np.array([0.0, 1.0, 1.0 + 1e-13]))])
    with pytest.raises(ValueError, match="exceeds 1e-12"):
        auto_delta(crowded, 1.0)
    with pytest.raises(ConfigError) as err:
        make_spec(RunConfig(), crowded)
    assert err.value.field == "model.delta"


def test_auto_delta_shrinks_with_box_size():
    # wavenumber spacing on the torus is pi/L: only a bigger box refines
    # the sphere neighborhood, adding points does not
    small = auto_delta(build_grid(2, 16.0, 128), 1.0)
    large = auto_delta(build_grid(2, 32.0, 128), 1.0)
    assert large < small
    assert auto_delta(build_grid(2, 16.0, 64), 1.0) == pytest.approx(small, rel=1e-12)


# ---------------------------------------------------------------- kernel


def test_kernel_requires_absorption():
    # a delta = 0 resolvent never reaches kernel extraction: the spec rejects it
    grid = build_grid(1, 16.0, 64)
    with pytest.raises(ValueError):
        band_decompose(ResolventSpec(s=1.0, delta=0.0), grid)


def test_kernel_is_even():
    # exactly, axis by axis: the kernel is the mirror of its octant
    for dim, n in [(1, 64), (2, 32), (3, 16)]:
        grid = build_grid(dim, 16.0, n)
        k = mirror(grid, whole_kernel(grid, ResolventSpec(s=1.0, delta=0.2)._symbol))
        for axis in range(dim):
            # x_i -> -x_i is a flip plus a one-cell roll (the -L node has no mirror)
            assert np.array_equal(k, np.roll(np.flip(k, axis=axis), 1, axis=axis))


def test_kernel_reproduces_resolvent_by_convolution():
    grid = build_grid(1, 16.0, 32)
    spec = ResolventSpec(s=1.0, delta=0.3)
    kernel = mirror(grid, whole_kernel(grid, spec._symbol))
    f = np.random.default_rng(3).standard_normal(32)
    direct = apply_multiplier_values(RealField(grid, f), spec.symbol_values(grid)).values
    n = 32
    origin = n // 2
    conv = np.zeros(n)
    for i in range(n):
        # quadrature circular convolution against the kernel
        conv[i] = grid.spacing * sum(
            kernel[(origin + i - j) % n] * f[j] for j in range(n)
        )
    assert np.allclose(direct, conv, atol=1e-10 * np.max(np.abs(direct)))


def test_unit_symbol_kernel_is_discrete_delta():
    grid = build_grid(2, 16.0, 16)
    kernel = mirror(grid, whole_kernel(grid, np.ones_like))
    expected = np.zeros(grid.shape)
    expected[grid.origin_index] = 1.0 / grid.cell_volume
    assert np.allclose(kernel, expected, atol=1e-10)


# ---------------------------------------------------------------- band split


def test_smoothstep_endpoints_and_monotonicity():
    t = np.linspace(-0.5, 1.5, 201)
    y = exp_smoothstep(t)
    assert np.all(y[t <= 0.0] == 1.0)
    assert np.all(y[t >= 1.0] == 0.0)
    assert exp_smoothstep(np.array([0.5]))[0] == pytest.approx(0.5)
    assert np.all(np.diff(y) <= 1e-15)


def clipped_smoothstep(t):
    # the formula on t clipped to [0, 1], exponentials at every node
    t = np.clip(np.asarray(t, dtype=float), 0.0, 1.0)

    def f(u):
        out = np.zeros_like(u)
        pos = u > 0
        out[pos] = np.exp(-1.0 / u[pos])
        return out

    fa = f(1.0 - t)
    return fa / (fa + f(t))


def test_smoothstep_equals_the_clipped_formula():
    t = np.arange(-1000, 3001) / 2000.0  # holds 0 and 1 exactly
    t = np.concatenate([t, [1e-300, np.nextafter(1.0, 0.0), -np.inf, np.inf]])
    assert np.array_equal(exp_smoothstep(t), clipped_smoothstep(t))
    square = t[:4000].reshape(40, 100)
    assert np.array_equal(exp_smoothstep(square), clipped_smoothstep(square))
    for scalar in (-0.5, 0.0, 0.25, 1.0, 2.0):
        assert exp_smoothstep(scalar) == clipped_smoothstep(scalar)


def test_band_cutoff_plateau_and_support():
    r = np.array([0.9, 1.0, 1.1, 1.3, 0.7, 2.0])
    vals = resolvent._band_cutoff(r)
    assert vals[0] == 1.0 and vals[1] == 1.0 and vals[2] == 1.0  # inside plateau 1/6
    assert vals[3] == 0.0 and vals[4] == 0.0 and vals[5] == 0.0  # beyond support 1/4


def test_band_split_adds_back_to_kernel():
    # against the kernel made on its own: band_decompose never forms K
    grid = build_grid(2, 16.0, 32)
    spec = ResolventSpec(s=1.0, delta=0.2)
    bundle = band_decompose(spec, grid)
    kernel = mirror(grid, whole_kernel(grid, spec._symbol))
    total = mirror(grid, bundle.band.values) + mirror(grid, bundle.remainder.values)
    assert np.allclose(total, kernel, atol=1e-13 * np.max(np.abs(kernel)))


def test_band_part_is_spectrally_confined():
    grid = build_grid(2, 16.0, 32)
    spec = ResolventSpec(s=1.0, delta=0.2)
    bundle = band_decompose(spec, grid)
    # compared on the half spectrum
    norm = half_norm(grid)
    spectrum = forward_transform(RealField(grid, mirror(grid, bundle.band.values))).coeffs[..., : grid.points_per_axis // 2 + 1]
    kernel = mirror(grid, whole_kernel(grid, spec._symbol))
    full = forward_transform(RealField(grid, kernel)).coeffs[..., : grid.points_per_axis // 2 + 1]
    off_band = np.abs(norm - 1.0) >= 0.25
    plateau = np.abs(norm - 1.0) <= 1.0 / 6.0
    scale = np.max(np.abs(full))
    assert np.max(np.abs(spectrum[off_band])) <= 1e-13 * scale
    assert np.allclose(spectrum[plateau], full[plateau], atol=1e-12 * scale)


def full_quadrant_kernel(grid, values, absolute=False):
    # the cosine products with the whole quadrant multiplier contracted at
    # once; absolute: the same products of |values| and |cosines|, which give
    # each kernel entry's sum of |terms|
    n = grid.points_per_axis
    q = n // 2 + 1
    k = np.arange(q)
    weights = np.where((k == 0) | (k == n // 2), 1.0, 2.0) / (n * grid.spacing)
    kernel = np.abs(values) if absolute else values
    for a in octant(grid):
        cosines = np.cos(2.0 * np.pi * (np.multiply.outer(a, k) % n) / n) * weights
        kernel = kernel.reshape(q, -1).T @ (np.abs(cosines) if absolute else cosines).T
    return kernel.reshape((q,) * grid.dim)


def gamma(m):
    """gamma_m = m u / (1 - m u), u = eps/2: a product of m factors 1 + d_i, |d_i| <= u, lies within gamma_m of 1."""
    u = np.finfo(float).eps / 2.0
    return m * u / (1.0 - m * u)


def assert_band_kernels_within_roundoff(grid, band_values, remainder_values):
    # Each kernel entry is a sum over the quadrant of terms m(k) prod_i C_i(a_i, k_i),
    # formed by dim products whose sums have length_i terms. In any order and
    # blocking, each term of a product's sum passes through at most length_i
    # roundings, its multiply and length_i - 1 adds (fewer with FMA), so the
    # computed entry is within gamma_(length_0 + ... + length_(dim-1)) of the
    # exact sum, relative to its sum of |terms| (Higham, Accuracy and Stability
    # of Numerical Algorithms, 2nd ed., ch. 3). band_decompose
    # sums K1 over c = _band_corner wavenumbers per axis and the reference over
    # n/2 + 1, whose extra terms are exact zeros, and both sum K2 over n/2 + 1.
    # The sum of |terms|, computed in floats, is divided by 1 - gamma to cover
    # its own rounding.
    spec = ResolventSpec(s=1.0, delta=0.2)
    norm = quadrant(half_norm(grid))
    cutoff = resolvent._band_cutoff(norm)
    symbol = spec._symbol(norm)
    band = symbol * cutoff
    symbol -= band
    dim, q = grid.dim, grid.points_per_axis // 2 + 1
    for values, kernel, length in ((band, band_values, resolvent._band_corner(grid)), (symbol, remainder_values, q)):
        magnitude = full_quadrant_kernel(grid, values, absolute=True) / (1.0 - gamma(dim * q))
        bound = (gamma(dim * length) + gamma(dim * q)) * magnitude
        assert np.all(np.abs(kernel - full_quadrant_kernel(grid, values)) <= bound)


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("n", [16, 32, 64])
def test_band_decompose_equals_the_full_quadrant_formula_within_roundoff(dim, n):
    # the slab-fed symbol and first products, and K1's corner sums, give the
    # whole-quadrant formula's kernels to round-off; at L = 32, K1's corner is
    # all 9 wavenumbers per axis at n = 16 and 13 of 17 and of 33 above; rerun
    # with OPENBLAS_NUM_THREADS=1 in CI
    grid = build_grid(dim, 32.0, n)
    bundle = band_decompose(ResolventSpec(s=1.0, delta=0.2), grid)
    assert_band_kernels_within_roundoff(grid, bundle.band.values, bundle.remainder.values)


BAND_KERNELS_SCRIPT = """
import sys
import numpy as np
from helmlab import ResolventSpec, band_decompose, build_grid
for dim in (1, 2, 3):
    for n in (16, 32, 64):
        bundle = band_decompose(ResolventSpec(s=1.0, delta=0.2), build_grid(dim, 32.0, n))
        np.savez(f"{sys.argv[1]}/{dim}-{n}.npz", band=bundle.band.values, remainder=bundle.remainder.values)
"""


@pytest.mark.skipif(not numpy_runs_x86_openblas(), reason="OPENBLAS_CORETYPE selects OpenBLAS's x86-64 kernels")
@pytest.mark.parametrize("core", ["SkylakeX", "Sandybridge", "Cooperlake", "Haswell", "Zen", "Nehalem", "Prescott"])
def test_band_decompose_is_within_roundoff_under_each_openblas_kernel(tmp_path, core):
    # OpenBLAS picks its GEMM kernel from the CPU, and a product's rows may sum
    # in another order on another kernel, or in a call with fewer rows; the
    # kernels made in a process under each hold the same round-off bound
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, "-c", BAND_KERNELS_SCRIPT, str(tmp_path)],
        capture_output=True, text=True, timeout=120, env=dict(os.environ, PYTHONPATH=path, OPENBLAS_CORETYPE=core),
    )
    assert done.returncode == 0, done.stderr
    for dim, n in itertools.product((1, 2, 3), (16, 32, 64)):
        with np.load(tmp_path / f"{dim}-{n}.npz") as kernels:
            assert_band_kernels_within_roundoff(build_grid(dim, 32.0, n), kernels["band"], kernels["remainder"])


@pytest.mark.parametrize(
    "dim,half_width,n,corner",
    [(1, 32.0, 64, 13), (2, 32.0, 64, 13), (3, 32.0, 32, 13), (2, 8.0, 64, 4), (1, 32.0, 16, 9), (3, 32.0, 16, 9)],
)
def test_band_multiplier_is_zero_outside_its_corner(dim, half_width, n, corner):
    # K1's sums run only over the corner of wavenumber indices below
    # _band_corner, so m psi, here on the whole quadrant from the full mesh's
    # |xi|, must be exactly 0 at every node with an index at or past it; at
    # n = 16, pi/h < 5/4 and the corner is the whole quadrant
    grid = build_grid(dim, half_width, n)
    q = n // 2 + 1
    assert resolvent._band_corner(grid) == corner == np.count_nonzero(np.abs(grid.frequency_axis[:q]) < 1.25)
    norm = quadrant(half_norm(grid))
    band = resolvent._band_cutoff(norm) * ResolventSpec(s=1.0, delta=0.2)._symbol(norm.copy())
    outside = np.ones(band.shape, dtype=bool)
    outside[(slice(corner),) * dim] = False
    assert not np.any(band[outside])
    assert np.any(band[~outside])


@pytest.mark.parametrize("n", [32, 64])
def test_kernel_check_peak_memory(n):
    # Counted in Q, one float64 quadrant of (n/2+1)^3 values, and in slabs of
    # (n/2+1)^2 values, 1/(n/2+1) Q. |xi|, the symbol and the band cutoff are
    # made one slab at a time, and the first cosine product of each part runs
    # slab by slab into its intermediate: K2's of 1 Q, K1's of c^2 (n/2+1)
    # values on its corner of c = 13 wavenumbers per axis. K2's later products
    # run first, with K2's intermediate and its product held: 2 Q. Then K1's,
    # beside K2: its second intermediate of c slabs and its kernel, 2 Q + c
    # slabs, the peak. The three cosine matrices take a slab each, and the
    # envelopes hold only slabs. K1 summed over the whole quadrant, with its
    # chain first, took 3 Q, and a mirrored kernel-check about 24 Q.
    grid = build_grid(3, 32.0, n)
    quadrant_bytes = 8 * (n // 2 + 1) ** 3
    slab_bytes = 8 * (n // 2 + 1) ** 2
    corner = resolvent._band_corner(grid)
    assert corner == 13
    tracemalloc.start()
    try:
        bundle = band_decompose(ResolventSpec(s=1.0, delta=0.2), grid)
        radial_envelope(bundle.band, 12)
        radial_envelope(bundle.remainder, 12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # 16 KiB for the Python objects
    assert peak <= 2 * quadrant_bytes + (corner + 3) * slab_bytes + 16 * 1024


# ---------------------------------------------------------------- envelopes


def test_radial_envelope_constant_field():
    grid = build_grid(2, 16.0, 64)
    env = radial_envelope(EvenKernel(grid, np.ones((33, 33))), 8)
    centers = [c for c, _ in env]
    assert centers == pytest.approx([(i + 0.5) * 2.0 for i in range(8)])
    assert all(v == 1.0 for _, v in env)


def test_radial_envelope_ignores_origin_node():
    grid = build_grid(2, 16.0, 64)
    values = np.zeros((33, 33))
    values[0, 0] = 7.0  # offset 0: the origin node
    env = radial_envelope(EvenKernel(grid, values), 8)
    assert all(v == 0.0 for _, v in env)


def test_radial_envelope_drops_the_origin_node_off_the_dyadic_grid():
    # -L + h n/2 rounds to -8.9e-16 here, so the centre node's coordinate
    # radius is not 0; its squared offset S is
    grid = build_grid(3, 7.3, 48)
    assert grid.coordinate_axis[24] != 0.0
    values = np.zeros((25,) * 3)
    values[0, 0, 0] = 7.0
    env = radial_envelope(EvenKernel(grid, values), 24)
    assert all(v == 0.0 for _, v in env)


def masked_gather(grid, values, shells):
    # the octant mirrored to the full grid, the origin and the nodes past
    # half_width dropped by boolean masks, every node binned at its own
    # coordinate radius
    full = mirror(grid, values)
    width = grid.half_width / shells
    r = grid.radius
    idx = np.minimum((r / width).astype(int), shells - 1)
    mask = (r > 0.0) & (r <= grid.half_width)
    want = np.zeros(shells)
    np.maximum.at(want, idx[mask], np.abs(full)[mask])
    return want


def exact_envelope(grid, values, shells):
    # every octant offset a in plain Python ints: h|a| lies in shell j when
    # j width <= h|a|, that is (j n)^2 <= 4 shells^2 |a|^2 with h = 2L/n and
    # width = L/shells; the origin and |a| > n/2 are dropped
    n = grid.points_per_axis
    want = [0.0] * shells
    for a in itertools.product(range(n // 2 + 1), repeat=grid.dim):
        squared = sum(i * i for i in a)
        if squared == 0 or 4 * squared > n * n:
            continue
        j = min(max(j for j in range(shells + 1) if (j * n) ** 2 <= 4 * shells**2 * squared), shells - 1)
        want[j] = max(want[j], abs(float(values[a])))
    return want


@pytest.mark.parametrize("dim,n,shells", [(1, 64, 5), (2, 64, 8), (3, 32, 12)])
def test_radial_envelope_equals_the_masked_gather(dim, n, shells):
    grid = build_grid(dim, 16.0, n)
    values = np.random.default_rng(dim).standard_normal((n // 2 + 1,) * dim)
    values[(0,) * dim] = 100.0
    env = radial_envelope(EvenKernel(grid, values), shells)
    assert np.array_equal([v for _, v in env], masked_gather(grid, values, shells))


def test_radial_envelope_equals_the_masked_gather_off_the_dyadic_grid():
    # off a dyadic spacing a float radius, coordinate or offset distance, is
    # not h|a| exactly, and with shells one cell wide some nodes sit on a
    # shell edge: the envelope must bin them as exact integer arithmetic does
    for dim, half_width, n in [(1, 7.3, 40), (2, 16.0 / 3.0, 96), (3, 10.0, 48), (3, 7.3, 24)]:
        grid = build_grid(dim, half_width, n)
        values = np.random.default_rng(n).standard_normal((n // 2 + 1,) * dim)
        values[(0,) * dim] = 100.0
        env = radial_envelope(EvenKernel(grid, values), n // 2)
        assert [v for _, v in env] == exact_envelope(grid, values, n // 2)


def test_radial_envelope_fills_every_shell_one_cell_wide():
    # shells one node spacing wide: shell j holds the node at offset j, so
    # only shell 0 (the origin alone) is empty; a float shell index rounded
    # h a / width just below a and emptied shells 7 and 14 here
    grid = build_grid(1, 7.3, 40)
    bundle = band_decompose(ResolventSpec(s=1.0, delta=0.2), grid)
    for kernel in (bundle.band, bundle.remainder):
        env = radial_envelope(kernel, 20)
        assert env[0][1] == 0.0
        assert all(v > 0.0 for _, v in env[1:])


def test_radial_envelope_shell_count_floor():
    grid = build_grid(2, 16.0, 16)
    with pytest.raises(ValueError):
        radial_envelope(EvenKernel(grid, np.zeros((9, 9))), 3)


def test_fit_recovers_exact_power_law():
    envelope = [(r, 5.0 * r**-2.0) for r in np.linspace(1.0, 20.0, 15)]
    assert fit_decay_exponent(envelope, (1.0, 20.0)) == pytest.approx(-2.0, abs=1e-12)
    envelope = [(r, 0.3 * r**-0.5) for r in np.linspace(2.0, 30.0, 12)]
    assert fit_decay_exponent(envelope, (2.0, 30.0)) == pytest.approx(-0.5, abs=1e-12)


def test_fit_uses_only_window_points():
    inside = [(r, r**-3.0) for r in np.linspace(4.0, 10.0, 8)]
    outside = [(0.5, 99.0), (40.0, 99.0)]
    assert fit_decay_exponent(inside + outside, (4.0, 10.0)) == pytest.approx(-3.0, abs=1e-12)


def test_fit_requires_five_positive_points():
    envelope = [(1.0, 1.0), (2.0, 0.5), (3.0, 0.0), (4.0, 0.25), (5.0, 0.0)]
    with pytest.raises(InsufficientDataError):
        fit_decay_exponent(envelope, (1.0, 5.0))
    with pytest.raises(ValueError):
        fit_decay_exponent(envelope, (5.0, 1.0))


def test_grid_sampled_power_law_fit():
    grid = build_grid(2, 16.0, 128)
    r = grid.radius
    values = np.zeros(grid.shape)
    np.divide(1.0, (1.0 + r) ** 2, out=values)
    # the nodes n/2 ... 0 of each axis, at offsets 0 ... n/2
    env = radial_envelope(EvenKernel(grid, values[64::-1, 64::-1]), 16)
    slope = fit_decay_exponent(env, (4.0, 16.0))
    # (1+r)^-2 is not exactly r^-2 at these radii; stay loose
    assert slope == pytest.approx(-2.0, abs=0.15)


# ---------------------------------------------------------------- disjoint supports


def test_compact_bump_support_is_exact():
    grid = build_grid(2, 32.0, 64)
    bump = compact_bump(grid, (0.0, 0.0), 2.0)
    assert bump.block.shape == (3, 3)  # held on its box, not on the grid
    values = embed(bump)
    outside = grid.radius >= 2.0
    assert np.all(values[outside] == 0.0)
    assert values[grid.origin_index] == pytest.approx(np.exp(-1.0))
    with pytest.raises(ValueError):
        compact_bump(grid, (0.0, 0.0), 0.0)


@pytest.mark.parametrize("center,radius", [((0.5, 0.0), 0.4), ((0.0, 0.0), 1e-300)])
def test_bump_over_no_node_is_refused(center, radius):
    # between nodes at spacing 1, and a radius whose square underflows to 0
    grid = build_grid(2, 32.0, 64)
    with pytest.raises(ValueError, match="no grid node"):
        compact_bump(grid, center, radius)


def test_box_field_checks_its_box_and_block():
    grid = build_grid(2, 32.0, 64)
    box = (np.array([0, 1, 63]), np.array([5, 9]))
    assert BoxField(grid, box, np.ones((3, 2))).block.shape == (3, 2)
    bad_boxes = [
        (np.array([1, 0, 63]), box[1]),  # not increasing
        (np.array([0, 1, 64]), box[1]),  # past the grid
        box[:1],  # one axis short
        (np.array([0.0, 1.0, 63.0]), box[1]),  # not integers
    ]
    for bad_box in bad_boxes:
        with pytest.raises(ValueError, match="box"):
            BoxField(grid, bad_box, np.ones((3, 2)))
    with pytest.raises(ValueError, match="block shape"):
        BoxField(grid, box, np.ones((2, 3)))
    with pytest.raises(ValueError, match="finite"):
        BoxField(grid, box, np.full((3, 2), np.nan))


def test_disjoint_interaction_rejects_a_zero_field():
    grid = build_grid(2, 32.0, 64)
    spec = ResolventSpec(s=1.0, delta=0.1)
    u = compact_bump(grid, (0.0, 0.0), 2.0)
    v = compact_bump(grid, (8.0, 0.0), 2.0)
    with pytest.raises(ValueError, match="u has no nonzero node"):
        disjoint_interaction(BoxField(grid, u.box, np.zeros_like(u.block)), [(4.0, v)], spec, inner_radius=2.0)
    with pytest.raises(ValueError, match="v has no nonzero node"):
        disjoint_interaction(u, [(4.0, BoxField(grid, v.box, np.zeros_like(v.block)))], spec, inner_radius=2.0)


@pytest.mark.parametrize(
    "dim,center,wraps",
    [
        (1, (-31.9,), True),
        (2, (0.0, 0.0), False),
        (2, (0.3, -1.7), False),
        (2, (31.6, -31.9), True),
        (3, (-31.8, 0.25, -0.6), True),
    ],
)
def test_compact_bump_equals_the_full_grid_formula(dim, center, wraps):
    grid = build_grid(dim, 32.0, 64)
    radius = 2.0
    q2 = grid.periodic_distance2(center) / (radius * radius)
    want = np.zeros(grid.shape)
    inside = q2 < 1.0
    want[inside] = np.exp(-1.0 / (1.0 - q2[inside]))
    field = compact_bump(grid, center, radius)
    bump = embed(field)
    assert np.array_equal(bump, want)
    assert (np.any(bump[0] != 0.0) and np.any(bump[-1] != 0.0)) == wraps
    # a wrapped box holds both ends of the first axis, in increasing order
    assert (field.box[0][0] == 0 and field.box[0][-1] == 63) == wraps


def test_disjoint_interaction_matches_direct_pairing():
    grid = build_grid(2, 32.0, 64)
    spec = ResolventSpec(s=1.0, delta=0.1)
    u = compact_bump(grid, (0.0, 0.0), 2.0)
    v = compact_bump(grid, (8.0, 0.0), 2.0)
    (got,) = disjoint_interaction(u, [(4.0, v)], spec, inner_radius=2.0)
    full_u, full_v = RealField(grid, embed(u)), RealField(grid, embed(v))
    want = abs(inner_product(full_u, apply_multiplier_values(full_v, spec.symbol_values(grid))))
    assert got == pytest.approx(want, rel=1e-14)
    assert got > 0.0


def full_grid_pairings(u, outer, spec):
    # the pairing from full-grid fields: each nonzero box found on the whole
    # grid, v read off the grid
    grid = u.grid

    def nonzero_box(values):
        axes = range(grid.dim)
        return [np.flatnonzero((values != 0.0).any(axis=tuple(a for a in axes if a != k))) for k in axes]

    full_u = embed(u)
    source = nonzero_box(full_u)
    fulls = [embed(v) for _, v in outer]
    target = [np.zeros(0, dtype=int)] * grid.dim
    for v in fulls:
        target = [np.union1d(t, b) for t, b in zip(target, nonzero_box(v))]
    resolved = resolvent._resolve_between(grid, spec._symbol, full_u[np.ix_(*source)], source, target)
    return [abs(float(grid.cell_volume * np.sum(resolved * v[np.ix_(*target)]))) for v in fulls]


@pytest.mark.parametrize("dim,n", [(2, 64), (3, 32)])
def test_disjoint_interaction_equals_the_full_grid_pairing(dim, n):
    # box-held bumps, one of them wrapping the periodic edge, pair exactly as
    # the same bumps held on the whole grid
    grid = build_grid(dim, 16.0, n)
    spec = ResolventSpec(s=1.0, delta=0.2)
    radius = 1.5
    inner = compact_bump(grid, (0.0,) * dim, radius)
    centers = [(5.0,) + (0.5,) * (dim - 1), (-7.0,) + (0.0,) * (dim - 1), (15.5,) + (-15.0,) * (dim - 1)]
    outer = [(2.0, compact_bump(grid, c, radius)) for c in centers]
    assert outer[2][1].box[0][0] == 0 and outer[2][1].box[0][-1] == n - 1  # wraps
    got = disjoint_interaction(inner, outer, spec, inner_radius=radius)
    assert got == full_grid_pairings(inner, outer, spec)
    assert all(g > 0.0 for g in got)


def test_disjoint_interaction_rejects_overlap():
    grid = build_grid(2, 32.0, 64)
    spec = ResolventSpec(s=1.0, delta=0.1)
    u = compact_bump(grid, (0.0, 0.0), 2.0)
    near = compact_bump(grid, (3.0, 0.0), 2.0)  # leaks inside radius 2 + gap
    with pytest.raises(NumericalError, match="inside the ball"):
        disjoint_interaction(u, [(4.0, near)], spec, inner_radius=2.0)
    wide = compact_bump(grid, (0.0, 0.0), 5.0)  # u escapes its own ball
    far = compact_bump(grid, (12.0, 0.0), 2.0)
    with pytest.raises(NumericalError, match="outside the ball"):
        disjoint_interaction(wide, [(4.0, far)], spec, inner_radius=2.0)


def with_stray_node(field, node, value):
    # the field on its box plus one more index per axis, zero on the gap between, `value` at `node`
    box = [np.union1d(b, [i]) for b, i in zip(field.box, node)]
    block = np.zeros(tuple(len(b) for b in box))
    block[np.ix_(*(np.searchsorted(wide, b) for wide, b in zip(box, field.box)))] = field.block
    block[tuple(np.searchsorted(wide, i) for wide, i in zip(box, node))] = value
    return BoxField(field.grid, box, block)


@pytest.mark.parametrize("stray", ["u", "v"])
def test_disjoint_interaction_checks_every_node(stray):
    # one node at 1e-10 of the max, far from both bumps and across a gap in
    # the box, still breaks the support
    grid = build_grid(3, 16.0, 32)
    spec = ResolventSpec(s=1.0, delta=0.2)
    u = compact_bump(grid, (0.0, 0.0, 0.0), 2.0)
    v = compact_bump(grid, (8.0, 0.0, 0.0), 2.0)
    if stray == "u":
        u = with_stray_node(u, (31, 31, 31), 1e-10 * np.max(u.block))  # the far corner of the grid
    else:
        # inside radius 2 + 4, opposite v
        v = with_stray_node(v, grid.nearest_index((-3.0, -3.0, -3.0)), 1e-10 * np.max(v.block))
    assert any(np.any(np.diff(b) > 1) for b in (u.box if stray == "u" else v.box))  # the box has a gap
    with pytest.raises(NumericalError, match="the ball of radius"):
        disjoint_interaction(u, [(4.0, v)], spec, inner_radius=2.0)


def test_disjoint_interaction_peak_memory():
    # Counted in Q, one float64 quadrant of (n/2+1)^3 values, once the code
    # paths have run on a smaller grid, with the bumps built inside the
    # window. Each bump is held on its box of 3^3 nodes. The kernel's cosine
    # sums take first an axis with the fewest distinct offsets between the
    # boxes, 3 (axis 0 has 11), so the first product fills an intermediate
    # of (n/2+1)^2 rows by 3, 3/33 Q; |xi|, the symbol
    # and its temporaries take a few slabs of (n/2+1)^2 values, 1/33 Q each,
    # and the later products and partial sums far less. A full-grid bump is
    # 7.3 Q and the whole-quadrant symbol 1 Q; the bound is 3/4 Q.
    def bumps(grid):
        inner = compact_bump(grid, (0.0, 0.0, 0.0), 2.0)
        return inner, [(g, compact_bump(grid, (4.0 + g + grid.spacing, 0.0, 0.0), 2.0)) for g in (2.0, 4.0, 8.0)]

    spec = ResolventSpec(s=1.0, delta=0.2)
    disjoint_interaction(*bumps(build_grid(3, 32.0, 32)), spec, inner_radius=2.0)
    grid = build_grid(3, 32.0, 64)
    tracemalloc.start()
    try:
        inner, outer = bumps(grid)
        values = disjoint_interaction(inner, outer, spec, inner_radius=2.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(v > 0.0 for v in values)
    assert inner.block.shape == (3, 3, 3)
    assert peak <= 0.75 * 8 * 33**3


@pytest.mark.parametrize("dim,n", [(1, 64), (2, 32), (3, 16)])
def test_box_convolution_matches_the_full_pair_on_the_target_box(dim, n):
    # boxes that wrap the periodic edge and have gaps; values on every Nyquist
    # plane, and a kernel that reaches every offset
    grid = build_grid(dim, 16.0, n)
    h = grid.spacing

    def radial(norm):
        return 1.0 / (1.0 + norm * norm) + 0.25 * np.cos(h * norm)

    m = multiplier_values(grid, lambda *a: radial(np.sqrt(sum(x * x for x in a))))
    assert np.all(m[..., -1] != 0.0) and np.all(m[n // 2] != 0.0)
    source = [np.array([0, 1, 2, n - 2, n - 1]), np.array([3, 5, 6, 10]), np.arange(n // 2 - 2, n // 2 + 3)]
    target = [np.array([1, 4, 7, n - 1]), np.array([0, 1, n - 3]), np.arange(n // 4, 3 * n // 4)]
    for shift in range(dim):
        src = [source[(k + shift) % 3] for k in range(dim)]
        tgt = [target[(k + shift) % 3] for k in range(dim)]
        block = np.random.default_rng(40 + dim + shift).standard_normal(tuple(len(i) for i in src))
        values = np.zeros(grid.shape)
        values[np.ix_(*src)] = block
        reference = apply_multiplier_values(RealField(grid, values), m).values[np.ix_(*tgt)]
        before = block.copy()
        boxed = resolvent._resolve_between(grid, radial, block, src, tgt)
        assert np.array_equal(block, before)
        assert boxed.shape == reference.shape
        assert np.max(np.abs(boxed - reference)) <= 1e-12 * np.max(np.abs(reference))


def test_disjoint_interaction_gap_floor():
    grid = build_grid(2, 32.0, 64)
    u = compact_bump(grid, (0.0, 0.0), 2.0)
    v = compact_bump(grid, (8.0, 0.0), 2.0)
    with pytest.raises(ValueError):
        disjoint_interaction(u, [(0.5, v)], ResolventSpec(s=1.0, delta=0.1), inner_radius=2.0)
