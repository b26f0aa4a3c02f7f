"""Peak tracking, profile comparison, sweeps and level tables."""
import itertools
import math

import numpy as np
import pytest

from helmlab import concentration
from helmlab.coefficients import BumpOnBackgroundQ, ConstantQ, sample_Q
from helmlab.concentration import (
    SweepRecord,
    level_table,
    profile_distance,
    run_sweep,
    single_bubble_check,
    single_bubble_fraction,
)
from helmlab.dual import DualState, GroundState, diagnose, solve_ground_state
from helmlab.errors import ZeroFieldError
from helmlab.grid import RealField, build_grid, locate_peak, lq_norm

from conftest import STANDARD_LEVEL, rng


# ---------------------------------------------------------------- locate_peak


def test_peak_on_node_is_exact(grid2d):
    # symmetric bump centered on a node: left/right neighbors tie, no offset
    center = (2.0, -3.25)
    field = RealField(grid2d, np.exp(-grid2d.periodic_distance2(center)))
    assert locate_peak(field) == pytest.approx(center, abs=1e-14)


def test_peak_subcell_refinement(grid2d):
    # off-node Gaussian; the parabolic fit should land well under a cell
    xx, yy = grid2d.coordinate_mesh
    center = (0.1037, -0.23)
    vals = np.exp(-((xx - center[0]) ** 2 + (yy - center[1]) ** 2) / (2.0 * 1.5**2))
    found = locate_peak(RealField(grid2d, vals))
    for a, b in zip(found, center):
        assert abs(a - b) < 0.02 * grid2d.spacing


def test_peak_uses_magnitude(grid2d):
    field = RealField(grid2d, -np.exp(-grid2d.periodic_distance2((1.0, 1.0))))
    assert locate_peak(field) == pytest.approx((1.0, 1.0), abs=1e-14)


def test_peak_tie_breaks_to_first_node(grid2d):
    # a constant field has no curvature anywhere; argmax picks the first
    # entry in C order, which sits at the lower box corner
    flat = RealField(grid2d, np.ones(grid2d.shape))
    assert locate_peak(flat) == (-16.0, -16.0)


def test_peak_of_zero_field_rejected(grid2d):
    with pytest.raises(ZeroFieldError):
        locate_peak(RealField.zeros(grid2d))


# ----------------------------------------------------------- profile_distance


def test_distance_to_self_is_zero(limit2d):
    u = limit2d.u_rescaled
    assert profile_distance(u, u) == 0.0


def test_distance_mods_out_translation(limit2d):
    # a pure grid shift is found exactly by the alignment search
    u = limit2d.u_rescaled
    moved = RealField(u.grid, np.roll(u.values, (7, -3), axis=(0, 1)))
    assert profile_distance(moved, u) <= 1e-12


def test_distance_sees_perturbations(limit2d):
    u = limit2d.u_rescaled
    noise = rng(7).standard_normal(u.grid.shape)
    noise *= 0.07 * lq_norm(u, 2.0) / lq_norm(RealField(u.grid, noise), 2.0)
    dist = profile_distance(RealField(u.grid, u.values + noise), u)
    # zero shift is optimal, so the distance is the injected noise level
    assert dist == pytest.approx(0.07, rel=0.2)


def _rolled_distance(field, reference, q):
    # the definition: roll the field for each of the 5^dim shifts around the
    # argmax alignment and take the smallest relative L^q distance
    grid = field.grid
    f_node = np.unravel_index(int(np.argmax(np.abs(field.values))), grid.shape)
    r_node = np.unravel_index(int(np.argmax(np.abs(reference.values))), grid.shape)
    axes = tuple(range(grid.dim))
    dists = []
    for extra in itertools.product(range(-2, 3), repeat=grid.dim):
        shift = tuple(r - f + e for r, f, e in zip(r_node, f_node, extra))
        moved = RealField(grid, np.roll(field.values, shift, axis=axes))
        dists.append(lq_norm(moved - reference, q))
    return float(min(dists) / lq_norm(reference, q))


@pytest.mark.parametrize("q", [2.0, 5.0, math.inf])
@pytest.mark.parametrize(
    "dim, points, f_node, r_node",
    [
        (2, 12, (1, 10), (11, 0)),
        (2, 12, (0, 0), (6, 5)),
        (3, 8, (7, 1, 6), (0, 6, 1)),
        (3, 8, (4, 3, 0), (1, 7, 4)),
    ],
)
def test_distance_equals_the_rolled_definition(dim, points, f_node, r_node, q):
    # argmax nodes within two cells of the periodic edge make the windows wrap
    grid = build_grid(dim, 4.0, points)
    gen = rng(sum(f_node) + 31 * dim)
    field = gen.uniform(-1.0, 1.0, grid.shape)
    reference = np.roll(field, 3, axis=0) + 0.3 * gen.uniform(-1.0, 1.0, grid.shape)
    field[f_node], reference[r_node] = 4.0, -5.0
    field, reference = RealField(grid, field), RealField(grid, reference)
    assert profile_distance(field, reference, q) == _rolled_distance(field, reference, q)


def test_distance_grid_mismatch_rejected(limit2d):
    other = build_grid(2, 16.0, 64)
    with pytest.raises(ValueError):
        profile_distance(RealField(other, np.ones(other.shape)), limit2d.u_rescaled)


def test_distance_zero_reference_rejected(limit2d, grid2d):
    with pytest.raises(ZeroFieldError):
        profile_distance(limit2d.u_rescaled, RealField.zeros(grid2d))


# ------------------------------------------------------- single-bubble checks


def _fake_ground_state(field, Qfield, exps, spec, peak):
    return GroundState(
        state=diagnose(field, Qfield, exps, spec),
        u_rescaled=field,
        peak=peak,
        exps=exps,
        iterations=0,
        converged=False,
        fixed_point_residual=1.0,
    )


def test_ground_state_is_one_bubble(limit2d):
    assert single_bubble_fraction(limit2d) > 0.99


def test_two_bumps_split_the_mass(grid2d, unitQ, exps2d, spec2d):
    vals = np.exp(-grid2d.periodic_distance2((-8.0, -8.0)) / 2.0)
    vals += np.exp(-grid2d.periodic_distance2((8.0, 8.0)) / 2.0)
    gs = _fake_ground_state(RealField(grid2d, vals), unitQ, exps2d, spec2d, (-8.0, -8.0))
    frac = single_bubble_fraction(gs)
    assert frac == pytest.approx(0.5, abs=0.01)
    record = SweepRecord(
        k=1.0,
        eps=1.0,
        level=gs.level,
        peak_rescaled=(-8.0, -8.0),
        peak_physical=(-8.0, -8.0),
        profile_distance=0.0,
        iterations=0,
        converged=False,
        state=gs,
    )
    assert not single_bubble_check(record)


def test_bubble_fraction_respects_center_override(grid2d, unitQ, exps2d, spec2d):
    vals = np.exp(-grid2d.periodic_distance2((5.0, 0.0)) / 2.0)
    gs = _fake_ground_state(RealField(grid2d, vals), unitQ, exps2d, spec2d, (5.0, 0.0))
    assert single_bubble_fraction(gs) > 0.99


def test_bubble_fraction_zero_state_rejected(grid2d, unitQ, exps2d, spec2d):
    gs = GroundState(
        state=DualState(RealField.zeros(grid2d), 0.0, 0.0, 0.0, 0.0),
        u_rescaled=RealField.zeros(grid2d),
        peak=(0.0, 0.0),
        exps=exps2d,
        iterations=0,
        converged=False,
        fixed_point_residual=0.0,
    )
    with pytest.raises(ZeroFieldError):
        single_bubble_fraction(gs)


# -------------------------------------------------------------------- sweeps


def test_constant_sweep_reproduces_the_limit(grid2d, exps2d, spec2d, limit2d):
    # rescaling a constant coefficient changes nothing, so every step of
    # the sweep solves the very same problem as the limit state
    records = run_sweep(ConstantQ(1.0), [2.0, 4.0], exps2d, grid2d, spec=spec2d, limit=limit2d)
    assert [r.k for r in records] == [2.0, 4.0]
    for record in records:
        assert record.converged
        assert record.eps == 1.0 / record.k
        assert record.level == pytest.approx(STANDARD_LEVEL, rel=1e-9)
        assert record.profile_distance <= 1e-6
        assert record.peak_physical == tuple(record.eps * c for c in record.peak_rescaled)
        assert single_bubble_check(record)
    # the second step warm-starts from the first and should barely move
    assert records[0].iterations > 1
    assert records[1].iterations <= 2


def test_cold_sweep_matches_warm_sweep_levels(grid2d, exps2d, spec2d, limit2d):
    warm = run_sweep(ConstantQ(1.0), [2.0, 4.0], exps2d, grid2d, spec=spec2d, limit=limit2d)
    for w in warm:
        Qfield = sample_Q(ConstantQ(1.0), grid2d, w.eps)
        cold = solve_ground_state(Qfield, exps2d.with_k(w.k), spec2d)
        assert cold.level == pytest.approx(w.level, rel=1e-9)
        assert cold.iterations > 1  # no warm start available


def test_sweep_needs_wavenumbers(grid2d, exps2d, spec2d):
    with pytest.raises(ValueError):
        run_sweep(ConstantQ(1.0), [], exps2d, grid2d, spec=spec2d)


# -------------------------------------------------------------- level tables


def test_constant_level_table_has_zero_gaps(grid2d, exps2d, spec2d):
    table = level_table(ConstantQ(1.0), [0.5], exps2d, grid2d, spec=spec2d)
    assert table.peak_converged and table.background_converged
    # sup and background coincide, so both pinching gaps collapse
    assert table.peak_level == pytest.approx(STANDARD_LEVEL, rel=1e-9)
    assert table.background_level == table.peak_level
    (row,) = table.rows
    assert row.converged
    assert row.eps == 0.5
    assert abs(row.gap_low) <= 1e-9 * table.peak_level
    assert abs(row.gap_high) <= 1e-9 * table.peak_level


def test_level_table_scales_the_background_limit(monkeypatch, grid2d, exps2d, spec2d):
    # c_inf comes from c_0 by the exact constant-coefficient scaling, so
    # one limit solve serves both and c_inf still matches a direct solve
    solved = []
    original = concentration.limit_ground_state

    def counted(value, *args, **kwargs):
        solved.append(value)
        return original(value, *args, **kwargs)

    monkeypatch.setattr(concentration, "limit_ground_state", counted)
    Q = BumpOnBackgroundQ(background=0.5, amplitude=1.0, width=1.0)
    table = level_table(Q, [0.5], exps2d, grid2d, spec=spec2d)
    assert solved == [Q.sup_value]
    assert table.peak_converged and table.background_converged
    direct = original(Q.background_value, grid2d, exps2d, spec2d)
    assert table.background_level == pytest.approx(direct.level, rel=1e-10)


def test_level_table_rejects_zero_background(grid2d, exps2d, spec2d):
    flat_bottom = BumpOnBackgroundQ(background=0.0, amplitude=1.0, width=1.0)
    with pytest.raises(ValueError):
        level_table(flat_bottom, [0.5], exps2d, grid2d, spec=spec2d)


def test_off_origin_level_table_matches_the_sweep(grid2d, exps2d, spec2d):
    # each row warm-starts from the last bubble rolled onto the new maximum
    # of Q, as a sweep step does; left where it was, the rows at eps = 1/4
    # and 1/8 ran to max_iter for this centre
    Q = BumpOnBackgroundQ(background=0.5, amplitude=1.0, width=1.0, centers=((0.25, 0.125),))
    table = level_table(Q, [0.5, 0.25, 0.125], exps2d, grid2d, spec=spec2d)
    records = run_sweep(Q, [2.0, 4.0, 8.0], exps2d, grid2d, spec=spec2d)
    for row, record in zip(table.rows, records):
        assert row.converged and record.converged
        assert row.eps == record.eps
        assert row.level == pytest.approx(record.level, rel=1e-9)
