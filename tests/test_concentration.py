"""Peak tracking, profile comparison, sweeps and level tables."""
import csv
import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from helmlab import concentration, dual
from helmlab.cli import main
from helmlab.coefficients import BumpOnBackgroundQ, ConstantQ, max_node, sample_Q
from helmlab.concentration import (
    SweepRecord,
    level_table,
    profile_distance,
    run_sweep,
    single_bubble_check,
    single_bubble_fraction,
)
from helmlab.config import make_coefficient, make_exponents, make_grid, make_spec, parse_config_text
from helmlab.dual import DualState, GroundState, diagnose, limit_ground_state, solve_ground_state
from helmlab.errors import NumericalError
from helmlab.grid import RealField, build_grid, locate_peak, lq_norm, peak_node
from helmlab.params import Exponents
from helmlab.resolvent import ResolventSpec, auto_delta

from conftest import STANDARD_LEVEL, readme_config, rng


# ---------------------------------------------------------------- locate_peak


def test_peak_on_node_is_exact(grid2d):
    # symmetric bump centered on a node: left/right neighbors tie, no offset
    center = (2.0, -3.25)
    field = RealField(grid2d, np.exp(-grid2d.periodic_distance2(center)))
    assert locate_peak(field) == pytest.approx(center, abs=1e-14)


def test_peak_subcell_refinement(grid2d):
    # off-node Gaussian; the parabolic fit should land well under a cell
    xx, yy = np.meshgrid(grid2d.coordinate_axis, grid2d.coordinate_axis, indexing="ij")
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
    with pytest.raises(NumericalError, match="identically zero field"):
        locate_peak(RealField.zeros(grid2d))


# ----------------------------------------------------------- profile_distance


def test_distance_to_self_is_zero(limit2d):
    u = limit2d.u_rescaled
    assert profile_distance(u, u) == 0.0


def test_distance_mods_out_translation(limit2d):
    # a pure grid shift is undone exactly by the peak alignment
    u = limit2d.u_rescaled
    moved = RealField(u.grid, np.roll(u.values, (7, -3), axis=(0, 1)))
    assert profile_distance(moved, u) <= 1e-12


def test_distance_sees_perturbations(limit2d):
    u = limit2d.u_rescaled
    noise = rng(7).standard_normal(u.grid.shape)
    noise *= 0.07 * lq_norm(u, 2.0) / lq_norm(RealField(u.grid, noise), 2.0)
    dist = profile_distance(RealField(u.grid, u.values + noise), u)
    # the noise leaves the peak on its node, so the distance is the injected noise level
    assert dist == pytest.approx(0.07, rel=0.2)


def _argmax_node(field):
    return np.unravel_index(int(np.argmax(np.abs(field.values))), field.grid.shape)


def _rolled_distance(field, reference, q):
    # the definition: roll the field so its argmax node lands on the
    # reference's, then take the relative L^q distance
    shift = tuple(r - f for r, f in zip(_argmax_node(reference), _argmax_node(field)))
    moved = RealField(field.grid, np.roll(field.values, shift, axis=tuple(range(field.grid.dim))))
    return float(lq_norm(moved - reference, q) / lq_norm(reference, q))


def _searched_distance(field, reference, q):
    # the smallest relative L^q distance over the 5^dim shifts within two
    # cells of the argmax alignment, a search profile_distance does not make
    r_node, f_node = _argmax_node(reference), _argmax_node(field)
    axes = tuple(range(field.grid.dim))
    dists = []
    for extra in itertools.product(range(-2, 3), repeat=field.grid.dim):
        shift = tuple(r - f + e for r, f, e in zip(r_node, f_node, extra))
        dists.append(lq_norm(RealField(field.grid, np.roll(field.values, shift, axis=axes)) - reference, q))
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
    # argmax nodes at or next to the periodic edge make the roll wrap
    grid = build_grid(dim, 4.0, points)
    gen = rng(sum(f_node) + 31 * dim)
    field = gen.uniform(-1.0, 1.0, grid.shape)
    reference = np.roll(field, 3, axis=0) + 0.3 * gen.uniform(-1.0, 1.0, grid.shape)
    field[f_node], reference[r_node] = 4.0, -5.0
    field, reference = RealField(grid, field), RealField(grid, reference)
    assert profile_distance(field, reference, q) == _rolled_distance(field, reference, q)


def test_distance_grid_mismatch_rejected(limit2d):
    other = build_grid(2, 16.0, 64)
    with pytest.raises(NumericalError, match="different grids"):
        profile_distance(RealField(other, np.ones(other.shape)), limit2d.u_rescaled)


def test_distance_zero_reference_rejected(limit2d, grid2d):
    with pytest.raises(NumericalError, match="reference profile is identically zero"):
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
        state=DualState(RealField.zeros(grid2d), 0.0, 0.0, 0.0),
        u_rescaled=RealField.zeros(grid2d),
        peak=(0.0, 0.0),
        exps=exps2d,
        iterations=0,
        converged=False,
        fixed_point_residual=0.0,
    )
    with pytest.raises(NumericalError, match="zero dual mass"):
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
        # a constant coefficient has no maximum node to place a seed on, so
        # each step is the limit solve itself, bit for bit
        assert np.array_equal(record.state.v.values, limit2d.v.values)
        assert np.array_equal(record.state.u_rescaled.values, limit2d.u_rescaled.values)
        assert record.iterations == limit2d.iterations
        assert record.profile_distance == 0.0


def test_cold_sweep_matches_warm_sweep_levels(grid2d, exps2d, spec2d, limit2d):
    records = run_sweep(ConstantQ(1.0), [2.0, 4.0], exps2d, grid2d, spec=spec2d, limit=limit2d)
    for record in records:
        Qfield = sample_Q(ConstantQ(1.0), grid2d, record.eps)
        cold = solve_ground_state(Qfield, exps2d.with_k(record.k), spec2d)
        assert cold.level == pytest.approx(record.level, rel=1e-9)
        assert cold.iterations > 1  # no warm start available


@pytest.mark.parametrize("family", [run_sweep, level_table], ids=["run_sweep", "level_table"])
def test_sweep_needs_wavenumbers(monkeypatch, family, grid2d, exps2d, spec2d):
    # an empty family is refused before the limit solve, by both views alike
    solves = []
    monkeypatch.setattr(concentration, "solve_ground_state", lambda *a, **k: solves.append(a))
    with pytest.raises(ValueError, match="at least one wavenumber"):
        family(ConstantQ(1.0), [], exps2d, grid2d, spec=spec2d)
    assert solves == []


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
    # rows and sweep steps start alike, from the limit state rolled onto the
    # maximum node of Q at their eps, so the two families agree step by step
    Q = BumpOnBackgroundQ(background=0.5, amplitude=1.0, width=1.0, centers=((0.25, 0.125),))
    table = level_table(Q, [0.5, 0.25, 0.125], exps2d, grid2d, spec=spec2d)
    records = run_sweep(Q, [2.0, 4.0, 8.0], exps2d, grid2d, spec=spec2d)
    for row, record in zip(table.rows, records):
        assert row.converged and record.converged
        assert row.eps == record.eps
        assert row.level == pytest.approx(record.level, rel=1e-9)


# ------------------------------------------------------ limit-state seeding

OFF_ORIGIN = BumpOnBackgroundQ(background=0.5, amplitude=1.0, width=1.0, centers=((0.25, 0.125),))


def test_seeded_family_matches_cold_solves(grid2d, exps2d, spec2d):
    # a seed changes where a solve starts, not where it ends; from the limit
    # state placed on max Q it gets there no slower than the cold start once
    # the bump is resolved
    table = level_table(OFF_ORIGIN, [0.5, 0.25, 0.125], exps2d, grid2d, spec=spec2d)
    records = run_sweep(OFF_ORIGIN, [2.0, 4.0, 8.0], exps2d, grid2d, spec=spec2d)
    for row, record in zip(table.rows, records):
        step_exps = exps2d.with_k(record.k)
        cold = solve_ground_state(sample_Q(OFF_ORIGIN, grid2d, step_exps.eps), step_exps, spec2d)
        assert cold.converged
        assert row.level == pytest.approx(cold.level, rel=1e-9)
        assert record.level == pytest.approx(cold.level, rel=1e-9)
        if record.eps <= 0.25:
            assert row.iterations <= cold.iterations
            assert record.iterations <= cold.iterations


@pytest.mark.parametrize("Q", [OFF_ORIGIN, ConstantQ(1.0)], ids=["bump", "constant"])
def test_family_does_not_depend_on_the_order_of_ks(Q, grid2d, exps2d, spec2d):
    # every member starts from the limit state or from the cold start, never
    # from another member, so reversing the wavenumbers changes no bit
    forward = run_sweep(Q, [2.0, 4.0, 8.0], exps2d, grid2d, spec=spec2d)
    backward = run_sweep(Q, [8.0, 4.0, 2.0], exps2d, grid2d, spec=spec2d)
    for record, mirror in zip(forward, reversed(backward)):
        assert record.k == mirror.k
        assert np.array_equal(record.state.v.values, mirror.state.v.values)
        assert np.array_equal(record.state.u_rescaled.values, mirror.state.u_rescaled.values)
        assert record.iterations == mirror.iterations


def test_sweep_rejects_a_limit_on_another_grid(monkeypatch, grid2d, exps2d, spec2d):
    other = build_grid(2, 16.0, 32)
    limit = limit_ground_state(1.5, other, exps2d, ResolventSpec(s=1.0, delta=auto_delta(other, 1.0)))
    solves = []
    monkeypatch.setattr(concentration, "solve_ground_state", lambda *a, **k: solves.append(a))
    with pytest.raises(NumericalError, match="another grid"):
        run_sweep(OFF_ORIGIN, [2.0], exps2d, grid2d, spec=spec2d, limit=limit)
    assert solves == []


PLANE_CFG = (
    "grid.dim = 2\ngrid.points = 128\ngrid.half_width = 16.0\n"
    "model.s = 1.0\nmodel.p = 5.0\nmodel.k = 8.0\nmodel.delta = auto\n"
    "coefficient.kind = bump\ncoefficient.background = 0.5\n"
    "coefficient.amplitude = 1.0\ncoefficient.width = 1.0\n"
    "coefficient.centers = 0.125, -0.125\n"
    "sweep.k_values = 2.0, 4.0, 8.0\nsweep.eps_values = 0.5, 0.25, 0.125\noutput.format = json\n"
)


def test_plane_cycle_solver_budget(monkeypatch, tmp_path):
    # one levels + sweep cycle of the 2D 128^2 concentration config: 8 solves,
    # two of them limit solves, in at most 64 iterations and 74 resolvent applications
    iterations, applications = [], []
    solve, apply = dual.solve_ground_state, dual.apply_multiplier_values

    def counted_solve(*args, **kwargs):
        gs = solve(*args, **kwargs)
        iterations.append(gs.iterations)
        return gs

    def counted_apply(*args, **kwargs):
        applications.append(1)
        return apply(*args, **kwargs)

    monkeypatch.setattr(dual, "solve_ground_state", counted_solve)
    monkeypatch.setattr(concentration, "solve_ground_state", counted_solve)
    monkeypatch.setattr(dual, "apply_multiplier_values", counted_apply)
    cfg = tmp_path / "plane.cfg"
    cfg.write_text(PLANE_CFG, encoding="utf-8")
    for command in ("levels", "sweep"):
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / command), "--force"]) == 0
    assert len(iterations) == 8
    assert sum(iterations) <= 64
    assert len(applications) <= 74
    # sweep.k_values are the reciprocals of sweep.eps_values, so both commands
    # solve the same family and must report the same levels, digit for digit
    with open(tmp_path / "levels" / "levels.csv", encoding="utf-8") as fh:
        c_eps = [row["c_eps"] for row in csv.DictReader(fh)]
    with open(tmp_path / "sweep" / "sweep.csv", encoding="utf-8") as fh:
        sweep_levels = [row["level"] for row in csv.DictReader(fh)]
    assert c_eps == sweep_levels
    levels_json = json.loads((tmp_path / "levels" / "levels.json").read_text(encoding="utf-8"))
    sweep_json = json.loads((tmp_path / "sweep" / "sweep.json").read_text(encoding="utf-8"))
    assert [row["c_eps"] for row in levels_json] == [row["level"] for row in sweep_json]


def _mirror_levels(grid, spec, center):
    exps = Exponents(dim=2, s=1.0, p=5.0, k=1.0)
    Q = BumpOnBackgroundQ(background=0.5, amplitude=1.0, width=1.0, centers=(center,))
    table = level_table(Q, [1.0, 0.5], exps, grid, spec=spec)
    records = run_sweep(Q, [1.0, 2.0], exps, grid, spec=spec)
    return [row.level for row in table.rows] + [record.level for record in records]


@pytest.fixture(scope="module")
def mirror_box():
    grid = build_grid(2, 16.0, 64)
    spec = ResolventSpec(s=1.0, delta=auto_delta(grid, 1.0))
    return grid, spec, _mirror_levels(grid, spec, (0.5, 1.0))


@settings(max_examples=16, derandomize=True, database=None, deadline=None)
@given(
    signs=st.tuples(st.sampled_from([1.0, -1.0]), st.sampled_from([1.0, -1.0])),
    swap=st.booleans(),
    cells=st.tuples(st.integers(-2, 2), st.integers(-2, 2)),
)
def test_family_levels_are_mirror_and_swap_invariant(mirror_box, signs, swap, cells):
    # reflecting an axis or swapping the axes maps the grid onto itself, and so
    # does a shift by whole cells: the grid spacing h = 1/2 is one cell of the
    # sampled Q(eps x) at eps = 1 and two at eps = 1/2, so every centre on the
    # h-lattice is a node at both. The seed, placed by peak_node on max Q, must
    # land on the image node. |centre| <= 1 keeps the window edge at +-8 eps at
    # least 7 from the centre at eps = 1/2, where the bump is exp(-49/2) < 1e-10
    # of its amplitude, so the box cuts the same tails off every image
    grid, spec, reference = mirror_box
    center = (signs[0] * 0.5, signs[1] * 1.0)
    if swap:
        center = center[::-1]
    center = tuple(c + grid.spacing * k for c, k in zip(center, cells))
    assume(max(abs(c) for c in center) <= 1.0)
    assert _mirror_levels(grid, spec, center) == pytest.approx(reference, rel=1e-8)


@pytest.mark.parametrize("case", ["off-grid-2d", "readme-cube"])
def test_every_member_peaks_on_the_maximum_node_of_Q(case, grid2d, exps2d, spec2d):
    # the fact that lets profile_distance align by one roll: every member of the
    # family peaks on the node where its sampled Q is largest, so a search over
    # the 5^dim shifts within two cells of that alignment finds nothing closer
    if case == "off-grid-2d":
        # (0.1, 0.07)/eps falls between the nodes at every eps of the sweep
        Q = BumpOnBackgroundQ(background=0.5, amplitude=1.0, width=1.0, centers=((0.1, 0.07),))
        grid, exps, spec, ks, tol, max_iter = grid2d, exps2d, spec2d, [2.0, 4.0, 8.0], 1e-6, 500
    else:
        cfg = parse_config_text(readme_config(3))
        grid = make_grid(cfg)
        Q, exps, spec = make_coefficient(cfg), make_exponents(cfg), make_spec(cfg, grid)
        ks, tol, max_iter = cfg.k_values, cfg.tol, cfg.max_iter
        assert grid.shape == (32, 32, 32) and exps.within_hypotheses
    limit = limit_ground_state(Q.sup_value, grid, exps, spec, tol=tol, max_iter=max_iter)
    records = run_sweep(Q, ks, exps, grid, spec, tol=tol, max_iter=max_iter, limit=limit)
    assert len(records) == 3
    for record in records:
        assert record.converged
        assert peak_node(record.state.u_rescaled.values) == max_node(sample_Q(Q, grid, record.eps))
        searched = _searched_distance(record.state.u_rescaled, limit.u_rescaled, exps.p)
        assert record.profile_distance == searched


def check_concentration_inside_the_hypotheses(s, p):
    # criteria 8 and 9, with their bounds, on a 3D bump inside the paper's range
    grid = build_grid(3, 8.0, 32)
    exps = Exponents(dim=3, s=s, p=p, k=8.0)
    assert exps.within_hypotheses
    spec = ResolventSpec(s=s, delta=auto_delta(grid, s))
    Q = BumpOnBackgroundQ(background=0.5, amplitude=1.0, width=1.0, centers=((0.125, 0.125, 0.125),))
    limit = limit_ground_state(Q.sup_value, grid, exps, spec, tol=1e-6)
    table = level_table(Q, [0.5, 0.25, 0.125], exps, grid, spec=spec, tol=1e-6)
    records = run_sweep(Q, [2.0, 4.0, 8.0], exps, grid, spec=spec, tol=1e-6, limit=limit)

    c0 = table.peak_level
    assert limit.converged and table.peak_converged and table.background_converged
    assert abs(c0 - limit.level) <= 1e-9 * c0
    assert all(row.converged for row in table.rows)
    assert all(row.level >= c0 - 1e-3 * abs(c0) for row in table.rows)
    assert table.rows[-1].level < table.background_level
    gaps = [row.gap_low for row in table.rows]
    assert all(second <= 1.1 * first for first, second in zip(gaps, gaps[1:]))

    assert all(record.converged for record in records)
    distances = [record.profile_distance for record in records]
    assert all(second <= first + 1e-12 for first, second in zip(distances, distances[1:]))
    final = records[-1]
    assert final.profile_distance <= 0.1
    cell = grid.spacing * final.eps
    assert all(abs(x - c) <= 2.0 * cell for x, c in zip(final.peak_physical, Q.maxima[0]))
    assert single_bubble_check(final, fraction=0.9)


def test_concentration_inside_the_hypotheses():
    check_concentration_inside_the_hypotheses(1.0, 5.0)


@pytest.mark.parametrize("s,p", [(0.9, 4.5), (1.25, 5.0)])
def test_fractional_concentration_inside_the_hypotheses(s, p):
    # the same conditions and bounds at fractional orders N/(N+1) < s < N/2
    check_concentration_inside_the_hypotheses(s, p)
