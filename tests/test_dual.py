"""Dual energy, gradient, Nehari algebra and the cutoff comparison."""
import math

import numpy as np
import pytest

from helmlab import (
    BumpOnBackgroundQ,
    DualState,
    Exponents,
    RealField,
    ResolventSpec,
    apply_multiplier_values,
    build_grid,
    cutoff_projection,
    diagnose,
    dihedral_average,
    dual_energy,
    dual_gradient,
    inner_product,
    lq_norm,
    nehari_project,
    nehari_scale,
    random_initial_guess,
    sample_Q,
    solve_ground_state,
)
from helmlab import dual
from helmlab.errors import NumericalError

EXPS = Exponents(dim=2, s=1.0, p=5.0, k=1.0)
SPEC = ResolventSpec(s=1.0, delta=0.3)
# the classical order and a fractional one, for the exact Nehari algebra
ORDERS = [(EXPS, SPEC), (Exponents(dim=2, s=0.9, p=5.0, k=1.0), ResolventSpec(s=0.9, delta=0.3))]


def small_grid():
    return build_grid(2, 16.0, 32)


def bump_field(grid):
    return sample_Q(BumpOnBackgroundQ(background=0.5, amplitude=1.0, width=1.0), grid)


def cone_field(grid, seed=5, spec=SPEC):
    # random start filtered into the positive cone, bounded away from zero
    base = random_initial_guess(grid, spec, seed).values
    return RealField(grid, base / np.max(np.abs(base)))


# ---------------------------------------------------------------- energy


def test_energy_of_zero_field_is_zero():
    grid = small_grid()
    assert dual_energy(RealField.zeros(grid), bump_field(grid), EXPS, SPEC) == 0.0
    assert diagnose(RealField.zeros(grid), bump_field(grid), EXPS, SPEC).quad_form == 0.0


def test_energy_homogeneity_in_both_terms():
    grid = small_grid()
    Qf = bump_field(grid)
    v = cone_field(grid)
    pd = EXPS.p_dual
    a = lq_norm(v, pd) ** pd
    b = diagnose(v, Qf, EXPS, SPEC).quad_form
    for t in (0.5, 1.0, 2.0):
        want = (t**pd / pd) * a - 0.5 * t * t * b
        got = dual_energy(t * v, Qf, EXPS, SPEC)
        assert got == pytest.approx(want, rel=1e-12)


def test_energy_single_cosine_closed_form():
    # constant Q and a pure grid mode: both integrals reduce to sums the
    # test evaluates on its own
    grid = build_grid(1, 16.0, 64)
    exps = Exponents(dim=1, s=1.0, p=5.0, k=1.0)
    spec = ResolventSpec(s=1.0, delta=0.3)
    xi = np.pi * 9 / 16.0
    v = np.cos(xi * grid.coordinate_axis)
    Qf = RealField(grid, np.ones(64))
    sym = (xi * xi - 1.0) / ((xi * xi - 1.0) ** 2 + 0.3**2)
    h = grid.spacing
    pd = exps.p_dual
    a = h * np.sum(np.abs(v) ** pd)
    b = sym * h * np.sum(v * v)
    want = a / pd - 0.5 * b
    got = dual_energy(RealField(grid, v), Qf, exps, spec)
    assert got == pytest.approx(want, rel=1e-10)


# ---------------------------------------------------------------- quadratic form


def test_quad_form_sign_follows_symbol():
    grid = build_grid(1, 16.0, 64)
    exps = Exponents(dim=1, s=1.0, p=5.0, k=1.0)
    spec = ResolventSpec(s=1.0, delta=0.3)
    Qf = RealField(grid, np.ones(64))
    inside = RealField(grid, np.cos((np.pi * 2 / 16.0) * grid.coordinate_axis))  # mu < 1
    outside = RealField(grid, np.cos((np.pi * 9 / 16.0) * grid.coordinate_axis))  # mu > 1
    assert diagnose(inside, Qf, exps, spec).quad_form < 0.0
    assert diagnose(outside, Qf, exps, spec).quad_form > 0.0


def test_quad_form_single_mode_value():
    grid = build_grid(1, 16.0, 64)
    exps = Exponents(dim=1, s=1.0, p=5.0, k=1.0)
    spec = ResolventSpec(s=1.0, delta=0.3)
    xi = np.pi * 9 / 16.0
    v = RealField(grid, np.cos(xi * grid.coordinate_axis))
    Qf = RealField(grid, np.ones(64))
    want = (xi * xi - 1.0) / ((xi * xi - 1.0) ** 2 + 0.3**2) * lq_norm(v, 2) ** 2
    assert diagnose(v, Qf, exps, spec).quad_form == pytest.approx(want, rel=1e-10)


# ---------------------------------------------------------------- gradient


def test_gradient_of_zero_field_is_zero():
    grid = small_grid()
    g = dual_gradient(RealField.zeros(grid), bump_field(grid), EXPS, SPEC)
    assert np.all(g.values == 0.0)


def test_gradient_matches_finite_differences():
    grid = small_grid()
    Qf = bump_field(grid)
    gen = np.random.default_rng(11)
    t = 1e-5
    for _ in range(5):
        # |v| is kept away from 0: the p'-power term is not twice
        # differentiable there and central differences degrade
        v = RealField(grid, np.sign(gen.standard_normal(grid.shape)) * (0.2 + gen.random(grid.shape)))
        w = RealField(grid, gen.standard_normal(grid.shape))
        g = dual_gradient(v, Qf, EXPS, SPEC)
        directional = inner_product(g, w)
        fd = (dual_energy(v + t * w, Qf, EXPS, SPEC) - dual_energy(v - t * w, Qf, EXPS, SPEC)) / (2 * t)
        assert abs(fd - directional) <= 1e-5 * max(1.0, abs(directional))


def test_gradient_small_at_converged_state(ground2d, unitQ, spec2d):
    exps = ground2d.exps
    bound = 1e-6 * lq_norm(ground2d.v, exps.p_dual) ** (exps.p_dual - 1.0)
    assert lq_norm(dual_gradient(ground2d.v, unitQ, exps, spec2d), exps.p) <= bound


# ---------------------------------------------------------------- Nehari algebra


def test_nehari_scale_is_one_when_terms_balance():
    grid = small_grid()
    Qf = bump_field(grid)
    v = cone_field(grid)
    pd = EXPS.p_dual
    a = lq_norm(v, pd) ** pd
    b = diagnose(v, Qf, EXPS, SPEC).quad_form
    assert b > 0.0
    balanced = (b / a) ** (1.0 / (pd - 2.0)) * v
    assert nehari_scale(balanced, Qf, EXPS, SPEC) == pytest.approx(1.0, rel=1e-10)


def test_nehari_scale_homogeneity():
    grid = small_grid()
    Qf = bump_field(grid)
    v = cone_field(grid)
    t = nehari_scale(v, Qf, EXPS, SPEC)
    for alpha in (0.25, 3.0):
        assert nehari_scale(alpha * v, Qf, EXPS, SPEC) == pytest.approx(t / alpha, rel=1e-12)


def golden_section_argmax(f, lo, hi, xatol):
    """Maximiser of a unimodal f on [lo, hi], to within xatol."""
    ratio = (math.sqrt(5.0) - 1.0) / 2.0
    c, d = hi - ratio * (hi - lo), lo + ratio * (hi - lo)
    fc, fd = f(c), f(d)
    while hi - lo > xatol:
        if fc > fd:
            hi, d, fd = d, c, fc
            c = hi - ratio * (hi - lo)
            fc = f(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + ratio * (hi - lo)
            fd = f(d)
    return 0.5 * (lo + hi)


def test_nehari_scale_matches_line_search():
    # t -> J(t v) rises from 0 and falls once the quadratic term wins, so a
    # bracketing search on the ray finds the Nehari scale independently
    grid = small_grid()
    Qf = bump_field(grid)
    v = cone_field(grid, seed=9)
    t = nehari_scale(v, Qf, EXPS, SPEC)
    best = golden_section_argmax(lambda tt: dual_energy(tt * v, Qf, EXPS, SPEC), 1e-12, 10.0 * t, 1e-10)
    assert t == pytest.approx(best, rel=1e-6)


def test_nehari_scale_errors():
    grid = small_grid()
    Qf = bump_field(grid)
    with pytest.raises(NumericalError, match="zero field"):
        nehari_scale(RealField.zeros(grid), Qf, EXPS, SPEC)
    x = np.meshgrid(grid.coordinate_axis, grid.coordinate_axis, indexing="ij")[0]
    inside = RealField(grid, np.cos((np.pi * 2 / 16.0) * x))  # negative quadratic form
    with pytest.raises(NumericalError, match="nonpositive quadratic form"):
        nehari_scale(inside, Qf, EXPS, SPEC)


def test_a_successful_projection_resolves_once(monkeypatch):
    # B(v) and R(Q^(1/p) v) are computed once
    grid = small_grid()
    Qf = bump_field(grid)
    resolve = dual._DualOperator.resolve
    calls = []

    def counted(self, values, resolved=None):
        calls.append(resolved is None)
        return resolve(self, values, resolved)

    monkeypatch.setattr(dual._DualOperator, "resolve", counted)
    nehari_scale(cone_field(grid), Qf, EXPS, SPEC)
    assert calls == [True]


def test_a_refused_projection_resolves_once(monkeypatch):
    # the refusal hands back R(Q^(1/p) v), and the error reads B(v) off it
    grid = small_grid()
    Qf = bump_field(grid)
    x = np.meshgrid(grid.coordinate_axis, grid.coordinate_axis, indexing="ij")[0]
    inside = RealField(grid, np.cos((np.pi * 2 / 16.0) * x))  # negative quadratic form
    apply = dual.apply_multiplier_values
    applications = []

    def counted(*args):
        applications.append(len(applications))
        return apply(*args)

    monkeypatch.setattr(dual, "apply_multiplier_values", counted)
    with pytest.raises(NumericalError, match="nonpositive quadratic form"):
        nehari_scale(inside, Qf, EXPS, SPEC)
    assert len(applications) == 1


def test_nehari_projection_energy_identity():
    grid = small_grid()
    Qf = bump_field(grid)
    for exps, spec in ORDERS:
        state = nehari_project(cone_field(grid, spec=spec), Qf, exps, spec)
        assert isinstance(state, DualState)
        pd = exps.p_dual
        a = lq_norm(state.v, pd) ** pd
        assert abs(state.nehari_residual) <= 1e-8 * a
        assert state.energy == pytest.approx((1.0 / pd - 0.5) * a, rel=1e-10)


def test_nehari_projection_is_projective():
    grid = small_grid()
    Qf = bump_field(grid)
    for exps, spec in ORDERS:
        v = cone_field(grid, spec=spec)
        a = nehari_project(v, Qf, exps, spec)
        b = nehari_project(7.5 * v, Qf, exps, spec)
        assert np.allclose(a.v.values, b.v.values, atol=1e-12 * np.max(np.abs(a.v.values)))


def test_nehari_projection_fixes_points_on_manifold():
    grid = small_grid()
    Qf = bump_field(grid)
    state = nehari_project(cone_field(grid), Qf, EXPS, SPEC)
    again = nehari_project(state.v, Qf, EXPS, SPEC)
    assert np.allclose(again.v.values, state.v.values, atol=1e-12 * np.max(np.abs(state.v.values)))


def test_projections_leave_the_callers_field_unchanged():
    # a projection scales its field in place, so the public entries and the
    # solve's start project a copy: the caller's array keeps its values, and
    # cutoff_projection returns phi unscaled
    grid = small_grid()
    Qf = bump_field(grid)
    v = cone_field(grid)
    kept = v.values.copy()
    assert nehari_scale(v, Qf, EXPS, SPEC) != 1.0  # so a scaled array would show
    nehari_project(v, Qf, EXPS, SPEC)
    phi, t, _ = cutoff_projection(v, (0.0, 0.0), Qf, EXPS, SPEC)
    solve_ground_state(Qf, EXPS, SPEC, init=v, max_iter=3)
    assert np.array_equal(v.values, kept)
    assert t != 1.0 and nehari_scale(phi, Qf, EXPS, SPEC) == t


def test_mountain_pass_profile_along_ray():
    grid = small_grid()
    Qf = bump_field(grid)
    v = cone_field(grid)
    t_star = nehari_scale(v, Qf, EXPS, SPEC)
    peak = dual_energy(t_star * v, Qf, EXPS, SPEC)
    assert peak > 0.0
    ts = np.linspace(0.05, 3.0, 20) * t_star
    values = [dual_energy(float(t) * v, Qf, EXPS, SPEC) for t in ts]
    assert max(values) <= peak * (1 + 1e-10)
    assert values[-1] < 0.0  # past the zero crossing at (2/p')^(1/(2-p')) t*


def test_diagnose_consistency():
    grid = small_grid()
    Qf = bump_field(grid)
    v = cone_field(grid, seed=13)
    state = diagnose(v, Qf, EXPS, SPEC)
    assert state.energy == pytest.approx(dual_energy(v, Qf, EXPS, SPEC), rel=1e-12)
    weighted = RealField(grid, Qf.values ** (1.0 / EXPS.p) * v.values)
    resolved = apply_multiplier_values(weighted, SPEC.symbol_values(grid))
    assert state.quad_form == pytest.approx(inner_product(weighted, resolved), rel=1e-12)
    pd = EXPS.p_dual
    a = lq_norm(v, pd) ** pd
    assert state.nehari_residual == pytest.approx(a - state.quad_form, rel=1e-12)


# ---------------------------------------------------------------- starting points


def test_default_initial_guess_lies_in_cone():
    grid = small_grid()
    Qf = bump_field(grid)
    init = dual._DualOperator(Qf, EXPS, SPEC).initial_guess()
    assert diagnose(init, Qf, EXPS, SPEC).quad_form > 0.0
    # bump Q puts the guess at the coefficient argmax
    peak = np.unravel_index(int(np.argmax(np.abs(init.values))), grid.shape)
    assert peak == grid.origin_index


def test_random_initial_guess_seeded_and_admissible():
    grid = small_grid()
    Qf = bump_field(grid)
    a = random_initial_guess(grid, SPEC, 123)
    b = random_initial_guess(grid, SPEC, 123)
    c = random_initial_guess(grid, SPEC, 124)
    assert np.array_equal(a.values, b.values)
    assert not np.array_equal(a.values, c.values)
    assert diagnose(a, Qf, EXPS, SPEC).quad_form > 0.0


def test_dihedral_average_is_symmetric():
    grid = small_grid()
    f = dihedral_average(random_initial_guess(grid, SPEC, 77))
    # invariant under the axis swap
    assert np.allclose(f.values, f.values.T, atol=1e-12)
    # and under reflection through the origin node (flip + one-cell roll)
    mirrored = f.values
    for axis in range(2):
        mirrored = np.roll(np.flip(mirrored, axis=axis), 1, axis=axis)
    assert np.allclose(f.values, mirrored, atol=1e-12)


# ---------------------------------------------------------------- level scaling


def test_level_scales_with_constant_coefficient(grid2d, exps2d, spec2d, unitQ, ground2d):
    # c(Q) = Q^(-2/(p-2)) c(1) for constant coefficients; warm start from
    # the unit solution so the check costs a handful of iterations
    Qf = RealField(grid2d, np.full(grid2d.shape, 2.0))
    gs = solve_ground_state(Qf, exps2d, spec2d, init=ground2d.v, tol=1e-6, max_iter=100)
    assert gs.converged
    assert gs.iterations <= 2  # the warm start is a pure rescale away
    want = 2.0 ** (-2.0 / 3.0) * ground2d.level
    assert gs.level == pytest.approx(want, rel=1e-7)


# ---------------------------------------------------------------- cutoff projection


def test_cutoff_with_unit_window_recovers_limit_state(limit2d, unitQ, exps2d, spec2d):
    # at k = 32 every node has eps*|x| <= 16*sqrt(2)/32 < 1, where the cutoff is exactly 1
    phi, t, level = cutoff_projection(limit2d.v, (0.0, 0.0), unitQ, exps2d.with_k(32.0), spec2d)
    assert np.allclose(phi.values, limit2d.v.values, atol=1e-12)
    assert t == pytest.approx(1.0, abs=1e-8)
    assert level == pytest.approx(limit2d.level, rel=1e-10)


def test_cutoff_translates_profile_to_target(limit2d, unitQ, exps2d, spec2d):
    grid = unitQ.grid
    y = (4.0, -2.0)  # eps = 1: rescaled center is the same point
    phi, t, level = cutoff_projection(limit2d.v, y, unitQ, exps2d, spec2d)
    peak = np.unravel_index(int(np.argmax(np.abs(phi.values))), grid.shape)
    assert peak == grid.nearest_index(y)
    assert t > 0.0
    # the cutoff bites: the level sits above the limit level
    assert level >= limit2d.level * (1.0 - 1e-10)


def test_cutoff_projection_is_translation_invariant(limit2d, unitQ, exps2d, spec2d):
    # the profile is placed by its own peak node, wherever it sits
    y = (4.0, -2.0)
    moved = RealField(limit2d.v.grid, np.roll(limit2d.v.values, (5, -3), axis=(0, 1)))
    phi, t, level = cutoff_projection(limit2d.v, y, unitQ, exps2d, spec2d)
    phi_moved, t_moved, level_moved = cutoff_projection(moved, y, unitQ, exps2d, spec2d)
    assert np.array_equal(phi_moved.values, phi.values)
    assert (t_moved, level_moved) == (t, level)


def test_cutoff_rejects_mismatched_grids(limit2d, exps2d, spec2d):
    other = sample_Q(BumpOnBackgroundQ(), build_grid(2, 16.0, 32))
    with pytest.raises(NumericalError, match="different grids"):
        cutoff_projection(limit2d.v, (0.0, 0.0), other, exps2d, spec2d)


def test_translation_invariance_of_energy(unitQ, exps2d, spec2d, ground2d):
    shifted = RealField(ground2d.v.grid, np.roll(ground2d.v.values, (9, 4), axis=(0, 1)))
    assert dual_energy(shifted, unitQ, exps2d, spec2d) == pytest.approx(ground2d.level, rel=1e-12)
