"""Fixed-point solver behavior: termination, invariances, honest failure."""
import numpy as np
import pytest

from helmlab import (
    ConeExitError,
    ConstantQ,
    Exponents,
    IndefiniteFormError,
    RealField,
    ResolventSpec,
    ZeroFieldError,
    apply_multiplier_values,
    auto_delta,
    build_grid,
    limit_ground_state,
    sample_Q,
    solve_ground_state,
)
from helmlab import dual
from conftest import STANDARD_LEVEL


def test_reproduces_frozen_level(ground2d):
    assert ground2d.converged
    assert ground2d.iterations <= 500
    assert ground2d.fixed_point_residual <= 1e-6
    assert ground2d.level == pytest.approx(STANDARD_LEVEL, rel=1e-9)


def test_reported_state_is_consistent(ground2d):
    st = ground2d.state
    assert st.on_nehari
    assert st.quad_form > 0.0
    assert st.energy == pytest.approx(ground2d.level)
    # the recovered profile peaks where the solver says it does
    grid = ground2d.u_rescaled.grid
    node = np.unravel_index(int(np.argmax(np.abs(ground2d.u_rescaled.values))), grid.shape)
    coords = tuple(float(grid.coordinate_axis[i]) for i in node)
    assert np.allclose(ground2d.peak, coords, atol=grid.spacing)
    # sign convention: positive at the peak
    assert ground2d.u_rescaled.values[node] > 0.0


def test_profile_is_the_resolvent_of_the_weighted_dual_field(ground2d, unitQ, spec2d):
    # u = R(Q^(1/p) v), recomputed from scratch from the returned dual field
    weighted = RealField(unitQ.grid, unitQ.values ** (1.0 / ground2d.exps.p) * ground2d.v.values)
    rebuilt = apply_multiplier_values(weighted, spec2d.symbol_values(unitQ.grid))
    assert np.max(np.abs(rebuilt.values - ground2d.u_rescaled.values)) < 1e-10


def test_restart_from_solution_terminates_immediately(ground2d, unitQ, exps2d, spec2d):
    gs = solve_ground_state(unitQ, exps2d, spec2d, init=ground2d.v, tol=1e-6, max_iter=50)
    assert gs.converged
    assert gs.iterations <= 2
    assert gs.level == pytest.approx(ground2d.level, rel=1e-9)


def test_translated_start_finds_translated_minimizer(ground2d, unitQ, exps2d, spec2d):
    shift = (5, 0)
    start = RealField(unitQ.grid, np.roll(ground2d.v.values, shift, axis=(0, 1)))
    gs = solve_ground_state(unitQ, exps2d, spec2d, init=start, tol=1e-6, max_iter=50)
    assert gs.converged
    assert gs.level == pytest.approx(ground2d.level, rel=1e-9)
    moved = np.array(ground2d.peak) + np.array([5 * unitQ.grid.spacing, 0.0])
    assert np.allclose(gs.peak, moved, atol=1e-6)


def test_scale_factor_metadata(unitQ, spec2d):
    exps = Exponents(dim=2, s=1.0, p=5.0, k=8.0)
    gs = solve_ground_state(unitQ, exps, spec2d, tol=1e-4, max_iter=200)
    assert gs.scale_factor == pytest.approx(8.0 ** (2.0 / 3.0))


def test_zero_init_rejected(unitQ, exps2d, spec2d):
    with pytest.raises(ZeroFieldError):
        solve_ground_state(unitQ, exps2d, spec2d, init=RealField.zeros(unitQ.grid))


def test_init_outside_cone_rejected(unitQ, exps2d, spec2d):
    grid = unitQ.grid
    low_mode = RealField(grid, np.cos((np.pi / 16.0) * grid.coordinate_mesh[0]))
    with pytest.raises(IndefiniteFormError):
        solve_ground_state(unitQ, exps2d, spec2d, init=low_mode)


def test_unresolved_grid_fails_honestly():
    # a budget of 5 iterations cannot reach tol = 1e-10 on the coarse
    # h = 1 grid (the residual is still near 0.5 there): the solver must
    # say so and still hand back its best Nehari iterate
    grid = build_grid(2, 16.0, 32)
    exps = Exponents(dim=2, s=1.0, p=5.0, k=1.0)
    spec = ResolventSpec(s=1.0, delta=auto_delta(grid, 1.0))
    Qf = sample_Q(ConstantQ(1.0), grid)
    gs = solve_ground_state(Qf, exps, spec, tol=1e-10, max_iter=5)
    assert not gs.converged
    assert gs.iterations == 5
    assert gs.fixed_point_residual > 1e-10
    assert np.isfinite(gs.level)
    assert gs.state.quad_form > 0.0


def test_anderson_mixing_beats_plain_iteration(ground2d, unitQ, exps2d, spec2d):
    # one-iterate memory is the plain projected iteration; a mix that
    # extrapolates toward the fixed point must take fewer iterations
    plain = solve_ground_state(unitQ, exps2d, spec2d, tol=1e-6, max_iter=500, anderson_memory=1)
    assert plain.converged
    assert ground2d.iterations < plain.iterations
    assert ground2d.level == pytest.approx(plain.level, rel=1e-9)


def test_tight_tolerance_converges(unitQ, exps2d, spec2d):
    # Anderson steps keep contracting far below the default tol = 1e-6
    gs = solve_ground_state(unitQ, exps2d, spec2d, tol=1e-10, max_iter=500)
    assert gs.converged
    assert gs.fixed_point_residual <= 1e-10
    assert gs.level == pytest.approx(STANDARD_LEVEL, rel=1e-9)


def test_limit_level_scales_with_the_coefficient(grid2d, exps2d, spec2d, limit2d):
    # J_q(v) = A(v)/p' - q^(2/p) B_1(v)/2, so the Nehari level of a
    # constant coefficient q is c(q) = q^(-2/(p-2)) c(1) exactly
    for q in (0.5, 1.5, 2.0, 3.0):
        gs = limit_ground_state(q, grid2d, exps2d, spec2d)
        assert gs.converged
        assert gs.level == pytest.approx(q ** (-2.0 / (exps2d.p - 2.0)) * limit2d.level, rel=1e-10)


def test_limit_state_is_centered(limit2d):
    grid = limit2d.u_rescaled.grid
    node = np.unravel_index(int(np.argmax(np.abs(limit2d.u_rescaled.values))), grid.shape)
    assert node == grid.origin_index
    assert np.allclose(limit2d.peak, (0.0, 0.0), atol=0.5 * grid.spacing)


def test_limit_level_matches_direct_solve(limit2d, ground2d):
    # rolling a constant-coefficient minimizer is exact on the torus
    assert limit2d.level == pytest.approx(ground2d.level, rel=1e-12)
    assert limit2d.converged


def test_limit_level_decreases_in_coefficient(grid2d, exps2d, spec2d, limit2d):
    # larger Q enlarges the quadratic form, lowering the Nehari level
    lo = limit_ground_state(0.5, grid2d, exps2d, spec2d, tol=1e-5, max_iter=300)
    hi = limit_ground_state(2.0, grid2d, exps2d, spec2d, tol=1e-5, max_iter=300)
    assert lo.converged and hi.converged
    assert hi.level < limit2d.level < lo.level


def test_limit_rejects_nonpositive_coefficient(grid2d, exps2d, spec2d):
    with pytest.raises(ValueError):
        limit_ground_state(0.0, grid2d, exps2d, spec2d)


def test_limit_recentres_an_off_origin_solve(monkeypatch, ground2d, unitQ, grid2d, exps2d, spec2d):
    # the cold start keeps the constant-Q peak on the origin node, so the
    # roll back onto it is only reached through a solve that ends elsewhere
    start = RealField(grid2d, np.roll(ground2d.v.values, (5, -3), axis=(0, 1)))
    moved = solve_ground_state(unitQ, exps2d, spec2d, init=start, max_iter=50)
    monkeypatch.setattr(dual, "solve_ground_state", lambda *args, **kwargs: moved)
    calls = []
    original = ResolventSpec.symbol_values

    def counted(self, grid):
        calls.append(grid)
        return original(self, grid)

    monkeypatch.setattr(ResolventSpec, "symbol_values", counted)
    gs = limit_ground_state(1.0, grid2d, exps2d, spec2d)
    assert calls == []  # the roll reuses the solved diagnostics: no second operator
    node = np.unravel_index(int(np.argmax(np.abs(gs.u_rescaled.values))), grid2d.shape)
    assert node == grid2d.origin_index
    assert np.array_equal(gs.v.values, np.roll(moved.v.values, (-5, 3), axis=(0, 1)))
    assert (gs.iterations, gs.converged) == (moved.iterations, moved.converged)
    assert (gs.level, gs.state.quad_form, gs.state.nehari_residual, gs.fixed_point_residual) == (
        moved.level,
        moved.state.quad_form,
        moved.state.nehari_residual,
        moved.fixed_point_residual,
    )


def test_symbol_is_evaluated_once_per_solve(monkeypatch, unitQ, grid2d, exps2d, spec2d):
    # one dual operator per solve: the projection, the residual, the cold
    # start and the packaged diagnosis all share its symbol
    calls = []
    original = ResolventSpec.symbol_values

    def counted(self, grid):
        calls.append(grid)
        return original(self, grid)

    monkeypatch.setattr(ResolventSpec, "symbol_values", counted)
    assert solve_ground_state(unitQ, exps2d, spec2d).converged
    assert len(calls) == 1
    del calls[:]
    assert limit_ground_state(1.0, grid2d, exps2d, spec2d).converged
    assert len(calls) == 1


def test_cone_exit_when_no_step_keeps_the_form_positive(monkeypatch, unitQ, exps2d, spec2d):
    # only the start projects; every later trial of every tier misses the cone
    original = dual._DualOperator.project
    calls = []

    def project_start_only(self, c):
        calls.append(len(calls))
        return original(self, c) if len(calls) == 1 else None

    monkeypatch.setattr(dual._DualOperator, "project", project_start_only)
    with pytest.raises(ConeExitError):
        solve_ground_state(unitQ, exps2d, spec2d, max_iter=50)
    assert len(calls) > 2  # the candidate and at least one fallback were tried


def test_stagnant_solve_returns_its_best_iterate(monkeypatch, unitQ, exps2d, spec2d):
    # every trial after the start projects, but one level above the start,
    # so no tier lowers the level: the loop stops on its first iteration
    original = dual._DualOperator.project
    start = []
    calls = []

    def project_uphill(self, c):
        calls.append(len(calls))
        out = original(self, c)
        if not start:
            start.append(out)
            return out
        return None if out is None else (out[0], out[1], out[2], start[0][3] + 1.0)

    monkeypatch.setattr(dual._DualOperator, "project", project_uphill)
    gs = solve_ground_state(unitQ, exps2d, spec2d, tol=1e-6, max_iter=50)
    assert not gs.converged
    assert gs.iterations == 0
    assert gs.fixed_point_residual > 1e-6
    assert np.array_equal(gs.v.values, start[0][1]) or np.array_equal(gs.v.values, -start[0][1])
    assert gs.level == pytest.approx(start[0][3], rel=1e-12)
    # the start, the plain candidate and the 11 line-search mixes, in that
    # order; the one-entry history gives no Anderson trial
    assert len(calls) == 13
