"""Fixed-point solver behavior: termination, invariances, honest failure."""
import sys
import tracemalloc
import weakref

import numpy as np
import pytest

from helmlab import (
    BumpOnBackgroundQ,
    ConstantQ,
    Exponents,
    RealField,
    ResolventSpec,
    apply_multiplier_values,
    auto_delta,
    build_grid,
    dual_gradient,
    limit_ground_state,
    lq_norm,
    sample_Q,
    solve_ground_state,
)
from helmlab.errors import NumericalError
from helmlab import dual
from conftest import STANDARD_LEVEL


def test_reproduces_frozen_level(ground2d):
    assert ground2d.converged
    assert ground2d.iterations <= 500
    assert ground2d.fixed_point_residual <= 1e-6
    assert ground2d.level == pytest.approx(STANDARD_LEVEL, rel=1e-9)


def test_reported_state_is_consistent(ground2d):
    st = ground2d.state
    assert abs(st.nehari_residual) <= 1e-8 * lq_norm(st.v, ground2d.exps.p_dual) ** ground2d.exps.p_dual
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


@pytest.mark.parametrize("dim, points", [(2, 64), (3, 32)])
def test_negated_start_gives_the_same_ground_state_bit_for_bit(dim, points):
    # J is even, and with round-to-nearest every pass commutes with negation
    # exactly, so J(-v) = J(v) to the bit and a solve from -v runs the mirror
    # image of the solve from v; the sign fix at exit makes the two one state
    grid = build_grid(dim, 16.0, points)
    spec = ResolventSpec(s=1.0, delta=auto_delta(grid, 1.0))
    exps = Exponents(dim=dim, s=1.0, p=5.0, k=4.0)
    bump = BumpOnBackgroundQ(background=0.5, amplitude=1.0, width=1.0, centers=((0.0,) * dim,))
    Qf = sample_Q(bump, grid, exps.eps)
    v = dual.random_initial_guess(grid, spec, 11)
    assert dual.dual_energy(RealField(grid, -v.values), Qf, exps, spec) == dual.dual_energy(v, Qf, exps, spec)
    start = dual._DualOperator(Qf, exps, spec).initial_guess()
    plus = solve_ground_state(Qf, exps, spec, init=start)
    minus = solve_ground_state(Qf, exps, spec, init=RealField(grid, -start.values))
    assert plus.converged and plus.iterations > 1
    assert np.array_equal(minus.v.values, plus.v.values)
    assert np.array_equal(minus.u_rescaled.values, plus.u_rescaled.values)
    fields = ("level", "peak", "fixed_point_residual", "iterations", "converged")
    assert [getattr(minus, f) for f in fields] == [getattr(plus, f) for f in fields]
    assert (minus.state.quad_form, minus.state.nehari_residual) == (plus.state.quad_form, plus.state.nehari_residual)


def test_scale_factor_metadata(unitQ, spec2d):
    exps = Exponents(dim=2, s=1.0, p=5.0, k=8.0)
    gs = solve_ground_state(unitQ, exps, spec2d, tol=1e-4, max_iter=200)
    assert gs.exps.scale_factor == pytest.approx(8.0 ** (2.0 / 3.0))


def test_zero_init_rejected(unitQ, exps2d, spec2d):
    with pytest.raises(NumericalError, match="zero field"):
        solve_ground_state(unitQ, exps2d, spec2d, init=RealField.zeros(unitQ.grid))


def test_solver_budget_rejected(unitQ, exps2d, spec2d):
    for tol in (0.0, -1e-6):
        with pytest.raises(ValueError, match="tol must be positive"):
            solve_ground_state(unitQ, exps2d, spec2d, tol=tol)
    with pytest.raises(ValueError, match="max_iter must be at least 1"):
        solve_ground_state(unitQ, exps2d, spec2d, max_iter=0)


def test_mismatched_orders_rejected(unitQ):
    # the exponents and the resolvent each carry s; a solve needs them equal
    grid = unitQ.grid
    exps = Exponents(dim=2, s=0.9, p=5.0, k=1.0)
    spec = ResolventSpec(s=1.0, delta=auto_delta(grid, 1.0))
    with pytest.raises(ValueError, match=r"s = 0\.9 .* s = 1\.0"):
        solve_ground_state(unitQ, exps, spec)
    with pytest.raises(ValueError, match=r"s = 0\.9 .* s = 1\.0"):
        dual.nehari_scale(RealField(grid, np.ones(grid.shape)), unitQ, exps, spec)


def test_init_outside_cone_rejected(unitQ, exps2d, spec2d):
    grid = unitQ.grid
    x = np.meshgrid(grid.coordinate_axis, grid.coordinate_axis, indexing="ij")[0]
    low_mode = RealField(grid, np.cos((np.pi / 16.0) * x))
    with pytest.raises(NumericalError, match="nonpositive quadratic form"):
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


def test_tight_tolerance_converges(unitQ, exps2d, spec2d):
    # Anderson steps keep contracting far below the default tol = 1e-6
    gs = solve_ground_state(unitQ, exps2d, spec2d, tol=1e-10, max_iter=500)
    assert gs.converged
    assert gs.fixed_point_residual <= 1e-10
    assert gs.level == pytest.approx(STANDARD_LEVEL, rel=1e-9)


def test_limit_level_scales_with_the_coefficient(grid2d, exps2d, spec2d, limit2d):
    # J_q(v) = A(v)/p' - q^(2/p) B_1(v)/2, so the Nehari level of a
    # constant coefficient q is c(q) = q^(-2/(p-2)) c(1) exactly, at any order:
    # on the 2D grid at s = 1, and on a 3D box at two fractional orders inside
    # the paper's window N/(N+1) < s < N/2
    cases = [(grid2d, exps2d, spec2d, limit2d)]
    cube = build_grid(3, 8.0, 32)
    for s, p in ((0.9, 4.5), (1.25, 5.0)):
        exps = Exponents(dim=3, s=s, p=p, k=1.0)
        spec = ResolventSpec(s=s, delta=auto_delta(cube, s))
        cases.append((cube, exps, spec, limit_ground_state(1.0, cube, exps, spec)))
    for grid, exps, spec, unit in cases:
        assert unit.converged
        for q in (0.5, 1.5, 2.0, 3.0):
            gs = limit_ground_state(q, grid, exps, spec)
            assert gs.converged
            assert gs.level == pytest.approx(q ** (-2.0 / (exps.p - 2.0)) * unit.level, rel=1e-10)


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


def test_limit_is_the_plain_constant_coefficient_solve(grid2d, exps2d, spec2d):
    q = 1.5
    limit = limit_ground_state(q, grid2d, exps2d, spec2d)
    direct = solve_ground_state(RealField(grid2d, np.full(grid2d.shape, q)), exps2d, spec2d)
    assert np.array_equal(limit.v.values, direct.v.values)
    assert np.array_equal(limit.u_rescaled.values, direct.u_rescaled.values)
    for name in ("energy", "quad_form", "nehari_residual"):
        assert getattr(limit.state, name) == getattr(direct.state, name)
    for name in ("peak", "exps", "iterations", "converged", "fixed_point_residual"):
        assert getattr(limit, name) == getattr(direct, name)


def test_limit_rejects_nonpositive_coefficient(grid2d, exps2d, spec2d):
    with pytest.raises(ValueError):
        limit_ground_state(0.0, grid2d, exps2d, spec2d)


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


def bump_problem():
    grid = build_grid(2, 16.0, 64)
    spec = ResolventSpec(s=1.0, delta=auto_delta(grid, 1.0))
    return sample_Q(BumpOnBackgroundQ(background=0.5, amplitude=1.0, width=1.0), grid), spec


def test_solve_applies_the_resolvent_once_per_iteration(monkeypatch, exps2d):
    # the start, its projection, then only the candidate's projection per
    # iteration: the Anderson trial reuses its history's resolved fields
    # and the packaged state reuses the iterate's
    Qf, spec = bump_problem()
    calls = []
    original = dual.apply_multiplier_values

    def counted(*args):
        calls.append(len(calls))
        return original(*args)

    monkeypatch.setattr(dual, "apply_multiplier_values", counted)
    gs = solve_ground_state(Qf, exps2d, spec)
    assert gs.converged and gs.iterations >= 5
    assert len(calls) <= gs.iterations + 3


def test_reused_fields_match_fresh_ones(monkeypatch, exps2d):
    # A(v) = level / (1/p' - 1/2) on the Nehari manifold, and R is linear, so
    # the Anderson trial's resolved field is the weighted sum of its history's
    Qf, spec = bump_problem()
    original = dual._DualOperator.project
    reused = []

    def recording(self, c, resolved=None, a=None):
        if resolved is not None:
            reused.append((self, c.copy(), resolved.copy()))
        return original(self, c, resolved, a)

    monkeypatch.setattr(dual._DualOperator, "project", recording)
    gs = solve_ground_state(Qf, exps2d, spec)
    assert gs.converged
    grid, pd = Qf.grid, exps2d.p_dual
    mass = grid.cell_volume * np.sum(np.abs(gs.v.values) ** pd)
    assert gs.level / (1.0 / pd - 0.5) == pytest.approx(mass, rel=1e-12)
    # the residual the loop normalises by that A(v) is the documented one
    gradient_norm = lq_norm(dual_gradient(gs.v, Qf, exps2d, spec), exps2d.p)
    assert gs.fixed_point_residual == pytest.approx(gradient_norm / mass ** ((pd - 1.0) / pd), rel=1e-12)
    assert reused  # the Anderson trial ran
    for op, c, resolved in reused:
        fresh = apply_multiplier_values(RealField(grid, op.root * c), op.symbol).values
        assert np.max(np.abs(resolved - fresh)) <= 1e-12 * np.max(np.abs(fresh))


def test_anderson_trial_matches_its_definition(monkeypatch, exps2d):
    # every Anderson trial is g_k - sum_j theta_j (g_{j+1} - g_j) over the last
    # m projected candidates g_j = v_j + r_j, theta the least-squares solution
    # of the Gram system of the residual increments r_{j+1} - r_j, here built
    # entry by entry; tol = 1e-10 runs long enough for the history to wrap
    Qf, spec = bump_problem()
    memory = dual._ANDERSON_MEMORY
    project, gradient_norm = dual._DualOperator.project, dual._DualOperator.gradient_norm
    events = []

    def recording_project(self, c, resolved=None, a=None):
        out = project(self, c, resolved, a)
        if a is not None and out[0] is not None:  # the projected candidate
            events.append(("candidate", out[1].copy()))
        elif resolved is not None:  # the start, then the Anderson trials
            events.append(("trial", c.copy()))
        return out

    def recording_norm(self, values, w):  # called once per iteration, on the iterate
        events.append(("iterate", values.copy()))
        return gradient_norm(self, values, w)

    monkeypatch.setattr(dual._DualOperator, "project", recording_project)
    monkeypatch.setattr(dual._DualOperator, "gradient_norm", recording_norm)
    assert solve_ground_state(Qf, exps2d, spec, tol=1e-10).converged
    v, history, trials = None, [], 0
    for kind, values in events:
        if kind == "iterate":
            v = values
        elif kind == "candidate":
            history = (history + [(v, values)])[-memory:]
        elif v is not None:
            trials += 1
            g = [gj for _, gj in history]
            r = [(gj - vj).ravel() for vj, gj in history]
            d = [b - a for a, b in zip(r, r[1:])]
            gram = np.array([[np.dot(x, y) for y in d] for x in d])
            theta = np.linalg.lstsq(gram, np.array([np.dot(x, r[-1]) for x in d]), rcond=None)[0]
            expected = g[-1] - sum(t * (b - a) for t, a, b in zip(theta, g, g[1:]))
            assert np.max(np.abs(values - expected)) <= 1e-12 * np.max(np.abs(expected))
    assert trials > memory  # more pushes than history rows


def test_solve_memory_is_its_history_and_one_iteration():
    # the peak of a 3D solve, counted in full-grid arrays from what the solver
    # holds: the operator's Q^(1/p) and half-spectrum symbol, 3(m - 1) history
    # rows, the newest candidate's g, R(Q^(1/p) g) and r, the iterate and its
    # resolved field (the best iterate so far is the iterate on this descending
    # solve), and one iteration's working arrays: the candidate, the Anderson
    # trial and its resolved field, and the two products of its projection
    grid = build_grid(3, 8.0, 32)
    exps = Exponents(dim=3, s=1.0, p=5.0, k=1.0)
    spec = ResolventSpec(s=1.0, delta=auto_delta(grid, 1.0))
    Qf = sample_Q(BumpOnBackgroundQ(background=0.5, amplitude=1.0, width=1.0, centers=((0.0, 0.0, 0.0),)), grid)
    memory = dual._ANDERSON_MEMORY
    symbol = grid.points_per_axis ** 2 * (grid.points_per_axis // 2 + 1) / grid.size
    arrays = 1 + symbol + 3 * (memory - 1) + 3 + 2 + 5
    # numpy's FFT caches a plan per transform length on its first use; one
    # multiplier pass on this grid makes those plans before tracing starts,
    # so the peak does not depend on whether an earlier test already has:
    # the bound counts what the solver holds
    dual.apply_multiplier_values(RealField.zeros(grid), 1.0)
    tracemalloc.start()
    try:
        gs = solve_ground_state(Qf, exps, spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert gs.converged and gs.iterations > memory
    # a quarter of an array covers the Gram system and the Python objects
    assert peak <= (arrays + 0.25) * 8 * grid.size


def test_solver_start_is_not_a_view_of_its_seed(monkeypatch, unitQ, exps2d, spec2d):
    # the start projection returns a fresh iterate, so nothing after it reads the seed
    seed = dual._DualOperator(unitQ, exps2d, spec2d).initial_guess()
    aliased = []
    original = dual._DualOperator.project_or_raise

    def project_or_raise(self, values):
        out = original(self, values)
        aliased.append(np.shares_memory(out[1], values))
        return out

    monkeypatch.setattr(dual._DualOperator, "project_or_raise", project_or_raise)
    solve_ground_state(unitQ, exps2d, spec2d, init=seed, max_iter=2)
    assert aliased == [False]


@pytest.mark.skipif(
    sys.implementation.name != "cpython" or sys.version_info < (3, 11),
    reason="before CPython 3.11 a call keeps its caller's references to its arguments until it returns",
)
def test_solver_releases_its_seed_after_the_start_projection(monkeypatch):
    # a seed passed with no other reference is freed once the start is
    # projected: the solver drops its own reference, and CPython 3.11+ hands
    # the caller's argument references to the callee
    grid = build_grid(2, 16.0, 32)
    spec = ResolventSpec(s=1.0, delta=auto_delta(grid, 1.0))
    exps = Exponents(dim=2, s=1.0, p=5.0, k=1.0)
    Qf = sample_Q(ConstantQ(1.0), grid)
    seeds = []

    def seed():
        values = dual._DualOperator(Qf, exps, spec).initial_guess().values.copy()
        seeds.append(weakref.ref(values))
        return RealField(grid, values)

    alive = []
    original = dual._DualOperator.candidate

    def candidate(self, w):
        alive.append(seeds[0]() is not None)
        return original(self, w)

    monkeypatch.setattr(dual._DualOperator, "candidate", candidate)
    solve_ground_state(Qf, exps, spec, init=seed(), max_iter=2)
    assert alive and not any(alive)


def test_cone_exit_when_no_step_keeps_the_form_positive(monkeypatch, unitQ, exps2d, spec2d):
    # only the start projects; every later trial of every tier misses the cone
    original = dual._DualOperator.project
    calls = []

    def project_start_only(self, c, *args, **kwargs):
        calls.append(len(calls))
        out = original(self, c, *args, **kwargs)
        if len(calls) == 1 or out[0] is None:
            return out
        return None, None, out[2] / out[0], None  # a refusal holds R(Q^(1/p) c)

    monkeypatch.setattr(dual._DualOperator, "project", project_start_only)
    with pytest.raises(NumericalError, match="no trial step keeps the quadratic form positive"):
        solve_ground_state(unitQ, exps2d, spec2d, max_iter=50)
    assert len(calls) > 2  # the candidate and at least one fallback were tried


def test_stagnant_solve_returns_its_best_iterate(monkeypatch, unitQ, exps2d, spec2d):
    # every trial after the start projects, but one level above the start,
    # so no tier lowers the level: the loop stops on its first iteration
    original = dual._DualOperator.project
    start = []
    calls = []

    def project_uphill(self, c, *args, **kwargs):
        calls.append(len(calls))
        out = original(self, c, *args, **kwargs)
        if not start:
            start.append(out)
            return out
        return out if out[0] is None else (out[0], out[1], out[2], start[0][3] + 1.0)

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


def solve_refusing_the_first_candidate(monkeypatch, exps, refuse):
    # `refuse` replaces the first iteration's projected candidate; the start
    # gives no Anderson trial then, so the line-search mixes decide the step.
    # Returns the unforced solve's level, the forced solve, its multiplier
    # applications and the trials between its first and second candidate
    Qf, spec = bump_problem()
    free = solve_ground_state(Qf, exps, spec)
    applications = []
    original_apply = dual.apply_multiplier_values

    def counted(*args):
        applications.append(len(applications))
        return original_apply(*args)

    original_project = dual._DualOperator.project
    kinds = []

    def project(self, c, resolved=None, a=None):
        out = original_project(self, c, resolved, a)
        kinds.append("trial" if a is None else "candidate")
        return refuse(out) if a is not None and kinds.count("candidate") == 1 else out

    monkeypatch.setattr(dual, "apply_multiplier_values", counted)
    monkeypatch.setattr(dual._DualOperator, "project", project)
    gs = solve_ground_state(Qf, exps, spec)
    first = kinds.index("candidate")
    return free.level, gs, len(applications), kinds[first + 1 : kinds.index("candidate", first + 1)]


def test_line_search_mixes_apply_no_resolvent(monkeypatch, exps2d):
    # a mix v + s (kappa c - v) resolves to R(Q^(1/p) v) + s (kappa R(Q^(1/p) c)
    # - R(Q^(1/p) v)), and R(Q^(1/p) c) is the candidate's projection over its
    # scale: the cold start's filter, the start projection and one candidate
    # projection per iteration are all the applications the solve makes
    level, gs, applications, mixes = solve_refusing_the_first_candidate(
        monkeypatch, exps2d, lambda out: (out[0], out[1], out[2], np.inf)
    )
    assert mixes == ["trial"]  # the first mix was accepted
    assert gs.converged
    assert gs.level == pytest.approx(level, rel=1e-10)
    assert applications == gs.iterations + 2


def test_mixes_after_a_candidate_outside_the_cone_resolve_it_once(monkeypatch, exps2d):
    # a refused candidate hands back R(Q^(1/p) c), so its mixes cost no application either
    level, gs, applications, mixes = solve_refusing_the_first_candidate(
        monkeypatch, exps2d, lambda out: (None, None, out[2] / out[0], None)
    )
    assert mixes == ["trial"]
    assert gs.converged
    assert gs.level == pytest.approx(level, rel=1e-10)
    assert applications == gs.iterations + 2
