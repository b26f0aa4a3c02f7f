"""Concentration experiments: profile distances, sweeps, level tables.

As the wavenumber k grows (eps = 1/k shrinks), the rescaled coefficient
Q(eps * x) flattens toward its peak value and the computed ground state
should converge to the constant-coefficient limit profile, with its peak
parked at a maximum of Q. The routines here measure exactly that: where
the profile peaks (`GroundState.peak`), how far it is from the limit
profile, and how the ground-state level is pinched between the two
constant-coefficient levels built from max Q and the background value of Q.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .coefficients import CoefficientQ, max_node, sample_Q
from .dual import GroundState, limit_ground_state, solve_ground_state
from .errors import ZeroFieldError
from .grid import RealField, TorusGrid, lq_norm
from .params import Exponents
from .resolvent import ResolventSpec


def profile_distance(field: RealField, reference: RealField, norm_exponent: float = 2.0) -> float:
    """Relative L^q distance after aligning the profiles by translation.

    The field is rolled so its argmax node lands on the reference's
    argmax node, then over all extra shifts of up to two cells per axis
    the smallest ||field_shifted - reference||_q / ||reference||_q is
    returned. Cell-level alignment is all a translation on the grid can
    do; the two-cell search absorbs argmax jitter between nearby nodes.
    """
    if field.grid != reference.grid:
        raise ValueError("fields live on different grids")
    ref_norm = lq_norm(reference, norm_exponent)
    if ref_norm <= 0.0:
        raise ZeroFieldError("reference profile is identically zero")
    grid = field.grid
    f_node = np.unravel_index(int(np.argmax(np.abs(field.values))), grid.shape)
    r_node = np.unravel_index(int(np.argmax(np.abs(reference.values))), grid.shape)
    base = tuple(int(r - f) for r, f in zip(r_node, f_node))
    best = np.inf
    axes = tuple(range(grid.dim))
    for extra in itertools.product(range(-2, 3), repeat=grid.dim):
        shift = tuple(b + e for b, e in zip(base, extra))
        moved = np.roll(field.values, shift, axis=axes)
        dist = lq_norm(RealField(grid, moved - reference.values), norm_exponent)
        if dist < best:
            best = dist
    return float(best / ref_norm)


@dataclass(frozen=True)
class SweepRecord:
    """One wavenumber step of a concentration sweep."""

    k: float
    eps: float
    level: float
    peak_rescaled: tuple[float, ...]
    peak_physical: tuple[float, ...]
    profile_distance: float
    iterations: int
    converged: bool
    state: GroundState


def single_bubble_fraction(gs: GroundState) -> float:
    """Fraction of the dual p'-mass within a quarter box width of the peak."""
    grid = gs.v.grid
    pd = gs.exps.p_dual
    weight = np.abs(gs.v.values) ** pd
    total = float(np.sum(weight))
    if total <= 0.0:
        raise ZeroFieldError("ground state has zero dual mass")
    d2 = grid.periodic_distance2(gs.peak)
    near = float(np.sum(np.where(d2 <= (0.25 * grid.half_width) ** 2, weight, 0.0)))
    return near / total


def single_bubble_check(record: SweepRecord, fraction: float = 0.9) -> bool:
    """Whether the record's dual mass sits in one bubble around its peak.

    True when at least `fraction` of the p'-mass of the record's state
    lies within 0.25 * half_width of the recorded peak; a second bubble
    of comparable mass elsewhere pulls the fraction below any strict
    threshold.
    """
    return single_bubble_fraction(record.state) >= fraction


def _solve_family(
    Q: CoefficientQ,
    ks: list[float],
    exps: Exponents,
    grid: TorusGrid,
    spec: ResolventSpec,
    tol: float,
    max_iter: int,
    warm_start: bool,
) -> list[GroundState]:
    """Ground states with Q sampled at eps = 1/k, solved in the order of `ks`.

    With `warm_start` each solve starts from the last converged state,
    rolled so its profile peak lands on the maximum of the new Q.
    """
    states: list[GroundState] = []
    previous: GroundState | None = None
    for k in ks:
        step_exps = exps.with_k(k)
        Qfield = sample_Q(Q, grid, step_exps.eps)
        init = None
        if previous is not None:
            init = previous.v
            q_node = max_node(Qfield)
            if q_node is not None:
                # re-center the previous bubble onto the new coefficient maximum;
                # a (near-)constant coefficient has no meaningful argmax, so the
                # bubble stays wherever the last solve left it
                p_node = np.unravel_index(int(np.argmax(np.abs(previous.u_rescaled.values))), grid.shape)
                shift = tuple(int(q - p) for q, p in zip(q_node, p_node))
                init = RealField(grid, np.roll(previous.v.values, shift, axis=range(grid.dim)))
        gs = solve_ground_state(Qfield, step_exps, spec, init=init, tol=tol, max_iter=max_iter)
        states.append(gs)
        if warm_start and gs.converged:
            previous = gs
    return states


def run_sweep(
    Q: CoefficientQ,
    ks,
    exps: Exponents,
    grid: TorusGrid,
    spec: ResolventSpec,
    tol: float = 1e-6,
    max_iter: int = 500,
    warm_start: bool = True,
    limit: GroundState | None = None,
) -> list[SweepRecord]:
    """Solve along increasing wavenumbers and compare against the limit profile.

    Walks the same warm-started family of solves as `level_table`, one
    per k with the coefficient sampled at eps = 1/k; with warm starts
    (the default) the previous converged dual field, rolled onto the new
    coefficient maximum, seeds the next solve, which cuts the iteration
    count several-fold once the bubble has formed. Each step records
    the profile distance to the constant-coefficient state at the peak
    value of Q and the peak in both frames. A step that stagnates is
    recorded with converged=False and the sweep moves on.
    """
    ks = [float(k) for k in ks]
    if not ks:
        raise ValueError("need at least one wavenumber")
    if limit is None:
        limit = limit_ground_state(Q.sup_value, grid, exps, spec, tol=tol, max_iter=max_iter)
    states = _solve_family(Q, ks, exps, grid, spec, tol, max_iter, warm_start)
    return [
        SweepRecord(
            k=k,
            eps=gs.exps.eps,
            level=gs.level,
            peak_rescaled=gs.peak,
            peak_physical=tuple(gs.exps.eps * c for c in gs.peak),
            profile_distance=profile_distance(gs.u_rescaled, limit.u_rescaled, exps.p),
            iterations=gs.iterations,
            converged=gs.converged,
            state=gs,
        )
        for k, gs in zip(ks, states)
    ]


@dataclass(frozen=True)
class LevelRow:
    """Ground-state level at one eps, with its gaps to the limit levels."""

    eps: float
    level: float
    gap_low: float
    gap_high: float
    iterations: int
    converged: bool


@dataclass(frozen=True)
class LevelTable:
    """Levels of the concentrating family pinched between the two limits.

    `peak_level` is the constant-coefficient level at max Q, the floor
    the family descends to; `background_level` is the level at the
    background value of Q, strictly above it whenever the bump helps.
    Constant-coefficient levels scale exactly as c(q) = q^(-2/(p-2)) c(1),
    so `background_level` is `peak_level` rescaled, with no second solve,
    and `background_converged` repeats `peak_converged`.
    Rows report c_eps with gap_low = c_eps - peak_level (should shrink
    to zero from above) and gap_high = background_level - c_eps (should
    become positive once eps resolves the bump).
    """

    peak_level: float
    background_level: float
    rows: tuple[LevelRow, ...]
    peak_converged: bool = True
    background_converged: bool = True


def level_table(
    Q: CoefficientQ,
    eps_list,
    exps: Exponents,
    grid: TorusGrid,
    spec: ResolventSpec,
    tol: float = 1e-6,
    max_iter: int = 500,
    warm_start: bool = True,
) -> LevelTable:
    """Ground-state levels for a family of eps against both constant limits.

    Walks the same warm-started family of solves as `run_sweep`, at
    k = 1/eps in the order given, so the row at eps reproduces the
    sweep's level at k = 1/eps.
    """
    if Q.background_value <= 0:
        raise ValueError("background value must be positive to define the background limit level")
    peak_gs = limit_ground_state(Q.sup_value, grid, exps, spec, tol=tol, max_iter=max_iter)
    background_level = (Q.background_value / Q.sup_value) ** (-2.0 / (exps.p - 2.0)) * peak_gs.level

    eps_list = [float(eps) for eps in eps_list]
    states = _solve_family(Q, [1.0 / eps for eps in eps_list], exps, grid, spec, tol, max_iter, warm_start)
    rows = tuple(
        LevelRow(
            eps=eps,
            level=gs.level,
            gap_low=gs.level - peak_gs.level,
            gap_high=background_level - gs.level,
            iterations=gs.iterations,
            converged=gs.converged,
        )
        for eps, gs in zip(eps_list, states)
    )
    return LevelTable(
        peak_level=peak_gs.level,
        background_level=background_level,
        rows=rows,
        peak_converged=peak_gs.converged,
        background_converged=peak_gs.converged,
    )
