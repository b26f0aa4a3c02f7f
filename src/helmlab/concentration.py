"""Concentration experiments: profile distances, sweeps, level tables.

As the wavenumber k grows (eps = 1/k shrinks), the rescaled coefficient
Q(eps * x) flattens toward its peak value and the computed ground state
should converge to the constant-coefficient limit profile, with its peak
parked at a maximum of Q. The routines here measure exactly that: where
the profile peaks (`GroundState.peak`), how far it is from the limit
profile once one roll puts both peaks on one node (`profile_distance`),
and how the ground-state level is pinched between the two
constant-coefficient levels built from max Q and the background value of Q.
Every family solve starts from the limit state rolled so its peak node
lands on the maximum node of the sampled Q (`_solve_family`);
`profile_distance` and `dual.cutoff_projection` place profiles by the
same roll.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coefficients import CoefficientQ, max_node, sample_Q
from .dual import GroundState, limit_ground_state, solve_ground_state
from .errors import NumericalError
from .grid import RealField, TorusGrid, _roll_onto, lq_norm, peak_node
from .params import Exponents
from .resolvent import ResolventSpec


def profile_distance(field: RealField, reference: RealField, norm_exponent: float = 2.0) -> float:
    """Relative L^q distance after aligning the profiles by translation.

    The field is rolled so its `peak_node` lands on the reference's,
    and ||aligned - reference||_q / ||reference||_q is returned, with q
    = `norm_exponent` (inf gives the max norm). Whole cells are all a
    translation on the grid can do. There is no search over further
    shifts: every family member starts from the limit state placed on
    the maximum node of Q, and its peak stays on that node, so a search
    over the 5^dim shifts within two cells of this alignment returns the
    same distance. `tests/test_concentration.py` checks both facts on
    a 2D sweep with an off-grid centre and on the README's 3D example.
    """
    if field.grid != reference.grid:
        raise NumericalError("fields live on different grids")
    ref_norm = lq_norm(reference, norm_exponent)
    if ref_norm <= 0.0:
        raise NumericalError("reference profile is identically zero")
    aligned = _roll_onto(field.values, peak_node(field.values), peak_node(reference.values))
    return float(lq_norm(RealField(field.grid, aligned - reference.values), norm_exponent) / ref_norm)


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
        raise NumericalError("ground state has zero dual mass")
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
    limit: GroundState | None,
) -> tuple[GroundState, list[GroundState]]:
    """The limit state and one ground state per entry of `ks`, Q sampled at eps = 1/k.

    `limit` is the constant-coefficient ground state at sup Q; it is
    solved here when not given, and one on another grid raises
    `NumericalError` before any solve. Every family solve starts from
    it, rolled so its profile peak lands on the maximum node of the
    sampled coefficient: the state the family converges to as eps -> 0,
    placed where the paper's concentration result puts it. A
    (near-)constant coefficient has no maximum node, so its solve starts
    from the solver's cold start, like the limit solve itself. No solve
    depends on another or on the order of `ks`.
    """
    if not ks:
        raise ValueError("need at least one wavenumber")
    if limit is None:
        limit = limit_ground_state(Q.sup_value, grid, exps, spec, tol=tol, max_iter=max_iter)
    elif limit.v.grid != grid:
        raise NumericalError("the limit state lives on another grid than the family")
    limit_node = peak_node(limit.u_rescaled.values)
    states: list[GroundState] = []
    for k in ks:
        step_exps = exps.with_k(k)
        Qfield = sample_Q(Q, grid, step_exps.eps)
        q_node = max_node(Qfield)
        # the seed is made inside the call, with no local here, so the solver can drop it after its
        # start: CPython 3.11+ hands the caller's argument references to the callee (on 3.10 the
        # caller holds the seed until the call returns), so an `init = ...` local would keep it
        states.append(
            solve_ground_state(
                Qfield,
                step_exps,
                spec,
                init=None if q_node is None else RealField(grid, _roll_onto(limit.v.values, limit_node, q_node)),
                tol=tol,
                max_iter=max_iter,
            )
        )
    return limit, states


def run_sweep(
    Q: CoefficientQ,
    ks,
    exps: Exponents,
    grid: TorusGrid,
    spec: ResolventSpec,
    tol: float = 1e-6,
    max_iter: int = 500,
    limit: GroundState | None = None,
) -> list[SweepRecord]:
    """Solve along increasing wavenumbers and compare against the limit profile.

    Solves the same family as `level_table` (see `_solve_family`), one
    member per k with the coefficient sampled at eps = 1/k, from
    `limit`, the constant-coefficient state at the peak value of Q
    (solved on `grid` when not given). Each step records the profile
    distance to `limit` and the peak in both frames. A step that
    stagnates is recorded with converged=False and the sweep moves on.
    """
    ks = [float(k) for k in ks]
    limit, states = _solve_family(Q, ks, exps, grid, spec, tol, max_iter, limit)
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
    and `background_converged` is `peak_converged`.
    Rows report c_eps with gap_low = c_eps - peak_level (should shrink
    to zero from above) and gap_high = background_level - c_eps (should
    become positive once eps resolves the bump).
    """

    peak_level: float
    background_level: float
    rows: tuple[LevelRow, ...]
    peak_converged: bool

    @property
    def background_converged(self) -> bool:
        return self.peak_converged


def level_table(
    Q: CoefficientQ,
    eps_list,
    exps: Exponents,
    grid: TorusGrid,
    spec: ResolventSpec,
    tol: float = 1e-6,
    max_iter: int = 500,
) -> LevelTable:
    """Ground-state levels for a family of eps against both constant limits.

    Solves the same family as `run_sweep` (see `_solve_family`) at
    k = 1/eps, so the row at eps reproduces the sweep's level at
    k = 1/eps. The family's limit solve at max Q gives `peak_level`.
    """
    if Q.background_value <= 0:
        raise ValueError("background value must be positive to define the background limit level")
    eps_list = [float(eps) for eps in eps_list]
    peak_gs, states = _solve_family(Q, [1.0 / eps for eps in eps_list], exps, grid, spec, tol, max_iter, None)
    background_level = (Q.background_value / Q.sup_value) ** (-2.0 / (exps.p - 2.0)) * peak_gs.level
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
    )
