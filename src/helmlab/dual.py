"""Dual variational functional and the ground-state solver.

Ground states of (-Delta)^s u - u = Q(x) |u|^(p-2) u are found through
the substitution v = Q^(1/p') |u|^(p-2) u, which turns the problem into
critical points of the dual functional

    J(v) = (1/p') * int |v|^p'  -  (1/2) * int (Q^(1/p) v) R (Q^(1/p) v),

with R the real limiting-absorption resolvent of (-Delta)^s - 1 and
p' = p/(p-1). J is well defined for any v, but a mountain-pass geometry
only exists where the quadratic term

    B(v) = int (Q^(1/p) v) R (Q^(1/p) v)

is positive. On that cone each ray meets the Nehari manifold
{J'(v) v = 0} exactly once, at t_v = (A(v)/B(v))^(1/(2-p')) with
A(v) = int |v|^p', and there

    J(t_v v) = (1/p' - 1/2) * ||t_v v||_{p'}^{p'}.

The ground-state level is the infimum of J over the Nehari manifold,
and minimizers satisfy the Euler-Lagrange fixed-point relation

    |v|^(p'-2) v = Q^(1/p) R (Q^(1/p) v),

from which the rescaled profile is recovered as u = R (Q^(1/p) v).

The solver iterates the fixed-point map projected back onto the Nehari
manifold. The bare iteration is not a contraction here: on the standard
test grids it settles into a two-cycle whose energies blow up, and its
very first candidate can leave the positive cone. Each iteration
therefore tries, in turn, the Anderson trial below, the plain projected
candidate, and eleven mixes of the iterate toward the candidate (reached
only with `anderson_memory=1` on the tested problems), and every trial
goes through one acceptance test: it must stay in the positive cone and
not raise the Nehari level beyond a slack. When none is accepted the
solve ends by one of two exits: it returns its best iterate unconverged
if some trial stayed in the positive cone, and raises `ConeExitError`
if none did. Speed comes from the Anderson extrapolation over a short
history of m iterates (`anderson_memory`, 5 by default). With
g_i = v_i + r_i the projected candidate of iterate v_i and r_i its
fixed-point residual, the history stores each g_i and r_i and the trial is

    g_k - sum_j theta_j (g_{j+1} - g_j),

whose linearised residual r_k - D theta is what theta minimizes; D
holds the m - 1 increments r_{j+1} - r_j between consecutive
residuals. Theta comes from the Gram form D^T D theta = D^T r_k
(Walker & Ni, SIAM J. Numer. Anal. 49, 2011): one dot product per
entry of an (m - 1) x (m - 1) system, solved by least squares so that
a rank-deficient history still gets the minimum-norm theta. Each
increment is formed once, when its residual enters the history. An
iteration applies the resolvent about twice, once to project the
Euler-Lagrange candidate and once to project the Anderson trial: 2.15
applications per iteration over the plane-concentration benchmark
workload. The projected iterate t * c reuses R(Q^(1/p) c) computed
during the projection of c, so accepting a step costs no further
application.

All of A(v), B(v), R(Q^(1/p) v) and the Nehari scale are computed by one
private operator, built once per (coefficient, exponents, resolvent)
with a single evaluation of the resolvent symbol.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .coefficients import max_node
from .errors import ConeExitError, IndefiniteFormError, ZeroFieldError
from .grid import RealField, TorusGrid, apply_multiplier_values, locate_peak
from .params import Exponents
from .resolvent import ResolventSpec, exp_smoothstep


def _signed_power(values: np.ndarray, exponent: float) -> np.ndarray:
    return np.sign(values) * np.abs(values) ** exponent


@dataclass(frozen=True)
class DualState:
    """A field together with its dual-functional diagnostics.

    `nehari_residual` is the derivative pairing J'(v)[v] = A(v) - B(v);
    it vanishes exactly on the Nehari manifold.
    """

    v: RealField
    energy: float
    quad_form: float
    nehari_residual: float
    gradient_norm: float

    @property
    def p_dual_mass(self) -> float:
        """A(v) = int |v|^p', recovered as (A - B) + B."""
        return self.nehari_residual + self.quad_form

    @property
    def on_nehari(self) -> bool:
        return abs(self.nehari_residual) <= 1e-8 * abs(self.p_dual_mass)


@dataclass(frozen=True)
class GroundState:
    """Result of a ground-state solve.

    `u_rescaled` is the recovered profile R(Q^(1/p) v) in rescaled
    coordinates; multiplying by `scale_factor` and evaluating at X/eps
    gives the physical-frame solution. `peak` is the location of
    max |u_rescaled| with sub-cell refinement. `fixed_point_residual` is
    the normalized defect ||sgn(v)|v|^(p'-1) - Q^(1/p) R(Q^(1/p) v)||_p
    / ||v||_{p'}^{p'-1} at exit.
    """

    state: DualState
    u_rescaled: RealField
    scale_factor: float
    peak: tuple[float, ...]
    exps: Exponents
    iterations: int
    converged: bool
    fixed_point_residual: float

    @property
    def v(self) -> RealField:
        return self.state.v

    @property
    def level(self) -> float:
        return self.state.energy


class _DualOperator:
    """The dual functional of one (coefficient, exponents, resolvent).

    Holds Q^(1/p), the resolvent symbol and the cell volume, each
    evaluated once. It is the only code that applies R(Q^(1/p) .) and
    computes A(v), B(v), the Nehari scale and a `DualState`; the public
    functions below build one per call, the solver one per solve.
    Methods take and return raw value arrays on `grid`.
    """

    def __init__(self, Qfield: RealField, exps: Exponents, spec: ResolventSpec):
        self.Qfield = Qfield
        self.grid = Qfield.grid
        self.exps = exps
        self.root = Qfield.values ** (1.0 / exps.p)
        self.symbol = spec.symbol_values(self.grid)
        self.cell_volume = self.grid.cell_volume

    def mass(self, values: np.ndarray) -> float:
        """A(v) = int |v|^p'."""
        return self.cell_volume * float(np.sum(np.abs(values) ** self.exps.p_dual))

    def resolve(self, values: np.ndarray) -> tuple[float, np.ndarray]:
        """B(v) and R(Q^(1/p) v)."""
        weighted = self.root * values
        resolved = apply_multiplier_values(RealField(self.grid, weighted), self.symbol).values
        return self.cell_volume * float(np.sum(weighted * resolved)), resolved

    def scale(self, a: float, b: float) -> float:
        """Nehari scale t_v = (A/B)^(1/(2-p')) from A(v) and B(v) > 0."""
        return (a / b) ** (1.0 / (2.0 - self.exps.p_dual))

    def gradient(self, values: np.ndarray, resolved: np.ndarray) -> np.ndarray:
        """Gradient density sgn(v)|v|^(p'-1) - Q^(1/p) R(Q^(1/p) v) of J."""
        return _signed_power(values, self.exps.p_dual - 1.0) - self.root * resolved

    def dual_norm(self, values: np.ndarray) -> float:
        """L^p norm, the dual pairing partner of the L^p' variable."""
        p = self.exps.p
        return (self.cell_volume * float(np.sum(np.abs(values) ** p))) ** (1.0 / p)

    def state(self, v: RealField) -> DualState:
        """Energy, B(v), Nehari defect and gradient size at v."""
        b, resolved = self.resolve(v.values)
        a = self.mass(v.values)
        return DualState(
            v=v,
            energy=a / self.exps.p_dual - 0.5 * b,
            quad_form=b,
            nehari_residual=a - b,
            gradient_norm=self.dual_norm(self.gradient(v.values, resolved)),
        )

    def project(self, c: np.ndarray):
        """Nehari-project raw values; returns (t, t*c, R(Q^(1/p) t*c), level), or None if B(c) <= 0."""
        b, resolved = self.resolve(c)
        if b <= 0.0:
            return None
        a = self.mass(c)
        t = self.scale(a, b)
        return t, t * c, t * resolved, (1.0 / self.exps.p_dual - 0.5) * t**self.exps.p_dual * a

    def project_or_raise(self, values: np.ndarray):
        """`project`, raising for a zero field or B(v) <= 0 in place of returning None."""
        if not np.any(values):
            raise ZeroFieldError("cannot project the zero field onto the Nehari manifold")
        projected = self.project(values)
        if projected is None:
            raise IndefiniteFormError(
                "nonpositive quadratic form: the ray through this field misses the Nehari manifold; "
                "filter it through the positive part of the resolvent symbol first"
            )
        return projected

    def initial_guess(self, center: tuple[float, ...] | None = None) -> RealField:
        """See `default_initial_guess`."""
        grid = self.grid
        if center is None:
            node = max_node(self.Qfield) or grid.origin_index
            center = tuple(float(grid.coordinate_axis[i]) for i in node)
        gauss = np.exp(-grid.periodic_distance2(center) / 2.0)
        return apply_multiplier_values(RealField(grid, gauss), np.maximum(self.symbol, 0.0))


def dual_energy(v: RealField, Qfield: RealField, exps: Exponents, spec: ResolventSpec) -> float:
    """J(v), defined for any v (not only on the Nehari manifold)."""
    return diagnose(v, Qfield, exps, spec).energy


def dual_gradient(v: RealField, Qfield: RealField, exps: Exponents, spec: ResolventSpec) -> RealField:
    """Gradient density of J at v against the quadrature inner product.

    J(v + t w) has derivative <grad, w> at t = 0 for every direction w.
    """
    op = _DualOperator(Qfield, exps, spec)
    _, resolved = op.resolve(v.values)
    return RealField(v.grid, op.gradient(v.values, resolved))


def nehari_scale(v: RealField, Qfield: RealField, exps: Exponents, spec: ResolventSpec) -> float:
    """The unique t > 0 with t*v on the Nehari manifold.

    Requires a nonzero field with positive quadratic form.
    """
    return _DualOperator(Qfield, exps, spec).project_or_raise(v.values)[0]


def nehari_project(v: RealField, Qfield: RealField, exps: Exponents, spec: ResolventSpec) -> DualState:
    """Scale a field onto the Nehari manifold and report its diagnostics."""
    op = _DualOperator(Qfield, exps, spec)
    return op.state(op.project_or_raise(v.values)[0] * v)


def diagnose(v: RealField, Qfield: RealField, exps: Exponents, spec: ResolventSpec) -> DualState:
    """Evaluate the dual functional, Nehari defect and gradient size at a field."""
    return _DualOperator(Qfield, exps, spec).state(v)


def default_initial_guess(
    Qfield: RealField,
    exps: Exponents,
    spec: ResolventSpec,
    center: tuple[float, ...] | None = None,
) -> RealField:
    """Unit-width Gaussian at the coefficient maximum, filtered into the cone.

    The raw Gaussian concentrates too much spectral mass inside the unit
    sphere, where the resolvent symbol is negative; its quadratic form
    comes out negative on every standard grid, so it cannot be projected
    onto the Nehari manifold. Keeping only the modes where the symbol is
    positive makes the quadratic form strictly positive by construction.
    An explicit `center` overrides the default placement (used to seed
    one solve per maximum for multi-peak coefficients); otherwise the
    bump sits at the coefficient argmax, or at the origin node for a
    (near-)constant coefficient where the argmax tie-break is arbitrary.
    """
    return _DualOperator(Qfield, exps, spec).initial_guess(center)


def random_initial_guess(grid: TorusGrid, spec: ResolventSpec, seed: int) -> RealField:
    """Seeded Gaussian-enveloped noise, filtered into the admissible cone.

    White noise times exp(-|x|^2 / (2 * 4^2)), keeping only the
    spectral modes where the resolvent symbol is positive so the
    quadratic form of the result is strictly positive. Two different
    seeds give genuinely independent starting points for cross-checking
    that the solver lands on the same level.
    """
    rng = np.random.default_rng(seed)
    noise = rng.standard_normal(grid.shape)
    envelope = np.exp(-grid.radius**2 / (2.0 * 4.0**2))
    positive_part = np.maximum(spec.symbol_values(grid), 0.0)
    return apply_multiplier_values(RealField(grid, noise * envelope), positive_part)


def dihedral_average(field: RealField) -> RealField:
    """Average of a field over axis permutations and reflections.

    Reflection along an axis is flip plus a one-cell roll so the node at
    coordinate -L stays fixed and the origin node maps to itself. For
    problems whose minimizer has the full symmetry, averaging a random
    start strips the neutral translation modes that otherwise drift for
    hundreds of iterations before the solver settles.
    """
    values = field.values
    dim = values.ndim
    import itertools

    total = np.zeros_like(values)
    count = 0
    for perm in itertools.permutations(range(dim)):
        base = np.transpose(values, perm)
        for signs in itertools.product((1, -1), repeat=dim):
            piece = base
            for axis, sign in enumerate(signs):
                if sign < 0:
                    piece = np.roll(np.flip(piece, axis=axis), 1, axis=axis)
            total = total + piece
            count += 1
    return RealField(field.grid, total / count)


def solve_ground_state(
    Qfield: RealField,
    exps: Exponents,
    spec: ResolventSpec,
    init: RealField | None = None,
    tol: float = 1e-6,
    max_iter: int = 500,
    anderson_memory: int = 5,
) -> GroundState:
    """Minimize the dual functional over the Nehari manifold.

    Safeguarded fixed-point iteration: each step proposes the projected
    Euler-Lagrange candidate and takes the first trial that does not
    raise the level: an Anderson-extrapolated combination of recent
    iterates, the plain candidate, then a line search mixing toward the
    candidate. If none is taken the loop ends by one of two exits: the
    best iterate seen is returned with `converged=False` when some trial
    kept the quadratic form positive, and a `ConeExitError` is raised
    when none did.
    """
    grid = Qfield.grid
    if init is not None and init.grid != grid:
        raise ValueError("initial guess lives on a different grid than the coefficient")
    if tol <= 0:
        raise ValueError("tol must be positive")
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")

    p, pd = exps.p, exps.p_dual
    op = _DualOperator(Qfield, exps, spec)
    if init is None:
        init = op.initial_guess()
    _, v, rw_v, energy = op.project_or_raise(init.values)

    hist_g: list[np.ndarray] = []  # g_j = v_j + r_j
    hist_r: list[np.ndarray] = []
    hist_d: list[np.ndarray] = []  # increments hist_r[k + 1] - hist_r[k]
    best = None
    iterations = max_iter
    res = np.inf
    converged = False
    for it in range(max_iter):
        res = op.dual_norm(op.gradient(v, rw_v)) / op.mass(v) ** ((pd - 1.0) / pd)
        if best is None or energy < best[2]:
            best = (v, rw_v, energy, res)
        if res <= tol:
            converged = True
            iterations = it
            break

        cand = _signed_power(op.root * rw_v, p - 1.0)

        def trials():
            """(projected trial or None, level slack), in the order they are tried."""
            projected_cand = op.project(cand)
            if projected_cand is not None:
                r = (projected_cand[1] - v).ravel()
                if hist_r:
                    hist_d.append(r - hist_r[-1])
                hist_g.append(v.ravel() + r)
                hist_r.append(r)
                if len(hist_r) > anderson_memory:
                    hist_g.pop(0)
                    hist_r.pop(0)
                    del hist_d[:1]
                if hist_d:
                    gram = np.array([[np.dot(a, b) for b in hist_d] for a in hist_d])
                    try:
                        theta, *_ = np.linalg.lstsq(gram, np.array([np.dot(a, r) for a in hist_d]), rcond=None)
                    except np.linalg.LinAlgError:
                        theta = None
                    if theta is not None:
                        # g_k - sum_j theta_j (g_{j+1} - g_j)
                        weights = np.append(theta, 1.0) - np.append(0.0, theta)
                        mixed = sum(wgt * g for wgt, g in zip(weights, hist_g)).reshape(grid.shape)
                        # slack shrinks with the residual, so late extrapolations
                        # cannot wander back up in level
                        yield op.project(mixed), min(0.5, res * res)
            yield projected_cand, 1e-12
            cand_norm = op.mass(cand) ** (1.0 / pd)
            if cand_norm > 0.0:
                matched = (op.mass(v) ** (1.0 / pd) / cand_norm) * cand
                for j in range(1, 12):
                    yield op.project(v + 0.5**j * (matched - v)), 1e-12

        found_positive = False
        for trial, slack in trials():
            if trial is not None:
                found_positive = True
                if trial[3] <= energy + slack * abs(energy):
                    _, v, rw_v, energy = trial
                    break
        else:
            if not found_positive:
                raise ConeExitError(
                    "no trial step keeps the quadratic form positive; "
                    "the iterate sits at the boundary of the admissible cone"
                )
            iterations = it
            break  # stagnant: nothing lowers the level

    if not converged and best is not None:
        v, rw_v, energy, res = best

    return _package(op, v, rw_v, res, iterations, converged)


def _package(op: _DualOperator, v, rw_v, res, iterations, converged) -> GroundState:
    grid = op.grid
    u = RealField(grid, rw_v)
    peak_node = np.unravel_index(int(np.argmax(np.abs(u.values))), grid.shape)
    if u.values[peak_node] < 0.0:
        # J is even, so fix the sign so the profile is positive at its peak
        v = -v
        u = RealField(grid, -u.values)
    peak = locate_peak(u)
    state = op.state(RealField(grid, v))
    return GroundState(
        state=state,
        u_rescaled=u,
        scale_factor=op.exps.scale_factor,
        peak=peak,
        exps=op.exps,
        iterations=iterations,
        converged=converged,
        fixed_point_residual=res,
    )


def limit_ground_state(
    value: float,
    grid: TorusGrid,
    exps: Exponents,
    spec: ResolventSpec,
    tol: float = 1e-6,
    max_iter: int = 500,
) -> GroundState:
    """Ground state for a constant coefficient, centered at the origin.

    Constant coefficients make the problem translation invariant on the
    torus, so the returned state is rolled to put the profile peak on
    the origin node; comparisons against concentrating states then need
    no alignment step.
    """
    if value <= 0:
        raise ValueError("constant coefficient must be positive")
    Qfield = RealField(grid, np.full(grid.shape, float(value)))
    gs = solve_ground_state(Qfield, exps, spec, tol=tol, max_iter=max_iter)
    peak_node = np.unravel_index(int(np.argmax(np.abs(gs.u_rescaled.values))), grid.shape)
    shift = tuple(int(o - i) for o, i in zip(grid.origin_index, peak_node))
    if not any(shift):
        return gs
    # A cyclic roll leaves every diagnostic of a constant-Q state unchanged,
    # so the solved state keeps them and only its fields and peak move. The
    # cold start sits on the origin node; this runs only if a solve drifts.
    axes = range(grid.dim)
    u = RealField(grid, np.roll(gs.u_rescaled.values, shift, axis=axes))
    v = RealField(grid, np.roll(gs.v.values, shift, axis=axes))
    return replace(gs, state=replace(gs.state, v=v), u_rescaled=u, peak=locate_peak(u))


def cutoff_projection(
    limit_profile: RealField,
    concentration_point: tuple[float, ...],
    Qfield: RealField,
    exps: Exponents,
    spec: ResolventSpec,
) -> tuple[RealField, float, float]:
    """Nehari data of a cutoff-localized copy of the limit profile.

    Builds phi(x) = eta(|eps*x - y|) * w0(x - y/eps) from the limit
    dual profile w0 and the physical concentration point y, with eta a
    smooth radial cutoff equal to 1 on [0, 1] and 0 outside [0, 2].
    Returns (phi, t, level) where t is the Nehari scale of phi and
    level = J(t * phi). As eps -> 0 the cutoff stops biting,
    t drifts to 1 and the level to the limit ground-state level: the
    comparison argument pinning concentration at coefficient maxima,
    made quantitative on the grid.
    """
    grid = limit_profile.grid
    if Qfield.grid != grid:
        raise ValueError("coefficient and limit profile live on different grids")
    eps = exps.eps
    rescaled_center = tuple(c / eps for c in concentration_point)
    node = grid.nearest_index(rescaled_center)
    shift = tuple(int(i - o) for i, o in zip(node, grid.origin_index))
    moved = np.roll(limit_profile.values, shift, axis=range(grid.dim)) if any(shift) else limit_profile.values
    rho = eps * np.sqrt(grid.periodic_distance2(rescaled_center))
    phi = RealField(grid, exp_smoothstep(rho - 1.0) * moved)
    op = _DualOperator(Qfield, exps, spec)
    t = op.project_or_raise(phi.values)[0]
    return phi, t, op.state(t * phi).energy
