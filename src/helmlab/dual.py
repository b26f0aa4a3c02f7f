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
candidate, and mixes of the iterate toward the candidate at weights
1/2, 1/4 and 1/8, and every trial goes through one acceptance test: it
must stay in the positive cone and not raise the Nehari level beyond a
slack. Over one levels + sweep cycle of the plane-concentration
benchmark workload, 56 of 64 iterations accept the Anderson trial and 8
the plain candidate. Over 3,000 solve, levels and sweep configs drawn as the config-space
test draws them, the counts were 9,047, 877 and 2,038 (667, 1,053,
318), with 932 candidates outside the cone. When no trial is accepted,
whether none lowers the level or every one left the cone, the solve
returns its best iterate unconverged; 17 of those drawn solves ended
so, none with every trial outside the cone. Speed comes from the
Anderson extrapolation over a short history of m = 5 iterates. With
g_i = v_i + r_i the projected candidate of iterate v_i and r_i its
fixed-point residual, the trial is

    g_k - sum_j theta_j (g_{j+1} - g_j),

whose linearised residual r_k - D theta is what theta minimizes; D
holds the m - 1 increments r_{j+1} - r_j between consecutive
residuals. The history is three preallocated (m - 1) x N arrays whose
rows hold the increments r_{j+1} - r_j, g_{j+1} - g_j and
R(Q^(1/p) g_{j+1}) - R(Q^(1/p) g_j). The newest g_k, R(Q^(1/p) g_k)
and r_k are parked in the row that the next push overwrites, each once
the iteration has read that row's increment, so the next candidate's
increments are subtracted in place and no copy of the newest candidate
lives outside the history. Each new candidate overwrites the oldest row
of all three, in rotation, and adds one row and column to the Gram
matrix D^T D, computed by one product of the history with the new
increment.
Theta solves D^T D theta = D^T r_k (Walker & Ni, SIAM J. Numer. Anal.
49, 2011) by Gaussian elimination in Python floats, pivoting on the
largest remaining diagonal entry; once that pivot is no larger than
eps times the largest diagonal entry times the number of increments
held, lstsq's default relative cutoff, the increments left depend on
those taken and get theta_j = 0, and a history with no increment above
the cutoff skips the trial. The trial and its resolved field are each
one more product, of theta with a history. These products, and the sum
int c w for A(c) below, are `np.einsum` calls with optimize=False,
which run numpy's own single-thread loops, so a solve runs no BLAS or
LAPACK code: at a few rows by a whole grid, BLAS splits a product over
threads whose split changes the last bits of the result with the
thread count, and a worker parked after idle takes milliseconds to
wake, several times per iteration, so a cold command waited longer on
threads than it spent computing; and the results would depend on the
CPU kernel OpenBLAS selects. An iteration applies the resolvent once,
to project the Euler-Lagrange candidate: 1.16 applications per
iteration (74 in 64) over one levels + sweep cycle of the
plane-concentration benchmark workload, each solve's start included.
Three exact identities spare the rest: R is linear, so the Anderson
trial's resolved field is the same combination of the resolved
increments, and a mix's is the same mix of the iterate's and the
candidate's, read off the candidate's projection; on the Nehari
manifold A(v) = level / (1/p' - 1/2); and the candidate
c = sgn(w)|w|^(p-1), with w = Q^(1/p) R(Q^(1/p) v), has
A(c) = int |w|^p = int c w since (p-1)p' = p. One w serves both the
residual and the candidate, and the projected iterate t * c reuses
R(Q^(1/p) c) from the projection of c: accepting a step costs no application.
A projection scales the field and its resolved field in place, since
every array the solver projects is its own; the public functions and
the solve's start project a copy, so no caller's array is written. The
plain step copies the candidate out of its history rows, and the mixes
rebuild the unscaled candidate from the iterate by the candidate's own
operations. A solve's peak is then the history, the iterate and its
resolved field, Q^(1/p), the symbol and one resolvent application to
the candidate: about 19.7 grid-sized arrays on 3D 32^3 and 2D 128^2.

All of A(v), B(v), R(Q^(1/p) v) and the Nehari scale are computed by one
private operator, built once per (coefficient, exponents, resolvent)
with a single evaluation of the resolvent symbol.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .coefficients import ConstantQ, max_node, sample_Q
from .errors import NumericalError
from .grid import RealField, TorusGrid, _roll_onto, apply_multiplier_values, locate_peak, peak_node
from .params import Exponents
from .resolvent import ResolventSpec, exp_smoothstep


_ANDERSON_MEMORY = 5  # iterates in the Anderson history


def _solve_gram(gram: list[list[float]], rhs: list[float]) -> list[float] | None:
    """theta with gram @ theta = rhs for a small symmetric positive semidefinite matrix, or None.

    Gaussian elimination in Python floats, pivoting on the largest
    remaining diagonal entry. A pivot no larger than n * eps times the
    largest diagonal entry, lstsq's default relative cutoff, marks the
    directions left as dependent on the ones taken, and their theta_j
    are 0. None when an entry is not finite, no direction is taken or
    theta is not finite.
    """
    if not all(math.isfinite(x) for row in (*gram, rhs) for x in row):
        return None
    n = len(rhs)
    a = [row[:] for row in gram]
    b = rhs[:]
    cutoff = n * sys.float_info.epsilon * max(abs(a[i][i]) for i in range(n))
    left, taken = list(range(n)), []
    while left:
        k = max(left, key=lambda i: a[i][i])
        if not a[k][k] > cutoff:  # also refuses a pivot that overflowed to NaN
            break
        left.remove(k)
        taken.append(k)
        for i in left:
            f = a[i][k] / a[k][k]
            for j in left:
                a[i][j] -= f * a[k][j]
            b[i] -= f * b[k]
    if not taken:
        return None
    theta = [0.0] * n
    for pos in reversed(range(len(taken))):
        k = taken[pos]
        theta[k] = (b[k] - sum(a[k][j] * theta[j] for j in taken[pos + 1 :])) / a[k][k]
    return theta if all(map(math.isfinite, theta)) else None


def _signed_power(values: np.ndarray, exponent: float) -> np.ndarray:
    """sgn(v)|v|^exponent, built in one new array."""
    out = np.abs(values)
    out **= exponent
    return np.copysign(out, values, out=out)


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


@dataclass(frozen=True)
class GroundState:
    """Result of a ground-state solve.

    `u_rescaled` is the recovered profile R(Q^(1/p) v) in rescaled
    coordinates; multiplying by `exps.scale_factor` and evaluating at
    X/eps gives the physical-frame solution of (-Delta)^s u - k^(2s) u =
    Q(X) |u|^(p-2) u (see `Exponents.scale_factor`). `peak` is the location of
    max |u_rescaled| with sub-cell refinement. `fixed_point_residual` is
    the normalized defect ||sgn(v)|v|^(p'-1) - Q^(1/p) R(Q^(1/p) v)||_p
    / ||v||_{p'}^{p'-1} at exit.
    """

    state: DualState
    u_rescaled: RealField
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
        if exps.s != spec.s:
            raise ValueError(f"the exponents' order s = {exps.s} differs from the resolvent's s = {spec.s}")
        self.Qfield = Qfield
        self.grid = Qfield.grid
        self.exps = exps
        self.root = Qfield.values ** (1.0 / exps.p)
        self.symbol = spec.symbol_values(self.grid)
        self.cell_volume = self.grid.cell_volume

    def mass(self, values: np.ndarray) -> float:
        """A(v) = int |v|^p'."""
        powered = np.abs(values)
        powered **= self.exps.p_dual
        return self.cell_volume * float(np.sum(powered))

    def resolve(self, values: np.ndarray, resolved: np.ndarray | None = None) -> tuple[float, np.ndarray]:
        """B(v) and R(Q^(1/p) v); a given `resolved` is taken as R(Q^(1/p) v), so B costs no transform."""
        weighted = self.root * values
        if resolved is None:
            resolved = apply_multiplier_values(RealField(self.grid, weighted), self.symbol).values
        weighted *= resolved
        return self.cell_volume * float(np.sum(weighted)), resolved

    def gradient(self, values: np.ndarray, w: np.ndarray) -> np.ndarray:
        """Gradient density sgn(v)|v|^(p'-1) - w of J, given w = Q^(1/p) R(Q^(1/p) v)."""
        grad = _signed_power(values, self.exps.p_dual - 1.0)
        grad -= w
        return grad

    def gradient_norm(self, values: np.ndarray, w: np.ndarray) -> float:
        """L^p norm of the gradient density, the dual pairing partner of the L^p' variable.

        The powers are taken in the gradient's own array.
        """
        p = self.exps.p
        powered = self.gradient(values, w)
        np.abs(powered, out=powered)
        powered **= p
        return (self.cell_volume * float(np.sum(powered))) ** (1.0 / p)

    def candidate(self, w: np.ndarray) -> tuple[np.ndarray, float]:
        """Euler-Lagrange candidate c = sgn(w)|w|^(p-1) of w = Q^(1/p) R(Q^(1/p) v), and A(c).

        (p-1)p' = p, so A(c) = int |w|^p = int c w comes from the arrays
        that build c, with no power pass of its own.
        """
        cand = _signed_power(w, self.exps.p - 1.0)
        return cand, self.cell_volume * float(np.einsum("i,i->", cand.ravel(), w.ravel(), optimize=False))

    def state(self, v: RealField, resolved: np.ndarray | None = None) -> DualState:
        """Energy, B(v) and Nehari defect at v; `resolved` as in `resolve`."""
        b, _ = self.resolve(v.values, resolved)
        a = self.mass(v.values)
        return DualState(v=v, energy=a / self.exps.p_dual - 0.5 * b, quad_form=b, nehari_residual=a - b)

    def project(self, c: np.ndarray, resolved: np.ndarray | None = None, a: float | None = None):
        """Nehari-project raw values in place; returns (t, t*c, R(Q^(1/p) t*c), level).

        t*c and its resolved field are `c` and R(Q^(1/p) c) scaled in
        place, so `c` and a given `resolved` are written; the solver
        projects only arrays of its own. A refusal is
        (None, None, R(Q^(1/p) c), None), with `c` left as it was:
        B(c) <= 0, or a scale t that is 0 or not finite, since with p'
        near 2 the exponent 1/(2-p') is huge and (A/B)^(1/(2-p'))
        underflows or overflows. A given `resolved` (R(Q^(1/p) c), as in
        `resolve`) or `a` (A(c)) is used in place of computing it.
        """
        b, resolved = self.resolve(c, resolved)
        refusal = None, None, resolved, None
        if b <= 0.0:
            return refusal
        if a is None:
            a = self.mass(c)
        try:
            t = (a / b) ** (1.0 / (2.0 - self.exps.p_dual))
        except OverflowError:
            return refusal
        if not 0.0 < t < np.inf:
            return refusal
        c *= t
        resolved *= t
        return t, c, resolved, (1.0 / self.exps.p_dual - 0.5) * t**self.exps.p_dual * a

    def project_or_raise(self, values: np.ndarray):
        """`project` of a copy, raising for a zero field, B(v) <= 0 or a scale outside the float range in place of a refusal.

        `values` is not written. The error reads B(v) off the refusal's
        R(Q^(1/p) v), so it costs no second transform.
        """
        projected = self.project(values.copy())
        if projected[0] is not None:
            return projected
        if not np.any(values):
            raise NumericalError("cannot project the zero field onto the Nehari manifold")
        b, _ = self.resolve(values, projected[2])
        if b <= 0.0:
            raise NumericalError(
                "nonpositive quadratic form: the ray through this field misses the Nehari manifold; "
                "filter it through the positive part of the resolvent symbol first"
            )
        ratio, exponent = self.mass(values) / b, 1.0 / (2.0 - self.exps.p_dual)
        where = "overflows" if ratio > 1.0 else "underflows to 0, so the projected field is zero"
        raise NumericalError(
            f"the Nehari scale (A/B)^(1/(2-p')) = ({ratio:.3g})^({exponent:.3g}) {where}; "
            "model.p is too close to 2"
        )

    def initial_guess(self) -> RealField:
        """Unit-width Gaussian at the coefficient maximum, filtered into the cone.

        The raw Gaussian concentrates too much spectral mass inside the unit
        sphere, where the resolvent symbol is negative; its quadratic form
        comes out negative on every standard grid, so it cannot be projected
        onto the Nehari manifold. Keeping only the modes where the symbol is
        positive makes the quadratic form strictly positive by construction.
        The bump sits on the largest node of the sampled coefficient, or on
        the origin node for a (near-)constant coefficient where the argmax
        tie-break is arbitrary. This is the solver's cold start.
        """
        grid = self.grid
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
    return RealField(v.grid, op.gradient(v.values, op.root * resolved))


def nehari_scale(v: RealField, Qfield: RealField, exps: Exponents, spec: ResolventSpec) -> float:
    """The unique t > 0 with t*v on the Nehari manifold.

    Requires a nonzero field with positive quadratic form.
    """
    return _DualOperator(Qfield, exps, spec).project_or_raise(v.values)[0]


def nehari_project(v: RealField, Qfield: RealField, exps: Exponents, spec: ResolventSpec) -> DualState:
    """Scale a field onto the Nehari manifold and report its diagnostics."""
    op = _DualOperator(Qfield, exps, spec)
    _, tv, resolved, _ = op.project_or_raise(v.values)
    return op.state(RealField(v.grid, tv), resolved)


def diagnose(v: RealField, Qfield: RealField, exps: Exponents, spec: ResolventSpec) -> DualState:
    """Evaluate the dual functional, quadratic form and Nehari defect at a field."""
    return _DualOperator(Qfield, exps, spec).state(v)


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
) -> GroundState:
    """Minimize the dual functional over the Nehari manifold.

    Safeguarded fixed-point iteration: each step proposes the projected
    Euler-Lagrange candidate and takes the first trial that does not
    raise the level: an Anderson-extrapolated combination of recent
    iterates, the plain candidate, then mixes toward the candidate at
    weights 1/2, 1/4 and 1/8. If none is taken, whether every trial left
    the positive cone or none lowered the level, and when `max_iter`
    iterations do not reach `tol`, the best iterate seen is returned with
    `converged=False`.
    """
    grid = Qfield.grid
    if init is not None and init.grid != grid:
        raise NumericalError("initial guess lives on a different grid than the coefficient")
    if not tol > 0:
        raise ValueError("tol must be positive")
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")

    pd = exps.p_dual
    op = _DualOperator(Qfield, exps, spec)
    _, v, rw_v, energy = op.project_or_raise((op.initial_guess() if init is None else init).values)
    # only the start projection reads the seed and v is a fresh array, so a seed the caller
    # does not keep is freed here (on CPython 3.11+, where a call takes over its argument references)
    del init

    # Anderson history: row j of each array holds one increment between
    # consecutive projected candidates, written in rotation over the rows;
    # the row the next push overwrites holds the newest candidate itself
    slots = _ANDERSON_MEMORY - 1
    d_r = np.empty((slots, v.size))  # r_{j+1} - r_j
    d_g = np.empty((slots, v.size))  # g_{j+1} - g_j
    d_rg = np.empty((slots, v.size))  # R(Q^(1/p) g_{j+1}) - R(Q^(1/p) g_j)
    gram = np.empty((slots, slots))  # d_r d_r^T, one row and column per push
    pushes = 0
    parked = False  # row pushes % slots holds g_k, R(Q^(1/p) g_k) and r_k of the newest projected candidate
    best = None
    for it in range(max_iter):
        a_v = energy / (1.0 / pd - 0.5)  # A(v) on the Nehari manifold
        w = op.root * rw_v  # shared by the residual and the candidate
        res = op.gradient_norm(v, w) / a_v ** ((pd - 1.0) / pd)
        if best is None or energy < best[2]:
            best = (v, rw_v, energy, res)
        if res <= tol:
            return _package(op, v, rw_v, res, it, True)

        cand, a_cand = op.candidate(w)
        del w  # no full-grid temporary is held through the trials

        # the step is the first trial that stays in the cone and does not
        # raise the level beyond its slack, or None when no trial does;
        # a projection scales the candidate in place
        step = None
        t_cand, g, rg, level_cand = op.project(cand, a=a_cand)
        del cand
        if t_cand is not None:
            g, rg = g.ravel(), rg.ravel()
            r = g - v.ravel()
            row = pushes % slots
            if parked:  # the row holds the previous candidate: subtract it in place
                np.subtract(g, d_g[row], out=d_g[row])
                np.subtract(rg, d_rg[row], out=d_rg[row])
                np.subtract(r, d_r[row], out=d_r[row])
                pushes += 1
            filled = min(pushes, slots)
            theta = None
            if filled:  # every projected candidate after the first has just pushed `row`
                history = d_r[:filled]
                gram[row, :filled] = gram[:filled, row] = np.einsum("ji,i->j", history, d_r[row], optimize=False)
                rhs = np.einsum("ji,i->j", history, r, optimize=False)
                theta = _solve_gram(gram[:filled, :filled].tolist(), rhs.tolist())
            # park the candidate in the row the next push overwrites, each array
            # once this iteration has read that row's increment; then only
            # the history holds it
            park = pushes % slots
            parked = True
            d_r[park] = r
            del r

            def combine(last, diffs):
                """last - theta . diffs on the grid, written over the product."""
                out = np.einsum("j,ji->i", theta, diffs[:filled], optimize=False)
                return np.subtract(last, out, out=out).reshape(grid.shape)

            # g_k - sum_j theta_j (g_{j+1} - g_j); R is linear, so the same
            # theta on the resolved increments resolves it
            trial = None if theta is None else combine(g, d_g)
            d_g[park] = g
            resolved_trial = None if theta is None else combine(rg, d_rg)
            d_rg[park] = rg
            del g, rg
            if trial is not None:
                # the slack shrinks with the residual, so late extrapolations
                # cannot wander back up in level
                trial = op.project(trial, resolved_trial)
                del resolved_trial
                if trial[0] is not None and trial[3] <= energy + min(0.5, res * res) * abs(energy):
                    step = trial
                del trial  # a refused trial's arrays are not held through the next tiers
            if step is None and level_cand <= energy + 1e-12 * abs(energy):
                # copied out of the rows, which the next push overwrites
                step = t_cand, d_g[park].reshape(grid.shape).copy(), d_rg[park].reshape(grid.shape).copy(), level_cand
        if step is None and a_cand > 0.0:
            kappa = (a_v / a_cand) ** (1.0 / pd)
            # the projection scaled c in place, so c is rebuilt from the iterate
            # by the same operations; R is linear: the projection's t R(Q^(1/p) c),
            # parked in the history, or a refusal's R(Q^(1/p) c) resolves the mixes
            matched, _ = op.candidate(op.root * rw_v)
            matched *= kappa
            resolved_cand = kappa * rg if t_cand is None else (kappa / t_cand) * d_rg[park].reshape(grid.shape)
            for mix in (0.5, 0.25, 0.125):
                trial = op.project(v + mix * (matched - v), rw_v + mix * (resolved_cand - rw_v))
                if trial[0] is not None and trial[3] <= energy + 1e-12 * abs(energy):
                    step = trial
                    break
        if step is None:
            break  # stagnant: nothing lowers the level
        _, v, rw_v, energy = step
    else:
        it = max_iter

    v, rw_v, _, res = best
    return _package(op, v, rw_v, res, it, False)


def _package(op: _DualOperator, v, rw_v, res, iterations, converged) -> GroundState:
    grid = op.grid
    u = RealField(grid, rw_v)
    if u.values[peak_node(u.values)] < 0.0:
        # J is even, so fix the sign so the profile is positive at its peak
        v = -v
        u = RealField(grid, -u.values)
    peak = locate_peak(u)
    state = op.state(RealField(grid, v), u.values)
    return GroundState(
        state=state,
        u_rescaled=u,
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
    """Ground state for the constant coefficient `value`: a plain `solve_ground_state`.

    A constant coefficient makes the problem translation invariant on
    the torus, so the position of the state carries no meaning: callers
    that compare it with another state place it by `peak_node`.
    """
    return solve_ground_state(sample_Q(ConstantQ(value), grid), exps, spec, tol=tol, max_iter=max_iter)


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
    smooth radial cutoff equal to 1 on [0, 1] and 0 outside [0, 2]. The
    profile is rolled from its own `peak_node` onto the node nearest
    y/eps, so it may sit anywhere on the grid.
    Returns (phi, t, level) where t is the Nehari scale of phi and
    level = J(t * phi). As eps -> 0 the cutoff stops biting,
    t drifts to 1 and the level to the limit ground-state level: the
    comparison argument pinning concentration at coefficient maxima,
    made quantitative on the grid.
    """
    grid = limit_profile.grid
    if Qfield.grid != grid:
        raise NumericalError("coefficient and limit profile live on different grids")
    eps = exps.eps
    rescaled_center = tuple(c / eps for c in concentration_point)
    moved = _roll_onto(limit_profile.values, peak_node(limit_profile.values), grid.nearest_index(rescaled_center))
    rho = eps * np.sqrt(grid.periodic_distance2(rescaled_center))
    phi = RealField(grid, exp_smoothstep(rho - 1.0) * moved)
    op = _DualOperator(Qfield, exps, spec)
    t, tphi, resolved, _ = op.project_or_raise(phi.values)
    return phi, t, op.state(RealField(grid, tphi), resolved).energy
