"""Exponent bookkeeping and hypothesis checks."""
import numpy as np
import pytest

from helmlab import (
    OUTSIDE_HYPOTHESES_MARKER,
    BumpOnBackgroundQ,
    ConstantQ,
    Exponents,
    RealField,
    ResolventSpec,
    apply_multiplier_values,
    auto_delta,
    build_grid,
    sample_Q,
    solve_ground_state,
)
from helmlab.errors import NumericalError
from helmlab.grid import TorusGrid

from conftest import half_norm


def test_dual_exponent():
    assert Exponents(dim=3, s=1.0, p=5.0, k=1.0).p_dual == pytest.approx(1.25)
    assert Exponents(dim=3, s=1.0, p=3.0, k=1.0).p_dual == pytest.approx(1.5)
    # p' always lands in (1, 2) for p > 2
    for p in (2.1, 4.0, 9.0, 50.0):
        pd = Exponents(dim=3, s=1.0, p=p, k=1.0).p_dual
        assert 1.0 < pd < 2.0


def test_interaction_decay_rate():
    # (dim-1)/2 - (dim+1)/p at the standard 3D case
    assert Exponents(dim=3, s=1.0, p=5.0, k=1.0).lambda_p == pytest.approx(0.2)


def test_eps_and_scale_factor():
    exps = Exponents(dim=3, s=1.0, p=5.0, k=8.0)
    assert exps.eps == pytest.approx(0.125)
    assert exps.scale_factor == pytest.approx(8.0 ** (2.0 / 3.0))
    # s = 1, p = 4 gives exponent 1: the amplitude factor is k itself
    assert Exponents(dim=3, s=1.0, p=4.0, k=5.0).scale_factor == pytest.approx(5.0)


def test_eps_and_scale_factor_rescale_the_equation_with_k_to_the_2s():
    # u(x) = A w(x/eps) with A = scale_factor and eps = 1/k carries the
    # residual (-Delta)^s w - w - Q|w|^(p-2) w on the box of half-width L to
    # (-Delta)^s u - k^(2s) u - Q|u|^(p-2) u on the box of half-width eps L,
    # times A k^(2s): the physical grid's wavenumbers are k times the rescaled
    # ones, and A^(p-2) = k^(2s). So `model.k` is the wavenumber of the
    # equation with k^(2s) u; the form with k^2 u differs at every s != 1
    s, p, k = 0.9, 4.5, 4.0
    exps = Exponents(dim=3, s=s, p=p, k=k)
    rescaled = build_grid(3, 8.0, 32)
    physical = build_grid(3, 8.0 * exps.eps, 32)
    spec = ResolventSpec(s=s, delta=auto_delta(rescaled, s))
    Q = sample_Q(BumpOnBackgroundQ(centers=((0.125, 0.125, 0.125),)), rescaled, exps.eps)
    w = solve_ground_state(Q, exps, spec).u_rescaled.values
    amplitude = exps.scale_factor

    def residual(grid, u, wavenumber_term):
        laplacian = half_norm(grid) ** (2.0 * s)
        fractional = apply_multiplier_values(RealField(grid, u), laplacian).values
        return fractional - wavenumber_term * u - Q.values * np.abs(u) ** (p - 2.0) * u

    want = amplitude * k ** (2.0 * s) * residual(rescaled, w, 1.0)
    scale = np.linalg.norm(want)
    assert np.linalg.norm(residual(physical, amplitude * w, k ** (2.0 * s)) - want) <= 1e-12 * scale
    assert np.linalg.norm(residual(physical, amplitude * w, k**2) - want) > 0.1 * scale


def test_with_k_replaces_only_k():
    exps = Exponents(dim=3, s=1.0, p=5.0, k=2.0)
    other = exps.with_k(4.0)
    assert other.k == 4.0
    assert (other.dim, other.s, other.p) == (3, 1.0, 5.0)
    assert exps.k == 2.0  # original untouched


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(dim=0, s=1.0, p=5.0, k=1.0),
        dict(dim=2.5, s=1.0, p=5.0, k=1.0),
        dict(dim=3, s=0.0, p=5.0, k=1.0),
        dict(dim=3, s=1.0, p=2.0, k=1.0),
        dict(dim=3, s=1.0, p=1.5, k=1.0),
        dict(dim=3, s=1.0, p=5.0, k=0.0),
    ],
)
def test_constructor_rejects_bad_values(kwargs):
    with pytest.raises(ValueError):
        Exponents(**kwargs)


NAN = float("nan")


@pytest.mark.parametrize(
    "cls, kwargs",
    [
        (ResolventSpec, dict(s=NAN, delta=0.1)),
        (ResolventSpec, dict(s=1.0, delta=NAN)),
        (Exponents, dict(dim=3, s=NAN, p=5.0, k=1.0)),
        (Exponents, dict(dim=3, s=1.0, p=NAN, k=1.0)),
        (Exponents, dict(dim=3, s=1.0, p=5.0, k=NAN)),
        (TorusGrid, dict(dim=2, half_width=NAN, points_per_axis=16)),
        (ConstantQ, dict(value=NAN)),
        (BumpOnBackgroundQ, dict(background=NAN)),
        (BumpOnBackgroundQ, dict(amplitude=NAN)),
        (BumpOnBackgroundQ, dict(width=NAN)),
    ],
    ids=lambda x: x.__name__ if isinstance(x, type) else ",".join(k for k, v in x.items() if v != v),
)
def test_constructors_reject_nan(cls, kwargs):
    # `x <= 0` is false for NaN, so every positivity check is written to fail on it
    with pytest.raises((ValueError, NumericalError)):
        cls(**kwargs)


def test_admissible_window_for_p():
    lo, hi = Exponents(dim=3, s=1.0, p=5.0, k=1.0).p_window()
    assert lo == pytest.approx(4.0)
    assert hi == pytest.approx(6.0)


def test_standard_case_within_hypotheses():
    exps = Exponents(dim=3, s=1.0, p=5.0, k=1.0)
    report = exps.hypothesis_report()
    assert [c.name for c in report] == ["dimension", "fractional order", "nonlinearity exponent"]
    assert all(c.passed for c in report)
    assert exps.within_hypotheses


def test_low_dimension_flagged():
    exps = Exponents(dim=2, s=1.0, p=5.0, k=1.0)
    assert not exps.within_hypotheses
    failed = [c.name for c in exps.hypothesis_report() if not c.passed]
    assert "dimension" in failed


def test_exponent_outside_window_flagged():
    # p = 3 sits below the admissible window (4, 6) at dim 3, s = 1
    exps = Exponents(dim=3, s=1.0, p=3.0, k=1.0)
    assert not exps.within_hypotheses
    failed = {c.name for c in exps.hypothesis_report() if not c.passed}
    assert failed == {"nonlinearity exponent"}


def test_fractional_order_outside_window_flagged():
    # at dim 3 the admissible window for s is (3/4, 3/2)
    exps = Exponents(dim=3, s=0.5, p=5.0, k=1.0)
    failed = {c.name for c in exps.hypothesis_report() if not c.passed}
    assert "fractional order" in failed


def test_marker_text_is_stable():
    # output files key on this exact string
    assert OUTSIDE_HYPOTHESES_MARKER == "outside paper hypotheses"
