"""Coefficient families and their sampling in the rescaled frame."""
import tracemalloc
import warnings

import numpy as np
import pytest

from helmlab import (
    BumpOnBackgroundQ,
    ConstantQ,
    RealField,
    build_grid,
    sample_Q,
)
from helmlab.errors import NumericalError
from helmlab.coefficients import max_node


def test_constant_coefficient():
    Q = ConstantQ(2.0)
    assert Q.sup_value == 2.0
    assert Q.background_value == 2.0
    assert Q.maxima == []  # attained everywhere, so no point for sample_Q to check against the window
    grid = build_grid(2, 16.0, 16)
    field = sample_Q(Q, grid, eps=0.25)
    assert np.all(field.values == 2.0)
    with pytest.raises(ValueError, match="must be positive"):
        ConstantQ(-1.0)


def test_bump_values():
    Q = BumpOnBackgroundQ(background=0.5, amplitude=1.0, width=1.0, centers=((0.0, 0.0),))
    assert Q.sup_value == pytest.approx(1.5)
    assert Q.background_value == pytest.approx(0.5)
    assert Q.maxima == [(0.0, 0.0)]
    # peak value at the center, pure background far away
    assert Q.evaluate(np.array(0.0), np.array(0.0)) == pytest.approx(1.5)
    assert Q.evaluate(np.array(50.0), np.array(0.0)) == pytest.approx(0.5, abs=1e-12)
    # one width out: background + amplitude * exp(-1/2)
    assert Q.evaluate(np.array(1.0), np.array(0.0)) == pytest.approx(0.5 + np.exp(-0.5))


def test_bump_with_two_centers():
    Q = BumpOnBackgroundQ(background=0.0, amplitude=2.0, width=0.5, centers=((-4.0, 0.0), (4.0, 0.0)))
    assert Q.maxima == [(-4.0, 0.0), (4.0, 0.0)]
    v = Q.evaluate(np.array(-4.0), np.array(0.0))
    assert v == pytest.approx(2.0, abs=1e-10)  # the other bump is 8 widths away


def test_a_lone_bump_peaks_at_its_centre():
    # mean shift from a lone centre takes no step: the mode is the centre and
    # the sup background + amplitude, bit for bit
    Q = BumpOnBackgroundQ(background=0.5, amplitude=1.0, width=1.0, centers=((0.125, 0.125, 0.125),))
    assert Q.maxima == [(0.125, 0.125, 0.125)]
    assert Q.sup_value == 1.5


def test_overlapping_bumps_have_one_maximum_between_them():
    # unit bumps at +-0.5 merge: one maximum, at the origin, of 0.5 + 2 e^(-1/8)
    Q = BumpOnBackgroundQ(background=0.5, amplitude=1.0, width=1.0, centers=((0.5, 0.0, 0.0), (-0.5, 0.0, 0.0)))
    [mode] = Q.maxima
    assert max(map(abs, mode)) <= 1e-11
    assert Q.sup_value == pytest.approx(0.5 + 2.0 * np.exp(-0.125), rel=1e-15)


def test_bumps_two_widths_apart_merge_into_a_flat_maximum():
    # at 2 widths apart the origin is a maximum flat to fourth order, where
    # mean shift crawls: the stretched steps reach it within the merge distance
    Q = BumpOnBackgroundQ(background=0.5, amplitude=1.0, width=1.0, centers=((1.0, 0.0), (-1.0, 0.0)))
    [mode] = Q.maxima
    assert max(map(abs, mode)) <= 1e-3
    assert Q.sup_value == pytest.approx(0.5 + 2.0 * np.exp(-0.5), rel=1e-15)


def test_bumps_four_widths_apart_peak_inside_their_centres():
    # each maximum x solves x = 2 tanh(2x), at +-1.99865, and the sup is 1.500336,
    # not 1.5: the other bump adds its tail
    Q = BumpOnBackgroundQ(background=0.5, amplitude=1.0, width=1.0, centers=((2.0, 0.0), (-2.0, 0.0)))
    (right, y0), (left, y1) = Q.maxima
    assert (y0, y1) == (0.0, 0.0) and left == -right
    assert right == pytest.approx(2.0 * np.tanh(2.0 * right), abs=1e-12)
    assert right == pytest.approx(1.99865, abs=1e-5)
    assert Q.sup_value == pytest.approx(1.500336, abs=1e-6)
    assert Q.sup_value == float(Q.evaluate(np.array(right), np.array(0.0)))


def test_sample_raises_on_a_value_above_the_supremum():
    # a coefficient whose sup misses a maximum samples above it: NumericalError, not a wrong level
    class LoneBumpSup(BumpOnBackgroundQ):
        @property
        def sup_value(self):
            return self.background + self.amplitude

    grid = build_grid(2, 4.0, 16)
    centers = ((0.5, 0.0), (-0.5, 0.0))
    with pytest.raises(NumericalError, match="above its computed supremum 1.5: a maximum was missed"):
        sample_Q(LoneBumpSup(centers=centers), grid)
    assert np.max(sample_Q(BumpOnBackgroundQ(centers=centers), grid).values) <= 0.5 + 2.0 * np.exp(-0.125)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(background=-0.1),
        dict(amplitude=0.0),
        dict(width=0.0),
        dict(centers=()),
        dict(centers=((0.0, 0.0), (1.0,))),
    ],
)
def test_bump_validation(kwargs):
    with pytest.raises(ValueError):
        BumpOnBackgroundQ(**kwargs)


def test_bump_evaluation_needs_one_coordinate_per_axis():
    Q = BumpOnBackgroundQ(centers=((0.0, 0.0),))
    with pytest.raises(ValueError, match="2-dimensional, got 3 coordinates"):
        Q.evaluate(0.0, 0.0, 0.0)
    with pytest.raises(ValueError, match="2-dimensional, got 1 coordinates"):
        Q.evaluate(np.zeros(4))


def test_sample_rescaling_flattens_bumps():
    # Q(eps x): shrinking eps widens the bump in the computational frame
    Q = BumpOnBackgroundQ(background=0.5, amplitude=1.0, width=1.0, centers=((0.0, 0.0),))
    grid = build_grid(2, 16.0, 32)
    tight = sample_Q(Q, grid, eps=1.0)
    flat = sample_Q(Q, grid, eps=0.125)
    x, y = np.meshgrid(grid.coordinate_axis, grid.coordinate_axis, indexing="ij")
    probe = (np.abs(x - 4.0) < 1e-9) & (np.abs(y) < 1e-9)
    # at x = 4: eps = 1 sees background, eps = 0.125 still sees the bump
    assert tight.values[probe][0] == pytest.approx(0.5, abs=1e-3)
    assert flat.values[probe][0] == pytest.approx(0.5 + np.exp(-0.125), rel=1e-10)


def test_sample_matches_direct_evaluation():
    Q = BumpOnBackgroundQ(background=0.2, amplitude=1.0, width=2.0, centers=((1.0, -3.0),))
    grid = build_grid(2, 16.0, 16)
    eps = 0.5
    field = sample_Q(Q, grid, eps)
    # the full-mesh formula: open axes must not change a bit of it
    mesh = np.meshgrid(grid.coordinate_axis, grid.coordinate_axis, indexing="ij")
    want = Q.evaluate(*(eps * m for m in mesh))
    assert np.array_equal(field.values, want)


def test_sample_holds_only_its_result():
    # Q(eps x) is evaluated on the grid's open axes, so no full coordinate mesh
    # is built, or kept on the grid: after the call only the result stays, and
    # the peak, the bump's few full-grid working arrays, stays within four
    grid = build_grid(3, 8.0, 32)
    Q = BumpOnBackgroundQ(background=0.5, amplitude=1.0, width=1.0, centers=((0.125, 0.125, 0.125),))
    array = 8 * grid.size
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        field = sample_Q(Q, grid, eps=0.5)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert field.values.shape == grid.shape and min(field.values.strides) > 0
    assert held - before <= 1.05 * array
    assert peak - before <= 4 * array


def test_sample_warns_when_feature_leaves_box():
    Q = BumpOnBackgroundQ(background=0.5, amplitude=1.0, width=1.0, centers=((30.0, 0.0),))
    grid = build_grid(2, 16.0, 16)
    with pytest.warns(UserWarning, match="outside the physical window"):
        sample_Q(Q, grid, eps=0.5)  # window is [-8, 8)^2, center at 30


@pytest.mark.parametrize("center, outside", [((-2.0, 0.0), False), ((2.0, 0.0), True)])
def test_sample_warns_only_outside_the_half_open_window(center, outside):
    # the window at eps = 1/8 is [-2, 2)^2: -2 is node 0, +2 is one cell past the last node
    Q = BumpOnBackgroundQ(background=0.5, amplitude=1.0, width=1.0, centers=(center,))
    grid = build_grid(2, 16.0, 32)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        field = sample_Q(Q, grid, eps=0.125)
    assert [str(w.message).startswith(f"coefficient maximum at {center}") for w in caught] == [True] * outside
    if not outside:
        assert max_node(field) == grid.nearest_index((-16.0, 0.0))


def test_sample_rejects_negative_fields():
    class Dip(ConstantQ):
        def evaluate(self, *coords):
            return np.full_like(np.asarray(coords[0], dtype=float), -0.5)

    grid = build_grid(1, 16.0, 16)
    with pytest.raises(NumericalError, match="negative somewhere"):
        sample_Q(Dip(1.0), grid, eps=1.0)


def test_sample_rejects_nonpositive_eps():
    grid = build_grid(1, 16.0, 16)
    with pytest.raises(ValueError):
        sample_Q(ConstantQ(1.0), grid, eps=0.0)


def test_max_node_only_for_a_coefficient_with_spread():
    grid = build_grid(2, 16.0, 16)
    assert max_node(sample_Q(ConstantQ(1.0), grid)) is None
    nudged = np.ones(grid.shape)
    nudged[3, 5] += 1e-13
    assert max_node(RealField(grid, nudged)) is None
    bump = sample_Q(BumpOnBackgroundQ(centers=((4.0, -2.0),)), grid)
    node = max_node(bump)
    assert node == (10, 7)
    assert tuple(float(grid.coordinate_axis[i]) for i in node) == (4.0, -2.0)
