"""Shared fixtures.

The expensive objects (a converged 2D ground state and the matching
limit state) are session-scoped so the dual, solver and concentration
tests all reuse one solve instead of paying ~1 s each.
"""
import platform
import warnings
from pathlib import Path

import numpy as np
import pytest

with warnings.catch_warnings():
    # hypothesis reports a falsifying example through libcst, whose imports warn;
    # under the suite's error::DeprecationWarning that warning would hide the example
    warnings.simplefilter("ignore", DeprecationWarning)
    import hypothesis.extra._patching  # noqa: F401

from helmlab import (
    ConstantQ,
    Exponents,
    ResolventSpec,
    auto_delta,
    build_grid,
    limit_ground_state,
    sample_Q,
    solve_ground_state,
)
from helmlab.grid import multiplier_kernel

STANDARD_LEVEL = 5.380510993273907  # constant Q = 1 on the grid below, frozen


@pytest.fixture(scope="session")
def grid2d():
    return build_grid(2, 16.0, 128)


@pytest.fixture(scope="session")
def exps2d():
    return Exponents(dim=2, s=1.0, p=5.0, k=1.0)


@pytest.fixture(scope="session")
def spec2d(grid2d):
    return ResolventSpec(s=1.0, delta=auto_delta(grid2d, 1.0))


@pytest.fixture(scope="session")
def unitQ(grid2d):
    return sample_Q(ConstantQ(1.0), grid2d)


@pytest.fixture(scope="session")
def ground2d(unitQ, exps2d, spec2d):
    gs = solve_ground_state(unitQ, exps2d, spec2d, tol=1e-6, max_iter=500)
    assert gs.converged
    return gs


@pytest.fixture(scope="session")
def limit2d(grid2d, exps2d, spec2d):
    gs = limit_ground_state(1.0, grid2d, exps2d, spec2d, tol=1e-6, max_iter=500)
    assert gs.converged
    return gs


def quadrant(values):
    """Half-spectrum values cut to the quadrant of non-negative wavenumbers, as `multiplier_kernel` takes them."""
    return values[(slice(0, values.shape[-1]),) * (values.ndim - 1)]


def octant(grid):
    """The offsets 0 ... n/2 on every axis, at which `multiplier_kernel` gives a kernel's whole octant."""
    return (np.arange(grid.points_per_axis // 2 + 1),) * grid.dim


def whole_kernel(grid, multiplier):
    """The octant kernel of one radial multiplier, a function of |xi|, which `multiplier_kernel` evaluates by slabs."""
    (kernel,) = multiplier_kernel(grid, lambda norm: (multiplier(norm),), octant(grid))
    return kernel


def embed(field):
    """A box-held field's block embedded in a full grid of zeros."""
    values = np.zeros(field.grid.shape)
    values[np.ix_(*field.box)] = field.block
    return values


def mirror(grid, values):
    """An octant of node offsets mirrored to the full grid: node j takes the offset |j - n/2| on each axis."""
    offset = np.abs(np.arange(grid.points_per_axis) - grid.points_per_axis // 2)
    return values[np.ix_(*[offset] * grid.dim)]


def half_norm(grid):
    """|xi| on the half spectrum, the rfftn layout, from the full frequency mesh."""
    freqs = np.meshgrid(*([grid.frequency_axis] * grid.dim), indexing="ij")
    return np.sqrt(sum(m * m for m in freqs))[..., : grid.points_per_axis // 2 + 1]


def numpy_runs_x86_openblas():
    """Whether numpy's BLAS is OpenBLAS on an x86-64 CPU, where every OPENBLAS_CORETYPE the tests name runs."""
    try:
        name = np.__config__.CONFIG["Build Dependencies"]["blas"]["name"]
    except (AttributeError, KeyError, TypeError):
        return False
    return "openblas" in str(name).lower() and platform.machine().lower() in ("x86_64", "amd64")


def rng(seed):
    return np.random.default_rng(seed)


def readme_config(dim):
    """The text of the README's example config in `dim` dimensions."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    return next(block for block in text.split("```")[1::2] if f"grid.dim = {dim}" in block)
