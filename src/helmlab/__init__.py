"""Numerical laboratory for dual ground states of the nonlinear fractional
Helmholtz equation on a periodic box.

The equation (-Delta)^s u - k^(2s) u = Q(x) |u|^(p-2) u is treated in the
rescaled frame x -> k x through its dual formulation: ground states are
minimizers of the dual functional over the Nehari manifold, built on the
real limiting-absorption resolvent of (-Delta)^s - 1. The package
provides the spectral substrate (`grid`), the resolvent and its kernel
diagnostics (`resolvent`), coefficient families (`coefficients`), the
dual functional and ground-state solver (`dual`), concentration
experiments (`concentration`), and a batch CLI (`cli`).
"""

__version__ = "0.1.0"

from .coefficients import BumpOnBackgroundQ, CoefficientQ, ConstantQ, sample_Q
from .concentration import (
    LevelRow,
    LevelTable,
    SweepRecord,
    level_table,
    profile_distance,
    run_sweep,
    single_bubble_fraction,
)
from .config import RunConfig, load_config, render_config
from .dual import (
    DualState,
    GroundState,
    cutoff_projection,
    diagnose,
    dihedral_average,
    dual_energy,
    dual_gradient,
    limit_ground_state,
    nehari_project,
    nehari_scale,
    random_initial_guess,
    solve_ground_state,
)
from .errors import ConfigError, InsufficientDataError
from .grid import (
    RealField,
    SpectralField,
    TorusGrid,
    apply_multiplier,
    apply_multiplier_values,
    build_grid,
    forward_transform,
    inner_product,
    inverse_transform,
    lq_norm,
)
from .params import OUTSIDE_HYPOTHESES_MARKER, Exponents, HypothesisCheck
from .resolvent import (
    BoxField,
    EvenKernel,
    KernelBundle,
    ResolventSpec,
    auto_delta,
    band_decompose,
    compact_bump,
    disjoint_interaction,
    fit_decay_exponent,
    radial_envelope,
)

__all__ = [
    "BumpOnBackgroundQ", "CoefficientQ", "ConstantQ", "sample_Q",
    "LevelRow", "LevelTable", "SweepRecord", "level_table", "profile_distance",
    "run_sweep", "single_bubble_fraction",
    "RunConfig", "load_config", "render_config",
    "DualState", "GroundState", "cutoff_projection", "diagnose",
    "dihedral_average", "dual_energy", "dual_gradient", "limit_ground_state", "nehari_project",
    "nehari_scale", "random_initial_guess", "solve_ground_state",
    "ConfigError", "InsufficientDataError",
    "RealField", "SpectralField", "TorusGrid", "apply_multiplier", "apply_multiplier_values",
    "build_grid", "forward_transform", "inner_product", "inverse_transform", "lq_norm",
    "OUTSIDE_HYPOTHESES_MARKER", "Exponents", "HypothesisCheck",
    "BoxField", "EvenKernel", "KernelBundle", "ResolventSpec", "auto_delta", "band_decompose", "compact_bump",
    "disjoint_interaction", "fit_decay_exponent", "radial_envelope",
]
