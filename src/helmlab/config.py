"""Flat text run configuration: parsing, validation, canonical rendering.

A config file is a list of `section.key = value` lines; `#` starts a
comment and blank lines are ignored. Every key has a default, so the
empty file is a valid config. `render_config` writes the fully resolved
state back out in a canonical order, and parsing that output reproduces
the config exactly; runs echo it next to their results so a result
directory is self-describing and reproducible.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .coefficients import BumpOnBackgroundQ, CoefficientQ, ConstantQ
from .errors import ConfigError
from .grid import TorusGrid, build_grid
from .params import Exponents
from .resolvent import ResolventSpec, auto_delta


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved settings for one run."""

    dim: int = 2
    points: int = 128
    half_width: float = 16.0
    s: float = 1.0
    p: float = 5.0
    k: float = 8.0
    delta: float | None = None  # None means: derive from the grid
    kind: str = "bump"
    background: float = 0.5
    amplitude: float = 1.0
    width: float = 1.0
    centers: tuple[tuple[float, ...], ...] | None = None  # None means: the origin
    value: float = 1.0
    tol: float = 1e-6
    max_iter: int = 500
    init: str = "default"
    seed: int = 12345
    k_values: tuple[float, ...] = (2.0, 4.0, 8.0)
    eps_values: tuple[float, ...] = (0.5, 0.25, 0.125)
    shells: int = 12
    window_lo: float = 4.0
    window_hi: float = 16.0
    gaps: tuple[float, ...] = (2.0, 4.0, 8.0)
    bump_radius: float = 2.0
    out_dir: str = "runs"
    out_format: str = "csv"


def _parse_float_list(text: str) -> tuple[float, ...]:
    items = [t.strip() for t in text.split(",") if t.strip()]
    if not items:
        raise ValueError("empty list")
    return tuple(float(t) for t in items)


def _parse_centers(text: str):
    if text == "origin":
        return None
    points = [t.strip() for t in text.split(";") if t.strip()]
    if not points:
        raise ValueError("empty centers list")
    return tuple(tuple(float(c) for c in pt.split(",")) for pt in points)


def _parse_delta(text: str):
    if text == "auto":
        return None
    value = float(text)
    if value <= 0:
        raise ValueError("delta must be positive or auto")
    return value


def _parse_choice(*allowed: str):
    def parse(text: str) -> str:
        if text not in allowed:
            raise ValueError(f"expected one of {', '.join(allowed)}; got {text!r}")
        return text

    return parse


def _render_float(x: float) -> str:
    return repr(float(x))


def _render_float_list(xs) -> str:
    return ", ".join(_render_float(x) for x in xs)


def _render_centers(centers) -> str:
    if centers is None:
        return "origin"
    return "; ".join(", ".join(_render_float(c) for c in pt) for pt in centers)


def _render_delta(delta) -> str:
    return "auto" if delta is None else _render_float(delta)


def _positive_int(text: str) -> int:
    value = int(text)
    if value <= 0:
        raise ValueError("must be a positive integer")
    return value


def _positive_float(text: str) -> float:
    value = float(text)
    if value <= 0:
        raise ValueError("must be positive")
    return value


def _nonnegative_float(text: str) -> float:
    value = float(text)
    if value < 0:
        raise ValueError("must be nonnegative")
    return value


# key -> (attribute, parser, renderer); also fixes the canonical output order
_SCHEMA = {
    "grid.dim": ("dim", _positive_int, str),
    "grid.points": ("points", _positive_int, str),
    "grid.half_width": ("half_width", _positive_float, _render_float),
    "model.s": ("s", _positive_float, _render_float),
    "model.p": ("p", _positive_float, _render_float),
    "model.k": ("k", _positive_float, _render_float),
    "model.delta": ("delta", _parse_delta, _render_delta),
    "coefficient.kind": ("kind", _parse_choice("bump", "constant"), str),
    "coefficient.background": ("background", _nonnegative_float, _render_float),
    "coefficient.amplitude": ("amplitude", _positive_float, _render_float),
    "coefficient.width": ("width", _positive_float, _render_float),
    "coefficient.centers": ("centers", _parse_centers, _render_centers),
    "coefficient.value": ("value", _positive_float, _render_float),
    "solver.tol": ("tol", _positive_float, _render_float),
    "solver.max_iter": ("max_iter", _positive_int, str),
    "solver.init": ("init", _parse_choice("default", "random"), str),
    "solver.seed": ("seed", lambda t: int(t), str),
    "sweep.k_values": ("k_values", _parse_float_list, _render_float_list),
    "sweep.eps_values": ("eps_values", _parse_float_list, _render_float_list),
    "kernel.shells": ("shells", _positive_int, str),
    "kernel.window_lo": ("window_lo", _positive_float, _render_float),
    "kernel.window_hi": ("window_hi", _positive_float, _render_float),
    "interaction.gaps": ("gaps", _parse_float_list, _render_float_list),
    "interaction.bump_radius": ("bump_radius", _positive_float, _render_float),
    "output.dir": ("out_dir", str, str),
    "output.format": ("out_format", _parse_choice("csv", "json"), str),
}


def parse_config_text(text: str) -> RunConfig:
    """Parse config text into a RunConfig, reporting the offending line on error."""
    overrides = {}
    seen = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError("expected 'section.key = value'", line=lineno)
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _SCHEMA:
            raise ConfigError(f"unknown key {key!r}", line=lineno, field=key)
        if key in seen:
            raise ConfigError(
                f"duplicate key {key!r} (first set on line {seen[key]})", line=lineno, field=key
            )
        seen[key] = lineno
        attr, parser, _ = _SCHEMA[key]
        try:
            overrides[attr] = parser(value)
        except ValueError as exc:
            raise ConfigError(f"bad value for {key}: {exc}", line=lineno, field=key) from None
    cfg = replace(RunConfig(), **overrides)
    _validate(cfg)
    return cfg


def load_config(path) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config_text(fh.read())


def _validate(cfg: RunConfig) -> None:
    if cfg.dim not in (1, 2, 3):
        raise ConfigError(f"grid.dim must be 1, 2 or 3, got {cfg.dim}", field="grid.dim")
    if cfg.points % 2 != 0 or cfg.points < 8:
        raise ConfigError("grid.points must be even and at least 8", field="grid.points")
    if cfg.p <= 2:
        raise ConfigError("model.p must exceed 2", field="model.p")
    if cfg.centers is not None:
        for pt in cfg.centers:
            if len(pt) != cfg.dim:
                raise ConfigError(
                    f"center {pt} has {len(pt)} coordinates but grid.dim = {cfg.dim}",
                    field="coefficient.centers",
                )
    # Q's exponent divides by 2 width^2, so that square must be a positive finite float
    square = cfg.width * cfg.width
    if square == 0.0 or not math.isfinite(square):
        raise ConfigError(
            f"coefficient.width = {cfg.width:g}: its square overflows or underflows to 0",
            field="coefficient.width",
        )
    for eps in cfg.eps_values:
        if eps <= 0:
            raise ConfigError("sweep.eps_values must be positive", field="sweep.eps_values")
    for k in cfg.k_values:
        if k <= 0:
            raise ConfigError("sweep.k_values must be positive", field="sweep.k_values")
    if cfg.shells < 4:
        raise ConfigError("kernel.shells must be at least 4", field="kernel.shells")
    if not cfg.window_lo < cfg.window_hi:
        raise ConfigError(
            "kernel.window_lo must be below kernel.window_hi", field="kernel.window_lo"
        )
    for gap in cfg.gaps:
        if gap < 1.0:
            raise ConfigError("interaction.gaps must all be at least 1", field="interaction.gaps")
    # the decay slope is a fit against log(gap), which a repeated gap leaves undetermined
    if len(set(cfg.gaps)) < len(cfg.gaps):
        raise ConfigError("interaction.gaps must not repeat a value", field="interaction.gaps")
    # every wavenumber a command may use: its amplitude factor k^(2s/(p-2)), and
    # the squared distances that Q's evaluation takes: the physical window's
    # corner, and a node's distance to a bump centre, at most |centre| + corner
    ks = [("model.k", cfg.k), *(("sweep.k_values", k) for k in cfg.k_values)]
    for field, k in ks + [("sweep.eps_values", 1.0 / eps) for eps in cfg.eps_values]:
        try:
            make_exponents(cfg).with_k(k).scale_factor
        except OverflowError:
            raise ConfigError(
                f"scale factor k^(2s/(p-2)) overflows at k = {k:g}; model.p is too close to 2",
                field="model.p",
            ) from None
        corner = cfg.dim**0.5 * cfg.half_width / k
        if not math.isfinite(corner * corner):
            raise ConfigError(
                f"grid.half_width/k = {cfg.half_width / k:g}: the window's squared corner distance overflows",
                field=field,
            )
        for pt in cfg.centers or ():
            reach = math.hypot(*pt) + corner
            if not math.isfinite(reach * reach):
                raise ConfigError(
                    f"center {pt} is so far out that its squared distance to the window overflows at k = {k:g}",
                    field="coefficient.centers",
                )


def render_config(cfg: RunConfig) -> str:
    """Canonical text form; parsing it reproduces cfg exactly."""
    lines = []
    section = None
    for key, (attr, _, renderer) in _SCHEMA.items():
        head = key.split(".", 1)[0]
        if head != section:
            if section is not None:
                lines.append("")
            lines.append(f"# {head}")
            section = head
        lines.append(f"{key} = {renderer(getattr(cfg, attr))}")
    lines.append("")
    return "\n".join(lines)


def make_grid(cfg: RunConfig) -> TorusGrid:
    return build_grid(cfg.dim, cfg.half_width, cfg.points)


def make_exponents(cfg: RunConfig) -> Exponents:
    return Exponents(dim=cfg.dim, s=cfg.s, p=cfg.p, k=cfg.k)


def make_spec(cfg: RunConfig, grid: TorusGrid) -> ResolventSpec:
    if cfg.delta is not None:
        return ResolventSpec(s=cfg.s, delta=cfg.delta)
    try:
        delta = auto_delta(grid, cfg.s)
    except ValueError as exc:
        raise ConfigError(
            f"cannot derive model.delta = auto: {exc}; set a positive model.delta", field="model.delta"
        ) from None
    return ResolventSpec(s=cfg.s, delta=delta)


def make_coefficient(cfg: RunConfig) -> CoefficientQ:
    if cfg.kind == "constant":
        return ConstantQ(cfg.value)
    centers = cfg.centers if cfg.centers is not None else ((0.0,) * cfg.dim,)
    return BumpOnBackgroundQ(
        background=cfg.background,
        amplitude=cfg.amplitude,
        width=cfg.width,
        centers=centers,
    )
