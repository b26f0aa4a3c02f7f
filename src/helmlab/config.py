"""Flat text run configuration: parsing, validation, canonical rendering.

A config file is a list of `section.key = value` lines; `#` starts a
comment and blank lines are ignored. Each key is declared once, on its
`RunConfig` field: the field holds its default, so the empty file is a
valid config, and its metadata the key, its parser and its renderer.
`render_config` writes the fully resolved state back out in field
order, and parsing that output reproduces the config exactly; runs echo
it next to their results so a result directory is self-describing and
reproducible.

Every number must be finite. Each key's own range is one rule in its
parser, so its error names the key and its line; `_validate` holds only
the rules that join keys, such as the overflow bounds that combine the
wavenumbers with the geometry and the coefficient.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace

from .coefficients import BumpOnBackgroundQ, CoefficientQ, ConstantQ
from .errors import ConfigError
from .grid import TorusGrid, build_grid
from .params import Exponents
from .resolvent import ResolventSpec, auto_delta


def _number(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"must be a finite number, got {text}")
    return value


def _rule(parse, holds, rule: str):
    """`parse`, then reject a value for which `holds` is false, saying `rule`."""

    def parse_checked(text: str):
        value = parse(text)
        if not holds(value):
            raise ValueError(rule)
        return value

    return parse_checked


def _parse_float_list(text: str) -> tuple[float, ...]:
    items = [t.strip() for t in text.split(",") if t.strip()]
    if not items:
        raise ValueError("empty list")
    return tuple(_number(t) for t in items)


_positive_int = _rule(int, lambda n: n > 0, "must be a positive integer")
_positive_float = _rule(_number, lambda x: x > 0, "must be positive")
_nonnegative_float = _rule(_number, lambda x: x >= 0, "must be nonnegative")
_positive_floats = _rule(_parse_float_list, lambda xs: min(xs) > 0, "must all be positive")
_eps_values = _rule(_positive_floats, lambda xs: math.isfinite(1.0 / min(xs)), "must each have a finite k = 1/eps")
# the decay slope is a fit against log(gap), which a repeated gap leaves undetermined
_distinct_gaps = _rule(
    _parse_float_list, lambda xs: min(xs) >= 1 and len(set(xs)) == len(xs), "must be distinct, each at least 1"
)


def _parse_centers(text: str):
    if text == "origin":
        return None
    points = [t.strip() for t in text.split(";") if t.strip()]
    if not points:
        raise ValueError("empty centers list")
    return tuple(tuple(_number(c) for c in pt.split(",")) for pt in points)


def _parse_delta(text: str):
    return None if text == "auto" else _positive_float(text)


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


def _key(key: str, default, parse, render=_render_float):
    """A `RunConfig` field read from config `key` by `parse` and written back by `render`."""
    return field(default=default, metadata={"key": key, "parse": parse, "render": render})


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved settings for one run; each field declares its config key, in canonical order."""

    dim: int = _key("grid.dim", 2, _rule(int, lambda n: n in (1, 2, 3), "must be 1, 2 or 3"), str)
    points: int = _key("grid.points", 128, _rule(int, lambda n: n >= 8 and n % 2 == 0, "must be even and at least 8"), str)
    half_width: float = _key("grid.half_width", 16.0, _positive_float)
    s: float = _key("model.s", 1.0, _positive_float)
    p: float = _key("model.p", 5.0, _rule(_number, lambda x: x > 2, "must exceed 2"))
    k: float = _key("model.k", 8.0, _positive_float)
    # None means: derive from the grid
    delta: float | None = _key("model.delta", None, _parse_delta, _render_delta)
    kind: str = _key("coefficient.kind", "bump", _parse_choice("bump", "constant"), str)
    background: float = _key("coefficient.background", 0.5, _nonnegative_float)
    amplitude: float = _key("coefficient.amplitude", 1.0, _positive_float)
    width: float = _key("coefficient.width", 1.0, _positive_float)
    # None means: the origin
    centers: tuple[tuple[float, ...], ...] | None = _key("coefficient.centers", None, _parse_centers, _render_centers)
    value: float = _key("coefficient.value", 1.0, _positive_float)
    tol: float = _key("solver.tol", 1e-6, _positive_float)
    max_iter: int = _key("solver.max_iter", 500, _positive_int, str)
    # no command reads the seed; the key stays so that configs which set it (criterion 11's) still parse
    seed: int = _key("solver.seed", 12345, _rule(int, lambda n: n >= 0, "must be a nonnegative integer"), str)
    k_values: tuple[float, ...] = _key("sweep.k_values", (2.0, 4.0, 8.0), _positive_floats, _render_float_list)
    eps_values: tuple[float, ...] = _key("sweep.eps_values", (0.5, 0.25, 0.125), _eps_values, _render_float_list)
    shells: int = _key("kernel.shells", 12, _rule(int, lambda n: n >= 4, "must be at least 4"), str)
    window_lo: float = _key("kernel.window_lo", 4.0, _positive_float)
    window_hi: float = _key("kernel.window_hi", 16.0, _positive_float)
    gaps: tuple[float, ...] = _key("interaction.gaps", (2.0, 4.0, 8.0), _distinct_gaps, _render_float_list)
    bump_radius: float = _key("interaction.bump_radius", 2.0, _positive_float)
    out_dir: str = _key("output.dir", "runs", str, str)
    out_format: str = _key("output.format", "csv", _parse_choice("csv", "json"), str)


# key -> (attribute, parser, renderer), in field order: the canonical output order
_SCHEMA = {f.metadata["key"]: (f.name, f.metadata["parse"], f.metadata["render"]) for f in fields(RunConfig)}


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
    """The rules that join keys; each key's own range is checked by its parser."""
    for pt in cfg.centers or ():
        if len(pt) != cfg.dim:
            raise ConfigError(
                f"center {pt} has {len(pt)} coordinates but grid.dim = {cfg.dim}", field="coefficient.centers"
            )
    if not cfg.window_lo < cfg.window_hi:
        raise ConfigError("kernel.window_lo must be below kernel.window_hi", field="kernel.window_lo")
    # each overflow bound at its extreme wavenumber: the amplitude factor k^(2s/(p-2))
    # grows with k; the squares Q's evaluation takes (the window's corner, a node's
    # distance to a centre, at most |centre| + corner, and that over 2 width^2) as k shrinks
    ks = [(cfg.k, "model.k"), *((k, "sweep.k_values") for k in cfg.k_values)]
    ks += [(1.0 / eps, "sweep.eps_values") for eps in cfg.eps_values]
    (k_lo, k_field), (k_hi, _) = min(ks), max(ks)
    try:
        factor = make_exponents(cfg).with_k(k_hi).scale_factor
    except OverflowError:
        factor = math.inf
    corner = cfg.dim**0.5 * cfg.half_width / k_lo
    reach = max((math.hypot(*pt) for pt in cfg.centers or ()), default=0.0) + corner
    try:
        exponent = reach * reach / (2.0 * cfg.width**2)
    except (OverflowError, ZeroDivisionError):
        exponent = math.inf
    for value, what, field in [
        (factor, f"the scale factor k^(2s/(p-2)) at k = {k_hi:g}", "model.p"),
        (corner * corner, f"the window's squared corner distance at k = {k_lo:g}", k_field),
        (reach * reach, f"a center's squared distance to the window at k = {k_lo:g}", "coefficient.centers"),
        (exponent, f"Q's exponent |x - c|^2/(2 width^2) at k = {k_lo:g}", "coefficient.width"),
        (cfg.background + cfg.amplitude, "Q's maximum, background + amplitude,", "coefficient.amplitude"),
    ]:
        if not math.isfinite(value):
            raise ConfigError(f"{what} overflows", field=field)


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
