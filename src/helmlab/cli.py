"""Batch command-line front end.

Every run reads one flat config file, writes a resolved-config echo, the
result tables, and a run manifest into the output directory, and says
what it did on stdout. Outputs are deterministic for a fixed config and
seed. Exit codes: 0 success, 1 a required solve did not converge,
2 malformed config, 3 validity-range violation without --force.
"""
from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .coefficients import sample_Q
from .concentration import level_table, run_sweep, single_bubble_fraction
from .config import (
    RunConfig,
    load_config,
    make_coefficient,
    make_exponents,
    make_grid,
    make_spec,
    render_config,
)
from .dual import default_initial_guess, random_initial_guess, solve_ground_state
from .errors import ConfigError, InsufficientDataError
from .grid import TorusGrid
from .params import OUTSIDE_HYPOTHESES_MARKER, Exponents
from .resolvent import (
    ResolventSpec,
    band_decompose,
    compact_bump,
    disjoint_interaction,
    extract_kernel,
    fit_decay_exponent,
    radial_envelope,
)

_AXES = ("x", "y", "z")


def _format_cell(value, precision: int) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format(float(value), f".{precision}g")
    return str(value)


def _json_scalar(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    return json.dumps(str(value))


class _RunWriter:
    """Collects the artifacts of one run: config echo, tables, manifest."""

    def __init__(self, command: str, cfg: RunConfig, exps: Exponents, grid: TorusGrid, spec: ResolventSpec):
        self.cfg = cfg
        self.out = Path(cfg.out_dir)
        self.out.mkdir(parents=True, exist_ok=True)
        self.started = time.perf_counter()
        (self.out / "resolved_config.cfg").write_text(render_config(cfg), encoding="utf-8")
        self.manifest = {
            "command": command,
            "version": __version__,
            "grid": {
                "dim": grid.dim,
                "points": grid.points_per_axis,
                "half_width": grid.half_width,
                "spacing": grid.spacing,
            },
            "delta": spec.delta,
            "exponents": {
                "s": exps.s,
                "p": exps.p,
                "k": exps.k,
                "p_dual": exps.p_dual,
                "lambda_p": exps.lambda_p,
                "eps": exps.eps,
                "scale_factor": exps.scale_factor,
            },
            "within_hypotheses": exps.within_hypotheses,
            "marker": "" if exps.within_hypotheses else OUTSIDE_HYPOTHESES_MARKER,
        }

    def table(self, name: str, columns: list[str], rows: list[list]) -> None:
        precision = self.cfg.precision
        lines = [",".join(columns)]
        for row in rows:
            lines.append(",".join(_format_cell(cell, precision) for cell in row))
        (self.out / f"{name}.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
        if self.cfg.out_format == "json":
            objects = []
            for row in rows:
                pairs = ", ".join(
                    f"{json.dumps(col)}: {_json_scalar(cell)}" for col, cell in zip(columns, row)
                )
                objects.append("  {" + pairs + "}")
            text = "[\n" + ",\n".join(objects) + "\n]\n"
            (self.out / f"{name}.json").write_text(text, encoding="utf-8")

    def finish(self, **extra) -> None:
        self.manifest.update(extra)
        self.manifest["wall_time_s"] = time.perf_counter() - self.started
        (self.out / "run_manifest.json").write_text(
            json.dumps(self.manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )


def _hypothesis_lines(exps: Exponents) -> list[str]:
    lines = []
    for check in exps.hypothesis_report():
        status = "pass" if check.passed else "FAIL"
        lines.append(f"{check.name}: {status} (value {check.value:g}, admissible {check.admissible})")
    lines.append(f"p_dual = {exps.p_dual:.6g}, lambda_p = {exps.lambda_p:.6g}")
    return lines


def _gate(exps: Exponents, force: bool) -> int | None:
    """Exit early unless the exponents are in range or --force was given."""
    if exps.within_hypotheses:
        return None
    for line in _hypothesis_lines(exps):
        print(line, file=sys.stderr)
    if force:
        print(f"proceeding anyway; outputs carry the marker {OUTSIDE_HYPOTHESES_MARKER!r}", file=sys.stderr)
        return None
    print("validity check failed; pass --force to run anyway", file=sys.stderr)
    return 3


def _peak_columns(dim: int, prefix: str) -> list[str]:
    return [f"{prefix}_{_AXES[i]}" for i in range(dim)]


def _cmd_validate_params(cfg: RunConfig, args) -> int:
    exps = make_exponents(cfg)
    for line in _hypothesis_lines(exps):
        print(line)
    if exps.within_hypotheses:
        return 0
    print(f"marker: {OUTSIDE_HYPOTHESES_MARKER}")
    return 3


def _cmd_kernel_check(cfg: RunConfig, args) -> int:
    exps = make_exponents(cfg)
    code = _gate(exps, args.force)
    if code is not None:
        return code
    grid = make_grid(cfg)
    spec = make_spec(cfg, grid)
    writer = _RunWriter("kernel-check", cfg, exps, grid, spec)

    bundle = band_decompose(extract_kernel(spec, grid))
    window = (cfg.window_lo, cfg.window_hi)
    if window[1] > 0.5 * grid.half_width:
        print(
            f"warning: fit window reaches radius {window[1]:g} but wraparound "
            f"contaminates decay beyond {0.5 * grid.half_width:g} (half of half_width)",
            file=sys.stderr,
        )
    parts = [
        ("K1", bundle.band, (1.0 - grid.dim) / 2.0),
        ("K2", bundle.remainder, (1.0 - grid.dim) / 2.0 - 1.0),
    ]
    decay_rows = []
    envelope_rows = []
    try:
        for name, field, target in parts:
            envelope = radial_envelope(field, cfg.shells)
            slope = fit_decay_exponent(envelope, window)
            decay_rows.append([name, window[0], window[1], slope, target])
            envelope_rows.extend([name, r, v] for r, v in envelope)
    except InsufficientDataError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    writer.table("kernel_decay", ["part", "window_lo", "window_hi", "slope", "target_slope"], decay_rows)
    writer.table("kernel_envelope", ["part", "radius", "value"], envelope_rows)
    writer.finish(slopes={row[0]: row[3] for row in decay_rows})
    for row in decay_rows:
        print(f"{row[0]}: slope {row[3]:+.4f} over radii ({row[1]:g}, {row[2]:g}), reference {row[4]:+.2f}")
    return 0


def _cmd_interaction_check(cfg: RunConfig, args) -> int:
    exps = make_exponents(cfg)
    code = _gate(exps, args.force)
    if code is not None:
        return code
    grid = make_grid(cfg)
    spec = make_spec(cfg, grid)
    radius = cfg.bump_radius
    farthest = 2.0 * radius + max(cfg.gaps) + grid.spacing + radius
    if farthest > grid.half_width:
        raise ConfigError(
            f"largest gap needs the box to reach {farthest:g} but grid.half_width is {grid.half_width:g}",
            field="interaction.gaps",
        )
    writer = _RunWriter("interaction-check", cfg, exps, grid, spec)

    origin = (0.0,) * grid.dim
    inner = compact_bump(grid, origin, radius)
    rows = []
    for gap in cfg.gaps:
        center = (2.0 * radius + gap + grid.spacing,) + (0.0,) * (grid.dim - 1)
        outer = compact_bump(grid, center, radius)
        value = disjoint_interaction(inner, outer, spec, inner_radius=radius, gap=gap)
        rows.append([gap, value])
        print(f"gap {gap:g}: interaction {value:.6e}")
    writer.table("interaction", ["gap", "interaction"], rows)
    slope = None
    if len(rows) >= 2 and all(row[1] > 0 for row in rows):
        slope = float(
            np.polyfit(np.log([row[0] for row in rows]), np.log([row[1] for row in rows]), 1)[0]
        )
        print(f"interaction decay slope {slope:+.4f} (lambda_p = {exps.lambda_p:g})")
    writer.finish(interaction_slope=slope, lambda_p=exps.lambda_p)
    return 0


def _solve_with_seeds(cfg: RunConfig, Qfield, exps, spec, Q):
    """One solve per coefficient maximum (lowest level wins), or a seeded random start."""
    grid = Qfield.grid
    if cfg.init == "random":
        starts = [random_initial_guess(grid, spec, cfg.seed)]
    else:
        maxima = [m for m in Q.maxima if m]
        if len(maxima) > 1:
            starts = [
                default_initial_guess(Qfield, exps, spec, center=tuple(c / exps.eps for c in m))
                for m in maxima
            ]
        else:
            starts = [None]  # the solver's cold start is default_initial_guess's, on the same operator
    best = None
    for start in starts:
        gs = solve_ground_state(Qfield, exps, spec, init=start, tol=cfg.tol, max_iter=cfg.max_iter)
        if best is None or gs.level < best.level:
            best = gs
    return best


def _cmd_solve(cfg: RunConfig, args) -> int:
    exps = make_exponents(cfg)
    code = _gate(exps, args.force)
    if code is not None:
        return code
    grid = make_grid(cfg)
    spec = make_spec(cfg, grid)
    Q = make_coefficient(cfg)
    writer = _RunWriter("solve", cfg, exps, grid, spec)

    Qfield = sample_Q(Q, grid, exps.eps)
    gs = _solve_with_seeds(cfg, Qfield, exps, spec, Q)
    columns = (
        ["level", "residual", "iterations", "converged", "quad_form", "nehari_defect", "scale_factor"]
        + _peak_columns(grid.dim, "peak")
        + _peak_columns(grid.dim, "peak_phys")
    )
    row = [
        gs.level,
        gs.residual,
        gs.iterations,
        gs.converged,
        gs.state.quad_form,
        gs.state.nehari_residual,
        gs.scale_factor,
        *gs.peak,
        *(exps.eps * c for c in gs.peak),
    ]
    writer.table("ground_state", columns, [row])
    writer.finish(converged=gs.converged, level=gs.level, iterations=gs.iterations)
    peak_text = ", ".join(f"{c:.4f}" for c in gs.peak)
    print(
        f"level {gs.level:.8f} after {gs.iterations} iterations "
        f"(residual {gs.residual:.2e}, converged {str(gs.converged).lower()}), peak ({peak_text})"
    )
    return 0 if gs.converged else 1


def _cmd_levels(cfg: RunConfig, args) -> int:
    exps = make_exponents(cfg)
    code = _gate(exps, args.force)
    if code is not None:
        return code
    grid = make_grid(cfg)
    spec = make_spec(cfg, grid)
    Q = make_coefficient(cfg)
    writer = _RunWriter("levels", cfg, exps, grid, spec)

    table = level_table(
        Q, cfg.eps_values, exps, grid, spec, tol=cfg.tol, max_iter=cfg.max_iter, warm_start=cfg.warm_start
    )
    rows = [
        [row.eps, row.level, table.peak_level, table.background_level, row.gap_low, row.gap_high, row.converged]
        for row in table.rows
    ]
    writer.table("levels", ["eps", "c_eps", "c_0", "c_inf", "gap_low", "gap_high", "converged"], rows)
    all_ok = table.peak_converged and table.background_converged and all(r.converged for r in table.rows)
    writer.finish(
        peak_level=table.peak_level,
        background_level=table.background_level,
        limits_converged=[table.peak_converged, table.background_converged],
        rows_converged=[r.converged for r in table.rows],
    )
    print(f"c_0 {table.peak_level:.8f}   c_inf {table.background_level:.8f}")
    for row in table.rows:
        print(
            f"eps {row.eps:g}: c_eps {row.level:.8f} gap_low {row.gap_low:+.6f} "
            f"gap_high {row.gap_high:+.6f} ({row.iterations} iterations)"
        )
    return 0 if all_ok else 1


def _cmd_sweep(cfg: RunConfig, args) -> int:
    exps = make_exponents(cfg)
    code = _gate(exps, args.force)
    if code is not None:
        return code
    grid = make_grid(cfg)
    spec = make_spec(cfg, grid)
    Q = make_coefficient(cfg)
    writer = _RunWriter("sweep", cfg, exps, grid, spec)

    records = run_sweep(
        Q,
        cfg.k_values,
        exps,
        grid,
        spec,
        tol=cfg.tol,
        max_iter=cfg.max_iter,
        warm_start=cfg.warm_start,
        parallel=args.parallel,
    )
    columns = (
        ["k", "eps", "level"]
        + _peak_columns(grid.dim, "peak")
        + _peak_columns(grid.dim, "peak_phys")
        + ["profile_distance", "iterations", "converged"]
    )
    rows = [
        [rec.k, rec.eps, rec.level, *rec.peak_rescaled, *rec.peak_physical, rec.profile_distance, rec.iterations, rec.converged]
        for rec in records
    ]
    writer.table("sweep", columns, rows)
    final_fraction = None
    for rec in reversed(records):
        if rec.converged and rec.state is not None:
            final_fraction = single_bubble_fraction(rec.state, center=rec.peak_rescaled)
            break
    writer.finish(
        rows_converged=[rec.converged for rec in records],
        final_single_bubble_fraction=final_fraction,
    )
    for rec in records:
        peak_text = ", ".join(f"{c:.4f}" for c in rec.peak_physical)
        print(
            f"k {rec.k:g}: level {rec.level:.8f} peak_phys ({peak_text}) "
            f"distance {rec.profile_distance:.4f} ({rec.iterations} iterations)"
        )
    return 0 if all(rec.converged for rec in records) else 1


_COMMANDS = {
    "validate-params": _cmd_validate_params,
    "kernel-check": _cmd_kernel_check,
    "interaction-check": _cmd_interaction_check,
    "solve": _cmd_solve,
    "levels": _cmd_levels,
    "sweep": _cmd_sweep,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="helmlab",
        description="Ground states of the nonlinear fractional Helmholtz equation via the dual method.",
    )
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", help="path to a flat key = value config file")
    parser.add_argument("--out", help="output directory (overrides output.dir)")
    parser.add_argument("--force", action="store_true", help="run even when exponents are out of range")
    parser.add_argument(
        "--parallel", action="store_true", help="sweep only: cold-started concurrent steps"
    )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config) if args.config else RunConfig()
        if args.out is not None:
            cfg = replace(cfg, out_dir=args.out)
        return _COMMANDS[args.command](cfg, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
