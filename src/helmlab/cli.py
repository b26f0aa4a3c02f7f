"""Batch command-line front end.

Every run reads one flat config file, writes a resolved-config echo, the
result tables, and a run manifest into the output directory, and says
what it did on stdout. `main` makes the run's inputs and applies the
hypothesis gate once for every command; a command gets them as one
`_Run`, which holds the artifacts in memory until `finish` writes them,
so a run that stops on an error writes nothing. Outputs are
deterministic for a fixed config and seed. Exit codes: 0 success,
1 a required solve did not converge, 2 malformed config or a grid too
large to allocate, 3 validity-range violation without --force, 4 a
numerical failure (any `NumericalError` or `ArithmeticError`: `main`
makes numpy raise `FloatingPointError` on overflow, division by zero
and invalid operations, and Python's float arithmetic raises its own).
Exits 2 and 4 print one line on stderr.
"""
from __future__ import annotations

import argparse
import json
import sys
import time
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .coefficients import CoefficientQ, sample_Q
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
from .dual import random_initial_guess, solve_ground_state
from .errors import ConfigError, InsufficientDataError, NumericalError
from .grid import TorusGrid
from .params import OUTSIDE_HYPOTHESES_MARKER, Exponents
from .resolvent import (
    ResolventSpec,
    band_decompose,
    compact_bump,
    disjoint_interaction,
    fit_decay_exponent,
    radial_envelope,
)

_AXES = ("x", "y", "z")


def _format_cell(value) -> str:
    """One CSV cell; floats at 12 significant digits (the JSON mirror keeps every digit)."""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".12g")
    return str(value)


class _Run:
    """One run's inputs, and its artifacts held in memory until `finish`."""

    def __init__(
        self, command: str, cfg: RunConfig, exps: Exponents, grid: TorusGrid, spec: ResolventSpec, Q: CoefficientQ
    ):
        self.cfg, self.exps, self.grid, self.spec, self.Q = cfg, exps, grid, spec, Q
        self.started = time.perf_counter()
        self.files = {"resolved_config.cfg": render_config(cfg)}
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
        lines = [",".join(columns)]
        lines += [",".join(_format_cell(cell) for cell in row) for row in rows]
        self.files[f"{name}.csv"] = "\n".join(lines) + "\n"
        if self.cfg.out_format == "json":
            objects = ",\n".join("  " + json.dumps(dict(zip(columns, row))) for row in rows)
            self.files[f"{name}.json"] = "[\n" + objects + "\n]\n"

    def finish(self, code: int, **extra) -> int:
        """Write every artifact into the output directory and return the exit code."""
        self.manifest.update(extra)
        self.manifest["wall_time_s"] = time.perf_counter() - self.started
        self.files["run_manifest.json"] = json.dumps(self.manifest, indent=2, sort_keys=True) + "\n"
        out = Path(self.cfg.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        for name, text in self.files.items():
            (out / name).write_text(text, encoding="utf-8")
        return code


def _peak_columns(dim: int, prefix: str) -> list[str]:
    return [f"{prefix}_{_AXES[i]}" for i in range(dim)]


def _cmd_kernel_check(run: _Run) -> int:
    cfg, grid = run.cfg, run.grid
    bundle = band_decompose(run.spec, grid)
    window = (cfg.window_lo, cfg.window_hi)
    if window[1] > 0.5 * grid.half_width:
        warnings.warn(
            f"fit window reaches radius {window[1]:g} but wraparound "
            f"contaminates decay beyond {0.5 * grid.half_width:g} (half of half_width)"
        )
    parts = [
        ("K1", bundle.band, (1.0 - grid.dim) / 2.0),
        ("K2", bundle.remainder, (1.0 - grid.dim) / 2.0 - 1.0),
    ]
    decay_rows = []
    envelope_rows = []
    for name, field, target in parts:
        envelope = radial_envelope(field, cfg.shells)
        slope = fit_decay_exponent(envelope, window)
        decay_rows.append([name, window[0], window[1], slope, target])
        envelope_rows.extend([name, r, v] for r, v in envelope)
    run.table("kernel_decay", ["part", "window_lo", "window_hi", "slope", "target_slope"], decay_rows)
    run.table("kernel_envelope", ["part", "radius", "value"], envelope_rows)
    for row in decay_rows:
        print(f"{row[0]}: slope {row[3]:+.4f} over radii ({row[1]:g}, {row[2]:g}), reference {row[4]:+.2f}")
    return run.finish(0, slopes={row[0]: row[3] for row in decay_rows})


def _cmd_interaction_check(run: _Run) -> int:
    cfg, grid = run.cfg, run.grid
    radius = cfg.bump_radius
    farthest = 2.0 * radius + max(cfg.gaps) + grid.spacing + radius
    if farthest > grid.half_width:
        raise ConfigError(
            f"largest gap needs the box to reach {farthest:g} but grid.half_width is {grid.half_width:g}",
            field="interaction.gaps",
        )
    origin = (0.0,) * grid.dim
    try:
        inner = compact_bump(grid, origin, radius)
        outer = [
            (gap, compact_bump(grid, (2.0 * radius + gap + grid.spacing,) + (0.0,) * (grid.dim - 1), radius))
            for gap in cfg.gaps
        ]
    except ValueError as exc:
        # the radius is positive, so the bump's ball holds no grid node
        raise ConfigError(str(exc), field="interaction.bump_radius") from None
    values = disjoint_interaction(inner, outer, run.spec, inner_radius=radius)
    rows = [[gap, value] for gap, value in zip(cfg.gaps, values)]
    for gap, value in rows:
        print(f"gap {gap:g}: interaction {value:.6e}")
    run.table("interaction", ["gap", "interaction"], rows)
    slope = None
    if len(rows) >= 2 and all(row[1] > 0 for row in rows):
        slope = float(
            np.polyfit(np.log([row[0] for row in rows]), np.log([row[1] for row in rows]), 1)[0]
        )
        print(f"interaction decay slope {slope:+.4f} (lambda_p = {run.exps.lambda_p:g})")
    return run.finish(0, interaction_slope=slope, lambda_p=run.exps.lambda_p)


def _cmd_solve(run: _Run) -> int:
    cfg, exps, grid, spec, Q = run.cfg, run.exps, run.grid, run.spec, run.Q
    # one solve, from the solver's cold start on the sampled Q's largest node (where every
    # family member of levels and sweep starts) or from seeded noise
    init = random_initial_guess(grid, spec, cfg.seed) if cfg.init == "random" else None
    gs = solve_ground_state(sample_Q(Q, grid, exps.eps), exps, spec, init=init, tol=cfg.tol, max_iter=cfg.max_iter)
    columns = (
        ["level", "residual", "iterations", "converged", "quad_form", "nehari_defect", "scale_factor"]
        + _peak_columns(grid.dim, "peak")
        + _peak_columns(grid.dim, "peak_phys")
    )
    row = [
        gs.level,
        gs.fixed_point_residual,
        gs.iterations,
        gs.converged,
        gs.state.quad_form,
        gs.state.nehari_residual,
        exps.scale_factor,
        *gs.peak,
        *(exps.eps * c for c in gs.peak),
    ]
    run.table("ground_state", columns, [row])
    peak_text = ", ".join(f"{c:.4f}" for c in gs.peak)
    print(
        f"level {gs.level:.8f} after {gs.iterations} iterations "
        f"(residual {gs.fixed_point_residual:.2e}, converged {str(gs.converged).lower()}), peak ({peak_text})"
    )
    return run.finish(
        0 if gs.converged else 1, converged=gs.converged, level=gs.level, iterations=gs.iterations
    )


def _cmd_levels(run: _Run) -> int:
    cfg, Q = run.cfg, run.Q
    if Q.background_value <= 0:
        raise ConfigError(
            "levels needs a positive background value to define c_inf", field="coefficient.background"
        )
    table = level_table(
        Q,
        cfg.eps_values,
        run.exps,
        run.grid,
        run.spec,
        tol=cfg.tol,
        max_iter=cfg.max_iter,
    )
    rows = [
        [row.eps, row.level, table.peak_level, table.background_level, row.gap_low, row.gap_high, row.converged]
        for row in table.rows
    ]
    run.table("levels", ["eps", "c_eps", "c_0", "c_inf", "gap_low", "gap_high", "converged"], rows)
    print(f"c_0 {table.peak_level:.8f}   c_inf {table.background_level:.8f}")
    for row in table.rows:
        print(
            f"eps {row.eps:g}: c_eps {row.level:.8f} gap_low {row.gap_low:+.6f} "
            f"gap_high {row.gap_high:+.6f} ({row.iterations} iterations)"
        )
    all_ok = table.peak_converged and all(r.converged for r in table.rows)
    return run.finish(
        0 if all_ok else 1,
        peak_level=table.peak_level,
        background_level=table.background_level,
        limits_converged=[table.peak_converged, table.background_converged],
        rows_converged=[r.converged for r in table.rows],
    )


def _cmd_sweep(run: _Run) -> int:
    cfg, dim = run.cfg, run.grid.dim
    records = run_sweep(
        run.Q,
        cfg.k_values,
        run.exps,
        run.grid,
        run.spec,
        tol=cfg.tol,
        max_iter=cfg.max_iter,
    )
    columns = (
        ["k", "eps", "level"]
        + _peak_columns(dim, "peak")
        + _peak_columns(dim, "peak_phys")
        + ["profile_distance", "iterations", "converged"]
    )
    rows = [
        [rec.k, rec.eps, rec.level, *rec.peak_rescaled, *rec.peak_physical, rec.profile_distance, rec.iterations, rec.converged]
        for rec in records
    ]
    run.table("sweep", columns, rows)
    final_fraction = None
    for rec in reversed(records):
        if rec.converged:
            final_fraction = single_bubble_fraction(rec.state)
            break
    for rec in records:
        peak_text = ", ".join(f"{c:.4f}" for c in rec.peak_physical)
        print(
            f"k {rec.k:g}: level {rec.level:.8f} peak_phys ({peak_text}) "
            f"distance {rec.profile_distance:.4f} ({rec.iterations} iterations)"
        )
    return run.finish(
        0 if all(rec.converged for rec in records) else 1,
        rows_converged=[rec.converged for rec in records],
        final_single_bubble_fraction=final_fraction,
    )


_COMMANDS = {
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
    parser.add_argument("command", choices=sorted([*_COMMANDS, "validate-params"]))
    parser.add_argument("--config", help="path to a flat key = value config file")
    parser.add_argument("--out", help="output directory (overrides output.dir)")
    parser.add_argument("--force", action="store_true", help="run even when exponents are out of range")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # both restore the defaults on return; underflow stays silent, as exp tails rely on it
    with warnings.catch_warnings(), np.errstate(over="raise", divide="raise", invalid="raise"):
        # a warning raised during the run is one diagnosis line, as kernel-check's window warning
        warnings.showwarning = lambda message, *_: print(f"warning: {message}", file=sys.stderr)
        try:
            cfg = load_config(args.config) if args.config else RunConfig()
            if args.out is not None:
                cfg = replace(cfg, out_dir=args.out)
            exps = make_exponents(cfg)
            report = [
                f"{c.name}: {'pass' if c.passed else 'FAIL'} (value {c.value:g}, admissible {c.admissible})"
                for c in exps.hypothesis_report()
            ]
            # the paper also asks limsup Q < sup Q; constant-Q reference runs fail it on
            # purpose, so it is reported next to the exponent checks but never gates a run
            Q = make_coefficient(cfg)
            holds = Q.background_value < Q.sup_value
            report.append(
                f"coefficient: limsup Q < sup Q {'holds' if holds else 'fails'} "
                f"(limsup Q {Q.background_value:g}, sup Q {Q.sup_value:g}; reported, not gated)"
            )
            report.append(f"p_dual = {exps.p_dual:.6g}, lambda_p = {exps.lambda_p:.6g}")
            if args.command == "validate-params":
                print(*report, sep="\n")
                if exps.within_hypotheses:
                    return 0
                print(f"marker: {OUTSIDE_HYPOTHESES_MARKER}")
                return 3
            # the grid and spec come before the gate, so a config error (exit 2) outranks it (exit 3)
            grid = make_grid(cfg)
            spec = make_spec(cfg, grid)
            if not exps.within_hypotheses:
                print(*report, sep="\n", file=sys.stderr)
                if not args.force:
                    print("validity check failed; pass --force to run anyway", file=sys.stderr)
                    return 3
                print(f"proceeding anyway; outputs carry the marker {OUTSIDE_HYPOTHESES_MARKER!r}", file=sys.stderr)
            return _COMMANDS[args.command](_Run(args.command, cfg, exps, grid, spec, Q))
        except (ConfigError, InsufficientDataError, OSError) as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return 2
        except MemoryError as exc:
            # numpy refuses at once an array larger than the machine can hold
            print(f"config error: grid.dim and grid.points ask for more memory than there is: {exc}", file=sys.stderr)
            return 2
        except (NumericalError, ArithmeticError) as exc:
            print(f"numerical error: {exc}", file=sys.stderr)
            return 4


if __name__ == "__main__":
    sys.exit(main())
