"""Batch command-line front end.

Every run reads one flat config file, writes a resolved-config echo, the
result tables, and a run manifest into the output directory, and then
says what it did on stdout. `main` makes the run's inputs and applies the
hypothesis gate once for every command; a command gets them as one
`_Run`, which holds the artifacts and the summary lines in memory until
`finish` writes the artifacts, so a run that stops on an error writes
nothing, and a closed stdout loses none of them. No command draws random
numbers, so outputs are deterministic for a fixed config. Exit codes: 0
success, 1 a required solve did not converge, 2 malformed config or a grid
too large to allocate, 3 validity-range violation without --force, 4 a
numerical failure (any `NumericalError` or `ArithmeticError`: `main`
makes numpy raise `FloatingPointError` on overflow, division by zero
and invalid operations, and Python's float arithmetic raises its own),
120 stdout could not be written (CPython's status for that; it replaces
the run's own code, and the artifacts of a run that ended 0 or 1 are
written). Exits 2, 4 and 120 print one line on stderr.

`main(argv)` is the in-process entry and returns the exit code. `run` is
the process entry of `helmlab` and `python -m helmlab.cli`: after `main`
returns it runs the `atexit` handlers, flushes stdout and stderr and ends
the process with `os._exit`, skipping the interpreter's teardown of numpy
and of memory the operating system reclaims anyway. On 2 vCPUs with 2 BLAS
threads that teardown took 24-32 ms (medians) of a 170-280 ms command;
the exit takes 2-3 ms. A host that runs this module in a namespace of its
own, such as `python -m cProfile -m` or `python -m trace --module`, keeps
`sys.exit(main())` and prints its report.
"""
from __future__ import annotations

import argparse
import atexit
import json
import os
import sys
import time
import warnings
from dataclasses import replace
from pathlib import Path
from typing import NoReturn

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
from .dual import limit_ground_state, solve_ground_state
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
_STDOUT_FAILED = 120  # CPython's exit status when it cannot flush stdout or stderr at exit


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
        self.lines: list[str] = []  # the stdout summary, printed after the artifacts are written
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

    def table(self, name: str, rows: list[dict]) -> None:
        """A result table from its rows, each a dict from column name to cell in column order."""
        lines = [",".join(rows[0])]
        lines += [",".join(_format_cell(cell) for cell in row.values()) for row in rows]
        self.files[f"{name}.csv"] = "\n".join(lines) + "\n"
        if self.cfg.out_format == "json":
            objects = ",\n".join("  " + json.dumps(row) for row in rows)
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


def _per_axis(prefix: str, coords) -> dict:
    """One column per axis of a point: `{prefix}_x`, `{prefix}_y`, ..."""
    return {f"{prefix}_{axis}": c for axis, c in zip(_AXES, coords)}


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
        decay_rows.append(
            {"part": name, "window_lo": window[0], "window_hi": window[1], "slope": slope, "target_slope": target}
        )
        envelope_rows += ({"part": name, "radius": r, "value": v} for r, v in envelope)
        run.lines.append(
            f"{name}: slope {slope:+.4f} over radii ({window[0]:g}, {window[1]:g}), reference {target:+.2f}"
        )
    run.table("kernel_decay", decay_rows)
    run.table("kernel_envelope", envelope_rows)
    return run.finish(0, slopes={row["part"]: row["slope"] for row in decay_rows})


def _cmd_interaction_check(run: _Run) -> int:
    cfg, grid = run.cfg, run.grid
    radius = cfg.bump_radius
    farthest = 2.0 * radius + max(cfg.gaps) + grid.spacing + radius
    if farthest > grid.half_width:
        raise ConfigError(
            f"largest gap needs the box to reach {farthest:g} but grid.half_width is {grid.half_width:g}",
            field="interaction.gaps",
        )
    try:
        inner = compact_bump(grid, (0.0,) * grid.dim, radius)
    except ValueError as exc:
        # the radius is positive, so the bump is zero at every grid node
        raise ConfigError(str(exc), field="interaction.bump_radius") from None
    outer = []
    for gap in cfg.gaps:
        center = (2.0 * radius + gap + grid.spacing,) + (0.0,) * (grid.dim - 1)
        try:
            outer.append((gap, compact_bump(grid, center, radius)))
        except ValueError as exc:
            # a ball of radius >= h/2 centred on the axis reaches a node within h/2 of its
            # centre, so its gap put that node on the rim, where the profile underflows;
            # a smaller ball misses the nodes at most gaps
            field = "interaction.gaps" if 2.0 * radius >= grid.spacing else "interaction.bump_radius"
            raise ConfigError(f"{exc}, placed by the gap {gap}", field=field) from None
    values = disjoint_interaction(inner, outer, run.spec, inner_radius=radius)
    run.table("interaction", [{"gap": gap, "interaction": value} for gap, value in zip(cfg.gaps, values)])
    run.lines += [f"gap {gap:g}: interaction {value:.6e}" for gap, value in zip(cfg.gaps, values)]
    slope = None
    if len(values) >= 2 and all(value > 0 for value in values):
        slope = float(np.polyfit(np.log(cfg.gaps), np.log(values), 1)[0])
        run.lines.append(f"interaction decay slope {slope:+.4f} (lambda_p = {run.exps.lambda_p:g})")
    return run.finish(0, interaction_slope=slope, lambda_p=run.exps.lambda_p)


def _cmd_solve(run: _Run) -> int:
    cfg, exps, grid, spec, Q = run.cfg, run.exps, run.grid, run.spec, run.Q
    # one solve, from the solver's cold start on the sampled Q's largest node, where every
    # family member of levels and sweep starts
    gs = solve_ground_state(sample_Q(Q, grid, exps.eps), exps, spec, tol=cfg.tol, max_iter=cfg.max_iter)
    row = {
        "level": gs.level, "residual": gs.fixed_point_residual, "iterations": gs.iterations, "converged": gs.converged,
        "quad_form": gs.state.quad_form, "nehari_defect": gs.state.nehari_residual, "scale_factor": exps.scale_factor,
        **_per_axis("peak", gs.peak), **_per_axis("peak_phys", (exps.eps * c for c in gs.peak)),
    }
    run.table("ground_state", [row])
    peak_text = ", ".join(f"{c:.4f}" for c in gs.peak)
    run.lines.append(
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
        {"eps": row.eps, "c_eps": row.level, "c_0": table.peak_level, "c_inf": table.background_level,
         "gap_low": row.gap_low, "gap_high": row.gap_high, "converged": row.converged}
        for row in table.rows
    ]
    run.table("levels", rows)
    run.lines.append(f"c_0 {table.peak_level:.8f}   c_inf {table.background_level:.8f}")
    run.lines += [
        f"eps {row.eps:g}: c_eps {row.level:.8f} gap_low {row.gap_low:+.6f} "
        f"gap_high {row.gap_high:+.6f} ({row.iterations} iterations)"
        for row in table.rows
    ]
    all_ok = table.peak_converged and all(r.converged for r in table.rows)
    return run.finish(
        0 if all_ok else 1,
        peak_level=table.peak_level,
        background_level=table.background_level,
        limits_converged=[table.peak_converged],  # c_inf is c_0 rescaled: one limit solve
        rows_converged=[r.converged for r in table.rows],
    )


def _cmd_sweep(run: _Run) -> int:
    cfg = run.cfg
    # the run reports this limit's convergence, since every profile_distance is measured to it
    limit = limit_ground_state(run.Q.sup_value, run.grid, run.exps, run.spec, tol=cfg.tol, max_iter=cfg.max_iter)
    records = run_sweep(
        run.Q, cfg.k_values, run.exps, run.grid, run.spec, tol=cfg.tol, max_iter=cfg.max_iter, limit=limit
    )
    rows = [
        {"k": rec.k, "eps": rec.eps, "level": rec.level,
         **_per_axis("peak", rec.peak_rescaled), **_per_axis("peak_phys", rec.peak_physical),
         "profile_distance": rec.profile_distance, "iterations": rec.iterations, "converged": rec.converged}
        for rec in records
    ]
    run.table("sweep", rows)
    final_fraction = None
    for rec in reversed(records):
        if rec.converged:
            final_fraction = single_bubble_fraction(rec.state)
            break
    for rec in records:
        peak_text = ", ".join(f"{c:.4f}" for c in rec.peak_physical)
        run.lines.append(
            f"k {rec.k:g}: level {rec.level:.8f} peak_phys ({peak_text}) "
            f"distance {rec.profile_distance:.4f} ({rec.iterations} iterations)"
        )
    return run.finish(
        0 if limit.converged and all(rec.converged for rec in records) else 1,
        limits_converged=[limit.converged],
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


def _print_summary(lines: list[str], code: int) -> int:
    """Print a run's summary on stdout; a stdout that cannot take it turns `code` into 120."""
    try:
        for line in lines:
            print(line)
    except OSError as exc:
        return _stdout_failed(exc)
    return code


def _stdout_failed(exc: OSError) -> int:
    try:
        print(f"stdout error: {exc}", file=sys.stderr)
    except OSError:
        pass
    return _STDOUT_FAILED


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
                if exps.within_hypotheses:
                    return _print_summary(report, 0)
                return _print_summary([*report, f"marker: {OUTSIDE_HYPOTHESES_MARKER}"], 3)
            # the grid and spec come before the gate, so a config error (exit 2) outranks it (exit 3)
            grid = make_grid(cfg)
            spec = make_spec(cfg, grid)
            if not exps.within_hypotheses:
                print(*report, sep="\n", file=sys.stderr)
                if not args.force:
                    print("validity check failed; pass --force to run anyway", file=sys.stderr)
                    return 3
                print(f"proceeding anyway; outputs carry the marker {OUTSIDE_HYPOTHESES_MARKER!r}", file=sys.stderr)
            job = _Run(args.command, cfg, exps, grid, spec, Q)
            code = _COMMANDS[args.command](job)
            return _print_summary(job.lines, code)
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


def run(argv=None) -> NoReturn:
    """Run `main` as a whole process and end it without the interpreter's teardown.

    After `main` returns, the `atexit` handlers run and stdout and stderr are
    flushed, in CPython's own order, and `os._exit` ends the process. An exception
    out of `main`, argparse's `SystemExit` included, takes the ordinary exit.
    """
    code = main(argv)
    atexit._run_exitfuncs()
    try:
        sys.stdout.flush()
    except OSError as exc:
        if code != _STDOUT_FAILED:  # a summary that failed in `main` is reported there
            code = _stdout_failed(exc)
    try:
        sys.stderr.flush()
    except OSError:
        code = _STDOUT_FAILED
    os._exit(code)


if __name__ == "__main__":
    # only as the process's own __main__ (python -m helmlab.cli); a profiler or tracer
    # running this module in a namespace of its own prints its report after main returns
    if sys.modules["__main__"].__dict__ is globals():
        run()
    sys.exit(main())
