"""Benchmark workloads: seeded configs, the commands they run, and output checks.

Standard library only, so the benchmark parent, its workers and a reader
can use this module without numpy or helmlab. Every check derives from
an exact fact of the model or from an acceptance-criterion bound, never
from the program's own bookkeeping.
"""
from __future__ import annotations

import csv
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

# Constant-coefficient level at Q = 1 on the 2D 128^2, L = 16, s = 1,
# p = 5 grid with auto delta; the value frozen in tests/conftest.py.
STANDARD_LEVEL = 5.380510993273907

# Each axis of the bump centre sits 1/8 away from the origin, with a
# seeded sign. At every eps of the runs (1/2, 1/4, 1/8) that is a whole
# number of cells, so each sign variant is a mirror image of the others
# and does the same work; the seed varies the input, not its difficulty.
CENTER_OFFSET = 0.125


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: a seeded config and the commands run on it."""

    name: str
    why: str
    commands: tuple[tuple[str, ...], ...]
    config: Callable[[int], tuple[str, dict]]
    check: Callable[[str, Path, dict], list[str]]
    uses_seed: bool = True


def _plane_config(seed: int) -> tuple[str, dict]:
    rng = random.Random(seed)
    center = tuple(CENTER_OFFSET * rng.choice((-1.0, 1.0)) for _ in range(2))
    text = (
        "grid.dim = 2\ngrid.points = 128\ngrid.half_width = 16.0\n"
        "model.s = 1.0\nmodel.p = 5.0\nmodel.k = 8.0\nmodel.delta = auto\n"
        "coefficient.kind = bump\ncoefficient.background = 0.5\n"
        "coefficient.amplitude = 1.0\ncoefficient.width = 1.0\n"
        + f"coefficient.centers = {', '.join(repr(c) for c in center)}\n"
        + "sweep.k_values = 2.0, 4.0, 8.0\n"
        + "sweep.eps_values = 0.5, 0.25, 0.125\n"
        + "output.format = json\n"
    )
    return text, {"center": center, "spacing": 32.0 / 128, "p": 5.0, "sup": 1.5, "background": 0.5}


def _cube_kernel_config(seed: int) -> tuple[str, dict]:
    text = (
        "grid.dim = 3\ngrid.points = 128\ngrid.half_width = 32.0\n"
        "model.s = 1.0\nmodel.p = 5.0\nmodel.k = 8.0\nmodel.delta = 0.2\n"
        "kernel.shells = 12\nkernel.window_lo = 4.0\nkernel.window_hi = 16.0\n"
        "interaction.gaps = 2.0, 4.0, 8.0\ninteraction.bump_radius = 2.0\n"
    )
    return text, {"dim": 3, "p": 5.0}


# ----------------------------------------------------------------- readers


def _read_csv(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _value(text: str):
    if text in ("true", "false"):
        return text == "true"
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


def _table(out: Path, name: str, failures: list[str], mirrored: bool = False) -> list[dict]:
    """Rows of a result table with typed cells; checks the JSON mirror if asked."""
    try:
        rows = [{k: _value(v) for k, v in row.items()} for row in _read_csv(out / f"{name}.csv")]
    except OSError as exc:
        failures.append(f"{name}.csv unreadable: {exc}")
        return []
    if not rows:
        failures.append(f"{name}.csv has no rows")
    if mirrored:
        try:
            mirror = json.loads((out / f"{name}.json").read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            failures.append(f"{name}.json unreadable: {exc}")
        else:
            if not _same_table(rows, mirror):
                failures.append(f"{name}.json does not mirror {name}.csv")
    return rows


def _same_table(rows: list[dict], mirror) -> bool:
    if not isinstance(mirror, list) or len(mirror) != len(rows):
        return False
    for row, obj in zip(rows, mirror):
        if not isinstance(obj, dict) or list(obj) != list(row):
            return False
        for key, cell in row.items():
            other = obj[key]
            if isinstance(cell, float) or isinstance(other, float):
                # the CSV carries 12 significant digits, the mirror 17
                if not math.isclose(float(cell), float(other), rel_tol=1e-11):
                    return False
            elif cell != other:
                return False
    return True


def _manifest(out: Path, failures: list[str]) -> dict:
    try:
        return json.loads((out / "run_manifest.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        failures.append(f"run_manifest.json unreadable: {exc}")
        return {}


def _loglog_slope(xs, ys) -> float:
    lx = [math.log(x) for x in xs]
    ly = [math.log(y) for y in ys]
    mx = sum(lx) / len(lx)
    my = sum(ly) / len(ly)
    return sum((a - mx) * (b - my) for a, b in zip(lx, ly)) / sum((a - mx) ** 2 for a in lx)


# ------------------------------------------------------------------ checks


def _check_plane(command: str, out: Path, ctx: dict) -> list[str]:
    failures: list[str] = []
    manifest = _manifest(out, failures)
    if manifest.get("within_hypotheses", True) or not manifest.get("marker"):
        failures.append("2D run is not flagged as outside the paper hypotheses")
    if command == "levels":
        rows = _table(out, "levels", failures, mirrored=True)
        if not rows:
            return failures
        # the manifest carries the limit levels at full precision
        c0 = manifest.get("peak_level", math.nan)
        cinf = manifest.get("background_level", math.nan)
        # c(q) = q^(-2/(p-2)) c(1) for a constant coefficient q
        exponent = -2.0 / (ctx["p"] - 2.0)
        for label, level, q in (("c_0", c0, ctx["sup"]), ("c_inf", cinf, ctx["background"])):
            expected = q**exponent * STANDARD_LEVEL
            if not abs(level - expected) <= 1e-9 * expected:
                failures.append(f"{label} {level!r} breaks the scaling identity (expected {expected!r})")
        if not all(manifest.get("limits_converged", [False])):
            failures.append("a limit solve did not converge")
        for row in rows:
            if row["converged"] is not True:
                failures.append(f"levels row eps={row['eps']} did not converge")
            if row["gap_low"] < -1e-3 * abs(c0):
                failures.append(f"levels row eps={row['eps']} falls below the c_0 floor")
        gaps = [row["gap_low"] for row in rows]
        for first, second in zip(gaps, gaps[1:]):
            if second > 1.1 * first:
                failures.append(f"gap_low grows from {first!r} to {second!r}")
        if rows[-1]["c_eps"] >= cinf:
            failures.append("final level is not below the background level")
    elif command == "sweep":
        rows = _table(out, "sweep", failures, mirrored=True)
        if not rows:
            return failures
        if not all(row["converged"] is True for row in rows):
            failures.append("a sweep step did not converge")
        distances = [row["profile_distance"] for row in rows]
        for first, second in zip(distances, distances[1:]):
            if second > first + 1e-12:
                failures.append(f"profile distance grows from {first!r} to {second!r}")
        final = rows[-1]
        if final["profile_distance"] > 0.1:
            failures.append(f"final profile distance {final['profile_distance']!r} exceeds 0.1")
        cell = ctx["spacing"] * final["eps"]
        peak = (final["peak_phys_x"], final["peak_phys_y"])
        if any(abs(p - c) > 2.0 * cell for p, c in zip(peak, ctx["center"])):
            failures.append(f"final peak {peak} is not within two cells of the bump centre")
        fraction = manifest.get("final_single_bubble_fraction")
        if fraction is None or fraction < 0.9:
            failures.append(f"final single-bubble fraction {fraction!r} is below 0.9")
    else:
        failures.append(f"unexpected command {command}")
    return failures


def _check_cube_kernel(command: str, out: Path, ctx: dict) -> list[str]:
    failures: list[str] = []
    _manifest(out, failures)
    if command == "kernel-check":
        rows = {row["part"]: row for row in _table(out, "kernel_decay", failures)}
        if set(rows) != {"K1", "K2"}:
            return failures + [f"kernel_decay.csv parts {sorted(rows)}, expected K1 and K2"]
        # criterion 6: K1 decays like r^((1-N)/2) = r^-1, K2 faster than r^-2
        if abs(rows["K1"]["slope"] + 1.0) > 0.5:
            failures.append(f"K1 slope {rows['K1']['slope']!r} is not within 0.5 of -1")
        if rows["K2"]["slope"] > -2.0:
            failures.append(f"K2 slope {rows['K2']['slope']!r} is above -2")
    elif command == "interaction-check":
        rows = _table(out, "interaction", failures)
        if len(rows) < 2:
            return failures + ["interaction.csv needs at least two gaps"]
        values = [row["interaction"] for row in rows]
        if not all(v > 0 for v in values):
            return failures + ["an interaction is not positive"]
        # criterion 7: decay at least at rate lambda_p = (N-1)/2 - (N+1)/p, less 0.3
        lambda_p = (ctx["dim"] - 1) / 2.0 - (ctx["dim"] + 1) / ctx["p"]
        slope = _loglog_slope([row["gap"] for row in rows], values)
        if slope > -lambda_p + 0.3:
            failures.append(f"interaction slope {slope!r} is above {-lambda_p + 0.3!r}")
    else:
        failures.append(f"unexpected command {command}")
    return failures


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="plane-concentration",
            why="2D concentration experiment: levels then sweep, 9 small-FFT solves incl. 3 limit "
            "solves; start-up, solver Python and redundant limit solves dominate",
            commands=(("levels", "--force"), ("sweep", "--force")),
            config=_plane_config,
            check=_check_plane,
        ),
        Workload(
            name="cube-kernel",
            why="3D 128^3 kernel-check then interaction-check: one-shot multipliers on large arrays, "
            "never calls the solver (bypass workload); ignores the seed",
            commands=(("kernel-check",), ("interaction-check",)),
            config=_cube_kernel_config,
            check=_check_cube_kernel,
            uses_seed=False,
        ),
    )
}
