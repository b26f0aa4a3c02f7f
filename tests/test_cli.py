"""End-to-end checks of the batch front end.

Most tests run in process via main(); the packaging tests run the declared
console script as a separate process.
"""
import ast
import dataclasses
import inspect
import json
import os
import re
import shutil
import subprocess
import sys
import tracemalloc
import types
import typing
from pathlib import Path

import numpy as np
import pytest

import helmlab
import helmlab.cli
import helmlab.dual
import helmlab.grid
import helmlab.resolvent
from helmlab import RealField, apply_multiplier_values, sample_Q, solve_ground_state
from helmlab.cli import main
from helmlab.coefficients import max_node
from helmlab.config import make_coefficient, make_exponents, make_grid, make_spec, parse_config_text
from helmlab.resolvent import ResolventSpec

from conftest import STANDARD_LEVEL, numpy_runs_x86_openblas, readme_config

MARKER = "outside paper hypotheses"


def write_cfg(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


CUBE_CFG = "grid.dim = 3\ngrid.points = 32\ngrid.half_width = 16.0\nmodel.delta = 0.2\n"


def read_rows(path):
    header, *rows = path.read_text(encoding="utf-8").splitlines()
    return header.split(","), [r.split(",") for r in rows]


# ------------------------------------------------------------ validity gate


def test_validate_params_accepts_3d(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "v.cfg", "grid.dim = 3\ngrid.points = 64\n")
    assert main(["validate-params", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert out.count("pass") == 3
    assert "FAIL" not in out


def test_validate_params_flags_the_default_2d_setup(capsys):
    assert main(["validate-params"]) == 3
    out = capsys.readouterr().out
    assert "FAIL" in out
    assert MARKER in out


@pytest.mark.parametrize(
    "kind, line",
    [
        ("bump", "coefficient: limsup Q < sup Q holds (limsup Q 0.5, sup Q 1.5; reported, not gated)"),
        ("constant", "coefficient: limsup Q < sup Q fails (limsup Q 1, sup Q 1; reported, not gated)"),
    ],
)
def test_coefficient_condition_is_reported_but_never_gates(tmp_path, capsys, kind, line):
    # a constant Q, the reference case, fails the condition; the 3D exponents
    # alone decide the exit code either way
    cfg = write_cfg(tmp_path, "v.cfg", f"grid.dim = 3\ngrid.points = 64\ncoefficient.kind = {kind}\n")
    assert main(["validate-params", "--config", cfg]) == 0
    out = capsys.readouterr().out.splitlines()
    assert [text for text in out if text.startswith("coefficient: ")] == [line]


def test_gate_blocks_runs_without_force(tmp_path, capsys):
    out_dir = tmp_path / "blocked"
    cfg = write_cfg(tmp_path, "s.cfg", f"coefficient.kind = constant\noutput.dir = {out_dir}\n")
    assert main(["solve", "--config", cfg]) == 3
    assert "--force" in capsys.readouterr().err
    assert not out_dir.exists()  # refused before writing anything


# ------------------------------------------------------------ config errors


def test_missing_config_file_is_a_config_error(tmp_path, capsys):
    assert main(["solve", "--config", str(tmp_path / "nope.cfg")]) == 2
    assert "config error" in capsys.readouterr().err


def test_duplicate_key_is_a_config_error(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "dup.cfg", "grid.dim = 2\ngrid.dim = 2\n")
    assert main(["validate-params", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert "duplicate" in err and "line 2" in err


@pytest.mark.parametrize(
    "command, text",
    [
        ("solve", "grid.points = 8\ngrid.half_width = 0.5\n"),
        ("solve", "model.p = 2.0001\n"),
        ("interaction-check", CUBE_CFG + "interaction.gaps = 1.0, 1.0\n"),
        ("levels", CUBE_CFG + "coefficient.background = 0.0\n"),
        ("kernel-check", CUBE_CFG + "kernel.shells = 4\nkernel.window_lo = 1.0\nkernel.window_hi = 2.0\n"),
        ("solve", "grid.points = 32\nmodel.k = 1e-300\n"),
        ("sweep", "grid.points = 32\nsweep.k_values = 1e-300\n"),
        ("solve", "grid.points = 32\ncoefficient.centers = 1e200, 0.0\n"),
        ("solve", "grid.points = 32\ncoefficient.width = 1e200\n"),
        ("solve", "grid.points = 32\ncoefficient.width = 1e-170\n"),
        ("interaction-check", CUBE_CFG + "interaction.bump_radius = 0.2\n"),
        ("interaction-check", CUBE_CFG + "interaction.bump_radius = 1e-300\n"),
    ],
    ids=[
        "auto-delta-infeasible",
        "scale-factor-overflow",
        "repeated-gap",
        "levels-zero-background",
        "sparse-fit-window",
        "solve-window-overflow",
        "sweep-window-overflow",
        "centre-overflow",
        "width-overflow",
        "width-underflow",
        "bump-between-nodes",
        "bump-radius-underflow",
    ],
)
@pytest.mark.parametrize("force", [False, True], ids=["gated", "forced"])
def test_numerically_hopeless_config_is_a_one_line_config_error(tmp_path, capsys, command, text, force):
    # the config error outranks the hypothesis gate, so --force changes nothing
    cfg = write_cfg(tmp_path, "bad.cfg", text)
    args = [command, "--config", cfg, "--out", str(tmp_path / "out")] + (["--force"] if force else [])
    assert main(args) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("config error: ")
    assert not (tmp_path / "out").exists()


def _huge_maps_are_refused():
    # Linux's heuristic and strict overcommit modes refuse one 7 TiB map at
    # once; a kernel that always overcommits could hand it out and then run
    # out of memory on the first write
    try:
        return Path("/proc/sys/vm/overcommit_memory").read_text(encoding="utf-8").strip() in ("0", "2")
    except OSError:
        return False


@pytest.mark.skipif(not _huge_maps_are_refused(), reason="the kernel may grant a 7 TiB allocation")
def test_grid_too_large_to_allocate_is_a_one_line_config_error(tmp_path, capsys):
    # the 1e6-point axes take 8 MB each; the first (n, n, 1) array, 7.28 TiB, is refused
    cfg = write_cfg(tmp_path, "huge.cfg", "grid.dim = 3\ngrid.points = 1000000\n")
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "out"), "--force"]) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("config error: ") and "grid.dim" in line and "grid.points" in line
    assert not (tmp_path / "out").exists()


def test_hopeless_config_process_ends_without_a_traceback(tmp_path):
    cfg = write_cfg(tmp_path, "bad.cfg", "grid.points = 32\ncoefficient.width = 1e-170\n")
    args = ["solve", "--config", cfg, "--out", str(tmp_path / "out"), "--force"]
    done = run_script(sys.executable, "-m", "helmlab.cli", *args)
    assert done.returncode == 2, done.stderr
    assert "Traceback" not in done.stderr
    (line,) = done.stderr.splitlines()
    assert line.startswith("config error: ")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "key, value", [("solver.warm_start", "true"), ("output.precision", "12"), ("solver.init", "random")]
)
def test_removed_keys_are_unknown_keys(tmp_path, capsys, key, value):
    # every family solve starts from the limit state, CSV cells always carry 12 significant
    # digits, and solve always starts from the solver's cold start
    cfg = write_cfg(tmp_path, "old.cfg", f"{key} = {value}\n")
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith(f"config error: unknown key {key!r}")
    assert not (tmp_path / "out").exists()


def test_unknown_command_rejected_by_the_parser():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


# -------------------------------------------------------------------- solve


def test_solve_writes_the_run_artifacts(tmp_path, capsys):
    out_dir = tmp_path / "run"
    cfg = write_cfg(tmp_path, "s.cfg", f"coefficient.kind = constant\noutput.dir = {out_dir}\n")
    assert main(["solve", "--config", cfg, "--force"]) == 0
    assert sorted(p.name for p in out_dir.iterdir()) == [
        "ground_state.csv",
        "resolved_config.cfg",
        "run_manifest.json",
    ]

    columns, rows = read_rows(out_dir / "ground_state.csv")
    assert columns == [
        "level",
        "residual",
        "iterations",
        "converged",
        "quad_form",
        "nehari_defect",
        "scale_factor",
        "peak_x",
        "peak_y",
        "peak_phys_x",
        "peak_phys_y",
    ]
    (row,) = rows
    cells = dict(zip(columns, row))
    assert cells["converged"] == "true"
    assert float(cells["level"]) == pytest.approx(STANDARD_LEVEL, rel=1e-9)
    assert float(cells["scale_factor"]) == 4.0  # 8^(2s/(p-2)) for s=1, p=5

    manifest = json.loads((out_dir / "run_manifest.json").read_text(encoding="utf-8"))
    assert manifest["command"] == "solve"
    assert manifest["within_hypotheses"] is False
    assert manifest["marker"] == MARKER
    assert manifest["converged"] is True
    assert manifest["level"] == pytest.approx(STANDARD_LEVEL, rel=1e-12)

    # the config echo parses back to the exact settings the run used
    echoed = parse_config_text((out_dir / "resolved_config.cfg").read_text(encoding="utf-8"))
    assert echoed.kind == "constant"
    assert echoed.out_dir == str(out_dir)
    assert "level" in capsys.readouterr().out


README_CONFIG = """grid.dim = 2
grid.points = 128
grid.half_width = 16.0
model.s = 1.0
model.p = 5.0
model.k = 8.0
model.delta = auto
coefficient.kind = bump
coefficient.background = 0.5
coefficient.amplitude = 1.0
coefficient.width = 1.0
coefficient.centers = origin
sweep.k_values = 2.0, 4.0, 8.0
sweep.eps_values = 0.5, 0.25, 0.125
"""


TWO_CENTRES = "grid.points = 64\ncoefficient.centers = 1.0, 0.0; -1.0, 0.0\n"


@pytest.mark.parametrize("text", [README_CONFIG, TWO_CENTRES], ids=["one-centre", "two-centres"])
def test_solve_evaluates_the_symbol_once(tmp_path, monkeypatch, text):
    # a solve starts from the solver's own cold start for any number of centres,
    # so the start and the solve share one dual operator and one symbol evaluation
    calls = []
    original = ResolventSpec.symbol_values

    def counted(self, grid):
        calls.append(grid)
        return original(self, grid)

    monkeypatch.setattr(ResolventSpec, "symbol_values", counted)
    cfg = write_cfg(tmp_path, "run.cfg", text)
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "run"), "--force"]) == 0
    assert len(calls) == 1


def test_two_centre_solve_starts_on_the_sampled_maximum(tmp_path):
    # the bumps at (+-1, 0) overlap, so the sampled Q is largest at the origin node,
    # between the centres; the one solve starts there and ends below a solve
    # started on a cone-filtered Gaussian at either centre c / eps
    cfg = parse_config_text(TWO_CENTRES)
    path = write_cfg(tmp_path, "two.cfg", TWO_CENTRES)
    assert main(["solve", "--config", path, "--out", str(tmp_path / "run"), "--force"]) == 0
    columns, rows = read_rows(tmp_path / "run" / "ground_state.csv")
    row = dict(zip(columns, rows[0]))
    assert row["converged"] == "true"
    grid, exps = make_grid(cfg), make_exponents(cfg)
    spec = make_spec(cfg, grid)
    Qfield = sample_Q(make_coefficient(cfg), grid, exps.eps)
    assert max_node(Qfield) == grid.origin_index
    assert all(abs(float(row[f"peak_{axis}"])) <= grid.spacing for axis in "xy")
    positive_part = np.maximum(spec.symbol_values(grid), 0.0)
    for centre in cfg.centers:
        gauss = np.exp(-grid.periodic_distance2(tuple(c / exps.eps for c in centre)) / 2.0)
        start = apply_multiplier_values(RealField(grid, gauss), positive_part)
        other = solve_ground_state(Qfield, exps, spec, init=start, tol=cfg.tol, max_iter=cfg.max_iter)
        assert float(row["level"]) < other.level


def test_readme_configs_validate_as_documented(tmp_path):
    # the README's 3D example lies inside the paper's hypotheses; its 2D one
    # does not, so its runs need --force
    text = (REPO / "README.md").read_text(encoding="utf-8")
    blocks = [block for block in text.split("```")[1::2] if "grid.dim" in block]
    codes = {}
    for i, block in enumerate(blocks):
        path = write_cfg(tmp_path, f"{i}.cfg", block)
        codes[parse_config_text(block).dim] = main(["validate-params", "--config", path])
    assert len(blocks) == 2
    assert codes == {3: 0, 2: 3}


def test_readme_cube_example_shows_the_stated_numbers(tmp_path):
    # the README's 3D example runs levels and sweep without --force, and its
    # tables show the gaps and the peak that the README states
    prose = " ".join((REPO / "README.md").read_text(encoding="utf-8").split())
    assert "`gap_low` falls from 0.055 to 0.00025" in prose
    assert "the peak sits on the node at `(1/8, 1/8, 1/8)` from k = 4 on" in prose
    cfg = write_cfg(tmp_path, "cube.cfg", readme_config(3))
    for command in ("levels", "sweep"):
        assert main([command, "--config", cfg, "--out", str(tmp_path / command)]) == 0

    header, rows = read_rows(tmp_path / "levels" / "levels.csv")
    assert [float(row[header.index("eps")]) for row in rows] == [0.5, 0.25, 0.125]
    gaps = [float(row[header.index("gap_low")]) for row in rows]
    assert [f"{gaps[0]:.2g}", f"{gaps[-1]:.2g}"] == ["0.055", "0.00025"]

    header, rows = read_rows(tmp_path / "sweep" / "sweep.csv")
    assert [float(row[header.index("k")]) for row in rows] == [2.0, 4.0, 8.0]
    for row in rows[1:]:
        peak = [float(row[header.index(f"peak_phys_{axis}")]) for axis in "xyz"]
        assert peak == pytest.approx([0.125] * 3, abs=1e-9)


@pytest.mark.parametrize("command", ["solve", "levels", "sweep"])
def test_a_run_makes_its_coefficient_once(tmp_path, monkeypatch, command):
    # main makes Q for the hypothesis report and hands it to the command
    calls = []
    original = helmlab.cli.make_coefficient

    def counted(cfg):
        calls.append(cfg)
        return original(cfg)

    monkeypatch.setattr(helmlab.cli, "make_coefficient", counted)
    cfg = write_cfg(tmp_path, "run.cfg", README_CONFIG.replace("grid.points = 128", "grid.points = 32"))
    assert main([command, "--config", cfg, "--out", str(tmp_path / "run"), "--force"]) == 0
    assert len(calls) == 1


def test_solve_reports_a_warning_as_one_line(tmp_path, capsys):
    # the window at the default k = 8 is [-2, 2)^2 on 64 points: the bumps at (2.5, 0)
    # and (-1, 0) pull each other's maximum in by 0.0079, so one lies outside it
    # and one inside
    cfg = write_cfg(
        tmp_path,
        "w.cfg",
        "grid.points = 64\ncoefficient.centers = 2.5, 0.0; -1.0, 0.0\nsolver.max_iter = 5\n",
    )
    main(["solve", "--config", cfg, "--out", str(tmp_path / "run"), "--force"])
    err = capsys.readouterr().err.splitlines()
    assert len([line for line in err if line.startswith("warning: coefficient maximum at (2.4921")]) == 1
    assert not [line for line in err if line.startswith("warning: coefficient maximum at (-0.99")]
    assert not [line for line in err if ".py" in line]


MERGED_CUBE = readme_config(3).replace(
    "coefficient.centers = 0.125, 0.125, 0.125", "coefficient.centers = 0.5, 0.0, 0.0; -0.5, 0.0, 0.0"
)


def test_levels_of_merged_bumps_start_from_their_one_maximum(tmp_path, capsys):
    # unit bumps at (+-0.5, 0, 0) merge into one maximum at the origin, 0.5 + 2 e^(-1/8),
    # not the 1.5 of a lone bump, so c_0 is the level at that sup and no row of the
    # table sits below it by more than the solver's slack
    sup = 0.5 + 2.0 * np.exp(-0.125)
    cfg_path = write_cfg(tmp_path, "merged.cfg", MERGED_CUBE)
    assert main(["validate-params", "--config", cfg_path]) == 0
    assert f"sup Q {sup:g};" in capsys.readouterr().out
    assert main(["levels", "--config", cfg_path, "--out", str(tmp_path / "levels")]) == 0
    header, rows = read_rows(tmp_path / "levels" / "levels.csv")
    cfg = parse_config_text(MERGED_CUBE)
    grid, exps = make_grid(cfg), make_exponents(cfg)
    c0 = helmlab.dual.limit_ground_state(sup, grid, exps, make_spec(cfg, grid), tol=cfg.tol, max_iter=cfg.max_iter).level
    for row in rows:
        assert float(row[header.index("c_0")]) == pytest.approx(c0, rel=1e-11)
        assert float(row[header.index("gap_low")]) >= -1e-9 * c0


def test_a_coefficient_above_its_supremum_is_a_one_line_exit_4(tmp_path, monkeypatch, capsys):
    # a coefficient that reports the lone-bump sup 1.5 for the merged bumps samples
    # above it at the origin, which sample_Q diagnoses as a missed maximum
    class LoneBumpSup(helmlab.BumpOnBackgroundQ):
        @property
        def sup_value(self):
            return self.background + self.amplitude

    monkeypatch.setattr(helmlab.cli, "make_coefficient", lambda cfg: LoneBumpSup(**{
        "background": cfg.background, "amplitude": cfg.amplitude, "width": cfg.width, "centers": cfg.centers
    }))
    cfg = write_cfg(tmp_path, "merged.cfg", MERGED_CUBE)
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "run")]) == 4
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("numerical error: coefficient reaches ")
    assert "above its computed supremum 1.5: a maximum was missed" in err[0]
    assert not (tmp_path / "run").exists()


def test_stalled_solve_exits_nonzero(tmp_path):
    out_dir = tmp_path / "stall"
    cfg = write_cfg(
        tmp_path,
        "s.cfg",
        "coefficient.kind = constant\nsolver.tol = 1e-12\nsolver.max_iter = 15\n"
        f"output.dir = {out_dir}\n",
    )
    assert main(["solve", "--config", cfg, "--force"]) == 1
    columns, rows = read_rows(out_dir / "ground_state.csv")
    assert rows[0][columns.index("converged")] == "false"
    assert rows[0][columns.index("iterations")] == "15"
    manifest = json.loads((out_dir / "run_manifest.json").read_text(encoding="utf-8"))
    assert manifest["converged"] is False


@pytest.mark.parametrize(
    "text, force, level",
    [("grid.dim = 3\ngrid.points = 8\n", [], 174.33794356), ("grid.dim = 2\ngrid.points = 16\n", ["--force"], 5.24180915)],
    ids=["3D-8", "2D-16"],
)
def test_coarse_default_grids_converge_through_the_line_search(monkeypatch, tmp_path, text, force, level):
    # on these coarse grids a projected candidate leaves the cone, and only the
    # line-search mixes toward it carry the solve on to convergence
    original = helmlab.dual._DualOperator.project
    refused = []

    def project(self, c, resolved=None, a=None):
        out = original(self, c, resolved, a)
        refused.append(a is not None and out[0] is None)
        return out

    monkeypatch.setattr(helmlab.dual._DualOperator, "project", project)
    out_dir = tmp_path / "run"
    assert main(["solve", "--config", write_cfg(tmp_path, "c.cfg", text), "--out", str(out_dir)] + force) == 0
    assert any(refused)
    manifest = json.loads((out_dir / "run_manifest.json").read_text(encoding="utf-8"))
    assert manifest["level"] == pytest.approx(level, rel=1e-9)


def test_numerical_failure_is_a_one_line_exit_4(monkeypatch, tmp_path, capsys):
    # p' = p/(p-1) is so near 2 that the start's Nehari scale (A/B)^(1/(2-p')),
    # an exponent of 1e7, underflows to 0 on A/B < 1 and overflows on A/B > 1;
    # numpy's overflows are errors under main: a power past the float range
    # (p = 1e6), a symbol |xi|^(2s) (s = 200) and the squared wavenumbers of a
    # box with L = 1e-300; Python's float arithmetic raises its own, here on
    # c_inf = (background/sup)^(-2/(p-2)) c_0 with a ratio that underflows to 0;
    # the forced gate report comes first on stderr, and the diagnosis is its last line
    near_two = "grid.half_width = 8.0\nmodel.k = 1\nsweep.k_values = 1\nsweep.eps_values = 1\nmodel.p = 2.0000001\n"
    for command, text, message in [
        ("solve", "model.s = 1e-9\nmodel.p = 2.0000001\ngrid.points = 8\n", "underflows to 0"),
        ("solve", "grid.points = 32\n" + near_two, "(1.85)^(1e+07) overflows"),
        ("solve", "grid.points = 32\nmodel.p = 1e6\n", "overflow encountered"),
        ("solve", "grid.points = 32\nmodel.s = 200\nmodel.delta = 0.3\n", "overflow encountered"),
        ("solve", "grid.points = 32\ngrid.half_width = 1e-300\n", "overflow encountered"),
        (
            "levels",
            "grid.points = 16\nsolver.max_iter = 1\ncoefficient.background = 1e-300\ncoefficient.amplitude = 1e200\n",
            "cannot be raised to a negative power",
        ),
    ]:
        cfg = write_cfg(tmp_path, "u.cfg", text)
        assert main([command, "--config", cfg, "--out", str(tmp_path / "out"), "--force"]) == 4, text
        err = capsys.readouterr().err.splitlines()
        assert [line for line in err if line.startswith(("numerical error: ", "warning: "))] == err[-1:], text
        assert err[-1].startswith("numerical error: ") and message in err[-1], text
        assert not (tmp_path / "out").exists()

    # a cold start forced to the zero field cannot be projected onto the Nehari
    # manifold; a 3D run inside the hypotheses leaves the gate silent
    monkeypatch.setattr(helmlab.dual._DualOperator, "initial_guess", lambda self: RealField.zeros(self.grid))
    cfg = write_cfg(tmp_path, "c.cfg", CUBE_CFG + "coefficient.kind = constant\n")
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "out")]) == 4
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("numerical error: cannot project the zero field onto the Nehari manifold")
    assert not (tmp_path / "out").exists()


def test_out_flag_overrides_the_config_directory(tmp_path):
    cfg = write_cfg(
        tmp_path,
        "s.cfg",
        "coefficient.kind = constant\nsolver.tol = 1e-12\nsolver.max_iter = 5\n"
        f"output.dir = {tmp_path / 'ignored'}\n",
    )
    target = tmp_path / "actual"
    main(["solve", "--config", cfg, "--force", "--out", str(target)])
    assert (target / "ground_state.csv").exists()
    assert not (tmp_path / "ignored").exists()


# ------------------------------------------------------------- kernel-check

KERNEL_CFG = """
grid.dim = 3
grid.points = 64
grid.half_width = 32.0
model.delta = 0.2
kernel.shells = 12
kernel.window_lo = 4.0
kernel.window_hi = 16.0
output.format = json
"""


def test_kernel_check_is_deterministic(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "k.cfg", KERNEL_CFG)
    assert main(["kernel-check", "--config", cfg, "--out", str(tmp_path / "a")]) == 0
    assert main(["kernel-check", "--config", cfg, "--out", str(tmp_path / "b")]) == 0
    for name in ("kernel_decay.csv", "kernel_envelope.csv"):
        first = (tmp_path / "a" / name).read_bytes()
        second = (tmp_path / "b" / name).read_bytes()
        assert first == second

    # the JSON mirror carries the same rows as the CSV
    decay = json.loads((tmp_path / "a" / "kernel_decay.json").read_text(encoding="utf-8"))
    _, rows = read_rows(tmp_path / "a" / "kernel_decay.csv")
    assert [d["part"] for d in decay] == [r[0] for r in rows] == ["K1", "K2"]
    assert all(isinstance(d["slope"], float) for d in decay)
    # at full precision: the CSV's 12 significant digits round the JSON value
    assert [format(d["slope"], ".12g") for d in decay] == [r[3] for r in rows]
    out = capsys.readouterr().out
    assert "K1" in out and "K2" in out


def test_kernel_check_is_the_same_on_one_and_two_blas_threads(tmp_path):
    # the kernels' cosine sums run through BLAS, whose thread count must not
    # reach the CSVs: a run is reproducible byte for byte
    cfg = write_cfg(tmp_path, "k.cfg", CUBE_CFG + "kernel.window_lo = 2.0\nkernel.window_hi = 10.0\n")
    names = ("kernel_decay.csv", "kernel_envelope.csv")
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        done = run_script(
            sys.executable, "-m", "helmlab.cli", "kernel-check", "--config", cfg, "--out", str(out),
            OPENBLAS_NUM_THREADS=threads,
        )
        assert done.returncode == 0, done.stderr
        outputs.append([(out / name).read_bytes() for name in names])
    assert outputs[0] == outputs[1]


# the plane-concentration benchmark's bump, off the origin node, on the default 2D 128^2 grid
# with auto delta: 128^2 products are past the size at which OpenBLAS splits them over threads
PLANE_CFG = (
    "coefficient.centers = 0.125, -0.125\n"
    "sweep.eps_values = 0.5, 0.25\noutput.format = json\n"
)


def plane_levels(tmp_path, name, **variables):
    """levels.json and the manifest less its wall time, from a cold `levels` run on PLANE_CFG."""
    cfg = write_cfg(tmp_path, "l.cfg", PLANE_CFG)
    out = tmp_path / name
    done = run_script(
        sys.executable, "-m", "helmlab.cli", "levels", "--force", "--config", cfg, "--out", str(out), **variables
    )
    assert done.returncode == 0, done.stderr
    manifest = json.loads((out / "run_manifest.json").read_text(encoding="utf-8"))
    del manifest["wall_time_s"]
    return (out / "levels.json").read_bytes(), json.dumps(manifest, sort_keys=True)


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="OpenBLAS runs one thread on one CPU")
def test_levels_is_the_same_on_one_and_two_blas_threads(tmp_path):
    # the solver's products run in numpy's own loops, not in BLAS, so the thread
    # count reaches neither the full-precision mirror nor the manifest
    outputs = [
        plane_levels(tmp_path, f"threads{threads}", OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        for threads in ("1", "2")
    ]
    assert outputs[0] == outputs[1]


@pytest.mark.skipif(not numpy_runs_x86_openblas(), reason="OPENBLAS_CORETYPE selects OpenBLAS's x86-64 kernels")
@pytest.mark.parametrize("core", ["Prescott", "Nehalem"])
def test_levels_is_the_same_under_each_openblas_kernel(tmp_path, core):
    # the solver runs no BLAS or LAPACK code, not even for its Gram system, so
    # the CPU kernel OpenBLAS selects reaches neither the mirror nor the manifest
    assert plane_levels(tmp_path, core, OPENBLAS_CORETYPE=core) == plane_levels(tmp_path, "default")


def test_levels_and_interaction_check_leave_numpy_ma_unloaded(tmp_path):
    # np.unique, np.median and np.union1d import numpy.ma, 12-18 ms of a cold
    # process; auto delta and the interaction supports do without them
    levels = write_cfg(tmp_path, "l.cfg", PLANE_CFG)
    inter = write_cfg(
        tmp_path, "i.cfg", CUBE_CFG + "interaction.gaps = 1.0, 2.0\ninteraction.bump_radius = 1.5\n"
    )
    code = (
        "import sys\nimport numpy\nbare = 'numpy.ma' in sys.modules\nfrom helmlab.cli import main\n"
        f"codes = [main(['levels', '--force', '--config', {levels!r}, '--out', {str(tmp_path / 'l')!r}]),\n"
        f"         main(['interaction-check', '--config', {inter!r}, '--out', {str(tmp_path / 'i')!r}])]\n"
        "print(bare, codes, 'numpy.ma' in sys.modules)\n"
    )
    done = run_script(sys.executable, "-c", code)
    assert done.returncode == 0, done.stderr
    bare, *rest = done.stdout.splitlines()[-1].split(" ", 1)
    if bare == "True":
        pytest.skip("this numpy loads numpy.ma on import")
    assert rest == ["[0, 0] False"]


def test_kernel_check_process_never_loads_numpy_fft(tmp_path):
    # the kernels are cosine sums and the wavenumbers integers times 1/(n h),
    # so a kernel-check process leaves numpy's FFT module unloaded
    cfg = write_cfg(tmp_path, "k.cfg", CUBE_CFG + "kernel.window_lo = 2.0\nkernel.window_hi = 10.0\n")
    code = (
        "import sys\nfrom helmlab.cli import main\n"
        f"code = main(['kernel-check', '--config', {cfg!r}, '--out', {str(tmp_path / 'k')!r}])\n"
        "print(code, 'numpy.fft' in sys.modules)\n"
    )
    done = run_script(sys.executable, "-c", code)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "0 False"


def test_kernel_window_past_half_box_warns(tmp_path, capsys):
    cfg = write_cfg(
        tmp_path,
        "k.cfg",
        "grid.dim = 3\ngrid.points = 32\ngrid.half_width = 16.0\nmodel.delta = 0.2\n"
        "kernel.window_lo = 2.0\nkernel.window_hi = 10.0\n",
    )
    assert main(["kernel-check", "--config", cfg, "--out", str(tmp_path / "w")]) == 0
    assert "wraparound" in capsys.readouterr().err


def test_kernel_envelope_leaves_the_origin_node_out_of_the_first_shell(tmp_path):
    # the origin is the octant offset with S = sum a_i^2 = 0, dropped on
    # every grid (here its coordinate rounds to -8.9e-16), and the shell
    # (0, h) holds no other node, so both first rows read 0
    cfg = write_cfg(
        tmp_path,
        "k.cfg",
        "grid.dim = 3\ngrid.points = 48\ngrid.half_width = 7.3\nmodel.delta = 0.2\n"
        "kernel.shells = 24\nkernel.window_lo = 1\nkernel.window_hi = 3.6\n",
    )
    assert main(["kernel-check", "--config", cfg, "--out", str(tmp_path / "k")]) == 0
    header, rows = read_rows(tmp_path / "k" / "kernel_envelope.csv")
    value = header.index("value")
    firsts = [next(r for r in rows if r[0] == part) for part in ("K1", "K2")]
    assert [float(r[value]) for r in firsts] == [0.0, 0.0]


def count_transforms(monkeypatch):
    """Count symbol nodes and full-grid multiplier pairs, wherever bound, and every numpy.fft call.

    Symbol evaluations are counted at the one formula that `symbol_values`,
    `band_decompose` and `disjoint_interaction` share, as the number of
    wavenumber nodes passed to it: the kernel commands evaluate it one slab
    at a time, so a count of calls would count slabs. The returned list names
    each numpy.fft transform called, in order.
    """
    calls = {"symbol": 0, "pair": 0}
    symbol = ResolventSpec._symbol
    pair = helmlab.grid.apply_multiplier_values
    transforms = []

    def counted_symbol(self, norm):
        calls["symbol"] += norm.size
        return symbol(self, norm)

    def counted_pair(field, values):
        calls["pair"] += 1
        return pair(field, values)

    def counted(name, transform):
        def run(*args, **kwargs):
            transforms.append(name)
            return transform(*args, **kwargs)

        return run

    monkeypatch.setattr(ResolventSpec, "_symbol", counted_symbol)
    for module in (helmlab.grid, helmlab.dual):
        monkeypatch.setattr(module, "apply_multiplier_values", counted_pair)
    for name in np.fft.__all__:
        if not name.endswith(("freq", "shift")):  # wavenumber and layout helpers, not transforms
            monkeypatch.setattr(np.fft, name, counted(name, getattr(np.fft, name)))
    return calls, transforms


def test_kernel_check_transform_budget(tmp_path, monkeypatch):
    # both kernels are cosine sums of the symbol, evaluated once on each of
    # the 17^3 quadrant nodes: no Fourier transform runs
    calls, transforms = count_transforms(monkeypatch)
    cfg = write_cfg(tmp_path, "k.cfg", CUBE_CFG + "kernel.window_lo = 2.0\nkernel.window_hi = 10.0\n")
    assert main(["kernel-check", "--config", cfg, "--out", str(tmp_path / "k")]) == 0
    assert calls == {"symbol": 17**3, "pair": 0}
    assert transforms == []
    # the counters are live: the multiplier pair's passes go through them
    helmlab.grid.apply_multiplier_values(helmlab.RealField.zeros(helmlab.build_grid(2, 16.0, 8)), 1.0)
    assert transforms == ["rfft", "fft", "ifft", "irfft"]


def test_interaction_check_transform_budget(tmp_path, monkeypatch):
    # R is self-adjoint, so one convolution of the inner bump serves every gap; its
    # kernel is a cosine sum, at the offsets between the boxes, of the symbol
    # evaluated once on each of the 17^3 quadrant nodes
    calls, transforms = count_transforms(monkeypatch)
    cfg = write_cfg(
        tmp_path, "i.cfg", CUBE_CFG + "interaction.gaps = 1.0, 2.0, 3.0\ninteraction.bump_radius = 1.5\n"
    )
    assert main(["interaction-check", "--config", cfg, "--out", str(tmp_path / "i")]) == 0
    assert calls == {"symbol": 17**3, "pair": 0}
    assert transforms == []


# what the two kernel commands write on CUBE_CFG with the transform-budget keys
# above; to 1e-10 they hold under the SkylakeX, Sandybridge, Haswell, Zen, Nehalem
# and Prescott OpenBLAS kernels
PINNED_KERNEL_OUTPUTS = {
    "kernel-check": (
        "kernel.window_lo = 2.0\nkernel.window_hi = 10.0\n",
        {
            "kernel_decay.csv": (
                "part,window_lo,window_hi,slope,target_slope\n"
                "K1,2,10,0.0253323622522,-1\n"
                "K2,2,10,-2.03260451547,-2\n"
            ),
            "kernel_envelope.csv": (
                "part,radius,value\n"
                "K1,0.666666666667,0.00576186400274\n"
                "K1,2,0.00330425794833\n"
                "K1,3.33333333333,0.00496083582376\n"
                "K1,4.66666666667,0.00390935130721\n"
                "K1,6,0.00444604742932\n"
                "K1,7.33333333333,0.00413575391823\n"
                "K1,8.66666666667,0.00371511509982\n"
                "K1,10,0.0038299818003\n"
                "K1,11.3333333333,0.00273868201372\n"
                "K1,12.6666666667,0.00323039137698\n"
                "K1,14,0.00270064573252\n"
                "K1,15.3333333333,0.00353431115487\n"
                "K2,0.666666666667,0.0376881445909\n"
                "K2,2,0.0168926387212\n"
                "K2,3.33333333333,0.0159333216009\n"
                "K2,4.66666666667,0.00525234303315\n"
                "K2,6,0.00335840681208\n"
                "K2,7.33333333333,0.00146319891988\n"
                "K2,8.66666666667,0.00101979357573\n"
                "K2,10,0.00103513229396\n"
                "K2,11.3333333333,0.00105801974956\n"
                "K2,12.6666666667,0.0015410879179\n"
                "K2,14,0.00109493331378\n"
                "K2,15.3333333333,0.00137651093398\n"
            ),
        },
    ),
    "interaction-check": (
        "interaction.gaps = 1.0, 2.0, 3.0\ninteraction.bump_radius = 1.5\n",
        {
            "interaction.csv": (
                "gap,interaction\n"
                "1,0.00391494617711\n"
                "2,0.0102779346789\n"
                "3,0.00646095291802\n"
            ),
        },
    ),
}


@pytest.mark.parametrize("command", sorted(PINNED_KERNEL_OUTPUTS))
def test_kernel_commands_write_their_pinned_values(tmp_path, command):
    # every value of every CSV, to 1e-10 relative: room for last-bit differences
    # of the cosine products between BLAS kernels, none for a changed sum
    keys, files = PINNED_KERNEL_OUTPUTS[command]
    cfg = write_cfg(tmp_path, "c.cfg", CUBE_CFG + keys)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    for name, text in files.items():
        got = (tmp_path / "out" / name).read_text(encoding="utf-8").splitlines()
        want = text.splitlines()
        assert got[0] == want[0] and len(got) == len(want)
        for row, pinned in zip(got[1:], want[1:]):
            cells, pinned_cells = row.split(","), pinned.split(",")
            assert len(cells) == len(pinned_cells)
            for cell, value in zip(cells, pinned_cells):
                if value[0].isalpha():
                    assert cell == value
                else:
                    assert float(cell) == pytest.approx(float(value), rel=1e-10, abs=0.0), (name, row)


@pytest.mark.parametrize(
    "command,keys",
    [
        ("kernel-check", "kernel.window_lo = 4.0\nkernel.window_hi = 16.0\n"),
        ("interaction-check", "interaction.gaps = 2.0, 4.0, 8.0\ninteraction.bump_radius = 2.0\n"),
    ],
    ids=["kernel-check", "interaction-check"],
)
def test_kernel_commands_never_allocate_a_grid_sized_array(tmp_path, command, keys):
    # Every array these commands make is octant-, slab- or box-sized: the
    # traced peak of a whole 64^3 run stays below one n^3 float64 array
    # (2 MiB, 7.3 quadrants), so a full-grid bump, kernel or radius fails it.
    n = 64
    cfg = write_cfg(
        tmp_path, "c.cfg", f"grid.dim = 3\ngrid.points = {n}\ngrid.half_width = 32.0\nmodel.delta = 0.2\n" + keys
    )
    assert main([command, "--config", cfg, "--out", str(tmp_path / "first")]) == 0  # imports and caches
    tracemalloc.start()
    try:
        code = main([command, "--config", cfg, "--out", str(tmp_path / "traced")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 8 * n**3


# -------------------------------------------------------- interaction-check


def test_interaction_check_reports_pairings(tmp_path, capsys):
    cfg = write_cfg(
        tmp_path,
        "i.cfg",
        "grid.dim = 3\ngrid.points = 32\ngrid.half_width = 16.0\nmodel.delta = 0.1\n"
        "interaction.gaps = 1.0, 2.0\ninteraction.bump_radius = 1.5\n",
    )
    out_dir = tmp_path / "inter"
    assert main(["interaction-check", "--config", cfg, "--out", str(out_dir)]) == 0
    columns, rows = read_rows(out_dir / "interaction.csv")
    assert columns == ["gap", "interaction"]
    assert [r[0] for r in rows] == ["1", "2"]
    assert all(float(r[1]) > 0 for r in rows)
    manifest = json.loads((out_dir / "run_manifest.json").read_text(encoding="utf-8"))
    assert "interaction_slope" in manifest
    assert manifest["lambda_p"] == pytest.approx(0.2)
    assert "slope" in capsys.readouterr().out


def test_interaction_check_rejects_a_box_too_small(tmp_path, capsys):
    # default gaps reach farther than this half_width allows
    cfg = write_cfg(
        tmp_path,
        "i.cfg",
        "grid.dim = 3\ngrid.points = 32\ngrid.half_width = 8.0\nmodel.delta = 0.2\n",
    )
    assert main(["interaction-check", "--config", cfg, "--out", str(tmp_path / "x")]) == 2
    assert "half_width" in capsys.readouterr().err


@pytest.mark.parametrize("radius", ["0.2", "1e-300"])
def test_interaction_check_rejects_a_bump_over_no_node(tmp_path, capsys, radius):
    # at unit spacing the outer bumps of radius 0.2 fall between nodes, and a
    # radius of 1e-300 squares to 0, so its bumps hold no node at all
    cfg = write_cfg(tmp_path, "i.cfg", CUBE_CFG + f"interaction.bump_radius = {radius}\n")
    assert main(["interaction-check", "--config", cfg, "--out", str(tmp_path / "x")]) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert "no grid node" in line and "interaction.bump_radius" in line


def test_interaction_check_rejects_a_bump_that_underflows_at_its_nodes(tmp_path, capsys):
    # the outer bump's only node sits at q^2 = 0.9999999 of its ball, where
    # exp(-1/(1 - q^2)) underflows to 0: a bump zero everywhere is a config error,
    # and the gap put it there, as the default radius is half the spacing of 4
    cfg = write_cfg(tmp_path, "i.cfg", "grid.dim = 3\ngrid.points = 8\ninteraction.gaps = 2.0000001\n")
    assert main(["interaction-check", "--config", cfg, "--out", str(tmp_path / "x")]) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("config error: ") and "no grid node" in line
    assert "'interaction.gaps'" in line and "bump_radius" not in line
    assert not (tmp_path / "x").exists()


# ----------------------------------------------------------- sweep / levels


def test_sweep_command_keeps_wavenumber_order(tmp_path):
    out_dir = tmp_path / "sweep"
    cfg = write_cfg(
        tmp_path,
        "w.cfg",
        f"coefficient.kind = constant\nsweep.k_values = 2.0, 4.0\noutput.dir = {out_dir}\n",
    )
    assert main(["sweep", "--config", cfg, "--force"]) == 0
    columns, rows = read_rows(out_dir / "sweep.csv")
    assert [r[columns.index("k")] for r in rows] == ["2", "4"]
    assert all(r[columns.index("converged")] == "true" for r in rows)
    for r in rows:
        assert float(r[columns.index("level")]) == pytest.approx(STANDARD_LEVEL, rel=1e-9)
    manifest = json.loads((out_dir / "run_manifest.json").read_text(encoding="utf-8"))
    assert manifest["final_single_bubble_fraction"] > 0.99


def test_levels_command_pinches_the_constant_case(tmp_path):
    out_dir = tmp_path / "levels"
    cfg = write_cfg(
        tmp_path,
        "l.cfg",
        f"coefficient.kind = constant\nsweep.eps_values = 0.5\noutput.dir = {out_dir}\n",
    )
    assert main(["levels", "--config", cfg, "--force"]) == 0
    columns, rows = read_rows(out_dir / "levels.csv")
    assert ",".join(columns) == TABLE_HEADERS["levels"][2]
    (row,) = rows
    assert row[columns.index("gap_low")] == "0"
    assert row[columns.index("gap_high")] == "0"
    assert float(row[columns.index("c_0")]) == pytest.approx(STANDARD_LEVEL, rel=1e-9)


# the 64^2 plane with the bump off the origin node: from solver.max_iter 8 to 11 every
# family solve converges but the limit solve at sup Q does not
UNDER_ITERATED_PLANE = (
    "grid.points = 64\ngrid.half_width = 8.0\ncoefficient.centers = 0.125, -0.125\n"
    "sweep.k_values = 2, 4, 8\nsweep.eps_values = 0.5, 0.25, 0.125\n"
)


@pytest.mark.parametrize("max_iter", range(5, 16))
def test_levels_and_sweep_agree_on_the_limit_solve(tmp_path, max_iter):
    # both commands solve the same limit state; sweep measures every profile_distance
    # against it, so it fails as levels does when that solve has not converged
    cfg = write_cfg(tmp_path, "p.cfg", UNDER_ITERATED_PLANE + f"solver.max_iter = {max_iter}\n")
    outcomes = []
    for command in ("levels", "sweep"):
        code = main([command, "--force", "--config", cfg, "--out", str(tmp_path / command)])
        manifest = json.loads((tmp_path / command / "run_manifest.json").read_text(encoding="utf-8"))
        (limit_converged,) = manifest["limits_converged"]  # one limit solve, c_inf is c_0 rescaled
        assert code == (0 if limit_converged and all(manifest["rows_converged"]) else 1)
        outcomes.append((code, limit_converged))
    assert outcomes[0] == outcomes[1]


# ------------------------------------------------------------- table headers

SMALL_PLANE = "grid.points = 32\ngrid.half_width = 8.0\nsweep.k_values = 2.0\nsweep.eps_values = 0.5\n"
SMALL_CUBE = "grid.dim = 3\ngrid.points = 16\ngrid.half_width = 8.0\nsweep.k_values = 2.0\n"

KERNEL_WINDOW = CUBE_CFG + "kernel.window_lo = 2.0\nkernel.window_hi = 10.0\n"
INTERACTION_GAPS = CUBE_CFG + "interaction.gaps = 1.0, 2.0\ninteraction.bump_radius = 1.5\n"

# every result table's CSV header line as written, with the command and config that write it;
# the README names each header
TABLE_HEADERS = {
    "ground_state 1D": (
        "solve",
        "grid.dim = 1\ngrid.points = 64\n",
        "level,residual,iterations,converged,quad_form,nehari_defect,scale_factor,peak_x,peak_phys_x",
    ),
    "ground_state 2D": (
        "solve",
        SMALL_PLANE + "coefficient.centers = 0.5, -0.25\n",
        "level,residual,iterations,converged,quad_form,nehari_defect,scale_factor,"
        "peak_x,peak_y,peak_phys_x,peak_phys_y",
    ),
    "ground_state 3D": (
        "solve",
        SMALL_CUBE,
        "level,residual,iterations,converged,quad_form,nehari_defect,scale_factor,"
        "peak_x,peak_y,peak_z,peak_phys_x,peak_phys_y,peak_phys_z",
    ),
    "levels": ("levels", SMALL_PLANE, "eps,c_eps,c_0,c_inf,gap_low,gap_high,converged"),
    "sweep 2D": (
        "sweep",
        SMALL_PLANE,
        "k,eps,level,peak_x,peak_y,peak_phys_x,peak_phys_y,profile_distance,iterations,converged",
    ),
    "sweep 3D": (
        "sweep",
        SMALL_CUBE,
        "k,eps,level,peak_x,peak_y,peak_z,peak_phys_x,peak_phys_y,peak_phys_z,profile_distance,iterations,converged",
    ),
    "kernel_decay": ("kernel-check", KERNEL_WINDOW, "part,window_lo,window_hi,slope,target_slope"),
    "kernel_envelope": ("kernel-check", KERNEL_WINDOW, "part,radius,value"),
    "interaction": ("interaction-check", INTERACTION_GAPS, "gap,interaction"),
}


@pytest.mark.parametrize("case", sorted(TABLE_HEADERS))
def test_every_table_header_is_pinned_and_mirrored(tmp_path, case):
    command, text, expected = TABLE_HEADERS[case]
    table = case.split()[0]
    cfg = write_cfg(tmp_path, "t.cfg", text + "output.format = json\n")
    assert main([command, "--force", "--config", cfg, "--out", str(tmp_path)]) in (0, 1)
    header = (tmp_path / f"{table}.csv").read_text(encoding="utf-8").splitlines()[0]
    assert header == expected
    mirror = json.loads((tmp_path / f"{table}.json").read_text(encoding="utf-8"))
    assert mirror and all(list(row) == header.split(",") for row in mirror)


def test_readme_names_every_table_header():
    # per-axis columns in the README's notation: peak_x,peak_y,peak_z is peak_x..
    text = (REPO / "README.md").read_text(encoding="utf-8")
    for case, (_, _, header) in TABLE_HEADERS.items():
        written = re.sub(r"(\w+)_x(,\1_[yz])*", r"\1_x..", header)
        assert f"`{written}`" in text, case


# ---------------------------------------------------------------- packaging


REPO = Path(__file__).resolve().parents[1]


def console_script_target():
    """(module, function) named by the helmlab entry of [project.scripts]."""
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    with open(REPO / "pyproject.toml", "rb") as fh:
        entry = tomllib.load(fh)["project"]["scripts"]["helmlab"]
    module, _, func = entry.partition(":")
    return module, func


def write_console_script(tmp_path):
    """Write the wrapper pip generates for the helmlab entry point."""
    module, func = console_script_target()
    script = tmp_path / "bin" / "helmlab"
    script.parent.mkdir()
    script.write_text(
        f"#!{sys.executable}\n"
        "import sys\n"
        f"from {module} import {func}\n"
        f"sys.exit({func}())\n",
        encoding="utf-8",
    )
    script.chmod(0o755)
    return script


def script_env(**variables):
    # this checkout's src first, so a stale install cannot stand in for it
    path = [str(REPO / "src"), os.environ.get("PYTHONPATH", "")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)), **variables)


def run_script(exe, *args, **variables):
    return subprocess.run(
        [str(exe), *args], capture_output=True, text=True, timeout=60, env=script_env(**variables)
    )


def test_console_script_is_installed(tmp_path):
    script = write_console_script(tmp_path)
    cfg = write_cfg(tmp_path, "v.cfg", "grid.dim = 3\ngrid.points = 64\n")
    done = run_script(script, "validate-params", "--config", cfg)
    assert done.returncode == 0, done.stderr
    assert "pass" in done.stdout

    # the entry ends the process with main()'s return value as its exit code
    done = run_script(script, "validate-params")
    assert done.returncode == 3, done.stderr
    assert "FAIL" in done.stdout


@pytest.mark.skipif(
    shutil.which("helmlab") is None, reason="no installed helmlab console script on PATH"
)
def test_installed_console_script_runs(tmp_path):
    cfg = write_cfg(tmp_path, "v.cfg", "grid.dim = 3\ngrid.points = 64\n")
    done = run_script(shutil.which("helmlab"), "validate-params", "--config", cfg)
    assert done.returncode == 0, done.stderr
    assert "pass" in done.stdout


def entry_command(entry, tmp_path):
    """The argv prefix of a helmlab process started through `entry`."""
    if entry == "module":
        return [sys.executable, "-m", "helmlab.cli"]
    return [str(write_console_script(tmp_path))]


def take_artifacts(out_dir):
    """Every file of a run as bytes, the manifest without its wall time; removes the directory."""
    files = {}
    for path in sorted(out_dir.iterdir()):
        files[path.name] = path.read_bytes()
        if path.name == "run_manifest.json":
            manifest = json.loads(files[path.name])
            del manifest["wall_time_s"]
            files[path.name] = manifest
    shutil.rmtree(out_dir)
    return files


KERNEL_32_CFG = CUBE_CFG + "kernel.window_lo = 2.0\nkernel.window_hi = 10.0\n"

# one config per exit code, each taken from an in-process test above
EXIT_CASES = {
    0: ("kernel-check", KERNEL_32_CFG, []),
    1: ("solve", "coefficient.kind = constant\nsolver.tol = 1e-12\nsolver.max_iter = 15\n", ["--force"]),
    2: ("validate-params", "grid.dim = 2\ngrid.dim = 2\n", []),
    3: ("validate-params", "", []),
    4: ("solve", "model.s = 1e-9\nmodel.p = 2.0000001\ngrid.points = 8\n", ["--force"]),
}


@pytest.mark.parametrize("entry", ["module", "script"])
@pytest.mark.parametrize("code", sorted(EXIT_CASES))
def test_process_entries_keep_the_exit_code_contract(tmp_path, capsys, entry, code):
    # a process ends as main() returns: same code, same stdout and stderr, same files
    command, text, flags = EXIT_CASES[code]
    cfg = write_cfg(tmp_path, "run.cfg", text)
    out = tmp_path / "out"
    args = [command, "--config", cfg, "--out", str(out), *flags]
    assert main(args) == code
    expected = capsys.readouterr()
    in_process = take_artifacts(out) if code in (0, 1) else None
    done = subprocess.run(
        [*entry_command(entry, tmp_path), *args], capture_output=True, text=True, timeout=60, env=script_env()
    )
    assert done.returncode == code, done.stderr
    assert "Traceback" not in done.stderr
    assert (done.stdout, done.stderr) == (expected.out, expected.err)
    if in_process is None:
        assert not out.exists()
    else:
        assert take_artifacts(out) == in_process


@pytest.mark.parametrize("entry", ["module", "script"])
@pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
def test_closed_stdout_keeps_the_artifacts_and_exits_120(tmp_path, entry, unbuffered):
    # the summary follows the files, so a reader gone away costs none of them; unbuffered,
    # the first print fails inside main, buffered, the entry's flush before the exit
    cfg = write_cfg(tmp_path, "k.cfg", KERNEL_32_CFG)
    out = tmp_path / "out"
    args = ["kernel-check", "--config", cfg, "--out", str(out)]
    assert main(args) == 0
    expected = take_artifacts(out)
    env = script_env()
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read, write = os.pipe()
    os.close(read)
    try:
        done = subprocess.run(
            [*entry_command(entry, tmp_path), *args],
            stdout=write, stderr=subprocess.PIPE, text=True, timeout=60, env=env,
        )
    finally:
        os.close(write)
    assert done.returncode == 120, done.stderr
    diagnosis = [line for line in done.stderr.splitlines() if not line.startswith("warning: ")]
    assert diagnosis == ["stdout error: [Errno 32] Broken pipe"]
    assert take_artifacts(out) == expected


def test_in_process_main_answers_a_failing_stdout_with_120(tmp_path, monkeypatch, capsys):
    class ClosedPipe:
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

    cfg = write_cfg(tmp_path, "k.cfg", KERNEL_32_CFG)
    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    assert main(["kernel-check", "--config", cfg, "--out", str(tmp_path / "out")]) == 120
    assert capsys.readouterr().err.splitlines()[-1] == "stdout error: [Errno 32] Broken pipe"
    assert "kernel_decay.csv" in take_artifacts(tmp_path / "out")


def test_process_entry_runs_atexit_handlers_and_flushes_before_it_ends(tmp_path):
    # runpy with alter_sys makes helmlab.cli the process's own __main__, as -m does;
    # buffered, the handler's line reaches the pipe only through the entry's flush
    cfg = write_cfg(tmp_path, "v.cfg", "grid.dim = 3\ngrid.points = 64\n")
    code = (
        "import atexit, runpy, sys\n"
        "atexit.register(print, 'atexit handler ran')\n"
        f"sys.argv = ['helmlab', 'validate-params', '--config', {cfg!r}]\n"
        "try:\n"
        "    runpy.run_module('helmlab.cli', run_name='__main__', alter_sys=True)\n"
        "finally:\n"
        "    print('returned from helmlab.cli')\n"
    )
    env = script_env()
    env.pop("PYTHONUNBUFFERED", None)
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60, env=env)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert "pass" in lines[0] and lines[-1] == "atexit handler ran"
    assert "returned from helmlab.cli" not in lines


def test_profiler_keeps_the_ordinary_exit_and_prints_its_stats(tmp_path):
    # cProfile runs the module in a namespace of its own, so main returns to it
    cfg = write_cfg(tmp_path, "v.cfg", "grid.dim = 3\ngrid.points = 64\n")
    done = run_script(sys.executable, "-m", "cProfile", "-m", "helmlab.cli", "validate-params", "--config", cfg)
    assert done.returncode == 0, done.stderr
    assert done.stdout.count("pass") == 3
    assert "function calls" in done.stdout and "ncalls" in done.stdout


def test_process_entry_leaves_an_exception_to_the_ordinary_exit(monkeypatch):
    # only a return of main ends the process at once; argparse's SystemExit propagates
    def hard_exit(*args):
        raise AssertionError("the entry skipped the ordinary exit")

    monkeypatch.setattr(helmlab.cli.atexit, "_run_exitfuncs", hard_exit)
    monkeypatch.setattr(helmlab.cli.os, "_exit", hard_exit)
    with pytest.raises(SystemExit) as exc:
        helmlab.cli.run(["frobnicate"])
    assert exc.value.code == 2


def test_public_names_are_objects_not_modules():
    assert len(set(helmlab.__all__)) == len(helmlab.__all__)
    for name in helmlab.__all__:
        assert not isinstance(getattr(helmlab, name), types.ModuleType), name


def _named_in(path):
    """Every name, attribute and imported name the module at `path` spells out."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names


def _hinted_types(obj):
    """The types in the parameter and return annotations of a function, or of a
    class's methods and dataclass fields, with generic arguments unwrapped."""
    if inspect.isclass(obj):
        hints = [typing.get_type_hints(obj)] if dataclasses.is_dataclass(obj) else []
        for member in vars(obj).values():
            member = getattr(member, "fget", getattr(member, "__func__", member))
            if inspect.isfunction(member):
                hints.append(typing.get_type_hints(member))
    else:
        hints = [typing.get_type_hints(obj)] if callable(obj) else []
    todo = [hint for found in hints for hint in found.values()]
    leaves = []
    while todo:
        hint = todo.pop()
        args = typing.get_args(hint)
        if args:
            todo.extend(args)
        else:
            leaves.append(hint)
    return leaves


def test_every_public_name_is_reached_by_a_command_or_criterion():
    # the rule "no public name that no command or acceptance criterion reaches": each
    # exported name is spelled out in the CLI or the acceptance tests, or it is the
    # annotated type of a parameter, return or dataclass field of a name reached so far
    named = _named_in(REPO / "src" / "helmlab" / "cli.py") | _named_in(REPO / "tests" / "test_acceptance.py")
    public = {id(getattr(helmlab, name)): name for name in helmlab.__all__}
    reached = {name for name in helmlab.__all__ if name in named}
    todo = list(reached)
    while todo:
        for hint in _hinted_types(getattr(helmlab, todo.pop())):
            name = public.get(id(hint))
            if name is not None and name not in reached:
                reached.add(name)
                todo.append(name)
    assert sorted(set(helmlab.__all__) - reached) == []


def test_cli_import_leaves_scipy_unloaded():
    # numpy is the only runtime dependency; nothing in the package or its tests needs scipy
    done = run_script(sys.executable, "-c", "import sys, helmlab.cli; print('scipy' in sys.modules)")
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


ENVIRONMENT_NAMES = {"environ", "environb", "getenv", "getenvb", "putenv", "unsetenv"}


def environment_accesses(source):
    """Line numbers at which `source` reaches the process environment through the os module.

    A name counts as the os module, in every scope of the source, once
    `import os`, `import os.<sub>`, `import os as name` or `name = <os name>`
    binds it; `getattr(<os name>, "<constant>")` counts as that attribute,
    and `from os import *` as importing them all.
    """
    tree = ast.parse(source)
    modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "os" or (alias.asname is None and alias.name.startswith("os.")):
                    modules.add(alias.asname or "os")
    assigns = [node for node in ast.walk(tree) if isinstance(node, ast.Assign) and isinstance(node.value, ast.Name)]
    while True:  # a chain of aliases may be written in any order
        bound = {t.id for a in assigns if a.value.id in modules for t in a.targets if isinstance(t, ast.Name)}
        if bound <= modules:
            break
        modules |= bound
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            hit = node.attr in ENVIRONMENT_NAMES and isinstance(node.value, ast.Name) and node.value.id in modules
        elif isinstance(node, ast.ImportFrom):
            hit = node.module == "os" and any(a.name in ENVIRONMENT_NAMES | {"*"} for a in node.names)
        elif isinstance(node, ast.Call):
            args = node.args
            hit = (
                isinstance(node.func, ast.Name)
                and node.func.id == "getattr"
                and len(args) >= 2
                and isinstance(args[0], ast.Name)
                and args[0].id in modules
                and isinstance(args[1], ast.Constant)
                and args[1].value in ENVIRONMENT_NAMES
            )
        else:
            hit = False
        if hit:
            lines.append(node.lineno)
    return sorted(lines)


@pytest.mark.parametrize(
    "source,lines",
    [
        ("import os\nos.environ['A']\n", [2]),
        ("import os as _os\n_os.environ.setdefault('A', '1')\n", [2]),
        ("import os.path\nos.putenv('A', '1')\n", [2]),
        ("import sys, os as system\nx = system.environb\n", [2]),
        ("from os import getenv\n", [1]),
        ("from os import path, getenvb as read\n", [1]),
        ("from os import *\n", [1]),
        ("import os\nsystem = os\nshell = system\nshell.unsetenv('A')\n", [4]),
        ("import os\ngetattr(os, 'environ')\n", [2]),
        ("def f():\n    import os as o\n    return o.getenv('A')\n", [3]),
        ("import os\nos.path.join('a', 'b')\n", []),
        ("import os.path as p\np.join('a')\n", []),
        ("environ = {}\nenviron.get('A')\n", []),
        ("import numpy as np\nnp.environ\n", []),
    ],
)
def test_environment_scan(source, lines):
    # the scan behind the test below, on aliased, imported and attribute access
    assert environment_accesses(source) == lines


def test_package_reads_no_environment_variables():
    # a run is set by its config file and command line alone
    paths = sorted((REPO / "src" / "helmlab").glob("*.py"))
    assert paths
    reads = [
        f"{path.name}:{line}" for path in paths for line in environment_accesses(path.read_text(encoding="utf-8"))
    ]
    assert reads == []


def test_only_grid_runs_fourier_transforms():
    # every transform goes through grid's 1D passes; no other module reaches numpy.fft
    users = set()
    for path in sorted((REPO / "src" / "helmlab").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (
                (
                    isinstance(node, ast.Attribute)
                    and node.attr == "fft"
                    and isinstance(node.value, ast.Name)
                    and node.value.id in ("np", "numpy")
                )
                or (isinstance(node, ast.Import) and any(a.name.startswith("numpy.fft") for a in node.names))
                or (
                    isinstance(node, ast.ImportFrom)
                    and node.module is not None
                    and (
                        node.module.startswith("numpy.fft")
                        or (node.module == "numpy" and any(a.name == "fft" for a in node.names))
                    )
                )
            ):
                users.add(path.name)
    assert users == {"grid.py"}


def test_every_meshgrid_is_open():
    # geometry and multipliers are evaluated on open axes; a full mesh is dim
    # full-grid arrays where dim 1D axes do
    calls, dense = 0, []
    for path in sorted((REPO / "src" / "helmlab").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.module == "numpy":
                assert all(a.name != "meshgrid" for a in node.names), path.name
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "meshgrid"
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id in ("np", "numpy")
            ):
                calls += 1
                sparse = [k.value for k in node.keywords if k.arg == "sparse"]
                if not (len(sparse) == 1 and isinstance(sparse[0], ast.Constant) and sparse[0].value is True):
                    dense.append(f"{path.name}:{node.lineno}")
    assert calls > 0
    assert dense == []


LAYERS = ("errors", "params", "grid", "resolvent", "coefficients", "dual", "concentration", "config", "cli")


def test_modules_import_only_from_lower_layers():
    # every relative import, deferred ones included, names a module lower in
    # LAYERS; the package itself sits on top, and `from . import __version__`
    # is the one import of it
    rank = {name: i for i, name in enumerate(LAYERS + ("__init__",))}
    paths = sorted((REPO / "src" / "helmlab").glob("*.py"))
    assert sorted(p.stem for p in paths) == sorted(rank)
    upward = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not (isinstance(node, ast.ImportFrom) and node.level):
                continue
            if node.module is None:
                allowed = [alias.name for alias in node.names] == ["__version__"]
            else:
                allowed = rank[node.module] < rank[path.stem]
            if not allowed:
                upward.append(f"{path.name}:{node.lineno}")
    assert upward == []
