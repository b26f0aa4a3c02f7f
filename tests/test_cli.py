"""End-to-end checks of the batch front end.

Most tests run in process via main(); the packaging tests run the declared
console script as a separate process.
"""
import ast
import json
import os
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

import helmlab
import helmlab.dual
import helmlab.grid
import helmlab.resolvent
from helmlab.cli import main
from helmlab.config import parse_config_text
from helmlab.resolvent import ResolventSpec

from conftest import STANDARD_LEVEL

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
    ],
    ids=[
        "auto-delta-infeasible",
        "scale-factor-overflow",
        "repeated-gap",
        "levels-zero-background",
        "sparse-fit-window",
        "solve-window-overflow",
        "sweep-window-overflow",
    ],
)
@pytest.mark.parametrize("force", [False, True], ids=["gated", "forced"])
def test_numerically_hopeless_config_is_a_one_line_config_error(tmp_path, command, text, force):
    # the config error outranks the hypothesis gate, so --force changes nothing
    cfg = write_cfg(tmp_path, "bad.cfg", text)
    args = [command, "--config", cfg, "--out", str(tmp_path / "out")] + (["--force"] if force else [])
    done = run_script(sys.executable, "-m", "helmlab.cli", *args)
    assert done.returncode == 2, done.stderr
    assert "Traceback" not in done.stderr
    (line,) = done.stderr.splitlines()
    assert line.startswith("config error: ")
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


def test_solve_evaluates_the_symbol_once(tmp_path, monkeypatch):
    # a single-maximum solve starts from the solver's own cold start, so the
    # start and the solve share one dual operator and one symbol evaluation
    calls = []
    original = ResolventSpec.symbol_values

    def counted(self, grid):
        calls.append(grid)
        return original(self, grid)

    monkeypatch.setattr(ResolventSpec, "symbol_values", counted)
    cfg = write_cfg(tmp_path, "run.cfg", README_CONFIG)
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "run"), "--force"]) == 0
    assert len(calls) == 1


def test_solve_reports_a_warning_as_one_line(tmp_path, capsys):
    # the window at k = 1 is [-2, 2)^2 on 64 points, so both bump centers lie outside it
    cfg = write_cfg(
        tmp_path,
        "w.cfg",
        "grid.points = 64\ncoefficient.centers = 2.0, 0.0; -2.0, 0.0\nsolver.max_iter = 5\n",
    )
    main(["solve", "--config", cfg, "--out", str(tmp_path / "run"), "--force"])
    err = capsys.readouterr().err.splitlines()
    assert len([line for line in err if line.startswith("warning: coefficient maximum at (2.0, 0.0)")]) == 1
    assert not [line for line in err if ".py" in line]


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


def test_kernel_window_past_half_box_warns(tmp_path, capsys):
    cfg = write_cfg(
        tmp_path,
        "k.cfg",
        "grid.dim = 3\ngrid.points = 32\ngrid.half_width = 16.0\nmodel.delta = 0.2\n"
        "kernel.window_lo = 2.0\nkernel.window_hi = 10.0\n",
    )
    assert main(["kernel-check", "--config", cfg, "--out", str(tmp_path / "w")]) == 0
    assert "wraparound" in capsys.readouterr().err


def count_transforms(monkeypatch):
    """Count symbol evaluations, full-grid multiplier pairs and boxed applications, wherever bound."""
    calls = {"symbol": 0, "pair": 0, "boxed": 0}
    symbol = ResolventSpec.symbol_values
    pair = helmlab.grid.apply_multiplier_values
    boxed = helmlab.grid.apply_multiplier_boxed

    def counted_symbol(self, grid):
        calls["symbol"] += 1
        return symbol(self, grid)

    def counted_pair(field, values):
        calls["pair"] += 1
        return pair(field, values)

    def counted_boxed(*args):
        calls["boxed"] += 1
        return boxed(*args)

    monkeypatch.setattr(ResolventSpec, "symbol_values", counted_symbol)
    for module in (helmlab.grid, helmlab.dual):
        monkeypatch.setattr(module, "apply_multiplier_values", counted_pair)
    for module in (helmlab.grid, helmlab.resolvent):
        monkeypatch.setattr(module, "apply_multiplier_boxed", counted_boxed)
    return calls


def test_kernel_check_transform_budget(tmp_path, monkeypatch):
    # the kernel and its band part come from the symbol by inverse transforms only
    calls = count_transforms(monkeypatch)
    cfg = write_cfg(tmp_path, "k.cfg", CUBE_CFG + "kernel.window_lo = 2.0\nkernel.window_hi = 10.0\n")
    assert main(["kernel-check", "--config", cfg, "--out", str(tmp_path / "k")]) == 0
    assert calls == {"symbol": 1, "pair": 0, "boxed": 0}


def test_interaction_check_transform_budget(tmp_path, monkeypatch):
    # R is self-adjoint, so one application to the inner bump serves every gap,
    # and it runs from the inner bump's box to the outer bumps' boxes
    calls = count_transforms(monkeypatch)
    cfg = write_cfg(
        tmp_path, "i.cfg", CUBE_CFG + "interaction.gaps = 1.0, 2.0, 3.0\ninteraction.bump_radius = 1.5\n"
    )
    assert main(["interaction-check", "--config", cfg, "--out", str(tmp_path / "i")]) == 0
    assert calls == {"symbol": 1, "pair": 0, "boxed": 1}


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
    assert columns == ["eps", "c_eps", "c_0", "c_inf", "gap_low", "gap_high", "converged"]
    (row,) = rows
    assert row[columns.index("gap_low")] == "0"
    assert row[columns.index("gap_high")] == "0"
    assert float(row[columns.index("c_0")]) == pytest.approx(STANDARD_LEVEL, rel=1e-9)


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


def run_script(exe, *args):
    # this checkout's src first, so a stale install cannot stand in for it
    path = [str(REPO / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    return subprocess.run(
        [str(exe), *args], capture_output=True, text=True, timeout=60, env=env
    )


def test_console_script_is_installed(tmp_path):
    script = write_console_script(tmp_path)
    cfg = write_cfg(tmp_path, "v.cfg", "grid.dim = 3\ngrid.points = 64\n")
    done = run_script(script, "validate-params", "--config", cfg)
    assert done.returncode == 0, done.stderr
    assert "pass" in done.stdout

    # main()'s return value is the process exit code
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


def test_public_names_are_objects_not_modules():
    assert len(set(helmlab.__all__)) == len(helmlab.__all__)
    for name in helmlab.__all__:
        assert not isinstance(getattr(helmlab, name), types.ModuleType), name


def test_cli_import_leaves_scipy_unloaded():
    # numpy is the only runtime dependency; scipy is a test-only extra
    done = run_script(sys.executable, "-c", "import sys, helmlab.cli; print('scipy' in sys.modules)")
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


def test_package_reads_no_environment_variables():
    # a run is set by its config file and command line alone
    paths = sorted((REPO / "src" / "helmlab").glob("*.py"))
    assert paths
    reads = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (
                isinstance(node, ast.Attribute)
                and node.attr in ("environ", "getenv")
                and isinstance(node.value, ast.Name)
                and node.value.id == "os"
            ) or (
                isinstance(node, ast.ImportFrom)
                and node.module == "os"
                and any(alias.name in ("environ", "getenv") for alias in node.names)
            ):
                reads.append(f"{path.name}:{node.lineno}")
    assert reads == []


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
