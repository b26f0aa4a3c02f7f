"""Config parsing, validation and the render round trip."""
from pathlib import Path

import pytest

from helmlab.coefficients import BumpOnBackgroundQ, ConstantQ
from helmlab.config import (
    _SCHEMA,
    RunConfig,
    load_config,
    make_coefficient,
    make_exponents,
    make_grid,
    make_spec,
    parse_config_text,
    render_config,
)
from helmlab.errors import ConfigError


def test_empty_text_gives_defaults():
    assert parse_config_text("") == RunConfig()


def test_comments_and_blank_lines_ignored():
    text = """
    # run setup
    grid.dim = 3            # inline comment
    grid.points = 64

    model.k = 4.0
    """
    cfg = parse_config_text(text)
    assert cfg.dim == 3
    assert cfg.points == 64
    assert cfg.k == 4.0
    assert cfg.p == RunConfig().p  # untouched keys keep defaults


def test_render_parse_round_trip_is_byte_stable():
    text = render_config(RunConfig())
    cfg = parse_config_text(text)
    assert cfg == RunConfig()
    assert render_config(cfg) == text


CANONICAL_DEFAULTS = """# grid
grid.dim = 2
grid.points = 128
grid.half_width = 16.0

# model
model.s = 1.0
model.p = 5.0
model.k = 8.0
model.delta = auto

# coefficient
coefficient.kind = bump
coefficient.background = 0.5
coefficient.amplitude = 1.0
coefficient.width = 1.0
coefficient.centers = origin
coefficient.value = 1.0

# solver
solver.tol = 1e-06
solver.max_iter = 500
solver.init = default
solver.seed = 12345

# sweep
sweep.k_values = 2.0, 4.0, 8.0
sweep.eps_values = 0.5, 0.25, 0.125

# kernel
kernel.shells = 12
kernel.window_lo = 4.0
kernel.window_hi = 16.0

# interaction
interaction.gaps = 2.0, 4.0, 8.0
interaction.bump_radius = 2.0

# output
output.dir = runs
output.format = csv
"""


def test_default_config_renders_to_its_canonical_text():
    # every run echoes this form as resolved_config.cfg: its keys, their order and renderings
    assert render_config(RunConfig()) == CANONICAL_DEFAULTS


def test_readme_documents_every_key_with_its_default():
    # one table row per key: | `key` | `default as rendered` | rule |
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    rows = {}
    for line in readme.splitlines():
        if line.startswith("| `"):
            key, default = (cell.strip().strip("`") for cell in line.split("|")[1:3])
            rows[key] = default
    defaults = dict(line.split(" = ", 1) for line in render_config(RunConfig()).splitlines() if " = " in line)
    assert {key: rows.get(key) for key in _SCHEMA} == defaults


def test_round_trip_of_nondefault_config():
    cfg = RunConfig(
        dim=3,
        points=64,
        half_width=32.0,
        s=1.25,
        p=4.5,
        k=6.0,
        delta=0.2,
        kind="constant",
        value=2.5,
        tol=1e-8,
        init="random",
        seed=99,
        k_values=(3.0, 9.0),
        eps_values=(0.4, 0.2, 0.1),
        centers=((1.0, 0.0, -2.0), (4.0, 4.0, 4.0)),
        out_format="json",
    )
    text = render_config(cfg)
    again = parse_config_text(text)
    assert again == cfg
    assert render_config(again) == text


def test_sentinel_values():
    cfg = parse_config_text("model.delta = auto\ncoefficient.centers = origin\n")
    assert cfg.delta is None
    assert cfg.centers is None


def test_duplicate_key_reports_both_lines():
    text = "grid.dim = 2\ngrid.points = 64\ngrid.dim = 3\n"
    with pytest.raises(ConfigError) as err:
        parse_config_text(text)
    assert err.value.line == 3
    assert err.value.field == "grid.dim"
    assert "line 1" in str(err.value)


def test_unknown_key_rejected():
    with pytest.raises(ConfigError) as err:
        parse_config_text("grid.resolution = 64\n")
    assert err.value.line == 1
    assert "grid.resolution" in str(err.value)


def test_line_without_equals_rejected():
    with pytest.raises(ConfigError) as err:
        parse_config_text("grid.dim = 2\njust some words\n")
    assert err.value.line == 2


@pytest.mark.parametrize(
    "line",
    [
        "grid.points = many",
        "grid.points = -4",
        "model.delta = 0.0",
        "model.delta = -1",
        "coefficient.kind = wavy",
        "sweep.k_values = ",
        "coefficient.centers = ;",
        "output.format = yaml",
        "solver.init = zeros",
        "coefficient.background = -0.1",
    ],
)
def test_bad_values_rejected(line):
    with pytest.raises(ConfigError) as err:
        parse_config_text(line + "\n")
    assert err.value.line == 1


@pytest.mark.parametrize(
    "text, field",
    [
        ("grid.dim = 4", "grid.dim"),
        ("grid.points = 63", "grid.points"),
        ("grid.points = 6", "grid.points"),
        ("model.p = 2.0", "model.p"),
        ("kernel.window_lo = 16.0\nkernel.window_hi = 4.0", "kernel.window_lo"),
        ("kernel.shells = 3", "kernel.shells"),
        ("coefficient.centers = 1.0, 2.0, 3.0", "coefficient.centers"),
        ("coefficient.centers = 1e200, 0.0", "coefficient.centers"),  # Q squares its distance
        ("coefficient.centers = inf, 0.0", "coefficient.centers"),
        ("coefficient.width = 1e200", "coefficient.width"),  # Q divides by 2 width^2, which overflows
        ("coefficient.width = 1e-170", "coefficient.width"),  # and here underflows to 0
        ("sweep.k_values = 2.0, -4.0", "sweep.k_values"),
        ("sweep.eps_values = 0.5, 0.0", "sweep.eps_values"),
        ("interaction.gaps = 0.5", "interaction.gaps"),
        ("interaction.gaps = 1.0, 1.0", "interaction.gaps"),  # the slope fit needs distinct gaps
        ("model.p = 2.0001", "model.p"),  # 8^(2/0.0001) overflows
        ("grid.points = 8\ngrid.half_width = 0.5", "model.delta"),  # no wavenumber near the sphere
        ("coefficient.width = 1e-155", "coefficient.width"),  # |x - c|^2/(2 width^2) overflows
        # every number must be finite, and its key's range is checked as it is parsed
        ("model.k = inf", "model.k"),
        ("grid.half_width = inf", "grid.half_width"),
        ("coefficient.background = inf", "coefficient.background"),
        ("solver.tol = nan", "solver.tol"),
        ("sweep.eps_values = 0.5, inf", "sweep.eps_values"),
        ("sweep.eps_values = 0.5, 1e-320", "sweep.eps_values"),  # k = 1/eps overflows
        ("model.delta = inf", "model.delta"),
        ("model.s = inf", "model.s"),
        ("kernel.window_hi = inf", "kernel.window_hi"),
        ("solver.seed = -1", "solver.seed"),  # numpy's generators take no negative seed
        ("coefficient.background = 1e308\ncoefficient.amplitude = 1e308", "coefficient.amplitude"),  # sup Q = inf
    ],
)
def test_validation_failures(text, field):
    # auto delta is derived once per command, by make_spec, so its failure shows there
    with pytest.raises(ConfigError) as err:
        cfg = parse_config_text(text + "\n")
        make_spec(cfg, make_grid(cfg))
    assert err.value.field == field


def test_load_config_reads_a_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("grid.dim = 1\ngrid.points = 256\n", encoding="utf-8")
    cfg = load_config(path)
    assert cfg.dim == 1
    assert cfg.points == 256


# ------------------------------------------------------------------- wiring


def test_make_grid_and_exponents():
    cfg = parse_config_text("grid.dim = 3\ngrid.points = 64\ngrid.half_width = 32.0\nmodel.k = 4.0\n")
    grid = make_grid(cfg)
    assert grid.dim == 3
    assert grid.points_per_axis == 64
    assert grid.half_width == 32.0
    exps = make_exponents(cfg)
    assert (exps.dim, exps.s, exps.p, exps.k) == (3, 1.0, 5.0, 4.0)


def test_make_spec_auto_delta_matches_helper():
    cfg = RunConfig()
    grid = make_grid(cfg)
    spec = make_spec(cfg, grid)
    assert spec.s == cfg.s
    assert spec.delta == pytest.approx(0.30842513753404255, rel=1e-12)
    pinned = make_spec(RunConfig(delta=0.07), grid)
    assert pinned.delta == 0.07


def test_make_coefficient_kinds():
    bump = make_coefficient(parse_config_text("coefficient.amplitude = 2.0\n"))
    assert isinstance(bump, BumpOnBackgroundQ)
    assert bump.amplitude == 2.0
    assert bump.centers == ((0.0, 0.0),)  # origin sentinel expands to dim coords

    const = make_coefficient(parse_config_text("coefficient.kind = constant\ncoefficient.value = 3.0\n"))
    assert isinstance(const, ConstantQ)
    assert const.value == 3.0
