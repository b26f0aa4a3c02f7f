"""The run contract as a property of the whole config space.

Every config, however hopeless, ends in complete artifacts (exit 0 or
1), the hypothesis gate (exit 3), or one diagnosis line (exit 2 or 4),
and never in a traceback or a numpy warning. Runs go in process through
`cli.main`, on grids small enough for a few hundred runs to take seconds.
"""
import contextlib
import io

from hypothesis import given, settings, strategies as st

from helmlab.cli import main
from helmlab.config import _SCHEMA

COMMANDS = ["validate-params", "kernel-check", "interaction-check", "solve", "levels", "sweep"]
POINTS = {1: 16, 2: 16, 3: 8}
# zero, negative, tiny, subnormal-squared, near p = 2, plain, huge, non-finite and non-numeric
VALUES = ["0", "-1", "1e-300", "1e-155", "2.0000001", "5", "1e200", "1e308", "inf", "nan", "abc", ""]


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(
    command=st.sampled_from(COMMANDS),
    dim=st.sampled_from(sorted(POINTS)),
    max_iter=st.integers(1, 30),
    force=st.booleans(),
    drawn=st.dictionaries(st.sampled_from(sorted(_SCHEMA)), st.sampled_from(VALUES), max_size=3),
)
def test_every_config_ends_in_artifacts_or_one_diagnosis(tmp_path_factory, command, dim, max_iter, force, drawn):
    keys = {"grid.dim": dim, "grid.points": POINTS[dim], "solver.max_iter": max_iter, **drawn}
    root = tmp_path_factory.mktemp("run")
    cfg = root / "run.cfg"
    cfg.write_text("".join(f"{key} = {value}\n" for key, value in keys.items()), encoding="utf-8")
    out = root / "out"
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main([command, "--config", str(cfg), "--out", str(out)] + (["--force"] if force else []))
    lines = err.getvalue().splitlines()
    assert code in (0, 1, 2, 3, 4)
    assert out.exists() == (code in (0, 1) and command != "validate-params")
    if out.exists():
        assert {"resolved_config.cfg", "run_manifest.json"} <= {f.name for f in out.iterdir()}
    diagnoses = [line for line in lines if line.startswith(("config error: ", "numerical error: "))]
    if code in (2, 4):
        assert diagnoses == lines[-1:]
        assert lines[-1].startswith("config error: " if code == 2 else "numerical error: ")
    else:
        assert not diagnoses
    assert not [line for line in lines if line.startswith("warning: ") and " encountered " in line]
