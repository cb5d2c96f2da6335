"""Fuzz gate: every CLI input ends in exit 0, 2 or 3, never in a traceback."""

import contextlib
import io
import tempfile

from hypothesis import event, given, settings
from hypothesis import strategies as st

from stableleaf.cli import run_command

MAP_PARAMS = {
    "linear": ("--lambda-s", "--lambda-u"),
    "perturbed": ("--lambda-s", "--lambda-u", "--c"),
    "henon": ("--a", "--b"),
}
ODD_NUMBERS = ("0", "1", "-1", "5.5", "nan", "inf", "-inf", "1e300", "1e-300")


def number(draw, lo: float, hi: float) -> str:
    """A float flag value: mostly in [lo, hi], one time in ten an edge case."""
    if draw(st.integers(0, 9)) == 0:
        return draw(st.sampled_from(ODD_NUMBERS))
    return repr(draw(st.floats(lo, hi)))


def eigenvalue(draw, lo: float, hi: float) -> str:
    """A lambda flag value: one time in ten of magnitude 1e100..1e160, whose squares
    overflow, or 1e-160..1e-100, whose squares underflow."""
    if draw(st.integers(0, 9)) == 0:
        exponent = draw(st.sampled_from((1.0, -1.0))) * draw(st.floats(100.0, 160.0))
        return repr(draw(st.sampled_from((1.0, -1.0))) * 10.0 ** exponent)
    return number(draw, lo, hi)


@st.composite
def cli_argv(draw):
    name = draw(st.sampled_from(sorted(MAP_PARAMS)))
    argv = [draw(st.sampled_from(("budget", "leaf", "converge", "fixedpoint"))), "--map", name]
    ranges = {"--lambda-s": (-1.5, 1.5), "--lambda-u": (-4.0, 4.0), "--c": (-0.5, 0.5),
              "--a": (-2.0, 2.0), "--b": (-1.0, 1.0)}
    for flag in MAP_PARAMS[name]:
        if draw(st.integers(0, 19)):  # now and then a required parameter is missing
            draw_value = eigenvalue if flag.startswith("--lambda") else number
            argv.append(f"{flag}={draw_value(draw, *ranges[flag])}")
    argv.append(f"--z={number(draw, -1.5, 1.5)},{number(draw, -1.5, 1.5)}")
    argv += [f"--eps0={number(draw, 1e-4, 0.5)}", f"--decay={number(draw, 0.05, 1.0)}"]
    argv += [f"--kmax={draw(st.integers(2, 6))}", f"--samples={draw(st.integers(1, 40))}"]
    argv.append(f"--seed={draw(st.integers(0, 2 ** 32))}")
    return argv


@settings(max_examples=150, deadline=None, derandomize=True)
@given(cli_argv())
def test_cli_exit_codes_never_traceback(argv):
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as out_dir, contextlib.redirect_stderr(err):
        rc = run_command(argv + ["--out-dir", out_dir])
    event(f"{argv[0]}: exit {rc}")
    assert rc in (0, 2, 3), (rc, err.getvalue())
    assert "Traceback" not in err.getvalue()
