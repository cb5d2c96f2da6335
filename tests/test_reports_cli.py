import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stableleaf
from stableleaf.cli import run_command
from stableleaf.leaf import LeafCurve
from stableleaf.maps import Point2
from stableleaf.reports import dumps_canonical, emit_json, emit_leaf_csv, leaf_csv_lines


def tiny_leaf(k=3):
    t = np.array([-0.1, 0.0, 0.1])
    return LeafCurve(
        k=k, z0=Point2(0.0, 0.0), eps=0.1, h=0.1 / 512,
        t=t, xs=t.copy(), ys=np.zeros(3), thetas=np.zeros(3),
        center_index=1, truncated_neg=False, truncated_pos=False, grid_points=3,
    )


def test_json_canonical_form(tmp_path):
    obj = {"b": 1.0, "a": [0.25, float("inf"), float("nan")], "c": {"z": None, "y": True}}
    text = dumps_canonical(obj)
    assert text == (
        '{"a":[2.5000000000000000e-01,Infinity,NaN],'
        '"b":1.0000000000000000e+00,'
        '"c":{"y":true,"z":null}}'
    )
    p = tmp_path / "r.json"
    emit_json(obj, p)
    raw = p.read_bytes()
    assert raw.endswith(b"\n")
    # round-trip: parse and re-emit reproduces identical bytes
    parsed = json.loads(raw)
    assert dumps_canonical(parsed) + "\n" == raw.decode()


@settings(max_examples=200, deadline=None)
@given(
    st.dictionaries(
        st.text(min_size=1, max_size=8),
        st.one_of(
            st.floats(allow_nan=False),
            st.integers(min_value=-(2 ** 53), max_value=2 ** 53),
            st.booleans(),
            st.none(),
            st.lists(st.floats(allow_nan=False), max_size=4),
        ),
        max_size=6,
    )
)
def test_json_roundtrip_property(d):
    text = dumps_canonical(d)
    again = dumps_canonical(json.loads(text))
    assert text == again


def test_float_precision_no_loss():
    vals = [0.1, 1.0 / 3.0, math.pi, 2.0 ** -45, 1.7976931348623157e308, 5e-324]
    for v in vals:
        text = dumps_canonical({"v": v})
        assert json.loads(text)["v"] == v


def test_leaf_csv_schema(tmp_path):
    leaf = tiny_leaf()
    lines = leaf_csv_lines(leaf)
    assert lines[0] == "t,x,y,theta,k"
    assert len(lines) == 4
    assert lines[1].endswith(",3")
    assert leaf_csv_lines(leaf, k_override=-1)[1].endswith(",-1")
    p = tmp_path / "leaf.csv"
    emit_leaf_csv(leaf, p)
    raw = p.read_bytes()
    assert b"\r" not in raw
    assert raw.endswith(b"\n")


CONVERGE_ARGS = [
    "converge", "--map", "perturbed", "--lambda-s", "0.5", "--lambda-u", "2",
    "--c", "0.05", "--z", "0,0", "--eps0", "0.05", "--kmax", "8",
    "--samples", "300", "--seed", "42",
]


def test_cli_converge_happy_path(tmp_path):
    out = tmp_path / "run1"
    code = run_command(CONVERGE_ARGS + ["--out-dir", str(out)])
    assert code == 0
    leaf_csv = (out / "leaf.csv").read_bytes()
    conv = json.loads((out / "convergence.json").read_text())
    assert leaf_csv.splitlines()[0] == b"t,x,y,theta,k"
    assert leaf_csv.splitlines()[1].endswith(b",-1")  # limit-leaf sentinel
    for key in ("d_k", "gronwall_bound", "eps_chosen", "L_used"):
        assert key in conv


def test_cli_determinism(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run_command(CONVERGE_ARGS + ["--out-dir", str(out1)]) == 0
    assert run_command(CONVERGE_ARGS + ["--out-dir", str(out2)]) == 0
    for name in ("leaf.csv", "convergence.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_cli_validation_errors(tmp_path, capsys):
    code = run_command(CONVERGE_ARGS + ["--decay", "1.5", "--out-dir", str(tmp_path)])
    assert code == 2
    assert "decay" in capsys.readouterr().err
    assert run_command(["converge", "--map", "nosuch", "--out-dir", str(tmp_path)]) == 2
    code = run_command(["converge", "--map", "henon", "--a", "1.4", "--out-dir", str(tmp_path)])
    assert code == 2
    assert "--b" in capsys.readouterr().err


def test_cli_numerical_failure_writes_partial(tmp_path, capsys):
    out = tmp_path / "fail"
    args = [
        "converge", "--map", "henon", "--a", "1.4", "--b", "0.3",
        "--z", "0.6313544770895252,0.18940634312685756", "--eps0", "0.05",
        "--kmax", "8", "--samples", "200", "--seed", "1",
        "--tol", "1e-300", "--out-dir", str(out),
    ]
    code = run_command(args)
    assert code == 3
    assert (out / "convergence.json").exists()
    conv = json.loads((out / "convergence.json").read_text())
    assert conv["converged"] is False


def run_python(*argv):
    """Run a fresh interpreter on argv with the tested stableleaf sources on its path."""
    src = str(Path(stableleaf.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, *argv], capture_output=True, text=True, env=env)


def test_cli_degenerate_leaf_exits_numerical(tmp_path):
    # eps0 = 1e300 truncates every leaf to its centre node: no leaf arc is
    # compared, so the run is not converged and exits 3 without a traceback
    res = run_python(
        "-m", "stableleaf", "converge", "--map", "linear", "--lambda-s", "0.5", "--lambda-u", "2",
        "--eps0", "1e300", "--out-dir", str(tmp_path),
    )
    assert res.returncode == 3
    assert "Traceback" not in res.stderr
    assert "order-11/12 leaves share 1 of 257 nodes" in res.stderr
    assert json.loads((tmp_path / "convergence.json").read_text())["converged"] is False


def test_cli_conformal_base_point_is_not_a_stencil_escape(tmp_path, capsys):
    # lambda_s = lambda_u = 1: every product is the identity, conformal at z itself
    rc = run_command(["leaf", "--map", "linear", "--lambda-s", "1", "--lambda-u", "1",
                      "--samples", "50", "--out-dir", str(tmp_path)])
    err = capsys.readouterr().err
    assert rc == 3
    assert "order-1 product conformal to round-off at (0.0, 0.0)" in err
    assert "stencil" not in err


def test_cli_converge_never_imports_scipy(tmp_path):
    code = (
        "import sys\n"
        "from stableleaf.cli import run_command\n"
        f"rc = run_command({CONVERGE_ARGS + ['--out-dir', str(tmp_path)]!r})\n"
        "print(rc, any(m == 'scipy' or m.startswith('scipy.') for m in sys.modules))\n"
    )
    res = run_python("-c", code)
    assert res.stdout.split() == ["0", "False"], res.stderr


def test_cli_budget_and_leaf_subcommands(tmp_path):
    common = [
        "--map", "linear", "--lambda-s", "0.5", "--lambda-u", "2",
        "--z", "0,0", "--eps0", "0.1", "--kmax", "6", "--samples", "200",
        "--seed", "7", "--out-dir", str(tmp_path),
    ]
    assert run_command(["budget"] + common) == 0
    b = json.loads((tmp_path / "budget.json").read_text())
    assert b["k0"] == 2
    assert b["star_verdict"] == "SUMMABLE_HEURISTIC"
    assert run_command(["leaf"] + common) == 0
    assert (tmp_path / "leaf.csv").exists()
    assert json.loads((tmp_path / "leaf.json").read_text())["k"] == 6


def test_cli_fixedpoint_subcommand(tmp_path):
    args = [
        "fixedpoint", "--map", "perturbed", "--lambda-s", "0.5", "--lambda-u", "2",
        "--c", "0.05", "--z", "0.01,0.01", "--eps0", "0.05", "--kmax", "8",
        "--samples", "200", "--seed", "3", "--out-dir", str(tmp_path),
    ]
    assert run_command(args) == 0
    rep = json.loads((tmp_path / "fixedpoint.json").read_text())
    assert rep["conclusion_1_tangency"]["tangency_error_rad"] <= 1e-6
    assert rep["conclusion_2_length"]["full_length"] is True
    assert abs(rep["conclusion_3_contraction"]["fitted_rate"] - math.log(0.5)) <= 0.05
    assert rep["conclusion_4_uniqueness"]["on_leaf_exits"] == 0


def test_cli_config_file(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "map=linear\nlambda-s=0.5\nlambda-u=2\nz=0,0\neps0=0.1\n"
        "kmax=6\nsamples=150\nseed=5\n# comment line\n"
    )
    out = tmp_path / "out"
    assert run_command(["budget", "--config", str(cfg), "--out-dir", str(out)]) == 0
    assert (out / "budget.json").exists()


def test_cli_delta_flag_removed(tmp_path, capsys):
    # --delta drove no computation; the flag and the config key are rejected
    args = ["fixedpoint", "--map", "linear", "--lambda-s", "0.5", "--lambda-u", "2", "--out-dir", str(tmp_path)]
    assert run_command(args + ["--delta", "5"]) == 2
    err = capsys.readouterr().err
    assert "--delta" in err and "Traceback" not in err
    cfg = tmp_path / "run.cfg"
    cfg.write_text("map=linear\nlambda-s=0.5\nlambda-u=2\ndelta=5\n")
    assert run_command(["fixedpoint", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "--delta" in err and "Traceback" not in err
    assert not (tmp_path / "fixedpoint.json").exists()


def test_cli_overflowing_star_terms_stay_finite(tmp_path):
    # q = 1/E = 5e167 overflows q^5 beside p~ = delta = 0, and gamma_k = 0 for
    # k >= 2: every (*) term past k = 0 is exactly 0, not inf * 0 = NaN
    rc = run_command(["budget", "--map", "linear", "--lambda-s", "0.5", "--lambda-u=2e-168",
                      "--out-dir", str(tmp_path)])
    assert rc == 0
    rep = json.loads((tmp_path / "budget.json").read_text())
    assert all(math.isfinite(t) for t in rep["star_terms"])
    assert rep["star_terms"][1:] == [0.0] * (len(rep["star_terms"]) - 1)
    assert rep["star_verdict"] == "SUMMABLE_HEURISTIC"


def test_cli_underflowing_product_exits_numerical(tmp_path, capsys):
    # Dphi^2 at the base point underflows to the zero matrix
    tiny = "5.633351377464542e-131"
    rc = run_command(["leaf", "--map", "perturbed", f"--lambda-s={tiny}", f"--lambda-u={tiny}", f"--c={tiny}",
                      "--z=0.021236870351144965,-0.1715702845708269", "--eps0=0.445558497450236",
                      "--decay=0.7260566776114386", "--kmax=5", "--samples=16", "--seed=2097153",
                      "--out-dir", str(tmp_path)])
    assert rc == 3
    assert "order-2 product Dphi^2 underflows to zero" in capsys.readouterr().err


def test_cli_epsilon_ladder_with_huge_eps_l(tmp_path, capsys):
    # eps0 = 1e300 puts eps * L far past the range of exp on the top rungs
    rc = run_command(["fixedpoint", "--map", "henon", "--a=1.7299327359653565", "--b=0.8238968049670701",
                      "--z=-0.42226108498514403,0.05374399616018577", "--eps0=1e300",
                      "--decay=0.130614464372712", "--kmax=4", "--samples=39", "--seed=1277108571",
                      "--out-dir", str(tmp_path)])
    assert rc == 3
    assert "no feasible eps" in capsys.readouterr().err


def test_cli_config_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("map=linear\nlambda-s=0.5\nlambda-u=2\nnonsense-key=3\n")
    assert run_command(["budget", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 2


def test_cli_unwritable_out_dir(tmp_path, capsys):
    blocker = tmp_path / "blocked"
    blocker.write_text("a file, not a directory")
    code = run_command(CONVERGE_ARGS + ["--out-dir", str(blocker)])
    assert code == 3


def test_cli_module_entrypoint_cross_process_determinism(tmp_path):
    outs = []
    for name in ("m1", "m2"):
        out = tmp_path / name
        res = subprocess.run(
            [sys.executable, "-m", "stableleaf", "budget", "--map", "linear",
             "--lambda-s", "0.5", "--lambda-u", "2", "--kmax", "4",
             "--samples", "50", "--seed", "1", "--out-dir", str(out)],
            capture_output=True,
        )
        assert res.returncode == 0
        outs.append(out)
    # separate interpreter processes must produce identical bytes
    assert (outs[0] / "budget.json").read_bytes() == (outs[1] / "budget.json").read_bytes()
