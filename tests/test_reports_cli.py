import hashlib
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stableleaf
import stableleaf.cli as cli_mod
import stableleaf.leaf as leaf_mod
from stableleaf.budget import EpsilonSchedule
from stableleaf.cli import run_command
from stableleaf.errors import BadParamsError
from stableleaf.leaf import LeafCurve, budget_to_epsilon, iterate_to_contraction, uniqueness_probe
from stableleaf.maps import BUILTIN_MAPS, Point2, make_map
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
    eps = conv["eps_chosen"]
    assert conv["steps_per_cell"] == 0.125 and conv["h"] == eps / 16
    assert 0.0 <= conv["integration_error"] < conv["tol"]
    assert conv["length_neg"] == conv["length_pos"] == eps
    assert conv["truncated_neg"] is False and conv["truncated_pos"] is False


@pytest.mark.parametrize("h, steps", [("0.0125", 1 / 128), ("1.5e-04", 83 / 128), ("2.44140625e-05", 4)])
def test_cli_reports_the_step_used(tmp_path, h, steps):
    # eps is 0.0125 here, so the grid spacing is eps/128: h takes
    # N = round(eps / h) steps a side over its 128 cells (83 for h = 1.5e-4)
    assert run_command(CONVERGE_ARGS + ["--h", h, "--out-dir", str(tmp_path)]) == 0
    conv = json.loads((tmp_path / "convergence.json").read_text())
    assert conv["eps_chosen"] == 0.0125
    assert conv["steps_per_cell"] == steps and conv["h"] == 0.0125 / 128 / steps


# sha256 of the converge run's artifacts with CONVERGE_ARGS and --decay 0.9, and of
# the float.hex of uniqueness_probe's strip width on that run's limit leaf, one per line:
# the tubes of every stage after the budget shrink as 0.05 * 0.9^j, not as eps0
DECAYING_RUN_SHA256 = {
    "convergence.json": "88d62e3e016854cbd1a5078223a5da315920209a455f6dde303650ebbe2141ca",
    "leaf.csv": "1d8208bbde48b6cb84259fc22e7da6e92da81138e5d73cb8ea4e2156e6e261fb",
    "width": "fb2011e7402e0f9afe284858be8b445cda92282ec24272b6a1d42ea43602d207",
}


def test_decaying_schedule_run_is_pinned(tmp_path):
    assert run_command(CONVERGE_ARGS + ["--decay", "0.9", "--out-dir", str(tmp_path)]) == 0
    got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in ("convergence.json", "leaf.csv")}
    m = make_map("perturbed", lambda_s=0.5, lambda_u=2.0, c=0.05)
    b, _, L, eps = budget_to_epsilon(m, Point2(0.0, 0.0), EpsilonSchedule(0.05, 0.9), 8, 300, 42)
    conv, _ = iterate_to_contraction(m, b, eps, L, 1e-8, 42)
    words = "\n".join(w.hex() for w in uniqueness_probe(m, b, conv.limit).width.tolist())
    got["width"] = hashlib.sha256(words.encode()).hexdigest()
    assert got == DECAYING_RUN_SHA256


def test_cli_integration_error_above_tol_exits_numerical(tmp_path, capsys):
    # the Henon limit leaf's step-doubling error is about 1e-15
    args = ["converge", "--map", "henon", "--a", "1.4", "--b", "0.3",
            "--z", "0.6313544770895252,0.18940634312685756", "--eps0", "0.05",
            "--kmax", "12", "--samples", "800", "--seed", "6", "--out-dir", str(tmp_path)]
    assert run_command(args) == 0
    ie = json.loads((tmp_path / "convergence.json").read_text())["integration_error"]
    assert 0.0 < ie < 1e-14
    assert run_command(args + ["--tol", repr(ie / 2)]) == 3
    err = capsys.readouterr().err
    assert "[stage: cauchy-iterate]" in err
    assert f"the order-12 leaf's integration error {ie:.3e} at h=7.813e-04 is not below tol={ie / 2:.3e}" in err
    conv = json.loads((tmp_path / "convergence.json").read_text())
    assert conv["converged"] is False and conv["integration_error"] == ie


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


# the built-in maps' parameters, written out here apart from maps.BUILTIN_MAPS
BUILTIN_PARAMS = {"linear": ("lambda_s", "lambda_u"), "perturbed": ("lambda_s", "lambda_u", "c"), "henon": ("a", "b")}
PARAM_VALUES = {"lambda_s": "0.5", "lambda_u": "2", "c": "0.05", "a": "1.4", "b": "0.3"}


def test_each_builtin_map_requires_exactly_its_table_parameters(tmp_path, capsys):
    assert {name: names for name, (names, _) in BUILTIN_MAPS.items()} == BUILTIN_PARAMS
    flag = {key: "--" + key.replace("_", "-") for key in PARAM_VALUES}
    for name, names in BUILTIN_PARAMS.items():
        given = {key: PARAM_VALUES[key] for key in names}
        make_map(name, **given)
        run = ["budget", "--map", name, "--kmax", "2", "--samples", "1", "--out-dir", str(tmp_path / name)]
        # the map's own flags and no other: the run is accepted
        assert run_command(run + [t for key in names for t in (flag[key], given[key])]) == 0
        for key in names:
            rest = {k: v for k, v in given.items() if k != key}
            with pytest.raises(BadParamsError, match=f"missing parameter '{key}'"):
                make_map(name, **rest)
            assert run_command(run + [t for k in rest for t in (flag[k], rest[k])]) == 2
            assert f"error: map '{name}' requires {flag[key]}\n" in capsys.readouterr().err


def test_cli_rejects_a_non_finite_tol(tmp_path, capsys):
    # with tol = inf any finite leaf distances would read as converged
    args = ["converge", "--map", "linear", "--lambda-s", "0.5", "--lambda-u", "2", "--kmax", "4",
            "--samples", "200", "--out-dir", str(tmp_path)]
    for tol in ("inf", "nan"):
        assert run_command(args + ["--tol", tol]) == 2
        assert f"tol must be positive and finite, got {tol}" in capsys.readouterr().err
    assert not (tmp_path / "convergence.json").exists()


def test_cli_rejects_a_step_below_the_cell_limit(tmp_path, capsys):
    # eps is 0.0125 here, so the grid spacing is 0.0125 / 128; the limit leaf's
    # step-doubling check takes twice the steps of h, so h gets half the limit
    least = 0.0125 / 128 / 32
    for h in ("1e-320", "1e-12", repr(math.nextafter(least, 0.0))):
        assert run_command(CONVERGE_ARGS + ["--h", h, "--out-dir", str(tmp_path)]) == 2
        assert f"asks for more than 32 RK4 steps per grid cell of width 9.76563e-05; " \
               f"the smallest h allowed is {least!r}" in capsys.readouterr().err
    assert run_command(CONVERGE_ARGS + ["--h", repr(least), "--out-dir", str(tmp_path)]) == 0
    conv = json.loads((tmp_path / "convergence.json").read_text())
    assert conv["steps_per_cell"] == 32 and conv["h"] == least


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


def run_python(*argv, **kwargs):
    """Run a fresh interpreter on argv with the tested stableleaf sources on its path; kwargs go to subprocess.run."""
    src = str(Path(stableleaf.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, *argv], capture_output=True, text=True, env=env, **kwargs)


def test_cli_degenerate_leaf_exits_numerical(tmp_path, capsys, monkeypatch):
    # eps = 1e300 truncates every leaf to its centre node: no leaf arc is
    # compared, so the run is not converged and exits 3 without a traceback.
    # The hull pre-check lets no such rung through, so eps is set here.
    monkeypatch.setattr(leaf_mod, "choose_epsilon", lambda *args: 1e300)
    assert run_command(["converge", *LINEAR_SADDLE, "--out-dir", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert "order-11/12 leaves share 1 of 257 nodes" in err
    assert "truncated on the negative side at length 0.000000e+00" in err
    assert "truncated on the positive side at length 0.000000e+00" in err
    conv = json.loads((tmp_path / "convergence.json").read_text())
    assert conv["converged"] is False
    assert conv["length_neg"] == conv["length_pos"] == 0.0
    assert conv["truncated_neg"] is True and conv["truncated_pos"] is True
    assert conv["integration_error"] == math.inf


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


def test_cli_budget_subnormal_radius_is_infeasible(tmp_path, capsys):
    # (gamma_tilde_j + 4 Fmax_j p_k q_k gamma_{k+1}) / eps_j overflows at eps0 = 1e-320: the ratio
    # is +inf without a RuntimeWarning, which the tests turn into an error
    args = ["budget", "--map", "linear", "--lambda-s", "0.5", "--lambda-u", "2", "--eps0", "1e-320",
            "--kmax", "3", "--samples", "5", "--out-dir", str(tmp_path)]
    assert run_command(args) == 0
    assert capsys.readouterr().err == ""
    text = (tmp_path / "budget.json").read_text()
    assert '"gamma_required":Infinity' in text
    assert json.loads(text)["double_star_verdict"] == "INFEASIBLE"


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
    assert rep["steps_per_cell"] == 0.125 and rep["h"] == rep["eps"] / 16
    assert 0.0 <= rep["integration_error"] < 1e-8
    assert rep["conclusion_1_tangency"]["tangency_error_rad"] <= 1e-6
    assert rep["conclusion_2_length"]["full_length"] is True
    assert abs(rep["conclusion_3_contraction"]["fitted_rate"] - math.log(0.5)) <= 0.05
    uniq = rep["conclusion_4_uniqueness"]
    assert uniq["on_leaf_exits"] == 0 and uniq["outside_band"] == []
    assert len(uniq["strip_width"]) == len(uniq["strip_ratio"]) == 9


def test_cli_fixedpoint_refuses_a_decaying_schedule(tmp_path, capsys):
    # the theorem runs at eps_j = eta: a --decay below 1, as a flag or a config
    # line, is refused before the output directory is made
    out = tmp_path / "out"
    args = ["fixedpoint", "--map", "henon", "--a", "1.4", "--b", "0.3", "--z", "0.6,0.2", "--eps0", "0.05",
            "--kmax", "8", "--samples", "200", "--out-dir", str(out)]
    cfg = tmp_path / "run.cfg"
    cfg.write_text("decay=0.5\n")
    for extra in (["--decay", "0.5"], ["--config", str(cfg)]):
        assert run_command(args + extra) == 2
        err = capsys.readouterr().err
        assert "--decay must be 1, got 0.5" in err and "Traceback" not in err
        assert not out.exists()


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
    # Dphi^2 at the base point, of size about 1e-261, keeps its singular values;
    # Dphi^3, of size about 1e-391, rounds to the zero matrix
    tiny = "5.633351377464542e-131"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rc = run_command(["leaf", "--map", "perturbed", f"--lambda-s={tiny}", f"--lambda-u={tiny}", f"--c={tiny}",
                          "--z=0.021236870351144965,-0.1715702845708269", "--eps0=0.445558497450236",
                          "--decay=0.7260566776114386", "--kmax=5", "--samples=16", "--seed=2097153",
                          "--out-dir", str(tmp_path)])
    assert rc == 3
    assert "[stage: budget]: order-3 product Dphi^3 underflows to zero" in capsys.readouterr().err


@pytest.mark.parametrize("lambda_u, kmax, order", [("1e300", 3, 2), ("1e100", 4, 4)])
def test_cli_overflowing_product_exits_numerical(tmp_path, capsys, lambda_u, kmax, order):
    # every step diag(0.5, lambda_u) is invertible; the product Dphi^order overflows
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rc = run_command(["budget", "--map", "linear", "--lambda-s", "0.5", f"--lambda-u={lambda_u}",
                          f"--kmax={kmax}", "--out-dir", str(tmp_path)])
    assert rc == 3
    assert f"[stage: budget]: order-{order} product Dphi^{order} overflows" in capsys.readouterr().err


def test_cli_out_of_memory_exits_numerical(tmp_path, capsys, monkeypatch):
    def out_of_memory(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(cli_mod, "estimate_budget", out_of_memory)
    assert run_command(["budget", *LINEAR_SADDLE, "--kmax", "3", "--out-dir", str(tmp_path)]) == 3
    assert capsys.readouterr().err == "numerical failure: out of memory; a smaller --kmax or --samples needs less\n"


def cap_address_space():
    """preexec_fn of a child capped at a 600 MB address space, which leaves room for numpy's import."""
    import resource

    resource.setrlimit(resource.RLIMIT_AS, (600_000 * 1024, resource.getrlimit(resource.RLIMIT_AS)[1]))


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="RLIMIT_AS caps a process's address space on Linux")
def test_cli_out_of_memory_under_an_address_space_cap(tmp_path):
    # lambda = (1, 1): every product is the identity, so z's orbit runs all 5,000,000 steps and
    # outgrows the cap; only the child is capped
    res = run_python("-m", "stableleaf", "budget", "--map", "linear", "--lambda-s", "1", "--lambda-u", "1",
                     "--kmax", "5000000", "--samples", "10", "--out-dir", str(tmp_path), preexec_fn=cap_address_space)
    assert res.returncode == 3, res.stderr
    assert "numerical failure: out of memory" in res.stderr and "Traceback" not in res.stderr


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="RLIMIT_AS caps a process's address space on Linux")
def test_cli_overflowing_product_stops_the_orbit_walk(tmp_path):
    # Dphi^1024 = diag(2^-1024, 2^1024) overflows: the walk of z's orbit stops there, so a kmax of
    # 5,000,000 fails at once, also under the cap, where walking on runs out of memory
    res = run_python("-m", "stableleaf", "budget", *LINEAR_SADDLE, "--kmax", "5000000", "--samples", "10",
                     "--out-dir", str(tmp_path), preexec_fn=cap_address_space, timeout=10)
    assert res.returncode == 3, res.stderr
    assert res.stderr == "numerical failure [stage: budget]: order-1024 product Dphi^1024 overflows at (0.0, 0.0)\n"


LINEAR_SADDLE = ["--map", "linear", "--lambda-s", "0.5", "--lambda-u", "2"]


@pytest.mark.parametrize("argv, stage", [
    (["converge", "--map", "perturbed", "--lambda-s", "0.5", "--lambda-u", "2", "--c", "0.05",
      "--samples", "50", "--seed", "1", "--tol", "1e-300"], "cauchy-iterate"),
    (["leaf", "--map", "linear", "--lambda-s", "1", "--lambda-u", "1"], "direction-derivative"),
    (["leaf", *LINEAR_SADDLE, "--samples", "1"], "choose-epsilon"),
    (["budget", *LINEAR_SADDLE, "--z", "100,100"], "budget"),
    (["fixedpoint", "--map", "linear", "--lambda-s", "0.5", "--lambda-u", "0.8"], "eigen-split"),
    (["fixedpoint", "--map", "perturbed", "--lambda-s", "0.5", "--lambda-u", "2", "--c", "0.05",
      "--samples", "50", "--seed", "1", "--tol", "1e-300"], "cauchy-iterate"),
    # no draw lies in the box of radius 1e300: the empty order-k0 sample rejects every rung
    (["converge", *LINEAR_SADDLE, "--eps0", "1e300"], "choose-epsilon"),
])
def test_cli_failures_name_their_stage(tmp_path, capsys, argv, stage):
    assert run_command(argv + ["--out-dir", str(tmp_path)]) == 3
    assert f"numerical failure [stage: {stage}]: " in capsys.readouterr().err


def test_cli_fixedpoint_without_a_fixed_point(tmp_path, capsys):
    # Dphi - I = diag(0, 1) is singular: Newton cannot start, and nothing is written
    rc = run_command(["fixedpoint", "--map", "linear", "--lambda-s", "1", "--lambda-u", "2", "--z", "0.5,0.1",
                      "--out-dir", str(tmp_path)])
    assert rc == 3
    assert capsys.readouterr().err == "numerical failure [stage: eigen-split]: Newton matrix Dphi - I singular\n"
    assert os.listdir(tmp_path) == []


def test_cli_epsilon_ladder_with_huge_eps_l(tmp_path, capsys):
    # eps0 = 1e300 puts eps * L far past the range of exp on the top rungs
    rc = run_command(["fixedpoint", "--map", "henon", "--a=1.7299327359653565", "--b=0.8238968049670701",
                      "--z=-0.42226108498514403,0.05374399616018577", "--eps0=1e300",
                      "--kmax=4", "--samples=39", "--seed=1277108571",
                      "--out-dir", str(tmp_path)])
    assert rc == 3
    err = capsys.readouterr().err
    assert "no feasible eps" in err
    assert "the first rung eps=1.000e+300 fails exp(eps*L) < 2" in err


def test_cli_no_feasible_eps_names_the_blocking_constraints(tmp_path, capsys):
    # one sample and z span a segment, whose hull contains no square: the
    # hull pre-check rejects every rung that eps*gamma < 1 lets through
    assert run_command(["leaf", *LINEAR_SADDLE, "--samples", "1", "--out-dir", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert "[stage: choose-epsilon]: no feasible eps" in err
    assert "the first rung eps=1.000e-01 fails eps*gamma < 1" in err
    assert "the last rung eps=9.095e-14 fails the hull pre-check (order-2 sample size 1)" in err


def test_cli_empty_k0_sample_rejects_every_rung(tmp_path, capsys):
    # no draw of seed 2 reaches k0 = 2: the hull of {z} has no interior, so
    # the pre-check rejects every rung, as it does for seed 3's one-point sample
    argv = ["converge", "--map", "perturbed", "--lambda-s", "0.5", "--lambda-u", "2", "--c", "0.05",
            "--eps0", "0.05", "--kmax", "8", "--samples", "1"]
    for seed, size in (("2", 0), ("3", 1)):
        assert run_command(argv + ["--seed", seed, "--out-dir", str(tmp_path / seed)]) == 3
        err = capsys.readouterr().err
        assert f"fails the hull pre-check (order-2 sample size {size})" in err, err
        assert "Traceback" not in err


def test_cli_config_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("map=linear\nlambda-s=0.5\nlambda-u=2\nnonsense-key=3\n")
    assert run_command(["budget", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 2


def test_cli_config_not_utf8(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_bytes(b"map=linear\nlambda-s=0.5\xff\n")
    assert run_command(["budget", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert f"error: {cfg}: config file is not UTF-8 text" in err and "Traceback" not in err
    assert not (tmp_path / "budget.json").exists()


def test_cli_config_given_twice(tmp_path, capsys):
    # the second file was silently ignored (its kmax=3 never applied)
    a, b = tmp_path / "a.cfg", tmp_path / "b.cfg"
    a.write_text("map=linear\nlambda-s=0.5\nlambda-u=2\nsamples=50\n")
    b.write_text("kmax=3\n")
    out = tmp_path / "out"
    for argv in (["--config", str(a), "--config", str(b)], ["--config", str(a), f"--config={b}"],
                 [f"--config={a}", "--config", str(b)], ["--config", str(a), "--conf", str(b)]):
        assert run_command(["budget", *argv, "--out-dir", str(out)]) == 2, argv
        err = capsys.readouterr().err
        assert f"error: --config {b} not read: give exactly one config file" in err and "Traceback" not in err
        assert not out.exists()
    assert run_command(["budget", "--map", "linear", "--out-dir", str(out), "--config"]) == 2
    assert "error: --config needs a path" in capsys.readouterr().err
    assert run_command(["budget", f"--config={a}", "--out-dir", str(out)]) == 0
    assert json.loads((out / "budget.json").read_text())["samples_requested"] == 50


def test_cli_config_names_another_config(tmp_path, capsys):
    other = tmp_path / "other.cfg"
    other.write_text("kmax=3\n")
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"map=linear\nlambda-s=0.5\nlambda-u=2\nconfig={other}\n")
    out = tmp_path / "out"
    assert run_command(["budget", "--config", str(cfg), "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"error: {cfg}:4: a config file cannot name another config file" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("kind", ["missing", "directory"])
def test_cli_config_unreadable(tmp_path, capsys, kind):
    # an input file that cannot be read is bad input (exit 2), not an output failure (exit 3)
    cfg = tmp_path / "absent.cfg"
    if kind == "directory":
        cfg = tmp_path / "cfg.d"
        cfg.mkdir()
    out = tmp_path / "out"
    assert run_command(["budget", "--config", str(cfg), "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"error: {cfg}: cannot read config file (" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["budget", "converge", "fixedpoint"])
@pytest.mark.parametrize("z", ["nan,0", "inf,0", "0,-inf"])
def test_cli_non_finite_base_point(tmp_path, capsys, command, z):
    # a non-finite --z is bad input (exit 2), not an orbit that left the domain (exit 3)
    out = tmp_path / "out"
    args = [command, "--map", "perturbed", "--lambda-s", "0.5", "--lambda-u", "2", "--c", "0.05",
            "--kmax", "6", "--samples", "200", "--z", z, "--out-dir", str(out)]
    assert run_command(args) == 2
    err = capsys.readouterr().err
    assert f"error: --z expects finite numbers, got '{z}'" in err and "Traceback" not in err
    assert not out.exists()


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
