"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run as `pytest tests/test_acceptance.py -v -s` to see the per-criterion lines.
"""

import functools
import math
import time

import numpy as np
import pytest

from stableleaf import (
    EpsilonSchedule,
    Mat2,
    Point2,
    SplitRng,
    build_orbit_cocycle,
    cauchy_iterate,
    check_condition_double_star,
    choose_epsilon,
    contraction_check,
    eigen_split,
    estimate_budget,
    integrate_leaf,
    make_map,
    singular_frame,
    uniqueness_probe,
    verify_fixed_point_theorem,
)
from stableleaf.budget import SAMPLE_SLACK, first_tube_exit
from stableleaf.cli import run_command
from stableleaf.directions import angle_distance, contracted_theta_fast
from stableleaf.leaf import rk4_streamline

from conftest import centre_lane, reference_orbit
from test_cocycle import fd_det_gradient, fd_second_tensor, probe_bilinear_norm

HENON_SADDLE = Point2(0.6313544770895252, 0.18940634312685756)


def criterion(num, desc):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kw):
            try:
                fn(*args, **kw)
            except BaseException:
                print(f"[criterion {num:2d}] FAIL  {desc}")
                raise
            print(f"[criterion {num:2d}] PASS  {desc}")

        return wrapper

    return deco


def linear_pipeline(eta=0.1, kmax=16, n=1000, seed=7, tol=1e-9):
    m = make_map("linear", lambda_s=0.5, lambda_u=2.0)
    z = Point2(0.0, 0.0)
    sched = EpsilonSchedule.constant(eta)
    b = estimate_budget(m, z, sched, kmax, n=n, seed=seed)
    dstar = check_condition_double_star(b, sched)
    coc = build_orbit_cocycle(m, z, kmax)
    from stableleaf.directions import direction_field_derivative

    L = direction_field_derivative(m, coc, kmax, 1e-4, budget=b)[0]
    eps = choose_epsilon(m, b, dstar.gamma_required, L)
    conv = cauchy_iterate(m, b, eps, tol, L=L)
    return m, z, sched, b, eps, conv


@criterion(1, "linear oracle end-to-end: flat leaf, exact tangency, 2^-n ratios, < 5 s")
def test_criterion_1_linear_end_to_end():
    t0 = time.perf_counter()
    m, z, sched, b, eps, conv = linear_pipeline(eta=0.1, kmax=16)
    limit = conv.limit
    assert np.max(np.abs(limit.ys)) <= 1e-9
    assert abs(limit.thetas[limit.center_index]) <= 1e-10
    cr = contraction_check(m, limit, b, n=12)
    for n in range(13):
        assert abs(cr.max_ratio[n] - 0.5 ** n) <= 1e-9 * 0.5 ** n
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0, f"took {elapsed:.2f} s"


def matrix_suite(count=10_000, seed=2024):
    """count seeded matrices R(a) diag(1, h) R(b) * s with condition 1/h <= 1e6."""
    rng = SplitRng(seed).substream(1)
    rows = np.empty((count, 4))
    conds = np.empty(count)
    for i in range(count):
        a = rng.uniform(0.0, math.pi)
        bng = rng.uniform(0.0, math.pi)
        h = math.exp(rng.uniform(math.log(1e-6), math.log(0.999)))
        s = math.exp(rng.uniform(math.log(1e-3), math.log(1e3)))
        ca, sa, cb, sb = math.cos(a), math.sin(a), math.cos(bng), math.sin(bng)
        rows[i] = (
            s * (ca * cb - sa * h * sb),
            s * (-ca * sb - sa * h * cb),
            s * (sa * cb + ca * h * sb),
            s * (-sa * sb + ca * h * cb),
        )
        conds[i] = 1.0 / h
    return rows, conds


def sweep_minimizers(rows, n_grid=4096, chunk=512):
    """Vectorized dense-sweep oracle with parabolic vertex refinement."""
    th = np.linspace(0.0, math.pi, n_grid, endpoint=False)
    c, s = np.cos(th), np.sin(th)
    step = math.pi / n_grid
    out = np.empty(len(rows))
    for lo in range(0, len(rows), chunk):
        r = rows[lo: lo + chunk]
        f = (
            (r[:, 0:1] * c + r[:, 1:2] * s) ** 2
            + (r[:, 2:3] * c + r[:, 3:4] * s) ** 2
        )
        idx = np.argmin(f, axis=1)
        rows_idx = np.arange(len(r))
        f0 = f[rows_idx, idx]
        fm = f[rows_idx, (idx - 1) % n_grid]
        fp = f[rows_idx, (idx + 1) % n_grid]
        denom = fm - 2.0 * f0 + fp
        shift = np.where(denom > 0.0, 0.5 * step * (fm - fp) / np.where(denom == 0.0, 1.0, denom), 0.0)
        out[lo: lo + chunk] = (idx * step + shift) % math.pi
    return out


@criterion(2, "direction formula matches dense sweep (1e-6 rad) and ||M e|| = E")
def test_criterion_2_direction_oracle():
    rows, conds = matrix_suite()
    sweeps = sweep_minimizers(rows)
    frames = [singular_frame(Mat2(*r)) for r in rows]
    for i, fr in enumerate(frames):
        assert angle_distance(fr.theta_contract, sweeps[i]) <= 1e-6
        ex, ey = math.cos(fr.theta_contract), math.sin(fr.theta_contract)
        norm = math.hypot(rows[i, 0] * ex + rows[i, 1] * ey, rows[i, 2] * ex + rows[i, 3] * ey)
        # branch correctness at the dominant scale over the whole population;
        # the E-relative tolerance is meaningful where round-off (~eps * cond)
        # stays below it
        assert abs(norm - fr.E) <= 1e-10 * fr.F
        if conds[i] <= 1e4:
            assert abs(norm - fr.E) <= 1e-10 * fr.E


@criterion(3, "quadratic/eigen-sum/adjugate identities at relative 1e-8")
def test_criterion_3_identity_suite():
    rows, _ = matrix_suite()
    a, b, c, d = rows[:, 0], rows[:, 1], rows[:, 2], rows[:, 3]
    qa = a * b + c * d
    qb = a * a + c * c - b * b - d * d
    qc = a * c + b * d
    qd = a * a + b * b - c * c - d * d
    s = a * a + b * b + c * c + d * d
    det = a * d - b * c
    r = np.hypot(qb, 2.0 * qa)
    f2 = 0.5 * (s + r)
    e2 = (det / np.sqrt(f2)) ** 2
    target = (e2 - f2) ** 2
    assert np.all(np.abs(4 * qa ** 2 + qb ** 2 - target) <= 1e-8 * target)
    assert np.all(np.abs(4 * qc ** 2 + qd ** 2 - target) <= 1e-8 * target)
    assert np.all(np.abs((f2 + e2) - s) <= 1e-8 * s)
    # adjugate identity: M^-1 det(M) = [[d, -b], [-c, a]] entrywise
    mats = rows.reshape(-1, 2, 2)
    invs = np.linalg.inv(mats)
    adj_lhs = invs * det[:, None, None]
    adj_rhs = np.stack(
        [np.stack([d, -b], axis=1), np.stack([-c, a], axis=1)], axis=1
    )
    scale = np.abs(adj_rhs).max(axis=(1, 2))
    assert np.all(np.abs(adj_lhs - adj_rhs).max(axis=(1, 2)) <= 1e-8 * scale)


def neighborhood_points_near_leaf(m, z, sched, k, want, seed, trans_width):
    """Exact order-k neighborhood members proposed along the order-k leaf."""
    ref = reference_orbit(m, z, max(k - 1, 0))
    guide = integrate_leaf(m, z, k, 0.25 * sched.radius(0), h=None, grid_points=65)
    rng = SplitRng(seed).substream(k)
    pts = []
    tries = 0
    npts = len(guide.t)
    while len(pts) < want and tries < 40 * want:
        tries += 1
        i = (rng.next_u64() * npts) >> 64  # an index in [0, npts) by the multiply-shift reduction
        w = rng.uniform(-trans_width, trans_width)
        th = guide.thetas[i]
        p = Point2(guide.xs[i] - w * math.sin(th), guide.ys[i] + w * math.cos(th))
        if first_tube_exit(m, ref, p, sched, k - 1) is None:
            pts.append(p)
    return pts


@criterion(4, "angle bound |tan phi_k| <= PQH/(1-PQH): zero violations, >= 100 pts/k")
def test_criterion_4_angle_bound():
    cases = [
        (make_map("perturbed", lambda_s=0.5, lambda_u=2.0, c=0.05), Point2(0.0, 0.0), 2.0),
        (make_map("henon", a=1.4, b=0.3), HENON_SADDLE, 1.92373885815346),
    ]
    eta = 0.05
    sched = EpsilonSchedule.constant(eta)
    for m, z, lam_u in cases:
        b = estimate_budget(m, z, sched, kmax=13, n=500, seed=31)
        k0 = b.k0
        assert k0 is not None
        for k in range(k0, 13):
            width = 0.3 * eta * lam_u ** -(k - 1)
            pts = neighborhood_points_near_leaf(m, z, sched, k, want=120, seed=1000 + k, trans_width=width)
            checked = 0
            for p in pts:
                c = build_orbit_cocycle(m, p, k + 1)
                pqh = c.P[k] * c.Q[k] * c.H[k + 1]
                if pqh >= 0.5:
                    continue
                checked += 1
                from stableleaf.directions import angle_gap

                rec = angle_gap(c, k)
                assert math.tan(rec.phi) <= rec.bound * (1.0 + 1e-9), (
                    f"{m.name} k={k}: tan phi {math.tan(rec.phi)} > bound {rec.bound}"
                )
            assert checked >= 100, f"{m.name} k={k}: only {checked} qualifying points"


@criterion(5, "distortion bounds (D1)/(D2) vs finite differences, 50 henon starts, k <= 8")
def test_criterion_5_distortion():
    m = make_map("henon", a=1.4, b=0.3)
    rng = SplitRng(99).substream(5)
    starts = []
    while len(starts) < 50:
        z = Point2(rng.uniform(-0.7, 0.7), rng.uniform(-0.25, 0.25))
        try:
            build_orbit_cocycle(m, Point2(z.x + 2e-4, z.y + 2e-4), 9)
            build_orbit_cocycle(m, Point2(z.x - 2e-4, z.y - 2e-4), 9)
            c = build_orbit_cocycle(m, z, 9)
        except Exception:
            continue
        starts.append((z, c))
    slack = 1.001
    for z, c in starts:
        lane = centre_lane(m, z, 9)
        for k in range(1, 9):
            d1, d2, _ = lane[k]
            t = fd_second_tensor(m, z.x, z.y, k, 1e-4)
            lhs1 = c.H[k] * probe_bilinear_norm(t) / c.F[k]
            assert lhs1 <= d1 * slack + 1e-12
            lhs2 = fd_det_gradient(m, z.x, z.y, k, 1e-4) / c.F[k] ** 2
            assert lhs2 <= d2 * slack + 1e-12


@criterion(6, "Gronwall leaf bound with 1.05 slack and summable d_k tail on perturbed")
def test_criterion_6_gronwall():
    m = make_map("perturbed", lambda_s=0.5, lambda_u=2.0, c=0.05)
    z = Point2(0.0, 0.0)
    sched = EpsilonSchedule.constant(0.05)
    kmax = 13
    b = estimate_budget(m, z, sched, kmax, n=800, seed=13)
    dstar = check_condition_double_star(b, sched)
    from stableleaf.directions import direction_field_derivative

    coc = build_orbit_cocycle(m, z, kmax)
    L = direction_field_derivative(m, coc, kmax, 1e-4, budget=b)[0]
    eps = choose_epsilon(m, b, dstar.gamma_required, L)
    conv = cauchy_iterate(m, b, eps, 1e-6, L=L)
    assert conv.ks == list(range(b.k0, kmax))
    assert np.all(conv.d_k <= conv.gronwall_bound * SAMPLE_SLACK)
    # monotone decay and a summable tail: the whole sum stays below 2 d_{k0}
    assert np.all(np.diff(conv.d_k) <= 0.0)
    assert np.sum(conv.d_k) < 2.0 * conv.d_k[0]


@criterion(7, "integrator order: h-halving factor in [12, 20]; linear leaf exact")
def test_criterion_7_integrator_order():
    def circle_field(x, y, rux, ruy):
        r = math.hypot(x, y)
        ux, uy = -y / r, x / r
        if ux * rux + uy * ruy < 0:
            return -ux, -uy
        return ux, uy

    def max_err(h):
        spacing = 0.125
        steps = max(1, round(spacing / h))
        xs, ys, _, truncated = rk4_streamline(circle_field, 1.0, 0.0, 0.0, 1.0, 8, spacing, steps)
        assert not truncated
        return max(
            math.hypot(x - math.cos((i + 1) * spacing), y - math.sin((i + 1) * spacing))
            for i, (x, y) in enumerate(zip(xs, ys))
        )

    factor = max_err(0.02) / max_err(0.01)
    assert 12.0 <= factor <= 20.0, f"order factor {factor}"

    # the linear-map leaf is exact against the axis at h and h/2 alike
    m = make_map("linear", lambda_s=0.5, lambda_u=2.0)
    for h in (0.25 / 512, 0.25 / 1024):
        leaf = integrate_leaf(m, Point2(0.1, 0.0), 6, 0.25, h=h)
        assert np.max(np.abs(leaf.ys)) <= 1e-12


@criterion(8, "fixed-point theorem suite on perturbed (eta=0.05): all conclusions, < 60 s")
def test_criterion_8_fixed_point_suite():
    t0 = time.perf_counter()
    m = make_map("perturbed", lambda_s=0.5, lambda_u=2.0, c=0.05)
    fp = eigen_split(m, Point2(0.01, -0.02))
    rep = verify_fixed_point_theorem(m, fp, eta=0.05, kmax=14, seed=8)
    assert rep.tangency_error <= 1e-4
    assert rep.rate_deviation <= 0.05
    assert rep.full_length
    assert rep.length_pos == pytest.approx(rep.eps, rel=1e-9)
    assert rep.length_neg == pytest.approx(rep.eps, rel=1e-9)
    assert rep.minidistortion_ok
    assert rep.k0_ok
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"took {elapsed:.2f} s"


@criterion(9, "uniqueness: off-axis probes exit at ceil(log2(eta/delta)) +- 1; leaf survives; strip ratio in band")
def test_criterion_9_uniqueness():
    eta, kmax = 0.1, 16
    m, z, sched, b, eps, conv = linear_pipeline(eta=eta, kmax=kmax)
    ref = reference_orbit(m, z, kmax)
    for delta in (1e-2, 1e-3, 1e-4):
        j = first_tube_exit(m, ref, Point2(0.0, delta), sched, kmax)
        expected = math.ceil(math.log2(eta / delta))
        assert j is not None and abs(j - expected) <= 1
    rep = uniqueness_probe(m, b, conv.limit)
    assert rep.on_leaf_exits == 0 and rep.outside_band == []


@criterion(10, "determinism: identical flags and seed give byte-identical artifacts")
def test_criterion_10_determinism(tmp_path):
    args = [
        "converge", "--map", "henon", "--a", "1.4", "--b", "0.3",
        "--z", "0.6313544770895252,0.18940634312685756", "--eps0", "0.05",
        "--kmax", "8", "--samples", "300", "--seed", "99",
    ]
    outs = []
    for name in ("r1", "r2"):
        out = tmp_path / name
        assert run_command(args + ["--out-dir", str(out)]) == 0
        outs.append(out)
    for fname in ("leaf.csv", "convergence.json"):
        assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()

    bargs = [
        "budget", "--map", "perturbed", "--lambda-s", "0.5", "--lambda-u", "2",
        "--c", "0.05", "--z", "0,0", "--eps0", "0.05", "--kmax", "10",
        "--samples", "400", "--seed", "5",
    ]
    b1, b2 = tmp_path / "b1", tmp_path / "b2"
    assert run_command(bargs + ["--out-dir", str(b1)]) == 0
    assert run_command(bargs + ["--out-dir", str(b2)]) == 0
    assert (b1 / "budget.json").read_bytes() == (b2 / "budget.json").read_bytes()
