import math

import numpy as np
import pytest

from stableleaf import (
    Mat2,
    Point2,
    SplitRng,
    angle_distance,
    angle_gap,
    build_orbit_cocycle,
    contracted_direction,
    direction_field_derivative,
    fold_angle,
    make_map,
    pushforward_contraction,
)
from stableleaf.directions import ANGLE_COEFFS, contracted_theta_fast
from stableleaf.errors import BadParamsError, ConformalError, StencilEscapeError, ValidationError
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import sweep_min_angle
from test_cocycle import random_mat


def test_coefficients_pinned():
    assert (ANGLE_COEFFS.gap_sq, ANGLE_COEFFS.gap_fifth, ANGLE_COEFFS.gap_cubic) == (1597.0, 40.0, 40.0)


def test_fold_and_distance():
    assert fold_angle(math.pi + 0.3) == pytest.approx(0.3)
    assert fold_angle(-0.1) == pytest.approx(math.pi - 0.1)
    assert angle_distance(0.10, math.pi - 0.05) == pytest.approx(0.15)
    assert angle_distance(0.0, math.pi / 2) == pytest.approx(math.pi / 2)


@settings(max_examples=100, deadline=None)
@given(st.floats(-20, 20), st.floats(-20, 20))
def test_distance_properties(a, b):
    d = angle_distance(a, b)
    assert 0.0 <= d <= math.pi / 2 + 1e-12
    assert d == pytest.approx(angle_distance(b, a), abs=1e-12)
    assert angle_distance(a, a + math.pi) == pytest.approx(0.0, abs=1e-9)


def test_contracted_direction_examples(linear_map, henon_map):
    c = build_orbit_cocycle(linear_map, Point2(0.2, 0.01), 4)
    for k in range(1, 5):
        ds = contracted_direction(c, k)
        assert ds.theta == 0.0
        assert ds.e == (1.0, 0.0)
        assert abs(ds.e[0] * ds.f[0] + ds.e[1] * ds.f[1]) <= 1e-15

    ch = build_orbit_cocycle(henon_map, Point2(0, 0), 1)
    d1 = contracted_direction(ch, 1)
    assert d1.theta == pytest.approx(0.0, abs=1e-12)
    assert ch.E[1] == pytest.approx(0.3, rel=1e-14)

    th, e, f = contracted_theta_fast(henon_map, 0.0, 0.0, 1)
    assert (th, e, f) == pytest.approx((0.0, 0.3, 1.0), abs=1e-12)


def test_direction_matches_sweep_oracle():
    rng = SplitRng(123)
    for _ in range(200):
        m = random_mat(rng, cond_floor=1e-2)
        from stableleaf import singular_frame

        fr = singular_frame(m)
        th = sweep_min_angle(*m)
        assert angle_distance(fr.theta_contract, th) <= 1e-7


def test_stationarity_and_branch():
    rng = SplitRng(321)
    for _ in range(200):
        m = random_mat(rng, cond_floor=1e-2)
        from stableleaf import singular_frame

        fr = singular_frame(m)

        def norm2(t):
            cc, ss = math.cos(t), math.sin(t)
            return (m.a11 * cc + m.a12 * ss) ** 2 + (m.a21 * cc + m.a22 * ss) ** 2

        h = 1e-6
        deriv = (norm2(fr.theta_contract + h) - norm2(fr.theta_contract - h)) / (2 * h)
        assert abs(deriv) <= 1e-8 * fr.F ** 2 + 1e-4 * h * fr.F ** 2
        ex, ey = math.cos(fr.theta_contract), math.sin(fr.theta_contract)
        fx, fy = math.cos(fr.theta_expand), math.sin(fr.theta_expand)
        assert math.hypot(*m.apply(ex, ey)) == pytest.approx(fr.E, rel=1e-10)
        assert math.hypot(*m.apply(fx, fy)) == pytest.approx(fr.F, rel=1e-10)


def test_stationarity_on_products(henon_map, perturbed_map):
    # d/dtheta ||Dphi^k v(theta)||^2 vanishes at theta_contract on real cocycles
    for m, z in ((henon_map, Point2(0.1, 0.0)), (perturbed_map, Point2(0.05, 0.01))):
        c = build_orbit_cocycle(m, z, 6)
        for k in range(1, 7):
            mk = c.products[k]
            th = contracted_theta_fast(m, z.x, z.y, k)[0]

            def norm2(t):
                cc, ss = math.cos(t), math.sin(t)
                vx, vy = mk.apply(cc, ss)
                return vx * vx + vy * vy

            h = 1e-5
            deriv = (norm2(th + h) - norm2(th - h)) / (2 * h)
            assert abs(deriv) <= 1e-8 * c.F[k] ** 2


def test_angle_gap_linear(linear_map):
    c = build_orbit_cocycle(linear_map, Point2(0.1, 0.01), 6)
    for k in range(1, 6):
        rec = angle_gap(c, k)
        assert rec.phi == 0.0
        expected = 4.0 ** -k / (1.0 - 4.0 ** -k)
        assert rec.bound == pytest.approx(expected, rel=1e-12)
        assert rec.bound > 0.0
        assert rec.xi == rec.bound  # no budget supplied


def test_angle_gap_henon_bound(henon_map):
    c = build_orbit_cocycle(henon_map, Point2(0, 0), 5)
    rec = angle_gap(c, 3)
    assert math.isfinite(rec.bound)
    pqh = c.P[3] * c.Q[3] * c.H[4]
    if pqh < 1.0:
        assert rec.phi <= rec.bound * (1 + 1e-9)


def test_angle_gap_inapplicable_marker(henon_map):
    # early orders at a generic point can have P Q H >= 1: bound must be +inf, no raise
    c = build_orbit_cocycle(henon_map, Point2(0.2, 0.1), 3)
    recs = [angle_gap(c, k) for k in range(1, 3)]
    for rec in recs:
        pqh = c.P[rec.k] * c.Q[rec.k] * c.H[rec.k + 1]
        if pqh >= 1.0:
            assert rec.bound == math.inf
        else:
            assert math.isfinite(rec.bound)


def test_half_inequality_and_cauchy_schwarz(linear_map, perturbed_map):
    for m, z in ((linear_map, Point2(0.1, 0.002)), (perturbed_map, Point2(0.02, -0.002))):
        c = build_orbit_cocycle(m, z, 10)
        for k in range(2, 9):  # k >= k0 = 2 for both maps
            e_k = contracted_direction(c, k).e
            vx, vy = c.products[k + 1].apply(e_k[0], e_k[1])
            pushed = math.hypot(vx, vy)
            pqh = c.P[k] * c.Q[k] * c.H[k + 1]
            assert pushed / c.F[k + 1] <= pqh * (1 + 1e-9)
            assert pqh <= 0.5
            assert pushed <= c.E[k + 1] * c.P[k] * c.Q[k] * (1 + 1e-9)


def test_pushforward_contraction(linear_map, henon_map):
    c = build_orbit_cocycle(linear_map, Point2(0.1, 0.01), 8)
    for j, k in ((3, 3), (2, 4), (1, 6)):
        norm, bound = pushforward_contraction(c, k, j)
        assert norm == pytest.approx(0.5 ** j, rel=1e-12)
        assert bound == pytest.approx(c.E[j], rel=1e-12)  # all gaps vanish

    ch = build_orbit_cocycle(henon_map, Point2(0, 0), 6)
    norm, bound = pushforward_contraction(ch, 5, 2)
    assert 0.0 < norm <= bound * (1 + 1e-9)


def test_direction_field_derivative_linear(linear_map):
    c = build_orbit_cocycle(linear_map, Point2(0.1, 0.01), 6)
    l_meas, l_bound = direction_field_derivative(linear_map, c, 6, 1e-4)
    assert l_meas <= 1e-8
    assert l_bound is None


def test_direction_field_derivative_bound_zero(linear_map):
    import stableleaf.budget as bm

    sched = bm.EpsilonSchedule.constant(0.1)
    b = bm.estimate_budget(linear_map, Point2(0, 0), sched, kmax=8, n=50, seed=1)
    b.delta[:] = 0.0
    b.gamma_star[:] = 0.0
    c = build_orbit_cocycle(linear_map, Point2(0, 0), 6)
    l_meas, l_bound = direction_field_derivative(linear_map, c, 6, 1e-4, budget=b)
    assert l_bound == 0.0


def test_direction_field_derivative_henon(henon_map):
    import stableleaf.budget as bm

    sched = bm.EpsilonSchedule.constant(0.05)
    z = Point2(0.6313544770895252, 0.18940634312685756)
    b = bm.estimate_budget(henon_map, z, sched, kmax=8, n=300, seed=4)
    c = build_orbit_cocycle(henon_map, z, 6)
    l_meas, l_bound = direction_field_derivative(henon_map, c, 4, 1e-4, budget=b)
    assert math.isfinite(l_meas) and l_meas > 0.0
    assert math.isfinite(l_bound) and l_bound > 0.0


def test_field_derivative_bound_overflow_beside_zero():
    # q = 1/E_1 = 5e167 overflows (p q)^5 and (p q)^2, while p~ and delta are 0:
    # each such term is 0, where inf * 0 used to make the bound NaN
    import stableleaf.budget as bm

    m = make_map("linear", lambda_s=0.5, lambda_u=2e-168)
    b = bm.estimate_budget(m, Point2(0, 0), bm.EpsilonSchedule.constant(0.1), kmax=4, n=20, seed=1)
    assert b.q[1] == 5e167 and not b.pt.any() and not b.delta.any()
    c = build_orbit_cocycle(m, Point2(0, 0), 4)
    l_meas, l_bound = direction_field_derivative(m, c, 3, 1e-4, budget=b)
    assert math.isfinite(l_meas)
    assert l_bound == 0.0


def test_k_range_errors_are_bad_params(linear_map):
    import stableleaf.budget as bm
    from stableleaf import distortion_bounds

    c = build_orbit_cocycle(linear_map, Point2(0.1, 0.01), 4)
    calls = [
        lambda: c.tail_norms(5),
        lambda: distortion_bounds(c, 0),
        lambda: contracted_direction(c, 5),
        lambda: angle_gap(c, 4),
        lambda: pushforward_contraction(c, 2, 3),
        lambda: direction_field_derivative(linear_map, c, 5, 1e-4),
        lambda: build_orbit_cocycle(linear_map, Point2(0, 0), 0),
        lambda: bm.estimate_budget(linear_map, Point2(0, 0), bm.EpsilonSchedule.constant(0.1), kmax=1),
    ]
    for call in calls:
        with pytest.raises(BadParamsError) as exc:
            call()
        assert isinstance(exc.value, ValidationError)


def test_stencil_escape(henon_map):
    # base point adjacent to the domain box edge, with its own orbit inside the
    # box for 3 steps: the stencil point (2, 5.0009999) leaves it
    z = Point2(2.0, 4.9999999)
    coc = build_orbit_cocycle(henon_map, Point2(0.1, 0.0), 3)
    coc.z0 = z
    with pytest.raises(StencilEscapeError):
        direction_field_derivative(henon_map, coc, 3, 1e-3)


def test_conformal_direction_refused():
    rot = Mat2(math.cos(0.4), -math.sin(0.4), math.sin(0.4), math.cos(0.4))
    from stableleaf import singular_frame

    with pytest.raises(ConformalError):
        singular_frame(rot)
