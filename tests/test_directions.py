import dataclasses
import math

import numpy as np
import pytest

from stableleaf import (
    EpsilonSchedule,
    Mat2,
    Point2,
    SplitRng,
    angle_distance,
    angle_gap,
    build_orbit_cocycle,
    contracted_direction,
    direction_field_derivative,
    eigen_split,
    estimate_budget,
    fold_angle,
    make_map,
    pushforward_contraction,
)
from stableleaf import cocycle
from stableleaf.directions import GAP_CUBIC, GAP_FIFTH, GAP_SQ, contracted_theta_fast
from stableleaf.errors import BadParamsError, ConformalError, StencilEscapeError, ValidationError
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import sweep_min_angle
from test_cocycle import random_mat
from test_param_oracle import SADDLES


def test_coefficients_pinned():
    assert (GAP_SQ, GAP_FIFTH, GAP_CUBIC) == (1597.0, 40.0, 40.0)


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
        th = contracted_direction(c, k)
        assert th == 0.0
        assert (math.cos(th), math.sin(th)) == (1.0, 0.0)

    ch = build_orbit_cocycle(henon_map, Point2(0, 0), 1)
    assert contracted_direction(ch, 1) == pytest.approx(0.0, abs=1e-12)
    assert ch.E[1] == pytest.approx(0.3, rel=1e-14)

    th, e, f = contracted_theta_fast(henon_map, 0.0, 0.0, 1)
    assert (th, e, f) == pytest.approx((0.0, 0.3, 1.0), abs=1e-12)


def test_cocycle_angle_is_the_walk_angle(henon_map, monkeypatch):
    # the leaves of cauchy_iterate start along contracted_direction(b.cocycle, k)
    # and integrate_leaf's along contracted_theta_fast at z: the cocycle's
    # products and orbit_product's are the same operations on the same orbit,
    # so both angles agree to the bit at every order. The guarded map takes
    # orbit_product's in_domain branch, the unbounded one its orbit_sweep fallback
    guard_calls, swept = [], []
    guarded = dataclasses.replace(henon_map, singular_guard=lambda x, y: guard_calls.append(x) or x + 3.0)
    unbounded = dataclasses.replace(henon_map, box=(-math.inf, math.inf, -math.inf, math.inf))
    saddle = eigen_split(henon_map, Point2(0.6, 0.2)).p
    cases = [(m, Point2(float(w.cx[0]), float(w.cy[0])), kmax) for m, w, kmax, _ in SADDLES.values()]
    cases += [(m, saddle, 12) for m in (henon_map, guarded, unbounded)]
    sweep = cocycle.orbit_sweep
    monkeypatch.setattr(cocycle, "orbit_sweep", lambda m, *args: swept.append(m) or sweep(m, *args))
    for m, z, kmax in cases:
        c = build_orbit_cocycle(m, z, kmax)
        guard_calls.clear()
        swept.clear()
        for k in range(1, kmax + 1):
            theta = contracted_direction(c, k)
            assert theta.hex() == contracted_theta_fast(m, z.x, z.y, k)[0].hex(), (m.name, z, k)
        assert len(swept) == (kmax if m is unbounded else 0)
        assert len(guard_calls) == (kmax * (kmax + 1) // 2 if m is guarded else 0)


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


def test_angle_gap_reads_the_budget_xi(perturbed_map):
    # xi is the budget's xi_k where that is finite, and the pointwise bound where it is +inf
    # or k is past the budget's orders 0..kmax - 1
    b = estimate_budget(perturbed_map, Point2(0.0, 0.0), EpsilonSchedule.constant(0.05), kmax=4, n=200, seed=1)
    c = build_orbit_cocycle(perturbed_map, Point2(0.0, 0.0), 6)
    for k in range(1, 4):
        rec = angle_gap(c, k, budget=b)
        assert rec.xi == b.xi[k] != rec.bound
        assert angle_gap(c, k, budget=dataclasses.replace(b, xi=np.full(4, math.inf))).xi == rec.bound
    for k in (4, 5):
        rec = angle_gap(c, k, budget=b)
        assert rec.xi == rec.bound


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
            th = contracted_direction(c, k)
            vx, vy = c.products[k + 1].apply(math.cos(th), math.sin(th))
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


def test_direction_field_derivative_holds_at_deep_orders(henon_map):
    # at the saddle the stencil's L reads 0.7257712685 from k = 24 to 80. An L
    # built from derivatives of Dphi^j carried along the orbit keeps only
    # eps * F_j relative accuracy (ROADMAP item 7) and drifts off by k = 48
    z = Point2(0.6313544770895252, 0.18940634312685756)
    c = build_orbit_cocycle(henon_map, z, 80)
    ls = [direction_field_derivative(henon_map, c, k)[0] for k in (24, 40, 64, 80)]
    assert max(ls) - min(ls) <= 1e-8 * min(ls)


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

    c = build_orbit_cocycle(linear_map, Point2(0.1, 0.01), 4)
    calls = [
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
