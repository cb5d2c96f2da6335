import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stableleaf import (
    EpsilonSchedule,
    Point2,
    check_condition_double_star,
    check_condition_star,
    estimate_budget,
    first_tube_exit,
    make_map,
)
from stableleaf.budget import INCONCLUSIVE, INFEASIBLE, SUMMABLE_HEURISTIC, reference_orbit
from stableleaf.errors import BadParamsError, OrbitEscapeError
from stableleaf.maps import MapModel


def rotationlike_map():
    c, s = math.cos(0.7), math.sin(0.7)
    return MapModel(
        name="rotationlike",
        params={"angle": 0.7},
        raw_eval=lambda x, y: (c * x - s * y, s * x + c * y),
        raw_jac=lambda x, y: (c, -s, s, c),
        raw_hess=lambda x, y: (0.0,) * 6,
        raw_det_grad=lambda x, y: (0.0, 0.0),
    )


def test_schedule_validation():
    s = EpsilonSchedule(0.1, 0.5)
    assert s.radius(0) == 0.1 and s.radius(2) == 0.025
    with pytest.raises(BadParamsError):
        EpsilonSchedule(0.1, 1.5)
    with pytest.raises(BadParamsError):
        EpsilonSchedule(0.1, 0.0)
    with pytest.raises(BadParamsError):
        EpsilonSchedule(-1.0, 0.5)


def test_sample_k1_accepts_all(linear_map):
    sched = EpsilonSchedule.constant(0.1)
    b = estimate_budget(linear_map, Point2(0, 0), sched, kmax=2, n=500, seed=9)
    assert b.accepted_counts[1] == b.n == 500
    assert len(b.samples[1]) == 500


def test_sample_determinism(henon_map):
    sched = EpsilonSchedule.constant(0.05)
    z = Point2(0.63, 0.19)
    a = estimate_budget(henon_map, z, sched, kmax=3, n=400, seed=42)
    b = estimate_budget(henon_map, z, sched, kmax=3, n=400, seed=42)
    assert a.samples[3] == b.samples[3]
    assert a.accepted_counts == b.accepted_counts
    c = estimate_budget(henon_map, z, sched, kmax=3, n=400, seed=43)
    assert a.samples[3] != c.samples[3]


def test_sample_nesting(linear_map, henon_map):
    sched = EpsilonSchedule.constant(0.1)
    for m, z in ((linear_map, Point2(0, 0)), (henon_map, Point2(0.63, 0.19))):
        b = estimate_budget(m, z, sched, kmax=5, n=600, seed=5)
        for k in range(1, 5):
            assert set(b.samples[k + 1]) <= set(b.samples[k])
            assert b.accepted_counts[k] == len(b.samples[k])


def test_linear_acceptance_region_thins(linear_map):
    # exact order-k region for the linear map pinches in y like lu^-(k-1)
    sched = EpsilonSchedule.constant(0.1)
    k = 5
    b = estimate_budget(linear_map, Point2(0, 0), sched, kmax=k, n=4000, seed=11)
    ymax = max(abs(p.y) for p in b.samples[k])
    cap = 0.1 * 2.0 ** -(k - 1)
    assert ymax <= cap
    assert ymax >= 0.8 * cap  # the sample actually fills the thin box


def test_underflowing_radius_needs_infinite_gamma(linear_map):
    # eps_2 = 0.1 * (1e-300)^2 underflows to 0: no finite Gamma fits a zero-radius tube
    sched = EpsilonSchedule(0.1, 1e-300)
    assert sched.radius(2) == 0.0
    b = estimate_budget(linear_map, Point2(0, 0), sched, kmax=4, n=20, seed=1)
    dstar = check_condition_double_star(b, sched)
    assert dstar.gamma_required == math.inf
    assert dstar.verdict == INFEASIBLE


def test_tube_membership_helpers(linear_map):
    sched = EpsilonSchedule.constant(0.1)
    ref = reference_orbit(linear_map, Point2(0, 0), 10)
    assert first_tube_exit(linear_map, ref, Point2(0.05, 0.001), sched, 3) is None
    assert first_tube_exit(linear_map, ref, Point2(0.05, 0.09), sched, 3) is not None
    assert first_tube_exit(linear_map, ref, Point2(0.2, 0.0), sched, 10) == 0
    assert first_tube_exit(linear_map, ref, Point2(0.05, 0.0), sched, 10) is None
    # off-axis probe exits when 2^j * dy > eps
    assert first_tube_exit(linear_map, ref, Point2(0.0, 0.01), sched, 10) == 4


def test_reference_orbit_reports_the_escaping_iterate(linear_map, henon_map):
    # z itself is outside the box: the orbit fails at step 0, at z
    with pytest.raises(OrbitEscapeError) as exc:
        reference_orbit(linear_map, Point2(100.0, 100.0), 3)
    assert exc.value.step == 0
    assert exc.value.point == Point2(100.0, 100.0)
    # (2.5, 0) maps to (-7.75, 0.75), outside the box: step 1
    with pytest.raises(OrbitEscapeError) as exc:
        reference_orbit(henon_map, Point2(2.5, 0.0), 3)
    assert exc.value.step == 1
    assert exc.value.point == Point2(1.0 - 1.4 * 6.25, 0.75)


def test_budget_linear_closed_forms(linear_map):
    sched = EpsilonSchedule.constant(0.1)
    b = estimate_budget(linear_map, Point2(0, 0), sched, kmax=12, n=400, seed=2)
    for k in range(13):
        assert b.p[k] == 2.0 and b.q[k] == 2.0 and b.pt[k] == 0.0
        assert b.delta[k] == 0.0
    for k in range(1, 13):
        assert b.gamma[k] == 4.0 ** -k          # exact: derivative constant in space
        assert b.gamma_star[k] == 2.0 ** -k
        assert b.fmax[k] == 2.0 ** k
    assert b.k0 == 2
    assert b.xi[1] == pytest.approx(1.0 / 3.0, rel=1e-15)
    # gamma_tilde converges to (11/3) 2^-k as the truncation recedes
    b40 = estimate_budget(linear_map, Point2(0, 0), sched, kmax=30, n=50, seed=2)
    for k in (2, 5, 8):
        assert b40.gamma_tilde[k] == pytest.approx((11.0 / 3.0) * 2.0 ** -k, rel=1e-10)


def test_k0_definition(linear_map):
    sched = EpsilonSchedule.constant(0.1)
    b = estimate_budget(linear_map, Point2(0, 0), sched, kmax=8, n=100, seed=1)
    assert b.k0 == 2
    # p_k q_k gamma_{k+1} < 1/2 for all computed k >= k0 - 1, fails at k0 - 2
    for k in range(b.k0 - 1, 8):
        assert b.terms[k] < 0.5
    assert b.terms[b.k0 - 2] >= 0.5


def test_xi_consistency(henon_map):
    sched = EpsilonSchedule.constant(0.05)
    b = estimate_budget(henon_map, Point2(0.6313544770895252, 0.18940634312685756), sched, kmax=8, n=300, seed=6)
    for k in range(8):
        t = b.p[k] * b.q[k] * b.gamma[k + 1]
        if t < 1.0:
            assert b.xi[k] == t / (1.0 - t)
        else:
            assert b.xi[k] == math.inf


def test_condition_star_linear(linear_map):
    sched = EpsilonSchedule.constant(0.1)
    b = estimate_budget(linear_map, Point2(0, 0), sched, kmax=10, n=100, seed=3)
    rep = check_condition_star(b)
    assert rep.verdict == SUMMABLE_HEURISTIC
    assert rep.tail_ratio == pytest.approx(0.25, rel=1e-9)
    # terms are p q gamma = 4 * 4^-(k+1), the other three vanish
    for i, term in enumerate(rep.terms, start=1):
        assert term == pytest.approx(4.0 ** -i, rel=1e-12)


def test_condition_star_rotation_inconclusive():
    m = rotationlike_map()
    sched = EpsilonSchedule.constant(0.1)
    b = estimate_budget(m, Point2(0, 0), sched, kmax=8, n=100, seed=4)
    assert np.allclose(b.gamma[1:], 1.0, rtol=0, atol=1e-12)
    rep = check_condition_star(b)
    assert rep.verdict == INCONCLUSIVE


def test_condition_star_too_few_terms(linear_map):
    sched = EpsilonSchedule.constant(0.1)
    b = estimate_budget(linear_map, Point2(0, 0), sched, kmax=3, n=50, seed=5)
    rep = check_condition_star(b)
    assert rep.verdict == INCONCLUSIVE
    assert rep.tail_ratio is None


def test_double_star_linear_constant(linear_map):
    eta = 0.1
    sched = EpsilonSchedule.constant(eta)
    b = estimate_budget(linear_map, Point2(0, 0), sched, kmax=14, n=200, seed=6)
    rep = check_condition_double_star(b, sched)
    assert rep.gamma_required <= (23.0 / 3.0) / eta
    assert (rep.argmax_j, rep.argmax_k) == (b.k0, b.k0)
    # at the argmax the truncated closed form is gamma_tilde_2 + 4 * 2^2 * 4^-2
    expected = (b.gamma_tilde[2] + 16.0 * b.terms[2]) / eta
    assert rep.gamma_required == pytest.approx(expected, rel=1e-12)
    assert rep.verdict == "FEASIBLE"


def test_double_star_decaying_schedule_infeasible(linear_map):
    sched = EpsilonSchedule(0.1, 0.25)
    b = estimate_budget(linear_map, Point2(0, 0), sched, kmax=40, n=40, seed=7)
    rep = check_condition_double_star(b, sched)
    # the ratio grows like 2^j: the bottom of the dyadic ladder cannot satisfy it
    assert rep.gamma_required >= (11.0 / 3.0) * 2.0 ** 30 / 0.1
    assert rep.verdict == INFEASIBLE


def test_double_star_zero_budget(linear_map):
    sched = EpsilonSchedule.constant(0.1)
    b = estimate_budget(linear_map, Point2(0, 0), sched, kmax=8, n=50, seed=8)
    b.gamma_tilde[:] = 0.0
    b.fmax[:] = 0.0
    rep = check_condition_double_star(b, sched)
    assert rep.gamma_required == 0.0


@settings(max_examples=30, deadline=None)
@given(
    ls=st.floats(min_value=0.15, max_value=0.85),
    lu=st.floats(min_value=1.3, max_value=3.5),
)
def test_budget_closed_forms_any_linear_saddle(ls, lu):
    # for every diagonal saddle the budget sequences have closed forms
    m = make_map("linear", lambda_s=ls, lambda_u=lu)
    sched = EpsilonSchedule.constant(0.05)
    b = estimate_budget(m, Point2(0, 0), sched, kmax=6, n=60, seed=17)
    for k in range(7):
        assert b.p[k] == pytest.approx(lu, rel=4e-16)  # sqrt(fl(lu^2)) is 1 ulp off
        assert b.q[k] == pytest.approx(1.0 / ls, rel=4e-16)
        assert b.delta[k] == 0.0
    for k in range(1, 7):
        assert b.gamma[k] == pytest.approx((ls / lu) ** k, rel=1e-12)
        assert b.gamma_star[k] == pytest.approx(ls ** k, rel=1e-12)
        assert b.fmax[k] == pytest.approx(lu ** k, rel=1e-12)
    # k0 from the closed-form terms (lu/ls) * (ls/lu)^(k+1)
    terms = [(lu / ls) * (ls / lu) ** (k + 1) for k in range(6)]
    bad = [k for k, t in enumerate(terms) if t >= 0.5]
    expected_k0 = (max(bad) + 2) if bad else 1
    if expected_k0 <= 5:
        assert b.k0 == expected_k0


def test_negative_stable_eigenvalue_linear():
    # orientation-reversing contraction: directions and budget still work
    m = make_map("linear", lambda_s=-0.5, lambda_u=2.0)
    sched = EpsilonSchedule.constant(0.1)
    b = estimate_budget(m, Point2(0, 0), sched, kmax=8, n=100, seed=19)
    for k in range(1, 9):
        assert b.gamma[k] == pytest.approx(4.0 ** -k, rel=1e-12)
    from stableleaf import build_orbit_cocycle, contracted_direction

    c = build_orbit_cocycle(m, Point2(0.1, 0.001), 6)
    for k in range(1, 7):
        assert contracted_direction(c, k).theta == 0.0
