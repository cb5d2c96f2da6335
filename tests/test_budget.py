import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stableleaf import (
    EpsilonSchedule,
    Point2,
    SplitRng,
    build_orbit_cocycle,
    check_condition_double_star,
    check_condition_star,
    estimate_budget,
    make_map,
)
import stableleaf.budget as budget_mod
import stableleaf.cocycle as cocycle_mod
from stableleaf.budget import INCONCLUSIVE, INFEASIBLE, SUMMABLE_HEURISTIC, first_tube_exit, tube_exits
from stableleaf.cocycle import norm2
from stableleaf.errors import BadParamsError, OrbitEscapeError
from stableleaf.maps import MapModel

from conftest import ref_first_tube_exit, reference_orbit
from test_budget_reference import POOL_BLOCKS, array_case


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


def test_budget_refuses_a_negative_n(linear_map):
    for n in (-1, -5):
        with pytest.raises(BadParamsError, match=re.escape(f"n must be >= 0, got {n}") + "$"):
            estimate_budget(linear_map, Point2(0, 0), EpsilonSchedule.constant(0.1), kmax=4, n=n, seed=1)


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
    assert np.array_equal(a.samples[3], b.samples[3])
    assert a.accepted_counts == b.accepted_counts
    c = estimate_budget(henon_map, z, sched, kmax=3, n=400, seed=43)
    assert not np.array_equal(a.samples[3], c.samples[3])


def budget_wide(seed):
    """The budget of the benchmark's budget-wide op: 20,000 draws in 5 blocks, kmax 14."""
    m = make_map("perturbed", lambda_s=0.5, lambda_u=2.0, c=0.05)
    return estimate_budget(m, Point2(0.0, 0.0), EpsilonSchedule.constant(0.05), 14, n=20000, seed=seed)


@pytest.mark.parametrize("seed", [2, 3])
def test_wide_budget_pools_its_deep_orders(seed, monkeypatch):
    # a block at a time, every order cost 5 blocks x 14 orders of array passes (72 and 75
    # _point_data calls); pooled past order 4, about 35. The centre's build makes one.
    calls = []
    real = cocycle_mod._point_data
    counting = lambda *a: calls.append(len(a[1])) or real(*a)
    for mod in (budget_mod, cocycle_mod):
        monkeypatch.setattr(mod, "_point_data", counting)
    b = budget_wide(seed)
    assert b.accepted_counts[b.kmax] > 0
    assert len(calls) <= 40


def test_wide_budget_memory_stays_bounded():
    # the pool forms only when few draws are left, so the sweep never holds the state of
    # all 20,000 draws at once (about 2.9 MB peak; 2.25 MB a block at a time)
    budget_wide(2)  # imports and caches outside the measurement
    tracemalloc.start()
    try:
        budget_wide(2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 ** 20


@pytest.mark.parametrize("name, block", [pytest.param(name, block, id=f"{name}-{block}") for name, block in POOL_BLOCKS])
def test_sweep_order_makes_one_product_and_one_norm_call(name, block, monkeypatch):
    # an order pass extends the lane products with one mul_lanes call and reads E_k, F_k and
    # every tail norm from one singular_values_lanes call, in the block and the pooled phase
    monkeypatch.setattr(budget_mod, "SAMPLE_BLOCK", block)
    calls = []
    for fn in ("mul_lanes", "singular_values_lanes"):
        real = getattr(budget_mod, fn)
        monkeypatch.setattr(budget_mod, fn, lambda *a, fn=fn, real=real: calls.append(fn) or real(*a))
    passes = []  # (k, pooled, the calls the pass made)
    real_pass = budget_mod._sweep_order

    def counted(m, ref, sched, k, s, pq0=None):
        start = len(calls)
        out = real_pass(m, ref, sched, k, s, pq0)
        passes.append((k, pq0 is None, sorted(calls[start:])))
        return out

    monkeypatch.setattr(budget_mod, "_sweep_order", counted)
    m, z, sched, kmax, n, seed = array_case(name)
    estimate_budget(m, z, sched, kmax, n=n, seed=seed)
    assert all(made == ["mul_lanes", "singular_values_lanes"] for _, _, made in passes)
    assert len(calls) == 2 * len(passes)
    # the block phase passes P_0 and Q_0 along at every order, the pooled phase never
    block_ks = {k for k, pooled, _ in passes if not pooled}
    pooled_ks = {k for k, pooled, _ in passes if pooled}
    deep = max(block_ks)
    assert block_ks == set(range(1, deep + 1)) and pooled_ks == set(range(deep + 1, kmax + 1))
    assert deep < kmax


def test_sample_nesting(linear_map, henon_map):
    sched = EpsilonSchedule.constant(0.1)
    for m, z in ((linear_map, Point2(0, 0)), (henon_map, Point2(0.63, 0.19))):
        b = estimate_budget(m, z, sched, kmax=5, n=600, seed=5)
        for k in range(1, 5):
            assert set(map(tuple, b.samples[k + 1].tolist())) <= set(map(tuple, b.samples[k].tolist()))
            assert b.accepted_counts[k] == len(b.samples[k])


def test_linear_acceptance_region_thins(linear_map):
    # exact order-k region for the linear map pinches in y like lu^-(k-1)
    sched = EpsilonSchedule.constant(0.1)
    k = 5
    b = estimate_budget(linear_map, Point2(0, 0), sched, kmax=k, n=4000, seed=11)
    ymax = float(np.max(np.abs(b.samples[k][:, 1])))
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
    # the scalar reference and the package's one orbit of z, build_orbit_cocycle,
    # report the same escape
    for build in (reference_orbit, build_orbit_cocycle):
        # z itself is outside the box: the orbit fails at step 0, at z
        with pytest.raises(OrbitEscapeError) as exc:
            build(linear_map, Point2(100.0, 100.0), 3)
        assert exc.value.step == 0
        assert exc.value.point == Point2(100.0, 100.0)
        # (2.5, 0) maps to (-7.75, 0.75), outside the box: step 1
        with pytest.raises(OrbitEscapeError) as exc:
            build(henon_map, Point2(2.5, 0.0), 3)
        assert exc.value.step == 1
        assert exc.value.point == Point2(1.0 - 1.4 * 6.25, 0.75)
    # on an orbit that stays in the box the two agree bit for bit
    z = Point2(0.6313544770895252, 0.18940634312685756)
    assert build_orbit_cocycle(henon_map, z, 12).orbit == reference_orbit(henon_map, z, 12)


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


def test_log_slope_matches_polyfit():
    # random log-linear sequences with noise, the shapes the two fits read:
    # 3 to 12 points at consecutive or gapped abscissae
    rng = np.random.default_rng(11)
    for _ in range(500):
        n = int(rng.integers(3, 13))
        xs = np.arange(n, dtype=float)
        if rng.random() < 0.5:
            xs = np.sort(rng.choice(np.arange(30, dtype=float), n, replace=False))
        slope = rng.choice([-1.0, 1.0]) * rng.uniform(0.05, 3.0)
        vals = np.exp(rng.uniform(-30.0, 30.0) + slope * xs + rng.normal(0.0, 1e-3, n))
        assert budget_mod.log_slope(xs, vals) == pytest.approx(np.polyfit(xs, np.log(vals), 1)[0], rel=1e-12, abs=0.0)


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


def _norm_split_pair():
    """A pair (dx, dy) on which norm2 and math.hypot round to different floats."""
    rng = SplitRng(31)
    dx, dy = rng.points_in_box(0.25, 0.25, 0.25, 20000)
    for a, b in zip(dx.tolist(), dy.tolist()):
        if norm2(a, b) != math.hypot(a, b):
            return a, b
    raise AssertionError("no pair found")


def test_array_tube_test_decides_at_the_norm2_boundary(linear_map):
    # iterate 1 of (2 dx, dy / 2) under (x/2, 2y) is (dx, dy), exactly; radius(1) = decay
    ref = reference_orbit(linear_map, Point2(0, 0), 1)
    # a pair norm2 and math.hypot split, pairs norm2 scales up, and a subnormal component
    for dx, dy in (_norm_split_pair(), (3e-160, -4e-160), (1e-300, 3e-301), (0.0, 6e-155), (-2.5e-310, 1e-160)):
        x, y = 2.0 * dx, 0.5 * dy
        d = norm2(dx, dy)
        for r in (math.nextafter(d, 0.0), d, math.nextafter(d, 1.0)):
            sched = EpsilonSchedule(1.0, r)
            scalar = ref_first_tube_exit(linear_map, ref, Point2(x, y), sched, 1)
            arr = tube_exits(linear_map, ref, np.array([x]), np.array([y]), sched, 1)
            assert scalar == (1 if d > r else None)
            assert first_tube_exit(linear_map, ref, Point2(x, y), sched, 1) == scalar
            assert arr.tolist() == [-1 if scalar is None else scalar]


def test_array_tube_test_matches_scalar(henon_map):
    sched = EpsilonSchedule.constant(0.05)
    z = Point2(0.6313544770895048, 0.18940634312685142)
    ref = reference_orbit(henon_map, z, 8)
    xs, ys = SplitRng(5).points_in_box(z.x, z.y, 0.06, 400)  # some draws fail the box at j = 0
    xs[:3] = (np.nan, np.inf, 10.0)
    want = [ref_first_tube_exit(henon_map, ref, Point2(x, y), sched, 8) for x, y in zip(xs.tolist(), ys.tolist())]
    got = tube_exits(henon_map, ref, xs, ys, sched, 8).tolist()
    assert got == [-1 if w is None else w for w in want]
    assert {0, 1, -1} <= set(got) and len(set(got)) > 4
