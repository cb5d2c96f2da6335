import dataclasses
import hashlib
import math
import re

import numpy as np
import pytest

from stableleaf import (
    EpsilonSchedule,
    Point2,
    build_orbit_cocycle,
    check_condition_star,
    eigen_split,
    estimate_budget,
    make_map,
    regular_growth_check,
    verify_fixed_point_theorem,
)
from stableleaf import cocycle, directions, leaf
from stableleaf.errors import BadParamsError, NoFixedPointError, NotHyperbolicError, SpectralSlackError
from stableleaf.fixedpoint import _minidistortion_ok
from stableleaf.maps import MapModel

from conftest import ref_first_tube_exit, reference_orbit
from golden import assert_golden, report_words
from test_budget import rotationlike_map


def test_eigen_split_linear(linear_map):
    fp = eigen_split(linear_map, Point2(0.3, -0.2))
    assert fp.p == pytest.approx((0.0, 0.0), abs=1e-12)
    assert fp.lambda_s == pytest.approx(0.5, rel=1e-12)
    assert fp.lambda_u == pytest.approx(2.0, rel=1e-12)
    assert fp.Es == pytest.approx((1.0, 0.0), abs=1e-12)
    assert fp.Eu == pytest.approx((0.0, 1.0), abs=1e-12)
    assert fp.delta == pytest.approx(0.05 * (2.0 - 1.0))


def test_eigen_split_henon(henon_map):
    fp = eigen_split(henon_map, Point2(0.6, 0.2))
    # closed form: x = (-(1-b) + sqrt((1-b)^2 + 4a)) / (2a), y = b x
    a, b = 1.4, 0.3
    x = (-(1 - b) + math.sqrt((1 - b) ** 2 + 4 * a)) / (2 * a)
    assert fp.p == pytest.approx((x, b * x), abs=1e-10)
    # eigenvalues from lambda^2 + 2 a x lambda - b = 0
    tr = -2 * a * x
    ls = (tr + math.sqrt(tr * tr + 4 * b)) / 2
    lu = (tr - math.sqrt(tr * tr + 4 * b)) / 2
    assert fp.lambda_s == pytest.approx(ls, rel=1e-10)
    assert fp.lambda_u == pytest.approx(lu, rel=1e-10)
    assert fp.lambda_s == pytest.approx(0.1559, abs=1e-4)
    assert fp.lambda_u == pytest.approx(-1.9238, abs=1e-4)
    # residual invariants
    ix, iy = henon_map.eval_xy(*fp.p)
    assert math.hypot(ix - fp.p.x, iy - fp.p.y) <= 1e-10
    j11, j12, j21, j22 = henon_map.jac_xy(*fp.p)
    rx = j11 * fp.Es[0] + j12 * fp.Es[1] - fp.lambda_s * fp.Es[0]
    ry = j21 * fp.Es[0] + j22 * fp.Es[1] - fp.lambda_s * fp.Es[1]
    assert math.hypot(rx, ry) <= 1e-10


def test_eigen_split_rejects_rotation():
    with pytest.raises(NotHyperbolicError):
        eigen_split(rotationlike_map(), Point2(0.01, 0.01))


def test_eigen_split_rejects_non_saddle():
    shrink = MapModel(
        name="shrink",
        params={},
        raw_eval=lambda x, y: (0.5 * x, 0.25 * y),
        raw_jac=lambda x, y: (0.5, 0.0, 0.0, 0.25),
        raw_hess=lambda x, y: (0.0,) * 6,
        raw_det_grad=lambda x, y: (0.0, 0.0),
    )
    with pytest.raises(NotHyperbolicError):
        eigen_split(shrink, Point2(0.1, 0.1))


def test_eigen_split_rejects_a_real_eigenvalue_at_the_unit_circle():
    # |lambda_u| - 1 = 1e-10 is inside UNIT_CIRCLE_TOL: without that refusal (0.5, 1 + 1e-10) passes as a saddle
    m = make_map("linear", lambda_s=0.5, lambda_u=1.0 + 1e-10)
    with pytest.raises(NotHyperbolicError, match="within 1e-09 of the unit circle"):
        eigen_split(m, Point2(0.01, 0.01))


def test_eigen_split_rejects_a_complex_pair_off_the_unit_circle():
    # 0.5 times a rotation: a focus whose eigenvalues have modulus 0.5, no stable line
    c, s = 0.5 * math.cos(0.4), 0.5 * math.sin(0.4)
    focus = MapModel(
        name="focus",
        params={},
        raw_eval=lambda x, y: (c * x - s * y, s * x + c * y),
        raw_jac=lambda x, y: (c, -s, s, c),
        raw_hess=lambda x, y: (0.0,) * 6,
        raw_det_grad=lambda x, y: (0.0, 0.0),
    )
    with pytest.raises(NotHyperbolicError, match="complex eigenvalue pair"):
        eigen_split(focus, Point2(0.01, 0.01))


def _slow_drift():
    # (x + sign(x) |x|^(1/2000), y/2): the residual |x|^(1/2000) of x is above
    # 0.7 wherever |x| >= 1e-300, so damped Newton steps lower it without end
    r = 1.0 / 2000.0
    return MapModel(
        name="slow-drift", params={},
        raw_eval=lambda x, y: (x + math.copysign(abs(x) ** r, x), 0.5 * y),
        raw_jac=lambda x, y: (1.0 + r * abs(x) ** (r - 1.0), 0.0, 0.0, 0.5),
    )


@pytest.mark.parametrize("m, guess, message", [
    # Dphi - I = diag(0, 1) everywhere, and (0.5, 0.1) maps to (0.5, 0.2)
    (make_map("linear", lambda_s=1.0, lambda_u=2.0), (0.5, 0.1), "Newton matrix Dphi - I singular"),
    # x^2 - 0.7 x + 1 = 0 has no real root: this Henon map has no fixed point,
    # and no step damped down to 1/1024 lowers the residual
    (make_map("henon", a=-1.0, b=0.3), (-1.0, -0.5), "Newton stalled at residual 8.776e-01 near "),
    (_slow_drift(), (0.5, 0.0), "no fixed point to residual 1e-12 near (0.5, 0.0)"),
], ids=["singular-newton-matrix", "stalled", "residual-above-tolerance"])
def test_eigen_split_without_a_fixed_point(m, guess, message):
    with pytest.raises(NoFixedPointError, match=re.escape(message)):
        eigen_split(m, Point2(*guess))


def test_regular_growth_linear_delta_zero(linear_map):
    fp = eigen_split(linear_map, Point2(0, 0))
    fp0 = dataclasses.replace(fp, delta=0.0)
    rep = regular_growth_check(linear_map, fp0, EpsilonSchedule.constant(0.1), kmax=8, n=200, seed=1)
    # the eigenvalue envelope is tight with K = 1
    assert rep.K_upper_F == 1.0
    assert rep.K_lower_E == 1.0
    # sum_{j<k} 2^j = 2^k - 1 <= 1 * 2^k
    assert rep.K_sum_F == 1.0
    assert rep.K_tail_product == 1.0
    # sum_{i>=j} 4^-i <= (4/3) 4^-j drives the overall fit
    assert rep.K_fit == pytest.approx(4.0 / 3.0, rel=1e-3)
    assert rep.raw_ok


def test_regular_growth_perturbed_passes(perturbed_map):
    fp = eigen_split(perturbed_map, Point2(0.01, 0.0))
    fp2 = dataclasses.replace(fp, delta=0.02)
    rep = regular_growth_check(perturbed_map, fp2, EpsilonSchedule.constant(0.05), kmax=10, n=500, seed=2)
    assert rep.raw_ok
    assert 1.0 <= rep.K_fit <= 10.0


def test_regular_growth_slack_too_small(perturbed_map):
    fp = eigen_split(perturbed_map, Point2(0.0, 0.0))
    fpx = dataclasses.replace(fp, delta=0.001)
    with pytest.raises(SpectralSlackError):
        regular_growth_check(perturbed_map, fpx, EpsilonSchedule.constant(1.0), kmax=10, n=800, seed=3)


def test_regular_growth_envelope_overflow_is_infinite():
    # (|lu| + delta)^j passes the float range at j = 154 while F_j = 100^j is
    # finite: the envelope power is +inf there, F_j over it is 0, and the fit
    # fails on K_lower_E = ((|ls| - delta) / |ls|)^154 instead of overflowing
    m = make_map("linear", lambda_s=0.01, lambda_u=100.0)
    fp = dataclasses.replace(eigen_split(m, Point2(0, 0)), delta=0.98)
    with pytest.raises(SpectralSlackError, match=r"fitted K=9\.180e\+305"):
        regular_growth_check(m, fp, EpsilonSchedule.constant(0.1), kmax=154, n=20, seed=1)


def test_regular_growth_counts_skipped_points():
    # in a box of half-width 0.15 the first image 2y of a draw may leave it:
    # such draws have no valid cocycle level and are skipped
    m = dataclasses.replace(make_map("linear", lambda_s=0.5, lambda_u=2.0), box=(-0.15, 0.15, -0.15, 0.15))
    fp = dataclasses.replace(eigen_split(m, Point2(0, 0)), delta=0.0)
    rep = regular_growth_check(m, fp, EpsilonSchedule.constant(0.1), kmax=8, n=200, seed=1)
    assert rep.points_skipped > 0
    assert rep.points_used > 0
    assert rep.points_skipped == 200 - (rep.points_used - 1)
    assert rep.K_upper_F == 1.0


def test_regular_growth_propagates_programming_errors(linear_map):
    # a TypeError from the map's Jacobian is a bug, not a dropped draw; the
    # fixed point (0, 0) is an orbit of its own, so only the draws meet it
    def raw_jac(x, y):
        if (x, y) != (0.0, 0.0):
            raise TypeError("bad Jacobian")
        return (0.5, 0.0, 0.0, 2.0)

    m = dataclasses.replace(linear_map, raw_jac=raw_jac)
    fp = dataclasses.replace(eigen_split(m, Point2(0, 0)), delta=0.0)
    with pytest.raises(TypeError, match="bad Jacobian"):
        regular_growth_check(m, fp, EpsilonSchedule.constant(0.1), kmax=6, n=50, seed=1)


def test_regular_growth_requires_constant_schedule(linear_map):
    fp = eigen_split(linear_map, Point2(0, 0))
    with pytest.raises(BadParamsError):
        regular_growth_check(linear_map, fp, EpsilonSchedule(0.1, 0.5), kmax=6, n=50, seed=1)


def test_regular_growth_refuses_a_negative_n(linear_map):
    fp = eigen_split(linear_map, Point2(0, 0))
    for n in (-1, -5):
        with pytest.raises(BadParamsError, match=re.escape(f"n must be >= 0, got {n}") + "$"):
            regular_growth_check(linear_map, fp, EpsilonSchedule.constant(0.1), kmax=6, n=n, seed=1)


def test_theorem_linear_exact(linear_map):
    fp = eigen_split(linear_map, Point2(0.2, 0.1))
    rep = verify_fixed_point_theorem(linear_map, fp, eta=0.1, kmax=12, seed=21, n=500)
    assert rep.tangency_error == 0.0
    assert rep.length_pos == pytest.approx(rep.eps, rel=1e-12)
    assert rep.length_neg == pytest.approx(rep.eps, rel=1e-12)
    assert rep.full_length
    assert rep.fitted_rate == pytest.approx(math.log(0.5), abs=1e-12)
    assert rep.converged
    assert rep.minidistortion_ok and rep.k0_ok
    assert rep.uniqueness.on_leaf_exits == 0
    assert math.isfinite(rep.gamma_required)  # Gamma exists for the hyperbolic saddle


def test_theorem_perturbed(perturbed_map):
    fp = eigen_split(perturbed_map, Point2(0.01, -0.02))
    rep = verify_fixed_point_theorem(perturbed_map, fp, eta=0.05, kmax=14, seed=22)
    assert rep.tangency_error <= 1e-4
    assert rep.rate_deviation <= 0.05
    assert rep.full_length
    assert rep.converged


def test_theorem_henon(henon_map):
    fp = eigen_split(henon_map, Point2(0.6, 0.2))
    rep = verify_fixed_point_theorem(henon_map, fp, eta=0.05, kmax=12, seed=23)
    assert rep.tangency_error <= 1e-4
    assert rep.rate_deviation <= 0.1
    assert rep.full_length
    assert rep.converged


def test_theorem_henon_field_calls(henon_map, monkeypatch):
    # the benchmark's theorem-henon op at seed 2: 11 Cauchy leaves of 2 RK4
    # steps a side at eps/2 (4 field calls a step) and the order-12 partner
    # leaf of 8 steps a side at h = eps/8, all from the angles at z in the
    # budget's cocycle, with no integrate_leaf call, then the limit leaf at
    # half the partner's step, the only integrate_leaf call, which takes one
    # more call at z: 11 * 16 + 64 + 129 = 369 calls
    calls, leaves = [], []
    theta, integrate = leaf.contracted_theta_fast, leaf.integrate_leaf

    def counted(*args):
        calls.append(args)
        return theta(*args)

    def recorded(*args, **kw):
        leaves.append(args)
        return integrate(*args, **kw)

    monkeypatch.setattr(leaf, "contracted_theta_fast", counted)
    monkeypatch.setattr(leaf, "integrate_leaf", recorded)
    fp = eigen_split(henon_map, Point2(0.6, 0.2))
    r = verify_fixed_point_theorem(henon_map, fp, eta=0.05, kmax=12, seed=2, n=2000)
    assert r.converged
    assert len(calls) == 369 and len(leaves) == 1


def test_theorem_henon_walks_z_orbit_once(henon_map, monkeypatch):
    # the benchmark's theorem-henon op at seed 2: build_orbit_cocycle sweeps z's
    # orbit once for the budget, and every Cauchy leaf and the partner leaf take
    # theta0 from its products; only the limit leaf's integrate_leaf walks z's
    # orbit again, with one orbit_product
    fp = eigen_split(henon_map, Point2(0.6, 0.2))
    walks = {"orbit_sweep": 0, "orbit_product": 0}

    def at_z(name, fn):
        def counted(m, x, y, k):
            walks[name] += (x, y) == tuple(fp.p)
            return fn(m, x, y, k)
        return counted

    for name in walks:
        counted = at_z(name, getattr(cocycle, name))
        for mod in (cocycle, directions):
            monkeypatch.setattr(mod, name, counted)
    r = verify_fixed_point_theorem(henon_map, fp, eta=0.05, kmax=12, seed=2, n=2000)
    assert r.converged
    assert walks == {"orbit_sweep": 1, "orbit_product": 1}


def test_theorem_henon_tube_passes(henon_map, monkeypatch):
    # the benchmark's theorem-henon op at seed 2: one tube_exits pass for the
    # pre-check of each rung choose_epsilon tests (0.05 and 0.025 fail it,
    # 0.0125 passes), one for the tube checks of every Cauchy order, one for
    # the uniqueness ladder and the on-leaf points together
    calls = []
    tube_exits = leaf.tube_exits

    def counted(*args):
        calls.append(args[-1])
        return tube_exits(*args)

    monkeypatch.setattr(leaf, "tube_exits", counted)
    fp = eigen_split(henon_map, Point2(0.6, 0.2))
    r = verify_fixed_point_theorem(henon_map, fp, eta=0.05, kmax=12, seed=2, n=2000)
    assert r.converged
    assert r.eps == 0.0125
    assert calls == [1, 1, 1, 11, 12]  # jmax: k0 - 1 for the rungs, kmax - 1 for the Cauchy orders, kmax for the ladder


def test_minidistortion_fails_where_a_ratio_leaves_its_band(linear_map):
    # at the (0.5, 2) saddle P_k = Q_k = 2: E and F ratios must lie in [1/2, 2], H ratios in [1/4, 4]
    c = build_orbit_cocycle(linear_map, Point2(0.0, 0.0), 4)
    assert _minidistortion_ok(c)
    E, H = c.E.copy(), c.H.copy()
    E[2] = 3.0 * E[1]
    H[2] = 5.0 * H[1]
    assert not _minidistortion_ok(dataclasses.replace(c, E=E))
    assert not _minidistortion_ok(dataclasses.replace(c, H=H))


# sha256 of report_words of the theorem-henon TheoremReport (eta 0.05, kmax 12,
# n 2000) at seeds 1-3: every field, the leaf, contraction and strip arrays included;
# both rate fits are sums in Python floats, so no LAPACK result enters it. Only
# d_k and integration_error moved when the Cauchy leaves went to twice the limit
# leaf's step, and only d_k when they went to eps/2 beside a partner leaf at h;
# the Cauchy leaves' one node pass moved no field and added cauchy_step_error.
# tests/golden/theorem_henon_seed*.txt hold the words themselves
THEOREM_HENON_REPORT_SHA256 = {
    1: "f9a4b01c412f596af93e3adec4f403722bdd112906c447b7dc4333e1fd853e7e",
    2: "c7b2eb3fda69cd8f71893c6673fb4950d02d29939dec60c0c8f56458fda237d7",
    3: "e547f450e18531cb9dce077b97609f10b168e6ea79f520447cf647e72c9f8a6f",
}


@pytest.mark.parametrize("seed", sorted(THEOREM_HENON_REPORT_SHA256))
def test_theorem_henon_report_is_pinned(henon_map, seed):
    fp = eigen_split(henon_map, Point2(0.6, 0.2))
    r = verify_fixed_point_theorem(henon_map, fp, eta=0.05, kmax=12, seed=seed, n=2000)
    digest = hashlib.sha256("\n".join(report_words(r)).encode()).hexdigest()
    assert digest == THEOREM_HENON_REPORT_SHA256[seed]


@pytest.mark.parametrize("seed", sorted(THEOREM_HENON_REPORT_SHA256))
def test_theorem_henon_report_matches_its_golden_words(henon_map, seed):
    fp = eigen_split(henon_map, Point2(0.6, 0.2))
    assert_golden(f"theorem_henon_seed{seed}", verify_fixed_point_theorem(henon_map, fp, eta=0.05, kmax=12, seed=seed, n=2000))


@pytest.mark.parametrize("div", [8, 4])
def test_rate_fit_holds_at_coarse_steps(henon_map, div):
    # theorem-henon chooses eps = 0.0125 at every seed; with limit leaves at
    # eps/8 and eps/4 (partner steps h twice that) the leaf's offsets from W^s are
    # larger, and the contraction rate is read from the leaf's two ends, whose
    # ratios stay above the round-off floor longest
    fp = eigen_split(henon_map, Point2(0.6, 0.2))
    for seed in range(1, 21):
        r = verify_fixed_point_theorem(henon_map, fp, eta=0.05, kmax=12, seed=seed, n=2000, h=2 * 0.0125 / div)
        assert r.eps == 0.0125 and r.convergence.limit.h == r.eps / div
        assert r.converged and r.rate_deviation <= 0.05, (seed, r.rate_deviation)


def test_rate_fits_need_no_lapack(henon_map, monkeypatch):
    # the contraction rate and the star tail ratio are closed-form sums
    def refuse(*args, **kwargs):
        raise AssertionError("a rate fit called LAPACK")

    monkeypatch.setattr(np, "polyfit", refuse)
    monkeypatch.setattr(np.linalg, "lstsq", refuse)
    fp = eigen_split(henon_map, Point2(0.6, 0.2))
    r = verify_fixed_point_theorem(henon_map, fp, eta=0.05, kmax=12, seed=2, n=2000)
    assert r.converged and r.rate_deviation <= 0.05
    b = estimate_budget(henon_map, fp.p, EpsilonSchedule.constant(0.05), 12, n=2000, seed=2)
    assert 0.0 < check_condition_star(b).tail_ratio < 0.95


def test_theorem_weak_hyperbolicity():
    # the slow-contraction regime: H_k decays like (0.9/1.1)^k, summable but
    # far from exponentially small, so k0 arrives late and epsilon shrinks
    m = make_map("perturbed", lambda_s=0.9, lambda_u=1.1, c=0.02)
    fp = eigen_split(m, Point2(0.01, 0.01))
    rep = verify_fixed_point_theorem(m, fp, eta=0.05, kmax=20, seed=3, n=400)
    assert rep.tangency_error <= 1e-10
    assert rep.rate_deviation <= 0.02
    assert rep.full_length
    assert rep.converged
    assert rep.convergence.k0 >= 4  # hyperbolicity stabilizes late here
    assert rep.eps < 0.05 / 4  # the geometry condition forces a small leaf


def test_theorem_survivors_near_leaf(perturbed_map):
    # conclusion (4): the reported strip width w at kmax is sharp to the ladder's factor 2. Every
    # 8th leaf node offset by +-w along its normal survives all kmax tube tests; offset by 2w,
    # some node leaves a tube
    fp = eigen_split(perturbed_map, Point2(0, 0))
    rep = verify_fixed_point_theorem(perturbed_map, fp, eta=0.05, kmax=12, seed=24)
    leaf, w = rep.convergence.limit, float(rep.uniqueness.width[12])
    sched = EpsilonSchedule.constant(0.05)
    ref = reference_orbit(perturbed_map, fp.p, 12)

    def exits(off):
        return [ref_first_tube_exit(perturbed_map, ref, (leaf.xs[i] - s * off * math.sin(leaf.thetas[i]),
                                                         leaf.ys[i] + s * off * math.cos(leaf.thetas[i])), sched, 12)
                for i in range(0, len(leaf.t), 8) for s in (1.0, -1.0)]

    assert 0.0 < w < 0.05 * 2.0 ** -12
    assert exits(w) == [None] * 66
    assert any(e is not None for e in exits(2.0 * w))


def test_pipeline_stage_labels(perturbed_map):
    from stableleaf.errors import NumericalError

    fp = eigen_split(perturbed_map, Point2(0, 0))
    # an absurd sample budget at deep kmax still works through center fallback,
    # but an impossible tolerance fails in the cauchy stage with its label
    try:
        verify_fixed_point_theorem(perturbed_map, fp, eta=0.05, kmax=12, seed=1, n=50, tol=1e-300)
    except NumericalError as exc:
        assert getattr(exc, "stage", None) == "cauchy-iterate"
    else:
        pytest.fail("expected a numerical failure at an impossible tolerance")
