import dataclasses
import math

import numpy as np
import pytest

from stableleaf import (
    EpsilonSchedule,
    Point2,
    eigen_split,
    first_tube_exit,
    make_map,
    regular_growth_check,
    verify_fixed_point_theorem,
)
from stableleaf.budget import reference_orbit
from stableleaf.errors import BadParamsError, NotHyperbolicError, SpectralSlackError
from stableleaf.maps import MapModel

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


def test_regular_growth_counts_skipped_points():
    # in a box of half-width 0.15 the first image 2y of a draw may leave it:
    # such draws have no valid cocycle level and are skipped
    m = make_map("linear", lambda_s=0.5, lambda_u=2.0, box=(-0.15, 0.15, -0.15, 0.15))
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
    # conclusion (4) surrogate: a point pushed off the limit leaf along its
    # normal survives every tube test only while it hugs the leaf
    fp = eigen_split(perturbed_map, Point2(0, 0))
    rep = verify_fixed_point_theorem(perturbed_map, fp, eta=0.05, kmax=12, seed=24)
    leaf = rep.convergence.limit
    spacing = leaf.t[1] - leaf.t[0]
    sched = EpsilonSchedule.constant(0.05)
    ref = reference_orbit(perturbed_map, fp.p, 12)
    survivors = exits = 0
    for idx in range(0, len(leaf.t), 16):
        nx, ny = -math.sin(leaf.thetas[idx]), math.cos(leaf.thetas[idx])
        for offset in 10.0 ** np.arange(-9, -1):
            for side in (1.0, -1.0):
                p = Point2(leaf.xs[idx] + side * offset * nx, leaf.ys[idx] + side * offset * ny)
                if first_tube_exit(perturbed_map, ref, p, sched, 12) is None:
                    survivors += 1
                    assert np.min(np.hypot(leaf.xs - p.x, leaf.ys - p.y)) <= 2.0 * spacing
                else:
                    exits += 1
    assert survivors > 0 and exits > 0


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
