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
    cauchy_iterate,
    check_condition_double_star,
    choose_epsilon,
    contraction_check,
    eigen_split,
    estimate_budget,
    integrate_leaf,
    make_map,
    uniqueness_probe,
    verify_fixed_point_theorem,
)
from stableleaf.budget import LADDER_DEPTH, SAMPLE_SLACK, HyperbolicityBudget
from stableleaf.directions import _signed_gap, angle_distance, contracted_theta_fast, direction_field_derivative
from stableleaf.errors import (
    BadParamsError,
    ConformalError,
    DegenerateLeafError,
    NoFeasibleEpsilonError,
    NotConvergedError,
    NumericalError,
    OrbitEscapeError,
    SingularStepError,
    StencilEscapeError,
)
from stableleaf.maps import MapModel
import stableleaf.leaf as leaf_mod
from stableleaf.leaf import (
    DEFAULT_STEP_DIV,
    MAX_STEPS_PER_CELL,
    _leaf_field,
    budget_to_epsilon,
    rk4_streamline,
)

from conftest import reference_orbit
from test_leaf_checks_reference import leaf_distance
from test_param_oracle import SADDLES

HENON_SADDLE = Point2(0.6313544770895252, 0.18940634312685756)


def ref_rk4_streamline(fld, x0, y0, ux0, uy0, n_cells, spacing, steps_per_cell):
    """The RK4 loop before the node tangent became the next k1, verbatim: the reference."""
    h = spacing / steps_per_cell
    xs: list[float] = []
    ys: list[float] = []
    ths: list[float] = []
    x, y = x0, y0
    ux, uy = ux0, uy0
    sixth = h / 6.0
    for _ in range(n_cells):
        for _ in range(steps_per_cell):
            try:
                k1x, k1y = fld(x, y, ux, uy)
                k2x, k2y = fld(x + 0.5 * h * k1x, y + 0.5 * h * k1y, k1x, k1y)
                k3x, k3y = fld(x + 0.5 * h * k2x, y + 0.5 * h * k2y, k2x, k2y)
                k4x, k4y = fld(x + h * k3x, y + h * k3y, k3x, k3y)
            except (ConformalError, OrbitEscapeError):
                return xs, ys, ths, True
            x += sixth * (k1x + 2.0 * (k2x + k3x) + k4x)
            y += sixth * (k1y + 2.0 * (k2y + k3y) + k4y)
            ux, uy = k4x, k4y
        try:
            tx, ty = fld(x, y, ux, uy)
        except (ConformalError, OrbitEscapeError):
            return xs, ys, ths, True
        ux, uy = tx, ty
        xs.append(x)
        ys.append(y)
        ths.append(math.atan2(ty, tx))
    return xs, ys, ths, False


def ref_dense_output(fld, x0, y0, ux0, uy0, ends, n_cells, n_steps, h):
    """Dense output one grid node at a time: the reference.

    ends is a reference trace of n_steps steps of length h from (x0, y0),
    whose tangent is (ux0, uy0); each step end's tangent is the field there,
    oriented by its recorded angle. Node i of n_cells lies in step
    i * n_steps // n_cells at fraction s = (i * n_steps % n_cells) / n_cells:
    the step end where s = 0, else the cubic Hermite on the step's two ends.
    A node past the last step end of a truncated trace is left out.
    """
    xs, ys, ths, truncated = ends
    pts = [(x0, y0, ux0, uy0, math.atan2(uy0, ux0))]
    pts += [(x, y, *fld(x, y, math.cos(th), math.sin(th)), th) for x, y, th in zip(xs, ys, ths)]
    fine = ([], [], [])  # xs, ys, angles
    for i in range(1, n_cells + 1):
        j, r = divmod(i * n_steps, n_cells)
        if j + (r > 0) >= len(pts):
            break
        px, py, tx, ty, th = pts[j]
        if r > 0:
            qx, qy, sx, sy, _ = pts[j + 1]
            s = r / n_cells
            h01, h10, h11 = s * s * (3.0 - 2.0 * s), s * (1.0 - s) * (1.0 - s), s * s * (s - 1.0)
            g01, g10, g11 = 6.0 * s * (1.0 - s), (1.0 - s) * (1.0 - 3.0 * s), s * (3.0 * s - 2.0)
            dx = g01 * (qx - px) + h * (g10 * tx + g11 * sx)
            dy = g01 * (qy - py) + h * (g10 * ty + g11 * sy)
            px, py, th = (px + h01 * (qx - px) + h * (h10 * tx + h11 * sx),
                          py + h01 * (qy - py) + h * (h10 * ty + h11 * sy), math.atan2(dy, dx))
        for out, v in zip(fine, (px, py, th)):
            out.append(v)
    return fine + (truncated,)


def ref_streamline(fld, x0, y0, ux0, uy0, n_cells, spacing, steps_per_cell):
    """The reference loop's N = round(n_cells * steps_per_cell) steps, and the reference dense output."""
    n_steps = max(1, round(n_cells * steps_per_cell))
    h = spacing / steps_per_cell
    ends = ref_rk4_streamline(fld, x0, y0, ux0, uy0, n_steps, h, 1)
    return ref_dense_output(fld, x0, y0, ux0, uy0, ends, n_cells, n_steps, h)


def ref_unwrap(raw, center):
    """The unwrap of the raw angles outward from center, over numpy elements, verbatim: the reference."""
    thetas = np.empty(len(raw))
    thetas[center] = raw[center]
    for i in range(center + 1, len(raw)):
        thetas[i] = thetas[i - 1] + _signed_gap(thetas[i - 1], raw[i])
    for i in range(center - 1, -1, -1):
        thetas[i] = thetas[i + 1] + _signed_gap(thetas[i + 1], raw[i])
    return thetas


def stop_beyond(fld, x0, y0, ux, uy, s_stop):
    """fld, raising OrbitEscapeError at points more than s_stop along (ux, uy) from (x0, y0)."""
    def stopped(x, y, rux, ruy):
        if (x - x0) * ux + (y - y0) * uy > s_stop:
            raise OrbitEscapeError(0, (x, y))
        return fld(x, y, rux, ruy)

    return stopped


def bits(trace):
    xs, ys, ths, truncated = trace
    return [v.hex() for v in xs + ys + ths], truncated


SHRINK = make_map("linear", lambda_s=0.25, lambda_u=0.5)  # iterate 1 of the unit square about 0 stays in the unit disc


def synthetic_budget(k0=2, kmax=8, eps0=1.0, xi_value=0.0):
    """A budget at z = 0 on SHRINK's orbit whose tubes, of radius eps0, hold every rung's square where xi = 0."""
    n = kmax + 1
    return HyperbolicityBudget(
        kmax=kmax, n=0, seed=0, sched=EpsilonSchedule.constant(eps0),
        p=np.ones(n), q=np.ones(n), pt=np.zeros(n),
        gamma=np.ones(n), gamma_star=np.zeros(n), delta=np.zeros(n),
        fmax=np.ones(n), terms=np.zeros(kmax), xi=np.full(kmax, xi_value),
        gamma_tilde=np.zeros(n), star_terms=np.zeros(kmax),
        star_partial_sums=np.zeros(kmax - 1), k0=k0,
        cocycle=build_orbit_cocycle(SHRINK, Point2(0, 0), kmax), accepted_counts={},
    )


def test_choose_epsilon_gamma_binding():
    b = synthetic_budget(eps0=1.0)
    eps = choose_epsilon(SHRINK, b, gamma=2.0, L=0.0)
    # largest dyadic 2^-m with eps * 2 < 1 strictly
    assert eps == 0.25


def test_choose_epsilon_degenerate_constraints():
    b = synthetic_budget(eps0=1.0)
    eps = choose_epsilon(SHRINK, b, gamma=0.0, L=0.0)
    assert eps == 1.0  # ladder top: the square's corners lie on the sup-norm box of step 0


def test_choose_epsilon_infeasible():
    b = synthetic_budget()
    with pytest.raises(NoFeasibleEpsilonError):
        choose_epsilon(SHRINK, b, gamma=math.inf, L=0.0)


def test_choose_epsilon_huge_eps_l_is_infeasible():
    # eps * L = 1e300 at the top rung: exp(eps * L) would overflow
    b = synthetic_budget()
    with pytest.raises(NoFeasibleEpsilonError):
        choose_epsilon(SHRINK, b, gamma=0.0, L=1e300)


@pytest.mark.parametrize("xi_value", [math.inf, math.nan])
def test_choose_epsilon_unbounded_radius_fails_every_rung(xi_value):
    # an infinite or NaN xi makes every rung's radius infinite or NaN, which fails without a tube pass
    b = synthetic_budget(xi_value=xi_value)
    with pytest.raises(NoFeasibleEpsilonError, match="the first rung .* fails the tube pre-check"):
        choose_epsilon(SHRINK, b, gamma=0.0, L=0.0)


def test_choose_epsilon_tube_precheck_names_the_exit():
    # xi = 1 doubles each square: at eps = 1 its corner (-2, -2) leaves the step-0 box, and eps = 1/2 fits
    b = synthetic_budget(xi_value=1.0)
    assert choose_epsilon(SHRINK, b, gamma=0.0, L=0.0) == 0.5
    # a tube of radius 2^-50 at step 1 is below every rung's image: the first corner (-eps, -eps) exits there
    b.sched = EpsilonSchedule(1.0, 2.0 ** -50)
    with pytest.raises(NoFeasibleEpsilonError) as exc:
        choose_epsilon(SHRINK, b, gamma=0.0, L=0.0)
    assert str(exc.value) == (
        "no feasible eps on the dyadic ladder eps0*2^-m, m <= 40 (gamma=0.000e+00, L=0.000e+00): the first rung "
        "eps=1.000e+00 fails the tube pre-check (the point (-2, -2) of the square of half-width 2.000e+00 about z "
        "exits at step 0), the last rung eps=9.095e-13 fails the tube pre-check (the point (-1.81899e-12, "
        "-1.81899e-12) of the square of half-width 1.819e-12 about z exits at step 1)"
    )


def test_choose_epsilon_tests_the_whole_square():
    # a singular line x = 1/4 crosses the squares of eps = 1, 1/2 and 1/4, on a grid column of each, but no
    # corner of them: N^(k0) is not convex, and only eps = 1/8 keeps clear of it
    m = dataclasses.replace(SHRINK, singular_guard=lambda x, y: abs(x - 0.25) - 1e-3)
    assert choose_epsilon(m, synthetic_budget(), gamma=0.0, L=0.0) == 0.125


def test_choose_epsilon_tube_precheck_bites(linear_map):
    # the tube pre-check rejects the first Gamma-feasible rung (the inflated
    # square pokes out of the tube in y by step k0 - 1) and keeps the next
    sched = EpsilonSchedule.constant(0.1)
    b = estimate_budget(linear_map, Point2(0, 0), sched, kmax=10, n=1000, seed=3)
    rep = check_condition_double_star(b, sched)
    eps_checked = choose_epsilon(linear_map, b, rep.gamma_required, 0.0)
    rungs = [0.1 * 2.0 ** -m for m in range(LADDER_DEPTH + 1)]
    eps_unchecked = next(eps for eps in rungs if eps * rep.gamma_required < 1.0)
    assert eps_unchecked == 0.05
    assert eps_checked == 0.025


@pytest.mark.parametrize("n", [0, 1, 5, 20])
def test_choose_epsilon_needs_no_draws(henon_map, n):
    # the theorem-henon inputs at seed 2 choose eps = 0.0125 from 0, 1, 5 or 20 draws, as from 2000
    sched = EpsilonSchedule.constant(0.05)
    fp = eigen_split(henon_map, Point2(0.6, 0.2))
    assert budget_to_epsilon(henon_map, fp.p, sched, 12, n, 2)[3] == 0.0125


def test_choose_epsilon_square_past_the_domain_edge(linear_map):
    # z sits on the box's left edge: half of every square lies outside the domain, and its points exit at step 1
    m = dataclasses.replace(linear_map, box=(0.0, 1.0, -1.0, 1.0))
    sched = EpsilonSchedule.constant(0.1)
    b = estimate_budget(m, Point2(0, 0), sched, kmax=10, n=200, seed=2)
    rep = check_condition_double_star(b, sched)
    with pytest.raises(NoFeasibleEpsilonError) as exc:
        choose_epsilon(m, b, rep.gamma_required, 0.0)
    assert re.search(r"the last rung eps=9\.095e-14 fails the tube pre-check \(the point \(-\S+, -\S+\) of the "
                     r"square of half-width \S+ about z exits at step 1\)$", str(exc.value)), str(exc.value)


def test_choose_epsilon_linear_reverify(linear_map):
    sched = EpsilonSchedule.constant(0.1)
    b = estimate_budget(linear_map, Point2(0, 0), sched, kmax=10, n=600, seed=3)
    rep = check_condition_double_star(b, sched)
    coc = build_orbit_cocycle(linear_map, Point2(0, 0), 10)
    L = direction_field_derivative(linear_map, coc, 10, 1e-4, budget=b)[0]
    eps = choose_epsilon(linear_map, b, rep.gamma_required, L)
    assert eps > 0.0
    assert eps * rep.gamma_required < 1.0
    assert math.exp(eps * L) < 2.0


def test_integrate_leaf_linear_exact(linear_map):
    leaf = integrate_leaf(linear_map, Point2(0.1, 0.0), 4, 0.25)
    assert leaf.t[0] == -0.25 and leaf.t[-1] == 0.25
    assert np.max(np.abs(leaf.ys - 0.0)) <= 1e-12
    assert np.max(np.abs(leaf.xs - (0.1 + leaf.t))) <= 1e-12
    assert abs(leaf.thetas[leaf.center_index]) <= 1e-10
    assert not leaf.truncated_neg and not leaf.truncated_pos
    assert leaf.xs[leaf.center_index] == 0.1 and leaf.ys[leaf.center_index] == 0.0


def test_integrate_leaf_validation(linear_map):
    with pytest.raises(BadParamsError):
        integrate_leaf(linear_map, Point2(0, 0), 3, 0.1, grid_points=64)  # even
    with pytest.raises(BadParamsError):
        integrate_leaf(linear_map, Point2(0, 0), 3, -0.1)
    for eps in (math.nan, math.inf, -math.inf):
        with pytest.raises(BadParamsError, match="eps must be positive and finite"):
            integrate_leaf(linear_map, Point2(0, 0), 3, eps)


def test_cauchy_validation(linear_map):
    sched = EpsilonSchedule.constant(0.1)
    # k0 = kmax = 2: no pair of consecutive orders to compare
    b = estimate_budget(linear_map, Point2(0, 0), sched, kmax=2, n=50, seed=1)
    assert b.k0 == b.kmax
    with pytest.raises(BadParamsError, match="kmax=2 must exceed k0=2"):
        cauchy_iterate(linear_map, b, 0.01, 1e-6, L=0.0)


def test_integrate_leaf_truncation(linear_map):
    # base point near the domain edge: the positive-x side leaves the box
    leaf = integrate_leaf(linear_map, Point2(4.9, 0.0), 3, 0.5)
    assert leaf.truncated_pos or leaf.truncated_neg
    assert len(leaf.t) < leaf.grid_points


def steep_map():
    """(x, y) -> (x / 2, 2y), whose derivative gains the row (1.5e308, 1.5e308) from x = 0.3 on.

    There F of Dphi is past the float range while every entry is finite.
    """
    big = 1.5e308
    return MapModel(
        name="steep", params={}, raw_eval=lambda x, y: (0.5 * x, 2.0 * y),
        raw_jac=lambda x, y: (0.5, 0.0, 0.0, 2.0) if x < 0.3 else (0.5, 0.0, big, big),
        raw_hess=lambda x, y: (0.0,) * 6, raw_det_grad=lambda x, y: (0.0, 0.0),
    )


def test_an_overflowing_product_at_z_raises():
    with pytest.raises(SingularStepError, match=r"order-2 product Dphi\^2 overflows at \(0\.0, 0\.0\)"):
        contracted_theta_fast(make_map("linear", lambda_s=0.5, lambda_u=1e200), 0.0, 0.0, 2)
    # Dphi^1024 of the (0.5, 2) saddle is the first to overflow, and the error names it as build_orbit_cocycle does
    with pytest.raises(SingularStepError, match=r"order-1024 product Dphi\^1024 overflows at \(0\.0, 0\.0\)"):
        integrate_leaf(make_map("linear", lambda_s=0.5, lambda_u=2.0), Point2(0.0, 0.0), 1100, 0.01)
    # the walk at z comes before the checks of the arguments
    with pytest.raises(SingularStepError, match=r"order-1024 product"):
        integrate_leaf(make_map("linear", lambda_s=0.5, lambda_u=2.0), Point2(0.0, 0.0), 1100, -0.01)


def test_an_overflowing_product_mid_trace_truncates_the_side():
    m = steep_map()
    with pytest.raises(SingularStepError, match="order-1 product"):
        _leaf_field(m, 1)(0.4, 0.0, 1.0, 0.0)
    # steps of eps / 16 = 1/32: the 10th step's k4 lies at x = 0.3125, so 9
    # steps of the positive side are kept, and their 72 nodes
    leaf = integrate_leaf(m, Point2(0.0, 0.0), 1, 0.5)
    assert leaf.truncated_pos and not leaf.truncated_neg
    assert (leaf.center_index, len(leaf.t), leaf.length_pos) == (128, 201, 0.28125)
    assert np.all(np.isfinite(leaf.thetas)) and np.all(leaf.thetas == 0.0)


def test_an_overflowing_product_on_the_stencil_is_a_stencil_escape():
    m = steep_map()
    c = build_orbit_cocycle(m, Point2(0.29995, 0.0), 1)  # the stencil point x + 1e-4 overflows
    with pytest.raises(StencilEscapeError, match="order-1 product Dphi\\^1 overflows"):
        direction_field_derivative(m, c, 1)


def test_leaf_arclength_consistency(henon_map):
    z = Point2(0.6313544770895252, 0.18940634312685756)
    leaf = integrate_leaf(henon_map, z, 8, 0.05)
    dt = np.diff(leaf.t)
    seg = np.hypot(np.diff(leaf.xs), np.diff(leaf.ys))
    assert np.all(seg <= dt + 1e-9)
    assert np.all(seg >= dt * (1.0 - 1e-6))
    # tangent angle continuity: no mod-pi jumps
    assert np.max(np.abs(np.diff(leaf.thetas))) < math.pi / 2
    # tangent at t=0 equals the contracted direction at z
    th0 = contracted_theta_fast(henon_map, z.x, z.y, 8)[0]
    assert angle_distance(leaf.thetas[leaf.center_index], th0) <= 1e-10


def test_richardson_order_henon(henon_map):
    z = Point2(0.6313544770895252, 0.18940634312685756)
    eps, gp = 0.8, 9
    h0 = eps / (gp // 2)
    l1 = integrate_leaf(henon_map, z, 6, eps, h=h0, grid_points=gp)
    l2 = integrate_leaf(henon_map, z, 6, eps, h=h0 / 2, grid_points=gp)
    l3 = integrate_leaf(henon_map, z, 6, eps, h=h0 / 4, grid_points=gp)
    e1 = np.max(np.hypot(l1.xs - l2.xs, l1.ys - l2.ys))
    e2 = np.max(np.hypot(l2.xs - l3.xs, l2.ys - l3.ys))
    assert 12.0 <= e1 / e2 <= 20.0


def test_rk4_order_on_circle_field():
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

    e1, e2 = max_err(0.02), max_err(0.01)
    assert 12.0 <= e1 / e2 <= 20.0


def _linear_pipeline(linear_map, kmax=10, tol=1e-8, eta=0.1):
    z = Point2(0, 0)
    sched = EpsilonSchedule.constant(eta)
    b = estimate_budget(linear_map, z, sched, kmax=kmax, n=500, seed=3)
    rep = check_condition_double_star(b, sched)
    coc = build_orbit_cocycle(linear_map, z, kmax)
    L = direction_field_derivative(linear_map, coc, kmax, 1e-4, budget=b)[0]
    eps = choose_epsilon(linear_map, b, rep.gamma_required, L)
    conv = cauchy_iterate(linear_map, b, eps, tol, L=L)
    return b, sched, eps, conv


def test_cauchy_linear_identical_leaves(linear_map):
    b, sched, eps, conv = _linear_pipeline(linear_map)
    assert np.all(conv.d_k == 0.0)
    assert conv.converged
    assert all(conv.tube_ok)
    assert not any(conv.restricted)


def test_cauchy_perturbed_gronwall(perturbed_map):
    z = Point2(0, 0)
    sched = EpsilonSchedule.constant(0.05)
    kmax = 10
    b = estimate_budget(perturbed_map, z, sched, kmax=kmax, n=800, seed=5)
    rep = check_condition_double_star(b, sched)
    coc = build_orbit_cocycle(perturbed_map, z, kmax)
    L = direction_field_derivative(perturbed_map, coc, kmax, 1e-4, budget=b)[0]
    eps = choose_epsilon(perturbed_map, b, rep.gamma_required, L)
    conv = cauchy_iterate(perturbed_map, b, eps, 1e-6, L=L)
    assert np.all(conv.d_k <= conv.gronwall_bound * SAMPLE_SLACK)
    assert np.all(np.diff(conv.d_k) < 0.0)  # strictly decreasing here
    assert all(conv.tube_ok)


def test_cauchy_henon_converges(henon_map):
    z = Point2(0.6313544770895252, 0.18940634312685756)
    sched = EpsilonSchedule.constant(0.05)
    kmax = 12
    b = estimate_budget(henon_map, z, sched, kmax=kmax, n=800, seed=6)
    rep = check_condition_double_star(b, sched)
    coc = build_orbit_cocycle(henon_map, z, kmax)
    L = direction_field_derivative(henon_map, coc, kmax, 1e-4, budget=b)[0]
    eps = choose_epsilon(henon_map, b, rep.gamma_required, L)
    conv = cauchy_iterate(henon_map, b, eps, 1e-8, L=L)
    assert conv.converged
    assert np.all(np.diff(conv.d_k) < 0.0)
    assert np.all(conv.d_k <= conv.gronwall_bound * SAMPLE_SLACK)


def test_cauchy_not_converged_carries_report(henon_map):
    z = Point2(0.6313544770895252, 0.18940634312685756)
    sched = EpsilonSchedule.constant(0.05)
    b = estimate_budget(henon_map, z, sched, kmax=6, n=300, seed=7)
    L = direction_field_derivative(henon_map, build_orbit_cocycle(henon_map, z, 6), 6)[0]
    with pytest.raises(NotConvergedError) as exc:
        cauchy_iterate(henon_map, b, 0.01, tol=1e-300, L=L)
    err = exc.value
    assert err.report is not None
    assert len(err.report.d_k) == len(err.report.ks)


def test_cauchy_degenerate_leaves_not_converged(linear_map):
    # every leaf stops at its centre node: the first RK4 stage leaves the box
    sched = EpsilonSchedule.constant(0.1)
    b = estimate_budget(linear_map, Point2(0, 0), sched, kmax=6, n=50, seed=1)
    with pytest.raises(NotConvergedError) as exc:
        cauchy_iterate(linear_map, b, 1e300, 1e-8, L=0.0)
    rep = exc.value.report
    assert len(rep.limit.t) == 1
    assert not rep.converged
    assert np.all(np.isinf(rep.d_k))
    with pytest.raises(DegenerateLeafError) as err:
        contraction_check(linear_map, rep.limit, b, n=4)
    assert isinstance(err.value, NumericalError)


def test_contraction_linear_exact(linear_map):
    # kmax well past the checked orders so the truncated gamma_tilde tail is
    # close to its limit (11/3) 2^-n
    b, sched, eps, conv = _linear_pipeline(linear_map, kmax=16)
    cr = contraction_check(linear_map, conv.limit, b, n=10)
    assert cr.max_ratio[0] == 1.0
    for n in range(11):
        assert cr.max_ratio[n] == pytest.approx(0.5 ** n, rel=1e-12)
        assert cr.widest_ratio[n] == pytest.approx(0.5 ** n, rel=1e-12)
    # gamma_tilde_n approaches (11/3) 2^-n, so the fitted constant sits near 3/11
    assert cr.C_fit == pytest.approx(3.0 / 11.0, rel=0.05)


def test_contraction_rejects_deep_n(linear_map):
    b, sched, eps, conv = _linear_pipeline(linear_map)
    with pytest.raises(BadParamsError):
        contraction_check(linear_map, conv.limit, b, n=b.kmax + 1)


def test_contraction_check_refuses_a_negative_n(linear_map):
    b, sched, eps, conv = _linear_pipeline(linear_map)
    for n in (-1, -5):
        with pytest.raises(BadParamsError, match=re.escape(f"n={n} is outside the budget range 0..kmax=10")):
            contraction_check(linear_map, conv.limit, b, n=n)


def test_uniqueness_probe_linear(linear_map):
    # the (0.5, 2) saddle's strip in closed form: a node x0 of the leaf (the x axis) offset by y along
    # its normal is at step j >= 1 the point (x0 2^-j, y 2^j), inside the tube of radius eta while
    # |y| <= sqrt(eta^2 - (x0 2^-j)^2) / 2^j; step 0 is the box |y| <= eta. The ladder's width is the
    # largest rung eta 2^-m at or below the least of these over the nodes, so within a factor 2 of it
    for eta, kmax in ((0.1, 12), (0.05, 16), (0.1, 16)):
        b, sched, eps, conv = _linear_pipeline(linear_map, kmax=kmax, eta=eta)
        rep = uniqueness_probe(linear_map, b, conv.limit)
        assert rep.on_leaf_exits == 0 and rep.outside_band == []
        assert len(rep.width) == len(rep.ratio) == kmax + 1
        x0 = conv.limit.xs[::8]
        for j in range(kmax + 1):
            exact = eta if j == 0 else float(np.min(np.sqrt(eta ** 2 - (x0 * 2.0 ** -j) ** 2))) / 2.0 ** j
            assert rep.width[j] <= exact < 2.0 * rep.width[j], (eta, kmax, j)
            assert rep.ratio[j] == rep.width[j] * 2.0 ** j / eta <= 1.0, (eta, kmax, j)


def test_uniqueness_probe_henon_off_leaf(henon_map):
    z = Point2(0.6313544770895252, 0.18940634312685756)
    sched = EpsilonSchedule.constant(0.05)
    from stableleaf.budget import first_tube_exit

    ref = reference_orbit(henon_map, z, 12)
    leaf = integrate_leaf(henon_map, z, 10, 0.01)
    th = leaf.thetas[leaf.center_index]
    off = Point2(z.x - 1e-3 * math.sin(th), z.y + 1e-3 * math.cos(th))
    j = first_tube_exit(henon_map, ref, off, sched, 12)
    assert j is not None and 1 <= j <= 12


def test_tangent_lipschitz_invariant(perturbed_map):
    z = Point2(0, 0)
    sched = EpsilonSchedule.constant(0.05)
    b = estimate_budget(perturbed_map, z, sched, kmax=12, n=400, seed=4)
    coc = build_orbit_cocycle(perturbed_map, z, 12)
    L = direction_field_derivative(perturbed_map, coc, 12, 1e-4, budget=b)[0]
    leaf = integrate_leaf(perturbed_map, z, 12, 0.0125)
    assert leaf.tangent_lipschitz() <= L * 1.1


def test_leaf_limit_tangency_linear(linear_map):
    b, sched, eps, conv = _linear_pipeline(linear_map)
    assert np.max(np.abs(conv.limit.thetas)) <= 1e-10


# -- the RK4 fast path against the reference loop ----------------------------

FIELD_CASES = {  # map, base point, order
    "henon": (make_map("henon", a=1.4, b=0.3), HENON_SADDLE, 12),
    "perturbed": (make_map("perturbed", lambda_s=0.5, lambda_u=2.0, c=0.05), Point2(0.0, 0.0), 8),
}


@pytest.mark.parametrize("steps", [1, 2, 4, 0.25, 0.125])
@pytest.mark.parametrize("case", sorted(FIELD_CASES))
def test_rk4_streamline_matches_reference(case, steps):
    m, z, k = FIELD_CASES[case]
    fld = _leaf_field(m, k)
    th0 = contracted_theta_fast(m, z.x, z.y, k)[0]
    spacing = 0.0125 / 128
    for sign in (1.0, -1.0):
        ux, uy = sign * math.cos(th0), sign * math.sin(th0)
        args = (z.x, z.y, ux, uy, 24, spacing, steps)
        full = rk4_streamline(fld, *args)
        assert not full[3] and len(full[0]) == 24
        assert bits(full) == bits(ref_streamline(fld, *args))
        # a stop early in cell 10 makes one of its stage points fail first; a
        # side keeps the nodes up to the last step it completed
        nodes = [(x - z.x) * ux + (y - z.y) * uy for x, y in zip(full[0], full[1])]
        cut = stop_beyond(fld, z.x, z.y, ux, uy, nodes[8] + 0.3 * (nodes[9] - nodes[8]))
        part = rk4_streamline(cut, *args)
        cells_a_step = max(1, round(1 / steps))
        assert part[3] and len(part[0]) == 9 // cells_a_step * cells_a_step
        assert bits(part) == bits(ref_streamline(cut, *args))


@pytest.mark.parametrize("steps", [1, 2, 4, 0.5, 0.125])
def test_rk4_streamline_field_calls(steps):
    # 4 calls a step: the given tangent is the first k1, and the Hermite fill calls nothing
    calls = []

    def counted(x, y, rux, ruy):
        calls.append((x, y))
        return (1.0, 0.0) if rux >= 0.0 else (-1.0, 0.0)

    xs, _, _, truncated = rk4_streamline(counted, 0.0, 0.0, 1.0, 0.0, 8, 0.125, steps)
    assert not truncated and xs == [0.125 * (i + 1) for i in range(8)]
    assert len(calls) == 4 * steps * 8


@pytest.mark.parametrize("n_cells, n_steps", [(128, 9), (128, 83), (128, 300), (3, 1), (3, 2)])
@pytest.mark.parametrize("case", sorted(FIELD_CASES))
def test_dense_output_matches_reference(case, n_cells, n_steps):
    # N steps a side whose ends fall between grid nodes, nodes that fall
    # between them, and the 7-node grid's 3 cells a side at N = 1 and 2
    m, z, k = FIELD_CASES[case]
    fld = _leaf_field(m, k)
    th0 = contracted_theta_fast(m, z.x, z.y, k)[0]
    spacing, h = 0.0125 / n_cells, 0.0125 / n_steps
    for sign in (1.0, -1.0):
        ux, uy = sign * math.cos(th0), sign * math.sin(th0)
        args = (z.x, z.y, ux, uy, n_cells, spacing, n_steps / n_cells)
        full = rk4_streamline(fld, *args)
        assert not full[3] and len(full[0]) == n_cells
        assert bits(full) == bits(ref_streamline(fld, *args))
        # a stop 0.3 into step N//2 + 1 meets its first stage point, so the side
        # keeps the nodes up to step end N//2, none of the step it left unfinished
        cut = stop_beyond(fld, z.x, z.y, ux, uy, (n_steps // 2 + 0.3) * h)
        part = rk4_streamline(cut, *args)
        assert part[3] and len(part[0]) == n_steps // 2 * n_cells // n_steps
        assert bits(part) == bits(ref_streamline(cut, *args))


@pytest.mark.parametrize("n_steps", [9, 83, 300])
def test_half_step_leaf_takes_twice_the_steps(monkeypatch, henon_map, n_steps):
    # 4 field calls a step on each side: the Cauchy leaves at eps/2 take 2
    # steps a side, the partner leaf at h N and the limit leaf, the half-step
    # leaf of its integration error, 2N. Only the limit leaf's integrate_leaf
    # makes one more call, for theta0 at z
    z, sched = HENON_SADDLE, EpsilonSchedule.constant(0.05)
    b, _, L, eps = budget_to_epsilon(henon_map, z, sched, 12, 800, 6)
    calls, made = [], []
    trace = leaf_mod._trace_leaves

    def counted(*args):
        calls.append(args)
        return contracted_theta_fast(*args)

    def traced(m, z, leaves, eps, h, grid_points):
        before = len(calls)
        out = trace(m, z, leaves, eps, h, grid_points)
        made.append((round(eps / out[0]), len(calls) - before))
        return out

    monkeypatch.setattr(leaf_mod, "contracted_theta_fast", counted)
    monkeypatch.setattr(leaf_mod, "_trace_leaves", traced)
    conv = cauchy_iterate(henon_map, b, eps, 1e-8, L=L, h=eps / n_steps)
    assert made == [(2, 16 * (len(conv.ks) + 1)), (n_steps, 8 * n_steps), (2 * n_steps, 16 * n_steps)]
    assert len(calls) == sum(c for _, c in made) + 1
    assert conv.limit.steps_per_cell == 2 * n_steps / 128
    assert 0.0 < conv.integration_error < 1e-13


# sha256 of xs, ys and thetas of each leaf as integrated with h = eps/512, four
# RK4 steps per cell, before the node tangent became the next step's k1
OLD_DEFAULT_LEAF_SHA256 = {
    "henon": "4637b5d0565e79b115437cf246a083368e671cc280b25051cfbd658284de52c6",
    "perturbed": "6b2d4e793c8d16c0f33a8dccc3feeb80af9fcf2e096d674e6806df72181e5149",
}


@pytest.mark.parametrize("case", sorted(FIELD_CASES))
def test_fine_step_reproduces_the_old_default_leaf(case):
    m, z, k = FIELD_CASES[case]
    leaf = integrate_leaf(m, z, k, 0.0125, h=0.0125 / 512)
    assert leaf.steps_per_cell == 4 and len(leaf.t) == leaf.grid_points
    digest = hashlib.sha256(leaf.xs.tobytes() + leaf.ys.tobytes() + leaf.thetas.tobytes()).hexdigest()
    assert digest == OLD_DEFAULT_LEAF_SHA256[case]


# sha256 of xs, ys and thetas of each leaf as integrated with h = eps/128, one
# RK4 step per cell, the default before steps spanned 8 cells with Hermite
# dense output between them (and before the leaf field took Dphi^k from
# orbit_product and theta, E and F from one set of sums)
CELL_STEP_LEAF_SHA256 = {
    "henon": "6e320c45b3a6fd9462498858b8317f3972fd57e76bae53e6d555b0ea306458fd",
    "perturbed": "064e16249f91caa08c3a4c9b1475f52c9f3ceb6dc61020bccd5070668a39d8d0",
}


@pytest.mark.parametrize("case", sorted(FIELD_CASES))
def test_cell_step_reproduces_the_former_default_leaf(case):
    m, z, k = FIELD_CASES[case]
    leaf = integrate_leaf(m, z, k, 0.0125, h=0.0125 / 128)
    assert leaf.steps_per_cell == 1 and len(leaf.t) == leaf.grid_points
    digest = hashlib.sha256(leaf.xs.tobytes() + leaf.ys.tobytes() + leaf.thetas.tobytes()).hexdigest()
    assert digest == CELL_STEP_LEAF_SHA256[case]


# sha256 of xs, ys and thetas of each leaf as integrated with the default
# h = eps/16, one RK4 step per 8 cells and the Hermite fill between
DEFAULT_LEAF_SHA256 = {
    "henon": "fd9441c4d93b1a9ef14c5e5214f05bacc77c51a5def2de4b5e9700853fd78dbe",
    "perturbed": "2e4c53faad274510edb9d7d41341ec084b755924233d2cb08afa32737340df9e",
}


@pytest.mark.parametrize("case", sorted(FIELD_CASES))
def test_default_step_reproduces_the_pinned_leaf(case):
    m, z, k = FIELD_CASES[case]
    leaf = integrate_leaf(m, z, k, 0.0125)
    assert leaf.h == 0.0125 / 16 and leaf.steps_per_cell == 0.125 and len(leaf.t) == leaf.grid_points
    digest = hashlib.sha256(leaf.xs.tobytes() + leaf.ys.tobytes() + leaf.thetas.tobytes()).hexdigest()
    assert digest == DEFAULT_LEAF_SHA256[case]


@pytest.mark.parametrize("case", sorted(FIELD_CASES))
def test_default_leaf_is_the_reference_steps_and_fill(case):
    # the default leaf: the reference loop at 8 cells a step, and the reference fill between
    m, z, k = FIELD_CASES[case]
    leaf = integrate_leaf(m, z, k, 0.0125)
    fld = _leaf_field(m, k)
    th0 = contracted_theta_fast(m, z.x, z.y, k)[0]
    sides = [ref_streamline(fld, z.x, z.y, sign * math.cos(th0), sign * math.sin(th0), 128, 0.0125 / 128, 0.125)
             for sign in (-1.0, 1.0)]
    xs = sides[0][0][::-1] + [z.x] + sides[1][0]
    ys = sides[0][1][::-1] + [z.y] + sides[1][1]
    assert [v.hex() for v in xs + ys] == [v.hex() for v in leaf.xs.tolist() + leaf.ys.tolist()]


LEAF_STEPS = [(n, gp) for n in (1, 16, 83, 256) for gp in (3, 7, 257) if n <= MAX_STEPS_PER_CELL * (gp // 2)]


@pytest.mark.parametrize("n_steps, grid_points", LEAF_STEPS)
@pytest.mark.parametrize("case", sorted(FIELD_CASES))
def test_integrate_leaf_is_the_reference_sides_and_unwrap(monkeypatch, case, n_steps, grid_points):
    # both sides' nodes from one array pass and the unwrap on floats, against
    # ref_streamline on each side and ref_unwrap: both sides full, either one
    # stopped 0.55 eps out, and both (at N = 1 a stopped side keeps no node)
    m, z, k = FIELD_CASES[case]
    eps, n_side = 0.0125, grid_points // 2
    th0 = contracted_theta_fast(m, z.x, z.y, k)[0]
    ux, uy = math.cos(th0), math.sin(th0)
    for cut in ((), (-1.0,), (1.0,), (-1.0, 1.0)):
        fld = _leaf_field(m, k)
        for sign in cut:
            fld = stop_beyond(fld, z.x, z.y, sign * ux, sign * uy, 0.55 * eps)
        monkeypatch.setattr(leaf_mod, "_leaf_field", lambda *_, f=fld: f)
        leaf = integrate_leaf(m, z, k, eps, h=math.inf if n_steps == 1 else eps / n_steps, grid_points=grid_points)
        neg, pos = (ref_streamline(fld, z.x, z.y, sign * ux, sign * uy, n_side, eps / n_side, n_steps / n_side)
                    for sign in (-1.0, 1.0))
        assert (leaf.truncated_neg, leaf.truncated_pos) == (neg[3], pos[3]) == (-1.0 in cut, 1.0 in cut)
        assert len(neg[0]) < n_side if -1.0 in cut else len(neg[0]) == n_side
        c = len(neg[0])
        xs, ys, raw = (a[::-1] + [v] + b for a, b, v in zip(neg, pos, (z.x, z.y, th0)))
        want = [xs, ys, ref_unwrap(raw, c).tolist(), (eps / n_side * (np.arange(len(xs)) - c)).tolist()]
        got = [a.tolist() for a in (leaf.xs, leaf.ys, leaf.thetas, leaf.t)]
        assert leaf.center_index == c
        assert [[v.hex() for v in a] for a in got] == [[v.hex() for v in a] for a in want], cut


HERMITE_ANGLE = 1e-11     # radians; measured at most 4.0e-12 (henon, k = 12)
HERMITE_POSITION = 1e-14  # against the h = eps/512 leaf; measured at most 1.4e-15 (henon, k = 12)


@pytest.mark.parametrize("case", sorted(FIELD_CASES))
def test_every_node_tangent_is_the_order_k_field(case):
    # each step end's tangent is the order-k field at its node, not only the
    # centre's; the Hermite nodes between step ends are within the stated bounds
    m, z, kmax = FIELD_CASES[case]
    for k in (2, kmax):
        leaf = integrate_leaf(m, z, k, 0.0125)
        assert len(leaf.t) == leaf.grid_points
        for i, (x, y, th) in enumerate(zip(leaf.xs.tolist(), leaf.ys.tolist(), leaf.thetas.tolist())):
            bound = 1e-12 if i % 8 == 0 else HERMITE_ANGLE
            assert angle_distance(th, contracted_theta_fast(m, x, y, k)[0]) <= bound, (k, i)
        fine = integrate_leaf(m, z, k, 0.0125, h=0.0125 / 512)
        assert np.max(np.hypot(leaf.xs - fine.xs, leaf.ys - fine.ys)) <= HERMITE_POSITION, k


RING_CASES = {  # map, fixed-point guess, order
    "henon": (make_map("henon", a=1.4, b=0.3), (0.6, 0.2), 12),
    "henon-negative-b": (make_map("henon", a=1.4, b=-0.3), (0.6, 0.2), 12),
    "perturbed": (make_map("perturbed", lambda_s=0.5, lambda_u=2.0, c=0.05), (0.0, 0.0), 12),
    "perturbed-strong": (make_map("perturbed", lambda_s=0.3, lambda_u=3.0, c=0.2), (0.0, 0.0), 8),
}


@pytest.mark.parametrize("case", sorted(RING_CASES))
def test_field_lipschitz_matches_a_ring_slope(case):
    # an independent slope of the order-k field: the largest angle change per
    # unit distance over 64 directions on rings of radius 1e-3 and 1e-4; the
    # measured L/slope is 1.04 to 1.21 on these saddles
    m, guess, k = RING_CASES[case]
    p = eigen_split(m, Point2(*guess)).p
    L = direction_field_derivative(m, build_orbit_cocycle(m, p, k), k)[0]
    th0 = contracted_theta_fast(m, p.x, p.y, k)[0]
    for r in (1e-3, 1e-4):
        slope = max(
            angle_distance(contracted_theta_fast(m, p.x + r * math.cos(a), p.y + r * math.sin(a), k)[0], th0) / r
            for a in (2.0 * math.pi * i / 64 for i in range(64))
        )
        assert 0.9 <= L / slope <= 1.5, (r, L, slope)


def test_default_step_is_one_per_cell(henon_map):
    # the default step spans 8 cells of the default grid
    spacing = 0.0125 / 128
    leaf = integrate_leaf(henon_map, HENON_SADDLE, 12, 0.0125)
    assert leaf.steps_per_cell == 0.125 and leaf.h == 0.0125 / 16 == 8 * spacing
    # any other h takes N = round(eps / h) steps a side, at least one; a step
    # need not end on a grid node, nor the grid on a step end
    for h, n_steps in ((0.01, 1), (0.007, 2), (1.0, 1), (math.inf, 1), (7.9 * spacing, 16), (3 * spacing, 43),
                       (1.9 * spacing, 67), (1.5e-4, 83), (0.0125 / 300, 300)):
        leaf = integrate_leaf(henon_map, HENON_SADDLE, 12, 0.0125, h=h)
        assert leaf.steps_per_cell == n_steps / 128 and leaf.h == spacing / (n_steps / 128)
        assert round(0.0125 / leaf.h) == n_steps and len(leaf.t) == leaf.grid_points
    # 3 cells a side: one step a side spans all three
    leaf = integrate_leaf(henon_map, HENON_SADDLE, 12, 0.0125, h=0.0125, grid_points=7)
    assert leaf.steps_per_cell == 1 / 3 and round(0.0125 / leaf.h) == 1 and len(leaf.t) == 7


def test_step_count_per_cell_is_bounded(henon_map):
    # 9 grid points: 4 cells a side of width eps / 4
    spacing = 0.0125 / 4
    least = spacing / MAX_STEPS_PER_CELL
    leaf = integrate_leaf(henon_map, HENON_SADDLE, 6, 0.0125, h=least, grid_points=9)
    assert leaf.steps_per_cell == MAX_STEPS_PER_CELL and len(leaf.t) == 9
    # below it, and where spacing / h overflows, h is refused before any step
    for h in (math.nextafter(least, 0.0), 1e-12, 1e-320, 5e-324):
        with pytest.raises(BadParamsError, match=re.escape(f"the smallest h allowed is {least!r}") + "$"):
            integrate_leaf(henon_map, HENON_SADDLE, 6, 0.0125, h=h, grid_points=9)


@pytest.mark.parametrize("h", [0.0, -1e-3, math.nan])
def test_integrate_leaf_refuses_a_step_that_is_not_positive(henon_map, h):
    with pytest.raises(BadParamsError, match=re.escape(f"h must be positive, got {h}") + "$"):
        integrate_leaf(henon_map, HENON_SADDLE, 6, 0.0125, h=h)


@pytest.mark.parametrize("h", [0.0, -1e-3, math.nan])
def test_cauchy_iterate_refuses_a_step_that_is_not_positive(linear_map, h):
    z, sched = Point2(0, 0), EpsilonSchedule.constant(0.1)
    b, _, L, eps = budget_to_epsilon(linear_map, z, sched, 10, 500, 3)
    with pytest.raises(BadParamsError, match=re.escape(f"h must be positive, got {h}") + "$"):
        cauchy_iterate(linear_map, b, eps, 1e-8, L=L, h=h)


@pytest.mark.parametrize("L", [-1.0, math.nan, 1e6, math.inf], ids=["negative", "nan", "exp-overflows", "inf"])
def test_cauchy_iterate_refuses_a_bad_lipschitz_constant(linear_map, L):
    # exp(L * eps) must be a finite float: 1e6 * 0.0125 is far past 709.78, where math.exp overflows
    z, sched = Point2(0, 0), EpsilonSchedule.constant(0.1)
    b = estimate_budget(linear_map, z, sched, kmax=10, n=500, seed=3)
    assert b.k0 < b.kmax
    with pytest.raises(BadParamsError, match=re.escape(f"L={L} must be >= 0 with exp(L*eps) finite at eps=0.0125") + "$"):
        cauchy_iterate(linear_map, b, 0.0125, 1e-8, L=L)


@pytest.mark.parametrize("h", [0.0, -1e-3, math.nan])
def test_field_derivative_refuses_a_step_that_is_not_positive(henon_map, h):
    coc = build_orbit_cocycle(henon_map, HENON_SADDLE, 6)
    with pytest.raises(BadParamsError, match=re.escape(f"h must be positive, got {h}") + "$"):
        direction_field_derivative(henon_map, coc, 6, h)


# -- the integration error and the convergence conditions ---------------------


def test_integration_error_linear_exact(linear_map):
    # a dyadic eps makes every RK4 increment of the constant field exact
    z, sched = Point2(0, 0), EpsilonSchedule.constant(0.125)
    b, _, L, eps = budget_to_epsilon(linear_map, z, sched, 10, 500, 3)
    conv = cauchy_iterate(linear_map, b, eps, 1e-8, L=L)
    assert eps == 0.03125
    assert conv.integration_error == 0.0
    assert np.all(conv.d_k == 0.0)


def test_integration_error_alone_blocks_convergence(linear_map):
    # at eps = 0.025 the leaves of all orders agree exactly, but the half-step
    # leaf accumulates its arclength with different round-off
    b, sched, eps, conv = _linear_pipeline(linear_map)
    assert eps == 0.025 and np.all(conv.d_k == 0.0)
    assert 0.0 < conv.integration_error < 1e-15
    with pytest.raises(NotConvergedError) as exc:
        cauchy_iterate(linear_map, b, eps, conv.integration_error, L=conv.L_used)
    msg = str(exc.value)
    assert f"integration error {conv.integration_error:.3e}" in msg
    assert "d_k" not in msg and "truncated" not in msg
    assert exc.value.report.integration_error == conv.integration_error
    assert not exc.value.report.converged


def test_integration_error_henon(henon_map):
    # the default partner step h is 2 eps / DEFAULT_STEP_DIV; the limit leaf, at
    # half of it, is integrate_leaf's default leaf, and the integration error is
    # its largest node distance from the order-kmax partner leaf at h
    z = HENON_SADDLE
    sched = EpsilonSchedule.constant(0.05)
    b, _, L, eps = budget_to_epsilon(henon_map, z, sched, 12, 800, 6)
    conv = cauchy_iterate(henon_map, b, eps, 1e-8, L=L)
    default = integrate_leaf(henon_map, z, 12, eps)
    assert conv.limit.h == default.h == eps / DEFAULT_STEP_DIV
    for name in ("t", "xs", "ys", "thetas"):
        assert getattr(conv.limit, name).tobytes() == getattr(default, name).tobytes()
    coarse = integrate_leaf(henon_map, z, 12, eps, h=2 * conv.limit.h)
    assert 2 * coarse.steps_per_cell == conv.limit.steps_per_cell
    expected = np.max(np.hypot(coarse.xs - conv.limit.xs, coarse.ys - conv.limit.ys))
    assert conv.integration_error == expected
    assert 0.0 < conv.integration_error < 1e-13


def theorem_henon(henon_map, seed):
    """The theorem-henon run's TheoremReport (eta 0.05, kmax 12, n 2000) at seed."""
    fp = eigen_split(henon_map, Point2(0.6, 0.2))
    return verify_fixed_point_theorem(henon_map, fp, eta=0.05, kmax=12, seed=seed, n=2000)


@pytest.mark.parametrize("seed", range(1, 6))
def test_coarse_cauchy_leaves_match_the_partner_step(henon_map, seed):
    # the Cauchy leaves at eps/2 carry nearly the same RK4 error from order to
    # order, so d_k from them is d_k from leaves at the partner's step eps/8 to
    # within 2e-3 omega_k
    r = theorem_henon(henon_map, seed)
    conv, eps = r.convergence, r.convergence.eps_chosen
    fine = [integrate_leaf(henon_map, r.fp.p, k, eps, h=eps / 8) for k in range(conv.k0, conv.kmax + 1)]
    ref = np.array([leaf_distance(a, c)[0] for a, c in zip(fine, fine[1:])])
    assert np.all(np.abs(conv.d_k - ref) <= 2e-3 * conv.gronwall_bound)


def coarse_verdicts_hold(conv):
    """converged, every tube test passed and every d_k within 1.05 of its Gronwall radius."""
    return conv.converged and all(conv.tube_ok) and bool(np.all(conv.d_k <= 1.05 * conv.gronwall_bound))


def test_coarse_cauchy_leaves_keep_the_verdicts(henon_map):
    for seed in range(1, 21):
        assert coarse_verdicts_hold(theorem_henon(henon_map, seed).convergence), seed
    for name, (m, w, kmax, seed) in SADDLES.items():
        b, _, L, eps = budget_to_epsilon(m, Point2(float(w.cx[0]), float(w.cy[0])),
                                         EpsilonSchedule.constant(0.05), kmax, 800, seed)
        assert coarse_verdicts_hold(cauchy_iterate(m, b, eps, 1e-8, L=L)), name


def strip_map(linear_map, x_mid, width):
    """The linear saddle with a singular strip |x - x_mid| <= width across its stable leaf."""
    return dataclasses.replace(linear_map, singular_guard=lambda x, y: abs(x - x_mid) - width)


def test_truncated_limit_leaf_is_not_converged(monkeypatch, linear_map):
    # the strip crosses the leaf at node 56. The stage points of the Cauchy
    # leaves at eps/2, every 32 cells, step over it, so every order reaches eps
    # and consecutive leaves agree exactly; those of the partner's h = 16 cells
    # and of h/2 both meet it, so the pair stops at node 48. The limit leaf's
    # truncation is the check that counts
    z, sched = Point2(0, 0), EpsilonSchedule.constant(0.1)
    m = strip_map(linear_map, 56 * 0.025 / 128 + 1e-4 / 3, 1e-4)
    b, _, L, eps = budget_to_epsilon(m, z, sched, 10, 500, 3)
    assert eps == 0.025  # the strip, 2e-4 wide, falls between two columns of the pre-check grid
    traced, cut = [], []
    trace, rk4_steps = leaf_mod._trace_leaves, leaf_mod._rk4_steps

    def recorded(*args):
        traced.append(trace(*args))
        return traced[-1]

    def flagged(*args):
        ends, truncated = rk4_steps(*args)
        cut.append(truncated)
        return ends, truncated

    monkeypatch.setattr(leaf_mod, "_trace_leaves", recorded)
    monkeypatch.setattr(leaf_mod, "_rk4_steps", flagged)
    with pytest.raises(NotConvergedError) as exc:
        cauchy_iterate(m, b, eps, 1e-8, L=L)
    rep = exc.value.report
    (_, grid, _, _), (_, partner, reach, truncated), _ = traced
    limit = rep.limit
    cauchy = cut[:-4]  # the sides of the Cauchy leaves, then the partner's and the limit leaf's
    assert len(grid[0]) == len(rep.ks) + 1 and len(cauchy) == 2 * (len(rep.ks) + 1)
    assert not any(cauchy) and not any(rep.restricted)
    assert np.all(rep.d_k == 0.0) and rep.integration_error < 1e-8
    # the partner's grid row reaches node 48 of 128 on the positive side and eps on the negative one
    assert reach.tolist() == [[48, 128]] and truncated.tolist() == [[True, False]]
    assert np.count_nonzero(~np.isnan(partner[0, 0])) == 1 + 48 + 128
    assert limit.truncated_pos and not limit.truncated_neg
    assert limit.length_neg == eps and limit.length_pos == 48 * (eps / 128)
    assert cut[-4:] == [True, False, True, False]
    assert str(exc.value) == (
        f"the order-10 leaf is truncated on the positive side at length {rep.limit.length_pos:.6e} of eps=2.500000e-02"
    )


def test_cauchy_step_leaf_stopping_short_leaves_the_error_unmeasured(linear_map):
    # a strip a tenth of a cell wide at node 80: the partner's step h = 16 cells
    # meets it in its step from node 64, the limit leaf's h/2 = 8 cells in its
    # step from node 72, so the partner misses the limit leaf's nodes 65..72
    z, sched = Point2(0, 0), EpsilonSchedule.constant(0.1)
    spacing = 0.025 / 128
    m = strip_map(linear_map, 80 * spacing, 0.05 * spacing)
    b, _, L, eps = budget_to_epsilon(m, z, sched, 10, 500, 3)
    assert eps == 0.025
    with pytest.raises(NotConvergedError) as exc:
        cauchy_iterate(m, b, eps, 1e-8, L=L)
    rep = exc.value.report
    assert np.all(rep.d_k == 0.0)
    assert not rep.limit.truncated_neg and rep.limit.truncated_pos
    assert rep.limit.length_pos == 72 * spacing
    assert rep.integration_error == math.inf
    assert str(exc.value) == (
        "the order-10 leaf's integration error inf at h=1.563e-03 is not below tol=1.000e-08 "
        "(the h leaf reaches 193 of 201 nodes); "
        f"the order-10 leaf is truncated on the positive side at length {72 * spacing:.6e} of eps=2.500000e-02"
    )
