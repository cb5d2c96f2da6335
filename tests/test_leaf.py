import math

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
    estimate_budget,
    integrate_leaf,
    uniqueness_probe,
)
from stableleaf.budget import SAMPLE_SLACK, HyperbolicityBudget
from stableleaf.directions import direction_field_derivative, field_lipschitz
from stableleaf.errors import BadParamsError, DegenerateLeafError, NoFeasibleEpsilonError, NotConvergedError, NumericalError
from stableleaf.leaf import convex_hull_halfplanes, hull_contains, rk4_streamline


def synthetic_budget(k0=2, kmax=8, eps0=1.0, xi_value=0.0):
    n = kmax + 1
    return HyperbolicityBudget(
        z=Point2(0, 0), kmax=kmax, n=0, seed=0, eps0=eps0,
        p=np.ones(n), q=np.ones(n), pt=np.zeros(n),
        gamma=np.ones(n), gamma_star=np.zeros(n), delta=np.zeros(n),
        fmax=np.ones(n), terms=np.zeros(kmax), xi=np.full(kmax, xi_value),
        gamma_tilde=np.zeros(n), star_terms=np.zeros(kmax),
        star_partial_sums=np.zeros(kmax - 1), k0=k0,
        cocycle=None, samples={}, accepted_counts={},
    )


def test_choose_epsilon_gamma_binding():
    b = synthetic_budget(eps0=1.0)
    sched = EpsilonSchedule.constant(1.0)
    eps = choose_epsilon(b, gamma=2.0, L=0.0, sched=sched)
    # largest dyadic 2^-m with eps * 2 < 1 strictly
    assert eps == 0.25


def test_choose_epsilon_degenerate_constraints():
    b = synthetic_budget(eps0=1.0)
    sched = EpsilonSchedule.constant(1.0)
    eps = choose_epsilon(b, gamma=0.0, L=0.0, sched=sched)
    assert eps == 1.0  # ladder top


def test_choose_epsilon_infeasible():
    b = synthetic_budget()
    sched = EpsilonSchedule.constant(1.0)
    with pytest.raises(NoFeasibleEpsilonError):
        choose_epsilon(b, gamma=math.inf, L=0.0, sched=sched)


def test_choose_epsilon_huge_eps_l_is_infeasible():
    # eps * L = 1e300 at the top rung: exp(eps * L) would overflow
    b = synthetic_budget()
    with pytest.raises(NoFeasibleEpsilonError):
        choose_epsilon(b, gamma=0.0, L=1e300, sched=EpsilonSchedule.constant(1.0))


def test_choose_epsilon_hull_precheck_bites(linear_map):
    # with stored samples the tube pre-check rejects the first Gamma-feasible
    # rung (the inflated square pokes out of the order-k0 sample hull in y);
    # stripping the samples skips the pre-check and keeps that rung
    sched = EpsilonSchedule.constant(0.1)
    b = estimate_budget(linear_map, Point2(0, 0), sched, kmax=10, n=1000, seed=3)
    rep = check_condition_double_star(b, sched)
    eps_checked = choose_epsilon(b, rep.gamma_required, 0.0, sched)
    b.samples = {}
    eps_unchecked = choose_epsilon(b, rep.gamma_required, 0.0, sched)
    assert eps_unchecked == 0.05
    assert eps_checked == 0.025


def test_choose_epsilon_linear_reverify(linear_map):
    sched = EpsilonSchedule.constant(0.1)
    b = estimate_budget(linear_map, Point2(0, 0), sched, kmax=10, n=600, seed=3)
    rep = check_condition_double_star(b, sched)
    coc = build_orbit_cocycle(linear_map, Point2(0, 0), 10)
    L = direction_field_derivative(linear_map, coc, 10, 1e-4, budget=b)[0]
    eps = choose_epsilon(b, rep.gamma_required, L, sched)
    assert eps > 0.0
    assert eps * rep.gamma_required < 1.0
    assert math.exp(eps * L) < 2.0


def test_hull_halfplanes_square():
    pts = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0), (0.5, 0.5), (0.5, 0.0), (1.0, 1.0)]
    hp = convex_hull_halfplanes(pts)
    assert hp.shape == (4, 3)  # the interior, edge and duplicate points add no edge
    assert np.allclose(np.hypot(hp[:, 0], hp[:, 1]), 1.0)
    for corner in pts[:4]:
        assert np.max(hp[:, :2] @ corner + hp[:, 2]) == pytest.approx(0.0, abs=1e-15)
    assert hull_contains(hp, [(0.5, 0.5), (0.0, 0.0), (1.0, 0.3)])
    assert not hull_contains(hp, [(0.5, 0.5), (1.0 + 1e-9, 0.5)])


@pytest.mark.parametrize("pts", [
    [],
    [(0.2, 0.3)],
    [(0.2, 0.3)] * 4,
    [(-1.0, -1.0), (1.0, 1.0)],
    [(-1.0, -1.0), (0.0, 0.0), (1.0, 1.0), (0.5, 0.5), (0.0, 0.0)],
    [(0.0, 2.0), (0.0, -1.0), (0.0, 0.5)],
])
def test_hull_without_interior_contains_no_square(pts):
    hp = convex_hull_halfplanes(pts)
    assert hp.shape == (0, 3)
    assert not hull_contains(hp, [(0.0, 0.0), (1e-3, 1e-3), (0.0, 1e-3), (1e-3, 0.0)])


def test_choose_epsilon_collinear_sample_rejects_every_rung():
    # a diagonal sample through z has a bounding box holding every rung's
    # square, but no interior, so the pre-check must reject all of them
    b = synthetic_budget(eps0=1.0)
    b.samples = {b.k0: [Point2(-1.0, -1.0), Point2(0.5, 0.5), Point2(1.0, 1.0)]}
    with pytest.raises(NoFeasibleEpsilonError):
        choose_epsilon(b, gamma=0.0, L=0.0, sched=EpsilonSchedule.constant(1.0))


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


def test_cauchy_validation(linear_map):
    sched = EpsilonSchedule.constant(0.1)
    b = estimate_budget(linear_map, Point2(0, 0), sched, kmax=6, n=50, seed=1)
    with pytest.raises(BadParamsError):
        cauchy_iterate(linear_map, Point2(0, 0), b, sched, 0.01, b.k0, 1e-6, L=0.0)


def test_integrate_leaf_truncation(linear_map):
    # base point near the domain edge: the positive-x side leaves the box
    leaf = integrate_leaf(linear_map, Point2(4.9, 0.0), 3, 0.5)
    assert leaf.truncated_pos or leaf.truncated_neg
    assert len(leaf.t) < leaf.grid_points


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
    from stableleaf.directions import contracted_theta_fast, angle_distance

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


def _linear_pipeline(linear_map, kmax=10, tol=1e-8):
    z = Point2(0, 0)
    sched = EpsilonSchedule.constant(0.1)
    b = estimate_budget(linear_map, z, sched, kmax=kmax, n=500, seed=3)
    rep = check_condition_double_star(b, sched)
    coc = build_orbit_cocycle(linear_map, z, kmax)
    L = direction_field_derivative(linear_map, coc, kmax, 1e-4, budget=b)[0]
    eps = choose_epsilon(b, rep.gamma_required, L, sched)
    conv = cauchy_iterate(linear_map, z, b, sched, eps, kmax, tol, L=L)
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
    eps = choose_epsilon(b, rep.gamma_required, L, sched)
    conv = cauchy_iterate(perturbed_map, z, b, sched, eps, kmax, 1e-6, L=L)
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
    eps = choose_epsilon(b, rep.gamma_required, L, sched)
    conv = cauchy_iterate(henon_map, z, b, sched, eps, kmax, 1e-8, L=L)
    assert conv.converged
    assert np.all(np.diff(conv.d_k) < 0.0)
    assert np.all(conv.d_k <= conv.gronwall_bound * SAMPLE_SLACK)


def test_cauchy_not_converged_carries_report(henon_map):
    z = Point2(0.6313544770895252, 0.18940634312685756)
    sched = EpsilonSchedule.constant(0.05)
    b = estimate_budget(henon_map, z, sched, kmax=6, n=300, seed=7)
    L = field_lipschitz(henon_map, build_orbit_cocycle(henon_map, z, 6), 6)
    with pytest.raises(NotConvergedError) as exc:
        cauchy_iterate(henon_map, z, b, sched, 0.01, 6, tol=1e-300, L=L)
    err = exc.value
    assert err.report is not None
    assert len(err.report.d_k) == len(err.report.ks)
    assert err.last_distance == err.report.d_k[-1]


def test_cauchy_degenerate_leaves_not_converged(linear_map):
    # every leaf stops at its centre node: the first RK4 stage leaves the box
    sched = EpsilonSchedule.constant(0.1)
    b = estimate_budget(linear_map, Point2(0, 0), sched, kmax=6, n=50, seed=1)
    with pytest.raises(NotConvergedError) as exc:
        cauchy_iterate(linear_map, Point2(0, 0), b, sched, 1e300, 6, 1e-8, L=0.0)
    rep = exc.value.report
    assert len(rep.limit.t) == 1
    assert not rep.converged
    assert np.all(np.isinf(rep.d_k))
    with pytest.raises(DegenerateLeafError) as err:
        contraction_check(linear_map, rep.limit, b, n=4, seed=1)
    assert isinstance(err.value, NumericalError)


def test_contraction_linear_exact(linear_map):
    # kmax well past the checked orders so the truncated gamma_tilde tail is
    # close to its limit (11/3) 2^-n
    b, sched, eps, conv = _linear_pipeline(linear_map, kmax=16)
    cr = contraction_check(linear_map, conv.limit, b, n=10, seed=2)
    assert cr.max_ratio[0] == 1.0
    for n in range(11):
        assert cr.max_ratio[n] == pytest.approx(0.5 ** n, rel=1e-12)
        assert cr.widest_ratio[n] == pytest.approx(0.5 ** n, rel=1e-12)
    # gamma_tilde_n approaches (11/3) 2^-n, so the fitted constant sits near 3/11
    assert cr.C_fit == pytest.approx(3.0 / 11.0, rel=0.05)


def test_contraction_rejects_deep_n(linear_map):
    b, sched, eps, conv = _linear_pipeline(linear_map)
    with pytest.raises(BadParamsError):
        contraction_check(linear_map, conv.limit, b, n=b.kmax + 1, seed=1)


def test_uniqueness_probe_linear(linear_map):
    b, sched, eps, conv = _linear_pipeline(linear_map, kmax=12)
    rep = uniqueness_probe(linear_map, Point2(0, 0), sched, conv.limit, 12, probes=150, seed=9)
    assert rep.on_leaf_exits == 0
    assert rep.on_leaf_checked > 0
    # every probe that survives must hug the leaf; everything farther must exit
    for pr in rep.probes:
        if pr.exit_step is None:
            assert pr.distance_to_leaf <= 0.1 * 2.0 ** -11
        if pr.distance_to_leaf > 2e-3:
            assert pr.exit_step is not None


def test_uniqueness_probe_henon_off_leaf(henon_map):
    z = Point2(0.6313544770895252, 0.18940634312685756)
    sched = EpsilonSchedule.constant(0.05)
    from stableleaf.budget import SAMPLE_SLACK, reference_orbit
    from stableleaf import first_tube_exit

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
