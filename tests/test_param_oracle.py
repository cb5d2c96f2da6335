"""The Hénon and perturbed leaves against an independent construction of W^s.

``param_oracle`` builds the local stable manifold by the parameterization
method from the maps' formulas alone. The leaves come from the package's
pipeline at the oracle's saddle: budget, L and eps (``budget_to_epsilon``),
then ``cauchy_iterate``. The consecutive-leaf tests compare each order only
with the next; these compare every order with the manifold itself, so they
also see a field taken at the wrong order, which moves every leaf alike.
"""

import math

import numpy as np
import pytest
from param_oracle import henon, perturbed

from stableleaf import EpsilonSchedule, Point2, make_map
from stableleaf.leaf import budget_to_epsilon, cauchy_iterate, integrate_leaf

# map, oracle, kmax, budget seed
SADDLES = {
    "henon": (make_map("henon", a=1.4, b=0.3), henon(1.4, 0.3), 12, 6),
    "perturbed": (make_map("perturbed", lambda_s=0.5, lambda_u=2.0, c=0.05), perturbed(0.5, 2.0, 0.05), 10, 5),
}
SERIES_RESIDUAL = 1e-15  # |phi(W(s)) - W(lam s)| on |s| <= 2 eps: the oracle is W^s to round-off
TANGENCY = 1e-12         # the limit leaf's tangent at p against a_1, in radians


@pytest.fixture(scope="module", params=sorted(SADDLES))
def run(request):
    m, w, kmax, seed = SADDLES[request.param]
    z = Point2(float(w.cx[0]), float(w.cy[0]))
    sched = EpsilonSchedule.constant(0.05)
    b, _, L, eps = budget_to_epsilon(m, z, sched, kmax, 800, seed)
    conv = cauchy_iterate(m, z, b, sched, eps, kmax, 1e-8, L=L)
    return m, w, z, conv


def test_oracle_is_invariant(run):
    _, w, _, conv = run
    eps = conv.eps_chosen
    assert w.residual(np.linspace(-2.0 * eps, 2.0 * eps, 201)) <= SERIES_RESIDUAL
    # a point of W^s off the saddle is at distance 0 from it; a point off W^s is not
    s = np.array([-eps, 0.3 * eps, eps])
    wx, wy = w(s)
    assert np.all(w.distance(wx, wy) <= 1e-16)
    assert np.all(np.abs(w.distance(wx + 1e-9 * w.cy[1], wy - 1e-9 * w.cx[1]) - 1e-9) <= 1e-12)


def test_limit_leaf_lies_on_the_stable_manifold(run):
    # the limit leaf is the order-kmax leaf; its distance to W^s is bounded by
    # the tail of the Gronwall radii past kmax, which the last radius bounds
    # here, since every radius is below half the one before
    _, w, _, conv = run
    om = conv.gronwall_bound
    assert np.all(om[1:] <= 0.5 * om[:-1])
    lim = conv.limit
    assert conv.converged and lim.length_neg == lim.length_pos == conv.eps_chosen
    assert np.max(w.distance(lim.xs, lim.ys)) <= om[-1]
    a1 = math.atan2(w.cy[1], w.cx[1])
    gap = (lim.thetas[lim.center_index] - a1) % math.pi
    assert min(gap, math.pi - gap) <= TANGENCY


def test_order_k_leaves_within_the_cauchy_tail(run):
    # d(L_k, W^s) <= sum_{k <= j < kmax} d(L_j, L_j+1) + d(L_kmax, W^s), and each
    # d(L_j, L_j+1) is at most omega_j: the paper's Cauchy bound, here checked
    # against the manifold rather than the next leaf
    m, w, z, conv = run
    limit_dist = float(np.max(w.distance(conv.limit.xs, conv.limit.ys)))
    for i, k in enumerate(conv.ks):
        leaf = integrate_leaf(m, z, k, conv.eps_chosen)
        true = float(np.max(w.distance(leaf.xs, leaf.ys)))
        assert true <= float(np.sum(conv.gronwall_bound[i:])) + limit_dist, k
