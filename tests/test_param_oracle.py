"""The Hénon and perturbed leaves against an independent construction of W^s.

``param_oracle`` builds the local stable manifold by the parameterization
method from the maps' formulas alone. The leaves come from the package's
pipeline at the oracle's saddle: budget, L and eps (``budget_to_epsilon``),
then ``cauchy_iterate``. The consecutive-leaf tests compare each order only
with the next; these compare every order with the manifold itself, so they
also see a field taken at the wrong order, which moves every leaf alike.
"""

import dataclasses
import math

import numpy as np
import pytest
from param_oracle import henon, perturbed

from stableleaf import EpsilonSchedule, Point2, make_map
from stableleaf.leaf import CONTRACTION_ORDERS, budget_to_epsilon, cauchy_iterate, contraction_check, integrate_leaf

# map, oracle, kmax, budget seed
SADDLES = {
    "henon": (make_map("henon", a=1.4, b=0.3), henon(1.4, 0.3), 12, 6),
    # |lambda_u| = 1.14 converges slowly: at kmax 12 the limit leaf is 1.5e-10 from W^s and its
    # centre tangent 1.2e-8 rad off a_1; at kmax 20 they are 1.6e-15 and 9.9e-14
    "henon-negative-b": (make_map("henon", a=1.4, b=-0.3), henon(1.4, -0.3), 20, 6),
    "perturbed": (make_map("perturbed", lambda_s=0.5, lambda_u=2.0, c=0.05), perturbed(0.5, 2.0, 0.05), 10, 5),
    "perturbed-steep": (make_map("perturbed", lambda_s=0.3, lambda_u=3.0, c=0.2), perturbed(0.3, 3.0, 0.2), 10, 5),
}
SERIES_RESIDUAL = 1e-15  # |phi(W(s)) - W(lam s)| on |s| <= 2 eps: the oracle is W^s to round-off
TANGENCY = 1e-12         # the limit leaf's tangent at p against a_1, in radians
# relative error of the contraction ratios against the exact ones, past the floor below
RATIO_REL = 1e-2
# the float floor of a ratio: an offset of the pair from W^s grows by |lambda_u| a map step, and
# each step rounds the pair's images by up to one ulp of a unit coordinate, 2^-53 a point
ROUND_OFF = 2.0 ** -52


@pytest.fixture(scope="module", params=sorted(SADDLES))
def run(request):
    m, w, kmax, seed = SADDLES[request.param]
    z = Point2(float(w.cx[0]), float(w.cy[0]))
    sched = EpsilonSchedule.constant(0.05)
    b, _, L, eps = budget_to_epsilon(m, z, sched, kmax, 800, seed)
    conv = cauchy_iterate(m, b, eps, 1e-8, L=L)
    return m, w, z, conv, b


def test_oracle_is_invariant(run):
    _, w, _, conv, _ = run
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
    _, w, _, conv, _ = run
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
    m, w, z, conv, _ = run
    limit_dist = float(np.max(w.distance(conv.limit.xs, conv.limit.ys)))
    for i, k in enumerate(conv.ks):
        leaf = integrate_leaf(m, z, k, conv.eps_chosen)
        true = float(np.max(w.distance(leaf.xs, leaf.ys)))
        assert true <= float(np.sum(conv.gronwall_bound[i:])) + limit_dist, k


def exact_ratios(w, s1, s2, n, lam):
    """|W(lam^j s1) - W(lam^j s2)| / |W(s1) - W(s2)| for j = 0..n: on W^s, phi is s -> lam s."""
    x1, y1 = w(lam ** np.arange(n + 1) * s1)
    x2, y2 = w(lam ** np.arange(n + 1) * s2)
    return np.hypot(x1 - x2, y1 - y2) / math.hypot(x1[0] - x2[0], y1[0] - y2[0])


def float_floor(w, pair, exact):
    """The relative error of each exact ratio that the pair's float positions imply.

    At step j the pair's measured offsets from W^s have grown by |lambda_u|^j,
    and the round-off of step i by |lambda_u|^(j - i); against the image
    distance exact_j * d0. On Henon (1.4, 0.3) at j = 12 one ulp (1.1e-16)
    of offset grows 2,570-fold, about 5% of the 5.2e-12 image distance.
    """
    gain = abs(w.lam_u) ** np.arange(len(exact))
    drift = np.sum(w.distance(pair.xs, pair.ys)) * gain + ROUND_OFF * (np.cumsum(gain) - gain)
    return drift / (exact * math.hypot(pair.xs[1] - pair.xs[0], pair.ys[1] - pair.ys[0]))


def test_contraction_ratios_match_the_manifold(run):
    # the limit leaf's two end nodes are its only pair, so the widest pair is known;
    # their forward distance ratios are the exact ones of W^s up to the pipeline's order
    m, w, _, conv, b = run
    lim = conv.limit
    ends = [0, len(lim.t) - 1]
    pair = dataclasses.replace(lim, t=lim.t[ends], xs=lim.xs[ends], ys=lim.ys[ends], thetas=lim.thetas[ends],
                               center_index=0)
    n = min(b.kmax, b.k0 + CONTRACTION_ORDERS)
    got = contraction_check(m, pair, b, n).widest_ratio
    s1, s2 = w.parameter(pair.xs, pair.ys)
    exact = exact_ratios(w, s1, s2, n, w.lam)
    bound = RATIO_REL + float_floor(w, pair, exact)
    assert np.all(np.abs(got / exact - 1.0) <= bound)
    # a rate off by a factor of 2 either way fails the same check
    for lam in (0.5 * w.lam, 2.0 * w.lam):
        assert np.any(np.abs(got / exact_ratios(w, s1, s2, n, lam) - 1.0) > bound)
