"""The array passes of the checks around the leaves against their scalar references.

Each reference below is the per-order or per-lane loop that the package
ran before it took one array pass, moved here with its arithmetic
unchanged; the contraction reference steps one node at a time with eval_xy
and measures one pair at a time with norm2, and the Cauchy reference traces
one LeafCurve per order. The package must agree with it bit for bit: the
same tube verdicts, ratios, distances and exits, and the same error type
and message where a contraction node leaves the domain.
"""

import dataclasses
import math
import warnings

import numpy as np
import pytest

from stableleaf import EpsilonSchedule, Point2, cauchy_iterate, contraction_check, eigen_split, make_map
from stableleaf import uniqueness_probe
from stableleaf.budget import tube_exits
from stableleaf.cocycle import norm2
from stableleaf.errors import DomainError, NonFiniteError, NotConvergedError
from stableleaf.leaf import (
    DEFAULT_GRID,
    DEFAULT_STEP_DIV,
    TUBE_STRIDE,
    ContractionReport,
    LeafCurve,
    UniquenessReport,
    budget_to_epsilon,
    integrate_leaf,
)
from stableleaf.maps import MapModel

from conftest import ref_first_tube_exit
from test_param_oracle import SADDLES


def ref_tube_ok(m, b, sched, eps, L, leaves):
    """cauchy_iterate's tube containment with one tube_exits call per order k, to step k."""
    tube_ok = []
    egl = math.exp(L * eps)
    for k in range(b.k0, b.kmax):
        xi_k = float(b.xi[k]) if k < len(b.xi) else math.inf
        omega = eps * xi_k * egl
        leafk = leaves[k]
        nodes = sorted(set(range(0, len(leafk.t), TUBE_STRIDE)) | {0, len(leafk.t) - 1})
        thetas = leafk.thetas[nodes].tolist()
        fx = np.array([-math.sin(th) for th in thetas])
        fy = np.array([math.cos(th) for th in thetas])
        px, py = leafk.xs[nodes], leafk.ys[nodes]
        sw = np.array([omega, -omega])[:, None]  # s * omega for s = +1, -1
        with np.errstate(invalid="ignore", over="ignore"):  # omega may be +inf: inf and nan, as floats give
            dx, dy = (px + sw * fx).ravel(), (py + sw * fy).ravel()
        exits = tube_exits(m, b.cocycle.orbit, dx, dy, sched, k)
        ok = not np.any(exits >= 0)
        tube_ok.append(ok)
    return tube_ok


def leaf_distance(a, bcurve):
    """Max pointwise distance at matched t over the common grid range, and its node count.

    Fewer than 2 common nodes span no arc, so the distance is +inf.
    """
    lo = -min(a.center_index, bcurve.center_index)
    hi = min(len(a.t) - a.center_index, len(bcurve.t) - bcurve.center_index)
    ia, ib = a.center_index, bcurve.center_index
    sl_a = slice(ia + lo, ia + hi)
    sl_b = slice(ib + lo, ib + hi)
    dx = a.xs[sl_a] - bcurve.xs[sl_b]
    dy = a.ys[sl_a] - bcurve.ys[sl_b]
    if hi - lo < 2:
        return math.inf, hi - lo
    return float(np.max(np.hypot(dx, dy))), hi - lo


def ref_cauchy_checks(m, b, eps, L):
    """cauchy_iterate's leaf checks with one LeafCurve per order: (d_k, restricted, tube_ok, step error, error).

    The Cauchy leaves are integrate_leaf calls at eps/2, consecutive ones are
    compared by leaf_distance, and each order's tube nodes move along the
    normal (-sin theta, cos theta) of the leaf's unwrapped theta, all orders'
    nodes in one tube_exits call to step kmax - 1. The order-kmax Cauchy leaf
    is compared with the partner leaf at the default h, and the partner with
    the limit leaf at h/2.
    """
    k0, kmax = b.k0, b.kmax
    egl = math.exp(L * eps)
    leaves = {k: integrate_leaf(m, b.cocycle.z0, k, eps, h=eps / 2) for k in range(k0, kmax + 1)}

    ks = list(range(k0, kmax))
    d_k = np.empty(len(ks))
    bounds = np.empty(len(ks))
    restricted = []
    dxs, dys = [], []  # the displaced nodes of every order
    for i, k in enumerate(ks):
        d, shared = leaf_distance(leaves[k], leaves[k + 1])
        d_k[i] = d
        restricted.append(shared < DEFAULT_GRID)
        bounds[i] = eps * float(b.xi[k]) * egl

        leafk = leaves[k]
        nodes = sorted(set(range(0, len(leafk.t), TUBE_STRIDE)) | {0, len(leafk.t) - 1})
        thetas = leafk.thetas[nodes].tolist()
        fx = np.array([-math.sin(th) for th in thetas])
        fy = np.array([math.cos(th) for th in thetas])
        px, py = leafk.xs[nodes], leafk.ys[nodes]
        sw = np.array([bounds[i], -bounds[i]])[:, None]  # s * omega for s = +1, -1
        with np.errstate(invalid="ignore", over="ignore"):  # omega may be +inf: inf and nan, as floats give
            dxs.append((px + sw * fx).ravel())
            dys.append((py + sw * fy).ravel())
    exits = tube_exits(m, b.cocycle.orbit, np.concatenate(dxs), np.concatenate(dys), b.sched, kmax - 1)
    per_order = np.split(exits, np.cumsum([len(a) for a in dxs[:-1]]))
    tube_ok = [not np.any((e >= 0) & (e <= k)) for k, e in zip(ks, per_order)]

    partner = integrate_leaf(m, b.cocycle.z0, kmax, eps, h=2.0 * eps / DEFAULT_STEP_DIV)
    limit = integrate_leaf(m, b.cocycle.z0, kmax, eps, h=partner.h / 2)
    dev, reached = leaf_distance(partner, limit)
    return d_k, restricted, tube_ok, leaf_distance(leaves[kmax], partner)[0], dev if reached == len(limit.t) else math.inf


def same_cauchy_checks(conv, want):
    d_k, restricted, tube_ok, step_error, error = want
    assert bits(conv.d_k) == bits(d_k)
    assert (conv.restricted, conv.tube_ok) == (restricted, tube_ok)
    assert all(type(v) is bool for v in conv.restricted + conv.tube_ok)
    assert type(conv.cauchy_step_error) is float and conv.cauchy_step_error.hex() == step_error.hex()
    assert type(conv.integration_error) is float and conv.integration_error.hex() == error.hex()


def contraction_nodes(leaf):
    """The nodes contraction_check steps: every 8th leaf node, plus the last."""
    return sorted(set(range(0, len(leaf.t), 8)) | {len(leaf.t) - 1})


def ref_node_orbits(m, leaf, n):
    """Each step's images of the contraction nodes, from eval_xy one node at a time, in node order."""
    pts = [[(float(leaf.xs[i]), float(leaf.ys[i])) for i in contraction_nodes(leaf)]]
    for _ in range(n):
        pts.append([m.eval_xy(x, y) for x, y in pts[-1]])
    return pts


def ref_pair_ratio(pts, a, c):
    """(d0, ratios) of the a-th and c-th contraction nodes: their distance, by norm2, and its ratio at each step."""
    d = [norm2(p[a][0] - p[c][0], p[a][1] - p[c][1]) for p in pts]
    return d[0], (np.array([v / d[0] for v in d]) if d[0] != 0.0 else None)


def ref_contraction_check(m, leaf, b, n):
    """contraction_check stepping one node at a time with eval_xy and measuring one pair at a time."""
    pts = ref_node_orbits(m, leaf, n)
    max_ratio = np.zeros(n + 1)
    widest_ratio = np.zeros(n + 1)
    widest_d0 = 0.0
    for a in range(len(pts[0])):
        for c in range(a + 1, len(pts[0])):
            d0, track = ref_pair_ratio(pts, a, c)
            if d0 == 0.0 or not math.isfinite(d0):
                continue
            np.maximum(max_ratio, track, out=max_ratio)
            if d0 > widest_d0:
                widest_d0 = d0
                widest_ratio = track
    gt = b.gamma_tilde[: n + 1].copy()
    start = b.k0 or 1
    cfit = 0.0
    for order in range(start, n + 1):
        if gt[order] > 0.0:
            cfit = max(cfit, max_ratio[order] / gt[order])
    return ContractionReport(max_ratio=max_ratio, widest_ratio=widest_ratio, C_fit=cfit)


def ref_uniqueness_probe(m, b, leaf):
    """uniqueness_probe with one ref_first_tube_exit call per ladder lane and the fold written as loops."""
    kmax, sched, ref, F = b.kmax, b.sched, b.cocycle.orbit, b.cocycle.F
    rungs = [sched.radius(0) * 2.0 ** -r for r in range(math.ceil(math.log2(F[kmax])) + 3)]

    def tests_passed(i, off):
        """kmax + 1 where the lane off node i along its normal stays in every tube, else its exit step."""
        th = float(leaf.thetas[i])
        x, y = float(leaf.xs[i]) + off * -math.sin(th), float(leaf.ys[i]) + off * math.cos(th)
        e = ref_first_tube_exit(m, ref, (x, y), sched, kmax)
        return kmax + 1 if e is None else e

    nodes = range(0, len(leaf.xs), 8)
    on_leaf_exits = sum(tests_passed(i, 0.0) <= kmax for i in nodes)
    first = [min(tests_passed(i, s * r) for s in (1.0, -1.0) for i in nodes) for r in rungs]
    width = []
    for j in range(kmax + 1):
        w = 0.0
        for r in reversed(range(len(rungs))):  # from the smallest rung up, while every lane passes j tests
            if first[r] <= j:
                break
            w = rungs[r]
        width.append(w)
    ratio = [w * float(F[j]) / sched.radius(j) for j, w in enumerate(width)]
    return UniquenessReport(
        on_leaf_exits=on_leaf_exits, width=np.array(width), ratio=np.array(ratio),
        outside_band=[j for j, q in enumerate(ratio) if not 0.25 <= q <= 2.0],
    )


def bits(a) -> bytes:
    return np.asarray(a, dtype=float).tobytes()


def same_contraction(got, want):
    assert bits(got.max_ratio) == bits(want.max_ratio)
    assert bits(got.widest_ratio) == bits(want.widest_ratio)
    assert got.C_fit.hex() == want.C_fit.hex()


def henon_stages(seed, L=None):
    """theorem-henon's stages up to the Cauchy iteration: (m, budget, schedule, eps, L, report)."""
    m = make_map("henon", a=1.4, b=0.3)
    sched = EpsilonSchedule.constant(0.05)
    fp = eigen_split(m, Point2(0.6, 0.2))
    b, _, L_measured, eps = budget_to_epsilon(m, fp.p, sched, 12, 2000, seed)
    L = L_measured if L is None else L
    try:
        conv = cauchy_iterate(m, b, eps, 1e-8, L=L)
    except NotConvergedError as exc:
        conv = exc.report
    return m, b, sched, eps, L, conv


def leaves_of(m, b, eps):
    return {k: integrate_leaf(m, b.cocycle.z0, k, eps) for k in range(b.k0, b.kmax)}


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_tube_checks_match_the_per_order_passes(seed):
    m, b, sched, eps, L, conv = henon_stages(seed)
    want = ref_tube_ok(m, b, sched, eps, L, leaves_of(m, b, eps))
    assert conv.tube_ok == want
    assert all(want)


@pytest.mark.parametrize("L, failing", [(800.0, 3), (1200.0, 6)])
def test_tube_checks_match_where_some_orders_fail(L, failing):
    # a large L inflates omega_k = eps xi_k e^(L eps); xi_k falls with k, so
    # the low orders' displaced nodes leave their tubes and the high ones' stay
    m, b, sched, eps, L, conv = henon_stages(2, L=L)
    want = ref_tube_ok(m, b, sched, eps, L, leaves_of(m, b, eps))
    assert conv.tube_ok == want
    assert want == [False] * failing + [True] * (10 - failing)
    same_cauchy_checks(conv, ref_cauchy_checks(m, b, eps, L))


def test_tube_checks_match_where_omega_is_infinite():
    # xi_k = inf at every other order: those orders' nodes are displaced to inf or NaN
    m, b, sched, eps, L, _ = henon_stages(2)
    b = dataclasses.replace(b, xi=np.where(np.arange(len(b.xi)) % 2, np.inf, b.xi))
    conv = cauchy_iterate(m, b, eps, 1e-8, L=L)
    want = ref_tube_ok(m, b, sched, eps, L, leaves_of(m, b, eps))
    assert conv.tube_ok == want
    assert want == [k % 2 == 0 for k in range(b.k0, b.kmax)]
    same_cauchy_checks(conv, ref_cauchy_checks(m, b, eps, L))


def cauchy_report(m, b, eps, L):
    try:
        return cauchy_iterate(m, b, eps, 1e-8, L=L)
    except NotConvergedError as exc:
        return exc.report


@pytest.mark.parametrize("seed", range(1, 6))
def test_cauchy_checks_match_the_leaf_by_leaf_loop(seed):
    m, b, sched, eps, L, conv = henon_stages(seed)
    want = ref_cauchy_checks(m, b, eps, L)
    same_cauchy_checks(conv, want)
    assert all(want[2]) and not any(want[1]) and 1e-12 < want[3] < 1e-11


@pytest.mark.parametrize("name", sorted(SADDLES))
def test_cauchy_checks_match_the_leaf_by_leaf_loop_on_the_oracle_saddles(name):
    m, w, kmax, seed = SADDLES[name]
    b, _, L, eps = budget_to_epsilon(m, Point2(float(w.cx[0]), float(w.cy[0])),
                                     EpsilonSchedule.constant(0.05), kmax, 800, seed)
    same_cauchy_checks(cauchy_iterate(m, b, eps, 1e-8, L=L), ref_cauchy_checks(m, b, eps, L))


# singular strips across the linear saddle's stable leaf, the x axis, whose
# field at x is singular for order k where some x / 2^j, j < k, lies in a strip.
# The Cauchy leaves at eps/2 = 64 cells (eps = 0.025) have their stage points
# at 32, 64, 96 and 128 cells: (a) strips at +2 and -0.5 cells meet the first
# step's from order 5 on the positive side and from order 7 on the negative
# one, so orders 7-10 reach z alone and the pairs from (6, 7) on share fewer
# than 2 nodes (d_k = inf); (b) a strip at 6 cells meets the second step's
# from order 5 on, so those orders stop at 64 cells on the positive side
STRIPS = {"first-steps": (2.0, -0.5), "second-step": (6.0,)}


@pytest.mark.parametrize("case", sorted(STRIPS))
def test_cauchy_checks_match_the_leaf_by_leaf_loop_where_cauchy_sides_truncate(case):
    linear = make_map("linear", lambda_s=0.5, lambda_u=2.0)
    b, _, L, eps = budget_to_epsilon(linear, Point2(0.0, 0.0), EpsilonSchedule.constant(0.1), 10, 500, 3)
    assert eps == 0.025 and b.k0 == 2
    mids = [c * eps / 128 for c in STRIPS[case]]
    m = dataclasses.replace(linear, singular_guard=lambda x, y: min(abs(x - c) for c in mids) - 1e-3 * eps / 128)
    conv = cauchy_report(m, b, eps, L)
    want = ref_cauchy_checks(m, b, eps, L)
    same_cauchy_checks(conv, want)
    if case == "first-steps":
        assert np.isfinite(conv.d_k[:4]).all() and conv.d_k[4:].tolist() == [math.inf] * 4
    else:
        assert np.isfinite(conv.d_k).all()
    assert conv.restricted == [False] * 2 + [True] * 6


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_contraction_matches_the_pair_loop_henon(seed):
    m, b, sched, eps, L, conv = henon_stages(seed)
    n = min(b.kmax, b.k0 + 10)
    got = contraction_check(m, conv.limit, b, n)
    same_contraction(got, ref_contraction_check(m, conv.limit, b, n))
    # the limit leaf is near straight, so its widest pair is its two ends, nodes 0 and 256 (the 33rd node stepped)
    assert len(conv.limit.t) == 257
    assert bits(got.widest_ratio) == bits(ref_pair_ratio(ref_node_orbits(m, conv.limit, n), 0, 32)[1])


def test_contraction_matches_the_pair_loop_with_a_float_only_map():
    # math.fabs rejects arrays, so apply_lanes steps each node on its own
    m, b, sched, eps, L, conv = henon_stages(2)
    floats_only = dataclasses.replace(
        m, raw_eval=lambda x, y: (1.0 - 1.4 * x * x + y, 0.3 * math.copysign(math.fabs(x), x)))
    with pytest.raises(TypeError):
        floats_only.raw_eval(np.zeros(2), np.zeros(2))
    n = min(b.kmax, b.k0 + 10)
    got = contraction_check(floats_only, conv.limit, b, n)
    same_contraction(got, ref_contraction_check(floats_only, conv.limit, b, n))
    same_contraction(got, contraction_check(m, conv.limit, b, n))


def linear_stages(kmax=12):
    m = make_map("linear", lambda_s=0.5, lambda_u=2.0)
    sched = EpsilonSchedule.constant(0.1)
    b, _, L, eps = budget_to_epsilon(m, Point2(0.0, 0.0), sched, kmax, 500, 1)
    return m, b, sched, cauchy_iterate(m, b, eps, 1e-8, L=L)


@pytest.mark.parametrize("n", [0, 1, 6, 12])
def test_contraction_matches_the_pair_loop_linear(n):
    m, b, sched, conv = linear_stages()
    same_contraction(contraction_check(m, conv.limit, b, n), ref_contraction_check(m, conv.limit, b, n))


def hand_leaf(xs, ys, k=3):
    """A LeafCurve on the given nodes, centred on the middle one."""
    xs, ys = np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)
    c = len(xs) // 2
    t = 0.01 * (np.arange(len(xs)) - c)
    return LeafCurve(
        k=k, eps=0.01 * max(c, 1), h=0.01, t=t, xs=xs, ys=ys,
        thetas=np.zeros(len(xs)), center_index=c, truncated_neg=False, truncated_pos=False,
        grid_points=len(xs),
    )


def strided_leaf(xs, ys):
    """A hand_leaf whose nodes 0, 8, 16, ... lie at the given points, straight segments between them."""
    at = 8 * np.arange(len(xs))
    grid = np.arange(at[-1] + 1)
    return hand_leaf(np.interp(grid, at, xs), np.interp(grid, at, ys))


def test_contraction_skips_coincident_pairs_as_the_pair_loop():
    m, b, sched, conv = linear_stages()
    # 27 nodes: node 24 coincides with node 8, and the last, 26, is off the stride and the far end
    xs, ys = np.linspace(0.0, 0.026, 27), 0.01 * np.sin(np.arange(27.0))
    xs[24], ys[24] = xs[8], ys[8]
    xs[26], ys[26] = 0.2, 0.05
    leaf = hand_leaf(xs, ys)
    assert contraction_nodes(leaf) == [0, 8, 16, 24, 26]
    for n in (0, 5):
        same_contraction(contraction_check(m, leaf, b, n), ref_contraction_check(m, leaf, b, n))


@pytest.mark.parametrize("turn", range(4))
def test_contraction_widest_pair_is_the_first_drawn_of_a_tie(turn):
    # the corners of a square at nodes 0, 8, 16 and 24: both diagonals are the
    # widest pairs, with the same d0 bits and different images under the Henon
    # map; pairs are drawn in node order, so (0, 16) comes before (8, 24)
    m, b, sched, eps, L, conv = henon_stages(2)
    corners = np.roll(np.array([[0.0, 0.0], [0.5, 0.0], [0.5, 0.5], [0.0, 0.5]]), turn, axis=0)
    leaf = strided_leaf(*corners.T)
    got = contraction_check(m, leaf, b, 3)
    same_contraction(got, ref_contraction_check(m, leaf, b, 3))
    pts = ref_node_orbits(m, leaf, 3)
    assert bits(got.widest_ratio) == bits(ref_pair_ratio(pts, 0, 2)[1])
    assert bits(got.widest_ratio) != bits(ref_pair_ratio(pts, 1, 3)[1])  # the diagonals' ratios differ


def test_contraction_with_every_pair_coincident():
    m, b, sched, conv = linear_stages()
    leaf = hand_leaf([0.2] * 11, [0.1] * 11)
    got = contraction_check(m, leaf, b, 4)
    same_contraction(got, ref_contraction_check(m, leaf, b, 4))
    assert got.max_ratio.tolist() == [0.0] * 5


@pytest.mark.parametrize("far", [1e200, 1e308])
def test_contraction_of_far_nodes_warns_nothing(far):
    # the pair (-far, 0), (far, 0) on a box of +-1.7e308: at 1e200 the distance's
    # squares overflow, at 1e308 the difference itself does, so the pair's first
    # distance is inf and it is skipped, as a coincident pair is, rather than
    # giving the ratios inf / inf; the array pass takes them as Python floats do,
    # with no warning
    m, b, sched, conv = linear_stages()
    m = dataclasses.replace(m, box=(-1.7e308, 1.7e308, -1.7e308, 1.7e308))
    leaf = hand_leaf([-far, 0.0, far], [0.0, 0.0, 0.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = contraction_check(m, leaf, b, 2)
    same_contraction(got, ref_contraction_check(m, leaf, b, 2))
    assert not np.isnan(got.max_ratio).any() and not np.isnan(got.widest_ratio).any()


def raised(fn, *args):
    with pytest.raises(Exception) as err:
        fn(*args)
    return type(err.value), str(err.value)


@pytest.mark.parametrize("seed", range(6))
def test_contraction_pair_leaving_the_box_raises_as_the_pair_loop(seed):
    # y doubles each step under the linear map, so a node at y leaves the
    # default box (|y| <= 5) at the step where 2^step y first exceeds 5:
    # the first failure comes at step 2, 3 or 4, with several nodes failing there, either sign first
    m, b, sched, conv = linear_stages()
    ys = np.random.default_rng(seed).permutation(np.linspace(0.2, 4.0, 11)) / 2.0 ** (seed % 3)
    ys *= np.where(np.arange(11) % 2, 1.0, -1.0)
    leaf = strided_leaf(np.linspace(-0.1, 0.1, 11), ys)
    got = raised(contraction_check, m, leaf, b, 6)
    want = raised(ref_contraction_check, m, leaf, b, 6)
    assert got == want
    assert got[0] is DomainError


def test_contraction_non_finite_image_raises_as_the_pair_loop():
    blowup = MapModel(
        name="blowup", params={}, raw_eval=lambda x, y: (0.5 * x, 1e200 * y),
        box=(-math.inf, math.inf, -math.inf, math.inf),
    )
    m, b, sched, conv = linear_stages()
    leaf = strided_leaf(np.linspace(-0.1, 0.1, 9), np.linspace(1e-150, 1.0, 9))
    with np.errstate(over="ignore"):
        got = raised(contraction_check, blowup, leaf, b, 4)
        want = raised(ref_contraction_check, blowup, leaf, b, 4)
    assert got == want
    assert got[0] is NonFiniteError and "returned non-finite value" in got[1]


def same_uniqueness(got, want):
    assert (got.on_leaf_exits, got.outside_band) == (want.on_leaf_exits, want.outside_band)
    assert type(got.on_leaf_exits) is int and all(type(j) is int for j in got.outside_band)
    for key in ("width", "ratio"):
        assert bits(getattr(got, key)) == bits(getattr(want, key)), key


@pytest.mark.parametrize("seed", [0, 1, 2, 200])
def test_uniqueness_matches_the_probe_loop(seed):
    m, b, sched, eps, L, conv = henon_stages(seed)
    got = uniqueness_probe(m, b, conv.limit)
    same_uniqueness(got, ref_uniqueness_probe(m, b, conv.limit))
    # the strip narrows with the order, over many rungs
    assert len(got.width) == b.kmax + 1 and np.all(np.diff(got.width) <= 0.0) and len(set(got.width.tolist())) > 4


def test_uniqueness_on_a_one_node_leaf():
    m, b, sched, conv = linear_stages()
    leaf = hand_leaf([0.0], [0.0])
    got = uniqueness_probe(m, b, leaf)
    same_uniqueness(got, ref_uniqueness_probe(m, b, leaf))
    assert got.on_leaf_exits == 0 and got.width[0] == sched.radius(0)
