"""The array passes of the checks around the leaves against their scalar references.

Each reference below is the per-order, per-pair, per-probe or numpy-scalar
loop that the package ran before it took one array pass, moved here with
its arithmetic unchanged. The package must agree with it bit for bit: the
same tube verdicts, ratios, distances, exits and half-planes, and the same
error type and message where a contraction pair leaves the domain.
"""

import dataclasses
import math

import numpy as np
import pytest

from stableleaf import EpsilonSchedule, Point2, cauchy_iterate, contraction_check, eigen_split, make_map
from stableleaf import uniqueness_probe
from stableleaf.budget import estimate_budget, tube_exits
from stableleaf.errors import DomainError, NonFiniteError, NotConvergedError
from stableleaf.leaf import (
    CONTRACTION_PAIRS,
    TUBE_STRIDE,
    ContractionReport,
    LeafCurve,
    ProbeRecord,
    UniquenessReport,
    _inside_octagon,
    budget_to_epsilon,
    convex_hull_halfplanes,
    integrate_leaf,
)
from stableleaf.maps import MapModel
from stableleaf.rng import SplitRng


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


def ref_contraction_check(m, leaf, b, n, seed):
    """contraction_check stepping one pair at a time with eval_xy."""
    rng = SplitRng(seed).substream(2)
    npts = len(leaf.t)
    max_ratio = np.zeros(n + 1)
    widest_ratio = np.zeros(n + 1)
    widest_d0 = 0.0
    ev = m.eval_xy
    for _ in range(CONTRACTION_PAIRS):
        i = rng.randint(npts)
        j = rng.randint(npts)
        while j == i:
            j = rng.randint(npts)
        ax, ay = leaf.xs[i], leaf.ys[i]
        bx, by = leaf.xs[j], leaf.ys[j]
        d0 = math.hypot(ax - bx, ay - by)
        if d0 == 0.0:
            continue
        track = np.empty(n + 1)
        track[0] = 1.0
        for step in range(1, n + 1):
            ax, ay = ev(ax, ay)
            bx, by = ev(bx, by)
            track[step] = math.hypot(ax - bx, ay - by) / d0
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
    return ContractionReport(
        n=n, max_ratio=max_ratio, widest_ratio=widest_ratio, gamma_tilde=gt, C_fit=cfit, seed=seed,
    )


def ref_uniqueness_probe(m, b, sched, leaf, probes, seed):
    """uniqueness_probe with one distance pass per probe and two tube_exits calls."""
    kmax, ref = b.kmax, b.cocycle.orbit
    xs, ys = SplitRng(seed).substream(3).points_in_box(*ref[0], sched.radius(0), probes)
    records = []
    for x, y, e in zip(xs.tolist(), ys.tolist(), tube_exits(m, ref, xs, ys, sched, kmax).tolist()):
        d = float(np.min(np.hypot(leaf.xs - x, leaf.ys - y)))
        records.append(ProbeRecord(point=Point2(x, y), distance_to_leaf=d, exit_step=None if e < 0 else e))
    survivors = sum(r.exit_step is None for r in records)
    on_leaf = tube_exits(m, ref, leaf.xs[::8], leaf.ys[::8], sched, kmax)
    return UniquenessReport(
        kmax=kmax, probes=records, on_leaf_checked=len(on_leaf), on_leaf_exits=int(np.sum(on_leaf >= 0)),
        survivors=survivors,
    )


def ref_convex_hull_halfplanes(points) -> np.ndarray:
    """convex_hull_halfplanes on the points as given, numpy scalars included."""
    pts = sorted(set(map(tuple, points)))

    def turns_left(o, a, p):
        return (a[0] - o[0]) * (p[1] - o[1]) - (a[1] - o[1]) * (p[0] - o[0]) > 0.0

    ring = []
    for seq in (pts, pts[::-1]):
        chain = []
        for p in seq:
            while len(chain) >= 2 and not turns_left(chain[-2], chain[-1], p):
                chain.pop()
            chain.append(p)
        ring += chain[:-1]
    if len(ring) < 3:
        return np.empty((0, 3))
    v = np.array(ring)
    e = np.roll(v, -1, axis=0) - v
    n = np.column_stack([e[:, 1], -e[:, 0]]) / np.hypot(e[:, 0], e[:, 1])[:, None]
    return np.column_stack([n, -np.sum(n * v, axis=1)])


def bits(a) -> bytes:
    return np.asarray(a, dtype=float).tobytes()


def same_contraction(got, want):
    assert bits(got.max_ratio) == bits(want.max_ratio)
    assert bits(got.widest_ratio) == bits(want.widest_ratio)
    assert bits(got.gamma_tilde) == bits(want.gamma_tilde)
    assert got.C_fit.hex() == want.C_fit.hex()
    assert (got.n, got.seed) == (want.n, want.seed)


def henon_stages(seed, L=None):
    """theorem-henon's stages up to the Cauchy iteration: (m, budget, schedule, eps, L, report)."""
    m = make_map("henon", a=1.4, b=0.3)
    sched = EpsilonSchedule.constant(0.05)
    fp = eigen_split(m, Point2(0.6, 0.2))
    b, _, L_measured, eps = budget_to_epsilon(m, fp.p, sched, 12, 2000, seed)
    L = L_measured if L is None else L
    try:
        conv = cauchy_iterate(m, b, sched, eps, 1e-8, L=L)
    except NotConvergedError as exc:
        conv = exc.report
    return m, b, sched, eps, L, conv


def leaves_of(m, b, eps):
    return {k: integrate_leaf(m, b.z, k, eps) for k in range(b.k0, b.kmax)}


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


def test_tube_checks_match_where_omega_is_infinite():
    # xi_k = inf at every other order: those orders' nodes are displaced to inf or NaN
    m, b, sched, eps, L, _ = henon_stages(2)
    b = dataclasses.replace(b, xi=np.where(np.arange(len(b.xi)) % 2, np.inf, b.xi))
    conv = cauchy_iterate(m, b, sched, eps, 1e-8, L=L)
    want = ref_tube_ok(m, b, sched, eps, L, leaves_of(m, b, eps))
    assert conv.tube_ok == want
    assert want == [k % 2 == 0 for k in range(b.k0, b.kmax)]


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_contraction_matches_the_pair_loop_henon(seed):
    m, b, sched, eps, L, conv = henon_stages(seed)
    n = min(b.kmax, b.k0 + 10)
    same_contraction(contraction_check(m, conv.limit, b, n, seed), ref_contraction_check(m, conv.limit, b, n, seed))


def test_contraction_matches_the_pair_loop_with_a_float_only_map():
    # math.fabs rejects arrays, so apply_lanes steps each pair end on its own
    m, b, sched, eps, L, conv = henon_stages(2)
    floats_only = dataclasses.replace(
        m, raw_eval=lambda x, y: (1.0 - 1.4 * x * x + y, 0.3 * math.copysign(math.fabs(x), x)))
    with pytest.raises(TypeError):
        floats_only.raw_eval(np.zeros(2), np.zeros(2))
    n = min(b.kmax, b.k0 + 10)
    got = contraction_check(floats_only, conv.limit, b, n, 2)
    same_contraction(got, ref_contraction_check(floats_only, conv.limit, b, n, 2))
    same_contraction(got, contraction_check(m, conv.limit, b, n, 2))


def linear_stages(kmax=12):
    m = make_map("linear", lambda_s=0.5, lambda_u=2.0)
    sched = EpsilonSchedule.constant(0.1)
    b, _, L, eps = budget_to_epsilon(m, Point2(0.0, 0.0), sched, kmax, 500, 1)
    return m, b, sched, cauchy_iterate(m, b, sched, eps, 1e-8, L=L)


@pytest.mark.parametrize("n", [0, 1, 6, 12])
def test_contraction_matches_the_pair_loop_linear(n):
    m, b, sched, conv = linear_stages()
    same_contraction(contraction_check(m, conv.limit, b, n, 5), ref_contraction_check(m, conv.limit, b, n, 5))


def hand_leaf(xs, ys, k=3):
    """A LeafCurve on the given nodes, centred on the middle one."""
    xs, ys = np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)
    c = len(xs) // 2
    t = 0.01 * (np.arange(len(xs)) - c)
    return LeafCurve(
        k=k, z0=Point2(xs[c], ys[c]), eps=0.01 * max(c, 1), h=0.01, t=t, xs=xs, ys=ys,
        thetas=np.zeros(len(xs)), center_index=c, truncated_neg=False, truncated_pos=False,
        grid_points=len(xs),
    )


def test_contraction_skips_coincident_pairs_as_the_pair_loop():
    m, b, sched, conv = linear_stages()
    leaf = hand_leaf([0.0, 0.01, 0.01, 0.03], [0.0, 0.02, 0.02, -0.01])
    rng = SplitRng(4).substream(2)
    draws = [(rng.randint(4), rng.randint(4)) for _ in range(CONTRACTION_PAIRS)]
    assert (1, 2) in draws or (2, 1) in draws  # the first draw of a pair is never redrawn, so one is skipped
    for n in (0, 5):
        same_contraction(contraction_check(m, leaf, b, n, 4), ref_contraction_check(m, leaf, b, n, 4))


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_contraction_widest_pair_is_the_first_drawn_of_a_tie(seed):
    # the corners of a square: both diagonals are the widest pairs, with the
    # same d0 bits and different images under the Henon map
    m, b, sched, eps, L, conv = henon_stages(2)
    leaf = hand_leaf([0.0, 0.5, 0.5, 0.0], [0.0, 0.0, 0.5, 0.5])
    got = contraction_check(m, leaf, b, 3, seed)
    same_contraction(got, ref_contraction_check(m, leaf, b, 3, seed))
    other = contraction_check(m, hand_leaf([0.5, 0.0, 0.0, 0.5], [0.0, 0.0, 0.5, 0.5]), b, 3, seed)
    assert bits(got.widest_ratio) != bits(other.widest_ratio)  # the diagonals' ratios differ


def test_contraction_with_every_pair_coincident():
    m, b, sched, conv = linear_stages()
    leaf = hand_leaf([0.2, 0.2, 0.2], [0.1, 0.1, 0.1])
    got = contraction_check(m, leaf, b, 4, 1)
    same_contraction(got, ref_contraction_check(m, leaf, b, 4, 1))
    assert got.max_ratio.tolist() == [0.0] * 5


def raised(fn, *args):
    with pytest.raises(Exception) as err:
        fn(*args)
    return type(err.value), str(err.value)


@pytest.mark.parametrize("seed", range(6))
def test_contraction_pair_leaving_the_box_raises_as_the_pair_loop(seed):
    # y doubles each step under the linear map, so a node at y leaves the
    # default box (|y| <= 5) at the step where 2^step y first exceeds 5:
    # different pairs fail at different steps, either end first
    m, b, sched, conv = linear_stages()
    ys = np.linspace(0.2, 4.0, 11) * np.where(np.arange(11) % 2, 1.0, -1.0)
    leaf = hand_leaf(np.linspace(-0.1, 0.1, 11), ys)
    got = raised(contraction_check, m, leaf, b, 6, seed)
    want = raised(ref_contraction_check, m, leaf, b, 6, seed)
    assert got == want
    assert got[0] is DomainError


def test_contraction_non_finite_image_raises_as_the_pair_loop():
    blowup = MapModel(
        name="blowup", params={}, raw_eval=lambda x, y: (0.5 * x, 1e200 * y),
        box=(-math.inf, math.inf, -math.inf, math.inf),
    )
    m, b, sched, conv = linear_stages()
    leaf = hand_leaf(np.linspace(-0.1, 0.1, 9), np.linspace(1e-150, 1.0, 9))
    with np.errstate(over="ignore"):
        got = raised(contraction_check, blowup, leaf, b, 4, 3)
        want = raised(ref_contraction_check, blowup, leaf, b, 4, 3)
    assert got == want
    assert got[0] is NonFiniteError and "returned non-finite value" in got[1]


def same_uniqueness(got, want):
    assert (got.kmax, got.on_leaf_checked, got.on_leaf_exits, got.survivors) == (
        want.kmax, want.on_leaf_checked, want.on_leaf_exits, want.survivors)
    assert len(got.probes) == len(want.probes)
    for g, w in zip(got.probes, want.probes):
        assert [g.point.x.hex(), g.point.y.hex(), g.distance_to_leaf.hex(), g.exit_step] == [
            w.point.x.hex(), w.point.y.hex(), w.distance_to_leaf.hex(), w.exit_step]
        assert type(g.distance_to_leaf) is float and type(g.exit_step) is type(w.exit_step)


@pytest.mark.parametrize("probes", [0, 1, 200])
def test_uniqueness_matches_the_probe_loop(probes):
    m, b, sched, eps, L, conv = henon_stages(2)
    got = uniqueness_probe(m, b, sched, conv.limit, probes, 2)
    same_uniqueness(got, ref_uniqueness_probe(m, b, sched, conv.limit, probes, 2))
    if probes == 200:
        assert len({r.exit_step for r in got.probes}) > 4


def test_uniqueness_on_a_one_node_leaf():
    m, b, sched, conv = linear_stages()
    leaf = hand_leaf([0.0], [0.0])
    got = uniqueness_probe(m, b, sched, leaf, 50, 7)
    same_uniqueness(got, ref_uniqueness_probe(m, b, sched, leaf, 50, 7))
    assert got.on_leaf_checked == 1


def henon_k0_samples():
    m = make_map("henon", a=1.4, b=0.3)
    sched = EpsilonSchedule.constant(0.05)
    fp = eigen_split(m, Point2(0.6, 0.2))
    for seed in range(1, 6):
        b = estimate_budget(m, fp.p, sched, 12, n=2000, seed=seed)
        yield list(b.samples[b.k0]) + [b.z]


def point_sets():
    rng = np.random.default_rng(11)
    angles = rng.uniform(0.0, 2.0 * np.pi, 60)
    line = np.linspace(-1.0, 2.0, 25)
    yield from henon_k0_samples()
    yield list(rng.normal(size=(200, 2)))                                   # random
    yield list(np.column_stack([np.cos(angles), np.sin(angles)]))           # on a circle
    yield list(np.column_stack([line, 0.5 * line - 0.25]))                  # collinear
    dup = rng.uniform(-1.0, 1.0, size=(12, 2))
    yield list(np.concatenate([dup, dup[::-1], dup[:3]]))                   # duplicates
    yield [np.array([0.1, 0.2])] * 4                                        # one point, repeated


def test_hull_of_numpy_rows_matches_floats_and_the_reference():
    for pts in point_sets():
        rows = [np.asarray(p, dtype=float) for p in pts]
        assert isinstance(rows[0][0], np.float64)
        floats = [tuple(float(v) for v in p) for p in pts]
        want = ref_convex_hull_halfplanes(rows)
        assert bits(convex_hull_halfplanes(rows)) == bits(want)
        assert bits(convex_hull_halfplanes(floats)) == bits(want)
        assert bits(convex_hull_halfplanes(np.array(floats))) == bits(want)


def octagon_edge_set():
    """A regular octagon's vertices, points within 3 ulps of its edges either side, and 40 well inside."""
    angles = np.arange(8) * (np.pi / 4) + 0.1
    v = np.column_stack([np.cos(angles), np.sin(angles)])
    w = np.linspace(0.05, 0.95, 7)[:, None]
    edge = np.concatenate([v[i] + w * (v[(i + 1) % 8] - v[i]) for i in range(8)])
    out = [edge]
    for steps in (1, 3):
        for towards in (0.0, 10.0):  # toward the centre, and away from it
            near = edge.copy()
            for _ in range(steps):
                near = np.nextafter(near, towards * np.sign(near))
            out.append(near)
    rng = np.random.default_rng(3)
    inner = rng.uniform(-0.5, 0.5, size=(40, 2))
    return np.concatenate([v] + out + [inner]), len(inner)


def test_hull_prefilter_keeps_points_near_the_octagon_edges():
    # only points well inside the octagon of extreme points are dropped; the ring is the chain's on all points
    pts, n_inner = octagon_edge_set()
    inside = _inside_octagon(pts)
    assert np.count_nonzero(inside) == n_inner and np.all(inside[-n_inner:])
    assert bits(convex_hull_halfplanes(pts)) == bits(ref_convex_hull_halfplanes(pts.tolist()))


def test_hull_prefilter_drops_nothing_on_a_circle():
    # every point is a hull vertex, and none lies inside the octagon of the 8 extreme ones
    angles = np.random.default_rng(4).uniform(0.0, 2.0 * np.pi, 300)
    pts = np.column_stack([np.cos(angles), np.sin(angles)])
    assert not np.any(_inside_octagon(pts))
    want = ref_convex_hull_halfplanes(pts.tolist())
    assert len(want) == 300
    assert bits(convex_hull_halfplanes(pts)) == bits(want)


@pytest.mark.parametrize("corners", [
    [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)],              # each corner extreme in several directions
    [(-1.0, -1.0), (1.0, -1.0), (1.0, 1.0), (-1.0, 1.0)],
    [(0.0, 0.0), (2.0, 0.0)],                          # a segment: no interior, nothing dropped
    [(0.5, 0.5)],
], ids=["triangle", "square", "segment", "point"])
def test_hull_prefilter_with_duplicated_extremes(corners):
    # extremes that coincide leave zero-length octagon edges, which test nothing
    corners = np.array(corners)
    rng = np.random.default_rng(len(corners))
    mix = rng.dirichlet(np.ones(len(corners)), size=30) * 0.9 + 0.1 / len(corners)
    pts = np.concatenate([corners, corners, mix @ corners, corners[::-1]])
    assert not np.any(_inside_octagon(np.repeat(corners, 3, axis=0)))  # each extreme point 3 times, nothing else
    inside = _inside_octagon(pts)
    if len(corners) >= 3:
        assert np.all(inside[2 * len(corners):-len(corners)]) and not np.any(inside[:2 * len(corners)])
    else:
        assert not np.any(inside)
    assert bits(convex_hull_halfplanes(pts)) == bits(ref_convex_hull_halfplanes(pts.tolist()))
