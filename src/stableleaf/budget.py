"""Dynamical neighborhoods, hyperbolicity budget sequences, and the two
summability/geometry conditions.

The order-k neighborhood of a reference point z collects points whose first
k-1 iterates track the reference orbit within the epsilon schedule. It is
approximated by seeded rejection sampling from the eps_0 box: the j=0
constraint is the sampling box itself (sup norm, satisfied by construction);
iterates j >= 1 are tested with the Euclidean norm. Draws depend only on
(seed, n, z, eps_0), never on k, so the accepted set for k+1 is always a
subset of the accepted set for k.

The draws are processed as numpy arrays, SAMPLE_BLOCK at a time, by
``sample_sweep``; the scalar code decides every value the array arithmetic
could round differently (see ``sample_sweep`` and ``_fold_order``).

Budget maxima taken over a finite sample understate the true suprema; every
downstream assertion that consumes them carries a stated slack factor and
the condition verdicts are labeled heuristic.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import Iterator, NamedTuple, Optional

import numpy as np

from .cocycle import (
    OrbitCocycle,
    build_orbit_cocycle,
    distortion_bounds,
    mul_lanes,
    series_term,
    singular_values_lanes,
)
from .errors import BadParamsError, DomainError, NonFiniteError, OrbitEscapeError
from .maps import MapModel, Point2, apply_lanes
from .rng import SplitRng

NEIGHBORHOOD_STREAM = 0  # fixed substream tag for box draws
SAMPLE_SLACK = 1.05      # stated slack for assertions against sampled maxima
DEFAULT_SAMPLES = 2000
LADDER_DEPTH = 40        # the epsilon ladder runs eps0 * 2^-m for m = 0..LADDER_DEPTH
SAMPLE_BLOCK = 4096      # box draws per array block of sample_sweep; bounds its memory
RECHECK_REL = 1e-13      # array values this close (relative) to a running maximum are recomputed exactly


@dataclass(frozen=True)
class EpsilonSchedule:
    """Non-increasing positive tube radii eps_j = eps0 * decay^j, decay in (0, 1]."""

    eps0: float
    decay: float = 1.0

    def __post_init__(self):
        if not (self.eps0 > 0.0 and math.isfinite(self.eps0)):
            raise BadParamsError(f"eps0 must be positive and finite, got {self.eps0}")
        if not (0.0 < self.decay <= 1.0):
            raise BadParamsError(f"decay must be in (0, 1], got {self.decay}")

    @classmethod
    def constant(cls, eta: float) -> "EpsilonSchedule":
        return cls(eps0=eta, decay=1.0)

    def radius(self, j: int) -> float:
        return self.eps0 * self.decay ** j


def first_tube_exit(
    m: MapModel, ref_orbit: list[Point2], x: Point2, sched: EpsilonSchedule, jmax: int
) -> Optional[int]:
    """First iterate j <= jmax violating the tube test, or None.

    j=0 uses the sup-norm box of radius eps_0 (the sampler's box); j >= 1 uses
    the Euclidean norm. A domain escape at iterate j counts as an exit at j.
    This is the one-point reference of ``tube_exits``, which the package uses.
    """
    px, py = float(x[0]), float(x[1])
    rx, ry = ref_orbit[0]
    if max(abs(px - rx), abs(py - ry)) > sched.radius(0):
        return 0
    ev = m.eval_xy
    for j in range(1, jmax + 1):
        try:
            px, py = ev(px, py)
        except (DomainError, NonFiniteError):
            return j
        rx, ry = ref_orbit[j]
        dx, dy = px - rx, py - ry
        if math.hypot(dx, dy) > sched.radius(j):
            return j
    return None


def reference_orbit(m: MapModel, z: Point2, nsteps: int) -> list[Point2]:
    """The orbit z, phi(z), ..., phi^nsteps(z); OrbitEscapeError(j, z_j) if phi fails at z_j."""
    pts = [Point2(float(z[0]), float(z[1]))]
    x, y = pts[0]
    for j in range(nsteps):
        try:
            x, y = m.eval_xy(x, y)
        except (DomainError, NonFiniteError):
            raise OrbitEscapeError(j, Point2(x, y))
        pts.append(Point2(x, y))
    return pts


def _tube_miss(j: int, x: np.ndarray, y: np.ndarray, ref: list[Point2], sched: EpsilonSchedule) -> np.ndarray:
    """The lanes whose iterate j (x, y) fails first_tube_exit's test at j.

    Where np.hypot and math.hypot could fall on either side of the radius,
    math.hypot decides.
    """
    rx, ry = ref[j]
    r = sched.radius(j)
    dx, dy = x - rx, y - ry
    if j == 0:
        adx, ady = np.abs(dx), np.abs(dy)
        return np.where(ady > adx, ady, adx) > r  # as max(adx, ady), also for NaN
    d = np.hypot(dx, dy)
    miss = d > r
    for i in np.flatnonzero(np.abs(d - r) <= 8.0 * math.ulp(r)).tolist():
        miss[i] = math.hypot(dx[i], dy[i]) > r
    return miss


@np.errstate(all="ignore")
def tube_exits(
    m: MapModel, ref_orbit: list[Point2], x, y, sched: EpsilonSchedule, jmax: int
) -> np.ndarray:
    """first_tube_exit for every point (x[i], y[i]): its exit index, or -1 where that is None."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    out = np.where(_tube_miss(0, x, y, ref_orbit, sched), 0, -1)
    lane = np.flatnonzero(out < 0)
    x, y = x[lane], y[lane]
    for j in range(1, jmax + 1):
        # eval_xy's checks: x, y finite (NaN or inf fails the box) and in the domain, image finite
        at = np.flatnonzero(m.in_domain_lanes(x, y))
        nx, ny = apply_lanes(m.raw_eval, x[at], y[at], 2)
        inside = np.isfinite(nx) & np.isfinite(ny)
        inside[inside] = ~_tube_miss(j, nx[inside], ny[inside], ref_orbit, sched)
        gone = np.ones(len(lane), dtype=bool)
        gone[at[inside]] = False
        out[lane[gone]] = j
        lane, x, y = lane[~gone], nx[inside], ny[inside]
    return out


@dataclass
class HyperbolicityBudget:
    """Sampled suprema of the per-order growth/distortion sequences.

    Arrays are indexed by k = 0..kmax with identity-cocycle conventions at 0
    (gamma_0 = gamma*_0 = fmax_0 = 1, delta_0 = 0). terms[k] = p_k q_k gamma_{k+1}
    and xi[k] = terms[k]/(1-terms[k]) exist for k = 0..kmax-1 (+inf past 1).
    cocycle is the order-kmax cocycle at z itself. samples[k] holds the
    sampled draws in N^(k), in draw order, as an array of shape (count, 2);
    z itself is not among them.
    """

    z: Point2
    kmax: int
    n: int
    seed: int
    eps0: float
    p: np.ndarray
    q: np.ndarray
    pt: np.ndarray
    gamma: np.ndarray
    gamma_star: np.ndarray
    delta: np.ndarray
    fmax: np.ndarray
    terms: np.ndarray
    xi: np.ndarray
    gamma_tilde: np.ndarray
    star_terms: np.ndarray
    star_partial_sums: np.ndarray
    k0: Optional[int]
    cocycle: OrbitCocycle = field(repr=False)
    samples: dict = field(repr=False, default_factory=dict)
    accepted_counts: dict = field(default_factory=dict)


class SweepOrder(NamedTuple):
    """The draws of one block that lie in N^(k), and what they give the budget at order k.

    draw is each lane's index in the draw sequence and (x, y) its point.
    values lists (budget field, index, array): P, Q and Pt at index k (and
    at 0 when k = 1), and H, E, F and delta at k. inputs holds the arrays
    whose bits determine every value of a lane up to order k: the steps
    Dphi(z_j), Pt_j and grad det(Dphi)(z_j) for j = 0..k.
    """

    k: int
    draw: np.ndarray
    x: np.ndarray
    y: np.ndarray
    values: list
    inputs: tuple


def _point_data(m: MapModel, x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, dict]:
    """The lanes at orbit points (x, y) that pass build_orbit_cocycle's checks there, and their step values.

    The checks: the point in the domain, Dphi finite and nonsingular
    (det != 0 and E != 0), the second-derivative data finite. Each callable
    sees only the lanes that passed the checks before it.
    """
    at = np.flatnonzero(m.in_domain_lanes(x, y))
    s = apply_lanes(m.raw_jac if m.raw_jac is not None else m.fd_jac, x[at], y[at], 4)
    ok = np.all(np.isfinite(s), axis=0)
    at, s = at[ok], s[:, ok]
    e, f = singular_values_lanes(*s)
    det = s[0] * s[3] - s[1] * s[2]
    ok = (det != 0.0) & (e != 0.0)
    at, s, e, f, det = at[ok], s[:, ok], e[ok], f[ok], det[ok]
    d2 = apply_lanes(m.second_partials, x[at], y[at], 8)
    ok = np.all(np.isfinite(d2), axis=0)
    at, s, e, f, det, d2 = at[ok], s[:, ok], e[ok], f[ok], det[ok], d2[:, ok]
    return at, {
        "S": s, "P": f, "Q": 1.0 / e, "Pt": 2.0 * np.max(np.abs(d2[:6]), axis=0),
        "g": d2[6:], "rd": np.hypot(d2[6], d2[7]) / np.abs(det),  # Ddt / Dd
    }


def _delta_lanes(steps: list, F: list, Pt: list, s2: np.ndarray, e: np.ndarray) -> np.ndarray:
    """distortion_bounds' d1 + d2 at order k = len(F) - 1 for every lane, in its order of operations.

    s2 is the running sum of (Ddt_j / Dd_j) F_j over j < k. The tail products
    keep the scalar association ((Dphi_{k-1} Dphi_{k-2}) ...) Dphi_{j+1}.
    """
    k = len(F) - 1
    tails = [1.0] * k
    t = (1.0, 0.0, 0.0, 1.0)
    for j in range(k - 2, -1, -1):
        t = mul_lanes(t, steps[j + 1])
        tails[j] = singular_values_lanes(*t)[1]
    s1 = 0.0
    for j in range(k):
        term = Pt[j] * tails[j] * F[j] * F[j]
        s1 = s1 + np.where(term == term, term, 0.0)
    fk = F[k]
    f2 = fk * fk
    d1 = np.where(f2 >= np.finfo(float).smallest_normal, e / f2, e / fk / fk) * s1
    return np.where(d1 == d1, d1, 0.0) + (e / fk) * s2


def _block_sweep(
    m: MapModel, ref: list[Point2], sched: EpsilonSchedule, kmax: int, start: int, xs: np.ndarray, ys: np.ndarray
) -> Iterator[SweepOrder]:
    """sample_sweep for the draws (xs, ys), numbered from start."""
    with np.errstate(all="ignore"):
        lane = np.flatnonzero(~_tube_miss(0, xs, ys, ref, sched))  # only rounding can fail the box
        at, pd = _point_data(m, xs[lane], ys[lane])
        lane = lane[at]
        x, y = xs[lane], ys[lane]
        prod = np.repeat([[1.0], [0.0], [0.0], [1.0]], len(lane), axis=1)
        hist = {"S": [pd["S"]], "F": [np.ones(len(lane))], "Pt": [pd["Pt"]], "g": [pd["g"]]}
        s2 = np.zeros(len(lane))
    for k in range(1, kmax + 1):
        with np.errstate(all="ignore"):
            # lanes alive here have level >= k - 1; keep those whose iterate k - 1 is in the tube
            sel = np.arange(len(lane)) if k == 1 else np.flatnonzero(~_tube_miss(k - 1, x, y, ref, sched))
            nx, ny = apply_lanes(m.raw_eval, x[sel], y[sel], 2)
            ok = np.isfinite(nx) & np.isfinite(ny)
            sel, nx, ny = sel[ok], nx[ok], ny[ok]
            prod = mul_lanes(hist["S"][-1][:, sel], prod[:, sel])
            e, f = singular_values_lanes(*prod)
            ok = np.isfinite(f) & (f != 0.0)
            sel, nx, ny, prod, e, f = sel[ok], nx[ok], ny[ok], prod[:, ok], e[ok], f[ok]
            at, nd = _point_data(m, nx, ny)
            if not len(at):
                return
            keep = sel[at]
            lane, x, y, prod, e, f = lane[keep], nx[at], ny[at], prod[:, at], e[at], f[at]
            s2 = s2[keep] + pd["rd"][keep] * hist["F"][-1][keep]
            hist = {name: [a[..., keep] for a in arrs] for name, arrs in hist.items()}
            for name, v in (("S", nd["S"]), ("F", f), ("Pt", nd["Pt"]), ("g", nd["g"])):
                hist[name].append(v)
            delta = _delta_lanes(hist["S"], hist["F"], hist["Pt"], s2, e)
            values = [("p", k, nd["P"]), ("q", k, nd["Q"]), ("pt", k, nd["Pt"]),
                      ("gamma", k, e / f), ("gamma_star", k, e), ("fmax", k, f), ("delta", k, delta)]
            if k == 1:
                values += [("p", 0, pd["P"][keep]), ("q", 0, pd["Q"][keep]), ("pt", 0, pd["Pt"][keep])]
            pd = nd
        yield SweepOrder(k, start + lane, xs[lane], ys[lane], values, (hist["S"], hist["Pt"], hist["g"]))


def sample_sweep(
    m: MapModel, z: Point2, sched: EpsilonSchedule, kmax: int, n: int, seed: int
) -> Iterator[SweepOrder]:
    """The n box draws around z and their budget values, as arrays, a block at a time and order by order.

    A draw's tube level is the order of the deepest neighborhood it lies in.
    Its level is the largest level <= its tube level at which
    build_orbit_cocycle(m, draw, level) succeeds, 0 if there is none. That
    success is monotone in the level, so whether a draw has level >= k is
    known at step k: for each block of SAMPLE_BLOCK draws, the SweepOrder of
    order k holds exactly the draws of level >= k, in draw order, and the
    arrays of a block shrink to them as k grows.

    Levels, counts and Pt are bit for bit those of the scalar code; the
    values that pass through hypot (P, Q, E, F, H, delta) can differ from it
    in the last bits.
    """
    ref = reference_orbit(m, z, kmax - 1)  # raises here, before any draw is made
    rng = SplitRng(seed).substream(NEIGHBORHOOD_STREAM)
    cx, cy, r0 = float(z[0]), float(z[1]), sched.radius(0)

    def blocks():
        for start in range(0, n, SAMPLE_BLOCK):
            xs, ys = rng.points_in_box(cx, cy, r0, min(SAMPLE_BLOCK, n - start))
            yield from _block_sweep(m, ref, sched, kmax, start, xs, ys)

    return blocks()


def sampled_cocycles(
    m: MapModel, z: Point2, sched: EpsilonSchedule, kmax: int, n: int, seed: int
) -> Iterator[tuple[Point2, OrbitCocycle]]:
    """Yield (draw, cocycle) for the box draws around z that join N^(1), in draw order.

    Each cocycle is built once, at the draw's level from ``sample_sweep``.
    """
    level = np.zeros(n, dtype=int)
    xs = np.empty(n)
    ys = np.empty(n)
    for order in sample_sweep(m, z, sched, kmax, n, seed):
        level[order.draw] = order.k
        xs[order.draw] = order.x
        ys[order.draw] = order.y
    for i in np.flatnonzero(level).tolist():
        d = Point2(float(xs[i]), float(ys[i]))
        yield d, build_orbit_cocycle(m, d, int(level[i]))


def _delta_at(c: OrbitCocycle, k: int) -> float:
    d1, d2 = distortion_bounds(c, k)
    return d1 + d2


# how the scalar code reads each budget field off a cocycle, at an index
_SCALAR = {
    "p": lambda c, i: c.P[i],
    "q": lambda c, i: c.Q[i],
    "pt": lambda c, i: c.Pt[i],
    "gamma": lambda c, i: c.H[i],
    "gamma_star": lambda c, i: c.E[i],
    "fmax": lambda c, i: c.F[i],
    "delta": _delta_at,
}
_FLOAT_MAX = sys.float_info.max


def _fold_order(m: MapModel, top: dict, order: SweepOrder) -> None:
    """Raise the budget maxima top[field][index] by one SweepOrder, to the scalar code's values.

    Pt is exact, so its array maximum is taken. For the other fields, every
    lane whose array value is NaN, or within RECHECK_REL of the larger of the
    array maximum and the running maximum, is recomputed by
    build_orbit_cocycle, once per distinct bits of its inputs; no other lane
    can hold the maximum.
    """
    recheck = {}
    for name, i, v in order.values:
        if name == "pt":
            if len(v) and v.max() > top[name][i]:
                top[name][i] = v.max()
            continue
        bar = min(max(float(np.max(v, initial=0.0, where=v == v)), top[name][i]), _FLOAT_MAX)
        lanes = np.flatnonzero(((v >= bar * (1.0 - RECHECK_REL)) & (v > 0.0)) | (v != v))
        if len(lanes):
            recheck[name, i] = lanes
    if not recheck:
        return
    hit = np.zeros(len(order.draw), dtype=bool)
    for cand in recheck.values():
        hit[cand] = True
    lanes = np.flatnonzero(hit)
    rows = np.vstack([a.reshape(-1, a.shape[-1])[:, lanes] for arrs in order.inputs for a in arrs]).T.copy()
    key = {}  # lane -> the bytes of its inputs
    cocycles = {}  # input bytes -> the scalar cocycle of the first lane with them
    for lane, row in zip(lanes.tolist(), rows):
        key[lane] = row.tobytes()
        if key[lane] not in cocycles:
            cocycles[key[lane]] = build_orbit_cocycle(m, Point2(float(order.x[lane]), float(order.y[lane])), order.k)
    for (name, i), cand in recheck.items():
        for k in dict.fromkeys(key[lane] for lane in cand.tolist()):
            v = _SCALAR[name](cocycles[k], i)
            if v > top[name][i]:
                top[name][i] = v


def estimate_budget(
    m: MapModel,
    z: Point2,
    sched: EpsilonSchedule,
    kmax: int,
    n: int = DEFAULT_SAMPLES,
    seed: int = 0,
) -> HyperbolicityBudget:
    """Estimate all budget sequences over sampled neighborhoods of z.

    The reference point itself, which belongs to every neighborhood exactly,
    joins each level. A sample point joins the levels up to the one
    ``sample_sweep`` gives it. Every maximum is the scalar code's value
    (see ``_fold_order``), so the budget is bit for bit the one of building
    each draw's cocycle at its level.
    """
    if kmax < 2:
        raise BadParamsError(f"kmax must be >= 2, got {kmax}")

    km1 = kmax + 1
    top = {name: np.zeros(km1) for name in _SCALAR}
    top["gamma"][0] = top["gamma_star"][0] = top["fmax"][0] = 1.0
    orders = sample_sweep(m, z, sched, kmax, n, seed)
    # the centre goes first: a draw's lane is re-checked only where it comes near the maxima so far
    center = build_orbit_cocycle(m, z, kmax)
    for name, read in _SCALAR.items():
        for k in range(0 if name in ("p", "q", "pt") else 1, km1):
            v = read(center, k)
            if v > top[name][k]:
                top[name][k] = v
    counts = {k: 0 for k in range(1, km1)}
    parts = {k: [] for k in range(1, km1)}
    for order in orders:
        counts[order.k] += len(order.draw)
        parts[order.k].append(np.column_stack([order.x, order.y]))
        _fold_order(m, top, order)
    samples = {k: np.concatenate(parts[k]) if parts[k] else np.empty((0, 2)) for k in parts}
    p, q, pt, gamma, gamma_star, delta, fmax = (
        top[name] for name in ("p", "q", "pt", "gamma", "gamma_star", "delta", "fmax")
    )

    terms = np.full(kmax, math.inf)
    xi = np.full(kmax, math.inf)
    for k in range(kmax):
        t = series_term(p[k], q[k], gamma[k + 1])
        terms[k] = t
        if t < 1.0:
            xi[k] = t / (1.0 - t)

    # k0: first j with p_k q_k gamma_{k+1} < 1/2 for every computed k >= j-1
    last_bad = -1
    for k in range(kmax):
        if not terms[k] < 0.5:
            last_bad = k
    k0 = None if last_bad == kmax - 1 else last_bad + 2

    tail = 0.0
    # tail sums run down from kmax-1 (truncation index = kmax, where the tail is 0)
    tails = np.zeros(km1)
    for k in range(kmax - 1, -1, -1):
        tail += terms[k]
        tails[k] = tail
    with np.errstate(over="ignore"):  # +inf where it overflows, as the series terms are
        gamma_tilde = gamma_star + 2.0 * fmax * tails

    star_terms = np.zeros(kmax)
    for k in range(kmax):
        pq = series_term(p[k], q[k])
        star_terms[k] = (
            terms[k]
            + series_term(pt[k], (q[k], 5), (p[k], 3), gamma_star[k + 1])
            + series_term((pq, 5), delta[k])
            + series_term((pq, 2), delta[k + 1])
        )
    star_partial_sums = np.cumsum(star_terms[1:]) if kmax > 1 else np.zeros(0)

    return HyperbolicityBudget(
        z=Point2(*z), kmax=kmax, n=n, seed=seed, eps0=sched.radius(0),
        p=p, q=q, pt=pt, gamma=gamma, gamma_star=gamma_star, delta=delta,
        fmax=fmax, terms=terms, xi=xi, gamma_tilde=gamma_tilde,
        star_terms=star_terms, star_partial_sums=star_partial_sums,
        k0=k0, cocycle=center, samples=samples, accepted_counts=counts,
    )


SUMMABLE_HEURISTIC = "SUMMABLE_HEURISTIC"
INCONCLUSIVE = "INCONCLUSIVE"
INFEASIBLE = "INFEASIBLE"


@dataclass(frozen=True)
class StarReport:
    terms: np.ndarray
    tail_ratio: Optional[float]
    verdict: str


def check_condition_star(b: HyperbolicityBudget) -> StarReport:
    """Heuristic summability verdict for the four-term budget series.

    Fits the geometric tail ratio over the last min(5, available) terms (at
    least 3 needed for a fit). SUMMABLE_HEURISTIC when the fitted ratio is
    below 0.95; INCONCLUSIVE otherwise or when too few terms exist. The
    verdict is heuristic: a finite computation cannot certify an infinite sum.
    """
    terms = b.star_terms[1:]  # series starts at k = 1
    window = terms[-min(5, len(terms)):] if len(terms) else terms
    ratio: Optional[float] = None
    verdict = INCONCLUSIVE
    if len(window) >= 3 and np.all(np.isfinite(window)) and np.all(window > 0.0):
        ks = np.arange(len(window), dtype=float)
        slope = np.polyfit(ks, np.log(window), 1)[0]
        ratio = float(math.exp(slope))
        if ratio < 0.95:
            verdict = SUMMABLE_HEURISTIC
    elif len(window) >= 1 and np.all(window == 0.0):
        ratio = 0.0
        verdict = SUMMABLE_HEURISTIC
    return StarReport(terms=terms, tail_ratio=ratio, verdict=verdict)


@dataclass(frozen=True)
class DoubleStarReport:
    gamma_required: float
    argmax_j: Optional[int]
    argmax_k: Optional[int]
    verdict: str


def check_condition_double_star(b: HyperbolicityBudget, sched: EpsilonSchedule) -> DoubleStarReport:
    """Minimal Gamma comparing the contraction envelope against the schedule.

    gamma_required = max over k0 <= j <= k <= kmax-1 of
    (gamma_tilde_j + 4 Fmax_j p_k q_k gamma_{k+1}) / eps_j, +inf without such
    a (j, k) or where a radius eps_j underflows to 0. INFEASIBLE when even the
    bottom of the dyadic epsilon ladder cannot satisfy eps * gamma_required < 1.
    """
    gamma_required, argmax = math.inf, None
    if b.k0 is not None and b.k0 <= b.kmax - 1:
        gamma_required = 0.0
        for k in range(b.k0, b.kmax):
            for j in range(b.k0, k + 1):
                lhs = b.gamma_tilde[j] + 4.0 * b.fmax[j] * b.terms[k]
                radius = sched.radius(j)
                ratio = lhs / radius if radius > 0.0 else math.inf
                if ratio > gamma_required:
                    gamma_required, argmax = ratio, (j, k)
    ladder_min = sched.radius(0) * 2.0 ** -LADDER_DEPTH
    verdict = INFEASIBLE if (not math.isfinite(gamma_required) or ladder_min * gamma_required >= 1.0) else "FEASIBLE"
    return DoubleStarReport(
        gamma_required=gamma_required,
        argmax_j=argmax[0] if argmax else None,
        argmax_k=argmax[1] if argmax else None,
        verdict=verdict,
    )
