"""Dynamical neighborhoods, hyperbolicity budget sequences, and the two
summability/geometry conditions.

The order-k neighborhood of a reference point z collects points whose first
k-1 iterates track the reference orbit within the epsilon schedule. It is
approximated by seeded rejection sampling from the eps_0 box: the j=0
constraint is the sampling box itself (sup norm, satisfied by construction);
iterates j >= 1 are tested with the Euclidean norm. Draws depend only on
(seed, n, z, eps_0), never on k, so the accepted set for k+1 is always a
subset of the accepted set for k.

The draws are processed as numpy arrays by ``sample_sweep``: SAMPLE_BLOCK
at a time through the shallow orders, then, once all blocks together hold
at most about SAMPLE_BLOCK live draws, pooled, so each deeper order runs
once for all blocks. The array arithmetic is the scalar code's, operation
for operation, with ``cocycle.norm2_lanes`` for its ``norm2``, so every
array value has the bits of the scalar one.

Budget maxima taken over a finite sample understate the true suprema; every
downstream assertion that consumes them carries a stated slack factor and
the condition verdicts are labeled heuristic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator, NamedTuple, Optional

import numpy as np

from .cocycle import (
    OrbitCocycle,
    _point_data,
    build_orbit_cocycle,
    mul_lanes,
    norm2_lanes,
    series_term,
    singular_values_lanes,
)
from .errors import BadParamsError
from .maps import MapModel, Point2, apply_lanes
from .rng import SplitRng

NEIGHBORHOOD_STREAM = 0  # fixed substream tag for box draws
SAMPLE_SLACK = 1.05      # stated slack for assertions against sampled maxima
DEFAULT_SAMPLES = 2000
LADDER_DEPTH = 40        # the epsilon ladder runs eps0 * 2^-m for m = 0..LADDER_DEPTH
SAMPLE_BLOCK = 4096      # lanes per array pass of sample_sweep, a block of draws or a chunk of the pool; bounds its memory


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
    """First iterate j <= jmax violating the tube test, or None: ``tube_exits`` on the one lane x.

    j=0 uses the sup-norm box of radius eps_0 (the sampler's box); j >= 1 uses
    the Euclidean norm. A domain escape at iterate j counts as an exit at j.
    """
    j = int(tube_exits(m, ref_orbit, [float(x[0])], [float(x[1])], sched, jmax)[0])
    return None if j < 0 else j


def _tube_miss(j: int, x: np.ndarray, y: np.ndarray, ref: list[Point2], sched: EpsilonSchedule) -> np.ndarray:
    """The lanes whose iterate j (x, y) fails the tube test at j: the sup-norm box at 0, norm2 after."""
    rx, ry = ref[j]
    r = sched.radius(j)
    dx, dy = x - rx, y - ry
    if j == 0:
        adx, ady = np.abs(dx), np.abs(dy)
        return np.where(ady > adx, ady, adx) > r  # as max(adx, ady), also for NaN
    return norm2_lanes(dx, dy) > r


@np.errstate(all="ignore")
def tube_exits(
    m: MapModel, ref_orbit: list[Point2], x, y, sched: EpsilonSchedule, jmax: int
) -> np.ndarray:
    """The first iterate j <= jmax at which each point (x[i], y[i]) leaves the tube, or -1 where none does.

    An iterate that leaves the domain or is not finite exits at its j.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    out = np.where(_tube_miss(0, x, y, ref_orbit, sched), 0, -1)
    lane = np.flatnonzero(out < 0)
    x, y = x[lane], y[lane]
    for j in range(1, jmax + 1):
        nx, ny, inside = m.eval_lanes(x, y)
        inside[inside] = ~_tube_miss(j, nx[inside], ny[inside], ref_orbit, sched)
        out[lane[~inside]] = j
        lane, x, y = lane[inside], nx[inside], ny[inside]
    return out


@dataclass
class HyperbolicityBudget:
    """Sampled suprema of the per-order growth/distortion sequences.

    Arrays are indexed by k = 0..kmax with identity-cocycle conventions at 0
    (gamma_0 = gamma*_0 = fmax_0 = 1, delta_0 = 0). terms[k] = p_k q_k gamma_{k+1}
    and xi[k] = terms[k]/(1-terms[k]) exist for k = 0..kmax-1 (+inf past 1).
    cocycle is the order-kmax cocycle at z itself. samples[k] holds the
    sampled draws in N^(k), in draw order, as an array of shape (count, 2);
    z itself is not among them. sched is the schedule the draws were tested
    against: its radii eps_j define the tubes N^(k) that every later stage
    (epsilon choice, Cauchy tube test, uniqueness strip) reads.
    """

    z: Point2
    kmax: int
    n: int
    seed: int
    sched: EpsilonSchedule
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


def fold_max(top: float, v, where=True) -> float:
    """max(top, x) over the entries x of v where `where` holds: NaN never wins, as in Python's max."""
    v = np.asarray(v)
    return float(np.max(v, initial=top, where=where & (v == v)))


class SweepOrder(NamedTuple):
    """The lanes of one block, or of one chunk of the pool, that lie in N^(k), and what they give the budget at order k.

    draw is each lane's index in the draw sequence, -1 for the centre z, and
    (x, y) its point. values lists (budget field, index, array): P, Q and Pt
    at index k (and at 0 when k = 1), and H, E, F and delta = d1 + d2 at k.
    d1 and d2 are the distortion bounds at order k, and tails, a (k, lanes)
    array, holds in row j the norm F_{j,k} of the tail product Dphi_{k-1}
    ... Dphi_{j+1}, from the lane products of _Lanes; row k - 1, the empty
    product, is all ones.
    """

    k: int
    draw: np.ndarray
    x: np.ndarray
    y: np.ndarray
    values: list
    d1: np.ndarray
    d2: np.ndarray
    tails: np.ndarray


def _delta_lanes(tails: np.ndarray, F: np.ndarray, Pt: np.ndarray, s2: np.ndarray, e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The right-hand sides of the two distortion inequalities at order k = len(F) - 1, for every lane.

        d1 = (E_k / F_k^2) * sum_{j<k} Pt_j * F_{j,k} * F_j^2
        d2 = (E_k / F_k)   * sum_{j<k} Dd_j^-1 * Ddt_j * F_j

    with F_0 = 1 and F_{j,k} = ||Dphi^(k-j-1) at z_{j+1}|| the tail-product
    norms. d1 bounds H_k ||D^2 phi^k|| / ||Dphi^k||; d2 bounds
    ||D(det Dphi^k)|| / ||Dphi^k||^2. A NaN term of d1, which can only be
    0 * inf with an exactly zero factor, counts as 0, and so does a NaN d1.

    tails (k, lanes) holds F_{j,k} in row j, as SweepOrder.tails; F and Pt
    (k+1, lanes) stack the values at j = 0..k; s2 is the running sum of
    (Ddt_j / Dd_j) F_j over j < k.
    """
    k = F.shape[0] - 1
    terms = Pt[:k] * tails * F[:k] * F[:k]
    s1 = np.add.accumulate(np.where(terms == terms, terms, 0.0), axis=0)[-1]  # added in j order, as the scalar sum
    fk = F[k]
    f2 = fk * fk
    d1 = np.where(f2 >= np.finfo(float).smallest_normal, e / f2, e / fk / fk) * s1
    return np.where(d1 == d1, d1, 0.0), (e / fk) * s2


class _Lanes(NamedTuple):
    """The live lanes of a sweep after order k, with what order k + 1 reads of them.

    draw, px and py are each lane's draw number and point; (x, y) is its
    iterate k and step its Dphi_k. R (4, k, lanes) holds in row r the product
    Dphi_{k-1} (... (Dphi_{r+1} Dphi_r)): row 0 is Dphi^k, row j + 1 the tail
    whose norm is F_{j,k}. F and Pt (k+1, lanes) stack F_j and Pt_j for
    j = 0..k, and s2 is the running sum of _delta_lanes for order k + 1.
    Every field ends in the lane axis.
    """

    draw: np.ndarray
    px: np.ndarray
    py: np.ndarray
    x: np.ndarray
    y: np.ndarray
    step: np.ndarray
    R: np.ndarray
    F: np.ndarray
    Pt: np.ndarray
    s2: np.ndarray


def _draw_lanes(m: MapModel, ref: list[Point2], sched: EpsilonSchedule, start: int, xs: np.ndarray, ys: np.ndarray):
    """The draws (xs, ys), numbered from start, as the lanes of order 0, and P_0 and Q_0 for order 1."""
    with np.errstate(all="ignore"):
        lane = np.flatnonzero(~_tube_miss(0, xs, ys, ref, sched))  # only rounding can fail the box
        at, pd = _point_data(m, xs[lane], ys[lane])
        s2 = pd["Ddt"] / pd["Dd"]  # at order 1 the j = 0 term, F_0 = 1
    lane = lane[at]
    x, y = xs[lane], ys[lane]
    lanes = _Lanes(start + lane, x, y, x, y, pd["S"], np.empty((4, 0, len(lane))), np.ones((1, len(lane))),
                   pd["Pt"][None], s2)
    return lanes, (pd["P"], pd["Q"])


def _sweep_order(
    m: MapModel, ref: list[Point2], sched: EpsilonSchedule, k: int, s: _Lanes, pq0=None
) -> Optional[tuple[_Lanes, SweepOrder]]:
    """Order k of sample_sweep for the lanes s of order k - 1: the lanes left and their SweepOrder, or None if none is.

    pq0 holds the lanes' P_0 and Q_0 at k = 1. One mul_lanes call extends R,
    and one singular_values_lanes call on its k rows gives E_k, F_k and every
    tail norm.
    """
    with np.errstate(all="ignore"):
        # lanes alive here have level >= k - 1; keep those whose iterate k - 1 is in the tube
        sel = np.arange(len(s.draw)) if k == 1 else np.flatnonzero(~_tube_miss(k - 1, s.x, s.y, ref, sched))
        nx, ny = apply_lanes(m.raw_eval, s.x[sel], s.y[sel], 2)
        ok = np.isfinite(nx) & np.isfinite(ny)
        sel, nx, ny = sel[ok], nx[ok], ny[ok]
        step = s.step[:, sel]
        R = np.concatenate((mul_lanes(step, s.R[..., sel]), step[:, None]), axis=1)
        e, f = (v.reshape(k, len(sel)) for v in singular_values_lanes(*R.reshape(4, k * len(sel))))
        ok = np.flatnonzero(np.isfinite(f[0]) & (f[0] != 0.0))
        at, nd = _point_data(m, nx[ok], ny[ok])
        if not len(at):
            return None
        at = ok[at]  # the lanes of sel that reach order k
        keep = sel[at]
        tails = np.concatenate((f[1:, at], np.ones((1, len(at)))))  # row k - 1: the empty product
        e, f = e[0, at], f[0, at]
        # one fancy index per history; the new rows move in, so the histories hold their only copy
        F = np.concatenate((s.F[:, keep], f[None]))
        Pt = np.concatenate((s.Pt[:, keep], nd.pop("Pt")[None]))
        s2 = s.s2[keep]
        d1, d2 = _delta_lanes(tails, F, Pt, s2, e)
        values = [("p", k, nd["P"]), ("q", k, nd["Q"]), ("pt", k, Pt[k]),
                  ("gamma", k, e / f), ("gamma_star", k, e), ("fmax", k, f), ("delta", k, d1 + d2)]
        if k == 1:
            values += [("p", 0, pq0[0][keep]), ("q", 0, pq0[1][keep]), ("pt", 0, Pt[0])]
        s2 += nd["Ddt"] / nd["Dd"] * f  # the term j = k, for order k + 1
    draw, px, py = s.draw[keep], s.px[keep], s.py[keep]
    lanes = _Lanes(draw, px, py, nx[at], ny[at], nd.pop("S"), R[..., at], F, Pt, s2)
    return lanes, SweepOrder(k, draw, px, py, values, d1, d2, tails)


def _pool(parts: list[_Lanes]) -> list[_Lanes]:
    """The lanes of parts, in their order, in chunks of at most SAMPLE_BLOCK lanes."""
    if len(parts) == 1 and len(parts[0].draw) <= SAMPLE_BLOCK:
        return parts
    whole = [np.concatenate(field, axis=-1) for field in zip(*parts)]
    return [_Lanes(*(a[..., i:i + SAMPLE_BLOCK] for a in whole)) for i in range(0, len(whole[0]), SAMPLE_BLOCK)]


def sample_sweep(
    m: MapModel, centre: OrbitCocycle, sched: EpsilonSchedule, n: int, seed: int
) -> Iterator[SweepOrder]:
    """z and the n box draws around it, with their budget values, as arrays, order by order.

    centre is the cocycle at z to order kmax; z, kmax and the tube's
    reference orbit are its z0, kmax and orbit. A draw's tube level is the
    order of the deepest neighborhood it lies in. Its level is the largest
    level <= its tube level at which build_orbit_cocycle(m, draw, level)
    succeeds, 0 if there is none. That success is monotone in the level, so
    whether a draw has level >= k is known at step k, and the SweepOrder of
    order k holds exactly the draws of level >= k of its block or chunk, in
    draw order. z itself is lane 0 of the first block, numbered draw -1, so
    n = 0 still sweeps it; since its cocycle was built, it reaches kmax.

    The draws come in blocks of SAMPLE_BLOCK, each swept depth first to an
    order k*: the first order at which the first block's live lanes, times
    the number of blocks, are at most SAMPLE_BLOCK, or kmax if there is
    none. Then the live lanes of all blocks pool, in draw order, and each
    order past k* runs once over the pool, in chunks of at most SAMPLE_BLOCK
    lanes. With one block the pool is that block, and nothing changes.

    Levels, counts and every value are bit for bit those of the scalar code.
    """
    rng = SplitRng(seed).substream(NEIGHBORHOOD_STREAM)
    (cx, cy), r0 = centre.orbit[0], sched.radius(0)
    ref, kmax = centre.orbit, centre.kmax
    starts = range(0, max(n, 1), SAMPLE_BLOCK)

    def sweep():
        deep, parked = kmax, []  # deep is k*, which the first block sets
        for start in starts:
            xs, ys = rng.points_in_box(cx, cy, r0, min(SAMPLE_BLOCK, n - start))
            if start == 0:  # z is lane 0 of the first block, draw -1
                xs, ys, start = np.insert(xs, 0, cx), np.insert(ys, 0, cy), -1
            lanes, pq0 = _draw_lanes(m, ref, sched, start, xs, ys)
            for k in range(1, deep + 1):
                step = _sweep_order(m, ref, sched, k, lanes, pq0)
                if step is None:
                    lanes = None
                    break
                lanes, order = step
                yield order
                if start < 0 and len(lanes.draw) * len(starts) <= SAMPLE_BLOCK:
                    deep = k
                    break
            if lanes is not None and deep < kmax:
                parked.append(lanes)
        for k in range(deep + 1, kmax + 1):
            chunks, parked = _pool(parked), []
            for lanes in chunks:
                step = _sweep_order(m, ref, sched, k, lanes)
                if step is not None:
                    parked.append(step[0])
                    yield step[1]

    return sweep()


def estimate_budget(
    m: MapModel,
    z: Point2,
    sched: EpsilonSchedule,
    kmax: int,
    n: int = DEFAULT_SAMPLES,
    seed: int = 0,
) -> HyperbolicityBudget:
    """Estimate all budget sequences over sampled neighborhoods of z.

    Every value comes from ``sample_sweep``. The reference point z (draw
    -1) belongs to every neighborhood exactly and joins every level's
    maxima, but not the counts or samples; a sample point joins the levels
    up to the one ``sample_sweep`` gives it. The budget is bit for bit the
    one of building each point's cocycle at its level. Only z's cocycle is
    built, before any draw: it raises where z's orbit fails, and every later
    stage reads z's orbit from it (``cocycle``).
    """
    if kmax < 2:
        raise BadParamsError(f"kmax must be >= 2, got {kmax}")
    if n < 0:
        raise BadParamsError(f"n must be >= 0, got {n}")

    km1 = kmax + 1
    center = build_orbit_cocycle(m, z, kmax)
    orders = sample_sweep(m, center, sched, n, seed)
    names = ("p", "q", "pt", "gamma", "gamma_star", "delta", "fmax")
    top = {name: np.zeros(km1) for name in names}
    top["gamma"][0] = top["gamma_star"][0] = top["fmax"][0] = 1.0  # order 0: the identity cocycle
    counts = {k: 0 for k in range(1, km1)}
    parts = {k: [] for k in range(1, km1)}
    for order in orders:
        drawn = order.draw >= 0
        counts[order.k] += int(np.count_nonzero(drawn))
        parts[order.k].append(np.column_stack([order.x[drawn], order.y[drawn]]))
        for name, i, v in order.values:
            top[name][i] = fold_max(top[name][i], v)
    samples = {k: np.concatenate(parts[k]) if parts[k] else np.empty((0, 2)) for k in parts}
    p, q, pt, gamma, gamma_star, delta, fmax = (top[name] for name in names)

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
        z=Point2(*z), kmax=kmax, n=n, seed=seed, sched=sched,
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


def log_slope(xs, vals) -> float:
    """Least-squares slope of log(vals) against xs, in Python floats: the fit needs no LAPACK."""
    xs, ys = [float(x) for x in xs], [math.log(v) for v in vals]
    xm, ym = sum(xs) / len(xs), sum(ys) / len(ys)
    return sum((x - xm) * (y - ym) for x, y in zip(xs, ys)) / sum((x - xm) ** 2 for x in xs)


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
        ratio = math.exp(log_slope(range(len(window)), window))
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
                # Python floats: +inf, not a warning, where lhs / eps_j overflows
                lhs = float(b.gamma_tilde[j]) + 4.0 * float(b.fmax[j]) * float(b.terms[k])
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
