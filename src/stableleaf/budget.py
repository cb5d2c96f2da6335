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
_NORMAL_MIN = 2.0 ** -1022  # the smallest normal float
VALUE_ROWS = ("p", "q", "pt", "gamma", "gamma_star", "fmax", "delta")  # the budget fields of SweepOrder.values


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


def _in_tube(j: int, x: np.ndarray, y: np.ndarray, ref: list[Point2], sched: EpsilonSchedule) -> np.ndarray:
    """The lanes whose iterate j (x, y) passes the tube test at j: the sup-norm box at 0, norm2 after; NaN fails."""
    rx, ry = ref[j]
    r = sched.radius(j)
    dx, dy = x - rx, y - ry
    if j == 0:
        return np.maximum(np.abs(dx), np.abs(dy)) <= r
    return norm2_lanes(dx, dy) <= r


@np.errstate(all="ignore")
def tube_exits(
    m: MapModel, ref_orbit: list[Point2], x, y, sched: EpsilonSchedule, jmax: int
) -> np.ndarray:
    """The first iterate j <= jmax at which each point (x[i], y[i]) leaves the tube, or -1 where none does.

    A point that is not finite exits at 0; an iterate that is not finite, or
    whose preimage left the domain, exits at its j.
    """
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    ok = _in_tube(0, x, y, ref_orbit, sched)
    out, lane = np.where(ok, -1, 0), ok.nonzero()[0]
    x, y = x[lane], y[lane]
    for j in range(1, jmax + 1):
        ok = m.in_domain_lanes(x, y)
        x, y = apply_lanes(m.raw_eval, x[ok], y[ok], 2)
        stay = _in_tube(j, x, y, ref_orbit, sched)
        ok[ok] = stay
        if not ok.all():
            out[lane[~ok]] = j
            lane, x, y = lane[ok], x[stay], y[stay]
    return out


@dataclass
class HyperbolicityBudget:
    """Sampled suprema of the per-order growth/distortion sequences.

    Arrays are indexed by k = 0..kmax with identity-cocycle conventions at 0
    (gamma_0 = gamma*_0 = fmax_0 = 1, delta_0 = 0). terms[k] = p_k q_k gamma_{k+1}
    and xi[k] = terms[k]/(1-terms[k]) exist for k = 0..kmax-1 (+inf past 1).
    cocycle is the order-kmax cocycle at z itself, and the budget's one copy
    of z (cocycle.z0) and of z's orbit. accepted_counts[k] counts
    the draws in N^(k), z not among them. sched is the schedule the draws
    were tested against: its radii eps_j define the tubes N^(k) that every
    later stage (epsilon choice, Cauchy tube test, uniqueness strip) reads.
    """

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
    accepted_counts: dict = field(default_factory=dict)


def fold_max(top: float, v, where=True) -> float:
    """max(top, x) over the entries x of v where `where` holds: NaN never wins, as in Python's max."""
    v = np.asarray(v)
    return float(np.max(v, initial=top, where=where & (v == v)))


class SweepOrder(NamedTuple):
    """The lanes of one block, or of one chunk of the pool, that lie in N^(k), and what they give the budget at order k.

    draw is each lane's index in the draw sequence, -1 for the centre z.
    values (7, lanes) holds in row r the budget field VALUE_ROWS[r] at index
    k: P, Q, Pt, H, E, F and delta = d1 + d2; at k = 1 three more rows hold
    P, Q and Pt at index 0. estimate_budget folds it with one reduction
    along the lanes. d1 and d2 are the distortion bounds at order k, and
    tails (k, lanes) holds in row j the norm F_{j,k} of Dphi_{k-1} ...
    Dphi_{j+1}, from the products of _Lanes and the step norm they carry;
    row k - 1, the empty product, is 1.
    """

    k: int
    draw: np.ndarray
    values: np.ndarray
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
    terms = np.fmax(Pt[:k] * tails * F[:k] * F[:k], 0.0)  # NaN to 0; every other term is >= +0
    s1 = sum(terms[1:], terms[0])  # added in j order, as the scalar sum
    fk = F[k]
    f2 = fk * fk
    ef = e / fk
    d1 = np.where(f2 >= _NORMAL_MIN, e / f2, ef / fk) * s1
    return np.fmax(d1, 0.0), ef * s2


class _Lanes(NamedTuple):
    """The live lanes of a sweep after order k, with what order k + 1 reads of them.

    draw is each lane's draw number. The rows of a (11 + 6k, lanes), in store
    unless parked, hold step, Dphi_k, and its singular values E <= P (at k = 0
    P_0 and 1 / Q_0); xy, the iterate k; s2, the running sum of _delta_lanes;
    F_j and Pt_j, j = 0..k, in turn; and R (4, k, lanes), in row r Dphi_{k-1}
    (... (Dphi_{r+1} Dphi_r)): row 0 is Dphi^k, row j + 1 the tail of F_{j,k}.
    """

    draw: np.ndarray
    a: np.ndarray
    store: "_Store"


def _rows(a: np.ndarray) -> tuple:
    """The views step, E, P, xy, s2, F, Pt and R of the lane state a of _Lanes."""
    k = (len(a) - 11) // 6
    return a[:4], a[4], a[5], a[6:8], a[8], a[9:11 + 2 * k:2], a[10:11 + 2 * k:2], a[11 + 2 * k:].reshape(4, k, a.shape[1])


class _Store:
    """One sweep's lane states, in one flat buffer that every block and the pooled phase reuse.

    rows(rows, n) is room for n lanes at the end that top, the room handed out before, leaves free,
    so that no pass overwrites its input; where that is short, in a new buffer at least twice as long.
    """

    def __init__(self, floats: int):
        self.top, self.back = np.empty(0), False
        self._grow(floats)

    def _grow(self, floats: int):
        self.buf = np.empty(floats)

    def rows(self, rows: int, n: int) -> np.ndarray:
        size, self.back = rows * n, not self.back
        if len(self.top) + size > len(self.buf):
            self._grow(max(2 * len(self.buf), len(self.top) + size))
        self.top = self.buf[len(self.buf) - size:] if self.back else self.buf[:size]
        return self.top


def _draw_lanes(m: MapModel, ref: list[Point2], sched: EpsilonSchedule, start: int, xs: np.ndarray, ys: np.ndarray, store):
    """The draws (xs, ys), numbered from start, that pass the box and have a valid point: the lanes of order 0, in store."""
    with np.errstate(all="ignore"):
        lane = _in_tube(0, xs, ys, ref, sched).nonzero()[0]  # only rounding can fail the box
        at, pd = _point_data(m, xs[lane], ys[lane], store.rows(11, len(lane)))  # S, E and P: rows 0 to 5
        lane, a = lane[at], store.top[:11 * len(at)].reshape(11, len(at))
        a[6], a[7], a[8], a[9], a[10] = xs[lane], ys[lane], pd["Ddt"] / pd["Dd"], 1.0, pd["Pt"]  # xy, s2, F_0, Pt_0
    return _Lanes(start + lane, a, store)


def _sweep_order(
    m: MapModel, ref: list[Point2], sched: EpsilonSchedule, k: int, s: _Lanes
) -> Optional[tuple[_Lanes, SweepOrder]]:
    """Order k of sample_sweep for the lanes s of order k - 1: the lanes left and their SweepOrder, or None if none is.

    Each check runs once per lane: the tube at iterate k - 1, then the image
    and Dphi^k, then the point pass at iterate k on the lanes that passed
    them. R's last row is the step, whose E and F the lanes carry; at k >= 2
    one mul_lanes call makes its other rows and one singular_values_lanes
    call on them gives the rest. At k = 1, Dphi^1 is the step, so its F and
    1 / E are also P_0 and Q_0, which order 0 reads. The new state goes into
    s.store, where _point_data writes its S, E and P.
    """
    with np.errstate(all="ignore"):
        step, E, P, xy, _, _, _, R = _rows(s.a)
        # lanes alive here have level >= k - 1; keep those whose iterate k - 1 is in the tube
        sel = _in_tube(k - 1, *xy, ref, sched).nonzero()[0] if k > 1 else np.arange(len(s.draw))
        nxy = apply_lanes(m.raw_eval, *xy.take(sel, axis=1), 2)
        e, fk = E, P  # fk, the norm of Dphi^k: at k = 1, the step's, and sel is every lane
        if k > 1:
            prods = mul_lanes(step.take(sel, axis=1)[:, None], R.take(sel, axis=2))
            e, fp = (v.reshape(k - 1, -1) for v in singular_values_lanes(prods.reshape(4, -1)))
            e, fk = e[0], fp[0]
        ok = (np.isfinite(nxy[0]) & np.isfinite(nxy[1]) & np.isfinite(fk) & (fk != 0.0)).nonzero()[0]
        at, nd = _point_data(m, *nxy.take(ok, axis=1), s.store.rows(11 + 6 * k, len(ok)))
        if not len(at):
            return None
        at = ok[at]  # the lanes of sel that reach order k
        keep, e, tails = sel[at], e[at], np.ones((k, len(at)))  # tails row k - 1: the empty product
        a = s.store.top[:(11 + 6 * k) * len(at)].reshape(11 + 6 * k, len(at))
        _, _, _, xy_, s2_, F_, Pt_, R_ = _rows(a)
        moves = [(nxy, at, xy_), (s.a[8:9 + 2 * k], keep, a[8:9 + 2 * k]), (fk, at, F_[k]), (step, keep, R_[:, k - 1])]
        if k > 1:
            moves += [(prods, at, R_[:, :k - 1]), (fp[1:], at, tails[:k - 2]), (P, keep, tails[k - 2])]
        for v, i, out in moves:  # one take per value, s2 and the F, Pt history as one; clip: no index check
            v.take(i, axis=-1, out=out, mode="clip")
        Pt_[k] = nd["Pt"]
        d1, d2 = _delta_lanes(tails, F_, Pt_, s2_, e)
        values = np.empty((10 if k == 1 else 7, len(at)))  # written in place: the fold reads it whole
        values[0], values[1], values[2], values[4], values[5] = nd["P"], nd["Q"], Pt_[k], e, F_[k]
        np.divide(e, F_[k], out=values[3])
        np.add(d1, d2, out=values[6])
        if k == 1:  # Dphi^1 is the step: P_0, Q_0 and Pt_0
            values[7], values[9] = F_[k], Pt_[0]
            np.divide(1.0, e, out=values[8])
        s2_ += nd["Ddt"] / nd["Dd"] * F_[k]  # the term j = k, for order k + 1
    draw = s.draw[keep]
    return _Lanes(draw, a, s.store), SweepOrder(k, draw, values, d1, d2, tails)


def _pool(parts: list[_Lanes]) -> list[_Lanes]:
    """The lanes of parts, in their order, in chunks of at most SAMPLE_BLOCK lanes; one such part is its own chunk."""
    if len(parts) == 1 and len(parts[0].draw) <= SAMPLE_BLOCK:
        return parts
    draw, a = (np.concatenate(f, axis=-1) for f in zip(*(p[:2] for p in parts)))
    return [_Lanes(draw[i:i + SAMPLE_BLOCK], a[:, i:i + SAMPLE_BLOCK], parts[0].store) for i in range(0, len(draw), SAMPLE_BLOCK)]


def sample_sweep(
    m: MapModel, centre: OrbitCocycle, sched: EpsilonSchedule, n: int, seed: int
) -> Iterator[SweepOrder]:
    """z and the n box draws around it, with their budget values, as arrays, order by order.

    A generator: each SweepOrder is yielded as soon as it is made. centre
    is the cocycle at z to order kmax; z, kmax and the tube's reference
    orbit are its z0, kmax and orbit. A draw is known by its number, its
    index in the box-draw sequence; no lane keeps its point. A draw's tube
    level is the order of the deepest neighborhood it lies in. Its level is
    the largest level <= its tube level at which build_orbit_cocycle(m,
    draw, level) succeeds, 0 if there is none. That success is monotone in
    the level, so whether a draw has level >= k is known at step k, and the
    SweepOrder of order k holds exactly the draws of level >= k of its
    block or chunk, in draw order. z itself is lane 0 of the first block,
    numbered draw -1, so n = 0 still sweeps it; since its cocycle was
    built, it reaches kmax.

    The draws come in blocks of SAMPLE_BLOCK, each swept depth first to an
    order k*: the first order at which the first block's live lanes, times
    the number of blocks, are at most SAMPLE_BLOCK, or kmax if there is
    none. Then the live lanes of all blocks pool, in draw order, and each
    order past k* runs once over the pool, in chunks of at most SAMPLE_BLOCK
    lanes. With one block the pool is that block, and nothing changes. The
    lane states live in one _Store; lanes that wait while other passes write
    it are copied out of it, and no yielded array views it.

    Levels, counts and every value are bit for bit those of the scalar code.
    """
    rng = SplitRng(seed).substream(NEIGHBORHOOD_STREAM)
    (cx, cy), r0 = centre.orbit[0], sched.radius(0)
    ref, kmax = centre.orbit, centre.kmax
    starts = range(0, max(n, 1), SAMPLE_BLOCK)
    store = _Store(2 * 17 * (min(SAMPLE_BLOCK, n) + 1))  # two order-1 states of the first block
    deep, parked = kmax, []  # deep is k*, which the first block sets
    for start in starts:
        xs, ys = rng.points_in_box(cx, cy, r0, min(SAMPLE_BLOCK, n - start))
        if start == 0:  # z is lane 0 of the first block, draw -1
            xs, ys, start = np.insert(xs, 0, cx), np.insert(ys, 0, cy), -1
        lanes = _draw_lanes(m, ref, sched, start, xs, ys, store)
        for k in range(1, deep + 1):
            lanes, order = _sweep_order(m, ref, sched, k, lanes) or (None, None)
            if lanes is None:
                break
            yield order
            if start < 0 and len(lanes.draw) * len(starts) <= SAMPLE_BLOCK:
                deep = k
                break
        if lanes is not None and deep < kmax:  # copied out of the store where a later block writes it
            parked.append(lanes._replace(a=lanes.a.copy()) if max(start, 0) + SAMPLE_BLOCK < n else lanes)
    for k in range(deep + 1, kmax + 1):
        chunks, parked = _pool(parked), []
        for lanes in chunks:  # with more than one chunk, each chunk's new lanes are copied out of the store
            step = _sweep_order(m, ref, sched, k, lanes)
            if step is not None:
                parked.append(step[0]._replace(a=step[0].a.copy()) if len(chunks) > 1 else step[0])
                yield step[1]


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
    maxima, but not the counts; a sample point joins the levels up to the
    one ``sample_sweep`` gives it. The budget is bit for bit the one of
    building each point's cocycle at its level. Only z's cocycle is
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
    top = np.zeros((len(VALUE_ROWS), km1))  # row r is VALUE_ROWS[r]
    top[3:6, 0] = 1.0  # order 0: the identity cocycle, whose H, E and F are 1
    counts = {k: 0 for k in range(1, km1)}
    for order in orders:
        counts[order.k] += len(order.draw) - int(order.draw[0] < 0)  # z, draw -1, can only be lane 0
        # one fold per order: fmax skips NaN, so NaN never wins, as in fold_max
        k, mx = order.k, np.fmax.reduce(order.values, axis=1)
        top[:, k] = np.fmax(top[:, k], mx[:7])
        if k == 1:
            top[:3, 0] = np.fmax(top[:3, 0], mx[7:])
    # the tail reads each maximum once, as Python floats, which run the same IEEE operations
    p, q, pt, gamma, gamma_star, fmax, delta = top.tolist()

    terms = [series_term(p[k], q[k], gamma[k + 1]) for k in range(kmax)]
    xi = [t / (1.0 - t) if t < 1.0 else math.inf for t in terms]

    # k0: first j with p_k q_k gamma_{k+1} < 1/2 for every computed k >= j-1
    last_bad = max((k for k, t in enumerate(terms) if not t < 0.5), default=-1)
    k0 = None if last_bad == kmax - 1 else last_bad + 2

    tail = 0.0
    # tail sums run down from kmax-1 (truncation index = kmax, where the tail is 0)
    tails = np.zeros(km1)
    for k in range(kmax - 1, -1, -1):
        tail += terms[k]
        tails[k] = tail
    with np.errstate(over="ignore"):  # +inf where it overflows, as the series terms are
        gamma_tilde = top[4] + 2.0 * top[5] * tails  # gamma_star + 2 fmax tails, on the arrays

    star_terms = []
    for k in range(kmax):
        pq = series_term(p[k], q[k])
        star_terms.append(
            terms[k]
            + series_term(pt[k], (q[k], 5), (p[k], 3), gamma_star[k + 1])
            + series_term((pq, 5), delta[k])
            + series_term((pq, 2), delta[k + 1])
        )
    star_partial_sums = np.cumsum(star_terms[1:])  # kmax >= 2: never empty

    return HyperbolicityBudget(
        kmax=kmax, n=n, seed=seed, sched=sched, **dict(zip(VALUE_ROWS, top)),
        terms=np.array(terms), xi=np.array(xi), gamma_tilde=gamma_tilde,
        star_terms=np.array(star_terms), star_partial_sums=star_partial_sums,
        k0=k0, cocycle=center, accepted_counts=counts,
    )


SUMMABLE_HEURISTIC = "SUMMABLE_HEURISTIC"
INCONCLUSIVE = "INCONCLUSIVE"
INFEASIBLE = "INFEASIBLE"


@dataclass(frozen=True)
class StarReport:
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
    return StarReport(tail_ratio=ratio, verdict=verdict)


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
