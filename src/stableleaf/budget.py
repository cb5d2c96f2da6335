"""Dynamical neighborhoods, hyperbolicity budget sequences, and the two
summability/geometry conditions.

The order-k neighborhood of a reference point z collects points whose first
k-1 iterates track the reference orbit within the epsilon schedule. It is
approximated by seeded rejection sampling from the eps_0 box: the j=0
constraint is the sampling box itself (sup norm, satisfied by construction);
iterates j >= 1 are tested with the Euclidean norm. Draws depend only on
(seed, n, z, eps_0), never on k, so the accepted set for k+1 is always a
subset of the accepted set for k.

Budget maxima taken over a finite sample understate the true suprema; every
downstream assertion that consumes them carries a stated slack factor and
the condition verdicts are labeled heuristic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator, Optional

import numpy as np

from .cocycle import OrbitCocycle, build_orbit_cocycle, distortion_bounds, series_term
from .errors import BadParamsError, DomainError, NonFiniteError, OrbitEscapeError, SingularStepError
from .maps import MapModel, Point2
from .rng import SplitRng

NEIGHBORHOOD_STREAM = 0  # fixed substream tag for box draws
SAMPLE_SLACK = 1.05      # stated slack for assertions against sampled maxima
DEFAULT_SAMPLES = 2000
LADDER_DEPTH = 40        # the epsilon ladder runs eps0 * 2^-m for m = 0..LADDER_DEPTH


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


def _box_draws(z: Point2, eps0: float, n: int, seed: int) -> list[Point2]:
    rng = SplitRng(seed).substream(NEIGHBORHOOD_STREAM)
    cx, cy = float(z[0]), float(z[1])
    return [Point2(*rng.point_in_box(cx, cy, eps0)) for _ in range(n)]


@dataclass
class HyperbolicityBudget:
    """Sampled suprema of the per-order growth/distortion sequences.

    Arrays are indexed by k = 0..kmax with identity-cocycle conventions at 0
    (gamma_0 = gamma*_0 = fmax_0 = 1, delta_0 = 0). terms[k] = p_k q_k gamma_{k+1}
    and xi[k] = terms[k]/(1-terms[k]) exist for k = 0..kmax-1 (+inf past 1).
    cocycle is the order-kmax cocycle at z itself.
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


def sampled_cocycles(
    m: MapModel, z: Point2, sched: EpsilonSchedule, kmax: int, n: int, seed: int
) -> Iterator[tuple[Point2, OrbitCocycle]]:
    """Yield (draw, cocycle) for the box draws around z that join N^(1), in draw order.

    A draw's tube level is the order of the deepest neighborhood it lies in.
    Its cocycle is built at the largest level <= its tube level whose build
    succeeds: a build that escapes, meets a singular step or a non-finite
    value is demoted one level, and a draw with no valid level is dropped.
    The cocycle's kmax is the draw's level.
    """
    ref = reference_orbit(m, z, kmax - 1)
    for d in _box_draws(z, sched.radius(0), n, seed):
        exit_j = first_tube_exit(m, ref, d, sched, kmax - 1)
        for level in range(kmax if exit_j is None else exit_j, 0, -1):
            try:
                coc = build_orbit_cocycle(m, d, level)
            except (OrbitEscapeError, SingularStepError, NonFiniteError):
                continue
            yield d, coc
            break


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
    ``sampled_cocycles`` gives it.
    """
    if kmax < 2:
        raise BadParamsError(f"kmax must be >= 2, got {kmax}")

    km1 = kmax + 1
    p = np.zeros(km1)
    q = np.zeros(km1)
    pt = np.zeros(km1)
    gamma = np.zeros(km1)
    gamma_star = np.zeros(km1)
    delta = np.zeros(km1)
    fmax = np.zeros(km1)
    gamma[0] = gamma_star[0] = fmax[0] = 1.0
    counts = {k: 0 for k in range(1, km1)}
    samples = {k: [] for k in range(1, km1)}

    def absorb(coc) -> None:
        # per-step suprema: x in N^(k) contributes index-k step values, k <= its
        # level coc.kmax; index 0 is contributed by every point with a valid first step.
        top = coc.kmax
        for k in range(0, top + 1):
            if coc.P[k] > p[k]:
                p[k] = coc.P[k]
            if coc.Q[k] > q[k]:
                q[k] = coc.Q[k]
            if coc.Pt[k] > pt[k]:
                pt[k] = coc.Pt[k]
        for k in range(1, top + 1):
            if coc.H[k] > gamma[k]:
                gamma[k] = coc.H[k]
            if coc.E[k] > gamma_star[k]:
                gamma_star[k] = coc.E[k]
            if coc.F[k] > fmax[k]:
                fmax[k] = coc.F[k]
            d1, d2 = distortion_bounds(coc, k)
            if d1 + d2 > delta[k]:
                delta[k] = d1 + d2

    for d, coc in sampled_cocycles(m, z, sched, kmax, n, seed):
        for k in range(1, coc.kmax + 1):
            counts[k] += 1
            samples[k].append(d)
        absorb(coc)

    center = build_orbit_cocycle(m, z, kmax)
    absorb(center)

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
