"""Differential tests of the one sampled-neighborhood pass ``budget.sampled_cocycles``.

``estimate_budget`` (with its ``absorb`` and ``cocycle_to``) and
``regular_growth_check`` are kept below, verbatim, as they were before both
folded ``sampled_cocycles``: the budget demoted a failing draw to its largest
valid level, and the growth check rebuilt every sampled draw's cocycle at its
tube level and skipped a draw whose build failed. Every field is compared bit
for bit (``float.hex``). The documented differences are asserted as such:

- a non-finite second derivative now demotes a draw, where it aborted the
  budget; the result equals the old budget of the same map with the region
  bad in the Jacobian instead, which the old code already demoted;
- the growth check uses each draw at its budget level, so a draw the old
  check skipped now counts, and ``points_skipped`` is n - (points_used - 1),
  the draws with no valid level.
"""

import dataclasses
import math

import numpy as np
import pytest

from stableleaf import EpsilonSchedule, Point2, eigen_split, estimate_budget, make_map, regular_growth_check
from stableleaf.budget import DEFAULT_SAMPLES, HyperbolicityBudget, _box_draws, first_tube_exit, reference_orbit
from stableleaf.cocycle import build_orbit_cocycle, distortion_bounds, series_term
from stableleaf.errors import (
    BadParamsError,
    NonFiniteError,
    NumericalError,
    OrbitEscapeError,
    SingularStepError,
    SpectralSlackError,
)
from stableleaf.fixedpoint import K_FIT_CAP, FixedPointData, GrowthReport
from stableleaf.maps import MapModel


# -- reference copies of the replaced loops ------------------------------------


def ref_estimate_budget(
    m: MapModel,
    z: Point2,
    sched: EpsilonSchedule,
    kmax: int,
    n: int = DEFAULT_SAMPLES,
    seed: int = 0,
) -> HyperbolicityBudget:
    """Estimate all budget sequences over sampled neighborhoods of z.

    The reference point itself, which belongs to every neighborhood exactly,
    joins each level. Orbit escapes of sample points demote the point to the
    deepest level it reached.
    """
    if kmax < 2:
        raise BadParamsError(f"kmax must be >= 2, got {kmax}")
    ref = reference_orbit(m, z, kmax - 1)
    draws = _box_draws(z, sched.radius(0), n, seed)

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

    def absorb(coc, level: int) -> None:
        # per-step suprema: x in N^(k) contributes index-k step values, k <= level;
        # index 0 is contributed by every point with a valid first step.
        top = min(level, coc.kmax)
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

    def cocycle_to(pt2: Point2, level: int):
        lev = level
        while lev >= 1:
            try:
                return build_orbit_cocycle(m, pt2, lev), lev
            except (OrbitEscapeError, SingularStepError):
                lev -= 1
        return None, 0

    for d in draws:
        exit_j = first_tube_exit(m, ref, d, sched, kmax - 1)
        level = kmax if exit_j is None else exit_j
        if level < 1:
            continue
        coc, level = cocycle_to(d, level)
        if coc is None:
            continue
        for k in range(1, level + 1):
            counts[k] += 1
            samples[k].append(d)
        absorb(coc, level)

    center = build_orbit_cocycle(m, z, kmax)
    absorb(center, kmax)

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


def ref_regular_growth_check(
    m: MapModel,
    fp: FixedPointData,
    sched: EpsilonSchedule,
    kmax: int,
    n: int,
    seed: int,
) -> GrowthReport:
    """Fit the uniform constant of the eigenvalue growth envelope at radius eta.

    Requires a constant schedule. Raises SpectralSlackError when a K-free
    inequality fails (F_j >= (|lu|-d)^j or E_j <= (|ls|+d)^j) or when the
    fitted K exceeds 1e6.
    """
    if sched.decay != 1.0:
        raise BadParamsError("regular growth check requires a constant schedule eps_j = eta")
    lu = abs(fp.lambda_u)
    ls = abs(fp.lambda_s)
    d = fp.delta
    if not (0.0 <= d < lu - 1.0 and ls + d < 1.0):
        raise BadParamsError(f"spectral slack delta={d} incompatible with |ls|={ls}, |lu|={lu}")

    b = ref_estimate_budget(m, fp.p, sched, kmax, n=n, seed=seed)
    pts = [fp.p]
    for k in range(1, kmax + 1):
        pts.extend(b.samples.get(k, []))
    # dedupe while keeping deterministic order
    seen = set()
    uniq = []
    for p in pts:
        if p not in seen:
            seen.add(p)
            uniq.append(p)

    k_upper_f = 1.0
    k_lower_e = 1.0
    k_sum_f = 1.0
    k_tail = 1.0
    k_sum_h = 1.0
    k_d2 = 1.0
    k_det = 1.0
    raw_ok = True
    used = skipped = 0
    ref = reference_orbit(m, fp.p, kmax - 1)
    for p in uniq:
        exit_j = first_tube_exit(m, ref, p, sched, kmax - 1)
        level = kmax if exit_j is None else exit_j
        if level < 1:
            continue
        try:
            coc = build_orbit_cocycle(m, p, level)
        except NumericalError:
            skipped += 1
            continue
        used += 1
        sum_f = 1.0  # F_0
        for j in range(1, level + 1):
            fj, ej = coc.F[j], coc.E[j]
            k_upper_f = max(k_upper_f, fj / (lu + d) ** j)
            k_lower_e = max(k_lower_e, (ls - d) ** j / ej if ej > 0 else math.inf)
            if fj < (lu - d) ** j or ej > (ls + d) ** j:
                raw_ok = False
            k_sum_f = max(k_sum_f, sum_f / fj)
            sum_f += fj
            tails = coc.tail_norms(j)
            for i in range(j):
                k_tail = max(k_tail, coc.F[i] * tails[i] / fj)
            d1, d2 = distortion_bounds(coc, j)
            if ej > 0:
                k_d2 = max(k_d2, d1 / ej)
                k_det = max(k_det, d2 / ej)
        h_tail = 0.0
        for i in range(level, 0, -1):
            h_tail += coc.H[i]
            k_sum_h = max(k_sum_h, h_tail / coc.H[i])

    k_fit = max(k_upper_f, k_lower_e, k_sum_f, k_tail, k_sum_h, k_d2, k_det)
    if not raw_ok:
        raise SpectralSlackError(
            f"K-free growth inequalities fail at radius eta={sched.radius(0)} with delta={d}"
        )
    if not k_fit <= K_FIT_CAP:
        raise SpectralSlackError(f"fitted K={k_fit:.3e} exceeds {K_FIT_CAP:.0e}")
    return GrowthReport(
        K_fit=k_fit, K_upper_F=k_upper_f, K_lower_E=k_lower_e, K_sum_F=k_sum_f,
        K_tail_product=k_tail, K_sum_H=k_sum_h, K_second_deriv=k_d2, K_det_grad=k_det,
        raw_ok=raw_ok, points_used=used, points_skipped=skipped, kmax=kmax, seed=seed,
    )


# -- maps and inputs ------------------------------------------------------------


def _linear():
    return make_map("linear", lambda_s=0.5, lambda_u=2.0)


def _box_limited():
    # in a box of half-width 0.15 a draw's first image 2y may leave the box:
    # such draws have no valid level, and deep draws are demoted
    return make_map("linear", lambda_s=0.5, lambda_u=2.0, box=(-0.15, 0.15, -0.15, 0.15))


def _guard_strip():
    # the strip |x - 0.055| <= 0.005 crosses the box; x_j = x_0 / 2^j never
    # enters it from outside, so exactly the draws inside it are dropped
    return dataclasses.replace(_linear(), singular_guard=lambda x, y: abs(x - 0.055), guard_margin=0.005)


def _henon_bad_right(part):
    # Henon (1.4, 0.3) whose second derivative ("hess") or Jacobian ("jac")
    # is infinite for x > 0.66, inside the box of half-width 0.05 at the saddle
    m = make_map("henon", a=1.4, b=0.3)
    hess, jac = m.raw_hess, m.raw_jac
    if part == "hess":
        return dataclasses.replace(m, raw_hess=lambda x, y: (math.inf,) * 6 if x > 0.66 else hess(x, y))
    return dataclasses.replace(m, raw_jac=lambda x, y: (math.inf, 1.0, 0.3, 0.0) if x > 0.66 else jac(x, y))


HENON_GUESS = Point2(0.6, 0.2)

# name: (map factory, fixed-point guess, delta override, eta, kmax, n, seed)
CASES = {
    "linear": (_linear, Point2(0.0, 0.0), 0.0, 0.1, 8, 300, 1),
    "perturbed": (lambda: make_map("perturbed", lambda_s=0.5, lambda_u=2.0, c=0.05),
                  Point2(0.01, 0.0), 0.02, 0.05, 10, 300, 2),
    "henon": (lambda: make_map("henon", a=1.4, b=0.3), HENON_GUESS, None, 0.05, 8, 300, 5),
    "guard-strip": (_guard_strip, Point2(0.0, 0.0), 0.0, 0.1, 8, 200, 1),
    "box-limited": (_box_limited, Point2(0.0, 0.0), 0.0, 0.1, 8, 200, 1),
}


def case(name):
    factory, guess, delta, eta, kmax, n, seed = CASES[name]
    m = factory()
    fp = eigen_split(m, guess)
    if delta is not None:
        fp = dataclasses.replace(fp, delta=delta)
    return m, fp, EpsilonSchedule.constant(eta), kmax, n, seed


def bits(v):
    """Exact representation of a float, array, container or report, for equality."""
    if isinstance(v, (float, np.floating)):
        return float(v).hex()
    if isinstance(v, np.ndarray):
        return [bits(x) for x in v.tolist()]
    if isinstance(v, (tuple, list)):
        return [bits(x) for x in v]
    if isinstance(v, dict):
        return {k: bits(x) for k, x in v.items()}
    if dataclasses.is_dataclass(v):
        return {f.name: bits(getattr(v, f.name)) for f in dataclasses.fields(v) if f.name not in ("map", "_tails")}
    return v


def growth_bits(rep):
    """bits of a GrowthReport without its point counts, which the tests check apart."""
    out = bits(rep)
    del out["points_used"], out["points_skipped"]
    return out


# -- the pass against the reference ---------------------------------------------


@pytest.mark.parametrize("name", list(CASES))
def test_budget_matches_reference(name):
    m, fp, sched, kmax, n, seed = case(name)
    new = estimate_budget(m, fp.p, sched, kmax, n=n, seed=seed)
    assert bits(new) == bits(ref_estimate_budget(m, fp.p, sched, kmax, n=n, seed=seed))
    if name == "box-limited":
        # the budget demoted draws before this change too
        assert new.accepted_counts[1] < n and new.accepted_counts[kmax] > 0


@pytest.mark.parametrize("name", ["linear", "perturbed", "henon", "guard-strip"])
def test_growth_matches_reference(name):
    m, fp, sched, kmax, n, seed = case(name)
    new = regular_growth_check(m, fp, sched, kmax, n, seed)
    ref = ref_regular_growth_check(m, fp, sched, kmax, n, seed)
    assert growth_bits(new) == growth_bits(ref)
    b = estimate_budget(m, fp.p, sched, kmax, n=n, seed=seed)
    # no draw is demoted: the same points are used, the fixed point and N^(1)
    assert new.points_used == ref.points_used == 1 + b.accepted_counts[1]
    assert ref.points_skipped == 0
    assert new.points_skipped == n - (new.points_used - 1)
    assert (new.points_skipped > 0) == (name == "guard-strip")


def test_growth_box_limited_demotes_instead_of_skipping():
    m, fp, sched, kmax, n, seed = case("box-limited")
    new = regular_growth_check(m, fp, sched, kmax, n, seed)
    ref = ref_regular_growth_check(m, fp, sched, kmax, n, seed)
    # the old check rebuilt 39 draws at a level the budget had demoted them from,
    # and skipped them; now they count at their budget level, with the same K
    assert (ref.points_used, ref.points_skipped) == (115, 39)
    assert (new.points_used, new.points_skipped) == (154, 47)
    assert growth_bits(new) == growth_bits(ref)


def test_infinite_second_derivative_demotes():
    hess_map, jac_map = _henon_bad_right("hess"), _henon_bad_right("jac")
    fp = eigen_split(hess_map, HENON_GUESS)
    sched, kmax, n, seed = EpsilonSchedule.constant(0.05), 6, 300, 5
    with pytest.raises(NonFiniteError, match="second derivative"):
        ref_estimate_budget(hess_map, fp.p, sched, kmax, n=n, seed=seed)
    with pytest.raises(NonFiniteError, match="second derivative"):
        ref_regular_growth_check(hess_map, fp, sched, kmax, n, seed)
    # the old code demoted the same draws when the Jacobian was the bad part
    new = estimate_budget(hess_map, fp.p, sched, kmax, n=n, seed=seed)
    assert bits(new) == bits(ref_estimate_budget(jac_map, fp.p, sched, kmax, n=n, seed=seed))
    assert 0 < new.accepted_counts[1] < n and new.accepted_counts[kmax] > 0
    rep = regular_growth_check(hess_map, fp, sched, kmax, n, seed)
    assert rep.points_used == 1 + new.accepted_counts[1]
    assert bits(rep) == bits(regular_growth_check(jac_map, fp, sched, kmax, n, seed))
