"""Differential tests of the array budget pass ``budget.sample_sweep``.

``tail_norms`` and ``distortion_bounds`` below are the scalar, per-cocycle
forms of the tail norms and distortion bounds that ``_sweep_order`` and
``_delta_lanes`` compute for every lane. They, ``absorb`` and the growth
check read the steps and per-step values of ``ref_cocycle``, the scalar
reference cocycle of ``test_sweep.py``, not the package's. ``tail_norms``
builds each tail product Dphi_{k-1} ... Dphi_{j+1} by left factors,
Dphi_{k-1} (... (Dphi_{j+2} Dphi_{j+1})), the association of the sweep's
lane products.
``estimate_budget`` (with its ``absorb`` and ``cocycle_to``) and
``regular_growth_check`` are kept below, verbatim, as they were before both
read the box draws from one pass, now ``sample_sweep``: the budget demoted a
failing draw to its largest valid level, and the growth check rebuilt every
sampled draw's cocycle at its tube level and skipped a draw whose build
failed. Every field is compared bit for bit (``float.hex``); the reference
``samples[k]`` is a list of Point2, which compares equal to the (count, 2)
array the budget now holds. The documented differences are asserted as
such:

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

import stableleaf.budget as budget_mod
import stableleaf.fixedpoint as fixedpoint_mod
from stableleaf import EpsilonSchedule, Point2, eigen_split, estimate_budget, make_map, regular_growth_check
from stableleaf.budget import (
    DEFAULT_SAMPLES,
    NEIGHBORHOOD_STREAM,
    HyperbolicityBudget,
)
from stableleaf.cocycle import build_orbit_cocycle, series_term
from stableleaf.cocycle import singular_values as package_singular_values
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
from stableleaf.rng import SplitRng

from conftest import ref_first_tube_exit, reference_orbit
from frame_reference import _NORMAL_MIN, mat_mul, singular_values
from test_sweep import RefOrbitCocycle, ref_build_orbit_cocycle


# -- reference copies of the replaced loops ------------------------------------


def ref_cocycle(m: MapModel, z: Point2, kmax: int) -> RefOrbitCocycle:
    """ref_build_orbit_cocycle with E and F from the package's 2x2 frame, whose bits the budget keeps.

    The reference frame rounds apart from it where a product's entries square
    into the subnormal range (``frame_reference.in_declared_region``), as the
    order-2 products of the "tail-deferred" case do.
    """
    return ref_build_orbit_cocycle(m, z, kmax, frame=package_singular_values)


def tail_norms(c: RefOrbitCocycle, k: int) -> list[float]:
    """F_{j,k} = ||Dphi^(k-j-1) at z_{j+1}|| for j = 0..k-1 (F_{k-1,k} = 1).

    Each tail product is built by left factors from its first step, in the
    association Dphi_{k-1} (... (Dphi_{j+2} Dphi_{j+1})).
    """
    out = [1.0] * k
    for j in range(k - 1):
        t = c.steps[j + 1]
        for i in range(j + 2, k):
            t = mat_mul(c.steps[i], t)
        out[j] = singular_values(t)[1]
    return out


def distortion_bounds(c: RefOrbitCocycle, k: int) -> tuple[float, float]:
    """Right-hand sides (d1, d2) of the two distortion inequalities at order k, from a cocycle."""
    tails = tail_norms(c, k)
    F, Pt, Dd, Ddt = c.F.tolist(), c.Pt.tolist(), c.Dd.tolist(), c.Ddt.tolist()
    # Python floats overflow to +inf silently; a NaN can only be 0 * inf, a
    # term with an exactly zero factor, which is 0
    s1 = 0.0
    s2 = 0.0
    for j in range(k):
        fj = F[j]
        t = Pt[j] * tails[j] * fj * fj
        s1 += t if t == t else 0.0
        s2 += (Ddt[j] / Dd[j]) * fj
    ek, fk = float(c.E[k]), F[k]
    f2 = fk * fk
    # below the normal range F_k^2 loses bits or reads 0: divide by F_k twice
    d1 = (ek / f2 if f2 >= _NORMAL_MIN else ek / fk / fk) * s1
    return (d1 if d1 == d1 else 0.0), (ek / fk) * s2


def _box_draws(z: Point2, eps0: float, n: int, seed: int) -> list[Point2]:
    rng = SplitRng(seed).substream(NEIGHBORHOOD_STREAM)
    cx, cy = float(z[0]), float(z[1])
    return [Point2(*rng.point_in_box(cx, cy, eps0)) for _ in range(n)]


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
                return ref_cocycle(m, pt2, lev), lev
            except (OrbitEscapeError, SingularStepError):
                lev -= 1
        return None, 0

    for d in draws:
        exit_j = ref_first_tube_exit(m, ref, d, sched, kmax - 1)
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

    absorb(ref_cocycle(m, z, kmax), kmax)

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
        z=Point2(*z), kmax=kmax, n=n, seed=seed, sched=sched,
        p=p, q=q, pt=pt, gamma=gamma, gamma_star=gamma_star, delta=delta,
        fmax=fmax, terms=terms, xi=xi, gamma_tilde=gamma_tilde,
        star_terms=star_terms, star_partial_sums=star_partial_sums,
        k0=k0, cocycle=build_orbit_cocycle(m, z, kmax), samples=samples, accepted_counts=counts,
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
        exit_j = ref_first_tube_exit(m, ref, p, sched, kmax - 1)
        level = kmax if exit_j is None else exit_j
        if level < 1:
            continue
        try:
            coc = ref_cocycle(m, p, level)
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
            tails = tail_norms(coc, j)
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
    return dataclasses.replace(make_map("linear", lambda_s=0.5, lambda_u=2.0), box=(-0.15, 0.15, -0.15, 0.15))


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


def _scalar_only(m):
    """m with every raw callable and the guard taking floats only: numpy arrays raise TypeError."""
    def wrap(fn):
        return None if fn is None else (lambda x, y: fn(math.fsum([x]), math.fsum([y])))

    return dataclasses.replace(
        m, raw_eval=wrap(m.raw_eval), raw_jac=wrap(m.raw_jac), raw_hess=wrap(m.raw_hess),
        raw_det_grad=wrap(m.raw_det_grad), singular_guard=wrap(m.singular_guard),
    )


def _no_derivatives(m):
    # finite differences for the Jacobian, the second partials and grad det
    return dataclasses.replace(m, raw_jac=None, raw_hess=None, raw_det_grad=None)


def _steps_map(jac):
    """The contraction (x/2, y/2), whose draws stay in every tube, with the given one-step derivatives.

    With entries up to 1e118 away from the centre the order-2 products have
    squares past the float range and order 3 overflows; with entries near
    1e-130 the order-2 products have subnormal squares.
    """
    return dataclasses.replace(make_map("linear", lambda_s=0.5, lambda_u=0.5), raw_jac=jac)


def _nan_delta_map():
    """A _steps_map whose points right of x = 0 have delta_k = 0 * inf = NaN for k >= 2.

    There Dphi = diag(1, 1e-170), so Dphi^2 = diag(1, 0) after underflow and
    E_k = 0, while |grad det| / det = 1e330 overflows. Left of it every delta
    is finite and positive.
    """
    m = _steps_map(lambda x, y: (1.0, 0.0, 0.0, 1e-170 if x > 0 else 0.5))
    return dataclasses.replace(m, raw_det_grad=lambda x, y: (1e160 if x > 0 else 1.0 - x, 0.0))


# the "tail-deferred" steps diag(T (1 + 4x), T 2^-10), T = 2^-255: a two-step
# tail product has F = 2^-510 (1 + 2 x_0)(1 + x_0) and sum of squares s with
# F^2 <= s <= F^2 (1 + 2^-20), which straddles singular_values_lanes' lower
# bound 2^-1020, so at order 3 the scalar fallback takes some lanes of the batch
TAIL_STEP = 2.0 ** -255

HENON_GUESS = Point2(0.6, 0.2)
HENON_FP = Point2(0.6313544770895048, 0.18940634312685142)

# name: (map factory, fixed-point guess, delta override, eta, kmax, n, seed)
CASES = {
    "linear": (_linear, Point2(0.0, 0.0), 0.0, 0.1, 8, 300, 1),
    "perturbed": (lambda: make_map("perturbed", lambda_s=0.5, lambda_u=2.0, c=0.05),
                  Point2(0.01, 0.0), 0.02, 0.05, 10, 300, 2),
    "henon": (lambda: make_map("henon", a=1.4, b=0.3), HENON_GUESS, None, 0.05, 8, 300, 5),
    "guard-strip": (_guard_strip, Point2(0.0, 0.0), 0.0, 0.1, 8, 200, 1),
    "box-limited": (_box_limited, Point2(0.0, 0.0), 0.0, 0.1, 8, 200, 1),
    # the one case whose draws have K_tail_product above 1
    "henon-negative-b": (lambda: make_map("henon", a=1.4, b=-0.3), HENON_GUESS, None, 0.05, 8, 300, 1),
    "perturbed-two-blocks": (lambda: make_map("perturbed", lambda_s=0.5, lambda_u=2.0, c=0.05),
                             Point2(0.01, 0.0), 0.02, 0.05, 6, budget_mod.SAMPLE_BLOCK + 3, 4),
}
GROWTH_CASES = ["linear", "perturbed", "henon", "guard-strip", "henon-negative-b", "perturbed-two-blocks"]


# budget-only inputs, name: (map factory, z, eta, kmax, n, seed)
ARRAY_CASES = {
    "henon-scalar-only": (lambda: _scalar_only(make_map("henon", a=1.4, b=0.3)), HENON_FP, 0.05, 8, 300, 5),
    "henon-no-derivatives": (lambda: _no_derivatives(make_map("henon", a=1.4, b=0.3)), HENON_FP, 0.05, 6, 150, 3),
    "guard-strip-scalar-only": (lambda: _scalar_only(_guard_strip()), Point2(0.0, 0.0), 0.1, 8, 200, 1),
    "overflow": (lambda: _steps_map(lambda x, y: (0.5, 0.0, 0.0, 1.0 + 1e120 * x * x)), Point2(0.0, 0.0), 0.1, 6, 200, 1),
    "subnormal": (lambda: _steps_map(lambda x, y: (1e-130 * (1.0 + x), 0.0, 0.0, 3e-130 * (1.0 + y))),
                  Point2(0.0, 0.0), 0.1, 2, 200, 2),
    "nan-delta": (_nan_delta_map, Point2(0.01, 0.0), 0.1, 3, 200, 3),
    "tail-deferred": (lambda: _steps_map(lambda x, y: (TAIL_STEP * (1.0 + 4.0 * x), 0.0, 0.0, TAIL_STEP * 2.0 ** -10)),
                      Point2(0.0, 0.0), 0.1, 3, 200, 1),
    "one-draw": (lambda: make_map("perturbed", lambda_s=0.5, lambda_u=2.0, c=0.05), Point2(0.01, 0.0), 0.05, 10, 1, 2),
    "two-blocks": (lambda: make_map("perturbed", lambda_s=0.5, lambda_u=2.0, c=0.05), Point2(0.0, 0.0), 0.05, 6,
                   budget_mod.SAMPLE_BLOCK + 3, 4),
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


def array_case(name):
    if name in ARRAY_CASES:
        factory, z, eta, kmax, n, seed = ARRAY_CASES[name]
        return factory(), z, EpsilonSchedule.constant(eta), kmax, n, seed
    m, fp, sched, kmax, n, seed = case(name)
    return m, fp.p, sched, kmax, n, seed


# small cases run one draw per block: one-lane arrays, and a box-limited or
# guard-strip block whose one draw fails its first step ends at order 1 with zero lanes
ONE_DRAW_BLOCKS = ["henon", "box-limited", "guard-strip", "overflow", "nan-delta", "tail-deferred"]
ONE_DRAW_SAMPLES = 30

# at 64 draws a block, these inputs pool the live draws of at least 3 blocks
# before kmax; at 20, henon's pool at its first pooled order spans two
# chunks, which merge at the next
POOL_BLOCKS = [(name, 64) for name in ("linear", "perturbed", "henon", "guard-strip", "box-limited",
                                       "henon-scalar-only", "henon-no-derivatives", "guard-strip-scalar-only")]
POOL_BLOCKS += [("henon", 20)]


@pytest.mark.parametrize(
    "name, block",
    [(name, None) for name in ARRAY_CASES] + [(name, 7) for name in list(ARRAY_CASES) + list(CASES)]
    + [(name, 1) for name in ONE_DRAW_BLOCKS] + POOL_BLOCKS,
)
def test_array_budget_matches_reference(name, block, monkeypatch):
    if block is not None:
        # 7 divides none of the sample sizes: the last block is partial
        monkeypatch.setattr(budget_mod, "SAMPLE_BLOCK", block)
    m, z, sched, kmax, n, seed = array_case(name)
    if block == 1:
        n = ONE_DRAW_SAMPLES
    if "scalar-only" in name:
        with pytest.raises(TypeError):  # so the budget calls it once per point
            m.raw_eval(np.zeros(2), np.zeros(2))
    new = estimate_budget(m, z, sched, kmax, n=n, seed=seed)
    with np.errstate(over="ignore"):  # the reference warns where gamma_tilde overflows to +inf
        ref = ref_estimate_budget(m, z, sched, kmax, n=n, seed=seed)
    assert bits(new) == bits(ref)
    if block == 1 and name in ("box-limited", "guard-strip"):
        assert new.accepted_counts[1] < n and new.accepted_counts[kmax] > 0
    if name == "overflow":
        # Dphi^3 overflows for every draw but those with |x| below about 1e-20
        assert new.accepted_counts[2] == n and new.accepted_counts[3] == 0
    if name == "subnormal":
        assert new.accepted_counts[2] == n and 0.0 < new.fmax[2] < 1e-250
    if name == "nan-delta":
        # NaN, the centre's delta among them, raises no maximum; the finite ones do
        d1, d2 = distortion_bounds(ref_cocycle(m, z, kmax), 3)
        assert new.accepted_counts[3] == n and math.isnan(d1 + d2) and 0.0 < new.delta[3] < math.inf


# SweepOrder.values names, and the reference cocycle field each one reads
SWEEP_FIELDS = {"p": "P", "q": "Q", "pt": "Pt", "gamma": "H", "gamma_star": "E", "fmax": "F"}


# the lane ties run on every CASES input and on the array inputs whose tail norms
# overflow, underflow, turn d1 into NaN, or straddle the scalar fallback's bound
LANE_CASES = list(CASES) + ["overflow", "subnormal", "nan-delta", "tail-deferred"]


@pytest.mark.parametrize(
    "name, block",
    [pytest.param(name, None, id=name) for name in LANE_CASES]
    + [pytest.param(name, 7, id=f"{name}-7") for name in LANE_CASES]
    + [pytest.param(name, block, id=f"{name}-{block}") for name, block in POOL_BLOCKS if name in LANE_CASES],
)
def test_sweep_lanes_match_reference(name, block, monkeypatch):
    # every lane's values, not only their maxima, are those of its cocycle at its level
    if block is not None:
        monkeypatch.setattr(budget_mod, "SAMPLE_BLOCK", block)
    m, z, sched, kmax, n, seed = array_case(name)
    lanes = {}  # draw: (point, {k: values at order k})
    deferred = set()  # orders whose two-step tail norms straddle 2^-510 (for "tail-deferred": s straddles 2^-1020)
    for o in budget_mod.sample_sweep(m, build_orbit_cocycle(m, z, kmax), sched, n, seed):
        assert o.tails.shape == (o.k, len(o.draw))
        if o.k >= 3 and np.any(o.tails[:-2] < 2.0 ** -510.25) and np.any(o.tails[:-2] > 2.0 ** -510):
            deferred.add(o.k)
        for i, draw in enumerate(o.draw.tolist()):
            got = {(f, j): v[i] for f, j, v in o.values}
            got["d1"], got["d2"] = o.d1[i], o.d2[i]
            got["tails"] = o.tails[:, i]
            lanes.setdefault(draw, (Point2(o.x[i], o.y[i]), {}))[1][o.k] = got
    assert lanes[-1][0] == z and sorted(lanes[-1][1]) == list(range(1, kmax + 1))
    assert bool(deferred) == (name == "tail-deferred")
    for point, orders in lanes.values():
        level = max(orders)
        assert sorted(orders) == list(range(1, level + 1))
        coc = ref_cocycle(m, point, level)
        for k, got in orders.items():
            d1, d2 = distortion_bounds(coc, k)
            want = {(f, k): getattr(coc, a)[k] for f, a in SWEEP_FIELDS.items()}
            if k == 1:
                want.update({(f, 0): getattr(coc, SWEEP_FIELDS[f])[0] for f in ("p", "q", "pt")})
            want[("delta", k)] = d1 + d2
            want["d1"], want["d2"], want["tails"] = d1, d2, tail_norms(coc, k)
            assert bits(got) == bits(want)


@pytest.mark.parametrize("name, block", [pytest.param(name, block, id=f"{name}-{block}") for name, block in POOL_BLOCKS])
def test_sweep_pools_the_deep_orders(name, block, monkeypatch):
    # blocks swept depth first to k*, then each deeper order once over the pool of all blocks
    monkeypatch.setattr(budget_mod, "SAMPLE_BLOCK", block)
    m, z, sched, kmax, n, seed = array_case(name)
    orders = list(budget_mod.sample_sweep(m, build_orbit_cocycle(m, z, kmax), sched, n, seed))
    blocks = -(-n // block)
    # z (draw -1) is in block 0, and draw d >= 0 in block d // block
    spans = [np.unique(np.maximum(o.draw, 0) // block).tolist() for o in orders]
    first_run = {}  # block 0's live lanes at each of its orders, which come first
    for o in orders:
        if o.k in first_run:
            break
        first_run[o.k] = len(o.draw)
    # k*: the first order at which block 0's live lanes times the number of blocks are at most a block
    deep = min(k for k, lanes in first_run.items() if lanes * blocks <= block)
    assert deep < kmax and max(first_run) == deep
    shallow = [(span[0], o.k) for o, span in zip(orders, spans) if o.k <= deep]
    assert all(len(span) == 1 for o, span in zip(orders, spans) if o.k <= deep)
    assert [o.k for o in orders[:len(shallow)]] == [k for _, k in shallow] and shallow == sorted(shallow)
    pooled = orders[len(shallow):]
    assert [o.k for o in pooled] == sorted(o.k for o in pooled) and pooled[0].k == deep + 1
    assert all(len(o.draw) <= block for o in pooled)
    assert max(len(span) for span in spans[len(shallow):]) >= 3
    if block == 20:
        chunks = [o.k for o in pooled]
        assert chunks.count(deep + 1) == 2 and chunks.count(deep + 2) == 1
    # the SweepOrders of each order come in draw order, and so does each b.samples[k]
    b = estimate_budget(m, z, sched, kmax, n=n, seed=seed)
    for k in range(1, kmax + 1):
        at_k = [o for o in orders if o.k == k]
        draws = np.concatenate([o.draw for o in at_k])
        assert np.all(np.diff(draws) > 0)
        points = np.concatenate([np.column_stack([o.x, o.y])[o.draw >= 0] for o in at_k])
        assert bits(b.samples[k]) == bits(points)


@pytest.mark.parametrize("name", ["linear", "henon"])
def test_budget_builds_only_the_centre(name, monkeypatch):
    # every array value has the scalar bits, so no draw's cocycle is rebuilt
    m, z, sched, kmax, n, seed = array_case(name)
    builds = []
    real = budget_mod.build_orbit_cocycle
    monkeypatch.setattr(budget_mod, "build_orbit_cocycle", lambda *a: builds.append(a[2]) or real(*a))
    b = estimate_budget(m, z, sched, kmax, n=n, seed=seed)
    assert b.accepted_counts[kmax] > 0
    assert builds == [kmax]


def test_growth_check_builds_only_the_fixed_point(monkeypatch):
    # every draw's values come from sample_sweep; only the fixed point's cocycle is built
    m, fp, sched, kmax, n, seed = case("box-limited")
    b = estimate_budget(m, fp.p, sched, kmax, n=n, seed=seed)
    builds = []
    real = budget_mod.build_orbit_cocycle
    for mod in (budget_mod, fixedpoint_mod):
        monkeypatch.setattr(mod, "build_orbit_cocycle", lambda *a: builds.append(a[2]) or real(*a))
    rep = regular_growth_check(m, fp, sched, kmax, n, seed)
    assert builds == [kmax]
    assert rep.points_used - 1 == n - rep.points_skipped == b.accepted_counts[1]


@pytest.mark.parametrize(
    "name, block",
    [pytest.param(name, None, id=name) for name in GROWTH_CASES]
    + [pytest.param(name, 7, id=f"{name}-7") for name in GROWTH_CASES]
    + [pytest.param(name, block, id=f"{name}-{block}") for name, block in POOL_BLOCKS if name in GROWTH_CASES],
)
def test_growth_matches_reference(name, block, monkeypatch):
    if block is not None:
        # the fold indexes draws across blocks: 7 divides none of the sample sizes
        monkeypatch.setattr(budget_mod, "SAMPLE_BLOCK", block)
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
    if name == "henon-negative-b":
        assert new.K_tail_product.hex() == "0x1.a2bb1d345e098p+0"


def _two_row_sweep(f, tails_at_3):
    """A sample_sweep stand-in for kmax 3 and one draw: the linear (0.5, 2) fixed point and a made-up draw.

    The fixed point (draw -1) has its true values: E_k = 0.5^k, F_k = 2^k and
    F_{j,k} = 2^(k-j-1). The draw has E_k = 0.5^k, F_k = f[k], d1 = d2 = 0,
    and the tail norms 1.0, except tails_at_3 at order 3.
    """
    def sweep(m, centre, sched, n, seed):
        assert centre.kmax == 3
        for k in range(1, 4):
            e = np.full(2, 0.5 ** k)
            fk = np.array([2.0 ** k, f[k]])
            draw_tails = tails_at_3 if k == 3 else [1.0] * k
            tails = np.array([[2.0 ** (k - j - 1), t] for j, t in enumerate(draw_tails)])
            values = [("gamma", k, e / fk), ("gamma_star", k, e), ("fmax", k, fk)]
            yield budget_mod.SweepOrder(k, np.array([-1, 0]), np.zeros(2), np.zeros(2), values,
                                        np.zeros(2), np.zeros(2), tails)
    return sweep


@pytest.mark.parametrize("f, tails_at_3, k_tail", [
    ([1.0, 2.0, 40.0, 8.0], [1.0, 1.0, 1.0], 5.0),  # i = k - 1: F_2 F_{2,3} / F_3 = 40 / 8
    ([1.0, 2.0, 4.0, 8.0], [80.0, 2.0, 1.0], 10.0),  # i = 0: F_0 F_{0,3} / F_3 = 80 / 8
], ids=["last-index", "first-index"])
def test_growth_tail_product_end_terms(f, tails_at_3, k_tail, monkeypatch):
    # each run's K_tail_product is set by one end of i = 0..k-1 alone, which no built-in map does
    m = _linear()
    fp = eigen_split(m, Point2(0.0, 0.0))
    monkeypatch.setattr(fixedpoint_mod, "sample_sweep", _two_row_sweep(f, tails_at_3))
    rep = regular_growth_check(m, fp, EpsilonSchedule.constant(0.05), 3, 1, 1)
    assert rep.raw_ok and (rep.points_used, rep.points_skipped) == (2, 0)
    assert rep.K_tail_product == k_tail


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
