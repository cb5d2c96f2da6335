"""Hyperbolic fixed points: eigen-splitting, regular-growth constants, and the
end-to-end stable-manifold scenario (budget -> conditions -> epsilon -> leaf
Cauchy iteration -> contraction -> uniqueness) with the four quantitative
conclusions: tangency to the stable eigenvector, leaf length on both sides,
exponential contraction rate, and uniqueness of the surviving set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .budget import (
    EpsilonSchedule,
    check_condition_double_star,
    check_condition_star,
    estimate_budget,
    first_tube_exit,
    reference_orbit,
)
from .cocycle import build_orbit_cocycle, distortion_bounds
from .directions import angle_distance, field_lipschitz
from .errors import (
    BadParamsError,
    DomainError,
    NoFixedPointError,
    NonFiniteError,
    NotHyperbolicError,
    NumericalError,
    SpectralSlackError,
)
from .leaf import (
    ContractionReport,
    ConvergenceReport,
    UniquenessReport,
    cauchy_iterate,
    choose_epsilon,
    contraction_check,
    contraction_fit_top,
    uniqueness_probe,
)
from .maps import MapModel, Point2

UNIT_CIRCLE_TOL = 1e-9
NEWTON_TOL = 1e-12
NEWTON_MAX_ITER = 100
UNIQUENESS_PROBES = 200
K_FIT_CAP = 1e6


@dataclass(frozen=True)
class FixedPointData:
    p: Point2
    lambda_s: float
    lambda_u: float
    Es: tuple[float, float]
    Eu: tuple[float, float]
    eta: float
    delta: float
    K_fit: Optional[float] = None


def _eigenvector(j11, j12, j21, j22, lam) -> tuple[float, float]:
    # rows of (J - lam I) are both orthogonal complements of the eigenvector;
    # build from the better-conditioned choice and canonicalize the sign
    v1 = (j12, lam - j11)
    v2 = (lam - j22, j21)
    v = v1 if math.hypot(*v1) >= math.hypot(*v2) else v2
    nrm = math.hypot(*v)
    if nrm == 0.0:
        v, nrm = (1.0, 0.0), 1.0
    vx, vy = v[0] / nrm, v[1] / nrm
    if vx < 0.0 or (vx == 0.0 and vy < 0.0):
        vx, vy = -vx, -vy
    return vx, vy


def eigen_split(m: MapModel, guess: Point2, eta: float = 0.05) -> FixedPointData:
    """Locate a hyperbolic saddle near guess and split its eigendata.

    Newton iteration p <- p - (Dphi(p) - I)^-1 (phi(p) - p), damped on residual
    growth, to residual 1e-12 within NEWTON_MAX_ITER steps. Refuses eigenvalues
    within 1e-9 of the unit circle (NotHyperbolicError) and non-saddle spectra.
    The spectral slack delta is 0.05 * (|lambda_u| - 1).
    """
    x, y = float(guess[0]), float(guess[1])
    fx, fy = m.eval_xy(x, y)
    res = math.hypot(fx - x, fy - y)
    for _ in range(NEWTON_MAX_ITER):
        if res <= NEWTON_TOL:
            break
        j11, j12, j21, j22 = m.jac_xy(x, y)
        a11, a12, a21, a22 = j11 - 1.0, j12, j21, j22 - 1.0
        det = a11 * a22 - a12 * a21
        if det == 0.0:
            raise NoFixedPointError("Newton matrix Dphi - I singular")
        rx, ry = fx - x, fy - y
        sx = -(a22 * rx - a12 * ry) / det
        sy = -(-a21 * rx + a11 * ry) / det
        damp = 1.0
        while damp >= 1.0 / 1024.0:
            nx, ny = x + damp * sx, y + damp * sy
            try:
                gx, gy = m.eval_xy(nx, ny)
            except (DomainError, NonFiniteError):
                damp *= 0.5
                continue
            nres = math.hypot(gx - nx, gy - ny)
            if nres < res or res <= NEWTON_TOL:
                x, y, fx, fy, res = nx, ny, gx, gy, nres
                break
            damp *= 0.5
        else:
            raise NoFixedPointError(f"Newton stalled at residual {res:.3e} near ({x}, {y})")
    if res > NEWTON_TOL:
        raise NoFixedPointError(f"no fixed point to residual {NEWTON_TOL} near {tuple(guess)}")

    j11, j12, j21, j22 = m.jac_xy(x, y)
    tr = j11 + j22
    det = j11 * j22 - j12 * j21
    disc = tr * tr - 4.0 * det
    if disc < 0.0:
        mod = math.sqrt(det)
        if abs(mod - 1.0) <= UNIT_CIRCLE_TOL:
            raise NotHyperbolicError(f"complex eigenvalues of modulus {mod} on the unit circle")
        raise NotHyperbolicError("complex eigenvalue pair: no one-dimensional stable splitting")
    sq = math.sqrt(disc)
    l1 = 0.5 * (tr + sq)
    l2 = 0.5 * (tr - sq)
    for lam in (l1, l2):
        if abs(abs(lam) - 1.0) <= UNIT_CIRCLE_TOL:
            raise NotHyperbolicError(f"eigenvalue {lam} within {UNIT_CIRCLE_TOL} of the unit circle")
    ls, lu = (l1, l2) if abs(l1) < abs(l2) else (l2, l1)
    if not (0.0 < abs(ls) < 1.0 < abs(lu)):
        raise NotHyperbolicError(f"not a saddle: |eigenvalues| = {abs(ls)}, {abs(lu)}")
    return FixedPointData(
        p=Point2(x, y),
        lambda_s=ls,
        lambda_u=lu,
        Es=_eigenvector(j11, j12, j21, j22, ls),
        Eu=_eigenvector(j11, j12, j21, j22, lu),
        eta=eta,
        delta=0.05 * (abs(lu) - 1.0),
    )


@dataclass
class GrowthReport:
    """Fitted constants of the regular-growth estimates at radius eta.

    K_fit is the smallest K >= 1 making all six families hold over the sample;
    raw_ok records the K-free middle inequalities of the eigenvalue envelope.
    """

    K_fit: float
    K_upper_F: float
    K_lower_E: float
    K_sum_F: float
    K_tail_product: float
    K_sum_H: float
    K_second_deriv: float
    K_det_grad: float
    raw_ok: bool
    points_used: int
    points_skipped: int          # sample points whose cocycle failed numerically
    kmax: int
    seed: int


def regular_growth_check(
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

    b = estimate_budget(m, fp.p, sched, kmax, n=n, seed=seed)
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


@dataclass
class TheoremReport:
    """End-to-end verification record with one block per conclusion."""

    map_name: str
    fp: FixedPointData
    eta: float
    kmax: int
    seed: int
    star_verdict: str
    gamma_required: float
    eps: float
    L_used: float
    converged: bool
    tangency_error: float        # (1) angle between limit tangent at p and Es
    length_pos: float            # (2) arclength reached on each side
    length_neg: float
    full_length: bool
    fitted_rate: float           # (3) log-linear contraction rate
    rate_deviation: float        #     |fitted_rate - ln|lambda_s||
    uniqueness_survivors: int    # (4)
    uniqueness_on_leaf_exits: int
    probe_count: int
    convergence: ConvergenceReport = None
    contraction: ContractionReport = None
    uniqueness: UniquenessReport = None
    minidistortion_ok: bool = True
    k0_ok: bool = True


def _minidistortion_ok(coc) -> bool:
    """E_{k+1}/E_k, F_{k+1}/F_k in [1/Q_k, P_k]; H ratio within [1/(PQ), PQ]."""
    slack = 1.0 + 1e-9
    for k in range(coc.kmax):
        pk, qk = coc.P[k], coc.Q[k]
        re = coc.E[k + 1] / coc.E[k]
        rf = coc.F[k + 1] / coc.F[k]
        rh = coc.H[k + 1] / coc.H[k]
        if not (1.0 / (qk * slack) <= re <= pk * slack and 1.0 / (qk * slack) <= rf <= pk * slack):
            return False
        if not (1.0 / (pk * qk * slack) <= rh <= pk * qk * slack):
            return False
    return True


def verify_fixed_point_theorem(
    m: MapModel,
    fp: FixedPointData,
    eta: float,
    kmax: int,
    seed: int,
    n: int = 2000,
    tol: float = 1e-8,
    h: Optional[float] = None,
) -> TheoremReport:
    """Run the full pipeline at the fixed point and report the four conclusions.

    Pipeline errors propagate annotated with a .stage attribute naming the
    stage that failed.
    """
    def _stage(name, fn, *args, **kw):
        try:
            return fn(*args, **kw)
        except Exception as exc:
            if not hasattr(exc, "stage"):
                exc.stage = name
            raise

    sched = EpsilonSchedule.constant(eta)
    b = _stage("budget", estimate_budget, m, fp.p, sched, kmax, n=n, seed=seed)
    star = check_condition_star(b)
    dstar = check_condition_double_star(b, sched)

    coc = _stage("cocycle", build_orbit_cocycle, m, fp.p, kmax)
    L = _stage("direction-derivative", field_lipschitz, m, coc, kmax)

    eps = _stage("choose-epsilon", choose_epsilon, b, dstar.gamma_required, L, sched)
    conv = _stage("cauchy-iterate", cauchy_iterate, m, fp.p, b, sched, eps, kmax, tol, L=L, h=h)
    limit = conv.limit

    fit_top = contraction_fit_top(b, kmax)
    contraction = _stage("contraction", contraction_check, m, limit, b, n=fit_top, seed=seed)
    conv.C_fit = contraction.C_fit
    uniq = _stage("uniqueness", uniqueness_probe, m, fp.p, sched, limit, kmax, probes=UNIQUENESS_PROBES, seed=seed)

    # (1) tangency at p against the stable eigenvector
    th_leaf = float(limit.thetas[limit.center_index])
    th_es = math.atan2(fp.Es[1], fp.Es[0])
    tangency = angle_distance(th_leaf, th_es)

    # (2) side lengths
    len_neg = float(limit.t[limit.center_index] - limit.t[0])
    len_pos = float(limit.t[-1] - limit.t[limit.center_index])
    full = (not limit.truncated_neg) and (not limit.truncated_pos)

    # (3) least-squares slope of the widest pair's log ratio over n = k0..fit_top,
    # truncated where the sequence stops decreasing (round-off floor)
    start = max(b.k0 or 1, 1)
    vals = contraction.widest_ratio[start: fit_top + 1]
    top = len(vals)
    for i in range(1, len(vals)):
        if not vals[i] < vals[i - 1]:
            top = i
            break
    vals = vals[:top]
    ns = np.arange(start, start + len(vals), dtype=float)
    mask = vals > 0.0
    if np.count_nonzero(mask) >= 2:
        rate = float(np.polyfit(ns[mask], np.log(vals[mask]), 1)[0])
    else:
        rate = math.nan
    rate_dev = abs(rate - math.log(abs(fp.lambda_s)))

    return TheoremReport(
        map_name=m.name, fp=replace(fp, eta=eta), eta=eta, kmax=kmax, seed=seed,
        star_verdict=star.verdict, gamma_required=dstar.gamma_required,
        eps=eps, L_used=L, converged=conv.converged,
        tangency_error=tangency, length_pos=len_pos, length_neg=len_neg,
        full_length=full, fitted_rate=rate, rate_deviation=rate_dev,
        uniqueness_survivors=uniq.survivors, uniqueness_on_leaf_exits=uniq.on_leaf_exits,
        probe_count=UNIQUENESS_PROBES, convergence=conv, contraction=contraction, uniqueness=uniq,
        minidistortion_ok=_minidistortion_ok(coc),
        k0_ok=b.k0 is not None and all(b.terms[k] < 0.5 for k in range(b.k0 - 1, b.kmax)),
    )
