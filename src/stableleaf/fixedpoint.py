"""Hyperbolic fixed points: eigen-splitting, regular-growth constants, and the
end-to-end stable-manifold scenario (budget -> conditions -> epsilon -> leaf
Cauchy iteration -> contraction -> uniqueness) with the four quantitative
conclusions: tangency to the stable eigenvector, leaf length on both sides,
exponential contraction rate, and uniqueness as the width of the surviving strip.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .budget import DEFAULT_SAMPLES, VALUE_ROWS, EpsilonSchedule, check_condition_star, fold_max, log_slope, sample_sweep
from .cocycle import build_orbit_cocycle, series_term
from .directions import angle_distance
from .errors import (
    BadParamsError,
    DomainError,
    NoFixedPointError,
    NonFiniteError,
    NotHyperbolicError,
    SpectralSlackError,
)
from .leaf import (
    ContractionReport,
    ConvergenceReport,
    UniquenessReport,
    budget_to_epsilon,
    iterate_to_contraction,
    staged,
    uniqueness_probe,
)
from .maps import MapModel, Point2

UNIT_CIRCLE_TOL = 1e-9
NEWTON_TOL = 1e-12
NEWTON_MAX_ITER = 100
K_FIT_CAP = 1e6


@dataclass(frozen=True)
class FixedPointData:
    p: Point2
    lambda_s: float
    lambda_u: float
    Es: tuple[float, float]
    Eu: tuple[float, float]
    delta: float


def _eigenvector(j11, j12, j21, j22, lam) -> tuple[float, float]:
    # rows of (J - lam I) are both orthogonal complements of the eigenvector;
    # build from the better-conditioned choice and canonicalize the sign
    v1 = (j12, lam - j11)
    v2 = (lam - j22, j21)
    v = v1 if math.hypot(*v1) >= math.hypot(*v2) else v2
    nrm = math.hypot(*v)
    vx, vy = v[0] / nrm, v[1] / nrm
    if vx < 0.0 or (vx == 0.0 and vy < 0.0):
        vx, vy = -vx, -vy
    return vx, vy


def eigen_split(m: MapModel, guess: Point2) -> FixedPointData:
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
            if nres < res:
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
        delta=0.05 * (abs(lu) - 1.0),
    )


@dataclass
class GrowthReport:
    """Fitted constants of the regular-growth estimates at radius eta.

    K_fit is the smallest K >= 1 making all six families hold over the sample:
    the fixed point (draw -1) and the box draws of ``budget.sample_sweep``,
    each at its level, with the per-order values that sweep computes. raw_ok
    records the K-free middle inequalities of the eigenvalue envelope.
    points_used counts the fixed point and the draws with a valid level.
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
    points_skipped: int          # box draws with no valid cocycle level: n - (points_used - 1)
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
    fitted K exceeds 1e6. Every value, the fixed point's included, comes
    from ``sample_sweep``, and every fold keeps the order of operations of
    a per-point loop over j = 1..level. Only the fixed point's cocycle is
    built, before the sweep: it raises where that orbit fails, and the sweep
    reads the fixed point, kmax and the tube's reference orbit from it.
    """
    if sched.decay != 1.0:
        raise BadParamsError("regular growth check requires a constant schedule eps_j = eta")
    if n < 0:
        raise BadParamsError(f"n must be >= 0, got {n}")
    lu = abs(fp.lambda_u)
    ls = abs(fp.lambda_s)
    d = fp.delta
    if not (0.0 <= d < lu - 1.0 and ls + d < 1.0):
        raise BadParamsError(f"spectral slack delta={d} incompatible with |ls|={ls}, |lu|={lu}")

    centre = build_orbit_cocycle(m, fp.p, kmax)  # raises where the fixed point's orbit fails

    # row 0 is the fixed point (draw -1) and row 1 + i box draw i; orders past a row's level stay NaN
    E, F, H, D1, D2 = (np.full((n + 1, kmax + 1), math.nan) for _ in range(5))
    F[:, 0] = 1.0
    level = np.zeros(n + 1, dtype=int)
    k_tail = 1.0
    with np.errstate(all="ignore"):  # as Python floats: +inf on overflow, NaN for 0/0
        for o in sample_sweep(m, centre, sched, n, seed):
            k, rows = o.k, o.draw + 1
            v = dict(zip(VALUE_ROWS, o.values))
            level[rows] = k
            for a, x in zip((E, F, H, D1, D2), (v["gamma_star"], v["fmax"], v["gamma"], o.d1, o.d2)):
                a[rows, k] = x
            k_tail = fold_max(k_tail, F[rows, :k].T * o.tails / F[rows, k])  # F_j F_{j,k} / F_k, j < k

        js = np.arange(kmax + 1)
        on = (js >= 1) & (js <= level[:, None])  # the orders 1..level of each row
        # x ** j, +inf where float ** overflows (only lu + d and lu - d exceed 1)
        lu_hi, lu_lo, ls_hi, ls_lo = (
            np.array([series_term((x, j)) for j in js]) for x in (lu + d, lu - d, ls + d, ls - d))
        raw_ok = not np.any(on & ((F < lu_lo) | (E > ls_hi)))
        k_upper_f = fold_max(1.0, F / lu_hi, on)
        k_lower_e = fold_max(1.0, np.where(E > 0, ls_lo / E, math.inf), on)
        # F_0 + F_1 + ... + F_{j-1}, added in order: accumulate is sequential
        k_sum_f = fold_max(1.0, np.cumsum(F, axis=1)[:, :-1] / F[:, 1:], on[:, 1:])
        # H_level + ... + H_j, added from each row's level down
        h_tail = np.cumsum(np.where(on, H, 0.0)[:, ::-1], axis=1)[:, ::-1]
        k_sum_h = fold_max(1.0, h_tail / H, on)
        k_d2 = fold_max(1.0, D1 / E, on & (E > 0))
        k_det = fold_max(1.0, D2 / E, on & (E > 0))
    used = int(np.count_nonzero(level))

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
        raw_ok=raw_ok, points_used=used, points_skipped=n - (used - 1), kmax=kmax, seed=seed,
    )


@dataclass
class TheoremReport:
    """End-to-end verification record with one block per conclusion; the caller names the map.

    k0_ok holds by construction and is no evidence: estimate_budget sets
    k0 = last_bad + 2, where last_bad is the last k with terms[k] >= 1/2, so
    every term from k0 - 1 on is below 1/2.
    """

    fp: FixedPointData
    eta: float
    kmax: int
    seed: int
    star_verdict: str
    gamma_required: float
    eps: float
    converged: bool
    tangency_error: float        # (1) angle between limit tangent at p and Es
    length_pos: float            # (2) arclength reached on each side
    length_neg: float
    full_length: bool
    fitted_rate: float           # (3) log-linear contraction rate
    rate_deviation: float        #     |fitted_rate - ln|lambda_s||
    convergence: ConvergenceReport
    contraction: ContractionReport
    uniqueness: UniquenessReport  # (4)
    minidistortion_ok: bool
    k0_ok: bool


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
    n: int = DEFAULT_SAMPLES,
    tol: float = 1e-8,
    h: Optional[float] = None,
) -> TheoremReport:
    """Run the full pipeline at the fixed point and report the four conclusions.

    A NumericalError propagates with .stage naming the stage that failed.
    """
    b, gamma, L, eps = budget_to_epsilon(m, fp.p, EpsilonSchedule.constant(eta), kmax, n, seed)
    conv, contraction = iterate_to_contraction(m, b, eps, L, tol, h=h)
    limit = conv.limit
    uniq = staged("uniqueness", uniqueness_probe, m, b, limit)

    # (1) tangency at p against the stable eigenvector
    th_leaf = float(limit.thetas[limit.center_index])
    th_es = math.atan2(fp.Es[1], fp.Es[0])
    tangency = angle_distance(th_leaf, th_es)

    # (2) side lengths
    full = (not limit.truncated_neg) and (not limit.truncated_pos)

    # (3) least-squares slope of the widest pair's log ratio over the contraction's orders n >= k0,
    # truncated where the sequence stops decreasing (round-off floor)
    vals = contraction.widest_ratio[b.k0:]
    top = next((i for i in range(1, len(vals)) if not vals[i] < vals[i - 1]), len(vals))
    fit = [(n, v) for n, v in enumerate(vals[:top], start=b.k0) if v > 0.0]
    rate = log_slope(*zip(*fit)) if len(fit) >= 2 else math.nan
    rate_dev = abs(rate - math.log(abs(fp.lambda_s)))

    return TheoremReport(
        fp=fp, eta=eta, kmax=kmax, seed=seed,
        star_verdict=check_condition_star(b).verdict, gamma_required=gamma,
        eps=eps, converged=conv.converged,
        tangency_error=tangency, length_pos=limit.length_pos, length_neg=limit.length_neg,
        full_length=full, fitted_rate=rate, rate_deviation=rate_dev,
        convergence=conv, contraction=contraction, uniqueness=uniq,
        minidistortion_ok=_minidistortion_ok(b.cocycle),
        k0_ok=all(b.terms[k] < 0.5 for k in range(b.k0 - 1, b.kmax)),
    )
