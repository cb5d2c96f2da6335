"""Finite-time contracted direction fields and the angle/derivative bounds.

Angles of directions are identified mod pi (a direction and its negative are
the same). ``theta_contract`` of an order-k cocycle product is the angle of
e^(k); the inter-order gap is the mod-pi distance between consecutive orders,
folded into [0, pi/2].
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .cocycle import CONFORMAL_TOL, OrbitCocycle, _contract_angle, orbit_sweep, singular_values
from .errors import BoundViolationError, ConformalError, OrbitEscapeError, StencilEscapeError
from .maps import MapModel, Point2

PI = math.pi


@dataclass(frozen=True)
class DerivativeBoundCoefficients:
    """Constants of the direction-derivative bound chain, fixed exactly."""

    gap_sq: float = 1597.0        # coefficient of (p q)^2 delta_{k+1}
    gap_fifth: float = 40.0       # coefficient of (p q)^5 delta_k
    gap_cubic: float = 40.0       # coefficient of (p q)^3 q^2 p~ gamma*_{k+1}


ANGLE_COEFFS = DerivativeBoundCoefficients()


def fold_angle(theta: float) -> float:
    """Reduce an angle to [0, pi)."""
    t = math.fmod(theta, PI)
    return t + PI if t < 0.0 else t


def angle_distance(a: float, b: float) -> float:
    """Mod-pi distance between direction angles, in [0, pi/2]."""
    d = abs(fold_angle(a) - fold_angle(b))
    return min(d, PI - d)


@dataclass(frozen=True)
class DirectionSample:
    at: Point2
    k: int
    theta: float
    e: tuple[float, float]
    f: tuple[float, float]


def _contracted_theta(p, k: int, at) -> tuple[float, float, float]:
    """(theta_contract, E, F) of the order-k product p; ConformalError if E = F to round-off."""
    e, f = singular_values(p)
    if f == 0.0 or 1.0 - e / f < CONFORMAL_TOL:
        raise ConformalError(f"order-{k} product conformal to round-off at {at}")
    return _contract_angle(*p), e, f


def contracted_theta_fast(m: MapModel, x: float, y: float, k: int) -> tuple[float, float, float]:
    """(theta_contract, E_k, F_k) of Dphi^k at (x, y); hot path for leaf tracing."""
    return _contracted_theta(orbit_sweep(m, x, y, k)[2][k], k, (x, y))


def contracted_direction(c: OrbitCocycle, k: int) -> DirectionSample:
    """Most contracted direction of Dphi^k at the cocycle base point."""
    if not 1 <= k <= c.kmax:
        raise IndexError(f"k={k} out of range 1..{c.kmax}")
    if c.H[k] >= 1.0 - CONFORMAL_TOL:
        raise ConformalError(f"H_{k} = {c.H[k]} too close to 1; direction undefined")
    a, b, cc, d = c.products[k]
    th = _contract_angle(a, b, cc, d)
    return DirectionSample(
        at=c.z0,
        k=k,
        theta=th,
        e=(math.cos(th), math.sin(th)),
        f=(-math.sin(th), math.cos(th)),
    )


@dataclass(frozen=True)
class AngleGapRecord:
    k: int
    phi: float       # |angle(e^(k), e^(k+1))| folded to [0, pi/2]
    bound: float     # P_k Q_k H_{k+1} / (1 - P_k Q_k H_{k+1}), +inf if inapplicable
    xi: float        # budget-level xi_k when a budget is supplied, else the pointwise bound


def angle_gap(c: OrbitCocycle, k: int, budget=None) -> AngleGapRecord:
    """Gap between consecutive contracted directions and its pointwise bound.

    When P_k Q_k H_{k+1} >= 1 the bound is vacuous and the record carries
    bound = +inf rather than raising.
    """
    if not 1 <= k <= c.kmax - 1:
        raise IndexError(f"k={k} needs orders k and k+1 within 1..{c.kmax}")
    th_k = contracted_direction(c, k).theta
    th_k1 = contracted_direction(c, k + 1).theta
    phi = angle_distance(th_k, th_k1)
    pqh = c.P[k] * c.Q[k] * c.H[k + 1]
    bound = pqh / (1.0 - pqh) if pqh < 1.0 else math.inf
    if budget is not None and k < len(budget.xi) and math.isfinite(budget.xi[k]):
        xi = float(budget.xi[k])
    else:
        xi = bound
    return AngleGapRecord(k=k, phi=phi, bound=bound, xi=xi)


def pushforward_contraction(c: OrbitCocycle, k: int, j: int) -> tuple[float, float]:
    """||Dphi^j e^(k)|| against the contraction envelope E_j + F_j * sum of gaps.

    Returns (norm, bound); raises BoundViolationError if the exact-arithmetic
    inequality fails beyond round-off slack.
    """
    if not 1 <= j <= k <= c.kmax:
        raise IndexError(f"need 1 <= j <= k <= kmax, got j={j}, k={k}")
    thetas = [contracted_direction(c, i).theta for i in range(j, k + 1)]
    vx, vy = c.products[j].apply(math.cos(thetas[-1]), math.sin(thetas[-1]))
    norm = math.hypot(vx, vy)
    gaps = 0.0
    for i in range(k - j):
        gaps += angle_distance(thetas[i], thetas[i + 1])
    bound = c.E[j] + c.F[j] * gaps
    if norm > bound * (1.0 + 1e-9) + 1e-300:
        raise BoundViolationError(
            f"pushforward norm {norm} exceeds envelope {bound} at (k={k}, j={j})"
        )
    return norm, bound


def _signed_gap(base: float, other: float) -> float:
    """Signed mod-pi difference other - base, folded into (-pi/2, pi/2]."""
    d = math.fmod(other - base, PI)
    if d > 0.5 * PI:
        d -= PI
    elif d <= -0.5 * PI:
        d += PI
    return d


def direction_field_derivative(
    m: MapModel, c: OrbitCocycle, k: int, h: float, budget=None
) -> tuple[float, Optional[float]]:
    """Finite-difference estimate of the direction-field Lipschitz constant.

    L_measured accumulates the FD gradient norms of theta^(1) and of the
    inter-order gap fields phi^(j), j < k, on a 4-point stencil around the
    cocycle base point (the telescoping decomposition of ||D theta^(k)||).
    L_bound is the per-order series

        sum_{j<=k} 1597 (p_j q_j)^2 d_{j+1} + 40 (p_j q_j)^5 d_j
                   + 40 (p_j q_j)^3 q_j^2 p~_j g*_{j+1}

    evaluated from the supplied budget (None when no budget is given). Both are
    reported; nothing is asserted, since sampled maxima understate suprema.
    """
    if not 1 <= k <= c.kmax:
        raise IndexError(f"k={k} out of range 1..{c.kmax}")

    def thetas(x, y):
        # theta_contract of Dphi^j at (x, y) for j = 1..k, from one sweep
        prods = orbit_sweep(m, x, y, k)[2]
        return [_contracted_theta(prods[j], j, (x, y))[0] for j in range(1, k + 1)]

    x0, y0 = c.z0
    center = thetas(x0, y0)  # a failure at the base point raises as itself
    stencil = [(x0 + h, y0), (x0 - h, y0), (x0, y0 + h), (x0, y0 - h)]
    try:
        series = [thetas(sx, sy) for sx, sy in stencil]
    except (OrbitEscapeError, ConformalError) as exc:
        raise StencilEscapeError(f"stencil point left the valid region: {exc}") from exc

    inv2h = 0.5 / h

    def grad_norm(values):
        # values: scalar field at [x+h, x-h, y+h, y-h]
        gx = (values[0] - values[1]) * inv2h
        gy = (values[2] - values[3]) * inv2h
        return math.hypot(gx, gy)

    # base term ||D theta^(1)||, angles aligned mod pi with the center value
    l_meas = grad_norm([_signed_gap(center[0], s[0]) for s in series])
    for j in range(1, k):
        gaps = [_signed_gap(s[j - 1], s[j]) for s in series]
        l_meas += grad_norm(gaps)

    l_bound: Optional[float] = None
    if budget is not None:
        cf = ANGLE_COEFFS
        top = min(k, budget.kmax - 1)
        l_bound = 0.0
        for j in range(1, top + 1):
            pq = budget.p[j] * budget.q[j]
            l_bound += (
                cf.gap_sq * pq * pq * budget.delta[j + 1]
                + cf.gap_fifth * pq ** 5 * budget.delta[j]
                + cf.gap_cubic * pq ** 3 * budget.q[j] ** 2 * budget.pt[j] * budget.gamma_star[j + 1]
            )
    return l_meas, l_bound


def field_lipschitz(m: MapModel, c: OrbitCocycle, k: int, budget=None) -> float:
    """Measured L of the order-k field at the cocycle base point z, FD step 1e-4*max(1, |z|)."""
    h = 1e-4 * max(1.0, math.hypot(c.z0[0], c.z0[1]))
    return direction_field_derivative(m, c, k, h, budget=budget)[0]
