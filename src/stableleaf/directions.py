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

from .cocycle import CONFORMAL_TOL, OrbitCocycle, _frame, orbit_product, orbit_sweep, series_term
from .errors import BadParamsError, BoundViolationError, ConformalError, OrbitEscapeError, StencilEscapeError
from .errors import SingularStepError
from .maps import MapModel

PI = math.pi


# constants of the direction-derivative bound chain, fixed exactly
GAP_SQ = 1597.0     # coefficient of (p q)^2 delta_{k+1}
GAP_FIFTH = 40.0    # coefficient of (p q)^5 delta_k
GAP_CUBIC = 40.0    # coefficient of (p q)^3 q^2 p~ gamma*_{k+1}


def fold_angle(theta: float) -> float:
    """Reduce an angle to [0, pi)."""
    t = math.fmod(theta, PI)
    return t + PI if t < 0.0 else t


def angle_distance(a: float, b: float) -> float:
    """Mod-pi distance between direction angles, in [0, pi/2]."""
    d = abs(fold_angle(a) - fold_angle(b))
    return min(d, PI - d)


def _contracted_theta(p, k: int, at) -> tuple[float, float, float]:
    """(theta_contract, E, F) of the order-k product p; ConformalError if E = F to round-off.

    SingularStepError where p overflows: F is not finite or E is NaN.
    """
    e, f, th = _frame(*p)
    if not (f < math.inf and e == e):
        raise SingularStepError(f"order-{k} product Dphi^{k} overflows at {at}")
    if f == 0.0 or 1.0 - e / f < CONFORMAL_TOL:
        raise ConformalError(f"order-{k} product conformal to round-off at {at}")
    return th, e, f


def contracted_theta_fast(m: MapModel, x: float, y: float, k: int) -> tuple[float, float, float]:
    """(theta_contract, E_k, F_k) of Dphi^k at (x, y); hot path for leaf tracing.

    Where the walk's product overflows, the SingularStepError names the order
    of the first product that does, which orbit_product returned.
    """
    p = orbit_product(m, x, y, k)
    try:
        return _contracted_theta(p, k, (x, y))
    except SingularStepError:  # raise it again for p's own order, which the sweep's product list ends at
        return _contracted_theta(p, len(orbit_sweep(m, x, y, k)[1]) - 1, (x, y))


def contracted_direction(c: OrbitCocycle, k: int) -> float:
    """The angle theta of e^(k) = (cos theta, sin theta), most contracted by Dphi^k at the cocycle base point.

    theta lies in [0, pi); ConformalError if E_k = F_k to round-off.
    """
    if not 1 <= k <= c.kmax:
        raise BadParamsError(f"k={k} out of range 1..{c.kmax}")
    return _contracted_theta(c.products[k], k, tuple(c.z0))[0]


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
        raise BadParamsError(f"k={k} needs orders k and k+1 within 1..{c.kmax}")
    phi = angle_distance(contracted_direction(c, k), contracted_direction(c, k + 1))
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
        raise BadParamsError(f"need 1 <= j <= k <= kmax, got j={j}, k={k}")
    thetas = [contracted_direction(c, i) for i in range(j, k + 1)]
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
    m: MapModel, c: OrbitCocycle, k: int, h: Optional[float] = None, budget=None
) -> tuple[float, Optional[float]]:
    """Finite-difference estimate of the direction-field Lipschitz constant.

    L_measured accumulates the FD gradient norms of theta^(1) and of the
    inter-order gap fields phi^(j), j < k, on a 4-point stencil of step h
    (default 1e-4 * max(1, |z|); a non-positive or NaN h raises
    BadParamsError) around the cocycle base point z (the
    telescoping decomposition of ||D theta^(k)||). The angles at z come from
    the cocycle's own products, so only the four stencil points are swept; a
    conformal product at z raises as itself. L_bound is the per-order series

        sum_{j<=k} 1597 (p_j q_j)^2 d_{j+1} + 40 (p_j q_j)^5 d_j
                   + 40 (p_j q_j)^3 q_j^2 p~_j g*_{j+1}

    evaluated from the supplied budget (None when no budget is given). Both are
    reported; nothing is asserted, since sampled maxima understate suprema.
    """
    if not 1 <= k <= c.kmax:
        raise BadParamsError(f"k={k} out of range 1..{c.kmax}")
    x0, y0 = c.z0
    if h is None:
        h = 1e-4 * max(1.0, math.hypot(x0, y0))
    if not h > 0.0:  # also NaN
        raise BadParamsError(f"h must be positive, got {h}")

    def thetas(x, y):
        # theta_contract of Dphi^j at (x, y) for j = 1..k, from one sweep
        prods = orbit_sweep(m, x, y, k)[1]
        if len(prods) <= k:  # the sweep stopped at a product that overflows or is 0
            raise SingularStepError(f"order-{len(prods) - 1} product Dphi^{len(prods) - 1} fails at {(x, y)}")
        return [_contracted_theta(prods[j], j, (x, y))[0] for j in range(1, k + 1)]

    center = [contracted_direction(c, j) for j in range(1, k + 1)]
    stencil = [(x0 + h, y0), (x0 - h, y0), (x0, y0 + h), (x0, y0 - h)]
    try:
        series = [thetas(sx, sy) for sx, sy in stencil]
    except (OrbitEscapeError, ConformalError, SingularStepError) as exc:
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
        top = min(k, budget.kmax - 1)
        l_bound = 0.0
        for j in range(1, top + 1):
            pq = series_term(budget.p[j], budget.q[j])
            l_bound += (
                series_term(GAP_SQ, pq, pq, budget.delta[j + 1])
                + series_term(GAP_FIFTH, (pq, 5), budget.delta[j])
                + series_term(GAP_CUBIC, (pq, 3), (budget.q[j], 2), budget.pt[j], budget.gamma_star[j + 1])
            )
    return l_meas, l_bound

