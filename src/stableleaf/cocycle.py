"""Derivative cocycles along orbits and their growth/distortion quantities.

For a 2x2 matrix M = [[A, B], [C, D]] the squared singular values are the
roots of lambda^2 - S*lambda + det^2 with S = A^2+B^2+C^2+D^2. We use the
stable discriminant form R = hypot(B', 2A') where A' = AB + CD and
B' = A^2+C^2-B^2-D^2, which satisfies R = F^2 - E^2 exactly (so no negative
round-off under the square root), and recover E = |det|/F.

Per-step quantities along an orbit z_j = phi^j(z0):

    P_j  = ||Dphi|| at z_j            Q_j  = ||(Dphi)^-1|| at z_j
    Pt_j = ||D^2 phi|| at z_j          Dd_j = |det Dphi| at z_j
    Ddt_j = ||D(det Dphi)|| at z_j

and the k-step growth E_k <= F_k (singular values of Dphi^k), H_k = E_k/F_k.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import BadParamsError, ConformalError, OrbitEscapeError, SingularMatrixError, SingularStepError
from .errors import DomainError, NonFiniteError
from .maps import IDENTITY, MapModel, Mat2, Point2

CONFORMAL_TOL = 1e-12  # below this 1 - E/F, the direction equation is round-off
_SQUARES_SAFE = 2.0 ** 509  # entries up to this keep 8 * entry^2 below the float range
_NORMAL_MIN = 2.0 ** -1022  # the smallest normal float
_SQUARES_TINY = 2.0 ** -511  # entries below this square into the subnormal range
_TINY_SUM = 4.0 * _NORMAL_MIN  # bounds the sum of squares when every entry is below _SQUARES_TINY


def singular_values(m: Mat2) -> tuple[float, float]:
    """(E, F) = (min, max) singular value; no conformality check.

    Where the squared entries of a finite m overflow, F (and E, where det
    overflows too) comes from m scaled by 2^-ex into [-1, 1], so every result
    the unscaled formula gives finite keeps its bits. A value past the float
    range is +inf. A nonzero m whose entries are all below 2^-511, whose
    squares would lose bits as subnormals, is scaled up the same way; every
    other m keeps its bits.
    """
    a, b, c, d = m
    s = a * a + b * b + c * c + d * d
    if s <= _TINY_SUM:
        top = max(abs(a), abs(b), abs(c), abs(d))
        if 0.0 < top < _SQUARES_TINY:
            ex = math.frexp(top)[1]
            e_s, f_s = singular_values([math.ldexp(v, -ex) for v in m])
            return math.ldexp(e_s, ex), math.ldexp(f_s, ex)
    det = a * d - b * c
    r = math.hypot(a * a + c * c - b * b - d * d, 2.0 * (a * b + c * d))
    f = math.sqrt(0.5 * (s + r))
    if not math.isfinite(f) and all(map(math.isfinite, m)):
        ex = math.frexp(max(map(abs, m)))[1]
        e_s, f_s = singular_values([math.ldexp(v, -ex) for v in m])
        # ldexp raises OverflowError where a float product gives +inf
        f = math.ldexp(f_s, ex - 1) * 2.0
        if not math.isfinite(det):
            return math.ldexp(e_s, ex - 1) * 2.0, f
    if f == 0.0:
        return 0.0, 0.0
    return abs(det) / f, f


def series_term(*factors) -> float:
    """Product of nonnegative series factors, a power x**n written as (x, n).

    A term with an exactly zero factor is 0, also where another factor
    overflows to +inf; a term whose nonzero factors overflow is +inf, so inf*0
    never turns a term into NaN. Python floats keep overflow silent.
    """
    powers = [f if isinstance(f, tuple) else (f, 1) for f in factors]
    if any(x == 0.0 for x, _ in powers):
        return 0.0
    out = 1.0
    for x, n in powers:
        try:
            out *= float(x) ** n if n != 1 else float(x)
        except OverflowError:  # float ** raises where float * gives inf
            out = math.inf
    return out


@dataclass(frozen=True)
class SingularFrame:
    """Singular values and most contracted/expanded directions of a 2x2 matrix.

    quad holds (A', B', C', D') = (AB+CD, A^2+C^2-B^2-D^2, AC+BD, A^2+B^2-C^2-D^2);
    4A'^2 + B'^2 = 4C'^2 + D'^2 = (E^2 - F^2)^2.
    """

    E: float
    F: float
    theta_contract: float
    theta_expand: float
    quad: tuple[float, float, float, float]


def _contract_angle(a: float, b: float, c: float, d: float) -> float:
    """Angle in [0, pi) minimizing ||M v(theta)||; assumes E < F strictly."""
    if (abs(a) > _SQUARES_SAFE or abs(b) > _SQUARES_SAFE or abs(c) > _SQUARES_SAFE or abs(d) > _SQUARES_SAFE
            or abs(a) < _SQUARES_TINY and abs(b) < _SQUARES_TINY and abs(c) < _SQUARES_TINY and abs(d) < _SQUARES_TINY):
        # a power-of-two scale keeps the angle, and the squares below finite and normal
        ex = math.frexp(max(abs(a), abs(b), abs(c), abs(d)))[1]
        a, b, c, d = (math.ldexp(v, -ex) for v in (a, b, c, d))
    qa = a * b + c * d
    qb = a * a + c * c - b * b - d * d
    th = 0.5 * math.atan2(2.0 * qa, qb)  # the *expanded* stationary branch
    # resolve the branch pair {th, th + pi/2} by evaluating both norms
    ct, st = math.cos(th), math.sin(th)
    n1 = (a * ct + b * st) ** 2 + (c * ct + d * st) ** 2
    n2 = (-a * st + b * ct) ** 2 + (-c * st + d * ct) ** 2
    if n2 < n1:
        th += 0.5 * math.pi
    return th % math.pi


def singular_frame(m: Mat2) -> SingularFrame:
    a, b, c, d = m
    det = a * d - b * c
    if det == 0.0:
        raise SingularMatrixError("matrix is singular; frame undefined")
    e, f = singular_values(m)
    if 1.0 - e / f < CONFORMAL_TOL:
        raise ConformalError(f"matrix is conformal to round-off (1 - E/F = {1.0 - e / f:.2e})")
    th = _contract_angle(a, b, c, d)
    return SingularFrame(
        E=e,
        F=f,
        theta_contract=th,
        theta_expand=(th + 0.5 * math.pi) % math.pi,
        quad=(a * b + c * d, a * a + c * c - b * b - d * d,
              a * c + b * d, a * a + b * b - c * c - d * d),
    )


@dataclass
class OrbitCocycle:
    """Orbit points, step derivatives, partial products, and growth scalars.

    Index conventions: orbit/steps and the per-step arrays run j = 0..kmax
    (steps[j] is Dphi at z_j); products/growth run k = 0..kmax with
    products[0] = I and E_0 = F_0 = H_0 = 1. Immutable after build except the
    idempotent tail-norm memo cache.
    """

    map: MapModel
    z0: Point2
    kmax: int
    orbit: list[Point2]
    steps: list[Mat2]
    products: list[Mat2]
    E: np.ndarray
    F: np.ndarray
    H: np.ndarray
    P: np.ndarray
    Q: np.ndarray
    Pt: np.ndarray
    Dd: np.ndarray
    Ddt: np.ndarray
    _tails: dict = field(default_factory=dict, repr=False)

    def tail_norms(self, k: int) -> list[float]:
        """F_{j,k} = ||Dphi^(k-j-1) at z_{j+1}|| for j = 0..k-1 (F_{k-1,k} = 1)."""
        if k in self._tails:
            return self._tails[k]
        if not 1 <= k <= self.kmax:
            raise BadParamsError(f"k={k} out of range 1..{self.kmax}")
        out = [0.0] * k
        t = IDENTITY
        out[k - 1] = 1.0
        for j in range(k - 2, -1, -1):
            t = t.mul(self.steps[j + 1])
            out[j] = singular_values(t)[1]
        self._tails[k] = out
        return out


def orbit_sweep(m: MapModel, x: float, y: float, k: int) -> tuple[list, list, list]:
    """(orbit, steps, prods) of the k-step sweep from z_0 = (x, y), as plain tuples.

    orbit[j] = z_j and prods[j] = Dphi^j(z_0) for j = 0..k (prods[0] = I),
    steps[j] = Dphi(z_j) for j < k. Step j checks z_j with ``m.in_domain`` and
    Dphi(z_j), z_{j+1} for finiteness, raising OrbitEscapeError(j, z_j) on a
    failure; z_k gets no domain check. m.raw_eval and m.raw_jac (else the
    central-difference m.fd_jac) are read on every call.
    """
    ev = m.raw_eval
    jac = m.raw_jac if m.raw_jac is not None else m.fd_jac
    in_domain = m.in_domain
    isfinite = math.isfinite
    a, b, c, d = 1.0, 0.0, 0.0, 1.0
    orbit = [(x, y)]
    steps = []
    prods = [(a, b, c, d)]
    for j in range(k):
        if not in_domain(x, y):
            raise OrbitEscapeError(j, Point2(x, y))
        s = j11, j12, j21, j22 = jac(x, y)
        nx, ny = ev(x, y)
        if not (isfinite(j11) and isfinite(j12) and isfinite(j21) and isfinite(j22)
                and isfinite(nx) and isfinite(ny)):
            raise OrbitEscapeError(j, Point2(x, y))
        a, b, c, d = (
            j11 * a + j12 * c,
            j11 * b + j12 * d,
            j21 * a + j22 * c,
            j21 * b + j22 * d,
        )
        x, y = nx, ny
        orbit.append((x, y))
        steps.append(s)
        prods.append((a, b, c, d))
    return orbit, steps, prods


def build_orbit_cocycle(m: MapModel, z0: Point2, kmax: int) -> OrbitCocycle:
    """Sweep the orbit kmax steps, collecting derivatives and growth quantities.

    Raises OrbitEscapeError(j) if the sweep fails at z_j or z_kmax leaves the
    domain, and SingularStepError if a product Dphi^k underflows to zero or
    overflows, or any one-step derivative is singular.
    """
    if kmax < 1:
        raise BadParamsError(f"kmax must be >= 1, got {kmax}")
    orbit_xy, steps_xy, prods_xy = orbit_sweep(m, float(z0[0]), float(z0[1]), kmax)
    orbit = [Point2(*p) for p in orbit_xy]
    try:
        steps_xy.append(m.jac_xy(*orbit[kmax]))
    except (DomainError, NonFiniteError):
        raise OrbitEscapeError(kmax, orbit[kmax])
    steps = [Mat2(*s) for s in steps_xy]
    prods = [Mat2(*p) for p in prods_xy]

    n = kmax + 1
    E = np.empty(n)
    F = np.empty(n)
    H = np.empty(n)
    P = np.empty(n)
    Q = np.empty(n)
    Pt = np.empty(n)
    Dd = np.empty(n)
    Ddt = np.empty(n)
    E[0] = F[0] = H[0] = 1.0
    for k in range(1, n):
        e, f = singular_values(prods[k])
        if not math.isfinite(f):
            raise SingularStepError(f"order-{k} product Dphi^{k} overflows at {tuple(orbit[0])}")
        if f == 0.0:
            raise SingularStepError(f"order-{k} product Dphi^{k} underflows to zero at {tuple(orbit[0])}")
        E[k], F[k] = e, f
        H[k] = e / f

    for j in range(n):
        sj = steps[j]
        e, f = singular_values(sj)
        det = sj.det()
        if det == 0.0 or e == 0.0:
            raise SingularStepError(f"singular one-step derivative at orbit index {j}")
        P[j] = f
        Q[j] = 1.0 / e
        Dd[j] = abs(det)
        t, g = m.second_derivative_data(orbit[j])
        Pt[j] = t.norm()
        Ddt[j] = math.hypot(g[0], g[1])

    return OrbitCocycle(
        map=m, z0=Point2(*z0), kmax=kmax, orbit=orbit, steps=steps, products=prods,
        E=E, F=F, H=H, P=P, Q=Q, Pt=Pt, Dd=Dd, Ddt=Ddt,
    )


def distortion_bounds(c: OrbitCocycle, k: int) -> tuple[float, float]:
    """Right-hand sides of the two distortion inequalities at order k.

        d1_rhs = (E_k / F_k^2) * sum_{j<k} Pt_j * F_{j,k} * F_j^2
        d2_rhs = (E_k / F_k)   * sum_{j<k} Dd_j^-1 * Ddt_j * F_j

    with F_0 = 1 and F_{j,k} the tail-product norms. d1_rhs bounds
    H_k ||D^2 phi^k|| / ||Dphi^k||; d2_rhs bounds ||D(det Dphi^k)|| / ||Dphi^k||^2.
    """
    if not 1 <= k <= c.kmax:
        raise BadParamsError(f"k={k} out of range 1..{c.kmax}")
    tails = c.tail_norms(k)
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
