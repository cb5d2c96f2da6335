"""Derivative cocycles along orbits and their growth/distortion quantities.

For a 2x2 matrix M = [[A, B], [C, D]] the squared singular values are the
roots of lambda^2 - S*lambda + det^2 with S = A^2+B^2+C^2+D^2. We use the
stable discriminant form R = norm2(B', 2A') where A' = AB + CD and
B' = A^2+C^2-B^2-D^2, which satisfies R = F^2 - E^2 exactly (so no negative
round-off under the square root), and recover E = |det|/F.

Every Euclidean norm whose value the array code of the budget computes too
goes through norm2 here and norm2_lanes there. Both use only IEEE-exact
operations (products, sums, sqrt, power-of-two scaling), so a scalar value
and its array twin have the same bits on every platform, where the hypot
functions of math and numpy round apart.

Per-step quantities along an orbit z_j = phi^j(z0):

    P_j  = ||Dphi|| at z_j            Q_j  = ||(Dphi)^-1|| at z_j
    Pt_j = ||D^2 phi|| at z_j          Dd_j = |det Dphi| at z_j
    Ddt_j = ||D(det Dphi)|| at z_j

and the k-step growth E_k <= F_k (singular values of Dphi^k), H_k = E_k/F_k.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BadParamsError, ConformalError, OrbitEscapeError, SingularMatrixError, SingularStepError
from .errors import DomainError, NonFiniteError
from .maps import MapModel, Mat2, Point2, apply_lanes

CONFORMAL_TOL = 1e-12  # below this 1 - E/F, the direction equation is round-off
_FRAME_MIN = 2.0 ** -1020  # _frame scales m where its sum of squares s is outside (_FRAME_MIN, _FRAME_MAX):
_FRAME_MAX = 2.0 ** 1018   # inside, no entry exceeds 2^509, s + r and det are finite and s is normal
_NORM2_MIN = 2.0 ** -500  # norm2 squares its arguments unscaled where max(|x|, |y|) is in
_NORM2_MAX = 2.0 ** 500   # (_NORM2_MIN, _NORM2_MAX): the larger square is then finite and normal
_ROW_1, _COL_1, _ROW_2, _COL_2 = np.array([[0, 0, 2, 2], [0, 1, 0, 1], [1, 1, 3, 3], [2, 3, 2, 3]])  # mul_lanes


def norm2(x: float, y: float) -> float:
    """sqrt(x^2 + y^2), bit for bit as norm2_lanes computes it.

    Where max(|x|, |y|) is outside (2^-500, 2^500), x and y are scaled by a
    power of two first, so no square overflows or loses bits as a subnormal;
    a result past the float range is +inf. 0, +-inf and NaN come out as
    math.hypot gives them. A normal result is within 1 ulp of math.hypot.
    """
    ax, ay = abs(x), abs(y)
    top = ax if ax > ay else ay
    if _NORM2_MIN < top < _NORM2_MAX or top == 0.0:
        return math.sqrt(x * x + y * y)
    if not (math.isfinite(x) and math.isfinite(y)):
        return math.hypot(x, y)
    ex = math.frexp(top)[1]
    x, y = math.ldexp(x, -ex), math.ldexp(y, -ex)
    return _scale_back(math.sqrt(x * x + y * y), ex)


def _scale_back(v: float, ex: int) -> float:
    """v * 2^ex, where a result past the float range is +-inf (ldexp would raise OverflowError)."""
    return math.ldexp(v, ex - 1) * 2.0 if ex > 0 else math.ldexp(v, ex)


def norm2_lanes(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """norm2 of every lane of x and y, as an array with the same bits.

    Every lane is squared unscaled, which is norm2 where max(|x|, |y|) is in
    (2^-500, 2^500) or is 0. Two reductions check all lanes at once: where
    the smallest and largest norm are in (2^-499, 2^499), that holds on
    every lane. Else a lane whose norm is outside that range, or NaN, and
    whose x or y is nonzero, is computed by norm2. Call it inside
    np.errstate, as every lane helper.
    """
    out = x * x
    out += y * y
    np.sqrt(out, out=out)
    lo, hi = 2.0 * _NORM2_MIN, 0.5 * _NORM2_MAX
    if out.min(initial=math.inf) > lo and out.max(initial=0.0) < hi:
        return out
    odd = ~((out > lo) & (out < hi))
    odd &= (x != 0.0) | (y != 0.0)
    for i in odd.nonzero()[0].tolist():
        out[i] = norm2(float(x[i]), float(y[i]))
    return out


def _frame(a: float, b: float, c: float, d: float) -> tuple[float, float, float]:
    """(E, F, theta) of m = [[a, b], [c, d]]: its singular values E <= F and the
    angle in [0, pi) minimizing ||m v(theta)||, which is meaningful where E < F.

    Where the sum of squares s is outside (2^-1020, 2^1018) and the entries
    are finite and not all zero, the expressions run on m scaled by 2^-ex into
    [-1, 1] (ex the exponent of its largest entry), which keeps theta; E and F
    are scaled back, a value past the float range being +inf. Where m was
    scaled down and its own det is finite, E is |det|/F with that det, as the
    unscaled expressions give it.
    """
    s = a * a + b * b + c * c + d * d
    ex = 0
    if not _FRAME_MIN < s < _FRAME_MAX and s == s:
        top = max(abs(a), abs(b), abs(c), abs(d))
        if 0.0 < top < math.inf:
            det = a * d - b * c
            ex = math.frexp(top)[1]
            a, b, c, d = math.ldexp(a, -ex), math.ldexp(b, -ex), math.ldexp(c, -ex), math.ldexp(d, -ex)
            s = a * a + b * b + c * c + d * d
    qa, qb = a * b + c * d, a * a + c * c - b * b - d * d
    f = math.sqrt(0.5 * (s + norm2(qb, 2.0 * qa)))
    e = abs(a * d - b * c) / f if f else 0.0
    th = 0.5 * math.atan2(2.0 * qa, qb)  # the *expanded* stationary branch
    # resolve the branch pair {th, th + pi/2} by evaluating both norms; t * t
    # gives +inf where t ** 2 raises OverflowError
    ct, st = math.cos(th), math.sin(th)
    u, v, w, z = a * ct + b * st, c * ct + d * st, b * ct - a * st, d * ct - c * st
    if w * w + z * z < u * u + v * v:
        th += 0.5 * math.pi
    if ex:
        f = _scale_back(f, ex)
        e = abs(det) / f if ex > 0 and math.isfinite(det) else _scale_back(e, ex)
    return e, f, th % math.pi


def singular_values(m: Mat2) -> tuple[float, float]:
    """(E, F) = (min, max) singular value of m, as _frame gives them; no conformality check."""
    return _frame(*m)[:2]


def singular_values_lanes(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """singular_values of every lane of the entry array m (4, lanes), as arrays (E, F).

    The same operations as _frame, on the stacked entries, so E and F have
    its bits. A lane whose sum of squares s is outside (2^-1020, 2^1018),
    where _frame scales, is computed by singular_values; two reductions over
    s find whether there is one. Call it inside np.errstate.
    """
    sq = m * m
    s = sq[0] + sq[1] + sq[2] + sq[3]
    r = sq[0] + sq[2] - sq[1] - sq[3]
    ab, cd = np.multiply(m[0::2], m[1::2], out=sq[:2])  # into the spent squares, as (ad, bc) below
    f = norm2_lanes(r, 2.0 * (ab + cd))
    f += s
    f *= 0.5
    ad, bc = np.multiply(m[:2], m[3:1:-1], out=sq[2:])
    e = np.abs(ad - bc)
    e /= np.sqrt(f, out=f)
    if not (s.min(initial=math.inf) > _FRAME_MIN and s.max(initial=0.0) < _FRAME_MAX):
        for i in (~((s > _FRAME_MIN) & (s < _FRAME_MAX))).nonzero()[0].tolist():
            e[i], f[i] = singular_values(tuple(m[:, i].tolist()))
    return e, f


def _point_data(m: MapModel, x: np.ndarray, y: np.ndarray, out: np.ndarray = None) -> tuple[np.ndarray, dict]:
    """The lanes whose orbit points (x, y) are valid, with their steps S (4, lanes), E, P, Q, Pt, Dd and Ddt.

    The one validity rule for an orbit point, which the budget sweep and
    build_orbit_cocycle share: the point in the domain, Dphi finite and
    nonsingular (det finite and nonzero, E != 0), the second-derivative data
    finite (a finite det has finite entries). Each callable sees only the
    lanes that passed the checks before it. Pt and Ddt are taken on every
    lane that reaches the second partials, and each value is then indexed
    once, at the lanes that pass every check. E <= P are the singular values
    of S; S, E, P fill the front of out if given. Call it inside np.errstate.
    """
    at = m.in_domain_lanes(x, y).nonzero()[0]
    x, y = x[at], y[at]
    s = apply_lanes(m.jac, x, y, 4)
    e, f = singular_values_lanes(s)
    det = s[0] * s[3] - s[1] * s[2]
    ok = (np.isfinite(det) & (det != 0.0) & (e != 0.0)).nonzero()[0]
    d2 = apply_lanes(m.second_partials, x[ok], y[ok], 8)
    pt = np.abs(d2[:6], out=d2[:6]).max(axis=0)  # the largest |entry|: NaN or inf where an entry is
    fine = (np.isfinite(pt) & np.isfinite(d2[6]) & np.isfinite(d2[7])).nonzero()[0]
    ok = ok[fine]
    sep = np.empty((6, len(ok))) if out is None else out[:6 * len(ok)].reshape(6, len(ok))
    for v, row in ((s, sep[:4]), (e, sep[4]), (f, sep[5])):
        v.take(ok, axis=-1, out=row, mode="clip")  # clip: every index is valid, and raise would buffer row
    return at[ok], {
        "S": sep[:4], "E": sep[4], "P": sep[5], "Q": 1.0 / sep[4], "Pt": 2.0 * pt[fine],
        "Dd": np.abs(det[ok]), "Ddt": norm2_lanes(d2[6], d2[7])[fine],
    }


def mul_lanes(m: np.ndarray, o: np.ndarray) -> np.ndarray:
    """The products m o of every lane of two (4, ...) entry arrays, (m11 o11 + m12 o21, ...) in row-major order.

    Each is m[_ROW_1] o[_COL_1] + m[_ROW_2] o[_COL_2] on all four entries at
    once; the lane axes broadcast into o's, as (4, 1, lanes) steps times (4, k, lanes).
    """
    out, t = m.take(_ROW_1, axis=0) * o.take(_COL_1, axis=0), o.take(_COL_2, axis=0)  # two temporaries of o's size
    return np.add(out, np.multiply(t, m.take(_ROW_2, axis=0), out=t), out=out)


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


def singular_frame(m: Mat2) -> SingularFrame:
    a, b, c, d = m
    det = a * d - b * c
    if det == 0.0:
        raise SingularMatrixError("matrix is singular; frame undefined")
    e, f, th = _frame(a, b, c, d)
    if 1.0 - e / f < CONFORMAL_TOL:
        raise ConformalError(f"matrix is conformal to round-off (1 - E/F = {1.0 - e / f:.2e})")
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
    """Orbit points, partial products, growth scalars and the one-step norms P and Q.

    Index conventions: orbit, P and Q run j = 0..kmax (P_j = ||Dphi(z_j)||,
    Q_j = ||Dphi(z_j)^-1||); products/growth run k = 0..kmax with
    products[0] = I and E_0 = F_0 = H_0 = 1. Immutable after build.
    """

    z0: Point2
    kmax: int
    orbit: list[Point2]
    products: list[Mat2]
    E: np.ndarray
    F: np.ndarray
    H: np.ndarray
    P: np.ndarray
    Q: np.ndarray


def orbit_sweep(m: MapModel, x: float, y: float, k: int) -> tuple[list, list]:
    """(orbit, prods) of the k-step sweep from z_0 = (x, y), as plain tuples.

    orbit[j] = z_j and prods[j] = Dphi^j(z_0) for j = 0..k (prods[0] = I).
    Step j checks z_j with ``m.in_domain`` and Dphi(z_j), z_{j+1} for
    finiteness, raising OrbitEscapeError(j, z_j) on a failure; z_k gets no
    domain check. The sweep stops after the first product that has a
    non-finite entry or is the zero matrix: both lists then end at its
    order. m.raw_eval and m.jac are read on every call.
    """
    ev = m.raw_eval
    jac = m.jac
    in_domain = m.in_domain
    isfinite = math.isfinite
    a, b, c, d = 1.0, 0.0, 0.0, 1.0
    orbit = [(x, y)]
    prods = [(a, b, c, d)]
    for j in range(k):
        if not in_domain(x, y):
            raise OrbitEscapeError(j, Point2(x, y))
        j11, j12, j21, j22 = jac(x, y)
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
        prods.append((a, b, c, d))
        if not (isfinite(a) and isfinite(b) and isfinite(c) and isfinite(d) and (a or b or c or d)):
            break
    return orbit, prods


def orbit_product(m: MapModel, x: float, y: float, k: int) -> tuple[float, float, float, float]:
    """orbit_sweep(m, x, y, k)[1][-1], built without the lists: Dphi^k at (x, y), or the failing product before it.

    Finiteness is tested once, at the end: a non-finite step keeps the product
    non-finite (inf*0 and inf - inf are NaN), and a non-finite point fails the
    next box test. On any failure, and for an unbounded box, the checked sweep
    runs instead, so it raises the same OrbitEscapeError(j, z_j), or returns the
    same product where only the product overflowed from finite steps.
    """
    x0, y0 = x, y
    ev = m.raw_eval
    jac = m.jac
    in_domain = m.in_domain if m.singular_guard is not None else None
    xlo, xhi, ylo, yhi = m.box
    if not math.isfinite(xlo + xhi + ylo + yhi):
        return orbit_sweep(m, x, y, k)[1][-1]
    a, b, c, d = 1.0, 0.0, 0.0, 1.0
    for _ in range(k):
        if not (in_domain(x, y) if in_domain else xlo <= x <= xhi and ylo <= y <= yhi):
            return orbit_sweep(m, x0, y0, k)[1][-1]
        j11, j12, j21, j22 = jac(x, y)
        x, y = ev(x, y)
        a, b, c, d = j11 * a + j12 * c, j11 * b + j12 * d, j21 * a + j22 * c, j21 * b + j22 * d
    if not math.isfinite(a + b + c + d + x + y):
        return orbit_sweep(m, x0, y0, k)[1][-1]
    return a, b, c, d


def build_orbit_cocycle(m: MapModel, z0: Point2, kmax: int) -> OrbitCocycle:
    """Sweep the orbit kmax steps, collecting the products, their growth and P, Q.

    E, F and H come from one singular_values_lanes call on the products, the
    per-step values from one _point_data call on the kmax + 1 orbit points.
    Raises, in this order: OrbitEscapeError(j) if the sweep fails at z_j or
    its last point z_j leaves the domain; SingularStepError if a product
    Dphi^k overflows or underflows to zero, where the sweep stops (j = k);
    at the first orbit index j that _point_data drops,
    SingularStepError if Dphi(z_j) is singular, else NonFiniteError, naming
    det Dphi(z_j) where it overflows and the second derivative data else.
    """
    if kmax < 1:
        raise BadParamsError(f"kmax must be >= 1, got {kmax}")
    orbit_xy, prods_xy = orbit_sweep(m, float(z0[0]), float(z0[1]), kmax)
    orbit = [Point2(*p) for p in orbit_xy]
    try:
        m.jac_xy(*orbit[-1])  # z_kmax, or the point of the failing product the sweep stopped at
    except (DomainError, NonFiniteError):
        raise OrbitEscapeError(len(orbit) - 1, orbit[-1])

    with np.errstate(all="ignore"):
        E, F = singular_values_lanes(np.array(prods_xy).T)  # row 0, the identity, gives 1, 1
        at, pd = _point_data(m, *np.array(orbit_xy).T)
    ok = np.isfinite(F) & (F != 0.0)
    if not ok.all():
        k = int(ok.argmin())  # the first failing order
        how = "overflows" if F[k] else "underflows to zero"
        raise SingularStepError(f"order-{k} product Dphi^{k} {how} at {tuple(orbit[0])}")
    if len(at) <= kmax:
        j = int(np.setdiff1d(np.arange(kmax + 1), at)[0])
        step = a, b, c, d = m.jac(*orbit[j])
        det = a * d - b * c
        if det == 0.0 or singular_values(step)[0] == 0.0:
            raise SingularStepError(f"singular one-step derivative at orbit index {j}")
        if not math.isfinite(det):
            raise NonFiniteError(f"det Dphi of '{m.name}' overflows at orbit index {j}, {tuple(orbit[j])}")
        raise NonFiniteError(f"second derivative data of '{m.name}' non-finite at {tuple(orbit[j])}")

    return OrbitCocycle(
        z0=Point2(*z0), kmax=kmax, orbit=orbit, products=[Mat2(*p) for p in prods_xy],
        E=E, F=F, H=E / F, P=pd["P"], Q=pd["Q"],
    )
