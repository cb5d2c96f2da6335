"""The 2x2 frame as the package computed it before ``cocycle._frame``, and the
matrix product only tests use.

``singular_values`` and ``_contract_angle`` are kept below, verbatim, with the
thresholds they read. They scaled by rules of their own: singular_values
where s = a^2 + b^2 + c^2 + d^2 <= 2^-1020 and every entry is below 2^-511, or
where F overflows; _contract_angle where an entry exceeds 2^509 or every
entry is below 2^-511. ``cocycle._frame`` scales where s is outside
(2^-1020, 2^1018) and gives the same bits, except where the largest entry is
in [2^-511, 2^-510] and s <= 2^-1020 (``in_declared_region``): there these
square the entries into the subnormal range, and _frame scales them first.
``exact_singular_values`` evaluates E and F there in 80-digit decimal
arithmetic.
"""

import math
from decimal import Decimal, localcontext

from stableleaf.cocycle import norm2
from stableleaf.maps import Mat2

_SQUARES_SAFE = 2.0 ** 509  # entries up to this keep 8 * entry^2 below the float range
_NORMAL_MIN = 2.0 ** -1022  # the smallest normal float
_SQUARES_TINY = 2.0 ** -511  # entries below this square into the subnormal range
_TINY_SUM = 4.0 * _NORMAL_MIN  # bounds the sum of squares when every entry is below _SQUARES_TINY

IDENTITY = Mat2(1.0, 0.0, 0.0, 1.0)


def in_declared_region(m) -> bool:
    """The largest entry of m is in [2^-511, 2^-510] and its float sum of squares is at most 2^-1020."""
    top = max(abs(v) for v in m)
    return 2.0 ** -511 <= top <= 2.0 ** -510 and sum(v * v for v in m) <= 2.0 ** -1020


def exact_singular_values(m) -> tuple[Decimal, Decimal]:
    """(E, F) of m from its exact entries, in 80-digit decimal arithmetic."""
    with localcontext() as ctx:
        ctx.prec = 80
        a, b, c, d = (Decimal(v) for v in m)
        s = a * a + b * b + c * c + d * d
        det = abs(a * d - b * c)
        qa, qb = a * b + c * d, a * a + c * c - b * b - d * d
        f = ((s + (qb * qb + 4 * qa * qa).sqrt()) / 2).sqrt()
        return (det / f if f else Decimal(0)), f


def errors_against_exact(m, e: float, f: float) -> list[tuple[Decimal, Decimal, Decimal]]:
    """(|value - exact|, |singular_values' value - exact|, ulp(exact)) for E = e and for F = f of m."""
    ref = singular_values(m)
    return [(abs(Decimal(v) - x), abs(Decimal(r) - x), Decimal(math.ulp(float(x))))
            for v, r, x in zip((e, f), ref, exact_singular_values(m))]


def mat_mul(m: Mat2, o: Mat2) -> Mat2:
    """The matrix product m o."""
    return Mat2(
        m.a11 * o.a11 + m.a12 * o.a21,
        m.a11 * o.a12 + m.a12 * o.a22,
        m.a21 * o.a11 + m.a22 * o.a21,
        m.a21 * o.a12 + m.a22 * o.a22,
    )


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
    r = norm2(a * a + c * c - b * b - d * d, 2.0 * (a * b + c * d))
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


def _contract_angle(a: float, b: float, c: float, d: float) -> float:
    """Angle in [0, pi) minimizing ||M v(theta)||; assumes E < F strictly."""
    if (abs(a) > _SQUARES_SAFE or abs(b) > _SQUARES_SAFE or abs(c) > _SQUARES_SAFE or abs(d) > _SQUARES_SAFE
            or abs(a) < _SQUARES_TINY and abs(b) < _SQUARES_TINY and abs(c) < _SQUARES_TINY and abs(d) < _SQUARES_TINY):
        # a power-of-two scale keeps the angle, and the squares below finite and normal
        ex = math.frexp(max(abs(a), abs(b), abs(c), abs(d)))[1]
        a, b, c, d = (math.ldexp(v, -ex) for v in (a, b, c, d))
    return _angle_from_sums(a, b, c, d, a * b + c * d, a * a + c * c - b * b - d * d)


def _angle_from_sums(a: float, b: float, c: float, d: float, qa: float, qb: float) -> float:
    """_contract_angle from qa = ab + cd and qb = a^2 + c^2 - b^2 - d^2, for entries it does not scale."""
    th = 0.5 * math.atan2(2.0 * qa, qb)  # the *expanded* stationary branch
    # resolve the branch pair {th, th + pi/2} by evaluating both norms
    ct, st = math.cos(th), math.sin(th)
    n1 = (a * ct + b * st) ** 2 + (c * ct + d * st) ** 2
    n2 = (-a * st + b * ct) ** 2 + (-c * st + d * ct) ** 2
    if n2 < n1:
        th += 0.5 * math.pi
    return th % math.pi
