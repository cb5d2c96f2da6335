"""Differential tests of the checked k-step sweep ``cocycle.orbit_sweep``.

Its product-only mode ``cocycle.orbit_product`` is tied to ``orbit_sweep``
itself, and ``directions._contracted_theta`` to the reference
``singular_values`` plus ``_contract_angle`` (``frame_reference.py``) on the
edges of the scaling window of ``cocycle._frame``.

The three loops the sweep replaced are kept below, verbatim, as the
reference: ``contracted_theta_fast`` (leaf tracing), ``_theta_series`` (the
direction-field stencil, with the ``direction_field_derivative`` that used
it) and ``build_orbit_cocycle``. The old Jacobian fallback of ``jac_xy`` and
the old ``pushforward_contraction`` are kept the same way, except that Ddt,
which the package now takes with ``norm2``, calls it in place of
``math.hypot``; that ``ref_contracted_theta_fast`` takes E and F from the
reference ``singular_values``, which scales a product whose squares
overflow, as ``ref_theta_series`` does; and that ``ref_build_orbit_cocycle``
reads ``m.second_partials`` and an inline determinant where the deleted
``second_derivative_data`` and ``Mat2.det`` stood, raises NonFiniteError
where that determinant overflows and SingularStepError where a product
overflows or underflows to zero, and returns a ``RefOrbitCocycle``: the
package's fields, and the steps, Pt, Dd and Ddt the old cocycle kept, which
``cocycle._point_data`` now computes for the budget sweep alone. Every float is
compared bit for bit (``float.hex``), and so are the exception class and the
escape index. The old loops raised DomainError or NonFiniteError where the
sweep raises OrbitEscapeError(j); the reference index j is the one the old
``build_orbit_cocycle`` reports, which checks each z_j, Dphi(z_j) and
z_{j+1} in the same order as the sweep.
"""

import dataclasses
import math
from typing import Optional

import numpy as np
import pytest

from stableleaf import MapModel, Point2, make_map
from stableleaf.cocycle import (
    CONFORMAL_TOL,
    OrbitCocycle,
    _frame,
    _point_data,
    build_orbit_cocycle,
    norm2,
    orbit_product,
    orbit_sweep,
)
from stableleaf.directions import (
    GAP_CUBIC,
    GAP_FIFTH,
    GAP_SQ,
    _contracted_theta,
    _signed_gap,
    angle_gap,
    contracted_direction,
    contracted_theta_fast,
    direction_field_derivative,
    pushforward_contraction,
)
from stableleaf.errors import (
    BoundViolationError,
    ConformalError,
    DomainError,
    NonFiniteError,
    NumericalError,
    OrbitEscapeError,
    SingularStepError,
    StencilEscapeError,
)
from stableleaf.maps import HESS_STEP, JAC_STEP, Mat2

from frame_reference import IDENTITY, _contract_angle, errors_against_exact, in_declared_region, mat_mul
from frame_reference import singular_values


# -- reference copies of the replaced loops ------------------------------------


def ref_contracted_theta_fast(m: MapModel, x: float, y: float, k: int) -> tuple[float, float, float]:
    """(theta_contract, E_k, F_k) of Dphi^k at (x, y); hot path for leaf tracing."""
    a, b, c, d = 1.0, 0.0, 0.0, 1.0
    jac = m.jac_xy
    ev = m.eval_xy
    for _ in range(k):
        j11, j12, j21, j22 = jac(x, y)
        a, b, c, d = (
            j11 * a + j12 * c,
            j11 * b + j12 * d,
            j21 * a + j22 * c,
            j21 * b + j22 * d,
        )
        x, y = ev(x, y)
    e, f = singular_values(Mat2(a, b, c, d))
    if f == 0.0 or 1.0 - e / f < CONFORMAL_TOL:
        raise ConformalError(f"order-{k} product conformal to round-off at ({x}, {y})")
    return _contract_angle(a, b, c, d), e, f


def ref_theta_series(m: MapModel, x: float, y: float, kmax: int) -> list[float]:
    """theta_contract of Dphi^k at (x, y) for k = 1..kmax, from one product sweep."""
    out = []
    a, b, c, d = 1.0, 0.0, 0.0, 1.0
    jac = m.jac_xy
    ev = m.eval_xy
    for k in range(kmax):
        j11, j12, j21, j22 = jac(x, y)
        a, b, c, d = (
            j11 * a + j12 * c,
            j11 * b + j12 * d,
            j21 * a + j22 * c,
            j21 * b + j22 * d,
        )
        x, y = ev(x, y)
        e, f = singular_values(Mat2(a, b, c, d))
        if f == 0.0 or 1.0 - e / f < CONFORMAL_TOL:
            raise ConformalError(f"order-{k + 1} product conformal along the stencil sweep")
        out.append(_contract_angle(a, b, c, d))
    return out


def ref_direction_field_derivative(
    m: MapModel, c: OrbitCocycle, k: int, h: float, budget=None
) -> tuple[float, Optional[float]]:
    if not 1 <= k <= c.kmax:
        raise IndexError(f"k={k} out of range 1..{c.kmax}")
    x0, y0 = c.z0
    stencil = [(x0 + h, y0), (x0 - h, y0), (x0, y0 + h), (x0, y0 - h)]
    try:
        series = [ref_theta_series(m, sx, sy, k) for sx, sy in stencil]
    except (DomainError, NonFiniteError, ConformalError) as exc:
        raise StencilEscapeError(f"stencil point left the valid region: {exc}") from exc
    center = ref_theta_series(m, x0, y0, k)

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
            pq = budget.p[j] * budget.q[j]
            l_bound += (
                GAP_SQ * pq * pq * budget.delta[j + 1]
                + GAP_FIFTH * pq ** 5 * budget.delta[j]
                + GAP_CUBIC * pq ** 3 * budget.q[j] ** 2 * budget.pt[j] * budget.gamma_star[j + 1]
            )
    return l_meas, l_bound


@dataclasses.dataclass
class RefOrbitCocycle(OrbitCocycle):
    """An OrbitCocycle with the old per-step values: steps[j] = Dphi(z_j), Pt_j = ||D^2 phi||, Dd_j = |det Dphi|
    and Ddt_j = ||D(det Dphi)|| at z_j, for j = 0..kmax."""

    steps: list[Mat2]
    Pt: np.ndarray
    Dd: np.ndarray
    Ddt: np.ndarray


def ref_build_orbit_cocycle(m: MapModel, z0: Point2, kmax: int, frame=singular_values) -> RefOrbitCocycle:
    """The old build_orbit_cocycle, returning every per-step value it kept.

    frame gives (E, F) of each product and step: the reference singular_values by default.
    """
    if kmax < 1:
        raise IndexError("kmax must be >= 1")
    x, y = float(z0[0]), float(z0[1])
    orbit = [Point2(x, y)]
    steps: list[Mat2] = []
    eval_xy, jac_xy = m.eval_xy, m.jac_xy
    for j in range(kmax + 1):
        try:
            steps.append(Mat2(*jac_xy(x, y)))
        except (DomainError, NonFiniteError):
            raise OrbitEscapeError(j, Point2(x, y))
        if j < kmax:
            try:
                x, y = eval_xy(x, y)
            except (DomainError, NonFiniteError):
                raise OrbitEscapeError(j, Point2(x, y))
            if not m.in_domain(x, y):
                raise OrbitEscapeError(j + 1, Point2(x, y))
            orbit.append(Point2(x, y))

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

    prods = [IDENTITY]
    acc = IDENTITY
    for k in range(1, n):
        acc = mat_mul(steps[k - 1], acc)
        prods.append(acc)
        e, f = frame(acc)
        if not (math.isfinite(f) and f != 0.0):
            raise SingularStepError(f"order-{k} product Dphi^{k} overflows or underflows to zero")
        E[k], F[k] = e, f
        H[k] = e / f

    for j in range(n):
        sj = steps[j]
        e, f = frame(sj)
        det = sj.a11 * sj.a22 - sj.a12 * sj.a21
        if det == 0.0 or e == 0.0:
            raise SingularStepError(f"singular one-step derivative at orbit index {j}")
        if not math.isfinite(det):
            raise NonFiniteError(f"det Dphi of '{m.name}' overflows at orbit index {j}")
        P[j] = f
        Q[j] = 1.0 / e
        Dd[j] = abs(det)
        v = m.second_partials(*orbit[j])
        if not all(math.isfinite(c) for c in v):
            raise NonFiniteError(f"second derivative data of '{m.name}' non-finite at {tuple(orbit[j])}")
        Pt[j] = 2.0 * max(abs(c) for c in v[:6])
        Ddt[j] = norm2(v[6], v[7])

    return RefOrbitCocycle(
        z0=Point2(*z0), kmax=kmax, orbit=orbit, products=prods,
        E=E, F=F, H=H, P=P, Q=Q, steps=steps, Pt=Pt, Dd=Dd, Ddt=Ddt,
    )


def ref_fd_jac(m: MapModel, x: float, y: float) -> tuple[float, float, float, float]:
    """The central-difference branch of the old ``MapModel.jac_xy``."""
    h = JAC_STEP * max(1.0, math.hypot(x, y))
    fxp = m.raw_eval(x + h, y)
    fxm = m.raw_eval(x - h, y)
    fyp = m.raw_eval(x, y + h)
    fym = m.raw_eval(x, y - h)
    inv2h = 0.5 / h
    return (
        (fxp[0] - fxm[0]) * inv2h,
        (fyp[0] - fym[0]) * inv2h,
        (fxp[1] - fxm[1]) * inv2h,
        (fyp[1] - fym[1]) * inv2h,
    )


def ref_det_grad(m: MapModel, x: float, y: float) -> tuple[float, float]:
    """The gradient of det(Dphi) as the old ``second_derivative_data`` took it without raw_det_grad.

    ``second_partials`` returns it as its last two entries."""
    h = HESS_STEP * max(1.0, math.hypot(x, y))

    def det_at(px, py):
        if m.raw_jac is not None:
            j = m.raw_jac(px, py)
            return j[0] * j[3] - j[1] * j[2]
        hj = JAC_STEP * max(1.0, math.hypot(px, py))
        i2 = 0.5 / hj
        a = (m.raw_eval(px + hj, py)[0] - m.raw_eval(px - hj, py)[0]) * i2
        b = (m.raw_eval(px, py + hj)[0] - m.raw_eval(px, py - hj)[0]) * i2
        c = (m.raw_eval(px + hj, py)[1] - m.raw_eval(px - hj, py)[1]) * i2
        d = (m.raw_eval(px, py + hj)[1] - m.raw_eval(px, py - hj)[1]) * i2
        return a * d - b * c

    return (
        (det_at(x + h, y) - det_at(x - h, y)) * 0.5 / h,
        (det_at(x, y + h) - det_at(x, y - h)) * 0.5 / h,
    )


def ref_pushforward_contraction(c: OrbitCocycle, k: int, j: int) -> tuple[float, float]:
    if not 1 <= j <= k <= c.kmax:
        raise IndexError(f"need 1 <= j <= k <= kmax, got j={j}, k={k}")
    e = contracted_direction(c, k).e
    vx, vy = c.products[j].apply(e[0], e[1])
    norm = math.hypot(vx, vy)
    gaps = 0.0
    for i in range(j, k):
        gaps += angle_gap(c, i).phi
    bound = c.E[j] + c.F[j] * gaps
    if norm > bound * (1.0 + 1e-9) + 1e-300:
        raise BoundViolationError(
            f"pushforward norm {norm} exceeds envelope {bound} at (k={k}, j={j})"
        )
    return norm, bound


# -- maps and inputs ------------------------------------------------------------


def _guarded():
    # (x^2/2 + 0.1 y, y): singular on x = 0, which the orbit from x = 0.5
    # reaches within the guard margin at step 4
    return MapModel(
        name="guarded", params={},
        raw_eval=lambda x, y: (0.5 * x * x + 0.1 * y, y),
        raw_jac=lambda x, y: (x, 0.1, 0.0, 1.0),
        raw_hess=lambda x, y: (1.0, 0.0, 0.0, 0.0, 0.0, 0.0),
        raw_det_grad=lambda x, y: (1.0, 0.0),
        singular_guard=lambda x, y: abs(x),
    )


def _no_raw_jac():
    # Henon with every derivative by central differences
    return MapModel(name="henon-fd", params={}, raw_eval=lambda x, y: (1.0 - 1.4 * x * x + y, 0.3 * x))


def _nan_eval():
    # (x^2, y/2) for x < 2 and NaN beyond: the image of z_j is not finite
    return MapModel(
        name="nan-eval", params={},
        raw_eval=lambda x, y: (x * x if x < 2.0 else math.nan, 0.5 * y),
        raw_jac=lambda x, y: (2.0 * x, 0.0, 0.0, 0.5),
    )


def _inf_jac():
    # (2x + 1, y/2) with a Jacobian that is infinite at x >= 3
    return MapModel(
        name="inf-jac", params={},
        raw_eval=lambda x, y: (2.0 * x + 1.0, 0.5 * y),
        raw_jac=lambda x, y: (math.inf if x >= 3.0 else 2.0, 0.0, 0.0, 0.5),
    )


def _swap():
    # J = [[0, 2], [1/2, 0]]: J^2 = I, so every even-order product is conformal
    return MapModel(
        name="swap", params={},
        raw_eval=lambda x, y: (2.0 * y, 0.5 * x),
        raw_jac=lambda x, y: (0.0, 2.0, 0.5, 0.0),
    )


def _singular_step():
    # (x + 1/4, x y): det Dphi = x, so Dphi is singular where the orbit meets
    # x = 0, which it does exactly from a dyadic x_0 = -j/4 at orbit index j
    return MapModel(
        name="singular-step", params={},
        raw_eval=lambda x, y: (x + 0.25, x * y),
        raw_jac=lambda x, y: (1.0, 0.0, y, x),
        raw_hess=lambda x, y: (0.0, 0.0, 0.0, 0.0, 1.0, 0.0),
        raw_det_grad=lambda x, y: (1.0, 0.0),
    )


def _nan_hess():
    # singular-step with second partials that are infinite on 1/2 <= |x| <= 3/4;
    # from x_0 = -1 that strip comes first (index 1) and x = 0 later (index 4),
    # from x_0 = -1/4 the singular step comes first (index 1) and the strip at index 3
    return dataclasses.replace(
        _singular_step(), name="nan-hess",
        raw_hess=lambda x, y: (0.0, 0.0, 0.0, 0.0, 1.0, math.inf if 0.5 <= abs(x) <= 0.75 else 0.0),
    )


def _det_overflow():
    # (x + 1/4, y/2) with Dphi = 1e200 [[1, 1], [1, 2]] on the strip 1/2 <= x < 3/4,
    # whose determinant overflows as inf - inf, and diag(1, 1/2) elsewhere; an
    # orbit meets the strip at most once, so no product overflows
    return MapModel(
        name="det-overflow", params={},
        raw_eval=lambda x, y: (x + 0.25, 0.5 * y),
        raw_jac=lambda x, y: (1e200, 1e200, 1e200, 2e200) if 0.5 <= x < 0.75 else (1.0, 0.0, 0.0, 0.5),
        raw_hess=lambda x, y: (0.0, 0.0, 0.0, 0.0, 0.0, 0.0),
        raw_det_grad=lambda x, y: (0.0, 0.0),
    )


MAPS = {
    "linear": lambda: make_map("linear", lambda_s=0.5, lambda_u=2.0),
    "perturbed": lambda: make_map("perturbed", lambda_s=0.5, lambda_u=2.0, c=0.05),
    "henon": lambda: make_map("henon", a=1.4, b=0.3),
    "conformal": lambda: make_map("linear", lambda_s=1.0, lambda_u=1.0),
    # 1 - E_k/F_k is about 5e-13 k: conformal to round-off at order 1 only
    "near-conformal": lambda: make_map("linear", lambda_s=1.0, lambda_u=1.0 + 5e-13),
    "guarded": _guarded,
    "no-raw-jac": _no_raw_jac,
    "nan-eval": _nan_eval,
    "inf-jac": _inf_jac,
    "swap": _swap,
    "singular-step": _singular_step,
    "nan-hess": _nan_hess,
    "det-overflow": _det_overflow,
}

GRID = [(x, y) for x in (-0.9, -0.3, 0.0, 0.3, 0.63135, 0.9) for y in (-0.4, 0.0, 0.189, 0.4)]

SPECIAL = {
    "linear": [(6.0, 0.0), (0.0, 5.0 / 2 ** 7.5), (0.0, 5.0 / 2 ** 3.5), (math.nan, 0.0), (math.inf, 0.0)],
    "perturbed": [(0.0, -5.5), (0.0, 1.6)],
    "henon": [(2.5, 0.0), (4.9999999, 0.0), (0.0, 5.0), (-1.4, 0.2)],
    "conformal": [(0.2, 0.3)],
    "near-conformal": [],
    "guarded": [(0.5, 0.0), (0.5, 0.2), (0.0, 0.3)],
    "no-raw-jac": [(2.5, 0.0), (0.63135, 0.189)],
    "nan-eval": [(1.5, 0.1), (2.5, 0.1), (1.1, 0.1), (0.5, 0.1)],
    "inf-jac": [(0.0, 0.1), (1.0, 0.1), (3.5, 0.1)],
    "swap": [(0.3, 0.2)],
    "singular-step": [(-0.5, 0.2), (-0.25, 0.1), (-1.0, 0.3)],
    "nan-hess": [(-1.0, 0.2), (-0.25, 0.1), (0.5, 0.1)],
    "det-overflow": [(0.5, 0.1), (0.0, 0.1), (-1.0, 0.2)],
}

ORDERS = (1, 2, 3, 5, 8, 12)

CASES = [(name, p, k) for name in MAPS for p in GRID + SPECIAL[name] for k in ORDERS]


def bits(v):
    """Exact representation of a float, tuple, list or array, for equality."""
    if isinstance(v, (float, np.floating)):
        return float(v).hex()
    if isinstance(v, np.ndarray):
        return [bits(float(x)) for x in v]
    if isinstance(v, (tuple, list)):
        return type(v).__name__, [bits(x) for x in v]
    return v


def outcome(fn, *args):
    """('ok', bits of the result) or ('raise', class, escape index, point)."""
    try:
        return "ok", bits(fn(*args))
    except NumericalError as exc:
        return "raise", type(exc), getattr(exc, "step", None), bits(getattr(exc, "point", None))


def escape_before(m, p, k):
    """The OrbitEscapeError a checked k-step sweep from p must raise, else None."""
    try:
        ref_build_orbit_cocycle(m, Point2(*p), k)
    except OrbitEscapeError as exc:
        if exc.step < k:
            return exc
    except NumericalError:
        pass  # a singular step or second derivative fails after the walk
    return None


def expected(ref_fn, m, p, k):
    """The reference outcome, with DomainError/NonFiniteError as the sweep's escape."""
    esc = escape_before(m, p, k)
    got = outcome(ref_fn, m, p[0], p[1], k)
    if esc is not None:
        assert got[0] == "raise" and got[1] in (DomainError, NonFiniteError), got
        return "raise", OrbitEscapeError, esc.step, bits(esc.point)
    return got


def theta_series(m, x, y, k):
    """The stencil's theta series as direction_field_derivative now builds it."""
    prods = orbit_sweep(m, x, y, k)[1]
    return [_contracted_theta(prods[j], j, (x, y))[0] for j in range(1, k + 1)]


# -- the kernel against the reference -------------------------------------------


def point_failures(m, p, k):
    """The first orbit index j <= k with a singular step, and the first with a non-finite det Dphi or second partials, or None."""
    orbit = orbit_sweep(m, p[0], p[1], k)[0]
    steps = [m.jac(*z) for z in orbit]
    singular = [j for j, s in enumerate(steps) if s[0] * s[3] - s[1] * s[2] == 0.0 or singular_values(s)[0] == 0.0]
    non_finite = [j for j, (z, s) in enumerate(zip(orbit, steps)) if not math.isfinite(s[0] * s[3] - s[1] * s[2])
                  or not all(math.isfinite(v) for v in m.second_partials(*z))]
    return (singular or [None])[0], (non_finite or [None])[0]


def test_cases_cover_every_outcome():
    seen = set()
    for name, p, k in CASES:
        m = MAPS[name]()
        esc = escape_before(m, p, k)
        if esc is not None:
            seen.add(("escape", name, "z_0" if esc.step == 0 else "mid-sweep"))
            continue
        raised = outcome(ref_build_orbit_cocycle, m, Point2(*p), k)[1]
        if raised is OrbitEscapeError:
            seen.add(("escape", name, "z_k"))
        elif raised in (SingularStepError, NonFiniteError):
            singular, non_finite = point_failures(m, p, k)
            first = min(j for j in (singular, non_finite) if j is not None)
            assert raised is (SingularStepError if first == singular else NonFiniteError), (name, p, k)
            where = "z_0" if first == 0 else "mid-orbit"
            if None not in (singular, non_finite):
                where = "both, singular first" if singular < non_finite else "both, non-finite first"
            seen.add((raised.__name__, name, where))
        elif outcome(ref_contracted_theta_fast, m, p[0], p[1], k)[1] is ConformalError:
            seen.add(("conformal", name, "order k"))
        elif outcome(ref_theta_series, m, p[0], p[1], k)[1] is ConformalError:
            seen.add(("conformal", name, "below order k"))
        else:
            seen.add(("ok", name, None))
    needed = {
        ("escape", "linear", "z_0"), ("escape", "henon", "mid-sweep"), ("escape", "linear", "z_k"),
        ("escape", "guarded", "mid-sweep"), ("escape", "no-raw-jac", "mid-sweep"),
        ("escape", "nan-eval", "z_0"), ("escape", "nan-eval", "mid-sweep"), ("escape", "inf-jac", "mid-sweep"),
        ("conformal", "conformal", "order k"), ("conformal", "swap", "order k"),
        ("conformal", "swap", "below order k"), ("conformal", "near-conformal", "order k"),
        ("conformal", "near-conformal", "below order k"),
        ("SingularStepError", "singular-step", "z_0"), ("SingularStepError", "singular-step", "mid-orbit"),
        ("NonFiniteError", "nan-hess", "z_0"), ("NonFiniteError", "nan-hess", "mid-orbit"),
        ("SingularStepError", "nan-hess", "both, singular first"), ("NonFiniteError", "nan-hess", "both, non-finite first"),
        ("NonFiniteError", "det-overflow", "z_0"), ("NonFiniteError", "det-overflow", "mid-orbit"),
    } | {("ok", n, None) for n in MAPS if n not in ("conformal", "near-conformal")}
    assert needed <= seen, needed - seen


@pytest.mark.parametrize("name", list(MAPS))
def test_contracted_theta_fast_matches_reference(name):
    m = MAPS[name]()
    for _, p, k in (c for c in CASES if c[0] == name):
        assert outcome(contracted_theta_fast, m, p[0], p[1], k) == expected(ref_contracted_theta_fast, m, p, k), (p, k)


@pytest.mark.parametrize("name", list(MAPS))
def test_theta_series_matches_reference(name):
    m = MAPS[name]()
    for _, p, k in (c for c in CASES if c[0] == name):
        assert outcome(theta_series, m, p[0], p[1], k) == expected(ref_theta_series, m, p, k), (p, k)


@pytest.mark.parametrize("name", list(MAPS))
def test_orbit_cocycle_matches_reference(name):
    m = MAPS[name]()
    fields = [f.name for f in dataclasses.fields(OrbitCocycle) if f.name not in ("map", "_tails")]

    def fields_of(builder):
        def run(m, p, k):
            c = builder(m, Point2(*p), k)
            types = {type(v) for v in c.orbit} | {type(v) for v in c.products}
            return [getattr(c, f) for f in fields] + [sorted(t.__name__ for t in types)]
        return run

    for _, p, k in (c for c in CASES if c[0] == name):
        want = outcome(fields_of(ref_build_orbit_cocycle), m, p, k)
        assert outcome(fields_of(build_orbit_cocycle), m, p, k) == want, (p, k)


@pytest.mark.parametrize("name", list(MAPS))
def test_point_data_matches_reference(name):
    # the steps and second-derivative values the budget sweep reads, on z's orbit
    m = MAPS[name]()
    tied = 0
    for _, p, k in (c for c in CASES if c[0] == name):
        try:
            ref = ref_build_orbit_cocycle(m, Point2(*p), k)
        except NumericalError:
            continue
        with np.errstate(all="ignore"):
            at, pd = _point_data(m, *np.array(ref.orbit).T)
        assert at.tolist() == list(range(k + 1)), (p, k)
        assert bits([tuple(s) for s in pd["S"].T.tolist()]) == bits([tuple(s) for s in ref.steps]), (p, k)
        for key in ("P", "Q", "Pt", "Dd", "Ddt"):
            assert bits(pd[key]) == bits(getattr(ref, key)), (key, p, k)
        tied += 1
    assert tied, name


def test_field_derivative_matches_reference():
    for name in ("linear", "perturbed", "henon", "guarded", "no-raw-jac"):
        m = MAPS[name]()
        for p in [(0.0, 0.0), (0.63135, 0.189), (0.3, -0.2), (0.5, 0.2)]:
            for k in (1, 4, 8):
                try:
                    c = ref_build_orbit_cocycle(m, Point2(*p), k)
                except NumericalError:
                    continue
                for h in (1e-4, 1e-3):
                    want = outcome(ref_direction_field_derivative, m, c, k, h)
                    if want[0] == "raise":
                        continue  # the old order reported base-point failures as the stencil's
                    assert outcome(direction_field_derivative, m, c, k, h) == want, (name, p, k, h)


def test_fd_derivatives_match_reference():
    for m in (_no_raw_jac(), dataclasses.replace(_guarded(), raw_det_grad=None)):
        for x, y in GRID + [(1e-7, -3.0), (4.0, 4.0)]:
            assert bits(m.fd_jac(x, y)) == bits(ref_fd_jac(m, x, y))
            if m.raw_jac is None:
                assert bits(m.jac_xy(x, y)) == bits(ref_fd_jac(m, x, y))
            if m.in_domain(x, y):
                assert bits(m.second_partials(x, y)[6:]) == bits(ref_det_grad(m, x, y))


def test_pushforward_matches_reference():
    for name, p in (("henon", (0.63135, 0.189)), ("perturbed", (0.1, 0.0)), ("linear", (0.3, 1e-4))):
        c = build_orbit_cocycle(MAPS[name](), Point2(*p), 12)
        for k in range(1, 13):
            for j in range(1, k + 1):
                assert outcome(pushforward_contraction, c, k, j) == outcome(ref_pushforward_contraction, c, k, j)


def sweep_product(m, x, y, k):
    return orbit_sweep(m, x, y, k)[1][k]


@pytest.mark.parametrize("name", list(MAPS))
def test_orbit_product_matches_sweep(name):
    m = MAPS[name]()
    for _, p, k in (c for c in CASES if c[0] == name):
        assert outcome(orbit_product, m, p[0], p[1], k) == outcome(sweep_product, m, p[0], p[1], k), (p, k)


def test_orbit_product_overflow_from_finite_steps():
    # every step is finite; the product, or the sum the end test takes, is not
    for m, want in ((make_map("linear", lambda_s=0.5, lambda_u=1e200), (0.25, 0.0, 0.0, math.inf)),
                    (make_map("linear", lambda_s=1.3e154, lambda_u=1.3e154), (1.3e154 ** 2, 0.0, 0.0, 1.3e154 ** 2))):
        assert sweep_product(m, 0.0, 0.0, 2) == want
        assert bits(orbit_product(m, 0.0, 0.0, 2)) == bits(want)


def test_sweep_stops_at_a_failing_product():
    # Dphi^1024 = diag(2^-1024, 2^1024) overflows, and with lambda = 2^-600 Dphi^2 rounds to the zero
    # matrix: the walk ends at that order, orbit_product returns that product and the cocycle names it
    for m, k, stop, how in ((make_map("linear", lambda_s=0.5, lambda_u=2.0), 5000, 1024, "overflows"),
                            (make_map("linear", lambda_s=2.0 ** -600, lambda_u=2.0 ** -600), 5, 2, "underflows")):
        orbit, prods = orbit_sweep(m, 0.0, 0.0, k)
        assert len(orbit) == len(prods) == stop + 1
        assert bits(orbit_sweep(m, 0.0, 0.0, stop - 1)) == bits((orbit[:-1], prods[:-1]))
        assert bits(orbit_product(m, 0.0, 0.0, k)) == bits(prods[-1])
        with pytest.raises(SingularStepError, match=f"^order-{stop} product Dphi\\^{stop} {how}"):
            build_orbit_cocycle(m, Point2(0.0, 0.0), k)


def test_stencil_product_overflow_is_a_stencil_escape():
    # the map halves y, so every stencil point stays in the box, but its Jacobian is diag(1, 2 + 1000 x):
    # Dphi^1000 = diag(1, 2^1000) at z = (0, 0), while at the stencil point (1e-4, 0) 2.1^j overflows
    # at j = 957, where that point's walk stops; the angles of the products past it would be NaN
    m = MapModel(name="steeper-right", params={}, raw_eval=lambda x, y: (x, 0.5 * y),
                 raw_jac=lambda x, y: (1.0, 0.0, 0.0, 2.0 + 1e3 * x))
    c = build_orbit_cocycle(m, Point2(0.0, 0.0), 1000)
    with pytest.raises(StencilEscapeError, match="order-957 product Dphi\\^957 fails at \\(0.0001, 0.0\\)"):
        direction_field_derivative(m, c, 1000, 1e-4)


def test_orbit_product_unbounded_box():
    # z_1 = (inf, 0) is inside an infinite box and maps back to (0, 0): only
    # the checked sweep sees the escape at step 0
    m = MapModel(
        name="unbounded", params={},
        raw_eval=lambda x, y: (x * x if abs(x) <= 1e300 else 0.0, 0.5 * y),
        raw_jac=lambda x, y: (2.0 * x if abs(x) <= 1e300 else 0.0, 0.0, 0.0, 0.5),
        box=(-math.inf, math.inf, -math.inf, math.inf),
    )
    assert outcome(orbit_product, m, 1e200, 0.0, 3) == outcome(sweep_product, m, 1e200, 0.0, 3)
    assert outcome(orbit_product, m, 1e200, 0.0, 3)[1:3] == (OrbitEscapeError, 0)
    assert outcome(orbit_product, m, 0.5, 0.1, 5) == outcome(sweep_product, m, 0.5, 0.1, 5)


def ref_contracted_theta(p, k, at):
    """The order-k (theta, E, F) from singular_values and _contract_angle."""
    e, f = singular_values(p)
    if f == 0.0 or 1.0 - e / f < CONFORMAL_TOL:
        raise ConformalError(f"order-{k} product conformal to round-off at {at}")
    return _contract_angle(*p), e, f


def window_edge_products():
    """Products on and beside 2^-1020 < s < 2^1018, the window where _frame does not scale."""
    bases = [(0.75, -0.5, 0.25, 1.0), (1.0, 0.0, 0.0, 0.0), (1.0, 1.0, 1.0, 1.0), (0.6, -1.3, 0.25, 0.9),
             (3.0, -4.0, 4.0, 3.0), (1.0, -1.0, 1.0, 1.0), (-0.3, 0.9, 1e-3, -0.7)]
    out = []
    for base in bases:
        for ex in (-512, -511, -510, -509, 507, 508, 509, 510):
            m = [math.ldexp(v, ex) for v in base]
            out.append(tuple(m))
            for up in (math.inf, 0.0):
                out.append((math.nextafter(m[0], up),) + tuple(m[1:]))
    return out


def test_fused_theta_matches_reference_on_window_edges():
    lo, hi = 2.0 ** -1020, 2.0 ** 1018
    seen = set()
    for p in window_edge_products():
        s = sum(v * v for v in p)
        top = max(map(abs, p))
        seen.add("s = 2^-1020" if s == lo else "just past 2^-1020" if lo < s < lo * (1 + 2 ** -48) else
                 "s = 2^1018" if s == hi else "just below 2^1018" if hi * (1 - 2 ** -48) < s < hi else None)
        seen.add("entry above 2^509" if top > 2.0 ** 509 else "all entries below 2^-511" if top < 2.0 ** -511 else None)
        want = outcome(ref_contracted_theta, p, 3, (0.0, 0.0))
        seen.add(("conformal", lo < s < hi) if want[1] is ConformalError else None)
        got = outcome(_contracted_theta, p, 3, (0.0, 0.0))
        if in_declared_region(p):
            # the reference squares these entries into the subnormal range; the
            # angle is the reference's at 2^600 p, whose squares are normal
            seen.add("declared region")
            assert got[0] == want[0] and (got[0] == "ok" or got == want), p
            e, f, th = _frame(*p)
            assert th == _contract_angle(*(math.ldexp(v, 600) for v in p)), p
            for err, ref_err, ulp in errors_against_exact(p, e, f):
                assert err <= ref_err + 2 * ulp, p
            continue
        assert got == want, p
    assert seen >= {"s = 2^-1020", "just past 2^-1020", "s = 2^1018", "just below 2^1018", "entry above 2^509",
                    "all entries below 2^-511", ("conformal", True), ("conformal", False), "declared region"}


def test_sweep_shape_and_escape_point():
    m = MAPS["henon"]()
    orbit, prods = orbit_sweep(m, 0.1, 0.0, 5)
    assert len(orbit) == 6 and len(prods) == 6
    assert prods[0] == (1.0, 0.0, 0.0, 1.0)
    with pytest.raises(OrbitEscapeError) as exc:
        orbit_sweep(m, 2.5, 0.0, 5)
    assert exc.value.step == 1
    assert exc.value.point == Point2(*orbit_sweep(m, 2.5, 0.0, 1)[0][1])


def test_sweep_reads_raw_callables_at_call_time():
    m = MAPS["henon"]()
    calls = {"eval": 0, "jac": 0}

    def counted(key, fn):
        def wrapper(x, y):
            calls[key] += 1
            return fn(x, y)
        return wrapper

    swapped = dataclasses.replace(m, raw_eval=counted("eval", m.raw_eval), raw_jac=counted("jac", m.raw_jac))
    assert bits(contracted_theta_fast(swapped, 0.1, 0.0, 7)) == bits(contracted_theta_fast(m, 0.1, 0.0, 7))
    assert calls == {"eval": 7, "jac": 7}


def test_field_derivative_reports_base_point_failures():
    # a conformal base point: every stencil point is conformal too, so the old
    # order called it a stencil escape
    m = MAPS["conformal"]()
    c = build_orbit_cocycle(m, Point2(0.2, 0.3), 3)
    with pytest.raises(ConformalError):
        direction_field_derivative(m, c, 3, 1e-4)
    with pytest.raises(StencilEscapeError):
        ref_direction_field_derivative(m, c, 3, 1e-4)
