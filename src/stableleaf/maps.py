"""Planar map models with first/second derivative access.

A MapModel bundles the map with analytic derivatives where available and
central finite-difference fallbacks where not. Built-in families:

    linear(lambda_s, lambda_u):   (ls*x, lu*y)
    perturbed(lambda_s, lambda_u, c): (ls*x + c*y^2, lu*y + c*x^2)
    henon(a, b):                  (1 - a*x^2 + y, b*x)

Everything is double precision. Models are immutable and all operations are
pure, so they are safe to share across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

from .errors import BadParamsError, DomainError, NonFiniteError, UnknownMapError

# Finite-difference steps (relative to max(1, |p|)): first derivatives use a
# central difference at 1e-6, second derivatives at 1e-4.
JAC_STEP = 1e-6
HESS_STEP = 1e-4
GUARD_MARGIN = 1e-8
DEFAULT_BOX = (-5.0, 5.0, -5.0, 5.0)  # xlo, xhi, ylo, yhi


class Point2(NamedTuple):
    x: float
    y: float


class Mat2(NamedTuple):
    """2x2 matrix; a11 = dPhi1/dx, a12 = dPhi1/dy, a21 = dPhi2/dx, a22 = dPhi2/dy."""

    a11: float
    a12: float
    a21: float
    a22: float

    def det(self) -> float:
        return self.a11 * self.a22 - self.a12 * self.a21

    def mul(self, o: "Mat2") -> "Mat2":
        return Mat2(
            self.a11 * o.a11 + self.a12 * o.a21,
            self.a11 * o.a12 + self.a12 * o.a22,
            self.a21 * o.a11 + self.a22 * o.a21,
            self.a21 * o.a12 + self.a22 * o.a22,
        )

    def apply(self, vx: float, vy: float) -> tuple[float, float]:
        return (self.a11 * vx + self.a12 * vy, self.a21 * vx + self.a22 * vy)


IDENTITY = Mat2(1.0, 0.0, 0.0, 1.0)


class SecondDeriv(NamedTuple):
    """All second partials d_j d_l Phi_i, stored once per symmetric pair."""

    t1xx: float
    t1xy: float
    t1yy: float
    t2xx: float
    t2xy: float
    t2yy: float

    def norm(self) -> float:
        """Adopted tensor norm: 2 * max |entry| (upper bound of the bilinear operator norm)."""
        return 2.0 * max(abs(v) for v in self)


@dataclass(frozen=True)
class MapModel:
    """A planar map with derivative access and optional singular-set guard.

    ``raw_eval`` must be total on the domain box. When ``raw_jac`` / ``raw_hess``
    / ``raw_det_grad`` are absent, central finite differences are used.
    Derivative stencils evaluate the raw map without the domain guard so base
    points near the box edge do not fail spuriously.
    """

    name: str
    params: dict
    raw_eval: Callable[[float, float], tuple[float, float]]
    raw_jac: Optional[Callable[[float, float], tuple[float, float, float, float]]] = None
    raw_hess: Optional[Callable[[float, float], tuple]] = None
    raw_det_grad: Optional[Callable[[float, float], tuple[float, float]]] = None
    singular_guard: Optional[Callable[[float, float], float]] = None
    box: tuple[float, float, float, float] = DEFAULT_BOX
    guard_margin: float = GUARD_MARGIN

    # -- domain ------------------------------------------------------------

    def in_domain(self, x: float, y: float) -> bool:
        xlo, xhi, ylo, yhi = self.box
        if not (xlo <= x <= xhi and ylo <= y <= yhi):
            return False
        if self.singular_guard is not None and self.singular_guard(x, y) <= self.guard_margin:
            return False
        return True

    def _check_domain(self, x: float, y: float) -> None:
        if not (math.isfinite(x) and math.isfinite(y)):
            raise NonFiniteError(f"non-finite point ({x}, {y})")
        if not self.in_domain(x, y):
            raise DomainError(f"({x}, {y}) outside domain of map '{self.name}'")

    # -- evaluation ---------------------------------------------------------

    def eval_xy(self, x: float, y: float) -> tuple[float, float]:
        self._check_domain(x, y)
        fx, fy = self.raw_eval(x, y)
        if not (math.isfinite(fx) and math.isfinite(fy)):
            raise NonFiniteError(f"map '{self.name}' returned non-finite value at ({x}, {y})")
        return fx, fy

    # -- first derivative ---------------------------------------------------

    def fd_jac(self, x: float, y: float) -> tuple[float, float, float, float]:
        """Central-difference Jacobian of raw_eval at (x, y); unchecked."""
        h = JAC_STEP * max(1.0, math.hypot(x, y))
        fxp = self.raw_eval(x + h, y)
        fxm = self.raw_eval(x - h, y)
        fyp = self.raw_eval(x, y + h)
        fym = self.raw_eval(x, y - h)
        inv2h = 0.5 / h
        return (
            (fxp[0] - fxm[0]) * inv2h,
            (fyp[0] - fym[0]) * inv2h,
            (fxp[1] - fxm[1]) * inv2h,
            (fyp[1] - fym[1]) * inv2h,
        )

    def jac_xy(self, x: float, y: float) -> tuple[float, float, float, float]:
        self._check_domain(x, y)
        j = self.raw_jac(x, y) if self.raw_jac is not None else self.fd_jac(x, y)
        if not all(math.isfinite(v) for v in j):
            raise NonFiniteError(f"Jacobian of '{self.name}' non-finite at ({x}, {y})")
        return j

    # -- second derivative ----------------------------------------------------

    def second_derivative_data(self, p: Point2) -> tuple[SecondDeriv, Point2]:
        """Second-partial tensor and the spatial gradient of det(Dphi) at p."""
        x, y = p
        self._check_domain(x, y)
        h = HESS_STEP * max(1.0, math.hypot(x, y))
        if self.raw_hess is not None:
            t = SecondDeriv(*self.raw_hess(x, y))
        else:
            f0 = self.raw_eval(x, y)
            fxp = self.raw_eval(x + h, y)
            fxm = self.raw_eval(x - h, y)
            fyp = self.raw_eval(x, y + h)
            fym = self.raw_eval(x, y - h)
            fpp = self.raw_eval(x + h, y + h)
            fpm = self.raw_eval(x + h, y - h)
            fmp = self.raw_eval(x - h, y + h)
            fmm = self.raw_eval(x - h, y - h)
            ih2 = 1.0 / (h * h)
            t = SecondDeriv(
                (fxp[0] - 2 * f0[0] + fxm[0]) * ih2,
                (fpp[0] - fpm[0] - fmp[0] + fmm[0]) * 0.25 * ih2,
                (fyp[0] - 2 * f0[0] + fym[0]) * ih2,
                (fxp[1] - 2 * f0[1] + fxm[1]) * ih2,
                (fpp[1] - fpm[1] - fmp[1] + fmm[1]) * 0.25 * ih2,
                (fyp[1] - 2 * f0[1] + fym[1]) * ih2,
            )
        if self.raw_det_grad is not None:
            g = self.raw_det_grad(x, y)
        else:
            jac = self.raw_jac if self.raw_jac is not None else self.fd_jac

            def det_at(px, py):
                j = jac(px, py)
                return j[0] * j[3] - j[1] * j[2]

            g = (
                (det_at(x + h, y) - det_at(x - h, y)) * 0.5 / h,
                (det_at(x, y + h) - det_at(x, y - h)) * 0.5 / h,
            )
        if not (all(math.isfinite(v) for v in t) and all(math.isfinite(v) for v in g)):
            raise NonFiniteError(f"second derivative data of '{self.name}' non-finite at ({x}, {y})")
        return t, Point2(*g)


# -- built-in families -------------------------------------------------------


def _require(params: dict, *names: str) -> list[float]:
    vals = []
    for n in names:
        if n not in params or params[n] is None:
            raise BadParamsError(f"missing parameter '{n}'")
        v = float(params[n])
        if not math.isfinite(v):
            raise BadParamsError(f"parameter '{n}' must be finite, got {params[n]}")
        vals.append(v)
    return vals


def _linear(ls: float, lu: float, box) -> MapModel:
    return MapModel(
        name="linear",
        params={"lambda_s": ls, "lambda_u": lu},
        raw_eval=lambda x, y: (ls * x, lu * y),
        raw_jac=lambda x, y: (ls, 0.0, 0.0, lu),
        raw_hess=lambda x, y: (0.0, 0.0, 0.0, 0.0, 0.0, 0.0),
        raw_det_grad=lambda x, y: (0.0, 0.0),
        box=box,
    )


def _perturbed(ls: float, lu: float, c: float, box) -> MapModel:
    return MapModel(
        name="perturbed",
        params={"lambda_s": ls, "lambda_u": lu, "c": c},
        raw_eval=lambda x, y: (ls * x + c * y * y, lu * y + c * x * x),
        raw_jac=lambda x, y: (ls, 2.0 * c * y, 2.0 * c * x, lu),
        raw_hess=lambda x, y: (0.0, 0.0, 2.0 * c, 2.0 * c, 0.0, 0.0),
        # det = ls*lu - 4 c^2 x y
        raw_det_grad=lambda x, y: (-4.0 * c * c * y, -4.0 * c * c * x),
        box=box,
    )


def _henon(a: float, b: float, box) -> MapModel:
    return MapModel(
        name="henon",
        params={"a": a, "b": b},
        raw_eval=lambda x, y: (1.0 - a * x * x + y, b * x),
        raw_jac=lambda x, y: (-2.0 * a * x, 1.0, b, 0.0),
        raw_hess=lambda x, y: (-2.0 * a, 0.0, 0.0, 0.0, 0.0, 0.0),
        raw_det_grad=lambda x, y: (0.0, 0.0),  # det = -b everywhere
        box=box,
    )


def make_map(name: str, box=DEFAULT_BOX, **params) -> MapModel:
    """Build one of the built-in maps; unknown names raise UnknownMapError."""
    if name == "linear":
        ls, lu = _require(params, "lambda_s", "lambda_u")
        if ls == 0.0 or lu == 0.0:
            raise BadParamsError("linear map must be invertible (nonzero eigenvalues)")
        return _linear(ls, lu, box)
    if name == "perturbed":
        ls, lu, c = _require(params, "lambda_s", "lambda_u", "c")
        if ls == 0.0 or lu == 0.0:
            raise BadParamsError("perturbed map needs nonzero lambda_s, lambda_u")
        return _perturbed(ls, lu, c, box)
    if name == "henon":
        a, b = _require(params, "a", "b")
        if b == 0.0:
            raise BadParamsError("henon map needs b != 0 to be a diffeomorphism")
        return _henon(a, b, box)
    raise UnknownMapError(f"unknown map '{name}' (built-ins: linear, perturbed, henon)")
