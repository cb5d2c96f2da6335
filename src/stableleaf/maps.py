"""Planar map models with first/second derivative access.

A MapModel bundles the map with analytic derivatives where available and
central finite-difference fallbacks where not. Built-in families:

    linear(lambda_s, lambda_u):   (ls*x, lu*y)
    perturbed(lambda_s, lambda_u, c): (ls*x + c*y^2, lu*y + c*x^2)
    henon(a, b):                  (1 - a*x^2 + y, b*x)

Everything is double precision. Models are immutable and all operations are
pure, so they are safe to share across threads. The array passes evaluate the
raw callables on numpy arrays of points through ``apply_lanes``, which falls
back to one call per point for a callable that accepts only floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np

from .errors import BadParamsError, DomainError, NonFiniteError, UnknownMapError

# Finite-difference steps (relative to max(1, |p|)): first derivatives use a
# central difference at 1e-6, second derivatives at 1e-4.
JAC_STEP = 1e-6
HESS_STEP = 1e-4
GUARD_MARGIN = 1e-8
DEFAULT_BOX = (-5.0, 5.0, -5.0, 5.0)  # xlo, xhi, ylo, yhi


def apply_lanes(fn: Callable, x: np.ndarray, y: np.ndarray, width: Optional[int] = None) -> np.ndarray:
    """fn at every lane (x[i], y[i]): shape (width, lanes), or (lanes,) for one value per lane.

    fn is called once on the arrays. A callable that rejects them (TypeError
    or ValueError), or returns values that do not broadcast to the lanes, is
    called once per lane with Python floats instead, so it gives the same
    numbers, more slowly.
    """
    res = np.empty((len(x),) if width is None else (width, len(x)))
    if not len(x):
        return res
    try:
        out = fn(x, y)
        if width is None:
            res[...] = out
            return res
        if len(out) != width:
            raise ValueError(f"expected {width} values, got {len(out)}")
        for i, v in enumerate(out):
            res[i] = v
        return res
    except (TypeError, ValueError):
        pass
    per_lane = [fn(a, b) for a, b in zip(x.tolist(), y.tolist())]
    return np.array(per_lane, dtype=float).reshape(res.shape[::-1]).T


class Point2(NamedTuple):
    x: float
    y: float


class Mat2(NamedTuple):
    """2x2 matrix; a11 = dPhi1/dx, a12 = dPhi1/dy, a21 = dPhi2/dx, a22 = dPhi2/dy."""

    a11: float
    a12: float
    a21: float
    a22: float

    def apply(self, vx: float, vy: float) -> tuple[float, float]:
        return (self.a11 * vx + self.a12 * vy, self.a21 * vx + self.a22 * vy)


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

    def in_domain_lanes(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """in_domain at every lane, as a bool array; the guard sees only the lanes inside the box."""
        xlo, xhi, ylo, yhi = self.box
        ok = (xlo <= x) & (x <= xhi) & (ylo <= y) & (y <= yhi)
        if self.singular_guard is not None:
            ok[ok] = ~(apply_lanes(self.singular_guard, x[ok], y[ok]) <= self.guard_margin)
        return ok

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

    def eval_lanes(self, x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """eval_xy at every lane: (fx, fy, ok), where ok marks the lanes eval_xy returns on.

        Those lanes hold the image; the others hold NaN. raw_eval sees only
        the finite lanes in the domain. Call it inside np.errstate.
        """
        ok = np.isfinite(x) & np.isfinite(y)
        ok[ok] = self.in_domain_lanes(x[ok], y[ok])
        at = np.flatnonzero(ok)
        f = np.full((2, len(x)), np.nan)
        f[:, at] = apply_lanes(self.raw_eval, x[at], y[at], 2)
        ok[at] = np.isfinite(f[0, at]) & np.isfinite(f[1, at])
        return f[0], f[1], ok

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

    @property
    def jac(self) -> Callable[[float, float], tuple[float, float, float, float]]:
        """The Jacobian callable every caller reads: raw_jac, else the central-difference fd_jac; unchecked.

        A walk reads it once, from the instance it was given, so a copy made
        with dataclasses.replace uses its own raw_jac.
        """
        return self.raw_jac if self.raw_jac is not None else self.fd_jac

    def jac_xy(self, x: float, y: float) -> tuple[float, float, float, float]:
        self._check_domain(x, y)
        j = self.jac(x, y)
        if not all(math.isfinite(v) for v in j):
            raise NonFiniteError(f"Jacobian of '{self.name}' non-finite at ({x}, {y})")
        return j

    # -- second derivative ----------------------------------------------------

    def second_partials(self, x: float, y: float) -> tuple[float, ...]:
        """The six entries of the second-partial tensor, then the two of grad det(Dphi), at (x, y); unchecked."""
        if self.raw_hess is None or self.raw_det_grad is None:
            h = HESS_STEP * max(1.0, math.hypot(x, y))
        if self.raw_hess is not None:
            t = tuple(self.raw_hess(x, y))
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
            t = (
                (fxp[0] - 2 * f0[0] + fxm[0]) * ih2,
                (fpp[0] - fpm[0] - fmp[0] + fmm[0]) * 0.25 * ih2,
                (fyp[0] - 2 * f0[0] + fym[0]) * ih2,
                (fxp[1] - 2 * f0[1] + fxm[1]) * ih2,
                (fpp[1] - fpm[1] - fmp[1] + fmm[1]) * 0.25 * ih2,
                (fyp[1] - 2 * f0[1] + fym[1]) * ih2,
            )
        if self.raw_det_grad is not None:
            g = tuple(self.raw_det_grad(x, y))
        else:
            jac = self.jac

            def det_at(px, py):
                j = jac(px, py)
                return j[0] * j[3] - j[1] * j[2]

            g = (
                (det_at(x + h, y) - det_at(x - h, y)) * 0.5 / h,
                (det_at(x, y + h) - det_at(x, y - h)) * 0.5 / h,
            )
        return t + g


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


def _linear(ls: float, lu: float) -> MapModel:
    if ls == 0.0 or lu == 0.0:
        raise BadParamsError("linear map must be invertible (nonzero eigenvalues)")
    return MapModel(
        name="linear",
        params={"lambda_s": ls, "lambda_u": lu},
        raw_eval=lambda x, y: (ls * x, lu * y),
        raw_jac=lambda x, y: (ls, 0.0, 0.0, lu),
        raw_hess=lambda x, y: (0.0, 0.0, 0.0, 0.0, 0.0, 0.0),
        raw_det_grad=lambda x, y: (0.0, 0.0),
    )


def _perturbed(ls: float, lu: float, c: float) -> MapModel:
    if ls == 0.0 or lu == 0.0:
        raise BadParamsError("perturbed map needs nonzero lambda_s, lambda_u")
    return MapModel(
        name="perturbed",
        params={"lambda_s": ls, "lambda_u": lu, "c": c},
        raw_eval=lambda x, y: (ls * x + c * y * y, lu * y + c * x * x),
        raw_jac=lambda x, y: (ls, 2.0 * c * y, 2.0 * c * x, lu),
        raw_hess=lambda x, y: (0.0, 0.0, 2.0 * c, 2.0 * c, 0.0, 0.0),
        # det = ls*lu - 4 c^2 x y
        raw_det_grad=lambda x, y: (-4.0 * c * c * y, -4.0 * c * c * x),
    )


def _henon(a: float, b: float) -> MapModel:
    if b == 0.0:
        raise BadParamsError("henon map needs b != 0 to be a diffeomorphism")
    return MapModel(
        name="henon",
        params={"a": a, "b": b},
        raw_eval=lambda x, y: (1.0 - a * x * x + y, b * x),
        raw_jac=lambda x, y: (-2.0 * a * x, 1.0, b, 0.0),
        raw_hess=lambda x, y: (-2.0 * a, 0.0, 0.0, 0.0, 0.0, 0.0),
        raw_det_grad=lambda x, y: (0.0, 0.0),  # det = -b everywhere
    )


# the one table of built-in maps: name -> (its required parameters, in builder order; builder).
# make_map and the CLI's --map choices, parameter flags and messages all read it.
BUILTIN_MAPS = {
    "linear": (("lambda_s", "lambda_u"), _linear),
    "perturbed": (("lambda_s", "lambda_u", "c"), _perturbed),
    "henon": (("a", "b"), _henon),
}


def make_map(name: str, **params) -> MapModel:
    """Build one of the built-in maps from exactly its table's parameters, on DEFAULT_BOX.

    Unknown names raise UnknownMapError; a parameter the map does not take,
    or a missing or non-finite one, raises BadParamsError.
    """
    if name not in BUILTIN_MAPS:
        raise UnknownMapError(f"unknown map '{name}' (built-ins: {', '.join(BUILTIN_MAPS)})")
    names, build = BUILTIN_MAPS[name]
    extra = [key for key in params if key not in names]
    if extra:
        raise BadParamsError(f"map '{name}' takes no parameter {', '.join(map(repr, extra))} "
                             f"(its parameters: {', '.join(names)})")
    return build(*_require(params, *names))
