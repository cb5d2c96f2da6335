"""Finite-time stable leaves: integration, convergence, contraction, uniqueness.

A leaf of order k through z is the integral curve of the unit most-contracted
direction field of the k-step derivative, parametrized by arclength on a
uniform t-grid over [-eps, eps]. Integration is classical fixed-step RK4,
N = round(eps/h) steps a side (default h = eps/16, so N = 16 on the default
257-node grid), with orientation continuity enforced by sign-flipping the
field against the previous tangent; dense output places every grid node,
from the cubic Hermite on the step ends' positions and tangents, or the step
end itself where a node falls on one. Leaves of consecutive orders are
compared at matched arclength on a shared grid. The Cauchy iteration
integrates the limit leaf once more at half its step, and the largest
deviation over all nodes, the Hermite ones included, is its integration
error.

budget_to_epsilon and iterate_to_contraction run the pipeline stages in
order, each through staged(), which names the stage a NumericalError came from.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .budget import (
    LADDER_DEPTH,
    EpsilonSchedule,
    HyperbolicityBudget,
    check_condition_double_star,
    estimate_budget,
    tube_exits,
)
from .directions import _signed_gap, contracted_theta_fast, direction_field_derivative
from .errors import (
    BadParamsError,
    ConformalError,
    DegenerateLeafError,
    NoFeasibleEpsilonError,
    NonFiniteError,
    NotConvergedError,
    NumericalError,
    OrbitEscapeError,
)
from .maps import MapModel, Point2
from .rng import SplitRng

DEFAULT_GRID = 257
DEFAULT_STEP_DIV = 16  # default h = eps / 16: one RK4 step per 8 cells of the default grid
MAX_STEPS_PER_CELL = 64  # an h asking for more RK4 steps per grid cell is refused
TUBE_STRIDE = 4         # tube containment displaces every 4th leaf node (plus the ends)
CONTRACTION_PAIRS = 64  # leaf point pairs sampled by the contraction check
CONTRACTION_ORDERS = 10  # the contraction fit runs up to 10 orders past k0

STRIP_BAND = (0.25, 2.0)  # the uniqueness strip's width * F_j / eps_j outside this flags order j

_PAIR_STREAM = 2


@dataclass
class LeafCurve:
    """Arclength samples (t, p, theta) of one finite-time leaf.

    t runs ascending over the untruncated range; the node at center_index
    is exactly z0. theta is the tangent angle unwrapped mod pi from the
    center outward, so adjacent samples never jump by more than pi/2.
    """

    k: int
    z0: Point2
    eps: float
    h: float
    t: np.ndarray
    xs: np.ndarray
    ys: np.ndarray
    thetas: np.ndarray
    center_index: int
    truncated_neg: bool
    truncated_pos: bool
    grid_points: int

    @property
    def steps_per_cell(self) -> float:
        """RK4 steps per grid cell: N = round(eps / h) steps a side over its cells."""
        return round(self.eps / self.h) / ((self.grid_points - 1) // 2)

    @property
    def length_neg(self) -> float:
        """Arclength reached on the negative side; eps unless that side is truncated."""
        return float(self.t[self.center_index] - self.t[0])

    @property
    def length_pos(self) -> float:
        """Arclength reached on the positive side; eps unless that side is truncated."""
        return float(self.t[-1] - self.t[self.center_index])

    def tangent_lipschitz(self) -> float:
        """Max |d theta / d t| over the grid (Lipschitz estimate of the tangent)."""
        if len(self.t) < 2:
            return 0.0
        dt = np.diff(self.t)
        return float(np.max(np.abs(np.diff(self.thetas)) / dt))


FieldFn = Callable[[float, float, float, float], tuple[float, float]]


@functools.lru_cache(maxsize=64)
def _dense_layout(n_steps: int, n_cells: int) -> tuple:
    """Read-only (step, inner, j, weights) of nodes 1..n_cells of an N = n_steps side.

    Node i lies in step i*N // n_cells; inner marks the nodes inside a step,
    j holds their steps and the rows of weights their h01, h10, h11, g01,
    g10 and g11 (see rk4_streamline).
    """
    step, r = np.divmod(np.arange(1, n_cells + 1) * n_steps, n_cells)
    inner = r > 0
    s, j = r[inner] / n_cells, step[inner]
    h01, h10, h11 = s * s * (3.0 - 2.0 * s), s * (1.0 - s) * (1.0 - s), s * s * (s - 1.0)
    g01, g10, g11 = 6.0 * s * (1.0 - s), (1.0 - s) * (1.0 - 3.0 * s), s * (3.0 * s - 2.0)
    weights = np.array([h01, h10, h11, g01, g10, g11])
    for a in (step, inner, j, weights):
        a.flags.writeable = False
    return step, inner, j, weights


def rk4_streamline(
    fld: FieldFn,
    x0: float,
    y0: float,
    ux0: float,
    uy0: float,
    n_cells: int,
    spacing: float,
    steps_per_cell: float,
) -> tuple[list[float], list[float], list[float], bool]:
    """Trace a unit field one direction for n_cells grid cells of width spacing.

    The trace takes N = round(n_cells * steps_per_cell) RK4 steps, at least
    one, of length h = spacing / steps_per_cell. Returns per-node xs, ys, raw
    tangent angles, and a truncation flag. The field is evaluated with an
    orientation reference so direction fields defined mod pi stay coherent
    along the trace. (ux0, uy0) is the field at (x0, y0) and the first step's
    k1. The tangent at a step end is the k1 of the next step: the same point,
    with the tangent as its own reference. So a step costs 4 field calls.

    Dense output places every grid node, with no field call: node i lies in
    step i*N // n_cells at fraction s = (i*N mod n_cells) / n_cells. A node
    at s = 0 is that step end, position and tangent. Elsewhere, on the step
    from (p0, t0) to (p1, t1), the node is the cubic Hermite
    p0 + h01 (p1 - p0) + h (h10 t0 + h11 t1), and its tangent is parallel to
    the Hermite derivative g01 (p1 - p0) + h (g10 t0 + g11 t1) (E. Hairer,
    S. P. Norsett and G. Wanner, Solving Ordinary Differential Equations I,
    2nd ed., 1993, sec. II.6). A trace truncated mid-step keeps the nodes up
    to its last completed step. _dense_layout caches the layout and weights
    per (N, n_cells).
    """
    n_steps = max(1, round(n_cells * steps_per_cell))
    h = spacing / steps_per_cell
    xs, ys, txs, tys = [x0], [y0], [ux0], [uy0]  # the step ends
    x, y, tx, ty = x0, y0, ux0, uy0
    sixth = h / 6.0
    truncated = False
    for _ in range(n_steps):
        try:
            k2x, k2y = fld(x + 0.5 * h * tx, y + 0.5 * h * ty, tx, ty)
            k3x, k3y = fld(x + 0.5 * h * k2x, y + 0.5 * h * k2y, k2x, k2y)
            k4x, k4y = fld(x + h * k3x, y + h * k3y, k3x, k3y)
            x += sixth * (tx + 2.0 * (k2x + k3x) + k4x)
            y += sixth * (ty + 2.0 * (k2y + k3y) + k4y)
            tx, ty = fld(x, y, k4x, k4y)
        except (ConformalError, OrbitEscapeError):
            truncated = True
            break
        xs.append(x)
        ys.append(y)
        txs.append(tx)
        tys.append(ty)

    # the nodes i with i*N <= (steps completed) * n_cells, a prefix of the layout
    step, inner, j, w = _dense_layout(n_steps, n_cells)
    reached = (len(xs) - 1) * n_cells // n_steps
    q = np.count_nonzero(inner[:reached])
    step, inner, j, (h01, h10, h11, g01, g10, g11) = step[:reached], inner[:reached], j[:q], w[:, :q]
    p, t = np.array([xs, ys]), np.array([txs, tys])
    node_p, node_t = p[:, step], t[:, step]
    dp, t0, t1 = p[:, j + 1] - p[:, j], t[:, j], t[:, j + 1]
    node_p[:, inner] = p[:, j] + h01 * dp + h * (h10 * t0 + h11 * t1)
    node_t[:, inner] = g01 * dp + h * (g10 * t0 + g11 * t1)
    (xs, ys), (txs, tys) = node_p.tolist(), node_t.tolist()
    return xs, ys, [math.atan2(dy, dx) for dx, dy in zip(txs, tys)], truncated


def _leaf_field(m: MapModel, k: int) -> FieldFn:
    def fld(x: float, y: float, rux: float, ruy: float) -> tuple[float, float]:
        th, _, _ = contracted_theta_fast(m, x, y, k)
        ux, uy = math.cos(th), math.sin(th)
        if ux * rux + uy * ruy < 0.0:
            return -ux, -uy
        return ux, uy

    return fld


def _refuse_small_step(h: float, spacing: float, most: int) -> None:
    """BadParamsError where h is not positive or asks for more than most RK4 steps per grid cell of width spacing."""
    if not h > 0.0:  # also NaN
        raise BadParamsError(f"h must be positive, got {h}")
    if not spacing / h <= most:  # also where spacing / h is inf or NaN
        raise BadParamsError(
            f"h={h:.6g} asks for more than {most} RK4 steps per grid cell of width {spacing:.6g}; "
            f"the smallest h allowed is {spacing / most!r}"
        )


def integrate_leaf(
    m: MapModel,
    z: Point2,
    k: int,
    eps: float,
    h: Optional[float] = None,
    grid_points: int = DEFAULT_GRID,
) -> LeafCurve:
    """Integrate the order-k leaf through z to arclength eps on both sides.

    grid_points must be odd (a center node plus symmetric sides). The default
    h is eps/DEFAULT_STEP_DIV; on the default grid that is one RK4 step per 8
    cells. Each side takes N = max(1, round(eps / h)) steps of length eps / N
    (an h = inf takes one), and dense output places every grid node (see
    rk4_streamline). An h that is not positive, or below spacing /
    MAX_STEPS_PER_CELL, raises BadParamsError. A ConformalError or
    OrbitEscapeError at z itself propagates; mid-trace failures truncate the
    corresponding side at its last completed step and set its flag.
    """
    if grid_points < 3 or grid_points % 2 == 0:
        raise BadParamsError(f"grid_points must be odd and >= 3, got {grid_points}")
    if not (eps > 0.0 and math.isfinite(eps)):
        raise BadParamsError(f"eps must be positive and finite, got {eps}")
    zx, zy = float(z[0]), float(z[1])
    n_side = (grid_points - 1) // 2
    spacing = eps / n_side
    if h is None:
        h = eps / DEFAULT_STEP_DIV
    _refuse_small_step(h, spacing, MAX_STEPS_PER_CELL)
    steps_per_cell = max(1, round(eps / h)) / n_side
    h_eff = spacing / steps_per_cell

    th0, _, _ = contracted_theta_fast(m, zx, zy, k)  # raises at z itself
    e0 = (math.cos(th0), math.sin(th0))
    fld = _leaf_field(m, k)

    xs_p, ys_p, th_p, trunc_p = rk4_streamline(fld, zx, zy, e0[0], e0[1], n_side, spacing, steps_per_cell)
    xs_n, ys_n, th_n, trunc_n = rk4_streamline(fld, zx, zy, -e0[0], -e0[1], n_side, spacing, steps_per_cell)

    m_neg = len(xs_n)
    xs = list(reversed(xs_n)) + [zx] + xs_p
    ys = list(reversed(ys_n)) + [zy] + ys_p
    raw = list(reversed(th_n)) + [th0] + th_p
    t = spacing * (np.arange(len(xs)) - m_neg)

    thetas = np.empty(len(raw))
    thetas[m_neg] = th0
    for i in range(m_neg + 1, len(raw)):
        thetas[i] = thetas[i - 1] + _signed_gap(thetas[i - 1], raw[i])
    for i in range(m_neg - 1, -1, -1):
        thetas[i] = thetas[i + 1] + _signed_gap(thetas[i + 1], raw[i])

    return LeafCurve(
        k=k, z0=Point2(zx, zy), eps=eps, h=h_eff,
        t=t, xs=np.array(xs), ys=np.array(ys), thetas=thetas,
        center_index=m_neg, truncated_neg=trunc_n, truncated_pos=trunc_p,
        grid_points=grid_points,
    )


# -- epsilon selection --------------------------------------------------------


def _inside_octagon(a: np.ndarray) -> np.ndarray:
    """The rows of the points a (n, 2) strictly inside the polygon of their extreme points.

    The polygon joins, counter-clockwise, the points of least and greatest
    y, x - y, x and x + y (S. G. Akl and G. T. Toussaint, Inf. Proc. Letters
    7, 1978). Its vertices are points of a, so a point strictly inside it is
    no hull vertex. A row counts as inside only where every edge's cross
    product exceeds 1e-12 times the sum of its two terms' magnitudes, far
    more than the few ulps rounding can move it, so no hull vertex is dropped.
    """
    x, y = a[:, 0], a[:, 1]
    v = a[[np.argmin(y), np.argmax(x - y), np.argmax(x), np.argmax(x + y),
           np.argmax(y), np.argmin(x - y), np.argmin(x), np.argmin(x + y)]]
    e = np.roll(v, -1, axis=0) - v
    edge = (e[:, 0] != 0.0) | (e[:, 1] != 0.0)  # an extreme point shared by two directions has no edge between
    v, e = v[edge], e[edge]
    if len(e) < 3:  # a point or a segment: nothing is inside
        return np.zeros(len(a), dtype=bool)
    with np.errstate(invalid="ignore", over="ignore"):  # a NaN or infinite point drops nothing
        t1 = e[:, 0] * (y[:, None] - v[:, 1])
        t2 = e[:, 1] * (x[:, None] - v[:, 0])
        return np.all(t1 - t2 > 1e-12 * (np.abs(t1) + np.abs(t2)), axis=1)


def convex_hull_halfplanes(points) -> np.ndarray:
    """Edge half-planes [nx, ny, offset] of the convex hull of 2-D points.

    Andrew's monotone chain (A. M. Andrew, Inf. Proc. Letters 9, 1979), with
    unit outward normals: q is inside iff nx*qx + ny*qy + offset <= 0 on every
    row. A set without interior (fewer than 3 distinct points, or all
    collinear) has no rows. The points strictly inside the polygon of their
    extreme points (``_inside_octagon``) are dropped first, and the rest
    become floats once, so the orientation tests do not run on numpy scalars.
    """
    xy = np.asarray(points, dtype=float)
    if len(xy):
        xy = xy[~_inside_octagon(xy)]
    pts = sorted(set(map(tuple, xy.tolist())))

    def turns_left(o, a, p):
        return (a[0] - o[0]) * (p[1] - o[1]) - (a[1] - o[1]) * (p[0] - o[0]) > 0.0

    ring = []  # lower chain, then upper chain: counter-clockwise
    for seq in (pts, pts[::-1]):
        chain = []
        for p in seq:
            while len(chain) >= 2 and not turns_left(chain[-2], chain[-1], p):
                chain.pop()
            chain.append(p)
        ring += chain[:-1]
    if len(ring) < 3:
        return np.empty((0, 3))
    v = np.array(ring)
    e = np.roll(v, -1, axis=0) - v
    n = np.column_stack([e[:, 1], -e[:, 0]]) / np.hypot(e[:, 0], e[:, 1])[:, None]
    return np.column_stack([n, -np.sum(n * v, axis=1)])


def _support_radius(halfplanes: np.ndarray, z) -> float:
    """Half-width of the largest square around z inside the hull to 1e-12; -inf for an empty hull.

    On a row (n, c), the farthest corner z + r*(sign nx, sign ny) is inside where
    r*(|nx| + |ny|) <= 1e-12 - (n.z + c).
    """
    if not len(halfplanes):
        return -math.inf
    nx, ny, c = halfplanes.T
    return float(np.min((1e-12 - (nx * z[0] + ny * z[1] + c)) / (np.abs(nx) + np.abs(ny))))


def choose_epsilon(b: HyperbolicityBudget, gamma: float, L: float) -> float:
    """Largest dyadic eps = eps0 * 2^-m, eps0 the budget schedule's, satisfying the leaf-length constraints.

    Constraints: eps * gamma < 1, exp(eps * L) < 2, and the tube pre-check
    that the square of radius eps + omega_k around z stays inside the hull of
    the stored order-k0 sample for every computed k >= k0: the radius is at
    most the hull's ``_support_radius`` about z. A sample hull without
    interior contains no square, so it rejects every rung. (The
    containment proper is re-tested during the Cauchy iteration.)
    NoFeasibleEpsilonError names the first constraint that the first rung
    fails and the one the last rung fails.
    """
    if b.k0 is None:
        raise NoFeasibleEpsilonError("budget has no k0; hyperbolicity never stabilized")
    k0 = b.k0
    xi_max = float(np.max(b.xi[k0:], initial=0.0))
    k0_sample = np.asarray(b.samples[k0], dtype=float).reshape(-1, 2)
    r_max = _support_radius(convex_hull_halfplanes(np.vstack([k0_sample, [b.z]])), b.z)

    def blocker(eps: float) -> Optional[str]:
        """The first constraint the rung eps fails, or None."""
        if not eps * gamma < 1.0:
            return "eps*gamma < 1"
        if not (eps * L < 1.0 and math.exp(eps * L) < 2.0):  # exp(1) > 2, and exp cannot overflow
            return "exp(eps*L) < 2"
        if not eps + eps * math.exp(eps * L) * xi_max <= r_max:  # an infinite or NaN radius fails too
            return f"the hull pre-check (order-{k0} sample size {len(k0_sample)})"
        return None

    rungs = [b.sched.radius(0) * 2.0 ** -mexp for mexp in range(LADDER_DEPTH + 1)]
    for eps in rungs:
        if blocker(eps) is None:
            return eps
    raise NoFeasibleEpsilonError(
        f"no feasible eps on the dyadic ladder eps0*2^-m, m <= {LADDER_DEPTH} "
        f"(gamma={gamma:.3e}, L={L:.3e}): the first rung eps={rungs[0]:.3e} fails {blocker(rungs[0])}, "
        f"the last rung eps={rungs[-1]:.3e} fails {blocker(rungs[-1])}"
    )


# -- Cauchy iteration in k ----------------------------------------------------


@dataclass
class ConvergenceReport:
    """Per-order leaf distances against the Gronwall envelope eps*xi_k*e^(L*eps).

    integration_error is the step-doubling estimate for the limit leaf: its
    largest node deviation from the same leaf at half the step.
    """

    k0: int
    kmax: int
    eps_chosen: float
    L_used: float
    tol: float
    ks: list[int]
    d_k: np.ndarray
    gronwall_bound: np.ndarray
    tube_ok: list[bool]
    restricted: list[bool]
    integration_error: float
    converged: bool
    limit: LeafCurve


def _leaf_distance(a: LeafCurve, bcurve: LeafCurve) -> tuple[float, int]:
    """Max pointwise distance at matched t over the common grid range, and its node count.

    Fewer than 2 common nodes span no arc, so the distance is +inf.
    """
    lo = -min(a.center_index, bcurve.center_index)
    hi = min(len(a.t) - a.center_index, len(bcurve.t) - bcurve.center_index)
    ia, ib = a.center_index, bcurve.center_index
    sl_a = slice(ia + lo, ia + hi)
    sl_b = slice(ib + lo, ib + hi)
    dx = a.xs[sl_a] - bcurve.xs[sl_b]
    dy = a.ys[sl_a] - bcurve.ys[sl_b]
    if hi - lo < 2:
        return math.inf, hi - lo
    return float(np.max(np.hypot(dx, dy))), hi - lo


def cauchy_iterate(
    m: MapModel,
    b: HyperbolicityBudget,
    eps: float,
    tol: float,
    L: float,
    h: Optional[float] = None,
) -> ConvergenceReport:
    """Integrate leaves through the budget's z for k = k0..b.kmax and verify the Gronwall Cauchy bounds.

    k0 must be below b.kmax. L is the direction-field Lipschitz constant
    of the Gronwall envelope; an L that is negative or NaN, or with
    exp(L*eps) past the float range, raises BadParamsError. Tube
    containment is checked by displacing every TUBE_STRIDE-th grid node
    (plus the endpoints) of the order-k leaf by +/- omega_k along the
    expanded direction and testing membership in the order-(k+1) tube of
    b.sched around the orbit of z that b.cocycle holds. All orders'
    nodes share one tube_exits pass to step kmax - 1, which runs lane by
    lane; order k passes where none of its lanes exits by step k. The run
    converges when the last comparison distance and the integration error
    are both below tol and the limit leaf reaches eps on both sides; else
    NotConvergedError names each failed condition and carries the report.
    h defaults to integrate_leaf's eps/DEFAULT_STEP_DIV. The half-step leaf
    takes exactly twice the limit leaf's N steps a side (eps/32 by default)
    and is compared on every grid node, so the error of the dense output
    counts in the integration error. An h that is not positive, or that asks
    for more than MAX_STEPS_PER_CELL / 2 steps per grid cell, raises
    BadParamsError, since the half-step check leaf takes twice as many.
    """
    if b.k0 is None:
        raise NoFeasibleEpsilonError("budget has no k0")
    k0, kmax = b.k0, b.kmax
    if not k0 < kmax:
        raise BadParamsError(f"kmax={kmax} must exceed k0={k0}")

    try:
        egl = math.exp(L * eps)
    except OverflowError:
        egl = math.inf
    if not (L >= 0.0 and egl < math.inf):
        raise BadParamsError(f"L={L} must be >= 0 with exp(L*eps) finite at eps={eps}")
    if h is not None:
        _refuse_small_step(h, eps / ((DEFAULT_GRID - 1) // 2), MAX_STEPS_PER_CELL // 2)
    leaves = {k: integrate_leaf(m, b.z, k, eps, h=h) for k in range(k0, kmax + 1)}

    ks = list(range(k0, kmax))
    d_k = np.empty(len(ks))
    bounds = np.empty(len(ks))
    restricted = []
    dxs, dys = [], []  # the displaced nodes of every order
    for i, k in enumerate(ks):
        d, shared = _leaf_distance(leaves[k], leaves[k + 1])
        d_k[i] = d
        restricted.append(shared < DEFAULT_GRID)
        bounds[i] = eps * float(b.xi[k]) * egl

        leafk = leaves[k]
        nodes = sorted(set(range(0, len(leafk.t), TUBE_STRIDE)) | {0, len(leafk.t) - 1})
        thetas = leafk.thetas[nodes].tolist()
        fx = np.array([-math.sin(th) for th in thetas])
        fy = np.array([math.cos(th) for th in thetas])
        px, py = leafk.xs[nodes], leafk.ys[nodes]
        sw = np.array([bounds[i], -bounds[i]])[:, None]  # s * omega for s = +1, -1
        with np.errstate(invalid="ignore", over="ignore"):  # omega may be +inf: inf and nan, as floats give
            dxs.append((px + sw * fx).ravel())
            dys.append((py + sw * fy).ravel())
    exits = tube_exits(m, b.cocycle.orbit, np.concatenate(dxs), np.concatenate(dys), b.sched, kmax - 1)
    per_order = np.split(exits, np.cumsum([len(a) for a in dxs[:-1]]))
    tube_ok = [not np.any((e >= 0) & (e <= k)) for k, e in zip(ks, per_order)]

    # step doubling: the limit leaf again at half its step; a node the finer
    # leaf does not reach has no error estimate, so the error is then +inf
    limit = leaves[kmax]
    dev, reached = _leaf_distance(limit, integrate_leaf(m, b.z, kmax, eps, h=limit.h / 2))
    integration_error = dev if reached == len(limit.t) else math.inf

    failed = []
    if not d_k[-1] < tol:
        why = f": order-{kmax - 1}/{kmax} leaves share {shared} of {DEFAULT_GRID} nodes" if shared < 2 else ""
        failed.append(f"leaf distances d_k not below tolerance by k={kmax} (last d_k={d_k[-1]:.3e}){why}")
    if not integration_error < tol:
        short = f" (the half-step leaf reaches {reached} of {len(limit.t)} nodes)" if reached < len(limit.t) else ""
        failed.append(f"the order-{kmax} leaf's integration error {integration_error:.3e} "
                      f"at h={limit.h:.3e} is not below tol={tol:.3e}{short}")
    for side, truncated, length in (("negative", limit.truncated_neg, limit.length_neg),
                                    ("positive", limit.truncated_pos, limit.length_pos)):
        if truncated:
            failed.append(f"the order-{kmax} leaf is truncated on the {side} side at length {length:.6e} "
                          f"of eps={eps:.6e}")
    report = ConvergenceReport(
        k0=k0, kmax=kmax, eps_chosen=eps, L_used=L, tol=tol,
        ks=ks, d_k=d_k, gronwall_bound=bounds, tube_ok=tube_ok, restricted=restricted,
        integration_error=integration_error, converged=not failed, limit=limit,
    )
    if failed:
        raise NotConvergedError("; ".join(failed), report)
    return report


# -- contraction along the limit leaf -----------------------------------------


@dataclass
class ContractionReport:
    n: int
    max_ratio: np.ndarray        # per order, max over sampled pairs
    widest_ratio: np.ndarray     # per order, ratio of the widest sampled pair
    gamma_tilde: np.ndarray      # budget envelope per order
    C_fit: float
    seed: int


def contraction_check(
    m: MapModel,
    leaf: LeafCurve,
    b: HyperbolicityBudget,
    n: int,
    seed: int,
) -> ContractionReport:
    """Forward-image distance ratios of leaf point pairs against gamma_tilde.

    For each of CONTRACTION_PAIRS sampled pairs (t1, t2) the ratio
    |phi^n'(z_t1) - phi^n'(z_t2)| / |z_t1 - z_t2| is recorded for n' = 0..n;
    C_fit is the max over n' >= max(k0, 1) of max_ratio / gamma_tilde. The
    widest pair's ratio sequence is kept separately: rate fits use it because
    round-off injected along the orbit amplifies in the expanded direction and
    floors the ratios of narrowly separated pairs first. Pairs with coincident
    ends are skipped. All pair ends step together as lanes under eval_xy's
    checks; if one fails, eval_xy raises where a pair-by-pair loop would.
    """
    if not 0 <= n <= b.kmax:
        raise BadParamsError(f"n={n} is outside the budget range 0..kmax={b.kmax}")
    rng = SplitRng(seed).substream(_PAIR_STREAM)
    npts = len(leaf.t)
    if npts < 2:
        raise DegenerateLeafError("leaf has fewer than 2 grid points")
    ends, d0 = [], []
    for _ in range(CONTRACTION_PAIRS):
        i = rng.randint(npts)
        j = rng.randint(npts)
        while j == i:
            j = rng.randint(npts)
        d = math.hypot(leaf.xs[i] - leaf.xs[j], leaf.ys[i] - leaf.ys[j])
        if d != 0.0:
            ends.append((i, j))
            d0.append(d)
    # x[0] holds the first ends, x[1] the second; pairs past a failing one are dropped
    ends = np.array(ends, dtype=int).reshape(-1, 2).T
    x, y, d0 = leaf.xs[ends], leaf.ys[ends], np.array(d0)
    live = len(d0)
    ratio = np.ones((n + 1, live))
    failure = None
    for step in range(1, n + 1):
        with np.errstate(over="ignore", invalid="ignore"):
            fx, fy, ok = m.eval_lanes(x.ravel(), y.ravel())
        ok = ok.reshape(2, live)
        bad = np.flatnonzero(~(ok[0] & ok[1]))
        if len(bad):  # the lowest failing pair, its first end first
            live, end = int(bad[0]), int(ok[0, bad[0]])
            failure = (x[end, live], y[end, live])
        x, y = fx.reshape(2, -1)[:, :live], fy.reshape(2, -1)[:, :live]
        dist = [math.hypot(a, c) for a, c in zip((x[0] - x[1]).tolist(), (y[0] - y[1]).tolist())]
        ratio[step, :live] = np.array(dist) / d0[:live]
    if failure is not None:
        m.eval_xy(*failure)  # raises
        raise NonFiniteError(f"map '{m.name}' failed on arrays but not on floats at {failure}")
    max_ratio = np.max(ratio, axis=1, initial=0.0)
    widest_ratio = ratio[:, np.argmax(d0)].copy() if live else np.zeros(n + 1)
    gt = b.gamma_tilde[: n + 1].copy()
    start = b.k0 or 1
    cfit = 0.0
    for order in range(start, n + 1):
        if gt[order] > 0.0:
            cfit = max(cfit, max_ratio[order] / gt[order])
    return ContractionReport(
        n=n, max_ratio=max_ratio, widest_ratio=widest_ratio, gamma_tilde=gt, C_fit=cfit, seed=seed,
    )


# -- uniqueness ---------------------------------------------------------------


@dataclass
class UniquenessReport:
    """Conclusion (4): the width of the strip around the leaf whose points pass the tube tests.

    on_leaf_exits counts the leaf nodes that leave the tubes by kmax. For
    j = 0..kmax, width[j] is the largest rung w of the ladder eps0 * 2^-m such
    that every rung up to w, off every node along the normal on both sides,
    passes j tests (0 where none does), and ratio[j] = width[j] * F_j / eps_j,
    near 1 and read up to a factor 2 low. outside_band lists the j whose
    ratio is outside STRIP_BAND.
    """

    on_leaf_exits: int
    width: np.ndarray
    ratio: np.ndarray
    outside_band: list[int]


def uniqueness_probe(m: MapModel, b: HyperbolicityBudget, leaf: LeafCurve) -> UniquenessReport:
    """The strip around the leaf whose points stay in the budget's tubes, from one tube_exits pass to kmax.

    Every 8th leaf node is offset by 0 and by +/- eps0 * 2^-m along its unit
    normal (-sin theta, cos theta), m = 0..ceil(log2 F_kmax) + 2, so the
    smallest rung lies below eps0 / F_kmax. A lane passes j tests where it
    does not exit by step j. See UniquenessReport.
    """
    kmax, F = b.kmax, b.cocycle.F
    rungs = b.sched.radius(0) * 2.0 ** -np.arange(math.ceil(math.log2(F[kmax])) + 3)
    nx, ny = np.array([(-math.sin(th), math.cos(th)) for th in leaf.thetas[::8].tolist()]).T
    off = np.concatenate([[0.0], rungs, -rungs])[:, None]
    exits = tube_exits(m, b.cocycle.orbit, (leaf.xs[::8] + off * nx).ravel(), (leaf.ys[::8] + off * ny).ravel(),
                       b.sched, kmax).reshape(len(off), len(nx))
    # per rung, the first exit step over its lanes (kmax + 1 for none), then over it and every smaller
    # rung: all those lanes pass j tests where that step exceeds j
    first = np.where(exits[1:] < 0, kmax + 1, exits[1:]).reshape(2, len(rungs), len(nx)).min(axis=(0, 2))
    reach = np.minimum.accumulate(first[::-1])[::-1]
    width = np.append(rungs, 0.0)[np.searchsorted(reach, np.arange(kmax + 1), side="right")]
    ratio = width * F / np.array([b.sched.radius(j) for j in range(kmax + 1)])
    return UniquenessReport(
        on_leaf_exits=int(np.sum(exits[0] >= 0)), width=width, ratio=ratio,
        outside_band=[j for j, r in enumerate(ratio.tolist()) if not STRIP_BAND[0] <= r <= STRIP_BAND[1]],
    )


# -- the staged pipeline ------------------------------------------------------


def staged(name: str, fn, *args, **kw):
    """fn(*args, **kw), tagging a NumericalError that names no stage yet with name."""
    try:
        return fn(*args, **kw)
    except NumericalError as exc:
        if exc.stage is None:
            exc.stage = name
        raise


def budget_to_epsilon(
    m: MapModel, z: Point2, sched: EpsilonSchedule, kmax: int, n: int, seed: int
) -> tuple[HyperbolicityBudget, float, float, float]:
    """Stages budget -> (**) -> L -> eps at z; returns (budget, Gamma, L, eps).

    L is measured on the budget's own order-kmax cocycle at z.
    """
    b = staged("budget", estimate_budget, m, z, sched, kmax, n=n, seed=seed)
    gamma = staged("double-star", check_condition_double_star, b, b.sched).gamma_required
    L = staged("direction-derivative", direction_field_derivative, m, b.cocycle, b.kmax)[0]
    eps = staged("choose-epsilon", choose_epsilon, b, gamma, L)
    return b, gamma, L, eps


def iterate_to_contraction(
    m: MapModel, b: HyperbolicityBudget, eps: float, L: float, tol: float, seed: int,
    h: Optional[float] = None,
) -> tuple[ConvergenceReport, ContractionReport]:
    """Stages Cauchy iteration -> contraction on the limit leaf, at the budget's z up to its kmax.

    The contraction fit runs up to CONTRACTION_ORDERS past k0, at most kmax.
    A NotConvergedError carries the partial ConvergenceReport.
    """
    conv = staged("cauchy-iterate", cauchy_iterate, m, b, eps, tol, L=L, h=h)
    n = min(b.kmax, b.k0 + CONTRACTION_ORDERS)
    return conv, staged("contraction", contraction_check, m, conv.limit, b, n=n, seed=seed)
