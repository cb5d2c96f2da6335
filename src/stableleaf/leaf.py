"""Finite-time stable leaves: integration, convergence, contraction, uniqueness.

A leaf of order k through z is the integral curve of the unit most-contracted
direction field of the k-step derivative, parametrized by arclength on a
uniform t-grid over [-eps, eps]. Integration is classical fixed-step RK4,
N = round(eps/h) steps a side (default h = eps/16, so N = 16 on the default
257-node grid), with orientation continuity enforced by sign-flipping the
field against the previous tangent; dense output places every grid node,
from the cubic Hermite on the step ends' positions and tangents, or the step
end itself where a node falls on one. The Cauchy leaves of every order are
traced at eps/2 from the angles at z in the budget's cocycle, in one node
pass (_trace_leaves), and consecutive orders are compared at matched
arclength on the shared grid. The Cauchy iteration traces the last order
again at h, a grid row, and at h/2, the reported limit leaf, and takes the
pair's largest deviation over all nodes as the integration error; the last
Cauchy leaf's deviation from the h leaf is its step error.

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
from .cocycle import norm2_lanes
from .directions import _signed_gap, contracted_direction, contracted_theta_fast, direction_field_derivative
from .errors import (
    BadParamsError,
    ConformalError,
    DegenerateLeafError,
    NoFeasibleEpsilonError,
    NonFiniteError,
    NotConvergedError,
    NumericalError,
    OrbitEscapeError,
    SingularStepError,
)
from .maps import MapModel, Point2

DEFAULT_GRID = 257
DEFAULT_STEP_DIV = 16  # default h = eps / 16: one RK4 step per 8 cells of the default grid
MAX_STEPS_PER_CELL = 64  # an h asking for more RK4 steps per grid cell is refused
TUBE_STRIDE = 4         # tube containment displaces every 4th leaf node (plus the ends)
NODE_STRIDE = 8         # contraction and uniqueness read every 8th leaf node (contraction also the last)
CONTRACTION_ORDERS = 10  # the contraction fit runs up to 10 orders past k0

PRECHECK_GRID = 33      # choose_epsilon's tube pre-check tests a 33 x 33 grid over each rung's square
STRIP_BAND = (0.25, 2.0)  # the uniqueness strip's width * F_j / eps_j outside this flags order j


@dataclass
class LeafCurve:
    """Arclength samples (t, p, theta) of one finite-time leaf.

    t runs ascending over the untruncated range; the node at center_index is
    exactly the point z traced through. theta is the tangent angle unwrapped
    mod pi from the center outward, so adjacent samples never jump by more than pi/2.
    """

    k: int
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
    g10 and g11 (see _place_nodes).
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


def _rk4_steps(fld: FieldFn, x0: float, y0: float, ux0: float, uy0: float, n_steps: int, h: float) -> tuple:
    """The step ends (x, y, tx, ty) of n_steps RK4 steps of length h from (x0, y0), and a truncation flag.

    (ux0, uy0) is the field at (x0, y0) and the first step's k1. The tangent
    at a step end is the k1 of the next step: the same point, with the
    tangent as its own reference. So a step costs 4 field calls. A
    ConformalError, OrbitEscapeError or SingularStepError ends the trace at
    its last completed step and sets the flag.
    """
    ends = [(x0, y0, ux0, uy0)]
    x, y, tx, ty = x0, y0, ux0, uy0
    sixth = h / 6.0
    for _ in range(n_steps):
        try:
            k2x, k2y = fld(x + 0.5 * h * tx, y + 0.5 * h * ty, tx, ty)
            k3x, k3y = fld(x + 0.5 * h * k2x, y + 0.5 * h * k2y, k2x, k2y)
            k4x, k4y = fld(x + h * k3x, y + h * k3y, k3x, k3y)
            x += sixth * (tx + 2.0 * (k2x + k3x) + k4x)
            y += sixth * (ty + 2.0 * (k2y + k3y) + k4y)
            tx, ty = fld(x, y, k4x, k4y)
        except (ConformalError, OrbitEscapeError, SingularStepError):
            return ends, True
        ends.append((x, y, tx, ty))
    return ends, False


def _place_nodes(sides: list, n_steps: int, n_cells: int, h: float) -> tuple[np.ndarray, list[int]]:
    """Nodes 1..n_cells of several sides of N = n_steps steps of length h, placed in one array pass.

    sides holds each side's step ends from _rk4_steps. Node i lies in step
    i*N // n_cells at fraction s = (i*N mod n_cells) / n_cells. A node at
    s = 0 is that step end, position and tangent. Elsewhere, on the step from
    (p0, t0) to (p1, t1), the node is the cubic Hermite
    p0 + h01 (p1 - p0) + h (h10 t0 + h11 t1), and its tangent is parallel to
    the Hermite derivative g01 (p1 - p0) + h (g10 t0 + g11 t1) (E. Hairer,
    S. P. Norsett and G. Wanner, Solving Ordinary Differential Equations I,
    2nd ed., 1993, sec. II.6). The step ends go into one (coord, side, step)
    array, a truncated side padded with NaN past its last step end, and the
    rows of _dense_layout run once on all sides. Returns the (coord, side,
    node) array of x, y, tx and ty, and each side's reached prefix,
    (steps done) * n_cells // N nodes, none of which reads a padded entry.
    """
    step, inner, j, (h01, h10, h11, g01, g10, g11) = _dense_layout(n_steps, n_cells)
    pad = [(math.nan,) * 4]
    a = np.array([ends + pad * (n_steps + 1 - len(ends)) for ends in sides]).transpose(2, 0, 1)
    nodes, a0, a1 = a.take(step, axis=2), a.take(j, axis=2), a.take(j + 1, axis=2)
    dp, t0, t1 = a1[:2] - a0[:2], a0[2:], a1[2:]
    nodes[:2, :, inner] = a0[:2] + h01 * dp + h * (h10 * t0 + h11 * t1)
    nodes[2:, :, inner] = g01 * dp + h * (g10 * t0 + g11 * t1)
    return nodes, [(len(ends) - 1) * n_cells // n_steps for ends in sides]


def rk4_streamline(
    fld: FieldFn, x0: float, y0: float, ux0: float, uy0: float, n_cells: int, spacing: float, steps_per_cell: float,
) -> tuple[list[float], list[float], list[float], bool]:
    """Trace a unit field one direction for n_cells grid cells of width spacing: one side of integrate_leaf.

    The trace takes N = round(n_cells * steps_per_cell) RK4 steps, at least
    one, of length h = spacing / steps_per_cell (_rk4_steps), and dense
    output places every grid node with no field call (_place_nodes). Returns
    per-node xs, ys, raw tangent angles, and a truncation flag; a trace
    truncated mid-step keeps the nodes up to its last completed step. The
    field is evaluated with an orientation reference so direction fields
    defined mod pi stay coherent along the trace.
    """
    n_steps = max(1, round(n_cells * steps_per_cell))
    h = spacing / steps_per_cell
    ends, truncated = _rk4_steps(fld, x0, y0, ux0, uy0, n_steps, h)
    nodes, (reached,) = _place_nodes([ends], n_steps, n_cells, h)
    xs, ys, txs, tys = nodes[:, 0, :reached].tolist()
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


def _unwrap(th: float, raw: list[float]) -> list[float]:
    """raw unwrapped mod pi: each angle moved by a multiple of pi to within pi/2 of the result before it, th first."""
    out = []
    for r in raw:
        th += _signed_gap(th, r)
        out.append(th)
    return out


def _trace_leaves(m: MapModel, z: Point2, leaves, eps: float, h: Optional[float], grid_points: int) -> tuple:
    """The order-k leaf through z for each (k, theta0) of leaves, all at one step h, in one node pass.

    Checks grid_points, eps and h and sets each side's N steps as
    integrate_leaf says. Leaf by leaf, the positive and the negative side's
    _rk4_steps run from z along +/- (cos theta0, sin theta0); one _place_nodes
    call places every side's nodes. Returns (h_eff, grid, reach, truncated):
    grid is the (coord, leaf, node) array of x, y, tx and ty over the
    grid_points nodes, z with tangent (cos theta0, sin theta0) at the centre
    and NaN past a side's reach, reach the (leaf, side) array of the nodes
    each side reached and truncated its flags, positive side first.
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
    n_steps = max(1, round(eps / h))
    h_eff = spacing / (n_steps / n_side)

    centre, sides, truncated = [], [], []
    for k, th0 in leaves:
        ux, uy = math.cos(th0), math.sin(th0)
        fld = _leaf_field(m, k)
        for u in ((ux, uy), (-ux, -uy)):
            ends, cut = _rk4_steps(fld, zx, zy, *u, n_steps, h_eff)
            sides.append(ends)
            truncated.append(cut)
        centre.append((zx, zy, ux, uy))
    nodes, reached = _place_nodes(sides, n_steps, n_side, h_eff)
    grid = np.empty((4, len(centre), grid_points))
    grid[:, :, n_side] = np.array(centre).T
    grid[:, :, n_side + 1:] = nodes[:, 0::2]
    grid[:, :, :n_side] = nodes[:, 1::2, ::-1]
    return h_eff, grid, np.array(reached).reshape(-1, 2), np.array(truncated).reshape(-1, 2)


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
    (an h = inf takes one), and one _place_nodes pass places every grid node
    of both sides (_trace_leaves for the one order k, from theta0 at z by one
    contracted_theta_fast walk). theta takes math.atan2 of the node tangents,
    not np.arctan2, whose SIMD loops may round apart from libm, and is
    unwrapped outward from the center on floats. A ConformalError,
    OrbitEscapeError or SingularStepError at z itself propagates first; then
    an h that is not positive, or below spacing / MAX_STEPS_PER_CELL, raises
    BadParamsError. Mid-trace errors truncate the corresponding side at its
    last completed step and set its flag.
    """
    th0 = contracted_theta_fast(m, float(z[0]), float(z[1]), k)[0]  # raises at z itself
    h_eff, grid, reach, truncated = _trace_leaves(m, z, [(k, th0)], eps, h, grid_points)
    (r_p, r_n), (trunc_p, trunc_n), c = reach[0].tolist(), truncated[0].tolist(), (grid_points - 1) // 2
    xs, ys, tx, ty = grid[:, 0, c - r_n:c + r_p + 1]
    raw = [math.atan2(dy, dx) for dx, dy in zip(tx.tolist(), ty.tolist())]
    thetas = _unwrap(th0, raw[:r_n][::-1])[::-1] + [th0] + _unwrap(th0, raw[r_n + 1:])  # outward from the centre
    return LeafCurve(
        k=k, eps=eps, h=h_eff, t=eps / c * (np.arange(len(thetas)) - r_n),
        xs=xs, ys=ys, thetas=np.array(thetas), center_index=r_n, truncated_neg=trunc_n, truncated_pos=trunc_p,
        grid_points=grid_points,
    )


# -- epsilon selection --------------------------------------------------------


def choose_epsilon(m: MapModel, b: HyperbolicityBudget, gamma: float, L: float) -> float:
    """Largest dyadic eps = eps0 * 2^-m, eps0 the budget schedule's, satisfying the leaf-length constraints.

    Constraints: eps * gamma < 1, exp(eps * L) < 2, and the tube pre-check:
    the square of half-width r = eps + eps * exp(eps * L) * xi_max about z,
    xi_max the largest xi_k for k >= k0, lies in N^(k0), that is, no point of
    a PRECHECK_GRID x PRECHECK_GRID grid over it, corners and edges included,
    leaves b.sched's tubes about z's orbit by step k0 - 1 (one tube_exits
    pass). An infinite or NaN r fails it. (The containment proper is
    re-tested during the Cauchy iteration.) NoFeasibleEpsilonError names the
    first constraint that the first rung fails and the one the last rung
    fails; for the pre-check, the first grid point that exits and its step.
    """
    if b.k0 is None:
        raise NoFeasibleEpsilonError("budget has no k0; hyperbolicity never stabilized")
    k0 = b.k0
    xi_max = float(np.max(b.xi[k0:], initial=0.0))
    unit = np.linspace(-1.0, 1.0, PRECHECK_GRID)
    gx, gy = np.tile(unit, PRECHECK_GRID), np.repeat(unit, PRECHECK_GRID)  # row by row, from (-1, -1)

    def blocker(eps: float) -> Optional[str]:
        """The first constraint the rung eps fails, or None."""
        if not eps * gamma < 1.0:
            return "eps*gamma < 1"
        if not (eps * L < 1.0 and math.exp(eps * L) < 2.0):  # exp(1) > 2, and exp cannot overflow
            return "exp(eps*L) < 2"
        r = eps + eps * math.exp(eps * L) * xi_max
        if not math.isfinite(r):
            return f"the tube pre-check (the square's half-width is {r})"
        x, y = b.cocycle.z0[0] + r * gx, b.cocycle.z0[1] + r * gy
        exits = tube_exits(m, b.cocycle.orbit, x, y, b.sched, k0 - 1)
        i = int(np.argmax(exits >= 0))  # the first point that exits, or 0 where none does
        if exits[i] >= 0:
            return (f"the tube pre-check (the point ({x[i]:.6g}, {y[i]:.6g}) of the square of half-width "
                    f"{r:.3e} about z exits at step {exits[i]})")
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

    d_k compares the Cauchy leaves, all at eps/2. limit is the order-kmax leaf
    at h/2, and integration_error is the step-doubling estimate: its largest
    node deviation from the order-kmax partner leaf at h. That estimates the
    partner's error and bounds the limit leaf's from above. cauchy_step_error
    is the order-kmax Cauchy leaf's largest node deviation from the partner,
    the RK4 error that d_k relies on cancelling between orders; no verdict
    reads it.
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
    cauchy_step_error: float
    converged: bool
    limit: LeafCurve


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
    exp(L*eps) past the float range, raises BadParamsError. The Cauchy
    leaves are one _trace_leaves call from the angles contracted_direction
    reads in b.cocycle, and their checks are array passes over its (coord,
    order, node) array. Tube containment is checked by
    displacing every TUBE_STRIDE-th node from the order-k leaf's first (plus
    its last) by +/- omega_k along the unit normal of its tangent, the
    expanded direction, and testing membership in the order-(k+1) tube of
    b.sched around the orbit of z that b.cocycle holds. All orders'
    nodes share one tube_exits pass to step kmax - 1, which runs lane by
    lane; order k passes where none of its lanes exits by step k. d_k, the
    step error and the integration error come from one distance pass over
    every leaf's nodes on the grid, each leaf against the next. The run
    converges when the last comparison distance and the integration error
    are both below tol and the limit leaf reaches eps on both sides; else
    NotConvergedError names each failed condition and carries the report.
    The Cauchy leaves run at eps/2, N = 2 steps a side: consecutive orders
    carry nearly the same RK4 error, which cancels in d_k. A Cauchy leaf
    steps over an obstacle narrower than its stage spacing, so only the limit
    leaf's truncation counts. The step-doubling pair is the order-kmax
    partner leaf at h, default 2 * eps / DEFAULT_STEP_DIV, a _trace_leaves
    row, and the limit leaf, the pair's more accurate leaf (local
    extrapolation; Hairer, Norsett and Wanner, Solving ODEs I, sec. II.4),
    at twice the partner's N steps a side, by default integrate_leaf's
    default leaf; the pair is compared on every grid node, so the error of
    the dense output counts in the integration error. An h that is not
    positive, or that asks for more than MAX_STEPS_PER_CELL / 2 steps per
    grid cell, raises BadParamsError, since the limit leaf takes twice as many.
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
    if h is None:
        h = 2.0 * eps / DEFAULT_STEP_DIV
    c = (DEFAULT_GRID - 1) // 2  # the centre node
    _refuse_small_step(h, eps / c, MAX_STEPS_PER_CELL // 2)
    z = b.cocycle.z0
    leaves = [(k, contracted_direction(b.cocycle, k)) for k in range(k0, kmax + 1)]
    _, grid, reach, _ = _trace_leaves(m, z, leaves, eps, eps / 2, DEFAULT_GRID)
    ks = list(range(k0, kmax))
    bounds = np.array([eps * float(b.xi[k]) * egl for k in ks])

    # the tube nodes of order k: every TUBE_STRIDE-th node from its leaf's first, and its last, each
    # displaced by +/- omega_k along the unit normal of its tangent
    j, pos, neg = np.arange(-c, c + 1), reach[:-1, :1], reach[:-1, 1:]
    order, node = np.nonzero(((j + neg) % TUBE_STRIDE == 0) & (j >= -neg) & (j <= pos) | (j == pos))
    px, py, tx, ty = grid[:, order, node]
    sw = np.array([1.0, -1.0])[:, None] * bounds[order]  # s * omega for s = +1, -1
    with np.errstate(invalid="ignore", over="ignore"):  # omega may be +inf: inf and nan, as floats give
        norm = np.hypot(tx, ty)
        dx, dy = (px - sw * (ty / norm)).ravel(), (py + sw * (tx / norm)).ravel()
    exits = tube_exits(m, b.cocycle.orbit, dx, dy, b.sched, kmax - 1).reshape(2, -1)
    out = np.any((exits >= 0) & (exits <= np.array(ks)[order]), axis=0)
    tube_ok = (np.bincount(order[out], minlength=len(ks)) == 0).tolist()

    # step doubling: the order-kmax partner leaf at h, a grid row, and at half its step the limit leaf
    h_eff, partner, _, _ = _trace_leaves(m, z, leaves[-1:], eps, h, DEFAULT_GRID)
    limit = integrate_leaf(m, z, kmax, eps, h=h_eff / 2)

    # every leaf's positions on the grid, NaN past its reach: the Cauchy leaves, then the partner and the
    # limit leaf. Rows i and i + 1 share the nodes where neither is NaN; fewer than 2 span no arc, so
    # their distance is +inf, and a node of the limit leaf that the partner does not reach has no error
    # estimate, so the integration error is then +inf
    xy = np.full((2, len(ks) + 3, DEFAULT_GRID), math.nan)
    xy[:, :-2], xy[:, -2] = grid[:2], partner[:2, 0]
    xy[:, -1, c - limit.center_index:c - limit.center_index + len(limit.t)] = limit.xs, limit.ys
    dist = np.hypot(*np.diff(xy, axis=1))
    shared = np.count_nonzero(~np.isnan(dist), axis=1)
    dist = np.where(shared < 2, math.inf, np.fmax.reduce(dist, axis=1))
    d_k, restricted, (cauchy_step_error, dev) = dist[:-2], (shared[:-2] < DEFAULT_GRID).tolist(), dist[-2:].tolist()
    shared, reached = shared[[-3, -1]].tolist()
    integration_error = dev if reached == len(limit.t) else math.inf

    failed = []
    if not d_k[-1] < tol:
        why = f": order-{kmax - 1}/{kmax} leaves share {shared} of {DEFAULT_GRID} nodes" if shared < 2 else ""
        failed.append(f"leaf distances d_k not below tolerance by k={kmax} (last d_k={d_k[-1]:.3e}){why}")
    if not integration_error < tol:
        short = f" (the h leaf reaches {reached} of {len(limit.t)} nodes)" if reached < len(limit.t) else ""
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
        integration_error=integration_error, cauchy_step_error=cauchy_step_error, converged=not failed, limit=limit,
    )
    if failed:
        raise NotConvergedError("; ".join(failed), report)
    return report


# -- contraction along the limit leaf -----------------------------------------


@dataclass
class ContractionReport:
    """Forward-image distance ratios along the limit leaf for orders 0..n; the envelope is the budget's gamma_tilde."""

    max_ratio: np.ndarray        # per order, max over the node pairs
    widest_ratio: np.ndarray     # per order, ratio of the widest node pair
    C_fit: float


def contraction_check(
    m: MapModel,
    leaf: LeafCurve,
    b: HyperbolicityBudget,
    n: int,
) -> ContractionReport:
    """Forward-image distance ratios of pairs of leaf nodes against the budget's gamma_tilde.

    The nodes are every NODE_STRIDE-th leaf node plus the last. For every pair
    (i < j) of them, in node order, the ratio |phi^n'(z_i) - phi^n'(z_j)| /
    |z_i - z_j| is recorded for n' = 0..n, with distances from norm2_lanes; pairs
    of coincident nodes, or of nodes whose distance is past the float range, are
    skipped. C_fit is the max over n' >= max(k0, 1) of max_ratio / gamma_tilde.
    The widest pair's ratio sequence (the first of a tie) is kept separately:
    rate fits use it because round-off injected along the orbit amplifies in the
    expanded direction and floors the ratios of narrowly separated pairs first.
    The nodes step together as lanes; at the first step where one fails, eval_xy
    raises on the first failing node. The stepping and the distances run in one
    np.errstate: a difference or a square past the float range is +inf, as in
    Python floats, with no warning.
    """
    if not 0 <= n <= b.kmax:
        raise BadParamsError(f"n={n} is outside the budget range 0..kmax={b.kmax}")
    npts = len(leaf.t)
    if npts < 2:
        raise DegenerateLeafError("leaf has fewer than 2 grid points")
    nodes = [*range(0, npts - 1, NODE_STRIDE), npts - 1]
    x, y = leaf.xs[nodes], leaf.ys[nodes]
    xs, ys = [x], [y]
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(n):
            x, y, ok = m.eval_lanes(x, y)
            if not ok.all():
                at = int(np.argmin(ok))
                failure = (float(xs[-1][at]), float(ys[-1][at]))
                m.eval_xy(*failure)  # raises
                raise NonFiniteError(f"map '{m.name}' failed on arrays but not on floats at {failure}")
            xs.append(x)
            ys.append(y)
        i, j = np.triu_indices(len(nodes), 1)
        xs, ys = np.array(xs), np.array(ys)
        dist = norm2_lanes((xs[:, i] - xs[:, j]).ravel(), (ys[:, i] - ys[:, j]).ravel()).reshape(n + 1, -1)
        live = (dist[0] != 0.0) & np.isfinite(dist[0])
        ratio = dist[:, live] / dist[0, live]
    max_ratio = np.max(ratio, axis=1, initial=0.0)
    widest_ratio = ratio[:, np.argmax(dist[0, live])] if ratio.size else np.zeros(n + 1)
    cfit = 0.0
    for order in range(b.k0 or 1, n + 1):
        if b.gamma_tilde[order] > 0.0:
            cfit = max(cfit, max_ratio[order] / b.gamma_tilde[order])
    return ContractionReport(max_ratio=max_ratio, widest_ratio=widest_ratio, C_fit=cfit)


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

    Every NODE_STRIDE-th leaf node is offset by 0 and by +/- eps0 * 2^-m along its unit
    normal (-sin theta, cos theta), m = 0..ceil(log2 F_kmax) + 2, so the
    smallest rung lies below eps0 / F_kmax. A lane passes j tests where it
    does not exit by step j. See UniquenessReport.
    """
    kmax, F = b.kmax, b.cocycle.F
    rungs = b.sched.radius(0) * 2.0 ** -np.arange(math.ceil(math.log2(F[kmax])) + 3)
    nodes = slice(None, None, NODE_STRIDE)
    nx, ny = np.array([(-math.sin(th), math.cos(th)) for th in leaf.thetas[nodes].tolist()]).T
    off = np.concatenate([[0.0], rungs, -rungs])[:, None]
    exits = tube_exits(m, b.cocycle.orbit, (leaf.xs[nodes] + off * nx).ravel(), (leaf.ys[nodes] + off * ny).ravel(),
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
    eps = staged("choose-epsilon", choose_epsilon, m, b, gamma, L)
    return b, gamma, L, eps


def iterate_to_contraction(
    m: MapModel, b: HyperbolicityBudget, eps: float, L: float, tol: float, h: Optional[float] = None,
) -> tuple[ConvergenceReport, ContractionReport]:
    """Stages Cauchy iteration -> contraction on the limit leaf, at the budget's z up to its kmax.

    The contraction fit runs up to CONTRACTION_ORDERS past k0, at most kmax.
    A NotConvergedError carries the partial ConvergenceReport.
    """
    conv = staged("cauchy-iterate", cauchy_iterate, m, b, eps, tol, L=L, h=h)
    n = min(b.kmax, b.k0 + CONTRACTION_ORDERS)
    return conv, staged("contraction", contraction_check, m, conv.limit, b, n=n)
