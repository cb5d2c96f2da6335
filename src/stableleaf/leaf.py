"""Finite-time stable leaves: integration, convergence, contraction, uniqueness.

A leaf of order k through z is the integral curve of the unit most-contracted
direction field of the k-step derivative, parametrized by arclength on a
uniform t-grid over [-eps, eps]. Integration is classical fixed-step RK4
(default h = eps/512) with orientation continuity enforced by sign-flipping
the field against the previous tangent; leaves of consecutive orders are
compared at matched arclength on a shared grid.

budget_to_epsilon and iterate_to_contraction run the pipeline stages in
order, each through staged(), which names the stage a NumericalError came from.
"""

from __future__ import annotations

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
    first_tube_exit,
    reference_orbit,
)
from .directions import _signed_gap, contracted_theta_fast, field_lipschitz
from .errors import (
    BadParamsError,
    ConformalError,
    DegenerateLeafError,
    NoFeasibleEpsilonError,
    NotConvergedError,
    NumericalError,
    OrbitEscapeError,
)
from .maps import MapModel, Point2
from .rng import SplitRng

DEFAULT_GRID = 257
DEFAULT_STEP_DIV = 512  # default h = eps / 512
TUBE_STRIDE = 4         # tube containment displaces every 4th leaf node (plus the ends)
CONTRACTION_PAIRS = 64  # leaf point pairs sampled by the contraction check
CONTRACTION_ORDERS = 10  # the contraction fit runs up to 10 orders past k0

_PAIR_STREAM = 2
_PROBE_STREAM = 3


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

    def tangent_lipschitz(self) -> float:
        """Max |d theta / d t| over the grid (Lipschitz estimate of the tangent)."""
        if len(self.t) < 2:
            return 0.0
        dt = np.diff(self.t)
        return float(np.max(np.abs(np.diff(self.thetas)) / dt))


FieldFn = Callable[[float, float, float, float], tuple[float, float]]


def rk4_streamline(
    fld: FieldFn,
    x0: float,
    y0: float,
    ux0: float,
    uy0: float,
    n_cells: int,
    spacing: float,
    steps_per_cell: int,
) -> tuple[list[float], list[float], list[float], bool]:
    """Trace a unit field one direction for n_cells grid cells of width spacing.

    Returns per-node xs, ys, raw tangent angles, and a truncation flag. The
    field is evaluated with an orientation reference so direction fields
    defined mod pi stay coherent along the trace.
    """
    h = spacing / steps_per_cell
    xs: list[float] = []
    ys: list[float] = []
    ths: list[float] = []
    x, y = x0, y0
    ux, uy = ux0, uy0
    sixth = h / 6.0
    for _ in range(n_cells):
        for _ in range(steps_per_cell):
            try:
                k1x, k1y = fld(x, y, ux, uy)
                k2x, k2y = fld(x + 0.5 * h * k1x, y + 0.5 * h * k1y, k1x, k1y)
                k3x, k3y = fld(x + 0.5 * h * k2x, y + 0.5 * h * k2y, k2x, k2y)
                k4x, k4y = fld(x + h * k3x, y + h * k3y, k3x, k3y)
            except (ConformalError, OrbitEscapeError):
                return xs, ys, ths, True
            x += sixth * (k1x + 2.0 * (k2x + k3x) + k4x)
            y += sixth * (k1y + 2.0 * (k2y + k3y) + k4y)
            ux, uy = k4x, k4y
        try:
            tx, ty = fld(x, y, ux, uy)
        except (ConformalError, OrbitEscapeError):
            return xs, ys, ths, True
        ux, uy = tx, ty
        xs.append(x)
        ys.append(y)
        ths.append(math.atan2(ty, tx))
    return xs, ys, ths, False


def _leaf_field(m: MapModel, k: int) -> FieldFn:
    def fld(x: float, y: float, rux: float, ruy: float) -> tuple[float, float]:
        th, _, _ = contracted_theta_fast(m, x, y, k)
        ux, uy = math.cos(th), math.sin(th)
        if ux * rux + uy * ruy < 0.0:
            return -ux, -uy
        return ux, uy

    return fld


def integrate_leaf(
    m: MapModel,
    z: Point2,
    k: int,
    eps: float,
    h: Optional[float] = None,
    grid_points: int = DEFAULT_GRID,
) -> LeafCurve:
    """Integrate the order-k leaf through z to arclength eps on both sides.

    grid_points must be odd (a center node plus symmetric sides). h is snapped
    to an integer number of steps per grid cell, at least one, so steps never
    straddle recording nodes. A ConformalError or OrbitEscapeError at z itself
    propagates; mid-trace failures truncate the corresponding side and set its
    flag.
    """
    if grid_points < 3 or grid_points % 2 == 0:
        raise BadParamsError(f"grid_points must be odd and >= 3, got {grid_points}")
    if eps <= 0.0:
        raise BadParamsError(f"eps must be positive, got {eps}")
    zx, zy = float(z[0]), float(z[1])
    n_side = (grid_points - 1) // 2
    spacing = eps / n_side
    if h is None:
        h = eps / DEFAULT_STEP_DIV
    steps_per_cell = max(1, round(spacing / h))
    h_eff = spacing / steps_per_cell

    th0, _, _ = contracted_theta_fast(m, zx, zy, k)  # raises at z itself
    e0 = (math.cos(th0), math.sin(th0))
    fld = _leaf_field(m, k)

    xs_p, ys_p, th_p, trunc_p = rk4_streamline(fld, zx, zy, e0[0], e0[1], n_side, spacing, steps_per_cell)
    xs_n, ys_n, th_n, trunc_n = rk4_streamline(fld, zx, zy, -e0[0], -e0[1], n_side, spacing, steps_per_cell)

    m_neg, m_pos = len(xs_n), len(xs_p)
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


def convex_hull_halfplanes(points) -> np.ndarray:
    """Edge half-planes [nx, ny, offset] of the convex hull of 2-D points.

    Andrew's monotone chain (A. M. Andrew, Inf. Proc. Letters 9, 1979), with
    unit outward normals: q is inside iff nx*qx + ny*qy + offset <= 0 on every
    row. A set without interior (fewer than 3 distinct points, or all
    collinear) has no rows.
    """
    pts = sorted(set(map(tuple, points)))

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


def hull_contains(halfplanes: np.ndarray, queries) -> bool:
    """All queries inside the hull given by its half-planes, to 1e-12; False for an empty hull."""
    q = np.asarray(queries, dtype=float)
    side = q[:, :1] * halfplanes[:, 0] + q[:, 1:] * halfplanes[:, 1] + halfplanes[:, 2]
    return len(halfplanes) > 0 and not np.any(side > 1e-12)


def choose_epsilon(
    b: HyperbolicityBudget,
    gamma: float,
    L: float,
    sched: EpsilonSchedule,
) -> float:
    """Largest dyadic eps = eps0 * 2^-m satisfying the leaf-length constraints.

    Constraints: eps * gamma < 1, exp(eps * L) < 2, and the tube pre-check
    that the square of radius eps + omega_k around z stays inside the hull of
    the stored order-k0 sample for every computed k >= k0. A sample hull
    without interior contains no square, so it rejects every rung. Budgets
    without stored samples skip the pre-check (the containment proper is
    re-tested during the Cauchy iteration). NoFeasibleEpsilonError names the
    first constraint that the first rung fails and the one the last rung fails.
    """
    if b.k0 is None:
        raise NoFeasibleEpsilonError("budget has no k0; hyperbolicity never stabilized")
    k0 = b.k0
    xi_tail = b.xi[k0:] if k0 < len(b.xi) else np.array([0.0])
    xi_max = float(np.max(xi_tail))
    k0_sample = list(b.samples.get(k0, [])) if b.samples else []
    hull = convex_hull_halfplanes(k0_sample + [b.z]) if k0_sample else None
    zx, zy = b.z

    def blocker(eps: float) -> Optional[str]:
        """The first constraint the rung eps fails, or None."""
        if not eps * gamma < 1.0:
            return "eps*gamma < 1"
        if not (eps * L < 1.0 and math.exp(eps * L) < 2.0):  # exp(1) > 2, and exp cannot overflow
            return "exp(eps*L) < 2"
        if hull is not None:
            r = eps + eps * math.exp(eps * L) * xi_max
            corners = [(zx - r, zy - r), (zx - r, zy + r), (zx + r, zy - r), (zx + r, zy + r)]
            if not hull_contains(hull, corners):
                return f"the hull pre-check (order-{k0} sample size {len(k0_sample)})"
        return None

    rungs = [sched.radius(0) * 2.0 ** -mexp for mexp in range(LADDER_DEPTH + 1)]
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
    """Per-order leaf distances against the Gronwall envelope eps*xi_k*e^(L*eps)."""

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
    z: Point2,
    b: HyperbolicityBudget,
    sched: EpsilonSchedule,
    eps: float,
    kmax: int,
    tol: float,
    L: float,
    h: Optional[float] = None,
) -> ConvergenceReport:
    """Integrate leaves for k = k0..kmax and verify the Gronwall Cauchy bounds.

    L is the direction-field Lipschitz constant of the Gronwall envelope.
    Tube containment is checked by displacing every TUBE_STRIDE-th grid node
    (plus the endpoints) of the order-k leaf by +/- omega_k along the expanded
    direction and testing membership in the order-(k+1) orbit tube. Raises
    NotConvergedError (carrying the partial report) when the last comparison
    distance is not below tol.
    """
    if b.k0 is None:
        raise NoFeasibleEpsilonError("budget has no k0")
    k0 = b.k0
    if kmax <= k0:
        raise BadParamsError(f"kmax={kmax} must exceed k0={k0}")

    leaves = {k: integrate_leaf(m, z, k, eps, h=h) for k in range(k0, kmax + 1)}

    ref = reference_orbit(m, z, kmax - 1)
    ks = list(range(k0, kmax))
    d_k = np.empty(len(ks))
    bounds = np.empty(len(ks))
    restricted = []
    tube_ok = []
    egl = math.exp(L * eps)
    for i, k in enumerate(ks):
        d, shared = _leaf_distance(leaves[k], leaves[k + 1])
        d_k[i] = d
        restricted.append(shared < DEFAULT_GRID)
        xi_k = float(b.xi[k]) if k < len(b.xi) else math.inf
        bounds[i] = eps * xi_k * egl

        leafk = leaves[k]
        omega = bounds[i]
        ok = True
        idxs = set(range(0, len(leafk.t), TUBE_STRIDE)) | {0, len(leafk.t) - 1}
        for idx in sorted(idxs):
            fx, fy = -math.sin(leafk.thetas[idx]), math.cos(leafk.thetas[idx])
            px, py = leafk.xs[idx], leafk.ys[idx]
            for s in (1.0, -1.0):
                disp = Point2(px + s * omega * fx, py + s * omega * fy)
                if first_tube_exit(m, ref, disp, sched, k) is not None:
                    ok = False
                    break
            if not ok:
                break
        tube_ok.append(ok)

    converged = bool(d_k[-1] < tol)
    report = ConvergenceReport(
        k0=k0, kmax=kmax, eps_chosen=eps, L_used=L, tol=tol,
        ks=ks, d_k=d_k, gronwall_bound=bounds,
        tube_ok=tube_ok, restricted=restricted, converged=converged, limit=leaves[kmax],
    )
    if not converged:
        why = f"order-{kmax - 1}/{kmax} leaves share {shared} of {DEFAULT_GRID} nodes" if shared < 2 else ""
        raise NotConvergedError(kmax, float(d_k[-1]), report=report, why=why)
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
    floors the ratios of narrowly separated pairs first.
    """
    if n > b.kmax:
        raise BadParamsError(f"n={n} exceeds the budget range kmax={b.kmax}")
    rng = SplitRng(seed).substream(_PAIR_STREAM)
    npts = len(leaf.t)
    if npts < 2:
        raise DegenerateLeafError("leaf has fewer than 2 grid points")
    max_ratio = np.zeros(n + 1)
    widest_ratio = np.zeros(n + 1)
    widest_d0 = 0.0
    ev = m.eval_xy
    for _ in range(CONTRACTION_PAIRS):
        i = rng.randint(npts)
        j = rng.randint(npts)
        while j == i:
            j = rng.randint(npts)
        ax, ay = leaf.xs[i], leaf.ys[i]
        bx, by = leaf.xs[j], leaf.ys[j]
        d0 = math.hypot(ax - bx, ay - by)
        if d0 == 0.0:
            continue
        track = np.empty(n + 1)
        track[0] = 1.0
        for step in range(1, n + 1):
            ax, ay = ev(ax, ay)
            bx, by = ev(bx, by)
            track[step] = math.hypot(ax - bx, ay - by) / d0
        np.maximum(max_ratio, track, out=max_ratio)
        if d0 > widest_d0:
            widest_d0 = d0
            widest_ratio = track
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


@dataclass(frozen=True)
class ProbeRecord:
    point: Point2
    distance_to_leaf: float
    exit_step: Optional[int]


@dataclass
class UniquenessReport:
    kmax: int
    probes: list[ProbeRecord]
    on_leaf_checked: int
    on_leaf_exits: int
    survivors: int


def uniqueness_probe(
    m: MapModel,
    z: Point2,
    sched: EpsilonSchedule,
    leaf: LeafCurve,
    kmax: int,
    probes: int,
    seed: int,
) -> UniquenessReport:
    """Probe points of the eps0 box for their first orbit-tube exit index.

    Points off the leaf should exit by a finite step (the expanded direction
    grows); leaf grid points themselves should survive all kmax tests up to
    integration error. Distances to the leaf are measured against the grid
    polyline vertices.
    """
    ref = reference_orbit(m, z, kmax)
    rng = SplitRng(seed).substream(_PROBE_STREAM)
    zx, zy = float(z[0]), float(z[1])
    r0 = sched.radius(0)
    records: list[ProbeRecord] = []
    survivors = 0
    for _ in range(probes):
        p = Point2(*rng.point_in_box(zx, zy, r0))
        exit_step = first_tube_exit(m, ref, p, sched, kmax)
        d = float(np.min(np.hypot(leaf.xs - p[0], leaf.ys - p[1])))
        if exit_step is None:
            survivors += 1
        records.append(ProbeRecord(point=p, distance_to_leaf=d, exit_step=exit_step))
    on_exits = 0
    checked = 0
    for idx in range(0, len(leaf.t), 8):
        checked += 1
        pt = Point2(float(leaf.xs[idx]), float(leaf.ys[idx]))
        if first_tube_exit(m, ref, pt, sched, kmax) is not None:
            on_exits += 1
    return UniquenessReport(
        kmax=kmax, probes=records, on_leaf_checked=checked, on_leaf_exits=on_exits,
        survivors=survivors,
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
    gamma = staged("double-star", check_condition_double_star, b, sched).gamma_required
    L = staged("direction-derivative", field_lipschitz, m, b.cocycle, kmax)
    eps = staged("choose-epsilon", choose_epsilon, b, gamma, L, sched)
    return b, gamma, L, eps


def iterate_to_contraction(
    m: MapModel, z: Point2, b: HyperbolicityBudget, sched: EpsilonSchedule, eps: float, L: float,
    kmax: int, tol: float, seed: int, h: Optional[float] = None,
) -> tuple[ConvergenceReport, ContractionReport]:
    """Stages Cauchy iteration -> contraction on the limit leaf.

    The contraction fit runs up to CONTRACTION_ORDERS past k0, at most kmax.
    A NotConvergedError carries the partial ConvergenceReport.
    """
    conv = staged("cauchy-iterate", cauchy_iterate, m, z, b, sched, eps, kmax, tol, L=L, h=h)
    n = min(kmax, b.k0 + CONTRACTION_ORDERS)
    return conv, staged("contraction", contraction_check, m, conv.limit, b, n=n, seed=seed)
