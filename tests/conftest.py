import math

import pytest

from stableleaf import EpsilonSchedule, Point2, build_orbit_cocycle, make_map
from stableleaf.budget import sample_sweep
from stableleaf.cocycle import norm2
from stableleaf.errors import DomainError, NonFiniteError, OrbitEscapeError


@pytest.fixture
def linear_map():
    return make_map("linear", lambda_s=0.5, lambda_u=2.0)


@pytest.fixture
def perturbed_map():
    return make_map("perturbed", lambda_s=0.5, lambda_u=2.0, c=0.05)


@pytest.fixture
def henon_map():
    return make_map("henon", a=1.4, b=0.3)


def sweep_min_angle(a11, a12, a21, a22, n_grid=4096):
    """Dense-sweep oracle: angle in [0, pi) minimizing ||M v(theta)||.

    Coarse grid over [0, pi) followed by one parabolic vertex step on the
    bracketing samples. The objective is c + A*cos(2(theta-theta*)), so the
    three-point vertex is accurate to O(grid_step^3); independent of the
    closed-form direction code.
    """
    def norm2(t):
        c, s = math.cos(t), math.sin(t)
        return (a11 * c + a12 * s) ** 2 + (a21 * c + a22 * s) ** 2

    step = math.pi / n_grid
    best_i = min(range(n_grid), key=lambda i: norm2(i * step))
    t0 = best_i * step
    fm, f0, fp = norm2(t0 - step), norm2(t0), norm2(t0 + step)
    denom = fm - 2.0 * f0 + fp
    if denom > 0.0:
        t0 += 0.5 * step * (fm - fp) / denom
    return t0 % math.pi


def reference_orbit(m, z, nsteps):
    """The orbit z, phi(z), ..., phi^nsteps(z) from checked eval_xy calls; OrbitEscapeError(j, z_j) if phi fails at z_j.

    The scalar reference of the orbit that build_orbit_cocycle keeps, which
    the package's tube tests read.
    """
    pts = [Point2(float(z[0]), float(z[1]))]
    x, y = pts[0]
    for j in range(nsteps):
        try:
            x, y = m.eval_xy(x, y)
        except (DomainError, NonFiniteError):
            raise OrbitEscapeError(j, Point2(x, y))
        pts.append(Point2(x, y))
    return pts


def ref_first_tube_exit(m, ref_orbit, x, sched, jmax):
    """The scalar reference of budget.tube_exits for one point: first iterate j <= jmax violating the tube test, or None.

    j=0 uses the sup-norm box of radius eps_0 (the sampler's box); j >= 1 uses
    norm2, the Euclidean norm. A domain escape at iterate j counts as an exit at j.
    """
    px, py = float(x[0]), float(x[1])
    rx, ry = ref_orbit[0]
    if max(abs(px - rx), abs(py - ry)) > sched.radius(0):
        return 0
    for j in range(1, jmax + 1):
        try:
            px, py = m.eval_xy(px, py)
        except (DomainError, NonFiniteError):
            return j
        rx, ry = ref_orbit[j]
        if norm2(px - rx, py - ry) > sched.radius(j):
            return j
    return None


def centre_lane(m, z, kmax):
    """The package's own (d1, d2, tail norms F_{j,k}) at z for each order k it reaches.

    They are read from the draw -1 lane of ``sample_sweep`` with no box
    draws, which the budget and the growth check fold, as {k: (d1, d2, tails)}.
    """
    out = {}
    for o in sample_sweep(m, build_orbit_cocycle(m, z, kmax), EpsilonSchedule.constant(0.1), 0, 0):
        assert o.draw.tolist() == [-1]
        out[o.k] = (float(o.d1[0]), float(o.d2[0]), o.tails[:, 0].tolist())
    return out
