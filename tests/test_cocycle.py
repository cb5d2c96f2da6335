import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stableleaf import Mat2, Point2, SplitRng, build_orbit_cocycle, make_map, singular_frame
from stableleaf.cocycle import _frame, norm2, norm2_lanes, singular_values, singular_values_lanes
from stableleaf.directions import _contracted_theta
from stableleaf.errors import ConformalError, NumericalError, OrbitEscapeError, SingularMatrixError, SingularStepError
from stableleaf.maps import MapModel

from conftest import centre_lane, sweep_min_angle
import frame_reference
from frame_reference import errors_against_exact, in_declared_region, mat_mul


def random_mat(rng, cond_floor=1e-3):
    """Rotation * diag(1, h) * rotation * scale: condition 1/h, never conformal."""
    a = rng.uniform(0, math.pi)
    b = rng.uniform(0, math.pi)
    h = math.exp(rng.uniform(math.log(1e-6), math.log(1.0 - cond_floor)))
    s = math.exp(rng.uniform(math.log(1e-3), math.log(1e3)))
    ca, sa, cb, sb = math.cos(a), math.sin(a), math.cos(b), math.sin(b)
    return Mat2(
        s * (ca * cb - sa * h * sb),
        s * (-ca * sb - sa * h * cb),
        s * (sa * cb + ca * h * sb),
        s * (-sa * sb + ca * h * cb),
    )


def test_build_linear_powers(linear_map):
    c = build_orbit_cocycle(linear_map, Point2(0.3, 0.1), 3)
    assert c.products[3] == (0.125, 0.0, 0.0, 8.0)
    assert c.E[3] == 0.125 and c.F[3] == 8.0 and c.H[3] == 1.0 / 64.0


def test_build_henon_product(henon_map):
    c = build_orbit_cocycle(henon_map, Point2(0, 0), 2)
    assert c.products[2] == (0.3, -2.8, 0.0, 0.3)
    # product recursion
    for k in (1, 2):
        assert c.products[k] == mat_mul(Mat2(*henon_map.jac(*c.orbit[k - 1])), c.products[k - 1])


def test_tail_norms_empty_product(henon_map, linear_map):
    for m in (henon_map, linear_map):
        lane = centre_lane(m, Point2(0.1, 0.05), 5)
        assert sorted(lane) == [1, 2, 3, 4, 5]
        for k in range(1, 6):
            assert lane[k][2][k - 1] == 1.0


def test_singular_frame_examples():
    fr = singular_frame(Mat2(0.5, 0.0, 0.0, 2.0))
    assert fr.E == 0.5 and fr.F == 2.0 and fr.theta_contract == 0.0

    fr = singular_frame(Mat2(2.0, 1.0, 0.0, 1.0))
    # E^2, F^2 are the roots of x^2 - 6x + 4
    assert fr.E == pytest.approx(math.sqrt(3.0 - math.sqrt(5.0)), rel=1e-12)
    assert fr.F == pytest.approx(math.sqrt(3.0 + math.sqrt(5.0)), rel=1e-12)
    th = sweep_min_angle(2.0, 1.0, 0.0, 1.0)
    assert fr.theta_contract == pytest.approx(th, abs=1e-9)
    assert fr.theta_contract == pytest.approx(2.1243706856919418, abs=1e-10)

    rot = Mat2(math.cos(0.3), -math.sin(0.3), math.sin(0.3), math.cos(0.3))
    with pytest.raises(ConformalError):
        singular_frame(rot)
    with pytest.raises(SingularMatrixError):
        singular_frame(Mat2(1.0, 2.0, 0.5, 1.0))


def test_frame_identities_random():
    rng = SplitRng(99)
    for _ in range(500):
        m = random_mat(rng)
        fr = singular_frame(m)
        a, b, c, d = m
        qa, qb, qc, qd = fr.quad
        lhs = 4 * qa * qa + qb * qb
        rhs = (fr.E ** 2 - fr.F ** 2) ** 2
        assert lhs == pytest.approx(rhs, rel=1e-8)
        assert 4 * qc * qc + qd * qd == pytest.approx(rhs, rel=1e-8)
        # eigen-sum / product identities; the product identity cancels
        # catastrophically for ill-conditioned matrices, so compare on the
        # F^4 scale of the uncancelled terms
        assert fr.F ** 2 + fr.E ** 2 == pytest.approx(a * a + b * b + c * c + d * d, rel=1e-10)
        prod = (a * a + b * b) * (c * c + d * d) - (a * c + b * d) ** 2
        assert abs((fr.E * fr.F) ** 2 - prod) <= 1e-10 * fr.F ** 4
        # theta_expand orthogonal to theta_contract
        assert fr.theta_expand == pytest.approx((fr.theta_contract + math.pi / 2) % math.pi, abs=1e-12)


def test_adjugate_identity(henon_map):
    c = build_orbit_cocycle(henon_map, Point2(0.1, 0.0), 6)
    for k in range(1, 7):
        mk = c.products[k]
        det = mk.a11 * mk.a22 - mk.a12 * mk.a21
        # inverse entries from the cofactor layout, checked against M * adj = det * I
        adj = Mat2(mk.a22, -mk.a12, -mk.a21, mk.a11)
        prod = mat_mul(mk, adj)
        assert prod.a11 == pytest.approx(det, rel=1e-10)
        assert prod.a22 == pytest.approx(det, rel=1e-10)
        assert abs(prod.a12) <= 1e-10 * abs(det)
        assert abs(prod.a21) <= 1e-10 * abs(det)


def test_ef_product_is_det(linear_map, henon_map, perturbed_map):
    for m, z in ((linear_map, Point2(0.2, 0.05)), (henon_map, Point2(0.1, 0.0)), (perturbed_map, Point2(0.02, 0.01))):
        c = build_orbit_cocycle(m, z, 6)
        for k in range(1, 7):
            a, b, cc, d = c.products[k]
            assert c.E[k] * c.F[k] == pytest.approx(abs(a * d - b * cc), rel=1e-12)
            assert 0.0 < c.E[k] <= c.F[k]
            assert c.H[k] <= 1.0


def test_minidistortion_sandwich(linear_map, henon_map, perturbed_map):
    slack = 1.0 + 1e-12
    for m, z in ((linear_map, Point2(0.2, 0.01)), (henon_map, Point2(0.05, 0.02)), (perturbed_map, Point2(0.03, -0.005))):
        c = build_orbit_cocycle(m, z, 8)
        for k in range(8):
            pk, qk = c.P[k], c.Q[k]
            for ratio in (c.E[k + 1] / c.E[k], c.F[k + 1] / c.F[k]):
                assert 1.0 / (qk * slack) <= ratio <= pk * slack
            rh = c.H[k + 1] / c.H[k]
            assert 1.0 / (pk * qk * slack) <= rh <= pk * qk * slack


def test_distortion_bounds_examples(linear_map, henon_map):
    lane = centre_lane(linear_map, Point2(0.4, -0.1), 5)
    for k in range(1, 6):
        assert lane[k][:2] == (0.0, 0.0)

    ch = build_orbit_cocycle(henon_map, Point2(0, 0), 2)
    lane = centre_lane(henon_map, Point2(0, 0), 2)
    d1_1 = lane[1][0]
    # single-term sum: (E_1/F_1^2) * Pt_0, with F_{0,1} = F_0 = 1 and Pt_0 = 2 * |d^2 phi_1/dx^2| = 4a
    assert d1_1 == pytest.approx(ch.E[1] / ch.F[1] ** 2 * 4.0 * 1.4, rel=1e-14)
    d1_2, d2_2, _ = lane[2]
    assert d1_2 > 0.0
    assert d2_2 == 0.0  # det of the henon derivative is constant


def fd_second_tensor(m, x, y, k, h):
    """Second partials of phi^k by central differences on the raw map."""
    def phik(px, py):
        for _ in range(k):
            px, py = m.raw_eval(px, py)
        return px, py

    f0 = phik(x, y)
    fxp, fxm = phik(x + h, y), phik(x - h, y)
    fyp, fym = phik(x, y + h), phik(x, y - h)
    fpp, fpm = phik(x + h, y + h), phik(x + h, y - h)
    fmp, fmm = phik(x - h, y + h), phik(x - h, y - h)
    ih2 = 1.0 / (h * h)
    out = np.empty((2, 2, 2))
    for i in range(2):
        out[i, 0, 0] = (fxp[i] - 2 * f0[i] + fxm[i]) * ih2
        out[i, 1, 1] = (fyp[i] - 2 * f0[i] + fym[i]) * ih2
        mixed = (fpp[i] - fpm[i] - fmp[i] + fmm[i]) * 0.25 * ih2
        out[i, 0, 1] = out[i, 1, 0] = mixed
    return out


def probe_bilinear_norm(t, n_angles=256):
    """Lower bound of sup ||T(u, v)|| over unit u, v by a dense angle grid."""
    th = np.linspace(0.0, math.pi, n_angles, endpoint=False)
    u = np.stack([np.cos(th), np.sin(th)])
    tu = np.einsum("ijk,ja->iak", t, u)
    tuv = np.einsum("iak,kb->iab", tu, u)
    return float(np.sqrt((tuv ** 2).sum(axis=0)).max())


def fd_det_gradient(m, x, y, k, h):
    def detk(px, py):
        d = 1.0
        for _ in range(k):
            j = m.raw_jac(px, py)
            d *= j[0] * j[3] - j[1] * j[2]
            px, py = m.raw_eval(px, py)
        return d

    gx = (detk(x + h, y) - detk(x - h, y)) / (2 * h)
    gy = (detk(x, y + h) - detk(x, y - h)) / (2 * h)
    return math.hypot(gx, gy)


@pytest.mark.parametrize("map_name", ["henon", "perturbed", "linear"])
def test_distortion_inequalities_fd(map_name, henon_map, perturbed_map, linear_map):
    m = {"henon": henon_map, "perturbed": perturbed_map, "linear": linear_map}[map_name]
    z = {"henon": Point2(0.2, 0.1), "perturbed": Point2(0.3, -0.01), "linear": Point2(0.5, 0.01)}[map_name]
    c = build_orbit_cocycle(m, z, 8)
    lane = centre_lane(m, z, 8)
    slack = 1.0 + 1e-3
    for k in range(1, 9):
        d1, d2, _ = lane[k]
        t = fd_second_tensor(m, z.x, z.y, k, 1e-4)
        lhs1 = c.H[k] * probe_bilinear_norm(t) / c.F[k]
        assert lhs1 <= d1 * slack + 1e-12
        lhs2 = fd_det_gradient(m, z.x, z.y, k, 1e-4) / c.F[k] ** 2
        assert lhs2 <= d2 * slack + 1e-12


def test_orbit_escape_and_singular_step(henon_map):
    with pytest.raises(OrbitEscapeError) as exc:
        build_orbit_cocycle(henon_map, Point2(3.0, 3.0), 8)
    assert exc.value.step >= 1

    pinch = MapModel(
        name="pinch",
        params={},
        raw_eval=lambda x, y: (x * x / 2.0, y),
        raw_jac=lambda x, y: (x, 0.0, 0.0, 1.0),  # singular at x = 0
        raw_hess=lambda x, y: (1.0, 0.0, 0.0, 0.0, 0.0, 0.0),
        raw_det_grad=lambda x, y: (1.0, 0.0),
    )
    with pytest.raises(SingularStepError):
        build_orbit_cocycle(pinch, Point2(0.0, 0.5), 2)


def test_product_underflow_is_a_singular_step():
    # the squared entries of Dphi^2 = diag(1e-260, 4e-260) are far below the
    # float range, but the product is scaled up and keeps its exact E and F
    m = make_map("linear", lambda_s=1e-130, lambda_u=2e-130)
    c = build_orbit_cocycle(m, Point2(0.0, 0.0), 2)
    assert (c.E[2], c.F[2], c.H[2]) == (1e-130 * 1e-130, 2e-130 * 2e-130, 0.25)
    assert singular_values((1e-170, 0.0, 0.0, 2e-170)) == (1e-170, 2e-170)
    # Dphi^2 = diag(1e-400, 1e-400) rounds to the zero matrix itself
    tiny = make_map("linear", lambda_s=1e-200, lambda_u=1e-200)
    with pytest.raises(SingularStepError, match="order-2 product Dphi\\^2 underflows to zero"):
        build_orbit_cocycle(tiny, Point2(0.0, 0.0), 2)


def test_product_overflow_is_a_singular_step():
    # the step diag(0.5, 1e200) has finite singular values although its
    # squared entries overflow; Dphi^2 = diag(0.25, 1e400) overflows itself
    m = make_map("linear", lambda_s=0.5, lambda_u=1e200)
    c = build_orbit_cocycle(m, Point2(0.0, 0.0), 1)
    assert (c.E[1], c.F[1], c.P[0], c.Q[0]) == (0.5, 1e200, 1e200, 2.0)
    with pytest.raises(SingularStepError, match="order-2 product Dphi\\^2 overflows"):
        build_orbit_cocycle(m, Point2(0.0, 0.0), 2)


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 63))
def test_singular_values_match_numpy(seed):
    m = random_mat(SplitRng(seed))
    e, f = singular_values(m)
    sv = np.linalg.svd(np.array([[m.a11, m.a12], [m.a21, m.a22]]), compute_uv=False)
    assert f == pytest.approx(sv[0], rel=1e-10)
    assert e == pytest.approx(sv[1], rel=1e-8)
    # scaled by 2^600 the squared entries overflow: E and F scale exactly, the angle stays
    big = Mat2(*(math.ldexp(v, 600) for v in m))
    assert singular_values(big) == (math.ldexp(e, 600), math.ldexp(f, 600))
    assert _frame(*big)[2] == _frame(*m)[2]
    # scaled by 2^-600 the squared entries underflow: the same holds
    small = Mat2(*(math.ldexp(v, -600) for v in m))
    assert singular_values(small) == (math.ldexp(e, -600), math.ldexp(f, -600))
    assert _frame(*small)[2] == _frame(*m)[2]


def norm2_pairs():
    """About 10^5 pairs (x, y): every exponent, subnormals, 0, +-inf, NaN, 2^+-500 and the largest float."""
    rng = np.random.default_rng(12)
    n = 66_000
    # exponents -1100..1023: below -1074 ldexp gives 0, below -1022 a subnormal
    x = np.ldexp(rng.uniform(1.0, 2.0, n), rng.integers(-1100, 1024, n)) * rng.choice([-1.0, 1.0], n)
    y = np.ldexp(rng.uniform(1.0, 2.0, n), rng.integers(-1100, 1024, n)) * rng.choice([-1.0, 1.0], n)
    # pairs of nearby scales, where neither square is negligible
    near = x[: n // 2] * np.ldexp(rng.uniform(0.0, 1.0, n // 2), rng.integers(-30, 1, n // 2))
    tiny = math.ulp(0.0)
    big = sys.float_info.max
    edges = [0.0, -0.0, math.inf, -math.inf, math.nan, tiny, -tiny, 2 ** -1022, big, -big, 1.0]
    for e in (-500, 500):
        edges += [2.0 ** e, math.nextafter(2.0 ** e, 0.0), math.nextafter(2.0 ** e, math.inf), -(2.0 ** e)]
    ex, ey = (np.array(v) for v in zip(*[(a, b) for a in edges for b in edges]))
    return np.concatenate([x, x[: n // 2], ex]), np.concatenate([y, near, ey])


def same_bits(u, v):
    return (u == v) & (np.signbit(u) == np.signbit(v)) | (np.isnan(u) & np.isnan(v))


def test_norm2_lanes_match_norm2():
    x, y = norm2_pairs()
    with np.errstate(all="raise"):  # the lanes compute under their own errstate
        lanes = norm2_lanes(x, y)
    scalar = np.array([norm2(a, b) for a, b in zip(x.tolist(), y.tolist())])
    assert np.all(same_bits(lanes, scalar))


def test_norm2_against_math_hypot():
    x, y = norm2_pairs()
    got = np.array([norm2(a, b) for a, b in zip(x.tolist(), y.tolist())])
    want = np.array([math.hypot(a, b) for a, b in zip(x.tolist(), y.tolist())])
    normal = np.isfinite(want) & (want >= 2 ** -1022)
    assert normal.sum() > 50_000
    assert np.all(np.abs(got[normal].view(np.int64) - want[normal].view(np.int64)) <= 1)
    # 0, +-inf and NaN as math.hypot gives them
    special = ~(np.isfinite(x) & np.isfinite(y)) | (x == 0.0) & (y == 0.0)
    assert special.sum() > 100
    assert np.all(same_bits(got[special], want[special]))
    # past the float range: +inf, not OverflowError
    big = sys.float_info.max
    assert norm2(big, big) == math.inf and norm2(-big, big / 2.0) == math.inf
    assert norm2_lanes(np.array([big]), np.array([big])).tolist() == [math.inf]


def test_norm2_of_an_axis_vector_is_exact():
    # so the linear oracle's R = |B'| stays exact
    x, _ = norm2_pairs()
    x = x[np.isfinite(x)]
    for v in x.tolist():
        assert norm2(v, 0.0) == norm2(0.0, v) == norm2(-0.0, v) == abs(v)
    zero = np.zeros(len(x))
    assert np.array_equal(norm2_lanes(x, zero), np.abs(x)) and np.array_equal(norm2_lanes(zero, x), np.abs(x))


def frame_matrices():
    """About 1.2 * 10^5 matrices: every exponent, entries of nearby scales, the
    edges of the _frame window, and +-0, subnormals, +-inf, NaN and the largest
    float in random places."""
    rng = np.random.default_rng(13)
    n = 30_000

    def entries(ex):
        return np.ldexp(rng.uniform(1.0, 2.0, ex.shape), ex) * rng.choice([-1.0, 1.0], ex.shape)

    spread = entries(rng.integers(-1100, 1024, (n, 4)))
    near = entries(rng.integers(-1100, 1024, (n, 1)) - rng.integers(0, 4, (n, 4)))
    # largest entries around 2^-511 and 2^509; half the entries up to 2^-59 smaller
    edge = rng.choice(np.r_[-516:-504, 505:513], (n, 1))
    edges = entries(edge - rng.integers(0, 60, (n, 4)) * (rng.random((n, 4)) < 0.5))
    special = entries(rng.integers(-1100, 1024, (n, 4)))
    big = sys.float_info.max
    values = [0.0, -0.0, math.ulp(0.0), -math.ulp(0.0), 2.0 ** -1022, 1e-310, math.inf, -math.inf, math.nan,
              big, -big, 1.0]
    hit = rng.random((n, 4)) < 0.35
    special[hit] = rng.choice(values, hit.sum())
    return np.concatenate([spread, near, edges, special])


def same_float(u, v):
    return u == v and math.copysign(1.0, u) == math.copysign(1.0, v) or u != u and v != v


def test_frame_matches_reference():
    # _frame against the verbatim singular_values and _contract_angle it
    # replaced: the same bits, except in the declared region, where those
    # square the entries into the subnormal range and _frame scales them first
    region = {"closer": 0, "same": 0, "farther": 0}
    overflow = 0
    for m in frame_matrices().tolist():
        e, f, th = _frame(*m)
        try:
            ref_th = frame_reference._contract_angle(*m)
        except OverflowError:  # its `** 2` raises where _frame's `t * t` gives +inf
            overflow += 1
            ref_th = None
            assert th != th or 0.0 <= th < math.pi, m
        if in_declared_region(m):
            assert th == frame_reference._contract_angle(*(math.ldexp(v, 600) for v in m)), m
            for err, ref_err, ulp in errors_against_exact(m, e, f):
                assert err <= ref_err + 2 * ulp, m
                region["closer" if err < ref_err else "same" if err == ref_err else "farther"] += 1
            continue
        ref_e, ref_f = frame_reference.singular_values(m)
        assert same_float(e, ref_e) and same_float(f, ref_f), m
        assert ref_th is None or same_float(th, ref_th), m
    assert overflow > 100
    assert region["closer"] > 500 and region["farther"] < region["closer"] / 10, region


def test_frame_keeps_e_bits_the_reference_lost():
    # det = 1.5 * 2^-1111 underflows to 0 unscaled
    m = (1.5 * 2.0 ** -511, 0.0, 0.0, 2.0 ** -600)
    assert frame_reference.singular_values(m)[0] == 0.0
    assert singular_values(m) == (2.0 ** -600, 1.5 * 2.0 ** -511)


def test_singular_values_lanes_match_scalar():
    mats = frame_matrices()
    with np.errstate(all="ignore"):
        e, f = singular_values_lanes(*mats.T.copy())
    for m, le, lf in zip(mats.tolist(), e.tolist(), f.tolist()):
        se, sf = singular_values(m)
        assert same_float(le, se) and same_float(lf, sf), m


def test_frame_never_raises_overflow_error():
    # the old branch resolution squared with `** 2`, which raises OverflowError,
    # an error no caller catches
    assert _contracted_theta((0.0, 1e308, 1.0, math.inf), 2, (0.0, 0.0))[0] == 0.375 * math.pi
    mats = frame_matrices()
    for m in mats[~np.all(np.isfinite(mats), axis=1) | (np.abs(mats).max(axis=1) > 1e300)].tolist():
        for fn, args in ((_contracted_theta, (m, 2, (0.0, 0.0))), (singular_frame, (Mat2(*m),))):
            try:
                fn(*args)
            except NumericalError:
                pass
