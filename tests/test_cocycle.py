import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stableleaf import Mat2, Point2, SplitRng, build_orbit_cocycle, distortion_bounds, make_map, singular_frame
from stableleaf.cocycle import _contract_angle, singular_values
from stableleaf.errors import ConformalError, OrbitEscapeError, SingularMatrixError, SingularStepError
from stableleaf.maps import MapModel

from conftest import sweep_min_angle


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
        assert c.products[k] == c.steps[k - 1].mul(c.products[k - 1])


def test_tail_norms_empty_product(henon_map, linear_map):
    for m in (henon_map, linear_map):
        c = build_orbit_cocycle(m, Point2(0.1, 0.05), 5)
        for k in range(1, 6):
            assert c.tail_norms(k)[k - 1] == 1.0


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
        det = mk.det()
        # inverse entries from the cofactor layout, checked against M * adj = det * I
        adj = Mat2(mk.a22, -mk.a12, -mk.a21, mk.a11)
        prod = mk.mul(adj)
        assert prod.a11 == pytest.approx(det, rel=1e-10)
        assert prod.a22 == pytest.approx(det, rel=1e-10)
        assert abs(prod.a12) <= 1e-10 * abs(det)
        assert abs(prod.a21) <= 1e-10 * abs(det)


def test_ef_product_is_det(linear_map, henon_map, perturbed_map):
    for m, z in ((linear_map, Point2(0.2, 0.05)), (henon_map, Point2(0.1, 0.0)), (perturbed_map, Point2(0.02, 0.01))):
        c = build_orbit_cocycle(m, z, 6)
        for k in range(1, 7):
            assert c.E[k] * c.F[k] == pytest.approx(abs(c.products[k].det()), rel=1e-12)
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
    c = build_orbit_cocycle(linear_map, Point2(0.4, -0.1), 5)
    for k in range(1, 6):
        assert distortion_bounds(c, k) == (0.0, 0.0)

    ch = build_orbit_cocycle(henon_map, Point2(0, 0), 2)
    d1_1, _ = distortion_bounds(ch, 1)
    # single-term sum: (E_1/F_1^2) * Pt_0, with F_{0,1} = F_0 = 1
    assert d1_1 == pytest.approx(ch.E[1] / ch.F[1] ** 2 * ch.Pt[0], rel=1e-14)
    d1_2, d2_2 = distortion_bounds(ch, 2)
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
    slack = 1.0 + 1e-3
    for k in range(1, 9):
        d1, d2 = distortion_bounds(c, k)
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
    assert _contract_angle(*big) == _contract_angle(*m)
    # scaled by 2^-600 the squared entries underflow: the same holds
    small = Mat2(*(math.ldexp(v, -600) for v in m))
    assert singular_values(small) == (math.ldexp(e, -600), math.ldexp(f, -600))
    assert _contract_angle(*small) == _contract_angle(*m)
