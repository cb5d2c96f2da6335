import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stableleaf import Point2, SplitRng, make_map
from stableleaf.errors import BadParamsError, DomainError, NonFiniteError, UnknownMapError
from stableleaf.maps import MapModel


def fd_jacobian(m, x, y, h=1e-6):
    f = m.raw_eval
    return (
        (f(x + h, y)[0] - f(x - h, y)[0]) / (2 * h),
        (f(x, y + h)[0] - f(x, y - h)[0]) / (2 * h),
        (f(x + h, y)[1] - f(x - h, y)[1]) / (2 * h),
        (f(x, y + h)[1] - f(x, y - h)[1]) / (2 * h),
    )


def test_evaluate_examples(henon_map, linear_map):
    assert henon_map.evaluate(Point2(0, 0)) == Point2(1.0, 0.0)
    assert linear_map.evaluate(Point2(0, 0)) == Point2(0.0, 0.0)
    assert linear_map.evaluate(Point2(1, 1)) == Point2(0.5, 2.0)


def test_jacobian_examples(henon_map, linear_map):
    j = linear_map.jacobian(Point2(0.3, -1.2))
    assert (j.a11, j.a12, j.a21, j.a22) == (0.5, 0.0, 0.0, 2.0)
    for p in (Point2(0, 0), Point2(1, 0)):
        j = henon_map.jacobian(p)
        fd = fd_jacobian(henon_map, p.x, p.y)
        for a, b in zip(j, fd):
            assert a == pytest.approx(b, abs=1e-8)
    assert henon_map.jacobian(Point2(0, 0)) == (0.0, 1.0, 0.3, 0.0)
    assert henon_map.jacobian(Point2(1, 0)) == (-2.8, 1.0, 0.3, 0.0)


def test_fd_matches_analytic_on_random_points(linear_map, perturbed_map, henon_map):
    rng = SplitRng(2024)
    for m in (linear_map, perturbed_map, henon_map):
        for _ in range(1000):
            x, y = rng.uniform(-5, 5), rng.uniform(-5, 5)
            ja = m.raw_jac(x, y)
            jf = fd_jacobian(m, x, y)
            scale = max(1.0, max(abs(v) for v in ja))
            for a, b in zip(ja, jf):
                assert abs(a - b) <= 1e-6 * scale


def test_second_derivative_examples(linear_map, henon_map, perturbed_map):
    t, g = linear_map.second_derivative_data(Point2(1.7, -0.4))
    assert all(v == 0.0 for v in t)
    assert g == (0.0, 0.0)

    t, g = henon_map.second_derivative_data(Point2(0.2, 0.1))
    assert t.t1xx == -2.8
    assert all(v == 0.0 for v in (t.t1xy, t.t1yy, t.t2xx, t.t2xy, t.t2yy))
    assert g == (0.0, 0.0)

    t, g = perturbed_map.second_derivative_data(Point2(0, 0))
    assert t.t1yy == 0.1 and t.t2xx == 0.1
    assert all(v == 0.0 for v in (t.t1xx, t.t1xy, t.t2xy, t.t2yy))


def test_fd_second_derivative_oracle(henon_map, perturbed_map):
    # strip the analytic hessian to force the finite-difference path
    for m, p, expect in (
        (henon_map, Point2(0.3, -0.2), {"t1xx": -2.8}),
        (perturbed_map, Point2(0.0, 0.0), {"t1yy": 0.1, "t2xx": 0.1}),
    ):
        fd = MapModel(name=m.name, params=m.params, raw_eval=m.raw_eval, raw_jac=m.raw_jac)
        t, _ = fd.second_derivative_data(p)
        for name, val in expect.items():
            assert getattr(t, name) == pytest.approx(val, abs=1e-5)


def test_henon_constant_determinant(henon_map):
    rng = SplitRng(7)
    for _ in range(200):
        p = Point2(rng.uniform(-5, 5), rng.uniform(-5, 5))
        assert henon_map.jacobian(p).det() == pytest.approx(-0.3, rel=1e-15)


def test_make_map_validation():
    m = make_map("linear", lambda_s=0.5, lambda_u=2.0)
    assert m.jacobian(Point2(3, 3)) == (0.5, 0.0, 0.0, 2.0)
    with pytest.raises(UnknownMapError):
        make_map("logistic", r=4.0)
    with pytest.raises(BadParamsError):
        make_map("henon", a=1.4)  # b missing
    with pytest.raises(BadParamsError):
        make_map("henon", a=1.4, b=0.0)
    with pytest.raises(BadParamsError):
        make_map("linear", lambda_s=1.0, lambda_u=2.0, require_hyperbolic=True)
    with pytest.raises(BadParamsError):
        make_map("perturbed", lambda_s=0.5, lambda_u=0.9, c=0.1, require_hyperbolic=True)
    # without the flag the same parameters construct fine
    make_map("linear", lambda_s=1.0, lambda_u=2.0)


def test_domain_and_guard_errors(henon_map):
    with pytest.raises(DomainError):
        henon_map.evaluate(Point2(6.0, 0.0))
    guarded = MapModel(
        name="guarded",
        params={},
        raw_eval=lambda x, y: (x, y),
        raw_jac=lambda x, y: (1.0, 0.0, 0.0, 1.0),
        singular_guard=lambda x, y: abs(x - 1.0),
    )
    assert guarded.evaluate(Point2(0.0, 0.0)) == Point2(0.0, 0.0)
    with pytest.raises(DomainError):
        guarded.evaluate(Point2(1.0, 0.0))


def test_nonfinite_error():
    blower = MapModel(
        name="blower",
        params={},
        raw_eval=lambda x, y: (1e308 * 1e308 * x if x > 0 else x, y),
    )
    with pytest.raises(NonFiniteError):
        blower.evaluate(Point2(1.0, 0.0))


@settings(max_examples=50, deadline=None)
@given(
    ls=st.floats(min_value=-0.95, max_value=0.95).filter(lambda v: abs(v) > 1e-3),
    lu=st.floats(min_value=1.05, max_value=4.0),
    x=st.floats(min_value=-4.0, max_value=4.0),
    y=st.floats(min_value=-4.0, max_value=4.0),
)
def test_linear_map_action_property(ls, lu, x, y):
    m = make_map("linear", lambda_s=ls, lambda_u=lu)
    fx, fy = m.evaluate(Point2(x, y))
    assert fx == ls * x and fy == lu * y
