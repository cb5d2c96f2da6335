"""The parameterization method for the stable manifold of a quadratic planar map.

W(s) = sum_n a_n s^n solves phi(W(s)) = W(lam * s), with a_0 = p the saddle,
a_1 its unit stable eigenvector and lam the stable eigenvalue (X. Cabré,
E. Fontich and R. de la Llave, Indiana Univ. Math. J. 52, 2003; A. Haro et
al., The Parameterization Method for Invariant Manifolds, Springer 2016,
ch. 2). For phi(p + w) = p + A w + Q(w) with Q quadratic, the s^n terms give
(A - lam^n I) a_n = -[Q(w)]_n, whose right side holds only a_1 .. a_{n-1};
lam^n is neither eigenvalue of A for n >= 2, so each order is one 2x2 solve.

The construction takes the map in closed form and uses numpy only: it never
calls the package, so it is an oracle for the package's leaves.
"""

import math

import numpy as np
from numpy.polynomial import polynomial as P


class StableParameterization:
    """W(s) to degree n for the quadratic map phi with saddle p, Dphi(p) = jac and second partials hess.

    hess = (d2phi1/dxdx, d2phi1/dxdy, d2phi1/dydy, d2phi2/dxdx, d2phi2/dxdy, d2phi2/dydy), constant.
    """

    def __init__(self, phi, p, jac, hess, degree=40):
        self.phi = phi
        a = np.array(jac, dtype=float).reshape(2, 2)
        vals, vecs = np.linalg.eig(a)
        i = int(np.argmin(np.abs(vals)))
        self.lam = float(vals[i].real)
        self.lam_u = float(vals[1 - i].real)
        v = vecs[:, i].real / math.hypot(*vecs[:, i].real)
        xs, ys = [float(p[0]), float(v[0])], [float(p[1]), float(v[1])]
        t = np.array(hess, dtype=float).reshape(2, 3)
        for n in range(2, degree + 1):
            xx = sum(xs[i] * xs[n - i] for i in range(1, n))
            xy = sum(xs[i] * ys[n - i] for i in range(1, n))
            yy = sum(ys[i] * ys[n - i] for i in range(1, n))
            q = 0.5 * (t[:, 0] * xx + 2.0 * t[:, 1] * xy + t[:, 2] * yy)
            an = np.linalg.solve(a - self.lam ** n * np.eye(2), -q)
            xs.append(float(an[0]))
            ys.append(float(an[1]))
        self.cx, self.cy = np.array(xs), np.array(ys)

    def __call__(self, s, der=0):
        """The der-th derivative of W at s (array), as (x, y) arrays."""
        return P.polyval(s, P.polyder(self.cx, der)), P.polyval(s, P.polyder(self.cy, der))

    def residual(self, s):
        """Largest |phi(W(s)) - W(lam s)| over the array s."""
        px, py = self.phi(*self(s))
        wx, wy = self(self.lam * s)
        return float(np.max(np.hypot(px - wx, py - wy)))

    def parameter(self, qx, qy):
        """The s of the point W(s) nearest to each point (qx[i], qy[i]), by Newton's method in s."""
        qx, qy = np.asarray(qx, dtype=float), np.asarray(qy, dtype=float)
        s = (qx - self.cx[0]) * self.cx[1] + (qy - self.cy[0]) * self.cy[1]
        for _ in range(8):
            (wx, wy), (dx, dy), (ex, ey) = self(s), self(s, 1), self(s, 2)
            rx, ry = wx - qx, wy - qy
            s = s - (rx * dx + ry * dy) / (dx * dx + dy * dy + rx * ex + ry * ey)
        return s

    def distance(self, qx, qy):
        """Euclidean distance from each point (qx[i], qy[i]) to the curve W."""
        wx, wy = self(self.parameter(qx, qy))
        return np.hypot(wx - np.asarray(qx, dtype=float), wy - np.asarray(qy, dtype=float))


def henon(a, b):
    """W^s of (1 - a x^2 + y, b x) at its saddle with x > 0."""
    x = (b - 1.0 + math.sqrt((1.0 - b) ** 2 + 4.0 * a)) / (2.0 * a)
    return StableParameterization(lambda u, v: (1.0 - a * u * u + v, b * u), (x, b * x),
                                  (-2.0 * a * x, 1.0, b, 0.0), (-2.0 * a, 0.0, 0.0, 0.0, 0.0, 0.0))


def perturbed(ls, lu, c):
    """W^s of (ls x + c y^2, lu y + c x^2) at the origin."""
    return StableParameterization(lambda u, v: (ls * u + c * v * v, lu * v + c * u * u), (0.0, 0.0),
                                  (ls, 0.0, 0.0, lu), (0.0, 0.0, 2.0 * c, 2.0 * c, 0.0, 0.0))
