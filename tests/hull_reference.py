"""The epsilon pre-check's containment test as the package ran it before
``leaf._support_radius``: the square around z is inside the hull when its four
corners are. Kept, verbatim, as the reference for the hull and the radius.

An axis-aligned hull holds the square of infinite half-width here, since
inf * 0 makes every side NaN; ``choose_epsilon`` refuses that radius.
"""

import numpy as np


def hull_contains(halfplanes: np.ndarray, queries) -> bool:
    """All queries inside the hull given by its half-planes, to 1e-12; False for an empty hull."""
    q = np.asarray(queries, dtype=float)
    side = q[:, :1] * halfplanes[:, 0] + q[:, 1:] * halfplanes[:, 1] + halfplanes[:, 2]
    return len(halfplanes) > 0 and not np.any(side > 1e-12)


def square_inside(halfplanes: np.ndarray, z, r: float) -> bool:
    """The four corners of the square of half-width r around z inside the hull."""
    zx, zy = z
    return hull_contains(halfplanes, [(zx - r, zy - r), (zx - r, zy + r), (zx + r, zy - r), (zx + r, zy + r)])
