"""The monotone-chain hull of the epsilon pre-check against scipy's Qhull."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stableleaf.leaf import convex_hull_halfplanes, hull_contains

spatial = pytest.importorskip("scipy.spatial")

# integer coordinates make orientation tests exact, so duplicate and
# collinear points come up on purpose rather than through round-off
int_points = st.lists(st.tuples(st.integers(-20, 20), st.integers(-20, 20)), min_size=3, max_size=40)
queries = st.lists(
    st.tuples(st.floats(-25.0, 25.0), st.floats(-25.0, 25.0)), min_size=1, max_size=8
)


def qhull_contains(eqs, q) -> bool:
    return not np.any(eqs[:, 0] * q[0] + eqs[:, 1] * q[1] + eqs[:, 2] > 1e-12)


@settings(max_examples=300, deadline=None)
@given(int_points, queries, st.integers(0, 5))
def test_hull_containment_matches_qhull(pts, qs, n_dup):
    pts = [(float(x), float(y)) for x, y in pts] + pts[:n_dup]
    hp = convex_hull_halfplanes(pts)
    try:
        ref = spatial.ConvexHull(np.asarray(pts, dtype=float))
    except spatial.QhullError:
        # qhull refuses sets without interior; the chain returns no edges
        assert hp.shape == (0, 3)
        return
    assert len(hp) > 0
    eqs = ref.equations
    # near-boundary queries: 1e-7 either side of every hull edge midpoint and
    # around every hull vertex, well clear of the 1e-12 tolerance
    near = []
    for (i, j), eq in zip(ref.simplices, eqs):
        mid = 0.5 * (ref.points[i] + ref.points[j])
        near.append((tuple(mid + 1e-7 * eq[:2]), False))
        near.append((tuple(mid - 1e-7 * eq[:2]), True))
    for v in ref.points[ref.vertices]:
        for dx, dy in ((1e-7, 0.0), (-1e-7, 0.0), (0.0, 1e-7), (0.0, -1e-7)):
            near.append(((v[0] + dx, v[1] + dy), None))
    for q, expected in [(q, None) for q in qs] + near:
        inside = hull_contains(hp, [q])
        assert inside == qhull_contains(eqs, q)
        if expected is not None:
            assert inside == expected
    assert hull_contains(hp, qs) == all(qhull_contains(eqs, q) for q in qs)
