import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stableleaf import SplitRng


def test_determinism():
    a = SplitRng(12345)
    b = SplitRng(12345)
    assert [a.next_u64() for _ in range(64)] == [b.next_u64() for _ in range(64)]


def test_substreams_independent_of_consumption():
    # substream derivation must not consume or depend on draw position
    a = SplitRng(7)
    sub_before = a.substream(3)
    a.next_u64()
    a2 = SplitRng(7)
    sub_after = a2.substream(3)
    assert sub_before.next_u64() == sub_after.next_u64()


def test_substreams_distinct():
    base = SplitRng(11)
    seqs = {k: tuple(base.substream(k).next_u64() for _ in range(8)) for k in range(6)}
    assert len(set(seqs.values())) == len(seqs)


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 64 - 1), st.floats(-10, 10), st.floats(0.001, 10))
def test_uniform_bounds(seed, lo, width):
    r = SplitRng(seed)
    hi = lo + width
    for _ in range(16):
        v = r.uniform(lo, hi)
        assert lo <= v < hi or math.isclose(v, hi, rel_tol=1e-15)


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 64 - 1), st.integers(min_value=1, max_value=1000))
def test_randint_range(seed, n):
    r = SplitRng(seed)
    for _ in range(32):
        v = r.randint(n)
        assert 0 <= v < n


def test_uniform_distribution_sane():
    r = SplitRng(2)
    xs = [r.uniform() for _ in range(20000)]
    mean = sum(xs) / len(xs)
    assert abs(mean - 0.5) < 0.01
    assert min(xs) < 0.01 and max(xs) > 0.99


@pytest.mark.parametrize("seed", [0, 1, 2 ** 63, 2 ** 64 - 1])
@pytest.mark.parametrize("sub", [0, 3])
def test_points_in_box_matches_point_in_box(seed, sub):
    one = SplitRng(seed).substream(sub)
    arr = SplitRng(seed).substream(sub)
    want = [one.point_in_box(0.3, -0.2, 0.05) for _ in range(300)]
    xs1, ys1 = arr.points_in_box(0.3, -0.2, 0.05, 100)
    xs2, ys2 = arr.points_in_box(0.3, -0.2, 0.05, 200)
    got = zip(np.concatenate([xs1, xs2]).tolist(), np.concatenate([ys1, ys2]).tolist())
    assert [(x.hex(), y.hex()) for x, y in got] == [(x.hex(), y.hex()) for x, y in want]
    # both generators end in the same state
    assert one.next_u64() == arr.next_u64()
