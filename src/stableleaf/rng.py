"""Deterministic 64-bit generator with splittable substreams.

All seeded sampling in the package goes through this generator so runs are
bit-reproducible across platforms: state updates are pure 64-bit integer
arithmetic (additive lag 0x9E3779B97F4A7C15 followed by the splitmix64
finalizer) and uniform doubles are built from the top 53 bits, so no libm or
platform RNG is involved. points_in_box makes many draws at once from the
same arithmetic on np.uint64 arrays, which wraps mod 2^64 as the masks do.
"""

from __future__ import annotations

import numpy as np

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15  # 2^64 / golden ratio, odd


def _mix(z: int) -> int:
    # splitmix64 finalizer
    z &= _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def _mix_lanes(z: np.ndarray) -> np.ndarray:
    # the splitmix64 finalizer on np.uint64, whose arithmetic wraps mod 2^64
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


class SplitRng:
    """Counter-style generator: next() advances by _GAMMA and finalizes."""

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = seed & _MASK

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK
        return _mix(self._state)

    def uniform(self, lo: float = 0.0, hi: float = 1.0) -> float:
        """Uniform double in [lo, hi) from the top 53 bits."""
        u = (self.next_u64() >> 11) * (2.0 ** -53)
        return lo + (hi - lo) * u

    def point_in_box(self, cx: float, cy: float, r: float) -> tuple[float, float]:
        return (self.uniform(cx - r, cx + r), self.uniform(cy - r, cy + r))

    def points_in_box(self, cx: float, cy: float, r: float, n: int) -> tuple[np.ndarray, np.ndarray]:
        """The next n point_in_box draws as arrays (xs, ys), bit for bit, advancing the state as they do."""
        ticks = np.arange(1, 2 * n + 1, dtype=np.uint64) * np.uint64(_GAMMA) + np.uint64(self._state)
        self._state = (self._state + 2 * n * _GAMMA) & _MASK
        u = (_mix_lanes(ticks) >> np.uint64(11)).astype(np.float64) * (2.0 ** -53)
        lo_x, hi_x, lo_y, hi_y = cx - r, cx + r, cy - r, cy + r
        return lo_x + (hi_x - lo_x) * u[0::2], lo_y + (hi_y - lo_y) * u[1::2]

    def randint(self, n: int) -> int:
        """Integer in [0, n) via the multiply-shift reduction."""
        return (self.next_u64() * n) >> 64

    def substream(self, index: int) -> "SplitRng":
        """Independent stream keyed by (current seed, index); does not consume state."""
        return SplitRng(_mix(self._state ^ _mix(index & _MASK)))
