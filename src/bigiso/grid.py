"""The deterministic sample grid: the smallest points of a chart first.

``default_grid`` walks values^m shell by shell in increasing L1 norm, orders
each shell by sign pattern (left to right, a nonnegative coordinate before a
negative one) and then lexicographically, and stops at ``cap`` points.  Only
the shells it keeps are enumerated, so one order serves every chart size.
Structure validation samples the grid; membership tests probe it for pivots.
"""

from __future__ import annotations

from fractions import Fraction

GRID_VALUES = tuple(Fraction(v) for v in (-2, -1, 0, 1, 2))


def _shell(values, reach, j: int, total):
    """Points of values^j whose L1 norm is total, in no particular order."""
    if j == 0:
        yield ()
        return
    for v in values:
        if total - abs(v) in reach[j - 1]:
            for tail in _shell(values, reach, j - 1, total - abs(v)):
                yield (v,) + tail


def default_grid(m: int, cap: int = 24, values=GRID_VALUES) -> tuple:
    """The first cap points of values^m by (L1 norm, sign pattern, point)."""
    sizes = {abs(v) for v in values}
    reach = [{0}]  # reach[j]: the L1 norms that j coordinates can have
    for _ in range(m):
        reach.append({t + a for t in reach[-1] for a in sizes})
    points = []
    for total in sorted(reach[m]):
        if len(points) >= cap:
            break
        shell = _shell(values, reach, m, total)
        points += sorted(shell, key=lambda p: (tuple(c < 0 for c in p), p))
    return tuple(points[:cap])
