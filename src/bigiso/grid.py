"""The deterministic sample grid: the smallest points of a chart first.

``default_grid`` walks values^m shell by shell in increasing L1 norm, orders
each shell by sign pattern (left to right, a nonnegative coordinate before a
negative one) and then lexicographically, and stops at ``cap`` points.  Only
the shells it keeps are enumerated, so one order serves every chart size.
Structure validation samples the grid; membership tests probe it for pivots.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

GRID_VALUES = tuple(Fraction(v) for v in (-2, -1, 0, 1, 2))


def _shell(codes, reach, j: int, total: int):
    """Index tuples of j coordinates whose magnitudes sum to total, in no
    particular order; codes holds one (index, magnitude) pair per value."""
    if j == 0:
        yield ()
        return
    for index, size in codes:
        if total - size in reach[j - 1]:
            for tail in _shell(codes, reach, j - 1, total - size):
                yield (index,) + tail


def default_grid(m: int, cap: int = 24, values=GRID_VALUES) -> tuple:
    """The first cap points of values^m by (L1 norm, sign pattern, point).

    The walk runs on integers: each value becomes its index in sorted order
    and its magnitude times the common denominator of the values, and the
    points are mapped back to the caller's values at the end.
    """
    order = sorted(set(values))
    index = {v: i for i, v in enumerate(order)}
    negative = sum(v < 0 for v in order)  # indices below this are negative
    den = lcm(*(Fraction(v).denominator for v in order))
    codes = [(index[v], int(abs(Fraction(v)) * den)) for v in values]
    reach = [{0}]  # reach[j]: the scaled L1 norms that j coordinates can have
    for _ in range(m):
        reach.append({t + size for t in reach[-1] for _, size in codes})
    points = []
    for total in sorted(reach[m]):
        if len(points) >= cap:
            break
        shell = _shell(codes, reach, m, total)
        points += sorted(shell, key=lambda p: (tuple(i < negative for i in p), p))
    return tuple(tuple(order[i] for i in p) for p in points[:cap])
