"""The deterministic sample grid: the smallest points of a chart first.

``grid_walk`` walks values^m shell by shell in increasing L1 norm, orders
each shell by sign pattern (left to right, a nonnegative coordinate before a
negative one) and then lexicographically, and yields the points lazily, so
only the shells a caller reaches are enumerated and one order serves every
chart size.  ``default_grid`` is its first ``cap`` points.  Structure
validation samples the default grid; membership tests walk the same order
for pivots and stop at the first point where the frame has full rank.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import islice
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


def grid_walk(m: int, values=GRID_VALUES):
    """Every point of values^m by (L1 norm, sign pattern, point), lazily.

    The walk runs on integers: each value becomes its index in sorted order
    and its magnitude times the common denominator of the values, and each
    point is mapped back to the caller's values as it is yielded.
    """
    order = sorted(set(values))
    index = {v: i for i, v in enumerate(order)}
    negative = sum(v < 0 for v in order)  # indices below this are negative
    den = lcm(*(Fraction(v).denominator for v in order))
    codes = [(index[v], int(abs(Fraction(v)) * den)) for v in order]
    reach = [{0}]  # reach[j]: the scaled L1 norms that j coordinates can have
    for _ in range(m):
        reach.append({t + size for t in reach[-1] for _, size in codes})
    for total in sorted(reach[m]):
        shell = _shell(codes, reach, m, total)
        for p in sorted(shell, key=lambda p: (tuple(i < negative for i in p), p)):
            yield tuple(order[i] for i in p)


def default_grid(m: int, cap: int = 24, values=GRID_VALUES) -> tuple:
    """The first cap points of grid_walk(m, values)."""
    return tuple(islice(grid_walk(m, values), cap))
