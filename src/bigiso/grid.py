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

import functools
import operator
import sys
from fractions import Fraction
from itertools import islice
from math import lcm

GRID_VALUES = tuple(Fraction(v) for v in (-2, -1, 0, 1, 2))


def _shell(codes, reach, j: int, total: int):
    """Index tuples of j coordinates whose codes sum to total, in no
    particular order; codes holds one (index, code) pair per value, by code,
    so the scan stops at the first code past the total."""
    if j == 0:
        yield ()
        return
    for index, size in codes:
        if size > total:
            return
        if reach[j - 1] >> (total - size) & 1:
            for tail in _shell(codes, reach, j - 1, total - size):
                yield (index,) + tail


def grid_walk(m: int, values=GRID_VALUES):
    """Every point of values^m by (L1 norm, sign pattern, point), lazily.

    The walk runs on integers: each value becomes its index in sorted order
    and a code, its magnitude times the common denominator of the values
    (from its numerator and denominator) less the least such magnitude.
    A point's norm is m times that magnitude plus the sum of its codes, so
    the walk goes by that sum, mapping each point back to the caller's
    values as it is yielded.  Codes 0..top with no gap reach every sum
    0..j*top with j coordinates, so their masks need no shifts.
    """
    order = sorted(set(values))
    negative = sum(v < 0 for v in order)  # indices below this are negative
    den = lcm(*(v.denominator for v in order))
    codes = [(i, abs(v.numerator) * (den // v.denominator)) for i, v in enumerate(order)]
    codes.sort(key=operator.itemgetter(1))
    low = codes[0][1] if codes else 0
    codes = [(i, size - low) for i, size in codes]
    sizes = sorted({size for _, size in codes})
    reach = [1]  # bit t of reach[j]: the codes of j coordinates can sum to t
    for j in range(1, m + 1):
        if sizes and sizes[-1] + 1 == len(sizes):
            reach.append((1 << j * sizes[-1] + 1) - 1)
        else:
            reach.append(functools.reduce(operator.or_, (reach[-1] << size for size in sizes), 0))
    for total in (t for t in range(reach[m].bit_length()) if reach[m] >> t & 1):
        shell = _shell(codes, reach, m, total)
        for p in sorted(shell, key=lambda p: (tuple(i < negative for i in p), p)):
            yield tuple(order[i] for i in p)


def default_grid(m: int, cap: int = 24, values=GRID_VALUES) -> tuple:
    """The first cap points of grid_walk(m, values); a cap past sys.maxsize,
    more points than any walk yields, means every point."""
    return tuple(islice(grid_walk(m, values), min(cap, sys.maxsize)))


def format_point(point) -> str:
    """A point as failure messages print it, e.g. (0, 1/2)."""
    return "(" + ", ".join(str(Fraction(c)) for c in point) + ")"
