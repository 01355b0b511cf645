"""Exact membership of a polynomial row in the pointwise span of a frame.

A row b lies in the span of a k-row frame F wherever F has rank k iff every
(k+1)-minor of [F; b] is the zero polynomial.  ``span_test`` fixes, once per
frame, k columns J with D = det F_J != 0 and runs one fraction-free
elimination (``linalg.fraction_free``) on them, which gives the pivot
sign * D and the reduced frame G = sign * adj(F_J) F.  The residual
r = D b - b_J adj(F_J) F = sign * (sign * D b - b_J G) vanishes on J, and
for j outside J the entry r_j is the (k+1)-minor of [F; b] on the columns J
and j (Schur complement).  So r = 0 means b = (b_J adj(F_J) / D) F on the
dense set D != 0, and every (k+1)-minor vanishes; otherwise the first
nonzero r_j is the certificate.  J is the pivot set of F at the first
point, among the first PROBE_POINTS points of ``grid_walk`` (the origin,
then shell by shell in L1 norm; a document's grid override does not change
them), where F has rank k, or of F over Q(x), from the same elimination on
every column, when F drops rank at all of them; a frame that never has
rank k admits every candidate.  ``eval_rows`` evaluates the probes one at
a time, so the walk stops at the first full-rank point.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from itertools import islice

from .grid import grid_walk
from .linalg import echelon, fraction_free
from .record import Record
from .scalars import Polynomial, eval_rows

PROBE_POINTS = 16


def poly_det(rows: Sequence[Sequence[Polynomial]]) -> Polynomial:
    """Determinant of a square polynomial matrix: the last pivot of one
    fraction-free elimination, times the sign of its row swaps."""
    n = len(rows)
    if n == 0:
        raise ValueError("empty determinant")
    if any(len(r) != n for r in rows):
        raise ValueError("non-square determinant")
    reduced, pivots, sign = fraction_free(rows, range(n))
    if len(pivots) < n:
        return Polynomial.zero(rows[0][0].vars)
    return reduced[0][0] if sign > 0 else -reduced[0][0]


class SpanWitness(Record):
    """Certificate for a failed membership test: a nonzero minor."""

    minor: Polynomial
    columns: tuple

    def __str__(self):
        return f"nonzero minor on columns {self.columns}: {self.minor}"


def _pivot_columns(frame: list):
    k = len(frame)
    probes = islice(grid_walk(len(frame[0][0].vars)), PROBE_POINTS)
    for rows in eval_rows(frame, probes):
        pivots = echelon(rows)[1]
        if len(pivots) == k:
            return pivots
    pivots = fraction_free(frame, range(len(frame[0])))[1]
    return pivots if len(pivots) == k else None


def _first_nonzero_entry(candidate):
    for j, e in enumerate(candidate):
        if not e.is_zero():
            return False, SpanWitness(e, (j,))
    return True, None


def span_test(frame_rows: Sequence[Sequence[Polynomial]]) -> Callable:
    """Membership test for one frame: returns contains(candidate), which
    gives (True, None) when candidate(x) lies in span{frame_rows(x)} at every
    point x where the frame has full rank, and (False, SpanWitness) else."""
    frame = [tuple(r) for r in frame_rows]
    k = len(frame)
    if k == 0:
        return _first_nonzero_entry
    J = _pivot_columns(frame) if k <= len(frame[0]) else None
    if J is None:
        return lambda candidate: (True, None)
    G, _, sign = fraction_free(frame, J)
    pivot = G[0][J[0]]
    vars_ = frame[0][0].vars
    # r_j is the minor on the columns (J, j) up to sign: sorting them moves
    # column j past every pivot column greater than j, and the elimination's
    # row swaps contribute its sign
    rest = [(j, (sum(c > j for c in J) % 2 == 1) != (sign < 0)) for j in range(len(frame[0])) if j not in J]

    def contains(candidate):
        b = tuple(candidate)
        for j, flip in rest:
            r = Polynomial.dot(vars_, [(pivot, b[j], 1)] + [(b[c], row[j], -1) for c, row in zip(J, G)])
            if not r.is_zero():
                return False, SpanWitness(-r if flip else r, tuple(sorted(J + (j,))))
        return True, None

    return contains


def in_span(frame_rows: Sequence[Sequence[Polynomial]], candidate: Sequence[Polynomial]):
    """One-shot span_test(frame_rows)(candidate).  Returns (True, None) or
    (False, SpanWitness)."""
    return span_test(frame_rows)(candidate)
