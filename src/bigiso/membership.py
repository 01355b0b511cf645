"""Exact membership of a polynomial row in the pointwise span of a frame.

A row b lies in the span of a k-row frame F wherever F has rank k iff every
(k+1)-minor of [F; b] is the zero polynomial.  ``span_test`` fixes, once per
frame, k columns J with D = det F_J != 0 and the adjugate adj(F_J).  The
residual r = D b - (b_J adj(F_J)) F vanishes on J, and for j outside J the
entry r_j is the (k+1)-minor of [F; b] on the columns J and j (Schur
complement).  So r = 0 means b = (b_J adj(F_J) / D) F on the dense set
D != 0, and every (k+1)-minor vanishes; otherwise the first nonzero r_j is
the certificate.  J is the pivot set of F at the first of the
PROBE_POINTS points of ``default_grid`` (the origin, then shell by shell
in L1 norm; a document's grid override does not change them) where F has
rank k, or of F over Q(x) when F drops rank at all of them; a frame that
never has rank k admits every candidate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from .grid import default_grid
from .linalg import Matrix
from .scalars import Polynomial, RationalFunction, ScaledPoint

PROBE_POINTS = 16


def poly_det(rows: Sequence[Sequence[Polynomial]]) -> Polynomial:
    """Determinant of a square polynomial matrix by sparse cofactor expansion."""
    n = len(rows)
    if n == 0:
        raise ValueError("empty determinant")
    vars_ = rows[0][0].vars

    def rec(row_idx: tuple, col_idx: tuple) -> Polynomial:
        k = len(row_idx)
        if k == 1:
            return rows[row_idx[0]][col_idx[0]]
        # expand along the column with the most zero entries
        best_col, best_zeros = None, -1
        for cpos, c in enumerate(col_idx):
            zeros = sum(1 for r in row_idx if rows[r][c].is_zero())
            if zeros > best_zeros:
                best_col, best_zeros = cpos, zeros
        c = col_idx[best_col]
        rest_cols = col_idx[:best_col] + col_idx[best_col + 1 :]
        terms = [
            (rows[r][c], rec(row_idx[:rpos] + row_idx[rpos + 1 :], rest_cols), (-1) ** (rpos + best_col))
            for rpos, r in enumerate(row_idx)
            if not rows[r][c].is_zero()
        ]
        return Polynomial.dot(vars_, terms)

    if any(len(r) != n for r in rows):
        raise ValueError("non-square determinant")
    return rec(tuple(range(n)), tuple(range(n)))


@dataclass(frozen=True)
class SpanWitness:
    """Certificate for a failed membership test: a nonzero minor."""

    minor: Polynomial
    columns: tuple

    def __str__(self):
        return f"nonzero minor on columns {self.columns}: {self.minor}"


def _pivot_columns(frame: list):
    k = len(frame)
    for point in default_grid(len(frame[0][0].vars), cap=PROBE_POINTS):
        point = ScaledPoint(point)
        pivots = Matrix([[e.eval(point) for e in row] for row in frame]).pivot_columns()
        if len(pivots) == k:
            return pivots
    generic = Matrix([[RationalFunction.from_poly(e) for e in row] for row in frame])
    _, pivots, rank = generic.rref()
    return pivots if rank == k else None


def _cofactor(square: list, i: int, l: int) -> Polynomial:
    if len(square) == 1:
        return Polynomial.one(square[0][0].vars)
    minor = poly_det([r[:l] + r[l + 1 :] for i2, r in enumerate(square) if i2 != i])
    return -minor if (i + l) % 2 else minor


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
    FJ = [[row[c] for c in J] for row in frame]
    adj = [[_cofactor(FJ, i, l) for i in range(k)] for l in range(k)]
    vars_ = frame[0][0].vars
    D = Polynomial.dot(vars_, ((FJ[0][l], adj[l][0], 1) for l in range(k)))
    # r_j is the minor on the columns (J, j); sorting them moves column j
    # past every pivot column greater than j
    rest = [(j, sum(c > j for c in J) % 2) for j in range(len(frame[0])) if j not in J]

    def contains(candidate):
        b = tuple(candidate)
        coeffs = [Polynomial.dot(vars_, ((b[c], adj[l][i], 1) for l, c in enumerate(J))) for i in range(k)]
        for j, odd in rest:
            r = Polynomial.dot(vars_, [(D, b[j], 1)] + [(c, row[j], -1) for c, row in zip(coeffs, frame)])
            if not r.is_zero():
                return False, SpanWitness(-r if odd else r, tuple(sorted(J + (j,))))
        return True, None

    return contains


def in_span(frame_rows: Sequence[Sequence[Polynomial]], candidate: Sequence[Polynomial]):
    """One-shot span_test(frame_rows)(candidate).  Returns (True, None) or
    (False, SpanWitness)."""
    return span_test(frame_rows)(candidate)
