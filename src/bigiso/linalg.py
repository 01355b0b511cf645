"""Dense exact linear algebra over Q, and one fraction-free elimination over
Q[x].

Everything is deterministic: reduced row echelon form gives each subspace a
unique representative, so subspace equality is plain tuple equality.  Matrix
entries are Fractions and ints; the RREF, rank and pivot columns of a
matrix come from one fraction-free elimination over the integers.
``fraction_free`` is the same Gauss-Jordan elimination on polynomial rows,
dividing exactly by the previous pivot; it gives every determinant (a
rational one in ``Matrix.det``, on constant polynomials), adjugate and
reduced frame.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Iterable, Sequence

from .scalars import Polynomial, as_fraction

_ZERO = Fraction(0)


class Matrix:
    """Immutable dense matrix; its products and eliminations are over Q.

    The rows fix the width; ``cols`` gives the width of a matrix with no
    rows (0 when omitted) and, when given, must match the rows.
    """

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries: Sequence[Sequence], cols: int | None = None):
        entries = tuple(tuple(row) for row in entries)
        width = len(entries[0]) if entries else (cols or 0)
        if any(len(r) != width for r in entries) or cols not in (None, width):
            raise ValueError("ragged rows")
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "rows", len(entries))
        object.__setattr__(self, "cols", width)

    def __setattr__(self, *_):
        raise AttributeError("Matrix is immutable")

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls([[Fraction(int(i == j)) for j in range(n)] for i in range(n)])

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "Matrix":
        return cls([[_ZERO] * cols for _ in range(rows)], cols)

    def column(self, j) -> tuple:
        return tuple(r[j] for r in self.entries)

    def transpose(self) -> "Matrix":
        return Matrix([self.column(j) for j in range(self.cols)], self.rows)

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def __eq__(self, other):
        return isinstance(other, Matrix) and (self.cols, self.entries) == (other.cols, other.entries)

    def __hash__(self):
        return hash((self.cols, self.entries))

    def __mul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        columns = [other.column(j) for j in range(other.cols)]
        return Matrix([[sum(map(mul, row, col), _ZERO) for col in columns] for row in self.entries], other.cols)

    def scale(self, c) -> "Matrix":
        return Matrix([[e * c for e in row] for row in self.entries], self.cols)

    def apply(self, vector: Sequence) -> tuple:
        if len(vector) != self.cols:
            raise ValueError("vector length mismatch")
        return tuple(sum(map(mul, row, vector), _ZERO) for row in self.entries)

    def submatrix(self, row_idx: Iterable[int], col_idx: Iterable[int]) -> "Matrix":
        col_idx = list(col_idx)
        return Matrix([[self.entries[i][j] for j in col_idx] for i in row_idx], len(col_idx))

    def _integer_rref(self):
        """Fraction-free Gauss-Jordan elimination over the integers.

        Each row is scaled to integers by the lcm of its denominators, which
        changes neither the row space nor the pivot columns.  For each pivot p
        in column c (the first nonzero entry at or below the current row),
        every other row with an entry f there becomes p * row - f * pivot row,
        divided by its content so that the integers stay small; rows with no
        entry in column c are untouched.  Returns (rows, pivots): dividing
        each pivot row by its pivot gives the unique RREF.
        """
        rows = []
        for row in self.entries:
            dens = [e.denominator for e in row]
            d = lcm(*dens)
            if d == 1:
                rows.append([e.numerator for e in row])
            else:
                rows.append([e.numerator * (d // q) for e, q in zip(row, dens)])
        n_rows = self.rows
        pivots = []
        for c in range(self.cols):
            r = len(pivots)
            if r == n_rows:
                break
            i = next((i for i in range(r, n_rows) if rows[i][c]), None)
            if i is None:
                continue
            rows[r], rows[i] = rows[i], rows[r]
            top = rows[r]
            p = top[c]
            for i2 in range(n_rows):
                f = rows[i2][c]
                if f and i2 != r:
                    row = [p * a - f * b for a, b in zip(rows[i2], top)]
                    g = gcd(*row)
                    rows[i2] = [a // g for a in row] if g > 1 else row
            pivots.append(c)
        return rows, tuple(pivots)

    def rref(self):
        """Reduced row echelon form.

        Returns (rref_matrix, pivot_columns, rank).  The matrix is eliminated
        over the integers (_integer_rref), and each entry is divided by its
        row's pivot once at the end.
        """
        if self.rows == 0 or self.cols == 0:
            return self, (), 0
        rows, pivots = self._integer_rref()
        out = [[Fraction(a, row[c]) if a else _ZERO for a in row] for row, c in zip(rows, pivots)]
        out += [[_ZERO] * self.cols for _ in range(self.rows - len(pivots))]
        return Matrix(out), pivots, len(pivots)

    def pivot_columns(self) -> tuple:
        """The pivot columns of rref(), from its elimination without the
        final divisions."""
        return self._integer_rref()[1]

    def rank(self) -> int:
        return len(self.pivot_columns())

    def solve(self, rhs: Sequence):
        """The solution x of self * x = rhs whose non-pivot unknowns are 0,
        or None when there is none; one RREF of the augmented matrix."""
        if len(rhs) != self.rows:
            raise ValueError("right-hand side length does not match the rows")
        red, pivots, _ = Matrix([list(row) + [b] for row, b in zip(self.entries, rhs)]).rref()
        if pivots and pivots[-1] == self.cols:
            return None
        x = [_ZERO] * self.cols
        for r_i, p in enumerate(pivots):
            x[p] = red.entries[r_i][self.cols]
        return tuple(x)

    def kernel_rows(self):
        """Basis rows of the right null space {x : M x = 0} (RREF-canonical)."""
        red, pivots, _ = self.rref()
        basis = []
        for f in (c for c in range(self.cols) if c not in pivots):
            vec = [_ZERO] * self.cols
            vec[f] = Fraction(1)
            for r_i, p in enumerate(pivots):
                vec[p] = -red.entries[r_i][f]
            basis.append(tuple(vec))
        return basis

    def det(self):
        """Determinant: the last pivot of one ``fraction_free`` elimination of
        the entries as constant polynomials, times the sign of its row swaps."""
        if self.rows != self.cols:
            raise ValueError("determinant of a non-square matrix")
        if not self.rows:
            return Fraction(1)
        rows = [[Polynomial.constant((), e) for e in row] for row in self.entries]
        reduced, pivots, sign = fraction_free(rows, range(self.cols))
        if len(pivots) < self.rows:
            return _ZERO
        return sign * reduced[-1][-1].constant_value()

    def inverse(self) -> "Matrix":
        if self.rows != self.cols:
            raise ValueError("inverse of a non-square matrix")
        n = self.rows
        identity = Matrix.identity(n).entries
        red, pivots, rank = Matrix([row + unit for row, unit in zip(self.entries, identity)], 2 * n).rref()
        if rank < n or any(p >= n for p in pivots):
            raise ValueError("matrix is singular")
        return Matrix([row[n:] for row in red.entries], n)

    def __str__(self):
        return "\n".join("[" + ", ".join(str(e) for e in row) + "]" for row in self.entries)


def fraction_free(rows: Sequence[Sequence[Polynomial]], columns: Iterable[int]):
    """Fraction-free Gauss-Jordan elimination of polynomial rows (Bareiss,
    Math. Comp. 22, 1968; Sasaki and Murao, ACM TOMS 8, 1982).

    Pivots are taken in ``columns``, in order: the pivot of column c is the
    first nonzero entry at or below the current row, and a column with none
    is skipped.  Every other row becomes (p * row - f * pivot row) / q, with
    p the pivot, f the row's entry in column c and q the previous pivot (1
    at the first); by Sylvester's identity the division is exact, so every
    entry stays a polynomial.  Returns (rows, pivots, sign), sign being the
    parity of the row swaps.  Every pivot row ends with the last pivot in
    its pivot column and zeros in the other pivot columns; when every row
    takes a pivot, that pivot is sign * det F_J and the rows are
    sign * adj(F_J) * F, where J is the pivot columns and F the given rows.
    """
    rows = [list(row) for row in rows]
    if not rows or not rows[0]:
        return rows, (), 1
    vars_ = rows[0][0].vars
    pivots, sign, previous = [], 1, None
    for c in columns:
        r = len(pivots)
        if r == len(rows):
            break
        i = next((i for i in range(r, len(rows)) if rows[i][c].nums), None)
        if i is None:
            continue
        if i != r:
            rows[r], rows[i] = rows[i], rows[r]
            sign = -sign
        top = rows[r]
        p = top[c]
        for i2, row in enumerate(rows):
            if i2 != r:
                f = row[c]
                row = [Polynomial.dot(vars_, ((p, a, 1), (f, b, -1))) for a, b in zip(row, top)]
                rows[i2] = row if previous is None else [e.exact_div(previous) if e.nums else e for e in row]
        pivots.append(c)
        previous = p
    return rows, tuple(pivots), sign


def combine(coeffs: Sequence, rows: Sequence[Sequence], width: int) -> tuple:
    """The linear combination sum_i coeffs[i] * rows[i] of length width."""
    return tuple(sum((c * row[i] for c, row in zip(coeffs, rows)), Fraction(0)) for i in range(width))


def kernel(m: Matrix) -> "Subspace":
    return Subspace(m.cols, m.kernel_rows())


def image(m: Matrix) -> "Subspace":
    """Column space of m, as a subspace of Q^rows."""
    return Subspace(m.rows, [m.column(j) for j in range(m.cols)])


class Subspace:
    """A linear subspace of Q^d held as an RREF basis matrix.

    The RREF representative is unique, so two subspaces are equal iff their
    stored bases are identical tuples.
    """

    __slots__ = ("ambient_dim", "basis")

    def __init__(self, ambient_dim: int, spanning_rows: Iterable[Sequence] = ()):
        rows = [tuple(as_fraction(x) for x in row) for row in spanning_rows]
        for row in rows:
            if len(row) != ambient_dim:
                raise ValueError("vector length does not match ambient dimension")
        red, _, rank = Matrix(rows, ambient_dim).rref()
        object.__setattr__(self, "ambient_dim", ambient_dim)
        object.__setattr__(self, "basis", tuple(red.entries[:rank]))

    def __setattr__(self, *_):
        raise AttributeError("Subspace is immutable")

    @classmethod
    def full(cls, d: int) -> "Subspace":
        return cls(d, Matrix.identity(d).entries)

    @property
    def dim(self) -> int:
        return len(self.basis)

    def basis_matrix(self) -> Matrix:
        return Matrix(self.basis, self.ambient_dim)

    def equations(self) -> Matrix:
        """Rows e with: v in self  iff  e . v = 0 for every row."""
        return Matrix(self.basis_matrix().kernel_rows(), self.ambient_dim)

    def contains(self, vector: Sequence) -> bool:
        vector = tuple(as_fraction(x) for x in vector)
        if len(vector) != self.ambient_dim:
            raise ValueError("ambient dimension mismatch")
        if all(x == 0 for x in vector):
            return True
        if not self.basis:
            return False
        stacked = Matrix(list(self.basis) + [vector])
        return stacked.rank() == self.dim

    def contains_subspace(self, other: "Subspace") -> bool:
        return all(self.contains(v) for v in other.basis)

    def _check_ambient(self, other: "Subspace"):
        if self.ambient_dim != other.ambient_dim:
            raise ValueError("ambient dimension mismatch")

    def sum(self, other: "Subspace") -> "Subspace":
        self._check_ambient(other)
        return Subspace(self.ambient_dim, list(self.basis) + list(other.basis))

    def intersect(self, other: "Subspace") -> "Subspace":
        self._check_ambient(other)
        eqs = Matrix(self.equations().entries + other.equations().entries, self.ambient_dim)
        return Subspace(self.ambient_dim, eqs.kernel_rows())

    def complement_in(self, outer: "Subspace") -> "Subspace":
        """A deterministic direct complement: inner (+) result = outer.

        Picks outer basis rows (in RREF order) that extend the inner basis.
        """
        self._check_ambient(outer)
        if not outer.contains_subspace(self):
            raise ValueError("inner subspace is not contained in the outer one")
        current, rank = list(self.basis), self.dim
        chosen = []
        for row in outer.basis:
            trial = current + [row]
            r = Matrix(trial).rank()
            if r > rank:
                current, rank = trial, r
                chosen.append(row)
        return Subspace(self.ambient_dim, chosen)

    def annihilator(self) -> "Subspace":
        """Covectors (same coordinates) vanishing on self."""
        return Subspace(self.ambient_dim, self.equations().entries)

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.ambient_dim == other.ambient_dim
            and self.basis == other.basis
        )

    def __hash__(self):
        return hash((self.ambient_dim, self.basis))

    def __repr__(self):
        return f"Subspace(dim={self.dim} of Q^{self.ambient_dim})"


def complement_in(inner: Subspace, outer: Subspace) -> Subspace:
    return inner.complement_in(outer)
