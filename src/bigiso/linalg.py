"""Dense exact linear algebra over Q, and one fraction-free elimination over
Q[x].

Everything is deterministic: reduced row echelon form gives each subspace a
unique representative, so subspace equality is plain tuple equality.  Matrix
entries are Fractions and ints; one fraction-free elimination over the
integers gives the RREF, and its forward pass alone, ``echelon``, the rank and
pivot columns; callers that hold integer rows call ``echelon`` directly.
``fraction_free`` is a Gauss-Jordan elimination on polynomial rows,
dividing exactly by the previous pivot; it gives every determinant (a
rational one in ``Matrix.det``, on constant polynomials), adjugate and
reduced frame.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from fractions import Fraction
from math import gcd, lcm
from operator import mul

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

    def _integer_echelon(self):
        """``echelon`` of the rows scaled to integers (``integer_rows``)."""
        return echelon(integer_rows(self.entries))

    def rref(self):
        """Reduced row echelon form.

        Returns (rref_matrix, pivot_columns, rank).  After the forward pass
        (_integer_echelon) a back pass clears each pivot column above its
        pivot, last pivot first; each entry is divided by its row's pivot once.
        """
        if self.rows == 0 or self.cols == 0:
            return self, (), 0
        rows, pivots = self._integer_echelon()
        for r in reversed(range(len(pivots))):
            _clear_column(rows, r, pivots[r], range(r))
        out = [[Fraction(a, row[c]) if a else _ZERO for a in row] for row, c in zip(rows, pivots)]
        out += [[_ZERO] * self.cols for _ in range(self.rows - len(pivots))]
        return Matrix(out), pivots, len(pivots)

    def pivot_columns(self) -> tuple:
        """The pivot columns of rref(), from the forward pass alone."""
        return self._integer_echelon()[1]

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


def integer_rows(rows: Iterable[Sequence]) -> list:
    """Each rational row scaled to integers by the lcm of its denominators,
    which changes neither its span nor the pivot columns."""
    out = []
    for row in rows:
        dens = [e.denominator for e in row]
        d = lcm(*dens)
        out.append([e.numerator * (d // q) for e, q in zip(row, dens)] if d > 1 else [e.numerator for e in row])
    return out


def echelon(rows: Sequence[Sequence[int]]):
    """Forward pass of the fraction-free elimination of integer rows.

    The pivot of column c is its first nonzero entry at or below the current
    row, and _clear_column clears the rows below it.  Returns (rows, pivots):
    an integer row echelon form with the pivot columns of the RREF, whose
    count is the rank.  The given rows are not changed.
    """
    rows, pivots, n_rows = list(rows), [], len(rows)
    for c in range(len(rows[0]) if rows else 0):
        r = len(pivots)
        if r == n_rows:
            break
        for i in range(r, n_rows):
            if rows[i][c]:
                break
        else:  # no pivot in column c
            continue
        rows[r], rows[i] = rows[i], rows[r]
        _clear_column(rows, r, c, range(r + 1, n_rows))
        pivots.append(c)
    return rows, tuple(pivots)


def _clear_column(rows: list, r: int, c: int, targets) -> None:
    """Each integer row of ``targets`` with an entry f in column c becomes
    (p * row - f * pivot row) / content, p being the pivot of row r."""
    top, p = rows[r], rows[r][c]
    for i in targets:
        f = rows[i][c]
        if f:
            row = [p * a - f * b for a, b in zip(rows[i], top)]
            g = gcd(*row)
            rows[i] = [a // g for a in row] if g > 1 else row


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
        self._hold(ambient_dim, red.entries[:rank])

    def _hold(self, ambient_dim: int, basis) -> "Subspace":
        """Sets the fields from rows already an RREF basis of Fractions;
        results built from such rows call it on Subspace.__new__(Subspace)."""
        object.__setattr__(self, "ambient_dim", ambient_dim)
        object.__setattr__(self, "basis", tuple(basis))
        return self

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
        return Matrix(self.basis + (vector,)).rank() == self.dim

    def contains_subspace(self, other: "Subspace") -> bool:
        """other <= self iff stacking other's basis on self's keeps the rank
        at dim self; an empty other is contained in every subspace."""
        if not other.basis:
            return True
        self._check_ambient(other)
        return Matrix(self.basis + other.basis).rank() == self.dim

    def _check_ambient(self, other: "Subspace"):
        if self.ambient_dim != other.ambient_dim:
            raise ValueError("ambient dimension mismatch")

    def sum(self, other: "Subspace") -> "Subspace":
        self._check_ambient(other)
        return Subspace(self.ambient_dim, list(self.basis) + list(other.basis))

    def intersect(self, other: "Subspace") -> "Subspace":
        """Zassenhaus: the RREF of the rows (a, a), a in self, and (b, 0), b in
        other, spans {(a + b, a)}; its rows pivoting in the right half are the
        (0, a) with a = -b, whose right halves span self n other.  Those rows
        of an RREF have zero left halves, so their right halves are an RREF."""
        self._check_ambient(other)
        d, zeros = self.ambient_dim, (_ZERO,) * self.ambient_dim
        red, pivots, _ = Matrix([a + a for a in self.basis] + [b + zeros for b in other.basis], 2 * d).rref()
        return Subspace.__new__(Subspace)._hold(d, [row[d:] for row, p in zip(red.entries, pivots) if p >= d])

    def complement_in(self, outer: "Subspace") -> "Subspace":
        """A deterministic direct complement: inner (+) result = outer.

        Picks each outer basis row (in RREF order) that extends the inner
        basis and the rows before it: the pivot columns of [inner; outer]
        transposed, of which the (independent) inner columns are the first.
        Rows of an RREF taken in order are an RREF themselves.
        """
        self._check_ambient(outer)
        if not outer.contains_subspace(self):
            raise ValueError("inner subspace is not contained in the outer one")
        stack = Matrix(self.basis + outer.basis, self.ambient_dim).transpose()
        chosen = [outer.basis[c - self.dim] for c in stack.pivot_columns() if c >= self.dim]
        return Subspace.__new__(Subspace)._hold(self.ambient_dim, chosen)

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
