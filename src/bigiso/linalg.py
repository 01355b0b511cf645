"""Dense exact linear algebra over Q (and over rational-function fields).

Everything is deterministic: reduced row echelon form gives each subspace a
unique representative, so subspace equality is plain tuple equality.  Matrix
entries may be Fractions or RationalFunctions; both support +, -, *, / and
compare equal to 0 exactly.  Rank and pivot columns of a rational matrix are
found by fraction-free elimination over the integers.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Iterable, Sequence

from .scalars import Polynomial, RationalFunction, as_fraction


def zero_like(entry):
    if isinstance(entry, RationalFunction):
        return RationalFunction.zero(entry.vars)
    if isinstance(entry, Polynomial):
        return Polynomial.zero(entry.vars)
    return Fraction(0)


def one_like(entry):
    if isinstance(entry, RationalFunction):
        return RationalFunction.one(entry.vars)
    if isinstance(entry, Polynomial):
        return Polynomial.one(entry.vars)
    return Fraction(1)


def _complexity(entry) -> int:
    # pivot-selection heuristic: prefer structurally simple entries
    if isinstance(entry, RationalFunction):
        return len(entry.num.terms) + len(entry.den.terms)
    return 1


class Matrix:
    """Immutable dense matrix over an exact field."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries: Sequence[Sequence]):
        entries = tuple(tuple(row) for row in entries)
        if entries:
            width = len(entries[0])
            if any(len(r) != width for r in entries):
                raise ValueError("ragged rows")
        else:
            width = 0
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "rows", len(entries))
        object.__setattr__(self, "cols", width)

    def __setattr__(self, *_):
        raise AttributeError("Matrix is immutable")

    @classmethod
    def identity(cls, n: int, one=Fraction(1)) -> "Matrix":
        zero = zero_like(one)
        return cls([[one if i == j else zero for j in range(n)] for i in range(n)])

    @classmethod
    def zeros(cls, rows: int, cols: int, zero=Fraction(0)) -> "Matrix":
        return cls([[zero] * cols for _ in range(rows)])

    def row(self, i) -> tuple:
        return self.entries[i]

    def column(self, j) -> tuple:
        return tuple(r[j] for r in self.entries)

    def transpose(self) -> "Matrix":
        return Matrix([self.column(j) for j in range(self.cols)])

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def __eq__(self, other):
        return isinstance(other, Matrix) and self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __mul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        out = []
        for i in range(self.rows):
            row = []
            for j in range(other.cols):
                acc = None
                for k in range(self.cols):
                    term = self.entries[i][k] * other.entries[k][j]
                    acc = term if acc is None else acc + term
                row.append(acc if acc is not None else Fraction(0))
            out.append(row)
        return Matrix(out)

    def __add__(self, other: "Matrix") -> "Matrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        return Matrix(
            [
                [a + b for a, b in zip(r1, r2)]
                for r1, r2 in zip(self.entries, other.entries)
            ]
        )

    def __sub__(self, other: "Matrix") -> "Matrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        return Matrix(
            [
                [a - b for a, b in zip(r1, r2)]
                for r1, r2 in zip(self.entries, other.entries)
            ]
        )

    def scale(self, c) -> "Matrix":
        return Matrix([[e * c for e in row] for row in self.entries])

    def apply(self, vector: Sequence) -> tuple:
        if len(vector) != self.cols:
            raise ValueError("vector length mismatch")
        out = []
        for i in range(self.rows):
            acc = None
            for a, v in zip(self.entries[i], vector):
                term = a * v
                acc = term if acc is None else acc + term
            out.append(acc if acc is not None else Fraction(0))
        return tuple(out)

    def stack(self, other: "Matrix") -> "Matrix":
        if other.rows and self.rows and other.cols != self.cols:
            raise ValueError("column mismatch")
        return Matrix(self.entries + other.entries)

    def submatrix(self, row_idx: Iterable[int], col_idx: Iterable[int]) -> "Matrix":
        return Matrix([[self.entries[i][j] for j in col_idx] for i in row_idx])

    def rref(self):
        """Reduced row echelon form.

        Returns (rref_matrix, pivot_columns, rank).  Pivot selection inside a
        column prefers structurally simple entries (keeps rational-function
        intermediates small) with the row index as tie break, so the result
        is deterministic.
        """
        if self.rows == 0 or self.cols == 0:
            return self, (), 0
        m = [list(row) for row in self.entries]
        n_rows, n_cols = self.rows, self.cols
        pivots = []
        r = 0
        for c in range(n_cols):
            if r >= n_rows:
                break
            best = None
            for i in range(r, n_rows):
                if not (m[i][c] == 0):
                    score = (_complexity(m[i][c]), i)
                    if best is None or score < best[0]:
                        best = (score, i)
            if best is None:
                continue
            i = best[1]
            m[r], m[i] = m[i], m[r]
            inv = one_like(m[r][c]) / m[r][c]
            m[r] = [e * inv for e in m[r]]
            for i2 in range(n_rows):
                if i2 != r and not (m[i2][c] == 0):
                    f = m[i2][c]
                    m[i2] = [a - f * b for a, b in zip(m[i2], m[r])]
            pivots.append(c)
            r += 1
        return Matrix(m), tuple(pivots), r

    def pivot_columns(self) -> tuple:
        """The pivot columns of rref(), without its divisions over Q.

        A matrix of Fractions and ints has each row scaled to integers by the
        lcm of its denominators, which changes no pivot column, and is then
        brought to echelon form by fraction-free (Bareiss) elimination: every
        entry stays an integer minor, and each division by the previous pivot
        is exact.  Pivot columns do not depend on the row operations used, so
        they are those of the RREF.  Other entries (RationalFunction,
        Polynomial) go through rref().
        """
        if not all(isinstance(e, (Fraction, int)) for row in self.entries for e in row):
            return self.rref()[1]
        rows = []
        for row in self.entries:
            d = lcm(*(e.denominator for e in row))
            rows.append([e.numerator * (d // e.denominator) for e in row])
        pivots = []
        prev = 1
        for c in range(self.cols):
            r = len(pivots)
            if r == self.rows:
                break
            i = next((i for i in range(r, self.rows) if rows[i][c]), None)
            if i is None:
                continue
            rows[r], rows[i] = rows[i], rows[r]
            top = rows[r]
            p = top[c]
            for i2 in range(r + 1, self.rows):
                f = rows[i2][c]
                rows[i2] = [(p * a - f * b) // prev for a, b in zip(rows[i2], top)]
            prev = p
            pivots.append(c)
        return tuple(pivots)

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
        x = [Fraction(0)] * self.cols
        for r_i, p in enumerate(pivots):
            x[p] = red.entries[r_i][self.cols]
        return tuple(x)

    def kernel_rows(self):
        """Basis rows of the right null space {x : M x = 0} (RREF-canonical)."""
        red, pivots, rank = self.rref()
        piv_set = set(pivots)
        free = [c for c in range(self.cols) if c not in piv_set]
        if self.cols == 0:
            return []
        sample = self.entries[0][0] if self.rows else Fraction(0)
        zero, one = zero_like(sample), one_like(sample)
        basis = []
        for f in free:
            vec = [zero] * self.cols
            vec[f] = one
            for r_i, p in enumerate(pivots):
                vec[p] = -red.entries[r_i][f]
            basis.append(tuple(vec))
        return basis

    def det(self):
        """Determinant by fraction-producing Gaussian elimination."""
        if self.rows != self.cols:
            raise ValueError("determinant of a non-square matrix")
        n = self.rows
        if n == 0:
            return Fraction(1)
        m = [list(row) for row in self.entries]
        sample = m[0][0]
        result = one_like(sample)
        sign = 1
        for c in range(n):
            best = None
            for i in range(c, n):
                if not (m[i][c] == 0):
                    score = (_complexity(m[i][c]), i)
                    if best is None or score < best[0]:
                        best = (score, i)
            if best is None:
                return zero_like(sample)
            i = best[1]
            if i != c:
                m[c], m[i] = m[i], m[c]
                sign = -sign
            result = result * m[c][c]
            inv = one_like(m[c][c]) / m[c][c]
            for i2 in range(c + 1, n):
                if not (m[i2][c] == 0):
                    f = m[i2][c] * inv
                    m[i2] = [a - f * b for a, b in zip(m[i2], m[c])]
        return result * sign if sign == 1 else -result

    def inverse(self) -> "Matrix":
        if self.rows != self.cols:
            raise ValueError("inverse of a non-square matrix")
        n = self.rows
        one = one_like(self.entries[0][0]) if n else Fraction(1)
        aug = Matrix([list(self.entries[i]) + list(Matrix.identity(n, one).entries[i]) for i in range(n)])
        red, pivots, rank = aug.rref()
        if rank < n or any(p >= n for p in pivots):
            raise ValueError("matrix is singular")
        return Matrix([row[n:] for row in red.entries])

    def __str__(self):
        return "\n".join("[" + ", ".join(str(e) for e in row) + "]" for row in self.entries)


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
        if rows:
            red, _, rank = Matrix(rows).rref()
            basis = tuple(red.entries[:rank])
        else:
            basis = ()
        object.__setattr__(self, "ambient_dim", ambient_dim)
        object.__setattr__(self, "basis", basis)

    def __setattr__(self, *_):
        raise AttributeError("Subspace is immutable")

    @classmethod
    def full(cls, d: int) -> "Subspace":
        return cls(d, Matrix.identity(d).entries)

    @property
    def dim(self) -> int:
        return len(self.basis)

    def basis_matrix(self) -> Matrix:
        return Matrix(self.basis) if self.basis else Matrix.zeros(0, self.ambient_dim)

    def equations(self) -> Matrix:
        """Rows e with: v in self  iff  e . v = 0 for every row."""
        rows = self.basis_matrix().kernel_rows() if self.basis else Matrix.identity(self.ambient_dim).entries
        return Matrix(rows) if rows else Matrix.zeros(0, self.ambient_dim)

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
        eqs = Matrix(list(self.equations().entries) + list(other.equations().entries))
        if eqs.rows == 0:
            return Subspace.full(self.ambient_dim)
        return Subspace(self.ambient_dim, eqs.kernel_rows())

    def complement_in(self, outer: "Subspace") -> "Subspace":
        """A deterministic direct complement: inner (+) result = outer.

        Picks outer basis rows (in RREF order) that extend the inner basis.
        """
        self._check_ambient(outer)
        if not outer.contains_subspace(self):
            raise ValueError("inner subspace is not contained in the outer one")
        current = list(self.basis)
        rank = Matrix(current).rank() if current else 0
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
