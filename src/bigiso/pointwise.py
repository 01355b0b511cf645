"""Pointwise geometry of the double space Q^m (+) (Q^m)*.

A point value of a section of TM (+) T*M is a pair (X, alpha); we store it as
a single vector of length 2m (tangent components first, covector components
in the dual coordinate basis second).  The neutral pairing g, the 2-form
omega, g-orthogonals, the characteristic triple (E, E', varpi) and its
reconstruction, and the canonical almost-Dirac extension all live here.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction

from .linalg import Matrix, Subspace, combine, complement_in, kernel
from .record import Record
from .scalars import as_fraction


class GeometryError(ValueError):
    pass


class BigVector(Record):
    """A tangent/cotangent pair at a point."""

    m: int
    tangent: tuple
    cotangent: tuple

    def __post_init__(self):
        object.__setattr__(self, "tangent", tuple(as_fraction(x) for x in self.tangent))
        object.__setattr__(self, "cotangent", tuple(as_fraction(x) for x in self.cotangent))
        if len(self.tangent) != self.m or len(self.cotangent) != self.m:
            raise GeometryError("component lengths must equal m")


def pairing_g(u: BigVector, v: BigVector) -> Fraction:
    """Neutral metric: half the sum of the two mixed contractions."""
    if u.m != v.m:
        raise GeometryError("dimension mismatch")
    a_y = sum(a * y for a, y in zip(u.cotangent, v.tangent))
    b_x = sum(b * x for b, x in zip(v.cotangent, u.tangent))
    return Fraction(a_y + b_x, 2)


def form_omega(u: BigVector, v: BigVector) -> Fraction:
    """The companion nondegenerate 2-form (antisymmetric counterpart of g)."""
    if u.m != v.m:
        raise GeometryError("dimension mismatch")
    a_y = sum(a * y for a, y in zip(u.cotangent, v.tangent))
    b_x = sum(b * x for b, x in zip(v.cotangent, u.tangent))
    return Fraction(a_y - b_x, 2)


def _pairing_row(row_u: Sequence, row_v: Sequence) -> Fraction:
    """g on two rows of length 2m; products with a zero factor are skipped."""
    m = len(row_u) // 2
    a_y = sum(a * y for a, y in zip(row_u[m:], row_v) if a and y)
    b_x = sum(b * x for b, x in zip(row_v[m:], row_u) if b and x)
    return Fraction(a_y + b_x, 2)


def swap_halves(rows) -> list:
    """Each row (X, a) of length 2m as (a, X); the swap preserves g."""
    return [tuple(row[len(row) // 2 :]) + tuple(row[: len(row) // 2]) for row in rows]


def orthogonal_g(space: Subspace) -> Subspace:
    """g-orthogonal complement inside Q^{2m}."""
    if space.ambient_dim % 2:
        raise GeometryError("ambient dimension must be even")
    # v orthogonal to basis row b  iff  (J b) . v = 0 with J swapping halves
    return kernel(Matrix(swap_halves(space.basis), space.ambient_dim))


def is_isotropic(space: Subspace) -> bool:
    if space.ambient_dim % 2:
        raise GeometryError("ambient dimension must be even")
    rows = space.basis
    return all(_pairing_row(r1, r2) == 0 for i, r1 in enumerate(rows) for r2 in rows[i:])


def tangent_projection(space: Subspace) -> Subspace:
    m = space.ambient_dim // 2
    return Subspace(m, [row[:m] for row in space.basis])


def window(m: int, tangent_rows, cotangent_rows) -> Subspace:
    """The subspace T (+) C of Q^m (+) (Q^m)* spanned by the rows (v, 0) for
    v in tangent_rows and (0, w) for w in cotangent_rows."""
    zeros = (Fraction(0),) * m
    rows = [tuple(v) + zeros for v in tangent_rows] + [zeros + tuple(w) for w in cotangent_rows]
    return Subspace(2 * m, rows)


class IsotropicData(Record):
    """An isotropic subspace E together with its g-orthogonal E'."""

    m: int
    E: Subspace
    E_prime: Subspace

    def __post_init__(self):
        if self.E.ambient_dim != 2 * self.m or self.E_prime.ambient_dim != 2 * self.m:
            raise GeometryError("ambient dimension must be 2m")
        if self.E.dim + self.E_prime.dim != 2 * self.m:
            raise GeometryError("dim E + dim E' must equal 2m")
        # g is nondegenerate, so with these dimensions g(E, E') = 0 forces
        # E' = orth(E), and then E lies in E' exactly when E is isotropic
        if any(_pairing_row(r1, r2) != 0 for r1 in self.E.basis for r2 in self.E_prime.basis):
            if not self.E_prime.contains_subspace(self.E):
                raise GeometryError("E must be contained in E' (non-isotropic input?)")
            raise GeometryError("g does not vanish on E x E'")
        if not is_isotropic(self.E):
            raise GeometryError("E must be contained in E' (non-isotropic input?)")

    @classmethod
    def from_E(cls, E: Subspace) -> "IsotropicData":
        return cls(E.ambient_dim // 2, E, orthogonal_g(E))

    @property
    def rank(self) -> int:
        return self.E.dim


class CharacteristicTriple(Record):
    """Tangent projections of (E, E') plus the induced bilinear map.

    ``varpi`` holds the values on the RREF bases of cal_E x cal_E_prime, so
    equal structures produce identical triples.
    """

    m: int
    cal_E: Subspace
    cal_E_prime: Subspace
    varpi: Matrix

    def __post_init__(self):
        if not self.cal_E_prime.contains_subspace(self.cal_E):
            raise GeometryError("cal_E must be contained in cal_E_prime")
        if self.varpi.rows != self.cal_E.dim or (
            self.varpi.rows > 0 and self.varpi.cols != self.cal_E_prime.dim
        ):
            raise GeometryError("varpi shape must be dim cal_E x dim cal_E_prime")
        # restriction to cal_E x cal_E must be skew-symmetric
        r = self.cal_E.dim
        if r:
            coeffs = _coordinates_in(self.cal_E_prime, self.cal_E.basis)
            restricted = self.varpi * Matrix(coeffs).transpose()
            for i in range(r):
                for j in range(r):
                    if restricted[i, j] + restricted[j, i] != 0:
                        raise GeometryError("varpi restricted to cal_E x cal_E is not skew")

    def varpi_on(self, x_vec, y_vec) -> Fraction:
        cx = _coordinates_in(self.cal_E, [tuple(x_vec)])[0]
        cy = _coordinates_in(self.cal_E_prime, [tuple(y_vec)])[0]
        total = Fraction(0)
        for i, a in enumerate(cx):
            for j, b in enumerate(cy):
                total += a * b * self.varpi[i, j]
        return total


def _coordinates(basis_rows, width: int, vectors, message: str) -> list:
    """Coefficients of each vector in the span of the basis rows, read on
    their first width coordinates (free coefficients 0)."""
    basis_t = Matrix([[row[i] for row in basis_rows] for i in range(width)])
    out = []
    for v in vectors:
        coords = basis_t.solve(v)
        if coords is None:
            raise GeometryError(message)
        out.append(coords)
    return out


def _coordinates_in(space: Subspace, vectors) -> list:
    """Coordinates of each vector in the RREF basis of ``space``."""
    return _coordinates(space.basis, space.ambient_dim, vectors, "vector not in subspace")


def characteristic_triple(data: IsotropicData) -> CharacteristicTriple:
    """Project E, E' to the tangent factor and materialize varpi.

    varpi(X, Y) is the contraction of any E-lift covector of X with Y; the
    result is checked against the E'-side formula (-beta(X)) for every basis
    pair, which certifies well-definedness.
    """
    m = data.m
    cal_E = tangent_projection(data.E)
    cal_Ep = tangent_projection(data.E_prime)
    lifts_E = [covector_lift(data.E, x) for x in cal_E.basis]
    lifts_Ep = [covector_lift(data.E_prime, y) for y in cal_Ep.basis]
    w = []
    for x_vec, alpha in zip(cal_E.basis, lifts_E):
        row = []
        for y_vec, beta in zip(cal_Ep.basis, lifts_Ep):
            a_y = sum(a * y for a, y in zip(alpha, y_vec))
            b_x = sum(b * x for b, x in zip(beta, x_vec))
            if a_y != -b_x:
                raise GeometryError("varpi is not well defined (input not isotropic?)")
            row.append(a_y)
        w.append(row)
    return CharacteristicTriple(m, cal_E, cal_Ep, Matrix(w, cal_Ep.dim))


def covector_lift(space: Subspace, x_vec) -> tuple:
    """A covector alpha with (x_vec, alpha) in space (deterministic choice)."""
    m = space.ambient_dim // 2
    basis = space.basis
    coeffs = _coordinates(basis, m, [x_vec], "vector has no lift in the subspace")[0]
    return combine(coeffs, [row[m:] for row in basis], m)


def _graph_over(m: int, base, partner, W) -> Subspace:
    """{(sum_i c_i b_i, alpha) : alpha(p_j) = sum_i W[i][j] c_i for every j},
    for base rows b_i and partner rows p_j of Q^m."""
    r = len(base)
    # unknowns (c_1..c_r, alpha_1..alpha_m), one equation per partner row
    eq_rows = [[-W[i][j] for i in range(r)] + list(p) for j, p in enumerate(partner)]
    sol = Matrix(eq_rows, r + m).kernel_rows()
    return Subspace(2 * m, [combine(v[:r], base, m) + tuple(v[r:]) for v in sol])


def reconstruct(triple: CharacteristicTriple) -> IsotropicData:
    """Assemble the isotropic pair determined by a characteristic triple.

    E collects the pairs (X, alpha) with X in cal_E and alpha matching
    varpi(X, .) on cal_E_prime; E' collects (Y, beta) with beta matching
    -varpi(., Y) on cal_E.  Both are one graph construction, applied to
    (cal_E, cal_E', varpi) and to (cal_E', cal_E, -varpi^T).
    """
    m, varpi = triple.m, triple.varpi
    cal_E, cal_Ep = triple.cal_E.basis, triple.cal_E_prime.basis
    minus_varpi_t = [[-varpi[i, j] for i in range(len(cal_E))] for j in range(len(cal_Ep))]
    E = _graph_over(m, cal_E, cal_Ep, varpi.entries)
    E_prime = _graph_over(m, cal_Ep, cal_E, minus_varpi_t)
    return IsotropicData(m, E, E_prime)


def dirac_extension(data: IsotropicData) -> Subspace:
    """The canonical almost-Dirac space E + ann(cal_E), of dimension m."""
    ann_rows = tangent_projection(data.E).equations().entries
    return data.E.sum(window(data.m, (), ann_rows))


def flat_varpi_kernel(data: IsotropicData) -> Subspace:
    """Kernel of X -> varpi(X, .), which is the tangent part of E n (TM (+) 0)."""
    tangent = window(data.m, Matrix.identity(data.m).entries, ())
    return tangent_projection(data.E.intersect(tangent))


def is_graph_type(data: IsotropicData) -> bool:
    """True when E meets the tangent summand only in 0: E n (TM (+) 0) is the
    kernel of (X, alpha) -> alpha on E, so its dimension is dim E minus the
    rank of the covector parts of E's basis."""
    return Matrix([row[data.m :] for row in data.E.basis], data.m).rank() == data.E.dim


def random_subspace(rng, d: int, dim_hint: int | None = None, span: int = 3) -> Subspace:
    rows = dim_hint if dim_hint is not None else rng.randint(0, d)
    return Subspace(d, [[Fraction(rng.randint(-span, span)) for _ in range(d)] for _ in range(rows)])


def random_isotropic(rng, m: int) -> IsotropicData:
    """Sample an isotropic pair by building a random characteristic triple."""
    cal_Ep = random_subspace(rng, m)
    # random subspace of cal_Ep
    rp = cal_Ep.dim
    n_mix = rng.randint(0, rp)
    mix_rows = []
    for _ in range(n_mix):
        coeffs = [Fraction(rng.randint(-2, 2)) for _ in range(rp)]
        mix_rows.append(combine(coeffs, cal_Ep.basis, m))
    cal_E = Subspace(m, mix_rows)
    r = cal_E.dim

    # varpi: skew part on cal_E x cal_E, free on a complement of cal_E in cal_Ep
    skew = [[Fraction(0)] * r for _ in range(r)]
    for i in range(r):
        for j in range(i + 1, r):
            c = Fraction(rng.randint(-3, 3))
            skew[i][j], skew[j][i] = c, -c
    comp = complement_in(cal_E, cal_Ep)
    free = [[Fraction(rng.randint(-3, 3)) for _ in range(comp.dim)] for _ in range(r)]
    # express varpi in the RREF basis of cal_Ep: columns = coordinates of that
    # basis in terms of (cal_E basis, complement basis)
    mixed_basis = list(cal_E.basis) + list(comp.basis)
    w = []
    if r:
        coords = _coordinates(mixed_basis, m, cal_Ep.basis, "vector not in span")
        for i in range(r):
            row = []
            for j in range(rp):
                val = Fraction(0)
                for t in range(r):
                    val += coords[j][t] * skew[i][t]
                for t in range(comp.dim):
                    val += coords[j][r + t] * free[i][t]
                row.append(val)
            w.append(row)
    varpi = Matrix(w, rp)
    return reconstruct(CharacteristicTriple(m, cal_E, cal_Ep, varpi))
