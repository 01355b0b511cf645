"""Transport of subspaces of V (+) V* through a linear map.

For a linear map L: Q^n -> Q^m (the differential of a map of manifolds at a
point), the pullback takes subspaces of Q^{2m} to subspaces of Q^{2n} and the
pushforward goes the other way.  They are one construction: the swap
sigma(X, a) = (a, X) preserves g, and push_L = sigma o pull_{L^T} o sigma, so
the pushforward runs the pullback kernel ``pull_rows`` on L^T with the two
halves of every row swapped.  The dimension bookkeeping (the S / Sigma
auxiliary spaces and the predicted dimensions) is exposed so tests can verify
the counting identities independently of the solved subspaces.
"""

from __future__ import annotations

from collections.abc import Sequence
from math import lcm

from .linalg import Matrix, Subspace, integer_rows, kernel
from .pointwise import GeometryError, orthogonal_g, swap_halves, window
from .record import Record
from .scalars import as_fraction


class LinearMap(Record):
    """An m x n rational matrix acting on tangent vectors; its transpose
    moves covectors the other way."""

    n: int
    m: int
    matrix: Matrix

    def __post_init__(self):
        if (self.matrix.rows, self.matrix.cols) != (self.m, self.n):
            raise GeometryError(f"matrix shape must be {self.m}x{self.n}")

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence]) -> "LinearMap":
        mat = Matrix([[as_fraction(x) for x in row] for row in rows])
        return cls(mat.cols, mat.rows, mat)

    @classmethod
    def identity(cls, n: int) -> "LinearMap":
        return cls(n, n, Matrix.identity(n))

    def push(self, vector) -> tuple:
        return self.matrix.apply(vector)

    def pull(self, covector) -> tuple:
        return self.matrix.transpose().apply(covector)

    def ker_pull(self) -> Subspace:
        """ker L^T in the target cotangent space."""
        return kernel(self.matrix.transpose())

    def is_surjective(self) -> bool:
        return self.matrix.rank() == self.m

    def is_injective(self) -> bool:
        return self.matrix.rank() == self.n


def _check_ambient(space: Subspace, dim: int, what: str):
    if space.ambient_dim != 2 * dim:
        raise GeometryError(f"{what}: expected ambient dimension {2 * dim}, got {space.ambient_dim}")


def pull_equations(Mt: Matrix, eq_rows) -> tuple:
    """(A, Mi, d): with Mt = Mi / d, Mi integer, the unknowns (X, a) of
    ``pull_rows`` solve the rows A = (Mi e_tan, d e_cot) of the equation rows
    e, so its row count, the solution dimension, is n + m - rank A."""
    n, m = Mt.rows, Mt.cols
    d = lcm(*(e.denominator for row in Mt.entries for e in row))
    Mi = [[e.numerator * (d // e.denominator) for e in row] for row in Mt.entries]
    return Matrix([_apply(Mi, e[:m]) + tuple(d * c for c in e[m:]) for e in eq_rows], n + m), Mi, d


def _apply(Mi, vector) -> tuple:
    return tuple(sum(c * x for c, x in zip(row, vector) if c) for row in Mi)


def pull_rows(Mt: Matrix, eq_rows) -> list:
    """Rows spanning {(X, Mt a) : (M X, a) is annihilated by eq_rows}, where
    Mt is the n x m transpose of M: Q^n -> Q^m and eq_rows have length 2m.
    One row per kernel vector (X, a), so the row count is the solution
    dimension: dim space_S(M, E) for E cut out by eq_rows and M injective.
    Each solution of ``pull_equations``, scaled to integers, gives (d X, Mi a)."""
    A, Mi, d = pull_equations(Mt, eq_rows)
    n = Mt.rows
    return [tuple(d * x for x in v[:n]) + _apply(Mi, v[n:]) for v in integer_rows(A.kernel_rows())]


def pullback_subspace(L: LinearMap, E: Subspace) -> Subspace:
    """{(X, L^T a) : (L X, a) in E} as a subspace of Q^{2n}."""
    _check_ambient(E, L.m, "pullback")
    return Subspace(2 * L.n, pull_rows(L.matrix.transpose(), E.equations().entries))


def pushforward_subspace(L: LinearMap, E: Subspace) -> Subspace:
    """{(L X, a) : (X, L^T a) in E} as a subspace of Q^{2m}: the pullback
    through L^T, conjugated by the swap."""
    _check_ambient(E, L.n, "pushforward")
    pulled = pull_rows(L.matrix, swap_halves(E.equations().entries))
    return Subspace(2 * L.m, swap_halves(pulled))


def e_cap_ker_pull(L: LinearMap, E: Subspace) -> Subspace:
    """E n (0 (+) ker L^T) inside Q^{2m}."""
    _check_ambient(E, L.m, "e_cap_ker_pull")
    return E.intersect(window(L.m, (), L.ker_pull().basis))


def e_cap_ker_push(L: LinearMap, E: Subspace) -> Subspace:
    """E n (ker L (+) 0) inside Q^{2n}."""
    _check_ambient(E, L.n, "e_cap_ker_push")
    return E.intersect(window(L.n, kernel(L.matrix).basis, ()))


def space_S(L: LinearMap, E: Subspace) -> Subspace:
    """E n (im L (+) target covectors): the pairs that see the source."""
    _check_ambient(E, L.m, "space_S")
    return E.intersect(window(L.m, L.matrix.transpose().entries, Matrix.identity(L.m).entries))


def space_sigma(L: LinearMap, E: Subspace) -> Subspace:
    """E n (source vectors (+) im L^T): the pairs that project to the target."""
    _check_ambient(E, L.n, "space_sigma")
    return E.intersect(window(L.n, Matrix.identity(L.n).entries, L.matrix.entries))


def _predict_dim(what: str, cap, L: LinearMap, E, E_prime, source: int, target: int) -> int:
    """source - target + k corrected by the kernel overlaps cap(L, E') and cap(L, E)."""
    _check_ambient(E, target, what)
    E_prime = orthogonal_g(E) if E_prime is None else E_prime
    return source - target + E.dim + cap(L, E_prime).dim - cap(L, E).dim


def predict_pullback_dim(L: LinearMap, E: Subspace, E_prime: Subspace | None = None) -> int:
    """n - m + k corrected by the kernel overlaps of E and E'."""
    return _predict_dim("predict_pullback_dim", e_cap_ker_pull, L, E, E_prime, L.n, L.m)


def predict_pushforward_dim(L: LinearMap, E: Subspace, E_prime: Subspace | None = None) -> int:
    """m - n + k corrected by the kernel overlaps of E and E'."""
    return _predict_dim("predict_pushforward_dim", e_cap_ker_push, L, E, E_prime, L.m, L.n)


def pushpull(L: LinearMap, E: Subspace) -> Subspace:
    """Pushforward of the pullback; equals E when L is surjective."""
    if not L.is_surjective():
        raise GeometryError("pushpull round trip requires a surjective map")
    return pushforward_subspace(L, pullback_subspace(L, E))


def pullpush(L: LinearMap, E: Subspace) -> Subspace:
    """Pullback of the pushforward; equals E when L is injective."""
    if not L.is_injective():
        raise GeometryError("pullpush round trip requires an injective map")
    return pullback_subspace(L, pushforward_subspace(L, E))
