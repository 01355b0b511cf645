import itertools
import random
from fractions import Fraction
from math import gcd, lcm

import pytest

from bigiso.linalg import Matrix, Subspace, combine, complement_in, echelon, integer_rows, kernel
from bigiso.pointwise import random_subspace


def F(*vals):
    return [Fraction(v) for v in vals]


def random_matrix(rng, rows, cols, span=5):
    return Matrix([[Fraction(rng.randint(-span, span)) for _ in range(cols)] for _ in range(rows)])


def fraction_free_rank(m: Matrix) -> int:
    """Independent oracle: Bareiss-style fraction-free elimination rank."""
    a = [[int(e.numerator) * 720720 // e.denominator for e in row] for row in m.entries]
    # scale to integers (all our random entries are small fractions)
    rows, cols = m.rows, m.cols
    rank = 0
    r = 0
    for c in range(cols):
        piv = None
        for i in range(r, rows):
            if a[i][c] != 0:
                piv = i
                break
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        for i in range(r + 1, rows):
            if a[i][c] != 0:
                f1, f2 = a[r][c], a[i][c]
                a[i] = [f1 * x - f2 * y for x, y in zip(a[i], a[r])]
        r += 1
        rank += 1
    return rank


def test_rref_identity():
    ident = Matrix.identity(2)
    red, pivots, rank = ident.rref()
    assert red == ident
    assert pivots == (0, 1)
    assert rank == 2


def test_rref_dependent_rows():
    m = Matrix([F(1, 2), F(2, 4)])
    red, pivots, rank = m.rref()
    assert rank == 1
    assert red.entries == ((Fraction(1), Fraction(2)), (Fraction(0), Fraction(0)))


def test_rref_rank_matches_fraction_free_oracle():
    rng = random.Random(7)
    for _ in range(40):
        m = random_matrix(rng, 5, 8)
        assert m.rref()[2] == fraction_free_rank(m)


def test_kernel_identity_and_projection():
    assert kernel(Matrix.identity(3)).dim == 0
    k = kernel(Matrix([F(1, 0)]))
    assert k.basis == ((Fraction(0), Fraction(1)),)


def test_kernel_rank_nullity():
    rng = random.Random(11)
    for _ in range(30):
        m = random_matrix(rng, rng.randint(1, 6), rng.randint(1, 6))
        assert kernel(m).dim + m.rank() == m.cols
        for v in kernel(m).basis:
            assert all(e == 0 for e in m.apply(v))


def test_combine():
    rows = [F(1, 2, 3), F(0, 1, -1)]
    assert combine(F(2, -3), rows, 3) == tuple(F(2, 1, 9))
    assert combine(F(2, -3), rows, 2) == tuple(F(2, 1))
    assert combine((), (), 3) == tuple(F(0, 0, 0))
    rng = random.Random(40)
    for _ in range(30):
        mat = random_matrix(rng, rng.randint(0, 4), 3)
        coeffs = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(mat.rows)]
        expected = mat.transpose().apply(coeffs) if mat.rows else tuple(F(0, 0, 0))
        assert combine(coeffs, mat.entries, 3) == expected


def test_det_and_inverse():
    m = Matrix([F(2, 1), F(1, 1)])
    assert m.det() == 1
    assert m.inverse() * m == Matrix.identity(2)
    singular = Matrix([F(1, 2), F(2, 4)])
    assert singular.det() == 0
    with pytest.raises(ValueError):
        singular.inverse()


def leibniz_det(rows):
    """Independent oracle: the sum over permutations of signed products."""
    n = len(rows)
    total = Fraction(0)
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = Fraction(-1 if inversions % 2 else 1)
        for i, j in enumerate(perm):
            term *= rows[i][j]
        total += term
    return total


def test_det_matches_the_leibniz_expansion():
    rng = random.Random(18)
    for n in range(6):
        for trial in range(12):
            rows = [[Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n)] for _ in range(n)]
            if n and trial % 3 == 1:
                # the last row a combination of the others (zero when n = 1)
                coeffs = [Fraction(rng.randint(-2, 2)) for _ in range(n - 1)]
                rows[-1] = list(combine(coeffs, rows[:-1], n))
            elif n > 1 and trial % 3 == 2:
                # no pivot in the first row: the elimination swaps rows
                rows[0][0], rows[1][0] = Fraction(0), Fraction(rng.choice([-3, -1, 2, 5]), 2)
            expected = leibniz_det(rows)
            assert Matrix(rows, n).det() == expected
            if n and trial % 3 == 1:
                assert expected == 0
    assert Matrix([], 0).det() == 1
    with pytest.raises(ValueError):
        Matrix([F(1, 2)]).det()


class TestSubspace:
    def test_sum_of_axes(self):
        e1 = Subspace(2, [F(1, 0)])
        e2 = Subspace(2, [F(0, 1)])
        assert e1.sum(e2) == Subspace.full(2)

    def test_intersection(self):
        a = Subspace(3, [F(1, 0, 0), F(0, 1, 0)])
        b = Subspace(3, [F(0, 1, 0), F(0, 0, 1)])
        assert a.intersect(b) == Subspace(3, [F(0, 1, 0)])

    def test_complement_direct_sum(self):
        inner = Subspace(3, [F(1, 0, 0)])
        comp = complement_in(inner, Subspace.full(3))
        assert comp.dim == 2
        stacked = Matrix(list(inner.basis) + list(comp.basis))
        assert stacked.rank() == 3

    def test_complement_requires_containment(self):
        inner = Subspace(3, [F(0, 0, 1)])
        outer = Subspace(3, [F(1, 0, 0)])
        with pytest.raises(ValueError):
            complement_in(inner, outer)

    def test_dimension_formula_random(self):
        rng = random.Random(3)
        for _ in range(60):
            d = rng.randint(1, 8)
            a = Subspace(d, random_matrix(rng, rng.randint(0, d), d).entries)
            b = Subspace(d, random_matrix(rng, rng.randint(0, d), d).entries)
            assert a.sum(b).dim + a.intersect(b).dim == a.dim + b.dim

    def test_rref_canonicality(self):
        rng = random.Random(5)
        for _ in range(30):
            d = rng.randint(1, 6)
            rows = random_matrix(rng, rng.randint(1, d), d).entries
            a = Subspace(d, rows)
            # re-span with random invertible combinations of the basis
            k = a.dim
            if k == 0:
                continue
            while True:
                c = random_matrix(rng, k, k)
                if c.det() != 0:
                    break
            mixed = (c * a.basis_matrix()).entries
            assert Subspace(d, mixed) == a

    def test_contains_and_ambient_mismatch(self):
        a = Subspace(2, [F(1, 1)])
        assert a.contains(F(2, 2))
        assert not a.contains(F(1, 0))
        with pytest.raises(ValueError):
            a.contains(F(1, 0, 0))
        with pytest.raises(ValueError):
            a.sum(Subspace(3))

    def test_annihilator(self):
        a = Subspace(3, [F(1, 0, 0)])
        ann = a.annihilator()
        assert ann.dim == 2
        for w in ann.basis:
            assert sum(wi * vi for wi, vi in zip(w, a.basis[0])) == 0


def random_fraction(rng, den=4):
    return Fraction(rng.randint(-3, 3), rng.randint(1, den))


def random_q_matrix(rng):
    """A rational matrix of at most 6 x 7, often rank-deficient, sometimes
    with zero rows or columns, with int and Fraction entries mixed."""
    rows, cols = rng.randint(0, 6), rng.randint(0, 7)
    inner = rng.randint(0, min(rows, cols) + 1)
    left = [[random_fraction(rng) for _ in range(inner)] for _ in range(rows)]
    right = [[random_fraction(rng) for _ in range(cols)] for _ in range(inner)]
    entries = [
        [sum((row[t] * right[t][j] for t in range(inner)), Fraction(0)) for j in range(cols)]
        for row in left
    ]
    for row in entries:
        if rng.random() < 0.2:
            row[:] = [Fraction(0)] * cols
        elif rng.random() < 0.2:
            row[:] = [int(e) if e.denominator == 1 else e for e in row]
    return Matrix(entries) if rows else Matrix(())


def random_invertible(rng, n):
    while True:
        c = Matrix([[random_fraction(rng, 3) for _ in range(n)] for _ in range(n)])
        if c.det() != 0:
            return c


def check_pivots_and_canonicity(rng):
    a = random_q_matrix(rng)
    red, pivots, rank = a.rref()
    assert a.pivot_columns() == pivots and a.rank() == rank == len(pivots)
    assert rank == fraction_free_rank(Matrix([[Fraction(e) for e in r] for r in a.entries]))
    if a.rows:
        mixed = random_invertible(rng, a.rows) * a
        assert mixed.rref() == (red, pivots, rank)
        assert mixed.pivot_columns() == pivots


class TestShapeWithoutRows:
    def test_width_is_kept(self):
        assert (Matrix.zeros(0, 3).rows, Matrix.zeros(0, 3).cols) == (0, 3)
        assert Matrix((), 3) == Matrix.zeros(0, 3) != Matrix(())
        assert (Matrix([(), ()]).transpose().rows, Matrix([(), ()]).transpose().cols) == (0, 2)
        assert Matrix.zeros(0, 3).transpose() == Matrix([(), (), ()])
        assert (Matrix.zeros(2, 0) * Matrix.zeros(0, 3)) == Matrix.zeros(2, 3)
        assert (Matrix.zeros(0, 2) * Matrix.zeros(2, 3)).cols == 3
        assert Matrix.identity(3).submatrix([], range(3)) == Matrix.zeros(0, 3)

    def test_given_width_must_match_the_rows(self):
        assert Matrix([[1, 2]], 2).cols == 2
        with pytest.raises(ValueError):
            Matrix([[1, 2]], 3)

    def test_kernel_of_no_equations_is_everything(self):
        assert Matrix.zeros(0, 3).kernel_rows() == list(Matrix.identity(3).entries)
        assert kernel(Matrix.zeros(0, 2)) == Subspace.full(2)

    def test_equations_of_full_and_zero_spaces(self):
        assert Subspace.full(3).equations() == Matrix.zeros(0, 3)
        assert Subspace(3).equations() == Matrix.identity(3)
        assert Subspace(3).basis_matrix() == Matrix.zeros(0, 3)
        assert Subspace.full(3).intersect(Subspace.full(3)) == Subspace.full(3)


class TestPivotColumns:
    def test_match_rref_on_random_rational_matrices(self):
        for seed in range(300):
            check_pivots_and_canonicity(random.Random(seed))

    def test_match_rref_hypothesis(self):
        pytest.importorskip("hypothesis")
        from hypothesis import given, settings, strategies as st

        @settings(max_examples=100, deadline=None, derandomize=True)
        @given(st.integers(min_value=0, max_value=2**32 - 1))
        def check(seed):
            check_pivots_and_canonicity(random.Random(seed))

        check()

    def test_degenerate_shapes(self):
        assert Matrix(()).pivot_columns() == () and Matrix(()).rank() == 0
        assert Matrix([(), ()]).pivot_columns() == ()
        assert Matrix.zeros(3, 4).pivot_columns() == ()
        assert Matrix([[0, 0, Fraction(1, 3)], [0, 2, 5]]).pivot_columns() == (1, 2)
        assert Matrix([[Fraction(1, 2), Fraction(1, 3)], [3, 2]]).pivot_columns() == (0,)


class TestSolve:
    def test_solution_and_inconsistency(self):
        rng = random.Random(13)
        for _ in range(100):
            a = random_q_matrix(rng)
            if not a.rows:
                continue
            x = [Fraction(rng.randint(-3, 3)) for _ in range(a.cols)]
            b = a.apply(x) if a.cols else (Fraction(0),) * a.rows
            sol = a.solve(b)
            assert sol is not None and a.apply(sol) == tuple(b) if a.cols else sol == ()
            red, pivots, _ = a.rref()
            assert all(sol[c] == 0 for c in range(a.cols) if c not in pivots)
            off = [e + rng.randint(-1, 1) for e in b]
            rank = a.rank()
            consistent = Matrix([list(r) + [e] for r, e in zip(a.entries, off)]).rank() == rank
            assert (a.solve(off) is not None) == consistent

    def test_no_unknowns(self):
        assert Matrix([(), ()]).solve([0, 0]) == ()
        assert Matrix([(), ()]).solve([0, 1]) is None
        with pytest.raises(ValueError):
            Matrix([(), ()]).solve([0])


def fraction_gauss_jordan(m: Matrix):
    """Oracle: the Gauss-Jordan elimination over Fractions that rref() ran
    before it eliminated over the integers (first nonzero pivot in each
    column, pivot row scaled to 1, the column cleared above and below)."""
    if m.rows == 0 or m.cols == 0:
        return m, (), 0
    a = [[Fraction(e) for e in row] for row in m.entries]
    pivots = []
    for c in range(m.cols):
        r = len(pivots)
        if r == m.rows:
            break
        i = next((i for i in range(r, m.rows) if a[i][c] != 0), None)
        if i is None:
            continue
        a[r], a[i] = a[i], a[r]
        inv = 1 / a[r][c]
        a[r] = [e * inv for e in a[r]]
        for i2 in range(m.rows):
            if i2 != r and a[i2][c] != 0:
                f = a[i2][c]
                a[i2] = [x - f * y for x, y in zip(a[i2], a[r])]
        pivots.append(c)
    return Matrix(a), tuple(pivots), len(pivots)


def with_zero_columns(rng, m: Matrix) -> Matrix:
    if not m.rows or not m.cols:
        return m
    zero = {c for c in range(m.cols) if rng.random() < 0.25}
    return Matrix([[0 if c in zero else e for c, e in enumerate(row)] for row in m.entries])


class TestIntegerRref:
    def test_equals_the_fraction_oracle_on_random_matrices(self):
        for seed in range(400):
            rng = random.Random(seed)
            a = random_q_matrix(rng)
            for m in (a, with_zero_columns(rng, a)):
                red, pivots, rank = m.rref()
                assert (red, pivots, rank) == fraction_gauss_jordan(m)
                assert all(type(e) is Fraction for row in red.entries for e in row)
                assert m.pivot_columns() == pivots and m.rank() == rank

    def test_large_entries_and_full_rank(self):
        rng = random.Random(5)
        for n in range(1, 7):
            m = Matrix([[Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**4)) for _ in range(n + 1)] for _ in range(n)])
            assert m.rref() == fraction_gauss_jordan(m)

    def test_degenerate_shapes(self):
        for m in (Matrix(()), Matrix((), 4), Matrix([(), ()]), Matrix.zeros(3, 4), Matrix([[0, 0, 5]])):
            assert m.rref() == fraction_gauss_jordan(m)
        red, pivots, rank = Matrix([[0, 2, 4], [0, 1, 2], [0, 0, 0]]).rref()
        assert (pivots, rank) == ((1,), 1)
        assert red.entries == ((0, 1, 2), (0, 0, 0), (0, 0, 0))

    def test_kernel_solve_and_subspace_follow_the_oracle(self):
        for seed in range(150):
            a = random_q_matrix(random.Random(1000 + seed))
            red, pivots, rank = fraction_gauss_jordan(a)
            assert Subspace(a.cols, a.entries).basis == tuple(red.entries[:rank])
            free = [c for c in range(a.cols) if c not in pivots]
            assert len(a.kernel_rows()) == len(free)
            for x in a.kernel_rows():
                assert all(v == 0 for v in a.apply(x))


def rref_reference(m: Matrix):
    """Oracle: the one-pass integer Gauss-Jordan elimination that rref(),
    rank() and pivot_columns() ran before the forward and back passes were
    split (each pivot clears its column above and below at once).  Returns
    (rref_matrix, pivot_columns, rank)."""
    if m.rows == 0 or m.cols == 0:
        return m, (), 0
    rows = []
    for row in m.entries:
        d = lcm(*(Fraction(e).denominator for e in row))
        rows.append([int(Fraction(e) * d) for e in row])
    pivots = []
    for c in range(m.cols):
        r = len(pivots)
        if r == m.rows:
            break
        i = next((i for i in range(r, m.rows) if rows[i][c]), None)
        if i is None:
            continue
        rows[r], rows[i] = rows[i], rows[r]
        top = rows[r]
        p = top[c]
        for i2 in range(m.rows):
            f = rows[i2][c]
            if f and i2 != r:
                row = [p * a - f * b for a, b in zip(rows[i2], top)]
                g = gcd(*row)
                rows[i2] = [a // g for a in row] if g > 1 else row
        pivots.append(c)
    out = [[Fraction(a, row[c]) for a in row] for row, c in zip(rows, pivots)]
    out += [[Fraction(0)] * m.cols for _ in range(m.rows - len(pivots))]
    return Matrix(out), tuple(pivots), len(pivots)


def random_elimination_matrix(rng):
    """A rational matrix of 0-6 rows and 0-8 columns whose rows are random,
    zero, repeats of an earlier row or rational combinations of earlier
    rows, so most are rank-deficient."""
    n_rows, cols = rng.randint(0, 6), rng.randint(0, 8)
    rows = []
    for _ in range(n_rows):
        kind = rng.choice(("random", "random", "zero", "repeat", "combination"))
        if kind == "zero" or (kind != "random" and not rows):
            row = [Fraction(0)] * cols
        elif kind == "repeat":
            row = list(rng.choice(rows))
        elif kind == "combination":
            a, b = rng.choice(rows), rng.choice(rows)
            s, t = random_fraction(rng), random_fraction(rng)
            row = [s * x + t * y for x, y in zip(a, b)]
        else:
            row = [random_fraction(rng) if rng.random() < 0.7 else Fraction(0) for _ in range(cols)]
        rows.append(row)
    return Matrix(rows, cols)


class TestForwardAndBackPasses:
    """rank and pivot_columns stop after the forward pass; rref adds the
    back pass; all three agree with the one-pass elimination they replace."""

    def test_match_the_one_pass_reference(self):
        shapes = set()
        for seed in range(500):
            m = random_elimination_matrix(random.Random(seed))
            # the same rows scaled to ints, as the rank rows of validate are
            scale = lcm(*(e.denominator for row in m.entries for e in row))
            integer = Matrix([[int(e * scale) for e in row] for row in m.entries], m.cols)
            red, pivots, rank = rref_reference(m)
            assert rref_reference(integer) == (red, pivots, rank)
            for a in (m, integer):
                assert a.rref() == (red, pivots, rank)
                assert a.pivot_columns() == pivots
                assert a.rank() == rank
            shapes.add((m.rows, m.cols, rank < min(m.rows, m.cols)))
        assert {(r, c) for r, c, _ in shapes} == {(r, c) for r in range(7) for c in range(9)}
        assert any(deficient for r, c, deficient in shapes if r and c)

    def test_pivots_above_later_rows_and_entries_above_pivots(self):
        # the second pivot column has an entry in an earlier pivot row, which
        # only the back pass clears; the third row repeats the first
        m = Matrix([[1, 2, 3], [0, 1, 4], [1, 2, 3], [2, 5, 10]])
        assert m.rref() == rref_reference(m)
        assert m.rref()[0].entries[0] == (1, 0, -5)
        assert (m.pivot_columns(), m.rank()) == ((0, 1), 2)
        # the pivot of column 1 lies in the row after an earlier pivot row
        # that also has an entry there
        m = Matrix([[0, 1, 1], [1, 1, 0], [0, 0, 0]])
        assert (m.pivot_columns(), m.rank()) == ((0, 1), 2) == rref_reference(m)[1:]
        assert m.rref() == rref_reference(m)


def gauss_rank_pivots(rows, cols):
    """Oracle: plain Gaussian elimination over Fractions (the row of the
    first nonzero entry in each column is the pivot row, entries below it
    are cleared by subtracting multiples of it).  Returns (rank, pivots)."""
    a = [[Fraction(e) for e in row] for row in rows]
    pivots = []
    for c in range(cols):
        r = len(pivots)
        i = next((i for i in range(r, len(a)) if a[i][c] != 0), None)
        if i is None:
            continue
        a[r], a[i] = a[i], a[r]
        for i2 in range(r + 1, len(a)):
            f = a[i2][c] / a[r][c]
            a[i2] = [x - f * y for x, y in zip(a[i2], a[r])]
        pivots.append(c)
    return len(pivots), tuple(pivots)


def random_integer_rows(rng):
    """0-6 integer rows of 0-7 columns: random (small, negative or of 30
    digits), zero, repeated, or integer combinations of earlier rows."""
    n_rows, cols = rng.randint(0, 6), rng.randint(0, 7)
    big = rng.random() < 0.3
    rows = []
    for _ in range(n_rows):
        kind = rng.choice(("random", "random", "zero", "repeat", "combination"))
        if kind == "zero" or (kind != "random" and not rows):
            row = (0,) * cols
        elif kind == "repeat":
            row = rng.choice(rows)
        elif kind == "combination":
            a, b = rng.choice(rows), rng.choice(rows)
            s, t = rng.randint(-3, 3), rng.randint(-3, 3)
            row = tuple(s * x + t * y for x, y in zip(a, b))
        else:
            bound = 10**30 if big else 3
            row = tuple(rng.randint(-bound, bound) if rng.random() < 0.7 else 0 for _ in range(cols))
        rows.append(row)
    return rows, cols


class TestEchelon:
    """The one forward pass over integer rows: its pivots are those of
    Matrix over the same rows as Fractions and of plain Gaussian elimination,
    and it leaves its input alone."""

    def test_matches_matrix_and_gaussian_elimination(self):
        rng = random.Random(71)
        seen = set()
        for _ in range(600):
            rows, cols = random_integer_rows(rng)
            before = [tuple(r) for r in rows]
            reduced, pivots = echelon(rows)
            rank, expected = gauss_rank_pivots(rows, cols)
            assert pivots == expected
            assert Matrix([[Fraction(e) for e in r] for r in rows], cols).pivot_columns() == pivots
            assert Matrix(rows, cols).rank() == rank == len(pivots)
            assert rows == before
            # an echelon form of the same span: pivot rows lead at their
            # pivots, every later row is zero
            for r, row in enumerate(reduced):
                lead = next((c for c, e in enumerate(row) if e), None)
                assert lead == (pivots[r] if r < rank else None)
                assert all(type(e) is int for e in row)
            assert Subspace(cols, reduced) == Subspace(cols, rows)
            seen.add((len(rows), cols, rank < min(len(rows), cols), max((abs(e) for r in rows for e in r), default=0) > 10**20))
        assert {(r, c) for r, c, _, _ in seen} == {(r, c) for r in range(7) for c in range(8)}
        assert any(deficient for r, c, deficient, _ in seen if r and c)
        assert any(big for *_, big in seen)

    def test_degenerate_shapes(self):
        assert echelon([]) == ([], ())
        assert echelon([(), ()]) == ([(), ()], ())
        assert echelon([(0, 0, 0), (0, 0, 0)])[1] == ()
        assert echelon([(0, 2, 4), (0, 1, 2), (0, -3, -6)])[1] == (1,)
        assert echelon([(10**30, 1), (10**30, 1), (-(10**30), 2)])[1] == (0, 1)

    def test_matrix_scales_its_rows_then_runs_the_kernel(self):
        rng = random.Random(73)
        for _ in range(200):
            m = random_elimination_matrix(rng)
            rows = integer_rows(m.entries)
            assert m._integer_echelon() == echelon(rows)
            for row, scaled in zip(m.entries, rows):
                assert all(type(e) is int for e in scaled)
                assert Subspace(m.cols, [row]) == Subspace(m.cols, [scaled])


# ---------------------------------------------------------------------------
# reference oracles: the per-vector loops that one elimination replaced
# ---------------------------------------------------------------------------


def contains_reference(space: Subspace, vector) -> bool:
    """One rank of the basis stacked on the vector, with the zero vector and
    the zero space decided before any elimination."""
    vector = tuple(Fraction(x) for x in vector)
    if len(vector) != space.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    if all(x == 0 for x in vector):
        return True
    if not space.basis:
        return False
    return Matrix(list(space.basis) + [vector]).rank() == space.dim


def contains_subspace_reference(space: Subspace, other: Subspace) -> bool:
    """One membership test per basis vector of other."""
    return all(contains_reference(space, v) for v in other.basis)


def complement_in_reference(inner: Subspace, outer: Subspace) -> Subspace:
    """Greedy: each outer basis row that raises the rank of the rows so far."""
    if inner.ambient_dim != outer.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    if not contains_subspace_reference(outer, inner):
        raise ValueError("inner subspace is not contained in the outer one")
    current, rank, chosen = list(inner.basis), inner.dim, []
    for row in outer.basis:
        trial = current + [row]
        r = Matrix(trial).rank()
        if r > rank:
            current, rank = trial, r
            chosen.append(row)
    return Subspace(inner.ambient_dim, chosen)


def random_subspace_pair(rng, d: int):
    """(inner, outer) from pointwise.random_subspace; inner is spanned by
    random combinations of outer's basis every other draw, so both
    containment outcomes occur."""
    outer = random_subspace(rng, d)
    if rng.random() < 0.5:
        return random_subspace(rng, d), outer
    coeffs = [[Fraction(rng.randint(-2, 2)) for _ in outer.basis] for _ in range(rng.randint(0, d))]
    return Subspace(d, [combine(c, outer.basis, d) for c in coeffs]), outer


class TestSubspaceQuestionsAgainstLoops:
    def test_contains_matches_the_loop(self):
        rng = random.Random(23)
        outcomes = set()
        for _ in range(300):
            d = rng.randint(0, 6)
            space = random_subspace(rng, d)
            vector = [Fraction(rng.randint(-2, 2)) for _ in range(d)]
            if space.dim and rng.random() < 0.5:
                vector = combine([rng.randint(-2, 2) for _ in space.basis], space.basis, d)
            expected = contains_reference(space, vector)
            assert space.contains(vector) == expected
            outcomes.add((expected, space.dim == 0, any(vector)))
        assert {(True, True, False), (False, True, True), (True, False, True), (False, False, True)} <= outcomes
        for space in (Subspace(2), Subspace(2, [F(1, 1)]), Subspace.full(2)):
            for vector in (F(0, 0, 0), F(1, 0, 0), F(1)):
                with pytest.raises(ValueError, match="ambient dimension mismatch"):
                    space.contains(vector)

    def test_contains_subspace_matches_the_loop(self):
        rng = random.Random(29)
        outcomes = set()
        for _ in range(300):
            d = rng.randint(0, 6)
            other, space = random_subspace_pair(rng, d)
            if rng.random() < 0.5:
                space, other = other, space
            expected = contains_subspace_reference(space, other)
            assert space.contains_subspace(other) == expected
            outcomes.add((expected, other.dim == 0, space.dim in (0, d)))
        assert {(True, True, False), (True, False, False), (False, False, False), (True, False, True)} <= outcomes

    def test_contains_subspace_edge_cases(self):
        for d in range(4):
            zero, full = Subspace(d), Subspace.full(d)
            assert zero.contains_subspace(zero) and full.contains_subspace(zero)
            assert full.contains_subspace(full) and zero.contains_subspace(full) == (d == 0)
        # an empty other is contained whatever its ambient dimension; a
        # nonempty one of another ambient dimension is an error
        assert Subspace(2, [F(1, 1)]).contains_subspace(Subspace(3))
        assert Subspace(2).contains_subspace(Subspace(5))
        for space in (Subspace(2), Subspace(2, [F(1, 1)]), Subspace.full(2)):
            with pytest.raises(ValueError, match="ambient dimension mismatch"):
                space.contains_subspace(Subspace(3, [F(0, 0, 1)]))
            with pytest.raises(ValueError, match="ambient dimension mismatch"):
                contains_subspace_reference(space, Subspace(3, [F(0, 0, 1)]))

    def test_complement_in_matches_the_greedy_loop(self):
        rng = random.Random(31)
        shapes = set()
        for _ in range(300):
            d = rng.randint(0, 6)
            inner, outer = random_subspace_pair(rng, d)
            if not contains_subspace_reference(outer, inner):
                with pytest.raises(ValueError, match="not contained"):
                    complement_in(inner, outer)
                shapes.add("not contained")
                continue
            comp = complement_in(inner, outer)
            assert comp == complement_in_reference(inner, outer)
            assert comp.dim == outer.dim - inner.dim and inner.sum(comp) == outer
            shapes.add((inner.dim == 0, comp.dim == 0, outer.dim == d))
        assert {"not contained", (True, False, False), (False, True, False), (False, False, False)} <= shapes
        assert {(True, True, True), (False, False, True)} & shapes

    def test_complement_in_edge_cases(self):
        for d in range(4):
            zero, full = Subspace(d), Subspace.full(d)
            assert complement_in(zero, full) == full == complement_in_reference(zero, full)
            assert complement_in(full, full) == zero == complement_in(zero, zero)
        # the outer rows are kept in RREF order: the first two of three extend
        inner, outer = Subspace(3, [F(1, 1, 1)]), Subspace.full(3)
        assert complement_in(inner, outer).basis == (tuple(F(1, 0, 0)), tuple(F(0, 1, 0)))
        assert complement_in(inner, outer) == complement_in_reference(inner, outer)
        with pytest.raises(ValueError, match="ambient dimension mismatch"):
            complement_in(Subspace(2), Subspace.full(3))


def intersect_reference(space: Subspace, other: Subspace) -> Subspace:
    """The kernel of both subspaces' equations stacked, each from its own
    elimination."""
    if space.ambient_dim != other.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    eqs = Matrix(space.equations().entries + other.equations().entries, space.ambient_dim)
    return Subspace(space.ambient_dim, eqs.kernel_rows())


class TestIntersectAgainstEquations:
    def test_intersect_matches_the_equations_kernel(self):
        rng = random.Random(37)
        shapes = set()
        for _ in range(300):
            d = rng.randint(0, 6)
            a, b = random_subspace_pair(rng, d)
            if rng.random() < 0.5:
                a, b = b, a
            got = a.intersect(b)
            assert got == intersect_reference(a, b)
            assert got.basis == intersect_reference(a, b).basis
            assert a.contains_subspace(got) and b.contains_subspace(got)
            assert got.dim == a.dim + b.dim - a.sum(b).dim
            shapes.add((got.dim == 0, got.dim in (a.dim, b.dim), d == 0))
        assert {(True, False, False), (False, True, False), (False, False, False), (True, True, True)} <= shapes

    def test_one_elimination_per_intersection(self, monkeypatch):
        # the Zassenhaus rows pivoting in the right half already hold the
        # RREF basis, and a complement keeps rows of outer's RREF in order
        calls = []
        original = Matrix.rref

        def counted(self):
            calls.append(self)
            return original(self)

        monkeypatch.setattr(Matrix, "rref", counted)
        rng = random.Random(41)
        for _ in range(100):
            d = rng.randint(0, 6)
            a, b = random_subspace_pair(rng, d)
            calls.clear()
            a.intersect(b)
            assert len(calls) == 1
            outer = a.sum(b)
            calls.clear()
            complement_in(a, outer)
            assert calls == []

    def test_intersect_edge_cases(self):
        for d in range(4):
            zero, full = Subspace(d), Subspace.full(d)
            for a, b in itertools.product((zero, full), repeat=2):
                assert a.intersect(b) == intersect_reference(a, b) == (full if a == b == full else zero)
        line, plane = Subspace(3, [F(1, 1, 1)]), Subspace(3, [F(1, 0, 0), F(0, 1, 1)])
        assert line.intersect(plane) == plane.intersect(line) == Subspace(3, [F(1, 1, 1)])
        assert line.intersect(Subspace(3, [F(1, 0, 0)])) == Subspace(3)
        for a, b in ((Subspace(2), Subspace(3)), (Subspace.full(2), Subspace(3, [F(0, 0, 1)]))):
            for intersect in (Subspace.intersect, intersect_reference):
                with pytest.raises(ValueError, match="ambient dimension mismatch"):
                    intersect(a, b)
                with pytest.raises(ValueError, match="ambient dimension mismatch"):
                    intersect(b, a)
