import random
from fractions import Fraction

import pytest

from bigiso.linalg import Matrix, Subspace, combine, complement_in, image, kernel
from bigiso.scalars import Polynomial, RationalFunction


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


def test_image():
    img = image(Matrix([F(1, 2), F(2, 4)]))
    assert img.basis == ((Fraction(1), Fraction(2)),)


def test_det_and_inverse():
    m = Matrix([F(2, 1), F(1, 1)])
    assert m.det() == 1
    assert m.inverse() * m == Matrix.identity(2)
    singular = Matrix([F(1, 2), F(2, 4)])
    assert singular.det() == 0
    with pytest.raises(ValueError):
        singular.inverse()


def test_rational_function_matrix_inverse():
    vs = ("t",)
    t = RationalFunction.from_poly(Polynomial.variable(vs, "t"))
    one = RationalFunction.one(vs)
    m = Matrix([[t, one], [one, t]])
    inv = m.inverse()
    assert m * inv == Matrix.identity(2, one)
    assert m.det() == t * t - one


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

    def test_rational_function_entries_use_rref(self):
        vs = ("t",)
        t = RationalFunction.from_poly(Polynomial.variable(vs, "t"))
        one, zero = RationalFunction.one(vs), RationalFunction.zero(vs)
        m = Matrix([[t, one, zero], [t * t, t, zero], [one, zero, t]])
        assert m.pivot_columns() == m.rref()[1] == (0, 1)
        assert m.rank() == 2


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
