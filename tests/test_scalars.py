import random
from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd, lcm
from operator import add, neg, sub

import pytest

from bigiso.linalg import Matrix, Subspace
from bigiso.scalars import MAX_DEGREE, Polynomial, RationalFunction, ScaledPoint, eval_rows

V = ("x", "y")


def P(expr_terms):
    return Polynomial(V, expr_terms)


def x():
    return Polynomial.variable(V, "x")


def y():
    return Polynomial.variable(V, "y")


def test_zero_coefficients_are_dropped():
    p = P({(2, 0): Fraction(0), (1, 1): Fraction(3)})
    assert list(p.terms) == [(1, 1)]
    assert (x() ** 2 - x() ** 2).is_zero()


def test_arithmetic_and_identities():
    p = x() ** 2 + 3 * y()
    q = x() * y() - 1
    assert p + q == q + p
    assert p * q == q * p
    assert (p + q) * (p - q) == p * p - q * q
    assert p * Polynomial.zero(V) == Polynomial.zero(V)
    assert (p - p).is_zero()


def test_pow_and_degree():
    p = (x() + y()) ** 3
    assert p.terms[(3, 0)] == 1
    assert p.terms[(2, 1)] == 3
    assert p.total_degree() == 3
    assert Polynomial.zero(V).total_degree() == -1


def test_derivative():
    p = x() ** 2 * y() + 2 * x()
    assert p.derivative("x") == 2 * x() * y() + 2
    assert p.derivative("y") == x() ** 2
    # d^2/dxdy symmetric
    assert p.derivative(0).derivative(1) == p.derivative(1).derivative(0)


def test_eval_and_partial_eval():
    p = x() ** 2 - y() / 2
    assert p.eval([Fraction(3), Fraction(4)]) == 9 - 2
    frozen = p.set_vars({1: Fraction(4)})
    assert frozen == x() ** 2 - 2


def test_substitute_composition():
    p = x() * y() + 1
    new_vars = ("u", "v", "w")
    u = Polynomial.variable(new_vars, "u")
    v = Polynomial.variable(new_vars, "v")
    composed = p.substitute([u + v, u - v])
    assert composed == u**2 - v**2 + 1


def test_exact_division():
    p = (x() + y()) * (x() - 2 * y())
    assert p.exact_div(x() + y()) == x() - 2 * y()
    assert p.exact_div(x() + 1) is None
    assert Polynomial.zero(V).exact_div(x()) == Polynomial.zero(V)


def test_string_round_shape():
    p = 2 * x() ** 2 * y() - Fraction(3, 2)
    assert str(p) == "2*x^2*y - 3/2"
    assert str(Polynomial.zero(V)) == "0"


def test_variable_mismatch_rejected():
    other = Polynomial.variable(("a",), "a")
    with pytest.raises(ValueError):
        _ = x() + other


def test_constructor_validates_outside_input():
    with pytest.raises(ValueError):
        P({(1,): Fraction(1)})
    with pytest.raises(ValueError):
        P({(-1, 0): Fraction(1)})
    with pytest.raises(TypeError):
        P({(1, 0): 0.5})
    p = P({(True, 0): 2})
    assert type(p.terms[(1, 0)]) is Fraction and all(type(e) is int for e in next(iter(p.terms)))


W = ("x", "y", "z")


def random_polynomial(rng):
    terms = {}
    for _ in range(rng.randint(0, 4)):
        exps = tuple(rng.randint(0, 2) for _ in W)
        terms[exps] = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    return Polynomial(W, terms)


def assert_canonical(p):
    """p is what the checked constructor makes of its own terms."""
    assert p == Polynomial(p.vars, p.terms) and p.vars == W
    for exps, coeff in p.terms.items():
        assert type(coeff) is Fraction and coeff != 0
        assert type(exps) is tuple and len(exps) == len(W)
        assert all(type(e) is int and e >= 0 for e in exps)


def check_ring_operations(rng):
    p, q, r = (random_polynomial(rng) for _ in range(3))
    c = rng.choice([0, 1, -2, Fraction(3, 4)])
    zero, one = Polynomial.zero(W), Polynomial.one(W)
    results = [p + q, p - q, -p, p * q, p**2, p ** rng.randint(0, 3), p + c, c + p, p - c, c - p]
    results += [p * c, c * p, p - p, p + -p] + [p.derivative(i) for i in range(len(W))]
    for result in results:
        assert_canonical(result)
    assert p + q == q + p and p * q == q * p
    assert (p + q) + r == p + (q + r) and (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    assert p + zero == p and p * one == p and (p - p).is_zero() and (p * zero).is_zero()
    assert p - q == p + (-q) and -(-p) == p
    assert (p * q).derivative(0) == p.derivative(0) * q + p * q.derivative(0)
    assert p**3 == p * p * p
    if not q.is_zero():
        assert (p * q).exact_div(q) == p


def test_ring_operations_seeded():
    for seed in range(120):
        check_ring_operations(random.Random(seed))


def test_ring_operations_hypothesis():
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings, strategies as st

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def check(seed):
        check_ring_operations(random.Random(seed))

    check()


def term_by_term_eval(p, point):
    """Reference: the value summed term by term in Fractions."""
    point = [Fraction(c) for c in point]
    total = Fraction(0)
    for exps, coeff in p.terms.items():
        value = coeff
        for c, e in zip(point, exps):
            if e:
                value *= c**e
        total += value
    return total


def test_eval_matches_term_by_term_formula():
    rng = random.Random(17)
    specials = [Polynomial.zero(W), Polynomial.one(W), Polynomial.constant(W, Fraction(-5, 3))]
    for trial in range(400):
        p = specials[trial % 3] if trial % 4 == 0 else random_polynomial(rng)
        if trial % 2:
            point = [rng.randint(-3, 3) for _ in W]
        else:
            point = [Fraction(rng.randint(-4, 4), rng.randint(1, 5)) for _ in W]
        expected = term_by_term_eval(p, point)
        values = [p.eval(point), p.eval(tuple(map(Fraction, point))), p.eval(ScaledPoint(point))]
        for value in values:
            assert type(value) is Fraction and value == expected, (p, point)


def test_eval_rejects_bad_points():
    for p in (Polynomial.zero(V), Polynomial.one(V), x() * y() + 1):
        with pytest.raises(TypeError):
            p.eval([0.5, 1])
        with pytest.raises(ValueError):
            p.eval([1, 2, 3])
        with pytest.raises(ValueError):
            p.eval(ScaledPoint([1]))


def random_row(rng, width):
    """Polynomials with non-integer coefficients, among them zero and
    constant entries."""
    row = []
    for _ in range(width):
        kind = rng.randrange(4)
        if kind == 0:
            row.append(Polynomial.zero(W))
        elif kind == 1:
            row.append(Polynomial.constant(W, Fraction(rng.randint(-7, 7), rng.randint(1, 6))))
        else:
            row.append(random_polynomial(rng))
    return row


def assert_positive_multiple(ints, values):
    """ints = c * values for one rational c > 0, and ints are Python ints."""
    assert all(type(n) is int for n in ints)
    nonzero = [(n, v) for n, v in zip(ints, values) if v]
    if not nonzero:
        assert not any(ints), (ints, values)
        return
    c = Fraction(nonzero[0][0]) / nonzero[0][1]
    assert c > 0 and list(ints) == [c * v for v in values], (ints, values)


def test_integer_rows_are_positive_multiples_of_the_values():
    rng = random.Random(29)
    for trial in range(300):
        width = rng.randint(1, 6)
        row = random_row(rng, width)
        point = [Fraction(rng.randint(-5, 5), rng.randint(2, 7)) for _ in W]
        if trial % 5 == 0:
            point[rng.randrange(len(W))] = rng.randint(-2, 2)  # one integer coordinate
        values = [p.eval(point) for p in row]
        for at in (point, ScaledPoint(point)):
            (rows,) = eval_rows([row], [at])
            (ints,) = rows
            assert_positive_multiple(ints, values)
        assert Matrix([ints]).pivot_columns() == Matrix([values]).pivot_columns()


def test_integer_rows_keep_ranks_and_subspaces():
    rng = random.Random(31)
    for _ in range(60):
        rows = [random_row(rng, 4) for _ in range(rng.randint(1, 4))]
        point = ScaledPoint([Fraction(rng.randint(-5, 5), rng.randint(2, 7)) for _ in W])
        ints = next(eval_rows(rows, [point]))
        values = [[p.eval(point) for p in r] for r in rows]
        assert Matrix(ints).pivot_columns() == Matrix(values).pivot_columns()
        assert Subspace(4, ints) == Subspace(4, values)
        assert Subspace(4, ints).basis == Subspace(4, values).basis


def test_integer_rows_reject_inexact_points():
    row = [Polynomial.zero(W), Polynomial.one(W), x().recast(W) * 2]
    with pytest.raises(TypeError):
        next(eval_rows([row], [[0.5, 1, 2]]))
    with pytest.raises(TypeError):
        next(eval_rows([[Polynomial.one(W)]], [[Fraction(1, 2), 1.0, 2]]))
    with pytest.raises(ValueError):
        next(eval_rows([row], [ScaledPoint([1, 2])]))
    assert list(eval_rows([[]], [[1, 2, 3]])) == [[()]]
    assert list(eval_rows([], [[1, 2, 3], [4, 5, 6]])) == [[], []]
    ((ints,),) = eval_rows([row], [[Fraction(1, 2), 0, 0]])
    assert_positive_multiple(ints, [0, 1, 1])


def random_point(rng):
    """A rational point of W with d != 1, sometimes with zero coordinates."""
    point = [Fraction(rng.randint(-6, 6), rng.randint(1, 7)) for _ in W]
    for i in rng.sample(range(len(W)), rng.randint(0, 2)):
        point[i] = 0
    if all(c.denominator == 1 for c in map(Fraction, point)):
        point[rng.randrange(len(W))] = Fraction(1, 2)
    return point


def test_eval_rows_over_many_points_matches_the_fraction_rows():
    # rows with zero, constant, non-integer-coefficient and mixed-degree
    # entries, one table for all the points
    rng = random.Random(37)
    for _ in range(80):
        width = rng.randint(1, 6)
        rows = [random_row(rng, width) for _ in range(rng.randint(1, 4))]
        points = [random_point(rng) for _ in range(rng.randint(1, 6))]
        got = list(eval_rows(rows, points))
        assert len(got) == len(points)
        for point, ints in zip(points, got):
            values = [[p.eval(point) for p in row] for row in rows]
            assert len(ints) == len(rows)
            for row_ints, row_values in zip(ints, values):
                assert_positive_multiple(row_ints, row_values)
            assert Matrix(ints).pivot_columns() == Matrix(values).pivot_columns()
            assert Subspace(width, ints) == Subspace(width, values)
            assert Subspace(width, ints).basis == Subspace(width, values).basis
        inexact = list(points[0])
        inexact[rng.randrange(len(W))] = 0.5
        with pytest.raises(TypeError):
            list(eval_rows(rows, points + [inexact]))
        with pytest.raises(ValueError):
            list(eval_rows(rows, points + [points[0][:2]]))


def test_eval_rows_is_lazy():
    pulled = []

    def points():
        for point in ([1, 0, 0], [0, 1, 0], [0, 0, 1]):
            pulled.append(point)
            yield point

    rows = [[x().recast(W), Polynomial.one(W)]]
    walk = eval_rows(rows, points())
    assert pulled == []
    assert next(walk) == [(1, 1)]
    assert pulled == [[1, 0, 0]]
    assert next(walk) == [(0, 1)]
    assert len(pulled) == 2


def test_division_by_integers_and_fractions():
    p = x() * Fraction(3, 5) - y() * 4 + 1
    for n in (1, 2, -3, 7, True):
        assert p / n == p * Fraction(1, int(n))
    with pytest.raises(ZeroDivisionError):
        p / 0
    with pytest.raises(ZeroDivisionError):
        p / Fraction(0)
    assert p / Fraction(-2, 3) == p * Fraction(-3, 2)


# The three exponent-remap helpers that Polynomial.recast replaced, kept as
# oracles: the tangent-chart lift, the slice projection of canonical frames
# and the quotient projection of reduction.
def lift_poly_oracle(f, names):
    m = len(f.vars)
    return Polynomial(names, {e + (0,) * m: c for e, c in f.terms.items()})


def project_polynomial_oracle(p, sub_names):
    index_map = {i: sub_names.index(n) for i, n in enumerate(p.vars) if n in sub_names}
    terms = {}
    for exps, coeff in p.terms.items():
        new = [0] * len(sub_names)
        for full_idx, e in enumerate(exps):
            if e == 0:
                continue
            if full_idx not in index_map:
                raise LookupError("restricted component still uses a leaf coordinate")
            new[index_map[full_idx]] = e
        terms[tuple(new)] = coeff
    return Polynomial(sub_names, terms)


def push_project_oracle(p, base):
    names = tuple(p.vars[i] for i in base)
    terms = {}
    for exps, coeff in p.terms.items():
        terms[tuple(exps[i] for i in base)] = coeff
    return Polynomial(names, terms)


class TestRecast:
    def test_matches_the_tangent_lift(self):
        rng = random.Random(31)
        names = W + tuple(f"{n}_dot" for n in W)
        for _ in range(200):
            p = random_polynomial(rng)
            lifted = p.recast(names)
            assert lifted == lift_poly_oracle(p, names)
            assert lifted.recast(W) == p

    def test_matches_the_slice_projection_or_raises_where_it_does(self):
        rng = random.Random(32)
        for _ in range(300):
            p = random_polynomial(rng)
            sub = rng.sample(W, rng.randint(0, 3))
            try:
                expected = project_polynomial_oracle(p, tuple(sub))
            except LookupError:
                with pytest.raises(ValueError, match="is not among"):
                    p.recast(sub)
            else:
                assert p.recast(sub) == expected and p.recast(sub).vars == tuple(sub)

    def test_matches_the_quotient_projection_off_the_fibres(self):
        rng = random.Random(33)
        for _ in range(300):
            base = sorted(rng.sample(range(3), rng.randint(0, 3)))
            fibre = {i: Fraction(0) for i in range(3) if i not in base}
            p = random_polynomial(rng).set_vars(fibre)
            names = tuple(W[i] for i in base)
            assert p.recast(names) == push_project_oracle(p, base)

    def test_raises_instead_of_merging_terms(self):
        p = Polynomial(W, {(1, 0, 0): 1, (0, 0, 1): 2})
        assert push_project_oracle(p, [1]) == Polynomial(("y",), {(0,): 2})
        with pytest.raises(ValueError, match="variable x"):
            p.recast(("y",))

    def test_result_is_canonical(self):
        rng = random.Random(34)
        for _ in range(100):
            p = random_polynomial(rng).recast(("z", "q", "y", "x"))
            assert p == Polynomial(p.vars, p.terms)
            assert all(type(c) is Fraction and c != 0 for c in p.terms.values())


class TestRationalFunction:
    def test_product_with_inverse_is_one(self):
        p = x() ** 2 + y()
        q = x() - y() ** 3
        f = RationalFunction(p, q)
        g = RationalFunction(q, p)
        assert f * g == RationalFunction.one(V)

    def test_cross_multiplication_equality(self):
        f = RationalFunction(x() * y(), y())  # cancels to x
        assert f == RationalFunction.from_poly(x())
        g = RationalFunction(x() ** 2 - y() ** 2, x() + y())
        assert g == RationalFunction.from_poly(x() - y())

    def test_add_sub(self):
        f = RationalFunction(Polynomial.one(V), x())
        g = RationalFunction(Polynomial.one(V), y())
        s = f + g
        assert s == RationalFunction(x() + y(), x() * y())
        assert (s - g) == f

    def test_zero_normalization(self):
        f = RationalFunction(Polynomial.zero(V), x() ** 5)
        assert f.is_zero()
        assert f.den == Polynomial.one(V)

    def test_division_and_errors(self):
        f = RationalFunction.from_poly(x())
        with pytest.raises(ZeroDivisionError):
            _ = f / RationalFunction.zero(V)
        with pytest.raises(ZeroDivisionError):
            RationalFunction(x(), Polynomial.zero(V))

    def test_eval(self):
        f = RationalFunction(x() + 1, y())
        assert f.eval([Fraction(1), Fraction(2)]) == 1
        with pytest.raises(ZeroDivisionError, match=r"^denominator vanishes at \(-1/2, 0\)$"):
            f.eval([Fraction(-1, 2), Fraction(0)])

    def test_polynomial_detection(self):
        f = RationalFunction(x() ** 2 * y(), x())
        assert f.is_polynomial()
        assert f.as_polynomial() == x() * y()


# ---- the stored form: integer numerators over one denominator ------------

def numerators(p):
    """p's integer numerators over p.den, keyed by exponent tuples."""
    return {e: (c * p.den).numerator for e, c in p.terms.items()}


def assert_stored_form(p):
    """den > 0, coprime to the numerators, no zero numerator, den 1 for 0,
    read through the tuple view: every coefficient times den is an integer."""
    terms = p.terms
    assert type(p.den) is int and p.den > 0
    assert all((c * p.den).denominator == 1 and c != 0 for c in terms.values())
    assert gcd(p.den, *numerators(p).values()) == 1
    if not terms:
        assert p.den == 1
    for exps in terms:
        assert type(exps) is tuple and len(exps) == len(p.vars)
        assert all(type(e) is int and e >= 0 for e in exps)


def test_stored_form_is_canonical_after_every_operation():
    rng = random.Random(41)
    specials = [Polynomial.zero(W), Polynomial.one(W), Polynomial.constant(W, Fraction(-7, 6))]
    for trial in range(200):
        p, q = random_polynomial(rng), random_polynomial(rng)
        c = rng.choice([0, 3, -1, Fraction(5, 6), Fraction(-2, 9)])
        results = [p, q, p + q, p - q, -p, p * q, p**2, p * c, c - p, p.derivative(trial % 3)]
        results += [p.recast(("z", "y", "x")), p.set_vars({0: Fraction(1, 2)}), p.set_vars({1: c})]
        results += [p.substitute([q, p, Polynomial.variable(W, "x")])]
        if c:
            results.append(p / c)
        if not q.is_zero():
            results.append((p * q).exact_div(q))
        for result in results + specials:
            assert_stored_form(result)


def test_cancelling_denominators_reduce_to_integers():
    half = Polynomial(V, {(1, 0): Fraction(1, 2), (0, 1): Fraction(-3, 2)})
    assert (numerators(half), half.den) == ({(1, 0): 1, (0, 1): -3}, 2)
    whole = half * 2
    assert (numerators(whole), whole.den) == ({(1, 0): 1, (0, 1): -3}, 1)
    assert (numerators(half + half), (half + half).den) == (numerators(whole), 1)
    assert ((half - half).terms, (half - half).den) == ({}, 1)
    quarter = Polynomial(V, {(1, 0): Fraction(2, 4)})
    assert (numerators(quarter), quarter.den) == ({(1, 0): 1}, 2)


def test_init_and_ring_operations_agree_on_equality_and_hash():
    rng = random.Random(42)
    for _ in range(300):
        p, q = random_polynomial(rng), random_polynomial(rng)
        for built in (p + q, p * q, p - q, -p, p.derivative(1)):
            direct = Polynomial(W, built.terms)
            assert built == direct and hash(built) == hash(direct)
            assert str(built) == str(direct) and (built.nums, built.den) == (direct.nums, direct.den)
        assert (p == q) == (p.terms == q.terms)
        assert (p - q == 0) == (p == q)


def test_constants_compare_with_rationals():
    c = Polynomial.constant(W, Fraction(-4, 6))
    assert c == Fraction(-2, 3) and c != Fraction(2, 3) and c.constant_value() == Fraction(-2, 3)
    assert Polynomial.zero(W) == 0 and Polynomial.one(W) == 1 and Polynomial.one(W) != 0
    assert str(c) == "-2/3" and str(c * Polynomial.variable(W, "y")) == "-2/3*y"


def fraction_exact_div(p, divisor):
    """Reference: leading-term division with Fraction coefficients."""
    key = lambda e: (sum(e), e)  # noqa: E731
    rem, quotient = p.terms, {}
    d_terms = divisor.terms
    d_exps = max(d_terms, key=key)
    while rem:
        r_exps = max(rem, key=key)
        diff = tuple(a - b for a, b in zip(r_exps, d_exps))
        if any(e < 0 for e in diff):
            return None
        c = rem[r_exps] / d_terms[d_exps]
        quotient[diff] = c
        for e, dc in d_terms.items():
            e = tuple(a + b for a, b in zip(diff, e))
            rem[e] = rem.get(e, Fraction(0)) - c * dc
            if rem[e] == 0:
                del rem[e]
    return Polynomial(p.vars, quotient)


def test_exact_division_matches_the_fraction_reference():
    rng = random.Random(43)
    divided = 0
    for trial in range(400):
        q = random_polynomial(rng)
        if q.is_zero():
            continue
        p = random_polynomial(rng) * q
        if trial % 3 == 0:
            p = p + random_polynomial(rng)
        expected = fraction_exact_div(p, q)
        assert p.exact_div(q) == expected, (p, q)
        divided += expected is not None
    assert 100 < divided < 400


# ---- the fused sum of products ---------------------------------------------

def naive_dot(vars, terms):
    """Reference for Polynomial.dot: the accumulation loop it replaced,
    acc = acc + sign * a * b, with each product formed term by term in
    Fractions and built by the checked constructor, so the reference shares
    no arithmetic with the kernel."""
    acc = Polynomial.zero(vars)
    for a, b, sign in terms:
        product = {}
        for e1, c1 in a.terms.items():
            for e2, c2 in b.terms.items():
                e = tuple(i + j for i, j in zip(e1, e2))
                product[e] = product.get(e, Fraction(0)) + sign * c1 * c2
        acc = acc + Polynomial(vars, product)
    return acc


def random_dot_terms(rng):
    """Up to five (a, b, sign) triples with mixed denominators, zero factors,
    both signs and, now and then, a pair of triples that cancel exactly."""
    terms = []
    for _ in range(rng.randint(0, 5)):
        a, b = random_polynomial(rng), random_polynomial(rng)
        if rng.random() < 0.15:
            a = Polynomial.zero(W)
        sign = rng.choice([1, -1, 2, -3, 0])
        terms.append((a, b, sign))
        if rng.random() < 0.2:
            terms.append((b, a, -sign))
    return terms


def check_dot(rng):
    terms = random_dot_terms(rng)
    got = Polynomial.dot(W, terms)
    assert_stored_form(got)
    assert got == naive_dot(W, terms) and str(got) == str(naive_dot(W, terms))
    assert got == sum((sign * a * b for a, b, sign in terms), Polynomial.zero(W))


def test_dot_matches_the_naive_loop_seeded():
    for seed in range(1000):
        check_dot(random.Random(seed))


def test_dot_matches_the_naive_loop_hypothesis():
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings, strategies as st

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def check(seed):
        check_dot(random.Random(seed))

    check()


def test_dot_edge_cases():
    half_x = Polynomial(W, {(1, 0, 0): Fraction(1, 2)})
    third_y = Polynomial(W, {(0, 1, 0): Fraction(-1, 3)})
    zero = Polynomial.zero(W)
    assert Polynomial.dot(W, []) == zero and Polynomial.dot(W, []).den == 1
    assert Polynomial.dot(W, [(zero, half_x, 1), (half_x, zero, -1)]) == zero
    # mixed denominators 2 * 3 and 2 * 2 meet over lcm 12, then reduce
    got = Polynomial.dot(W, [(half_x, third_y, 1), (half_x, half_x, 1)])
    assert got.terms == {(1, 1, 0): Fraction(-1, 6), (2, 0, 0): Fraction(1, 4)} and got.den == 12
    # exact cancellation to zero leaves den 1; a cancelled denominator goes
    cancel = Polynomial.dot(W, [(half_x, third_y, 1), (third_y, half_x, -1)])
    assert cancel.is_zero() and cancel.den == 1
    whole = Polynomial.dot(W, [(half_x, half_x, 2), (half_x, half_x, 2)])
    assert (numerators(whole), whole.den) == ({(2, 0, 0): 1}, 1)
    assert Polynomial.dot(W, ((half_x, half_x, s) for s in (1, -1))) == zero  # any iterable
    other = Polynomial.variable(("a", "b", "c"), "a")
    for terms in ([(half_x, other, 1)], [(other, half_x, 1)], [(other, other, 1)]):
        with pytest.raises(ValueError, match="variable mismatch"):
            Polynomial.dot(W, terms)


# ---- oracles: the scaled-point evaluation and partial evaluation that
# Polynomial.eval and Polynomial.set_vars ran before they went through
# eval_rows and substitute.

def eval_scaled_reference(p, point):
    """The value at a ScaledPoint as integers (n, q), q > 0, the value n / q:
    with the point as a_i / d and the coefficients as c_e / den, the value is
    sum_e c_e a^e d^(top - |e|) / (den d^top), top being the total degree."""
    if len(point.nums) != len(p.vars):
        raise ValueError("point length does not match variables")
    if p.is_zero():
        return 0, 1
    coords, d = point.nums, point.den
    top = p.total_degree()
    total = 0
    for exps, value in numerators(p).items():
        deg = 0
        for a, e in zip(coords, exps):
            if e:
                value *= a**e
                deg += e
        total += value * d ** (top - deg)
    return total, p.den * d**top


def set_vars_reference(p, assignment):
    """Freeze some variables: with the constants as a_i / d, each term is
    brought to the denominator den * d^top, top being the largest degree in
    the frozen variables."""
    frozen = list(assignment)
    point = ScaledPoint([assignment[i] for i in frozen])
    d = point.den
    top = max((sum(exps[i] for i in frozen) for exps in p.terms), default=0)
    nums = {}
    for exps, value in numerators(p).items():
        new, deg = list(exps), 0
        for idx, a in zip(frozen, point.nums):
            e = exps[idx]
            if e:
                value *= a**e
                deg += e
            new[idx] = 0
        if value:
            key = tuple(new)
            nums[key] = nums.get(key, 0) + value * d ** (top - deg)
    den = p.den * d**top
    return Polynomial(p.vars, {e: Fraction(c, den) for e, c in nums.items()})


NAMES = ("x", "y", "z", "w")


def random_small_polynomial(rng):
    """1-4 variables, total degree <= 4, rational coefficients; one in five
    is zero and one in five a constant."""
    names = NAMES[: rng.randint(1, 4)]
    kind = rng.randrange(5)
    if kind == 0:
        return Polynomial.zero(names)
    if kind == 1:
        return Polynomial.constant(names, Fraction(rng.randint(-9, 9), rng.randint(1, 6)))
    terms = {}
    for _ in range(rng.randint(1, 6)):
        exps = [0] * len(names)
        for _ in range(rng.randint(0, 4)):
            exps[rng.randrange(len(names))] += 1
        terms[tuple(exps)] = Fraction(rng.randint(-9, 9), rng.randint(1, 6))
    return Polynomial(names, terms)


def random_rational(rng):
    return rng.choice([0, rng.randint(-3, 3), Fraction(rng.randint(-6, 6), rng.randint(1, 7))])


def test_eval_matches_the_scaled_point_reference():
    rng = random.Random(53)
    for _ in range(500):
        p = random_small_polynomial(rng)
        point = [random_rational(rng) for _ in p.vars]
        n, q = eval_scaled_reference(p, ScaledPoint(point))
        for at in (point, tuple(map(Fraction, point)), ScaledPoint(point)):
            value = p.eval(at)
            assert type(value) is Fraction and value == Fraction(n, q), (p, point)


def test_set_vars_matches_the_scaled_point_reference():
    rng = random.Random(59)
    for trial in range(500):
        p = random_small_polynomial(rng)
        n = len(p.vars)
        frozen = rng.sample(range(n), trial % (n + 1))  # none, some or all
        assignment = {i: random_rational(rng) for i in frozen}
        got, expected = p.set_vars(assignment), set_vars_reference(p, assignment)
        assert got == expected and got.vars == p.vars, (p, assignment)
        assert_stored_form(got)
        point = [random_rational(rng) for _ in range(n)]
        on_locus = [assignment.get(i, c) for i, c in enumerate(point)]
        assert got.eval(point) == p.eval(on_locus)


def test_constructor_rejects_non_integer_exponents():
    for bad in (1.5, Fraction(3, 2), "1"):
        with pytest.raises(ValueError, match="non-integer exponent"):
            P({(bad, 0): 1})


def test_set_vars_rejects_indices_outside_the_variables():
    p = x() * y() + 1
    for index in (-1, 2, 5):
        with pytest.raises(ValueError, match="outside range"):
            p.set_vars({index: Fraction(1)})
    assert p.set_vars({}) == p


def test_variable_rejects_indices_outside_the_variables():
    assert Polynomial.variable(V, 1) == y() and Polynomial.variable(V, "x") == x()
    for index in (-1, 2):
        with pytest.raises(ValueError, match="no variable"):
            Polynomial.variable(V, index)


def substitute_reference(p, images):
    """Oracle: the composition loop substitute() ran before it took each
    image's powers once, one product per unit of exponent and one sum per
    term."""
    new_vars = images[0].vars if images else p.vars
    result = Polynomial.zero(new_vars)
    for exps, c in numerators(p).items():
        term = Polynomial.constant(new_vars, c)
        for img, e in zip(images, exps):
            for _ in range(e):
                term = term * img
        result = result + term
    return result * Fraction(1, p.den)


def random_image(rng, names):
    """A zero, constant or degree <= 2 polynomial over ``names``."""
    kind = rng.randrange(4)
    if kind == 0:
        return Polynomial.zero(names)
    if kind == 1:
        return Polynomial.constant(names, random_rational(rng) or 1)
    terms = {}
    for _ in range(rng.randint(1, 3)):
        exps = [0] * len(names)
        for _ in range(rng.randint(0, 2)):
            exps[rng.randrange(len(names))] += 1
        terms[tuple(exps)] = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
    return Polynomial(names, terms)


def test_substitute_matches_the_term_by_term_reference():
    rng = random.Random(61)
    kinds = set()
    for _ in range(400):
        p = random_small_polynomial(rng)
        targets = NAMES[: rng.randint(1, 4)]
        images = [random_image(rng, targets) for _ in p.vars]
        got = p.substitute(images)
        assert got == substitute_reference(p, images) and got.vars == targets, (p, images)
        assert_stored_form(got)
        kinds.add("zero" if p.is_zero() else "constant" if p.is_constant() else "general")
    assert kinds == {"zero", "constant", "general"}
    with pytest.raises(ValueError, match="one image per variable"):
        x().substitute([x()])


# ---- oracle: the tuple-keyed kernels -----------------------------------------
# Polynomial keys each monomial by one packed int.  TupleReference keeps the
# kernels that ran when monomials were exponent tuples (numerators keyed by
# tuples over one denominator), and the packed ones must agree with it term
# for term, denominator, text, equality and hash.


class TupleReference:
    """Integer numerators keyed by exponent tuples over a positive den,
    coprime to them; the state Polynomial held before keys were packed."""

    def __init__(self, vars, nums, den=1):
        nums = {e: c for e, c in nums.items() if c}
        if den < 0:
            nums, den = {e: -c for e, c in nums.items()}, -den
        g = gcd(den, *nums.values())
        self.vars, self.nums, self.den = tuple(vars), {e: c // g for e, c in nums.items()}, den // g

    @classmethod
    def of(cls, p):
        return cls(p.vars, numerators(p), p.den)

    def polynomial(self):
        return Polynomial(self.vars, {e: Fraction(c, self.den) for e, c in self.nums.items()})

    @classmethod
    def dot(cls, vars, terms):
        live = [(a, b, sign) for a, b, sign in terms if sign and a.nums and b.nums]
        den = lcm(*(a.den * b.den for a, b, _ in live))
        nums = {}
        for a, b, sign in live:
            f = sign * (den // (a.den * b.den))
            for e1, c1 in a.nums.items():
                for e2, c2 in b.nums.items():
                    e = tuple(map(add, e1, e2))
                    nums[e] = nums.get(e, 0) + c1 * f * c2
        return cls(vars, nums, den)

    def derivative(self, idx):
        nums = {}
        for exps, c in self.nums.items():
            if exps[idx]:
                new = list(exps)
                new[idx] -= 1
                nums[tuple(new)] = c * exps[idx]
        return TupleReference(self.vars, nums, self.den)

    def leading(self):
        exps = max(self.nums, key=lambda e: (sum(e), e))
        return exps, self.nums[exps]

    def exact_div(self, divisor):
        d_exps, lead = divisor.leading()
        if not any(d_exps):
            return TupleReference(self.vars, {e: c * divisor.den for e, c in self.nums.items()}, self.den * lead)
        rest = [(e, c) for e, c in divisor.nums.items() if e != d_exps]
        rem = dict(self.nums)
        heap = [(-sum(e), tuple(map(neg, e)), e) for e in rem]
        heapify(heap)
        quotient, scale = [], 1
        while heap:
            exps = heappop(heap)[2]
            c = rem.pop(exps)
            if not c:
                continue
            diff = tuple(map(sub, exps, d_exps))
            if min(diff) < 0:
                return None
            k = abs(lead) // gcd(c, lead)
            if k != 1:
                rem = {e: v * k for e, v in rem.items()}
                scale *= k
                c *= k
            q = c // lead
            quotient.append((diff, q, scale))
            for e, c2 in rest:
                e = tuple(map(add, diff, e))
                if e in rem:
                    rem[e] -= q * c2
                else:
                    rem[e] = -q * c2
                    heappush(heap, (-sum(e), tuple(map(neg, e)), e))
        nums = {e: q * (scale // s) * divisor.den for e, q, s in quotient}
        return TupleReference(self.vars, nums, scale * self.den)

    def substitute(self, images):
        new_vars = images[0].vars if images else self.vars
        one = TupleReference(new_vars, {(0,) * len(new_vars): 1})
        terms = []
        for exps, c in self.nums.items():
            term = one
            for img, e in zip(images, exps):
                for _ in range(e):
                    term = TupleReference.dot(new_vars, [(term, img, 1)])
            terms.append((term, one, c))
        total = TupleReference.dot(new_vars, terms)
        return TupleReference(new_vars, total.nums, total.den * self.den)

    def recast(self, vars):
        nums = {}
        for exps, c in self.nums.items():
            new = [0] * len(vars)
            for name, e in zip(self.vars, exps):
                if e:
                    if name not in vars:
                        raise ValueError(f"variable {name} is not among {vars}")
                    new[vars.index(name)] = e
            nums[tuple(new)] = c
        return TupleReference(vars, nums, self.den)

    def __str__(self):
        if not self.nums:
            return "0"
        parts = []
        for exps, c in sorted(self.nums.items(), key=lambda kv: (sum(kv[0]), kv[0]), reverse=True):
            mono = "*".join(name if e == 1 else f"{name}^{e}" for name, e in zip(self.vars, exps) if e)
            g = gcd(c, self.den)
            coeff = str(c // g) if g == self.den else f"{c // g}/{self.den // g}"
            if not mono:
                text = coeff
            elif c == self.den:
                text = mono
            elif c == -self.den:
                text = f"-{mono}"
            else:
                text = f"{coeff}*{mono}"
            parts.append(text)
        out = parts[0]
        for part in parts[1:]:
            out += f" - {part[1:]}" if part.startswith("-") else f" + {part}"
        return out


def assert_matches_reference(got, ref):
    assert got.vars == ref.vars
    assert (got.terms, got.den) == ({e: Fraction(c, ref.den) for e, c in ref.nums.items()}, ref.den)
    assert str(got) == str(ref)
    rebuilt = ref.polynomial()
    assert rebuilt == got and hash(rebuilt) == hash(got)
    assert_stored_form(got)


def random_exponents(rng, n, degree):
    """n >= 1 nonnegative exponents summing to degree."""
    cuts = sorted(rng.randint(0, degree) for _ in range(n - 1))
    return tuple(b - a for a, b in zip([0, *cuts], [*cuts, degree]))


def random_keyed_polynomial(rng, names, top):
    """The zero polynomial, a constant, or up to four terms of total degree
    at most top, about a third of them on degree top exactly."""
    kind = rng.randrange(6)
    if kind == 0:
        return Polynomial.zero(names)
    if kind == 1 or not names:
        return Polynomial.constant(names, Fraction(rng.randint(-5, 5), rng.randint(1, 4)))
    terms = {}
    for _ in range(rng.randint(1, 4)):
        degree = top if rng.random() < 0.35 else rng.randint(0, min(top, 3))
        terms[random_exponents(rng, len(names), degree)] = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
    return Polynomial(names, terms)


# names with 0, 1 and 3 variables; (top of a, top of b), where the second
# pair meets the degree limit exactly in a product
ORACLE_NAMES = ((), ("x",), ("x", "y", "z"))
ORACLE_TOPS = ((3, 2), (MAX_DEGREE - 2, 2))


def oracle_cases(seed):
    rng = random.Random(seed)
    names = ORACLE_NAMES[seed % 3]
    top_a, top_b = ORACLE_TOPS[seed // 3 % 2]
    return rng, names, top_a, top_b


def test_dot_matches_the_tuple_reference():
    for seed in range(300):
        rng, names, top_a, top_b = oracle_cases(seed)
        terms = []
        for _ in range(rng.randint(0, 3)):
            a, b = random_keyed_polynomial(rng, names, top_a), random_keyed_polynomial(rng, names, top_b)
            terms.append((a, b, rng.choice([1, -1, 3, 0])))
            if rng.random() < 0.2:
                terms.append((b, a, -terms[-1][2]))  # cancels the triple before
        ref = TupleReference.dot(names, [(TupleReference.of(a), TupleReference.of(b), s) for a, b, s in terms])
        assert_matches_reference(Polynomial.dot(names, terms), ref)


def test_derivative_matches_the_tuple_reference():
    for seed in range(300):
        rng, names, top_a, _ = oracle_cases(seed)
        p = random_keyed_polynomial(rng, names, top_a)
        for idx, name in enumerate(names):
            expected = TupleReference.of(p).derivative(idx)
            assert_matches_reference(p.derivative(idx), expected)
            assert_matches_reference(p.derivative(name), expected)


def test_exact_div_matches_the_tuple_reference():
    divided = 0
    for seed in range(300):
        rng, names, top_a, top_b = oracle_cases(seed)
        q = random_keyed_polynomial(rng, names, top_b)
        if q.is_zero():
            continue
        p = random_keyed_polynomial(rng, names, top_a) * q
        if rng.random() < 0.3:
            p = p + random_keyed_polynomial(rng, names, top_b)  # low degree: a long division would crawl
        expected = TupleReference.of(p).exact_div(TupleReference.of(q))
        got = p.exact_div(q)
        assert (got is None) == (expected is None), (p, q)
        if got is not None:
            assert_matches_reference(got, expected)
            divided += 1
    assert 100 < divided < 300


def test_substitute_and_recast_match_the_tuple_reference():
    for seed in range(300):
        rng, names, top_a, _ = oracle_cases(seed)
        p = random_keyed_polynomial(rng, names, min(top_a, 40))  # the reference multiplies per unit
        targets = NAMES[: rng.randint(1, 3)]
        images = [random_image(rng, targets) for _ in names]
        if names:
            assert_matches_reference(p.substitute(images), TupleReference.of(p).substitute(
                [TupleReference.of(img) for img in images]))
        wider = tuple(reversed(names)) + ("w",)
        assert_matches_reference(p.recast(wider), TupleReference.of(p).recast(wider))


def test_packed_kernels_at_the_degree_limit():
    xyz = ("x", "y", "z")
    top = Polynomial(xyz, {(MAX_DEGREE, 0, 0): 1, (0, 2, MAX_DEGREE - 2): Fraction(-3, 4), (1, 1, 0): 2})
    assert_matches_reference(top, TupleReference.of(top))
    assert top.total_degree() == MAX_DEGREE and top.leading()[1] == 4
    assert str(top) == f"x^{MAX_DEGREE} - 3/4*y^2*z^{MAX_DEGREE - 2} + 2*x*y"
    assert_matches_reference(top.derivative("x"), TupleReference.of(top).derivative(0))
    assert_matches_reference(top.derivative("z"), TupleReference.of(top).derivative(2))
    assert top.exact_div(Polynomial.variable(xyz, "z") + 1) is None and top.exact_div(top) == 1
    x_top = Polynomial(xyz, {(MAX_DEGREE, 0, 0): 1})
    assert x_top.exact_div(Polynomial(xyz, {(MAX_DEGREE - 1, 0, 0): 1})) == Polynomial.variable(xyz, "x")
    assert x_top.exact_div(Polynomial.variable(xyz, "z")) is None  # the z field borrows
    low = Polynomial(xyz, {(1, 0, 0): 1, (0, 0, 1): -1})
    high = Polynomial(xyz, {(MAX_DEGREE - 1, 0, 0): 1, (0, 0, MAX_DEGREE - 1): 1})
    assert_matches_reference((low * high).exact_div(low), TupleReference.of(high))
    swapped = top.substitute([Polynomial.variable(xyz, v) for v in "zyx"])
    assert swapped.terms == {(0, 0, MAX_DEGREE): 1, (MAX_DEGREE - 2, 2, 0): Fraction(-3, 4), (0, 1, 1): 2}
    # every field at its largest value, one variable at a time
    for i in range(3):
        exps = tuple(MAX_DEGREE if j == i else 0 for j in range(3))
        one_term = Polynomial(xyz, {exps: 1})
        assert one_term.terms == {exps: 1} and one_term.recast(("z", "x", "y", "w")).total_degree() == MAX_DEGREE


def test_zero_variables_and_constants():
    for names in ((), ("x",)):
        zero, c = Polynomial.zero(names), Polynomial.constant(names, Fraction(-3, 4))
        for p in (zero, c, Polynomial.one(names)):
            assert_matches_reference(p, TupleReference.of(p))
            assert p.is_constant() and p.total_degree() == (-1 if p.is_zero() else 0)
            assert_matches_reference(p * c, TupleReference.dot(names, [(TupleReference.of(p), TupleReference.of(c), 1)]))
        assert c.terms == {(0,) * len(names): Fraction(-3, 4)} and str(c) == "-3/4" and str(zero) == "0"
        assert c.exact_div(c) == 1 and zero.exact_div(c) == 0


# ---- the degree limit: every operation that could pass it raises -------------

def test_constructor_takes_the_largest_degree_and_rejects_the_next():
    assert MAX_DEGREE == 2**15 - 1  # 16-bit fields, each guard bit clear
    assert Polynomial(V, {(MAX_DEGREE, 0): 1}).total_degree() == MAX_DEGREE
    assert Polynomial(V, {(1, MAX_DEGREE - 1): 1}).total_degree() == MAX_DEGREE
    for exps in ((MAX_DEGREE + 1, 0), (MAX_DEGREE, 1), (2**40, 0), (MAX_DEGREE // 2 + 1, MAX_DEGREE // 2 + 1)):
        with pytest.raises(OverflowError, match=f"exceeds the limit {MAX_DEGREE}"):
            P({exps: 1})


def test_power_takes_the_largest_degree_and_rejects_the_next(monkeypatch):
    assert (x() ** MAX_DEGREE).terms == {(MAX_DEGREE, 0): 1}
    assert ((x() * y()) ** (MAX_DEGREE // 2)).terms == {(MAX_DEGREE // 2, MAX_DEGREE // 2): 1}
    assert (x() + 1) ** 0 == 1 and Polynomial.zero(V) ** (2**40) == 0
    assert Polynomial.constant(V, -1) ** (2**40 + 1) == -1
    # the degree is checked before any product: squaring x + y + 1 up to the
    # limit would build polynomials of millions of terms
    cases = ((x(), MAX_DEGREE + 1), (x() * y(), MAX_DEGREE // 2 + 1), (x() + y() + 1, 2**40))
    monkeypatch.setattr(Polynomial, "dot", classmethod(lambda *_: pytest.fail("multiplied before the check")))
    for base, n in cases:
        with pytest.raises(OverflowError, match=f"exceeds the limit {MAX_DEGREE}"):
            base**n


def test_products_take_the_largest_degree_and_reject_the_next():
    near = Polynomial(W, {(MAX_DEGREE - 1, 0, 0): 1, (0, 0, 1): Fraction(1, 2)})
    xw, yw = Polynomial.variable(W, "x"), Polynomial.variable(W, "y")
    assert (near * xw).total_degree() == MAX_DEGREE
    assert Polynomial.dot(W, [(near, yw, 1), (near, xw, -1)]).terms == {
        (MAX_DEGREE - 1, 1, 0): 1, (MAX_DEGREE, 0, 0): -1, (0, 1, 1): Fraction(1, 2), (1, 0, 1): Fraction(-1, 2)}
    for terms in ([(near, xw * xw, 1)], [(near, xw, 1), (near * xw, yw, 1)], [(xw, near * yw, 1)]):
        with pytest.raises(OverflowError, match=f"exceeds the limit {MAX_DEGREE}"):
            Polynomial.dot(W, terms)
    with pytest.raises(OverflowError):
        near * xw * yw
    # terms past the limit that cancel leave an exact result
    assert Polynomial.dot(W, [(near, xw * yw, 1), (near, xw * yw, -1)]).is_zero()
