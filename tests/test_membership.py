"""Exact membership: certificates are genuine minors, the pivot-search
fallback is exact, and verdicts agree with minor enumeration and with
pointwise ranks at random rational points."""

import random
from fractions import Fraction
from itertools import combinations

import pytest

from bigiso.calculus import Chart, courant_bracket
from bigiso.linalg import Matrix, fraction_free
from bigiso.grid import default_grid
from bigiso.membership import PROBE_POINTS, SpanWitness, in_span, poly_det, span_test
from bigiso.scalars import Polynomial
from bigiso.structures import check_integrability, check_module_property, structure_from_components


def minor(rows, columns):
    return poly_det([[row[c] for c in columns] for row in rows])


def all_minors_vanish(rows):
    """Reference oracle: every maximal-row minor of a polynomial matrix is zero."""
    size = len(rows)
    return all(minor(rows, cols).is_zero() for cols in combinations(range(len(rows[0])), size))


def rank_at(rows, point):
    return Matrix([[e.eval(point) for e in row] for row in rows]).rank()


# ---- a non-integrable graph(P) frame with no constant entry ---------------

DENSE = Chart(("x0", "x1", "x2", "x3"))
# row operations (target, source, variable, coefficient): R_t += c * x_v * R_s
OPS_E = [(1, 0, 2, 1), (0, 1, 3, 1), (1, 0, 0, -1), (3, 2, 0, 1), (2, 3, 1, 2), (3, 2, 3, -1)]
OPS_EP = [(0, 1, 3, 1), (1, 0, 2, -1), (0, 1, 1, 1), (2, 3, 1, 1), (3, 2, 0, 1), (2, 3, 2, -2)]


def dense_graph_structure(p):
    """graph(P) for P = p d0^d1 + d2^d3, both frames mixed by unimodular
    polynomial row operations; integrable iff P is Poisson (p constant)."""
    o, z = DENSE.one(), DENSE.zero()
    graph = [
        [z, p, z, z, o, z, z, z],
        [-p, z, z, z, z, o, z, z],
        [z, z, z, o, z, z, o, z],
        [z, z, -o, z, z, z, z, o],
    ]

    def mixed(ops):
        rows = [list(r) for r in graph]
        for t, s, v, c in ops:
            rows[t] = [a + DENSE.coordinate(v) * c * b for a, b in zip(rows[t], rows[s])]
        return rows

    return structure_from_components(DENSE, mixed(OPS_E), mixed(OPS_EP))


def certified_failures(frame_rows, candidates):
    contains = span_test(frame_rows)
    witnesses = []
    for cand in candidates:
        ok, witness = contains(cand)
        if not ok:
            assert witness.minor == minor(list(frame_rows) + [cand], witness.columns)
            assert not witness.minor.is_zero()
            witnesses.append(witness)
    return witnesses


class TestCertificates:
    def test_dense_frames_have_no_constant_entry(self):
        s = dense_graph_structure(DENSE.coordinate("x2"))
        for row in s.frame_rows() + s.prime_frame_rows():
            assert not any(not e.is_zero() and e.is_constant() for e in row)

    def test_failing_certificates_are_minors(self):
        s = dense_graph_structure(DENSE.coordinate("x2"))
        brackets = [
            courant_bracket(s.e_frame[i], s.e_frame[j]).as_poly_row()
            for i, j in combinations(range(s.k), 2)
        ]
        witnesses = certified_failures(s.frame_rows(), brackets)
        assert witnesses
        verdict = check_integrability(s)
        assert not verdict.ok
        assert [w for _, w in verdict.failures] == witnesses

        mixed = [
            courant_bracket(a, b).as_poly_row() for a in s.e_frame for b in s.e_prime_frame
        ]
        witnesses = certified_failures(s.prime_frame_rows(), mixed)
        assert witnesses
        assert [w for _, w in check_module_property(s).failures] == witnesses

    def test_poisson_dense_frame_passes(self):
        s = dense_graph_structure(DENSE.constant(3))
        assert check_integrability(s).ok
        assert check_module_property(s).ok

    def test_certificate_sign_follows_sorted_columns(self):
        chart = Chart(("x", "y"))
        x, y, o, z = chart.coordinate("x"), chart.coordinate("y"), chart.one(), chart.zero()
        # pivot columns at the origin are (0, 2); the witness column 1 sits
        # before one of them, so the residual changes sign
        rows = [(o, x, z), (z, y, o)]
        cand = (z, o, z)
        ok, witness = in_span(rows, cand)
        assert not ok
        assert witness == SpanWitness(-o, (0, 1, 2))
        assert witness.minor == minor(rows + [cand], (0, 1, 2))


class TestDegenerateFrames:
    def test_rank_drop_at_every_probe_point_reaches_the_exact_fallback(self):
        chart = Chart(("x", "y"))
        x, y, o, z = chart.coordinate("x"), chart.coordinate("y"), chart.one(), chart.zero()
        p = x * (x * x - 1) * (x * x - 4)
        rows = [(z, p, z, z), (y, x * y, z, o)]
        assert all(rank_at(rows, pt) < 2 for pt in default_grid(2, cap=PROBE_POINTS))
        combination = tuple(x * a + y * b for a, b in zip(*rows))
        assert in_span(rows, combination) == (True, None)
        assert in_span(rows, rows[0]) == (True, None)
        ok, witness = in_span(rows, (o, z, z, z))
        assert not ok and witness.columns == (0, 1, 3)
        assert witness.minor == minor(rows + [(o, z, z, z)], (0, 1, 3))
        ok, witness = in_span(rows, (z, z, o, z))
        assert not ok and witness.minor == minor(rows + [(z, z, o, z)], witness.columns)

    def test_rank_below_k_everywhere_passes(self):
        chart = Chart(("x", "y"))
        x, y, o = chart.coordinate("x"), chart.coordinate("y"), chart.one()
        rows = [(x, y, o), (x * x, x * y, x)]
        for cand in [(o, chart.zero(), chart.zero()), (y, x, o)]:
            assert in_span(rows, cand) == (True, None)
        # more rows than columns: rank k is impossible
        assert in_span([(x,), (y,)], (o,)) == (True, None)

    def test_empty_frame(self):
        chart = Chart(("x",))
        x, z = chart.coordinate("x"), chart.zero()
        assert in_span([], (z, z)) == (True, None)
        assert in_span([], (z, x, 1 + x)) == (False, SpanWitness(x, (1,)))

    def test_one_row_frame(self):
        chart = Chart(("x",))
        x, o = chart.coordinate("x"), chart.one()
        assert in_span([(x, o)], (x * x, x)) == (True, None)
        ok, witness = in_span([(x, o)], (o, o))
        assert not ok and witness == SpanWitness(x - 1, (0, 1))


# ---- randomized agreement with independent oracles ------------------------

RANDOM_CHART = Chart(("x", "y"))


def random_poly(rng, degree=2):
    terms = {}
    for _ in range(rng.randint(0, 3)):
        i = rng.randint(0, degree)
        j = rng.randint(0, degree - i)
        terms[(i, j)] = Fraction(rng.randint(-3, 3))
    return Polynomial(RANDOM_CHART.names, terms)


def random_instance(rng):
    """A small frame (sometimes rank deficient) and a candidate row that is
    sometimes a polynomial combination of the frame rows."""
    ncols = rng.randint(1, 4)
    k = rng.randint(1, ncols)
    rows = [tuple(random_poly(rng) for _ in range(ncols)) for _ in range(k)]
    if k >= 2 and rng.random() < 0.25:
        f = random_poly(rng, 1)
        rows[-1] = tuple(f * e for e in rows[0])
    zero = RANDOM_CHART.zero()
    if rng.random() < 0.5:
        cand = [zero] * ncols
        for row in rows:
            f = random_poly(rng, 1)
            cand = [a + f * e for a, e in zip(cand, row)]
    else:
        cand = [random_poly(rng) for _ in range(ncols)]
    return rows, tuple(cand)


def check_against_oracles(rng):
    rows, cand = random_instance(rng)
    k = len(rows)
    ok, witness = in_span(rows, cand)
    assert ok == all_minors_vanish(rows + [cand])
    if not ok:
        assert witness.minor == minor(rows + [cand], witness.columns)
    for _ in range(4):
        point = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(2))
        if rank_at(rows, point) != k:
            continue
        stacked_rank = rank_at(rows + [cand], point)
        if ok:
            assert stacked_rank == k
        elif witness.minor.eval(point) != 0:
            assert stacked_rank == k + 1


def test_seeded_random_frames_agree_with_oracles():
    for seed in range(60):
        check_against_oracles(random.Random(seed))


def test_random_frames_agree_with_oracles_hypothesis():
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings, strategies as st

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def check(seed):
        check_against_oracles(random.Random(seed))

    check()


# ---- the accumulation loops that Polynomial.dot replaced, as oracles -------

def old_poly_det(rows):
    """Sparse cofactor expansion with an accumulated total."""
    zero = Polynomial.zero(rows[0][0].vars)

    def rec(row_idx, col_idx):
        k = len(row_idx)
        if k == 1:
            return rows[row_idx[0]][col_idx[0]]
        best_col, best_zeros = None, -1
        for cpos, c in enumerate(col_idx):
            zeros = sum(1 for r in row_idx if rows[r][c].is_zero())
            if zeros > best_zeros:
                best_col, best_zeros = cpos, zeros
        if best_zeros == k:
            return zero
        c = col_idx[best_col]
        rest_cols = col_idx[:best_col] + col_idx[best_col + 1:]
        total = zero
        for rpos, r in enumerate(row_idx):
            entry = rows[r][c]
            if entry.is_zero():
                continue
            minor = rec(row_idx[:rpos] + row_idx[rpos + 1:], rest_cols)
            if minor.is_zero():
                continue
            term = entry * minor
            total = total + term if (rpos + best_col) % 2 == 0 else total - term
        return total

    return rec(tuple(range(len(rows))), tuple(range(len(rows))))


def old_cofactor(square, i, l):
    """The (i, l) cofactor of a square polynomial matrix, by cofactor expansion."""
    if len(square) == 1:
        return Polynomial.one(square[0][0].vars)
    minor = old_poly_det([r[:l] + r[l + 1:] for i2, r in enumerate(square) if i2 != i])
    return -minor if (i + l) % 2 else minor


def old_residuals(frame, J, candidate):
    """D, the coefficients b_J adj(F_J) and the residual entries off J, by sums."""
    k = len(frame)
    FJ = [[row[c] for c in J] for row in frame]
    adj = [[old_cofactor(FJ, i, l) for i in range(k)] for l in range(k)]
    D = sum(FJ[0][l] * adj[l][0] for l in range(k))
    b = tuple(candidate)
    coeffs = [sum(b[c] * adj[l][i] for l, c in enumerate(J)) for i in range(k)]
    residual = {j: D * b[j] - sum(c * row[j] for c, row in zip(coeffs, frame)) for j in range(len(b)) if j not in J}
    return D, coeffs, residual


def rational_poly(rng, chart):
    terms = {}
    for _ in range(rng.randint(0, 3)):
        exps = [0] * chart.dim
        for _ in range(rng.randint(0, 2)):
            exps[rng.randrange(chart.dim)] += 1
        terms[tuple(exps)] = Fraction(rng.randint(-4, 4), rng.randint(1, 5))
    return Polynomial(chart.names, terms)


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_poly_det_and_residuals_match_the_old_sums(m):
    from bigiso.membership import _pivot_columns

    rng = random.Random(900 + m)
    chart = Chart(tuple(f"x{i}" for i in range(m)))
    checked = 0
    for _ in range(12):
        n = rng.randint(1, 4)
        square = [[rational_poly(rng, chart) for _ in range(n)] for _ in range(n)]
        assert poly_det(square) == old_poly_det(square)
        width = n + rng.randint(0, 2)
        frame = [tuple(rational_poly(rng, chart) for _ in range(width)) for _ in range(rng.randint(1, n))]
        J = _pivot_columns(frame)
        if J is None:
            continue
        contains = span_test(frame)
        weights = [rational_poly(rng, chart) for _ in frame]
        member = [Polynomial.dot(chart.names, [(w, row[j], 1) for w, row in zip(weights, frame)]) for j in range(width)]
        D, coeffs, residual = old_residuals(frame, J, member)
        assert contains(member) == (True, None) and all(r.is_zero() for r in residual.values())
        assert coeffs == [D * w for w in weights]
        for _ in range(3):
            b = [rational_poly(rng, chart) for _ in range(width)]
            D, _, residual = old_residuals(frame, J, b)
            assert D == minor(frame, J)
            nonzero = [j for j, r in residual.items() if not r.is_zero()]
            ok, witness = contains(b)
            assert ok == (not nonzero)
            if nonzero:
                r = residual[nonzero[0]]
                assert witness.minor in (r, -r) and witness.minor == minor(frame + [b], witness.columns)
            checked += 1
    assert checked > 10


def fraction_pivot_columns(frame):
    """Reference: _pivot_columns on the Fraction values of the frame."""
    for point in default_grid(len(frame[0][0].vars), cap=PROBE_POINTS):
        pivots = Matrix([[e.eval(point) for e in row] for row in frame]).pivot_columns()
        if len(pivots) == len(frame):
            return pivots
    pivots = fraction_free(frame, range(len(frame[0])))[1]
    return pivots if len(pivots) == len(frame) else None


@pytest.mark.parametrize("m", [1, 2, 3])
def test_pivot_columns_on_integer_rows_match_the_fraction_rows(m):
    from bigiso.membership import _pivot_columns

    rng = random.Random(940 + m)
    chart = Chart(tuple(f"x{i}" for i in range(m)))
    found = set()
    for _ in range(40):
        width = rng.randint(1, 5)
        frame = [tuple(rational_poly(rng, chart) for _ in range(width)) for _ in range(rng.randint(1, width))]
        J = _pivot_columns(frame)
        assert J == fraction_pivot_columns(frame)
        found.add(J is None)
    assert found == {True, False}


@pytest.mark.parametrize("m", [1, 2, 3])
def test_fraction_free_rows_are_the_cofactor_adjugate_times_the_frame(m):
    """With a pivot in every row, the elimination's rows are sign * adj(F_J) F
    and each pivot is sign * det F_J, by the cofactor oracle (no sympy)."""
    rng = random.Random(950 + m)
    chart = Chart(tuple(f"x{i}" for i in range(m)))
    swapped = 0
    for _ in range(12):
        k = rng.randint(1, 4)
        frame = [[rational_poly(rng, chart) for _ in range(k + 2)] for _ in range(k)]
        J = tuple(rng.sample(range(k + 2), k))
        rows, pivots, sign = fraction_free(frame, J)
        FJ = [[row[c] for c in J] for row in frame]
        det = old_poly_det(FJ)
        if det.is_zero():
            assert len(pivots) < k
            continue
        assert pivots == J
        swapped += sign < 0
        for l, row in enumerate(rows):
            assert row[J[l]] == det * sign
            for j, entry in enumerate(row):
                cofactors = [(old_cofactor(FJ, i, l), frame[i][j], sign) for i in range(k)]
                assert entry == Polynomial.dot(chart.names, cofactors)
    assert swapped
