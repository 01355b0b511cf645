"""An independent check of the Courant identities behind the axiom verdicts,
and of the determinants behind membership.

The Courant bracket on three coordinates is written out again over sympy's
polynomials (``sympy.Poly`` over QQ), from its coordinate formula, and the enlargement and co-anchor certificates that
bigiso derives from the pairings are compared with the direct bracket forms
computed here.  ``poly_det``, the fraction-free elimination behind it, the
cofactor oracle of the adjugate and the span-test residual
D b - (b_J adj F_J) F are compared with sympy's ``det``, ``adjugate`` and
``rref`` on frames with non-integer coefficients.  Skipped when sympy is not
installed.
"""

import random
from fractions import Fraction

import pytest

from bigiso.calculus import BigSection, Chart, PolyOneForm, PolyVectorField, courant_bracket
from bigiso.linalg import fraction_free
from bigiso.membership import _pivot_columns, poly_det, span_test
from bigiso.scalars import Polynomial
from bigiso.structures import (
    _axiom_test_functions,
    structure_from_components,
    verify_coanchor,
    verify_modular_enlargement,
)

sympy = pytest.importorskip("sympy")
from sympy.polys.matrices import DomainMatrix  # noqa: E402

from test_membership import old_cofactor  # noqa: E402  (needs the tests directory on sys.path)

CHART = Chart(("x", "y", "z"))
X = sympy.symbols("x y z")
HALF = sympy.Rational(1, 2)
ZERO = sympy.Poly(0, *X, domain=sympy.QQ)
RING = sympy.QQ[X]


def to_sympy(p: Polynomial):
    terms = {exps: sympy.Rational(c.numerator, c.denominator) for exps, c in p.terms.items()}
    return sympy.Poly.from_dict(terms, *X, domain=sympy.QQ) if terms else ZERO


def section(sec):
    """A bigiso section as a sympy pair (vector components, form components)."""
    return [to_sympy(c) for c in sec.vf.comps], [to_sympy(c) for c in sec.of.comps]


def pair(form, vec):
    return sum((a * v for a, v in zip(form, vec)), ZERO)


def lie(u, v):
    return [sum((u[j] * v[i].diff(X[j]) - v[j] * u[i].diff(X[j]) for j in range(3)), ZERO) for i in range(3)]


def lie_derivative(u, beta):
    # (L_u beta)_i = u^j d_j beta_i + beta_j d_i u^j
    return [sum((u[j] * beta[i].diff(X[j]) + beta[j] * u[j].diff(X[i]) for j in range(3)), ZERO) for i in range(3)]


def d(f):
    return [f.diff(var) for var in X]


def g(a, b):
    return HALF * (pair(a[1], b[0]) + pair(b[1], a[0]))


def courant(a, b):
    (u, alpha), (v, beta) = a, b
    lx, ly = lie_derivative(u, beta), lie_derivative(v, alpha)
    dh = d(HALF * (pair(alpha, v) - pair(beta, u)))
    return lie(u, v), [p - q + r for p, q, r in zip(lx, ly, dh)]


def add(*secs):
    return [sum((s[0][i] for s in secs), ZERO) for i in range(3)], [sum((s[1][i] for s in secs), ZERO) for i in range(3)]


def scale(f, a):
    return [f * c for c in a[0]], [f * c for c in a[1]]


def neg(a):
    return scale(-1, a)


def flat(a):
    return list(a[0]) + list(a[1])


def rand_poly(rng):
    terms = {(0, 0, 0): Fraction(rng.randint(-2, 2))}
    for i in range(3):
        e = [0, 0, 0]
        e[i] = 1
        terms[tuple(e)] = Fraction(rng.randint(-2, 2))
    return Polynomial(CHART.names, terms)


def random_structure(rng, k):
    rows = [[rand_poly(rng) for _ in range(6)] for _ in range(6)]
    return structure_from_components(CHART, rows[:k], rows[k:], validate=False)


def certificates(verdict):
    return {message: payload for message, payload in verdict.failures}


@pytest.mark.parametrize("seed, k", [(1, 1), (2, 2), (3, 1)])
def test_enlargement_certificates_equal_the_direct_forms(seed, k):
    s = random_structure(random.Random(seed), k)
    found = certificates(verify_modular_enlargement(s))
    E = [section(a) for a in s.e_frame]
    Ep = [section(b) for b in s.e_prime_frame]
    f, h = (to_sympy(p) for p in _axiom_test_functions(CHART))
    zero = [ZERO] * 6
    for i, a in enumerate(E):
        for j, b in enumerate(Ep):
            br = courant(a, b)
            lhs = courant(scale(f, a), scale(h, b))
            rhs = add(scale(f * h, br), scale(f * pair(d(h), a[0]), b), neg(scale(h * pair(d(f), b[0]), a)))
            direct = flat(add(lhs, neg(rhs)))
            cert = found.get(f"axiom 2 fails on ({i},{j})")
            assert direct == (flat(section(cert)) if cert else zero)
    for i1, a1 in enumerate(E):
        for i2, a2 in enumerate(E):
            for j, b in enumerate(Ep):
                jac = add(
                    courant(a1, courant(a2, b)),
                    neg(courant(courant(a1, a2), b)),
                    neg(courant(a2, courant(a1, b))),
                )
                cert = found.get(f"axiom 3 fails on ({i1},{i2},{j})")
                assert flat(jac) == (flat(section(cert)) if cert else zero)
    # with one E section axiom 3 holds trivially: [a, a] = 0 and T = 0
    assert any(m.startswith("axiom 2") for m in found)
    assert any(m.startswith("axiom 3") for m in found) == (k > 1)


@pytest.mark.parametrize("seed, k", [(4, 1), (5, 2)])
def test_coanchor_certificates_equal_the_direct_forms(seed, k):
    s = random_structure(random.Random(seed), k)
    found = certificates(verify_coanchor(s))
    for i, a in enumerate(section(a) for a in s.e_frame):
        for j, b in enumerate(section(b) for b in s.e_prime_frame):
            (u, alpha), (v, beta) = a, b
            expect = [p - q + r for p, q, r in zip(lie_derivative(u, beta), lie_derivative(v, alpha), d(pair(alpha, v)))]
            direct = [c - e for c, e in zip(courant(a, b)[1], expect)]
            assert direct == [-c for c in d(g(a, b))]
            cert = found.get(f"condition ii fails on ({i},{j})")
            assert direct == ([to_sympy(c) for c in cert.comps] if cert else [ZERO] * 3)
            cert = found.get(f"condition i fails on ({i},{j})")
            assert 2 * g(a, b) == (to_sympy(cert) if cert else ZERO)
    assert any(m.startswith("condition i ") for m in found) and any(m.startswith("condition ii") for m in found)


def test_bracket_matches_the_coordinate_formula():
    for seed in range(6, 26):
        rng = random.Random(seed)
        if seed % 2:  # non-integer coefficients of degree <= 2
            secs = [rational_section(rng) for _ in range(6)]
        else:
            s = random_structure(rng, 3)
            secs = list(s.e_frame) + list(s.e_prime_frame)
        for a, b in zip(secs, secs[1:]):
            assert flat(section(courant_bracket(a, b))) == flat(courant(section(a), section(b))), seed


def rational_section(rng):
    vf = PolyVectorField(CHART, [rand_rational_poly(rng) for _ in range(3)])
    return BigSection(vf, PolyOneForm(CHART, [rand_rational_poly(rng) for _ in range(3)]))


# ---- poly_det, the adjugate and the span-test residual ---------------------

def rand_rational_poly(rng):
    """Degree <= 2 in x, y, z with non-integer coefficients and some zeros."""
    terms = {}
    for _ in range(rng.randint(0, 4)):
        exps = tuple(rng.randint(0, 1) for _ in range(3))
        if sum(exps) <= 2:
            terms[exps] = Fraction(rng.randint(-3, 3), rng.randint(1, 4))
    return Polynomial(CHART.names, terms)


def sympy_matrix(rows):
    return sympy.Matrix([[to_sympy(p).as_expr() for p in row] for row in rows])


def as_poly(expr):
    return sympy.Poly(sympy.expand(expr), *X, domain=sympy.QQ)


def ring_matrix(rows):
    """A polynomial matrix as a sympy DomainMatrix over QQ[x, y, z]."""
    return DomainMatrix.from_Matrix(sympy_matrix(rows)).convert_to(RING).to_dense()


def to_ring(p: Polynomial):
    return RING.from_sympy(to_sympy(p).as_expr())


def adjugate(M):
    """adj(M) from sympy's determinants of the (n - 1)-minors of M (sympy's
    own DomainMatrix.adjugate fails over QQ[x, y, z])."""
    n = M.shape[0]
    rest = [[j for j in range(n) if j != i] for i in range(n)]
    entries = [[M.extract(rest[i], rest[l]).det() * (-1) ** (i + l) if n > 1 else RING.one for i in range(n)] for l in range(n)]
    return DomainMatrix(entries, (n, n), RING)


def generic_pivots(rows):
    """The rref pivot columns of a polynomial matrix over Q(x, y, z)."""
    return ring_matrix(rows).to_field().rref()[1]


def check_fraction_free(rows, columns):
    """The kernel's pivots are sympy's rref pivots on the given column order;
    with a pivot in every row, its rows are sign * adj(F_J) F and every
    pivot entry is sign * det F_J.  Returns whether every row took a pivot."""
    reduced, pivots, sign = fraction_free(rows, columns)
    assert sign in (1, -1)
    assert pivots == tuple(columns[c] for c in generic_pivots([[row[c] for c in columns] for row in rows]))
    if len(pivots) < len(rows):
        return False
    F = ring_matrix(rows)
    FJ = F.extract(range(len(rows)), list(pivots))
    assert ring_matrix(reduced) == adjugate(FJ) * F * RING.convert(sign)
    det = FJ.det() * sign
    assert all(to_ring(row[c]) == det for row, c in zip(reduced, pivots))
    return True


@pytest.mark.parametrize("seed", range(12))
def test_poly_det_and_adjugate_match_sympy(seed):
    rng = random.Random(200 + seed)
    n = 1 + seed % 6
    square = [[rand_rational_poly(rng) for _ in range(n)] for _ in range(n)]
    S = ring_matrix(square)
    assert to_ring(poly_det(square)) == S.det()
    adj = adjugate(S)
    for l in range(n):
        for i in range(n):
            assert to_ring(old_cofactor(square, i, l)) == adj[l, i].element
    # a wider frame, eliminated on n of its columns in a shuffled order
    frame = [row + [rand_rational_poly(rng) for _ in range(2)] for row in square]
    check_fraction_free(frame, rng.sample(range(n + 2), n))


def test_fraction_free_swaps_rows_and_keeps_the_sign():
    x, y, z = (Polynomial.variable(CHART.names, i) for i in range(3))
    zero, one = Polynomial.zero(CHART.names), Polynomial.one(CHART.names)
    # the (0, 0) entry is zero, so the first pivot swaps two rows
    frame = [[zero, x, one, y], [y, zero, z, one], [x + 1, z, zero, x * y]]
    assert check_fraction_free(frame, [0, 1, 2])
    assert fraction_free(frame, [0, 1, 2])[2] == -1
    square = [row[:3] for row in frame]
    assert to_ring(poly_det(square)) == ring_matrix(square).det()


@pytest.mark.parametrize("seed", range(8))
def test_fraction_free_pivots_on_degenerate_frames_match_sympy(seed):
    """Rectangular, rank-deficient and zero-row frames: the pivots over all
    columns are sympy's rref pivots, and full-rank ones reduce to adj F_J F."""
    rng = random.Random(400 + seed)
    rows, width = rng.randint(1, 5), rng.randint(1, 5)
    frame = [[rand_rational_poly(rng) for _ in range(width)] for _ in range(rows)]
    zero = Polynomial.zero(CHART.names)
    if seed % 4 == 1:  # rank deficient: one more row, combining the first and the last
        a, b = rand_rational_poly(rng), rand_rational_poly(rng)
        frame.append([Polynomial.dot(CHART.names, [(a, p, 1), (b, q, 1)]) for p, q in zip(frame[0], frame[-1])])
    elif seed % 4 == 2:  # a zero row
        frame[rng.randrange(rows)] = [zero] * width
    elif seed % 4 == 3:  # a zero column
        column = rng.randrange(width)
        for row in frame:
            row[column] = zero
    check_fraction_free(frame, list(range(width)))


@pytest.mark.parametrize("seed, k", [(1, 1), (2, 2), (3, 2), (4, 3), (5, 3)])
def test_span_test_residual_matches_sympy(seed, k):
    rng = random.Random(300 + seed)
    width = 5
    frame = [[rand_rational_poly(rng) for _ in range(width)] for _ in range(k)]
    J = _pivot_columns(frame)
    if J is None:
        pytest.skip("random frame never has full rank")
    F = sympy_matrix(frame)
    FJ = F[:, list(J)]
    D, adj = FJ.det(method="berkowitz"), FJ.adjugate(method="berkowitz")
    contains = span_test(frame)
    coeffs = [rand_rational_poly(rng) for _ in range(k)]
    member = [sum((c * row[j] for c, row in zip(coeffs, frame)), Polynomial.zero(CHART.names)) for j in range(width)]
    assert contains(member) == (True, None)
    for _ in range(3):
        b = [rand_rational_poly(rng) for _ in range(width)]
        B = sympy_matrix([b])
        residual = (D * B - B[:, list(J)] * adj * F).applyfunc(sympy.expand)
        assert all(residual[c] == 0 for c in J)
        nonzero = [j for j in range(width) if j not in J and residual[j] != 0]
        ok, witness = contains(b)
        assert ok == (not nonzero)
        if nonzero:
            j = nonzero[0]
            columns = tuple(sorted(J + (j,)))
            assert witness.columns == columns
            minor = as_poly(sympy.Matrix.vstack(F, B)[:, list(columns)].det(method="berkowitz"))
            assert to_sympy(witness.minor) == minor
            assert as_poly(residual[j]) in (minor, -minor)
