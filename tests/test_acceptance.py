"""Acceptance criteria, one test per criterion, exact arithmetic throughout.

Each test prints a single summary line so a plain `pytest -s
tests/test_acceptance.py` doubles as the acceptance report.
"""

import random
import time
from fractions import Fraction
from itertools import combinations

import pytest

from bigiso.calculus import (
    BigSection,
    Chart,
    PolyBivector,
    PolyOneForm,
    PolyTwoForm,
    PolyVectorField,
    axiom_v_defect,
    courant_bracket,
    d_function,
    d_twoform,
    flat,
    graph_section_P,
    graph_section_theta,
    interior_wedge_threeform,
    leibniz_defect,
    lie_bracket,
    p_bracket_oneforms,
    pairing_sections,
    schouten_squared,
    sharp,
    trivector_contract_two,
)
from bigiso.canonical import (
    AdaptedChart,
    check_orthogonality_relations,
    is_locally_decomposable,
    normalize_frame,
    transversal_structure,
)
from bigiso.linalg import Matrix, Subspace
from bigiso.pointwise import (
    characteristic_triple,
    dirac_extension,
    orthogonal_g,
    random_isotropic,
    reconstruct,
)
from bigiso.reduction import (
    FoliationData,
    SubmanifoldData,
    reduce_structure,
)
from bigiso.scalars import Polynomial, RationalFunction
from bigiso.structures import (
    check_P_conditions,
    check_integrability,
    check_module_property,
    check_theta_condition,
    graph_P,
    graph_theta,
    is_hamiltonian_pair,
    poisson_bracket,
    regular_integrability_criterion,
    structure_from_components,
    tangent_lift,
    transform_structure,
)
from bigiso.transport import (
    LinearMap,
    predict_pullback_dim,
    predict_pushforward_dim,
    pullback_subspace,
    pullpush,
    pushforward_subspace,
    pushpull,
)


def report(n, name, detail=""):
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {n:>2} {name}: PASS{suffix}")


def rand_poly(rng, chart, degree):
    terms = {}
    for _ in range(rng.randint(1, 3)):
        exps = [0] * chart.dim
        for _ in range(rng.randint(0, degree)):
            exps[rng.randrange(chart.dim)] += 1
        terms[tuple(exps)] = Fraction(rng.randint(-3, 3))
    return Polynomial(chart.names, terms)


def rand_section(rng, chart, degree=2):
    return BigSection(
        PolyVectorField(chart, [rand_poly(rng, chart, degree) for _ in range(chart.dim)]),
        PolyOneForm(chart, [rand_poly(rng, chart, degree) for _ in range(chart.dim)]),
    )


def test_criterion_01_orthogonality_algebra():
    rng = random.Random(101)
    t0 = time.perf_counter()
    count = 0
    while count < 200:
        m = rng.randint(1, 6)
        d = random_isotropic(rng, m)
        assert d.E.dim + d.E_prime.dim == 2 * m
        assert orthogonal_g(orthogonal_g(d.E)) == d.E
        d2 = reconstruct(characteristic_triple(d))
        assert d2.E == d.E and d2.E_prime == d.E_prime
        count += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0, f"took {elapsed:.2f}s"
    report(1, "orthogonality algebra", f"200 cases in {elapsed:.2f}s")


def test_criterion_02_dirac_extension(r3_structure, r5_structure, symplectic_structure):
    rng = random.Random(102)
    for _ in range(200):
        m = rng.randint(1, 6)
        d = random_isotropic(rng, m)
        ext = dirac_extension(d)
        assert ext.dim == m
        assert ext.contains_subspace(d.E)
        assert d.E_prime.contains_subspace(ext)
    for s in (r3_structure, r5_structure, symplectic_structure):
        for pt in [(0,) * s.m, tuple(range(1, s.m + 1))]:
            d = s.evaluate_at(pt)
            ext = dirac_extension(d)
            assert ext.dim == s.m
            assert ext.contains_subspace(d.E) and d.E_prime.contains_subspace(ext)
    report(2, "almost-Dirac extension", "200 random + fixtures")


def test_criterion_03_transport_formulas():
    rng = random.Random(103)
    for _ in range(200):
        n, m = rng.randint(1, 5), rng.randint(1, 5)
        L = LinearMap.from_rows(
            [[rng.randint(-3, 3) for _ in range(n)] for _ in range(m)]
        )
        d = random_isotropic(rng, m)
        pb = pullback_subspace(L, d.E)
        assert pb.dim == predict_pullback_dim(L, d.E, d.E_prime)
        assert orthogonal_g(pb) == pullback_subspace(L, d.E_prime)
        d_src = random_isotropic(rng, n)
        pf = pushforward_subspace(L, d_src.E)
        assert pf.dim == predict_pushforward_dim(L, d_src.E, d_src.E_prime)
    surjective = injective = 0
    while surjective < 50 or injective < 50:
        n, m = rng.randint(1, 5), rng.randint(1, 5)
        L = LinearMap.from_rows(
            [[rng.randint(-3, 3) for _ in range(n)] for _ in range(m)]
        )
        if surjective < 50 and L.is_surjective():
            E = random_isotropic(rng, m).E
            assert pushpull(L, E) == E
            surjective += 1
        elif injective < 50 and L.is_injective():
            E = random_isotropic(rng, n).E
            assert pullpush(L, E) == E
            injective += 1
    report(3, "transport dimension formulas and round trips", "200 + 50 + 50 cases")


def test_criterion_04_courant_algebra():
    rng = random.Random(104)
    chart = Chart(("x", "y", "z"))
    for _ in range(50):
        s1, s2, s3 = (rand_section(rng, chart, 2) for _ in range(3))
        assert axiom_v_defect(s1, s2, s3).is_zero()
        assert leibniz_defect(s1, s2, rand_poly(rng, chart, 2)).is_zero()
    for _ in range(20):
        m = rng.randint(2, 4)
        ch = Chart(tuple(f"x{i}" for i in range(m)))
        theta = PolyTwoForm(
            ch, {(i, j): rand_poly(rng, ch, 1) for i, j in combinations(range(m), 2)}
        )
        X = PolyVectorField(ch, [rand_poly(rng, ch, 1) for _ in range(m)])
        Y = PolyVectorField(ch, [rand_poly(rng, ch, 1) for _ in range(m)])
        got = courant_bracket(graph_section_theta(theta, X), graph_section_theta(theta, Y))
        xy = lie_bracket(X, Y)
        want = BigSection(xy, flat(theta, xy) + interior_wedge_threeform(X, Y, d_twoform(theta)))
        assert (got - want).is_zero()
        P = PolyBivector(
            ch, {(i, j): rand_poly(rng, ch, 1) for i, j in combinations(range(m), 2)}
        )
        T = schouten_squared(P)
        for i, j, k in combinations(range(m), 3):
            a, b, c = (PolyOneForm.coordinate(ch, t) for t in (i, j, k))
            lhs = P(p_bracket_oneforms(P, a, b), c)
            rhs = c.pair(lie_bracket(sharp(P, a), sharp(P, b))) + T(a, b, c) * Fraction(1, 2)
            assert lhs == rhs
        s_form = PolyOneForm(ch, [rand_poly(rng, ch, 1) for _ in range(m)])
        t_form = PolyOneForm(ch, [rand_poly(rng, ch, 1) for _ in range(m)])
        got = courant_bracket(graph_section_P(P, s_form), graph_section_P(P, t_form))
        rho = p_bracket_oneforms(P, s_form, t_form)
        want = BigSection(
            sharp(P, rho) - trivector_contract_two(T, s_form, t_form).scale(Fraction(1, 2)),
            rho,
        )
        assert (got - want).is_zero()
    # the exact defects that decide the enlargement axioms: the Jacobiator
    # (0, -dT/3) and the two-function scaling rule g(a,b) (0, h df - f dh),
    # on sections that are not isotropic
    rng = random.Random(1041)
    zero = PolyVectorField.zero(chart)
    for _ in range(10):
        a1, a2, b = (rand_section(rng, chart, 1) for _ in range(3))
        jac = (
            courant_bracket(a1, courant_bracket(a2, b))
            - courant_bracket(courant_bracket(a1, a2), b)
            - courant_bracket(a2, courant_bracket(a1, b))
        )
        T = (
            pairing_sections(courant_bracket(a1, a2), b)
            + pairing_sections(courant_bracket(a2, b), a1)
            - pairing_sections(courant_bracket(a1, b), a2)
        )
        assert jac == BigSection(zero, d_function(T, chart).scale(Fraction(-1, 3)))
        f, h = rand_poly(rng, chart, 2), rand_poly(rng, chart, 2)
        lhs = courant_bracket(a1.scale(f), b.scale(h))
        rhs = courant_bracket(a1, b).scale(f * h) + b.scale(f * a1.vf.apply(h)) - a1.scale(h * b.vf.apply(f))
        twist = d_function(f, chart).scale(h) - d_function(h, chart).scale(f)
        assert lhs - rhs == BigSection(zero, twist.scale(pairing_sections(a1, b)))
    report(4, "Courant algebra identities", "symbolic zero or the exact defect in every case")


def test_criterion_05_three_dim_example(r3_structure):
    assert check_integrability(r3_structure).ok
    adapted = AdaptedChart(r3_structure.chart, leaf=(0,), middle=(1,), transverse=(2,))
    cf = normalize_frame(r3_structure, adapted)
    for got_rows, frame in ((cf.x_rows, r3_structure.e_frame[:1]), (cf.xi_rows, r3_structure.e_frame[1:])):
        for got, sec in zip(got_rows, frame):
            for g, e in zip(got, sec.as_poly_row()):
                assert g == RationalFunction.from_poly(e)
    assert is_locally_decomposable(cf)
    tr = transversal_structure(r3_structure, cf)
    assert tr.evaluate_at((0, 0)).E == Subspace(4, [(0, 0, 0, 1)])
    report(5, "worked example on Q^3", "canonical frame, decomposability, transversal")


def test_criterion_06_five_dim_example(r5_structure):
    assert check_integrability(r5_structure).ok
    adapted = AdaptedChart(r5_structure.chart, leaf=(0, 1), middle=(2, 3), transverse=(4,))
    cf = normalize_frame(r5_structure, adapted)
    one = RationalFunction.one(r5_structure.chart.names)
    assert cf.alpha_prime[0][0] == one and cf.alpha_prime[1][1] == one
    assert cf.gamma[0][0] == -one and cf.gamma[1][1] == -one
    for grid_name in ("A_prime", "A_dprime", "B_prime", "B_dprime", "C_dprime", "L_dprime"):
        assert all(e.is_zero() for row in getattr(cf, grid_name) for e in row)
    assert check_orthogonality_relations(cf).ok
    assert not is_locally_decomposable(cf)

    T = Matrix(
        [
            [1, 0, 0, -1, 0],
            [0, 1, 1, 0, 0],
            [0, 0, 1, 0, 0],
            [0, 0, 0, 1, 0],
            [0, 0, 0, 0, 1],
        ]
    ).scale(Fraction(1))
    tilde = transform_structure(r5_structure, T, ("tx1", "tx2", "ty1", "ty2", "tz"))
    cf_tilde = normalize_frame(
        tilde, AdaptedChart(tilde.chart, leaf=(0, 1), middle=(2, 3), transverse=(4,))
    )
    assert is_locally_decomposable(cf_tilde)
    ch = tilde.chart
    one_p, zero_p = ch.one(), ch.zero()
    listed = {
        "x": [
            (one_p, zero_p, zero_p, zero_p, zero_p, zero_p, one_p, zero_p, zero_p, zero_p),
            (zero_p, one_p, zero_p, zero_p, zero_p, -one_p, zero_p, zero_p, zero_p, zero_p),
        ],
        "xi": [(zero_p,) * 9 + (one_p,)],
        "y": [
            (zero_p, zero_p, one_p, zero_p, zero_p) + (zero_p,) * 5,
            (zero_p, zero_p, zero_p, one_p, zero_p) + (zero_p,) * 5,
        ],
        "theta": [
            (zero_p,) * 7 + (one_p, zero_p, zero_p),
            (zero_p,) * 8 + (one_p, zero_p),
        ],
    }
    for rows, want in (
        (cf_tilde.x_rows, listed["x"]),
        (cf_tilde.xi_rows, listed["xi"]),
        (cf_tilde.y_rows, listed["y"]),
        (cf_tilde.theta_rows, listed["theta"]),
    ):
        assert len(rows) == len(want)
        for got, expected in zip(rows, want):
            assert all(g == RationalFunction.from_poly(w) for g, w in zip(got, expected))
    report(6, "worked example on Q^5", "coefficients + both decomposability verdicts")


def test_criterion_07_condition_checker_agreement():
    rng = random.Random(107)
    theta_cases = p_cases = 0
    while theta_cases < 50 or p_cases < 50:
        m = rng.randint(2, 4)
        chart = Chart(tuple(f"x{i}" for i in range(m)))
        k = rng.randint(1, m)
        rows = [[Fraction(rng.randint(-2, 2)) for _ in range(m)] for _ in range(k)]
        if Matrix(rows).rank() != k:
            continue
        if theta_cases < 50:
            fields = [PolyVectorField(chart, [chart.constant(c) for c in row]) for row in rows]
            theta = PolyTwoForm(
                chart,
                {(i, j): rand_poly(rng, chart, 1) for i, j in combinations(range(m), 2)},
            )
            specialized = check_theta_condition(fields, theta)
            generic = check_integrability(graph_theta(fields, theta))
            assert specialized.ok == generic.ok
            theta_cases += 1
        else:
            forms = [PolyOneForm(chart, [chart.constant(c) for c in row]) for row in rows]
            P = PolyBivector(
                chart,
                {(i, j): rand_poly(rng, chart, 1) for i, j in combinations(range(m), 2)},
            )
            specialized = check_P_conditions(forms, P)
            generic = check_integrability(graph_P(forms, P))
            assert specialized.ok == generic.ok
            p_cases += 1
    report(7, "specialized vs generic integrability checkers", "50 + 50 agreements")


def test_criterion_08_module_property_theorem(
    r3_structure, r5_structure, symplectic_structure
):
    rng = random.Random(108)
    checked = 0
    for s in (r3_structure, r5_structure, symplectic_structure):
        assert check_integrability(s).ok
        assert check_module_property(s).ok
        checked += 1
    while checked < 40:
        m = rng.randint(2, 4)
        chart = Chart(tuple(f"x{i}" for i in range(m)))
        k = rng.randint(1, m)
        rows = [[Fraction(rng.randint(-2, 2)) for _ in range(m)] for _ in range(k)]
        if Matrix(rows).rank() != k:
            continue
        theta = PolyTwoForm(
            chart, {(i, j): rand_poly(rng, chart, 1) for i, j in combinations(range(m), 2)}
        )
        fields = [PolyVectorField(chart, [chart.constant(c) for c in row]) for row in rows]
        s = graph_theta(fields, theta)
        if check_integrability(s).ok:
            assert check_module_property(s).ok
        checked += 1
    report(8, "integrability implies the module property", "no counterexample")


def test_criterion_09_hamiltonian_formalism(symplectic_structure):
    s = symplectic_structure
    chart = s.chart
    P = PolyBivector(chart, {(0, 1): chart.one(), (2, 3): chart.one()})

    def ham_field(f):
        return sharp(P, d_function(f, chart))

    def bracket(f, h):
        return poisson_bracket(s, f, ham_field(f), h, ham_field(h))

    rng = random.Random(109)
    for _ in range(20):
        f, h, l = (rand_poly(rng, chart, 2) for _ in range(3))
        assert is_hamiltonian_pair(s, f, ham_field(f))
        lhs = bracket(f, bracket(h, l))
        rhs = bracket(bracket(f, h), l) + bracket(h, bracket(f, l))
        assert lhs == rhs
        assert (bracket(f, h) + bracket(h, f)).is_zero()
    report(9, "Hamiltonian formalism", "Leibniz + skewness on 20 random triples")


def test_criterion_10_reduction_pipeline(symplectic_structure):
    s = symplectic_structure
    chart = s.chart
    N = SubmanifoldData.from_equations(chart, [chart.coordinate("x4")])
    F = FoliationData(N.sub, fibre=(2,))
    result = reduce_structure(s, N, F)
    q = result.quotient
    # exactly the graph of the constant block bivector on Q^2
    expected = Subspace(4, [(0, 1, 1, 0), (-1, 0, 0, 1)])
    for pt in [(0, 0), (1, -2), (2, 2)]:
        assert q.evaluate_at(pt).E == expected
    assert result.poisson_condition
    assert check_integrability(q).ok
    # the round trips across the grid were already enforced inside the
    # pipeline; spot check one point against the transport operators
    proj = F.projection()
    u = result.restricted.points[0]
    pulled = Subspace(6, result.restricted.pulled_E[0])
    assert pullback_subspace(proj, q.evaluate_at(tuple(u[i] for i in F.base)).E) == pulled
    report(10, "reduction pipeline", "quotient graph structure with Poisson condition")


def test_criterion_11_tangent_lift(r3_structure):
    lifted = tangent_lift(r3_structure)
    assert lifted.k == 2 * r3_structure.k
    assert check_integrability(lifted).ok
    report(11, "tangent lift", "isotropy + integrability of the lifted structure")


def test_criterion_12_regular_criterion_agreement(
    r3_structure, r5_structure, symplectic_structure, nonintegrable_theta_structure
):
    fixtures = [
        r3_structure,
        r5_structure,
        symplectic_structure,
        nonintegrable_theta_structure,
    ]
    chart = Chart(("x", "y", "z"))
    theta = PolyTwoForm(chart, {(0, 1): chart.coordinate("x")})
    fixtures.append(
        graph_theta(
            [PolyVectorField.coordinate(chart, "x"), PolyVectorField.coordinate(chart, "y")],
            theta,
        )
    )
    for s in fixtures:
        assert regular_integrability_criterion(s).ok == check_integrability(s).ok
    report(12, "regular-case criterion agreement", f"{len(fixtures)} regular fixtures")
