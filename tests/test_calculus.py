import random
from fractions import Fraction
from itertools import combinations, product

import pytest

from bigiso.calculus import (
    BigSection,
    Chart,
    ChartError,
    PolyBivector,
    PolyOneForm,
    PolyThreeForm,
    PolyTrivector,
    PolyTwoForm,
    PolyVectorField,
    axiom_v_defect,
    complete_lift,
    complete_lift_form,
    courant_bracket,
    d_function,
    d_oneform,
    d_twoform,
    flat,
    graph_section_theta,
    graph_section_P,
    interior_threeform,
    interior_twoform,
    interior_wedge_threeform,
    leibniz_defect,
    lie_bracket,
    lie_derivative_oneform,
    lie_derivative_twoform,
    p_bracket_oneforms,
    pairing_sections,
    partials,
    schouten_squared,
    sharp,
    trivector_contract_two,
    vertical_lift,
    vertical_lift_form,
    wedge_vectors,
)
from bigiso.scalars import Polynomial


def chart3():
    return Chart(("x", "y", "z"))


def rand_poly(rng, chart, degree=2):
    terms = {}
    m = chart.dim
    for _ in range(rng.randint(1, 4)):
        exps = [0] * m
        for _ in range(rng.randint(0, degree)):
            exps[rng.randrange(m)] += 1
        terms[tuple(exps)] = Fraction(rng.randint(-3, 3))
    return Polynomial(chart.names, terms)


def rand_vf(rng, chart, degree=2):
    return PolyVectorField(chart, [rand_poly(rng, chart, degree) for _ in range(chart.dim)])


def rand_of(rng, chart, degree=2):
    return PolyOneForm(chart, [rand_poly(rng, chart, degree) for _ in range(chart.dim)])


def rand_section(rng, chart, degree=2):
    return BigSection(rand_vf(rng, chart, degree), rand_of(rng, chart, degree))


def rand_bivector(rng, chart, degree=1):
    return PolyBivector(
        chart, {(i, j): rand_poly(rng, chart, degree) for i, j in combinations(range(chart.dim), 2)}
    )


def rand_twoform(rng, chart, degree=1):
    return PolyTwoForm(
        chart, {(i, j): rand_poly(rng, chart, degree) for i, j in combinations(range(chart.dim), 2)}
    )


class TestExteriorCalculus:
    def test_lie_bracket_coordinate_example(self):
        ch = chart3()
        dx = PolyVectorField.coordinate(ch, "x")
        x_dy = PolyVectorField.coordinate(ch, "y").scale(ch.coordinate("x"))
        assert lie_bracket(dx, x_dy) == PolyVectorField.coordinate(ch, "y")

    def test_d_of_dx_is_zero(self):
        ch = chart3()
        assert d_oneform(PolyOneForm.coordinate(ch, "x")).is_zero()

    def test_d_squared_zero(self):
        rng = random.Random(0)
        ch = chart3()
        for _ in range(20):
            f = rand_poly(rng, ch)
            assert d_oneform(d_function(f, ch)).is_zero()
            alpha = rand_of(rng, ch)
            assert d_twoform(d_oneform(alpha)).is_zero()

    def test_lie_derivative_example(self):
        ch = Chart(("x1", "x2"))
        X = PolyVectorField.coordinate(ch, "x2").scale(ch.coordinate("x1"))
        alpha = PolyOneForm.coordinate(ch, "x2")
        assert lie_derivative_oneform(X, alpha) == PolyOneForm.coordinate(ch, "x1")

    def test_cartan_magic_on_oneforms(self):
        rng = random.Random(1)
        ch = chart3()
        for _ in range(15):
            X = rand_vf(rng, ch)
            alpha = rand_of(rng, ch)
            via_magic = interior_twoform(X, d_oneform(alpha)) + d_function(alpha.pair(X), ch)
            assert lie_derivative_oneform(X, alpha) == via_magic

    def test_jacobi_identity(self):
        rng = random.Random(2)
        ch = chart3()
        for _ in range(12):
            X, Y, Z = (rand_vf(rng, ch) for _ in range(3))
            jac = (
                lie_bracket(X, lie_bracket(Y, Z))
                + lie_bracket(Y, lie_bracket(Z, X))
                + lie_bracket(Z, lie_bracket(X, Y))
            )
            assert jac.is_zero()

    def test_antisymmetry(self):
        rng = random.Random(3)
        ch = chart3()
        X, Y = rand_vf(rng, ch), rand_vf(rng, ch)
        assert (lie_bracket(X, Y) + lie_bracket(Y, X)).is_zero()

    def test_twoform_anchor_convention(self):
        ch = chart3()
        theta = PolyTwoForm(ch, {(0, 1): ch.one()})  # dx^dy
        dx = PolyVectorField.coordinate(ch, "x")
        dy = PolyVectorField.coordinate(ch, "y")
        assert theta(dx, dy) == ch.one()
        assert flat(theta, dx) == PolyOneForm.coordinate(ch, "y")

    def test_coordinate_lookup_rejects_what_is_not_in_the_chart(self):
        ch = chart3()
        for bad in (-1, 3, 7, "w", 1.0, None):
            with pytest.raises(ChartError, match="no coordinate"):
                ch.coordinate(bad)
            with pytest.raises(ChartError, match="no coordinate"):
                ch.index(bad)
            with pytest.raises(ChartError, match="no coordinate"):
                PolyVectorField.coordinate(ch, bad)
            with pytest.raises(ChartError, match="no coordinate"):
                PolyOneForm.coordinate(ch, bad)
        for i, name in enumerate(ch.names):
            assert ch.index(name) == ch.index(i) == i
            assert ch.coordinate(name) == ch.coordinate(i) == Polynomial.variable(ch.names, i)

    def test_chart_mismatch(self):
        a = PolyVectorField.coordinate(chart3(), "x")
        b = PolyVectorField.coordinate(Chart(("u", "v")), "u")
        with pytest.raises(ChartError):
            lie_bracket(a, b)


class TestCourantBracket:
    def test_partials_table(self):
        ch = chart3()
        x, y, z = (ch.coordinate(n) for n in ch.names)
        table = partials([x * x * y, z - 3, ch.zero()])
        assert table == ((x * y * 2, x * x, ch.zero()), (ch.zero(), ch.zero(), ch.one()), (ch.zero(),) * 3)
        assert partials([]) == ()

    def test_given_partials_take_no_derivative(self, derivative_calls):
        rng = random.Random(6)
        ch = chart3()
        for _ in range(5):
            s1, s2 = rand_qsection(rng, ch), rand_qsection(rng, ch)
            derivative_calls.clear()
            expected = courant_bracket(s1, s2)
            assert len(derivative_calls) == 2 * 2 * ch.dim**2
            d1, d2 = partials(s1.as_poly_row()), partials(s2.as_poly_row())
            derivative_calls.clear()
            assert courant_bracket(s1, s2, d1, d2) == expected
            assert courant_bracket(s2, s1, d2, d1) == -expected
            assert derivative_calls == []
            assert expected.vf == lie_bracket(s1.vf, s2.vf)

    def test_disjoint_coordinates_vanish(self):
        ch = chart3()
        s1 = BigSection(PolyVectorField.coordinate(ch, "x"), PolyOneForm.zero(ch))
        s2 = BigSection(PolyVectorField.zero(ch), PolyOneForm.coordinate(ch, "z"))
        assert courant_bracket(s1, s2).is_zero()

    def test_five_dim_constant_frame(self):
        ch = Chart(("x1", "x2", "y1", "y2", "z"))
        s1 = BigSection(
            PolyVectorField.coordinate(ch, "x1"),
            PolyOneForm.coordinate(ch, "x2") + PolyOneForm.coordinate(ch, "y1"),
        )
        s2 = BigSection(
            PolyVectorField.coordinate(ch, "x2"),
            -PolyOneForm.coordinate(ch, "x1") + PolyOneForm.coordinate(ch, "y2"),
        )
        assert courant_bracket(s1, s2).is_zero()

    def test_isotropic_diagonal(self):
        rng = random.Random(4)
        ch = chart3()
        for _ in range(10):
            s = rand_section(rng, ch)
            if not pairing_sections(s, s).is_zero():
                continue
            assert courant_bracket(s, s).is_zero()

    def test_antisymmetry(self):
        rng = random.Random(5)
        ch = chart3()
        s1, s2 = rand_section(rng, ch), rand_section(rng, ch)
        assert (courant_bracket(s1, s2) + courant_bracket(s2, s1)).is_zero()

    def test_axiom_v_random(self):
        rng = random.Random(6)
        ch = chart3()
        for _ in range(20):
            defect = axiom_v_defect(rand_section(rng, ch), rand_section(rng, ch), rand_section(rng, ch))
            assert defect.is_zero()

    def test_scaling_identity_random(self):
        rng = random.Random(7)
        ch = chart3()
        for _ in range(20):
            defect = leibniz_defect(rand_section(rng, ch), rand_section(rng, ch), rand_poly(rng, ch))
            assert defect.is_zero()

    def test_tangent_part_is_the_lie_bracket(self):
        # enlargement axiom 1 (the anchor intertwines brackets) holds by definition
        rng = random.Random(18)
        ch = chart3()
        for _ in range(20):
            a, b = rand_section(rng, ch), rand_section(rng, ch)
            assert courant_bracket(a, b).vf == lie_bracket(a.vf, b.vf)

    def test_jacobiator_identity_random(self):
        # [a1,[a2,b]] - [[a1,a2],b] - [a2,[a1,b]] = (0, -dT/3) with
        # T = g([a1,a2],b) + g([a2,b],a1) - g([a1,b],a2), on sections that
        # are not isotropic, so T is not constant
        rng = random.Random(15)
        ch = chart3()
        exact_defects = 0
        for _ in range(8):
            a1, a2, b = rand_section(rng, ch, 1), rand_section(rng, ch, 1), rand_section(rng, ch, 1)
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
            assert jac == BigSection(PolyVectorField.zero(ch), d_function(T, ch).scale(Fraction(-1, 3)))
            exact_defects += not jac.is_zero()
        assert exact_defects >= 6

    def test_two_function_scaling_identity_random(self):
        # [f a, h b] - (f h [a,b] + f (X h) b - h (Y f) a) = g(a,b) (0, h df - f dh)
        rng = random.Random(16)
        ch = chart3()
        for _ in range(15):
            a, b = rand_section(rng, ch), rand_section(rng, ch)
            f, h = rand_poly(rng, ch), rand_poly(rng, ch)
            lhs = courant_bracket(a.scale(f), b.scale(h))
            rhs = courant_bracket(a, b).scale(f * h) + b.scale(f * a.vf.apply(h)) - a.scale(h * b.vf.apply(f))
            twist = d_function(f, ch).scale(h) - d_function(h, ch).scale(f)
            assert lhs - rhs == BigSection(PolyVectorField.zero(ch), twist.scale(pairing_sections(a, b)))

    def test_coanchor_identity_random(self):
        # the cotangent part of [a, b] is L_X beta - L_Y alpha + d(alpha(Y)) - d g(a, b)
        rng = random.Random(17)
        ch = chart3()
        for _ in range(15):
            a, b = rand_section(rng, ch), rand_section(rng, ch)
            expect = (
                lie_derivative_oneform(a.vf, b.of)
                - lie_derivative_oneform(b.vf, a.of)
                + d_function(a.of.pair(b.vf), ch)
            )
            assert courant_bracket(a, b).of - expect == -d_function(pairing_sections(a, b), ch)

    def test_closed_form_graph_identity(self):
        # [(X, i(X)t), (Y, i(Y)t)] = ([X,Y], i([X,Y])t + i(X^Y)dt) for any 2-form t
        rng = random.Random(8)
        ch = chart3()
        for _ in range(15):
            theta = rand_twoform(rng, ch, degree=2)
            X, Y = rand_vf(rng, ch, 1), rand_vf(rng, ch, 1)
            got = courant_bracket(graph_section_theta(theta, X), graph_section_theta(theta, Y))
            xy = lie_bracket(X, Y)
            expect = BigSection(xy, flat(theta, xy) + interior_wedge_threeform(X, Y, d_twoform(theta)))
            assert (got - expect).is_zero()


class TestBivectorCalculus:
    def test_sharp_anchor_convention(self):
        ch = chart3()
        P = PolyBivector(ch, {(0, 1): ch.one()})  # d1 ^ d2
        a = PolyOneForm.coordinate(ch, "x")
        assert P(a, PolyOneForm.coordinate(ch, "y")) == ch.one()
        assert sharp(P, a) == PolyVectorField.coordinate(ch, "y")
        assert sharp(P, PolyOneForm.zero(ch)).is_zero()

    def test_p_bracket_examples(self):
        ch = Chart(("x1", "x2"))
        P = PolyBivector(ch, {(0, 1): ch.coordinate("x1")})
        dx1 = PolyOneForm.coordinate(ch, "x1")
        dx2 = PolyOneForm.coordinate(ch, "x2")
        assert p_bracket_oneforms(P, dx1, dx2) == dx1
        const_P = PolyBivector(ch, {(0, 1): ch.one()})
        assert p_bracket_oneforms(const_P, dx1, dx2).is_zero()
        rng = random.Random(9)
        a = rand_of(rng, ch)
        assert p_bracket_oneforms(P, a, a).is_zero()

    def test_schouten_trivial_cases(self):
        ch2 = Chart(("x1", "x2"))
        assert schouten_squared(PolyBivector(ch2, {(0, 1): ch2.coordinate("x1")})).is_zero()
        ch4 = Chart(("a", "b", "c", "d"))
        const = PolyBivector(ch4, {(0, 1): ch4.one(), (2, 3): ch4.one()})
        assert schouten_squared(const).is_zero()

    def test_schouten_frozen_value(self):
        # P = x2 d2^d3 + d1^d2 has [P,P](dx1,dx2,dx3) = -2, computed from the
        # bracket-compatibility identity below before freezing
        ch = Chart(("x1", "x2", "x3"))
        P = PolyBivector(ch, {(1, 2): ch.coordinate("x2"), (0, 1): ch.one()})
        T = schouten_squared(P)
        forms = [PolyOneForm.coordinate(ch, i) for i in range(3)]
        assert T(forms[0], forms[1], forms[2]) == ch.constant(-2)

    def test_gelfand_dorfman_identity(self):
        # P({a,b}_P, c) = c([sharp a, sharp b]) + [P,P](a,b,c)/2 for coordinate forms
        rng = random.Random(10)
        for _ in range(12):
            m = rng.randint(2, 4)
            ch = Chart(tuple(f"x{i}" for i in range(m)))
            P = rand_bivector(rng, ch, degree=1)
            T = schouten_squared(P)
            for i, j, k in combinations(range(m), 3):
                a, b, c = (PolyOneForm.coordinate(ch, t) for t in (i, j, k))
                lhs = P(p_bracket_oneforms(P, a, b), c)
                rhs = c.pair(lie_bracket(sharp(P, a), sharp(P, b))) + T(a, b, c) * Fraction(1, 2)
                assert lhs == rhs

    def test_graph_bracket_closed_form(self):
        # [(sharp s, s), (sharp t, t)] = (sharp {s,t} - i(s^t)[P,P]/2, {s,t})
        rng = random.Random(11)
        for _ in range(10):
            m = rng.randint(2, 4)
            ch = Chart(tuple(f"x{i}" for i in range(m)))
            P = rand_bivector(rng, ch, degree=1)
            T = schouten_squared(P)
            s, t = rand_of(rng, ch, 1), rand_of(rng, ch, 1)
            got = courant_bracket(graph_section_P(P, s), graph_section_P(P, t))
            rho = p_bracket_oneforms(P, s, t)
            expect = BigSection(
                sharp(P, rho) - trivector_contract_two(T, s, t).scale(Fraction(1, 2)),
                rho,
            )
            assert (got - expect).is_zero()

    def test_wedge_contract_conventions(self):
        rng = random.Random(12)
        ch = chart3()
        X, Y, Z = (rand_vf(rng, ch, 1) for _ in range(3))
        theta = rand_twoform(rng, ch, 1)
        lam = d_twoform(theta)
        # (i(X^Y)lam)(Z) = lam(X,Y,Z)
        assert interior_wedge_threeform(X, Y, lam).pair(Z) == lam(X, Y, Z)
        b = wedge_vectors(X, Y)
        a1, a2 = rand_of(rng, ch, 1), rand_of(rng, ch, 1)
        assert b(a1, a2) == a1.pair(X) * a2.pair(Y) - a1.pair(Y) * a2.pair(X)


class TestLifts:
    def test_constant_field(self):
        ch = Chart(("x",))
        tangent = ch.tangent_chart()
        dx = PolyVectorField.coordinate(ch, "x")
        assert complete_lift(dx, tangent) == PolyVectorField.coordinate(tangent, "x")

    def test_euler_example(self):
        ch = Chart(("x",))
        tangent = ch.tangent_chart()
        x_dx = PolyVectorField.coordinate(ch, "x").scale(ch.coordinate("x"))
        lifted = complete_lift(x_dx, tangent)
        expect = PolyVectorField.coordinate(tangent, "x").scale(tangent.coordinate("x")) + (
            PolyVectorField.coordinate(tangent, "x_dot").scale(tangent.coordinate("x_dot"))
        )
        assert lifted == expect

    def test_form_lifts(self):
        ch = Chart(("x",))
        tangent = ch.tangent_chart()
        dx = PolyOneForm.coordinate(ch, "x")
        assert complete_lift_form(dx, tangent) == PolyOneForm.coordinate(tangent, "x_dot")
        assert vertical_lift_form(dx, tangent) == PolyOneForm.coordinate(tangent, "x")

    def test_lift_pairings(self):
        # g-products of lifts reproduce the lifts of the base pairing:
        # g(sC, tC) = (g(s,t))^C, g(sC, tV) = (g(s,t))^V, g(sV, tV) = 0
        rng = random.Random(13)
        ch = chart3()
        tangent = ch.tangent_chart()
        from bigiso.calculus import lift_section

        for _ in range(10):
            s, t = rand_section(rng, ch, 1), rand_section(rng, ch, 1)
            g = pairing_sections(s, t)
            sC, sV = lift_section(s, tangent, "complete"), lift_section(s, tangent, "vertical")
            tC, tV = lift_section(t, tangent, "complete"), lift_section(t, tangent, "vertical")
            complete_of_g = sum(
                (tangent.coordinate(3 + j) * g.derivative(j).recast(tangent.names) for j in range(3)),
                tangent.zero(),
            )
            assert pairing_sections(sC, tC) == complete_of_g
            assert pairing_sections(sC, tV) == g.recast(tangent.names)
            assert pairing_sections(sV, tC) == g.recast(tangent.names)
            assert pairing_sections(sV, tV).is_zero()


class TestLieDerivativeTwoForm:
    def test_leibniz_vs_evaluation(self):
        rng = random.Random(14)
        ch = chart3()
        for _ in range(8):
            X = rand_vf(rng, ch, 1)
            theta = rand_twoform(rng, ch, 1)
            Y, Z = rand_vf(rng, ch, 1), rand_vf(rng, ch, 1)
            lhs = lie_derivative_twoform(X, theta)(Y, Z)
            rhs = (
                X.apply(theta(Y, Z))
                - theta(lie_bracket(X, Y), Z)
                - theta(Y, lie_bracket(X, Z))
            )
            assert lhs == rhs


# --------------------------------------------------------------------------
# one component-tuple base and one skew contraction
# --------------------------------------------------------------------------

def rand_skew(rng, cls, chart, degree):
    """A sparse random skew table: about half the increasing tuples stored."""
    table = {
        idx: rand_poly(rng, chart, 1)
        for idx in combinations(range(chart.dim), degree)
        if rng.random() < 0.6
    }
    return cls(chart, table)


def ref_call2(T, a, b):
    """The hand-expanded 2-slot evaluation that PolyTwoForm/PolyBivector used."""
    total = T.chart.zero()
    for (i, j), p in T.table.items():
        total = total + p * (a.comps[i] * b.comps[j] - a.comps[j] * b.comps[i])
    return total


def ref_call3(T, a, b, c):
    """The hand-expanded 3-slot evaluation that PolyThreeForm/PolyTrivector used."""
    total = T.chart.zero()
    for (i, j, k), p in T.table.items():
        det = (
            a.comps[i] * (b.comps[j] * c.comps[k] - b.comps[k] * c.comps[j])
            - a.comps[j] * (b.comps[i] * c.comps[k] - b.comps[k] * c.comps[i])
            + a.comps[k] * (b.comps[i] * c.comps[j] - b.comps[j] * c.comps[i])
        )
        total = total + p * det
    return total


def ref_first_slot(cls, T, a):
    """sum_i a_i T(i, j): the component() loop of the old sharp and interior_twoform."""
    chart = a.chart
    comps = []
    for j in range(chart.dim):
        acc = chart.zero()
        for i in range(chart.dim):
            acc = acc + a.comps[i] * T.component(i, j)
        comps.append(acc)
    return cls(chart, comps)


def ref_interior_threeform(X, lam):
    chart = X.chart
    table = {}
    for j, k in combinations(range(chart.dim), 2):
        acc = chart.zero()
        for i in range(chart.dim):
            acc = acc + X.comps[i] * lam.component(i, j, k)
        table[(j, k)] = acc
    return PolyTwoForm(chart, table)


def ref_first_two_slots(cls, T, a, b):
    """sum_{i != j} a_i b_j T(i, j, k): the old interior_wedge_threeform loop."""
    chart = a.chart
    comps = []
    for k in range(chart.dim):
        acc = chart.zero()
        for i in range(chart.dim):
            for j in range(chart.dim):
                if i != j:
                    acc = acc + a.comps[i] * b.comps[j] * T.component(i, j, k)
        comps.append(acc)
    return cls(chart, comps)


def ref_contract(T, args):
    """sum over all index tuples I of prod args[n]_{I_n} * T.component(*I, *J)."""
    chart = T.chart
    out = {}
    for J in combinations(range(chart.dim), T.degree - len(args)):
        acc = chart.zero()
        for I in product(range(chart.dim), repeat=len(args)):
            term = T.component(*I, *J)
            for a, i in zip(args, I):
                term = term * a.comps[i]
            acc = acc + term
        if not acc.is_zero():
            out[J] = acc
    return out


SKEW_KINDS = (
    (PolyTwoForm, 2, rand_vf),
    (PolyBivector, 2, rand_of),
    (PolyThreeForm, 3, rand_vf),
    (PolyTrivector, 3, rand_of),
)


class TestSkewContraction:
    @pytest.mark.parametrize("m", [3, 4, 5])
    def test_contract_matches_component_sums(self, m):
        rng = random.Random(100 + m)
        ch = Chart(tuple(f"x{i}" for i in range(m)))
        for cls, degree, rand_arg in SKEW_KINDS:
            for _ in range(3):
                T = rand_skew(rng, cls, ch, degree)
                for r in range(degree + 1):
                    args = [rand_arg(rng, ch, 1) for _ in range(r)]
                    got = {k: v for k, v in T.contract(*args).items() if not v.is_zero()}
                    assert got == ref_contract(T, args), (cls.__name__, r)

    @pytest.mark.parametrize("m", [3, 4, 5])
    def test_calls_match_hand_expanded_bodies(self, m):
        rng = random.Random(200 + m)
        ch = Chart(tuple(f"x{i}" for i in range(m)))
        for cls, degree, rand_arg in SKEW_KINDS:
            ref = ref_call2 if degree == 2 else ref_call3
            for _ in range(4):
                T = rand_skew(rng, cls, ch, degree)
                args = [rand_arg(rng, ch, 1) for _ in range(degree)]
                assert T(*args) == ref(T, *args), cls.__name__

    @pytest.mark.parametrize("m", [3, 4, 5])
    def test_wrappers_match_component_loops(self, m):
        rng = random.Random(300 + m)
        ch = Chart(tuple(f"x{i}" for i in range(m)))
        for _ in range(4):
            X, Y = rand_vf(rng, ch, 1), rand_vf(rng, ch, 1)
            a, b = rand_of(rng, ch, 1), rand_of(rng, ch, 1)
            P = rand_skew(rng, PolyBivector, ch, 2)
            theta = rand_skew(rng, PolyTwoForm, ch, 2)
            lam = rand_skew(rng, PolyThreeForm, ch, 3)
            T = rand_skew(rng, PolyTrivector, ch, 3)
            assert sharp(P, a) == ref_first_slot(PolyVectorField, P, a)
            assert interior_twoform(X, theta) == ref_first_slot(PolyOneForm, theta, X)
            assert flat(theta, X) == ref_first_slot(PolyOneForm, theta, X)
            assert interior_threeform(X, lam) == ref_interior_threeform(X, lam)
            assert interior_wedge_threeform(X, Y, lam) == ref_first_two_slots(PolyOneForm, lam, X, Y)
            assert trivector_contract_two(T, a, b) == ref_first_two_slots(PolyVectorField, T, a, b)
            old_trivector = [ref_call3(T, a, b, PolyOneForm.coordinate(ch, k)) for k in range(m)]
            assert trivector_contract_two(T, a, b) == PolyVectorField(ch, old_trivector)

    def test_arity(self):
        ch = chart3()
        X = PolyVectorField.coordinate(ch, "x")
        theta = PolyTwoForm(ch, {(0, 1): 1})
        lam = PolyThreeForm(ch, {(0, 1, 2): 1})
        with pytest.raises(ChartError):
            theta(X)
        with pytest.raises(ChartError):
            lam(X, X, X, X)
        with pytest.raises(ChartError):
            theta.contract(X, X, X)
        assert theta.contract() == theta.table
        assert lam(X, X, X).is_zero()
        assert all(v.is_zero() for v in lam.contract(X, X).values())

    def test_contract_checks_the_chart(self):
        theta = PolyTwoForm(chart3(), {(0, 1): 1})
        with pytest.raises(ChartError):
            theta.contract(PolyVectorField.coordinate(Chart(("u", "v", "w")), "u"))

    def test_negative_indices_rejected(self):
        ch = chart3()
        with pytest.raises(ChartError):
            PolyTwoForm(ch, {(-1, 0): 1})
        with pytest.raises(ChartError):
            PolyBivector(ch, {(-2, 1): 1})
        with pytest.raises(ChartError):
            PolyTrivector(ch, {(-3, -2, -1): 1})
        with pytest.raises(ChartError):
            PolyThreeForm(ch, {(0, 1, 3): 1})
        with pytest.raises(ChartError):
            PolyTwoForm(ch, {(0.0, 1.5): 1})
        with pytest.raises(ChartError):
            PolyBivector(ch, {("x", "y"): 1})


class TestComponentTuples:
    def test_str_of_all_six_classes(self):
        ch = chart3()
        x, y = ch.coordinate("x"), ch.coordinate("y")
        assert str(PolyVectorField(ch, [1, x, 0])) == "(1)*d_x + (x)*d_y"
        assert str(PolyOneForm(ch, [0, -y, 2])) == "(-y)*dy + (2)*dz"
        two = {(0, 1): x * y - 1, (1, 2): 1}
        assert str(PolyTwoForm(ch, two)) == "(x*y - 1)*x^dy + (1)*y^dz"
        assert str(PolyBivector(ch, two)) == "(x*y - 1)*x^y + (1)*y^z"
        three = {(0, 1, 2): x * 2}
        assert str(PolyThreeForm(ch, three)) == "(2*x)*x^dy^dz"
        assert str(PolyTrivector(ch, three)) == "(2*x)*x^y^z"
        assert str(PolyVectorField.zero(ch)) == "0"
        assert str(PolyOneForm.zero(ch)) == "0"
        for cls in (PolyTwoForm, PolyBivector, PolyThreeForm, PolyTrivector):
            assert str(cls(ch, {})) == "0"

    def test_kinds_with_equal_components_differ(self):
        ch = chart3()
        comps = [1, ch.coordinate("x"), 0]
        assert PolyVectorField(ch, comps) != PolyOneForm(ch, comps)
        assert PolyVectorField(ch, comps) == PolyVectorField(ch, comps)
        table = {(0, 1): ch.coordinate("z")}
        assert PolyTwoForm(ch, table) != PolyBivector(ch, table)
        assert PolyThreeForm(ch, {(0, 1, 2): 1}) != PolyTrivector(ch, {(0, 1, 2): 1})

    def test_results_keep_their_kind(self):
        ch = chart3()
        for cls in (PolyVectorField, PolyOneForm):
            a, b = cls.coordinate(ch, "x"), cls.coordinate(ch, 2)
            for value in (a + b, a - b, -a, a.scale(ch.coordinate("y")), cls.zero(ch)):
                assert type(value) is cls

    def test_coordinate_bad_input(self):
        ch = chart3()
        for cls in (PolyVectorField, PolyOneForm):
            assert cls.coordinate(ch, "z") == cls.coordinate(ch, 2)
            for which in (-1, 3, 7, "w", 1.0, None):
                with pytest.raises(ChartError):
                    cls.coordinate(ch, which)

    def test_mixing_kinds_rejected(self):
        ch = chart3()
        X, alpha = PolyVectorField.coordinate(ch, "x"), PolyOneForm.coordinate(ch, "x")
        for a, b in ((X, alpha), (alpha, X)):
            with pytest.raises(ChartError, match="operand mismatch"):
                a + b
            with pytest.raises(ChartError, match="operand mismatch"):
                a - b
        with pytest.raises(ChartError, match="chart mismatch"):
            X + PolyVectorField.coordinate(Chart(("u", "v", "w")), "u")


# --------------------------------------------------------------------------
# the accumulation loops that Polynomial.dot replaced, kept as oracles
# --------------------------------------------------------------------------

def rand_qpoly(rng, chart, degree=2):
    """Non-integer coefficients with mixed denominators; sometimes zero."""
    terms = {}
    for _ in range(rng.randint(0, 4)):
        exps = [0] * chart.dim
        for _ in range(rng.randint(0, degree)):
            exps[rng.randrange(chart.dim)] += 1
        terms[tuple(exps)] = Fraction(rng.randint(-5, 5), rng.randint(1, 6))
    return Polynomial(chart.names, terms)


def rand_qsection(rng, chart):
    """A random section; a pair of them is almost never isotropic."""
    vf = PolyVectorField(chart, [rand_qpoly(rng, chart) for _ in range(chart.dim)])
    return BigSection(vf, PolyOneForm(chart, [rand_qpoly(rng, chart) for _ in range(chart.dim)]))


def old_apply(X, f):
    total = X.chart.zero()
    for i, c in enumerate(X.comps):
        total = total + c * f.derivative(i)
    return total


def old_pair(alpha, X):
    total = alpha.chart.zero()
    for a, x in zip(alpha.comps, X.comps):
        total = total + a * x
    return total


def old_contract(T, *args):
    zero = T.chart.zero()
    table = dict(T.table)
    for a in args:
        out = {}
        for idx, p in table.items():
            for s, i in enumerate(idx):
                rest = idx[:s] + idx[s + 1:]
                term = a.comps[i] * p
                acc = out.get(rest, zero)
                out[rest] = acc - term if s % 2 else acc + term
        table = out
    return table


def old_lie_bracket(X, Y):
    chart = X.chart
    comps = []
    for i in range(chart.dim):
        acc = chart.zero()
        for j in range(chart.dim):
            acc = acc + X.comps[j] * Y.comps[i].derivative(j) - Y.comps[j] * X.comps[i].derivative(j)
        comps.append(acc)
    return PolyVectorField(chart, comps)


def old_pairing_sections(s1, s2):
    return (old_pair(s1.of, s2.vf) + old_pair(s2.of, s1.vf)) * Fraction(1, 2)


def old_courant_bracket(s1, s2):
    """The bracket through Lie derivatives: L_X beta - L_Y alpha + d(alpha(Y) - beta(X))/2."""
    chart = s1.chart
    x, alpha = s1.vf, s1.of
    y, beta = s2.vf, s2.of
    cot = (
        lie_derivative_oneform(x, beta)
        - lie_derivative_oneform(y, alpha)
        + d_function(old_pair(alpha, y) - old_pair(beta, x), chart).scale(Fraction(1, 2))
    )
    return BigSection(old_lie_bracket(x, y), cot)


def old_schouten_squared(P):
    chart = P.chart
    table = {}
    for i, j, k in combinations(range(chart.dim), 3):
        acc = chart.zero()
        for l in range(chart.dim):
            acc = acc + (
                P.component(l, i) * P.component(j, k).derivative(l)
                + P.component(l, j) * P.component(k, i).derivative(l)
                + P.component(l, k) * P.component(i, j).derivative(l)
            )
        table[(i, j, k)] = acc * 2
    return PolyTrivector(chart, table)


def old_wedge_vectors(X, Y):
    chart = X.chart
    table = {}
    for i, j in combinations(range(chart.dim), 2):
        table[(i, j)] = X.comps[i] * Y.comps[j] - X.comps[j] * Y.comps[i]
    return PolyBivector(chart, table)


def old_fibre_derivatives(comps, tangent):
    m = len(comps)
    out = []
    for c in comps:
        acc = tangent.zero()
        for j in range(m):
            acc = acc + tangent.coordinate(m + j) * c.derivative(j).recast(tangent.names)
        out.append(acc)
    return out


def rand_qskew(rng, cls, chart, degree):
    table = {idx: rand_qpoly(rng, chart, 1) for idx in combinations(range(chart.dim), degree)}
    return cls(chart, table)


class TestFusedSumsMatchTheOldLoops:
    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_brackets_and_pairings(self, m):
        rng = random.Random(700 + m)
        ch = Chart(tuple(f"x{i}" for i in range(m)))
        for _ in range(6):
            s1, s2 = rand_qsection(rng, ch), rand_qsection(rng, ch)
            f = rand_qpoly(rng, ch)
            assert s1.vf.apply(f) == old_apply(s1.vf, f)
            assert s1.of.pair(s2.vf) == old_pair(s1.of, s2.vf)
            assert lie_bracket(s1.vf, s2.vf) == old_lie_bracket(s1.vf, s2.vf)
            g12 = pairing_sections(s1, s2)
            assert g12 == old_pairing_sections(s1, s2)
            bracket = courant_bracket(s1, s2)
            assert bracket == old_courant_bracket(s1, s2)
            assert str(bracket) == str(old_courant_bracket(s1, s2))
            if m > 1:
                assert not g12.is_zero()  # the sections are not isotropic
            assert wedge_vectors(s1.vf, s2.vf) == old_wedge_vectors(s1.vf, s2.vf)

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_contractions(self, m):
        rng = random.Random(710 + m)
        ch = Chart(tuple(f"x{i}" for i in range(m)))
        for cls, degree, kind in (
            (PolyTwoForm, 2, PolyVectorField),
            (PolyBivector, 2, PolyOneForm),
            (PolyThreeForm, 3, PolyVectorField),
            (PolyTrivector, 3, PolyOneForm),
        ):
            if degree > m:
                continue
            T = rand_qskew(rng, cls, ch, degree)
            for r in range(degree + 1):
                args = [kind(ch, [rand_qpoly(rng, ch) for _ in range(m)]) for _ in range(r)]
                assert T.contract(*args) == old_contract(T, *args), (cls.__name__, r)

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_schouten_and_lifts(self, m):
        rng = random.Random(720 + m)
        ch = Chart(tuple(f"x{i}" for i in range(m)))
        tangent = ch.tangent_chart()
        for _ in range(3):
            P = rand_qskew(rng, PolyBivector, ch, 2)
            assert schouten_squared(P) == old_schouten_squared(P)
            s = rand_qsection(rng, ch)
            old_vf = [c.recast(tangent.names) for c in s.vf.comps] + old_fibre_derivatives(s.vf.comps, tangent)
            assert complete_lift(s.vf, tangent) == PolyVectorField(tangent, old_vf)
            old_of = old_fibre_derivatives(s.of.comps, tangent) + [c.recast(tangent.names) for c in s.of.comps]
            assert complete_lift_form(s.of, tangent) == PolyOneForm(tangent, old_of)
