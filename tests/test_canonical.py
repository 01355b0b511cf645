import dataclasses
from fractions import Fraction

import pytest

from bigiso.calculus import BigSection, Chart, PolyOneForm, PolyVectorField
from bigiso.canonical import (
    AdaptedChart,
    NormalizationError,
    check_orthogonality_relations,
    coupling_equivalences,
    dirac_extension_frame,
    is_locally_decomposable,
    leaf_pullback,
    normalize_frame,
    pseudo_conormal,
    pseudo_normal,
    seed_basis,
    transversal_structure,
)
from bigiso.linalg import Matrix, Subspace
from bigiso.pointwise import dirac_extension
from bigiso.scalars import Polynomial, RationalFunction
from bigiso.structures import (
    check_integrability,
    structure_from_components,
    transform_structure,
)
from bigiso.transport import LinearMap, pullback_subspace


@pytest.fixture(scope="module")
def r3_adapted(r3_structure):
    return AdaptedChart(r3_structure.chart, leaf=(0,), middle=(1,), transverse=(2,))


@pytest.fixture(scope="module")
def r5_adapted(r5_structure):
    return AdaptedChart(r5_structure.chart, leaf=(0, 1), middle=(2, 3), transverse=(4,))


class TestSeedBasis:
    def test_r3_seed(self, r3_structure):
        data = r3_structure.evaluate_at((0, 0, 0))
        seed = seed_basis(data)
        assert seed.X0 == ((1, 0, 0),)
        assert seed.xi0 == ((0, 0, 0),)
        assert seed.Y0 == ((0, 1, 0),)
        assert seed.eta0 == ((0, 0, 0),)
        assert seed.kappa0 == ((0, 0, 1),)
        assert seed.nu0 == ((0, 1, 0),)
        assert seed.Z0 == ((0, 0, 1),)

    def test_index_ranges(self, r5_structure):
        data = r5_structure.evaluate_at((0, 0, 0, 0, 0))
        seed = seed_basis(data)
        m, k = 5, 3
        assert len(seed.Y0) == len(seed.nu0) == m - k
        assert len(seed.kappa0) == len(seed.Z0)

    def test_dirac_case_has_no_middle(self, symplectic_structure):
        data = symplectic_structure.evaluate_at((0, 0, 0, 0))
        seed = seed_basis(data)
        assert len(seed.Y0) == 0 and len(seed.nu0) == 0
        assert len(seed.X0) == 4 and len(seed.kappa0) == 0

    def test_pure_cotangent(self):
        chart = Chart(("x", "y"))
        s = structure_from_components(
            chart,
            [(0, 0, 1, 0), (0, 0, 0, 1)],
            [(0, 0, 1, 0), (0, 0, 0, 1)],
        )
        seed = seed_basis(s.evaluate_at((0, 0)))
        assert len(seed.X0) == 0
        assert Subspace(2, seed.kappa0) == Subspace.full(2)


class TestNormalizeR3:
    def test_frame_returned_unchanged(self, r3_structure, r3_adapted):
        cf = normalize_frame(r3_structure, r3_adapted)
        expect_e = [sec.as_poly_row() for sec in r3_structure.e_frame]
        got = [cf.x_rows[0], cf.xi_rows[0]]
        for g_row, e_row in zip(got, expect_e):
            for g_entry, e_entry in zip(g_row, e_row):
                assert g_entry == RationalFunction.from_poly(e_entry)
        assert cf.leaf_conditions_ok
        assert check_orthogonality_relations(cf).ok

    def test_decomposable(self, r3_structure, r3_adapted):
        cf = normalize_frame(r3_structure, r3_adapted)
        assert is_locally_decomposable(cf)
        assert coupling_equivalences(cf).ok

    def test_leaf_pullback_is_zero_form(self, r3_structure, r3_adapted):
        cf = normalize_frame(r3_structure, r3_adapted)
        mat = leaf_pullback(cf)
        assert mat.rows == 1 and mat[0, 0].is_zero()

    def test_dirac_extension_frame(self, r3_structure, r3_adapted):
        cf = normalize_frame(r3_structure, r3_adapted)
        gens = dirac_extension_frame(cf)
        for pt in [(0, 0, 0), (1, -2, 1)]:
            vals = [tuple(e.eval(pt) for e in row) for row in gens]
            expected = dirac_extension(r3_structure.evaluate_at(pt))
            assert Subspace(6, vals) == expected
            assert expected == Subspace(
                6, [(1, 0, 0, 0, 0, 0), (0, 0, 0, 0, 0, 1), (0, 0, 0, 0, 1, 0)]
            )

    def test_transversal_structure(self, r3_structure, r3_adapted):
        cf = normalize_frame(r3_structure, r3_adapted)
        tr = transversal_structure(r3_structure, cf)
        assert tr.chart.names == ("y", "z")
        assert tr.k == 1
        d = tr.evaluate_at((0, 0))
        assert d.E == Subspace(4, [(0, 0, 0, 1)])
        assert check_integrability(tr).ok


class TestDenominators:
    def test_zero_or_pole_of_either_determinant_is_off_the_locus(self, r3_structure, r3_adapted):
        cf = normalize_frame(r3_structure, r3_adapted)
        names = r3_structure.chart.names
        one = RationalFunction.one(names)
        x = RationalFunction.from_poly(Polynomial.variable(names, 0))
        y = RationalFunction.from_poly(Polynomial.variable(names, 1))
        cases = [
            (one, one, (0, 0, 0), True),
            (x, one, (1, 0, 0), True),
            (x, one, (0, 1, 0), False),  # det_e vanishes
            (one, x, (0, 1, 0), False),  # det_e' vanishes
            (one / x, one, (0, 1, 0), False),  # det_e has a pole
            (one, one / y, (1, 0, 0), False),  # det_e' has a pole
            (x, one / x, (0, 1, 0), False),  # both at once
            (y / x, x / y, (1, 1, 0), True),
        ]
        for det_e, det_ep, point, expected in cases:
            moved = dataclasses.replace(cf, det_e=det_e, det_eprime=det_ep)
            assert moved.denominators_nonzero_at(point) is expected


class TestNormalizeR5:
    def test_given_frame_is_canonical(self, r5_structure, r5_adapted):
        cf = normalize_frame(r5_structure, r5_adapted)
        one = RationalFunction.one(r5_structure.chart.names)
        zero = RationalFunction.zero(r5_structure.chart.names)
        # mixed coefficients exactly as listed for these coordinates
        assert cf.alpha_prime[0][0] == one and cf.alpha_prime[1][1] == one
        assert cf.alpha_prime[0][1] == zero and cf.alpha_prime[1][0] == zero
        assert cf.gamma[0][0] == -one and cf.gamma[1][1] == -one
        assert cf.alpha[0][1] == one and cf.alpha[1][0] == -one
        for grid_name in ("A_prime", "A_dprime", "B_prime", "B_dprime", "C_dprime", "L_dprime"):
            grid = getattr(cf, grid_name)
            assert all(entry.is_zero() for row in grid for entry in row), grid_name
        assert all(entry.is_zero() for row in cf.lam for entry in row)
        assert all(entry.is_zero() for row in cf.beta for entry in row)
        assert cf.leaf_conditions_ok
        assert check_orthogonality_relations(cf).ok

    def test_not_decomposable_in_original_chart(self, r5_structure, r5_adapted):
        cf = normalize_frame(r5_structure, r5_adapted)
        assert not is_locally_decomposable(cf)
        assert coupling_equivalences(cf).ok  # the equivalences still agree

    def test_uniqueness(self, r5_structure, r5_adapted):
        cf1 = normalize_frame(r5_structure, r5_adapted)
        cf2 = normalize_frame(r5_structure, r5_adapted)
        for rows1, rows2 in ((cf1.x_rows, cf2.x_rows), (cf1.theta_rows, cf2.theta_rows)):
            for r1, r2 in zip(rows1, rows2):
                assert all(a == b for a, b in zip(r1, r2))

    def test_tilde_chart_is_decomposable(self, r5_structure):
        # x1~ = x1 - y2, x2~ = x2 + y1, other coordinates unchanged
        T = Matrix(
            [
                [1, 0, 0, -1, 0],
                [0, 1, 1, 0, 0],
                [0, 0, 1, 0, 0],
                [0, 0, 0, 1, 0],
                [0, 0, 0, 0, 1],
            ]
        ).scale(Fraction(1))
        tilde = transform_structure(
            r5_structure, T, ("tx1", "tx2", "ty1", "ty2", "tz")
        )
        adapted = AdaptedChart(tilde.chart, leaf=(0, 1), middle=(2, 3), transverse=(4,))
        cf = normalize_frame(tilde, adapted)
        assert is_locally_decomposable(cf)
        assert coupling_equivalences(cf).ok
        # the canonical frame matches the listed tilde frame symbol for symbol
        chart = tilde.chart
        one, zero = chart.one(), chart.zero()
        expected_x = [
            (one, zero, zero, zero, zero, zero, one, zero, zero, zero),
            (zero, one, zero, zero, zero, -one, zero, zero, zero, zero),
        ]
        expected_xi = [(zero,) * 9 + (one,)]
        expected_y = [
            (zero, zero, one, zero, zero, zero, zero, zero, zero, zero),
            (zero, zero, zero, one, zero, zero, zero, zero, zero, zero),
        ]
        expected_theta = [
            (zero, zero, zero, zero, zero, zero, zero, one, zero, zero),
            (zero, zero, zero, zero, zero, zero, zero, zero, one, zero),
        ]
        for got_rows, want_rows in (
            (cf.x_rows, expected_x),
            (cf.xi_rows, expected_xi),
            (cf.y_rows, expected_y),
            (cf.theta_rows, expected_theta),
        ):
            assert len(got_rows) == len(want_rows)
            for got, want in zip(got_rows, want_rows):
                for g, w in zip(got, want):
                    assert g == RationalFunction.from_poly(w)

    def test_leaf_pullback_symplectic(self, r5_structure, r5_adapted):
        cf = normalize_frame(r5_structure, r5_adapted)
        mat = leaf_pullback(cf)
        assert mat[0, 1] == RationalFunction.one(r5_structure.chart.names)
        assert mat[1, 0] == -RationalFunction.one(r5_structure.chart.names)
        # matches the characteristic form on the leaf and the pullback of the
        # almost-Dirac extension
        from bigiso.pointwise import characteristic_triple

        for x_pt in [(0,), (2,)]:
            pt = (x_pt[0], 0, 0, 0, 0)
            data = r5_structure.evaluate_at(pt)
            triple = characteristic_triple(data)
            e1 = (1, 0, 0, 0, 0)
            e2 = (0, 1, 0, 0, 0)
            assert triple.varpi_on(e1, e2) == mat[0, 1].eval(pt)
            incl = LinearMap.from_rows([[1, 0], [0, 1], [0, 0], [0, 0], [0, 0]])
            leaf_pb = pullback_subspace(incl, data.E)
            dirac_pb = pullback_subspace(incl, dirac_extension(data))
            assert leaf_pb == dirac_pb
            # graph of the symplectic leaf form
            assert leaf_pb == Subspace(4, [(1, 0, 0, 1), (0, 1, -1, 0)])

    def test_transversal_structure(self, r5_structure, r5_adapted):
        cf = normalize_frame(r5_structure, r5_adapted)
        tr = transversal_structure(r5_structure, cf)
        assert tr.chart.names == ("y1", "y2", "z")
        d = tr.evaluate_at((0, 0, 0))
        assert d.E == Subspace(6, [(0, 0, 0, 0, 0, 1)])
        assert check_integrability(tr).ok

    def test_eprime_only_variant(self, r5_structure, r5_adapted):
        # the E'-adapted variant of the (X, Xi) rows zeroes the middle blocks
        # entirely, at the price of leaving E
        cf = normalize_frame(r5_structure, r5_adapted)
        m = 5
        middle_tangent = (2, 3)
        middle_covector = (m + 2, m + 3)
        for row in cf.eprime_only_rows:
            for idx in middle_tangent + middle_covector:
                assert row[idx].is_zero()
        # first variant row is (d_x1, dx2), which is not in E pointwise
        first = [e.eval((0, 0, 0, 0, 0)) for e in cf.eprime_only_rows[0]]
        data = r5_structure.evaluate_at((0, 0, 0, 0, 0))
        assert not data.E.contains(first)
        assert data.E_prime.contains(first)

    def test_pseudo_bundles(self, r5_structure, r5_adapted):
        cf = normalize_frame(r5_structure, r5_adapted)
        origin = (0, 0, 0, 0, 0)
        h = pseudo_normal(cf).at(origin)
        # alpha' has full rank 2, so no combination survives
        assert h.dim == 0
        con = pseudo_conormal(cf).at(origin)
        # covector parts of Xi, Y, Theta: dz, -dx1, -dx2, dy1, dy2
        assert con.dim == 5


class TestNormalizationErrors:
    def test_wrong_split_rejected(self, r3_structure):
        with pytest.raises(NormalizationError):
            AdaptedChart(r3_structure.chart, leaf=(0,), middle=(1,), transverse=(1,))

    def test_incompatible_ranges(self, r3_structure):
        bad = AdaptedChart(r3_structure.chart, leaf=(0, 1), middle=(), transverse=(2,))
        with pytest.raises(NormalizationError):
            normalize_frame(r3_structure, bad)

    def test_singular_block_detected(self):
        # E = span{(d_y, 0), (0, dz)} but the declared leaf direction is x:
        # the E block on (leaf-tangent, transverse-covector) is singular
        chart = Chart(("x", "y", "z"))
        s = structure_from_components(
            chart,
            [(0, 1, 0, 0, 0, 0), (0, 0, 0, 0, 0, 1)],
            [
                (0, 1, 0, 0, 0, 0),
                (0, 0, 0, 0, 0, 1),
                (1, 0, 0, 0, 0, 0),
                (0, 0, 0, 1, 0, 0),
            ],
        )
        adapted = AdaptedChart(chart, leaf=(0,), middle=(1,), transverse=(2,))
        with pytest.raises(NormalizationError):
            normalize_frame(s, adapted)

    def test_chi_must_vanish_on_leaf(self):
        chart = Chart(("x", "y", "z"))
        with pytest.raises(NormalizationError):
            AdaptedChart(
                chart,
                leaf=(0,),
                middle=(1,),
                transverse=(2,),
                chi=((chart.one(),),),
            )

    def test_chi_twist_accepted_when_vanishing(self, r3_structure):
        chart = r3_structure.chart
        adapted = AdaptedChart(
            chart,
            leaf=(0,),
            middle=(1,),
            transverse=(2,),
            chi=((chart.coordinate("y"),),),
        )
        cf = normalize_frame(r3_structure, adapted)
        assert cf.leaf_conditions_ok
        assert check_orthogonality_relations(cf).ok


class TestDiracSpecialization:
    def test_symplectic_graph_canonical(self, symplectic_structure):
        chart = symplectic_structure.chart
        adapted = AdaptedChart(chart, leaf=(0, 1, 2, 3), middle=(), transverse=())
        cf = normalize_frame(symplectic_structure, adapted)
        verdict = check_orthogonality_relations(cf)
        assert verdict.ok
        # in the maximal case the only surviving family is alpha skewness
        for a in range(4):
            for b in range(4):
                assert (cf.alpha[a][b] + cf.alpha[b][a]).is_zero()
        mat = leaf_pullback(cf)
        # inverse of the bivector block structure: alpha = the flat of the leaf form
        assert mat[0, 1] != 0 and (mat[0, 1] + mat[1, 0]).is_zero()
