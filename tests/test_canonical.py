import dataclasses
import itertools
import random
import re
from fractions import Fraction
from pathlib import Path

import pytest

from bigiso.calculus import BigSection, Chart, PolyOneForm, PolyVectorField
from bigiso.canonical import (
    AdaptedChart,
    NormalizationError,
    check_orthogonality_relations,
    _empty_sample,
    coupling_equivalences,
    dirac_extension_frame,
    is_locally_decomposable,
    leaf_pullback,
    normalize_frame,
    pseudo_conormal,
    pseudo_normal,
    pseudo_normal_prime,
    seed_basis,
    transversal_structure,
)
from bigiso.fixtures import fixture_text
from bigiso.grid import default_grid, format_point
from bigiso.linalg import Matrix, Subspace, combine, fraction_free
from bigiso.parser import parse_document
from bigiso.pointwise import characteristic_triple, dirac_extension, is_graph_type, random_isotropic, window
from bigiso.scalars import Polynomial, RationalFunction
from bigiso.structures import (
    BigIsotropicStructure,
    Verdict,
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

    def test_seed_rows_span_e_and_e_prime(self):
        rng = random.Random(11)
        for _ in range(60):
            data = random_isotropic(rng, rng.randint(1, 5))
            seed, m = seed_basis(data), data.m
            zeros = (0,) * m
            e_rows = [tuple(x) + tuple(xi) for x, xi in zip(seed.X0, seed.xi0)] + [zeros + tuple(k) for k in seed.kappa0]
            ep_rows = [tuple(y) + tuple(eta) for y, eta in zip(seed.Y0, seed.eta0)] + [zeros + tuple(n) for n in seed.nu0]
            assert Subspace(2 * m, e_rows) == data.E
            assert Subspace(2 * m, e_rows + ep_rows) == data.E_prime

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
        _, mat = leaf_pullback(cf)
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


# p = 0: no transverse direction, so no Xi row constrains the covectors
NO_TRANSVERSE = """chart x y
E:
  (1, 0 | 0, 0)
E_prime:
  (1, 0 | 0, 0)
  (0, 1 | 0, 0)
  (0, 0 | 0, 1)
adapted: x | y |
"""


def _document_frame(text):
    """(structure, canonical frame) of a document with an adapted block."""
    doc = parse_document(text)
    s = BigIsotropicStructure.build(doc.chart, doc.e_sections, doc.e_prime_sections)
    idx = {name: i for i, name in enumerate(doc.chart.names)}
    leaf, middle, transverse = (tuple(idx[n] for n in part) for part in doc.adapted_split)
    return s, normalize_frame(s, AdaptedChart(doc.chart, leaf, middle, transverse))


# example_r5 twisted so that both block determinants are non-constant
RATIONAL_DOC = (Path(__file__).parent / "data" / "canonical_rational.bis").read_text(encoding="utf-8")


class TestDiracExtensionFrame:
    """The generators of dirac_extension_frame span the pointwise almost-Dirac
    extension at every grid point on the validity locus."""

    @pytest.mark.parametrize(
        "text, p",
        [
            (fixture_text("example_r3"), 1),
            (fixture_text("example_r5"), 1),
            (fixture_text("example_r5_tilde"), 1),
            (NO_TRANSVERSE, 0),
            # symplectic: every direction is a leaf direction, mk + p = 0
            (fixture_text("example_symplectic") + "adapted: x1 x2 x3 x4 | |\n", 0),
            # det_e = (1 + x1^2)(1 + y1^2): the covector rows scale with it
            (RATIONAL_DOC, 1),
        ],
        ids=["r3", "r5", "r5_tilde", "no_transverse", "symplectic", "rational"],
    )
    def test_matches_the_pointwise_extension(self, text, p):
        s, cf = _document_frame(text)
        assert cf.p == p
        gens = dirac_extension_frame(cf)
        m = s.m
        used = 0
        for pt in default_grid(m, cap=12):
            if not cf.denominators_nonzero_at(pt):
                continue
            values = [tuple(e.eval(pt) for e in row) for row in gens]
            assert Subspace(2 * m, values) == dirac_extension(s.evaluate_at(pt)), pt
            used += 1
        assert used


class TestTransversalSlice:
    """The slice {x = 0} through reduction.restrict, at the edges of the
    split: no slice directions at all, and slice directions out of order."""

    def test_zero_dimensional_slice(self):
        s, cf = _document_frame(fixture_text("example_symplectic") + "adapted: x1 x2 x3 x4 | |\n")
        tr = transversal_structure(s, cf)
        assert tr.chart.names == () and tr.k == 0
        assert tr.evaluate_at(()).E == Subspace(0)
        assert check_integrability(tr).ok

    def test_permuted_middle_directions(self):
        text = fixture_text("example_r5").replace("adapted: x1 x2 | y1 y2 | z", "adapted: x1 x2 | y2 y1 | z")
        s, cf = _document_frame(text)
        tr = transversal_structure(s, cf)
        # the slice chart keeps the split's order, middle then transverse
        assert tr.chart.names == ("y2", "y1", "z")
        incl = LinearMap.from_rows([[0, 0, 0], [0, 0, 0], [0, 1, 0], [1, 0, 0], [0, 0, 1]])
        for pt in default_grid(3, cap=12):
            ambient_pt = (0, 0, pt[1], pt[0], pt[2])
            assert tr.evaluate_at(pt).E == pullback_subspace(incl, s.evaluate_at(ambient_pt).E)
        assert tr.evaluate_at((0, 0, 0)).E == Subspace(6, [(0, 0, 0, 0, 0, 1)])
        assert check_integrability(tr).ok

    def test_each_point_is_evaluated_once(self, evaluation_counts):
        s, cf = _document_frame(fixture_text("example_r3"))
        evaluation_counts.clear()
        tr = transversal_structure(s, cf)
        # the ambient structure at the 12 embedded slice points; the slice
        # structure is checked on the pullbacks and evaluated nowhere
        assert len(evaluation_counts) == 12 and set(evaluation_counts.values()) == {1}
        assert {structure for structure, _ in evaluation_counts} == {id(s)}
        assert tr.chart.names == ("y", "z")
        evaluation_counts.clear()
        verdict = coupling_equivalences(cf)
        assert verdict.ok and verdict.note == "decomposable"
        # E and E' are read off the canonical rows, so the structure is evaluated nowhere
        assert not evaluation_counts

    @pytest.mark.parametrize("grid", ["xi_rows", "y_rows", "theta_rows"])
    def test_tampered_row_disagrees_with_its_pullback(self, r5_structure, r5_adapted, grid):
        # d_z added to the first row of a grid: on the slice it leaves i*E
        # (Xi) or i*E' (Y, Theta), and the pullback check names the point
        # before the slice structure is built
        cf = normalize_frame(r5_structure, r5_adapted)
        rows = [list(row) for row in getattr(cf, grid)]
        rows[0][4] = rows[0][4] + cf.det_of(grid)
        tampered = dataclasses.replace(cf, **{grid: tuple(map(tuple, rows))})
        with pytest.raises(NormalizationError, match=re.escape("transversal frame disagrees with the pullback at (0, 0, 0)")):
            transversal_structure(r5_structure, tampered)

    @pytest.mark.parametrize("name", ["example_r3", "example_r5", "example_r5_tilde"])
    def test_graph_type_on_the_locus_of_the_fixtures(self, name):
        assert assert_slice_is_of_graph_type(_fixture_frame(name))

    def test_graph_type_on_the_locus_under_seeded_chart_changes(self, r5_structure):
        used = [assert_slice_is_of_graph_type(cf) for cf in _seeded_chart_changes(r5_structure, range(16))]
        assert len(used) >= 4 and all(used)

    def test_rows_whose_quotients_are_not_polynomial_on_the_slice(self):
        # det_e = y^3 + y; the Xi quotients 1/(y^2 + 1) and -y/(y^2 + 1) are
        # not polynomial on the slice, so the slice row is the numerator row,
        # which spans the same line wherever y != 0
        doc = parse_document(XI_RATIONAL_DOC)
        off_y_zero = [(x, y, z) for x in (1, 2) for y in (1, -1, 2) for z in (1, 3)]
        s = BigIsotropicStructure.build(doc.chart, doc.e_sections, doc.e_prime_sections, grid=off_y_zero)
        cf = normalize_frame(s, AdaptedChart(doc.chart, (0,), (1,), (2,)))
        assert str(cf.det_e) == "y^3 + y"
        assert cf.quotient_strings("xi_rows") == [["0", "(1)/(y^2 + 1)", "(-y)/(y^2 + 1)", "0", "y", "1"]]
        tr = transversal_structure(s, cf, grid=[pt[1:] for pt in off_y_zero[:6]])
        assert [[str(c) for c in sec.as_poly_row()] for sec in tr.e_frame] == [["y", "-y^2", "y^4 + y^2", "y^3 + y"]]
        # the Y and Theta rows are over det_e' = -y^2 - 1, which divides them
        assert [[str(c) for c in sec.as_poly_row()] for sec in tr.e_prime_frame[1:]] == [
            ["1", "-y", "0", "0"], ["0", "1", "-y^2 - 1", "0"]
        ]


def assert_slice_is_of_graph_type(cf) -> int:
    """The transversal structure's E meets the slice tangents only in 0 at
    every slice grid point on the validity locus; returns the number of
    such points."""
    tr = transversal_structure(cf.structure, cf)
    a, used = cf.adapted, 0
    for pt in default_grid(tr.m, cap=12):
        ambient = [0] * a.chart.dim
        for i, c in zip(a.middle + a.transverse, pt):
            ambient[i] = c
        if cf.denominators_nonzero_at(ambient):
            used += 1
            assert is_graph_type(tr.evaluate_at(pt)), pt
    return used


# the Xi row of the canonical frame is rational, and det_e = y^3 + y
XI_RATIONAL_DOC = """chart x y z
E:
  (y, 0, 0 | 0, 0, 0)
  (0, 1, -y | 0, y*(1 + y^2), 1 + y^2)
E_prime:
  (1, 0, 0 | 0, 0, 0)
  (0, 1, 0 | 0, -y*(1 + y^2), 0)
  (0, 0, 1 | 0, -(1 + y^2), 0)
  (0, 0, 0 | 0, y, 1)
adapted: x | y | z
"""


# det_e = y vanishes on the whole leaf {y = z = 0} but not on the slice {x = 0}
LEAF_POLE_DOC = """chart x y z
E:
  (y, 1, 0 | 0, 0, 0)
  (0, 0, 0 | 0, 0, 1)
E_prime:
  (1, 0, 0 | 0, 0, 0)
  (0, 1, 0 | 0, 0, 0)
  (0, 0, 0 | 0, 0, 1)
  (0, 0, 0 | 1, -y, 0)
adapted: x | y | z
"""

# det_e = det_e' = x vanish on the whole slice {x = 0}
SLICE_POLE_DOC = LEAF_POLE_DOC.replace("(y, 1, 0", "(x, 1, 0").replace("1, -y, 0)", "1, -x, 0)")


class TestDeterminantsVanishingIdentically:
    def test_on_the_leaf(self):
        _, cf = _document_frame(LEAF_POLE_DOC)
        assert cf.det_e.set_vars(cf.adapted.leaf_assignment()).is_zero()
        assert not cf.leaf_conditions_ok
        with pytest.raises(NormalizationError, match="blow up on the leaf: det_e vanishes there"):
            leaf_pullback(cf)

    def test_on_the_leaf_with_every_numerator_vanishing_there(self, r5_structure, r5_adapted):
        # the first E row times the middle coordinate y1: the canonical
        # quotients are unchanged, but det_e and every X and Xi numerator gain
        # the factor y1, so the numerators vanish on the leaf with det_e
        chart, y1 = r5_structure.chart, r5_structure.chart.coordinate("y1")
        rows = [list(row) for row in r5_structure.frame_rows()]
        rows[0] = [y1 * e for e in rows[0]]
        sections = [BigSection(PolyVectorField(chart, row[:5]), PolyOneForm(chart, row[5:])) for row in rows]
        s = BigIsotropicStructure.build(chart, sections, r5_structure.e_prime_frame, validate=False)
        cf = normalize_frame(s, r5_adapted)
        on_leaf = r5_adapted.leaf_assignment()
        assert cf.det_e.set_vars(on_leaf).is_zero()
        assert all(e.set_vars(on_leaf).is_zero() for row in cf.x_rows + cf.xi_rows for e in row)
        assert not cf.leaf_conditions_ok
        with pytest.raises(NormalizationError, match="blow up on the leaf: det_e vanishes there"):
            leaf_pullback(cf)

    def test_on_the_slice(self):
        s, cf = _document_frame(SLICE_POLE_DOC)
        assert str(cf.det_e) == str(cf.det_eprime) == "x"
        # the empty sample of the slice grid, before any division by zero
        message = "empty sample: no point of the 12-point grid lies on the validity locus (x) * (x) != 0"
        with pytest.raises(NormalizationError, match=re.escape(message)):
            transversal_structure(s, cf)


class TestDenominators:
    def test_zero_of_either_determinant_is_off_the_locus(self, r3_structure, r3_adapted):
        # the determinants are polynomials, so a zero is the only way off the locus
        cf = normalize_frame(r3_structure, r3_adapted)
        names = r3_structure.chart.names
        one = Polynomial.one(names)
        x, y = Polynomial.variable(names, 0), Polynomial.variable(names, 1)
        cases = [
            (one, one, (0, 0, 0), True),
            (x, one, (1, 0, 0), True),
            (x, one, (0, 1, 0), False),  # det_e vanishes
            (one, x, (0, 1, 0), False),  # det_e' vanishes
            (x * y, one, (1, 0, 0), False),  # one factor of det_e vanishes
            (one, x * x + y * y, (0, 0, 1), False),  # det_e' vanishes at its only real zero
            (x, x, (0, 1, 0), False),  # both at once
            (y - x, x * y + 1, (1, 2, 0), True),
        ]
        for det_e, det_ep, point, expected in cases:
            moved = dataclasses.replace(cf, det_e=det_e, det_eprime=det_ep)
            assert moved.denominators_nonzero_at(point) is expected


def quotients(cf, grid):
    """The entries of a grid as rational functions, numerator over determinant."""
    det = cf.det_of(grid)
    return tuple(tuple(e / det for e in row) for row in getattr(cf, grid))


# (FrameValues field, CanonicalFrame grid) for each grid that at() evaluates
FRAME_GRIDS = (
    ("x", "x_rows"), ("xi", "xi_rows"), ("y", "y_rows"), ("theta", "theta_rows"), ("alpha_prime", "alpha_prime")
)


def entries_evaluated_one_by_one(cf, pt):
    """Each entry of the five grids at pt as its numerator's value over its
    determinant's, one entry at a time."""
    return {
        field: tuple(tuple(e.eval(pt) / cf.det_of(grid).eval(pt) for e in row) for row in getattr(cf, grid))
        for field, grid in FRAME_GRIDS
    }


def random_polynomial(rng, names):
    """Up to three terms of degree <= 2 with small rational coefficients."""
    terms = {}
    for _ in range(rng.randint(1, 3)):
        exps = [0] * len(names)
        for _ in range(rng.randint(0, 2)):
            exps[rng.randrange(len(names))] += 1
        terms[tuple(exps)] = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
    return Polynomial(names, terms)


def random_numerator_grid(rng, names, rows):
    """Polynomial numerators in the shape of rows, times 1 + v^2 for a random
    variable v or not, so that the entries of a row differ in their factors."""
    def entry():
        v = Polynomial.variable(names, rng.randrange(len(names)))
        return random_polynomial(rng, names) * (v * v + 1 if rng.random() < 0.5 else 1)

    return tuple(tuple(entry() for _ in row) for row in rows)


class TestFrameValues:
    @pytest.mark.parametrize("name", ["example_r3", "example_r5", "example_r5_tilde"])
    def test_fixtures_equal_each_entry_evaluated_on_its_own(self, name):
        cf = _fixture_frame(name)
        used = 0
        for pt in default_grid(cf.adapted.chart.dim):
            if cf.denominators_nonzero_at(pt):
                used += 1
                v = cf.at(pt)
                for field, expected in entries_evaluated_one_by_one(cf, pt).items():
                    assert getattr(v, field) == expected, (pt, field)
                    assert all(type(value) is Fraction for row in getattr(v, field) for value in row)
        assert used

    def test_polynomial_denominators(self, r5_structure, r5_adapted):
        # the fixtures' determinants are constant; these numerator grids have
        # the fixture's shapes, over determinants that vanish at some points
        cf = normalize_frame(r5_structure, r5_adapted)
        names, rng = r5_structure.chart.names, random.Random(5)
        raised = 0
        for _ in range(6):
            dets = [random_polynomial(rng, names) for _ in range(2)]
            dets = [det if det.total_degree() > 0 else det + Polynomial.variable(names, 0) for det in dets]
            moved = dataclasses.replace(
                cf,
                det_e=dets[0],
                det_eprime=dets[1],
                **{grid: random_numerator_grid(rng, names, getattr(cf, grid)) for _, grid in FRAME_GRIDS},
            )
            for pt in default_grid(5, cap=40):
                try:
                    expected = entries_evaluated_one_by_one(moved, pt)
                except ZeroDivisionError:
                    with pytest.raises(ZeroDivisionError, match=re.escape(f"denominator vanishes at {format_point(pt)}")):
                        moved.at(pt)
                    raised += 1
                    continue
                v = moved.at(pt)
                assert {field: getattr(v, field) for field, _ in FRAME_GRIDS} == expected, pt
        assert 20 < raised < 6 * 40 - 20


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

    def test_permuted_split_permutes_the_frame(self):
        # the pivot columns are taken in the split's order, so reversing the
        # leaf and the middle directions reverses the X, Y and Theta rows
        text = fixture_text("example_r5")
        _, cf = _document_frame(text)
        _, swapped = _document_frame(text.replace("adapted: x1 x2 | y1 y2 | z", "adapted: x2 x1 | y2 y1 | z"))
        # the reversal is an odd permutation of each block, so the
        # determinants change sign and the numerators with them
        assert swapped.det_e == -cf.det_e and swapped.det_eprime == -cf.det_eprime
        for rows in ("x_rows", "y_rows", "theta_rows"):
            given, reversed_ = quotients(cf, rows), quotients(swapped, rows)
            assert len(given) == 2
            assert given[0] + given[1] == reversed_[1] + reversed_[0], rows
        assert quotients(cf, "xi_rows") == quotients(swapped, "xi_rows")

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
        _, mat = leaf_pullback(cf)
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
        h = pseudo_normal(cf.at(origin))
        # alpha' has full rank 2, so no combination survives
        assert h.dim == 0
        con = pseudo_conormal(cf.at(origin))
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
        _, mat = leaf_pullback(cf)
        # inverse of the bivector block structure: alpha = the flat of the leaf form
        assert mat[0, 1] != 0 and (mat[0, 1] + mat[1, 0]).is_zero()


# ---------------------------------------------------------------------------
# reference oracle: the pseudo bundles as symbolic generators and constraints,
# evaluated at a point; the coupling conditions through the characteristic
# triple and subspace intersections
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class SubbundleField:
    """A field of subspaces described by generators with rational-function
    coefficients (and optional linear constraints on the combinations)."""

    ambient_dim: int
    generators: tuple  # rows of RationalFunction, length ambient_dim
    constraints: tuple = ()  # rows over the generator index

    def at(self, point) -> Subspace:
        gen_vals = [tuple(entry.eval(point) for entry in row) for row in self.generators]
        if not self.constraints:
            return Subspace(self.ambient_dim, gen_vals)
        cons = Matrix([[entry.eval(point) for entry in row] for row in self.constraints])
        rows = [combine(combo, gen_vals, self.ambient_dim) for combo in cons.kernel_rows()]
        return Subspace(self.ambient_dim, rows)


def pseudo_normal_field(cf):
    m = cf.adapted.chart.dim
    gens = tuple(tuple(row[:m]) for row in cf.x_rows)
    constraints = tuple(tuple(cf.alpha_prime[a][h] for a in range(cf.r)) for h in range(cf.mk))
    return SubbundleField(m, gens, constraints)


def pseudo_normal_prime_field(cf):
    m = cf.adapted.chart.dim
    gens = []
    for a in range(cf.r):
        row = list(cf.x_rows[a][:m])
        for q in range(cf.mk):
            for entry_idx in range(m):
                row[entry_idx] = row[entry_idx] - cf.alpha_prime[a][q] * cf.theta_rows[q][entry_idx]
        gens.append(tuple(row))
    gens += [tuple(row[:m]) for row in cf.y_rows]
    return SubbundleField(m, tuple(gens))


def pseudo_conormal_field(cf):
    m = cf.adapted.chart.dim
    rows = cf.xi_rows + cf.y_rows + cf.theta_rows
    return SubbundleField(m, tuple(tuple(row[m:]) for row in rows))


def _coordinate_span(m, indices):
    return Subspace(m, [[1 if j == i else 0 for j in range(m)] for i in indices])


def coupling_conditions_reference(cf, pt):
    """(cond_normal, cond_conormal, cond_flat, alpha_prime_zero) at a point on
    the validity locus: each intersection formed and its dimension read, and
    varpi evaluated from the characteristic triple of the structure there."""
    adapted, m = cf.adapted, cf.adapted.chart.dim
    t_fol = _coordinate_span(m, adapted.middle + adapted.transverse)
    ann_fol = _coordinate_span(m, adapted.leaf)
    alpha_prime_zero = all(entry.eval(pt) == 0 for row in cf.alpha_prime for entry in row)
    h_pt = pseudo_normal_field(cf).at(pt)
    cond_normal = h_pt.dim == cf.r and h_pt.intersect(t_fol).dim == 0 and h_pt.sum(t_fol).dim == m
    con_pt = pseudo_conormal_field(cf).at(pt)
    cond_conormal = con_pt.intersect(ann_fol).dim == 0 and con_pt.sum(ann_fol).dim == m
    triple = characteristic_triple(cf.structure.evaluate_at(pt))
    hp_cap_t = pseudo_normal_prime_field(cf).at(pt).intersect(t_fol)
    cond_flat = all(triple.varpi_on(x, y) == 0 for y in hp_cap_t.basis for x in triple.cal_E.basis)
    return cond_normal, cond_conormal, cond_flat, alpha_prime_zero


def splitting_reference(cf, pt):
    """E = piece_fol (+) piece_h at a point, the directness read from the
    dimension of the intersection of the pieces."""
    adapted, m = cf.adapted, cf.adapted.chart.dim
    t_fol = _coordinate_span(m, adapted.middle + adapted.transverse)
    ann_fol = _coordinate_span(m, adapted.leaf)
    data, h_pt = cf.structure.evaluate_at(pt), pseudo_normal_field(cf).at(pt)
    x_vals = Subspace(2 * m, [[e.eval(pt) for e in row] for row in cf.x_rows])
    xi_vals = Subspace(2 * m, [[e.eval(pt) for e in row] for row in cf.xi_rows])
    piece_fol = data.E.intersect(window(m, t_fol.basis, h_pt.annihilator().basis))
    piece_h = data.E.intersect(window(m, h_pt.basis, ann_fol.basis))
    return (
        piece_fol == xi_vals
        and piece_h == x_vals
        and piece_fol.sum(piece_h) == data.E
        and piece_fol.intersect(piece_h).dim == 0
    )


def coupling_reference(cf, grid):
    """The coupling verdict assembled from the reference conditions."""
    decomposable = is_locally_decomposable(cf)
    failures, used = [], 0
    for pt in grid:
        if not cf.denominators_nonzero_at(pt):
            continue
        used += 1
        conditions = coupling_conditions_reference(cf, pt)
        if len(set(conditions)) > 1:
            failures.append((f"equivalences diverge at {format_point(pt)}", conditions))
        if decomposable and not splitting_reference(cf, pt):
            failures.append((f"decomposition of E fails at {format_point(pt)}", None))
    if not used:
        failures.append((_empty_sample(cf, len(grid)), None))
    note = "decomposable" if decomposable else "not decomposable"
    return Verdict("coupling equivalences", not failures, tuple(failures), note=note)


# alpha' = z * I: the conditions hold on {z = 0} and fail off it
_R5_SCALED = """chart x1 x2 y1 y2 z

E:
  (1, 0, 0, 0, 0 | 0, 1, z, 0, 0)
  (0, 1, 0, 0, 0 | -1, 0, 0, z, 0)
  (0, 0, 0, 0, 0 | 0, 0, 0, 0, 1)

E_prime:
  (1, 0, 0, 0, 0 | 0, 1, z, 0, 0)
  (0, 1, 0, 0, 0 | -1, 0, 0, z, 0)
  (0, 0, 0, 0, 0 | 0, 0, 0, 0, 1)
  (0, 0, 1, 0, 0 | -z, 0, 0, 0, 0)
  (0, 0, 0, 1, 0 | 0, -z, 0, 0, 0)
  (0, 0, 0, 0, 0 | 0, 0, 1, 0, 0)
  (0, 0, 0, 0, 0 | 0, 0, 0, 1, 0)

adapted: x1 x2 | y1 y2 | z
"""


# x1~ = x1 - y2, x2~ = x2 + y1, as in test_tilde_chart_is_decomposable
_TILDE = ((1, 0, 0, -1, 0), (0, 1, 1, 0, 0), (0, 0, 1, 0, 0), (0, 0, 0, 1, 0), (0, 0, 0, 0, 1))


def _seeded_chart_changes(s, seeds):
    """Canonical frames of s (split as example_r5) moved by seeded affine
    chart changes x -> D T x + b: T is the identity, the tilde shear or the
    identity plus small integer entries, and D mixes the leaf and the middle
    coordinates among themselves and scales the transverse one.  The changes
    whose blocks normalize_frame rejects are skipped."""
    m = s.m
    for seed in seeds:
        rng = random.Random(seed)
        steps = (0, 0, 1, -1)
        perturbed = [[int(i == j) + rng.choice(steps) for j in range(m)] for i in range(m)]
        T = Matrix(rng.choice([Matrix.identity(m).entries, _TILDE, perturbed]))
        D = [[0] * m for _ in range(m)]
        for block in ((0, 1), (2, 3)):
            for i in block:
                for j in block:
                    D[i][j] = int(i == j) + rng.choice(steps)
        D[4][4] = rng.choice((1, -1, 2))
        change = Matrix(D) * T
        if change.det() == 0:
            continue
        offset = [rng.randint(-1, 1) for _ in range(m)]
        moved = transform_structure(s, change.scale(Fraction(1)), [f"u{i}" for i in range(m)], offset)
        try:
            yield normalize_frame(moved, AdaptedChart(moved.chart, leaf=(0, 1), middle=(2, 3), transverse=(4,)))
        except NormalizationError:
            continue


def _fixture_frame(name):
    return _document_frame(fixture_text(name))[1]


def _tilde_frame(r5_structure):
    tilde = transform_structure(r5_structure, Matrix(_TILDE).scale(Fraction(1)), ("tx1", "tx2", "ty1", "ty2", "tz"))
    return normalize_frame(tilde, AdaptedChart(tilde.chart, leaf=(0, 1), middle=(2, 3), transverse=(4,)))


def _frames_under_other_splits(cf):
    """cf under every split of its chart into parts of the same sizes with
    the leaf and middle indices in order: the rows stay, only the split
    moves."""
    a, m = cf.adapted, cf.adapted.chart.dim
    for perm in itertools.permutations(range(m)):
        leaf, middle, transverse = perm[: a.r], perm[a.r : a.r + a.mk], perm[a.r + a.mk :]
        if list(leaf) == sorted(leaf) and list(middle) == sorted(middle):
            yield dataclasses.replace(cf, adapted=AdaptedChart(a.chart, leaf, middle, transverse))


def assert_coupling_matches_reference(cf, grid):
    """coupling_equivalences on each one-point grid against the reference.

    A one-point verdict records the four booleans whenever they disagree,
    and alpha_prime_zero is computed the same way on both sides, so equal
    verdicts at a point mean equal (cond_normal, cond_conormal, cond_flat,
    alpha_prime_zero) there, and an equal splitting verdict.  Returns the
    reference booleans at the points on the validity locus."""
    seen = []
    for pt in grid:
        assert coupling_equivalences(cf, (pt,)) == coupling_reference(cf, (pt,)), pt
        if cf.denominators_nonzero_at(pt):
            seen.append(coupling_conditions_reference(cf, pt))
    assert coupling_equivalences(cf, grid) == coupling_reference(cf, grid)
    return seen


class TestCouplingAgainstReference:
    @pytest.mark.parametrize(
        "name, holds", [("example_r3", True), ("example_r5", False), ("example_r5_tilde", True)]
    )
    def test_fixtures(self, name, holds):
        cf = _fixture_frame(name)
        seen = assert_coupling_matches_reference(cf, default_grid(cf.adapted.chart.dim))
        assert seen and set(seen) == {(holds,) * 4}

    def test_tilde_chart(self, r5_structure):
        cf = _tilde_frame(r5_structure)
        assert is_locally_decomposable(cf)
        seen = assert_coupling_matches_reference(cf, default_grid(5))
        assert set(seen) == {(True,) * 4}

    def test_dirac_case(self, symplectic_structure):
        adapted = AdaptedChart(symplectic_structure.chart, leaf=(0, 1, 2, 3), middle=(), transverse=())
        cf = normalize_frame(symplectic_structure, adapted)
        assert set(assert_coupling_matches_reference(cf, default_grid(4))) == {(True,) * 4}

    def test_conditions_that_change_with_the_point(self):
        cf = _document_frame(_R5_SCALED)[1]
        seen = assert_coupling_matches_reference(cf, default_grid(5))
        assert set(seen) == {(True,) * 4, (False,) * 4}

    @pytest.mark.parametrize("text", [fixture_text("example_r5"), _R5_SCALED], ids=["r5", "r5_scaled"])
    def test_seeded_chart_changes(self, text):
        s = _document_frame(text)[0]
        outcomes, frames = set(), 0
        for cf in _seeded_chart_changes(s, range(16)):
            frames += 1
            outcomes |= set(assert_coupling_matches_reference(cf, default_grid(5, cap=12)))
        assert frames >= 4 and outcomes == {(True,) * 4, (False,) * 4}

    @pytest.mark.parametrize(
        "text",
        [fixture_text("example_r3"), fixture_text("example_r5_tilde"), _R5_SCALED],
        ids=["r3", "r5_tilde", "r5_scaled"],
    )
    def test_frames_read_under_another_split(self, text):
        # the rows still lie in E and E', so both sides decide, but the
        # conditions no longer agree by the shape of the canonical frame
        cf = _document_frame(text)[1]
        outcomes = set()
        for moved in _frames_under_other_splits(cf):
            outcomes |= set(assert_coupling_matches_reference(moved, default_grid(moved.adapted.chart.dim, cap=4)))
        assert (True,) * 4 in outcomes and any(len(set(c)) > 1 for c in outcomes)


def assert_pointwise_matches_symbolic(cf, grid):
    """At each grid point on the validity locus, the pseudo bundles read from
    cf.at equal the symbolic oracle's evaluated there, and the canonical rows
    span the structure's own E and E'.  Returns the number of such points."""
    m, used = cf.adapted.chart.dim, 0
    for pt in grid:
        if not cf.denominators_nonzero_at(pt):
            continue
        used += 1
        v = cf.at(pt)
        assert pseudo_normal(v) == pseudo_normal_field(cf).at(pt), pt
        assert pseudo_normal_prime(v) == pseudo_normal_prime_field(cf).at(pt), pt
        assert pseudo_conormal(v) == pseudo_conormal_field(cf).at(pt), pt
        data = cf.structure.evaluate_at(pt)
        assert Subspace(2 * m, v.x + v.xi) == data.E, pt
        assert Subspace(2 * m, v.x + v.xi + v.y + v.theta) == data.E_prime, pt
    return used


class TestPseudoBundlesAgainstReference:
    @pytest.mark.parametrize("name", ["example_r3", "example_r5", "example_r5_tilde"])
    def test_fixtures(self, name):
        cf = _fixture_frame(name)
        assert assert_pointwise_matches_symbolic(cf, default_grid(cf.adapted.chart.dim))

    @pytest.mark.parametrize("text", [fixture_text("example_r5"), _R5_SCALED], ids=["r5", "r5_scaled"])
    def test_seeded_chart_changes(self, text):
        s = _document_frame(text)[0]
        used = [assert_pointwise_matches_symbolic(cf, default_grid(5, cap=12)) for cf in _seeded_chart_changes(s, range(16))]
        assert len(used) >= 4 and all(used)

    @pytest.mark.parametrize(
        "text",
        [fixture_text("example_r3"), fixture_text("example_r5_tilde"), _R5_SCALED],
        ids=["r3", "r5_tilde", "r5_scaled"],
    )
    def test_frames_read_under_another_split(self, text):
        moved = list(_frames_under_other_splits(_document_frame(text)[1]))
        assert len(moved) > 1
        for cf in moved:
            assert assert_pointwise_matches_symbolic(cf, default_grid(cf.adapted.chart.dim, cap=4))


# ---------------------------------------------------------------------------
# reference oracle: the canonical stage in rational functions, each entry a
# RationalFunction of its own, the seven relation families written out and
# the leaf read by restricting those rational functions
# ---------------------------------------------------------------------------

GRID_COLUMNS = {  # grid -> (rows, column block) in the split's index families
    "A_prime": ("x", "middle"), "A_dprime": ("x", "transverse"), "alpha": ("x", "leaf*"), "alpha_prime": ("x", "middle*"),
    "B_prime": ("xi", "middle"), "B_dprime": ("xi", "transverse"), "beta": ("xi", "leaf*"), "beta_prime": ("xi", "middle*"),
    "C_dprime": ("y", "transverse"), "gamma": ("y", "leaf*"), "L_dprime": ("theta", "transverse"), "lam": ("theta", "leaf*"),
}


def rational_reference(s, adapted):
    """Every grid of the canonical frame as rational functions: the rows of
    one fraction-free elimination per bundle, each entry over its pivot."""
    m, r, mk, p = s.m, adapted.r, adapted.mk, adapted.p
    cols_e = list(adapted.leaf) + [m + i for i in adapted.transverse]
    cols_ep = cols_e + list(adapted.middle) + [m + i for i in adapted.middle]

    def identity_on(rows, columns):
        reduced, pivots, _ = fraction_free(rows, columns)
        assert len(pivots) == len(rows)
        return [tuple(RationalFunction(e, reduced[0][pivots[0]]) for e in row) for row in reduced]

    new_e, new_ep = identity_on(s.frame_rows(), cols_e), identity_on(s.prime_frame_rows(), cols_ep)
    rows = {"x": new_e[:r], "xi": new_e[r:], "y": new_ep[r + p : r + p + mk], "theta": new_ep[r + p + mk :]}
    ref = {f"{name}_rows": tuple(block) for name, block in rows.items()}
    ref["eprime_only_rows"] = tuple(new_ep[: r + p])
    for grid, (family, block) in GRID_COLUMNS.items():
        columns = [m * block.endswith("*") + i for i in getattr(adapted, block.rstrip("*"))]
        ref[grid] = tuple(tuple(row[c] for c in columns) for row in rows[family])
    return ref


def reference_leaf_conditions(adapted, ref):
    on_leaf = adapted.leaf_assignment()
    off_leaf, transverse = adapted.middle + adapted.transverse, adapted.transverse
    blocks = (("x_rows", off_leaf), ("xi_rows", off_leaf), ("y_rows", transverse), ("theta_rows", transverse))
    try:
        return all(row[c].set_vars(on_leaf).is_zero() for grid, columns in blocks for row in ref[grid] for c in columns)
    except ZeroDivisionError:
        return False


def reference_relations(adapted, ref):
    """(label, value) of each failing relation, in the families' order."""
    failures = []
    r, mk, p = adapted.r, adapted.mk, adapted.p
    A1, A2, al, al1 = ref["A_prime"], ref["A_dprime"], ref["alpha"], ref["alpha_prime"]
    B1, B2, be, be1 = ref["B_prime"], ref["B_dprime"], ref["beta"], ref["beta_prime"]
    C2, ga, L2, lam = ref["C_dprime"], ref["gamma"], ref["L_dprime"], ref["lam"]

    def expect_zero(tag, value):
        if not value.is_zero():
            failures.append((tag, value))

    for a, h in itertools.product(range(r), range(mk)):
        expect_zero(f"alpha'[{a}][{h}] + gamma[{h}][{a}]", al1[a][h] + ga[h][a])
    for q, a in itertools.product(range(mk), range(r)):
        expect_zero(f"lambda[{q}][{a}] + A'[{a}][{q}]", lam[q][a] + A1[a][q])
    for u, h in itertools.product(range(p), range(mk)):
        expect_zero(f"beta'[{u}][{h}] + C''[{h}][{u}]", be1[u][h] + C2[h][u])
    for q, u in itertools.product(range(mk), range(p)):
        expect_zero(f"L''[{q}][{u}] + B'[{u}][{q}]", L2[q][u] + B1[u][q])
    for u, a in itertools.product(range(p), range(r)):
        acc = be[u][a] + A2[a][u]
        for h in range(mk):
            acc = acc + al1[a][h] * B1[u][h] + be1[u][h] * A1[a][h]
        expect_zero(f"mixed covector relation (u={u}, a={a})", acc)
    for u, v in itertools.product(range(p), range(p)):
        acc = B2[v][u] + B2[u][v]
        for h in range(mk):
            acc = acc + be1[u][h] * B1[v][h] + be1[v][h] * B1[u][h]
        expect_zero(f"transverse symmetry relation (u={u}, v={v})", acc)
    for a, b in itertools.product(range(r), range(r)):
        acc = al[a][b] + al[b][a]
        for h in range(mk):
            acc = acc + al1[a][h] * A1[b][h] + al1[b][h] * A1[a][h]
        expect_zero(f"leaf symmetry relation (a={a}, b={b})", acc)
    return failures


def assert_matches_rational_reference(cf, grid):
    """Quotients, their text, at(), the leaf conditions, the leaf matrix and
    the failing relations of cf against the rational reference.  Returns the
    labels of the failing relations."""
    adapted = cf.adapted
    ref = rational_reference(cf.structure, adapted)
    for name, expected in ref.items():
        assert quotients(cf, name) == expected, name
        assert cf.quotient_strings(name) == [[str(e) for e in row] for row in expected], name
    assert cf.leaf_conditions_ok == reference_leaf_conditions(adapted, ref)
    on_leaf = adapted.leaf_assignment()
    try:
        ref_leaf = [[e.set_vars(on_leaf) for e in row] for row in ref["alpha"]]
    except ZeroDivisionError:
        ref_leaf = None
    skew = ref_leaf is not None and all(
        (ref_leaf[a][b] + ref_leaf[b][a]).is_zero() for a in range(cf.r) for b in range(cf.r)
    )
    if not skew:
        with pytest.raises(NormalizationError):
            leaf_pullback(cf)
    else:
        det, mat = leaf_pullback(cf)
        assert det == cf.det_e.set_vars(on_leaf)
        assert [[mat[a, b] / det for b in range(cf.r)] for a in range(cf.r)] == ref_leaf
        assert [[str(e / det) for e in row] for row in mat.entries] == [[str(e) for e in row] for row in ref_leaf]
    expected = reference_relations(adapted, ref)
    got = check_orthogonality_relations(cf)
    assert [label for label, _ in got.failures] == [label for label, _ in expected]
    assert all(value == ref_value for (_, value), (_, ref_value) in zip(got.failures, expected))
    assert got.ok == (not expected)
    used = 0
    for pt in grid:
        if cf.denominators_nonzero_at(pt):
            used += 1
            v = cf.at(pt)
            for field, name in FRAME_GRIDS:
                assert getattr(v, field) == tuple(tuple(e.eval(pt) for e in row) for row in ref[name]), (pt, field)
    assert used
    return [label for label, _ in got.failures]


def _scaled_frames(text, seeds):
    """The structure of a document under seeded frames of the same bundles:
    each row scaled by 1, 2, 1 + x_i^2 or 2 + x_i^2 (never zero at a rational
    point) and mixed with another by c * x_v, so that the fraction-free rows
    and the determinants are no longer constant."""
    doc = parse_document(text)
    chart = doc.chart
    idx = {name: i for i, name in enumerate(chart.names)}
    adapted = AdaptedChart(chart, *(tuple(idx[n] for n in part) for part in doc.adapted_split))
    for seed in seeds:
        rng = random.Random(seed)

        def moved(sections):
            rows = [list(sec.as_poly_row()) for sec in sections]
            for row in rows:
                v = chart.coordinate(chart.names[rng.randrange(chart.dim)])
                factor = rng.choice((chart.one(), 2 * chart.one(), v * v + 1, v * v + 2))
                row[:] = [e * factor for e in row]
            i, j = rng.sample(range(len(rows)), 2)
            c = rng.choice((-2, -1, 1, 2)) * chart.coordinate(chart.names[rng.randrange(chart.dim)])
            rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
            m = chart.dim
            return [BigSection(PolyVectorField(chart, row[:m]), PolyOneForm(chart, row[m:])) for row in rows]

        s = BigIsotropicStructure.build(
            chart, moved(doc.e_sections), moved(doc.e_prime_sections), grid=default_grid(chart.dim, cap=12)
        )
        yield normalize_frame(s, adapted)


def _broken_frames(structure, adapted, seeds):
    """Canonical frames of validate=False perturbations of a structure: each
    entry of each row gains, with probability 1/6, a small constant or a
    multiple of a coordinate, so that E' is no longer the g-orthogonal of E
    and some of the relations fail."""
    chart, m = structure.chart, structure.m
    for seed in seeds:
        rng = random.Random(seed)

        def perturbed(rows):
            out = []
            for row in rows:
                out.append([
                    e + rng.choice((1, -1, 2)) * rng.choice([chart.one()] + [chart.coordinate(n) for n in chart.names])
                    if rng.random() < 1 / 6 else e
                    for e in row
                ])
            return [BigSection(PolyVectorField(chart, row[:m]), PolyOneForm(chart, row[m:])) for row in out]

        s = BigIsotropicStructure.build(
            chart, perturbed(structure.frame_rows()), perturbed(structure.prime_frame_rows()), validate=False
        )
        try:
            yield normalize_frame(s, adapted)
        except NormalizationError:
            continue


class TestAgainstRationalReference:
    @pytest.mark.parametrize("name", ["example_r3", "example_r5", "example_r5_tilde"])
    def test_fixtures(self, name):
        cf = _fixture_frame(name)
        assert not assert_matches_rational_reference(cf, default_grid(cf.adapted.chart.dim))

    def test_tilde_chart_and_dirac_case(self, r5_structure, symplectic_structure):
        assert not assert_matches_rational_reference(_tilde_frame(r5_structure), default_grid(5))
        adapted = AdaptedChart(symplectic_structure.chart, leaf=(0, 1, 2, 3), middle=(), transverse=())
        assert not assert_matches_rational_reference(normalize_frame(symplectic_structure, adapted), default_grid(4))

    def test_permuted_split(self):
        # reversing the leaf and the middle directions makes both determinants -1
        text = fixture_text("example_r5").replace("adapted: x1 x2 | y1 y2 | z", "adapted: x2 x1 | y2 y1 | z")
        cf = _document_frame(text)[1]
        assert cf.det_e == cf.det_eprime == -cf.adapted.chart.one()
        assert not assert_matches_rational_reference(cf, default_grid(5))

    def test_rational_document(self):
        # a canonical frame with non-polynomial entries over non-constant determinants
        cf = _document_frame(RATIONAL_DOC)[1]
        assert cf.det_e.total_degree() == 4 and cf.det_eprime.total_degree() == 8
        assert any(not e.is_polynomial() for row in quotients(cf, "x_rows") for e in row)
        assert not assert_matches_rational_reference(cf, default_grid(5, cap=12))

    @pytest.mark.parametrize(
        "text", [fixture_text("example_r5"), _R5_SCALED, RATIONAL_DOC], ids=["r5", "r5_scaled", "rational"]
    )
    def test_scaled_frames(self, text):
        degrees = set()
        for cf in _scaled_frames(text, range(6)):
            degrees |= {cf.det_e.total_degree(), cf.det_eprime.total_degree()}
            assert not assert_matches_rational_reference(cf, default_grid(5, cap=12))
        assert max(degrees) >= 2

    def test_frames_that_break_each_family(self, r5_structure, r5_adapted):
        families = set()
        frames = 0
        for cf in _broken_frames(r5_structure, r5_adapted, range(24)):
            frames += 1
            labels = assert_matches_rational_reference(cf, default_grid(5, cap=6))
            families |= {label.split("(")[0].split("[")[0] for label in labels}
        assert frames >= 12
        assert families == {
            "alpha'", "lambda", "beta'", "L''", "mixed covector relation ", "transverse symmetry relation ", "leaf symmetry relation "
        }

    def test_failure_order_with_two_leaf_and_two_transverse_rows(self):
        # r = p = 2, so the order of the (u, a) and (u, v) pairs shows
        s, _ = _document_frame(TWO_BY_TWO_DOC)
        adapted = AdaptedChart(s.chart, leaf=(0, 1), middle=(2,), transverse=(3, 4))
        mixed = []
        for cf in _broken_frames(s, adapted, range(12)):
            labels = assert_matches_rational_reference(cf, default_grid(5, cap=6))
            mixed.append([label for label in labels if label.startswith("mixed")])
        assert any(len(labels) >= 3 for labels in mixed)


# the leaves x1, x2 with the conormal of z1, z2 in E, and the middle
# direction y with its covector in E'
TWO_BY_TWO_DOC = """chart x1 x2 y z1 z2
E:
  (1, 0, 0, 0, 0 | 0, 0, 0, 0, 0)
  (0, 1, 0, 0, 0 | 0, 0, 0, 0, 0)
  (0, 0, 0, 0, 0 | 0, 0, 0, 1, 0)
  (0, 0, 0, 0, 0 | 0, 0, 0, 0, 1)
E_prime:
  (1, 0, 0, 0, 0 | 0, 0, 0, 0, 0)
  (0, 1, 0, 0, 0 | 0, 0, 0, 0, 0)
  (0, 0, 0, 0, 0 | 0, 0, 0, 1, 0)
  (0, 0, 0, 0, 0 | 0, 0, 0, 0, 1)
  (0, 0, 1, 0, 0 | 0, 0, 0, 0, 0)
  (0, 0, 0, 0, 0 | 0, 0, 1, 0, 0)
adapted: x1 x2 | y | z1 z2
"""
