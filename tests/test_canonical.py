import dataclasses
import itertools
import random
from fractions import Fraction

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
from bigiso.linalg import Matrix, Subspace, combine
from bigiso.parser import parse_document
from bigiso.pointwise import characteristic_triple, dirac_extension, window
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
        ],
        ids=["r3", "r5", "r5_tilde", "no_transverse", "symplectic"],
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
        # the ambient structure at the 12 embedded slice points, the slice at the same 12
        assert len(evaluation_counts) == 24 and set(evaluation_counts.values()) == {1}
        assert tr.chart.names == ("y", "z")
        evaluation_counts.clear()
        verdict = coupling_equivalences(cf)
        assert verdict.ok and verdict.note == "decomposable"
        # E and E' are read off the canonical rows, so the structure is evaluated nowhere
        assert not evaluation_counts


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

    def test_permuted_split_permutes_the_frame(self):
        # the pivot columns are taken in the split's order, so reversing the
        # leaf and the middle directions reverses the X, Y and Theta rows
        text = fixture_text("example_r5")
        _, cf = _document_frame(text)
        _, swapped = _document_frame(text.replace("adapted: x1 x2 | y1 y2 | z", "adapted: x2 x1 | y2 y1 | z"))
        for rows in ("x_rows", "y_rows", "theta_rows"):
            given, reversed_ = getattr(cf, rows), getattr(swapped, rows)
            assert len(given) == 2
            assert all(a == b for a, b in zip(given[0] + given[1], reversed_[1] + reversed_[0])), rows
        assert all(a == b for a, b in zip(cf.xi_rows[0], swapped.xi_rows[0]))
        assert swapped.det_e == -cf.det_e and swapped.det_eprime == -cf.det_eprime

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
        mat = leaf_pullback(cf)
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
