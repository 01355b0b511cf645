import random
from fractions import Fraction

import pytest

from bigiso.linalg import Matrix, Subspace
from bigiso.pointwise import (
    BigVector,
    CharacteristicTriple,
    GeometryError,
    IsotropicData,
    characteristic_triple,
    dirac_extension,
    flat_varpi_kernel,
    form_omega,
    is_graph_type,
    is_isotropic,
    orthogonal_g,
    pairing_g,
    random_isotropic,
    reconstruct,
    tangent_projection,
)


def bv(m, tangent, cotangent):
    return BigVector(m, tangent, cotangent)


def span(m, *rows):
    return Subspace(2 * m, [list(r) for r in rows])


class TestPairings:
    def test_g_values(self):
        # (e1, dx2) with (e2, dx1) in m=2
        u = bv(2, (1, 0), (0, 1))
        v = bv(2, (0, 1), (1, 0))
        assert pairing_g(u, v) == 1
        assert pairing_g(bv(2, (1, 0), (0, 0)), bv(2, (1, 0), (0, 0))) == 0
        assert pairing_g(bv(2, (1, 0), (1, 0)), bv(2, (1, 0), (1, 0))) == 1

    def test_g_symmetric(self):
        rng = random.Random(0)
        for _ in range(20):
            u = bv(3, [rng.randint(-3, 3) for _ in range(3)], [rng.randint(-3, 3) for _ in range(3)])
            v = bv(3, [rng.randint(-3, 3) for _ in range(3)], [rng.randint(-3, 3) for _ in range(3)])
            assert pairing_g(u, v) == pairing_g(v, u)
            assert form_omega(u, v) == -form_omega(v, u)

    def test_omega_values(self):
        u = bv(1, (1,), (0,))
        v = bv(1, (0,), (1,))
        assert form_omega(u, v) == Fraction(-1, 2)
        assert form_omega(u, u) == 0
        assert form_omega(bv(2, (1, 0), (0, 1)), bv(2, (0, 1), (1, 0))) == 0

    def test_dimension_mismatch(self):
        with pytest.raises(GeometryError):
            pairing_g(bv(1, (1,), (0,)), bv(2, (1, 0), (0, 0)))


class TestOrthogonal:
    def test_self_orthogonal_line(self):
        e = span(1, (1, 0))
        assert orthogonal_g(e) == e

    def test_three_dim_orthogonal(self):
        e = span(2, (1, 0, 0, 1))  # (e1, dx2)
        ortho = orthogonal_g(e)
        assert ortho.dim == 3
        assert ortho.contains((0, 1, -1, 0))  # (e2, -dx1)

    def test_full_space(self):
        assert orthogonal_g(Subspace.full(4)).dim == 0

    def test_involution_and_dim_random(self):
        rng = random.Random(1)
        for _ in range(50):
            m = rng.randint(1, 6)
            d = random_isotropic(rng, m)
            assert orthogonal_g(orthogonal_g(d.E)) == d.E
            assert d.E.dim + d.E_prime.dim == 2 * m
            assert orthogonal_g(d.E) == d.E_prime


class TestIsotropy:
    def test_examples(self):
        assert is_isotropic(span(2, (1, 0, 0, 1)))
        assert not is_isotropic(span(1, (1, 1)))
        assert is_isotropic(Subspace(4))

    def test_isotropic_data_rejects_bad_input(self):
        e = span(1, (1, 1))  # g = 1 on the generator
        with pytest.raises(GeometryError):
            IsotropicData(1, e, orthogonal_g(e))

    def test_isotropic_data_rejects_what_the_direct_checks_reject(self):
        """Same verdict and message as testing E in E' row by row, then g(E, E') = 0."""

        def direct(m, E, Ep):
            if E.dim + Ep.dim != 2 * m:
                return "dim E + dim E' must equal 2m"
            if not Ep.contains_subspace(E):
                return "E must be contained in E' (non-isotropic input?)"
            for r1 in E.basis:
                for r2 in Ep.basis:
                    if pairing_g(bv(m, r1[:m], r1[m:]), bv(m, r2[:m], r2[m:])) != 0:
                        return "g does not vanish on E x E'"
            return None

        def rows(rng, m, count):
            return [[Fraction(rng.randint(-1, 1)) for _ in range(2 * m)] for _ in range(count)]

        rng = random.Random(11)
        seen = set()
        for _ in range(400):
            m = rng.randint(1, 3)
            kind = rng.randrange(4)
            if kind == 0:  # any E with its g-orthogonal
                E = Subspace(2 * m, rows(rng, m, rng.randint(0, 2 * m)))
                Ep = orthogonal_g(E)
            elif kind == 1:  # any pair of subspaces
                E = Subspace(2 * m, rows(rng, m, rng.randint(0, 2 * m)))
                Ep = Subspace(2 * m, rows(rng, m, rng.randint(0, 2 * m)))
            else:  # an isotropic E inside an E' that may be larger than orth(E)
                E = random_isotropic(rng, m).E
                Ep = E.sum(Subspace(2 * m, rows(rng, m, 2 * m - 2 * E.dim)))
                if kind == 2:
                    Ep = orthogonal_g(E)
            expected = direct(m, E, Ep)
            seen.add(expected)
            if expected is None:
                assert IsotropicData(m, E, Ep).E_prime == orthogonal_g(E)
            else:
                with pytest.raises(GeometryError) as err:
                    IsotropicData(m, E, Ep)
                assert str(err.value) == expected
        assert len(seen) == 4


class TestCharacteristicTriple:
    def test_graph_example(self):
        d = IsotropicData.from_E(span(2, (1, 0, 0, 1)))  # (e1, dx2)
        t = characteristic_triple(d)
        assert t.cal_E == Subspace(2, [(1, 0)])
        assert t.cal_E_prime == Subspace.full(2)
        assert t.varpi_on((1, 0), (1, 0)) == 0
        assert t.varpi_on((1, 0), (0, 1)) == 1

    def test_dirac_case(self):
        # E maximal isotropic: graph of the symplectic form on Q^2
        d = IsotropicData.from_E(span(2, (1, 0, 0, 1), (0, 1, -1, 0)))
        t = characteristic_triple(d)
        assert t.cal_E == t.cal_E_prime == Subspace.full(2)
        # skew matrix
        assert t.varpi[0, 1] == -t.varpi[1, 0]
        assert t.varpi[0, 0] == 0

    def test_pure_cotangent(self):
        m = 2
        rows = [(0, 0, 1, 0), (0, 0, 0, 1)]
        d = IsotropicData.from_E(Subspace(4, rows))
        t = characteristic_triple(d)
        assert t.cal_E.dim == 0
        assert t.cal_E_prime.dim == 0

    def test_reconstruct_examples(self):
        # cal_E = span{e1}, cal_E' = Q^2, varpi(e1,.) = dx2
        t = CharacteristicTriple(2, Subspace(2, [(1, 0)]), Subspace.full(2), Matrix([[Fraction(0), Fraction(1)]]))
        d = reconstruct(t)
        assert d.E == span(2, (1, 0, 0, 1))

    def test_reconstruct_degenerate_ranges(self):
        m = 3
        t = CharacteristicTriple(m, Subspace(m), Subspace(m), Matrix.zeros(0, 0))
        d = reconstruct(t)
        assert d.E.dim == m
        assert d.E == Subspace(6, [(0, 0, 0, 1, 0, 0), (0, 0, 0, 0, 1, 0), (0, 0, 0, 0, 0, 1)])

    def test_reconstruct_full_tangent(self):
        m = 2
        t = CharacteristicTriple(m, Subspace.full(m), Subspace.full(m), Matrix.zeros(m, m))
        d = reconstruct(t)
        assert d.E == span(2, (1, 0, 0, 0), (0, 1, 0, 0))

    def test_round_trips_random(self):
        rng = random.Random(2)
        for _ in range(60):
            m = rng.randint(1, 5)
            d = random_isotropic(rng, m)
            t = characteristic_triple(d)
            d2 = reconstruct(t)
            assert d2.E == d.E and d2.E_prime == d.E_prime
            t2 = characteristic_triple(d2)
            assert t2.cal_E == t.cal_E and t2.cal_E_prime == t.cal_E_prime and t2.varpi == t.varpi

    def test_non_skew_rejected(self):
        with pytest.raises(GeometryError):
            CharacteristicTriple(2, Subspace.full(2), Subspace.full(2), Matrix.identity(2))


class TestDiracExtension:
    def test_graph_example(self):
        d = IsotropicData.from_E(span(2, (1, 0, 0, 1)))
        ext = dirac_extension(d)
        assert ext == span(2, (1, 0, 0, 0), (0, 0, 0, 1))

    def test_already_dirac(self):
        e = span(2, (1, 0, 0, 1), (0, 1, -1, 0))
        d = IsotropicData.from_E(e)
        assert dirac_extension(d) == e

    def test_zero_structure(self):
        d = IsotropicData.from_E(Subspace(4))
        assert dirac_extension(d) == span(2, (0, 0, 1, 0), (0, 0, 0, 1))

    def test_random_properties(self):
        rng = random.Random(3)
        for _ in range(60):
            m = rng.randint(1, 6)
            d = random_isotropic(rng, m)
            ext = dirac_extension(d)
            assert ext.dim == m
            assert ext.contains_subspace(d.E)
            assert d.E_prime.contains_subspace(ext)
            assert orthogonal_g(ext) == ext
            # covector kernel identity: E n ann(cal_E) = ann(cal_E')
            t = characteristic_triple(d)
            ann_Ep = t.cal_E_prime.annihilator()
            inter = d.E.intersect(
                Subspace(2 * m, [tuple([0] * m) + tuple(w) for w in t.cal_E.annihilator().basis])
            )
            assert inter == Subspace(2 * m, [tuple([0] * m) + tuple(w) for w in ann_Ep.basis])


class TestFlatKernel:
    def test_examples(self):
        d = IsotropicData.from_E(span(2, (1, 0, 0, 1)))
        assert flat_varpi_kernel(d).dim == 0
        assert is_graph_type(d)

        full_tangent = IsotropicData.from_E(span(2, (1, 0, 0, 0), (0, 1, 0, 0)))
        assert flat_varpi_kernel(full_tangent) == Subspace.full(2)

        pure_cotangent = IsotropicData.from_E(span(2, (0, 0, 1, 0), (0, 0, 0, 1)))
        assert flat_varpi_kernel(pure_cotangent).dim == 0

    def test_matches_definition_random(self):
        rng = random.Random(4)
        for _ in range(40):
            d = random_isotropic(rng, rng.randint(1, 5))
            t = characteristic_triple(d)
            ker = flat_varpi_kernel(d)
            # every kernel vector pairs to zero with all of cal_E'
            for x in ker.basis:
                for y in t.cal_E_prime.basis:
                    assert t.varpi_on(x, y) == 0

    def test_dimension_identities_random(self):
        rng = random.Random(5)
        for _ in range(40):
            m = rng.randint(1, 6)
            d = random_isotropic(rng, m)
            t = characteristic_triple(d)
            ann_E = t.cal_E.annihilator()
            ann_Ep = t.cal_E_prime.annihilator()
            assert d.E.dim == t.cal_E.dim + ann_Ep.dim
            assert d.E_prime.dim == t.cal_E_prime.dim + ann_E.dim
