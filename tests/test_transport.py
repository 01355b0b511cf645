import random
from fractions import Fraction

import pytest

from bigiso.linalg import Matrix, Subspace, kernel
from bigiso.pointwise import GeometryError, orthogonal_g, random_isotropic, random_subspace, swap_halves
from bigiso.transport import (
    LinearMap,
    e_cap_ker_pull,
    e_cap_ker_push,
    predict_pullback_dim,
    predict_pushforward_dim,
    pullback_subspace,
    pullpush,
    pushforward_subspace,
    pushpull,
    space_S,
    space_sigma,
)


def span(m, *rows):
    return Subspace(2 * m, [list(r) for r in rows])


def random_map(rng, n, m, span_val=3):
    return LinearMap.from_rows([[rng.randint(-span_val, span_val) for _ in range(n)] for _ in range(m)])


class TestPullback:
    def test_inclusion_line_in_plane(self):
        L = LinearMap.from_rows([[1], [0]])  # x -> (x, 0)
        E = span(2, (1, 0, 0, 1))  # (e1, dy)
        pb = pullback_subspace(L, E)
        assert pb == span(1, (1, 0))  # (d/dx, 0)
        assert predict_pullback_dim(L, E) == 1

    def test_identity(self):
        rng = random.Random(0)
        for _ in range(10):
            m = rng.randint(1, 4)
            E = random_isotropic(rng, m).E
            assert pullback_subspace(LinearMap.identity(m), E) == E

    def test_full_tangent_dirac(self):
        L = random_map(random.Random(1), 2, 3)
        m = 3
        E = span(m, *[tuple([1 if j == i else 0 for j in range(m)]) + (0,) * m for i in range(m)])
        pb = pullback_subspace(L, E)
        n = 2
        assert pb == Subspace(2 * n, [(1, 0, 0, 0), (0, 1, 0, 0)])

    def test_ambient_mismatch(self):
        L = LinearMap.from_rows([[1], [0]])
        with pytest.raises(GeometryError):
            pullback_subspace(L, Subspace(2))


    def test_map_from_a_point(self):
        # L: Q^0 -> Q^2 has no columns; the pullback lands in V (+) V* of Q^0
        L = LinearMap(0, 2, Matrix([[]] * 2))
        assert pullback_subspace(L, span(2, (1, 0, 0, 0), (0, 1, 0, 0))) == Subspace(0)
        assert pullback_subspace(L, Subspace.full(4)) == Subspace(0)
        assert pushforward_subspace(L, Subspace(0)) == span(2, (0, 0, 1, 0), (0, 0, 0, 1))


class TestPushforward:
    def test_projection_kills_vertical(self):
        L = LinearMap.from_rows([[1, 0]])  # (x, y) -> x
        E = span(2, (0, 1, 0, 0))  # (e2, 0)
        pf = pushforward_subspace(L, E)
        assert pf.dim == 0
        assert predict_pushforward_dim(L, E) == 0

    def test_projection_keeps_horizontal(self):
        L = LinearMap.from_rows([[1, 0]])
        E = span(2, (1, 0, 0, 0))  # (e1, 0)
        pf = pushforward_subspace(L, E)
        assert pf == span(1, (1, 0))

    def test_identity(self):
        rng = random.Random(2)
        for _ in range(10):
            m = rng.randint(1, 4)
            E = random_isotropic(rng, m).E
            assert pushforward_subspace(LinearMap.identity(m), E) == E


class TestDimensionFormulas:
    def test_pullback_formula_random(self):
        rng = random.Random(3)
        for _ in range(100):
            n, m = rng.randint(1, 5), rng.randint(1, 5)
            L = random_map(rng, n, m)
            d = random_isotropic(rng, m)
            pb = pullback_subspace(L, d.E)
            assert pb.dim == predict_pullback_dim(L, d.E, d.E_prime)
            # orthogonal compatibility
            assert orthogonal_g(pb) == pullback_subspace(L, d.E_prime)

    def test_pushforward_formula_random(self):
        rng = random.Random(4)
        for _ in range(100):
            n, m = rng.randint(1, 5), rng.randint(1, 5)
            L = random_map(rng, n, m)
            d = random_isotropic(rng, n)
            pf = pushforward_subspace(L, d.E)
            assert pf.dim == predict_pushforward_dim(L, d.E, d.E_prime)
            assert orthogonal_g(pf) == pushforward_subspace(L, d.E_prime)

    def test_submersion_and_dirac_special_cases(self):
        rng = random.Random(5)
        count_sub = 0
        while count_sub < 20:
            n, m = rng.randint(2, 5), rng.randint(1, 4)
            if n < m:
                continue
            L = random_map(rng, n, m)
            if not L.is_surjective():
                continue
            count_sub += 1
            d = random_isotropic(rng, m)
            # surjective differential: ker L^T = 0, so the naive count holds
            assert predict_pullback_dim(L, d.E, d.E_prime) == n - m + d.E.dim
        # Dirac case E = E': corrections cancel for any L
        count_dirac = 0
        while count_dirac < 20:
            n, m = rng.randint(1, 5), rng.randint(1, 5)
            L = random_map(rng, n, m)
            d = random_isotropic(rng, m)
            if d.E != d.E_prime:
                continue
            count_dirac += 1
            assert predict_pullback_dim(L, d.E, d.E_prime) == n - m + d.E.dim

    def test_S_space_difference_identity(self):
        rng = random.Random(6)
        for _ in range(60):
            n, m = rng.randint(1, 5), rng.randint(1, 5)
            L = random_map(rng, n, m)
            d = random_isotropic(rng, m)
            k = d.E.dim
            s = space_S(L, d.E)
            s_prime = space_S(L, d.E_prime)
            lhs = s_prime.dim - s.dim
            # difference (not sum) of the two kernel overlaps; the sum version
            # fails on e.g. n=1, m=5, k=4 with a rank-1 map
            rhs = 2 * (m - k) - (e_cap_ker_pull(L, d.E_prime).dim - e_cap_ker_pull(L, d.E).dim)
            assert lhs == rhs
            # dim S' counts the E-side overlap
            assert s_prime.dim == d.E_prime.dim - L.ker_pull().dim + e_cap_ker_pull(L, d.E).dim
            # the proof-level dimension count for S itself
            assert s.dim == d.E.dim - L.ker_pull().dim + e_cap_ker_pull(L, d.E_prime).dim

    def test_sigma_space(self):
        rng = random.Random(7)
        for _ in range(40):
            n, m = rng.randint(1, 4), rng.randint(1, 4)
            L = random_map(rng, n, m)
            d = random_isotropic(rng, n)
            sig = space_sigma(L, d.E)
            sig_p = space_sigma(L, d.E_prime)
            assert pushforward_subspace(L, d.E).dim == (
                L.ker_pull().dim + sig.dim - e_cap_ker_push(L, d.E).dim
            )
            assert sig.dim + sig_p.dim >= 0  # shape sanity

    def test_codimension_invariance_when_kernel_condition_holds(self):
        rng = random.Random(8)
        hits = 0
        while hits < 25:
            n, m = rng.randint(1, 5), rng.randint(1, 5)
            L = random_map(rng, n, m)
            d = random_isotropic(rng, m)
            if e_cap_ker_pull(L, d.E) != e_cap_ker_pull(L, d.E_prime):
                continue
            hits += 1
            pb = pullback_subspace(L, d.E)
            assert n - pb.dim == m - d.E.dim


class TestRoundTrips:
    def test_projection_example(self):
        L = LinearMap.from_rows([[1, 0]])
        E = span(1, (1, 0))
        assert pushpull(L, E) == E

    def test_identity_trivial(self):
        L = LinearMap.identity(2)
        E = span(2, (1, 0, 0, 1))
        assert pushpull(L, E) == E
        assert pullpush(L, E) == E

    def test_inclusion_random(self):
        rng = random.Random(9)
        L = LinearMap.from_rows([[1], [0]])
        for _ in range(25):
            E = random_isotropic(rng, 1).E
            assert pullpush(L, E) == E

    def test_surjective_random(self):
        rng = random.Random(10)
        hits = 0
        while hits < 50:
            n, m = rng.randint(1, 5), rng.randint(1, 5)
            if n < m:
                continue
            L = random_map(rng, n, m)
            if not L.is_surjective():
                continue
            hits += 1
            E = random_isotropic(rng, m).E
            assert pushpull(L, E) == E

    def test_injective_random(self):
        rng = random.Random(11)
        hits = 0
        while hits < 50:
            n, m = rng.randint(1, 5), rng.randint(1, 5)
            if m < n:
                continue
            L = random_map(rng, n, m)
            if not L.is_injective():
                continue
            hits += 1
            E = random_isotropic(rng, n).E
            assert pullpush(L, E) == E

    def test_rank_preconditions(self):
        L = LinearMap.from_rows([[1, 0], [0, 0]])
        with pytest.raises(GeometryError):
            pushpull(L, Subspace(4))
        with pytest.raises(GeometryError):
            pullpush(L, Subspace(4))


# ---------------------------------------------------------------------------
# reference oracles: the direct one-formula-per-direction implementations
# ---------------------------------------------------------------------------


def ref_pullback(L, E):
    n, m = L.n, L.m
    eqs = E.equations()
    if eqs.rows:
        rows = [list(L.matrix.transpose().apply(er[:m])) + list(er[m:]) for er in eqs.entries]
        solutions = Matrix(rows).kernel_rows()
    else:
        solutions = Matrix.identity(n + m).entries
    return Subspace(2 * n, [tuple(sol[:n]) + tuple(L.pull(sol[n:])) for sol in solutions])


def ref_pushforward(L, E):
    n, m = L.n, L.m
    eqs = E.equations()
    if eqs.rows:
        rows = [list(er[:n]) + list(L.matrix.apply(er[n:])) for er in eqs.entries]
        solutions = Matrix(rows).kernel_rows()
    else:
        solutions = Matrix.identity(n + m).entries
    return Subspace(2 * m, [tuple(L.push(sol[:n])) + tuple(sol[n:]) for sol in solutions])


def ref_window(d, tangent, cotangent):
    zero = [Fraction(0)] * d
    return Subspace(2 * d, [list(v) + zero for v in tangent] + [zero + list(w) for w in cotangent])


def ref_e_cap_ker_pull(L, E):
    return E.intersect(ref_window(L.m, [], kernel(L.matrix.transpose()).basis))


def ref_e_cap_ker_push(L, E):
    return E.intersect(ref_window(L.n, kernel(L.matrix).basis, []))


def ref_space_S(L, E):
    # the tangents span the column space of L
    return E.intersect(ref_window(L.m, L.matrix.transpose().entries, Matrix.identity(L.m).entries))


def ref_space_sigma(L, E):
    # the covectors span the column space of L^T
    return E.intersect(ref_window(L.n, Matrix.identity(L.n).entries, L.matrix.entries))


def ref_predict_pullback_dim(L, E, E_prime):
    return L.n - L.m + E.dim + ref_e_cap_ker_pull(L, E_prime).dim - ref_e_cap_ker_pull(L, E).dim


def ref_predict_pushforward_dim(L, E, E_prime):
    return L.m - L.n + E.dim + ref_e_cap_ker_push(L, E_prime).dim - ref_e_cap_ker_push(L, E).dim


def random_case_map(rng, n, m, kind):
    """Zero map, identity (n = m), or a map of random rank (possibly deficient)."""
    if kind == 0:
        return LinearMap.from_rows([[0] * n for _ in range(m)])
    if kind == 1 and n == m:
        return LinearMap.identity(n)
    rank = rng.randint(0, min(n, m))
    A = [[rng.randint(-2, 2) for _ in range(rank)] for _ in range(m)]
    B = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(rank)]
    rows = [[sum(A[i][t] * B[t][j] for t in range(rank)) for j in range(n)] for i in range(m)]
    return LinearMap.from_rows(rows)


def random_case_subspace(rng, d, kind):
    """Isotropic, arbitrary (usually not isotropic), zero or full, in Q^{2d}."""
    if kind == 0:
        return random_isotropic(rng, d).E
    if kind == 1:
        return random_subspace(rng, 2 * d)
    if kind == 2:
        return Subspace(2 * d)
    return Subspace.full(2 * d)


def transport_cases(seed, count):
    rng = random.Random(seed)
    for i in range(count):
        n, m = rng.randint(1, 4), rng.randint(1, 4)
        L = random_case_map(rng, n, m, i % 3)
        kind = (i // 3) % 4
        yield L, random_case_subspace(rng, m, kind), random_case_subspace(rng, n, kind)


class TestAgainstReference:
    def test_pullback_and_pushforward(self):
        for L, E_target, E_source in transport_cases(20, 240):
            assert pullback_subspace(L, E_target).basis == ref_pullback(L, E_target).basis
            assert pushforward_subspace(L, E_source).basis == ref_pushforward(L, E_source).basis

    def test_windows_and_kernel_overlaps(self):
        for L, E_target, E_source in transport_cases(21, 240):
            assert space_S(L, E_target) == ref_space_S(L, E_target)
            assert space_sigma(L, E_source) == ref_space_sigma(L, E_source)
            assert e_cap_ker_pull(L, E_target) == ref_e_cap_ker_pull(L, E_target)
            assert e_cap_ker_push(L, E_source) == ref_e_cap_ker_push(L, E_source)

    def test_predicted_dimensions(self):
        for L, E_target, E_source in transport_cases(22, 240):
            for E, predict, ref in (
                (E_target, predict_pullback_dim, ref_predict_pullback_dim),
                (E_source, predict_pushforward_dim, ref_predict_pushforward_dim),
            ):
                E_prime = orthogonal_g(E)
                assert predict(L, E) == predict(L, E, E_prime) == ref(L, E, E_prime)

    def test_fixed_maps_cover_every_subspace_kind(self):
        rng = random.Random(23)
        maps = [LinearMap.identity(3), random_case_map(rng, 2, 3, 0), random_case_map(rng, 3, 2, 0)]
        maps += [LinearMap.from_rows([[1, 2, 0], [2, 4, 0]]), LinearMap.from_rows([[1], [0], [3]])]
        for L in maps:
            for kind in range(4):
                E_target = random_case_subspace(rng, L.m, kind)
                E_source = random_case_subspace(rng, L.n, kind)
                assert pullback_subspace(L, E_target) == ref_pullback(L, E_target)
                assert pushforward_subspace(L, E_source) == ref_pushforward(L, E_source)


class TestSwapDuality:
    def test_pushforward_is_the_swapped_pullback_of_the_transpose(self):
        # sigma(X, a) = (a, X) preserves g; push_L(E) = sigma(pull_{L^T}(sigma E))
        for L, _, E in transport_cases(24, 200):
            L_t = LinearMap.from_rows(L.matrix.transpose().entries)
            swapped = Subspace(2 * L.n, swap_halves(E.basis))
            pulled = pullback_subspace(L_t, swapped)
            assert pushforward_subspace(L, E) == Subspace(2 * L.m, swap_halves(pulled.basis))

    def test_swap_is_an_isometry_of_g(self):
        rng = random.Random(25)
        for _ in range(30):
            d = random_isotropic(rng, rng.randint(1, 4))
            swapped = Subspace(d.E.ambient_dim, swap_halves(d.E.basis))
            assert orthogonal_g(swapped) == Subspace(d.E.ambient_dim, swap_halves(d.E_prime.basis))


class TestAmbientChecks:
    def test_every_entry_point_names_itself(self):
        L = LinearMap.from_rows([[1, 0, 0], [0, 1, 0]])  # n = 3, m = 2
        wrong_target, wrong_source = Subspace(6), Subspace(4)
        for fn, E, dim in (
            (pullback_subspace, wrong_target, 4),
            (pushforward_subspace, wrong_source, 6),
            (space_S, wrong_target, 4),
            (space_sigma, wrong_source, 6),
            (e_cap_ker_pull, wrong_target, 4),
            (e_cap_ker_push, wrong_source, 6),
            (predict_pullback_dim, wrong_target, 4),
            (predict_pushforward_dim, wrong_source, 6),
        ):
            what = {pullback_subspace: "pullback", pushforward_subspace: "pushforward"}.get(fn, fn.__name__)
            message = f"^{what}: expected ambient dimension {dim}, got {E.ambient_dim}$"
            with pytest.raises(GeometryError, match=message):
                fn(L, E)

    def test_wrong_sized_e_prime_in_predictions(self):
        L = LinearMap.from_rows([[1, 0, 0], [0, 1, 0]])
        with pytest.raises(GeometryError, match="^e_cap_ker_pull: expected ambient dimension 4"):
            predict_pullback_dim(L, Subspace(4), Subspace(6))
        with pytest.raises(GeometryError, match="^e_cap_ker_push: expected ambient dimension 6"):
            predict_pushforward_dim(L, Subspace(6), Subspace(4))
