import itertools
import random
import re
from collections import Counter
from fractions import Fraction

import pytest

from bigiso.calculus import (
    BigSection,
    Chart,
    PolyBivector,
    PolyOneForm,
    PolyTwoForm,
    PolyVectorField,
    courant_bracket,
    lift_section,
)
from bigiso.fixtures import fixture_text
from bigiso.grid import default_grid, format_point
from bigiso.linalg import Matrix, Subspace, combine
from bigiso.parser import parse_document
from bigiso.pointwise import is_graph_type, orthogonal_g, random_isotropic, tangent_projection, window
from bigiso.reduction import (
    FoliationData,
    ReductionError,
    RestrictedData,
    SubmanifoldData,
    bivector_is_projectable,
    check_projectable,
    check_reducibility,
    dirac_along_foliation_P,
    dirac_along_foliation_omega,
    reduce_structure,
    restrict,
    span_mismatches,
    twoform_is_foliated,
    verify_restricted_frame,
)
from bigiso.scalars import Polynomial
from bigiso.structures import (
    BigIsotropicStructure,
    StructureError,
    check_integrability,
    foliation_pair,
    graph_P,
    pull_back_sections,
    structure_from_components,
)
from bigiso.transport import LinearMap, pullback_subspace, pushforward_subspace, space_S


def normal_equations(N):
    """Rows annihilating the image of the differential (ann TN)."""
    return Matrix(N.differential.matrix.transpose().kernel_rows(), N.ambient.dim)


def restriction_reference(frame, N):
    """The ambient sections whose tangents stay inside TN, restricted to N,
    written out: coefficients composed with the embedding, a section kept
    iff its tangent part annihilates the conormal equations, the tangent
    part solved through the Gram matrix of the differential and the
    covector part pulled back by its transpose."""
    n, m = N.sub.dim, N.ambient.dim
    images = []
    for i in range(m):
        p = N.sub.constant(N.offset[i])
        for j in range(n):
            p = p + N.sub.coordinate(j) * N.differential.matrix[i, j]
        images.append(p)
    ann = normal_equations(N)
    jt = N.differential.matrix.transpose()
    gram_inv = (jt * N.differential.matrix).inverse()
    sections = []
    for sec in frame:
        v = [c.substitute(images) for c in sec.vf.comps]
        w = [c.substitute(images) for c in sec.of.comps]
        normal = [sum((comp * coeff for coeff, comp in zip(eq, v)), N.sub.zero()) for eq in ann.entries]
        if not all(p.is_zero() for p in normal):
            continue
        pre = [sum((jt[i, j] * v[j] for j in range(m)), N.sub.zero()) for i in range(n)]
        x = [sum((gram_inv[i, j] * pre[j] for j in range(n)), N.sub.zero()) for i in range(n)]
        xi = [sum((jt[i, j] * w[j] for j in range(m)), N.sub.zero()) for i in range(n)]
        sections.append(BigSection(PolyVectorField(N.sub, x), PolyOneForm(N.sub, xi)))
    return sections


def pulled_to(N, frame):
    return pull_back_sections(frame, N.sub, N.offset, N.differential.matrix)


def pulled_spaces(restricted):
    """The pulled rows of E at each sample point as RREF subspaces."""
    width = 2 * restricted.submanifold.sub.dim
    return [Subspace(width, rows) for rows in restricted.pulled_E]


def pulled_prime_spaces(s, N, points):
    """i*E' at each sample point, rebuilt by pullback_subspace from the
    structure's own E' there."""
    return [pullback_subspace(N.differential, s.evaluate_at(N.embed_point(u)).E_prime) for u in points]


@pytest.fixture(scope="module")
def poisson_4d():
    chart = Chart(("x1", "x2", "x3", "x4"))
    P = PolyBivector(chart, {(0, 1): chart.one(), (2, 3): chart.one()})
    sstar = [PolyOneForm.coordinate(chart, i) for i in range(4)]
    return graph_P(sstar, P)


@pytest.fixture(scope="module")
def hyperplane(poisson_4d):
    chart = poisson_4d.chart
    return SubmanifoldData.from_equations(chart, [chart.coordinate("x4")])


class TestSubmanifold:
    def test_coordinate_aligned_names(self, hyperplane):
        assert hyperplane.sub.names == ("x1", "x2", "x3")
        assert hyperplane.embed_point((1, 2, 3)) == (1, 2, 3, 0)

    def test_general_affine(self):
        chart = Chart(("x", "y"))
        N = SubmanifoldData.from_equations(chart, [chart.coordinate("x") + chart.coordinate("y") - 1])
        assert N.sub.dim == 1
        pt = N.embed_point((2,))
        assert pt[0] + pt[1] == 1

    def test_inconsistent_rejected(self):
        chart = Chart(("x",))
        with pytest.raises(ReductionError):
            SubmanifoldData.from_equations(chart, [chart.one()])

    def test_nonaffine_rejected(self):
        chart = Chart(("x", "y"))
        with pytest.raises(ReductionError):
            SubmanifoldData.from_equations(chart, [chart.coordinate("x") ** 2])


class TestRestrict:
    def test_poisson_example_rank(self, poisson_4d, hyperplane):
        restricted = restrict(poisson_4d, hyperplane)
        assert restricted.rank == 3
        for pulled in pulled_spaces(restricted):
            assert pulled == Subspace(
                6,
                [
                    (0, 1, 0, 1, 0, 0),
                    (-1, 0, 0, 0, 1, 0),
                    (0, 0, 1, 0, 0, 0),
                ],
            ) or pulled.dim == 3

    @pytest.mark.parametrize("empty", [(), []])
    def test_empty_grid_is_refused(self, poisson_4d, hyperplane, empty):
        with pytest.raises(ReductionError, match="empty grid"):
            restrict(poisson_4d, hyperplane, grid=empty)

    def test_identity_restriction(self, poisson_4d):
        N = SubmanifoldData.identity(poisson_4d.chart)
        restricted = restrict(poisson_4d, N)
        for u, pulled in zip(restricted.points, pulled_spaces(restricted)):
            assert pulled == poisson_4d.evaluate_at(u).E

    def test_unvalidated_structure_is_refused(self, poisson_4d, hyperplane):
        raw = BigIsotropicStructure.build(poisson_4d.chart, poisson_4d.e_frame, poisson_4d.e_prime_frame, validate=False)
        with pytest.raises(ReductionError, match="restriction needs a validated structure"):
            restrict(raw, hyperplane)

    def test_frame_verification(self, poisson_4d, hyperplane):
        restricted = restrict(poisson_4d, hyperplane)
        sub = hyperplane.sub
        frame = [
            BigSection(PolyVectorField.coordinate(sub, 1), PolyOneForm.coordinate(sub, 0)),
            BigSection(-PolyVectorField.coordinate(sub, 0), PolyOneForm.coordinate(sub, 1)),
            BigSection(-PolyVectorField.coordinate(sub, 2), PolyOneForm.zero(sub)),
        ]
        assert verify_restricted_frame(restricted, frame).ok
        flipped = frame[:2] + [BigSection(PolyVectorField.coordinate(sub, 2), PolyOneForm.zero(sub))]
        # the sign flip on the last section does not change the span
        assert verify_restricted_frame(restricted, flipped).ok
        short = verify_restricted_frame(restricted, frame[:2])
        expected = tuple((f"restricted frame span differs at {format_point(u)}", None) for u in restricted.points)
        assert short.failures == expected

    @pytest.mark.parametrize(
        "name", ["example_reduction", "example_foliated_hamiltonian", "example_foliated_presymplectic"]
    )
    def test_pullback_of_the_fixture_frames_matches_the_reference(self, name):
        doc = parse_document(fixture_text(name))
        s = BigIsotropicStructure.build(doc.chart, doc.e_sections, doc.e_prime_sections)
        N = SubmanifoldData.from_equations(doc.chart, list(doc.submanifold_equations))
        restricted = restrict(s, N)
        (prime,) = pulled_prime_spaces(s, N, restricted.points[:1])
        for frame, dim in ((s.e_frame, restricted.rank), (s.e_prime_frame, prime.dim)):
            pulled = pulled_to(N, frame)
            assert pulled == restriction_reference(frame, N)
            assert len(pulled) == dim
        assert verify_restricted_frame(restricted, pulled_to(N, s.e_frame)).ok

    def test_pullback_to_a_slanted_plane_drops_the_transverse_section(self):
        chart = Chart(("x1", "x2", "x3"))
        x1, x2, x3 = (chart.coordinate(i) for i in range(3))
        N = SubmanifoldData.from_equations(chart, [x1 + x2 - 1])
        assert N.sub.names == ("u1", "u2")

        def section(vf, of):
            return BigSection(PolyVectorField(chart, vf), PolyOneForm(chart, of))

        frame = [
            section([x2 * x3, -x2 * x3, x1], [x3, x1 * x2, chart.one()]),
            section([chart.one(), chart.zero(), chart.zero()], [chart.zero(), x3, chart.zero()]),
            section([x1 - x3, x3 - x1, x2 * x2], [x1, chart.zero(), x2]),
        ]
        pulled = pulled_to(N, frame)
        assert len(pulled) == 2  # d_x1 leaves the plane x1 + x2 = 1
        assert pulled == restriction_reference(frame, N)
        # the embedding pushes each pulled tangent onto the ambient one, and
        # the covector is the ambient one pulled back by the transpose
        jt = N.differential.matrix.transpose()
        for sec, amb in zip(pulled, (frame[0], frame[2])):
            for u in [(0, 0), (1, -2), (Fraction(1, 2), 3)]:
                x = N.embed_point(u)
                assert N.differential.push(sec.vf.eval(u)) == amb.vf.eval(x)
                assert sec.of.eval(u) == jt.apply(amb.of.eval(x))


def restrict_reference(s, N, grid=None):
    """restrict through the transport constructions at every point: each
    pullback by pullback_subspace (from the bundle's own equations) and each
    window dimension from a space_S intersection.  Returns the points, the
    pullbacks of E and the window dimensions of E at them."""
    if N.ambient != s.chart:
        raise ReductionError("submanifold lives in a different chart")
    pts = tuple(grid) if grid is not None else default_grid(N.sub.dim, cap=16)
    if not pts:
        raise ReductionError("empty grid: no point of the submanifold to restrict at")
    incl = N.differential
    pulled, windows = [], []
    window_dims, window_prime_dims = {}, {}
    for u in pts:
        data = s.evaluate_at(N.embed_point(u))
        pulled.append(pullback_subspace(incl, data.E))
        windows.append(space_S(incl, data.E).dim)
        window_dims.setdefault(windows[-1], u)
        window_prime_dims.setdefault(space_S(incl, data.E_prime).dim, u)
    for dims, label in ((window_dims, "E"), (window_prime_dims, "E'")):
        if len(dims) > 1:
            (d1, u1), (d2, u2) = list(dims.items())[:2]
            raise ReductionError(
                f"properness fails for {label}: "
                f"window dimension {d1} at {format_point(u1)} but {d2} at {format_point(u2)}"
            )
    ranks = {sp.dim for sp in pulled}
    if len(ranks) > 1:
        raise ReductionError(f"pullback dimension jumps across the grid: {sorted(ranks)}")
    return pts, pulled, windows


def same_restriction(s, N, grid=None) -> str:
    """Run restrict and restrict_reference; both must raise the same message
    or agree on the points, the span of the pulled rows at each point, their
    rank and their count, which is the window dimension.  Returns the
    outcome."""
    outcomes = []
    for run in (restrict, restrict_reference):
        try:
            outcomes.append(run(s, N, grid=grid))
        except ReductionError as exc:
            outcomes.append(str(exc))
    got, expected = outcomes
    if isinstance(expected, str):
        assert got == expected
        return expected.split(":")[0]
    points, pulled, windows = expected
    assert got.submanifold == N and got.points == points
    assert pulled_spaces(got) == pulled and got.rank == pulled[0].dim
    assert [len(rows) for rows in got.pulled_E] == windows
    return "restricted"


def slice_of(doc):
    """The coordinate inclusion of the slice {leaf coordinates = 0} of a
    document's adapted split, middle then transverse."""
    idx = {name: i for i, name in enumerate(doc.chart.names)}
    kept = tuple(idx[name] for name in doc.adapted_split[1] + doc.adapted_split[2])
    m = doc.chart.dim
    incl = LinearMap.from_rows([[int(i == j) for j in kept] for i in range(m)])
    sub = Chart(tuple(doc.chart.names[i] for i in kept))
    return SubmanifoldData(doc.chart, sub, (0,) * m, incl)


def beta_twisted(rng, m):
    """A random_isotropic pair as constant frames, moved by (X, a) -> (X + beta a, a)
    for a bivector beta with random linear coefficients.  The move preserves g,
    so the frames stay a structure, while E's meeting with a submanifold's
    tangents changes from point to point."""
    chart = Chart(tuple(f"x{i + 1}" for i in range(m)))
    beta = [[chart.zero()] * m for _ in range(m)]
    for i in range(m):
        for j in range(i + 1, m):
            entry = chart.constant(rng.randint(-1, 1))
            for t in range(m):
                entry = entry + chart.coordinate(t) * rng.randint(-1, 1)
            beta[i][j], beta[j][i] = entry, -entry
    data = random_isotropic(rng, m)

    def moved(rows):
        return [
            tuple(row[i] + sum((beta[i][j] * row[m + j] for j in range(m)), chart.zero()) for i in range(m))
            + tuple(row[m:])
            for row in rows
        ]

    return structure_from_components(chart, moved(data.E.basis), moved(data.E_prime.basis))


def random_affine_submanifold(rng, chart):
    for _ in range(20):
        eqs = []
        for _ in range(rng.randint(1, chart.dim - 1)):
            eq = chart.constant(rng.randint(-2, 2))
            for t in range(chart.dim):
                eq = eq + chart.coordinate(t) * rng.randint(-2, 2)
            eqs.append(eq)
        try:
            return SubmanifoldData.from_equations(chart, eqs)
        except ReductionError:
            continue
    raise AssertionError("no affine submanifold drawn")


class TestRestrictAgainstReference:
    """restrict reads each bundle's equations from its partner's basis and
    the window dimensions from the pullback kernel's row count; the
    reference intersects and solves from each bundle's own equations."""

    @pytest.mark.parametrize(
        "name", ["example_reduction", "example_foliated_hamiltonian", "example_foliated_presymplectic"]
    )
    def test_reduction_fixtures(self, name):
        doc = parse_document(fixture_text(name))
        s = BigIsotropicStructure.build(doc.chart, doc.e_sections, doc.e_prime_sections)
        N = SubmanifoldData.from_equations(doc.chart, list(doc.submanifold_equations))
        assert same_restriction(s, N) == "restricted"

    @pytest.mark.parametrize("name", ["example_r3", "example_r5", "example_r5_tilde"])
    def test_transversal_slices(self, name):
        doc = parse_document(fixture_text(name))
        s = BigIsotropicStructure.build(doc.chart, doc.e_sections, doc.e_prime_sections)
        N = slice_of(doc)
        assert same_restriction(s, N, grid=default_grid(N.sub.dim, cap=12)) == "restricted"

    @pytest.mark.parametrize(
        "text, outcome",
        [
            # E = span((1 - y) d_x + y d_y) meets the slice {x = 0} plus covectors only at y = 1
            (
                "chart x y\nE:\n  (1 - y, y | 0, 0)\n"
                "E_prime:\n  (1, 0 | 0, 0)\n  (0, 1 | 0, 0)\n  (0, 0 | y, y - 1)\nadapted: x | y |\n",
                "properness fails for E",
            ),
            # E' = span((-y, 1 | 0, 0), dx, dy) keeps d_y over {x = 0} only at y = 0
            (
                "chart x y\nE:\n  (0, 0 | 1, y)\n"
                "E_prime:\n  (-y, 1 | 0, 0)\n  (0, 0 | 1, 0)\n  (0, 0 | 0, 1)\nadapted: x | y |\n",
                "properness fails for E'",
            ),
        ],
    )
    def test_window_jumps(self, text, outcome):
        doc = parse_document(text)
        s = BigIsotropicStructure.build(doc.chart, doc.e_sections, doc.e_prime_sections)
        assert same_restriction(s, slice_of(doc)) == outcome

    def test_seeded_affine_submanifolds(self):
        rng = random.Random(43)
        outcomes = set()
        for _ in range(40):
            s = beta_twisted(rng, rng.randint(2, 4))
            outcomes.add(same_restriction(s, random_affine_submanifold(rng, s.chart)))
        assert outcomes == {"restricted", "properness fails for E", "properness fails for E'"}


def reducibility_reference(s, N, F, u) -> bool:
    """The ambient-window formulation at one point of N: E's pairs over
    (fibre tangents) (+) ann TN project onto the fibre tangents, so each
    fibre direction lifts into E with a conormal covector."""
    n, m = N.sub.dim, N.ambient.dim
    fibre_amb = [N.differential.push([int(j == i) for j in range(n)]) for i in F.fibre]
    inter = s.evaluate_at(N.embed_point(u)).E.intersect(window(m, fibre_amb, normal_equations(N).entries))
    return tangent_projection(inter).contains_subspace(Subspace(m, fibre_amb))


def assert_reducibility_matches_reference(s, N, F, grid=None) -> set:
    """check_reducibility on each one-point restriction against the ambient
    window; returns the verdicts seen."""
    seen = set()
    for u in grid if grid is not None else default_grid(N.sub.dim, cap=16):
        verdict = check_reducibility(s, N, F, restrict(s, N, grid=(u,))).ok
        assert verdict == reducibility_reference(s, N, F, u), u
        seen.add(verdict)
    return seen


class TestPullbackRank:
    def test_rank_follows_from_the_window_dimensions(self):
        # dim i*E = w - (k - n - m + w') at every point, so restrict needs no
        # rank check of its own once both windows are constant
        rng = random.Random(53)
        for _ in range(40):
            s = beta_twisted(rng, rng.randint(2, 4))
            N = random_affine_submanifold(rng, s.chart)
            n, m, k = N.sub.dim, s.m, s.k
            for u in default_grid(n, cap=6):
                data = s.evaluate_at(N.embed_point(u))
                w, w_prime = space_S(N.differential, data.E).dim, space_S(N.differential, data.E_prime).dim
                assert pullback_subspace(N.differential, data.E).dim == w - (k - n - m + w_prime), u


def conormal_meeting(rng, m):
    """A constant structure whose E holds a pure covector (0, nu), drawn by
    random_isotropic, and a seeded affine submanifold with nu among its
    conormals: E meets 0 (+) ann TN there, so the pulled rows are dependent."""
    chart = Chart(tuple(f"x{i + 1}" for i in range(m)))
    while True:
        data = random_isotropic(rng, m)
        pure = data.E.intersect(window(m, (), Matrix.identity(m).entries))
        if not pure.dim:
            continue
        nu = pure.basis[rng.randrange(pure.dim)][m:]
        eqs = [sum((chart.coordinate(i) * c for i, c in enumerate(nu)), chart.constant(rng.randint(-2, 2)))]
        if m > 2 and rng.random() < 0.5:
            eqs.append(sum((chart.coordinate(i) * rng.randint(-2, 2) for i in range(m)), chart.constant(1)))
        try:
            N = SubmanifoldData.from_equations(chart, eqs)
        except ReductionError:
            continue
        return structure_from_components(chart, data.E.basis, data.E_prime.basis), N


class TestRankIsNotTheRowCount:
    """Where E meets 0 (+) ann TN, pull_rows gives one row per window
    dimension and the rows are dependent: the restriction's rank is the rank
    of its rows, not their count."""

    def assert_rank_and_count(self, s, N, grid) -> tuple:
        restricted = restrict(s, N, grid=grid)
        for u, rows in zip(restricted.points, restricted.pulled_E):
            data = s.evaluate_at(N.embed_point(u))
            assert restricted.rank == pullback_subspace(N.differential, data.E).dim, u
            assert len(rows) == space_S(N.differential, data.E).dim, u
        return restricted.rank, len(restricted.pulled_E[0])

    def test_rank_zero_pullback_of_a_conormal_line(self):
        # E = span(dy) is i*E = 0 on {y = 0}, though its window holds (0, dy)
        chart = Chart(("x", "y"))
        s = structure_from_components(chart, [(0, 0, 0, 1)], [(1, 0, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)])
        N = SubmanifoldData.from_equations(chart, [chart.coordinate("y")])
        assert self.assert_rank_and_count(s, N, default_grid(1, cap=6)) == (0, 1)

    def test_seeded_affine_submanifolds_meeting_the_conormals(self):
        rng = random.Random(59)
        seen = []
        for _ in range(24):
            s, N = conormal_meeting(rng, rng.randint(2, 4))
            rank, count = self.assert_rank_and_count(s, N, default_grid(N.sub.dim, cap=4))
            assert count > rank
            seen.append(rank)
        assert 0 in seen and max(seen) > 0


def random_int_rows(rng, count, width):
    return [tuple(rng.randint(-2, 2) for _ in range(width)) for _ in range(count)]


class TestRankFactsAgainstSubspaces:
    """The rank-based span and fibre tests agree with RREF Subspace equality
    and containment on seeded integer row sets, empty ones included."""

    def test_span_mismatches_is_subspace_inequality(self):
        rng = random.Random(61)
        outcomes = set()
        for _ in range(300):
            n = rng.randint(1, 4)
            chart = Chart(tuple(f"x{i + 1}" for i in range(n)))
            expected = random_int_rows(rng, rng.randint(0, 2 * n), 2 * n)
            if expected and rng.random() < 0.5:  # another spanning set of the same span
                frame_rows = [combine([rng.randint(-2, 2) for _ in expected], expected, 2 * n) for _ in range(rng.randint(0, 2 * n))]
                frame_rows += random_int_rows(rng, rng.randint(0, 1), 2 * n)
            else:
                frame_rows = random_int_rows(rng, rng.randint(0, 2 * n), 2 * n)
            frame = [
                BigSection(
                    PolyVectorField(chart, [chart.constant(c) for c in row[:n]]),
                    PolyOneForm(chart, [chart.constant(c) for c in row[n:]]),
                )
                for row in frame_rows
            ]
            point = (0,) * n
            differ = Subspace(2 * n, frame_rows) != Subspace(2 * n, expected)
            assert span_mismatches([point], frame, [expected]) == ([point] if differ else [])
            outcomes.add((differ, not frame_rows, not expected))
        assert {(True, False, False), (False, False, False), (False, True, True)} <= outcomes
        assert {(True, True, False), (True, False, True)} <= outcomes

    def test_fibre_test_is_subspace_containment(self):
        rng = random.Random(67)
        outcomes = set()
        for _ in range(300):
            n = rng.randint(1, 4)
            chart = Chart(tuple(f"x{i + 1}" for i in range(n)))
            N = SubmanifoldData.identity(chart)
            rows = random_int_rows(rng, rng.randint(0, 2 * n), 2 * n)
            if rows and rng.random() < 0.5:  # put a fibre direction in the span
                rows.append(tuple(int(j == rng.randrange(n)) for j in range(2 * n)))
            restricted = RestrictedData(N, ((0,) * n,), (tuple(rows),))
            space = Subspace(2 * n, rows)
            assert restricted.rank == space.dim
            for i in range(n):
                contained = space.contains([int(j == i) for j in range(2 * n)])
                assert check_reducibility(None, N, FoliationData(chart, (i,)), restricted).ok == contained
                outcomes.add((contained, not rows))
        assert outcomes == {(True, False), (False, False), (False, True)}


class TestReducibility:
    @pytest.mark.parametrize(
        "name", ["example_reduction", "example_foliated_hamiltonian", "example_foliated_presymplectic"]
    )
    def test_fixtures_against_the_ambient_window(self, name):
        doc = parse_document(fixture_text(name))
        s = BigIsotropicStructure.build(doc.chart, doc.e_sections, doc.e_prime_sections)
        N = SubmanifoldData.from_equations(doc.chart, list(doc.submanifold_equations))
        F = FoliationData(N.sub, tuple(N.sub.index(name) for name in doc.foliation_names))
        assert assert_reducibility_matches_reference(s, N, F) == {True}

    def test_each_fibre_choice_against_the_ambient_window(self, poisson_4d, hyperplane):
        seen = set()
        for size in range(4):
            for fibre in itertools.combinations(range(3), size):
                seen |= assert_reducibility_matches_reference(poisson_4d, hyperplane, FoliationData(hyperplane.sub, fibre))
        assert seen == {True, False}

    def test_seeded_submanifolds_against_the_ambient_window(self):
        rng = random.Random(47)
        seen = set()
        for _ in range(30):
            s = beta_twisted(rng, rng.randint(2, 4))
            N = random_affine_submanifold(rng, s.chart)
            fibre = tuple(i for i in range(N.sub.dim) if rng.random() < 0.5)
            seen |= assert_reducibility_matches_reference(s, N, FoliationData(N.sub, fibre), default_grid(N.sub.dim, cap=6))
        assert seen == {True, False}

    def test_poisson_example_true(self, poisson_4d, hyperplane):
        F = FoliationData(hyperplane.sub, fibre=(2,))
        assert check_reducibility(poisson_4d, hyperplane, F).ok

    def test_wrong_fibre_false(self, poisson_4d, hyperplane):
        F = FoliationData(hyperplane.sub, fibre=(0,))
        assert not check_reducibility(poisson_4d, hyperplane, F).ok

    def test_trivial_foliation(self, poisson_4d, hyperplane):
        F = FoliationData(hyperplane.sub, fibre=())
        assert check_reducibility(poisson_4d, hyperplane, F).ok


class TestProjectable:
    def test_projectable_example(self):
        chart = Chart(("x1", "x2", "x3"))
        s = structure_from_components(
            chart,
            [(0, 0, 1, 0, 0, 0), (1, 0, 0, 0, 1, 0)],
            [
                (0, 0, 1, 0, 0, 0),
                (1, 0, 0, 0, 1, 0),
                (0, -1, 0, 1, 0, 0),
                (0, 0, 0, 0, 1, 0),
            ],
        )
        F = FoliationData(chart, fibre=(2,))
        assert check_projectable(s, F).ok

    def test_fibre_dependent_not_projectable(self):
        chart = Chart(("x1", "x2", "x3"))
        x3 = chart.coordinate("x3")
        s = structure_from_components(
            chart,
            [(0, 0, 1, 0, 0, 0), (1, 0, 0, 0, x3, 0)],
            [
                (0, 0, 1, 0, 0, 0),
                (1, 0, 0, 0, x3, 0),
                (0, -1, 0, x3, 0, 0),
                (0, 0, 0, 0, 1, 0),
            ],
        )
        F = FoliationData(chart, fibre=(2,))
        verdict = check_projectable(s, F)
        assert not verdict.ok
        assert any("b'" in msg for msg, _ in verdict.failures)

    def test_missing_fibre_tangent(self):
        chart = Chart(("x1", "x2"))
        s = structure_from_components(
            chart,
            [(1, 0, 0, 0)],
            [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 0, 1)],
        )
        F = FoliationData(chart, fibre=(1,))
        verdict = check_projectable(s, F)
        assert not verdict.ok
        assert any("condition a" in msg for msg, _ in verdict.failures)

    def test_integrable_case_a_is_enough(self):
        # for integrable structures condition a alone decides projectability
        chart = Chart(("x1", "x2", "x3"))
        s = structure_from_components(
            chart,
            [(0, 0, 1, 0, 0, 0), (1, 0, 0, 0, 1, 0)],
            [
                (0, 0, 1, 0, 0, 0),
                (1, 0, 0, 0, 1, 0),
                (0, -1, 0, 1, 0, 0),
                (0, 0, 0, 0, 1, 0),
            ],
        )
        F = FoliationData(chart, fibre=(2,))
        assert check_integrability(s).ok
        zero_of = PolyOneForm.zero(chart)
        from bigiso.membership import in_span

        cond_a = all(
            in_span(s.frame_rows(), BigSection(Y, zero_of).as_poly_row())[0]
            for Y in F.fibre_fields()
        )
        assert cond_a == check_projectable(s, F).ok


class TestReduce:
    def test_poisson_pipeline(self, poisson_4d, hyperplane):
        F = FoliationData(hyperplane.sub, fibre=(2,))
        result = reduce_structure(poisson_4d, hyperplane, F)
        q = result.quotient
        assert q.chart.names == ("x1", "x2")
        assert q.k == 2
        # exactly the graph of the constant bivector d1^d2
        d = q.evaluate_at((0, 0))
        assert d.E == Subspace(4, [(0, 1, 1, 0), (-1, 0, 0, 1)])
        assert check_integrability(q).ok
        assert result.poisson_condition
        assert result.reducibility.ok and result.projectability.ok

    def test_trivial_reduction_returns_same(self, poisson_4d):
        N = SubmanifoldData.identity(poisson_4d.chart)
        F = FoliationData(poisson_4d.chart, fibre=())
        result = reduce_structure(poisson_4d, N, F)
        for pt in [(0, 0, 0, 0), (1, -1, 2, 0)]:
            assert result.quotient.evaluate_at(pt).E == poisson_4d.evaluate_at(pt).E

    def test_foliation_pair_reduction(self):
        chart = Chart(("x", "y", "z"))
        s = foliation_pair(
            [PolyVectorField.coordinate(chart, "x")],
            [PolyVectorField.coordinate(chart, "x"), PolyVectorField.coordinate(chart, "y")],
            chart,
        )
        N = SubmanifoldData.identity(chart)
        F = FoliationData(chart, fibre=(0,))
        result = reduce_structure(s, N, F)
        q = result.quotient
        assert q.chart.names == ("y", "z")
        # reduction of F (+) ann F' along F: only the conormal part survives
        d = q.evaluate_at((0, 0))
        assert d.E == Subspace(4, [(0, 0, 0, 1)])
        # pointwise pushforward oracle
        proj = F.projection()
        for pt in [(0, 0, 0), (1, 2, -1)]:
            assert pushforward_subspace(proj, s.evaluate_at(pt).E) == d.E

    def test_quotient_is_a_point(self):
        # fibres fill the chart: the projection is the map Q^2 -> Q^0
        chart = Chart(("x", "y"))
        s = structure_from_components(chart, [(1, 0, 0, 0), (0, 1, 0, 0)], [(1, 0, 0, 0), (0, 1, 0, 0)])
        F = FoliationData(chart, fibre=(0, 1))
        proj = F.projection()
        assert (proj.n, proj.m, proj.matrix.rows, proj.matrix.cols) == (2, 0, 0, 2)
        result = reduce_structure(s, SubmanifoldData.identity(chart), F)
        assert result.quotient.chart.names == () and result.quotient.k == 0
        assert result.reducibility.ok and result.projectability.ok and result.poisson_condition

    def test_each_point_is_evaluated_once(self, evaluation_counts):
        doc = parse_document(fixture_text("example_reduction"))
        s = BigIsotropicStructure.build(doc.chart, doc.e_sections, doc.e_prime_sections)
        N = SubmanifoldData.from_equations(doc.chart, list(doc.submanifold_equations))
        F = FoliationData(N.sub, tuple(N.sub.index(name) for name in doc.foliation_names))
        evaluation_counts.clear()
        result = reduce_structure(s, N, F)
        walked = Counter(structure for structure, _ in evaluation_counts)
        # the ambient structure once at each embedded sample point; the
        # restricted structure and the quotient only by their own validation,
        # at the sample points and at the 8 base points
        embedded = {N.embed_point(u) for u in result.restricted.points}
        assert {pt for structure, pt in evaluation_counts if structure == id(s)} == embedded
        assert len(embedded) == 16 and walked[id(result.quotient)] == 8
        assert sorted(walked.values()) == [8, 16, 16] and set(evaluation_counts.values()) == {1}

    def test_wrong_span_of_the_restricted_orthogonal_frame_is_refused(self, poisson_4d, hyperplane):
        # three sections as 2n - k asks, but (0, d x3) does not lie in i*E';
        # it pairs with the E section (-d_x3, 0), so validation refuses it
        sub = hyperplane.sub
        frame = [
            BigSection(PolyVectorField.coordinate(sub, 1), PolyOneForm.coordinate(sub, 0)),
            BigSection(-PolyVectorField.coordinate(sub, 0), PolyOneForm.coordinate(sub, 1)),
            BigSection(-PolyVectorField.coordinate(sub, 2), PolyOneForm.zero(sub)),
        ]
        wrong = frame[:2] + [BigSection(PolyVectorField.zero(sub), PolyOneForm.coordinate(sub, 2))]
        restricted = restrict(poisson_4d, hyperplane)
        primes = [sp.basis for sp in pulled_prime_spaces(poisson_4d, hyperplane, restricted.points)]
        assert span_mismatches(restricted.points, wrong, primes) == list(restricted.points)
        F = FoliationData(sub, fibre=(2,))
        with pytest.raises(StructureError, match=re.escape("E frame not orthogonal to E' frame: g = -1/2")):
            reduce_structure(poisson_4d, hyperplane, F, frame, restricted_prime_frame=wrong)

    def test_reducibility_failure_raises(self, poisson_4d, hyperplane):
        F = FoliationData(hyperplane.sub, fibre=(0,))
        with pytest.raises(ReductionError):
            reduce_structure(poisson_4d, hyperplane, F)

    def test_orthogonal_of_reduction_is_reduction_of_orthogonal(self, poisson_4d, hyperplane):
        F = FoliationData(hyperplane.sub, fibre=(2,))
        result = reduce_structure(poisson_4d, hyperplane, F)
        proj = F.projection()
        points = result.restricted.points
        for u, pulled_prime in zip(points, pulled_prime_spaces(poisson_4d, hyperplane, points)):
            base_pt = tuple(u[i] for i in F.base)
            delta = result.quotient.evaluate_at(base_pt)
            assert pushforward_subspace(proj, pulled_prime) == delta.E_prime
            assert orthogonal_g(delta.E) == delta.E_prime


def retired_checks_hold(s, N, F):
    """reduce_structure with its default frames against the checks it no
    longer runs: the pulled-back E' frame spans i*E' at every sample point,
    the quotient pulls back to i*E there, and the Poisson flag is the graph
    type of the quotient at every base point.  Returns the Poisson flag, or
    None when the reduction is refused."""
    try:
        result = reduce_structure(s, N, F)
    except (ReductionError, StructureError):
        return None
    restricted, q = result.restricted, result.quotient
    primes = [sp.basis for sp in pulled_prime_spaces(s, N, restricted.points)]
    assert not span_mismatches(restricted.points, pulled_to(N, s.e_prime_frame), primes)
    proj = F.projection()
    base_points = [tuple(u[i] for i in F.base) for u in restricted.points]
    for base_pt, pulled in zip(base_points, pulled_spaces(restricted)):
        assert pullback_subspace(proj, q.evaluate_at(base_pt).E) == pulled, base_pt
    assert result.poisson_condition == all(is_graph_type(q.evaluate_at(pt)) for pt in set(base_points))
    return result.poisson_condition


class TestRetiredChecks:
    """What the reduction no longer checks, because the E check and the
    validation of the built frames imply it, checked here by the oracles."""

    @pytest.mark.parametrize(
        "name", ["example_reduction", "example_foliated_hamiltonian", "example_foliated_presymplectic"]
    )
    def test_reduction_fixtures(self, name):
        doc = parse_document(fixture_text(name))
        s = BigIsotropicStructure.build(doc.chart, doc.e_sections, doc.e_prime_sections)
        N = SubmanifoldData.from_equations(doc.chart, list(doc.submanifold_equations))
        F = FoliationData(N.sub, tuple(N.sub.index(name) for name in doc.foliation_names))
        assert retired_checks_hold(s, N, F) is True

    def test_each_fibre_choice(self, poisson_4d, hyperplane):
        seen = [
            retired_checks_hold(poisson_4d, hyperplane, FoliationData(hyperplane.sub, fibre))
            for size in range(4)
            for fibre in itertools.combinations(range(3), size)
        ]
        # fibres () and (2,) reduce, to a non-Poisson and a Poisson quotient
        assert seen == [False, None, None, True, None, None, None, None]

    def test_seeded_submanifolds(self):
        rng = random.Random(47)
        seen = []
        for _ in range(30):
            s = beta_twisted(rng, rng.randint(2, 4))
            N = random_affine_submanifold(rng, s.chart)
            fibre = tuple(i for i in range(N.sub.dim) if rng.random() < 0.5)
            seen.append(retired_checks_hold(s, N, FoliationData(N.sub, fibre)))
        # most draws are refused (reducibility, properness or the frame
        # count); the one that reduces has a quotient that is not Poisson
        assert seen.count(False) == 1 and seen.count(None) == 29


class TestBracketTransport:
    def test_pullback_sections_bracket(self):
        # brackets of lifted sections project onto the quotient bracket
        base = Chart(("v1", "v2"))
        total = Chart(("v1", "v2", "w"))
        F = FoliationData(total, fibre=(2,))

        def lift(sec: BigSection) -> BigSection:
            v = [None, None, total.zero()]
            w = [None, None, total.zero()]
            images = [Polynomial.variable(total.names, i) for i in range(2)]

            for i in range(2):
                v[i] = sec.vf.comps[i].substitute(images)
                w[i] = sec.of.comps[i].substitute(images)
            return BigSection(PolyVectorField(total, v), PolyOneForm(total, w))

        s1 = BigSection(
            PolyVectorField.coordinate(base, 0).scale(base.coordinate(1)),
            PolyOneForm.coordinate(base, 1),
        )
        s2 = BigSection(
            PolyVectorField.coordinate(base, 1),
            PolyOneForm.coordinate(base, 0).scale(base.coordinate(0)),
        )
        upstairs = courant_bracket(lift(s1), lift(s2))
        downstairs = lift(courant_bracket(s1, s2))
        assert (upstairs - downstairs).is_zero()


class TestFoliatedDirac:
    def test_projectable_bivector(self):
        chart = Chart(("y1", "y2", "z"))
        F = FoliationData(chart, fibre=(2,))
        P = PolyBivector(chart, {(0, 1): chart.one()})
        s = dirac_along_foliation_P(F, P)
        assert s.k == 3
        assert bivector_is_projectable(F, P)
        assert check_projectable(s, F).ok
        assert check_integrability(s).ok

    def test_fibre_dependent_bivector_not_projectable(self):
        chart = Chart(("y1", "y2", "z"))
        F = FoliationData(chart, fibre=(2,))
        P = PolyBivector(chart, {(0, 1): chart.coordinate("z")})
        s = dirac_along_foliation_P(F, P)
        assert not bivector_is_projectable(F, P)
        assert not check_projectable(s, F).ok

    def test_projectability_matches_bivector_property(self):
        chart = Chart(("y1", "y2", "z"))
        F = FoliationData(chart, fibre=(2,))
        for P in (
            PolyBivector(chart, {(0, 1): chart.one() + chart.coordinate("y1")}),
            PolyBivector(chart, {(0, 1): chart.coordinate("z") + chart.one()}),
            PolyBivector(chart, {(0, 1): chart.one(), (1, 2): chart.coordinate("y1")}),
        ):
            s = dirac_along_foliation_P(F, P)
            assert check_projectable(s, F).ok == bivector_is_projectable(F, P)

    def test_foliated_presymplectic(self):
        chart = Chart(("y1", "y2", "z"))
        F = FoliationData(chart, fibre=(2,))
        omega = PolyTwoForm(chart, {(0, 1): chart.one() + chart.coordinate("y1")})
        assert twoform_is_foliated(F, omega)
        s = dirac_along_foliation_omega(F, omega)
        assert s.k == 3
        assert check_projectable(s, F).ok
        # closed form: integrable
        assert check_integrability(s).ok

    def test_nonclosed_foliated_form(self):
        chart = Chart(("y1", "y2", "y3", "z"))
        F = FoliationData(chart, fibre=(3,))
        omega = PolyTwoForm(chart, {(0, 1): chart.coordinate("y3")})
        assert twoform_is_foliated(F, omega)
        s = dirac_along_foliation_omega(F, omega)
        assert not check_integrability(s).ok

    def test_normal_bundle_independence(self):
        chart = Chart(("y1", "y2", "z"))
        F = FoliationData(chart, fibre=(2,))
        omega = PolyTwoForm(chart, {(0, 1): chart.one() + chart.coordinate("y2")})
        s_plain = dirac_along_foliation_omega(F, omega)
        s_twist = dirac_along_foliation_omega(
            F, omega, normal_twist={(0, 2): chart.coordinate("y1"), (1, 2): chart.one()}
        )
        for pt in [(0, 0, 0), (1, -1, 2), (2, 1, -2)]:
            assert s_plain.evaluate_at(pt).E == s_twist.evaluate_at(pt).E

    def test_non_foliated_form_detected(self):
        chart = Chart(("y1", "y2", "z"))
        F = FoliationData(chart, fibre=(2,))
        omega = PolyTwoForm(chart, {(0, 2): chart.one()})
        assert not twoform_is_foliated(F, omega)
