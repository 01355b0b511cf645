import importlib.util
import random
import sys
from fractions import Fraction
from itertools import combinations, islice, product
from pathlib import Path

import pytest

from bigiso.calculus import (
    BigSection,
    Chart,
    PolyBivector,
    PolyOneForm,
    PolyTwoForm,
    PolyVectorField,
    courant_bracket,
    d_function,
    lie_bracket,
    lie_derivative_oneform,
    pairing_sections,
    sharp,
)
from bigiso import fixtures
from bigiso import grid as grid_module
from bigiso.grid import GRID_VALUES, default_grid, format_point, grid_walk
from bigiso.linalg import Subspace
from bigiso.membership import in_span, span_test
from bigiso.parser import parse_document
from bigiso.pointwise import GeometryError, IsotropicData, random_isotropic
from bigiso.scalars import Polynomial, eval_rows
from bigiso.structures import (
    BigIsotropicStructure,
    _axiom_test_functions,
    StructureError,
    Verdict,
    check_P_conditions,
    check_integrability,
    check_module_property,
    check_theta_condition,
    d_tr_varpi,
    foliation_pair,
    graph_P,
    graph_theta,
    is_infinitesimal_automorphism,
    poisson_bracket,
    pull_back_sections,
    regular_integrability_criterion,
    structure_from_components,
    tangent_lift,
    transform_structure,
    verify_coanchor,
    verify_modular_enlargement,
)
from bigiso.linalg import Matrix


def rand_poly_deg1(rng, chart):
    terms = {(0,) * chart.dim: Fraction(rng.randint(-2, 2))}
    for i in range(chart.dim):
        e = [0] * chart.dim
        e[i] = 1
        terms[tuple(e)] = Fraction(rng.randint(-2, 2))
    return Polynomial(chart.names, terms)


def transform_reference(sec, T, new_chart, offset):
    """One section moved through the chart change x_new = T x + offset,
    written out: coefficients composed with the inverse map, vector
    components through T and covector components through the inverse
    transpose."""
    m = T.rows
    T_inv = T.inverse()
    images = []
    for i in range(m):
        p = new_chart.zero()
        for j in range(m):
            p = p + new_chart.coordinate(j) * T_inv[i, j]
            p = p - new_chart.constant(T_inv[i, j] * offset[j])
        images.append(p)
    v = [c.substitute(images) for c in sec.vf.comps]
    w = [c.substitute(images) for c in sec.of.comps]
    new_v = [sum((T[i, j] * v[j] for j in range(m)), new_chart.zero()) for i in range(m)]
    new_w = [sum((T_inv[j, i] * w[j] for j in range(m)), new_chart.zero()) for i in range(m)]
    return BigSection(PolyVectorField(new_chart, new_v), PolyOneForm(new_chart, new_w))


def random_invertible(rng, m):
    while True:
        T = Matrix([[Fraction(rng.randint(-2, 2)) for _ in range(m)] for _ in range(m)])
        if T.rank() == m:
            return T


def enlargement_reference(s):
    """The enlargement axioms by their direct bracket forms: scaled brackets
    for axiom 2 and nested brackets for axiom 3."""
    failures = []
    f, h = _axiom_test_functions(s.chart)
    for i, a in enumerate(s.e_frame):
        for j, b in enumerate(s.e_prime_frame):
            br = courant_bracket(a, b)
            anchored = lie_bracket(a.vf, b.vf)
            if not (br.vf - anchored).is_zero():
                failures.append((f"axiom 1 fails on ({i},{j})", br.vf - anchored))
            lhs = courant_bracket(a.scale(f), b.scale(h))
            rhs = br.scale(f * h) + b.scale(f * a.vf.apply(h)) - a.scale(h * b.vf.apply(f))
            if not (lhs - rhs).is_zero():
                failures.append((f"axiom 2 fails on ({i},{j})", lhs - rhs))
    for i1, a1 in enumerate(s.e_frame):
        for i2, a2 in enumerate(s.e_frame):
            for j, b in enumerate(s.e_prime_frame):
                lhs = courant_bracket(a1, courant_bracket(a2, b))
                rhs = courant_bracket(courant_bracket(a1, a2), b) + courant_bracket(
                    a2, courant_bracket(a1, b)
                )
                if not (lhs - rhs).is_zero():
                    failures.append((f"axiom 3 fails on ({i1},{i2},{j})", lhs - rhs))
    return [(message, str(payload)) for message, payload in failures]


def module_reference(s):
    """The module property by its direct form: every bracket [e_i, e'_j]
    tested against E', with the minor certificate of each failure."""
    in_E_prime = span_test(s.prime_frame_rows())
    failures = []
    for i, a in enumerate(s.e_frame):
        for j, b in enumerate(s.e_prime_frame):
            ok, witness = in_E_prime(courant_bracket(a, b).as_poly_row())
            if not ok:
                failures.append((f"bracket of E section {i} with E' section {j} leaves E'", witness))
    return failures


def jacobi_pairing_sum(a1, a2, b):
    """T(a1, a2, b) = g([a1,a2], b) + g([a2,b], a1) - g([a1,b], a2) from its three brackets."""
    return (
        pairing_sections(courant_bracket(a1, a2), b)
        + pairing_sections(courant_bracket(a2, b), a1)
        - pairing_sections(courant_bracket(a1, b), a2)
    )


def coanchor_reference(s):
    """The co-anchor conditions with condition ii compared against the
    bracket [e_i, e'_j] itself."""
    failures = []
    for i, a in enumerate(s.e_frame):
        for j, b in enumerate(s.e_prime_frame):
            sym = a.of.pair(b.vf) + b.of.pair(a.vf)
            if not sym.is_zero():
                failures.append((f"condition i fails on ({i},{j})", sym))
            br = courant_bracket(a, b)
            expect = (
                lie_derivative_oneform(a.vf, b.of)
                - lie_derivative_oneform(b.vf, a.of)
                + d_function(a.of.pair(b.vf), s.chart)
            )
            if not (br.of - expect).is_zero():
                failures.append((f"condition ii fails on ({i},{j})", br.of - expect))
    return [(message, str(payload)) for message, payload in failures]


def regular_criterion_reference(s):
    """The regular-case criterion with one bracket per (pair, E' section)."""
    failures = []
    in_cal_e = span_test([sec.vf.comps for sec in s.e_frame])
    in_cal_ep = span_test([sec.vf.comps for sec in s.e_prime_frame])
    for i, j in combinations(range(s.k), 2):
        ok, witness = in_cal_e(lie_bracket(s.e_frame[i].vf, s.e_frame[j].vf).comps)
        if not ok:
            failures.append((f"tangent projection not involutive at pair ({i},{j})", witness))
    for i in range(s.k):
        for j in range(len(s.e_prime_frame)):
            ok, witness = in_cal_ep(lie_bracket(s.e_frame[i].vf, s.e_prime_frame[j].vf).comps)
            if not ok:
                failures.append((f"characteristic module not invariant at ({i},{j})", witness))
    for i, j in combinations(range(s.k), 2):
        for l, c in enumerate(s.e_prime_frame):
            val = pairing_sections(courant_bracket(s.e_frame[i], s.e_frame[j]), c) * 2
            if not val.is_zero():
                failures.append((f"truncated differential nonzero on ({i},{j};{l})", val))
    return [(message, str(payload)) for message, payload in failures]


def random_unchecked_structure(rng, m, k):
    """Random degree-1 frames of sizes k and 2m - k, not isotropic, built
    without validation."""
    chart = Chart(tuple(f"x{i}" for i in range(m)))

    def section():
        vf = PolyVectorField(chart, [rand_poly_deg1(rng, chart) for _ in range(m)])
        return BigSection(vf, PolyOneForm(chart, [rand_poly_deg1(rng, chart) for _ in range(m)]))

    e = [section() for _ in range(k)]
    return BigIsotropicStructure.build(chart, e, [section() for _ in range(2 * m - k)], validate=False)


def counting_brackets(monkeypatch):
    import bigiso.structures

    calls = []
    monkeypatch.setattr(
        bigiso.structures, "courant_bracket", lambda *a: calls.append(a) or courant_bracket(*a)
    )
    return calls


class TestMembership:
    def test_bracket_row_reduces_to_zero(self):
        chart = Chart(("x", "y"))
        rows = [
            (chart.one(), chart.zero()),
            (chart.zero(), chart.coordinate("x")),
        ]
        ok, _ = in_span(rows, (chart.one(), chart.coordinate("x")))
        assert ok

    def test_not_in_span_gives_witness(self):
        chart = Chart(("x", "y"))
        rows = [(chart.one(), chart.coordinate("x"))]
        ok, witness = in_span(rows, (chart.zero(), chart.one()))
        assert not ok
        assert witness is not None and not witness.minor.is_zero()

    def test_empty_frame(self):
        chart = Chart(("x",))
        ok, witness = in_span([], (chart.zero(),))
        assert ok
        ok, witness = in_span([], (chart.coordinate("x"),))
        assert not ok


class TestValidation:
    def test_rejects_non_isotropic(self):
        chart = Chart(("x",))
        with pytest.raises(StructureError):
            structure_from_components(chart, [(1, 1)], [(1, 1)])

    def test_rejects_wrong_prime_count(self):
        chart = Chart(("x", "y"))
        with pytest.raises(StructureError):
            structure_from_components(chart, [(1, 0, 0, 0)], [(1, 0, 0, 0)])

    def test_rejects_rank_drop(self):
        chart = Chart(("x", "y"))
        # tangent frame degenerates at x = 0
        with pytest.raises(StructureError):
            structure_from_components(
                chart,
                [(chart.coordinate("x"), 0, 0, 0)],
                [
                    (chart.coordinate("x"), 0, 0, 0),
                    (0, 1, 0, 0),
                    (0, 0, 0, 1),
                ],
            )

    def test_evaluate_constant_frames(self, r3_structure):
        d0 = r3_structure.evaluate_at((0, 0, 0))
        d1 = r3_structure.evaluate_at((1, 2, 3))
        assert d0.E == d1.E == Subspace(6, [(1, 0, 0, 0, 0, 0), (0, 0, 0, 0, 0, 1)])
        assert d0.E_prime.dim == 4

    def test_evaluate_r5_origin(self, r5_structure):
        d = r5_structure.evaluate_at((0, 0, 0, 0, 0))
        assert d.E.dim == 3
        assert d.E_prime.dim == 7


class TestEvaluateAt:
    @pytest.mark.parametrize("name", fixtures.list_fixtures())
    def test_equals_the_data_of_E_on_every_grid_point(self, name):
        doc = parse_document(fixtures.fixture_text(name))
        s = BigIsotropicStructure.build(doc.chart, doc.e_sections, doc.e_prime_sections)
        for pt in default_grid(s.m):
            data = s.evaluate_at(pt)
            assert data == IsotropicData.from_E(data.E), (name, pt)

    def test_takes_no_orthogonal_kernel(self, monkeypatch):
        # ranks k and 2m - k let the pairings of the rows decide E' = orth E
        from bigiso import pointwise

        calls = []
        original = pointwise.orthogonal_g

        def counted(space):
            calls.append(space)
            return original(space)

        for module_name, module in list(sys.modules.items()):
            if module_name.startswith("bigiso") and getattr(module, "orthogonal_g", None) is original:
                monkeypatch.setattr(module, "orthogonal_g", counted)
        for name in fixtures.list_fixtures():
            doc = parse_document(fixtures.fixture_text(name))
            s = BigIsotropicStructure.build(doc.chart, doc.e_sections, doc.e_prime_sections)
            for pt in default_grid(s.m):
                s.evaluate_at(pt)
        assert calls == []

    def test_rank_drop_raises_without_validation(self):
        chart = Chart(("x", "y"))
        x = chart.coordinate("x")
        s = structure_from_components(
            chart, [(x, 0, 0, 0)], [(x, 0, 0, 0), (0, 1, 0, 0), (0, 0, 0, 1)], validate=False
        )
        assert s.evaluate_at((1, 0)).E.dim == 1
        with pytest.raises(StructureError, match="frame ranks 0/2"):
            s.evaluate_at((0, 0))

    def test_prime_frame_not_orthogonal_raises_without_validation(self):
        # E = span(d_x); its g-orthogonal is E itself, not span(dx)
        s = structure_from_components(Chart(("x",)), [(1, 0)], [(0, 1)], validate=False)
        with pytest.raises(StructureError, match="g-orthogonal"):
            s.evaluate_at((0,))

    def test_pointwise_non_isotropic_raises_without_validation(self):
        # E = span(d_x + x dx), E' = span(d_x - x dx) = orth(E); g(E, E) = x
        chart = Chart(("x",))
        x = chart.coordinate("x")
        s = structure_from_components(chart, [(1, x)], [(1, -x)], validate=False)
        assert s.evaluate_at((0,)).E.dim == 1
        with pytest.raises(GeometryError) as err:
            s.evaluate_at((1,))
        assert str(err.value) == "E must be contained in E' (non-isotropic input?)"


def rank_drop_structure(chart, p, q, grid=None, validate=True):
    """E = span(p d_x), E' = span(p d_x, q d_y, dy): the pairings vanish
    identically, and the ranks drop where p or q vanishes."""
    return structure_from_components(
        chart, [(p, 0, 0, 0)], [(p, 0, 0, 0), (0, q, 0, 0), (0, 0, 0, 1)], grid, validate
    )


def message_of(check):
    try:
        check()
    except StructureError as exc:
        return str(exc)
    return None


class TestValidateRanks:
    @pytest.mark.parametrize(
        "grid, message",
        [
            (None, "(0, 0): frame ranks 0/2, expected 1/3"),
            (
                [(1, 1), (Fraction(1, 2), 3), (0, 2)],
                "(0, 2): frame ranks 0/2, expected 1/3",
            ),
            # points print as fractions, never as Fraction reprs
            ([(Fraction(1, 2), 1), (0, Fraction(-1, 3))], "(0, -1/3): frame ranks 0/2, expected 1/3"),
        ],
    )
    def test_rank_drop_message(self, grid, message):
        chart = Chart(("x", "y"))
        with pytest.raises(StructureError) as err:
            rank_drop_structure(chart, chart.coordinate("x"), chart.one(), grid)
        assert str(err.value) == "degenerate point " + message

    def test_prime_rank_drop_message(self):
        chart = Chart(("x", "y"))
        with pytest.raises(StructureError) as err:
            rank_drop_structure(chart, chart.one(), chart.coordinate("y"))
        assert str(err.value) == (
            "degenerate point (0, 0): frame ranks 1/2, expected 1/3"
        )

    @pytest.mark.parametrize("empty", [(), []])
    def test_empty_grid_is_refused(self, empty, r3_structure):
        # a grid with no point would certify no rank at all
        s = r3_structure
        with pytest.raises(StructureError, match="empty grid"):
            BigIsotropicStructure.build(s.chart, s.e_frame, s.e_prime_frame, grid=empty)
        with pytest.raises(StructureError, match="empty grid"):
            s.validate(empty)

    def test_verdict_is_that_of_evaluate_at_on_every_point(self):
        # once the pairings vanish identically, the ranks decide what
        # evaluate_at's subspace checks decide, with the same message
        rng = random.Random(23)
        chart = Chart(("x", "y"))
        x, y = chart.coordinate("x"), chart.coordinate("y")
        docs = [parse_document(fixtures.fixture_text(n)) for n in fixtures.list_fixtures()]
        structures = [
            BigIsotropicStructure.build(d.chart, d.e_sections, d.e_prime_sections, validate=False)
            for d in docs
        ]
        for _ in range(12):
            p, q = (rng.randint(-2, 2) * x + rng.randint(-1, 1) * y + rng.randint(-1, 1) for _ in "ab")
            structures.append(rank_drop_structure(chart, p, q, validate=False))
        outcomes = set()
        for s in structures:
            values = [[Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in "abc"] for _ in "ab"]
            grids = [None] + [default_grid(s.m, rng.randint(1, 30), v) for v in values]
            for grid in grids:
                points = default_grid(s.m) if grid is None else grid
                expected = message_of(lambda: [s.evaluate_at(pt) for pt in points])
                assert message_of(lambda: s.validate(grid)) == expected
                outcomes.add(expected is None)
        assert outcomes == {True, False}


def two_table_rows_at(s, points):
    """Oracle: rows_at as it was, one eval_rows table per frame and Matrix
    ranks.  The (E rows, E' rows) at each point, then the error text of the
    first degenerate point, if any."""
    m, k = s.m, s.k
    out = []
    e_at, ep_at = eval_rows(s.frame_rows(), points), eval_rows(s.prime_frame_rows(), points)
    for point, e_rows, ep_rows in zip(points, e_at, ep_at):
        e_rank, ep_rank = Matrix(e_rows).rank(), Matrix(ep_rows).rank()
        if e_rank != k or ep_rank != 2 * m - k:
            expected = f"{k}/{2 * m - k}"
            out.append(f"degenerate point {format_point(point)}: frame ranks {e_rank}/{ep_rank}, expected {expected}")
            break
        out.append((e_rows, ep_rows))
    return out


def one_table_rows_at(s, points):
    out = []
    try:
        for rows in s.rows_at(points):
            out.append(rows)
    except StructureError as exc:
        out.append(str(exc))
    return out


def load_bench_dense():
    """bench/dense.py, whose seeded instances are the dense workloads."""
    path = Path(__file__).resolve().parents[1] / "bench" / "dense.py"
    spec = importlib.util.spec_from_file_location("bench_dense_instances", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclass resolves its module by name
    spec.loader.exec_module(module)
    return module


class TestRowsAtOneTable:
    """rows_at evaluates E and E' through one table and ranks the rows with
    the integer kernel; it yields what two tables and Matrix ranks gave."""

    @staticmethod
    def grids(rng, m):
        values = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(rng.randint(1, 4))]
        scattered = tuple(tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(m)) for _ in range(5))
        return [default_grid(m), default_grid(m, rng.randint(1, 30), values), scattered]

    def assert_same(self, s, rng) -> list:
        """Compares on a default, a custom and a scattered grid; whether
        each walk stopped at a degenerate point."""
        stopped = []
        for points in self.grids(rng, s.m):
            got = one_table_rows_at(s, points)
            assert got == two_table_rows_at(s, points)
            pairs = [pair for pair in got if not isinstance(pair, str)]
            assert all(type(e) is int for pair in pairs for part in pair for row in part for e in row)
            stopped.append(isinstance(got[-1], str))
        return stopped

    def test_fixtures(self):
        rng = random.Random(79)
        for name in fixtures.list_fixtures():
            doc = parse_document(fixtures.fixture_text(name))
            s = BigIsotropicStructure.build(doc.chart, doc.e_sections, doc.e_prime_sections, validate=False)
            assert not any(self.assert_same(s, rng)), name

    def test_seeded_pointwise_and_rank_dropping_structures(self):
        rng = random.Random(83)
        outcomes = set()
        for _ in range(40):
            m = rng.randint(1, 4)
            d = random_isotropic(rng, m)
            chart = Chart(tuple(f"x{i}" for i in range(m)))
            s = structure_from_components(chart, d.E.basis, d.E_prime.basis, validate=False)
            outcomes |= set(self.assert_same(s, rng))
        chart = Chart(("x", "y"))
        x, y = chart.coordinate("x"), chart.coordinate("y")
        for _ in range(20):
            p, q = (rng.randint(-2, 2) * x + rng.randint(-1, 1) * y + rng.randint(-1, 1) for _ in "ab")
            outcomes |= set(self.assert_same(rank_drop_structure(chart, p, q, validate=False), rng))
        assert outcomes == {True, False}

    def test_dense_instances(self):
        dense = load_bench_dense()
        rng = random.Random(89)
        for workload in ("dense-pass", "dense-fail"):
            for seed in (1, 2):
                for inst in dense.make_instances(workload, seed):
                    chart, e, ep = dense.to_library(inst)
                    s = BigIsotropicStructure.build(chart, e, ep, validate=False)
                    assert not any(self.assert_same(s, rng)), (workload, seed, inst.m)


def sorted_grid(m, values):
    """Reference oracle: every point of values^m, sorted by the grid key."""
    return sorted(
        product(values, repeat=m),
        key=lambda p: (sum(abs(c) for c in p), tuple(c < 0 for c in p), p),
    )


class TestDefaultGrid:
    @pytest.mark.parametrize(
        "values", [range(-2, 3), range(-1, 4), range(0, 5), range(-3, 4), [0], range(2, 5)]
    )
    def test_matches_sorting_every_point(self, values):
        fractions = tuple(Fraction(v) for v in values)
        for m in range(1, 8):
            if len(fractions) ** m > 200000:
                continue
            # int coordinates sort like the Fractions and keep the oracle fast
            every = sorted_grid(m, tuple(values))
            for cap in (1, 12, 16, 24, 100):
                assert default_grid(m, cap, fractions) == tuple(every[:cap]), (m, cap)

    @pytest.mark.parametrize(
        "values",
        [
            (Fraction(-1, 2), 0, Fraction(1, 2), Fraction(3, 2)),
            (Fraction(5, 2), Fraction(-1, 6), Fraction(1, 4), Fraction(-2, 3)),
            (Fraction(1, 3), Fraction(2, 3), 1),
        ],
    )
    def test_matches_sorting_non_integer_values(self, values):
        fractions = tuple(Fraction(v) for v in values)
        for m in range(1, 6):
            every = sorted_grid(m, fractions)
            for cap in (1, 12, 24, 100):
                assert default_grid(m, cap, fractions) == tuple(every[:cap]), (m, cap)

    @pytest.mark.parametrize(
        "values", [GRID_VALUES, (Fraction(-1, 2), 0, Fraction(1, 3), Fraction(3, 2), 2)]
    )
    def test_is_a_prefix_of_the_walk(self, values):
        for m in range(1, 7):
            for cap in range(1, 41):
                assert default_grid(m, cap, values) == tuple(islice(grid_walk(m, values), cap)), (m, cap)

    def test_points_keep_the_callers_values(self):
        grid = default_grid(2, 9, (0, 1, -1))
        assert grid == tuple(sorted_grid(2, (0, 1, -1)))
        assert all(type(c) is int for p in grid for c in p)

    @pytest.mark.parametrize(
        "values", [(0, 1, 1), (-1, 2, -1, 0, 2, 2), (Fraction(1, 2), 0, Fraction(1, 2), -3)]
    )
    def test_repeated_values_are_walked_once(self, values):
        distinct = tuple(sorted(set(values)))
        for m in range(1, 5):
            walk = list(grid_walk(m, values))
            assert walk == list(grid_walk(m, distinct)) == sorted_grid(m, distinct), m
            assert len(walk) == len(set(walk)) == len(distinct) ** m
        assert default_grid(2, 5, (0, 1, 1)) == ((0, 0), (0, 1), (1, 0), (1, 1))

    @pytest.mark.parametrize("m", [8, 10, 12])
    def test_large_charts_list_the_smallest_points(self, m):
        for cap in (1, 24, 100):
            grid = default_grid(m, cap)
            norms = [sum(abs(c) for c in p) for p in grid]
            assert len(grid) == cap and len(set(grid)) == cap
            assert grid[0] == (0,) * m
            assert norms == sorted(norms)

    @pytest.mark.parametrize("cap", [27, 28, sys.maxsize, sys.maxsize + 1, 10**20])
    def test_a_cap_past_the_grid_gives_every_point(self, cap):
        # islice refuses a stop past sys.maxsize; the grid is small, the cap is not
        assert default_grid(3, cap, (-1, 0, 1)) == tuple(sorted_grid(3, (-1, 0, 1)))

    def test_wide_value_ranges_list_the_smallest_points(self):
        # the 25 points of Z^3 with L1 norm <= 2 come first whatever the range;
        # the reachable norms of 6001 values are found without a set per norm
        wide = default_grid(3, cap=25, values=range(-3000, 3001))
        assert wide == default_grid(3, cap=25, values=range(-2, 3))
        assert max(sum(abs(c) for c in p) for p in wide) == 2

    def test_a_range_of_200001_values_costs_only_the_points_it_yields(self):
        # contiguous magnitudes reach every norm with no shifted masks, and a
        # shell stops at the first magnitude past its norm
        wide = default_grid(3, values=range(-100000, 100001))
        assert wide == default_grid(3, values=range(-3, 4)) == tuple(sorted_grid(3, range(-3, 4))[:24])
        assert all(type(c) is int for p in wide for c in p)
        shifted = default_grid(2, 7, values=range(5, 100001))
        assert shifted == tuple(sorted_grid(2, range(5, 9))[:7])

    @pytest.mark.parametrize("low", [10**6, 10**599])
    def test_a_range_far_from_zero_walks_no_norm_below_it(self, low):
        # norms are walked less m times the least magnitude, so the masks
        # are as wide as the range, not as its distance from zero; the first
        # 24 points of Z^3 need coordinates up to 4 above the least
        near = range(low, low + 5)
        assert default_grid(3, 24, range(low, low + 100001)) == default_grid(3, 24, near)
        assert default_grid(3, 24, near) == tuple(sorted_grid(3, near)[:24])
        mirrored = range(-low - 4, -low + 1)
        assert default_grid(3, 24, mirrored) == tuple(sorted_grid(3, mirrored)[:24])


class TestIntegrability:
    def test_r3_integrable(self, r3_structure):
        assert check_integrability(r3_structure).ok

    def test_r5_integrable(self, r5_structure):
        assert check_integrability(r5_structure).ok

    def test_nonintegrable_witness(self, nonintegrable_theta_structure):
        verdict = check_integrability(nonintegrable_theta_structure)
        assert not verdict.ok
        # some witness minor must be a nonzero polynomial
        assert any(w is not None and not w.minor.is_zero() for _, w in verdict.failures)

    def test_module_property_fixtures(self, r3_structure, r5_structure):
        assert check_module_property(r3_structure).ok
        assert check_module_property(r5_structure).ok


def mixed_graph_P_structure(p=None):
    """graph(P) on Q^5 for P = p d0^d1 + d2^d3 (p = 1 by default, which is
    Poisson; p = x2 is not), E = E' and each frame mixed by its own
    polynomial row operations R_t += c x_v R_s."""
    chart = Chart(tuple(f"x{i}" for i in range(5)))
    P = PolyBivector(chart, {(0, 1): p or chart.one(), (2, 3): chart.one()})
    graph = graph_P([PolyOneForm.coordinate(chart, i) for i in range(5)], P).e_frame

    def mixed(ops):
        rows = list(graph)
        for t, src, v, c in ops:
            rows[t] = rows[t] + rows[src].scale(chart.coordinate(v) * c)
        return rows

    e = mixed([(1, 0, 2, 1), (0, 1, 3, -2), (3, 2, 4, 1), (4, 3, 0, 3), (2, 4, 1, -1)])
    ep = mixed([(0, 1, 4, 2), (1, 0, 3, 1), (2, 3, 0, -1), (4, 2, 1, 1), (3, 4, 2, 2)])
    return BigIsotropicStructure.build(chart, e, ep)


def non_poisson_mixed_graph_P_structure():
    """graph(P) on Q^4 for the non-Poisson P = x3 d_x1^d_x2 + d_x3^d_x4 with
    one E row mixed, E' the unmixed graph: validated, and not integrable."""
    chart = Chart(("x1", "x2", "x3", "x4"))
    x = [chart.coordinate(i) for i in range(4)]
    P = PolyBivector(chart, {(0, 1): x[2], (2, 3): chart.one()})
    e = list(graph_P([PolyOneForm.coordinate(chart, i) for i in range(4)], P).e_frame)
    return BigIsotropicStructure.build(chart, [e[0] + e[1].scale(x[3])] + e[1:], e)


def random_rank_one_structure(rng, m):
    """A random isotropic section e = (X, alpha) with X^0 = 1 and its
    g-orthogonal, framed by u - 2 g(e, u) (0, dx0) over the coordinate
    sections u != (0, dx0) and mixed by polynomial row operations; ranks 1
    and 2m - 1 everywhere, so it validates on every grid."""
    chart = Chart(tuple(f"x{i}" for i in range(m)))
    X = [chart.one()] + [rand_poly_deg1(rng, chart) for _ in range(m - 1)]
    alpha = [rand_poly_deg1(rng, chart) for _ in range(m)]
    alpha[0] = -sum((alpha[i] * X[i] for i in range(1, m)), chart.zero())
    e = BigSection(PolyVectorField(chart, X), PolyOneForm(chart, alpha))
    dx0 = BigSection(PolyVectorField.zero(chart), PolyOneForm.coordinate(chart, 0))
    units = [BigSection(PolyVectorField.coordinate(chart, i), PolyOneForm.zero(chart)) for i in range(m)]
    units += [BigSection(PolyVectorField.zero(chart), PolyOneForm.coordinate(chart, i)) for i in range(1, m)]
    prime = [u - dx0.scale(pairing_sections(e, u) * 2) for u in units]
    for _ in range(m - 1):
        t, src = rng.sample(range(2 * m - 1), 2)
        c = chart.coordinate(rng.randrange(m)) * rng.choice((-2, -1, 1, 2))
        prime[t] = prime[t] + prime[src].scale(c)
    return BigIsotropicStructure.build(chart, [e], prime)


def oracle_structures():
    """Validated structures for the oracle tests: the 12 fixtures, three
    mixed graph(P) frames (two of them not Poisson) and random rank-1
    frames."""
    structures = []
    for name in fixtures.list_fixtures():
        doc = parse_document(fixtures.fixture_text(name))
        structures.append(BigIsotropicStructure.build(doc.chart, doc.e_sections, doc.e_prime_sections))
    x2 = Chart(tuple(f"x{i}" for i in range(5))).coordinate(2)
    structures += [
        mixed_graph_P_structure(),
        mixed_graph_P_structure(x2),
        non_poisson_mixed_graph_P_structure(),
    ]
    rng = random.Random(74)
    structures += [random_rank_one_structure(rng, m) for m in (1, 2, 2, 3, 3, 4)]
    return structures


class TestModuleProperty:
    """On a validated structure the module property holds iff E is
    integrable, and a failure keeps the certificates of the direct form."""

    @pytest.fixture(scope="class")
    def structures(self):
        return oracle_structures()

    def test_verdict_and_failures_equal_the_direct_form(self, structures):
        outcomes = []
        for s in structures:
            assert s.validated
            verdict = check_module_property(s)
            assert list(verdict.failures) == module_reference(s)
            assert verdict.ok == (not verdict.failures) == check_integrability(s).ok
            outcomes.append(verdict.ok)
        # example_theta_nonintegrable and the two non-Poisson graph(P) frames
        assert outcomes.count(False) == 3
        assert all(outcomes[-6:]) and {s.k for s in structures[-6:]} == {1}  # rank 1 always passes

    def test_jacobi_pairing_sum_is_three_inner_pairings(self, structures):
        for s in structures:
            for a1, a2, b in product(s.e_frame, s.e_frame, s.e_prime_frame):
                assert jacobi_pairing_sum(a1, a2, b) == pairing_sections(courant_bracket(a1, a2), b) * 3

    def test_enlargement_failures_equal_the_direct_form(self, structures):
        failing = 0
        for s in structures:
            verdict = verify_modular_enlargement(s)
            assert [(msg, str(p)) for msg, p in verdict.failures] == enlargement_reference(s)
            failing += not verdict.ok
        assert failing == 2  # the two non-Poisson graph(P) frames

    def test_unvalidated_structure_keeps_the_direct_form(self, monkeypatch):
        validated = mixed_graph_P_structure()
        s = BigIsotropicStructure.build(
            validated.chart, validated.e_frame, validated.e_prime_frame, validate=False
        )
        assert not s.validated and s == validated
        calls = counting_brackets(monkeypatch)
        assert check_module_property(s).ok
        assert len(calls) == s.k * len(s.e_prime_frame)
        monkeypatch.undo()
        s.validate()
        assert s.validated
        calls = counting_brackets(monkeypatch)
        assert check_module_property(s).ok
        assert len(calls) == s.k * (s.k - 1) // 2


def test_describe_renders_each_failure_as_message_and_detail():
    verdict = check_module_property(non_poisson_mixed_graph_P_structure())
    assert verdict.failures and all(detail is not None for _, detail in verdict.failures)
    lines = [f"  - {message}: {detail}" for message, detail in verdict.failures]
    assert verdict.describe() == "\n".join(["module property: FAIL"] + lines)
    assert Verdict("check", False, (("no detail", None),)).describe() == "check: FAIL\n  - no detail"


class TestPartialsOncePerCheck:
    """Each frame section's partials are taken once per structure, when its
    table of frame brackets is built: 2m^2 derivatives per section (2m
    entries, m variables), so 2km^2 for the first check, whatever the
    number of brackets.  The module property of a validated integrable
    structure is decided by the same table, so it takes none; on a
    non-integrable one it takes only the 2(2m - k)m^2 of the E' sections."""

    @pytest.mark.parametrize("which", ["example_r5", "mixed graph(P)", "non-Poisson mixed graph(P)"])
    def test_derivative_counts(self, which, r5_structure, derivative_calls):
        given = {
            "example_r5": lambda: r5_structure,
            "mixed graph(P)": mixed_graph_P_structure,
            "non-Poisson mixed graph(P)": non_poisson_mixed_graph_P_structure,
        }[which]()
        # a fresh structure: the session fixture may already hold its table
        s = BigIsotropicStructure.build(given.chart, given.e_frame, given.e_prime_frame)
        m, k = s.m, s.k
        assert (m, k) == {"example_r5": (5, 3), "mixed graph(P)": (5, 5)}.get(which, (4, 4))
        integrable = which != "non-Poisson mixed graph(P)"
        derivative_calls.clear()
        assert check_integrability(s).ok == integrable
        assert len(derivative_calls) == 2 * k * m * m
        derivative_calls.clear()
        assert check_module_property(s).ok == integrable
        assert len(derivative_calls) == (0 if integrable else 2 * (2 * m - k) * m * m)


@pytest.mark.parametrize("make", [mixed_graph_P_structure, non_poisson_mixed_graph_P_structure])
def test_one_bracket_table_serves_the_three_checks(make, monkeypatch):
    """Integrability, the module property and the enlargement axioms of one
    fresh validated structure form its k(k-1)/2 frame brackets together and
    test each against E once; a non-integrable E adds only the kn mixed
    brackets of the module property's certificates (n = 2m - k), tested
    against E'."""
    s = make()
    assert s.validated
    contains, members = s.in_E, []
    monkeypatch.setitem(vars(s), "in_E", lambda row: members.append(row) or contains(row))
    calls = counting_brackets(monkeypatch)
    integrable = check_integrability(s).ok
    assert check_module_property(s).ok == integrable
    assert len(members) == s.k * (s.k - 1) // 2
    verify_modular_enlargement(s)
    assert len(members) == s.k * (s.k - 1) // 2
    mixed = 0 if integrable else s.k * len(s.e_prime_frame)
    assert len(calls) == s.k * (s.k - 1) // 2 + mixed
    assert integrable == (make is mixed_graph_P_structure)


def counting_default_grid(monkeypatch):
    """Calls of grid.default_grid through every bigiso module that holds it."""
    calls = []
    original = grid_module.default_grid

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("bigiso") and getattr(module, "default_grid", None) is original:
            monkeypatch.setattr(module, "default_grid", counted)
    return calls


def test_one_default_grid_per_structure(monkeypatch):
    # validate builds the grid; the membership probes walk it lazily
    s = mixed_graph_P_structure()
    calls = counting_default_grid(monkeypatch)
    fresh = BigIsotropicStructure.build(s.chart, s.e_frame, s.e_prime_frame)
    assert check_integrability(fresh).ok and check_module_property(fresh).ok
    assert calls == [(5,)]


class TestGraphTheta:
    def test_integrable_example(self):
        chart = Chart(("x", "y", "z"))
        theta = PolyTwoForm(chart, {(0, 1): chart.one()})  # dx^dy
        s = graph_theta([PolyVectorField.coordinate(chart, "x")], theta)
        assert s.k == 1
        assert s.e_frame[0].of == PolyOneForm.coordinate(chart, "y")
        assert check_integrability(s).ok
        assert check_theta_condition([PolyVectorField.coordinate(chart, "x")], theta).ok

    def test_nonintegrable_example(self, nonintegrable_theta_structure):
        chart = nonintegrable_theta_structure.chart
        theta = PolyTwoForm(chart, {(0, 1): chart.coordinate("z")})
        fields = [PolyVectorField.coordinate(chart, "x"), PolyVectorField.coordinate(chart, "y")]
        assert not check_theta_condition(fields, theta).ok

    def test_zero_form_reduces_to_foliation(self):
        chart = Chart(("x", "y", "z"))
        theta = PolyTwoForm(chart, {})
        X = PolyVectorField.coordinate(chart, "x") + PolyVectorField.coordinate(chart, "z").scale(
            chart.coordinate("y")
        )
        Y = PolyVectorField.coordinate(chart, "y")
        s = graph_theta([X, Y], theta, ann_s_frame=[
            PolyOneForm(chart, [-chart.coordinate("y"), chart.zero(), chart.one()])
        ])
        # [X, Y] = -d_z is not in S
        assert not check_integrability(s).ok
        assert not check_theta_condition([X, Y], theta).ok

    def test_randomized_agreement(self):
        rng = random.Random(21)
        agree = 0
        trials = 0
        while agree < 50:
            m = rng.randint(2, 4)
            chart = Chart(tuple(f"x{i}" for i in range(m)))
            k = rng.randint(1, m)
            # constant independent fields
            rows = [[Fraction(rng.randint(-2, 2)) for _ in range(m)] for _ in range(k)]
            if Matrix(rows).rank() != k:
                continue
            fields = [
                PolyVectorField(chart, [chart.constant(c) for c in row]) for row in rows
            ]
            theta = PolyTwoForm(
                chart,
                {
                    (i, j): rand_poly_deg1(rng, chart)
                    for i, j in combinations(range(m), 2)
                },
            )
            trials += 1
            cond = check_theta_condition(fields, theta)
            s = graph_theta(fields, theta)
            generic = check_integrability(s)
            assert cond.ok == generic.ok
            agree += 1
        assert trials >= 50


class TestGraphP:
    def test_constant_sympletic_block(self):
        chart = Chart(("x1", "x2", "x3", "x4"))
        P = PolyBivector(chart, {(0, 1): chart.one(), (2, 3): chart.one()})
        s = graph_P([PolyOneForm.coordinate(chart, 0)], P)
        assert check_integrability(s).ok
        assert check_P_conditions([PolyOneForm.coordinate(chart, 0)], P).ok

    def test_full_graph_is_dirac(self, symplectic_structure):
        assert symplectic_structure.k == symplectic_structure.m
        assert check_integrability(symplectic_structure).ok

    def test_non_poisson_fails_schouten_condition(self):
        chart = Chart(("x1", "x2", "x3"))
        P = PolyBivector(chart, {(1, 2): chart.coordinate("x2"), (0, 1): chart.one()})
        forms = [PolyOneForm.coordinate(chart, 0), PolyOneForm.coordinate(chart, 1)]
        verdict = check_P_conditions(forms, P)
        assert not verdict.ok
        assert any("[P,P]" in msg for msg, _ in verdict.failures)

    def test_randomized_agreement(self):
        rng = random.Random(22)
        agree = 0
        while agree < 50:
            m = rng.randint(2, 4)
            chart = Chart(tuple(f"x{i}" for i in range(m)))
            k = rng.randint(1, m)
            rows = [[Fraction(rng.randint(-2, 2)) for _ in range(m)] for _ in range(k)]
            if Matrix(rows).rank() != k:
                continue
            forms = [PolyOneForm(chart, [chart.constant(c) for c in row]) for row in rows]
            P = PolyBivector(
                chart,
                {(i, j): rand_poly_deg1(rng, chart) for i, j in combinations(range(m), 2)},
            )
            cond = check_P_conditions(forms, P)
            s = graph_P(forms, P)
            generic = check_integrability(s)
            assert cond.ok == generic.ok
            agree += 1


class TestFoliationPair:
    def test_coordinate_pair_integrable(self):
        chart = Chart(("x", "y", "z"))
        s = foliation_pair(
            [PolyVectorField.coordinate(chart, "x")],
            [PolyVectorField.coordinate(chart, "x"), PolyVectorField.coordinate(chart, "y")],
            chart,
        )
        assert check_integrability(s).ok
        assert check_module_property(s).ok

    def test_non_involutive_fails(self):
        chart = Chart(("x", "y", "z"))
        # F = F' = span{d_x + y d_z, d_y}: bracket gives -d_z outside F
        X = PolyVectorField.coordinate(chart, "x") + PolyVectorField.coordinate(chart, "z").scale(
            chart.coordinate("y")
        )
        Y = PolyVectorField.coordinate(chart, "y")
        ann = [PolyOneForm(chart, [-chart.coordinate("y"), chart.zero(), chart.one()])]
        s = foliation_pair([X, Y], [X, Y], chart, ann_fprime=ann, ann_f=ann)
        assert not check_integrability(s).ok

    def test_degenerate_zero_structure(self):
        chart = Chart(("x", "y"))
        s = foliation_pair([], [PolyVectorField.coordinate(chart, i) for i in range(2)], chart)
        assert s.k == 0
        assert check_integrability(s).ok

    def test_containment_enforced(self):
        chart = Chart(("x", "y"))
        with pytest.raises(StructureError):
            foliation_pair(
                [PolyVectorField.coordinate(chart, "y")],
                [PolyVectorField.coordinate(chart, "x")],
                chart,
            )


class TestTangentLift:
    def test_lift_of_r3(self, r3_structure):
        lifted = tangent_lift(r3_structure)
        assert lifted.m == 6
        assert lifted.k == 4
        assert check_integrability(lifted).ok

    def test_lift_of_full_tangent(self):
        chart = Chart(("x", "y"))
        s = structure_from_components(
            chart,
            [(1, 0, 0, 0), (0, 1, 0, 0)],
            [(1, 0, 0, 0), (0, 1, 0, 0)],
        )
        lifted = tangent_lift(s)
        d = lifted.evaluate_at((0, 0, 0, 0))
        assert d.E == Subspace(8, [[1 if i == j else 0 for j in range(8)] for i in range(4)])

    def test_lift_preserves_isotropy_symbolically(self, r5_structure):
        # building the lift runs the symbolic isotropy validation
        lifted = tangent_lift(r5_structure)
        assert lifted.k == 6


class TestTruncatedDifferential:
    def test_integrable_gives_zero(self, r3_structure):
        a, b = r3_structure.e_frame
        for c in r3_structure.e_prime_frame:
            assert d_tr_varpi(r3_structure, a, b, c).is_zero()

    def test_r5_triple(self, r5_structure):
        a, b = r5_structure.e_frame[0], r5_structure.e_frame[1]
        c = r5_structure.e_prime_frame[3]
        assert d_tr_varpi(r5_structure, a, b, c).is_zero()

    def test_nonintegrable_witness(self, nonintegrable_theta_structure):
        s = nonintegrable_theta_structure
        a, b = s.e_frame
        vals = [d_tr_varpi(s, a, b, c) for c in s.e_prime_frame]
        assert any(not v.is_zero() for v in vals)

    def test_membership_enforced(self, r3_structure):
        chart = r3_structure.chart
        rogue = BigSection(PolyVectorField.coordinate(chart, "y"), PolyOneForm.zero(chart))
        with pytest.raises(StructureError):
            d_tr_varpi(r3_structure, rogue, r3_structure.e_frame[0], r3_structure.e_prime_frame[0])

    def test_skew_in_leading_arguments(self, r5_structure):
        a, b = r5_structure.e_frame[0], r5_structure.e_frame[1]
        c = r5_structure.e_prime_frame[4]
        v1 = d_tr_varpi(r5_structure, a, b, c).value
        v2 = d_tr_varpi(r5_structure, b, a, c).value
        assert (v1 + v2).is_zero()


class TestHamiltonian:
    def test_sign_anchor(self):
        chart = Chart(("x1", "x2"))
        P = PolyBivector(chart, {(0, 1): chart.one()})
        s = graph_P([PolyOneForm.coordinate(chart, i) for i in range(2)], P)
        f = chart.coordinate("x1")
        h = chart.coordinate("x2")
        X_f = sharp(P, d_function(f, chart))
        X_h = sharp(P, d_function(h, chart))
        assert poisson_bracket(s, f, X_f, h, X_h) == chart.one()
        # cross-check against the characteristic-form convention:
        # {f,h} = -varpi(X_f, X_h) with varpi(X,Y) = alpha(Y) for lifts in E
        alpha = d_function(f, chart)
        assert -alpha.pair(X_h) == chart.one()

    def test_skew_and_trivial_cases(self, symplectic_structure):
        s = symplectic_structure
        chart = s.chart
        P = PolyBivector(chart, {(0, 1): chart.one(), (2, 3): chart.one()})
        rng = random.Random(23)
        for _ in range(10):
            f = rand_poly_deg1(rng, chart) * rand_poly_deg1(rng, chart)
            h = rand_poly_deg1(rng, chart)
            X_f = sharp(P, d_function(f, chart))
            X_h = sharp(P, d_function(h, chart))
            fh = poisson_bracket(s, f, X_f, h, X_h)
            hf = poisson_bracket(s, h, X_h, f, X_f)
            assert (fh + hf).is_zero()
        f = chart.coordinate("x1")
        X_f = sharp(P, d_function(f, chart))
        assert poisson_bracket(s, f, X_f, f, X_f).is_zero()
        const = chart.constant(5)
        assert poisson_bracket(s, const, PolyVectorField.zero(chart), f, X_f).is_zero()

    def test_one_membership_test_per_frame(self, monkeypatch):
        # a passing validated structure decides both checks on the E test
        # alone; the E' test is built once, for the weak-Hamiltonian pairs
        # or for the certificates of a failing module property
        import bigiso.structures

        built = []
        span_test = bigiso.structures.span_test
        monkeypatch.setattr(
            bigiso.structures, "span_test", lambda rows: built.append(rows) or span_test(rows)
        )
        chart = Chart(("x1", "x2"))
        P = PolyBivector(chart, {(0, 1): chart.one()})
        s = graph_P([PolyOneForm.coordinate(chart, i) for i in range(2)], P)
        assert check_integrability(s).ok and check_module_property(s).ok
        assert built == [s.frame_rows()]
        f, h = chart.coordinate("x1"), chart.coordinate("x2")
        X_f, X_h = sharp(P, d_function(f, chart)), sharp(P, d_function(h, chart))
        for _ in range(3):
            poisson_bracket(s, f, X_f, h, X_h)
        assert check_integrability(s).ok and check_module_property(s).ok
        assert built == [s.frame_rows(), s.prime_frame_rows()]

        built.clear()
        failing = non_poisson_mixed_graph_P_structure()
        assert not check_integrability(failing).ok and not check_module_property(failing).ok
        assert built == [failing.frame_rows(), failing.prime_frame_rows()]

    def test_membership_verification(self, symplectic_structure):
        chart = symplectic_structure.chart
        f = chart.coordinate("x1")
        wrong = PolyVectorField.coordinate(chart, "x1")
        with pytest.raises(StructureError):
            poisson_bracket(symplectic_structure, f, wrong, f, wrong)


class TestAxioms:
    def test_fixtures_pass_enlargement(self, r3_structure, r5_structure):
        assert verify_modular_enlargement(r3_structure).ok
        assert verify_modular_enlargement(r5_structure).ok

    def test_fixtures_pass_coanchor(self, r3_structure, r5_structure):
        assert verify_coanchor(r3_structure).ok
        assert verify_coanchor(r5_structure).ok

    def test_symplectic_passes(self, symplectic_structure):
        assert verify_modular_enlargement(symplectic_structure).ok
        assert verify_coanchor(symplectic_structure).ok

    def test_enlargement_computes_each_bracket_once(self, monkeypatch):
        """Same verdict, failures and order as the bracket-per-term loop,
        with the k(k-1)/2 frame brackets of a validated structure instead
        of 2kn + 5k^2 n (n = 2m - k)."""
        import bigiso.structures

        # graph of a non-Poisson P with one frame row mixed: axiom 3 fails twice
        mixed = non_poisson_mixed_graph_P_structure()
        calls = []
        monkeypatch.setattr(
            bigiso.structures, "courant_bracket", lambda *a: calls.append(a) or courant_bracket(*a)
        )
        verdict = verify_modular_enlargement(mixed)
        assert [(m, str(p)) for m, p in verdict.failures] == enlargement_reference(mixed)
        assert [m for m, _ in verdict.failures] == [
            "axiom 3 fails on (0,3,0)",
            "axiom 3 fails on (3,0,0)",
        ]
        k = 4
        assert len(calls) == k * (k - 1) // 2 == 6

    def test_enlargement_and_coanchor_match_the_bracket_forms_unvalidated(self, monkeypatch):
        """Random frames that are neither isotropic nor orthogonal, built
        with validate=False: verdicts and certificates equal the direct
        bracket forms, with the k(k-1)/2 frame brackets and none for the
        co-anchor.  In the last frame T = 3/4 for axiom 3 and
        alpha(Y) + beta(X) = 1 for co-anchor pair (0,1): nonzero constants,
        whose defects vanish."""
        rng = random.Random(71)
        structures = [random_unchecked_structure(rng, m, k) for m, k in ((2, 1), (2, 2), (3, 1), (3, 3), (4, 1))]
        chart = Chart(("x", "y"))
        e_rows = [(1, 0, 0, 0), (0, 1, 0, chart.coordinate("x"))]
        structures.append(structure_from_components(chart, e_rows, [(0, 1, 0, 0), (0, 0, 1, 0)], validate=False))
        labels = set()
        for s in structures:
            calls = counting_brackets(monkeypatch)
            enlargement, coanchor = verify_modular_enlargement(s), verify_coanchor(s)
            assert len(calls) == s.k * (s.k - 1) // 2
            monkeypatch.undo()
            assert [(msg, str(p)) for msg, p in enlargement.failures] == enlargement_reference(s)
            assert [(msg, str(p)) for msg, p in coanchor.failures] == coanchor_reference(s)
            assert enlargement.ok == (not enlargement.failures) and coanchor.ok == (not coanchor.failures)
            labels |= {msg.split(" fails")[0] for msg, _ in enlargement.failures + coanchor.failures}
        assert labels == {"axiom 2", "axiom 3", "condition i", "condition ii"}

    def test_enlargement_computes_each_pairing_once(self, monkeypatch):
        """kn pairings g(e_i, e'_j) for axiom 2, reused by T, and one
        g([e_i1, e_i2], e'_j) per T(i1 < i2, j), none of them repeated, on
        frames that are not isotropic."""
        import bigiso.structures

        rng = random.Random(73)
        for m, k in ((2, 2), (3, 3), (4, 3)):
            s = random_unchecked_structure(rng, m, k)
            n = 2 * m - k
            pairs = []
            monkeypatch.setattr(
                bigiso.structures,
                "pairing_sections",
                lambda a, b: pairs.append((a, b)) or pairing_sections(a, b),
            )
            verdict = verify_modular_enlargement(s)
            monkeypatch.undo()
            assert len(pairs) == k * n + n * k * (k - 1) // 2
            assert len({(id(a), id(b)) for a, b in pairs}) == len(pairs)
            assert [(msg, str(p)) for msg, p in verdict.failures] == enlargement_reference(s)

    def test_orthogonal_frames_that_are_not_isotropic(self, monkeypatch):
        """g(E, E') = 0 but g(e_0, e_1) = p != 0, built with validate=False:
        T = 3 g([e_0, e_1], e'_j) still holds, so only [e_0, e_1] is formed,
        and the failures are those of the direct bracket forms."""
        rng = random.Random(76)
        chart = Chart(("x", "y", "z"))
        labels = set()
        for _ in range(4):
            p = rand_poly_deg1(rng, chart) * rand_poly_deg1(rng, chart)
            # e'_j has no d_x and no dx part, so it pairs to zero with both
            ep_rows = [
                (0, rand_poly_deg1(rng, chart), rand_poly_deg1(rng, chart))
                + (0, rand_poly_deg1(rng, chart), rand_poly_deg1(rng, chart))
                for _ in range(4)
            ]
            e_rows = [(1, 0, 0, 0, 0, 0), (0, 0, 0, p, 0, 0)]
            s = structure_from_components(chart, e_rows, ep_rows, validate=False)
            assert not pairing_sections(*s.e_frame).is_zero()
            calls = counting_brackets(monkeypatch)
            verdict = verify_modular_enlargement(s)
            assert len(calls) == 1
            monkeypatch.undo()
            assert [(msg, str(q)) for msg, q in verdict.failures] == enlargement_reference(s)
            labels |= {msg.split(" fails")[0] for msg, _ in verdict.failures}
        assert labels == {"axiom 3"}

    def test_axiom_2_twist_is_nonzero(self):
        """Axiom 2 fails exactly where g(e_i, e'_j) != 0 because its defect
        is that pairing times the fixed 1-form h df - f dh."""
        for m in range(1, 9):
            chart = Chart(tuple(f"x{i}" for i in range(m)))
            f, h = _axiom_test_functions(chart)
            twist = d_function(f, chart).scale(h) - d_function(h, chart).scale(f)
            assert any(not c.is_zero() for c in twist.comps), m

    def test_constant_nonzero_pairing(self):
        """g(a, b) = 1/2 everywhere: condition i fails and condition ii
        passes; axiom 2 fails on that pair only and axiom 3 holds."""
        chart = Chart(("x", "y"))
        s = structure_from_components(
            chart,
            e_rows=[(1, 0, 0, 0)],
            ep_rows=[(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)],
            validate=False,
        )
        coanchor = verify_coanchor(s)
        assert [msg for msg, _ in coanchor.failures] == ["condition i fails on (0,2)"]
        assert [(msg, str(p)) for msg, p in coanchor.failures] == coanchor_reference(s)
        enlargement = verify_modular_enlargement(s)
        assert [msg for msg, _ in enlargement.failures] == ["axiom 2 fails on (0,2)"]
        assert [(msg, str(p)) for msg, p in enlargement.failures] == enlargement_reference(s)

    def test_regular_criterion_brackets_each_pair_once(self, monkeypatch, nonintegrable_theta_structure):
        rng = random.Random(72)
        for s in [nonintegrable_theta_structure] + [random_unchecked_structure(rng, m, 2) for m in (2, 3, 4)]:
            calls = counting_brackets(monkeypatch)
            verdict = regular_integrability_criterion(s)
            assert len(calls) == s.k * (s.k - 1) // 2
            monkeypatch.undo()
            assert [(msg, str(p)) for msg, p in verdict.failures] == regular_criterion_reference(s)


class TestRegularCriterion:
    def test_agreement_on_fixtures(self, r3_structure, r5_structure, symplectic_structure, nonintegrable_theta_structure):
        for s in (r3_structure, r5_structure, symplectic_structure):
            assert regular_integrability_criterion(s).ok == check_integrability(s).ok == True
        s = nonintegrable_theta_structure
        assert regular_integrability_criterion(s).ok == check_integrability(s).ok == False


class TestInfinitesimalAutomorphism:
    def test_closed_form_section(self, r3_structure):
        assert is_infinitesimal_automorphism(r3_structure, r3_structure.e_frame[0])

    def test_criterion_matches_direct_definition(self):
        chart = Chart(("x", "y", "z"))
        theta = PolyTwoForm(chart, {(0, 1): chart.coordinate("x")})  # d(x dx^dy) = 0
        s = graph_theta([PolyVectorField.coordinate(chart, "x"), PolyVectorField.coordinate(chart, "y")], theta)
        from bigiso.calculus import lie_bracket as lb, lie_derivative_oneform as ld

        for sec in s.e_frame:
            predicted = is_infinitesimal_automorphism(s, sec)
            direct = True
            for other in s.e_frame:
                moved = BigSection(lb(sec.vf, other.vf), ld(sec.vf, other.of))
                ok, _ = s.section_in_E(moved)
                direct = direct and ok
            assert predicted == direct


class TestTransform:
    def test_rotation_of_r3(self, r3_structure):
        # swap x and y coordinates
        T = Matrix([[0, 1, 0], [1, 0, 0], [0, 0, 1]]).scale(Fraction(1))
        moved = transform_structure(r3_structure, T, ("u", "v", "w"))
        d = moved.evaluate_at((0, 0, 0))
        assert d.E == Subspace(6, [(0, 1, 0, 0, 0, 0), (0, 0, 0, 0, 0, 1)])

    def test_transform_preserves_integrability(self, r5_structure):
        T = Matrix(
            [
                [1, 0, 0, -1, 0],
                [0, 1, 1, 0, 0],
                [0, 0, 1, 0, 0],
                [0, 0, 0, 1, 0],
                [0, 0, 0, 0, 1],
            ]
        ).scale(Fraction(1))
        moved = transform_structure(r5_structure, T, ("u1", "u2", "v1", "v2", "w"))
        assert check_integrability(moved).ok

    @pytest.mark.parametrize("name", ["example_r3", "example_r5"])
    def test_transform_matches_the_reference_chart_change(self, name):
        doc = parse_document(fixtures.fixture_text(name))
        s = BigIsotropicStructure.build(doc.chart, doc.e_sections, doc.e_prime_sections)
        rng = random.Random(18)
        new_chart = Chart(tuple(f"t{i}" for i in range(s.m)))
        for _ in range(4):
            T = random_invertible(rng, s.m)
            offset = [Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(s.m)]
            moved = transform_structure(s, T, new_chart.names, offset)
            for frame, moved_frame in ((s.e_frame, moved.e_frame), (s.e_prime_frame, moved.e_prime_frame)):
                assert moved_frame == tuple(transform_reference(sec, T, new_chart, offset) for sec in frame)

    def test_pull_back_along_the_inverse_map_is_the_reference_chart_change(self):
        # polynomial coefficients, so the composition with the map is exercised
        rng = random.Random(81)
        chart, new_chart = Chart(("x", "y", "z")), Chart(("u", "v", "w"))
        for _ in range(6):
            vf = [rand_poly_deg1(rng, chart) * rand_poly_deg1(rng, chart) for _ in range(6)]
            of = [rand_poly_deg1(rng, chart) for _ in range(6)]
            frame = [
                BigSection(PolyVectorField(chart, vf[:3]), PolyOneForm(chart, of[:3])),
                BigSection(PolyVectorField(chart, vf[3:]), PolyOneForm(chart, of[3:])),
            ]
            T = random_invertible(rng, 3)
            offset = [Fraction(rng.randint(-3, 3)) for _ in range(3)]
            T_inv = T.inverse()
            back = [-c for c in T_inv.apply(offset)]
            pulled = pull_back_sections(frame, new_chart, back, T_inv)
            assert pulled == [transform_reference(sec, T, new_chart, offset) for sec in frame]
