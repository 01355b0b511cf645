"""Every bigiso record against a ``dataclasses`` twin of its declaration.

The records share the generic methods of ``bigiso.record`` where they were
once dataclasses.  Each twin below is the dataclass declaration the record
replaced, borrowing the record's own ``__post_init__``; on seeded instances
the two must agree on construction (positional, keyword, defaults, errors),
the field values ``__post_init__`` leaves, equality, hashing, ``repr`` and
assignment.
"""

import dataclasses as dc
import random
from fractions import Fraction
from functools import lru_cache
from itertools import product

import pytest

from bigiso.calculus import BigSection, Chart, PolyOneForm, PolyVectorField, _Components
from bigiso.canonical import AdaptedChart, CanonicalFrame, FrameValues, normalize_frame
from bigiso.cli import _Run
from bigiso.fixtures import fixture_text, list_fixtures
from bigiso.grid import default_grid
from bigiso.linalg import Matrix, Subspace
from bigiso.membership import SpanWitness
from bigiso.parser import HamiltonianPair, StructureDocument, parse_document
from bigiso.pointwise import BigVector, CharacteristicTriple, IsotropicData, characteristic_triple, random_isotropic
from bigiso.reduction import (
    FoliationData,
    ReductionResult,
    RestrictedData,
    SubmanifoldData,
    reduce_structure,
    restrict,
)
from bigiso.report import CheckRecord, Report
from bigiso.scalars import Polynomial
from bigiso.structures import BigIsotropicStructure, TruncatedFormValue, Verdict
from bigiso.transport import LinearMap

# ---------------------------------------------------------------------------
# the twins: the dataclass declarations of the records
# ---------------------------------------------------------------------------


@dc.dataclass(frozen=True)
class ChartTwin:
    names: tuple
    __post_init__ = Chart.__post_init__


@dc.dataclass(frozen=True)
class ComponentsTwin:
    chart: Chart
    comps: tuple
    symbol = ""
    __post_init__ = _Components.__post_init__


@dc.dataclass(frozen=True)
class BigSectionTwin:
    vf: PolyVectorField
    of: PolyOneForm
    __post_init__ = BigSection.__post_init__


@dc.dataclass(frozen=True)
class AdaptedChartTwin:
    chart: Chart
    leaf: tuple
    middle: tuple
    transverse: tuple
    __post_init__ = AdaptedChart.__post_init__


@dc.dataclass(frozen=True)
class FrameValuesTwin:
    m: int
    x: tuple
    xi: tuple
    y: tuple
    theta: tuple
    alpha_prime: tuple


@dc.dataclass(frozen=True, eq=False)
class CanonicalFrameTwin:
    structure: BigIsotropicStructure
    adapted: AdaptedChart
    A_prime: tuple
    A_dprime: tuple
    alpha: tuple
    alpha_prime: tuple
    B_prime: tuple
    B_dprime: tuple
    beta: tuple
    beta_prime: tuple
    C_dprime: tuple
    gamma: tuple
    L_dprime: tuple
    lam: tuple
    x_rows: tuple
    xi_rows: tuple
    y_rows: tuple
    theta_rows: tuple
    eprime_only_rows: tuple
    det_e: Polynomial
    det_eprime: Polynomial
    leaf_conditions_ok: bool = True


@dc.dataclass
class RunTwin:
    doc: StructureDocument
    report: Report
    grid: tuple | None
    structure: BigIsotropicStructure
    frame: CanonicalFrame | None = None


@dc.dataclass(frozen=True)
class SpanWitnessTwin:
    minor: Polynomial
    columns: tuple


@dc.dataclass
class HamiltonianPairTwin:
    name: str
    f: Polynomial
    field_comps: tuple


@dc.dataclass
class StructureDocumentTwin:
    chart: Chart
    e_sections: tuple
    e_prime_sections: tuple
    adapted_split: tuple | None = None
    foliation_names: tuple | None = None
    submanifold_equations: tuple | None = None
    grid_range: tuple | None = None
    hamiltonian_pairs: tuple = ()
    restricted_e_lines: tuple = ()
    restricted_e_prime_lines: tuple = ()


@dc.dataclass(frozen=True)
class BigVectorTwin:
    m: int
    tangent: tuple
    cotangent: tuple
    __post_init__ = BigVector.__post_init__


@dc.dataclass(frozen=True)
class IsotropicDataTwin:
    m: int
    E: Subspace
    E_prime: Subspace
    __post_init__ = IsotropicData.__post_init__


@dc.dataclass(frozen=True)
class CharacteristicTripleTwin:
    m: int
    cal_E: Subspace
    cal_E_prime: Subspace
    varpi: Matrix
    __post_init__ = CharacteristicTriple.__post_init__


@dc.dataclass(frozen=True)
class SubmanifoldDataTwin:
    ambient: Chart
    sub: Chart
    offset: tuple
    differential: LinearMap
    __post_init__ = SubmanifoldData.__post_init__


@dc.dataclass(frozen=True)
class FoliationDataTwin:
    chart: Chart
    fibre: tuple
    __post_init__ = FoliationData.__post_init__


@dc.dataclass(frozen=True)
class RestrictedDataTwin:
    submanifold: SubmanifoldData
    points: tuple
    pulled_E: tuple


@dc.dataclass(frozen=True)
class ReductionResultTwin:
    quotient: BigIsotropicStructure
    restricted: RestrictedData
    reducibility: Verdict
    projectability: Verdict
    poisson_condition: bool


@dc.dataclass
class CheckRecordTwin:
    name: str
    verdict: str
    certificate: dict | None = None
    timing_ms: float | None = None


@dc.dataclass
class ReportTwin:
    command: str
    document: str
    seed: int
    checks: list = dc.field(default_factory=list)
    errors: list = dc.field(default_factory=list)
    with_timings: bool = False


@dc.dataclass(frozen=True)
class VerdictTwin:
    name: str
    ok: bool
    failures: tuple = ()
    note: str = ""


@dc.dataclass(frozen=True)
class TruncatedFormValueTwin:
    arguments: tuple
    value: Polynomial


@dc.dataclass(frozen=True)
class BigIsotropicStructureTwin:
    chart: Chart
    e_frame: tuple
    e_prime_frame: tuple
    # a flag that validate() sets, neither compared nor printed
    validated: bool = dc.field(default=False, init=False, compare=False, repr=False)


@dc.dataclass(frozen=True)
class LinearMapTwin:
    n: int
    m: int
    matrix: Matrix
    __post_init__ = LinearMap.__post_init__


# ---------------------------------------------------------------------------
# seeded arguments for each record
# ---------------------------------------------------------------------------


def init_names(twin) -> tuple:
    return tuple(f.name for f in dc.fields(twin) if f.init)


def args_of(instance, twin) -> tuple:
    """The constructor arguments that rebuild instance, read by the twin's fields."""
    return tuple(getattr(instance, name) for name in init_names(twin))


@lru_cache(maxsize=None)
def document(name):
    return parse_document(fixture_text(name))


@lru_cache(maxsize=None)
def structure(name):
    doc = document(name)
    return BigIsotropicStructure.build(doc.chart, doc.e_sections, doc.e_prime_sections)


@lru_cache(maxsize=None)
def canonical_frame(name):
    doc = document(name)
    leaf, middle, transverse = ([doc.chart.names.index(n) for n in part] for part in doc.adapted_split)
    return normalize_frame(structure(name), AdaptedChart(doc.chart, leaf, middle, transverse))


@lru_cache(maxsize=None)
def reduction(name):
    doc = document(name)
    N = SubmanifoldData.from_equations(doc.chart, list(doc.submanifold_equations))
    F = FoliationData(N.sub, tuple(N.sub.index(n) for n in doc.foliation_names))
    return reduce_structure(structure(name), N, F)


ADAPTED = ("example_r3", "example_r5", "example_r5_tilde")
REDUCED = ("example_reduction", "example_foliated_hamiltonian", "example_foliated_presymplectic")


def rational(rng):
    return Fraction(rng.randint(-4, 4), rng.randint(1, 3))


def chart_of(rng, dim):
    return Chart(tuple(rng.sample("stuvwxyz", dim)))


def polynomial(rng, chart):
    return sum((chart.coordinate(i) * rational(rng) for i in range(chart.dim)), chart.constant(rng.randint(-2, 2)))


def components(rng, chart):
    # ints are cast to constants by __post_init__; the list becomes a tuple
    return [polynomial(rng, chart) if rng.random() < 0.5 else rng.randint(-2, 2) for _ in range(chart.dim)]


def draw_components(rng):
    chart = chart_of(rng, rng.randint(1, 3))
    return chart, components(rng, chart)


def draw_big_section(rng):
    chart = chart_of(rng, rng.randint(1, 3))
    return PolyVectorField(chart, components(rng, chart)), PolyOneForm(chart, components(rng, chart))


def draw_adapted(rng):
    chart = chart_of(rng, rng.randint(1, 5))
    idx = list(range(chart.dim))
    rng.shuffle(idx)
    a, b = sorted(rng.randint(0, chart.dim) for _ in range(2))
    return chart, idx[:a], idx[a:b], idx[b:]


def draw_frame_values(rng):
    m = rng.randint(1, 3)
    rows = (tuple(tuple(rational(rng) for _ in range(2 * m)) for _ in range(rng.randint(0, 2))) for _ in range(5))
    return (m, *rows)


def draw_run(rng):
    name = rng.choice(ADAPTED)
    grid = rng.choice([None, ((0, 0, 0),)])
    frame = (canonical_frame(name),) if rng.random() < 0.5 else ()
    return (document(name), Report("report-all", name, rng.randint(0, 9)), grid, structure(name)) + frame


def draw_span_witness(rng):
    return polynomial(rng, chart_of(rng, 2)), tuple(sorted(rng.sample(range(6), rng.randint(1, 3))))


def draw_big_vector(rng):
    m = rng.randint(1, 4)
    return m, [rational(rng) for _ in range(m)], [rng.randint(-3, 3) for _ in range(m)]


def draw_submanifold(rng):
    N = reduction(rng.choice(REDUCED)).restricted.submanifold
    return N.ambient, N.sub, [int(c) if c.denominator == 1 else c for c in N.offset], N.differential


def draw_restricted(rng):
    name = rng.choice(REDUCED)
    N = reduction(name).restricted.submanifold
    grid = default_grid(N.sub.dim, cap=rng.randint(1, 8))
    return args_of(restrict(structure(name), N, grid=grid), RestrictedDataTwin)


def draw_foliation(rng):
    chart = chart_of(rng, rng.randint(1, 4))
    return chart, rng.sample(range(chart.dim), rng.randint(0, chart.dim))  # __post_init__ sorts


def draw_check_record(rng):
    args = (rng.choice(["integrability", "reducibility"]), rng.choice(["pass", "fail", "error"]))
    return args + ({"minor": str(rng.randint(0, 9))}, rng.random())[: rng.randint(0, 2)]


def draw_report(rng):
    args = (rng.choice(["validate", "report-all"]), rng.choice(["", "fixture:x"]), rng.randint(0, 3))
    return args + ([CheckRecord("c", "pass")], ["error"], rng.random() < 0.5)[: rng.choice([0, 3])]


def draw_verdict(rng):
    args = (rng.choice(["integrability", "module property"]), rng.random() < 0.5)
    return args + ((("failure", None),) * rng.randint(0, 2), rng.choice(["", "note"]))[: rng.randint(0, 2)]


def draw_linear_map(rng):
    n, m = rng.randint(1, 3), rng.randint(1, 3)
    return n, m, Matrix([[rational(rng) for _ in range(n)] for _ in range(m)])


CASES = [
    (Chart, ChartTwin, lambda rng: (list(rng.sample("stuvwxyz", rng.randint(0, 4))),)),
    (_Components, ComponentsTwin, draw_components),
    (BigSection, BigSectionTwin, draw_big_section),
    (AdaptedChart, AdaptedChartTwin, draw_adapted),
    (FrameValues, FrameValuesTwin, draw_frame_values),
    (CanonicalFrame, CanonicalFrameTwin, lambda rng: args_of(canonical_frame(rng.choice(ADAPTED)), CanonicalFrameTwin)),
    (_Run, RunTwin, draw_run),
    (SpanWitness, SpanWitnessTwin, draw_span_witness),
    (HamiltonianPair, HamiltonianPairTwin,
     lambda rng: args_of(rng.choice(document("example_symplectic").hamiltonian_pairs), HamiltonianPairTwin)),
    (StructureDocument, StructureDocumentTwin,
     lambda rng: args_of(document(rng.choice(list_fixtures())), StructureDocumentTwin)),
    (BigVector, BigVectorTwin, draw_big_vector),
    (IsotropicData, IsotropicDataTwin,
     lambda rng: args_of(random_isotropic(rng, rng.randint(1, 3)), IsotropicDataTwin)),
    (CharacteristicTriple, CharacteristicTripleTwin,
     lambda rng: args_of(characteristic_triple(random_isotropic(rng, rng.randint(1, 3))), CharacteristicTripleTwin)),
    (SubmanifoldData, SubmanifoldDataTwin, draw_submanifold),
    (FoliationData, FoliationDataTwin, draw_foliation),
    (RestrictedData, RestrictedDataTwin, draw_restricted),
    (ReductionResult, ReductionResultTwin, lambda rng: args_of(reduction(rng.choice(REDUCED)), ReductionResultTwin)),
    (CheckRecord, CheckRecordTwin, draw_check_record),
    (Report, ReportTwin, draw_report),
    (Verdict, VerdictTwin, draw_verdict),
    (TruncatedFormValue, TruncatedFormValueTwin,
     lambda rng: (("E", "E", rng.choice(["E", "E_prime"])), polynomial(rng, chart_of(rng, 2)))),
    (BigIsotropicStructure, BigIsotropicStructureTwin,
     lambda rng: args_of(structure(rng.choice(list_fixtures())), BigIsotropicStructureTwin)),
    (LinearMap, LinearMapTwin, draw_linear_map),
]


# ---------------------------------------------------------------------------
# the parity checks
# ---------------------------------------------------------------------------


def same_repr(record, twin_instance) -> str:
    """The twin's repr under the record's class name."""
    twin_repr = repr(twin_instance)
    return type(record).__qualname__ + twin_repr[len(type(twin_instance).__qualname__) :]


def drawn(draw, seed, count=4) -> list:
    rng = random.Random(seed)
    return [draw(rng) for _ in range(count)]


@pytest.mark.parametrize("real, twin, draw", CASES, ids=[real.__name__ for real, _, _ in CASES])
class TestRecordAgainstItsDataclassTwin:
    def test_fields_are_the_annotations_in_order(self, real, twin, draw):
        assert real._fields == init_names(twin)

    def test_construction_and_post_init(self, real, twin, draw):
        names = init_names(twin)
        for args in drawn(draw, 71):
            record, expected = real(*args), twin(*args)
            assert args_of(record, twin) == args_of(expected, twin)
            assert repr(record) == same_repr(record, expected)
            by_keyword = real(**dict(zip(names, args)))
            assert args_of(by_keyword, twin) == args_of(expected, twin)
            split = len(args) // 2
            mixed = real(*args[:split], **dict(zip(names[split:], args[split:])))
            assert args_of(mixed, twin) == args_of(expected, twin)

    def test_defaults(self, real, twin, draw):
        required = sum(f.default is dc.MISSING and f.default_factory is dc.MISSING for f in dc.fields(twin) if f.init)
        for args in drawn(draw, 72):
            record, expected = real(*args[:required]), twin(*args[:required])
            assert args_of(record, twin) == args_of(expected, twin)
            assert repr(record) == same_repr(record, expected)

    def test_bad_arguments_are_type_errors(self, real, twin, draw):
        names = init_names(twin)
        (args,) = drawn(draw, 73, 1)
        for call in (
            lambda cls: cls(*args, *args[:1], *([None] * (len(names) - len(args)))),  # one too many
            lambda cls: cls(*args, no_such_field=1),
            lambda cls: cls(*args[:1], **{names[0]: args[0]}),  # given twice
            lambda cls: cls(),
        ):
            with pytest.raises(TypeError):
                call(twin)
            with pytest.raises(TypeError):
                call(real)

    def test_equality_and_hash(self, real, twin, draw):
        pairs = drawn(draw, 74)
        for a, b in product(pairs, repeat=2):
            assert (real(*a) == real(*b)) == (twin(*a) == twin(*b))
            assert (real(*a) != real(*b)) == (twin(*a) != twin(*b))
        for args in pairs:
            record, expected = real(*args), twin(*args)
            assert record == record and (record != record) is False
            assert record != expected and expected != record  # another class is never equal
            if twin.__hash__ is None:
                with pytest.raises(TypeError):
                    hash(record)
            else:
                assert hash(record) == hash(record)
                if twin(*args) == expected:
                    assert real(*args) == record and hash(real(*args)) == hash(record)
                else:  # identity
                    assert real(*args) != record and hash(record) == object.__hash__(record)

    def test_assignment(self, real, twin, draw):
        frozen = twin.__dataclass_params__.frozen
        for args in drawn(draw, 75, 2):
            record, expected = real(*args), twin(*args)
            for name, value in zip(init_names(twin), args):
                if frozen:
                    for target in (record, expected):
                        with pytest.raises(AttributeError):
                            setattr(target, name, value)
                        with pytest.raises(AttributeError):
                            delattr(target, name)
                else:
                    setattr(record, name, value)
                    setattr(expected, name, value)
                    assert getattr(record, name) is value is getattr(expected, name)


class TestRecordSpecifics:
    def test_mutable_records_are_unhashable(self):
        mutable = {real for real, twin, _ in CASES if not twin.__dataclass_params__.frozen}
        assert mutable == {Report, CheckRecord, _Run, StructureDocument, HamiltonianPair}
        with pytest.raises(TypeError):
            {Report("validate", "", 0)}

    def test_canonical_frame_compares_by_identity(self):
        cf = canonical_frame("example_r3")
        rebuilt = CanonicalFrame(*args_of(cf, CanonicalFrameTwin))
        assert cf == cf and cf != rebuilt and rebuilt == rebuilt
        assert len({cf, rebuilt, cf}) == 2

    def test_a_vector_field_never_equals_a_one_form(self):
        chart = Chart(("x", "y"))
        comps = (chart.coordinate(0), 1)
        vf, of = PolyVectorField(chart, comps), PolyOneForm(chart, comps)
        assert vf.comps == of.comps and vf != of and of != vf
        assert vf == PolyVectorField(chart, comps) and hash(vf) == hash(PolyVectorField(chart, comps))
        assert len({vf, of}) == 2

    def test_reports_share_no_list(self):
        a, b = Report("validate", "", 0), Report("validate", "", 0)
        a.add("check", True)
        a.add_error("boom")
        assert a.checks is not b.checks and a.errors is not b.errors
        assert b.checks == [] and b.errors == [] and a != b

    def test_validated_is_not_a_field(self):
        s = structure("example_r3")
        fresh = BigIsotropicStructure(s.chart, s.e_frame, s.e_prime_frame)
        assert s.validated and not fresh.validated and s == fresh and hash(s) == hash(fresh)
        assert "validated" not in BigIsotropicStructure._fields and "validated" not in repr(s)
        fresh.validate()
        assert fresh.validated and BigIsotropicStructure.validated is False

    def test_post_init_is_looked_up_at_call_time(self, monkeypatch):
        # the benchmark tracer wraps IsotropicData.__post_init__ on the class
        calls = []
        original = IsotropicData.__post_init__
        monkeypatch.setattr(IsotropicData, "__post_init__", lambda self: calls.append(original(self)))
        data = random_isotropic(random.Random(76), 2)
        IsotropicData(data.m, data.E, data.E_prime)
        assert len(calls) >= 2

    def test_post_init_errors_are_kept(self):
        with pytest.raises(ValueError, match="distinct"):
            Chart(("x", "x"))
        with pytest.raises(ValueError, match="partition"):
            AdaptedChart(Chart(("x", "y")), (0,), (), ())
