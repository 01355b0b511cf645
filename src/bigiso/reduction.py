"""Restriction to a submanifold, projectability along a foliation, and the
reduced structure on the local leaf space.

Submanifolds are affine-linear in the ambient chart and foliations are by
fibres of a coordinate projection, which matches the chart-adapted setting
of the canonical-frame machinery.  The restricted frames are the ambient
sections tangent to the submanifold, pulled back along its affine embedding
by ``structures.pull_back_sections`` (of which a chart change is the
invertible case).  The reduced structure is certified, not merely
constructed: the pointwise pullbacks of E that ``restrict`` takes over a
sample grid are the one certificate, and each fact is decided once.
"""

from __future__ import annotations

import itertools
from collections.abc import Sequence
from fractions import Fraction

from .calculus import (
    BigSection,
    Chart,
    PolyBivector,
    PolyOneForm,
    PolyTwoForm,
    PolyVectorField,
    flat,
    lie_bracket,
    lie_derivative_oneform,
    sharp,
)
from .grid import format_point
from .linalg import Matrix
from .pointwise import swap_halves
from .record import Record
from .scalars import Polynomial, as_fraction, eval_rows
from .structures import BigIsotropicStructure, Verdict, default_grid, pull_back_sections
from .transport import LinearMap, pull_equations, pull_rows


class ReductionError(ValueError):
    pass


class SubmanifoldData(Record):
    """An affine-linear embedded submanifold of the ambient chart."""

    ambient: Chart
    sub: Chart
    offset: tuple
    differential: LinearMap

    def __post_init__(self):
        if self.differential.m != self.ambient.dim or self.differential.n != self.sub.dim:
            raise ReductionError("differential shape does not match the charts")
        if not self.differential.is_injective():
            raise ReductionError("embedding differential must be injective")
        object.__setattr__(self, "offset", tuple(as_fraction(c) for c in self.offset))

    @classmethod
    def identity(cls, chart: Chart) -> "SubmanifoldData":
        return cls(chart, chart, (Fraction(0),) * chart.dim, LinearMap.identity(chart.dim))

    @classmethod
    def from_equations(cls, ambient: Chart, equations: Sequence[Polynomial]) -> "SubmanifoldData":
        """Solve affine equations p(x) = 0 for the submanifold they carve out.

        Coordinate-aligned solution spaces keep the surviving ambient
        coordinate names; otherwise parameter names u1..un are synthesized.
        """
        m = ambient.dim
        rows, rhs = [], []
        for p in equations:
            if p.total_degree() > 1:
                raise ReductionError(f"equation is not affine: {p}")
            row, const = [Fraction(0)] * m, Fraction(0)
            for exps, coeff in p.terms.items():
                if sum(exps) == 0:
                    const = coeff
                else:
                    row[exps.index(1)] = coeff
            rows.append(row)
            rhs.append(-const)
        if not rows:
            return cls.identity(ambient)
        system = Matrix(rows)
        offset = system.solve(rhs)
        if offset is None:
            raise ReductionError("equations are inconsistent")
        basis = system.kernel_rows()
        n = len(basis)
        if n == 0:
            raise ReductionError("submanifold is a single point")
        aligned_names = _aligned_names(ambient, basis)
        sub = Chart(aligned_names if aligned_names else tuple(f"u{i + 1}" for i in range(n)))
        differential = LinearMap.from_rows([[basis[j][i] for j in range(n)] for i in range(m)])
        return cls(ambient, sub, tuple(offset), differential)

    def embed_point(self, u) -> tuple:
        x = list(self.offset)
        push = self.differential.push(tuple(as_fraction(c) for c in u))
        return tuple(a + b for a, b in zip(x, push))


def _aligned_names(ambient: Chart, basis) -> tuple | None:
    names = []
    for vec in basis:
        hot = [i for i, c in enumerate(vec) if c != 0]
        if len(hot) != 1 or vec[hot[0]] != 1:
            return None
        names.append(ambient.names[hot[0]])
    return tuple(names)


class FoliationData(Record):
    """A foliation of a chart by fibres of a coordinate projection."""

    chart: Chart
    fibre: tuple

    def __post_init__(self):
        fibre = tuple(sorted(self.fibre))
        object.__setattr__(self, "fibre", fibre)
        if any(i < 0 or i >= self.chart.dim for i in fibre) or len(set(fibre)) != len(fibre):
            raise ReductionError("fibre indices must be distinct chart indices")

    @property
    def base(self) -> tuple:
        return tuple(i for i in range(self.chart.dim) if i not in self.fibre)

    def quotient_chart(self) -> Chart:
        return Chart(tuple(self.chart.names[i] for i in self.base))

    def projection(self) -> LinearMap:
        n = self.chart.dim
        return LinearMap(n, len(self.base), Matrix.identity(n).submatrix(self.base, range(n)))

    def fibre_fields(self) -> list:
        return [PolyVectorField.coordinate(self.chart, i) for i in self.fibre]


class RestrictedData(Record):
    """Pointwise pullbacks of E over a sample grid of the submanifold: at
    each point, the integer rows of ``pull_rows`` that span i*E."""

    submanifold: SubmanifoldData
    points: tuple
    pulled_E: tuple

    @property
    def rank(self) -> int:
        """The rank of the pulled rows, the same at every point (see
        ``restrict``).  It is not their count: where E meets 0 (+) ann TN
        the rows are dependent, and their count is the window dimension."""
        return Matrix(self.pulled_E[0], 2 * self.submanifold.sub.dim).rank() if self.pulled_E else 0


def restrict(s: BigIsotropicStructure, N: SubmanifoldData, grid=None) -> RestrictedData:
    """Pull E back to the submanifold at every grid point.

    The window dimensions (E against TN (+) ambient covectors, and the same
    for E') must stay constant across the grid: that is the properness
    certificate, and a jump reports the two offending points.  The
    structure's integer rows are walked once (``rows_at``, which refuses a
    rank drop).  At each point the equations of ``pull_equations`` on a
    bundle's partner rows with their halves swapped (g(v, w) = swap(w) . v / 2)
    give its window dimension, n + m minus their rank; for E one pull_rows
    kernel of them gives the pulled rows, whose count is that dimension.  The
    structure must be validated: then g(E, E') = 0 identically, so where the
    ranks are k and 2m - k, E' = orth E.  Constant windows w, w' keep the
    rank w - (k - n - m + w') constant: E n (0 (+) ann TN) is
    (E' + TN (+) T*M)^g.
    """
    if N.ambient != s.chart:
        raise ReductionError("submanifold lives in a different chart")
    if not s.validated:
        raise ReductionError("restriction needs a validated structure")
    pts = tuple(grid) if grid is not None else default_grid(N.sub.dim, cap=16)
    if not pts:
        raise ReductionError("empty grid: no point of the submanifold to restrict at")
    Mt = N.differential.matrix.transpose()
    pulled, windows = [], ({}, {})  # windows of E, then E'
    for u, (e_rows, ep_rows) in zip(pts, s.rows_at([N.embed_point(u) for u in pts])):
        pulled.append(tuple(pull_rows(Mt, swap_halves(ep_rows))))
        windows[0].setdefault(len(pulled[-1]), u)
        windows[1].setdefault(Mt.rows + Mt.cols - pull_equations(Mt, swap_halves(e_rows))[0].rank(), u)
    for dims, label in zip(windows, ("E", "E'")):
        if len(dims) > 1:
            (d1, u1), (d2, u2) = list(dims.items())[:2]
            raise ReductionError(
                f"properness fails for {label}: "
                f"window dimension {d1} at {format_point(u1)} but {d2} at {format_point(u2)}"
            )
    return RestrictedData(N, pts, tuple(pulled))


def span_mismatches(points, frame: Sequence[BigSection], expected) -> list:
    """The points at which the frame spans another subspace than the
    expected rows there: the check of a symbolic frame against pointwise
    pullbacks, on one eval_rows table of the frame over the points.  Row
    sets F and P span one subspace iff rank F = rank P = rank [F; P], as
    dim(F + P) = dim F + dim P - dim(F n P)."""
    rows_at = eval_rows([sec.as_poly_row() for sec in frame], points)
    same = (Matrix(f).rank() == Matrix(p).rank() == Matrix([*f, *p]).rank() for p, f in zip(expected, rows_at))
    return [u for u, ok in zip(points, same) if not ok]


def verify_restricted_frame(restricted: RestrictedData, frame: Sequence[BigSection]) -> Verdict:
    """A caller-supplied polynomial frame matches the pointwise pullbacks."""
    failures = tuple(
        (f"restricted frame span differs at {format_point(u)}", None)
        for u in span_mismatches(restricted.points, frame, restricted.pulled_E)
    )
    return Verdict("restricted frame verification", not failures, failures)


def check_reducibility(
    s: BigIsotropicStructure,
    N: SubmanifoldData,
    F: FoliationData,
    restricted: RestrictedData | None = None,
) -> Verdict:
    """Leaf tangents must lift into E with conormal covectors: for each fibre
    direction v, some (i v, a) in E has a in ann TN.

    The pullback at each grid point decides it alone: i*E = {(v, i^T a) :
    (i v, a) in E} and i^T a = 0 exactly when a annihilates TN, so the lift
    exists iff (v, 0) lies in i*E: rank [P; (v, 0)] = rank P for the pulled
    rows P, whose rank is the restriction's at every point.
    """
    if F.chart != N.sub:
        raise ReductionError("foliation must live on the submanifold chart")
    restricted = restricted if restricted is not None else restrict(s, N)
    rank = restricted.rank
    failures = [
        (f"fibre direction {N.sub.names[i]} not in the pullback at {format_point(u)}", None)
        for u, rows in zip(restricted.points, restricted.pulled_E)
        for i in F.fibre
        if Matrix([*rows, [int(j == i) for j in range(2 * N.sub.dim)]]).rank() != rank
    ]
    return Verdict("reducibility condition", not failures, tuple(failures))


def check_projectable(s: BigIsotropicStructure, F: FoliationData) -> Verdict:
    """Foliation tangents inside E, and fibre flows preserving the frame.

    Condition (a) is the membership of every fibre field; condition (b') is
    the membership of every fibre Lie derivative of every frame section.  For
    integrable structures (a) alone is equivalent, which tests assert.
    """
    if F.chart != s.chart:
        raise ReductionError("foliation must live on the structure chart")
    failures = []
    zero_of = PolyOneForm.zero(s.chart)
    for Y in F.fibre_fields():
        ok, witness = s.in_E(BigSection(Y, zero_of).as_poly_row())
        if not ok:
            failures.append(("condition a: fibre field not in E", witness))
    for Y in F.fibre_fields():
        for i, sec in enumerate(s.e_frame):
            moved = BigSection(lie_bracket(Y, sec.vf), lie_derivative_oneform(Y, sec.of))
            ok, witness = s.in_E(moved.as_poly_row())
            if not ok:
                failures.append((f"condition b': fibre flow moves frame section {i} out of E", witness))
    return Verdict("projectability", not failures, tuple(failures))


def _projectable_form(frame: Sequence[BigSection], F: FoliationData):
    """Rewrite a frame as fibre fields plus fibre-independent sections.

    Subtracting fibre fields clears the fibre-tangent components; the
    leftover sections must then have no fibre covector components and only
    base-coordinate coefficients, otherwise there is no verified projectable
    frame and the caller must supply one.
    """
    chart, zero = F.chart, F.chart.zero()
    trimmed = (
        BigSection(PolyVectorField(chart, [zero if i in F.fibre else c for i, c in enumerate(sec.vf.comps)]), sec.of)
        for sec in frame
    )
    survivors = [sec for sec in trimmed if not sec.is_zero()]
    base_only = {i: Fraction(0) for i in F.fibre}
    for sec in survivors:
        for comp in sec.vf.comps + sec.of.comps:
            if comp != comp.set_vars(base_only):
                raise ReductionError("no verified projectable frame: a coefficient depends on a fibre coordinate")
        for i in F.fibre:
            if not sec.of.comps[i].is_zero():
                raise ReductionError("no verified projectable frame: a covector keeps a fibre component")
    return survivors


def _push_section(sec: BigSection, F: FoliationData) -> BigSection:
    quotient = F.quotient_chart()
    v = [sec.vf.comps[i].recast(quotient.names) for i in F.base]
    w = [sec.of.comps[i].recast(quotient.names) for i in F.base]
    return BigSection(PolyVectorField(quotient, v), PolyOneForm(quotient, w))


class ReductionResult(Record):
    quotient: BigIsotropicStructure
    restricted: RestrictedData
    reducibility: Verdict
    projectability: Verdict
    poisson_condition: bool  # reduced structure meets TQ only in zero


def reduce_structure(
    s: BigIsotropicStructure,
    N: SubmanifoldData,
    F: FoliationData,
    restricted_frame: Sequence[BigSection] | None = None,
    restricted_prime_frame: Sequence[BigSection] | None = None,
    grid=None,
) -> ReductionResult:
    """Full pipeline: restrict, check reducibility/projectability, quotient.

    The restricted frames are taken from the caller when given, otherwise
    pulled back from the ambient frame sections tangent to N.  The E frame
    is checked against the pullbacks of ``restrict``; everything else the
    reduction asserts follows from that check and the validations ``build``
    runs on the same points:

    - E' frame.  ``build`` proves g(frame, prime) = 0 identically and rank
      2n - k at every point, so prime(u) = frame(u)^g = (i*E)^g = i*E'
      (pullback commutes with the g-orthogonal); only its section count is
      checked, for the message.
    - Quotient.  pi*E_q(u) = span(survivors(u)) + (ker pi (+) 0), as the
      survivors of ``_projectable_form`` have no fibre covector components
      and base-only coefficients; that is span(frame(u)) by projectability
      (a), and that is i*E(u) by the E check.  It pushes forward from the
      restriction too, as pi is onto: pi_* pi^* D = D for every D.
    - Poisson flag.  The quotient's E meets TQ only in 0 where the covector
      halves of its frame have rank k_q, read from one eval_rows table over
      the base grid that the quotient is validated on.
    """
    restricted = restrict(s, N, grid=grid)
    red_verdict = check_reducibility(s, N, F, restricted)
    if not red_verdict.ok:
        raise ReductionError(red_verdict.describe())

    def pull_back(sections):
        return pull_back_sections(sections, N.sub, N.offset, N.differential.matrix)

    frame = list(restricted_frame) if restricted_frame else pull_back(s.e_frame)
    frame_verdict = verify_restricted_frame(restricted, frame)
    rank = restricted.rank
    if not frame_verdict.ok or len(frame) != rank:
        raise ReductionError(
            "no verified projectable frame for the restriction; supply one "
            f"({len(frame)} candidate sections for rank {rank})"
        )
    prime = list(restricted_prime_frame) if restricted_prime_frame else pull_back(s.e_prime_frame)
    if len(prime) != 2 * N.sub.dim - rank:
        raise ReductionError("no verified frame for the restricted orthogonal bundle; supply one")

    on_n = BigIsotropicStructure.build(N.sub, frame, prime, grid=restricted.points)
    proj_verdict = check_projectable(on_n, F)
    if not proj_verdict.ok:
        raise ReductionError(proj_verdict.describe())

    reduced_frame = [_push_section(sec, F) for sec in _projectable_form(frame, F)]
    reduced_prime = [_push_section(sec, F) for sec in _projectable_form(prime, F)]
    quotient_chart = F.quotient_chart()
    base_grid = sorted({tuple(u[i] for i in F.base) for u in restricted.points})
    quotient = BigIsotropicStructure.build(quotient_chart, reduced_frame, reduced_prime, grid=base_grid)
    covectors = eval_rows([sec.of.comps for sec in reduced_frame], base_grid)
    poisson = all(Matrix(rows, quotient.m).rank() == quotient.k for rows in covectors)
    return ReductionResult(quotient, restricted, red_verdict, proj_verdict, poisson)


# --------------------------------------------------------------------------
# foliated almost-Dirac constructors
# --------------------------------------------------------------------------

def dirac_along_foliation_P(F: FoliationData, P: PolyBivector, grid=None) -> BigIsotropicStructure:
    """Fibre tangents plus the bivector graph over the conormal covectors."""
    chart = F.chart
    zero_of = PolyOneForm.zero(chart)
    frame = [BigSection(Y, zero_of) for Y in F.fibre_fields()]
    for u in F.base:
        du = PolyOneForm.coordinate(chart, u)
        frame.append(BigSection(sharp(P, du), du))
    return BigIsotropicStructure.build(chart, frame, frame, grid=grid)


def bivector_is_projectable(F: FoliationData, P: PolyBivector) -> bool:
    """Transverse components must not vary along the fibres."""
    for u, v in itertools.combinations(F.base, 2):
        comp = P.component(u, v)
        for a in F.fibre:
            if not comp.derivative(a).is_zero():
                return False
    return True


def dirac_along_foliation_omega(
    F: FoliationData,
    omega: PolyTwoForm,
    normal_twist=None,
    grid=None,
) -> BigIsotropicStructure:
    """Fibre tangents plus the graph of a 2-form on a chosen normal bundle.

    ``normal_twist[(u, a)]`` tilts the normal field of base index u by the
    fibre direction a; the span is independent of the tilt when the form is
    foliated, which tests check by comparing two choices pointwise.
    """
    chart = F.chart
    zero_of = PolyOneForm.zero(chart)
    twist = normal_twist or {}
    frame = [BigSection(Y, zero_of) for Y in F.fibre_fields()]
    for u in F.base:
        Y = PolyVectorField.coordinate(chart, u)
        for a in F.fibre:
            t = twist.get((u, a))
            if t is not None:
                Y = Y + PolyVectorField.coordinate(chart, a).scale(t)
        frame.append(BigSection(Y, flat(omega, Y)))
    return BigIsotropicStructure.build(chart, frame, frame, grid=grid)


def twoform_is_foliated(F: FoliationData, omega: PolyTwoForm) -> bool:
    """Only base-base components, with base-only coefficients."""
    fibre_set = set(F.fibre)
    for (i, j), comp in omega.table.items():
        if i in fibre_set or j in fibre_set:
            if not comp.is_zero():
                return False
        for a in F.fibre:
            if not comp.derivative(a).is_zero():
                return False
    return True
