"""Big-isotropic structures given by polynomial frames, with exact checks.

A structure is a chart together with a rank-k frame spanning E and a rank
(2m-k) frame spanning its g-orthogonal E'.  Integrability (closure of the
E-frame under Courant brackets), the module property of E', the specialized
integrability criteria of the graph constructors, the partial Hamiltonian
formalism, and the enlargement/co-anchor axioms are all decided by zero or
constancy tests of polynomials, with certificates built only for failures.
Pointwise, a structure is read through one walk of its frames' integer rows
over a list of points, ``rows_at``, which validation, ``evaluate_at`` and
the restriction to a submanifold share.
Integrability, the module property and enlargement axiom 3 read one table
per structure, ``frame_brackets``: each frame bracket with its verdict in E.

``pull_back_sections`` pulls frame sections back along an affine map
u -> offset + J u, keeping those tangent to its image; restriction to an
affine submanifold uses it, and the chart change of ``transform_structure``
is its invertible case.
"""

from __future__ import annotations

import itertools
from collections.abc import Sequence
from fractions import Fraction
from functools import cached_property

from .calculus import (
    BigSection,
    Chart,
    PolyBivector,
    PolyOneForm,
    PolyTwoForm,
    PolyVectorField,
    courant_bracket,
    d_function,
    d_oneform,
    d_twoform,
    flat,
    interior_wedge_threeform,
    lie_bracket,
    lift_section,
    p_bracket_oneforms,
    pairing_sections,
    partials,
    schouten_squared,
    sharp,
    trivector_contract_two,
)
from .grid import default_grid, format_point
from .linalg import Matrix, Subspace, echelon
from .membership import in_span, span_test  # noqa: F401  (bench/tracing.py wraps in_span here)
from .pointwise import IsotropicData, _pairing_row
from .record import Record
from .scalars import Polynomial, as_fraction, eval_rows


class StructureError(ValueError):
    pass


class Verdict(Record):
    """Outcome of an exact check; each failure is a (message, detail) pair."""

    name: str
    ok: bool
    failures: tuple = ()
    note: str = ""

    def __bool__(self):
        return self.ok

    def describe(self) -> str:
        if self.ok:
            return f"{self.name}: pass" + (f" ({self.note})" if self.note else "")
        lines = [f"{self.name}: FAIL"]
        lines += [f"  - {msg}" + ("" if detail is None else f": {detail}") for msg, detail in self.failures]
        return "\n".join(lines)


class TruncatedFormValue(Record):
    """Value of a truncated form evaluated on named section arguments."""

    arguments: tuple
    value: Polynomial

    def is_zero(self) -> bool:
        return self.value.is_zero()


class BigIsotropicStructure(Record):
    chart: Chart
    e_frame: tuple
    e_prime_frame: tuple
    validated = False  # not a field: validate() sets it on the instance

    @property
    def m(self) -> int:
        return self.chart.dim

    @property
    def k(self) -> int:
        return len(self.e_frame)

    @classmethod
    def build(
        cls,
        chart: Chart,
        e_frame: Sequence[BigSection],
        e_prime_frame: Sequence[BigSection],
        grid=None,
        validate: bool = True,
    ) -> "BigIsotropicStructure":
        s = cls(chart, tuple(e_frame), tuple(e_prime_frame))
        if validate:
            s.validate(grid)
        return s

    def validate(self, grid=None):
        """Check that the frames define a big-isotropic structure.

        The pairings g(E, E) and g(E, E') must vanish identically, and at
        every point of the grid (default_grid(m) when None; an empty grid
        certifies nothing and is refused) the frames must have ranks k and
        2m - k; the ranks are taken on integer rows, one point at a time,
        so the first degenerate point stops the walk.  Raises
        StructureError on the first failure; on success sets `validated`.
        """
        m, k = self.m, self.k
        if len(self.e_prime_frame) != 2 * m - k:
            raise StructureError(
                f"orthogonal frame must have {2 * m - k} sections, got {len(self.e_prime_frame)}"
            )
        for sec in self.e_frame + self.e_prime_frame:
            if sec.chart != self.chart:
                raise StructureError("section over the wrong chart")
        # symbolic isotropy and orthogonality
        for i, a in enumerate(self.e_frame):
            for b in self.e_frame[i:]:
                if not pairing_sections(a, b).is_zero():
                    raise StructureError(f"frame is not isotropic: g = {pairing_sections(a, b)}")
            for b in self.e_prime_frame:
                if not pairing_sections(a, b).is_zero():
                    raise StructureError(
                        f"E frame not orthogonal to E' frame: g = {pairing_sections(a, b)}"
                    )
        # Pointwise only the ranks are left.  g is nondegenerate, so where
        # E(x) has rank k its g-orthogonal has dimension 2m - k; it contains
        # E'(x) by the pairings above, so rank E'(x) = 2m - k makes E'(x)
        # that orthogonal, and the isotropic E(x) lies in it.
        points = tuple(grid) if grid is not None else default_grid(m)
        if not points:
            raise StructureError("empty grid: no point certifies the frame ranks")
        for _ in self.rows_at(points):
            pass
        object.__setattr__(self, "validated", True)

    def rows_at(self, points):
        """(E rows, E' rows) at each chart point, lazily; errors on rank drops.

        Both frames are evaluated over all the points by one eval_rows
        table, E's k rows first, and each row is the section's value times a
        positive integer, so the rows are integers with the ranks and spans
        of the values; ``echelon`` ranks them as they are."""
        m, k = self.m, self.k
        for point, rows in zip(points, eval_rows(self.frame_rows() + self.prime_frame_rows(), points)):
            e_rows, ep_rows = rows[:k], rows[k:]
            e_rank, ep_rank = len(echelon(e_rows)[1]), len(echelon(ep_rows)[1])
            if e_rank != k or ep_rank != 2 * m - k:
                raise StructureError(
                    f"degenerate point {format_point(point)}: frame ranks {e_rank}/{ep_rank}, expected {k}/{2 * m - k}"
                )
            yield e_rows, ep_rows

    def evaluate_at(self, point) -> IsotropicData:
        """Evaluate both frames at a chart point; errors on rank drops.

        With ranks k and 2m - k, E'(x) has the dimension of the g-orthogonal
        of E(x) (g is nondegenerate), so it is that orthogonal exactly when
        every E row pairs to zero with every E' row."""
        point = tuple(as_fraction(c) for c in point)
        ((e_rows, ep_rows),) = self.rows_at([point])
        if any(_pairing_row(e, ep) for e in e_rows for ep in ep_rows):
            raise StructureError(f"E' frame does not span the g-orthogonal of E at {format_point(point)}")
        return IsotropicData(self.m, Subspace(2 * self.m, e_rows), Subspace(2 * self.m, ep_rows))

    def frame_rows(self) -> list:
        return [sec.as_poly_row() for sec in self.e_frame]

    def prime_frame_rows(self) -> list:
        return [sec.as_poly_row() for sec in self.e_prime_frame]

    @cached_property
    def in_E(self):
        """The membership test of the E frame, built once per structure."""
        return span_test(self.frame_rows())

    @cached_property
    def in_E_prime(self):
        """The membership test of the E' frame, built once per structure."""
        return span_test(self.prime_frame_rows())

    @cached_property
    def frame_partials(self) -> list:
        """The partials of each E frame section, taken once per structure."""
        return [partials(sec.as_poly_row()) for sec in self.e_frame]

    @cached_property
    def frame_brackets(self) -> dict:
        """{(i, j): ([e_i, e_j], witness)}, i < j: the E frame's Courant brackets,
        from frame_partials, and in_E's witness (None if in E)."""
        d = self.frame_partials
        e, pairs = self.e_frame, itertools.combinations(range(self.k), 2)
        brackets = {(i, j): courant_bracket(e[i], e[j], d[i], d[j]) for i, j in pairs}
        return {ij: (br, self.in_E(br.as_poly_row())[1]) for ij, br in brackets.items()}

    def section_in_E(self, sec: BigSection):
        return self.in_E(sec.as_poly_row())

    def section_in_E_prime(self, sec: BigSection):
        return self.in_E_prime(sec.as_poly_row())


def structure_from_components(chart: Chart, e_rows, ep_rows, grid=None, validate=True):
    """Frames given as raw 2m-tuples of polynomials/constants."""

    def mk(row):
        m = chart.dim
        return BigSection(PolyVectorField(chart, row[:m]), PolyOneForm(chart, row[m:]))

    return BigIsotropicStructure.build(
        chart, [mk(r) for r in e_rows], [mk(r) for r in ep_rows], grid=grid, validate=validate
    )


# --------------------------------------------------------------------------
# integrability
# --------------------------------------------------------------------------

def check_integrability(s: BigIsotropicStructure) -> Verdict:
    """Closure of the E frame under Courant brackets, by minor certificates.

    The bracket of every frame pair must lie in the pointwise span of the
    frame wherever the frame has rank k, which the structure's grid
    validation probed; a failure carries a nonzero (k+1)-minor of the frame
    stacked on the bracket, read from the structure's ``frame_brackets``.
    """
    failures = []
    for (i, j), (_, witness) in s.frame_brackets.items():
        if witness is not None:
            failures.append((f"bracket of frame sections {i},{j} leaves E", witness))
    return Verdict("integrability", not failures, tuple(failures), note="rank certified on sampled locus")


def check_module_property(s: BigIsotropicStructure) -> Verdict:
    """Brackets of E sections with E' sections must stay in E'.

    For sections a = (X, alpha), c of E and b of E', Courant's identity
    X g(b, c) = g([a,b] + d g(a,b), c) + g(b, [a,c] + d g(a,c))
    (Courant 1990; Liu-Weinstein-Xu 1997) gives g([a,b], c) = -g(b, [a,c])
    once g(E, E) = g(E, E') = 0 identically.  On a validated structure
    E' = orth(E) and E = orth(E') wherever the ranks are k and 2m - k, a
    dense open set, so every [e_i, e'_j] lies in E' iff every [e_i, e_l]
    lies in E: the module property holds iff E is integrable (the paper's
    "if E is integrable, Gamma E' is a module over Gamma E", and its
    converse).
    A validated structure whose ``frame_brackets`` carry no witness
    therefore passes without a mixed bracket or a membership test.  Otherwise,
    and on validate=False structures, every [e_i, e'_j] is formed and
    tested against E', so a failure carries its minor certificates; each
    E' section's partials are taken once, and the E sections' are frame_partials.
    """
    if s.validated and all(witness is None for _, witness in s.frame_brackets.values()):
        return Verdict("module property", True)
    d = s.frame_partials
    d_prime = [partials(sec.as_poly_row()) for sec in s.e_prime_frame]
    failures = []
    for i in range(s.k):
        for j in range(len(s.e_prime_frame)):
            br = courant_bracket(s.e_frame[i], s.e_prime_frame[j], d[i], d_prime[j])
            ok, witness = s.in_E_prime(br.as_poly_row())
            if not ok:
                failures.append((f"bracket of E section {i} with E' section {j} leaves E'", witness))
    return Verdict("module property", not failures, tuple(failures))


def is_infinitesimal_automorphism(s: BigIsotropicStructure, sec: BigSection) -> bool:
    """A section (X, a) of E moves E into itself iff da kills pr(E) x pr(E')."""
    ok, _ = s.section_in_E(sec)
    if not ok:
        raise StructureError("section does not lie in E")
    da = d_oneform(sec.of)
    for a in s.e_frame:
        for b in s.e_prime_frame:
            if not da(a.vf, b.vf).is_zero():
                return False
    return True


# --------------------------------------------------------------------------
# constructors
# --------------------------------------------------------------------------

def _constant_annihilator(cls, chart: Chart, rows) -> list:
    """Constant sections of kind cls annihilated by all given constant rows of the other kind."""
    const_rows = []
    for row in rows:
        if any(not c.is_constant() for c in row):
            raise StructureError(
                "annihilator frame must be supplied for non-constant coefficient frames"
            )
        const_rows.append([c.constant_value() for c in row])
    if not const_rows:
        return [cls.coordinate(chart, i) for i in range(chart.dim)]
    ker = Matrix(const_rows).kernel_rows()
    return [cls(chart, [chart.constant(c) for c in v]) for v in ker]


def graph_theta(
    s_frame: Sequence[PolyVectorField],
    theta: PolyTwoForm,
    ann_s_frame: Sequence[PolyOneForm] | None = None,
    grid=None,
) -> BigIsotropicStructure:
    """The graph of a 2-form over a tangent distribution S.

    E = {(X, i(X)theta) : X in S}; E' pairs every tangent vector with its
    flat plus an annihilator of S.
    """
    chart = theta.chart
    e_frame = [BigSection(X, flat(theta, X)) for X in s_frame]
    if ann_s_frame is None:
        ann_s_frame = _constant_annihilator(PolyOneForm, chart, [X.comps for X in s_frame])
    for gamma in ann_s_frame:
        for X in s_frame:
            if not gamma.pair(X).is_zero():
                raise StructureError("annihilator frame does not annihilate S")
    coords = [PolyVectorField.coordinate(chart, i) for i in range(chart.dim)]
    ep_frame = [BigSection(Y, flat(theta, Y)) for Y in coords]
    ep_frame += [BigSection(PolyVectorField.zero(chart), gamma) for gamma in ann_s_frame]
    return BigIsotropicStructure.build(chart, e_frame, ep_frame, grid=grid)


def check_theta_condition(
    s_frame: Sequence[PolyVectorField], theta: PolyTwoForm
) -> Verdict:
    """S involutive and d(theta)(S, S, anything) = 0."""
    chart = theta.chart
    in_S = span_test([X.comps for X in s_frame])
    failures = []
    for i, j in itertools.combinations(range(len(s_frame)), 2):
        br = lie_bracket(s_frame[i], s_frame[j])
        ok, witness = in_S(br.comps)
        if not ok:
            failures.append((f"[S_{i}, S_{j}] leaves S", witness))
    dtheta = d_twoform(theta)
    for i, j in itertools.combinations(range(len(s_frame)), 2):
        for l, val in enumerate(interior_wedge_threeform(s_frame[i], s_frame[j], dtheta).comps):
            if not val.is_zero():
                failures.append((f"d theta(S_{i}, S_{j}, d_{chart.names[l]}) != 0", val))
    return Verdict("graph(theta) integrability conditions", not failures, tuple(failures))


def graph_P(
    sstar_frame: Sequence[PolyOneForm],
    P: PolyBivector,
    ann_sstar_frame: Sequence[PolyVectorField] | None = None,
    grid=None,
) -> BigIsotropicStructure:
    """The graph of a bivector over a covector distribution S*."""
    chart = P.chart
    e_frame = [BigSection(sharp(P, sigma), sigma) for sigma in sstar_frame]
    if ann_sstar_frame is None:
        rows = [sigma.comps for sigma in sstar_frame]
        ann_sstar_frame = _constant_annihilator(PolyVectorField, chart, rows)
    for Y in ann_sstar_frame:
        for sigma in sstar_frame:
            if not sigma.pair(Y).is_zero():
                raise StructureError("annihilator frame is not annihilated by S*")
    ep_frame = [
        BigSection(sharp(P, PolyOneForm.coordinate(chart, l)), PolyOneForm.coordinate(chart, l))
        for l in range(chart.dim)
    ]
    ep_frame += [BigSection(Y, PolyOneForm.zero(chart)) for Y in ann_sstar_frame]
    return BigIsotropicStructure.build(chart, e_frame, ep_frame, grid=grid)


def check_P_conditions(sstar_frame: Sequence[PolyOneForm], P: PolyBivector) -> Verdict:
    """S* closed under the bivector bracket, and [P,P](S*, S*, anything) = 0."""
    chart = P.chart
    in_S_star = span_test([sigma.comps for sigma in sstar_frame])
    failures = []
    for i, j in itertools.combinations(range(len(sstar_frame)), 2):
        br = p_bracket_oneforms(P, sstar_frame[i], sstar_frame[j])
        ok, witness = in_S_star(br.comps)
        if not ok:
            failures.append((f"{{S*_{i}, S*_{j}}} leaves S*", witness))
    T = schouten_squared(P)
    for i, j in itertools.combinations(range(len(sstar_frame)), 2):
        for l, val in enumerate(trivector_contract_two(T, sstar_frame[i], sstar_frame[j]).comps):
            if not val.is_zero():
                failures.append((f"[P,P](S*_{i}, S*_{j}, d{chart.names[l]}) != 0", val))
    return Verdict("graph(P) integrability conditions", not failures, tuple(failures))


def foliation_pair(
    f_frame: Sequence[PolyVectorField],
    fprime_frame: Sequence[PolyVectorField],
    chart: Chart,
    ann_fprime: Sequence[PolyOneForm] | None = None,
    ann_f: Sequence[PolyOneForm] | None = None,
    grid=None,
) -> BigIsotropicStructure:
    """E = F (+) ann F' for nested tangent distributions F inside F'."""
    rows_fp = [X.comps for X in fprime_frame]
    in_F_prime = span_test(rows_fp)
    for X in f_frame:
        ok, _ = in_F_prime(X.comps)
        if not ok:
            raise StructureError("F is not contained in F'")
    if ann_fprime is None:
        ann_fprime = _constant_annihilator(PolyOneForm, chart, rows_fp)
    if ann_f is None:
        ann_f = _constant_annihilator(PolyOneForm, chart, [X.comps for X in f_frame])
    zero_vf = PolyVectorField.zero(chart)
    zero_of = PolyOneForm.zero(chart)
    e_frame = [BigSection(X, zero_of) for X in f_frame]
    e_frame += [BigSection(zero_vf, g) for g in ann_fprime]
    ep_frame = [BigSection(X, zero_of) for X in fprime_frame]
    ep_frame += [BigSection(zero_vf, g) for g in ann_f]
    return BigIsotropicStructure.build(chart, e_frame, ep_frame, grid=grid)


def tangent_lift(s: BigIsotropicStructure, grid=None) -> BigIsotropicStructure:
    """Complete+vertical lifts of both frames, on the tangent chart."""
    tangent = s.chart.tangent_chart()
    e_frame = []
    for sec in s.e_frame:
        e_frame.append(lift_section(sec, tangent, "complete"))
        e_frame.append(lift_section(sec, tangent, "vertical"))
    ep_frame = []
    for sec in s.e_prime_frame:
        ep_frame.append(lift_section(sec, tangent, "complete"))
        ep_frame.append(lift_section(sec, tangent, "vertical"))
    return BigIsotropicStructure.build(tangent, e_frame, ep_frame, grid=grid)


# --------------------------------------------------------------------------
# truncated differential and Hamiltonian formalism
# --------------------------------------------------------------------------

def d_tr_varpi(
    s: BigIsotropicStructure, a: BigSection, b: BigSection, c: BigSection, c_in_prime: bool = True
) -> TruncatedFormValue:
    """The truncated differential of the induced 2-form, evaluated as
    2 g([a, b], c); arguments are membership-verified first."""
    for name, sec in (("first", a), ("second", b)):
        ok, witness = s.section_in_E(sec)
        if not ok:
            raise StructureError(f"{name} argument is not a section of E: {witness}")
    ok, witness = s.section_in_E_prime(c) if c_in_prime else s.section_in_E(c)
    if not ok:
        raise StructureError(f"third argument membership failed: {witness}")
    value = pairing_sections(courant_bracket(a, b), c) * 2
    return TruncatedFormValue(("E", "E", "E_prime" if c_in_prime else "E"), value)


def is_hamiltonian_pair(s: BigIsotropicStructure, f: Polynomial, X_f: PolyVectorField) -> bool:
    sec = BigSection(X_f, d_function(f, s.chart))
    return s.section_in_E(sec)[0]


def is_weak_hamiltonian_pair(s: BigIsotropicStructure, f: Polynomial, X_f: PolyVectorField) -> bool:
    sec = BigSection(X_f, d_function(f, s.chart))
    return s.section_in_E_prime(sec)[0]


def poisson_bracket(
    s: BigIsotropicStructure,
    f: Polynomial,
    X_f: PolyVectorField,
    h: Polynomial,
    X_h: PolyVectorField,
) -> Polynomial:
    """{f, h} = X_f h for a verified Hamiltonian pair (f, X_f) and a verified
    weak-Hamiltonian pair (h, X_h)."""
    if not is_hamiltonian_pair(s, f, X_f):
        raise StructureError("(X_f, df) is not a section of E")
    if not is_weak_hamiltonian_pair(s, h, X_h):
        raise StructureError("(X_h, dh) is not a section of E'")
    return X_f.apply(h)


# --------------------------------------------------------------------------
# enlargement and co-anchor axioms
# --------------------------------------------------------------------------

def _axiom_test_functions(chart: Chart):
    f = chart.one()
    h = chart.one()
    for i in range(chart.dim):
        f = f + chart.coordinate(i) * (i + 1)
        h = h + chart.coordinate(i) * chart.coordinate((i + 1) % chart.dim)
    return f, h


def verify_modular_enlargement(s: BigIsotropicStructure) -> Verdict:
    """The anchored-bracket axioms for (E, E') with the tangent projection as
    anchor and the Courant bracket as the mixed bracket.

    Courant's identities give each axiom's defect lhs - rhs in closed form
    (Courant 1990; Liu-Weinstein-Xu 1997), so no scaled or nested bracket
    is formed.  For a = (X, alpha), b = (Y, beta):

    1. The anchor intertwines brackets: the tangent part of [a, b] is [X, Y]
       by definition, so this holds identically and is not tested.
    2. Scaling by f, h: [a, h b] = h [a, b] + (X h) b - g(a, b) (0, dh) and
       skew symmetry give the defect g(a, b) (0, h df - f dh).
    3. [a1, [a2, b]] = [[a1, a2], b] + [a2, [a1, b]] fails by the exact
       Jacobiator (0, -dT/3), T = g([a1,a2], b) + g([a2,b], a1) - g([a1,b], a2).
       The bracket is skew for all sections, isotropic or not, so
       [a2, a1] = -[a1, a2] and [a, a] = 0; hence T(a2, a1, b) = -T(a1, a2, b)
       and T(a, a, b) = 0, so T is formed for i1 < i2 only.

    The identity X g(b, c) = g([a,b] + d g(a,b), c) + g(b, [a,c] + d g(a,c))
    of check_module_property, taken at (a2, b, a1) and (a1, b, a2) with
    g((0, df), a) = X_a f / 2, gives for all sections
    T = 3 g([a1,a2], b) + 3/2 (X_a2 g(a1, b) - X_a1 g(a2, b)):
    the d g(a1, a2) terms cancel, so T needs only the k(k-1)/2 brackets
    [e_i1, e_i2] of the structure's ``frame_brackets`` and the pairings
    g(e_i, e'_j) of axiom 2, which are computed, never assumed zero.  As
    h df - f dh != 0, axiom 2 fails iff g(a, b) != 0, and axiom 3 iff T is
    not constant; a defect is built only for a failure.
    """
    chart = s.chart
    f, h = _axiom_test_functions(chart)
    twist = d_function(f, chart).scale(h) - d_function(h, chart).scale(f)
    zero = PolyVectorField.zero(chart)
    failures = []
    p = {}  # (i, j) -> g(e_i, e'_j)
    for i, a in enumerate(s.e_frame):
        for j, b in enumerate(s.e_prime_frame):
            p[i, j] = pairing_sections(a, b)
            if not p[i, j].is_zero():
                failures.append((f"axiom 2 fails on ({i},{j})", BigSection(zero, twist.scale(p[i, j]))))
    T = {}  # (i1, i2, j) with i1 < i2 -> T(e_i1, e_i2, e'_j)
    for (i1, i2), (inner, _) in s.frame_brackets.items():
        a1, a2 = s.e_frame[i1], s.e_frame[i2]
        for j, b in enumerate(s.e_prime_frame):
            t = pairing_sections(inner, b) * 3
            if not (p[i1, j].is_zero() and p[i2, j].is_zero()):
                t = t + (a2.vf.apply(p[i1, j]) - a1.vf.apply(p[i2, j])) * Fraction(3, 2)
            T[i1, i2, j] = t
    for i1, i2 in itertools.permutations(range(s.k), 2):
        for j in range(len(s.e_prime_frame)):
            t = T[min(i1, i2), max(i1, i2), j]
            if not t.is_constant():
                defect = d_function(t if i1 < i2 else -t, chart).scale(Fraction(-1, 3))
                failures.append((f"axiom 3 fails on ({i1},{i2},{j})", BigSection(zero, defect)))
    return Verdict("modular enlargement axioms", not failures, tuple(failures))


def verify_coanchor(s: BigIsotropicStructure) -> Verdict:
    """Co-anchor conditions for the cotangent projection on (E, E').

    For a = (X, alpha) in E and b = (Y, beta) in E', condition i asks that
    alpha(Y) + beta(X) = 2 g(a, b) vanish.  Condition ii compares the
    cotangent part of [a, b], L_X beta - L_Y alpha + d(alpha(Y) - beta(X))/2,
    with L_X beta - L_Y alpha + d(alpha(Y)); their difference is
    -d(alpha(Y) + beta(X))/2 = -d g(a, b), so no bracket is formed and
    condition ii fails iff alpha(Y) + beta(X) is not constant.
    """
    failures = []
    for i, a in enumerate(s.e_frame):
        for j, b in enumerate(s.e_prime_frame):
            sym = a.of.pair(b.vf) + b.of.pair(a.vf)
            if not sym.is_zero():
                failures.append((f"condition i fails on ({i},{j})", sym))
            if not sym.is_constant():
                defect = d_function(sym, s.chart).scale(Fraction(-1, 2))
                failures.append((f"condition ii fails on ({i},{j})", defect))
    return Verdict("co-anchor conditions", not failures, tuple(failures))


# --------------------------------------------------------------------------
# the regular-case criterion (independent of the minor-based check)
# --------------------------------------------------------------------------

def regular_integrability_criterion(s: BigIsotropicStructure) -> Verdict:
    """For regular structures: tangent projections involutive and invariant,
    plus vanishing truncated differential with third slot in E'."""
    failures = []
    in_cal_e = span_test([sec.vf.comps for sec in s.e_frame])
    in_cal_ep = span_test([sec.vf.comps for sec in s.e_prime_frame])
    for i, j in itertools.combinations(range(s.k), 2):
        br = lie_bracket(s.e_frame[i].vf, s.e_frame[j].vf)
        ok, witness = in_cal_e(br.comps)
        if not ok:
            failures.append((f"tangent projection not involutive at pair ({i},{j})", witness))
    for i in range(s.k):
        for j in range(len(s.e_prime_frame)):
            br = lie_bracket(s.e_frame[i].vf, s.e_prime_frame[j].vf)
            ok, witness = in_cal_ep(br.comps)
            if not ok:
                failures.append((f"characteristic module not invariant at ({i},{j})", witness))
    for i, j in itertools.combinations(range(s.k), 2):
        br = courant_bracket(s.e_frame[i], s.e_frame[j])
        for l, c in enumerate(s.e_prime_frame):
            val = pairing_sections(br, c) * 2
            if not val.is_zero():
                failures.append((f"truncated differential nonzero on ({i},{j};{l})", val))
    return Verdict("regular integrability criterion", not failures, tuple(failures))


# --------------------------------------------------------------------------
# chart transforms
# --------------------------------------------------------------------------

def pull_back_sections(frame: Sequence[BigSection], chart: Chart, offset: Sequence, J: Matrix) -> list:
    """The sections of ``frame`` tangent to the affine map u -> offset + J u,
    pulled back to ``chart`` (the coordinates u).

    Coefficients are composed with the map, the tangent part goes through
    the left inverse (J^T J)^-1 J^T and the covector part through J^T; a
    section whose tangent part leaves the image of J is dropped.  An
    invertible J is a chart change and keeps every section.
    """
    coords = [chart.coordinate(j) for j in range(chart.dim)]
    images = [chart.constant(c) + p for c, p in zip(offset, J.apply(coords))]
    jt = J.transpose()
    left = (jt * J).inverse() * jt
    sections = []
    for sec in frame:
        v = tuple(c.substitute(images) for c in sec.vf.comps)
        x = left.apply(v)
        if J.apply(x) != v:
            continue
        xi = jt.apply([c.substitute(images) for c in sec.of.comps])
        sections.append(BigSection(PolyVectorField(chart, x), PolyOneForm(chart, xi)))
    return sections


def transform_structure(
    s: BigIsotropicStructure,
    T: Matrix,
    new_names: Sequence[str],
    offset: Sequence | None = None,
    grid=None,
) -> BigIsotropicStructure:
    """Move a structure through the affine chart change x_new = T x + offset:
    the pullback of its sections along the inverse map
    x = T^-1 x_new - T^-1 offset (``pull_back_sections``), so vector
    components go through T and covector components through the inverse
    transpose.
    """
    m = s.m
    if (T.rows, T.cols) != (m, m):
        raise StructureError("transform must be square of the chart dimension")
    T_inv = T.inverse()
    offset = [as_fraction(c) for c in (offset or [0] * m)]
    new_chart = Chart(tuple(new_names))
    if new_chart.dim != m:
        raise StructureError("new chart must have the same dimension")
    back = [-c for c in T_inv.apply(offset)]
    return BigIsotropicStructure.build(
        new_chart,
        pull_back_sections(s.e_frame, new_chart, back, T_inv),
        pull_back_sections(s.e_prime_frame, new_chart, back, T_inv),
        grid=grid,
    )
