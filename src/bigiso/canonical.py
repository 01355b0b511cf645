"""Canonical local frames of a big-isotropic structure in an adapted chart.

In a chart split into leaf coordinates x^a, middle coordinates y^h and
transverse coordinates z^s (with the characteristic distribution spanned by
the x-directions along the leaf), every structure whose frame is generic at
the base point has a unique frame of the shape

    X_a     = (d_xa + A'^h_a Y_h + A''^s_a Z_s,  alpha^a_b dx^b + alpha'^a_h phi^h)
    Xi_u    = (B'^h_u Y_h + B''^s_u Z_s,         beta^u_a dx^a + beta'^u_h phi^h + psi^u)
    Y_h     = (Y_h + C''^s_h Z_s,                gamma^h_a dx^a)
    Theta_q = (L''^s_q Z_s,                      lambda^q_a dx^a + phi^q)

where (X_a, Xi_u) spans E and the four families together span E', all in
the chart's coordinate frame.  Because the canonical frame is unique once
the chart is fixed, it can be computed in one step per bundle: solve for the
frame whose designated block of coordinate columns is the identity.  Each
solve is one fraction-free elimination of the structure's own polynomial
rows on those columns, taken in the split's order
(``linalg.fraction_free``): its rows over its pivot are the canonical rows,
so the frame is kept as polynomial numerators over one block determinant
per bundle, ``det_e`` for the X and Xi rows and ``det_eprime`` for the Y,
Theta and E'-only rows.  Every check runs on the numerators, and a quotient
is formed only to print an entry.  The two determinants delimit the
validity locus, which is recorded on the result.

The transversal structure lives on the slice {x = 0}, which
``reduction.restrict`` pulls the structure back to like any submanifold.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import islice, repeat
from operator import sub

from .calculus import BigSection, Chart, PolyOneForm, PolyVectorField
from .grid import format_point
from .linalg import Matrix, Subspace, combine, complement_in, fraction_free
from .pointwise import IsotropicData, characteristic_triple, covector_lift, window
from .reduction import SubmanifoldData, restrict, span_mismatches
from .scalars import Polynomial, eval_rows
from .structures import BigIsotropicStructure, Verdict, default_grid
from .transport import LinearMap


class NormalizationError(ValueError):
    pass


@dataclass(frozen=True)
class AdaptedChart:
    """A chart split into leaf / middle / transverse coordinate indices."""

    chart: Chart
    leaf: tuple
    middle: tuple
    transverse: tuple

    def __post_init__(self):
        object.__setattr__(self, "leaf", tuple(self.leaf))
        object.__setattr__(self, "middle", tuple(self.middle))
        object.__setattr__(self, "transverse", tuple(self.transverse))
        idx = self.leaf + self.middle + self.transverse
        if sorted(idx) != list(range(self.chart.dim)):
            raise NormalizationError("leaf/middle/transverse must partition the chart")

    @property
    def r(self) -> int:
        return len(self.leaf)

    @property
    def mk(self) -> int:
        return len(self.middle)

    @property
    def p(self) -> int:
        return len(self.transverse)

    def sub_chart(self) -> Chart:
        """Chart of the transversal slice {x = 0}."""
        names = [self.chart.names[i] for i in self.middle + self.transverse]
        return Chart(tuple(names))

    def leaf_assignment(self) -> dict:
        return {i: Fraction(0) for i in self.middle + self.transverse}


@dataclass(frozen=True)
class SeedBasis:
    """Pointwise frame seeds at a base point, split by the index families."""

    X0: tuple  # basis of cal_E
    xi0: tuple  # covector partners with (X0, xi0) in E
    Y0: tuple  # complement of cal_E in cal_E'
    eta0: tuple  # covector partners with (Y0, eta0) in E'
    kappa0: tuple  # basis of ann cal_E'
    nu0: tuple  # completion to a basis of ann cal_E
    Z0: tuple  # complement of cal_E' in the tangent space


def seed_basis(data: IsotropicData) -> SeedBasis:
    """Deterministic pointwise seeds (ties broken by RREF pivot order).

    The rows (X0, xi0) and (0, kappa0) lie in E and span it, and with
    (Y0, eta0) and (0, nu0) they span E': as E' = orth E, E meets 0 (+) T*M
    in 0 (+) ann cal_E' and E' meets it in 0 (+) ann cal_E."""
    m = data.m
    triple = characteristic_triple(data)
    cal_E, cal_Ep = triple.cal_E, triple.cal_E_prime
    X0 = cal_E.basis
    xi0 = tuple(covector_lift(data.E, x) for x in X0)
    Y0 = complement_in(cal_E, cal_Ep).basis
    eta0 = tuple(covector_lift(data.E_prime, y) for y in Y0)
    kappa0 = cal_Ep.annihilator().basis
    nu0 = complement_in(Subspace(m, kappa0), cal_E.annihilator()).basis
    Z0 = complement_in(cal_Ep, Subspace.full(m)).basis
    return SeedBasis(X0, xi0, Y0, eta0, kappa0, nu0, Z0)


@dataclass(frozen=True)
class FrameValues:
    """A canonical frame at one point: rows of Fractions of length 2m, and
    alpha' as read from the frame's stored grid."""

    m: int
    x: tuple
    xi: tuple
    y: tuple
    theta: tuple
    alpha_prime: tuple


# the grids whose numerators are over det_e; every other grid is over det_eprime
_OVER_DET_E = frozenset(
    ("A_prime", "A_dprime", "alpha", "alpha_prime", "B_prime", "B_dprime", "beta", "beta_prime", "x_rows", "xi_rows")
)


@dataclass(frozen=True, eq=False)
class CanonicalFrame:
    """The coefficient record of a canonical local frame.

    Every grid holds polynomial numerators: entry [i][j] over the grid's
    determinant (``det_of``) is the coefficient, the first index being the
    section and the second the frame direction (A_prime[a][h] multiplies the
    h-th middle field inside the a-th leaf section, and so on).  The X and
    Xi rows and the grids read from them are over det_e, the others over
    det_eprime; the two determinants delimit the validity locus.
    """

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
    x_rows: tuple  # coordinate components of the X_a sections
    xi_rows: tuple
    y_rows: tuple
    theta_rows: tuple
    eprime_only_rows: tuple  # E'-adapted variant of (X, Xi); not in E
    det_e: Polynomial
    det_eprime: Polynomial
    leaf_conditions_ok: bool = True

    @property
    def r(self):
        return self.adapted.r

    @property
    def mk(self):
        return self.adapted.mk

    @property
    def p(self):
        return self.adapted.p

    def det_of(self, grid: str) -> Polynomial:
        """The determinant that the numerators of the named grid are over."""
        return self.det_e if grid in _OVER_DET_E else self.det_eprime

    def quotient_strings(self, grid: str) -> list:
        """The entries of the named grid as text, each printed as num / det
        in RationalFunction's normal form."""
        det = self.det_of(grid)
        return [[str(e / det) for e in row] for row in getattr(self, grid)]

    def denominators_nonzero_at(self, point) -> bool:
        return self.det_e.eval(point) != 0 and self.det_eprime.eval(point) != 0

    def at(self, point) -> FrameValues:
        """The X, Xi, Y and Theta rows and the alpha' grid at a point of the
        validity locus, each entry evaluated once.  One eval_rows table holds
        every numerator row of the five grids with its determinant appended
        as the last column; a row's positive scale cancels in each quotient,
        and a vanishing determinant raises ZeroDivisionError."""
        grids = ("x_rows", "xi_rows", "y_rows", "theta_rows", "alpha_prime")
        table = [row + (self.det_of(grid),) for grid in grids for row in getattr(self, grid)]
        (scaled,) = eval_rows(table, (point,))
        if not all(ints[-1] for ints in scaled):
            raise ZeroDivisionError(f"denominator vanishes at {format_point(point)}")
        quotients = iter([tuple(Fraction(n, ints[-1]) for n in ints[:-1]) for ints in scaled])
        values = [tuple(islice(quotients, len(getattr(self, grid)))) for grid in grids]
        return FrameValues(self.adapted.chart.dim, *values)


def _identity_on(rows, columns, names, singular: str):
    """(det, numerators): the determinant of the square block of the
    polynomial rows on the given columns, and the numerators over it of the
    combination of the rows that is the identity on that block.  One
    fraction-free elimination gives both: its rows over its pivot, which is
    sign * det, so the numerators are its rows times sign."""
    reduced, pivots, sign = fraction_free(rows, columns)
    if len(pivots) < len(rows):
        raise NormalizationError(singular)
    if not rows:
        return Polynomial.one(names), ()
    return sign * reduced[0][pivots[0]], tuple(tuple(sign * e for e in row) for row in reduced)


def _grab(rows, columns):
    return tuple(tuple(row[j] for j in columns) for row in rows)


def normalize_frame(s: BigIsotropicStructure, adapted: AdaptedChart) -> CanonicalFrame:
    """Compute the unique canonical frame over the adapted chart.

    The E part is the unique frame combination whose (leaf-tangent,
    transverse-covector) block is the identity; the complementary E' part is
    the unique combination whose (middle-tangent, middle-covector) block is
    the identity with the other designated blocks zero.  The pivot columns
    are coordinate columns in the split's order.  Raises when a block's
    determinant is the zero polynomial, which means the chart is not adapted
    to the structure near the base point.
    """
    if adapted.chart != s.chart:
        raise NormalizationError("adapted chart does not match the structure chart")
    r, mk, p = adapted.r, adapted.mk, adapted.p
    m = s.m
    if r + p != s.k or mk != m - s.k:
        raise NormalizationError(
            f"index ranges (r={r}, p={p}, middle={mk}) incompatible with rank {s.k} in dimension {m}"
        )
    leaf, middle, transverse = adapted.leaf, adapted.middle, adapted.transverse
    cols_e = list(leaf) + [m + i for i in transverse]
    cols_ep = cols_e + list(middle) + [m + i for i in middle]

    names = s.chart.names
    det_e, new_e = _identity_on(
        s.frame_rows(), cols_e, names, "the E frame block on leaf-tangent/transverse-covector columns is singular"
    )
    det_ep, new_ep = _identity_on(
        s.prime_frame_rows(), cols_ep, names, "the E' frame block is singular; chart not adapted"
    )

    x_rows, xi_rows = new_e[:r], new_e[r:]
    y_rows, theta_rows = new_ep[r + p : r + p + mk], new_ep[r + p + mk :]
    leaf_covector = [m + i for i in leaf]
    middle_covector = [m + i for i in middle]
    return CanonicalFrame(
        structure=s,
        adapted=adapted,
        A_prime=_grab(x_rows, middle),
        A_dprime=_grab(x_rows, transverse),
        alpha=_grab(x_rows, leaf_covector),
        alpha_prime=_grab(x_rows, middle_covector),
        B_prime=_grab(xi_rows, middle),
        B_dprime=_grab(xi_rows, transverse),
        beta=_grab(xi_rows, leaf_covector),
        beta_prime=_grab(xi_rows, middle_covector),
        C_dprime=_grab(y_rows, transverse),
        gamma=_grab(y_rows, leaf_covector),
        L_dprime=_grab(theta_rows, transverse),
        lam=_grab(theta_rows, leaf_covector),
        x_rows=x_rows,
        xi_rows=xi_rows,
        y_rows=y_rows,
        theta_rows=theta_rows,
        eprime_only_rows=new_ep[: r + p],
        det_e=det_e,
        det_eprime=det_ep,
        leaf_conditions_ok=_leaf_conditions_hold(adapted, (det_e, det_ep), x_rows, xi_rows, y_rows, theta_rows),
    )


def _leaf_conditions_hold(adapted, dets, x_rows, xi_rows, y_rows, theta_rows) -> bool:
    """Along the leaf the canonical tangent coefficients must collapse to the
    seed values (identity/zero pattern); fails when the chart split does not
    actually match the structure's characteristic distributions on the leaf.
    A quotient vanishes on the leaf iff its numerator does, unless its
    determinant vanishes identically there, and then the conditions fail."""
    on_leaf = adapted.leaf_assignment()
    if any(det.set_vars(on_leaf).is_zero() for det in dets):
        return False
    off_leaf, transverse = adapted.middle + adapted.transverse, adapted.transverse
    blocks = ((x_rows, off_leaf), (xi_rows, off_leaf), (y_rows, transverse), (theta_rows, transverse))
    return all(row[c].set_vars(on_leaf).is_zero() for rows, columns in blocks for row in rows for c in columns)


# The seven relation families as (label, outer rows, inner rows): relation
# (i, j) of a family is 2g of the i-th outer and the j-th inner canonical row,
# read through the identity and zero blocks of the canonical shape.
_RELATIONS = (
    ("alpha'[{0}][{1}] + gamma[{1}][{0}]", "x_rows", "y_rows"),
    ("lambda[{0}][{1}] + A'[{1}][{0}]", "theta_rows", "x_rows"),
    ("beta'[{0}][{1}] + C''[{1}][{0}]", "xi_rows", "y_rows"),
    ("L''[{0}][{1}] + B'[{1}][{0}]", "theta_rows", "xi_rows"),
    ("mixed covector relation (u={0}, a={1})", "xi_rows", "x_rows"),
    ("transverse symmetry relation (u={0}, v={1})", "xi_rows", "xi_rows"),
    ("leaf symmetry relation (a={0}, b={1})", "x_rows", "x_rows"),
)


def check_orthogonality_relations(cf: CanonicalFrame) -> Verdict:
    """The seven relation families equivalent to g-orthogonality of the
    canonical frame; in the maximal (Dirac) case only the three families
    without middle indices survive.  A relation is 2g of two rows, so it
    holds iff the pairing of their numerators, one dot, is zero; a failure
    carries the relation's value, that pairing over both determinants."""
    failures = []
    m, names = cf.adapted.chart.dim, cf.adapted.chart.names
    for label, outer, inner in _RELATIONS:
        for i, a in enumerate(getattr(cf, outer)):
            for j, b in enumerate(getattr(cf, inner)):
                value = Polynomial.dot(names, zip(a, b[m:] + b[:m], repeat(1)))
                if not value.is_zero():
                    failures.append((label.format(i, j), value / (cf.det_of(outer) * cf.det_of(inner))))
    return Verdict("canonical orthogonality relations", not failures, tuple(failures))


def is_locally_decomposable(cf: CanonicalFrame) -> bool:
    """True when every mixed coefficient alpha' vanishes identically."""
    return all(entry.is_zero() for row in cf.alpha_prime for entry in row)


def pseudo_normal(v: FrameValues) -> Subspace:
    """Tangent vectors reachable inside E over leaf-conormal covectors:
    combinations of the leaf sections' tangent parts whose alpha' pairing
    vanishes."""
    tangents = [x[: v.m] for x in v.x]
    combos = Matrix(v.alpha_prime, len(v.theta)).transpose().kernel_rows()
    return Subspace(v.m, [combine(c, tangents, v.m) for c in combos])


def pseudo_normal_prime(v: FrameValues) -> Subspace:
    """Same construction inside E' (no constraints; bigger family): the leaf
    sections' tangent parts less alpha' times the Theta tangent parts, and
    the Y tangent parts."""
    m = v.m
    rows = [tuple(map(sub, x, combine(a, v.theta, m))) for x, a in zip(v.x, v.alpha_prime)]
    return Subspace(m, rows + [y[:m] for y in v.y])


def pseudo_conormal(v: FrameValues) -> Subspace:
    """Covectors carried by leaf-tangent vectors inside E': spanned by the
    covector parts of the Xi, Y and Theta sections."""
    return Subspace(v.m, [row[v.m :] for row in v.xi + v.y + v.theta])


def coupling_equivalences(cf: CanonicalFrame, grid=None) -> Verdict:
    """The three pointwise splitting conditions and the coefficient test must
    agree everywhere on the sampled validity locus; on decomposable frames
    the two-piece splitting of E is verified as well.

    Everything is read from one evaluation of the canonical frame per point:
    on the validity locus the X and Xi rows span E, and with the Y and Theta
    rows, independent of them by the identity blocks, they span E'.
    By dim(A n B) = dim A + dim B - dim(A + B), H (+) TF = TM iff dim H = r
    and dim(H + TF) = m, and C (+) ann TF = T*M iff dim C + r = m and
    dim(C + ann TF) = m.  For Y in H' n TF (tangent parts of E' sections, so
    Y is in cal_E'), varpi(cal_E, Y) = 0 iff (Y, 0) is in E', the
    g-orthogonal of E: varpi(X, Y) = alpha(Y) = 2 g((X, alpha), (Y, 0)).
    """
    adapted = cf.adapted
    m = adapted.chart.dim
    decomposable = is_locally_decomposable(cf)
    failures = []
    grid = grid if grid is not None else default_grid(m)

    t_fol = Subspace(m, [[1 if j == i else 0 for j in range(m)] for i in adapted.middle + adapted.transverse])
    ann_fol = Subspace(m, [[1 if j == i else 0 for j in range(m)] for i in adapted.leaf])

    used = 0
    for pt in grid:
        if not cf.denominators_nonzero_at(pt):
            continue
        used += 1
        v = cf.at(pt)
        alpha_prime_zero = all(entry == 0 for row in v.alpha_prime for entry in row)
        h_pt = pseudo_normal(v)
        # dim H = r is implied: H has r generators and dim TF = m - r
        cond_normal = h_pt.sum(t_fol).dim == m
        con_pt = pseudo_conormal(v)
        cond_conormal = con_pt.dim + cf.r == m and con_pt.sum(ann_fol).dim == m
        # middle tangents must pair trivially under the induced form
        e_prime = Subspace(2 * m, v.x + v.xi + v.y + v.theta)
        hp_cap_t = pseudo_normal_prime(v).intersect(t_fol)
        cond_flat = e_prime.contains_subspace(window(m, hp_cap_t.basis, ()))
        if not cond_normal == cond_conormal == cond_flat == alpha_prime_zero:
            conditions = (cond_normal, cond_conormal, cond_flat, alpha_prime_zero)
            failures.append((f"equivalences diverge at {format_point(pt)}", conditions))
        if decomposable and not _splitting_holds(v, h_pt, t_fol, ann_fol):
            failures.append((f"decomposition of E fails at {format_point(pt)}", None))
    if not used:
        failures.append((_empty_sample(cf, len(grid)), None))
    note = "decomposable" if decomposable else "not decomposable"
    return Verdict("coupling equivalences", not failures, tuple(failures), note=note)


def _splitting_holds(v: FrameValues, h_pt, t_fol, ann_fol) -> bool:
    """E = [E n (TF (+) ann H)] (+) [E n (H (+) ann TF)] at the point, with
    the two pieces spanned by the Xi and X sections respectively.  Nothing
    else needs checking: det_e is nonzero on the validity locus, so the r X
    and p Xi rows (adj(F_J) F over det_e) span E, of dimension r + p; pieces
    equal to their spans sum to E, directly (Grassmann), and a test of that
    sum is a conjunct no input can falsify."""
    m = v.m
    e = Subspace(2 * m, v.x + v.xi)
    piece_fol = e.intersect(window(m, t_fol.basis, h_pt.annihilator().basis))
    piece_h = e.intersect(window(m, h_pt.basis, ann_fol.basis))
    return piece_fol == Subspace(2 * m, v.xi) and piece_h == Subspace(2 * m, v.x)


def leaf_pullback(cf: CanonicalFrame) -> tuple:
    """(det, mat): the induced presymplectic matrix alpha^a_b restricted to
    the leaf, as numerators mat over det = det_e there; raises when det_e
    vanishes identically on the leaf or the restriction is not skew."""
    on_leaf = cf.adapted.leaf_assignment()
    det = cf.det_e.set_vars(on_leaf)
    if det.is_zero():
        raise NormalizationError("canonical coefficients blow up on the leaf: det_e vanishes there")
    mat = Matrix([[e.set_vars(on_leaf) for e in row] for row in cf.alpha])
    for a in range(cf.r):
        for b in range(cf.r):
            if not (mat[a, b] + mat[b, a]).is_zero():
                raise NormalizationError("leaf restriction of alpha is not skew")
    return det, mat


def dirac_extension_frame(cf: CanonicalFrame):
    """Generators of the almost-Dirac extension over the chart: the E frame
    plus the pure-covector annihilators of the characteristic distribution,
    all as polynomial rows (the X and Xi numerators scale their quotients by
    det_e, which is nonzero on the validity locus).

    The covector generators are kernel combinations of (phi, psi) against the
    Xi tangent coefficients; on regular structures the kernel is everything.
    """
    adapted = cf.adapted
    m, names = adapted.chart.dim, adapted.chart.names
    mk, p = cf.mk, cf.p
    # B' and B'' share det_e, so their numerators have their kernel
    rows = [cf.B_prime[u] + cf.B_dprime[u] for u in range(p)]
    reduced, pivots, _ = fraction_free(rows, range(mk + p))
    # every pivot row holds the same last pivot in its pivot column
    pivot = reduced[0][pivots[0]] if pivots else Polynomial.one(names)
    zero = Polynomial.zero(names)
    gens = list(cf.x_rows) + list(cf.xi_rows)
    # one kernel combination (phi, psi) per free column, as in the RREF times the pivot
    for f in (c for c in range(mk + p) if c not in pivots):
        combo = [zero] * (mk + p)
        combo[f] = pivot
        for row, c in zip(reduced, pivots):
            combo[c] = -row[f]
        # a pure covector: phi on the middle and psi on the transverse
        # coordinates, with its leaf part chosen to annihilate the X rows,
        # all over det_e as the A' and A'' numerators are
        row = [zero] * (2 * m)
        for i, c in zip(adapted.middle + adapted.transverse, combo):
            row[m + i] = c * cf.det_e
        for a, i in enumerate(adapted.leaf):
            row[m + i] = -Polynomial.dot(names, zip(combo, cf.A_prime[a] + cf.A_dprime[a], repeat(1)))
        gens.append(tuple(row))
    return tuple(gens)


def transversal_structure(
    s: BigIsotropicStructure, cf: CanonicalFrame, grid=None
) -> BigIsotropicStructure:
    """The induced structure on the slice {x = 0}: E framed by the restricted
    Xi rows, E' by the restricted Xi, Y and Theta rows, each checked against
    its pullback from ``reduction.restrict`` on the validity locus before
    the structure is built, which is evaluated at no point.  There X, Xi
    span E and X, Xi, Y, Theta span E', and only X has leaf-tangent entries,
    so the pullbacks are spanned by those restrictions; E is of graph type,
    as the Xi rows carry det_e I on the transverse-covector columns.

    Each numerator row is restricted to the slice and divided by its
    determinant's restriction where that division is exact, as it always is
    for a constant determinant; otherwise the numerators frame the same
    span off the locus.  A determinant that vanishes on the whole slice
    leaves no point to check on, which fails as an empty sample."""
    adapted = cf.adapted
    m = adapted.chart.dim
    sub = adapted.sub_chart()
    sub_idx = adapted.middle + adapted.transverse
    freeze = {i: Fraction(0) for i in adapted.leaf}
    sub_grid = grid if grid is not None else default_grid(sub.dim, cap=12)
    det_e, det_ep = (det.set_vars(freeze) for det in (cf.det_e, cf.det_eprime))
    if det_e.is_zero() or det_ep.is_zero():
        raise NormalizationError(_empty_sample(cf, len(sub_grid)))

    def section(row, det) -> BigSection:
        comps = [row[i].set_vars(freeze) for i in sub_idx] + [row[m + i].set_vars(freeze) for i in sub_idx]
        quotients = [c.exact_div(det) for c in comps]
        comps = [c.recast(sub.names) for c in (comps if None in quotients else quotients)]
        return BigSection(PolyVectorField(sub, comps[: sub.dim]), PolyOneForm(sub, comps[sub.dim :]))

    e_frame = [section(row, det_e) for row in cf.xi_rows]
    ep_frame = e_frame + [section(row, det_ep) for row in cf.y_rows + cf.theta_rows]

    inclusion = LinearMap.from_rows([[int(i == j) for j in sub_idx] for i in range(m)])
    N = SubmanifoldData(adapted.chart, sub, (0,) * m, inclusion)
    restricted = restrict(s, N, grid=sub_grid)
    sampled = zip(restricted.points, restricted.pulled_E, restricted.pulled_E_prime)
    on_locus = [(u, e, ep) for u, e, ep in sampled if cf.denominators_nonzero_at(N.embed_point(u))]
    if not on_locus:
        raise NormalizationError(_empty_sample(cf, len(sub_grid)))
    points, pulled_e, pulled_ep = zip(*on_locus)
    bad = span_mismatches(points, e_frame, pulled_e) or span_mismatches(points, ep_frame, pulled_ep)
    if bad:
        raise NormalizationError(f"transversal frame disagrees with the pullback at {format_point(bad[0])}")
    return BigIsotropicStructure.build(sub, e_frame, ep_frame, grid=sub_grid)


def _empty_sample(cf: CanonicalFrame, points: int) -> str:
    """The failure of a check that skipped every grid point: a pass on no
    point would certify nothing."""
    return (
        f"empty sample: no point of the {points}-point grid lies on the validity locus "
        f"({cf.det_e}) * ({cf.det_eprime}) != 0"
    )
