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
(``linalg.fraction_free``); its rows over its pivot are the canonical rows.
The two block determinants delimit the validity locus, which is recorded on
the result.

The transversal structure lives on the slice {x = 0}, which
``reduction.restrict`` pulls the structure back to like any submanifold.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .calculus import BigSection, Chart, PolyOneForm, PolyVectorField
from .linalg import Matrix, Subspace, combine, complement_in, fraction_free
from .pointwise import IsotropicData, characteristic_triple, covector_lift, is_graph_type, window
from .reduction import SubmanifoldData, restrict
from .scalars import Polynomial, RationalFunction
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
    """Deterministic pointwise seeds (ties broken by RREF pivot order)."""
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

    zeros = tuple(Fraction(0) for _ in range(m))
    e_rows = [tuple(x) + tuple(xi) for x, xi in zip(X0, xi0)]
    e_rows += [zeros + tuple(kp) for kp in kappa0]
    if Subspace(2 * m, e_rows) != data.E:
        raise NormalizationError("seed rows do not span E")
    ep_rows = e_rows + [tuple(y) + tuple(eta) for y, eta in zip(Y0, eta0)]
    ep_rows += [zeros + tuple(nv) for nv in nu0]
    if Subspace(2 * m, ep_rows) != data.E_prime:
        raise NormalizationError("seed rows do not span E'")
    return SeedBasis(X0, xi0, Y0, eta0, kappa0, nu0, Z0)


@dataclass(frozen=True, eq=False)
class CanonicalFrame:
    """The coefficient record of a canonical local frame.

    Coefficient grids are lists of rational-function rows; the first index is
    the section, the second the frame direction (A_prime[a][h] multiplies the
    h-th middle field inside the a-th leaf section, and so on).  The
    denominators inverted during normalization delimit the validity locus.
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

    def denominators_nonzero_at(self, point) -> bool:
        try:
            return self.det_e.eval(point) != 0 and self.det_eprime.eval(point) != 0
        except ZeroDivisionError:
            return False


def _identity_on(rows, columns, names, singular: str):
    """(det, combination): the determinant of the square block of the
    polynomial rows on the given columns, and the combination of the rows
    that is the identity on that block, in rational functions.  One
    fraction-free elimination gives both: its rows over its pivot, which is
    sign * det."""
    reduced, pivots, sign = fraction_free(rows, columns)
    if len(pivots) < len(rows):
        raise NormalizationError(singular)
    if not rows:
        return Polynomial.one(names), ()
    pivot = reduced[0][pivots[0]]
    return sign * pivot, tuple(tuple(RationalFunction(e, pivot) for e in row) for row in reduced)


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
        leaf_conditions_ok=_leaf_conditions_hold(adapted, x_rows, xi_rows, y_rows, theta_rows),
    )


def _leaf_conditions_hold(adapted, x_rows, xi_rows, y_rows, theta_rows) -> bool:
    """Along the leaf the canonical tangent coefficients must collapse to the
    seed values (identity/zero pattern); fails when the chart split does not
    actually match the structure's characteristic distributions on the leaf."""
    on_leaf = adapted.leaf_assignment()

    def vanishes(rows, columns):
        for row in rows:
            for c in columns:
                try:
                    if not row[c].set_vars(on_leaf).is_zero():
                        return False
                except ZeroDivisionError:
                    return False
        return True

    middle, transverse = adapted.middle, adapted.transverse
    return (
        vanishes(x_rows, middle)
        and vanishes(x_rows, transverse)
        and vanishes(xi_rows, middle)
        and vanishes(xi_rows, transverse)
        and vanishes(y_rows, transverse)
        and vanishes(theta_rows, transverse)
    )


def check_orthogonality_relations(cf: CanonicalFrame) -> Verdict:
    """The seven relation families equivalent to g-orthogonality of the
    canonical frame; in the maximal (Dirac) case only the three families
    without middle indices survive."""
    failures = []
    r, mk, p = cf.r, cf.mk, cf.p

    def expect_zero(tag, value):
        if not value.is_zero():
            failures.append((tag, value))

    for a in range(r):
        for h in range(mk):
            expect_zero(f"alpha'[{a}][{h}] + gamma[{h}][{a}]", cf.alpha_prime[a][h] + cf.gamma[h][a])
    for q in range(mk):
        for a in range(r):
            expect_zero(f"lambda[{q}][{a}] + A'[{a}][{q}]", cf.lam[q][a] + cf.A_prime[a][q])
    for u in range(p):
        for h in range(mk):
            expect_zero(
                f"beta'[{u}][{h}] + C''[{h}][{u}]", cf.beta_prime[u][h] + cf.C_dprime[h][u]
            )
    for q in range(mk):
        for u in range(p):
            expect_zero(f"L''[{q}][{u}] + B'[{u}][{q}]", cf.L_dprime[q][u] + cf.B_prime[u][q])
    for u in range(p):
        for a in range(r):
            acc = cf.beta[u][a] + cf.A_dprime[a][u]
            for h in range(mk):
                acc = acc + cf.alpha_prime[a][h] * cf.B_prime[u][h]
                acc = acc + cf.beta_prime[u][h] * cf.A_prime[a][h]
            expect_zero(f"mixed covector relation (u={u}, a={a})", acc)
    for u in range(p):
        for v in range(p):
            acc = cf.B_dprime[v][u] + cf.B_dprime[u][v]
            for h in range(mk):
                acc = acc + cf.beta_prime[u][h] * cf.B_prime[v][h]
                acc = acc + cf.beta_prime[v][h] * cf.B_prime[u][h]
            expect_zero(f"transverse symmetry relation (u={u}, v={v})", acc)
    for a in range(r):
        for b in range(r):
            acc = cf.alpha[a][b] + cf.alpha[b][a]
            for h in range(mk):
                acc = acc + cf.alpha_prime[a][h] * cf.A_prime[b][h]
                acc = acc + cf.alpha_prime[b][h] * cf.A_prime[a][h]
            expect_zero(f"leaf symmetry relation (a={a}, b={b})", acc)
    return Verdict("canonical orthogonality relations", not failures, tuple(failures))


def is_locally_decomposable(cf: CanonicalFrame) -> bool:
    """True when every mixed coefficient alpha' vanishes identically."""
    return all(entry.is_zero() for row in cf.alpha_prime for entry in row)


@dataclass(frozen=True)
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


def pseudo_normal(cf: CanonicalFrame) -> SubbundleField:
    """Tangent vectors reachable inside E over leaf-conormal covectors:
    combinations of the leaf sections' tangent parts whose alpha' pairing
    vanishes."""
    m = cf.adapted.chart.dim
    gens = tuple(tuple(row[:m]) for row in cf.x_rows)
    constraints = tuple(
        tuple(cf.alpha_prime[a][h] for a in range(cf.r)) for h in range(cf.mk)
    )
    return SubbundleField(m, gens, constraints)


def pseudo_normal_prime(cf: CanonicalFrame) -> SubbundleField:
    """Same construction inside E' (no constraints; bigger family)."""
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


def pseudo_conormal(cf: CanonicalFrame) -> SubbundleField:
    """Covectors carried by leaf-tangent vectors inside E': spanned by the
    covector parts of the Xi, Y and Theta sections."""
    m = cf.adapted.chart.dim
    gens = [tuple(row[m:]) for row in cf.xi_rows]
    gens += [tuple(row[m:]) for row in cf.y_rows]
    gens += [tuple(row[m:]) for row in cf.theta_rows]
    return SubbundleField(m, tuple(gens))


def coupling_equivalences(cf: CanonicalFrame, grid=None) -> Verdict:
    """The three pointwise splitting conditions and the coefficient test must
    agree everywhere on the sampled validity locus; on decomposable frames
    the two-piece splitting of E is verified as well."""
    adapted = cf.adapted
    m = adapted.chart.dim
    decomposable = is_locally_decomposable(cf)
    failures = []
    grid = grid if grid is not None else default_grid(m)
    h_field = pseudo_normal(cf)
    h_prime_field = pseudo_normal_prime(cf)
    conormal = pseudo_conormal(cf)

    t_fol = Subspace(m, [[1 if j == i else 0 for j in range(m)] for i in adapted.middle + adapted.transverse])
    ann_fol = Subspace(m, [[1 if j == i else 0 for j in range(m)] for i in adapted.leaf])

    used = 0
    for pt in grid:
        if not cf.denominators_nonzero_at(pt):
            continue
        used += 1
        alpha_prime_zero = all(
            entry.eval(pt) == 0 for row in cf.alpha_prime for entry in row
        )
        h_pt = h_field.at(pt)
        cond_normal = h_pt.dim == cf.r and h_pt.intersect(t_fol).dim == 0 and h_pt.sum(t_fol).dim == m
        con_pt = conormal.at(pt)
        cond_conormal = con_pt.intersect(ann_fol).dim == 0 and con_pt.sum(ann_fol).dim == m
        # middle tangents must pair trivially under the induced form
        data = cf.structure.evaluate_at(pt)
        triple = characteristic_triple(data)
        hp_cap_t = h_prime_field.at(pt).intersect(t_fol)
        cond_flat = True
        for y_vec in hp_cap_t.basis:
            for x_vec in triple.cal_E.basis:
                if triple.varpi_on(x_vec, y_vec) != 0:
                    cond_flat = False
        agree = cond_normal == cond_conormal == cond_flat == alpha_prime_zero
        if not agree:
            failures.append(
                (
                    f"equivalences diverge at {pt}",
                    (cond_normal, cond_conormal, cond_flat, alpha_prime_zero),
                )
            )
        if decomposable and not _splitting_holds(cf, pt, data, h_pt, t_fol, ann_fol):
            failures.append((f"decomposition of E fails at {pt}", None))
    if not used:
        failures.append((_empty_sample(cf, len(grid)), None))
    return Verdict(
        "coupling equivalences",
        not failures,
        tuple(failures),
        note="decomposable" if decomposable else "not decomposable",
    )


def _splitting_holds(cf, pt, data, h_pt, t_fol, ann_fol) -> bool:
    """E = [E n (TF (+) ann H)] (+) [E n (H (+) ann TF)] at the point, where
    data is the structure there, with the two pieces spanned by the Xi and X
    sections respectively."""
    m = cf.adapted.chart.dim
    x_vals = SubbundleField(2 * m, cf.x_rows).at(pt)
    xi_vals = SubbundleField(2 * m, cf.xi_rows).at(pt)
    piece_fol = data.E.intersect(window(m, t_fol.basis, h_pt.annihilator().basis))
    piece_h = data.E.intersect(window(m, h_pt.basis, ann_fol.basis))
    return (
        piece_fol == xi_vals
        and piece_h == x_vals
        and piece_fol.sum(piece_h) == data.E
        and piece_fol.intersect(piece_h).dim == 0
    )


def leaf_pullback(cf: CanonicalFrame) -> Matrix:
    """The induced presymplectic matrix alpha^a_b restricted to the leaf."""
    on_leaf = cf.adapted.leaf_assignment()
    try:
        entries = [
            [cf.alpha[a][b].set_vars(on_leaf) for b in range(cf.r)] for a in range(cf.r)
        ]
    except ZeroDivisionError as exc:
        raise NormalizationError(f"canonical coefficients blow up on the leaf: {exc}")
    mat = Matrix(entries)
    for a in range(cf.r):
        for b in range(cf.r):
            if not (mat[a, b] + mat[b, a]).is_zero():
                raise NormalizationError("leaf restriction of alpha is not skew")
    return mat


def dirac_extension_frame(cf: CanonicalFrame):
    """Generators of the almost-Dirac extension over the chart: the E frame
    plus the pure-covector annihilators of the characteristic distribution.

    The covector generators are kernel combinations of (phi, psi) against the
    Xi tangent coefficients; on regular structures the kernel is everything.
    """
    adapted = cf.adapted
    m = adapted.chart.dim
    mk, p = cf.mk, cf.p
    names = adapted.chart.names
    # B' and B'' have the denominator det_e, so their numerators have their kernel
    rows = [
        [(e * cf.det_e).as_polynomial() for e in cf.B_prime[u] + cf.B_dprime[u]] for u in range(p)
    ]
    reduced, pivots, _ = fraction_free(rows, range(mk + p))
    zero, one = RationalFunction.zero(names), RationalFunction.one(names)
    gens = list(cf.x_rows) + list(cf.xi_rows)
    # one kernel combination per free column, as in the RREF
    for f in (c for c in range(mk + p) if c not in pivots):
        combo = [zero] * (mk + p)
        combo[f] = one
        for row, c in zip(reduced, pivots):
            combo[c] = RationalFunction(-row[f], row[c])
        phi, psi = combo[:mk], combo[mk:]
        # a pure covector: phi on the middle and psi on the transverse
        # coordinates, with its leaf part chosen to annihilate the X rows
        row = [zero] * (2 * m)
        for hi, i in enumerate(adapted.middle):
            row[m + i] = phi[hi]
        for si, i in enumerate(adapted.transverse):
            row[m + i] = psi[si]
        for ai, i in enumerate(adapted.leaf):
            acc = zero
            for hi in range(mk):
                acc = acc + phi[hi] * cf.A_prime[ai][hi]
            for si in range(p):
                acc = acc + psi[si] * cf.A_dprime[ai][si]
            row[m + i] = -acc
        gens.append(tuple(row))
    return tuple(gens)


def transversal_structure(
    s: BigIsotropicStructure, cf: CanonicalFrame, grid=None
) -> BigIsotropicStructure:
    """The induced structure on the slice {x = 0}, framed by the restricted
    Xi sections (and Y/Theta for the orthogonal bundle) and checked against
    the pullbacks along the coordinate inclusion of the slice."""
    adapted = cf.adapted
    m = adapted.chart.dim
    sub = adapted.sub_chart()
    sub_idx = adapted.middle + adapted.transverse
    freeze = {i: Fraction(0) for i in adapted.leaf}

    def restrict_row(row):
        comps = []
        for i in sub_idx:
            comps.append(row[i].set_vars(freeze))
        for i in sub_idx:
            comps.append(row[m + i].set_vars(freeze))
        return _clear_denominators(comps)

    e_frame = [restrict_row(row) for row in cf.xi_rows]
    ep_frame = e_frame + [restrict_row(row) for row in cf.y_rows]
    ep_frame += [restrict_row(row) for row in cf.theta_rows]

    sub_grid = grid if grid is not None else default_grid(sub.dim, cap=12)
    inclusion = LinearMap.from_rows([[int(i == j) for j in sub_idx] for i in range(m)])
    N = SubmanifoldData(adapted.chart, sub, (0,) * m, inclusion)
    restricted = restrict(s, N, grid=sub_grid)

    structure = BigIsotropicStructure.build(
        sub,
        [_row_to_section(sub, row) for row in e_frame],
        [_row_to_section(sub, row) for row in ep_frame],
        grid=sub_grid,
    )
    used = 0
    for pt, expected in zip(restricted.points, restricted.pulled_E):
        if not cf.denominators_nonzero_at(N.embed_point(pt)):
            continue
        used += 1
        got = structure.evaluate_at(pt)
        if expected != got.E:
            raise NormalizationError(f"transversal frame disagrees with the pullback at {pt}")
        if not is_graph_type(got):
            raise NormalizationError(f"transversal structure is not of graph type at {pt}")
    if not used:
        raise NormalizationError(_empty_sample(cf, len(sub_grid)))
    return structure


def _empty_sample(cf: CanonicalFrame, points: int) -> str:
    """The failure of a check that skipped every grid point: a pass on no
    point would certify nothing."""
    return (
        f"empty sample: no point of the {points}-point grid lies on the validity locus "
        f"({cf.det_e}) * ({cf.det_eprime}) != 0"
    )


def _clear_denominators(comps):
    dens = []
    for c in comps:
        if not c.is_polynomial():
            dens.append(c.den)
    scale = RationalFunction.one(comps[0].vars)
    seen = []
    for d in dens:
        if all(not (d == q) for q in seen):
            seen.append(d)
            scale = scale * RationalFunction.from_poly(d)
    return [(c * scale) for c in comps]


def _row_to_section(sub_chart: Chart, row) -> BigSection:
    n = sub_chart.dim
    # rows arrive as rational functions over the FULL chart but only using
    # slice coordinates; project them onto the slice polynomial ring
    polys = []
    for entry in row:
        if not entry.is_polynomial():
            raise NormalizationError("transversal components must be polynomial after clearing denominators")
        try:
            polys.append(entry.as_polynomial().recast(sub_chart.names))
        except ValueError:
            raise NormalizationError("restricted component still uses a leaf coordinate") from None
    return BigSection(
        PolyVectorField(sub_chart, polys[:n]), PolyOneForm(sub_chart, polys[n:])
    )
