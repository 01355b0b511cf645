"""Canonical local frames of a big-isotropic structure in an adapted chart.

In a chart split into leaf coordinates x^a, middle coordinates y^h and
transverse coordinates z^s (with the characteristic distribution spanned by
the x-directions along the leaf), every structure whose frame is generic at
the base point has a unique frame of the shape

    X_a     = (d_xa + A'^h_a Y_h + A''^s_a Z_s,  alpha^a_b dx^b + alpha'^a_h phi^h)
    Xi_u    = (B'^h_u Y_h + B''^s_u Z_s,         beta^u_a dx^a + beta'^u_h phi^h + psi^u)
    Y_h     = (Y_h + C''^s_h Z_s,                gamma^h_a dx^a)
    Theta_q = (L''^s_q Z_s,                      lambda^q_a dx^a + phi^q)

where (X_a, Xi_u) spans E and the four families together span E'.  Because
the canonical frame is unique once the chart frame is fixed, it can be
computed in one step per bundle: solve for the frame whose designated
component block is the identity.  Each solve is a matrix inversion over the
rational-function field; the inverted determinants delimit the validity
locus, which is recorded on the result.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .calculus import BigSection, Chart, PolyOneForm, PolyVectorField
from .linalg import Matrix, Subspace, combine, complement_in
from .pointwise import IsotropicData, characteristic_triple, covector_lift, is_graph_type, window
from .scalars import Polynomial, RationalFunction, as_fraction
from .structures import BigIsotropicStructure, Verdict, default_grid
from .transport import LinearMap, pullback_subspace, space_S


class NormalizationError(ValueError):
    pass


@dataclass(frozen=True)
class AdaptedChart:
    """A chart split into leaf / middle / transverse coordinate indices.

    ``chi`` is the optional twist of the middle frame fields: the h-th frame
    field is d_y^h + chi[h][s] d_z^s.  It must vanish on the leaf
    {y = 0, z = 0}.
    """

    chart: Chart
    leaf: tuple
    middle: tuple
    transverse: tuple
    chi: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "leaf", tuple(self.leaf))
        object.__setattr__(self, "middle", tuple(self.middle))
        object.__setattr__(self, "transverse", tuple(self.transverse))
        idx = self.leaf + self.middle + self.transverse
        if sorted(idx) != list(range(self.chart.dim)):
            raise NormalizationError("leaf/middle/transverse must partition the chart")
        zero = self.chart.zero()
        if self.chi:
            chi = tuple(tuple(row) for row in self.chi)
            if len(chi) != len(self.middle) or any(len(r) != len(self.transverse) for r in chi):
                raise NormalizationError("chi must be (middle x transverse)-shaped")
        else:
            chi = tuple(
                tuple(zero for _ in self.transverse) for _ in self.middle
            )
        object.__setattr__(self, "chi", chi)
        off_leaf = {i: Fraction(0) for i in self.middle + self.transverse}
        for row in chi:
            for entry in row:
                if not entry.set_vars(off_leaf).is_zero():
                    raise NormalizationError("chi must vanish on the leaf")

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


def _rf(p: Polynomial) -> RationalFunction:
    return RationalFunction.from_poly(p)


def section_frame_components(sec: BigSection, adapted: AdaptedChart) -> list:
    """Components of a section in the adapted frame (X_a, Y_h, Z_s) and its
    dual coframe, ordered [t_a, t_h, t_s, c_a, c_h, c_s]."""
    v = sec.vf.comps
    w = sec.of.comps
    chi = adapted.chi
    t_a = [v[i] for i in adapted.leaf]
    t_h = [v[i] for i in adapted.middle]
    t_s = []
    for si, i in enumerate(adapted.transverse):
        val = v[i]
        for hi in range(adapted.mk):
            val = val - chi[hi][si] * v[adapted.middle[hi]]
        t_s.append(val)
    c_a = [w[i] for i in adapted.leaf]
    c_h = []
    for hi, i in enumerate(adapted.middle):
        val = w[i]
        for si in range(adapted.p):
            val = val + chi[hi][si] * w[adapted.transverse[si]]
        c_h.append(val)
    c_s = [w[i] for i in adapted.transverse]
    return [_rf(x) for x in (t_a + t_h + t_s + c_a + c_h + c_s)]


def frame_components_to_coordinates(row: Sequence[RationalFunction], adapted: AdaptedChart) -> list:
    """Inverse of section_frame_components, on rational-function rows."""
    r, mk, p = adapted.r, adapted.mk, adapted.p
    m = adapted.chart.dim
    t_a, t_h, t_s = row[:r], row[r : r + mk], row[r + mk : r + mk + p]
    c_a, c_h, c_s = row[m : m + r], row[m + r : m + r + mk], row[m + r + mk :]
    chi = adapted.chi
    v = [None] * m
    w = [None] * m
    for ai, i in enumerate(adapted.leaf):
        v[i] = t_a[ai]
        w[i] = c_a[ai]
    for hi, i in enumerate(adapted.middle):
        v[i] = t_h[hi]
        w[i] = c_h[hi]
        for si in range(p):
            w[i] = w[i] - c_s[si] * _rf(chi[hi][si])
    for si, i in enumerate(adapted.transverse):
        v[i] = t_s[si]
        for hi in range(mk):
            v[i] = v[i] + t_h[hi] * _rf(chi[hi][si])
        w[i] = c_s[si]
    return list(v) + list(w)


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
    det_e: RationalFunction
    det_eprime: RationalFunction
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

    def canonical_rows(self) -> tuple:
        return self.x_rows + self.xi_rows + self.y_rows + self.theta_rows

    def denominators_nonzero_at(self, point) -> bool:
        try:
            return self.det_e.eval(point) != 0 and self.det_eprime.eval(point) != 0
        except ZeroDivisionError:
            return False

    def eval_rows(self, rows, point):
        return [tuple(entry.eval(point) for entry in row) for row in rows]


def _grab(rows, row_range, col_range):
    return tuple(tuple(rows[i][j] for j in col_range) for i in row_range)


def normalize_frame(s: BigIsotropicStructure, adapted: AdaptedChart) -> CanonicalFrame:
    """Compute the unique canonical frame over the adapted chart.

    The E part is the unique frame combination whose (leaf-tangent,
    transverse-covector) block is the identity; the complementary E' part is
    the unique combination whose (middle-tangent, middle-covector) block is
    the identity with the other designated blocks zero.  Raises when an
    inverted block is singular as a rational function, which means the chart
    is not adapted to the structure near the base point.
    """
    if adapted.chart != s.chart:
        raise NormalizationError("adapted chart does not match the structure chart")
    r, mk, p = adapted.r, adapted.mk, adapted.p
    m = s.m
    if r + p != s.k or mk != m - s.k:
        raise NormalizationError(
            f"index ranges (r={r}, p={p}, middle={mk}) incompatible with rank {s.k} in dimension {m}"
        )
    cols_e = list(range(r)) + list(range(m + r + mk, 2 * m))
    cols_ep = cols_e + list(range(r, r + mk)) + list(range(m + r, m + r + mk))

    m_e = [section_frame_components(sec, adapted) for sec in s.e_frame]
    m_ep = [section_frame_components(sec, adapted) for sec in s.e_prime_frame]

    one = RationalFunction.one(s.chart.names)

    if s.k:
        block_e = Matrix([[row[c] for c in cols_e] for row in m_e])
        det_e = block_e.det()
        if det_e.is_zero():
            raise NormalizationError(
                "the E frame block on leaf-tangent/transverse-covector columns is singular"
            )
        new_e = (block_e.inverse() * Matrix(m_e)).entries
    else:
        det_e = one
        new_e = ()
    block_ep = Matrix([[row[c] for c in cols_ep] for row in m_ep])
    det_ep = block_ep.det()
    if det_ep.is_zero():
        raise NormalizationError("the E' frame block is singular; chart not adapted")
    new_ep = (block_ep.inverse() * Matrix(m_ep)).entries

    x_rows = tuple(new_e[i] for i in range(r))
    xi_rows = tuple(new_e[i] for i in range(r, r + p))
    y_rows = tuple(new_ep[i] for i in range(r + p, r + p + mk))
    theta_rows = tuple(new_ep[i] for i in range(r + p + mk, 2 * m - s.k))
    eprime_only = tuple(new_ep[i] for i in range(r + p))

    # coefficient grids, read off the frame-component layout
    t_h = range(r, r + mk)
    t_s = range(r + mk, r + mk + p)
    c_a = range(m, m + r)
    c_h = range(m + r, m + r + mk)

    cf = CanonicalFrame(
        structure=s,
        adapted=adapted,
        A_prime=_grab(x_rows, range(r), t_h),
        A_dprime=_grab(x_rows, range(r), t_s),
        alpha=_grab(x_rows, range(r), c_a),
        alpha_prime=_grab(x_rows, range(r), c_h),
        B_prime=_grab(xi_rows, range(p), t_h),
        B_dprime=_grab(xi_rows, range(p), t_s),
        beta=_grab(xi_rows, range(p), c_a),
        beta_prime=_grab(xi_rows, range(p), c_h),
        C_dprime=_grab(y_rows, range(mk), t_s),
        gamma=_grab(y_rows, range(mk), c_a),
        L_dprime=_grab(theta_rows, range(mk), t_s),
        lam=_grab(theta_rows, range(mk), c_a),
        x_rows=tuple(tuple(frame_components_to_coordinates(row, adapted)) for row in x_rows),
        xi_rows=tuple(tuple(frame_components_to_coordinates(row, adapted)) for row in xi_rows),
        y_rows=tuple(tuple(frame_components_to_coordinates(row, adapted)) for row in y_rows),
        theta_rows=tuple(tuple(frame_components_to_coordinates(row, adapted)) for row in theta_rows),
        eprime_only_rows=tuple(
            tuple(frame_components_to_coordinates(row, adapted)) for row in eprime_only
        ),
        det_e=det_e,
        det_eprime=det_ep,
        leaf_conditions_ok=_leaf_conditions_hold(adapted, x_rows, xi_rows, y_rows, theta_rows),
    )
    return cf


def _leaf_conditions_hold(adapted, x_rows, xi_rows, y_rows, theta_rows) -> bool:
    """Along the leaf the canonical tangent coefficients must collapse to the
    seed values (identity/zero pattern); fails when the chart split does not
    actually match the structure's characteristic distributions on the leaf."""
    r, mk, p = adapted.r, adapted.mk, adapted.p
    on_leaf = adapted.leaf_assignment()
    t_h = range(r, r + mk)
    t_s = range(r + mk, r + mk + p)

    def vanishes(rows, col_range):
        for row in rows:
            for c in col_range:
                try:
                    if not row[c].set_vars(on_leaf).is_zero():
                        return False
                except ZeroDivisionError:
                    return False
        return True

    return (
        vanishes(x_rows, t_h)
        and vanishes(x_rows, t_s)
        and vanishes(xi_rows, t_h)
        and vanishes(xi_rows, t_s)
        and vanishes(y_rows, t_s)
        and vanishes(theta_rows, t_s)
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

    for pt in grid:
        if not cf.denominators_nonzero_at(pt):
            continue
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
        if decomposable and not _splitting_holds(cf, pt, h_pt, t_fol, ann_fol):
            failures.append((f"decomposition of E fails at {pt}", None))
    return Verdict(
        "coupling equivalences",
        not failures,
        tuple(failures),
        note="decomposable" if decomposable else "not decomposable",
    )


def _splitting_holds(cf, pt, h_pt, t_fol, ann_fol) -> bool:
    """E = [E n (TF (+) ann H)] (+) [E n (H (+) ann TF)] at the point, with
    the two pieces spanned by the Xi and X sections respectively."""
    m = cf.adapted.chart.dim
    data = cf.structure.evaluate_at(pt)
    x_vals = Subspace(2 * m, cf.eval_rows(cf.x_rows, pt)) if cf.x_rows else Subspace(2 * m)
    xi_vals = Subspace(2 * m, cf.eval_rows(cf.xi_rows, pt)) if cf.xi_rows else Subspace(2 * m)
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
    mat = Matrix(entries) if entries else Matrix(())
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
    r, mk, p = cf.r, cf.mk, cf.p
    rows = []
    for u in range(p):
        rows.append([cf.B_prime[u][h] for h in range(mk)] + [cf.B_dprime[u][s] for s in range(p)])
    if rows:
        kernel_combos = Matrix(rows).kernel_rows()
    elif mk + p:
        kernel_combos = Matrix.identity(mk + p, RationalFunction.one(adapted.chart.names)).entries
    else:
        kernel_combos = []
    gens = list(cf.x_rows) + list(cf.xi_rows)
    zero = RationalFunction.zero(adapted.chart.names)
    for combo in kernel_combos:
        phi, psi = combo[:mk], combo[mk:]
        # assemble in frame components (c_a chosen to annihilate the X rows),
        # then convert so a nontrivial chi twist is folded in correctly
        frame_row = [zero] * (2 * m)
        for hi in range(mk):
            frame_row[m + r + hi] = phi[hi]
        for si in range(p):
            frame_row[m + r + mk + si] = psi[si]
        for ai in range(r):
            acc = zero
            for hi in range(mk):
                acc = acc + phi[hi] * cf.A_prime[ai][hi]
            for si in range(p):
                acc = acc + psi[si] * cf.A_dprime[ai][si]
            frame_row[m + ai] = -acc
        gens.append(tuple(frame_components_to_coordinates(frame_row, adapted)))
    return tuple(gens)


def transversal_structure(
    s: BigIsotropicStructure, cf: CanonicalFrame, grid=None
) -> BigIsotropicStructure:
    """The induced structure on the slice {x = 0}, framed by the restricted
    Xi sections (and Y/Theta for the orthogonal bundle)."""
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

    n = sub.dim
    sub_grid = grid if grid is not None else default_grid(n, cap=12)
    _check_transversal_constancy(s, adapted, sub_grid)

    structure = BigIsotropicStructure.build(
        sub,
        [_row_to_section(sub, row) for row in e_frame],
        [_row_to_section(sub, row) for row in ep_frame],
        grid=sub_grid,
    )
    for pt in sub_grid:
        ambient_pt = _embed_point(adapted, pt)
        if not cf.denominators_nonzero_at(ambient_pt):
            continue
        data = s.evaluate_at(ambient_pt)
        incl = _inclusion_map(adapted)
        expected = pullback_subspace(incl, data.E)
        got = structure.evaluate_at(pt)
        if expected != got.E:
            raise NormalizationError(f"transversal frame disagrees with the pullback at {pt}")
        if not is_graph_type(got):
            raise NormalizationError(f"transversal structure is not of graph type at {pt}")
    return structure


def _check_transversal_constancy(s, adapted, sub_grid):
    dims = set()
    dims_prime = set()
    incl = _inclusion_map(adapted)
    for pt in sub_grid:
        data = s.evaluate_at(_embed_point(adapted, pt))
        dims.add(space_S(incl, data.E).dim)
        dims_prime.add(space_S(incl, data.E_prime).dim)
        if len(dims) > 1 or len(dims_prime) > 1:
            raise NormalizationError(
                f"slice-window dimensions jump across the transversal: {sorted(dims)} / {sorted(dims_prime)}"
            )


def _inclusion_map(adapted: AdaptedChart) -> LinearMap:
    m = adapted.chart.dim
    sub_idx = adapted.middle + adapted.transverse
    rows = [[1 if sub_idx[j] == i else 0 for j in range(len(sub_idx))] for i in range(m)]
    return LinearMap.from_rows(rows)


def _embed_point(adapted: AdaptedChart, pt):
    m = adapted.chart.dim
    full = [Fraction(0)] * m
    for value, i in zip(pt, adapted.middle + adapted.transverse):
        full[i] = as_fraction(value)
    return tuple(full)


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


def _project_polynomial(p: Polynomial, sub_chart: Chart, index_map) -> Polynomial:
    terms = {}
    for exps, coeff in p.terms.items():
        new = [0] * sub_chart.dim
        for full_idx, e in enumerate(exps):
            if e == 0:
                continue
            if full_idx not in index_map:
                raise NormalizationError("restricted component still uses a leaf coordinate")
            new[index_map[full_idx]] = e
        terms[tuple(new)] = coeff
    return Polynomial(sub_chart.names, terms)


def _row_to_section(sub_chart: Chart, row) -> BigSection:
    n = sub_chart.dim
    # rows arrive as rational functions over the FULL chart but only using
    # slice coordinates; project them onto the slice polynomial ring
    full_vars = row[0].vars
    index_map = {}
    for i, name in enumerate(full_vars):
        if name in sub_chart.names:
            index_map[i] = sub_chart.index(name)
    polys = []
    for entry in row:
        if not entry.is_polynomial():
            raise NormalizationError("transversal components must be polynomial after clearing denominators")
        polys.append(_project_polynomial(entry.as_polynomial(), sub_chart, index_map))
    return BigSection(
        PolyVectorField(sub_chart, polys[:n]), PolyOneForm(sub_chart, polys[n:])
    )
