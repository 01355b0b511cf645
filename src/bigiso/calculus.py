"""Symbolic Cartan calculus with polynomial coefficients in a fixed chart.

Vector fields and 1-forms share one component-tuple base (``_Components``);
2-forms/bivectors and 3-forms/trivectors share one skew table
(``_SkewTable``), whose ``contract`` fills leading slots.  Evaluation,
interior products and the musical maps of a 2-form / bivector are all that
one contraction.  On top: Lie bracket and derivative, exterior derivative,
the Courant bracket, the bracket that a bivector induces on 1-forms, the
self Schouten bracket of a bivector, and the complete/vertical lifts.

Sign conventions are pinned by two anchors and enforced in the test suite:
for P = d1^d2 the contraction P(dx1, dx2) is 1, and (dx^dy)(dx-axis, dy-axis)
is 1.  All other signs follow from the bracket identities asserted in tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Mapping

from .scalars import Polynomial, as_fraction


class ChartError(ValueError):
    pass


@dataclass(frozen=True)
class Chart:
    names: tuple

    def __post_init__(self):
        object.__setattr__(self, "names", tuple(self.names))
        if len(set(self.names)) != len(self.names):
            raise ChartError("coordinate names must be distinct")

    @property
    def dim(self) -> int:
        return len(self.names)

    def zero(self) -> Polynomial:
        return Polynomial.zero(self.names)

    def one(self) -> Polynomial:
        return Polynomial.one(self.names)

    def constant(self, c) -> Polynomial:
        return Polynomial.constant(self.names, c)

    def coordinate(self, which) -> Polynomial:
        return Polynomial.variable(self.names, self.index(which))

    def index(self, which) -> int:
        """Position of a coordinate given by name or by position."""
        if which in self.names:
            return self.names.index(which)
        if not isinstance(which, int) or not 0 <= which < self.dim:
            raise ChartError(f"no coordinate {which!r} in chart {self.names}")
        return which

    def tangent_chart(self) -> "Chart":
        """Chart of the tangent manifold: base names plus dotted fibre names."""
        return Chart(self.names + tuple(f"{n}_dot" for n in self.names))


def _check_chart(a, b):
    if a.chart != b.chart:
        raise ChartError(f"chart mismatch: {a.chart.names} vs {b.chart.names}")


@dataclass(frozen=True)
class _Components:
    """A section of TM or T*M: one polynomial per chart coordinate.

    Subclasses differ only in their own operation and their ``symbol``;
    equality also compares the class, so a vector field never equals a 1-form.
    """

    chart: Chart
    comps: tuple
    symbol = ""

    def __post_init__(self):
        out = []
        for c in self.comps:
            if isinstance(c, Polynomial):
                if c.vars != self.chart.names:
                    raise ChartError("component over the wrong chart")
                out.append(c)
            else:
                out.append(self.chart.constant(as_fraction(c)))
        if len(out) != self.chart.dim:
            raise ChartError("component count must match the chart dimension")
        object.__setattr__(self, "comps", tuple(out))

    @classmethod
    def zero(cls, chart: Chart):
        return cls(chart, (chart.zero(),) * chart.dim)

    @classmethod
    def coordinate(cls, chart: Chart, which):
        comps = [chart.zero()] * chart.dim
        comps[chart.index(which)] = chart.one()
        return cls(chart, comps)

    def _binop(self, other, op):
        if not isinstance(other, type(self)):
            raise ChartError("operand mismatch")
        _check_chart(self, other)
        return type(self)(self.chart, tuple(op(a, b) for a, b in zip(self.comps, other.comps)))

    def __add__(self, other):
        return self._binop(other, lambda a, b: a + b)

    def __sub__(self, other):
        return self._binop(other, lambda a, b: a - b)

    def __neg__(self):
        return type(self)(self.chart, tuple(-a for a in self.comps))

    def scale(self, f):
        return type(self)(self.chart, tuple(a * f for a in self.comps))

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.comps)

    def eval(self, point) -> tuple:
        return tuple(c.eval(point) for c in self.comps)

    def __str__(self):
        parts = [f"({c})*{self.symbol}{n}" for c, n in zip(self.comps, self.chart.names) if not c.is_zero()]
        return " + ".join(parts) if parts else "0"


class PolyVectorField(_Components):
    symbol = "d_"

    def apply(self, f: Polynomial) -> Polynomial:
        """Directional derivative of a function."""
        total = self.chart.zero()
        for i, c in enumerate(self.comps):
            total = total + c * f.derivative(i)
        return total


class PolyOneForm(_Components):
    symbol = "d"

    def pair(self, X: PolyVectorField) -> Polynomial:
        _check_chart(self, X)
        total = self.chart.zero()
        for a, x in zip(self.comps, X.comps):
            total = total + a * x
        return total


class _SkewTable:
    """Strictly increasing index tuples -> polynomial components.

    Subclasses set ``degree`` and the ``symbol`` that joins index names.
    """

    __slots__ = ("chart", "table")
    degree = 0
    symbol = ""

    def __init__(self, chart: Chart, table: Mapping[tuple, Polynomial]):
        clean = {}
        for idx, p in table.items():
            idx = tuple(idx)
            if not all(isinstance(i, int) for i in idx):
                raise ChartError("indices must be integers")
            if len(idx) != self.degree or list(idx) != sorted(set(idx)):
                raise ChartError("indices must be strictly increasing tuples")
            if not 0 <= idx[0] <= idx[-1] < chart.dim:
                raise ChartError("index out of range")
            if not isinstance(p, Polynomial):
                p = chart.constant(as_fraction(p))
            if not p.is_zero():
                clean[idx] = p
        object.__setattr__(self, "chart", chart)
        object.__setattr__(self, "table", clean)

    def __setattr__(self, *_):
        raise AttributeError("immutable")

    def component(self, *idx) -> Polynomial:
        """Fully skew component for any index tuple."""
        if len(set(idx)) != len(idx):
            return self.chart.zero()
        order = tuple(sorted(idx))
        sign = _perm_sign(idx, order)
        p = self.table.get(order, self.chart.zero())
        return p if sign == 1 else -p

    def contract(self, *args) -> dict:
        """Put ``args`` into the leading slots, one at a time.

        Returns the remaining components keyed by increasing index tuples:
        for r arguments, key J holds the sum of
        args[0]_{i_1} ... args[r-1]_{i_r} T_{i_1 ... i_r J}.  Each step walks
        only the stored entries: the argument enters the slot of index
        idx[s], which moves to the front with the permutation sign (-1)^s.
        """
        if len(args) > self.degree:
            raise ChartError(f"{type(self).__name__} takes at most {self.degree} arguments")
        zero = self.chart.zero()
        table = dict(self.table)
        for a in args:
            _check_chart(self, a)
            out = {}
            for idx, p in table.items():
                for s, i in enumerate(idx):
                    rest = idx[:s] + idx[s + 1:]
                    term = a.comps[i] * p
                    acc = out.get(rest, zero)
                    out[rest] = acc - term if s % 2 else acc + term
            table = out
        return table

    def __call__(self, *args) -> Polynomial:
        """The full contraction T(args[0], ..., args[degree - 1])."""
        if len(args) != self.degree:
            raise ChartError(f"{type(self).__name__} takes exactly {self.degree} arguments")
        return self.contract(*args).get((), self.chart.zero())

    def is_zero(self) -> bool:
        return not self.table

    def _binop(self, other, op):
        if not isinstance(other, type(self)) or other.chart != self.chart:
            raise ChartError("operand mismatch")
        keys = set(self.table) | set(other.table)
        return type(self)(self.chart, {k: op(self.table.get(k, self.chart.zero()), other.table.get(k, self.chart.zero())) for k in keys})

    def __add__(self, other):
        return self._binop(other, lambda a, b: a + b)

    def __sub__(self, other):
        return self._binop(other, lambda a, b: a - b)

    def __neg__(self):
        return type(self)(self.chart, {k: -p for k, p in self.table.items()})

    def scale(self, f):
        return type(self)(self.chart, {k: p * f for k, p in self.table.items()})

    def __eq__(self, other):
        return type(other) is type(self) and other.chart == self.chart and other.table == self.table

    def __hash__(self):
        return hash((type(self).__name__, self.chart, tuple(sorted(self.table.items()))))

    def __str__(self):
        if not self.table:
            return "0"
        parts = []
        for idx in sorted(self.table):
            names = [self.chart.names[i] for i in idx]
            parts.append(f"({self.table[idx]})*{self.symbol.join(names)}")
        return " + ".join(parts)


def _perm_sign(seq, target):
    seq = list(seq)
    sign = 1
    for i in range(len(seq)):
        if seq[i] != target[i]:
            j = seq.index(target[i], i + 1)
            seq[i], seq[j] = seq[j], seq[i]
            sign = -sign
    return sign


class PolyTwoForm(_SkewTable):
    degree = 2
    symbol = "^d"


class PolyThreeForm(_SkewTable):
    degree = 3
    symbol = "^d"


class PolyBivector(_SkewTable):
    degree = 2
    symbol = "^"


class PolyTrivector(_SkewTable):
    degree = 3
    symbol = "^"


@dataclass(frozen=True)
class BigSection:
    """A (vector field, 1-form) pair over a shared chart."""

    vf: PolyVectorField
    of: PolyOneForm

    def __post_init__(self):
        _check_chart(self.vf, self.of)

    @property
    def chart(self) -> Chart:
        return self.vf.chart

    @classmethod
    def zero(cls, chart: Chart) -> "BigSection":
        return cls(PolyVectorField.zero(chart), PolyOneForm.zero(chart))

    def __add__(self, other):
        return BigSection(self.vf + other.vf, self.of + other.of)

    def __sub__(self, other):
        return BigSection(self.vf - other.vf, self.of - other.of)

    def __neg__(self):
        return BigSection(-self.vf, -self.of)

    def scale(self, f) -> "BigSection":
        return BigSection(self.vf.scale(f), self.of.scale(f))

    def is_zero(self) -> bool:
        return self.vf.is_zero() and self.of.is_zero()

    def as_poly_row(self) -> tuple:
        return self.vf.comps + self.of.comps

    def eval(self, point) -> tuple:
        return self.vf.eval(point) + self.of.eval(point)

    def __str__(self):
        return f"({self.vf} ; {self.of})"


# --------------------------------------------------------------------------
# exterior and Lie calculus
# --------------------------------------------------------------------------

def d_function(f: Polynomial, chart: Chart) -> PolyOneForm:
    return PolyOneForm(chart, tuple(f.derivative(i) for i in range(chart.dim)))


def d_oneform(alpha: PolyOneForm) -> PolyTwoForm:
    chart = alpha.chart
    table = {}
    for i, j in combinations(range(chart.dim), 2):
        table[(i, j)] = alpha.comps[j].derivative(i) - alpha.comps[i].derivative(j)
    return PolyTwoForm(chart, table)


def d_twoform(theta: PolyTwoForm) -> PolyThreeForm:
    chart = theta.chart
    table = {}
    for i, j, k in combinations(range(chart.dim), 3):
        table[(i, j, k)] = (
            theta.component(j, k).derivative(i)
            - theta.component(i, k).derivative(j)
            + theta.component(i, j).derivative(k)
        )
    return PolyThreeForm(chart, table)


def lie_bracket(X: PolyVectorField, Y: PolyVectorField) -> PolyVectorField:
    _check_chart(X, Y)
    chart = X.chart
    comps = []
    for i in range(chart.dim):
        acc = chart.zero()
        for j in range(chart.dim):
            acc = acc + X.comps[j] * Y.comps[i].derivative(j) - Y.comps[j] * X.comps[i].derivative(j)
        comps.append(acc)
    return PolyVectorField(chart, comps)


def _contract_to(cls, T: _SkewTable, *args):
    """T with all but its last slot filled by args, as a section of kind cls."""
    out = T.contract(*args)
    return cls(T.chart, [out.get((j,), T.chart.zero()) for j in range(T.chart.dim)])


def interior_twoform(X: PolyVectorField, theta: PolyTwoForm) -> PolyOneForm:
    return _contract_to(PolyOneForm, theta, X)


def interior_threeform(X: PolyVectorField, lam: PolyThreeForm) -> PolyTwoForm:
    return PolyTwoForm(lam.chart, lam.contract(X))


def interior_wedge_threeform(X: PolyVectorField, Y: PolyVectorField, lam: PolyThreeForm) -> PolyOneForm:
    """The 1-form Z -> lam(X, Y, Z)."""
    return _contract_to(PolyOneForm, lam, X, Y)


def lie_derivative_oneform(X: PolyVectorField, alpha: PolyOneForm) -> PolyOneForm:
    """Cartan formula i(X)d(alpha) + d(alpha(X))."""
    _check_chart(X, alpha)
    return interior_twoform(X, d_oneform(alpha)) + d_function(alpha.pair(X), X.chart)


def lie_derivative_twoform(X: PolyVectorField, theta: PolyTwoForm) -> PolyTwoForm:
    return interior_threeform(X, d_twoform(theta)) + d_oneform(interior_twoform(X, theta))


# --------------------------------------------------------------------------
# Courant bracket and its companions
# --------------------------------------------------------------------------

def pairing_sections(s1: BigSection, s2: BigSection) -> Polynomial:
    """Symbolic neutral pairing of two sections."""
    _check_chart(s1.vf, s2.vf)
    half = Fraction(1, 2)
    return (s1.of.pair(s2.vf) + s2.of.pair(s1.vf)) * half


def courant_bracket(s1: BigSection, s2: BigSection) -> BigSection:
    """([X,Y], L_X beta - L_Y alpha + d(alpha(Y) - beta(X))/2)."""
    _check_chart(s1.vf, s2.vf)
    chart = s1.chart
    x, alpha = s1.vf, s1.of
    y, beta = s2.vf, s2.of
    half = Fraction(1, 2)
    cot = (
        lie_derivative_oneform(x, beta)
        - lie_derivative_oneform(y, alpha)
        + d_function(alpha.pair(y) - beta.pair(x), chart).scale(half)
    )
    return BigSection(lie_bracket(x, y), cot)


def axiom_v_defect(s1: BigSection, s2: BigSection, s3: BigSection) -> Polynomial:
    """X g(s2,s3) - g([s1,s2],s3) - g(s2,[s1,s3]) - (Z g(s1,s2) + Y g(s1,s3))/2.

    Identically zero for the Courant bracket; exposed as a polynomial so the
    test suite can assert it symbolically.
    """
    x, y, z = s1.vf, s2.vf, s3.vf
    half = Fraction(1, 2)
    return (
        x.apply(pairing_sections(s2, s3))
        - pairing_sections(courant_bracket(s1, s2), s3)
        - pairing_sections(s2, courant_bracket(s1, s3))
        - (z.apply(pairing_sections(s1, s2)) + y.apply(pairing_sections(s1, s3))) * half
    )


def leibniz_defect(s1: BigSection, s2: BigSection, f: Polynomial) -> BigSection:
    """[s1, f s2] - (f [s1,s2] + (X f) s2 - g(s1,s2) (0, df)) as a section."""
    chart = s1.chart
    lhs = courant_bracket(s1, s2.scale(f))
    rhs = (
        courant_bracket(s1, s2).scale(f)
        + s2.scale(s1.vf.apply(f))
        - BigSection(PolyVectorField.zero(chart), d_function(f, chart)).scale(pairing_sections(s1, s2))
    )
    return lhs - rhs


# --------------------------------------------------------------------------
# bivector machinery
# --------------------------------------------------------------------------

def sharp(P: PolyBivector, alpha: PolyOneForm) -> PolyVectorField:
    """Contraction on the first slot: the vector with <beta, sharp(alpha)> = P(alpha, beta)."""
    return _contract_to(PolyVectorField, P, alpha)


def flat(theta: PolyTwoForm, X: PolyVectorField) -> PolyOneForm:
    return interior_twoform(X, theta)


def p_bracket_oneforms(P: PolyBivector, alpha: PolyOneForm, beta: PolyOneForm) -> PolyOneForm:
    """L_{sharp alpha} beta - L_{sharp beta} alpha - d P(alpha, beta)."""
    chart = alpha.chart
    return (
        lie_derivative_oneform(sharp(P, alpha), beta)
        - lie_derivative_oneform(sharp(P, beta), alpha)
        - d_function(P(alpha, beta), chart)
    )


def schouten_squared(P: PolyBivector) -> PolyTrivector:
    """The self Schouten bracket [P, P] as a trivector.

    Normalized so that P({a,b}_P, c) = c([sharp a, sharp b]) + [P,P](a,b,c)/2
    holds identically (asserted in tests by brute force).
    """
    chart = P.chart
    table = {}
    for i, j, k in combinations(range(chart.dim), 3):
        acc = chart.zero()
        for l in range(chart.dim):
            acc = acc + (
                P.component(l, i) * P.component(j, k).derivative(l)
                + P.component(l, j) * P.component(k, i).derivative(l)
                + P.component(l, k) * P.component(i, j).derivative(l)
            )
        table[(i, j, k)] = acc * 2
    return PolyTrivector(chart, table)


def trivector_contract_two(T: PolyTrivector, a: PolyOneForm, b: PolyOneForm) -> PolyVectorField:
    """The vector V with <c, V> = T(a, b, c) for every 1-form c."""
    return _contract_to(PolyVectorField, T, a, b)


def wedge_vectors(X: PolyVectorField, Y: PolyVectorField) -> PolyBivector:
    chart = X.chart
    table = {}
    for i, j in combinations(range(chart.dim), 2):
        table[(i, j)] = X.comps[i] * Y.comps[j] - X.comps[j] * Y.comps[i]
    return PolyBivector(chart, table)


def graph_section_theta(theta: PolyTwoForm, X: PolyVectorField) -> BigSection:
    return BigSection(X, flat(theta, X))


def graph_section_P(P: PolyBivector, sigma: PolyOneForm) -> BigSection:
    return BigSection(sharp(P, sigma), sigma)


# --------------------------------------------------------------------------
# tangent lifts
# --------------------------------------------------------------------------

def _lift_poly(f: Polynomial, tangent: Chart) -> Polynomial:
    """Interpret a base-chart polynomial on the tangent chart."""
    m = len(f.vars)
    return Polynomial(tangent.names, {e + (0,) * m: c for e, c in f.terms.items()})


def vertical_lift(X: PolyVectorField, tangent: Chart) -> PolyVectorField:
    m = X.chart.dim
    comps = [tangent.zero()] * m + [_lift_poly(c, tangent) for c in X.comps]
    return PolyVectorField(tangent, comps)


def _fibre_derivatives(comps, tangent: Chart) -> list:
    """xdot^j (dc/dx^j) on the tangent chart, for each base component c."""
    m = len(comps)
    out = []
    for c in comps:
        acc = tangent.zero()
        for j in range(m):
            acc = acc + tangent.coordinate(m + j) * _lift_poly(c.derivative(j), tangent)
        out.append(acc)
    return out


def complete_lift(X: PolyVectorField, tangent: Chart) -> PolyVectorField:
    """X^C = X^i d_i + xdot^j (dX^i/dx^j) d_{xdot^i}."""
    comps = [_lift_poly(c, tangent) for c in X.comps]
    return PolyVectorField(tangent, comps + _fibre_derivatives(X.comps, tangent))


def vertical_lift_form(alpha: PolyOneForm, tangent: Chart) -> PolyOneForm:
    m = alpha.chart.dim
    comps = [_lift_poly(c, tangent) for c in alpha.comps] + [tangent.zero()] * m
    return PolyOneForm(tangent, comps)


def complete_lift_form(alpha: PolyOneForm, tangent: Chart) -> PolyOneForm:
    """alpha^C = xdot^j (d alpha_i / dx^j) dx^i + alpha_i dxdot^i."""
    fibre = [_lift_poly(c, tangent) for c in alpha.comps]
    return PolyOneForm(tangent, _fibre_derivatives(alpha.comps, tangent) + fibre)


def lift_section(s: BigSection, tangent: Chart, kind: str) -> BigSection:
    if kind == "complete":
        return BigSection(complete_lift(s.vf, tangent), complete_lift_form(s.of, tangent))
    if kind == "vertical":
        return BigSection(vertical_lift(s.vf, tangent), vertical_lift_form(s.of, tangent))
    raise ValueError("kind must be 'complete' or 'vertical'")
