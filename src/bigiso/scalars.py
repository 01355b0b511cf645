"""Exact scalar arithmetic: multivariate polynomials over Q and their fractions.

Rationals are plain ``fractions.Fraction`` (already reduced, positive
denominator).  Polynomials are sparse dictionaries from exponent tuples to
nonzero Fraction coefficients, with a fixed graded-lexicographic term order
used for canonical printing and hashing.  Rational functions are stored as
numerator/denominator pairs; equality is decided by cross-multiplication, so
no multivariate gcd machinery is needed (only cheap cancellations are
performed to keep expressions small).
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Mapping, Sequence

Exponents = tuple


def as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected an exact rational, got {type(value).__name__}")


class ScaledPoint:
    """A rational point as integer numerators over one common denominator.

    Polynomial.eval converts a plain point to one; a caller that evaluates
    many polynomials at the same point converts it once and passes it.
    """

    __slots__ = ("nums", "den")

    def __init__(self, point: Sequence):
        point = [as_fraction(c) for c in point]
        self.den = lcm(*(c.denominator for c in point))
        self.nums = tuple(c.numerator * (self.den // c.denominator) for c in point)

    def __len__(self):
        return len(self.nums)


_ZERO = Fraction(0)


def _grlex_key(exps):
    # graded lexicographic: compare total degree first, then the tuple
    return (sum(exps), exps)


class Polynomial:
    """Sparse multivariate polynomial with Fraction coefficients.

    ``vars`` is the ordered tuple of coordinate names; ``terms`` maps
    exponent tuples (one entry per variable) to nonzero coefficients.
    Instances are immutable; all operations return new polynomials.
    """

    __slots__ = ("vars", "terms", "_hash")

    def __init__(self, vars: Sequence[str], terms: Mapping[Exponents, Fraction]):
        vars = tuple(vars)
        clean = {}
        for exps, coeff in terms.items():
            coeff = as_fraction(coeff)
            if coeff == 0:
                continue
            exps = tuple(int(e) for e in exps)
            if len(exps) != len(vars):
                raise ValueError("exponent tuple length does not match variables")
            if any(e < 0 for e in exps):
                raise ValueError("negative exponent")
            clean[exps] = coeff
        object.__setattr__(self, "vars", vars)
        object.__setattr__(self, "terms", clean)
        object.__setattr__(self, "_hash", None)

    @classmethod
    def _canonical(cls, vars: tuple, terms: dict) -> "Polynomial":
        """A polynomial on terms that are canonical already (int exponent
        tuples of length len(vars), nonzero Fraction coefficients), without
        __init__'s checks: the ring operations build only such terms."""
        p = object.__new__(cls)
        object.__setattr__(p, "vars", vars)
        object.__setattr__(p, "terms", terms)
        object.__setattr__(p, "_hash", None)
        return p

    def __setattr__(self, *_):
        raise AttributeError("Polynomial is immutable")

    # ---- constructors -------------------------------------------------
    @classmethod
    def zero(cls, vars) -> "Polynomial":
        return cls(vars, {})

    @classmethod
    def constant(cls, vars, value) -> "Polynomial":
        vars = tuple(vars)
        return cls(vars, {(0,) * len(vars): as_fraction(value)})

    @classmethod
    def one(cls, vars) -> "Polynomial":
        return cls.constant(vars, 1)

    @classmethod
    def variable(cls, vars, which) -> "Polynomial":
        vars = tuple(vars)
        idx = which if isinstance(which, int) else vars.index(which)
        exps = [0] * len(vars)
        exps[idx] = 1
        return cls(vars, {tuple(exps): Fraction(1)})

    # ---- predicates ----------------------------------------------------
    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(sum(e) == 0 for e in self.terms)

    def constant_value(self) -> Fraction:
        if not self.terms:
            return Fraction(0)
        if not self.is_constant():
            raise ValueError("polynomial is not constant")
        return next(iter(self.terms.values()))

    def total_degree(self) -> int:
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    # ---- ring operations -------------------------------------------------
    def _coerce(self, other) -> "Polynomial":
        if isinstance(other, Polynomial):
            if other.vars != self.vars:
                raise ValueError(f"variable mismatch: {self.vars} vs {other.vars}")
            return other
        return Polynomial.constant(self.vars, other)

    def __add__(self, other):
        if isinstance(other, RationalFunction):
            return NotImplemented
        other = self._coerce(other)
        terms = dict(self.terms)
        for exps, coeff in other.terms.items():
            new = terms.get(exps, Fraction(0)) + coeff
            if new == 0:
                terms.pop(exps, None)
            else:
                terms[exps] = new
        return Polynomial._canonical(self.vars, terms)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial._canonical(self.vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, RationalFunction):
            return NotImplemented
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) + (-self)

    def __mul__(self, other):
        if isinstance(other, RationalFunction):
            return NotImplemented
        other = self._coerce(other)
        terms: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                exps = tuple(a + b for a, b in zip(e1, e2))
                new = terms.get(exps, Fraction(0)) + c1 * c2
                if new == 0:
                    terms.pop(exps, None)
                else:
                    terms[exps] = new
        return Polynomial._canonical(self.vars, terms)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result = Polynomial.one(self.vars)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            c = as_fraction(other)
            if c == 0:
                raise ZeroDivisionError("division by zero")
            return self * (1 / c)
        if isinstance(other, Polynomial):
            return RationalFunction(self, other)
        return NotImplemented

    # ---- calculus ------------------------------------------------------
    def derivative(self, which) -> "Polynomial":
        idx = which if isinstance(which, int) else self.vars.index(which)
        terms = {}
        for exps, coeff in self.terms.items():
            k = exps[idx]
            if k == 0:
                continue
            new = list(exps)
            new[idx] = k - 1
            terms[tuple(new)] = coeff * k
        return Polynomial._canonical(self.vars, terms)

    # ---- evaluation / substitution --------------------------------------
    def eval(self, point) -> Fraction:
        """The value at a point (Fractions and ints, or a ScaledPoint).

        With the point as integers a_i / d, a term c x^e is
        c.numerator * a^e / (c.denominator * d^|e|): the terms are summed
        as integers grouped by that denominator, and one Fraction is built
        at the end.
        """
        if len(point) != len(self.vars):
            raise ValueError("point length does not match variables")
        terms = self.terms
        if not terms or (len(terms) == 1 and not any(next(iter(terms)))):
            if not isinstance(point, ScaledPoint):
                for c in point:
                    as_fraction(c)  # rejects an inexact point as the general case does
            return next(iter(terms.values()), _ZERO)
        if not isinstance(point, ScaledPoint):
            point = ScaledPoint(point)
        nums, den = point.nums, point.den
        sums: dict = {}
        for exps, coeff in terms.items():
            value, deg = coeff.numerator, 0
            for a, e in zip(nums, exps):
                if e:
                    value *= a**e
                    deg += e
            key = coeff.denominator if den == 1 else coeff.denominator * den**deg
            sums[key] = sums.get(key, 0) + value
        if len(sums) == 1:
            (key, total), = sums.items()
            return Fraction(total, key)
        common = lcm(*sums)
        return Fraction(sum(total * (common // key) for key, total in sums.items()), common)

    def substitute(self, images: Sequence["Polynomial"]) -> "Polynomial":
        """Full composition: replace variable i by ``images[i]`` (all over a
        common new variable set)."""
        if len(images) != len(self.vars):
            raise ValueError("need one image per variable")
        new_vars = images[0].vars if images else self.vars
        result = Polynomial.zero(new_vars)
        for exps, coeff in self.terms.items():
            term = Polynomial.constant(new_vars, coeff)
            for img, e in zip(images, exps):
                for _ in range(e):
                    term = term * img
            result = result + term
        return result

    def set_vars(self, assignment: Mapping[int, Fraction]) -> "Polynomial":
        """Partial evaluation: freeze some variables to rational constants,
        keeping the same variable set."""
        terms: dict = {}
        for exps, coeff in self.terms.items():
            value = coeff
            new = list(exps)
            for idx, c in assignment.items():
                e = exps[idx]
                if e:
                    value *= as_fraction(c) ** e
                new[idx] = 0
            if value == 0:
                continue
            key = tuple(new)
            acc = terms.get(key, Fraction(0)) + value
            if acc == 0:
                terms.pop(key, None)
            else:
                terms[key] = acc
        return Polynomial(self.vars, terms)

    def recast(self, vars: Sequence[str]) -> "Polynomial":
        """The same polynomial over another variable tuple, matching
        variables by name; raises ValueError if a variable that occurs is
        missing from ``vars``, so no two terms can land on one monomial."""
        vars = tuple(vars)
        terms = {}
        for exps, coeff in self.terms.items():
            new = [0] * len(vars)
            for name, e in zip(self.vars, exps):
                if e:
                    if name not in vars:
                        raise ValueError(f"variable {name} of {self} is not among {vars}")
                    new[vars.index(name)] = e
            terms[tuple(new)] = coeff
        return Polynomial._canonical(vars, terms)

    # ---- division ---------------------------------------------------------
    def leading(self):
        """Leading (exponents, coefficient) in graded-lex order."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        exps = max(self.terms, key=_grlex_key)
        return exps, self.terms[exps]

    def exact_div(self, divisor: "Polynomial"):
        """Exact quotient self/divisor, or None if it does not divide."""
        divisor = self._coerce(divisor)
        if divisor.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        if self.is_zero():
            return Polynomial.zero(self.vars)
        d_exps, d_coeff = divisor.leading()
        quotient = Polynomial.zero(self.vars)
        rem = self
        while not rem.is_zero():
            r_exps, r_coeff = rem.leading()
            diff = tuple(a - b for a, b in zip(r_exps, d_exps))
            if any(e < 0 for e in diff):
                return None
            mono = Polynomial(self.vars, {diff: r_coeff / d_coeff})
            quotient = quotient + mono
            rem = rem - mono * divisor
        return quotient

    # ---- canonical form -------------------------------------------------
    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: _grlex_key(kv[0]), reverse=True)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(self.vars, other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.vars == other.vars and self.terms == other.terms

    def __hash__(self):
        if self._hash is None:
            h = hash((self.vars, tuple(self.sorted_terms())))
            object.__setattr__(self, "_hash", h)
        return self._hash

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for exps, coeff in self.sorted_terms():
            factors = []
            for name, e in zip(self.vars, exps):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            mono = "*".join(factors)
            if not mono:
                text = str(coeff)
            elif coeff == 1:
                text = mono
            elif coeff == -1:
                text = f"-{mono}"
            else:
                text = f"{coeff}*{mono}"
            parts.append(text)
        out = parts[0]
        for p in parts[1:]:
            out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
        return out

    def __repr__(self):
        return f"Polynomial({self})"


def _monomial_content(*polys: Polynomial):
    """Componentwise-min exponent vector over all terms of all polynomials."""
    mins = None
    for p in polys:
        for exps in p.terms:
            if mins is None:
                mins = list(exps)
            else:
                mins = [min(a, b) for a, b in zip(mins, exps)]
    return tuple(mins) if mins else None


def _divide_monomial(p: Polynomial, mono: Exponents) -> Polynomial:
    return Polynomial(p.vars, {tuple(a - b for a, b in zip(e, mono)): c for e, c in p.terms.items()})


class RationalFunction:
    """Fraction of two polynomials, normalized only by cheap cancellations.

    The denominator is kept nonzero with leading coefficient 1.  Equality is
    cross-multiplication, so distinct representatives of the same fraction
    compare equal.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: Polynomial, den: Polynomial):
        if not isinstance(num, Polynomial) or not isinstance(den, Polynomial):
            raise TypeError("RationalFunction needs Polynomial numerator and denominator")
        if num.vars != den.vars:
            raise ValueError("variable mismatch")
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if num.is_zero():
            den = Polynomial.one(num.vars)
        else:
            mono = _monomial_content(num, den)
            if mono and any(mono):
                num = _divide_monomial(num, mono)
                den = _divide_monomial(den, mono)
            quotient = num.exact_div(den)
            if quotient is not None:
                num, den = quotient, Polynomial.one(num.vars)
        if not den.is_constant() or den.constant_value() != 1:
            lead = den.leading()[1] if not den.is_zero() else Fraction(1)
            num = num * (1 / lead)
            den = den * (1 / lead)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, *_):
        raise AttributeError("RationalFunction is immutable")

    @classmethod
    def from_poly(cls, p: Polynomial) -> "RationalFunction":
        return cls(p, Polynomial.one(p.vars))

    @classmethod
    def zero(cls, vars) -> "RationalFunction":
        return cls.from_poly(Polynomial.zero(vars))

    @classmethod
    def one(cls, vars) -> "RationalFunction":
        return cls.from_poly(Polynomial.one(vars))

    @property
    def vars(self):
        return self.num.vars

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_polynomial(self) -> bool:
        return self.den.is_constant()

    def as_polynomial(self) -> Polynomial:
        if not self.is_polynomial():
            raise ValueError(f"not a polynomial: {self}")
        return self.num * (1 / self.den.constant_value())

    def _coerce(self, other) -> "RationalFunction":
        if isinstance(other, RationalFunction):
            if other.vars != self.vars:
                raise ValueError("variable mismatch")
            return other
        if isinstance(other, Polynomial):
            return RationalFunction.from_poly(self.num._coerce(other))
        return RationalFunction.from_poly(Polynomial.constant(self.vars, other))

    def __add__(self, other):
        other = self._coerce(other)
        return RationalFunction(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        return RationalFunction(-self.num, self.den)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) + (-self)

    def __mul__(self, other):
        other = self._coerce(other)
        return RationalFunction(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        return RationalFunction(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    def inverse(self) -> "RationalFunction":
        if self.is_zero():
            raise ZeroDivisionError("zero has no inverse")
        return RationalFunction(self.den, self.num)

    def __eq__(self, other):
        try:
            other = self._coerce(other)
        except (TypeError, ValueError):
            return NotImplemented
        return (self.num * other.den) == (other.num * self.den)

    __hash__ = None  # no cheap canonical form; do not use as dict keys

    def eval(self, point) -> Fraction:
        d = self.den.eval(point)
        if d == 0:
            raise ZeroDivisionError(f"denominator vanishes at {tuple(point)}")
        return self.num.eval(point) / d

    def set_vars(self, assignment) -> "RationalFunction":
        den = self.den.set_vars(assignment)
        if den.is_zero():
            raise ZeroDivisionError("denominator vanishes on the assigned locus")
        return RationalFunction(self.num.set_vars(assignment), den)

    def __str__(self):
        if self.is_polynomial():
            return str(self.as_polynomial())
        return f"({self.num})/({self.den})"

    def __repr__(self):
        return f"RationalFunction({self})"
