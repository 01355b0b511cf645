"""Exact scalar arithmetic: multivariate polynomials over Q and their fractions.

Rationals are plain ``fractions.Fraction`` (already reduced, positive
denominator).  A polynomial is stored as content times primitive part: one
positive integer denominator ``den`` over a sparse dictionary ``nums`` from
exponent tuples to nonzero integer numerators, with ``den`` and the
numerators coprime (the zero polynomial has den 1).  That form is unique, so
equality and hashing compare it directly, and the ring operations,
evaluation and exact division all run on Python integers; ``terms`` is a
Fraction view built on demand.  ``eval_rows`` is the one evaluation kernel:
it gives a frame's rows at each of many points as integers, each row a
positive multiple of its values, and ``Polynomial.eval`` is the Fraction of
the single row (p,).  ``substitute`` is the one composition, and
``set_vars`` substitutes constants for the frozen variables.
``Polynomial.dot`` is the one kernel for sums of products: it brings every
product of a sum to one common denominator, accumulates them all into one
numerator table and normalises once; the product operator and every
accumulation in the calculus and membership layers go through it.
A fixed graded-lexicographic term order gives the printed order and the
leading term.  Rational functions are stored as numerator/denominator
pairs; equality is decided by cross-multiplication, so no multivariate gcd
machinery is needed (only cheap cancellations are performed to keep
expressions small).
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from itertools import accumulate
from math import gcd, lcm
from operator import add, mul, neg, sub
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

    Polynomial.eval and eval_rows convert a plain point to one; a caller
    that evaluates many polynomials at the same point converts it once and
    passes it.
    """

    __slots__ = ("nums", "den")

    def __init__(self, point: Sequence):
        point = [as_fraction(c) for c in point]
        self.den = lcm(*(c.denominator for c in point))
        self.nums = tuple(c.numerator * (self.den // c.denominator) for c in point)

    def __len__(self):
        return len(self.nums)


def eval_rows(rows: Sequence[Sequence], points):
    """Yield a frame's rows at each point as integer tuples, lazily.

    Row i at a point is a positive multiple of the values of rows[i] there,
    so its span and pivot columns are those of the values and an exact rank
    can be taken on the integers alone.  The term table is built once per
    call: each nonzero term of row i is (column, coefficient over the row's
    common denominator den_i, total degree, support ((var, exp), ...)).  With
    a point as integers a_v / d, row i is scaled by den_i * d^top_i, top_i
    being the row's top degree, so a term of degree deg takes d^(top_i - deg);
    a term stops multiplying at its first zero coordinate.  Each point is
    converted once; an inexact coordinate raises TypeError and a wrong
    length ValueError.
    """
    table, widths = [], set()
    for row in rows:
        den = lcm(*(p.den for p in row))
        terms = []
        for column, p in enumerate(row):
            widths.add(len(p.vars))
            f = den // p.den
            for exps, c in p.nums.items():
                support = tuple((v, e) for v, e in enumerate(exps) if e)
                terms.append((column, c * f, sum(exps), support))
        table.append((len(row), max((deg for _, _, deg, _ in terms), default=0), terms))
    top = max((t for _, t, _ in table), default=0)
    for point in points:
        if not isinstance(point, ScaledPoint):
            point = ScaledPoint(point)
        coords, d = point.nums, point.den
        if widths and widths != {len(coords)}:
            raise ValueError("point length does not match variables")
        powers = [d**k for k in range(top + 1)]
        out = []
        for width, row_top, terms in table:
            values = [0] * width
            for column, c, deg, support in terms:
                for v, e in support:
                    a = coords[v]
                    if not a:
                        break
                    c *= a**e
                else:
                    values[column] += c * powers[row_top - deg]
            out.append(tuple(values))
        yield out


_ZERO = Fraction(0)
_set = object.__setattr__


def _grlex_key(exps):
    # graded lexicographic: compare total degree first, then the tuple
    return (sum(exps), exps)


class Polynomial:
    """Sparse multivariate polynomial over Q, as integer numerators over one
    denominator.

    ``vars`` is the ordered tuple of coordinate names; ``nums`` maps
    exponent tuples (one entry per variable) to nonzero integers and ``den``
    is a positive integer coprime to all of them, so the coefficient of
    x^e is nums[e] / den.  Instances are immutable; all operations return
    new polynomials.
    """

    __slots__ = ("vars", "nums", "den", "_hash")

    def __init__(self, vars: Sequence[str], terms: Mapping[Exponents, Fraction]):
        vars = tuple(vars)
        clean = {}
        for exps, coeff in terms.items():
            coeff = as_fraction(coeff)
            if coeff == 0:
                continue
            if not all(isinstance(e, int) for e in exps):
                raise ValueError(f"non-integer exponent in {exps}")
            exps = tuple(int(e) for e in exps)  # a bool exponent becomes an int
            if len(exps) != len(vars):
                raise ValueError("exponent tuple length does not match variables")
            if any(e < 0 for e in exps):
                raise ValueError("negative exponent")
            clean[exps] = coeff
        # over the lcm of reduced denominators the numerators are coprime to it
        den = lcm(*(c.denominator for c in clean.values()))
        _set(self, "vars", vars)
        _set(self, "nums", {e: c.numerator * (den // c.denominator) for e, c in clean.items()})
        _set(self, "den", den)

    @classmethod
    def _canonical(cls, vars: tuple, nums: dict, den: int = 1) -> "Polynomial":
        """A polynomial on int exponent tuples of length len(vars) and nonzero
        int numerators over den > 0, without __init__'s checks (the ring
        operations build only such forms); the common factor of den and the
        numerators is divided out."""
        if den != 1:
            g = gcd(den, *nums.values())
            if g != 1:
                den //= g
                nums = {e: c // g for e, c in nums.items()}
        p = object.__new__(cls)
        _set(p, "vars", vars)
        _set(p, "nums", nums)
        _set(p, "den", den)
        return p

    def __setattr__(self, *_):
        raise AttributeError("Polynomial is immutable")

    @property
    def terms(self) -> dict:
        """The coefficients as a fresh {exponents: Fraction} dictionary."""
        den = self.den
        return {e: Fraction(c, den) for e, c in self.nums.items()}

    # ---- constructors -------------------------------------------------
    @classmethod
    def zero(cls, vars) -> "Polynomial":
        return cls._canonical(tuple(vars), {})

    @classmethod
    def constant(cls, vars, value) -> "Polynomial":
        vars = tuple(vars)
        value = as_fraction(value)
        if not value:
            return cls._canonical(vars, {})
        return cls._canonical(vars, {(0,) * len(vars): value.numerator}, value.denominator)

    @classmethod
    def one(cls, vars) -> "Polynomial":
        return cls.constant(vars, 1)

    @classmethod
    def variable(cls, vars, which) -> "Polynomial":
        vars = tuple(vars)
        idx = which if isinstance(which, int) else vars.index(which)
        if idx not in range(len(vars)):
            raise ValueError(f"no variable {which!r} in {vars}")
        exps = [0] * len(vars)
        exps[idx] = 1
        return cls._canonical(vars, {tuple(exps): 1})

    # ---- predicates ----------------------------------------------------
    def is_zero(self) -> bool:
        return not self.nums

    def is_constant(self) -> bool:
        return all(sum(e) == 0 for e in self.nums)

    def constant_value(self) -> Fraction:
        if not self.nums:
            return _ZERO
        if not self.is_constant():
            raise ValueError("polynomial is not constant")
        return Fraction(next(iter(self.nums.values())), self.den)

    def total_degree(self) -> int:
        if not self.nums:
            return -1
        return max(sum(e) for e in self.nums)

    # ---- ring operations -------------------------------------------------
    def _coerce(self, other) -> "Polynomial":
        if isinstance(other, Polynomial):
            if other.vars != self.vars:
                raise ValueError(f"variable mismatch: {self.vars} vs {other.vars}")
            return other
        return Polynomial.constant(self.vars, other)

    def _scale(self, n: int, d: int = 1) -> "Polynomial":
        """self * n / d for integers n and d != 0."""
        if not n or not self.nums:
            return Polynomial._canonical(self.vars, {})
        if d < 0:
            n, d = -n, -d
        nums = self.nums if n == 1 else {e: c * n for e, c in self.nums.items()}
        return Polynomial._canonical(self.vars, nums, self.den * d)

    def _add(self, other: "Polynomial", sign: int) -> "Polynomial":
        """self + sign * other over the lcm of the two denominators."""
        den = lcm(self.den, other.den)
        fa, fb = den // self.den, sign * (den // other.den)
        nums = dict(self.nums) if fa == 1 else {e: c * fa for e, c in self.nums.items()}
        for e, c in other.nums.items():
            v = nums.get(e, 0) + c * fb
            if v:
                nums[e] = v
            else:
                del nums[e]
        return Polynomial._canonical(self.vars, nums, den)

    def __add__(self, other):
        if isinstance(other, RationalFunction):
            return NotImplemented
        return self._add(self._coerce(other), 1)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial._canonical(self.vars, {e: -c for e, c in self.nums.items()}, self.den)

    def __sub__(self, other):
        if isinstance(other, RationalFunction):
            return NotImplemented
        return self._add(self._coerce(other), -1)

    def __rsub__(self, other):
        return self._coerce(other)._add(self, -1)

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            if isinstance(other, RationalFunction):
                return NotImplemented
            c = as_fraction(other)
            return self._scale(c.numerator, c.denominator)
        return Polynomial.dot(self.vars, ((self, other, 1),))

    __rmul__ = __mul__

    @classmethod
    def dot(cls, vars, terms) -> "Polynomial":
        """The sum of sign * a * b over the (a, b, sign) triples of ``terms``,
        a and b polynomials over ``vars`` and sign an integer.

        The fused kernel behind every sum of products: each product is
        brought to the lcm of the product denominators and accumulated into
        one numerator table, which is normalised once, so no intermediate
        product or partial sum is built (Monagan and Pearce, JSC 46, 2011).
        """
        vars = tuple(vars)
        live = []
        for a, b, sign in terms:
            if a.vars != vars or b.vars != vars:
                raise ValueError(f"variable mismatch: {vars} vs {a.vars if a.vars != vars else b.vars}")
            if sign and a.nums and b.nums:
                live.append((a, b, sign))
        den = lcm(*(a.den * b.den for a, b, _ in live))
        nums: dict = {}
        get = nums.get
        for a, b, sign in live:
            f = sign * (den // (a.den * b.den))
            b_items = b.nums.items()
            for e1, c1 in a.nums.items():
                c1 *= f
                for e2, c2 in b_items:
                    exps = tuple(map(add, e1, e2))
                    nums[exps] = get(exps, 0) + c1 * c2
        return cls._canonical(vars, {e: c for e, c in nums.items() if c}, den)

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
            if not other:
                raise ZeroDivisionError("division by zero")
            # an int is its own numerator over the denominator 1
            return self._scale(other.denominator, other.numerator)
        if isinstance(other, Polynomial):
            return RationalFunction(self, other)
        return NotImplemented

    # ---- calculus ------------------------------------------------------
    def derivative(self, which) -> "Polynomial":
        idx = which if isinstance(which, int) else self.vars.index(which)
        nums = {}
        for exps, c in self.nums.items():
            k = exps[idx]
            if k == 0:
                continue
            new = list(exps)
            new[idx] = k - 1
            nums[tuple(new)] = c * k
        return Polynomial._canonical(self.vars, nums, self.den)

    # ---- evaluation / substitution --------------------------------------
    def eval(self, point) -> Fraction:
        """The value at a point (Fractions and ints, or a ScaledPoint): the
        one row (self,) of eval_rows over den * d^top, top being the total
        degree (0 for the zero polynomial).  A constant at a plain point is
        read off directly but still rejects an inexact or wrong-length point."""
        if not isinstance(point, ScaledPoint):
            nums = self.nums
            if not nums or (len(nums) == 1 and not any(next(iter(nums)))):
                if len(point) != len(self.vars):
                    raise ValueError("point length does not match variables")
                for c in point:
                    as_fraction(c)  # rejects an inexact point as the general case does
                return Fraction(next(iter(nums.values())), self.den) if nums else _ZERO
            point = ScaledPoint(point)
        ((value,),) = next(eval_rows([(self,)], (point,)))
        return Fraction(value, self.den * point.den ** max(self.total_degree(), 0))

    def substitute(self, images: Sequence["Polynomial"]) -> "Polynomial":
        """Full composition: replace variable i by ``images[i]`` (all over a
        common new variable set); each power is taken once, all in one dot."""
        if len(images) != len(self.vars):
            raise ValueError("need one image per variable")
        new_vars = images[0].vars if images else self.vars
        if self.total_degree() <= 0:  # zero or constant: no image is read
            return Polynomial.constant(new_vars, self.constant_value())
        one, terms = Polynomial.one(new_vars), []
        # powers[i][e - 1] = images[i] ** e, up to the largest exponent of x_i
        powers = [list(accumulate([img] * max(col), mul)) for img, col in zip(images, zip(*self.nums))]
        for exps, c in self.nums.items():
            a, b, *rest = [row[e - 1] for row, e in zip(powers, exps) if e] + [one, one]
            for f in rest[:-2]:  # powers beyond the first two, not the padding
                a = a * f
            terms.append((a, b, c))
        return Polynomial.dot(new_vars, terms)._scale(1, self.den)

    def set_vars(self, assignment: Mapping[int, Fraction]) -> "Polynomial":
        """Partial evaluation: freeze the variables with index i in
        ``assignment`` to the rationals assignment[i], keeping the same
        variable set; the substitution of those constants for them."""
        n = len(self.vars)
        if any(i not in range(n) for i in assignment):
            raise ValueError(f"assignment names a variable outside range({n})")
        images = [Polynomial.variable(self.vars, i) for i in range(n)]
        for i, value in assignment.items():
            images[i] = Polynomial.constant(self.vars, value)
        return self.substitute(images)

    def recast(self, vars: Sequence[str]) -> "Polynomial":
        """The same polynomial over another variable tuple, matching
        variables by name; raises ValueError if a variable that occurs is
        missing from ``vars``, so no two terms can land on one monomial."""
        vars = tuple(vars)
        nums = {}
        for exps, c in self.nums.items():
            new = [0] * len(vars)
            for name, e in zip(self.vars, exps):
                if e:
                    if name not in vars:
                        raise ValueError(f"variable {name} of {self} is not among {vars}")
                    new[vars.index(name)] = e
            nums[tuple(new)] = c
        return Polynomial._canonical(vars, nums, self.den)

    # ---- division ---------------------------------------------------------
    def leading(self):
        """Leading (exponents, numerator) in graded-lex order; the leading
        coefficient is numerator / den."""
        if not self.nums:
            raise ValueError("zero polynomial has no leading term")
        exps = max(self.nums, key=_grlex_key)
        return exps, self.nums[exps]

    def exact_div(self, divisor: "Polynomial"):
        """Exact quotient self/divisor, or None if it does not divide.

        Leading-term division of the integer numerator tables A / B, since
        (A / a) / (B / b) = (A / B) * b / a.  The remainder is one integer
        table R standing for R / scale, scaled up only when the divisor's
        leading numerator does not divide the leading term, and its terms
        are taken in descending graded-lexicographic order from a heap
        (Monagan and Pearce, JSC 46, 2011), so no intermediate polynomial or
        Fraction is built.
        """
        divisor = self._coerce(divisor)
        if divisor.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        d_exps, lead = divisor.leading()
        if not any(d_exps):  # a constant divides everything
            return self._scale(divisor.den, lead)
        rest = [(e, c) for e, c in divisor.nums.items() if e != d_exps]
        rem = dict(self.nums)
        heap = [(-sum(e), tuple(map(neg, e)), e) for e in rem]
        heapify(heap)
        quotient, scale = [], 1
        while heap:
            exps = heappop(heap)[2]
            c = rem.pop(exps)
            if not c:
                continue
            diff = tuple(map(sub, exps, d_exps))
            if min(diff) < 0:
                return None
            k = abs(lead) // gcd(c, lead)
            if k != 1:
                rem = {e: v * k for e, v in rem.items()}
                scale *= k
                c *= k
            q = c // lead
            quotient.append((diff, q, scale))
            for e, c2 in rest:
                e = tuple(map(add, diff, e))
                if e in rem:
                    rem[e] -= q * c2
                else:
                    rem[e] = -q * c2
                    heappush(heap, (-sum(e), tuple(map(neg, e)), e))
        nums = {e: q * (scale // s) * divisor.den for e, q, s in quotient}
        return Polynomial._canonical(self.vars, nums, scale * self.den)

    # ---- canonical form -------------------------------------------------
    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = Polynomial.constant(self.vars, other)
        return self.vars == other.vars and self.den == other.den and self.nums == other.nums

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            h = hash((self.vars, self.den, frozenset(self.nums.items())))
            _set(self, "_hash", h)
            return h

    def __str__(self):
        if not self.nums:
            return "0"
        den = self.den
        parts = []
        for exps, c in sorted(self.nums.items(), key=lambda kv: _grlex_key(kv[0]), reverse=True):
            factors = []
            for name, e in zip(self.vars, exps):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            mono = "*".join(factors)
            g = gcd(c, den)
            coeff = str(c // g) if g == den else f"{c // g}/{den // g}"
            if not mono:
                text = coeff
            elif c == den:
                text = mono
            elif c == -den:
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
        for exps in p.nums:
            if mins is None:
                mins = list(exps)
            else:
                mins = [min(a, b) for a, b in zip(mins, exps)]
    return tuple(mins) if mins else None


def _divide_monomial(p: Polynomial, mono: Exponents) -> Polynomial:
    nums = {tuple(a - b for a, b in zip(e, mono)): c for e, c in p.nums.items()}
    return Polynomial._canonical(p.vars, nums, p.den)


class RationalFunction:
    """Fraction of two polynomials, normalized only by cheap cancellations.

    The denominator is kept nonzero with leading coefficient 1, and it is
    the polynomial 1 whenever it is constant.  Equality is
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
        if not den.is_constant():
            _, lead = den.leading()
            num = num._scale(den.den, lead)
            den = den._scale(den.den, lead)
        _set(self, "num", num)
        _set(self, "den", den)

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
        return self.num

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
