"""Exact scalar arithmetic: multivariate polynomials over Q and their fractions.

Rationals are plain ``fractions.Fraction`` (already reduced, positive
denominator).  A polynomial is stored as content times primitive part: one
positive integer denominator ``den`` over a sparse dictionary ``nums`` from
packed monomial keys to nonzero integer numerators, with ``den`` and the
numerators coprime (the zero polynomial has den 1).  That form is unique, so
equality and hashing compare it directly, and the ring operations,
evaluation and exact division all run on Python integers.

A monomial x^e over n variables is packed into one int of n + 1 fields of
``_WIDTH`` bits (Monagan and Pearce, CASC 2007): the total degree in the top
field, then e_0, e_1, ..., e_(n-1) down to the lowest.  Integer order on the
keys is graded-lexicographic order, a product of monomials is the sum of
their keys, and the variable set alone gives the layout.  The width rule:
every total degree stays at most ``MAX_DEGREE``, so the top bit of each
field (its guard bit) is clear, adding two keys never carries one field into
the next, and divisibility is a borrow into a guard bit on subtraction.  An
operation whose result would pass the limit raises OverflowError instead.
``terms`` is the view with exponent tuples and Fraction coefficients, built
on demand, and the constructor takes that same form.

``eval_rows`` is the one evaluation kernel: it gives a frame's rows at each
of many points as integers, each row a positive multiple of its values, and
``Polynomial.eval`` is the Fraction of the single row (p,).  ``substitute``
is the one composition, and ``set_vars`` substitutes constants for the
frozen variables.  ``Polynomial.dot`` is the one kernel for sums of
products: it brings every product of a sum to one common denominator,
accumulates them all into one numerator table and normalises once; the
product operator and every accumulation in the calculus and membership
layers go through it.  The keys' graded-lexicographic order gives the
printed order and the leading term.  Rational functions are stored as
numerator/denominator pairs; equality is decided by cross-multiplication,
so no multivariate gcd machinery is needed (only cheap cancellations are
performed to keep expressions small).
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from fractions import Fraction
from heapq import heapify, heappop, heappush
from itertools import accumulate
from math import gcd, lcm
from operator import mul

from .grid import format_point

Exponents = tuple

_WIDTH = 16  # bits per field of a packed monomial key
MAX_DEGREE = (1 << _WIDTH - 1) - 1  # the largest total degree; keeps every guard bit clear
_FIELD = (1 << _WIDTH) - 1


def _pack(exps) -> int:
    """The key of an exponent tuple whose total degree is at most MAX_DEGREE."""
    key = sum(exps)
    for e in exps:
        key = key << _WIDTH | e
    return key


def _unpack(key: int, n: int) -> tuple:
    """The exponent tuple of a key over n variables."""
    return tuple(key >> shift & _FIELD for shift in range(_WIDTH * (n - 1), -1, -_WIDTH))


def _degree_overflow(degree: int) -> OverflowError:
    return OverflowError(f"total degree {degree} exceeds the limit {MAX_DEGREE}")


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
    table, fields = [], {}  # fields[n]: (var, shift) of each exponent field over n variables
    for row in rows:
        den = lcm(*(p.den for p in row))
        terms = []
        for column, p in enumerate(row):
            n = len(p.vars)
            if n not in fields:
                fields[n] = tuple(enumerate(range(_WIDTH * (n - 1), -1, -_WIDTH)))
            f, layout, top_shift = den // p.den, fields[n], _WIDTH * n
            for key, c in p.nums.items():
                support = tuple((v, e) for v, shift in layout if (e := key >> shift & _FIELD)) if key else ()
                terms.append((column, c * f, key >> top_shift, support))
        table.append((len(row), max((deg for _, _, deg, _ in terms), default=0), terms))
    top = max((t for _, t, _ in table), default=0)
    for point in points:
        if not isinstance(point, ScaledPoint):
            point = ScaledPoint(point)
        coords, d = point.nums, point.den
        if fields and fields.keys() != {len(coords)}:
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


class Polynomial:
    """Sparse multivariate polynomial over Q, as integer numerators over one
    denominator.

    ``vars`` is the ordered tuple of coordinate names; ``nums`` maps packed
    monomial keys (total degree, then one field per variable, as in the
    module docstring) to nonzero integers and ``den`` is a positive integer
    coprime to all of them, so the coefficient of x^e is
    nums[_pack(e)] / den.  The constructor takes {exponent tuple:
    coefficient} and ``terms`` gives that form back; the keys stay inside
    this module.  A total degree past MAX_DEGREE raises OverflowError.
    Instances are immutable; all operations return new polynomials.
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
            if sum(exps) > MAX_DEGREE:
                raise _degree_overflow(sum(exps))
            clean[_pack(exps)] = coeff
        # over the lcm of reduced denominators the numerators are coprime to it
        den = lcm(*(c.denominator for c in clean.values()))
        _set(self, "vars", vars)
        _set(self, "nums", {e: c.numerator * (den // c.denominator) for e, c in clean.items()})
        _set(self, "den", den)

    @classmethod
    def _canonical(cls, vars: tuple, nums: dict, den: int = 1) -> "Polynomial":
        """A polynomial on packed keys over len(vars) variables and nonzero
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
        """The coefficients as a fresh {exponent tuple: Fraction} dictionary."""
        den, n = self.den, len(self.vars)
        return {_unpack(key, n): Fraction(c, den) for key, c in self.nums.items()}

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
        return cls._canonical(vars, {0: value.numerator}, value.denominator)

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
        return cls._canonical(vars, {_pack(exps): 1})

    # ---- predicates ----------------------------------------------------
    def is_zero(self) -> bool:
        return not self.nums

    def is_constant(self) -> bool:
        return not any(self.nums)  # the key 0, of degree 0, is the only constant monomial

    def constant_value(self) -> Fraction:
        if not self.nums:
            return _ZERO
        if not self.is_constant():
            raise ValueError("polynomial is not constant")
        return Fraction(next(iter(self.nums.values())), self.den)

    def total_degree(self) -> int:
        if not self.nums:
            return -1
        return max(self.nums) >> _WIDTH * len(self.vars)

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
        A product of monomials is one addition of packed keys; a result of
        total degree past MAX_DEGREE raises OverflowError (the operands are
        within it, so no addition has carried).
        """
        vars = tuple(vars)
        live, den = [], 1
        for a, b, sign in terms:
            if a.vars != vars or b.vars != vars:
                raise ValueError(f"variable mismatch: {vars} vs {a.vars if a.vars != vars else b.vars}")
            if sign and a.nums and b.nums:
                live.append((a, b, sign))
                den = lcm(den, a.den * b.den)
        if not live:
            return cls._canonical(vars, {})
        nums: dict = {}
        get = nums.get
        for a, b, sign in live:
            f = sign * (den // (a.den * b.den))
            b_items = b.nums.items()
            for e1, c1 in a.nums.items():
                c1 *= f
                for e2, c2 in b_items:
                    e = e1 + e2
                    nums[e] = get(e, 0) + c1 * c2
        nums = {e: c for e, c in nums.items() if c}
        if nums and max(nums) >> _WIDTH * len(vars) > MAX_DEGREE:
            raise _degree_overflow(max(nums) >> _WIDTH * len(vars))
        return cls._canonical(vars, nums, den)

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a nonnegative integer")
        if n and self.total_degree() * n > MAX_DEGREE:  # before any squaring
            raise _degree_overflow(self.total_degree() * n)
        result = Polynomial.one(self.vars)
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:  # a square past the last bit is never used
                base = base * base
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
        """d/dx_which, for a variable name or index: each term reads the
        field of x_which and drops one unit of it and of the degree."""
        idx = which if isinstance(which, int) else self.vars.index(which)
        if not self.nums:
            return self
        n = len(self.vars)
        shift = _WIDTH * (n - 1 - range(n)[idx])
        unit = 1 << _WIDTH * n | 1 << shift
        nums = {}
        for key, c in self.nums.items():
            k = key >> shift & _FIELD
            if k:
                nums[key - unit] = c * k
        return Polynomial._canonical(self.vars, nums, self.den)

    # ---- evaluation / substitution --------------------------------------
    def eval(self, point) -> Fraction:
        """The value at a point (Fractions and ints, or a ScaledPoint): the
        one row (self,) of eval_rows over den * d^top, top being the total
        degree (0 for the zero polynomial).  A constant at a plain point is
        read off directly but still rejects an inexact or wrong-length point."""
        if not isinstance(point, ScaledPoint):
            nums = self.nums
            if not any(nums):  # zero or constant
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
        one, terms, n = Polynomial.one(new_vars), [], len(self.vars)
        table = [(_unpack(key, n), c) for key, c in self.nums.items()]
        # powers[i][e - 1] = images[i] ** e, up to the largest exponent of x_i
        columns = zip(*(exps for exps, _ in table))
        powers = [list(accumulate([img] * max(col), mul)) for img, col in zip(images, columns)]
        for exps, c in table:
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
        vars, n = tuple(vars), len(self.vars)
        nums = {}
        for key, c in self.nums.items():
            new = [0] * len(vars)
            for name, e in zip(self.vars, _unpack(key, n)):
                if e:
                    if name not in vars:
                        raise ValueError(f"variable {name} of {self} is not among {vars}")
                    new[vars.index(name)] = e
            nums[_pack(new)] = c
        return Polynomial._canonical(vars, nums, self.den)

    # ---- division ---------------------------------------------------------
    def leading(self):
        """Leading (packed key, numerator) in graded-lex order, which is the
        keys' integer order; the leading coefficient is numerator / den."""
        if not self.nums:
            raise ValueError("zero polynomial has no leading term")
        key = max(self.nums)
        return key, self.nums[key]

    def exact_div(self, divisor: "Polynomial"):
        """Exact quotient self/divisor, or None if it does not divide.

        Leading-term division of the integer numerator tables A / B, since
        (A / a) / (B / b) = (A / B) * b / a.  The remainder is one integer
        table R standing for R / scale, scaled up only when the divisor's
        leading numerator does not divide the leading term, and its terms
        are taken in descending graded-lexicographic order from a heap of
        negated keys (Monagan and Pearce, JSC 46, 2011), so no intermediate
        polynomial or Fraction is built.  The divisor's leading monomial
        divides a term iff subtracting its key borrows into no guard bit.
        """
        divisor = self._coerce(divisor)
        if divisor.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        d_key, lead = divisor.leading()
        if not d_key:  # a constant divides everything
            return self._scale(divisor.den, lead)
        # the top bit of each exponent field; a borrow out of the degree field
        # needs one out of an exponent field first
        guards = (1 << _WIDTH - 1) * ((1 << _WIDTH * len(self.vars)) - 1) // _FIELD
        rest = [(e, c) for e, c in divisor.nums.items() if e != d_key]
        rem = dict(self.nums)
        heap = [-e for e in rem]
        heapify(heap)
        quotient, scale = [], 1
        while heap:
            key = -heappop(heap)
            c = rem.pop(key)
            if not c:
                continue
            diff = key - d_key
            if diff & guards:
                return None
            k = abs(lead) // gcd(c, lead)
            if k != 1:
                rem = {e: v * k for e, v in rem.items()}
                scale *= k
                c *= k
            q = c // lead
            quotient.append((diff, q, scale))
            for e, c2 in rest:
                e += diff
                if e in rem:
                    rem[e] -= q * c2
                else:
                    rem[e] = -q * c2
                    heappush(heap, -e)
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
        den, n = self.den, len(self.vars)
        parts = []
        for key, c in sorted(self.nums.items(), reverse=True):  # graded-lex, highest first
            factors = []
            for name, e in zip(self.vars, _unpack(key, n)):
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


def _monomial_content(*polys: Polynomial) -> int:
    """The key of the componentwise-min exponent vector over all terms of
    all polynomials (0, the constant monomial, when there are none)."""
    if any(0 in p.nums for p in polys):  # a constant term leaves no common factor
        return 0
    mins = None
    for p in polys:
        n = len(p.vars)
        for key in p.nums:
            exps = _unpack(key, n)
            mins = exps if mins is None else tuple(map(min, mins, exps))
    return _pack(mins) if mins else 0


def _divide_monomial(p: Polynomial, mono: int) -> Polynomial:
    """p over a monomial that divides every term: one key subtraction each."""
    nums = {e - mono: c for e, c in p.nums.items()}
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
            if mono:
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
            raise ZeroDivisionError(f"denominator vanishes at {format_point(point)}")
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
