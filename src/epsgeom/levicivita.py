"""Exact arithmetic in a Levi-Civita-style non-Archimedean field.

A number is a finite formal sum of terms c * eps^q with q an exact rational
exponent and c an exact complex rational; eps is a fixed positive
infinitesimal.  Addition and multiplication are exact.  Inversion and n-th
roots are truncated: the result is correct up to a requested valuation order,
with the residual valuation strictly above it (computed from the exact tail of
the geometric/binomial series, not estimated).

Finite sums are a ring, not a field (1/(1-eps) has infinite support), so the
module also provides `LCFraction`, the fraction field of that ring, normalized
by Euclidean gcd in the Laurent-polynomial view.  Basis computations over the
extended coefficient domain run on `LCFraction`.
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction

from .errors import DivisionByZero, InvalidInput, NonConstructibleRoot, UnlimitedValue
from .gaussian import GaussianRational, QI_ONE, QI_ZERO, gaussian_nth_root

INF = math.inf


class TruncationOrder:
    """Positive rational valuation order used by inversion and root taking."""

    __slots__ = ("order",)

    def __init__(self, order=16):
        order = Fraction(order)
        if order <= 0:
            raise InvalidInput("truncation order must be positive")
        object.__setattr__(self, "order", order)

    def __setattr__(self, name, value):
        raise AttributeError("TruncationOrder is immutable")

    def __repr__(self):
        return "TruncationOrder(%s)" % self.order

    def __eq__(self, other):
        return isinstance(other, TruncationOrder) and self.order == other.order

    def __hash__(self):
        return hash(("TruncationOrder", self.order))


def _order_of(t):
    return t.order if isinstance(t, TruncationOrder) else Fraction(t)


class LCNumber:
    """Finite sorted sum of c * eps^q terms; exponents strictly increasing."""

    __slots__ = ("terms",)

    def __init__(self, terms=()):
        # terms: iterable of (exponent, GaussianRational coeff); an exponent is
        # an int when integral and a Fraction otherwise
        _set_terms(self, tuple((q, c) for q, c in terms if c))

    def __setattr__(self, name, value):
        raise AttributeError("LCNumber is immutable")

    @staticmethod
    def _raw(terms):
        # terms must be canonical already: a tuple with strictly ascending
        # exponents, no zero coefficient, and int exponents where integral
        out = _object_new(LCNumber)
        _set_terms(out, terms)
        return out

    @staticmethod
    def from_gaussian(c):
        c = c if isinstance(c, GaussianRational) else GaussianRational(c)
        return LCNumber(((0, c),)) if c else LC_ZERO

    @staticmethod
    def term(coeff, exponent):
        c = coeff if isinstance(coeff, GaussianRational) else GaussianRational(coeff)
        return LCNumber(((_exponent(exponent), c),)) if c else LC_ZERO

    @staticmethod
    def eps(exponent=1):
        return LCNumber.term(QI_ONE, exponent)

    # --- ring operations ---------------------------------------------------

    @staticmethod
    def _merge(a, b):
        # linear merge of two ascending term tuples; equal exponents combine
        out = []
        i = j = 0
        la, lb = len(a), len(b)
        while i < la and j < lb:
            qa, ca = a[i]
            qb, cb = b[j]
            if qa < qb:
                out.append(a[i])
                i += 1
            elif qb < qa:
                out.append(b[j])
                j += 1
            else:
                s = ca + cb
                if s:
                    out.append((qa, s))
                i += 1
                j += 1
        out.extend(a[i:])
        out.extend(b[j:])
        return LCNumber._raw(tuple(out))

    def __add__(self, other):
        other = _lc_coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.terms, other.terms
        if not a:
            return other
        if not b:
            return self
        if len(a) == 1 == len(b):
            qa, ca = a[0]
            qb, cb = b[0]
            if qa == qb:
                s = ca + cb
                return LCNumber._raw(((qa, s),)) if s else LC_ZERO
        return LCNumber._merge(a, b)

    __radd__ = __add__

    def __sub__(self, other):
        other = _lc_coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.terms, other.terms
        if not b:
            return self
        if len(a) == 1 == len(b):
            qa, ca = a[0]
            qb, cb = b[0]
            if qa == qb:
                s = ca - cb
                return LCNumber._raw(((qa, s),)) if s else LC_ZERO
        return LCNumber._merge(a, tuple((q, -c) for q, c in b))

    def __rsub__(self, other):
        other = _lc_coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = _lc_coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.terms, other.terms
        if not a or not b:
            return LC_ZERO
        # scaling by a single term keeps order and cannot cancel (Q(i) is a
        # domain), so skip the accumulation dict and the zero filter.  An
        # exponent sum can only be an integral Fraction where two Fractions
        # meet; only there does it go through _exponent.
        if len(a) == 1:
            qa, ca = a[0]
            if len(b) == 1:
                qb, cb = b[0]
                q = qa + qb
                return LCNumber._raw(((q if type(q) is int else _exponent(q), ca * cb),))
            if type(qa) is int:
                return LCNumber._raw(tuple((qa + qb, ca * cb) for qb, cb in b))
            return LCNumber._raw(tuple((_exponent(qa + qb), ca * cb) for qb, cb in b))
        if len(b) == 1:
            qb, cb = b[0]
            if type(qb) is int:
                return LCNumber._raw(tuple((qa + qb, ca * cb) for qa, ca in a))
            return LCNumber._raw(tuple((_exponent(qa + qb), ca * cb) for qa, ca in a))
        acc = {}
        for qa, ca in a:
            meet = type(qa) is not int
            for qb, cb in b:
                q = qa + qb
                if meet:
                    q = _exponent(q)
                p = ca * cb
                prev = acc.get(q)
                s = p if prev is None else prev + p
                if s:
                    acc[q] = s
                elif prev is not None:
                    del acc[q]
        return LCNumber(sorted(acc.items()))

    __rmul__ = __mul__

    def __neg__(self):
        return LCNumber._raw(tuple((q, -c) for q, c in self.terms))

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            raise InvalidInput("LCNumber powers take nonnegative integers")
        return square_and_multiply(self, k, LC_ONE)

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        other = _lc_coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(self.terms)

    def __repr__(self):
        return "LCNumber(%r)" % (self.terms,)

    # --- structure ----------------------------------------------------------

    def valuation(self):
        """Minimal exponent; +inf for zero."""
        return self.terms[0][0] if self.terms else INF

    def leading(self):
        """(exponent, coefficient) of the valuation term."""
        if not self.terms:
            raise DivisionByZero("zero has no leading term")
        return self.terms[0]

    def is_term(self):
        return len(self.terms) == 1

    def is_one(self):
        return self.terms == LC_ONE.terms

    def coefficient(self, exponent):
        exponent = Fraction(exponent)
        for q, c in self.terms:
            if q == exponent:
                return c
        return QI_ZERO

    def truncate(self, order):
        """Drop terms with exponent strictly above order."""
        order = Fraction(order)
        return LCNumber(tuple(t for t in self.terms if t[0] <= order))

    def is_limited(self):
        return not self.terms or self.terms[0][0] >= 0

    def is_infinitesimal(self):
        # zero is infinitesimal by convention (valuation +inf)
        return not self.terms or self.terms[0][0] > 0

    def is_appreciable(self):
        return bool(self.terms) and self.terms[0][0] == 0

    def is_unlimited(self):
        return bool(self.terms) and self.terms[0][0] < 0

    def standard_part(self):
        """The eps^0 coefficient; defined exactly for limited numbers."""
        if self.is_unlimited():
            raise UnlimitedValue("standard part of an unlimited value")
        return self.coefficient(0)


def square_and_multiply(x, k, one, mul=operator.mul):
    """x ** k for an int k >= 0 under the product mul, with one returned for
    k == 0.

    Right to left over the bits of k: the result starts as the power at the
    lowest set bit rather than as one * x, and squaring stops at the top bit,
    so k >= 1 costs exactly k.bit_length() + popcount(k) - 2 products.
    """
    if not k:
        return one
    while not k & 1:
        x = mul(x, x)
        k >>= 1
    out = x
    k >>= 1
    while k:
        x = mul(x, x)
        if k & 1:
            out = mul(out, x)
        k >>= 1
    return out


def _exponent(q):
    """q as an int when it is integral, else as a Fraction."""
    if type(q) is int:
        return q
    if type(q) is not Fraction:
        q = Fraction(q)
    return q.numerator if q.denominator == 1 else q


def _lc_coerce(x):
    if isinstance(x, LCNumber):
        return x
    if isinstance(x, (GaussianRational, int, Fraction)):
        return LCNumber.from_gaussian(x)
    return NotImplemented


_set_terms = LCNumber.terms.__set__
_object_new = object.__new__

LC_ZERO = LCNumber()
LC_ONE = LCNumber(((0, QI_ONE),))
LC_EPS = LCNumber(((1, QI_ONE),))


def lc_classify(x):
    """(valuation, label) with label in zero/infinitesimal/appreciable/unlimited."""
    if not x:
        return (INF, "zero")
    v = x.valuation()
    if v > 0:
        return (v, "infinitesimal")
    if v == 0:
        return (v, "appreciable")
    return (v, "unlimited")


def lc_st(x):
    return x.standard_part()


def lc_abs_cmp(x, y):
    """Magnitude preorder: -1, 0, or 1.

    Smaller valuation means larger magnitude; ties compare the exact squared
    modulus of the leading coefficients.  0 means equal valuation and equal
    leading modulus.
    """
    if not x and not y:
        return 0
    if not x:
        return -1
    if not y:
        return 1
    vx, vy = x.valuation(), y.valuation()
    if vx != vy:
        return 1 if vx < vy else -1
    nx, ny = x.leading()[1].norm(), y.leading()[1].norm()
    if nx == ny:
        return 0
    return 1 if nx > ny else -1


def _unit_inverse(x):
    """Exact inverse of x's leading term."""
    q, c = x.leading()
    return LCNumber.term(QI_ONE / c, -q)


def lc_inverse(x, t=TruncationOrder()):
    """y with valuation(x*y - 1) > t.order; exact when x is a single term."""
    if not x:
        raise DivisionByZero("inverse of zero")
    order = _order_of(t)
    unit_inv = _unit_inverse(x)
    # x = (1 + r) / unit_inv, and 1/(1 + r) = sum (-r)^k
    return _unit_series(unit_inv, LC_ONE - x * unit_inv, itertools.repeat(1), order)


def lc_nth_root(x, n, t=TruncationOrder()):
    """y with valuation(y) = valuation(x)/n and valuation(y^n - x) > t.order.

    The leading coefficient's exact n-th root must exist in Q(i); otherwise
    NonConstructibleRoot is raised.
    """
    if not isinstance(n, int) or n < 1:
        raise InvalidInput("root index must be a positive integer")
    if not x:
        raise DivisionByZero("n-th root of zero")
    order = _order_of(t)
    v, c = x.leading()
    croot = gaussian_nth_root(c, n)
    if croot is None:
        raise NonConstructibleRoot(
            "leading coefficient has no exact %d-th root in Q(i)" % n
        )
    unit = LCNumber.term(croot, Fraction(v, n))

    def binomials():
        # x = unit^n * (1 + r), and (1 + r)^(1/n) = sum binom(1/n, k) r^k
        b = Fraction(1)
        for k in itertools.count(1):
            b = b * (Fraction(1, n) - (k - 1)) / k
            yield b

    return _unit_series(unit, x * _unit_inverse(x) - LC_ONE, binomials(), order - v)


def _unit_series(unit, r, coeffs, order):
    """unit * (1 + sum of c_k * r^k over k >= 1), each r^k truncated above order.

    coeffs yields c_1, c_2, ...  r is zero or infinitesimal, so the powers
    truncate to zero from k = order / valuation(r) + 1 on; the sum stops at
    the first one that does, or at a zero c_k.
    """
    s = p = LC_ONE
    for ck in coeffs:
        p = (p * r).truncate(order)
        if not p or not ck:
            break
        s = s + LCNumber.from_gaussian(GaussianRational(ck)) * p
    return unit * s


# --- Laurent-ring division and gcd ------------------------------------------


def lc_exact_div(a, b):
    """a/b when the quotient has finite support, else None."""
    if not b:
        raise DivisionByZero("division by zero")
    if not a:
        return LC_ZERO
    bv, bc = b.leading()
    bound = a.terms[-1][0] - b.terms[-1][0]
    q_terms = []
    work = a
    while work:
        wv, wc = work.leading()
        qe = _exponent(wv - bv)
        if qe > bound:
            return None
        qc = wc / bc
        q_terms.append((qe, qc))
        work = work - b * LCNumber(((qe, qc),))
    return LCNumber(q_terms)


def _lc_rem(a, b):
    """Remainder of top-degree polynomial division; exponents stay >= 0."""
    b_top, b_top_c = b.terms[-1]
    while a and a.terms[-1][0] >= b_top:
        a_top, a_top_c = a.terms[-1]
        a = a - b * LCNumber(((_exponent(a_top - b_top), a_top_c / b_top_c),))
    return a


def _unit_normalize(x):
    """Scale by a unit so valuation is 0 and the lowest coefficient is 1."""
    return x * _unit_inverse(x)


def lc_gcd(a, b):
    """gcd in the Laurent ring, unit-normalized; gcd(0, 0) is 0."""
    if not a and not b:
        return LC_ZERO
    if a:
        a = _unit_normalize(a)
    if b:
        b = _unit_normalize(b)
    while b:
        a, b = b, _lc_rem(a, b)
        if b:
            b = _unit_normalize(b)
    return _unit_normalize(a)


def lc_lcm(a, b):
    if not a or not b:
        return LC_ZERO
    g = lc_gcd(a, b)
    return _unit_normalize(a * lc_exact_div(b, g))


class LCFraction:
    """Quotient of two finite LC sums; the computable coefficient field.

    Canonical form: gcd-reduced, denominator with valuation 0 and lowest
    coefficient 1 (so the denominator is 1 + infinitesimal).  Equality and
    hashing are structural on the canonical form.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=LC_ONE):
        num = _lc_coerce(num)
        den = _lc_coerce(den)
        if num is NotImplemented or den is NotImplemented:
            raise InvalidInput("LCFraction parts must be LC numbers")
        if not den:
            raise DivisionByZero("zero denominator")
        num, den = _frac_normalize(num, den)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError("LCFraction is immutable")

    @staticmethod
    def _whole(num):
        # canonical already: unit denominator
        out = object.__new__(LCFraction)
        object.__setattr__(out, "num", num)
        object.__setattr__(out, "den", LC_ONE)
        return out

    def __add__(self, other):
        other = _frac_coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.den is LC_ONE and other.den is LC_ONE:
            return LCFraction._whole(self.num + other.num)
        return LCFraction(
            self.num * other.den + other.num * self.den, self.den * other.den
        )

    __radd__ = __add__

    def __sub__(self, other):
        other = _frac_coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.den is LC_ONE and other.den is LC_ONE:
            return LCFraction._whole(self.num - other.num)
        return LCFraction(
            self.num * other.den - other.num * self.den, self.den * other.den
        )

    def __rsub__(self, other):
        other = _frac_coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = _frac_coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.den is LC_ONE and other.den is LC_ONE:
            return LCFraction._whole(self.num * other.num)
        return LCFraction(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _frac_coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not other.num:
            raise DivisionByZero("division by zero fraction")
        if self.den is LC_ONE and other.den is LC_ONE and other.num.is_term():
            return LCFraction._whole(self.num * _unit_inverse(other.num))
        return LCFraction(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        other = _frac_coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def __neg__(self):
        out = object.__new__(LCFraction)
        object.__setattr__(out, "num", -self.num)
        object.__setattr__(out, "den", self.den)
        return out

    def __bool__(self):
        return bool(self.num)

    def __eq__(self, other):
        other = _frac_coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __repr__(self):
        return "LCFraction(%r, %r)" % (self.num, self.den)

    def valuation(self):
        return self.num.valuation() if self.num else INF

    def is_limited(self):
        return not self.num or self.valuation() >= 0

    def standard_part(self):
        if self.num.is_unlimited():
            raise UnlimitedValue("standard part of an unlimited value")
        # denominator is 1 + infinitesimal, so st(num/den) = st(num)
        return self.num.standard_part()

    def to_lcnumber(self):
        """Collapse to a finite sum when the denominator is 1, else None."""
        return self.num if self.den.is_one() else None


def _frac_normalize(num, den):
    if not num:
        return LC_ZERO, LC_ONE
    if den is LC_ONE or den.is_one():
        return num, LC_ONE
    if den.is_term():
        return num * _unit_inverse(den), LC_ONE
    q = lc_exact_div(num, den)
    if q is not None:
        return q, LC_ONE
    g = lc_gcd(num, den)
    if not g.is_one():
        num = lc_exact_div(num, g)
        den = lc_exact_div(den, g)
    u = _unit_inverse(den)
    return num * u, den * u


def _frac_coerce(x):
    if isinstance(x, LCFraction):
        return x
    if isinstance(x, (LCNumber, GaussianRational, int, Fraction)):
        return LCFraction(_lc_coerce(x))
    return NotImplemented
