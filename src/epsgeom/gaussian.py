"""Exact complex rationals Q(i) and root extraction inside them.

The root finder is complete: every root of a polynomial over Q(i) that lies in
Q(i) is found, via the rational-root theorem over the Gaussian integers (Z[i]
is a UFD, so candidates are unit multiples of divisor quotients).  Degrees and
coefficient sizes here are desk scale, so trial division is plenty.  Square
roots are exact, on math.isqrt, whatever the size of the radicand.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import DivisionByZero


class GaussianRational:
    """A complex number with exact rational real and imaginary parts.

    Stored as a normalised integer triple (a, b, d) meaning (a + b*i)/d, with
    d > 0 and gcd(a, b, d) == 1, so equal numbers have equal triples and the
    arithmetic below runs on plain ints.
    """

    __slots__ = ("_a", "_b", "_d")

    def __init__(self, re=0, im=0):
        if type(re) is int and type(im) is int:
            a, b, d = re, im, 1
        else:
            re, im = Fraction(re), Fraction(im)
            d = math.lcm(re.denominator, im.denominator)
            # both parts are in lowest terms, so gcd(a, b, d) == 1 already
            a = re.numerator * (d // re.denominator)
            b = im.numerator * (d // im.denominator)
        _set_a(self, a)
        _set_b(self, b)
        _set_d(self, d)

    def __setattr__(self, name, value):
        raise AttributeError("GaussianRational is immutable")

    @property
    def re(self):
        return Fraction(self._a, self._d)

    @property
    def im(self):
        return Fraction(self._b, self._d)

    def __add__(self, other):
        if type(other) is not GaussianRational:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        return _sum(self._a, self._b, self._d, other._a, other._b, other._d)

    __radd__ = __add__

    def __sub__(self, other):
        if type(other) is not GaussianRational:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        return _sum(self._a, self._b, self._d, -other._a, -other._b, other._d)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        if type(other) is not GaussianRational:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        a1, b1, a2, b2 = self._a, self._b, other._a, other._b
        d = self._d * other._d
        if d == 1:
            return _new(a1 * a2 - b1 * b2, a1 * b2 + b1 * a2, 1)
        return _normalised(a1 * a2 - b1 * b2, a1 * b2 + b1 * a2, d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if type(other) is not GaussianRational:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        a1, b1, a2, b2 = self._a, self._b, other._a, other._b
        d2 = other._d
        if not b2:
            if not a2:
                raise DivisionByZero("division by zero in Q(i)")
            return _normalised(a1 * d2, b1 * d2, self._d * a2)
        # multiply by the conjugate and divide by the norm
        return _normalised(
            (a1 * a2 + b1 * b2) * d2,
            (b1 * a2 - a1 * b2) * d2,
            self._d * (a2 * a2 + b2 * b2),
        )

    def __rtruediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def __neg__(self):
        return _new(-self._a, -self._b, self._d)

    def __bool__(self):
        return self._a != 0 or self._b != 0

    def __eq__(self, other):
        if type(other) is not GaussianRational:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        return self._a == other._a and self._b == other._b and self._d == other._d

    def __hash__(self):
        # equal to hash((re, im)), as Fraction(n, 1) hashes like n
        if self._d == 1:
            return hash((self._a, self._b))
        return hash((self.re, self.im))

    def __repr__(self):
        return "GaussianRational(%r, %r)" % (str(self.re), str(self.im))

    def conjugate(self):
        return _new(self._a, -self._b, self._d)

    def norm(self):
        """Squared complex modulus, an exact nonnegative rational."""
        return Fraction(self._a * self._a + self._b * self._b, self._d * self._d)


_set_a = GaussianRational._a.__set__
_set_b = GaussianRational._b.__set__
_set_d = GaussianRational._d.__set__
_object_new = object.__new__


def _new(a, b, d):
    # (a, b, d) must be normalised already
    out = _object_new(GaussianRational)
    _set_a(out, a)
    _set_b(out, b)
    _set_d(out, d)
    return out


def _sum(a1, b1, d1, a2, b2, d2):
    """(a1 + b1*i)/d1 + (a2 + b2*i)/d2 for normalised triples."""
    if d1 == d2:
        if d1 == 1:
            return _new(a1 + a2, b1 + b2, 1)
        return _normalised(a1 + a2, b1 + b2, d1)
    # with coprime denominators the sum is normalised already
    if d1 == 1:
        return _new(a1 * d2 + a2, b1 * d2 + b2, d2)
    if d2 == 1:
        return _new(a1 + a2 * d1, b1 + b2 * d1, d1)
    return _normalised(a1 * d2 + a2 * d1, b1 * d2 + b2 * d1, d1 * d2)


def _normalised(a, b, d):
    """(a + b*i)/d in normal form, for any nonzero int d."""
    g = math.gcd(a, b, d)
    if d < 0:
        g = -g
    if g != 1:
        a, b, d = a // g, b // g, d // g
    return _new(a, b, d)


def gaussian_integers(coeffs):
    """(den, pairs): the least common denominator of the Q(i) numbers coeffs,
    and the Gaussian integers den * c as (re, im) int pairs, in order."""
    den = math.lcm(*(c._d for c in coeffs))
    return den, [(c._a * (den // c._d), c._b * (den // c._d)) for c in coeffs]


def _coerce(x):
    if isinstance(x, GaussianRational):
        return x
    if isinstance(x, (int, Fraction)):
        return GaussianRational(x)
    return NotImplemented


QI_ZERO = GaussianRational(0)
QI_ONE = GaussianRational(1)
QI_I = GaussianRational(0, 1)


def _fraction_sqrt(q):
    """Exact square root of a nonnegative Fraction, or None."""
    a, b = math.isqrt(q.numerator), math.isqrt(q.denominator)
    if a * a == q.numerator and b * b == q.denominator:
        return Fraction(a, b)
    return None


def gaussian_sqrt(c):
    """Exact square root of c in Q(i), or None.

    For c = a + bi with b != 0 a root x + yi exists iff |c| is rational and
    (a + |c|)/2 is a rational square; then y = b/(2x).
    """
    a, b = c.re, c.im
    if b == 0:
        if a >= 0:
            r = _fraction_sqrt(a)
            return None if r is None else GaussianRational(r)
        r = _fraction_sqrt(-a)
        return None if r is None else GaussianRational(0, r)
    m = _fraction_sqrt(a * a + b * b)
    if m is None:
        return None
    x = _fraction_sqrt((a + m) / 2)
    if x is None or x == 0:
        return None
    return GaussianRational(x, b / (2 * x))


# --- Gaussian integers as (a, b) int pairs ---------------------------------


def _gi_norm(w):
    return w[0] * w[0] + w[1] * w[1]


def _gi_mul(u, v):
    return (u[0] * v[0] - u[1] * v[1], u[0] * v[1] + u[1] * v[0])


def _gi_exact_div(w, d):
    """w/d in Z[i] if exact, else None."""
    n = _gi_norm(d)
    if n == 0:
        return None
    a = w[0] * d[0] + w[1] * d[1]
    b = w[1] * d[0] - w[0] * d[1]
    if a % n or b % n:
        return None
    return (a // n, b // n)


def _prime_factors(n):
    out = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def _two_squares(p):
    # p prime, p % 4 == 1; small p so brute force is fine
    for a in range(1, math.isqrt(p) + 1):
        b2 = p - a * a
        b = math.isqrt(b2)
        if b * b == b2:
            return (a, b)
    raise ArithmeticError("no two-square decomposition for %d" % p)


def _gaussian_prime_power(w, pi):
    """Largest e with pi^e | w, together with w / pi^e."""
    e = 0
    while True:
        q = _gi_exact_div(w, pi)
        if q is None:
            return e, w
        e += 1
        w = q


def gaussian_int_divisors(w):
    """All divisors of a nonzero Gaussian integer, up to unit multiples."""
    divisors = [(1, 0)]
    rem = w
    for p, _ in _prime_factors(_gi_norm(w)).items():
        if p == 2:
            primes = [(1, 1)]
        elif p % 4 == 3:
            primes = [(p, 0)]
        else:
            a, b = _two_squares(p)
            primes = [(a, b), (a, -b)]
        for pi in primes:
            e, rem = _gaussian_prime_power(rem, pi)
            if e:
                divisors = [
                    _gi_mul(d, _pow_gi(pi, k)) for d in divisors for k in range(e + 1)
                ]
    return divisors


def _pow_gi(w, k):
    out = (1, 0)
    for _ in range(k):
        out = _gi_mul(out, w)
    return out


_UNITS = ((1, 0), (0, 1), (-1, 0), (0, -1))


# --- univariate polynomials over Q(i), dense coefficient lists -------------


def _horner_pass(c, s, i):
    """Pass i of the shift of the ascending coefficients c by s, in place:
    after pass 0, c[0] is f(s) and c[1:] is the quotient by (y - s)."""
    for j in range(len(c) - 2, i - 1, -1):
        c[j] = c[j] + s * c[j + 1]


def _divide_out(coeffs, r):
    """(multiplicity, quotient): divide by (y - r) until a remainder appears."""
    mult = 0
    while len(coeffs) > 1:
        c = list(coeffs)
        _horner_pass(c, r, 0)
        if c[0]:
            break
        mult, coeffs = mult + 1, c[1:]
    return mult, coeffs


def gaussian_poly_roots(coeffs):
    """All roots in Q(i) of sum coeffs[k] * y^k, as (root, multiplicity) pairs.

    coeffs must have a nonzero entry.  Roots are sorted by (re, im) descending
    so callers that need one root get a deterministic pick.
    """
    coeffs = list(coeffs)
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    if not coeffs:
        raise ValueError("zero polynomial has every root")
    found = []
    k0 = 0
    while not coeffs[0]:
        coeffs = coeffs[1:]
        k0 += 1
    if k0:
        found.append((QI_ZERO, k0))
    deg = len(coeffs) - 1
    candidates = []
    if deg == 1:
        # the one candidate of a linear polynomial is its simple root
        found.append((-coeffs[0] / coeffs[1], 1))
    elif deg == 2:
        disc = coeffs[1] * coeffs[1] - GaussianRational(4) * coeffs[2] * coeffs[0]
        s = gaussian_sqrt(disc)
        if s is not None:
            two_a = GaussianRational(2) * coeffs[2]
            candidates = [(-coeffs[1] + s) / two_a, (-coeffs[1] - s) / two_a]
    elif deg >= 3:
        # scale to Z[i] and enumerate p/q with p | constant, q | leading
        zi = gaussian_integers(coeffs)[1]
        seen = set()
        for p in gaussian_int_divisors(zi[0]):
            for q in gaussian_int_divisors(zi[-1]):
                qq = GaussianRational(q[0], q[1])
                for u in _UNITS:
                    cand = GaussianRational(*_gi_mul(p, u)) / qq
                    if cand not in seen:
                        seen.add(cand)
                        candidates.append(cand)
    for cand in candidates:
        if any(cand == r for r, _ in found):
            continue
        # the first remainder is the value at cand
        mult = _divide_out(coeffs, cand)[0]
        if mult:
            found.append((cand, mult))
    found.sort(key=lambda rm: (rm[0].re, rm[0].im), reverse=True)
    return found


def gaussian_nth_root(c, n):
    """A y in Q(i) with y^n = c, or None; deterministic branch choice."""
    if n == 1 or not c:
        return c
    if n == 2:
        return gaussian_sqrt(c)
    roots = gaussian_poly_roots([-c] + [QI_ZERO] * (n - 1) + [QI_ONE])
    return roots[0][0] if roots else None
