"""Exact complex rationals Q(i) and root extraction inside them.

The root finder is complete: it finds every root in Q(i) of a polynomial
over Q(i).  Degrees 1 and 2 are solved in closed form.  From degree 3 it
takes the squarefree part h = f / gcd(f, f') over Z[i].  For a root y,
s = lead * y is a root of the monic lead^(n-1) * h(s / lead), so s lies in
Z[i], which is integrally closed.  Modulo the least prime p = 3 mod 4 at
which lead is a unit and every root of h in F_p[i] = Z[i]/(p) is simple,
each such root lifts uniquely (Hensel's lemma), by Newton steps that square
the modulus.  Past twice the Cauchy bound |s| <= |lead| + max |h_k|, s is a
symmetric residue; exact division then checks it and gives its multiplicity.
No integer is factored: a skipped prime divides lead or the discriminant of
h, so fewer are skipped than their norms have bits, a prime p costs p^2
evaluations of h, and a lift about log2(log_p(bound)) Newton steps.  Square
roots are exact, on math.isqrt, whatever the size of the radicand.
"""

from __future__ import annotations

import itertools
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


def _gi_mul(u, v):
    return (u[0] * v[0] - u[1] * v[1], u[0] * v[1] + u[1] * v[0])


def _value_and_slope(g, r, m):
    """(g(r), g'(r)) modulo m, for g ascending over Z[i] and r in Z[i]."""
    x, y = r
    va = vb = da = db = 0
    for a, b in reversed(g):
        da, db = (da * x - db * y + va) % m, (da * y + db * x + vb) % m
        va, vb = (va * x - vb * y + a) % m, (va * y + vb * x + b) % m
    return (va, vb), (da, db)


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


def _poly_divmod(a, b):
    """(quotient, remainder) of ascending coefficient lists, b's last entry
    nonzero; the remainder has no trailing zeros."""
    r, n = list(a), len(b) - 1
    q = [QI_ZERO] * max(len(r) - n, 0)
    for k in range(len(q) - 1, -1, -1):
        c = q[k] = r[k + n] / b[n]
        for j in range(n + 1):
            r[k + j] = r[k + j] - c * b[j]
    del r[n:]
    while r and not r[-1]:
        r.pop()
    return q, r


def _lifted_candidates(coeffs):
    """Candidates for the Q(i) roots of a polynomial of degree >= 1: the
    roots of its squarefree part modulo an inert prime, lifted."""
    a, b = coeffs, [k * c for k, c in enumerate(coeffs)][1:]
    while b:
        a, b = b, _poly_divmod(a, b)[1]
    h = gaussian_integers(_poly_divmod(coeffs, a)[0])[1]
    lead = h[-1]
    # at least twice the Cauchy bound |lead| + max |h_k| (k < n) on |lead * y|
    bound = 4 * max(abs(x) + abs(y) for x, y in h)
    for p in itertools.count(3, 4):
        prime = all(p % q for q in range(3, math.isqrt(p) + 1, 2))
        if prime and (lead[0] % p or lead[1] % p):
            roots = {}  # the roots in F_p[i], among all p^2 residues: h' there
            for r in itertools.product(range(p), repeat=2):
                value, slope = _value_and_slope(h, r, p)
                if value == (0, 0):
                    roots[r] = slope
            if (0, 0) not in roots.values():
                break
    candidates = []
    for r in roots:
        m = p
        while m <= bound:
            # a Newton step squares the modulus; (x + yi)^-1 = (x - yi) / (x^2 + y^2)
            m = m * m
            value, (x, y) = _value_and_slope(h, r, m)
            n = pow(x * x + y * y, -1, m)
            step = _gi_mul(value, (x * n, -y * n))
            r = ((r[0] - step[0]) % m, (r[1] - step[1]) % m)
        # lead * y is a Gaussian integer within the Cauchy bound
        s = [(c + m // 2) % m - m // 2 for c in _gi_mul(lead, r)]
        if 2 * max(map(abs, s)) <= bound:
            candidates.append(GaussianRational(*s) / GaussianRational(*lead))
    return candidates


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
        candidates = _lifted_candidates(coeffs)
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
    roots = gaussian_poly_roots([-c] + [QI_ZERO] * (n - 1) + [QI_ONE])
    return roots[0][0] if roots else None
