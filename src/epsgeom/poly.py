"""Sparse multivariate polynomials over exact coefficient domains.

Variables are natural-number indices with no upper bound; index 0 is reserved
for the auxiliary variable used by radical membership.  Coefficients are
GaussianRational ("standard" domain) or LCNumber / LCFraction ("extended"
domain).  A Poly holds a finite Levi-Civita sum as an LCNumber, so its
LCFraction coefficients are quotients that are not finite sums.  Monomials
carry strictly positive integer exponents only.
The packed-term layer that Poly products and the Groebner engine share
lives here too: _Layout, and the multiply-accumulate loops _zi_axpy and _axpy.
A _Layout is the one definition of each monomial order: it orders the
engine's terms, and a grevlex layout gives the print order of sorted_terms.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from heapq import heappush

from .errors import (
    InvalidInput,
    UnassignedVariable,
    UnlimitedCoefficient,
    ZeroPolynomial,
)
from .gaussian import (
    GaussianRational,
    QI_ZERO,
    _new,
    _normalised,
    gaussian_integers,
)
from .levicivita import (
    LC_ONE,
    LC_ZERO,
    LCFraction,
    LCNumber,
    _unit_inverse,
    lc_abs_cmp,
    square_and_multiply,
)

STANDARD = "standard"
EXTENDED = "extended"
_NUMBERS = (GaussianRational, LCNumber, LCFraction, int, Fraction)


class Monomial:
    """Finitely supported exponent map, stored as a sorted (var, exp) tuple."""

    __slots__ = ("exps", "deg")

    def __init__(self, exps=()):
        merged = {}
        for v, e in exps:
            v, e = int(v), int(e)
            if v < 0 or e < 0:
                raise InvalidInput("variable indices and exponents are naturals")
            merged[v] = merged.get(v, 0) + e
        pairs = tuple(sorted((v, e) for v, e in merged.items() if e))
        object.__setattr__(self, "exps", pairs)
        object.__setattr__(self, "deg", sum(e for _, e in pairs))

    @staticmethod
    def _raw(pairs, deg=None):
        # pairs already sorted, merged, and positive; deg their exponent sum
        out = _object_new(Monomial)
        _set_exps(out, pairs)
        _set_deg(out, sum(e for _, e in pairs) if deg is None else deg)
        return out

    def __setattr__(self, name, value):
        raise AttributeError("Monomial is immutable")

    def __eq__(self, other):
        return isinstance(other, Monomial) and self.exps == other.exps

    def __hash__(self):
        return hash(self.exps)

    def __repr__(self):
        return "Monomial(%r)" % (self.exps,)

    def __str__(self):
        if not self.exps:
            return "1"
        return "*".join(
            "z%d" % v if e == 1 else "z%d^%d" % (v, e) for v, e in self.exps
        )

    def degree(self):
        return self.deg

    def exponent(self, var):
        for v, e in self.exps:
            if v == var:
                return e
        return 0

    def variables(self):
        return tuple(v for v, _ in self.exps)

    def mul(self, other):
        if not other.exps:
            return self
        if not self.exps:
            return other
        acc = dict(self.exps)
        for v, e in other.exps:
            acc[v] = acc.get(v, 0) + e
        return Monomial._raw(tuple(sorted(acc.items())))

    def divides(self, other):
        return all(other.exponent(v) >= e for v, e in self.exps)

    def div(self, other):
        if not other.exps:
            return self
        acc = dict(self.exps)
        for v, e in other.exps:
            r = acc.get(v, 0) - e
            if r < 0:
                raise InvalidInput("monomial division is not exact")
            if r:
                acc[v] = r
            else:
                del acc[v]
        return Monomial._raw(tuple(sorted(acc.items())))

    def lcm(self, other):
        acc = dict(self.exps)
        for v, e in other.exps:
            acc[v] = max(acc.get(v, 0), e)
        return Monomial._raw(tuple(sorted(acc.items())))


_object_new = object.__new__
_set_exps = Monomial.exps.__set__
_set_deg = Monomial.deg.__set__
MONO_ONE = Monomial()


def _standard_coeff(c):
    """A standard-domain coefficient as a GaussianRational."""
    if isinstance(c, GaussianRational):
        return c
    if isinstance(c, (int, Fraction)):
        return GaussianRational(c)
    raise InvalidInput("standard coefficients are Q(i) numbers, not %s" % type(c).__name__)


def _extended_coeff(c):
    """c as an LCNumber, or as an LCFraction when it is not a finite sum."""
    if isinstance(c, LCFraction):
        finite = c.to_lcnumber()
        return c if finite is None else finite
    if isinstance(c, (GaussianRational, int, Fraction)):
        return LCNumber.from_gaussian(c)
    raise InvalidInput("extended coefficients are LC numbers, not %s" % type(c).__name__)


class Poly:
    """Sparse polynomial: dict from Monomial to nonzero coefficient."""

    __slots__ = ("domain", "terms")
    __hash__ = None

    def __init__(self, domain, terms):
        cleaned = {}
        if domain == STANDARD:
            for m, c in dict(terms).items():
                if type(c) is not GaussianRational:
                    c = _standard_coeff(c)
                if c:
                    cleaned[m] = c
        elif domain == EXTENDED:
            for m, c in dict(terms).items():
                if type(c) is not LCNumber:
                    c = _extended_coeff(c)
                if c:
                    cleaned[m] = c
        else:
            raise InvalidInput("unknown domain %r" % domain)
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "terms", cleaned)

    @staticmethod
    def _raw(domain, terms):
        # terms: a fresh dict of nonzero coefficients, GaussianRational in
        # the standard domain; an extended one that is not an LCNumber (an
        # LCFraction sum or product can be a finite sum) goes through Poly()
        if domain == EXTENDED:
            for c in terms.values():
                if type(c) is not LCNumber:
                    return Poly(domain, terms)
        out = _object_new(Poly)
        _set_domain(out, domain)
        _set_terms(out, terms)
        return out

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    @staticmethod
    def zero(domain=STANDARD):
        return Poly(domain, {})

    @staticmethod
    def constant(c):
        domain = EXTENDED if isinstance(c, (LCNumber, LCFraction)) else STANDARD
        return Poly(domain, {MONO_ONE: c})

    @staticmethod
    def variable(index, domain=STANDARD):
        return Poly(domain, {Monomial(((index, 1),)): 1})

    def to_extended(self):
        if self.domain == EXTENDED:
            return self
        return Poly(EXTENDED, self.terms)

    def to_standard(self):
        """Demote when every coefficient is a pure eps^0 term."""
        if self.domain == STANDARD:
            return self
        out = {}
        for m, c in self.terms.items():
            # an LCFraction here is not a finite sum
            if isinstance(c, LCFraction) or not c.is_term() or c.valuation():
                return None
            out[m] = c.leading()[1]
        return Poly(STANDARD, out)

    # --- ring operations -----------------------------------------------------

    def _unify(self, other):
        if not isinstance(other, Poly):
            raise InvalidInput("expected a Poly")
        if self.domain == other.domain:
            return self, other
        return self.to_extended(), other.to_extended()

    def __add__(self, other):
        return self._sum(other, False)

    def __sub__(self, other):
        return self._sum(other, True)

    def _sum(self, other, subtract):
        """self + other, or self - other: other's terms go into a copy of
        self's in their order, and a term that cancels is dropped."""
        a, b = self._unify(other)
        acc = dict(a.terms)
        for m, c in b.terms.items():
            s = acc.get(m)
            if s is None:
                acc[m] = -c if subtract else c
            else:
                s = s - c if subtract else s + c
                if s:
                    acc[m] = s
                else:
                    del acc[m]
        return Poly._raw(a.domain, acc)

    def __neg__(self):
        return Poly._raw(self.domain, {m: -c for m, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, _NUMBERS):
            return self.scale(other)
        a, b = self._unify(other)
        ta, tb = a.terms, b.terms
        if len(ta) <= 1 or len(tb) <= 1:
            # a term times a polynomial: the products have distinct
            # monomials, so there is nothing to collect or cancel
            return Poly._raw(
                a.domain,
                {ma.mul(mb): ca * cb for ma, ca in ta.items() for mb, cb in tb.items()},
            )
        layout = _product_layout(
            (*ta, *tb), max(m.deg for m in ta) + max(m.deg for m in tb)
        )
        da, va = _pack(a, layout)
        db, vb = _pack(b, layout)
        vec = _product(va, vb, layout.guard, a.domain)
        return _unpack(a.domain, vec, da * db, layout)

    __rmul__ = __mul__

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            raise InvalidInput("polynomial powers take nonnegative integers")
        terms = self.terms
        if k < 2 or len(terms) <= 1:
            return square_and_multiply(self, k, Poly(self.domain, {MONO_ONE: 1}))
        # packed once, over a layout whose fields hold the power's degree:
        # the ladder's products stay packed, and only the power is unpacked
        # (k >= 2, so the ladder never returns its one)
        layout = _product_layout(terms, k * max(m.deg for m in terms))
        den, vec = _pack(self, layout)
        guard, domain = layout.guard, self.domain
        power = square_and_multiply(
            vec, k, None, lambda a, b: _product(a, b, guard, domain)
        )
        return _unpack(domain, power, den ** k, layout)

    def scale(self, c):
        if not isinstance(c, _NUMBERS):
            raise InvalidInput("unsupported coefficient type %r" % type(c).__name__)
        domain = EXTENDED if isinstance(c, (LCNumber, LCFraction)) else self.domain
        if not c:
            return Poly(domain, {})
        return Poly._raw(domain, {m: cc * c for m, cc in self.terms.items()})

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        a, b = self._unify(other)
        if set(a.terms) != set(b.terms):
            return False
        return all(a.terms[m] == b.terms[m] for m in a.terms)

    def __repr__(self):
        return "Poly(%r, %r)" % (self.domain, self.terms)

    # --- structure -------------------------------------------------------

    def support(self):
        """Sorted tuple of variable indices that occur."""
        vs = set()
        for m in self.terms:
            vs.update(m.variables())
        return tuple(sorted(vs))

    def total_degree(self):
        return max((m.degree() for m in self.terms), default=0)

    def degree_in(self, var):
        return max((m.exponent(var) for m in self.terms), default=0)

    def is_constant(self):
        return all(m is MONO_ONE or not m.exps for m in self.terms)

    def as_constant(self):
        if not self.terms:
            return QI_ZERO_FOR[self.domain]
        if not self.is_constant():
            raise InvalidInput("polynomial is not constant")
        return next(iter(self.terms.values()))

    def coefficient(self, mono):
        c = self.terms.get(mono)
        if c is not None:
            return c
        return QI_ZERO_FOR[self.domain]

    def sorted_terms(self):
        """Terms sorted descending in grevlex, the canonical print order."""
        terms = self.terms
        width = max((m.deg for m in terms), default=0).bit_length() + 1
        variables = frozenset(v for m in terms for v, _ in m.exps)
        term = _layout("grevlex", (), variables, width).term
        return sorted(terms.items(), key=lambda t: term(0, t[0]), reverse=True)


_set_domain = Poly.domain.__set__
_set_terms = Poly.terms.__set__
QI_ZERO_FOR = {STANDARD: QI_ZERO, EXTENDED: LC_ZERO}


# --- internal vector-polynomial layer ----------------------------------------
#
# A vector polynomial is a dict {term: coefficient}.  A term is one int that
# packs a position and a monomial under a _Layout.  The module order is
# position-over-term (smaller position ranks higher, monomials compared by
# the order within a position), and a larger int is a larger term.  A
# monomial is the term at position 0, and multiplying a term by it adds the
# two ints.  Poly products, the print order and the Groebner engine all run
# on this layer.


class _Overflow(Exception):
    """A term outgrew its layout's fields: widen the layout and run again."""


class _Layout:
    """Packing of the (position, Monomial) terms over one order and variable set.

    The order is its kind ("grevlex", "lex" or "elimination") and block.
    W-bit fields, most significant first, each a sum of exponents over the
    variables in ascending index:
      - the order key, the rows of the order's weight matrix: grevlex as
        (deg, S_{n-1}, ..., S_1) with S_k = e_1 + ... + e_k, lex as
        (e_1, ..., e_n), elimination as the block degree and then the
        grevlex fields;
      - one exponent per variable, for the divisibility test;
      - the degree, for pair selection.
    A field that repeats an earlier one is left out.  Packing is linear, so
    pack(m*n) = pack(m) + pack(n), and the order fields lead, so one int
    compare is one order-key compare.  The top bit of each field is a guard
    that every stored term keeps clear: u - t has no guard bit set iff each
    field of t is at most u's, i.e. iff t divides u, and a sum that sets one
    has overflowed.  Every field is at most the degree, so a monomial fits
    iff its degree is below 2^(W-1).  The position sits above the fields as
    -pos << top: one int compare is position-over-term, and adding a
    monomial never touches the position.
    """

    __slots__ = (
        "variables", "width", "top", "guard", "_mask", "_unit", "_exps", "_deg"
    )

    def __init__(self, kind, block, variables, width):
        ascending = tuple(sorted(variables))
        every = frozenset(ascending)
        singles = [frozenset((v,)) for v in ascending]
        grevlex = [frozenset(ascending[:k]) for k in range(len(ascending), 0, -1)]
        if kind == "lex":
            key = singles
        elif kind == "grevlex":
            key = grevlex
        else:
            key = [every.intersection(block)] + grevlex
        fields = list(dict.fromkeys(key + singles + [every]))
        shift = {f: width * (len(fields) - 1 - i) for i, f in enumerate(fields)}
        self.variables = every
        self.width = width
        self.top = width * len(fields)
        self.guard = sum(1 << (s + width - 1) for s in shift.values())
        self._mask = (1 << width) - 1
        self._unit = {
            v: sum(1 << s for f, s in shift.items() if v in f) for v in ascending
        }
        self._exps = tuple(zip(ascending, (shift[f] for f in singles)))
        self._deg = shift[every]

    def term(self, pos, m):
        """The int of (pos, m); raises _Overflow when m does not fit."""
        if m.deg >> (self.width - 1):
            raise _Overflow
        x = -pos << self.top
        unit = self._unit
        for v, e in m.exps:
            x += e * unit[v]
        return x

    def split(self, x):
        """(position, Monomial) of a term."""
        mask = self._mask
        pairs = []
        for v, s in self._exps:
            e = x >> s & mask
            if e:
                pairs.append((v, e))
        return -(x >> self.top), Monomial._raw(tuple(pairs), x >> self._deg & mask)

    def degree(self, x):
        return x >> self._deg & self._mask

    def divides(self, t, u):
        """True iff term t divides term u (so both share a position)."""
        d = u - t
        return not (d >> self.top or d & self.guard)

    def lcm(self, a, b):
        """lcm of two terms at one position; raises _Overflow."""
        mask, unit = self._mask, self._unit
        for v, s in self._exps:
            d = (b >> s & mask) - (a >> s & mask)
            if d > 0:
                a += d * unit[v]
        if a & self.guard:
            raise _Overflow
        return a


@functools.lru_cache(maxsize=256)
def _layout(kind, block, variables, width):
    """The shared (immutable) _Layout of an order kind and block, a frozenset
    of variables and a width."""
    return _Layout(kind, block, variables, width)


def _product_layout(monomials, degree):
    """One lex layout over the variables of monomials whose fields hold a
    product of total degree at most degree below their guard bits, so no
    monomial product overflows."""
    variables = frozenset(v for m in monomials for v, _ in m.exps)
    return _layout("lex", (), variables, degree.bit_length() + 1)


def _pack(f, layout):
    """(den, vec): den * f as a vector of monomials (position 0), its
    coefficients Z[i] pairs over one common denominator in the standard
    domain and f's own (den 1) in the extended one."""
    terms, term = f.terms, layout.term
    if f.domain == STANDARD:
        den, coeffs = gaussian_integers(terms.values())
    else:
        den, coeffs = 1, terms.values()
    return den, {term(0, m): c for m, c in zip(terms, coeffs)}


def _product(a, b, guard, domain):
    """The schoolbook product of two packed vectors of one domain."""
    axpy = _zi_axpy if domain == STANDARD else _axpy
    acc = {}
    for x, c in a.items():
        axpy(acc, c, x, b, guard)
    return acc


def _unpack(domain, vec, den, layout):
    """The Poly of a packed vector over den, each Q(i) sum normalised once."""
    if domain == STANDARD:
        norm = _new if den == 1 else _normalised
        vec = {x: norm(re, im, den) for x, (re, im) in vec.items()}
    split = layout.split
    return Poly._raw(domain, {split(x)[1]: c for x, c in vec.items()})


# The multiply-accumulate loops: acc += coeff * x^mono * vec in place, in
# vec's order, dropping a term as soon as it cancels, so a schoolbook product
# keeps the term order of the plain loop over (Monomial, coefficient) pairs.
# Both raise _Overflow when a sum sets a guard bit.  Given a heap, each key
# they add to acc is pushed onto it as -key (the Groebner reduction's
# max-heap of terms still to visit).


def _zi_axpy(acc, coeff, mono, vec, guard, heap=None):
    """The loop over Gaussian-integer pairs (a, b)."""
    ca, cb = coeff
    for x, (a, b) in vec.items():
        key = x + mono
        if key & guard:
            raise _Overflow
        pa = ca * a - cb * b
        pb = ca * b + cb * a
        s = acc.get(key)
        if s is None:
            acc[key] = (pa, pb)
            if heap is not None:
                heappush(heap, -key)
        else:
            pa += s[0]
            pb += s[1]
            if pa or pb:
                acc[key] = (pa, pb)
            else:
                del acc[key]


def _axpy(acc, coeff, mono, vec, guard, heap=None):
    """The loop over any coefficient ring."""
    for x, c in vec.items():
        key = x + mono
        if key & guard:
            raise _Overflow
        s = acc.get(key)
        p = coeff * c
        s = p if s is None else s + p
        if s:
            if heap is not None and key not in acc:
                heappush(heap, -key)
            acc[key] = s
        else:
            acc.pop(key, None)


def _power(powers, v, x, e):
    """x**e for e >= 1, memoised per (v, e) in powers for one call.

    Square-and-multiply through the memo: a run of exponents 1..n costs
    about one product each, and a lone large e costs O(log e).
    """
    p = powers.get((v, e))
    if p is None:
        if e == 1:
            p = x
        else:
            p = _power(powers, v, x, e >> 1)
            p = p * p
            if e & 1:
                p = p * x
        powers[v, e] = p
    return p


def poly_eval(f, point):
    """Evaluate at a point with LCNumber coordinates; returns an LCNumber.

    Every variable in f's support must be assigned, else UnassignedVariable.
    The numbers' own operators mix the domains: a standard coefficient
    times an LCNumber is an LCNumber, and the sum turns into an LCFraction
    at f's first quotient coefficient.  That sum is collapsed once at the
    end, and InvalidInput says when it is not a finite sum.
    """
    acc = LC_ZERO
    powers = {}
    for m, c in f.terms.items():
        val = LC_ONE
        for v, e in m.exps:
            if v not in point:
                raise UnassignedVariable("variable z%d is not assigned" % v)
            val = val * _power(powers, v, point[v], e)
        acc = acc + val * c
    if isinstance(acc, LCFraction):
        acc = acc.to_lcnumber()
        if acc is None:
            raise InvalidInput("evaluation is not a finite sum")
    return acc


def _coeff_standard_part(c, mono):
    if isinstance(c, GaussianRational):
        return c
    if not c.is_limited():
        raise UnlimitedCoefficient("coefficient of %s is unlimited" % mono)
    return c.standard_part()


def poly_shadow(f):
    """Coefficient-wise standard part; defined when all coefficients are limited."""
    out = {}
    for m, c in f.terms.items():
        s = _coeff_standard_part(c, m)
        if s:
            out[m] = s
    return Poly(STANDARD, out)


def max_abs_normalize(f):
    """Divide f by the leading term of a coefficient of maximal magnitude.

    The chosen coefficient is maximal under the magnitude preorder; ties pick
    the coefficient attached to the largest monomial in grevlex.  The chosen
    position becomes 1 + infinitesimal, so the result has limited coefficients,
    at least one appreciable, and a nonzero shadow.
    """
    if not f:
        raise ZeroPolynomial("cannot normalize the zero polynomial")
    f = f.to_extended()
    best_c = None
    # descending grevlex, so a tie keeps the larger monomial
    for _, c in f.sorted_terms():
        if isinstance(c, LCFraction):
            # an LCFraction here is not a finite sum
            raise InvalidInput("normalize needs finite-sum coefficients")
        if best_c is None or lc_abs_cmp(c, best_c) > 0:
            best_c = c
    return f.scale(_unit_inverse(best_c))


def split_inf_ap(f):
    """Split into the infinitesimal-coefficient and appreciable-coefficient parts.

    Every coefficient must be limited (UnlimitedCoefficient otherwise); the
    parts satisfy f = inf_part + ap_part exactly.
    """
    f = f.to_extended()
    inf_terms = {}
    ap_terms = {}
    for m, c in f.terms.items():
        if not c.is_limited():
            raise UnlimitedCoefficient("coefficient of %s is unlimited" % m)
        (inf_terms if c.valuation() > 0 else ap_terms)[m] = c
    return Poly(EXTENDED, inf_terms), Poly(EXTENDED, ap_terms)


class AffineSubstitution:
    """Per-variable degree-<=1 replacement polynomials."""

    def __init__(self, mapping):
        self.mapping = {}
        for v, g in mapping.items():
            if not isinstance(g, Poly):
                raise InvalidInput("substitution values must be Poly")
            if g.total_degree() > 1:
                raise InvalidInput("substitution for z%d is not affine" % v)
            self.mapping[int(v)] = g

    def apply(self, f):
        domain = f.domain
        if any(g.domain == EXTENDED for g in self.mapping.values()):
            domain = EXTENDED
        out = Poly.zero(domain)
        powers = {}
        for m, c in f.terms.items():
            part = Poly.constant(c)
            for v, e in m.exps:
                if v not in self.mapping:
                    raise UnassignedVariable(
                        "substitution does not cover z%d" % v
                    )
                part = part * _power(powers, v, self.mapping[v], e)
            out = out + part
        return out


def apply_substitution(f, s):
    """Compose f with an AffineSubstitution covering its support."""
    return s.apply(f)
