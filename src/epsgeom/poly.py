"""Sparse multivariate polynomials over exact coefficient domains.

Variables are natural-number indices with no upper bound; index 0 is reserved
for the auxiliary variable used by radical membership.  Coefficients are
GaussianRational ("standard" domain) or LCNumber / LCFraction ("extended"
domain).  A Poly holds a finite Levi-Civita sum as an LCNumber, so its
LCFraction coefficients are quotients that are not finite sums.  Monomials
carry strictly positive integer exponents only.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import (
    InvalidInput,
    UnassignedVariable,
    UnlimitedCoefficient,
    ZeroPolynomial,
)
from .gaussian import (
    GaussianRational,
    QI_ONE,
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


# Each monomial order is a sort key: a larger tuple means a larger monomial.
# The keys are prefix-free (no key is a proper prefix of another), so their
# elementwise negations sort in exactly the reverse order.


def grevlex_key(m):
    """Graded reverse lexicographic; smaller variable indices rank higher.

    Total degree first; ties go to the rightmost nonzero entry of the exponent
    difference, negative winning, so the (var, exp) pairs are read from the
    tail with both entries negated.
    """
    k = [m.deg]
    for v, e in reversed(m.exps):
        k += (-v, -e)
    return tuple(k)


def lex_key(m):
    """Pure lexicographic; the variable with the smallest index is largest.

    Each (var, exp) pair reads as (1, -var, exp) and the key ends with 0, so
    z1 < z1*z2 without z1's key being a prefix of z1*z2's.
    """
    k = []
    for v, e in m.exps:
        k += (1, -v, e)
    k.append(0)
    return tuple(k)


def elimination_key(block):
    """Block order: total degree in `block` first, grevlex ties."""
    block = frozenset(block)

    def key(m):
        return (sum(e for v, e in m.exps if v in block),) + grevlex_key(m)

    return key


def _promote_coeff(c):
    """Standard coefficient into the extended domain."""
    if isinstance(c, GaussianRational):
        return LCNumber.from_gaussian(c)
    return c


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


def _coeff_domain(c):
    if isinstance(c, GaussianRational):
        return STANDARD
    if isinstance(c, (LCNumber, LCFraction)):
        return EXTENDED
    raise InvalidInput("unsupported coefficient type %r" % type(c).__name__)


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

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    @staticmethod
    def zero(domain=STANDARD):
        return Poly(domain, {})

    @staticmethod
    def constant(c):
        if isinstance(c, (int, Fraction)):
            c = GaussianRational(c)
        return Poly(_coeff_domain(c), {MONO_ONE: c})

    @staticmethod
    def variable(index, domain=STANDARD):
        one = QI_ONE if domain == STANDARD else LC_ONE
        return Poly(domain, {Monomial(((index, 1),)): one})

    def to_extended(self):
        if self.domain == EXTENDED:
            return self
        return Poly(EXTENDED, {m: _promote_coeff(c) for m, c in self.terms.items()})

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
        a, b = self._unify(other)
        acc = dict(a.terms)
        for m, c in b.terms.items():
            s = acc.get(m)
            s = c if s is None else s + c
            if s:
                acc[m] = s
            else:
                acc.pop(m, None)
        return Poly(a.domain, acc)

    def __sub__(self, other):
        a, b = self._unify(other)
        return a + (-b)

    def __neg__(self):
        return Poly(self.domain, {m: -c for m, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (GaussianRational, LCNumber, LCFraction, int, Fraction)):
            return self.scale(other)
        a, b = self._unify(other)
        ta, tb = a.terms, b.terms
        if len(ta) <= 1 or len(tb) <= 1:
            # a term times a polynomial: the products have distinct
            # monomials, so there is nothing to collect or cancel
            return Poly(
                a.domain,
                {ma.mul(mb): ca * cb for ma, ca in ta.items() for mb, cb in tb.items()},
            )
        # Each monomial packs into one int, a field per variable that occurs
        # and the degree on top. A product's exponents are at most the sum of
        # the total degrees, so fields that wide never carry and a monomial
        # product is an int add.
        variables = sorted({v for m in (*ta, *tb) for v, _ in m.exps})
        width = (max(m.deg for m in ta) + max(m.deg for m in tb)).bit_length()
        fields = [(v, i * width) for i, v in enumerate(variables)]
        top = len(fields) * width
        shift = dict(fields)
        product = _gaussian_product if a.domain == STANDARD else _product
        acc = product(
            _pack(ta, shift, top), ta.values(), _pack(tb, shift, top), tb.values()
        )
        mask = (1 << width) - 1
        terms = {}
        for k, c in acc.items():
            pairs = []
            for v, sh in fields:
                e = k >> sh & mask
                if e:
                    pairs.append((v, e))
            terms[Monomial._raw(tuple(pairs), k >> top)] = c
        return Poly(a.domain, terms)

    __rmul__ = __mul__

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            raise InvalidInput("polynomial powers take nonnegative integers")
        one = QI_ONE if self.domain == STANDARD else LC_ONE
        return square_and_multiply(self, k, Poly.constant(one))

    def scale(self, c):
        if isinstance(c, (int, Fraction)):
            c = GaussianRational(c)
        domain = self.domain
        if _coeff_domain(c) == EXTENDED and domain == STANDARD:
            return self.to_extended().scale(c)
        if _coeff_domain(c) == STANDARD and domain == EXTENDED:
            c = _promote_coeff(c)
        return Poly(domain, {m: cc * c for m, cc in self.terms.items()})

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
        return sorted(self.terms.items(), key=lambda t: grevlex_key(t[0]), reverse=True)


QI_ZERO_FOR = {STANDARD: QI_ZERO, EXTENDED: LC_ZERO}


# The two product loops below sum the products in the schoolbook order and
# drop a term as soon as it cancels, so the output keeps the insertion order
# of the plain loop over (Monomial, coefficient) pairs.


def _gaussian_product(ka, ca, kb, cb):
    """Packed product over Q(i), on Z[i] pairs over one common denominator;
    each output coefficient is normalised once."""
    da, za = gaussian_integers(ca)
    db, zb = gaussian_integers(cb)
    right = list(zip(kb, zb))
    acc = {}
    get = acc.get
    for x, (ar, ai) in zip(ka, za):
        for y, (br, bi) in right:
            k = x + y
            re = ar * br - ai * bi
            im = ar * bi + ai * br
            s = get(k)
            if s is None:
                acc[k] = (re, im)
            else:
                re += s[0]
                im += s[1]
                if re or im:
                    acc[k] = (re, im)
                else:
                    del acc[k]
    den = da * db
    norm = _new if den == 1 else _normalised
    return {k: norm(re, im, den) for k, (re, im) in acc.items()}


def _product(ka, ca, kb, cb):
    """Packed product over any coefficient ring."""
    right = list(zip(kb, cb))
    acc = {}
    get = acc.get
    for x, a in zip(ka, ca):
        for y, b in right:
            k = x + y
            p = a * b
            s = get(k)
            s = p if s is None else s + p
            if s:
                acc[k] = s
            else:
                del acc[k]
    return acc


def _pack(monomials, shift, top):
    """Each monomial as one int: exponent e of variable v at bit shift[v],
    and the degree at bit top."""
    out = []
    for m in monomials:
        k = m.deg << top
        for v, e in m.exps:
            k += e << shift[v]
        out.append(k)
    return out


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
    """
    acc = LCNumber()
    frac_acc = None
    powers = {}
    for m, c in f.terms.items():
        val = LC_ONE
        for v, e in m.exps:
            if v not in point:
                raise UnassignedVariable("variable z%d is not assigned" % v)
            val = val * _power(powers, v, point[v], e)
        contrib = _promote_coeff(c) * val
        if isinstance(contrib, LCFraction):
            frac_acc = (frac_acc if frac_acc is not None else LCFraction(acc)) + contrib
        elif frac_acc is not None:
            frac_acc = frac_acc + contrib
        else:
            acc = acc + contrib
    if frac_acc is not None:
        out = frac_acc.to_lcnumber()
        if out is None:
            raise InvalidInput("evaluation is not a finite sum")
        return out
    return acc


def _coeff_standard_part(c, mono):
    if isinstance(c, GaussianRational):
        return c
    if isinstance(c, (LCNumber, LCFraction)):
        if not c.is_limited():
            raise UnlimitedCoefficient(
                "coefficient of %s is unlimited" % mono
            )
        return c.standard_part()
    raise InvalidInput("unsupported coefficient type")


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
    best_m = None
    for m, c in f.terms.items():
        if isinstance(c, LCFraction):
            # an LCFraction here is not a finite sum
            raise InvalidInput("normalize needs finite-sum coefficients")
        if best_c is None:
            best_c, best_m = c, m
            continue
        r = lc_abs_cmp(c, best_c)
        if r > 0 or (r == 0 and grevlex_key(m) > grevlex_key(best_m)):
            best_c, best_m = c, m
    unit_inv = _unit_inverse(LCNumber((best_c.leading(),)))
    return f.scale(unit_inv)


def split_inf_ap(f):
    """Split into the infinitesimal-coefficient and appreciable-coefficient parts.

    Every coefficient must be limited (UnlimitedCoefficient otherwise); the
    parts satisfy f = inf_part + ap_part exactly.
    """
    f = f.to_extended()
    inf_terms = {}
    ap_terms = {}
    for m, c in f.terms.items():
        # an LCFraction here is not a finite sum
        if isinstance(c, LCFraction) or c.is_unlimited():
            raise UnlimitedCoefficient("coefficient of %s is unlimited" % m)
        (inf_terms if c.is_infinitesimal() else ap_terms)[m] = c
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
            part = Poly.constant(c if domain == f.domain else _promote_coeff(c))
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
