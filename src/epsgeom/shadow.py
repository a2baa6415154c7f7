"""Shadows and halos: points, varieties, lifting, and closure checks.

The operators here connect the infinitesimal world to the standard one:
coordinate-wise standard parts of points, the reduce-on-variety loop that
turns a polynomial with infinitesimal coefficients into one with a usable
shadow, Newton-polygon lifting of shadow roots to actual roots, and the
end-to-end closure check on factored univariate instances.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    EmptyOpen,
    InvalidInput,
    NonConstructibleRoot,
    NotAShadowRoot,
    SupportMismatch,
    UnassignedVariable,
    UnlimitedValue,
)
from .gaussian import (
    GaussianRational,
    QI_ZERO,
    _divide_out,
    _horner_pass,
    gaussian_poly_roots,
)
from .groebner import Ideal, radical_member
from .levicivita import (
    INF,
    LC_ONE,
    LC_ZERO,
    LCFraction,
    LCNumber,
    TruncationOrder,
    _lc_coerce,
)
from .parser import format_gaussian, format_lc, format_poly
from .poly import (
    EXTENDED,
    Poly,
    max_abs_normalize,
    poly_eval,
    poly_shadow,
)


class PointAssignment:
    """Finitely supported map from variable index to LCNumber."""

    __slots__ = ("values",)

    def __init__(self, values):
        vals = {}
        for v, x in dict(values).items():
            x = _lc_coerce(x)
            if x is NotImplemented:
                raise InvalidInput("coordinate values must be LC numbers")
            vals[int(v)] = x
        object.__setattr__(self, "values", vals)

    def __setattr__(self, name, value):
        raise AttributeError("PointAssignment is immutable")

    def __contains__(self, v):
        return v in self.values

    def __getitem__(self, v):
        return self.values[v]

    def __len__(self):
        return len(self.values)

    def __eq__(self, other):
        return isinstance(other, PointAssignment) and self.values == other.values

    def __repr__(self):
        return "PointAssignment(%r)" % (self.values,)

    def items(self):
        return sorted(self.values.items())

    def support(self):
        return tuple(sorted(self.values))


class EvaluatedPoint(PointAssignment):
    """A point that also carries `value`, a polynomial's value there."""

    __slots__ = ("value",)

    def __init__(self, values, value):
        super().__init__(values)
        object.__setattr__(self, "value", value)


def point_shadow(p):
    """Coordinate-wise standard part."""
    out = {}
    for v, x in p.items():
        try:
            out[v] = LCNumber.from_gaussian(x.standard_part())
        except UnlimitedValue:
            raise UnlimitedValue("coordinate z%d is unlimited" % v) from None
    return PointAssignment(out)


def halo_member(p, a):
    """True iff every coordinate of p differs from a's by an infinitesimal."""
    if p.support() != a.support():
        p_vars, a_vars = (
            "{%s}" % ", ".join("z%d" % v for v in x.support()) for x in (p, a)
        )
        raise SupportMismatch("supports %s and %s differ" % (p_vars, a_vars))
    return all((p[v] - a[v]).is_infinitesimal() for v in p.support())


class VarietyPresentation:
    """An affine variety given by standard generators of its (radical) ideal.

    Radicality is the caller's assertion; nothing here checks it.
    """

    def __init__(self, ambient, generators):
        ambient = tuple(sorted(int(v) for v in ambient))
        gens = tuple(generators)
        for g in gens:
            if not isinstance(g, Poly) or g.domain != "standard":
                raise InvalidInput("variety generators must be standard Poly")
            if not set(g.support()) <= set(ambient):
                raise InvalidInput("generator uses a variable outside the ambient")
        self.ambient = ambient
        self.generators = gens
        self._ideal = None

    def ideal(self):
        if self._ideal is None:
            self._ideal = Ideal(self.generators)
        return self._ideal

    def __repr__(self):
        return "VarietyPresentation(%r, %d generators)" % (
            self.ambient,
            len(self.generators),
        )


@dataclass(frozen=True)
class VarietyReduction:
    """Outcome of reduce_on_variety: the whole variety, or a usable g."""

    all_of_x: bool
    poly: object
    iterations: int


def _finite_coeffs(f):
    """f in the extended domain; an LCFraction coefficient is not a finite sum."""
    f = f.to_extended()
    if any(isinstance(c, LCFraction) for c in f.terms.values()):
        raise InvalidInput("finite-sum coefficients required")
    return f


def reduce_on_variety(f, X):
    """Find g with the same zero set as f on X whose shadow survives on X.

    Returns all_of_x when f lies in the extension of I(X).  Otherwise loops:
    normalize g by its largest coefficient (so an unlimited f is scaled
    down, not refused) and ask once whether the shadow vanishes on X
    (radical membership); while it does, subtract the shadow.  When it
    does not, the result is g itself if its largest coefficient is
    appreciable, since normalising then only divides by a standard unit,
    and the normalised g otherwise.  Each subtraction removes at least one
    eps-term, so the loop runs at most (total eps-term count of f) times.
    """
    f = _finite_coeffs(f)
    I = X.ideal()
    if not I.normal_form(f):
        return VarietyReduction(True, None, 0)
    g = f
    budget = sum(len(c.terms) for c in f.terms.values()) + 2
    iterations = 0
    while True:
        iterations += 1
        if iterations > budget:
            raise InvalidInput("internal: reduction loop exceeded its budget")
        n = max_abs_normalize(g)
        sh = poly_shadow(n)
        if not radical_member(sh, I):
            appreciable = min(c.valuation() for c in g.terms.values()) == 0
            return VarietyReduction(False, g if appreciable else n, iterations)
        g = n - sh
        if not g:
            # f was a unit multiple of a standard member of the radical
            return VarietyReduction(True, None, iterations)


def _univar_coeffs(f, v, zero):
    """The dense ascending coefficients of f, a polynomial in z_v only."""
    c = [zero] * (f.degree_in(v) + 1)
    for m, cm in f.terms.items():
        if m.exps and (len(m.exps) > 1 or m.exps[0][0] != v):
            raise InvalidInput("expected a polynomial in z%d only" % v)
        c[m.exponent(v)] = cm
    return c


def _taylor_shift(c, s):
    """Turn the ascending coefficients c of f(z) into those of f(s + z), in
    place, by Horner's rule in n(n+1)/2 multiply-adds (von zur Gathen &
    Gerhard, ISSAC 1997)."""
    for i in range(len(c) - 1):
        _horner_pass(c, s, i)


def newton_puiseux_lift(f, a, t=TruncationOrder()):
    """Lift a shadow root `a` of f to a genuine root to the given order.

    Iterates the Newton polygon of f shifted to a: take the steepest edge,
    extract its largest constructible root, recenter, repeat until the
    residual valuation clears t.order.  The returned point ξ satisfies
    st(ξ) = a and valuation(f(ξ)) > t.order (often exactly zero).

    ξ.value is f(ξ), exact: the loop keeps the coefficients of fn(ξ + z)
    with fn = f / u for one term u, and truncates none of them, so their
    constant one is fn(ξ) and f(ξ) = u * fn(ξ).
    """
    if isinstance(a, (int, Fraction)):
        a = GaussianRational(a)
    if isinstance(a, LCNumber):
        st = a.standard_part()
        if a != LCNumber.from_gaussian(st):
            raise InvalidInput("the shadow root must be a standard value")
        a = st
    if not isinstance(a, GaussianRational):
        raise InvalidInput("the shadow root must be a standard value")
    f = _finite_coeffs(f)
    support = f.support()
    if len(support) != 1 or f.total_degree() < 1:
        raise InvalidInput("lifting needs a nonconstant univariate polynomial")
    fn = max_abs_normalize(f)
    # fn = f / u for one term u, read off any coefficient's leading term
    m, fm = next(iter(fn.terms.items()))
    (q, cf), (qn, cn) = f.terms[m].leading(), fm.leading()
    return _lift(fn, LCNumber.term(cf / cn, q - qn), support[0], a, t)


def _lift(fn, u, v, a, t):
    """The Newton loop of newton_puiseux_lift on fn = f / u, a nonconstant
    max-abs-normalised polynomial in z_v, at the standard root a of its
    shadow; the point's value is u * fn(ξ).

    c holds the coefficients of fn(ξ + z) and is never rescaled.  A step
    takes the steepest edge of c's Newton polygon, of slope q, shifts c by
    the single term gamma*eps^q and sets M = q.  That is the step of the
    rescaled polygon, that of fn(ξ + eps^M*z), whose point k sits at
    valuation(c[k]) + k*M and whose steepest slope q - M must be positive.
    """
    c = _univar_coeffs(fn, v, LC_ZERO)
    acc = LCNumber.from_gaussian(a)
    # the first shift, z -> a + z, one Horner pass at a time: after the
    # first pass c[0] = fn(a), and fn is limited, so st(c[0]) is its
    # shadow's value at a
    _horner_pass(c, acc, 0)
    if c[0].valuation() <= 0:
        raise NotAShadowRoot(
            "z%d = %s is not a root of the shadow" % (v, format_gaussian(a))
        )
    for i in range(1, len(c) - 1):
        _horner_pass(c, acc, i)
    M = 0
    for _ in range(4096):
        v0 = c[0].valuation()
        if v0 > t.order:
            return EvaluatedPoint({v: acc}, u * c[0])
        q = None
        for k in range(1, len(c)):
            if c[k]:
                cand = Fraction(v0 - c[k].valuation(), k)
                if q is None or cand > q:
                    q = cand
        if q is None or q <= M:
            raise InvalidInput("internal: no infinitesimal branch remains")
        edge = {}
        for k, ck in enumerate(c):
            if ck and ck.valuation() + k * q == v0:
                edge[k] = ck.leading()[1]
        phi = [edge.get(k, QI_ZERO) for k in range(max(edge) + 1)]
        roots = gaussian_poly_roots(phi)
        if not roots:
            raise NonConstructibleRoot(
                "edge polynomial has no root in the coefficient field"
            )
        delta = LCNumber.term(roots[0][0], q)
        _taylor_shift(c, delta)
        acc = acc + delta
        M = q
    raise InvalidInput("internal: lifting did not converge")


def open_shadow_witness(f, a, seed=0):
    """A point in the halo of a where f does not vanish.

    Searches lines a + u*d: standard basis directions first, then a few
    seeded small-integer directions, then an exhaustive grid that cannot miss
    (a nonzero polynomial cannot vanish on a large enough grid).  On each
    line it evaluates f at u = c*eps for c = 1, ..., deg(f).  The search
    reaches the lines only when f(a) = 0, so the restriction to a line is
    u*h(u) with deg h <= deg(f) - 1; it vanishes at all of them only when
    it is zero, and the search moves to the next line.
    The returned point's .value is f there, the nonzero value the search
    tested: f(a) itself, or f(a + c*eps*d).  The point a may also be a
    plain mapping from variable index to LC number.
    """
    if not f:
        raise EmptyOpen("the zero polynomial cuts out an empty open set")
    if not isinstance(a, PointAssignment):
        a = PointAssignment(a)
    for v in f.support():
        if v not in a:
            raise UnassignedVariable("point does not assign z%d" % v)
    if value := poly_eval(f, a):
        return EvaluatedPoint(a.values, value)
    ambient = a.support()
    deg = f.total_degree()

    def directions():
        for w in ambient:
            yield {v: 1 if v == w else 0 for v in ambient}
        rng = random.Random(seed)
        for _ in range(16):
            yield {v: rng.randint(-3, 3) for v in ambient}
        for combo in itertools.product(range(deg + 1), repeat=len(ambient)):
            if any(combo):
                yield dict(zip(ambient, combo))

    for d in directions():
        for c in range(1, deg + 1):
            ueps = LCNumber.term(GaussianRational(c), 1)
            point = {v: a[v] + ueps * LCNumber.from_gaussian(GaussianRational(d[v])) for v in ambient}
            if value := poly_eval(f, point):
                return EvaluatedPoint(point, value)
    raise InvalidInput("internal: witness grid search failed")


def _collect_roots(sh, v, candidates):
    """Split off (z - a) factors for each candidate; return (mults, leftover)."""
    coeffs = _univar_coeffs(sh, v, QI_ZERO)
    mults = {}
    for aa in candidates:
        mults[aa], coeffs = _divide_out(coeffs, aa)
    return mults, coeffs


def verify_shadow_closure(roots, t=TruncationOrder()):
    """End-to-end closure check for f = prod (z1 - root).

    LHS: standard parts of the limited roots.  RHS: f is max-abs
    normalised, and the whole-line reduction is the identity on the
    normalised product, so RHS is its shadow; its root set must be exactly
    the LHS (division to exhaustion must leave a nonzero constant).  Each
    LHS element is then lifted back from the normalised f and checked to
    land in the halo of a supplied root.
    """
    parsed = []
    for r in roots:
        r = _lc_coerce(r)
        if r is NotImplemented:
            raise InvalidInput("roots must be LC numbers")
        parsed.append(r)
    if not parsed:
        raise InvalidInput("need at least one root")
    v = 1
    z = Poly.variable(v, EXTENDED)
    f = Poly.constant(LC_ONE)
    for r in parsed:
        f = f * (z - Poly.constant(r))
    # unlimited roots give unlimited coefficients; the zero set is unchanged
    # under scaling, so work with the normalized form throughout
    f = max_abs_normalize(f)

    lhs = []
    for r in parsed:
        if r.is_limited():
            s = r.standard_part()
            if s not in lhs:
                lhs.append(s)
    lhs.sort(key=lambda c: (c.re, c.im))

    sh = poly_shadow(f)
    mults, leftover = _collect_roots(sh, v, lhs)
    rhs_ok = (
        len(leftover) == 1
        and bool(leftover[0])
        and all(mults[aa] >= 1 for aa in lhs)
    )

    witnesses = []
    wit_ok = True
    for aa in lhs:
        xi = _lift(f, LC_ONE, v, aa, t)
        res_val = xi.value.valuation()
        in_halo = any((xi[v] - r).is_infinitesimal() for r in parsed)
        ok = (
            xi[v].standard_part() == aa
            and res_val > t.order
            and in_halo
        )
        wit_ok = wit_ok and ok
        witnesses.append(
            {
                "shadow_root": format_gaussian(aa),
                "lift": format_lc(xi[v]),
                "residual_valuation": "inf" if res_val == INF else str(res_val),
                "in_halo_of_instance_root": in_halo,
                "ok": ok,
            }
        )

    return {
        "instance": [format_lc(r) for r in parsed],
        "lhs": [format_gaussian(aa) for aa in lhs],
        "rhs": {
            "reduced_shadow": format_poly(sh),
            "roots_match_lhs": rhs_ok,
        },
        "witnesses": witnesses,
        "pass": rhs_ok and wit_ok,
    }
