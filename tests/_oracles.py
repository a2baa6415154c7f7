"""Independent brute-force oracles for pinning derived expectations.

Deliberately naive: exact linear algebra over the Gaussian rationals and
exhaustive small searches, kept clear of the Groebner machinery so a
disagreement with the library points at a real bug.  The exceptions are
the references at the end.  Two are transfer references: the two-domain
checks, which run the engine once per coefficient domain where
epsgeom.transfer runs it once, and the flatness witness that checks the
solution by products and then runs the engine twice where epsgeom.transfer
runs it once.  The other two are the lift and the closure report that
reduces its normalised product on the whole line (2 pair-loop runs) and
lifts each shadow root through the public lift, which normalises again.
reference_product is the packed product that Poly.__mul__ made with its own
packing, before it ran on the engine's layout.  Last come the univariate
helpers as they were before one Horner step, one coefficient list and one
truncated series served them all: the coefficient dict, the root split on
quotient-and-remainder division, the witness search that restricted f to
each line by substitution, lc_inverse and lc_nth_root with a series loop
each, and the term formatters with their own sign, body and eps^q logic.
The reference lift and closure report run on these.  At the very end are
coefficient conversion and the reduce-on-variety loop as they were before
Poly(...) became the one place a coefficient converts: the promotion and
domain helpers, constant, to_extended, scale, poly_eval with its second
accumulator, substitution and ideal_combine that promoted first, and the
loop that asked the radical question twice a pass.  Last of all are the
engine's two reduction loops as they were before one loop, groebner._divmod,
served both fields: the fraction-free Z[i] one and the dividing LCFraction
one, each with its own inline multiply-subtract.  After them comes the Q(i)
root finder as it was before it lifted roots modulo an inert prime: the
rational-root search over Gaussian divisors, on trial-division factoring.
"""

import functools
import heapq
import itertools
import math
import random
from fractions import Fraction

from epsgeom.errors import (
    DivisionByZero,
    EmptyOpen,
    InvalidInput,
    NonConstructibleRoot,
    NotAShadowRoot,
    NotASolution,
    UnassignedVariable,
)
from epsgeom.gaussian import (
    QI_ONE,
    QI_ZERO,
    GaussianRational,
    _horner_pass,
    _new,
    _normalised,
    gaussian_integers,
    gaussian_nth_root,
    gaussian_poly_roots,
    gaussian_sqrt,
)
from epsgeom.groebner import (
    Ideal,
    Module,
    eliminate,
    module_syzygies,
    radical_member,
    syzygy_basis,
)
from epsgeom.levicivita import (
    INF,
    LC_ONE,
    LC_ZERO,
    LCFraction,
    LCNumber,
    TruncationOrder,
    _lc_coerce,
    _order_of,
    _unit_inverse,
)
from epsgeom.parser import (
    _eps_power,
    _gaussian_factor,
    _join,
    format_gaussian,
    format_lc,
    format_poly,
)
from epsgeom.poly import (
    EXTENDED,
    MONO_ONE,
    STANDARD,
    AffineSubstitution,
    Monomial,
    Poly,
    _Overflow,
    _power,
    max_abs_normalize,
    poly_eval,
    poly_shadow,
)
from epsgeom.shadow import (
    EvaluatedPoint,
    PointAssignment,
    VarietyPresentation,
    VarietyReduction,
    _finite_coeffs,
    _taylor_shift,
    reduce_on_variety,
)


def monomials_upto(variables, degree):
    """All monomials in the given variables of total degree <= degree."""
    variables = sorted(set(int(v) for v in variables))
    out = [MONO_ONE]
    for v in variables:
        grown = []
        for m in out:
            room = degree - m.degree()
            for e in range(1, room + 1):
                grown.append(Monomial(m.exps + ((v, e),)))
        out.extend(grown)
    return out


def _rref(rows, width):
    """In-place reduced row echelon form; returns pivot column list."""
    pivots = []
    r = 0
    for c in range(width):
        pivot = None
        for k in range(r, len(rows)):
            if rows[k][c]:
                pivot = k
                break
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = QI_ONE / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for k in range(len(rows)):
            if k != r and rows[k][c]:
                factor = rows[k][c]
                rows[k] = [
                    a - factor * b for a, b in zip(rows[k], rows[r])
                ]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return pivots


def brute_force_member(f, gens, cofactor_degree):
    """Does f equal some sum c_i*g_i with deg(c_i) <= cofactor_degree?"""
    gens = [g for g in gens if g]
    if not f:
        return True
    if not gens:
        return False
    variables = set(f.support())
    for g in gens:
        variables.update(g.support())
    cof_monos = monomials_upto(variables, cofactor_degree)
    columns = []
    row_index = {}

    def coeff_vector(poly):
        vec = {}
        for m, c in poly.terms.items():
            if m not in row_index:
                row_index[m] = len(row_index)
            vec[row_index[m]] = c
        return vec

    for g in gens:
        for m in cof_monos:
            columns.append(coeff_vector(Poly("standard", {m: QI_ONE}) * g))
    rhs = coeff_vector(f)
    height = len(row_index)
    width = len(columns)
    rows = []
    for r in range(height):
        row = [col.get(r, QI_ZERO) for col in columns]
        row.append(rhs.get(r, QI_ZERO))
        rows.append(row)
    pivots = _rref(rows, width + 1)
    # inconsistent iff some pivot lands in the augmented column
    return (width not in pivots)


def brute_force_syzygies(a, degree):
    """Vector-space basis of {x : sum a_i*x_i = 0, deg(x_j) <= degree}."""
    return brute_force_kernel([[g] for g in a], degree)


def brute_force_kernel(columns, degree):
    """Vector-space basis of {x : sum x_i*columns_i = 0, deg(x_j) <= degree}.

    columns are equal-length lists of standard Polys (the columns of a
    matrix); each basis element is a list of len(columns) Polys.
    """
    columns = [list(col) for col in columns]
    variables = set()
    for col in columns:
        for g in col:
            variables.update(g.support())
    cof_monos = monomials_upto(variables, degree)
    unknowns = [(i, m) for i in range(len(columns)) for m in cof_monos]
    row_index = {}
    matrix_columns = []
    for i, m in unknowns:
        vec = {}
        for pos, g in enumerate(columns[i]):
            for mm, c in (Poly("standard", {m: QI_ONE}) * g).terms.items():
                if (pos, mm) not in row_index:
                    row_index[(pos, mm)] = len(row_index)
                vec[row_index[(pos, mm)]] = c
        matrix_columns.append(vec)
    height = len(row_index)
    rows = []
    for r in range(height):
        rows.append([col.get(r, QI_ZERO) for col in matrix_columns])
    pivots = _rref(rows, len(unknowns))
    free = [c for c in range(len(unknowns)) if c not in pivots]
    basis = []
    for fc in free:
        values = [QI_ZERO] * len(unknowns)
        values[fc] = QI_ONE
        for r, pc in enumerate(pivots):
            values[pc] = -rows[r][fc]
        vec = [Poly.zero("standard") for _ in columns]
        for (i, m), val in zip(unknowns, values):
            if val:
                vec[i] = vec[i] + Poly("standard", {m: val})
        basis.append(vec)
    return basis


def _pot_lead(vec, key):
    """(position, monomial) of vec's lead under position-over-term order."""
    for pos, f in enumerate(vec):
        if f:
            return pos, max(f.terms, key=key)
    return None


def _pot_normal_form(vec, leads, vectors, key):
    """vec with every term divisible by a lead reduced away, largest first.

    The vectors are monic, so each quotient is a term's coefficient.
    """
    vec = list(vec)
    while True:
        hits = [
            (-pos, key(m), pos, m, j)
            for pos, f in enumerate(vec)
            for m in f.terms
            for j, (lp, lm) in enumerate(leads)
            if lp == pos and lm.divides(m)
        ]
        if not hits:
            return vec
        _, _, pos, m, j = max(hits, key=lambda h: h[:2])
        q = Poly(vec[pos].domain, {m.div(leads[j][1]): vec[pos].terms[m]})
        vec = [f - q * g for f, g in zip(vec, vectors[j])]


def is_monic_reduced_basis(vectors, order):
    """Is vectors a monic reduced Groebner basis, listed by descending lead?

    Position-over-term order: a vector's lead is its largest term, under
    order_cmp(order), at its smallest nonzero position.  Checked from the terms
    alone: each lead coefficient is 1, no term of a vector is divisible by
    another vector's lead at the same position, and the S-vector of each
    pair of leads at one position reduces to zero by plain division
    (Buchberger's criterion).  Together with the module's span this fixes
    the vectors: a module has one monic reduced basis.
    """
    key = functools.cmp_to_key(order_cmp(order))
    vectors = [list(v) for v in vectors]
    leads = [_pot_lead(v, key) for v in vectors]
    if None in leads or any(v[p].terms[m] != 1 for v, (p, m) in zip(vectors, leads)):
        return False
    ranks = [(-p, key(m)) for p, m in leads]
    if any(a <= b for a, b in zip(ranks, ranks[1:])):
        return False
    for i, v in enumerate(vectors):
        for j, (p, lm) in enumerate(leads):
            if j != i and any(lm.divides(m) for m in v[p].terms):
                return False
    for i, (p, mi) in enumerate(leads):
        for j in range(i + 1, len(vectors)):
            if leads[j][0] != p:
                continue
            mj = leads[j][1]
            lcm, one = mi.lcm(mj), vectors[i][p].terms[mi]
            ti = Poly(vectors[i][p].domain, {lcm.div(mi): one})
            tj = Poly(vectors[j][p].domain, {lcm.div(mj): one})
            s = [ti * f - tj * g for f, g in zip(vectors[i], vectors[j])]
            if any(_pot_normal_form(s, leads, vectors, key)):
                return False
    return True


def poly_from_roots(roots):
    """Ascending coefficients of prod (z - r), by plain list convolution."""
    coeffs = [QI_ONE]
    for r in roots:
        nxt = [QI_ZERO] * (len(coeffs) + 1)
        for k, c in enumerate(coeffs):
            nxt[k + 1] = nxt[k + 1] + c
            nxt[k] = nxt[k] - r * c
        coeffs = nxt
    return coeffs


def eval_coeffs(coeffs, x):
    """Horner evaluation of an ascending coefficient list."""
    acc = QI_ZERO
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def compose_polys(h, components):
    """Substitute whole polynomials for h's variables (no degree limit)."""
    domain = h.domain
    if any(g.domain == "extended" for g in components.values()):
        domain = "extended"
    out = Poly.zero(domain)
    for m, c in h.terms.items():
        part = Poly.constant(c)
        if domain == "extended":
            part = part.to_extended()
        for v, e in m.exps:
            part = part * (components[v] ** e)
        out = out + part
    return out


def reference_poly_mul(f, g):
    """The schoolbook product: one Monomial.mul and one coefficient product
    per pair of terms, summed in a dict that drops a term when it cancels."""
    if f.domain != g.domain:
        f, g = f.to_extended(), g.to_extended()
    acc = {}
    for ma, ca in f.terms.items():
        for mb, cb in g.terms.items():
            m = ma.mul(mb)
            p = ca * cb
            s = acc.get(m)
            s = p if s is None else s + p
            if s:
                acc[m] = s
            else:
                acc.pop(m, None)
    return Poly(f.domain, acc)


def reference_product(f, g):
    """f * g as Poly.__mul__ made it on its own packing, before products ran
    on the engine's layout: each monomial one int, a field per variable with
    the degree on top, multiplied by two loops in the schoolbook order.  It
    pins the term order of products as well as their terms."""
    if f.domain != g.domain:
        f, g = f.to_extended(), g.to_extended()
    ta, tb = f.terms, g.terms
    if len(ta) <= 1 or len(tb) <= 1:
        return Poly(
            f.domain,
            {ma.mul(mb): ca * cb for ma, ca in ta.items() for mb, cb in tb.items()},
        )
    variables = sorted({v for m in (*ta, *tb) for v, _ in m.exps})
    width = (max(m.deg for m in ta) + max(m.deg for m in tb)).bit_length()
    fields = [(v, i * width) for i, v in enumerate(variables)]
    top = len(fields) * width
    shift = dict(fields)
    product = _reference_gaussian_product if f.domain == STANDARD else _reference_ring_product
    acc = product(
        _reference_pack(ta, shift, top), ta.values(), _reference_pack(tb, shift, top), tb.values()
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
    return Poly(f.domain, terms)


def _reference_gaussian_product(ka, ca, kb, cb):
    """Packed product over Q(i), on Z[i] pairs over one common denominator."""
    da, za = gaussian_integers(ca)
    db, zb = gaussian_integers(cb)
    right = list(zip(kb, zb))
    acc = {}
    for x, (ar, ai) in zip(ka, za):
        for y, (br, bi) in right:
            k = x + y
            re = ar * br - ai * bi
            im = ar * bi + ai * br
            s = acc.get(k)
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


def _reference_ring_product(ka, ca, kb, cb):
    """Packed product over any coefficient ring."""
    right = list(zip(kb, cb))
    acc = {}
    for x, a in zip(ka, ca):
        for y, b in right:
            k = x + y
            p = a * b
            s = acc.get(k)
            s = p if s is None else s + p
            if s:
                acc[k] = s
            else:
                del acc[k]
    return acc


def _reference_pack(monomials, shift, top):
    """Each monomial as one int: exponent e of v at bit shift[v], the degree at top."""
    out = []
    for m in monomials:
        k = m.deg << top
        for v, e in m.exps:
            k += e << shift[v]
        out.append(k)
    return out


# Reference comparators for the monomial orders: cmp(m, n) is -1, 0 or 1.
# The library defines each order once, as the fields of its packed layout
# (poly._Layout); these are the comparator definitions that layout must
# agree with, written on Monomials alone.


def cmp_grevlex(m, n):
    """Graded reverse lexicographic; smaller variable indices rank higher."""
    dm, dn = m.deg, n.deg
    if dm != dn:
        return 1 if dm > dn else -1
    a, b = m.exps, n.exps
    if a == b:
        return 0
    # ties: the rightmost nonzero entry of the exponent difference decides,
    # negative winning.  Both tuples are sorted by variable index, so walk
    # them from the tail; equal degrees guarantee the loop decides.
    i, j = len(a) - 1, len(b) - 1
    while i >= 0 and j >= 0:
        va, ea = a[i]
        vb, eb = b[j]
        if va != vb:
            return -1 if va > vb else 1
        if ea != eb:
            return -1 if ea > eb else 1
        i -= 1
        j -= 1
    return 0


def cmp_lex(m, n):
    """Pure lexicographic; the variable with the smallest index is largest."""
    a, b = m.exps, n.exps
    if a == b:
        return 0
    i = j = 0
    while i < len(a) and j < len(b):
        va, ea = a[i]
        vb, eb = b[j]
        if va != vb:
            return 1 if va < vb else -1
        if ea != eb:
            return 1 if ea > eb else -1
        i += 1
        j += 1
    if i < len(a):
        return 1
    if j < len(b):
        return -1
    return 0


def cmp_elimination(block):
    """Block order: total degree in `block` first, grevlex ties."""
    block = frozenset(block)

    def cmp(m, n):
        dm = sum(e for v, e in m.exps if v in block)
        dn = sum(e for v, e in n.exps if v in block)
        if dm != dn:
            return 1 if dm > dn else -1
        return cmp_grevlex(m, n)

    return cmp


def order_cmp(order):
    """The reference comparator of a MonomialOrder."""
    if order.kind == "elimination":
        return cmp_elimination(order.block)
    return cmp_grevlex if order.kind == "grevlex" else cmp_lex


# Reference Q(i) arithmetic: a pair of Fractions.  The library stores Q(i) as
# normalised integer triples; this is the Fraction-pair definition that its
# arithmetic, equality, hashing and repr must agree with.


class ReferenceGaussianRational:
    """A complex number with exact rational real and imaginary parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", Fraction(re))
        object.__setattr__(self, "im", Fraction(im))

    def __setattr__(self, name, value):
        raise AttributeError("GaussianRational is immutable")

    def __add__(self, other):
        other = _reference_coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return _reference_raw(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = _reference_coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return _reference_raw(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        other = _reference_coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = _reference_coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not self.im and not other.im:
            return _reference_raw(self.re * other.re, self.im)
        return _reference_raw(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _reference_coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not self.im and not other.im:
            if not other.re:
                raise DivisionByZero("division by zero in Q(i)")
            return _reference_raw(self.re / other.re, self.im)
        n = other.norm()
        if n == 0:
            raise DivisionByZero("division by zero in Q(i)")
        # multiply by the conjugate and divide by the norm
        return _reference_raw(
            (self.re * other.re + self.im * other.im) / n,
            (self.im * other.re - self.re * other.im) / n,
        )

    def __rtruediv__(self, other):
        other = _reference_coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def __neg__(self):
        return _reference_raw(-self.re, -self.im)

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __eq__(self, other):
        other = _reference_coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __repr__(self):
        return "GaussianRational(%r, %r)" % (str(self.re), str(self.im))

    def conjugate(self):
        return _reference_raw(self.re, -self.im)

    def norm(self):
        """Squared complex modulus, an exact nonnegative rational."""
        return self.re * self.re + self.im * self.im


def _reference_raw(re, im):
    # arithmetic results are already exact Fractions; skip re-wrapping
    out = object.__new__(ReferenceGaussianRational)
    object.__setattr__(out, "re", re)
    object.__setattr__(out, "im", im)
    return out


def _reference_coerce(x):
    if isinstance(x, ReferenceGaussianRational):
        return x
    if isinstance(x, (int, Fraction)):
        return ReferenceGaussianRational(x)
    return NotImplemented


# --- two-domain transfer reference -------------------------------------------
# The transfer checks as they were when each ran the engine over standard and
# over extended coefficients separately: both kernels, both spans, both
# exactness verdicts.  The one-run checks must give the same reports.


def reference_kernel_comparison(A):
    """ker(A) over both domains, each kernel tested against the other's span.

    Returns the kernel_extension_check report and, for each extended kernel
    vector, its cofactors over the standard kernel (None outside its span).
    """
    cols = A.columns()
    ker_std = module_syzygies(cols)
    ker_ext = module_syzygies([[e.to_extended() for e in c] for c in cols])
    std_span, ext_span = Module(ker_std), Module(ker_ext)
    witnesses = [std_span.member(v) for v in ker_ext]
    ext_in_std = all(r is not None for r in witnesses)
    std_in_ext = all(ext_span.member(v) is not None for v in ker_std)
    report = {
        "shape": list(A.shape),
        "standard_kernel": [[format_poly(g) for g in v] for v in ker_std],
        "extended_kernel": [[format_poly(g) for g in v] for v in ker_ext],
        "extended_in_standard_span": ext_in_std,
        "standard_in_extended_span": std_in_ext,
        "pass": ext_in_std and std_in_ext,
    }
    return report, witnesses


def _reference_exact_over(cols_a, cols_b):
    ker = module_syzygies(cols_b)
    image, ker_span = Module(cols_a), Module(ker)
    return all(image.member(v) is not None for v in ker) and all(
        ker_span.member(c) is not None for c in cols_a
    )


def reference_exactness_transfer(A, B):
    """The exactness_transfer_check report of a complex B*A = 0."""
    exact_std = _reference_exact_over(A.columns(), B.columns())
    exact_ext = _reference_exact_over(
        [[e.to_extended() for e in c] for c in A.columns()],
        [[e.to_extended() for e in c] for c in B.columns()],
    )
    agree = exact_std == exact_ext
    return {
        "shapes": {"first": list(A.shape), "second": list(B.shape)},
        "complex": True,
        "exact_standard": exact_std,
        "exact_extended": exact_ext,
        "verdicts_agree": bool(agree),
        "pass": bool(agree),
    }


def reference_flatness_witness(a, x):
    """Express an extended solution of sum a_i*x_i = 0 over standard syzygies.

    a is a standard scalar row, x an extended solution vector; the result
    r satisfies x = sum r_i * beta_i where beta is the canonical standard
    syzygy basis of a.  That such r always exist is the flatness of the
    coefficient extension.
    """
    a = list(a)
    x = list(x)
    if len(a) != len(x):
        raise InvalidInput("coefficient row and solution have unequal lengths")
    if any(g.domain != STANDARD for g in a):
        raise InvalidInput("the coefficient row must be standard")
    acc = Poly.zero(EXTENDED)
    for g, xi in zip(a, x):
        acc = acc + g * xi
    if acc:
        raise NotASolution("sum a_i*x_i is not zero")
    beta = syzygy_basis(a)
    target = [xi.to_extended() for xi in x]
    r = Module(beta.generators).member(target)
    if r is None:
        raise InvalidInput("internal: solution escapes the standard syzygies")
    return r


def reference_newton_puiseux_lift(f, a, t=TruncationOrder()):
    """Lift a shadow root `a` of f to a genuine root to the given order.

    Iterates the Newton polygon of f shifted to a: take the steepest edge,
    extract its largest constructible root, recenter, repeat until the
    residual valuation clears t.order.  The returned point ξ satisfies
    st(ξ) = a and valuation(f(ξ)) > t.order (often exactly zero).

    ξ.value is f(ξ), exact: the loop keeps the coefficients of
    fn(ξ + scale*z) with fn = f / u for one term u, and truncates none of
    them, so their constant one is fn(ξ) and f(ξ) = u * fn(ξ).
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
    v = support[0]
    fn = max_abs_normalize(f)
    # fn = f / u for one term u, read off any coefficient's leading term
    m, fm = next(iter(fn.terms.items()))
    (q, cf), (qn, cn) = f.terms[m].leading(), fm.leading()
    u = LCNumber.term(cf / cn, q - qn)

    coeffs = reference_univar_coeffs(fn, v)
    c = [coeffs.get(k, LC_ZERO) for k in range(max(coeffs) + 1)]
    acc = LCNumber.from_gaussian(a)
    scale = LC_ONE
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
    for _ in range(4096):
        v0 = c[0].valuation()
        if v0 > t.order:
            return EvaluatedPoint({v: acc}, u * c[0])
        mu = None
        for k in range(1, len(c)):
            if c[k]:
                cand = Fraction(v0 - c[k].valuation(), k)
                if mu is None or cand > mu:
                    mu = cand
        if mu is None or mu <= 0:
            raise InvalidInput("internal: no infinitesimal branch remains")
        edge = {}
        for k, ck in enumerate(c):
            if ck and ck.valuation() + k * mu == v0:
                edge[k] = ck.leading()[1]
        phi = [edge.get(k, QI_ZERO) for k in range(max(edge) + 1)]
        roots = gaussian_poly_roots(phi)
        if not roots:
            raise NonConstructibleRoot(
                "edge polynomial has no root in the coefficient field"
            )
        gamma = roots[0][0]
        step = LCNumber.term(gamma, mu)
        acc = acc + scale * step
        t_mu = LCNumber.eps(mu)
        # coefficient j of fn(ξ + scale*z) shifted by step, then scaled by
        # t_mu^j: those of fn(ξ + scale*(step + t_mu*z))
        _taylor_shift(c, step)
        tj = t_mu
        for j in range(1, len(c)):
            c[j] = c[j] * tj
            tj = tj * t_mu
        scale = scale * t_mu
    raise InvalidInput("internal: lifting did not converge")


def reference_verify_shadow_closure(roots, t=TruncationOrder()):
    """End-to-end closure check for f = prod (z1 - root).

    LHS: standard parts of the limited roots.  RHS: reduce f on the full
    line, take the shadow, and require its root set to be exactly the LHS
    (division to exhaustion must leave a nonzero constant).  Each LHS element
    is then lifted back and checked to land in the halo of a supplied root.
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

    X = VarietyPresentation((v,), ())
    rr = reduce_on_variety(f, X)
    sh = poly_shadow(rr.poly)
    mults, leftover = reference_collect_roots(sh, v, lhs)
    rhs_ok = (
        len(leftover) == 1
        and bool(leftover[0])
        and all(mults[aa] >= 1 for aa in lhs)
    )

    witnesses = []
    wit_ok = True
    for aa in lhs:
        xi = reference_newton_puiseux_lift(f, aa, t)
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


def reference_univar_coeffs(f, v):
    out = {}
    for m, c in f.terms.items():
        if m.exps and (len(m.exps) > 1 or m.exps[0][0] != v):
            raise InvalidInput("expected a polynomial in z%d only" % v)
        out[m.exponent(v)] = c
    return out


def reference_poly_div_linear(coeffs, r):
    """Divide by (y - r); returns (quotient, remainder)."""
    out = [QI_ZERO] * (len(coeffs) - 1)
    acc = QI_ZERO
    for k in range(len(coeffs) - 1, 0, -1):
        acc = coeffs[k] + acc * r
        out[k - 1] = acc
    rem = coeffs[0] + acc * r
    return out, rem


def reference_divide_out(coeffs, r):
    """(multiplicity, quotient): divide by (y - r) until a remainder appears."""
    mult = 0
    while len(coeffs) > 1:
        quo, rem = reference_poly_div_linear(coeffs, r)
        if rem:
            break
        mult += 1
        coeffs = quo
    return mult, coeffs


def reference_collect_roots(sh, v, candidates):
    """Split off (z - a) factors for each candidate; return (mults, leftover)."""
    deg = sh.degree_in(v)
    coeffs = [QI_ZERO] * (deg + 1)
    for m, c in sh.terms.items():
        coeffs[m.exponent(v)] = c
    mults = {}
    for aa in candidates:
        mults[aa], coeffs = reference_divide_out(coeffs, aa)
    return mults, coeffs


def reference_open_shadow_witness(f, a, seed=0):
    """A point in the halo of a where f does not vanish.

    Restricts f to lines a + u*d: standard basis directions first, then a few
    seeded small-integer directions, then an exhaustive grid that cannot miss
    (a nonzero polynomial cannot vanish on a large enough grid).  On the
    first direction with a nonzero restriction, u = c*eps works for some
    c <= deg + 1.  The returned point's .value is f there, the nonzero
    value the search tested: f(a) itself, or h(u) for the restriction h.
    The point a may also be a plain mapping from variable index to LC number.
    """
    if not f:
        raise EmptyOpen("the zero polynomial cuts out an empty open set")
    if not isinstance(a, PointAssignment):
        a = PointAssignment(a)
    f = f.to_extended()
    for v in f.support():
        if v not in a:
            raise UnassignedVariable("point does not assign z%d" % v)
    if value := poly_eval(f, a):
        return EvaluatedPoint(a.values, value)
    ambient = a.support()
    u = ambient[0]
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
        sub = AffineSubstitution(
            {
                v: Poly.constant(a[v])
                + Poly.variable(u, EXTENDED).scale(GaussianRational(d[v]))
                for v in ambient
            }
        )
        h = sub.apply(f)
        if not h:
            continue
        for c in range(1, h.degree_in(u) + 2):
            ueps = LCNumber.term(GaussianRational(c), 1)
            if value := poly_eval(h, {u: ueps}):
                return EvaluatedPoint(
                    {v: a[v] + ueps * LCNumber.from_gaussian(GaussianRational(d[v])) for v in ambient},
                    value,
                )
    raise InvalidInput("internal: witness grid search failed")


def reference_lc_inverse(x, t=TruncationOrder()):
    """y with valuation(x*y - 1) > t.order; exact when x is a single term."""
    if not x:
        raise DivisionByZero("inverse of zero")
    order = _order_of(t)
    unit_inv = _unit_inverse(x)
    r = x * unit_inv - LC_ONE
    if not r:
        return unit_inv
    rho = r.valuation()
    steps = int(order / rho) + 1
    s = LC_ONE
    p = LC_ONE
    neg_r = -r
    for _ in range(steps):
        p = (p * neg_r).truncate(order)
        if not p:
            break
        s = s + p
    return unit_inv * s


def reference_lc_nth_root(x, n, t=TruncationOrder()):
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
    r = x * _unit_inverse(x) - LC_ONE
    target = order - v
    if not r or target <= 0:
        return unit
    rho = r.valuation()
    steps = int(target / rho) + 1
    s = LC_ONE
    p = LC_ONE
    binom = Fraction(1)
    alpha = Fraction(1, n)
    for k in range(1, steps + 1):
        binom = binom * (alpha - (k - 1)) / k
        p = (p * r).truncate(target)
        if not p or not binom:
            break
        s = s + LCNumber.from_gaussian(GaussianRational(binom)) * p
    return unit * s


def _lc_term_str(q, c):
    if q == 0:
        return format_gaussian(c)
    sign, body = _gaussian_factor(c)
    eps = _eps_power(q)
    return sign + (eps if not body else "%s*%s" % (body, eps))


def reference_format_lc(x):
    """Canonical form of an LCNumber: terms in ascending exponent order."""
    if isinstance(x, LCFraction):
        collapsed = x.to_lcnumber()
        if collapsed is None:
            # display-only quotient form; not part of the input grammar
            return "(%s)/(%s)" % (reference_format_lc(x.num), reference_format_lc(x.den))
        x = collapsed
    if isinstance(x, GaussianRational):
        x = LCNumber.from_gaussian(x)
    if not x:
        return "0"
    return _join(_lc_term_str(q, c) for q, c in x.terms)


def _poly_term_str(mono, coeff):
    mono_str = None if not mono.exps else str(mono)
    if isinstance(coeff, GaussianRational):
        if mono_str is None:
            return format_gaussian(coeff)
        sign, body = _gaussian_factor(coeff)
        return sign + (mono_str if not body else "%s*%s" % (body, mono_str))
    if isinstance(coeff, LCFraction):
        # an LCFraction here is not a finite sum
        body = "(%s)/(%s)" % (reference_format_lc(coeff.num), reference_format_lc(coeff.den))
        return body if mono_str is None else "%s*%s" % (body, mono_str)
    if mono_str is None:
        return reference_format_lc(coeff)
    if coeff.is_term():
        q, c = coeff.leading()
        if q == 0:
            sign, body = _gaussian_factor(c)
            return sign + (mono_str if not body else "%s*%s" % (body, mono_str))
        sign, body = _gaussian_factor(c)
        eps = _eps_power(q)
        head = eps if not body else "%s*%s" % (body, eps)
        return "%s%s*%s" % (sign, head, mono_str)
    return "(%s)*%s" % (reference_format_lc(coeff), mono_str)


def reference_format_poly(f):
    """Canonical form: terms descending in grevlex, deterministic signs."""
    if not f:
        return "0"
    return _join([_poly_term_str(m, c) for m, c in f.sorted_terms()])


# Coefficient conversion as it was before Poly(...) became its one place:
# a promotion helper, a domain helper, and callers that promoted first.


def reference_promote_coeff(c):
    """Standard coefficient into the extended domain."""
    if isinstance(c, GaussianRational):
        return LCNumber.from_gaussian(c)
    return c


def reference_coeff_domain(c):
    if isinstance(c, GaussianRational):
        return STANDARD
    if isinstance(c, (LCNumber, LCFraction)):
        return EXTENDED
    raise InvalidInput("unsupported coefficient type %r" % type(c).__name__)


def reference_constant(c):
    if isinstance(c, (int, Fraction)):
        c = GaussianRational(c)
    return Poly(reference_coeff_domain(c), {MONO_ONE: c})


def reference_to_extended(f):
    if f.domain == EXTENDED:
        return f
    return Poly(EXTENDED, {m: reference_promote_coeff(c) for m, c in f.terms.items()})


def reference_scale(f, c):
    if isinstance(c, (int, Fraction)):
        c = GaussianRational(c)
    domain = f.domain
    if reference_coeff_domain(c) == EXTENDED and domain == STANDARD:
        return reference_scale(reference_to_extended(f), c)
    if reference_coeff_domain(c) == STANDARD and domain == EXTENDED:
        c = reference_promote_coeff(c)
    return Poly(domain, {m: cc * c for m, cc in f.terms.items()})


def reference_poly_eval(f, point):
    """poly_eval with a second accumulator for quotient contributions."""
    acc = LCNumber()
    frac_acc = None
    powers = {}
    for m, c in f.terms.items():
        val = LC_ONE
        for v, e in m.exps:
            if v not in point:
                raise UnassignedVariable("variable z%d is not assigned" % v)
            val = val * _power(powers, v, point[v], e)
        contrib = reference_promote_coeff(c) * val
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


def reference_substitution_apply(s, f):
    """AffineSubstitution.apply with each term promoted before its products."""
    domain = f.domain
    if any(g.domain == EXTENDED for g in s.mapping.values()):
        domain = EXTENDED
    out = Poly.zero(domain)
    powers = {}
    for m, c in f.terms.items():
        part = Poly.constant(c if domain == f.domain else reference_promote_coeff(c))
        for v, e in m.exps:
            if v not in s.mapping:
                raise UnassignedVariable("substitution does not cover z%d" % v)
            part = part * _power(powers, v, s.mapping[v], e)
        out = out + part
    return out


def reference_ideal_combine(kind, I, J):
    """ideal_combine with both generator lists promoted when domains differ."""
    gi, gj = list(I.generators), list(J.generators)
    if I.domain != J.domain:
        gi = [g.to_extended() for g in gi]
        gj = [g.to_extended() for g in gj]
    if kind == "sum":
        return Ideal(gi + gj, I.order)
    if kind == "product":
        return Ideal([f * g for f in gi for g in gj], I.order)
    if kind == "intersection":
        fresh = max((v for g in gi + gj for v in g.support()), default=0) + 1
        t = Poly.variable(fresh)
        one = Poly.constant(1)
        mixed = [t * f for f in gi] + [(one - t) * g for g in gj]
        return eliminate(Ideal(mixed, I.order), {fresh})
    raise InvalidInput("unknown ideal combination %r" % kind)


def reference_reduce_on_variety(f, X):
    """The loop that asked the radical question before and after normalising,
    and so refused an f with an unlimited coefficient."""
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
        sh = poly_shadow(g)
        if sh and not radical_member(sh, I):
            return VarietyReduction(False, g, iterations)
        g = max_abs_normalize(g)
        sh = poly_shadow(g)
        if not radical_member(sh, I):
            return VarietyReduction(False, g, iterations)
        g = g - sh.to_extended()
        if not g:
            return VarietyReduction(True, None, iterations)


# --- the two reduction loops before groebner._divmod -----------------------


def reference_zi_divmod(vec, basis, layout):
    """Full fraction-free reduction of vec by reducers (vec, lead, (a, b, norm)).

    Returns (m, remainder) with m * vec = sum q_i * g_i + remainder, m a
    positive int.  The terms still to reduce and the remainder so far are
    one int vector R over a multiplier r, standing for R / r.  A step on
    a term c with divisor lead L takes the quotient c * conj(L) / norm(L)
    in lowest terms, and scales R and r by whatever denominator is left,
    so no step divides and a unit lead scales nothing.  Before a scaling,
    the factor r shares with R's content is taken out, so r stays the
    least common denominator of the Q(i) values R / r stands for.  The
    remainder has no term divisible by a basis lead.  Raises _Overflow.
    """
    p = dict(vec)
    rem = {}
    r = 1
    top, guard = layout.top, layout.guard
    leads = {}
    for idx, (_, lead, _) in enumerate(basis):
        leads.setdefault(lead >> top, []).append((idx, lead))
    gcd, flat = math.gcd, itertools.chain.from_iterable
    push, pop = heapq.heappush, heapq.heappop
    # lazy-deletion max-heap of negated terms, as in reference_lc_divmod
    heap = [-x for x in p]
    heapq.heapify(heap)
    while p:
        x = -pop(heap)
        c = p.get(x)
        if c is None:
            continue
        for hit, lead in leads.get(x >> top, ()):
            t = x - lead
            if not t & guard:
                break
        else:
            rem[x] = c
            del p[x]
            continue
        g, _, (la, lb, n) = basis[hit]
        ca, cb = c
        qa = ca * la + cb * lb
        qb = cb * la - ca * lb
        if n != 1:
            k = gcd(qa, qb, n)
            if k != n and r != 1:
                h = gcd(r, *flat(p.values()), *flat(rem.values()))
                if h != 1:
                    r //= h
                    p = {y: (a // h, b // h) for y, (a, b) in p.items()}
                    rem = {y: (a // h, b // h) for y, (a, b) in rem.items()}
                    ca, cb = p[x]
                    qa = ca * la + cb * lb
                    qb = cb * la - ca * lb
                    k = gcd(qa, qb, n)
            qa //= k
            qb //= k
            s = n // k
            if s != 1:
                r *= s
                p = {y: (a * s, b * s) for y, (a, b) in p.items()}
                rem = {y: (a * s, b * s) for y, (a, b) in rem.items()}
        for x2, (a2, b2) in g.items():
            key = x2 + t
            if key & guard:
                raise _Overflow
            va = qa * a2 - qb * b2
            vb = qa * b2 + qb * a2
            old = p.get(key)
            if old is None:
                p[key] = (-va, -vb)
                push(heap, -key)
            else:
                va = old[0] - va
                vb = old[1] - vb
                if va or vb:
                    p[key] = (va, vb)
                else:
                    del p[key]
    return r, rem


def reference_lc_divmod(vec, basis, layout):
    """Full reduction of vec by monic reducers (vec, lead).

    Returns (1, remainder).  The remainder has no term divisible by any
    basis leading term, so against a reduced basis it is the unique
    normal form.  Raises _Overflow.
    """
    p = dict(vec)
    rem = {}
    top, guard = layout.top, layout.guard
    # divisor index: the leads at each position, in basis order
    leads = {}
    for idx, (_, lead) in enumerate(basis):
        leads.setdefault(lead >> top, []).append((idx, lead))
    push, pop = heapq.heappush, heapq.heappop
    # lazy-deletion max-heap of negated terms: every live term of p has at
    # least one entry, and entries whose term is gone are skipped on pop
    heap = [-x for x in p]
    heapq.heapify(heap)
    while p:
        x = -pop(heap)
        if x not in p:
            continue
        q = p[x]
        for hit, lead in leads.get(x >> top, ()):
            t = x - lead
            if not t & guard:
                break
        else:
            rem[x] = q
            del p[x]
            continue
        # the divisor is monic, so the quotient is the term's coefficient
        for x2, c2 in basis[hit][0].items():
            key = x2 + t
            if key & guard:
                raise _Overflow
            s = p.get(key)
            if s is None:
                v = -(q * c2)
                if v:
                    p[key] = v
                    push(heap, -key)
            else:
                v = s - q * c2
                if v:
                    p[key] = v
                else:
                    del p[key]
    return 1, rem


# --- the rational-root search of gaussian_poly_roots before p-adic lifting:
# every unit multiple of a quotient of Gaussian divisors of the constant and
# the leading coefficient, found by trial-division factoring of their norms


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


def reference_gaussian_poly_roots(coeffs):
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
        mult = reference_divide_out(coeffs, cand)[0]
        if mult:
            found.append((cand, mult))
    found.sort(key=lambda rm: (rm[0].re, rm[0].im), reverse=True)
    return found
