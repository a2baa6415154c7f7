"""Deterministic Buchberger engine over both coefficient domains.

One vector-polynomial engine serves scalars (rank-1 vectors) and module
computations (syzygies, kernels).  Each Module runs it over the smallest
field its generators need: Q(i) when every coefficient is eps-free, even for
extended-domain data, and the LCFraction field otherwise.  An extended
target of a Q(i) basis is reduced one eps-power slice at a time (see
Module).  Results are Polys, so a finite LCFraction result is an LCNumber;
an Ideal's basis is also scaled to finite sums (clear_denominators).
Everything is deterministic for a fixed generator order and monomial order:
pair selection is the normal strategy (minimal lcm degree, ties by the
monomial order, then indices), and reduced bases are sorted by descending
leading term.

Inside the engine each term (position, monomial) is one int, packed under a
per-Module layout of its variables and order: a monomial product is an int
add, the position-over-term order is an int compare, and divisibility is a
guard-bit mask.  The layout (_Layout) and the multiply-accumulate loops live
in poly.py, where Poly products run on them too.  Polynomials are packed
where they enter the engine and unpacked where they leave, and a module
whose terms outgrow the layout's fields moves to a wider one, so results
stay exact.

Over Q(i) the engine's data are primitive Gaussian-integer pairs (a, b), and
a reduction step scales the vector it reduces rather than dividing by the
divisor's lead (see _ZiKernel).  Q(i) numbers appear only where data enter
the engine and where the monic basis, remainders and cofactor rows leave it.
The LCFraction field keeps dividing, on monic vectors (_LcKernel).  One pair
loop, one inter-reduction and one reduction loop (_divmod) serve both
fields; the kernels differ only in entry, exit, monic, cross, element and
step.

Cofactor rows ride in the vectors as tag terms below the column positions
(Cox, Little & O'Shea, GTM 185; Caboara & Traverso, ISSAC 1998), so ordinary
reduction keeps them up to date; runs that need no rows carry no tags.  The
syzygies of the columns are the tag-only part of one tagged run's reduced
basis, or none, with no run, when Q(i) columns are independent at one point
modulo a prime.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from itertools import chain

from .errors import InvalidInput, ReservedVariableInUse
from .gaussian import _new, _normalised, gaussian_integers
from .levicivita import LC_ONE, LCFraction, LCNumber, lc_lcm
from .poly import (
    EXTENDED,
    STANDARD,
    Poly,
    _axpy,
    _layout,
    _Overflow,
    _zi_axpy,
)

_FRAC_ONE = LCFraction(LC_ONE)


class MonomialOrder:
    """grevlex, lex, or a block-elimination order over a variable set.

    Its kind and block name the poly._Layout that defines the order.
    """

    __slots__ = ("kind", "block")

    def __init__(self, kind="grevlex", block=()):
        block = tuple(sorted({int(b) for b in block}))
        if kind not in ("grevlex", "lex", "elimination"):
            raise InvalidInput("unknown monomial order %r" % kind)
        if block and kind != "elimination":
            raise InvalidInput("only elimination orders take a block")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "block", block)

    def __setattr__(self, name, value):
        raise AttributeError("MonomialOrder is immutable")

    @property
    def name(self):
        if self.kind != "elimination":
            return self.kind
        return "elimination(%s)" % ",".join("z%d" % v for v in self.block)

    @staticmethod
    def from_name(text):
        text = text.strip()
        if text in ("grevlex", "lex"):
            return MonomialOrder(text)
        if text.startswith("elimination(") and text.endswith(")"):
            inner = text[len("elimination(") : -1].strip()
            block = []
            for piece in inner.split(","):
                piece = piece.strip()
                if not piece:
                    continue
                if piece[0] in "zw" and piece[1:].isdecimal():
                    block.append(int(piece[1:]))
                elif piece.isdecimal():
                    block.append(int(piece))
                else:
                    raise InvalidInput("bad block variable %r" % piece)
            return MonomialOrder("elimination", block)
        raise InvalidInput("unknown monomial order %r" % text)

    def __eq__(self, other):
        return (
            isinstance(other, MonomialOrder)
            and self.kind == other.kind
            and self.block == other.block
        )

    def __hash__(self):
        return hash((self.kind, self.block))

    def __repr__(self):
        return "MonomialOrder(%r)" % self.name


GREVLEX = MonomialOrder("grevlex")
LEX = MonomialOrder("lex")


# field width in bits that a Module's layout starts from; it doubles on overflow
_START_WIDTH = 8


def _variables(polys):
    return {v for f in polys for m in f.terms for v, _ in m.exps}


# --- coefficient kernels ---------------------------------------------------------
#
# The engine runs over one of two fields, each behind a kernel with the same
# operations; the pair loop, the inter-reduction and the reduction loop
# _divmod below are shared, and the kernels differ only in entry, exit,
# monic, cross, element and step.  A kernel keeps vectors {term: coefficient}
# in its own form.  Each basis element is built once, by kernel.element, as
# (vec, lead, aux), where aux is what step reads of the lead.  A reduction
# returns an int multiplier m with
#     m * vec = sum_i q_i * g_i + remainder,
# subtracting each q_i * g_i through kernel.axpy, the multiply-accumulate
# loop that products and S-vectors use too.  No quotient is recorded:
# cofactor rows ride in the vectors as tag terms (see _buchberger_pairs).
#
# _ZiKernel runs Q(i) on Gaussian-integer pairs (a, b).  Vectors are stored
# primitive (integer content 1), and a reduction step scales the remainder
# instead of dividing by the divisor's lead, as in Bareiss's integer-preserving
# elimination (Math. Comp. 22, 1968).  Q(i) numbers appear only where data
# enter (entry and _eps_slices clear denominators) and where they leave (exit
# divides by a multiplier, monic by the leading coefficient).  _LcKernel runs
# the LCFraction field by division: its vectors are monic, and m = 1.
#
# Pair order, the choice of divisor and both pair criteria read terms only, so
# a Z[i] run visits the same terms as a dividing run, and each of its vectors
# is a nonzero scalar multiple of the dividing run's vector at the same step.
# Reduced bases, normal forms, rows and syzygies are therefore the same once
# made monic or divided by their multipliers.


def _clear(vec):
    """(zvec, den) with zvec = den * vec over Z[i], for a vec of Q(i) numbers."""
    den, pairs = gaussian_integers(vec.values())
    return dict(zip(vec, pairs)), den


class _ZiKernel:
    """Q(i) on primitive Gaussian-integer pairs, reduced by scaling."""

    one = (1, 0)

    @staticmethod
    def entry(cols, layout):
        """(vec, den): den * cols as a Z[i] vector, den a positive int."""
        vec = {}
        for pos, f in enumerate(cols):
            for m, c in f.terms.items():
                vec[layout.term(pos, m)] = c
        return _clear(vec)

    @staticmethod
    def exit(vec, den):
        """vec / den as Q(i) numbers, for a nonzero int den."""
        if den == 1:
            return {x: _new(a, b, 1) for x, (a, b) in vec.items()}
        return {x: _normalised(a, b, den) for x, (a, b) in vec.items()}

    @staticmethod
    def monic(vec):
        """vec over its leading coefficient, as Q(i) numbers."""
        la, lb = vec[max(vec)]
        if not lb:
            return _ZiKernel.exit(vec, la)
        n = la * la + lb * lb
        return {
            x: _normalised(a * la + b * lb, b * la - a * lb, n)
            for x, (a, b) in vec.items()
        }

    @staticmethod
    def times(c, n):
        return c[0] * n, c[1] * n

    @staticmethod
    def cross(ci, cj):
        """(ai, aj) with ai*ci + aj*cj = 0: the leads crossed, over their gcd."""
        k = math.gcd(*ci, *cj)
        return (cj[0] // k, cj[1] // k), (-ci[0] // k, -ci[1] // k)

    @staticmethod
    def element(vec, lead):
        """(vec over its integer content, lead, (a, b, norm) of its lead)."""
        c = math.gcd(*chain(*vec.values()))
        vec = vec if c == 1 else {x: (a // c, b // c) for x, (a, b) in vec.items()}
        la, lb = vec[lead]
        return vec, lead, (la, lb, la * la + lb * lb)

    axpy = staticmethod(_zi_axpy)

    @staticmethod
    def step(c, aux, p, rem, r):
        """(-q, p, rem, r) for the term c against a lead L, aux = (re L, im L, |L|^2).

        The terms still to reduce p and the remainder so far rem are int
        vectors over one multiplier r, standing for p / r and rem / r.  The
        quotient c * conj(L) / norm(L) is taken in lowest terms, and p, rem
        and r are scaled by whatever denominator is left, so no step divides
        and a unit lead scales nothing.  Before a scaling, the factor r
        shares with the content of p and rem is taken out, so r stays the
        least common denominator of the Q(i) values they stand for.
        """
        la, lb, n = aux
        ca, cb = c
        qa = ca * la + cb * lb
        qb = cb * la - ca * lb
        if n != 1:
            k = math.gcd(qa, qb, n)
            if k != n and r != 1:
                h = math.gcd(r, *chain(*p.values(), *rem.values()))
                if h != 1:
                    r //= h
                    p = {y: (a // h, b // h) for y, (a, b) in p.items()}
                    rem = {y: (a // h, b // h) for y, (a, b) in rem.items()}
                    qa //= h
                    qb //= h
                    k = math.gcd(qa, qb, n)
            qa //= k
            qb //= k
            s = n // k
            if s != 1:
                r *= s
                p = {y: (a * s, b * s) for y, (a, b) in p.items()}
                rem = {y: (a * s, b * s) for y, (a, b) in rem.items()}
        return (-qa, -qb), p, rem, r


class _LcKernel:
    """The LCFraction field by division: monic vectors, m = 1."""

    one = _FRAC_ONE

    @staticmethod
    def entry(cols, layout):
        vec = {}
        for pos, f in enumerate(cols):
            for m, c in f.terms.items():
                vec[layout.term(pos, m)] = c if isinstance(c, LCFraction) else LCFraction(c)
        return vec, 1

    @staticmethod
    def exit(vec, den):
        # den is a product of multipliers, all 1 here
        return vec

    @staticmethod
    def monic(vec):
        return vec

    @staticmethod
    def times(c, n):
        # n is -1: a sign, or minus an entry's den of 1
        return -c

    @staticmethod
    def cross(ci, cj):
        return cj, -ci

    @staticmethod
    def element(vec, lead):
        """(vec over its leading coefficient, so monic, lead, None)."""
        c = vec[lead]
        if c != _FRAC_ONE:
            inv = _FRAC_ONE / c
            vec = {x: inv * cc for x, cc in vec.items()}
        return vec, lead, None

    axpy = staticmethod(_axpy)

    @staticmethod
    def step(c, aux, p, rem, r):
        # the divisor is monic, so the quotient is the term's coefficient
        return -c, p, rem, r


def _divmod(vec, basis, layout, kernel):
    """Full reduction of vec by the kernel elements (g, lead, aux) of basis.

    Returns (m, remainder) with m * vec = sum q_i * g_i + remainder, where m
    is a positive int (1 over the LCFraction field).  The remainder has no
    term divisible by a basis lead, so against a reduced basis it is the
    unique normal form up to m.  Terms are visited from the largest down; a
    reducible term's divisor is the first basis element whose lead divides
    it, the kernel's step gives the quotient (and, over Z[i], scales), and
    the shared multiply-accumulate loop subtracts.  Raises _Overflow.
    """
    p = dict(vec)
    rem = {}
    r = 1
    top, guard = layout.top, layout.guard
    # divisor index: the leads at each position, in basis order
    leads = {}
    for idx, (_, lead, _) in enumerate(basis):
        leads.setdefault(lead >> top, []).append((idx, lead))
    step, axpy, pop = kernel.step, kernel.axpy, heapq.heappop
    # lazy-deletion max-heap of negated terms: every live term of p has at
    # least one entry, and entries whose term is gone are skipped on pop
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
        g, _, aux = basis[hit]
        q, p, rem, r = step(c, aux, p, rem, r)
        axpy(p, q, t, g, guard, heap)
    return r, rem


def _vec_to_polys(vec, rank, domain, layout):
    """Polys of a vector of field values (a kernel's exit or monic form)."""
    rows = [{} for _ in range(rank)]
    for x, c in vec.items():
        pos, m = layout.split(x)
        rows[pos][m] = c
    return [Poly(domain, r) for r in rows]


# --- the shared engine -----------------------------------------------------------


def _split(vec, rank, top):
    """(column part, tag part) of a tagged vec, the tags moved to input positions."""
    shift = rank << top
    cols = {x: c for x, c in vec.items() if x >> top > -rank}
    return cols, {x + shift: c for x, c in vec.items() if x >> top <= -rank}


def _buchberger_pairs(inputs, layout, kernel, rank=None, syzygies=False):
    """The Buchberger pair loop: an unreduced module Groebner basis.

    inputs lists (vec, den), vec being den * column in the kernel's form.
    Returns G, a list of kernel elements (vec, lead, aux) in insertion
    order, the nonzero inputs first (all of them with syzygies).

    A rank r turns tags on: input k gets one more term, its tag -den at
    position r + k, below every column position.  Every vector is then a
    combination of tagged inputs, so its column part g and its tag part u
    (see _split) keep g + u . columns = 0.  A vector whose lead is a tag is
    tag-only, a syzygy of the columns.  Without syzygies such remainders are
    dropped: no lead is a tag, so the ordinary reduction keeps u up to date,
    and the column terms are visited as in an untagged run.

    syzygies=True (which needs tags) builds a Groebner basis of the whole
    tagged module: zero inputs are inserted too, as their unit syzygies, and
    so is every nonzero remainder.  Under position-over-term order with the
    column positions first, its tag-only elements are a Groebner basis of
    the syzygy module (elimination; Cox, Little & O'Shea, GTM 185, ch. 5).
    The product criterion (scalar inputs only) then needs one vector more:
    S(i, j) = k - tail_j*g_i + tail_i*g_j with the Koszul vector
    k = g_j*u_i - g_i*u_j, each summand below the lcm, so the skip is sound
    once k is reduced and its nonzero remainder inserted.
    """
    top, guard = layout.top, layout.guard
    fields = (1 << top) - 1
    axpy, times = kernel.axpy, kernel.times
    G = []
    scalar = all(x >> top == 0 for v, _ in inputs for x in v)
    # a unit lead (term 0) in a scalar run that keeps no syzygies divides
    # every other lead, so the reduced basis is that unit alone, its vector
    # as inserted: the loop may stop there
    unit = False

    def insert(vec):
        nonlocal unit
        lead = max(vec)
        G.append(kernel.element(vec, lead))
        unit = unit or (lead == 0 and scalar and not syzygies)
        return len(G) - 1

    # normal selection: pairs pop by (lcm degree, lcm order, i, j); the lcm
    # rides along as a fifth entry, and (i, j) is unique, so it never orders
    pairs = []
    pending = set()

    def add_pairs(j):
        lj = G[j][1]
        for i in range(j):
            li = G[i][1]
            if li >> top == lj >> top:
                lcm = layout.lcm(li, lj)
                heapq.heappush(pairs, (layout.degree(lcm), lcm & fields, i, j, lcm))
                pending.add((i, j))

    for k, (v, den) in enumerate(inputs):
        if v or syzygies:
            if rank is not None:
                v = {**v, -(rank + k) << top: times(kernel.one, -den)}
            add_pairs(insert(v))

    def chain_skip(i, j, lcm):
        # Buchberger chain criterion: S(i,j) is redundant once some third
        # lead divides the pair lcm and both sub-pairs are already treated
        for k in range(len(G)):
            if k == i or k == j or not layout.divides(G[k][1], lcm):
                continue
            a = (i, k) if i < k else (k, i)
            if a in pending:
                continue
            b = (j, k) if j < k else (k, j)
            if b not in pending:
                return True
        return False

    while pairs and not unit:
        _, _, i, j, lcm = heapq.heappop(pairs)
        pending.discard((i, j))
        gi, li, _ = G[i]
        gj, lj, _ = G[j]
        # product criterion is only sound for scalar (rank-1) column leads
        if scalar and lcm == li + lj and not li >> top:
            if syzygies:
                # the Koszul vector, from the column terms (position 0) and tags
                ui = {x: c for x, c in gi.items() if x >> top}
                uj = {x: c for x, c in gj.items() if x >> top}
                k = {}
                for m, c in gj.items():
                    if not m >> top:
                        axpy(k, c, m, ui, guard)
                for m, c in gi.items():
                    if not m >> top:
                        axpy(k, times(c, -1), m, uj, guard)
                _, rem = _divmod(k, G, layout, kernel)
                if rem:
                    add_pairs(insert(rem))
            continue
        if chain_skip(i, j, lcm):
            continue
        ti, tj = lcm - li, lcm - lj
        ai, aj = kernel.cross(gi[li], gj[lj])
        s = {}
        axpy(s, ai, ti, gi, guard)
        axpy(s, aj, tj, gj, guard)
        _, rem = _divmod(s, G, layout, kernel)
        if rem and (syzygies or rank is None or max(rem) >> top > -rank):
            add_pairs(insert(rem))
    return G


def _buchberger_vec(inputs, layout, kernel, rank=None, syzygies=False):
    """Reduced module Groebner basis, tagged when given a rank.

    The pair loop of _buchberger_pairs, then its reduce step _reduce_basis.
    Returns G, a list of kernel elements (vec, lead, aux), sorted by
    descending leading term.  A rank carries the tags of _buchberger_pairs
    through; the column parts are the same either way.  With syzygies, G is
    the tag-only part of the tagged module's reduced basis: no column lead
    divides a tag term, so those elements minimalise and inter-reduce among
    themselves.  Module runs the two steps apart, so that is_proper can read
    the pair loop's leads alone.  Raises _Overflow.
    """
    G = _buchberger_pairs(inputs, layout, kernel, rank, syzygies)
    if syzygies:
        G = [g for g in G if g[1] >> layout.top <= -rank]
    return _reduce_basis(G, layout, kernel)


def _reduce_basis(G, layout, kernel):
    """The reduced basis of a Groebner basis G of kernel elements: a minimal
    basis with inter-reduced tails, sorted by descending leading term.
    Raises _Overflow."""
    # minimal set: leads pairwise non-divisible
    kept = []
    for t in sorted(range(len(G)), key=lambda t: G[t][1]):
        lead = G[t][1]
        if not any(layout.divides(G[k][1], lead) for k in kept):
            kept.append(t)

    # inter-reduce tails against the current state; leads never change
    work = [G[t] for t in kept]
    for idx, (vec, lead, _) in enumerate(work):
        _, rem = _divmod(vec, work[:idx] + work[idx + 1 :], layout, kernel)
        work[idx] = kernel.element(rem, lead)

    work.sort(key=lambda w: w[1], reverse=True)
    return work


def _tagged_reduced(rows, rank, kernel, top):
    """The tagged basis of rows, a reduced basis by descending lead, with no run.

    On rows, _buchberger_vec(..., rank) would insert row k with its tag at
    position rank + k, reduce each S-vector's column part to zero and keep
    every row: its basis is row k tagged -lc(row k), up to nonzero scalars.
    """
    G = []
    for k, row in enumerate(rows):
        lead = max(row)
        vec = {**row, -(rank + k) << top: kernel.times(row[lead], -1)}
        G.append(kernel.element(vec, lead))
    return G


# a prime = 3 (mod 4), so Z[i]/(_P) is a field
_P = 2**61 - 1


def _at_point(col):
    """den * col at z_v = v + 2, as (re, im) pairs modulo _P, for a column of
    Q(i) Polys and a positive int den."""
    _, pairs = gaussian_integers([c for f in col for c in f.terms.values()])
    pairs = iter(pairs)
    out = []
    for f in col:
        re = im = 0
        for m in f.terms:
            a, b = next(pairs)
            x = math.prod([pow(v + 2, e, _P) for v, e in m.exps])
            re += a * x
            im += b * x
        out.append((re % _P, im % _P))
    return out


def _independent_at_point(columns):
    """True when the Q(i) columns at z_v = v + 2 are independent modulo _P.

    Then some maximal minor of the Gaussian integers den * col at that point
    is nonzero modulo _P, so it is nonzero, and so is the polynomial minor:
    the columns have full column rank over the fraction field, and their
    only syzygy is 0 (Schwartz, J. ACM 27, 1980, the exact half).  False
    proves nothing: every maximal minor may vanish at the point, or _P may
    divide its value there.  Working modulo _P keeps the numbers small
    whatever the exponents: a power of v + 2 is never built in full.
    A column w kept with pivot p clears entry p of each later column v as
    w[p]*v - v[p]*w, which keeps the zeros of v at the earlier pivots.
    """
    kept = []
    for col in columns:
        v = _at_point(col)
        for p, w in kept:
            ca, cb = v[p]
            if ca or cb:
                wa, wb = w[p]
                v = [
                    (
                        (wa * a - wb * b - ca * c + cb * d) % _P,
                        (wa * b + wb * a - ca * d - cb * c) % _P,
                    )
                    for (a, b), (c, d) in zip(v, w)
                ]
        p = next((k for k, (a, b) in enumerate(v) if a or b), None)
        if p is None:
            return False
        kept.append((p, v))
    return True


# --- modules and ideals -------------------------------------------------------


def _lub_domain(polys):
    return EXTENDED if any(p.domain == EXTENDED for p in polys) else STANDARD


def _denominator_lcm(coeffs):
    """lcm of the denominators of a Poly's LCFraction coeffs; LC_ONE when none."""
    scale = LC_ONE
    for c in coeffs:
        if isinstance(c, LCFraction):
            scale = lc_lcm(scale, c.den)
    return scale


def _eps_slices(target, layout):
    """(scale, {q: (vec, den)}): the Z[i] slices of scale * target by eps exponent.

    scale * target = sum of eps^q * vec_q / den_q, where scale is the lcm of
    the target's LCFraction denominators (LC_ONE when it has none) and each
    den_q clears the denominators of its slice.
    """
    polys = [f.to_extended() for f in target]
    scale = _denominator_lcm(c for f in polys for c in f.terms.values())
    if not scale.is_one():
        polys = [f.scale(scale) for f in polys]
    slices = {}
    for pos, f in enumerate(polys):
        for m, c in f.terms.items():
            x = layout.term(pos, m)
            for q, g in c.terms:
                slices.setdefault(q, {})[x] = g
    return scale, {q: _clear(vec) for q, vec in slices.items()}


def _eps_join(parts, scale):
    """sum of eps^q * vec_q / scale over the (q, vec_q) of ascending q."""
    terms = {}
    for q, vec in parts:
        for x, g in vec.items():
            terms.setdefault(x, []).append((q, g))
    if scale.is_one():
        return {x: LCNumber(tuple(t)) for x, t in terms.items()}
    return {x: LCFraction(LCNumber(tuple(t)), scale) for x, t in terms.items()}


class Module:
    """Submodule spanned by columns (each a list of Poly), with cached bases.

    The pair loop (_buchberger_pairs) runs once, and its Groebner basis is
    cached: Ideal.is_proper reads its leads and nothing more.  The first
    groebner_basis, normal_form or member reduces it (_reduce_basis), once.
    The syzygies are computed once, as the tag-only part of a tagged run's
    reduced basis, with no run for Q(i) columns that a rank certificate
    shows to be independent (_syzygy_rows).  When member first needs
    cofactors, the pair loop runs again with tags, and its bases replace the
    untagged ones.

    The engine runs over Q(i) (_ZiKernel) when every coefficient of the
    columns is eps-free, whatever their declared domain, and over the
    LCFraction field (_LcKernel) otherwise.  The Q(i) run makes the image of
    the same operations under the field embedding Q(i) -> LCFraction, up to
    nonzero scalars, so its monic basis, rows and syzygies are those of an
    LCFraction run; an extended module promotes them to LCNumber
    coefficients when it hands them out.  An extended target of a Q(i) basis
    is reduced one eps slice at a time (see _eps_slices): the divisor chosen
    for a term depends only on the term, so reduction by a fixed basis is
    linear, and the slices' remainders and cofactor rows join into the
    target's.

    The engine runs on terms packed under self._layout.  A target with new
    variables, or a run whose terms overflow the fields, moves the module to
    a wider layout; the cached basis is repacked, not recomputed.
    """

    def __init__(self, columns, order=GREVLEX):
        columns = tuple(tuple(col) for col in columns)
        flat = [f for col in columns for f in col]
        if not all(isinstance(f, Poly) for f in flat):
            raise InvalidInput("generators must be Poly")
        if len({len(col) for col in columns}) > 1:
            raise InvalidInput("columns have unequal lengths")
        domain = _lub_domain(flat)
        if domain == EXTENDED:
            columns = tuple(tuple(f.to_extended() for f in col) for col in columns)
        demoted = tuple(tuple(f.to_standard() for f in col) for col in columns)
        eps_free = all(f is not None for col in demoted for f in col)
        self.columns = columns
        self.order = order
        self.domain = domain
        self._rank = len(columns[0]) if columns else None
        self._field = STANDARD if eps_free else EXTENDED
        self._kernel = _ZiKernel if eps_free else _LcKernel
        self._field_columns = demoted if eps_free else columns
        self._layout = _layout(
            order.kind, order.block, frozenset(_variables(flat)), _START_WIDTH
        )
        self._packed = None
        self._pairs = None
        self._gb = None
        self._tagged = False
        self._syz = None

    def _relayout(self, variables, width):
        """Move to a new layout, repacking the cached bases."""
        old = self._layout
        new = _layout(self.order.kind, self.order.block, variables, width)

        def repack(G):
            if G is None:
                return None
            return [
                (
                    {new.term(*old.split(x)): c for x, c in vec.items()},
                    new.term(*old.split(lead)),
                    aux,
                )
                for vec, lead, aux in G
            ]

        self._pairs = repack(self._pairs)
        self._gb = repack(self._gb)
        self._layout = new
        self._packed = None

    def _run(self, step, polys=()):
        """step() under a layout covering the variables of polys.

        On _Overflow the field width doubles and step runs again.
        """
        extra = _variables(polys) - self._layout.variables
        if extra:
            self._relayout(self._layout.variables | extra, self._layout.width)
        while True:
            try:
                return step()
            except _Overflow:
                self._relayout(self._layout.variables, 2 * self._layout.width)

    @property
    def _vecs(self):
        """The columns in kernel form under the current layout, packed on
        first use inside _run, which a certified syzygy call never makes.
        Raises _Overflow."""
        if self._packed is None:
            self._packed = [
                self._kernel.entry(col, self._layout) for col in self._field_columns
            ]
        return self._packed

    def _pair_basis(self, tagged=False):
        """The pair loop's Groebner basis over self._field, with tags if
        asked for; unreduced, in insertion order."""
        if self._pairs is None or (tagged and not self._tagged):
            rank = self._rank if tagged else None
            self._pairs = _buchberger_pairs(
                self._vecs, self._layout, self._kernel, rank
            )
            self._gb = None
            self._tagged = rank is not None
        return self._pairs

    def _basis_for(self, tagged=False):
        """The reduced basis over self._field, with tags if asked for."""
        G = self._pair_basis(tagged)
        if self._gb is None:
            self._gb = _reduce_basis(G, self._layout, self._kernel)
        return self._gb

    def _reduce(self, target, cofactors, against=None):
        """(domain, remainder, row) of target against the cached basis.

        against=(G, rank) reduces against G instead, a basis whose tags sit
        at positions rank and up.  row, over the tag positions, has target =
        sum row_i * input_i (the columns, for the cached basis) when
        cofactors is set and the remainder is zero; else it is empty.
        """
        domain = EXTENDED if self.domain == EXTENDED else _lub_domain(target)
        if against is None:
            G = self._basis_for(cofactors)
            against = G, self._rank if self._tagged else None
        G, rank = against
        kernel, layout = self._kernel, self._layout

        def reduce(vec, den):
            # (remainder, row) of vec / den, as field values: with g_i =
            # -u_i . columns, a zero column remainder leaves tags m * row
            m, rem = _divmod(vec, G, layout, kernel)
            tags = {}
            if rank is not None:
                rem, tags = _split(rem, rank, layout.top)
            if rem or not cofactors:
                return kernel.exit(rem, m * den), {}
            return rem, kernel.exit(tags, m * den)

        if domain == self._field:
            rem, row = reduce(*kernel.entry(target, layout))
            return domain, rem, row
        scale, slices = _eps_slices(target, layout)
        parts = [(q, reduce(*slices[q])) for q in sorted(slices)]
        rem = _eps_join([(q, r) for q, (r, _) in parts], scale)
        if rem or not cofactors:
            return domain, rem, {}
        return domain, rem, _eps_join([(q, row) for q, (_, row) in parts], scale)

    def member(self, target):
        """None, or cofactors r with target = sum r_i * columns_i.

        The target must have as many entries as each column.
        """
        target = list(target)
        if self.columns and len(target) != self._rank:
            raise InvalidInput("target and columns have unequal lengths")

        def step():
            domain, rem, row = self._reduce(target, cofactors=True)
            if rem:
                return None
            return _vec_to_polys(row, len(self.columns), domain, self._layout)

        return self._run(step, target)

    def _syzygy_rows(self):
        """Reduced basis of the columns' syzygies in kernel form, one tagged run.

        Q(i) columns, no more of them than rows, that are independent at one
        point (_independent_at_point) have no syzygy but 0, so they take no
        run: their reduced basis is the empty one a run would return.
        """
        layout, rank = self._layout, self._rank
        cols = self._field_columns
        if (
            len(cols) <= (rank or 0)
            and self._kernel is _ZiKernel
            and _independent_at_point(cols)
        ):
            return []
        G = _buchberger_vec(self._vecs, layout, self._kernel, rank, syzygies=True)
        return [_split(vec, rank, layout.top)[1] for vec, _, _ in G]

    def syzygies(self):
        """The monic reduced basis of the columns' syzygies, as tuples of Poly."""
        if self._syz is None:

            def step():
                n, monic, layout = len(self.columns), self._kernel.monic, self._layout
                return tuple(
                    tuple(_vec_to_polys(monic(row), n, self.domain, layout))
                    for row in self._syzygy_rows()
                )

            self._syz = self._run(step)
        return self._syz

    def _syzygy_member(self, target):
        """None, or r with target = sum r_k * syzygies()[k], in one engine run.

        The syzygies are a reduced basis under the same order, so they give
        their own tagged basis (_tagged_reduced), with no second run and no
        Polys in between.  The target must have one entry per column.
        """
        target = list(target)

        def step():
            n, kernel, layout = len(self.columns), self._kernel, self._layout
            G = _tagged_reduced(self._syzygy_rows(), n, kernel, layout.top)
            domain, rem, row = self._reduce(target, cofactors=True, against=(G, n))
            if rem:
                return None
            return _vec_to_polys(row, len(G), domain, layout)

        return self._run(step, target)


class Ideal(Module):
    """Finitely generated ideal: the rank-1 Module of its generators."""

    def __init__(self, generators, order=GREVLEX):
        super().__init__([[g] for g in generators], order)
        self.generators = tuple(col[0] for col in self.columns)

    def groebner_basis(self):
        """Reduced basis as Polys, descending leading terms, denominators cleared."""

        def step():
            monic, top = self._kernel.monic, self._layout.top
            vecs = [vec for vec, _, _ in self._basis_for()]
            if self._tagged:
                vecs = [_split(vec, 1, top)[0] for vec in vecs]
            return [
                _vec_to_polys(monic(vec), 1, self.domain, self._layout)[0]
                for vec in vecs
            ]

        polys = self._run(step)
        if self.domain == EXTENDED:
            polys = [clear_denominators(p) for p in polys]
        return polys

    def normal_form(self, f):
        def step():
            domain, rem, _ = self._reduce([f], cofactors=False)
            return _vec_to_polys(rem, 1, domain, self._layout)[0]

        return self._run(step, [f])

    def contains(self, f):
        return not self.normal_form(f)

    def is_proper(self):
        """True iff 1 is not in the ideal: no lead of the pair loop's basis is
        the unit term 0.  1 lies in an ideal iff some element of any of its
        Groebner bases has a unit lead, so nothing is reduced."""
        return self._run(lambda: all(lead for _, lead, _ in self._pair_basis()))

    def support(self):
        vs = set()
        for g in self.generators:
            vs.update(g.support())
        return tuple(sorted(vs))

    def __repr__(self):
        return "Ideal(%d generators, %s)" % (len(self.generators), self.order.name)


def buchberger(gens, order=GREVLEX):
    """Reduced Groebner basis of the ideal generated by gens."""
    return Ideal(gens, order).groebner_basis()


def normal_form(f, ideal):
    return ideal.normal_form(f)


def ideal_member(f, ideal):
    return ideal.contains(f)


def ideal_member_cofactors(f, ideal):
    """None, or cofactors h with f = sum h_i * gen_i."""
    return ideal.member([f])


def is_proper(ideal):
    return ideal.is_proper()


def radical_member(g, ideal):
    """True iff some power of g lies in the ideal (auxiliary-variable test).

    The answer does not depend on a monomial order, so the Rabinowitsch
    ideal (ideal, 1 - z0*g) always runs under grevlex, whatever the ideal's.
    """
    if ideal.domain != STANDARD or g.domain != STANDARD:
        raise InvalidInput("radical membership runs over the standard domain")
    if 0 in g.support() or 0 in ideal.support():
        raise ReservedVariableInUse("variable z0 is reserved for this test")
    z0 = Poly.variable(0)
    probe = Poly.constant(1) - z0 * g
    return not Ideal(list(ideal.generators) + [probe]).is_proper()


def ideal_combine(kind, I, J):
    """sum, product, or intersection of two ideals; a standard and an
    extended ideal combine in the extended domain."""
    gi, gj = list(I.generators), list(J.generators)
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


def eliminate(ideal, drop):
    """Generators of the ideal's intersection with the subring avoiding drop."""
    drop = frozenset(int(v) for v in drop)
    if not drop:
        return ideal
    basis = Ideal(
        ideal.generators, MonomialOrder("elimination", drop)
    ).groebner_basis()
    kept = [b for b in basis if not (set(b.support()) & drop)]
    return Ideal(kept, ideal.order)


def contraction(ideal, n):
    """Drop every variable of index above n from the ideal."""
    drop = {v for v in ideal.support() if v > n}
    return eliminate(ideal, drop)


# --- syzygies and module operations -------------------------------------------


@dataclass(frozen=True)
class SyzygyBasis:
    """Generators of {x : sum coefficients_i * x_i = 0}."""

    coefficients: tuple
    generators: tuple

    def check(self):
        for beta in self.generators:
            acc = Poly.zero(_lub_domain(list(self.coefficients)))
            for a, b in zip(self.coefficients, beta):
                acc = acc + a * b
            if acc:
                return False
        return True


def syzygy_basis(a, order=GREVLEX):
    """Canonical generating set of the syzygy module of the scalars a."""
    ideal = Ideal(a, order)
    return SyzygyBasis(ideal.generators, ideal.syzygies())


def module_syzygies(columns, order=GREVLEX):
    """Syzygy generators of a list of vectors (each a list of Poly)."""
    return [list(row) for row in Module(columns, order).syzygies()]


def module_member(columns, target, order=GREVLEX):
    """None, or cofactors r with target = sum r_i * columns_i."""
    return Module(columns, order).member(target)


def clear_denominators(f):
    """Finite-sum representative of a monic extended Poly.

    Multiplies by the lcm of the denominators, which lc_lcm unit-normalises
    (valuation 0, lowest coefficient 1), so a leading coefficient of 1 under
    any order becomes 1 + infinitesimal.
    """
    if f.domain != EXTENDED or not f:
        return f
    scale = _denominator_lcm(f.terms.values())
    return f if scale.is_one() else f.scale(scale)
