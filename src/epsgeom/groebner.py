"""Deterministic Buchberger engine over both coefficient domains.

One vector-polynomial engine serves scalars (rank-1 vectors) and module
computations (syzygies, kernels).  Each Module runs it over the smallest
field its generators need: Q(i) when every coefficient is eps-free, even for
extended-domain data, and the LCFraction field otherwise.  An extended
target of a Q(i) basis is reduced one eps-power slice at a time (see
Module).  Finite-sum representatives of LCFraction results are restored at
the public boundary via clear_denominators.  Everything is deterministic for a
fixed generator order and monomial order: pair selection is the normal
strategy (minimal lcm degree, ties by the monomial order, then indices), and
reduced bases are sorted by descending leading term.

Inside the engine each term (position, monomial) is one int, packed under a
per-Module layout of its variables and order (see _Layout): a monomial
product is an int add, the position-over-term order is an int compare, and
divisibility is a guard-bit mask.  Polynomials are packed where they enter
the engine and unpacked where they leave, and a module whose terms outgrow
the layout's fields moves to a wider one, so results stay exact.
"""

from __future__ import annotations

import functools
import heapq
from dataclasses import dataclass

from .errors import InvalidInput, ReservedVariableInUse
from .gaussian import GaussianRational, QI_ONE
from .levicivita import LC_ONE, LCFraction, LCNumber, _unit_inverse, lc_lcm
from .poly import (
    EXTENDED,
    STANDARD,
    Monomial,
    Poly,
    elimination_key,
    grevlex_key,
    lex_key,
)

_FRAC_ONE = LCFraction(LC_ONE)


class MonomialOrder:
    """grevlex, lex, or a block-elimination order over a variable set."""

    __slots__ = ("kind", "block", "_key")

    def __init__(self, kind="grevlex", block=()):
        block = tuple(sorted({int(b) for b in block}))
        if kind == "grevlex":
            key = grevlex_key
        elif kind == "lex":
            key = lex_key
        elif kind == "elimination":
            key = elimination_key(block)
        else:
            raise InvalidInput("unknown monomial order %r" % kind)
        if block and kind != "elimination":
            raise InvalidInput("only elimination orders take a block")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "block", block)
        object.__setattr__(self, "_key", key)

    def __setattr__(self, name, value):
        raise AttributeError("MonomialOrder is immutable")

    def key(self):
        """Sort key over monomials: a larger tuple is a larger monomial."""
        return self._key

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
                if piece[0] in "zw" and piece[1:].isdigit():
                    block.append(int(piece[1:]))
                elif piece.isdigit():
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


# --- internal vector-polynomial layer ----------------------------------------
#
# A vector polynomial is a dict {term: field coefficient}.  A term is one int
# that packs a position and a monomial under a _Layout.  The module order is
# position-over-term (smaller position ranks higher, monomials compared by
# the session order within a position), and a larger int is a larger term.
# A monomial is the term at position 0, and multiplying a term by it adds
# the two ints.  Terms are packed where polynomials enter (_vec_from_polys)
# and unpacked where they leave (_vec_to_polys).

# field width in bits that a layout starts from; it doubles on overflow
_START_WIDTH = 8


class _Overflow(Exception):
    """A term outgrew its layout's fields: widen the layout and run again."""


class _Layout:
    """Packing of the (position, Monomial) terms over one order and variable set.

    W-bit fields, most significant first, each a sum of exponents over the
    variables in ascending index:
      - the order key: grevlex as (deg, S_{n-1}, ..., S_1) with
        S_k = e_1 + ... + e_k, lex as (e_1, ..., e_n), elimination as the
        block degree and then the grevlex fields;
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

    def __init__(self, order, variables, width):
        ascending = tuple(sorted(variables))
        every = frozenset(ascending)
        singles = [frozenset((v,)) for v in ascending]
        grevlex = [frozenset(ascending[:k]) for k in range(len(ascending), 0, -1)]
        if order.kind == "lex":
            key = singles
        elif order.kind == "grevlex":
            key = grevlex
        else:
            key = [every.intersection(order.block)] + grevlex
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
        return -(x >> self.top), Monomial._raw(tuple(pairs))

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
def _layout(order, variables, width):
    """The _Layout of an order, a frozenset of variables and a width.

    Layouts are immutable, so modules over the same variables share one.
    """
    return _Layout(order, variables, width)


def _variables(polys):
    return {v for f in polys for m in f.terms for v, _ in m.exps}


def _field_one(domain):
    return QI_ONE if domain == STANDARD else _FRAC_ONE


def _to_field(c, domain):
    if domain == STANDARD:
        if not isinstance(c, GaussianRational):
            raise InvalidInput("standard coefficients must be GaussianRational")
        return c
    if isinstance(c, LCFraction):
        return c
    if isinstance(c, GaussianRational):
        return LCFraction(LCNumber.from_gaussian(c))
    return LCFraction(c)


def _vec_from_polys(cols, domain, layout):
    vec = {}
    for pos, f in enumerate(cols):
        if f.domain != domain:
            f = f.to_extended()
        for m, c in f.terms.items():
            vec[layout.term(pos, m)] = _to_field(c, domain)
    return vec


def _collapse(c):
    if isinstance(c, LCFraction):
        finite = c.to_lcnumber()
        return finite if finite is not None else c
    return c


def _vec_to_polys(vec, rank, domain, layout):
    rows = [{} for _ in range(rank)]
    for x, c in vec.items():
        pos, m = layout.split(x)
        rows[pos][m] = _collapse(c) if domain == EXTENDED else c
    return [Poly(domain, r) for r in rows]


def _vp_axpy(acc, coeff, mono, vec, guard):
    """acc += coeff * x^mono * vec, in place; raises _Overflow."""
    for x, c in vec.items():
        key = x + mono
        if key & guard:
            raise _Overflow
        s = acc.get(key)
        p = coeff * c
        s = p if s is None else s + p
        if s:
            acc[key] = s
        else:
            acc.pop(key, None)


def _vp_divmod(vec, basis, layout, track=True):
    """Full reduction of vec by basis entries (vec, lead, lead_coeff).

    Returns (quotients, remainder); quotients[i] is {monomial: coeff}.  The
    remainder has no term divisible by any basis leading term, so against a
    reduced basis it is the unique normal form.  Raises _Overflow.
    """
    p = dict(vec)
    rem = {}
    quots = [{} for _ in basis] if track else None
    top, guard = layout.top, layout.guard
    # divisor index: the leads at each position, in basis order
    leads = {}
    for idx, (_, lead, _) in enumerate(basis):
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
        c = p[x]
        for hit, lead in leads.get(x >> top, ()):
            t = x - lead
            if not t & guard:
                break
        else:
            rem[x] = c
            del p[x]
            continue
        g, _, gc = basis[hit]
        q = c / gc
        if track:
            d = quots[hit]
            s = d.get(t)
            s = q if s is None else s + q
            if s:
                d[t] = s
            else:
                d.pop(t, None)
        for x2, c2 in g.items():
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
    return quots, rem


def _buchberger_pairs(vecs, layout, domain, cofactors=True, syzygies=False):
    """The Buchberger pair loop: an unreduced module Groebner basis.

    Returns (G, U, S).  G lists (vec, lead) with monic leads in insertion
    order, the nonzero inputs first; U[i] is a vector over the input
    positions with G[i] = sum over inputs of U[i] applied to vecs (empty when
    cofactors=False).  S is empty unless syzygies=True (which needs
    cofactors); then it holds syzygy rows over the input positions:
      - an S-pair with t_i*g_i - t_j*g_j = sum q_t*g_t (no remainder) gives
        t_i*U_i - t_j*U_j - sum q_t*U_t, also when the S-polynomial is
        empty, as for a repeated input;
      - a pair skipped by the product criterion (scalar inputs only) gives
        the Koszul row g_j*U_i - g_i*U_j;
      - a pair dropped by the chain criterion gives nothing: its lead-term
        syzygy combines those of two pairs treated before it (Gebauer &
        Moeller, J. Symb. Comp. 1988);
      - a pair whose remainder becomes a basis element gives nothing: that
        element's U row is defined by the same combination, so the row is
        zero in input coordinates.
    The recorded rows lift a generating set of the lead-term syzygies of the
    final G, so they generate its syzygy module (Schreyer's theorem), mapped
    through U.  Every nonzero input is an element of G with a scaled unit U
    row, so S generates the syzygy module of the nonzero inputs.
    """
    one = _field_one(domain)
    top, guard = layout.top, layout.guard
    fields = (1 << top) - 1
    G = []
    U = []
    S = []
    view = []
    scalar = all(x >> top == 0 for v in vecs for x in v)

    def insert(vec, row):
        lead = max(vec)
        c = vec[lead]
        if c != one:
            inv = one / c
            vec = {x: inv * cc for x, cc in vec.items()}
            if cofactors:
                row = {x: inv * cc for x, cc in row.items()}
        G.append((vec, lead))
        view.append((vec, lead, one))
        if cofactors:
            U.append(row)
        return len(G) - 1

    # normal selection: pairs pop by (lcm degree, lcm order, i, j)
    pairs = []
    pending = set()

    def add_pairs(j):
        lj = G[j][1]
        for i in range(j):
            li = G[i][1]
            if li >> top == lj >> top:
                lcm = layout.lcm(li, lj)
                heapq.heappush(pairs, (layout.degree(lcm), lcm & fields, i, j))
                pending.add((i, j))

    for i, v in enumerate(vecs):
        if not v:
            continue
        idx = insert(dict(v), {-i << top: one})
        add_pairs(idx)

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

    while pairs:
        _, _, i, j = heapq.heappop(pairs)
        pending.discard((i, j))
        gi, li = G[i]
        gj, lj = G[j]
        lcm = layout.lcm(li, lj)
        # product criterion is only sound for scalar (rank-1) inputs
        if scalar and lcm == li + lj:
            if syzygies:
                row = {}
                for m, c in gj.items():
                    _vp_axpy(row, c, m, U[i], guard)
                for m, c in gi.items():
                    _vp_axpy(row, -c, m, U[j], guard)
                if row:
                    S.append(row)
            continue
        if chain_skip(i, j, lcm):
            continue
        ti, tj = lcm - li, lcm - lj
        s = {}
        _vp_axpy(s, one, ti, gi, guard)
        _vp_axpy(s, -one, tj, gj, guard)
        quots, rem = _vp_divmod(s, view, layout, track=cofactors)
        if not rem and not syzygies:
            continue
        srow = None
        if cofactors:
            srow = {}
            _vp_axpy(srow, one, ti, U[i], guard)
            _vp_axpy(srow, -one, tj, U[j], guard)
            for t, qd in enumerate(quots):
                for mono, qc in qd.items():
                    _vp_axpy(srow, -qc, mono, U[t], guard)
        if rem:
            add_pairs(insert(rem, srow))
        elif srow:
            S.append(srow)
    return G, U, S


def _buchberger_vec(vecs, layout, domain, cofactors=True):
    """Reduced module Groebner basis with cofactor rows.

    The pair loop of _buchberger_pairs, then a minimal basis with
    inter-reduced tails.  Returns (G, U): G is a list of (vec, lead) with
    monic leads, sorted by descending leading term; U[i] is a vector over the
    input positions with G[i] = sum over inputs of U[i] applied to vecs.
    cofactors=False skips the U bookkeeping (it comes back empty); the basis
    itself is identical.  Raises _Overflow.
    """
    one = _field_one(domain)
    guard = layout.guard
    G, U, _ = _buchberger_pairs(vecs, layout, domain, cofactors)

    # minimal set: leads pairwise non-divisible
    kept = []
    for t in sorted(range(len(G)), key=lambda t: G[t][1]):
        lead = G[t][1]
        if not any(layout.divides(G[k][1], lead) for k in kept):
            kept.append(t)

    # inter-reduce tails against the current state; leads never change
    work = [
        [dict(G[t][0]), G[t][1], dict(U[t]) if cofactors else None] for t in kept
    ]
    for idx in range(len(work)):
        others = [
            (w[0], w[1], one) for k, w in enumerate(work) if k != idx
        ]
        quots, rem = _vp_divmod(work[idx][0], others, layout, track=cofactors)
        if cofactors:
            row = work[idx][2]
            pos = 0
            for k, w in enumerate(work):
                if k == idx:
                    continue
                for mono, qc in quots[pos].items():
                    _vp_axpy(row, -qc, mono, w[2], guard)
                pos += 1
        work[idx][0] = rem

    work.sort(key=lambda w: w[1], reverse=True)
    return (
        [(w[0], w[1]) for w in work],
        [w[2] for w in work] if cofactors else [],
    )


def _syzygy_rows(vecs, layout, domain):
    """Generating rows (rank len(vecs)) of the syzygy module of vecs.

    A unit row for each zero input, plus the rows the pair loop records for
    the nonzero ones (see _buchberger_pairs).  Those inputs open the basis
    the loop builds, so no rows re-expressing inputs through the basis
    (identity minus V U) are needed, and no S-pair is reduced twice.
    """
    one = _field_one(domain)
    _, _, rows = _buchberger_pairs(vecs, layout, domain, syzygies=True)
    return [{-i << layout.top: one} for i, v in enumerate(vecs) if not v] + rows


def _canonical_rows(rows, layout, domain):
    if not rows:
        return []
    G, _ = _buchberger_vec(rows, layout, domain, cofactors=False)
    return [vec for vec, _ in G]


# --- modules and ideals -------------------------------------------------------


def _lub_domain(polys):
    return EXTENDED if any(p.domain == EXTENDED for p in polys) else STANDARD


def _denominator_lcm(coeffs):
    """lcm of the LCFraction denominators among coeffs; LC_ONE when none."""
    scale = LC_ONE
    for c in coeffs:
        if isinstance(c, LCFraction) and not c.den.is_one():
            scale = lc_lcm(scale, c.den)
    return scale


def _eps_slices(target, layout):
    """(scale, {q: vec}): the Q(i) slices of scale * target by eps exponent.

    scale * target = sum of eps^q * vec_q, where scale is the lcm of the
    target's LCFraction denominators (LC_ONE when it has none).
    """
    polys = [f.to_extended() for f in target]
    scale = _denominator_lcm(c for f in polys for c in f.terms.values())
    slices = {}
    for pos, f in enumerate(polys):
        for m, c in f.terms.items():
            if not scale.is_one():
                c = c * scale
            if isinstance(c, LCFraction):
                c = c.to_lcnumber()
            x = layout.term(pos, m)
            for q, g in c.terms:
                slices.setdefault(q, {})[x] = g
    return scale, slices


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

    The reduced Groebner basis is computed once, its cofactor rows only when
    member first needs them, and the canonical syzygies once.

    The engine runs over Q(i) when every coefficient of the columns is
    eps-free, whatever their declared domain, and over the LCFraction field
    otherwise.  The Q(i) run makes the image of the same operations under the
    field embedding Q(i) -> LCFraction, so its basis, rows and syzygies are
    those of an LCFraction run; an extended module promotes them to LCNumber
    coefficients when it hands them out.  An extended target of a Q(i) basis
    is reduced one eps slice at a time (see _eps_slices): the divisor chosen
    for a term depends only on the term, so reduction by a fixed basis is
    linear, and the slices' remainders and cofactor rows join into the
    target's.

    The engine runs on terms packed under self._layout.  A target with new
    variables, or a run whose terms overflow the fields, moves the module to
    a wider layout; the cached basis and rows are repacked, not recomputed.
    """

    def __init__(self, columns, order=GREVLEX):
        columns = tuple(tuple(col) for col in columns)
        flat = [f for col in columns for f in col]
        if not all(isinstance(f, Poly) for f in flat):
            raise InvalidInput("generators must be Poly")
        domain = _lub_domain(flat)
        if domain == EXTENDED:
            columns = tuple(tuple(f.to_extended() for f in col) for col in columns)
        demoted = tuple(tuple(f.to_standard() for f in col) for col in columns)
        eps_free = all(f is not None for col in demoted for f in col)
        self.columns = columns
        self.order = order
        self.domain = domain
        self._field = STANDARD if eps_free else EXTENDED
        self._field_columns = demoted if eps_free else columns
        self._layout = _layout(order, frozenset(_variables(flat)), _START_WIDTH)
        self._vecs = None
        self._gb = None
        self._rows = None
        self._syz = None

    def _relayout(self, variables, width):
        """Move to a new layout, repacking the cached basis and rows."""
        old = self._layout
        new = _layout(self.order, variables, width)

        def repack(vec):
            return {new.term(*old.split(x)): c for x, c in vec.items()}

        if self._gb is not None:
            self._gb = [
                (repack(vec), new.term(*old.split(lead))) for vec, lead in self._gb
            ]
        if self._rows is not None:
            self._rows = [repack(row) for row in self._rows]
        self._layout = new
        self._vecs = None

    def _run(self, step, polys=()):
        """step() under a layout covering the variables of polys.

        On _Overflow the field width doubles and step runs again.
        """
        extra = _variables(polys) - self._layout.variables
        if extra:
            self._relayout(self._layout.variables | extra, self._layout.width)
        while True:
            try:
                if self._vecs is None:
                    self._vecs = [
                        _vec_from_polys(col, self._field, self._layout)
                        for col in self._field_columns
                    ]
                return step()
            except _Overflow:
                self._relayout(self._layout.variables, 2 * self._layout.width)

    def _basis_for(self, cofactors=False):
        """(G, U) over self._field; U is None unless cofactor rows were asked for."""
        if self._gb is None or (cofactors and self._rows is None):
            self._gb, rows = _buchberger_vec(
                self._vecs, self._layout, self._field, cofactors
            )
            self._rows = rows if cofactors else None
        return self._gb, self._rows

    def _reduce(self, target, cofactors):
        """(domain, remainder, row) of target against the basis.

        row, over the column positions, has target = sum row_i * columns_i
        when cofactors is set and the remainder is zero; else it is empty.
        """
        domain = EXTENDED if self.domain == EXTENDED else _lub_domain(target)
        G, U = self._basis_for(cofactors)
        layout = self._layout
        one = _field_one(self._field)
        basis = [(vec, lead, one) for vec, lead in G]

        def reduce(vec):
            quots, rem = _vp_divmod(vec, basis, layout, track=cofactors)
            row = {}
            if cofactors and not rem:
                for t, qd in enumerate(quots):
                    for mono, qc in qd.items():
                        _vp_axpy(row, qc, mono, U[t], layout.guard)
            return rem, row

        if domain == self._field:
            rem, row = reduce(_vec_from_polys(target, domain, layout))
            return domain, rem, row
        scale, slices = _eps_slices(target, layout)
        parts = [(q, reduce(slices[q])) for q in sorted(slices)]
        rem = _eps_join([(q, r) for q, (r, _) in parts], scale)
        if rem or not cofactors:
            return domain, rem, {}
        return domain, rem, _eps_join([(q, row) for q, (_, row) in parts], scale)

    def member(self, target):
        """None, or cofactors r with target = sum r_i * columns_i."""
        target = list(target)

        def step():
            domain, rem, row = self._reduce(target, cofactors=True)
            if rem:
                return None
            return _vec_to_polys(row, len(self.columns), domain, self._layout)

        return self._run(step, target)

    def syzygies(self):
        """Canonical syzygy generators of the columns, as tuples of Poly."""
        if self._syz is None:

            def step():
                rows = _syzygy_rows(self._vecs, self._layout, self._field)
                return tuple(
                    tuple(
                        _vec_to_polys(row, len(self.columns), self.domain, self._layout)
                    )
                    for row in _canonical_rows(rows, self._layout, self._field)
                )

            self._syz = self._run(step)
        return self._syz


class Ideal(Module):
    """Finitely generated ideal: the rank-1 Module of its generators."""

    def __init__(self, generators, order=GREVLEX):
        super().__init__([[g] for g in generators], order)
        self.generators = tuple(col[0] for col in self.columns)
        self._gb_polys = None

    def groebner_basis(self):
        """Reduced basis as Polys, descending leading terms, denominators cleared."""
        if self._gb_polys is None:

            def step():
                G, _ = self._basis_for()
                return [
                    _vec_to_polys(vec, 1, self.domain, self._layout)[0]
                    for vec, _ in G
                ]

            polys = self._run(step)
            if self.domain == EXTENDED:
                polys = [clear_denominators(p, self.order) for p in polys]
            self._gb_polys = polys
        return list(self._gb_polys)

    def normal_form(self, f):
        def step():
            domain, rem, _ = self._reduce([f], cofactors=False)
            return _vec_to_polys(rem, 1, domain, self._layout)[0]

        return self._run(step, [f])

    def contains(self, f):
        return not self.normal_form(f)

    def is_proper(self):
        return not any(
            g.is_constant() and g for g in self.groebner_basis()
        )

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


def radical_member(g, ideal, order=GREVLEX):
    """True iff some power of g lies in the ideal (auxiliary-variable test)."""
    if ideal.domain != STANDARD or g.domain != STANDARD:
        raise InvalidInput("radical membership runs over the standard domain")
    if 0 in g.support() or 0 in ideal.support():
        raise ReservedVariableInUse("variable z0 is reserved for this test")
    z0 = Poly.variable(0)
    probe = Poly.constant(1) - z0 * g
    return not Ideal(list(ideal.generators) + [probe], order).is_proper()


def ideal_combine(kind, I, J):
    """sum, product, or intersection of two ideals."""
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


def clear_denominators(f, order=GREVLEX):
    """Finite-sum representative of an extended Poly, unit-normalized.

    Multiplies by the denominator lcm and then by the inverse of the leading
    coefficient's leading term, so the leading coefficient under the given
    order is 1 + infinitesimal.
    """
    if f.domain != EXTENDED or not f:
        return f
    scale = _denominator_lcm(f.terms.values())
    if not scale.is_one():
        f = f.scale(scale)
    cleaned = {}
    for m, c in f.terms.items():
        if isinstance(c, LCFraction):
            c = c.to_lcnumber()
            if c is None:
                raise InvalidInput("denominators did not clear")
        cleaned[m] = c
    f = Poly(EXTENDED, cleaned)
    lead_coeff = f.terms[max(f.terms, key=order.key())]
    unit = _unit_inverse(LCNumber((lead_coeff.leading(),)))
    return f.scale(unit)
