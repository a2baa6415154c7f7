"""Text form of polynomials, LC numbers, and points.

Grammar (whitespace ignored):

    expr     := term (('+'|'-') term)*
    term     := factor ('*' factor)*
    factor   := '-' factor | base ['^' exponent]
    base     := rational | 'i' | 'eps' | var | '(' expr ')'
    var      := ('z'|'w') digits
    rational := digits ['/' digits]
    exponent := digits | '(' ['-'] rational ')'

A minus binds looser than `^` and tighter than `*`, wherever it stands:
`-3^2`, `0 + -3^2` and `0 - 3^2` are all -9, and `2*-3^2` is -18.  Digits are
decimal digits, those `int()` reads.  Rational or negative exponents are
legal only on the eps atom.  `wK` is an input alias for `zK`; the formatter
always emits `zK`.  Parsing the canonical format returns an equal polynomial
(term order is irrelevant to equality).
Constants fold as numbers: a rational, `i` or `eps^q` is a GaussianRational
or an LCNumber, numbers combine with their own operators, and a value becomes
a Poly only where it meets a variable or a Poly.
Parentheses nest at most 100 deep; deeper input is a ParseError rather than
a RecursionError.  A ParseError's position counts from the start of the whole
text, also in a list or a point.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import InvalidInput, ParseError
from .gaussian import GaussianRational, QI_I, QI_ONE
from .levicivita import LC_EPS, LCFraction, LCNumber, square_and_multiply
from .poly import EXTENDED, Poly

_OPS = set("+-*^()=,;/")

# each parenthesis level costs four Python frames (expr, term, factor, base)
_MAX_NESTING = 100


def _as_poly(x):
    return x if isinstance(x, Poly) else Poly.constant(x)


def _tokenize(text):
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdecimal():
            j = i
            while j < n and text[j].isdecimal():
                j += 1
            tokens.append(("int", text[i:j], i))
            i = j
            continue
        if ch.isalpha():
            j = i
            while j < n and (text[j].isalnum()):
                j += 1
            tokens.append(("name", text[i:j], i))
            i = j
            continue
        if ch in _OPS:
            tokens.append(("op", ch, i))
            i += 1
            continue
        raise ParseError("unexpected character %r" % ch, i)
    tokens.append(("end", "", n))
    return tokens


class _Parser:
    def __init__(self, text):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def accept(self, op):
        """Consume the next token if it is the operator op."""
        kind, val, _ = self.tokens[self.pos]
        if kind == "op" and val == op:
            self.pos += 1
            return True
        return False

    def expect_op(self, op):
        if not self.accept(op):
            raise ParseError("expected %r" % op, self.peek()[2])

    # expr := term (('+'|'-') term)*
    def expr(self):
        out = self.term()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.next()
                rhs = self.term()
                if isinstance(out, Poly) or isinstance(rhs, Poly):
                    out, rhs = _as_poly(out), _as_poly(rhs)
                out = out + rhs if val == "+" else out - rhs
            else:
                return out

    # term := factor ('*' factor)*
    def term(self):
        out = self.factor()
        while self.accept("*"):
            out = out * self.factor()
        return out

    # factor := '-' factor | base ['^' exponent]
    def factor(self):
        # a loop, not recursion, so that any run of signs parses
        negate = False
        tok = self.next()
        while tok[0] == "op" and tok[1] == "-":
            negate = not negate
            tok = self.next()
        out = self.base(tok)
        if self.accept("^"):
            on_eps = tok[0] == "name" and tok[1] == "eps"
            exp = self.exponent(on_eps)
            if on_eps:
                out = LCNumber.eps(exp)
            elif isinstance(out, GaussianRational):
                out = square_and_multiply(out, exp, QI_ONE)
            else:
                out = out ** exp
        return -out if negate else out

    # exponent := digits | '(' ['-'] rational ')'
    def exponent(self, on_eps):
        kind, val, at = self.next()
        if kind == "int":
            return int(val)
        if kind != "op" or val != "(":
            raise ParseError("expected an exponent", at)
        negative = self.accept("-")
        kind, val, at = self.next()
        if kind != "int":
            raise ParseError("expected digits in exponent", at)
        q = self.rational(val)
        self.expect_op(")")
        if on_eps:
            return -q if negative else q
        if negative or q.denominator != 1:
            raise ParseError("rational exponents are legal only on eps", self.peek()[2])
        return int(q)

    # rational := digits ['/' digits], read on from its first digits: an int,
    # or a Fraction when a denominator follows
    def rational(self, digits):
        if not self.accept("/"):
            return int(digits)
        kind, val, at = self.next()
        if kind != "int":
            raise ParseError("expected digits after /", at)
        if int(val) == 0:
            raise ParseError("zero denominator", at)
        return Fraction(int(digits), int(val))

    # base := rational | 'i' | 'eps' | var | '(' expr ')', from its first token
    def base(self, tok):
        kind, val, at = tok
        if kind == "int":
            return GaussianRational(self.rational(val))
        if kind == "name":
            if val == "i":
                return QI_I
            if val == "eps":
                return LC_EPS
            if val[0] in "zw" and val[1:].isdecimal():
                return Poly.variable(int(val[1:]))
            raise ParseError("unknown name %r" % val, at)
        if kind == "op" and val == "(":
            if self.depth == _MAX_NESTING:
                raise ParseError("parentheses nest deeper than %d" % _MAX_NESTING, at)
            self.depth += 1
            out = self.expr()
            self.expect_op(")")
            self.depth -= 1
            return out
        raise ParseError("expected a value", at)


def _parse(text):
    """The value of an expression: a Poly, or a number when it has no
    variable."""
    p = _Parser(text)
    out = p.expr()
    kind, _, at = p.peek()
    if kind != "end":
        raise ParseError("trailing input", at)
    return out


def _shifted(parse, text, start):
    """parse(text), where text starts `start` characters into a longer text
    that a ParseError's position counts from."""
    try:
        return parse(text)
    except ParseError as ex:
        raise ParseError(ex.reason, start + ex.position) from None


def _parse_list(text, parse_item):
    """The items of a `;`-separated list, each read by parse_item; blank
    items are skipped."""
    out = []
    start = 0
    for chunk in text.split(";"):
        if chunk.strip():
            out.append(_shifted(parse_item, chunk, start))
        start += len(chunk) + 1
    return out


def parse_poly(text):
    """Parse an expression into a canonical Poly (standard if eps-free)."""
    out = _as_poly(_parse(text))
    demoted = out.to_standard() if out.domain == EXTENDED else out
    return demoted if demoted is not None else out


def parse_lc(text):
    """Parse a constant expression into an LCNumber."""
    c = _parse(text)
    if isinstance(c, Poly):
        if not c.is_constant():
            raise InvalidInput("expected a constant expression, got %r" % text)
        c = c.as_constant()
    if isinstance(c, GaussianRational):
        return LCNumber.from_gaussian(c)
    return c


def parse_point(text):
    """Parse `z1=1+eps,z2=0` into {index: LCNumber}, sorted by index."""
    out = {}
    if not text.strip():
        return out
    start = 0
    for chunk in text.split(","):
        if "=" not in chunk:
            raise ParseError("expected var=value", start)
        name, value = chunk.split("=", 1)
        at = start + len(name) - len(name.lstrip())
        name = name.strip()
        if not (name and name[0] in "zw" and name[1:].isdecimal()):
            raise ParseError("bad variable name %r" % name, at)
        idx = int(name[1:])
        if idx in out:
            raise ParseError("variable %s assigned twice" % name, at)
        out[idx] = _shifted(parse_lc, value, start + len(chunk) - len(value))
        start += len(chunk) + 1
    return dict(sorted(out.items()))


def parse_generators(text):
    """Parse a `;`-separated generator list; empty text is the zero ideal."""
    return _parse_list(text, parse_poly)


# --- formatting --------------------------------------------------------------


def format_gaussian(c):
    """Standalone canonical form: 3, -1/2, i, -i, 2*i, 1+i, 1/2-3*i."""
    if not c:
        return "0"
    re, im = c.re, c.im
    if im == 0:
        return str(re)
    if im == 1:
        imag = "i"
    elif im == -1:
        imag = "-i"
    elif im > 0:
        imag = "%s*i" % im
    else:
        imag = "-%s*i" % (-im)
    if re == 0:
        return imag
    joiner = "+" if im > 0 else "-"
    return "%s%s%s" % (re, joiner, imag.lstrip("-"))


def _gaussian_factor(c):
    """(sign, body) for use as a multiplicative factor; body may be empty."""
    re, im = c.re, c.im
    if im == 0:
        sign = "-" if re < 0 else ""
        mag = abs(re)
        return sign, "" if mag == 1 else str(mag)
    if re == 0:
        sign = "-" if im < 0 else ""
        mag = abs(im)
        return sign, "i" if mag == 1 else "%s*i" % mag
    return "", "(%s)" % format_gaussian(c)


def _eps_power(q):
    if q == 1:
        return "eps"
    if q.denominator == 1 and q > 0:
        return "eps^%d" % q
    return "eps^(%s)" % q


def _term_str(q, c, mono_str=None):
    """The signed term c*eps^q*mono; mono_str None is the monomial 1."""
    if q == 0 and mono_str is None:
        return format_gaussian(c)
    sign, body = _gaussian_factor(c)
    return sign + "*".join(f for f in (body, q and _eps_power(q), mono_str) if f)


def _join(pieces):
    out = ""
    for piece in pieces:
        if not out:
            out = piece
        elif piece.startswith("-"):
            out += " - " + piece[1:]
        else:
            out += " + " + piece
    return out or "0"


def format_lc(x):
    """Canonical form of an LCNumber: terms in ascending exponent order."""
    if isinstance(x, LCFraction):
        collapsed = x.to_lcnumber()
        if collapsed is None:
            # display-only quotient form; not part of the input grammar
            return "(%s)/(%s)" % (format_lc(x.num), format_lc(x.den))
        x = collapsed
    if isinstance(x, GaussianRational):
        x = LCNumber.from_gaussian(x)
    if not x:
        return "0"
    return _join(_term_str(q, c) for q, c in x.terms)


def _poly_term_str(mono, coeff):
    mono_str = str(mono) if mono.exps else None
    if isinstance(coeff, GaussianRational):
        return _term_str(0, coeff, mono_str)
    if isinstance(coeff, LCFraction):
        # an LCFraction here is not a finite sum
        body = "(%s)/(%s)" % (format_lc(coeff.num), format_lc(coeff.den))
    elif coeff.is_term():
        return _term_str(*coeff.leading(), mono_str)
    elif mono_str is None:
        return format_lc(coeff)
    else:
        body = "(%s)" % format_lc(coeff)
    return body if mono_str is None else "%s*%s" % (body, mono_str)


def format_poly(f):
    """Canonical form: terms descending in grevlex, deterministic signs."""
    if not f:
        return "0"
    return _join([_poly_term_str(m, c) for m, c in f.sorted_terms()])


def format_point(point):
    """Inverse of parse_point, ascending variable index."""
    return ",".join(
        "z%d=%s" % (v, format_lc(x)) for v, x in sorted(point.items())
    )
