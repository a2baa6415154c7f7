import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings

from _oracles import reference_format_lc, reference_format_poly
from _strategies import extended_polys, lc_numbers, limited_lc, polys
from epsgeom.errors import InvalidInput, ParseError
from epsgeom.gaussian import GaussianRational
from epsgeom.levicivita import LC_ONE, LC_ZERO, LCFraction, LCNumber
from epsgeom.parser import (
    format_lc,
    format_point,
    format_poly,
    parse_generators,
    parse_lc,
    parse_point,
    parse_poly,
)
from epsgeom.poly import EXTENDED, MONO_ONE, STANDARD, Monomial, Poly
from epsgeom.shadow import PointAssignment

README = Path(__file__).resolve().parent.parent / "README.md"


class TestParseExamples:
    def test_remark_poly(self):
        f = parse_poly("z1 + eps*z2")
        assert f.domain == "extended"
        assert len(f.terms) == 2

    def test_parenthesized_coefficient(self):
        f = parse_poly("(1-eps)*z1^2")
        assert len(f.terms) == 1
        assert format_poly(f) == "(1 - eps)*z1^2"

    def test_dangling_operator(self):
        with pytest.raises(ParseError) as info:
            parse_poly("z1 +")
        assert info.value.position is not None

    def test_position_points_at_offender(self):
        with pytest.raises(ParseError) as info:
            parse_poly("z1 + $")
        assert info.value.position == 5


class TestFormatExamples:
    def test_zero(self):
        assert format_poly(Poly.zero("standard")) == "0"

    def test_canonical_two_term(self):
        assert format_poly(parse_poly("eps*z2 + z1")) == "z1 + eps*z2"

    def test_negative_unit_coefficient(self):
        assert format_poly(parse_poly("-z1")) == "-z1"


class TestGrammarEdges:
    def test_w_aliases_z(self):
        assert parse_poly("w2") == parse_poly("z2")

    def test_fractional_exponent_only_on_eps(self):
        assert parse_lc("eps^(1/2)") == LCNumber.eps(Fraction(1, 2))
        with pytest.raises(ParseError):
            parse_poly("z1^(1/2)")

    def test_negative_eps_power(self):
        x = parse_lc("-eps^2")
        assert x == -LCNumber.eps(Fraction(2))

    def test_rational_literal(self):
        assert parse_lc("003/4") == LCNumber.term(
            parse_lc("3/4").leading()[1], Fraction(0)
        )

    def test_imaginary_unit(self):
        assert format_lc(parse_lc("i*eps + 2")) == "2 + i*eps"

    def test_nested_parens(self):
        assert parse_poly("((z1))") == parse_poly("z1")

    def test_empty_input(self):
        with pytest.raises(ParseError):
            parse_poly("")

    def test_trailing_garbage(self):
        with pytest.raises(ParseError):
            parse_poly("z1 z2")

    def test_generator_list(self):
        gens = parse_generators("z1; z2 - 1")
        assert len(gens) == 2
        assert gens[1] == parse_poly("z2 - 1")

    def test_readme_point_example(self):
        # the grammar section writes a point this way, and it must parse
        text = "z1 = 1 + eps, z2 = -1/2"
        assert "points are written `%s`" % text in " ".join(README.read_text().split())
        assert parse_point(text) == {1: parse_lc("1 + eps"), 2: parse_lc("-1/2")}


def _canonical(f):
    """f with its terms in print order, demoted when eps-free: what parsing
    its canonical format gives."""
    f = Poly(f.domain, dict(f.sorted_terms()))
    demoted = f.to_standard()
    return f if demoted is None else demoted


class TestRoundTrips:
    # repr shows the value, the domain, the term order and the coefficient
    # types
    @given(polys())
    @settings(max_examples=80, deadline=None)
    def test_standard_poly(self, f):
        assert repr(parse_poly(format_poly(f))) == repr(_canonical(f))

    @given(extended_polys(limited=False))
    @settings(max_examples=80, deadline=None)
    def test_extended_poly(self, f):
        assert repr(parse_poly(format_poly(f))) == repr(_canonical(f))

    @given(lc_numbers())
    @settings(max_examples=80, deadline=None)
    def test_scalar(self, x):
        assert parse_lc(format_lc(x)) == x

    @given(limited_lc(), lc_numbers())
    @settings(max_examples=40, deadline=None)
    def test_point(self, a, b):
        p = PointAssignment({1: a, 3: b})
        q = parse_point(format_point(p))
        assert set(q) == {1, 3}
        assert q[1] == a and q[3] == b


Z1 = Monomial([(1, 1)])


class TestConstantFolding:
    """Constants fold as numbers and become a Poly only where they meet a
    variable or a Poly; values, domains and term order stay as when every
    atom was a Poly."""

    @pytest.mark.parametrize(
        "text, domain, terms",
        [
            ("eps - eps", STANDARD, []),
            ("0^0", STANDARD, [(MONO_ONE, GaussianRational(1))]),
            ("(1/2)^3 - i^2", STANDARD, [(MONO_ONE, GaussianRational(Fraction(9, 8)))]),
            ("(2*eps^(1/2))^2", EXTENDED, [(MONO_ONE, LCNumber.term(4, 1))]),
            ("2*(z1 + 1)", STANDARD, [(Z1, GaussianRational(2)), (MONO_ONE, GaussianRational(2))]),
            ("1 + 2 + z1 - 3", STANDARD, [(Z1, GaussianRational(1))]),
            ("eps^0*z1 + 1 - 1 + eps", EXTENDED, [(Z1, LC_ONE), (MONO_ONE, LCNumber.eps())]),
        ],
    )
    def test_values_domains_and_term_order(self, text, domain, terms):
        f = parse_poly(text)
        assert f.domain == domain
        assert list(f.terms.items()) == terms
        assert all(type(c) is type(c0) for c, (_, c0) in zip(f.terms.values(), terms))

    def test_parse_lc_of_a_folded_constant(self):
        assert parse_lc("(1/2)^3 - i^2 + eps - eps") == LCNumber.from_gaussian(
            GaussianRational(Fraction(9, 8))
        )
        assert parse_lc("z1 - z1 + eps") == LCNumber.eps()
        with pytest.raises(InvalidInput, match="expected a constant expression"):
            parse_lc("2*z1")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("2^(1/2)", "rational exponents are legal only on eps (at position 7)"),
            ("(eps)^(1/2)", "rational exponents are legal only on eps (at position 11)"),
            ("i^(-1)", "rational exponents are legal only on eps (at position 6)"),
            ("(" * 101 + "1" + ")" * 101, "parentheses nest deeper than 100 (at position 100)"),
        ],
        ids=["rational", "parenthesised-eps", "negative", "too-deep"],
    )
    def test_errors_keep_their_message_and_position(self, text, message):
        with pytest.raises(ParseError) as info:
            parse_poly(text)
        assert str(info.value) == message


class TestOneUnaryMinus:
    """A minus binds looser than `^` and tighter than `*`, wherever it
    stands."""

    @pytest.mark.parametrize(
        "text, expected",
        [
            ("-3^2", "-9"),
            ("0 + -3^2", "-9"),
            ("0 - 3^2", "-9"),
            ("2*-3^2", "-18"),
            ("0 - -3^2", "9"),
            ("1 + -eps", "1 - eps"),
            ("2*-z1", "-2*z1"),
            ("--3", "3"),
            ("-" * 10001 + "1", "-1"),
            ("--eps^(1/2)", "eps^(1/2)"),
            ("2*-3/4^2", "-9/8"),
        ],
        ids=[
            "leading", "after-plus", "binary-minus", "after-times", "after-minus",
            "eps", "variable", "double", "ten-thousand-and-one", "eps-power", "rational",
        ],
    )
    def test_values(self, text, expected):
        assert parse_poly(text) == parse_poly(expected)


class TestDecimalDigitsAndPositions:
    @pytest.mark.parametrize(
        "text, message",
        [
            ("\u00b2", "unexpected character '\u00b2' (at position 0)"),
            ("z\u00b2", "unknown name 'z\u00b2' (at position 0)"),
            ("z1^\u00b2", "unexpected character '\u00b2' (at position 3)"),
            ("eps^(1/\u00b2)", "unexpected character '\u00b2' (at position 7)"),
            ("eps^(1/0)", "zero denominator (at position 7)"),
        ],
        ids=["digit", "variable", "exponent", "eps-exponent", "zero-denominator"],
    )
    def test_parse_errors(self, text, message):
        with pytest.raises(ParseError) as info:
            parse_poly(text)
        assert str(info.value) == message

    def test_decimal_digits_of_other_scripts_read_as_digits(self):
        assert parse_lc("\u0663") == parse_lc("3")
        assert parse_poly("z\u0661") == parse_poly("z1")

    @pytest.mark.parametrize(
        "parse, text, message",
        [
            (parse_generators, "z1; z2 + $", "unexpected character '$' (at position 9)"),
            (parse_point, "z1=1, z2=$", "unexpected character '$' (at position 9)"),
            (parse_point, "z1=1, zz=3", "bad variable name 'zz' (at position 6)"),
            (parse_point, "z1=1, z1=2", "variable z1 assigned twice (at position 6)"),
            (parse_point, "z1=1, z2", "expected var=value (at position 5)"),
            (parse_point, "z\u00b2=0", "bad variable name 'z\u00b2' (at position 0)"),
        ],
        ids=["generators", "point-value", "point-name", "point-twice", "point-no-equals", "point-digit"],
    )
    def test_positions_count_from_the_start_of_the_text(self, parse, text, message):
        with pytest.raises(ParseError) as info:
            parse(text)
        assert str(info.value) == message


def _rand_qi(rng):
    # units, integers, fractions, pure imaginaries and mixed values
    re = Fraction(rng.choice((0, 0, 1, -1, 2, -3, 7)), rng.choice((1, 1, 1, 2, 3)))
    im = Fraction(rng.choice((0, 0, 0, 1, -1, 2, -5)), rng.choice((1, 1, 4)))
    return GaussianRational(re, im)


def _rand_lc(rng, terms):
    x = LC_ZERO
    for _ in range(rng.randint(1, terms)):
        q = Fraction(rng.choice((0, 0, 1, 2, -1, 3, -2, 5)), rng.choice((1, 1, 2, 3)))
        x = x + LCNumber.term(_rand_qi(rng), q)
    return x


def _rand_coefficient(rng, domain):
    if domain == STANDARD:
        return _rand_qi(rng)
    kind = rng.random()
    if kind < 0.5:
        return _rand_lc(rng, 1)
    if kind < 0.85:
        return _rand_lc(rng, 3)
    # a quotient that is not a finite sum
    return LCFraction(_rand_lc(rng, 2) or LC_ONE, LC_ONE + LCNumber.term(_rand_qi(rng) or GaussianRational(1), rng.choice((1, Fraction(1, 2)))))


class TestFormattingAgainstTheReference:
    """format_poly and format_lc against the earlier formatters, which wrote
    the sign, body and eps^q of a term once for scalars and once for poly
    terms: standard, extended and quotient coefficients, on the monomial 1
    and on others."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_polys_match(self, seed):
        rng = random.Random(9700 + seed)
        for _ in range(300):
            domain = rng.choice((STANDARD, EXTENDED, EXTENDED))
            terms = {}
            for _ in range(rng.randint(0, 4)):
                exps = [(v, rng.randint(1, 3)) for v in (1, 2, 3) if rng.random() < 0.4]
                terms[Monomial(exps)] = _rand_coefficient(rng, domain)
            f = Poly(domain, terms)
            assert format_poly(f) == reference_format_poly(f)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_scalars_match(self, seed):
        rng = random.Random(9800 + seed)
        for _ in range(300):
            x = _rand_coefficient(rng, rng.choice((STANDARD, EXTENDED)))
            if rng.random() < 0.1:
                x = LC_ZERO
            assert format_lc(x) == reference_format_lc(x)
