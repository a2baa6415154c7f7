import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings

from _oracles import reference_format_lc, reference_format_poly
from _strategies import extended_polys, lc_numbers, limited_lc, polys
from epsgeom.errors import ParseError
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
from epsgeom.poly import EXTENDED, STANDARD, Monomial, Poly
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


class TestRoundTrips:
    @given(polys())
    @settings(max_examples=80, deadline=None)
    def test_standard_poly(self, f):
        assert parse_poly(format_poly(f)).to_standard() == f

    @given(extended_polys(limited=False))
    @settings(max_examples=80, deadline=None)
    def test_extended_poly(self, f):
        assert parse_poly(format_poly(f)) == f

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
