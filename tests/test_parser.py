from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings

from _strategies import extended_polys, lc_numbers, limited_lc, polys
from epsgeom.errors import ParseError
from epsgeom.levicivita import LCNumber
from epsgeom.parser import (
    format_lc,
    format_point,
    format_poly,
    parse_generators,
    parse_lc,
    parse_point,
    parse_poly,
)
from epsgeom.poly import Poly
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
