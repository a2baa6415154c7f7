import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import reference_lc_inverse, reference_lc_nth_root
from _strategies import gaussians, lc_numbers, limited_lc
from epsgeom.errors import DivisionByZero, EpsgeomError, NonConstructibleRoot, UnlimitedValue
from epsgeom.gaussian import QI_I, GaussianRational
from epsgeom.levicivita import (
    INF,
    LC_EPS,
    LC_ONE,
    LC_ZERO,
    LCFraction,
    LCNumber,
    TruncationOrder,
    lc_abs_cmp,
    lc_classify,
    lc_exact_div,
    lc_gcd,
    lc_inverse,
    lc_nth_root,
    lc_st,
)
from epsgeom.parser import format_lc, parse_lc, parse_poly
from epsgeom.shadow import newton_puiseux_lift


def L(text):
    return parse_lc(text)


class TestArithmeticExamples:
    def test_add_cancellation(self):
        assert L("1+eps") + L("1-eps") == L("2")

    def test_add_identity(self):
        assert LC_EPS + LC_ZERO == LC_EPS

    def test_add_like_terms(self):
        assert L("eps^(1/2)") + L("eps^(1/2)") == L("2*eps^(1/2)")

    def test_mul_inverse_powers(self):
        assert LC_EPS * L("eps^(-1)") == LC_ONE

    def test_mul_conjugates(self):
        assert L("1+eps") * L("1-eps") == L("1 - eps^2")

    def test_mul_imaginary(self):
        assert L("i") * L("i") == L("-1")


class TestFieldLaws:
    @given(lc_numbers(), lc_numbers(), lc_numbers())
    @settings(max_examples=80, deadline=None)
    def test_ring_laws(self, x, y, z):
        assert x + y == y + x
        assert (x + y) + z == x + (y + z)
        assert x * y == y * x
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        assert x + LC_ZERO == x
        assert x * LC_ONE == x
        assert x - x == LC_ZERO


class TestValuation:
    @given(lc_numbers(nonzero=True), lc_numbers(nonzero=True))
    def test_multiplicative(self, x, y):
        assert (x * y).valuation() == x.valuation() + y.valuation()

    @given(lc_numbers(), lc_numbers())
    def test_ultrametric(self, x, y):
        s = x + y
        assert s.valuation() >= min(x.valuation(), y.valuation())
        if x.valuation() != y.valuation():
            assert s.valuation() == min(x.valuation(), y.valuation())

    def test_zero_sentinel(self):
        assert LC_ZERO.valuation() == INF


class TestInverse:
    def test_geometric_series(self):
        # derived value, pinned after multiplying back
        y = lc_inverse(L("1-eps"), TruncationOrder(4))
        assert format_lc(y) == "1 + eps + eps^2 + eps^3 + eps^4"
        assert (L("1-eps") * y - LC_ONE).valuation() > 4

    def test_exact_constant(self):
        assert lc_inverse(L("2")) == L("1/2")

    def test_zero_rejected(self):
        with pytest.raises(DivisionByZero):
            lc_inverse(LC_ZERO)

    @given(lc_numbers(nonzero=True))
    @settings(max_examples=60, deadline=None)
    def test_residual_clears_order(self, x):
        t = TruncationOrder(16)
        assert (x * lc_inverse(x, t) - LC_ONE).valuation() > t.order


class TestNthRoot:
    def test_eps_square(self):
        assert lc_nth_root(L("eps^2"), 2) == LC_EPS

    def test_constant(self):
        assert lc_nth_root(L("4"), 2) == L("2")

    def test_nonconstructible(self):
        with pytest.raises(NonConstructibleRoot):
            lc_nth_root(L("2"), 2)

    def test_zero_rejected(self):
        with pytest.raises(DivisionByZero):
            lc_nth_root(LC_ZERO, 2)

    @given(lc_numbers(nonzero=True), st.sampled_from([2, 3]))
    @settings(max_examples=40, deadline=None)
    def test_root_power_residual(self, x, n):
        x = x * x if n == 2 else x * x * x  # guarantees a constructible root
        t = TruncationOrder(16)
        y = lc_nth_root(x, n, t)
        assert (y ** n - x).valuation() > t.order
        assert y.valuation() == Fraction(x.valuation(), n)


class TestExponentTypes:
    # exponents are exact: an int when integral, a Fraction otherwise
    def test_constructors_give_int_exponents(self):
        for x in (
            LC_ONE,
            LC_EPS,
            LCNumber.eps(),
            LCNumber.eps(Fraction(4, 2)),
            LCNumber.term(3, Fraction(-2)),
            LCNumber.term(3, "5"),
            LCNumber.from_gaussian(QI_I),
        ):
            assert [type(q) for q, _ in x.terms] == [int]
        assert LCNumber.eps(Fraction(1, 2)).terms[0][0] == Fraction(1, 2)

    def test_no_float_exponents(self):
        roots = [
            lc_nth_root(L("4*eps^3 + eps^4"), 2),
            lc_nth_root(L("eps + eps^2"), 3),
            lc_nth_root(L("eps^2"), 2),
        ]
        # a float exponent converted back to a Fraction would not be 1/3
        assert [y.valuation() for y in roots] == [Fraction(3, 2), Fraction(1, 3), 1]
        values = roots + [
            L("eps^(1/2) + 3*eps^2 - eps^(-1) + 7"),
            lc_inverse(L("1 + eps^(1/3)")),
            lc_inverse(L("eps - eps^2")),
        ]
        values += newton_puiseux_lift(parse_poly("z1^2 - eps"), 0).values.values()
        values += newton_puiseux_lift(parse_poly("z1^3 - eps^2 - z1*eps"), 0).values.values()
        for x in values:
            assert x
            for q, _ in x.terms:
                assert type(q) in (int, Fraction)


def _exponents_canonical(x):
    return all(type(q) is int or q.denominator != 1 for q, _ in x.terms)


class TestIntegralExponentsAreInts:
    # sums and differences of two Fraction exponents can be integral; those
    # come out as ints, like every other integral exponent
    def test_square_of_half_power(self):
        h = LCNumber.eps(Fraction(1, 2))
        assert (h ** 2).terms == ((1, GaussianRational(1)),)
        assert type((h * h).terms[0][0]) is int
        assert type((h * (h + LC_EPS)).terms[0][0]) is int

    @given(lc_numbers(), lc_numbers(nonzero=True))
    @settings(max_examples=80, deadline=None)
    def test_products_and_quotients(self, x, y):
        p = x * y
        assert _exponents_canonical(p)
        q = lc_exact_div(p, y)
        assert q == x and _exponents_canonical(q)
        f = LCFraction(x, y)
        assert _exponents_canonical(f.num) and _exponents_canonical(f.den)
        g = lc_gcd(p, y)
        assert _exponents_canonical(g)


def _canonical(x):
    """Strictly ascending exponents, no zero coefficient, int exponents
    where integral, and nothing the filtering constructor would change."""
    qs = [q for q, _ in x.terms]
    return (
        type(x.terms) is tuple
        and all(p < q for p, q in zip(qs, qs[1:]))
        and all(c for _, c in x.terms)
        and _exponents_canonical(x)
        and x == LCNumber(x.terms)
    )


_single_terms = st.tuples(
    st.fractions(min_value=-2, max_value=3, max_denominator=3), gaussians(nonzero=True)
).map(lambda p: LCNumber.term(p[1], p[0]))


class TestResultsAreCanonical:
    # sums, differences, products and negations build their results
    # without the constructor's zero filter

    @given(
        st.one_of(_single_terms, lc_numbers(max_terms=4)),
        st.one_of(_single_terms, lc_numbers(max_terms=4)),
    )
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_ring_operations(self, x, y):
        for r in (x + y, x - y, y - x, x * y, y * x, -x, x - x, x + (-x)):
            assert _canonical(r)

    def test_fraction_exponents_meet(self):
        h = LCNumber.eps(Fraction(1, 2))
        t = LCNumber.eps(Fraction(3, 2))
        for x, y in [
            (h, h),
            (h, h + t),
            (h + t, h),
            (h + t, h - t),
            (LCNumber.term(QI_I, Fraction(1, 3)), L("eps^(2/3) + eps^(5/3)")),
        ]:
            p = x * y
            assert _canonical(p) and type(p.terms[0][0]) is int
            assert _canonical(p - p) and not p - p
        assert (h * h - LC_EPS) == LC_ZERO
        assert _canonical(-(h + t)) and _canonical(h * LC_ONE)


class TestClassification:
    def test_examples(self):
        assert lc_classify(L("eps^(-1)")) == (Fraction(-1), "unlimited")
        assert lc_classify(L("3+eps")) == (Fraction(0), "appreciable")
        assert lc_classify(L("eps^(1/2)")) == (Fraction(1, 2), "infinitesimal")
        assert lc_classify(LC_ZERO) == (INF, "zero")

    def test_zero_is_infinitesimal_and_limited(self):
        assert LC_ZERO.is_infinitesimal()
        assert LC_ZERO.is_limited()
        assert not LC_ZERO.is_appreciable()
        assert not LC_ZERO.is_unlimited()

    @given(lc_numbers())
    def test_trichotomy(self, x):
        label = lc_classify(x)[1]
        if label == "zero":
            assert x.is_infinitesimal() and x.is_limited()
        elif label == "infinitesimal":
            assert x.is_infinitesimal() and x.is_limited() and not x.is_appreciable()
        elif label == "appreciable":
            assert x.is_appreciable() and x.is_limited() and not x.is_infinitesimal()
        else:
            assert x.is_unlimited() and not x.is_limited()


class TestStandardPart:
    def test_examples(self):
        assert lc_st(L("3+2*eps")) == GaussianRational(3)
        assert lc_st(L("i+eps*i")) == QI_I
        with pytest.raises(UnlimitedValue):
            lc_st(L("eps^(-1)"))

    @given(limited_lc(), limited_lc())
    def test_ring_homomorphism_on_limited(self, x, y):
        assert lc_st(x + y) == lc_st(x) + lc_st(y)
        assert lc_st(x * y) == lc_st(x) * lc_st(y)


class TestAbsCmp:
    def test_examples(self):
        assert lc_abs_cmp(LC_EPS, L("1/2")) == -1
        assert lc_abs_cmp(L("3"), L("2")) == 1
        assert lc_abs_cmp(L("i"), L("1")) == 0

    @given(lc_numbers(), lc_numbers(), lc_numbers())
    @settings(max_examples=60, deadline=None)
    def test_total_preorder(self, x, y, z):
        a, b = lc_abs_cmp(x, y), lc_abs_cmp(y, x)
        assert a == -b  # antisymmetric as a comparison
        assert lc_abs_cmp(x, x) == 0
        if lc_abs_cmp(x, y) <= 0 and lc_abs_cmp(y, z) <= 0:
            assert lc_abs_cmp(x, z) <= 0

    @given(lc_numbers(nonzero=True), lc_numbers(nonzero=True))
    def test_infinitesimal_below_appreciable(self, x, y):
        if x.is_infinitesimal() and y.is_appreciable():
            assert lc_abs_cmp(x, y) == -1


class TestFractions:
    @given(lc_numbers(nonzero=True), lc_numbers(nonzero=True))
    @settings(max_examples=60, deadline=None)
    def test_canonical_division_round_trip(self, x, y):
        q = LCFraction(x, y)
        # canonical form keeps the denominator a unit perturbation of 1
        assert q.den.valuation() == 0
        assert q.den.leading()[1] == GaussianRational(1)
        assert q * LCFraction(y) == LCFraction(x)

    @given(lc_numbers())
    def test_collapse_when_exact(self, x):
        q = LCFraction(x)
        assert q.to_lcnumber() == x


def _rand_lc(rng, terms=4):
    x = LC_ZERO
    for _ in range(rng.randint(0, terms)):
        q = Fraction(rng.randint(-6, 12), rng.choice((1, 2, 3)))
        c = GaussianRational(Fraction(rng.randint(-4, 4), rng.choice((1, 1, 3))), rng.randint(-2, 2))
        x = x + LCNumber.term(c, q)
    return x


def _series(fn, *args):
    """The result's exact terms, or the error."""
    try:
        return repr(fn(*args).terms)
    except EpsgeomError as e:
        return type(e).__name__, str(e)


_SERIES_ORDERS = [
    TruncationOrder(Fraction(1, 3)),
    TruncationOrder(Fraction(7, 3)),
    TruncationOrder(5),
    TruncationOrder(16),
    Fraction(3, 2),
    4,
]


class TestSeriesAgainstTheReference:
    """lc_inverse and lc_nth_root against their earlier versions, which ran
    a series loop each: single terms, zero, sums with negative, zero and
    fractional valuations, every truncation order, and for the root perfect
    powers, non-constructible leading coefficients and bad indices."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_inverses_match(self, seed):
        rng = random.Random(9400 + seed)
        errors = 0
        for _ in range(150):
            x, t = _rand_lc(rng), rng.choice(_SERIES_ORDERS)
            got = _series(lc_inverse, x, t)
            assert got == _series(reference_lc_inverse, x, t), (format_lc(x), t)
            errors += isinstance(got, tuple)
        assert 0 < errors < 40

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_nth_roots_match(self, seed):
        rng = random.Random(9500 + seed)
        outcomes = set()
        for _ in range(150):
            n = rng.choice((1, 2, 2, 3, 3, 4, 0))
            x, t = _rand_lc(rng, terms=3), rng.choice(_SERIES_ORDERS)
            if n and rng.random() < 0.6:
                x = x ** n
            got = _series(lc_nth_root, x, n, t)
            assert got == _series(reference_lc_nth_root, x, n, t), (format_lc(x), n, t)
            outcomes.add(got[0] if isinstance(got, tuple) else "root")
        assert outcomes == {"root", "InvalidInput", "DivisionByZero", "NonConstructibleRoot"}
