import math
import operator
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import (
    ReferenceGaussianRational,
    eval_coeffs,
    poly_from_roots,
    reference_divide_out,
    reference_gaussian_poly_roots,
)
from _strategies import gaussians
from epsgeom.errors import DivisionByZero
from epsgeom.gaussian import (
    QI_I,
    QI_ONE,
    QI_ZERO,
    GaussianRational,
    _divide_out,
    gaussian_nth_root,
    gaussian_poly_roots,
    gaussian_sqrt,
)


class TestFieldLaws:
    @given(gaussians(), gaussians(), gaussians())
    def test_ring_laws(self, a, b, c):
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + QI_ZERO == a
        assert a * QI_ONE == a

    @given(gaussians(nonzero=True))
    def test_inverse(self, a):
        assert a * (QI_ONE / a) == QI_ONE

    @given(gaussians())
    def test_conjugate_norm(self, a):
        assert a * a.conjugate() == GaussianRational(a.norm())
        assert a.norm() >= 0
        assert (a.norm() == 0) == (not a)

    def test_imaginary_unit(self):
        assert QI_I * QI_I == GaussianRational(-1)


class TestSqrt:
    @given(gaussians())
    def test_square_then_sqrt(self, a):
        r = gaussian_sqrt(a * a)
        assert r is not None
        assert r * r == a * a

    def test_nonsquare(self):
        assert gaussian_sqrt(GaussianRational(2)) is None

    def test_radicands_past_float_range(self):
        assert gaussian_sqrt(GaussianRational(10**400)) == GaussianRational(10**200)
        assert gaussian_sqrt(GaussianRational(-4 * 10**600)) == GaussianRational(0, 2 * 10**300)
        assert gaussian_sqrt(GaussianRational(10**400 + 1)) is None


class TestPolyRoots:
    # oracle: coefficients built by plain list convolution from a known
    # root multiset; the solver must recover exactly that multiset

    @given(
        st.lists(
            st.sampled_from(
                [
                    QI_ZERO,
                    QI_ONE,
                    QI_I,
                    GaussianRational(-2),
                    GaussianRational(Fraction(1, 2)),
                    GaussianRational(1, 1),
                ]
            ),
            min_size=1,
            max_size=4,
        )
    )
    @settings(max_examples=60)
    def test_recovers_known_roots(self, roots):
        coeffs = poly_from_roots(roots)
        found = gaussian_poly_roots(coeffs)
        flat = [r for r, mult in found for _ in range(mult)]
        assert sorted(flat, key=lambda g: (g.re, g.im)) == sorted(
            roots, key=lambda g: (g.re, g.im)
        )
        for r, _ in found:
            assert eval_coeffs(coeffs, r) == QI_ZERO

    def test_sorted_descending(self):
        coeffs = poly_from_roots([QI_ZERO, QI_ONE, QI_I])
        found = gaussian_poly_roots(coeffs)
        keys = [(r.re, r.im) for r, _ in found]
        assert keys == sorted(keys, reverse=True)

    def test_irrational_roots_invisible(self):
        # z^2 - 2 has no Gaussian-rational roots
        assert gaussian_poly_roots([GaussianRational(-2), QI_ZERO, QI_ONE]) == []

    def test_rejects_zero_polynomial(self):
        with pytest.raises(ValueError):
            gaussian_poly_roots([QI_ZERO])

    def test_constant_has_no_roots(self):
        assert gaussian_poly_roots([QI_ONE]) == []

    @given(gaussians(), gaussians(nonzero=True), st.integers(0, 2))
    @settings(max_examples=80, derandomize=True)
    def test_linear_root_is_simple(self, c0, c1, k):
        # a linear factor's root is taken without the candidate checks;
        # they would find it a root, of multiplicity 1
        coeffs = [QI_ZERO] * k + [c0, c1]
        roots = [QI_ZERO] * k + [-c0 / c1]
        found = gaussian_poly_roots(coeffs)
        flat = [r for r, mult in found for _ in range(mult)]
        assert sorted(flat, key=lambda g: (g.re, g.im)) == sorted(
            roots, key=lambda g: (g.re, g.im)
        )
        assert [c1 * c for c in poly_from_roots(roots)] == coeffs
        for r, _ in found:
            assert eval_coeffs(coeffs, r) == QI_ZERO


# irreducible quadratics and cubics over Q(i): cofactors with no root in Q(i)
ROOTLESS = [
    [GaussianRational(-2), QI_ZERO, QI_ONE],
    [QI_ONE, QI_ONE, QI_ONE],
    [GaussianRational(0, -1), QI_ZERO, QI_ONE],
    [GaussianRational(1, 1), QI_ZERO, QI_ONE],
    [GaussianRational(-2), QI_ZERO, QI_ZERO, QI_ONE],
    [QI_ONE, QI_ONE, QI_ZERO, QI_ONE],
]


def _times(a, b):
    out = [QI_ZERO] * (len(a) + len(b) - 1)
    for j, x in enumerate(a):
        for k, y in enumerate(b):
            out[j + k] = out[j + k] + x * y
    return out


def _degree_3_to_8(rng):
    """Ascending coefficients of degree 3 to 8: Q(i) roots up to multiplicity
    3, zero roots, rootless cofactors and a leading coefficient."""
    qi = lambda: GaussianRational(
        Fraction(rng.randint(-3, 3), rng.randint(1, 2)), Fraction(rng.randint(-2, 2), rng.randint(1, 2))
    )
    while True:
        roots = [QI_ZERO] * rng.choice((0, 0, 1, 2))
        for _ in range(rng.randint(1, 3)):
            roots += [qi()] * rng.randint(1, 3)
        unit = qi() or QI_ONE
        coeffs = [unit * c for c in poly_from_roots(roots)]
        for _ in range(rng.choice((0, 0, 1, 2))):
            coeffs = _times(coeffs, rng.choice(ROOTLESS))
        if 4 <= len(coeffs) <= 9:
            return coeffs


class TestPolyRootsMatchReference:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_same_roots_as_the_divisor_search(self, seed):
        # against the rational-root search over Gaussian divisors, which
        # lifting modulo an inert prime replaced: the same roots,
        # multiplicities and order
        rng = random.Random(2500 + seed)
        for _ in range(40):
            coeffs = _degree_3_to_8(rng)
            assert repr(gaussian_poly_roots(coeffs)) == repr(reference_gaussian_poly_roots(coeffs))

    def test_cube_root_of_a_121_digit_radicand(self):
        # the divisor search did not end on this radicand
        assert gaussian_nth_root(GaussianRational(10**120), 3) == 10**40


# --- differential check against the Fraction-pair reference ---------------

_parts = st.one_of(
    st.just(Fraction(0)),
    st.integers(min_value=-30, max_value=30).map(Fraction),
    st.fractions(min_value=-30, max_value=30, max_denominator=24),
)


def _int_if_integral(q):
    return q.numerator if q.denominator == 1 else q


# the constructor takes ints, Fractions and strings
_SPELLINGS = (Fraction, str, _int_if_integral)


@st.composite
def _operands(draw):
    """(shipped, reference) pair: a Q(i) number, an int or a Fraction."""
    kind = draw(st.sampled_from(["gaussian", "int", "fraction"]))
    if kind == "int":
        v = draw(st.integers(min_value=-12, max_value=12))
        return v, v
    if kind == "fraction":
        v = draw(_parts)
        return v, v
    re, im = draw(_parts), draw(_parts)
    spell = draw(st.sampled_from(_SPELLINGS))
    return GaussianRational(spell(re), spell(im)), ReferenceGaussianRational(re, im)


def _assert_normalised(g):
    a, b, d = g._a, g._b, g._d
    assert type(a) is int and type(b) is int and type(d) is int
    assert d > 0
    assert math.gcd(a, b, d) == 1


def _assert_matches(got, ref):
    assert type(got) is GaussianRational
    _assert_normalised(got)
    assert got.re == ref.re and got.im == ref.im
    assert type(got.re) is Fraction and type(got.im) is Fraction
    assert repr(got) == repr(ref)
    assert hash(got) == hash(ref)
    assert bool(got) == bool(ref)


class TestMatchesReference:
    @given(
        _operands(),
        _operands(),
        st.sampled_from([operator.add, operator.sub, operator.mul, operator.truediv]),
    )
    @settings(max_examples=400)
    def test_binary_ops(self, x, y, op):
        (xs, xr), (ys, yr) = x, y
        if not isinstance(xs, GaussianRational) and not isinstance(ys, GaussianRational):
            xs, xr = GaussianRational(xs), ReferenceGaussianRational(xr)
        try:
            expected = op(xr, yr)
        except DivisionByZero:
            with pytest.raises(DivisionByZero):
                op(xs, ys)
            return
        _assert_matches(op(xs, ys), expected)
        assert (xs == ys) == (xr == yr)
        assert (ys == xs) == (yr == xr)

    @given(_operands())
    def test_unary_ops(self, x):
        xs, xr = x
        if not isinstance(xs, GaussianRational):
            xs, xr = GaussianRational(xs), ReferenceGaussianRational(xr)
        _assert_matches(xs, xr)
        _assert_matches(-xs, -xr)
        _assert_matches(xs.conjugate(), xr.conjugate())
        assert xs.norm() == xr.norm()
        assert type(xs.norm()) is Fraction
        assert (xs == xs.conjugate()) == (xr == xr.conjugate())

    @pytest.mark.parametrize("zero", [0, Fraction(0), GaussianRational(0)])
    def test_zero_divisor(self, zero):
        for x in (GaussianRational(1, 2), GaussianRational(Fraction(1, 3))):
            with pytest.raises(DivisionByZero):
                x / zero
        with pytest.raises(DivisionByZero):
            1 / GaussianRational(0)


class TestDivideOut:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_quotient_and_remainder_division(self, seed):
        # against the earlier divide-out, which divided by (y - r) into a
        # fresh quotient and remainder; roots of multiplicity 0 to 3
        rng = random.Random(9600 + seed)
        for _ in range(100):
            qi = lambda: GaussianRational(Fraction(rng.randint(-3, 3), rng.choice((1, 2))), rng.randint(-1, 1))
            r = qi()
            roots = [r] * rng.randint(0, 3) + [qi() for _ in range(rng.randint(0, 3))]
            unit = qi() or QI_ONE
            coeffs = [unit * c for c in poly_from_roots(roots)]
            before = list(coeffs)
            got = _divide_out(coeffs, r)
            assert repr(got) == repr(reference_divide_out(coeffs, r))
            assert coeffs == before
            assert got[0] == roots.count(r)
