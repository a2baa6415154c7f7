import json
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import (
    compose_polys,
    eval_coeffs,
    poly_from_roots,
    reference_collect_roots,
    reference_newton_puiseux_lift,
    reference_open_shadow_witness,
    reference_reduce_on_variety,
    reference_univar_coeffs,
    reference_verify_shadow_closure,
)
from _strategies import extended_polys, gaussians, lc_numbers, limited_lc, polys
from epsgeom import gaussian, shadow
from epsgeom.cli import run_command
from epsgeom.errors import (
    EmptyOpen,
    EpsgeomError,
    InvalidInput,
    NotAShadowRoot,
    SupportMismatch,
    UnlimitedCoefficient,
    UnlimitedValue,
)
from epsgeom.gaussian import QI_ZERO, GaussianRational
from epsgeom.groebner import Ideal, ideal_member, radical_member
from epsgeom.levicivita import LC_ONE, LC_ZERO, LCFraction, LCNumber, TruncationOrder, lc_st
from epsgeom.parser import format_lc, format_poly, parse_lc, parse_poly
from epsgeom.poly import (
    EXTENDED,
    AffineSubstitution,
    Monomial,
    Poly,
    max_abs_normalize,
    poly_eval,
    poly_shadow,
)
from epsgeom.shadow import (
    PointAssignment,
    VarietyPresentation,
    VarietyReduction,
    _collect_roots,
    _taylor_shift,
    _univar_coeffs,
    halo_member,
    newton_puiseux_lift,
    open_shadow_witness,
    point_shadow,
    reduce_on_variety,
    verify_shadow_closure,
)


def pt(values):
    return PointAssignment({v: parse_lc(x) for v, x in values.items()})


def P(text):
    return parse_poly(text)


def L(text):
    return parse_lc(text)


LINE = VarietyPresentation((1, 2), [P("z1").to_standard()])


class TestPointShadow:
    def test_coordinatewise(self):
        assert point_shadow(pt({1: "1 + eps", 2: "2 - eps"})) == pt({1: "1", 2: "2"})

    def test_unlimited_coordinate(self):
        with pytest.raises(UnlimitedValue):
            point_shadow(pt({1: "eps^(-1)"}))

    def test_empty(self):
        assert point_shadow(PointAssignment({})) == PointAssignment({})


class TestHalo:
    def test_member(self):
        assert halo_member(pt({1: "1 + eps"}), pt({1: "1"}))

    def test_non_member(self):
        assert not halo_member(pt({1: "1 + eps"}), pt({1: "2"}))

    def test_support_mismatch(self):
        with pytest.raises(SupportMismatch, match=r"^supports \{z1, z2\} and \{z1\} differ$"):
            halo_member(pt({1: "1 + eps", 2: "0"}), pt({1: "1"}))


class TestReduceOnVariety:
    def test_remark_instance(self):
        r = reduce_on_variety(P("z1 + eps*z2"), LINE)
        assert not r.all_of_x
        assert r.poly == P("z2").to_extended()
        assert r.iterations == 2

    def test_shadow_already_visible(self):
        full = VarietyPresentation((1,), [])
        r = reduce_on_variety(P("z1").to_extended(), full)
        assert not r.all_of_x
        assert r.poly == P("z1").to_extended()

    def test_vanishing_on_all_of_x(self):
        r = reduce_on_variety(P("(1 + eps)*z1"), LINE)
        assert r.all_of_x
        assert r.poly is None

    def test_one_radical_question_a_pass(self, monkeypatch):
        # the shadow of the normalised g is asked about once a pass: z1, a
        # member, then z2; asking before normalising too made it 3 calls
        asked = []

        def counted(g, ideal):
            asked.append(format_poly(g))
            return radical_member(g, ideal)

        monkeypatch.setattr(shadow, "radical_member", counted)
        r = reduce_on_variety(P("z1 + eps*z2"), LINE)
        assert (r.poly, r.iterations) == (P("z2").to_extended(), 2)
        assert asked == ["z1", "z2"]

    def test_an_unlimited_f_is_normalised(self):
        f = P("eps^(-1)*z1 + z2")
        r = reduce_on_variety(f, LINE)
        assert r == VarietyReduction(False, P("z2").to_extended(), 2)
        with pytest.raises(UnlimitedCoefficient):
            reference_reduce_on_variety(f, LINE)
        code, out = run_command(["reduce-on-variety", "--poly=eps^(-1)*z1 + z2", "--variety=z1"])
        assert code == 0
        assert json.loads(out)["result"] == {"all_of_x": False, "poly": "z2", "iterations": 2}

    def test_random_instances(self):
        rng = random.Random(5001)
        ix = Ideal([P("z1").to_standard()])
        ext_gens = [P("z1").to_extended()]
        for _ in range(25):
            # f = h*z1 + eps^k * q(z2): limited coefficients by construction
            h = Poly.constant(GaussianRational(rng.randint(-2, 2))).to_extended()
            k = rng.choice((1, 2))
            q = Poly.zero("standard")
            for e in range(rng.randint(0, 2) + 1):
                c = rng.randint(-2, 2)
                if c:
                    q = q + P("%d*z2^%d" % (c, e + 1)).to_standard()
            f = h * P("z1").to_extended() + Poly.constant(
                LCNumber.eps(Fraction(k))
            ) * q.to_extended()
            if not f:
                continue
            r = reduce_on_variety(f, LINE)
            assert r.iterations <= len(f.terms)
            if r.all_of_x:
                assert ideal_member(f, Ideal(ext_gens))
            else:
                g = r.poly
                assert not radical_member(poly_shadow(g), ix)
                # f and g agree modulo the extended I(X)
                assert ideal_member(f, Ideal(ext_gens + [g]))
                assert ideal_member(g, Ideal(ext_gens + [f]))


class TestNewtonPuiseuxLift:
    def test_square_root_of_eps(self):
        xi = newton_puiseux_lift(P("z1^2 - eps"), 0)
        assert xi[1] == parse_lc("eps^(1/2)")
        assert poly_eval(P("z1^2 - eps"), xi) == LC_ZERO

    def test_linear_exact(self):
        xi = newton_puiseux_lift(P("z1 - 3").to_extended(), 3)
        assert xi[1] == parse_lc("3")

    def test_unit_perturbation_series(self):
        f = P("z1^2 - 1 - eps")
        xi = newton_puiseux_lift(f, 1)
        x = xi[1]
        # 1 + eps/2 - eps^2/8 + ... : check the first three coefficients
        lead = dict(x.terms)
        assert lead[Fraction(0)] == GaussianRational(1)
        assert lead[Fraction(1)] == GaussianRational(Fraction(1, 2))
        assert lead[Fraction(2)] == GaussianRational(Fraction(-1, 8))
        residual = poly_eval(f, xi)
        assert residual.valuation() > 16
        assert xi.value == residual

    def test_value_of_an_unnormalised_poly(self):
        # the lift runs on f / ((2+i)*eps^(-3)), and its value scales back
        f = P("(2+i)*eps^(-3)*(z1^2 - 1 - eps^(1/4))")
        t = TruncationOrder(Fraction(1, 2))
        xi = newton_puiseux_lift(f, 1, t)
        assert xi[1] != LCNumber.from_gaussian(GaussianRational(1))
        assert xi.value == poly_eval(f, xi)
        assert xi.value.valuation() + 3 > t.order

    def test_not_a_shadow_root(self):
        with pytest.raises(NotAShadowRoot, match=r"^z1 = 2 is not a root of the shadow$"):
            newton_puiseux_lift(P("z1^2 - 1").to_extended(), 2)
        # the shadow is that of the normalised polynomial, z1^2 - 1
        with pytest.raises(NotAShadowRoot, match=r"^z1 = 2 is not a root of the shadow$"):
            newton_puiseux_lift(P("eps^2*z1^2 - eps^2"), 2)

    def test_non_root_exits_after_one_horner_pass(self, monkeypatch):
        # the first pass of the shift by a leaves c[0] = fn(a), in 5
        # products on a degree-5 f; the rest of the shift would be 10 more
        # and the t^j scaling another 10
        f = P("(2+i)*eps^(-3)*(z1 - 1)*(z1 - 2)*(z1 - 3 - eps)*(z1 + i)*(z1 + 1 + eps^(1/2))")
        assert f.total_degree() == 5
        calls = []
        mul = LCNumber.__mul__

        def counted(self, other):
            calls.append(1)
            return mul(self, other)

        monkeypatch.setattr(LCNumber, "__mul__", counted)
        max_abs_normalize(f)
        normalise = len(calls)
        calls.clear()
        with pytest.raises(NotAShadowRoot, match=r"^z1 = 5 is not a root of the shadow$"):
            newton_puiseux_lift(f, 5)
        assert len(calls) == normalise + 5

    def test_random_factored_instances(self):
        rng = random.Random(5002)
        vals = [Fraction(-1), Fraction(0), Fraction(1), Fraction(1, 2)]
        for _ in range(20):
            roots = []
            for _ in range(rng.randint(1, 3)):
                v = rng.choice(vals)
                c = GaussianRational(rng.randint(-2, 2), rng.randint(-1, 1))
                if not c:
                    c = GaussianRational(1)
                roots.append(LCNumber.term(c, v) + LCNumber.term(
                    GaussianRational(rng.randint(-1, 1)), v + 1
                ))
            limited = [r for r in roots if r.is_limited()]
            if not limited:
                continue
            target = rng.choice(limited)
            a = lc_st(target)
            coeffs = poly_from_roots(roots)
            f = Poly.zero("extended")
            for e, c in enumerate(coeffs):
                if c:
                    f = f + Poly("extended", {Monomial([(1, e)]): c})
            if not any(coeffs[1:]):
                continue
            xi = newton_puiseux_lift(f, a)
            assert halo_member(
                PointAssignment({1: xi[1]}),
                PointAssignment({1: LCNumber.from_gaussian(a)}),
            )
            value = eval_coeffs(coeffs, xi[1])
            assert (not value) or value.valuation() > 16
            assert xi.value == poly_eval(f, xi)


def _shift_reference(c, s, t):
    """Coefficients of f(s + t*z) through AffineSubstitution, the old route."""
    f = Poly(EXTENDED, {Monomial(((1, k),)): ck for k, ck in enumerate(c)})
    sub = AffineSubstitution(
        {1: Poly.constant(s) + Poly.variable(1, EXTENDED).scale(t)}
    )
    g = sub.apply(f)
    return [g.coefficient(Monomial(((1, k),))) for k in range(len(c))]


def _shift_and_scale(c, s, t):
    """c shifted by s in place, then coefficient j scaled by t^j: the
    coefficients of f(s + t*z)."""
    _taylor_shift(c, s)
    for j in range(1, len(c)):
        c[j] = c[j] * t ** j


class TestTaylorShift:
    @given(
        st.lists(lc_numbers(max_terms=3), min_size=1, max_size=8),
        lc_numbers(max_terms=3),
        lc_numbers(max_terms=3, nonzero=True),
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_substitution(self, c, s, t):
        shifted = list(c)
        _shift_and_scale(shifted, s, t)
        assert shifted == _shift_reference(c, s, t)

    def test_examples(self):
        # (z - 1)^3 at z -> 1 + eps*z is eps^3*z^3; z^2 + z at z -> -1 + z
        c = [L("-1"), L("3"), L("-3"), L("1")]
        _shift_and_scale(c, L("1"), L("eps"))
        assert c == [LC_ZERO, LC_ZERO, LC_ZERO, L("eps^3")]
        c = [LC_ZERO, L("1"), L("1")]
        _taylor_shift(c, L("-1"))
        assert c == [LC_ZERO, L("-1"), L("1")]
        c = [L("eps^(1/2)")]
        _shift_and_scale(c, L("2 + eps"), L("eps^(-1/3)"))
        assert c == [L("eps^(1/2)")]


def _cluster_instances(rng, count):
    """Factored f of degree 5-6 with a cluster of roots a + O(eps^(1/3))."""
    third = Fraction(1, 3)
    out = []
    while len(out) < count:
        a = GaussianRational(rng.choice((-2, -1, 1, 2)), rng.choice((-1, 0, 0, 1)))
        degree = rng.randint(5, 6)
        roots = []
        for _ in range(rng.randint(1, 3)):
            r = LCNumber.from_gaussian(a) + LCNumber.term(
                GaussianRational(rng.choice((-2, -1, 1, 2)), rng.choice((0, 1))), third
            )
            if rng.random() < 0.5:
                r = r + LCNumber.term(GaussianRational(rng.randint(-2, 2)), 2 * third)
            roots.append(r)
        while len(roots) < degree:
            q = rng.choice((-1, 0, third, 1))
            r = LCNumber.term(GaussianRational(rng.randint(-3, 3), rng.randint(-1, 1)), q)
            if not r.is_limited() or lc_st(r) != a:
                roots.append(r)
        out.append((a, roots))
    return out


class TestLiftDegreeFiveAndSix:
    def test_cluster_at_a_nonzero_shadow_root(self):
        t = TruncationOrder()
        for a, roots in _cluster_instances(random.Random(8008), 12):
            coeffs = poly_from_roots(roots)
            f = Poly(EXTENDED, {Monomial(((1, k),)): ck for k, ck in enumerate(coeffs)})
            assert f.total_degree() in (5, 6)
            xi = newton_puiseux_lift(f, a, t)
            assert lc_st(xi[1]) == a
            value = eval_coeffs(coeffs, xi[1])
            assert (not value) or value.valuation() > t.order
            assert xi.value == poly_eval(f, xi)
            assert any((xi[1] - r).is_infinitesimal() for r in roots)

    def test_series_root_of_degree_six(self):
        # (z - 1)^3 * (z + 1) * (z^2 - 2) + 2*eps: the roots at 1 are
        # 1 + c*eps^(1/3) + ... with c^3 = 1, infinite series cut at the
        # truncation order
        f = P("(z1 - 1)^3*(z1 + 1)*(z1^2 - 2) + 2*eps")
        xi = newton_puiseux_lift(f, 1)
        assert lc_st(xi[1]) == GaussianRational(1)
        assert xi[1].terms[1][0] == Fraction(1, 3)
        assert poly_eval(f, xi).valuation() > 16
        assert xi.value == poly_eval(f, xi)
        xi = newton_puiseux_lift(f, 1, TruncationOrder(Fraction(7, 3)))
        assert lc_st(xi[1]) == GaussianRational(1)
        assert poly_eval(f, xi).valuation() > Fraction(7, 3)
        assert xi.value == poly_eval(f, xi)


class TestOpenWitness:
    def test_axis_function(self):
        xi = open_shadow_witness(P("z1").to_extended(), PointAssignment({1: LC_ZERO}))
        assert xi[1] == LCNumber.eps()

    def test_constant_function(self):
        a = pt({1: "2", 2: "3"})
        xi = open_shadow_witness(P("1").to_extended(), a)
        assert xi == a

    def test_zero_rejected(self):
        with pytest.raises(EmptyOpen):
            open_shadow_witness(Poly.zero("extended"), pt({1: "0"}))

    def test_a_zero_line_costs_deg_f_evaluations(self, monkeypatch):
        # z2^3 vanishes on the z1 line through the origin: the search
        # evaluates it there at u = eps, 2*eps, 3*eps and moves on
        points = []

        def counted(f, point):
            points.append(point)
            return poly_eval(f, point)

        monkeypatch.setattr(shadow, "poly_eval", counted)
        xi = open_shadow_witness(P("z2^3"), pt({1: "0", 2: "0"}))
        assert sum(not p[2] for p in points[1:]) == 3
        assert xi.items() == [(1, LC_ZERO), (2, L("eps"))] and xi.value == L("eps^3")

    @pytest.mark.parametrize("f", ["z1 - 1", "z1", "z1*z2 - eps"])
    def test_plain_mapping_point(self, f):
        # a dict point gives what its PointAssignment gives: the search
        # runs from f(a) when it is nonzero, and along a line otherwise
        f = P(f).to_extended()
        values = {1: LC_ZERO, 2: L("1 + eps")}
        xi = open_shadow_witness(f, dict(values))
        want = open_shadow_witness(f, PointAssignment(values))
        assert xi == want and xi.value == want.value
        with pytest.raises(InvalidInput):
            open_shadow_witness(f, {1: "0", 2: LC_ZERO})

    @given(polys(max_vars=2, max_degree=3, nonzero=True), gaussians(), gaussians())
    @settings(max_examples=50, deadline=None)
    def test_halo_and_nonvanishing(self, f, a1, a2):
        a = PointAssignment(
            {1: LCNumber.from_gaussian(a1), 2: LCNumber.from_gaussian(a2)}
        )
        xi = open_shadow_witness(f.to_extended(), a)
        assert halo_member(xi, a)
        assert poly_eval(f, xi) != LC_ZERO
        assert xi.value == poly_eval(f, xi)


class TestClosureReport:
    def test_mixed_limited_and_unlimited(self):
        rep = verify_shadow_closure([parse_lc("1 + eps"), parse_lc("eps^(-1)")])
        assert rep["lhs"] == ["1"]
        assert rep["rhs"]["reduced_shadow"] == "z1 - 1"
        assert rep["pass"]

    def test_single_infinitesimal(self):
        rep = verify_shadow_closure([parse_lc("eps")])
        assert rep["lhs"] == ["0"]
        assert rep["pass"]

    def test_empty_shadow(self):
        rep = verify_shadow_closure([parse_lc("eps^(-1)")])
        assert rep["lhs"] == []
        assert rep["pass"]

    def test_empty_instance_rejected(self):
        with pytest.raises(InvalidInput):
            verify_shadow_closure([])

    def test_random_battery(self):
        rng = random.Random(5003)
        vals = [Fraction(-2), Fraction(-1), Fraction(0), Fraction(1, 2), Fraction(1), Fraction(2)]
        for _ in range(40):
            roots = []
            for _ in range(rng.randint(1, 4)):
                v = rng.choice(vals)
                c = GaussianRational(rng.randint(-2, 2), rng.randint(-1, 1))
                if not c:
                    c = GaussianRational(1)
                roots.append(LCNumber.term(c, v))
            rep = verify_shadow_closure(roots)
            assert rep["pass"], rep


class TestWholeLineReduction:
    @given(extended_polys(max_vars=1, limited=False, nonzero=True))
    @settings(max_examples=80, deadline=None, derandomize=True)
    def test_identity_on_normalised_polys(self, f):
        # the closure report takes the shadow of its normalised product
        # directly, on this fact
        fn = max_abs_normalize(f)
        assert reduce_on_variety(fn, VarietyPresentation((1,), ())) == (
            VarietyReduction(False, fn, 1)
        )


_ORDERS = [TruncationOrder(Fraction(1, 2)), TruncationOrder(3), TruncationOrder(16)]


@st.composite
def _roots(draw, max_size=4):
    """Instance roots c*eps^v (+ c'*eps^w, w > v): unlimited, appreciable,
    infinitesimal and fractional valuations, complex coefficients, and a
    repeated root about one time in three."""
    valuations = st.sampled_from(
        [Fraction(v) for v in (-2, -1, 0, 0, 1, 2)]
        + [Fraction(-1, 2), Fraction(1, 3), Fraction(1, 2)]
    )
    coeffs = st.builds(
        GaussianRational, st.integers(-3, 3), st.integers(-1, 1)
    ).filter(bool)
    roots = []
    for _ in range(draw(st.integers(1, max_size))):
        v = draw(valuations)
        r = LCNumber.term(draw(coeffs), v)
        if draw(st.booleans()):
            r = r + LCNumber.term(draw(coeffs), v + draw(st.sampled_from([Fraction(1, 2), 1])))
        roots.append(r)
    if draw(st.integers(0, 2)) == 0:
        roots.append(draw(st.sampled_from(roots)))
    return roots


def _report(fn, roots, t):
    try:
        return json.dumps(fn(roots, t))
    except EpsgeomError as e:
        return type(e).__name__, str(e)


def _lifted(fn, f, a, t):
    """The lifted point, its value and their exact terms, or the error."""
    try:
        xi = fn(f, a, t)
    except EpsgeomError as e:
        return type(e).__name__, str(e)
    return json.dumps(
        {
            "point": {"z%d" % v: format_lc(x) for v, x in xi.items()},
            "value": format_lc(xi.value),
            "terms": repr((xi.values, xi.value.terms)),
        }
    )


@st.composite
def _lift_cases(draw):
    """(f, a, t): f = unit * prod (z1 - r) + perturbation, a the shadow of a
    limited root, or a drawn value that is usually no shadow root."""
    roots = draw(_roots(max_size=3))
    coeffs = poly_from_roots(roots)
    if draw(st.booleans()):
        k = draw(st.sampled_from([Fraction(1, 2), 1, 2]))
        coeffs[0] = coeffs[0] + LCNumber.term(draw(gaussians(nonzero=True)), k)
    unit = LCNumber.term(draw(gaussians(nonzero=True)), draw(st.integers(-3, 3)))
    f = Poly(
        EXTENDED,
        {Monomial(((1, k),) if k else ()): unit * c for k, c in enumerate(coeffs) if c},
    )
    limited = [r.standard_part() for r in roots if r.is_limited()]
    if limited and draw(st.integers(0, 3)):
        a = draw(st.sampled_from(limited))
    else:
        a = draw(gaussians())
    return f, a, draw(st.sampled_from(_ORDERS))


class TestClosureAgainstTheReference:
    """The closure report and the lift against their earlier versions, which
    reduced on the whole line and lifted through the public checks."""

    @given(_roots(), st.sampled_from(_ORDERS))
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_reports_match(self, roots, t):
        assert _report(verify_shadow_closure, roots, t) == _report(
            reference_verify_shadow_closure, roots, t
        )

    @given(_lift_cases())
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_lifts_match(self, case):
        f, a, t = case
        assert _lifted(newton_puiseux_lift, f, a, t) == _lifted(
            reference_newton_puiseux_lift, f, a, t
        )

    @pytest.mark.parametrize(
        "roots",
        [
            ["eps"],
            ["eps^(-1)"],
            ["eps^(-1)", "-3*eps^(-2)"],
            ["1 + eps", "1 + eps", "1 - eps"],
            ["i*eps^(1/2)", "-i*eps^(1/2)", "2 + i"],
            ["1/2 + eps^(1/3)", "1/2 - eps^(1/3)", "eps^(-1/2)"],
            [],
        ],
        ids=["infinitesimal", "empty-shadow", "two-unlimited", "repeated", "complex", "fractional", "no-roots"],
    )
    @pytest.mark.parametrize("t", _ORDERS, ids=["order-1/2", "order-3", "order-16"])
    def test_edge_reports(self, roots, t):
        roots = [L(r) for r in roots]
        assert _report(verify_shadow_closure, roots, t) == _report(
            reference_verify_shadow_closure, roots, t
        )

    @pytest.mark.parametrize(
        "f, a",
        [
            ("z1^2 - 2*eps", "0"),
            ("z1^2 - 1", "eps"),
            ("z1*z2 - eps", "0"),
            ("eps + 0*z1", "0"),
            ("(2+i)*eps^(-3)*(z1^2 - 1 - eps^(1/4))", "1"),
            ("eps^2*z1^2 - eps^2", "2"),
        ],
        ids=["non-constructible", "non-standard-a", "bivariate", "constant", "unnormalised", "non-root"],
    )
    @pytest.mark.parametrize("t", _ORDERS, ids=["order-1/2", "order-3", "order-16"])
    def test_edge_lifts(self, f, a, t):
        f, a = P(f), L(a)
        assert _lifted(newton_puiseux_lift, f, a, t) == _lifted(
            reference_newton_puiseux_lift, f, a, t
        )


class TestLiftWork:
    def test_closure_runs_no_pair_loop(self, pair_runs):
        verify_shadow_closure([L("1 + eps"), L("eps^(-1)"), L("-2")])
        verify_shadow_closure([L("eps^(-1)")])
        # the whole-line reduction ran 2 per report
        assert pair_runs == []

    def test_simple_root_solves_its_edges_directly(self, monkeypatch):
        calls = []
        divide_out = gaussian._divide_out

        def counted(coeffs, r):
            calls.append(1)
            return divide_out(coeffs, r)

        monkeypatch.setattr(gaussian, "_divide_out", counted)
        xi = newton_puiseux_lift(P("(z1 - 2)*(z1 + 3) - 3*eps^2"), 2)
        assert xi[1].terms[:2] == ((0, GaussianRational(2)), (2, GaussianRational(Fraction(3, 5))))
        # every Newton step has a linear edge; the candidate check divided
        # out once per step, 8 times here
        assert calls == []

    @staticmethod
    def _products(monkeypatch):
        """The operand pairs of every LCNumber.__mul__ call, each tagged
        with whether it ran inside shadow._lift."""
        products, inside = [], []
        mul, lift = LCNumber.__mul__, shadow._lift

        def counted(a, b):
            products.append((bool(inside), a, b))
            return mul(a, b)

        def traced(*args):
            inside.append(1)
            try:
                return lift(*args)
            finally:
                inside.pop()

        monkeypatch.setattr(LCNumber, "__mul__", counted)
        monkeypatch.setattr(shadow, "_lift", traced)
        return products

    def test_newton_steps_shift_unscaled_coefficients(self, monkeypatch):
        f, g = P("(z1 - 2)*(z1 + 1) - 3*eps"), P("(z1 - 2)*(z1 + 3) - 3*eps^2")
        products = self._products(monkeypatch)
        xi = newton_puiseux_lift(f, 2)
        assert len(xi[1].terms) == 17
        # 16 steps of one 3-product shift each, the first shift by 2, the
        # value u*c[0] and 3 products normalising f; scaling each c[j] by
        # eps^(j*mu) and carrying the scale took 151
        assert len(products) == 55
        products.clear()
        xi = newton_puiseux_lift(g, 2)
        assert xi[1].terms[:2] == ((0, GaussianRational(2)), (2, GaussianRational(Fraction(3, 5))))

        def eps_power(x):
            return isinstance(x, LCNumber) and x.is_term() and x.leading()[1] == 1

        # no step of this lift has gamma = 1, so a coefficient-1 eps power
        # would be a scale factor
        assert not [
            (a, b) for inside, a, b in products if inside and (eps_power(a) or eps_power(b))
        ]


class TestShadowPreservesMembership:
    @given(
        st.lists(polys(max_vars=1, max_degree=2), min_size=1, max_size=2),
        limited_lc(),
    )
    @settings(max_examples=40, deadline=None)
    def test_graph_points(self, phis, x):
        # points (x, phi1(x), phi2(x)) on the graph variety z_{i+1} = phi_i(z1)
        gens = []
        values = {1: x}
        for i, phi in enumerate(phis):
            gens.append(Poly.variable(2 + i) - phi)
            values[2 + i] = poly_eval(phi, PointAssignment({1: x}))
        xi = PointAssignment(values)
        for g in gens:
            assert poly_eval(g, xi) == LC_ZERO
        shadow = point_shadow(xi)
        for g in gens:
            assert poly_eval(g, shadow) == LC_ZERO


class TestMembershipCommutesWithComposition:
    @given(
        polys(max_vars=2, max_degree=2),
        st.lists(polys(max_vars=2, max_degree=2), min_size=2, max_size=2),
        st.lists(limited_lc(), min_size=2, max_size=2),
    )
    @settings(max_examples=40, deadline=None)
    def test_compose_then_eval(self, h, components, values):
        F = {1: components[0], 2: components[1]}
        p = PointAssignment({1: values[0], 2: values[1]})
        composed = compose_polys(h, F)
        image = PointAssignment(
            {1: poly_eval(components[0], p), 2: poly_eval(components[1], p)}
        )
        assert poly_eval(composed, p) == poly_eval(h, image)
        assert (poly_eval(composed, p) == LC_ZERO) == (poly_eval(h, image) == LC_ZERO)


def _rand_qi(rng, nonzero=False):
    while True:
        c = GaussianRational(Fraction(rng.randint(-3, 3), rng.choice((1, 1, 2))), rng.randint(-1, 1))
        if c or not nonzero:
            return c


def _rand_lc(rng, low=-2, terms=2):
    """A sum of up to `terms` terms c*eps^q with q from low to 3, denominators up to 3."""
    x = LC_ZERO
    for _ in range(rng.randint(0, terms)):
        q = Fraction(rng.randint(3 * low, 9), 3)
        x = x + LCNumber.term(_rand_qi(rng), q)
    return x


def _rand_poly(rng, variables, max_degree=3, terms=3, quotients=True):
    """Terms over the variables, with Q(i), LC-sum and now and then quotient
    coefficients; at times zero."""
    f = Poly.zero(EXTENDED)
    for _ in range(rng.randint(1, terms)):
        exps = [(v, rng.randint(1, max_degree)) for v in variables if rng.random() < 0.5]
        kind = rng.random()
        if kind < 0.3:
            c = LCNumber.from_gaussian(_rand_qi(rng))
        elif kind < 0.93 or not quotients:
            c = _rand_lc(rng, low=-1)
        else:
            c = LCFraction(_rand_lc(rng, low=0) + LC_ONE, LC_ONE + LCNumber.eps(rng.choice((1, Fraction(1, 2)))))
        if c:
            f = f + Poly(EXTENDED, {Monomial(exps): c})
    return f


def _line_factor(v, a):
    return Poly.variable(v, EXTENDED) - Poly.constant(a)


def _witness_cases(rng, count):
    """(kind, f, a, seed) for the witness search.  Kinds: 'plain' (any f, a
    and f(a) often nonzero), 'through-a' (f - f(a), so the search runs on the
    lines), 'zero-restriction' (a product of z_v - a_v over two or three
    variables, zero on every coordinate line through a, so the search skips
    those lines), 'eps-roots' (the restriction to the first axis has roots
    at u = 0, eps, 2*eps, ..., so c passes them) and 'errors' (zero f, a
    point that misses a variable)."""
    out = []
    kinds = ["plain", "through-a", "zero-restriction", "zero-restriction", "eps-roots", "errors"]
    for k in range(count):
        kind = kinds[k % len(kinds)]
        n = rng.randint(2, 3) if kind == "zero-restriction" else rng.randint(1, 3)
        ambient = sorted(rng.sample(range(1, 5), n))
        a = PointAssignment({v: _rand_lc(rng, low=rng.choice((-1, 0))) for v in ambient})
        f = _rand_poly(rng, ambient)
        if kind == "through-a":
            try:
                f = f - Poly.constant(poly_eval(f, a))
            except InvalidInput:
                pass  # f(a) is not a finite sum, and the search says so
        elif kind == "zero-restriction":
            g = _rand_poly(rng, ambient, max_degree=2, terms=2, quotients=False) or Poly.constant(LC_ONE)
            f = g
            for v in ambient:
                f = f * _line_factor(v, a[v])
        elif kind == "eps-roots":
            v = ambient[0]
            f = _line_factor(v, a[v]).scale(_rand_lc(rng, low=0) or LC_ONE)
            for c in range(1, rng.randint(2, 4)):
                f = f * _line_factor(v, a[v] + LCNumber.term(GaussianRational(c), 1))
            if len(ambient) > 1 and rng.random() < 0.5:
                f = f * (Poly.variable(ambient[1], EXTENDED) + Poly.constant(_rand_lc(rng)))
        elif kind == "errors":
            if rng.random() < 0.5:
                f = Poly.zero(EXTENDED)
            else:
                f = f + Poly.variable(5, EXTENDED)
        out.append((kind, f, a, rng.randint(0, 3)))
    return out


def _witness(fn, f, a, seed):
    """The witness point, its value and their exact terms, or the error."""
    try:
        xi = fn(f, a, seed)
    except EpsgeomError as e:
        return type(e).__name__, str(e)
    return json.dumps(
        {
            "point": {"z%d" % v: format_lc(x) for v, x in xi.items()},
            "value": format_lc(xi.value),
            "terms": repr((xi.items(), xi.value.terms)),
        }
    )


class TestUnivariateLayerAgainstTheReference:
    """The witness search, the coefficient list and the root split against
    their earlier versions: the search that restricted f to each line by
    substitution, the coefficient dict and the quotient-and-remainder split."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_witnesses_match(self, seed):
        kinds = Counter()
        for kind, f, a, s in _witness_cases(random.Random(9100 + seed), 120):
            got = _witness(open_shadow_witness, f, a, s)
            assert got == _witness(reference_open_shadow_witness, f, a, s), (format_poly(f), a)
            if (standard := f.to_standard()) is not None:
                assert _witness(open_shadow_witness, standard, a, s) == got
            kinds[kind, isinstance(got, str)] += 1
        # every zero-restriction case found a witness off the coordinate
        # lines, the other kinds found witnesses, and the errors kind erred
        assert kinds["zero-restriction", True] == 40
        assert kinds["eps-roots", True] >= 15
        assert kinds["through-a", True] >= 10
        assert kinds["errors", False] == 20
        assert kinds["plain", False] >= 1

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_coefficient_lists_match(self, seed):
        rng = random.Random(9200 + seed)
        for _ in range(60):
            v = rng.randint(1, 2)
            f = _rand_poly(rng, [v] if rng.random() < 0.8 else [1, 2], max_degree=5, terms=4)
            try:
                want = reference_univar_coeffs(f, v)
            except InvalidInput as e:
                with pytest.raises(InvalidInput) as raised:
                    _univar_coeffs(f, v, LC_ZERO)
                assert str(raised.value) == str(e)
                continue
            got = _univar_coeffs(f, v, LC_ZERO)
            assert got == [want.get(k, LC_ZERO) for k in range(max(want, default=0) + 1)]

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_root_splits_match(self, seed):
        rng = random.Random(9300 + seed)
        for _ in range(60):
            roots = [_rand_qi(rng) for _ in range(rng.randint(0, 5))]
            coeffs = poly_from_roots(roots)
            unit = _rand_qi(rng, nonzero=True)
            sh = Poly("standard", {Monomial(((1, k),) if k else ()): unit * c for k, c in enumerate(coeffs) if c})
            if rng.random() < 0.3:
                sh = sh + Poly.constant(_rand_qi(rng, nonzero=True)).to_standard()
            candidates = sorted(
                set(roots[: rng.randint(0, len(roots))] + [_rand_qi(rng) for _ in range(2)]),
                key=lambda c: (c.re, c.im),
            )
            if not sh:
                continue
            got = _collect_roots(sh, 1, candidates)
            assert repr(got) == repr(reference_collect_roots(sh, 1, candidates))
            assert all(isinstance(c, GaussianRational) for c in got[1]) and got[1] != [QI_ZERO]


def _reduction(fn, f, X):
    """The reduction's fields, the result's exact terms included, or the error."""
    try:
        r = fn(f, X)
    except EpsgeomError as e:
        return type(e).__name__, str(e)
    return r.all_of_x, repr(r.poly), r.iterations


class TestReduceAgainstTheReference:
    """reduce_on_variety against the loop that asked the radical question
    before and after normalising, and so refused an unlimited f."""

    # (z1^2) is not radical: a unit multiple of z1 ends the loop with
    # all_of_x after a subtraction
    VARIETIES = [[], ["z1"], ["z1*z2"], ["z1 - z2"], ["z1 - 1", "z2"], ["z1^2"]]

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_reductions_match_where_the_reference_answers(self, seed):
        rng = random.Random(9400 + seed)
        outcomes = Counter()
        for k in range(80):
            X = VarietyPresentation((1, 2), [P(g) for g in rng.choice(self.VARIETIES)])
            f = _rand_poly(rng, (1, 2), quotients=False)
            if k % 2 and X.generators:
                # a multiple of z1 or of a generator and eps-smaller terms,
                # so the loop subtracts a shadow before it ends
                h = X.generators[0] if k % 4 == 1 else Poly.variable(1)
                f = Poly.constant(_rand_lc(rng, low=-1) or LC_ONE) * h + f.scale(LCNumber.eps(2))
            want = _reduction(reference_reduce_on_variety, f, X)
            got = _reduction(reduce_on_variety, f, X)
            if want[0] == "UnlimitedCoefficient":
                assert isinstance(got[0], bool), (format_poly(f), got)
                outcomes["newly answered"] += 1
            else:
                assert got == want, format_poly(f)
                outcomes[got[0], min(got[2], 2)] += 1
        # g after two or more passes, and all_of_x after a subtraction
        assert outcomes["newly answered"] >= 10
        assert outcomes[False, 2] >= 10 and outcomes[True, 1] + outcomes[True, 2] >= 1
