import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _strategies import gaussians
from epsgeom.errors import (
    DuplicateParameter,
    InvalidInput,
    ReservedVariableInUse,
    ZeroDenominator,
    ZeroParameter,
)
from epsgeom.gaussian import GaussianRational
from epsgeom.groebner import Ideal, ideal_member
from epsgeom.levicivita import LCNumber
from epsgeom.parser import parse_lc, parse_poly
from epsgeom.poly import Poly, poly_eval
from epsgeom.shadow import PointAssignment
from epsgeom.varieties import (
    FamilySpec,
    RationalMap,
    build_family,
    domain_witness,
    domain_witness_report,
    family_checks,
    is_point_ideal,
    radical_nullstellensatz,
    variety_identity_check,
)


def std(text):
    return parse_poly(text).to_standard()


def qi(re, im=0):
    return GaussianRational(re, im)


class TestPointIdealExamples:
    def test_recognized(self):
        r = is_point_ideal(Ideal([std("z1 - 1"), std("z2 - i")]))
        assert r.point == PointAssignment(
            {1: LCNumber.from_gaussian(qi(1)), 2: LCNumber.from_gaussian(qi(0, 1))}
        )
        assert r.reason == ""

    def test_not_radical(self):
        r = is_point_ideal(Ideal([std("z1^2")]))
        assert r.point is None
        assert r.reason

    def test_improper(self):
        r = is_point_ideal(Ideal([std("z1 - 1"), std("z1 - 2")]))
        assert r.point is None
        assert r.reason == "improper"

    def test_disguised_point_ideal(self):
        # same ideal as <z1-1, z2-2>, but written with mixed generators
        r = is_point_ideal(Ideal([std("z1 + z2 - 3"), std("z1 - z2 + 1")]))
        assert r.point == PointAssignment(
            {1: LCNumber.from_gaussian(qi(1)), 2: LCNumber.from_gaussian(qi(2))}
        )

    def test_every_element_is_checked_before_a_coordinate_is_read(self):
        # z1 = 2/(1 - 2*eps) is not a finite sum, but the ideal is not a
        # point ideal at all, and the reason says that whatever the order of
        # the basis
        r = is_point_ideal(Ideal([parse_poly("(1 + -2*eps)*z1 - 2"), parse_poly("z2*z2 - (2 + -2*eps)")]))
        assert r.point is None
        assert r.reason == "a basis element is not linear in a single variable"

    @given(st.dictionaries(st.integers(min_value=1, max_value=5), gaussians(), min_size=1, max_size=3))
    @settings(max_examples=40, deadline=None)
    def test_recovers_random_points(self, coords):
        gens = [
            Poly.variable(v) - Poly.constant(a).to_standard() for v, a in coords.items()
        ]
        r = is_point_ideal(Ideal(gens))
        assert r.point is not None
        assert set(r.point.support()) == set(coords)
        for v, a in coords.items():
            assert r.point[v] == LCNumber.from_gaussian(a)


class TestRadicalNullstellensatz:
    def test_square(self):
        assert radical_nullstellensatz(std("z1"), Ideal([std("z1^2")]))

    def test_factor_missing(self):
        J = Ideal([std("z5^3*z7")])
        assert not radical_nullstellensatz(std("z5"), J)
        # oracle: no power of z5 up to 6 lies in J
        power = std("1")
        for _ in range(6):
            power = power * std("z5")
            assert not ideal_member(power, J)

    def test_unit_never_in_proper_radical(self):
        assert not radical_nullstellensatz(std("1"), Ideal([std("z1")]))

    def test_reserved_variable(self):
        with pytest.raises(ReservedVariableInUse):
            radical_nullstellensatz(std("z0"), Ideal([std("z1")]))

    def test_context_invariance(self):
        # adjoining generators in unused variables does not change the answer
        g = std("z1")
        base = Ideal([std("z1^2")])
        widened = Ideal([std("z1^2"), std("z9 - z9")])
        assert radical_nullstellensatz(g, base) == radical_nullstellensatz(g, widened)


class TestVarietyIdentities:
    def test_coordinate_axes(self):
        rep = variety_identity_check(Ideal([std("z1")]), Ideal([std("z2")]))
        assert rep["pass"]

    def test_equal_ideals(self):
        I = Ideal([std("z1*z2 - 1")])
        assert variety_identity_check(I, I)["pass"]

    def test_parallel_lines(self):
        rep = variety_identity_check(Ideal([std("z1")]), Ideal([std("z1 + 1")]))
        assert rep["pass"]

    def test_random_instances(self):
        rng = random.Random(6001)
        pool = ["z1", "z2", "z1 - 1", "z1 + z2", "z2^2", "z1*z2", "z1^2 - z2"]
        for _ in range(10):
            I = Ideal([std(rng.choice(pool)) for _ in range(rng.randint(1, 2))])
            J = Ideal([std(rng.choice(pool)) for _ in range(rng.randint(1, 2))])
            assert variety_identity_check(I, J)["pass"]


class TestDomainWitness:
    def test_grid_point(self):
        phi = RationalMap.from_denominators([std("z1"), std("z1 - 1")])
        w = domain_witness(phi, 2)
        assert w == PointAssignment({1: LCNumber.from_gaussian(qi(2))})

    def test_constant_denominator(self):
        phi = RationalMap.from_denominators([std("1")])
        assert domain_witness(phi, 1) == PointAssignment({})

    def test_zero_denominator(self):
        with pytest.raises(ZeroDenominator):
            domain_witness(RationalMap.from_denominators([Poly.zero("standard")]), 1)

    def test_report_fields(self):
        phi = RationalMap.from_denominators([std("z1"), std("z1 - 1")])
        rep = domain_witness_report(phi, 2)
        assert rep["witness"] == {"z1": "2"}
        assert rep["denominator_values"] == ["2", "1"]
        assert rep["certificate_proper"]
        assert rep["pass"]

    def test_lazy_map(self):
        # component i has denominator z1 - i: any finite truncation has a witness
        def components():
            i = 0
            while True:
                i += 1
                yield (Poly.constant(qi(1)), std("z1") - Poly.constant(qi(i)))

        phi = RationalMap(components())
        for count in (1, 3, 5):
            w = domain_witness(phi, count)
            for _, den in phi.take(count):
                assert poly_eval(den, w) != LCNumber()

    def test_component_indices_start_at_one(self):
        phi = RationalMap.from_denominators([std("z1"), std("z1 - 1"), std("z2")])
        assert phi.take(0) == []
        assert phi.component(3) == (Poly.constant(1), std("z2"))
        for i in (0, -1, -3):
            with pytest.raises(InvalidInput):
                phi.component(i)
        for count in (-1, -5):
            with pytest.raises(InvalidInput):
                phi.take(count)
        assert len(phi.take(3)) == 3

    def test_random_denominators(self):
        rng = random.Random(6002)
        pool = ["z1", "z1 - 1", "z2", "z1 + z2", "z1*z2 - 1", "z2^2 - 3"]
        for _ in range(12):
            dens = [std(rng.choice(pool)) for _ in range(rng.randint(1, 4))]
            phi = RationalMap.from_denominators(dens)
            w = domain_witness(phi, len(dens))
            for den in dens:
                assert poly_eval(den, w) != LCNumber()


class TestBuildFamily:
    def test_single_parameter(self):
        assert [g for g in build_family(FamilySpec([qi(1)]))] == [
            std("z1*z2 - z2 - 1")
        ]

    def test_with_extra_generator(self):
        gens = build_family(FamilySpec([qi(1), qi(2)], include_extra=True))
        assert gens == [
            std("z1*z2 - z2 - 1"),
            std("z1*z3 - 2*z3 - 1"),
            std("z1*z4 - 1"),
        ]

    def test_zero_parameter(self):
        with pytest.raises(ZeroParameter):
            FamilySpec([qi(0)])

    def test_duplicate_parameter(self):
        with pytest.raises(DuplicateParameter):
            FamilySpec([qi(2), qi(2)])


class TestFamilyChecks:
    def test_three_parameters(self):
        rep = family_checks(FamilySpec([qi(1), qi(2), qi(3)]), 5)
        assert rep["proper"]
        assert rep["pole_powers_excluded"]
        assert rep["witness"] == {"z1": "0", "z2": "-1", "z3": "-1/2", "z4": "-1/3"}
        assert rep["witness_verified"]
        assert rep["pass"]

    def test_extra_generator_picks_fresh_pole(self):
        rep = family_checks(FamilySpec([qi(1)], include_extra=True), 3)
        assert rep["witness"] == {"z1": "2", "z2": "1", "z3": "1/2"}
        assert rep["pass"]

    def test_empty_family(self):
        rep = family_checks(FamilySpec([]), 4)
        assert rep["pass"]

    @pytest.mark.parametrize("extra", [False, True])
    def test_one_pair_loop_and_one_reduce_step_per_call(
        self, extra, pair_runs, reduce_runs
    ):
        # is_proper reads the pair loop's leads, and ideal_member on the same
        # Ideal reduces that cached basis
        rep = family_checks(FamilySpec([qi(1), qi(2)], include_extra=extra), 5)
        assert rep["pass"]
        assert (len(pair_runs), len(reduce_runs)) == (1, 1)

    def test_random_parameter_sets(self):
        rng = random.Random(6003)
        for _ in range(8):
            params = []
            while len(params) < rng.randint(1, 3):
                a = qi(rng.randint(-3, 3), rng.randint(-1, 1))
                if a and a not in params:
                    params.append(a)
            spec = FamilySpec(params, include_extra=rng.random() < 0.5)
            rep = family_checks(spec, 4)
            assert rep["pass"], rep
            # the witness really is a common zero of every generator
            witness = {
                int(k[1:]): v for k, v in rep["witness"].items()
            }
            point = PointAssignment(
                {v: parse_lc(x) for v, x in witness.items()}
            )
            for g in build_family(spec):
                assert poly_eval(g, point) == LCNumber()

    def test_one_power_decides_every_power_bound(self):
        rng = random.Random(6004)
        for _ in range(4):
            params = []
            while len(params) < rng.randint(1, 3):
                a = qi(rng.randint(-3, 3), rng.randint(-1, 1))
                if a and a not in params:
                    params.append(a)
            spec = FamilySpec(params, include_extra=rng.random() < 0.5)
            ideal = Ideal(build_family(spec))
            z0 = Poly.variable(spec.pole_variable)
            for bound in range(9):
                every = all(
                    not ideal_member(z0 ** k, ideal) for k in range(1, bound + 1)
                )
                assert family_checks(spec, bound)["pole_powers_excluded"] == every
