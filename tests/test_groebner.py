import functools
import math
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _budgets import IN_PROCESS_S, within
from _oracles import (
    brute_force_kernel,
    brute_force_member,
    brute_force_syzygies,
    cmp_elimination,
    cmp_grevlex,
    cmp_lex,
    is_monic_reduced_basis,
    monomials_upto,
    order_cmp,
    reference_flatness_witness,
    reference_ideal_combine,
    reference_lc_divmod,
    reference_zi_divmod,
)
from _strategies import monomials, polys
from epsgeom import groebner
from epsgeom.errors import EpsgeomError, InvalidInput, ReservedVariableInUse
from epsgeom.gaussian import GaussianRational
from epsgeom.groebner import (
    GREVLEX,
    LEX,
    Ideal,
    Module,
    MonomialOrder,
    buchberger,
    contraction,
    eliminate,
    ideal_combine,
    ideal_member,
    ideal_member_cofactors,
    is_proper,
    module_member,
    module_syzygies,
    normal_form,
    radical_member,
    syzygy_basis,
)
from epsgeom.levicivita import LCFraction, LCNumber
from epsgeom.parser import format_poly, parse_lc, parse_poly
from epsgeom.poly import (
    EXTENDED,
    Monomial,
    Poly,
    _axpy,
    _Layout,
    _Overflow,
    _zi_axpy,
)
from epsgeom.transfer import flatness_witness


def std(text):
    return parse_poly(text).to_standard()


def ext(text):
    return parse_poly(text).to_extended()


def random_std_poly(rng, max_vars=3, max_degree=2, max_terms=3):
    monos = monomials_upto(range(1, max_vars + 1), max_degree)
    acc = Poly.zero("standard")
    for _ in range(rng.randint(1, max_terms)):
        m = rng.choice(monos)
        c = GaussianRational(rng.randint(-3, 3), rng.choice((0, 0, 0, 1, -1)))
        if c:
            acc = acc + Poly("standard", {m: c})
    return acc


def random_ideal(rng, max_gens=3, **kwargs):
    gens = []
    for _ in range(rng.randint(1, max_gens)):
        f = random_std_poly(rng, **kwargs)
        if f:
            gens.append(f)
    return Ideal(gens)


def spoly(f, g, order):
    key = functools.cmp_to_key(order_cmp(order))
    lf = max(f.terms, key=key)
    lg = max(g.terms, key=key)
    lcm = lf.lcm(lg)
    a = Poly(f.domain, {lcm.div(lf): GaussianRational(1) / f.terms[lf]})
    b = Poly(g.domain, {lcm.div(lg): GaussianRational(1) / g.terms[lg]})
    return a * f - b * g


class TestBuchbergerExamples:
    def test_axes(self):
        assert buchberger([std("z1"), std("z2")]) == [std("z1"), std("z2")]

    def test_lex_triangularization(self):
        basis = buchberger([std("z1 - z2"), std("z2 - 1")], LEX)
        assert basis == [std("z1 - 1"), std("z2 - 1")]
        # mutual reduction: both generating sets lie in each other's ideal
        left = Ideal([std("z1 - z2"), std("z2 - 1")], LEX)
        right = Ideal(basis, LEX)
        assert all(ideal_member(g, right) for g in left.generators)
        assert all(ideal_member(g, left) for g in basis)

    def test_zero_ideal(self):
        assert buchberger([]) == []


class TestNormalFormExamples:
    def test_multiple_reduces_to_zero(self):
        assert normal_form(std("z1^2"), Ideal([std("z1")])) == Poly.zero("standard")

    def test_remainder(self):
        assert normal_form(std("z1 + z2"), Ideal([std("z1")])) == std("z2")

    def test_zero_ideal_is_identity(self):
        f = std("z1*z2 - 3")
        assert normal_form(f, Ideal([])) == f


class TestMembershipExamples:
    def test_multiple(self):
        assert ideal_member(std("z1*z2"), Ideal([std("z1")]))

    def test_non_member(self):
        assert not ideal_member(std("z2"), Ideal([std("z1")]))

    def test_unit_ideal(self):
        assert ideal_member(std("1"), Ideal([std("z1"), std("z1 - 1")]))


class TestRadicalExamples:
    def test_square_root(self):
        assert radical_member(std("z1"), Ideal([std("z1^2")]))

    def test_binomial_cube(self):
        # (z1+z2)^3 = z1^3 + 3 z1^2 z2 + 3 z1 z2^2 + z2^3: every term is
        # divisible by z1^2 or z2^2, so the cube is a member by inspection.
        cube = std("z1 + z2") * std("z1 + z2") * std("z1 + z2")
        sq1, sq2 = Monomial([(1, 2)]), Monomial([(2, 2)])
        assert all(sq1.divides(m) or sq2.divides(m) for m in cube.terms)
        assert radical_member(std("z1 + z2"), Ideal([std("z1^2"), std("z2^2")]))

    def test_not_in_radical(self):
        assert not radical_member(std("z1"), Ideal([std("z2")]))

    def test_reserved_variable(self):
        with pytest.raises(ReservedVariableInUse):
            radical_member(std("z0"), Ideal([std("z1")]))
        with pytest.raises(ReservedVariableInUse):
            radical_member(std("z1"), Ideal([std("z0*z1")]))


class TestCombineExamples:
    def test_intersection(self):
        K = ideal_combine("intersection", Ideal([std("z1")]), Ideal([std("z2")]))
        target = Ideal([std("z1*z2")])
        assert all(ideal_member(g, target) for g in K.generators)
        assert all(ideal_member(g, K) for g in target.generators)

    def test_sum(self):
        S = ideal_combine("sum", Ideal([std("z1")]), Ideal([std("z2")]))
        assert list(S.generators) == [std("z1"), std("z2")]

    def test_product(self):
        P = ideal_combine("product", Ideal([std("z1")]), Ideal([std("z2")]))
        assert list(P.generators) == [std("z1*z2")]


class TestCombineAgainstTheReference:
    """ideal_combine, which leaves mixed domains to Module and Poly
    arithmetic, against the one that promoted both generator lists first."""

    @staticmethod
    def _combined(fn, kind, I, J):
        try:
            K = fn(kind, I, J)
        except InvalidInput as e:
            return str(e)
        return K.domain, repr(K.generators), K.order

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_combinations_match(self, seed):
        rng = random.Random(9800 + seed)
        eps = ext("eps")
        mixed = Counter()
        for _ in range(80):
            I, J = (random_ideal(rng, max_gens=2, max_vars=2, max_degree=2) for _ in "IJ")
            if rng.random() < 0.5:
                # one extended side: generators g + eps*z_v, so the mixed
                # lists are not a standard ideal in disguise
                gens = [g + eps * Poly.variable(rng.randint(1, 2)) for g in I.generators]
                I = Ideal(gens)
            if rng.random() < 0.3:
                I, J = J, I
            kind = rng.choice(("sum", "product", "intersection", "union"))
            got = self._combined(ideal_combine, kind, I, J)
            assert got == self._combined(reference_ideal_combine, kind, I, J)
            mixed[kind] += I.domain != J.domain
        assert all(mixed[kind] >= 5 for kind in ("sum", "product", "intersection"))


class TestEliminationExamples:
    def test_parabola_has_no_z2_free_part(self):
        E = eliminate(Ideal([std("z2 - z1^2")]), {2})
        assert list(E.generators) == []

    def test_point_projection(self):
        E = eliminate(Ideal([std("z1 - 1"), std("z2 - 2")]), {2})
        assert list(E.generators) == [std("z1 - 1")]
        # substitution oracle: z2 -> 2 sends the dropped generator into E
        assert ideal_member(std("z1 - 1"), E)

    def test_empty_drop(self):
        I = Ideal([std("z1*z2 - 1")])
        E = eliminate(I, set())
        assert all(ideal_member(g, I) for g in E.generators)
        assert all(ideal_member(g, E) for g in I.generators)


class TestContractionExamples:
    def test_drops_high_variable(self):
        assert list(contraction(Ideal([std("z3 - z1")]), 1).generators) == []

    def test_keeps_low_variable(self):
        C = contraction(Ideal([std("z1 - 1"), std("z2 - 2")]), 1)
        assert list(C.generators) == [std("z1 - 1")]

    def test_full_index_is_identity(self):
        I = Ideal([std("z1 - 1"), std("z2 - 2")])
        C = contraction(I, 2)
        assert all(ideal_member(g, I) for g in C.generators)
        assert all(ideal_member(g, C) for g in I.generators)


class TestProperExamples:
    def test_principal(self):
        assert is_proper(Ideal([std("z1")]))

    def test_unit(self):
        assert not is_proper(Ideal([std("z1"), std("z1 - 1")]))

    def test_zero_ideal(self):
        assert is_proper(Ideal([]))

    @pytest.mark.parametrize(
        "gens",
        [["z1", "eps*z1 - 1 - eps"], ["z1^2 - eps", "z1"], ["(1 + eps)*z1^2 - z2", "z2"]],
    )
    def test_extended(self, gens):
        I = Ideal([ext(g) for g in gens])
        assert is_proper(I) == (not any(g.is_constant() for g in I.groebner_basis()))

    def test_leads_agree_with_the_basis_polys(self):
        # is_proper reads the cached basis's leads, and a scalar run stops at
        # its first unit lead: the basis, the verdict and member's cofactors
        # must be those of the whole run
        rng = random.Random(6017)
        improper = 0
        for _ in range(40):
            gens = list(random_ideal(rng).generators)
            if gens and rng.random() < 0.6:
                gens.append(std("1") - random_std_poly(rng) * gens[0])
            for order in (GREVLEX, LEX):
                basis = Ideal(gens, order).groebner_basis()
                proper = not any(g.is_constant() and g for g in basis)
                assert Ideal(gens, order).is_proper() == proper
                if proper:
                    continue
                improper += 1
                assert basis == [std("1")]
                r = Ideal(gens, order).member([std("3 + z1")])
                total = Poly.zero("standard")
                for c, g in zip(r, gens):
                    total = total + c * g
                assert total == std("3 + z1")
        assert improper >= 20


class TestProperReadsThePairLoop:
    # is_proper reads the leads of the pair loop's Groebner basis and reduces
    # nothing; the first question that needs the reduced basis reduces that
    # cached basis once, so family_checks' is_proper then ideal_member makes
    # one pair-loop run and one reduce step
    CASES = [
        (["z1^2 - z2", "z1*z2 - 1"], True),
        (["z1^2 - z2", "z1*z2 - 1", "z2 - 2"], False),
        (["z1", "z1 - 1"], False),
        (["(1 + eps)*z1^2 - z2", "z2"], True),
        (["z1^2 - eps", "z1"], False),
    ]

    @staticmethod
    def _ideal(gens):
        return Ideal([ext(g) if "eps" in g else std(g) for g in gens])

    @pytest.mark.parametrize("gens,proper", CASES)
    def test_runs_the_pair_loop_once_and_no_reduce_step(
        self, gens, proper, pair_runs, reduce_runs
    ):
        I = self._ideal(gens)
        assert I.is_proper() is proper
        assert is_proper(I) is proper
        assert (len(pair_runs), len(reduce_runs)) == (1, 0)

    @pytest.mark.parametrize("ask", ["groebner_basis", "normal_form", "ideal_member"])
    @pytest.mark.parametrize("gens,proper", CASES)
    def test_a_later_question_reduces_the_cached_basis_once(
        self, gens, proper, ask, pair_runs, reduce_runs
    ):
        f = std("z1^3*z2 - z2^2 + 1")

        def answer(I):
            if ask == "groebner_basis":
                return I.groebner_basis()
            if ask == "normal_form":
                return I.normal_form(f)
            return ideal_member(f, I)

        I = self._ideal(gens)
        assert I.is_proper() is proper
        got = [answer(I), answer(I)]
        assert (len(pair_runs), len(reduce_runs)) == (1, 1)
        assert got == [answer(self._ideal(gens))] * 2

    def test_member_runs_the_tagged_pair_loop_and_reduces_once(
        self, engine_runs, reduce_runs
    ):
        # cofactor rows ride in a tagged run, so member after is_proper runs
        # the pair loop again with tags, as after groebner_basis; is_proper
        # after member reads the tagged run's leads
        gens = [std("z1^2 - z2"), std("z1*z2 - 1")]
        f = std("z1^3 - z1*z2 + z1*z2^2 - z2")
        I = Ideal(gens)
        assert I.is_proper()
        r = I.member([f])
        assert I.is_proper()
        assert engine_runs == [False, True]
        assert len(reduce_runs) == 1
        assert r is not None
        assert r[0] * gens[0] + r[1] * gens[1] == f
        J = Ideal(gens)
        assert J.member([f]) is not None and J.is_proper()
        assert engine_runs == [False, True, True]
        assert len(reduce_runs) == 2

    def test_a_new_target_variable_repacks_the_cached_basis(
        self, pair_runs, reduce_runs
    ):
        gens = [std("z1^3 - z2"), std("z2^2 - z1")]
        f = std("z1^4*z5 + z2*z5^2")
        I = Ideal(gens)
        assert I.is_proper()
        got = I.normal_form(f)
        assert (len(pair_runs), len(reduce_runs)) == (1, 1)
        assert got == Ideal(gens).normal_form(f)
        assert got == std("z1*z2*z5 + z2*z5^2")

    @pytest.mark.parametrize(
        "g,gens,member",
        [
            ("z1 - z2", ["(z1 - z2)^3", "(z1 + 1)^2"], True),
            ("z1 - z2 + 1", ["(z1 - z2)^3", "(z1 + 1)^2"], False),
            ("z1", ["z1^2", "z2 - 1"], True),
            ("z1*z2 - 1", ["z1^2 - z2", "z1*z2 - 1"], True),
        ],
    )
    def test_radical_member_runs_no_reduce_step(
        self, g, gens, member, pair_runs, reduce_runs
    ):
        assert radical_member(std(g), Ideal([std(t) for t in gens])) is member
        assert (len(pair_runs), len(reduce_runs)) == (1, 0)


class TestSyzygyExamples:
    def test_two_variables(self):
        b = syzygy_basis([std("z1"), std("z2")])
        assert [list(beta) for beta in b.generators] == [[std("z2"), std("-z1")]]
        b.check()
        # brute-force degree-3 solutions all lie in the span
        for sol in brute_force_syzygies([std("z1"), std("z2")], 3):
            assert module_member(list(b.generators), sol) is not None

    def test_repeated_generator(self):
        b = syzygy_basis([std("z1"), std("z1")])
        assert [list(beta) for beta in b.generators] == [[std("1"), std("-1")]]

    def test_single_nonzero(self):
        assert syzygy_basis([std("z1")]).generators == ()

    def test_elimination_row_in_one_run(self):
        # a second Buchberger run over rows recorded by the pair loop took
        # 71 s here; read off the one tagged basis it takes well under 1 s
        row = [
            "-2*i*z2^2*z3 - 3*z1*z2",
            "z2*z3^2 - 2*i*z1^2",
            "-2*i*z1*z3 + 1/2",
            "-3*z1^2",
            "-z1*z2*z3 + z2*z3 - 1",
        ]
        expected = [
            [
                "1",
                "0",
                "(6+4*i)*z2^2*z3 - 16*z2*z3 - 6*z2 + 16",
                "(8/3-4*i)*z2^2*z3^2 + z2^2*z3 + 32/3*i*z2*z3^2",
                "(-8+12*i)*z1*z2*z3 - 3*z1*z2 - 32*i*z1*z3 - 3*z2 + 8",
            ],
            [
                "0",
                "1",
                "-8*i*z2*z3^3 - 2*z2*z3^2 + 8*i*z3^2",
                "-16/3*z2*z3^4 - 2/3*i",
                "16*z1*z3^3 + 4*i*z3^2",
            ],
            [
                "0",
                "0",
                "-z2*z3 + z1 + 1",
                "2/3*i*z2*z3^2 - 1/6*z2*z3 - 2/3*i*z3",
                "-2*i*z1*z3 + 1/2*z1 + 1/2",
            ],
            [
                "0",
                "0",
                "z2^2*z3^2 - 2*z2*z3 + 1",
                "-2/3*i*z2^2*z3^3 + 1/6*z2^2*z3^2 + 2/3*i*z2*z3^2",
                "2*i*z1*z2*z3^2 - 1/2*z1*z2*z3 - 2*i*z1*z3 - 1/2*z2*z3 + 1/2",
            ],
            ["0", "0", "0", "z1*z2*z3 - z2*z3 + 1", "-3*z1^2"],
        ]

        order = MonomialOrder.from_name("elimination(z1)")
        b = within(IN_PROCESS_S, lambda: syzygy_basis([std(f) for f in row], order))
        assert [[format_poly(g) for g in beta] for beta in b.generators] == expected


class TestBuchbergerCriterion:
    def test_spolys_reduce_to_zero(self):
        rng = random.Random(4001)
        for _ in range(12):
            I = random_ideal(rng)
            for order in (GREVLEX, LEX):
                basis = buchberger(list(I.generators), order)
                J = Ideal(list(I.generators), order)
                for i in range(len(basis)):
                    for j in range(i + 1, len(basis)):
                        s = spoly(basis[i], basis[j], order)
                        assert normal_form(s, J) == Poly.zero("standard")


class TestMembershipOracle:
    def test_agrees_with_brute_force(self):
        rng = random.Random(4002)
        for _ in range(20):
            I = random_ideal(rng, max_vars=3, max_degree=2)
            f = random_std_poly(rng, max_vars=3, max_degree=2)
            brute = brute_force_member(f, list(I.generators), 4)
            member = ideal_member(f, I)
            if brute:
                assert member
            if member:
                cof = ideal_member_cofactors(f, I)
                assert cof is not None
                recomposed = Poly.zero("standard")
                for h, g in zip(cof, I.generators):
                    recomposed = recomposed + h * g
                assert recomposed == f
            else:
                assert not brute


class TestRadicalOracle:
    def test_agrees_with_power_search(self):
        rng = random.Random(4003)
        for _ in range(15):
            I = random_ideal(rng, max_gens=2, max_vars=2, max_degree=2)
            g = random_std_poly(rng, max_vars=2, max_degree=2)
            power = std("1")
            brute = False
            for _ in range(6):
                power = power * g
                if ideal_member(power, I):
                    brute = True
                    break
            rad = radical_member(g, I)
            if brute:
                assert rad
            if not rad:
                assert not brute


class TestRadicalOfProducts:
    def test_product_and_intersection_share_radical(self):
        rng = random.Random(4004)
        for _ in range(8):
            I = random_ideal(rng, max_gens=2, max_vars=2, max_degree=2)
            J = random_ideal(rng, max_gens=2, max_vars=2, max_degree=2)
            prod = ideal_combine("product", I, J)
            inter = ideal_combine("intersection", I, J)
            for g in prod.generators:
                assert radical_member(g, inter)
            for g in inter.generators:
                assert radical_member(g, prod)


class TestSyzygyProperties:
    def test_exactness_and_span(self):
        rng = random.Random(4005)
        for _ in range(10):
            a = [random_std_poly(rng, max_vars=2, max_degree=2) for _ in range(2)]
            if not any(a):
                continue
            b = syzygy_basis(a)
            b.check()
            for beta in b.generators:
                total = Poly.zero("standard")
                for ai, xi in zip(a, beta):
                    total = total + ai * xi
                assert total == Poly.zero("standard")
            for sol in brute_force_syzygies(a, 2):
                assert module_member(list(b.generators), sol) is not None


class TestModuleSyzygyOracle:
    @pytest.mark.parametrize("domain", ["standard", "extended"])
    def test_kernel_agrees_with_brute_force(self, domain):
        rng = random.Random(4010)
        for shape in ((1, 3), (2, 2), (2, 3)):
            for variant in ("plain", "repeated column", "zero column"):
                rows, cols = shape
                columns = [
                    [
                        random_std_poly(rng, max_vars=2, max_degree=1)
                        for _ in range(rows)
                    ]
                    for _ in range(cols)
                ]
                if variant == "repeated column":
                    columns[-1] = list(columns[0])
                elif variant == "zero column":
                    columns[1] = [Poly.zero("standard") for _ in range(rows)]
                lift = Poly.to_extended if domain == "extended" else Poly.to_standard
                work = [[lift(f) for f in col] for col in columns]
                kernel = module_syzygies(work)
                assert is_monic_reduced_basis(kernel, GREVLEX), (shape, variant)
                for vec in kernel:
                    for pos in range(rows):
                        acc = Poly.zero(domain)
                        for x, col in zip(vec, work):
                            acc = acc + x * col[pos]
                        assert not acc, (shape, variant)
                for sol in brute_force_kernel(columns, 2):
                    target = [lift(f) for f in sol]
                    assert module_member(kernel, target) is not None, (
                        shape,
                        variant,
                    )

    @pytest.mark.parametrize(
        "order", [GREVLEX, LEX, MonomialOrder("elimination", [1])], ids=lambda o: o.name
    )
    @pytest.mark.parametrize("domain", ["standard", "eps"])
    def test_kernel_is_the_monic_reduced_basis(self, order, domain):
        # the one reduced basis of the kernel, checked from its terms: with
        # the span, whatever computes it must give these vectors
        rng = random.Random(4020)
        for shape in ((1, 2), (1, 3), (1, 4), (2, 2), (2, 3)):
            for variant in ("plain", "repeated column", "zero column"):
                rows, cols = shape
                if domain == "eps":
                    columns = [[_small_eps_poly(rng) for _ in range(rows)] for _ in range(cols)]
                else:
                    columns = [
                        [random_std_poly(rng, max_vars=2, max_degree=2) for _ in range(rows)]
                        for _ in range(cols)
                    ]
                if variant == "repeated column":
                    columns[-1] = list(columns[0])
                elif variant == "zero column":
                    columns[1] = [Poly.zero(columns[0][0].domain) for _ in range(rows)]
                kernels = [module_syzygies(columns, order)]
                if rows == 1:
                    beta = syzygy_basis([col[0] for col in columns], order)
                    kernels.append([list(g) for g in beta.generators])
                for kernel in kernels:
                    assert is_monic_reduced_basis(kernel, order), (shape, variant)
                    for vec in kernel:
                        assert not any(_combination(vec, columns)), (shape, variant)
                if domain == "standard":
                    for sol in brute_force_kernel(columns, 2):
                        assert module_member(kernels[0], sol, order) is not None


def _witness_outcome(fn, a, x):
    """The repr of fn(a, x), or the type and message of its error."""
    try:
        return repr(fn(a, x))
    except EpsgeomError as e:
        return type(e), str(e)


def _tagged_run_syzygies(columns, order=GREVLEX):
    """The columns' syzygies from one tagged run, formatted as module_syzygies
    formats them, with no rank certificate tried first."""
    M = Module(columns, order)

    def step():
        layout, rank, kernel = M._layout, M._rank, M._kernel
        G = groebner._buchberger_vec(M._vecs, layout, kernel, rank, syzygies=True)
        rows = [kernel.monic(groebner._split(vec, rank, layout.top)[1]) for vec, _, _ in G]
        return [groebner._vec_to_polys(row, len(columns), M.domain, layout) for row in rows]

    return M._run(step)


class TestRankCertificate:
    """Q(i) matrices take no run when a certificate reads their kernel off
    the columns: square and tall ones whose nonzero columns are independent
    at z_v = v + 2, and m x (m + 1) ones with two coprime maximal minors;
    every kernel must be the tagged run's, term order included."""

    @pytest.mark.parametrize("order", [GREVLEX, LEX], ids=lambda o: o.name)
    @pytest.mark.parametrize("domain", ["standard", "extended"])
    def test_certificate_matches_the_tagged_run(self, order, domain, pair_runs):
        rng = random.Random(4030)
        lift = Poly.to_extended if domain == "extended" else Poly.to_standard
        skipped = Counter()
        # a full-rank 4x3 or 4x4 tagged run under lex can take minutes, the
        # cost the certificate avoids, so the comparison keeps to smaller shapes
        shapes = ((1, 1), (2, 2), (3, 3), (3, 2), (4, 2), (5, 2)) * 2
        for shape in shapes:
            for variant in ("plain", "zero column", "repeated column", "multiple column"):
                rows, cols = shape
                if cols == 1 and variant in ("repeated column", "multiple column"):
                    continue
                columns = [
                    [random_std_poly(rng, max_vars=3, max_degree=2) for _ in range(rows)]
                    for _ in range(cols)
                ]
                if variant == "zero column":
                    columns[rng.randrange(cols)] = [Poly.zero("standard")] * rows
                elif variant == "repeated column":
                    columns[-1] = list(columns[0])
                elif variant == "multiple column":
                    m = random_std_poly(rng, max_vars=3, max_degree=1)
                    columns[-1] = [m * f for f in columns[0]]
                columns = [[lift(f) for f in col] for col in columns]
                runs = len(pair_runs)
                kernel = module_syzygies(columns, order)
                if len(pair_runs) == runs:
                    skipped[variant] += 1
                    # only independent columns, zero ones split off, may skip
                    # the run, and then the kernel is a unit row per zero one
                    zero = sum(not any(col) for col in columns)
                    assert len(kernel) == zero, (shape, variant)
                assert repr(kernel) == repr(_tagged_run_syzygies(columns, order)), (
                    shape,
                    variant,
                )
        # every plain matrix drawn here is independent at the point, and so
        # is the rest of most zero-column ones, so the comparison covers the
        # certificate and not only the fallback
        assert skipped["plain"] == len(shapes)
        assert skipped["zero column"] >= len(shapes) // 2

    @pytest.mark.parametrize(
        "matrix",
        [
            [["z1", "3"], ["1", "1"]],
            [["z1*z2", "z2"], ["3", "1"]],
            [["z1 - 3", "0", "0"], ["0", "z2 - 4", "0"], ["0", "0", "z3 - 5 + i*z1 - 3*i"]],
            [["z1 - 3", "z2"], ["0", "z2 - 4"], ["z1^2 - 9", "z1*z2 - 12"]],
            [["z1^2 - 9"]],
        ],
        ids=["2x2", "2x2-product", "3x3-diagonal", "3x2", "1x1"],
    )
    def test_minors_that_vanish_at_the_point_fall_back(self, matrix, pair_runs):
        # each maximal minor is a nonzero polynomial that vanishes at
        # z = (3, 4, 5), so the certificate fails and the tagged run answers
        columns = [[std(row[j]) for row in matrix] for j in range(len(matrix[0]))]
        assert not groebner._independent_at_point(columns)
        assert module_syzygies(columns) == [] == _tagged_run_syzygies(columns)
        assert len(pair_runs) == 2

    def test_large_exponents_take_no_time(self, pair_runs):
        # the point's powers are taken modulo a prime, so an exponent of
        # 10^9 costs what a small one does; exact powers would hold 1.6e9 bits
        columns = [
            [std("z1^1000000000"), std("z1^1000000000 + z3")],
            [std("z2^3000000000 + 1"), std("z2^30000000000000")],
        ]
        f, g = std("z1^1000000000 + z2"), std("z2^1000000000 + 1")
        # leads that share z1: only a line could certify these minors, and
        # their degree keeps them off it, so the tagged run answers
        h, k = std("z1^1000000000*z2"), std("z1^1000000000*z3 + 1")
        kernels = within(IN_PROCESS_S, lambda: [
            module_syzygies([[std("z1^1000000000")]]),
            module_syzygies(columns),
            module_syzygies([[f], [g]]),
            module_syzygies([[h], [k]]),
        ])
        assert kernels[:3] == [[], [], [[g, -f]]]
        assert len(pair_runs) == 1 and kernels[3] == [[k, -h]]
        # 3^200 is past the prime, so the point's values must have been reduced
        assert all(0 <= x < groebner._P for pair in groebner._at_point([std("z1^200")]) for x in pair)

    def test_eps_columns_keep_the_engine(self, pair_runs):
        # the LCFraction field gets no certificate: it runs the engine
        assert module_syzygies([[ext("eps*z1"), ext("1")], [ext("z2"), ext("eps")]]) == []
        assert len(pair_runs) == 1

    def test_more_columns_than_rows_keep_the_engine(self, pair_runs):
        # a row with coprime entries is certified; one with a shared factor
        # has more columns than rows and no coprime minors, so it runs
        assert module_syzygies([[std("z1")], [std("z2")]]) == [[std("z2"), std("-z1")]]
        assert len(pair_runs) == 0
        assert module_syzygies([[std("z1*z2")], [std("z1*z3")]]) == [[std("z3"), std("-z2")]]
        assert len(pair_runs) == 1

    @pytest.mark.parametrize(
        "order", [GREVLEX, LEX, MonomialOrder("elimination", [1])], ids=lambda o: o.name
    )
    @pytest.mark.parametrize("domain", ["standard", "extended"])
    def test_corank_one_matches_the_tagged_run(self, order, domain, pair_runs, monkeypatch):
        # m x (m + 1) matrices: the row of signed maximal minors when two of
        # them are certified coprime, by their leads or on a line
        on_line = []
        coprime_on_line = groebner._coprime_on_line
        monkeypatch.setattr(
            groebner,
            "_coprime_on_line",
            lambda f, g: on_line.append(coprime_on_line(f, g)) or on_line[-1],
        )
        rng = random.Random(4040)
        lift = Poly.to_extended if domain == "extended" else Poly.to_standard
        skipped, drawn, unverified = Counter(), Counter(), 0
        for shape in ((1, 2), (2, 3), (3, 4)) * 3:
            for variant in ("plain", "zero column", "common factor"):
                rows, cols = shape
                # degree-2 entries in a 2x3 or 3x4 tagged run under lex can
                # take minutes, so those shapes draw linear ones
                degree = 2 if rows == 1 else 1
                columns = [
                    [random_std_poly(rng, max_vars=3, max_degree=degree) for _ in range(rows)]
                    for _ in range(cols)
                ]
                if variant == "zero column":
                    columns[rng.randrange(cols)] = [Poly.zero("standard")] * rows
                elif variant == "common factor":
                    m = random_std_poly(rng, max_vars=3, max_degree=1)
                    while not m.support():
                        m = random_std_poly(rng, max_vars=3, max_degree=1)
                    columns = [[m * f for f in col] for col in columns]
                columns = [[lift(f) for f in col] for col in columns]
                runs = len(pair_runs)
                drawn[variant] += 1
                # a fallback or reference run past its alarm leaves the draw
                # unverified; a certified answer takes milliseconds
                try:
                    kernel = within(2, lambda: module_syzygies(columns, order))
                    if len(pair_runs) == runs:
                        skipped[variant] += 1
                        # a common factor divides every minor: never certified
                        assert variant != "common factor", (shape, columns)
                    reference = within(2, lambda: _tagged_run_syzygies(columns, order))
                except TimeoutError:
                    unverified += 1
                    continue
                assert repr(kernel) == repr(reference), (shape, variant)
        # every plain draw here has two coprime minors and skips the run, and
        # both tests of coprimality certify some of them
        assert skipped["plain"] == drawn["plain"]
        assert skipped["zero column"] > 0 and True in on_line
        assert unverified <= 2

    @pytest.mark.parametrize(
        "row",
        [
            ["2*z1*z3 + z2*z3", "2*z1*z3 - z2*z3"],
            ["3*z1^2 + 3*z1", "-3*z1^2 - z3"],
            ["3*z1^2 - 2*z1*z2 + z1", "3*z1*z2 - 2*z2^2 + z2"],
        ],
        ids=["shared-factor", "common-zero-on-the-line", "factor-constant-on-the-line"],
    )
    def test_uncertified_rows_fall_back(self, row, pair_runs):
        # the first row's minors share z3; the second's are coprime, but
        # their restrictions to the line share a root; the third's share
        # 3*z1 - 2*z2 + 1, which is 2 on the line, so their restrictions are
        # coprime and only their lost top degree keeps them uncertified
        columns = [[std(f)] for f in row]
        assert repr(module_syzygies(columns)) == repr(_tagged_run_syzygies(columns))
        assert len(pair_runs) == 2

    def test_lex_zero_column_within_budget(self, pair_runs):
        # a zero first column and three columns independent at the point:
        # the tagged lex run took past 60 s
        matrix = [
            ["0", "-z1^2 + (-2-i)*z3", "-z1^2 + (3+2*i)*z2^2", "(-3-i)*z1*z2 - 2*z2*z3 - 3*z1"],
            ["0", "(-3+i)*z1*z2 + 2*z1*z3 + (1-i)*z3", "-3*z3^2", "-i*z1*z3 - 2*z3 - 3-i"],
            ["0", "(-1+i)*z3", "2*z2^2 + (-3-i)*z1*z3", "3*z1^2 + z2^2 - 2*z2*z3"],
            ["0", "(1+i)*z1^2", "(1-i)*z1^2 - 1-i", "-2*z1^2"],
        ]
        columns = [[std(row[j]) for row in matrix] for j in range(4)]
        kernel = within(IN_PROCESS_S, lambda: module_syzygies(columns, LEX))
        assert [[format_poly(g) for g in v] for v in kernel] == [["1", "0", "0", "0"]]
        assert len(pair_runs) == 0

    @pytest.mark.parametrize("seed", range(3))
    def test_flatness_witness_on_certified_rows(self, seed, pair_runs):
        # cofactors over the row of minors, against a Module.member run on
        # syzygy_basis; a solution gets eps and polynomial multipliers, and
        # about one x in three is not a solution
        rng = random.Random(4050 + seed)
        certified = 0
        for _ in range(10):
            a = [random_std_poly(rng, max_vars=3, max_degree=2) for _ in range(2)]
            s = random_std_poly(rng, max_vars=2, max_degree=1).to_extended()
            s = s * Poly.constant(LCNumber.eps(rng.randint(0, 2)))
            x = [s * a[1].to_extended(), -s * a[0].to_extended()]
            if rng.random() < 0.3:
                x[0] = x[0] + ext("z%d" % rng.randint(1, 3))
            runs = len(pair_runs)
            got = _witness_outcome(flatness_witness, a, x)
            certified += len(pair_runs) == runs
            assert got == _witness_outcome(reference_flatness_witness, a, x), (a, x)
        assert certified >= 8


class TestDeterminism:
    def test_shuffle_invariance(self):
        rng = random.Random(4006)
        for _ in range(8):
            I = random_ideal(rng)
            gens = list(I.generators)
            reference = buchberger(gens)
            for _ in range(3):
                shuffled = gens[:]
                rng.shuffle(shuffled)
                assert buchberger(shuffled) == reference

    def test_repeat_runs_are_identical(self):
        gens = [std("z1^2 - z2"), std("z1*z2 - 1")]
        first = buchberger(gens, LEX)
        assert all(buchberger(gens, LEX) == first for _ in range(3))


class TestExtendedDomain:
    def test_unit_scaled_axes(self):
        basis = buchberger([ext("(1 + eps)*z1"), ext("eps*z2")])
        assert basis == [ext("z1"), ext("z2")]

    def test_stable_under_field_extension(self):
        rng = random.Random(4007)
        for _ in range(8):
            I = random_ideal(rng, max_gens=2, max_vars=2, max_degree=2)
            lifted = buchberger([g.to_extended() for g in I.generators])
            assert lifted == [g.to_extended() for g in buchberger(list(I.generators))]

    @pytest.mark.parametrize(
        "order", [GREVLEX, LEX, MonomialOrder("elimination", {1})], ids=lambda o: o.name
    )
    def test_cleared_basis_leads_are_one_plus_infinitesimal(self, order):
        # each monic reduced basis here has LCFraction coefficients, so
        # clearing its denominators scales it; the scale must leave every
        # lead coefficient, under the ideal's order, with eps^0 term 1
        key = functools.cmp_to_key(order_cmp(order))
        for text in (
            "z1 - eps; (1 + eps)*z2 - 1",
            "eps*z1^2 + z2; (1 + eps)*z1*z2 - 1",
            "(1 + eps)*z1 - z2; (2 + eps^(1/2))*z2^2 - z1",
        ):
            basis = Ideal([ext(t) for t in text.split(";")], order).groebner_basis()
            leads = [g.terms[max(g.terms, key=key)] for g in basis]
            assert all(c.leading() == (0, 1) for c in leads)
            assert any(c != 1 for c in leads)

    def test_extended_membership(self):
        I = Ideal([ext("z1 + eps*z2")])
        assert ideal_member(ext("z1*z2 + eps*z2^2"), I)
        assert not ideal_member(ext("z1"), I)


class TestIdealCache:
    def test_basis_is_cached_and_stable(self):
        I = Ideal([std("z1^2 - z2"), std("z2^2 - z1")])
        first = I.groebner_basis()
        assert I.groebner_basis() == first
        assert buchberger(list(I.generators)) == first

    def test_contains_matches_normal_form(self):
        I = Ideal([std("z1 - z2")])
        assert I.contains(std("z1^2 - z2^2"))
        assert I.normal_form(std("z1")) == I.normal_form(std("z2"))

    @pytest.mark.parametrize(
        "gens, f",
        [
            (["z1^2 - z2", "z2^2 - z1"], "z1^3 - z1*z2"),
            (["z1^2 - eps*z2", "z2^2 - z1"], "z1^3 - eps*z1*z2"),
        ],
    )
    def test_basis_after_member_is_untagged(self, gens, f):
        parse = ext if "eps" in f else std
        I = Ideal([parse(g) for g in gens])
        assert I.member([parse(f)]) is not None
        assert I.groebner_basis() == Ideal([parse(g) for g in gens]).groebner_basis()


@pytest.fixture
def engine_runs(monkeypatch):
    """Whether each pair-loop run carried cofactor tags, in call order."""
    runs = []
    engine = groebner._buchberger_pairs

    def counted(vecs, layout, kernel, rank=None, syzygies=False):
        runs.append(rank is not None)
        return engine(vecs, layout, kernel, rank, syzygies)

    monkeypatch.setattr(groebner, "_buchberger_pairs", counted)
    return runs


class TestModule:
    def test_member_runs_buchberger_once(self, engine_runs):
        M = Module([[std("z1"), std("z2")], [std("z2"), std("0")]])
        targets = [
            [std("z1*z2"), std("z2^2")],
            [ext("eps*z2"), ext("0")],
            [std("1"), std("0")],
        ]
        assert M.member(targets[0]) is not None
        assert M.member(targets[1]) is not None
        assert M.member(targets[2]) is None
        assert engine_runs == [True]

    def test_ideal_basis_skips_cofactor_rows(self, engine_runs):
        I = Ideal([std("z1^2 - z2"), std("z1*z2")])
        I.groebner_basis()
        I.normal_form(std("z1^3"))
        I.normal_form(ext("eps*z1^3"))
        assert engine_runs == [False]

    @pytest.mark.parametrize("order", [GREVLEX, LEX], ids=lambda o: o.name)
    def test_extended_target_matches_extended_columns(self, order):
        rng = random.Random(4011)
        unit = ext("1 + eps")
        for _ in range(10):
            cols = [
                [random_std_poly(rng), random_std_poly(rng)]
                for _ in range(rng.randint(1, 3))
            ]
            ext_cols = [[f.to_extended() for f in c] for c in cols]
            mults = [random_std_poly(rng, max_degree=1).to_extended() * unit for _ in cols]
            inside = [
                sum((m * c[i] for m, c in zip(mults, ext_cols)), Poly.zero("extended"))
                for i in range(2)
            ]
            outside = [random_std_poly(rng).to_extended() * unit for _ in range(2)]
            M, M_ext = Module(cols, order), Module(ext_cols, order)
            assert M.member(inside) is not None
            for target in (inside, outside):
                assert M.member(target) == M_ext.member(target)

    @pytest.mark.parametrize("order", [GREVLEX, LEX], ids=lambda o: o.name)
    def test_extended_cofactors_match_extended_ideal(self, order):
        rng = random.Random(4012)
        for _ in range(10):
            I = random_ideal(rng)
            I = Ideal(I.generators, order)
            J = Ideal([g.to_extended() for g in I.generators], order)
            inside = sum(
                (random_std_poly(rng, max_degree=1) * g for g in I.generators),
                Poly.zero("standard"),
            )
            for f in (inside, random_std_poly(rng)):
                f = ext("eps") * f.to_extended()
                assert ideal_member_cofactors(f, I) == ideal_member_cofactors(f, J)
                assert I.normal_form(f) == J.normal_form(f)

    def test_target_length_must_match_the_columns(self):
        M = Module([[std("z1"), std("0")]])
        assert M.member([std("z1"), std("0")]) == [std("1")]
        for target in ([std("z1")], [std("z1"), std("0"), std("0")], []):
            with pytest.raises(InvalidInput):
                M.member(target)
        with pytest.raises(InvalidInput):
            module_member([[std("z1"), std("0")]], [ext("z1")])

    def test_columns_must_have_one_length(self):
        with pytest.raises(InvalidInput):
            Module([[std("z1"), std("0")], [std("z2")]])

    def test_empty_module(self):
        M = Module([])
        assert M.member([std("0"), std("0")]) == []
        assert M.member([ext("0")]) == []
        assert M.member([std("z1"), std("0")]) is None
        assert M.member([ext("eps")]) is None
        assert M.syzygies() == ()


def _mono(text):
    (m,) = std(text).terms
    return m


class TestOrderKeys:
    """Each order's packed layout must sort exactly like the reference comparator."""

    ORDERS = [
        pytest.param(order, cmp, id=order.name)
        for order, cmp in (
            (GREVLEX, cmp_grevlex),
            (LEX, cmp_lex),
            (MonomialOrder("elimination", {2, 4}), cmp_elimination({2, 4})),
        )
    ]
    # z1 < z1*z2 in every order here: a term below its multiples
    PREFIX_PAIRS = [
        ("1", "z1"),
        ("z1", "z1*z2"),
        ("z1^2", "z1^2*z3"),
        ("z2", "z2*z5^3"),
        ("z1*z2", "z1*z2*z4"),
    ]

    def _random_monomials(self, rng, count=60):
        out = []
        for _ in range(count):
            k = rng.randint(0, 4)
            out.append(Monomial([(rng.randint(1, 5), rng.randint(1, 4)) for _ in range(k)]))
        return out

    def _monomial_sets(self, order):
        rng = random.Random(order.name)
        sets = [self._random_monomials(rng) for _ in range(10)]
        return sets + [[_mono(t) for pair in self.PREFIX_PAIRS for t in pair]]

    @pytest.mark.parametrize("order, cmp", ORDERS)
    def test_key_sort_matches_cmp_sort(self, order, cmp):
        # degrees here are at most 16, below the 6-bit fields' guard bits
        layout = _Layout(order.kind, order.block, range(1, 6), 6)
        for mons in self._monomial_sets(order):
            by_key = sorted(mons, key=lambda m: layout.term(0, m))
            by_cmp = sorted(mons, key=functools.cmp_to_key(cmp))
            assert by_key == by_cmp
            for m, n in zip(by_key, by_key[1:]):
                assert cmp(m, n) <= 0

    @pytest.mark.parametrize("args", [("revlex",), ("lex", [1])], ids=["revlex", "lex-block"])
    def test_unknown_kind_and_stray_block_are_refused(self, args):
        with pytest.raises(InvalidInput):
            MonomialOrder(*args)

    @pytest.mark.parametrize("name", ["elimination(z\u00b2)", "elimination(\u00b2)"])
    def test_a_non_decimal_digit_is_a_bad_block_variable(self, name):
        # str.isdigit() is true for a superscript two, which int() refuses
        with pytest.raises(InvalidInput, match="bad block variable"):
            MonomialOrder.from_name(name)


PACKING_ORDERS = [
    GREVLEX,
    LEX,
    MonomialOrder("elimination", [2, 4]),
    MonomialOrder("elimination", [1, 3]),
]

packing_monomials = st.dictionaries(
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=1, max_value=9),
    max_size=5,
).map(lambda exps: Monomial(exps.items()))


class TestPackedTerms:
    @pytest.mark.parametrize("order", PACKING_ORDERS, ids=lambda o: o.name)
    @settings(max_examples=150, deadline=None)
    @given(
        m=packing_monomials,
        n=packing_monomials,
        p=st.integers(min_value=0, max_value=3),
        q=st.integers(min_value=0, max_value=3),
    )
    def test_packing_matches_monomials(self, order, m, n, p, q):
        layout = _Layout(order.kind, order.block, range(1, 6), groebner._START_WIDTH)
        key = functools.cmp_to_key(order_cmp(order))
        pm, pn = layout.term(0, m), layout.term(0, n)
        assert (pm < pn) == (key(m) < key(n))
        assert (pm == pn) == (m == n)
        assert (not (pm - pn) & layout.guard) == n.divides(m)
        assert layout.divides(pn, pm) == n.divides(m)
        assert layout.split(pm) == (0, m)
        assert layout.split(layout.term(p, m.mul(n)))[1].deg == m.deg + n.deg
        assert layout.split(layout.term(p, m)) == (p, m)
        assert layout.term(0, m.mul(n)) == pm + pn
        assert layout.term(p, m.mul(n)) == layout.term(p, m) + pn
        assert layout.lcm(pm, pn) == layout.term(0, m.lcm(n))
        if p != q:
            assert (layout.term(p, m) > layout.term(q, n)) == (p < q)
            assert not layout.divides(layout.term(q, n), layout.term(p, m))

    def test_sum_past_the_field_width_is_caught(self):
        layout = _Layout("grevlex", (), [1, 2], 3)
        x = layout.term(0, _mono("z1^2"))
        assert not x & layout.guard
        assert (x + x) & layout.guard
        with pytest.raises(_Overflow):
            layout.term(0, _mono("z1^4"))

    def test_every_new_term_is_checked(self):
        layout = _Layout("lex", (), [1, 2], 3)
        z1, z2_3 = layout.term(0, _mono("z1")), layout.term(0, _mono("z2^3"))
        with pytest.raises(_Overflow):
            layout.lcm(layout.term(0, _mono("z1^3")), z2_3)
        for kernel in (groebner._ZiKernel, groebner._LcKernel):
            one = kernel.one
            with pytest.raises(_Overflow):
                kernel.axpy({}, one, z1, {z2_3: one}, layout.guard)
            # z1^3 fits, and so does the lead product z1^2 * z1, but not z1^2 * z2^3
            with pytest.raises(_Overflow):
                groebner._divmod(
                    {layout.term(0, _mono("z1^3")): one},
                    [kernel.element({z1: one, z2_3: kernel.times(one, -1)}, z1)],
                    layout,
                    kernel,
                )


def _engine_outputs(rng):
    """Basis, normal forms, syzygies, kernels and member cofactors, formatted."""
    out = []
    unit = ext("1 + eps")
    for _ in range(6):
        for lift in (lambda f: f, lambda f: f.to_extended() * unit):
            gens = [
                lift(random_std_poly(rng, max_degree=3))
                for _ in range(rng.randint(1, 3))
            ]
            gens = [g for g in gens if g] or [lift(std("z1^3 - z2"))]
            for order in (GREVLEX, LEX):
                I = Ideal(gens, order)
                out.append([format_poly(g) for g in buchberger(gens, order)])
                f = lift(random_std_poly(rng, max_degree=3) * std("z1*z4^2"))
                out.append(format_poly(I.normal_form(f)))
            syz = syzygy_basis(gens).generators
            out.append([[format_poly(x) for x in v] for v in syz])
            cols = [
                [lift(random_std_poly(rng, max_degree=3)) for _ in range(2)]
                for _ in range(2)
            ]
            out.append([[format_poly(x) for x in v] for v in module_syzygies(cols)])
            inside = [cols[0][i] * std("z2^2") + cols[1][i] for i in range(2)]
            outside = [lift(random_std_poly(rng, max_degree=3)) for _ in range(2)]
            for target in (inside, outside):
                r = Module(cols).member(target)
                out.append(None if r is None else [format_poly(x) for x in r])
    return out


class TestWidening:
    def test_narrow_start_width_gives_the_same_outputs(self, monkeypatch):
        wide = _engine_outputs(random.Random(4013))
        monkeypatch.setattr(groebner, "_START_WIDTH", 3)
        M = Module([[std("z1^2*z2 - z3")]])
        assert M.member([std("z1^4*z2^2 - z3^2")]) is not None
        assert M._layout.width > 3
        I = Ideal([std("z1 - z2^3")], LEX)
        assert I.normal_form(std("z1^3")) == std("z2^9")
        assert _engine_outputs(random.Random(4013)) == wide

    def test_huge_exponent(self):
        z1_big = Poly("standard", {Monomial([(1, 2**40)]): GaussianRational(1)})
        big = z1_big - std("z2")
        basis = buchberger([big, std("z2 - 1")], LEX)
        assert basis == [z1_big - std("1"), std("z2 - 1")]
        assert Ideal(basis, LEX).contains(z1_big * std("z2") - std("z2"))

    def test_new_target_variable_reuses_the_cached_basis(self, engine_runs):
        M = Module([[std("z1"), std("z2")], [std("z2"), std("0")]])
        assert M.member([std("z1*z2"), std("z2^2")]) is not None
        assert M.member([std("z1*z5"), std("z2*z5")]) is not None
        assert M.member([std("z7"), std("0")]) is None
        assert engine_runs == [True]


# --- the field each Module runs its engine over -------------------------------


def _basis_vecs(M):
    """M's cached reduced basis, tags dropped, each element monic, as field values."""
    top = M._layout.top
    return [M._kernel.monic(groebner._split(vec, M._rank, top)[0]) for vec, _, _ in M._gb]


def _with_basis(M, rank):
    """Cache M's basis, tagged with its cofactor rows, through a member call."""
    M.member([Poly.zero(M.domain)] * rank)


def _basis_polys(M):
    """M's reduced basis, each element as a list of Poly in M's domain."""
    rank = len(M.columns[0])
    _with_basis(M, rank)
    return [
        groebner._vec_to_polys(vec, rank, M.domain, M._layout) for vec in _basis_vecs(M)
    ]


def _lifted(value):
    if value is None:
        return None
    if isinstance(value, Poly):
        return value.to_extended()
    return [_lifted(v) for v in value]


def _refuse(*_):
    raise AssertionError("LCFraction arithmetic on eps-free data")


# Where the fraction-free Z[i] kernel and the dividing one part ways:
# coefficients with denominators up to 7, non-unit Gaussian-integer leads such
# as 2+i, and zero and repeated columns.
_field_parts = st.fractions(min_value=-7, max_value=7, max_denominator=7)
_field_coeffs = st.one_of(
    st.builds(GaussianRational, _field_parts, _field_parts),
    st.sampled_from(
        [GaussianRational(a, b) for a, b in ((2, 1), (1, -2), (3, 2), (1, 1), (0, 2), (-3, 0))]
    ),
)


@st.composite
def _field_polys(draw, max_terms=2):
    acc = Poly.zero("standard")
    for _ in range(draw(st.integers(min_value=0, max_value=max_terms))):
        m = draw(monomials(max_vars=3, max_degree=2))
        acc = acc + Poly("standard", {m: draw(_field_coeffs)})
    return acc


@st.composite
def _qi_modules(draw):
    rank = draw(st.integers(min_value=1, max_value=2))
    ncols = draw(st.integers(min_value=1, max_value=3))
    cols = [[draw(_field_polys()) for _ in range(rank)] for _ in range(ncols)]
    if draw(st.booleans()):
        cols.insert(draw(st.integers(0, ncols)), [Poly.zero("standard")] * rank)
    if draw(st.booleans()):
        cols.append(list(draw(st.sampled_from(cols))))
    mults = [draw(polys(max_vars=2, max_degree=1, max_terms=2)) for _ in cols]
    inside = [
        sum((m * c[i] for m, c in zip(mults, cols)), Poly.zero("standard"))
        for i in range(rank)
    ]
    other = [draw(_field_polys(max_terms=3)) for _ in range(rank)]
    order = draw(
        st.sampled_from(
            [
                GREVLEX,
                LEX,
                MonomialOrder("elimination", [1]),
                MonomialOrder("elimination", [2, 3]),
            ]
        )
    )
    return cols, order, [inside, other]


def _dividing(M):
    """M, its engine moved onto the LCFraction kernel, which divides.

    M must be extended, so that its targets take the same route.
    """
    M._field, M._kernel, M._field_columns = EXTENDED, groebner._LcKernel, M.columns
    return M


def _remainder(M, target):
    """target's remainder against M's basis, as extended Polys."""

    def step():
        _, rem, _ = M._reduce(target, cofactors=False)
        return groebner._vec_to_polys(rem, len(target), EXTENDED, M._layout)

    return M._run(step, target)


class TestFieldChoice:
    @given(_qi_modules())
    @settings(max_examples=40, deadline=None)
    def test_eps_free_extended_module_runs_over_qi(self, drawn):
        cols, order, targets = drawn
        M = Module(cols, order)
        want_basis = _lifted(_basis_polys(M))
        want_syz = _lifted([list(v) for v in M.syzygies()])
        want_members = [_lifted(M.member(t)) for t in targets]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(LCFraction, "__mul__", _refuse)
            mp.setattr(LCFraction, "__truediv__", _refuse)
            E = Module(_lifted(cols), order)
            basis = _basis_polys(E)
            syz = [list(v) for v in E.syzygies()]
            members = [E.member(_lifted(t)) for t in targets]
            assert [E.member(t) for t in targets] == members
        assert basis == want_basis
        assert syz == want_syz
        assert members == want_members
        for out in basis + syz + [r for r in members if r is not None]:
            assert all(f.domain == "extended" for f in out)

    @given(_qi_modules())
    @settings(max_examples=40, deadline=None)
    def test_fraction_free_kernel_matches_the_dividing_kernel(self, drawn):
        cols, order, targets = drawn
        M = Module(cols, order)
        L = _dividing(Module(_lifted(cols), order))
        assert M._kernel is groebner._ZiKernel
        assert _lifted(_basis_polys(M)) == _basis_polys(L)
        assert _lifted([list(v) for v in M.syzygies()]) == [list(v) for v in L.syzygies()]
        for t in targets:
            assert _lifted(M.member(t)) == L.member(_lifted(t))
            assert _remainder(M, t) == _remainder(L, _lifted(t))
        if len(cols[0]) == 1:
            gens = [c[0] for c in cols]
            I, J = Ideal(gens, order), _dividing(Ideal(_lifted(gens), order))
            assert _lifted(I.groebner_basis()) == J.groebner_basis()
            for t in targets:
                assert I.normal_form(t[0]).to_extended() == J.normal_form(t[0].to_extended())

    @pytest.mark.parametrize(
        "gens, f, order",
        [
            (["2*z2 - 3-3/5*i"], "3*z2^3 + 3*z1*z2 + (1+i)*z1", GREVLEX),
            (
                ["(2+i)*z2 - 7/3+1/7*i"],
                "7/5*z1*z2 + z1 + (2-i)*z2",
                MonomialOrder("elimination", [1]),
            ),
            (
                ["z2^2 + (-3/2-1/2*i)*z1", "4*z1^2 + (7+1/6*i)*z1"],
                "(7/3-i)*z1*z2^2 + (2-i)*z1*z2 + 2",
                MonomialOrder("elimination", [2, 3]),
            ),
        ],
        ids=["grevlex", "elimination(z1)", "elimination(z2,z3)"],
    )
    def test_remainder_kept_through_a_rescaled_reduction(self, gens, f, order):
        # terms reach the remainder, a later step scales the rest, and one
        # after that takes a factor shared with the multiplier back out
        gens, f = [std(g) for g in gens], std(f)
        I, J = Ideal(gens, order), _dividing(Ideal(_lifted(gens), order))
        assert I.normal_form(f).to_extended() == J.normal_form(f.to_extended())

    @given(_qi_modules())
    @settings(max_examples=30, deadline=None)
    def test_cached_basis_is_primitive_and_tied_to_its_rows(self, drawn):
        cols, order, _ = drawn
        rank = len(cols[0])
        bare = Module(cols, order)
        G = bare._run(bare._basis_for)
        M = Module(cols, order)
        _with_basis(M, rank)
        assert [lead for _, lead, _ in M._gb] == [lead for _, lead, _ in G]
        # primitive over all terms, the tags included
        for vec, _, _ in G + M._gb:
            assert math.gcd(*(x for pair in vec.values() for x in pair)) == 1
        # column part = -(tag part) . columns, over Z[i]
        exit = M._kernel.exit
        for vec, _, _ in M._gb:
            part, tags = groebner._split(vec, rank, M._layout.top)
            r = groebner._vec_to_polys(exit(tags, 1), len(cols), "standard", M._layout)
            lhs = groebner._vec_to_polys(exit(part, 1), rank, "standard", M._layout)
            rhs = _combination(r, cols)
            assert lhs == [(-f).to_standard() for f in rhs]


def _embedded_reduce(M, target):
    """The LCFraction path: target reduced by M's Q(i) basis embedded in LC.

    Returns (remainder, cofactor row or None) as lists of extended Poly.
    """

    def embed(vec):
        return {x: LCFraction(LCNumber.from_gaussian(c)) for x, c in vec.items()}

    _with_basis(M, len(target))

    def step():
        lc = groebner._LcKernel
        # each tagged element made monic, its tags with it: the target's
        # reduction then leaves its cofactor row in the remainder's tags
        layout = M._layout
        m, rem = groebner._divmod(
            lc.entry(target, layout)[0],
            [lc.element(embed(M._kernel.monic(vec)), lead) for vec, lead, _ in M._gb],
            layout,
            lc,
        )
        assert m == 1
        rem, tags = groebner._split(rem, M._rank, layout.top)
        row = None
        if not rem:
            row = groebner._vec_to_polys(tags, len(M.columns), EXTENDED, layout)
        return groebner._vec_to_polys(rem, len(target), EXTENDED, layout), row

    return M._run(step, target)


def _random_lc(rng):
    exps = [0, 1, 2, -1, -2, Fraction(1, 2), Fraction(-1, 3), Fraction(5, 3)]
    acc = LCNumber()
    for _ in range(rng.randint(1, 3)):
        c = GaussianRational(rng.randint(-3, 3), rng.choice((0, 1, -1)))
        acc = acc + LCNumber.term(c, rng.choice(exps))
    return acc


def _random_eps_poly(rng):
    acc = Poly.zero(EXTENDED)
    for _ in range(rng.randint(1, 3)):
        m = rng.choice(monomials_upto(range(1, 4), 2))
        acc = acc + Poly(EXTENDED, {m: _random_lc(rng)})
    return acc


def _combination(r, cols):
    rank = len(cols[0]) if cols else 0
    return [
        sum((ri * c[i] for ri, c in zip(r, cols)), Poly.zero(EXTENDED))
        for i in range(rank)
    ]


class TestEpsSlices:
    """Slice-by-slice reduction of eps targets against the embedded basis."""

    @pytest.mark.parametrize(
        "order", [GREVLEX, LEX, MonomialOrder("elimination", [2])], ids=lambda o: o.name
    )
    def test_member_matches_the_embedded_basis(self, order):
        rng = random.Random(4017)
        for _ in range(12):
            rank = rng.randint(1, 2)
            cols = [
                [random_std_poly(rng) for _ in range(rank)]
                for _ in range(rng.randint(1, 3))
            ]
            M = Module(cols, order)
            ext_cols = _lifted(cols)
            mults = [_random_eps_poly(rng) for _ in cols]
            inside = _combination(mults, ext_cols)
            outside = [_random_eps_poly(rng) for _ in range(rank)]
            for target in (inside, outside):
                _, row = _embedded_reduce(M, target)
                r = M.member(target)
                assert r == row
                if r is not None:
                    assert _combination(r, ext_cols) == target
            assert M.member(inside) is not None

    @pytest.mark.parametrize("order", [GREVLEX, LEX], ids=lambda o: o.name)
    def test_normal_form_matches_the_embedded_basis(self, order):
        rng = random.Random(4018)
        for _ in range(12):
            I = Ideal(random_ideal(rng).generators, order)
            f = _random_eps_poly(rng)
            rem, _ = _embedded_reduce(I, [f])
            assert I.normal_form(f) == rem[0]

    def test_target_with_a_denominator(self):
        cols = [[std("z1"), std("z2")], [std("z2^2"), std("z1 - 1")]]
        M = Module(cols)
        den = parse_lc("1 + eps^(1/2)")
        x = LCFraction(parse_lc("2 - eps^(-1)"), den)
        mults = [
            Poly(EXTENDED, {_mono("z1"): x}),
            Poly(EXTENDED, {_mono("1"): parse_lc("eps^(2/3)")}),
        ]
        target = _combination(mults, _lifted(cols))
        r = M.member(target)
        assert r is not None
        assert r == _embedded_reduce(M, target)[1]
        assert _combination(r, _lifted(cols)) == target
        I = Ideal([std("z1^2 - z2")])
        f = Poly(EXTENDED, {_mono("z1^3"): x, _mono("z2"): parse_lc("eps")})
        assert I.normal_form(f) == _embedded_reduce(I, [f])[0][0]


def _small_lc(rng):
    """c + d*eps^q with small Gaussian-integer c and d."""
    c = LCNumber.from_gaussian(GaussianRational(rng.randint(-2, 2), rng.choice((0, 1))))
    return c + LCNumber.term(rng.choice((1, -1, 2)), rng.choice((1, Fraction(1, 2), -1)))


def _small_eps_poly(rng):
    """One or two terms of degree at most 1 in z1, z2, each coefficient c + d*eps^q."""
    acc = Poly.zero(EXTENDED)
    for _ in range(rng.randint(1, 2)):
        c = _small_lc(rng)
        m = rng.choice(monomials_upto(range(1, 3), 1))
        acc = acc + Poly(EXTENDED, {m: c})
    return acc


def _assert_one_form(polys):
    """Every coefficient is an LCNumber or a quotient that is not a finite sum."""
    for f in polys:
        for c in f.terms.values():
            assert type(c) is LCNumber or not c.den.is_one(), c


class TestEpsModules:
    """Eps-carrying columns run the tagged LCFraction engine; checked by
    reconstruction rather than against another run."""

    def test_cofactors_and_syzygies_reconstruct(self):
        rng = random.Random(4019)
        for _ in range(32):
            rank, ncols = rng.choice(((1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (2, 3)))
            cols = [[_small_eps_poly(rng) for _ in range(rank)] for _ in range(ncols)]
            M = Module(cols)
            assert M._kernel is groebner._LcKernel
            mults = [_small_eps_poly(rng) for _ in cols]
            inside = _combination(mults, cols)
            outside = [_small_eps_poly(rng) for _ in range(rank)]
            r = M.member(inside)
            assert r is not None
            assert _combination(r, cols) == inside
            _assert_one_form(r)
            r = M.member(outside)
            if r is not None:
                assert _combination(r, cols) == outside
                _assert_one_form(r)
            for s in M.syzygies():
                assert not any(_combination(s, cols))
                _assert_one_form(s)
            if rank == 1:
                I = Ideal([col[0] for col in cols])
                rem = I.normal_form(outside[0])
                assert not I.normal_form(inside[0])
                assert not I.normal_form(outside[0] - rem)
                _assert_one_form([rem])


# --- the one reduction loop, against the two it replaced ---------------------


def _element_lists(rng, field):
    """(M, kind, G) triples: the elements of real _buchberger_vec runs.

    field is "zi" (Q(i) columns), "lc" (the same columns on the dividing
    kernel) or "eps" (eps columns); kind is "plain", "tagged" or "syzygies",
    the three runs the engine makes.
    """
    if field == "eps":
        rank, ncols = rng.choice(((1, 1), (1, 2), (2, 1), (2, 2)))
        draw = _small_eps_poly
    else:
        rank, ncols = rng.choice(((1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (2, 3)))
        draw = random_std_poly
    cols = [[draw(rng) for _ in range(rank)] for _ in range(ncols)]
    if not any(f for col in cols for f in col):
        return []
    order = rng.choice((GREVLEX, LEX, MonomialOrder("elimination", [1])))
    M = Module(_lifted(cols) if field == "lc" else cols, order)
    if field == "lc":
        _dividing(M)
    out = []
    for kind, tags, syzygies in (
        ("plain", None, False),
        ("tagged", rank, False),
        ("syzygies", rank, True),
    ):

        def run(tags=tags, syzygies=syzygies):
            return groebner._buchberger_vec(
                M._vecs, M._layout, M._kernel, tags, syzygies
            )

        out.append((M, kind, M._run(run)))
    return out


def _random_vec(rng, M, G):
    """A vector over the columns' and the tags' positions, in M's kernel form.

    Multiples of basis elements, alone now and then (so that some
    remainders are zero), else with random terms and, now and then, a term
    at the top of the layout's fields, so that a product in the reduction
    may overflow.  Raises _Overflow when a term does not fit at all.
    """
    kernel, layout = M._kernel, M._layout
    lc = kernel is groebner._LcKernel
    variables = sorted(layout.variables)
    monos = monomials_upto(variables, 2)
    domain = EXTENDED if lc else "standard"
    inside = rng.random() < 0.3
    polys = []
    for _ in range(M._rank + len(M.columns)):
        f = Poly.zero(domain)
        for _ in range(0 if inside else rng.randint(0, 2)):
            if lc:
                c = _small_lc(rng)
            else:
                c = GaussianRational(
                    Fraction(rng.randint(-3, 3), rng.randint(1, 3)), rng.randint(-1, 1)
                )
            f = f + Poly(domain, {rng.choice(monos): c})
        polys.append(f)
    if variables and not inside and rng.random() < 0.3:
        e = 2 ** (layout.width - 1) - rng.randint(1, 2)
        k = rng.randrange(M._rank)
        polys[k] = polys[k] + Poly(domain, {Monomial([(rng.choice(variables), e)]): 1})
    vec, _ = kernel.entry(polys, layout)
    for g, _, _ in rng.sample(G, min(len(G), rng.randint(inside, 2))):
        if lc:
            c = LCFraction(_small_lc(rng))
        else:
            c = (rng.randint(-3, 3) or 1, rng.randint(-2, 2))
        kernel.axpy(vec, c, layout.term(0, rng.choice(monos)), g, layout.guard)
    return vec


class TestOneReductionLoop:
    """groebner._divmod serves both fields through kernel.step and kernel.axpy;
    the fraction-free and the dividing loops it replaced are the references."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_matches_the_reference_loops(self, seed, monkeypatch):
        # narrow fields, so that some reductions overflow
        monkeypatch.setattr(groebner, "_START_WIDTH", 3)
        rng = random.Random(seed)
        seen = Counter()
        for instance in range(30):
            field = ("zi", "lc", "eps")[instance % 3]
            for M, kind, G in _element_lists(rng, field):
                kernel, layout = M._kernel, M._layout
                if kernel is groebner._ZiKernel:
                    ref, ref_basis = reference_zi_divmod, G
                else:
                    ref, ref_basis = reference_lc_divmod, [(g, lead) for g, lead, _ in G]
                for _ in range(4):
                    try:
                        vec = _random_vec(rng, M, G)
                    except _Overflow:
                        continue
                    try:
                        m, rem = ref(vec, ref_basis, layout)
                    except _Overflow:
                        with pytest.raises(_Overflow):
                            groebner._divmod(vec, G, layout, kernel)
                        seen["overflow"] += 1
                        continue
                    got_m, got = groebner._divmod(vec, G, layout, kernel)
                    assert got_m == m
                    assert list(got.items()) == list(rem.items())
                    seen[kernel.__name__, kind, "zero" if not rem else "rem"] += 1
                    seen["scaled"] += m != 1
        for name in ("_ZiKernel", "_LcKernel"):
            for kind in ("plain", "tagged", "syzygies"):
                assert seen[name, kind, "rem"], (name, kind)
            assert seen[name, "tagged", "zero"], name
        assert seen["overflow"] and seen["scaled"]

    @pytest.mark.parametrize(
        "axpy, one", [(_zi_axpy, (1, 0)), (_axpy, LCFraction(1))], ids=["zi", "any-ring"]
    )
    def test_axpy_pushes_each_new_key_once(self, axpy, one):
        layout = _Layout("grevlex", (), [1, 2], 8)
        term = functools.partial(layout.term, 0)
        z1, z2, unit = term(_mono("z1")), term(_mono("z2")), term(_mono("1"))
        minus = (-1, 0) if one == (1, 0) else -one
        # times z1: z1^2 cancels, z1*z2 stays, z1 is new
        vec = {z1: one, z2: one, unit: one}
        acc = {term(_mono("z1^2")): minus, term(_mono("z1*z2")): one}
        plain = dict(acc)
        axpy(plain, one, z1, vec, layout.guard)
        heap = []
        axpy(acc, one, z1, vec, layout.guard, heap)
        assert acc == plain
        assert list(acc) == list(plain)
        assert heap == [-z1]
        # a second pass brings back z1^2, the one key absent again
        axpy(acc, one, z1, vec, layout.guard, heap)
        want = sorted([-z1, -term(_mono("z1^2"))])
        assert sorted(heap) == want
        axpy(acc, one, z1, {unit: one}, layout.guard, heap)
        assert sorted(heap) == want
