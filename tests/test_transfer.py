import random
import signal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import (
    is_monic_reduced_basis,
    monomials_upto,
    reference_exactness_transfer,
    reference_flatness_witness,
    reference_kernel_comparison,
)
from _strategies import extended_polys, polys
from epsgeom import groebner
from epsgeom.errors import EpsgeomError, NotAComplex, NotASolution
from epsgeom.gaussian import GaussianRational
from epsgeom.groebner import GREVLEX, Ideal, is_proper, module_syzygies, syzygy_basis
from epsgeom.levicivita import LCNumber
from epsgeom.parser import format_poly, parse_poly
from epsgeom.poly import Poly
from epsgeom.transfer import (
    PolyMatrix,
    _kernel_comparison,
    exactness_transfer_check,
    flatness_witness,
    kernel_extension_check,
    tensor_iso_check,
)


def std(text):
    return parse_poly(text).to_standard()


def ext(text):
    return parse_poly(text).to_extended()


def random_std_poly(rng, max_vars=3, max_degree=2, sparsity=0.5):
    monos = monomials_upto(range(1, max_vars + 1), max_degree)
    acc = Poly.zero("standard")
    for m in monos:
        if rng.random() < sparsity:
            c = rng.randint(-2, 2)
            if c:
                acc = acc + Poly("standard", {m: GaussianRational(c)})
    return acc


class TestFlatnessWitness:
    def test_eps_scaled_koszul_solution(self):
        r = flatness_witness([std("z1"), std("z2")], [ext("eps*z2"), ext("-eps*z1")])
        assert r == [ext("eps")]

    def test_standard_solution(self):
        r = flatness_witness([std("z1"), std("z2")], [ext("z2"), ext("-z1")])
        assert r == [ext("1")]

    def test_not_a_solution(self):
        with pytest.raises(NotASolution):
            flatness_witness([std("z1"), std("z2")], [ext("1"), ext("0")])

    def test_round_trips(self):
        rng = random.Random(7001)
        done = 0
        while done < 30:
            a = [random_std_poly(rng, max_vars=2) for _ in range(rng.randint(2, 3))]
            if not any(a):
                continue
            beta = syzygy_basis(a)
            if not beta.generators:
                done += 1
                continue
            # extended combination of standard solutions
            scalars = [
                Poly.constant(LCNumber.eps(rng.randint(0, 2)))
                if rng.random() < 0.7
                else ext(str(rng.randint(-2, 2)))
                for _ in beta.generators
            ]
            x = [Poly.zero("extended") for _ in a]
            for s, gen in zip(scalars, beta.generators):
                for k, g in enumerate(gen):
                    x[k] = x[k] + s * g.to_extended()
            r = flatness_witness(a, x)
            rebuilt = [Poly.zero("extended") for _ in a]
            for ri, gen in zip(r, beta.generators):
                for k, g in enumerate(gen):
                    rebuilt[k] = rebuilt[k] + ri * g.to_extended()
            assert rebuilt == x
            done += 1


def _outcome(fn, a, x):
    """fn(a, x) as comparable data: the result's domains and formatted
    entries, or the error's type and message."""
    try:
        return [(g.domain, format_poly(g)) for g in fn(a, x)]
    except EpsgeomError as e:
        return type(e), str(e)


@st.composite
def _flatness_rows(draw):
    """(a, x): a standard row and a Koszul or syzygy combination over it,
    with eps-power and polynomial multipliers, perturbed into a
    non-solution about one time in three."""
    a = draw(st.lists(polys(max_vars=2, max_degree=2), min_size=1, max_size=3))
    n = len(a)
    multipliers = st.one_of(
        st.integers(min_value=-2, max_value=3).map(
            lambda q: Poly.constant(LCNumber.eps(q))
        ),
        extended_polys(max_vars=2, max_degree=1, max_terms=2, limited=False),
    )
    x = [Poly.zero("extended") for _ in a]
    if draw(st.booleans()):
        # Koszul: s * (a_j e_i - a_i e_j)
        for i in range(n):
            for j in range(i + 1, n):
                s = draw(multipliers)
                x[i] = x[i] + s * a[j].to_extended()
                x[j] = x[j] - s * a[i].to_extended()
    else:
        for gen in syzygy_basis(a).generators:
            s = draw(multipliers)
            x = [xi + s * g.to_extended() for xi, g in zip(x, gen)]
    if draw(st.integers(min_value=0, max_value=2)) == 0:
        k = draw(st.integers(min_value=0, max_value=n - 1))
        x[k] = x[k] + draw(
            extended_polys(max_vars=2, max_degree=2, limited=False, nonzero=True)
        )
    return a, x


class TestFlatnessWitnessReference:
    """flatness_witness against the product check and two-run reference."""

    @given(_flatness_rows())
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_matches_the_reference(self, row):
        a, x = row
        assert _outcome(flatness_witness, a, x) == _outcome(
            reference_flatness_witness, a, x
        )

    @pytest.mark.parametrize(
        "a, x",
        [
            (["z1", "z2"], ["1", "0"]),
            (["z1"], ["eps"]),
            (["z1", "z2"], ["z2"]),
            (["0", "0"], ["eps", "z1"]),
            ([], []),
            (["z1", "0"], ["0", "eps*z2"]),
        ],
        ids=["non-solution", "no-syzygies", "unequal", "zero-row", "empty", "zero-entry"],
    )
    def test_edge_rows(self, a, x):
        a, x = [std(g) for g in a], [ext(g) for g in x]
        assert _outcome(flatness_witness, a, x) == _outcome(
            reference_flatness_witness, a, x
        )

    def test_seeded_basis_is_the_tagged_run(self):
        # the syzygy run's rows as their own tagged basis, against the
        # tagged run that Module(syzygies()).member would make on them
        rng = random.Random(7017)
        checked = 0
        while checked < 30:
            a = [random_std_poly(rng, max_vars=3) for _ in range(rng.randint(2, 4))]
            if not any(a):
                continue
            I = Ideal(a)

            def step(I=I, n=len(a)):
                layout, kernel = I._layout, I._kernel
                rows = I._syzygy_rows()
                seeded = groebner._tagged_reduced(rows, n, kernel, layout.top)
                columns = [
                    groebner._vec_to_polys(kernel.monic(r), n, "standard", layout)
                    for r in rows
                ]
                inputs = [kernel.entry(c, layout) for c in columns]
                run = groebner._buchberger_vec(inputs, layout, kernel, n)
                return columns, [
                    [(lead, kernel.monic(vec)) for vec, lead, _ in G]
                    for G in (seeded, run)
                ]

            columns, (seeded, run) = I._run(step)
            assert is_monic_reduced_basis(columns, GREVLEX)
            assert seeded == run
            checked += 1


class TestKernelExtension:
    def test_koszul_row(self):
        rep = kernel_extension_check(PolyMatrix.from_strings([["z1", "z2"]]))
        assert rep["standard_kernel"] == [["z2", "-z1"]]
        assert rep["extended_kernel"] == [["z2", "-z1"]]
        assert rep["pass"]

    def test_identity(self):
        rep = kernel_extension_check(PolyMatrix.from_strings([["1", "0"], ["0", "1"]]))
        assert rep["standard_kernel"] == []
        assert rep["extended_kernel"] == []
        assert rep["pass"]

    def test_zero_matrix(self):
        rep = kernel_extension_check(PolyMatrix.from_strings([["0", "0"]]))
        assert rep["standard_kernel"] == [["1", "0"], ["0", "1"]]
        assert rep["pass"]

    def test_random_matrices(self):
        rng = random.Random(7002)
        for _ in range(25):
            rows = rng.randint(1, 3)
            cols = rng.randint(1, 3)
            A = PolyMatrix(
                [[random_std_poly(rng) for _ in range(cols)] for _ in range(rows)]
            )
            assert kernel_extension_check(A)["pass"]


class TestExactnessTransfer:
    def test_koszul_exact(self):
        A = PolyMatrix.from_strings([["z2"], ["-z1"]])
        B = PolyMatrix.from_strings([["z1", "z2"]])
        rep = exactness_transfer_check(A, B)
        assert rep["complex"]
        assert rep["exact_standard"] and rep["exact_extended"]
        assert rep["verdicts_agree"] and rep["pass"]

    def test_zero_pair(self):
        A = PolyMatrix.from_strings([["0"]])
        B = PolyMatrix.from_strings([["0"]])
        rep = exactness_transfer_check(A, B)
        assert rep["verdicts_agree"] and rep["pass"]

    def test_strict_image_gap(self):
        A = PolyMatrix.from_strings([["z1^2"]])
        B = PolyMatrix.from_strings([["0"]])
        rep = exactness_transfer_check(A, B)
        assert not rep["exact_standard"] and not rep["exact_extended"]
        assert rep["verdicts_agree"] and rep["pass"]

    def test_not_a_complex(self):
        A = PolyMatrix.from_strings([["1"]])
        B = PolyMatrix.from_strings([["z1"]])
        with pytest.raises(NotAComplex):
            exactness_transfer_check(A, B)

    def test_syzygy_pairs_are_exact(self):
        rng = random.Random(7003)
        for _ in range(8):
            row = [random_std_poly(rng, max_vars=2) for _ in range(2)]
            if not any(row):
                continue
            B = PolyMatrix([row])
            beta = syzygy_basis(row)
            if not beta.generators:
                continue
            A = PolyMatrix(
                [
                    [gen[r] for gen in beta.generators]
                    for r in range(len(row))
                ]
            )
            rep = exactness_transfer_check(A, B)
            assert rep["exact_standard"] and rep["exact_extended"] and rep["pass"]


class TestTensorIso:
    def test_free_module(self):
        rep = tensor_iso_check(PolyMatrix.from_strings([["0"]]))
        assert rep["free"] and rep["pass"]

    def test_principal_quotient(self):
        rep = tensor_iso_check(PolyMatrix.from_strings([["z1"]]))
        assert rep["surjectivity"] == "structural"
        assert rep["pass"]

    def test_koszul_presentation(self):
        # row form: one relation among two generators, kernel (z2, -z1)
        rep = tensor_iso_check(PolyMatrix.from_strings([["z1", "z2"]]))
        assert rep["pass"]
        assert rep["witnesses"] == [["1"]]
        # column form: two relations on one generator, kernel is zero
        col = tensor_iso_check(PolyMatrix.from_strings([["z2"], ["-z1"]]))
        assert col["pass"]
        assert col["witnesses"] == []

    def test_random_presentations(self):
        rng = random.Random(7004)
        for _ in range(10):
            rows = rng.randint(1, 2)
            cols = rng.randint(1, 2)
            P = PolyMatrix(
                [[random_std_poly(rng, max_vars=2) for _ in range(cols)] for _ in range(rows)]
            )
            assert tensor_iso_check(P)["pass"]


def random_complex(rng):
    """(A, B) with B*A = 0: A spans ker(B), or a column of it is dropped or
    multiplied by a polynomial."""
    rows, cols = rng.randint(1, 2), rng.randint(2, 3)
    B = PolyMatrix(
        [[random_std_poly(rng, max_vars=2) for _ in range(cols)] for _ in range(rows)]
    )
    ker = module_syzygies(B.columns())
    edit = rng.choice(["keep", "drop", "scale"])
    if edit == "drop" and ker:
        ker.pop(rng.randrange(len(ker)))
    elif edit == "scale" and ker:
        k = rng.randrange(len(ker))
        f = random_std_poly(rng, max_vars=2, max_degree=1)
        ker[k] = [f * g for g in ker[k]]
    if not ker:
        ker = [[Poly.zero("standard")] * cols]
    A = PolyMatrix([[v[r] for v in ker] for r in range(cols)])
    return A, B


class TestTwoDomainReference:
    """The one-run checks against the checks that ran each domain separately."""

    def test_kernel_and_tensor_reports(self):
        rng = random.Random(7006)
        for _ in range(40):
            rows, cols = rng.randint(1, 3), rng.randint(1, 3)
            P = PolyMatrix(
                [[random_std_poly(rng) for _ in range(cols)] for _ in range(rows)]
            )
            report, cofactors = reference_kernel_comparison(P)
            assert kernel_extension_check(P) == report
            # the cofactors come formatted, as tensor_iso_check prints them
            cofactors = [None if r is None else [format_poly(g) for g in r] for r in cofactors]
            assert _kernel_comparison(P)[1] == cofactors
            if P.is_zero():
                continue
            tensor = tensor_iso_check(P)
            assert tensor["kernel_check"] == report
            assert tensor["witnesses"] == cofactors

    def test_exactness_reports(self):
        rng = random.Random(7007)
        verdicts = []
        for _ in range(24):
            A, B = random_complex(rng)
            report = exactness_transfer_check(A, B)
            assert report == reference_exactness_transfer(A, B)
            verdicts.append(report["exact_standard"])
        assert verdicts.count(True) >= 5 and verdicts.count(False) >= 5


class TestEngineRuns:
    def test_flatness_witness_runs_one_basis(self, pair_runs):
        a = [std("z1"), std("z2")]
        flatness_witness(a, [ext("eps*z2"), ext("-eps*z1")])
        # the syzygy run; its reduced basis is the tagged basis of the span
        assert len(pair_runs) == 1
        with pytest.raises(NotASolution):
            flatness_witness(a, [ext("1"), ext("0")])
        # a non-solution pays for the same one run before it raises
        assert len(pair_runs) == 2

    def test_kernel_extension_runs_each_basis_once(self, pair_runs):
        kernel_extension_check(PolyMatrix.from_strings([["z1", "z2"]]))
        # one tagged pair loop, whose reduced basis holds the kernel; the
        # extended kernel and the span witnesses need no run
        assert len(pair_runs) == 1

    def test_tensor_iso_runs_each_basis_once(self, pair_runs):
        tensor_iso_check(PolyMatrix.from_strings([["z1", "z2"]]))
        # ker(P) in one run as above, and nothing more
        assert len(pair_runs) == 1

    def test_exactness_runs_each_basis_once(self, pair_runs):
        A = PolyMatrix.from_strings([["z2"], ["-z1"]])
        B = PolyMatrix.from_strings([["z1", "z2"]])
        exactness_transfer_check(A, B)
        # ker(B) in one run as above, then the tagged basis of im(A);
        # im(A) in ker(B) is B*A = 0, so the kernel's span needs no run
        assert len(pair_runs) == 2

    def test_full_rank_kernel_extension_runs_nothing(self, pair_runs):
        report = kernel_extension_check(PolyMatrix.from_strings([["z1", "1"], ["z2", "z1"]]))
        # the columns are independent at one point, so ker(A) = 0 needs no run
        assert report["standard_kernel"] == report["extended_kernel"] == []
        assert len(pair_runs) == 0

    def test_full_rank_tensor_iso_runs_nothing(self, pair_runs):
        report = tensor_iso_check(PolyMatrix.from_strings([["z1"], ["z2"], ["1"]]))
        assert report["witnesses"] == [] and report["pass"] is True
        assert len(pair_runs) == 0

    def test_full_rank_exactness_runs_nothing(self, pair_runs):
        A = PolyMatrix.from_strings([["0"], ["0"]])
        B = PolyMatrix.from_strings([["z1", "z2"], ["1", "z1*z2"]])
        report = exactness_transfer_check(A, B)
        # ker(B) = 0 takes no run, and an empty kernel needs no membership
        assert report["exact_standard"] is True
        assert len(pair_runs) == 0


# A 5x5 matrix with two-term entries and a nonzero determinant: its tagged
# syzygy run took past 120 s; the rank certificate answers it without one.
FULL_RANK_5X5 = [
    ["-3*z1^2 + 3", "-3*z1^2 + 3*z1", "2*z2^2 + z1*z3", "-z2 + 2", "-2*z3^2 - 1"],
    ["-z2*z3 + 2*z2", "-2*z2^2 - 2*z2", "-z1^2 + 3", "-z2^2 - 3*z2", "-3*z1^2 - 3*z3^2"],
    ["3*z1^2 + 3", "2*z1^2 - z2^2", "-3*z1 + 1", "2*z1^2 + 2*z1", "z1^2 - z1"],
    ["z1^2 - z1", "2*z3 - 2", "2*z1 + 1", "3*z3^2 + z2", "z1^2 - 3*z2"],
    ["2*z1 + 3*z2", "-3*z1*z3 - 2*z3^2", "-z2^2 - 3*z2", "-z1^2 + z2", "-z1 - 2"],
]


class TestFullRankKernel:
    def test_five_by_five_within_budget(self, pair_runs):
        def timeout(signum, frame):
            raise TimeoutError("past 5 s")

        A = PolyMatrix.from_strings(FULL_RANK_5X5)
        previous = signal.signal(signal.SIGALRM, timeout)
        signal.alarm(5)
        try:
            report = kernel_extension_check(A)
            iso = tensor_iso_check(A)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert report["standard_kernel"] == report["extended_kernel"] == []
        assert iso["kernel_check"] == report and iso["witnesses"] == []
        assert len(pair_runs) == 0


class TestMaximalIdealCondition:
    def test_point_ideals_stay_proper_when_extended(self):
        rng = random.Random(7005)
        for _ in range(10):
            gens = [
                Poly.variable(v)
                - Poly.constant(GaussianRational(rng.randint(-3, 3), rng.randint(-1, 1))).to_standard()
                for v in range(1, rng.randint(2, 4))
            ]
            assert is_proper(Ideal(gens))
            assert is_proper(Ideal([g.to_extended() for g in gens]))


class TestPolyMatrixBasics:
    def test_shape_and_entries(self):
        A = PolyMatrix.from_strings([["z1", "z2"], ["0", "1"]])
        assert A.shape == (2, 2)
        assert A.entry(0, 1) == std("z2")
        assert A.column(0) == [std("z1"), std("0")]

    def test_ragged_rejected(self):
        with pytest.raises(Exception):
            PolyMatrix([[std("z1")], [std("z1"), std("z2")]])

    def test_mixed_domain_promotes(self):
        A = PolyMatrix([[std("z1"), ext("eps*z2")]])
        assert A.entry(0, 0).domain == "extended"
        assert A.entry(0, 1).domain == "extended"

    def test_mul_shapes(self):
        A = PolyMatrix.from_strings([["z1"], ["z2"]])
        B = PolyMatrix.from_strings([["z2", "-z1"]])
        prod = B.mul(A)
        assert prod.shape == (1, 1)
        assert prod.entry(0, 0) == Poly.zero("standard")
