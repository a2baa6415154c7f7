"""Seeded workloads for the epsgeom benchmark.

A workload turns a seed into a fixed batch of calls into the public API (or
into ``run_command``), a handful of fixed warm-up calls, and one exact check
per call.  The library only ever sees the generated inputs; checks run
outside the timed region.  See NOTES.md for why each workload exists.

Every generator draws from two streams.  ``shape`` draws the instances
themselves (matrix shapes, supports, term counts, exponents, orders,
coefficients, roots, points) and is seeded with the shape seed, by default
the workload's acceptance seed.  ``vals`` is seeded with the run's seed.  In
``ideals`` and ``cli`` it draws only cost-preserving twists of each
instance: a sign per variable (z_v -> -z_v), complex conjugation and the
sign of each generator or root.  These keep the size and the real-ness of
every coefficient, so every seed has the same cost and a run measures the
machine and the code, not the luck of the draw.  In ``flatness`` it draws
the solution vectors.  A different ``shape_seed`` gives new instances, for
held-out checks.
"""

import json
import random
from fractions import Fraction

# the seeds of acceptance criteria 7, 6 and 2, whose generators these follow
DEFAULT_SEEDS = {"flatness": 7002, "ideals": 6606, "cli": 9302}

UNITS = (-3, -2, -1, 1, 2, 3)


class Call:
    """One timed invocation: ``fn()`` is timed, ``check(result)`` is not."""

    __slots__ = ("kind", "fn", "check")

    def __init__(self, kind, fn, check):
        self.kind = kind
        self.fn = fn
        self.check = check


class Workload:
    __slots__ = ("name", "calls", "warmup")

    def __init__(self, name, calls, warmup):
        self.name = name
        self.calls = calls
        self.warmup = warmup


def build(name, seed, eg, root, shape_seed=None):
    """The batch for workload ``name``; ``eg`` holds the epsgeom modules."""
    if shape_seed is None:
        shape_seed = DEFAULT_SEEDS[name]
    return _BUILDERS[name](random.Random(shape_seed), random.Random(seed), eg, root)


def _gr(eg, re, im=0):
    return eg.gaussian.GaussianRational(Fraction(re), Fraction(im))


def _twist(eg, f, signs, sign=1, conj=False):
    """sign * f(signs * z), conjugated if ``conj``.

    z -> signs * z and conjugation are ring automorphisms of Q(i)[z], so
    they map an instance to one with the same answers up to the twist.
    Every coefficient keeps its size and whether it is real, so a twisted
    instance costs what the original costs.
    """
    terms = {}
    for m, c in f.terms.items():
        if conj:
            c = c.conjugate()
        if (sum(e for v, e in m.exps if signs[v] < 0) % 2) != (sign < 0):
            c = -c
        terms[m] = c
    return eg.poly.Poly(f.domain, terms)


def _signs(vals, variables):
    return {v: vals.choice((1, -1)) for v in variables}


def _sum_products(eg, coeffs, polys, domain):
    acc = eg.poly.Poly.zero(domain)
    for h, g in zip(coeffs, polys):
        acc = acc + h * g
    return acc


# --- flatness -----------------------------------------------------------------

FLATNESS_CHECKS = 16
FLATNESS_TRIPS = 50
FLATNESS_TERMS = 2


def _criterion7_monomials(eg):
    Monomial = eg.poly.Monomial
    mons = [Monomial([])]
    for v in (1, 2, 3):
        mons.append(Monomial([(v, 1)]))
        mons.append(Monomial([(v, 2)]))
    for v, w in ((1, 2), (1, 3), (2, 3)):
        mons.append(Monomial([(v, 1), (w, 1)]))
    return mons


def _criterion7_structure(shape):
    """Criterion 7's draws (at its own seed by default), entries cut to two terms.

    An entry is a tuple of (monomial index, coefficient) pairs over the
    criterion's ten monomials; the empty draw falls back to the constant 1,
    as in the criterion.  With whole entries one pass took 10-12 s, and with
    three terms 5-7 s, so a run timed each call only a few times.  Each
    round trip row also gets, per Koszul pair, whether its multiplier is a
    power of eps (True) or a constant.
    """
    def entry():
        terms = []
        for k in range(10):
            if shape.random() < 0.5:
                c = shape.randint(-3, 3)
                if c:
                    terms.append((k, c))
        return tuple(terms[:FLATNESS_TERMS]) or ((0, 1),)

    matrices = []
    for _ in range(FLATNESS_CHECKS):
        rows, cols = shape.randint(1, 3), shape.randint(1, 3)
        matrices.append([[entry() for _ in range(cols)] for _ in range(rows)])
    rows = [[entry() for _ in range(shape.randint(2, 3))] for _ in range(FLATNESS_TRIPS)]
    kinds = [[shape.random() < 0.5 for _ in _pairs(len(r))] for r in rows]
    return matrices, rows, kinds


def _pairs(n):
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def _flatness(shape, vals, eg, root):
    Poly = eg.poly.Poly
    LCNumber = eg.levicivita.LCNumber
    transfer, groebner = eg.transfer, eg.groebner
    mons = _criterion7_monomials(eg)

    def poly(terms):
        return Poly("standard", {mons[k]: _gr(eg, c) for k, c in terms})

    matrices, rows, kinds = _criterion7_structure(shape)
    calls = []
    # The polynomials are criterion 7's own, coefficients included, and the
    # seed draws only the multipliers of the solutions x: a call's cost moves
    # up to tenfold with its coefficients, and seeded coefficients made the
    # metrics spread 0.13-0.35 (IQR over median) over five seeds.
    for pattern in matrices:
        mat = transfer.PolyMatrix([[poly(e) for e in r] for r in pattern])
        calls.append(
            Call(
                "kernel_extension_check %dx%d" % mat.shape,
                lambda mat=mat: transfer.kernel_extension_check(mat),
                lambda r: r["pass"] is True,
            )
        )
    for pattern, row_kinds in zip(rows, kinds):
        a = [poly(e) for e in pattern]
        # x is a combination of Koszul syzygies a_j e_i - a_i e_j, so it
        # solves sum a_i x_i = 0 without a Groebner run at set-up
        x = [Poly.zero("extended") for _ in a]
        for (i, j), eps_power in zip(_pairs(len(a)), row_kinds):
            if eps_power:
                s = Poly.constant(LCNumber.eps(vals.randint(1, 2)))
            else:
                s = Poly.constant(vals.choice((-2, -1, 1, 2))).to_extended()
            x[i] = x[i] + s * a[j].to_extended()
            x[j] = x[j] - s * a[i].to_extended()
        calls.append(
            Call(
                "syzygy_basis %d" % len(a),
                lambda a=a: groebner.syzygy_basis(a),
                lambda r: bool(r.generators) and r.check(),
            )
        )

        def rebuilt(r, a=a, x=x):
            beta = groebner.syzygy_basis(a)
            gens = [[g.to_extended() for g in gen] for gen in beta.generators]
            out = [
                _sum_products(eg, r, [gen[i] for gen in gens], "extended")
                for i in range(len(a))
            ]
            return out == x

        calls.append(
            Call(
                "flatness_witness %d" % len(a),
                lambda a=a, x=x: transfer.flatness_witness(a, x),
                rebuilt,
            )
        )

    parse = eg.parser.parse_poly
    row = [parse("z1"), parse("z2")]
    warmup = [
        lambda: transfer.kernel_extension_check(
            transfer.PolyMatrix.from_strings([["z1", "z2"]])
        ),
        lambda: groebner.syzygy_basis(row),
        lambda: transfer.flatness_witness(
            row, [parse("eps*z2"), parse("-eps*z1")]
        ),
    ]
    return Workload("flatness", calls, warmup)


# --- ideals -------------------------------------------------------------------

IDEALS_RADICAL = 80
IDEALS_RANDOM = 100


def _random_poly(eg, shape, variables, max_degree, max_terms):
    """Criterion 6's polynomial generator: unit coefficients, bounded degree."""
    Poly, Monomial = eg.poly.Poly, eg.poly.Monomial
    terms = {}
    for _ in range(shape.randint(1, max_terms)):
        pairs = []
        budget = max_degree
        for v in variables:
            e = shape.randint(0, budget)
            budget -= e
            if e:
                pairs.append((v, e))
        terms[Monomial(pairs)] = _gr(eg, shape.choice(UNITS))
    return Poly("standard", terms)


def _gaussian_integer_ideal(eg, shape):
    """2-3 generators in 3-4 variables, degree <= 2, Z[i] coefficients."""
    Poly, Monomial = eg.poly.Poly, eg.poly.Monomial
    nvars = shape.randint(3, 4)
    variables = list(range(1, nvars + 1))
    gens = []
    for _ in range(shape.randint(2, 3)):
        terms = {}
        while len(terms) < 2:
            pairs = []
            budget = 2
            for v in shape.sample(variables, nvars):
                e = shape.randint(0, budget)
                budget -= e
                if e:
                    pairs.append((v, e))
            re, im = 0, 0
            while not (re or im):
                re, im = shape.randint(-2, 2), shape.randint(-2, 2)
            terms[Monomial(pairs)] = _gr(eg, re, im)
        gens.append(Poly("standard", terms))
    return nvars, gens


def _reconstructs(eg, f, ideal):
    h = eg.groebner.ideal_member_cofactors(f, ideal)
    return h is not None and _sum_products(eg, h, ideal.generators, f.domain) == f


def _ideals(shape, vals, eg, root):
    Poly, groebner = eg.poly.Poly, eg.groebner

    def linear():
        while True:
            a, b, c = (shape.randint(-2, 2) for _ in range(3))
            if a or b:
                return (
                    Poly.variable(1).scale(_gr(eg, a))
                    + Poly.variable(2).scale(_gr(eg, b))
                    + Poly.constant(c)
                )

    calls = []
    for _ in range(IDEALS_RADICAL):
        forms = [linear() for _ in range(shape.randint(1, 2))]
        gens = [p ** shape.randint(1, 3) for p in forms]
        if shape.random() < 0.5:
            g = Poly.zero("standard")
            for p in forms:
                g = g + p * _random_poly(eg, shape, [1, 2], 1, 2)
        else:
            g = _random_poly(eg, shape, [1, 2], 2, 3)
        signs = _signs(vals, (1, 2))
        gens = [_twist(eg, p, signs, vals.choice((1, -1))) for p in gens]
        g = _twist(eg, g, signs, vals.choice((1, -1)))
        # the generators are powers of at most two linear forms, each power
        # at most 3, so g lies in the radical iff g^6 lies in the ideal; the
        # two calls of one instance must agree
        verdicts = {}

        def radical(gens=gens, g=g):
            return groebner.radical_member(g, groebner.Ideal(gens))

        def power(gens=gens, g=g):
            return groebner.ideal_member(g ** 6, groebner.Ideal(gens))

        def check_radical(r, verdicts=verdicts):
            verdicts["radical"] = r
            return isinstance(r, bool) and verdicts.get("power", r) == r

        def check_power(r, verdicts=verdicts, gens=gens, g=g):
            verdicts["power"] = r
            if r is not _reconstructs(eg, g ** 6, groebner.Ideal(gens)):
                return False
            return verdicts.get("radical", r) == r

        calls.append(Call("radical_member", radical, check_radical))
        calls.append(Call("ideal_member power", power, check_power))

    orders = ("grevlex", "lex", "elimination")
    for k in range(IDEALS_RANDOM):
        nvars, gens = _gaussian_integer_ideal(eg, shape)
        signs, conj = _signs(vals, range(1, nvars + 1)), vals.random() < 0.5
        gens = [_twist(eg, p, signs, vals.choice((1, -1)), conj) for p in gens]
        kind = orders[k % 3]
        block = (nvars,) if kind == "elimination" else ()
        order = groebner.MonomialOrder(kind, block)
        keep = nvars - 1

        def basis(gens=gens, order=order):
            return groebner.buchberger(gens, order)

        def check_basis(r, gens=gens, order=order):
            ideal = groebner.Ideal(gens, order)
            if not r or not all(_reconstructs(eg, b, ideal) for b in r):
                return False
            reduced = groebner.Ideal(r, order)
            return all(not reduced.normal_form(g) for g in gens)

        def contract(gens=gens, order=order, keep=keep):
            return groebner.contraction(groebner.Ideal(gens, order), keep).generators

        def check_contract(r, gens=gens, order=order, keep=keep):
            ideal = groebner.Ideal(gens, order)
            return all(
                max(c.support(), default=0) <= keep
                and _reconstructs(eg, c, ideal)
                for c in r
            )

        calls.append(Call("buchberger " + kind, basis, check_basis))
        calls.append(Call("contraction " + kind, contract, check_contract))

    parse = eg.parser.parse_poly
    small = [parse("z1^2 - z2"), parse("z1*z2")]
    warmup = [
        lambda: groebner.radical_member(parse("z1"), groebner.Ideal([parse("z1^2")])),
        lambda: groebner.buchberger(small, groebner.LEX),
        lambda: groebner.contraction(
            groebner.Ideal([parse("z1 - z2^2"), parse("z2 - z3")]), 2
        ),
    ]
    return Workload("ideals", calls, warmup)


# --- cli ----------------------------------------------------------------------

CLI_CLOSURE = 120
CLI_LIFT = 100
CLI_WITNESS = 60
CLI_REDUCE = 48
CLI_FAMILY = 12


def _cli_ok(r):
    """The result of a successful run_command call, else None."""
    code, out = r
    if code != 0:
        return None
    body = json.loads(out)
    return body.get("result") if body.get("ok") else None


def _cli(shape, vals, eg, root):
    LCNumber, cli = eg.levicivita.LCNumber, eg.cli
    fmt_lc, fmt_poly = eg.parser.format_lc, eg.parser.format_poly
    calls = []

    def run(argv):
        return lambda: cli.run_command(list(argv))

    # verify-closure: criterion 2's root generator; the seed negates and
    # conjugates the whole root set (z -> -z and complex conjugation)
    valuations = [Fraction(v) for v in (-2, -1, 0)] + [
        Fraction(1, 2), Fraction(1), Fraction(2)
    ]

    def root_at(valuation, sign, conj):
        re = sign * shape.choice(UNITS)
        im = sign * conj * shape.choice((1, -1)) if shape.random() < 0.4 else 0
        r = LCNumber.term(_gr(eg, re, im), valuation)
        if shape.random() < 0.4:
            r = r + LCNumber.term(_gr(eg, sign * shape.randint(1, 2)), valuation + 1)
        return r

    for k in range(CLI_CLOSURE):
        sign, conj = vals.choice((1, -1)), vals.choice((1, -1))
        if k == 0:
            roots = [root_at(Fraction(v), sign, conj) for v in (-1, -2)]
        else:
            roots = [
                root_at(shape.choice(valuations), sign, conj)
                for _ in range(shape.randint(1, 4))
            ]
        argv = ["verify-closure", "--roots=" + "; ".join(fmt_lc(r) for r in roots)]
        calls.append(
            Call(
                "verify-closure",
                run(argv),
                lambda r: (_cli_ok(r) or {}).get("pass") is True,
            )
        )

    # lift: a simple shadow root, or a square root of c*eps^k at 0; the
    # seed negates z1 in the first kind
    def lift_ok(r):
        res = _cli_ok(r)
        if res is None:
            return False
        val = res["residual_valuation"]
        return val == "inf" or Fraction(val) > 16

    for k in range(CLI_LIFT):
        power = shape.randint(1, 3)
        if k % 2:
            sign = vals.choice((1, -1))
            a, b = (sign * x for x in shape.sample(range(-3, 4), 2))
            poly = "(z1 - (%d))*(z1 - (%d)) - (%d)*eps^%d" % (
                a, b, shape.choice(UNITS), power
            )
            at = str(a)
        else:
            sign = shape.choice((1, -1))  # real or imaginary root
            poly = "z1^2 - (%d)*eps^%d" % (sign * shape.choice((1, 4)), power)
            at = "0"
        calls.append(Call("lift", run(["lift", "--poly=" + poly, "--at=" + at]), lift_ok))

    # open-witness: criterion 3's polynomial and point generator; the seed
    # twists f and the point alike, which keeps the value f takes there
    for _ in range(CLI_WITNESS):
        f = _random_poly(eg, shape, [1, 2, 3], 3, 5)
        if f.is_constant():
            f = f + eg.poly.Poly.variable(shape.randint(1, 3))
        point = {v: shape.randint(-2, 2) for v in f.support()}
        signs = _signs(vals, (1, 2, 3))
        f = _twist(eg, f, signs, vals.choice((1, -1)))
        at = ",".join("z%d=%d" % (v, signs[v] * x) for v, x in point.items())
        argv = ["open-witness", "--poly=" + fmt_poly(f), "--at=" + at]
        calls.append(
            Call(
                "open-witness",
                run(argv),
                lambda r: (_cli_ok(r) or {}).get("value", "0") != "0",
            )
        )

    # reduce-on-variety: a variety member perturbed by an eps term; the
    # seed draws the sign of the whole polynomial
    varieties = ("z1", "z1*z2", "z1 - z2^2", "z1^2; z2")
    for _ in range(CLI_REDUCE):
        variety = shape.choice(varieties)
        sign = vals.choice((1, -1))
        poly = "(%s)*((%d) + (%d)*z2) + (%d)*eps*z%d" % (
            variety.split(";")[0],
            sign * shape.choice(UNITS),
            sign * shape.randint(-2, 2),
            sign * shape.choice(UNITS),
            shape.randint(1, 2),
        )
        argv = ["reduce-on-variety", "--poly=" + poly, "--variety=" + variety]
        calls.append(
            Call("reduce-on-variety", run(argv), lambda r: _cli_ok(r) is not None)
        )

    # family-check: fixed by the shape seed alone
    for _ in range(CLI_FAMILY):
        params = shape.sample(UNITS, shape.randint(1, 2))
        argv = [
            "family-check",
            "--parameters=" + "; ".join(str(p) for p in params),
            "--power-bound=%d" % shape.randint(2, 4),
        ]
        if shape.random() < 0.5:
            argv.append("--extra")
        calls.append(
            Call(
                "family-check",
                run(argv),
                lambda r: (_cli_ok(r) or {}).get("pass") is True,
            )
        )

    # the golden corpus, one fixture per call, matched byte for byte
    corpus = json.loads((root / "src/epsgeom/data/corpus.json").read_text())
    for case in corpus["cases"]:
        want = (case["exit"], case["output"])
        calls.append(
            Call(
                "corpus " + case["name"],
                run(case["argv"]),
                lambda r, want=want: r == want,
            )
        )

    warmup = [
        run(["st", "3+2*eps"]),
        run(["verify-closure", "--roots=1+eps; eps^(-1)"]),
        run(["lift", "--poly=z1^2 - eps", "--at=0"]),
    ]
    return Workload("cli", calls, warmup)


_BUILDERS = {"flatness": _flatness, "ideals": _ideals, "cli": _cli}
