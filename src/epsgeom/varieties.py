"""Finitely presented slices of the infinite-variable polynomial ring.

Every ideal here is given by a finite generator list, so all work happens
in the subring on the variables that actually occur; indices are otherwise
unbounded, and variables absent from a presentation are unconstrained.
"""

from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    DuplicateParameter,
    InvalidInput,
    ZeroDenominator,
    ZeroParameter,
)
from .gaussian import GaussianRational, QI_ONE, QI_ZERO
from .groebner import (
    Ideal,
    buchberger,
    ideal_combine,
    ideal_member,
    radical_member,
)
from .levicivita import LCFraction, LCNumber
from .parser import format_gaussian, format_lc, format_poly
from .poly import MONO_ONE, STANDARD, AffineSubstitution, Monomial, Poly, poly_eval
from .shadow import PointAssignment


class FamilySpec:
    """A finite slice of the hyperbola family h_a = z_a*(z0 - a) - 1.

    The pole variable z0 takes index 1, the i-th parameter's companion
    variable takes index i+1, and the optional extra generator (the one
    pairing a companion with the pole itself, z*z0 - 1) takes the last
    index.  Parameters must be distinct and nonzero.
    """

    def __init__(self, parameters, include_extra=False):
        vals = []
        for a in parameters:
            if isinstance(a, (int, Fraction)):
                a = GaussianRational(a)
            if not isinstance(a, GaussianRational):
                raise InvalidInput("family parameters must be standard values")
            if not a:
                raise ZeroParameter("family parameters must be nonzero")
            if a in vals:
                raise DuplicateParameter(
                    "parameter %s repeats" % format_gaussian(a)
                )
            vals.append(a)
        self.parameters = tuple(vals)
        self.include_extra = bool(include_extra)

    pole_variable = 1

    def parameter_variable(self, i):
        """Variable index for the i-th parameter (0-based i)."""
        return i + 2

    @property
    def extra_variable(self):
        if not self.include_extra:
            return None
        return len(self.parameters) + 2

    def variable_map(self):
        return {
            "pole": self.pole_variable,
            "parameters": [
                self.parameter_variable(i) for i in range(len(self.parameters))
            ],
            "extra": self.extra_variable,
        }

    def to_json(self):
        return {
            "parameters": [format_gaussian(a) for a in self.parameters],
            "include_extra": self.include_extra,
            "variable_map": self.variable_map(),
        }

    def __repr__(self):
        return "FamilySpec(%r, include_extra=%r)" % (
            [format_gaussian(a) for a in self.parameters],
            self.include_extra,
        )


def build_family(spec):
    """Generator list z_a*(z0 - a) - 1, plus z*z0 - 1 when requested."""
    z0 = Poly.variable(spec.pole_variable)
    one = Poly.constant(1)
    gens = []
    for i, a in enumerate(spec.parameters):
        za = Poly.variable(spec.parameter_variable(i))
        gens.append(za * (z0 - Poly.constant(a)) - one)
    if spec.include_extra:
        gens.append(Poly.variable(spec.extra_variable) * z0 - one)
    return gens


def _fresh_positive_integer(taken):
    c = 1
    while GaussianRational(c) in taken:
        c += 1
    return c


def family_checks(spec, power_bound=6):
    """Consistency report for a finite family slice.

    Checks that the generated ideal is proper, that no small power of the
    pole variable falls in it, and that an explicit common zero exists:
    with no extra generator the zero pins z0 to 0 and each companion to
    -1/a; with the extra generator the pole moves to the smallest positive
    integer c outside the parameters and the companions to 1/(c - a), the
    extra one to 1/c.  Field order of the report is fixed.
    """
    gens = build_family(spec)
    ideal = Ideal(gens)
    proper = ideal.is_proper()

    # an ideal holding z0^k holds every higher power, so one test covers all
    z0 = Poly.variable(spec.pole_variable)
    powers_excluded = power_bound < 1 or not ideal_member(z0 ** power_bound, ideal)

    if spec.include_extra:
        c = GaussianRational(_fresh_positive_integer(spec.parameters))
        values = {spec.pole_variable: c}
        for i, a in enumerate(spec.parameters):
            values[spec.parameter_variable(i)] = QI_ONE / (c - a)
        values[spec.extra_variable] = QI_ONE / c
    else:
        values = {spec.pole_variable: QI_ZERO}
        for i, a in enumerate(spec.parameters):
            values[spec.parameter_variable(i)] = -(QI_ONE / a)
    point = PointAssignment(
        {v: LCNumber.from_gaussian(a) for v, a in values.items()}
    )
    verified = all(not poly_eval(g, point) for g in gens)

    return {
        "family": spec.to_json(),
        "generators": [format_poly(g) for g in gens],
        "proper": proper,
        "power_bound": int(power_bound),
        "pole_powers_excluded": powers_excluded,
        "witness": {
            "z%d" % v: format_gaussian(values[v]) for v in sorted(values)
        },
        "witness_verified": verified,
        "pass": bool(proper and powers_excluded and verified),
    }


@dataclass(frozen=True)
class PointIdealResult:
    """Outcome of point-ideal recognition: the point, or a reason."""

    point: object
    reason: str


def is_point_ideal(ideal):
    """Recognize ideals of the shape <z_i - a_i> and read off the point.

    Decides from the reduced grevlex basis: a point ideal has the basis
    {z_i - a_i} under every order, so every element must be c*z_i - b for a
    single variable, and the point has a_i = b/c.  All elements are checked
    before any coordinate is read, so the reason does not depend on the
    order of the basis.  Over the standard domain c is 1.  Over the extended
    domain c is 1 plus an infinitesimal; the point is returned when every
    a_i is a finite Levi-Civita sum (so z1 - eps gives z1 = eps), and
    otherwise the reason says a coordinate is not one.  Variables that never
    occur are unconstrained, so the returned assignment covers exactly the
    constrained ones.  The unit ideal reports reason "improper".
    """
    gens = ideal.generators if isinstance(ideal, Ideal) else tuple(ideal)
    basis = buchberger(gens)
    if any(g.is_constant() for g in basis):
        return PointIdealResult(None, "improper")
    if any(len(g.support()) != 1 or g.total_degree() != 1 for g in basis):
        return PointIdealResult(
            None, "a basis element is not linear in a single variable"
        )
    values = {}
    for g in basis:
        sup = g.support()
        a = -g.coefficient(MONO_ONE)
        if g.domain != STANDARD:
            c = g.coefficient(Monomial(((sup[0], 1),)))
            a = LCFraction(a, c).to_lcnumber()
            if a is None:
                return PointIdealResult(
                    None, "a coordinate is not a finite Levi-Civita sum"
                )
        values[sup[0]] = a
    return PointIdealResult(PointAssignment(values), "")


def radical_nullstellensatz(g, ideal):
    """Decide g in the radical of the given finitely generated ideal.

    Everything in sight already lives in the subring on the occurring
    variables, and radical membership is unchanged by passing to it, so
    this contracts by construction and delegates to the Rabinowitsch test.
    """
    if not isinstance(ideal, Ideal):
        ideal = Ideal(tuple(ideal))
    return radical_member(g, ideal)


def variety_identity_check(I, J):
    """Ideal-level form of the product/intersection/sum variety identities.

    Verifies rad(I*J) = rad(I cap J) by mutual generator radical
    membership, and the containments I, J <= I + J by plain membership.
    """
    if not isinstance(I, Ideal):
        I = Ideal(tuple(I))
    if not isinstance(J, Ideal):
        J = Ideal(tuple(J))
    prod = ideal_combine("product", I, J)
    inter = ideal_combine("intersection", I, J)
    total = ideal_combine("sum", I, J)
    prod_in = all(radical_member(g, inter) for g in prod.generators)
    inter_in = all(radical_member(g, prod) for g in inter.generators)
    sum_first = all(ideal_member(g, total) for g in I.generators)
    sum_second = all(ideal_member(g, total) for g in J.generators)
    return {
        "product_in_radical_of_intersection": prod_in,
        "intersection_in_radical_of_product": inter_in,
        "sum_contains_first": sum_first,
        "sum_contains_second": sum_second,
        "pass": bool(prod_in and inter_in and sum_first and sum_second),
    }


class RationalMap:
    """A sequence of rational components g_i/f_i, possibly lazily given.

    Components materialize on demand and are validated then: both parts
    standard polynomials, denominators nonzero.
    """

    def __init__(self, components):
        self._source = iter(components)
        self._taken = []

    @staticmethod
    def from_denominators(dens):
        one = Poly.constant(1)
        return RationalMap((one, d) for d in dens)

    def take(self, count):
        """The first `count` components as (numerator, denominator) pairs."""
        if count < 0:
            raise InvalidInput("cannot take %d components" % count)
        while len(self._taken) < count:
            try:
                num, den = next(self._source)
            except StopIteration:
                raise InvalidInput(
                    "the map has only %d components" % len(self._taken)
                ) from None
            if not isinstance(num, Poly) or not isinstance(den, Poly):
                raise InvalidInput("components must be pairs of Poly")
            if num.domain != STANDARD or den.domain != STANDARD:
                raise InvalidInput("rational map components must be standard")
            if not den:
                raise ZeroDenominator(
                    "component %d has a zero denominator"
                    % (len(self._taken) + 1)
                )
            self._taken.append((num, den))
        return list(self._taken[:count])

    def component(self, i):
        """1-based component access."""
        if i < 1:
            raise InvalidInput("components are numbered from 1, not %d" % i)
        return self.take(i)[i - 1]


def domain_witness(phi, count):
    """A standard point where the first `count` denominators are nonzero.

    Greedy grid search: each occurring variable in turn takes the smallest
    value in 0..(degree sum + 1) keeping the partially evaluated product
    of denominators nonzero.  The grid exceeds the product's degree in any
    one variable, so a value always exists.
    """
    dens = [den for _num, den in phi.take(count)]
    product = Poly.constant(1)
    for den in dens:
        product = product * den
    top = sum(den.total_degree() for den in dens) + 1
    witness = {}
    current = product
    for v in sorted(product.support()):
        if v not in current.support():
            # already irrelevant after earlier substitutions
            witness[v] = QI_ZERO
            continue
        for c in range(top + 1):
            sub = {v: Poly.constant(GaussianRational(c))}
            for u in current.support():
                if u != v:
                    sub[u] = Poly.variable(u)
            cand = AffineSubstitution(sub).apply(current)
            if cand:
                current = cand
                witness[v] = GaussianRational(c)
                break
        else:
            raise InvalidInput("internal: witness grid exhausted")
    point = PointAssignment(
        {v: LCNumber.from_gaussian(a) for v, a in witness.items()}
    )
    for den in dens:
        if not poly_eval(den, point):
            raise InvalidInput("internal: witness fails a denominator")
    return point


def domain_witness_report(phi, count):
    """domain_witness plus the ideal-theoretic certificate.

    The certificate adjoins fresh w_i and checks that <1 - w_i*f_i> stays
    proper, the membership form of "the denominators have a common
    nonvanishing locus".
    """
    comps = phi.take(count)
    dens = [den for _num, den in comps]
    point = domain_witness(phi, count)
    values = [poly_eval(den, point) for den in dens]
    base = 0
    for den in dens:
        if den.support():
            base = max(base, max(den.support()))
    cert_gens = []
    one = Poly.constant(1)
    for k, den in enumerate(dens):
        w = Poly.variable(base + 1 + k)
        cert_gens.append(one - w * den)
    certificate = Ideal(cert_gens).is_proper()
    return {
        "count": int(count),
        "denominators": [format_poly(d) for d in dens],
        "witness": {
            "z%d" % v: format_gaussian(point[v].standard_part())
            for v in point.support()
        },
        "denominator_values": [format_lc(val) for val in values],
        "certificate_proper": certificate,
        "pass": bool(all(bool(v) for v in values) and certificate),
    }
