"""Transfer checks between standard and eps-extended coefficients.

Kernels, images and exactness of standard polynomial matrices are compared
across the two coefficient fields; faithful flatness shows up concretely as
the solvability of extended linear systems in terms of standard syzygies.
Module runs eps-free columns over Q(i) whatever their domain (see Module),
so an extended run would replay the standard one term for term.  So each
check computes each Groebner basis at most once, and none for a matrix of
full column rank at one point, whose kernel is {0} (see
Module._syzygy_rows).  Three facts hold by construction: the extended
kernel is the standard one promoted, each promoted kernel vector has the
unit vector as its cofactors over the standard kernel, and B*A = 0 is the
inclusion im(A) in ker(B).  What is still computed is ker(A), the
inclusion ker(B) in im(A) by membership, and flatness witnesses by
membership in the span of the standard syzygies.  A witness needs one run
too: the syzygy run's reduced basis is the tagged basis of their span, and
a solution in that span solves sum a_i*x_i = 0 by construction, so the sum
is formed only for an x outside it.
"""

from .errors import InvalidInput, NotAComplex, NotASolution
from .groebner import Ideal, Module, module_syzygies
from .parser import format_poly, parse_poly
from .poly import EXTENDED, STANDARD, Poly


class PolyMatrix:
    """Rectangular polynomial matrix over one coefficient domain.

    Read as the module map R^cols -> R^rows sending the j-th basis
    vector to the j-th column.  Mixed-domain entries are promoted so the
    domain tag stays uniform.
    """

    def __init__(self, entries):
        rows = [list(r) for r in entries]
        if not rows or not rows[0]:
            raise InvalidInput("a matrix needs at least one entry")
        width = len(rows[0])
        for r in rows:
            if len(r) != width:
                raise InvalidInput("matrix rows have unequal lengths")
            for e in r:
                if not isinstance(e, Poly):
                    raise InvalidInput("matrix entries must be Poly")
        domain = STANDARD
        if any(e.domain == EXTENDED for r in rows for e in r):
            domain = EXTENDED
            rows = [[e.to_extended() for e in r] for r in rows]
        self.entries = tuple(tuple(r) for r in rows)
        self.domain = domain

    @staticmethod
    def from_strings(rows):
        return PolyMatrix([[parse_poly(s) for s in r] for r in rows])

    @property
    def shape(self):
        return (len(self.entries), len(self.entries[0]))

    def entry(self, i, j):
        return self.entries[i][j]

    def column(self, j):
        return [r[j] for r in self.entries]

    def columns(self):
        return [self.column(j) for j in range(self.shape[1])]

    def is_zero(self):
        return not any(e for r in self.entries for e in r)

    def mul(self, other):
        """Matrix product self * other."""
        n, m = self.shape
        m2, p = other.shape
        if m != m2:
            raise InvalidInput(
                "cannot multiply %dx%d by %dx%d" % (n, m, m2, p)
            )
        out = []
        for i in range(n):
            row = []
            for j in range(p):
                acc = Poly.zero(self.domain)
                for k in range(m):
                    acc = acc + self.entries[i][k] * other.entries[k][j]
                row.append(acc)
            out.append(row)
        return PolyMatrix(out)

    def __repr__(self):
        return "PolyMatrix(%dx%d, %s)" % (*self.shape, self.domain)


def flatness_witness(a, x):
    """Express an extended solution of sum a_i*x_i = 0 over standard syzygies.

    a is a standard scalar row, x an extended solution vector; the result
    r satisfies x = sum r_i * beta_i where beta is the canonical standard
    syzygy basis of a.  That such r always exist is the flatness of the
    coefficient extension.

    One engine run gives beta, and x is reduced against beta as its own
    tagged basis (Module._syzygy_member); beta is not computed again.  Found
    r, x = sum r_i * beta_i solves the row, since each beta_i does, so no
    product is formed.  Only when x is outside beta's span is sum a_i*x_i
    formed: NotASolution if it is nonzero.  So a non-solution pays for the
    syzygy run before it raises, as every solution with the same row does.
    """
    a = list(a)
    x = list(x)
    if len(a) != len(x):
        raise InvalidInput("coefficient row and solution have unequal lengths")
    if any(g.domain != STANDARD for g in a):
        raise InvalidInput("the coefficient row must be standard")
    r = Ideal(a)._syzygy_member([xi.to_extended() for xi in x])
    if r is None:
        acc = Poly.zero(EXTENDED)
        for g, xi in zip(a, x):
            acc = acc + g * xi
        if acc:
            raise NotASolution("sum a_i*x_i is not zero")
        raise InvalidInput("internal: solution escapes the standard syzygies")
    return r


def _kernel_comparison(A):
    """ker(A) over both domains, each kernel in the other's span.

    At most one engine run gives the monic reduced basis of the standard
    kernel; a matrix of full column rank at one point needs none.
    The extended kernel is that basis promoted, and formats the same (an
    eps^0 coefficient formats as its Q(i) value).  Reducing basis vector k
    against the basis leaves cofactor 1 at k and 0 elsewhere, so both span
    inclusions hold by construction.  Returns the report and, for each
    extended kernel vector, its cofactors over the standard kernel as
    formatted texts.
    """
    ker = module_syzygies(A.columns())
    kernel = [[format_poly(g) for g in v] for v in ker]
    n = len(ker)
    witnesses = [["1" if j == k else "0" for j in range(n)] for k in range(n)]
    report = {
        "shape": list(A.shape),
        "standard_kernel": kernel,
        "extended_kernel": kernel,
        "extended_in_standard_span": True,
        "standard_in_extended_span": True,
        "pass": True,
    }
    return report, witnesses


def kernel_extension_check(A):
    """Compare ker(A) over standard and extended coefficients.

    ker(A) is computed once; the extended kernel, and each kernel's
    inclusion in the other's span, hold by construction (_kernel_comparison).
    """
    if A.domain != STANDARD:
        raise InvalidInput("expected a standard-domain matrix")
    return _kernel_comparison(A)[0]


def exactness_transfer_check(A, B):
    """Decide im(A) = ker(B) over both coefficient fields and compare.

    Requires B*A = 0, which is the inclusion im(A) in ker(B).  What is
    computed is ker(B) and, by membership in im(A), the inclusion ker(B) in
    im(A), once over the standard field; the extended verdict is the same
    one promoted (see the module docstring), so the verdicts agree.
    """
    if A.domain != STANDARD or B.domain != STANDARD:
        raise InvalidInput("expected standard-domain matrices")
    if B.shape[1] != A.shape[0]:
        raise InvalidInput(
            "shapes %dx%d and %dx%d do not compose"
            % (*B.shape, *A.shape)
        )
    if not B.mul(A).is_zero():
        raise NotAComplex("B*A is not zero")
    ker, image = module_syzygies(B.columns()), Module(A.columns())
    exact = all(image.member(v) is not None for v in ker)
    return {
        "shapes": {"first": list(A.shape), "second": list(B.shape)},
        "complex": True,
        "exact_standard": exact,
        "exact_extended": exact,
        "verdicts_agree": True,
        "pass": True,
    }


def tensor_iso_check(P):
    """Check the base-change map for the module presented by P.

    Surjectivity is structural (generators map onto generators), and so is
    injectivity: every extended-domain relation among the presented
    module's generators is an extended combination of the standard
    relations, since the extended kernel is the standard one promoted.  The
    combinations, unit vectors (_kernel_comparison), are the witnesses; what
    is computed is ker(P).  A zero presentation (free module) passes outright.
    """
    if P.domain != STANDARD:
        raise InvalidInput("expected a standard-domain matrix")
    if P.is_zero():
        return {
            "shape": list(P.shape),
            "free": True,
            "surjectivity": "structural",
            "kernel_check": None,
            "witnesses": [],
            "pass": True,
        }
    kc, witnesses = _kernel_comparison(P)
    return {
        "shape": list(P.shape),
        "free": False,
        "surjectivity": "structural",
        "kernel_check": kc,
        "witnesses": witnesses,
        "pass": kc["pass"],
    }
