"""Transfer checks between standard and eps-extended coefficients.

Kernels, images and exactness of standard polynomial matrices are compared
across the two coefficient fields; faithful flatness shows up concretely as
the solvability of extended linear systems in terms of standard syzygies.
Module runs eps-free columns over Q(i) whatever their domain (see Module),
so an extended run would replay the standard one term for term: each check
runs the engine once per basis and promotes its kernel or verdict.
"""

from .errors import InvalidInput, NotAComplex, NotASolution
from .groebner import Module, module_syzygies, syzygy_basis
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

    def to_extended(self):
        if self.domain == EXTENDED:
            return self
        return PolyMatrix(
            [[e.to_extended() for e in r] for r in self.entries]
        )

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

    def to_json(self):
        return [[format_poly(e) for e in r] for r in self.entries]

    def __repr__(self):
        return "PolyMatrix(%dx%d, %s)" % (*self.shape, self.domain)


def flatness_witness(a, x):
    """Express an extended solution of sum a_i*x_i = 0 over standard syzygies.

    a is a standard scalar row, x an extended solution vector; the result
    r satisfies x = sum r_i * beta_i where beta is the canonical standard
    syzygy basis of a.  That such r always exist is the flatness of the
    coefficient extension.
    """
    a = list(a)
    x = list(x)
    if len(a) != len(x):
        raise InvalidInput("coefficient row and solution have unequal lengths")
    if any(g.domain != STANDARD for g in a):
        raise InvalidInput("the coefficient row must be standard")
    acc = Poly.zero(EXTENDED)
    for g, xi in zip(a, x):
        acc = acc + g * xi
    if acc:
        raise NotASolution("sum a_i*x_i is not zero")
    beta = syzygy_basis(a)
    target = [xi.to_extended() for xi in x]
    r = Module(beta.generators).member(target)
    if r is None:
        raise InvalidInput("internal: solution escapes the standard syzygies")
    return r


def _kernel_comparison(A):
    """ker(A) over both domains, each kernel tested against the other's span.

    The extended kernel is the standard one promoted (see the module
    docstring), so its span has the same basis and one membership pass
    tests both.  Returns the report and, for each extended kernel vector,
    its cofactors over the standard kernel (None outside its span).
    """
    ker_std = module_syzygies(A.columns())
    ker_ext = [[g.to_extended() for g in v] for v in ker_std]
    span = Module(ker_std)
    witnesses = [span.member(v) for v in ker_ext]
    in_span = all(r is not None for r in witnesses)
    report = {
        "shape": list(A.shape),
        "standard_kernel": [[format_poly(g) for g in v] for v in ker_std],
        "extended_kernel": [[format_poly(g) for g in v] for v in ker_ext],
        "extended_in_standard_span": in_span,
        "standard_in_extended_span": in_span,
        "pass": in_span,
    }
    return report, witnesses


def kernel_extension_check(A):
    """Compare ker(A) over standard and extended coefficients.

    The standard kernel is computed once and promoted (_kernel_comparison);
    membership of each promoted generator in the standard span is the
    kernel half of the flatness transfer.
    """
    if A.domain != STANDARD:
        raise InvalidInput("expected a standard-domain matrix")
    return _kernel_comparison(A)[0]


def _exact_over(cols_a, cols_b):
    ker = module_syzygies(cols_b)
    image, ker_span = Module(cols_a), Module(ker)
    return all(image.member(v) is not None for v in ker) and all(
        ker_span.member(c) is not None for c in cols_a
    )


def exactness_transfer_check(A, B):
    """Decide im(A) = ker(B) over both coefficient fields and compare.

    Requires B*A = 0.  im(A) = ker(B) is decided once, over the standard
    field, and promoted (see the module docstring), so the verdicts agree.
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
    exact = _exact_over(A.columns(), B.columns())
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

    Surjectivity is structural (generators map onto generators), so the
    verified content is injectivity: every extended-domain relation among
    the presented module's generators must be an extended combination of
    the standard relations, with the combinations reported as witnesses.
    A zero presentation (free module) passes outright.
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
    kc, cofactors = _kernel_comparison(P)
    witnesses = [
        None if r is None else [format_poly(g) for g in r] for r in cofactors
    ]
    return {
        "shape": list(P.shape),
        "free": False,
        "surjectivity": "structural",
        "kernel_check": kc,
        "witnesses": witnesses,
        "pass": kc["pass"],
    }
