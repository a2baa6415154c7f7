"""Exact infinitesimal arithmetic and shadows of affine varieties.

The core field is the rational Levi-Civita field: finite formal sums of
rational powers of an infinitesimal eps with Gaussian-rational
coefficients, ordered by valuation.  On top of it sit sparse multivariate
polynomials over either the standard Gaussian rationals or the extended
field, a Groebner engine that works over both, shadow and halo geometry
(standard parts of points, varieties, and roots), finite slices of the
infinite-variable ring, and transfer checks between the two coefficient
fields.
"""

from .errors import EpsgeomError
from .gaussian import GaussianRational, gaussian_poly_roots
from .levicivita import (
    INF,
    LCNumber,
    TruncationOrder,
    lc_abs_cmp,
    lc_classify,
    lc_inverse,
    lc_nth_root,
    lc_st,
)
from .parser import (
    format_lc,
    format_point,
    format_poly,
    parse_generators,
    parse_lc,
    parse_point,
    parse_poly,
)
from .poly import (
    AffineSubstitution,
    Monomial,
    Poly,
    apply_substitution,
    max_abs_normalize,
    poly_eval,
    poly_shadow,
    split_inf_ap,
)
from .groebner import (
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
    module_member,
    module_syzygies,
    normal_form,
    radical_member,
    syzygy_basis,
)
from .shadow import (
    PointAssignment,
    VarietyPresentation,
    halo_member,
    newton_puiseux_lift,
    open_shadow_witness,
    point_shadow,
    reduce_on_variety,
    verify_shadow_closure,
)
from .varieties import (
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
from .transfer import (
    PolyMatrix,
    exactness_transfer_check,
    flatness_witness,
    kernel_extension_check,
    tensor_iso_check,
)

__version__ = "0.1.0"
