"""Exact symbolic engine for the deformed quaternion algebra.

Normal forms over the ring of Gaussian-rational Laurent polynomials in
q, shipped presentations of the coordinate algebra and its
differential, one-form, and odd extensions, the Hopf structure with
norm localization, the star calculus, and verification suites over
every structural identity.
"""

from .scalar import GaussRational, LaurentScalar
from .algebra import (
    AlgebraError,
    NCPoly,
    Presentation,
    PresentationError,
    StepLimitExceeded,
    UniverseMismatchError,
    UnknownGeneratorError,
    render_poly,
    substitute,
)
from .presentations import (
    classical,
    corrected_rule_diff,
    get_presentation,
    grassmann_vs_differentials_crosscheck,
    leibniz_consistency_check,
    norm_poly,
    shipped_names,
    specialize,
)
from .calculus import (
    OMEGA_BAR_CANDIDATES,
    VECTOR_FIELD_CONVENTIONS,
    VectorField,
    cartan_maurer_d,
    conversion_closure_residuals,
    da_from_w,
    differential,
    extract_vector_fields,
    nilpotency_residuals,
    norm_differential,
    omega_forms,
    one_form_consistency_residuals,
    recover_differentials_on_unit_sphere,
    star,
    star_involution_residuals,
    star_table,
    unit_norm_extension,
    verify_d_star,
    verify_lie_algebra,
    verify_omega_bar_identity,
)
from .hopf import (
    TensorPoly,
    antipode,
    antipode_square,
    coproduct,
    counit,
    reduce_norm_factors,
    tensor,
    verify_hopf_axioms,
)
from .parser import ParseError, UnknownSymbolError, parse, parse_scalar
from .report import ENGINE_VERSION, CheckRecord, VerificationReport
from .verify import SUITES, run_suite

__version__ = ENGINE_VERSION

__all__ = [
    "AlgebraError",
    "CheckRecord",
    "ENGINE_VERSION",
    "GaussRational",
    "LaurentScalar",
    "NCPoly",
    "OMEGA_BAR_CANDIDATES",
    "ParseError",
    "Presentation",
    "PresentationError",
    "SUITES",
    "StepLimitExceeded",
    "TensorPoly",
    "UniverseMismatchError",
    "UnknownGeneratorError",
    "UnknownSymbolError",
    "VECTOR_FIELD_CONVENTIONS",
    "VectorField",
    "VerificationReport",
    "antipode",
    "antipode_square",
    "cartan_maurer_d",
    "classical",
    "conversion_closure_residuals",
    "coproduct",
    "corrected_rule_diff",
    "counit",
    "da_from_w",
    "differential",
    "extract_vector_fields",
    "get_presentation",
    "grassmann_vs_differentials_crosscheck",
    "leibniz_consistency_check",
    "nilpotency_residuals",
    "norm_differential",
    "norm_poly",
    "omega_forms",
    "one_form_consistency_residuals",
    "parse",
    "parse_scalar",
    "recover_differentials_on_unit_sphere",
    "reduce_norm_factors",
    "render_poly",
    "run_suite",
    "shipped_names",
    "specialize",
    "star",
    "star_involution_residuals",
    "star_table",
    "substitute",
    "tensor",
    "unit_norm_extension",
    "verify_d_star",
    "verify_hopf_axioms",
    "verify_lie_algebra",
    "verify_omega_bar_identity",
]
