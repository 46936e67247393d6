"""Exact symbolic engine for the deformed quaternion algebra.

Normal forms over the ring of Gaussian-rational Laurent polynomials in
q, shipped presentations of the coordinate algebra and its
differential, one-form, and odd extensions, the Hopf structure with
norm localization, the star calculus, and verification suites over
every structural identity.
"""

from types import ModuleType as _ModuleType

from .scalar import GaussRational, LaurentScalar
from .algebra import (
    AlgebraError,
    NCPoly,
    Presentation,
    PresentationError,
    RewritingCycleError,
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
from .parser import ParseError, UnknownSymbolError, parse, parse_scalar
from .report import ENGINE_VERSION, SUITES, CheckRecord, VerificationReport


def _lazy_submodule(name):
    """The submodule qcalc.<name>, bound now; its code runs on first use."""
    import importlib.util
    import sys
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


# The calculus, the Hopf structure and the suites are layered on the
# rewriting core and load on first use, so a process that only reduces
# normal forms never compiles them.  The module objects exist from the
# start, so vars(qcalc) holds every layer.
calculus = _lazy_submodule("calculus")
hopf = _lazy_submodule("hopf")
verify = _lazy_submodule("verify")

_LAZY_NAMES = {
    **dict.fromkeys((
        "OMEGA_BAR_CANDIDATES",
        "apply_field",
        "cartan_maurer_d",
        "conversion_closure_residuals",
        "da_from_w",
        "differential",
        "extract_vector_fields",
        "nilpotency_residuals",
        "omega_forms",
        "one_form_consistency_residuals",
        "recover_differentials_on_unit_sphere",
        "star",
        "star_involution_residuals",
        "star_table",
        "unit_norm_extension",
        "verify_d_star",
        "verify_lie_algebra",
        "verify_omega_bar_identity",
    ), calculus),
    **dict.fromkeys((
        "TensorPoly",
        "antipode",
        "antipode_square",
        "convolution",
        "coproduct",
        "counit",
        "reduce_norm_factors",
        "tensor",
        "verify_hopf_axioms",
    ), hopf),
    "run_suite": verify,
}


def __getattr__(name):
    module = _LAZY_NAMES.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(module, name)


def __dir__():
    return sorted({*globals(), *_LAZY_NAMES})


__version__ = ENGINE_VERSION

# Every public name: each one the imports above bind, and each lazy one.
__all__ = sorted({name for name, value in globals().items()
                  if not name.startswith("_") and not isinstance(value, _ModuleType)}
                 | _LAZY_NAMES.keys())
