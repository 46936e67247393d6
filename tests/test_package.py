"""The package namespace: public names, lazily loaded layers, tracing.

calculus, hopf and verify are bound as module objects at `import qcalc`
and run their code on first use; these tests pin what stays the same
for a caller and for the per-layer tracer of perfbench.
"""

import importlib
import json
from pathlib import Path

import pytest

import qcalc

ROOT = Path(__file__).resolve().parents[1]

# Every public name, by the module that defines it.
PUBLIC = {
    "scalar": ("GaussRational", "LaurentScalar"),
    "algebra": ("AlgebraError", "NCPoly", "Presentation", "PresentationError",
                "RewritingCycleError", "UniverseMismatchError",
                "UnknownGeneratorError", "render_poly", "substitute"),
    "presentations": ("corrected_rule_diff", "get_presentation",
                      "grassmann_vs_differentials_crosscheck",
                      "leibniz_consistency_check", "norm_poly",
                      "shipped_names", "specialize"),
    "calculus": ("OMEGA_BAR_CANDIDATES", "apply_field", "cartan_maurer_d",
                 "conversion_closure_residuals", "da_from_w", "differential",
                 "extract_vector_fields", "nilpotency_residuals",
                 "omega_forms",
                 "one_form_consistency_residuals",
                 "recover_differentials_on_unit_sphere", "star",
                 "star_involution_residuals", "star_table",
                 "unit_norm_extension", "verify_d_star", "verify_lie_algebra",
                 "verify_omega_bar_identity"),
    "hopf": ("TensorPoly", "antipode", "antipode_square", "convolution", "coproduct",
             "counit", "reduce_norm_factors", "tensor", "verify_hopf_axioms"),
    "parser": ("ParseError", "UnknownSymbolError", "parse", "parse_scalar"),
    "report": ("CheckRecord", "ENGINE_VERSION", "SUITES", "VerificationReport"),
    "verify": ("run_suite",),
}


def test_all_keeps_its_names():
    names = [n for names in PUBLIC.values() for n in names]
    assert sorted(qcalc.__all__) == sorted(names)
    assert len(set(qcalc.__all__)) == len(qcalc.__all__)
    assert qcalc.__version__ == "0.1.0"


@pytest.mark.parametrize("module", sorted(PUBLIC))
def test_each_name_is_its_defining_modules_object(module):
    defining = importlib.import_module(f"qcalc.{module}")
    for name in PUBLIC[module]:
        assert getattr(qcalc, name) is getattr(defining, name), name


def test_star_import_and_dir_list_every_public_name():
    namespace = {}
    exec("from qcalc import *", namespace)
    for name in qcalc.__all__:
        assert namespace[name] is getattr(qcalc, name), name
    assert set(qcalc.__all__) <= set(dir(qcalc))


def test_an_unknown_attribute_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="no_such_name"):
        qcalc.no_such_name


def test_every_layer_is_a_module_attribute_straight_after_import(run_cold):
    code = ("import qcalc; print(sorted(n for n in "
            "('calculus', 'hopf', 'report', 'verify') if n in vars(qcalc)))")
    assert run_cold(code) == "['calculus', 'hopf', 'report', 'verify']\n"


# The tracer takes its modules from vars(qcalc) right after the import;
# a call that one lazily loaded layer makes into another must be counted.
TRACED = f"""
import json, sys
sys.path.insert(0, {str(ROOT / "perfbench")!r})
import qcalc
from layers import Tracer

tracer = Tracer()
tracer.install(qcalc)
qcalc.run_suite("hopf")
qcalc.run_suite("vector-fields")
print(json.dumps(tracer.calls))
"""


def test_the_layer_tracer_counts_calls_inside_lazily_loaded_layers(run_cold):
    calls = json.loads(run_cold(TRACED).splitlines()[-1])
    for label in ("hopf.coproduct", "hopf.verify_hopf_axioms",
                  "calculus.verify_lie_algebra",
                  "calculus.extract_vector_fields.quantum"):
        assert calls.get(label, 0) > 0, label
