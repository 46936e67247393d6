"""Per-layer spans and counters, installed around qcalc from outside.

The tracer replaces selected functions and methods of the imported
qcalc modules with timing wrappers; the source of qcalc is not touched.
Spans nest on one stack, so a layer's self time is its span time minus
the time of the wrapped calls made inside it.  An inclusive time (`.s`)
counts only the outermost call of a name, so recursion is not counted
twice.  The tracer assumes one thread; the traced verify run uses jobs=1.
"""

import functools
from collections import Counter, defaultdict
from time import perf_counter

# Every per-layer metric the traced run prints, with its unit.  Layers a
# workload never enters read 0.
SUITES = ("dga", "hopf", "classical", "grassmann", "vector-fields")

METRICS = {
    "scalar.mul.calls": "count",
    "scalar.add.calls": "count",
    "scalar.self_s": "s",
    "algebra.normal_form.calls": "count",
    "algebra.normal_form.self_s": "s",
    "algebra.normal_form.max_terms": "count",
    "algebra.ncpoly_mul.calls": "count",
    "algebra.ncpoly_mul.self_s": "s",
    "algebra.check_local_confluence.s": "s",
    "presentations.get_presentation.s": "s",
    "presentations.specialize.s": "s",
    "presentations.leibniz_consistency_check.s": "s",
    "presentations.grassmann_vs_differentials_crosscheck.s": "s",
    "parser.parse.calls": "count",
    "parser.parse.self_s": "s",
    "calculus.extract_vector_fields.quantum_s": "s",
    "calculus.extract_vector_fields.classical_s": "s",
    "calculus.verify_lie_algebra.s": "s",
    "calculus.differential.calls": "count",
    "calculus.differential.self_s": "s",
    "calculus.nilpotency_residuals.s": "s",
    "calculus.conversion_closure_residuals.s": "s",
    "calculus.one_form_consistency_residuals.s": "s",
    "calculus.star.s": "s",
    "hopf.coproduct.calls": "count",
    "hopf.coproduct.s": "s",
    "hopf.tensor_mul.calls": "count",
    "hopf.tensor_normal_form.self_s": "s",
    "hopf.antipode.s": "s",
    "hopf.verify_hopf_axioms.s": "s",
    **{f"verify.suite.{name}.s": "s" for name in SUITES},
    "verify.checks.pass": "count",
    "verify.checks.finding": "count",
    "verify.checks.fail": "count",
    "report.to_json.s": "s",
    "report.render_table.s": "s",
    "cli.process_s": "s",
    "cli.import_s": "s",
    "cli.main.s": "s",
    "trace.overhead_s": "s",
}


class Tracer:
    def __init__(self):
        self.calls = Counter()
        self.inclusive = defaultdict(float)
        self.self_time = defaultdict(float)
        self.max_terms = 0
        self._stack = [[0.0]]
        self._active = Counter()

    def wrap(self, fn, name, result_hook=None):
        """Wrapper recording calls, inclusive and self time under name.

        name may be a function of the call's arguments.
        """
        stack, active = self._stack, self._active
        calls, inclusive, self_time = self.calls, self.inclusive, self.self_time

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name(*args, **kwargs) if callable(name) else name
            outer = active[label] == 0
            active[label] += 1
            frame = [0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                stack[-1][0] += elapsed
                active[label] -= 1
                calls[label] += 1
                self_time[label] += elapsed - frame[0]
                if outer:
                    inclusive[label] += elapsed
            if result_hook is not None:
                result_hook(result)
            return result
        return traced

    def _note_terms(self, poly):
        self.max_terms = max(self.max_terms, len(poly.terms))

    def install(self, qcalc):
        """Wrap the layer boundaries of an imported qcalc package."""
        modules = [m for n, m in sorted(vars(qcalc).items())
                   if n in ("algebra", "calculus", "cli", "hopf", "parser",
                            "presentations", "report", "scalar", "verify")]
        modules.append(qcalc)

        def patch_function(original, name, result_hook=None):
            wrapper = self.wrap(original, name, result_hook)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)

        def patch_method(cls, attrs, name, result_hook=None):
            for attr in attrs:
                setattr(cls, attr, self.wrap(getattr(cls, attr), name,
                                             result_hook))

        scalar = qcalc.scalar.LaurentScalar
        patch_method(scalar, ("__mul__", "__rmul__"), "scalar.mul")
        patch_method(scalar, ("__add__", "__radd__"), "scalar.add")

        pres = qcalc.algebra.Presentation
        patch_method(pres, ("normal_form",), "algebra.normal_form",
                     self._note_terms)
        patch_method(pres, ("check_local_confluence",),
                     "algebra.check_local_confluence")
        patch_method(qcalc.algebra.NCPoly, ("__mul__", "__rmul__"),
                     "algebra.ncpoly_mul")

        for fname in ("get_presentation", "specialize",
                      "leibniz_consistency_check",
                      "grassmann_vs_differentials_crosscheck"):
            patch_function(getattr(qcalc.presentations, fname),
                           f"presentations.{fname}")
        patch_function(qcalc.parser.parse, "parser.parse")

        def field_kind(cap, convention="bracket", classical=False):
            kind = "classical" if classical else "quantum"
            return f"calculus.extract_vector_fields.{kind}"
        patch_function(qcalc.calculus.extract_vector_fields, field_kind)
        for fname in ("verify_lie_algebra", "differential",
                      "nilpotency_residuals", "conversion_closure_residuals",
                      "one_form_consistency_residuals", "star"):
            patch_function(getattr(qcalc.calculus, fname), f"calculus.{fname}")

        tensor = qcalc.hopf.TensorPoly
        patch_method(tensor, ("__mul__", "__rmul__"), "hopf.tensor_mul")
        patch_method(tensor, ("normal_form",), "hopf.tensor_normal_form")
        for fname in ("coproduct", "antipode", "verify_hopf_axioms"):
            patch_function(getattr(qcalc.hopf, fname), f"hopf.{fname}")

        report = qcalc.report.VerificationReport
        patch_method(report, ("to_json",), "report.to_json")
        patch_method(report, ("render_table",), "report.render_table")

    def metrics(self):
        """Layer values keyed by metric name; the caller adds verify/cli."""
        calls, incl, self_t = self.calls, self.inclusive, self.self_time
        out = {
            "scalar.mul.calls": calls["scalar.mul"],
            "scalar.add.calls": calls["scalar.add"],
            "scalar.self_s": self_t["scalar.mul"] + self_t["scalar.add"],
            "algebra.normal_form.calls": calls["algebra.normal_form"],
            "algebra.normal_form.self_s": self_t["algebra.normal_form"],
            "algebra.normal_form.max_terms": self.max_terms,
            "algebra.ncpoly_mul.calls": calls["algebra.ncpoly_mul"],
            "algebra.ncpoly_mul.self_s": self_t["algebra.ncpoly_mul"],
            "parser.parse.calls": calls["parser.parse"],
            "parser.parse.self_s": self_t["parser.parse"],
            "calculus.extract_vector_fields.quantum_s":
                incl["calculus.extract_vector_fields.quantum"],
            "calculus.extract_vector_fields.classical_s":
                incl["calculus.extract_vector_fields.classical"],
            "calculus.differential.calls": calls["calculus.differential"],
            "calculus.differential.self_s": self_t["calculus.differential"],
            "hopf.coproduct.calls": calls["hopf.coproduct"],
            "hopf.tensor_mul.calls": calls["hopf.tensor_mul"],
            "hopf.tensor_normal_form.self_s": self_t["hopf.tensor_normal_form"],
        }
        for label in ("algebra.check_local_confluence",
                      "presentations.get_presentation",
                      "presentations.specialize",
                      "presentations.leibniz_consistency_check",
                      "presentations.grassmann_vs_differentials_crosscheck",
                      "calculus.verify_lie_algebra",
                      "calculus.nilpotency_residuals",
                      "calculus.conversion_closure_residuals",
                      "calculus.one_form_consistency_residuals",
                      "calculus.star", "hopf.coproduct", "hopf.antipode",
                      "hopf.verify_hopf_axioms", "report.to_json",
                      "report.render_table"):
            out[f"{label}.s"] = incl[label]
        return out
