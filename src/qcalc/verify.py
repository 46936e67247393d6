"""Verification suites over the whole engine.

Each suite is a generator that computes its checks one after another
and yields one CheckRecord per check.  The runner sets each record's ms
to the time since the previous check of the same suite, so a suite's
set-up and each stage several checks share are charged to the first
check after them, and assembles a deterministic report sorted by check
id.  A check that contradicts its contract is a fail; a documented
discrepancy or informational value is a finding and never fails a run.
Residuals are rendered in the word order of the presentation they were
reduced in.
"""

import random
from time import perf_counter

from .algebra import NCPoly, render_poly
from .calculus import (
    OMEGA_BAR_CANDIDATES,
    cartan_maurer_d,
    conversion_closure_residuals,
    da_from_w,
    nilpotency_residuals,
    one_form_consistency_residuals,
    recover_differentials_on_unit_sphere,
    star,
    star_involution_residuals,
    star_table,
    verify_d_star,
    verify_lie_algebra,
    verify_omega_bar_identity,
)
from .hopf import TensorPoly, verify_hopf_axioms
from .presentations import (
    corrected_rule_diff,
    get_presentation,
    grassmann_vs_differentials_crosscheck,
    leibniz_consistency_check,
    qp,
    rat,
)
from .report import SUITES, CheckRecord, VerificationReport

# degree caps of the vector-field tabulations the report checks
CLASSICAL_FIELD_CAP = 3
QUANTUM_FIELD_CAP = 2

__all__ = ["SUITES", "CLASSICAL_FIELD_CAP", "QUANTUM_FIELD_CAP", "run_suite"]


def _rendered(p, pres) -> str:
    """A residual rendered in pres; "" when it is zero."""
    if not p:
        return ""
    if isinstance(p, TensorPoly):
        return p.render(pres)
    return render_poly(p, pres)


def _check(check_id, paper_ref, problem, status="fail", corrections=()):
    """pass with "0" when problem is "", else status with problem as residual."""
    if problem:
        return CheckRecord(check_id, paper_ref, status, problem, corrections)
    return CheckRecord(check_id, paper_ref, "pass", "0", corrections)


def _exact_rows(prefix, paper_ref, rows, pres, corrections=()):
    """One exactness record per (key, residual) row; tuple keys join with dots."""
    for key, residual in rows:
        if isinstance(key, tuple):
            key = ".".join(key)
        yield _check(f"{prefix}.{key}", paper_ref, _rendered(residual, pres),
                     corrections=corrections)


# -- differential suite ----------------------------------------------------


def _dga_suite():
    da_fix = tuple("*".join(lhs) for lhs in corrected_rule_diff())
    dw_fix = ("dw0: quadratic term letter order",)

    for name in ("hq", "units", "dga", "cartan_maurer", "dga_literal"):
        failures = get_presentation(name).check_local_confluence()
        yield _check(f"confluence.{name}", "derived: overlap analysis",
                     f"{len(failures)} failing overlaps" if failures else "",
                     "finding" if name == "dga_literal" else "fail",
                     da_fix if name == "dga" else ())

    hq = get_presentation("hq")
    cl = get_presentation("classical-hq")
    yield from _exact_rows(
        "relations.verbatim", "published coordinate relations",
        ((lhs, hq.normal_form(NCPoly.word(lhs)) - hq.rules[lhs])
         for lhs in sorted(hq.rules)), hq)
    yield from _exact_rows(
        "relations.classical", "published coordinate relations at q = 1",
        ((lhs, cl.normal_form(NCPoly.word(lhs)) - NCPoly.word(lhs[::-1]))
         for lhs in sorted(hq.rules)), cl)

    # Each shared stage runs once per suite run, just before the first
    # check that reads it, and its time is charged to that check.
    dga = get_presentation("dga")
    yield from _exact_rows(
        "leibniz.corrected", "published mixed commutation table",
        ((row["lhs"], row["residual"]) for row in leibniz_consistency_check(dga)),
        dga, da_fix)

    rows = leibniz_consistency_check(get_presentation("dga_literal"))
    repaired = set(corrected_rule_diff())
    bad = [r for r in rows if r["residual"]]
    unattributed = [r for r in bad if not (r["rules_used"] & repaired)
                    and r["lhs"] not in repaired]
    if unattributed:
        outcome = (f"{len(unattributed)} nonzero rows do not involve a "
                   "repaired rule", "fail")
    else:
        outcome = (f"{len(bad)} of {len(rows)} rows nonzero, every one "
                   "attributable to a repaired rule", "finding")
    yield _check("leibniz.literal", "published mixed commutation table as printed",
                 *outcome, da_fix)

    yield from _exact_rows("nilpotency", "derived: nilpotency of the differential",
                           nilpotency_residuals(), dga, da_fix)

    # frame relations are reduced in dga through the frame definitions
    yield from _exact_rows("one_form",
                           "published one-form algebra vs frame definitions",
                           one_form_consistency_residuals(), dga, da_fix)

    cm = get_presentation("cartan_maurer")
    yield from _exact_rows("closure.corrected", "published two-form table",
                           conversion_closure_residuals(), cm, da_fix + dw_fix)

    rows = conversion_closure_residuals(literal=True)
    bad = [aid for aid, residual in rows if residual]
    if len(bad) != len(rows):
        outcome = f"printed first row leaves only {len(bad)} nonzero rows", "fail"
    else:
        outcome = (f"{len(bad)} of {len(rows)} rows nonzero under the printed "
                   "first two-form row", "finding")
    yield _check("closure.literal", "published two-form table as printed",
                 *outcome, da_fix)

    yield from _exact_rows("d_star", "published star interchange identity",
                           ((f"a{k}", verify_d_star(k)) for k in range(4)), cm)

    da0 = da_from_w()["a0"]
    residual = cm.normal_form(star(da0, star_table(cm.name), cm) - qp(2) * da0)
    yield _check("d_star.worked_example", "published star interchange identity",
                 _rendered(residual, cm))

    involutive = ("hq", "units", "classical-dga", "classical-cartan_maurer")
    for name in involutive + ("dga", "cartan_maurer"):
        pres = get_presentation(name)
        yield _check(f"star_involution.{name}", "published star tables",
                     "; ".join(f"{gid}: {_rendered(r, pres)}"
                               for gid, r in star_involution_residuals(name) if r),
                     "fail" if name in involutive else "finding")

    for name in involutive:
        pres = get_presentation(name)
        table = star_table(name)
        letters = sorted(g.id for g in pres.generators)
        rng = random.Random(20111)
        words = [tuple(rng.choice(letters) for _ in range(rng.randint(1, 3)))
                 for _ in range(100)]
        moves = {}  # each distinct word reduced once, in order of first draw
        for word in dict.fromkeys(words):
            p = pres.normal_form(NCPoly.word(word))
            moves[word] = bool(star(star(p, table, pres), table, pres) - p)
        moved = sum(moves[word] for word in words)
        yield _check(f"star_roundtrip.{name}", "published star tables",
                     f"{moved} of 100 words moved" if moved else "")

    for candidate in OMEGA_BAR_CANDIDATES:
        # units_dga orders words as its unit-norm quotient does
        universe = "units_cm" if candidate == "star-of-omega" else "units_dga"
        yield _check(f"omega_bar.{candidate}", "published boundary one-form identity",
                     _rendered(verify_omega_bar_identity(candidate),
                               get_presentation(universe)), "finding")

    # rows are reduced in the q = 1 unit-norm quotient of dga, which keeps
    # the generators of classical-dga
    yield from _exact_rows("recover_da", "derived: unit-norm reduction at q = 1",
                           recover_differentials_on_unit_sphere(),
                           get_presentation("classical-dga"))


# -- Hopf suite -------------------------------------------------------------


# check group: (paper reference, universe its residuals are reduced in)
_HOPF_GROUPS = {
    "coproduct": ("published coproduct", "hq"),
    "counit": ("published counit", "hq"),
    "antipode": ("published antipode", "hq_localized"),
    "norm": ("published norm properties", "hq"),
    "star": ("published star tables", "hq"),
    "localized": ("derived: norm localization", "hq_localized"),
}


def _hopf_suite():
    for rec in verify_hopf_axioms():
        ref, universe = _HOPF_GROUPS[rec["id"].split(".", 1)[0]]
        yield _check(f"hopf.{rec['id']}", ref,
                     _rendered(rec["residual"], get_presentation(universe)),
                     "finding" if rec["kind"] == "informational" else "fail")


# -- classical suite ---------------------------------------------------------


def _violations(failures, pres, where=""):
    """How many monomials a Lie row fails on, and the first one's residual."""
    if not failures:
        return ""
    word, residual = failures[0]
    return (f"{len(failures)} monomials violate{where}; first "
            f"{'*'.join(word) or '1'}: {_rendered(residual, pres)}")


def _classical_suite():
    cl = get_presentation("classical-hq")
    records = verify_lie_algebra(CLASSICAL_FIELD_CAP, classical=True)
    for rec in records["bracket"]:
        yield _check(f"classical.bracket.{rec['relation']}",
                     "published classical bracket table",
                     _violations(rec["failures"], cl))

    counts = [len(r["failures"]) for r in records["printed"]]
    problem = ("halved-readoff normalization violates the cyclic rows on "
               f"{counts[:3]} monomials (commuting rows {counts[3:]}); the "
               "plain readoff satisfies all six")
    yield _check("classical.bracket_printed", "published frame expansion normalization",
                 problem if any(counts) else "", "finding")

    cl_cm = get_presentation("classical-cartan_maurer")
    targets = (
        NCPoly.zero(),
        rat(2) * NCPoly.word(("w2", "w3")),
        rat(2) * NCPoly.word(("w3", "w1")),
        rat(-2) * NCPoly.word(("w2", "w1")),
    )
    for k, target in enumerate(targets):
        residual = cl_cm.normal_form(cartan_maurer_d(k) - target)
        yield _check(f"classical.two_form_limit.w{k}", "published classical two-forms",
                     _rendered(residual, cl_cm),
                     corrections=("dw0: quadratic term letter order",))


# -- Grassmann suite ----------------------------------------------------------


def _grassmann_suite():
    failures = get_presentation("grassmann").check_local_confluence()
    yield _check("confluence.grassmann", "derived: overlap analysis",
                 f"{len(failures)} failing overlaps" if failures else "")

    dga = get_presentation("dga")
    for rec in grassmann_vs_differentials_crosscheck():
        # residuals are differences of rules in the repaired table
        yield _check(f"grassmann.crosscheck.{rec['id']}",
                     "published odd-generator table vs differential table",
                     "" if rec["match"] else
                     f"{_rendered(rec['residual'], dga)} ({rec['detail']})",
                     "finding")


# -- vector-field suite --------------------------------------------------------


def _vector_field_suite():
    hq = get_presentation("hq")
    for convention, records in verify_lie_algebra(QUANTUM_FIELD_CAP).items():
        for rec in records:
            yield _check(f"quantum.{convention}.{rec['relation']}",
                         "published deformed generator relations",
                         _violations(rec["failures"], hq,
                                     f" at cap {QUANTUM_FIELD_CAP}"), "finding")


# -- runner ---------------------------------------------------------------


# every suite, in the order `all` runs them
_SUITE_RUNS = {
    "dga": _dga_suite,
    "hopf": _hopf_suite,
    "classical": _classical_suite,
    "grassmann": _grassmann_suite,
    "vector-fields": _vector_field_suite,
}


def run_suite(suite: str, jobs=None) -> VerificationReport:
    """Run a suite (`all` runs every suite) and assemble the sorted report.

    Each record's ms is the time since the previous check of its suite.
    jobs is accepted and ignored: checks always run one after another.
    It stays because existing callers, such as the perfbench harness,
    still pass it.
    """
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; expected one of {SUITES}")
    records = []
    for name in _SUITE_RUNS if suite == "all" else (suite,):
        start = perf_counter()
        for record in _SUITE_RUNS[name]():
            now = perf_counter()
            record.ms = int((now - start) * 1000)
            start = now
            records.append(record)
    return VerificationReport(suite=suite, checks=records)
