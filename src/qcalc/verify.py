"""Verification suites over the whole engine.

Each suite is a generator that computes its checks one after another
and yields one CheckRecord per check.  The runner sets each record's ms
to the time since the previous check of the same suite, so a suite's
set-up and each stage several checks share are charged to the first
check after them, and assembles a deterministic report sorted by check
id.  A check that contradicts its contract is a fail; a documented
discrepancy or informational value is a finding and never fails a run.
Residuals are rendered in the presentation they were reduced in.
"""

import random
from time import perf_counter

from .algebra import NCPoly, render_poly
from .calculus import (
    OMEGA_BAR_CANDIDATES,
    VECTOR_FIELD_CONVENTIONS,
    cartan_maurer_d,
    conversion_closure_residuals,
    da_from_w,
    nilpotency_residuals,
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
from .hopf import TensorPoly, verify_hopf_axioms
from .presentations import (
    A,
    corrected_rule_diff,
    get_presentation,
    grassmann_vs_differentials_crosscheck,
    leibniz_consistency_check,
    qp,
    rat,
)
from .report import CheckRecord, VerificationReport

SUITES = ("all", "hopf", "dga", "classical", "grassmann", "vector-fields")

QUANTUM_FIELD_CAP = 2

__all__ = ["SUITES", "QUANTUM_FIELD_CAP", "run_suite"]


def _rendered(p, pres) -> str:
    if isinstance(p, TensorPoly):
        return p.render(pres)
    return render_poly(p, pres)


def _exactness(residual, pres):
    """pass on a zero residual, else fail with it rendered in pres."""
    if residual:
        return "fail", _rendered(residual, pres)
    return "pass", "0"


# -- differential suite ----------------------------------------------------


def _dga_suite(cap):
    da_fix = tuple("*".join(lhs) for lhs in corrected_rule_diff())
    dw_fix = ("dw0: quadratic term letter order",)

    for name in ("hq", "units", "dga", "cartan_maurer", "dga_literal"):
        failures = get_presentation(name).check_local_confluence()
        outcome = "pass", "0"
        if failures:
            outcome = ("finding" if name == "dga_literal" else "fail",
                       f"{len(failures)} failing overlaps")
        yield CheckRecord(f"confluence.{name}", "derived: overlap analysis",
                          *outcome, da_fix if name == "dga" else ())

    hq = get_presentation("hq")
    cl = get_presentation("classical-hq")
    for lhs in sorted(hq.rules):
        nf = hq.normal_form(NCPoly.word(lhs))
        yield CheckRecord(f"relations.verbatim.{lhs[0]}.{lhs[1]}",
                          "published coordinate relations",
                          *_exactness(nf - hq.rules[lhs], hq))
        nf = cl.normal_form(NCPoly.word(lhs, universe=cl.name))
        flip = NCPoly.word((lhs[1], lhs[0]), universe=cl.name)
        yield CheckRecord(f"relations.classical.{lhs[0]}.{lhs[1]}",
                          "published coordinate relations at q = 1",
                          *_exactness(nf - flip, cl))

    # Each shared stage runs once per suite run, just before the first
    # check that reads it, and its time is charged to that check.
    dga = get_presentation("dga")
    leibniz_rows = {row["lhs"]: row["residual"]
                    for row in leibniz_consistency_check(dga)}
    for lhs in sorted(dga.rules):
        if dga.grade(lhs[0]) == 0:
            yield CheckRecord(f"leibniz.corrected.{lhs[0]}.{lhs[1]}",
                              "published mixed commutation table",
                              *_exactness(leibniz_rows[lhs], dga), da_fix)

    rows = leibniz_consistency_check(get_presentation("dga_literal"),
                                     trace_rules=True)
    repaired = set(corrected_rule_diff())
    bad = [r for r in rows if r["residual"]]
    unattributed = [r for r in bad if not (r["rules_used"] & repaired)
                    and r["lhs"] not in repaired]
    if unattributed:
        outcome = "fail", (f"{len(unattributed)} nonzero rows do not involve "
                           "a repaired rule")
    else:
        outcome = "finding", (f"{len(bad)} of {len(rows)} rows nonzero, every "
                              "one attributable to a repaired rule")
    yield CheckRecord("leibniz.literal",
                      "published mixed commutation table as printed",
                      *outcome, da_fix)

    nil_rows = dict(nilpotency_residuals())
    for x in A:
        for y in A:
            yield CheckRecord(f"nilpotency.{x}.{y}",
                              "derived: nilpotency of the differential",
                              *_exactness(nil_rows[(x, y)], dga), da_fix)

    cm = get_presentation("cartan_maurer")
    # frame relations are reduced in dga through the frame definitions
    one_form_rows = dict(one_form_consistency_residuals())
    for lhs in sorted(cm.rules):
        yield CheckRecord(f"one_form.{lhs[0]}.{lhs[1]}",
                          "published one-form algebra vs frame definitions",
                          *_exactness(one_form_rows[lhs], dga), da_fix)

    closure_rows = dict(conversion_closure_residuals())
    for aid in A:
        yield CheckRecord(f"closure.corrected.{aid}", "published two-form table",
                          *_exactness(closure_rows[aid], cm), da_fix + dw_fix)

    rows = conversion_closure_residuals(literal=True)
    bad = [aid for aid, residual in rows if residual]
    if len(bad) != len(rows):
        outcome = "fail", f"printed first row leaves only {len(bad)} nonzero rows"
    else:
        outcome = "finding", (f"{len(bad)} of {len(rows)} rows nonzero under "
                              "the printed first two-form row")
    yield CheckRecord("closure.literal", "published two-form table as printed",
                      *outcome, da_fix)

    for k in range(4):
        yield CheckRecord(f"d_star.a{k}", "published star interchange identity",
                          *_exactness(verify_d_star(k), cm))

    da0 = da_from_w()["a0"]
    residual = cm.normal_form(star(da0, star_table(cm.name), cm) - qp(2) * da0)
    yield CheckRecord("d_star.worked_example",
                      "published star interchange identity",
                      *_exactness(residual, cm))

    involutive = ("hq", "units", "classical-dga", "classical-cartan_maurer")
    for name in involutive + ("dga", "cartan_maurer"):
        nonzero = [(gid, r) for gid, r in star_involution_residuals(name) if r]
        outcome = "pass", "0"
        if nonzero:
            pres = get_presentation(name)
            outcome = ("fail" if name in involutive else "finding",
                       "; ".join(f"{gid}: {_rendered(r, pres)}"
                                 for gid, r in nonzero))
        yield CheckRecord(f"star_involution.{name}", "published star tables",
                          *outcome)

    for name in involutive:
        pres = get_presentation(name)
        table = star_table(name)
        letters = sorted(g.id for g in pres.generators)
        rng = random.Random(20111)
        moved = 0
        for _ in range(100):
            word = tuple(rng.choice(letters) for _ in range(rng.randint(1, 3)))
            p = pres.normal_form(NCPoly.word(word, universe=pres.name))
            if star(star(p, table, pres), table, pres) - p:
                moved += 1
        outcome = "pass", "0"
        if moved:
            outcome = "fail", f"{moved} of 100 words moved"
        yield CheckRecord(f"star_roundtrip.{name}", "published star tables",
                          *outcome)

    for candidate in OMEGA_BAR_CANDIDATES:
        residual = verify_omega_bar_identity(candidate)
        outcome = "pass", "0"
        if residual:
            if candidate == "star-of-omega":
                pres = get_presentation("units_cm")
            else:
                pres = unit_norm_extension("units_dga")
            outcome = "finding", _rendered(residual, pres)
        yield CheckRecord(f"omega_bar.{candidate}",
                          "published boundary one-form identity", *outcome)

    # rows are reduced in the q = 1 unit-norm quotient of dga, which keeps
    # the generators of classical-dga
    recover_rows = dict(recover_differentials_on_unit_sphere())
    cl_dga = get_presentation("classical-dga")
    for aid in A:
        yield CheckRecord(f"recover_da.{aid}",
                          "derived: unit-norm reduction at q = 1",
                          *_exactness(recover_rows[aid], cl_dga))


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


def _hopf_suite(cap):
    for rec in verify_hopf_axioms():
        ref, universe = _HOPF_GROUPS[rec["id"].split(".", 1)[0]]
        pres = get_presentation(universe)
        if rec["kind"] == "informational":
            outcome = "finding", _rendered(rec["residual"], pres)
        else:
            outcome = _exactness(rec["residual"], pres)
        yield CheckRecord(f"hopf.{rec['id']}", ref, *outcome)


# -- classical suite ---------------------------------------------------------


_CLASSICAL_BRACKETS = ("n1.n2", "n2.n3", "n3.n1", "n1.n0", "n2.n0", "n3.n0")


def _classical_suite(cap):
    cl = get_presentation("classical-hq")
    records = verify_lie_algebra(cap, "classical", convention="bracket")
    for label, rec in zip(_CLASSICAL_BRACKETS, records):
        failures = rec["failures"]
        outcome = "pass", "0"
        if failures:
            word, residual = failures[0]
            outcome = "fail", (f"{len(failures)} monomials violate; first "
                               f"{'*'.join(word) or '1'}: "
                               f"{_rendered(residual, cl)}")
        yield CheckRecord(f"classical.bracket.{label}",
                          "published classical bracket table", *outcome)

    counts = [len(r["failures"]) for r in
              verify_lie_algebra(cap, "classical", convention="printed")]
    outcome = "pass", "0"
    if any(counts):
        outcome = "finding", ("halved-readoff normalization violates the "
                              f"cyclic rows on {counts[:3]} monomials "
                              f"(commuting rows {counts[3:]}); the plain "
                              "readoff satisfies all six")
    yield CheckRecord("classical.bracket_printed",
                      "published frame expansion normalization", *outcome)

    cl_cm = get_presentation("classical-cartan_maurer")
    targets = (
        NCPoly.zero(),
        rat(2) * NCPoly.word(("w2", "w3")),
        rat(2) * NCPoly.word(("w3", "w1")),
        rat(-2) * NCPoly.word(("w2", "w1")),
    )
    for k, target in enumerate(targets):
        got = cartan_maurer_d(k).eval_at(1)
        want = cl_cm.normal_form(NCPoly(dict(target.terms), cl_cm.name))
        residual = cl_cm.normal_form(NCPoly(dict(got.terms), cl_cm.name)) - want
        yield CheckRecord(f"classical.two_form_limit.w{k}",
                          "published classical two-forms",
                          *_exactness(residual, cl_cm),
                          ("dw0: quadratic term letter order",))


# -- Grassmann suite ----------------------------------------------------------


def _grassmann_suite(cap):
    failures = get_presentation("grassmann").check_local_confluence()
    outcome = "pass", "0"
    if failures:
        outcome = "fail", f"{len(failures)} failing overlaps"
    yield CheckRecord("confluence.grassmann", "derived: overlap analysis",
                      *outcome)

    dga = get_presentation("dga")
    for rec in grassmann_vs_differentials_crosscheck():
        outcome = "pass", "0"
        if not rec["match"]:
            # residuals are differences of rules in the repaired table
            outcome = ("finding",
                       f"{_rendered(rec['residual'], dga)} ({rec['detail']})")
        yield CheckRecord(f"grassmann.crosscheck.{rec['id']}",
                          "published odd-generator table vs differential table",
                          *outcome)


# -- vector-field suite --------------------------------------------------------


_QUANTUM_ROWS = ("n0n1-n1n0", "n0n2-n2n0", "n0n3-n3n0",
                 "n1n2-row", "n1n3-row", "n3n2-row")


def _vector_field_suite(cap):
    hq = get_presentation("hq")
    for convention in VECTOR_FIELD_CONVENTIONS:
        records = verify_lie_algebra(QUANTUM_FIELD_CAP, "quantum",
                                     convention=convention)
        for label, rec in zip(_QUANTUM_ROWS, records):
            failures = rec["failures"]
            outcome = "pass", "0"
            if failures:
                word, residual = failures[0]
                outcome = "finding", (
                    f"{len(failures)} monomials violate at cap "
                    f"{QUANTUM_FIELD_CAP}; first {'*'.join(word) or '1'}: "
                    f"{_rendered(residual, hq)}")
            yield CheckRecord(f"quantum.{convention}.{label}",
                              "published deformed generator relations",
                              *outcome)


# -- runner ---------------------------------------------------------------


# every suite, in the order `all` runs them
_SUITE_RUNS = {
    "dga": _dga_suite,
    "hopf": _hopf_suite,
    "classical": _classical_suite,
    "grassmann": _grassmann_suite,
    "vector-fields": _vector_field_suite,
}


def run_suite(suite: str, cap: int = 3, jobs=None) -> VerificationReport:
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
        for record in _SUITE_RUNS[name](cap):
            now = perf_counter()
            record.ms = int((now - start) * 1000)
            start = now
            records.append(record)
    return VerificationReport(suite=suite, checks=records)
