"""Verification suites over the whole engine.

Each suite is a list of independently runnable checks; the runner
executes them one after another, times them, and assembles a
deterministic report sorted by check id.  A check that contradicts its
contract is a fail; a documented discrepancy or informational value is a
finding and never fails a run.  Residuals are rendered in the
presentation they were reduced in.
"""

import functools
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

__all__ = ["SUITES", "QUANTUM_FIELD_CAP", "build_checks", "run_suite"]


def _rendered(p, pres) -> str:
    if isinstance(p, TensorPoly):
        return p.render(pres)
    return render_poly(p, pres)


def _exactness(residual, pres):
    """pass on a zero residual, else fail with it rendered in pres."""
    if residual:
        return "fail", _rendered(residual, pres)
    return "pass", "0"


class Check:
    __slots__ = ("id", "suite", "paper_ref", "corrections", "thunk")

    def __init__(self, id, suite, paper_ref, thunk, corrections=()):
        self.id = id
        self.suite = suite
        self.paper_ref = paper_ref
        self.corrections = tuple(corrections)
        self.thunk = thunk


# -- differential suite ----------------------------------------------------


def _dga_checks():
    checks = []
    da_fix = tuple("*".join(lhs) for lhs in corrected_rule_diff())
    dw_fix = ("dw0: quadratic term letter order",)

    def confluence(name, corrections=(), expect_clean=True):
        def thunk():
            failures = get_presentation(name).check_local_confluence()
            if not failures:
                return "pass", "0"
            status = "fail" if expect_clean else "finding"
            return status, f"{len(failures)} failing overlaps"
        return Check(f"confluence.{name}", "dga", "derived: overlap analysis",
                     thunk, corrections)

    for name, corr in (("hq", ()), ("units", ()), ("dga", da_fix),
                       ("cartan_maurer", ())):
        checks.append(confluence(name, corr))
    checks.append(confluence("dga_literal", expect_clean=False))

    hq = get_presentation("hq")
    for lhs in sorted(hq.rules):
        def verbatim(lhs=lhs):
            nf = hq.normal_form(NCPoly.word(lhs))
            return _exactness(nf - hq.rules[lhs], hq)
        checks.append(Check(f"relations.verbatim.{lhs[0]}.{lhs[1]}", "dga",
                            "published coordinate relations", verbatim))

        def transposed(lhs=lhs):
            cl = get_presentation("classical-hq")
            nf = cl.normal_form(NCPoly.word(lhs, universe=cl.name))
            flip = NCPoly.word((lhs[1], lhs[0]), universe=cl.name)
            return _exactness(nf - flip, cl)
        checks.append(Check(f"relations.classical.{lhs[0]}.{lhs[1]}", "dga",
                            "published coordinate relations at q = 1",
                            transposed))

    # Shared stages: each runs once per build_checks call, when the first
    # check that needs it runs, and is charged to that check.
    dga = get_presentation("dga")
    leibniz_rows = functools.cache(lambda: {
        row["lhs"]: row["residual"]
        for row in leibniz_consistency_check(dga)})
    for lhs in sorted(dga.rules):
        if dga.grade(lhs[0]) != 0:
            continue
        def leibniz(lhs=lhs):
            return _exactness(leibniz_rows()[lhs], dga)
        checks.append(Check(f"leibniz.corrected.{lhs[0]}.{lhs[1]}", "dga",
                            "published mixed commutation table", leibniz,
                            da_fix))

    def leibniz_literal():
        rows = leibniz_consistency_check(
            get_presentation("dga_literal"), trace_rules=True)
        repaired = set(corrected_rule_diff())
        bad = [r for r in rows if r["residual"]]
        unattributed = [r for r in bad if not (r["rules_used"] & repaired)
                        and r["lhs"] not in repaired]
        if unattributed:
            return "fail", (f"{len(unattributed)} nonzero rows do not involve "
                            "a repaired rule")
        return "finding", (f"{len(bad)} of {len(rows)} rows nonzero, every one "
                           "attributable to a repaired rule")
    checks.append(Check("leibniz.literal", "dga",
                        "published mixed commutation table as printed",
                        leibniz_literal, da_fix))

    nil_rows = functools.cache(lambda: dict(nilpotency_residuals()))
    for x in A:
        for y in A:
            def nil(x=x, y=y):
                return _exactness(nil_rows()[(x, y)], dga)
            checks.append(Check(f"nilpotency.{x}.{y}", "dga",
                                "derived: nilpotency of the differential",
                                nil, da_fix))

    cm = get_presentation("cartan_maurer")
    # frame relations are reduced in dga through the frame definitions
    one_form_rows = functools.cache(
        lambda: dict(one_form_consistency_residuals()))
    for lhs in sorted(cm.rules):
        def one_form(lhs=lhs):
            return _exactness(one_form_rows()[lhs], dga)
        checks.append(Check(f"one_form.{lhs[0]}.{lhs[1]}", "dga",
                            "published one-form algebra vs frame definitions",
                            one_form, da_fix))

    closure_rows = functools.cache(
        lambda: dict(conversion_closure_residuals()))
    for aid in A:
        def closure(aid=aid):
            return _exactness(closure_rows()[aid], cm)
        checks.append(Check(f"closure.corrected.{aid}", "dga",
                            "published two-form table", closure,
                            da_fix + dw_fix))

    def closure_literal():
        rows = conversion_closure_residuals(literal=True)
        bad = [aid for aid, residual in rows if residual]
        if len(bad) != len(rows):
            return "fail", f"printed first row leaves only {len(bad)} nonzero rows"
        return "finding", (f"{len(bad)} of {len(rows)} rows nonzero under the "
                           "printed first two-form row")
    checks.append(Check("closure.literal", "dga",
                        "published two-form table as printed", closure_literal,
                        da_fix))

    for k in range(4):
        def dstar(k=k):
            return _exactness(verify_d_star(k), cm)
        checks.append(Check(f"d_star.a{k}", "dga",
                            "published star interchange identity", dstar))

    def worked():
        table = star_table(cm.name)
        rows = da_from_w()
        target = qp(2) * rows["a0"]
        return _exactness(
            cm.normal_form(star(rows["a0"], table, cm) - target), cm)
    checks.append(Check("d_star.worked_example", "dga",
                        "published star interchange identity", worked))

    involutive = ("hq", "units", "classical-dga", "classical-cartan_maurer")
    for name in involutive + ("dga", "cartan_maurer"):
        def involution(name=name):
            nonzero = [(gid, r) for gid, r in star_involution_residuals(name)
                       if r]
            if not nonzero:
                return "pass", "0"
            status = "fail" if name in involutive else "finding"
            pres = get_presentation(name)
            return status, "; ".join(
                f"{gid}: {_rendered(r, pres)}" for gid, r in nonzero)
        checks.append(Check(f"star_involution.{name}", "dga",
                            "published star tables", involution))

    for name in involutive:
        def roundtrip(name=name):
            pres = get_presentation(name)
            table = star_table(name)
            letters = sorted(g.id for g in pres.generators)
            rng = random.Random(20111)
            bad = 0
            for _ in range(100):
                word = tuple(rng.choice(letters)
                             for _ in range(rng.randint(1, 3)))
                p = pres.normal_form(NCPoly.word(word, universe=pres.name))
                back = star(star(p, table, pres), table, pres)
                if back - p:
                    bad += 1
            if bad:
                return "fail", f"{bad} of 100 words moved"
            return "pass", "0"
        checks.append(Check(f"star_roundtrip.{name}", "dga",
                            "published star tables", roundtrip))

    for candidate in OMEGA_BAR_CANDIDATES:
        def omega_bar(candidate=candidate):
            residual = verify_omega_bar_identity(candidate)
            if not residual:
                return "pass", "0"
            if candidate == "star-of-omega":
                pres = get_presentation("units_cm")
            else:
                pres = unit_norm_extension("units_dga")
            return "finding", _rendered(residual, pres)
        checks.append(Check(f"omega_bar.{candidate}", "dga",
                            "published boundary one-form identity", omega_bar))

    # rows are reduced in the q = 1 unit-norm quotient of dga, which keeps
    # the generators of classical-dga
    recover_rows = functools.cache(
        lambda: dict(recover_differentials_on_unit_sphere()))
    for aid in A:
        def recover(aid=aid):
            return _exactness(recover_rows()[aid],
                              get_presentation("classical-dga"))
        checks.append(Check(f"recover_da.{aid}", "dga",
                            "derived: unit-norm reduction at q = 1", recover))
    return checks


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


def _hopf_checks():
    checks = []
    records = functools.cache(
        lambda: {rec["id"]: rec for rec in verify_hopf_axioms()})
    hq = get_presentation("hq")
    ids = []
    for lhs in sorted(hq.rules):
        for group in ("coproduct", "counit", "star"):
            ids.append(f"{group}.relation.{lhs[0]}.{lhs[1]}")
    for gid in A:
        ids += [
            f"coproduct.coassociativity.{gid}",
            f"counit.left.{gid}",
            f"counit.right.{gid}",
            f"antipode.left.{gid}",
            f"antipode.right.{gid}",
            f"norm.central.{gid}",
            f"star.involution.{gid}",
            f"antipode.square.{gid}",
        ]
    ids += ["norm.grouplike", "norm.counit", "norm.star",
            "localized.centrality", "localized.cancel"]

    for check_id in ids:
        ref, universe = _HOPF_GROUPS[check_id.split(".", 1)[0]]

        def thunk(check_id=check_id, universe=universe):
            rec = records()[check_id]
            pres = get_presentation(universe)
            if rec["kind"] == "informational":
                return "finding", _rendered(rec["residual"], pres)
            return _exactness(rec["residual"], pres)
        checks.append(Check(f"hopf.{check_id}", "hopf", ref, thunk))
    return checks


# -- classical suite ---------------------------------------------------------


_CLASSICAL_BRACKETS = ("n1.n2", "n2.n3", "n3.n1", "n1.n0", "n2.n0", "n3.n0")


def _classical_checks(cap):
    checks = []

    @functools.cache
    def bracket_records(convention):
        return verify_lie_algebra(cap, "classical", convention=convention)

    for idx, label in enumerate(_CLASSICAL_BRACKETS):
        def bracket(idx=idx):
            failures = bracket_records("bracket")[idx]["failures"]
            if not failures:
                return "pass", "0"
            word, residual = failures[0]
            cl = get_presentation("classical-hq")
            return "fail", (f"{len(failures)} monomials violate; first "
                            f"{'*'.join(word) or '1'}: {_rendered(residual, cl)}")
        checks.append(Check(f"classical.bracket.{label}", "classical",
                            "published classical bracket table", bracket))

    def printed_convention():
        counts = [len(r["failures"]) for r in bracket_records("printed")]
        if not any(counts):
            return "pass", "0"
        return "finding", ("halved-readoff normalization violates the cyclic "
                           f"rows on {counts[:3]} monomials (commuting rows "
                           f"{counts[3:]}); the plain readoff satisfies all six")
    checks.append(Check("classical.bracket_printed", "classical",
                        "published frame expansion normalization",
                        printed_convention))

    targets = {
        0: NCPoly.zero(),
        1: rat(2) * NCPoly.word(("w2", "w3")),
        2: rat(2) * NCPoly.word(("w3", "w1")),
        3: rat(-2) * NCPoly.word(("w2", "w1")),
    }
    for k in range(4):
        def limit(k=k):
            cl = get_presentation("classical-cartan_maurer")
            got = cartan_maurer_d(k).eval_at(1)
            want = cl.normal_form(NCPoly(dict(targets[k].terms), cl.name))
            return _exactness(
                cl.normal_form(NCPoly(dict(got.terms), cl.name)) - want, cl)
        checks.append(Check(f"classical.two_form_limit.w{k}", "classical",
                            "published classical two-forms", limit,
                            ("dw0: quadratic term letter order",)))
    return checks


# -- Grassmann suite ----------------------------------------------------------


def _grassmann_checks():
    checks = []

    def confluence():
        failures = get_presentation("grassmann").check_local_confluence()
        if failures:
            return "fail", f"{len(failures)} failing overlaps"
        return "pass", "0"
    checks.append(Check("confluence.grassmann", "grassmann",
                        "derived: overlap analysis", confluence))

    records = functools.cache(lambda: {
        rec["id"]: rec for rec in grassmann_vs_differentials_crosscheck()})
    ids = ["row.psi0.psi0", "row.psi1.psi1", "row.psi0.psi1", "row.psi0.psi2",
           "row.psi0.psi3", "row.psi1.psi2", "row.psi1.psi3", "row.psi2.psi3",
           "squares.internal-equality", "squares.common-coefficient"]
    for rec_id in ids:
        def crosscheck(rec_id=rec_id):
            rec = records()[rec_id]
            if rec["match"]:
                return "pass", "0"
            # residuals are differences of rules in the repaired table
            residual = _rendered(rec["residual"], get_presentation("dga"))
            return "finding", f"{residual} ({rec['detail']})"
        checks.append(Check(f"grassmann.crosscheck.{rec_id}", "grassmann",
                            "published odd-generator table vs differential table",
                            crosscheck))
    return checks


# -- vector-field suite --------------------------------------------------------


_QUANTUM_ROWS = ("n0n1-n1n0", "n0n2-n2n0", "n0n3-n3n0",
                 "n1n2-row", "n1n3-row", "n3n2-row")


def _vector_field_checks():
    checks = []

    @functools.cache
    def records(convention):
        return verify_lie_algebra(QUANTUM_FIELD_CAP, "quantum",
                                  convention=convention)

    for convention in VECTOR_FIELD_CONVENTIONS:
        for idx, label in enumerate(_QUANTUM_ROWS):
            def quantum(idx=idx, convention=convention):
                failures = records(convention)[idx]["failures"]
                if not failures:
                    return "pass", "0"
                word, residual = failures[0]
                hq = get_presentation("hq")
                return "finding", (
                    f"{len(failures)} monomials violate at cap "
                    f"{QUANTUM_FIELD_CAP}; first {'*'.join(word) or '1'}: "
                    f"{_rendered(residual, hq)}")
            checks.append(Check(f"quantum.{convention}.{label}",
                                "vector-fields",
                                "published deformed generator relations",
                                quantum))
    return checks


# -- runner ---------------------------------------------------------------


def build_checks(suite: str, cap: int = 3) -> list:
    """All checks of one suite; `all` concatenates every suite."""
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; expected one of {SUITES}")
    parts = {
        "dga": _dga_checks,
        "hopf": _hopf_checks,
        "classical": lambda: _classical_checks(cap),
        "grassmann": _grassmann_checks,
        "vector-fields": _vector_field_checks,
    }
    if suite == "all":
        out = []
        for name in ("dga", "hopf", "classical", "grassmann", "vector-fields"):
            out.extend(parts[name]())
        return out
    return parts[suite]()


def run_suite(suite: str, cap: int = 3, jobs=None) -> VerificationReport:
    """Execute a suite's checks in order and assemble the sorted report.

    jobs is accepted and ignored: checks always run one after another.
    It stays because existing callers, such as the perfbench harness,
    still pass it.
    """
    records = []
    for check in build_checks(suite, cap=cap):
        start = perf_counter()
        status, residual = check.thunk()
        records.append(CheckRecord(
            id=check.id,
            paper_ref=check.paper_ref,
            status=status,
            residual=residual,
            corrections=check.corrections,
            ms=int((perf_counter() - start) * 1000),
        ))
    return VerificationReport(suite=suite, checks=records)
