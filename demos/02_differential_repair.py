"""The first-order calculus, as printed and as repaired.

The differential table we ship by default ("dga") differs from the printed
one ("dga_literal") in six rewrite rules.  This script shows how the engine
exposes the difference: the printed table is not confluent, breaks the
Leibniz rule, and fails d*d = 0 on the two-form conversions, while the
repaired table passes every check.

Run with:  python3 demos/02_differential_repair.py
"""

from qcalc import (
    cartan_maurer_d,
    conversion_closure_residuals,
    corrected_rule_diff,
    get_presentation,
    leibniz_consistency_check,
    nilpotency_residuals,
    render_poly,
)


def main():
    dga = get_presentation("dga")
    literal = get_presentation("dga_literal")

    print("== confluence ==")
    print(f"  repaired table : {len(dga.check_local_confluence())} unresolved overlaps")
    print(f"  printed table  : {len(literal.check_local_confluence())} unresolved overlaps")
    print()

    print("== the six repaired rules ==")
    for lhs in corrected_rule_diff():
        key = f"{lhs[0]}*{lhs[1]}"
        print(f"  {key}:")
        print(f"    printed : {render_poly(literal.rules[lhs], literal)}")
        print(f"    repaired: {render_poly(dga.rules[lhs], dga)}")
    print()

    print("== Leibniz rule, d(xy) = dx*y + x*dy, on every defining relation ==")
    clean = leibniz_consistency_check(dga)
    print(f"  repaired table: {sum(1 for r in clean if r['residual'])} of"
          f" {len(clean)} rows fail")
    rows = leibniz_consistency_check(literal)
    bad = [r for r in rows if r["residual"]]
    print(f"  printed table : {len(bad)} of {len(rows)} rows fail")
    repaired = set(corrected_rule_diff())
    blamed = set()
    for r in bad:
        blamed |= r["rules_used"] & repaired
        if r["lhs"] in repaired:
            blamed.add(r["lhs"])
    print(f"  every failing row either is a repaired rule or reduces through one:"
          f" {all(r['rules_used'] & repaired or r['lhs'] in repaired for r in bad)}")
    print(f"  and together the failures implicate all six:"
          f" {blamed == repaired}")
    print()

    print("== nilpotency of d on the repaired table ==")
    nil = nilpotency_residuals()
    print(f"  d(d(x)) = 0 on {sum(1 for _, res in nil if not res)} of"
          f" {len(nil)} probe words")
    print()

    print("== two-forms in the frame basis ==")
    cm = get_presentation("cartan_maurer")
    print("  exterior derivatives of the frame one-forms:")
    for k in range(4):
        print(f"    d(w{k}) = {render_poly(cartan_maurer_d(k), cm)}")
    print("  the printed first row has its letters in the other order:")
    print(f"    printed : d(w0) = {render_poly(cartan_maurer_d(0, literal=True), cm)}")
    print(f"    repaired: d(w0) = {render_poly(cartan_maurer_d(0), cm)}")
    print()

    print("== closure of the coordinate/frame conversion ==")
    good = conversion_closure_residuals()
    print(f"  repaired rows with nonzero residual:"
          f" {[g for g, res in good if res]}")
    bad_rows = conversion_closure_residuals(literal=True)
    print(f"  printed rows with nonzero residual :"
          f" {[g for g, res in bad_rows if res]}")
    print()

    print("== classical limit of the frame derivatives ==")
    ccm = get_presentation("classical-cartan_maurer")
    for k in range(4):
        at1 = ccm.normal_form(cartan_maurer_d(k))
        print(f"  q = 1: d(w{k}) = {render_poly(at1, ccm)}")


if __name__ == "__main__":
    main()
