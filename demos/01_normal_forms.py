"""Tour of the coordinate algebra: relations, normal forms, grading, limits.

Run with:  python3 demos/01_normal_forms.py
"""

from fractions import Fraction

from qcalc import get_presentation, norm_poly, parse, render_poly, specialize


def main():
    hq = get_presentation("hq")

    print("== the six defining relations, as rewrite rules ==")
    for lhs, rhs in hq.rules.items():
        print(f"  {lhs[0]}*{lhs[1]}  ->  {render_poly(rhs, hq)}")
    print()

    print("== normal forms ==")
    for text in ("a3*a2*a1*a0", "a1*a0 - a0*a1", "(a0 + a1)^2"):
        p = parse(text, hq)
        print(f"  nf({text}) = {render_poly(hq.normal_form(p), hq)}")
    print()

    print("== rewriting trace ==")
    steps = set()
    hq.normal_form(parse("a0*a1*a2", hq), trace=steps)
    print("  reducing a0*a1*a2 applied the rules for:",
          ", ".join("*".join(lhs) for lhs in sorted(steps)))
    print()

    print("== the rules terminate confluently ==")
    failures = hq.check_local_confluence()
    print(f"  unresolved overlaps: {len(failures)}")
    print("  so every element has exactly one normal form")
    print()

    print("== the relations preserve word length ==")
    print(f"  every rule rewrites a length-2 word into length-2 words:"
          f" {hq.is_degree_homogeneous()}")
    p = parse("a0*a1*a2", hq)
    lengths = sorted({len(w) for w in hq.normal_form(p).terms})
    print(f"  so nf(a0*a1*a2) only contains words of length {lengths}")
    print()

    print("== the norm is central ==")
    n = norm_poly()
    print(f"  N = {render_poly(n, hq)}")
    for g in hq.generator_ids():
        ag = parse(g, hq)
        comm = hq.normal_form(n * ag - ag * n)
        print(f"  [N, {g}] = {render_poly(comm, hq)}")
    print()

    print("== specialization ==")
    classical = get_presentation("classical-hq")
    at2 = specialize(hq, Fraction(2))
    sample = parse("a0*a2", hq)
    print(f"  generic q : nf(a0*a2) = {render_poly(hq.normal_form(sample), hq)}")
    print(f"  q = 1     : nf(a0*a2) ="
          f" {render_poly(classical.normal_form(sample), classical)}"
          "   (coordinates commute)")
    print(f"  q = 2     : nf(a0*a2) ="
          f" {render_poly(at2.normal_form(sample), at2)}")


if __name__ == "__main__":
    main()
