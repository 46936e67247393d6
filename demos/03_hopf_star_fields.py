"""Hopf structure, the star involution, and the invariant vector fields.

Run with:  python3 demos/03_hopf_star_fields.py
"""

from qcalc import (
    NCPoly,
    antipode,
    antipode_square,
    convolution,
    coproduct,
    counit,
    get_presentation,
    norm_poly,
    parse,
    reduce_norm_factors,
    render_poly,
    run_suite,
    star,
    star_table,
    tensor,
    verify_d_star,
    verify_hopf_axioms,
    verify_lie_algebra,
)


def main():
    hq = get_presentation("hq")
    loc = get_presentation("hq_localized")

    print("== coproduct and counit ==")
    for g in ("a0", "a3"):
        print(f"  coproduct({g}) = {coproduct(parse(g, hq))}")
    print("  counit:", ", ".join(
        f"e({g}) = {counit(parse(g, hq))}" for g in hq.generator_ids()))
    print()

    print("== the norm is grouplike ==")
    n = norm_poly()
    residual = coproduct(n, hq) - tensor(n, n).normal_form(hq)
    print(f"  coproduct(N) - N (x) N = {residual}")
    print(f"  counit(N) = {counit(n)}")
    print()

    print("== antipode ==")
    print("  the antipode lives where N is invertible:")
    for g in ("a0", "a1"):
        print(f"    S({g}) = {render_poly(antipode(parse(g, loc)), loc)}")
    for gid in ("a0", "a1"):
        acc = convolution(lambda u: antipode(NCPoly.word(u)), NCPoly.word,
                          coproduct(parse(gid, hq)))
        print(f"  convolution m(S (x) id)(coproduct({gid})) = "
              f"{render_poly(reduce_norm_factors(acc), loc)}"
              f"   (= counit({gid}) * 1)")
    print("  S*S is not the identity at generic q; it rotates the imaginary pair:")
    for g in ("a0", "a2", "a3"):
        print(f"    S(S({g})) = {render_poly(antipode_square(g), loc)}")
    print()

    print("== the full Hopf axiom sweep ==")
    recs = verify_hopf_axioms()
    exact = [r for r in recs if r["kind"] == "exact"]
    print(f"  {len(recs)} identities checked;"
          f" {sum(1 for r in exact if not r['residual'])} of {len(exact)}"
          " exact ones hold; the rest are informational")
    print()

    print("== the star involution ==")
    table = star_table("hq")
    a2 = parse("a2", hq)
    print(f"  star(a2) = {render_poly(star(a2, table, hq), hq)}")
    print(f"  star(star(a2)) - a2 = "
          f"{render_poly(hq.normal_form(star(star(a2, table, hq), table, hq) - a2), hq)}")
    print("  d commutes with star on the frame one-forms:",
          all(not verify_d_star(k) for k in range(4)))
    print()

    print("== invariant vector fields ==")
    classical = verify_lie_algebra(3, classical=True)["bracket"]
    print(f"  classical brackets with any failures:"
          f" {[r['relation'] for r in classical if r['failures']]}")
    for conv, rows in verify_lie_algebra(2).items():
        failed = {r["relation"]: len(r["failures"]) for r in rows if r["failures"]}
        print(f"  quantum, {conv} convention: failures per relation = {failed}")
    print("  (the three commutation rows hold; the three composite rows do not,")
    print("   under either sign convention)")
    print()

    print("== a verification suite, end to end ==")
    print(run_suite("grassmann").render_table())


if __name__ == "__main__":
    main()
