import random
from fractions import Fraction
from pathlib import Path

import pytest

import qcalc.presentations
from qcalc import (
    LaurentScalar,
    NCPoly,
    Presentation,
    PresentationError,
    UnknownGeneratorError,
    get_presentation,
    render_poly,
    shipped_names,
)
from qcalc.presentations import (
    _CATALOG_BUILDERS,
    CONSTANT_LETTERS,
    corrected_rule_diff,
    grassmann_vs_differentials_crosscheck,
    leibniz_consistency_check,
    leibniz_expansion,
    norm_poly,
    specialize,
)
from qcalc.calculus import cartan_maurer_d, da_from_w

DATA_DIR = Path(__file__).resolve().parents[1] / "presentations"


def test_catalog_names_and_aliases():
    names = shipped_names()
    assert names == [
        "hq", "units", "dga", "cartan_maurer", "grassmann",
        "classical-hq", "classical-units", "classical-dga",
        "classical-cartan_maurer", "classical-grassmann", "dga_literal",
    ]
    assert get_presentation("cm").name == "cartan_maurer"
    assert get_presentation("classical-cm").name == "classical-cartan_maurer"
    with pytest.raises(PresentationError):
        get_presentation("nope")


def test_oracles_and_unit_universes_reuse_catalog_presentations(monkeypatch):
    for name in ("hq", "dga", "dga_literal", "cartan_maurer", "grassmann"):
        get_presentation(name)
    built = []
    monkeypatch.setattr(Presentation, "_validate",
                        lambda self: built.append(self.name))
    corrected_rule_diff()
    grassmann_vs_differentials_crosscheck()
    assert built == []
    for name in ("units", "units_dga", "units_cm"):
        _CATALOG_BUILDERS[name]()
    assert built == ["units", "units_dga", "units_cm"]


def test_rule_counts_per_universe():
    expected = {
        "hq": 6,
        "units": 27,
        "dga": 32,
        "dga_literal": 32,
        "cartan_maurer": 32,
        "grassmann": 10,
    }
    for name, count in expected.items():
        assert len(get_presentation(name).rules) == count, name


def test_every_shipped_presentation_is_locally_confluent_except_literal():
    for name in shipped_names():
        if name == "dga_literal":
            continue
        failures = get_presentation(name).check_local_confluence()
        assert failures == [], name
    assert len(get_presentation("dga_literal").check_local_confluence()) == 64


# Normal words per degree 0..5, the empty word being the one of degree 0.
# With a termination order and local confluence these are dimensions.
# dga_literal shares dga's lhs set, so it has dga's counts, but with 64
# failing overlaps its normal words need not be independent: for it the
# counts are only an upper bound on the dimensions.
NORMAL_WORD_COUNTS = {
    "hq": (1, 4, 10, 20, 35, 56),  # C(n+3, 3)
    "hq_localized": (1, 5, 15, 35, 70, 126),  # C(n+4, 4)
    "units": (1, 7, 22, 50, 95, 161),
    "grassmann": (1, 4, 6, 4, 1, 0),  # (1+t)^4
    "dga": (1, 8, 32, 88, 192, 360),  # (1+t)^4/(1-t)^4
    "cartan_maurer": (1, 8, 32, 88, 192, 360),
    "units_dga": (1, 11, 56, 184, 456, 936),
    "units_cm": (1, 11, 56, 184, 456, 936),
    "dga_literal": (1, 8, 32, 88, 192, 360),
}


@pytest.mark.parametrize("name", sorted(NORMAL_WORD_COUNTS))
def test_normal_word_counts_by_degree(name):
    for pres in (get_presentation(name), get_presentation(f"classical-{name}")):
        words = pres.normal_words(5)
        counts = tuple(sum(len(w) == n for w in [()] + words) for n in range(6))
        assert counts == NORMAL_WORD_COUNTS[name], pres.name
        assert all(pres.is_normal(NCPoly.word(w)) for w in words)
        assert words == sorted(words, key=lambda w: (len(w), [pres.rank(g) for g in w]))


def test_normal_words_of_hq_are_its_ordered_monomials():
    a3, a2, a1, a0 = (("a3",), ("a2",), ("a1",), ("a0",))
    assert get_presentation("hq").normal_words(2) == [
        a3, a2, a1, a0, a3 + a3, a3 + a2, a3 + a1, a3 + a0, a2 + a2, a2 + a1,
        a2 + a0, a1 + a1, a1 + a0, a0 + a0]
    assert get_presentation("hq").normal_words(0) == []


def test_corrected_rule_diff_is_the_frozen_six():
    assert corrected_rule_diff() == (
        ("a2", "da1"), ("a3", "da1"),
        ("da0", "da3"), ("da1", "da3"), ("da2", "da2"), ("da3", "da3"),
    )


def test_literal_and_corrected_differ_exactly_at_the_diff():
    dga = get_presentation("dga")
    lit = get_presentation("dga_literal")
    assert set(dga.rules) == set(lit.rules)
    changed = tuple(sorted(
        lhs for lhs in dga.rules if dga.rules[lhs] != lit.rules[lhs]))
    assert changed == tuple(sorted(corrected_rule_diff()))


def test_norm_is_central_in_the_coordinate_algebra():
    hq = get_presentation("hq")
    n = norm_poly()
    for gid in ("a0", "a1", "a2", "a3"):
        g = NCPoly.letter(gid)
        assert hq.normal_form(n * g - g * n) == 0


def test_specialization_names_and_values():
    hq = get_presentation("hq")
    at2 = specialize(hq, 2)
    assert at2.name == "hq@q=2"
    assert specialize(hq, 1).name == "classical-hq"
    cl = get_presentation("classical-hq")
    assert cl.normal_form(NCPoly.word(("a0", "a1"), universe=cl.name)) == \
        NCPoly.word(("a1", "a0"), universe=cl.name)


def test_a_presentation_records_the_q_it_is_specialized_at():
    hq = get_presentation("hq")
    assert hq.q is None
    assert get_presentation("classical-hq").q == 1
    assert specialize(hq, Fraction(2, 3)).q == Fraction(2, 3)
    specialize(get_presentation("classical-hq"), 1)
    with pytest.raises(PresentationError, match="already specialized at q = 2"):
        specialize(specialize(hq, 2), 3)


def test_eval_at_specializes_coefficients():
    hq = get_presentation("hq")
    nf = hq.normal_form(NCPoly.word(("a0", "a1")))
    cl = nf.eval_at(1)
    assert cl == NCPoly.word(("a1", "a0"))


def test_respecialising_at_the_own_q_gives_the_same_universe():
    hq = get_presentation("hq")
    at2 = specialize(hq, 2)
    assert specialize(at2, 2) is at2
    assert specialize(at2, Fraction(4, 2)) is at2
    cl = get_presentation("classical-hq")
    assert specialize(cl, 1) is cl
    p = NCPoly.word(("a0", "a1", "a2"))
    assert at2.normal_form(p) - specialize(at2, 2).normal_form(p) == 0


def letterwise_leibniz(p, pres):
    """d of p letter by letter: a grade-0 coordinate letter becomes its
    differential letter, signed by the grade of the letters before it;
    every other letter is annihilated."""
    out = NCPoly.zero(p.universe)
    for w, c in p.terms.items():
        for j, letter in enumerate(w):
            if pres.grade(letter) == 0 and letter not in CONSTANT_LETTERS:
                sign = (-1) ** pres.word_grade(w[:j])
                out = out + NCPoly.word(w[:j] + ("d" + letter,) + w[j + 1:],
                                        c * sign, p.universe)
    return out


def seeded_poly(rng, pres, max_len=4, terms=4):
    gens = pres.generator_ids()
    i, q = LaurentScalar.i_unit(), LaurentScalar.q_power(1)
    pool = (LaurentScalar.one(), -LaurentScalar.one(), i * q, q - 2)
    out = NCPoly.zero(pres.name)
    for _ in range(rng.randint(1, terms)):
        w = tuple(rng.choice(gens) for _ in range(rng.randint(0, max_len)))
        out = out + NCPoly.word(w, rng.choice(pool), pres.name)
    return out


@pytest.mark.parametrize("name", ["dga", "units_dga"])
def test_leibniz_expansion_by_default_maps_each_coordinate_to_its_differential(name):
    pres = get_presentation(name)
    rng = random.Random(3301)
    for _ in range(40):
        p = seeded_poly(rng, pres)
        got = leibniz_expansion(p, pres)
        assert got == letterwise_leibniz(p, pres), p
        assert got.universe == pres.name


def frame_images():
    """d of the frame algebra's letters: da_k in the frame, and the
    two-form table for d(w_j)."""
    return {**da_from_w(), **{f"w{j}": cartan_maurer_d(j) for j in range(4)}}


@pytest.mark.parametrize("name, images", [
    ("dga", None), ("cartan_maurer", frame_images())], ids=["dga", "cartan_maurer"])
def test_leibniz_expansion_is_a_graded_derivation_before_reduction(name, images):
    # d(x*y) = d(x)*y + (-1)^|x| x*d(y) on seeded pairs of words
    pres = get_presentation(name)
    gens = pres.generator_ids()
    rng = random.Random(3303)
    for _ in range(80):
        x, y = (NCPoly.word(tuple(rng.choice(gens) for _ in range(rng.randint(0, 3))))
                for _ in range(2))
        sign = (-1) ** pres.word_grade(next(iter(x.terms)))
        want = (leibniz_expansion(x, pres, images) * y
                + x * leibniz_expansion(y, pres, images) * sign)
        assert leibniz_expansion(x * y, pres, images) == want, (x, y)


def test_leibniz_expansion_annihilates_a_letter_without_an_image():
    dga = get_presentation("dga")
    p = NCPoly.word(("da1", "a2", "a0"))
    assert leibniz_expansion(p, dga, {"a0": NCPoly.letter("a3")}) == \
        NCPoly.word(("da1", "a2", "a3"), -1)
    assert leibniz_expansion(p, dga, {}) == 0


def test_leibniz_expansion_by_default_needs_the_differential_letters():
    with pytest.raises(UnknownGeneratorError):
        leibniz_expansion(NCPoly.word(("e1", "a2")), get_presentation("units"))
    # constant letters need none
    assert leibniz_expansion(NCPoly.word(("e1", "e2")), get_presentation("units")) == 0
    assert leibniz_expansion(NCPoly.letter("n_inv"), get_presentation("hq_localized")) == 0


def test_leibniz_rows_are_clean_on_the_repaired_table():
    rows = leibniz_consistency_check(get_presentation("dga"))
    assert len(rows) == 22
    kinds = {}
    for row in rows:
        kinds[row["kind"]] = kinds.get(row["kind"], 0) + 1
        assert row["residual"] == 0, row["lhs"]
    assert kinds == {"coordinate": 6, "mixed": 16}


def test_leibniz_rows_break_only_at_repaired_rules_on_the_printed_table():
    rows = leibniz_consistency_check(get_presentation("dga_literal"))
    repaired = set(corrected_rule_diff())
    bad = [row for row in rows if row["residual"]]
    assert len(bad) == 15
    for row in bad:
        assert row["rules_used"] & repaired or row["lhs"] in repaired, row["lhs"]


def test_grassmann_translation_matches_on_nine_of_ten_rows():
    rows = grassmann_vs_differentials_crosscheck()
    assert len(rows) == 10
    by_id = {row["id"]: row for row in rows}
    mismatches = [row["id"] for row in rows if not row["match"]]
    assert mismatches == ["squares.common-coefficient"]
    flagged = by_id["squares.common-coefficient"]
    assert "(2)" in flagged["detail"]
    assert flagged["residual"]


@pytest.mark.parametrize("name, lhs, word", [
    ("grassmann", ("psi2", "psi2"), ("psi1", "psi0")),
    ("dga_literal", ("da2", "da2"), ("da1", "da0")),
], ids=["grassmann", "dga_literal"])
def test_grassmann_crosscheck_reads_an_absent_square_coefficient_as_zero(
        monkeypatch, name, lhs, word):
    pres = get_presentation(name)
    rules = dict(pres.rules)
    rules[lhs] = NCPoly({w: c for w, c in rules[lhs].terms.items() if w != word})
    monkeypatch.setitem(qcalc.presentations._cache, name, Presentation(
        pres.name, pres.generators, rules, pres.description))
    rows = grassmann_vs_differentials_crosscheck()
    assert len(rows) == 10
    flagged = {row["id"]: row for row in rows}["squares.common-coefficient"]
    assert not flagged["match"]
    # the residual is da_coeff - gr_coeff with the dropped one read as 0
    da_coeff = get_presentation("dga_literal").rules["da2", "da2"].terms.get(("da1", "da0"))
    gr_coeff = get_presentation("grassmann").rules["psi2", "psi2"].terms.get(("psi1", "psi0"))
    kept = da_coeff if name == "grassmann" else -gr_coeff
    assert flagged["residual"] == NCPoly({("da1", "da0"): kept})


def test_shipped_presentation_files_match_the_builders():
    # the directory holds exactly one file per shipped name, nothing else
    files = sorted(DATA_DIR.iterdir())
    assert [f.name for f in files] == sorted(f"{n}.json" for n in shipped_names())
    for f in files:
        assert get_presentation(f.stem).dump_json() == f.read_text(), f.stem


def test_localized_universe_keeps_the_inverse_rightmost_and_central():
    loc = get_presentation("hq_localized")
    ninv = NCPoly.letter("n_inv", loc.name)
    for gid in ("a0", "a1", "a2", "a3"):
        g = NCPoly.letter(gid, loc.name)
        assert loc.normal_form(ninv * g - g * ninv) == 0
        nf = loc.normal_form(ninv * g)
        assert all(w[-1] == "n_inv" for w in nf.terms)


def test_unit_sector_multiplication_table():
    units = get_presentation("units")
    e = {k: NCPoly.letter(f"e{k}", units.name) for k in (1, 2, 3)}
    assert units.normal_form(e[2] * e[3]) == e[1]
    assert units.normal_form(e[3] * e[2]) == -e[1]
    assert units.normal_form(e[1] * e[1]) == -NCPoly.unit(units.name)
    assert render_poly(units.normal_form(e[2] * e[3]), units) == "e1"
