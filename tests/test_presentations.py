from fractions import Fraction
from pathlib import Path

import pytest

import qcalc.presentations
from qcalc import (
    NCPoly,
    Presentation,
    PresentationError,
    get_presentation,
    render_poly,
    shipped_names,
)
from qcalc.presentations import (
    build_units,
    build_units_cm,
    build_units_dga,
    classical,
    corrected_rule_diff,
    grassmann_vs_differentials_crosscheck,
    leibniz_consistency_check,
    norm_poly,
    specialize,
)

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
    build_units(), build_units_dga(), build_units_cm()
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
    assert classical(hq).name == "classical-hq"
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
    files = sorted(DATA_DIR.glob("*.json"))
    assert [f.stem for f in files] == sorted(shipped_names())
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
