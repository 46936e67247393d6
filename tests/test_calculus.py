import pytest

import qcalc.calculus
import qcalc.presentations
from qcalc import (NCPoly, Presentation, PresentationError, UniverseMismatchError,
                   get_presentation, render_poly)
from qcalc.calculus import (
    _STAR_IMAGES,
    OMEGA_BAR_CANDIDATES,
    _star_images,
    _frame_parts,
    _monomial_basis,
    apply_field,
    cartan_maurer_d,
    conversion_closure_residuals,
    coordinate_frame_coefficients,
    da_from_w,
    differential,
    extract_vector_fields,
    nilpotency_residuals,
    omega_forms,
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
from qcalc.presentations import norm_poly, rat, shipped_names
from qcalc.verify import run_suite


def test_differential_of_letters_and_products():
    dga = get_presentation("dga")
    a2 = NCPoly.letter("a2", dga.name)
    assert differential(a2, dga) == NCPoly.letter("da2", dga.name)
    # graded Leibniz on a grade-0 product
    a0 = NCPoly.letter("a0", dga.name)
    lhs = differential(dga.normal_form(a0 * a2), dga)
    rhs = dga.normal_form(differential(a0, dga) * a2 + a0 * differential(a2, dga))
    assert dga.normal_form(lhs - rhs) == 0


def test_differential_squares_to_zero_on_generators():
    rows = nilpotency_residuals()
    assert len(rows) == 16
    for label, residual in rows:
        assert residual == 0, label


def test_star_tables_per_universe():
    assert set(star_table("hq")) == {"a0", "a1", "a2", "a3"}
    assert set(star_table("cartan_maurer")) == {
        "a0", "a1", "a2", "a3", "w0", "w1", "w2", "w3"}
    with pytest.raises(PresentationError):
        star_table("grassmann")


@pytest.mark.parametrize("name", [*shipped_names(), "units_dga", "units_cm",
                                  "hq_localized", "cm", "classical-cm"])
def test_star_table_is_read_off_the_generators(name):
    pres = get_presentation(name)
    if name in ("grassmann", "classical-grassmann"):
        with pytest.raises(PresentationError, match="no star structure"):
            star_table(name)
        return
    table = star_table(name)
    assert set(table) == {g.id for g in pres.generators}
    if pres.name.startswith("classical-"):
        assert all(c._is_constant() for image in table.values()
                   for c in image.terms.values())


def test_literal_dga_has_the_star_table_of_dga():
    assert star_table("dga_literal") == star_table("dga")
    assert star_table("classical-dga_literal") == star_table("classical-dga")


def test_star_images_are_unchanged_by_a_full_run():
    run_suite("all")
    assert _STAR_IMAGES == _star_images()


def test_star_worked_value_on_the_third_coordinate():
    hq = get_presentation("hq")
    img = star(NCPoly.letter("a2", hq.name), star_table("hq"), hq)
    assert render_poly(img, hq) == (
        "-(1/2)*i*q*a3 + (1/2)*i*q^-1*a3 + (1/2)*q*a2 + (1/2)*q^-1*a2")


def test_star_is_involutive_on_the_coordinate_and_unit_universes():
    for name in ("hq", "units", "classical-dga", "classical-cartan_maurer"):
        for gid, residual in star_involution_residuals(name):
            assert residual == 0, (name, gid)


def test_star_involution_defect_on_the_quantum_differential_universes():
    dga = get_presentation("dga")
    rows = dict(star_involution_residuals("dga"))
    for k in range(4):
        assert render_poly(rows[f"da{k}"], dga) == f"q^4*da{k} - da{k}"
        assert rows[f"a{k}"] == 0
    cm = get_presentation("cartan_maurer")
    rows = dict(star_involution_residuals("cartan_maurer"))
    assert render_poly(rows["w0"], cm) == (
        "i*w1 - (2)*i*q^-2*w1 + i*q^-4*w1 - w0 + q^-4*w0")


def test_star_names_the_first_letter_without_a_table_entry():
    units = get_presentation("units")
    p = NCPoly.letter("e2", units.name) + NCPoly.word(("e3", "a0", "e1"))
    with pytest.raises(PresentationError,
                       match=r"^star table has no entry for 'e1'$"):
        star(p, star_table("hq"), units)


def test_star_reverses_products():
    hq = get_presentation("hq")
    table = star_table("hq")
    p = NCPoly.word(("a0", "a2"), universe=hq.name)
    r = NCPoly.word(("a1",), universe=hq.name)
    lhs = star(hq.normal_form(p * r), table, hq)
    rhs = hq.normal_form(star(r, table, hq) * star(p, table, hq))
    assert hq.normal_form(lhs - rhs) == 0


def test_frame_forms_convert_both_ways():
    forms = omega_forms()
    assert set(forms) == {"w0", "w1", "w2", "w3"}
    rows = da_from_w()
    assert set(rows) == {"a0", "a1", "a2", "a3"}
    for lhs, residual in one_form_consistency_residuals():
        assert residual == 0, lhs


def test_frame_coefficients_of_the_first_coordinate():
    parts = coordinate_frame_coefficients(NCPoly.letter("a0"))
    a = {g: NCPoly.letter(g) for g in ("a0", "a1", "a2", "a3")}
    assert parts["w0"] == a["a0"]
    assert parts["w1"] == -a["a1"]
    assert parts["w2"] == -a["a2"]
    assert parts["w3"] == -a["a3"]


@pytest.mark.parametrize("cap,classical", [(4, False), (5, True)])
def test_incremental_frame_table_matches_the_per_word_conversion(cap, classical):
    table = _frame_parts(cap, classical)
    basis = list(_monomial_basis(cap))
    assert list(table) == [()] + basis
    for word in basis:
        oracle = coordinate_frame_coefficients(NCPoly.word(word), classical)
        for k in ("w0", "w1", "w2", "w3"):
            assert table[word][k].terms == oracle[k].terms, (word, k)
            # frame parts keep word length, so verify_lie_algebra's
            # compositions never leave a table tabulated to its cap
            assert all(len(v) == len(word) for v in table[word][k].terms), (word, k)


def _lie_rows(records):
    return [(row["relation"], [(w, val.terms) for w, val in row["failures"]])
            for row in records]


@pytest.mark.parametrize("cap,mode", [(2, "quantum"), (3, "classical")])
@pytest.mark.parametrize("convention", ["bracket", "printed"])
def test_lie_rows_match_a_table_two_degrees_deeper(monkeypatch, cap, mode,
                                                   convention):
    rows = _lie_rows(verify_lie_algebra(cap, mode)[convention])
    deeper = qcalc.calculus.extract_vector_fields
    monkeypatch.setattr(qcalc.calculus, "extract_vector_fields",
                        lambda c, **kw: deeper(c + 2, **kw))
    assert rows == _lie_rows(verify_lie_algebra(cap, mode)[convention])


@pytest.mark.parametrize("cap", [-1, -2])
@pytest.mark.parametrize("mode", ["quantum", "classical"])
def test_lie_algebra_rejects_a_negative_cap(cap, mode):
    with pytest.raises(ValueError, match="verify_lie_algebra cap"):
        verify_lie_algebra(cap, mode)


@pytest.mark.parametrize("mode", ["quantum", "classical"])
def test_lie_algebra_at_cap_zero_checks_the_constant_monomial(monkeypatch, mode):
    seen = []
    apply = qcalc.calculus.apply_field

    def spy(table, p):
        seen.append(p)
        return apply(table, p)

    monkeypatch.setattr(qcalc.calculus, "apply_field", spy)
    by_convention = verify_lie_algebra(0, mode)
    assert list(by_convention) == ["bracket", "printed"]
    for convention, records in by_convention.items():
        assert len(records) == 6
        assert all(row["convention"] == convention for row in records)
        assert all(row["failures"] == [] for row in records)
    # one monomial, the constant: each composition n_i∘n_j is applied
    # once, to n_j(1), which is zero
    rows = qcalc.calculus._lie_rows(mode == "classical")
    pairs = {key for row in rows.values() for key in row if len(key) == 2}
    assert len(seen) == len(pairs)
    assert not any(seen)


@pytest.mark.parametrize("cap,mode", [(2, "quantum"), (3, "classical")])
def test_printed_rows_are_the_bracket_rows_of_halved_fields(monkeypatch, cap, mode):
    printed = verify_lie_algebra(cap, mode)["printed"]
    tabulate = qcalc.calculus.extract_vector_fields
    half = rat(1, 2)

    def halved(c, **kw):
        return tuple({w: half * img for w, img in table.items()}
                     for table in tabulate(c, **kw))

    monkeypatch.setattr(qcalc.calculus, "extract_vector_fields", halved)
    assert _lie_rows(verify_lie_algebra(cap, mode)["bracket"]) == _lie_rows(printed)


@pytest.mark.parametrize("suite", ["classical", "vector-fields"])
def test_a_suite_tabulates_the_vector_fields_once(monkeypatch, suite):
    calls = []
    tabulate = qcalc.calculus.extract_vector_fields

    def spy(cap, **kw):
        calls.append(cap)
        return tabulate(cap, **kw)

    monkeypatch.setattr(qcalc.calculus, "extract_vector_fields", spy)
    run_suite(suite)
    assert len(calls) == 1


def test_two_form_table_and_its_printed_variant():
    cm = get_presentation("cartan_maurer")
    assert render_poly(cartan_maurer_d(0), cm) == "-i*w3*w2 + i*q^-2*w3*w2"
    assert render_poly(cartan_maurer_d(0, literal=True), cm) == \
        "i*w3*w2 - i*q^-2*w3*w2"
    for k in (1, 2, 3):
        assert cartan_maurer_d(k) == cartan_maurer_d(k, literal=True)


def test_two_form_closure_needs_the_letter_swap():
    for aid, residual in conversion_closure_residuals():
        assert residual == 0, aid
    literal = conversion_closure_residuals(literal=True)
    assert all(residual != 0 for _, residual in literal)


def test_two_form_classical_limits():
    cl = get_presentation("classical-cartan_maurer")
    w = {k: NCPoly.letter(f"w{k}", cl.name) for k in range(4)}
    targets = {0: NCPoly.zero(cl.name), 1: 2 * w[2] * w[3],
               2: 2 * w[3] * w[1], 3: -2 * w[2] * w[1]}
    for k in range(4):
        limit = NCPoly(dict(cartan_maurer_d(k).eval_at(1).terms), cl.name)
        assert cl.normal_form(limit - cl.normal_form(targets[k])) == 0, k


def test_star_commutes_with_d_up_to_the_squared_deformation():
    for k in range(4):
        assert verify_d_star(k) == 0, k


def test_norm_differential_frozen_value():
    udga = get_presentation("units_dga")
    dga = get_presentation("dga")
    assert render_poly(differential(norm_poly(), dga), udga) == (
        "(2)*q^-1*da3*a3 + (2)*q^-1*da2*a2 + da1*a1 + q^-2*da1*a1 "
        "- i*da1*a0 + i*q^-2*da1*a0 + i*da0*a1 - i*q^-2*da0*a1 "
        "+ da0*a0 + q^-2*da0*a0")


def test_unit_norm_extension_universes():
    # working universes, not clean presentations: the norm rewrites
    # overlap the sector rules, so local confluence is not expected
    full = unit_norm_extension()
    plain = unit_norm_extension(with_norm_differential=False)
    assert len(full.rules) == 67
    assert len(plain.rules) == 66
    assert len(full.check_local_confluence()) == 64
    assert len(plain.check_local_confluence()) == 4


def test_the_unit_norm_extensions_with_and_without_dn_do_not_mix():
    full = unit_norm_extension("dga")
    plain = unit_norm_extension("dga", with_norm_differential=False)
    assert (len(full.rules), len(plain.rules)) == (34, 33)
    assert full.name != plain.name
    p = NCPoly.word(("da2", "a2"))
    with pytest.raises(UniverseMismatchError):
        full.normal_form(p) - plain.normal_form(p)
    # without differentials the two requests build one universe
    assert (unit_norm_extension("units").name
            == unit_norm_extension("units", with_norm_differential=False).name)


def test_unit_norm_extension_names_a_pivot_that_does_not_divide(monkeypatch):
    # negating the first rhs coefficient of a2*da2 leaves dN with a pivot
    # coefficient that does not divide the others
    dga = get_presentation("dga")
    rules = dict(dga.rules)
    (word, coeff), *rest = rules["a2", "da2"].terms.items()
    rules["a2", "da2"] = NCPoly({word: -coeff, **dict(rest)})
    mutated = Presentation(dga.name, dga.generators, rules, dga.description)
    monkeypatch.setitem(qcalc.presentations._cache, "dga", mutated)
    with pytest.raises(PresentationError, match=r"pivot da2\*a2"):
        unit_norm_extension("dga")


def test_differentials_recover_on_the_unit_sphere():
    rows = recover_differentials_on_unit_sphere()
    assert [gid for gid, _ in rows] == ["a0", "a1", "a2", "a3"]
    for gid, residual in rows:
        assert residual == 0, gid


def test_boundary_form_candidates_frozen_residuals():
    assert OMEGA_BAR_CANDIDATES == ("star-of-omega", "h-dhstar")
    cm = get_presentation("cartan_maurer")
    first = verify_omega_bar_identity("star-of-omega")
    assert render_poly(first, cm) == \
        "-(2)*i*w1 + (2)*i*q^-2*w1 + (2)*q^-2*w0"
    # the first reading stays wrong at q=1, the second becomes exact
    classical_first = first.eval_at(1)
    w0 = NCPoly.letter("w0")
    assert classical_first == 2 * w0
    second = verify_omega_bar_identity("h-dhstar")
    assert len(second.terms) == 6
    assert second.eval_at(1) == 0


def test_vector_fields_tabulate_and_compose():
    n0, n1, n2, n3 = extract_vector_fields(2)
    hq = get_presentation("hq")
    a1 = NCPoly.letter("a1", hq.name)
    assert list(n1) == [()] + list(_monomial_basis(2))
    assert apply_field(n1, a1) == n1[("a1",)]
    assert apply_field(n2, apply_field(n1, a1))
    with pytest.raises(KeyError):
        apply_field(n1, NCPoly.word(("a0",) * 9, universe=hq.name))


def test_quantum_relations_hold_on_commutation_rows(quantum_lie_records):
    for convention, records in quantum_lie_records.items():
        by_label = {row["relation"]: row for row in records}
        for label in ("n0n1-n1n0", "n0n2-n2n0", "n0n3-n3n0"):
            assert by_label[label]["failures"] == [], (convention, label)


def test_quantum_composite_rows_fail_identically_under_both_conventions(
        quantum_lie_records):
    for convention, records in quantum_lie_records.items():
        by_label = {row["relation"]: row for row in records}
        for label in ("n1n2-row", "n1n3-row", "n3n2-row"):
            assert len(by_label[label]["failures"]) == 14, (convention, label)


def test_composite_row_residuals_vanish_classically_only_for_brackets(
        quantum_lie_records):
    for convention, records in quantum_lie_records.items():
        nonzero_at_one = 0
        for row in records:
            for _, residual in row["failures"]:
                if residual.eval_at(1):
                    nonzero_at_one += 1
        if convention == "bracket":
            assert nonzero_at_one == 0
        else:
            assert nonzero_at_one == 42


def test_classical_brackets_annihilate_low_degrees(classical_lie_records):
    assert len(classical_lie_records) == 6
    for row in classical_lie_records:
        assert row["failures"] == [], row["relation"]
