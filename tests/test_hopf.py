import pytest

from qcalc import (
    LaurentScalar,
    NCPoly,
    get_presentation,
    render_poly,
)
from qcalc.hopf import (
    TensorPoly,
    antipode,
    antipode_square,
    coproduct,
    counit,
    reduce_norm_factors,
    tensor,
)
from qcalc.presentations import norm_poly, specialize

A = ("a0", "a1", "a2", "a3")


def letter(gid):
    return NCPoly.letter(gid, "hq")


def test_tensor_construction_and_arithmetic():
    t = tensor(letter("a0"), letter("a1"))
    assert t == tensor(letter("a0"), letter("a1"))
    assert t + t == 2 * t
    assert t - t == TensorPoly.zero()
    assert not (t - t)
    u = TensorPoly.unit()
    assert t * u == t
    s = tensor(letter("a2"), letter("a3"))
    prod = t * s
    assert prod == tensor(letter("a0") * letter("a2"),
                          letter("a1") * letter("a3"))


def test_tensor_leg_count_is_enforced():
    two = tensor(letter("a0"), letter("a1"))
    three = tensor(letter("a0"), letter("a1"), letter("a2"))
    with pytest.raises(ValueError):
        two + three


def test_tensor_normal_form_acts_legwise():
    hq = get_presentation("hq")
    t = tensor(letter("a2") * letter("a3"), letter("a0"))
    nf = t.normal_form(hq)
    assert nf == tensor(letter("a3") * letter("a2"), letter("a0"))


def test_tensor_contract_and_as_poly():
    t = tensor(letter("a0"), letter("a1")) + tensor(NCPoly.unit("hq"), letter("a2"))
    dropped = t.contract_leg(0, lambda p: counit(p))
    assert dropped.legs == 1
    assert dropped.as_poly() == letter("a1") + letter("a2")


def test_coproduct_images_match_the_published_matrix():
    assert coproduct(letter("a0")) == (
        tensor(letter("a0"), letter("a0")) - tensor(letter("a1"), letter("a1"))
        - tensor(letter("a2"), letter("a2")) - tensor(letter("a3"), letter("a3")))
    assert coproduct(letter("a1")) == (
        tensor(letter("a0"), letter("a1")) + tensor(letter("a1"), letter("a0"))
        + tensor(letter("a2"), letter("a3")) - tensor(letter("a3"), letter("a2")))


def test_coproduct_renders_with_tensor_marker():
    hq = get_presentation("hq")
    assert coproduct(letter("a3")).render(hq) == \
        "a3 (x) a0 - a2 (x) a1 + a1 (x) a2 + a0 (x) a3"


def test_coproduct_is_an_algebra_map_on_a_relation():
    hq = get_presentation("hq")
    lhs = coproduct(hq.normal_form(letter("a1") * letter("a2")), hq)
    rhs = (coproduct(letter("a1")) * coproduct(letter("a2"))).normal_form(hq)
    assert lhs - rhs == TensorPoly.zero()


def test_counit_values():
    assert counit(letter("a0")) == LaurentScalar.one()
    for gid in ("a1", "a2", "a3"):
        assert counit(letter(gid)) == 0
    hq = get_presentation("hq")
    n = NCPoly(dict(norm_poly().terms), hq.name)
    assert counit(hq.normal_form(n)) == LaurentScalar.one()


def test_counit_laws_on_generators():
    hq = get_presentation("hq")
    for gid in A:
        g = letter(gid)
        left = coproduct(g).contract_leg(0, counit).as_poly()
        right = coproduct(g).contract_leg(1, counit).as_poly()
        assert hq.normal_form(left - g) == 0
        assert hq.normal_form(right - g) == 0


def test_antipode_images_are_localized():
    loc = get_presentation("hq_localized")
    assert antipode(letter("a0")) == NCPoly.word(("a0", "n_inv"), universe=loc.name)
    assert antipode(letter("a1")) == \
        -NCPoly.word(("a1", "n_inv"), universe=loc.name)


def test_antipode_law_convolves_to_the_counit_on_generators():
    loc = get_presentation("hq_localized")
    for gid in A:
        g = letter(gid)
        target = NCPoly.scalar(counit(g), loc.name)
        acc = NCPoly.zero(loc.name)
        for (u, v), c in coproduct(g).terms.items():
            acc = acc + antipode(NCPoly.word(u)) * \
                NCPoly.word(v, universe=loc.name) * c
        reduced = reduce_norm_factors(loc.normal_form(acc))
        assert reduced - target == 0, gid


def test_norm_is_grouplike():
    hq = get_presentation("hq")
    n = NCPoly(dict(norm_poly().terms), hq.name)
    lhs = coproduct(hq.normal_form(n), hq)
    rhs = tensor(n, n).normal_form(hq)
    assert lhs - rhs == TensorPoly.zero()


def test_reduce_norm_factors_cancels_assembled_norms():
    loc = get_presentation("hq_localized")
    n = NCPoly(dict(norm_poly().terms), loc.name)
    ninv = NCPoly.letter("n_inv", loc.name)
    assert reduce_norm_factors(loc.normal_form(n * ninv)) == NCPoly.unit(loc.name)
    # a norm times a coordinate, then the inverse, leaves the coordinate
    g = NCPoly.letter("a2", loc.name)
    assert reduce_norm_factors(loc.normal_form(n * g * ninv)) == \
        loc.normal_form(g)
    # untouched input comes back unchanged
    assert reduce_norm_factors(loc.normal_form(g)) == loc.normal_form(g)


def test_antipode_square_frozen_values():
    loc = get_presentation("hq_localized")
    assert antipode_square("a0") == NCPoly.letter("a0", loc.name)
    assert render_poly(antipode_square("a2"), loc) == (
        "-(1/2)*i*q^2*a3 + (1/2)*i*q^-2*a3 + (1/2)*q^2*a2 + (1/2)*q^-2*a2")
    assert render_poly(antipode_square("a3"), loc) == (
        "(1/2)*q^2*a3 + (1/2)*q^-2*a3 + (1/2)*i*q^2*a2 - (1/2)*i*q^-2*a2")
    assert len(antipode_square("a1").terms) == 6


def test_hopf_axiom_suite_is_exact(hopf_records):
    assert len(hopf_records) == 55
    exact = [r for r in hopf_records if r["kind"] == "exact"]
    info = [r for r in hopf_records if r["kind"] == "informational"]
    assert len(exact) == 51
    for record in exact:
        assert not record["residual"], record["id"]
    assert sorted(r["id"] for r in info) == [
        "antipode.square.a0", "antipode.square.a1",
        "antipode.square.a2", "antipode.square.a3"]


def test_coproduct_cache_tells_presentations_with_one_name_apart():
    hq = get_presentation("hq")
    p = letter("a0") * letter("a1")
    generic = coproduct(p, hq)
    at_one = coproduct(p, specialize(hq, 1, name="hq"))
    assert at_one == coproduct(p, get_presentation("classical-hq"))
    assert at_one != generic
