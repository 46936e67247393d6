import itertools
import random
from fractions import Fraction
from math import gcd

import pytest

from qcalc import (
    LaurentScalar,
    NCPoly,
    get_presentation,
    parse,
    render_poly,
)
from qcalc.hopf import (
    TensorPoly,
    _antipode_images,
    _coproduct_images,
    antipode,
    antipode_square,
    convolution,
    coproduct,
    counit,
    reduce_norm_factors,
    tensor,
)
from qcalc.presentations import norm_poly, specialize

A = ("a0", "a1", "a2", "a3")


def letter(gid):
    return NCPoly.letter(gid, "hq")


def assert_canonical(t):
    """Each key is a tuple of one tuple word per leg, each coefficient a
    nonzero canonical LaurentScalar."""
    for key, c in t.terms.items():
        assert type(key) is tuple and len(key) == t.legs, key
        assert all(type(w) is tuple for w in key), key
        assert type(c) is LaurentScalar and c, (key, c)
        numerators = [*c._re.values(), *c._im.values()]
        assert c._den > 0 and all(numerators)
        assert gcd(c._den, *numerators) == 1
    return t


def random_poly(rng, size=3):
    """A seeded polynomial in hq's letters with small Laurent coefficients."""
    terms = {}
    for _ in range(rng.randint(0, size)):
        w = tuple(rng.choice(A) for _ in range(rng.randint(0, 2)))
        c = (LaurentScalar.q_power(rng.randint(-1, 1)) * rng.randint(-3, 3)
             + LaurentScalar.i_unit() * rng.choice((0, 1, -2)))
        terms[w] = c
    return NCPoly(terms, "hq")


def test_tensor_construction_and_arithmetic():
    t = assert_canonical(tensor(letter("a0"), letter("a1")))
    assert t == tensor(letter("a0"), letter("a1"))
    assert assert_canonical(t + t) == 2 * t
    assert assert_canonical(t - t) == TensorPoly.zero()
    assert not (t - t)
    assert assert_canonical(-t) == (-1) * t
    u = assert_canonical(TensorPoly.unit())
    assert assert_canonical(t * u) == t
    s = tensor(letter("a2"), letter("a3"))
    prod = assert_canonical(t * s)
    assert prod == tensor(letter("a0") * letter("a2"),
                          letter("a1") * letter("a3"))
    mixed = assert_canonical(t + s - prod)
    assert len(mixed.terms) == 3


@pytest.mark.parametrize("legs", range(4))
def test_tensor_of_seeded_factors_is_the_legwise_product(legs):
    rng = random.Random(20031 + legs)
    for _ in range(20):
        factors = [random_poly(rng) for _ in range(legs)]
        want = {}
        for picks in itertools.product(*(f.terms.items() for f in factors)):
            c = LaurentScalar.one()
            for _, v in picks:
                c = c * v
            want[tuple(w for w, _ in picks)] = c
        got = assert_canonical(tensor(*factors))
        assert got.legs == legs
        assert got.terms == want
        assert list(got.terms) == list(want)


class Pairs(list):
    """(key, coefficient) pairs read through items(), as TensorPoly reads a
    map: the keys may be unhashable lists of lists."""

    def items(self):
        return self


def test_tensor_constructor_canonicalises_a_callers_map():
    t = TensorPoly(Pairs([([["a0"], ["a1", "a2"]], 2), ([[], ["a3"]], 0),
                          ((("a1",), ()), LaurentScalar.q_power(1))]))
    assert assert_canonical(t).terms == {
        (("a0",), ("a1", "a2")): LaurentScalar.coerce(2),
        (("a1",), ()): LaurentScalar.q_power(1)}
    for zero in (t * 0, 0 * t, t * LaurentScalar.zero()):
        assert zero == TensorPoly.zero() and not zero.terms
    assert assert_canonical(t * LaurentScalar.i_unit()) == TensorPoly(
        {k: c * LaurentScalar.i_unit() for k, c in t.terms.items()})


def test_tensor_sum_with_a_non_tensor_is_a_type_error():
    t = tensor(letter("a0"), letter("a1"))
    for other in (1, letter("a0")):
        with pytest.raises(TypeError):
            t + other
        with pytest.raises(TypeError):
            t - other


def test_tensor_leg_count_is_enforced():
    two = tensor(letter("a0"), letter("a1"))
    three = tensor(letter("a0"), letter("a1"), letter("a2"))
    with pytest.raises(ValueError):
        two + three


def test_tensor_normal_form_acts_legwise():
    hq = get_presentation("hq")
    t = tensor(letter("a2") * letter("a3"), letter("a0"))
    nf = assert_canonical(t.normal_form(hq))
    assert nf == tensor(letter("a3") * letter("a2"), letter("a0"))
    rng = random.Random(20037)
    for _ in range(10):
        t = tensor(random_poly(rng), random_poly(rng))
        assert_canonical(t.normal_form(hq))
        assert_canonical(t.map_leg(1, _coproduct_images(), hq))


@pytest.mark.parametrize("q0", (2, Fraction(2, 3)))
def test_tensor_reduced_at_a_specialised_q_is_a_value_at_that_q(q0):
    hq = get_presentation("hq")
    at = specialize(hq, q0)
    assert coproduct(parse("q*a0", hq), at) == coproduct(parse("a0", hq), at) * q0
    if q0 == 2:
        assert coproduct(parse("q*a0", hq), at).render(at) == (
            "-(2)*a3 (x) a3 - (2)*a2 (x) a2 - (2)*a1 (x) a1 + (2)*a0 (x) a0")
    # reducing is linear, so it commutes with evaluating at q0
    rng = random.Random(20039)
    images = _coproduct_images()
    for _ in range(10):
        t = tensor(random_poly(rng), random_poly(rng))
        for reduce in (lambda pres: t.normal_form(pres),
                       lambda pres: t.map_leg(0, images, pres)):
            got, generic = assert_canonical(reduce(at)), reduce(hq)
            assert got.terms == {k: v for k, c in generic.terms.items()
                                 if (v := c.eval_at(q0))}
    # q - 2 vanishes at q = 2: the term is dropped, not kept as zero
    t = tensor(parse("(q - 2)*a0 + a1", hq), letter("a2"))
    assert t.normal_form(specialize(hq, 2)) == tensor(letter("a1"), letter("a2"))


def test_tensor_normal_form_of_no_legs_is_the_scalar():
    hq = get_presentation("hq")
    half = LaurentScalar.one() / 2
    assert (tensor() * half).normal_form(hq) == TensorPoly({(): half}, legs=0)


def counit_of(w):
    return NCPoly.scalar(counit(NCPoly.word(w)))


def antipode_of(w):
    return antipode(NCPoly.word(w))


def test_convolution_sums_the_images_of_the_coproduct_legs():
    # coproduct(a1) = a0⊗a1 + a1⊗a0 + a2⊗a3 - a3⊗a2, each leg mapped and
    # multiplied left leg first, with no reduction
    marks = {gid: NCPoly.letter(f"m{gid[1]}") for gid in A}
    got = convolution(lambda u: marks[u[0]], NCPoly.word, letter("a1") * 3)
    want = (marks["a0"] * letter("a1") + marks["a1"] * letter("a0")
            + marks["a2"] * letter("a3") - marks["a3"] * letter("a2")) * 3
    assert got == want and got.universe is None
    # a constant's coproduct is the constant times 1⊗1
    half = NCPoly.scalar(LaurentScalar.one() / 2)
    assert convolution(NCPoly.word, NCPoly.word, half) == half


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
        left = convolution(counit_of, NCPoly.word, g)
        right = convolution(NCPoly.word, counit_of, g)
        assert hq.normal_form(left - g) == 0
        assert hq.normal_form(right - g) == 0


def test_antipode_images_are_localized():
    loc = get_presentation("hq_localized")
    assert antipode(letter("a0")) == NCPoly.word(("a0", "n_inv"), universe=loc.name)
    assert antipode(letter("a1")) == \
        -NCPoly.word(("a1", "n_inv"), universe=loc.name)


def test_antipode_images_are_built_once():
    assert _antipode_images() is _antipode_images()


def test_antipode_law_convolves_to_the_counit_on_generators():
    loc = get_presentation("hq_localized")
    for gid in A:
        g = letter(gid)
        target = NCPoly.scalar(counit(g), loc.name)
        for f, h in ((antipode_of, NCPoly.word), (NCPoly.word, antipode_of)):
            acc = convolution(f, h, g)
            assert acc.universe == loc.name
            assert reduce_norm_factors(acc) - target == 0, gid


def test_counit_convolutions_are_the_identity_on_seeded_words():
    hq = get_presentation("hq")
    rng = random.Random(3305)
    for _ in range(60):
        w = NCPoly.word(tuple(rng.choice(A) for _ in range(rng.randint(0, 3))),
                        universe=hq.name)
        for f, h in ((counit_of, NCPoly.word), (NCPoly.word, counit_of)):
            assert hq.normal_form(convolution(f, h, w)) == hq.normal_form(w), w


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
    assert all(r.keys() == {"id", "kind", "residual"} for r in hopf_records)
    exact = [r for r in hopf_records if r["kind"] == "exact"]
    info = [r for r in hopf_records if r["kind"] == "informational"]
    assert len(exact) == 51
    for record in exact:
        assert not record["residual"], record["id"]
    assert sorted(r["id"] for r in info) == [
        "antipode.square.a0", "antipode.square.a1",
        "antipode.square.a2", "antipode.square.a3"]


def test_coproduct_tells_presentations_with_one_name_apart():
    hq = get_presentation("hq")
    p = letter("a0") * letter("a1")
    generic = coproduct(p, hq)
    at_one = coproduct(p, specialize(hq, 1, name="hq"))
    assert at_one == coproduct(p, get_presentation("classical-hq"))
    assert at_one != generic
