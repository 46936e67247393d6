import json
import random
from fractions import Fraction

import pytest

from qcalc import (
    LaurentScalar,
    NCPoly,
    Presentation,
    PresentationError,
    RewritingCycleError,
    UniverseMismatchError,
    UnknownGeneratorError,
    get_presentation,
    parse,
    render_poly,
    specialize,
)
from qcalc.algebra import Generator
from qcalc.presentations import build_hq


@pytest.fixture
def hq():
    return get_presentation("hq")


def test_poly_constructors_and_equality():
    p = NCPoly.word(("a0", "a1"), 2)
    assert p == NCPoly.letter("a0") * NCPoly.letter("a1") * 2
    assert NCPoly.zero() == 0
    assert not NCPoly.zero()
    assert NCPoly.unit() == NCPoly.scalar(1)
    assert NCPoly.scalar(0) == 0
    assert hash(NCPoly.zero()) == hash(0)
    assert len({NCPoly.zero(), 0}) == 1


def test_a_constant_polynomial_equals_its_value():
    two = NCPoly.scalar(2, "hq")
    assert two == 2 and 2 == two
    assert two == Fraction(2) and two == LaurentScalar.coerce(2)
    assert NCPoly.unit() == 1 and NCPoly.scalar(Fraction(1, 2)) == Fraction(1, 2)
    assert two != 3 and NCPoly.zero() != 1 and NCPoly.letter("a0") != 1
    assert NCPoly.word((), 2) + NCPoly.letter("a0") != 2
    i_half = LaurentScalar.coerce(Fraction(1, 2)) * LaurentScalar.i_unit()
    assert NCPoly.scalar(i_half) == i_half
    assert hash(NCPoly.scalar(i_half)) == hash(i_half)
    assert len({two, 2, Fraction(2), LaurentScalar.coerce(2)}) == 1
    assert len({NCPoly.scalar(Fraction(1, 2)), Fraction(1, 2)}) == 1


def test_generator_is_an_immutable_hashable_record():
    g = Generator("a0", 0, 0)
    assert repr(g) == "Generator(id='a0', grade=0, rank=0)"
    assert g == Generator(id="a0", grade=0, rank=0) == ("a0", 0, 0)
    assert hash(g) == hash(Generator("a0", 0, 0))
    assert len({g, Generator("a0", 0, 0), Generator("a0", 0, 1)}) == 2
    with pytest.raises(AttributeError):
        g.rank = 1


def test_poly_ring_axioms_on_samples():
    x = NCPoly.letter("x")
    y = NCPoly.letter("y")
    assert x * (y + 1) == x * y + x
    assert (x + y) * (x - y) == x * x - x * y + y * x - y * y
    assert -(x - y) == y - x
    assert 2 * x == x + x
    assert x * 0 == 0


def test_universe_tags_merge_and_conflict():
    a = NCPoly.letter("a0", "hq")
    b = NCPoly.letter("a1")
    assert (a + b).universe == "hq"
    assert (b * a).universe == "hq"
    with pytest.raises(UniverseMismatchError):
        a + NCPoly.letter("w0", "cartan_maurer")


def test_map_and_eval_coefficients():
    i = LaurentScalar.i_unit()
    q = LaurentScalar.q_power(1)
    p = NCPoly.word(("x",), i * q) + NCPoly.scalar(q ** 2)
    assert p.conj_coeffs() == NCPoly.word(("x",), -i * q) + NCPoly.scalar(q ** 2)
    at2 = p.eval_at(2)
    assert at2 == NCPoly.word(("x",), i * 2) + NCPoly.scalar(4)
    assert p.map_coeffs(lambda c: c * 0) == 0


def test_a_specialized_normal_form_evaluates_a_q_free_input_no_more(monkeypatch):
    base = get_presentation("hq")
    hq2 = specialize(base, 2)
    text = "(1/2)*a0*a1 - (3 + i)*a3*a2 + i*a2*a2*a1"
    p = parse(text, hq2)
    assert p.terms and all(c._is_constant() for c in p.terms.values())
    assert p.eval_at(2) is p
    calls = []
    value_at = LaurentScalar.value_at

    def spy(self, *args):
        calls.append(self)
        return value_at(self, *args)

    monkeypatch.setattr(LaurentScalar, "value_at", spy)
    nf = hq2.normal_form(p)
    assert calls == []
    assert nf == base.normal_form(parse(text, base)).eval_at(2)
    with pytest.raises(ValueError):
        p.eval_at(0)
    # an input with q in it is still evaluated at the presentation's q
    assert hq2.normal_form(parse("q*a0*a1", hq2)) == \
        hq2.normal_form(parse("2*a0*a1", hq2))
    assert calls


def test_a_normal_form_is_tagged_with_the_universe_it_was_reduced_in(hq):
    hq2 = specialize(hq, 2)
    generic = parse("q*a0", hq)
    at2 = hq2.normal_form(generic)
    assert at2.universe == hq2.name
    assert at2 == NCPoly.word(("a0",), 2, hq2.name)
    # a value at q = 2 does not mix with one at generic q
    with pytest.raises(UniverseMismatchError):
        at2 - generic
    assert hq.normal_form(NCPoly.letter("a0")).universe == "hq"


def assert_canonical_map(p):
    for w, c in p.terms.items():
        assert type(w) is tuple, w
        assert isinstance(c, LaurentScalar) and c, (w, c)


@pytest.mark.parametrize("name", ["hq", "dga"])
def test_every_result_stores_a_canonical_map(name):
    pres = get_presentation(name)
    letters = pres.generator_ids()
    q, i = LaurentScalar.q_power(1), LaurentScalar.i_unit()
    scalars = [0, 1, -2, Fraction(1, 3), q, -i, q + i, LaurentScalar.zero()]
    rng = random.Random(20017)

    def random_poly():
        terms = {}
        for _ in range(rng.randint(0, 4)):
            word = [rng.choice(letters) for _ in range(rng.randint(0, 2))]
            terms[tuple(word)] = rng.choice(scalars)
        return NCPoly(terms, pres.name)

    for _ in range(60):
        a, b, c = random_poly(), random_poly(), rng.choice(scalars)
        for result in (a + b, a - b, a - a, -a, a * b, a * c, c * a, a * 0,
                       pres.normal_form(a * b), pres.normal_form(a - a)):
            assert_canonical_map(result)


def test_normal_form_reorders_the_commuting_pair(hq):
    p = NCPoly.word(("a2", "a3"))
    assert hq.normal_form(p) == NCPoly.word(("a3", "a2"))


def test_normal_form_is_idempotent_on_a_dense_example(hq):
    p = NCPoly.word(("a0", "a1", "a2")) - NCPoly.word(("a1", "a0", "a2"))
    nf = hq.normal_form(p)
    assert hq.normal_form(nf) == nf
    assert hq.is_normal(nf)
    assert not hq.is_normal(p)


def test_nc_equal_sees_through_rewriting(hq):
    lhs = NCPoly.word(("a2", "a3", "a2"))
    rhs = NCPoly.word(("a3", "a2", "a2"))
    assert hq.nc_equal(lhs, rhs)
    assert not hq.nc_equal(lhs, rhs + 1)


def test_unknown_letters_are_rejected(hq):
    with pytest.raises(UnknownGeneratorError):
        hq.normal_form(NCPoly.letter("zz"))
    with pytest.raises(UnknownGeneratorError):
        hq.rank("zz")


def test_word_sort_key_orders_by_length_then_rank(hq):
    words = [("a0",), ("a3", "a2"), ("a3",), ("a2", "a0")]
    ordered = sorted(words, key=hq.word_sort_key)
    assert ordered == [("a3", "a2"), ("a2", "a0"), ("a3",), ("a0",)]


def test_no_step_limit_argument_or_env(hq, monkeypatch):
    deep = NCPoly.word(("a0", "a1", "a2", "a3"))
    with pytest.raises(TypeError):
        hq.normal_form(deep, step_limit=2)
    monkeypatch.setenv("QCALC_STEP_LIMIT", "2")
    assert hq.normal_form(deep) == build_hq().normal_form(deep)


def test_a_rewriting_cycle_is_raised_cold_and_warm_and_never_cached():
    # every 2-letter word terminates, but a*b*a -> 2*a*a*a -> 2*a*b*a
    obj = {"name": "aba", "generators": [{"id": "a", "grade": 0, "rank": 0},
                                         {"id": "b", "grade": 0, "rank": 1}],
           "rules": [{"lhs": ["a", "a"], "rhs": [{"word": ["a", "b"], "coeff": "1"}]},
                     {"lhs": ["b", "a"], "rhs": [{"word": ["a", "a"], "coeff": "2"}]}]}
    pres = Presentation.from_obj(obj)
    for _ in range(2):
        with pytest.raises(RewritingCycleError, match="rewriting cycle in 'aba'"):
            pres.normal_form(NCPoly.word(("a", "b", "a")))
        assert pres.normal_form(NCPoly.word(("b", "a"))) == NCPoly.word(("a", "b"), 2)
    assert pres._nf_cache == {("b", "a"): {("a", "b"): LaurentScalar.coerce(2)}}


def test_trace_collects_rules_used(hq):
    used = set()
    hq.normal_form(NCPoly.word(("a0", "a1")), trace=used)
    assert used == {("a0", "a1")}
    used.clear()
    hq.normal_form(NCPoly.word(("a3", "a2")), trace=used)
    assert used == set()


def test_confluence_is_clean_then_breaks_under_mutation(hq):
    assert hq.check_local_confluence() == []
    obj = hq.to_obj()
    # rescale the commuting-pair rule; no generator rescaling absorbs a 2
    for rule in obj["rules"]:
        if rule["lhs"] == ["a2", "a3"]:
            rule["rhs"][0]["coeff"] = "(2)"
    mutated = Presentation.from_obj(obj)
    failures = mutated.check_local_confluence()
    assert failures
    triple, residual = failures[0]
    assert triple == ("a0", "a1", "a2")
    assert residual


def test_serialization_round_trip(hq):
    text = hq.dump_json()
    back = Presentation.load_json(text)
    assert back.name == hq.name
    assert back.rules == hq.rules
    assert back.dump_json() == text
    obj = json.loads(text)
    assert set(obj) >= {"name", "generators", "rules"}


def test_from_obj_validates_rules(hq):
    obj = hq.to_obj()
    obj["rules"].append(
        {"lhs": ["a0", "zz"], "rhs": [{"word": ["a0"], "coeff": "(1)"}]})
    with pytest.raises(PresentationError, match="unknown generator"):
        Presentation.from_obj(obj)


def test_grade_and_degree_bookkeeping():
    dga = get_presentation("dga")
    assert dga.grade("a0") == 0
    assert dga.grade("da2") == 1
    assert dga.word_grade(("da1", "a0", "da3")) == 2
    p = NCPoly.word(("da1", "a0"), universe=dga.name)
    assert dga.grade_of(p) == 1
    assert dga.grade_of(p + NCPoly.letter("a2", dga.name)) == "mixed"
    assert dga.grade_of(NCPoly.zero(dga.name)) == 0


def test_degree_homogeneity_flag():
    for name in ("hq", "classical-hq", "cartan_maurer", "classical-cartan_maurer"):
        assert get_presentation(name).is_degree_homogeneous(), name
    # the unit sector rewrites two-letter words to single letters
    assert not get_presentation("units").is_degree_homogeneous()


def test_render_matches_frozen_normal_form(hq):
    nf = hq.normal_form(NCPoly.word(("a0", "a1")))
    assert render_poly(nf, hq) == (
        "-(1/2)*i*q*a3^2 + (1/2)*i*q^-1*a3^2 "
        "- (1/2)*i*q*a2^2 + (1/2)*i*q^-1*a2^2 + a1*a0"
    )
    assert render_poly(nf, hq, unicode_mode=True) == (
        "-(1/2)*i*q*a3² + (1/2)*i*q⁻¹*a3² "
        "- (1/2)*i*q*a2² + (1/2)*i*q⁻¹*a2² + a1*a0"
    )
