"""Randomized invariants at reduced trial counts.

The acceptance suite reruns the core three at full volume; these runs
keep the remaining structural properties under regression.
"""

import random
from fractions import Fraction

from qcalc import (
    LaurentScalar,
    NCPoly,
    Presentation,
    get_presentation,
    shipped_names,
)
from qcalc.calculus import star, star_table
from qcalc.hopf import coproduct, counit
from qcalc.presentations import specialize

UNIVERSES = ("hq", "units", "dga", "cartan_maurer", "grassmann")
Q_POINTS = (1, 2, Fraction(1, 2), -1, Fraction(3, 2))

_special = {}


def specialized(name, q0):
    key = (name, q0)
    if key not in _special:
        _special[key] = specialize(get_presentation(name), q0)
    return _special[key]


def coeff_pool():
    i = LaurentScalar.i_unit()
    q = LaurentScalar.q_power(1)
    return (LaurentScalar.one(), -LaurentScalar.one(),
            LaurentScalar.from_rational(Fraction(1, 2)), i, -i * q,
            q, LaurentScalar.q_power(-1), i * q ** 2 + 1)


POOL = coeff_pool()


def random_word(rng, pres, max_len=3):
    gens = list(pres.generator_ids())
    return tuple(rng.choice(gens) for _ in range(rng.randint(1, max_len)))


def random_poly(rng, pres, max_len=3, terms=3):
    p = NCPoly.zero(pres.name)
    for _ in range(rng.randint(1, terms)):
        p = p + NCPoly.word(random_word(rng, pres, max_len), rng.choice(POOL),
                            pres.name)
    return p


def test_normal_form_idempotence_sampled():
    rng = random.Random(11)
    for _ in range(150):
        pres = get_presentation(rng.choice(UNIVERSES))
        nf = pres.normal_form(random_poly(rng, pres))
        assert pres.normal_form(nf) == nf


def test_grade_and_degree_preservation_sampled():
    rng = random.Random(12)
    for _ in range(150):
        pres = get_presentation(rng.choice(UNIVERSES))
        w = random_word(rng, pres)
        nf = pres.normal_form(NCPoly.word(w, universe=pres.name))
        if nf:
            assert pres.grade_of(nf) == pres.word_grade(w)
        if pres.is_degree_homogeneous():
            assert all(len(u) == len(w) for u in nf.terms)


def test_specialization_commutes_with_normal_form_sampled():
    rng = random.Random(13)
    for _ in range(100):
        name = rng.choice(UNIVERSES)
        pres = get_presentation(name)
        p = random_poly(rng, pres, max_len=4)
        q0 = rng.choice(Q_POINTS)
        left = specialized(name, q0).normal_form(pres.normal_form(p).eval_at(q0))
        right = specialized(name, q0).normal_form(p.eval_at(q0))
        assert left == right
        assert specialized(name, q0).normal_form(p) == right


def test_evaluation_is_a_ring_homomorphism_sampled():
    rng = random.Random(14)
    for _ in range(100):
        pres = get_presentation(rng.choice(UNIVERSES))
        p = random_poly(rng, pres)
        r = random_poly(rng, pres)
        q0 = rng.choice(Q_POINTS)
        assert (p + r).eval_at(q0) == p.eval_at(q0) + r.eval_at(q0)
        assert (p * r).eval_at(q0) == p.eval_at(q0) * r.eval_at(q0)


def test_star_reverses_random_products():
    rng = random.Random(15)
    hq = get_presentation("hq")
    table = star_table("hq")
    for _ in range(50):
        p = random_poly(rng, hq, max_len=2, terms=2)
        r = random_poly(rng, hq, max_len=2, terms=2)
        lhs = star(hq.normal_form(p * r), table, hq)
        rhs = hq.normal_form(star(r, table, hq) * star(p, table, hq))
        assert hq.normal_form(lhs - rhs) == 0


def test_counit_is_multiplicative_on_random_elements():
    rng = random.Random(16)
    hq = get_presentation("hq")
    for _ in range(50):
        p = random_poly(rng, hq, max_len=2, terms=2)
        r = random_poly(rng, hq, max_len=2, terms=2)
        assert counit(hq.normal_form(p * r)) == counit(p) * counit(r)


def test_coproduct_is_multiplicative_on_random_words():
    # single words with unit-like coefficients; exact coefficients fatten
    # quickly under the tensor expansion, so volume lives elsewhere
    rng = random.Random(17)
    hq = get_presentation("hq")
    simple = POOL[:4]
    for _ in range(8):
        p = NCPoly.word(random_word(rng, hq, 2), rng.choice(simple), hq.name)
        r = NCPoly.word(random_word(rng, hq, 2), rng.choice(simple), hq.name)
        lhs = coproduct(hq.normal_form(p * r), hq)
        rhs = (coproduct(p, hq) * coproduct(r, hq)).normal_form(hq)
        assert lhs - rhs == 0 * lhs


def test_serialization_is_stable_for_every_shipped_presentation():
    for name in shipped_names():
        pres = get_presentation(name)
        text = pres.dump_json()
        assert Presentation.load_json(text).dump_json() == text
