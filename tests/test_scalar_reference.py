"""Differential test of LaurentScalar against a plain Fraction model.

The reference stores Q(i)[q, q^-1] the obvious way, {exponent: (re, im)}
with Fraction parts, so it shares no code with the integer-numerator,
common-denominator layout of LaurentScalar.
"""

import random
import sys
from fractions import Fraction
from math import gcd

import pytest

from qcalc import (GaussRational, LaurentScalar, NCPoly, get_presentation, parse_scalar,
                   specialize)
from qcalc.scalar import add_scaled, add_term, render_signed_sum, settle

ZERO = Fraction(0)

# -- reference model ---------------------------------------------------


def ref_clean(a):
    return {n: c for n, c in a.items() if c != (ZERO, ZERO)}


def ref_add(a, b):
    out = dict(a)
    for n, (re, im) in b.items():
        r0, i0 = out.get(n, (ZERO, ZERO))
        out[n] = (r0 + re, i0 + im)
    return ref_clean(out)


def ref_neg(a):
    return {n: (-re, -im) for n, (re, im) in a.items()}


def ref_conj(a):
    return {n: (re, -im) for n, (re, im) in a.items()}


def ref_mul(a, b):
    out = {}
    for n, (ar, ai) in a.items():
        for m, (br, bi) in b.items():
            r0, i0 = out.get(n + m, (ZERO, ZERO))
            out[n + m] = (r0 + ar * br - ai * bi, i0 + ar * bi + ai * br)
    return ref_clean(out)


def ref_eval(a, q0):
    return (sum((re * q0 ** n for n, (re, _) in a.items()), ZERO),
            sum((im * q0 ** n for n, (_, im) in a.items()), ZERO))


def ref_inverse_constant(x, y):
    """1/(x + y*i) as a reference constant."""
    n = x * x + y * y
    return {0: (x / n, -y / n)}


def ref_render(terms, superscripts=False):
    """Text of a sum of (word text, reference value) pairs, written out
    term by term from the Fraction parts."""
    out = []
    for text, a in terms:
        for n in sorted(a, reverse=True):
            re, im = a[n]
            neg = re < 0 or (re == 0 and im < 0)
            if neg:
                re, im = -re, -im
            if im == 0:
                coef = "" if text and re == 1 else f"({re})"
            elif re == 0:
                coef = "i" if text and im == 1 else f"({im})*i"
            else:
                coef = f"({re} {'+' if im > 0 else '-'} {abs(im)}*i)"
            if n in (0, 1):
                qs = "q" * n
            elif superscripts:
                qs = "q" + "".join("⁻⁰¹²³⁴⁵⁶⁷⁸⁹"["-0123456789".index(ch)]
                                   for ch in str(n))
            else:
                qs = f"q^{n}"
            body = "*".join(p for p in (coef, qs, text) if p)
            if out:
                out.append(f" {'-' if neg else '+'} {body}")
            else:
                out.append("-" * neg + body)
    return "".join(out) or "0"


def to_scalar(a):
    return LaurentScalar({n: GaussRational(re, im) for n, (re, im) in a.items()})


def as_ref(x):
    return {n: (g.re, g.im) for n, g in x.items()}


# -- random inputs -----------------------------------------------------

DENOMINATORS = (1, 2, 3, 4, 6, 9)


def random_part(rng):
    return Fraction(rng.randint(-4, 4), rng.choice(DENOMINATORS))


def random_ref(rng):
    return ref_clean({rng.randint(-3, 3): (random_part(rng), random_part(rng))
                      for _ in range(rng.randint(0, 3))})


def pairs(count=500, seed=20011):
    rng = random.Random(seed)
    return [(random_ref(rng), random_ref(rng)) for _ in range(count)]


def random_monomial(rng):
    """A one-term operand, as (reference, operand): r*q^n, i*r*q^n, an int
    or a Fraction, with r nonzero."""
    n = rng.randint(-3, 3)
    r = random_part(rng) or Fraction(1, rng.choice(DENOMINATORS))
    kind = rng.choice(("real", "imaginary", "int", "fraction"))
    if kind == "real":
        ref = {n: (r, ZERO)}
    elif kind == "imaginary":
        ref = {n: (ZERO, r)}
    elif kind == "int":
        value = rng.choice((-3, -2, -1, 1, 2, 5))
        return {0: (Fraction(value), ZERO)}, value
    else:
        return {0: (r, ZERO)}, r
    return ref, to_scalar(ref)


def monomial_pairs(count=600, seed=20013):
    """Pairs (ref_a, a, ref_b, b), about half with a one-term a; b is a
    LaurentScalar, so a*b and b*a put the one-term operand on each side."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        if rng.random() < 0.5:
            ra, a = random_monomial(rng)
        else:
            ra = random_ref(rng)
            a = to_scalar(ra)
        rb = random_ref(rng)
        out.append((ra, a, rb, to_scalar(rb)))
    return out


SHAPES = ("real", "imaginary", "one", "minus_one", "i", "monomial", "mixed")


def random_shaped(rng, shape):
    """A random reference value of the given shape: purely real, purely
    imaginary, exactly 1, -1, i, c*q^n with c real or imaginary, or a sum
    with both parts."""
    if shape == "one":
        return {0: (Fraction(1), ZERO)}
    if shape == "minus_one":
        return {0: (Fraction(-1), ZERO)}
    if shape == "i":
        return {0: (ZERO, Fraction(1))}
    if shape == "monomial":
        r = random_part(rng) or Fraction(1, rng.choice(DENOMINATORS))
        part = (r, ZERO) if rng.random() < 0.5 else (ZERO, r)
        return {rng.randint(-3, 3): part}
    if shape == "mixed":
        n = rng.randint(-3, 3)
        out = random_ref(rng)
        out[n] = (random_part(rng) or Fraction(1),
                  random_part(rng) or Fraction(-1, 2))
        return out
    out = {}
    for _ in range(rng.randint(0, 4)):
        r = random_part(rng)
        out[rng.randint(-3, 3)] = (r, ZERO) if shape == "real" else (ZERO, r)
    return ref_clean(out)


def shaped_pairs(count=800, seed=20017):
    """Pairs (shape_a, ref_a, shape_b, ref_b) over every pair of SHAPES."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        sa, sb = rng.choice(SHAPES), rng.choice(SHAPES)
        out.append((sa, random_shaped(rng, sa), sb, random_shaped(rng, sb)))
    return out


def assert_canonical(x):
    numerators = [*x._re.values(), *x._im.values()]
    assert x._den > 0
    assert all(numerators)
    assert gcd(x._den, *numerators) == 1
    if not x:
        assert x._den == 1 and not x._re and not x._im


def assert_matches(x, ref):
    assert_canonical(x)
    assert as_ref(x) == ref
    assert [n for n, _ in x.items()] == sorted(ref, reverse=True)
    assert bool(x) == bool(ref)


def assert_sums_match(a, ra, b, rb):
    """a + b, a - b and b - a against the model; returns how many of the
    three cancel exactly to 0."""
    sums = ((a + b, ref_add(ra, rb)), (a - b, ref_add(ra, ref_neg(rb))),
            (b - a, ref_add(rb, ref_neg(ra))))
    for x, want in sums:
        assert_matches(x, want)
    return sum(not want for _, want in sums)


# -- tests -------------------------------------------------------------


def test_ring_operations_match_the_fraction_model():
    for ra, rb in pairs():
        a, b = to_scalar(ra), to_scalar(rb)
        assert_matches(a, ra)
        assert_matches(a + b, ref_add(ra, rb))
        assert_matches(a - b, ref_add(ra, ref_neg(rb)))
        assert_matches(a * b, ref_mul(ra, rb))
        assert_matches(-a, ref_neg(ra))
        assert_matches(a.conj(), ref_conj(ra))
        assert (a == b) == (ra == rb)
        assert a + b - b == a
        assert hash(a + b - b) == hash(a)


def test_products_with_a_one_term_operand_match_the_fraction_model():
    draws = monomial_pairs()
    one_term = sum(1 for ra, _, rb, _ in draws
                   if len(ra) == 1 or len(rb) == 1)
    assert 3 * one_term >= len(draws)
    mixed = 0
    for ra, a, rb, b in draws:
        want = ref_mul(ra, rb)
        assert_matches(a * b, want)
        assert_matches(b * a, want)
        assert_sums_match(a, ra, b, rb)
        # a + (-a) cancels exactly; a - (-a) and -a - a double a, so
        # they cancel too only when a is 0
        assert assert_sums_match(a, ra, -to_scalar(ra), ref_neg(ra)) == (1 if ra else 3)
        mixed += to_scalar(ra)._den != b._den
    assert mixed


def test_products_by_factor_shape_match_the_fraction_model():
    draws = shaped_pairs()
    seen = {(sa, sb) for sa, _, sb, _ in draws}
    assert len(seen) == len(SHAPES) ** 2
    cancelled = mixed = 0
    for _, ra, _, rb in draws:
        a, b = to_scalar(ra), to_scalar(rb)
        want = ref_mul(ra, rb)
        assert_matches(a * b, want)
        assert_matches(b * a, want)
        cancelled += assert_sums_match(a, ra, b, rb)
        mixed += a._den != b._den
        # a - a cancels (twice); a + b - a cancels a's terms only, and
        # what is left must come out canonical
        assert assert_sums_match(a, ra, to_scalar(ra), ra) == (2 if ra else 3)
        assert_matches(a + b - a, rb)
    assert cancelled and mixed


@pytest.mark.parametrize("shape", SHAPES)
def test_multiplying_by_one_gives_the_other_factor(shape):
    rng = random.Random(20023)
    one = LaurentScalar.one()
    for _ in range(50):
        ra = random_shaped(rng, shape)
        x = to_scalar(ra)
        for product in (x * 1, 1 * x, x * one, one * x, x * Fraction(1)):
            assert product == x
            assert_matches(product, ra)


def test_evaluation_matches_the_fraction_model():
    for ra, _ in pairs():
        a = to_scalar(ra)
        for q0 in (2, Fraction(2, 3)):
            g = a.eval_at(q0)
            assert (g.re, g.im) == ref_eval(ra, Fraction(q0))


def test_divide_exact_matches_the_fraction_model():
    q_minus_2 = {1: (Fraction(1), ZERO), 0: (Fraction(-2), ZERO)}
    for ra, rb in pairs():
        a, b = to_scalar(ra), to_scalar(rb)
        if rb:
            quotient = (a * b).divide_exact(b)
            assert_matches(quotient, ra)
            # q - 2 divides (q - 2)*b, which has a root at q = 2 that a lacks.
            divisor = to_scalar(ref_mul(q_minus_2, rb))
            if ref_eval(ra, Fraction(2)) != (ZERO, ZERO):
                assert a.divide_exact(divisor) is None


def shifted(a, k):
    """a*q^k as a reference value."""
    return {n + k: c for n, c in a.items()}


def test_render_matches_the_fraction_model():
    for sa, ra, sb, rb in shaped_pairs(seed=20029):
        assert to_scalar(ra).render() == ref_render([("", ra)])
        # two-digit exponents, positive and negative, with superscripts
        terms = [("", ra), ("a0", shifted(rb, 9)), ("a1*a2", shifted(ra, -12))]
        for sup in (False, True):
            got = render_signed_sum([(t, to_scalar(c)) for t, c in terms],
                                    superscripts=sup)
            assert got == ref_render(terms, superscripts=sup), (sa, sb, sup)


@pytest.mark.parametrize("q0", [-3, Fraction(-1, 2), Fraction(2, 3), 5],
                         ids=["-3", "-1/2", "2/3", "5"])
def test_polynomial_evaluation_matches_the_fraction_model(q0):
    draws = shaped_pairs(count=300, seed=20031)
    for _, ra, _, rb in draws:
        # shifted by q^4 every exponent is positive, by q^-4 negative
        coeffs = {("a0",): ra, ("a1",): rb, ("a0", "a1"): shifted(ra, 4),
                  (): shifted(rb, -4)}
        p = NCPoly({w: to_scalar(c) for w, c in coeffs.items()}, "u")
        got = p.eval_at(q0)
        assert got.universe == "u"
        for w, c in coeffs.items():
            re, im = ref_eval(c, Fraction(q0))
            want = ref_clean({0: (re, im)})
            if want:
                assert_matches(got.terms[w], want)
            else:
                assert w not in got.terms
            g = to_scalar(c).eval_at(q0)
            assert (g.re, g.im) == (re, im)
    with pytest.raises(ValueError):
        NCPoly.word(("a0",)).eval_at(0)


def test_division_by_a_constant_matches_the_fraction_model():
    rng = random.Random(20033)
    for shape in SHAPES * 60:
        ra = random_shaped(rng, shape)
        x = random_part(rng) or Fraction(-5, 3)
        y = random_part(rng) or Fraction(1, 4)
        for divisor in ((x, y), (x, ZERO), (ZERO, y)):
            want = ref_mul(ra, ref_inverse_constant(*divisor))
            c = to_scalar({0: divisor})
            assert_matches(to_scalar(ra).divide_exact(c), want)
            if not divisor[1]:
                assert_matches(to_scalar(ra).divide_exact(divisor[0]), want)


def test_render_round_trips_through_the_parser():
    for ra, rb in pairs():
        for x in (to_scalar(ra), to_scalar(ref_mul(ra, rb))):
            assert parse_scalar(x.render()) == x


def test_one_third_times_three_is_one_over_one():
    s = 3 * LaurentScalar.from_rational(Fraction(1, 3))
    assert s == 1
    assert s._den == 1
    assert_canonical(s)


def test_equal_values_hash_equal():
    sixth = LaurentScalar.from_rational(Fraction(1, 6))
    third = LaurentScalar.from_rational(Fraction(1, 3))
    half = LaurentScalar.from_rational(Fraction(1, 2))
    assert sixth + third == half
    assert hash(sixth + third) == hash(half)


def test_gaussian_norm_of_half_plus_half_i():
    z = LaurentScalar({0: GaussRational.of(Fraction(1, 2), Fraction(1, 2))})
    product = z * z.conj()
    assert product == Fraction(1, 2)
    assert_canonical(product)


@pytest.mark.parametrize("value", [0, 5, Fraction(-4, 6), GaussRational.of(0, 0)])
def test_coerced_constants_are_canonical(value):
    assert_canonical(LaurentScalar.coerce(value))


def seeded_fractions(count=36):
    """n/d in twelve strata: numerators of 6 or about 200 digits, either
    sign; denominators of 6 or 200 digits or a multiple of the modulus of
    Python's numeric hash, which makes the hash infinite."""
    rng = random.Random(370)
    modulus = sys.hash_info.modulus
    out = []
    for k in range(count):
        n = rng.randrange(1, 10 ** 200) if k % 2 else rng.randrange(1, 10 ** 6)
        d = (modulus * rng.randrange(1, 10 ** 6), rng.randrange(10 ** 199, 10 ** 200),
             rng.randrange(2, 10 ** 6))[k % 3]
        out.append(Fraction(-n if k % 4 >= 2 else n, d))
    return out


@pytest.mark.parametrize("value", [0, 1, -3, Fraction(1, 2), -1, *seeded_fractions()])
def test_real_constants_hash_like_the_equal_number(value):
    x = LaurentScalar.coerce(value)
    assert x == value
    assert hash(x) == hash(value)
    assert len({x, value}) == 1
    g = GaussRational.of(value)
    assert hash(g) == hash(value)
    assert g == value and value == g
    assert len({g, value, x}) == 1


def test_gaussian_constants_hash_like_the_equal_gauss_rational():
    g = GaussRational.of(Fraction(1, 2), -3)
    x = LaurentScalar({0: g})
    assert x == g and g == x
    assert len({x, g}) == 1


def test_gauss_rational_promotes_numbers_and_defers_to_other_types():
    from qcalc.algebra import NCPoly

    g = GaussRational.of(1, 2)
    rg = {0: (Fraction(1), Fraction(2))}
    x = LaurentScalar({1: GaussRational.of(Fraction(1, 3), -1),
                       -2: GaussRational.of(2)})
    rx = as_ref(x)
    assert_matches(g * x, ref_mul(rg, rx))
    assert_matches(x * g, ref_mul(rg, rx))
    assert_matches(g + x, ref_add(rg, rx))
    assert_matches(x + g, ref_add(rg, rx))
    assert_matches(g - x, ref_add(rg, ref_neg(rx)))
    assert_matches(x - g, ref_add(rx, ref_neg(rg)))
    a0 = NCPoly.word(("a0",))
    assert g * a0 == a0 * g == LaurentScalar({0: g}) * a0
    assert g * 2 == 2 * g == GaussRational.of(2, 4)
    assert g + 1 == 1 + g == GaussRational.of(2, 2)
    assert g - Fraction(1, 2) == GaussRational.of(Fraction(1, 2), 2)
    assert Fraction(1, 2) - g == GaussRational.of(Fraction(-1, 2), -2)
    assert g / 2 == GaussRational.of(Fraction(1, 2), 1)
    with pytest.raises(TypeError):
        g * "a0"
    with pytest.raises(TypeError):
        "a0" + g


def ref_divide(a, b):
    """a/b for a nonzero b, by long division of a and b shifted to
    ordinary polynomials in q; None if the quotient is not exact."""
    if not a:
        return {}
    amin, bmin = min(a), min(b)
    rem = shifted(a, -amin)
    b = shifted(b, -bmin)
    top = max(b)
    quo = {}
    while rem:
        deg = max(rem)
        if deg < top:
            return None
        term = ref_mul({deg - top: rem[deg]}, ref_inverse_constant(*b[top]))
        quo = ref_add(quo, term)
        rem = ref_add(rem, ref_neg(ref_mul(term, b)))
    return shifted(quo, amin - bmin)


def test_long_division_matches_the_fraction_model():
    rng = random.Random(20037)
    exact = inexact = 0
    for _, ra, _, rb in shaped_pairs(count=400, seed=20039):
        if not rb:
            continue
        stray = {rng.randint(-6, 6): (random_part(rng) or Fraction(1), ZERO)}
        product = ref_mul(ra, rb)
        for dividend in (ra, product, ref_add(product, stray)):
            want = ref_divide(dividend, rb)
            got = to_scalar(dividend).divide_exact(to_scalar(rb))
            if want is None:
                assert got is None
                inexact += 1
            else:
                assert_matches(got, want)
                exact += 1
    assert exact >= 300 and inexact >= 100


def test_negative_powers_of_monomials_match_the_fraction_model():
    rng = random.Random(20041)
    for _ in range(100):
        n = rng.randint(-3, 3)
        c = (random_part(rng), random_part(rng) or Fraction(1, 2))
        inverse = shifted(ref_inverse_constant(*c), -n)
        want = {0: (Fraction(1), ZERO)}
        for k in (1, 2, 3):
            want = ref_mul(want, inverse)
            assert_matches(to_scalar({n: c}) ** -k, want)


def test_true_division_is_exact_or_raises():
    q = LaurentScalar.q_power(1)
    assert (q ** 2 - 1) / (q + 1) == q - 1
    assert_matches(GaussRational(1, 2) / 2, {0: (Fraction(1, 2), Fraction(1))})
    for zero in (0, Fraction(0), LaurentScalar.zero()):
        with pytest.raises(ZeroDivisionError):
            q / zero
    with pytest.raises(ValueError):
        (q ** 2 + 1) / (q + 1)


def test_parts_of_a_non_constant_raise():
    q = LaurentScalar.q_power(1)
    for x in (q, q ** -2 + 1, LaurentScalar.i_unit() * q):
        with pytest.raises(ValueError):
            x.re
        with pytest.raises(ValueError):
            x.im


@pytest.mark.parametrize("value", [LaurentScalar.q_power(1), 0.5, "1", None])
def test_a_coefficient_that_is_not_a_constant_is_a_type_error(value):
    with pytest.raises(TypeError):
        LaurentScalar({0: value})


def test_gauss_rational_builds_a_canonical_constant():
    g = GaussRational(1, 2)
    assert type(g) is LaurentScalar and not isinstance(g, GaussRational)
    assert_matches(g, {0: (Fraction(1), Fraction(2))})
    h = GaussRational.of(Fraction(1, 6), Fraction(-3, 4))
    assert_matches(h, {0: (Fraction(1, 6), Fraction(-3, 4))})
    assert (h.re, h.im) == (Fraction(1, 6), Fraction(-3, 4))


# -- the fused scale-and-accumulate kernel -------------------------------

KEYS = ("w", "x", "y", "z")


def random_nonzero(rng):
    """A nonzero reference value of a random shape, constants included."""
    shape = rng.choice(SHAPES + ("constant",))
    if shape == "constant":
        out = {0: (random_part(rng), random_part(rng))}
        return out if out[0] != (ZERO, ZERO) else {0: (Fraction(1, 6), ZERO)}
    return random_shaped(rng, shape) or {0: (Fraction(-2, 3), ZERO)}


def kernel_sums(count=400, seed=20023):
    """Seeded sums of maps times coefficients, as lists of (terms, c)
    reference pairs over a few keys, so that keys repeat.  About a third
    add some round again negated, so that those keys cancel exactly."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        rounds = []
        for _ in range(rng.randint(1, 6)):
            keys = rng.sample(KEYS, rng.randint(1, len(KEYS)))
            rounds.append(({k: random_nonzero(rng) for k in keys}, random_nonzero(rng)))
        if rng.random() < 0.35:
            terms, c = rng.choice(rounds)
            rounds.append((terms, ref_neg(c)))
        out.append(rounds)
    return out


def ref_sum(rounds):
    acc = {}
    for terms, c in rounds:
        for k, v in terms.items():
            acc[k] = ref_add(acc.get(k, {}), ref_mul(v, c))
    return {k: v for k, v in acc.items() if v}


def test_add_scaled_sums_match_the_fraction_model_and_add_term():
    cancelled = 0
    for rounds in kernel_sums():
        fused, reference = {}, {}
        for terms, c in rounds:
            terms, c = {k: to_scalar(v) for k, v in terms.items()}, to_scalar(c)
            add_scaled(fused, terms, c)
            for k, v in terms.items():
                add_term(reference, k, v * c)
        assert settle(fused) is fused
        assert fused == reference
        expected = ref_sum(rounds)
        assert fused.keys() == expected.keys()
        cancelled += len(KEYS) - len(expected)
        for k, x in fused.items():
            assert x  # a key whose sum cancels is dropped
            assert_matches(x, expected[k])
    assert cancelled > 100


def test_add_scaled_applies_join_to_every_key():
    rng = random.Random(20027)
    for rounds in kernel_sums(count=60, seed=20029):
        fused, reference = {}, {}
        for terms, c in rounds:
            tag = rng.choice("ab")
            terms, c = {k: to_scalar(v) for k, v in terms.items()}, to_scalar(c)
            add_scaled(fused, terms, c, lambda k: tag + k)
            for k, v in terms.items():
                add_term(reference, tag + k, v * c)
        assert settle(fused) == reference


def test_settle_keeps_canonical_values_as_they_are():
    x, y = to_scalar({1: (Fraction(1, 2), ZERO)}), to_scalar({0: (ZERO, Fraction(3))})
    acc = add_scaled({}, {"a": x, "b": y}, LaurentScalar.one())
    assert acc["a"] is x and acc["b"] is y  # first contributions: x*1 is x
    assert settle(acc) == {"a": x, "b": y}


def random_poly(rng, pres):
    gens = pres.generator_ids()
    terms = {}
    for _ in range(rng.randint(2, 5)):
        w = tuple(rng.choice(gens) for _ in range(rng.randint(1, 4)))
        terms[w] = to_scalar(random_nonzero(rng))
    if rng.random() < 0.4:
        # a rule times a coefficient, which reduces to zero on its own
        lhs = rng.choice(sorted(pres.rules))
        c = to_scalar(random_nonzero(rng))
        for w, v in (NCPoly.word(lhs) - pres.rules[lhs]).terms.items():
            add_term(terms, w, v * c)
    return NCPoly(terms)


@pytest.mark.parametrize("name", ["dga", "dga_literal", "dga@2/3"])
def test_normal_form_is_the_sum_of_scaled_word_normal_forms(name):
    base, _, q0 = name.partition("@")
    pres = get_presentation(base)
    if q0:
        pres = specialize(pres, q0)
    rng = random.Random(20031)
    for _ in range(30):
        p = random_poly(rng, pres)
        expected = {}
        for w, c in p.terms.items():
            if pres.q is not None:
                c = c.eval_at(pres.q)
            for nw, nc in pres.normal_form(NCPoly.word(w)).terms.items():
                add_term(expected, nw, nc * c)
        assert pres.normal_form(p).terms == expected
