import random
from fractions import Fraction

import pytest

from qcalc import (
    LaurentScalar,
    NCPoly,
    get_presentation,
    parse,
    render_poly,
)
from qcalc import parser
from qcalc.parser import ParseError, UnknownSymbolError
from qcalc.presentations import _CATALOG_BUILDERS, norm_poly


@pytest.fixture
def hq():
    return get_presentation("hq")


def test_sum_and_product_precedence(hq):
    p = parse("a0 + a1*a2", hq)
    assert p == NCPoly.letter("a0") + NCPoly.word(("a1", "a2"))
    assert parse("(a0 + a1)*a2", hq) == \
        NCPoly.word(("a0", "a2")) + NCPoly.word(("a1", "a2"))


def test_signs_collapse(hq):
    assert parse("--a0", hq) == NCPoly.letter("a0")
    assert parse("-+-+a0", hq) == NCPoly.letter("a0")
    assert parse("a0 - -a1", hq) == NCPoly.letter("a0") + NCPoly.letter("a1")


def test_scalar_atoms(hq):
    assert parse("i*i", hq) == -NCPoly.unit()
    assert parse("q*q^-1", hq) == NCPoly.unit()
    assert parse("3*a0", hq) == 3 * NCPoly.letter("a0")
    assert parse("(1/2)*a0", hq) == NCPoly.word(("a0",), Fraction(1, 2))


def test_powers(hq):
    assert parse("a2^3", hq) == NCPoly.word(("a2",) * 3)
    assert parse("q^-2", hq) == NCPoly.scalar(LaurentScalar.q_power(-2))
    assert parse("(q^-1)^2", hq) == NCPoly.scalar(LaurentScalar.q_power(-2))
    assert parse("(q^2)^-3", hq) == NCPoly.scalar(LaurentScalar.q_power(-6))


def test_negative_powers_restricted_to_q(hq):
    with pytest.raises(ParseError, match="negative exponents"):
        parse("a2^-1", hq)
    with pytest.raises(ParseError, match="negative exponents"):
        parse("(a0 + a1)^-2", hq)


def test_differential_sugar():
    dga = get_presentation("dga")
    assert parse("d(a2)", dga) == NCPoly.letter("da2", dga.name)
    assert parse("d(a2)^2", dga) == NCPoly.word(("da2", "da2"), universe=dga.name)
    hq = get_presentation("hq")
    with pytest.raises(UnknownSymbolError):
        parse("d(a2)", hq)


def test_norm_shorthand(hq):
    assert parse("N", hq) == NCPoly(dict(norm_poly().terms), hq.name)
    # the odd universe carries no coordinate generators
    with pytest.raises(UnknownSymbolError, match="N needs the coordinate"):
        parse("N", get_presentation("grassmann"))
    loc = get_presentation("hq_localized")
    assert parse("Ninv", loc) == NCPoly.letter("n_inv", loc.name)
    with pytest.raises(UnknownSymbolError):
        parse("Ninv", hq)


def test_unknown_symbols_name_the_universe():
    cm = get_presentation("cm")
    with pytest.raises(UnknownSymbolError) as err:
        parse("w4", cm)
    assert str(err.value) == (
        "unknown symbol at position 0: "
        "'w4' is not a generator of universe 'cartan_maurer'")
    assert err.value.pos == 0


def test_error_positions_point_into_the_source(hq):
    with pytest.raises(ParseError) as err:
        parse("a0*(a1", hq)
    assert err.value.pos == 6
    with pytest.raises(ParseError) as err:
        parse("a0*w4", hq)
    assert err.value.pos == 3


def test_scalar_division(hq):
    assert parse("(a0 + a1)/2", hq) == \
        NCPoly.word(("a0",), Fraction(1, 2)) + NCPoly.word(("a1",), Fraction(1, 2))
    assert parse("a0/q", hq) == NCPoly.word(("a0",), LaurentScalar.q_power(-1))
    assert parse("i*(q - q^-1)/2 * a2", hq) == parse("(1/2)*i*q*a2 - (1/2)*i*q^-1*a2", hq)


def test_division_by_nonscalars_is_rejected(hq):
    with pytest.raises(ParseError, match="division is only defined by scalars"):
        parse("a0/a1", hq)
    for text in ("a0/(q - q)", "a0/0", "a0/(a1 - a1)"):
        with pytest.raises(ParseError, match="division by zero"):
            parse(text, hq)


def test_division_must_be_exact(hq):
    with pytest.raises(ParseError, match="not exact"):
        parse("a0/(q + 1)", hq)


def test_render_parse_round_trip(hq):
    samples = [
        hq.normal_form(NCPoly.word(("a0", "a1"))),
        hq.normal_form(NCPoly.word(("a0", "a2", "a1"))),
        NCPoly.word(("a3",), LaurentScalar.i_unit() * Fraction(-3, 7)),
        NCPoly.unit(),
    ]
    for p in samples:
        tagged = NCPoly(dict(p.terms), hq.name)
        assert parse(render_poly(tagged, hq), hq) == tagged
    cm = get_presentation("cm")
    for name in ("w0", "w1"):
        from qcalc.calculus import cartan_maurer_d
        p = cartan_maurer_d(int(name[1]))
        assert parse(render_poly(p, cm), cm) == p


def test_empty_and_trailing_input(hq):
    with pytest.raises(ParseError):
        parse("", hq)
    with pytest.raises(ParseError):
        parse("a0 a1", hq)
    with pytest.raises(ParseError):
        parse("a0 +", hq)


def test_powers_square_and_multiply(hq, monkeypatch):
    products, poly_products = [], []
    convolve = parser.convolve
    mul = NCPoly.__mul__

    def counting(left, right, join):
        products.append(right)
        return convolve(left, right, join)

    def poly_counting(self, other):
        poly_products.append(other)
        return mul(self, other)

    monkeypatch.setattr(parser, "convolve", counting)
    monkeypatch.setattr(NCPoly, "__mul__", poly_counting)
    assert parse("2^1024", hq) == NCPoly.scalar(2 ** 1024, hq.name)
    assert 0 < len(products) <= 21
    assert poly_products == []  # the parser multiplies term maps
    x = NCPoly.letter("a0") + NCPoly.word(("a2", "a1"))
    assert parse("(a0 + a2*a1)^5", hq) == x * x * x * x * x


# The coefficient pool of the property tests and of the nf-mix benchmark,
# as (text, value) pairs: 1, -1, 1/2, i, -i*q, q, q^-1, i*q^2 + 1.
_I, _Q, _ONE = LaurentScalar.i_unit(), LaurentScalar.q_power(1), LaurentScalar.one()
COEFFS = (("1", _ONE), ("-1", -_ONE), ("(1/2)", _ONE / 2), ("i", _I),
          ("-i*q", -_I * _Q), ("q", _Q), ("q^-1", LaurentScalar.q_power(-1)),
          ("(i*q^2+1)", _I * _Q * _Q + 1))


def random_expression(rng, pres, depth):
    """(text, NCPoly) built side by side: terms, sums, differences,
    products and small powers, the polynomial by NCPoly arithmetic."""
    kind = rng.randrange(5) if depth else 0
    if kind == 0:
        text, c = rng.choice(COEFFS)
        poly = NCPoly.scalar(c, pres.name)
        word = [rng.choice(pres.generator_ids()) for _ in range(rng.randint(0, 3))]
        for gid in word:
            poly = poly * NCPoly.letter(gid, pres.name)
        return "*".join([text, *word]), poly
    lt, lp = random_expression(rng, pres, depth - 1)
    if kind == 4:
        k = rng.randint(0, 3)
        power = NCPoly.unit(pres.name)
        for _ in range(k):
            power = power * lp
        return f"({lt})^{k}", power
    rt, rp = random_expression(rng, pres, depth - 1)
    if kind == 1:
        return f"{lt} + {rt}", lp + rp
    if kind == 2:
        return f"({lt}) - ({rt})", lp - rp
    return f"({lt})*({rt})", lp * rp


@pytest.mark.parametrize("name", sorted(_CATALOG_BUILDERS))
def test_parse_agrees_with_polynomial_arithmetic(name):
    pres = get_presentation(name)
    rng = random.Random(f"parse:{name}")
    for _ in range(40):
        text, want = random_expression(rng, pres, 3)
        got = parse(text, pres)
        assert got.terms == want.terms, text
        assert got.universe == want.universe == pres.name
