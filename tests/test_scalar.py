from fractions import Fraction

import pytest

from qcalc import GaussRational, LaurentScalar, parse_scalar
from qcalc.hopf import TensorPoly, _join_legs
from qcalc.scalar import ScalarParseError, add_term, convolve


def test_gauss_rational_arithmetic():
    a = GaussRational.of(1, 2)
    b = GaussRational.of(Fraction(1, 3), -1)
    assert a + b == GaussRational.of(Fraction(4, 3), 1)
    assert a - b == GaussRational.of(Fraction(2, 3), 3)
    assert a * b == GaussRational.of(Fraction(7, 3), Fraction(-1, 3))
    assert -a == GaussRational.of(-1, -2)


def test_gauss_rational_division_inverts_multiplication():
    a = GaussRational.of(3, -5)
    b = GaussRational.of(Fraction(2, 7), 1)
    assert (a * b) / b == a
    with pytest.raises(ZeroDivisionError):
        a / GaussRational.of(0, 0)


def test_gauss_rational_conjugation_and_truth():
    a = GaussRational.of(1, 2)
    assert a.conj() == GaussRational.of(1, -2)
    assert (a * a.conj()).im == 0
    assert not GaussRational.of(0, 0)
    assert GaussRational.of(0, 1)


def test_laurent_constructors():
    assert LaurentScalar.zero() == 0
    assert LaurentScalar.one() == 1
    assert LaurentScalar.from_rational(Fraction(3, 4)) == Fraction(3, 4)
    i = LaurentScalar.i_unit()
    assert i * i == -LaurentScalar.one()


def test_laurent_coerce_accepts_common_inputs():
    assert LaurentScalar.coerce(2) == LaurentScalar.from_rational(2)
    assert LaurentScalar.coerce(Fraction(1, 2)) * 2 == LaurentScalar.one()
    g = GaussRational.of(0, 1)
    assert LaurentScalar.coerce(g) == LaurentScalar.i_unit()
    s = LaurentScalar.q_power(3)
    assert LaurentScalar.coerce(s) == s


def test_laurent_power_arithmetic():
    q = LaurentScalar.q_power(1)
    assert q ** 3 == LaurentScalar.q_power(3)
    assert q * LaurentScalar.q_power(-1) == LaurentScalar.one()
    s = (q + 1) ** 2
    assert s == LaurentScalar.q_power(2) + 2 * q + 1


def test_negative_powers_of_monomials():
    q = LaurentScalar.q_power(1)
    assert q ** -2 == LaurentScalar.q_power(-2)
    assert (2 * q) ** -1 == Fraction(1, 2) * LaurentScalar.q_power(-1)
    assert (LaurentScalar.i_unit() * q) ** -1 == -LaurentScalar.i_unit() * q ** -1


def test_negative_powers_of_sums_raise():
    q = LaurentScalar.q_power(1)
    with pytest.raises(ValueError):
        (1 + q) ** -1
    with pytest.raises(ValueError):
        LaurentScalar.zero() ** -1


def test_items_are_sorted_by_descending_exponent():
    s = LaurentScalar.q_power(-2) + LaurentScalar.q_power(3) + LaurentScalar.one()
    assert [n for n, _ in s.items()] == [3, 0, -2]


def test_conj_fixes_q_and_conjugates_i():
    i = LaurentScalar.i_unit()
    q = LaurentScalar.q_power(1)
    s = i * q + LaurentScalar.q_power(-2)
    assert s.conj() == -i * q + LaurentScalar.q_power(-2)
    assert s.conj().conj() == s


def test_eval_at_is_a_ring_homomorphism():
    a = LaurentScalar.q_power(2) + LaurentScalar.i_unit()
    b = LaurentScalar.q_power(-1) * 3 - LaurentScalar.one()
    for q0 in (1, 2, Fraction(1, 2), -1):
        assert (a * b).eval_at(q0) == a.eval_at(q0) * b.eval_at(q0)
        assert (a + b).eval_at(q0) == a.eval_at(q0) + b.eval_at(q0)
    assert LaurentScalar.q_power(-3).eval_at(2) == GaussRational.of(Fraction(1, 8))


def test_divide_exact_returns_quotient_or_none():
    q = LaurentScalar.q_power(1)
    s = (q + 1) * (q - 1)
    assert s.divide_exact(q + 1) == q - 1
    assert s.divide_exact(q - 1) == q + 1
    # q + 1 does not divide q^2 + 1 in the Laurent ring over Q(i)
    assert (q ** 2 + 1).divide_exact(q + 1) is None
    with pytest.raises(ZeroDivisionError):
        s.divide_exact(LaurentScalar.zero())


def test_divide_exact_handles_monomials():
    s = LaurentScalar.q_power(2) * Fraction(1, 2)
    assert s.divide_exact(LaurentScalar.q_power(-1)) == \
        LaurentScalar.q_power(3) * Fraction(1, 2)


def test_render_frozen_forms():
    assert LaurentScalar.one().render() == "(1)"
    assert LaurentScalar.from_rational(Fraction(1, 2)).render() == "(1/2)"
    assert LaurentScalar.q_power(1).render() == "(1)*q"
    assert LaurentScalar.i_unit().render() == "(1)*i"
    assert (-(LaurentScalar.i_unit() * LaurentScalar.q_power(-2))).render() == \
        "-(1)*i*q^-2"


def test_parse_scalar_round_trip():
    for text in ("q^2 - q^-2", "(1/2)*i*q + 3", "i*(q - q^-1)"):
        s = parse_scalar(text)
        assert parse_scalar(s.render()) == s


def test_parse_scalar_rejects_malformed_input():
    with pytest.raises(ScalarParseError):
        parse_scalar("q^")
    with pytest.raises(ScalarParseError):
        parse_scalar("(q + 1")
    with pytest.raises(ScalarParseError):
        parse_scalar("q + a0")


def test_add_term_never_stores_a_zero():
    acc = {}
    add_term(acc, "x", LaurentScalar.zero())
    assert acc == {}


def test_add_term_deletes_a_cancelling_key():
    acc = {"x": LaurentScalar.q_power(1)}
    add_term(acc, "x", -LaurentScalar.q_power(1))
    assert acc == {}


def test_add_term_keeps_first_insertion_order():
    one = LaurentScalar.one()
    acc = {}
    for key in ("x", "y", "z", "x"):
        add_term(acc, key, one)
    assert list(acc) == ["x", "y", "z"]
    assert acc["x"] == 2


def test_convolve_with_legwise_join_is_tensor_multiplication():
    q = LaurentScalar.q_power(1)
    left = TensorPoly({(("a0",), ()): q, ((), ("a1",)): 2})
    right = TensorPoly({(("a1",), ("a2",)): 3, (("a0",), ()): -q})
    product = convolve(left.terms, right.terms, _join_legs)
    assert TensorPoly(product) == left * right
