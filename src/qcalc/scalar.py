"""Exact arithmetic in Q(i)[q, q^-1], the coefficient ring of the engine.

LaurentScalar is a sparse Laurent polynomial in the real invertible
parameter q with Gaussian rational coefficients, stored the way FLINT's
fmpq_poly stores a rational polynomial: integer numerators over one
common denominator.  Its real and imaginary numerators are two maps from
q-exponents to ints, sharing one positive int denominator, so ring
operations are integer work.  Canonical form stores no zero numerator,
divides out the gcd of the denominator and all numerators and gives zero
the denominator 1, so structural equality is mathematical equality.  No
floating point enters anywhere.

A Gaussian rational a + b*i is the constant LaurentScalar with its one
term at q^0; there is no second number type.  items() and eval_at hand
out such constants, whose re and im give the Fraction parts.
GaussRational(re, im) survives only as a constructor of them: no value
is an instance of it.

add_term, add_scaled, settle, convolve and eval_terms are the sparse-map
core shared by every layer: an NCPoly maps words to LaurentScalars and a
TensorPoly maps tuples of words to LaurentScalars.  add_term adds one value and
keeps the map canonical after every step; add_scaled adds a whole map
times a coefficient, acc[k] += v*c, and is how every sum of products
accumulates (a normal form, a polynomial or tensor product, a vector
field applied).  Its first contribution to a key is stored as the
LaurentScalar v*c, so the product's fast paths below still apply; a key
met again holds a raw sum, integer numerator maps over one common
denominator, and further products add into it as integers, with no gcd
and no new object.  settle(acc) makes only those keys canonical, in
place, once per sum, and drops the ones that cancelled: a coefficient
becomes canonical when its sum is settled, not after every term.
convolve, the product of two such maps, is one add_scaled per term of
its left factor.
eval_terms takes every value of a map at one q, as a specialized
presentation reduces.

A product picks one of three paths by the shape of its factors: a
factor equal to 1 hands back the other factor itself; two constants,
the only coefficients at a specialized q, multiply as Gaussian rationals
in one step (_constant_product), as two constants add in one; any other
product is added into an empty raw sum by the integer loop of add_scaled
(_add_product).  Sums use the same kernel: any sum but one of two
constants copies the first summand into a raw sum, adds the second times
1 into it and settles it.

Handing back a factor is safe because a LaurentScalar is immutable:
nothing writes to _re or _im after _canonical or __init__ builds them,
and every operation that reuses a map copies it first.  For the same
reason value_at hands back a constant itself: it is its own value at
every q.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from math import gcd, lcm


def add_term(acc: dict, key, c) -> None:
    """acc[key] += c in place, never storing a zero value.

    A key whose sum cancels is deleted, so a later term for it is
    inserted again at the end of the dict.
    """
    old = acc.get(key)
    if old is None:
        if c:
            acc[key] = c
    else:
        s = old + c
        if s:
            acc[key] = s
        else:
            del acc[key]


def add_scaled(acc: dict, terms: dict, c: "LaurentScalar", join=None) -> dict:
    """acc[k] += v*c for every term k: v of terms, or acc[join(k)] given join.

    Returns acc, which holds raw sums until settle(acc) (see the module
    docstring): read it only after settling.  terms' values and c are
    nonzero LaurentScalars.
    """
    for k, v in terms.items():
        if join is not None:
            k = join(k)
        old = acc.get(k)
        if old is None:
            acc[k] = v * c
        else:
            if old.__class__ is not list:
                old = acc[k] = _raw(old)
            _add_product(old, v, c)
    return acc


def settle(acc: dict) -> dict:
    """Make acc canonical in place after add_scaled: each raw sum becomes
    a LaurentScalar, and a key whose sum cancelled is deleted.  Returns acc.

    A key keeps the place of its first contribution, even if its sum
    passed through zero on the way.
    """
    dead = []
    for k, s in acc.items():
        if s.__class__ is list:
            s = _from_sum(s)
            if s:
                acc[k] = s
            else:
                dead.append(k)
    for k in dead:
        del acc[k]
    return acc


def convolve(left: dict, right: dict, join) -> dict:
    """Product of two sparse maps of LaurentScalars: keys combine by join,
    values multiply.

    One add_scaled per left term, then settle: no zero is stored.
    """
    out = {}
    for k1, v1 in left.items():
        add_scaled(out, right, v1, lambda k2: join(k1, k2))
    return settle(out)


def eval_terms(terms: dict, q0) -> dict:
    """terms with every value taken at q = q0, zeros dropped.

    A map of constants only is its own value: terms itself comes back.
    """
    p, r = q_ratio(q0)
    for c in terms.values():
        if not c._is_constant():
            break
    else:
        return terms
    out = {}
    for k, c in terms.items():
        v = c.value_at(p, r)
        if v:
            out[k] = v
    return out


def q_ratio(q0) -> tuple[int, int]:
    """(p, r) with q0 = p/r in lowest terms and r > 0.

    Raises ValueError unless q0 is a nonzero rational: q is invertible.
    """
    q0 = Fraction(q0)
    if q0 == 0:
        raise ValueError("q must be evaluated at a nonzero rational")
    return q0.numerator, q0.denominator


# The numerator map of the constant 1 (with den 1 and no imaginary part).
_UNIT = {0: 1}

# The exponents of a constant's numerator maps are among these.
_AT_0 = frozenset((0,))

# Python's numeric hash works modulo this prime (see __hash__).
_MODULUS, _HASH_INF = sys.hash_info.modulus, sys.hash_info.inf


def _canonical(re: dict, im: dict, den: int) -> "LaurentScalar":
    """The LaurentScalar (re + i*im)/den; re and im store no zero.

    Divides out the gcd of den and every numerator, so equal values get
    equal fields.
    """
    if den != 1:
        if not re and not im:
            den = 1
        else:
            g = gcd(den, *re.values(), *im.values())
            if g != 1:
                den //= g
                re = {n: v // g for n, v in re.items()}
                im = {n: v // g for n, v in im.items()}
    s = object.__new__(LaurentScalar)
    s._re, s._im, s._den = re, im, den
    return s


def _constant(a: int, b: int, den: int) -> "LaurentScalar":
    """The constant (a + b*i)/den, for ints a, b and den > 0."""
    g = gcd(den, a, b)  # den itself when a = b = 0: zero gets den 1
    if g != 1:
        a, b, den = a // g, b // g, den // g
    s = object.__new__(LaurentScalar)
    s._re, s._im, s._den = {0: a} if a else {}, {0: b} if b else {}, den
    return s


def _constant_product(x: "LaurentScalar", y: "LaurentScalar") -> "LaurentScalar":
    """x*y for constants x and y: one product of Gaussian rationals."""
    a, b, c, d = x._re.get(0, 0), x._im.get(0, 0), y._re.get(0, 0), y._im.get(0, 0)
    return _constant(a * c - b * d, a * d + b * c, x._den * y._den)


def _add_product(s: list, x: "LaurentScalar", y: "LaurentScalar") -> None:
    """s += x*y for a raw sum s = [re, im, den], in integers.

    den grows to a common multiple of its own and x*y's denominator;
    numerators may be zero and share a factor with den (_from_sum).
    """
    re, im, den = s
    d = x._den * y._den
    if den % d:
        m = lcm(den, d)
        f = m // den
        for n in re:
            re[n] *= f
        for n in im:
            im[n] *= f
        s[2] = den = m
    f = den // d
    if len(x._re) + len(x._im) < len(y._re) + len(y._im):
        x, y = y, x
    xr, xi = x._re, x._im
    # (xr + i*xi)*(yr + i*yi) = (xr*yr - xi*yi) + i*(xr*yi + xi*yr)
    for n, r in y._re.items():
        r *= f
        for e, v in xr.items():
            re[e + n] = re.get(e + n, 0) + v * r
        for e, v in xi.items():
            im[e + n] = im.get(e + n, 0) + v * r
    for n, r in y._im.items():
        r *= f
        for e, v in xi.items():
            re[e + n] = re.get(e + n, 0) - v * r
        for e, v in xr.items():
            im[e + n] = im.get(e + n, 0) + v * r


def _raw(x: "LaurentScalar") -> list:
    """x as a raw sum, with maps of its own."""
    return [dict(x._re), dict(x._im), x._den]


def _from_sum(s: list) -> "LaurentScalar":
    """The canonical LaurentScalar of a raw sum [re, im, den]."""
    re, im, den = s
    if 0 in re.values():
        re = {n: v for n, v in re.items() if v}
    if 0 in im.values():
        im = {n: v for n, v in im.items() if v}
    return _canonical(re, im, den)


class LaurentScalar:
    """Sparse Laurent polynomial in q with Gaussian rational coefficients.

    Stored as (re + i*im)/den: re and im map q-exponents to nonzero int
    numerators, den is a positive int, the gcd of den and every numerator
    is 1 and zero has den 1.
    """

    __slots__ = ("_re", "_im", "_den")

    def __init__(self, terms=None):
        """From a map exponent -> int, Fraction or constant LaurentScalar."""
        parts = []
        den = 1
        for n, value in (terms or {}).items():
            c = LaurentScalar.coerce(value)
            if not c._is_constant():
                raise TypeError(f"coefficient {value!r} is not a constant")
            if c:
                parts.append((int(n), c))
                den = lcm(den, c._den)
        # den is the lcm of canonical constants' denominators, so no prime
        # divides it and every numerator: the form is already canonical.
        self._re = {n: c._re[0] * (den // c._den) for n, c in parts if c._re}
        self._im = {n: c._im[0] * (den // c._den) for n, c in parts if c._im}
        self._den = den

    # -- constructors ------------------------------------------------

    @staticmethod
    def zero() -> "LaurentScalar":
        return _canonical({}, {}, 1)

    @staticmethod
    def one() -> "LaurentScalar":
        return _canonical({0: 1}, {}, 1)

    @staticmethod
    def i_unit() -> "LaurentScalar":
        return _canonical({}, {0: 1}, 1)

    @staticmethod
    def q_power(n: int) -> "LaurentScalar":
        return _canonical({n: 1}, {}, 1)

    @staticmethod
    def from_rational(r) -> "LaurentScalar":
        return LaurentScalar({0: r})

    @staticmethod
    def coerce(value) -> "LaurentScalar":
        if isinstance(value, LaurentScalar):
            return value
        if isinstance(value, (int, Fraction)):
            num = value.numerator
            return _canonical({0: num} if num else {}, {}, value.denominator)
        raise TypeError(f"cannot promote {value!r} to LaurentScalar")

    # -- ring operations ---------------------------------------------

    def __add__(self, other) -> "LaurentScalar":
        if other.__class__ is not LaurentScalar:
            if not isinstance(other, (LaurentScalar, int, Fraction)):
                return NotImplemented
            other = LaurentScalar.coerce(other)
        a, b, c, d = self._re, self._im, other._re, other._im
        d1, d2 = self._den, other._den
        if (a.keys() <= _AT_0 and b.keys() <= _AT_0
                and c.keys() <= _AT_0 and d.keys() <= _AT_0):
            a, b, c, d = a.get(0, 0), b.get(0, 0), c.get(0, 0), d.get(0, 0)
            if d1 == d2:
                return _constant(a + c, b + d, d1)
            return _constant(a * d2 + c * d1, b * d2 + d * d1, d1 * d2)
        s = _raw(self)
        _add_product(s, other, _ONE)
        return _from_sum(s)

    __radd__ = __add__

    def __sub__(self, other) -> "LaurentScalar":
        if not isinstance(other, (LaurentScalar, int, Fraction)):
            return NotImplemented
        return self + (-LaurentScalar.coerce(other))

    def __rsub__(self, other) -> "LaurentScalar":
        return LaurentScalar.coerce(other) + (-self)

    def __mul__(self, other) -> "LaurentScalar":
        if other.__class__ is not LaurentScalar:
            if not isinstance(other, (LaurentScalar, int, Fraction)):
                return NotImplemented
            other = LaurentScalar.coerce(other)
        a, b, c, d = self._re, self._im, other._re, other._im
        # Three paths by the shape of the factors (see the module
        # docstring).  Handing back a factor is safe because nothing
        # mutates _re or _im once _canonical has built them.
        if c == _UNIT and other._den == 1 and not d:
            return self
        if a == _UNIT and self._den == 1 and not b:
            return other
        if (a.keys() <= _AT_0 and b.keys() <= _AT_0
                and c.keys() <= _AT_0 and d.keys() <= _AT_0):
            return _constant_product(self, other)
        s = [{}, {}, self._den * other._den]
        _add_product(s, self, other)
        return _from_sum(s)

    __rmul__ = __mul__

    def __neg__(self) -> "LaurentScalar":
        return _canonical({n: -v for n, v in self._re.items()},
                          {n: -v for n, v in self._im.items()}, self._den)

    def __truediv__(self, other) -> "LaurentScalar":
        """divide_exact, raising ValueError where the quotient is not exact."""
        if not isinstance(other, (LaurentScalar, int, Fraction)):
            return NotImplemented
        quotient = self.divide_exact(other)
        if quotient is None:
            raise ValueError(f"{other} does not divide {self} in Q(i)[q, q^-1]")
        return quotient

    def __pow__(self, k: int) -> "LaurentScalar":
        if k < 0:
            # The units of Q(i)[q, q^-1] are the monomials c*q^n.
            inverse = LaurentScalar.one().divide_exact(self) if self else None
            if inverse is None:
                raise ValueError("negative powers only defined for monomials c*q^n")
            return inverse ** -k
        out = LaurentScalar.one()
        for _ in range(k):
            out = out * self
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, LaurentScalar):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = LaurentScalar.coerce(other)
        return (self._den == other._den and self._re == other._re
                and self._im == other._im)

    def __hash__(self) -> int:
        if not self._im and self._re.keys() <= _AT_0:
            # A real constant hashes like the equal int or Fraction, as
            # __eq__ requires, by Python's numeric hash of num/den: num
            # times the inverse of den modulo the prime _MODULUS, signed
            # like num.  num/den is in lowest terms, so den alone can be
            # a multiple of the modulus, which hashes as infinity.
            num, den = self._re.get(0, 0), self._den
            if den == 1:
                return hash(num)
            if den % _MODULUS:
                h = abs(num) % _MODULUS * pow(den, -1, _MODULUS) % _MODULUS
            else:
                h = _HASH_INF
            if num < 0:
                h = -h
            return -2 if h == -1 else h
        return hash((frozenset(self._re.items()), frozenset(self._im.items()),
                     self._den))

    def __bool__(self) -> bool:
        return bool(self._re or self._im)

    def _is_constant(self) -> bool:
        return self._re.keys() <= _AT_0 and self._im.keys() <= _AT_0

    def _part(self, numerators: dict) -> Fraction:
        if not self._is_constant():
            raise ValueError(f"{self} is not a constant")
        return Fraction(numerators.get(0, 0), self._den)

    re = property(lambda self: self._part(self._re),
                  doc="The real part of a constant; ValueError if self has q.")
    im = property(lambda self: self._part(self._im),
                  doc="The imaginary part of a constant; ValueError if self has q.")

    def _coefficients(self) -> dict:
        """exponent -> constant coefficient, in no particular order."""
        re, im, den = self._re, self._im, self._den
        return {n: _constant(re.get(n, 0), im.get(n, 0), den)
                for n in re.keys() | im.keys()}

    def items(self):
        """(exponent, constant coefficient) pairs, highest exponent first."""
        terms = self._coefficients()
        return [(n, terms[n]) for n in sorted(terms, reverse=True)]

    def conj(self) -> "LaurentScalar":
        """Complex conjugation; q is real and stays fixed."""
        return _canonical(dict(self._re),
                          {n: -v for n, v in self._im.items()}, self._den)

    def eval_at(self, q0) -> "LaurentScalar":
        """Exact evaluation at a nonzero rational value of q, a constant."""
        return self.value_at(*q_ratio(q0))

    def value_at(self, p: int, r: int) -> "LaurentScalar":
        """The constant this takes at q = p/r, for ints p != 0 and r > 0.

        A constant is its own value, handed back as it is.  Otherwise,
        with lo <= 0 <= hi bounding the exponents, the value is the
        integer sum of v_n * p^(n-lo) * r^(hi-n) over den * p^-lo * r^hi.
        """
        if self._is_constant():
            return self
        exps = {0, *self._re, *self._im}
        lo, hi = min(exps), max(exps)
        a = sum(v * p ** (n - lo) * r ** (hi - n) for n, v in self._re.items())
        b = sum(v * p ** (n - lo) * r ** (hi - n) for n, v in self._im.items())
        den = self._den * p ** -lo * r ** hi
        if den < 0:
            a, b, den = -a, -b, -den
        return _constant(a, b, den)

    def divide_exact(self, other) -> "LaurentScalar | None":
        """Exact quotient self/other in Q(i)[q, q^-1], or None if not exact."""
        other = LaurentScalar.coerce(other)
        if not other:
            raise ZeroDivisionError("division by zero LaurentScalar")
        if not self:
            return LaurentScalar.zero()
        if other._is_constant():
            # 1/((a + bi)/d) = d*(a - bi)/(a^2 + b^2)
            a, b, d = other._re.get(0, 0), other._im.get(0, 0), other._den
            return self * _constant(d * a, -d * b, a * a + b * b)
        # Long division on constant coefficients: sub holds -other, so
        # adding c*q^k*sub cancels the remainder num's top term.  An exact
        # quotient has no term below q^(lo - min(other)), hence the stop test.
        num = self._coefficients()
        sub = {n: -c for n, c in other._coefficients().items()}
        ddeg = max(sub)
        inverse = LaurentScalar.one().divide_exact(-sub[ddeg])
        lo, span = min(num), ddeg - min(sub)
        quo = {}
        while num:
            n = max(num)
            if n - lo < span:
                return None
            k = n - ddeg
            c = quo[k] = num[n] * inverse
            for m, g in sub.items():
                add_term(num, m + k, c * g)
        return LaurentScalar(quo)

    # -- canonical text form -----------------------------------------

    def render(self) -> str:
        return render_signed_sum([("", self)])

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        return f"LaurentScalar({self.render()!r})"


# The constant 1, the second factor of a sum's one product (__add__).
_ONE = LaurentScalar.one()


class GaussRational:
    """The constructor GaussRational(re, im) of the constant re + im*i.

    It returns a LaurentScalar, so no value is ever an instance of this
    class; re and im are ints or Fractions.
    """

    def __new__(cls, re=0, im=0) -> LaurentScalar:
        re, im = Fraction(re), Fraction(im)
        return _constant(re.numerator * im.denominator,
                         im.numerator * re.denominator,
                         re.denominator * im.denominator)

    @staticmethod
    def of(re, im=0) -> LaurentScalar:
        return GaussRational(re, im)


_SUPER = str.maketrans("0123456789-", "⁰¹²³⁴⁵⁶⁷⁸⁹⁻")


def _superscript(n: int) -> str:
    return str(n).translate(_SUPER)


def _ratio(num: int, den: int) -> str:
    """num/den in lowest terms, as str(Fraction(num, den)) writes it."""
    g = gcd(num, den)
    return str(num // g) if g == den else f"{num // g}/{den // g}"


def render_signed_sum(terms, superscripts=False) -> str:
    """Canonical text of a sum of (word text, LaurentScalar) terms, in order.

    Each q-power of each coefficient, highest first, becomes one product
    (coefficient)*q^n*word, its sign pulled out as a " + " / " - "
    joiner; an empty word text is the unit word.  A word's coefficient
    of exactly 1 or i is written bare, as `a2` / `i*a2` / `q^2*a0`
    rather than `(1)*a2`.  With superscripts, q exponents are written
    as superscripts.  A number with more digits than Python converts to
    text raises OverflowError.
    """
    out = []
    for text, c in terms:
        re, im, den = c._re, c._im, c._den
        for n in sorted(re.keys() | im.keys(), reverse=True):
            a, b = re.get(n, 0), im.get(n, 0)
            neg = a < 0 or (a == 0 and b < 0)
            if neg:
                a, b = -a, -b
            try:
                if not b:
                    coef = None if text and a == den else f"({_ratio(a, den)})"
                elif not a:
                    coef = "i" if text and b == den else f"({_ratio(b, den)})*i"
                else:
                    coef = (f"({_ratio(a, den)} {'+' if b > 0 else '-'} "
                            f"{_ratio(abs(b), den)}*i)")
            except ValueError as exc:  # past sys.get_int_max_str_digits()
                raise OverflowError(
                    f"coefficient too long to render: {exc}") from None
            if n == 0:
                qs = None
            elif n == 1:
                qs = "q"
            else:
                qs = "q" + (_superscript(n) if superscripts else f"^{n}")
            body = "*".join(p for p in (coef, qs, text) if p)
            if out:
                out.append(f" {'-' if neg else '+'} {body}")
            else:
                out.append(f"-{body}" if neg else body)
    return "".join(out) or "0"


class ScalarParseError(ValueError):
    """A coefficient text that parser.parse_scalar rejects."""
