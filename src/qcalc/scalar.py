"""Exact arithmetic in Q(i)[q, q^-1], the coefficient ring of the engine.

GaussRational is an exact complex rational a + b*i.  LaurentScalar is a
sparse Laurent polynomial in the real invertible parameter q with
Gaussian rational coefficients, stored the way FLINT's fmpq_poly stores a
rational polynomial: integer numerators over one common denominator.  Its
real and imaginary numerators are two maps from q-exponents to ints,
sharing one positive int denominator, so ring operations are integer work.
Canonical form stores no zero numerator, divides out the gcd of the
denominator and all numerators and gives zero the denominator 1, so
structural equality is mathematical equality.  GaussRational appears only
at the API boundary: construction, items(), eval_at, divide_exact and
rendering.  No floating point enters anywhere.

add_term and convolve are the sparse-map core shared by every layer: a
LaurentScalar's numerator maps take q-exponents to ints, an NCPoly maps
words to LaurentScalars and a TensorPoly maps tuples of words to
LaurentScalars, and all three accumulate and multiply through these two
functions.

A product picks one of four paths by the shape of its factors: a factor
equal to 1 hands back the other factor itself; a one-term factor r*q^n
or i*r*q^n shifts and scales the other (_times_monomial); two factors
that are each purely real or purely imaginary need one convolve; only a
factor with both parts takes the general four-convolve product.  Handing
back a factor is safe because a LaurentScalar is immutable: nothing
writes to _re or _im after _canonical or __init__ builds them, and every
operation that reuses a map copies it first.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
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


def convolve(left: dict, right: dict, join) -> dict:
    """Product of two sparse maps: keys combine by join, values multiply."""
    out = {}
    for k1, v1 in left.items():
        for k2, v2 in right.items():
            add_term(out, join(k1, k2), v1 * v2)
    return out


@dataclass(frozen=True)
class GaussRational:
    """a + b*i with Fraction parts; i*i = -1, conjugation negates b.

    Arithmetic promotes an int or Fraction operand and returns
    NotImplemented for any other type, so a LaurentScalar or NCPoly on
    the other side runs its reflected operation.
    """

    re: Fraction = Fraction(0)
    im: Fraction = Fraction(0)

    @staticmethod
    def of(re, im=0) -> "GaussRational":
        return GaussRational(Fraction(re), Fraction(im))

    def __add__(self, other) -> "GaussRational":
        other = _as_gauss(other)
        if other is None:
            return NotImplemented
        return GaussRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other) -> "GaussRational":
        other = _as_gauss(other)
        if other is None:
            return NotImplemented
        return GaussRational(self.re - other.re, self.im - other.im)

    def __rsub__(self, other) -> "GaussRational":
        other = _as_gauss(other)
        if other is None:
            return NotImplemented
        return GaussRational(other.re - self.re, other.im - self.im)

    def __mul__(self, other) -> "GaussRational":
        other = _as_gauss(other)
        if other is None:
            return NotImplemented
        return GaussRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __neg__(self) -> "GaussRational":
        return GaussRational(-self.re, -self.im)

    def __truediv__(self, other) -> "GaussRational":
        other = _as_gauss(other)
        if other is None:
            return NotImplemented
        n = other.re * other.re + other.im * other.im
        if n == 0:
            raise ZeroDivisionError("division by zero GaussRational")
        return self * GaussRational(other.re / n, -other.im / n)

    def conj(self) -> "GaussRational":
        return GaussRational(self.re, -self.im)

    def __eq__(self, other) -> bool:
        # Equal to the same int or Fraction, as a LaurentScalar constant
        # is, so equality across the number types is transitive.
        other = _as_gauss(other)
        if other is None:
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __bool__(self) -> bool:
        return bool(self.re) or bool(self.im)

    def __hash__(self) -> int:
        # A real value hashes like its Fraction, as LaurentScalar
        # constants do, so values that compare equal hash equal.
        return hash((self.re, self.im)) if self.im else hash(self.re)


GR_ONE = GaussRational.of(1)
GR_I = GaussRational.of(0, 1)


def _as_gauss(value) -> GaussRational | None:
    """value as a GaussRational if it is one, an int or a Fraction."""
    if isinstance(value, GaussRational):
        return value
    if isinstance(value, (int, Fraction)):
        return GaussRational(Fraction(value), Fraction(0))
    return None


# The numerator map of the constant 1 (with den 1 and no imaginary part).
_UNIT = {0: 1}


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


def _absorb(acc: dict, terms: dict, sign: int = 1) -> dict:
    """acc += sign*terms in place; returns acc."""
    for n, v in terms.items():
        add_term(acc, n, v if sign == 1 else -v)
    return acc


def _scaled(terms: dict, k: int) -> dict:
    """k*terms as a new map."""
    return {n: v * k for n, v in terms.items()}


def _times_monomial(x: "LaurentScalar", m: "LaurentScalar") -> "LaurentScalar":
    """x*m for m = r*q^n or i*r*q^n: shift x's exponents by n, scale by r."""
    if m._re:
        (n, r), = m._re.items()
        re = {e + n: v * r for e, v in x._re.items()}
        im = {e + n: v * r for e, v in x._im.items()}
    else:
        # (a + ib)*(i*r) = -b*r + i*a*r
        (n, r), = m._im.items()
        re = {e + n: -v * r for e, v in x._im.items()}
        im = {e + n: v * r for e, v in x._re.items()}
    return _canonical(re, im, x._den * m._den)


class LaurentScalar:
    """Sparse Laurent polynomial in q with Gaussian rational coefficients.

    Stored as (re + i*im)/den: re and im map q-exponents to nonzero int
    numerators, den is a positive int, the gcd of den and every numerator
    is 1 and zero has den 1.
    """

    __slots__ = ("_re", "_im", "_den")

    def __init__(self, terms=None):
        parts = []
        den = 1
        if terms:
            for n, value in terms.items():
                g = _as_gauss(value)
                if g is None:
                    raise TypeError(f"cannot promote {value!r} to GaussRational")
                if g:
                    parts.append((int(n), g))
                    den = lcm(den, g.re.denominator, g.im.denominator)
        # den is the lcm of reduced denominators, so no prime divides it
        # and every numerator: the form is already canonical.
        self._re = {n: g.re.numerator * (den // g.re.denominator)
                    for n, g in parts if g.re}
        self._im = {n: g.im.numerator * (den // g.im.denominator)
                    for n, g in parts if g.im}
        self._den = den

    # -- constructors ------------------------------------------------

    @staticmethod
    def zero() -> "LaurentScalar":
        return LaurentScalar()

    @staticmethod
    def one() -> "LaurentScalar":
        return LaurentScalar({0: GR_ONE})

    @staticmethod
    def i_unit() -> "LaurentScalar":
        return LaurentScalar({0: GR_I})

    @staticmethod
    def q_power(n: int) -> "LaurentScalar":
        return LaurentScalar({n: GR_ONE})

    @staticmethod
    def from_rational(r) -> "LaurentScalar":
        return LaurentScalar({0: r})

    @staticmethod
    def from_gauss(g: GaussRational) -> "LaurentScalar":
        return LaurentScalar({0: g})

    @staticmethod
    def coerce(value) -> "LaurentScalar":
        if isinstance(value, LaurentScalar):
            return value
        if isinstance(value, (int, Fraction)):
            num = value.numerator
            return _canonical({0: num} if num else {}, {}, value.denominator)
        return LaurentScalar({0: value})

    # -- ring operations ---------------------------------------------

    def __add__(self, other) -> "LaurentScalar":
        if not isinstance(other, (LaurentScalar, int, Fraction, GaussRational)):
            return NotImplemented
        other = LaurentScalar.coerce(other)
        d1, d2 = self._den, other._den
        if d1 == d2:
            return _canonical(_absorb(dict(self._re), other._re),
                              _absorb(dict(self._im), other._im), d1)
        return _canonical(
            _absorb(_scaled(self._re, d2), _scaled(other._re, d1)),
            _absorb(_scaled(self._im, d2), _scaled(other._im, d1)), d1 * d2)

    __radd__ = __add__

    def __sub__(self, other) -> "LaurentScalar":
        if not isinstance(other, (LaurentScalar, int, Fraction, GaussRational)):
            return NotImplemented
        return self + (-LaurentScalar.coerce(other))

    def __rsub__(self, other) -> "LaurentScalar":
        return LaurentScalar.coerce(other) + (-self)

    def __mul__(self, other) -> "LaurentScalar":
        if not isinstance(other, (LaurentScalar, int, Fraction, GaussRational)):
            return NotImplemented
        other = LaurentScalar.coerce(other)
        a, b, c, d = self._re, self._im, other._re, other._im
        # Four paths by the shape of the factors (see the module
        # docstring).  Handing back a factor is safe because nothing
        # mutates _re or _im once _canonical has built them.
        if c == _UNIT and other._den == 1 and not d:
            return self
        if a == _UNIT and self._den == 1 and not b:
            return other
        if len(c) + len(d) == 1:
            return _times_monomial(self, other)
        if len(a) + len(b) == 1:
            return _times_monomial(other, self)
        den = self._den * other._den
        if not (a and b or c and d):
            # Each factor purely real or purely imaginary (or zero).
            prod = convolve(a or b, c or d, operator.add)
            if not (b or d):
                return _canonical(prod, {}, den)
            if not (a or c):
                return _canonical(_scaled(prod, -1), {}, den)
            return _canonical({}, prod, den)
        add = operator.add
        # (a + ib)(c + id) = (ac - bd) + i(ad + bc)
        re = _absorb(convolve(a, c, add), convolve(b, d, add), -1)
        im = _absorb(convolve(a, d, add), convolve(b, c, add))
        return _canonical(re, im, den)

    __rmul__ = __mul__

    def __neg__(self) -> "LaurentScalar":
        return _canonical({n: -v for n, v in self._re.items()},
                          {n: -v for n, v in self._im.items()}, self._den)

    def __pow__(self, k: int) -> "LaurentScalar":
        if k < 0:
            terms = self._gauss_terms()
            if len(terms) != 1:
                raise ValueError("negative powers only defined for monomials c*q^n")
            (n, g), = terms.items()
            return LaurentScalar({-n: GR_ONE / g}) ** -k
        out = LaurentScalar.one()
        for _ in range(k):
            out = out * self
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, (LaurentScalar, int, Fraction, GaussRational)):
            return NotImplemented
        other = LaurentScalar.coerce(other)
        return (self._den == other._den and self._re == other._re
                and self._im == other._im)

    def __hash__(self) -> int:
        if self._re.keys() <= {0} and self._im.keys() <= {0}:
            # A constant hashes like the equal int, Fraction or
            # GaussRational, as __eq__ requires.
            return hash(self._gauss_terms().get(0, GaussRational()))
        return hash((frozenset(self._re.items()), frozenset(self._im.items()),
                     self._den))

    def __bool__(self) -> bool:
        return bool(self._re or self._im)

    def _gauss_terms(self) -> dict:
        """exponent -> GaussRational, the form the API hands out."""
        den = self._den
        return {n: GaussRational(Fraction(self._re.get(n, 0), den),
                                 Fraction(self._im.get(n, 0), den))
                for n in self._re.keys() | self._im.keys()}

    def items(self):
        """(exponent, coefficient) pairs in descending exponent order."""
        terms = self._gauss_terms()
        return [(n, terms[n]) for n in sorted(terms, reverse=True)]

    def conj(self) -> "LaurentScalar":
        """Complex conjugation; q is real and stays fixed."""
        return _canonical(dict(self._re),
                          {n: -v for n, v in self._im.items()}, self._den)

    def eval_at(self, q0) -> GaussRational:
        """Exact evaluation at a nonzero rational value of q."""
        q0 = Fraction(q0)
        if q0 == 0:
            raise ValueError("q must be evaluated at a nonzero rational")
        re = sum(v * q0 ** n for n, v in self._re.items())
        im = sum(v * q0 ** n for n, v in self._im.items())
        return GaussRational(Fraction(re, self._den), Fraction(im, self._den))

    def divide_exact(self, other) -> "LaurentScalar | None":
        """Exact quotient self/other in Q(i)[q, q^-1], or None if not exact."""
        other = LaurentScalar.coerce(other)
        if not other:
            raise ZeroDivisionError("division by zero LaurentScalar")
        if not self:
            return LaurentScalar.zero()
        # Shift both to ordinary polynomials in q and long-divide.
        num = self._gauss_terms()
        den = other._gauss_terms()
        smin = min(num)
        omin = min(den)
        num = {n - smin: g for n, g in num.items()}
        den = {n - omin: g for n, g in den.items()}
        ddeg = max(den)
        dlead = den[ddeg]
        quo = {}
        while num:
            ndeg = max(num)
            if ndeg < ddeg:
                return None
            c = num[ndeg] / dlead
            k = ndeg - ddeg
            quo[k] = c
            for m, g in den.items():
                add_term(num, m + k, -(c * g))
        shift = smin - omin
        return LaurentScalar({n + shift: g for n, g in quo.items()})

    # -- canonical text form -----------------------------------------

    def render(self) -> str:
        return render_signed_sum([("", self)])

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        return f"LaurentScalar({self.render()!r})"


def render_coeff_body(g: GaussRational, n: int, bare_unit: bool) -> str:
    """One rendered product (coefficient)*q^n; g must be sign-normalized.

    With bare_unit, a coefficient of exactly 1 or i drops its "(1)" so
    words render as `a2` / `i*a2` / `q^2*a0` rather than `(1)*a2`.
    """
    if g.im == 0:
        coef = None if (bare_unit and g.re == 1) else f"({g.re})"
    elif g.re == 0:
        coef = "i" if (bare_unit and g.im == 1) else f"({g.im})*i"
    else:
        im = g.im
        inner = f"{g.re} + {im}*i" if im > 0 else f"{g.re} - {-im}*i"
        coef = f"({inner})"
    if n == 0:
        qs = None
    elif n == 1:
        qs = "q"
    else:
        qs = f"q^{n}"
    pieces = [p for p in (coef, qs) if p]
    return "*".join(pieces) if pieces else "1"


_SUPER = str.maketrans("0123456789-", "⁰¹²³⁴⁵⁶⁷⁸⁹⁻")


def _superscript(n: int) -> str:
    return str(n).translate(_SUPER)


def render_signed_sum(terms, superscripts=False) -> str:
    """Canonical text of a sum of (word text, LaurentScalar) terms, in order.

    Each q-power of each coefficient becomes one product, its sign pulled
    out as a " + " / " - " joiner; an empty word text is the unit word.
    With superscripts, q exponents are written as superscripts.  A
    number with more digits than Python converts to text raises
    OverflowError.
    """
    out = []
    for text, c in terms:
        for n, g in c.items():
            neg = g.re < 0 or (g.re == 0 and g.im < 0)
            try:
                body = render_coeff_body(-g if neg else g, n,
                                         bare_unit=bool(text))
            except ValueError as exc:  # past sys.get_int_max_str_digits()
                raise OverflowError(
                    f"coefficient too long to render: {exc}") from None
            if superscripts and "^" in body:
                head, _, exp = body.rpartition("^")
                body = head + _superscript(int(exp))
            if text:
                body = text if body == "1" else f"{body}*{text}"
            if out:
                out.append(f" {'-' if neg else '+'} {body}")
            else:
                out.append(f"-{body}" if neg else body)
    return "".join(out) or "0"


class ScalarParseError(ValueError):
    """A coefficient text that parser.parse_scalar rejects."""
