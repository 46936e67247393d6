"""Exact arithmetic in Q(i)[q, q^-1], the coefficient ring of the engine.

GaussRational is an exact complex rational a + b*i.  LaurentScalar is a
sparse Laurent polynomial in the real invertible parameter q with
GaussRational coefficients.  Everything is Fraction-backed and exact; no
floating point enters anywhere.  Canonical form never stores a zero
coefficient, so structural equality is mathematical equality.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class GaussRational:
    """a + b*i with Fraction parts; i*i = -1, conjugation negates b."""

    re: Fraction = Fraction(0)
    im: Fraction = Fraction(0)

    @staticmethod
    def of(re, im=0) -> "GaussRational":
        return GaussRational(Fraction(re), Fraction(im))

    def __add__(self, other: "GaussRational") -> "GaussRational":
        return GaussRational(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "GaussRational") -> "GaussRational":
        return GaussRational(self.re - other.re, self.im - other.im)

    def __mul__(self, other: "GaussRational") -> "GaussRational":
        return GaussRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def __neg__(self) -> "GaussRational":
        return GaussRational(-self.re, -self.im)

    def __truediv__(self, other: "GaussRational") -> "GaussRational":
        n = other.re * other.re + other.im * other.im
        if n == 0:
            raise ZeroDivisionError("division by zero GaussRational")
        return self * GaussRational(other.re / n, -other.im / n)

    def conj(self) -> "GaussRational":
        return GaussRational(self.re, -self.im)

    def __bool__(self) -> bool:
        return bool(self.re) or bool(self.im)


GR_ZERO = GaussRational()
GR_ONE = GaussRational.of(1)
GR_I = GaussRational.of(0, 1)


def _promote(value) -> GaussRational:
    if isinstance(value, GaussRational):
        return value
    if isinstance(value, (int, Fraction)):
        return GaussRational(Fraction(value), Fraction(0))
    raise TypeError(f"cannot promote {value!r} to GaussRational")


class LaurentScalar:
    """Sparse Laurent polynomial in q: exponent -> GaussRational."""

    __slots__ = ("_terms",)

    def __init__(self, terms=None):
        canonical = {}
        if terms:
            for n, g in terms.items():
                g = _promote(g)
                if g:
                    canonical[int(n)] = g
        object.__setattr__(self, "_terms", canonical)

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
        return LaurentScalar({0: _promote(r)})

    @staticmethod
    def from_gauss(g: GaussRational) -> "LaurentScalar":
        return LaurentScalar({0: g})

    @staticmethod
    def coerce(value) -> "LaurentScalar":
        if isinstance(value, LaurentScalar):
            return value
        return LaurentScalar({0: _promote(value)})

    # -- ring operations ---------------------------------------------

    def __add__(self, other) -> "LaurentScalar":
        if not isinstance(other, (LaurentScalar, int, Fraction, GaussRational)):
            return NotImplemented
        other = LaurentScalar.coerce(other)
        terms = dict(self._terms)
        for n, g in other._terms.items():
            s = terms.get(n, GR_ZERO) + g
            if s:
                terms[n] = s
            else:
                terms.pop(n, None)
        return LaurentScalar(terms)

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
        terms = {}
        for n1, g1 in self._terms.items():
            for n2, g2 in other._terms.items():
                p = g1 * g2
                if not p:
                    continue
                n = n1 + n2
                s = terms.get(n, GR_ZERO) + p
                if s:
                    terms[n] = s
                else:
                    terms.pop(n, None)
        return LaurentScalar(terms)

    __rmul__ = __mul__

    def __neg__(self) -> "LaurentScalar":
        return LaurentScalar({n: -g for n, g in self._terms.items()})

    def __pow__(self, k: int) -> "LaurentScalar":
        if k < 0:
            raise ValueError("negative powers only defined for pure q monomials")
        out = LaurentScalar.one()
        for _ in range(k):
            out = out * self
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, (LaurentScalar, int, Fraction, GaussRational)):
            return NotImplemented
        return self._terms == LaurentScalar.coerce(other)._terms

    def __hash__(self) -> int:
        return hash(tuple(sorted(self._terms.items(), key=lambda kv: kv[0])))

    def __bool__(self) -> bool:
        return bool(self._terms)

    def items(self):
        """(exponent, coefficient) pairs in descending exponent order."""
        return [(n, self._terms[n]) for n in sorted(self._terms, reverse=True)]

    def conj(self) -> "LaurentScalar":
        """Complex conjugation; q is real and stays fixed."""
        return LaurentScalar({n: g.conj() for n, g in self._terms.items()})

    def eval_at(self, q0) -> GaussRational:
        """Exact evaluation at a nonzero rational value of q."""
        q0 = Fraction(q0)
        if q0 == 0:
            raise ValueError("q must be evaluated at a nonzero rational")
        total = GR_ZERO
        for n, g in self._terms.items():
            total = total + g * GaussRational(q0 ** n, Fraction(0))
        return total

    def divide_exact(self, other) -> "LaurentScalar | None":
        """Exact quotient self/other in Q(i)[q, q^-1], or None if not exact."""
        other = LaurentScalar.coerce(other)
        if not other:
            raise ZeroDivisionError("division by zero LaurentScalar")
        if not self:
            return LaurentScalar.zero()
        # Shift both to ordinary polynomials in q and long-divide.
        smin = min(self._terms)
        omin = min(other._terms)
        num = {n - smin: g for n, g in self._terms.items()}
        den = {n - omin: g for n, g in other._terms.items()}
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
                r = num.get(m + k, GR_ZERO) - c * g
                if r:
                    num[m + k] = r
                else:
                    num.pop(m + k, None)
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
    With superscripts, q exponents are written as superscripts.
    """
    out = []
    for text, c in terms:
        for n, g in c.items():
            neg = g.re < 0 or (g.re == 0 and g.im < 0)
            body = render_coeff_body(-g if neg else g, n, bare_unit=bool(text))
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


# -- parsing ---------------------------------------------------------

class ScalarParseError(ValueError):
    pass


_TOKENS = ("INT", "NAME", "OP")


def _tokenize_scalar(text: str):
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            tokens.append(("INT", text[i:j], i))
            i = j
        elif ch.isalpha():
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("NAME", text[i:j], i))
            i = j
        elif ch in "+-*/^()":
            tokens.append(("OP", ch, i))
            i += 1
        else:
            raise ScalarParseError(f"unexpected character {ch!r} at position {i}")
    tokens.append(("END", "", len(text)))
    return tokens


class _ScalarParser:
    """Recursive-descent parser for the canonical scalar text form."""

    def __init__(self, text: str):
        self.text = text
        self.toks = _tokenize_scalar(text)
        self.pos = 0

    def peek(self):
        return self.toks[self.pos]

    def take(self, kind=None, value=None):
        tok = self.toks[self.pos]
        if kind and tok[0] != kind:
            raise ScalarParseError(f"expected {kind} at position {tok[2]} in {self.text!r}")
        if value and tok[1] != value:
            raise ScalarParseError(f"expected {value!r} at position {tok[2]} in {self.text!r}")
        self.pos += 1
        return tok

    def parse(self) -> LaurentScalar:
        value = self.sum()
        if self.peek()[0] != "END":
            tok = self.peek()
            raise ScalarParseError(f"trailing input at position {tok[2]} in {self.text!r}")
        return value

    def sum(self) -> LaurentScalar:
        negate = False
        if self.peek() == ("OP", "-", self.peek()[2]):
            self.take()
            negate = True
        total = self.product()
        if negate:
            total = -total
        while self.peek()[0] == "OP" and self.peek()[1] in "+-":
            op = self.take()[1]
            term = self.product()
            total = total + term if op == "+" else total - term
        return total

    def product(self) -> LaurentScalar:
        value, _ = self.power()
        while self.peek() == ("OP", "*", self.peek()[2]):
            self.take()
            rhs, _ = self.power()
            value = value * rhs
        return value

    def power(self):
        value, is_q = self.atom()
        if self.peek() == ("OP", "^", self.peek()[2]):
            self.take()
            sign = 1
            if self.peek()[:2] == ("OP", "-"):
                self.take()
                sign = -1
            n = sign * int(self.take("INT")[1])
            if n >= 0:
                value = value ** n
            elif is_q:
                value = LaurentScalar.q_power(n)
            else:
                raise ScalarParseError("negative exponent only allowed on q")
            is_q = False
        return value, is_q

    def atom(self):
        kind, text, pos = self.peek()
        if kind == "INT":
            self.take()
            num = int(text)
            if self.peek()[:2] == ("OP", "/"):
                self.take()
                den = int(self.take("INT")[1])
                return LaurentScalar.from_rational(Fraction(num, den)), False
            return LaurentScalar.from_rational(num), False
        if kind == "NAME" and text == "i":
            self.take()
            return LaurentScalar.i_unit(), False
        if kind == "NAME" and text == "q":
            self.take()
            return LaurentScalar.q_power(1), True
        if (kind, text) == ("OP", "("):
            self.take()
            inner = self.sum()
            self.take("OP", ")")
            return inner, False
        raise ScalarParseError(f"unexpected token {text!r} at position {pos} in {self.text!r}")


def parse_scalar(text: str) -> LaurentScalar:
    """Parse the canonical scalar rendering back into a LaurentScalar."""
    return _ScalarParser(text).parse()
