"""Expression parser for algebra elements and their coefficients.

Grammar: `+ -` under `* /` under `^`; juxtaposition is not
multiplication, the `*` must be written.  Exponents are integers,
nonnegative except on the scalar q.  `d(x)` is sugar for the
differential letter dx, `N` expands to the norm, `Ninv` names the
inverse-norm generator.  Every symbol is validated against the chosen
universe's generator list.

parse_scalar reads a coefficient of Q(i)[q, q^-1], such as the `coeff`
strings of a presentation file, with the same grammar over a universe
with no generators, so only q and i are names.
"""

import re

from .algebra import NCPoly, Presentation
from .scalar import LaurentScalar, ScalarParseError
from .presentations import norm_poly

__all__ = ["ParseError", "UnknownSymbolError", "parse", "parse_scalar"]


class ParseError(ValueError):
    """Input rejection carrying the 0-based offset of the offending token."""

    label = "syntax error"

    def __init__(self, message, pos):
        super().__init__(f"{self.label} at position {pos}: {message}")
        self.pos = pos


class UnknownSymbolError(ParseError):
    """A name that is neither a scalar nor a generator of the universe."""

    label = "unknown symbol"


_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z0-9_]*)|([-+*/^()]))")


def _int_literal(value, pos):
    """The int of a digit token, within Python's int/str digit limit."""
    try:
        return int(value)
    except ValueError:
        raise ParseError(f"integer literal of {len(value)} digits is longer "
                         "than the int/str conversion limit", pos) from None


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == m.start():
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            at = len(text) - len(stripped)
            raise ParseError(f"unexpected character {stripped[0]!r}", at)
        if m.group(1):
            tokens.append(("int", m.group(1), m.start(1)))
        elif m.group(2):
            tokens.append(("name", m.group(2), m.start(2)))
        else:
            tokens.append(("op", m.group(3), m.start(3)))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text, pres: Presentation):
        self.text = text
        self.pres = pres
        self.tokens = _tokenize(text)
        self.idx = 0
        self._letters = {g.id for g in pres.generators}

    def peek(self):
        return self.tokens[self.idx]

    def advance(self):
        tok = self.tokens[self.idx]
        self.idx += 1
        return tok

    def expect(self, text):
        kind, value, pos = self.peek()
        if value != text:
            raise ParseError(f"expected {text!r}, found {value or 'end of input'!r}", pos)
        return self.advance()

    # -- grammar ------------------------------------------------------

    def parse(self) -> NCPoly:
        out = self.sum()
        kind, value, pos = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected {value!r}", pos)
        return out

    def sum(self) -> NCPoly:
        out = self.product()
        while self.peek()[1] in ("+", "-"):
            op = self.advance()[1]
            rhs = self.product()
            out = out + rhs if op == "+" else out - rhs
        return out

    def product(self) -> NCPoly:
        out = self.signed()
        while self.peek()[1] in ("*", "/"):
            _, op, pos = self.advance()
            rhs = self.signed()
            if op == "*":
                out = out * rhs
            else:
                out = self._divide(out, rhs, pos)
        return out

    def signed(self) -> NCPoly:
        sign = 1
        while self.peek()[1] in ("+", "-"):
            if self.advance()[1] == "-":
                sign = -sign
        out = self.power()
        return out if sign > 0 else -out

    def power(self) -> NCPoly:
        out = self.atom()
        if self.peek()[1] != "^":
            return out
        self.advance()
        exp, pos = self._signed_int()
        if self._is_pure_q(out):
            base_n = out.terms[()].items()[0][0]
            return NCPoly.scalar(LaurentScalar.q_power(base_n * exp), self.pres.name)
        if exp < 0:
            raise ParseError("negative exponents are only allowed on q", pos)
        result = NCPoly.unit(self.pres.name)
        for _ in range(exp):
            result = result * out
        return result

    def _signed_int(self):
        sign = 1
        kind, value, pos = self.peek()
        if value in ("+", "-"):
            self.advance()
            sign = -1 if value == "-" else 1
            kind, value, pos = self.peek()
        if kind != "int":
            raise ParseError("expected an integer exponent", pos)
        self.advance()
        return sign * _int_literal(value, pos), pos

    def atom(self) -> NCPoly:
        kind, value, pos = self.peek()
        if value == "(":
            self.advance()
            inner = self.sum()
            self.expect(")")
            return inner
        if kind == "int":
            self.advance()
            return NCPoly.scalar(_int_literal(value, pos), self.pres.name)
        if kind == "name":
            self.advance()
            return self._name(value, pos)
        raise ParseError(f"expected a term, found {value or 'end of input'!r}", pos)

    def _name(self, value, pos) -> NCPoly:
        if value == "i":
            return NCPoly.scalar(LaurentScalar.i_unit(), self.pres.name)
        if value == "q":
            return NCPoly.scalar(LaurentScalar.q_power(1), self.pres.name)
        if value == "d" and self.peek()[1] == "(":
            self.advance()
            kind, inner, inner_pos = self.peek()
            if kind != "name":
                raise ParseError("expected a generator inside d(...)", inner_pos)
            self.advance()
            self.expect(")")
            return self._letter("d" + inner, inner_pos)
        if value == "N":
            missing = [gid for gid in ("a0", "a1", "a2", "a3")
                       if gid not in self._letters]
            if missing:
                raise UnknownSymbolError(
                    f"N needs the coordinate generators, absent from "
                    f"universe {self.pres.name!r}", pos)
            return NCPoly(dict(norm_poly().terms), self.pres.name)
        if value == "Ninv":
            return self._letter("n_inv", pos)
        return self._letter(value, pos)

    def _letter(self, gid, pos) -> NCPoly:
        if gid not in self._letters:
            raise UnknownSymbolError(
                f"{gid!r} is not a generator of universe {self.pres.name!r}",
                pos)
        return NCPoly.letter(gid, self.pres.name)

    # -- helpers --------------------------------------------------------

    @staticmethod
    def _is_pure_q(p: NCPoly) -> bool:
        if list(p.terms) != [()]:
            return False
        items = p.terms[()].items()
        return len(items) == 1 and items[0][1].re == 1 and items[0][1].im == 0

    @staticmethod
    def _divide(lhs: NCPoly, rhs: NCPoly, pos) -> NCPoly:
        if rhs.terms.keys() - {()}:
            raise ParseError("division is only defined by scalars", pos)
        divisor = rhs.terms.get(())
        if not divisor:
            raise ParseError("division by zero", pos)
        quotients = {}
        for w, c in lhs.terms.items():
            quot = c.divide_exact(divisor)
            if quot is None:
                raise ParseError("division is not exact in the coefficient ring", pos)
            quotients[w] = quot
        return NCPoly(quotients, lhs.universe)


def parse(text: str, pres: Presentation) -> NCPoly:
    """Parse text to a polynomial tagged with the presentation's universe."""
    return _Parser(text, pres).parse()


_SCALARS = Presentation("scalars", [], {}, "the coefficient ring Q(i)[q, q^-1]")


def parse_scalar(text: str) -> LaurentScalar:
    """Parse a coefficient text, such as a rendered LaurentScalar."""
    try:
        p = parse(text, _SCALARS)
    except ParseError as exc:
        raise ScalarParseError(str(exc)) from exc
    return p.terms.get((), LaurentScalar.zero())
