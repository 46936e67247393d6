"""Expression parser for algebra elements and their coefficients.

Grammar: `+ -` under `* /` under `^`; juxtaposition is not
multiplication, the `*` must be written.  Exponents are integers,
nonnegative except on the scalar q.  `d(x)` is sugar for the
differential letter dx, `N` expands to the norm, `Ninv` names the
inverse-norm generator.  Every symbol is validated against the chosen
universe's generator list.

The grammar works on term maps {word: nonzero LaurentScalar}, over the
sparse-map core shared with the scalars and polynomials: sums accumulate
with scalar.add_term, products are scalar.convolve with word join, and
one NCPoly wraps the finished map.  So a product of two one-term maps is
one tuple join and one scalar product, and no NCPoly is built per atom.

parse_scalar reads a coefficient of Q(i)[q, q^-1], such as the `coeff`
strings of a presentation file, with the same grammar over a universe
with no generators, so only q and i are names.
"""

import operator
import re

from .algebra import NCPoly, Presentation
from .scalar import LaurentScalar, ScalarParseError, add_term, convolve
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


# A whitespace run, then an int, a name, an operator, or (group 4) any
# other character, which is an error, so finditer never skips input.
_TOKEN = re.compile(
    r"\s*(?:(\d+)|([A-Za-z_][A-Za-z0-9_]*)|([-+*/^()])|(\S))")
_KINDS = (None, "int", "name", "op")  # by the group that matched

# The coefficient of a letter; a LaurentScalar is immutable, so one
# object serves every term map.
_ONE = LaurentScalar.one()


def _int_literal(value, pos):
    """The int of a digit token, within Python's int/str digit limit."""
    try:
        return int(value)
    except ValueError:
        raise ParseError(f"integer literal of {len(value)} digits is longer "
                         "than the int/str conversion limit", pos) from None


def _tokenize(text):
    """(kind, text, offset) tokens: kind is int, name or op, then end."""
    tokens = []
    for m in _TOKEN.finditer(text):
        group = m.lastindex
        if group == 4:
            raise ParseError(f"unexpected character {m.group(4)!r}",
                             m.start(4))
        tokens.append((_KINDS[group], m.group(group), m.start(group)))
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text, pres: Presentation):
        self.pres = pres
        # tok is the next token; the end token is never advanced past
        self._rest = iter(_tokenize(text)).__next__
        self.tok = self._rest()

    def advance(self):
        tok = self.tok
        self.tok = self._rest()
        return tok

    def expect(self, text):
        kind, value, pos = self.tok
        if value != text:
            raise ParseError(f"expected {text!r}, found {value or 'end of input'!r}", pos)
        return self.advance()

    # -- grammar ------------------------------------------------------
    # Every rule returns a term map {word: nonzero LaurentScalar} that no
    # other map shares, so sum() may add into its left operand in place.

    def parse(self) -> NCPoly:
        out = self.sum()
        kind, value, pos = self.tok
        if kind != "end":
            raise ParseError(f"unexpected {value!r}", pos)
        return NCPoly._of(out, self.pres.name)

    def sum(self) -> dict:
        out = self.product()
        while self.tok[1] in ("+", "-"):
            minus = self.advance()[1] == "-"
            for w, c in self.product().items():
                add_term(out, w, -c if minus else c)
        return out

    def product(self) -> dict:
        out = self.signed()
        while self.tok[1] in ("*", "/"):
            _, op, pos = self.advance()
            rhs = self.signed()
            if op == "*":
                out = convolve(out, rhs, operator.add)
            else:
                out = self._divide(out, rhs, pos)
        return out

    def signed(self) -> dict:
        sign = 1
        while self.tok[1] in ("+", "-"):
            if self.advance()[1] == "-":
                sign = -sign
        out = self.power()
        return out if sign > 0 else {w: -c for w, c in out.items()}

    def power(self) -> dict:
        out = self.atom()
        if self.tok[1] != "^":
            return out
        self.advance()
        exp, pos = self._signed_int()
        base_n = self._q_exponent(out)
        if base_n is not None:
            return {(): LaurentScalar.q_power(base_n * exp)}
        if exp < 0:
            raise ParseError("negative exponents are only allowed on q", pos)
        result = {(): _ONE}
        while exp:  # square and multiply
            if exp & 1:
                result = convolve(result, out, operator.add)
            exp >>= 1
            if exp:
                out = convolve(out, out, operator.add)
        return result

    def _signed_int(self):
        sign = 1
        kind, value, pos = self.tok
        if value in ("+", "-"):
            self.advance()
            sign = -1 if value == "-" else 1
            kind, value, pos = self.tok
        if kind != "int":
            raise ParseError("expected an integer exponent", pos)
        self.advance()
        return sign * _int_literal(value, pos), pos

    def atom(self) -> dict:
        kind, value, pos = self.tok
        if value == "(":
            self.advance()
            inner = self.sum()
            self.expect(")")
            return inner
        if kind == "int":
            self.advance()
            n = _int_literal(value, pos)
            return {(): LaurentScalar.coerce(n)} if n else {}
        if kind == "name":
            self.advance()
            return self._name(value, pos)
        raise ParseError(f"expected a term, found {value or 'end of input'!r}", pos)

    def _name(self, value, pos) -> dict:
        if value == "i":
            return {(): LaurentScalar.i_unit()}
        if value == "q":
            return {(): LaurentScalar.q_power(1)}
        if value == "d" and self.tok[1] == "(":
            self.advance()
            kind, inner, inner_pos = self.tok
            if kind != "name":
                raise ParseError("expected a generator inside d(...)", inner_pos)
            self.advance()
            self.expect(")")
            return self._letter("d" + inner, inner_pos)
        if value == "N":
            missing = [gid for gid in ("a0", "a1", "a2", "a3")
                       if gid not in self.pres._by_id]
            if missing:
                raise UnknownSymbolError(
                    f"N needs the coordinate generators, absent from "
                    f"universe {self.pres.name!r}", pos)
            return dict(norm_poly().terms)
        if value == "Ninv":
            return self._letter("n_inv", pos)
        return self._letter(value, pos)

    def _letter(self, gid, pos) -> dict:
        if gid not in self.pres._by_id:
            raise UnknownSymbolError(
                f"{gid!r} is not a generator of universe {self.pres.name!r}",
                pos)
        return {(gid,): _ONE}

    # -- helpers --------------------------------------------------------

    @staticmethod
    def _q_exponent(terms: dict):
        """n if terms is the scalar q^n, else None."""
        if list(terms) != [()]:
            return None
        c = terms[()]
        if c._den == 1 and not c._im and list(c._re.values()) == [1]:
            return next(iter(c._re))
        return None

    @staticmethod
    def _divide(lhs: dict, rhs: dict, pos) -> dict:
        if rhs.keys() - {()}:
            raise ParseError("division is only defined by scalars", pos)
        divisor = rhs.get(())
        if not divisor:
            raise ParseError("division by zero", pos)
        quotients = {}
        for w, c in lhs.items():
            quot = c.divide_exact(divisor)
            if quot is None:
                raise ParseError("division is not exact in the coefficient ring", pos)
            quotients[w] = quot
        return quotients


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
