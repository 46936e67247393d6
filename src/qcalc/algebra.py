"""Noncommutative polynomials and quadratic term rewriting.

Words are tuples of generator ids.  An NCPoly maps words to LaurentScalar
coefficients.  A Presentation holds a generator table (with a total sort
rank fixing the normal order) and a set of quadratic rewrite rules keyed
by the reducible adjacent pair; normal_form repeatedly rewrites the
leftmost reducible pair until no rule applies, guarded by a step limit.
"""

from __future__ import annotations

import json
import operator
import os
from dataclasses import dataclass

from .scalar import (LaurentScalar, ScalarParseError, _superscript, add_term,
                     convolve, render_signed_sum)

Word = tuple  # tuple[str, ...]

DEFAULT_STEP_LIMIT = 100_000
STEP_LIMIT_ENV = "QCALC_STEP_LIMIT"


class AlgebraError(ValueError):
    pass


class UnknownGeneratorError(AlgebraError):
    pass


class UniverseMismatchError(AlgebraError):
    pass


class StepLimitExceeded(RuntimeError):
    pass


class PresentationError(ValueError):
    pass


def step_limit_default() -> int:
    """Effective default rewrite budget; QCALC_STEP_LIMIT overrides."""
    raw = os.environ.get(STEP_LIMIT_ENV)
    if raw is None:
        return DEFAULT_STEP_LIMIT
    try:
        value = int(raw)
    except ValueError as exc:
        raise AlgebraError(f"{STEP_LIMIT_ENV} must be an integer, got {raw!r}") from exc
    if value <= 0:
        raise AlgebraError(f"{STEP_LIMIT_ENV} must be positive, got {value}")
    return value


@dataclass(frozen=True)
class Generator:
    id: str
    grade: int
    rank: int


class NCPoly:
    """Finite LaurentScalar-linear combination of words."""

    __slots__ = ("terms", "universe")

    def __init__(self, terms=None, universe=None):
        canonical = {}
        if terms:
            for w, c in terms.items():
                c = LaurentScalar.coerce(c)
                if c:
                    canonical[tuple(w)] = c
        self.terms = canonical
        self.universe = universe

    @staticmethod
    def _of(terms: dict, universe=None) -> "NCPoly":
        """Wrap a map that is already canonical: tuple words, nonzero
        LaurentScalar coefficients.  The map is stored, not copied."""
        p = object.__new__(NCPoly)
        p.terms = terms
        p.universe = universe
        return p

    # -- constructors ------------------------------------------------

    @staticmethod
    def zero(universe=None) -> "NCPoly":
        return NCPoly({}, universe)

    @staticmethod
    def unit(universe=None) -> "NCPoly":
        return NCPoly({(): LaurentScalar.one()}, universe)

    @staticmethod
    def scalar(c, universe=None) -> "NCPoly":
        return NCPoly({(): LaurentScalar.coerce(c)}, universe)

    @staticmethod
    def letter(gid: str, universe=None) -> "NCPoly":
        return NCPoly({(gid,): LaurentScalar.one()}, universe)

    @staticmethod
    def word(letters, coeff=1, universe=None) -> "NCPoly":
        return NCPoly({tuple(letters): LaurentScalar.coerce(coeff)}, universe)

    # -- universe bookkeeping ----------------------------------------

    def _merge_universe(self, other):
        a, b = self.universe, getattr(other, "universe", None)
        if a and b and a != b:
            raise UniverseMismatchError(f"mixed generator universes: {a!r} vs {b!r}")
        return a or b

    # -- ring operations ---------------------------------------------

    def __add__(self, other) -> "NCPoly":
        if not isinstance(other, NCPoly):
            other = NCPoly.scalar(other)
        terms = dict(self.terms)
        for w, c in other.terms.items():
            add_term(terms, w, c)
        return NCPoly._of(terms, self._merge_universe(other))

    __radd__ = __add__

    def __sub__(self, other) -> "NCPoly":
        if not isinstance(other, NCPoly):
            other = NCPoly.scalar(other)
        return self + (-other)

    def __rsub__(self, other) -> "NCPoly":
        return NCPoly.scalar(other) + (-self)

    def __neg__(self) -> "NCPoly":
        return NCPoly._of({w: -c for w, c in self.terms.items()}, self.universe)

    def __mul__(self, other) -> "NCPoly":
        if not isinstance(other, NCPoly):
            c = LaurentScalar.coerce(other)
            return NCPoly({w: v * c for w, v in self.terms.items()}, self.universe)
        terms = convolve(self.terms, other.terms, operator.add)
        return NCPoly._of(terms, self._merge_universe(other))

    def __rmul__(self, other) -> "NCPoly":
        # Scalars commute with everything; words never reach here.
        return self * other

    def __eq__(self, other) -> bool:
        if not isinstance(other, NCPoly):
            if isinstance(other, (int,)) and other == 0:
                return not self.terms
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset((w, c) for w, c in self.terms.items()))

    def __bool__(self) -> bool:
        return bool(self.terms)

    def map_coeffs(self, fn) -> "NCPoly":
        return NCPoly({w: fn(c) for w, c in self.terms.items()}, self.universe)

    def conj_coeffs(self) -> "NCPoly":
        return self.map_coeffs(lambda c: c.conj())

    def eval_at(self, q0) -> "NCPoly":
        """Specialize all coefficients at a rational q value."""
        return self.map_coeffs(lambda c: LaurentScalar.from_gauss(c.eval_at(q0)))

    def degree(self):
        """Maximum word length, or None for the zero polynomial."""
        return max((len(w) for w in self.terms), default=None)

    def __repr__(self):
        inner = " + ".join(f"{c.render()}·{'·'.join(w) or '1'}" for w, c in self.terms.items())
        return f"NCPoly({inner or '0'})"


def substitute(p: NCPoly, images: dict, universe=None) -> NCPoly:
    """Algebra homomorphism replacing letters by polynomials.

    Letters without an image map to themselves.
    """
    out = NCPoly.zero(universe)
    for w, c in p.terms.items():
        acc = NCPoly.scalar(c, universe)
        for letter in w:
            img = images.get(letter)
            acc = acc * (img if img is not None else NCPoly.letter(letter, universe))
        out = out + acc
    return out


class Presentation:
    """Generator table plus quadratic rewrite rules; immutable once built."""

    def __init__(self, name: str, generators, rules, description: str = ""):
        self.name = name
        self.generators = list(generators)
        self.rules = {tuple(k): v for k, v in rules.items()}
        self.description = description
        self._by_id = {g.id: g for g in self.generators}
        self._rank = {g.id: g.rank for g in self.generators}
        self._grade = {g.id: g.grade for g in self.generators}
        self._nf_cache = {}
        self._validate()

    # -- validation ----------------------------------------------------

    def _validate(self):
        if len(self._by_id) != len(self.generators):
            raise PresentationError(f"{self.name}: duplicate generator ids")
        ranks = sorted(g.rank for g in self.generators)
        if ranks != list(range(len(ranks))):
            raise PresentationError(f"{self.name}: ranks must be a permutation of 0..n-1")
        for lhs, rhs in self.rules.items():
            if len(lhs) != 2:
                raise PresentationError(f"{self.name}: rule lhs {lhs} must have length 2")
            for gid in lhs:
                if gid not in self._by_id:
                    raise PresentationError(f"{self.name}: rule uses unknown generator {gid!r}")
            lhs_grade = self._grade[lhs[0]] + self._grade[lhs[1]]
            for w, c in rhs.terms.items():
                if len(w) > 2:
                    raise PresentationError(f"{self.name}: rhs word {w} longer than lhs")
                if w == lhs:
                    raise PresentationError(f"{self.name}: rule rewrites {lhs} to itself")
                for gid in w:
                    if gid not in self._by_id:
                        raise PresentationError(
                            f"{self.name}: rhs uses unknown generator {gid!r}")
                if sum(self._grade[g] for g in w) != lhs_grade:
                    raise PresentationError(f"{self.name}: rule {lhs} is not grade-homogeneous")

    # -- lookups -------------------------------------------------------

    def generator(self, gid: str) -> Generator:
        try:
            return self._by_id[gid]
        except KeyError:
            raise UnknownGeneratorError(
                f"unknown generator {gid!r} in universe {self.name!r}") from None

    def rank(self, gid: str) -> int:
        return self.generator(gid).rank

    def grade(self, gid: str) -> int:
        return self.generator(gid).grade

    def generator_ids(self):
        return [g.id for g in sorted(self.generators, key=lambda g: g.rank)]

    def check_letters(self, p: NCPoly):
        for w in p.terms:
            for gid in w:
                self.generator(gid)

    def word_grade(self, w) -> int:
        return sum(self._grade[g] for g in w)

    def grade_of(self, p: NCPoly):
        """Common total grade of all terms, or "mixed"."""
        self.check_letters(p)
        grades = {self.word_grade(w) for w in p.terms}
        if not grades:
            return 0
        if len(grades) == 1:
            return grades.pop()
        return "mixed"

    def is_degree_homogeneous(self) -> bool:
        """True when every rule rewrites length 2 to length 2."""
        return all(
            all(len(w) == 2 for w in rhs.terms)
            for rhs in self.rules.values()
        )

    def word_sort_key(self, w):
        """Canonical display order: high degree first, then leading letters."""
        return (-len(w), tuple(self._rank[g] for g in w))

    # -- rewriting -----------------------------------------------------

    def _first_redex(self, w):
        rules = self.rules
        for i in range(len(w) - 1):
            if (w[i], w[i + 1]) in rules:
                return i
        return None

    def normal_form(self, p: NCPoly, step_limit=None, trace=None) -> NCPoly:
        """Fully reduce p, leftmost reducible pair first.

        trace, if given, is a set collecting the lhs pairs of every rule
        actually applied (caching is disabled so usage is complete).  A
        cached normal form is charged the steps it cost when computed, so
        whether the limit is hit depends on p alone.
        """
        self.check_letters(p)
        budget = [step_limit if step_limit is not None else step_limit_default()]
        out = {}
        for w, c in sorted(p.terms.items(), key=lambda kv: self.word_sort_key(kv[0])):
            for nw, nc in self._nf_word(w, budget, trace).items():
                add_term(out, nw, nc * c)
        return NCPoly._of(out, p.universe)

    def _charge(self, budget, steps):
        if steps > budget[0]:
            raise StepLimitExceeded(
                f"step limit exceeded while reducing in {self.name!r}; "
                f"raise it via the step_limit argument or {STEP_LIMIT_ENV}")
        budget[0] -= steps

    def _nf_word(self, word, budget, trace):
        # _nf_cache maps a word to (normal form terms, rewrite steps it cost)
        use_cache = trace is None
        if use_cache:
            hit = self._nf_cache.get(word)
            if hit is not None:
                self._charge(budget, hit[1])
                return hit[0]
        start = budget[0]
        acc = {}
        one = LaurentScalar.one()
        stack = [(word, one)]
        rules = self.rules
        while stack:
            w, c = stack.pop()
            if use_cache and w != word:
                hit = self._nf_cache.get(w)
                if hit is not None:
                    self._charge(budget, hit[1])
                    for nw, nc in hit[0].items():
                        add_term(acc, nw, nc * c)
                    continue
            i = self._first_redex(w)
            if i is None:
                add_term(acc, w, c)
                continue
            self._charge(budget, 1)
            pair = (w[i], w[i + 1])
            if trace is not None:
                trace.add(pair)
            for rw, rc in rules[pair].terms.items():
                stack.append((w[:i] + rw + w[i + 2:], c * rc))
        if use_cache:
            self._nf_cache[word] = (acc, start - budget[0])
        return acc

    def nc_equal(self, p: NCPoly, r: NCPoly, step_limit=None) -> bool:
        diff = p - r
        return not self.normal_form(diff, step_limit=step_limit).terms

    def is_normal(self, p: NCPoly) -> bool:
        return all(self._first_redex(w) is None for w in p.terms)

    # -- local confluence ------------------------------------------------

    def overlap_words(self):
        """All length-3 words whose two adjacent pairs are both rule lhs."""
        heads = {}
        for (x, y) in self.rules:
            heads.setdefault(x, []).append(y)
        out = []
        for (x, y) in sorted(self.rules):
            for z in sorted(heads.get(y, ())):
                out.append((x, y, z))
        return out

    def check_local_confluence(self, step_limit=None):
        """Reduce every overlap both ways; return nonzero residuals.

        Result: list of (overlap word, residual NCPoly), empty when the
        rewriting system is locally confluent.
        """
        failures = []
        for (x, y, z) in self.overlap_words():
            left = self.rules[(x, y)] * NCPoly.letter(z)
            right = NCPoly.letter(x) * self.rules[(y, z)]
            residual = self.normal_form(left - right, step_limit=step_limit)
            if residual:
                failures.append(((x, y, z), residual))
        return failures

    # -- serialization -----------------------------------------------

    def to_obj(self) -> dict:
        gens = [
            {"id": g.id, "grade": g.grade, "rank": g.rank}
            for g in sorted(self.generators, key=lambda g: g.rank)
        ]
        rules = []
        for lhs in sorted(self.rules, key=lambda pair: (self._rank[pair[0]], self._rank[pair[1]])):
            rhs = self.rules[lhs]
            entries = [
                {"word": list(w), "coeff": rhs.terms[w].render()}
                for w in sorted(rhs.terms, key=self.word_sort_key)
            ]
            rules.append({"lhs": list(lhs), "rhs": entries})
        return {
            "name": self.name,
            "description": self.description,
            "generators": gens,
            "rules": rules,
        }

    def dump_json(self) -> str:
        return json.dumps(self.to_obj(), indent=2) + "\n"

    @staticmethod
    def from_obj(obj: dict) -> "Presentation":
        # Imported here: parser imports this module.
        from .parser import parse_scalar
        try:
            name = obj["name"]
            gens = [Generator(g["id"], int(g["grade"]), int(g["rank"]))
                    for g in obj["generators"]]
            rules = {}
            for entry in obj["rules"]:
                lhs = tuple(entry["lhs"])
                if lhs in rules:
                    raise PresentationError(f"duplicate rule for lhs {lhs}")
                terms = {}
                for item in entry["rhs"]:
                    try:
                        terms[tuple(item["word"])] = parse_scalar(item["coeff"])
                    except ScalarParseError as exc:
                        raise PresentationError(f"rule for lhs {lhs}: bad coefficient "
                                                f"{item['coeff']!r}: {exc}") from exc
                rules[lhs] = NCPoly(terms)
        except (KeyError, TypeError) as exc:
            raise PresentationError(f"malformed presentation object: {exc}") from exc
        return Presentation(name, gens, rules, obj.get("description", ""))

    @staticmethod
    def load_json(text: str) -> "Presentation":
        try:
            obj = json.loads(text)
        except ValueError as exc:  # also a number past the int/str limit
            raise PresentationError(f"invalid JSON: {exc}") from exc
        return Presentation.from_obj(obj)


# -- rendering ---------------------------------------------------------

def _render_word(w, unicode_mode=False) -> str:
    if not w:
        return ""
    pieces = []
    i = 0
    while i < len(w):
        j = i
        while j < len(w) and w[j] == w[i]:
            j += 1
        count = j - i
        if count == 1:
            pieces.append(w[i])
        elif unicode_mode:
            pieces.append(w[i] + _superscript(count))
        else:
            pieces.append(f"{w[i]}^{count}")
        i = j
    return "*".join(pieces)


def render_poly(p: NCPoly, pres: Presentation, unicode_mode=False) -> str:
    """Canonical text form: one term per (word, q-power, coefficient)."""
    return render_signed_sum(
        ((_render_word(w, unicode_mode), p.terms[w])
         for w in sorted(p.terms, key=pres.word_sort_key)),
        superscripts=unicode_mode)
