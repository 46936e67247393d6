"""Noncommutative polynomials and quadratic term rewriting.

Words are tuples of generator ids.  An NCPoly maps words to LaurentScalar
coefficients.  A Presentation holds a generator table (with a total sort
rank fixing the normal order) and a set of quadratic rewrite rules keyed
by the reducible adjacent pair; normal_form rewrites the leftmost
reducible pair of each pending word, merging equal words, until no rule
applies; a rewriting that never ends raises RewritingCycleError.
"""

from __future__ import annotations

import operator
from collections import namedtuple
from fractions import Fraction

from .scalar import (LaurentScalar, ScalarParseError, _superscript, add_scaled,
                     add_term, convolve, eval_terms, render_signed_sum, settle)

Word = tuple  # tuple[str, ...]


class AlgebraError(ValueError):
    pass


class UnknownGeneratorError(AlgebraError):
    pass


class UniverseMismatchError(AlgebraError):
    pass


class RewritingCycleError(AlgebraError):
    pass


class PresentationError(ValueError):
    pass


Generator = namedtuple("Generator", "id grade rank")


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
        return NCPoly._of({(): LaurentScalar.one()}, universe)

    @staticmethod
    def scalar(c, universe=None) -> "NCPoly":
        return NCPoly({(): LaurentScalar.coerce(c)}, universe)

    @staticmethod
    def letter(gid: str, universe=None) -> "NCPoly":
        return NCPoly._of({(gid,): LaurentScalar.one()}, universe)

    @staticmethod
    def word(letters, coeff=1, universe=None) -> "NCPoly":
        return NCPoly({tuple(letters): LaurentScalar.coerce(coeff)}, universe)

    # -- universe bookkeeping ----------------------------------------

    def _merge_universe(self, other):
        return _joint_universe(self.universe, getattr(other, "universe", None))

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
            if not isinstance(other, (int, Fraction, LaurentScalar)):
                return NotImplemented
            other = NCPoly.scalar(other)
        return self.terms == other.terms

    def __hash__(self):
        if self.terms.keys() <= {()}:
            # a constant equals its number, so it hashes as the number does
            return hash(self.terms.get((), 0))
        return hash(frozenset(self.terms.items()))

    def __bool__(self) -> bool:
        return bool(self.terms)

    def eval_at(self, q0) -> "NCPoly":
        """Specialize all coefficients at a nonzero rational q value.

        A q-free polynomial is its own value: it is handed back as it is.
        """
        terms = eval_terms(self.terms, q0)
        return self if terms is self.terms else NCPoly._of(terms, self.universe)

    def __repr__(self):
        inner = " + ".join(f"{c.render()}·{'·'.join(w) or '1'}" for w, c in self.terms.items())
        return f"NCPoly({inner or '0'})"


def _joint_universe(a, b):
    if a and b and a != b:
        raise UniverseMismatchError(f"mixed generator universes: {a!r} vs {b!r}")
    return a or b


def substitute(p: NCPoly, images: dict, pres: "Presentation" = None) -> NCPoly:
    """Algebra homomorphism replacing letters by polynomials.

    Letters without an image map to themselves.  Given pres, the result
    is tagged with its universe and reduced in it once, after the images
    of all words are summed, so that terms cancel before any rewriting.
    """
    universe = tag = pres.name if pres else None
    out = {}
    for w, c in p.terms.items():
        img = NCPoly.unit(universe)
        for letter in w:
            factor = images.get(letter)
            img = img * (factor if factor is not None else NCPoly.letter(letter, universe))
        tag = _joint_universe(tag, img.universe)
        add_scaled(out, img.terms, c)
    out = NCPoly._of(settle(out), tag)
    return pres.normal_form(out) if pres else out


class Presentation:
    """Generator table plus quadratic rewrite rules; immutable once built."""

    q = None  # the Fraction specialize evaluated the rules at; None: generic

    def __init__(self, name: str, generators, rules, description: str = ""):
        self.name = name
        self.generators = list(generators)
        self.rules = {tuple(k): v for k, v in rules.items()}
        self.description = description
        self._by_id = {g.id: g for g in self.generators}
        self._rank = {g.id: g.rank for g in self.generators}
        self._grade = {g.id: g.grade for g in self.generators}
        self._nf_cache = {}
        self._nf_values = {}  # one shared object per word and coefficient cached
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

    def relations(self):
        """(lhs, lhs - rhs) for every rule, in sorted lhs order."""
        for lhs in sorted(self.rules):
            yield lhs, NCPoly.word(lhs) - self.rules[lhs]

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

    def normal_form(self, p: NCPoly, trace=None) -> NCPoly:
        """Fully reduce p, leftmost reducible pair first, into this universe.

        The result is sum c*NF(w) over the terms c*w of p, highest degree
        first: each NF(w) comes from _nf_word and is added in scaled by c
        through add_scaled, and every coefficient is made canonical once,
        when the sum is settled.  A one-word p is scaled without a sum.
        A specialized presentation evaluates p at its q first, which
        leftmost normal form, linear over the coefficients, allows.  The
        result is tagged with this presentation's name, whatever p's tag.
        trace, if given, is a set collecting the lhs pairs of every rule
        on the leftmost rewrite graph of the words of p: the rules that
        rewriting each word path by path would fire.
        """
        self.check_letters(p)
        if self.q is not None:
            p = p.eval_at(self.q)
        if len(p.terms) == 1:
            (w, c), = p.terms.items()
            out = {nw: nc * c for nw, nc in self._nf_word(w).items()}
        else:
            out = {}
            for w, c in sorted(p.terms.items(), key=lambda kv: self.word_sort_key(kv[0])):
                add_scaled(out, self._nf_word(w), c)
            settle(out)
        if trace is not None:
            seen, todo = set(), list(p.terms)
            while todo:
                w = todo.pop()
                i = None if w in seen else self._first_redex(w)
                if i is not None:
                    seen.add(w)
                    trace.add(w[i:i + 2])
                    todo += [w[:i] + rw + w[i + 2:] for rw in self.rules[w[i:i + 2]].terms]
        return NCPoly._of(out, self.name)

    def _nf_word(self, word):
        # _nf_cache maps a word to its normal form terms.  Pending words are
        # merged as they arise and drained first in, first out; a cached one
        # is added from the cache, not rewritten.  Leftmost normal form is
        # linear, so neither changes a result, confluent or not.  pending
        # stays canonical after every step (add_term): a word whose
        # coefficient cancels leaves it at once, which the cycle count
        # and the drain order rely on; acc is one add_scaled sum, settled
        # at the end.  Each word and coefficient is stored as _nf_values'
        # representative of its value, so equal ones share one immutable
        # object.
        cache = self._nf_cache
        hit = cache.get(word)
        if hit is not None:
            return hit
        acc, rewrites = {}, {}
        seed = LaurentScalar.one()
        pending = {word: seed}
        while pending:
            w = next(iter(pending))
            c = pending.pop(w)
            known = cache.get(w)
            if known is not None:
                add_scaled(acc, known, c)
                continue
            i = self._first_redex(w)
            if i is None:
                add_scaled(acc, {w: c}, seed)
                continue
            # Pending words drain in generations, so the k-th rewrite of w ends
            # a chain of at least k rewritten words.  Without a cycle no word
            # repeats on it, so k never exceeds the count of distinct rewritten
            # words; rhs words are no longer than their lhs, so finitely many
            # words are reachable and a rewriting that never ends exceeds it.
            rewrites[w] = k = rewrites.get(w, 0) + 1
            if k > len(rewrites):
                raise RewritingCycleError(
                    f"rewriting cycle in {self.name!r}: reducing "
                    f"{_render_word(word)} rewrites {_render_word(w)} {k} times")
            pair = (w[i], w[i + 1])
            for rw, rc in self.rules[pair].terms.items():
                add_term(pending, w[:i] + rw + w[i + 2:],
                         rc if c is seed else c * rc)
        keep = self._nf_values.setdefault
        return cache.setdefault(keep(word, word),
                                {keep(w, w): keep(c, c) for w, c in settle(acc).items()})

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

    def check_local_confluence(self):
        """Reduce every overlap both ways; return nonzero residuals.

        Result: list of (overlap word, residual NCPoly), empty when the
        rewriting system is locally confluent.
        """
        failures = []
        for (x, y, z) in self.overlap_words():
            left = self.rules[(x, y)] * NCPoly.letter(z)
            right = NCPoly.letter(x) * self.rules[(y, z)]
            residual = self.normal_form(left - right)
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
        import json  # here, not at the top: `import qcalc` never needs it
        return json.dumps(self.to_obj(), indent=2) + "\n"

    @staticmethod
    def from_obj(obj: dict) -> "Presentation":
        # Imported here: parser imports this module.
        from .parser import parse_scalar
        try:
            name = _json_field(obj, "name", str)
            gens = [Generator(_json_field(g, "id", str), _json_field(g, "grade", int),
                              _json_field(g, "rank", int))
                    for g in obj["generators"]]
            rules = {}
            for entry in obj["rules"]:
                lhs = _json_field(entry, "lhs", list)
                if lhs in rules:
                    raise PresentationError(f"duplicate rule for lhs {lhs}")
                terms = {}
                for item in entry["rhs"]:
                    word = _json_field(item, "word", list)
                    if word in terms:
                        raise PresentationError(f"rule for lhs {lhs}: duplicate rhs word {word}")
                    try:
                        terms[word] = parse_scalar(item["coeff"])
                    except ScalarParseError as exc:
                        raise PresentationError(f"rule for lhs {lhs}: bad coefficient "
                                                f"{item['coeff']!r}: {exc}") from exc
                rules[lhs] = NCPoly(terms)
            description = _json_field(obj, "description", str) if "description" in obj else ""
        except PresentationError:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise PresentationError(f"malformed presentation object: {exc}") from exc
        return Presentation(name, gens, rules, description)

    @staticmethod
    def load_json(text: str) -> "Presentation":
        import json
        try:
            obj = json.loads(text)
        except ValueError as exc:  # also a number past the int/str limit
            raise PresentationError(f"invalid JSON: {exc}") from exc
        return Presentation.from_obj(obj)


def _json_field(entry: dict, field: str, kind: type):
    """entry[field], a JSON value of type kind (no bool; a list of strings, as a tuple)."""
    value = entry[field]
    if isinstance(value, bool) or not isinstance(value, kind) or (
            kind is list and not all(isinstance(x, str) for x in value)):
        noun = {int: "an integer", str: "a string"}.get(kind, "a list of strings")
        raise PresentationError(f"malformed presentation object: {field} "
                                f"must be {noun}, got {value!r}")
    return tuple(value) if kind is list else value


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
