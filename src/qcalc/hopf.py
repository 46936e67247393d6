"""Hopf structure of the deformed quaternion algebra.

Tensor powers with legwise reduction, the coproduct, counit, and
antipode, localization by the central norm, and the axiom suite that
checks every structural claim and reports residuals.

The coproduct is TensorPoly.map_leg of its constant, cached generator
images; the antipode is algebra.substitute of its own cached images over
reversed words.  The convolution f⋆g = m∘(f⊗g)∘Δ of two linear maps
takes each term c·u⊗v of the coproduct to c·f(u)·g(v); the counit
axioms read ε⋆id = id = id⋆ε and the antipode axioms S⋆id = ε·1 = id⋆S.
"""

import functools
import operator

from .algebra import NCPoly, Presentation, _joint_universe, _render_word, substitute
from .scalar import (LaurentScalar, add_scaled, add_term, convolve, eval_terms,
                     render_signed_sum, settle)
from .calculus import _STAR_IMAGES, star, star_table
from .presentations import A, C, L, ONE, get_presentation, norm_poly, rat

__all__ = [
    "TensorPoly",
    "antipode",
    "antipode_square",
    "convolution",
    "coproduct",
    "counit",
    "reduce_norm_factors",
    "tensor",
    "verify_hopf_axioms",
]


def _join_legs(k1, k2):
    return tuple(map(operator.add, k1, k2))


def _append(key, w):
    return key + (w,)


class TensorPoly:
    """Linear combination of leg-tuples of words; legs commute past each other."""

    __slots__ = ("terms", "legs")

    def __init__(self, terms=None, legs=2):
        canonical = {}
        if terms:
            for key, c in terms.items():
                c = LaurentScalar.coerce(c)
                if c:
                    canonical[tuple(tuple(w) for w in key)] = c
        self.terms = canonical
        self.legs = legs

    @staticmethod
    def _of(terms: dict, legs: int) -> "TensorPoly":
        """Wrap a map that is already canonical, like NCPoly._of: each key
        a tuple of one tuple word per leg, each value a nonzero
        LaurentScalar.  The map is stored, not copied.  The results of
        tensor, normal_form, map_leg and the ring operations are built
        here; __init__ canonicalises a map that comes from a caller
        (coproduct's input) and a product with a scalar, which drops
        every term when the scalar is zero."""
        t = object.__new__(TensorPoly)
        t.terms = terms
        t.legs = legs
        return t

    @staticmethod
    def zero(legs=2) -> "TensorPoly":
        return TensorPoly._of({}, legs)

    @staticmethod
    def unit(legs=2) -> "TensorPoly":
        return TensorPoly._of({((),) * legs: LaurentScalar.one()}, legs)

    def _check(self, other):
        if self.legs != other.legs:
            raise ValueError(f"tensor leg mismatch: {self.legs} vs {other.legs}")

    def __add__(self, other) -> "TensorPoly":
        if not isinstance(other, TensorPoly):
            return NotImplemented
        self._check(other)
        terms = dict(self.terms)
        for k, c in other.terms.items():
            add_term(terms, k, c)
        return TensorPoly._of(terms, self.legs)

    def __neg__(self) -> "TensorPoly":
        return TensorPoly._of({k: -c for k, c in self.terms.items()}, self.legs)

    def __sub__(self, other) -> "TensorPoly":
        if not isinstance(other, TensorPoly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other) -> "TensorPoly":
        if not isinstance(other, TensorPoly):
            c = LaurentScalar.coerce(other)
            return TensorPoly({k: v * c for k, v in self.terms.items()}, self.legs)
        self._check(other)
        return TensorPoly._of(convolve(self.terms, other.terms, _join_legs), self.legs)

    def __rmul__(self, other) -> "TensorPoly":
        return self * other

    def __eq__(self, other) -> bool:
        if not isinstance(other, TensorPoly):
            return NotImplemented
        return self.legs == other.legs and self.terms == other.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def normal_form(self, pres: Presentation) -> "TensorPoly":
        """Reduce every leg independently, each distinct leg word once.

        A specialized presentation evaluates every coefficient at its q
        first, as Presentation.normal_form does, so the result is a value
        at that q.  The product of the leg normal forms is built leg by
        leg; the last leg is added into the result scaled by each partial
        product, one add_scaled sum settled at the end."""
        leg_nf = {}

        def nf(w):
            terms = leg_nf.get(w)
            if terms is None:
                terms = leg_nf[w] = pres.normal_form(NCPoly.word(w)).terms
            return terms

        terms = self.terms if pres.q is None else eval_terms(self.terms, pres.q)
        out = {}
        for key, c in terms.items():
            if not key:  # no legs: the one key is ()
                out[key] = c
                continue
            heads = {(): c}
            for w in key[:-1]:
                heads = convolve(heads, nf(w), _append)
            last = nf(key[-1])
            for head, h in heads.items():
                add_scaled(out, last, h, functools.partial(_append, head))
        return TensorPoly._of(settle(out), self.legs)

    def map_leg(self, idx: int, images: dict, pres: Presentation) -> "TensorPoly":
        """Replace leg idx through a homomorphism with TensorPoly letter images.

        The images, all with one leg count, replace the leg by that many.
        Each word's image is folded one letter at a time and every leg of
        it reduced in pres after each letter, which keeps it small; the
        other legs are kept as they are.  The term's coefficient, taken
        at pres.q as normal_form takes it, scales the image only as it is
        added in, which linearity allows.
        """
        image_legs = next(iter(images.values())).legs
        terms = self.terms if pres.q is None else eval_terms(self.terms, pres.q)
        out = {}
        for key, c in terms.items():
            img = TensorPoly.unit(image_legs)
            for gid in key[idx]:
                img = (img * images[gid]).normal_form(pres)
            head, tail = key[:idx], key[idx + 1:]
            add_scaled(out, img.terms, c, lambda k2: head + k2 + tail)
        return TensorPoly._of(settle(out), self.legs - 1 + image_legs)

    def render(self, pres: Presentation, unicode_mode=False) -> str:
        # q exponents stay ASCII even under unicode_mode; only words change
        sep = " ⊗ " if unicode_mode else " (x) "
        keys = sorted(self.terms, key=lambda k: tuple(pres.word_sort_key(w) for w in k))
        return render_signed_sum(
            (sep.join(_render_word(w, unicode_mode) or "1" for w in k), self.terms[k])
            for k in keys)

    def __repr__(self):
        inner = " + ".join(
            f"{c.render()}·" + "⊗".join("·".join(w) or "1" for w in k)
            for k, c in self.terms.items())
        return f"TensorPoly({inner or '0'})"


def tensor(*factors: NCPoly) -> TensorPoly:
    """Tensor product of plain polynomials, one per leg."""
    terms = {(): LaurentScalar.one()}
    for f in factors:
        terms = convolve(terms, f.terms, _append)
    return TensorPoly._of(terms, len(factors))


@functools.cache
def _coproduct_images():
    a0, a1, a2, a3 = (L(g) for g in A)
    return {
        "a0": tensor(a0, a0) - tensor(a1, a1) - tensor(a2, a2)
        - tensor(a3, a3),
        "a1": tensor(a0, a1) + tensor(a1, a0) + tensor(a2, a3)
        - tensor(a3, a2),
        "a2": tensor(a0, a2) + tensor(a2, a0) + tensor(a3, a1)
        - tensor(a1, a3),
        "a3": tensor(a0, a3) + tensor(a3, a0) + tensor(a1, a2)
        - tensor(a2, a1),
    }


def coproduct(p: NCPoly, pres: Presentation = None) -> TensorPoly:
    """Algebra homomorphism into the tensor square, legs reduced in pres
    (hq by default)."""
    pres = pres or get_presentation("hq")
    lifted = TensorPoly({(w,): c for w, c in p.terms.items()}, 1)
    return lifted.map_leg(0, _coproduct_images(), pres)


def convolution(f, g, p: NCPoly) -> NCPoly:
    """f⋆g applied to p: the sum of c·f(u)·g(v) over the terms c·u⊗v of
    coproduct(p), unreduced.  f and g map a word to an NCPoly."""
    out, universe = {}, None
    for (u, v), c in coproduct(p).terms.items():
        part = f(u) * g(v)
        universe = _joint_universe(universe, part.universe)
        add_scaled(out, part.terms, c)
    return NCPoly._of(settle(out), universe)


def counit(p: NCPoly) -> LaurentScalar:
    """Scalar-valued homomorphism sending a0 and the inverse norm to 1."""
    total = LaurentScalar.zero()
    for w, c in p.terms.items():
        if all(gid in ("a0", "n_inv") for gid in w):
            total = total + c
    return total


@functools.cache
def _antipode_images():
    n_inv = L("n_inv")
    images = {}
    for gid in A:
        body = rat(2 if gid == "a0" else 0) * L("a0") - _STAR_IMAGES[gid]
        images[gid] = n_inv * body
    images["n_inv"] = norm_poly()
    return images


def antipode(p: NCPoly) -> NCPoly:
    """Antihomomorphism extension of the generator images, norm-reduced."""
    flipped = NCPoly._of({w[::-1]: c for w, c in p.terms.items()})
    loc = get_presentation("hq_localized")
    return reduce_norm_factors(substitute(flipped, _antipode_images(), loc))


def _insert_pair(pres: Presentation, base, gid):
    """Sorted word obtained by inserting two copies of gid into base."""
    r = pres.rank(gid)
    spot = 0
    while spot < len(base) and pres.rank(base[spot]) <= r:
        spot += 1
    return base[:spot] + (gid, gid) + base[spot:]


def reduce_norm_factors(p: NCPoly) -> NCPoly:
    """Cancel recognized norm factors against inverse-norm letters.

    Scans reduced terms for the norm's four-word bundle alongside an
    inverse-norm letter and collapses each recognized bundle; repeats to
    a fixpoint.  A recognition pass, not a decision procedure: elements
    of the vanishing ideal it does not recognize stay as written.
    """
    loc = get_presentation("hq_localized")
    weights = [("a0", ONE), ("a1", ONE), ("a2", C), ("a3", C)]
    p = loc.normal_form(p)
    changed = True
    while changed:
        changed = False
        for w in sorted(p.terms, key=len, reverse=True):
            if "n_inv" not in w:
                continue
            cut = w.index("n_inv")
            body, tail = w[:cut], w[cut:]
            for start in range(len(body) - 1):
                if body[start:start + 2] != ("a0", "a0"):
                    continue
                base = body[:start] + body[start + 2:]
                c = p.terms[w]
                bundle = {}
                consistent = True
                for gid, weight in weights:
                    word = _insert_pair(loc, base, gid) + tail
                    if p.terms.get(word) != c * weight:
                        consistent = False
                        break
                    bundle[word] = c * weight
                if not consistent:
                    continue
                terms = dict(p.terms)
                for word, coeff in bundle.items():
                    add_term(terms, word, -coeff)
                acc = NCPoly(terms, p.universe) + NCPoly.word(
                    base + tail[1:], c, p.universe)
                p = loc.normal_form(acc)
                changed = True
                break
            if changed:
                break
    return p


def antipode_square(gid: str) -> NCPoly:
    """S(S(a_k)); the source is silent on its shape, so it is reported."""
    return antipode(antipode(NCPoly.letter(gid)))


def verify_hopf_axioms():
    """Run every Hopf-structure check; returns records with residuals.

    Exact records must reduce to zero; informational records report a
    computed value without a zero contract.
    """
    hq = get_presentation("hq")
    loc = get_presentation("hq_localized")
    table = star_table("hq")
    images = _coproduct_images()
    n = norm_poly()
    records = []

    def record(check_id, residual, kind="exact"):
        records.append({"id": check_id, "kind": kind, "residual": residual})

    for lhs, rel in hq.relations():
        suffix = f"relation.{lhs[0]}.{lhs[1]}"
        record(f"coproduct.{suffix}", coproduct(rel))
        eps = counit(NCPoly.word(lhs)) - counit(hq.rules[lhs])
        record(f"counit.{suffix}", NCPoly.scalar(eps, hq.name))
        record(f"star.{suffix}", star(rel, table, hq))

    def counit_of(w):
        return NCPoly.scalar(counit(NCPoly.word(w)))

    def antipode_of(w):
        return antipode(NCPoly.word(w))

    for gid in A:
        g = NCPoly.letter(gid, hq.name)
        delta = coproduct(g)
        left3 = delta.map_leg(0, images, hq)
        right3 = delta.map_leg(1, images, hq)
        record(f"coproduct.coassociativity.{gid}", left3 - right3)
        record(f"counit.left.{gid}", convolution(counit_of, NCPoly.word, g) - g)
        record(f"counit.right.{gid}", convolution(NCPoly.word, counit_of, g) - g)
        target = NCPoly.scalar(counit(g), loc.name)
        record(f"antipode.left.{gid}",
               reduce_norm_factors(convolution(antipode_of, NCPoly.word, g)) - target)
        record(f"antipode.right.{gid}",
               reduce_norm_factors(convolution(NCPoly.word, antipode_of, g)) - target)
        record(f"norm.central.{gid}", hq.normal_form(n * g - g * n))
        record(f"star.involution.{gid}", star(star(g, table, hq), table, hq) - g)
        record(f"antipode.square.{gid}", antipode_square(gid), "informational")

    record("norm.grouplike", coproduct(n) - tensor(n, n).normal_form(hq))
    record("norm.counit", NCPoly.scalar(counit(n) - ONE, hq.name))
    record("norm.star", star(n, table, hq) - n)

    sample = NCPoly.word(("a3", "a1"), universe=loc.name) + rat(2) * NCPoly.letter(
        "a0", loc.name)
    n_inv = NCPoly.letter("n_inv", loc.name)
    record("localized.centrality", loc.normal_form(n_inv * sample - sample * n_inv))
    record("localized.cancel",
           reduce_norm_factors(n * n_inv) - NCPoly.scalar(ONE, loc.name))
    return records
