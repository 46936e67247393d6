"""Hopf structure of the deformed quaternion algebra.

Tensor powers with legwise reduction, the coproduct, counit, and
antipode, localization by the central norm, and the axiom suite that
checks every structural claim and reports residuals.
"""

from .algebra import NCPoly, Presentation, _render_word
from .scalar import LaurentScalar, render_signed_sum
from .calculus import star, star_table
from .presentations import A, C, L, ONE, get_presentation, norm_poly, rat

__all__ = [
    "TensorPoly",
    "antipode",
    "antipode_square",
    "coproduct",
    "counit",
    "reduce_norm_factors",
    "tensor",
    "verify_hopf_axioms",
]


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
    def zero(legs=2) -> "TensorPoly":
        return TensorPoly({}, legs)

    @staticmethod
    def unit(legs=2) -> "TensorPoly":
        return TensorPoly({tuple(() for _ in range(legs)): LaurentScalar.one()}, legs)

    def _check(self, other):
        if self.legs != other.legs:
            raise ValueError(f"tensor leg mismatch: {self.legs} vs {other.legs}")

    def __add__(self, other) -> "TensorPoly":
        self._check(other)
        terms = dict(self.terms)
        for k, c in other.terms.items():
            s = terms.get(k, LaurentScalar.zero()) + c
            if s:
                terms[k] = s
            else:
                terms.pop(k, None)
        return TensorPoly(terms, self.legs)

    def __neg__(self) -> "TensorPoly":
        return TensorPoly({k: -c for k, c in self.terms.items()}, self.legs)

    def __sub__(self, other) -> "TensorPoly":
        return self + (-other)

    def __mul__(self, other) -> "TensorPoly":
        if not isinstance(other, TensorPoly):
            c = LaurentScalar.coerce(other)
            return TensorPoly({k: v * c for k, v in self.terms.items()}, self.legs)
        self._check(other)
        terms = {}
        for k1, c1 in self.terms.items():
            for k2, c2 in other.terms.items():
                p = c1 * c2
                if not p:
                    continue
                k = tuple(w1 + w2 for w1, w2 in zip(k1, k2))
                s = terms.get(k, LaurentScalar.zero()) + p
                if s:
                    terms[k] = s
                else:
                    terms.pop(k, None)
        return TensorPoly(terms, self.legs)

    def __rmul__(self, other) -> "TensorPoly":
        return self * other

    def __eq__(self, other) -> bool:
        if not isinstance(other, TensorPoly):
            return NotImplemented
        return self.legs == other.legs and self.terms == other.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def normal_form(self, pres: Presentation) -> "TensorPoly":
        """Reduce every leg independently."""
        out = {}
        for key, c in self.terms.items():
            partial = {tuple(() for _ in range(self.legs)): c}
            for idx, w in enumerate(key):
                nf = pres.normal_form(NCPoly.word(w))
                expanded = {}
                for k2, c2 in partial.items():
                    for w2, c3 in nf.terms.items():
                        k3 = list(k2)
                        k3[idx] = k2[idx] + w2
                        key3 = tuple(k3)
                        s = expanded.get(key3, LaurentScalar.zero()) + c2 * c3
                        if s:
                            expanded[key3] = s
                        else:
                            expanded.pop(key3, None)
                partial = expanded
            for k2, c2 in partial.items():
                s = out.get(k2, LaurentScalar.zero()) + c2
                if s:
                    out[k2] = s
                else:
                    out.pop(k2, None)
        return TensorPoly(out, self.legs)

    def map_leg(self, idx: int, images: dict, image_legs: int) -> "TensorPoly":
        """Replace leg idx through a homomorphism with TensorPoly letter images."""
        out = TensorPoly.zero(self.legs - 1 + image_legs)
        for key, c in self.terms.items():
            img = TensorPoly.unit(image_legs) * c
            for gid in key[idx]:
                img = img * images[gid]
            for k2, c2 in img.terms.items():
                spliced = key[:idx] + k2 + key[idx + 1:]
                s = out.terms.get(spliced, LaurentScalar.zero()) + c2
                if s:
                    out.terms[spliced] = s
                else:
                    out.terms.pop(spliced, None)
        return out

    def contract_leg(self, idx: int, scalar_fn) -> "TensorPoly":
        """Apply a scalar-valued homomorphism to one leg."""
        out = TensorPoly.zero(self.legs - 1)
        for key, c in self.terms.items():
            weight = scalar_fn(NCPoly.word(key[idx], c))
            if not weight:
                continue
            rest = key[:idx] + key[idx + 1:]
            s = out.terms.get(rest, LaurentScalar.zero()) + weight
            if s:
                out.terms[rest] = s
            else:
                out.terms.pop(rest, None)
        return out

    def as_poly(self) -> NCPoly:
        """Collapse a single-leg tensor back to a plain polynomial."""
        if self.legs != 1:
            raise ValueError("only single-leg tensors collapse to polynomials")
        return NCPoly({k[0]: c for k, c in self.terms.items()})

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
    legs = len(factors)
    out = TensorPoly.unit(legs)
    for idx, f in enumerate(factors):
        step = TensorPoly.zero(legs)
        for w, c in f.terms.items():
            key = tuple(w if j == idx else () for j in range(legs))
            step.terms[key] = c
        out = out * step
    return out


_images_box = {}


def _coproduct_images():
    if not _images_box:
        a0, a1, a2, a3 = (L(g) for g in A)
        _images_box.update({
            "a0": tensor(a0, a0) - tensor(a1, a1) - tensor(a2, a2)
            - tensor(a3, a3),
            "a1": tensor(a0, a1) + tensor(a1, a0) + tensor(a2, a3)
            - tensor(a3, a2),
            "a2": tensor(a0, a2) + tensor(a2, a0) + tensor(a3, a1)
            - tensor(a1, a3),
            "a3": tensor(a0, a3) + tensor(a3, a0) + tensor(a1, a2)
            - tensor(a2, a1),
        })
    return _images_box


# keyed by the Presentation object: distinct presentations may share a name
_word_cache = {}


def _coproduct_word(w, pres: Presentation) -> TensorPoly:
    # legs are re-reduced at every step so cached entries stay small
    key = (pres, w)
    hit = _word_cache.get(key)
    if hit is None:
        if not w:
            hit = TensorPoly.unit(2)
        elif len(w) == 1:
            hit = _coproduct_images()[w[0]].normal_form(pres)
        else:
            hit = (_coproduct_word(w[:-1], pres)
                   * _coproduct_word(w[-1:], pres)).normal_form(pres)
        _word_cache[key] = hit
    return hit


def coproduct(p: NCPoly, pres: Presentation = None) -> TensorPoly:
    """Algebra homomorphism into the tensor square, legs reduced."""
    pres = pres or get_presentation("hq")
    out = {}
    for w, c in p.terms.items():
        for key, c2 in _coproduct_word(w, pres).terms.items():
            s = out.get(key, LaurentScalar.zero()) + c2 * c
            if s:
                out[key] = s
            else:
                out.pop(key, None)
    return TensorPoly(out, 2)


def counit(p: NCPoly) -> LaurentScalar:
    """Scalar-valued homomorphism sending a0 and the inverse norm to 1."""
    total = LaurentScalar.zero()
    for w, c in p.terms.items():
        if all(gid in ("a0", "n_inv") for gid in w):
            total = total + c
    return total


def _antipode_images():
    table = star_table("hq")
    n_inv = L("n_inv")
    images = {}
    for gid in A:
        body = rat(2 if gid == "a0" else 0) * L("a0") - table[gid]
        images[gid] = n_inv * body
    images["n_inv"] = NCPoly(dict(norm_poly().terms))
    return images


def antipode(p: NCPoly) -> NCPoly:
    """Antihomomorphism extension of the generator images, norm-reduced."""
    loc = get_presentation("hq_localized")
    images = _antipode_images()
    out = NCPoly.zero(loc.name)
    for w, c in p.terms.items():
        img = NCPoly.scalar(c, loc.name)
        for gid in reversed(w):
            img = img * images[gid]
        out = out + img
    return reduce_norm_factors(loc.normal_form(out))


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
                    left = terms[word] - coeff
                    if left:
                        terms[word] = left
                    else:
                        terms.pop(word)
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


def _relation_pairs(pres: Presentation):
    for lhs in sorted(pres.rules):
        yield lhs, NCPoly.word(lhs) - pres.rules[lhs]


def verify_hopf_axioms():
    """Run every Hopf-structure check; returns records with residuals.

    Exact records must reduce to zero; informational records report a
    computed value without a zero contract.
    """
    hq = get_presentation("hq")
    loc = get_presentation("hq_localized")
    table = star_table("hq")
    images = _coproduct_images()
    n = NCPoly(dict(norm_poly().terms))
    records = []

    def exact(check_id, residual, detail=""):
        records.append({
            "id": check_id,
            "kind": "exact",
            "residual": residual,
            "detail": detail,
        })

    def info(check_id, value, detail=""):
        records.append({
            "id": check_id,
            "kind": "informational",
            "residual": value,
            "detail": detail,
        })

    for lhs, rel in _relation_pairs(hq):
        exact(f"coproduct.relation.{lhs[0]}.{lhs[1]}", coproduct(rel),
              "coproduct respects the defining relation")
        eps = counit(NCPoly.word(lhs)) - counit(hq.rules[lhs])
        exact(f"counit.relation.{lhs[0]}.{lhs[1]}",
              NCPoly.scalar(eps, hq.name),
              "counit respects the defining relation")
        exact(f"star.relation.{lhs[0]}.{lhs[1]}", star(rel, table, hq),
              "star image of the defining relation reduces to zero")

    for gid in A:
        g = NCPoly.letter(gid, hq.name)
        delta = coproduct(g)
        left3 = delta.map_leg(0, images, 2).normal_form(hq)
        right3 = delta.map_leg(1, images, 2).normal_form(hq)
        exact(f"coproduct.coassociativity.{gid}", left3 - right3)
        exact(f"counit.left.{gid}",
              delta.contract_leg(0, counit).as_poly() - g,
              "left counit law")
        exact(f"counit.right.{gid}",
              delta.contract_leg(1, counit).as_poly() - g,
              "right counit law")
        for side, leg in (("left", 0), ("right", 1)):
            acc = NCPoly.zero(loc.name)
            for (u, v), c in delta.terms.items():
                if side == "left":
                    part = antipode(NCPoly.word(u)) * NCPoly.word(v, universe=loc.name)
                else:
                    part = NCPoly.word(u, universe=loc.name) * antipode(NCPoly.word(v))
                acc = acc + part * c
            acc = reduce_norm_factors(loc.normal_form(acc))
            target = NCPoly.scalar(counit(g), loc.name)
            exact(f"antipode.{side}.{gid}", acc - target,
                  "antipode law on a generator")
        exact(f"norm.central.{gid}", hq.normal_form(n * g - g * n),
              "norm commutes with the generator")
        exact(f"star.involution.{gid}", star(star(g, table, hq), table, hq) - g,
              "star applied twice returns the generator")
        info(f"antipode.square.{gid}", antipode_square(gid),
             "second antipode power, reported for information")

    exact("norm.grouplike", coproduct(n) - tensor(n, n).normal_form(hq),
          "coproduct of the norm is the norm twice")
    exact("norm.counit", NCPoly.scalar(counit(n) - ONE, hq.name),
          "counit sends the norm to one")
    exact("norm.star", star(NCPoly(dict(n.terms), hq.name), table, hq) - n,
          "the norm is self-adjoint")

    sample = NCPoly.word(("a3", "a1"), universe=loc.name) + rat(2) * NCPoly.letter(
        "a0", loc.name)
    n_inv = NCPoly.letter("n_inv", loc.name)
    exact("localized.centrality",
          loc.normal_form(n_inv * sample - sample * n_inv),
          "inverse norm commutes with a sample element")
    exact("localized.cancel",
          reduce_norm_factors(NCPoly(dict((n * n_inv).terms), loc.name))
          - NCPoly.scalar(ONE, loc.name),
          "norm times inverse norm collapses to one")
    return records
