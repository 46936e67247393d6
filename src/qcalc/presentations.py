"""Shipped algebra presentations and their consistency oracles.

The catalog covers the q-deformed quaternion coordinate algebra (hq), its
extension by quaternion units (units), the first-order differential
algebra on the coordinates (dga), the left-covariant one-form algebra
(cartan_maurer), the Grassmann envelope variant (grassmann), and the q=1
classical specialization of each.

Some differential commutation rows are shipped in two variants: the
"literal" table transcribes the source coefficient tables verbatim, the
default table applies the minimal corrections that the graded Leibniz
closure oracle (leibniz_consistency_check) forces.  Both variants are
kept so the oracle's verdict stays reproducible.
"""

from __future__ import annotations

from fractions import Fraction

from .algebra import (Generator, NCPoly, Presentation, PresentationError,
                      substitute)
from .scalar import LaurentScalar, add_scaled, settle

# -- scalar shorthands -------------------------------------------------

ONE = LaurentScalar.one()
I = LaurentScalar.i_unit()


def rat(a, b=1) -> LaurentScalar:
    return LaurentScalar.from_rational(Fraction(a, b))


def qp(n: int) -> LaurentScalar:
    return LaurentScalar.q_power(n)


# (q + q^-1)/2 and (q - q^-1)/2 appear in almost every table.
C = (qp(1) + qp(-1)) * rat(1, 2)
S = (qp(1) - qp(-1)) * rat(1, 2)

A = ["a0", "a1", "a2", "a3"]
DA = ["da0", "da1", "da2", "da3"]
W = ["w0", "w1", "w2", "w3"]
E = ["e1", "e2", "e3"]
PSI = ["psi0", "psi1", "psi2", "psi3"]
N_INV = "n_inv"


def _gens(*groups) -> list:
    """Generators ranked by listing order: earlier means further left."""
    out = []
    rank = 0
    for ids, grade in groups:
        for gid in ids:
            out.append(Generator(gid, grade, rank))
            rank += 1
    return out


def L(gid: str) -> NCPoly:
    return NCPoly.letter(gid)


def _rules(entries):
    return {tuple(lhs): rhs for lhs, rhs in entries}


# -- coordinate algebra ------------------------------------------------

def _a_sector_rules():
    """Quadratic relations among the four coordinate generators."""
    a0, a1, a2, a3 = (L(g) for g in A)
    return [
        (("a0", "a1"), a1 * a0 - I * S * (a2 * a2 + a3 * a3)),
        (("a0", "a2"), C * (a2 * a0) + I * S * (a2 * a1)),
        (("a0", "a3"), C * (a3 * a0) + I * S * (a3 * a1)),
        (("a1", "a2"), C * (a2 * a1) - I * S * (a2 * a0)),
        (("a1", "a3"), C * (a3 * a1) - I * S * (a3 * a0)),
        (("a2", "a3"), a3 * a2),
    ]


def build_hq() -> Presentation:
    """Coordinate algebra of the q-quaternions; descending index order."""
    return Presentation(
        "hq",
        _gens((["a3", "a2", "a1", "a0"], 0)),
        _rules(_a_sector_rules()),
        "q-deformed quaternion coordinate algebra",
    )


def norm_poly() -> NCPoly:
    """The central norm element a0^2 + a1^2 + (q+q^-1)/2 (a2^2 + a3^2)."""
    a0, a1, a2, a3 = (L(g) for g in A)
    return a0 * a0 + a1 * a1 + C * (a2 * a2 + a3 * a3)


# -- quaternion units --------------------------------------------------

def _epsilon(k: int, l: int, m: int) -> Fraction:
    return Fraction((k - l) * (l - m) * (m - k), 2)


def _unit_rules():
    """e_k e_l = -delta_kl + eps_klm e_m, indices restricted to 1..3.

    The identity-index instance would force the unit to square to its
    negative, so e0 is identified with 1 and never enters a rule.
    """
    entries = []
    for k in (1, 2, 3):
        for l in (1, 2, 3):
            rhs = {(): -1} if k == l else {}
            for m in (1, 2, 3):
                rhs[(f"e{m}",)] = _epsilon(k, l, m)
            entries.append(((f"e{k}", f"e{l}"), NCPoly(rhs)))
    return entries


# -- differential algebra ----------------------------------------------

def _pm_basis(p0: NCPoly, p1: NCPoly):
    """The +/- combinations p0 + i p1 and p0 - i p1."""
    return p0 + I * p1, p0 - I * p1


def _halved(row_plus: NCPoly, row_minus: NCPoly):
    """Recover the 0/1 components from +/- basis rows."""
    half = rat(1, 2)
    comp0 = (row_plus + row_minus) * half
    comp1 = (row_plus - row_minus) * (rat(-1, 2) * I)
    return comp0, comp1


def _a_da_rules(literal: bool):
    """Commutation of coordinates past coordinate differentials.

    The rows coupling a0/a1 to da0/da1 are shipped in a +/- basis
    (d(a0) +/- i d(a1) against a0 +/- i a1) and converted here by exact
    linear combination.  In the second minus-row the transcribed text
    repeats its leading target letter; the combination below reads the
    repeat as a0, the only reading the Leibniz oracle accepts.
    """
    a0, a1, a2, a3 = (L(g) for g in A)
    da0, da1, da2, da3 = (L(g) for g in DA)
    dxp, dxm = _pm_basis(da0, da1)
    xp, xm = _pm_basis(a0, a1)
    q2p1 = (qp(2) + 1) * rat(1, 2)
    q2m1 = (qp(2) - 1) * rat(1, 2)
    ss4 = (qp(1) - qp(-1)) * (qp(1) - qp(-1))  # (q - q^-1)^2
    two_s = qp(1) - qp(-1)                      # q - q^-1

    row_a0_p = q2p1 * (dxp * a0) + I * q2m1 * (dxp * a1)
    row_a1_p = q2p1 * (dxp * a1) - I * q2m1 * (dxp * a0)
    row_a0_m = (q2p1 * (dxm * a0) - I * q2m1 * (dxm * a1)
                + ss4 * rat(1, 2) * (dxp * xm)
                - two_s * (da2 * a2 + da3 * a3))
    row_a1_m = (q2p1 * (dxm * a1) + I * q2m1 * (dxm * a0)
                - I * ss4 * rat(1, 2) * (dxp * xm)
                + I * two_s * (da2 * a2 + da3 * a3))

    a0_da0, a0_da1 = _halved(row_a0_p, row_a0_m)
    a1_da0, a1_da1 = _halved(row_a1_p, row_a1_m)

    q1 = qp(1)
    rules = [
        (("a0", "da0"), a0_da0),
        (("a0", "da1"), a0_da1),
        (("a1", "da0"), a1_da0),
        (("a1", "da1"), a1_da1),
        (("a0", "da2"), q1 * (da2 * a0) + q2m1 * ((da0 + I * da1) * a2)),
        (("a0", "da3"), q1 * (da3 * a0) + q2m1 * ((da0 + I * da1) * a3)),
        (("a1", "da2"), q1 * (da2 * a1) - I * q2m1 * ((da0 + I * da1) * a2)),
        (("a1", "da3"), q1 * (da3 * a1) - I * q2m1 * ((da0 + I * da1) * a3)),
        (("a2", "da0"), q1 * (da0 * a2) + q2m1 * (da2 * (a0 - I * a1))),
        (("a2", "da2"), q2p1 * (da2 * a2) - q2m1 * (da3 * a3)
                        - S * (dxp * xm)),
        (("a2", "da3"), q2p1 * (da3 * a2) + q2m1 * (da2 * a3)),
        (("a3", "da0"), q1 * (da0 * a3) + q2m1 * (da3 * (a0 - I * a1))),
        (("a3", "da2"), q2p1 * (da2 * a3) + q2m1 * (da3 * a2)),
        (("a3", "da3"), q2p1 * (da3 * a3) - q2m1 * (da2 * a2)
                        - S * (dxp * xm)),
    ]
    if literal:
        # As printed: lead word da1 a0 in the a2 row, and -i on both
        # second terms.  The closure oracle rejects both readings: the
        # a2 lead must be da1 a2 (mirroring the a3 row) and the sign must
        # be +i, otherwise d applied to the row itself and to the
        # coordinate relations touching it leaves (1 - q^2)-residuals.
        rules.append((("a2", "da1"),
                      q1 * (da1 * a0) - I * q2m1 * (da2 * (a0 - I * a1))))
        rules.append((("a3", "da1"),
                      q1 * (da1 * a3) - I * q2m1 * (da3 * (a0 - I * a1))))
    else:
        rules.append((("a2", "da1"),
                      q1 * (da1 * a2) + I * q2m1 * (da2 * (a0 - I * a1))))
        rules.append((("a3", "da1"),
                      q1 * (da1 * a3) + I * q2m1 * (da3 * (a0 - I * a1))))
    return rules


def _da_da_rules(literal: bool):
    """Quadratic relations among the coordinate differentials."""
    da0, da1, da2, da3 = (L(g) for g in DA)
    zero = NCPoly.zero()
    two_s = qp(1) - qp(-1)
    rules = [
        (("da0", "da0"), zero),
        (("da1", "da1"), zero),
        (("da0", "da1"), -(da1 * da0)),
        (("da0", "da2"), -C * (da2 * da0) + I * S * (da2 * da1)),
        (("da1", "da2"), -C * (da2 * da1) - I * S * (da2 * da0)),
        (("da2", "da3"), -(da3 * da2)),
    ]
    if literal:
        # As printed: the da3 rows repeat their first target word, and
        # the squares carry i(q - q^-1).  The oracle swaps the repeated
        # letters (mirroring the da2 rows) and halves the squares: d of
        # the converted coordinate/differential rows closes only with
        # da2^2 + da3^2 = i(q - q^-1) da1 da0 in total, the value the
        # odd-generator table states per square.
        rules.append((("da0", "da3"), -C * (da3 * da0) + I * S * (da3 * da0)))
        rules.append((("da1", "da3"), -C * (da3 * da1) - I * S * (da3 * da1)))
        rules.append((("da2", "da2"), I * two_s * (da1 * da0)))
        rules.append((("da3", "da3"), I * two_s * (da1 * da0)))
    else:
        rules.append((("da0", "da3"), -C * (da3 * da0) + I * S * (da3 * da1)))
        rules.append((("da1", "da3"), -C * (da3 * da1) - I * S * (da3 * da0)))
        rules.append((("da2", "da2"), I * S * (da1 * da0)))
        rules.append((("da3", "da3"), I * S * (da1 * da0)))
    return rules


def build_dga(literal: bool = False) -> Presentation:
    """First-order differential algebra on the q-quaternion coordinates."""
    entries = _a_sector_rules() + _a_da_rules(literal) + _da_da_rules(literal)
    return Presentation(
        "dga_literal" if literal else "dga",
        _gens((["da3", "da2", "da1", "da0"], 1), (["a3", "a2", "a1", "a0"], 0)),
        _rules(entries),
        "coordinates and their differentials"
        + (", uncorrected coefficient table" if literal else ""),
    )


# -- one-form algebra --------------------------------------------------

def _a_w_rules():
    """Commutation of coordinates past the left-invariant one-forms.

    The w0/w1 columns are shipped in a +/- basis (w0 +/- i w1) and
    converted by exact linear combination, like the differentials.
    """
    a0, a1, a2, a3 = (L(g) for g in A)
    w0, w1, w2, w3 = (L(g) for g in W)
    wp, wm = _pm_basis(w0, w1)
    q2p1 = (qp(2) + 1) * rat(1, 2)
    q2m1 = (qp(2) - 1) * rat(1, 2)
    ss4 = (qp(1) - qp(-1)) * (qp(1) - qp(-1))
    one_m_q2 = ONE - qp(2)
    q1 = qp(1)

    plus_rows = {
        "a0": q2p1 * (wp * a0) + I * q2m1 * (wp * a1),
        "a1": q2p1 * (wp * a1) - I * q2m1 * (wp * a0),
        "a2": q2p1 * (wp * a2) + I * q2m1 * (wp * a3),
        "a3": q2p1 * (wp * a3) - I * q2m1 * (wp * a2),
    }
    minus_rows = {
        "a0": (q2p1 * (wm * a0) - I * q2m1 * (wm * a1)
               + ss4 * rat(1, 2) * (wp * (a0 + I * a1))
               + one_m_q2 * (w2 * a2 + w3 * a3)),
        "a1": (q2p1 * (wm * a1) + I * q2m1 * (wm * a0)
               - I * ss4 * rat(1, 2) * (wp * (a0 + I * a1))
               - one_m_q2 * (w2 * a3 - w3 * a2)),
        "a2": (q2p1 * (wm * a2) - I * q2m1 * (wm * a3)
               + ss4 * rat(1, 2) * (wp * (a2 + I * a3))
               + (qp(2) - ONE) * (w2 * a0 + w3 * a1)),
        "a3": (q2p1 * (wm * a3) + I * q2m1 * (wm * a2)
               - I * ss4 * rat(1, 2) * (wp * (a2 + I * a3))
               + one_m_q2 * (w2 * a1 - w3 * a0)),
    }
    w2_rows = {
        "a0": q1 * (w2 * a0) + S * (wp * a2),
        "a2": q1 * (w2 * a2) - S * (wp * a0),
        "a1": q1 * (w2 * a1) - S * (wp * a3),
        "a3": q1 * (w2 * a3) + S * (wp * a1),
    }
    w3_rows = {
        "a0": q1 * (w3 * a0) + S * (wp * a3),
        "a2": q1 * (w3 * a2) - S * (wp * a1),
        "a1": q1 * (w3 * a1) + S * (wp * a2),
        "a3": q1 * (w3 * a3) - S * (wp * a0),
    }

    rules = []
    for gid in A:
        r0, r1 = _halved(plus_rows[gid], minus_rows[gid])
        rules.append(((gid, "w0"), r0))
        rules.append(((gid, "w1"), r1))
        rules.append(((gid, "w2"), w2_rows[gid]))
        rules.append(((gid, "w3"), w3_rows[gid]))
    return rules


def _w_w_rules():
    """Quadratic relations among the left-invariant one-forms."""
    w0, w1, w2, w3 = (L(g) for g in W)
    zero = NCPoly.zero()
    sq = (qp(1) - qp(-1)) * (qp(1) - qp(-1))   # (q - q^-1)^2
    d22 = (qp(2) - qp(-2)) * rat(1, 2)          # (q^2 - q^-2)/2
    c22 = (qp(2) + qp(-2)) * rat(1, 2)          # (q^2 + q^-2)/2
    return [
        (("w0", "w0"), I * sq * rat(1, 2) * (w3 * w2)),
        (("w1", "w1"), I * d22 * (w3 * w2)),
        (("w0", "w1"), -(w1 * w0) + (qp(-2) - ONE) * (w2 * w3)),
        (("w0", "w2"), -(w2 * w0) - d22 * (w3 * w1) + I * sq * rat(1, 2) * (w2 * w1)),
        (("w0", "w3"), -(w3 * w0) + d22 * (w2 * w1) + I * sq * rat(1, 2) * (w3 * w1)),
        (("w1", "w2"), -c22 * (w2 * w1) - I * d22 * (w3 * w1)),
        (("w1", "w3"), -c22 * (w3 * w1) + I * d22 * (w2 * w1)),
        (("w2", "w3"), -(w3 * w2)),
        (("w2", "w2"), zero),
        (("w3", "w3"), zero),
    ]


def build_cartan_maurer() -> Presentation:
    """Coordinates and the left-invariant one-forms w0..w3."""
    entries = _a_sector_rules() + _a_w_rules() + _w_w_rules()
    return Presentation(
        "cartan_maurer",
        _gens((["w3", "w2", "w1", "w0"], 1), (["a3", "a2", "a1", "a0"], 0)),
        _rules(entries),
        "coordinates and left-invariant one-forms",
    )


# -- Grassmann envelope -------------------------------------------------

def build_grassmann() -> Presentation:
    """Deformed Grassmann algebra on four odd generators."""
    p0, p1, p2, p3 = (L(g) for g in PSI)
    zero = NCPoly.zero()
    entries = [
        (("psi0", "psi0"), zero),
        (("psi1", "psi1"), zero),
        (("psi0", "psi1"), -(p1 * p0)),
        (("psi0", "psi2"), -C * (p2 * p0) + I * S * (p2 * p1)),
        (("psi0", "psi3"), -C * (p3 * p0) + I * S * (p3 * p1)),
        (("psi1", "psi2"), -C * (p2 * p1) - I * S * (p2 * p0)),
        (("psi1", "psi3"), -C * (p3 * p1) - I * S * (p3 * p0)),
        (("psi2", "psi3"), -(p3 * p2)),
        (("psi2", "psi2"), I * S * (p1 * p0)),
        (("psi3", "psi3"), I * S * (p1 * p0)),
    ]
    return Presentation(
        "grassmann",
        _gens((["psi3", "psi2", "psi1", "psi0"], 1)),
        _rules(entries),
        "q-deformed Grassmann algebra on four odd generators",
    )


# -- combined universes -------------------------------------------------

def _with_units(base_name: str, name: str, description: str) -> Presentation:
    """Adjoin the central quaternion units to a catalog presentation.

    The units rank after the graded generators and before the grade-0 ones.
    """
    base = get_presentation(base_name)
    ranked = sorted(base.generators, key=lambda g: g.rank)
    groups = ([([g.id], g.grade) for g in ranked if g.grade]
              + [(E[::-1], 0)]
              + [([g.id], g.grade) for g in ranked if not g.grade])
    rules = {**base.rules, **_rules(_unit_rules())}
    for g in ranked:
        for e in E:
            if g.grade == 0:
                rules[(g.id, e)] = L(e) * L(g.id)
            else:
                rules[(e, g.id)] = L(g.id) * L(e)
    return Presentation(name, _gens(*groups), rules, description)


# -- localization -------------------------------------------------------

def build_hq_localized() -> Presentation:
    """Coordinate algebra with a central inverse-norm generator adjoined."""
    gens = _gens((["a3", "a2", "a1", "a0"], 0), ([N_INV], 0))
    rules = _rules(_a_sector_rules())
    for gid in A:
        rules[(N_INV, gid)] = L(gid) * L(N_INV)
    return Presentation(
        "hq_localized", gens, rules,
        "coordinate algebra with central inverse norm",
    )


# -- specialization ------------------------------------------------------

def specialize(pres: Presentation, q0) -> Presentation:
    """Evaluate every rule coefficient at a nonzero rational q value.

    The result's q is q0, at which its normal_form evaluates each input;
    a presentation already specialized at q0 is its own specialization,
    and one specialized at another value is refused.  The classical
    limit, q0 = 1, is named classical-<name>; any other is <name>@q=<q0>.
    """
    q0 = Fraction(q0)
    if pres.q == q0:
        return pres
    if pres.q is not None:
        raise PresentationError(
            f"{pres.name} is already specialized at q = {pres.q}")
    rules = {lhs: rhs.eval_at(q0) for lhs, rhs in pres.rules.items()}
    out = Presentation(
        f"classical-{pres.name}" if q0 == 1 else f"{pres.name}@q={q0}",
        pres.generators,
        rules,
        f"{pres.description} (q = {q0})",
    )
    out.q = q0
    return out


# -- catalog --------------------------------------------------------------

_CATALOG_BUILDERS = {
    "hq": build_hq,
    "units": lambda: _with_units(
        "hq", "units", "q-quaternion coordinates with central quaternion units"),
    "dga": build_dga,
    "dga_literal": lambda: build_dga(literal=True),
    "cartan_maurer": build_cartan_maurer,
    "grassmann": build_grassmann,
    "hq_localized": build_hq_localized,
    "units_dga": lambda: _with_units(
        "dga", "units_dga", "differential algebra with central quaternion units"),
    "units_cm": lambda: _with_units(
        "cartan_maurer", "units_cm", "one-form algebra with central quaternion units"),
}

_SHIPPED = ["hq", "units", "dga", "cartan_maurer", "grassmann"]

_ALIASES = {"cm": "cartan_maurer", "classical-cm": "classical-cartan_maurer"}

_cache: dict = {}


def get_presentation(name: str) -> Presentation:
    """Catalog lookup; classical-<name> yields the q=1 specialization."""
    name = _ALIASES.get(name, name)
    if name in _cache:
        return _cache[name]
    if name.startswith("classical-"):
        base = get_presentation(name[len("classical-"):])
        pres = specialize(base, 1)
    elif name in _CATALOG_BUILDERS:
        pres = _CATALOG_BUILDERS[name]()
    else:
        known = sorted(_CATALOG_BUILDERS) + [f"classical-{n}" for n in _SHIPPED]
        raise PresentationError(
            f"unknown presentation {name!r}; known: {', '.join(known)}")
    _cache[name] = pres
    return pres


def shipped_names() -> list:
    return [*_SHIPPED, *(f"classical-{n}" for n in _SHIPPED), "dga_literal"]


# -- oracles ---------------------------------------------------------------

# grade-0 letters that d treats as constants
CONSTANT_LETTERS = frozenset(E) | {N_INV}


def leibniz_expansion(p: NCPoly, pres: Presentation, images=None) -> NCPoly:
    """Graded Leibniz expansion of d, without the final reduction.

    images maps a letter to d of it, an NCPoly whose terms replace the
    letter in place, signed (-1)^k by the grade k of the letters before
    it; a letter without an image is annihilated.  By default each
    grade-0 coordinate letter of p maps to its differential letter,
    which pres must have, so constant letters and grade-1 letters are
    annihilated.
    """
    if images is None:
        images = {}
        for letter in dict.fromkeys(x for w in p.terms for x in w):
            if pres.grade(letter) == 0 and letter not in CONSTANT_LETTERS:
                pres.generator("d" + letter)  # the universe must have it
                images[letter] = NCPoly.letter("d" + letter)
    out = {}
    for w, c in p.terms.items():
        prefix_grade = 0
        for j, letter in enumerate(w):
            image = images.get(letter)
            if image is not None:
                head, tail = w[:j], w[j + 1:]
                add_scaled(out, image.terms, -c if prefix_grade % 2 else c,
                           lambda dw: head + dw + tail)
            prefix_grade += pres.grade(letter)
    return NCPoly._of(settle(out), p.universe)


def leibniz_consistency_check(dga: Presentation):
    """Apply d to every quadratic relation and reduce; residuals must vanish.

    Returns a list of dicts: one per coordinate relation and one per
    coordinate/differential commutation row, each holding the residual
    and the lhs pairs of the rules fired while reducing it (rules_used).
    """
    results = []
    for lhs, relation in dga.relations():
        g0, g1 = lhs
        if dga.grade(g0) != 0:
            continue  # differential-only rows are the oracle's output side
        used = set()
        residual = dga.normal_form(leibniz_expansion(relation, dga), trace=used)
        results.append({
            "lhs": lhs,
            "kind": "coordinate" if dga.grade(g1) == 0 else "mixed",
            "residual": residual,
            "rules_used": used,
        })
    return results


def corrected_rule_diff():
    """Rule lhs pairs where the corrected table departs from the printed one."""
    lit, cor = get_presentation("dga_literal").rules, get_presentation("dga").rules
    return tuple(lhs for lhs in sorted(lit.keys() | cor.keys())
                 if lit.get(lhs) != cor.get(lhs))


def grassmann_vs_differentials_crosscheck():
    """Compare the odd-generator relations with the differential relations.

    The comparison target keeps the printed square coefficient (the point
    in dispute) while reading the two da3-row letters as the closure
    oracle adjudicates, so letter-level typos do not mask the coefficient
    question.  The ten records cover the eight mixed-index and zero-square
    rows, the equality of the two squares with each other, and the shared
    square coefficient.  Returns a list of dicts with a "match" flag.
    """
    printed = get_presentation("dga_literal")
    corrected = get_presentation("dga")
    gr = get_presentation("grassmann")
    rename = {f"psi{k}": f"da{k}" for k in range(4)}
    images = {k: L(v) for k, v in rename.items()}
    records = []
    pairs = [
        ("psi0", "psi0"), ("psi1", "psi1"), ("psi0", "psi1"),
        ("psi0", "psi2"), ("psi0", "psi3"), ("psi1", "psi2"),
        ("psi1", "psi3"), ("psi2", "psi3"),
    ]
    for lhs in pairs:
        image_lhs = tuple(rename[g] for g in lhs)
        translated = substitute(gr.rules[lhs], images)
        diff = translated - corrected.rules[image_lhs]
        records.append({
            "id": f"row.{lhs[0]}.{lhs[1]}",
            "match": not diff.terms,
            "detail": "translated relation agrees" if not diff.terms
            else "translated relation disagrees",
            "residual": diff,
        })
    sq_gr = gr.rules[("psi2", "psi2")] - gr.rules[("psi3", "psi3")]
    sq_da = printed.rules[("da2", "da2")] - printed.rules[("da3", "da3")]
    records.append({
        "id": "squares.internal-equality",
        "match": (not sq_gr.terms) and (not sq_da.terms),
        "detail": "both tables equate the squares of their last two generators",
        "residual": substitute(sq_gr, images) + sq_da,
    })
    # an absent square coefficient is zero
    zero = LaurentScalar.zero()
    gr_coeff = gr.rules[("psi2", "psi2")].terms.get(("psi1", "psi0"), zero)
    da_coeff = printed.rules[("da2", "da2")].terms.get(("da1", "da0"), zero)
    ratio = da_coeff.divide_exact(gr_coeff) if gr_coeff else None
    records.append({
        "id": "squares.common-coefficient",
        "match": gr_coeff == da_coeff,
        "detail": (
            "square coefficients agree" if gr_coeff == da_coeff else
            "stated differential square coefficient is "
            f"{'?' if ratio is None else ratio.render()} times the odd-generator "
            "value; the closure oracle sides with the odd-generator value"
        ),
        "residual": NCPoly({("da1", "da0"): da_coeff - gr_coeff}),
    })
    return records
