"""Differential structure on the deformed quaternion algebras.

Provides the graded exterior differential, the star antiinvolution with
its one letter-image table, conversion between coordinate
differentials and the invariant one-form frame, the two-form table, and
vector-field extraction with Lie-algebra verification.

Letter images are applied only by algebra.substitute (for star, over
reversed words with conjugated coefficients).  differential and star
reduce in the presentation they are given.
"""

import operator
from functools import partial

from .algebra import (
    NCPoly,
    Presentation,
    PresentationError,
    substitute,
)
from .presentations import (
    A,
    C,
    DA,
    E,
    I,
    L,
    N_INV,
    ONE,
    S,
    W,
    get_presentation,
    leibniz_expansion,
    norm_poly,
    qp,
    rat,
    specialize,
)
from .scalar import add_scaled, settle

__all__ = [
    "apply_field",
    "cartan_maurer_d",
    "conversion_closure_residuals",
    "coordinate_frame_coefficients",
    "da_from_w",
    "differential",
    "extract_vector_fields",
    "nilpotency_residuals",
    "omega_forms",
    "one_form_consistency_residuals",
    "recover_differentials_on_unit_sphere",
    "star",
    "star_involution_residuals",
    "star_table",
    "unit_norm_extension",
    "verify_d_star",
    "verify_lie_algebra",
    "verify_omega_bar_identity",
    "OMEGA_BAR_CANDIDATES",
]

# -- graded exterior differential ---------------------------------------


def differential(p: NCPoly, pres: Presentation) -> NCPoly:
    """Graded Leibniz differential, normal-formed in pres.

    Grade-0 coordinate letters map to their differential letter, unit
    letters are constants, grade-1 letters are annihilated.
    """
    return pres.normal_form(leibniz_expansion(p, pres))


def nilpotency_residuals():
    """d(d(a_k a_l)) in dga for all 16 coordinate pairs; zero when consistent."""
    pres = get_presentation("dga")
    out = []
    for x in A:
        for y in A:
            f = NCPoly.word((x, y), universe=pres.name)
            out.append(((x, y), differential(differential(f, pres), pres)))
    return out


# -- star antiinvolution -------------------------------------------------


def _star_images() -> dict:
    """The published star image of every letter that has one."""
    a0, a1, a2, a3 = (L(g) for g in A)
    da0, da1, da2, da3 = (L(g) for g in DA)
    w0, w1, w2, w3 = (L(g) for g in W)
    return {
        "a0": a0,
        "a1": a1,
        "a2": C * a2 - I * S * a3,
        "a3": I * S * a2 + C * a3,
        "da0": qp(2) * da0,
        "da1": qp(2) * da1,
        "da2": qp(2) * (C * da2 - I * S * da3),
        "da3": qp(2) * (I * S * da2 + C * da3),
        "w0": qp(-2) * w0 + I * (qp(-2) - ONE) * w1,
        "w1": w1,
        "w2": w2,
        "w3": w3,
        **{gid: -L(gid) for gid in E},
        N_INV: L(N_INV),
    }


# built once; no code changes an NCPoly after building it
_STAR_IMAGES = _star_images()


def star_table(name: str) -> dict:
    """Letter-to-image map of the star antiinvolution for a universe.

    Read off the presentation's generators, each of which needs an
    image; a specialized presentation's table is taken at its q.
    """
    pres = get_presentation(name)
    if any(g.id not in _STAR_IMAGES for g in pres.generators):
        raise PresentationError(f"no star structure defined for universe {name!r}")
    table = {g.id: _STAR_IMAGES[g.id] for g in pres.generators}
    if pres.q is not None:
        table = {k: v.eval_at(pres.q) for k, v in table.items()}
    return table


def star(p: NCPoly, table: dict, pres: Presentation) -> NCPoly:
    """Antiinvolution: reverse words, conjugate coefficients, map letters.

    Reduced in pres.  Every letter of p needs a table entry; the first
    missing one in sorted order is named in the error.
    """
    missing = sorted({gid for w in p.terms for gid in w} - table.keys())
    if missing:
        raise PresentationError(f"star table has no entry for {missing[0]!r}")
    flipped = NCPoly._of({w[::-1]: c.conj() for w, c in p.terms.items()})
    return substitute(flipped, table, pres)


def star_involution_residuals(name: str):
    """star(star(g)) - g per generator; nonzero entries are findings."""
    pres = get_presentation(name)
    table = star_table(name)
    out = []
    for gid in sorted(table):
        g = NCPoly.letter(gid, pres.name)
        out.append((gid, star(star(g, table, pres), table, pres) - g))
    return out


# -- invariant one-form frame --------------------------------------------


def omega_forms() -> dict:
    """The four frame one-forms as coordinate-differential expressions."""
    dga = get_presentation("dga")
    u = dga.name
    a = [NCPoly.letter(g, u) for g in A]
    da = [NCPoly.letter(g, u) for g in DA]
    forms = {
        "w0": da[0] * a[0] + da[1] * a[1] + C * (da[2] * a[2] + da[3] * a[3])
        + I * S * (da[3] * a[2] - da[2] * a[3]),
        "w1": -(da[0] * a[1]) + da[1] * a[0] - C * (da[2] * a[3] - da[3] * a[2])
        - I * S * (da[2] * a[2] + da[3] * a[3]),
        "w2": da[2] * a[0] - da[3] * a[1] + C * (da[1] * a[3] - da[0] * a[2])
        + I * S * (da[0] * a[3] + da[1] * a[2]),
        "w3": da[2] * a[1] + da[3] * a[0] - C * (da[0] * a[3] + da[1] * a[2])
        + I * S * (da[1] * a[3] - da[0] * a[2]),
    }
    return {k: dga.normal_form(v) for k, v in forms.items()}


_DA_ROWS = {
    "a0": [("w0", "a0", 1), ("w1", "a1", -1), ("w2", "a2", -1), ("w3", "a3", -1)],
    "a1": [("w0", "a1", 1), ("w1", "a0", 1), ("w2", "a3", 1), ("w3", "a2", -1)],
    "a2": [("w0", "a2", 1), ("w1", "a3", -1), ("w2", "a0", 1), ("w3", "a1", 1)],
    "a3": [("w0", "a3", 1), ("w1", "a2", 1), ("w2", "a1", -1), ("w3", "a0", 1)],
}


def da_from_w() -> dict:
    """Coordinate differentials expanded in the one-form frame."""
    cm = get_presentation("cartan_maurer")
    out = {}
    for aid, row in _DA_ROWS.items():
        out[aid] = NCPoly({(wid, bid): sgn for wid, bid, sgn in row}, cm.name)
    return out


def cartan_maurer_d(k: int, literal: bool = False) -> NCPoly:
    """Exterior derivative of frame form k as a two-form.

    The published first row reads its quadratic term in the opposite
    letter order; the default swaps it back, which is the unique
    single-row repair making every conversion-row closure vanish.
    Pass literal=True for the row exactly as printed.
    """
    cm = get_presentation("cartan_maurer")
    u = cm.name
    w0, w1, w2, w3 = (NCPoly.letter(g, u) for g in W)
    lead = w2 * w3 if literal else w3 * w2
    rows = [
        I * (qp(-2) - ONE) * lead,
        (qp(-2) + ONE) * (w2 * w3),
        I * (qp(-2) - ONE) * (w2 * w1) + (qp(-2) + ONE) * (w3 * w1),
        I * (qp(-2) - ONE) * (w3 * w1) - (qp(-2) + ONE) * (w2 * w1),
    ]
    return cm.normal_form(rows[k])


def conversion_closure_residuals(literal: bool = False):
    """Apply d to each frame expansion of da_k; residuals must vanish.

    The graded Leibniz expansion takes d(w_j) from the two-form table
    and d(a_l) from the frame expansion again.
    """
    cm = get_presentation("cartan_maurer")
    rows = da_from_w()
    images = {**rows, **{f"w{j}": cartan_maurer_d(j, literal=literal) for j in range(4)}}
    return [(aid, cm.normal_form(leibniz_expansion(rows[aid], cm, images)))
            for aid in A]


def one_form_consistency_residuals():
    """Reduce every frame-universe relation through the frame definitions.

    Each relation lhs - rhs, with w letters replaced by their
    coordinate-differential expansions, must reduce to zero in the
    differential algebra.
    """
    cm = get_presentation("cartan_maurer")
    dga = get_presentation("dga")
    images = omega_forms()
    return [(lhs, substitute(rel, images, dga)) for lhs, rel in cm.relations()]


def verify_d_star(k: int) -> NCPoly:
    """Residual of star(da_k) - q^2 d(star(a_k)) in the frame algebra."""
    cm = get_presentation("cartan_maurer")
    table = star_table(cm.name)
    rows = da_from_w()
    aid = f"a{k}"
    return star(rows[aid], table, cm) - qp(2) * substitute(table[aid], rows, cm)


# -- the boundary one-form identity --------------------------------------

OMEGA_BAR_CANDIDATES = ("star-of-omega", "h-dhstar")


def unit_norm_extension(name: str = "units_dga",
                        with_norm_differential: bool = True) -> Presentation:
    """Universe with the unit-norm constraint and its differential adjoined.

    Adds a rewrite eliminating the repeated leading coordinate via the
    norm, and, when differentials are present and requested, one
    eliminating a chosen differential-coordinate word via the vanishing
    norm differential.  The second rewrite can intercept words the first
    would assemble, so checks needing only the norm itself should turn
    it off; the universe without it is then named apart, with a _no_dN
    suffix, so the normal forms of the two do not mix.
    """
    base = get_presentation(name)
    rules = dict(base.rules)
    a = [NCPoly.letter(g) for g in A]
    sphere = NCPoly.scalar(ONE) - a[1] * a[1] - C * (a[2] * a[2] + a[3] * a[3])
    rules[("a0", "a0")] = sphere
    name = base.name + "+unit_norm"
    has_da = all(any(g.id == d for g in base.generators) for d in DA)
    if has_da and not with_norm_differential:
        name += "_no_dN"
    elif has_da:
        dn = differential(norm_poly(), base)
        pivot = ("da2", "a2")
        c = dn.terms.get(pivot)
        quotients = {w: coeff.divide_exact(c) if c else None
                     for w, coeff in dn.terms.items() if w != pivot}
        if None in quotients.values() or not c:
            raise PresentationError(
                f"{base.name}: dN = 0 gives no rule for the pivot da2*a2: its "
                f"coefficient in dN, {c or 0}, does not divide every other one")
        rules[pivot] = NCPoly({w: -quo for w, quo in quotients.items()})
    return Presentation(
        name,
        list(base.generators),
        rules,
        "unit-norm quotient of " + base.name,
    )


def verify_omega_bar_identity(candidate: str) -> NCPoly:
    """Residual of the boundary identity under one reading of the bar form.

    star-of-omega: the frame-level star of the boundary form, using the
    unit and one-form star tables.  h-dhstar: the coordinate-level
    reading with the bar form taken as h d(h*), reduced with the
    unit-norm constraint adjoined.  Residuals are reported, not
    presumed zero.
    """
    if candidate == "star-of-omega":
        ucm = get_presentation("units_cm")
        u = ucm.name
        w = {k: NCPoly.letter(k, u) for k in W}
        e = {0: NCPoly.scalar(ONE, u)}
        for j in (1, 2, 3):
            e[j] = NCPoly.letter(f"e{j}", u)
        omega = sum((w[f"w{j}"] * e[j] for j in range(4)), NCPoly.zero(u))
        table = star_table(u)
        bar = star(omega, table, ucm)
        rhs = (ONE - qp(-2)) * (w["w0"] + I * w["w1"])
        return ucm.normal_form(omega + bar - rhs)
    if candidate == "h-dhstar":
        # omega = dh h* and the bar form h d(h*) sum to d(h h*) term by
        # term before any reduction: each d(a*_l) is a sum of single
        # letters, which no rule rewrites
        ext = unit_norm_extension("units_dga")
        u = ext.name
        e = [NCPoly.scalar(ONE, u)] + [NCPoly.letter(g, u) for g in E]
        h = sum((NCPoly.letter(g, u) * e[k] for k, g in enumerate(A)), NCPoly.zero(u))
        hstar = sum((rat(1 if k == 0 else -1) * e[k] * _STAR_IMAGES[g]
                    for k, g in enumerate(A)), NCPoly.zero(u))
        forms = omega_forms()
        wexp = {k: NCPoly(dict(v.terms), u) for k, v in forms.items()}
        rhs = (ONE - qp(-2)) * (wexp["w0"] + I * wexp["w1"])
        return ext.normal_form(leibniz_expansion(h * hstar, ext) - rhs)
    raise ValueError(f"unknown candidate {candidate!r}; expected one of {OMEGA_BAR_CANDIDATES}")


def recover_differentials_on_unit_sphere() -> list:
    """At q=1, frame expansion composed with frame definitions returns da_k.

    Substitutes the one-form definitions into each frame expansion of
    da_k and reduces with the unit-norm constraint; exactness of the
    round trip is a classical-limit consistency statement.
    """
    ext = unit_norm_extension("dga", with_norm_differential=False)
    at_one = specialize(ext, 1, name="classical-" + ext.name)
    u = at_one.name
    forms = omega_forms()
    images = {k: NCPoly(dict(v.terms), u) for k, v in forms.items()}
    return [(aid, substitute(row, images, at_one) - NCPoly.letter("d" + aid, u))
            for aid, row in da_from_w().items()]


# -- vector fields --------------------------------------------------------

def apply_field(table: dict, p: NCPoly) -> NCPoly:
    """A tabulated vector field ({word: image}) applied to p.

    Raises KeyError on a word of p the table does not hold.
    """
    out = {}
    for w, c in p.terms.items():
        add_scaled(out, table[w].terms, c)
    return NCPoly._of(settle(out))


def coordinate_frame_coefficients(f: NCPoly, classical: bool = False) -> dict:
    """Write df as sum of w_k times a coordinate polynomial; return the four parts."""
    prefix = "classical-" if classical else ""
    dga = get_presentation(prefix + "dga")
    cm = get_presentation(prefix + "cartan_maurer")
    rows = da_from_w()
    images = {
        "d" + aid: NCPoly(dict(row.terms), cm.name) for aid, row in rows.items()
    }
    df = differential(NCPoly(dict(f.terms), dga.name), dga)
    converted = substitute(df, images, cm)
    parts = {k: NCPoly.zero() for k in W}
    for w, c in converted.terms.items():
        head, tail = w[0], w[1:]
        if head not in parts or any(t in parts for t in tail):
            raise PresentationError(f"conversion left a non-frame word {w}")
        parts[head] = parts[head] + NCPoly.word(tail, c)
    return parts


def _monomial_basis(cap: int):
    """Normal-form coordinate words up to the degree cap, ordered by rank."""
    letters = ["a3", "a2", "a1", "a0"]
    words = [()]
    for _ in range(cap):
        fresh = []
        for w in words:
            start = letters.index(w[-1]) if w else 0
            for gid in letters[start:]:
                fresh.append(w + (gid,))
        words = fresh
        yield from fresh


def _frame_parts(cap: int, classical: bool = False) -> dict:
    """The frame parts of df, df = sum_k w_k*f_k, built one letter at a time.

    Returns {word: {w_k: f_k(word)}} for the empty word and every word of
    _monomial_basis(cap).  Write da = sum_m w_m*g_m(a), g_m(a) the signed
    letter of _DA_ROWS, and read a*w_k = sum_m w_m*c_km(a) off the
    cartan_maurer rule for (a, w_k).  Leibniz, d(a*u) = da*u + a*du, gives

        f_m(a*u) = g_m(a)*u + sum_k c_km(a)*f_k(u),

    reduced in the coordinate sector.  The tail u of a normal word is
    normal and shorter, so basis order has tabulated it already.  The
    frame presentation has no failing overlaps, so by Bergman's Diamond
    Lemma every df has one normal form whichever path computes it: each
    entry equals coordinate_frame_coefficients of its word.
    """
    cm = get_presentation(("classical-" if classical else "") + "cartan_maurer")
    table = {(): {k: NCPoly.zero() for k in W}}
    for word in _monomial_basis(cap):
        aid, tail = word[0], word[1:]
        acc = {m: {(bid,) + tail: rat(sgn)} for m, bid, sgn in _DA_ROWS[aid]}
        for k, fk in table[tail].items():
            for (m, bid), c in cm.rules[aid, k].terms.items():
                add_scaled(acc[m], fk.terms, c, partial(operator.add, (bid,)))
        table[word] = {m: cm.normal_form(NCPoly._of(settle(t))) for m, t in acc.items()}
    return table


def extract_vector_fields(cap: int, classical: bool = False):
    """Tabulate the four frame vector fields on all monomials up to cap.

    Returns one {word: image} table per field n0..n3: the frame parts
    read off with alternating signs, under which the classical bracket
    table holds.  The printed normalization is the same fields divided
    by two; verify_lie_algebra applies it as a weight on its rows.
    """
    if cap < 1:
        raise ValueError("cap must be at least 1")
    parts = _frame_parts(cap, classical)
    return tuple({word: s * p[k] for word, p in parts.items()}
                 for k, s in zip(W, (ONE, -ONE, ONE, -ONE)))


def _lie_rows(classical: bool) -> dict:
    """The displayed generator relations as coefficient rows.

    A row maps operator keys to coefficients, over twenty operators:
    (k,) is n_k and (i, j) is n_i∘n_j, that is n_i(n_j(w)).  A relation
    holds on a monomial when its combination vanishes there.  Classical
    rows are keyed by the suffix of their check id, [n1,n2] + 2n3 by
    n1.n2.
    """
    if classical:
        return {
            "n1.n2": {(1, 2): 1, (2, 1): -1, (3,): 2},
            "n2.n3": {(2, 3): 1, (3, 2): -1, (1,): 2},
            "n3.n1": {(3, 1): 1, (1, 3): -1, (2,): 2},
            "n1.n0": {(1, 0): 1, (0, 1): -1},
            "n2.n0": {(2, 0): 1, (0, 2): -1},
            "n3.n0": {(3, 0): 1, (0, 3): -1},
        }
    c22 = (qp(2) + qp(-2)) * rat(1, 2)
    d22 = (qp(2) - qp(-2)) * rat(1, 2)
    h = (qp(1) - qp(-1)) * (qp(1) - qp(-1)) * rat(1, 2)
    lo = qp(-2) + ONE
    li = I * (qp(-2) - ONE)
    return {
        "n0n1-n1n0": {(0, 1): 1, (1, 0): -1},
        "n0n2-n2n0": {(0, 2): 1, (2, 0): -1},
        "n0n3-n3n0": {(0, 3): 1, (3, 0): -1},
        "n1n2-row": {(1, 2): 1, (2, 1): -c22, (3,): lo, (2,): -li,
                     (0, 1): I * h, (3, 0): d22, (3, 1): I * d22},
        "n1n3-row": {(1, 3): 1, (3, 1): -c22, (2,): -lo, (3,): li,
                     (0, 1): I * h, (2, 0): -d22, (2, 1): -I * d22},
        "n3n2-row": {(3, 2): 1, (2, 3): -1, (1,): -lo, (0,): li,
                     (0, 0): -I * d22, (1, 1): -h, (0, 1): qp(-2) - ONE},
    }


# weights of an (n_k, n_i∘n_j) row entry per sign convention: the
# printed fields are the bracket ones halved
_ROW_WEIGHTS = {"bracket": (ONE, ONE), "printed": (rat(1, 2), rat(1, 4))}


def verify_lie_algebra(cap: int, mode: str):
    """Evaluate the displayed generator relations on all monomials up to cap.

    classical mode checks the six bracket identities at q=1; quantum
    mode evaluates the deformed relations (_lie_rows).  Returns
    {convention: records}, one record per relation with any violating
    monomials; empty failure lists mean the relation holds on the
    sampled module.  The fields are tabulated once per call.  On each
    monomial every operator the rows name is evaluated once, and each
    row is summed from those images, weighted by its convention
    (_ROW_WEIGHTS), and reduced in hq.

    The fields are tabulated only up to cap because every frame part
    keeps the length of its word.  In f_m(a*u) = g_m(a)*u +
    sum_k c_km(a)*f_k(u) (see _frame_parts) g_m(a) is one letter and
    each c_km(a) is one coordinate letter, and the frame presentation is
    degree-homogeneous, so by induction on length each n_i maps degree-d
    words to degree-d normal words.  Every composition n_i(n_j(p)) in
    the rows therefore stays inside the table; were it ever to leave it,
    apply_field raises KeyError rather than answer differently.
    """
    if cap < 0:
        raise ValueError(f"verify_lie_algebra cap must be at least 0, got {cap}")
    classical = mode == "classical"
    if mode not in ("classical", "quantum"):
        raise ValueError(f"unknown mode {mode!r}")
    hq = get_presentation(("classical-" if classical else "") + "hq")
    fields = extract_vector_fields(max(cap, 1), classical=classical)
    rows = _lie_rows(classical)
    keys = {key for row in rows.values() for key in row}
    inner = sorted({key[-1] for key in keys})
    pairs = sorted(key for key in keys if len(key) == 2)
    checks = [({"relation": label, "convention": convention, "failures": []},
               {key: weight[len(key) - 1] * c for key, c in row.items()})
              for convention, weight in _ROW_WEIGHTS.items()
              for label, row in rows.items()]
    for w in [()] + list(_monomial_basis(cap)):
        images = {(j,): fields[j][w] for j in inner}
        for i, j in pairs:
            images[(i, j)] = apply_field(fields[i], images[(j,)])
        for record, row in checks:
            acc = {}
            for key, c in row.items():
                add_scaled(acc, images[key].terms, c)
            residual = hq.normal_form(NCPoly._of(settle(acc)))
            if residual:
                record["failures"].append((w, residual))
    return {convention: [record for record, _ in checks
                         if record["convention"] == convention]
            for convention in _ROW_WEIGHTS}
