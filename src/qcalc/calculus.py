"""Differential structure on the deformed quaternion algebras.

Provides the graded exterior differential, the star antiinvolution with
its per-universe letter tables, conversion between coordinate
differentials and the invariant one-form frame, the two-form table, and
vector-field extraction with Lie-algebra verification.
"""

from dataclasses import dataclass, field

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
    ONE,
    S,
    W,
    eval_poly_at,
    get_presentation,
    leibniz_expansion,
    norm_poly,
    qp,
    rat,
)

__all__ = [
    "VectorField",
    "cartan_maurer_d",
    "conversion_closure_residuals",
    "coordinate_frame_coefficients",
    "da_from_w",
    "differential",
    "extract_vector_fields",
    "nilpotency_residuals",
    "norm_differential",
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
    "VECTOR_FIELD_CONVENTIONS",
]

def _presentation_for(p: NCPoly, pres=None) -> Presentation:
    if pres is not None:
        return pres
    if p.universe is None:
        raise PresentationError("polynomial carries no universe tag; pass one explicitly")
    return get_presentation(p.universe)


# -- graded exterior differential ---------------------------------------


def differential(p: NCPoly, pres: Presentation = None) -> NCPoly:
    """Graded Leibniz differential, normal-formed.

    Grade-0 coordinate letters map to their differential letter, unit
    letters are constants, grade-1 letters are annihilated.
    """
    pres = _presentation_for(p, pres)
    return pres.normal_form(leibniz_expansion(p, pres))


def nilpotency_residuals(pres: Presentation = None):
    """d(d(a_k a_l)) for all 16 coordinate pairs; zero when consistent."""
    pres = pres or get_presentation("dga")
    out = []
    for x in A:
        for y in A:
            f = NCPoly.word((x, y), universe=pres.name)
            out.append(((x, y), differential(differential(f, pres), pres)))
    return out


# -- star antiinvolution -------------------------------------------------


def _a_star_images():
    a0, a1, a2, a3 = (L(g) for g in A)
    return {
        "a0": a0,
        "a1": a1,
        "a2": C * a2 - I * S * a3,
        "a3": I * S * a2 + C * a3,
    }


def _da_star_images():
    da0, da1, da2, da3 = (L(g) for g in DA)
    return {
        "da0": qp(2) * da0,
        "da1": qp(2) * da1,
        "da2": qp(2) * (C * da2 - I * S * da3),
        "da3": qp(2) * (I * S * da2 + C * da3),
    }


def _w_star_images():
    w0, w1, w2, w3 = (L(g) for g in W)
    return {
        "w0": qp(-2) * w0 + I * (qp(-2) - ONE) * w1,
        "w1": w1,
        "w2": w2,
        "w3": w3,
    }


def _e_star_images():
    return {gid: -L(gid) for gid in E}


_TABLE_PARTS = {
    "hq": (_a_star_images,),
    "hq_localized": (_a_star_images,),
    "units": (_a_star_images, _e_star_images),
    "dga": (_a_star_images, _da_star_images),
    "cartan_maurer": (_a_star_images, _w_star_images),
    "units_dga": (_a_star_images, _da_star_images, _e_star_images),
    "units_cm": (_a_star_images, _w_star_images, _e_star_images),
}


def star_table(name: str) -> dict:
    """Letter-to-image map of the star antiinvolution for a universe."""
    base = name
    at_one = False
    if base.startswith("classical-"):
        base = base[len("classical-"):]
        at_one = True
    if base == "cm":
        base = "cartan_maurer"
    parts = _TABLE_PARTS.get(base)
    if parts is None:
        raise PresentationError(f"no star structure defined for universe {name!r}")
    table = {}
    for part in parts:
        table.update(part())
    if base == "hq_localized":
        table["n_inv"] = L("n_inv")
    if at_one:
        table = {k: eval_poly_at(v, 1) for k, v in table.items()}
    return table


def star(p: NCPoly, table: dict, pres: Presentation = None) -> NCPoly:
    """Antiinvolution: reverse words, conjugate coefficients, map letters."""
    pres = _presentation_for(p, pres)
    out = NCPoly.zero(p.universe)
    for w, c in p.terms.items():
        img = NCPoly.scalar(c.conj(), p.universe)
        for gid in reversed(w):
            entry = table.get(gid)
            if entry is None:
                raise PresentationError(f"star table has no entry for {gid!r}")
            img = img * entry
        out = out + img
    return pres.normal_form(out)


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
        acc = NCPoly.zero(cm.name)
        for wid, bid, sgn in row:
            acc = acc + rat(sgn) * NCPoly.word((wid, bid), universe=cm.name)
        out[aid] = acc
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

    Uses graded Leibniz, the two-form table for dw, and the frame
    expansion again for the inner da.
    """
    cm = get_presentation("cartan_maurer")
    u = cm.name
    rows = da_from_w()
    dw = {f"w{j}": cartan_maurer_d(j, literal=literal) for j in range(4)}
    out = []
    for aid in A:
        acc = NCPoly.zero(u)
        for wid, bid, sgn in _DA_ROWS[aid]:
            term = dw[wid] * NCPoly.letter(bid, u) - NCPoly.letter(wid, u) * rows[bid]
            acc = acc + rat(sgn) * term
        out.append((aid, cm.normal_form(acc)))
    return out


def one_form_consistency_residuals():
    """Reduce every frame-universe relation through the frame definitions.

    Each relation lhs - rhs, with w letters replaced by their
    coordinate-differential expansions, must reduce to zero in the
    differential algebra.
    """
    cm = get_presentation("cartan_maurer")
    dga = get_presentation("dga")
    images = {k: NCPoly(dict(v.terms), dga.name) for k, v in omega_forms().items()}
    out = []
    for lhs in sorted(cm.rules):
        rel = NCPoly.word(lhs) - cm.rules[lhs]
        residual = dga.normal_form(substitute(rel, images, dga.name))
        out.append((lhs, residual))
    return out


def verify_d_star(k: int) -> NCPoly:
    """Residual of star(da_k) - q^2 d(star(a_k)) in the frame algebra."""
    cm = get_presentation("cartan_maurer")
    table = star_table(cm.name)
    rows = da_from_w()
    aid = f"a{k}"
    lhs = star(rows[aid], table, cm)
    rhs = NCPoly.zero(cm.name)
    for w, c in table[aid].terms.items():
        rhs = rhs + NCPoly.scalar(c, cm.name) * rows[w[0]]
    return cm.normal_form(lhs - qp(2) * cm.normal_form(rhs))


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
    it off.
    """
    base = get_presentation(name)
    rules = dict(base.rules)
    a = [NCPoly.letter(g) for g in A]
    sphere = NCPoly.scalar(ONE) - a[1] * a[1] - C * (a[2] * a[2] + a[3] * a[3])
    rules[("a0", "a0")] = sphere
    has_da = all(any(g.id == d for g in base.generators) for d in DA)
    if has_da and with_norm_differential:
        dn = differential(NCPoly(dict(norm_poly().terms), base.name), base)
        pivot = ("da2", "a2")
        c = dn.terms[pivot]
        rest = dn - NCPoly.word(pivot, c)
        rules[pivot] = NCPoly(
            {w: -(coeff.divide_exact(c)) for w, coeff in rest.terms.items()})
    return Presentation(
        base.name + "+unit_norm",
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
        ext = unit_norm_extension("units_dga")
        u = ext.name
        a = {k: NCPoly.letter(g, u) for k, g in enumerate(A)}
        da = {k: NCPoly.letter(g, u) for k, g in enumerate(DA)}
        e = {0: NCPoly.scalar(ONE, u)}
        for j in (1, 2, 3):
            e[j] = NCPoly.letter(f"e{j}", u)
        astar = {k: NCPoly(dict(v.terms), u) for k, v in enumerate(_a_star_images().values())}
        sign = {k: rat(1 if k == 0 else -1) for k in range(4)}
        omega = NCPoly.zero(u)
        for k in range(4):
            for l in range(4):
                omega = omega + sign[l] * (da[k] * e[k] * e[l] * astar[l])
        dhstar = NCPoly.zero(u)
        for l in range(4):
            dhstar = dhstar + sign[l] * (e[l] * differential(astar[l], ext))
        h = sum((a[k] * e[k] for k in range(4)), NCPoly.zero(u))
        forms = omega_forms()
        wexp = {k: NCPoly(dict(v.terms), u) for k, v in forms.items()}
        rhs = (ONE - qp(-2)) * (wexp["w0"] + I * wexp["w1"])
        return ext.normal_form(omega + h * dhstar - rhs)
    raise ValueError(f"unknown candidate {candidate!r}; expected one of {OMEGA_BAR_CANDIDATES}")


def norm_differential() -> NCPoly:
    """d applied to the central norm, in the differential algebra."""
    dga = get_presentation("dga")
    return differential(NCPoly(dict(norm_poly().terms), dga.name), dga)


def recover_differentials_on_unit_sphere() -> list:
    """At q=1, frame expansion composed with frame definitions returns da_k.

    Substitutes the one-form definitions into each frame expansion of
    da_k and reduces with the unit-norm constraint; exactness of the
    round trip is a classical-limit consistency statement.
    """
    ext = unit_norm_extension("dga", with_norm_differential=False)
    at_one = Presentation(
        "classical-" + ext.name,
        list(ext.generators),
        {k: eval_poly_at(v, 1) for k, v in ext.rules.items()},
        ext.description + " at q=1",
    )
    u = at_one.name
    forms = omega_forms()
    images = {k: NCPoly(dict(eval_poly_at(v, 1).terms), u) for k, v in forms.items()}
    out = []
    for aid, row in _DA_ROWS.items():
        acc = NCPoly.zero(u)
        for wid, bid, sgn in row:
            acc = acc + rat(sgn) * (images[wid] * NCPoly.letter(bid, u))
        target = NCPoly.letter("d" + aid, u)
        out.append((aid, at_one.normal_form(acc - target)))
    return out


# -- vector fields --------------------------------------------------------

VECTOR_FIELD_CONVENTIONS = ("bracket", "printed")


@dataclass
class VectorField:
    """Tabulated action of one frame vector field on low-degree monomials."""

    label: str
    action: dict = field(default_factory=dict)

    def __call__(self, p: NCPoly) -> NCPoly:
        out = NCPoly.zero()
        for w, c in p.terms.items():
            img = self.action.get(w)
            if img is None:
                raise KeyError(f"{self.label} is not tabulated on {w}")
            out = out + NCPoly.scalar(c) * img
        return out


def coordinate_frame_coefficients(f: NCPoly, classical: bool = False) -> dict:
    """Write df as sum of w_k times a coordinate polynomial; return the four parts."""
    prefix = "classical-" if classical else ""
    dga = get_presentation(prefix + "dga")
    cm = get_presentation(prefix + "cartan_maurer")
    rows = da_from_w()
    images = {
        "d" + aid: NCPoly(dict(row.terms), cm.name) for aid, row in rows.items()
    }
    if classical:
        images = {k: eval_poly_at(v, 1) for k, v in images.items()}
    df = differential(NCPoly(dict(f.terms), dga.name), dga)
    converted = cm.normal_form(substitute(df, images, cm.name))
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


_frame_cache: dict = {}


def extract_vector_fields(cap: int, convention: str = "bracket",
                          classical: bool = False):
    """Tabulate the four frame vector fields on all monomials up to cap.

    bracket: plain readoff with alternating signs, under which the
    classical bracket table holds.  printed: the same divided by two,
    matching the displayed classical normalization.
    """
    if convention not in VECTOR_FIELD_CONVENTIONS:
        raise ValueError(f"unknown convention {convention!r}")
    if cap < 1:
        raise ValueError("cap must be at least 1")
    signs = {"w0": ONE, "w1": -ONE, "w2": ONE, "w3": -ONE}
    half = rat(1, 2)
    fields = {k: VectorField(label=f"nabla{j}") for j, k in enumerate(W)}
    basis = [()] + list(_monomial_basis(cap))
    for word in basis:
        if not word:
            for k in W:
                fields[k].action[word] = NCPoly.zero()
            continue
        parts = _frame_cache.get((word, classical))
        if parts is None:
            parts = coordinate_frame_coefficients(
                NCPoly.word(word), classical=classical)
            _frame_cache[(word, classical)] = parts
        for k in W:
            img = signs[k] * parts[k]
            if convention == "printed":
                img = half * img
            fields[k].action[word] = img
    return tuple(fields[k] for k in W)


def _operator_residual(expr, monomials, reducer):
    worst = []
    for w in monomials:
        val = reducer(expr(NCPoly.word(w)))
        if val.terms:
            worst.append((w, val))
    return worst


def verify_lie_algebra(cap: int, mode: str, convention: str = "bracket"):
    """Evaluate the displayed generator relations on all monomials up to cap.

    classical mode checks the six bracket identities at q=1; quantum
    mode evaluates the deformed relations.  Returns a list of records
    with any violating monomials; empty failure lists mean the relation
    holds on the sampled module.
    """
    classical = mode == "classical"
    if mode not in ("classical", "quantum"):
        raise ValueError(f"unknown mode {mode!r}")
    prefix = "classical-" if classical else ""
    hq = get_presentation(prefix + "hq")
    reducer = hq.normal_form
    n0, n1, n2, n3 = extract_vector_fields(
        cap + 2, convention=convention, classical=classical)
    monomials = [()] + list(_monomial_basis(cap))
    records = []

    def compose(f, g):
        return lambda p: f(g(p))

    def add(label, expr):
        records.append({
            "relation": label,
            "convention": convention,
            "failures": _operator_residual(expr, monomials, reducer),
        })

    if classical:
        def bracket(f, g):
            return lambda p: f(g(p)) - g(f(p))

        add("[n1,n2]+2n3", lambda p: bracket(n1, n2)(p) + rat(2) * n3(p))
        add("[n2,n3]+2n1", lambda p: bracket(n2, n3)(p) + rat(2) * n1(p))
        add("[n3,n1]+2n2", lambda p: bracket(n3, n1)(p) + rat(2) * n2(p))
        add("[n1,n0]", bracket(n1, n0))
        add("[n2,n0]", bracket(n2, n0))
        add("[n3,n0]", bracket(n3, n0))
        return records

    c22 = (qp(2) + qp(-2)) * rat(1, 2)
    d22 = (qp(2) - qp(-2)) * rat(1, 2)
    sq = (qp(1) - qp(-1)) * (qp(1) - qp(-1))
    lo = qp(-2) + ONE
    li = I * (qp(-2) - ONE)

    add("n0n1-n1n0", lambda p: compose(n0, n1)(p) - compose(n1, n0)(p))
    add("n0n2-n2n0", lambda p: compose(n0, n2)(p) - compose(n2, n0)(p))
    add("n0n3-n3n0", lambda p: compose(n0, n3)(p) - compose(n3, n0)(p))
    add("n1n2-row", lambda p: compose(n1, n2)(p) - (
        c22 * compose(n2, n1)(p) - lo * n3(p) + li * n2(p)
        - I * sq * rat(1, 2) * compose(n0, n1)(p)
        - d22 * (compose(n3, n0)(p) + I * compose(n3, n1)(p))))
    add("n1n3-row", lambda p: compose(n1, n3)(p) - (
        c22 * compose(n3, n1)(p) + lo * n2(p) - li * n3(p)
        - I * sq * rat(1, 2) * compose(n0, n1)(p)
        + d22 * (compose(n2, n0)(p) + I * compose(n2, n1)(p))))
    add("n3n2-row", lambda p: compose(n3, n2)(p) - (
        compose(n2, n3)(p) + lo * n1(p) - li * n0(p)
        + I * d22 * compose(n0, n0)(p) + sq * rat(1, 2) * compose(n1, n1)(p)
        + (ONE - qp(-2)) * compose(n0, n1)(p)))
    return records
