"""normal_form against an independent leftmost rewriter, and its cycles.

The reference below rewrites a stack of (word, coefficient) paths, each
at its leftmost reducible pair, with no cache and no merging of equal
words.  Leftmost normal form is linear, so the engine, which merges
pending words and reuses cached normal forms, must give the same result
in confluent and non-confluent universes alike, and trace the same
rules.  A rewriting that never ends must raise RewritingCycleError.
check_local_confluence, which rewrites the words its overlaps reach
reducts first and sums residuals from cached word normal forms, must
give what one normal_form per overlap gives.
"""

import itertools
import random

import pytest

from qcalc import (NCPoly, Presentation, RewritingCycleError, get_presentation,
                   specialize)
from qcalc.algebra import Generator
from qcalc.calculus import unit_norm_extension
from qcalc.cli import main
from qcalc.presentations import (_CATALOG_BUILDERS, build_dga, build_hq,
                                  leibniz_consistency_check, leibniz_expansion,
                                  shipped_names)
from qcalc.scalar import LaurentScalar, add_term


def leftmost_reference(pres, word):
    """(normal form terms, lhs pairs fired) of word, one path at a time."""
    acc, fired = {}, set()
    stack = [(tuple(word), LaurentScalar.one())]
    while stack:
        w, c = stack.pop()
        redexes = [i for i in range(len(w) - 1) if w[i:i + 2] in pres.rules]
        if not redexes:
            add_term(acc, w, c)
            continue
        i = redexes[0]
        fired.add(w[i:i + 2])
        for rw, rc in pres.rules[w[i:i + 2]].terms.items():
            stack.append((w[:i] + rw + w[i + 2:], c * rc))
    return acc, fired


def seeded_words(pres, max_len, per_length, seed):
    """Every word of length up to 2, then per_length seeded ones a length."""
    rng = random.Random(seed)
    gens = pres.generator_ids()
    words = [w for n in (1, 2) for w in itertools.product(gens, repeat=n)]
    for n in range(3, max_len + 1):
        words += [tuple(rng.choice(gens) for _ in range(n))
                  for _ in range(per_length)]
    return words


@pytest.mark.parametrize("pres, max_len", [
    (get_presentation("hq"), 5),
    (get_presentation("units"), 4),
    (get_presentation("dga"), 4),
    (get_presentation("cartan_maurer"), 4),
    (get_presentation("dga_literal"), 3),
    (unit_norm_extension("units_dga"), 3),
], ids=lambda v: v.name if isinstance(v, Presentation) else str(v))
def test_normal_form_matches_the_leftmost_reference(pres, max_len):
    for word in seeded_words(pres, max_len, per_length=25, seed=max_len):
        used = set()
        got = pres.normal_form(NCPoly.word(word, universe=pres.name), trace=used)
        terms, fired = leftmost_reference(pres, word)
        assert got.terms == terms, word
        assert used == fired, word


def test_literal_leibniz_rows_trace_the_reference_rules():
    dga = get_presentation("dga_literal")
    for row in leibniz_consistency_check(dga):
        relation = NCPoly.word(row["lhs"]) - dga.rules[row["lhs"]]
        fired = set()
        for word in leibniz_expansion(relation, dga).terms:
            fired |= leftmost_reference(dga, word)[1]
        assert row["rules_used"] == fired, row["lhs"]


@pytest.mark.parametrize("build, letters, size", [
    (build_hq, ("a0",) * 4 + ("a3",) * 4, 14),
    (build_dga, ("a1", "a1", "a1", "a2", "da2"), 44),
], ids=["hq", "dga"])
def test_deep_words_reduce_under_the_default_limit(build, letters, size):
    pres = build()
    nf = pres.normal_form(NCPoly.word(letters, universe=pres.name))
    assert len(nf.terms) == size and pres.is_normal(nf)
    at2 = specialize(pres, 2)
    assert at2.normal_form(NCPoly.word(letters, universe=at2.name)) == nf.eval_at(2)
    if pres.name == "hq":
        assert nf.eval_at(1) == NCPoly.word(letters[::-1])


@pytest.mark.parametrize("build, length", [
    (build_hq, 5),
    (build_dga, 4),
    (lambda: build_dga(literal=True), 4),
    (lambda: unit_norm_extension("units_dga"), 3),
], ids=["hq", "dga", "dga_literal", "units_dga+unit_norm"])
def test_normal_forms_and_traces_do_not_depend_on_cache_warmth(build, length):
    # warm has normal-formed every shorter word; checked has run the
    # confluence check, which caches words no normal_form call asked for
    cold, warm, checked = build(), build(), build()
    gens = warm.generator_ids()
    for n in range(1, length):
        for word in itertools.product(gens, repeat=n):
            warm.normal_form(NCPoly.word(word))
    checked.check_local_confluence()
    rng = random.Random(length)
    for _ in range(20):
        word = NCPoly.word([rng.choice(gens) for _ in range(length)])
        cold_rules = set()
        nf = cold.normal_form(word, trace=cold_rules)
        for pres in (warm, checked):
            rules = set()
            assert pres.normal_form(word, trace=rules) == nf, (pres, word)
            assert rules == cold_rules, (pres, word)


def reference_confluence(pres):
    """check_local_confluence's result, one normal_form per overlap."""
    out = []
    for x, y, z in pres.overlap_words():
        residual = pres.normal_form(pres.rules[(x, y)] * NCPoly.letter(z)
                                    - NCPoly.letter(x) * pres.rules[(y, z)])
        if residual:
            out.append(((x, y, z), residual))
    return out


def assert_same_failures(got, want):
    assert [xyz for xyz, _ in got] == [xyz for xyz, _ in want]
    for (xyz, residual), (_, expected) in zip(got, want):
        assert residual.terms == expected.terms, xyz
        assert residual.universe == expected.universe, xyz


def _fresh(name):
    if name.startswith("classical-"):
        return specialize(_CATALOG_BUILDERS[name[len("classical-"):]](), 1)
    if name == "units_dga+unit_norm":
        return unit_norm_extension("units_dga")
    return _CATALOG_BUILDERS[name]()


@pytest.mark.parametrize("name", [
    *_CATALOG_BUILDERS, *(n for n in shipped_names() if n.startswith("classical-")),
    "units_dga+unit_norm"])
def test_confluence_check_matches_the_overlap_by_overlap_reference(name):
    want = reference_confluence(_fresh(name))
    assert len(want) == (64 if name in ("dga_literal", "units_dga+unit_norm") else 0)
    assert_same_failures(_fresh(name).check_local_confluence(), want)


def test_the_cache_stores_each_word_and_coefficient_once():
    pres = build_dga()
    for word in itertools.product(pres.generator_ids(), repeat=3):
        pres.normal_form(NCPoly.word(word))
    cache = pres._nf_cache
    words = [w for key, terms in cache.items() for w in (key, *terms)]
    coeffs = [c for terms in cache.values() for c in terms.values()]
    assert len({id(w) for w in words}) == len(set(words)) == 8 ** 3
    assert len({id(c) for c in coeffs}) == len(set(coeffs))


def _two_rule_universe(name, rules):
    return Presentation.from_obj({
        "name": name,
        "generators": [{"id": "a", "grade": 0, "rank": 0},
                       {"id": "b", "grade": 0, "rank": 1}],
        "rules": [{"lhs": list(lhs), "rhs": [{"word": list(rhs), "coeff": "1"}]}
                  for lhs, rhs in rules]})


# a*b and b*a rewrite to each other
CYCLE = _two_rule_universe("cycle", [("ab", "ba"), ("ba", "ab")])
# every 2-letter word terminates, but a*b*a -> a*a*a -> a*b*a
LONG_CYCLE = _two_rule_universe("long_cycle", [("aa", "ab"), ("ba", "aa")])


def _cycling_words(pres, max_len):
    """Words of length up to max_len whose reduction raises, in order."""
    out = []
    for n in range(1, max_len + 1):
        for word in itertools.product("ab", repeat=n):
            try:
                pres.normal_form(NCPoly.word(word))
            except RewritingCycleError as exc:
                assert str(exc).startswith(f"rewriting cycle in {pres.name!r}")
                out.append(word)
    return out


@pytest.mark.parametrize("pres, first", [(CYCLE, ("a", "b")),
                                         (LONG_CYCLE, ("a", "a", "a"))],
                         ids=["cycle", "long_cycle"])
def test_a_rewriting_cycle_is_raised_cold_and_warm(capsys, tmp_path, pres, first):
    cold = Presentation.from_obj(pres.to_obj())
    with pytest.raises(RewritingCycleError):
        cold.normal_form(NCPoly.word(first))
    # the second pass meets every terminating word of the first cached
    cycling = _cycling_words(cold, 4)
    assert cycling[0] == first
    assert _cycling_words(cold, 4) == cycling
    assert all(len(w) > 2 for w in cycling) == (pres is LONG_CYCLE)
    target = tmp_path / "cycle.json"
    target.write_text(pres.dump_json())
    assert main(["load-presentation", str(target)]) == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err.startswith("error: rewriting cycle")


def _reaches_a_cycle(pres, word):
    """Whether the leftmost rewrite graph of word has a cycle (DFS)."""
    on_path, done = set(), set()

    def visit(w):
        on_path.add(w)
        i = next((i for i in range(len(w) - 1) if w[i:i + 2] in pres.rules), None)
        children = () if i is None else (
            w[:i] + rw + w[i + 2:] for rw in pres.rules[w[i:i + 2]].terms)
        for child in children:
            if child in on_path or (child not in done and visit(child)):
                return True
        on_path.discard(w)
        done.add(w)
        return False

    return visit(tuple(word))


LETTERS = ("x", "y", "z")


def random_universes():
    """300 seeded random universes over x, y and z, as builders of fresh copies."""
    rng = random.Random(19)
    pairs = list(itertools.product(LETTERS, repeat=2))
    rhs_words = [()] + [(g,) for g in LETTERS] + pairs
    gens = [Generator(g, 0, r) for r, g in enumerate(LETTERS)]
    for n in range(300):
        rules = {}
        for lhs in rng.sample(pairs, rng.randint(1, 5)):
            words = rng.sample([w for w in rhs_words if w != lhs], rng.randint(1, 2))
            rules[lhs] = NCPoly({w: rng.choice((-2, -1, 1, 2)) for w in words})
        yield lambda name=f"random{n}", rules=rules: Presentation(name, gens, rules)


def test_random_universes_report_only_real_cycles():
    raised = 0
    for build in random_universes():
        pres = build()
        for length in (2, 3):
            for word in itertools.product(LETTERS, repeat=length):
                try:
                    got = pres.normal_form(NCPoly.word(word))
                except RewritingCycleError:
                    raised += 1
                    assert _reaches_a_cycle(pres, word), (pres.rules, word)
                    continue
                if not _reaches_a_cycle(pres, word):
                    assert got.terms == leftmost_reference(pres, word)[0], (pres.rules, word)
    assert raised > 0


def test_random_universes_check_confluence_as_the_reference_does():
    raised = failing = 0
    for build in random_universes():
        try:
            want = reference_confluence(build())
        except RewritingCycleError:
            raised += 1
            with pytest.raises(RewritingCycleError):
                build().check_local_confluence()
            continue
        assert_same_failures(build().check_local_confluence(), want)
        failing += bool(want)
    assert raised and failing
