"""normal_form against an independent leftmost rewriter, and its limits.

The reference below rewrites a stack of (word, coefficient) paths, each
at its leftmost reducible pair, with no cache and no merging of equal
words.  Leftmost normal form is linear, so the engine, which merges
pending words, must give the same result in confluent and non-confluent
universes alike.  It fires a subset of the reference's rules: a word
whose merged coefficient cancels is never rewritten.
"""

import itertools
import random

import pytest

from qcalc import (NCPoly, Presentation, StepLimitExceeded, get_presentation,
                   specialize)
from qcalc.calculus import unit_norm_extension
from qcalc.cli import main
from qcalc.presentations import (build_dga, build_hq, leibniz_consistency_check,
                                  leibniz_expansion)
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
        assert used <= fired, word


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


@pytest.mark.parametrize("build, length", [(build_hq, 5), (build_dga, 4)],
                         ids=["hq", "dga"])
def test_steps_and_rules_do_not_depend_on_cache_warmth(build, length):
    cold, warm = build(), build()
    gens = warm.generator_ids()
    for n in range(1, length):
        for word in itertools.product(gens, repeat=n):
            warm.normal_form(NCPoly.word(word))
    rng = random.Random(length)
    for _ in range(20):
        word = tuple(rng.choice(gens) for _ in range(length))
        _, steps, fired = cold._nf_word(word, [10 ** 6])
        _, warm_steps, warm_fired = warm._nf_word(word, [10 ** 6])
        assert (steps, fired) == (warm_steps, warm_fired), word


CYCLE = {
    "name": "cycle",
    "generators": [{"id": "a", "grade": 0, "rank": 0},
                   {"id": "b", "grade": 0, "rank": 1}],
    "rules": [{"lhs": ["a", "b"], "rhs": [{"word": ["b", "a"], "coeff": "1"}]},
              {"lhs": ["b", "a"], "rhs": [{"word": ["a", "b"], "coeff": "1"}]}],
}


def test_a_rewriting_cycle_hits_the_step_limit(capsys, tmp_path):
    pres = Presentation.from_obj(CYCLE)
    with pytest.raises(StepLimitExceeded):
        pres.normal_form(NCPoly.word(("a", "b")))
    target = tmp_path / "cycle.json"
    target.write_text(pres.dump_json())
    assert main(["load-presentation", str(target)]) == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err.startswith("error: step limit exceeded")
