"""Mutation adequacy of the `verify all` report: which rules and which
Hopf image tables do its checks constrain?

Each mutant rebuilds one catalog presentation with one rule changed, or
one of the generator image tables of the coproduct (hopf._coproduct_images)
and the antipode (hopf._antipode_images) with one image changed, runs
run_suite("all") in a fresh interpreter and compares every check's status
and residual with the unmutated report (perfbench/expected/verify_all.json).
An operator changes the first rhs term of the rule, or the first term of
the image, in the order render_poly and TensorPoly.render print it (the
coproduct's in hq, the antipode's in hq_localized):

    negate   the coefficient times -1
    times-q  the coefficient times q
    drop     the term removed

Presentations built on a mutated one (its classical-* specialization, the
units and unit-norm extensions) see the mutant too.  Each mutant is
classed by what it changes:

    crash       run_suite("all") raised instead of reporting
    killed      some check other than confluence.* changed status
    confluence  only confluence.* checks changed status
    residual    no status changed, but some residual did
    survived    the report is unchanged

Rules with a zero rhs have no first term; they are listed as out of the
operators' reach.  Usage, from the repository root:

    python tests/mutants.py                      # the whole table
    python tests/mutants.py --sample 3 --seed 1  # three seeded mutants

This file is not a test module (pytest collects test_*.py only);
tests/test_mutants.py runs a seeded subset of it.
"""

import argparse
import json
import os
import random
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
ORACLE = ROOT / "perfbench" / "expected" / "verify_all.json"

PRESENTATIONS = ("hq", "units", "dga", "cartan_maurer", "grassmann")
TABLES = ("_coproduct_images", "_antipode_images")
OPERATORS = ("negate", "times-q", "drop")
CLASSES = ("crash", "killed", "confluence", "residual", "survived")

# Run in the fresh interpreter: argv is the presentation or image table,
# the rule's lhs or the image's letter as JSON and the operator; prints
# {check id: [status, residual]}.
CHILD = """
import json, sys
from qcalc import LaurentScalar, NCPoly, Presentation, get_presentation, hopf, run_suite
from qcalc import presentations

name, key, op = sys.argv[1], tuple(json.loads(sys.argv[2])), sys.argv[3]

def changed(terms, sort_key):
    terms = dict(terms)
    first = min(terms, key=sort_key)
    if op == "negate":
        terms[first] = -terms[first]
    elif op == "times-q":
        terms[first] = terms[first] * LaurentScalar.q_power(1)
    else:
        del terms[first]
    return terms

if name in presentations._CATALOG_BUILDERS:
    build = presentations._CATALOG_BUILDERS[name]

    def mutated():
        pres = build()
        rules = dict(pres.rules)
        rules[key] = NCPoly(changed(rules[key].terms, pres.word_sort_key))
        return Presentation(pres.name, pres.generators, rules, pres.description)

    presentations._CATALOG_BUILDERS[name] = mutated
    presentations._cache.clear()
else:
    images = dict(getattr(hopf, name)())
    image = images[key[0]]
    if name == "_coproduct_images":
        hq = get_presentation("hq")
        terms = changed(image.terms, lambda k: tuple(map(hq.word_sort_key, k)))
        images[key[0]] = hopf.TensorPoly(terms, image.legs)
    else:
        loc = get_presentation("hq_localized")
        images[key[0]] = NCPoly(changed(image.terms, loc.word_sort_key))
    setattr(hopf, name, lambda: images)
report = run_suite("all")
print(json.dumps({c.id: [c.status, c.residual] for c in report.checks}))
"""


def baseline() -> dict:
    """{check id: [status, residual]} of the unmutated report."""
    checks = json.loads(ORACLE.read_text())["checks"]
    return {c["id"]: [c["status"], c["residual"]] for c in checks}


def mutants():
    """(table, key, operator) for every reachable mutant, and the
    (presentation, lhs) pairs whose rule has a zero rhs.  The key is a
    rule's lhs or, in an image table, the one-letter tuple of the image's
    letter."""
    from qcalc import get_presentation, hopf
    reachable, zero = [], []
    for name in PRESENTATIONS:
        rules = get_presentation(name).rules
        for lhs in sorted(rules):
            if rules[lhs]:
                reachable += [(name, lhs, op) for op in OPERATORS]
            else:
                zero.append((name, lhs))
    for name in TABLES:
        reachable += [(name, (gid,), op) for gid in sorted(getattr(hopf, name)())
                      for op in OPERATORS]
    return reachable, zero


def run_mutant(name, key, op, base):
    """(class, changed check ids or the crash's last line) of one mutant."""
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, name, json.dumps(key), op],
        cwd=ROOT, env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True, text=True)
    if proc.returncode:
        lines = proc.stderr.strip().splitlines()
        return "crash", lines[-1] if lines else f"exit {proc.returncode}"
    got = json.loads(proc.stdout)
    flipped = sorted(k for k in base.keys() | got.keys()
                     if base.get(k, [None])[0] != got.get(k, [None])[0])
    if any(not k.startswith("confluence.") for k in flipped):
        return "killed", flipped
    if flipped:
        return "confluence", flipped
    moved = sorted(k for k in base if base[k] != got.get(k))
    return ("residual", moved) if moved else ("survived", [])


def kill_table(results) -> str:
    """Markdown table: mutants per table and operator, by class."""
    head = "| table | operator | mutants | " + " | ".join(CLASSES) + " |"
    lines = [head, "|" + "---|" * (3 + len(CLASSES))]
    for name in PRESENTATIONS + TABLES:
        for op in OPERATORS:
            mine = [cls for (n, _, o), (cls, _) in results.items()
                    if (n, o) == (name, op)]
            if mine:
                counts = " | ".join(str(mine.count(cls)) for cls in CLASSES)
                lines.append(f"| {name} | {op} | {len(mine)} | {counts} |")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n", 1)[0])
    parser.add_argument("--sample", type=int, default=0,
                        help="run this many seeded mutants instead of all")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    todo, zero = mutants()
    if args.sample:
        todo = random.Random(args.seed).sample(todo, args.sample)
    base = baseline()
    results = {}
    for name, key, op in todo:
        results[name, key, op] = cls, detail = run_mutant(name, key, op, base)
        if cls != "killed":
            print(f"{name} {'*'.join(key)} {op}: {cls} {detail}", flush=True)
    print(kill_table(results))
    if zero:
        print("zero rhs, out of reach:",
              ", ".join(f"{n} {'*'.join(lhs)}" for n, lhs in zero))
    return 1 if any(cls == "crash" for cls, _ in results.values()) else 0


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    sys.exit(main())
