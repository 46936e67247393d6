"""A seeded subset of the mutation harness in tests/mutants.py.

Each mutant runs `verify all` in a fresh interpreter, about 0.3 s each,
so tier-1 runs three: one whose class the full table records, and two
drawn with a fixed seed, which must be classed without a crash.
"""

import mutants


def test_the_mutants_cover_the_catalog_rules():
    todo, zero = mutants.mutants()
    # 101 rules with a nonzero rhs, 4 coproduct, 5 antipode and 16 star images
    assert len(todo) == 3 * (101 + 4 + 5 + 16)
    assert len(zero) == 6


def test_a_unit_table_mutant_is_caught_only_by_confluence():
    # No check multiplies two quaternion units (README, "Mutation table").
    cls, flipped = mutants.run_mutant("units", ("e1", "e2"), "drop", mutants.baseline())
    assert (cls, flipped) == ("confluence", ["confluence.units"])


def test_seeded_mutants_are_classed_without_a_crash(capsys):
    assert mutants.main(["--sample", "2", "--seed", "32"]) == 0
    rows = [line.split(" | ") for line in capsys.readouterr().out.splitlines()
            if line.startswith("| ") and not line.startswith("| table")]
    assert sum(int(row[2]) for row in rows) == 2
    assert all(row[3] == "0" for row in rows)  # no crash
