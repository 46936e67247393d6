"""The README's "Command line" examples, run through cli.main, and its
"Library" block.

Each `$ qcalc ...` line of the first section is a command; the lines
after it, up to a blank line, are what it prints.  A `...` line stands
for output that is not shown (the `verify all` table): the lines before
it must start the output and the lines after it must end it.
"""

import shlex
from pathlib import Path

import pytest

from qcalc.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def readme_examples():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Command line", 1)[1]
    block = section.split("```", 2)[1]
    examples = []
    for line in block.splitlines():
        if line.startswith("$ qcalc "):
            examples.append((shlex.split(line[len("$ qcalc "):]), []))
        elif line.strip() and examples:
            examples[-1][1].append(line)
    return examples


EXAMPLES = readme_examples()


def test_readme_lists_the_command_line_examples():
    commands = [" ".join(argv) for argv, _ in EXAMPLES]
    assert {"nf a0*a1", "verify all"} <= set(commands)
    assert all(expected for _, expected in EXAMPLES)


@pytest.mark.parametrize("argv,expected", EXAMPLES,
                         ids=[" ".join(argv) for argv, _ in EXAMPLES])
def test_readme_example_prints_what_the_readme_shows(argv, expected, tmp_path,
                                                      monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 0
    out = capsys.readouterr().out.splitlines()
    if "..." in expected:
        cut = expected.index("...")
        head, tail = expected[:cut], expected[cut + 1:]
        assert out[:len(head)] == head
        assert out[len(out) - len(tail):] == tail
    else:
        assert out == expected


def test_readme_library_block_prints_what_the_command_line_prints(capsys):
    text = README.read_text(encoding="utf-8")
    block = text.split("## Library", 1)[1].split("```python", 1)[1]
    exec(block.split("```", 1)[0], {})
    printed = capsys.readouterr().out.splitlines()
    assert main(["nf", "a0*a1*a2"]) == 0
    assert main(["apply", "coproduct", "a3"]) == 0
    assert printed == capsys.readouterr().out.splitlines()
