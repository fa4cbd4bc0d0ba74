"""The README's command-line examples, run as written.

Every ``$ comodular ...`` line in the README runs through ``cli.main`` in
one temporary directory, in README order (later examples read the capacity
file the first one writes), and must print exactly the lines shown under it.
"""

import shlex
from pathlib import Path

from comodular.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def readme_examples():
    """(argv, expected stdout) for each example, in README order."""
    examples = []
    in_block = False
    output = None
    lines = iter(README.read_text(encoding="utf-8").splitlines())
    for line in lines:
        if line.startswith("```"):
            in_block = not in_block
            output = None
        elif in_block and line.startswith("$ comodular "):
            command = line[2:]
            while command.endswith("\\"):
                command = command[:-1] + " " + next(lines).strip()
            output = []
            examples.append((shlex.split(command)[1:], output))
        elif output is not None and line:
            output.append(line)
        else:
            output = None
    return [(argv, "".join(row + "\n" for row in shown)) for argv, shown in examples]


def test_readme_examples_print_what_the_readme_shows(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    examples = readme_examples()
    assert [argv[0] for argv, _ in examples] == ["gen", "eval", "audit", "audit", "fit"]
    for argv, expected in examples:
        code = main(argv)
        assert capsys.readouterr().out == expected, argv
        assert code == (1 if ": fail (" in expected else 0), argv
