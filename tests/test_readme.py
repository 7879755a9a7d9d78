"""The README's examples, run as written.

Each ``$ ledgerpack ...`` command of the CLI tour runs in one scratch
directory, in order, and its stdout must equal the lines shown under
it; a ``...`` line ends the comparison for that command.  The "Library
use" snippet runs too, and each ``print`` must show the value its
comment names.
"""

import contextlib
import io
import pathlib
import re
import shlex

from ledgerpack.cli import main

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def _block(section: str, lang: str) -> str:
    """The first ``lang`` code block after the ``## section`` heading."""
    text = README.read_text(encoding="utf-8")
    start = text.index(f"\n## {section}\n")
    match = re.compile(rf"```{lang}\n(.*?)```", re.S).search(text, start)
    return match.group(1)


def _tour():
    """(command, expected stdout lines, whether the listing is cut short)."""
    steps = []
    lines = iter(_block("CLI tour", "console").splitlines())
    for line in lines:
        if line.startswith("$ "):
            command = line[2:]
            while command.endswith("\\"):
                command = command[:-1] + next(lines).strip()
            steps.append((command, [], False))
        elif line == "...":
            steps[-1] = (steps[-1][0], steps[-1][1], True)
        elif line and not steps[-1][2]:
            steps[-1][1].append(line)
    return steps


def test_the_tour_has_commands():
    commands = [command.split()[1] for command, _, _ in _tour()]
    assert commands == ["genchain", "parse", "stats", "estimate", "compact", "verify"]


def test_cli_tour_output_matches_the_readme(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    for command, expected, cut in _tour():
        argv = shlex.split(command)
        assert argv[0] == "ledgerpack"
        assert main(argv[1:]) == 0, command
        out = capsys.readouterr().out.splitlines()
        assert (out[: len(expected)] if cut else out) == expected, command


def test_library_snippet_prints_what_its_comments_say(tmp_path, monkeypatch):
    source = _block("Library use", "python")
    expected = re.findall(r"^print\(.*\)\s+# (\d+)", source, re.M)
    assert expected == ["4", "39359"]
    monkeypatch.chdir(tmp_path)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        exec(compile(source, str(README), "exec"), {"__name__": "readme_snippet"})
    assert buf.getvalue().split() == expected
