"""The examples in README.md agree with the program.

The library example is run, and each of its own-line comments is a list
of claims, separated by ", ", about the names it binds. Each command-line
example followed by comment lines is run in process through ``cli.main``,
and those lines, joined, must match its stdout, or its stderr after a
``stderr:`` prefix. In a shown value, a number ending in ``...`` stands
for its leading digits, and a lone ``...`` for any value.
"""

import io
import re
import shlex
from pathlib import Path

import pytest

from dtmseries.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()
FENCE = re.compile(r"^```(\w*)\n(.*?)^```", re.MULTILINE | re.DOTALL)


def _blocks(lang):
    return [body for kind, body in FENCE.findall(README) if kind == lang]


def _shown(text):
    """A regex that matches the text the README shows for a value."""
    pattern = re.sub(r"(?<=\d)\\\.\\\.\\\.", r"\\d*", re.escape(text))
    return re.compile(pattern.replace(r"\.\.\.", ".+?"))


def _claims(comment):
    """The comment split at each ", " outside brackets."""
    claims, depth, start = [], 0, 0
    for i, ch in enumerate(comment):
        depth += (ch in "([") - (ch in ")]")
        if depth == 0 and comment.startswith(", ", i):
            claims.append(comment[start:i])
            start = i + 2
    return claims + [comment[start:]]


def _examples():
    """(command, shown output) of each shell example with output lines."""
    examples = []
    for block in _blocks("sh"):
        command, shown = "", []
        for line in block.replace("\\\n", " ").splitlines() + [""]:
            if line.startswith("#"):
                shown.append(line[1:].strip())
                continue
            if shown:
                examples.append((command, " ".join(shown)))
            command, shown = line, []
    return examples


def test_library_example_claims_hold():
    [block] = [b for b in _blocks("python") if "from dtmseries import" in b]
    namespace = {}
    exec(block, namespace)
    comments = [line[1:].strip() for line in block.splitlines() if line.startswith("#")]
    claims = [claim for comment in comments for claim in _claims(comment)]
    assert len(claims) == 6
    for claim in claims:
        name, _, shown = claim.partition(" == ")
        if "..." in shown:
            value = repr(eval(name, namespace))
            assert _shown(shown).fullmatch(value), f"{name} is {value}, README shows {shown}"
        else:
            assert eval(claim, namespace), f"README claims {claim}"


EXAMPLES = _examples()


def test_every_command_line_example_with_output_is_checked():
    assert [shlex.split(command.split("|")[-1])[:2] for command, _ in EXAMPLES] == [
        ["dtmseries", "ops"], ["dtmseries", "ops"], ["dtmseries", "solve"],
        ["dtmseries", "solve"], ["dtmseries", "bench"]]


@pytest.mark.parametrize("command, shown", EXAMPLES, ids=[c for c, _ in EXAMPLES])
def test_command_line_example_shows_its_output(command, shown, capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    *pipe, command = command.split("|")
    if pipe:
        [echo] = pipe
        monkeypatch.setattr("sys.stdin", io.StringIO(shlex.split(echo)[1] + "\n"))
    code = main(shlex.split(command)[1:])
    out = capsys.readouterr()
    stream, shown = (out.err, shown[len("stderr: "):]) if shown.startswith("stderr: ") \
        else (out.out, shown)
    assert _shown(shown).fullmatch(stream.strip()), f"README shows {shown!r}, got {stream!r}"
    assert code == 0
