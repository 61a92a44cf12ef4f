"""The README's command line examples, replayed byte for byte.

Each ``$ dpforms ...`` line in a fenced block of README.md is run in-process
and its stdout compared with the lines that follow it, up to the next
command or the end of the block.  A line ``  ...`` stands for any run of
lines.  ``ell`` examples read the README's instance document.  The
``python`` block is executed, and its printed lines compared with its
``#`` comments, where ", " separates the lines one print loop prints.
"""

import re
import shlex
from pathlib import Path

import pytest

from dpforms.cli import run

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
BLOCKS = re.findall(r"^```(\w*)\n(.*?)^```$", README, flags=re.M | re.S)


def _examples():
    out = []
    for _, body in BLOCKS:
        for chunk in re.split(r"^(?=\$ dpforms )", body, flags=re.M):
            if chunk.startswith("$ dpforms "):
                command, _, expected = chunk.partition("\n")
                out.append((command[2:], expected.rstrip("\n") + "\n"))
    return out


def _pattern(expected: str) -> str:
    return "".join(
        r"(?:.*\n)*" if line == "  ..." else re.escape(line) + r"\n"
        for line in expected.splitlines()
    )


EXAMPLES = _examples()


def test_readme_has_examples():
    assert len(EXAMPLES) == 9


@pytest.mark.parametrize("command,expected", EXAMPLES, ids=[c for c, _ in EXAMPLES])
def test_readme_example(command, expected, tmp_path, monkeypatch, capsys):
    instance = next(body for lang, body in BLOCKS if lang == "json")
    (tmp_path / "swap.json").write_text(instance, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    code = run(shlex.split(command)[1:])
    out = capsys.readouterr().out
    assert code == 0
    assert re.fullmatch(_pattern(expected), out), out


def test_readme_library_example(capsys):
    code = next(body for lang, body in BLOCKS if lang == "python")
    expected = [line for comment in re.findall(r"#\s*(.+)$", code, flags=re.M)
                for line in comment.strip().split(", ")]
    exec(compile(code, "README.md", "exec"), {})
    assert capsys.readouterr().out.splitlines() == expected
