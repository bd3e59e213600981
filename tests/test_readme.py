"""Every README example, run in-process, prints what the README shows.

A `$ ellbrauer ...` line is an example and the nonblank lines under it,
if any, are its output.  Lines before a `...` line must begin the
output and lines after it must end it.  The example exits 0 unless its
comment says `exit N`.
"""

import re
import shlex
from pathlib import Path

import pytest

from ellbrauer.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def _blocks(lang: str) -> list[str]:
    return re.findall(rf"^```{lang}\n(.*?)^```$", README, re.M | re.S)


def _examples() -> list[tuple[str, list[str]]]:
    examples: list[tuple[str, list[str]]] = []
    shown = None
    for block in _blocks(""):
        for line in block.splitlines():
            if line.startswith("$ ellbrauer "):
                shown = []
                examples.append((line[2:], shown))
            elif line and shown is not None:
                shown.append(line)
            else:
                shown = None
    return examples


EXAMPLES = _examples()


def test_readme_has_examples():
    assert len(EXAMPLES) >= 13
    assert len(_blocks("python")) == 1


@pytest.mark.parametrize("command, shown", EXAMPLES, ids=[c for c, _ in EXAMPLES])
def test_example(capsys, monkeypatch, command, shown):
    monkeypatch.delenv("ELLBRAUER_VERBOSE", raising=False)
    argv = shlex.split(command, comments=True)
    assert argv[0] == "ellbrauer"
    code = main(argv[1:])
    out = capsys.readouterr().out.splitlines()
    exit_note = re.search(r"#.*\bexit (\d)", command)
    assert code == (int(exit_note[1]) if exit_note else 0)
    if "..." in shown:
        cut = shown.index("...")
        head, tail = shown[:cut], shown[cut + 1 :]
        assert len(out) >= len(head) + len(tail)
        assert out[: len(head)] == head
        assert out[len(out) - len(tail) :] == tail
    elif shown:
        assert out == shown


def test_library_snippet():
    exec(compile(_blocks("python")[0], "README.md", "exec"), {})
