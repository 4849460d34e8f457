"""README's examples, run as written: each `$ smallcuts ...` block through
the CLI in a fresh directory, and the library example's printed line."""

import contextlib
import io
import re
import shlex
from pathlib import Path

from smallcuts.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
BLOCKS = re.findall(r"^```(\w*)\n(.*?)^```", README, flags=re.M | re.S)
SHELL = [body for lang, body in BLOCKS if body.startswith("$ smallcuts ")]
PYTHON = [body for lang, body in BLOCKS if lang == "python"]


def _sessions(body):
    """(argv, shown stdout lines) per `$ smallcuts` command of a block."""
    sessions = []
    for line in body.splitlines():
        if line.startswith("$ smallcuts "):
            sessions.append((shlex.split(line)[2:], []))
        else:
            sessions[-1][1].append(line)
    return [(argv, "\n".join(shown).rstrip("\n").split("\n")) for argv, shown in sessions]


def _assert_shown(got, shown):
    """Each shown line matches the next stdout line; `...` skips ahead to
    the next shown line, and the last one to the end."""
    at = 0
    skipping = False
    for line in shown:
        if line == "...":
            skipping = True
            continue
        if skipping:
            assert line in got[at:], f"{line!r} not printed"
            at = got.index(line, at)
            skipping = False
        assert at < len(got) and got[at] == line, f"printed {got[at:at + 1]}, README shows {line!r}"
        at += 1
    assert skipping or at == len(got), f"printed more than README shows: {got[at:]}"


def test_readme_has_examples():
    assert len(SHELL) >= 4 and len(PYTHON) == 1


def test_readme_cli_examples(tmp_path, monkeypatch, capsys):
    """In order and in one directory: `solve g.json` reads what `generate`
    wrote."""
    monkeypatch.chdir(tmp_path)
    for body in SHELL:
        for argv, shown in _sessions(body):
            assert main(argv) == 0, argv
            _assert_shown(capsys.readouterr().out.splitlines(), shown)


def test_readme_library_example():
    code = PYTHON[0]
    want = [line[2:] for line in code.splitlines() if line.startswith("# ")]
    assert want == ["(1,) 1/2 1/2"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {})
    assert out.getvalue().splitlines() == want
