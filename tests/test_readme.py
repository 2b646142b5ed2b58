"""The README's examples run and print what they say."""

from __future__ import annotations

import contextlib
import io
import re
import shlex
from pathlib import Path

import pytest
from click.testing import CliRunner

import charclass
from charclass.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def _python_block() -> str:
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.DOTALL)
    assert len(blocks) == 1
    return blocks[0]


def test_readme_api_example_runs():
    code = _python_block()
    imported = re.search(r"from charclass import \((.*?)\)", code, re.DOTALL)
    names = re.findall(r"\b\w+\b", re.sub(r"#.*", "", imported.group(1)))
    assert names and set(names) <= set(charclass.__all__)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    assert out.getvalue().splitlines() == ["x1*x2*x3", "True", "True"]


def _cli_examples() -> list[tuple[str, str | None]]:
    """Each ``$ charclass ...`` line of the sh blocks, with the output the
    README shows under it (None when it shows none)."""
    examples: list[tuple[str, list[str]]] = []
    for block in re.findall(r"```sh\n(.*?)```", README.read_text(), re.DOTALL):
        current = None
        for line in block.splitlines():
            if line.startswith("$ "):
                current = None
                if line.startswith("$ charclass "):
                    current = []
                    examples.append((line[len("$ charclass "):], current))
            elif current is not None:
                current.append(line + "\n")
    return [(args, "".join(out) if out else None) for args, out in examples]


CLI_EXAMPLES = _cli_examples()


def test_readme_has_cli_examples():
    assert len(CLI_EXAMPLES) >= 8
    assert sum(out is not None for _, out in CLI_EXAMPLES) >= 4


@pytest.mark.parametrize(
    "args, expected", CLI_EXAMPLES, ids=[args for args, _ in CLI_EXAMPLES]
)
def test_readme_cli_example(args, expected):
    res = CliRunner().invoke(main, shlex.split(args))
    assert res.exit_code == 0, res.stderr
    if expected is not None:
        assert res.stdout == expected
