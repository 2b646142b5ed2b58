"""The README's Python API example runs and prints what it says."""

from __future__ import annotations

import contextlib
import io
import re
from pathlib import Path

import charclass

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
