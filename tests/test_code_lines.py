"""The code-line counter in ``tools/code_lines.py``."""

from __future__ import annotations

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"


def _code_lines():
    spec = importlib.util.spec_from_file_location("code_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.code_lines


SNIPPET = '''\
"""Module docstring,
over two lines."""

import os  # a trailing comment keeps its line

# a comment-only line


class A:
    """Class docstring."""

    x = """a multi-line string
    that is not a docstring"""

    def f(self):
        """Function docstring
        over two lines.
        """
        "a second string statement is code"
        return (1 +
                2)
'''


def test_code_lines_drop_comments_blanks_and_docstrings():
    # import, class, x = (2 lines), def, string statement, return (2 lines)
    assert _code_lines()(SNIPPET) == 8
    assert _code_lines()("") == 0
    assert _code_lines()('"""Only a docstring."""\n# and a comment\n') == 0
