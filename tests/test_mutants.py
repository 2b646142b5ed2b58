"""The mutant table of ``tools/mutants.py`` stays in step with the code.

A full mutant run takes a minute or two, so these tests check the table:
every snippet occurs exactly once in its file, and every mutant names tests
that exist.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

_spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
TOOL = sys.modules["mutants"] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(TOOL)  # after registering it: its dataclass looks it up
MUTANTS = TOOL.MUTANTS


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.name for m in MUTANTS])
def test_snippet_occurs_once(mutant):
    assert TOOL.snippet_count(mutant) == 1
    assert mutant.new != mutant.old


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.name for m in MUTANTS])
def test_mutant_names_existing_tests(mutant):
    assert mutant.tests
    for node in mutant.tests:
        path, _, name = node.partition("::")
        function = name.split("[")[0].split("::")[-1]  # past a test class
        assert f"def {function}(" in (ROOT / path).read_text(), node


def test_mutant_names_are_unique():
    names = [m.name for m in MUTANTS]
    assert len(set(names)) == len(names)
