"""Golden CLI outputs: exit code and SHA-256 of stdout and stderr per invocation.

``tests/data/cli_golden.json`` lists a fixed set of fast invocations that
covers every subcommand, ``--verbose``, ``--format text``, the refusals and
the bad-input paths, with the input files they read.  A refactor that keeps
the CLI byte for byte keeps every case passing.  When a change means to
alter output, rewrite the expectations from the new code with

    PYTHONPATH=src python tests/test_cli_golden.py

and review the cases whose hashes moved.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest
from click.testing import CliRunner

from charclass.cli import main

GOLDEN = Path(__file__).resolve().parent / "data" / "cli_golden.json"
DATA = json.loads(GOLDEN.read_text())


def _run(runner: CliRunner, args: list[str]) -> dict:
    # a fixed width keeps the help screens independent of the terminal
    res = runner.invoke(main, args, terminal_width=80)
    return {
        "args": args,
        "exit": res.exit_code,
        "stdout": hashlib.sha256(res.stdout_bytes).hexdigest(),
        "stderr": hashlib.sha256(res.stderr_bytes).hexdigest(),
    }


@pytest.fixture(scope="module")
def runner():
    """A runner inside a directory that holds the golden input files."""
    runner = CliRunner()
    with runner.isolated_filesystem():
        for name, text in DATA["files"].items():
            Path(name).write_text(text)
        yield runner


@pytest.mark.parametrize(
    "case", DATA["cases"], ids=lambda case: " ".join(case["args"]) or "(none)"
)
def test_cli_output_is_unchanged(runner, case):
    assert _run(runner, case["args"]) == case


if __name__ == "__main__":
    runner = CliRunner()
    with runner.isolated_filesystem():
        for name, text in DATA["files"].items():
            Path(name).write_text(text)
        cases = [_run(runner, case["args"]) for case in DATA["cases"]]
    GOLDEN.write_text(json.dumps({**DATA, "cases": cases}, indent=1) + "\n")
    print(f"wrote {len(cases)} cases to {GOLDEN}")
