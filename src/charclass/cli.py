"""Command-line interface.

Subcommands map one-to-one onto the library verifiers and class computations:

    verify-main   orientability + dual-class nonvanishing for the main family
    chi-sq        evaluate chi Sq^k on a polynomial in a Bott manifold ring
    class-table   CSV of w_i or dual w_i for a Bott matrix
    scan-bott     evaluate a family of Bott matrices at the critical grade
    qm check-key  count the key-identity expansion and its parity ledger
    qm check-zero run both zero-product verifiers over all admissible cases
    dold verify   orientability + dual-class nonvanishing for a Dold manifold
    dold scan     enumerate Dold specs of a target dimension that verify

``--direct-cap N`` is one run-wide option, placed before the subcommand: the
largest n whose 2^n squarefree basis is materialized (the direct route of
verify-main, class-table, scan-bott).  verify-main runs the direct and the
Steenrod route up to the cap and the Steenrod route alone above it, for
every n != 0 mod 4.

Exit codes are uniform: 0 verified/success, 1 falsified, 2 invalid input or
refused (infeasible) computation, 141 stdout closed by its reader.  Data goes
to stdout, progress and error text to stderr, so piped JSON/CSV stays clean.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path
from typing import NoReturn

import click

from .bott import (
    DEFAULT_DIRECT_CAP,
    BottMatrix,
    FeasibilityError,
    alpha_hat,
    banded_matrix,
    dual_sw,
    is_orientable,
    main_matrix,
    random_orientable_matrix,
    total_sw,
    verify_main,
)
from .dold import DoldSpec, scan_dold, verify_dold
from .poly2 import format_poly, parse_poly
from .qring import verify_key, verify_zero_a, verify_zero_b
from .steenrod import chi_sq, enumerate_tuples, format_tuple

__all__ = ["main"]

DEFAULT_SCAN_SEED = 0x5EED_2026


class _Main(click.Group):
    """The top-level group; its ``invoke`` runs every subcommand, so errors
    map to exit codes once, here.

    Invalid input and refused computations exit with code 2 and a message.
    A closed stdout (``| head``) is not an input error: the command ends
    quietly with 141, the status of a writer killed by SIGPIPE.
    """

    def invoke(self, ctx: click.Context):
        try:
            return super().invoke(ctx)
        except BrokenPipeError:
            # the flush at exit would fail again on the closed pipe
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            raise SystemExit(141) from None
        except (ValueError, FeasibilityError, OSError) as exc:
            click.echo(f"error: {exc}", err=True)
            raise SystemExit(2) from exc


@click.group(cls=_Main)
@click.option(
    "--direct-cap",
    "direct_cap",
    type=int,
    default=DEFAULT_DIRECT_CAP,
    show_default=True,
    help="Largest n for which the full dual-class table is materialized.",
)
@click.pass_context
def main(ctx: click.Context, direct_cap: int) -> None:
    """Exact mod-2 characteristic-class computations and verifiers."""
    if direct_cap < 1:
        raise ValueError(f"direct-cap must be >= 1, got {direct_cap}")
    ctx.obj = direct_cap  # the run-wide direct-method cap


def _matrix_options(command):
    """The --n / --matrix pair of a command that reads one Bott matrix."""
    command = click.option(
        "--matrix", "matrix_path", type=click.Path(), default=None,
        help="Path to a Bott matrix JSON file.",
    )(command)
    return click.option(
        "--n", type=int, default=None, help="Use the main-family matrix."
    )(command)


def _load_matrix(
    n: int | None, matrix_path: str | None, cap: int | None = None
) -> BottMatrix:
    """The matrix of --n or --matrix; with a ``cap``, a dimension over it is
    refused, and a main-family one before its matrix is built."""
    if (n is None) == (matrix_path is None):
        raise ValueError(
            "provide exactly one of --n (main-family matrix) or --matrix PATH"
        )
    if n is not None:
        _check_direct_cap(n, cap)
        return main_matrix(n)
    matrix = BottMatrix.from_json(Path(matrix_path).read_text())
    _check_direct_cap(matrix.n, cap)
    return matrix


def _check_direct_cap(n: int, cap: int | None) -> None:
    if cap is not None and n > cap:
        raise FeasibilityError(
            f"dimension {n} exceeds the direct-method cap "
            f"{cap}; raise --direct-cap to force the computation"
        )


def _falsified(what: str) -> NoReturn:
    """Exit 1: a check the theory guarantees did not hold."""
    click.echo(
        f"falsified: {what} - this indicates an implementation bug, not a "
        "mathematical finding",
        err=True,
    )
    raise SystemExit(1)


@main.command("verify-main")
@click.option("--n", type=int, required=True, help="Manifold dimension.")
@click.option(
    "--method",
    type=click.Choice(["auto", "direct", "steenrod", "both"]),
    default="auto",
    show_default=True,
    help="auto runs both up to --direct-cap and steenrod above it.",
)
@click.option(
    "--format",
    "fmt",
    type=click.Choice(["json", "text"]),
    default="json",
    show_default=True,
)
@click.pass_obj
def cmd_verify_main(cap: int, n: int, method: str, fmt: str) -> None:
    """Verify orientability and dual-class nonvanishing in dimension n."""
    if method == "auto":
        method = "both" if n <= cap else "steenrod"
    report = verify_main(n, method=method, direct_cap=cap)
    if fmt == "json":
        click.echo(report.to_json())
    else:
        for key, value in report.to_json_dict().items():
            click.echo(f"{key}: {json.dumps(value)}")
    if not report.verified:
        _falsified("the expected class behaviour did not hold")


@main.command("chi-sq")
@click.option("--k", type=int, required=True, help="Operation degree k.")
@click.option(
    "--z", type=str, required=True, help='Input polynomial, e.g. "x4*x5".'
)
@_matrix_options
@click.option(
    "--verbose",
    is_flag=True,
    help="List the contributing basis operations on stderr.",
)
def cmd_chi_sq(
    k: int, z: str, n: int | None, matrix_path: str | None, verbose: bool
) -> None:
    """Evaluate chi Sq^k on a polynomial in the ring of a Bott matrix."""
    matrix = _load_matrix(n, matrix_path)
    poly = parse_poly(z)
    if verbose:
        for t in enumerate_tuples(k, poly.degree()):
            click.echo(format_tuple(t), err=True)
    click.echo(format_poly(chi_sq(k, poly, matrix)))


@main.command("class-table")
@_matrix_options
@click.option("--dual", is_flag=True, help="Emit dual classes instead.")
@click.option(
    "--up-to",
    "up_to",
    type=int,
    default=None,
    help="Largest degree to emit (default: the manifold dimension).",
)
@click.pass_obj
def cmd_class_table(
    cap: int,
    n: int | None,
    matrix_path: str | None,
    dual: bool,
    up_to: int | None,
) -> None:
    """CSV table of w_i (or dual w_i) normal forms, degrees 0..up-to."""
    matrix = _load_matrix(n, matrix_path, cap)
    if up_to is None:
        up_to = matrix.n
    if not 0 <= up_to <= matrix.n:
        raise ValueError(f"--up-to must lie in 0..{matrix.n}, got {up_to}")
    classes = dual_sw(matrix, up_to) if dual else total_sw(matrix)
    click.echo("degree,class")
    for k in range(up_to + 1):
        click.echo(f"{k},{format_poly(classes[k])}")


@main.command("scan-bott")
@click.option("--dim", type=int, required=True, help="Manifold dimension.")
@click.option(
    "--family",
    type=click.Choice(["main", "banded", "random"]),
    required=True,
)
@click.option(
    "--bandwidth",
    type=int,
    default=2,
    show_default=True,
    help="Band width for the banded family.",
)
@click.option(
    "--budget",
    type=int,
    default=16,
    show_default=True,
    help="Number of candidates for the random family.",
)
@click.option(
    "--seed",
    type=int,
    default=DEFAULT_SCAN_SEED,
    show_default=True,
    help="Base seed for the random family (recorded per candidate).",
)
@click.pass_obj
def cmd_scan_bott(
    cap: int, dim: int, family: str, bandwidth: int, budget: int, seed: int
) -> None:
    """Evaluate the dual class at grade dim - alpha_hat(dim) over a family.

    Emits a JSON list with one record per candidate; a record is a hit when
    the matrix is orientable and the critical dual class does not vanish.
    """
    if dim < 1:
        raise ValueError(f"--dim must be >= 1, got {dim}")
    if budget < 1:
        raise ValueError(f"--budget must be >= 1, got {budget}")
    if dim > cap:
        raise FeasibilityError(
            f"dim {dim} exceeds the direct-method cap {cap}; "
            "raise --direct-cap to force the computation"
        )
    if family == "main":
        count, candidates = 1, [(main_matrix(dim), None)]
    elif family == "banded":
        count, candidates = 1, [(banded_matrix(dim, bandwidth), None)]
    else:
        count = budget
        candidates = (
            (random_orientable_matrix(dim, seed + i), seed + i)
            for i in range(budget)
        )
    grade = dim - alpha_hat(dim)
    # candidates are made and written one at a time, so memory does not grow
    # with --budget.  The text is json.dumps(records, indent=2), one record
    # at a time; the "[" waits for the first record, so a refusal leaves
    # stdout empty.
    encoder = json.JSONEncoder(indent=2)
    opening = "["
    for index, (matrix, used_seed) in enumerate(candidates):
        click.echo(f"candidate {index + 1}/{count}", err=True)
        orientable = is_orientable(matrix)
        nonvanishing = not dual_sw(matrix, grade)[grade].is_zero()
        record = {
            "matrix": json.loads(matrix.to_json()),
            "orientable": orientable,
            "grade": grade,
            "nonvanishing": nonvanishing,
            "hit": orientable and nonvanishing,
        }
        if used_seed is not None:
            record["seed"] = used_seed
        # a list item sits one level (two spaces) deeper than the record
        # alone; JSON strings escape their newlines, so every "\n" is a break
        item = encoder.encode(record).replace("\n", "\n  ")
        click.echo(f"{opening}\n  {item}", nl=False)
        opening = ","
    click.echo("\n]")


@main.group("qm")
def qm_group() -> None:
    """Verifiers for the truncated chain ring Q_m."""


@qm_group.command("check-key")
@click.option("--p", type=int, required=True, help="Exponent: m = 2^p - 1.")
@click.option("--stats", is_flag=True, help="Emit the full ledger as JSON.")
def cmd_check_key(p: int, stats: bool) -> None:
    """Count the key-identity expansion in Q_{2^p-1} and check its parity.

    The ledger comes from an exact counting DP; for p <= 4 it is
    cross-checked against the streamed expansion.  p >= 11 is refused.
    """
    report = verify_key(p)
    if stats:
        click.echo(json.dumps(report.to_json_dict()))
    else:
        click.echo(
            f"m={report.m}: total={report.total} zero={report.zero} "
            f"nonzero={report.nonzero} verified={report.verified}"
        )
    if not report.verified:
        _falsified("parity ledger is not even")


@qm_group.command("check-zero")
@click.option("--n", type=int, required=True, help="Dimension, n = 1 mod 4.")
def cmd_check_zero(n: int) -> None:
    """Run both zero-product verifiers over every admissible case.

    A case whose top-class calls pass the step budget is refused (n = 29).
    """
    if n < 5 or n % 4 != 1:
        raise ValueError(f"n must be 5, 9, 13, ... (1 mod 4), got {n}")
    r = (n - 1).bit_count()
    part_a = []
    for j in range(1, r + 1):
        for i in range(1, j):
            click.echo(f"part a: (i, j) = ({i}, {j})", err=True)
            part_a.append({"i": i, "j": j, "ok": verify_zero_a(n, i, j)})
    part_b = []
    for j in range(1, r + 1):
        click.echo(f"part b: j = {j}", err=True)
        part_b.append({"j": j, "ok": verify_zero_b(n, j)})
    all_ok = all(c["ok"] for c in part_a) and all(c["ok"] for c in part_b)
    click.echo(json.dumps({"n": n, "a": part_a, "b": part_b, "all_ok": all_ok}))
    if not all_ok:
        _falsified("a product expected to vanish did not")


@main.group("dold")
def dold_group() -> None:
    """Generalized Dold manifold verifiers."""


@dold_group.command("verify")
@click.option(
    "--spec",
    "spec_path",
    type=click.Path(),
    default=None,
    help='Path to a spec JSON file like {"n": 1, "ms": [2]}.',
)
@click.option("--n", type=int, default=None, help="Sphere dimension n.")
@click.option(
    "--ms",
    type=int,
    multiple=True,
    help="Projective factor size m_i (repeatable).",
)
def cmd_dold_verify(
    spec_path: str | None, n: int | None, ms: tuple[int, ...]
) -> None:
    """Verify orientability and dual-class nonvanishing for P(n; m_1..m_r)."""
    if spec_path is not None:
        if n is not None or ms:
            raise ValueError("--spec cannot be combined with --n/--ms")
        spec = DoldSpec.from_json(Path(spec_path).read_text())
    else:
        if n is None or not ms:
            raise ValueError("provide --spec PATH, or --n with at least one --ms")
        spec = DoldSpec(n, ms)
    report = verify_dold(spec)
    click.echo(report.to_json())
    if not report.verified:
        failed = []
        if not report.orientable:
            failed.append("it is not orientable (w_1 != 0)")
        if not report.nonvanishing:
            failed.append(
                f"the boundary-grade dual class wbar_{report.grade} vanishes"
            )
        ms = ",".join(str(m) for m in spec.ms)
        click.echo(
            f"not verified: {' and '.join(failed)}, so P({spec.n};{ms}) is "
            "not a witness",
            err=True,
        )
        raise SystemExit(1)


@dold_group.command("scan")
@click.option("--dim", type=int, required=True, help="Target dimension N.")
@click.option(
    "--max-r",
    "max_r",
    type=int,
    default=2,
    show_default=True,
    help="Largest number of projective factors to try.",
)
def cmd_dold_scan(dim: int, max_r: int) -> None:
    """List every spec of dimension N (r <= max-r) whose verification passes.

    A scan of over 50,000 specs is refused (the full scan from N = 76).
    """
    specs = scan_dold(dim, max_r)
    click.echo(json.dumps([{"n": s.n, "ms": list(s.ms)} for s in specs]))


if __name__ == "__main__":
    main()
