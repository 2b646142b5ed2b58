"""Command-line surface: exit codes, stream discipline, stable formats."""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest
from click.testing import CliRunner

from charclass import steenrod
from charclass.bott import _check_top_class_cost, main_matrix
from charclass.cli import main

runner = CliRunner()


def invoke(*args, env=None):
    return runner.invoke(main, list(args), env=env)


# ---------------------------------------------------------------------------
# verify-main


def test_verify_main_five_exits_zero():
    res = invoke("verify-main", "--n", "5")
    assert res.exit_code == 0
    data = json.loads(res.stdout)
    assert data == {
        "n": 5,
        "alpha_hat": 2,
        "grade": 3,
        "orientable": True,
        "methods": {"direct": True, "steenrod": True},
    }


def test_verify_main_seven_direct():
    res = invoke("verify-main", "--n", "7", "--method", "direct")
    assert res.exit_code == 0
    data = json.loads(res.stdout)
    assert data["methods"] == {"direct": True, "steenrod": None}


def test_verify_main_eight_is_input_error():
    res = invoke("verify-main", "--n", "8")
    assert res.exit_code == 2
    assert "unsupported dimension class" in res.stderr


def test_verify_main_auto_resolution():
    # auto on a large 1-mod-4 dimension falls back to the steenrod route
    res = invoke("verify-main", "--n", "29")
    assert res.exit_code == 0
    data = json.loads(res.stdout)
    assert data["methods"]["direct"] is None
    assert data["methods"]["steenrod"] is True


def test_verify_main_direct_cap_override():
    res = invoke("verify-main", "--n", "18", "--method", "direct")
    assert res.exit_code == 2  # beyond the default cap of 17
    res = invoke(
        "--direct-cap", "19", "verify-main", "--n", "18", "--method", "direct"
    )
    assert res.exit_code == 0


def test_verify_main_over_cap_hint_fits_the_dimension():
    # n = 18 = 2 (mod 4): auto falls back to the steenrod route on the base
    res = invoke("verify-main", "--n", "18")
    assert res.exit_code == 0
    assert json.loads(res.stdout)["methods"] == {"direct": None, "steenrod": True}
    for n in ("18", "21"):
        res = invoke("verify-main", "--n", n, "--method", "direct")
        assert res.exit_code == 2
        assert res.stdout == ""
        assert res.stderr == (
            f"error: direct method materializes a 2^{n}-dimensional basis; n = {n} "
            "exceeds the cap 17 (raise direct_cap or use the steenrod method)\n"
        )
    # and the suggested route does run at n = 21
    assert invoke("verify-main", "--n", "21", "--method", "steenrod").exit_code == 0


def test_verify_main_auto_verifies_circle_extensions_above_the_cap():
    for n in range(18, 128):
        if n % 4 in (2, 3):
            res = invoke("verify-main", "--n", str(n))
            assert res.exit_code == 0, (n, res.stderr)
            data = json.loads(res.stdout)
            assert data["methods"] == {"direct": None, "steenrod": True}, n


def test_verify_main_text_format():
    res = invoke("verify-main", "--n", "5", "--format", "text")
    assert res.exit_code == 0
    assert "orientable: true" in res.stdout


def test_verify_main_json_round_trips():
    from charclass.bott import MainReport, verify_main

    res = invoke("verify-main", "--n", "5")
    assert MainReport.from_json(res.stdout) == verify_main(5)


# ---------------------------------------------------------------------------
# chi-sq


def test_chi_sq_command():
    res = invoke("chi-sq", "--k", "3", "--z", "x4*x5", "--n", "5")
    assert res.exit_code == 0
    assert res.stdout.strip() == "x1*x2*x3*x4*x5"


def test_chi_sq_verbose_lists_tuples_on_stderr():
    # Sq(3) has weight 3 > deg(x4*x5), so it acts as 0 and is not listed
    res = invoke("chi-sq", "--k", "3", "--z", "x4*x5", "--n", "5", "--verbose")
    assert res.exit_code == 0
    assert res.stdout.strip() == "x1*x2*x3*x4*x5"
    assert res.stderr == "Sq(0,1)\n"


def test_chi_sq_verbose_readme_example():
    args = ("chi-sq", "--k", "9", "--z", "x1*x11*x12", "--n", "12")
    res = invoke(*args, "--verbose")
    assert res.exit_code == 0
    assert res.stdout == invoke(*args).stdout == "0\n"
    assert res.stderr == "Sq(0,3)\nSq(2,0,1)\n"


def test_chi_sq_verbose_lists_no_tuple_heavier_than_the_input():
    # grading 400 has 335566 tuples, none of weight <= 1
    res = invoke("chi-sq", "--k", "400", "--z", "x1", "--n", "5", "--verbose")
    assert res.exit_code == 0
    assert res.stdout == "0\n"
    assert res.stderr == ""


def test_chi_sq_above_the_top_degree_is_zero_at_once(monkeypatch):
    # Sq(1,...,1) of weight 8 lifts the degree-8 class to 510 > 509: the
    # ring vanishes there, so none of its 40320 assignments is evaluated
    def refuse(variables, t):
        raise AssertionError("assignments enumerated above the top degree")

    monkeypatch.setattr(steenrod, "_assignments", refuse)
    start = time.perf_counter()
    res = invoke(
        "chi-sq", "--n", "509", "--k", "502",
        "--z", "x4*x12*x28*x60*x124*x252*x508*x509",
    )
    assert time.perf_counter() - start < 1.0
    assert res.exit_code == 0
    assert res.stdout == "0\n"


def test_chi_sq_requires_exactly_one_matrix_source(tmp_path):
    res = invoke("chi-sq", "--k", "1", "--z", "x1")
    assert res.exit_code == 2
    path = tmp_path / "m.json"
    path.write_text(main_matrix(5).to_json())
    res = invoke(
        "chi-sq", "--k", "1", "--z", "x1", "--n", "5", "--matrix", str(path)
    )
    assert res.exit_code == 2


def test_chi_sq_matrix_file(tmp_path):
    path = tmp_path / "m.json"
    path.write_text(main_matrix(5).to_json())
    res = invoke("chi-sq", "--k", "3", "--z", "x4*x5", "--matrix", str(path))
    assert res.exit_code == 0
    assert res.stdout.strip() == "x1*x2*x3*x4*x5"


def test_chi_sq_bad_poly_text():
    res = invoke("chi-sq", "--k", "1", "--z", "x0+y", "--n", "5")
    assert res.exit_code == 2


# ---------------------------------------------------------------------------
# class-table


def test_class_table_b12_dual_row_nine_is_zero():
    res = invoke("class-table", "--n", "12", "--dual", "--up-to", "9")
    assert res.exit_code == 0
    rows = res.stdout.strip().splitlines()
    assert rows[0] == "degree,class"
    assert rows[1] == "0,1"
    assert rows[-1] == "9,0"


def test_class_table_torus_all_zero(tmp_path):
    from charclass.bott import BottMatrix

    path = tmp_path / "t3.json"
    path.write_text(BottMatrix(3, []).to_json())
    res = invoke("class-table", "--matrix", str(path))
    assert res.exit_code == 0
    rows = res.stdout.strip().splitlines()
    assert rows[1] == "0,1"
    assert all(row.endswith(",0") for row in rows[2:])


def test_class_table_b5_dual_row_three_nonzero():
    res = invoke("class-table", "--n", "5", "--dual", "--up-to", "3")
    rows = res.stdout.strip().splitlines()
    assert rows[-1] == "3,x1*x2*x3"


# sha256 of the full tables of main(n); the canonical term order is part of
# the output, so any change to rendering must keep these bytes
CLASS_TABLE_SHA256 = {
    (5, False): "6c356d98d57cd44b56271d2496aa1f53f584f9cd7dc6531b424f4d63a3a2e2cf",
    (5, True): "6c356d98d57cd44b56271d2496aa1f53f584f9cd7dc6531b424f4d63a3a2e2cf",
    (12, False): "701db2d1817ee2fafedb3c2ab7435b34d8eb92def6f8de28203967492a9856ee",
    (12, True): "efc556c91c9befbca99b1c1e30f25cac3a3aa93f610614cd83e8d5d9178125dc",
    (17, False): "561ceb6a8ee8837722888d039348b032e4199f33d366f081dd049c141f7e5c3e",
    (17, True): "1e4a8867b37b103c85cb8d3766358c8c4b7a6e1e39ea1f1ce1c15c336189c9ab",
}


@pytest.mark.parametrize("n, dual", sorted(CLASS_TABLE_SHA256))
def test_class_table_bytes_are_pinned(n, dual):
    res = invoke("class-table", "--n", str(n), *(["--dual"] if dual else []))
    assert res.exit_code == 0
    assert res.stderr == ""
    digest = hashlib.sha256(res.stdout_bytes).hexdigest()
    assert digest == CLASS_TABLE_SHA256[n, dual]


def test_class_table_malformed_matrix(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"n": 3, "ones": [[2, 1]]}')
    res = invoke("class-table", "--matrix", str(path))
    assert res.exit_code == 2
    path.write_text("not json")
    res = invoke("class-table", "--matrix", str(path))
    assert res.exit_code == 2


@pytest.mark.parametrize("ones", ["[[1.7, 2.2]]", "[[true, 2]]"])
def test_class_table_matrix_entries_must_be_integers(tmp_path, ones):
    path = tmp_path / "m.json"
    path.write_text(f'{{"n": 3, "ones": {ones}}}')
    res = invoke("class-table", "--matrix", str(path))
    assert res.exit_code == 2
    assert res.stdout == ""
    assert res.stderr == (
        'error: matrix JSON field "ones" must be a list of [i, j] integer pairs\n'
    )


def test_class_table_up_to_out_of_range():
    res = invoke("class-table", "--n", "5", "--up-to", "9")
    assert res.exit_code == 2


def test_class_table_honours_direct_cap():
    res = invoke("--direct-cap", "5", "class-table", "--n", "6")
    assert res.exit_code == 2
    assert res.stdout == ""
    assert res.stderr.startswith("error: ")
    assert "cap 5" in res.stderr
    # the default cap refuses a basis of 2^30 before allocating it
    res = invoke("class-table", "--n", "30", "--dual")
    assert res.exit_code == 2
    assert res.stderr.startswith("error: ")
    res = invoke("--direct-cap", "6", "class-table", "--n", "6")
    assert res.exit_code == 0


def test_class_table_cap_is_checked_before_the_matrix(monkeypatch):
    # main_matrix(400001) alone holds 800,000 entries; the cap on --n
    # refuses it unbuilt, with the message and exit code of a matrix file
    def unbuilt(n):
        raise AssertionError(f"main_matrix({n}) built before the cap check")

    monkeypatch.setattr("charclass.cli.main_matrix", unbuilt)
    for n in ("400001", "18"):
        start = time.perf_counter()
        res = invoke("class-table", "--n", n)
        assert time.perf_counter() - start < 1.0
        assert res.exit_code == 2
        assert res.stdout == ""
        assert res.stderr == (
            f"error: dimension {n} exceeds the direct-method cap 17; raise "
            "--direct-cap to force the computation\n"
        )
    res = invoke("--direct-cap", "5", "class-table", "--n", "5")
    assert res.exit_code == 1 and "built before the cap check" in repr(res.exception)


def test_class_table_dense_budget_is_refused_fast():
    # 41 sweeps over 2^34 words, refused before any allocation
    start = time.perf_counter()
    res = invoke("--direct-cap", "40", "class-table", "--n", "40")
    assert time.perf_counter() - start < 1.0
    assert res.exit_code == 2
    assert res.stdout == ""
    assert res.stderr == (
        "error: the dense engine at n = 40 needs (sweeps + 1) * words = "
        "41 * 2^34 word operations (> budget 200000000)\n"
    )


def test_closed_stdout_ends_quietly_with_141():
    # about 200 KB of CSV, more than a pipe holds, so a write must fail
    src = Path(__file__).resolve().parent.parent / "src"
    path = os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.Popen(
        [sys.executable, "-m", "charclass.cli", "class-table", "--n", "16"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    assert proc.stdout.readline() == b"degree,class\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 141
    assert err == b""


# ---------------------------------------------------------------------------
# scan-bott


def test_scan_bott_main_five_hits():
    res = invoke("scan-bott", "--dim", "5", "--family", "main")
    assert res.exit_code == 0
    records = json.loads(res.stdout)
    assert len(records) == 1
    assert records[0]["hit"] is True
    assert records[0]["matrix"] == json.loads(main_matrix(5).to_json())


def test_scan_bott_banded_twelve_reports_vanishing():
    res = invoke("scan-bott", "--dim", "12", "--family", "banded")
    assert res.exit_code == 0
    records = json.loads(res.stdout)
    assert records[0]["grade"] == 9
    assert records[0]["orientable"] is True
    assert records[0]["nonvanishing"] is False
    assert records[0]["hit"] is False


def test_scan_bott_main_twelve_reports_vanishing():
    res = invoke("scan-bott", "--dim", "12", "--family", "main")
    records = json.loads(res.stdout)
    assert records[0]["nonvanishing"] is False


def test_scan_bott_random_records_seeds():
    res = invoke(
        "scan-bott", "--dim", "10", "--family", "random",
        "--budget", "3", "--seed", "7",
    )
    assert res.exit_code == 0
    records = json.loads(res.stdout)
    assert [rec["seed"] for rec in records] == [7, 8, 9]
    assert all(rec["orientable"] for rec in records)
    again = invoke(
        "scan-bott", "--dim", "10", "--family", "random",
        "--budget", "3", "--seed", "7",
    )
    assert again.stdout == res.stdout  # reproducible


def test_scan_bott_random_streams_one_json_list():
    res = invoke("scan-bott", "--dim", "6", "--family", "random", "--budget", "4")
    assert res.exit_code == 0
    records = json.loads(res.stdout)
    assert len(records) == 4
    assert res.stdout == json.dumps(records, indent=2) + "\n"


def test_scan_bott_refusal_leaves_stdout_empty():
    res = invoke(
        "--direct-cap", "40", "scan-bott", "--dim", "40", "--family", "random",
        "--budget", "2",
    )
    assert res.exit_code == 2
    assert res.stdout == ""
    assert "dense engine" in res.stderr


def _scan_peak_bytes(budget: int) -> int:
    """Peak traced memory of a random scan whose output goes to /dev/null."""
    args = ["scan-bott", "--dim", "3", "--family", "random", "--budget", str(budget)]
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink), \
            contextlib.redirect_stderr(sink):
        tracemalloc.start()
        try:
            main.main(args, standalone_mode=False)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()


def test_scan_bott_random_memory_does_not_grow_with_budget():
    # each candidate and its record are dropped once written; holding them
    # all grew the peak by about 3 KB per candidate (13.9 MB from 500 to
    # 5000 candidates).  The slack covers the JSON encoder's reference
    # cycles, which wait for the cyclic collector.
    _scan_peak_bytes(1)  # warm caches and lazy imports
    small, large = _scan_peak_bytes(500), _scan_peak_bytes(5000)
    assert large < small + 1024 * 1024, (small, large)


def test_scan_bott_progress_stays_on_stderr():
    res = invoke("scan-bott", "--dim", "5", "--family", "main")
    json.loads(res.stdout)  # stdout is pure JSON
    assert "candidate" in res.stderr


def test_scan_bott_rejects_unknown_family():
    res = invoke("scan-bott", "--dim", "5", "--family", "spiral")
    assert res.exit_code == 2


def test_scan_bott_cap():
    res = invoke("scan-bott", "--dim", "30", "--family", "main")
    assert res.exit_code == 2


# ---------------------------------------------------------------------------
# qm


def test_check_key_stats_json():
    res = invoke("qm", "check-key", "--p", "3", "--stats")
    assert res.exit_code == 0
    assert json.loads(res.stdout) == {
        "total": 168,
        "zero": 104,
        "nonzero": 64,
        "gap_counts": {"3": 2, "5": 4, "6": 8, "7": 90},
    }


def test_check_key_plain_verdict():
    res = invoke("qm", "check-key", "--p", "2")
    assert res.exit_code == 0
    assert "verified=True" in res.stdout


def test_check_key_rejects_bad_p():
    res = invoke("qm", "check-key", "--p", "1")
    assert res.exit_code == 2


def test_check_key_over_budget_is_refused_fast():
    start = time.perf_counter()
    res = invoke("qm", "check-key", "--p", "11")
    assert time.perf_counter() - start < 1.0
    assert res.exit_code == 2
    assert res.stdout == ""
    assert res.stderr.startswith("error: the key-identity count for p = 11")


def test_check_key_p6_runs_past_the_stream():
    res = invoke("qm", "check-key", "--p", "6")
    assert res.exit_code == 0
    assert res.stdout == (
        "m=63: total=20158709760 zero=19084967936 nonzero=1073741824 "
        "verified=True\n"
    )


def test_check_zero_five_and_thirteen():
    res = invoke("qm", "check-zero", "--n", "5")
    assert res.exit_code == 0
    data = json.loads(res.stdout)
    assert data == {"n": 5, "a": [], "b": [{"j": 1, "ok": True}], "all_ok": True}

    res = invoke("qm", "check-zero", "--n", "13")
    assert res.exit_code == 0
    data = json.loads(res.stdout)
    assert data["a"] == [{"i": 1, "j": 2, "ok": True}]
    assert data["b"] == [{"j": 1, "ok": True}, {"j": 2, "ok": True}]
    assert data["all_ok"] is True


def test_steenrod_requests_over_budget_are_refused_fast():
    # 512 permutation-sum terms at n = 2045 sum to ~3.7e10 top-class steps,
    # and part b at n = 4097 needs one call of ~2.2e9; at n = 10000001 the
    # price comes before the matrix, whose 2e7 ones would take gigabytes
    for args in (("verify-main", "--n", "2045"), ("qm", "check-zero", "--n", "4097"),
                 ("verify-main", "--n", "10000001")):
        start = time.perf_counter()
        res = invoke(*args)
        assert time.perf_counter() - start < 1.0
        assert res.exit_code == 2
        assert res.stdout == ""
        assert "(> budget 500000000)" in res.stderr


def test_verify_main_refuses_from_the_base_749():
    # the budget first refuses the base at m = 749; n = 750, 751 share it
    for n in ("750", "751"):
        start = time.perf_counter()
        res = invoke("verify-main", "--n", n)
        assert time.perf_counter() - start < 1.0
        assert res.exit_code == 2
        assert res.stdout == ""
        assert "at n = 749 " in res.stderr
        assert "(> budget 500000000)" in res.stderr
    _check_top_class_cost(745, steenrod._permsum_calls(745))  # the base below is admitted


def test_check_zero_is_priced_by_its_top_class_calls():
    # part a (1, 3) at n = 29 plans 20,160,075 calls of 29 * 3^4 steps
    start = time.perf_counter()
    res = invoke("qm", "check-zero", "--n", "29")
    assert time.perf_counter() - start < 1.0
    assert res.exit_code == 2
    assert res.stdout == ""
    assert res.stderr.endswith(
        "error: top-class evaluation at n = 29 needs n * 3^popcount(E-1) = "
        "47356016175 steps (> budget 500000000)\n"
    )


def test_check_zero_part_b_is_priced_before_the_matrix(monkeypatch):
    # part b at n = 2^22 + 1 is one call of ~1.3e17 steps; main_matrix(n)
    # alone would hold 8.4M entries
    def unbuilt(n):
        raise AssertionError(f"main_matrix({n}) built before the price check")

    monkeypatch.setattr("charclass.qring.main_matrix", unbuilt)
    start = time.perf_counter()
    res = invoke("qm", "check-zero", "--n", "4194305")
    assert time.perf_counter() - start < 1.0
    assert res.exit_code == 2
    assert res.stdout == ""
    assert res.stderr.endswith(
        "error: top-class evaluation at n = 4194305 needs n * 3^popcount(E-1) = "
        "131621735223326745 steps (> budget 500000000)\n"
    )


def test_check_zero_budget_option_is_gone():
    res = invoke("qm", "check-zero", "--budget", "5", "--n", "13")
    assert res.exit_code == 2
    assert res.stdout == ""


def test_check_zero_rejects_bad_dimension():
    for n in ("4", "12", "3"):
        res = invoke("qm", "check-zero", "--n", n)
        assert res.exit_code == 2


# ---------------------------------------------------------------------------
# dold


def test_dold_verify_inline_spec():
    res = invoke("dold", "verify", "--n", "1", "--ms", "2")
    assert res.exit_code == 0
    assert json.loads(res.stdout) == {
        "n": 1,
        "ms": [2],
        "dimension": 5,
        "alpha_hat": 2,
        "grade": 3,
        "orientable": True,
        "nonvanishing": True,
    }


def test_dold_verify_spec_file(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text('{"n": 3, "ms": [2, 4]}')
    res = invoke("dold", "verify", "--spec", str(path))
    assert res.exit_code == 0
    assert json.loads(res.stdout)["dimension"] == 15


def test_dold_verify_falsified_is_exit_one():
    # P(1;1) is not orientable: the verifier runs fine but reports failure
    res = invoke("dold", "verify", "--n", "1", "--ms", "1")
    assert res.exit_code == 1
    assert json.loads(res.stdout)["orientable"] is False
    assert res.stderr == (
        "not verified: it is not orientable (w_1 != 0), so P(1;1) is not a "
        "witness\n"
    )


def test_dold_verify_names_the_failed_predicate():
    # P(2;1) is orientable, but its boundary-grade dual class vanishes
    res = invoke("dold", "verify", "--n", "2", "--ms", "1")
    assert res.exit_code == 1
    assert json.loads(res.stdout)["nonvanishing"] is False
    assert res.stderr == (
        "not verified: the boundary-grade dual class wbar_2 vanishes, so "
        "P(2;1) is not a witness\n"
    )


def test_dold_verify_input_errors(tmp_path):
    res = invoke("dold", "verify", "--n", "1")
    assert res.exit_code == 2
    path = tmp_path / "spec.json"
    path.write_text("{bad")
    res = invoke("dold", "verify", "--spec", str(path))
    assert res.exit_code == 2
    res = invoke("dold", "verify", "--spec", str(path), "--n", "1", "--ms", "2")
    assert res.exit_code == 2


@pytest.mark.parametrize("ms", ['"22"', "2"])
def test_dold_verify_spec_ms_must_be_a_list_of_integers(tmp_path, ms):
    path = tmp_path / "spec.json"
    path.write_text(f'{{"n": 1, "ms": {ms}}}')
    res = invoke("dold", "verify", "--spec", str(path))
    assert res.exit_code == 2
    assert res.stdout == ""
    assert res.stderr == (
        f'error: spec JSON field "ms" must be a list of integers, got {ms}\n'
    )


def test_dold_scan():
    res = invoke("dold", "scan", "--dim", "15", "--max-r", "2")
    assert res.exit_code == 0
    assert json.loads(res.stdout) == [{"n": 3, "ms": [2, 4]}]


def test_dold_scan_is_priced_before_any_work():
    # the first full scan over the budget of 50,000 candidates
    start = time.perf_counter()
    res = invoke("dold", "scan", "--dim", "8191", "--max-r", "2730")
    assert time.perf_counter() - start < 1.0
    assert res.exit_code == 2
    assert res.stdout == ""
    assert res.stderr == (
        "error: the scan of dimension 8191 with r <= 2730 screens more specs "
        "than the budget of 50000\n"
    )
    # the first full scan with a hit too large for the grids: no hit printed
    res = invoke("dold", "scan", "--dim", "611", "--max-r", "204")
    assert res.exit_code == 2
    assert res.stdout == ""
    assert res.stderr == (
        "error: ring of DoldSpec(n=259, ms=(16, 32, 128)) needs 18815940 dense "
        "cells (> 16777216)\n"
    )


def test_dold_scan_huge_max_r_stops_at_the_last_spec():
    start = time.perf_counter()
    res = invoke("dold", "scan", "--dim", "10", "--max-r", "1000000000000")
    assert time.perf_counter() - start < 1.0
    ref = invoke("dold", "scan", "--dim", "10", "--max-r", "5")
    assert (res.exit_code, res.stdout, res.stderr) == (
        ref.exit_code, ref.stdout, ref.stderr
    )
    assert res.exit_code == 0


# ---------------------------------------------------------------------------
# group-level config


def test_workers_option_is_gone():
    res = invoke("--workers", "2", "qm", "check-key", "--p", "2")
    assert res.exit_code == 2
    assert res.stdout == ""


def test_direct_cap_must_be_positive():
    res = invoke("--direct-cap", "0", "qm", "check-key", "--p", "2")
    assert res.exit_code == 2
    assert res.stderr == "error: direct-cap must be >= 1, got 0\n"


def test_help_screens():
    for args in ([], ["qm"], ["dold"]):
        res = invoke(*args, "--help")
        assert res.exit_code == 0


def _run_src_python(code: str, check: bool = True) -> subprocess.CompletedProcess:
    """``python -c code`` in a fresh interpreter with this tree's ``src``
    first on the path; stdout and stderr are kept as bytes."""
    src = Path(__file__).resolve().parent.parent / "src"
    path = os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])
    return subprocess.run(
        [sys.executable, "-c", code], capture_output=True, check=check,
        env=dict(os.environ, PYTHONPATH=path),
    )


def test_numpy_never_loads():
    # NumPy costs about half of a command-line start, and the package needs
    # none: the Dold grids are packed ints and the p <= 4 key fold is
    # bit-sliced on one int.  No scan, verdict, class table or key check
    # loads it.
    code = "\n".join([
        "import sys",
        "import charclass.cli",
        "from charclass import (DoldSpec, dual_sw, format_poly, main_matrix,",
        "    scan_dold, total_sw, verify_dold, verify_key, verify_main)",
        "from charclass.dold import dual_sw_dold, graded_piece, trunc_mul",
        "M = main_matrix(9)",
        "for classes in (total_sw(M), dual_sw(M, M.n)):",
        "    [format_poly(classes[k]) for k in range(M.n + 1)]",
        "assert verify_main(13).verified",
        "assert scan_dold(24, 8) == [] and scan_dold(31, 3)",
        "spec = DoldSpec(3, (2, 4))",
        "assert verify_dold(spec).verified",
        "wbar = dual_sw_dold(spec, 10)",
        "str(trunc_mul(wbar, graded_piece(wbar, 10), spec))",
        "assert [verify_key(p).verified for p in (2, 3, 4)] == [True] * 3",
        "print('numpy' in sys.modules)",
    ])
    assert _run_src_python(code).stdout == b"False\n"


def test_check_key_runs_with_numpy_unimportable():
    # the golden bytes of `qm check-key --p 4 --stats`, the last command
    # that once imported NumPy, with any import of NumPy made to fail
    args = ["qm", "check-key", "--p", "4", "--stats"]
    golden = json.loads(
        (Path(__file__).resolve().parent / "data" / "cli_golden.json").read_text()
    )
    (case,) = [case for case in golden["cases"] if case["args"] == args]
    code = "\n".join([
        "import sys",
        "sys.modules['numpy'] = None",
        "from charclass.cli import main",
        f"main({args!r}, prog_name='charclass')",
    ])
    res = _run_src_python(code, check=False)
    assert res.returncode == case["exit"]
    assert hashlib.sha256(res.stdout).hexdigest() == case["stdout"]
    assert hashlib.sha256(res.stderr).hexdigest() == case["stderr"]
