"""Command-line surface: exit codes, stream discipline, stable formats."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from click.testing import CliRunner

from charclass import steenrod
from charclass.bott import main_matrix
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
        "verify-main", "--n", "18", "--method", "direct", "--direct-cap", "19"
    )
    assert res.exit_code == 0


def test_verify_main_over_cap_hint_fits_the_dimension():
    # n = 18 = 2 (mod 4): the steenrod method does not apply there
    res = invoke("verify-main", "--n", "18")
    assert res.exit_code == 2
    assert res.stdout == ""
    assert res.stderr == (
        "error: direct method materializes a 2^18-dimensional basis; n = 18 "
        "exceeds the cap 17 (raise direct_cap; the steenrod method needs "
        "n = 1 (mod 4))\n"
    )
    res = invoke("verify-main", "--n", "21", "--method", "direct")
    assert res.exit_code == 2
    assert res.stdout == ""
    assert res.stderr == (
        "error: direct method materializes a 2^21-dimensional basis; n = 21 "
        "exceeds the cap 17 (raise direct_cap or use the steenrod method)\n"
    )
    # and the suggested route does run at n = 21
    assert invoke("verify-main", "--n", "21", "--method", "steenrod").exit_code == 0


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
    # and part b at n = 4097 needs one call of ~2.2e9
    for args in (("verify-main", "--n", "2045"), ("qm", "check-zero", "--n", "4097")):
        start = time.perf_counter()
        res = invoke(*args)
        assert time.perf_counter() - start < 1.0
        assert res.exit_code == 2
        assert res.stdout == ""
        assert "(> budget 500000000)" in res.stderr


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
