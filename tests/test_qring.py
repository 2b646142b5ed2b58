"""Chain-ring combinatorics: excess sequences, gaps, and the verifiers."""

from __future__ import annotations

import inspect
import itertools
import json
import math
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import charclass
from charclass import qring
from charclass.bott import chain_matrix, main_matrix, normal_form
from charclass.poly2 import Monomial, Poly
from charclass.qring import (
    KeyReport,
    _fold_range,
    decompose,
    excess,
    expand_stream,
    is_zero_monomial,
    stream_count,
    verify_key,
    verify_zero_a,
    verify_zero_b,
)
from charclass.bott import FeasibilityError
from charclass.steenrod import permsum_terms
from oracles import numpy_fold_range

X = Poly.var


def _compositions(total: int, parts: int):
    """All exponent sequences of the given length summing to total."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, parts - 1):
            yield (head, *rest)


def _monomial_poly(e: tuple[int, ...]) -> Poly:
    return Poly.of(
        [Monomial.from_exponents({i + 1: v for i, v in enumerate(e) if v})]
    )


# ---------------------------------------------------------------------------
# excess sequences


def test_excess_examples():
    assert tuple(excess((0, 3, 1, 0, 0, 2))) == (-1, 1, 1, 0, -1, 0)
    m = 5
    assert tuple(excess((1,) * m)) == (0,) * m
    assert tuple(excess((0, 0, 0, 0, 5))) == (-1, -2, -3, -4, 0)


def test_excess_invariants():
    for m in range(1, 7):
        for e in _compositions(m, m):
            deltas = tuple(excess(e))
            assert deltas[-1] == 0
            prev = 0
            for i, delta in enumerate(deltas):
                baseline = prev if i else 0
                assert delta >= baseline - 1
                prev = delta


def test_excess_degree_mismatch():
    with pytest.raises(ValueError, match="degree"):
        excess((1, 2))
    with pytest.raises(ValueError):
        excess((-1, 2, 2))


@pytest.mark.parametrize("e", [(True, True), (1.0, 1), (0.5, 1.5), ("1",)])
def test_chain_ring_exponents_must_be_integers(e):
    # int() once read (True, True) as (1, 1), with excess (0, 0)
    for check in (excess, is_zero_monomial, decompose):
        with pytest.raises(ValueError, match="exponents must be integers"):
            check(e)


# ---------------------------------------------------------------------------
# zero test and decomposition


def test_is_zero_examples():
    assert is_zero_monomial((0, 3, 1, 0, 0, 2))
    assert not is_zero_monomial((1, 1, 1))
    assert not is_zero_monomial((0, 0, 3))  # x_3^3 = x_1 x_2 x_3 in Q_3
    assert is_zero_monomial((0, 3, 0))
    assert is_zero_monomial((2, 0, 1))


def test_zero_test_matches_chain_ring_rewriting():
    # criterion anchor at small degree; the acceptance suite runs m <= 8
    for m in range(1, 7):
        M = chain_matrix(m)
        top = _monomial_poly((1,) * m)
        for e in _compositions(m, m):
            nf = normal_form(_monomial_poly(e), M)
            if is_zero_monomial(e):
                assert nf.is_zero()
            else:
                assert nf == top


def test_decompose_examples():
    d1 = decompose((0, 3, 1, 0, 0, 2))
    assert d1.head == (0, 3, 1)
    assert d1.d == 3
    assert d1.degree == 4
    assert d1.gap == 4
    assert d1.tail == (0, 2)

    d2 = decompose((2, 0, 1, 1))
    assert d2.head == (2,)
    assert d2.d == 1
    assert d2.degree == 2
    assert d2.gap == 2
    assert d2.tail == (1, 1)


def test_decompose_gap_position_counterexample():
    # the gap sits exactly at position D = d + 1, even when e_{D+1} != 0
    dec = decompose((0, 3, 1, 0, 1, 1))
    assert dec.d == 3
    assert dec.gap == 4
    assert dec.tail == (1, 1)


def test_decompose_nonzero_returns_none():
    assert decompose((1, 1, 1)) is None
    assert decompose((0, 2, 1)) is None


def test_decompose_structure_exhaustive():
    for m in range(1, 8):
        for e in _compositions(m, m):
            dec = decompose(e)
            assert (dec is None) == (not is_zero_monomial(e))
            if dec is None:
                continue
            assert dec.degree == sum(dec.head) == dec.d + 1
            assert dec.gap == dec.d + 1
            assert e == (*dec.head, 0, *dec.tail)
            assert not is_zero_monomial((1,) * dec.gap + dec.tail)


# ---------------------------------------------------------------------------
# expansion stream


def test_expand_stream_m3_frozen_order():
    assert list(expand_stream(3)) == [
        (1, 2, 0),
        (1, 0, 2),
        (0, 3, 0),
        (0, 1, 2),
        (0, 2, 1),
        (0, 0, 3),
    ]


def test_expand_stream_counts_and_degrees():
    for m in (3, 7, 15):
        count = 0
        for e in itertools.islice(expand_stream(m), 0, None):
            count += 1
            if count <= 50:
                assert sum(e) == m
                assert len(e) == m
        assert count == stream_count(m)
    assert stream_count(3) == 6
    assert stream_count(7) == 168
    assert stream_count(15) == 20160


def test_expand_stream_rejects_bad_m():
    with pytest.raises(ValueError):
        list(expand_stream(5))
    with pytest.raises(ValueError):
        stream_count(6)


# ---------------------------------------------------------------------------
# verify_key


def _scalar_key_report(p: int) -> KeyReport:
    """Independent per-item fold using the scalar excess/gap oracle."""
    m = 2 ** p - 1
    total = zero = 0
    gaps: dict[int, int] = {}
    for e in expand_stream(m):
        total += 1
        dec = decompose(e)
        if dec is not None:
            zero += 1
            gaps[dec.gap] = gaps.get(dec.gap, 0) + 1
    return KeyReport(
        m=m,
        total=total,
        zero=zero,
        nonzero=total - zero,
        gap_counts=tuple(sorted(gaps.items())),
    )


def test_verify_key_frozen_small():
    assert verify_key(2).to_json_dict() == {
        "total": 6,
        "zero": 2,
        "nonzero": 4,
        "gap_counts": {"3": 2},
    }
    assert verify_key(3).to_json_dict() == {
        "total": 168,
        "zero": 104,
        "nonzero": 64,
        "gap_counts": {"3": 2, "5": 4, "6": 8, "7": 90},
    }


def test_verify_key_matches_scalar_fold():
    for p in (2, 3, 4):
        assert verify_key(p) == _scalar_key_report(p)


def test_verify_key_parity_and_verdict():
    for p in (2, 3, 4):
        report = verify_key(p)
        assert report.total == report.zero + report.nonzero
        assert report.total % 2 == 0
        assert report.nonzero % 2 == 0
        assert all(c % 2 == 0 for _, c in report.gap_counts)
        assert report.sum_is_zero
        assert report.verified


def test_verify_key_workers_equivalent():
    base = verify_key(4)
    for workers in (2, 3, 8):
        assert verify_key(4, workers=workers) == base


def test_key_parity_matches_normal_form():
    # the stream parity against the squarefree-basis normal form of
    # (x_1 + ... + x_m)^m in the chain matrix, p = 2 and 3
    for p in (2, 3):
        m = 2 ** p - 1
        full_sum = Poly.of(Monomial.var(v) for v in range(1, m + 1))
        nf = normal_form(full_sum ** m, chain_matrix(m))
        assert verify_key(p).sum_is_zero == nf.is_zero()


def test_verify_key_rejects_bad_p():
    with pytest.raises(ValueError):
        verify_key(1)
    with pytest.raises(ValueError):
        verify_key(0)


def test_key_sum_vanishes_in_dense_chain_ring():
    # (x_1 + ... + x_m)^m = 0 checked on the dense basis, p = 4
    from charclass.bott import _DenseRing

    m = 15
    ring = _DenseRing(m, chain_matrix(m)._cols, sweeps=m)
    v = 1
    for _ in range(m):
        v = ring._mul_by_seeds({i: v for i in range(1, m + 1)})
    assert not v


def test_gap_count_accessor():
    report = verify_key(3)
    assert report.gap_count(7) == 90
    assert report.gap_count(4) == 0
    with pytest.raises(ValueError):
        report.gap_count(0)
    with pytest.raises(ValueError):
        report.gap_count(8)


def _fold_report(p: int, fold=_fold_range) -> KeyReport:
    """The ledger of a fold over every streamed item: the package's
    bit-sliced one unless ``fold`` names another."""
    m = 2 ** p - 1
    total = stream_count(m)
    zero, gap_hist = fold(m, p, 0, total)
    return KeyReport(
        m=m,
        total=total,
        zero=zero,
        nonzero=total - zero,
        gap_counts=tuple((D, int(c)) for D, c in enumerate(gap_hist) if c),
    )


def test_counted_ledger_matches_streamed_fold():
    for p in (2, 3, 4, 5):
        assert verify_key(p) == _fold_report(p)


def test_counted_ledger_pinned_invariants():
    # p = 8..10 hold counts of 57..91 bits in one lane: a lane too narrow
    # spills into its neighbour and breaks zero + nonzero == total
    for p in range(2, 11):
        m = 2 ** p - 1
        report = verify_key(p)
        assert report.nonzero == 2 ** (p * (p - 1))
        assert all(c % 2 == 0 for _, c in report.gap_counts)
        assert sum(c for _, c in report.gap_counts) == report.zero
        assert report.zero + report.nonzero == report.total == stream_count(m)
        assert report.verified
        # no item has its gap at a power of two: S_d = d + 1 = 2^i would
        # need factor i at a position below 2^i
        assert all(D & (D - 1) for D, _ in report.gap_counts)
        # gap m: exactly the items that leave position m empty
        assert report.gap_count(m) == math.prod(m - 2 ** i for i in range(p))


def test_verify_key_p6_beyond_the_stream():
    # the stream holds about 2 * 10^10 items at p = 6
    report = verify_key(6)
    assert report.total == stream_count(63) == 20158709760
    assert report.nonzero == 2 ** 30
    assert report.gap_count(63) == 62 * 61 * 59 * 55 * 47 * 31


def test_fold_cross_check_runs_for_p_up_to_4_only(monkeypatch):
    calls: dict[int, int] = {}

    def counting_fold(m, p, start, stop):
        calls[p] = calls.get(p, 0) + 1
        return _fold_range(m, p, start, stop)

    monkeypatch.setattr(qring, "_fold_range", counting_fold)
    for p in (2, 3, 4, 5):
        verify_key(p)
    assert calls == {2: 1, 3: 1, 4: 1}


def test_fold_cross_check_catches_a_disagreement(monkeypatch):
    def off_by_two(m, p, start, stop):
        zero, gap_hist = _fold_range(m, p, start, stop)
        gap_hist[m] += 2
        return zero + 2, gap_hist

    monkeypatch.setattr(qring, "_fold_range", off_by_two)
    with pytest.raises(RuntimeError, match="streamed fold"):
        verify_key(3)


def test_bit_sliced_fold_ties_numpy_and_scalar_oracles():
    for p in (2, 3, 4):
        scalar = _scalar_key_report(p)
        assert _fold_report(p) == _fold_report(p, numpy_fold_range) == scalar


def _window_ledger(m: int, start: int, stop: int) -> tuple[int, list[int]]:
    """Zero count and gap histogram of the items start..stop - 1 of the
    stream, one `decompose` per item."""
    gap_hist = [0] * (m + 2)
    for e in itertools.islice(expand_stream(m), start, stop):
        dec = decompose(e)
        if dec is not None:
            gap_hist[dec.gap] += 1
    return sum(gap_hist), gap_hist


@st.composite
def _fold_windows(draw):
    p = draw(st.integers(2, 4))
    total = stream_count(2 ** p - 1)
    start = draw(st.integers(0, total))
    stop = draw(st.one_of(
        st.just(start), st.just(min(start + 1, total)), st.integers(start, total),
    ))
    return p, start, stop


@settings(max_examples=60, deadline=None)
@given(_fold_windows())
@example((2, 0, 0))
@example((4, 20159, 20160))
@example((3, 5, 6))
@example((4, 0, 20160))
def test_fold_window_matches_oracles(window):
    p, start, stop = window
    m = 2 ** p - 1
    zero, gap_hist = _fold_range(m, p, start, stop)
    ref_zero, ref_hist = numpy_fold_range(m, p, start, stop)
    assert (zero, gap_hist) == (ref_zero, [int(c) for c in ref_hist])
    assert len(gap_hist) == m + 2
    if p <= 3 or stop - start <= 2000:
        assert (zero, gap_hist) == _window_ledger(m, start, stop)


@pytest.mark.parametrize(
    "p, start, stop",
    [(2, -1, 3), (2, 0, 7), (3, 5, 4), (4, 20160, 20161), (4, 0, 20161)],
)
def test_fold_refuses_a_range_past_the_stream(p, start, stop):
    # a stop past the end once read J out of range and counted garbage
    total = stream_count(2 ** p - 1)
    with pytest.raises(ValueError, match=rf"^need 0 <= start <= stop <= {total} "):
        _fold_range(2 ** p - 1, p, start, stop)


def test_key_count_refused_over_budget():
    assert (2 ** 10 - 1) * 3 ** 10 <= qring.KEY_DP_BUDGET
    assert (2 ** 11 - 1) * 3 ** 11 > qring.KEY_DP_BUDGET
    start = time.perf_counter()
    for p in (11, 12, 64, 65, 10 ** 6):
        with pytest.raises(FeasibilityError, match="budget"):
            verify_key(p)
    with pytest.raises(ValueError):
        verify_key(11, workers=0)
    assert time.perf_counter() - start < 1.0


def test_key_report_json_shape():
    data = json.loads(verify_key(2).to_json())
    assert list(data) == ["total", "zero", "nonzero", "gap_counts"]  # pinned CLI bytes


# ---------------------------------------------------------------------------
# zero-product verifiers


def _dense_product_is_zero(n: int, exps: dict[int, int]) -> bool:
    """Multiply out the monomial on the dense main-family basis."""
    from charclass.bott import _DenseRing

    ring = _DenseRing(n, main_matrix(n)._cols, sweeps=sum(exps.values()))
    v = 1
    for var, e in sorted(exps.items()):
        for _ in range(e):
            v = ring._mul_by_seeds({var: v})
    return not v


def _parts(n: int) -> list[int]:
    return [1 << k for k in range(2, (n - 1).bit_length()) if (n - 1) >> k & 1]


def test_verify_zero_all_admissible_cases_small():
    for n in (5, 9, 13):
        parts = _parts(n)
        r = len(parts)
        for j in range(1, r + 1):
            assert verify_zero_b(n, j)
            for i in range(1, j):
                assert verify_zero_a(n, i, j)


def test_verify_zero_b_matches_dense_route():
    for n in (5, 9, 13):
        parts = _parts(n)
        totals = list(itertools.accumulate(parts))
        r = len(parts)
        for j in range(1, r + 1):
            T_prev = totals[j - 2] if j >= 2 else 0
            T_j = totals[j - 1]
            exps = {v: 1 for v in range(1, T_prev + 1)}
            exps.update({v: 1 for v in range(T_j, n)})
            exps[n] = parts[j - 1]
            assert _dense_product_is_zero(n, exps) == verify_zero_b(n, j)


def test_verify_zero_a_matches_dense_route_n13():
    # the single admissible (i, j) pair below n = 17 is (1, 2) at n = 13
    n, i, j = 13, 1, 2
    parts = _parts(n)  # [4, 8]
    totals = list(itertools.accumulate(parts))  # [4, 12]
    T_j, P_i, P_j = totals[j - 1], parts[i - 1], parts[j - 1]
    ell = T_j - P_i - P_j + 1  # 1
    allowed = range(1, T_j - P_i)  # variables 1..7
    base = {v: 1 for v in range(T_j - P_i + 1, n)}
    base[n] = P_j
    all_zero = True
    for combo in itertools.combinations_with_replacement(allowed, ell):
        exps = dict(base)
        for v in combo:
            exps[v] = exps.get(v, 0) + 1
        all_zero &= _dense_product_is_zero(n, exps)
    assert all_zero == verify_zero_a(n, i, j) == True  # noqa: E712


def test_verify_zero_validation():
    with pytest.raises(ValueError):
        verify_zero_a(13, 2, 2)
    with pytest.raises(ValueError):
        verify_zero_a(13, 0, 1)
    with pytest.raises(ValueError):
        verify_zero_b(13, 3)
    with pytest.raises(ValueError):
        verify_zero_b(12, 1)


@pytest.mark.parametrize(
    "call, name",
    [
        (lambda: verify_key(3.0), "p"),
        (lambda: verify_key(True), "p"),
        (lambda: verify_zero_a(13.0, 1, 2), "n"),
        (lambda: verify_zero_a(13, 1.0, 2), "i"),
        (lambda: verify_zero_a(13, 1, True), "j"),
        (lambda: verify_zero_b(5.0, 1), "n"),
        (lambda: verify_zero_b(5, True), "j"),
        (lambda: charclass.canonical_z(9.0), "n"),
        (lambda: charclass.beta_tuple(True), "n"),
        (lambda: permsum_terms(9.0), "n"),
        (lambda: charclass.scan_dold(9.0, 2), "target_dim"),
        (lambda: charclass.scan_dold(True, 2), "target_dim"),
        (lambda: charclass.scan_dold(9, 2.0), "max_r"),
        (lambda: list(expand_stream(True)), "m"),
        (lambda: stream_count(True), "m"),
        (lambda: list(expand_stream(3.0)), "m"),
        (lambda: verify_key(3).gap_count(3.5), "D"),
        (lambda: verify_key(3).gap_count(7.0), "D"),
    ],
    ids=[
        "verify_key-float", "verify_key-bool", "verify_zero_a-n-float",
        "verify_zero_a-i-float", "verify_zero_a-j-bool", "verify_zero_b-n-float",
        "verify_zero_b-j-bool", "canonical_z-float", "beta_tuple-bool",
        "permsum_terms-float", "scan_dold-target_dim-float",
        "scan_dold-target_dim-bool", "scan_dold-max_r-float",
        "expand_stream-bool", "stream_count-bool", "expand_stream-float",
        "gap_count-fraction", "gap_count-float",
    ],
)
def test_chain_ring_and_dold_calls_accept_only_integers(call, name):
    # a float raised TypeError or AttributeError from inside << or
    # bit_length, and True was read as 1: beta_tuple(True) gave (),
    # verify_zero_b(5, True) gave True and scan_dold(True, 2) gave [];
    # expand_stream(True) yielded (1,), and gap_count(7.0) read the count at 7
    with pytest.raises(ValueError, match=f"^{name} must be an integer, got "):
        call()


def test_integer_input_keeps_its_messages():
    with pytest.raises(ValueError, match=r"^requires n = 1 \(mod 4\), got n = 7$"):
        charclass.canonical_z(7)
    with pytest.raises(ValueError, match=r"^need 1 <= j <= r = 1, got j = 2$"):
        verify_zero_b(5, 2)
    with pytest.raises(ValueError, match=r"^p must be >= 2, got 1 "):
        verify_key(1)
    with pytest.raises(ValueError, match=r"^max_r must be >= 1, got 0$"):
        charclass.scan_dold(9, 0)


def test_verify_zero_a_budget_refusal(monkeypatch):
    calls = []
    monkeypatch.setattr(
        qring, "top_class_bit", lambda *args: calls.append(args) or 1
    )
    # multisets * n * 3^popcount(P_j - 1): 20,160,075 * 29 * 81,
    # 575,757 * 45 * 243 and 255 * 321 * 6561 steps, all over 5 * 10^8
    for case in ((29, 1, 3), (45, 2, 3), (321, 1, 2)):
        start = time.perf_counter()
        with pytest.raises(FeasibilityError, match=r"\(> budget 500000000\)"):
            verify_zero_a(*case)
        assert time.perf_counter() - start < 1.0
    assert calls == []


def test_no_public_callable_takes_a_budget():
    for name in charclass.__all__:
        obj = getattr(charclass, name)
        if isinstance(obj, type) and issubclass(obj, Exception):
            continue
        if callable(obj):
            assert "budget" not in inspect.signature(obj).parameters, name


def test_numpy_key_fold_histogram_is_consistent():
    # gap histogram for p=3 sums to the zero count
    report = verify_key(3)
    assert sum(c for _, c in report.gap_counts) == report.zero
    counts = np.array([c for _, c in report.gap_counts])
    assert (counts % 2 == 0).all()
