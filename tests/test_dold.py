"""Generalized Dold manifolds: truncated rings and class verifiers."""

from __future__ import annotations

import json
import math
import random
import time
from itertools import combinations_with_replacement, product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from charclass import dold
from charclass.bott import FeasibilityError, alpha_hat
from charclass.dold import (
    DoldReport,
    DoldSpec,
    TruncPoly,
    binom_parity,
    coefficient,
    dual_sw_dold,
    graded_piece,
    scan_dold,
    total_sw_dold,
    trunc_mul,
    verify_dold,
)

from conftest import ALL_DOLD_FIXTURES
from oracles import exhaustive_dold_specs, whitney_dual_dold

P12 = DoldSpec(1, (2,))


def _poly(spec: DoldSpec, *terms: tuple[int, tuple[int, ...]]) -> TruncPoly:
    return TruncPoly.from_terms(spec, terms)


def _stabilized_inverse(spec: DoldSpec) -> TruncPoly:
    """Independent oracle: the inverse of w is w^(2^L - 1) for 2^L > N.

    Every non-unit term of w has positive degree, so w^(2^L) = 1 once 2^L
    exceeds the ring's top grading; hence w^(2^L - 1) is the full inverse.
    Computed by repeated squaring with plain trunc_mul only.
    """
    w = total_sw_dold(spec)
    L = spec.dimension.bit_length() + 1
    result = TruncPoly.one(spec)
    power = w
    for _ in range(L):
        result = trunc_mul(result, power, spec)
        power = trunc_mul(power, power, spec)
    return result


# ---------------------------------------------------------------------------
# specs and grids


def test_spec_validation():
    with pytest.raises(ValueError):
        DoldSpec(-1, (2,))
    with pytest.raises(ValueError):
        DoldSpec(1, ())
    with pytest.raises(ValueError):
        DoldSpec(1, (0,))


@pytest.mark.parametrize("ms", [(2.7,), "12", (2.0,), (True,), (1, "2")])
def test_spec_factor_sizes_must_be_integers(ms):
    # int() would have read (2.7,) as P(1; 2) and "12" as P(1; 1, 2)
    with pytest.raises(ValueError, match="every m_i must be an integer"):
        DoldSpec(1, ms)


def test_spec_dimension_and_shape():
    spec = DoldSpec(3, (2, 4))
    assert spec.dimension == 15
    assert spec.r == 2
    assert spec.shape == (4, 3, 5)


@st.composite
def _boxes_and_grades(draw) -> tuple[tuple[int, ...], int]:
    r = draw(st.integers(0, 3))
    d_extents = draw(st.lists(st.integers(1, 7), min_size=r, max_size=r))
    shape = (draw(st.integers(1, 9)), *d_extents)
    top = shape[0] - 1 + 2 * sum(e - 1 for e in shape[1:])
    return shape, draw(st.integers(-2, top + 2))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_boxes_and_grades())
@example(((1,), 0))
@example(((4, 3, 5), 7))
@example(((9, 7, 7, 7), 20))  # the middle grade of the largest box drawn
@example(((2, 3), 5))  # the top grade, the last cell alone
@example(((3, 4, 2), 12))  # above the top: nothing exact, everything at most
def test_grade_mask_matches_the_grade_of_every_cell(box_and_grade):
    # bit i of a mask is cell i in C order, of grade a + 2*sum(b_i)
    shape, k = box_and_grade
    grades = [a + 2 * sum(bs) for a, *bs in product(*map(range, shape))]
    exact = sum(1 << i for i, g in enumerate(grades) if g == k)
    at_most = sum(1 << i for i, g in enumerate(grades) if g <= k)
    assert dold._grade_mask(shape, k) == exact
    assert dold._grade_mask(shape, k, at_most=True) == at_most


def test_spec_json_round_trip():
    assert P12.to_json() == '{"n": 1, "ms": [2]}'
    for _, spec in ALL_DOLD_FIXTURES:
        assert DoldSpec.from_json(spec.to_json()) == spec
    with pytest.raises(ValueError):
        DoldSpec.from_json("{")
    with pytest.raises(ValueError):
        DoldSpec.from_json('{"n": 1}')


def test_spec_json_accepts_only_integers():
    for text in ('{"n": 1, "ms": "22"}', '{"n": 1, "ms": 2}', '{"n": true, "ms": [2]}',
                 '{"n": 1.0, "ms": [2]}', '{"n": 1, "ms": [2.0]}',
                 '{"n": 1, "ms": [false]}'):
        with pytest.raises(ValueError):
            DoldSpec.from_json(text)


@pytest.mark.parametrize(
    "grid", [np.uint8(1), 1.0, "1", None, True, False, -1, 1 << 6, (1 << 7) - 1],
    ids=["numpy-int", "float", "str", "none", "true", "false", "negative",
         "one-bit-past-the-box", "two-bits-past-the-box"],
)
def test_trunc_poly_rejects_grids_that_are_not_packed_ints_of_the_box(grid):
    # P(1; 2) has 2 * 3 = 6 cells, bits 0..5
    with pytest.raises(ValueError, match="the grid must be an int of 6 bits"):
        TruncPoly(P12, grid)


def test_trunc_poly_validation():
    # every bit of the box is a cell, in C order
    assert TruncPoly(P12, (1 << 6) - 1).terms() == [
        (a, (b,)) for a in range(2) for b in range(3)
    ]
    with pytest.raises(ValueError):
        TruncPoly(P12, np.zeros((2, 2), dtype=np.uint8))
    with pytest.raises(ValueError, match=r"^exponents \(2, \(0,\)\) out of bounds$"):
        TruncPoly.from_terms(P12, [(2, (0,))])
    with pytest.raises(ValueError, match=r"^exponents \(0, \(3,\)\) out of bounds$"):
        TruncPoly.from_terms(P12, [(0, (3,))])


def test_trunc_poly_repr_gives_the_grid_in_hex():
    # the grid of P(15; 2, 16, 32) has 26,928 cells: past the default limit
    # of int-to-decimal conversion, so the repr gives it in hex
    spec = DoldSpec(15, (2, 16, 32))
    wbar = dual_sw_dold(spec, spec.dimension)
    assert wbar.grid.bit_length() > 20_000
    assert repr(wbar) == f"TruncPoly(spec={spec!r}, grid={wbar.grid:#x})"
    assert repr(TruncPoly.one(P12)) == "TruncPoly(spec=DoldSpec(n=1, ms=(2,)), grid=0x1)"


def test_trunc_poly_terms_cancel_in_pairs():
    p = TruncPoly.from_terms(P12, [(1, (1,)), (1, (1,))])
    assert p.is_zero()
    assert str(p) == "0"


def test_trunc_poly_str():
    p = _poly(P12, (0, (0,)), (1, (1,)), (0, (2,)))
    assert str(p) == "1 + d^2 + c*d"


def test_grid_size_refusal():
    huge = DoldSpec(1023, (2048, 2048))
    with pytest.raises(FeasibilityError):
        TruncPoly.zero(huge)
    with pytest.raises(FeasibilityError):
        total_sw_dold(huge)


# ---------------------------------------------------------------------------
# multiplication


def test_trunc_mul_frozen_square():
    base = _poly(P12, (0, (0,)), (1, (0,)), (0, (1,)))  # 1 + c + d
    assert trunc_mul(base, base, P12) == _poly(P12, (0, (0,)), (0, (2,)))


def test_trunc_mul_truncates():
    c = _poly(P12, (1, (0,)))
    assert trunc_mul(c, c, P12).is_zero()  # c^2 = 0 when n = 1
    d = _poly(P12, (0, (1,)))
    d2 = trunc_mul(d, d, P12)
    assert trunc_mul(d2, d, P12).is_zero()  # d^3 = 0 when m = 2


def test_trunc_mul_ring_laws():
    rng = random.Random(55)
    spec = DoldSpec(2, (2, 1))
    one = TruncPoly.one(spec)

    def rand_poly():
        return TruncPoly(spec, rng.getrandbits(math.prod(spec.shape)))

    for _ in range(30):
        a, b, c = rand_poly(), rand_poly(), rand_poly()
        assert trunc_mul(a, b, spec) == trunc_mul(b, a, spec)
        assert trunc_mul(trunc_mul(a, b, spec), c, spec) == trunc_mul(
            a, trunc_mul(b, c, spec), spec
        )
        ab_plus_ac = TruncPoly(
            spec,
            trunc_mul(a, b, spec).grid ^ trunc_mul(a, c, spec).grid,
        )
        b_plus_c = TruncPoly(spec, b.grid ^ c.grid)
        assert trunc_mul(a, b_plus_c, spec) == ab_plus_ac
        assert trunc_mul(a, one, spec) == a


def test_trunc_mul_rejects_foreign_operands():
    with pytest.raises(ValueError):
        trunc_mul(TruncPoly.one(P12), TruncPoly.one(DoldSpec(2, (1,))), P12)


# ---------------------------------------------------------------------------
# binomial parity


def test_binom_parity_examples():
    assert binom_parity(82, 2) == 1
    assert binom_parity(5, 0) == 1
    assert binom_parity(2, 1) == 0
    with pytest.raises(ValueError):
        binom_parity(-1, 0)


def test_binom_parity_matches_pascal():
    rows = [[1]]
    for p in range(1, 33):
        prev = rows[-1]
        rows.append(
            [1]
            + [(prev[q - 1] + prev[q]) % 2 for q in range(1, p)]
            + [1]
        )
    for p in range(33):
        for q in range(33):
            expected = rows[p][q] if q <= p else 0
            assert binom_parity(p, q) == expected


# ---------------------------------------------------------------------------
# classes


def test_total_sw_p12_frozen():
    w = total_sw_dold(P12)
    assert w == _poly(P12, (0, (0,)), (0, (1,)), (0, (2,)), (1, (1,)))
    assert str(w) == "1 + d + d^2 + c*d"


def test_total_sw_p21_is_one():
    assert total_sw_dold(DoldSpec(2, (1,))) == TruncPoly.one(DoldSpec(2, (1,)))


def test_total_sw_rejects_r_above_n_plus_one():
    with pytest.raises(ValueError):
        total_sw_dold(DoldSpec(0, (1, 1)))


def test_orientability_is_parity_of_n_plus_one_plus_sum():
    for _, spec in ALL_DOLD_FIXTURES:
        w1 = graded_piece(total_sw_dold(spec), 1)
        # for n = 0 there is no degree-1 class at all (c = 0 in the ring)
        expected_orientable = (
            spec.n == 0 or (spec.n + 1 + sum(spec.ms)) % 2 == 0
        )
        assert w1.is_zero() == expected_orientable


def test_dual_sw_p12_frozen():
    wbar = dual_sw_dold(P12, 5)
    assert wbar == _poly(P12, (0, (0,)), (0, (1,)), (1, (1,)))
    assert graded_piece(wbar, 3) == _poly(P12, (1, (1,)))


def test_dual_sw_p02_frozen():
    spec = DoldSpec(0, (2,))
    assert total_sw_dold(spec) == _poly(spec, (0, (0,)), (0, (1,)), (0, (2,)))
    assert dual_sw_dold(spec, 4) == _poly(spec, (0, (0,)), (0, (1,)))


def test_dual_sw_bounds():
    with pytest.raises(ValueError, match=r"^up_to must lie in 0\.\.5, got 6$"):
        dual_sw_dold(P12, 6)
    with pytest.raises(ValueError, match=r"^up_to must lie in 0\.\.5, got -1$"):
        dual_sw_dold(P12, -1)


def test_dual_matches_stabilized_power_oracle():
    for spec in (P12, DoldSpec(2, (1,)), DoldSpec(3, (2, 4)), DoldSpec(5, (2,)),
                 DoldSpec(0, (2,)), DoldSpec(3, (1, 1))):
        assert dual_sw_dold(spec, spec.dimension) == _stabilized_inverse(spec)


@st.composite
def _small_specs(draw) -> DoldSpec:
    n = draw(st.integers(0, 10))
    r = draw(st.integers(1, min(3, n + 1)))
    return DoldSpec(n, draw(st.lists(st.integers(1, 6), min_size=r, max_size=r)))


def _literal_total(spec: DoldSpec) -> TruncPoly:
    """(1+c)^(n+1-r) filled by Lucas parity, times each (1+c+d_i) m_i+1 times."""
    w = TruncPoly.from_terms(spec, [
        (a, (0,) * spec.r) for a in range(spec.n + 1)
        if binom_parity(spec.n + 1 - spec.r, a)
    ])
    for i, m in enumerate(spec.ms):
        bs = [0] * spec.r
        factor = [(0, bs), (0, bs[:i] + [1] + bs[i + 1:])]
        if spec.n >= 1:
            factor.append((1, bs))
        for _ in range(m + 1):
            w = trunc_mul(w, TruncPoly.from_terms(spec, factor), spec)
    return w


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(_small_specs())
@example(DoldSpec(0, (1,)))
@example(DoldSpec(0, (6,)))
@example(DoldSpec(1, (3, 2)))  # r = n + 1
@example(DoldSpec(2, (1, 5, 6)))  # r = n + 1
@example(DoldSpec(10, (6, 6, 6)))
def test_classes_match_literal_product_and_whitney_oracle(spec):
    assert total_sw_dold(spec) == _literal_total(spec)
    for k in range(spec.dimension + 1):
        assert dual_sw_dold(spec, k) == whitney_dual_dold(spec, k)


def _lucas_coefficient(spec: DoldSpec, a: int, bs: tuple[int, ...]) -> int:
    """C(E_0 + sum(E_i - B_i), A) * prod C(E_i, B_i) mod 2, each by Lucas.

    E_0 = 2^L - (n+1-r) and E_i = 2^L - (m_i+1) for any 2^L covering the
    box; this takes 2^L > N, past what the package uses.
    """
    period = 1 << (spec.dimension.bit_length() + 1)
    e0 = period - (spec.n + 1 - spec.r)
    es = [period - (m + 1) for m in spec.ms]
    bit = binom_parity(e0 + sum(e - b for e, b in zip(es, bs)), a)
    for e, b in zip(es, bs):
        bit &= binom_parity(e, b)
    return bit


@st.composite
def _lucas_specs(draw) -> DoldSpec:
    n = draw(st.integers(0, 12))
    r = draw(st.integers(1, min(3, n + 1)))
    return DoldSpec(n, draw(st.lists(st.integers(1, 8), min_size=r, max_size=r)))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(_lucas_specs())
@example(DoldSpec(0, (1,)))
@example(DoldSpec(0, (8,)))
@example(DoldSpec(1, (8, 3)))  # r = n + 1
@example(DoldSpec(2, (1, 5, 8)))  # r = n + 1
@example(DoldSpec(12, (8, 8, 8)))
def test_dual_coefficients_are_lucas_products(spec):
    wbar = dual_sw_dold(spec, spec.dimension)
    for a, *bs in np.ndindex(spec.shape):
        assert coefficient(wbar, a, bs) == _lucas_coefficient(spec, a, tuple(bs))


def test_dual_sw_dold_products_per_exponent_digit(monkeypatch):
    # one shifted XOR per binary digit of the inverted exponents, however
    # many grades are asked for (the Whitney recursion makes one per grade)
    steps = []
    times_digit = dold._times_digit

    def counting(grid, moves):
        steps.append(1)
        return times_digit(grid, moves)

    monkeypatch.setattr(dold, "_times_digit", counting)
    for spec in (P12, DoldSpec(7, (2, 4)), DoldSpec(1023, (255,))):
        period = 1 << (max(spec.shape) - 1).bit_length()
        exponents = (spec.n + 1 - spec.r, *(m + 1 for m in spec.ms))
        digits = sum((period - e).bit_count() for e in exponents)
        N = spec.dimension
        grades = range(N + 1) if N < 100 else (0, 1, N // 2, N)
        counts = set()
        for k in grades:
            steps.clear()
            dual_sw_dold(spec, k)
            counts.add(len(steps))
        assert counts == {digits}


def _factor_power(spec: DoldSpec, i: int, e: int) -> TruncPoly:
    """(1+c)^e for i = 0, else (1+c+d_i)^e, as e plain trunc_mul products."""
    zero = (0,) * spec.r
    factor = [(0, zero)]
    if spec.n >= 1:
        factor.append((1, zero))
    if i:
        factor.append((0, zero[:i - 1] + (1,) + zero[i:]))
    power = TruncPoly.one(spec)
    for _ in range(e):
        power = trunc_mul(power, TruncPoly.from_terms(spec, factor), spec)
    return power


@st.composite
def _specs_and_exponents(draw) -> tuple[DoldSpec, tuple[int, ...]]:
    spec = draw(_small_specs())
    period = dold._period(spec.n, spec.ms)
    dual = (period - (spec.n + 1 - spec.r), *(period - (m + 1) for m in spec.ms))
    drawn = tuple(draw(st.integers(0, 2 * period)) for _ in dual)
    return spec, draw(st.sampled_from((dual, drawn)))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(_specs_and_exponents())
@example((DoldSpec(0, (1,)), (0, 0)))
@example((DoldSpec(0, (6,)), (16, 9)))  # c lies outside the box
@example((DoldSpec(2, (1, 5, 6)), (5, 7, 3, 33)))
@example((DoldSpec(10, (6, 6, 6)), (8, 9, 9, 9)))  # the dual-class exponents
def test_class_grid_matches_general_product(spec_and_exponents):
    # the shifted XORs against trunc_mul of the factors, one factor at a time
    spec, exponents = spec_and_exponents
    product = TruncPoly.one(spec)
    for i, e in enumerate(exponents):
        product = trunc_mul(product, _factor_power(spec, i, e), spec)
    assert TruncPoly(spec, dold._class_grid(spec, exponents, spec.shape)) == product


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(_small_specs())
@example(P12)
@example(DoldSpec(3, (2, 4)))
@example(DoldSpec(7, (2, 8)))
def test_dual_convolution_is_one(spec):
    w = total_sw_dold(spec)
    wbar = dual_sw_dold(spec, spec.dimension)
    assert trunc_mul(w, wbar, spec) == TruncPoly.one(spec)


def test_graded_pieces_partition():
    # the grades of a random grid are disjoint and sum back to it
    rng = random.Random(23)
    for spec in (DoldSpec(3, (2, 4)), DoldSpec(0, (3,)), DoldSpec(2, (1, 3, 2))):
        for _ in range(10):
            p = TruncPoly(spec, rng.getrandbits(math.prod(spec.shape)))
            acc = 0
            for k in range(spec.dimension + 1):
                piece = graded_piece(p, k).grid
                assert acc & piece == 0
                acc |= piece
            assert acc == p.grid
            assert graded_piece(p, -1).is_zero()
            assert graded_piece(p, spec.dimension + 1).is_zero()


def test_coefficient_p324():
    spec = DoldSpec(3, (2, 4))
    wbar10 = graded_piece(dual_sw_dold(spec, 10), 10)
    assert coefficient(wbar10, 2, (1, 3)) == 1
    with pytest.raises(ValueError, match="outside the truncation bounds"):
        coefficient(wbar10, 4, (0, 0))
    with pytest.raises(ValueError, match="expected 2 d-exponents, got 1"):
        coefficient(wbar10, 0, (0,))


W12 = total_sw_dold(P12)  # 1 + d + d^2 + c*d


@pytest.mark.parametrize(
    "call",
    [
        lambda: TruncPoly.from_terms(P12, [(True, (1,))]),
        lambda: coefficient(W12, 0, (1.7,)),
        lambda: coefficient(W12, 0, ("1",)),
        lambda: coefficient(W12, 1.0, (1,)),
        lambda: coefficient(W12, True, (1,)),
        lambda: coefficient(W12, np.int64(0), (1,)),
        lambda: dual_sw_dold(P12, 2.5),
        lambda: graded_piece(W12, 2.0),
    ],
    ids=[
        "from_terms-bool-a", "coefficient-float-b", "coefficient-str-b",
        "coefficient-float-a", "coefficient-bool-a", "coefficient-numpy-a",
        "dual_sw_dold-float", "graded_piece-float",
    ],
)
def test_dold_readers_reject_non_integer_exponents(call):
    # True would be read as cell index 1 and int() truncates 1.7: neither may
    # answer.  NumPy integers are refused too, as everywhere in the package.
    with pytest.raises(ValueError, match="integer"):
        call()


# ---------------------------------------------------------------------------
# verifier and scan


def test_verify_dold_p12():
    report = verify_dold(P12)
    assert report.to_json_dict() == {
        "n": 1,
        "ms": [2],
        "dimension": 5,
        "alpha_hat": 2,
        "grade": 3,
        "orientable": True,
        "nonvanishing": True,
    }
    assert report.verified


def test_verify_dold_family_members():
    assert verify_dold(DoldSpec(5, (2,))).verified
    assert verify_dold(DoldSpec(3, (2, 4))).verified
    assert verify_dold(DoldSpec(3, (2, 4, 8))).verified


def test_verify_dold_negative_cases():
    report = verify_dold(DoldSpec(1, (1,)))
    assert not report.orientable
    assert not report.verified
    report = verify_dold(DoldSpec(3, (1, 1)))
    assert report.orientable and not report.nonvanishing
    assert not report.verified


def test_dold_report_json_round_trip():
    report = verify_dold(DoldSpec(3, (2, 4)))
    assert DoldReport.from_json(report.to_json()) == report
    data = json.loads(report.to_json())
    assert set(data) == {
        "n", "ms", "dimension", "alpha_hat", "grade", "orientable",
        "nonvanishing",
    }


@pytest.mark.parametrize("text", ['{"n": 5}', "[]", '{"n": 1}', "nope"])
def test_dold_report_json_rejects_malformed_text(text):
    with pytest.raises(ValueError, match="report JSON"):
        DoldReport.from_json(text)


def test_scan_dold_frozen():
    assert scan_dold(5, 1) == [P12]
    assert scan_dold(4, 2) == [DoldSpec(0, (2,))]
    assert scan_dold(9, 2) == [DoldSpec(1, (4,)), DoldSpec(5, (2,))]
    assert DoldSpec(3, (2, 4)) in scan_dold(15, 2)


def _specs_up_to(dim: int, max_r: int):
    """Every spec of dimension 1..dim with r <= min(max_r, n + 1)."""
    for n in range(dim + 1):
        for r in range(1, min(max_r, n + 1) + 1):
            for ms in combinations_with_replacement(range(1, dim // 2 + 1), r):
                if n + 2 * sum(ms) <= dim:
                    yield DoldSpec(n, ms)


def test_lucas_verdict_matches_grids_exhaustively():
    specs = list(_specs_up_to(32, 3))
    assert len(specs) == 1652
    for spec in specs:
        report = verify_dold(spec)
        assert dold._lucas_verdict(spec.n, spec.ms) == (
            report.orientable, report.nonvanishing
        )


def test_factor_lemma():
    # 2^L - (m+1) is m's complement in L bits, so Lucas reads (m - z) & m
    for L in range(11):
        for m in range(1 << L):
            e = (1 << L) - (m + 1)
            for z in range(m + 1):
                assert binom_parity(e, m - z) == ((m - z) & m == 0)


@st.composite
def _specs_past_the_exhaustive_range(draw) -> DoldSpec:
    """Dimension 33..60, r <= 3 and r <= n + 1: at most about 10^4 cells."""
    dim = draw(st.integers(33, 60))
    r = draw(st.integers(1, 3))
    ms: list[int] = []
    for i in range(r):
        # leave 1 for each later m_j and n >= r - 1
        room = (dim - r + 1) // 2 - sum(ms) - (r - 1 - i)
        ms.append(draw(st.integers(1, room)))
    return DoldSpec(dim - 2 * sum(ms), ms)


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(_specs_past_the_exhaustive_range())
@example(DoldSpec(0, (30,)))  # CP^30
@example(DoldSpec(2, (1, 1, 27)))  # r = n + 1
# hits are rare here (40 of 13,958 specs), so some are pinned
@example(DoldSpec(29, (2,)))
@example(DoldSpec(26, (2, 4)))  # nonvanishing but not orientable
@example(DoldSpec(19, (2, 4, 8)))
@example(DoldSpec(3, (4, 8, 16)))
def test_lucas_verdict_matches_grids_past_the_exhaustive_range(spec):
    assert 33 <= spec.dimension <= 60 and math.prod(spec.shape) <= 1 << 16
    grade = spec.dimension - alpha_hat(spec.dimension)
    grids = (
        graded_piece(total_sw_dold(spec), 1).is_zero(),
        not graded_piece(dual_sw_dold(spec, grade), grade).is_zero(),
    )
    assert dold._lucas_verdict(spec.n, spec.ms) == grids


def test_verify_dold_raises_when_the_routes_disagree(monkeypatch):
    assert verify_dold(P12).verified
    for tampered in ((False, True), (True, False)):
        monkeypatch.setattr(dold, "_lucas_verdict", lambda n, ms, t=tampered: t)
        with pytest.raises(RuntimeError, match="disagree"):
            verify_dold(P12)


class _Unverified:
    verified = False


def test_scan_dold_raises_on_an_unconfirmed_hit(monkeypatch):
    monkeypatch.setattr(dold, "verify_dold", lambda spec: _Unverified)
    with pytest.raises(RuntimeError, match="does not confirm"):
        scan_dold(5, 1)


def _recording(monkeypatch, name: str) -> list:
    """Record the first argument of every call to ``dold.<name>``: the spec,
    or n for `_lucas_verdict`."""
    calls = []
    original = getattr(dold, name)
    monkeypatch.setattr(
        dold, name, lambda first, *rest: calls.append(first) or original(first, *rest)
    )
    return calls


def _screens(monkeypatch) -> list[DoldSpec]:
    """Record the spec of every `_lucas_verdict` screen."""
    calls = []
    original = dold._lucas_verdict
    monkeypatch.setattr(
        dold, "_lucas_verdict",
        lambda n, ms: calls.append(DoldSpec(n, ms)) or original(n, ms),
    )
    return calls


def test_scan_dold_dimensions_divisible_by_four():
    # the only hits at N = 0 mod 4 are CP^(N/2) = P(0; N/2), at powers of two
    for D in range(4, 1025, 4):
        expected = [DoldSpec(0, (D // 2,))] if D & (D - 1) == 0 else []
        assert scan_dold(D, D // 2) == expected, D


def test_scan_dold_ties_the_exhaustive_screen():
    # the factor lemma drops no hit: every spec screened, up to D = 72
    for D in range(1, 73):
        hits = sorted(
            (n, ms) for n, ms in exhaustive_dold_specs(D, D)
            if dold._lucas_verdict(n, ms) == (True, True)
        )
        for max_r in {1, 2, 3, (D + 1) // 3 or 1}:  # the full scan
            expected = [DoldSpec(n, ms) for n, ms in hits if len(ms) <= max_r]
            assert scan_dold(D, max_r) == expected, (D, max_r)


_NEAR_A_POWER = st.builds(
    lambda t, s: min((1 << t) + s, 70), st.integers(0, 6), st.integers(0, 3)
)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    # r <= 4 factors m_i <= 70, drawn near powers of two as often as
    # anywhere, since nonvanishing specs lie there
    st.lists(st.one_of(st.integers(1, 70), _NEAR_A_POWER), min_size=1, max_size=4)
)
@example([64])  # CP^64 at n = 0
@example([2, 4])  # P(26; 2, 4): nonvanishing but not orientable
@example([4, 8, 16])
@example([2, 4, 8, 16])
def test_factor_lemma_keeps_every_nonvanishing_spec(factors):
    # every n <= 40 the class formula admits, for the drawn factors
    ms = tuple(sorted(factors))
    for n in range(len(ms) - 1, 41):
        if dold._lucas_verdict(n, ms)[1]:
            N = n + 2 * sum(ms)
            assert (n, ms) in set(dold._lemma_specs(N, len(ms))), (n, ms)


def test_lemma_enumeration_opens_no_dead_branch(monkeypatch):
    # every call of the enumerator yields, so a scan's work is its count
    yields = []
    original = dold._lemma_multisets

    def counted(*args):
        yields.append(0)
        call = len(yields) - 1
        for ms in original(*args):
            yields[call] += 1
            yield ms

    monkeypatch.setattr(dold, "_lemma_multisets", counted)
    for D in range(1, 1100):
        specs = list(dold._lemma_specs(D, D))
        assert len(set(specs)) == len(specs)
    assert yields and all(yields)


@pytest.mark.parametrize("max_r", [3, 10**12])
def test_scan_dold_at_a_huge_dimension_ends_within_a_second(max_r):
    start = time.perf_counter()
    try:
        scan_dold(10**12, max_r)
    except FeasibilityError:
        pass
    assert time.perf_counter() - start < 1.0


def test_verify_dold_reads_w1_in_the_cut_box():
    # the quotient by (c^2, d_i) keeps grade 1 exactly; n = 0 has no c
    specs = [
        DoldSpec(n, ms)
        for n in range(12)
        for r in range(1, min(3, n + 1) + 1)
        for ms in combinations_with_replacement(range(1, 7), r)
    ]
    assert len(specs) == 863
    for spec in specs:
        full = graded_piece(total_sw_dold(spec), 1).is_zero()
        assert verify_dold(spec).orientable == full, spec


def test_scan_dold_builds_grids_only_for_hits(monkeypatch):
    grids = _recording(monkeypatch, "_class_grid")
    hits = scan_dold(31, 3)
    assert hits and len(grids) == 2 * len(hits)


def test_scan_dold_admits_the_witness_scans():
    # the five scans of the benchmark's witness workload; each finds the
    # witness-family specs of its dimension
    family = [DoldSpec(5, (2,)), DoldSpec(13, (2,)), DoldSpec(3, (2, 4))]
    family += [DoldSpec(3, (2, 8)), DoldSpec(3, (2, 4, 8))]
    found = set()
    for D, max_r in ((9, 2), (15, 2), (17, 2), (23, 2), (31, 3)):
        hits = scan_dold(D, max_r)
        assert all(spec.dimension == D for spec in hits)
        found.update(hits)
    assert set(family) <= found


def test_scan_dold_price_refuses_before_verifying(monkeypatch):
    calls = _recording(monkeypatch, "verify_dold")
    screens = _screens(monkeypatch)
    built = []
    monkeypatch.setattr(
        dold, "DoldSpec", lambda n, ms: built.append(ms) or DoldSpec(n, ms)
    )
    # the first refused full scan: over 50,000 candidates
    start = time.perf_counter()
    with pytest.raises(FeasibilityError) as info:
        scan_dold(8191, 2730)
    assert time.perf_counter() - start < 1.0
    assert str(info.value) == (
        "the scan of dimension 8191 with r <= 2730 screens more specs than the "
        "budget of 50000"
    )
    assert screens == [] and calls == [] and built == []
    # the full scan below it: 21,139 candidates, each screened, no hit
    assert scan_dold(8190, 2730) == []
    assert len(screens) == 21139 and calls == [] and built == []
    # the first full scan refused by the grids: its hit P(259; 16, 32, 128)
    # is priced before any hit is verified
    with pytest.raises(FeasibilityError) as info:
        scan_dold(611, 204)
    assert str(info.value) == (
        "ring of DoldSpec(n=259, ms=(16, 32, 128)) needs 18815940 dense cells "
        "(> 16777216)"
    )
    assert calls == [] and (16, 32, 128) in built
    # one verify_dold per hit
    hits = scan_dold(31, 3)
    assert hits and sorted(calls, key=lambda s: (s.n, s.ms)) == hits


def test_scan_dold_validation():
    with pytest.raises(ValueError):
        scan_dold(0, 1)
    with pytest.raises(ValueError):
        scan_dold(5, 0)
