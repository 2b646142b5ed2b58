"""Generalized Dold manifolds: truncated rings and class verifiers."""

from __future__ import annotations

import json
import random
import time
from itertools import combinations_with_replacement

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from charclass import dold
from charclass.bott import FeasibilityError
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
from charclass.dold import _degree_grid

from conftest import ALL_DOLD_FIXTURES
from oracles import whitney_dual_dold

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


def test_degree_grid_matches_index_formula():
    for spec in (P12, DoldSpec(0, (3,)), DoldSpec(3, (2, 4)), DoldSpec(2, (1, 3, 2))):
        idx = np.indices(spec.shape)
        expected = idx[0] + 2 * idx[1:].sum(axis=0)
        deg = _degree_grid(spec)
        assert deg.shape == spec.shape and deg.dtype == np.int32
        assert np.array_equal(deg, expected)
        assert not deg.flags.writeable
        assert _degree_grid(spec) is deg  # cached


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


def test_trunc_poly_validation():
    with pytest.raises(ValueError):
        TruncPoly(P12, np.zeros((2, 2), dtype=np.uint8))
    with pytest.raises(ValueError):
        TruncPoly.from_terms(P12, [(2, (0,))])
    with pytest.raises(ValueError):
        TruncPoly.from_terms(P12, [(0, (3,))])


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
        grid = np.array(
            [[[rng.getrandbits(1) for _ in range(2)] for _ in range(3)]
             for _ in range(3)],
            dtype=np.uint8,
        )
        return TruncPoly(spec, grid)

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
    with pytest.raises(ValueError):
        dual_sw_dold(P12, 6)
    with pytest.raises(ValueError):
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
    grid = np.zeros(spec.shape, dtype=np.uint8)
    for a in range(spec.n + 1):
        grid[(a,) + (0,) * spec.r] = binom_parity(spec.n + 1 - spec.r, a)
    w = TruncPoly(spec, grid)
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
    # one sparse product per binary digit of the inverted exponents, however
    # many grades are asked for (the Whitney recursion makes one per grade)
    products = []
    mul_grids = dold._mul_grids

    def counting(a, b, shape):
        products.append(1)
        return mul_grids(a, b, shape)

    monkeypatch.setattr(dold, "_mul_grids", counting)
    for spec in (P12, DoldSpec(7, (2, 4)), DoldSpec(1023, (255,))):
        period = 1 << (max(spec.shape) - 1).bit_length()
        exponents = (spec.n + 1 - spec.r, *(m + 1 for m in spec.ms))
        digits = sum((period - e).bit_count() for e in exponents)
        N = spec.dimension
        grades = range(N + 1) if N < 100 else (0, 1, N // 2, N)
        counts = set()
        for k in grades:
            products.clear()
            dual_sw_dold(spec, k)
            counts.add(len(products))
        assert len(counts) == 1 and counts.pop() <= digits


def test_dual_convolution_is_one():
    for spec in (P12, DoldSpec(3, (2, 4)), DoldSpec(7, (2, 8))):
        w = total_sw_dold(spec)
        wbar = dual_sw_dold(spec, spec.dimension)
        assert trunc_mul(w, wbar, spec) == TruncPoly.one(spec)


def test_graded_pieces_partition():
    spec = DoldSpec(3, (2, 4))
    w = total_sw_dold(spec)
    acc = np.zeros(spec.shape, dtype=np.uint8)
    for k in range(spec.dimension + 1):
        acc ^= graded_piece(w, k).grid
    assert TruncPoly(spec, acc) == w


def test_coefficient_p324():
    spec = DoldSpec(3, (2, 4))
    wbar10 = graded_piece(dual_sw_dold(spec, 10), 10)
    assert coefficient(wbar10, 2, (1, 3)) == 1
    with pytest.raises(ValueError):
        coefficient(wbar10, 4, (0, 0))
    with pytest.raises(ValueError):
        coefficient(wbar10, 0, (0,))


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
    for D in (12, 20, 24, 28, 36, 40, 44, 48, 52, 56, 60):
        assert scan_dold(D, D // 2) == []
    for D in (4, 8, 16, 32, 64):
        assert scan_dold(D, D // 2) == [DoldSpec(0, (D // 2,))]


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
    # the first refused full scan: 58,498 specs
    start = time.perf_counter()
    with pytest.raises(FeasibilityError) as info:
        scan_dold(76, 38)
    assert time.perf_counter() - start < 1.0
    assert str(info.value) == (
        "the scan of dimension 76 with r <= 38 screens more specs than the "
        "budget of 50000"
    )
    assert screens == [] and calls == [] and built == []
    # the largest admitted full scan: 40,025 specs, each screened, no hit
    assert scan_dold(72, 36) == []
    assert len(screens) == 40025 and calls == [] and built == []
    # one verify_dold per hit
    hits = scan_dold(31, 3)
    assert hits and sorted(calls, key=lambda s: (s.n, s.ms)) == hits


def test_degree_grid_cache_stays_bounded(monkeypatch):
    screens = _screens(monkeypatch)
    _degree_grid.cache_clear()
    assert scan_dold(24, 12) == []
    assert _degree_grid.cache_info().misses == 0  # no hit, no grid
    monkeypatch.undo()
    for spec in screens:
        verify_dold(spec)
    info = _degree_grid.cache_info()
    assert info.maxsize is not None and info.maxsize <= 8
    assert info.currsize <= info.maxsize
    assert info.hits > 0


def test_scan_dold_validation():
    with pytest.raises(ValueError):
        scan_dold(0, 1)
    with pytest.raises(ValueError):
        scan_dold(5, 0)
