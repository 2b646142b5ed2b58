"""Generalized Dold manifolds: truncated rings and class verifiers."""

from __future__ import annotations

import json
import random

import numpy as np
import pytest

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

from conftest import ALL_DOLD_FIXTURES

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


def test_spec_dimension_and_shape():
    spec = DoldSpec(3, (2, 4))
    assert spec.dimension == 15
    assert spec.r == 2
    assert spec.shape == (4, 3, 5)


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


def test_scan_dold_validation():
    with pytest.raises(ValueError):
        scan_dold(0, 1)
    with pytest.raises(ValueError):
        scan_dold(5, 0)
