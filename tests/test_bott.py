"""Bott manifold rings: normal forms, classes, and the main verifier."""

from __future__ import annotations

import copy
import itertools
import json
import os
import pickle
import random
import subprocess
import sys
import time
import weakref
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from charclass.bott import (
    BottMatrix,
    FeasibilityError,
    GradedClasses,
    MainReport,
    UnsupportedDimensionError,
    alpha,
    alpha_hat,
    banded_matrix,
    chain_matrix,
    dual_sw,
    extend_with_circles,
    is_orientable,
    main_matrix,
    normal_form,
    random_orientable_matrix,
    top_class_bit,
    top_coefficient,
    total_sw,
    verify_main,
)
from charclass import bott
from charclass.bott import _DenseRing
from charclass import poly2
from charclass.poly2 import Monomial, Poly, format_poly, parse_poly
from charclass.steenrod import permsum

from conftest import ALL_BOTT_FIXTURES
from oracles import (
    canonical_key, mask_monomial, placements_submask_walk, power_closed_form,
    rewrite_normal_form,
)
from oracles import format_poly as oracle_format_poly

X = Poly.var


# ---------------------------------------------------------------------------
# oracles: plain Poly arithmetic + bucket rewriting, no squarefree-basis sweep


def _column_sum(M: BottMatrix, j: int) -> Poly:
    return sum((X(i) for i in M.col(j)), Poly.zero())


def _scalar_total_sw(M: BottMatrix) -> list[Poly]:
    """Total class by literal product expansion and bucket rewriting."""
    w = Poly.one()
    for j in range(1, M.n + 1):
        w = rewrite_normal_form(w * (Poly.one() + _column_sum(M, j)), M)
    return [
        Poly(frozenset(m for m in w.terms if m.degree() == k))
        for k in range(M.n + 1)
    ]


def _scalar_dual_sw(M: BottMatrix, up_to: int) -> list[Poly]:
    """Dual classes by the literal convolution recurrence, scalar route."""
    w = _scalar_total_sw(M)
    dual = [Poly.one()]
    for k in range(1, up_to + 1):
        acc = Poly.zero()
        for j in range(1, k + 1):
            acc = acc + rewrite_normal_form(w[j] * dual[k - j], M)
        dual.append(rewrite_normal_form(acc, M))
    return dual


def _random_matrix(rng: random.Random, n: int) -> BottMatrix:
    ones = [
        (i, j)
        for i in range(1, n + 1)
        for j in range(i + 1, n + 1)
        if rng.getrandbits(1)
    ]
    return BottMatrix(n, ones)


def _random_monomial(rng: random.Random, n: int, degree: int) -> Monomial:
    exps = [0] * n
    for _ in range(degree):
        exps[rng.randrange(n)] += 1
    return Monomial.from_exponents(
        {i + 1: e for i, e in enumerate(exps) if e > 0}
    )


def _random_poly(rng: random.Random, n: int, terms: int, max_exp: int) -> Poly:
    out = Poly.zero()
    for _ in range(terms):
        exps = {
            i: rng.randint(1, max_exp)
            for i in range(1, n + 1)
            if rng.getrandbits(1)
        }
        out = out + Poly.of([Monomial.from_exponents(exps)])
    return out


@st.composite
def _bott_matrices(draw, max_n: int = 9) -> BottMatrix:
    """Any strictly upper-triangular matrix, or one made orientable."""
    n = draw(st.integers(1, max_n))
    cells = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    bits = draw(st.lists(st.booleans(), min_size=len(cells), max_size=len(cells)))
    ones = {cell for cell, bit in zip(cells, bits) if bit}
    if draw(st.booleans()):
        for i in range(1, n):
            if sum(1 for r, _ in ones if r == i) % 2:
                ones ^= {(i, n)}
    return BottMatrix(n, ones)


# ---------------------------------------------------------------------------
# alpha / alpha_hat


def test_alpha_examples():
    assert alpha(5) == 2
    assert alpha(12) == 2
    for k in range(7):
        assert alpha(2 ** k) == 1


def test_alpha_hat_examples():
    assert alpha_hat(5) == 2
    assert alpha_hat(12) == 3
    assert alpha_hat(1) == 1


def test_alpha_hat_table():
    for n in range(1, 200):
        ones = bin(n).count("1")
        expected = ones if n % 4 == 1 else ones + 1
        assert alpha(n) == ones
        assert alpha_hat(n) == expected


def test_alpha_rejects_nonpositive():
    with pytest.raises(ValueError):
        alpha(0)
    with pytest.raises(ValueError):
        alpha_hat(-3)


# ---------------------------------------------------------------------------
# matrices


def test_main_matrix_five():
    assert main_matrix(5).ones == frozenset(
        {(1, 2), (2, 3), (3, 4), (1, 5), (2, 5), (3, 5)}
    )


def test_main_matrix_small():
    assert main_matrix(1).ones == frozenset()
    assert main_matrix(2).ones == frozenset()
    assert main_matrix(3).ones == frozenset({(1, 2), (1, 3)})


def test_matrix_validation():
    with pytest.raises(ValueError):
        BottMatrix(0, [])
    with pytest.raises(ValueError):
        BottMatrix(3, [(2, 2)])
    with pytest.raises(ValueError):
        BottMatrix(3, [(2, 1)])
    with pytest.raises(ValueError):
        BottMatrix(3, [(1, 4)])
    with pytest.raises(ValueError):
        BottMatrix(3, [(0, 2)])


@pytest.mark.parametrize("ones", [[(1.9, 3)], [(1, 3.0)], [(True, 3)], [("1", 3)]])
def test_matrix_entries_must_be_integers(ones):
    # int() would have read (1.9, 3) as a one at (1, 3)
    with pytest.raises(ValueError, match="must be a pair of integers"):
        BottMatrix(5, ones)
    with pytest.raises(ValueError, match="must be a pair of integers"):
        BottMatrix(5, [(1, 3), *ones])  # also next to an equal int entry


def test_matrix_json_round_trip():
    spec_text = '{"n": 5, "ones": [[1,2],[2,3],[3,4],[1,5],[2,5],[3,5]]}'
    assert BottMatrix.from_json(spec_text) == main_matrix(5)
    for _, M in ALL_BOTT_FIXTURES:
        assert BottMatrix.from_json(M.to_json()) == M
    data = json.loads(main_matrix(5).to_json())
    assert set(data) == {"n", "ones"}


def test_matrix_json_malformed():
    for text in ("{", "[]", '{"n": 3}', '{"n": 3, "ones": [[1,1]]}',
                 '{"n": 0, "ones": []}', '{"n": 3, "ones": [[1]]}'):
        with pytest.raises(ValueError):
            BottMatrix.from_json(text)


def test_matrix_json_accepts_only_integers():
    for text in ('{"n": true, "ones": []}', '{"n": 3.0, "ones": []}',
                 '{"n": 3, "ones": [[1.7, 2.2]]}', '{"n": 3, "ones": [[true, 2]]}',
                 '{"n": 3, "ones": [["1", 2]]}', '{"n": 3, "ones": "12"}'):
        with pytest.raises(ValueError):
            BottMatrix.from_json(text)


def test_chain_and_banded_shape():
    assert chain_matrix(4).ones == frozenset({(1, 2), (2, 3), (3, 4)})
    assert banded_matrix(12, 2).ones == frozenset(
        {(i, i + 1) for i in range(1, 11)} | {(i, i + 2) for i in range(1, 11)}
    )


def test_extend_with_circles():
    ext = extend_with_circles(main_matrix(5), 1)
    assert ext.n == 6
    assert ext.ones == main_matrix(5).ones
    assert extend_with_circles(main_matrix(5), 0) == main_matrix(5)
    assert extend_with_circles(BottMatrix(1, []), 2) == BottMatrix(3, [])


@pytest.mark.parametrize(
    "call",
    [
        lambda: dual_sw(main_matrix(5), True),
        lambda: dual_sw(main_matrix(5), 2.0),
        lambda: extend_with_circles(main_matrix(5), True),
        lambda: main_matrix(5.0),
        lambda: chain_matrix(3.0),
        lambda: banded_matrix(5, 2.0),
        lambda: random_orientable_matrix(5.0, 1),
        lambda: random_orientable_matrix(5, True),
    ],
    ids=[
        "dual_sw-up_to-bool", "dual_sw-up_to-float", "extend_with_circles-k-bool",
        "main_matrix-float", "chain_matrix-float", "banded_matrix-bandwidth-float",
        "random_orientable_matrix-n-float", "random_orientable_matrix-seed-bool",
    ],
)
def test_bott_calls_accept_only_integers(call):
    # True was read as 1 (a grade-1 dual class, one more circle) and a float
    # raised TypeError from inside << or range
    with pytest.raises(ValueError, match="must be an integer"):
        call()


def test_random_orientable_matrix_deterministic_and_orientable():
    for n, seed in ((6, 11), (8, 12), (10, 13), (12, 14), (13, 15)):
        M = random_orientable_matrix(n, seed)
        assert M == random_orientable_matrix(n, seed)
        assert M.n == n
        assert is_orientable(M)


# ---------------------------------------------------------------------------
# orientability


def test_orientability_examples():
    assert is_orientable(main_matrix(5))
    assert not is_orientable(BottMatrix(2, [(1, 2)]))
    assert is_orientable(BottMatrix(4, []))


def test_orientability_iff_w1_vanishes():
    rng = random.Random(20260817)
    matrices = [M for _, M in ALL_BOTT_FIXTURES if M.n <= 9]
    matrices += [_random_matrix(rng, rng.randint(2, 7)) for _ in range(25)]
    for M in matrices:
        row_parity = all(len(M.row(i)) % 2 == 0 for i in range(1, M.n + 1))
        assert is_orientable(M) == row_parity
        assert is_orientable(M) == total_sw(M)[1].is_zero()


# ---------------------------------------------------------------------------
# normal forms


def test_normal_form_examples():
    M = main_matrix(5)
    assert normal_form(X(2) ** 2, M) == parse_poly("x1*x2")
    assert normal_form(X(4) ** 3, M) == parse_poly("x2*x3*x4")
    assert normal_form(X(3) ** 4, M) == Poly.zero()
    assert normal_form(X(5) ** 2, M) == parse_poly("x1*x5 + x2*x5 + x3*x5")


def test_normal_form_fixes_squarefree_basis():
    M = main_matrix(5)
    for mask in range(32):
        m = Poly.of([Monomial.from_mask(mask)])
        assert normal_form(m, M) == m


def test_normal_form_rejects_out_of_range_variable():
    with pytest.raises(ValueError):
        normal_form(X(6), main_matrix(5))


def test_normal_form_is_squarefree_and_ring_homomorphic():
    rng = random.Random(97)
    for _ in range(40):
        n = rng.randint(2, 6)
        M = _random_matrix(rng, n)
        p = _random_poly(rng, n, terms=4, max_exp=3)
        q = _random_poly(rng, n, terms=4, max_exp=3)
        np_, nq = normal_form(p, M), normal_form(q, M)
        for m in np_.terms:
            assert m.is_squarefree()
        assert normal_form(np_, M) == np_  # idempotent
        assert normal_form(p + q, M) == np_ + nq  # additive
        assert normal_form(p * q, M) == normal_form(np_ * nq, M)


# Exponents 8 and 16 reach the long carry chains of x_v^(2^k); 1 keeps some
# terms squarefree, so a poly can mix terms that need sweeps and terms that
# need none.
_EXPONENTS = (1, 2, 3, 4, 5, 8, 16)


@st.composite
def _polys_on(draw, n: int) -> Poly:
    """A sum of one to four monomials in x_1..x_n, each in 1..3 variables."""
    terms = []
    for _ in range(draw(st.integers(1, 4))):
        variables = draw(st.lists(
            st.integers(1, n), unique=True, min_size=1, max_size=min(n, 3)
        ))
        terms.append(Monomial.from_exponents(
            {v: draw(st.sampled_from(_EXPONENTS)) for v in variables}
        ))
    return Poly.of(terms)


@st.composite
def _matrices_and_polys(draw) -> tuple[BottMatrix, Poly]:
    M = draw(_bott_matrices())
    return M, draw(_polys_on(M.n))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(_matrices_and_polys())
@example((main_matrix(9), X(9) ** 16 + X(8) ** 8 * X(9) ** 2 + X(3) * X(7)))
def test_normal_form_matches_bucket_rewriting(case):
    M, p = case
    assert normal_form(p, M) == rewrite_normal_form(p, M)


def test_normal_form_pinned_cases():
    M = main_matrix(5)
    assert normal_form(Poly.one(), M) == Poly.one()
    assert normal_form(Poly.zero(), M) == Poly.zero()
    assert normal_form(X(13) ** 16, main_matrix(13)) == power_closed_form(13, 16, 13)
    full_sum = Poly.of(Monomial.var(v) for v in range(1, 8))
    assert normal_form(full_sum ** 7, chain_matrix(7)).is_zero()


def test_squarefree_terms_cost_no_sweep(monkeypatch):
    sweeps = []
    mul_var = bott._mul_var

    def counting(elems, l, M):
        sweeps.append(l)
        return mul_var(elems, l, M)

    monkeypatch.setattr(bott, "_mul_var", counting)
    M = random_orientable_matrix(9, 5)
    squarefree = Poly.of(Monomial.from_mask(mask) for mask in range(0, 512, 7))
    assert normal_form(squarefree, M) == squarefree
    assert top_coefficient(permsum(29), main_matrix(29)) == 1
    assert not sweeps
    # the counter sees the sweeps it is meant to count
    assert normal_form(X(2) ** 2, main_matrix(5)) == parse_poly("x1*x2")
    assert sweeps == [2]


def test_terms_above_degree_n_cost_no_sweep(monkeypatch):
    sweeps = []
    mul_var = bott._mul_var

    def counting(elems, l, M):
        sweeps.append(l)
        return mul_var(elems, l, M)

    monkeypatch.setattr(bott, "_mul_var", counting)
    M = main_matrix(5)
    for exp in (6, 10**6, 10**8):
        assert normal_form(Poly.of([Monomial.var(3, exp)]), M).is_zero()
    above = Poly.of([Monomial.var(3, 6), Monomial(((1, 2), (4, 1), (5, 3)))])
    assert normal_form(above + X(2) ** 2, M) == parse_poly("x1*x2")
    assert sweeps == [2]


def test_power_closed_form_examples():
    assert power_closed_form(4, 4, 5) == parse_poly("x1*x2*x3*x4")
    assert power_closed_form(3, 4, 5) == Poly.zero()
    assert power_closed_form(5, 2, 5) == parse_poly("x1*x5 + x2*x5 + x3*x5")


def test_power_closed_form_rejects_non_two_power_top_exponent():
    with pytest.raises(ValueError):
        power_closed_form(5, 3, 5)


def test_power_closed_form_matches_rewriting():
    for n in range(1, 10):
        M = main_matrix(n)
        for i in range(1, n):
            for e in range(1, i + 3):
                assert power_closed_form(i, e, n) == normal_form(X(i) ** e, M)
        for e in (1, 2, 4, 8):
            assert power_closed_form(n, e, n) == normal_form(X(n) ** e, M)


def test_top_power_general_exponent_identity():
    # x_n^E = (x_1 + ... + x_{n-2})^(E-1) x_n for every E >= 1
    for n in (5, 6, 7):
        M = main_matrix(n)
        S = sum((X(i) for i in range(1, n - 1)), Poly.zero())
        for E in range(1, 7):
            assert normal_form(X(n) ** E, M) == normal_form(
                S ** (E - 1) * X(n), M
            )


# ---------------------------------------------------------------------------
# total and dual classes


def test_total_sw_of_torus_is_one():
    classes = total_sw(BottMatrix(3, []))
    assert classes[0] == Poly.one()
    for k in range(1, 4):
        assert classes[k].is_zero()


def test_total_sw_main_five_frozen():
    classes = total_sw(main_matrix(5))
    assert classes[0] == Poly.one()
    assert classes[1].is_zero()
    assert classes[2] == parse_poly("x1*x3")
    assert classes[3] == parse_poly("x1*x2*x3")
    assert classes[4].is_zero()
    assert classes[5].is_zero()


def test_total_sw_matches_scalar_expansion():
    rng = random.Random(4242)
    matrices = [M for _, M in ALL_BOTT_FIXTURES if M.n <= 8]
    matrices += [_random_matrix(rng, rng.randint(2, 7)) for _ in range(10)]
    for M in matrices:
        dense = total_sw(M)
        scalar = _scalar_total_sw(M)
        for k in range(M.n + 1):
            assert dense[k] == scalar[k]


def test_total_sw_b12_elementary_symmetric():
    # w_i(B_12) equals the i-th elementary symmetric polynomial in the
    # eleven column sums x_1, ..., x_10, x_1 + ... + x_10.
    M = main_matrix(12)
    ys = [X(i) for i in range(1, 11)]
    ys.append(sum(ys, Poly.zero()))
    sigma = [Poly.one()] + [Poly.zero()] * 12
    for y in ys:
        for k in range(12, 0, -1):
            sigma[k] = normal_form(sigma[k] + sigma[k - 1] * y, M)
    classes = total_sw(M)
    for k in range(13):
        assert classes[k] == sigma[k]


def test_dual_sw_of_torus_is_one():
    classes = dual_sw(BottMatrix(3, []), 3)
    assert classes[0] == Poly.one()
    for k in range(1, 4):
        assert classes[k].is_zero()


def test_dual_sw_main_five_frozen():
    classes = dual_sw(main_matrix(5), 5)
    assert classes[3] == parse_poly("x1*x2*x3")
    assert not classes[3].is_zero()


def test_dual_sw_main_twelve_grade_nine_vanishes():
    assert dual_sw(main_matrix(12), 9)[9].is_zero()


def test_dual_sw_rejects_out_of_range():
    with pytest.raises(ValueError):
        dual_sw(main_matrix(5), 6)
    with pytest.raises(ValueError):
        dual_sw(main_matrix(5), -1)


def test_dual_sw_matches_scalar_convolution():
    rng = random.Random(777)
    matrices = [M for _, M in ALL_BOTT_FIXTURES if M.n <= 8]
    matrices += [_random_matrix(rng, rng.randint(2, 6)) for _ in range(6)]
    for M in matrices:
        dense = dual_sw(M, M.n)
        scalar = _scalar_dual_sw(M, M.n)
        for k in range(M.n + 1):
            assert dense[k] == scalar[k]


def test_duality_convolution_vanishes():
    for M in (main_matrix(5), main_matrix(9), banded_matrix(8, 2),
              random_orientable_matrix(8, 12)):
        w = total_sw(M)
        wbar = dual_sw(M, M.n)
        for k in range(1, M.n + 1):
            acc = Poly.zero()
            for j in range(k + 1):
                acc = acc + w[j] * wbar[k - j]
            assert normal_form(acc, M).is_zero()


def test_dual_sw_pulls_back_along_circle_extensions():
    for m in (5, 9):
        base = main_matrix(m)
        base_dual = dual_sw(base, m)
        for k in (1, 2):
            ext = extend_with_circles(base, k)
            ext_dual = dual_sw(ext, m + k)
            for i in range(m + 1):
                assert ext_dual[i] == base_dual[i]
            for i in range(m + 1, m + k + 1):
                assert ext_dual[i].is_zero()


# The dense engine keeps one bit per basis element in an int and takes the
# same step for every variable; n = 5..7 cover shifts of 1 to 64 bits, up
# to blocks of a whole 64-bit word.
@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(_bott_matrices())
@example(main_matrix(5))
@example(random_orientable_matrix(5, 3))
@example(main_matrix(6))
@example(BottMatrix(6, [(i, j) for i in range(1, 7) for j in range(i + 1, 7)]))
@example(random_orientable_matrix(7, 4))
@example(BottMatrix(7, [(1, 7), (5, 7), (6, 7), (2, 3)]))
def test_packed_engine_matches_scalar_route(M):
    assert total_sw(M)[:] == tuple(_scalar_total_sw(M))
    assert dual_sw(M, M.n)[:] == tuple(_scalar_dual_sw(M, M.n))


def test_dual_sw_renders_only_the_grade_read(monkeypatch):
    rendered = []
    to_poly = _DenseRing.to_poly

    def counting(v):
        rendered.append(v)
        return to_poly(v)

    monkeypatch.setattr(_DenseRing, "to_poly", counting)
    for n in (5, 9, 13):
        rendered.clear()
        k = n - alpha_hat(n)
        classes = dual_sw(main_matrix(n), k)
        assert not rendered
        assert not classes[k].is_zero()
        assert len(rendered) == 1
        assert classes[k] is classes[k]  # cached, not rendered again
        assert len(rendered) == 1


# bits on either side of each 32-byte block edge, where the factors of the
# higher bytes change (x9 and up, so n >= 9)
_BLOCK_EDGES = tuple(b for k in range(1, 16) for b in (256 * k - 1, 256 * k))


def _grades_match_the_mask_oracle(bits: set[int] | range, n: int) -> None:
    # to_poly takes one grade at a time, so the vector of the masks ``bits``
    # (all below 2^n) is cut into its grades and each is checked on its own
    v = sum(1 << m for m in bits)
    for k in range(n + 1):
        piece = _DenseRing.to_poly(_DenseRing.grade_piece(v, n, k))
        expected = Poly.of(mask_monomial(m) for m in bits if m.bit_count() == k)
        assert piece == expected
        assert piece.monomials() == sorted(expected.terms, key=canonical_key)
        assert format_poly(piece) == oracle_format_poly(expected)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.sets(st.integers(0, 4095) | st.sampled_from(_BLOCK_EDGES), max_size=80))
@example(set())
@example({255, 256})
@example({0, 300, 4095})
@example(set(_BLOCK_EDGES))
def test_to_poly_matches_the_mask_oracle(bits):
    _grades_match_the_mask_oracle(bits, 12)


def test_to_poly_of_every_full_vector():
    for n in range(12):
        _grades_match_the_mask_oracle(range(1 << n), n)


@pytest.mark.parametrize("n", (17, 18))
@pytest.mark.parametrize("seed", range(4))
def test_to_poly_matches_the_mask_oracle_past_x16(n, seed):
    # from x17 on, the factors of a block h span two bytes of h.  A sparse
    # vector with masks on both sides of the block edges where x17 and
    # x18 enter (2^16 and 2^17), terms without a low byte among them, and
    # masks drawn from the whole range
    rng = random.Random(seed)
    bits = {0, (1 << n) - 1}
    for v in range(17, n + 1):
        edge = 1 << (v - 1)
        bits |= {edge, edge - 256, edge + 256, edge - 1}
        bits |= {edge - 1 - rng.getrandbits(10) for _ in range(25)}
        bits |= {edge + rng.getrandbits(10) for _ in range(25)}
    bits |= {rng.getrandbits(n) for _ in range(50)}
    _grades_match_the_mask_oracle(bits, n)


def test_to_poly_keeps_equality_hash_and_repr_on_the_terms():
    # the kept bits are no part of a Poly's value: a to_poly grade equals
    # Poly.of of its terms, and its repr shows only the frozenset of terms,
    # listed in the canonical order; its text is that of the plain Poly
    rng = random.Random(24)
    for n in (3, 9, 12):
        v = rng.getrandbits(1 << n)
        for k in range(n + 1):
            piece = _DenseRing.to_poly(_DenseRing.grade_piece(v, n, k))
            plain = Poly.of(piece.terms)
            assert piece == plain and plain == piece
            assert hash(piece) == hash(plain)
            assert repr(piece) == repr(Poly(frozenset(piece.monomials()))) == repr(plain)
            assert repr(plain).startswith("Poly(terms=frozenset(")
            assert "_bits" not in repr(piece)
            assert plain.monomials() == piece.monomials()
            assert format_poly(piece) == format_poly(plain) == oracle_format_poly(plain)
            assert type(plain) is Poly and not hasattr(plain, "_bits")


def test_arithmetic_on_a_grade_keeps_no_text(monkeypatch):
    # a Poly made from a to_poly grade is a plain Poly that holds no bits,
    # so no text can be written from bits that are not its terms; it
    # renders through the sort
    sorts = []
    canonical_order = poly2._canonical_order

    def counting(terms):
        sorts.append(1)
        return canonical_order(terms)

    monkeypatch.setattr(poly2, "_canonical_order", counting)
    v = random.Random(26).getrandbits(1 << 10)
    for k in (1, 3, 5, 9):
        piece = _DenseRing.to_poly(_DenseRing.grade_piece(v, 10, k))
        text = format_poly(piece)
        assert not sorts and not piece.is_zero()
        for made in (piece + Poly.zero(), piece * Poly.one(), Poly.of(piece.terms)):
            assert made == piece and type(made) is Poly and not hasattr(made, "_bits")
            assert format_poly(made) == text
            assert sorts.pop()


def test_class_table_pieces_render_without_a_sort(monkeypatch):
    # every grade of total_sw / dual_sw comes in the canonical order, so
    # format_poly never falls back to sorting its terms
    def refuse(terms):
        raise AssertionError("a class-table grade was sorted")

    for M in (main_matrix(9), random_orientable_matrix(10, 7)):
        pieces = total_sw(M)[:] + dual_sw(M, M.n)[:]
        expected = [oracle_format_poly(p) for p in pieces]
        monkeypatch.setattr(poly2, "_canonical_order", refuse)
        assert [format_poly(p) for p in pieces] == expected
        monkeypatch.undo()


def _class_tables():
    for M in (main_matrix(9), main_matrix(10), random_orientable_matrix(9, 5),
              random_orientable_matrix(10, 7)):
        yield M, total_sw(M)[:] + dual_sw(M, M.n)[:]


def _terms_built(p: Poly) -> bool:
    # reads the slot itself: a Poly's __getattr__ would build the terms
    try:
        object.__getattribute__(p, "terms")
    except AttributeError:
        return False
    return True


def test_class_table_grades_build_no_monomial_until_read(monkeypatch):
    # rendering a grade, testing it for zero and counting its terms read
    # only its bits; the terms are built on the first read of
    # .terms, once, and equal the masks of its bits
    def refuse(factors):
        raise AssertionError("a class-table grade built a Monomial")

    monkeypatch.setattr(poly2, "_squarefree_monomial", refuse)
    tables = list(_class_tables())
    for _, grades in tables:
        for piece in grades:
            format_poly(piece)
            assert piece.is_zero() == (len(piece) == 0)
            assert not _terms_built(piece)
    monkeypatch.undo()
    for M, grades in tables:
        for piece in grades:
            text = format_poly(piece)
            bits = [m for m in range(1 << M.n) if piece._bits >> m & 1]
            terms = piece.terms
            assert terms == frozenset(map(mask_monomial, bits))
            assert piece.terms is terms
            assert len(piece) == len(bits) and piece.is_zero() == (not bits)
            assert text == oracle_format_poly(Poly(terms))


def test_a_grade_equals_its_terms_before_and_after_they_are_built():
    # equality and hash come from the terms: compared from either side, or
    # hashed, a packed grade builds them and agrees with the Poly parsed
    # from its text; once they are built it still does
    for _, grades in _class_tables():
        for piece in grades:
            plain = parse_poly(format_poly(piece))
            left, right, hashed = (_DenseRing.to_poly(piece._bits) for _ in range(3))
            assert not any(map(_terms_built, (left, right, hashed)))
            assert left == plain and plain == right
            assert hash(hashed) == hash(plain)
            for built in (left, right, hashed):
                assert _terms_built(built)
                assert built == plain and plain == built
                assert hash(built) == hash(plain) and repr(built) == repr(plain)


def test_a_verdict_read_writes_no_text(monkeypatch):
    # testing a boundary grade for zero and counting its terms, as the
    # verdicts of scan-bott and verify-main do, read only its bits; the
    # text is written when the grade is first rendered
    def refuse():
        raise AssertionError("a verdict read wrote a grade's text")

    monkeypatch.setattr(poly2, "_low_bytes", refuse)
    grades = []
    for n in (5, 9, 13):
        k = n - alpha_hat(n)
        for M in (main_matrix(n), random_orientable_matrix(n, n)):
            grade = dual_sw(M, k)[k]
            assert grade.is_zero() == (len(grade) == 0)
            grades.append(grade)
        assert verify_main(n, "direct").verified
    assert not grades[0].is_zero()
    monkeypatch.undo()
    for grade in grades:
        assert format_poly(grade) == oracle_format_poly(Poly.of(grade.terms))


def test_getattr_of_a_grade_refuses_every_other_name():
    piece = total_sw(main_matrix(9))[3]
    assert getattr(piece, "nope", None) is None
    with pytest.raises(AttributeError, match="object has no attribute 'nope'"):
        piece.nope
    assert not hasattr(Poly.zero(), "nope")


def test_a_grade_keeps_its_text_through_copy_and_pickle():
    # a copy is made again from the bits, so it renders without a sort and
    # equals the grade, whether or not the grade's terms were built
    for piece in total_sw(main_matrix(9))[:]:
        for twin in (copy.copy(piece), copy.deepcopy(piece),
                     pickle.loads(pickle.dumps(piece))):
            assert type(twin) is type(piece) and not _terms_built(twin)
            assert format_poly(twin) == format_poly(piece) and twin == piece


def test_graded_classes_do_not_keep_the_dense_ring(monkeypatch):
    # the ring caches a 2^n-bit mask per variable; once the product is
    # swept, the classes hold only the product int
    rings = []
    init = _DenseRing.__init__

    def recording(self, *args, **kwargs):
        init(self, *args, **kwargs)
        rings.append(weakref.ref(self))

    monkeypatch.setattr(_DenseRing, "__init__", recording)
    for classes_of in (lambda M: dual_sw(M, 5), total_sw):
        classes = classes_of(main_matrix(9))
        assert rings.pop()() is None
        assert not classes[5].is_zero()


def test_dual_sw_stays_within_its_priced_sweeps(monkeypatch):
    # the dense engine is priced at up_to * n sweeps; each truncated series
    # must still be exact in every grade it returns
    sweeps = []
    mul_by_seeds = _DenseRing._mul_by_seeds

    def counting(self, seeds):
        sweeps.append(1)
        return mul_by_seeds(self, seeds)

    monkeypatch.setattr(_DenseRing, "_mul_by_seeds", counting)
    for M in (main_matrix(12), random_orientable_matrix(12, 5),
              random_orientable_matrix(11, 8)):
        full = dual_sw(M, M.n)[:]
        for k in range(M.n + 1):
            sweeps.clear()
            classes = dual_sw(M, k)
            assert len(sweeps) <= k * M.n
            assert classes[:] == full[: k + 1]


def test_lazy_graded_classes_equal_rendered_ones():
    for M in (main_matrix(9), random_orientable_matrix(8, 12), chain_matrix(7)):
        for compute in (total_sw, lambda M: dual_sw(M, M.n)):
            rendered = compute(M)
            assert len(rendered[:]) == M.n + 1  # every grade rendered
            assert compute(M)[-1] == rendered[-1]  # read before any other grade
            lazy = compute(M)
            assert lazy == rendered and rendered == lazy
            assert len(lazy) == len(rendered) == M.n + 1
            assert lazy.n == rendered.n == M.n
            assert hash(compute(M)) == hash(rendered)
            assert lazy[:] == rendered[:]
            assert lazy != GradedClasses(M.n, 0, M.n)  # every grade zero


def test_graded_classes_slices_read_their_grades():
    M = random_orientable_matrix(6, 3)
    for compute in (total_sw, lambda M: dual_sw(M, M.n)):
        full = compute(M)[:]
        for cut in (slice(0, 3), slice(None), slice(None, None, -2),
                    slice(5, 1, -1), slice(-3, None), slice(9, 12)):
            assert compute(M)[cut] == full[cut]  # no grade read before
            partly = compute(M)
            partly[1]
            assert partly[cut] == full[cut]  # one grade read before
        for bad in (1.5, "1", None, (0, 1)):
            with pytest.raises(TypeError):
                compute(M)[bad]


def test_dense_engine_is_priced_before_any_allocation(monkeypatch):
    # the sweep masks are the first 2^n-bit allocation of the engine
    def refuse(self, l):
        raise AssertionError("allocated before the price check")

    monkeypatch.setattr(_DenseRing, "_low", refuse)
    M = main_matrix(40)
    for compute in (total_sw, lambda M: dual_sw(M, 0), lambda M: dual_sw(M, 40)):
        with pytest.raises(FeasibilityError, match=r"\(> budget 200000000\)"):
            compute(M)
    with pytest.raises(FeasibilityError, match="budget"):
        dual_sw(BottMatrix(10**6), 1)
    # n <= 24 fits at every grade (24 * 24 + 1 sweeps of 2^18 words); n = 25
    # fits up to grade 15 (15 * 25 + 1 sweeps of 2^19 words), not 16
    for M, up_to in ((main_matrix(24), 24), (main_matrix(25), 15)):
        with pytest.raises(AssertionError, match="allocated"):
            dual_sw(M, up_to)
    with pytest.raises(FeasibilityError):
        dual_sw(main_matrix(25), 16)



def _run_with_address_space(args: list[str], limit: int) -> subprocess.CompletedProcess:
    """Run ``python args`` with the address space of the child capped."""
    import resource  # POSIX only, like preexec_fn

    src = Path(__file__).resolve().parent.parent / "src"
    path = os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=path),
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
    )


def test_admitted_grade_zero_dual_allocates_nothing_large():
    # (0 + 1) * 2^27 words fits DENSE_BUDGET at n = 33; grade 0 needs no
    # sweep, so neither the API nor the CLI may touch a 2^33-bit vector
    limit = 256 << 20
    api = _run_with_address_space(
        ["-c", "from charclass.bott import dual_sw, main_matrix; "
               "print(dual_sw(main_matrix(33), 0)[:])"],
        limit,
    )
    assert (api.returncode, api.stdout, api.stderr) == (
        0, "(Poly(terms=frozenset({Monomial(factors=())})),)\n", "",
    )
    cli = _run_with_address_space(
        ["-m", "charclass.cli", "--direct-cap", "33", "class-table", "--n", "33",
         "--dual", "--up-to", "0"],
        limit,
    )
    assert (cli.returncode, cli.stdout, cli.stderr) == (0, "degree,class\n0,1\n", "")


# ---------------------------------------------------------------------------
# top-class evaluation


def test_top_coefficient_examples():
    M = main_matrix(5)
    top = parse_poly("x1*x2*x3*x4*x5")
    assert top_coefficient(top, M) == 1
    assert top_coefficient(X(4) ** 4 * X(5), M) == 1
    assert top_coefficient(X(4) * X(5) ** 4, M) == 0


def test_top_coefficient_rejects_inhomogeneous():
    M = main_matrix(5)
    with pytest.raises(ValueError):
        top_coefficient(X(1) + parse_poly("x1*x2*x3*x4*x5"), M)
    with pytest.raises(ValueError):
        top_coefficient(X(1) * X(2), M)


def test_main_pattern_is_the_main_matrix():
    seen = set()
    for _, M in ALL_BOTT_FIXTURES:
        expected = M.ones == main_matrix(M.n).ones
        assert M.is_main_pattern == expected, M
        seen.add(expected)
        if not expected:
            with pytest.raises(ValueError, match="main-family"):
                top_class_bit(M, {M.n: M.n})
    assert seen == {True, False}


def test_top_class_bit_exhaustive_degree_five():
    # all 126 exponent vectors of total degree 5 on five variables
    M = main_matrix(5)

    def compositions(total, parts):
        if parts == 1:
            yield (total,)
            return
        for head in range(total + 1):
            for rest in compositions(total - head, parts - 1):
                yield (head, *rest)

    for exps in compositions(5, 5):
        mono = Monomial.from_exponents(
            {i + 1: e for i, e in enumerate(exps) if e}
        )
        expected = normal_form(Poly.of([mono]), M)
        bit = top_class_bit(M, {i + 1: e for i, e in enumerate(exps) if e})
        assert bit in (0, 1)
        if bit:
            assert expected == parse_poly("x1*x2*x3*x4*x5")
        else:
            assert expected.is_zero()


def test_top_class_bit_random_degree_n_monomials():
    rng = random.Random(5150)
    for n in (9, 13):
        M = main_matrix(n)
        for _ in range(60):
            mono = _random_monomial(rng, n, n)
            exps = dict(mono.exponents())
            expected = normal_form(Poly.of([mono]), M)
            bit = top_class_bit(M, exps)
            assert bit == (0 if expected.is_zero() else 1)


@st.composite
def _full_degree_main_cases(draw):
    n = draw(st.integers(1, 9))
    # n factors, each a variable: chain parts that over-fill a prefix are
    # common (x1 drawn twice already over-fills position 1)
    picks = draw(st.lists(st.integers(1, n), min_size=n, max_size=n))
    exps: dict[int, int] = {}
    for v in picks:
        exps[v] = exps.get(v, 0) + 1
    return n, exps


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_full_degree_main_cases())
@example((1, {1: 1}))
@example((2, {2: 2}))
@example((5, {1: 2, 5: 3}))  # over-full at position 1, x5^3 present
@example((7, {2: 3, 3: 1, 7: 3}))  # over-full at position 2 only
@example((9, {4: 4, 8: 1, 9: 4}))
@example((9, {9: 9}))
def test_top_class_bit_matches_rewriting(case):
    n, exps = case
    M = main_matrix(n)
    reduced = rewrite_normal_form(Poly.of([Monomial.from_exponents(exps)]), M)
    assert top_class_bit(M, exps) == (0 if reduced.is_zero() else 1)


@pytest.mark.parametrize("exponents", [
    {True: 1, 2: 1, 3: 1, 4: 1, 5: 1},  # True was read as x1
    {1.0: 1, 2: 1, 3: 1, 4: 1, 5: 1},
    {1: 1, 2: 1, 3: 1, 4: 1, 5: True},  # True was read as exponent 1
    {1: 1, 2: 1, 3: 1, 4: 1.0, 5: 1},  # returned 1
    {1: 1, 2: 1, 3: 1, 4: 1, 5: 1.0},  # raised AttributeError
    {1: 1, 2: 1, 3: 1, 4: 1, 5: "1"},
])
def test_top_class_bit_refuses_a_variable_or_exponent_that_is_not_an_int(exponents):
    with pytest.raises(ValueError, match="must be integers"):
        top_class_bit(main_matrix(5), exponents)


def test_top_class_bit_refuses_before_the_over_full_shortcut():
    # x1^2 over-fills position 1, so the count is 0, but the request costs
    # 4097 * 3^popcount(4094) = 4097 * 3^11 steps and stays refused
    M = main_matrix(4097)
    with pytest.raises(FeasibilityError, match="budget"):
        top_class_bit(M, {1: 2, 4097: 4095})
    # admitted and answered at once: x_2048 takes one degree, so the digits
    # of 2045 fit the later prefixes, and a full walk would spend seconds on
    # positions 2047..2 before it reached the dead x1^2
    M = main_matrix(2049)
    start = time.perf_counter()
    assert top_class_bit(M, {1: 2, 2048: 1, 2049: 2046}) == 0
    assert time.perf_counter() - start < 0.5


def _brute_force_completions(q, base, d=0, inside=0):
    """Ways to place the binary digits of q outside ``inside`` (digits of q
    already placed at or before d) on positions d+1..len(base) over
    ``base``, with no prefix from d+1 on over-filled; enumerates every
    position tuple.  The defaults count the placements of all of q."""
    free = [1 << t for t in range(q.bit_length()) if (q & ~inside) >> t & 1]
    count = 0
    later = range(d + 1, len(base) + 1)
    for positions in itertools.product(later, repeat=len(free)):
        filled = list(base)
        for digit, v in zip(free, positions):
            filled[v - 1] += digit
        prefix = list(itertools.accumulate(filled))
        count += all(inside + prefix[v - 1] <= v for v in later)
    return count


def _lanes(g, q, length):
    """The 2^popcount(q) lanes of a state of ``bott._placements(q, base)``,
    len(base) = length; asserts nothing sits above the top lane."""
    width = bott._lane_width(q, length)
    lanes = 1 << q.bit_count()
    assert g >> (lanes * width) == 0
    return [g >> (U * width) & ((1 << width) - 1) for U in range(lanes)]


@st.composite
def _placement_cases(draw):
    length = draw(st.integers(0, 9))
    base = draw(st.lists(st.integers(0, 3), min_size=length, max_size=length))
    return draw(st.integers(0, 2 * length + 2)), base


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(_placement_cases())
@example((0, []))
@example((7, [0] * 7))
@example((11, [0, 1, 0, 0, 2, 0, 0, 0, 0]))
@example((5, [1, 0, 2, 0, 0, 0, 0, 0]))
def test_placements_match_brute_force(case):
    q, base = case
    # the count on every leading part of the base: lane 0 of g_0
    for length in range(len(base) + 1):
        for g in bott._placements(q, base[:length]):
            pass
        assert _lanes(g, q, length)[0] == _brute_force_completions(q, base[:length])
    # every per-position state: lane U of g_d for the digit set U placed by d
    digits = [1 << t for t in range(q.bit_length()) if q >> t & 1]
    states = bott._placements(q, base)
    for d, g in zip(range(len(base), -1, -1), states, strict=True):
        for U, count in enumerate(_lanes(g, q, len(base))):
            inside = sum(w for i, w in enumerate(digits) if U >> i & 1)
            assert count == _brute_force_completions(q, base, d, inside)


@st.composite
def _large_placement_cases(draw):
    length = draw(st.integers(0, 40))
    # mostly empty positions and digits up to about the length, so that most
    # placements fit and most lanes are nonzero
    bases = st.sampled_from((0, 0, 0, 0, 1, 2, 3))
    base = draw(st.lists(bases, min_size=length, max_size=length))
    digits = draw(st.sets(st.integers(0, (length + 1).bit_length()), max_size=8))
    return sum(1 << t for t in digits), base


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_large_placement_cases())
@example((255, [0] * 40))
@example((31, [0, 1, 0, 0, 0, 0] * 6 + [0] * 4))
def test_placements_match_submask_walk(case):
    """Every lane of every packed state equals the submask walk's count, on
    cases too large for the brute force."""
    q, base = case
    states = bott._placements(q, base)
    for g, ref in zip(states, placements_submask_walk(q, base), strict=True):
        assert _lanes(g, q, len(base)) == ref


def test_top_coefficient_is_binary_on_random_matrices():
    rng = random.Random(31337)
    for _ in range(40):
        n = rng.randint(2, 6)
        M = _random_matrix(rng, n)
        p = Poly.of([_random_monomial(rng, n, n)])
        assert top_coefficient(p, M) in (0, 1)


# ---------------------------------------------------------------------------
# verify_main


def test_verify_main_five():
    report = verify_main(5)
    assert report.orientable
    assert report.grade == 3
    assert report.direct is True
    assert report.steenrod is True
    assert report.verified


def test_verify_main_six_is_circle_extension():
    report = verify_main(6, method="direct")
    assert report.orientable
    assert report.grade == 3
    assert report.direct is True
    assert report.steenrod is None
    assert report.verified


def test_verify_main_one():
    report = verify_main(1)
    assert report.grade == 0
    assert report.verified


def test_verify_main_rejects_multiples_of_four():
    for n in (4, 8, 12, 100):
        with pytest.raises(UnsupportedDimensionError, match="unsupported dimension class"):
            verify_main(n)


def test_verify_main_method_constraints():
    with pytest.raises(ValueError):
        verify_main(5, method="frobnicate")
    with pytest.raises(FeasibilityError):
        verify_main(21, method="direct")  # beyond the default cap


@pytest.mark.parametrize("n", [True, 5.0, 9.5, "5"])
def test_verify_main_and_alpha_accept_only_integers(n):
    # verify_main(True) once answered for n = 1 with "n": true in its JSON
    with pytest.raises(ValueError, match="n must be an integer"):
        verify_main(n)
    with pytest.raises(ValueError, match="alpha requires an integer"):
        alpha(n)
    with pytest.raises(ValueError, match="alpha requires an integer"):
        alpha_hat(n)
    # integer input keeps its messages
    with pytest.raises(ValueError, match=r"^n must be >= 1, got 0$"):
        verify_main(0)
    with pytest.raises(ValueError, match=r"^alpha requires n >= 1, got 0$"):
        alpha(0)


def test_verify_main_methods_agree():
    for n in (5, 9, 13):
        report = verify_main(n, method="both")
        assert report.direct == report.steenrod == True  # noqa: E712


def test_verify_main_routes_agree_on_every_supported_dimension():
    # the Steenrod route pairs on the base M_m, the direct route reads the
    # dual class of M_m x (S^1)^(n-m)
    for n in range(1, 20):
        if n % 4:
            report = verify_main(n, method="both", direct_cap=19)
            assert report.direct == report.steenrod == True, n  # noqa: E712
            assert report.verified


def test_verify_main_steenrod_far_above_the_direct_cap():
    # far above the direct cap the Steenrod route decides alone
    for n in (253, 509):
        report = verify_main(n, method="steenrod")
        assert report.steenrod is True and report.verified, n


def test_verify_main_builds_the_main_matrix_once(monkeypatch):
    # M_m decides orientability (the circles add only zero rows) and carries
    # the Steenrod pairing; the circles are added for the direct route only
    built = []
    init = BottMatrix.__init__

    def counting(self, n, ones=()):
        built.append(n)
        init(self, n, ones)

    monkeypatch.setattr(BottMatrix, "__init__", counting)
    assert verify_main(29, "steenrod").verified
    assert built == [29]
    built.clear()
    assert verify_main(31, "steenrod").verified  # m = 29, two circles unused
    assert built == [29]
    built.clear()
    assert verify_main(7, "both").verified
    assert built == [5, 7]


def test_circle_extension_keeps_the_boundary_grade():
    # n - alpha_hat(n) = m - alpha_hat(m) for the base m = 1 (mod 4) of n
    for n in range(1, 4097):
        if n % 4:
            m = n - (n % 4 - 1)
            assert n - alpha_hat(n) == m - alpha_hat(m), n


def test_main_report_json_round_trip():
    report = verify_main(5)
    data = json.loads(report.to_json())
    # the key order is part of the pinned CLI bytes
    assert list(data) == ["n", "alpha_hat", "grade", "orientable", "methods"]
    assert list(data["methods"]) == ["direct", "steenrod"]
    assert MainReport.from_json(report.to_json()) == report
    partial = verify_main(7, method="direct")
    assert MainReport.from_json(partial.to_json()) == partial


@pytest.mark.parametrize("text", ['{"n": 5}', "[]", '{"n": 1}', "nope"])
def test_main_report_json_rejects_malformed_text(text):
    with pytest.raises(ValueError, match="report JSON"):
        MainReport.from_json(text)
