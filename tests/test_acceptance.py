"""Acceptance criteria.

One test per criterion; each prints a single PASS line on success, so a
verbose run reads as a ten-line scorecard.  All arithmetic is exact over
GF(2): every comparison below is equality, never approximation.  Time budgets
are asserted inside the tests with wall-clock measurement.
"""

from __future__ import annotations

import itertools
import time

from charclass.bott import (
    alpha,
    alpha_hat,
    banded_matrix,
    chain_matrix,
    dual_sw,
    extend_with_circles,
    is_orientable,
    main_matrix,
    normal_form,
    top_coefficient,
    total_sw,
    verify_main,
)
from charclass.dold import (
    DoldSpec,
    TruncPoly,
    binom_parity,
    dual_sw_dold,
    graded_piece,
    total_sw_dold,
    trunc_mul,
    verify_dold,
)
from charclass.poly2 import Monomial, Poly
from charclass.qring import is_zero_monomial, verify_key, verify_zero_a, verify_zero_b
from charclass.steenrod import beta_tuple, chi_sq, enumerate_tuples

from conftest import ALL_BOTT_FIXTURES, ALL_DOLD_FIXTURES
from oracles import power_closed_form

X = Poly.var


def _timed(budget: float, fn, *args, **kwargs):
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    elapsed = time.perf_counter() - start
    assert elapsed < budget, (
        f"{fn.__name__}{args} took {elapsed:.2f}s, budget {budget}s"
    )
    return result, elapsed


def test_criterion_01_key_identity_stream():
    total_elapsed = 0.0
    for p, budget in ((2, 1.0), (3, 1.0), (4, 1.0), (5, 60.0)):
        report, elapsed = _timed(budget, verify_key, p)
        total_elapsed += elapsed
        assert report.total % 2 == 0
        for D, count in report.gap_counts:
            assert count % 2 == 0, f"odd gap count at D={D} for p={p}"
        assert report.nonzero % 2 == 0
        assert report.sum_is_zero
        assert report.verified
    print(
        f"PASS criterion 1: key identity verified for p=2..5 "
        f"({total_elapsed:.2f}s), parity ledger even at every gap position"
    )


def test_criterion_02_main_theorem_both_methods():
    for n in (1, 5, 9, 13, 17, 21, 25, 29):
        report, _ = _timed(10.0, verify_main, n, method="steenrod")
        assert report.orientable
        assert report.steenrod is True
    for n in (5, 9, 13, 17):
        report, _ = _timed(60.0, verify_main, n, method="direct")
        assert report.orientable
        assert report.direct is True
    for n in (5, 9, 13, 17):
        both = verify_main(n, method="both")
        assert both.direct == both.steenrod == True  # noqa: E712
        assert both.verified
    print(
        "PASS criterion 2: main theorem verified; steenrod route n=1..29, "
        "direct route n=5..17, methods agree on overlap"
    )


def test_criterion_03_circle_extension_corollary():
    for n in (2, 3, 6, 7, 10, 11, 14, 15, 18, 19):
        report = verify_main(n, method="both", direct_cap=19)
        assert report.orientable
        assert report.direct is True
        assert report.steenrod == report.direct  # the pairing on the base M_m
        assert report.verified
        m = n - (n % 4 - 1)  # largest 1-mod-4 dimension <= n
        assert alpha_hat(n) - alpha_hat(m) == n - m
        base = main_matrix(m)
        ext = extend_with_circles(base, n - m)
        base_dual = dual_sw(base, m)
        ext_dual = dual_sw(ext, n)
        for k in range(m + 1):
            assert ext_dual[k] == base_dual[k]  # classes pull back unchanged
        for k in range(m + 1, n + 1):
            assert ext_dual[k].is_zero()
    print(
        "PASS criterion 3: circle extensions verified for "
        "n=2,3,6,7,10,11,14,15,18,19; direct and steenrod (on the base) "
        "routes agree; dual classes pull back unchanged"
    )


def test_criterion_04_b12_negative_results():
    M = main_matrix(12)
    assert dual_sw(M, 9)[9].is_zero()

    banded = banded_matrix(12, 2)
    assert banded.ones == frozenset(
        {(i, i + 1) for i in range(1, 11)} | {(i, i + 2) for i in range(1, 11)}
    )
    assert dual_sw(banded, 9)[9].is_zero()

    for i in range(1, 11):
        z = Poly.of([Monomial.from_exponents({i: 1, 11: 1, 12: 1})])
        assert chi_sq(9, z, M).is_zero()

    for matrix in (M, banded):
        w = total_sw(matrix)
        closed = normal_form(
            w[9] + w[2] * w[2] * w[5] + w[3] * w[3] * w[3], matrix
        )
        assert dual_sw(matrix, 9)[9] == closed
    print(
        "PASS criterion 4: B_12 negative results reproduced; dual grade 9 "
        "vanishes for the main and banded matrices, all ten chi-Sq^9 "
        "products vanish, and the convolution agrees with w9+w2^2*w5+w3^3"
    )


def test_criterion_05_tuple_uniqueness():
    for n in (5, 9, 13, 17, 21, 25, 29):
        expected = beta_tuple(n)
        assert enumerate_tuples(n - alpha(n), alpha(n) - 1) == [expected]
    print(
        "PASS criterion 5: tuple uniqueness holds for n=5,9,13,17,21,25,29; "
        "the grading/weight constraints pin exactly the beta tuple"
    )


def test_criterion_06_zero_theorem():
    for n in (5, 9, 13):
        r = (n - 1).bit_count()
        for j in range(1, r + 1):
            for i in range(1, j):
                ok, _ = _timed(30.0, verify_zero_a, n, i, j)
                assert ok
            ok, _ = _timed(30.0, verify_zero_b, n, j)
            assert ok
    print(
        "PASS criterion 6: zero theorem parts a and b verified exhaustively "
        "for n=5,9,13 over every admissible case"
    )


def test_criterion_07_duality_cross_check():
    start = time.perf_counter()
    for n in (5, 9, 13):
        M = main_matrix(n)
        k = n - alpha(n)
        wbar_k = dual_sw(M, k)[k]
        for pair in itertools.combinations(range(1, n + 1), alpha(n)):
            z = Monomial.from_exponents({v: 1 for v in pair})
            left = top_coefficient(chi_sq(k, Poly.of([z]), M), M)
            right = top_coefficient(wbar_k * Poly.of([z]), M)
            assert left == right, f"mismatch at n={n}, z={z}"
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0, f"duality sweep took {elapsed:.1f}s, budget 120s"
    print(
        f"PASS criterion 7: Kronecker duality of chi-Sq and the dual class "
        f"checked for every squarefree z at n=5,9,13 ({elapsed:.2f}s)"
    )


def test_criterion_08_dold_families():
    specs = [DoldSpec(2 ** e - 3, (2,)) for e in range(2, 7)]
    specs += [
        DoldSpec(2 ** e - 1, (2, 2 ** f))
        for e in range(2, 5)
        for f in range(e, 5)
    ]
    specs += [
        DoldSpec(2 ** e - 1, (2, 2 ** f, 2 ** g))
        for e in range(2, 6)
        for f in range(e, 6)
        for g in range(f + 1, 6)
    ]
    for spec in specs:
        report, _ = _timed(10.0, verify_dold, spec)
        assert report.verified, f"verification failed for {spec}"

    # frozen instance plus the independent truncated-expansion oracle
    p12 = DoldSpec(1, (2,))
    wbar = dual_sw_dold(p12, 5)
    assert wbar == TruncPoly.from_terms(p12, [(0, (0,)), (0, (1,)), (1, (1,))])
    w = total_sw_dold(p12)
    stabilized = TruncPoly.one(p12)
    power = w
    for _ in range(p12.dimension.bit_length() + 1):
        stabilized = trunc_mul(stabilized, power, p12)
        power = trunc_mul(power, power, p12)
    assert wbar == stabilized
    print(
        f"PASS criterion 8: all {len(specs)} Dold family members verified; "
        "P(1;2) dual class equals 1+d+cd by both the convolution and the "
        "stabilized-power oracle"
    )


def test_criterion_09_orientable_vanishing_bound():
    checked = 0
    for label, M in ALL_BOTT_FIXTURES:
        if not is_orientable(M):
            continue
        grade = M.n - alpha_hat(M.n)
        full = dual_sw(M, M.n)
        for i in range(grade + 1, M.n + 1):
            assert full[i].is_zero(), f"{label}: dual class survives at {i}"
        checked += 1
    for label, spec in ALL_DOLD_FIXTURES:
        if not graded_piece(total_sw_dold(spec), 1).is_zero():
            continue
        N = spec.dimension
        grade = N - alpha_hat(N)
        full = dual_sw_dold(spec, N)
        for i in range(grade + 1, N + 1):
            assert graded_piece(full, i).is_zero(), (
                f"{label}: dual class survives at {i}"
            )
        checked += 1
    assert checked >= 40
    print(
        f"PASS criterion 9: dual classes vanish above N-alpha_hat(N) on all "
        f"{checked} orientable fixtures in the registry"
    )


def test_criterion_10_oracle_equivalences():
    # excess-sequence zero test == normal_form, all degree-m sequences
    def compositions(total, parts):
        if parts == 1:
            yield (total,)
            return
        for head in range(total + 1):
            for rest in compositions(total - head, parts - 1):
                yield (head, *rest)

    for m in range(1, 9):
        M = chain_matrix(m)
        top = Poly.of([Monomial.from_exponents({v: 1 for v in range(1, m + 1)})])
        for e in compositions(m, m):
            mono = Monomial.from_exponents(
                {i + 1: v for i, v in enumerate(e) if v}
            )
            nf = normal_form(Poly.of([mono]), M)
            assert nf == (Poly.zero() if is_zero_monomial(e) else top)

    # closed-form powers (token packing, in tests/oracles.py) == normal_form
    # up to n = 13
    for n in range(1, 14):
        M = main_matrix(n)
        for i in range(1, n):
            for e in range(1, i + 3):
                assert power_closed_form(i, e, n) == normal_form(X(i) ** e, M)
        for e in (1, 2, 4, 8, 16):
            assert power_closed_form(n, e, n) == normal_form(X(n) ** e, M)

    # Lucas parity == Pascal recursion up to p = 64
    row = [1]
    for p in range(65):
        for q in range(p + 1):
            assert binom_parity(p, q) == row[q]
        for q in range(p + 1, 66):
            assert binom_parity(p, q) == 0
        row = [1] + [(row[q - 1] + row[q]) % 2 for q in range(1, p + 1)] + [1]
    print(
        "PASS criterion 10: oracle equivalences hold (excess test vs "
        "normal form m<=8, closed-form powers vs normal form n<=13, Lucas "
        "parity vs Pascal p<=64)"
    )
